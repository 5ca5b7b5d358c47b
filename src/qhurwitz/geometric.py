"""Geometric pipeline: weighted counts of branched coverings.

The unweighted count of n-sheeted branched coverings with profiles
(mu^1, ..., mu^k, mu, nu) is the Frobenius character sum

    sum over shapes lam of n of
        prod_i E_lam(mu^i) * chi_lam(mu) chi_lam(nu) / (z_mu z_nu),
    E_lam(rho) = h_lam chi_lam(rho) / z_rho,

which equals 1/n! times the number of tuples (g_1, ..., g_k, a, b) with g_i,
a, b in the respective conjugacy classes and g_1 ... g_k a b = identity.
E_lam(rho) is a central character: the integer by which the sum of the
class rho acts on the irreducible module lam.  frobenius_hurwitz evaluates
one configuration in integers and divides once; the exhaustive tuple count
enumerate_factorizations is kept alongside as the binding brute-force oracle.

Quantum weighted Hurwitz numbers sum this over ORDERED k-tuples of nontrivial
profiles with fixed total colength d, each tuple carrying the symmetrized
weight of its colengths; ordered tuples paired with the 1/k!-symmetrized
weight is the convention forced by exact agreement with the tau-coefficient
pipeline.  The H family carries the sign (-1)^(k+d); E and E' are unsigned.

The weight sees a profile only through its colength, so the sum runs over
colength classes, not profiles.  The profiles of colength c sum to

    E_lam(c) = sum over rho of colength c of E_lam(rho),

the central character of the sum of all classes of colength c; by Jucys it
is the elementary symmetric function e_c of the contents of lam.  The
weight of an ordered colength tuple is a product of level factors over its
prefix sums (qweights.level_factor), and the tuple-times-orderings sum of
symmetrized weights equals the sum over ordered tuples of those products.
So per species s and shape lam, one walk over the prefix sums P gives

    G_s(lam, t) = sum over ordered tuples (c_1, ..., c_k) of colengths
                  1..n-1 with sum t of prod_i s_c_i E_lam(c_i) * prod of level factors

for every degree t up to the largest requested, with the H sign
(-1)^(k+t) = prod_i (-1)^(c_i+1) folded into s_c.  For q = a/b every level
factor is an int over b^P - a^P, so the walk runs in integers: G_s(lam, t)
is an int numerator over the known D_t = prod_{P<=t} (b^P - a^P), and no
Fraction is made before an output entry.  The empty tuple (t = 0)
carries weight 1, and a one-sheeted cover has no nontrivial profile, so its
G_s is 0 at every positive degree.  The contents of the conjugate shape
lam' are those of lam negated, so G_s(lam', t) = (-1)^t G_s(lam, t): the
walk runs over one shape per conjugate pair.  Species add independent
tuples, so a multispecies value of total degree D is

    sum_lam prod_s G_s(lam) chi_lam(mu) chi_lam(nu) / (z_mu z_nu),

and since chi_lam'(rho) = (-1)^colength(rho) chi_lam(rho), it is 0 unless
colength(mu) + colength(nu) + D is even; otherwise each conjugate pair
counts twice.  It is one integer dot product of the numerators over the
product of the species' D_(d_s), one Fraction per output entry.  Each call
does this in one pass over its multidegrees: _eigenvalues walks each
species once and forms every multidegree's block, its numerators as
successive per-species outer products with its denominator and degree
parity, and _character_sums sets up the character columns,
conjugate-pair factors, parities and pairs once and returns each block's
values over the asked index pairs (mu, nu), in the order asked, as
spectral_sum does for the other legs.  Its core is rational only: series
mode goes through series.by_monomial, one int block per monomial, joined
back into series.  multispecies_hurwitz_number is its one-pair call,
multispecies_hurwitz_matrix sums the upper triangle of the pairs for one
multidegree, laid out as a matrix by CharacterTable.symmetric,
multispecies_hurwitz_matrices does that for every multidegree up to
maxdeg, and quantum_hurwitz_number is the one-species call.  The leg reads only
character_table (whose conjugate_pairs come from partitions.conjugate) and
qweights.level_factor, whose denominators give D_t: it uses neither the
contents, their elementary symmetric functions, the content coefficients
nor the spectral kernel spectral.spectral_sum of the other two legs.  Its
agreement with the tau leg is then the theorem that the level sums of the
colength weights are the e-expansion of the content product.

A sum whose estimated cost (walk steps and matrix terms scaled by the bit
size of the exact weights; _geometric_cost) exceeds GEOMETRIC_COST_LIMIT
raises CapacityError before any walk.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul

from . import series, sn
from .characters import character_table
from .errors import CapacityError
from .partitions import Partition, check_partition, colength
from .qweights import Species, WeightConfig, level_factor
from .scalars import RATIONAL, Immutable, sized_text

#: Largest _geometric_cost a geometric sum may have.
GEOMETRIC_COST_LIMIT = 10**6


class BranchConfiguration(Immutable):
    """Branch data of a covering: extra profiles plus the two marked profiles.

    All profiles are partitions of the same n = sum(mu); the extra profiles
    must be nontrivial (different from the identity class).
    """

    _fields = ("extra_profiles", "mu", "nu")

    def __init__(self, extra_profiles, mu: Partition, nu: Partition):
        extra_profiles = tuple(check_partition(p) for p in extra_profiles)
        mu = check_partition(mu)
        nu = check_partition(nu)
        n = sum(mu)
        if sum(nu) != n:
            raise ValueError("mu and nu must have equal weight")
        for profile in extra_profiles:
            if sum(profile) != n:
                raise ValueError("every extra profile must be a partition of n")
            if colength(profile) == 0:
                raise ValueError("extra profiles must be nontrivial")
        self._set(extra_profiles, mu, nu)


@lru_cache(maxsize=1024)
def frobenius_hurwitz(config: BranchConfiguration) -> Fraction:
    """Covering count of the configuration, as a character sum.

    Symmetric under permuting the extra profiles and under swapping mu and
    nu.  With no extra profiles this collapses to delta_{mu,nu} / z_mu.  The
    k extra profiles give sum_lam h_lam^k prod chi_lam over all k + 2
    profiles in integers, divided once by the product of their z.
    """
    tbl = character_table(sum(config.mu))
    classes = [tbl.index(p) for p in (*config.extra_profiles, config.mu, config.nu)]
    k = len(config.extra_profiles)
    total = sum(
        hook**k * prod(row[j] for j in classes)
        for row, hook in zip(tbl.values, tbl.hook_products)
    )
    return Fraction(total, prod(tbl.centralizer_orders[j] for j in classes))


def enumerate_factorizations(config: BranchConfiguration) -> int:
    """Exhaustive count of tuples (g_1, ..., g_k, a, b) multiplying to the identity.

    g_i runs over the class of extra profile i, a over the class of mu and b
    over the class of nu.  Exactly n! times frobenius_hurwitz; the last factor
    b is determined by the rest, so only (g_1, ..., g_k, a) is enumerated.
    symmetric_group refuses n past GROUP_LIMIT with CapacityError.
    """
    group = sn.symmetric_group(sum(config.mu))
    table = group.table
    type_of = group.type_of
    nu = config.nu
    mu_class = group.classes[config.mu]
    count = 0
    class_lists = [group.classes[p] for p in config.extra_profiles]
    for combo in itertools.product(*class_lists):
        acc = group.identity
        for g in combo:
            acc = table[acc][g]
        row = table[acc]
        for a in mu_class:
            if type_of[row[a]] == nu:
                count += 1
    return count


@lru_cache(maxsize=None)
def _profile_tuples(n: int, total: int) -> tuple[tuple[tuple[Partition, ...], int], ...]:
    """Multisets of nontrivial profiles of n with colengths summing to total.

    Each multiset appears once, as a descending tuple of profiles paired
    with its number of orderings k!/prod m_P!, m_P the multiplicity of
    profile P.  The profiles are those of character_table(n), in its
    descending order, with colength 1..total; a one-sheeted cover has none.
    The pipeline walks prefix sums of colengths and never lists profile
    multisets; the tests check this enumeration against the ordered-tuple
    reference.
    """
    pool = [(p, colength(p)) for p in character_table(n).partitions if 0 < colength(p) <= total]
    multisets = []
    stack = [((), 0, total)]
    while stack:
        profiles, start, rest = stack.pop()
        if rest == 0:
            orderings = factorial(len(profiles)) // prod(map(factorial, Counter(profiles).values()))
            multisets.append((profiles, orderings))
        stack.extend((profiles + (p,), i, rest - c)
                     for i, (p, c) in enumerate(pool[start:], start) if c <= rest)
    return tuple(multisets)


def _geometric_cost(config: WeightConfig, degrees: list, entry: bool = False) -> int:
    """Work estimate of the walks and of one matrix per multidegree (entry: one entry), scaled by the weight bits.

    degrees holds, per species, the degrees it takes: (d_s,) for one
    multidegree, range(m_s + 1) for every multidegree up to maxdeg; the
    multidegrees are their product.  Species s walked to its largest degree
    d_s carries numerators of about b_s d_s^2 bits, b_s its parameter's bit
    length; x_s = b_s d_s^2 / 2^13.  Per walked shape and level, walk s
    multiplies its n-1 kept numerators by small ints and adds them, linear
    in the bits, and scales n-2 of them by the level denominator of about
    b_s d_s bits; with p = p(n) shapes it costs
    p d_s ((n-1)(1 + x_s) + (n-2) x_s b_s d_s / 2^11).  A matrix of
    multidegree bits x = sum_s x_s fills p^2 entries from dot products,
    linear in the bits, and reduces one Fraction for each of its p(p+1)/2
    pairs: (p^2 + 16)(1 + x) + 16 p(p+1)/2 x^2, summed over the multidegrees
    in closed form (the mean of x^2 is the squared mean plus the variance
    each species adds).  One entry weights one character column and reduces
    one Fraction, as if a matrix of one row and two pairs:
    (p + 16)(1 + x) + 32 x^2.  The constants are fitted to the in-process
    times of tools/geometric_cost_times.csv: a number or a matrix costing
    2 * 10^5 or more took at most 1.9 us a unit, 0.5 us in the median.
    Each ds is ascending, so its largest degree is ds[-1].  One sheet walks
    no step and has no weight bits: each of its multidegrees costs one
    entry, 17.  Weight bits sum_s b_s d_s^2 past the limit are returned as
    they are, before character_table(n) is fetched (it refuses n past
    TABLE_LIMIT) or any degree is listed: they bound n = 2, where a walk
    scales nothing.
    """
    n = config.n
    if n == 1:
        return 17 * prod(map(len, degrees))
    bits = sum(species.bits * ds[-1] ** 2 for species, ds in zip(config.species, degrees))
    if bits > GEOMETRIC_COST_LIMIT:
        return bits
    p = len(character_table(n).partitions)
    # The sum is taken in integers over unit^2, unit = 2^13 times the lcm of
    # the species' degree counts, which every mean and variance divides, and
    # its ceiling is one floor division.
    common = lcm(*map(len, degrees))
    unit = 2**13 * common
    walk = x = variance = 0  # over 2^24, unit and unit^2
    for species, ds in zip(config.species, degrees):
        levels = [species.bits * d * d for d in ds]
        top, total, scale = max(levels), sum(levels), common // len(ds)
        walk += p * ds[-1] * ((n - 1) * (2**24 + 2**11 * top) + (n - 2) * top * species.bits * ds[-1])
        x += scale * total
        variance += scale * scale * (len(ds) * sum(v * v for v in levels) - total * total)
    rows, pairs = (1, 2) if entry else (p, p * (p + 1) // 2)
    matrices = (p * rows + 16) * (unit + x) * unit + 16 * pairs * (x * x + variance)
    return -(-(4 * common * common * walk + prod(map(len, degrees)) * matrices) // (unit * unit))


def _colength_characters(tbl) -> list[list[int]]:
    """E[c][i]: the central character of the colength-c class sum on shape i, c < n.

    The sum over the classes rho of colength c of h_lam chi_lam(rho) / z_rho,
    each term the integer by which one class sum acts on the module lam.
    """
    n = tbl.n
    sums = [[0] * len(tbl.partitions) for _ in range(n)]
    for j, (rho, z) in enumerate(zip(tbl.partitions, tbl.centralizer_orders)):
        row = sums[n - len(rho)]
        for i, (chars, hook) in enumerate(zip(tbl.values, tbl.hook_products)):
            row[i] += hook * chars[j] // z
    return sums


def _species_eigenvalues(species: Species, degrees, classes: list[list[int]], shapes) -> dict:
    """{t: (numerators, D_t)}, G_s(lam) = numerator / D_t for lam in shapes, for every t in degrees.

    classes is _colength_characters(n) and shapes the shape indices walked,
    one per conjugate pair.  One walk over the prefix sums runs up to the
    largest t:

        A[0] = 1,   B[P] = sum_{c=1..min(n-1,P)} s_c E_lam(c) A[P-c],
        A[P] = g(P, mid) B[P],   G_s(lam, t) = g(t, last) B[t],

    with s_c = (-1)^(c+1) for H, whose product over the tuple is its sign
    (-1)^(k+t), and s_c = 1 for E and E'.  Each level factor g(P, last) is
    level_factor's numerator over its denominator, the same for both values
    of last, so D_P is the product of the denominators of levels 1..P: for
    q = a/b, prod_{j<=P} (b^j - a^j), and 1 in series mode.  Only the last
    n-1 A[P] are kept, as numerators over D_(P-1): B[P] is then their
    integer combination over D_(P-1), and each level scales the kept ones by
    its denominator.  The seed is the int 1 in rational mode, so no Fraction
    is made.  One sheet has no colength, so the walk takes no step and G_s
    is the mode's 0 at every positive degree: a zero series in series mode.
    """
    family, q = species.family, species.parameter
    sign = -1 if family == "H" else 1
    steps = [[sign ** (c + 1) * row[i] for i in shapes] for c, row in enumerate(classes) if c]
    one = 1 if isinstance(q, RATIONAL) else q**0
    window = [[one] * len(shapes)]
    denominator = 1
    values = {t: ([0 * one] * len(shapes), 1) if t else (window[0], 1) for t in degrees}
    top = max(degrees) if steps else 0
    for level in range(1, top + 1):
        b = [sum(step[k] * a[k] for step, a in zip(steps, window)) for k in range(len(shapes))]
        if level in values:
            numerator, scale = level_factor(family, q, level, True)
            values[level] = [numerator * v for v in b], denominator * scale
        if level < top:
            numerator, scale = level_factor(family, q, level, False)
            kept = [[scale * v for v in a] for a in window[: len(steps) - 1]]
            window = [[numerator * v for v in b], *kept]
            denominator *= scale
    return values


def _character_sums(tbl, blocks, pairs=None) -> list:
    """Per block, the tuple of sum over all shapes lam of G(lam) chi_lam(i) chi_lam(j) / (z_i z_j) over the pairs (i, j).

    blocks are (numerators, D, parity) triples, as _eigenvalues returns
    them: G = numerator / D over the first shape of each of
    tbl.conjugate_pairs, and G(lam') = (-1)^degree G(lam), parity the
    degree's.  pairs is a sequence of index pairs into tbl.partitions, in
    any order, repeats and j < i allowed; by default tbl.upper_pairs, whose
    values tbl.symmetric lays out as the matrix.  Since chi_lam'(mu) =
    (-1)^colength(mu) chi_lam(mu), a pair whose colengths and degree have
    odd sum is 0, and every other pair counts a conjugate pair twice and a
    self-conjugate shape once.  The character columns, those factors and
    the pairs of each parity, grouped by first index, are set up once for
    all the blocks.  The character column of each first index i is
    weighted by a block's numerators once, and each pair is one integer
    dot product over D z_i z_j: one Fraction per summed value, none per
    eigenvalue.  A call holding any series runs through series.by_monomial,
    which hands this core one block of int numerators per monomial.
    """
    pairs = tbl.upper_pairs if pairs is None else pairs
    if any(not isinstance(g, RATIONAL) for numerators, _, _ in blocks for g in numerators):
        return series.by_monomial(lambda split: _character_sums(tbl, split, pairs), blocks)
    columns = list(zip(*(tbl.values[k] for k, _ in tbl.conjugate_pairs)))
    twice = [1 + (k != c) for k, c in tbl.conjugate_pairs]
    z = tbl.centralizer_orders
    odd = [colength(mu) % 2 for mu in tbl.partitions]
    live = ({}, {})  # per parity of the degree: {i: [(j, k)]}, k the index of the pair (i, j) it sums
    for k, (i, j) in enumerate(pairs):
        live[(odd[i] + odd[j]) % 2].setdefault(i, []).append((j, k))
    zero = Fraction(0)
    results = []
    for numerators, denominator, parity in blocks:
        weights = list(map(mul, twice, numerators))
        values = [zero] * len(pairs)
        for i, targets in live[parity].items():
            weighted = list(map(mul, weights, columns[i]))
            for j, k in targets:
                values[k] = Fraction(sum(map(mul, weighted, columns[j])), denominator * z[i] * z[j])
        results.append(tuple(values))
    return results


def _check_cost(cost: int) -> None:
    """Raise CapacityError when a geometric cost exceeds GEOMETRIC_COST_LIMIT."""
    if cost > GEOMETRIC_COST_LIMIT:
        raise CapacityError(
            f"geometric sum costs about {sized_text(cost, 'a number')} (walk steps and matrix terms "
            f"scaled by weight bits), over the limit of {GEOMETRIC_COST_LIMIT}"
        )


def _eigenvalues(config: WeightConfig, degrees: list, entry: bool = False) -> tuple:
    """(table, keys, blocks): character_table(n), the multidegrees and their _character_sums blocks.

    degrees holds the degrees of each species, as _geometric_cost takes
    them; the multidegrees are their product, in itertools.product order.
    Admitted before any work by the _geometric_cost of their walks and
    matrices (entry: of one entry).  Each species is walked once, and the
    blocks are its outer products with those of the species before it: a
    multidegree's block is (numerators, D, parity), its eigenvalue of the
    first shape of each conjugate pair the product of its species'
    numerators over the product D of their D_(d_s), ints in rational mode,
    and parity that of its total degree.
    """
    _check_cost(_geometric_cost(config, degrees, entry))
    tbl = character_table(config.n)
    shapes = [k for k, _ in tbl.conjugate_pairs]
    classes = _colength_characters(tbl)
    keys, blocks = [()], [([1] * len(shapes), 1, 0)]
    for species, ds in zip(config.species, degrees):
        values = _species_eigenvalues(species, set(ds), classes, shapes)
        picked = [(*values[d], d & 1) for d in ds]
        keys = [key + (d,) for key in keys for d in ds]
        blocks = [(list(map(mul, numerators, walked)), denominator * scale, parity ^ odd)
                  for numerators, denominator, parity in blocks for walked, scale, odd in picked]
    return tbl, keys, blocks


def quantum_hurwitz_number(family: str, q, d: int, mu: Partition, nu: Partition):
    """Weighted count of coverings with total extra colength d, single species.

    The one-species case of multispecies_hurwitz_number; q is validated by
    Species.  d = 0 gives delta_{mu,nu}/z_mu.
    """
    mu = check_partition(mu)
    config = WeightConfig((Species(family, q),), sum(mu))
    return multispecies_hurwitz_number(config, (d,), mu, nu)


def multispecies_hurwitz_number(
    config: WeightConfig, degrees: tuple[int, ...], mu: Partition, nu: Partition
):
    """Weighted covering count with per-species colength totals fixed by degrees.

    The one-pair call of _character_sums over the colength-class
    eigenvalues.  A sum whose _geometric_cost exceeds GEOMETRIC_COST_LIMIT
    raises CapacityError before any enumeration.
    """
    mu = check_partition(mu)
    nu = check_partition(nu)
    if sum(mu) != config.n or sum(nu) != config.n:
        raise ValueError("mu and nu must be partitions of the configuration degree")
    tbl, _, blocks = _eigenvalues(config, [(d,) for d in config.degrees(degrees)], entry=True)
    [[value]] = _character_sums(tbl, blocks, [(tbl.index(mu), tbl.index(nu))])
    return value


def multispecies_hurwitz_matrix(config: WeightConfig, degrees: tuple[int, ...]) -> tuple:
    """multispecies_hurwitz_number for every pair of partitions of n, as rows.

    Rows and columns run over character_table(n).partitions, as the other
    legs hold a matrix: rows[i][j] is the value of (partitions[i],
    partitions[j]).  The eigenvalues are formed once, and the upper
    triangle of the pairs is summed and laid out by tbl.symmetric.
    Admitted by the _geometric_cost of its walks and one matrix.
    """
    tbl, _, blocks = _eigenvalues(config, [(d,) for d in config.degrees(degrees)])
    [values] = _character_sums(tbl, blocks)
    return tbl.symmetric(values)


def multispecies_hurwitz_matrices(config: WeightConfig, maxdeg: tuple[int, ...]) -> dict:
    """{degrees: multispecies_hurwitz_matrix(config, degrees)} for every multidegree up to maxdeg.

    Admitted by the _geometric_cost of each species' walk, counted once, and
    of one matrix per multidegree, which it counts in closed form.
    """
    maxdeg = config.degrees(maxdeg)
    tbl, keys, blocks = _eigenvalues(config, [range(m + 1) for m in maxdeg])
    return {key: tbl.symmetric(values) for key, values in zip(keys, _character_sums(tbl, blocks))}
