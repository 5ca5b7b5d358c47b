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
is the elementary symmetric function e_c of the contents of lam.  Per species
s of degree d and per shape lam,

    G_s(lam) = sum over multisets K of colengths 1..n-1 with sum d of
               orderings(K) * sign * symmetrized_weight(K) * prod_{c in K} E_lam(c),

orderings(K) = k!/prod m_c! counting the ordered colength tuples of K.  The
empty multiset (d = 0) carries weight 1, and a one-sheeted cover has no
nontrivial profile, so its G_s is 0 at every positive degree.  Species add
independent tuples, so a multispecies value is

    sum_lam prod_s G_s(lam) chi_lam(mu) chi_lam(nu) / (z_mu z_nu),

taken per monomial (one for rationals) as one integer dot product over a
common denominator.  multispecies_hurwitz_number is its one-pair call,
multispecies_hurwitz_matrix sums the symmetric half of the pairs,
multispecies_hurwitz_matrices does that for every multidegree up to maxdeg
with each species' G_s formed once per degree, and quantum_hurwitz_number is
the one-species call.  The leg reads only character_table and
symmetrized_weight: it uses neither the contents, the content coefficients
nor the spectral kernel characters.spectral_sum of the other two legs.  Its agreement with the tau leg is then the theorem that the
symmetrized colength weights are the e-expansion of the content product.

A sum whose estimated cost (ordered profile tuples times the degree, or the
bit size of the exact weights) exceeds GEOMETRIC_COST_LIMIT raises
CapacityError before any enumeration; the ordered tuples are counted, not
enumerated.  The estimate was fitted to a sum over profile tuples, so it
over-estimates the colength-class sum; it is kept as fitted, which keeps
every request's admission.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul

from .characters import character_table
from .errors import CapacityError
from .partitions import (
    Partition,
    check_partition,
    colength,
)
from .qweights import Species, WeightConfig, multidegrees, symmetrized_weight
from .series import Immutable, TruncatedSeries
from .sn import symmetric_group

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


@lru_cache(maxsize=None)
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
    group = symmetric_group(sum(config.mu))
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
    The sums run over colength classes and never list profile multisets:
    this is the enumeration whose orderings _tuple_count counts for the
    cost model, and the tests check that count against it.
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


def _tuple_count(n: int, total: int) -> int:
    """Ordered profile tuples of n with colength sum total: the orderings of _profile_tuples.

    Counted by a recursion over the colength of the last profile, from the
    number of profiles of each colength in character_table(n), without
    enumerating anything.
    """
    if n == 1:
        return int(total == 0)
    sizes = Counter(colength(p) for p in character_table(n).partitions)
    counts = [1]
    for t in range(1, total + 1):
        counts.append(sum(sizes[c] * counts[t - c] for c in range(1, min(n - 1, t) + 1)))
    return counts[total]


def _geometric_cost(config: WeightConfig, degrees: tuple[int, ...]) -> int:
    """Work estimate of a geometric sum, in profile-tuple terms or weight bits.

    The larger of prod_s N_s * max(1, sum of degrees), where N_s counts the
    ordered profile tuples of species s, and sum_s b_s * d_s^2, where b_s is
    the bit length of species s's rational parameter (1 for a series): the
    exact weights grow to about that many bits, which is what bounds n = 2,
    whose N_s is 1 at every degree.  The weight term is at least the degree
    sum, so a large one is returned before any tuple is counted.  A sum with
    no profile tuple at all (n = 1, a positive degree) costs nothing.
    """
    n = config.n
    bits = sum(species.bits * c * c for species, c in zip(config.species, degrees))
    if n >= 2 and bits > GEOMETRIC_COST_LIMIT:
        return bits
    terms = prod(_tuple_count(n, c) for c in degrees)
    return max(terms * max(1, sum(degrees)), bits) if terms else 0


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


def _species_eigenvalues(species: Species, degree: int, classes: list[list[int]]) -> list:
    """G_s(lam) per shape: the species' signed weights over the colength multisets of degree.

    classes is _colength_characters(n).  Each multiset K of colengths
    1..n-1 summing to degree is enumerated once, descending, carrying the
    vector prod_{c in K} E_lam(c), and adds its number of orderings times
    its symmetrized weight times that vector; H carries (-1)^(k+degree).
    """
    sums = [0] * len(classes[0])
    stack = [((), [1] * len(sums), degree)]
    while stack:
        key, vector, rest = stack.pop()
        if rest == 0:
            orderings = factorial(len(key)) // prod(map(factorial, Counter(key).values()))
            w = orderings * symmetrized_weight(species.family, species.parameter, key)
            if species.family == "H" and (len(key) + degree) % 2:
                w = -w
            sums = [s + w * v for s, v in zip(sums, vector)]
            continue
        top = min(key[-1] if key else len(classes) - 1, rest)
        stack.extend((key + (c,), list(map(mul, vector, classes[c])), rest - c)
                     for c in range(1, top + 1))
    return sums


def _character_sums(tbl, eigenvalues: list, pairs) -> dict:
    """{(i, j): sum_lam eigenvalues[lam] chi_lam(i) chi_lam(j) / (z_i z_j)} over index pairs.

    Per monomial of the eigenvalues (one for rationals) they go over their
    lcm denominator D, each character column is weighted by them once, and
    each pair is one integer dot product over D z_i z_j.
    """
    series = next((g for g in eigenvalues if isinstance(g, TruncatedSeries)), None)
    monomials: dict[tuple, list] = {}
    for k, g in enumerate(eigenvalues):
        for expo, value in g.coeffs.items() if isinstance(g, TruncatedSeries) else [((), g)]:
            monomials.setdefault(expo, [Fraction(0)] * len(eigenvalues))[k] = Fraction(value)
    columns = list(zip(*tbl.values))
    z = tbl.centralizer_orders
    sums = {pair: {} for pair in pairs}
    for expo, values in monomials.items():
        scale = lcm(*(v.denominator for v in values))
        weights = [v.numerator * (scale // v.denominator) for v in values]
        weighted = [list(map(mul, weights, column)) for column in columns]
        for (i, j), terms in sums.items():
            terms[expo] = Fraction(sum(map(mul, weighted[i], columns[j])), scale * z[i] * z[j])
    if series is None:
        return {pair: terms.get((), Fraction(0)) for pair, terms in sums.items()}
    return {pair: TruncatedSeries(series.vars, series.cap, terms) for pair, terms in sums.items()}


def _check_cost(cost: int) -> None:
    """Raise CapacityError when a geometric cost exceeds GEOMETRIC_COST_LIMIT."""
    if cost > GEOMETRIC_COST_LIMIT:
        raise CapacityError(
            f"geometric sum costs about {cost} (profile-tuple terms or weight bits), "
            f"over the limit of {GEOMETRIC_COST_LIMIT}"
        )


def _eigenvalues(config: WeightConfig, degree_list) -> tuple:
    """character_table(n) and {degrees: prod_s G_s(lam) per shape} over degree_list.

    Admitted before any work: the _geometric_cost of each multidegree,
    counted at least 1, summed as the list is walked (as
    check_triangle_bounds sums it).  Each species' G_s is formed once per
    degree.
    """
    walked, total = [], 0
    for degrees in degree_list:
        total += max(1, _geometric_cost(config, degrees))
        _check_cost(total)
        walked.append(degrees)
    tbl = character_table(config.n)
    classes = _colength_characters(tbl)
    values: dict[tuple[int, int], list] = {}
    for degrees in walked:
        for s, d in enumerate(degrees):
            if (s, d) not in values:
                values[s, d] = _species_eigenvalues(config.species[s], d, classes)
    return tbl, {
        degrees: [prod(v) for v in zip(*(values[s, d] for s, d in enumerate(degrees)))]
        for degrees in walked
    }


def _matrix(tbl, eigenvalues: list) -> dict:
    """{(mu, nu): value} over all pairs: the symmetric half summed, then mirrored."""
    size = len(tbl.partitions)
    sums = _character_sums(tbl, eigenvalues, [(i, j) for i in range(size) for j in range(i, size)])
    return {
        (tbl.partitions[i], tbl.partitions[j]): sums[min(i, j), max(i, j)]
        for i, j in itertools.product(range(size), repeat=2)
    }


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
    n = config.n
    if sum(mu) != n or sum(nu) != n:
        raise ValueError("mu and nu must be partitions of the configuration degree")
    degrees = config.degrees(degrees)
    tbl, eigenvalues = _eigenvalues(config, [degrees])
    pair = (tbl.index(mu), tbl.index(nu))
    return _character_sums(tbl, eigenvalues[degrees], [pair])[pair]


def multispecies_hurwitz_matrix(config: WeightConfig, degrees: tuple[int, ...]) -> dict:
    """multispecies_hurwitz_number for every pair (mu, nu) of partitions of n.

    Returns {(mu, nu): value}; the eigenvalues are formed once, and the
    symmetric half of the pairs is summed and mirrored.  Same cost limit as
    the single entry.
    """
    degrees = config.degrees(degrees)
    tbl, eigenvalues = _eigenvalues(config, [degrees])
    return _matrix(tbl, eigenvalues[degrees])


def multispecies_hurwitz_matrices(config: WeightConfig, maxdeg: tuple[int, ...]) -> dict:
    """{degrees: multispecies_hurwitz_matrix(config, degrees)} for every multidegree up to maxdeg.

    Admitted by the summed cost of the multidegrees, each counted at least
    1, so their number alone can refuse the request before any is walked.
    """
    maxdeg = config.degrees(maxdeg)
    _check_cost(prod(m + 1 for m in maxdeg))
    tbl, eigenvalues = _eigenvalues(config, multidegrees(maxdeg))
    return {degrees: _matrix(tbl, values) for degrees, values in eigenvalues.items()}
