"""The spectral layer: content-product eigenvalues and the one character-sum kernel.

This is what the tau and combinatorial pipelines share beyond the scalar,
weight and partition helpers: the content-product eigenvalues of the
central element prod_a G(u J_a) of the Jucys-Murphy elements J_a, and the
character sum over them.  The character tables themselves are in
``characters``; the geometric pipeline imports nothing from here.

* species_content_coeffs: per species and shape lam, the coefficients of
  prod_{cells of lam} G(param, (shift + content) * u), each shape's list one
  walk of a q-difference recurrence in the elementary symmetric functions of
  its shifted contents, one qweights.level_factor per degree, returned with
  their denominators: in rational mode integer numerators over the known
  P_k, in series mode series over 1;
* eigenvalue_blocks: the character table and, for every multidegree of
  per-species degree sets (range(m + 1) for a table, (d,) for a point),
  the per-shape products of those lists over species, integer numerators
  over the one block denominator prod_s P_{s,d_s} in rational mode, each
  block with its total degree.  They are formed as successive per-species
  outer products, one list product per block and species, and admitted by
  spectral_cost before any content list;
* spectral_numerators: the one kernel core, rational only.  Per block of
  (numerators, denominator, degree), the integer numerators S of
  sum_lam c_lam chi_lam(mu) chi_lam(nu) / (z_mu z_nu) = S / (D z_mu z_nu)
  for each asked index pair (mu, nu), in the order asked: by default the
  upper triangle CharacterTable.upper_pairs, which CharacterTable.symmetric
  lays out as the matrix, and for a point request a row or one entry.
  Each S is one integer dot product over one shape per conjugate pair with
  the paired weights, and only the (mu, nu) inside the block's colength
  window are summed: by Jucys (1974) a content-product block of total
  degree t is 0 wherever |colength(mu) - colength(nu)| > t.  The compute
  tau writer reads these numerators directly;
* spectral_sum: the same values as Fractions, the form the pipelines, the
  triangle judge and the library return.  A call holding any series runs
  through series.by_monomial, which splits each block into int blocks, one
  per monomial, and joins the Fractions back into series;
* spectral_cost and check_spectral_cost: the work estimate that refuses a
  request past SPECTRAL_COST_LIMIT before any content coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import prod
from operator import mul

from . import series
from .characters import CharacterTable, character_table
from .errors import CapacityError
from .partitions import _is_int, check_partition, colength, partition_count
from .qweights import Species, WeightConfig, level_factor
from .scalars import RATIONAL, sized_text


def spectral_sum(table: CharacterTable, blocks, pairs=None) -> list:
    """Per block, the tuple of sum_lam c_lam chi_lam(i) chi_lam(j) / (z_i z_j) over the index pairs (i, j) of pairs.

    blocks: (coefficients, denominator) pairs, or (coefficients,
    denominator, degree) triples as eigenvalue_blocks returns them: c_lam is
    coefficients[lam] / denominator, one coefficient per shape in table
    order, over a positive int denominator.  pairs is a sequence of index
    pairs into table.partitions, in any order, repeats and j < i allowed;
    by default table.upper_pairs, whose values table.symmetric lays out as
    the symmetric matrix.

    The call's mode is tested once.  If any coefficient is a series, the
    call goes through series.by_monomial, which hands this function one
    block of int coefficients per monomial, its degree kept, and joins its
    results into series: then every output value is a series.  Otherwise
    each value is the Fraction of spectral_numerators' S / (D z_i z_j);
    values with S = 0 share one Fraction(0).  These are the first
    Fractions made.
    """
    if any(not isinstance(c, RATIONAL) for values, *_ in blocks for c in values):
        return series.by_monomial(lambda split: spectral_sum(table, split, pairs), blocks)
    scales, sums = spectral_numerators(table, blocks, pairs)
    zero = Fraction(0)
    return [
        tuple([Fraction(s, block[1] * scale) if s else zero for s, scale in zip(numerators, scales)])
        for block, numerators in zip(blocks, sums)
    ]


def spectral_numerators(table: CharacterTable, blocks, pairs=None) -> tuple:
    """(scales, sums): the integer numerators of spectral_sum's values, one per asked pair.

    blocks and pairs are spectral_sum's, the coefficients the weights w,
    every one an int (other rationals are summed as they are, and S is then
    their sum).  Value k of a block with denominator D is S / (D *
    scales[k]), S = sums[block][k] and scales[k] = z_i z_j of pair k, and
    an S that sums to 0, or is not summed, is the int 0.

    The conjugate shape lam' has chi_lam'(rho) = (-1)^colength(rho)
    chi_lam(rho), so a (mu, nu) whose colengths have even sum takes the
    paired weight w_lam + w_lam' of each conjugate pair, one with odd sum
    w_lam - w_lam', and a self-conjugate shape counts in the even sums
    only.  Each S is then one integer dot product over one shape per pair.
    A parity whose paired weights are all 0 (at shift 0, where conjugation
    negates the contents, the odd-degree blocks for even sums and the
    even-degree ones for odd sums) is not summed.

    A block's third field, its total degree t, sets its colength window:
    only the (mu, nu) with |colength(mu) - colength(nu)| <= t are summed.
    That is exact for a content-product block.  Its coefficient of total
    degree t in the u variables is a symmetric polynomial of degree <= t in
    the contents, so its central element is that polynomial in the
    Jucys-Murphy elements, which lies in the span of the class sums of
    colength <= t (Jucys 1974).  Colength is the least number of
    transpositions of a cycle type, so the product of the class sum of mu
    with one of colength <= t has no class nu outside the window.  A block
    without a degree, whose coefficients may be any, sums every pair.
    The character columns and the conjugate pairs of each parity are set up
    once per call, and the asked pairs of each parity and window, grouped by
    first index, once per call and degree.  The column of each first index
    i is weighted once per block, and each pair is one dot product with it:
    the upper triangle takes at most about p(n)^3 / 4 products per block, a
    row of one i p(n)^2 / 2 and an entry p(n).
    """
    pairs = table.upper_pairs if pairs is None else pairs
    z = table.centralizer_orders
    colengths = [colength(rho) for rho in table.partitions]
    widest = max(colengths)
    halves = []  # per parity of colength(i) + colength(j): sign, conjugate pairs, character columns
    for odd, sign in enumerate((1, -1)):
        conjugates = [(k, c) for k, c in table.conjugate_pairs if k < c or not odd]
        halves.append((sign, conjugates, list(zip(*(table.values[k] for k, _ in conjugates)))))
    rows = {}  # per first index i: [(j, k)], k the index of pair (i, j)
    for k, (i, j) in enumerate(pairs):
        rows.setdefault(i, []).append((j, k))
    windows = {}

    def window(reach, odd):
        """This parity's (i, [(j, k)]) with |colength(i) - colength(j)| <= reach."""
        if (reach, odd) not in windows:
            windows[reach, odd] = [(i, kept) for i, targets in rows.items() if (kept := [
                (j, k) for j, k in targets
                if (colengths[i] + colengths[j]) & 1 == odd and abs(colengths[i] - colengths[j]) <= reach
            ])]
        return windows[reach, odd]

    scales = [z[i] * z[j] for i, j in pairs]
    sums = []
    for w, _, *degree in blocks:
        reach = min(degree[0], widest) if degree else widest
        numerators = [0] * len(scales)
        for odd, (sign, conjugates, columns) in enumerate(halves):
            weights = [w[k] + sign * w[c] if k < c else w[k] for k, c in conjugates]
            if not any(weights):
                continue
            for i, targets in window(reach, odd):
                weighted = list(map(mul, weights, columns[i]))
                for j, k in targets:
                    numerators[k] = sum(map(mul, weighted, columns[j]))
        sums.append(numerators)
    return scales, sums


def check_shift(shift: int) -> None:
    """Raise ValueError unless the content shift is an int (a bool is refused)."""
    if not _is_int(shift):
        raise ValueError(f"shift must be an int, got {shift!r}")


def species_content_coeffs(
    species: Species, shapes, maxdeg: int, shift: int = 0
) -> tuple[list[list], list]:
    """(lists, denominators): the species' content product of each shape, up to degree maxdeg.

    One list per shape, in the order of ``shapes``: the coefficients r_d of
    r_lam(u) = prod over cells of G(param, (shift + content) * u) as a
    univariate polynomial in the species' expansion variable u, each the
    numerator of its degree's entry of ``denominators``.

    Euler's product expansions of the q-exponentials give r_lam a
    q-difference recurrence of order L = min(maxdeg, |lam|) in the
    elementary symmetric functions e_j of the shifted contents:

        H:  (1 - q^d) r_d = sum_{j>=1} (-1)^(j+1) e_j r_(d-j)
        E': (1 - q^d) r_d = q^d sum_{j>=1} e_j r_(d-j)
        E:  (1 - q^d) r_d = sum_{j>=1} e_j r'_(d-j), r' the E' coefficients

    So each shape is one walk over the degrees.  A window V holds the last L
    numerators over P_(d-1) (E's holds those of E'), and
    beta_d = sum_j s_j e_j V_(d-j) with s_j the sign above.  The numerator
    of r_d over P_d is beta_d times the numerator of
    level_factor(family, q, d, True); then the window is scaled by that
    level's denominator and takes beta_d times the numerator of
    level_factor(family, q, d, False).

    In rational mode every coefficient is an int and ``denominators`` is
    P_0..P_maxdeg, P_d = prod_{j<=d} (b^j - a^j) for q = a/b: no Fraction is
    made.  In series mode level_factor gives each factor over 1, so the
    same walk yields series over the denominators 1.

    The degree 0 coefficient is always 1; cells of content -shift contribute
    nothing.  A shape that is not a partition, a shift that is not an int,
    or a maxdeg that is not a nonnegative int raises ValueError.
    """
    check_shift(shift)
    if not _is_int(maxdeg) or maxdeg < 0:
        raise ValueError(f"maxdeg must be a nonnegative int, got {maxdeg!r}")
    family, q = species.family, species.parameter
    levels = [(*level_factor(family, q, d, False), level_factor(family, q, d, True)[0]) for d in range(1, maxdeg + 1)]
    denominators = list(accumulate((scale for _, scale, _ in levels), mul, initial=1))
    one = 1 if isinstance(q, Fraction) else q**0
    lists = []
    for lam in shapes:
        lam = check_partition(lam)
        width = min(maxdeg, sum(lam))
        e = [1] + [0] * width
        for i, part in enumerate(lam):
            for m in range(shift - i, shift - i + part):
                for j in range(width, 0, -1):
                    e[j] += m * e[j - 1]
        if family == "H":  # s_j = (-1)^(j+1); e_0 is not read
            e = [c if j & 1 else -c for j, c in enumerate(e)]
        coeffs, window = [one], [one]
        for mid, scale, last in levels:
            beta = sum(e[j] * window[-j] for j in range(1, min(width, len(window)) + 1))
            coeffs.append(last * beta)
            window = [v * scale for v in window[max(0, len(window) - width + 1):]] + [mid * beta]
        lists.append(coeffs)
    return lists, denominators


def eigenvalue_blocks(config: WeightConfig, degrees: list, shift: int = 0) -> tuple:
    """(table, keys, blocks): character_table(n), the multidegrees and their spectral_sum blocks.

    degrees holds, per species, the degrees it takes, an ascending run of
    consecutive degrees: range(m_s + 1) for every multidegree up to maxdeg,
    (d_s,) for one.  The multidegrees are their product, in
    itertools.product order, and their count is taken from each run's
    ends, so a range past 2^63 degrees is refused, not measured by len.
    Each block is
    (numerators, denominator, degree): per shape the product over species s
    of its content coefficient of degree d_s, over prod_s P_{s,d_s} in
    rational mode, where every numerator is an int, and over 1 in series
    mode, and the total degree sum_s d_s, which sets the block's colength
    window in spectral_numerators.  The
    shift is checked, the table fetched and the blocks admitted by one
    spectral_cost before any content list is built.  Each species' lists are
    built once, at its largest degree (the list of a lower degree is a
    prefix of that one), and the blocks are its outer products with the
    blocks of the species before it: one list product per block and species.
    """
    check_shift(shift)
    tbl = character_table(config.n)
    check_spectral_cost(config, tuple(ds[-1] for ds in degrees), prod(ds[-1] - ds[0] + 1 for ds in degrees), shift)
    keys, blocks = [()], [([1] * len(tbl.partitions), 1, 0)]
    for species, ds in zip(config.species, degrees):
        lists, denominators = species_content_coeffs(species, tbl.partitions, ds[-1], shift)
        picked = [([coeffs[d] for coeffs in lists], denominators[d], d) for d in ds]
        keys = [key + (d,) for key in keys for d in ds]
        blocks = [(list(map(mul, numerators, column)), denominator * p, degree + d)
                  for numerators, denominator, degree in blocks for column, p, d in picked]
    return tbl, keys, blocks


#: Largest spectral_cost a tau table or transfer matrix may have.
SPECTRAL_COST_LIMIT = 10**7


def spectral_cost(
    config: WeightConfig, maxdeg: tuple[int, ...], blocks: int, shift: int = 0
) -> int:
    """Work estimate, in kernel products, of one spectral_sum over ``blocks`` blocks up to maxdeg.

    products * (1 + bits / 2^13)^2, where products counts
      * blocks * p(n)^3 integer products of the kernel, and
      * p(n) * (16 (n - 2)^+ + 1) * sum_s (d_s + 1)^2 products that
        build the content coefficients;
    and bits = sum_s d_s * (b_s * d_s + bit length of |shift| + n) is about
    the size of the largest coefficient: b_s * d_s^2 from the weights
    (Species.bits) and d_s factors of a shifted content.

    The model over-charges the kernel that runs: species_content_coeffs
    walks a recurrence of order at most n, about p(n) * n * d products per
    species; the kernel sums only each block's colength window; and the
    content lists, the eigenvalues and the kernel's weights are integer
    numerators over known denominators, reduced by no gcd, so the squared
    bits term over-estimates their arithmetic.  The outer products of
    eigenvalue_blocks, about blocks * p(n) integer products, are not
    charged.  The constants stay as fitted so that no request's admission
    moves; their refit is ROADMAP.md item 5.
    """
    n = config.n
    parts = partition_count(n)
    content_bits = (abs(shift) + n).bit_length()
    bits = sum(s.bits * d * d + d * content_bits for s, d in zip(config.species, maxdeg))
    products = blocks * parts**3 + parts * (16 * max(0, n - 2) + 1) * sum(
        (d + 1) ** 2 for d in maxdeg
    )
    return products * (2**13 + bits) ** 2 // 2**26


def check_spectral_cost(
    config: WeightConfig, maxdeg: tuple[int, ...], blocks: int, shift: int = 0
) -> None:
    """Raise CapacityError when spectral_cost exceeds SPECTRAL_COST_LIMIT."""
    cost = spectral_cost(config, maxdeg, blocks, shift)
    if cost > SPECTRAL_COST_LIMIT:
        raise CapacityError(
            f"spectral sum costs about {sized_text(cost, 'a number')} (kernel products), "
            f"over the limit of {SPECTRAL_COST_LIMIT}"
        )
