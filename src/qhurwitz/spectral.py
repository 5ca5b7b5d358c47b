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
  sum_lam c_lam chi_lam(mu) chi_lam(nu) / (z_mu z_nu) = S / (D z_mu z_nu):
  the symmetric matrix, or the entries (mu, nu) of one mu, a row or one
  entry, which point requests read.  Each S is one integer dot product over
  one shape per conjugate pair with the paired weights, and only the
  (mu, nu) inside the block's colength window are summed: by Jucys (1974)
  a content-product block of total degree t is 0 wherever
  |colength(mu) - colength(nu)| > t.  The compute tau writer reads these
  numerators directly;
* spectral_sum: the same sums as Fractions, the form the pipelines, the
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
from operator import itemgetter, mul

from . import series
from .characters import CharacterTable, character_table
from .errors import CapacityError
from .partitions import _is_int, check_partition, colength, partition_count
from .qweights import Species, WeightConfig, level_factor
from .scalars import RATIONAL, sized_text


def spectral_sum(table: CharacterTable, blocks, mu: int | None = None, nus=None) -> list:
    """Per block, sum_lam c_lam chi_lam(mu) chi_lam(nu) / (z_mu z_nu): the whole matrix, or a row or entries of it.

    blocks: (coefficients, denominator) pairs, or (coefficients,
    denominator, degree) triples as eigenvalue_blocks returns them: c_lam is
    coefficients[lam] / denominator, one coefficient per shape in table
    order, over a positive int denominator.  With mu None, each block's
    value is its symmetric matrix, a tuple of rows over table.partitions.
    With mu an index of table.partitions, it is the tuple of the entries
    (mu, nu) for nu in nus (any iterable of indices, every index by
    default): a row, or one entry.

    The call's mode is tested once.  If any coefficient is a series, the
    call goes through series.by_monomial, which hands this function one
    block of int coefficients per monomial, its degree kept, and joins its
    results into series: then every output value is a series.  Otherwise
    each entry is the Fraction of spectral_numerators' S / (D z_mu z_nu),
    made once per distinct entry (a matrix's (nu, mu) is its (mu, nu));
    entries with S = 0 share one Fraction(0).  These are the first
    Fractions made.
    """
    if nus is not None:
        nus = tuple(nus)  # an iterator is read once, and the series split calls back with it
    if any(not isinstance(c, RATIONAL) for values, *_ in blocks for c in values):
        return series.by_monomial(lambda split: spectral_sum(table, split, mu, nus), blocks)
    scales, layout, sums = spectral_numerators(table, blocks, mu, nus)
    pickers = list(map(_picker, layout))
    zero = Fraction(0)
    entries = (
        [Fraction(s, block[1] * scale) if s else zero for s, scale in zip(numerators, scales)]
        for block, numerators in zip(blocks, sums)
    )
    if mu is not None:
        return list(map(pickers[0], entries))
    return [tuple([pick(values) for pick in pickers]) for values in entries]


def _picker(indices):
    """The function of a list that returns the tuple of its items at indices, in that order."""
    if len(indices) == 1:
        [index] = indices
        return lambda items: (items[index],)
    return itemgetter(*indices) if indices else lambda items: ()


def spectral_numerators(table: CharacterTable, blocks, mu: int | None = None, nus=None) -> tuple:
    """(scales, layout, sums): the integer numerators of spectral_sum's entries, each summed once.

    blocks are spectral_sum's, their coefficients the weights w, every one
    an int (other rationals are summed as they are, and S is then their
    sum), and mu and nus select as there.  The entries summed are the (i, j) with j >= i for a whole
    matrix, and (mu, nu) for each distinct nu of nus for a selection.  Entry
    k of a block with denominator D is S / (D * scales[k]), S =
    sums[block][k] and scales[k] = z_i z_j, and an S that sums to 0, or is
    not summed, is the int 0.  layout holds spectral_sum's output rows (a
    matrix's rows, or the one row of nus), each the list of the indices k
    of its entries: the matrix's (j, i) reads the entry (i, j).

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
    without a degree, whose coefficients may be any, sums every entry.
    The character columns and the pairs of each parity are set up once per
    call, and the (i, [j]) lists of each parity once per call and degree.
    A whole matrix takes at most about p(n)^3 / 4 products per block, a row
    p(n)^2 / 2 and an entry p(n).
    """
    size = len(table.partitions)
    z = table.centralizer_orders
    if mu is None:
        starts = [i * size - i * (i + 1) // 2 for i in range(size)]  # entry (i, j >= i) is starts[i] + j
        rows = {i: (range(i, size), range(starts[i] + i, starts[i] + size)) for i in range(size)}
        layout = [[starts[j] + i for j in range(i)] + list(ks) for i, (_, ks) in rows.items()]
    else:
        nus = range(size) if nus is None else tuple(nus)
        position = {nu: k for k, nu in enumerate(dict.fromkeys(nus))}
        rows = {mu: (list(position), range(len(position)))}
        layout = [[position[nu] for nu in nus]]
    colengths = [colength(rho) for rho in table.partitions]
    widest = max(colengths)
    halves = []  # per parity of colength(i) + colength(j): sign, pairs, character columns
    for odd, sign in enumerate((1, -1)):
        pairs = [(k, c) for k, c in table.conjugate_pairs if k < c or not odd]
        halves.append((sign, pairs, list(zip(*(table.values[k] for k, _ in pairs)))))
    windows = {}

    def window(reach, odd):
        """This parity's (i, [(j, k)]) with |colength(i) - colength(j)| <= reach, k the entry's index."""
        if (reach, odd) not in windows:
            windows[reach, odd] = [(i, kept) for i, (js, ks) in rows.items() if (kept := [
                (j, k) for j, k in zip(js, ks)
                if (colengths[i] + colengths[j]) & 1 == odd and abs(colengths[i] - colengths[j]) <= reach
            ])]
        return windows[reach, odd]

    scales = [z[i] * z[j] for i, (js, _) in rows.items() for j in js]
    sums = []
    for w, _, *degree in blocks:
        reach = min(degree[0], widest) if degree else widest
        numerators = [0] * len(scales)
        for odd, (sign, pairs, columns) in enumerate(halves):
            weights = [w[k] + sign * w[c] if k < c else w[k] for k, c in pairs]
            if not any(weights):
                continue
            for i, targets in window(reach, odd):
                weighted = list(map(mul, weights, columns[i]))
                for j, k in targets:
                    numerators[k] = sum(map(mul, weighted, columns[j]))
        sums.append(numerators)
    return scales, layout, sums


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
