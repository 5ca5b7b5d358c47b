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
* content_eigenvalues: per shape, their product over species at one
  multidegree, integer numerators over the one block denominator
  prod_s P_{s,d_s} in rational mode;
* eigenvalue_blocks: the character table and the content_eigenvalues of a
  list of multidegrees, admitted by spectral_cost before any content list;
* spectral_sum: the one kernel, sum_lam c_lam chi_lam(mu) chi_lam(nu) /
  (z_mu z_nu) for a whole list of (numerators, denominator) blocks
  (multidegrees) in one pass: each (block, monomial) slot goes over the
  block's denominator, is biased into whole bytes by the
  column-orthogonality bound, and rides in one packed integer per shape, so
  one integer dot product per (mu, nu) serves every block.  In rational
  mode its output entries are the first Fractions made from the lists;
* spectral_row: the same sum for one row of mu, or one (mu, nu) entry, per
  block, which point requests read instead of a whole matrix;
* spectral_cost and check_spectral_cost: the work estimate that refuses a
  request past SPECTRAL_COST_LIMIT before any content coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import factorial, lcm, prod
from operator import mul

from . import series
from .characters import CharacterTable, character_table
from .errors import CapacityError
from .partitions import _is_int, check_partition, colength, partition_count
from .qweights import Species, WeightConfig, level_factor, multidegrees
from .scalars import RATIONAL, sized_text


def spectral_sum(table: CharacterTable, blocks) -> list:
    """Per block, the symmetric matrix over (mu, nu) of sum_lam c_lam chi_lam(mu) chi_lam(nu) / (z_mu z_nu).

    blocks: (coefficients, denominator) pairs, as content_eigenvalues
    returns them: c_lam is coefficients[lam] / denominator, one coefficient
    per shape in table order, each all rational (int in rational mode) or
    all TruncatedSeries (zeros may be plain 0), over a positive int
    denominator.  Each (block, monomial) pair is a slot: its coefficients
    go over their lcm denominator (1 for ints) as integer weights w, and its
    D is that lcm times the block's denominator.  Column orthogonality
    bounds every S = sum_lam w_lam chi_lam(mu) chi_lam(nu) by
    |S| <= max|w| * n!, so the slot takes that bound as its bias and the
    whole bytes that hold S + bias.  One packed integer per shape carries
    every slot.

    The conjugate shape lam' has chi_lam'(mu) = (-1)^colength(mu) chi_lam(mu),
    so a (mu, nu), j >= i, whose colengths have even sum takes the packed
    weight w_lam + w_lam' of each pair, one with odd sum w_lam - w_lam', and a
    self-conjugate shape counts in the even sums only.  One integer dot
    product over one shape per pair covers every block.  The biased slots
    make the packed form unique, so a dot product of 0 has every slot 0;
    otherwise one to_bytes cuts apart the slots whose paired weights are not
    all 0 for that parity, and each slot's entry is one Fraction
    S / (D z_mu z_nu), mirrored to (j, i).  Entries with S = 0 share one
    Fraction(0).

    A point request reads one row or one entry per block, and its forms are
    spectral_row: the same sum as plain dot products over the shapes, p(n)
    products per block for an entry and p(n)^2 for a row, where this whole
    matrix takes p(n)^3.
    """
    z = table.centralizer_orders
    size = len(z)
    bound = factorial(table.n)
    zero = Fraction(0)
    slots = []  # (values, D, weights, bias, first byte, end byte) over all blocks
    layout = []  # per block: its first series coefficient (None if rational), [(monomial, values)]
    length = 0
    for coeffs, denominator in blocks:
        monomials: dict[tuple, dict[int, Fraction | int]] = {}
        for k, c in enumerate(coeffs):
            for expo, value in [((), c)] if isinstance(c, RATIONAL) else c.coeffs.items():
                if value:
                    monomials.setdefault(expo, {})[k] = value
        own = []
        for expo, column in monomials.items():
            scale = lcm(*(value.denominator for value in column.values()))
            weights = {k: value.numerator * (scale // value.denominator) for k, value in column.items()}
            bias = max(map(abs, weights.values())) * bound
            start, length = length, length + ((2 * bias).bit_length() + 7) // 8
            values = [[zero] * size for _ in z]
            own.append((expo, values))
            slots.append((values, scale * denominator, weights, bias, start, length))
        layout.append((next((c for c in coeffs if not isinstance(c, RATIONAL)), None), own))
    # Signed weights pack as the difference of two nonnegative byte strings.
    positive = [bytearray(length) for _ in z]
    negative = [bytearray(length) for _ in z]
    biases = bytearray(length)
    for _, _, weights, bias, start, stop in slots:
        for k, w in weights.items():
            (positive if w > 0 else negative)[k][start:stop] = abs(w).to_bytes(stop - start, "little")
        biases[start:stop] = bias.to_bytes(stop - start, "little")
    packed = [int.from_bytes(p, "little") - int.from_bytes(m, "little") for p, m in zip(positive, negative)]
    offset = int.from_bytes(biases, "little")
    parity = [colength(mu) & 1 for mu in table.partitions]
    halves = []  # per parity of colength(mu) + colength(nu): paired weights, their columns, live slots
    for sign in (1, -1):
        pairs = [(k, c) for k, c in table.conjugate_pairs if k < c or sign > 0]
        paired = [packed[k] + sign * packed[c] if k < c else packed[k] for k, c in pairs]
        columns = [[table.values[k][i] for k, _ in pairs] for i in range(size)]
        live = [
            (values, scale, bias, start, stop)
            for values, scale, weights, bias, start, stop in slots
            if any(weights.get(k, 0) + sign * weights.get(c, 0) if k < c else weights.get(k, 0) for k, c in pairs)
        ]
        halves.append((paired, columns, live))
    for i in range(size):
        weighted = [list(map(mul, paired, columns[i])) for paired, columns, _ in halves]
        for j in range(i, size):
            odd = parity[i] ^ parity[j]
            _, columns, live = halves[odd]
            total = sum(map(mul, weighted[odd], columns[j]))
            if not total:
                continue
            raw = memoryview((total + offset).to_bytes(length, "little"))
            pair = z[i] * z[j]
            for values, scale, bias, start, stop in live:
                total = int.from_bytes(raw[start:stop], "little") - bias
                if total:
                    values[i][j] = values[j][i] = Fraction(total, scale * pair)
    matrices = []
    for first, own in layout:
        if first is None:
            matrices.append(tuple(map(tuple, own[0][1] if own else [[zero] * size for _ in z])))
        else:
            matrices.append(tuple(
                tuple(series.TruncatedSeries(first.vars, first.cap, {e: v[i][j] for e, v in own}) for j in range(size))
                for i in range(size)
            ))
    return matrices


def spectral_row(table: CharacterTable, blocks, mu: int, nus=None) -> list:
    """Per block, the entries (mu, nu), nu in nus, of the matrix spectral_sum returns: a row, or one entry.

    mu and each nu (nus, any iterable, defaults to every index) index
    table.partitions, and blocks are as spectral_sum takes them.  The products
    chi_lam(mu) chi_lam(nu) over the shapes are formed once per nu, and each
    block takes one p(n)-term dot product of its coefficients with them per
    nu, over D z_mu z_nu: p(n) products per block for one entry, p(n)^2 for
    a row.  A rational sum becomes one Fraction and a series sum is scaled
    by 1 / (D z_mu z_nu), so every value equals spectral_sum's.
    """
    z = table.centralizer_orders
    nus = range(len(z)) if nus is None else tuple(nus)
    characters = [[row[mu] * row[nu] for row in table.values] for nu in nus]
    rows = []
    for coeffs, denominator in blocks:
        entries = []
        for nu, products in zip(nus, characters):
            total, scale = sum(map(mul, coeffs, products)), denominator * z[mu] * z[nu]
            entries.append(Fraction(total, scale) if isinstance(total, RATIONAL) else total * Fraction(1, scale))
        rows.append(tuple(entries))
    return rows


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


def content_eigenvalues(lists: list, degrees: tuple[int, ...]) -> tuple[list, int]:
    """(numerators, denominator): per shape, the product over species s of lists[s][0][shape][degrees[s]].

    ``lists`` holds one species_content_coeffs result per species, so the
    denominator is the product over s of lists[s][1][degrees[s]]:
    prod_s P_{s, d_s} in rational mode, where every numerator is an int, and
    1 in series mode.
    """
    coefficient_lists, denominators = zip(*lists)
    numerators = [prod(coeffs[d] for coeffs, d in zip(shape, degrees)) for shape in zip(*coefficient_lists)]
    return numerators, prod(p[d] for p, d in zip(denominators, degrees))


def eigenvalue_blocks(
    config: WeightConfig, maxdeg: tuple[int, ...], shift: int = 0, degree_list: list | None = None
) -> tuple:
    """(table, degree_list, blocks): character_table(n), the multidegrees and their spectral_sum blocks.

    Each block is the content_eigenvalues of one multidegree of degree_list,
    which defaults to every multidegree up to maxdeg.  The shift is checked,
    the table fetched and the blocks admitted by one spectral_cost before
    any multidegree is listed or any content list built.  Each species'
    lists are built once, at its maxdeg: the list of a lower degree is a
    prefix of that one.
    """
    check_shift(shift)
    tbl = character_table(config.n)
    count = prod(m + 1 for m in maxdeg) if degree_list is None else len(degree_list)
    check_spectral_cost(config, maxdeg, count, shift)
    degree_list = list(multidegrees(maxdeg)) if degree_list is None else degree_list
    lists = [species_content_coeffs(s, tbl.partitions, m, shift) for s, m in zip(config.species, maxdeg)]
    return tbl, degree_list, [content_eigenvalues(lists, degrees) for degrees in degree_list]


#: Largest spectral_cost a tau table or transfer matrix may have.
SPECTRAL_COST_LIMIT = 10**7


def spectral_cost(
    config: WeightConfig, maxdeg: tuple[int, ...], blocks: int, shift: int = 0
) -> int:
    """Work estimate, in kernel products, of one spectral_sum over ``blocks`` blocks up to maxdeg.

    products * (1 + bits / 2^13)^2, where products counts
      * blocks * p(n)^3 integer products of the kernel, and
      * p(n) * (16 (n - 2)^+ + 1) * sum_s (d_s + 1)^2 products that
        build the content coefficients, fitted to a per-cell product of
        weight lists that no longer runs.  species_content_coeffs walks a
        recurrence of order at most n, about p(n) * n * d products per
        species, so this term over-charges it.  It stays as fitted, which
        keeps every request's admission; its refit is an open ROADMAP.md
        item;
    and bits = sum_s d_s * (b_s * d_s + bit length of |shift| + n) is about
    the size of the largest coefficient: b_s * d_s^2 from the weights
    (Species.bits) and d_s factors of a shifted content.  The squared bits
    term models the gcds of Fraction products, which no longer happen: the
    content lists, the eigenvalues and the kernel's weights are integer
    numerators over known denominators, and the first Fraction made from
    them is an output entry, so this term over-estimates as well.  The blocks * p(n) * S
    integer products of content_eigenvalues are not charged.  The constants
    are fitted to measured times of tau_coefficients before those changes
    and stay, which keeps every admission; the refit is open in ROADMAP.md.
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
