"""The spectral layer: content-product eigenvalues and the one character-sum kernel.

This is what the tau and combinatorial pipelines share beyond the scalar,
weight and partition helpers: the content-product eigenvalues of the
central element prod_a G(u J_a) of the Jucys-Murphy elements J_a, and the
character sum over them.  The character tables themselves are in
``characters``; the geometric pipeline imports nothing from here.

* species_content_coeffs: per species and shape lam, the coefficients of
  prod_{cells of lam} G(param, (shift + content) * u), each shape's product
  grown from that of the shape with its last cell removed (one product of
  lists per shape), returned with their denominators: in rational mode
  integer numerators over the known P_k, in series mode series over 1;
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
from math import factorial, lcm, prod
from operator import mul

from . import series
from .characters import CharacterTable, character_table
from .errors import CapacityError
from .partitions import Partition, _is_int, check_partition, colength, conjugate, partition_count
from .qweights import Species, WeightConfig, multidegrees, weight_coefficients
from .scalars import RATIONAL


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

    mu and each nu (nus defaults to every index) index table.partitions, and
    blocks are as spectral_sum takes them.  The products
    chi_lam(mu) chi_lam(nu) over the shapes are formed once per nu, and each
    block takes one p(n)-term dot product of its coefficients with them per
    nu, over D z_mu z_nu: p(n) products per block for one entry, p(n)^2 for
    a row.  A rational sum becomes one Fraction and a series sum is scaled
    by 1 / (D z_mu z_nu), so every value equals spectral_sum's.
    """
    z = table.centralizer_orders
    nus = range(len(z)) if nus is None else nus
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


def _integer_weights(q: Fraction, weights: list) -> tuple[list[int], list[int]]:
    """(N, P) for rational weights W_0..W_d: P_k = prod_{j<=k} (b^j - a^j) and N_k = W_k P_k.

    q = a/b in lowest terms, so each factor of P_k is positive (|a| < b).
    Every weight of E, E' and H of degree k is an integer over P_k; a
    non-integer N_k raises ArithmeticError.
    """
    a, b = q.numerator, q.denominator
    numerators, denominators = [], [1]
    for k, weight in enumerate(weights):
        if k:
            denominators.append(denominators[-1] * (b**k - a**k))
        scale, rest = divmod(denominators[k], weight.denominator)
        if rest:
            raise ArithmeticError(f"weight {k} is not an integer over P_{k}")
        numerators.append(weight.numerator * scale)
    return numerators, denominators


def _gaussian_binomials(q: Fraction, maxdeg: int) -> list[list[int]]:
    """Rows t = 0..maxdeg of B(t, i) = P_t / (P_i P_{t-i}), i <= t, for q = a/b (see _integer_weights).

    B(t, 0) = B(t, t) = 1 and B(t, i) = b^(t-i) B(t-1, i-1) + a^i B(t-1, i):
    the q-binomial coefficients, homogenized to integers.
    """
    a, b = q.numerator, q.denominator
    rows = [[1]]
    for t in range(1, maxdeg + 1):
        last = rows[-1]
        rows.append([1] + [b ** (t - i) * last[i - 1] + a**i * last[i] for i in range(1, t)] + [1])
    return rows


def species_content_coeffs(
    species: Species, shapes, maxdeg: int, shift: int = 0
) -> tuple[list[list], list]:
    """(lists, denominators): the species' content product of each shape, up to degree maxdeg.

    One list per shape, in the order of ``shapes``: the coefficients of the
    product over cells of G(param, (shift + content) * u) as a univariate
    polynomial in the species' expansion variable u, each the numerator of
    its degree's entry of ``denominators``.  Each shape's product is the
    product of the shape with its last cell removed times that cell's factor,
    so a per-call dict from shape to product, seeded with the empty shape,
    costs one product of lists per shape reached past its first nonzero
    content.  At shift 0 a shape whose conjugate is in that dict takes its
    product by sign instead: the contents of lam' are those of lam negated,
    so c_lam'(t) = (-1)^t c_lam(t).  The weights are computed once, and each
    cell factor G(m u) once per distinct shifted content m.

    In rational mode every coefficient is an int and ``denominators`` is
    P_0..P_maxdeg: the degree-k coefficient of every list is C_k / P_k, the
    cell factor of m has C_j = N_j m^j (_integer_weights), and two lists
    multiply as C_t = sum_i X_i Y_(t-i) B(t, i) (_gaussian_binomials, built
    when a shape first multiplies two non-unit lists).  No Fraction is made.
    Series mode multiplies with poly_mul, and its denominators are all 1.

    The degree 0 coefficient is always 1; cells of content -shift contribute
    nothing.  A shape that is not a partition, or a shift that is not an
    int, raises ValueError.
    """
    check_shift(shift)
    q = species.parameter
    weights = weight_coefficients(species.family, q, maxdeg)
    rational = isinstance(q, Fraction)
    numerators, denominators = _integer_weights(q, weights) if rational else (weights, [1] * (maxdeg + 1))
    rows = []
    unit = [1] + [0] * maxdeg
    factors: dict[int, list] = {}
    products: dict[Partition, list] = {(): unit}
    lists = []
    for lam in shapes:
        lam = tuple(lam)
        if lam not in products:
            chain = []
            shape = check_partition(lam)
            while shape not in products:
                if not shift and (mirror := conjugate(shape)) in products:
                    products[shape] = [-c if t & 1 else c for t, c in enumerate(products[mirror])]
                    break
                chain.append(shape)
                shape = shape[:-1] + (shape[-1] - 1,) if shape[-1] > 1 else shape[:-1]
            poly = products[shape]
            for shape in reversed(chain):
                m = shift + shape[-1] - len(shape)
                if m:
                    if m not in factors:
                        factors[m] = [numerators[j] * m**j for j in range(maxdeg + 1)]
                    if poly is unit:
                        poly = factors[m]
                    elif rational:
                        rows = rows or _gaussian_binomials(q, maxdeg)
                        poly = _gaussian_mul(poly, factors[m], rows)
                    else:
                        poly = series.poly_mul(poly, factors[m], maxdeg)
                products[shape] = poly
        lists.append(list(products[lam]))
    return lists, denominators


def _gaussian_mul(x: list[int], y: list[int], rows: list[list[int]]) -> list[int]:
    """Numerators over P_t of the product of two lists of numerators over P: sum_i x_i y_(t-i) B(t, i)."""
    out = [0] * len(rows)
    for i, xi in enumerate(x):
        if xi:
            for t, yj in enumerate(y[: len(rows) - i], i):
                if yj:
                    out[t] += xi * yj * rows[t][i]
    return out


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
        build the content coefficients: per shape and species, about d^2
        for the weights and, past the first nonzero content, d^2 per cell
        for the polynomial products, each about 16 kernel products.  The
        weights are computed once per species, so the per-shape weight term
        over-estimates; each shape's product is one poly_mul from the shape
        with its last cell removed, not one per cell, so the per-cell term
        over-estimates too.  Both stay as fitted, which keeps every request's
        admission; their refit is an open ROADMAP.md item;
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
            f"spectral sum costs about {cost} (kernel products), "
            f"over the limit of {SPECTRAL_COST_LIMIT}"
        )
