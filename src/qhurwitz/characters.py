"""Exact irreducible characters of the symmetric group, and the spectral layer.

Character values are computed by the signed border-strip (Murnaghan-Nakayama)
recursion on the abacus: a shape of n is the bitmask of its n beta numbers,
a strip removal two bit flips and a popcount (James-Kerber), and values are
memoized on (bead mask, remaining cycle lengths); naive recursion repeats
subproblems exponentially.  A table row removes each strip length from its
shape once and reads the smaller shapes from that memo; conjugate shapes
share one evaluation.  Complete tables are cached per n for the process
lifetime.  Character values and tables are exact integer arithmetic.

The spectral layer below is what the tau and combinatorial pipelines share
beyond the scalar, weight and partition helpers: the content-product
eigenvalues of the central element prod_a G(u J_a) of the Jucys-Murphy
elements J_a, and the character sum over them.

* species_content_coeffs: per species and shape lam, the coefficients of
  prod_{cells of lam} G(param, (shift + content) * u), exact rationals or
  series, each shape's product grown from that of the shape with its last
  cell removed (one product of lists per shape, in integers over the known
  denominators P_k in rational mode);
* content_eigenvalues: per shape, their product over species at one
  multidegree;
* spectral_sum: the one kernel, sum_lam c_lam chi_lam(mu) chi_lam(nu) /
  (z_mu z_nu) for a whole list of blocks (multidegrees) in one pass: each
  (block, monomial) slot goes over its common denominator, is biased into
  whole bytes by the column-orthogonality bound, and rides in one packed
  integer per shape, so one integer dot product per (mu, nu) serves every
  block;
* spectral_cost and check_spectral_cost: the work estimate that refuses a
  request past SPECTRAL_COST_LIMIT before any content coefficient.

The geometric pipeline reads only character_table here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul

from .errors import CapacityError
from .partitions import (
    Partition,
    _is_int,
    centralizer_order,
    check_partition,
    colength,
    conjugate,
    enumerate_partitions,
    hook_product,
    partition_count,
)
from .qweights import Species, WeightConfig, weight_coefficients
from .series import TruncatedSeries, poly_mul

#: Largest n for which character_table builds a full table.
TABLE_LIMIT = 12


def _beads(lam: Partition) -> int:
    """Bitmask of the n beta numbers lam_i + n - 1 - i, i < n, of a partition lam of n (zero parts padded)."""
    n = sum(lam)
    mask = (1 << (n - len(lam))) - 1
    for i, part in enumerate(lam):
        mask |= 1 << (part + n - 1 - i)
    return mask


def _strips(beads: int, strip: int) -> list[tuple[int, int]]:
    """(bead mask left, sign) per border strip of length ``strip`` removable from the shape of ``beads``.

    On the abacus such a strip moves a bead from b to an empty b - strip,
    and its sign is (-1)^(number of beads strictly between them), which
    equals rows spanned minus one.  The shape left weighs ``strip`` less,
    and its ``strip`` lowest positions hold beads, so shifting the mask
    right by ``strip`` gives its own mask (see _beads).
    """
    between = (1 << (strip - 1)) - 1
    movable = beads & ~(beads << strip) & ~((1 << strip) - 1)
    moves = []
    while movable:
        bead = movable & -movable
        movable ^= bead
        sign = -1 if (beads >> (bead.bit_length() - strip) & between).bit_count() & 1 else 1
        moves.append(((beads ^ bead ^ bead >> strip) >> strip, sign))
    return moves


@lru_cache(maxsize=None)
def _border_strip_character(beads: int, mu: Partition) -> int:
    """Recursive character value of the shape with bead mask ``beads`` (see _beads) on class mu.

    Removes a border strip of length mu[0] in every possible way (_strips).
    Each shape has one mask, so the memoized states are the (shape,
    remaining cycle lengths) pairs of the partition recursion.
    """
    if not mu:
        return 1
    return _strip_sum(_strips(beads, mu[0]), mu[1:])


def _strip_sum(strips: list[tuple[int, int]], rest: Partition) -> int:
    """Sum over ``strips`` (see _strips) of the sign times the character of the shape left on class rest."""
    total = 0
    for left, sign in strips:
        total += sign * _border_strip_character(left, rest)
    return total


def character_value(lam: Partition, mu: Partition) -> int:
    """Irreducible character of shape lam evaluated on the class of type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must have equal weight")
    return _border_strip_character(_beads(lam), mu)


def dimension(lam: Partition) -> int:
    """Dimension n!/hook_product of the irreducible representation of shape lam."""
    lam = check_partition(lam)
    return factorial(sum(lam)) // hook_product(lam)


class CharacterTable:
    """Full character table of S_n over the canonical partition order.

    Rows are indexed by shapes lam, columns by class types mu, both in
    canonical order; ``values[i][j]`` is the character of shape
    ``partitions[i]`` on class ``partitions[j]``.  Centralizer orders and hook
    products are carried alongside.  Instances are immutable once built.

    The border-strip recursion runs once per conjugate pair: the row of the
    conjugate shape lam' is chi_lam'(mu) = (-1)^colength(mu) chi_lam(mu).
    ``conjugate_pairs`` lists each pair once as (k, c), k <= c the indices
    of a shape and its conjugate (k == c for a self-conjugate shape).
    A row finds the strips of each length once and recurses on the rest of
    each class, so only the smaller shapes enter the memo.
    Each hook product is n! over the dimension, the value on the class 1^n.
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = tuple(enumerate_partitions(n))
        self._index = {p: i for i, p in enumerate(self.partitions)}
        self.centralizer_orders = tuple(centralizer_order(p) for p in self.partitions)
        signs = [-1 if colength(mu) & 1 else 1 for mu in self.partitions]
        conjugates = [self._index[conjugate(lam)] for lam in self.partitions]
        self.conjugate_pairs = tuple((i, c) for i, c in enumerate(conjugates) if i <= c)
        rows: list[tuple] = []
        for lam, c in zip(self.partitions, conjugates):
            if c < len(rows):
                rows.append(tuple(map(mul, signs, rows[c])))
            else:
                beads = _beads(lam)
                strips = {k: _strips(beads, k) for k in range(1, n + 1)}
                rows.append(tuple(_strip_sum(strips[mu[0]], mu[1:]) for mu in self.partitions))
        self.values = tuple(rows)
        self.hook_products = tuple(factorial(n) // row[-1] for row in self.values)

    def index(self, mu: Partition) -> int:
        try:
            return self._index[tuple(mu)]
        except KeyError:
            raise ValueError(f"{tuple(mu)} is not a partition of {self.n}") from None

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.values[self.index(lam)][self.index(mu)]


@lru_cache(maxsize=None, typed=True)
def character_table(n: int) -> CharacterTable:
    """Memoized character table of S_n; construction is idempotent.

    n must be an int; a bool or any other number raises ValueError.  The
    cache is typed, so True or 1.0 never reaches the table cached for 1.
    """
    if not _is_int(n):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if n > TABLE_LIMIT:
        raise CapacityError(f"character tables are limited to n <= {TABLE_LIMIT}")
    return CharacterTable(n)


def spectral_sum(table: CharacterTable, blocks) -> list:
    """Per block, the symmetric matrix over (mu, nu) of sum_lam c_lam chi_lam(mu) chi_lam(nu) / (z_mu z_nu).

    blocks: coefficient vectors, one coefficient per shape in table order,
    each all rational or all TruncatedSeries (zeros may be plain 0).  Each
    (block, monomial) pair is a slot: its coefficients go over their lcm
    denominator D as integer weights w.  Column orthogonality bounds every
    S = sum_lam w_lam chi_lam(mu) chi_lam(nu) by |S| <= max|w| * n!, so the
    slot takes that bound as its bias and the whole bytes that hold S + bias.
    One packed integer per shape carries every slot.

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
    """
    z = table.centralizer_orders
    size = len(z)
    bound = factorial(table.n)
    zero = Fraction(0)
    slots = []  # (values, D, weights, bias, first byte, end byte) over all blocks
    layout = []  # per block: its first series coefficient (None if rational), [(monomial, values)]
    length = 0
    for coeffs in blocks:
        monomials: dict[tuple, dict[int, Fraction | int]] = {}
        for k, c in enumerate(coeffs):
            for expo, value in c.coeffs.items() if isinstance(c, TruncatedSeries) else [((), c)]:
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
            slots.append((values, scale, weights, bias, start, length))
        layout.append((next((c for c in coeffs if isinstance(c, TruncatedSeries)), None), own))
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
    for series, own in layout:
        if series is None:
            matrices.append(tuple(map(tuple, own[0][1] if own else [[zero] * size for _ in z])))
        else:
            matrices.append(tuple(
                tuple(TruncatedSeries(series.vars, series.cap, {e: v[i][j] for e, v in own}) for j in range(size))
                for i in range(size)
            ))
    return matrices


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
) -> list[list]:
    """Coefficients, up to degree maxdeg, of the species' content product of each shape.

    One list per shape, in the order of ``shapes``: the product over cells of
    G(param, (shift + content) * u) as a univariate polynomial in the
    species' expansion variable u.  Each shape's product is the product of
    the shape with its last cell removed times that cell's factor, so a
    per-call dict from shape to product, seeded with the empty shape, costs
    one product of lists per shape reached past its first nonzero content.
    The weights are computed once, and each cell factor G(m u) once per
    distinct shifted content m.

    In rational mode the products run in integers: the degree-k coefficient
    of every list is C_k / P_k, the cell factor of m has C_j = N_j m^j
    (_integer_weights), and two lists multiply as
    C_t = sum_i X_i Y_(t-i) B(t, i) (_gaussian_binomials, built when a shape
    first multiplies two non-unit lists).  Each coefficient leaves as one
    Fraction; a shape whose product is one cell factor takes W_j m^j as is.
    Series mode multiplies with poly_mul.

    The degree 0 coefficient is always 1; cells of content -shift contribute
    nothing.  A shape that is not a partition, or a shift that is not an
    int, raises ValueError.
    """
    check_shift(shift)
    q = species.parameter
    weights = weight_coefficients(species.family, q, maxdeg)
    rational = isinstance(q, Fraction)
    if rational:
        numerators, denominators = _integer_weights(q, weights)
    else:
        numerators = weights
    rows = []
    unit = [1] + [0] * maxdeg
    factors: dict[int, list] = {}
    # shape -> (product, m when the product is the one cell factor of m, else 0)
    products: dict[Partition, tuple[list, int]] = {(): (unit, 0)}
    lists = []
    for lam in shapes:
        lam = tuple(lam)
        if lam not in products:
            chain = []
            shape = check_partition(lam)
            while shape not in products:
                chain.append(shape)
                shape = shape[:-1] + (shape[-1] - 1,) if shape[-1] > 1 else shape[:-1]
            poly, single = products[shape]
            for shape in reversed(chain):
                m = shift + shape[-1] - len(shape)
                if m:
                    if m not in factors:
                        factors[m] = [numerators[j] * m**j for j in range(maxdeg + 1)]
                    if poly is unit:
                        poly, single = factors[m], m
                    elif rational:
                        rows = rows or _gaussian_binomials(q, maxdeg)
                        poly, single = _gaussian_mul(poly, factors[m], rows), 0
                    else:
                        poly, single = poly_mul(poly, factors[m], maxdeg), 0
                products[shape] = poly, single
        poly, single = products[lam]
        if single:
            lists.append([weights[j] * single**j for j in range(maxdeg + 1)])
        elif rational and poly is not unit:
            lists.append(list(map(Fraction, poly, denominators)))
        else:
            lists.append(list(poly))
    return lists


def _gaussian_mul(x: list[int], y: list[int], rows: list[list[int]]) -> list[int]:
    """Numerators over P_t of the product of two lists of numerators over P: sum_i x_i y_(t-i) B(t, i)."""
    out = [0] * len(rows)
    for i, xi in enumerate(x):
        if xi:
            for t, yj in enumerate(y[: len(rows) - i], i):
                if yj:
                    out[t] += xi * yj * rows[t][i]
    return out


def content_eigenvalues(lists: list, degrees: tuple[int, ...]) -> list:
    """Per shape, the product over species s of lists[s][shape][degrees[s]].

    ``lists`` holds one species_content_coeffs result per species.
    """
    return [prod(coeffs[d] for coeffs, d in zip(shape, degrees)) for shape in zip(*lists)]


#: Largest spectral_cost a tau table or transfer matrix may have.
SPECTRAL_COST_LIMIT = 10**7


def spectral_cost(
    config: WeightConfig, maxdeg: tuple[int, ...], blocks: int, shift: int = 0
) -> int:
    """Work estimate, in kernel products, of one spectral_sum over ``blocks`` blocks up to maxdeg.

    products * (1 + bits / 2^13)^2, where products counts
      * blocks * p(n)^3 integer products of the kernel, and
      * p(n) * (16 (n - 2)^+ + 1) * sum_s (d_s + 1)^2 Fraction products that
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
    content products run in integers over known denominators, so this term
    over-estimates as well.  The constants are fitted to measured times of
    tau_coefficients before that change and stay, which keeps every
    admission; the refit is open in ROADMAP.md.
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
