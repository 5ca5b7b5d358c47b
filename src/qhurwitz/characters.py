"""Exact irreducible characters of the symmetric group, and the spectral layer.

Character values are computed by the signed border-strip (Murnaghan-Nakayama)
recursion, memoized on (shape, remaining cycle lengths); naive recursion
repeats subproblems exponentially.  Complete tables are cached per n for the
process lifetime.  Character values and tables are exact integer arithmetic.

The spectral layer below is what the tau and combinatorial pipelines share
beyond the scalar, weight and partition helpers: the content-product
eigenvalues of the central element prod_a G(u J_a) of the Jucys-Murphy
elements J_a, and the character sum over them.

* species_content_coeffs: per species and shape lam, the coefficients of
  prod_{cells of lam} G(param, (shift + content) * u), exact rationals or
  series;
* content_eigenvalues: per shape, their product over species at one
  multidegree;
* spectral_sum: the kernel, sum_lam c_lam chi_lam(mu) chi_lam(nu) / (z_mu z_nu)
  as integer dot products over one common denominator per monomial;
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
    centralizer_order,
    check_partition,
    contents,
    enumerate_partitions,
    hook_product,
    partition_count,
)
from .qweights import Species, WeightConfig, weight_coefficients
from .series import TruncatedSeries, poly_mul

#: Largest n for which character_table builds a full table.
TABLE_LIMIT = 12


@lru_cache(maxsize=None)
def _border_strip_character(lam: Partition, mu: Partition) -> int:
    """Recursive character value; lam and mu must have equal weight.

    Removes a border strip of length mu[0] from lam in every possible way.
    Strips are manipulated through the first-column hook lengths (beta
    numbers) beta_i = lam_i + len(lam) - 1 - i: removing a strip of length r
    replaces some beta by beta - r, and the sign is (-1)^(number of beta
    values jumped over), which equals rows spanned minus one.
    """
    if not mu:
        return 1
    strip = mu[0]
    rest = mu[1:]
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        nb = b - strip
        if nb < 0 or nb in beta_set:
            continue
        height = sum(1 for x in beta if nb < x < b)
        new_beta = sorted((beta_set - {b}) | {nb}, reverse=True)
        new_lam = tuple(x - (ell - 1 - i) for i, x in enumerate(new_beta))
        while new_lam and new_lam[-1] == 0:
            new_lam = new_lam[:-1]
        value = _border_strip_character(new_lam, rest)
        total += -value if height % 2 else value
    return total


def character_value(lam: Partition, mu: Partition) -> int:
    """Irreducible character of shape lam evaluated on the class of type mu."""
    lam = check_partition(lam)
    mu = check_partition(mu)
    if sum(lam) != sum(mu):
        raise ValueError("lam and mu must have equal weight")
    return _border_strip_character(lam, mu)


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
    """

    def __init__(self, n: int):
        self.n = n
        self.partitions = tuple(enumerate_partitions(n))
        self._index = {p: i for i, p in enumerate(self.partitions)}
        self.centralizer_orders = tuple(centralizer_order(p) for p in self.partitions)
        self.hook_products = tuple(hook_product(p) for p in self.partitions)
        self.values = tuple(
            tuple(_border_strip_character(lam, mu) for mu in self.partitions)
            for lam in self.partitions
        )

    def index(self, mu: Partition) -> int:
        try:
            return self._index[tuple(mu)]
        except KeyError:
            raise ValueError(f"{tuple(mu)} is not a partition of {self.n}") from None

    def value(self, lam: Partition, mu: Partition) -> int:
        return self.values[self.index(lam)][self.index(mu)]


@lru_cache(maxsize=None)
def character_table(n: int) -> CharacterTable:
    """Memoized character table of S_n; construction is idempotent."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > TABLE_LIMIT:
        raise CapacityError(f"character tables are limited to n <= {TABLE_LIMIT}")
    return CharacterTable(n)


def spectral_sum(table: CharacterTable, coeffs):
    """Symmetric matrix over (mu, nu) of sum_lam coeffs[lam] chi_lam(mu) chi_lam(nu) / (z_mu z_nu).

    coeffs: one per shape in table order, all rational or TruncatedSeries
    (zeros may be plain 0).  Per monomial the coeffs go over their lcm
    denominator D, character columns are dotted in integers for j >= i, and
    each entry is one Fraction S / (D z_mu z_nu), mirrored to (j, i).
    """
    series = next((c for c in coeffs if isinstance(c, TruncatedSeries)), None)
    monomials: dict[tuple, dict[int, Fraction]] = {}
    for k, c in enumerate(coeffs):
        for expo, value in c.coeffs.items() if isinstance(c, TruncatedSeries) else [((), c)]:
            if value:
                monomials.setdefault(expo, {})[k] = Fraction(value)
    z = table.centralizer_orders
    terms = [[{} for _ in z] for _ in z]
    for expo, column in monomials.items():
        scale = lcm(*(value.denominator for value in column.values()))
        weights = [value.numerator * (scale // value.denominator) for value in column.values()]
        chars = [[table.values[k][i] for k in column] for i in range(len(z))]
        for i, row in enumerate(chars):
            weighted = list(map(mul, weights, row))
            for j in range(i, len(z)):
                value = Fraction(sum(map(mul, weighted, chars[j])), scale * z[i] * z[j])
                terms[i][j][expo] = terms[j][i][expo] = value
    if series is None:
        return tuple(tuple(t.get((), Fraction(0)) for t in row) for row in terms)
    return tuple(tuple(TruncatedSeries(series.vars, series.cap, t) for t in row) for row in terms)


def species_content_coeffs(
    species: Species, shapes, maxdeg: int, shift: int = 0
) -> list[list]:
    """Coefficients, up to degree maxdeg, of the species' content product of each shape.

    One list per shape, in the order of ``shapes``: the product over cells of
    G(param, (shift + content) * u) as a univariate polynomial in the
    species' expansion variable u.  The weights are computed once, and each
    cell factor G(m u) once per distinct shifted content m.  The degree 0
    coefficient is always 1; cells of content -shift contribute nothing.
    """
    weights = weight_coefficients(species.family, species.parameter, maxdeg)
    factors: dict[int, list] = {}
    lists = []
    for lam in shapes:
        poly = [1] + [0] * maxdeg
        for c in contents(lam):
            m = shift + c
            if m == 0:
                continue
            if m not in factors:
                factors[m] = [weights[j] * m**j for j in range(maxdeg + 1)]
            poly = poly_mul(poly, factors[m], maxdeg)
        lists.append(poly)
    return lists


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
    """Work estimate, in kernel products, of blocks spectral_sum calls up to maxdeg.

    products * (1 + bits / 2^13)^2, where products counts
      * blocks * p(n)^3 integer products of the kernel, and
      * p(n) * (16 (n - 2)^+ + 1) * sum_s (d_s + 1)^2 Fraction products that
        build the content coefficients: per shape and species, about d^2
        for the weights and, past the first nonzero content, d^2 per cell
        for the polynomial products, each about 16 kernel products.  The
        weights are computed once per species, so the per-shape weight term
        over-estimates; it stays as fitted, which keeps every request's
        admission, and its refit is an open ROADMAP.md item;
    and bits = sum_s d_s * (b_s * d_s + bit length of |shift| + n) is about
    the size of the largest coefficient: b_s * d_s^2 from the weights
    (Species.bits) and d_s factors of a shifted content.  Arithmetic on
    such numbers grows with the square of their size (the gcds of Fraction).
    The constants are fitted to measured times of tau_coefficients.
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
