"""Exact irreducible characters of the symmetric group.

Character values are computed by the signed border-strip (Murnaghan-Nakayama)
recursion, memoized on (shape, remaining cycle lengths); naive recursion
repeats subproblems exponentially.  Complete tables are cached per n for the
process lifetime.  Everything here is exact integer arithmetic, including
spectral_sum, the character-sum kernel the tau and combinatorial pipelines share.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul

from .errors import CapacityError
from .partitions import (
    Partition,
    centralizer_order,
    check_partition,
    enumerate_partitions,
    hook_product,
)
from .series import TruncatedSeries

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

    def dimension(self, lam: Partition) -> int:
        return factorial(self.n) // self.hook_products[self.index(lam)]


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
