"""Exact irreducible characters of the symmetric group.

Character values are computed by the signed border-strip (Murnaghan-Nakayama)
recursion on the abacus: a shape of n is the bitmask of its n beta numbers,
a strip removal two bit flips and a popcount (James-Kerber), and values are
memoized on (bead mask, remaining cycle lengths); naive recursion repeats
subproblems exponentially.  A table row removes each strip length from its
shape once and reads the smaller shapes from that memo; conjugate shapes
share one evaluation.  Complete tables are cached per n for the process
lifetime.  Character values and tables are exact integer arithmetic.

This module holds the character tables only.  The spectral layer that the
tau and combinatorial pipelines share is ``spectral``; the geometric
pipeline reads only character_table here, and a chartable request runs
nothing but this module, ``partitions`` and ``errors``.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
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
)

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
