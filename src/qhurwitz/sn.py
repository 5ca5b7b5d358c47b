"""Dense symmetric group machinery for the brute-force oracles.

Permutations are tuples p with p[i] the image of point i (0-based); the word
product g * h composes with h applied first, so a product of transpositions
written left to right multiplies through the table by successive right
factors.  Groups build a full multiplication table on first use, which keeps
the exhaustive factorization count and group-algebra products at n <= 6
cheap; the path counts form only the products they read.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .errors import CapacityError
from .partitions import Partition

#: Largest n for which a dense group model is built (|S_6| = 720).
GROUP_LIMIT = 6


def cycle_type(perm: tuple[int, ...]) -> Partition:
    n = len(perm)
    seen = [False] * n
    lengths = []
    for start in range(n):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The product p * q (apply q first, then p)."""
    return tuple(p[i] for i in q)


class SymmetricGroup:
    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        if n > GROUP_LIMIT:
            raise CapacityError(f"dense group models are limited to n <= {GROUP_LIMIT}")
        self.n = n
        self.elements = list(itertools.permutations(range(n)))
        self.index = {p: i for i, p in enumerate(self.elements)}
        self.identity = self.index[tuple(range(n))]
        self.type_of = [cycle_type(p) for p in self.elements]
        classes: dict[Partition, list[int]] = {}
        for i, t in enumerate(self.type_of):
            classes.setdefault(t, []).append(i)
        self.classes = {t: tuple(members) for t, members in classes.items()}
        self._table: list[list[int]] | None = None

    @property
    def table(self) -> list[list[int]]:
        """table[i][j] is the index of elements[i] * elements[j]."""
        if self._table is None:
            index = self.index
            self._table = [
                [index[compose(p, q)] for q in self.elements] for p in self.elements
            ]
        return self._table

    def transposition(self, a: int, b: int) -> int:
        """Index of the transposition of the 1-based points a < b."""
        if not 1 <= a < b <= self.n:
            raise ValueError(f"need 1 <= a < b <= {self.n}, got ({a}, {b})")
        perm = list(range(self.n))
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
        return self.index[tuple(perm)]

    def transpositions(self) -> list[tuple[int, int, int]]:
        """All (a, b, index) with a < b, in lexicographic (a, b) order."""
        return [
            (a, b, self.transposition(a, b))
            for a in range(1, self.n)
            for b in range(a + 1, self.n + 1)
        ]


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> SymmetricGroup:
    return SymmetricGroup(n)


def algebra_mul(a: dict[int, object], b: dict[int, object], group: SymmetricGroup) -> dict[int, object]:
    """Product of two group algebra elements given as {element index: coefficient}."""
    table = group.table
    out: dict[int, object] = {}
    for g, cg in a.items():
        if not cg:
            continue
        row = table[g]
        for h, ch in b.items():
            if not ch:
                continue
            k = row[h]
            out[k] = out.get(k, 0) + cg * ch
    return {k: v for k, v in out.items() if v}
