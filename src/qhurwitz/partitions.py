"""Integer partitions and their scalar combinatorics.

Partitions are plain tuples of weakly decreasing positive integers.  They are
the universal index type of the package: ramification profiles, conjugacy
classes, irreducible representations and path signatures are all partitions.

The canonical total order on partitions of n is descending lexicographic:
(n,) comes first and (1,)*n last.  Every table and matrix in the package is
indexed in this order.  Partitions serialize as comma separated decreasing
integers ("3,1,1"); the empty partition serializes as "".
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial

from .errors import CapacityError

Partition = tuple[int, ...]

#: Largest n accepted by enumerate_partitions (p(50) = 204226 partitions).
ENUMERATION_LIMIT = 50


def _is_int(value) -> bool:
    """Whether value is an int and not a bool: counts, parts and degrees refuse any other number."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_partition(mu) -> Partition:
    """Validate an iterable of int parts and return it as a partition tuple.

    A str, or a part that is not an int (a bool included), raises ValueError.
    """
    if isinstance(mu, str):
        raise ValueError(f"a partition is a sequence of ints, not the str {mu!r}")
    parts = tuple(mu)
    if not all(map(_is_int, parts)):
        raise ValueError(f"partition parts must be ints, got {parts!r}")
    for i, part in enumerate(parts):
        if part < 1:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i and parts[i - 1] < part:
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def parse_partition(text: str) -> Partition:
    """Parse "3,1,1" into (3, 1, 1).  The empty string is the empty partition."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError as exc:
        raise ValueError(f"invalid partition literal {text!r}") from exc
    return check_partition(parts)


def format_partition(mu: Partition) -> str:
    return ",".join(str(p) for p in mu)


def colength(mu: Partition) -> int:
    """Weight minus length.

    Equals the minimal number of transpositions whose product has cycle type
    mu, and measures sheet coalescence over a branch point with profile mu.
    """
    return sum(mu) - len(mu)


def conjugate(lam: Partition) -> Partition:
    """The transposed shape: column j of lam has as many cells as lam has parts > j.

    Its contents are those of lam negated.
    """
    return tuple(sum(1 for part in lam if part > j) for j in range(max(lam, default=0)))


@lru_cache(maxsize=None, typed=True)
def partition_count(n: int) -> int:
    """Number of partitions of n, via the Euler product 1/prod(1 - q^i).

    Coefficients are extracted by the standard coin-counting recurrence on
    the truncated product, independently of enumerate_partitions.  The cache
    is typed, so True never reaches the count cached for 1.
    """
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative int, got {n!r}")
    ways = [0] * (n + 1)
    ways[0] = 1
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


@lru_cache(maxsize=None)
def _partitions_desc(n: int) -> tuple[Partition, ...]:
    def rec(remaining: int, cap: int):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(rec(n, n))


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in canonical (descending lexicographic) order."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative int, got {n!r}")
    if n > ENUMERATION_LIMIT:
        raise CapacityError(f"partition enumeration is limited to n <= {ENUMERATION_LIMIT}")
    return list(_partitions_desc(n))


def centralizer_order(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu.

    Product over distinct part sizes i of i**m_i * m_i! where m_i is the
    multiplicity of i; the conjugacy class of type mu has n!/centralizer_order
    elements.  mu that check_partition refuses raises ValueError.
    """
    order = 1
    for part, mult in Counter(check_partition(mu)).items():
        order *= part**mult * factorial(mult)
    return order


def hook_product(lam: Partition) -> int:
    """Product of the hook lengths of all cells of lam.

    Satisfies hook_product(lam) * dim(lam) = n! for the irreducible
    representation dimension dim(lam).  lam that check_partition refuses
    raises ValueError.
    """
    lam = check_partition(lam)
    product = 1
    for i, row in enumerate(lam):
        for j in range(row):
            arm = row - j - 1
            leg = sum(1 for lower in lam[i + 1 :] if lower > j)
            product *= arm + leg + 1
    return product
