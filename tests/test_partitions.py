import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qhurwitz import (
    CapacityError,
    centralizer_order,
    check_partition,
    colength,
    enumerate_partitions,
    format_partition,
    hook_product,
    parse_partition,
    partition_count,
)
from qhurwitz.partitions import ENUMERATION_LIMIT, conjugate


def contents(lam):
    """Multiset of cell contents j - i (1-based row i, column j), sorted: the reference the content tests use."""
    return tuple(sorted(j - i for i, row in enumerate(lam, start=1) for j in range(1, row + 1)))


def pentagonal_partition_count(n, _cache={0: 1}):
    """Independent oracle: Euler's pentagonal number recurrence."""
    if n in _cache:
        return _cache[n]
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * pentagonal_partition_count(n - g1)
        if g2 <= n:
            total += sign * pentagonal_partition_count(n - g2)
        k += 1
    _cache[n] = total
    return total


def minimal_transposition_length(target_type):
    """BFS over products of transpositions in S_n until the type is reached."""
    n = sum(target_type)
    transpositions = []
    for a, b in itertools.combinations(range(n), 2):
        perm = list(range(n))
        perm[a], perm[b] = perm[b], perm[a]
        transpositions.append(tuple(perm))

    def cycle_type(perm):
        seen, lengths = set(), []
        for start in range(n):
            if start in seen:
                continue
            j, size = start, 0
            while j not in seen:
                seen.add(j)
                j = perm[j]
                size += 1
            lengths.append(size)
        return tuple(sorted(lengths, reverse=True))

    frontier = {tuple(range(n))}
    depth = 0
    while True:
        if any(cycle_type(p) == target_type for p in frontier):
            return depth
        frontier = {tuple(p[i] for i in t) for p in frontier for t in transpositions}
        depth += 1


partitions_strategy = st.lists(st.integers(1, 6), min_size=0, max_size=6).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


class TestColength:
    def test_identity_class(self):
        assert colength((1, 1, 1)) == 0

    def test_two_cycle(self):
        assert colength((2, 1)) == 1

    def test_four_cycle_matches_minimal_factorization(self):
        assert colength((4,)) == 3
        assert minimal_transposition_length((4,)) == 3

    @given(partitions_strategy)
    def test_appending_ones_is_invariant(self, mu):
        assert colength(mu + (1,)) == colength(mu)


class TestEnumeration:
    def test_zero(self):
        assert enumerate_partitions(0) == [()]
        assert partition_count(0) == 1

    def test_small_counts(self):
        assert len(enumerate_partitions(4)) == 5
        assert len(enumerate_partitions(8)) == 22

    @pytest.mark.parametrize("n", range(11))
    def test_count_matches_pentagonal_recurrence(self, n):
        assert len(enumerate_partitions(n)) == partition_count(n)
        assert partition_count(n) == pentagonal_partition_count(n)

    def test_canonical_order_is_descending_lex(self):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            assert parts == sorted(parts, reverse=True)
            assert parts[0] == (n,)
            assert parts[-1] == (1,) * n

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            enumerate_partitions(ENUMERATION_LIMIT + 1)


class TestCentralizerOrder:
    def test_examples(self):
        assert centralizer_order((1, 1, 1)) == 6
        assert centralizer_order((2, 1)) == 2
        assert centralizer_order((2, 2)) == 8

    @pytest.mark.parametrize("n", range(1, 7))
    def test_class_sizes_by_direct_group_enumeration(self, n):
        from math import factorial

        sizes = {}
        for perm in itertools.permutations(range(n)):
            seen, lengths = set(), []
            for start in range(n):
                if start in seen:
                    continue
                j, size = start, 0
                while j not in seen:
                    seen.add(j)
                    j = perm[j]
                    size += 1
                lengths.append(size)
            t = tuple(sorted(lengths, reverse=True))
            sizes[t] = sizes.get(t, 0) + 1
        for mu, size in sizes.items():
            assert size * centralizer_order(mu) == factorial(n)

    def test_class_sizes_sum_to_group_order(self):
        from math import factorial

        for n in range(1, 9):
            assert sum(
                factorial(n) // centralizer_order(mu) for mu in enumerate_partitions(n)
            ) == factorial(n)


class TestHooksAndContents:
    def test_hook_examples(self):
        from math import factorial

        assert hook_product((1,)) == 1
        for n in range(1, 7):
            assert hook_product((n,)) == factorial(n)
        assert hook_product((2, 1)) == 3

    def test_sum_of_squared_dimensions(self):
        from math import factorial

        for n in range(1, 9):
            total = sum(
                (factorial(n) // hook_product(lam)) ** 2 for lam in enumerate_partitions(n)
            )
            assert total == factorial(n)

    def test_contents_examples(self):
        assert contents(()) == ()
        assert contents((2,)) == (0, 1)
        assert contents((2, 1)) == (-1, 0, 1)

    @given(partitions_strategy)
    def test_contents_count_and_sum(self, lam):
        values = contents(lam)
        assert len(values) == sum(lam)
        expected = sum(
            Fraction(part * (part - 2 * i + 1), 2) for i, part in enumerate(lam, start=1)
        )
        assert sum(values) == expected

    def test_conjugate_examples(self):
        assert conjugate(()) == ()
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate((2, 2)) == (2, 2)
        assert conjugate((4, 2, 1)) == (3, 2, 1, 1)

    @given(partitions_strategy)
    def test_conjugate_is_an_involution_that_negates_the_contents(self, lam):
        transposed = conjugate(lam)
        assert conjugate(transposed) == lam
        assert sum(transposed) == sum(lam)
        assert contents(transposed) == tuple(sorted(-c for c in contents(lam)))


@pytest.mark.parametrize("function", [centralizer_order, hook_product])
@pytest.mark.parametrize("bad", [(1, 2), "3", "21", (2, 0), (2.0, 1)])
def test_centralizer_order_and_hook_product_refuse_non_partitions(function, bad):
    # (1, 2) is not (2, 1): both used to answer for it (2 and 4), and to
    # raise TypeError for a str.
    with pytest.raises(ValueError):
        function(bad)


class TestSerialization:
    def test_round_trip(self):
        for text in ("", "3", "3,1,1", "2,2"):
            assert format_partition(parse_partition(text)) == text

    @pytest.mark.parametrize("bad", ["1,2", "0", "a", "2,-1", "3,,1"])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            parse_partition(bad)

    def test_check_partition_rejects_increasing(self):
        with pytest.raises(ValueError):
            check_partition((1, 2))

    @pytest.mark.parametrize("bad", ["21", "", (2.7, 1), (2.0, 1), (True,), (2, Fraction(1))])
    def test_check_partition_refuses_what_is_not_ints(self, bad):
        # No part is coerced: "21" is not (2, 1), nor (2.7, 1), nor (True,) (1,).
        with pytest.raises(ValueError):
            check_partition(bad)


class TestCountArguments:
    @pytest.mark.parametrize("bad", [True, False, 2.5, 2.0, "3", -1])
    def test_refused_with_value_error(self, bad):
        with pytest.raises(ValueError, match="n must be a nonnegative int"):
            enumerate_partitions(bad)
        with pytest.raises(ValueError, match="n must be a nonnegative int"):
            partition_count(bad)

    def test_typed_cache_keeps_true_from_the_count_of_one(self):
        assert partition_count(1) == 1
        with pytest.raises(ValueError):
            partition_count(True)
        assert partition_count(0) == 1
        with pytest.raises(ValueError):
            partition_count(False)
