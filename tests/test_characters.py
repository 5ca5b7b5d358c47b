import itertools
import random
import threading
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod
from operator import mul

import pytest

from qhurwitz import (
    CapacityError,
    Species,
    TruncatedSeries,
    WeightConfig,
    character_table,
    colength,
    dimension,
    species_content_coeffs,
)
from qhurwitz.characters import TABLE_LIMIT
from qhurwitz.spectral import eigenvalue_blocks, spectral_numerators, spectral_sum

TABLE_SIZES = range(1, TABLE_LIMIT + 1)


@lru_cache(maxsize=None)
def reference_border_strip_character(lam, mu):
    """The border-strip recursion on partition tuples and beta-number lists, kept as the bead code's reference.

    Removes a strip of length mu[0] from lam in every possible way: beta_i =
    lam_i + len(lam) - 1 - i becomes beta_i - mu[0], with sign (-1)^(number of
    beta values jumped over).
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
        value = reference_border_strip_character(new_lam, rest)
        total += -value if height % 2 else value
    return total


class TestCharacterValue:
    def test_trivial_representation(self):
        for n in range(1, 7):
            table = character_table(n)
            for mu in table.partitions:
                assert table.value((n,), mu) == 1

    def test_sign_representation(self):
        for n in range(1, 7):
            table = character_table(n)
            for mu in table.partitions:
                assert table.value((1,) * n, mu) == (-1) ** colength(mu)

    def test_standard_two_one(self):
        table = character_table(3)
        assert table.value((2, 1), (1, 1, 1)) == 2
        assert table.value((2, 1), (3,)) == -1
        assert table.value((2, 1), (2, 1)) == 0

    def test_weight_mismatch(self):
        with pytest.raises(ValueError, match=r"\(3,\) is not a partition of 2"):
            character_table(2).value((2,), (3,))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_pair_equals_the_reference_recursion(self, n):
        table = character_table(n)
        for lam in table.partitions:
            for mu in table.partitions:
                assert table.value(lam, mu) == reference_border_strip_character(lam, mu), (lam, mu)

    @pytest.mark.parametrize("lam, mu", [
        ((13,), (1,) * 13),
        ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (1,) * 55),
        ((1200,), (1,) * 1200),
    ])
    def test_past_the_table_limit_is_capacity_error(self, lam, mu):
        # The table of n is refused before any value is read from it.
        with pytest.raises(CapacityError, match=f"limited to n <= {TABLE_LIMIT}"):
            character_table(sum(lam)).value(lam, mu)


class TestCharacterTable:
    def test_n1(self):
        table = character_table(1)
        assert table.values == ((1,),)

    def test_n2_canonical_order(self):
        # Columns follow the canonical order ((2), (1,1)), so the sign
        # character row reads (-1, 1): the value on the identity class is the
        # dimension and must be +1.
        table = character_table(2)
        assert table.partitions == ((2,), (1, 1))
        assert table.values == ((1, 1), (-1, 1))

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_values_equal_the_reference_recursion(self, n):
        table = character_table(n)
        assert table.values == tuple(
            tuple(reference_border_strip_character(lam, mu) for mu in table.partitions)
            for lam in table.partitions
        )
        middle = len(table.partitions) // 2
        column = [table.value(lam, table.partitions[middle]) for lam in table.partitions]
        assert column == [row[middle] for row in table.values]

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_row_orthogonality(self, n):
        # sum_k chi_i(k) chi_j(k) / z_k = delta_ij, times n! to stay in integers.
        table = character_table(n)
        size = len(table.partitions)
        class_sizes = [factorial(n) // z for z in table.centralizer_orders]
        for i in range(size):
            weighted = [v * c for v, c in zip(table.values[i], class_sizes)]
            for j in range(size):
                total = sum(map(mul, weighted, table.values[j]))
                assert total == (factorial(n) if i == j else 0)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_column_orthogonality(self, n):
        table = character_table(n)
        size = len(table.partitions)
        for i in range(size):
            for j in range(size):
                total = sum(table.values[k][i] * table.values[k][j] for k in range(size))
                assert total == (table.centralizer_orders[i] if i == j else 0)

    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_dimensions(self, n):
        table = character_table(n)
        dims = [table.value(lam, (1,) * n) for lam in table.partitions]
        assert all(d > 0 for d in dims)
        assert sum(d * d for d in dims) == factorial(n)
        for lam, d in zip(table.partitions, dims):
            assert d == dimension(lam)
            assert d * table.hook_products[table.index(lam)] == factorial(n)

    def test_first_row_is_all_ones(self):
        # Together with both orthogonality relations and positive dimensions
        # this pins the table down uniquely, which is the small-n oracle.
        for n in range(1, 5):
            table = character_table(n)
            assert table.values[0] == (1,) * len(table.partitions)

    def test_n5_table_shape(self):
        table = character_table(5)
        assert len(table.partitions) == 7
        assert all(len(row) == 7 for row in table.values)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            character_table(TABLE_LIMIT + 1)

    @pytest.mark.parametrize("n", [True, False, 2.0, 1.0, "3", None])
    def test_n_that_is_not_an_int_raises(self, n):
        # With the tables for 1 and 2 cached, an untyped cache would hand
        # True or 2.0 the cached table instead of refusing it.
        character_table(1)
        character_table(2)
        with pytest.raises(ValueError, match="n must be an int"):
            character_table(n)
        assert character_table.cache_info().currsize >= 2

    def test_cache_is_idempotent_under_concurrency(self):
        results = []

        def build():
            results.append(character_table(6))

        threads = [threading.Thread(target=build) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r.values == results[0].values for r in results)
        assert character_table(6) is character_table(6)


def conjugate(lam):
    """The transposed shape, column by column."""
    return tuple(len([part for part in lam if part >= j]) for j in range(1, lam[0] + 1))


def conjugate_indices(table):
    return [table.index(conjugate(lam)) for lam in table.partitions]


class TestConjugateShapes:
    @pytest.mark.parametrize("n", TABLE_SIZES)
    def test_conjugate_row_is_the_row_times_the_sign(self, n):
        # chi_lam'(mu) = (-1)^(n - len(mu)) chi_lam(mu), the symmetry the kernel pairs shapes by.
        table = character_table(n)
        signs = [(-1) ** (n - len(mu)) for mu in table.partitions]
        for row, k in zip(table.values, conjugate_indices(table)):
            assert table.values[k] == tuple(map(mul, signs, row))


class TestDimension:
    def test_examples(self):
        assert dimension((4,)) == 1
        assert dimension((2, 1)) == 2
        assert dimension((2, 2)) == 2
        assert dimension((2, 2)) == character_table(4).value((2, 2), (1, 1, 1, 1))


def reference_transfer_rows(table, coeffs):
    """Class-basis rows sum_lam c_lam chi_lam(mu) chi_lam(nu) / z_mu, term by term."""
    size = len(table.partitions)
    return [
        [
            sum(
                (
                    coeffs[k] * Fraction(table.values[k][i] * table.values[k][j], table.centralizer_orders[i])
                    for k in range(size)
                    if coeffs[k]
                ),
                Fraction(0),
            )
            for j in range(size)
        ]
        for i in range(size)
    ]


def rational_coeffs(size):
    return [0 if k % 4 == 3 else Fraction((-1) ** k * (k + 1), 2 * k + 3) for k in range(size)]


def series_coeffs(size):
    q = TruncatedSeries.variable("q", 4)
    return [Fraction(k + 1, 3) + (-1) ** k * q ** (k % 3 + 1) * Fraction(1, k + 2) for k in range(size)]


class TestSpectralSum:
    @pytest.mark.parametrize("make", [rational_coeffs, series_coeffs])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_times_z_nu_is_the_class_basis_matrix(self, n, make):
        table = character_table(n)
        coeffs = make(len(table.partitions))
        z = table.centralizer_orders
        [matrix] = spectral_sum(table, [(coeffs, 1)])
        scaled = [[value * z[j] for j, value in enumerate(row)] for row in matrix]
        assert scaled == reference_transfer_rows(table, coeffs)


def reference_spectral_sum(table, coeffs):
    """One block's matrix, one integer dot product per monomial and (mu, nu).

    The kernel one block at a time and over every shape, with no conjugate
    pairing: per monomial, the coefficients over their lcm denominator D,
    the weighted character columns dotted in integers over j >= i, and one
    Fraction S / (D z_mu z_nu) per entry, mirrored to (j, i).
    """
    series = next((c for c in coeffs if isinstance(c, TruncatedSeries)), None)
    monomials = {}
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


def assert_kernel_matches(table, blocks, references):
    """spectral_sum's matrices, and every row and entry it selects, are the reference matrices'.

    Each mu is asked for its whole row, for every nu in descending order
    (mu after nu for every nu < mu) with mu and 0 repeated, as a list and as
    a one-pass iterator, and for the single entries (mu, 0), (mu, mu) and
    (mu, last).
    """
    matrices = spectral_sum(table, blocks)
    assert matrices == references
    size = len(table.partitions)
    for mu in range(size):
        assert spectral_sum(table, blocks, mu) == [matrix[mu] for matrix in references]
        nus = [*range(size - 1, -1, -1), mu, 0]
        expected = [tuple(matrix[mu][nu] for nu in nus) for matrix in references]
        assert spectral_sum(table, blocks, mu, nus) == expected
        assert spectral_sum(table, blocks, mu, iter(nus)) == expected
        for nu in {0, mu, size - 1}:
            assert spectral_sum(table, blocks, mu, [nu]) == [(matrix[mu][nu],) for matrix in references]
    return matrices


def sign_blocks(table, magnitude):
    """Blocks +-magnitude * sign(chi_lam(mu) chi_lam(nu)) for two (mu, nu).

    At mu = nu = (1^n) every sign is +1 and the entry is magnitude * n!,
    the largest |S| column orthogonality allows; the minus block reaches
    -magnitude * n!.
    """
    last = len(table.partitions) - 1
    blocks = []
    for i, j in ((last, last), (0, last // 2)):
        signs = [(a * b > 0) - (a * b < 0) for a, b in ((row[i], row[j]) for row in table.values)]
        blocks += [[magnitude * s for s in signs], [-magnitude * s for s in signs]]
    return blocks


def conjugate_blocks(table, sign):
    """Blocks with c_lam' = sign * c_lam for every shape lam that is not its own conjugate.

    A self-conjugate shape keeps a nonzero coefficient of its own in the
    first block of each kind and 0 in the second, so sign -1 gives one block
    whose even-parity sums see only self-conjugate shapes and one with no
    even-parity weight at all.
    """
    size = len(table.partitions)
    q = TruncatedSeries.variable("q", 3)
    bases = [
        [Fraction((-1) ** k * (k + 2), 2 * k + 3) for k in range(size)],
        [Fraction(10**30 + k, 11) for k in range(size)],
        [Fraction(k + 1, 5) + (-1) ** k * q ** (k % 3 + 1) * Fraction(1, k + 2) for k in range(size)],
    ]
    blocks = []
    for base in bases:
        for self_conjugate in (1, 0):
            block = []
            for k, c in enumerate(conjugate_indices(table)):
                if k == c:
                    block.append(base[k] * self_conjugate)
                else:
                    block.append(base[min(k, c)] * (sign if k > c else 1))
            blocks.append(block)
    return blocks


def values(block):
    """A (coefficients, denominator[, degree]) kernel block read as one value per shape."""
    coeffs, denominator, *_ = block
    return [c / Fraction(denominator) for c in coeffs]


def content_blocks(table, shift):
    """Products of two species' content coefficients, one block per multidegree up to (3, 2).

    Each block is the (numerators, denominator, degree) triple eigenvalue_blocks returns.
    """
    species = (Species("H", Fraction(1, 2)), Species("E'", Fraction(-2, 5)))
    return multidegree_blocks(species, table, [range(4), range(3)], shift)


def multidegree_blocks(species, table, degrees, shift=0):
    """eigenvalue_blocks over the per-species degree sets, checked against products of the content lists."""
    tbl, keys, blocks = eigenvalue_blocks(WeightConfig(tuple(species), table.n), degrees, shift)
    assert tbl is table and keys == list(itertools.product(*degrees))
    lists = [species_content_coeffs(s, table.partitions, ds[-1], shift) for s, ds in zip(species, degrees)]
    for key, (numerators, denominator, degree) in zip(keys, blocks):
        assert degree == sum(key)
        assert denominator == prod(p[d] for (_, p), d in zip(lists, key))
        assert numerators == [prod(coeffs[d] for coeffs, d in zip(shape, key)) for shape in zip(*(c for c, _ in lists))]
    return blocks


class TestPackedSpectralSum:
    """Many blocks in one spectral_sum call, and its rows and entries, equal the per-block reference."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_entries_at_the_bound(self, n):
        table = character_table(n)
        blocks = sign_blocks(table, Fraction(10**25 + 3, 7)) + sign_blocks(table, 1)
        references = [reference_spectral_sum(table, b) for b in blocks]
        matrices = assert_kernel_matches(table, [(b, 1) for b in blocks], references)
        # S = magnitude * n! over D z_mu z_nu = 7 (n!)^2.
        assert matrices[0][-1][-1] == Fraction(10**25 + 3, 7 * factorial(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_huge_tiny_and_zero_blocks(self, n):
        table = character_table(n)
        size = len(table.partitions)
        huge_and_tiny = [
            Fraction(10**200 + k, 7) if k % 2 else Fraction((-1) ** k, 10**3 + k) for k in range(size)
        ]
        tiny = [Fraction((-1) ** k * (k + 1), 13) for k in range(size)]
        blocks = [huge_and_tiny, [0] * size, tiny, [Fraction(0)] * size, huge_and_tiny[::-1]]
        assert_kernel_matches(table, [(b, 1) for b in blocks], [reference_spectral_sum(table, b) for b in blocks])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rational_and_series_blocks_in_one_call(self, n):
        table = character_table(n)
        size = len(table.partitions)
        q = TruncatedSeries.variable("q", 4)
        blocks = [
            series_coeffs(size),
            rational_coeffs(size),
            [q**4 * Fraction(-(10**40), k + 1) + Fraction(1, 3**k) for k in range(size)],
            [TruncatedSeries("q", 4)] * size,
            sign_blocks(table, 5)[1],
        ]
        assert_kernel_matches(table, [(b, 1) for b in blocks], [reference_spectral_sum(table, b) for b in blocks])

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_conjugate_symmetric_and_antisymmetric_blocks(self, n, sign):
        table = character_table(n)
        blocks = conjugate_blocks(table, sign)
        assert_kernel_matches(table, [(b, 1) for b in blocks], [reference_spectral_sum(table, b) for b in blocks])

    @pytest.mark.parametrize("shift", [0, 2])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_content_product_blocks(self, n, shift):
        table = character_table(n)
        blocks = content_blocks(table, shift)
        if shift == 0:
            # Conjugation negates contents, so a block of total degree d has
            # c_lam' = (-1)^d c_lam: only one parity's sums can be nonzero.
            conjugates = conjugate_indices(table)
            for (block, _, _), degrees in zip(blocks, itertools.product(range(4), range(3))):
                assert [block[c] for c in conjugates] == [(-1) ** sum(degrees) * c for c in block]
        assert_kernel_matches(table, blocks, [reference_spectral_sum(table, values(b)) for b in blocks])

    @pytest.mark.parametrize("n", range(1, 10))
    def test_all_zero_blocks(self, n):
        table = character_table(n)
        size = len(table.partitions)
        zeros = [[0] * size, [Fraction(0)] * size, [TruncatedSeries("q", 3)] * size]
        blocks = zeros[:2] + conjugate_blocks(table, -1)[:2] + zeros[2:]
        references = [reference_spectral_sum(table, b) for b in blocks]
        matrices = assert_kernel_matches(table, [(b, 1) for b in blocks], references)
        assert all(not value for matrix in matrices[:2] + matrices[4:] for row in matrix for value in row)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_block_denominators(self, n):
        table = character_table(n)
        size = len(table.partitions)
        blocks = [
            ([(-1) ** k * (3**k + 1) for k in range(size)], 7**20 * 3),
            ([0] * size, 5),
            (series_coeffs(size), 9),
            (rational_coeffs(size), 4),
            ([2 * k for k in range(size)], 2),
        ]
        matrices = assert_kernel_matches(table, blocks, [reference_spectral_sum(table, values(b)) for b in blocks])
        assert not any(value for row in matrices[1] for value in row)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_many_blocks(self, n):
        # Every multidegree of six species up to degree 2 each, 729 blocks,
        # as a many-species triangle suite hands them to the kernel.
        table = character_table(n)
        species = [Species(f, Fraction(1, p)) for f, p in zip(("E", "E", "H", "H", "H", "E'"), (2, 3, 5, 7, 11, 13))]
        blocks = multidegree_blocks(species, table, [range(3)] * 6)
        assert_kernel_matches(table, blocks, [reference_spectral_sum(table, values(b)) for b in blocks])

    def test_no_blocks(self):
        assert spectral_sum(character_table(3), []) == []
        assert spectral_sum(character_table(3), [], 1, [0, 2]) == []


def random_parameter(rng):
    """A rational a/b in (-1, 1), 0 < |a| < b <= 9, of either sign."""
    b = rng.randint(2, 9)
    return Fraction(rng.choice((1, -1)) * rng.randint(1, b - 1), b)


def random_window_case(rng, n_max, series):
    """(species, n, degree sets, shift) of one random content-product table: 1-3 species of E, E' and H, n >= 3.

    In series mode the first species' parameter is the series variable q
    (cap 3) and the others are rational.  The degrees keep the table at
    most 16 blocks.
    """
    count = rng.randint(1, 3)
    parameters = [random_parameter(rng) for _ in range(count)]
    if series:
        parameters[0] = TruncatedSeries.variable("q", 3)
    species = [Species(rng.choice(("E", "E'", "H")), q) for q in parameters]
    maxdeg = [rng.randint(0, 3) for _ in species]
    while prod(m + 1 for m in maxdeg) > 16:
        maxdeg[maxdeg.index(max(maxdeg))] -= 1
    return species, rng.randint(3, n_max), [range(m + 1) for m in maxdeg], rng.randint(-2, 2)


class TestColengthWindow:
    """A content-product block of total degree t is 0 off |colength(mu) - colength(nu)| <= t (Jucys 1974).

    The degree-t coefficient of a content product is a symmetric polynomial
    of degree <= t in the Jucys-Murphy elements, which lies in the span of
    the class sums of colength <= t.  The kernel sums only that window; the
    reference sums every entry.
    """

    @staticmethod
    def edge_entries(seed, n_max, series):
        """Check one random table against the reference; return its nonzero entries on a window's edge.

        Every entry outside its block's window must be 0 in the reference,
        and the windowed kernel (its matrices, rows and entries, and in
        rational mode its numerators) must equal the reference everywhere.
        An edge entry has |colength(mu) - colength(nu)| equal to the block's
        degree t >= 1; a window one degree too narrow would drop it.
        """
        species, n, degrees, shift = random_window_case(random.Random(seed), n_max, series)
        table = character_table(n)
        blocks = multidegree_blocks(species, table, degrees, shift)
        references = [reference_spectral_sum(table, values(b)) for b in blocks]
        assert_kernel_matches(table, blocks, references)
        colengths = [colength(rho) for rho in table.partitions]
        edge = 0
        for (_, _, degree), reference in zip(blocks, references):
            for (i, ci), (j, cj) in itertools.product(enumerate(colengths), repeat=2):
                if abs(ci - cj) > degree:
                    assert not reference[i][j], (seed, degree, i, j)
                elif abs(ci - cj) == degree > 0 and reference[i][j]:
                    edge += 1
        if not series:
            scales, layout, sums = spectral_numerators(table, blocks)
            for (_, denominator, _), numerators, reference in zip(blocks, sums, references):
                entries = [Fraction(s, denominator * scale) for s, scale in zip(numerators, scales)]
                assert [[entries[k] for k in row] for row in layout] == [list(row) for row in reference]
        if edge:
            narrowed = [(coeffs, denominator, degree - 1) for coeffs, denominator, degree in blocks]
            assert spectral_sum(table, narrowed) != references
        return edge

    def test_rational_tables(self):
        # 40 tables, n <= 8, shifts -2..2, q of either sign.
        edges = [self.edge_entries(seed, 8, series=False) for seed in range(40)]
        assert sum(map(bool, edges)) >= 30, edges

    def test_series_tables(self):
        # 12 tables, n <= 6, the first species' parameter the series q.
        edges = [self.edge_entries(seed, 6, series=True) for seed in range(100, 112)]
        assert sum(map(bool, edges)) >= 9, edges
