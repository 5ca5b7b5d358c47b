import itertools
import re
import time
from fractions import Fraction
from math import lcm, prod

import pytest

import qhurwitz.combinatorial as combinatorial_module
import qhurwitz.geometric as geometric_module
import qhurwitz.spectral as spectral_module
import qhurwitz.tau as tau_module
from qhurwitz import (
    CapacityError,
    HurwitzTable,
    Species,
    TransferMatrix,
    TruncatedSeries,
    WeightConfig,
    centralizer_order,
    character_table,
    colength,
    content_product_coeffs,
    enumerate_partitions,
    format_partition,
    multispecies_transfer_matrix,
    parse_species_flag,
    quantum_hurwitz_number,
    species_content_coeffs,
    tau_coefficients,
    verify_triangle,
    weight_coefficient,
    weight_coefficients,
)
from qhurwitz.partitions import conjugate
from qhurwitz.qweights import multidegrees
from qhurwitz.tau import check_triangle_bounds
from test_partitions import contents
from test_series import evaluate, poly_mul

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)


def single_species(family, q, n):
    return WeightConfig(species=(Species(family, q),), n=n)


def reference_tau_entries(config, maxdeg, shift=0):
    """The spectral sum term by term, one Fraction per (lam, mu, nu) term.

    Reference for the integer kernel behind tau_coefficients: no common
    denominator, no symmetric half, every entry summed on its own.
    """
    parts = enumerate_partitions(config.n)
    tbl = character_table(config.n)
    coeff_tables = [content_product_coeffs(config, lam, maxdeg, shift) for lam in parts]
    entries = {}
    for degrees in itertools.product(*(range(m + 1) for m in maxdeg)):
        for i, mu in enumerate(parts):
            for j, nu in enumerate(parts):
                value = 0
                for k in range(len(parts)):
                    c = coeff_tables[k][degrees]
                    if not c:
                        continue
                    value = value + c * Fraction(
                        tbl.values[k][i] * tbl.values[k][j],
                        tbl.centralizer_orders[i] * tbl.centralizer_orders[j],
                    )
                entries[(degrees, mu, nu)] = value
    return entries


def reference_species_content_coeffs(species, lam, maxdeg, shift=0):
    """One shape's content product, cell by cell, with its own weights.

    Rational weights are first scaled to ints by their common denominator
    D, so each cell is one integer convolution and a product of k cells is
    read over D^k at the end.
    """
    weights = weight_coefficients(species.family, species.parameter, maxdeg)
    scale = 1
    if isinstance(species.parameter, Fraction):
        scale = lcm(*(w.denominator for w in weights))
        weights = [w.numerator * (scale // w.denominator) for w in weights]
    poly, cells = [1] + [0] * maxdeg, 0
    for c in contents(lam):
        m = shift + c
        if m == 0:
            continue
        poly = poly_mul(poly, [weights[j] * m**j for j in range(maxdeg + 1)], maxdeg)
        cells += 1
    return [c / Fraction(scale**cells) for c in poly]


def content_values(species, shapes, maxdeg, shift=0):
    """species_content_coeffs read as values: each numerator over its degree's denominator."""
    lists, denominators = species_content_coeffs(species, shapes, maxdeg, shift)
    return [[c / Fraction(p) for c, p in zip(coeffs, denominators)] for coeffs in lists]


class TestContentProducts:
    def test_single_cell_vanishes_at_zero_shift(self):
        coeffs = content_values(Species("E", HALF), [(1,)], 3)
        assert coeffs == [[1, 0, 0, 0]]

    def test_row_two_first_coefficient(self):
        [coeffs] = content_values(Species("E", HALF), [(2,)], 2)
        assert coeffs[1] == weight_coefficient("E", HALF, 1)

    def test_column_two_first_coefficient_is_negated(self):
        [coeffs] = content_values(Species("E", HALF), [(1, 1)], 2)
        assert coeffs[1] == -weight_coefficient("E", HALF, 1)

    def test_nonzero_shift_moves_the_cell(self):
        [coeffs] = content_values(Species("E", HALF), [(1,)], 2, shift=1)
        assert coeffs[1] == weight_coefficient("E", HALF, 1)

    @pytest.mark.parametrize("family, q", [("E", HALF), ("E'", Fraction(2, 5)), ("H", -THIRD)])
    @pytest.mark.parametrize("shift", range(-2, 3))
    def test_all_shapes_match_reference(self, family, q, shift):
        species = Species(family, q)
        for n in range(1, 8):
            parts = enumerate_partitions(n)
            expected = [reference_species_content_coeffs(species, lam, 4, shift) for lam in parts]
            assert content_values(species, parts, 4, shift) == expected

    @pytest.mark.parametrize("shift", range(-2, 3))
    def test_unordered_repeated_mixed_size_shapes_match_reference(self, shift):
        species = Species("E'", Fraction(2, 5))
        shapes = [(2, 1), (5,), (), (1, 1, 1, 1), (2, 1), (3, 3, 1), (1,), (4, 2), (2, 2), [3, 1], (5,), (1, 1)]
        expected = [reference_species_content_coeffs(species, lam, 4, shift) for lam in shapes]
        assert content_values(species, shapes, 4, shift) == expected

    @pytest.mark.parametrize("family, q", [("H", HALF), ("E", THIRD)])
    def test_n12_lists_match_reference(self, family, q):
        species = Species(family, q)
        parts = character_table(12).partitions
        expected = [reference_species_content_coeffs(species, lam, 3) for lam in parts]
        assert content_values(species, parts, 3) == expected

    @pytest.mark.parametrize("shape", [(1, 2), (2, 0), (0,), (-1,), (3, 1, 2), (1, 1, 0)])
    def test_shape_that_is_not_a_partition_raises(self, shape):
        with pytest.raises(ValueError):
            species_content_coeffs(Species("E", HALF), [(2, 1), shape], 2)

    def test_multispecies_table_is_outer_product(self):
        config = WeightConfig(
            species=(Species("E", HALF), Species("H", FIFTH)), n=2
        )
        table = content_product_coeffs(config, (2,), (2, 2))
        [left] = content_values(Species("E", HALF), [(2,)], 2)
        [right] = content_values(Species("H", FIFTH), [(2,)], 2)
        for i in range(3):
            for j in range(3):
                assert table[(i, j)] == left[i] * right[j]

    def test_degree_zero_coefficient_is_one(self):
        config = single_species("H", THIRD, 3)
        for lam in enumerate_partitions(3):
            assert content_product_coeffs(config, lam, (3,))[(0,)] == 1

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            content_product_coeffs(single_species("E", HALF, 2), (3,), (1,))

    @pytest.mark.parametrize("shift", [0.5, 1.0, "1", True, None])
    def test_shift_that_is_not_an_int_raises(self, shift):
        with pytest.raises(ValueError, match="shift must be an int"):
            species_content_coeffs(Species("E", HALF), [(2, 1)], 2, shift)
        with pytest.raises(ValueError, match="shift must be an int"):
            content_product_coeffs(single_species("E", HALF, 3), (2, 1), (2,), shift=shift)
        with pytest.raises(ValueError, match="shift must be an int"):
            tau_coefficients(single_species("E", HALF, 3), (2,), shift=shift)


INTEGER_PARAMETERS = [HALF, Fraction(-2, 5), -THIRD, Fraction(0), Fraction(999, 1000)]


def euler_product_denominators(q, maxdeg):
    """P_k = b^(k(k+1)/2) prod_{j<=k} (1 - q^j) for q = a/b: the Euler product cleared of b."""
    b = q.denominator
    return [b ** (k * (k + 1) // 2) * prod(1 - q**j for j in range(1, k + 1)) for k in range(maxdeg + 1)]


class TestConjugateContentLists:
    """At shift 0 the contents of lam' are those of lam negated: c_lam'(t) = (-1)^t c_lam(t)."""

    @pytest.mark.parametrize("species, maxdeg", [
        (Species("E", HALF), 6),
        (Species("E'", Fraction(-2, 5)), 6),
        (Species("H", -THIRD), 6),
        (Species("H", TruncatedSeries.variable("q", 4)), 4),
    ], ids=["E", "E'", "H", "H-series"])
    def test_conjugate_list_is_the_list_by_sign(self, species, maxdeg):
        for n in range(1, 9):
            parts = enumerate_partitions(n)
            # Each shape alone, then every shape in one call.
            alone = {lam: species_content_coeffs(species, [lam], maxdeg)[0][0] for lam in parts}
            for lam in parts:
                assert alone[conjugate(lam)] == [-c if t % 2 else c for t, c in enumerate(alone[lam])]
            lists, _ = species_content_coeffs(species, parts, maxdeg)
            assert lists == [alone[lam] for lam in parts]


class TestIntegerContentProducts:
    """The integers behind rational content products: every degree-k coefficient is C_k / P_k."""

    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    @pytest.mark.parametrize("q", INTEGER_PARAMETERS)
    @pytest.mark.parametrize("shift", [0, 2, -3])
    def test_every_shape_to_n8_matches_the_fraction_reference(self, family, q, shift):
        species = Species(family, q)
        shapes = [lam for n in range(1, 9) for lam in enumerate_partitions(n)]
        for maxdeg in (0, 1, 10):
            expected = [reference_species_content_coeffs(species, lam, maxdeg, shift) for lam in shapes]
            assert content_values(species, shapes, maxdeg, shift) == expected


class TestContentWalk:
    """The q-difference walk against the cell-by-cell reference, at the degrees it serves."""

    @pytest.mark.parametrize("family, q, n, maxdeg", [
        ("E'", Fraction(999, 1000), 3, 66),
        ("H", HALF, 12, 13),
        ("E", THIRD, 12, 13),
    ])
    def test_frontier_lists_match_reference(self, family, q, n, maxdeg):
        species = Species(family, q)
        parts = enumerate_partitions(n)
        expected = [reference_species_content_coeffs(species, lam, maxdeg) for lam in parts]
        assert content_values(species, parts, maxdeg) == expected

    @pytest.mark.parametrize("species", [
        Species("E", HALF),
        Species("E'", -THIRD),
        Species("H", Fraction(2, 5)),
        Species("H", TruncatedSeries.variable("q", 4)),
    ], ids=["E", "E'", "H", "H-series"])
    def test_shapes_of_content_zero_give_the_unit_list(self, species):
        # The empty shape has no cell and (1,) one cell of content 0.  Each
        # coefficient is of the mode's scalar type, so a block of these
        # shapes alone reaches the kernel as series in series mode.
        lists, _ = species_content_coeffs(species, [(), (1,)], 5)
        assert lists == [[1, 0, 0, 0, 0, 0]] * 2
        scalar = int if isinstance(species.parameter, Fraction) else TruncatedSeries
        assert all(type(c) is scalar for coeffs in lists for c in coeffs)

    def test_two_species_series_table_at_shift_one(self):
        variables = ("q", "p")
        config = WeightConfig(species=(
            Species("E", TruncatedSeries.variable("q", 4, variables)),
            Species("H", TruncatedSeries.variable("p", 4, variables), label="p"),
        ), n=4)
        table = tau_coefficients(config, (2, 2), shift=1)
        assert table.entries == reference_tau_entries(config, (2, 2), shift=1)
        assert all(isinstance(value, TruncatedSeries) for value in table.entries.values())

    @pytest.mark.parametrize("maxdeg", [-1, True, 2.0])
    def test_bad_maxdeg_is_refused_before_any_list(self, maxdeg):
        message = re.escape(f"maxdeg must be a nonnegative int, got {maxdeg!r}")
        with pytest.raises(ValueError, match=message):
            species_content_coeffs(Species("E", HALF), [(2, 1)], maxdeg)

        def unread():
            raise AssertionError("a shape was read")
            yield

        with pytest.raises(ValueError, match=message):
            species_content_coeffs(Species("E", HALF), unread(), maxdeg)


class TestIntegerForm:
    """Rational content lists, eigenvalues and kernel blocks are ints over known denominators, not Fractions."""

    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    @pytest.mark.parametrize("q", INTEGER_PARAMETERS + [Fraction(2, 5)])
    @pytest.mark.parametrize("shift", range(-2, 3))
    def test_numerators_are_ints_over_the_euler_denominators(self, family, q, shift):
        species = Species(family, q)
        shapes = [lam for n in range(1, 9) for lam in enumerate_partitions(n)]
        lists, denominators = species_content_coeffs(species, shapes, 6, shift)
        assert denominators == euler_product_denominators(q, 6)
        assert all(type(p) is int and p > 0 for p in denominators)
        assert all(type(c) is int for coeffs in lists for c in coeffs)
        for lam, coeffs in zip(shapes, lists):
            expected = reference_species_content_coeffs(species, lam, 6, shift)
            assert [Fraction(c, p) for c, p in zip(coeffs, denominators)] == expected

    def test_series_mode_denominators_are_one(self):
        species = Species("H", TruncatedSeries.variable("q", 4))
        shapes = enumerate_partitions(5)
        lists, denominators = species_content_coeffs(species, shapes, 4, 1)
        assert denominators == [1] * 5
        assert lists == [reference_species_content_coeffs(species, lam, 4, 1) for lam in shapes]

    def test_eigenvalues_are_ints_over_the_product_of_denominators(self):
        config = WeightConfig(species=(Species("E", HALF), Species("H", Fraction(-2, 5))), n=6)
        parts = enumerate_partitions(6)
        tables = [content_product_coeffs(config, lam, (4, 4)) for lam in parts]
        euler = [euler_product_denominators(s.parameter, 4) for s in config.species]
        tbl, keys, blocks = spectral_module.eigenvalue_blocks(config, [range(5), range(5)])
        assert tbl.partitions == tuple(parts) and keys == list(itertools.product(range(5), range(5)))
        for degrees, (numerators, denominator, degree) in zip(keys, blocks, strict=True):
            assert degree == sum(degrees)
            assert type(denominator) is int
            assert denominator == euler[0][degrees[0]] * euler[1][degrees[1]]
            assert all(type(c) is int for c in numerators)
            assert [Fraction(c, denominator) for c in numerators] == [t[degrees] for t in tables]

    @pytest.mark.parametrize("module, build", [
        (tau_module, tau_coefficients),
        # The combinatorial leg calls the kernel through the spectral module.
        (spectral_module, combinatorial_module.multispecies_transfer_matrices),
    ], ids=["tau", "combinatorial"])
    def test_the_kernel_gets_int_blocks(self, monkeypatch, module, build):
        seen = []
        kernel = spectral_module.spectral_sum

        def capturing(table, blocks):
            seen.extend(blocks)
            return kernel(table, blocks)

        monkeypatch.setattr(module, "spectral_sum", capturing)
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=5)
        build(config, (2, 3))
        assert len(seen) == 12
        for numerators, denominator, _ in seen:
            assert type(denominator) is int and denominator > 0
            assert all(type(c) is int for c in numerators)


class TestTauCoefficients:
    def test_matrices_are_the_rows_entry_and_entries_read(self):
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=4)
        table = tau_coefficients(config, (2, 1))
        parts = character_table(4).partitions
        assert list(table.matrices) == list(multidegrees(table.maxdeg))
        entries = table.entries
        assert list(entries) == [(d, mu, nu) for d in table.matrices for mu in parts for nu in parts]
        for degrees, rows in table.matrices.items():
            for i, mu in enumerate(parts):
                for j, nu in enumerate(parts):
                    assert rows[i][j] == rows[j][i] == table.entry(degrees, mu, nu) == entries[degrees, mu, nu]
        # entries is derived anew: changing one leaves the table as it was.
        entries.clear()
        assert len(table.entries) == 6 * len(parts) ** 2

    def test_entry_refuses_a_partition_not_of_n_and_a_multidegree_outside_the_box(self):
        table = tau_coefficients(single_species("E", HALF, 3), (1,))
        with pytest.raises(ValueError, match="not a partition of 3"):
            table.entry((1,), (2,), (3,))
        with pytest.raises(KeyError):
            table.entry((2,), (3,), (3,))

    def test_zero_block_is_diagonal(self):
        table = tau_coefficients(single_species("E", HALF, 3), (2,))
        for mu in enumerate_partitions(3):
            for nu in enumerate_partitions(3):
                expected = Fraction(1, centralizer_order(mu)) if mu == nu else 0
                assert table.entry((0,), mu, nu) == expected

    def test_first_degree_two_sheets(self):
        for q in (HALF, THIRD):
            table = tau_coefficients(single_species("E", q, 2), (1,))
            assert table.entry((1,), (1, 1), (2,)) == 1 / (2 * (1 - q))

    def test_h_family_cancellation(self):
        table = tau_coefficients(single_species("H", HALF, 2), (1,))
        assert table.entry((1,), (2,), (2,)) == 0

    def test_symmetry_in_mu_nu(self):
        config = WeightConfig(
            species=(Species("E", HALF), Species("H", FIFTH)), n=3
        )
        table = tau_coefficients(config, (2, 2))
        for degrees in table.matrices:
            for mu in enumerate_partitions(3):
                for nu in enumerate_partitions(3):
                    assert table.entry(degrees, mu, nu) == table.entry(degrees, nu, mu)

    def test_parity_vanishing(self):
        config = single_species("E", HALF, 4)
        table = tau_coefficients(config, (3,))
        for (d,) in table.matrices:
            for mu in enumerate_partitions(4):
                for nu in enumerate_partitions(4):
                    if (colength(mu) + d) % 2 != colength(nu) % 2:
                        assert table.entry((d,), mu, nu) == 0

    def test_eprime_matches_geometric_pipeline(self):
        for n in (2, 3):
            table = tau_coefficients(single_species("E'", THIRD, n), (2,))
            for d in range(0, 3):
                for mu in enumerate_partitions(n):
                    for nu in enumerate_partitions(n):
                        assert table.entry((d,), mu, nu) == quantum_hurwitz_number(
                            "E'", THIRD, d, mu, nu
                        )


class TestSpectralKernel:
    @pytest.mark.parametrize("family, q", [("E", HALF), ("E'", THIRD), ("H", -THIRD)])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_single_species_matches_reference(self, family, q, n):
        config = single_species(family, q, n)
        assert tau_coefficients(config, (3,)).entries == reference_tau_entries(config, (3,))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_shift_two_matches_reference(self, n):
        config = single_species("E", HALF, n)
        table = tau_coefficients(config, (2,), shift=2)
        assert table.entries == reference_tau_entries(config, (2,), shift=2)

    def test_two_species_matches_reference(self):
        config = WeightConfig(
            species=(Species("E", HALF), Species("H", FIFTH)), n=5
        )
        assert tau_coefficients(config, (2, 2)).entries == reference_tau_entries(config, (2, 2))

    def test_series_mode_matches_reference(self):
        config = single_species("E", TruncatedSeries.variable("q", 6), 4)
        table = tau_coefficients(config, (2,))
        assert table.entries == reference_tau_entries(config, (2,))
        assert all(isinstance(value, TruncatedSeries) for value in table.entries.values())

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_form_gives_series_in_series_mode(self, n):
        # At n = 1 every positive degree is 0, and each form returns it as a
        # zero series, as it returns every other value of series mode.
        config = single_species("H", TruncatedSeries.variable("q", 4), n)
        parts = character_table(n).partitions
        mu, nu = parts[0], parts[-1]
        values = [
            *tau_coefficients(config, (3,)).entries.values(),
            *(value for row in tau_module.tau_row(config, (3,), mu).values() for value in row),
            *(combinatorial_module.multispecies_hurwitz_entry(config, (d,), mu, nu) for d in range(4)),
            *(geometric_module.multispecies_hurwitz_number(config, (d,), mu, nu) for d in range(4)),
            *(value for d in range(4) for row in geometric_module.multispecies_hurwitz_matrix(config, (d,))
              for value in row),
            *(value for rows in geometric_module.multispecies_hurwitz_matrices(config, (3,)).values()
              for row in rows for value in row),
            *(value for d in range(4) for row in multispecies_transfer_matrix(config, (d,)).rows for value in row),
            *(value for matrix in combinatorial_module.multispecies_transfer_matrices(config, (3,)).values()
              for row in matrix.rows for value in row),
        ]
        assert all(isinstance(value, TruncatedSeries) for value in values)
        if n == 1:
            assert [geometric_module.multispecies_hurwitz_number(config, (d,), mu, nu) for d in range(4)] == [
                TruncatedSeries.one(("q",), 4), *[TruncatedSeries(("q",), 4)] * 3]

    def test_vanishing_h_coefficients(self):
        # n = 1: the single cell has content 0, so every positive-degree
        # coefficient vanishes and the kernel sums an all-zero column.
        config = single_species("H", HALF, 1)
        table = tau_coefficients(config, (3,))
        assert table.entries == reference_tau_entries(config, (3,))
        assert [table.entry((d,), (1,), (1,)) for d in range(4)] == [1, 0, 0, 0]
        # n = 2: nonzero coefficients whose terms cancel in the sum.
        config = single_species("H", HALF, 2)
        table = tau_coefficients(config, (3,))
        assert table.entries == reference_tau_entries(config, (3,))
        assert table.entry((1,), (2,), (2,)) == 0


class TestImmutability:
    def test_table_and_report_fields_are_frozen(self):
        config = single_species("E", HALF, 2)
        table = tau_coefficients(config, (1,))
        with pytest.raises(AttributeError):
            table.entries = {}
        report = verify_triangle(config, (1,))
        with pytest.raises(AttributeError):
            report.discrepancies = ()


class TestModeConsistency:
    def test_series_coefficients_stable_under_larger_caps(self):
        for cap in (8, 12):
            small = tau_coefficients(
                single_species("E", TruncatedSeries.variable("q", cap), 2), (2,)
            )
            large = tau_coefficients(
                single_species("E", TruncatedSeries.variable("q", cap + 4), 2), (2,)
            )
            for key, value in small.entries.items():
                bigger = large.entries[key]
                for expo, coeff in value.coeffs.items():
                    assert bigger.coeffs.get(expo, Fraction(0)) == coeff

    def test_series_evaluation_approximates_rational_mode(self):
        # Truncation caveat: the series table only carries q-degrees up to the
        # cap, so evaluating at q = 1/2 agrees with the exact rational table
        # to within the discarded tail, bounded here by 2**-(cap-4).
        cap = 16
        series_table = tau_coefficients(
            single_species("E", TruncatedSeries.variable("q", cap), 2), (2,)
        )
        rational_table = tau_coefficients(single_species("E", HALF, 2), (2,))
        for key, exact in rational_table.entries.items():
            approx = evaluate(series_table.entries[key], {"q": HALF})
            assert abs(approx - exact) < Fraction(1, 2 ** (cap - 4))


class TestVerifyTriangle:
    def test_two_sheets_e_family(self):
        report = verify_triangle(single_species("E", HALF, 2), (2,))
        assert report.ok
        assert report.checked == 3 * 2 * 2

    def test_three_sheets_h_family(self):
        report = verify_triangle(single_species("H", THIRD, 3), (2,))
        assert report.ok

    def test_two_species_joint(self):
        config = WeightConfig(
            species=(Species("E", HALF), Species("H", FIFTH)), n=2
        )
        report = verify_triangle(config, (1, 1))
        assert report.ok
        payload = report.to_dict()
        assert payload["status"] == "ok"
        assert payload["discrepancies"] == []
        assert payload["checked"] == report.checked

    def test_desk_scale_bounds(self):
        # Past n = 12 the character table is refused; at n = 2, E(1/2) is
        # admitted up to degree 177, and at 178 the two spectral sums pass 10^7.
        with pytest.raises(CapacityError, match="character tables are limited to n <= 12"):
            verify_triangle(single_species("E", HALF, 13), (1,))
        check_triangle_bounds(single_species("E", HALF, 2), (177,))
        with pytest.raises(CapacityError, match="triangle suite costs at least"):
            verify_triangle(single_species("E", HALF, 2), (178,))

    @staticmethod
    def planted_discrepancy(monkeypatch, module, name, plant):
        """The one discrepancy of a suite in which plant changes one entry of the leg that module.name computes.

        plant takes the leg's matrices and raises entry (1, 3) of block
        (1, 2) by 1 with raised, leaving its mirror (3, 1) as it was: the
        judge walks the three legs' rows and must report that entry alone,
        with the suite's checked count unchanged.
        """
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=4)
        parts = character_table(4).partitions
        honest = verify_triangle(config, (2, 2))
        assert honest.ok
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda config, maxdeg: plant(original(config, maxdeg)))
        report = verify_triangle(config, (2, 2))
        assert report.checked == honest.checked == 9 * len(parts) ** 2
        [discrepancy] = report.discrepancies
        assert discrepancy["degrees"] == [1, 2]
        assert (discrepancy["mu"], discrepancy["nu"]) == (format_partition(parts[1]), format_partition(parts[3]))
        return discrepancy

    @staticmethod
    def raised(rows) -> tuple:
        rows = [list(row) for row in rows]
        rows[1][3] += 1
        return tuple(map(tuple, rows))

    def test_one_perturbed_geometric_entry_is_the_one_discrepancy(self, monkeypatch):
        def plant(matrices):
            return {**matrices, (1, 2): self.raised(matrices[(1, 2)])}

        found = self.planted_discrepancy(monkeypatch, geometric_module, "multispecies_hurwitz_matrices", plant)
        assert found["combinatorial"] == found["tau"] != found["geometric"]

    def test_one_perturbed_combinatorial_entry_is_the_one_discrepancy(self, monkeypatch):
        def plant(matrices):
            return {**matrices, (1, 2): TransferMatrix(n=4, rows=self.raised(matrices[(1, 2)].rows))}

        found = self.planted_discrepancy(monkeypatch, combinatorial_module, "multispecies_transfer_matrices", plant)
        assert found["geometric"] == found["tau"] != found["combinatorial"]

    def test_one_perturbed_tau_entry_is_the_one_discrepancy(self, monkeypatch):
        def plant(table):
            matrices = {**table.matrices, (1, 2): self.raised(table.matrices[(1, 2)])}
            return HurwitzTable(n=table.n, maxdeg=table.maxdeg, matrices=matrices)

        found = self.planted_discrepancy(monkeypatch, tau_module, "tau_coefficients", plant)
        assert found["geometric"] == found["combinatorial"] != found["tau"]

    def test_a_window_one_degree_too_narrow_is_caught_by_the_geometric_leg(self, monkeypatch):
        # The tau and combinatorial legs share the kernel's colength window;
        # the geometric leg sums every colength class.  Blocks that claim one
        # degree less than they hold lose the nonzero entries on the window's
        # edge in both shared legs, and only the geometric leg disagrees.
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=4)
        honest = tau_coefficients(config, (2, 2))
        original = spectral_module.eigenvalue_blocks

        def narrowed(*args, **kwargs):
            tbl, keys, blocks = original(*args, **kwargs)
            return tbl, keys, [(numerators, denominator, degree - 1) for numerators, denominator, degree in blocks]

        monkeypatch.setattr(spectral_module, "eigenvalue_blocks", narrowed)
        monkeypatch.setattr(tau_module, "eigenvalue_blocks", narrowed)
        report = verify_triangle(config, (2, 2))
        edge = [
            (list(degrees), format_partition(mu), format_partition(nu))
            for (degrees, mu, nu), value in honest.entries.items()
            if value and abs(colength(mu) - colength(nu)) == sum(degrees)
        ]
        assert len(edge) > 9  # every multidegree has one, degree 0 its diagonal
        assert [(d["degrees"], d["mu"], d["nu"]) for d in report.discrepancies] == edge
        assert all(d["combinatorial"] == d["tau"] == "0/1" != d["geometric"] for d in report.discrepancies)

    def test_past_the_desk_box(self):
        # Suites at n = 6..12 and low degree, which no bound of n <= 5 or
        # degree <= 3 refuses any more: the three legs agree.  Their n >= 6
        # take about 0.5 s in process together on a 2-CPU Xeon; the budget
        # is 3 s.
        start = time.perf_counter()
        for texts, n_max, deg in (
            (("H:q=1/2",), 12, 2),
            (("E:q=1/2", "H:q=1/5"), 10, 1),
            (("E':q=-2/5",), 8, 3),
        ):
            check_triangle_bounds(suite_config(texts, n_max), (deg,) * len(texts), first_n=2)
            for n in range(6, n_max + 1):
                report = verify_triangle(suite_config(texts, n), (deg,) * len(texts))
                assert report.ok, (texts, n, report.discrepancies[:1])
        assert time.perf_counter() - start < 3.0


def suite_config(texts, n):
    return WeightConfig(tuple(parse_species_flag(t) for t in texts), n)


FOUR_SPECIES = ("E:q=1/2", "E:q=1/3", "H:q=1/5", "H:q=1/7")


class TestTriangleSuiteCost:
    """Summed geometric and spectral estimates admit or refuse a whole suite."""

    def test_admitted_suites(self):
        for texts in (("E:q=1/2", "H:p=1/5"), ("H:q=1/2",), FOUR_SPECIES):
            config = suite_config(texts, 5)
            check_triangle_bounds(config, (3,) * len(texts), first_n=2)
            check_triangle_bounds(config, (3,) * len(texts))
        for texts, n_max, deg in (
            (FOUR_SPECIES, 3, 11),
            (FOUR_SPECIES, 5, 7),
            (FOUR_SPECIES + ("H:q=1/11",), 5, 4),
            (FOUR_SPECIES + ("H:q=1/11", "E:q=1/13"), 5, 3),
            (("H:q=1/2",), 12, 4),
        ):
            check_triangle_bounds(suite_config(texts, n_max), (deg,) * len(texts), first_n=2)

    def test_suite_charges_the_legs_own_estimates(self):
        # Per n: the geometric leg's walks and matrices, and the spectral
        # cost of the tau table twice (the transfer matrices charge the same).
        # The bench E+H suite sums to 2,729 and 52,792.
        texts, maxdeg = ("E:q=1/2", "H:p=1/5"), (3, 3)
        geometric = spectral = 0
        for n in range(2, 6):
            config = suite_config(texts, n)
            geometric += geometric_module._geometric_cost(config, [range(4), range(4)])
            spectral += 2 * tau_module.spectral_cost(config, maxdeg, 16)
        assert (geometric, spectral) == (2729, 52792)

    def test_five_species_refused_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("tau table built for a refused suite")

        monkeypatch.setattr(tau_module, "tau_coefficients", refuse)
        # At slot degree 6, n = 5 alone passes both limits.
        config = suite_config(FOUR_SPECIES + ("H:q=1/11",), 5)
        with pytest.raises(CapacityError, match="triangle suite costs at least"):
            check_triangle_bounds(config, (6,) * 5, first_n=2)
        with pytest.raises(CapacityError, match="triangle suite costs at least"):
            verify_triangle(config, (6,) * 5)

    def test_suite_sums_over_n(self):
        texts = FOUR_SPECIES + ("H:q=1/11",)
        for n in range(2, 6):
            check_triangle_bounds(suite_config(texts, n), (5,) * 5)
        with pytest.raises(CapacityError, match="triangle suite costs at least"):
            check_triangle_bounds(suite_config(texts, 5), (5,) * 5, first_n=2)

    def test_many_species_refused_at_the_tables(self, monkeypatch):
        calls = []
        original = tau_module.spectral_cost

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(tau_module, "spectral_cost", counting)
        config = suite_config(("E:q=1/2",) * 12, 5)
        with pytest.raises(CapacityError, match="triangle suite costs at least"):
            check_triangle_bounds(config, (3,) * 12, first_n=2)
        assert len(calls) <= 4

    def test_degree_bound_checked_first(self, monkeypatch):
        # A huge degree is refused by the weight bits of n = 2, before any
        # character table or degree list; a huge n_max by the character
        # table of n = 13, the first n past the table limit, without building
        # the configurations past it.
        built = []
        original = tau_module.WeightConfig

        def counting(species, n):
            built.append(n)
            return original(species, n)

        monkeypatch.setattr(tau_module, "WeightConfig", counting)
        config = suite_config(FOUR_SPECIES + ("H:q=1/11",), 10**18)
        with pytest.raises(CapacityError, match="triangle suite costs at least"):
            check_triangle_bounds(config, (10**18,) * 5, first_n=2)
        assert built == [2]
        built.clear()
        with pytest.raises(CapacityError, match="character tables are limited to n <= 12"):
            check_triangle_bounds(suite_config(("H:q=1/2",), 10**18), (1,), first_n=2)
        assert built == list(range(2, 14))


#: (species, n, maxdeg) of many-block calls that are checked block by block
#: against the one-block paths.
MANY_BLOCKS = [
    pytest.param(tuple(Species(f, Fraction(1, b)) for f, b in zip("EEHHHE", (2, 3, 5, 7, 11, 13))), 2,
                 (2, 1, 2, 1, 1, 2), id="six species n=2"),
    pytest.param((Species("E", -THIRD), Species("H", FIFTH)), 5, (2, 1), id="two species n=5"),
    pytest.param((Species("E'", HALF), Species("H", Fraction(-2, 5))), 1, (3, 2), id="n=1"),
    pytest.param((Species("H", TruncatedSeries.variable("q", 4)), Species("E", HALF)), 4, (2, 1), id="series"),
]


class TestRowAndEntryForms:
    """spectral_sum given a row's or an entry's pairs, tau_row and multispecies_hurwitz_entry read what the whole matrices hold."""

    @staticmethod
    def assert_rows_and_entries(config, maxdeg, shift=0):
        tbl, _, blocks = spectral_module.eigenvalue_blocks(config, [range(m + 1) for m in maxdeg], shift)
        matrices = [tbl.symmetric(values) for values in spectral_module.spectral_sum(tbl, blocks)]
        size = len(tbl.partitions)
        for i in range(size):
            row = [(i, j) for j in range(size)]
            assert spectral_module.spectral_sum(tbl, blocks, row) == [rows[i] for rows in matrices]
            for j in range(size):
                entries = spectral_module.spectral_sum(tbl, blocks, [(i, j)])
                assert entries == [(rows[i][j],) for rows in matrices]

    @pytest.mark.parametrize("shift", [0, 2])
    @pytest.mark.parametrize("q", [HALF, -THIRD, Fraction(-1, 2)])
    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    def test_one_species_up_to_eight_sheets(self, family, q, shift):
        for n in range(1, 9):
            self.assert_rows_and_entries(single_species(family, q, n), (3,), shift)

    @pytest.mark.parametrize("shift", [0, -1])
    def test_two_species(self, shift):
        species = (Species("E'", HALF), Species("H", Fraction(-2, 5)))
        for n in range(1, 7):
            self.assert_rows_and_entries(WeightConfig(species, n), (2, 2), shift)

    def test_series_mode(self):
        for n in range(1, 6):
            config = single_species("E", TruncatedSeries.variable("q", 4), n)
            self.assert_rows_and_entries(config, (3,), 1)

    @pytest.mark.parametrize("shift", [0, 1, -2])
    @pytest.mark.parametrize("species, n, maxdeg", MANY_BLOCKS)
    def test_tau_row_is_the_row_of_the_table(self, species, n, maxdeg, shift):
        config = WeightConfig(species, n)
        table = tau_coefficients(config, maxdeg, shift)
        assert list(table.matrices) == list(multidegrees(maxdeg))
        parts = character_table(n).partitions
        for i, mu in enumerate(parts):
            assert tau_module.tau_row(config, maxdeg, mu, shift=shift) == {
                degrees: rows[i] for degrees, rows in table.matrices.items()
            }
            for j, nu in enumerate(parts):
                assert tau_module.tau_row(config, maxdeg, mu, nu, shift) == {
                    degrees: (rows[i][j],) for degrees, rows in table.matrices.items()
                }

    @pytest.mark.parametrize("species, n, maxdeg", MANY_BLOCKS)
    def test_transfer_matrices_hold_each_entry(self, species, n, maxdeg):
        config = WeightConfig(species, n)
        matrices = combinatorial_module.multispecies_transfer_matrices(config, maxdeg)
        assert list(matrices) == list(multidegrees(maxdeg))
        parts = character_table(n).partitions
        for degrees, matrix in matrices.items():
            assert matrix == multispecies_transfer_matrix(config, degrees)
            for mu, nu in itertools.product(parts, repeat=2):
                value = combinatorial_module.multispecies_hurwitz_entry(config, degrees, mu, nu)
                assert value == matrix.hurwitz_entry(mu, nu), (degrees, mu, nu)

    @pytest.mark.parametrize("family, q", [("E", HALF), ("E'", -THIRD), ("H", Fraction(999, 1000))])
    def test_combinatorial_entry_is_the_matrix_entry(self, family, q):
        for n in range(1, 9):
            config = single_species(family, q, n)
            parts = character_table(n).partitions
            for d in (0, 1, 4):
                matrix = multispecies_transfer_matrix(config, (d,))
                for mu, nu in itertools.product(parts[:3], parts[-3:]):
                    value = combinatorial_module.multispecies_hurwitz_entry(config, (d,), mu, nu)
                    assert value == matrix.hurwitz_entry(mu, nu)

    def test_refused_where_the_whole_matrix_is(self):
        config = single_species("H", HALF, 12)
        with pytest.raises(CapacityError, match="spectral sum costs about"):
            combinatorial_module.multispecies_hurwitz_entry(config, (24,), (12,), (12,))
        with pytest.raises(CapacityError, match="spectral sum costs about"):
            multispecies_transfer_matrix(config, (24,))
        for nu in [None, (12,)]:
            with pytest.raises(CapacityError, match="spectral sum costs about"):
                tau_module.tau_row(config, (14,), (6, 6), nu)
        with pytest.raises(CapacityError, match="spectral sum costs about"):
            tau_coefficients(config, (14,))


class TestSpectralCost:
    #: Largest parameter bit size the benchmark draws (2/5).
    WIDEST = Fraction(2, 5)

    def config(self, n, count):
        families = ("E", "H", "E'")
        species = tuple(Species(families[s], self.WIDEST) for s in range(count))
        return WeightConfig(species, n)

    @pytest.mark.parametrize("n,maxdeg", [
        (12, (3,)), (10, (2, 2)), (4, (1, 2)), (6, (2,)), (8, (1,)), (10, (2,)), (5, (3, 3)),
    ])
    def test_benchmark_tables_admitted(self, n, maxdeg):
        blocks = 1
        for m in maxdeg:
            blocks *= m + 1
        cost = tau_module.spectral_cost(self.config(n, len(maxdeg)), maxdeg, blocks)
        assert cost <= tau_module.SPECTRAL_COST_LIMIT

    @pytest.mark.parametrize("n,degrees", [
        (4, (1, 1)), (6, (2, 1)), (8, (2, 2)), (9, (3,)), (10, (3,)), (11, (4,)), (8, (7,)),
    ])
    def test_benchmark_matrices_admitted(self, n, degrees):
        cost = tau_module.spectral_cost(self.config(n, len(degrees)), degrees, 1)
        assert cost <= tau_module.SPECTRAL_COST_LIMIT

    def test_estimate_grows_with_shift_and_parameter_size(self):
        config = single_species("H", HALF, 4)
        base = tau_module.spectral_cost(config, (20,), 21)
        assert tau_module.spectral_cost(config, (20,), 21, shift=10**30) > base
        wide = single_species("H", Fraction(999, 1000), 4)
        assert tau_module.spectral_cost(wide, (20,), 21) > base

    def test_refused_before_any_content_coefficient(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            raise AssertionError("content coefficients computed")

        monkeypatch.setattr(tau_module, "content_product_coeffs", counting)
        monkeypatch.setattr(tau_module, "species_content_coeffs", counting)
        monkeypatch.setattr(spectral_module, "species_content_coeffs", counting)
        with pytest.raises(CapacityError, match="spectral sum costs about"):
            tau_coefficients(single_species("H", HALF, 12), (40,))
        with pytest.raises(CapacityError, match="spectral sum costs about"):
            tau_coefficients(single_species("H", HALF, 2), (10**11,))
        with pytest.raises(CapacityError, match="spectral sum costs about"):
            multispecies_transfer_matrix(single_species("E", HALF, 2), (5000,))
        assert calls == []

    def test_one_bound_per_species(self):
        with pytest.raises(ValueError, match="one degree per species"):
            tau_coefficients(single_species("H", HALF, 3), (1, 1))


class TestOneContentPassPerSpecies:
    def counted(self, monkeypatch):
        calls = {"species_content_coeffs": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        content = counting("species_content_coeffs", tau_module.species_content_coeffs)
        monkeypatch.setattr(tau_module, "species_content_coeffs", content)
        monkeypatch.setattr(spectral_module, "species_content_coeffs", content)
        return calls

    CONFIG = WeightConfig(
        species=(Species("E", HALF), Species("H", FIFTH), Species("E'", THIRD)), n=5
    )

    def test_tau_coefficients(self, monkeypatch):
        calls = self.counted(monkeypatch)
        tau_coefficients(self.CONFIG, (2, 1, 1))
        assert calls == {"species_content_coeffs": 3}

    def test_multispecies_transfer_matrix(self, monkeypatch):
        calls = self.counted(monkeypatch)
        multispecies_transfer_matrix(self.CONFIG, (2, 1, 1))
        assert calls == {"species_content_coeffs": 3}

    def test_verify_triangle(self, monkeypatch):
        calls = self.counted(monkeypatch)
        assert verify_triangle(self.CONFIG, (2, 1, 1)).ok
        # Once for the tau table and once for all twelve transfer matrices.
        assert calls == {"species_content_coeffs": 6}
