import itertools
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from qhurwitz import (
    CapacityError,
    Species,
    WeightConfig,
    centralizer_order,
    character_table,
    colength,
    combinatorial_hurwitz_number,
    enumerate_partitions,
    jucys_murphy_eigenvalue_check,
    multispecies_hurwitz_entry,
    multispecies_transfer_matrix,
    path_counts,
    quantum_hurwitz_number,
    transfer_matrix,
    weight_coefficient,
    weighted_path_count,
)
from qhurwitz.combinatorial import multispecies_transfer_matrices, signature_of

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)


def steps_strategy(n=5, d=4):
    pair = st.tuples(st.integers(1, n - 1), st.integers(2, n)).filter(lambda ab: ab[0] < ab[1])
    return st.lists(pair, min_size=0, max_size=d)


class TestSignature:
    def test_single_step(self):
        assert signature_of([(1, 2)]) == ((1,), True)

    def test_unordered_example(self):
        assert signature_of([(1, 3), (2, 3), (1, 2)]) == ((2, 1), False)

    def test_ordered_example(self):
        assert signature_of([(1, 2), (1, 3), (2, 3)]) == ((2, 1), True)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            signature_of([(2, 2)])

    @given(steps_strategy())
    def test_signature_weight_is_step_count(self, steps):
        signature, ordered = signature_of(steps)
        assert sum(signature) == len(steps)
        # Ordered exactly when the second elements are weakly increasing.
        seconds = [b for _, b in steps]
        assert ordered == (seconds == sorted(seconds))


class TestPathCounts:
    def test_two_sheets_single_step(self):
        counts = path_counts(2, 1, (1, 1), (2,))
        assert counts[(1,)] == (Fraction(1, 2), Fraction(1, 2))

    def test_empty_path_is_diagonal(self):
        for n in (2, 3):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    counts = path_counts(n, 0, mu, nu)
                    expected = Fraction(1, centralizer_order(mu)) if mu == nu else 0
                    assert counts[()] == (expected, expected)

    def test_three_sheets_identity_to_identity(self):
        counts = path_counts(3, 2, (1, 1, 1), (1, 1, 1))
        total = sum(unrestricted for _, unrestricted in counts.values())
        assert total == Fraction(1, 2)

    def test_frozen_three_cycle_counts(self):
        counts = path_counts(3, 2, (3,), (3,))
        assert counts[(2,)] == (Fraction(4, 3), Fraction(4, 3))
        assert counts[(1, 1)] == (Fraction(1, 3), Fraction(2, 3))

    def test_multinomial_relation(self):
        for n in (2, 3, 4):
            for d in range(0, 4):
                for mu in enumerate_partitions(n):
                    for nu in enumerate_partitions(n):
                        for lam, (ordered, unrestricted) in path_counts(n, d, mu, nu).items():
                            multiplier = Fraction(
                                factorial(sum(lam)), prod(factorial(p) for p in lam)
                            )
                            assert unrestricted == multiplier * ordered

    def test_capacity_limits(self):
        with pytest.raises(CapacityError):
            path_counts(6, 1, (6,), (6,))
        with pytest.raises(CapacityError):
            path_counts(2, 5, (2,), (2,))

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="d must be nonnegative"):
            path_counts(3, -1, (3,), (3,))

    @pytest.mark.parametrize("n, d, mu", [
        (True, 1, (1,)), (3, 1.5, (3,)), (3.0, 1, (3,)), (3, True, (3,)), (3, 1, "3"), (3, 1, (2.5, 0.5)),
    ])
    def test_non_int_arguments_are_refused(self, n, d, mu):
        with pytest.raises(ValueError):
            path_counts(n, d, mu, (3,) if n == 3 else (1,))


class TestTransferMatrix:
    def test_degree_zero_is_identity(self):
        for n in (2, 3, 4):
            matrix = transfer_matrix(Species("E", HALF), 0, n)
            parts = character_table(n).partitions
            assert [[matrix.entry(mu, nu) for nu in parts] for mu in parts] == [
                [1 if mu == nu else 0 for nu in parts] for mu in parts
            ]

    def test_raw_entry_two_sheets(self):
        matrix = transfer_matrix(Species("E", HALF), 1, 2)
        assert matrix.entry((1, 1), (2,)) == 1 / (1 - HALF)
        assert matrix.entry((1, 1), (1, 1)) == 0

    def test_hurwitz_entry_matches_geometric(self):
        for family, q in (("E", HALF), ("H", THIRD)):
            for d in range(0, 4):
                matrix = transfer_matrix(Species(family, q), d, 3)
                for mu in enumerate_partitions(3):
                    for nu in enumerate_partitions(3):
                        assert matrix.hurwitz_entry(mu, nu) == quantum_hurwitz_number(
                            family, q, d, mu, nu
                        )

    def test_parity_vanishing(self):
        for n in (3, 4):
            for c in range(0, 4):
                matrix = transfer_matrix(Species("H", HALF), c, n)
                for mu in enumerate_partitions(n):
                    for nu in enumerate_partitions(n):
                        if (colength(mu) + c) % 2 != colength(nu) % 2:
                            assert matrix.entry(mu, nu) == 0

    def test_commutativity_sample(self):
        a = transfer_matrix(Species("E", HALF), 1, 4)
        b = transfer_matrix(Species("H", FIFTH), 2, 4)
        assert (a @ b).rows == (b @ a).rows

    def test_raw_entries_swap_with_centralizer_scaling(self):
        # z_mu * F(mu, nu) = z_nu * F(nu, mu): both sides equal the symmetric
        # character sum before the 1/z_mu normalization.
        for c in range(0, 4):
            matrix = transfer_matrix(Species("E", HALF), c, 4)
            for mu in enumerate_partitions(4):
                for nu in enumerate_partitions(4):
                    assert centralizer_order(mu) * matrix.entry(mu, nu) == centralizer_order(
                        nu
                    ) * matrix.entry(nu, mu)

    def test_product_order_is_irrelevant(self):
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=3)
        forward = multispecies_transfer_matrix(config, (1, 2))
        swapped_config = WeightConfig(
            species=(Species("H", FIFTH), Species("E", HALF)), n=3
        )
        backward = multispecies_transfer_matrix(swapped_config, (2, 1))
        assert forward.rows == backward.rows

    @pytest.mark.parametrize("n", range(1, 7))
    def test_multispecies_equals_chained_product(self, n):
        species = (Species("E", HALF), Species("H", FIFTH), Species("E'", THIRD))
        for count, top in ((2, 3), (3, 2)):
            config = WeightConfig(species=species[:count], n=n)
            for degrees in itertools.product(range(top), repeat=count):
                chained = transfer_matrix(species[0], degrees[0], n)
                for s, d in zip(species[1:count], degrees[1:]):
                    chained = chained @ transfer_matrix(s, d, n)
                # Dataclass equality: n and rows.
                assert multispecies_transfer_matrix(config, degrees) == chained

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matrices_up_to_maxdeg_equal_the_single_matrices(self, n):
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=n)
        matrices = multispecies_transfer_matrices(config, (3, 2))
        assert list(matrices) == list(itertools.product(range(4), range(3)))
        for degrees, matrix in matrices.items():
            assert matrix == multispecies_transfer_matrix(config, degrees)

    def test_all_zero_degrees_is_identity(self):
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=3)
        matrix = multispecies_transfer_matrix(config, (0, 0))
        parts = character_table(3).partitions
        assert [[matrix.entry(mu, nu) for nu in parts] for mu in parts] == [
            [1 if mu == nu else 0 for nu in parts] for mu in parts
        ]


class TestCombinatorialHurwitzNumber:
    def test_degree_zero(self):
        for count in (combinatorial_hurwitz_number, weighted_path_count):
            value = count("E", HALF, 0, (2, 1), (2, 1))
            assert value == Fraction(1, centralizer_order((2, 1)))

    def test_first_degree_simple_cover(self):
        for count in (combinatorial_hurwitz_number, weighted_path_count):
            value = count("E", HALF, 1, (1, 1), (2,))
            assert value == 1 / (2 * (1 - HALF))

    def test_frozen_value_h_family(self):
        for count in (combinatorial_hurwitz_number, weighted_path_count):
            assert count("H", HALF, 2, (3,), (3,)) == Fraction(44, 9)

    def test_paths_agree_with_spectral(self):
        for family in ("E", "H"):
            for n in (2, 3):
                for d in range(0, 4):
                    for mu in enumerate_partitions(n):
                        for nu in enumerate_partitions(n):
                            assert weighted_path_count(
                                family, HALF, d, mu, nu
                            ) == combinatorial_hurwitz_number(family, HALF, d, mu, nu)

    def test_ordered_count_form_agrees(self):
        # Same number via ordered counts with plain coefficient products,
        # no factorials: the multinomial relation in action.
        family, q, n = "E", THIRD, 3
        for d in range(0, 4):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    counts = path_counts(n, d, mu, nu)
                    ordered_form = sum(
                        prod(weight_coefficient(family, q, part) for part in lam) * ordered
                        for lam, (ordered, _) in counts.items()
                    )
                    assert ordered_form == weighted_path_count(family, q, d, mu, nu)

    @pytest.mark.parametrize("q", [HALF, Fraction(-1, 3), Fraction(2, 5), Fraction(3, 4)])
    def test_diagonal_of_e_times_h_is_the_one_variable_hybrid(self, q):
        # Setting both expansion variables of the two-species weight E(q) H(p)
        # to z gives E(q; z) H(p; z), whose coefficients are
        # sum_m q^(m(m-1)/2) / ((q; q)_m (p; p)_(i-m)): the numbers of the
        # multidegrees (a, d - a) sum to the path count weighted by them.
        p, n = FIFTH, 4
        config = WeightConfig((Species("E", q), Species("H", p, label="p")), n)

        def euler(x, m):
            return prod(1 - x**j for j in range(1, m + 1))

        hybrid = [sum(q ** (m * (m - 1) // 2) / (euler(q, m) * euler(p, i - m)) for m in range(i + 1)) for i in range(5)]
        for d in range(5):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    diagonal = sum(multispecies_hurwitz_entry(config, (a, d - a), mu, nu) for a in range(d + 1))
                    ordered_form = sum(
                        prod(hybrid[part] for part in lam) * ordered
                        for lam, (ordered, _) in path_counts(n, d, mu, nu).items()
                    )
                    assert diagonal == ordered_form, (d, mu, nu)

    def test_both_routes_validate_family_and_parameter(self):
        for family, q in (("H", Fraction(2)), ("E", Fraction(-1)), ("E'", 1), ("Q", HALF)):
            messages = []
            for count in (weighted_path_count, combinatorial_hurwitz_number):
                with pytest.raises(ValueError) as caught:
                    count(family, q, 2, (2, 1), (2, 1))
                messages.append(str(caught.value))
            assert messages[0] == messages[1]


class TestJucysMurphyEigenvalue:
    def test_trivial_shape(self):
        config = WeightConfig(species=(Species("E", HALF),), n=1)
        assert jucys_murphy_eigenvalue_check(config, (1,), 2)

    def test_two_sheets_single_species(self):
        config = WeightConfig(species=(Species("E", HALF),), n=2)
        assert jucys_murphy_eigenvalue_check(config, (2,), 2)
        assert jucys_murphy_eigenvalue_check(config, (1, 1), 2)

    def test_three_sheets_mixed_species(self):
        config = WeightConfig(
            species=(Species("E", HALF), Species("H", FIFTH)), n=3
        )
        for lam in enumerate_partitions(3):
            assert jucys_murphy_eigenvalue_check(config, lam, 2)

    @pytest.mark.parametrize("species", [
        Species("E'", -Fraction(1, 3)),
        Species("H", Fraction(2, 5)),
        Species("E", -HALF),
    ], ids=["E'", "H", "E"])
    def test_four_sheets_to_degree_four(self, species):
        # Degree 4 fills the window of every shape of 4, whose contents
        # have at most four elementary symmetric functions.
        config = WeightConfig(species=(species,), n=4)
        for lam in enumerate_partitions(4):
            assert jucys_murphy_eigenvalue_check(config, lam, 4), lam

    def test_detects_wrong_shape_weight(self):
        config = WeightConfig(species=(Species("E", HALF),), n=3)
        with pytest.raises(ValueError):
            jucys_murphy_eigenvalue_check(config, (2,), 2)

    def test_capacity_limit(self):
        config = WeightConfig(species=(Species("E", HALF),), n=6)
        with pytest.raises(CapacityError):
            jucys_murphy_eigenvalue_check(config, (6,), 1)
