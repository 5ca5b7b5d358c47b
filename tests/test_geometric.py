import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

import qhurwitz.geometric
from qhurwitz import (
    BranchConfiguration,
    CapacityError,
    Species,
    TruncatedSeries,
    WeightConfig,
    centralizer_order,
    colength,
    enumerate_factorizations,
    enumerate_partitions,
    character_table,
    frobenius_hurwitz,
    multispecies_hurwitz_matrix,
    multispecies_hurwitz_number,
    quantum_hurwitz_number,
    symmetrized_weight,
    tau_coefficients,
    verify_triangle,
)
from qhurwitz.geometric import (
    GEOMETRIC_COST_LIMIT,
    _character_sums,
    _colength_characters,
    _geometric_cost,
    _profile_tuples,
    _tuple_count,
    multispecies_hurwitz_matrices,
)
from test_partitions import contents

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)


def reference_profile_tuples(n, total):
    """Ordered tuples of nontrivial profiles of n with colengths summing to total.

    Built by appending one profile at a time over the colength of the last
    one; every ordering of a multiset appears separately.
    """
    if n == 1:
        return [()] if total == 0 else []
    parts = enumerate_partitions(n)
    pools = [[p for p in parts if colength(p) == c] for c in range(1, min(n - 1, total) + 1)]
    tuples = [[()]]
    for t in range(1, total + 1):
        tuples.append([
            rest + (p,)
            for c, pool in enumerate(pools[:t], start=1)
            for rest in tuples[t - c]
            for p in pool
        ])
    return tuples[total]


def reference_hurwitz_number(config, degrees, mu, nu, count=frobenius_hurwitz):
    """Per-ordered-tuple reference sum: one weight per species and combination.

    Each species weighs its own tuple by symmetrized_weight of the colengths
    in tuple order, H-type species with the sign (-1)^(k+degree); nothing is
    shared between combinations.  count gives each configuration's covering
    count.
    """
    n = config.n
    total = 0
    for combo in itertools.product(*(reference_profile_tuples(n, c) for c in degrees)):
        weight = 1
        for species, c, profiles in zip(config.species, degrees, combo):
            w = symmetrized_weight(
                species.family, species.parameter, tuple(colength(p) for p in profiles)
            )
            if species.family == "H" and (len(profiles) + c) % 2:
                w = -w
            weight = weight * w
        extra = tuple(sorted(itertools.chain(*combo), reverse=True))
        total = total + weight * count(BranchConfiguration(extra, mu, nu))
    return total


def reference_frobenius(config):
    """Covering count by the character sum with one Fraction per factor."""
    tbl = character_table(sum(config.mu))
    i_mu = tbl.index(config.mu)
    i_nu = tbl.index(config.nu)
    extra = [tbl.index(p) for p in config.extra_profiles]
    k = len(extra)
    total = Fraction(0)
    for row, hook in zip(tbl.values, tbl.hook_products):
        term = Fraction(hook**k * row[i_mu] * row[i_nu],
                        tbl.centralizer_orders[i_mu] * tbl.centralizer_orders[i_nu])
        for idx in extra:
            term *= Fraction(row[idx], tbl.centralizer_orders[idx])
        total += term
    return total


class TestBranchConfiguration:
    def test_rejects_weight_mismatch(self):
        with pytest.raises(ValueError, match="mu and nu must have equal weight"):
            BranchConfiguration((), (2,), (3,))
        with pytest.raises(ValueError, match="every extra profile must be a partition of n"):
            BranchConfiguration(((2,),), (2, 1), (3,))

    def test_rejects_trivial_extra_profile(self):
        with pytest.raises(ValueError):
            BranchConfiguration(((1, 1),), (2,), (2,))


class TestFrobeniusHurwitz:
    def test_no_extra_profiles_is_diagonal(self):
        for n in (2, 3, 4):
            for mu in enumerate_partitions(n):
                for nu in enumerate_partitions(n):
                    value = frobenius_hurwitz(BranchConfiguration((), mu, nu))
                    expected = Fraction(1, centralizer_order(mu)) if mu == nu else 0
                    assert value == expected

    def test_two_sheets_two_simple_branch_points(self):
        config = BranchConfiguration(((2,), (2,)), (1, 1), (1, 1))
        assert frobenius_hurwitz(config) == Fraction(1, 2)
        assert enumerate_factorizations(config) == 1

    def test_transposition_times_identity_is_never_identity(self):
        config = BranchConfiguration((), (2,), (1, 1))
        assert enumerate_factorizations(config) == 0
        assert frobenius_hurwitz(config) == 0

    def test_matches_brute_force_at_small_scale(self):
        for n in (2, 3, 4):
            parts = enumerate_partitions(n)
            for total in range(0, 3):
                for extra in reference_profile_tuples(n, total):
                    for mu in parts:
                        for nu in parts:
                            config = BranchConfiguration(extra, mu, nu)
                            assert frobenius_hurwitz(config) * factorial(
                                n
                            ) == enumerate_factorizations(config)

    def test_symmetry_in_profiles_and_endpoints(self):
        config = BranchConfiguration(((2, 1, 1), (3, 1)), (2, 2), (4,))
        swapped = BranchConfiguration(((3, 1), (2, 1, 1)), (4,), (2, 2))
        assert frobenius_hurwitz(config) == frobenius_hurwitz(swapped)

    def test_capacity_limit(self):
        with pytest.raises(CapacityError):
            enumerate_factorizations(BranchConfiguration((), (7,), (7,)))

    def test_integer_sum_matches_fraction_per_term(self):
        for n in range(1, 7):
            parts = enumerate_partitions(n)
            profiles = [p for p in parts if colength(p)]
            for k in range(3):
                for extra in itertools.combinations_with_replacement(profiles, k):
                    for mu in parts:
                        for nu in parts:
                            config = BranchConfiguration(extra, mu, nu)
                            assert frobenius_hurwitz(config) == reference_frobenius(config)


class TestProfileTuples:
    """Profile multisets with ordering counts against the ordered-tuple reference."""

    def test_degree_zero_is_empty_tuple(self):
        assert _profile_tuples(3, 0) == (((), 1),)

    def test_small_scan(self):
        assert set(_profile_tuples(3, 1)) == {(((2, 1),), 1)}
        assert set(_profile_tuples(3, 2)) == {(((3,),), 1), (((2, 1), (2, 1)), 1)}
        assert set(_profile_tuples(4, 3)) == {
            (((4,),), 1),
            (((3, 1), (2, 1, 1)), 2),
            (((2, 2), (2, 1, 1)), 2),
            (((2, 1, 1),) * 3, 1),
        }

    def test_one_sheet_has_no_profiles(self):
        assert _profile_tuples(1, 0) == (((), 1),)
        assert _profile_tuples(1, 60) == ()
        assert _tuple_count(1, 10**12) == 0

    def test_count_matches_enumeration(self):
        for n in range(1, 7):
            for total in range(7):
                reference = reference_profile_tuples(n, total)
                multisets = _profile_tuples(n, total)
                counted = Counter(tuple(sorted(t, reverse=True)) for t in reference)
                assert dict(multisets) == counted
                assert len(dict(multisets)) == len(multisets)
                assert sum(orderings for _, orderings in multisets) == _tuple_count(
                    n, total
                ) == len(reference)
                for profiles, _ in multisets:
                    assert list(profiles) == sorted(profiles, reverse=True)
                    assert sum(colength(p) for p in profiles) == total
                    assert all(sum(p) == n and colength(p) for p in profiles)

    def test_deep_sum_is_not_recursive(self):
        # n = 2 has one profile, so d = 1000 is one multiset of 1000 profiles.
        assert _profile_tuples(2, 1000) == ((((2,),) * 1000, 1),)


class TestGeometricCost:
    def config(self, n, *species):
        return WeightConfig(species=species, n=n)

    def test_estimates(self):
        h = Species("H", HALF)
        # Ordered profile tuples times the degree: 389 tuples for n=8, d=7.
        assert _geometric_cost(self.config(8, h), (7,)) == 389 * 7
        assert _geometric_cost(self.config(12, h), (12,)) == 59959 * 12
        # n = 2 has one tuple at every degree; the weight bits bound it.
        assert _geometric_cost(self.config(2, h), (300,)) == 2 * 300**2
        assert _geometric_cost(
            self.config(2, Species("H", Fraction(999, 1000))), (300,)
        ) == 10 * 300**2
        assert _geometric_cost(self.config(1, h), (10**12,)) == 0
        assert _geometric_cost(self.config(1, h), (0,)) == 1

    def test_over_the_limit_is_capacity_error(self):
        h = Species("H", HALF)
        for n, d in ((2, 99999999999), (2, 10**6), (12, 13), (3, 40)):
            config = self.config(n, h)
            assert _geometric_cost(config, (d,)) > GEOMETRIC_COST_LIMIT
            with pytest.raises(CapacityError, match="geometric sum costs about"):
                multispecies_hurwitz_number(config, (d,), (n,), (n,))
            with pytest.raises(CapacityError, match="geometric sum costs about"):
                multispecies_hurwitz_matrix(config, (d,))

    def test_one_sheet_is_zero_at_any_positive_degree(self):
        config = self.config(1, Species("E", HALF))
        assert multispecies_hurwitz_number(config, (60,), (1,), (1,)) == 0
        assert multispecies_hurwitz_number(config, (0,), (1,), (1,)) == 1


class TestQuantumHurwitzNumber:
    def test_degree_zero_is_diagonal(self):
        for family in ("E", "E'", "H"):
            for mu in enumerate_partitions(3):
                for nu in enumerate_partitions(3):
                    value = quantum_hurwitz_number(family, HALF, 0, mu, nu)
                    expected = Fraction(1, centralizer_order(mu)) if mu == nu else 0
                    assert value == expected

    def test_first_degree_simple_cover(self):
        # Single extra branch point of colength 1; the weight is 1/(1-q) and
        # the bare covering count is 1/2, so the total is 1/(2(1-q)).
        for q in (HALF, Fraction(1, 3)):
            assert quantum_hurwitz_number("E", q, 1, (1, 1), (2,)) == 1 / (2 * (1 - q))

    def test_h_family_cancellation(self):
        assert quantum_hurwitz_number("H", HALF, 1, (2,), (2,)) == 0

    def test_frozen_value_h_family(self):
        assert quantum_hurwitz_number("H", HALF, 2, (3,), (3,)) == Fraction(44, 9)

    def test_symmetric_under_swapping_endpoints(self):
        # The covering count is symmetric in the two marked profiles, so the
        # weighted numbers are too; the z-scaled swap rule belongs to the raw
        # transfer matrix entries (covered in the combinatorial tests).
        for family in ("E", "H"):
            for d in range(0, 4):
                for mu in enumerate_partitions(3):
                    for nu in enumerate_partitions(3):
                        assert quantum_hurwitz_number(
                            family, HALF, d, mu, nu
                        ) == quantum_hurwitz_number(family, HALF, d, nu, mu)

    def test_h_family_values_nonnegative(self):
        for n in (2, 3, 4):
            for d in range(0, 4):
                for mu in enumerate_partitions(n):
                    for nu in enumerate_partitions(n):
                        assert quantum_hurwitz_number("H", HALF, d, mu, nu) >= 0

    def test_weight_mismatch(self):
        with pytest.raises(ValueError):
            quantum_hurwitz_number("E", HALF, 1, (2,), (3,))

    def test_parameter_and_family_validated_by_species(self):
        for q in (Fraction(1), Fraction(-3, 2), 2):
            with pytest.raises(ValueError, match="must lie in"):
                quantum_hurwitz_number("E", q, 1, (2,), (2,))
        with pytest.raises(ValueError, match="unknown species family"):
            quantum_hurwitz_number("Q", HALF, 1, (2,), (2,))
        with pytest.raises(ValueError):
            quantum_hurwitz_number("E", HALF, -1, (2,), (2,))


class TestMultispecies:
    def config(self, n):
        return WeightConfig(
            species=(Species("E", HALF), Species("H", FIFTH)), n=n
        )

    def test_all_degrees_zero_is_diagonal(self):
        config = self.config(3)
        for mu in enumerate_partitions(3):
            for nu in enumerate_partitions(3):
                value = multispecies_hurwitz_number(config, (0, 0), mu, nu)
                expected = Fraction(1, centralizer_order(mu)) if mu == nu else 0
                assert value == expected

    def test_single_species_reduces_to_quantum(self):
        for family, q in (("E", HALF), ("H", FIFTH), ("E'", Fraction(1, 3))):
            config = WeightConfig(species=(Species(family, q),), n=3)
            for d in range(0, 3):
                for mu in enumerate_partitions(3):
                    for nu in enumerate_partitions(3):
                        assert multispecies_hurwitz_number(
                            config, (d,), mu, nu
                        ) == quantum_hurwitz_number(family, q, d, mu, nu)

    def test_frozen_two_species_value(self):
        # E at 1/2 and H at 1/5 on two sheets, one branch point each:
        # weights (1/(1-q)) * (1/(1-p)) times the covering count 1/2.
        config = self.config(2)
        value = multispecies_hurwitz_number(config, (1, 1), (1, 1), (1, 1))
        assert value == Fraction(5, 4)

    def test_species_swap_invariance(self):
        # Two species of the same family and parameter can be exchanged
        # together with their degrees.
        config = WeightConfig(
            species=(Species("E", HALF), Species("E", HALF)), n=3
        )
        for mu in enumerate_partitions(3):
            for nu in enumerate_partitions(3):
                assert multispecies_hurwitz_number(
                    config, (2, 1), mu, nu
                ) == multispecies_hurwitz_number(config, (1, 2), mu, nu)

    def test_degree_count_mismatch(self):
        with pytest.raises(ValueError):
            multispecies_hurwitz_number(self.config(2), (1,), (1, 1), (1, 1))


class TestSingleEvaluator:
    """The per-call weight table against the per-ordered-tuple reference sum."""

    def check(self, species, n, degree_list):
        config = WeightConfig(species=species, n=n)
        parts = enumerate_partitions(n)
        for degrees in degree_list:
            for mu in parts:
                for nu in parts:
                    assert multispecies_hurwitz_number(
                        config, degrees, mu, nu
                    ) == reference_hurwitz_number(config, degrees, mu, nu)

    @pytest.mark.parametrize("family, q", [("E", HALF), ("E'", THIRD), ("H", FIFTH)])
    def test_one_species(self, family, q):
        for n in range(2, 6):
            self.check((Species(family, q),), n, [(d,) for d in range(4)])

    def test_two_species(self):
        species = (Species("E", HALF), Species("H", FIFTH))
        self.check(species, 4, list(itertools.product(range(3), repeat=2)))
        species = (Species("E'", THIRD), Species("H", HALF))
        self.check(species, 5, [(0, 2), (1, 2), (2, 1), (1, 0)])

    def test_three_species(self):
        species = (Species("E", HALF), Species("E'", THIRD), Species("H", FIFTH))
        self.check(species, 4, [(0, 0, 0), (1, 0, 1), (0, 2, 1), (1, 1, 1), (2, 1, 0)])
        self.check(species, 5, [(1, 1, 1), (0, 0, 2)])

    def test_series_parameter(self):
        species = (Species("E", HALF), Species("H", TruncatedSeries.variable("q", 6)))
        self.check(species, 4, [(0, 0), (0, 2), (1, 2), (2, 1)])

    def test_one_weight_per_colength_multiset(self, monkeypatch):
        calls = []
        original = qhurwitz.geometric.symmetrized_weight

        def counting(family, q, colengths):
            calls.append(tuple(colengths))
            return original(family, q, colengths)

        monkeypatch.setattr(qhurwitz.geometric, "symmetrized_weight", counting)
        config = WeightConfig(species=(Species("H", HALF),), n=8)
        value = multispecies_hurwitz_number(config, (7,), (4, 4), (8,))
        assert value == Fraction(784217975468992, 78129765)
        # One call per partition of 7, each colength multiset seen once.
        assert len(calls) <= 15
        assert len(set(calls)) == len(calls)


class TestMatrix:
    """One branch-weight pass per multidegree against the single entries."""

    def check(self, species, n, degree_list):
        config = WeightConfig(species=species, n=n)
        parts = enumerate_partitions(n)
        for degrees in degree_list:
            matrix = multispecies_hurwitz_matrix(config, degrees)
            assert set(matrix) == {(mu, nu) for mu in parts for nu in parts}
            for (mu, nu), value in matrix.items():
                assert value == multispecies_hurwitz_number(config, degrees, mu, nu)

    def test_one_species(self):
        for family, q in (("E", HALF), ("E'", THIRD), ("H", FIFTH)):
            for n in range(1, 6):
                self.check((Species(family, q),), n, [(d,) for d in range(4)])

    def test_two_species(self):
        species = (Species("E", HALF), Species("H", FIFTH))
        for n in range(1, 6):
            self.check(species, n, list(itertools.product(range(3), repeat=2)))

    def test_validation(self):
        config = WeightConfig(species=(Species("E", HALF),), n=3)
        with pytest.raises(ValueError):
            multispecies_hurwitz_matrix(config, (1, 1))
        with pytest.raises(ValueError):
            multispecies_hurwitz_matrix(config, (-1,))

    def test_triangle_weighs_each_colength_multiset_once_per_multidegree(self, monkeypatch):
        calls = []
        original = qhurwitz.geometric.symmetrized_weight

        def counting(family, q, colengths):
            calls.append(tuple(colengths))
            return original(family, q, colengths)

        monkeypatch.setattr(qhurwitz.geometric, "symmetrized_weight", counting)
        species = (Species("E", HALF), Species("H", FIFTH))
        for n in range(2, 6):
            assert verify_triangle(WeightConfig(species=species, n=n), (3, 3)).ok
        # One pass per multidegree and species; per (mu, nu) it was 4,704.
        assert len(calls) <= 192


class TestMatrices:
    """Every multidegree up to maxdeg at once, against one matrix per multidegree."""

    @pytest.mark.parametrize("species, maxdeg", [
        ((Species("E", HALF), Species("H", FIFTH)), (3, 2)),
        ((Species("E'", THIRD),), (4,)),
        ((Species("H", TruncatedSeries.variable("q", 4)), Species("E", HALF)), (2, 1)),
    ])
    def test_equal_the_single_matrices(self, species, maxdeg):
        for n in range(1, 6):
            config = WeightConfig(species=species, n=n)
            matrices = multispecies_hurwitz_matrices(config, maxdeg)
            assert list(matrices) == list(itertools.product(*(range(m + 1) for m in maxdeg)))
            for degrees, matrix in matrices.items():
                assert matrix == multispecies_hurwitz_matrix(config, degrees)

    def test_one_weight_per_species_degree_and_colength_multiset(self, monkeypatch):
        calls = []
        original = qhurwitz.geometric.symmetrized_weight

        def counting(family, q, colengths):
            calls.append((family, tuple(colengths)))
            return original(family, q, colengths)

        monkeypatch.setattr(qhurwitz.geometric, "symmetrized_weight", counting)
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=5)
        multispecies_hurwitz_matrices(config, (3, 3))
        # Colength multisets of 0..3 with parts <= 4: 1 + 1 + 2 + 3, per species.
        assert len(calls) == len(set(calls)) == 14

    def test_refused_by_the_summed_cost_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigenvalues formed for a refused request")

        monkeypatch.setattr(qhurwitz.geometric, "_species_eigenvalues", refuse)
        h = Species("H", HALF)
        config = WeightConfig(species=(h,), n=12)
        assert _geometric_cost(config, (12,)) <= GEOMETRIC_COST_LIMIT
        assert sum(_geometric_cost(config, (d,)) for d in range(13)) > GEOMETRIC_COST_LIMIT
        for n, maxdeg in ((12, (12,)), (1, (10**7,)), (2, (10**12,))):
            with pytest.raises(CapacityError, match="geometric sum costs about"):
                multispecies_hurwitz_matrices(WeightConfig(species=(h,), n=n), maxdeg)


class TestCoveringSums:
    """The colength-class core against the ordered-tuple sum of reference_frobenius counts."""

    def check(self, species, n, degree_list):
        config = WeightConfig(species=species, n=n)
        parts = enumerate_partitions(n)
        for degrees in degree_list:
            matrix = multispecies_hurwitz_matrix(config, degrees)
            for mu in parts:
                for nu in parts:
                    expected = reference_hurwitz_number(
                        config, degrees, mu, nu, count=reference_frobenius
                    )
                    assert matrix[(mu, nu)] == expected
                    assert multispecies_hurwitz_number(config, degrees, mu, nu) == expected

    @pytest.mark.parametrize("family, q", [("E", HALF), ("E'", THIRD), ("H", FIFTH)])
    def test_one_species(self, family, q):
        for n in range(1, 6):
            self.check((Species(family, q),), n, [(d,) for d in range(4)])

    def test_two_species(self):
        species = (Species("E'", THIRD), Species("H", HALF))
        for n in range(2, 6):
            self.check(species, n, [(0, 0), (0, 2), (1, 1), (2, 1), (1, 3)])

    def test_three_species(self):
        species = (Species("E", HALF), Species("E'", THIRD), Species("H", FIFTH))
        for n in (3, 5):
            self.check(species, n, [(0, 0, 0), (1, 0, 1), (0, 2, 1), (1, 1, 1)])

    def test_series_parameter(self):
        species = (Species("H", TruncatedSeries.variable("q", 6)), Species("E", HALF))
        self.check(species, 4, [(0, 0), (2, 0), (2, 1), (3, 2)])

    def test_pipeline_makes_no_frobenius_hurwitz_call(self, monkeypatch):
        def refuse(config):
            raise AssertionError("frobenius_hurwitz called on the pipeline path")

        monkeypatch.setattr(qhurwitz.geometric, "frobenius_hurwitz", refuse)
        config = WeightConfig(species=(Species("E", HALF), Species("H", FIFTH)), n=4)
        matrix = multispecies_hurwitz_matrix(config, (2, 1))
        assert multispecies_hurwitz_number(config, (2, 1), (2, 2), (4,)) == matrix[((2, 2), (4,))]


def colength_multisets(n, most):
    """Descending tuples of colengths 1..n-1 with sum at most most."""
    found = [()]
    for key in found:
        top = key[-1] if key else n - 1
        found.extend(key + (c,) for c in range(1, top + 1) if sum(key) + c <= most)
    return found


class TestColengthClasses:
    """The colength-class core the pipeline runs, against brute force and the tau leg."""

    def test_central_characters_are_elementary_symmetric_in_the_contents(self):
        for n in range(1, 10):
            tbl = character_table(n)
            classes = _colength_characters(tbl)
            for i, lam in enumerate(tbl.partitions):
                elementary = [1]
                for content in contents(lam):
                    elementary = [
                        a + content * b for a, b in zip(elementary + [0], [0] + elementary)
                    ]
                for c in range(n):
                    exact = sum(
                        Fraction(tbl.hook_products[i] * tbl.values[i][j], z)
                        for j, (rho, z) in enumerate(zip(tbl.partitions, tbl.centralizer_orders))
                        if colength(rho) == c
                    )
                    assert exact.denominator == 1
                    assert classes[c][i] == exact == elementary[c]

    def test_covering_count_matches_factorizations(self):
        # n = 6 keeps mu to its three classes of 15 elements or fewer: the
        # brute force walks every tuple of extra class elements times the
        # class of mu (all pairs at n = 6 take about 5 s).
        for n in range(1, 7):
            tbl = character_table(n)
            classes = _colength_characters(tbl)
            parts = tbl.partitions
            mus = parts if n <= 5 else [(1,) * 6, (2, 1, 1, 1, 1), (2, 2, 2)]
            pairs = [(tbl.index(mu), j) for mu in mus for j in range(len(parts))]
            for key in colength_multisets(n, 3):
                vector = [prod(classes[c][i] for c in key) for i in range(len(parts))]
                counts = _character_sums(tbl, vector, pairs)
                pools = [[p for p in parts if colength(p) == c] for c in key]
                for i, j in pairs:
                    total = sum(
                        enumerate_factorizations(BranchConfiguration(extra, parts[i], parts[j]))
                        for extra in itertools.product(*pools)
                    )
                    assert counts[i, j] == Fraction(total, factorial(n)), (key, i, j)

    @pytest.mark.parametrize("species, n, degrees", [
        ((Species("H", HALF),), 12, (12,)),
        ((Species("E", HALF), Species("H", FIFTH)), 10, (2, 2)),
    ])
    def test_matrix_equals_the_tau_block(self, species, n, degrees):
        config = WeightConfig(species=species, n=n)
        table = tau_coefficients(config, degrees)
        matrix = multispecies_hurwitz_matrix(config, degrees)
        assert len(matrix) == len(character_table(n).partitions) ** 2
        for (mu, nu), value in matrix.items():
            assert value == table.entry(degrees, mu, nu), (mu, nu)
