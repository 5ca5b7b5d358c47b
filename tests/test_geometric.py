import itertools
from collections import Counter
from fractions import Fraction
from math import factorial, prod
from operator import mul

import pytest

import qhurwitz.geometric
import qhurwitz.qweights
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
    _eigenvalues,
    _geometric_cost,
    _profile_tuples,
    _species_eigenvalues,
    multispecies_hurwitz_matrices,
)
from qhurwitz.partitions import conjugate
from test_partitions import contents

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)


def matrix_entries(matrix, n):
    """{(mu, nu): value} of a matrix given as rows over character_table(n).partitions.

    Asserts its shape first: one row per partition of n, each as long.
    """
    parts = character_table(n).partitions
    assert len(matrix) == len(parts) and all(len(row) == len(parts) for row in matrix)
    return {(mu, nu): value for mu, row in zip(parts, matrix) for nu, value in zip(parts, row)}


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


def reference_species_eigenvalues(species, degree, classes):
    """G_s(lam) per shape as a sum over the colength multisets of degree.

    classes is _colength_characters(n).  Each multiset K of colengths
    1..n-1 summing to degree is enumerated once, descending, carrying the
    vector prod_{c in K} E_lam(c), and adds its number of orderings times
    symmetrized_weight(K) times that vector; H carries (-1)^(k+degree).
    Every shape is summed on its own, conjugates included.
    """
    sums = [0] * len(classes[0])
    stack = [((), [1] * len(sums), degree)]
    while stack:
        key, vector, rest = stack.pop()
        if rest == 0:
            orderings = factorial(len(key)) // prod(map(factorial, Counter(key).values()))
            w = orderings * symmetrized_weight(species.family, species.parameter, key)
            if species.family == "H" and (len(key) + degree) % 2:
                w = -w
            sums = [s + w * v for s, v in zip(sums, vector)]
            continue
        top = min(key[-1] if key else len(classes) - 1, rest)
        stack.extend((key + (c,), list(map(mul, vector, classes[c])), rest - c)
                     for c in range(1, top + 1))
    return sums


def level_denominator(q, t):
    """D_t = prod_{P<=t} (b^P - a^P) for q = a/b."""
    return prod(q.denominator**P - q.numerator**P for P in range(1, t + 1))


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

    def test_cache_stays_within_its_maxsize(self):
        maxsize = frobenius_hurwitz.cache_parameters()["maxsize"]
        assert maxsize is not None
        parts = enumerate_partitions(4)
        profiles = [p for p in parts if colength(p)]
        configs = (
            BranchConfiguration(extra, mu, nu)
            for k in itertools.count()
            for extra in itertools.product(profiles, repeat=k)
            for mu in parts
            for nu in parts
        )
        for config in itertools.islice(configs, maxsize + 100):
            frobenius_hurwitz(config)
        assert frobenius_hurwitz.cache_info().currsize <= maxsize

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

    def test_count_matches_enumeration(self):
        for n in range(1, 7):
            for total in range(7):
                reference = reference_profile_tuples(n, total)
                multisets = _profile_tuples(n, total)
                counted = Counter(tuple(sorted(t, reverse=True)) for t in reference)
                assert dict(multisets) == counted
                assert len(dict(multisets)) == len(multisets)
                assert sum(orderings for _, orderings in multisets) == len(reference)
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
        # H(1/2) has b = 2, so x = 2 d^2 / 2^13.  At n = 8 (p = 22, d = 7):
        # walk 22*7*(7*(1 + x) + 6*x*2*7/2^11) and matrix (22^2 + 16)(1 + x) + 8*22*23*x^2.
        x = Fraction(2 * 7**2, 2**13)
        walk = 22 * 7 * (7 * (1 + x) + 6 * x * Fraction(2 * 7, 2**11))
        matrix = (22**2 + 16) * (1 + x) + 8 * 22 * 23 * x * x
        assert _geometric_cost(self.config(8, h), [(7,)]) == -(-(walk + matrix) // 1) == 1598
        assert _geometric_cost(self.config(12, h), [(12,)]) == 16739
        # n = 2 adds nothing in its walk; the weight bits b d^2 bound it, and
        # past the limit they are the estimate.
        assert _geometric_cost(self.config(2, h), [(707,)]) <= GEOMETRIC_COST_LIMIT
        assert _geometric_cost(self.config(2, h), [(708,)]) == 2 * 708**2
        assert _geometric_cost(
            self.config(2, Species("H", Fraction(999, 1000))), [(317,)]
        ) == 10 * 317**2
        # One sheet walks no step and has no weight bits: one 1 x 1 matrix.
        assert _geometric_cost(self.config(1, h), [(10**12,)]) == 17
        assert _geometric_cost(self.config(1, h), [(0,)]) == 17

    def test_one_entry_is_charged_for_one_entry(self):
        # An entry adds one weighted column and one reduced Fraction, not a
        # matrix.  H(2^-240) has b = 241; at n = 12 (p = 77), d = 12 the
        # walk is admitted and a matrix is not.
        config = self.config(12, Species("H", Fraction(1, 2**240)))
        x = Fraction(241 * 12**2, 2**13)
        walk = 77 * 12 * (11 * (1 + x) + 10 * x * Fraction(241 * 12, 2**11))
        entry = (77 + 16) * (1 + x) + 32 * x * x
        assert _geometric_cost(config, [(12,)], entry=True) == -(-(walk + entry) // 1) == 109559
        assert _geometric_cost(config, [(12,)]) > GEOMETRIC_COST_LIMIT
        assert _geometric_cost(self.config(1, Species("H", HALF)), [(10**12,)], entry=True) == 17

    def test_high_bit_parameter_at_twelve_sheets(self, monkeypatch):
        # One entry of H(2^-240) at n = 12, d = 12 is admitted (about 0.05 s)
        # and equals the entry of the matrix, which only a raised limit admits.
        config = self.config(12, Species("H", Fraction(1, 2**240)))
        value = multispecies_hurwitz_number(config, (12,), (12,), (12,))
        with pytest.raises(CapacityError, match="geometric sum costs about"):
            multispecies_hurwitz_matrix(config, (12,))
        monkeypatch.setattr(qhurwitz.geometric, "GEOMETRIC_COST_LIMIT", 2 * 10**6)
        assert matrix_entries(multispecies_hurwitz_matrix(config, (12,)), 12)[(12,), (12,)] == value
        # H(2^-2000) walks numerators of about 2001 * 144 bits and scales
        # them by level denominators of up to 2001 * 12 bits: refused.
        refused = self.config(12, Species("H", Fraction(1, 2**2000)))
        assert _geometric_cost(refused, [(12,)], entry=True) > 2 * 10**6
        with pytest.raises(CapacityError, match="geometric sum costs about"):
            multispecies_hurwitz_number(refused, (12,), (12,), (12,))

    def test_walks_count_once_and_matrices_per_multidegree(self):
        # Each multidegree's matrix takes the bits of its own degrees and each
        # walk those of its species' largest degree: the closed form equals
        # that sum.  At n = 6, p = 11; E'(999/1000) has b = 10.
        species = (Species("H", HALF), Species("E'", Fraction(999, 1000)), Species("E", THIRD))
        box = [range(4), (2, 5), range(3)]
        walk = sum(
            11 * d * (5 * (1 + x) + 4 * x * Fraction(b * d, 2**11))
            for b, d, x in ((2, 3, Fraction(2 * 9, 2**13)), (10, 5, Fraction(10 * 25, 2**13)),
                            (2, 2, Fraction(2 * 4, 2**13)))
        )
        matrices = sum(
            (11**2 + 16) * (1 + x) + 8 * 11 * 12 * x * x
            for x in (Fraction(2 * a * a + 10 * b * b + 2 * c * c, 2**13) for a, b, c in itertools.product(*box))
        )
        assert _geometric_cost(self.config(6, *species), box) == -(-(walk + matrices) // 1)
        one = self.config(12, Species("H", HALF))
        assert _geometric_cost(one, [range(13)]) < 13 * _geometric_cost(one, [(12,)])
        two = self.config(12, Species("H", HALF), Species("E", THIRD))
        assert _geometric_cost(two, [(12,), (0,)]) < _geometric_cost(two, [(12,), (12,)])

    def test_over_the_limit_is_capacity_error(self):
        h = Species("H", HALF)
        # d = 155 at n = 12 and 675 at n = 3 are the first degrees refused.
        for n, d in ((2, 99999999999), (2, 10**6), (12, 155), (3, 675)):
            config = self.config(n, h)
            assert _geometric_cost(config, [(d,)], entry=True) > GEOMETRIC_COST_LIMIT
            with pytest.raises(CapacityError, match="geometric sum costs about"):
                multispecies_hurwitz_number(config, (d,), (n,), (n,))
            with pytest.raises(CapacityError, match="geometric sum costs about"):
                multispecies_hurwitz_matrix(config, (d,))

    @pytest.mark.parametrize("n, d", [(12, 13), (3, 40)])
    def test_admitted_by_the_walk_cost_and_equal_to_the_tau_entries(self, n, d):
        # Both were refused while the cost counted ordered profile tuples.
        config = self.config(n, Species("H", HALF))
        table = tau_coefficients(config, (d,))
        for (mu, nu), value in matrix_entries(multispecies_hurwitz_matrix(config, (d,)), n).items():
            assert value == table.entry((d,), mu, nu), (mu, nu)
        assert multispecies_hurwitz_number(config, (d,), (n,), (n,)) == table.entry((d,), (n,), (n,))

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

    @pytest.mark.parametrize("mu", [(2.9, 1), (2.0, 1.0), "21", (True, True, True)])
    def test_non_int_parts_are_refused(self, mu):
        # (2.9, 1) once gave the value of (2, 1).
        with pytest.raises(ValueError):
            quantum_hurwitz_number("H", HALF, 1, mu, (3,))

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


class TestMatrix:
    """One branch-weight pass per multidegree against the single entries."""

    def check(self, species, n, degree_list):
        config = WeightConfig(species=species, n=n)
        parts = enumerate_partitions(n)
        for degrees in degree_list:
            matrix = matrix_entries(multispecies_hurwitz_matrix(config, degrees), n)
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


class TestMatrices:
    """Every multidegree up to maxdeg at once, against one matrix and one number per multidegree."""

    @pytest.mark.parametrize("species, ns, maxdeg", [
        ((Species("E", HALF), Species("H", FIFTH)), range(1, 6), (3, 2)),
        ((Species("E'", THIRD),), range(1, 6), (4,)),
        ((Species("H", TruncatedSeries.variable("q", 4)), Species("E", HALF)), range(1, 6), (2, 1)),
        (tuple(Species(f, Fraction(1, b)) for f, b in zip("EEHHHE", (2, 3, 5, 7, 11, 13))), (2,), (2, 1, 2, 1, 1, 2)),
    ], ids=["two species", "one species", "series", "six species"])
    def test_equal_the_single_matrices(self, species, ns, maxdeg):
        for n in ns:
            config = WeightConfig(species=species, n=n)
            parts = character_table(n).partitions
            matrices = multispecies_hurwitz_matrices(config, maxdeg)
            assert list(matrices) == list(itertools.product(*(range(m + 1) for m in maxdeg)))
            for degrees, matrix in matrices.items():
                assert matrix == multispecies_hurwitz_matrix(config, degrees)
                for (i, mu), (j, nu) in itertools.product(enumerate(parts), repeat=2):
                    assert matrix[i][j] == multispecies_hurwitz_number(config, degrees, mu, nu), (n, degrees, mu, nu)

    def test_refused_by_the_summed_cost_before_any_work(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("eigenvalues formed for a refused request")

        monkeypatch.setattr(qhurwitz.geometric, "_species_eigenvalues", refuse)
        h = Species("H", HALF)
        config = WeightConfig(species=(h,), n=12)
        assert _geometric_cost(config, [(60,)]) <= GEOMETRIC_COST_LIMIT
        assert _geometric_cost(config, [range(61)]) > GEOMETRIC_COST_LIMIT
        for n, maxdeg in ((12, (60,)), (1, (10**7,)), (2, (10**12,))):
            with pytest.raises(CapacityError, match="geometric sum costs about"):
                multispecies_hurwitz_matrices(WeightConfig(species=(h,), n=n), maxdeg)

    def test_admitted_by_the_walk_cost_and_equal_to_the_tau_table(self):
        # n = 12, maxdeg 12 was refused while the cost counted ordered
        # profile tuples, summed over the multidegrees.
        config = WeightConfig(species=(Species("H", HALF),), n=12)
        table = tau_coefficients(config, (12,))
        matrices = multispecies_hurwitz_matrices(config, (12,))
        assert list(matrices) == [(d,) for d in range(13)]
        for degrees, matrix in matrices.items():
            for (mu, nu), value in matrix_entries(matrix, 12).items():
                assert value == table.entry(degrees, mu, nu), (degrees, mu, nu)


class TestCoveringSums:
    """The colength-class core against the ordered-tuple sum of reference_frobenius counts."""

    def check(self, species, n, degree_list):
        config = WeightConfig(species=species, n=n)
        parts = enumerate_partitions(n)
        for degrees in degree_list:
            matrix = matrix_entries(multispecies_hurwitz_matrix(config, degrees), n)
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
        matrix = matrix_entries(multispecies_hurwitz_matrix(config, (2, 1)), 4)
        assert multispecies_hurwitz_number(config, (2, 1), (2, 2), (4,)) == matrix[((2, 2), (4,))]


def test_two_species_value_meets_exhaustive_factorizations():
    """The multispecies value against covers counted by brute force in S_n.

    Every weight comes from symmetrized_weight and every covering count from
    enumerate_factorizations divided by n!, so no character sum is on the
    reference side.  Each configuration is counted once.
    """
    counts = {}

    def count(branch):
        if branch not in counts:
            counts[branch] = Fraction(enumerate_factorizations(branch), factorial(sum(branch.mu)))
        return counts[branch]

    species = (Species("E", HALF), Species("H", THIRD))
    for n in range(2, 6):
        config = WeightConfig(species=species, n=n)
        parts = enumerate_partitions(n)
        for degrees in itertools.product(range(3), repeat=2):
            for mu in parts:
                for nu in parts:
                    expected = reference_hurwitz_number(config, degrees, mu, nu, count=count)
                    assert multispecies_hurwitz_number(config, degrees, mu, nu) == expected, (n, degrees, mu, nu)


def colength_multisets(n, most):
    """Descending tuples of colengths 1..n-1 with sum at most most."""
    found = [()]
    for key in found:
        top = key[-1] if key else n - 1
        found.extend(key + (c,) for c in range(1, top + 1) if sum(key) + c <= most)
    return found


class TestPrefixSumWalk:
    """The prefix-sum walk against the colength-multiset sum it replaced."""

    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    @pytest.mark.parametrize("q", [HALF, Fraction(-1, 3), Fraction(2, 5), Fraction(-2, 5), Fraction(999, 1000),
                                   Fraction(0), TruncatedSeries.variable("q", 3)], ids=str)
    def test_walk_equals_the_multiset_sum(self, family, q):
        # In rational mode every numerator is an int over D_d, in series mode
        # a series; the walk takes no step on one sheet, whose values stay
        # over 1 and are the mode's zero at every positive degree.
        species = Species(family, q)
        rational = isinstance(q, Fraction)
        for n in range(1, 9):
            tbl = character_table(n)
            classes = _colength_characters(tbl)
            shapes = [k for k, _ in tbl.conjugate_pairs]
            walked = _species_eigenvalues(species, set(range(9)), classes, shapes)
            assert sorted(walked) == list(range(9))
            for d in range(9):
                reference = reference_species_eigenvalues(species, d, classes)
                expected = [reference[i] for i in shapes]
                numerators, denominator = walked[d]
                assert [v * Fraction(1, denominator) for v in numerators] == expected, (n, d)
                assert list(map(type, numerators)) == [int if rational else TruncatedSeries] * len(expected), (n, d)
                assert denominator == (level_denominator(q, d) if rational and n > 1 else 1), (n, d)
            assert _species_eigenvalues(species, {8}, classes, shapes) == {8: walked[8]}

    def test_conjugate_pairs_list_each_pair_once(self):
        for n in range(1, 13):
            tbl = character_table(n)
            pairs = {frozenset((lam, conjugate(lam))) for lam in tbl.partitions}
            assert {frozenset((tbl.partitions[k], tbl.partitions[c])) for k, c in tbl.conjugate_pairs} == pairs
            assert len(tbl.conjugate_pairs) == len(pairs)
            for k, c in tbl.conjugate_pairs:
                assert k <= c and tbl.partitions[c] == conjugate(tbl.partitions[k])
            config = WeightConfig((Species("H", HALF),), n)
            [(numerators, _, _)] = _eigenvalues(config, [(0,)])[2]
            assert len(numerators) == len(pairs)
        assert len(character_table(12).conjugate_pairs) == 40

    @pytest.mark.parametrize("family, q", [("E", HALF), ("E'", THIRD), ("H", FIFTH)])
    def test_conjugate_shape_takes_the_sign_of_the_degree(self, family, q):
        # The contents of lam' are those of lam negated, so E_lam'(c) is
        # (-1)^c E_lam(c) and G_lam'(t) = (-1)^t G_lam(t).
        for n in range(1, 9):
            tbl = character_table(n)
            classes = _colength_characters(tbl)
            for d in range(7):
                values = reference_species_eigenvalues(Species(family, q), d, classes)
                for lam, value in zip(tbl.partitions, values):
                    assert values[tbl.index(conjugate(lam))] == (-1) ** d * value

    def test_pipeline_makes_no_weight_call_and_walks_each_species_once(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("symmetrized_weight called on the pipeline path")

        walks = []

        def counting(species, degrees, classes, shapes):
            walks.append(species)
            return _species_eigenvalues(species, degrees, classes, shapes)

        monkeypatch.setattr(qhurwitz.qweights, "symmetrized_weight", refuse)
        monkeypatch.setattr(qhurwitz.geometric, "_species_eigenvalues", counting)
        assert not hasattr(qhurwitz.geometric, "symmetrized_weight")
        species = (Species("E", HALF), Species("H", FIFTH))
        for n in range(2, 6):
            config = WeightConfig(species=species, n=n)
            for request in (
                lambda: multispecies_hurwitz_number(config, (2, 1), (n,), (n,)),
                lambda: multispecies_hurwitz_matrix(config, (3, 2)),
                lambda: multispecies_hurwitz_matrices(config, (3, 3)),
                lambda: verify_triangle(config, (3, 3)),
            ):
                walks.clear()
                request()
                assert walks == list(species)

    def test_one_sheet_takes_no_step(self):
        tbl = character_table(1)
        values = _species_eigenvalues(Species("H", HALF), {0, 10**12}, _colength_characters(tbl), [0])
        assert values == {0: ([1], 1), 10**12: ([0], 1)}


class TestIntegerWalk:
    """The eigenvalue products as integers over known level denominators, and one Fraction per entry."""

    def test_eigenvalue_products_are_ints_also_at_degree_zero(self):
        # A degree 0 takes the walk's seed; a Fraction seed would turn every
        # product it enters into Fraction arithmetic.
        species = (Species("E", HALF), Species("H", Fraction(-1, 3)), Species("E'", Fraction(999, 1000)))
        config = WeightConfig(species, 5)
        tbl, keys, blocks = _eigenvalues(config, [range(3), (0, 2), range(2)])
        classes = _colength_characters(tbl)
        shapes = [k for k, _ in tbl.conjugate_pairs]
        assert keys == list(itertools.product(range(3), (0, 2), range(2)))
        for multidegree, (numerators, denominator, parity) in zip(keys, blocks):
            assert all(type(v) is int for v in numerators) and type(denominator) is int
            assert parity == sum(multidegree) % 2
            assert denominator == prod(level_denominator(s.parameter, d) for s, d in zip(species, multidegree))
            references = [reference_species_eigenvalues(s, d, classes) for s, d in zip(species, multidegree)]
            assert [Fraction(v, denominator) for v in numerators] == [
                prod(reference[i] for reference in references) for i in shapes
            ], multidegree

    def test_one_fraction_per_output_entry(self, monkeypatch):
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        config = WeightConfig((Species("E'", Fraction(999, 1000)), Species("H", HALF)), 6)
        tbl, _, blocks = _eigenvalues(config, [(3,), (2,)])
        size = len(tbl.partitions)
        pairs = [(i, j) for i in range(size) for j in range(i, size)]
        monkeypatch.setattr(qhurwitz.geometric, "Fraction", counting)
        [rows] = _character_sums(tbl, blocks, pairs)
        odd = [colength(mu) % 2 for mu in tbl.partitions]
        live = [(i, j) for i, j in pairs if (odd[i] + odd[j] + 5) % 2 == 0]
        # One Fraction per live entry, over its denominator, and the shared zero.
        assert len(made) == len(live) + 1 and made[0] == (0,)
        assert all(len(args) == 2 for args in made[1:])
        assert len(rows) == size and all(len(row) == size for row in rows)


def reference_character_sums(tbl, numerators, denominator, parity):
    """One _character_sums block's matrix, term by term over every shape, conjugates included.

    G(lam) is numerators[k] / denominator on the first shape lam of each
    conjugate pair k and (-1)^parity times that on its conjugate; each entry
    is the sum of G(lam) chi_lam(i) chi_lam(j) / (z_i z_j) in the values'
    own arithmetic.
    """
    g = [0] * len(tbl.partitions)
    for (k, c), value in zip(tbl.conjugate_pairs, numerators):
        g[k] = value
        if c != k:
            g[c] = (-1) ** parity * value
    z = tbl.centralizer_orders
    return tuple(
        tuple(
            sum((value * row[i] * row[j] for value, row in zip(g, tbl.values)), Fraction(0))
            * Fraction(1, denominator * z[i] * z[j])
            for j in range(len(z))
        )
        for i in range(len(z))
    )


class TestCharacterSums:
    """_character_sums over many blocks in one call against the per-block reference."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rational_and_series_blocks_in_one_call(self, n):
        tbl = character_table(n)
        q = TruncatedSeries.variable("q", 4)
        pairs = tbl.conjugate_pairs
        # An odd-degree block is 0 on a self-conjugate shape, whose
        # conjugate takes the opposite sign.
        odd = [0 if k == c else 1 for k, c in pairs]
        blocks = [
            ([Fraction(k + 1, 3) + (-1) ** k * q ** (k % 3 + 1) * Fraction(1, k + 2) for k in range(len(pairs))], 1, 0),
            ([m * (-1) ** k * (3**k + 1) for k, m in enumerate(odd)], 7**20, 1),
            ([m * (q**4 * Fraction(-(10**40), k + 1) + Fraction(1, 3**k)) for k, m in enumerate(odd)], 9, 1),
            ([TruncatedSeries("q", 4)] * len(pairs), 5, 0),
            ([2 * k - 3 for k in range(len(pairs))], 4, 0),
        ]
        references = [reference_character_sums(tbl, *block) for block in blocks]
        assert _character_sums(tbl, blocks) == references
        size = len(tbl.partitions)
        for i, j in [(0, 0), (0, size - 1), (size - 1, size // 2)]:
            rows = _character_sums(tbl, blocks, [(i, j)])
            assert [matrix[i][j] for matrix in rows] == [matrix[i][j] for matrix in references]
            assert [matrix[j][i] for matrix in rows] == [matrix[i][j] for matrix in references]


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
                vector = [prod(classes[c][i] for c in key) for i, _ in tbl.conjugate_pairs]
                [counts] = _character_sums(tbl, [(vector, 1, sum(key) % 2)], pairs)
                pools = [[p for p in parts if colength(p) == c] for c in key]
                for i, j in pairs:
                    total = sum(
                        enumerate_factorizations(BranchConfiguration(extra, parts[i], parts[j]))
                        for extra in itertools.product(*pools)
                    )
                    assert counts[i][j] == Fraction(total, factorial(n)), (key, i, j)

    @pytest.mark.parametrize("species, n, degrees", [
        ((Species("H", HALF),), 12, (12,)),
        ((Species("E", HALF), Species("H", FIFTH)), 10, (2, 2)),
    ])
    def test_matrix_equals_the_tau_block(self, species, n, degrees):
        config = WeightConfig(species=species, n=n)
        table = tau_coefficients(config, degrees)
        matrix = matrix_entries(multispecies_hurwitz_matrix(config, degrees), n)
        assert len(matrix) == len(character_table(n).partitions) ** 2
        for (mu, nu), value in matrix.items():
            assert value == table.entry(degrees, mu, nu), (mu, nu)
