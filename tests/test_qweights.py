import itertools
import sys
import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from qhurwitz import (
    PoleError,
    Species,
    TruncatedSeries,
    WeightConfig,
    parse_rational,
    parse_species_flag,
    reciprocal,
    symmetrized_weight,
    weight_coefficient,
    weight_coefficients,
)
from qhurwitz.qweights import level_factor
from test_qseries import quantum_dilog_coeffs

HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)
FIFTH = Fraction(1, 5)


def reference_symmetrized_weight(family, q, colengths):
    """The k!-term sum over orderings, term by term, as the weights are defined."""
    k = len(colengths)
    if k == 0:
        return q**0
    total = 0
    for order in itertools.permutations(range(k)):
        partial = 0
        denominator = q**0
        numerator_exp = 0
        for s, idx in enumerate(order):
            c = colengths[idx]
            partial += c
            denominator = denominator * (1 - q**partial)
            if family == "E":
                numerator_exp += (k - 1 - s) * c
            elif family == "E'":
                numerator_exp += (k - s) * c
        total = total + q**numerator_exp * reciprocal(denominator)
    return total * Fraction(1, factorial(k))


def _euler_factor(q, m):
    """prod_{j=1}^{m} (1 - q^j), multiplied out from nothing."""
    acc = q**0
    for j in range(1, m + 1):
        acc = acc * (1 - q**j)
    return acc


def reference_weight_coefficient(family, params, i):
    """The closed form of one coefficient, each Euler product built on its own."""
    if family == "Q":
        q, p = params
        total = 0
        for m in range(i + 1):
            total = total + (
                q ** (m * (m - 1) // 2)
                * reciprocal(_euler_factor(q, m))
                * reciprocal(_euler_factor(p, i - m))
            )
        return total
    if family == "E":
        return params ** (i * (i - 1) // 2) * reciprocal(_euler_factor(params, i))
    if family == "E'":
        return params ** (i * (i + 1) // 2) * reciprocal(_euler_factor(params, i))
    return reciprocal(_euler_factor(params, i))


WEIGHT_PARAMETERS = (HALF, Fraction(-1, 3), Fraction(2, 5), Fraction(3, 4))


class TestWeightCoefficients:
    @pytest.mark.parametrize("q", WEIGHT_PARAMETERS)
    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    def test_matches_closed_forms(self, family, q):
        expected = [reference_weight_coefficient(family, q, i) for i in range(16)]
        assert weight_coefficients(family, q, 15) == expected

    @pytest.mark.parametrize("q", WEIGHT_PARAMETERS)
    def test_q_hybrid_matches_closed_forms(self, q):
        for p in WEIGHT_PARAMETERS:
            expected = [reference_weight_coefficient("Q", (q, p), i) for i in range(16)]
            assert weight_coefficients("Q", (q, p), 15) == expected

    def test_series_mode_matches_closed_forms(self):
        q = TruncatedSeries.variable("q", 8)
        for family in ("E", "E'", "H"):
            expected = [reference_weight_coefficient(family, q, i) for i in range(16)]
            assert weight_coefficients(family, q, 15) == expected
        variables = ("q", "p")
        pair = (TruncatedSeries.variable("q", 8, variables), TruncatedSeries.variable("p", 8, variables))
        expected = [reference_weight_coefficient("Q", pair, i) for i in range(16)]
        assert weight_coefficients("Q", pair, 15) == expected

    def test_validation(self):
        assert weight_coefficients("H", HALF, 0) == [1]
        with pytest.raises(ValueError, match="nonnegative"):
            weight_coefficients("H", HALF, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            weight_coefficient("H", HALF, -1)
        with pytest.raises(ValueError, match="unknown family"):
            weight_coefficients("X", HALF, 2)
        with pytest.raises(PoleError):
            weight_coefficients("E", Fraction(-1), 3)

    @pytest.mark.parametrize("family", ["E", "E'", "H", "Q"])
    def test_maxdeg_must_be_an_int(self, family):
        # True was taken as degree 1 and 2.0 raised TypeError inside range().
        params = (HALF, FIFTH) if family == "Q" else HALF
        for maxdeg in (True, False, 2.0, 1.5, "2", Fraction(2), None):
            with pytest.raises(ValueError, match="maxdeg must be a nonnegative int"):
                weight_coefficients(family, params, maxdeg)
            with pytest.raises(ValueError, match="maxdeg must be a nonnegative int"):
                weight_coefficient(family, params, maxdeg)

    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    def test_one_parameter_families_refuse_a_pair(self, family):
        for params in ((HALF, FIFTH), [HALF, FIFTH], (HALF,)):
            with pytest.raises(ValueError, match="takes one parameter"):
                weight_coefficients(family, params, 2)
            with pytest.raises(ValueError, match="takes one parameter"):
                weight_coefficient(family, params, 2)

    def test_hybrid_refuses_anything_but_a_pair(self):
        for params in (HALF, (HALF,), [HALF], (HALF, FIFTH, THIRD)):
            with pytest.raises(ValueError, match="takes a \\(q, p\\) pair"):
                weight_coefficients("Q", params, 2)
        assert weight_coefficients("Q", [HALF, FIFTH], 2) == weight_coefficients("Q", (HALF, FIFTH), 2)


class TestWeightCoefficient:
    def test_degree_zero_is_one(self):
        for family in ("E", "E'", "H"):
            assert weight_coefficient(family, HALF, 0) == 1
        assert weight_coefficient("Q", (HALF, FIFTH), 0) == 1

    def test_h_degree_one(self):
        for q in (HALF, THIRD, Fraction(-1, 3)):
            assert weight_coefficient("H", q, 1) == 1 / (1 - q)

    def test_e_closed_forms(self):
        q = HALF
        assert weight_coefficient("E", q, 1) == 2
        assert weight_coefficient("E", q, 2) == q / ((1 - q) * (1 - q**2))
        assert weight_coefficient("E'", q, 1) == q / (1 - q)
        assert weight_coefficient("E'", q, 2) == q**3 / ((1 - q) * (1 - q**2))

    def test_q_hybrid_degree_one(self):
        assert weight_coefficient("Q", (HALF, FIFTH), 1) == 1 / (1 - HALF) + 1 / (1 - FIFTH)

    def test_q_hybrid_is_convolution_of_e_and_h(self):
        for i in range(6):
            expected = sum(
                weight_coefficient("E", HALF, m) * weight_coefficient("H", FIFTH, i - m)
                for m in range(i + 1)
            )
            assert weight_coefficient("Q", (HALF, FIFTH), i) == expected

    def test_h_values_positive_for_small_q(self):
        for q in (HALF, THIRD, Fraction(1, 7)):
            for i in range(8):
                assert weight_coefficient("H", q, i) > 0

    def test_pole_error(self):
        with pytest.raises(PoleError):
            weight_coefficient("H", Fraction(1), 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            weight_coefficient("X", HALF, 1)


class TestQuantumDilog:
    def test_leading_coefficients(self):
        coeffs = quantum_dilog_coeffs(HALF, 3)
        assert coeffs[0] == 1 / (1 - HALF)
        assert coeffs[1] == Fraction(1, 2) / (1 - HALF**2)
        assert coeffs[2] == Fraction(1, 3) / (1 - HALF**3)

    def test_series_mode(self):
        q = TruncatedSeries.variable("q", 6)
        coeffs = quantum_dilog_coeffs(q, 2)
        assert coeffs[0] == (1 - q).inverse()

    def test_degree_must_be_an_int(self):
        # True would be taken as degree 1, and 2.0 would raise TypeError inside range().
        for degree in (True, False, 2.0, 1.5, "2", Fraction(2), None):
            with pytest.raises(ValueError, match="degree must be a positive int"):
                quantum_dilog_coeffs(HALF, degree)
        with pytest.raises(ValueError, match="degree must be a positive int"):
            quantum_dilog_coeffs(HALF, 0)


class TestSymmetrizedWeight:
    def test_empty_is_one(self):
        for family in ("E", "E'", "H"):
            assert symmetrized_weight(family, HALF, ()) == 1

    def test_single_colength(self):
        # Values fixed by the cross-pipeline equality: a single branch point
        # of colength c sums the levels of its product, giving 1/(1-q^c) for
        # E and H (levels from 0) and q^c/(1-q^c) for E' (levels from 1).
        for c in (1, 2, 3):
            assert symmetrized_weight("E", HALF, (c,)) == 1 / (1 - HALF**c)
            assert symmetrized_weight("H", HALF, (c,)) == 1 / (1 - HALF**c)
            assert symmetrized_weight("E'", HALF, (c,)) == HALF**c / (1 - HALF**c)

    def test_pairs_match_degree_two_coefficients(self):
        q = THIRD
        assert symmetrized_weight("E", q, (1, 1)) == weight_coefficient("E", q, 2)
        assert symmetrized_weight("H", q, (1, 1)) == weight_coefficient("H", q, 2)
        assert symmetrized_weight("E'", q, (1, 1)) == weight_coefficient("E'", q, 2)

    def test_mixed_pair_closed_form(self):
        q = HALF
        c1, c2 = 1, 2
        expected = (
            q**c1 / (1 - q**c1) + q**c2 / (1 - q**c2)
        ) / (2 * (1 - q ** (c1 + c2)))
        assert symmetrized_weight("E", q, (c1, c2)) == expected

    def test_eprime_is_e_times_q_to_the_total(self):
        q = THIRD
        for colengths in [(1,), (2,), (1, 1), (2, 1), (1, 1, 1), (3, 2, 1)]:
            total = sum(colengths)
            assert symmetrized_weight("E'", q, colengths) == q**total * symmetrized_weight(
                "E", q, colengths
            )

    def test_eprime_reciprocal_form(self):
        # Second printed shape of the same weight: the product of
        # 1/(q^(-P_s) - 1) over running partial sums, averaged over orderings.
        q = THIRD
        for colengths in [(1,), (2,), (1, 1), (2, 1), (3, 1), (1, 1, 1), (2, 2, 3)]:
            k = len(colengths)
            total = 0
            for order in itertools.permutations(colengths):
                partial = 0
                term = Fraction(1)
                for c in order:
                    partial += c
                    term *= reciprocal(q**-partial - 1)
                total += term
            assert symmetrized_weight("E'", q, colengths) == total / factorial(k)

    @given(
        st.lists(st.integers(1, 3), min_size=1, max_size=4),
        st.sampled_from(["E", "E'", "H"]),
    )
    def test_permutation_invariance(self, colengths, family):
        base = symmetrized_weight(family, HALF, tuple(colengths))
        for order in itertools.permutations(colengths):
            assert symmetrized_weight(family, HALF, order) == base

    def test_rejects_zero_colength(self):
        with pytest.raises(ValueError):
            symmetrized_weight("E", HALF, (0,))

    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    def test_colengths_must_be_ints(self, family):
        # int() used to read "12" as the colengths (1, 2), (1.7,) as (1,)
        # and (True,) as (1,).
        for colengths in ("12", "", (1.7,), (True,), (1, 2.0), (Fraction(1),), ("1",), (None,)):
            with pytest.raises(ValueError, match="colengths must be positive ints"):
                symmetrized_weight(family, HALF, colengths)
        assert symmetrized_weight(family, HALF, [1, 2]) == symmetrized_weight(family, HALF, (2, 1))
        assert symmetrized_weight(family, HALF, iter((1, 2))) == symmetrized_weight(family, HALF, (1, 2))

    @pytest.mark.parametrize("q", [HALF, Fraction(-1, 3), Fraction(2, 5)])
    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    def test_dynamic_program_matches_permutation_sum(self, family, q):
        for k in range(6):
            for colengths in itertools.combinations_with_replacement(range(1, 5), k):
                assert symmetrized_weight(family, q, colengths) == reference_symmetrized_weight(
                    family, q, colengths
                )

    def test_dynamic_program_matches_permutation_sum_in_series_mode(self):
        q = TruncatedSeries.variable("q", 6)
        for family in ("E", "E'", "H"):
            for k in range(5):
                for colengths in itertools.combinations_with_replacement(range(1, 4), k):
                    assert symmetrized_weight(
                        family, q, colengths
                    ) == reference_symmetrized_weight(family, q, colengths)

    def test_seven_equal_colengths(self):
        # 5040 orderings, 8 states; all-ones weights are the coefficients.
        for family in ("E", "E'", "H"):
            value = symmetrized_weight(family, HALF, (1,) * 7)
            assert value == reference_symmetrized_weight(family, HALF, (1,) * 7)
            assert value == weight_coefficient(family, HALF, 7)


class TestLevelFactor:
    """The one fraction-free form of a level factor: (numerator, denominator)."""

    @staticmethod
    def factor(family, q, partial, last):
        """The factor as one value: q^partial/(1 - q^partial) or 1/(1 - q^partial)."""
        shift = q**partial if family == "E'" or (family == "E" and not last) else 1
        return shift * reciprocal(1 - q**partial)

    @pytest.mark.parametrize("q", [HALF, Fraction(-1, 3), Fraction(2, 5), Fraction(999, 1000), Fraction(0)])
    @pytest.mark.parametrize("family", ["E", "E'", "H"])
    def test_integer_ratio_equals_the_rational_factor(self, family, q):
        a, b = q.numerator, q.denominator
        for partial in range(1, 31):
            for last in (False, True):
                numerator, denominator = level_factor(family, q, partial, last)
                assert type(numerator) is int and type(denominator) is int
                assert denominator == b**partial - a**partial > 0
                assert Fraction(numerator, denominator) == self.factor(family, q, partial, last)

    def test_series_factor_is_over_one(self):
        q = TruncatedSeries.variable("q", 8)
        for family in ("E", "E'", "H"):
            for partial in (1, 2, 5):
                for last in (False, True):
                    numerator, denominator = level_factor(family, q, partial, last)
                    assert denominator == 1 and isinstance(numerator, TruncatedSeries)
                    assert numerator == self.factor(family, q, partial, last)


class TestSpeciesParsing:
    def test_parse_rational(self):
        assert parse_rational("1/2") == HALF
        assert parse_rational("3") == 3
        with pytest.raises(ValueError):
            parse_rational("x")

    def test_exponent_past_the_int_digit_limit_is_refused_at_once(self):
        limit = sys.get_int_max_str_digits()
        assert parse_rational(f"1e-{limit}") == Fraction(1, 10**limit)
        assert parse_rational(" 25E-1 ") == Fraction(5, 2)
        for text in (f"1e-{limit + 1}", "1e-30000000", "1E30000000", "2.5e+30000000"):
            start = time.perf_counter()
            with pytest.raises(ValueError, match="invalid rational literal"):
                parse_rational(text)
            assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("text", ["1_0/31", "1/3_1", "0.1_5", "1e-1_0", "1_000"])
    def test_digit_separator_is_refused_on_every_version(self, text):
        with pytest.raises(ValueError, match="invalid rational literal"):
            parse_rational(text)

    def test_parse_species_flag(self):
        species = parse_species_flag("E:q=1/2")
        assert species.family == "E"
        assert species.parameter == HALF
        assert species.describe() == "E:q=1/2"

    def test_species_validation(self):
        with pytest.raises(ValueError):
            Species(family="E", parameter=Fraction(3, 2))
        with pytest.raises(ValueError):
            Species(family="X", parameter=HALF)

    def test_label_is_keyword_only(self):
        # A species' slot is its position in WeightConfig.species, so a
        # leftover positional slot argument is refused.
        for label in (1, "p"):
            with pytest.raises(TypeError):
                Species("H", FIFTH, label)
        assert Species("H", FIFTH, label="p").describe() == "H:p=1/5"


class TestWeightConfig:
    def test_n_must_be_an_int(self):
        # A float n used to be accepted and fail later inside range(); True
        # was accepted and kept as n=True; "3" raised TypeError.
        species = (Species("E", HALF),)
        for n in (2.0, True, False, "3", None, Fraction(2)):
            with pytest.raises(ValueError):
                WeightConfig(species, n)

    def test_degrees_must_be_ints(self):
        config = WeightConfig((Species("E", HALF),), 2)
        for value in (1.9, "2", True, 2.0, Fraction(2), None):
            with pytest.raises(ValueError, match="degrees must be ints"):
                config.degrees((value,))
        assert config.degrees([2]) == (2,)

    def test_one_species_is_not_a_sequence(self):
        with pytest.raises(ValueError):
            WeightConfig(Species("E", HALF), 2)

    def test_valid_arguments(self):
        species = [Species("E", HALF), Species("H", FIFTH, label="p")]
        config = WeightConfig(species, 3)
        assert config.species == tuple(species)
        assert config.n == 3
        for species, n in (((), 3), (species, 0), (species, -1)):
            with pytest.raises(ValueError):
                WeightConfig(species, n)
