import sys
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from qhurwitz import TruncatedSeries, poly_exp, poly_mul
from qhurwitz.series import format_rational


def random_series(cap=6, variables=("q",)):
    exponent = st.tuples(*(st.integers(0, cap) for _ in variables))
    coefficient = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    )
    return st.dictionaries(exponent, coefficient, max_size=5).map(
        lambda coeffs: TruncatedSeries(variables, cap, coeffs)
    )


def reference_poly_exp(a, maxdeg):
    """exp(a) as the sum of a^m / m! over the powers of a, one poly_mul each."""
    acc = [1] + [0] * maxdeg
    power = acc
    for m in range(1, maxdeg + 1):
        power = poly_mul(power, a, maxdeg)
        acc = [x + y * Fraction(1, factorial(m)) for x, y in zip(acc, power)]
    return acc


class TestArithmetic:
    def test_constants_coerce(self):
        q = TruncatedSeries.variable("q", 4)
        assert (1 + q) - q == 1
        assert 2 * q == q + q
        assert (q * Fraction(1, 2)) * 2 == q

    def test_truncation_drops_high_degree(self):
        q = TruncatedSeries.variable("q", 3)
        assert q**4 == 0
        assert (q**2) * (q**2) == 0

    def test_mixing_caps_is_an_error(self):
        a = TruncatedSeries.variable("q", 3)
        b = TruncatedSeries.variable("q", 4)
        with pytest.raises(ValueError):
            a + b

    def test_mixing_variables_is_an_error(self):
        a = TruncatedSeries.variable("q", 3)
        b = TruncatedSeries.variable("p", 3)
        with pytest.raises(ValueError):
            a * b

    @given(random_series(), random_series(), random_series())
    def test_distributivity(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(random_series(), random_series())
    def test_commutativity(self, a, b):
        assert a * b == b * a
        assert a + b == b + a


class TestInverseAndExp:
    @given(random_series())
    def test_inverse_multiplies_to_one(self, s):
        s = s + 1 - s.constant_term()  # force constant term 1
        assert s * s.inverse() == 1

    def test_inverse_needs_unit(self):
        q = TruncatedSeries.variable("q", 4)
        with pytest.raises(ValueError):
            q.inverse()

    def test_geometric_series(self):
        q = TruncatedSeries.variable("q", 5)
        expected = TruncatedSeries("q", 5, {(k,): 1 for k in range(6)})
        assert (1 - q).inverse() == expected

    def test_exp_needs_zero_constant(self):
        with pytest.raises(ValueError, match="zero constant term"):
            poly_exp([1, 1], 4)

    @settings(max_examples=40)
    @given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), max_size=6))
    def test_exp_of_sum(self, tail):
        # poly_exp is the package's one exponential: exp(s + t) = exp(s) exp(t).
        s = [0] + tail
        t = [c * Fraction(1, 3) for c in s]
        total = [a + b for a, b in zip(s, t)]
        assert poly_exp(total, 5) == poly_mul(poly_exp(s, 5), poly_exp(t, 5), 5)

    def test_evaluate(self):
        q = TruncatedSeries.variable("q", 4)
        s = (1 - q).inverse()
        value = s.evaluate({"q": Fraction(1, 2)})
        assert value == sum(Fraction(1, 2) ** k for k in range(5))


class TestPolyHelpers:
    def test_poly_mul_truncates(self):
        assert poly_mul([1, 1], [1, 1], 1) == [1, 2]

    def test_poly_exp_matches_series(self):
        coeffs = poly_exp([0, 1], 5)
        assert coeffs == [Fraction(1, factorial(k)) for k in range(6)]

    @settings(max_examples=40)
    @given(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=7), max_size=9),
        st.integers(0, 8),
    )
    def test_poly_exp_equals_power_sum(self, tail, maxdeg):
        exponent = [0] + tail
        assert poly_exp(exponent, maxdeg) == reference_poly_exp(exponent, maxdeg)

    def test_poly_helpers_accept_series_coefficients(self):
        q = TruncatedSeries.variable("q", 4)
        product = poly_mul([1, q], [1, -q], 2)
        assert product == [1, 0, -(q * q)]


class TestFormatRational:
    def test_small_values(self):
        assert format_rational(3) == "3/1"
        assert format_rational(0) == "0/1"
        assert format_rational(Fraction(-6, 8)) == "-3/4"

    def test_past_the_digit_limit_without_touching_it(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the process-wide digit limit was changed")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        # 5,000-digit parts, coprime: 2 (10^4999 + 7) - (2 10^4999 + 1) = 13,
        # which does not divide 10^4999 + 7.
        numerator = -(10**4999 + 7)
        denominator = 2 * 10**4999 + 1
        assert format_rational(Fraction(numerator, denominator)) == (
            "-1" + "0" * 4998 + "7/2" + "0" * 4998 + "1"
        )
        assert format_rational(10**4999) == "1" + "0" * 4999 + "/1"
