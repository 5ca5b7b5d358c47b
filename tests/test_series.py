import sys
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from qhurwitz import TruncatedSeries, poly_mul
from qhurwitz.series import by_monomial
from qhurwitz.scalars import format_rational


def evaluate(series, assignments):
    """The value of a series at rational values for every variable, term by term."""
    values = [Fraction(assignments[v]) for v in series.vars]
    return sum(
        (c * prod(base**e for base, e in zip(values, expo)) for expo, c in series.coeffs.items()),
        Fraction(0),
    )


def random_series(cap=6, variables=("q",)):
    exponent = st.tuples(*(st.integers(0, cap) for _ in variables))
    coefficient = st.fractions(
        min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6
    )
    return st.dictionaries(exponent, coefficient, max_size=5).map(
        lambda coeffs: TruncatedSeries(variables, cap, coeffs)
    )


def poly_exp(a, maxdeg):
    """exp(a) for a coefficient list with zero constant term, the exponential of the dilogarithm identities.

    b = exp(a) satisfies b' = a' b, that is m b_m = sum_{k=1..m} k a_k b_{m-k},
    which gives each coefficient from the earlier ones.  That recurrence drops
    a constant term, so a nonzero one raises ValueError.
    """
    if a and a[0]:
        raise ValueError("exp requires a zero constant term")
    out = [1] + [0] * maxdeg
    for m in range(1, maxdeg + 1):
        total = sum((k * a[k] * out[m - k] for k in range(1, min(m, len(a) - 1) + 1)), 0)
        out[m] = total * Fraction(1, m)
    return out


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
        # poly_exp is an exponential: exp(s + t) = exp(s) exp(t).
        s = [0] + tail
        t = [c * Fraction(1, 3) for c in s]
        total = [a + b for a, b in zip(s, t)]
        assert poly_exp(total, 5) == poly_mul(poly_exp(s, 5), poly_exp(t, 5), 5)

    def test_evaluate(self):
        q = TruncatedSeries.variable("q", 4)
        s = (1 - q).inverse()
        value = evaluate(s, {"q": Fraction(1, 2)})
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


class Recording:
    """A stub kernel of by_monomial: linear in each block's values, recording the blocks it is given.

    Per block it returns, by form, the block's values over its denominator
    as a tuple of entries (the round trip), their sum as a 1-tuple (an
    entry), or the symmetric matrix of the pairwise sums; a block's extra
    fields scale its result by their product.
    """

    def __init__(self, form):
        self.form = form
        self.calls = []

    def __call__(self, blocks):
        self.calls.append(blocks)
        results = []
        for values, denominator, *extra in blocks:
            assert all(type(v) is int for v in values) and type(denominator) is int
            scale = prod(extra)
            row = tuple(Fraction(scale * v, denominator) for v in values)
            if self.form == "row":
                results.append(row)
            elif self.form == "entry":
                results.append((sum(row, Fraction(0)),))
            else:
                results.append(tuple(tuple(a + b for b in row) for a in row))
        return results


def expected_form(form, values, denominator, scale=1):
    """What by_monomial over Recording(form) returns for a block, as series and Fraction arithmetic give it."""
    row = tuple(v * Fraction(scale, denominator) for v in values)
    if form == "row":
        return row
    if form == "entry":
        return (sum(row, Fraction(0)),)
    return tuple(tuple(a + b for b in row) for a in row)


def series_types(result):
    """Whether every value of a result (a tuple of entries or of rows) is a TruncatedSeries."""
    if isinstance(result, tuple):
        return all(map(series_types, result))
    return isinstance(result, TruncatedSeries)


class TestByMonomial:
    """series.by_monomial: one int block per monomial through one kernel run, joined back into series."""

    q = TruncatedSeries.variable("q", 4, ("q", "p"))
    p = TruncatedSeries.variable("p", 4, ("q", "p"))

    @pytest.mark.parametrize("form", ["row", "entry", "matrix"])
    def test_split_and_join_round_trip(self, form):
        q, p = self.q, self.p
        blocks = [
            ([q * Fraction(1, 2) + Fraction(1, 3), q * Fraction(1, 3)], 5),
            ([q * p * Fraction(-7, 4) + q**3, p**2 * Fraction(10**30, 3), 1 + q], 2),
        ]
        kernel = Recording(form)
        results = by_monomial(kernel, blocks)
        assert len(kernel.calls) == 1
        assert results == [expected_form(form, values, d) for values, d in blocks]
        assert all(map(series_types, results))
        # The first block's monomials 1 and q, each over its lcm denominator.
        assert kernel.calls[0][:2] == [([1, 0], 15), ([3, 2], 30)]
        assert len(kernel.calls[0]) == 2 + 5

    def test_matrix_halves_are_mirrored(self):
        q = self.q
        blocks = [([q + 1, q**2 * 3, Fraction(1, 2)], 1)]
        [matrix] = by_monomial(Recording("matrix"), blocks)
        assert all(matrix[i][j] is matrix[j][i] for i in range(3) for j in range(3))

    @pytest.mark.parametrize("form", ["row", "entry", "matrix"])
    def test_all_zero_block(self, form):
        q = self.q
        zero = TruncatedSeries(q.vars, q.cap)
        blocks = [([q, 2 * q], 3), ([0, zero], 7), ([zero, Fraction(0)], 1)]
        kernel = Recording(form)
        results = by_monomial(kernel, blocks)
        # Each zero block still reaches the kernel once, as its constant monomial.
        assert kernel.calls[0][2:] == [([0, 0], 7), ([0, 0], 1)]
        assert results[1:] == [expected_form(form, [zero, zero], 1)] * 2
        assert all(map(series_types, results))

    @pytest.mark.parametrize("form", ["row", "entry", "matrix"])
    def test_rational_and_series_blocks_in_one_call(self, form):
        q, p = self.q, self.p
        blocks = [
            ([Fraction(2, 3), 5, 0], 4),
            ([q * Fraction(1, 6), p, Fraction(1, 5)], 1),
            ([Fraction(-(10**40), 3), 1, Fraction(1, 7)], 9),
        ]
        results = by_monomial(Recording(form), blocks)
        assert results == [expected_form(form, values, d) for values, d in blocks]
        # Every value of the call is read as a series: rational blocks give series too.
        assert all(map(series_types, results))

    def test_extra_block_fields_pass_through(self):
        q = self.q
        blocks = [([q + Fraction(1, 2), q**2], 3, 2, 5), ([Fraction(1, 4), 0], 1, -1, 1)]
        kernel = Recording("row")
        results = by_monomial(kernel, blocks)
        assert [extra for _, _, *extra in kernel.calls[0]] == [[2, 5]] * 3 + [[-1, 1]]
        assert results == [expected_form("row", values, d, prod(extra)) for values, d, *extra in blocks]

    def test_empty_tuples_of_entries(self):
        assert by_monomial(lambda blocks: [()] * len(blocks), [([self.q], 1)]) == [()]

    def test_mixed_variables_or_caps_are_refused(self):
        other = TruncatedSeries.variable("q", 3)
        with pytest.raises(ValueError, match="cannot mix"):
            by_monomial(Recording("row"), [([self.q], 1), ([other], 1)])


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
