"""Series-mode identities pinning down the closed-form coefficients.

The oracles here expand the three weight generating products, and the
two-parameter product E(q) H(p) on its diagonal, directly by
polynomial multiplication in the expansion variable z, with coefficients in a
truncated power series ring over the deformation parameters, and compare
against the closed forms.  The exponential identities run the quantum
dilogarithm through the same machinery.
"""

from fractions import Fraction

from qhurwitz import TruncatedSeries, reciprocal, weight_coefficient
from test_series import poly_exp, poly_mul

CAP = 12
ZDEG = 8


def q_variable(cap=CAP):
    return TruncatedSeries.variable("q", cap)


def geometric_factor(base, zdeg):
    """(1 - base*z)^(-1) as a coefficient list in z."""
    return [base**j for j in range(zdeg + 1)]


def expand_product(family, cap=CAP, zdeg=ZDEG):
    """z-coefficients of the truncated weight generating product."""
    q = q_variable(cap)
    start = 1 if family == "E'" else 0
    coeffs = [1] + [0] * zdeg
    for k in range(start, cap + 1):
        factor = [1, q**k] if family in ("E", "E'") else geometric_factor(q**k, zdeg)
        coeffs = poly_mul(coeffs, factor, zdeg)
    return coeffs


def closed_form(family, i, cap=CAP):
    return weight_coefficient(family, q_variable(cap), i)


def two_variables(cap=CAP):
    """q and p, the parameters of E(q) H(p), as the variables of one series ring."""
    return tuple(TruncatedSeries.variable(name, cap, ("q", "p")) for name in ("q", "p"))


def diagonal_closed_form(i, cap=CAP):
    """Coefficient of z^i of E(q; z) H(p; z), the two-species weight E(q) H(p) on its diagonal."""
    q, p = two_variables(cap)
    return sum(weight_coefficient("E", q, m) * weight_coefficient("H", p, i - m) for m in range(i + 1))


class TestProductExpansions:
    def test_e_family(self):
        expanded = expand_product("E")
        for i in range(ZDEG + 1):
            assert expanded[i] == closed_form("E", i), f"coefficient {i}"

    def test_eprime_family(self):
        expanded = expand_product("E'")
        for i in range(ZDEG + 1):
            assert expanded[i] == closed_form("E'", i), f"coefficient {i}"

    def test_h_family(self):
        expanded = expand_product("H")
        for i in range(ZDEG + 1):
            assert expanded[i] == closed_form("H", i), f"coefficient {i}"

    def test_e_times_h_in_two_variables(self):
        q, p = two_variables()
        expanded = [1] + [0] * ZDEG
        for k in range(CAP + 1):
            expanded = poly_mul(expanded, [1, q**k], ZDEG)
            expanded = poly_mul(expanded, geometric_factor(p**k, ZDEG), ZDEG)
        for i in range(ZDEG + 1):
            assert expanded[i] == diagonal_closed_form(i), f"coefficient {i}"


def quantum_dilog_coeffs(q, degree):
    """Coefficients of z^k, k = 1..degree, of Li2(q, z) = sum z^k / (k (1 - q^k)), in either scalar mode.

    degree must be a positive int; a bool or any other number raises ValueError.
    """
    if not isinstance(degree, int) or isinstance(degree, bool) or degree < 1:
        raise ValueError(f"degree must be a positive int, got {degree!r}")
    return tuple(Fraction(1, k) * reciprocal(1 - q**k) for k in range(1, degree + 1))


def dilog_poly(parameter, zdeg, sign=1):
    """Li2(parameter, sign*z) as a z-coefficient list with zero constant term."""
    coeffs = quantum_dilog_coeffs(parameter, zdeg)
    return [0] + [c * Fraction(sign) ** k for k, c in enumerate(coeffs, start=1)]


class TestDilogExponentials:
    def test_e_is_exp_of_minus_dilog_at_minus_z(self):
        q = q_variable()
        exp_side = poly_exp([-c for c in dilog_poly(q, ZDEG, sign=-1)], ZDEG)
        for i in range(ZDEG + 1):
            assert exp_side[i] == closed_form("E", i)

    def test_h_is_exp_of_dilog(self):
        q = q_variable()
        exp_side = poly_exp(dilog_poly(q, ZDEG), ZDEG)
        for i in range(ZDEG + 1):
            assert exp_side[i] == closed_form("H", i)

    def test_eprime_divides_out_one_plus_z(self):
        q = q_variable()
        exp_side = poly_exp([-c for c in dilog_poly(q, ZDEG, sign=-1)], ZDEG)
        alternating = [Fraction(-1) ** j for j in range(ZDEG + 1)]  # 1/(1+z)
        exp_side = poly_mul(alternating, exp_side, ZDEG)
        for i in range(ZDEG + 1):
            assert exp_side[i] == closed_form("E'", i)

    def test_e_times_h_combines_both_dilogs(self):
        q, p = two_variables()
        exponent = [a - b for a, b in zip(dilog_poly(p, ZDEG), dilog_poly(q, ZDEG, sign=-1))]
        exp_side = poly_exp(exponent, ZDEG)
        for i in range(ZDEG + 1):
            assert exp_side[i] == diagonal_closed_form(i)
