"""Series-mode identities pinning down the closed-form coefficients.

The oracles here expand the four weight generating products directly by
polynomial multiplication in the expansion variable z, with coefficients in a
truncated power series ring over the deformation parameters, and compare
against the closed forms.  The exponential identities run the quantum
dilogarithm through the same machinery.
"""

from fractions import Fraction

from qhurwitz import TruncatedSeries, poly_mul, reciprocal, weight_coefficient
from test_series import poly_exp

CAP = 12
ZDEG = 8


def q_variable(cap=CAP):
    return TruncatedSeries.variable("q", cap)


def geometric_factor(base, zdeg):
    """(1 - base*z)^(-1) as a coefficient list in z."""
    return [base**j for j in range(zdeg + 1)]


def expand_product(family, cap=CAP, zdeg=ZDEG):
    """z-coefficients of the truncated weight generating product."""
    if family == "Q":
        variables = ("q", "p")
        q = TruncatedSeries.variable("q", cap, variables)
        p = TruncatedSeries.variable("p", cap, variables)
        coeffs = [1] + [0] * zdeg
        for k in range(cap + 1):
            coeffs = poly_mul(coeffs, [1, q**k], zdeg)
            coeffs = poly_mul(coeffs, geometric_factor(p**k, zdeg), zdeg)
        return coeffs
    q = q_variable(cap)
    start = 1 if family == "E'" else 0
    coeffs = [1] + [0] * zdeg
    for k in range(start, cap + 1):
        factor = [1, q**k] if family in ("E", "E'") else geometric_factor(q**k, zdeg)
        coeffs = poly_mul(coeffs, factor, zdeg)
    return coeffs


def closed_form(family, i, cap=CAP):
    if family == "Q":
        variables = ("q", "p")
        q = TruncatedSeries.variable("q", cap, variables)
        p = TruncatedSeries.variable("p", cap, variables)
        return weight_coefficient("Q", (q, p), i)
    return weight_coefficient(family, q_variable(cap), i)


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

    def test_q_hybrid(self):
        expanded = expand_product("Q")
        for i in range(ZDEG + 1):
            assert expanded[i] == closed_form("Q", i), f"coefficient {i}"


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

    def test_q_combines_both_dilogs(self):
        variables = ("q", "p")
        q = TruncatedSeries.variable("q", CAP, variables)
        p = TruncatedSeries.variable("p", CAP, variables)
        exponent = [
            a - b
            for a, b in zip(dilog_poly(p, ZDEG), dilog_poly(q, ZDEG, sign=-1))
        ]
        exp_side = poly_exp(exponent, ZDEG)
        for i in range(ZDEG + 1):
            assert exp_side[i] == closed_form("Q", i)
