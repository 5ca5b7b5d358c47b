"""Weight generating function coefficients and branch-point weights.

Four families of weight generating functions drive everything here, each an
infinite product in an expansion variable z with quantum deformation
parameter q (and p for the hybrid):

    E:  prod_{k>=0} (1 + q^k z)            coefficients E_i = q^(i(i-1)/2) / prod_{j<=i} (1-q^j)
    E': prod_{k>=1} (1 + q^k z)            coefficients E'_i = q^(i(i+1)/2) / prod_{j<=i} (1-q^j)
    H:  prod_{k>=0} (1 - q^k z)^(-1)       coefficients H_i = 1 / prod_{j<=i} (1-q^j)
    Q:  prod_{k>=0} (1 + q^k z)(1 - p^k z)^(-1)
        coefficients Q_i = sum_{m<=i} q^(m(m-1)/2) / (prod_{j<=m}(1-q^j) prod_{j<=i-m}(1-p^j))

The closed forms are pinned down by series-mode expansion of the products
(see the test suite); the displayed product bounds follow the closed forms.
All four are exponentials of the quantum dilogarithm
Li2(q, z) = sum_{k>=1} z^k / (k (1 - q^k)).

The symmetrized branch-point weight of an ordered list of colengths
(c_1, ..., c_k) averages over all orderings sigma:

    W_E  = (1/k!) sum_sigma prod_t q^((k-t) c_sigma(t)) / prod_s (1 - q^(P_s))
    W_E' = (1/k!) sum_sigma prod_t q^((k-t+1) c_sigma(t)) / prod_s (1 - q^(P_s))
    W_H  = (1/k!) sum_sigma 1 / prod_s (1 - q^(P_s))

with P_s = c_sigma(1) + ... + c_sigma(s) the running partial sums.  These are
the level sums of the corresponding products: strictly increasing levels from
0 for E, from 1 for E', weakly increasing levels from 0 for H.

Every summand is a product over the prefixes of the ordering of a factor
that depends only on the prefix sum P and on whether the prefix is the whole
list: the E exponent sum_t (k-t) c_sigma(t) is the sum of all prefix sums but
the last, the E' exponent the sum of all of them.  So the k!-term sum is a
dynamic program over the sub-multisets S of the colengths, one state per
prefix content instead of one term per ordering:

    A[{}] = 1,   A[S] = g(sum S, S is everything) * sum_v m_S(v) A[S - v],
    W = A[all] / k!

where m_S(v) counts the colength v in S (it counts the orderings of equal
colengths separately) and g(P, last) is 1/(1 - q^P), times q^P for E' always
and for E except at the last prefix: level_factor(family, q, P, last) gives
it as (numerator, denominator), for q = a/b the ints (a^P or b^P) and
b^P - a^P.
The states number prod_v (m_v + 1), so seven colengths 1 take 8 states
instead of 5040 orderings.  The geometric pipeline sums the same prefix
factors over every ordered colength tuple at once, one prefix sum at a time.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from math import factorial

from . import series
from .partitions import _is_int
from .scalars import RATIONAL, Immutable, reciprocal, sized_text

#: Weight generating function families usable as branch-point species.
FAMILIES = ("E", "E'", "H")

#: Families accepted by weight_coefficients (Q is the single-variable hybrid).
COEFFICIENT_FAMILIES = ("E", "E'", "H", "Q")


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", "a" or a decimal such as "1.5e-3" into an exact rational.

    An exponent past sys.get_int_max_str_digits(), the limit int() puts on
    the digits of a literal, raises ValueError before 10**exponent is built.
    So does an underscore, which Fraction takes as a digit separator from
    Python 3.11 on only: the grammar is the same on every version.
    """
    _, _, exponent = text.lower().partition("e")
    try:
        if "_" in text or (exponent and 0 < sys.get_int_max_str_digits() < abs(int(exponent))):
            raise ValueError("a digit separator, or an exponent past the int() digit limit")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational literal {text!r}") from exc


class Species(Immutable):
    """One weight-generating-function factor of a multispecies configuration.

    ``parameter`` is a Fraction in (-1, 1) in rational mode or a
    TruncatedSeries variable in series mode.  The expansion variable that
    grades this species' degree is the one of its 1-based position in
    WeightConfig.species.  ``label`` is keyword-only.
    """

    _fields = ("family", "parameter", "label")

    def __init__(self, family: str, parameter, *, label: str = "q"):
        if family not in FAMILIES:
            raise ValueError(f"unknown species family {family!r}")
        if isinstance(parameter, (int, Fraction)):
            parameter = Fraction(parameter)
            if not -1 < parameter < 1:
                text = sized_text(parameter, "a rational")
                raise ValueError(f"rational parameter must lie in (-1, 1): {text}")
        elif not isinstance(parameter, series.TruncatedSeries):
            raise ValueError("parameter must be a rational or a TruncatedSeries")
        self._set(family, parameter, label)

    def describe(self) -> str:
        return f"{self.family}:{self.label}={self.parameter}"

    @property
    def bits(self) -> int:
        """Bit length of the larger term of a rational parameter, 1 for a series.

        The exact weights up to degree d grow to about bits * d^2 bits, which
        the cost models of the pipelines bound.
        """
        q = self.parameter
        if isinstance(q, Fraction):
            return max(q.numerator.bit_length(), q.denominator.bit_length())
        return 1


class WeightConfig(Immutable):
    """Ordered list of species together with the symmetric-group degree n.

    ``species`` is a sequence of Species (one Species alone is refused) and
    ``n`` a positive int (a bool or any other number is refused).
    """

    _fields = ("species", "n")

    def __init__(self, species, n: int):
        if isinstance(species, Species):
            raise ValueError("species must be a sequence of Species, not one Species")
        species = tuple(species)
        if not species:
            raise ValueError("at least one species is required")
        if not _is_int(n):
            raise ValueError(f"n must be an int, got {n!r}")
        if n < 1:
            raise ValueError("n must be positive")
        self._set(species, n)

    def degrees(self, values) -> tuple[int, ...]:
        """values as one nonnegative int per species: a multidegree or a bound on one.

        Each value must be an int; a bool or any other number is refused, as
        for n.
        """
        degrees = tuple(values)
        if not all(map(_is_int, degrees)):
            raise ValueError(f"degrees must be ints, got {degrees!r}")
        if len(degrees) != len(self.species):
            raise ValueError("one degree per species is required")
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be nonnegative")
        return degrees


def multidegrees(maxdeg: tuple[int, ...]):
    """Every multidegree componentwise at most maxdeg, in lexicographic order."""
    return itertools.product(*(range(m + 1) for m in maxdeg))


def parse_species_flag(text: str) -> Species:
    """Parse a CLI species flag like "E:q=1/2" into a Species."""
    if ":" not in text:
        raise ValueError(f"species must look like FAMILY:name=value, got {text!r}")
    family, rest = text.split(":", 1)
    family = family.strip()
    if "=" not in rest:
        raise ValueError(f"species must look like FAMILY:name=value, got {text!r}")
    label, value = rest.split("=", 1)
    label = label.strip()
    if not label:
        raise ValueError(f"species parameter needs a name: {text!r}")
    return Species(family=family, parameter=parse_rational(value), label=label)


def weight_coefficients(family: str, params, maxdeg: int) -> list:
    """Coefficients of z^0, ..., z^maxdeg of the named weight generating function.

    ``params`` is a single scalar for families E, E', H (a tuple or list
    raises ValueError) and a (q, p) tuple or list for the hybrid Q (anything
    else raises ValueError).  maxdeg must be a nonnegative int (a bool or any
    other number raises ValueError).  The Euler product
    prod_{j<=i} (1 - q^j) grows by one factor per degree; Q is the product of
    the E series in q and the H series in p.  Works in both scalar modes; a
    vanishing rational denominator raises PoleError.
    """
    if family not in COEFFICIENT_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if not _is_int(maxdeg) or maxdeg < 0:
        raise ValueError(f"maxdeg must be a nonnegative int, got {maxdeg!r}")
    if family == "Q":
        if not isinstance(params, (tuple, list)) or len(params) != 2:
            raise ValueError(f"family Q takes a (q, p) pair, got {params!r}")
        q, p = params
        return series.poly_mul(weight_coefficients("E", q, maxdeg), weight_coefficients("H", p, maxdeg), maxdeg)
    if isinstance(params, (tuple, list)):
        raise ValueError(f"family {family} takes one parameter, got {params!r}")
    q = params
    euler = q**0
    coefficients = [reciprocal(euler)]
    for i in range(1, maxdeg + 1):
        euler = euler * (1 - q**i)
        coefficients.append(reciprocal(euler))
    if family == "E":
        return [q ** (i * (i - 1) // 2) * c for i, c in enumerate(coefficients)]
    if family == "E'":
        return [q ** (i * (i + 1) // 2) * c for i, c in enumerate(coefficients)]
    return coefficients


def weight_coefficient(family: str, params, i: int):
    """Coefficient of z^i of the named weight generating function (see weight_coefficients)."""
    return weight_coefficients(family, params, i)[i]


def level_factor(family: str, q, partial: int, last: bool) -> tuple:
    """(numerator, denominator): the factor of one prefix with sum partial >= 1 in a level weight.

    The factor is 1/(1 - q^partial), times q^partial for E' always and for E
    unless the prefix is the last (the whole list of colengths); H carries
    none.  For a rational q = a/b in lowest terms it is (a^partial or
    b^partial) / (b^partial - a^partial), two ints with the denominator
    positive since |a| < b; a series factor comes over the denominator 1.
    """
    shifted = family == "E'" or (family == "E" and not last)
    if isinstance(q, RATIONAL):
        a, b = q.numerator, q.denominator
        return (a if shifted else b) ** partial, b**partial - a**partial
    return (q**partial if shifted else 1) * reciprocal(1 - q**partial), 1


def symmetrized_weight(family: str, q, colengths) -> object:
    """Symmetrized weight of a collection of branch points with given colengths.

    Averages the ordered-level weight over all orderings of the list; the
    result is invariant under permutations of ``colengths``.  The empty list
    has weight 1.  Signs are not included here: the H-family geometric sum
    carries its (-1)^(k+d) prefactor.  Each colength must be a positive int;
    a str, a bool or any other number raises ValueError.

    Evaluated by the sub-multiset dynamic program of the module docstring:
    each summand depends on the ordering only through its prefix sums, so the
    sum over orderings is built up one prefix content at a time.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    colengths = (colengths,) if isinstance(colengths, str) else tuple(colengths)
    if not all(_is_int(c) and c > 0 for c in colengths):
        raise ValueError(f"colengths must be positive ints, got {colengths!r}")
    k = len(colengths)
    if k == 0:
        return q**0
    values = sorted(set(colengths))
    full = tuple(colengths.count(v) for v in values)
    # Lexicographic order lists S - v before S, so every state's
    # predecessors are filled in when it is reached.
    states = itertools.product(*(range(m + 1) for m in full))
    table = {next(states): q**0}
    for counts in states:
        inner = 0
        for i, m in enumerate(counts):
            if m:
                inner = inner + m * table[counts[:i] + (m - 1,) + counts[i + 1:]]
        partial = sum(m * v for m, v in zip(counts, values))
        numerator, denominator = level_factor(family, q, partial, counts == full)
        table[counts] = inner * numerator * reciprocal(denominator)
    return table[full] * Fraction(1, factorial(k))
