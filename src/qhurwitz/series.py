"""Exact scalar layer: rationals and truncated formal power series.

Every weight and Hurwitz number in the package lives in one of two exact
representations:

* rational mode: ``fractions.Fraction`` with the deformation parameters fixed
  to rationals in (-1, 1), so every infinite product collapses to a closed
  form;
* series mode: :class:`TruncatedSeries`, a formal power series in named
  deformation parameters with rational coefficients, truncated at a global
  total degree cap.  Series mode exists because infinite q-products have no
  exact rational value; it is what the identity oracles run in.

The two modes are chosen per computation context and never mixed: series over
different variable tuples or caps refuse to combine.  Plain ints and
Fractions coerce into either mode as constants.

The character-sum kernels of both legs (spectral.spectral_sum and the
geometric leg's _character_sums) have rational cores only.  A call that
holds series goes through :func:`by_monomial`, the one place series mode
meets them: it splits each block into one int block per monomial, runs the
kernel once over all of them and joins the results back into series.

Rational mode needs none of this module: the rational text, the
reciprocal of either mode and the value-type base are in ``scalars``, so a
rational request never runs series mode.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class TruncatedSeries:
    """Multivariate power series with Fraction coefficients, truncated by total degree.

    Arithmetic silently discards monomials whose total degree exceeds ``cap``.
    Instances are immutable in use; all operations return new series.
    """

    __slots__ = ("vars", "cap", "coeffs")

    def __init__(self, variables, cap: int, coeffs=None):
        self.vars = tuple(variables)
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.cap = int(cap)
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, value in (coeffs or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != len(self.vars):
                raise ValueError("exponent arity does not match variables")
            if any(e < 0 for e in expo):
                raise ValueError("exponents must be nonnegative")
            value = Fraction(value)
            if value and sum(expo) <= self.cap:
                clean[expo] = value
        self.coeffs = clean

    @classmethod
    def one(cls, variables, cap: int) -> "TruncatedSeries":
        variables = tuple(variables)
        return cls(variables, cap, {(0,) * len(variables): 1})

    @classmethod
    def constant(cls, value, variables, cap: int) -> "TruncatedSeries":
        variables = tuple(variables)
        return cls(variables, cap, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, name: str, cap: int, variables=None) -> "TruncatedSeries":
        variables = (name,) if variables is None else tuple(variables)
        if name not in variables:
            raise ValueError(f"{name!r} is not among {variables}")
        expo = tuple(1 if v == name else 0 for v in variables)
        return cls(variables, cap, {expo: 1})

    def _coerce(self, other):
        if isinstance(other, TruncatedSeries):
            if self.vars != other.vars or self.cap != other.cap:
                raise ValueError("cannot mix series with different variables or caps")
            return other
        if isinstance(other, (int, Fraction)):
            return TruncatedSeries.constant(other, self.vars, self.cap)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self.coeffs)
        for expo, c in other.coeffs.items():
            merged[expo] = merged.get(expo, Fraction(0)) + c
        return TruncatedSeries(self.vars, self.cap, merged)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries(self.vars, self.cap, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, ...], Fraction] = {}
        cap = self.cap
        for e1, c1 in self.coeffs.items():
            d1 = sum(e1)
            for e2, c2 in other.coeffs.items():
                if d1 + sum(e2) > cap:
                    continue
                expo = tuple(a + b for a, b in zip(e1, e2))
                out[expo] = out.get(expo, Fraction(0)) + c1 * c2
        return TruncatedSeries(self.vars, self.cap, out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("series powers must be nonnegative integers")
        result = TruncatedSeries.one(self.vars, self.cap)
        for _ in range(exponent):
            result = result * self
            if not result.coeffs:
                break
        return result

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def constant_term(self) -> Fraction:
        return self.coeffs.get((0,) * len(self.vars), Fraction(0))

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse, defined when the constant term is nonzero."""
        c0 = self.constant_term()
        if c0 == 0:
            raise ValueError("series with zero constant term has no inverse")
        # 1/(c0 (1 + t)) = (1/c0) sum (-t)^m with t of positive degree.
        t = (self - c0) * (Fraction(1) / c0)
        acc = TruncatedSeries.one(self.vars, self.cap)
        power = acc
        for _ in range(self.cap):
            power = power * (-t)
            if not power.coeffs:
                break
            acc = acc + power
        return acc * (Fraction(1) / c0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, TruncatedSeries):
            return self.vars == other.vars and self.cap == other.cap and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == TruncatedSeries.constant(other, self.vars, self.cap)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        if not self.coeffs:
            return "TruncatedSeries(0)"
        terms = []
        for expo in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            monomial = "*".join(
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, expo) if e
            )
            c = self.coeffs[expo]
            terms.append(f"{c}*{monomial}" if monomial else str(c))
        return "TruncatedSeries(" + " + ".join(terms) + ")"


def poly_mul(a: list, b: list, maxdeg: int) -> list:
    """Product of coefficient lists, truncated at degree maxdeg."""
    out = [0] * (maxdeg + 1)
    for i, ca in enumerate(a[: maxdeg + 1]):
        if not ca:
            continue
        for j, cb in enumerate(b[: maxdeg + 1 - i]):
            if not cb:
                continue
            out[i + j] = out[i + j] + ca * cb
    return out


def by_monomial(kernel, blocks) -> list:
    """kernel's results for blocks of series, from one run of kernel over one int block per monomial.

    blocks are (values, denominator, *extra) tuples of the kind kernel
    takes, holding at least one TruncatedSeries; every value is read as a
    series of that one's variables and cap (an int or Fraction as a
    constant).  Per block and monomial, the monomial's coefficients go over
    their lcm L as int numerators, in the block (numerators, L *
    denominator, *extra); the constant monomial always has a block, so an
    all-zero block has one too.  kernel(blocks) runs once over all of them
    and returns one result per block, a tuple of entries (a row, or one
    entry) or a symmetric matrix as a tuple of rows, which _joined turns
    into one series per entry.
    """
    # The zero series of the call's variables and cap.
    zero = 0 * next(v for values, *_ in blocks for v in values if isinstance(v, TruncatedSeries))
    split, monomials = [], []
    for values, denominator, *extra in blocks:
        columns = {(0,) * len(zero.vars): [0] * len(values)}
        for k, value in enumerate(values):
            for expo, c in zero._coerce(value).coeffs.items():
                columns.setdefault(expo, [0] * len(values))[k] = c
        monomials.append(list(columns))
        for column in columns.values():
            scale = lcm(*(c.denominator for c in column))
            split.append(([c.numerator * (scale // c.denominator) for c in column], scale * denominator, *extra))
    results = iter(kernel(split))
    return [_joined(zero, expos, [next(results) for _ in expos]) for expos in monomials]


def _joined(zero, expos, parts) -> tuple:
    """One block's kernel results, one per monomial of expos, as one series per entry.

    parts are tuples of entries or symmetric matrices; a matrix's entries
    j >= i are joined and mirrored to (j, i).  Entries that are 0 in every
    part share the one zero series.
    """
    def join(values):
        return TruncatedSeries(zero.vars, zero.cap, dict(zip(expos, values))) if any(values) else zero

    if not (parts[0] and isinstance(parts[0][0], tuple)):
        return tuple(map(join, zip(*parts)))
    size = range(len(parts[0]))
    half = {(i, j): join([part[i][j] for part in parts]) for i in size for j in size[i:]}
    return tuple(tuple(half[min(i, j), max(i, j)] for j in size) for i in size)
