"""Scalar helpers of both modes that need no series: value types, rational and sized text, reciprocals.

Rational mode, which is every CLI request, reads these and never runs
``series``: a rational is an int or a Fraction, and anything else is a
series-mode scalar, which brings its own ``inverse``.

Immutable is the base of the package's value types: a frozen dataclass's
equality, hash and repr without importing dataclasses, which would load
inspect into every process.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

from .errors import PoleError

#: The scalar types of rational mode; every other scalar is a TruncatedSeries.
RATIONAL = (int, Fraction)


class Immutable:
    """Base of the package's value types: equality, hash and repr over ``_fields``.

    A subclass names its fields in order and sets them once in ``__init__``
    through ``_set``; afterwards setting or deleting any attribute raises
    AttributeError.  ``==`` compares the fields of two instances of the same
    class and returns NotImplemented otherwise; the hash is that of the
    field tuple, and the repr is ``Name(field=value!r, ...)``, as a frozen
    dataclass has them.  Instances keep a plain ``__dict__``, which pickle
    and copy restore directly.
    """

    _fields: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def ratio_text(numerator: int, denominator: int) -> str:
    """Exact "numerator/denominator" text of two ints, at any size; the caller reduces them.

    Python's int_max_str_digits limit guards int() on outside text.  A term
    past it prints through decimal.Decimal, which converts an int exactly
    without that limit, so the process-wide limit is never touched.
    """
    try:
        return "%d/%d" % (numerator, denominator)
    except ValueError:
        return "%s/%s" % (Decimal(numerator), Decimal(denominator))


def format_rational(value) -> str:
    """Exact "numerator/denominator" text of an int or Fraction, in lowest terms, at any size (ratio_text)."""
    return ratio_text(*value.as_integer_ratio())


def sized_text(value, noun: str) -> str:
    """str of an int or Fraction whose terms fit in 1000 bits, else "<noun> of <bits> bits".

    Messages that name a value grown from outside input use it.  1000 bits
    is about 300 digits, under sys.get_int_max_str_digits() (640 at the
    lowest), past which str raises ValueError; bits is the bit length of
    the larger term.
    """
    bits = max(map(int.bit_length, value.as_integer_ratio()))
    return str(value) if bits <= 1000 else f"{noun} of {bits} bits"


def reciprocal(x):
    """1/x for either scalar mode; a vanishing rational denominator is a pole.

    A series takes its own inverse; any other scalar is read as a Fraction.
    """
    if hasattr(x, "inverse"):
        return x.inverse()
    x = Fraction(x)
    if x == 0:
        raise PoleError("denominator vanishes for this parameter value")
    return Fraction(1) / x
