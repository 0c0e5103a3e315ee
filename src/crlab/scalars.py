"""Exact Gaussian-rational scalars.

A :class:`GaussianRational` is a complex number ``(a + b*i) / d`` with
arbitrary-precision integers ``a``, ``b`` and ``d``.  It is the coefficient
field for everything in this package; no floating point appears anywhere.
The triple is kept reduced: ``d > 0`` and ``gcd(a, b, d) == 1``, with zero
stored as ``(0, 0, 1)``.  Every value therefore has exactly one triple, so
equality compares integers; a real value hashes like the ``int`` or
``Fraction`` it equals.  Each operation does a few integer multiplies and
at most one three-argument gcd; the parts ``re`` and ``im`` are handed out
as reduced ``fractions.Fraction`` values on demand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Union

ScalarLike = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if re.__class__ is int and im.__class__ is int:
            self._a, self._b, self._d = re, im, 1
            return
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"Gaussian rational parts must be int or Fraction, not {re!r}, {im!r}")
        rd, id_ = re.denominator, im.denominator
        # The lcm of two reduced denominators leaves the triple reduced.
        d = rd if rd == id_ else rd * (id_ // gcd(rd, id_))
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    @staticmethod
    def coerce(value: ScalarLike) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    # -- parts -------------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- predicates -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_real(self) -> bool:
        return not self._b

    def real_sign(self) -> int:
        """Sign of a real value: -1, 0 or +1.  Raises if the value is not real."""
        if self._b:
            raise ValueError(f"{self} is not real")
        return (self._a > 0) - (self._a < 0)

    # -- arithmetic ------------------------------------------------------
    #
    # The other operand is a GaussianRational, int or Fraction, read with
    # this one as six integers by _operands; anything else gives
    # NotImplemented.

    def __add__(self, other):
        if (t := _operands(self, other)) is None:
            return NotImplemented
        a, b, d, oa, ob, od = t
        return _make(a * od + oa * d, b * od + ob * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        if (t := _operands(self, other)) is None:
            return NotImplemented
        a, b, d, oa, ob, od = t
        return _make(a * od - oa * d, b * od - ob * d, d * od)

    def __rsub__(self, other):
        if (t := _operands(self, other)) is None:
            return NotImplemented
        a, b, d, oa, ob, od = t
        return _make(oa * d - a * od, ob * d - b * od, d * od)

    def __neg__(self):
        return _raw(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if (t := _operands(self, other)) is None:
            return NotImplemented
        a, b, d, oa, ob, od = t
        return _make(a * oa - b * ob, a * ob + b * oa, d * od)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if (t := _operands(self, other)) is None:
            return NotImplemented
        return _quotient(*t)

    def __rtruediv__(self, other):
        if (t := _operands(self, other)) is None:
            return NotImplemented
        a, b, d, oa, ob, od = t
        return _quotient(oa, ob, od, a, b, d)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "GaussianRational":
        return _raw(self._a, -self._b, self._d)

    # -- comparisons -----------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # A real value equals the int or Fraction a/d, so it hashes like one.
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        re, im = self.re, self.im
        if not im:
            return str(re)
        if not re:
            if im == 1:
                return "i"
            if im == -1:
                return "-i"
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        mag = abs(im)
        imag = "i" if mag == 1 else f"{mag}*i"
        return f"{re}{sign}{imag}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _raw(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for a triple that is already reduced."""
    x = _new(GaussianRational)
    x._a = a
    x._b = b
    x._d = d
    return x


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The value (a + b*i)/d for any d != 0, reduced to canonical form."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        return _raw(a // g, b // g, d // g)
    return _raw(a, b, d)


def _operands(x: GaussianRational, y) -> tuple[int, int, int, int, int, int] | None:
    """The triples of x and y, where y is a GaussianRational, int or Fraction; else None."""
    if isinstance(y, GaussianRational):
        return x._a, x._b, x._d, y._a, y._b, y._d
    if isinstance(y, (int, Fraction)):
        return x._a, x._b, x._d, y.numerator, 0, y.denominator
    return None


def _quotient(a: int, b: int, d: int, ya: int, yb: int, yd: int) -> GaussianRational:
    """((a + b*i)/d) / ((ya + yb*i)/yd) = (a + b*i)(ya - yb*i) yd / (d (ya^2 + yb^2))."""
    norm = ya * ya + yb * yb
    if not norm:
        raise ZeroDivisionError("division by zero Gaussian rational")
    return _make((a * ya + b * yb) * yd, (b * ya - a * yb) * yd, d * norm)


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gr(re: int | Fraction = 0, im: int | Fraction = 0) -> GaussianRational:
    """Shorthand constructor."""
    return GaussianRational(re, im)
