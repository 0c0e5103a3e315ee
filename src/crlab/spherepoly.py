"""Polynomial functions on the unit 3-sphere in C^2.

A :class:`SpherePoly` is a finite linear combination of monomials
``z1^a * z2^b * conj(z1)^c * conj(z2)^d`` with Gaussian-rational
coefficients, stored sparsely as ``{Monomial: GaussianRational}`` with no
zero coefficients.  Restricted to ``|z1|^2 + |z2|^2 = 1`` these span the
polynomial functions on S^3 (a dense subalgebra of the smooth functions).

Gradings used throughout:

* bidegree ``(p, q) = (a + b, c + d)`` -- holomorphic/antiholomorphic degree;
* circle grade ``m = p - q`` -- the Fourier mode along the Hopf fiber, on
  which the Reeb rotation acts by ``e^{i m psi}``.

Two distinct polynomials can agree as functions on the sphere (they differ
by a multiple of ``z1*conj(z1) + z2*conj(z2) - 1``); that equivalence is
decided by :func:`crlab.harmonics.sphere_equal`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping, NamedTuple

from .scalars import GaussianRational, ScalarLike


class Monomial(NamedTuple):
    """Exponents of z1, z2, conj(z1), conj(z2)."""

    a: int
    b: int
    c: int
    d: int

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.a + self.b, self.c + self.d)

    @property
    def circle_grade(self) -> int:
        return (self.a + self.b) - (self.c + self.d)

    def conj(self) -> "Monomial":
        return Monomial(self.c, self.d, self.a, self.b)

    def __mul__(self, other: "Monomial") -> "Monomial":  # type: ignore[override]
        return Monomial(self.a + other.a, self.b + other.b,
                        self.c + other.c, self.d + other.d)


#: Monomial from a tuple of four exponents, skipping the named tuple's
#: Python-level ``__new__``; used where monomials are built per term.
monomial_of = partial(tuple.__new__, Monomial)

_VAR_MONOS = {
    "z1": Monomial(1, 0, 0, 0),
    "z2": Monomial(0, 1, 0, 0),
    "z1c": Monomial(0, 0, 1, 0),
    "z2c": Monomial(0, 0, 0, 1),
}


class SpherePoly:
    """Immutable sparse polynomial in z1, z2 and their conjugates.

    ``terms`` is the term map ``{Monomial: nonzero GaussianRational}``;
    treat it as read-only.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Monomial, ScalarLike] | None = None):
        clean: dict[Monomial, GaussianRational] = {}
        if terms:
            for mono, coeff in terms.items():
                val = GaussianRational.coerce(coeff)
                if not val.is_zero():
                    clean[Monomial(*mono)] = val
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SpherePoly":
        return cls()

    @classmethod
    def constant(cls, value: ScalarLike) -> "SpherePoly":
        return cls({Monomial(0, 0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "SpherePoly":
        return cls({_VAR_MONOS[name]: 1})

    @classmethod
    def monomial(cls, mono: Monomial | tuple[int, int, int, int],
                 coeff: ScalarLike = 1) -> "SpherePoly":
        return cls({Monomial(*mono): coeff})

    @classmethod
    def summed(cls, pairs: Iterable[tuple[Monomial, GaussianRational]],
               start: dict[Monomial, GaussianRational] | None = None) -> "SpherePoly":
        """The sum of ``start`` (a term map it takes over) and (monomial, coefficient) pairs.

        Every coefficient given must be nonzero.  A sum that reaches zero is
        replaced by the next coefficient for its monomial rather than added
        to, and zeros are dropped once at the end.
        """
        out = {} if start is None else start
        get = out.get
        collided = False
        for mono, coeff in pairs:
            acc = get(mono)
            if acc is None:
                out[mono] = coeff
            else:
                out[mono] = acc + coeff if acc else coeff
                collided = True
        return cls._of(out, collided)

    @classmethod
    def _of(cls, terms: dict[Monomial, GaussianRational], summed: bool = False) -> "SpherePoly":
        """The polynomial of a term map it takes over.

        Pass ``summed`` when coefficients were added in place: a sum may have
        cancelled to zero, so zeros are dropped first.
        """
        result = cls.__new__(cls)
        result.terms = {mono: coeff for mono, coeff in terms.items() if coeff} if summed else terms
        return result

    # -- term access ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, GaussianRational]]:
        """Terms in lexicographic exponent order (the canonical iteration order)."""
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def coefficient(self, mono: Monomial | tuple[int, int, int, int]) -> GaussianRational:
        return self.terms.get(Monomial(*mono), GaussianRational(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    # -- ring operations -----------------------------------------------------

    @staticmethod
    def _coerce(value) -> "SpherePoly":
        if isinstance(value, SpherePoly):
            return value
        return SpherePoly.constant(GaussianRational.coerce(value))

    def __add__(self, other):
        try:
            o = SpherePoly._coerce(other)
        except TypeError:
            return NotImplemented
        return SpherePoly.summed(o.terms.items(), dict(self.terms))

    __radd__ = __add__

    def __sub__(self, other):
        try:
            o = SpherePoly._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        try:
            o = SpherePoly._coerce(other)
        except TypeError:
            return NotImplemented
        return o + (-self)

    def __neg__(self):
        return SpherePoly._of({mono: -coeff for mono, coeff in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, SpherePoly):
            return NotImplemented
        right = other.terms.items()
        out: dict[Monomial, GaussianRational] = {}
        get = out.get
        for (a1, b1, c1, d1), x1 in self.terms.items():
            for (a2, b2, c2, d2), x2 in right:
                mono = monomial_of((a1 + a2, b1 + b2, c1 + c2, d1 + d2))
                acc = get(mono)
                out[mono] = x1 * x2 if acc is None else acc + x1 * x2
        return SpherePoly._of(out, len(out) < len(self.terms) * len(right))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: ScalarLike) -> "SpherePoly":
        factor = GaussianRational.coerce(value)
        if factor.is_zero():
            return SpherePoly.zero()
        return SpherePoly._of({mono: coeff * factor for mono, coeff in self.terms.items()})

    def __pow__(self, exponent: int) -> "SpherePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = SpherePoly.constant(1)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    def conj(self) -> "SpherePoly":
        return SpherePoly._of({mono.conj(): coeff.conj() for mono, coeff in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = SpherePoly._coerce(other)
        if not isinstance(other, SpherePoly):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None  # mutable dict inside; identity-free value type without hashing

    # -- gradings ------------------------------------------------------------

    def bigraded_components(self) -> dict[tuple[int, int], "SpherePoly"]:
        """Split into pieces of uniform bidegree (p, q).  Pieces sum to self."""
        buckets: dict[tuple[int, int], dict[Monomial, GaussianRational]] = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(mono.bidegree, {})[mono] = coeff
        return {key: SpherePoly._of(terms) for key, terms in buckets.items()}

    def circle_components(self) -> dict[int, "SpherePoly"]:
        """Split into pieces of uniform circle grade m = p - q."""
        buckets: dict[int, dict[Monomial, GaussianRational]] = {}
        for mono, coeff in self.terms.items():
            buckets.setdefault(mono.circle_grade, {})[mono] = coeff
        return {key: SpherePoly._of(terms) for key, terms in buckets.items()}

    def bidegree_if_uniform(self) -> tuple[int, int] | None:
        """The bidegree if every term shares one, else None."""
        degrees = {mono.bidegree for mono in self.terms}
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    # -- calculus ------------------------------------------------------------

    def _partial(self, slot: int) -> "SpherePoly":
        def images():
            for mono, coeff in self.terms.items():
                exp = mono[slot]
                if exp:
                    lowered = list(mono)
                    lowered[slot] = exp - 1
                    yield monomial_of(lowered), coeff * exp

        return SpherePoly.summed(images())

    def d_dz1(self) -> "SpherePoly":
        return self._partial(0)

    def d_dz2(self) -> "SpherePoly":
        return self._partial(1)

    def d_dz1c(self) -> "SpherePoly":
        return self._partial(2)

    def d_dz2c(self) -> "SpherePoly":
        return self._partial(3)

    def eval_at(self, z1_value: GaussianRational, z2_value: GaussianRational) -> GaussianRational:
        """Exact evaluation at a point of C^2 with Gaussian-rational coordinates."""
        z1c_value = z1_value.conj()
        z2c_value = z2_value.conj()
        total = GaussianRational(0)
        for mono, coeff in self.terms.items():
            total = total + coeff * (z1_value ** mono.a) * (z2_value ** mono.b) \
                * (z1c_value ** mono.c) * (z2c_value ** mono.d)
        return total

    # -- sphere-level equality -------------------------------------------------

    def sphere_equal(self, other: "SpherePoly | ScalarLike") -> bool:
        """True when self and other agree as functions on S^3."""
        from . import harmonics  # local import; harmonics builds on this module

        return harmonics.sphere_equal(self, SpherePoly._coerce(other))

    # -- formatting -------------------------------------------------------------

    def to_source(self, conj_style: str = "suffix") -> str:
        """Render in the expression grammar accepted by :mod:`crlab.parsing`.

        ``conj_style`` is ``"suffix"`` (z1c) or ``"call"`` (conj(z1)).  The
        output reparses to a structurally identical polynomial.
        """
        if not self.terms:
            return "0"
        if conj_style not in ("suffix", "call"):
            raise ValueError(f"unknown conj_style {conj_style!r}")
        pieces: list[tuple[int, str]] = []  # (sign, unsigned text)
        for mono, coeff in self.sorted_terms():
            factors = []
            names = (("z1", mono.a), ("z2", mono.b))
            cnames = (("z1c", mono.c, "z1"), ("z2c", mono.d, "z2"))
            for name, exp in names:
                if exp:
                    factors.append(name if exp == 1 else f"{name}^{exp}")
            for name, exp, base in cnames:
                if exp:
                    text = name if conj_style == "suffix" else f"conj({base})"
                    factors.append(text if exp == 1 else f"{text}^{exp}")
            sign, coeff_text = _coefficient_text(coeff, bool(factors))
            body = "*".join(([coeff_text] if coeff_text else []) + factors)
            pieces.append((sign, body))
        sign, body = pieces[0]
        out = ("-" if sign < 0 else "") + body
        for sign, body in pieces[1:]:
            out += (" - " if sign < 0 else " + ") + body
        return out

    def __str__(self) -> str:
        return self.to_source()

    def __repr__(self) -> str:
        return f"SpherePoly({self.to_source()!r})"


def _rat_text(value: Fraction) -> str:
    return str(value)


def _coefficient_text(coeff: GaussianRational, has_monomial: bool) -> tuple[int, str]:
    """Sign and unsigned source text for a coefficient; '' drops an implicit 1."""
    if coeff.im == 0:
        sign = 1 if coeff.re > 0 else -1
        mag = abs(coeff.re)
        if mag == 1 and has_monomial:
            return sign, ""
        return sign, _rat_text(mag)
    if coeff.re == 0:
        sign = 1 if coeff.im > 0 else -1
        mag = abs(coeff.im)
        if mag == 1:
            return sign, "i"
        return sign, f"{_rat_text(mag)}*i"
    # Mixed real and imaginary part: parenthesize so it stays one factor.
    im_sign = " + " if coeff.im > 0 else " - "
    mag = abs(coeff.im)
    imag = "i" if mag == 1 else f"{_rat_text(mag)}*i"
    return 1, f"({_rat_text(coeff.re)}{im_sign}{imag})"


z1 = SpherePoly.variable("z1")
z2 = SpherePoly.variable("z2")
z1c = SpherePoly.variable("z1c")
z2c = SpherePoly.variable("z2c")
one = SpherePoly.constant(1)

#: |z1|^2 + |z2|^2, the defining polynomial of S^3 (equal to 1 on the sphere).
radius_sq = z1 * z1c + z2 * z2c
