"""Polynomial functions on the unit 3-sphere in C^2.

A :class:`SpherePoly` is a finite linear combination of monomials
``z1^a * z2^b * conj(z1)^c * conj(z2)^d`` with Gaussian-rational
coefficients.  Restricted to ``|z1|^2 + |z2|^2 = 1`` these span the
polynomial functions on S^3 (a dense subalgebra of the smooth functions).

The coefficients are stored as Gaussian integers over one shared positive
denominator: a sparse map ``{(a, b, c, d): (re, im)}`` from plain exponent
tuples to integer numerator pairs, and one ``den``, the representation of
FLINT's ``fmpq_poly``.  The form is canonical: no zero pair, and a single
gcd over all numerators and the denominator is 1.  So a product term costs
four integer multiplies and one plain tuple, sums first bring their
operands onto the lcm of their denominators, and each result takes one gcd
at the end instead of one per coefficient.  ``Monomial`` is the named view
of an exponent tuple that ``terms`` returns, and ``GaussianRational`` the
type of every scalar that leaves a polynomial (``coefficient``, ``terms``,
integrals).

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
from math import gcd
from typing import Iterable, Mapping, NamedTuple

from .scalars import ZERO, GaussianRational, ScalarLike, _make


class Monomial(NamedTuple):
    """Exponents of z1, z2, conj(z1), conj(z2)."""

    a: int
    b: int
    c: int
    d: int


#: Exponents of z1, z2, conj(z1), conj(z2) as a plain tuple: a numerator map's key.
Exponents = tuple[int, int, int, int]

#: Numerators of a polynomial's coefficients over its shared denominator.
Nums = dict[Exponents, tuple[int, int]]

_VAR_MONOS = {"z1": (1, 0, 0, 0), "z2": (0, 1, 0, 0), "z1c": (0, 0, 1, 0), "z2c": (0, 0, 0, 1)}


def _key(mono: Monomial | Iterable[int]) -> Exponents:
    """mono as a plain tuple of four exponents; TypeError for another length."""
    return tuple(Monomial(*mono))


class SpherePoly:
    """Immutable sparse polynomial in z1, z2 and their conjugates.

    The coefficients are stored as Gaussian integers over one shared
    denominator: ``nums`` maps each monomial's plain exponent tuple
    ``(a, b, c, d)`` to the numerator pair ``(re, im)`` of its coefficient
    ``(re + im*i) / den``, and ``den`` is a positive integer.  The form is
    canonical: no pair is ``(0, 0)``, and ``den`` and all numerators have
    gcd 1 (zero is ``{}`` over 1), so equal polynomials have equal ``nums``
    and ``den``.  Both are read-only: no code mutates ``nums`` or rebinds
    either after construction, which the content key (:func:`_content_key`,
    taken once per instance and kept in a private slot) relies on.

    ``terms`` is the same polynomial as a fresh ``{Monomial: GaussianRational}``
    map, built on each access, for code outside the arithmetic loops;
    :class:`Monomial` is the named view of a ``nums`` key.
    """

    __slots__ = ("nums", "den", "_key")

    def __init__(self, terms: Mapping[Monomial | Exponents, ScalarLike] | None = None):
        # Reduced coefficients over the lcm of their denominators leave no common factor.
        nums: Nums = {}
        den = 1
        for mono, coeff in (terms or {}).items():
            val = GaussianRational.coerce(coeff)
            if val:
                nums, den = _add_into(nums, den, {_key(mono): (val._a, val._b)}, val._d)
        self.nums = nums
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "SpherePoly":
        return cls()

    @classmethod
    def constant(cls, value: ScalarLike) -> "SpherePoly":
        return cls({(0, 0, 0, 0): value})

    @classmethod
    def variable(cls, name: str) -> "SpherePoly":
        return cls({_VAR_MONOS[name]: 1})

    @classmethod
    def monomial(cls, mono: Monomial | Exponents, coeff: ScalarLike = 1) -> "SpherePoly":
        return cls({_key(mono): coeff})

    @classmethod
    def summed(cls, polys: Iterable["SpherePoly"]) -> "SpherePoly":
        """The sum of polys, over the lcm of their denominators.

        Numerators are added in one term map (:func:`_add_into`); only when
        two polynomials share a monomial can a sum cancel or a common factor
        appear, so only then are zeros dropped and the gcd taken.
        """
        out: Nums = {}
        den, count = 1, 0
        for poly in polys:
            if not out:  # the first nonzero summand is copied whole
                out, den = dict(poly.nums), poly.den
            else:
                out, den = _add_into(out, den, poly.nums, poly.den)
            count += len(poly.nums)
        return cls._of(out, den, True) if len(out) < count else _raw(out, den)

    @classmethod
    def _of(cls, nums: Nums, den: int, summed: bool = False) -> "SpherePoly":
        """The canonical polynomial of nums over den; see :func:`_canonical`."""
        if summed or den != 1:
            nums, den = _canonical(nums, den, summed)
        return _raw(nums, den)

    # -- term access ---------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, GaussianRational]:
        """``{Monomial: nonzero GaussianRational}``, built from the integer view."""
        den, named = self.den, Monomial._make
        return {named(mono): _make(x, y, den) for mono, (x, y) in self.nums.items()}

    def coefficient(self, mono: Monomial | Exponents) -> GaussianRational:
        pair = self.nums.get(_key(mono))
        return ZERO if pair is None else _make(pair[0], pair[1], self.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __len__(self) -> int:
        return len(self.nums)

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
        return SpherePoly.summed((self, o))

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
        return _raw({mono: (-x, -y) for mono, (x, y) in self.nums.items()}, self.den)

    def __mul__(self, other):
        # The SpherePoly test comes first: a miss on Fraction's ABC check is slow.
        if isinstance(other, SpherePoly):
            out: Nums = {}
            count = _mul_into(out, self.nums, other.nums)
            return SpherePoly._of(out, self.den * other.den, len(out) < count)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value: ScalarLike) -> "SpherePoly":
        factor = GaussianRational.coerce(value)
        u, v, d = factor._a, factor._b, factor._d
        if not (u or v):
            return _ZERO
        if v:
            nums = {mono: (x * u - y * v, x * v + y * u) for mono, (x, y) in self.nums.items()}
        else:
            nums = {mono: (x * u, y * u) for mono, (x, y) in self.nums.items()}
        return SpherePoly._of(nums, self.den * d)

    def __pow__(self, exponent: int) -> "SpherePoly":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return _raw(*_power(self.nums, self.den, exponent))

    def conj(self) -> "SpherePoly":
        return _raw(_conj_nums(self.nums), self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = SpherePoly._coerce(other)
        if not isinstance(other, SpherePoly):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    __hash__ = None  # mutable dict inside; identity-free value type without hashing

    # -- gradings ------------------------------------------------------------

    def bidegree_if_uniform(self) -> tuple[int, int] | None:
        """The bidegree if every term shares one, else None."""
        degrees = {(a + b, c + d) for a, b, c, d in self.nums}
        if len(degrees) == 1:
            return next(iter(degrees))
        return None

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, z1_value: GaussianRational, z2_value: GaussianRational) -> GaussianRational:
        """Exact evaluation at a point of C^2 with Gaussian-rational coordinates."""
        z1c_value = z1_value.conj()
        z2c_value = z2_value.conj()
        total = GaussianRational(0)
        for mono, coeff in self.terms.items():
            total = total + coeff * (z1_value ** mono.a) * (z2_value ** mono.b) \
                * (z1c_value ** mono.c) * (z2c_value ** mono.d)
        return total

    # -- formatting -------------------------------------------------------------

    def to_source(self) -> str:
        """Render in the expression grammar accepted by :mod:`crlab.parsing`.

        Conjugates print as z1c and z2c.  Each coefficient is printed from
        its numerators and ``den``, one gcd per nonzero part.  The output
        reparses to a structurally identical polynomial.
        """
        if not self.nums:
            return "0"
        den = self.den
        out = []
        for mono in sorted(self.nums):
            x, y = self.nums[mono]
            factors = [name if exp == 1 else f"{name}^{exp}"
                       for name, exp in zip(("z1", "z2", "z1c", "z2c"), mono) if exp]
            if not y:
                sign, coeff = x, "" if abs(x) == den and factors else _ratio(abs(x), den)
            else:
                sign, coeff = y, "i" if abs(y) == den else f"{_ratio(abs(y), den)}*i"
                if x:  # a mixed coefficient is parenthesized, so it stays one factor
                    sign, coeff = 1, f"({_ratio(x, den)} {'+' if y > 0 else '-'} {coeff})"
            if out:
                out.append(" - " if sign < 0 else " + ")
            elif sign < 0:
                out.append("-")
            out.append("*".join([coeff, *factors] if coeff else factors))
        return "".join(out)

    def __str__(self) -> str:
        return self.to_source()

    def __repr__(self) -> str:
        return f"SpherePoly({self.to_source()!r})"


def _mul_into(out: Nums, left: Nums, right: Nums) -> int:
    """Add every product of a left term with a right term into out; return how many.

    The numerators multiply as Gaussian integers and sums are not checked
    for zero; fewer keys in out than products formed means some sum may
    have cancelled.  A constant left term keeps each right monomial.
    """
    get = out.get
    right_items = right.items()
    for (a1, b1, c1, d1), (x, y) in left.items():
        if not (a1 or b1 or c1 or d1):
            for mono, (u, v) in right_items:
                acc = get(mono)
                if acc is None:
                    out[mono] = (x * u - y * v, x * v + y * u)
                else:
                    out[mono] = (acc[0] + x * u - y * v, acc[1] + x * v + y * u)
            continue
        for (a2, b2, c2, d2), (u, v) in right_items:
            mono = (a1 + a2, b1 + b2, c1 + c2, d1 + d2)
            acc = get(mono)
            if acc is None:
                out[mono] = (x * u - y * v, x * v + y * u)
            else:
                out[mono] = (acc[0] + x * u - y * v, acc[1] + x * v + y * u)
    return len(left) * len(right)


def _conj_nums(nums: Nums) -> Nums:
    """Numerators of the conjugate over the same denominator: z1 <-> z1c, z2 <-> z2c, i -> -i."""
    return {(c, d, a, b): (x, -y) for (a, b, c, d), (x, y) in nums.items()}


#: A polynomial's content as a hashable memo key: its numerator items and its denominator.
ContentKey = tuple[frozenset, int]


def _content_key(poly: SpherePoly) -> ContentKey:
    """``(frozenset(poly.nums.items()), poly.den)``, built on first use and kept on poly.

    Equal polynomials have equal keys however they were built, so a memo
    keyed on it shares one entry between them; ``SpherePoly`` itself stays
    unhashable.
    """
    try:
        return poly._key
    except AttributeError:
        key = poly._key = (frozenset(poly.nums.items()), poly.den)
        return key


def _raw(nums: Nums, den: int) -> SpherePoly:
    """The polynomial nums over den, for a pair that is already canonical."""
    poly = _new(SpherePoly)
    poly.nums = nums
    poly.den = den
    return poly


def _canonical(nums: Nums, den: int, summed: bool = False) -> tuple[Nums, int]:
    """nums over den > 0 in canonical form; takes over nums.

    Pass ``summed`` when numerators were added in place: a sum may have
    cancelled to ``(0, 0)``, so those pairs are dropped first.  Then the gcd
    of den and every numerator is divided out, in one pass that stops as
    soon as it reaches 1.
    """
    if summed:
        nums = {mono: pair for mono, pair in nums.items() if pair[0] or pair[1]}
    if den != 1:
        g = den
        for x, y in nums.values():
            g = gcd(g, x, y)
            if g == 1:
                break
        else:
            nums = {mono: (x // g, y // g) for mono, (x, y) in nums.items()}
            den //= g
    return nums, den


def _add_into(out: Nums, den: int, nums: Nums, d: int) -> tuple[Nums, int]:
    """nums over d added into out over den, on the lcm of the denominators.

    Returns the sum's map (out itself, or a rescaled copy when the lcm
    grows) and that lcm.  Sums are not checked for zero.
    """
    if den % d:
        grow = d // gcd(den, d)
        out, den = {mono: (x * grow, y * grow) for mono, (x, y) in out.items()}, den * grow
    factor = den // d
    get = out.get
    for mono, (x, y) in nums.items():
        if factor != 1:
            x, y = x * factor, y * factor
        acc = get(mono)
        out[mono] = (x, y) if acc is None else (acc[0] + x, acc[1] + y)
    return out, den


def _power(nums: Nums, den: int, n: int) -> tuple[Nums, int]:
    """nums over den to the n-th power (n >= 0), the gcd divided out.

    A one-term base is raised in one step: its exponents are multiplied by
    n, its Gaussian-integer numerator is raised to the n-th power and den
    becomes den**n.  A longer base is multiplied by itself n - 1 times:
    for sparse polynomials that does less work than repeated squaring,
    whose last squares multiply two large powers (Fateman, *On the
    computation of powers of sparse polynomials*, 1974).  A canonical base
    gives a canonical power.
    """
    if not n:
        return {(0, 0, 0, 0): (1, 0)}, 1
    if len(nums) == 1:
        ((a, b, c, d), (x, y)), = nums.items()
        u, v = x, y
        for _ in range(n - 1):
            u, v = u * x - v * y, u * y + v * x
        return _canonical({(a * n, b * n, c * n, d * n): (u, v)}, den ** n)
    out, out_den = nums, den
    for _ in range(n - 1):
        product: Nums = {}
        count = _mul_into(product, out, nums)
        out, out_den = _canonical(product, out_den * den, len(product) < count)
    return out, out_den


def _ratio(n: int, d: int) -> str:
    """n/d in lowest terms, as ``str(Fraction(n, d))`` prints it."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


_new = object.__new__
_ZERO = SpherePoly()


z1 = SpherePoly.variable("z1")
z2 = SpherePoly.variable("z2")
z1c = SpherePoly.variable("z1c")
z2c = SpherePoly.variable("z2c")
one = SpherePoly.constant(1)

#: |z1|^2 + |z2|^2, the defining polynomial of S^3 (equal to 1 on the sphere).
radius_sq = z1 * z1c + z2 * z2c
