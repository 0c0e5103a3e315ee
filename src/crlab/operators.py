"""CR vector fields and canonical operators of the standard pseudohermitian S^3.

The standard CR structure is spanned by

    Z1    = conj(z2) d/dz1 - conj(z1) d/dz2        (holomorphic tangent field)
    Z1bar = z2 d/dconj(z1) - z1 d/dconj(z2)        (its conjugate)

and the Reeb field T generates the diagonal circle action, acting on a
circle-grade-m piece as multiplication by i*m.  All three annihilate
|z1|^2 + |z2|^2, so they descend to operators on functions on the sphere.

On the standard structure the connection form is -2i*theta and vanishes on
Z1, Z1bar; every covariant derivative in the Z directions therefore reduces
to plain composition of vector fields, and the canonical operators become

    kohn      = -2 Z1 Z1bar          (Kohn Laplacian, box_b)
    conj_kohn = -2 Z1bar Z1          (its conjugate)
    sublap    = (kohn + conj_kohn)/2 (sub-Laplacian)
    paneitz   = kohn conj_kohn / 4   (CR Paneitz operator; torsion vanishes)

On the bigraded harmonic space H_{p,q} these act as the exact scalars
2(p+1)q, 2(q+1)p, 2pq+p+q and pq(p+1)(q+1).

:class:`LinOp` is a small composable operator algebra over these
generators: sums, Gaussian-rational multiples and compositions, plus
multiplication operators by fixed polynomials.  ``A @ B`` composes
(apply B first), ``A(f)`` applies.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import GaussianRational, I, ScalarLike
from .spherepoly import Monomial, SpherePoly, monomial_of


class LinOp:
    """Linear operator on SpherePoly, built as an immutable expression tree."""

    def apply(self, poly: SpherePoly) -> SpherePoly:
        raise NotImplementedError

    def conj_op(self) -> "LinOp":
        """The conjugate operator f -> conj(self(conj(f)))."""
        raise NotImplementedError

    def __call__(self, poly: SpherePoly) -> SpherePoly:
        return self.apply(poly)

    def __add__(self, other: "LinOp") -> "LinOp":
        if not isinstance(other, LinOp):
            return NotImplemented
        return SumOp((self, other))

    def __sub__(self, other: "LinOp") -> "LinOp":
        if not isinstance(other, LinOp):
            return NotImplemented
        return SumOp((self, ScaledOp(GaussianRational(-1), other)))

    def __neg__(self) -> "LinOp":
        return ScaledOp(GaussianRational(-1), self)

    def __matmul__(self, other: "LinOp") -> "LinOp":
        if not isinstance(other, LinOp):
            return NotImplemented
        return ComposeOp(self, other)

    def __mul__(self, other):
        if isinstance(other, LinOp):
            return ComposeOp(self, other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return ScaledOp(GaussianRational.coerce(other), self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return ScaledOp(GaussianRational.coerce(other), self)
        return NotImplemented


class IdentityOp(LinOp):
    def apply(self, poly: SpherePoly) -> SpherePoly:
        return poly

    def conj_op(self) -> LinOp:
        return self

    def __repr__(self):
        return "Id"


class Z1Field(LinOp):
    """conj(z2) d/dz1 - conj(z1) d/dz2; maps bidegree (p,q) to (p-1, q+1)."""

    def apply(self, poly: SpherePoly) -> SpherePoly:
        def images():
            for (a, b, c, d), coeff in poly.terms.items():
                if a:
                    yield monomial_of((a - 1, b, c, d + 1)), coeff * a
                if b:
                    yield monomial_of((a, b - 1, c + 1, d)), coeff * -b

        return SpherePoly.summed(images())

    def conj_op(self) -> LinOp:
        return Z1BAR

    def __repr__(self):
        return "Z1"


class Z1BarField(LinOp):
    """z2 d/dconj(z1) - z1 d/dconj(z2); maps bidegree (p,q) to (p+1, q-1)."""

    def apply(self, poly: SpherePoly) -> SpherePoly:
        def images():
            for (a, b, c, d), coeff in poly.terms.items():
                if c:
                    yield monomial_of((a, b + 1, c - 1, d)), coeff * c
                if d:
                    yield monomial_of((a + 1, b, c, d - 1)), coeff * -d

        return SpherePoly.summed(images())

    def conj_op(self) -> LinOp:
        return Z1

    def __repr__(self):
        return "Z1bar"


class ReebField(LinOp):
    """Generator of the diagonal circle action: i*m on circle grade m."""

    def apply(self, poly: SpherePoly) -> SpherePoly:
        out: dict[Monomial, GaussianRational] = {}
        for mono, coeff in poly.terms.items():
            m = mono.circle_grade
            if m:
                out[mono] = coeff * GaussianRational(0, m)
        result = SpherePoly.__new__(SpherePoly)
        result._terms = out
        return result

    def conj_op(self) -> LinOp:
        # T is a real vector field: conj . T . conj = T.
        return self

    def __repr__(self):
        return "T"


class MulBy(LinOp):
    """Multiplication by a fixed polynomial."""

    __slots__ = ("factor",)

    def __init__(self, factor: SpherePoly | ScalarLike):
        self.factor = factor if isinstance(factor, SpherePoly) else SpherePoly.constant(factor)

    def apply(self, poly: SpherePoly) -> SpherePoly:
        return self.factor * poly

    def conj_op(self) -> LinOp:
        return MulBy(self.factor.conj())

    def __repr__(self):
        return f"MulBy({self.factor})"


class ScaledOp(LinOp):
    __slots__ = ("scalar", "inner")

    def __init__(self, scalar: GaussianRational, inner: LinOp):
        self.scalar = scalar
        self.inner = inner

    def apply(self, poly: SpherePoly) -> SpherePoly:
        return self.inner.apply(poly).scale(self.scalar)

    def conj_op(self) -> LinOp:
        return ScaledOp(self.scalar.conj(), self.inner.conj_op())

    def __repr__(self):
        return f"({self.scalar})*{self.inner!r}"


class SumOp(LinOp):
    __slots__ = ("parts",)

    def __init__(self, parts: tuple[LinOp, ...]):
        self.parts = parts

    def apply(self, poly: SpherePoly) -> SpherePoly:
        return SpherePoly.summed(pair for part in self.parts
                                 for pair in part.apply(poly).terms.items())

    def conj_op(self) -> LinOp:
        return SumOp(tuple(part.conj_op() for part in self.parts))

    def __repr__(self):
        return "(" + " + ".join(repr(p) for p in self.parts) + ")"


class ComposeOp(LinOp):
    """outer after inner: (outer @ inner)(f) = outer(inner(f))."""

    __slots__ = ("outer", "inner")

    def __init__(self, outer: LinOp, inner: LinOp):
        self.outer = outer
        self.inner = inner

    def apply(self, poly: SpherePoly) -> SpherePoly:
        return self.outer.apply(self.inner.apply(poly))

    def conj_op(self) -> LinOp:
        return ComposeOp(self.outer.conj_op(), self.inner.conj_op())

    def __repr__(self):
        return f"{self.outer!r}@{self.inner!r}"


IDENTITY = IdentityOp()
Z1 = Z1Field()
Z1BAR = Z1BarField()
T = ReebField()

ZERO_OP = ScaledOp(GaussianRational(0), IDENTITY)

KOHN = -2 * (Z1 @ Z1BAR)
CONJ_KOHN = -2 * (Z1BAR @ Z1)
SUBLAP = Fraction(1, 2) * (KOHN + CONJ_KOHN)
PANEITZ = Fraction(1, 4) * (KOHN @ CONJ_KOHN)


def apply_Z1(x: SpherePoly) -> SpherePoly:
    return Z1.apply(x)


def apply_Z1bar(x: SpherePoly) -> SpherePoly:
    return Z1BAR.apply(x)


def apply_T(x: SpherePoly) -> SpherePoly:
    return T.apply(x)


def kohn(x: SpherePoly) -> SpherePoly:
    """Kohn Laplacian; 2(p+1)q on H_{p,q}."""
    return KOHN.apply(x)


def conj_kohn(x: SpherePoly) -> SpherePoly:
    """Conjugate Kohn Laplacian; 2(q+1)p on H_{p,q}."""
    return CONJ_KOHN.apply(x)


def sublap(x: SpherePoly) -> SpherePoly:
    """Sub-Laplacian; 2pq+p+q on H_{p,q}."""
    return SUBLAP.apply(x)


def paneitz(x: SpherePoly) -> SpherePoly:
    """CR Paneitz operator; pq(p+1)(q+1) on H_{p,q}, annihilating H_{p,0} and H_{0,q}."""
    return PANEITZ.apply(x)


def grad_op(g: SpherePoly) -> LinOp:
    """The first-order pairing h -> (Z1bar g) * Z1 h + (Z1 g) * Z1bar h.

    For real g this is the Levi-form pairing of the horizontal gradients of
    g and h.
    """
    return MulBy(apply_Z1bar(g)) @ Z1 + MulBy(apply_Z1(g)) @ Z1BAR


def bochner_residual(phi: SpherePoly) -> SpherePoly:
    """Left minus right side of the torsion-free Bochner identity for kohn.

    With e = |Z1bar phi|^2 the identity, specialized to the standard S^3
    (Tanaka-Webster curvature 2, zero torsion), reads

        -kohn(e)/2 = phi_bb * conj(phi_bb) + phi_b1 * conj(phi_b1)
                     - (1/2) phi_b * conj((kohn phi)_b)
                     - (kohn phi)_b * conj(phi_b)
                     - (Z1bar Z1bar Z1 phi) * conj(phi_b)
                     + 2 e,

    where ``_b`` is Z1bar, ``phi_bb`` is Z1bar Z1bar phi and ``phi_b1`` is
    Z1 Z1bar phi; pointwise pairings of (0,1)-forms are coefficient times
    conjugate coefficient.  The returned residual vanishes on the sphere
    for every phi.
    """
    phi_b = apply_Z1bar(phi)
    phi_b_conj = phi_b.conj()
    energy = phi_b * phi_b_conj
    lhs = Fraction(-1, 2) * kohn(energy)
    box = kohn(phi)
    rhs = (
        apply_Z1bar(phi_b) * apply_Z1bar(phi_b).conj()
        + apply_Z1(phi_b) * apply_Z1(phi_b).conj()
        - Fraction(1, 2) * (phi_b * apply_Z1bar(box).conj())
        - apply_Z1bar(box) * phi_b_conj
        - apply_Z1bar(apply_Z1bar(apply_Z1(phi))) * phi_b_conj
        + 2 * energy
    )
    return lhs - rhs


def common_eigenvalue(op: LinOp, p: int, q: int) -> GaussianRational:
    """The exact scalar by which op acts on H_{p,q}.

    Applies op to every basis element and checks the result is an exact
    scalar multiple, the same scalar across the basis; raises if op does
    not act as a scalar there.
    """
    from .harmonics import basis

    value: GaussianRational | None = None
    for f in basis(p, q).elements:
        image = op(f)
        if image.is_zero():
            candidate = GaussianRational(0)
        else:
            mono, coeff = next(iter(f.sorted_terms()))
            candidate = image.coefficient(mono) / coeff
            if image != f.scale(candidate):
                raise ArithmeticError(f"operator is not scalar on H_({p},{q})")
        if value is None:
            value = candidate
        elif value != candidate:
            raise ArithmeticError(f"operator has distinct eigenvalues on H_({p},{q})")
    assert value is not None
    return value


def kohn_energy_identity(p: int, q: int) -> bool:
    """Exact integrated identity behind the eigenvalue lower bound for kohn.

    For every basis element f of H_{p,q}, with lam = 2(p+1)q,

        lam * |Z1bar f|^2 = |Z1bar Z1bar f|^2 + <paneitz f, f> + 2 |Z1bar f|^2

    where |.|^2 is the L^2 norm squared.  Returns True when it holds for the
    whole basis.
    """
    if (p, q) == (0, 0):
        raise ValueError("identity is about nonconstant eigenfunctions; need (p, q) != (0, 0)")
    from .harmonics import basis
    from .integration import inner

    lam = 2 * (p + 1) * q
    for f in basis(p, q).elements:
        first = apply_Z1bar(f)
        second = apply_Z1bar(first)
        energy = inner(first, first)
        lhs = lam * energy
        rhs = inner(second, second) + inner(paneitz(f), f) + 2 * energy
        if lhs != rhs:
            return False
    return True
