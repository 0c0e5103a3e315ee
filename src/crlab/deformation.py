"""Deformed CR structures Z1bar + phi*Z1 on S^3: torsion and expansion jets.

A deformation function phi (with |phi| < 1 where evaluation matters) turns
the standard structure into the one spanned by ``Z1bar + phi Z1``.  Along
the line ``phi_t = t*phi`` the natural normalized frame is

    Z1bar^t = F (Z1bar + t phi Z1),     F = (1 - t^2 |phi|^2)^(-1/2),

with F chosen so the Levi form stays normalized.  The deformed structure's
pseudohermitian torsion has the exact closed form

    A^t = -t (phi_0 - 4i phi) / (1 - t^2 |phi|^2),       phi_0 = T phi,

so the torsion vanishes identically precisely when phi_0 = 4i*phi, i.e.
when every bigraded component of phi lies in P_{q+4,q}.

F is irrational in t, so nothing here represents it in closed form: only
F^2 (an exact rational pair) and t-expansions truncated beyond t^2 exist.
The paper's last result concerns the second variation, so t^2 is as far
as any expansion is needed.  :class:`TJet` is the second-order expansion
carrying them; its coefficients may be polynomials or operators.  From the
jets of F and of the connection coefficients we assemble the t-expansion of
the deformed conjugate Kohn Laplacian and of (four times) the deformed
Paneitz operator, the independent route against which the closed-form
variation operators in :mod:`crlab.variation` are checked.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .harmonics import bidegree_monomials, sphere_equal
from .operators import MulBy, SUBLAP, Z1, Z1BAR, apply_T, apply_Z1, apply_Z1bar
from .scalars import GaussianRational, I
from .spherepoly import SpherePoly

# Highest power of t kept by every expansion.
ORDER = 2


class DegenerateStructureError(ValueError):
    """The deformed structure degenerates: 1 - t^2 |phi|^2 is identically 0 on S^3."""


class TJet:
    """Expansion c0 + c1 t + c2 t^2 in the deformation parameter t.

    Coefficients may be any values supporting + and * (SpherePoly for scalar
    jets, LinOp for operator jets, where * is composition).  ``None`` marks
    an absent term, which sums and products skip.  All arithmetic truncates
    beyond t^ORDER.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)[: ORDER + 1]
        self.coeffs = coeffs + [None] * (ORDER + 1 - len(coeffs))

    def __add__(self, other: "TJet") -> "TJet":
        return TJet([right if left is None else left if right is None else left + right
                     for left, right in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: "TJet") -> "TJet":
        """Truncated convolution; coefficient order is preserved (left*right)."""
        out: list = [None] * (ORDER + 1)
        for i, left in enumerate(self.coeffs):
            if left is None:
                continue
            for j, right in enumerate(other.coeffs[: ORDER + 1 - i]):
                if right is None:
                    continue
                term = left * right
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        return TJet(out)

    def scale(self, factor) -> "TJet":
        return self.map(lambda c: c * factor)

    def shift(self, powers: int) -> "TJet":
        """Multiply by t^powers."""
        return TJet([None] * powers + self.coeffs)

    def map(self, fn: Callable) -> "TJet":
        return TJet([None if c is None else fn(c) for c in self.coeffs])

    def coefficient(self, power: int, zero):
        """Coefficient of t^power, with an explicit zero for missing entries."""
        coeff = self.coeffs[power]
        return zero if coeff is None else coeff

    def poly_coefficient(self, power: int) -> SpherePoly:
        return self.coefficient(power, SpherePoly.zero())

    def __repr__(self):
        return f"TJet({self.coeffs!r})"


def torsion_factor(phi: SpherePoly) -> SpherePoly:
    """T(phi) - 4i*phi, whose vanishing on S^3 characterizes zero torsion."""
    return apply_T(phi) - phi.scale(GaussianRational(0, 4))


def torsion_potential(phi: SpherePoly) -> SpherePoly:
    """E = 4*phi + i*T(phi) = i * torsion_factor(phi); (4 + q - p) * phi on P_{p,q}."""
    return torsion_factor(phi).scale(I)


def torsion(phi: SpherePoly, t=None):
    """Exact torsion of the structure Z1bar + t*phi*Z1 as a rational pair.

    Returns (numerator, denominator) with torsion = numerator/denominator:

        numerator   = -t * (T(phi) - 4i phi)
        denominator = 1 - |t|^2 |phi|^2.

    With ``t=None`` both sides are returned as t-polynomials (TJets in a
    real t, truncated beyond t^2, which is exact here); with a Gaussian
    rational ``t`` they are polynomials.  The structure at t is the one of
    t*phi at parameter 1, so ``torsion(phi, t)`` and ``torsion(t*phi, 1)``
    agree.  A denominator identically 0 on S^3 raises
    :class:`DegenerateStructureError`; one that is 0 only somewhere is not detected.
    """
    factor = torsion_factor(phi)
    if t is None:
        num = TJet([None, -factor])
        den = TJet([SpherePoly.constant(1), None, -(phi * phi.conj())])
        return num, den
    t = GaussianRational.coerce(t)
    den = SpherePoly.constant(1) - (phi * phi.conj()).scale(t * t.conj())
    if sphere_equal(den, SpherePoly.zero()):
        raise DegenerateStructureError(f"t = {t}: 1 - |t|^2|phi|^2 is 0 on S^3, not a CR structure")
    return factor.scale(-t), den


def zero_torsion_classify(pmax: int = 8, qmax: int = 8) -> list[tuple[int, int]]:
    """Bidegrees (p, q), p <= pmax, q <= qmax, whose every element deforms torsion-free.

    Checks the torsion numerator of each monomial generator of P_{p,q}
    exactly; the result is always the diagonal p = q + 4.
    """
    zero = SpherePoly.zero()
    out = []
    for p in range(pmax + 1):
        for q in range(qmax + 1):
            if all(sphere_equal(torsion_factor(SpherePoly.monomial(m)), zero)
                   for m in bidegree_monomials(p, q)):
                out.append((p, q))
    return out


def rossi(t) -> dict:
    """Closed forms for the constant-deformation (Rossi) family at rational t.

    For the structure Z1 + t*conj(Z1) (equivalently phi = 1) the Webster
    curvature and torsion coefficient are

        |t| < 1:  R = 2(1+t^2)/(1-t^2),   torsion = 4ti/(1-t^2)
        |t| > 1:  R = 2(1+t^2)/(t^2-1),   torsion = 4ti/(1-t^2)

    (the |t| > 1 branch flips the contact form's sign, flipping R's
    denominator).  |t| = 1 degenerates.
    """
    t = GaussianRational.coerce(t)
    if not t.is_real():
        raise ValueError("the family is parametrized by real rational t")
    tt = t.re
    if abs(tt) == 1:
        raise DegenerateStructureError("|t| = 1 is not a CR structure in this family")
    branch = "|t|<1" if abs(tt) < 1 else "|t|>1"
    denom = (1 - tt * tt) if abs(tt) < 1 else (tt * tt - 1)
    webster = GaussianRational(2 * (1 + tt * tt) / denom)
    torsion_coeff = GaussianRational(0, 4 * tt / (1 - tt * tt))
    return {"webster_R": webster, "torsion_coeff": torsion_coeff, "branch": branch}


def levi_normalizer_jet(phi: SpherePoly) -> TJet:
    """Jet of F = (1 - t^2 |phi|^2)^(-1/2).

    F is the sum of binom(2k,k)/4^k |phi|^(2k) t^(2k); truncated beyond t^2
    it is 1 + |phi|^2 t^2 / 2.
    """
    return TJet([SpherePoly.constant(1), None, (phi * phi.conj()).scale(Fraction(1, 2))])


class ConnectionJets(NamedTuple):
    """t-jets of the deformed connection-form coefficients.

    The connection correction is  -(1/F) (B_h theta^1 + B_a theta^1bar + B_r theta),
    along the holomorphic coframe leg, the antiholomorphic leg and the Reeb
    leg.  The Kohn Laplacian does not read the Reeb leg: only B_h, B_a are kept.
    """

    along_holo: TJet
    along_antiholo: TJet


def connection_coefficient_jets(phi: SpherePoly) -> ConnectionJets:
    """Second-order t-expansions of the deformed connection coefficients B_h, B_a.

    Substituting phi -> t*phi and the F-jet into the closed coefficient
    formulas for the sphere background:

        B_h = F^2 (-2 F_1 - t F pb_b - t^2 pb F p_1 - 2 t pb F_b)
        B_a = F^2 (2 t^2 |phi|^2 F_b + t F p_1 + t^2 F phi pb_b + 2 t phi F_1)

    where p_1 = Z1 phi, pb = conj(phi), pb_b = Z1bar conj(phi), and F_1, F_b
    are the Z1, Z1bar derivatives of F.
    """
    fj = levi_normalizer_jet(phi)
    f2 = fj * fj
    f_1 = fj.map(apply_Z1)
    f_b = fj.map(apply_Z1bar)
    phibar = phi.conj()
    p_1 = apply_Z1(phi)
    pb_b = apply_Z1bar(phibar)
    norm = phi * phibar

    along_holo = f2 * (
        f_1.scale(-2)
        + fj.map(lambda g: g * pb_b).scale(-1).shift(1)
        + fj.map(lambda g: g * (phibar * p_1)).scale(-1).shift(2)
        + f_b.map(lambda g: phibar * g).scale(-2).shift(1)
    )
    along_antiholo = f2 * (
        f_b.map(lambda g: norm * g).scale(2).shift(2)
        + fj.map(lambda g: g * p_1).shift(1)
        + fj.map(lambda g: g * (phi * pb_b)).shift(2)
        + f_1.map(lambda g: phi * g).scale(2).shift(1)
    )
    return ConnectionJets(along_holo, along_antiholo)


def deformed_frame_jets(phi: SpherePoly) -> tuple[TJet, TJet]:
    """Operator jets of the normalized frame fields (Z1^t, Z1bar^t)."""
    fj = levi_normalizer_jet(phi).map(MulBy)
    z1_t = fj * TJet([Z1, MulBy(phi.conj()) @ Z1BAR])
    z1bar_t = fj * TJet([Z1BAR, MulBy(phi) @ Z1])
    return z1_t, z1bar_t


def conj_kohn_jet(phi: SpherePoly) -> TJet:
    """Operator jet of the deformed conjugate Kohn Laplacian.

    Assembled from the frame jets and the connection coefficients:

        -2 Z1bar^t Z1^t - 2 (F_b + B_a + t phi F_1 + t phi B_h) Z1^t.
    """
    z1_t, z1bar_t = deformed_frame_jets(phi)
    fj = levi_normalizer_jet(phi)
    coeffs = connection_coefficient_jets(phi)
    scalar = (
        fj.map(apply_Z1bar)
        + coeffs.along_antiholo
        + fj.map(apply_Z1).map(lambda g: phi * g).shift(1)
        + coeffs.along_holo.map(lambda g: phi * g).shift(1)
    )
    return (z1bar_t * z1_t).scale(-2) + (scalar.map(MulBy) * z1_t).scale(-2)


def torsion_correction_jet(phi: SpherePoly) -> TJet:
    """Operator jet of -2Q^t, the torsion correction to 4 * Paneitz.

    Q^t f = 2i (A Z1 Z1 f + (Z1 A) Z1 f - A c Z1 f) in the deformed frame,
    with A the deformed torsion coefficient and c the conjugate connection
    coefficient; expanded to second order it reads

        -2Q^t = 4t F^4 (E Z1 Z1 + E_1 Z1)
              + 4t^2 F^4 (E (-pb Delta_b + pb_1 Z1bar) + pb E_b Z1 + pb E_1 Z1bar)
              + 4t^2 F^6 E pb_b Z1

    where E = 4 phi + i T(phi), pb = conj(phi), subscripts 1 and b denote Z1
    and Z1bar derivatives.
    """
    fj = levi_normalizer_jet(phi)
    f4 = (fj * fj) * (fj * fj)
    f6 = f4 * (fj * fj)
    phibar = phi.conj()
    e = torsion_potential(phi)
    e_1 = apply_Z1(e)
    e_b = apply_Z1bar(e)
    pb_1 = apply_Z1(phibar)
    pb_b = apply_Z1bar(phibar)

    first = TJet([MulBy(e) @ Z1 @ Z1 + MulBy(e_1) @ Z1])
    part1 = (f4.map(MulBy) * first).scale(4).shift(1)
    second = TJet([
        MulBy((e * phibar).scale(-1)) @ SUBLAP
        + MulBy(e * pb_1) @ Z1BAR
        + MulBy(phibar * e_b) @ Z1
        + MulBy(phibar * e_1) @ Z1BAR
    ])
    part2 = (f4.map(MulBy) * second).scale(4).shift(2)
    part3 = (f6.map(MulBy) * TJet([MulBy(e * pb_b) @ Z1])).scale(4).shift(2)
    return part1 + part2 + part3


def paneitz_family_jet(phi: SpherePoly) -> TJet:
    """Operator jet of 4 * P^t, the deformed Paneitz operator (times four).

    4 P^t = box^t conj_box^t - 2 Q^t; the t^1 coefficient is four times the
    first variation and the t^2 coefficient is twice the second variation.
    """
    conj_box = conj_kohn_jet(phi)
    box = conj_box.map(lambda op: op.conj_op())
    return box * conj_box + torsion_correction_jet(phi)
