"""Exact integration over S^3 and the associated Hermitian inner product.

The measure is normalized to total mass 1.  Under it the monomial moments
are

    integral of z1^a z2^b conj(z1)^c conj(z2)^d  =  a! b! / (a+b+1)!   if a=c, b=d
                                                =  0                  otherwise,

the classical moment formula for the uniform probability measure on the
sphere (the joint law of (|z1|^2, |z2|^2) is uniform on the simplex, which
reduces every moment to a Beta integral).  The geometric volume form
theta ^ dtheta of the standard contact form has total mass 4*pi^2, so it is
this measure times 4*pi^2; every sign, eigenvalue, vanishing and
definiteness statement checked by this package is invariant under that
positive rescaling.

``inner(x, y)`` is the L^2 pairing  integral of x * conj(y), conjugate
linear in the second slot.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .scalars import GaussianRational
from .spherepoly import Monomial, SpherePoly

#: Ratio between the contact volume form theta ^ dtheta and this measure.
CONTACT_MASS_NOTE = (
    "unit-mass measure on S^3 (total volume 1); "
    "the contact volume form theta^dtheta equals 4*pi^2 times this measure, "
    "and every reported eigenvalue/sign/definiteness verdict is invariant "
    "under positive rescaling of the measure"
)


def moment(holo: int, anti: int) -> Fraction:
    """integral of |z1|^(2*holo) * |z2|^(2*anti) under the unit-mass measure."""
    return Fraction(factorial(holo) * factorial(anti), factorial(holo + anti + 1))


def integrate_monomial(mono: Monomial) -> GaussianRational:
    """Exact integral of one monomial; zero unless exponents pair up (a=c, b=d)."""
    a, b, c, d = mono
    if a != c or b != d:
        return GaussianRational(0)
    return GaussianRational(moment(a, b))


def integrate(poly: SpherePoly) -> GaussianRational:
    total = GaussianRational(0)
    for mono, coeff in poly.terms.items():
        if mono.a == mono.c and mono.b == mono.d:
            total = total + coeff * moment(mono.a, mono.b)
    return total


def inner(x: SpherePoly, y: SpherePoly) -> GaussianRational:
    """<x, y> = integral of x * conj(y).

    The product term of x-monomial (a,b,c,d) against y-monomial (a',b',c',d')
    integrates to zero unless a-c == a'-c' and b-d == b'-d', so terms are
    bucketed by that key and only matching pairs are combined.
    """
    buckets: dict[tuple[int, int], list[tuple[Monomial, GaussianRational]]] = {}
    for mono, coeff in y.terms.items():
        buckets.setdefault((mono.a - mono.c, mono.b - mono.d), []).append((mono, coeff))
    total = GaussianRational(0)
    for mono, coeff in x.terms.items():
        matches = buckets.get((mono.a - mono.c, mono.b - mono.d))
        if not matches:
            continue
        for other, ocoeff in matches:
            total = total + coeff * ocoeff.conj() * moment(mono.a + other.c, mono.b + other.d)
    return total


def norm_sq(x: SpherePoly) -> GaussianRational:
    """<x, x>; always real and nonnegative, zero only for functions vanishing on S^3."""
    return inner(x, x)
