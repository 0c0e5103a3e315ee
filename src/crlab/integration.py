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

from math import comb, gcd

from .scalars import GaussianRational, _make
from .spherepoly import SpherePoly

#: Ratio between the contact volume form theta ^ dtheta and this measure.
CONTACT_MASS_NOTE = (
    "unit-mass measure on S^3 (total volume 1); "
    "the contact volume form theta^dtheta equals 4*pi^2 times this measure, "
    "and every reported eigenvalue/sign/definiteness verdict is invariant "
    "under positive rescaling of the measure"
)


def moment_total(sums: dict[tuple[int, int], tuple[int, int]], den: int) -> GaussianRational:
    """(sum over keys (h, a) of (re + im*i) * M(h, a)) / den, for integer pairs.

    M(h, a), the integral of |z1|^(2h) |z2|^(2a), is h! a! / (h + a + 1)! =
    1 / ((h + a + 1) * C(h + a, h)): its numerator is always 1.  So the
    sums accumulated per moment are brought onto the lcm of the moments'
    denominators, and the result is reduced once.
    """
    re = im = 0
    common = 1
    for (h, a), (x, y) in sums.items():
        n = (h + a + 1) * comb(h + a, h)
        if n != common:
            g = gcd(n, common)
            re, im = re * (n // g), im * (n // g)
            x, y = x * (common // g), y * (common // g)
            common *= n // g
        re += x
        im += y
    return _make(re, im, common * den)


def integrate(poly: SpherePoly) -> GaussianRational:
    return moment_total({(a, b): pair for (a, b, c, d), pair in poly.nums.items()
                         if a == c and b == d}, poly.den)


def inner(x: SpherePoly, y: SpherePoly) -> GaussianRational:
    """<x, y> = integral of x * conj(y).

    The product term of x-monomial (a,b,c,d) against y-monomial (a',b',c',d')
    integrates to zero unless a-c == a'-c' and b-d == b'-d', so terms are
    bucketed by that key and only matching pairs are combined.  Products of
    numerators are summed per moment, and :func:`moment_total` divides by
    ``x.den * y.den`` once.
    """
    buckets: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
    for (a, b, c, d), (u, v) in y.nums.items():
        buckets.setdefault((a - c, b - d), []).append((c, d, u, v))
    sums: dict[tuple[int, int], tuple[int, int]] = {}
    get = sums.get
    for (a, b, c, d), (s, t) in x.nums.items():
        matches = buckets.get((a - c, b - d))
        if not matches:
            continue
        for oc, od, u, v in matches:
            # (s + t i) * conj(u + v i)
            key = (a + oc, b + od)
            acc = get(key)
            if acc is None:
                sums[key] = (s * u + t * v, t * u - s * v)
            else:
                sums[key] = (acc[0] + s * u + t * v, acc[1] + t * u - s * v)
    return moment_total(sums, x.den * y.den)
