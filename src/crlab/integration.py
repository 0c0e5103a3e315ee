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
linear in the second slot.  Every pairing, this one, each integral of a
weighted gradient pairing and each row of a variation form (each
coefficient of the operator's restriction to the row's space as the weight,
against a power of Z1 or Z1bar applied to the row's element), runs through
one kernel, :func:`_pair_into`.
A product of terms integrates to zero unless the torus weights
(a - c, b - d) of its factors balance, W(w) + W(x) = W(y), so only
products that can survive are formed (never w * x as a polynomial), their
numerators are summed per moment, and :func:`moment_total` divides once.
A single integral, :func:`_integral`, reads a bare numerator map x and
y indexed once by :func:`targets_of`, so a caller that holds numerators
(field images, a weight grouped once by :func:`_groups`) pays for no
polynomial and no gcd before the division.
"""

from __future__ import annotations

from math import comb, gcd
from typing import Iterable, Mapping

from .scalars import GaussianRational, _make
from .spherepoly import Nums, SpherePoly

Weight = tuple[int, int]
#: A term (re + im*i)/den_j * z1^a z2^b conj(z1)^c conj(z2)^d of y_j, as (j, c, d, re, im).
Target = tuple[int, int, int, int, int]
#: Numerator pairs summed per moment (h, a), as :func:`moment_total` reads them.
Sums = dict[tuple[int, int], tuple[int, int]]
#: The terms (a, b, re, im) of a weight w, grouped by torus weight; _ONE is w = 1.
Groups = list[tuple[Weight, list[tuple[int, int, int, int]]]]
_ONE: Groups = [((0, 0), [(0, 0, 1, 0)])]

#: Ratio between the contact volume form theta ^ dtheta and this measure.
CONTACT_MASS_NOTE = (
    "unit-mass measure on S^3 (total volume 1); "
    "the contact volume form theta^dtheta equals 4*pi^2 times this measure, "
    "and every reported eigenvalue/sign/definiteness verdict is invariant "
    "under positive rescaling of the measure"
)


def moment_total(sums: Sums, den: int) -> GaussianRational:
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


def targets_of(ys: Iterable[Nums]) -> dict[Weight, list[Target]]:
    """The terms of numerator maps y_0, y_1, ... indexed by torus weight for :func:`_pair_into`."""
    index: dict[Weight, list[Target]] = {}
    for j, nums in enumerate(ys):
        for (a, b, c, d), (u, v) in nums.items():
            index.setdefault((a - c, b - d), []).append((j, c, d, u, v))
    return index


def _groups(nums: Nums) -> Groups:
    """The terms of a weight w's numerator map, grouped by torus weight."""
    groups: dict[Weight, list[tuple[int, int, int, int]]] = {}
    for (a, b, c, d), (x, y) in nums.items():
        groups.setdefault((a - c, b - d), []).append((a, b, x, y))
    return list(groups.items())


def _pair_into(sums: Mapping[int, Sums] | list[Sums], weight: Groups, x: Nums,
               targets: Mapping[Weight, list[Target]]) -> None:
    """Add the numerators of the integral of w * x * conj(y_j), per moment, into sums[j].

    ``weight`` is w grouped by :func:`_groups`, and ``targets`` indexes the
    y_j by :func:`targets_of`.  A term of x meets only the w groups and
    y_j terms whose weights balance it; the result is over the product of
    the three denominators.
    """
    for (a, b, c, d), (s, t) in x.items():
        wa, wb = a - c, b - d
        for (ga, gb), wterms in weight:
            matches = targets.get((ga + wa, gb + wb))
            if matches is None:
                continue
            for a1, b1, m, n in wterms:
                # w * x, then times conj(u + v i) of each y_j term it meets
                ka, kb, p, q = a + a1, b + b1, m * s - n * t, m * t + n * s
                for j, oc, od, u, v in matches:
                    entry = sums[j]
                    key = (ka + oc, kb + od)
                    acc = entry.get(key)
                    if acc is None:
                        entry[key] = (p * u + q * v, q * u - p * v)
                    else:
                        entry[key] = (acc[0] + p * u + q * v, acc[1] + q * u - p * v)


def _integral(weight: Groups, x: Nums, targets: Mapping[Weight, list[Target]],
              den: int) -> GaussianRational:
    """The integral of w * x * conj(y) over den, for numerator maps x and y.

    ``weight`` is w's numerators grouped by :func:`_groups` (``_ONE`` for
    w = 1), ``targets`` is y indexed by ``targets_of((y,))``, and den is
    the product of the three denominators: one :func:`_pair_into` pass
    into a single accumulator, then one :func:`moment_total`.
    """
    sums: list[Sums] = [{}]
    _pair_into(sums, weight, x, targets)
    return moment_total(sums[0], den)


def inner(x: SpherePoly, y: SpherePoly) -> GaussianRational:
    """<x, y> = integral of x * conj(y): one :func:`_integral` call with w = 1."""
    return _integral(_ONE, x.nums, targets_of((y.nums,)), x.den * y.den)
