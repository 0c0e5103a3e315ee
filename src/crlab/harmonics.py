"""Bigraded spherical harmonics on S^3 and the sphere-restriction normal form.

``H_{p,q}`` is the space of bihomogeneous polynomials of bidegree (p, q)
annihilated by the flat Laplacian d^2/dz1 dconj(z1) + d^2/dz2 dconj(z2); its
dimension is p+q+1.  For bihomogeneous polynomials this kernel condition is
the same as being a spherical-harmonic eigenfunction of degree p+q.

The Laplacian lowers a and c (or b and d) together, so it keeps the torus
weight w = a - c of a monomial z1^a z2^b conj(z1)^c conj(z2)^d.  P_{p,q}
therefore splits into p+q+1 weight strings, w in -q..p, and on each string
the kernel is one line whose coefficients solve a closed two-term
recurrence (:func:`_weight_string`); :func:`basis` takes one element per
string, with no elimination, its coefficients integer products of the
recurrence's factors over one shared denominator.

Every polynomial splits uniquely as

    f = h_0 + r^2 h_1 + r^4 h_2 + ...,    h_k harmonic, r^2 = |z1|^2+|z2|^2,

so on the sphere (r^2 = 1) it equals the sum of its harmonic components.
That sum, bucketed by bidegree, is the *canonical form* computed by
:func:`canonicalize`; two polynomials restrict to the same function on S^3
exactly when their canonical forms coincide (:func:`sphere_equal`).

The components come from the same weight strings, in one loop.  In
u = |z1|^2 and v = |z2|^2 a weight-w part of bidegree (p, q) is a base
monomial times a binary form F; the strings s_k of (p-k, q-k, w) share that
base, and F = sum_k x_k (u+v)^k s_k.  At (u, v) = (1, -1) only x_0 s_0 is
left, and (F - x_0 s_0) / (u+v) is the same problem one degree lower: exact
integer steps, with no Laplacian, no recursion and no product with r^(2k).
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import accumulate
from math import gcd
from typing import NamedTuple

from .spherepoly import Exponents, Monomial, Nums, SpherePoly, _add_into


def flat_laplacian(x: SpherePoly) -> SpherePoly:
    """d^2 x / dz1 dconj(z1) + d^2 x / dz2 dconj(z2), in one pass over x's numerators."""
    return SpherePoly._of(_laplacian_nums(x.nums), x.den, summed=True)


def _laplacian_nums(nums: Nums) -> Nums:
    """The flat Laplacian's numerators over nums' denominator; sums may be (0, 0)."""
    out: Nums = {}
    for (a, b, c, d), (u, v) in nums.items():
        for k, lowered in ((a * c, (a - 1, b, c - 1, d)), (b * d, (a, b - 1, c, d - 1))):
            if k:
                s, t = out.get(lowered, (0, 0))
                out[lowered] = (s + k * u, t + k * v)
    return out


def bidegree_monomials(p: int, q: int) -> list[Monomial]:
    """Monomial basis of P_{p,q} in lexicographic exponent order."""
    monos = [Monomial(a, p - a, c, q - c) for a in range(p + 1) for c in range(q + 1)]
    monos.sort()
    return monos


class HarmonicBasis(NamedTuple):
    p: int
    q: int
    elements: tuple[SpherePoly, ...]

    @property
    def dimension(self) -> int:
        return len(self.elements)


@cache
def basis(p: int, q: int) -> HarmonicBasis:
    """Basis of H_{p,q} over the Gaussian rationals; dimension p+q+1.

    One element per torus weight w = a - c in -q..p, each the kernel vector
    of its weight string normalized to coefficient 1 on its lex-largest
    monomial (see :func:`_weight_string`), ordered by that monomial.  This
    is the reduced-row-echelon kernel basis of the flat Laplacian
    P_{p,q} -> P_{p-1,q-1} under the lexicographic monomial order, term
    order included: the top monomial comes first in each term map, then the
    others with c ascending, as RREF lists its pivot columns.  Each basis is
    built once per process and shared (``functools.cache``); a rejected
    bidegree raises and caches nothing.
    """
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be nonnegative")
    strings = sorted((_weight_string(p, q, w) for w in range(-q, p + 1)), key=lambda s: s[0][-1])
    return HarmonicBasis(p, q, tuple(
        SpherePoly._of({monos[-1]: (nums[-1], 0), **{m: (x, 0) for m, x in zip(monos, nums[:-1])}},
                       nums[-1])
        for monos, nums in strings))


@lru_cache(maxsize=256)
def _weight_string(p: int, q: int, w: int) -> tuple[tuple[Exponents, ...], tuple[int, ...]]:
    """The harmonic of bidegree (p, q) and torus weight w, as integer numerators.

    The weight-w monomials are m_c = (c+w, p-c-w, c, q-c) for c in
    lo..hi = max(0, -w)..min(q, p-w), and the Laplacian sends sum x_c m_c to
    zero exactly when (c+1)(c+1+w) x_{c+1} + (p-c-w)(q-c) x_c = 0; every
    factor is nonzero on that range, so the kernel is one-dimensional.  Over
    D = prod_{lo<=k<hi} (p-k-w)(q-k), x_c has the integer numerator
    prod_{lo<=k<c} (p-k-w)(q-k) * prod_{c<=k<hi} -(k+1)(k+1+w): the signs
    alternate.  Returns the monomials and the numerators over their gcd, c
    ascending, so the last numerator is the denominator.
    """
    lo, hi = max(0, -w), min(q, p - w)
    downward = [1]  # downward[hi - c] = prod_{c<=k<hi} -(k+1)(k+1+w)
    for c in range(hi - 1, lo - 1, -1):
        downward.append(downward[-1] * -(c + 1) * (c + 1 + w))
    nums = []
    upward = 1  # prod_{lo<=k<c} (p-k-w)(q-k)
    for c in range(lo, hi + 1):
        nums.append(upward * downward[hi - c])
        upward *= (p - c - w) * (q - c)
    g = gcd(*nums)
    return (tuple((c + w, p - c - w, c, q - c) for c in range(lo, hi + 1)),
            tuple(x // g for x in nums))


def canonicalize(x: SpherePoly) -> dict[tuple[int, int], SpherePoly]:
    """Harmonic components of x: x agrees on S^3 with the sum of the values.

    The result maps (p, q) to a nonzero element of H_{p,q}; an empty map
    means x vanishes on the sphere.  This is the normal form behind
    :func:`sphere_equal`, and applying it to any single component returns
    that component unchanged.
    """
    parts: dict[tuple[int, int], tuple[Nums, int]] = {}  # each (p, q): numerators, denominator
    strings: dict[tuple[int, int, int, int], dict[int, tuple[int, int]]] = {}  # (w, p-q, p, q)
    for mono, pair in x.nums.items():
        a, b, c, d = mono
        if a * c or b * d:
            strings.setdefault((a - c, a + b - c - d, a + b, c + d), {})[c] = pair
        else:  # the Laplacian kills it: a weight string of one monomial
            parts.setdefault((a + b, c + d), ({}, x.den))[0][mono] = pair
    # sorted: inputs that share the strings (p-k, q-k, w) come together, p rising, so each
    # string stays cached while it is used
    for (w, _, p, q), coeffs in sorted(strings.items()):
        lo, hi = max(0, -w), min(q, p - w)
        re, im = map(list, zip(*(coeffs.get(c, (0, 0)) for c in range(lo, hi + 1))))
        den = x.den
        for k in range(hi - lo):
            monos, nums = _weight_string(p - k, q - k, w)
            odd = len(nums) % 2  # u^i v^(n-i) is +1 at (1, -1) on i = n, n-2, ...
            vr = sum(re[1 - odd::2]) - sum(re[odd::2])
            vi = sum(im[1 - odd::2]) - sum(im[odd::2])
            if vr or vi:  # x_k = (vr + vi*i) / sigma; the N_c alternate, so sigma = sum |N_c|
                sigma = sum(nums[1 - odd::2]) - sum(nums[odd::2])
                den *= sigma
                term = {m: (vr * t, vi * t) for m, t in zip(monos, nums)}
                parts[p - k, q - k] = _add_into(*parts.get((p - k, q - k), ({}, 1)), term, den)
                re = [sigma * r - vr * t for r, t in zip(re, nums)]
                im = [sigma * s - vi * t for s, t in zip(im, nums)]
            # the rest vanishes at (1, -1); divide it by u + v: q_0 = g_0, q_i = g_i - q_(i-1)
            re, im = (list(accumulate(row[:-1], lambda prev, g: g - prev)) for row in (re, im))
            g = gcd(den, *re, *im)
            if g > 1:
                re, im, den = [r // g for r in re], [s // g for s in im], den // g
        if re[0] or im[0]:  # what is left: the base monomial, of bidegree (p-n, q-n)
            key = (p - hi + lo, q - hi + lo)
            term = {(lo + w, p - hi - w, lo, q - hi): (re[0], im[0])}
            parts[key] = _add_into(*parts.get(key, ({}, 1)), term, den)
    out = {key: SpherePoly._of(nums, den, summed=True) for key, (nums, den) in parts.items()}
    return {key: part for key, part in out.items() if part.nums}


def canonical_form(x: SpherePoly) -> SpherePoly:
    """The sum of the harmonic components: the unique harmonic representative."""
    return SpherePoly.summed(canonicalize(x).values())


def sphere_equal(x: SpherePoly, y: SpherePoly) -> bool:
    """True when x and y agree as functions on the unit sphere."""
    if x == y:
        return True
    return not canonicalize(x - y)


class BEVerdict(NamedTuple):
    """Result of the Burns-Epstein sign condition on a deformation function."""

    satisfies_be: bool
    violating_components: tuple[tuple[int, int], ...]
    components: dict[tuple[int, int], SpherePoly]


def be_check(phi: SpherePoly) -> BEVerdict:
    """Burns-Epstein condition: every harmonic component sits in p >= q + 4.

    Deformations of the standard sphere structure along such phi stay
    embeddable; the verdict lists the offending components otherwise.
    """
    components = canonicalize(phi)
    violating = tuple(sorted(key for key in components if key[0] < key[1] + 4))
    return BEVerdict(not violating, violating, components)
