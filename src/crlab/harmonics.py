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

The decomposition is computed recursively: if f has bidegree (p, q) and
Delta f = sum_j r^(2j) u_j, then the higher components of f are
h_{j+1} = u_j / ((j+1)(p+q-j))  (from Delta(r^(2k) h) = k(p+q-k+1) r^(2k-2) h
for h of bidegree (p-k, q-k)), and h_0 is whatever remains.  The recursion
terminates after min(p, q) steps.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .spherepoly import Monomial, Nums, SpherePoly, radius_sq


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
    order included, so the output is deterministic.  Each basis is built
    once per process and shared (``functools.cache``); a rejected bidegree
    or a failed rank check raises and caches nothing.
    """
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be nonnegative")
    result = HarmonicBasis(p, q, tuple(_kernel_basis(p, q)))
    if len(result.elements) != p + q + 1:
        raise ArithmeticError(f"H_({p},{q}) kernel rank {len(result.elements)} != {p + q + 1}")
    return result


def _kernel_basis(p: int, q: int) -> list[SpherePoly]:
    """One :func:`_weight_string` per torus weight, ordered by top monomial."""
    strings = [_weight_string(p, q, w) for w in range(-q, p + 1)]
    return sorted(strings, key=lambda f: next(iter(f.nums)))


def _weight_string(p: int, q: int, w: int) -> SpherePoly:
    """The harmonic of bidegree (p, q) and torus weight w, top coefficient 1.

    The weight-w monomials are m_c = (c+w, p-c-w, c, q-c) for c in
    lo..hi = max(0, -w)..min(q, p-w), and the Laplacian sends sum x_c m_c to
    zero exactly when (c+1)(c+1+w) x_{c+1} + (p-c-w)(q-c) x_c = 0; every
    factor is nonzero on that range, so the kernel is one-dimensional.  Over
    D = prod_{lo<=k<hi} (p-k-w)(q-k), x_c has the integer numerator
    prod_{lo<=k<c} (p-k-w)(q-k) * prod_{c<=k<hi} -(k+1)(k+1+w).  The top
    monomial (largest c, lex-largest) comes first in the term map, then the
    others with c ascending, as RREF lists its pivot columns.
    """
    lo, hi = max(0, -w), min(q, p - w)
    downward = [1]  # downward[hi - c] = prod_{c<=k<hi} -(k+1)(k+1+w)
    for c in range(hi - 1, lo - 1, -1):
        downward.append(downward[-1] * -(c + 1) * (c + 1 + w))
    rest: Nums = {}
    den = 1  # prod_{lo<=k<c} (p-k-w)(q-k), D once the loop ends
    for c in range(lo, hi):
        rest[(c + w, p - c - w, c, q - c)] = (den * downward[hi - c], 0)
        den *= (p - c - w) * (q - c)
    return SpherePoly._of({(hi + w, p - hi - w, hi, q - hi): (den, 0), **rest}, den)


def solid_decomposition(f: SpherePoly, p: int, q: int) -> list[tuple[int, SpherePoly]]:
    """Write bihomogeneous f of bidegree (p,q) as sum of r^(2k) h_k exactly.

    Returns [(k, h_k)] with h_k in H_{p-k,q-k}; the polynomial identity
    f = sum r^(2k) h_k holds, not just the sphere restriction.
    """
    if p == 0 or q == 0:
        return [(0, f)] if not f.is_zero() else []
    lap = flat_laplacian(f)
    if lap.is_zero():
        return [(0, f)] if not f.is_zero() else []
    higher: list[tuple[int, SpherePoly]] = []
    remainder = f
    for j, u in solid_decomposition(lap, p - 1, q - 1):  # each j once
        k = j + 1
        h = u.scale(Fraction(1, k * (p + q - j)))
        higher.append((k, h))
        remainder = remainder - radius_sq ** k * h
    return higher if remainder.is_zero() else [(0, remainder)] + higher


def canonicalize(x: SpherePoly) -> dict[tuple[int, int], SpherePoly]:
    """Harmonic components of x: x agrees on S^3 with the sum of the values.

    The result maps (p, q) to a nonzero element of H_{p,q}; an empty map
    means x vanishes on the sphere.  This is the normal form behind
    :func:`sphere_equal`, and applying it to any single component returns
    that component unchanged.
    """
    out: dict[tuple[int, int], SpherePoly] = {}
    for (p, q), piece in x.bigraded_components().items():
        for k, h in solid_decomposition(piece, p, q):
            key = (p - k, q - k)
            acc = out.get(key)
            total = h if acc is None else acc + h
            if total.is_zero():
                out.pop(key, None)
            else:
                out[key] = total
    return out


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
