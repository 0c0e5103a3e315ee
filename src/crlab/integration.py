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
products that can survive are formed (never w * x as a polynomial).

Every exact integral is taken on one factorial scale S.  The moment
M(h, a) = h! a! / (h+a+1)! of |z1|^(2h) |z2|^(2a) is an integer multiple of
1 / (S+1)! whenever S >= h + a: W_S(h, a) = M(h, a) (S+1)! = h! a! (S+1)! /
(h+a+1)! is an integer, as (h+a+1)! divides (S+1)!.  So the kernel
multiplies each surviving product's numerators by W_S(h, a) and adds them
into one Gaussian-integer pair per target, and each value is that pair over
(S+1)! times the denominators, reduced by one gcd.  A product's moment has
h + a equal to the holomorphic degree of its monomial, at most the
holomorphic degrees of w and x plus the antiholomorphic degree of y
(:func:`_degree`): :func:`inner` and :func:`integrate` read S off their
operands, a form takes it once from the degrees of its restrictions and
basis, and a weighted pairing from the degrees cached with its weight and
gradients.  The W_S(h, a) live in :func:`_scale`, a bounded memo per S that holds
(S+1)! and builds each row h of W_S when the kernel first reads it; a
moment above S finds no row or no entry and raises ``IndexError``, so a
call whose S is too small never returns a value.  A single integral,
:func:`_integral`, reads a bare numerator map x and y indexed once by
:func:`targets_of`, so a caller that holds numerators (field images, a
weight grouped once by :func:`_groups`) pays for no polynomial and no gcd
before the division.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, factorial
from typing import Iterable, Mapping

from .scalars import GaussianRational, _make
from .spherepoly import Nums, SpherePoly

Weight = tuple[int, int]
#: A term (re + im*i)/den_j * z1^a z2^b conj(z1)^c conj(z2)^d of y_j, as (j, c, d, re, im).
Target = tuple[int, int, int, int, int]
#: One Gaussian-integer pair [re, im] per target j, on the scale of a :class:`_Scale`.
Sums = dict[int, list[int]]
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


class _Scale:
    """The integers W_S(h, a) = M(h, a) * (S+1)! for h + a <= S, on demand.

    ``den`` is (S+1)!; ``rows[h]`` is None until :meth:`row` builds it as
    [W_S(h, 0), ..., W_S(h, S-h)], from W_S(h, 0) = (S+1)! / (h+1) by
    W_S(h, a+1) = W_S(h, a) (a+1) / (h+a+2), each quotient exact.  So the
    memo holds one factorial and only the rows that were read.
    """

    __slots__ = ("den", "rows")

    def __init__(self, s: int):
        self.den = factorial(s + 1)
        self.rows: list[list[int] | None] = [None] * (s + 1)

    def row(self, h: int) -> list[int]:
        w = self.den // (h + 1)
        out = [w]
        for a in range(len(self.rows) - 1 - h):
            w = w * (a + 1) // (h + a + 2)
            out.append(w)
        self.rows[h] = out
        return out


@lru_cache(maxsize=16)
def _scale(s: int) -> _Scale:
    """The scale for calls whose moments all have h + a <= s, one per s and process."""
    return _Scale(s)


def _degree(nums: Nums, conj: bool = False) -> int:
    """The largest holomorphic degree a + b of nums' terms, or antiholomorphic c + d if conj."""
    if conj:
        return max([c + d for _, _, c, d in nums], default=0)
    return max([a + b for a, b, _, _ in nums], default=0)


def integrate(poly: SpherePoly) -> GaussianRational:
    """The integral of poly: each diagonal term's numerators times W_S(h, a), S its largest h + a.

    Each moment is read once, so W_S(h, a) is (S+1)! / ((h+a+1) C(h+a, h))
    here rather than a row of the scale, which would cost O(S) integers for
    one entry.
    """
    moments = [(a, b, pair) for (a, b, c, d), pair in poly.nums.items() if a == c and b == d]
    scale = _scale(max((a + b for a, b, _ in moments), default=0))
    re = im = 0
    for a, b, (x, y) in moments:
        w = scale.den // ((a + b + 1) * comb(a + b, a))
        re += x * w
        im += y * w
    return _make(re, im, scale.den * poly.den)


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


def _pair_into(sums: Sums, weight: Groups, x: Nums, targets: Mapping[Weight, list[Target]],
               scale: _Scale) -> None:
    """Add the integral of w * x * conj(y_j), times the scale's (S+1)!, into sums[j].

    ``weight`` is w grouped by :func:`_groups`, and ``targets`` indexes the
    y_j by :func:`targets_of`.  A term of x meets only the w groups and
    y_j terms whose weights balance it; each such product's numerators are
    multiplied by W_S(h, a) of its moment and added into the pair sums[j],
    which is created at j's first match.  The result is over (S+1)! times
    the product of the three denominators.  A moment with h + a above the
    scale's S raises IndexError.
    """
    rows = scale.rows
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
                    row = rows[ka + oc]
                    if row is None:
                        row = scale.row(ka + oc)
                    w = row[kb + od]
                    acc = sums.get(j)
                    if acc is None:
                        sums[j] = [(p * u + q * v) * w, (q * u - p * v) * w]
                    else:
                        acc[0] += (p * u + q * v) * w
                        acc[1] += (q * u - p * v) * w


def _integral(weight: Groups, x: Nums, targets: Mapping[Weight, list[Target]],
              den: int, s: int) -> GaussianRational:
    """The integral of w * x * conj(y) over den, for numerator maps x and y.

    ``weight`` is w's numerators grouped by :func:`_groups` (``_ONE`` for
    w = 1), ``targets`` is y indexed by ``targets_of((y,))``, den is the
    product of the three denominators, and s bounds every h + a: the
    holomorphic degrees of w and x plus the antiholomorphic degree of y.
    One :func:`_pair_into` pass into a single pair, then one division.
    """
    scale = _scale(s)
    sums: Sums = {}
    _pair_into(sums, weight, x, targets, scale)
    re, im = sums.get(0, (0, 0))
    return _make(re, im, scale.den * den)


def inner(x: SpherePoly, y: SpherePoly) -> GaussianRational:
    """<x, y> = integral of x * conj(y): one :func:`_integral` call with w = 1."""
    return _integral(_ONE, x.nums, targets_of((y.nums,)), x.den * y.den,
                     _degree(x.nums) + _degree(y.nums, conj=True))
