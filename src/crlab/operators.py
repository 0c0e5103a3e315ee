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

A :class:`LinOp` is kept in normal form: a map from words in the letters
``"Z1"``, ``"Z1bar"`` and ``"T"`` to nonzero polynomial coefficients, the
operator being the sum of coefficient times word.  A word's last letter is
applied first and the empty word is the identity, so ``{(): f}`` is
multiplication by f.  Every letter is a derivation of the polynomial ring,
so a composite moves each inner coefficient b left through the outer word w
by the Leibniz rule

    w (b h) = sum over subwords S of w of (w_S b) (w_{S^c} h),

and is again a sum of coefficients times words.  ``A @ B`` composes
(apply B first).  ``A(f)`` applies each distinct word suffix to f once,
shortest first (a zero suffix image is passed on without a field call),
and then makes one multiply-accumulate pass over the integer view of
:mod:`crlab.spherepoly`: each word's coefficient-times-image products are
brought onto the lcm of the words' denominators, every product of Gaussian
integer numerators is added straight into one term map, and monomials whose
sums cancelled are dropped and one gcd is taken at the end.  The field
appliers multiply numerators by exponents over an unchanged denominator
and accumulate their two partial-derivative images the same way.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import lcm
from typing import Callable, Iterable

from .harmonics import basis
from .integration import inner
from .scalars import GaussianRational, ScalarLike
from .spherepoly import Monomial, SpherePoly, monomial_of


def apply_Z1(poly: SpherePoly) -> SpherePoly:
    """conj(z2) d/dz1 - conj(z1) d/dz2; maps bidegree (p,q) to (p-1, q+1)."""
    nums = poly.nums.items()
    # The d/dz1 images of distinct monomials are distinct; only d/dz2 ones can meet them.
    out = {monomial_of((a - 1, b, c, d + 1)): (x * a, y * a) for (a, b, c, d), (x, y) in nums if a}
    get, count = out.get, len(out)
    for (a, b, c, d), (x, y) in nums:
        if b:
            mono, count = monomial_of((a, b - 1, c + 1, d)), count + 1
            acc = get(mono)
            out[mono] = (-x * b, -y * b) if acc is None else (acc[0] - x * b, acc[1] - y * b)
    return SpherePoly._of(out, poly.den, len(out) < count)


def apply_Z1bar(poly: SpherePoly) -> SpherePoly:
    """z2 d/dconj(z1) - z1 d/dconj(z2); maps bidegree (p,q) to (p+1, q-1)."""
    nums = poly.nums.items()
    out = {monomial_of((a, b + 1, c - 1, d)): (x * c, y * c) for (a, b, c, d), (x, y) in nums if c}
    get, count = out.get, len(out)
    for (a, b, c, d), (x, y) in nums:
        if d:
            mono, count = monomial_of((a + 1, b, c, d - 1)), count + 1
            acc = get(mono)
            out[mono] = (-x * d, -y * d) if acc is None else (acc[0] - x * d, acc[1] - y * d)
    return SpherePoly._of(out, poly.den, len(out) < count)


def apply_T(poly: SpherePoly) -> SpherePoly:
    """Generator of the diagonal circle action: i*m on circle grade m."""
    return SpherePoly._of({mono: (-y * m, x * m) for mono, (x, y) in poly.nums.items()
                           if (m := mono[0] + mono[1] - mono[2] - mono[3])}, poly.den)


Word = tuple[str, ...]

_FIELDS: dict[str, Callable[[SpherePoly], SpherePoly]] = {
    "Z1": apply_Z1, "Z1bar": apply_Z1bar, "T": apply_T}
# T is a real vector field: conj . T . conj = T.
_CONJ_LETTER = {"Z1": "Z1bar", "Z1bar": "Z1", "T": "T"}


class _Images(dict):
    """word -> word(poly), built as ``_Images({(): poly})``.

    Each word is computed on first lookup, from the image of its suffix; a
    zero suffix image is the word's image too, with no field applied.
    """

    def __missing__(self, word: Word) -> SpherePoly:
        rest = self[word[1:]]
        image = self[word] = _FIELDS[word[0]](rest) if rest.nums else rest
        return image


def _splits(word: Word, images: _Images) -> Iterable[tuple[Word, Word]]:
    """(S, rest) over the subwords S of word with images[S] nonzero; rest is the complement.

    ``word`` applied after multiplication by b is the sum of images[S] * rest
    over these pairs, where images[S] = S(b) (the Leibniz rule, one letter
    at a time from the right); a branch ends as soon as its derivative is zero.
    """
    if not word:
        yield (), ()
        return
    first = word[:1]
    for applied, kept in _splits(word[1:], images):
        yield applied, first + kept
        if images[first + applied].nums:
            yield first + applied, kept


def _suffix_order(words: Iterable[Word]) -> list[tuple[Word, Callable, Word]]:
    """(suffix, field of its first letter, rest) for every nonempty suffix of words.

    Shorter suffixes come first, so each one's rest is applied before it.
    """
    suffixes = {word[i:] for word in words for i in range(len(word))}
    return [(word, _FIELDS[word[0]], word[1:]) for word in sorted(suffixes, key=len)]


def _collect(pairs: Iterable[tuple[Word, SpherePoly]]) -> dict[Word, SpherePoly]:
    """Term map of a sum of (word, coefficient) pairs; sums may be zero."""
    grouped: dict[Word, list[SpherePoly]] = {}
    for word, coeff in pairs:
        grouped.setdefault(word, []).append(coeff)
    return {word: SpherePoly.summed(coeffs) for word, coeffs in grouped.items()}


class LinOp:
    """Linear operator on SpherePoly: a sum of polynomial coefficients times words.

    ``terms`` maps each word (a tuple of the letters "Z1", "Z1bar", "T",
    the last applied first) to its coefficient; zero coefficients are
    dropped.  Treat it as read-only.
    """

    __slots__ = ("terms", "_suffixes")

    def __init__(self, terms: dict[Word, SpherePoly]):
        self.terms = {word: coeff for word, coeff in terms.items() if coeff.nums}
        self._suffixes = None

    def apply(self, poly: SpherePoly) -> SpherePoly:
        """The sum over words w of coeff_w * w(poly), in one multiply-accumulate pass.

        Each distinct word suffix is applied to poly once, in the order of
        :func:`_suffix_order` (built on the first call and kept); a zero
        suffix image ends its branch without a field call.  Every word's products are brought onto the lcm of the words'
        denominators (coefficient times image), and every product of a
        coefficient numerator with an image numerator goes straight into
        one term map; cancelled monomials are dropped and one gcd is taken
        at the end.
        """
        suffixes = self._suffixes
        if suffixes is None:
            suffixes = self._suffixes = _suffix_order(self.terms)
        images = {(): poly}
        for word, field, rest in suffixes:
            image = images[rest]
            images[word] = field(image) if image.nums else image
        pairs = [(coeff, image) for word, coeff in self.terms.items()
                 if (image := images[word]).nums]
        den = lcm(*(coeff.den * image.den for coeff, image in pairs)) if pairs else 1
        out: dict[Monomial, tuple[int, int]] = {}
        count = 0
        get = out.get
        for coeff, image in pairs:
            factor = den // (coeff.den * image.den)
            image_nums = image.nums.items()
            count += len(coeff.nums) * len(image_nums)
            for (a1, b1, c1, d1), (x, y) in coeff.nums.items():
                if factor != 1:
                    x, y = x * factor, y * factor
                if not (a1 or b1 or c1 or d1):  # a constant term keeps each image monomial
                    for mono, (u, v) in image_nums:
                        acc = get(mono)
                        if acc is None:
                            out[mono] = (x * u - y * v, x * v + y * u)
                        else:
                            out[mono] = (acc[0] + x * u - y * v, acc[1] + x * v + y * u)
                    continue
                for (a2, b2, c2, d2), (u, v) in image_nums:
                    mono = monomial_of((a1 + a2, b1 + b2, c1 + c2, d1 + d2))
                    acc = get(mono)
                    if acc is None:
                        out[mono] = (x * u - y * v, x * v + y * u)
                    else:
                        out[mono] = (acc[0] + x * u - y * v, acc[1] + x * v + y * u)
        return SpherePoly._of(out, den, len(out) < count)

    def __call__(self, poly: SpherePoly) -> SpherePoly:
        return self.apply(poly)

    def conj_op(self) -> "LinOp":
        """The conjugate operator f -> conj(self(conj(f)))."""
        return LinOp({tuple(_CONJ_LETTER[letter] for letter in word): coeff.conj()
                      for word, coeff in self.terms.items()})

    def __add__(self, other: "LinOp") -> "LinOp":
        if not isinstance(other, LinOp):
            return NotImplemented
        return LinOp(_collect(chain(self.terms.items(), other.terms.items())))

    def __sub__(self, other: "LinOp") -> "LinOp":
        if not isinstance(other, LinOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LinOp":
        return LinOp({word: -coeff for word, coeff in self.terms.items()})

    def __matmul__(self, other: "LinOp") -> "LinOp":
        if not isinstance(other, LinOp):
            return NotImplemented

        def pairs():
            for inner_word, b in other.terms.items():
                images = _Images({(): b})
                for outer_word, a in self.terms.items():
                    for applied, kept in _splits(outer_word, images):
                        yield kept + inner_word, a * images[applied]

        return LinOp(_collect(pairs()))

    def __mul__(self, other):
        if isinstance(other, LinOp):
            return self @ other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return LinOp({word: coeff.scale(other) for word, coeff in self.terms.items()})
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self * other
        return NotImplemented

    def __repr__(self):
        return f"LinOp({self.terms!r})"


def MulBy(factor: SpherePoly | ScalarLike) -> LinOp:
    """Multiplication by a fixed polynomial: the operator {(): factor}."""
    return LinOp({(): factor if isinstance(factor, SpherePoly) else SpherePoly.constant(factor)})


IDENTITY = MulBy(1)
Z1 = LinOp({("Z1",): SpherePoly.constant(1)})
Z1BAR = LinOp({("Z1bar",): SpherePoly.constant(1)})
T = LinOp({("T",): SpherePoly.constant(1)})

ZERO_OP = 0 * IDENTITY

KOHN = -2 * (Z1 @ Z1BAR)
CONJ_KOHN = -2 * (Z1BAR @ Z1)
SUBLAP = Fraction(1, 2) * (KOHN + CONJ_KOHN)
PANEITZ = Fraction(1, 4) * (KOHN @ CONJ_KOHN)


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
    value: GaussianRational | None = None
    for f in basis(p, q).elements:
        image = op(f)
        if image.is_zero():
            candidate = GaussianRational(0)
        else:
            mono = min(f.nums)
            candidate = image.coefficient(mono) / f.coefficient(mono)
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
