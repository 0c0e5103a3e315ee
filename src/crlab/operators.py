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
multiplication by f.  Every letter L is a derivation of the polynomial
ring, so composing it after a term b*v is one Leibniz step

    L (b v) = L(b) v + b (L v),

which is again a sum of coefficients times words.  ``A @ B`` composes
(apply B first): it moves each coefficient of B left through each word of
A by this step, one letter at a time, last letter first.

Both ways of using an operator read one plan, built from its terms on
first use: every word's coefficient numerators brought once onto one
shared denominator, the lcm of theirs.  The fields act through kernels on
the integer view of :mod:`crlab.spherepoly`: a kernel multiplies
numerators by exponents over an unchanged denominator, so the images of f
are numerator maps over f's denominator that are never wrapped as
polynomials or reduced.  (``apply_Z1``, ``apply_Z1bar`` and ``apply_T``
are the same kernels followed by one gcd.)

* On H_{p,q} every word acts as a Gaussian integer times some
  u_m = Z1^m f (m >= 0) or Z1bar^|m| f (m < 0), found by walking the
  word's letters through the restriction rules, so the plan also gives
  A's restriction there, sum over m of C_m u_m.  ``A(f)`` for f in some
  H_{p,q} adds C_m u_m, with no word's own image, and
  :func:`crlab.assemble_form` pairs each row on H_{k,0} and H_{0,k} with
  the C_m without building A(f_i) at all.  Both read the u_m off f's
  field chains, Z1^j f and Z1bar^j f, in one bounded memo keyed on f's
  content key (:func:`crlab.spherepoly._content_key`, taken once per
  instance) and grown one kernel call at a time by :func:`_walk` only
  past what an earlier caller built: each u_m of an element is built
  once per process, whichever operator, form or weighted pairing (whose
  d f is step 1 of the chain) asks for it.  Only the chains are kept;
  no image A(f) is.
* ``A(f)`` for any other f applies each word to f letter by letter, last
  letter first, up to the first zero image, and adds the word's
  coefficient times that image with the polynomial product's kernel, into
  one term map with one gcd at the end.  That word route is one helper,
  :func:`_apply_words`, on numerator maps; its second caller is
  :func:`bochner_residual`, which applies ``KOHN``'s words to field
  images and products that are never made polynomials.
* :func:`common_eigenvalue` reads A's eigenvalue on H_{p,q} off A's
  restriction there, with no basis and no application: A is scalar there
  exactly when the restriction is a constant C_0 alone (or empty).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, TypeVar

from .harmonics import _laplacian_nums, basis
from .integration import inner
from .scalars import ZERO, GaussianRational, ScalarLike, _make
from .spherepoly import ContentKey, Nums, SpherePoly, _conj_nums, _content_key, _mul_into


# Field kernels: each maps a numerator map to the numerators of the field's
# image over the same denominator (every coefficient is an integer multiple
# of one numerator), with no zero pair and no gcd taken.

def _z1_nums(nums: Nums) -> Nums:
    items = nums.items()
    # The d/dz1 images of distinct monomials are distinct; only d/dz2 ones can meet them.
    out = {(a - 1, b, c, d + 1): (x * a, y * a) for (a, b, c, d), (x, y) in items if a}
    get = out.get
    for (a, b, c, d), (x, y) in items:
        if b:
            mono = (a, b - 1, c + 1, d)
            acc = get(mono)
            if acc is None:
                out[mono] = (-x * b, -y * b)
            elif acc[0] != x * b or acc[1] != y * b:
                out[mono] = (acc[0] - x * b, acc[1] - y * b)
            else:  # cancelled; no other d/dz2 image lands here
                del out[mono]
    return out


def _z1bar_nums(nums: Nums) -> Nums:
    items = nums.items()
    out = {(a, b + 1, c - 1, d): (x * c, y * c) for (a, b, c, d), (x, y) in items if c}
    get = out.get
    for (a, b, c, d), (x, y) in items:
        if d:
            mono = (a + 1, b, c, d - 1)
            acc = get(mono)
            if acc is None:
                out[mono] = (-x * d, -y * d)
            elif acc[0] != x * d or acc[1] != y * d:
                out[mono] = (acc[0] - x * d, acc[1] - y * d)
            else:
                del out[mono]
    return out


def _t_nums(nums: Nums) -> Nums:
    return {mono: (-y * m, x * m) for mono, (x, y) in nums.items()
            if (m := mono[0] + mono[1] - mono[2] - mono[3])}


def apply_Z1(poly: SpherePoly) -> SpherePoly:
    """conj(z2) d/dz1 - conj(z1) d/dz2; maps bidegree (p,q) to (p-1, q+1)."""
    return SpherePoly._of(_z1_nums(poly.nums), poly.den)


def apply_Z1bar(poly: SpherePoly) -> SpherePoly:
    """z2 d/dconj(z1) - z1 d/dconj(z2); maps bidegree (p,q) to (p+1, q-1)."""
    return SpherePoly._of(_z1bar_nums(poly.nums), poly.den)


def apply_T(poly: SpherePoly) -> SpherePoly:
    """Generator of the diagonal circle action: i*m on circle grade m."""
    return SpherePoly._of(_t_nums(poly.nums), poly.den)


Word = tuple[str, ...]
_Coeff = TypeVar("_Coeff")

_KERNELS: dict[str, Callable[[Nums], Nums]] = {
    "Z1": _z1_nums, "Z1bar": _z1bar_nums, "T": _t_nums}
# T is a real vector field: conj . T . conj = T.
_CONJ_LETTER = {"Z1": "Z1bar", "Z1bar": "Z1", "T": "T"}


class _Plan:
    """How a LinOp is applied, built once from its terms.

    ``words`` holds (word, coefficient numerators) with every coefficient
    brought onto the one denominator ``den``, the lcm of theirs.
    Application and :func:`common_eigenvalue` read :meth:`restrict`'s
    result through :meth:`restriction`, which keeps it per (p, q) so each
    H_{p,q} is restricted to once per plan; form assembly calls
    :meth:`restrict` itself, once per H_{k,0} and H_{0,k} of a form.
    """

    __slots__ = ("words", "den", "_restrictions")

    def __init__(self, terms: Mapping[Word, SpherePoly]):
        self.den = den = lcm(*(coeff.den for coeff in terms.values()))
        self.words: list[tuple[Word, Nums]] = []
        for word, coeff in terms.items():
            factor = den // coeff.den
            self.words.append((word, coeff.nums if factor == 1 else {
                mono: (x * factor, y * factor) for mono, (x, y) in coeff.nums.items()}))
        self._restrictions: dict[tuple[int, int], list[tuple[int, Nums]]] = {}

    def restriction(self, p: int, q: int) -> list[tuple[int, Nums]]:
        """:meth:`restrict` (p, q), built on first use and kept on the plan."""
        out = self._restrictions.get((p, q))
        if out is None:
            out = self._restrictions[(p, q)] = self.restrict(p, q)
        return out

    # The fields on H_{p,q}: for f in H_{p,q} let u_m = Z1^m f for m >= 0 and
    # u_m = Z1bar^|m| f for m < 0, so u_m lies in H_(p-m,q+m) and is 0 outside
    # -q <= m <= p.  Since Z1bar Z1 = -a(b+1) and Z1 Z1bar = -(a+1)b on a
    # harmonic of bidegree (a, b) (conj_kohn and kohn are 2(b+1)a and 2(a+1)b
    # there, as polynomial identities),
    #     Z1 u_m    = u_(m+1) for m >= 0,  -(p-m)(q+m+1) u_(m+1) for m < 0,
    #     Z1bar u_m = u_(m-1) for m <= 0,  -(p-m+1)(q+m) u_(m-1) for m > 0,
    #     T u_m     = i(p-q-2m) u_m.
    # A step with a factor other than 1 between u_e and u_(e+1), either way,
    # gives -(p-e)(q+e+1).

    def restrict(self, p: int, q: int) -> list[tuple[int, Nums]]:
        """The operator on H_{p,q} as sum_m C_m u_m, u_m as in the rules above.

        Returns (m, C_m's numerators over ``den``) for each nonzero C_m, m
        ascending.  Each word's letters, last first, take u_0 to a Gaussian
        integer times u_m by the rules, and the word's coefficient times
        that integer is added to C_m.  A word that takes m outside -q..p
        kills H_{p,q}.
        """
        sums: dict[int, Nums] = {}
        for word, coeff_nums in self.words:
            m, re, im = 0, 1, 0
            for letter in reversed(word):
                if letter == "T":
                    c = p - q - 2 * m
                    re, im = -im * c, re * c
                elif letter == "Z1":
                    if m < 0:
                        c = -(p - m) * (q + m + 1)
                        re, im = re * c, im * c
                    m += 1
                    if m > p:
                        break
                else:
                    m -= 1
                    if m < -q:
                        break
                    if m >= 0:
                        c = -(p - m) * (q + m + 1)
                        re, im = re * c, im * c
            else:
                if re or im:
                    _mul_into(sums.setdefault(m, {}), {(0, 0, 0, 0): (re, im)}, coeff_nums)
        out = []
        for m in sorted(sums):
            nums = {mono: pair for mono, pair in sums[m].items() if pair != (0, 0)}
            if nums:
                out.append((m, nums))
        return out


@lru_cache(maxsize=1024)
def _chains_of(key: ContentKey) -> tuple[dict[int, Nums], dict[int, Nums]]:
    """The field chains {j: Z1^j f} and {j: Z1bar^j f} of the f with this content key.

    Each starts as {0: f's numerators}; :func:`_walk` extends it.
    """
    nums = dict(key[0])
    return {0: nums}, {0: nums}


def _walk(terms: Iterable[tuple[int, _Coeff]], key: ContentKey) -> Iterator[tuple[_Coeff, Nums]]:
    """(C_m, u_m) for each (m, C_m) of a restriction, in order, u_0 the f keyed by key.

    Each u_m (Z1^m f for m >= 0, Z1bar^|m| f for m < 0) is read from f's
    field chains (:func:`_chains_of`, a bounded memo keyed on f's content),
    which are extended outward, one field-kernel call per step, only past
    what an earlier walk built: each u_m of an element is built once per
    process.  A step is stored under its index and computed from the step
    below, so walks that overlap can only store equal images.  The images
    are numerator maps over f's denominator, shared between callers and
    treated as read-only.
    """
    raised, lowered = _chains_of(key)
    for m, coeff in terms:
        chain, kernel, j = (raised, _z1_nums, m) if m >= 0 else (lowered, _z1bar_nums, -m)
        for i in range(len(chain), j + 1):
            chain[i] = kernel(chain[i - 1])
        yield coeff, chain[j]


def _harmonic_bidegree(nums: Nums) -> tuple[int, int] | None:
    """(p, q) when nums are the numerators of a nonzero element of H_{p,q}, else None.

    A polynomial of uniform bidegree (p, 0) or (0, q) is (anti)holomorphic,
    hence harmonic; otherwise its flat Laplacian must vanish.
    """
    keys = iter(nums)
    first = next(keys, None)
    if first is None:
        return None
    a, b, c, d = first
    p, q = a + b, c + d
    for a, b, c, d in keys:
        if a + b != p or c + d != q:
            return None
    if p and q and any(x or y for x, y in _laplacian_nums(nums).values()):
        return None
    return p, q


def _apply_words(out: Nums, words: Iterable[tuple[Word, Nums]], nums: Nums) -> int:
    """Add sum over words of coeff * word(nums) into out; return the products formed.

    words are a plan's (word, coefficient numerators).  Each word applies
    its letters' field kernels to nums, last letter first, up to the first
    zero image, and a nonzero image is multiplied by the word's
    coefficient with the polynomial product's kernel, so out gets the
    numerators over the plan's ``den`` times nums' denominator, unreduced
    and unchecked for zero.
    """
    count = 0
    for word, coeff_nums in words:
        image = nums
        for letter in reversed(word):
            if not image:
                break
            image = _KERNELS[letter](image)
        if image:
            count += _mul_into(out, coeff_nums, image)
    return count


def _combination(*terms: tuple[int, Nums]) -> Nums:
    """sum of k * nums over the (k, nums) given, as one numerator map, unchecked for zero."""
    out: Nums = {}
    get = out.get
    for k, nums in terms:
        for mono, (x, y) in nums.items():
            acc = get(mono)
            out[mono] = (x * k, y * k) if acc is None else (acc[0] + x * k, acc[1] + y * k)
    return out


def _collect(pairs: Iterable[tuple[Word, SpherePoly]]) -> dict[Word, SpherePoly]:
    """Term map of a sum of (word, coefficient) pairs; sums may be zero."""
    grouped: dict[Word, list[SpherePoly]] = {}
    for word, coeff in pairs:
        grouped.setdefault(word, []).append(coeff)
    return {word: SpherePoly.summed(coeffs) for word, coeffs in grouped.items()}


def _after(letter: str, terms: Mapping[Word, SpherePoly]) -> dict[Word, SpherePoly]:
    """Terms of letter composed after the sum of terms, by L (b v) = L(b) v + b (L v)."""
    kernel = _KERNELS[letter]
    out = {(letter,) + word: b for word, b in terms.items()}
    for word, b in terms.items():
        image = SpherePoly._of(kernel(b.nums), b.den)
        out[word] = out[word] + image if word in out else image
    return {word: coeff for word, coeff in out.items() if coeff.nums}


class LinOp:
    """Linear operator on SpherePoly: a sum of polynomial coefficients times words.

    ``terms`` is a read-only mapping from each word (a tuple of the letters
    "Z1", "Z1bar", "T", the last applied first) to its coefficient; zero
    coefficients are dropped.  The plan that application, ``op(poly)``,
    and form assembly share (the coefficients on one denominator and the
    restrictions to each H_{p,q} asked for) is built from it on first use.
    """

    __slots__ = ("terms", "_plan")

    def __init__(self, terms: Mapping[Word, SpherePoly]):
        self.terms = MappingProxyType({word: coeff for word, coeff in terms.items() if coeff.nums})
        self._plan = None

    def _get_plan(self) -> _Plan:
        plan = self._plan
        if plan is None:
            plan = self._plan = _Plan(self.terms)
        return plan

    def __call__(self, poly: SpherePoly) -> SpherePoly:
        """The sum over words w of coeff_w * w(poly).

        On a nonzero poly in some H_{p,q} (:func:`_harmonic_bidegree`) that
        sum is sum_m C_m u_m (:meth:`_Plan.restriction`), and each nonzero
        C_m is multiplied in once.  The u_m come from poly's field chains
        (:func:`_walk`), keyed on its content only after the membership
        test: at most p+q field-kernel calls, and none for the steps an
        earlier call on an equal polynomial built.  On any
        other poly each word applies its letters' field kernels, last letter
        first, up to the first zero image, and a nonzero image is multiplied
        by the word's coefficient.  Either way the numerators (the
        coefficients' on the plan's shared denominator) are added with the
        polynomial product's kernel into one term map over
        ``plan.den * poly.den``, which is reduced once at the end.
        """
        plan = self._get_plan()
        nums = poly.nums
        bidegree = _harmonic_bidegree(nums)
        out: Nums = {}
        if bidegree is None:
            count = _apply_words(out, plan.words, nums)
        else:
            count = 0
            for coeff_nums, image in _walk(plan.restriction(*bidegree), _content_key(poly)):
                count += _mul_into(out, coeff_nums, image)
        return SpherePoly._of(out, plan.den * poly.den, len(out) < count)

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
                for outer_word, a in self.terms.items():
                    terms = {(): b}
                    for letter in reversed(outer_word):
                        terms = _after(letter, terms)
                    for word, coeff in terms.items():
                        yield word + inner_word, a * coeff

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
        return f"LinOp({dict(self.terms)!r})"


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
#: kohn^2 + conj_kohn^2, a term of the second variation.
KOHN_SQUARES = KOHN @ KOHN + CONJ_KOHN @ CONJ_KOHN


def kohn(x: SpherePoly) -> SpherePoly:
    """Kohn Laplacian; 2(p+1)q on H_{p,q}."""
    return KOHN(x)


def conj_kohn(x: SpherePoly) -> SpherePoly:
    """The conjugate Kohn Laplacian; 2(q+1)p on H_{p,q}."""
    return CONJ_KOHN(x)


def sublap(x: SpherePoly) -> SpherePoly:
    """Sub-Laplacian; 2pq+p+q on H_{p,q}."""
    return SUBLAP(x)


def paneitz(x: SpherePoly) -> SpherePoly:
    """CR Paneitz operator; pq(p+1)(q+1) on H_{p,q}, annihilating H_{p,0} and H_{0,q}."""
    return PANEITZ(x)


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
                     - (1/2) phi_b * conj(box_b)
                     - box_b * conj(phi_b)
                     - (Z1bar Z1bar Z1 phi) * conj(phi_b)
                     + 2 e,

    where ``_b`` is Z1bar, ``phi_bb`` is Z1bar Z1bar phi, ``phi_b1`` is
    Z1 Z1bar phi and box_b is Z1bar(kohn phi); pointwise pairings of
    (0,1)-forms are coefficient times conjugate coefficient.  The identity
    follows from the Leibniz rule and the commutator [Z1, Z1bar] = -iT,
    both identities of differential operators on C^2, so the residual is
    the zero polynomial for every phi, not only zero on the sphere.

    It is summed on integer numerators.  Every field image comes from the
    kernels as a numerator map over phi's denominator ``den``, never
    wrapped or reduced, and kohn acts on numerator maps through the words
    of ``KOHN``'s own plan (:func:`_apply_words`), whose coefficients lie
    over the plan's denominator d_K: kohn(phi) is K over d_K den, box_b is
    Z1bar K over d_K den, and kohn(e) is the words applied to |phi_b|^2
    over d_K den^2.  Over 2 d_K den^2 every term is then an integer times a
    product of two maps,

        -kohn(|phi_b|^2) - 2 d_K |phi_bb|^2 - 2 d_K |phi_b1|^2
        + phi_b conj(box_b) + (2 box_b + 2 d_K Z1bar Z1bar Z1 phi - 4 d_K phi_b) conj(phi_b),

    each added by the polynomial product's kernel into one map, which is
    reduced by one gcd at the end.
    """
    plan = KOHN._get_plan()
    words, d_k = plan.words, plan.den
    nums = phi.nums
    phi_b = _z1bar_nums(nums)
    phi_b_conj = _conj_nums(phi_b)
    phi_bb = _z1bar_nums(phi_b)
    phi_b1 = _z1_nums(phi_b)
    kohn_phi: Nums = {}
    _apply_words(kohn_phi, words, nums)
    box_b = _z1bar_nums(kohn_phi)
    minus_e: Nums = {}
    _mul_into(minus_e, _combination((-1, phi_b)), phi_b_conj)
    out: Nums = {}
    _apply_words(out, words, minus_e)
    _mul_into(out, _combination((-2 * d_k, phi_bb)), _conj_nums(phi_bb))
    _mul_into(out, _combination((-2 * d_k, phi_b1)), _conj_nums(phi_b1))
    _mul_into(out, phi_b, _conj_nums(box_b))
    grouped = _combination((2, box_b), (2 * d_k, _z1bar_nums(_z1bar_nums(_z1_nums(nums)))),
                           (-4 * d_k, phi_b))
    _mul_into(out, grouped, phi_b_conj)
    return SpherePoly._of(out, 2 * d_k * phi.den ** 2, True)


def common_eigenvalue(op: LinOp, p: int, q: int) -> GaussianRational:
    """The exact scalar by which op acts on H_{p,q}; raises if op is not scalar there.

    Read off op's restriction to H_{p,q}, sum_m C_m u_m
    (:meth:`_Plan.restriction`), with no basis built and nothing applied:
    op acts as lam exactly when the restriction is empty (lam = 0) or the
    single term m = 0 with a constant C_0 = lam.

    Why that is exact: the restriction rules hold as polynomial identities,
    so op(f) - lam f = (C_0 - lam) u_0 + sum_{m != 0} C_m u_m for every f in
    H_{p,q}, and if sum_m A_m u_m(f) = 0 for every f then every A_m = 0.
    For the basis element f_w of torus weight (w, p-q-w), u_m(f_w) has
    weight (w-m, p-q-w-m).  At the point (z1, z2, conj z1, conj z2) =
    (1, 0, 1, 0) only monomials free of z2 and conj z2 survive, so there
    M_{w,m} = u_m(f_w) can be nonzero only at w = p-q-m, a permutation
    pattern.  Each of those entries is nonzero: Z1^m (m <= p) and
    Z1bar^|m| (|m| <= q) are injective on H_{p,q}, and the weight
    (p-q-2m, 0) part of H_(p-m,q+m) is spanned by one element with
    coefficient 1 on z1^(p-m) conj(z1)^(q+m)
    (:func:`crlab.harmonics._weight_string`).  So det M is a nonzero
    polynomial, and sum_m A_m M_{w,m} = 0 for every w forces every A_m to
    vanish where det M does not, a dense set, hence identically.
    """
    if p < 0 or q < 0:
        raise ValueError("bidegrees must be nonnegative")
    plan = op._get_plan()
    terms = plan.restriction(p, q)
    if not terms:
        return ZERO
    if len(terms) == 1:
        (m, nums), = terms
        if m == 0 and nums.keys() == {(0, 0, 0, 0)}:
            x, y = nums[(0, 0, 0, 0)]
            return _make(x, y, plan.den)
    raise ArithmeticError(f"operator is not scalar on H_({p},{q})")


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
