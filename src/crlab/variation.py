"""First and second variations of the Paneitz operator at the round structure.

Along the deformation line phi_t = t*phi the quadratic form
I_t(f) = <P^t f, f> of the deformed Paneitz operator is studied on

    H  =  direct sum over p >= 1 of H_{p,0} and H_{0,p},

the CR-pluriharmonic directions killed by the undeformed operator.  The
derivative operators at t = 0 have closed forms built from two objects:

    drift              D = phi Z1 Z1 + pb Z1bar Z1bar + phi_1 Z1 + pb_b Z1bar
    torsion potential  E = 4 phi + i T(phi)      (i times the torsion factor)

with pb = conj(phi).  Four times the first variation is

    -2 D conj_kohn - 2 kohn D + 4 (E Z1 Z1 + E_1 Z1),

whose quadratic form vanishes identically on H.  Four times the second
variation is

    16|phi|^2 paneitz + 2|phi|^2 (kohn^2 + conj_kohn^2) + 8 D^2
    - 8 E pb sublap + 8 grad_op(E pb) + 4 kohn(|phi|^2) sublap
    - 8 grad_op(|phi|^2) sublap - 4 grad_op(|phi|^2) conj_kohn
    - 4 kohn grad_op(|phi|^2),

where a multiplication written before an operator composes with it and the
standalone grad_op terms act as first-order operators.  Splitting off the
manifestly nonnegative part 8 D^2 leaves a remainder R with the exact
pairing  <R f, g> = 8 integral (p|phi|^2 - E pb) f_1 conj(g_1)  on
f in H_{p,0} against CR g (and zero from H_{0,p}), which is what ties the
sign of the second variation to the Burns-Epstein condition.

Everything here is verified two ways: these closed forms, and the
independent truncated-expansion route in :mod:`crlab.deformation`
(:func:`variations_from_jets`).

Each exact phi's second variation is built once per process, in a bounded
cache, so a ladder of forms at growing pmax shares one operator.  Forms,
their entries and verdicts are never cached: every form is paired and
checked to be Hermitian anew, and every classification eliminates anew.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import lcm
from operator import matmul
from typing import Iterable, Iterator, NamedTuple

from .deformation import paneitz_family_jet, torsion_potential
from .harmonics import basis, canonicalize
from .integration import (Groups, Sums, Target, Weight, _degree, _groups, _integral, _pair_into,
                          _scale, inner, targets_of)
from .operators import (CONJ_KOHN, KOHN, KOHN_SQUARES, LinOp, MulBy, PANEITZ,
                        SUBLAP, Z1, Z1BAR, ZERO_OP, _collect, _walk, _z1_nums, _z1bar_nums,
                        apply_Z1, apply_Z1bar, grad_op, kohn)
from .scalars import ZERO, GaussianRational, ScalarLike, _make
from .spherepoly import ContentKey, Nums, SpherePoly, _content_key


class PreconditionError(ValueError):
    """An argument lies outside the stated domain of the operation."""


class IdentityCheckError(ArithmeticError):
    """An identity that must hold exactly failed; indicates an internal bug."""


POSITIVE_DEFINITE = "positive-definite"
POSITIVE_SEMIDEFINITE = "positive-semidefinite"
NEGATIVE_DEFINITE = "negative-definite"
NEGATIVE_SEMIDEFINITE = "negative-semidefinite"
INDEFINITE = "indefinite"
ZERO_FORM = "zero"

#: The largest k of the H_(k,0) and H_(0,k) a form is assembled over.
MAX_VARIATION_PMAX = 24


class _Weights(NamedTuple):
    """phi's bidegree, and |phi|^2, w_k and conj(w_k) grouped by torus weight for the kernel."""

    bidegree: tuple[int, int] | None  # phi's, if uniform
    norm: Groups
    norm_den: int
    norm_degree: int  # the holomorphic degree of |phi|^2
    weight: tuple[Groups, Groups]  # w_k, conj(w_k): indexed by a side's conj flag
    weight_den: int
    weight_degree: tuple[int, int]  # the holomorphic degrees of w_k and conj(w_k)


@lru_cache(maxsize=128)
def _weights_of(key: ContentKey, k: int) -> _Weights:
    phi = SpherePoly._of(dict(key[0]), key[1])
    phibar = phi.conj()
    norm = phi * phibar
    weight = norm.scale(k) - torsion_potential(phi) * phibar
    return _Weights(phi.bidegree_if_uniform(), _groups(norm.nums), norm.den,
                    _degree(norm.nums), (_groups(weight.nums), _groups(weight.conj().nums)),
                    weight.den, (_degree(weight.nums), _degree(weight.nums, conj=True)))


def _weights(phi: SpherePoly, k: int) -> _Weights:
    """|phi|^2 and w_k = k|phi|^2 - E conj(phi), memoised per exact phi and k.

    The bounded cache is keyed on phi's content key
    (:func:`crlab.spherepoly._content_key`: its canonical numerators and
    denominator, taken once per instance), so equal polynomials share an
    entry however they were built.  It holds phi's bidegree if uniform, and what
    :func:`crlab.integration._integral` reads: the numerators of |phi|^2,
    w_k and conj(w_k) grouped by torus weight, their denominators
    (conj(w_k) has w_k's) and their holomorphic degrees (conj(w_k)'s is
    w_k's antiholomorphic one), from which a pairing bounds its scale
    without a scan.  The groups are shared between callers and treated as
    read-only.
    """
    return _weights_of(_content_key(phi), k)


#: Each side of H: its field kernel d, and whether it pairs with conj(w_k) (w_k if uniform phi).
#: A basis element's d f is read off its field chain instead (:func:`_gradient_of`).
_SIDES = {"holomorphic": (_z1_nums, False), "antiholomorphic": (_z1bar_nums, True)}


class _Gradient(NamedTuple):
    """An element f's bidegree, and d f's numerators, also indexed by torus weight."""

    bidegree: tuple[int, int] | None  # f's, if uniform
    nums: Nums  # d f over f's own denominator
    targets: dict[Weight, list[Target]]  # targets_of((nums,))
    degrees: tuple[int, int]  # d f's holomorphic and antiholomorphic degrees


@lru_cache(maxsize=256)
def _gradient_of(key: ContentKey, side: str) -> _Gradient:
    """f's bidegree and d f on a side of H, memoised per exact f and side.

    f is keyed, as phi is in :func:`_weights`, on its content key, so equal
    polynomials share an entry however they were built.  d f is step 1 of
    f's field chain on the side (Z1 f, or Z1bar f where the side pairs with
    conj(w_k)), read through :func:`crlab.operators._walk`, so it is built
    by the same kernel call that operator application and form rows use:
    a numerator map over f's denominator, never wrapped as a polynomial or
    reduced.  Its degrees are kept with it, so a pairing bounds its scale
    without a scan.  The entries are shared between callers and treated as
    read-only.
    """
    (_, u0), (_, df) = _walk(((0, None), (-1 if _SIDES[side][1] else 1, None)), key)
    return _Gradient(SpherePoly._of(u0, key[1]).bidegree_if_uniform(), df, targets_of((df,)),
                     (_degree(df), _degree(df, conj=True)))


def drift_operator(phi: SpherePoly) -> LinOp:
    """D = phi Z1 Z1 + conj(phi) Z1bar Z1bar + (Z1 phi) Z1 + (Z1bar conj(phi)) Z1bar."""
    phibar = phi.conj()
    return (
        MulBy(phi) @ Z1 @ Z1
        + MulBy(phibar) @ Z1BAR @ Z1BAR
        + MulBy(apply_Z1(phi)) @ Z1
        + MulBy(apply_Z1bar(phibar)) @ Z1BAR
    )


def _combination(parts: Iterable[tuple[ScalarLike, LinOp]]) -> LinOp:
    """The sum of c * op over (c, op) in parts, collected once."""
    return LinOp(_collect((word, coeff if c == 1 else coeff.scale(c))
                          for c, op in parts for word, coeff in op.terms.items()))


def first_variation(phi: SpherePoly) -> LinOp:
    """d/dt of the deformed Paneitz operator at t = 0."""
    d_op = drift_operator(phi)
    e = torsion_potential(phi)
    # The module docstring's four-times form, each coefficient divided by 4.
    minus_half = Fraction(-1, 2)
    return _combination((
        (minus_half, d_op @ CONJ_KOHN),
        (minus_half, KOHN @ d_op),
        (1, MulBy(e) @ Z1 @ Z1),
        (1, MulBy(apply_Z1(e)) @ Z1),
    ))


def _second_variation_parts(phi: SpherePoly) -> list[tuple[ScalarLike, tuple[LinOp, ...]]]:
    """The second variation minus 2 D^2 as (c, chain) pairs: the sum of c times each composition.

    The module docstring's four-times form without its 8 D^2 term, each
    coefficient divided by 4; a chain's last operator is applied first.
    """
    e = torsion_potential(phi)
    phibar = phi.conj()
    norm = phi * phibar
    e_pb = e * phibar
    grad_norm = grad_op(norm)
    return [
        (4, (MulBy(norm), PANEITZ)),
        (Fraction(1, 2), (MulBy(norm), KOHN_SQUARES)),
        (-2, (MulBy(e_pb), SUBLAP)),
        (2, (grad_op(e_pb),)),
        (1, (MulBy(kohn(norm)), SUBLAP)),
        (-2, (grad_norm, SUBLAP)),
        (-1, (grad_norm, CONJ_KOHN)),
        (-1, (KOHN, grad_norm)),
    ]


@lru_cache(maxsize=32)
def _second_variation_of(key: ContentKey) -> LinOp:
    phi = SpherePoly._of(dict(key[0]), key[1])
    d_op = drift_operator(phi)
    parts = _second_variation_parts(phi)
    parts.insert(2, (2, (d_op, d_op)))
    return _combination((c, reduce(matmul, chain)) for c, chain in parts)


def second_variation(phi: SpherePoly) -> LinOp:
    """d^2/dt^2 of the deformed Paneitz operator at t = 0, built once per exact phi.

    The bounded cache is keyed, as :func:`_weights` is, on phi's canonical
    numerators and denominator, so equal polynomials share one operator
    however they were built.  The operator is shared between callers and
    read-only: its ``terms`` are a read-only mapping, and its plan only
    keeps restrictions.  No form or verdict built from it is cached.
    """
    return _second_variation_of(_content_key(phi))


def variations_from_jets(phi: SpherePoly) -> tuple[LinOp, LinOp]:
    """(first, second) variation operators reconstructed from the t-expansion.

    Independent of the closed forms above: the jet of 4*P^t is assembled in
    :mod:`crlab.deformation` from the deformed frame and connection
    coefficients; its t^1 coefficient is 4*paneitz_dot and its t^2
    coefficient is 2*paneitz_ddot.
    """
    jet = paneitz_family_jet(phi)
    return (
        Fraction(1, 4) * jet.coefficient(1, ZERO_OP),
        Fraction(1, 2) * jet.coefficient(2, ZERO_OP),
    )


# -- quadratic forms ---------------------------------------------------------


class HermitianForm(NamedTuple):
    """Exact matrix <A f_i, f_j> of a sesquilinear form over a fixed basis.

    Stored sparsely: ``rows[i]`` maps each column j to the entry (i, j)
    when that entry is nonzero; every absent entry is zero.
    """

    elements: tuple[SpherePoly, ...]
    rows: tuple[dict[int, GaussianRational], ...]

    @property
    def dimension(self) -> int:
        return len(self.elements)

    @property
    def entries(self) -> tuple[tuple[GaussianRational, ...], ...]:
        """Dense n x n view of the matrix, built on each access."""
        n = self.dimension
        return tuple(tuple(row.get(j, ZERO) for j in range(n)) for row in self.rows)

    def diagonal(self) -> tuple[GaussianRational, ...]:
        return tuple(row.get(i, ZERO) for i, row in enumerate(self.rows))

    def is_zero(self) -> bool:
        return not any(self.rows)

    def is_hermitian(self) -> bool:
        rows = self.rows
        return all(rows[j].get(i, ZERO) == v.conj()
                   for i, row in enumerate(rows) for j, v in row.items())


def pluriharmonic_basis(pmax: int) -> tuple[SpherePoly, ...]:
    """Basis of the truncation of H: H_{k,0} then H_{0,k}, for each 1 <= k <= pmax."""
    return tuple(f for k in range(1, pmax + 1)
                 for f in basis(k, 0).elements + basis(0, k).elements)


def _side(f: SpherePoly) -> tuple[int, int]:
    """The bidegree (k, 0) or (0, k), k >= 1, of f in H_(k,0) or H_(0,k).

    A polynomial of uniform bidegree (k,0) or (0,k) is (anti)holomorphic,
    hence harmonic, so its bidegree alone decides membership.
    """
    bidegree = f.bidegree_if_uniform()
    if bidegree is not None and min(bidegree) == 0 < max(bidegree):
        return bidegree
    raise PreconditionError(f"{f} is not in H_(k,0) or H_(0,k) with k >= 1")


def _rows(op: LinOp, elements: tuple[SpherePoly, ...]) -> list[dict[int, GaussianRational]]:
    """The nonzero entries <op f_i, f_j>, row by row, over the given elements.

    Each f_i must lie in H_(k,0) or H_(0,k) (:func:`_side`), where op
    restricts to sum_m C_m u_m with u_m = Z1^m f_i (m >= 0) on H_(k,0) and
    Z1bar^|m| f_i (m <= 0) on H_(0,k) (:meth:`_Plan.restrict`); each C_m
    is grouped by torus weight once per bidegree.  Row i pairs each
    nonzero C_m, as the weight, with u_m by
    :func:`crlab.integration._pair_into`, each u_m read off f_i's field
    chains and built once per process (:func:`crlab.operators._walk`), so
    the rows that the forms of a ladder share take no field step in the
    later forms.  Every pairing of the form is on one scale S: each u_m
    has f_i's total degree k, so the largest holomorphic degree of the
    C_m, plus the largest k, plus the largest antiholomorphic degree of
    the f_j bounds every moment's h + a, and each entry is one Gaussian
    integer pair over (S+1)! times the denominators, divided once.
    """
    plan = op._get_plan()
    targets = targets_of(f.nums for f in elements)
    sides = [_side(f) for f in elements]
    restrictions: dict[tuple[int, int], list[tuple[int, Groups]]] = {}
    holomorphic = 0
    for bidegree in dict.fromkeys(sides):
        # Asked for once per form, so not kept on the plan as well.
        coeffs = plan.restrict(*bidegree)
        restrictions[bidegree] = [(m, _groups(nums)) for m, nums in coeffs]
        holomorphic = max([holomorphic] + [_degree(nums) for _, nums in coeffs])
    scale = _scale(holomorphic + max(map(sum, sides), default=0)
                   + max((q for _, q in sides), default=0))
    rows = []
    for f, bidegree in zip(elements, sides):
        sums: Sums = {}
        for groups, image in _walk(restrictions[bidegree], _content_key(f)):
            _pair_into(sums, groups, image, targets, scale)
        den = scale.den * plan.den * f.den
        rows.append({j: _make(re, im, den * elements[j].den)
                     for j, (re, im) in sums.items() if re or im})
    return rows


def assemble_form(op: LinOp, pmax: int) -> HermitianForm:
    """Matrix of <op f_i, f_j> over the pluriharmonic basis up to degree pmax.

    The basis is indexed once by torus weight (:func:`targets_of`).  On
    H_(k,0) op acts as sum_m C_m Z1^m, and on H_(0,k) as sum_m C_m
    Z1bar^|m| (m <= 0): the restriction to H_{p,q} that ``op(f)`` also
    applies, exact because each field moves Z1^m f (or Z1bar^|m| f) along
    H_(p-m,q+m) by an exact scalar.  So each row pairs op f_i without
    building it, one X^|m| f_i per nonzero C_m, by the kernel behind
    :func:`crlab.integration.inner`, which multiplies only terms whose
    weights balance.  The form is on one factorial scale (:func:`_rows`):
    each moment M(h, a) times (S+1)! is an integer when S bounds h + a, so
    every entry is one Gaussian-integer pair, summed as the products are
    formed and divided once by (S+1)! times its denominator; only the
    nonzero entries are kept.  Every entry is computed on its
    own; none is filled in by symmetry, and every assembled form is checked
    to be Hermitian: a failed conjugate-symmetry check is an error, which
    is how the "the variation operators are real" claims are asserted.  A
    pmax outside 1..MAX_VARIATION_PMAX, or a basis element outside
    H_(k,0) and H_(0,k), k >= 1, is a :class:`PreconditionError`.
    """
    if not 1 <= pmax <= MAX_VARIATION_PMAX:
        raise PreconditionError(f"pmax must lie in 1..{MAX_VARIATION_PMAX}")
    elements = pluriharmonic_basis(pmax)
    form = HermitianForm(elements, tuple(_rows(op, elements)))
    if not form.is_hermitian():
        raise IdentityCheckError("assembled form is not Hermitian")
    return form


def _blocks(rows: tuple[dict[int, GaussianRational], ...]) -> list[list[int]]:
    """Connected components of the nonzero pattern of a Hermitian matrix."""
    seen = [False] * len(rows)
    blocks = []
    for start in range(len(rows)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:  # grows while it is scanned: a breadth-first search
            for j in rows[i]:
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
        blocks.append(block)
    return blocks


def _pivot_signs(matrix: list[list[GaussianRational]]) -> Iterator[int]:
    """Signs of the pivots of a dense Hermitian block, one per row while decided.

    The block is scaled by the lcm of its denominators, which keeps its
    inertia, and eliminated fraction-free over Gaussian integers (Bareiss):
    with pivot d, the first nonzero diagonal entry, and prev the pivot
    before it, every remaining entry becomes (d*a_ij - a_ip*a_pj) / prev,
    an exact division (each entry is a minor of the block).  The Schur
    complement's pivot is d / prev, so each pivot yields sign(d) *
    sign(prev); by Haynsworth's inertia additivity the signs so far are
    the inertia of a principal submatrix.  A zero diagonal with a nonzero
    off-diagonal entry yields 1 and -1 and stops (that entry's 2x2
    principal block has both signs); zero rows left yield 0 each.  The
    block's inertia is decided exactly when it yields one sign per row.
    """
    scale = lcm(*[v._d for row in matrix for v in row])
    re = [[v._a * (scale // v._d) for v in row] for row in matrix]
    im = [[v._b * (scale // v._d) for v in row] for row in matrix]
    prev = 1
    while re:
        for k, row in enumerate(re):
            if row[k]:
                break
        else:
            # Both signs from a nonzero off-diagonal entry's 2x2 block, else one 0 per zero row.
            yield from (1, -1) if any(map(any, re)) or any(map(any, im)) else [0] * len(re)
            return
        d = row[k]
        yield 1 if (d > 0) == (prev > 0) else -1
        pr, pi = re.pop(k), im.pop(k)
        del pr[k], pi[k]
        for i, (ri, ii) in enumerate(zip(re, im)):
            xr, xi = ri.pop(k), ii.pop(k)
            re[i] = [(d * a - xr * c + xi * e) // prev for a, c, e in zip(ri, pr, pi)]
            im[i] = [(d * b - xr * e - xi * c) // prev for b, c, e in zip(ii, pr, pi)]
        prev = d


def classify(form: HermitianForm) -> str:
    """Exact definiteness class of a Hermitian form.

    The basis splits into the connected blocks of the form's nonzero
    pattern; the matrix is block diagonal over them, so by Sylvester's law
    of inertia the inertia of the form is the sum of the blocks' inertias.
    Each block's pivot signs (:func:`_pivot_signs`) are read until both 1
    and -1 have been seen, in one block or across blocks: the signs seen
    are the inertia of a principal submatrix, and by Cauchy interlacing a
    principal submatrix with eigenvalues of both signs makes the whole
    form indefinite.  Otherwise every block yields one sign per row.  The
    outcome is basis-independent.
    """
    if not form.is_hermitian():
        raise PreconditionError("classification requires a Hermitian matrix")
    rows = form.rows
    signs = set()
    for block in _blocks(rows):
        for sign in _pivot_signs([[rows[i].get(j, ZERO) for j in block] for i in block]):
            signs.add(sign)
            if {1, -1} <= signs:
                return INDEFINITE
    if 1 in signs:
        return POSITIVE_SEMIDEFINITE if 0 in signs else POSITIVE_DEFINITE
    if -1 in signs:
        return NEGATIVE_SEMIDEFINITE if 0 in signs else NEGATIVE_DEFINITE
    return ZERO_FORM


# -- exact identities around the second variation ------------------------------


def drift_square_form(phi: SpherePoly, f: SpherePoly) -> GaussianRational:
    """<D^2 f, f> for f in the kernel of the Paneitz operator.

    Splitting f = u + v into CR and anti-CR parts, the value equals the
    plain squared norm of D f = (phi u_11 + phi_1 u_1) + (pb v_bb + pb_b v_b),
    hence is real and nonnegative; both routes are computed and compared.
    """
    parts = canonicalize(f)
    if any(p > 0 and q > 0 for (p, q) in parts):
        raise PreconditionError("f must lie in the kernel of the Paneitz operator")
    return _drift_square(phi, SpherePoly.summed(parts.values()))


def _drift_square(phi: SpherePoly, rep: SpherePoly) -> GaussianRational:
    """:func:`drift_square_form` on rep, a sum of canonical parts in Ker paneitz."""
    d_op = drift_operator(phi)
    image = d_op(rep)
    value = inner(d_op(image), rep)
    direct = inner(image, image)
    if value != direct:
        raise IdentityCheckError("<D^2 f, f> disagrees with |D f|^2 on Ker paneitz")
    if not value.is_real() or value.real_sign() < 0:
        raise IdentityCheckError("<D^2 f, f> must be real and nonnegative")
    return value


def weighted_gradient_pairing(phi: SpherePoly, k: int, l: int, side: str,
                              f_k: SpherePoly, f_l: SpherePoly) -> GaussianRational:
    """integral of (k|phi|^2 - E conj(phi)) d(f_k) conj(d(f_l)) for uniform phi.

    ``side`` selects d = Z1 on "holomorphic" (elements of H_{k,0}) or
    d = Z1bar on "antiholomorphic" (elements of H_{0,k}).  For phi of
    uniform bidegree (p1, q1) the value vanishes when k != l and equals

        (k + p1 - q1 - 4) * integral |phi|^2 |d f_k|^2

    when k = l; both laws are checked before returning, on every call.
    f_k and f_l must have uniform bidegrees (k, 0) and (l, 0)
    ("holomorphic") or (0, k) and (0, l) ("antiholomorphic"), else
    :class:`PreconditionError`.  Such a polynomial is (anti)holomorphic,
    hence harmonic, so this is exactly membership of a nonzero f_k and f_l
    in H_{k,0} and H_{l,0} (or H_{0,k} and H_{0,l}).

    Nothing per pair is memoised.  Per exact phi and k, the weights are
    (:func:`_weights`); per exact element and side, its bidegree and d f
    are (:func:`_gradient_of`): the field kernel's numerator map over f's
    own denominator, and its torus-weight index.  Both caches are bounded.
    Each integral is one :func:`crlab.integration._integral` pass, computed
    anew on every call, that never forms the product of its weight and
    d f_k.  Its scale S is read off the cached degrees, with no scan: the
    holomorphic degree of the weight (or of |phi|^2) plus that of d f_k
    plus the antiholomorphic degree of d f_l bounds every moment's h + a,
    so each moment M(h, a) times (S+1)! is an integer and the value is one
    Gaussian-integer pair over (S+1)! times the denominators.
    """
    weights = _weights(phi, k)
    if weights.bidegree is None:
        raise PreconditionError("phi must be bihomogeneous (uniform bidegree)")
    if side not in _SIDES:
        raise PreconditionError(f"side must be holomorphic|antiholomorphic, got {side!r}")
    conj = _SIDES[side][1]
    grad_k = _gradient_of(_content_key(f_k), side)
    grad_l = _gradient_of(_content_key(f_l), side)
    if (grad_k.bidegree, grad_l.bidegree) != (((0, k), (0, l)) if conj else ((k, 0), (l, 0))):
        spaces = f"H_(0,{k}) and H_(0,{l})" if conj else f"H_({k},0) and H_({l},0)"
        raise PreconditionError(f"{side} f_k and f_l must lie in {spaces}")
    p1, q1 = weights.bidegree
    den = f_k.den * f_l.den
    reach = grad_k.degrees[0] + grad_l.degrees[1]
    value = _integral(weights.weight[conj], grad_k.nums, grad_l.targets, den * weights.weight_den,
                      weights.weight_degree[conj] + reach)
    if k != l:
        if not value.is_zero():
            raise IdentityCheckError("cross-degree weighted pairing must vanish")
    else:
        expected = (_integral(weights.norm, grad_k.nums, grad_l.targets, den * weights.norm_den,
                              weights.norm_degree + reach) * (k + p1 - q1 - 4))
        if value != expected:
            raise IdentityCheckError("diagonal weighted pairing disagrees with closed form")
    return value


class SecondVariationSplit(NamedTuple):
    """Exact decomposition <paneitz_ddot f, f> = lower_bound + drift_part."""

    value: GaussianRational        # <paneitz_ddot f, f>
    lower_bound: GaussianRational  # the weighted-gradient double sum
    drift_part: GaussianRational   # 2 <D^2 f, f>, always >= 0


def second_variation_decomposition(phi: SpherePoly, f: SpherePoly) -> SecondVariationSplit:
    """Split the second variation's quadratic form on f in H.

    With f = sum f^k + sum g^k (components in H_{k,0} and H_{0,k}) and
    w_k = k|phi|^2 - E conj(phi),

        <paneitz_ddot f, f> = 2 sum_{k,l} integral w_k (Z1 f^k) conj(Z1 f^l)
                            + 2 sum_{k,l} integral conj(w_k) (Z1bar g^k) conj(Z1bar g^l)
                            + 2 <D^2 f, f>,

    verified exactly.  The drift part comes from :func:`drift_square_form`,
    which checks that it equals 2|D f|^2, so it is nonnegative and the double
    sum is an exact lower bound for the quadratic form.  The antiholomorphic side
    carries the conjugate weight (for bihomogeneous phi the weight is real,
    so both sides then share w_k).

    Each double sum is a single sum: with F the sum of a side's components,
    it is sum_k integral w_k (d f^k) conj(d F), so d F is indexed once per
    side and each k is one :func:`crlab.integration._integral` pass on the
    field kernels' numerators, with w_k and conj(w_k) grouped once per
    (phi, k) by the cache behind :func:`weighted_gradient_pairing`.  Each
    pass's scale S is read off its operands: the cached holomorphic degree
    of the weight, plus that of d f^k, plus the antiholomorphic degree of
    d F, which bounds every moment's h + a, so each moment M(h, a) times
    (S+1)! is an integer and the pass sums one Gaussian-integer pair.  The
    pieces and F are sums built per call, so their images are derived here
    rather than memoised like basis elements' (:func:`_gradient_of`).  The
    left side is 2<D^2 f, f>, computed and checked as in
    :func:`drift_square_form` on f's canonical sum (f is split once, D built
    once and applied twice), plus the other (c, chain) parts of
    :func:`_second_variation_parts` applied to f, last operator first, and
    paired with f once; ``second_variation(phi)`` itself is never built.
    """
    parts = canonicalize(f)
    if any((p > 0 and q > 0) or (p == 0 and q == 0) for (p, q) in parts):
        raise PreconditionError("f must lie in H: components H_{k,0}, H_{0,k}, k >= 1")
    holo = {p: piece for (p, q), piece in parts.items() if q == 0}
    anti = {q: piece for (p, q), piece in parts.items() if p == 0}
    rep = SpherePoly.summed(parts.values())

    total = ZERO
    for pieces, (derivative, conj) in zip((holo, anti), _SIDES.values()):
        whole = SpherePoly.summed(pieces.values())
        image = derivative(whole.nums)
        targets, reach = targets_of((image,)), _degree(image, conj=True)
        for k, piece in pieces.items():
            weights = _weights(phi, k)
            image = derivative(piece.nums)
            total += _integral(weights.weight[conj], image, targets,
                               piece.den * whole.den * weights.weight_den,
                               weights.weight_degree[conj] + _degree(image) + reach)
    lower = total * 2

    drift_part = _drift_square(phi, rep) * 2
    images = []
    for c, chain in _second_variation_parts(phi):
        image = rep
        for op in reversed(chain):
            image = op(image)
        images.append(image.scale(c))
    value = inner(SpherePoly.summed(images), rep) + drift_part
    if value != lower + drift_part:
        raise IdentityCheckError("second-variation decomposition failed to balance")
    return SecondVariationSplit(value=value, lower_bound=lower, drift_part=drift_part)
