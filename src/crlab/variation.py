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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .deformation import paneitz_family_jet
from .harmonics import basis, canonicalize
from .integration import inner, moment
from .operators import (CONJ_KOHN, KOHN, LinOp, MulBy, PANEITZ, SUBLAP, Z1,
                        Z1BAR, ZERO_OP, apply_T, apply_Z1, apply_Z1bar, grad_op,
                        kohn)
from .scalars import ZERO, GaussianRational, I
from .spherepoly import Monomial, SpherePoly


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


def torsion_potential(phi: SpherePoly) -> SpherePoly:
    """E = 4*phi + i*T(phi); constant multiple (4 + q - p) * phi on P_{p,q}."""
    return phi.scale(4) + apply_T(phi).scale(I)


@lru_cache(maxsize=128)
def _weights_of(terms: frozenset, k: int) -> tuple[SpherePoly, SpherePoly]:
    phi = SpherePoly(dict(terms))
    phibar = phi.conj()
    norm = phi * phibar
    return norm, norm.scale(k) - torsion_potential(phi) * phibar


def _weights(phi: SpherePoly, k: int) -> tuple[SpherePoly, SpherePoly]:
    """(|phi|^2, w_k) with w_k = k|phi|^2 - E conj(phi), memoised per exact phi and k.

    The bounded cache is keyed on phi's term set, so equal polynomials
    share an entry however they were built; the returned polynomials are
    immutable and shared between callers.
    """
    return _weights_of(frozenset(phi.terms.items()), k)


def drift_operator(phi: SpherePoly) -> LinOp:
    """D = phi Z1 Z1 + conj(phi) Z1bar Z1bar + (Z1 phi) Z1 + (Z1bar conj(phi)) Z1bar."""
    phibar = phi.conj()
    return (
        MulBy(phi) @ Z1 @ Z1
        + MulBy(phibar) @ Z1BAR @ Z1BAR
        + MulBy(apply_Z1(phi)) @ Z1
        + MulBy(apply_Z1bar(phibar)) @ Z1BAR
    )


def first_variation(phi: SpherePoly) -> LinOp:
    """d/dt of the deformed Paneitz operator at t = 0."""
    d_op = drift_operator(phi)
    e = torsion_potential(phi)
    four_times = (
        (-2) * (d_op @ CONJ_KOHN)
        + (-2) * (KOHN @ d_op)
        + 4 * (MulBy(e) @ Z1 @ Z1 + MulBy(apply_Z1(e)) @ Z1)
    )
    return Fraction(1, 4) * four_times


def second_variation(phi: SpherePoly) -> LinOp:
    """d^2/dt^2 of the deformed Paneitz operator at t = 0."""
    d_op = drift_operator(phi)
    e = torsion_potential(phi)
    phibar = phi.conj()
    norm = phi * phibar
    e_pb = e * phibar
    four_times = (
        16 * (MulBy(norm) @ PANEITZ)
        + 2 * (MulBy(norm) @ (KOHN @ KOHN + CONJ_KOHN @ CONJ_KOHN))
        + 8 * (d_op @ d_op)
        + (-8) * (MulBy(e_pb) @ SUBLAP)
        + 8 * grad_op(e_pb)
        + 4 * (MulBy(kohn(norm)) @ SUBLAP)
        + (-8) * (grad_op(norm) @ SUBLAP)
        + (-4) * (grad_op(norm) @ CONJ_KOHN)
        + (-4) * (KOHN @ grad_op(norm))
    )
    return Fraction(1, 4) * four_times


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


@dataclass(frozen=True)
class HermitianForm:
    """Exact matrix <A f_i, f_j> of a sesquilinear form over a fixed basis.

    Stored sparsely: ``rows[i]`` maps each column j to the entry (i, j)
    when that entry is nonzero; every absent entry is zero.
    """

    labels: tuple[str, ...]
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


@dataclass(frozen=True)
class BasisVector:
    """One basis direction of the truncated pluriharmonic space H."""

    label: str
    element: SpherePoly
    degree: int
    side: str  # "holomorphic" (H_{k,0}) or "antiholomorphic" (H_{0,k})


def pluriharmonic_basis(pmax: int) -> tuple[BasisVector, ...]:
    """Labeled basis of the truncation of H: H_{k,0} and H_{0,k} for 1 <= k <= pmax."""
    out: list[BasisVector] = []
    for k in range(1, pmax + 1):
        for f in basis(k, 0).elements:
            out.append(BasisVector(f.to_source(), f, k, "holomorphic"))
        for f in basis(0, k).elements:
            out.append(BasisVector(f.to_source(), f, k, "antiholomorphic"))
    return tuple(out)


def assemble_form(op: LinOp, pmax: int, expect_hermitian: bool = False) -> HermitianForm:
    """Matrix of <op f_i, f_j> over the pluriharmonic basis up to degree pmax.

    Every basis element is a single monomial, and a term of ``op f_i``
    pairs with f_j only when their torus weights (a - c, b - d) agree (see
    :func:`crlab.integration.inner`).  So the basis is indexed once by
    weight and row i is one pass over the terms of ``op f_i``; only the
    nonzero entries are kept.  ``expect_hermitian`` turns a failed
    conjugate-symmetry check into an error, which is how the "the variation
    operators are real" claims are asserted.
    """
    if pmax < 1:
        raise PreconditionError("pmax must be >= 1")
    vectors = pluriharmonic_basis(pmax)
    by_weight: dict[tuple[int, int], list[tuple[int, Monomial, GaussianRational]]] = {}
    for j, v in enumerate(vectors):
        if len(v.element) != 1:
            raise IdentityCheckError(f"pluriharmonic basis element {v.label} is not a monomial")
        ((mono, coeff),) = v.element.terms.items()
        by_weight.setdefault((mono.a - mono.c, mono.b - mono.d), []).append(
            (j, mono, coeff.conj()))
    rows = []
    for v in vectors:
        row: dict[int, GaussianRational] = {}
        for mono, coeff in op(v.element).terms.items():
            for j, other, other_conj in by_weight.get((mono.a - mono.c, mono.b - mono.d), ()):
                term = coeff * other_conj * moment(mono.a + other.c, mono.b + other.d)
                row[j] = row[j] + term if j in row else term
        rows.append({j: value for j, value in row.items() if not value.is_zero()})
    form = HermitianForm(tuple(v.label for v in vectors),
                         tuple(v.element for v in vectors), tuple(rows))
    if expect_hermitian and not form.is_hermitian():
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


def _block_inertia(matrix: list[list[GaussianRational]]) -> tuple[int, int, int] | None:
    """(positive, negative, zero) inertia of a dense Hermitian block, or None if indefinite.

    Recursive pivoting with rational pivots: each nonzero diagonal entry
    contributes its sign and is eliminated by a Schur complement; a state
    with zero diagonal but a nonzero off-diagonal entry is indefinite (its
    2x2 principal block has eigenvalues of both signs); remaining zero rows
    only reduce the rank.
    """
    active = list(range(len(matrix)))
    pos = neg = 0
    while active:
        pivot = next((i for i in active if not matrix[i][i].is_zero()), None)
        if pivot is None:
            if all(matrix[i][j].is_zero() for i in active for j in active):
                return pos, neg, len(active)
            return None
        d = matrix[pivot][pivot]
        if d.real_sign() > 0:
            pos += 1
        else:
            neg += 1
        active.remove(pivot)
        for i in active:
            factor = matrix[i][pivot] / d
            if factor.is_zero():
                continue
            for j in active:
                matrix[i][j] = matrix[i][j] - factor * matrix[pivot][j]
    return pos, neg, 0


def classify(form: HermitianForm) -> str:
    """Exact definiteness class of a Hermitian form.

    The basis splits into the connected blocks of the form's nonzero
    pattern; the matrix is block diagonal over them, so by Sylvester's law
    of inertia the inertia of the form is the sum of the blocks' inertias,
    each found by exact rational pivoting (:func:`_block_inertia`).  The
    outcome is basis-independent.
    """
    if not form.is_hermitian():
        raise PreconditionError("classification requires a Hermitian matrix")
    rows = form.rows
    pos = neg = rank_deficit = 0
    for block in _blocks(rows):
        inertia = _block_inertia([[rows[i].get(j, ZERO) for j in block] for i in block])
        if inertia is None:
            return INDEFINITE
        pos += inertia[0]
        neg += inertia[1]
        rank_deficit += inertia[2]
        if pos and neg:
            return INDEFINITE
    if pos:
        return POSITIVE_DEFINITE if not rank_deficit else POSITIVE_SEMIDEFINITE
    if neg:
        return NEGATIVE_DEFINITE if not rank_deficit else NEGATIVE_SEMIDEFINITE
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
    rep = sum(parts.values(), SpherePoly.zero())
    d_op = drift_operator(phi)
    image = d_op(rep)
    value = inner(d_op(image), rep)
    direct = inner(image, image)
    if value != direct:
        raise IdentityCheckError("<D^2 f, f> disagrees with |D f|^2 on Ker paneitz")
    if not value.is_real() or value.real_sign() < 0:
        raise IdentityCheckError("<D^2 f, f> must be real and nonnegative")
    return value


def remainder_form(phi: SpherePoly, f: SpherePoly, g: SpherePoly) -> GaussianRational:
    """<R f, g> for f in a single H_{p,0} or H_{0,p} and CR g.

    Evaluates <(4*paneitz_ddot - 8*drift^2) f, g> directly and checks it
    against the closed form: zero when f is anti-CR, and

        8 * integral (p |phi|^2 - E conj(phi)) (Z1 f) conj(Z1 g)

    when f is in H_{p,0}.
    """
    g_parts = canonicalize(g)
    if any(q != 0 for (_, q) in g_parts):
        raise PreconditionError("g must be a CR function (components H_{k,0} only)")
    f_parts = canonicalize(f)
    if len(f_parts) > 1 or any(p > 0 and q > 0 for (p, q) in f_parts):
        raise PreconditionError("f must lie in a single H_{p,0} or H_{0,p}")
    g_rep = sum(g_parts.values(), SpherePoly.zero())
    if not f_parts:
        return GaussianRational(0)
    (p, q), f_rep = next(iter(f_parts.items()))
    d_op = drift_operator(phi)
    ddot = second_variation(phi)
    value = inner(ddot(f_rep).scale(4) - d_op(d_op(f_rep)).scale(8), g_rep)
    if q > 0:
        expected = GaussianRational(0)
    else:
        _, weight = _weights(phi, p)
        expected = inner(weight * apply_Z1(f_rep), apply_Z1(g_rep)) * 8
    if value != expected:
        raise IdentityCheckError("remainder pairing disagrees with its closed form")
    return value


def weighted_gradient_pairing(phi: SpherePoly, k: int, l: int, side: str,
                              f_k: SpherePoly, f_l: SpherePoly) -> GaussianRational:
    """integral of (k|phi|^2 - E conj(phi)) d(f_k) conj(d(f_l)) for uniform phi.

    ``side`` selects d = Z1 on "holomorphic" (elements of H_{k,0}) or
    d = Z1bar on "antiholomorphic" (elements of H_{0,k}).  For phi of
    uniform bidegree (p1, q1) the value vanishes when k != l and equals

        (k + p1 - q1 - 4) * integral |phi|^2 |d f_k|^2

    when k = l; both laws are checked before returning, on every call.
    Only the phi-only polynomials |phi|^2 and the weight are memoised (per
    exact phi and k, in a bounded cache); both integrals are computed anew
    for each pair.
    """
    bidegree = phi.bidegree_if_uniform()
    if bidegree is None:
        raise PreconditionError("phi must be bihomogeneous (uniform bidegree)")
    if side == "holomorphic":
        derivative = apply_Z1
    elif side == "antiholomorphic":
        derivative = apply_Z1bar
    else:
        raise PreconditionError(f"side must be holomorphic|antiholomorphic, got {side!r}")
    p1, q1 = bidegree
    norm, weight = _weights(phi, k)
    df_k = derivative(f_k)
    df_l = derivative(f_l)
    value = inner(weight * df_k, df_l)
    if k != l:
        if not value.is_zero():
            raise IdentityCheckError("cross-degree weighted pairing must vanish")
    else:
        expected = inner(norm * df_k, df_l) * (k + p1 - q1 - 4)
        if value != expected:
            raise IdentityCheckError("diagonal weighted pairing disagrees with closed form")
    return value


@dataclass(frozen=True)
class SecondVariationSplit:
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

    verified exactly; the drift part is nonnegative, so the double sum is an
    exact lower bound for the quadratic form.  The antiholomorphic side
    carries the conjugate weight (for bihomogeneous phi the weight is real,
    so both sides then share w_k).
    """
    parts = canonicalize(f)
    if any((p > 0 and q > 0) or (p == 0 and q == 0) for (p, q) in parts):
        raise PreconditionError("f must lie in H: components H_{k,0}, H_{0,k}, k >= 1")
    holo = {p: piece for (p, q), piece in parts.items() if q == 0}
    anti = {q: piece for (p, q), piece in parts.items() if p == 0}
    rep = sum(parts.values(), SpherePoly.zero())

    total = GaussianRational(0)
    for k, fk in holo.items():
        weight = _weights(phi, k)[1]
        dfk = apply_Z1(fk)
        for fl in holo.values():
            total = total + inner(weight * dfk, apply_Z1(fl))
    for k, gk in anti.items():
        weight = _weights(phi, k)[1].conj()
        dgk = apply_Z1bar(gk)
        for gl in anti.values():
            total = total + inner(weight * dgk, apply_Z1bar(gl))
    lower = total * 2

    d_op = drift_operator(phi)
    drift_part = inner(d_op(d_op(rep)), rep) * 2
    value = inner(second_variation(phi)(rep), rep)
    if value != lower + drift_part:
        raise IdentityCheckError("second-variation decomposition failed to balance")
    if not drift_part.is_real() or drift_part.real_sign() < 0:
        raise IdentityCheckError("drift part of the second variation must be >= 0")
    return SecondVariationSplit(value=value, lower_bound=lower, drift_part=drift_part)
