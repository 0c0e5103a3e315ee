"""Variation operators, quadratic forms, and exact definiteness."""

from fractions import Fraction

import pytest
import crlab.variation as variation
from crlab import (KOHN, IdentityCheckError, PreconditionError, SpherePoly,
                   assemble_form, basis, classify, drift_operator, drift_square_form,
                   first_variation, gr, inner, one, parse_poly, pluriharmonic_basis,
                   remainder_form, second_variation,
                   second_variation_decomposition, sphere_equal,
                   torsion_potential, variations_from_jets,
                   weighted_gradient_pairing, z1, z1c, z2, z2c)
from crlab.operators import PANEITZ
from crlab.variation import (INDEFINITE, NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE,
                             POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE, ZERO_FORM)
from conftest import (dense_form, random_bidegree_poly, random_pluriharmonic,
                      random_poly, same_operator_on_sphere)

ZERO = SpherePoly.zero()


def small_basis(smax=3):
    return [f for s in range(smax + 1) for p in range(s + 1)
            for f in basis(p, s - p).elements]


# -- first variation -----------------------------------------------------------


def test_first_variation_form_vanishes_on_coordinates():
    for phi in [one, z1, z1 * z2c, z1 ** 4]:
        op = first_variation(phi)
        assert inner(op(z1), z1).is_zero()


def test_first_variation_pairs_to_zero_against_cr_functions():
    phi = z1 * z2c
    op = first_variation(phi)
    for f in basis(3, 0).elements:
        assert inner(op(f), z1 ** 2).is_zero()


def test_first_variation_of_zero_is_zero(rng):
    op = first_variation(ZERO)
    x = random_poly(rng, 2, 2)
    assert op(x).is_zero()


# -- second variation ------------------------------------------------------------


def test_second_variation_constant_family_values():
    op = second_variation(one)
    assert inner(op(z1), z1) == gr(-3)
    value = inner(op(z2c), z2c)
    assert value.is_real() and value.real_sign() < 0


def test_second_variation_of_zero_is_zero(rng):
    op = second_variation(ZERO)
    assert op(random_poly(rng, 2, 2)).is_zero()


def test_variation_operators_bundle():
    assert torsion_potential(z1) == z1.scale(3)
    # remainder = 4*ddot - 8*drift^2 as operators, checked on a sample.
    drift, ddot = drift_operator(z1), second_variation(z1)
    remainder = 4 * ddot + (-8) * (drift @ drift)
    f = z1 ** 2
    assert remainder(f) == ddot(f).scale(4) - drift(drift(f)).scale(8)


def test_variation_operators_are_real(rng):
    # conj . A . conj = A for both variation operators, the literal content
    # of their realness (hence Hermitian forms on conjugation-stable bases).
    phi = random_bidegree_poly(rng, 2, 1)
    for op in (first_variation(phi), second_variation(phi)):
        for f in small_basis(3)[:20]:
            assert op(f.conj()).conj() == op(f)


def test_jet_reconstruction_matches_closed_forms(rng):
    corpus = [one, z1, z1c, z1 * z2c, z1 ** 4, random_bidegree_poly(rng, 2, 1)]
    elems = small_basis(3)
    for phi in corpus:
        jet_dot, jet_ddot = variations_from_jets(phi)
        dot, ddot = first_variation(phi), second_variation(phi)
        assert same_operator_on_sphere(jet_dot, dot)
        assert same_operator_on_sphere(jet_ddot, ddot)
        for f in elems:
            assert sphere_equal(jet_dot(f), dot(f))
            assert sphere_equal(jet_ddot(f), ddot(f))


# -- remainder pairing -------------------------------------------------------------


def test_remainder_vanishes_on_antiholomorphic_side():
    assert remainder_form(z1 * z2c, z1c, z1).is_zero()


def test_remainder_closed_form_value():
    assert remainder_form(z1, z1, z1) == gr(Fraction(-8, 3))


def test_remainder_zero_deformation():
    assert remainder_form(ZERO, z1 ** 2, z1).is_zero()


def test_remainder_rejects_non_cr_test_function():
    with pytest.raises(PreconditionError):
        remainder_form(z1, z1, z1c)
    with pytest.raises(PreconditionError):
        remainder_form(z1, z1 * z2c, z1)


# -- drift square -------------------------------------------------------------------


def test_drift_square_examples():
    assert drift_square_form(one, z1).is_zero()
    assert drift_square_form(z1c, z1 ** 2) == gr(Fraction(1, 3))
    assert drift_square_form(z1 * z2c, one).is_zero()


def test_drift_square_rejects_mixed_harmonics():
    with pytest.raises(PreconditionError):
        drift_square_form(z1, z1 * z2c)


def test_drift_square_nonnegative_on_random_kernel_elements(rng):
    for _ in range(10):
        phi = random_poly(rng, 2, 2, terms=3)
        f = random_pluriharmonic(rng, kmax=3)
        value = drift_square_form(phi, f)
        assert value.is_real() and value.real_sign() >= 0


# -- weighted gradient pairing ---------------------------------------------------------


def test_weighted_pairing_diagonal_value():
    assert weighted_gradient_pairing(z1, 1, 1, "holomorphic", z1, z1) == gr(Fraction(-1, 3))


def test_weighted_pairing_off_diagonal_vanishes():
    f2 = basis(2, 0).elements[0]
    assert weighted_gradient_pairing(z1, 1, 2, "holomorphic", z1, f2).is_zero()


def test_weighted_pairing_be_case_is_nonnegative():
    value = weighted_gradient_pairing(z1 ** 4, 1, 1, "holomorphic", z2, z2)
    assert value == gr(Fraction(1, 6))


def test_weighted_pairing_rejects_mixed_phi():
    with pytest.raises(PreconditionError):
        weighted_gradient_pairing(one + z1, 1, 1, "holomorphic", z1, z1)
    with pytest.raises(PreconditionError):
        weighted_gradient_pairing(z1, 1, 1, "sideways", z1, z1)


def _pairings(phi):
    out = []
    for k in (1, 2):
        for l in (1, 2):
            for side, fs in (("holomorphic", lambda d: basis(d, 0).elements),
                             ("antiholomorphic", lambda d: basis(0, d).elements)):
                for fk in fs(k):
                    for fl in fs(l):
                        out.append(weighted_gradient_pairing(phi, k, l, side, fk, fl))
    return out


def test_weighted_pairing_memo_is_keyed_on_the_exact_polynomial():
    built = [SpherePoly.monomial((1, 1, 0, 0)), parse_poly("z1*z2"), z1 * z2]
    values = [_pairings(phi) for phi in built]
    assert any(not v.is_zero() for v in values[0])
    assert values[0] == values[1] == values[2]


def test_weighted_pairing_scales_with_the_modulus_of_phi():
    # w_k is quadratic in phi: c*phi pairs to |c|^2 times phi's pairing, so a
    # cached weight of phi reused for c*phi would show.
    base = _pairings(z1)
    for c in (gr(1), gr(2), gr(0, 1)):
        assert _pairings(z1.scale(c)) == [v * c * c.conj() for v in base]


def test_weighted_pairing_checks_both_laws_with_a_wrong_potential(monkeypatch):
    f2 = basis(2, 0).elements[2]  # z1^2
    variation._weights_of.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(variation, "torsion_potential", lambda phi: phi.scale(5) + phi * z1c)
            with pytest.raises(IdentityCheckError, match="cross-degree"):
                weighted_gradient_pairing(z1, 2, 1, "holomorphic", f2, z1)
            with pytest.raises(IdentityCheckError, match="diagonal"):
                weighted_gradient_pairing(z1, 1, 1, "holomorphic", z1, z1)
    finally:
        variation._weights_of.cache_clear()


# -- second-variation decomposition ------------------------------------------------------


def test_decomposition_constant_family():
    split = second_variation_decomposition(one, z1)
    assert split.value == gr(-3)
    assert split.lower_bound == gr(-3)
    assert split.drift_part.is_zero()


def test_decomposition_with_drift_gap():
    split = second_variation_decomposition(z1 ** 4, z1 + z2c)
    assert split.value == split.lower_bound + split.drift_part
    assert split.drift_part.real_sign() >= 0


def test_decomposition_zero_deformation():
    split = second_variation_decomposition(ZERO, z1 + z1c)
    assert split.value.is_zero() and split.lower_bound.is_zero() and split.drift_part.is_zero()


def test_decomposition_rejects_functions_outside_h():
    with pytest.raises(PreconditionError):
        second_variation_decomposition(z1, one + z1)
    with pytest.raises(PreconditionError):
        second_variation_decomposition(z1, z1 * z2c)


def test_decomposition_random_corpus(rng):
    for _ in range(6):
        p1 = rng.randint(0, 3)
        q1 = rng.randint(0, 2)
        phi = random_bidegree_poly(rng, p1, q1)
        f = random_pluriharmonic(rng, kmax=3)
        split = second_variation_decomposition(phi, f)
        assert split.value == split.lower_bound + split.drift_part


def test_decomposition_at_high_degree():
    # phi of bidegree (4,0) against degree-6 harmonics pushes intermediate
    # polynomials past total degree 14; everything must stay exact.
    f = basis(6, 0).elements[0] + basis(0, 6).elements[-1]
    split = second_variation_decomposition(z1 ** 4, f)
    assert split.value == split.lower_bound + split.drift_part
    assert split.drift_part.real_sign() >= 0
    assert split.value.real_sign() > 0  # Burns-Epstein direction, high degree


def test_decomposition_exact_for_non_bihomogeneous_phi(rng):
    # The conjugate weight on the antiholomorphic side keeps the split exact
    # even when phi mixes bidegrees (where the weight is genuinely complex).
    for _ in range(8):
        phi = random_poly(rng, 2, 2, terms=4)
        f = random_pluriharmonic(rng, kmax=3)
        split = second_variation_decomposition(phi, f)
        assert split.value == split.lower_bound + split.drift_part
        assert split.value.is_real()


# -- form assembly and classification ------------------------------------------------------


def test_assemble_paneitz_form_is_zero():
    assert assemble_form(PANEITZ, 3).is_zero()


def test_assemble_first_variation_form_is_zero(rng):
    for phi in [one, z1, random_bidegree_poly(rng, 2, 1)]:
        form = assemble_form(first_variation(phi), 3, expect_hermitian=True)
        assert form.is_zero()
        assert classify(form) == ZERO_FORM


def test_assemble_kohn_form_is_diagonal_with_known_blocks():
    form = assemble_form(KOHN, 2)
    vectors = pluriharmonic_basis(2)
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            entry = form.entries[i][j]
            if i != j:
                assert entry.is_zero()
            elif vi.side == "holomorphic":
                assert entry.is_zero()
            else:
                expected = 2 * vi.degree * inner(vi.element, vi.element)
                assert entry == expected


def test_classify_examples():
    def form_from(rows):
        entries = tuple(tuple(gr(Fraction(v)) if not isinstance(v, tuple)
                              else gr(Fraction(v[0]), Fraction(v[1])) for v in row)
                        for row in rows)
        return dense_form(entries)

    assert classify(form_from([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == POSITIVE_DEFINITE
    assert classify(form_from([[1, 2], [2, 1]])) == INDEFINITE
    assert classify(form_from([[0, 0], [0, 0]])) == ZERO_FORM
    assert classify(form_from([[-2, 0], [0, -3]])) == NEGATIVE_DEFINITE
    assert classify(form_from([[1, 0], [0, 0]])) == POSITIVE_SEMIDEFINITE
    assert classify(form_from([[0, 1], [1, 0]])) == INDEFINITE
    # Complex Hermitian with zero diagonal: indefinite.
    assert classify(form_from([[0, (0, 1)], [(0, -1), 0]])) == INDEFINITE
    with pytest.raises(PreconditionError):
        classify(form_from([[0, 1], [2, 0]]))


def _eigen_sign_counts(raw):
    """(positive, negative, zero) eigenvalue counts of a Hermitian matrix.

    Independent oracle: characteristic polynomial by Faddeev-LeVerrier in
    exact arithmetic, then Descartes' rule of signs, which counts roots
    exactly for a real-rooted polynomial.
    """
    n = len(raw)
    ident = [[gr(1) if i == j else gr(0) for j in range(n)] for i in range(n)]

    def mat_mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), gr(0))
                 for j in range(n)] for i in range(n)]

    coeffs = [gr(1)]  # charpoly lambda^n + c1 lambda^(n-1) + ... + cn
    mk = [row[:] for row in ident]
    for k in range(1, n + 1):
        mk = mat_mul(raw, mk)
        ck = -sum((mk[i][i] for i in range(n)), gr(0)) / k
        coeffs.append(ck)
        for i in range(n):
            mk[i][i] = mk[i][i] + ck
    signs = []
    for c in coeffs:
        assert c.is_real()
        signs.append(c.real_sign())
    zero = 0
    while signs and signs[-1] == 0:
        signs.pop()
        zero += 1
    nonzero = [s for s in signs if s]
    pos = sum(1 for a, b in zip(nonzero, nonzero[1:]) if a != b)
    # p(-x): flip signs of odd-power coefficients (power = n - index).
    flipped = [s if (n - i) % 2 == 0 else -s for i, s in enumerate(signs) if s]
    neg = sum(1 for a, b in zip(flipped, flipped[1:]) if a != b)
    return pos, neg, zero


def _random_hermitian_block(rng, n, zero_diagonal=False):
    raw = [[gr(0)] * n for _ in range(n)]
    for i in range(n):
        if not zero_diagonal:
            raw[i][i] = gr(Fraction(rng.randint(-3, 3)))
        for j in range(i + 1, n):
            value = gr(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
            raw[i][j] = value
            raw[j][i] = value.conj()
    return raw


def _scattered_blocks(rng, blocks):
    """Block-diagonal matrix of the given blocks with rows and columns permuted."""
    n = sum(len(b) for b in blocks)
    raw = [[gr(0)] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    offset = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, value in enumerate(row):
                raw[order[offset + i]][order[offset + j]] = value
        offset += len(block)
    return raw


def test_classify_against_charpoly_oracle(rng):
    corpus = [_random_hermitian_block(rng, rng.randint(1, 4)) for _ in range(20)]
    # Sparse, multi-block matrices up to n = 8, as assemble_form produces.
    for _ in range(20):
        blocks = []
        while sum(len(b) for b in blocks) < 6:
            size = rng.randint(1, 3)
            blocks.append(_random_hermitian_block(rng, size, zero_diagonal=rng.random() < 0.2))
        corpus.append(_scattered_blocks(rng, blocks))
    # Zero diagonal with a nonzero off-diagonal entry, next to a definite block.
    corpus.append(_scattered_blocks(rng, [[[gr(0), gr(1, 1)], [gr(1, -1), gr(0)]],
                                          [[gr(2), gr(1)], [gr(1), gr(3)]], [[gr(5)]]]))
    # Rank-deficient block next to a definite one: semidefinite overall.
    rank_one = [[gr(1), gr(2), gr(0, 1)], [gr(2), gr(4), gr(0, 2)], [gr(0, -1), gr(0, -2), gr(1)]]
    corpus.append(_scattered_blocks(rng, [rank_one, [[gr(2), gr(0, 1)], [gr(0, -1), gr(3)]],
                                          [[gr(1)]]]))
    corpus.append(_scattered_blocks(rng, [[[gr(-1), gr(-1)], [gr(-1), gr(-1)]], [[gr(-4)]]]))
    verdicts = set()
    for raw in corpus:
        form = dense_form(raw)
        pos, neg, zero = _eigen_sign_counts(raw)
        verdict = classify(form)
        verdicts.add(verdict)
        if pos and neg:
            assert verdict == INDEFINITE
        elif pos:
            assert verdict == (POSITIVE_SEMIDEFINITE if zero else POSITIVE_DEFINITE)
        elif neg:
            assert verdict == (NEGATIVE_SEMIDEFINITE if zero else NEGATIVE_DEFINITE)
        else:
            assert verdict == ZERO_FORM
    assert {INDEFINITE, POSITIVE_SEMIDEFINITE, NEGATIVE_SEMIDEFINITE} <= verdicts


def test_be_deformation_gives_positive_definite_form():
    form = assemble_form(second_variation(z1 ** 4), 3, expect_hermitian=True)
    assert classify(form) == POSITIVE_DEFINITE


def test_constant_family_form_is_negative_at_low_degree():
    form = assemble_form(second_variation(one), 1, expect_hermitian=True)
    assert classify(form) == NEGATIVE_DEFINITE
    assert [str(v) for v in form.diagonal()] == ["-3", "-3", "-3", "-3"]


def test_assemble_form_requires_positive_pmax():
    with pytest.raises(PreconditionError):
        assemble_form(KOHN, 0)


def test_assemble_form_matches_dense_inner_oracle(rng):
    # The weight-indexed assembly must reproduce the dense reference
    # <op f_i, f_j>, computed by one inner() call per entry, exactly.
    from crlab import MulBy

    phis = [one, z1 ** 4, z1 * z2c, random_poly(rng, 2, 2, terms=4),
            random_bidegree_poly(rng, 2, 1)]
    ops = [(KOHN, 3), (MulBy(z1), 3)]
    for phi in phis:
        ops += [(first_variation(phi), 3), (second_variation(phi), 3)]
    for op, pmax in ops:
        form = assemble_form(op, pmax)
        elements = [v.element for v in pluriharmonic_basis(pmax)]
        dense = tuple(tuple(inner(image, g) for g in elements)
                      for image in map(op, elements))
        assert form.entries == dense
        assert not any(v.is_zero() for row in form.rows for v in row.values())


def test_assemble_form_rejects_non_monomial_basis(monkeypatch):
    vectors = variation.pluriharmonic_basis(1)
    mixed = variation.BasisVector("z1 + z2", z1 + z2, 1, "holomorphic")
    monkeypatch.setattr(variation, "pluriharmonic_basis", lambda pmax: (mixed,) + vectors)
    with pytest.raises(IdentityCheckError):
        assemble_form(KOHN, 1)


def test_assemble_form_flags_non_hermitian_operators():
    from crlab import MulBy

    with pytest.raises(IdentityCheckError):
        assemble_form(MulBy(z1), 2, expect_hermitian=True)
