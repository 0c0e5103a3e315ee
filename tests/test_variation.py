"""Variation operators, quadratic forms, and exact definiteness."""

from fractions import Fraction

import pytest
import crlab.variation as variation
from crlab import (KOHN, GaussianRational, IdentityCheckError, PreconditionError, SpherePoly,
                   apply_Z1, apply_Z1bar, assemble_form, basis, canonicalize, classify,
                   drift_operator, drift_square_form, first_variation, gr, inner, one,
                   parse_poly, pluriharmonic_basis, second_variation,
                   second_variation_decomposition, sphere_equal,
                   torsion_potential, variations_from_jets,
                   weighted_gradient_pairing, z1, z1c, z2, z2c)
from crlab.operators import PANEITZ, ZERO_OP, LinOp
from crlab.spherepoly import _content_key
from crlab.variation import (INDEFINITE, NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE,
                             POSITIVE_DEFINITE, POSITIVE_SEMIDEFINITE, ZERO_FORM)
from conftest import (dense_form, load_bench, random_bidegree_poly, random_pluriharmonic,
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


def test_second_variation_is_built_once_per_exact_phi():
    # Equal polynomials share one operator however they were built; any other
    # phi, including phi's numerators over another denominator, gets its own.
    phi = z1 ** 4 + z1c * z2
    op = second_variation(parse_poly("z1^4 + z1c*z2"))
    assert second_variation(phi) is op
    halved = phi.scale(Fraction(1, 2))
    assert (halved.nums, halved.den) == (phi.nums, 2)
    others = [second_variation(other) for other in (halved, z1 ** 4, phi.conj())]
    assert len({id(op)} | {id(other) for other in others}) == 4
    assert all(other.terms != op.terms for other in others)


def test_second_variation_cache_is_bounded():
    maxsize = variation._second_variation_of.cache_info().maxsize
    assert isinstance(maxsize, int) and 0 < maxsize <= 64


def test_cached_second_variation_is_read_only():
    op = second_variation(z1 * z2c)
    assert second_variation(z1 * z2c) is op
    with pytest.raises(TypeError):
        op.terms[("Z1",)] = one


def test_cached_second_variation_gives_the_forms_of_a_fresh_one():
    # Every variation-forms phi at pmax 6: the shared operator, already
    # applied and assembled at a smaller pmax, pairs and classifies exactly
    # as one built after the cache is emptied.
    cases = load_bench("workloads").build_cases("variation-forms", 0)
    sources = {case.payload[case.payload.index("--phi") + 1] for case in cases}
    assert len(sources) == 6
    for src in sorted(sources):
        phi = parse_poly(src)
        warm = second_variation(phi)
        warm(z1 ** 2 + z2c)
        assemble_form(warm, 2)
        assert second_variation(parse_poly(src)) is warm
        variation._second_variation_of.cache_clear()
        fresh = second_variation(phi)
        assert fresh is not warm and fresh.terms == warm.terms
        warm_form, fresh_form = assemble_form(warm, 6), assemble_form(fresh, 6)
        assert warm_form.entries == fresh_form.entries
        assert classify(warm_form) == classify(fresh_form)


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


@pytest.mark.parametrize("k, l, side, f_k, f_l", [
    (2, 1, "holomorphic", z1, z1),  # f_k in H_(1,0), not H_(2,0)
    (1, 2, "holomorphic", z1, z1),  # f_l in H_(1,0), not H_(2,0)
    (1, 1, "antiholomorphic", z1, z1),  # the wrong side
    (1, 1, "holomorphic", z1c, z1c),
    (1, 1, "holomorphic", z1 + z2c, z1),  # mixed bidegree
    (1, 1, "antiholomorphic", z1c, z1c + z1 * z1c),
    (1, 1, "holomorphic", z1 * z1c, z1),  # uniform (1,1): not in H
    (1, 1, "holomorphic", ZERO, z1),  # no bidegree
])
def test_weighted_pairing_rejects_f_outside_its_space(k, l, side, f_k, f_l):
    # Raised again on a repeated call: the memo holds no exception.
    for _ in range(2):
        with pytest.raises(PreconditionError, match="must lie in"):
            weighted_gradient_pairing(z1 * z2, k, l, side, f_k, f_l)


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


def test_weighted_pairing_equals_a_weighted_inner_of_the_derivatives(rng):
    # The pairing reads the field kernels' numerators and the cached weight
    # groups; the reference builds d f_k, d f_l and w_k = k|phi|^2 - E conj(phi)
    # as polynomials from public pieces and takes one weighted inner.
    # Complex coefficients over denominators in phi, and basis elements
    # scaled by rationals, keep every denominator of the integral off 1.
    sides = (("holomorphic", lambda d: basis(d, 0).elements, apply_Z1),
             ("antiholomorphic", lambda d: basis(0, d).elements, apply_Z1bar))
    # Each pair is computed with a cold element memo, then again warm.
    nonzero = 0
    for p1, q1 in ((0, 0), (1, 0), (0, 1), (2, 1), (1, 2), (3, 0), (0, 3), (2, 2)):
        phi = random_bidegree_poly(rng, p1, q1).scale(gr(Fraction(1, 3), Fraction(2, 5)))
        assert phi.den != 1 and any(y for _, y in phi.nums.values())
        phibar = phi.conj()
        for k in (1, 2, 3):
            weight = (phi * phibar).scale(k) - torsion_potential(phi) * phibar
            for l in (1, 2, 3):
                for side, elements, field in sides:
                    for _ in range(2):
                        fk = rng.choice(elements(k)).scale(Fraction(rng.randint(1, 9), 6))
                        fl = rng.choice(elements(l)).scale(Fraction(rng.randint(1, 9), 4))
                        expected = inner(weight * field(fk), field(fl))
                        variation._gradient_of.cache_clear()
                        cold = weighted_gradient_pairing(phi, k, l, side, fk, fl)
                        warm = weighted_gradient_pairing(phi, k, l, side, fk, fl)
                        assert cold == warm == expected
                        nonzero += bool(cold)
    assert nonzero > 20


@pytest.fixture
def cold_memos():
    """Empties variation's memo caches before and after a test that patches what they read."""
    memos = (variation._weights_of, variation._gradient_of, variation._second_variation_of)
    for memo in memos:
        memo.cache_clear()
    yield
    for memo in memos:
        memo.cache_clear()


def test_weighted_pairing_checks_both_laws_with_a_wrong_potential(monkeypatch, cold_memos):
    f2 = basis(2, 0).elements[2]  # z1^2
    monkeypatch.setattr(variation, "torsion_potential", lambda phi: phi.scale(5) + phi * z1c)
    with pytest.raises(IdentityCheckError, match="cross-degree"):
        weighted_gradient_pairing(z1, 2, 1, "holomorphic", f2, z1)
    with pytest.raises(IdentityCheckError, match="diagonal"):
        weighted_gradient_pairing(z1, 1, 1, "holomorphic", z1, z1)


def test_weighted_pairing_indexes_d_f_l_once(monkeypatch):
    # Each distinct (element, side) is differentiated and indexed by torus
    # weight once, however many pairings read it.  d f is step 1 of the
    # element's field chain, so the count is taken at the chain's kernels.
    import crlab.operators as operators

    derived, indexed = [], []

    def counted(name, side):
        kernel = getattr(operators, name)

        def derivative(nums):
            derived.append((frozenset(nums.items()), side))
            return kernel(nums)
        return derivative

    def counted_targets(ys):
        ys = tuple(ys)
        indexed.append(ys)
        return original(ys)

    original = variation.targets_of
    monkeypatch.setattr(operators, "_z1_nums", counted("_z1_nums", "holomorphic"))
    monkeypatch.setattr(operators, "_z1bar_nums", counted("_z1bar_nums", "antiholomorphic"))
    monkeypatch.setattr(variation, "targets_of", counted_targets)
    variation._gradient_of.cache_clear()
    operators._chains_of.cache_clear()
    sides = (("holomorphic", lambda d: basis(d, 0).elements),
             ("antiholomorphic", lambda d: basis(0, d).elements))
    pairings = 0
    for _ in range(3):
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                for side, elements in sides:
                    for fk in elements(k):
                        for fl in elements(l):
                            weighted_gradient_pairing(z1, k, l, side, fk, fl)
                            pairings += 1
    distinct = {(frozenset(f.nums.items()), side) for side, elements in sides
                for d in (1, 2, 3) for f in elements(d)}
    assert pairings > 10 * len(distinct)
    assert len(derived) == len(indexed) == len(distinct) == len(set(derived))
    assert set(derived) == distinct


def test_element_memo_is_keyed_on_the_exact_polynomial():
    variation._gradient_of.cache_clear()
    for f in (SpherePoly.monomial((1, 1, 0, 0)), parse_poly("z1*z2"), z1 * z2):
        weighted_gradient_pairing(z1, 2, 2, "holomorphic", f, f)
    info = variation._gradient_of.cache_info()
    assert (info.currsize, info.hits) == (1, 5)


def test_element_memo_keeps_the_sides_apart():
    variation._gradient_of.cache_clear()
    f = z1 * z1c * z2  # both Z1 f and Z1bar f are nonzero
    key = _content_key(f)
    holo = variation._gradient_of(key, "holomorphic")
    anti = variation._gradient_of(key, "antiholomorphic")
    assert variation._gradient_of.cache_info().currsize == 2
    assert holo.nums == apply_Z1(f).nums and anti.nums == apply_Z1bar(f).nums
    assert holo.nums != anti.nums


def test_cached_content_keys_still_match_their_polynomials():
    # A polynomial's content key is taken once and kept on the instance, so
    # it is right only while nothing mutates the polynomial afterwards.
    # After a jet-oracle check, a --pmax ladder of forms and a pairing sweep,
    # every polynomial holding a key (basis elements, each phi among them)
    # still has the key of its content.
    import gc

    jet_phi, form_phi, pairing_phi = (parse_poly("z1^2*z2c + 2/3*i*z1*z2*z1c"),
                                      z1 ** 4 + z1c * z2, z1 * z2c)
    elements = small_basis(3)
    dot, ddot = variations_from_jets(jet_phi)
    first, second = first_variation(jet_phi), second_variation(jet_phi)
    for f in elements:
        assert sphere_equal(dot(f), first(f)) and sphere_equal(ddot(f), second(f))
    for pmax in (1, 2, 3):
        classify(assemble_form(second_variation(form_phi), pmax))
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            for fk, fl in zip(basis(k, 0).elements, basis(l, 0).elements):
                weighted_gradient_pairing(pairing_phi, k, l, "holomorphic", fk, fl)
    keyed = [poly for poly in gc.get_objects()
             if isinstance(poly, SpherePoly) and hasattr(poly, "_key")]
    assert {id(poly) for poly in elements + [jet_phi, form_phi, pairing_phi]} <= set(map(id, keyed))
    assert [poly for poly in keyed if poly._key != (frozenset(poly.nums.items()), poly.den)] == []


def test_element_memo_is_bounded():
    maxsize = variation._gradient_of.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


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


def test_decomposition_builds_and_applies_the_drift_once(monkeypatch, cold_memos):
    # 2<D^2 f, f> comes from drift_square_form alone: one D, applied to f and
    # to D f.  The whole second variation is never built.
    built, applied = [], []

    class CountedOp(LinOp):
        __slots__ = ()

        def __call__(self, poly):
            applied.append(poly)
            return super().__call__(poly)

    original = variation.drift_operator

    def counted(phi):
        built.append(phi)
        return CountedOp(original(phi).terms)

    monkeypatch.setattr(variation, "drift_operator", counted)
    split = second_variation_decomposition(z1 ** 4 + z1c * z2, z1 + z2c + z1 ** 2)
    assert (len(built), len(applied)) == (1, 2)
    assert variation._second_variation_of.cache_info().misses == 0
    assert split.value == split.lower_bound + split.drift_part
    assert not split.drift_part.is_zero()


def test_decomposition_splits_f_once(monkeypatch):
    # The drift part reuses the decomposition's own split of f.
    split_calls = []
    original = variation.canonicalize

    def counted(f):
        split_calls.append(f)
        return original(f)

    monkeypatch.setattr(variation, "canonicalize", counted)
    second_variation_decomposition(z1 ** 4 + z1c * z2, z1 + z2c + z1 ** 2)
    assert len(split_calls) == 1


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
        assert split.value == _second_variation_value(phi, f)
        assert split.lower_bound == _double_sum(phi, f) * 2


def _second_variation_value(phi, f):
    """<second_variation(phi) f, f> by the whole operator: the reference route."""
    rep = sum(canonicalize(f).values(), ZERO)
    return inner(second_variation(phi)(rep), rep)


def _double_sum(phi, f):
    """Both weighted-gradient double sums over f's components, one weighted inner per (k, l).

    w_k and its conjugate are built as polynomials from public pieces, and
    each pair takes the derivatives d f^k and d f^l as polynomials.
    """
    phibar = phi.conj()
    parts = canonicalize(f)
    holo = {p: piece for (p, q), piece in parts.items() if q == 0}
    anti = {q: piece for (p, q), piece in parts.items() if p == 0}
    total = gr(0)
    for pieces, field, conj in ((holo, apply_Z1, False), (anti, apply_Z1bar, True)):
        for k, fk in pieces.items():
            weight = (phi * phibar).scale(k) - torsion_potential(phi) * phibar
            if conj:
                weight = weight.conj()
            for fl in pieces.values():
                total = total + inner(weight * field(fk), field(fl))
    return total


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
        assert split.value == _second_variation_value(phi, f)
        assert split.lower_bound == _double_sum(phi, f) * 2


# -- form assembly and classification ------------------------------------------------------


def test_assemble_paneitz_form_is_zero():
    assert assemble_form(PANEITZ, 3).is_zero()


def test_assemble_first_variation_form_is_zero(rng):
    for phi in [one, z1, random_bidegree_poly(rng, 2, 1)]:
        form = assemble_form(first_variation(phi), 3)
        assert form.is_zero()
        assert classify(form) == ZERO_FORM


def test_assemble_kohn_form_is_diagonal_with_known_blocks():
    form = assemble_form(KOHN, 2)
    elements = pluriharmonic_basis(2)
    for i, fi in enumerate(elements):
        _, q = fi.bidegree_if_uniform()
        for j in range(len(elements)):
            entry = form.entries[i][j]
            if i != j:
                assert entry.is_zero()
            elif q == 0:  # H_(k,0)
                assert entry.is_zero()
            else:  # H_(0,k), where kohn is 2k
                assert entry == 2 * q * inner(fi, fi)


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


def _inertia(signs):
    """(positive, negative, zero) counts of a block's pivot signs."""
    return signs.count(1), signs.count(-1), signs.count(0)


def _random_hermitian_block(rng, n, zero_diagonal=False):
    """Hermitian block whose real and imaginary parts carry their own small denominators."""
    def part(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 6))

    raw = [[gr(0)] * n for _ in range(n)]
    for i in range(n):
        if not zero_diagonal:
            raw[i][i] = gr(part(3))
        for j in range(i + 1, n):
            value = gr(part(2), part(2))
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
        for block in variation._blocks(form.rows):
            sub = [[raw[i][j] for j in block] for i in block]
            oracle = _eigen_sign_counts(sub)
            signs = list(variation._pivot_signs(sub))
            if len(signs) < len(block):  # undecided only where the block is indefinite
                assert oracle[0] and oracle[1]
            else:
                assert _inertia(signs) == oracle
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


def test_block_inertia_makes_no_scalar_arithmetic(monkeypatch):
    # The elimination runs on Gaussian-integer pairs, so a rational block needs
    # no GaussianRational operation at all.
    block = [[gr(Fraction(1, 2)), gr(Fraction(1, 3), Fraction(-1, 4)), gr(0, 1)],
             [gr(Fraction(1, 3), Fraction(1, 4)), gr(Fraction(-2, 5)), gr(Fraction(3, 7))],
             [gr(0, -1), gr(Fraction(3, 7)), gr(Fraction(5, 6))]]
    oracle = _eigen_sign_counts(block)

    def forbidden(*args):
        raise AssertionError("GaussianRational arithmetic inside _pivot_signs")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(GaussianRational, name, forbidden)
    assert _inertia(list(variation._pivot_signs(block))) == oracle == (2, 1, 0)


def test_dense_phi_form_has_two_large_blocks():
    # A non-monomial phi couples whole torus-weight classes: two blocks of
    # 40 and 48 rows at pmax 8, which no benchmark workload assembles.
    form = assemble_form(second_variation(parse_poly("(z1+z2+z1c+z2c)^2")), 8)
    rows = form.rows
    blocks = variation._blocks(rows)
    assert form.dimension == 88
    assert sorted(len(block) for block in blocks) == [40, 48]
    inertias = [_inertia(list(variation._pivot_signs([[rows[i].get(j, gr(0)) for j in block]
                                                      for i in block]))) for block in blocks]
    assert [sum(counts) for counts in zip(*inertias)] == [80, 8, 0]
    assert classify(form) == INDEFINITE


@pytest.mark.parametrize("pmax", [8, 16])
def test_classify_stops_at_the_first_opposite_pair(monkeypatch, pmax):
    # Both signs show within a few pivots of the dense phi's first block; by
    # Cauchy interlacing that decides the form, so classify reads no further.
    form = assemble_form(second_variation(parse_poly("(z1+z2+z1c+z2c)^2")), pmax)
    pivot_signs = variation._pivot_signs
    taken = []

    def counting(matrix):
        for sign in pivot_signs(matrix):
            taken.append(sign)
            yield sign

    monkeypatch.setattr(variation, "_pivot_signs", counting)
    assert classify(form) == INDEFINITE
    assert {1, -1} <= set(taken)
    assert len(taken) <= 9


def test_be_deformation_gives_positive_definite_form():
    form = assemble_form(second_variation(z1 ** 4), 3)
    assert classify(form) == POSITIVE_DEFINITE


def test_constant_family_form_is_negative_at_low_degree():
    form = assemble_form(second_variation(one), 1)
    assert classify(form) == NEGATIVE_DEFINITE
    assert [str(v) for v in form.diagonal()] == ["-3", "-3", "-3", "-3"]


def test_assemble_form_requires_positive_pmax():
    with pytest.raises(PreconditionError):
        assemble_form(KOHN, 0)


def test_assemble_form_bounds_pmax_at_both_edges():
    # Both edges of 1..MAX_VARIATION_PMAX are accepted (H up to degree pmax
    # has pmax(pmax+3) basis elements), and the value past each is refused.
    top = variation.MAX_VARIATION_PMAX
    for pmax in (1, top):
        form = assemble_form(ZERO_OP, pmax)
        assert form.dimension == pmax * (pmax + 3) and form.is_zero()
    for pmax in (0, top + 1):
        with pytest.raises(PreconditionError, match=rf"^pmax must lie in 1\.\.{top}$"):
            assemble_form(ZERO_OP, pmax)


def test_assemble_form_matches_dense_inner_oracle(rng):
    # The weight-indexed assembly must reproduce the dense reference
    # <op f_i, f_j>, computed by one inner() call per entry, exactly.
    from crlab import MulBy

    # The last phi's words carry different denominators, so the plan's common
    # denominator is exercised.
    phis = [one, z1 ** 4, z1 * z2c, random_poly(rng, 2, 2, terms=4),
            random_bidegree_poly(rng, 2, 1), parse_poly("1/3*z1^2*z2c + 2/5*i*z1*z2*z1c")]
    ops = [(KOHN, 3), (MulBy(z1 + z1c), 3)]
    for phi in phis:
        ops += [(first_variation(phi), 3), (second_variation(phi), 3)]
    for op, pmax in ops:
        form = assemble_form(op, pmax)
        elements = pluriharmonic_basis(pmax)
        dense = tuple(tuple(inner(image, g) for g in elements)
                      for image in map(op, elements))
        assert form.entries == dense
        assert not any(v.is_zero() for row in form.rows for v in row.values())


def test_assemble_form_pairs_a_non_monomial_basis(monkeypatch):
    # Elements with terms at several torus weights pair like any other.
    elements = (z1 + z2, 3 * z1c - z2c) + variation.pluriharmonic_basis(2)
    monkeypatch.setattr(variation, "pluriharmonic_basis", lambda pmax: elements)
    for op in (KOHN, second_variation(z1 ** 4 + z1c * z2)):
        form = assemble_form(op, 2)
        assert form.elements == elements
        for i, f in enumerate(elements):
            image = op(f)
            for j, g in enumerate(elements):
                assert form.rows[i].get(j, gr(0)) == inner(image, g)


@pytest.mark.parametrize("outside", [z1 * z1c, one + z1, one], ids=["z1*z1c", "1+z1", "1"])
def test_assemble_form_rejects_elements_outside_h(monkeypatch, outside):
    # The form lives on H, the sum of H_(k,0) and H_(0,k) with k >= 1, so an
    # element outside every such space is refused.
    elements = variation.pluriharmonic_basis(1) + (outside,)
    monkeypatch.setattr(variation, "pluriharmonic_basis", lambda pmax: elements)
    with pytest.raises(PreconditionError, match="not in H_"):
        assemble_form(KOHN, 1)


def test_assemble_form_flags_non_hermitian_operators():
    from crlab import MulBy

    with pytest.raises(IdentityCheckError):
        assemble_form(MulBy(z1), 2)
