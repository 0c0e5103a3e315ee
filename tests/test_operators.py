"""The CR vector fields, canonical operators and the Bochner identity."""

import pytest

from crlab import (CONJ_KOHN, KOHN, PANEITZ, SUBLAP, SpherePoly, apply_T,
                   apply_Z1, apply_Z1bar, basis, bochner_residual,
                   common_eigenvalue, conj_kohn, grad_op, gr, inner, kohn,
                   kohn_energy_identity, one, paneitz, radius_sq, sphere_equal,
                   parse_poly, sublap, z1, z1c, z2, z2c)
from crlab.operators import IDENTITY, T, Z1, Z1BAR, ZERO_OP, LinOp, MulBy
from conftest import random_bidegree_poly, random_poly, random_scalar, vanishes_on_sphere

ZERO = SpherePoly.zero()


def test_z1_on_coordinates():
    assert apply_Z1(z1) == z2c
    assert apply_Z1(z2) == -z1c
    assert apply_Z1(z1c).is_zero()


def _weight(mono):
    a, b, c, d = mono
    return (a - c, b - d)


def test_fields_shift_torus_weight_by_fixed_amounts(rng):
    # The weight-matched form assembly relies on Z1, Z1bar and T moving the
    # torus weight (a - c, b - d) of each monomial by (-1,-1), (+1,+1), (0,0).
    for field, shift in ((apply_Z1, -1), (apply_Z1bar, 1), (apply_T, 0)):
        for _ in range(10):
            for mono in random_poly(rng, 3, 3, terms=6).nums:
                wa, wb = _weight(mono)
                image = field(SpherePoly.monomial(mono))
                assert all(_weight(m) == (wa + shift, wb + shift) for m in image.nums)


def _restricted(word, p, q):
    """[(m, c)] for the single word's restriction sum_m c u_m to H_(p,q), with constant c."""
    out = []
    for m, nums in LinOp({word: one})._get_plan().restriction(p, q):
        ((mono, (re, im)),) = nums.items()
        assert mono == (0, 0, 0, 0)
        out.append((m, gr(re, im)))
    return out


def _climb(m):
    """The word taking f to u_m: Z1^m for m >= 0, Z1bar^|m| for m < 0."""
    return ("Z1",) * m if m >= 0 else ("Z1bar",) * -m


def test_fields_act_on_bigraded_harmonics_by_the_restriction_rules():
    # With u_m = Z1^m f (m >= 0) and Z1bar^|m| f (m < 0) for f in H_(p,q):
    # Z1 u_m = u_(m+1) for m >= 0 and -(p-m)(q+m+1) u_(m+1) for m < 0,
    # Z1bar u_m = u_(m-1) for m <= 0 and -(p-m+1)(q+m) u_(m-1) for m > 0,
    # T u_m = i(p-q-2m) u_m, and Z1^(p+1) f = Z1bar^(q+1) f = 0.  Every
    # operator is applied and restricted by these rules, so each single step,
    # taken after u_m, must restrict to the scalars the fields give here.
    def raising(m):
        return gr(1) if m >= 0 else gr(-(p - m) * (q + m + 1))

    def lowering(m):
        return gr(1) if m <= 0 else gr(-(p - m + 1) * (q + m))

    def single(m, c):
        return [(m, c)] if -q <= m <= p and c else []

    for p in range(9):
        for q in range(9 - p):
            for f in basis(p, q).elements:
                u = {0: f}
                for m in range(p + 1):
                    u[m + 1] = apply_Z1(u[m])
                for m in range(0, -q - 1, -1):
                    u[m - 1] = apply_Z1bar(u[m])
                assert u[p + 1].is_zero() and u[-q - 1].is_zero()
                for m in range(-q, p + 1):
                    assert not u[m].is_zero()
                    assert apply_Z1(u[m]) == u[m + 1].scale(raising(m))
                    assert apply_Z1bar(u[m]) == u[m - 1].scale(lowering(m))
                    assert apply_T(u[m]) == u[m].scale(gr(0, p - q - 2 * m))

            for m in range(-q - 2, p + 3):
                climb = _climb(m)
                inside = -q <= m <= p
                assert _restricted(climb, p, q) == single(m, gr(1))
                assert _restricted(("Z1",) + climb, p, q) == (
                    single(m + 1, raising(m)) if inside else [])
                assert _restricted(("Z1bar",) + climb, p, q) == (
                    single(m - 1, lowering(m)) if inside else [])
                assert _restricted(("T",) + climb, p, q) == (
                    single(m, gr(0, p - q - 2 * m)) if inside else [])


@pytest.mark.parametrize("holomorphic", [True, False], ids=["H_k0", "H_0k"])
def test_fields_act_on_pluriharmonic_spaces_by_the_restriction_rules(holomorphic):
    # The pluriharmonic ends of the general rules, in their own terms: with
    # u_m = X^m f for f in H_(k,0) (X = Z1) or H_(0,k) (X = Z1bar), the other
    # field Y gives Y u_m = -m(k-m+1) u_(m-1), T u_m = +-i(k-2m) u_m (+ on
    # H_(k,0)), and X^(k+1) f = 0.  The restriction indexes X^m f by m on
    # H_(k,0) and by -m on H_(0,k).
    x_field, y_field = (apply_Z1, apply_Z1bar) if holomorphic else (apply_Z1bar, apply_Z1)
    x, y = ("Z1", "Z1bar") if holomorphic else ("Z1bar", "Z1")
    sign = 1 if holomorphic else -1
    for k in range(1, 9):
        p, q = (k, 0) if holomorphic else (0, k)
        for f in basis(p, q).elements:
            u = [f]
            for _ in range(k + 1):
                u.append(x_field(u[-1]))
            assert not any(v.is_zero() for v in u[:k + 1])
            assert u[k + 1].is_zero()
            for m in range(k + 2):
                assert y_field(u[m]) == (u[m - 1].scale(-m * (k - m + 1)) if m else ZERO)
                assert apply_T(u[m]) == u[m].scale(gr(0, sign * (k - 2 * m)))
        for m in range(k + 2):
            climb = (x,) * m
            lowered, turned = -m * (k - m + 1), gr(0, sign * (k - 2 * m))
            assert _restricted(climb, p, q) == ([(sign * m, gr(1))] if m <= k else [])
            assert _restricted((x,) + climb, p, q) == (
                [(sign * (m + 1), gr(1))] if m < k else [])
            assert _restricted((y,) + climb, p, q) == (
                [(sign * (m - 1), gr(lowered))] if 0 < m <= k else [])
            assert _restricted(("T",) + climb, p, q) == (
                [(sign * m, turned)] if m <= k and turned else [])


def test_linop_terms_are_read_only():
    with pytest.raises(TypeError):
        KOHN.terms[("T",)] = one
    with pytest.raises(TypeError):
        del KOHN.terms[next(iter(KOHN.terms))]
    assert kohn(z1c) == z1c.scale(2)


def test_z1bar_on_coordinates_and_conj_consistency():
    assert apply_Z1bar(z1c) == z2
    assert apply_Z1bar(z1).is_zero()
    assert apply_Z1bar(z1.conj()) == apply_Z1(z1).conj() == z2


def test_fields_are_tangent_to_the_sphere():
    # Annihilate |z1|^2+|z2|^2 exactly, not just modulo the sphere relation.
    assert apply_Z1(radius_sq).is_zero()
    assert apply_Z1bar(radius_sq).is_zero()
    assert apply_T(radius_sq).is_zero()


def test_reeb_acts_by_circle_grade():
    assert apply_T(z1) == z1.scale(gr(0, 1))
    assert apply_T(z1 * z1c).is_zero()
    assert apply_T(z1 ** 4) == (z1 ** 4).scale(gr(0, 4))


def test_second_order_examples():
    assert kohn(z1c) == z1c.scale(2)
    assert conj_kohn(z1) == z1.scale(2)
    assert sublap(z1 * z2c) == (z1 * z2c).scale(4)
    assert sublap(one).is_zero()


def test_paneitz_examples():
    assert paneitz(z1).is_zero()
    assert paneitz(z1 * z2c) == (z1 * z2c).scale(4)
    assert paneitz(z1 ** 2 * z2c) == (z1 ** 2 * z2c).scale(12)


def test_eigenvalue_table_small_range():
    for p in range(4):
        for q in range(4):
            for f in basis(p, q).elements:
                assert kohn(f) == f.scale(2 * (p + 1) * q)
                assert conj_kohn(f) == f.scale(2 * (q + 1) * p)
                assert sublap(f) == f.scale(2 * p * q + p + q)
                assert paneitz(f) == f.scale(p * q * (p + 1) * (q + 1))


def test_common_eigenvalue_helper():
    assert common_eigenvalue(PANEITZ, 1, 1) == gr(4)
    assert common_eigenvalue(KOHN, 0, 1) == gr(2)
    assert common_eigenvalue(SUBLAP, 0, 0) == gr(0)
    # Every word of KOHN leaves -q..p when p or q is negative, so its
    # restriction there is empty; the bidegree itself must be refused.
    for p, q in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            common_eigenvalue(KOHN, p, q)


def test_common_eigenvalue_rejects_non_scalar_action():
    from crlab import MulBy

    with pytest.raises(ArithmeticError):
        common_eigenvalue(MulBy(z1), 1, 0)


def test_common_eigenvalue_rejects_an_image_off_the_support():
    # The restriction is C_0 = z1*z1c alone, not a constant: z1*z1c*f leaves bidegree (1,1).
    with pytest.raises(ArithmeticError, match="not scalar"):
        common_eigenvalue(MulBy(z1 * z1c), 1, 1)


def test_common_eigenvalue_rejects_a_shifted_part_that_does_not_vanish():
    # KOHN is 2(p+1)q on H_(1,1); z1 * Z1bar adds the term C_-1 = z1, as
    # Z1bar does not kill H_(1,1).
    with pytest.raises(ArithmeticError, match="not scalar"):
        common_eigenvalue(KOHN + MulBy(z1) @ Z1BAR, 1, 1)


def _eigenvalue_per_element(op, p, q):
    """The common lam with op(f) == lam * f for each basis element f, else None.

    op(f) is taken letter by letter (:func:`_word_by_word`), not through the
    restriction that :func:`common_eigenvalue` reads.
    """
    values = set()
    for f in basis(p, q).elements:
        image = _word_by_word(op, f)
        mono = next(iter(f.nums))
        lam = image.coefficient(mono) / f.coefficient(mono)
        if image != f.scale(lam):
            return None
        values.add(lam)
    return values.pop() if len(values) == 1 else None


def test_common_eigenvalue_matches_the_per_element_definition():
    for op in (KOHN, CONJ_KOHN, SUBLAP, PANEITZ, T, IDENTITY, ZERO_OP):
        for p in range(9):
            for q in range(9):
                lam = common_eigenvalue(op, p, q)
                for f in basis(p, q).elements:
                    assert _word_by_word(op, f) == f.scale(lam)


def test_common_eigenvalue_raises_exactly_when_some_element_is_not_an_eigenvector(rng):
    ops = [random_operator(rng, 2)[0] for _ in range(30)]
    # Z1(z1 + z2) = z2c - z1c, so this operator kills z1 + z2, the sum of
    # the basis of H_(1,0), but sends z1 to -r^2.
    ops += [MulBy(z1) @ Z1BAR, Z1BAR, MulBy(z1), MulBy(z2c - z1c) - MulBy(z1 + z2) @ Z1]
    # [Z1, Z1bar] = -iT, so c is the zero operator written with three words,
    # and each operator below has words whose restrictions cancel.
    c = Z1 @ Z1BAR - Z1BAR @ Z1 + gr(0, 1) * T
    ops += [c, MulBy(z1) @ c]
    ops += [KOHN + a @ c - c @ a for a in (random_operator(rng, 1)[0] for _ in range(4))]
    outcomes = set()
    for op in ops:
        for p in range(4):
            for q in range(4):
                expected = _eigenvalue_per_element(op, p, q)
                if expected is None:
                    with pytest.raises(ArithmeticError, match="not scalar"):
                        common_eigenvalue(op, p, q)
                else:
                    assert common_eigenvalue(op, p, q) == expected
                outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_common_eigenvalue_builds_no_basis_and_applies_nothing(monkeypatch):
    # The eigenvalue is read off the operator's restriction to H_(p,q).
    from crlab import operators

    def forbidden(*args):
        raise AssertionError("basis built or operator applied")

    monkeypatch.setattr(LinOp, "__call__", forbidden)
    monkeypatch.setattr(operators, "basis", forbidden)
    for p in range(9):
        for q in range(9):
            assert common_eigenvalue(KOHN, p, q) == gr(2 * (p + 1) * q)
            assert common_eigenvalue(CONJ_KOHN, p, q) == gr(2 * (q + 1) * p)
            assert common_eigenvalue(SUBLAP, p, q) == gr(2 * p * q + p + q)
            assert common_eigenvalue(PANEITZ, p, q) == gr(p * q * (p + 1) * (q + 1))
    # Z1bar kills H_(2,0), so the z1 * Z1bar words drop out of the restriction.
    assert common_eigenvalue(KOHN + MulBy(z1) @ Z1BAR, 2, 0) == gr(0)


def test_exact_values_enter_and_leave_polynomials_without_scalar_arithmetic(monkeypatch):
    # Parsing, printing, a cold basis and the eigenvalue check all run on
    # integer numerators, so none needs a GaussianRational operation.
    from crlab.parsing import evaluate, parse
    from crlab.scalars import GaussianRational

    src = "(-3/4 + 2/6*i)*z1^2*z2c - conj(z1 + i)^3/(z1 - z1 + 2) + (1 - i)^2*z2*z1c"
    expected_source = parse_poly(src).to_source()

    def forbidden(*args):
        raise AssertionError("GaussianRational arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(GaussianRational, name, forbidden)
    basis.cache_clear()
    assert evaluate(parse(src)).to_source() == expected_source
    assert len(basis(3, 2).elements) == 6
    assert common_eigenvalue(KOHN, 2, 3) == gr(2 * (2 + 1) * 3)


def test_named_operators_are_applied_through_call(monkeypatch):
    # kohn(x) and the like call the operator itself, so a wrapper over
    # LinOp.__call__ sees every application.
    applied = []
    call = LinOp.__call__

    def counted(self, poly):
        applied.append(self)
        return call(self, poly)

    monkeypatch.setattr(LinOp, "__call__", counted)
    for op, named in ((KOHN, kohn), (CONJ_KOHN, conj_kohn), (SUBLAP, sublap),
                      (PANEITZ, paneitz)):
        applied.clear()
        assert named(z1 * z2c) == call(op, z1 * z2c)
        assert applied == [op]


def test_kohn_minus_conj_kohn_is_2iT():
    # 2(p+1)q - 2(q+1)p = 2(q-p) matches the action 2i * (i m) = -2m = 2(q-p).
    for p in range(7):
        for q in range(7):
            assert 2 * (p + 1) * q - 2 * (q + 1) * p == 2 * (q - p)
    for p in range(4):
        for q in range(4):
            for f in basis(p, q).elements:
                assert kohn(f) - conj_kohn(f) == apply_T(f).scale(gr(0, 2))


def test_sublaplacian_is_minus_the_symmetrized_composition(rng):
    # sublap = -(Z1 Z1bar + Z1bar Z1), the sign convention behind 2pq+p+q.
    for _ in range(5):
        f = random_poly(rng, 2, 2)
        assert sublap(f) == -(apply_Z1(apply_Z1bar(f)) + apply_Z1bar(apply_Z1(f)))


def test_integration_by_parts_adjoints(rng):
    # <Z1 f, g> = -<f, Z1bar g>; T is skew-adjoint.
    for _ in range(8):
        f, g = random_poly(rng, 2, 2), random_poly(rng, 2, 2)
        assert inner(apply_Z1(f), g) == -inner(f, apply_Z1bar(g))
        assert inner(apply_T(f), g) == -inner(f, apply_T(g))


def test_gradient_pairing_operator():
    assert grad_op(one)(z1 + z2c).is_zero()
    # Hand product-rule expansion: Z1bar(z1 z1c) = z1 z2, Z1(z1 z1c) = z1c z2c,
    # so grad_op(z1 z1c) z1 = z1 z2 * z2c + z1c z2c * 0.
    assert grad_op(z1 * z1c)(z1) == z1 * z2 * z2c


def test_gradient_pairing_product_rule(rng):
    # kohn(g f) = kohn(g) f + g kohn(f) - 2 grad_op(g) f, the identity the
    # second-variation assembly leans on.
    for _ in range(5):
        g = random_poly(rng, 2, 2)
        f = random_poly(rng, 2, 2)
        assert kohn(g * f) == kohn(g) * f + g * kohn(f) - grad_op(g)(f).scale(2)


def test_kohn_and_paneitz_are_symmetric_operators(rng):
    elems = [f for s in range(4) for p in range(s + 1) for f in basis(p, s - p).elements]
    for _ in range(6):
        x, y = random_poly(rng, 2, 2), random_poly(rng, 2, 2)
        assert inner(kohn(x), y) == inner(x, kohn(y))
        assert inner(paneitz(x), y) == inner(x, paneitz(y))
    for f in elems[:6]:
        for h in elems[:6]:
            assert inner(paneitz(f), h) == inner(f, paneitz(h))


def test_bochner_residual_vanishes_for_fixed_examples():
    for phi in [z1, z1c, z1 * z2c + (z2 ** 2).scale(gr(0, 1))]:
        residual = bochner_residual(phi)
        assert sphere_equal(residual, ZERO)
        assert vanishes_on_sphere(residual)


def test_bochner_residual_vanishes_for_random_corpus(rng):
    for _ in range(8):
        phi = random_poly(rng, max_p=3, max_q=3, terms=4)
        assert sphere_equal(bochner_residual(phi), ZERO)


def test_kohn_energy_identity_examples():
    assert kohn_energy_identity(0, 1)   # smallest nonzero eigenvalue 2 = curvature
    assert kohn_energy_identity(1, 0)   # degenerate CR side: 0 = 0
    assert kohn_energy_identity(2, 1)   # eigenvalue 6
    with pytest.raises(ValueError):
        kohn_energy_identity(0, 0)


def test_operator_algebra_composition_linearity(rng):
    op = (2 * (Z1 @ Z1BAR) + T) @ (Z1BAR + Z1)
    x, y = random_poly(rng, 2, 2), random_poly(rng, 2, 2)
    assert op(x + y) == op(x) + op(y)
    left = (Z1 @ (Z1BAR @ T))(x)
    right = ((Z1 @ Z1BAR) @ T)(x)
    assert left == right
    # Composition is associative on the normal form itself, not only once applied.
    inner_op = MulBy(z1 * z2) @ Z1
    assert dict(((Z1BAR @ T) @ inner_op).terms) == dict((Z1BAR @ (T @ inner_op)).terms)


def test_composition_moves_a_coefficient_left_one_letter_at_a_time():
    # Z1 Z1 (z2^2 h): the Z1(z2^2) = -2 z2 z1c branches of both letters merge on ("Z1",).
    op = Z1 @ Z1 @ MulBy(z2 ** 2)
    assert dict(op.terms) == {("Z1", "Z1"): z2 ** 2, ("Z1",): -4 * z2 * z1c, (): 2 * z1c ** 2}


def test_conjugate_operator_of_kohn_is_conj_kohn(rng):
    x = random_poly(rng, 2, 2)
    assert KOHN.conj_op()(x) == conj_kohn(x)
    assert CONJ_KOHN.conj_op()(x) == kohn(x)
    assert T.conj_op()(x) == apply_T(x)


_LEAVES = [(Z1, apply_Z1), (Z1BAR, apply_Z1bar), (T, apply_T), (IDENTITY, lambda f: f)]


def random_operator(rng, depth: int):
    """Random (LinOp, reference) pair built from Z1, Z1bar, T, multiplications and scalars.

    The reference applies the same expression step by step, one field or
    multiplication at a time, never through the operator's normal form.
    """
    if depth == 0:
        if rng.random() < 0.2:
            g = random_poly(rng, 1, 1, terms=2)
            return MulBy(g), lambda f: g * f
        return rng.choice(_LEAVES)
    (a, ref_a), (b, ref_b) = random_operator(rng, depth - 1), random_operator(rng, depth - 1)
    kind = rng.randrange(5)
    if kind == 0:
        return a @ b, lambda f: ref_a(ref_b(f))
    if kind == 1:
        return a * b, lambda f: ref_a(ref_b(f))
    if kind == 2:
        return a + b, lambda f: ref_a(f) + ref_b(f)
    if kind == 3:
        return a - b, lambda f: ref_a(f) - ref_b(f)
    c = random_scalar(rng)
    return (c * a if rng.random() < 0.5 else a * c), lambda f: ref_a(f).scale(c)


def test_operator_algebra_matches_sequential_application(rng):
    # The normal form (Leibniz composition, merged sums) must agree exactly,
    # as polynomials, with applying the operators one after the other.
    for _ in range(40):
        (a, ref_a), (b, _) = random_operator(rng, 3), random_operator(rng, 2)
        c = random_scalar(rng)
        f = random_poly(rng, 2, 2, terms=4)
        a_f, b_f = a(f), b(f)
        assert a_f == ref_a(f)
        assert (a @ b)(f) == a(b_f)
        assert (a * b)(f) == a(b_f)
        assert (a @ MulBy(f))(one) == a_f
        assert (a + b)(f) == a_f + b_f
        assert (a - b)(f) == a_f - b_f
        assert (-a)(f) == -a_f
        assert (c * a)(f) == a_f.scale(c)
        assert (a * c)(f) == a_f.scale(c)
        assert a.conj_op()(f) == a(f.conj()).conj()


def test_form_rows_match_inner_for_random_operators(rng):
    # Each row of a variation form, built from the operator's restriction to
    # H_(k,0) or H_(0,k), must be <op f_i, f_j> for any operator, with T
    # words or without, Hermitian or not (the rows are built before the
    # Hermitian check).  The elements are scaled pluriharmonic monomials,
    # several at one torus weight, and scaled sums with terms at several
    # weights on both sides.
    from crlab.harmonics import bidegree_monomials
    from crlab.variation import HermitianForm, _rows

    monos = [m for k in (1, 2, 3) for m in bidegree_monomials(k, 0) + bidegree_monomials(0, k)]
    with_t = non_hermitian = 0
    for _ in range(12):
        (a, _), (b, _) = random_operator(rng, 3), random_operator(rng, 1)
        op = a + b @ T
        with_t += any("T" in word for word in op.terms)
        elements = [SpherePoly.monomial(m, random_scalar(rng, allow_zero=False))
                    for m in rng.sample(monos, 8)]
        elements += [random_bidegree_poly(rng, *bidegree) for bidegree in ((2, 0), (0, 3), (3, 0))]
        elements += [z1 + z2, 3 * z1c - z2c]
        rows = _rows(op, tuple(elements))
        non_hermitian += not HermitianForm(tuple(elements), tuple(rows)).is_hermitian()
        for f, row in zip(elements, rows, strict=True):
            image = op(f)
            assert all(not value.is_zero() for value in row.values())
            for j, g in enumerate(elements):
                assert row.get(j, gr(0)) == inner(image, g)
    assert with_t and non_hermitian


_FIELDS = {"Z1": apply_Z1, "Z1bar": apply_Z1bar, "T": apply_T}


def _word_by_word(op, f):
    """op(f) as the sum of each coefficient times its word applied letter by letter."""
    total = ZERO
    for word, coeff in op.terms.items():
        image = f
        for letter in reversed(word):
            image = _FIELDS[letter](image)
        total = total + coeff * image
    return total


def test_application_matches_the_word_by_word_sum(rng):
    # op(f) takes the restriction route on a nonzero f in some H_(p,q) and
    # walks each word's letters otherwise; both must give, as polynomials, the
    # sum of each coefficient times its word applied one field at a time.
    from crlab.variation import first_variation, second_variation, variations_from_jets

    phis = [z1, z1 * z2c, z1 ** 4, random_poly(rng, 2, 2, terms=4),
            random_bidegree_poly(rng, 2, 1), parse_poly("1/3*z1^2*z2c + 2/5*i*z1*z2*z1c")]
    ops = []
    for phi in phis:
        ops += [*variations_from_jets(phi), first_variation(phi), second_variation(phi)]
    for _ in range(30):
        (a, _), (b, _) = random_operator(rng, 3), random_operator(rng, 1)
        ops.append(a + b @ T)
    assert sum(any("T" in word for word in op.terms) for op in ops[len(phis) * 4:]) >= 20
    harmonic = [f for n in range(6) for p in range(n + 1) for f in basis(p, n - p).elements]
    for bidegree in ((2, 1), (3, 2), (0, 4), (4, 0), (1, 2)):
        harmonic.append(SpherePoly.summed(
            f.scale(random_scalar(rng)) for f in basis(*bidegree).elements))
    others = [z1 * z1c, radius_sq * basis(2, 1).elements[1], z1 + z2c ** 2, ZERO, 3 * one]
    for op in ops:
        for f in harmonic + others:
            assert op(f) == _word_by_word(op, f)


def _count_field_calls(monkeypatch, calls):
    """Route every field kernel of crlab.operators through one that appends its input to calls."""
    import crlab.operators as operators

    for name, letter in (("_z1_nums", "Z1"), ("_z1bar_nums", "Z1bar"), ("_t_nums", "T")):
        def counted(nums, kernel=getattr(operators, name)):
            calls.append(nums)
            return kernel(nums)
        monkeypatch.setattr(operators, name, counted)
        monkeypatch.setitem(operators._KERNELS, letter, counted)
    operators._chains_of.cache_clear()


def test_application_to_h_pq_makes_at_most_p_plus_q_field_calls(monkeypatch, rng):
    # On f in H_(p,q), op(f) reads each u_m off f's field chains with the
    # plan's (p, q) restriction, built once per plan: at most p+q
    # field-kernel calls per element, however many words op has.  The chains
    # are kept per element, so a second operator with a fresh plan, applied
    # to the same element, makes none.
    from crlab.variation import second_variation, variations_from_jets

    ops = [second_variation(z1 ** 4 + z1c * z2), *variations_from_jets(z1 * z2c),
           PANEITZ, CONJ_KOHN @ T, random_operator(rng, 3)[0] @ T]
    calls = []
    _count_field_calls(monkeypatch, calls)

    class CountedDict(dict):
        sets = 0

        def __setitem__(self, key, value):
            self.sets += 1
            super().__setitem__(key, value)

    for source in ops:
        for p in range(5):
            for q in range(5 - p):
                op = LinOp(dict(source.terms))  # a fresh plan
                plan = op._get_plan()
                plan._restrictions = CountedDict()
                for f in basis(p, q).elements:
                    calls.clear()
                    image = op(f)
                    assert len(calls) <= p + q
                    assert image == source(f)
                    calls.clear()
                    assert LinOp(dict(source.terms))(f) == image
                    assert calls == []
                assert plan._restrictions.sets == 1


def test_forms_of_a_ladder_walk_each_shared_row_once(monkeypatch):
    # A form's rows read the same field chains as application; the rows two
    # forms of a ladder share make no field-kernel call in the second form.
    from crlab.variation import assemble_form, second_variation

    op = second_variation(z1 ** 4 + z1c * z2)
    calls = []
    _count_field_calls(monkeypatch, calls)
    small = assemble_form(op, 2)
    assert calls
    calls.clear()
    large = assemble_form(op, 3)
    # Z1 and Z1bar keep the total degree: each call extends a new degree-3 row's chain.
    assert calls and {a + b + c + d for nums in calls for a, b, c, d in nums} == {3}
    calls.clear()
    assert assemble_form(op, 3).rows == large.rows
    assert calls == []
    n = small.dimension  # the ladder's bases share their first n elements
    assert [{j: v for j, v in row.items() if j < n} for row in large.rows[:n]] == list(small.rows)


def test_equal_polynomials_share_one_field_chain():
    import crlab.operators as operators

    operators._chains_of.cache_clear()
    op = Z1 @ Z1 + Z1BAR @ T
    polys = (z1 * z2, parse_poly("z1*z2"), SpherePoly.monomial((1, 1, 0, 0)))
    images = [op(f) for f in polys]
    assert images[0] == images[1] == images[2] == apply_Z1(apply_Z1(z1 * z2))
    info = operators._chains_of.cache_info()
    assert (info.currsize, info.hits) == (1, 2)


def test_overlapping_walks_build_the_same_chains():
    # Chain steps are stored by index, each from the step below, so walks of
    # one element that interleave in threads store the images one walk would.
    import sys
    import threading
    import crlab.operators as operators

    op = Z1 @ Z1 @ Z1 @ Z1 + Z1BAR @ Z1BAR @ Z1BAR + T @ Z1
    elements = [SpherePoly.summed(f.scale(i + 1) for i, f in enumerate(basis(p, 10 - p).elements))
                for p in range(11)]  # dense, so a kernel call spans thread switches
    operators._chains_of.cache_clear()
    expected = [op(f) for f in elements]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            operators._chains_of.cache_clear()
            results = [[] for _ in range(8)]
            threads = [threading.Thread(target=lambda out=out: out.extend(map(op, elements)))
                       for out in results]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert all(out == expected for out in results)
    finally:
        sys.setswitchinterval(interval)
