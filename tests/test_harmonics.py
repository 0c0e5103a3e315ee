"""Harmonic bases, canonicalization and the Burns-Epstein verdict."""

import inspect
import random
import sys
from fractions import Fraction

import pytest
import sympy

from crlab import (SpherePoly, basis, be_check, canonical_form, canonicalize,
                   flat_laplacian, gr, inner, one, parse_poly, radius_sq, sphere_equal,
                   sublap, z1, z1c, z2, z2c)
from crlab.harmonics import bidegree_monomials
from conftest import SPHERE_POINTS, random_poly, random_scalar

ZERO = SpherePoly.zero()


def test_basis_of_pure_degrees_is_the_monomial_basis():
    assert {f.to_source() for f in basis(1, 0).elements} == {"z1", "z2"}
    assert basis(0, 0).elements == (one,)


def test_basis_1_1_spans_the_expected_space():
    elements = basis(1, 1).elements
    assert len(elements) == 3
    span_checks = [z1 * z2c, z2 * z1c, z1 * z1c - z2 * z2c]
    for target in span_checks:
        # Each expected harmonic must already be a combination; verify by
        # showing it is harmonic and its canonical form is itself.
        assert flat_laplacian(target).is_zero()
        assert canonicalize(target) == {(1, 1): target}


def test_dimensions_match_kernel_rank():
    for p in range(9):
        for q in range(9):
            assert basis(p, q).dimension == p + q + 1


def _sympy_laplacian_matrix(p, q):
    """The flat Laplacian P_{p,q} -> P_{p-1,q-1} as a dense sympy matrix.

    Columns follow ``bidegree_monomials(p, q)``; each column is sympy's own
    derivative of its monomial, so no crlab arithmetic enters the matrix.
    """
    _, z1_, z2_, w1_, w2_ = sympy.polys.rings.ring("z1 z2 w1 w2", sympy.ZZ)
    source = bidegree_monomials(p, q)
    target = {m: i for i, m in enumerate(bidegree_monomials(p - 1, q - 1))}
    matrix = sympy.zeros(len(target), len(source))
    for j, (a, b, c, d) in enumerate(source):
        mono = z1_**a * z2_**b * w1_**c * w2_**d
        lap = mono.diff(z1_).diff(w1_) + mono.diff(z2_).diff(w2_)
        for exps, coeff in lap.terms():
            matrix[target[exps], j] = coeff
    return matrix


def test_basis_equals_rref_nullspace_oracle():
    # sympy's nullspace sets each free (non-pivot) column to 1 and reads the
    # pivot entries off the reduced row echelon form: the same normalization
    # the basis promises, so the two must agree value for value and in order.
    for p in range(1, 9):
        for q in range(1, 9):
            monos = bidegree_monomials(p, q)
            expected = [list(v) for v in _sympy_laplacian_matrix(p, q).nullspace()]
            elements = basis(p, q).elements
            assert len(elements) == len(expected) == p + q + 1
            for f, vector in zip(elements, expected):
                coeffs = [f.coefficient(m) for m in monos]
                assert all(c.im == 0 for c in coeffs)
                assert [sympy.Rational(c.re.numerator, c.re.denominator)
                        for c in coeffs] == vector, (p, q)
                top, *rest = f.terms
                assert top == max(f.terms) and f.terms[top] == 1
                assert rest == sorted(rest)


def test_basis_elements_are_harmonic_and_independent():
    for (p, q) in [(1, 1), (2, 1), (3, 2), (4, 4)]:
        elements = basis(p, q).elements
        monos = bidegree_monomials(p, q)
        rows = []
        for f in elements:
            assert flat_laplacian(f).is_zero()
            assert f.bidegree_if_uniform() == (p, q)
            rows.append([sympy.Rational(f.coefficient(m).re) for m in monos])
        assert sympy.Matrix(rows).rank() == len(elements)


def test_orthogonality_between_distinct_spaces():
    spaces = [(p, q) for p in range(5) for q in range(5 - p)]
    spaces += [(6, 0), (0, 6), (3, 3), (4, 2), (5, 1)]
    for i, (p, q) in enumerate(spaces):
        for (pp, qq) in spaces[i + 1:]:
            if (p, q) == (pp, qq):
                continue
            for f in basis(p, q).elements:
                for g in basis(pp, qq).elements:
                    assert inner(f, g).is_zero()


def test_canonicalize_examples():
    parts = canonicalize(z1 * z1c)
    assert parts == {
        (1, 1): (z1 * z1c - z2 * z2c).scale(Fraction(1, 2)),
        (0, 0): one.scale(Fraction(1, 2)),
    }
    assert canonicalize(z1) == {(1, 0): z1}
    assert canonicalize(radius_sq) == {(0, 0): one}
    assert canonicalize(z1 * radius_sq) == {(1, 0): z1}


def solid_decomposition(f, p, q):
    """Reference split of bihomogeneous f of bidegree (p, q): [(k, h_k)], f = sum r^(2k) h_k.

    The recursive route through the flat Laplacian: if Delta f = sum_j
    r^(2j) u_j, then h_(j+1) = u_j / ((j+1)(p+q-j)), from
    Delta(r^(2k) h) = k(p+q-k+1) r^(2k-2) h for h in H_(p-k,q-k), and h_0
    is what remains.  It recurses min(p, q) deep.
    """
    if p == 0 or q == 0:
        return [(0, f)] if not f.is_zero() else []
    lap = flat_laplacian(f)
    if lap.is_zero():
        return [(0, f)] if not f.is_zero() else []
    higher = []
    remainder = f
    for j, u in solid_decomposition(lap, p - 1, q - 1):
        k = j + 1
        h = u.scale(Fraction(1, k * (p + q - j)))
        higher.append((k, h))
        remainder = remainder - radius_sq ** k * h
    return higher if remainder.is_zero() else [(0, remainder)] + higher


def reference_canonicalize(x):
    """canonicalize by :func:`solid_decomposition` of each bidegree piece of x."""
    pieces = {}
    for mono, coeff in x.terms.items():
        key = (mono.a + mono.b, mono.c + mono.d)
        pieces[key] = pieces.get(key, ZERO) + SpherePoly.monomial(mono, coeff)
    out = {}
    for (p, q), piece in pieces.items():
        for k, h in solid_decomposition(piece, p, q):
            out[(p - k, q - k)] = out.get((p - k, q - k), ZERO) + h
    return {key: h for key, h in out.items() if not h.is_zero()}


def test_solid_decomposition_is_an_exact_polynomial_identity(rng):
    for _ in range(10):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        f = SpherePoly.zero()
        for mono in bidegree_monomials(p, q):
            f = f + SpherePoly.monomial(mono, rng.randint(-3, 3))
        if f.is_zero():
            continue
        total = SpherePoly.zero()
        for k, h in solid_decomposition(f, p, q):
            assert flat_laplacian(h).is_zero()
            total = total + (radius_sq ** k) * h
        assert total == f


@pytest.mark.parametrize("seed", range(4))
def test_canonicalize_agrees_with_the_recursive_reference(seed):
    rng = random.Random(seed)
    for _ in range(25):
        x = random_poly(rng, 6, 6, terms=rng.randint(1, 12))
        assert canonicalize(x) == reference_canonicalize(x)
    for p in range(7):
        for q in range(7):
            x = SpherePoly({m: random_scalar(rng) for m in bidegree_monomials(p, q)})
            assert canonicalize(x) == reference_canonicalize(x), (p, q)


def test_canonical_components_rebuild_a_bihomogeneous_input_exactly(rng):
    # sum over canonicalize(f) of r^(p+q-p'-q') h_(p',q') == f as polynomials
    for p in range(7):
        for q in range(7):
            f = SpherePoly({m: random_scalar(rng) for m in rng.sample(
                bidegree_monomials(p, q), rng.randint(1, (p + 1) * (q + 1)))})
            total = ZERO
            for (pp, qq), h in canonicalize(f).items():
                assert flat_laplacian(h).is_zero() and p - pp == q - qq >= 0
                total = total + radius_sq ** (p - pp) * h
            assert total == f, (p, q)


def test_canonicalize_needs_no_recursion_that_grows_with_degree():
    f = parse_poly("((z1*z1c)^16)^8")  # bidegree (128, 128): the reference recurses 128 deep
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        parts = canonicalize(f)
    finally:
        sys.setrecursionlimit(limit)
    assert sorted(parts) == [(k, k) for k in range(129)]


def test_canonicalize_is_a_projection(rng):
    x = random_poly(rng)
    for key, piece in canonicalize(x).items():
        assert canonicalize(piece) == {key: piece}


def test_canonical_form_agrees_at_exact_sphere_points(rng):
    for _ in range(10):
        x = random_poly(rng)
        reduced = canonical_form(x)
        for pt in SPHERE_POINTS:
            assert x.eval_at(*pt) == reduced.eval_at(*pt)


def test_sphere_equal_examples():
    assert sphere_equal(z1 * z1c + z2 * z2c, one)
    assert not sphere_equal(z1, z2)
    assert sphere_equal(z1 * radius_sq, z1)


def test_sphere_equal_is_a_congruence(rng):
    # Compatible with ring operations: x ~ y implies x*w ~ y*w and x+w ~ y+w.
    w = random_poly(rng, 2, 2)
    x = random_poly(rng, 2, 2)
    y = x + (radius_sq - one) * random_poly(rng, 1, 1, terms=2)
    assert sphere_equal(x, y)
    assert sphere_equal(x * w, y * w)
    assert sphere_equal(x + w, y + w)


def test_eigenvalue_consistency_with_sublaplacian():
    for p in range(4):
        for q in range(4):
            for f in basis(p, q).elements:
                assert sublap(f) == f.scale(2 * p * q + p + q)


def test_be_check_examples():
    assert be_check(z1 ** 4).satisfies_be
    verdict = be_check(one)
    assert not verdict.satisfies_be
    assert verdict.violating_components == ((0, 0),)
    verdict = be_check(z1 ** 5 * z1c)
    assert verdict.satisfies_be
    assert set(verdict.components) == {(5, 1), (4, 0)}
    assert not be_check(z1 * z1c).satisfies_be


def test_negative_bidegree_rejected():
    with pytest.raises(ValueError):
        basis(-1, 0)


def test_basis_cache_is_safe_for_concurrent_readers():
    import threading

    basis.cache_clear()
    results = []

    def worker():
        results.append(basis(3, 2))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r.elements == results[0].elements for r in results)
    assert results[0].dimension == 6
