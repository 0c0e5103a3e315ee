"""Harmonic bases, canonicalization and the Burns-Epstein verdict."""

from fractions import Fraction

import pytest
import sympy

from crlab import (SpherePoly, basis, be_check, canonical_form, canonicalize,
                   flat_laplacian, gr, inner, one, radius_sq, sphere_equal,
                   sublap, z1, z1c, z2, z2c)
from crlab.harmonics import bidegree_monomials, solid_decomposition
from conftest import SPHERE_POINTS, random_poly

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
