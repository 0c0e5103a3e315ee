"""Ring structure, gradings and conjugation of sphere polynomials."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from crlab import (KOHN, Monomial, SpherePoly, apply_T, apply_Z1, apply_Z1bar, flat_laplacian,
                   gr, one, radius_sq, spherepoly, z1, z1c, z2, z2c)
from conftest import SPHERE_POINTS, random_poly


def test_additive_inverse_cancels():
    assert (z1 + (-z1)).is_zero()


def test_addition_merges_terms():
    assert z1 + z1 == z1.scale(2)


def test_real_combination_fixed_by_conjugation():
    x = z1 * z2c + z2 * z1c
    assert len(x) == 2
    assert x.conj() == x


def test_product_of_variable_and_conjugate():
    assert z1 * z1c == SpherePoly.monomial(Monomial(1, 0, 1, 0))


def test_square_of_real_sum():
    lhs = (z1 + z1c) ** 2
    rhs = z1 ** 2 + (z1 * z1c).scale(2) + z1c ** 2
    assert lhs == rhs


def test_unit_modulus_coefficient():
    phi = z2.scale(gr(0, 1))
    assert phi * phi.conj() == z2 * z2c


def test_conjugation_is_ring_involution(rng):
    for _ in range(10):
        x, y = random_poly(rng), random_poly(rng)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x * y).conj() == y.conj() * x.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.conj().conj() == x


def test_evaluation_is_a_ring_homomorphism(rng):
    x, y = random_poly(rng), random_poly(rng)
    for pt in SPHERE_POINTS[:4]:
        assert (x * y).eval_at(*pt) == x.eval_at(*pt) * y.eval_at(*pt)
        assert (x + y).eval_at(*pt) == x.eval_at(*pt) + y.eval_at(*pt)
        assert x.conj().eval_at(*pt) == x.eval_at(*pt).conj()


def test_high_degree_arithmetic_stays_exact():
    # Total degree 20, checked against exact evaluation at sphere points.
    x = (z1 + z2c.scale(gr(Fraction(1, 3), 1))) ** 10
    y = (z2 - z1c.scale(Fraction(2, 5))) ** 10
    prod = x * y
    assert max(sum(mono) for mono in prod.terms) == 20
    for pt in SPHERE_POINTS[:3]:
        assert prod.eval_at(*pt) == x.eval_at(*pt) * y.eval_at(*pt)


def test_radius_polynomial_is_real_and_grade_zero():
    assert radius_sq.conj() == radius_sq


def test_scale_and_zero_purge():
    assert z1.scale(0).is_zero()
    assert (z1 - z1).is_zero()
    assert not SpherePoly.zero()


@st.composite
def small_polys(draw):
    n = draw(st.integers(0, 4))
    out = SpherePoly.zero()
    for _ in range(n):
        exps = draw(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 2), st.integers(0, 2)))
        num = draw(st.integers(-5, 5))
        den = draw(st.integers(1, 4))
        imnum = draw(st.integers(-5, 5))
        out = out + SpherePoly.monomial(Monomial(*exps), gr(Fraction(num, den), imnum))
    return out


@settings(max_examples=60)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


def test_power_equals_repeated_product_and_repeated_squares(rng):
    for _ in range(10):
        x = random_poly(rng, 2, 2, terms=3)
        product = one
        for n in range(7):
            assert x ** n == product
            product = product * x
        square = x * x
        assert x ** 8 == (square * square) * (square * square)
    base = z1 + z2 + z1c + z2c
    assert len(base ** 12) == 455  # C(15, 3) monomials of degree 12


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 3)] * 4), st.integers(-9, 9), st.integers(-9, 9),
       st.integers(1, 12), st.integers(0, 9))
def test_one_term_power_equals_repeated_product(exps, re, im, den, n):
    term = SpherePoly.monomial(exps, gr(Fraction(re, den), Fraction(im, den)))
    product = one
    for _ in range(n):
        product = product * term
    assert term ** n == product


def test_one_term_power_makes_no_product(monkeypatch):
    def no_product(*args):
        raise AssertionError("a one-term power multiplied polynomials")

    term = SpherePoly.monomial((1, 0, 2, 1), gr(Fraction(1, 2), Fraction(-3, 4)))
    expected = term * term * term * term * term
    monkeypatch.setattr(spherepoly, "_mul_into", no_product)
    assert term ** 5 == expected
    assert (z1 + z2) ** 1 == z1 + z2
    with pytest.raises(AssertionError, match="multiplied"):
        (z1 + z2) ** 2


# -- the integer view: numerators over one shared denominator -----------------


@st.composite
def rational_polys(draw):
    """Polynomials whose coefficients have unrelated denominators up to 12."""
    n = draw(st.integers(0, 5))
    terms = {}
    for _ in range(n):
        exps = draw(st.tuples(*[st.integers(0, 2)] * 4))
        re = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 12)))
        im = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 12)))
        terms[Monomial(*exps)] = gr(re, im)
    return SpherePoly(terms)


scalars = st.builds(lambda a, b, c, d: gr(Fraction(a, b), Fraction(c, d)),
                    st.integers(-6, 6), st.integers(1, 6), st.integers(-6, 6), st.integers(1, 6))


def assert_canonical(poly: SpherePoly):
    assert poly.den > 0
    assert all(pair != (0, 0) for pair in poly.nums.values())
    assert gcd(poly.den, *(n for pair in poly.nums.values() for n in pair)) == 1
    assert all(not coeff.is_zero() for coeff in poly.terms.values())
    assert SpherePoly(dict(poly.terms)) == poly
    # Numerator maps are keyed by plain exponent tuples; Monomial is the view in terms.
    assert all(type(mono) is tuple and len(mono) == 4 and all(type(e) is int for e in mono)
               for mono in poly.nums)
    assert all(type(mono) is Monomial for mono in poly.terms)


@settings(max_examples=80, deadline=None)
@given(rational_polys(), rational_polys(), scalars)
def test_every_result_is_canonical(x, y, c):
    results = [x, x + y, x - y, x - x, x * y, x * (x - x), x.scale(c), x.scale(0), -x,
               x.conj(), x ** 3, apply_Z1(x), apply_Z1bar(x), apply_T(x), KOHN(x),
               flat_laplacian(x), SpherePoly.summed([x, y, -x, y.scale(c)])]
    for poly in results:
        assert_canonical(poly)


@settings(max_examples=80, deadline=None)
@given(rational_polys(), rational_polys(), scalars)
def test_equality_agrees_with_coefficient_maps(x, y, c):
    pairs = [(x, y), (x * y, y * x), ((x + y) - y, x), (x.scale(2), x + x),
             (x.scale(c).scale(c), x.scale(c * c)), (x * y + x, x * (y + 1)),
             (x.conj().conj(), x), (x, x.scale(c))]
    for a, b in pairs:
        assert (a == b) == (a.terms == b.terms)
        assert (a == b) == (a.nums == b.nums and a.den == b.den)


def test_monomials_enter_as_any_four_sequence():
    x = SpherePoly({Monomial(1, 0, 0, 0): 2, (0, 1, 0, 0): 3})
    assert_canonical(x)
    assert_canonical(SpherePoly.monomial([0, 0, 1, 0], gr(0, 1)))
    assert x.coefficient([1, 0, 0, 0]) == 2 and x.coefficient(Monomial(0, 1, 0, 0)) == 3
    for bad in ((1, 0, 0), (1, 0, 0, 0, 0)):
        with pytest.raises(TypeError):
            SpherePoly({bad: 1})
        with pytest.raises(TypeError):
            SpherePoly.monomial(bad)
        with pytest.raises(TypeError):
            x.coefficient(bad)


def test_products_with_other_types_are_not_implemented():
    x = SpherePoly({Monomial(1, 0, 0, 0): 2})
    assert x.__mul__("x") is NotImplemented and x.__rmul__("x") is NotImplemented
    for bad in ("x", 1.5, None):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
    assert x * 3 == 3 * x == x.scale(3)
    assert x * Fraction(1, 2) == x * gr(Fraction(1, 2)) == x.scale(Fraction(1, 2))


def test_shared_denominator_is_the_lcm_of_the_coefficients():
    x = SpherePoly({Monomial(1, 0, 0, 0): Fraction(1, 4), Monomial(0, 1, 0, 0): gr(0, Fraction(1, 6))})
    assert (x.nums, x.den) == ({Monomial(1, 0, 0, 0): (3, 0), Monomial(0, 1, 0, 0): (0, 2)}, 12)
    # (1 + i)/2 * (1 - i) = 1: the gcd taken after the product clears the denominator.
    assert (z1.scale(gr(Fraction(1, 2), Fraction(1, 2))) * z1.scale(gr(1, -1))) == z1 * z1
    assert ((z1 * z1).den, (x.scale(12)).den) == (1, 1)
    assert x.terms == {Monomial(1, 0, 0, 0): Fraction(1, 4), Monomial(0, 1, 0, 0): gr(0, Fraction(1, 6))}
