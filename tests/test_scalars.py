"""Field arithmetic of Gaussian rationals."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from crlab import gr

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=12)
scalars = st.builds(gr, rationals, rationals)

# Parts for the reference-model tests: small integers, small rationals and
# rationals with numerators and denominators of up to 100 bits.
big_rationals = st.builds(Fraction, st.integers(-2 ** 100, 2 ** 100), st.integers(1, 2 ** 100))
parts = st.one_of(st.integers(-40, 40), rationals, big_rationals)
pairs = st.tuples(parts, parts).map(lambda p: (Fraction(p[0]), Fraction(p[1])))


def test_construction_and_canonical_form():
    x = gr(Fraction(2, 4), Fraction(-6, 3))
    assert x.re == Fraction(1, 2) and x.im == -2
    assert x.re.denominator == 2 and x.im.denominator == 1


def test_imaginary_unit_squares_to_minus_one():
    i = gr(0, 1)
    assert i * i == gr(-1)


def test_division_inverts_multiplication():
    x = gr(Fraction(3, 7), Fraction(-2, 5))
    y = gr(Fraction(1, 3), 4)
    assert (x * y) / y == x
    with pytest.raises(ZeroDivisionError):
        x / gr(0)


def test_norm_is_real_product_with_conjugate():
    x = gr(Fraction(3, 4), Fraction(5, 6))
    prod = x * x.conj()
    assert prod.is_real()
    assert prod.re == Fraction(9, 16) + Fraction(25, 36)


def test_real_sign_requires_real_value():
    assert gr(Fraction(-7, 2)).real_sign() == -1
    assert gr(0).real_sign() == 0
    with pytest.raises(ValueError):
        gr(1, 1).real_sign()


def test_power():
    assert gr(0, 1) ** 4 == gr(1)
    assert gr(2) ** 10 == gr(1024)
    with pytest.raises(ValueError):
        gr(2) ** -1


def test_str_forms():
    assert str(gr(Fraction(3, 2))) == "3/2"
    assert str(gr(0, 1)) == "i"
    assert str(gr(0, -1)) == "-i"
    assert str(gr(Fraction(1, 2), 3)) == "1/2+3*i"


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars, scalars)
def test_conjugation_is_a_ring_involution(x, y):
    assert x.conj().conj() == x
    assert (x * y).conj() == x.conj() * y.conj()
    assert (x + y).conj() == x.conj() + y.conj()


@given(scalars)
def test_modulus_squared_is_real_nonnegative(x):
    norm = x * x.conj()
    assert norm.is_real()
    assert norm.re >= 0
    assert (norm.re == 0) == x.is_zero()


# -- reference model: a Gaussian rational as a pair of Fractions ---------------


def ref_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def ref_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def ref_str(x):
    re, im = x
    if not im:
        return str(re)
    if not re:
        return {1: "i", -1: "-i"}.get(im, f"{im}*i")
    mag = abs(im)
    return f"{re}{'+' if im > 0 else '-'}{'i' if mag == 1 else f'{mag}*i'}"


def assert_matches(value, expected):
    """value equals the reference pair and is stored in canonical form."""
    re, im = expected
    assert value.re == re and value.im == im
    assert type(value.re) is Fraction and type(value.im) is Fraction
    a, b, d = value._a, value._b, value._d
    assert d > 0 and gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (re, im)
    if not re and not im:
        assert (a, b, d) == (0, 0, 1)
    rebuilt = gr(re, im)
    assert value == rebuilt and hash(value) == hash(rebuilt)
    assert str(value) == ref_str(expected)


@given(pairs, pairs)
def test_arithmetic_matches_fraction_pair_model(p, q):
    x, y = gr(*p), gr(*q)
    assert_matches(x, p)
    assert_matches(x + y, ref_add(p, q))
    assert_matches(x - y, ref_sub(p, q))
    assert_matches(x * y, ref_mul(p, q))
    assert_matches(-x, (-p[0], -p[1]))
    assert_matches(x.conj(), (p[0], -p[1]))
    if q != (0, 0):
        assert_matches(x / y, ref_div(p, q))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert (x == y) == (p == q)
    assert (x != y) == (p != q)


@given(pairs, parts)
def test_mixed_int_and_fraction_operands_on_both_sides(p, s):
    x, r = gr(*p), (Fraction(s), Fraction(0))
    assert_matches(x + s, ref_add(p, r))
    assert_matches(s + x, ref_add(r, p))
    assert_matches(x - s, ref_sub(p, r))
    assert_matches(s - x, ref_sub(r, p))
    assert_matches(x * s, ref_mul(p, r))
    assert_matches(s * x, ref_mul(r, p))
    if s:
        assert_matches(x / s, ref_div(p, r))
    if p != (0, 0):
        assert_matches(s / x, ref_div(r, p))
    assert (x == s) == (p == r)
    assert (s == x) == (p == r)
    if x == s:
        assert hash(x) == hash(s)
    real = gr(s)
    assert real == s and hash(real) == hash(s)
    assert len({real, s}) == 1 and {s: "x"}.get(real) == "x"


def test_equal_values_built_differently_share_a_hash():
    x = gr(Fraction(1, 3), Fraction(-1, 6))
    y = (gr(2, -1) * Fraction(1, 6)) / gr(1) + 0
    assert x == y and hash(x) == hash(y)
    assert (x._a, x._b, x._d) == (2, -1, 6)
    zero = gr(Fraction(5, 7), 3) - gr(Fraction(5, 7), 3)
    assert (zero._a, zero._b, zero._d) == (0, 0, 1)
    assert gr(Fraction(4, 6), Fraction(-3, 9))._d == 3


def test_foreign_operands_behave_as_before():
    x = gr(Fraction(1, 2), 3)
    with pytest.raises(TypeError):
        x * 1.5
    with pytest.raises(TypeError):
        1.5 * x
    with pytest.raises(TypeError):
        x + "1"
    assert (x == None) is False  # noqa: E711
    assert (x != None) is True  # noqa: E711
    for part in (0.1, "1/3"):
        with pytest.raises(TypeError):
            gr(part)
        with pytest.raises(TypeError):
            gr(1, part)
