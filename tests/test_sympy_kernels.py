"""The polynomial kernels against sympy, which shares no code with them.

``SpherePoly.__mul__``, ``scale``, ``conj``, sums, the field appliers,
``inner``, the weighted ``integration._integral``, ``LinOp.__call__`` and
``assemble_form`` each work on integer numerators over one shared
denominator, accumulate products into one term map, and drop what
cancels.  Here
every result is recomputed in sympy's sparse polynomial ring over the
Gaussian rationals, in z1, z2 and independent variables w1, w2 standing
for conj(z1), conj(z2), and compared term by term: the same monomials with
the same exact coefficients, so a stored zero coefficient also fails.
"""

from fractions import Fraction
from math import factorial

import sympy
from sympy import QQ, QQ_I

import crlab.integration as integration
from crlab import (SpherePoly, apply_T, apply_Z1, apply_Z1bar, assemble_form, gr, inner,
                   pluriharmonic_basis, radius_sq, second_variation, z1, z1c, z2, z2c)
from crlab.operators import T, Z1, Z1BAR
from conftest import random_poly, random_scalar

RING, Z1S, Z2S, W1S, W2S = sympy.polys.rings.ring("z1 z2 w1 w2", QQ_I)
I = RING(QQ_I(0, 1))


def to_sympy(poly: SpherePoly):
    return RING({tuple(m): QQ_I(QQ(c.re.numerator, c.re.denominator),
                                QQ(c.im.numerator, c.im.denominator))
                 for m, c in poly.terms.items()})


def _fraction(value) -> Fraction:
    return Fraction(int(value.numerator), int(value.denominator))


def sympy_terms(element) -> dict:
    """{exponents: (re, im)} over the terms of a ring element (which stores no zeros)."""
    return {mono: (_fraction(c.x), _fraction(c.y)) for mono, c in element.items()}


def crlab_terms(poly: SpherePoly) -> dict:
    assert all(not coeff.is_zero() for coeff in poly.terms.values())
    return {tuple(m): (c.re, c.im) for m, c in poly.terms.items()}


def sympy_conj(element):
    """conj as a function on C^2: swap z and w and conjugate the coefficients."""
    return RING({(c, d, a, b): QQ_I(x.x, -x.y) for (a, b, c, d), x in element.items()})


_FIELDS = {
    "Z1": lambda e: W2S * e.diff(Z1S) - W1S * e.diff(Z2S),
    "Z1bar": lambda e: Z2S * e.diff(W1S) - Z1S * e.diff(W2S),
    "T": lambda e: I * (Z1S * e.diff(Z1S) + Z2S * e.diff(Z2S)
                        - W1S * e.diff(W1S) - W2S * e.diff(W2S)),
}


def sympy_integral(element):
    """Unit-mass integral over S^3: z1^a z2^b w1^a w2^b integrates to a! b! / (a+b+1)!."""
    total = QQ_I(0, 0)
    for (a, b, c, d), coeff in element.items():
        if (a, b) == (c, d):
            total += coeff * QQ_I(QQ(factorial(a) * factorial(b), factorial(a + b + 1)), 0)
    return total


def test_product_matches_sympy(rng):
    for _ in range(100):
        x, y = random_poly(rng, 3, 3, terms=6), random_poly(rng, 3, 3, terms=6)
        assert crlab_terms(x * y) == sympy_terms(to_sympy(x) * to_sympy(y))


def test_products_that_cancel_store_no_zero():
    # (z1 + z2)(z1 - z2): the two z1*z2 products cancel exactly.
    assert crlab_terms((z1 + z2) * (z1 - z2)) == {(2, 0, 0, 0): (1, 0), (0, 2, 0, 0): (-1, 0)}
    # (|z1|^2 + |z2|^2)(|z1|^2 - |z2|^2 + i/2): the two |z1 z2|^2 products cancel.
    x = radius_sq
    y = z1 * z1c - z2 * z2c + gr(0, Fraction(1, 2))
    assert len(x * y) == 4
    assert crlab_terms(x * y) == sympy_terms(to_sympy(x) * to_sympy(y))
    assert (x * (x - x)).terms == {} and (x - x).terms == {}
    # (1 + z1)(z1 - z1^2): the constant term's -z1^2 cancels z1 * z1.
    assert crlab_terms((1 + z1) * (z1 - z1 ** 2)) == {(1, 0, 0, 0): (1, 0), (3, 0, 0, 0): (-1, 0)}
    assert (1 + z1) * (z1 - z1 ** 2) == z1 - z1 ** 3


def test_fields_match_sympy(rng):
    for _ in range(100):
        f = random_poly(rng, 3, 3, terms=rng.randint(1, 6))
        expr = to_sympy(f)
        for name, apply in (("Z1", apply_Z1), ("Z1bar", apply_Z1bar), ("T", apply_T)):
            assert crlab_terms(apply(f)) == sympy_terms(_FIELDS[name](expr))


def test_fields_cancel_exactly():
    # Both fields annihilate |z1|^2 + |z2|^2: their two partial images cancel.
    assert apply_Z1(radius_sq).terms == {} and apply_Z1bar(radius_sq).terms == {}
    f = z1 * z1c * z2 + z2 * z2c * z2
    assert crlab_terms(apply_Z1(f)) == sympy_terms(_FIELDS["Z1"](to_sympy(f)))


def test_inner_matches_sympy(rng):
    for _ in range(100):
        x, y = random_poly(rng, 3, 3, terms=5), random_poly(rng, 3, 3, terms=5)
        expected = sympy_integral(to_sympy(x) * sympy_conj(to_sympy(y)))
        value = inner(x, y)
        assert (value.re, value.im) == (_fraction(expected.x), _fraction(expected.y))
    for _ in range(30):
        # The weighted pairing: the integral of w * x * conj(y).
        w, x, y = (random_poly(rng, 2, 2, terms=4) for _ in range(3))
        expected = sympy_integral(to_sympy(w) * to_sympy(x) * sympy_conj(to_sympy(y)))
        value = integration._integral(integration._groups(w.nums), x.nums,
                                      integration.targets_of((y.nums,)), x.den * y.den * w.den)
        assert (value.re, value.im) == (_fraction(expected.x), _fraction(expected.y))


def sympy_apply(op, f: SpherePoly):
    """sum over words w of coeff_w * w(f), each word applied letter by letter in sympy."""
    total = RING(0)
    for word, coeff in op.terms.items():
        image = to_sympy(f)
        for letter in reversed(word):
            image = _FIELDS[letter](image)
        total += to_sympy(coeff) * image
    return total


def test_second_variation_apply_matches_sympy(rng):
    phis = [z1 ** 2 * z2c + 3 * z2 ** 2 * z1c, z1 * z2c + z2 * z1c, z1c ** 2 + z2c ** 2,
            random_poly(rng, 2, 2, terms=3), random_poly(rng, 2, 2, terms=3)]
    for phi in phis:
        op = second_variation(phi)
        for _ in range(4):
            f = random_poly(rng, 3, 3, terms=4)
            assert crlab_terms(op(f)) == sympy_terms(sympy_apply(op, f))


def test_apply_cancels_across_words(rng):
    # [Z1, Z1bar] = -i T on functions: three words whose images cancel exactly.
    op = Z1 @ Z1BAR - Z1BAR @ Z1 + gr(0, 1) * T
    assert len(op.terms) == 3
    for _ in range(10):
        f = random_poly(rng, 3, 3, terms=5).scale(random_scalar(rng, allow_zero=False))
        assert op(f).terms == {}
        assert sympy_apply(op, f) == 0


def to_sympy_scalar(c):
    return QQ_I(QQ(c.re.numerator, c.re.denominator), QQ(c.im.numerator, c.im.denominator))


def test_scale_conj_and_sums_match_sympy(rng):
    for _ in range(100):
        x, y = random_poly(rng, 3, 3, terms=5), random_poly(rng, 3, 3, terms=5)
        c = random_scalar(rng)
        sx, sy = to_sympy(x), to_sympy(y)
        assert crlab_terms(x.scale(c)) == sympy_terms(sx * RING(to_sympy_scalar(c)))
        assert crlab_terms(x.conj()) == sympy_terms(sympy_conj(sx))
        assert crlab_terms(x + y) == sympy_terms(sx + sy)
        assert crlab_terms(x - y) == sympy_terms(sx - sy)
        assert crlab_terms(-x) == sympy_terms(-sx)


def test_assemble_form_entries_match_sympy():
    phi = (z1 ** 2 * z2c).scale(gr(1, 2)) + z1c.scale(gr(Fraction(1, 3), -1))
    op = second_variation(phi)
    form = assemble_form(op, 3)
    elements = pluriharmonic_basis(3)
    assert form.elements == elements
    for i, f in enumerate(elements):
        image = sympy_apply(op, f)
        for j, g in enumerate(elements):
            expected = sympy_integral(image * sympy_conj(to_sympy(g)))
            value = form.rows[i].get(j, gr(0))
            assert j not in form.rows[i] or not value.is_zero()  # no stored zero entry
            assert (value.re, value.im) == (_fraction(expected.x), _fraction(expected.y))
