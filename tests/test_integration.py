"""Exact moments and the L^2 inner product, checked against the Beta oracle."""

from fractions import Fraction

import crlab.integration as integration
from crlab import (MulBy, SpherePoly, canonicalize, gr, inner, integrate, one,
                   sphere_equal, z1, z1c, z2, z2c)
from conftest import beta_moment, oracle_inner, oracle_integral, random_poly


def test_mismatched_exponents_integrate_to_zero():
    assert integrate(SpherePoly.monomial((1, 0, 0, 1))).is_zero()
    assert integrate(SpherePoly.monomial((2, 1, 1, 2))).is_zero()


def test_first_moments_match_beta_oracle():
    # |z1|^2 -> 1/2 and |z1 z2|^2 -> 1/6 under the unit-mass measure.
    assert integrate(SpherePoly.monomial((1, 0, 1, 0))) == gr(Fraction(1, 2))
    assert integrate(SpherePoly.monomial((1, 1, 1, 1))) == gr(Fraction(1, 6))
    for a in range(6):
        for b in range(6):
            assert integrate(SpherePoly.monomial((a, b, a, b))) == gr(beta_moment(a, b))


def test_inner_product_examples():
    assert inner(z1, z1) == gr(Fraction(1, 2))
    assert inner(z1, z2).is_zero()
    assert inner(one, one) == gr(1)


def test_integrate_agrees_with_oracle_on_random_polys(rng):
    for _ in range(25):
        x = random_poly(rng)
        assert integrate(x) == oracle_integral(x)


def test_inner_agrees_with_oracle_and_is_conjugate_symmetric(rng):
    for _ in range(15):
        x, y = random_poly(rng), random_poly(rng)
        value = inner(x, y)
        assert value == oracle_inner(x, y)
        assert inner(y, x) == value.conj()


def test_weighted_inner_agrees_with_oracle(rng):
    # _integral integrates w * x * conj(y) without forming w * x; the
    # weights include a non-real one and ones with terms at several torus
    # weights (z1 has weight (1, 0), z1c (-1, 0), z2 * z1c (-1, 1)).
    weights = [gr(2, -3) * z1 * z2c + z2 * z1c, 3 * z1 - z1c + gr(0, 1) * z2 * z1c,
               one, SpherePoly.zero()]
    weights += [random_poly(rng, 2, 2, terms=4) for _ in range(8)]
    for w in weights:
        x, y = random_poly(rng), random_poly(rng)
        value = integration._integral(integration._groups(w.nums), x.nums,
                                      integration.targets_of((y.nums,)), x.den * y.den * w.den)
        assert value == oracle_integral(w * x * y.conj())
        assert value == inner(w * x, y)


def test_norm_positive_definite_on_sphere_functions(rng):
    for _ in range(10):
        x = random_poly(rng)
        value = inner(x, x)
        assert value.is_real() and value.real_sign() >= 0
        assert (value.real_sign() == 0) == sphere_equal(x, SpherePoly.zero())


def test_parseval_against_harmonic_components(rng):
    for _ in range(10):
        x = random_poly(rng, max_p=2, max_q=2)
        total = gr(0)
        for piece in canonicalize(x).values():
            total = total + inner(piece, piece)
        assert inner(x, x) == total


def test_circle_grading_orthogonality(rng):
    # Split x by circle grade m = a + b - c - d, the Fourier mode along the Hopf fiber.
    x = random_poly(rng)
    pieces: dict[int, SpherePoly] = {}
    for (a, b, c, d), coeff in x.terms.items():
        m = a + b - c - d
        pieces[m] = pieces.get(m, SpherePoly.zero()) + SpherePoly.monomial((a, b, c, d), coeff)
    assert len(pieces) > 1
    keys = sorted(pieces)
    for i, mi in enumerate(keys):
        for mj in keys[i + 1:]:
            assert inner(pieces[mi], pieces[mj]).is_zero()


def test_multiplication_by_real_function_is_symmetric(rng):
    g = random_poly(rng, max_p=2, max_q=2)
    g = g + g.conj()  # force real
    mul = MulBy(g)
    for _ in range(5):
        x, y = random_poly(rng, 2, 2), random_poly(rng, 2, 2)
        assert inner(mul(x), y) == inner(x, mul(y))

