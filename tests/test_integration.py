"""Exact moments and the L^2 inner product, checked against the Beta oracle."""

import time
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd

import pytest

import crlab.integration as integration
import crlab.variation as variation
from crlab import (MulBy, SpherePoly, assemble_form, basis, canonicalize, first_variation, gr,
                   inner, integrate, one, parse_poly, second_variation, sphere_equal,
                   weighted_gradient_pairing, z1, z1c, z2, z2c)
from crlab.operators import _walk
from crlab.scalars import _make
from crlab.spherepoly import _content_key
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
                                      integration.targets_of((y.nums,)), x.den * y.den * w.den,
                                      8)
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



# -- the one factorial scale, against the per-moment route it replaced ----------


def reference_pair_into(sums, weight, x, targets):
    """Add the numerators of the integral of w * x * conj(y_j), per moment (h, a), into sums[j]."""
    for (a, b, c, d), (s, t) in x.items():
        for (ga, gb), wterms in weight:
            for a1, b1, m, n in wterms:
                ka, kb, p, q = a + a1, b + b1, m * s - n * t, m * t + n * s
                for j, oc, od, u, v in targets.get((ga + a - c, gb + b - d), ()):
                    entry = sums.setdefault(j, {})
                    re, im = entry.get((ka + oc, kb + od), (0, 0))
                    entry[(ka + oc, kb + od)] = (re + p * u + q * v, im + q * u - p * v)


def reference_moment_total(sums, den):
    """(sum over (h, a) of (re + im*i) h! a! / (h+a+1)!) / den, over the lcm of the moments."""
    re = im = 0
    common = 1
    for (h, a), (x, y) in sums.items():
        n = (h + a + 1) * comb(h + a, h)
        g = gcd(n, common)
        re, im = re * (n // g), im * (n // g)
        x, y = x * (common // g), y * (common // g)
        common *= n // g
        re, im = re + x, im + y
    return _make(re, im, common * den)


def reference_integral(weight, x, targets, den):
    sums = {}
    reference_pair_into(sums, weight, x, targets)
    return reference_moment_total(sums.get(0, {}), den)


def reference_rows(op, elements):
    """variation._rows with every entry summed per moment and divided by reference_moment_total."""
    plan = op._get_plan()
    targets = integration.targets_of(f.nums for f in elements)
    rows = []
    for f in elements:
        sums = {}
        for m, nums in plan.restrict(*variation._side(f)):
            (_, image), = _walk(((m, None),), _content_key(f))
            reference_pair_into(sums, integration._groups(nums), image, targets)
        row = {j: reference_moment_total(entry, plan.den * f.den * elements[j].den)
               for j, entry in sums.items()}
        rows.append({j: value for j, value in row.items() if value})
    return rows


def _exact(rows):
    """Each row's (j, re, im, den) in key order: equal for equal reduced entries in equal order."""
    return [[(j, v._a, v._b, v._d) for j, v in row.items()] for row in rows]


@pytest.mark.parametrize("src, pmax, vary", [("(z1+z2+z1c+z2c)^2", 12, second_variation),
                                             ("z1^4 + z1c*z2", 16, second_variation),
                                             ("z1^2*z2c + z1c", 12, first_variation)])
def test_form_rows_equal_the_per_moment_route(src, pmax, vary):
    form = assemble_form(vary(parse_poly(src)), pmax)
    assert _exact(form.rows) == _exact(reference_rows(vary(parse_poly(src)), form.elements))


def test_weighted_pairings_equal_the_per_moment_route():
    # Every pairing of the 15 monomial phis of degree <= 2, for k, l <= 4, on both sides.
    phis = [SpherePoly.monomial((a, b, c, d)) for a, b, c, d in product(range(3), repeat=4)
            if a + b + c + d <= 2]
    assert len(phis) == 15
    for phi in phis:
        for side, conj in (("holomorphic", False), ("antiholomorphic", True)):
            for k, l in product(range(1, 5), repeat=2):
                weights = variation._weights(phi, k)
                for f_k, f_l in product(basis(*((0, k) if conj else (k, 0))).elements,
                                        basis(*((0, l) if conj else (l, 0))).elements):
                    grad_k = variation._gradient_of(_content_key(f_k), side)
                    grad_l = variation._gradient_of(_content_key(f_l), side)
                    den = f_k.den * f_l.den
                    value = weighted_gradient_pairing(phi, k, l, side, f_k, f_l)
                    assert value == reference_integral(weights.weight[conj], grad_k.nums,
                                                       grad_l.targets, den * weights.weight_den)
                    reach = weights.norm_degree + grad_k.degrees[0] + grad_l.degrees[1]
                    norm = integration._integral(weights.norm, grad_k.nums, grad_l.targets,
                                                 den * weights.norm_den, reach)
                    assert norm == reference_integral(weights.norm, grad_k.nums, grad_l.targets,
                                                      den * weights.norm_den)


def _reach(w, x, y):
    """The scale of the integral of w * x * conj(y), from the operands' degrees."""
    return (integration._degree(w.nums) + integration._degree(x.nums)
            + integration._degree(y.nums, conj=True))


def test_integrals_up_to_degree_16_agree_with_the_oracle(rng):
    # Weights that are not homogeneous, so one integral meets several h + a.
    for _ in range(12):
        w = random_poly(rng, 3, 3, terms=4) + one
        x, y = random_poly(rng, 8, 8, terms=4), random_poly(rng, 8, 8, terms=4)
        value = integration._integral(integration._groups(w.nums), x.nums,
                                      integration.targets_of((y.nums,)), x.den * y.den * w.den,
                                      _reach(w, x, y))
        assert value == oracle_integral(w * x * y.conj())
        assert inner(x, y) == oracle_inner(x, y)
        assert integrate(x * y) == oracle_integral(x * y)


def test_scale_rows_are_the_factorial_quotients():
    for s in range(12):
        scale = integration._scale(s)
        assert scale.den == factorial(s + 1)
        for h in range(s + 1):
            assert scale.row(h) == [factorial(h) * factorial(a) * factorial(s + 1)
                                    // factorial(h + a + 1) for a in range(s - h + 1)]


def test_a_scale_one_too_small_raises():
    # x * conj(x) of a monomial z1^a z2^b meets only the moment (a, b), and a + b is its scale.
    for a, b in [(0, 0), (3, 0), (0, 3), (2, 5), (7, 1)]:
        x = SpherePoly.monomial((a, b, 0, 0))
        targets = integration.targets_of((x.nums,))
        assert _reach(one, x, x) == a + b
        assert (integration._integral(integration._ONE, x.nums, targets, 1, a + b)
                == gr(Fraction(factorial(a) * factorial(b), factorial(a + b + 1))))
        if a + b:
            with pytest.raises(IndexError):
                integration._integral(integration._ONE, x.nums, targets, 1, a + b - 1)


def test_a_degree_2048_integral_is_cheap_and_keeps_a_linear_memo():
    start = time.perf_counter()
    assert integrate(parse_poly("((z1*z1c)^32)^32")) == gr(Fraction(1, 1025))
    assert inner(SpherePoly.monomial((1024, 0, 0, 0)), one) == 0
    assert inner(SpherePoly.monomial((1024, 0, 0, 0)), SpherePoly.monomial((1024, 0, 0, 0))) == \
        gr(Fraction(1, 1025))
    assert time.perf_counter() - start < 0.5
    scale = integration._scale(1024)
    held = 1 + len(scale.rows) + sum(len(row) for row in scale.rows if row is not None)
    assert held <= 2 * 1026
