"""Deformed structures: torsion closed forms, jets, and the Rossi family."""

from fractions import Fraction

import pytest

from crlab import (DegenerateStructureError, SpherePoly, TJet, apply_Z1, apply_Z1bar,
                   connection_coefficient_jets, gr, one, radius_sq, rossi, sphere_equal, torsion,
                   torsion_factor, zero_torsion_classify, z1, z1c, z2, z2c)
from crlab.deformation import levi_normalizer_jet
from conftest import random_bidegree_poly

ZERO = SpherePoly.zero()

TWENTY_TS = [Fraction(s * n, d) for s in (1, -1)
             for n, d in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4),
                          (1, 5), (2, 5), (3, 5), (4, 5), (1, 7)]]


def test_tjet_arithmetic_truncates():
    a = TJet([one, z1])
    b = TJet([one, z2])
    prod = a * b
    assert prod.poly_coefficient(0) == one
    assert prod.poly_coefficient(1) == z1 + z2
    assert prod.poly_coefficient(2) == z1 * z2
    cubed = a * a * a
    assert cubed.poly_coefficient(2) == (z1 * z1).scale(3)
    assert len(cubed.coeffs) == 3   # the t^3 term z1^3 is dropped


def test_tjet_shift_truncates():
    jet = TJet([one]).shift(2)
    assert jet.poly_coefficient(2) == one
    assert jet.poly_coefficient(0).is_zero()
    lin = TJet([one, z1.scale(2)]).shift(1)
    assert lin.coeffs == [None, one, z1.scale(2)]
    assert TJet([one, z1]).shift(2).coeffs == [None, None, one]


def test_levi_normalizer_jet_coefficients():
    phi = z1 * z2c
    jet = levi_normalizer_jet(phi)
    norm = phi * phi.conj()
    assert jet.poly_coefficient(0) == one
    assert jet.poly_coefficient(1).is_zero()
    assert jet.poly_coefficient(2) == norm.scale(Fraction(1, 2))
    # (F^2)(t) * (1 - t^2 |phi|^2) = 1 up to the truncation order.
    f2 = jet * jet
    inverse = TJet([one, None, -norm])
    prod = f2 * inverse
    assert prod.poly_coefficient(0) == one
    assert prod.poly_coefficient(1).is_zero()
    assert prod.poly_coefficient(2).is_zero()


def test_connection_jets_match_displayed_expansions(rng):
    for phi in [one, z1, z1 * z2c, z1 ** 4, random_bidegree_poly(rng, 2, 1)]:
        phibar = phi.conj()
        jets = connection_coefficient_jets(phi)
        norm = phi * phibar
        # order-1 coefficients:
        assert jets.along_holo.poly_coefficient(1) == -apply_Z1bar(phibar)
        assert jets.along_antiholo.poly_coefficient(1) == apply_Z1(phi)
        # order-2 coefficients:
        assert jets.along_holo.poly_coefficient(2) == \
            -(phibar * apply_Z1(phi) + apply_Z1(norm))
        assert jets.along_antiholo.poly_coefficient(2) == phi * apply_Z1bar(phibar)


def test_constant_deformation_jets_vanish():
    jets = connection_coefficient_jets(one)
    for k in range(3):
        assert jets.along_holo.poly_coefficient(k).is_zero()
        assert jets.along_antiholo.poly_coefficient(k).is_zero()


def test_torsion_of_constant_deformation():
    num, den = torsion(one)
    assert num.poly_coefficient(1) == one.scale(gr(0, 4))   # 4*i*t
    assert den.poly_coefficient(0) == one
    assert den.poly_coefficient(2) == -one                  # 1 - t^2


def test_torsion_vanishes_exactly_on_the_be_diagonal():
    assert sphere_equal(torsion_factor(z1 ** 4), ZERO)
    num, _ = torsion(z1 ** 3 * z2, Fraction(1, 3))
    assert sphere_equal(num, ZERO)
    num, _ = torsion(z1 ** 3, Fraction(1, 3))
    assert not sphere_equal(num, ZERO)


@pytest.mark.parametrize("phi, t", [(one, 1), (one, -1), (2 * radius_sq, Fraction(1, 2))])
def test_torsion_rejects_a_denominator_that_vanishes_on_the_sphere(phi, t):
    # 1 - t^2 |phi|^2 is identically 0 on S^3: |phi|^2 = 4 there for 2 * radius_sq.
    with pytest.raises(DegenerateStructureError):
        torsion(phi, t)


@pytest.mark.parametrize("t", [gr(0, 1), gr(1, 1), gr(Fraction(1, 3), Fraction(2, 5))])
@pytest.mark.parametrize("phi", [one.scale(Fraction(1, 2)), z1, z1c * z2 - z1 ** 2,
                                 z1 ** 4 * gr(1, 2) + z2c])
def test_torsion_at_complex_t_is_the_torsion_of_t_phi(phi, t):
    # Z1bar + t*phi*Z1 is the structure of t*phi at parameter 1, so the
    # denominator scales |phi|^2 by |t|^2, not t^2.
    num, den = torsion(phi, t)
    num_1, den_1 = torsion(phi.scale(t), 1)
    assert num == num_1
    assert sphere_equal(den, den_1)


def test_torsion_of_antiholomorphic_coordinate():
    # T(z1c) = -i z1c, so the numerator is -t(-i - 4i) z1c = 5it z1c.
    num, _ = torsion(z1c)
    assert num.poly_coefficient(1) == z1c.scale(gr(0, 5))


def test_torsion_grading_law(rng):
    for (p, q) in [(1, 0), (2, 1), (4, 0), (3, 3), (5, 1)]:
        phi = random_bidegree_poly(rng, p, q)
        m = p - q
        num, _ = torsion(phi)
        assert num.poly_coefficient(1) == phi.scale(gr(0, -(m - 4)))


def test_zero_torsion_scan():
    assert zero_torsion_classify(8, 8) == [(4, 0), (5, 1), (6, 2), (7, 3), (8, 4)]


def test_rossi_standard_point():
    data = rossi(0)
    assert data["webster_R"] == gr(2)
    assert data["torsion_coeff"].is_zero()
    assert data["branch"] == "|t|<1"


def test_rossi_requires_real_parameter():
    with pytest.raises(ValueError):
        rossi(gr(0, 1))


def test_rossi_closed_forms_both_branches():
    data = rossi(Fraction(1, 2))
    assert data["webster_R"] == gr(Fraction(10, 3))
    assert data["torsion_coeff"] == gr(0, Fraction(8, 3))
    data = rossi(2)
    assert data["webster_R"] == gr(Fraction(10, 3))
    assert data["branch"] == "|t|>1"
    data = rossi(Fraction(3, 2))
    assert data["webster_R"] == gr(Fraction(26, 5))
    with pytest.raises(DegenerateStructureError):
        rossi(1)
    with pytest.raises(DegenerateStructureError):
        rossi(-1)


def test_rossi_matches_general_torsion_formula():
    for t in TWENTY_TS:
        data = rossi(t)
        num, den = torsion(one, t)
        num_scalar = num.coefficient((0, 0, 0, 0))
        den_scalar = den.coefficient((0, 0, 0, 0))
        assert num_scalar == data["torsion_coeff"] * den_scalar

