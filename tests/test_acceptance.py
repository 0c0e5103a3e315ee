"""Acceptance suite: the eleven desk-scale verification criteria.

Every check is exact (tolerance zero).  Each test prints one PASS/FAIL line
(visible with ``pytest -s``); run the whole file with

    pytest -v -s tests/test_acceptance.py
"""

import random
from fractions import Fraction

import crlab.variation as variation
from crlab import (SpherePoly, assemble_form, basis, bochner_residual,
                   classify, conj_kohn, drift_square_form, first_variation, gr,
                   inner, kohn, kohn_energy_identity, one, paneitz,
                   pluriharmonic_basis, rossi, second_variation,
                   second_variation_decomposition, sphere_equal, sublap, torsion,
                   variations_from_jets, weighted_gradient_pairing,
                   zero_torsion_classify, z1, z1c, z2, z2c)
from crlab.harmonics import bidegree_monomials
from crlab.variation import POSITIVE_DEFINITE
from conftest import (random_bidegree_poly, random_pluriharmonic, random_poly,
                      same_operator_on_sphere)

ZERO = SpherePoly.zero()


def report(number: int, passed: bool, description: str):
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def test_criterion_01_eigenvalue_table():
    ok = True
    checked = 0
    for p in range(7):
        for q in range(7):
            for f in basis(p, q).elements:
                ok &= kohn(f) == f.scale(2 * (p + 1) * q)
                ok &= conj_kohn(f) == f.scale(2 * (q + 1) * p)
                ok &= sublap(f) == f.scale(2 * p * q + p + q)
                ok &= paneitz(f) == f.scale(p * q * (p + 1) * (q + 1))
                checked += 4
    report(1, ok and checked == 4 * 343,
           f"eigenvalue table exact for p,q <= 6 ({checked} identities)")


def test_criterion_02_sharpness_and_energy_identity():
    from crlab import KOHN, common_eigenvalue

    # Recompute every eigenvalue from the operator itself; the sharp bound is
    # the minimum nonzero value over the scanned range.
    scanned = {common_eigenvalue(KOHN, p, q) for p in range(7) for q in range(7)}
    nonzero = sorted(v.re for v in scanned if not v.is_zero())
    ok = nonzero[0] == 2
    for s in range(6):
        for p in range(s + 1):
            q = s - p
            if (p, q) == (0, 0):
                continue
            ok &= kohn_energy_identity(p, q)
    report(2, ok, "smallest nonzero Kohn eigenvalue is 2 = curvature; "
                  "integrated energy identity exact on p+q <= 5")


def test_criterion_03_bochner_residual_random_corpus():
    rng = random.Random(3)
    ok = True
    for _ in range(25):
        phi = random_poly(rng, max_p=3, max_q=3, terms=4)
        ok &= sphere_equal(bochner_residual(phi), ZERO)
    report(3, ok, "torsion-free Bochner residual vanishes for 25 random deformations")


def test_criterion_04_rossi_family_cross_check():
    ts = [Fraction(s * n, d) for s in (1, -1)
          for n, d in [(1, 2), (1, 3), (2, 3), (1, 4), (3, 4),
                       (1, 5), (2, 5), (3, 5), (4, 5), (1, 7)]]
    assert len(set(ts)) == 20
    ok = True
    for t in ts:
        data = rossi(t)
        num, den = torsion(one, t)
        ok &= num == SpherePoly.constant(data["torsion_coeff"] * den.coefficient((0, 0, 0, 0)))
        ok &= data["webster_R"] == gr(2 * (1 + t * t) / (1 - t * t))
    ok &= rossi(Fraction(1, 2))["webster_R"] == gr(Fraction(10, 3))
    for t in [Fraction(2), Fraction(3, 2), Fraction(-5, 2)]:
        data = rossi(t)
        ok &= data["branch"] == "|t|>1"
        ok &= data["webster_R"] == gr(2 * (1 + t * t) / (t * t - 1))
        ok &= data["torsion_coeff"] == gr(0, 4 * t / (1 - t * t))
    report(4, ok, "constant-family torsion matches 4ti/(1-t^2) for 20 rational t; "
                  "Webster curvature closed forms on both branches")


def test_criterion_05_zero_torsion_classification():
    expected = [(4, 0), (5, 1), (6, 2), (7, 3), (8, 4)]
    result = zero_torsion_classify(8, 8)
    report(5, result == expected,
           f"zero-torsion bidegrees over p,q <= 8 are exactly p = q+4: {result}")


def _variation_corpus():
    rng = random.Random(6)
    return [one, z1, z1c, z1 * z2c, z1 ** 4, random_bidegree_poly(rng, 2, 1)]


def test_criterion_06_first_variation_vanishes():
    ok = True
    for phi in _variation_corpus():
        form = assemble_form(first_variation(phi), 4)
        ok &= form.is_zero()
    report(6, ok, "first-variation quadratic form is the zero matrix at pmax=4 "
                  "for the six-deformation corpus")


def test_criterion_07_jet_oracle_equivalence():
    elems = [f for s in range(5) for p in range(s + 1)
             for f in basis(p, s - p).elements]
    ok = True
    for phi in _variation_corpus():
        jet_dot, jet_ddot = variations_from_jets(phi)
        dot, ddot = first_variation(phi), second_variation(phi)
        ok &= same_operator_on_sphere(jet_dot, dot)
        ok &= same_operator_on_sphere(jet_ddot, ddot)
        for f in elems:
            ok &= sphere_equal(jet_dot(f), dot(f))
            ok &= sphere_equal(jet_ddot(f), ddot(f))
    report(7, ok, "first/second variations reconstructed from t-expansion jets "
                  "match the closed forms word by word, and on all "
                  f"{len(elems)} basis elements p+q <= 4")


def test_criterion_08_drift_square_sum_of_squares():
    rng = random.Random(8)
    ok = True
    for trial in range(30):
        phi = random_poly(rng, max_p=2, max_q=2, terms=3)
        f = random_pluriharmonic(rng, kmax=3)
        if trial % 3 == 0:
            f = f + one.scale(rng.randint(-2, 2))  # constants lie in Ker paneitz too
        value = drift_square_form(phi, f)  # also checks <D^2 f,f> = |Df|^2
        ok &= value.is_real() and value.real_sign() >= 0
    report(8, ok, "<D^2 f, f> equals the exact sum of squares and is >= 0 "
                  "for 30 randomized pairs")


def test_criterion_09_weighted_pairing_laws_and_decomposition():
    ok = True
    phis = pairings = 0
    fixed_f = (basis(1, 0).elements[0] + basis(2, 0).elements[1]
               + basis(3, 0).elements[0] + basis(0, 1).elements[0]
               + basis(0, 2).elements[1])
    for p1 in range(6):
        for q1 in range(6 - p1):
            for mono in bidegree_monomials(p1, q1):
                phi = SpherePoly.monomial(mono)
                phis += 1
                for k in range(1, 5):
                    for l in range(1, 5):
                        for fk in basis(k, 0).elements:
                            for fl in basis(l, 0).elements:
                                weighted_gradient_pairing(phi, k, l, "holomorphic", fk, fl)
                                pairings += 1
                        for gk in basis(0, k).elements:
                            for gl in basis(0, l).elements:
                                weighted_gradient_pairing(phi, k, l, "antiholomorphic", gk, gl)
                                pairings += 1
                split = second_variation_decomposition(phi, fixed_f)
                ok &= split.value == split.lower_bound + split.drift_part
                ok &= split.drift_part.real_sign() >= 0
    ok &= (phis, pairings) == (126, 49392)  # the corpus must not shrink
    report(9, ok, f"weighted-pairing vanishing/diagonal laws hold for {pairings} "
                  f"integrals over {phis} phis and the second-variation decomposition "
                  "balances exactly")


def test_criterion_10_be_positivity():
    ok = True
    for phi in [z1 ** 4, z1 ** 3 * z2, z1 ** 5 * z1c]:
        form = assemble_form(second_variation(phi), 5)
        ok &= classify(form) == POSITIVE_DEFINITE
    report(10, ok, "second-variation form is positive-definite at pmax=5 for the "
                   "three Burns-Epstein deformations")


def negative_index(form) -> int | None:
    """Exact negative index of a Hermitian form, summed over its blocks; None if undecided."""
    rows = form.rows
    total = 0
    for block in variation._blocks(rows):
        signs = list(variation._pivot_signs([[rows[i].get(j, gr(0)) for j in block]
                                             for i in block]))
        if len(signs) < len(block):
            return None
        total += signs.count(-1)
    return total


def test_criterion_11_negative_directions():
    ddot = second_variation(one)
    ok = all(inner(ddot(f), f).real_sign() < 0 for f in (z1, z2, z1c, z2c))
    # The negative space is exactly four-dimensional, however far the basis reaches.
    for pmax in (4, 12):
        ok &= negative_index(assemble_form(ddot, pmax)) == 4
    # Confinement: negative diagonal directions obey p < q1 + 4 - p1.
    corpus = [(one, 0, 0), (z1c, 0, 1), (z1 * z2c, 1, 1), (z1 ** 3, 3, 0),
              (z1 ** 2 * z1c, 2, 1)]
    for phi, p1, q1 in corpus:
        bound = q1 + 4 - p1
        form = assemble_form(second_variation(phi), 4)
        diag = form.diagonal()
        for f, value in zip(pluriharmonic_basis(4), diag):
            if value.real_sign() < 0:
                ok &= sum(f.bidegree_if_uniform()) < bound
    report(11, ok, "constant family is negative exactly on the four coordinate "
                   "directions; negative directions confined below q1+4-p1")
