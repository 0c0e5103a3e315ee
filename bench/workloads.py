"""Seeded inputs and fixed case lists of the three benchmark workloads.

A case is one closed-loop request to the program: a CLI invocation run
in-process through ``crlab.cli.main``, a CLI invocation whose output must
match a committed golden file byte for byte, or a library call whose exact
return values are digested.  ``build_cases(workload, seed)`` performs the
whole set-up of a worker: it generates the seeded inputs, writes each as
source text, parses it back and checks the round trip, and returns the case
list.  Cases whose inputs do not depend on the seed are marked ``seeded=False``;
their digests hold for every seed.

The random corpus generators are copied from the test suite's fixtures on
purpose: importing them would pull pytest into the set-up time and tie the
benchmark to test files.

Why each workload exists:

* ``variation-forms``: ``variation`` at a ``--pmax`` ladder up to 10 and
  ``--order 1``.  ``assemble_form`` makes n^2 ``inner`` calls and n operator
  applications and ``classify`` eliminates; bases are monomials, so
  ``harmonics`` barely runs.  This is where the cost sits.
* ``spectra-cold``: ``spectrum`` for all four operators over p, q <= 8 from
  the cold basis cache a fresh process starts with, plus ``decompose`` and
  ``bochner`` on seeded dense polynomials and the three golden invocations.
  It makes no ``inner`` call and builds no form, so a form- or
  ``inner``-level change must leave it unmoved.
* ``identity-oracles``: library calls mirroring the Bochner, jet-oracle,
  drift-square and weighted-pairing acceptance criteria at reduced size.
  Large jet-built operator trees act on dense polynomials and ``inner`` runs
  as many tiny weighted pairings; ``assemble_form`` and ``classify`` never
  run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import crlab
from crlab import GaussianRational, Monomial, SpherePoly, gr

VARIATION_PHIS = (
    ("baseline", "z1^4 + z1c*z2"),
    ("be-monomial", "z1^3*z2"),
    ("mixed-non-be", "z1^2*z2c + z1c"),
    ("constant", "1"),
)
PMAX_LADDER = (2, 4, 6, 10)
ORDER1_PMAX = 6
# Seeded phi: a fixed support with seeded phases (see phased_poly), so the
# seed changes the values and the verdict witnesses but not the amount of
# work, which keeps the spread across seeds small.  (4,0) satisfies
# Burns-Epstein, (2,1) does not.  One monomial each keeps a pass short
# enough for several passes per run.
SEEDED_VARIATION_SUPPORTS = (
    ("seeded-be-4-0", (Monomial(2, 2, 0, 0),)),
    ("seeded-2-1", (Monomial(2, 0, 0, 1),)),
)
# The jet oracle's seeded phi: two monomials of bidegree (2,1).
SEEDED_JET_SUPPORT = (Monomial(2, 0, 0, 1), Monomial(1, 1, 1, 0))

SPECTRUM_OPS = ("kohn", "conj-kohn", "sublap", "paneitz")
SPECTRUM_MAX = 8
DENSE_POLYS = 8
DENSE_DEGREE = 3

BOCHNER_PHIS = 8
JET_PHIS = (("one", "1"), ("z1", "z1"), ("z1c", "z1c"), ("z1z2c", "z1*z2c"),
            ("z1^4", "z1^4"))
JET_BASIS_DEGREE = 4
DRIFT_PAIRS = 10
PAIRING_PHI_DEGREE = 2
PAIRING_KMAX = 4


@dataclass(frozen=True)
class Case:
    """One request.  ``kind`` is "cli", "golden" or "lib".

    * cli: ``payload`` is the argv list (json format).
    * golden: ``payload`` is (argv, golden file name).
    * lib: ``payload`` is a zero-argument callable returning (ok, values).
    """

    id: str
    kind: str
    seeded: bool
    payload: object


# -- seeded corpus generators (logic of the test suite's fixtures) -----------


def random_scalar(rng: random.Random) -> GaussianRational:
    def part():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    return gr(part(), part())


def random_poly(rng: random.Random, max_p: int = 3, max_q: int = 3,
                terms: int = 5) -> SpherePoly:
    """Random polynomial with bidegree components bounded by (max_p, max_q)."""
    out = SpherePoly.zero()
    for _ in range(terms):
        p = rng.randint(0, max_p)
        q = rng.randint(0, max_q)
        a = rng.randint(0, p)
        c = rng.randint(0, q)
        mono = Monomial(a, p - a, c, q - c)
        out = out + SpherePoly.monomial(mono, random_scalar(rng))
    return out


def bidegree_monomials(p: int, q: int) -> list[Monomial]:
    """Monomials of bidegree (p, q) in lexicographic exponent order."""
    return sorted(Monomial(a, p - a, c, q - c) for a in range(p + 1) for c in range(q + 1))


def random_pluriharmonic(rng: random.Random, kmax: int = 3) -> SpherePoly:
    """Random element of H (degrees 1..kmax, both sides).

    Every monomial of bidegree (k, 0) or (0, k) is harmonic and the basis of
    H_(k,0) / H_(0,k) is exactly these monomials in lexicographic order, so
    sampling monomials draws the same corpus as sampling basis elements
    without building any basis during set-up.
    """
    out = SpherePoly.zero()
    for k in range(1, kmax + 1):
        for mono in rng.sample(bidegree_monomials(k, 0), k=min(2, k + 1)):
            out = out + SpherePoly.monomial(mono, random_scalar(rng))
        for mono in rng.sample(bidegree_monomials(0, k), k=min(2, k + 1)):
            out = out + SpherePoly.monomial(mono, random_scalar(rng))
    if out.is_zero():
        out = SpherePoly.variable("z1")
    return out


def phased_poly(rng: random.Random, support) -> SpherePoly:
    """Coefficients k*(+-1 +- i) on the k-th monomial of support, signs seeded.

    Every coefficient has the same size for every seed, so the seed moves
    the values but not the cost of the exact arithmetic.
    """
    return SpherePoly({mono: gr(rng.choice((-k, k)), rng.choice((-k, k)))
                       for k, mono in enumerate(support, start=1)})


def dense_support() -> list[Monomial]:
    """Every monomial of total degree <= DENSE_DEGREE."""
    return [Monomial(a, b, c, d)
            for a in range(DENSE_DEGREE + 1)
            for b in range(DENSE_DEGREE + 1 - a)
            for c in range(DENSE_DEGREE + 1 - a - b)
            for d in range(DENSE_DEGREE + 1 - a - b - c)]


def as_source(poly: SpherePoly) -> str:
    """Source text of poly, checked to parse back to the same polynomial."""
    text = poly.to_source()
    if crlab.parse_poly(text) != poly:
        raise ValueError(f"generated input does not round-trip: {text!r}")
    return text


# -- workloads ---------------------------------------------------------------


def _cli(case_id: str, seeded: bool, *argv: str) -> Case:
    return Case(case_id, "cli", seeded, [*argv, "--format", "json"])


def variation_forms(seed: int) -> list[Case]:
    rng = random.Random(seed * 10 + 1)
    phis = [(name, src, False) for name, src in VARIATION_PHIS]
    for name, support in SEEDED_VARIATION_SUPPORTS:
        phis.append((name, as_source(phased_poly(rng, support)), True))
    cases = []
    for name, src, seeded in phis:
        for pmax in PMAX_LADDER:
            cases.append(_cli(f"variation/{name}/pmax{pmax}", seeded,
                              "variation", "--phi", src, "--pmax", str(pmax)))
        cases.append(_cli(f"variation/{name}/order1-pmax{ORDER1_PMAX}", seeded,
                          "variation", "--phi", src, "--order", "1",
                          "--pmax", str(ORDER1_PMAX)))
    return cases


def spectra_cold(seed: int) -> list[Case]:
    rng = random.Random(seed * 10 + 2)
    cases = [_cli(f"spectrum/{op}/{SPECTRUM_MAX}x{SPECTRUM_MAX}", False, "spectrum",
                  "--pmax", str(SPECTRUM_MAX), "--qmax", str(SPECTRUM_MAX), "--op", op)
             for op in SPECTRUM_OPS]
    # The invocations behind the golden files, exactly as the CLI tests run them.
    cases += [
        Case("golden/rossi_half.json", "golden", False,
             (["rossi", "--t", "1/2", "--format", "json"], "rossi_half.json")),
        Case("golden/spectrum_paneitz_2x2.csv", "golden", False,
             (["spectrum", "--pmax", "2", "--qmax", "2", "--op", "paneitz",
               "--format", "csv"], "spectrum_paneitz_2x2.csv")),
        Case("golden/decompose_z1z1c.txt", "golden", False,
             (["decompose", "--phi", "z1*z1c", "--format", "text"], "decompose_z1z1c.txt")),
    ]
    sources = [as_source(phased_poly(rng, dense_support())) for _ in range(DENSE_POLYS)]
    cases += [_cli(f"decompose/dense{i}", True, "decompose", "--phi", src)
              for i, src in enumerate(sources)]
    cases += [_cli(f"bochner/dense{i}", True, "bochner", "--phi", src)
              for i, src in enumerate(sources)]
    return cases


def _bochner_case(phi: SpherePoly) -> Callable:
    def run():
        residual = crlab.bochner_residual(phi)
        vanishes = crlab.sphere_equal(residual, SpherePoly.zero())
        return vanishes, [residual, vanishes]
    return run


def _jet_case(phi: SpherePoly) -> Callable:
    def run():
        elems = [f for s in range(JET_BASIS_DEGREE + 1) for p in range(s + 1)
                 for f in crlab.basis(p, s - p).elements]
        jet_dot, jet_ddot = crlab.variations_from_jets(phi)
        dot, ddot = crlab.first_variation(phi), crlab.second_variation(phi)
        ok = True
        values = []
        for f in elems:
            images = [jet_dot(f), dot(f), jet_ddot(f), ddot(f)]
            ok &= crlab.sphere_equal(images[0], images[1])
            ok &= crlab.sphere_equal(images[2], images[3])
            values.append(images)
        return ok, values
    return run


def _drift_case(phi: SpherePoly, f: SpherePoly) -> Callable:
    def run():
        value = crlab.drift_square_form(phi, f)
        return value.is_real() and value.real_sign() >= 0, [value]
    return run


def _pairing_case(phi: SpherePoly) -> Callable:
    def run():
        basis = crlab.basis
        values = []
        for k in range(1, PAIRING_KMAX + 1):
            for l in range(1, PAIRING_KMAX + 1):
                for fk in basis(k, 0).elements:
                    for fl in basis(l, 0).elements:
                        values.append(crlab.weighted_gradient_pairing(
                            phi, k, l, "holomorphic", fk, fl))
                for gk in basis(0, k).elements:
                    for gl in basis(0, l).elements:
                        values.append(crlab.weighted_gradient_pairing(
                            phi, k, l, "antiholomorphic", gk, gl))
        fixed_f = (basis(1, 0).elements[0] + basis(2, 0).elements[1]
                   + basis(3, 0).elements[0] + basis(0, 1).elements[0]
                   + basis(0, 2).elements[1])
        split = crlab.second_variation_decomposition(phi, fixed_f)
        ok = (split.value == split.lower_bound + split.drift_part
              and split.drift_part.real_sign() >= 0)
        values.append([split.value, split.lower_bound, split.drift_part])
        return ok, values
    return run


def identity_oracles(seed: int) -> list[Case]:
    rng = random.Random(seed * 10 + 3)
    parse = crlab.parse_poly
    cases = []
    for i in range(BOCHNER_PHIS):
        phi = parse(as_source(random_poly(rng, max_p=3, max_q=3, terms=4)))
        cases.append(Case(f"bochner-residual/{i}", "lib", True, _bochner_case(phi)))
    jet_phis = [(name, parse(src), False) for name, src in JET_PHIS]
    seeded_jet = phased_poly(rng, SEEDED_JET_SUPPORT)
    jet_phis.append(("seeded-2-1", parse(as_source(seeded_jet)), True))
    for name, phi, seeded in jet_phis:
        cases.append(Case(f"jet-oracle/{name}", "lib", seeded, _jet_case(phi)))
    for i in range(DRIFT_PAIRS):
        phi = parse(as_source(random_poly(rng, max_p=2, max_q=2, terms=3)))
        f = random_pluriharmonic(rng, kmax=3)
        if i % 3 == 0:
            f = f + SpherePoly.constant(rng.randint(-2, 2))  # constants lie in Ker paneitz
        cases.append(Case(f"drift-square/{i}", "lib", True,
                          _drift_case(phi, parse(as_source(f)))))
    for s in range(PAIRING_PHI_DEGREE + 1):
        for p1 in range(s + 1):
            for mono in bidegree_monomials(p1, s - p1):
                phi = parse(as_source(SpherePoly.monomial(mono)))
                cases.append(Case(f"weighted-pairing/{phi.to_source()}", "lib", False,
                                  _pairing_case(phi)))
    return cases


WORKLOADS = {
    "variation-forms": variation_forms,
    "spectra-cold": spectra_cold,
    "identity-oracles": identity_oracles,
}


def build_cases(workload: str, seed: int) -> list[Case]:
    return WORKLOADS[workload](seed)
