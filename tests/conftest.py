"""Shared test fixtures: independent oracles and deterministic random corpora.

Two oracles that never touch the code paths they check:

* ``oracle_integral`` integrates polynomials by reducing each matched
  monomial to the one-dimensional Beta integral  B(a+1, b+1) =
  integral_0^1 s^a (1-s)^b ds  (the law of |z1|^2 on the sphere is uniform
  on [0,1]) and evaluating that by binomial expansion, term by term.
* ``SPHERE_POINTS`` are exact Gaussian-rational points of S^3; evaluating
  polynomials there decides sphere-level identities with zero rounding.

It also holds the loader for the benchmark's modules and the decoder of
complex report witnesses.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from crlab import GaussianRational, HermitianForm, Monomial, SpherePoly, gr
from crlab.harmonics import bidegree_monomials


def beta_moment(a: int, b: int) -> Fraction:
    """integral_0^1 s^a (1-s)^b ds by binomial expansion (equals a!b!/(a+b+1)!)."""
    total = Fraction(0)
    for j in range(b + 1):
        total += Fraction(comb(b, j) * (-1) ** j, a + j + 1)
    return total


def oracle_integral(poly: SpherePoly) -> GaussianRational:
    """Unit-mass integral over S^3, computed independently of crlab.integration."""
    total = GaussianRational(0)
    for mono, coeff in poly.terms.items():
        if mono.a == mono.c and mono.b == mono.d:
            total = total + coeff * beta_moment(mono.a, mono.b)
    return total


def oracle_inner(x: SpherePoly, y: SpherePoly) -> GaussianRational:
    return oracle_integral(x * y.conj())


def _pt(z1re, z1im, z2re, z2im) -> tuple[GaussianRational, GaussianRational]:
    point = (gr(Fraction(*z1re), Fraction(*z1im)), gr(Fraction(*z2re), Fraction(*z2im)))
    norm = point[0] * point[0].conj() + point[1] * point[1].conj()
    assert norm == 1, f"not a sphere point: {point}"
    return point


#: Exact points of |z1|^2 + |z2|^2 = 1 with Gaussian-rational coordinates.
SPHERE_POINTS = [
    _pt((1, 1), (0, 1), (0, 1), (0, 1)),
    _pt((0, 1), (0, 1), (1, 1), (0, 1)),
    _pt((3, 5), (0, 1), (4, 5), (0, 1)),
    _pt((3, 5), (4, 5), (0, 1), (0, 1)),
    _pt((3, 5), (0, 1), (0, 1), (4, 5)),
    _pt((1, 3), (0, 1), (2, 3), (2, 3)),
    _pt((1, 5), (2, 5), (2, 5), (4, 5)),
    _pt((2, 3), (1, 3), (2, 3), (0, 1)),
    _pt((1, 2), (1, 2), (1, 2), (-1, 2)),
    _pt((3, 13), (4, 13), (12, 13), (0, 1)),
    _pt((2, 7), (6, 7), (3, 7), (0, 1)),
    _pt((2, 7), (3, 7), (6, 7), (0, 1)),
]


def vanishes_on_sphere(poly: SpherePoly) -> bool:
    """Necessary condition checked at the exact sample points."""
    return all(poly.eval_at(*pt).is_zero() for pt in SPHERE_POINTS)


def same_operator_on_sphere(a, b) -> bool:
    """Two LinOps have the same words and sphere-equal coefficients, word by word.

    Every word acts on functions on the sphere, so this proves the operators
    equal on every function, not only on a truncated basis.
    """
    from crlab import sphere_equal

    return (a.terms.keys() == b.terms.keys()
            and all(sphere_equal(coeff, b.terms[word]) for word, coeff in a.terms.items()))


def dense_form(entries) -> HermitianForm:
    """Form with the given dense n x n entries over constant elements."""
    return HermitianForm((SpherePoly.constant(1),) * len(entries),
                         tuple({j: v for j, v in enumerate(row) if not v.is_zero()}
                               for row in entries))


def decode_complex(value) -> GaussianRational:
    """Inverse of the witness encoding of a complex value (a plain string when real)."""
    if isinstance(value, str):
        return gr(Fraction(value))
    return gr(Fraction(value["re"]), Fraction(value["im"]))


BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name: str):
    """A module of bench/, loaded from its file without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


def random_scalar(rng: random.Random, allow_zero: bool = True) -> GaussianRational:
    def part():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    value = gr(part(), part())
    if not allow_zero and value.is_zero():
        return gr(1, 0)
    return value


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


def random_bidegree_poly(rng: random.Random, p: int, q: int, terms: int = 3) -> SpherePoly:
    """Random nonzero element of P_{p,q}."""
    monos = bidegree_monomials(p, q)
    out = SpherePoly.zero()
    for _ in range(terms):
        out = out + SpherePoly.monomial(rng.choice(monos), random_scalar(rng))
    if out.is_zero():
        out = SpherePoly.monomial(monos[0])
    return out


def random_pluriharmonic(rng: random.Random, kmax: int = 3) -> SpherePoly:
    """Random element of the pluriharmonic space H (degrees 1..kmax, both sides)."""
    from crlab import basis

    out = SpherePoly.zero()
    for k in range(1, kmax + 1):
        for f in rng.sample(basis(k, 0).elements, k=min(2, k + 1)):
            out = out + f.scale(random_scalar(rng))
        for g in rng.sample(basis(0, k).elements, k=min(2, k + 1)):
            out = out + g.scale(random_scalar(rng))
    if out.is_zero():
        out = SpherePoly.variable("z1")
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)
