"""Command-line front end: verification reports for every desk-scale claim.

Subcommands:

    spectrum   exact eigenvalue table of one canonical operator on H_{p,q}
    decompose  harmonic components of a polynomial + Burns-Epstein verdict
    torsion    exact torsion pair of the deformed structure along phi
    rossi      closed forms for the constant (Rossi) deformation family
    bochner    residual of the torsion-free Bochner identity (must vanish)
    variation  first/second variation quadratic form on the pluriharmonic space
    integrate  exact integral of an expression over S^3

All numeric output is exact (rational strings); ``--approx`` adds decimal
renderings marked non-authoritative.  ``--format text|json|csv`` render the
same records.  Exit status:

    0  every check passed
    1  a check failed; the list of failing record ids is printed to stderr as JSON
    2  bad input: a usage or expression error, or an argument outside an
       operation's domain (PreconditionError); one stderr line
    3  an exact identity that must always hold failed inside the library
       (IdentityCheckError, an internal bug, not a failed claim); one stderr
       line naming the identity

No exit status prints a traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .deformation import DegenerateStructureError, rossi, torsion, torsion_factor
from .harmonics import be_check, canonical_form, canonicalize, sphere_equal
from .integration import integrate
from .operators import (CONJ_KOHN, KOHN, PANEITZ, SUBLAP, bochner_residual,
                        common_eigenvalue)
from .parsing import MAX_LITERAL_DIGITS, EvaluationError, ParseError, parse_poly
from .report import Report
from .scalars import GaussianRational
from .spherepoly import SpherePoly, one
from .variation import (POSITIVE_DEFINITE, assemble_form, classify,
                        IdentityCheckError, PreconditionError, first_variation,
                        pluriharmonic_basis, second_variation)

_OPERATORS = {
    "kohn": (KOHN, lambda p, q: 2 * (p + 1) * q, "2(p+1)q"),
    "conj-kohn": (CONJ_KOHN, lambda p, q: 2 * (q + 1) * p, "2(q+1)p"),
    "sublap": (SUBLAP, lambda p, q: 2 * p * q + p + q, "2pq+p+q"),
    "paneitz": (PANEITZ, lambda p, q: p * q * (p + 1) * (q + 1), "pq(p+1)(q+1)"),
}

MAX_BIDEGREE = 8
MAX_VARIATION_PMAX = 24


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Argument errors print one line, like every other usage error."""

    def error(self, message: str):
        if message.endswith("expected one argument"):
            # argparse reads a value such as -1/3 as an option, not a value.
            message += " (join a value that starts with '-' to its option with '=', e.g. --t=-1/3)"
        self.exit(2, f"{self.prog}: error: {message}\n")


_RATIONAL = re.compile(r"-?([0-9]+)(?:/([0-9]+))?")


def _parse_rational(text: str) -> Fraction:
    """The grammar's rational [-]a[/b], each integer at most MAX_LITERAL_DIGITS digits."""
    match = _RATIONAL.fullmatch(text)
    if match is None or any(len(part) > MAX_LITERAL_DIGITS for part in match.groups("")):
        raise argparse.ArgumentTypeError(
            f"not an exact rational [-]a[/b] of integers with at most {MAX_LITERAL_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator: {text!r}") from exc


def _jet_text(jet) -> str:
    pieces = []
    for k, coeff in enumerate(jet.coeffs):
        if coeff is None or coeff.is_zero():
            continue
        body = f"({coeff.to_source()})"
        if k == 1:
            body += "*t"
        elif k > 1:
            body += f"*t^{k}"
        pieces.append(body)
    return " + ".join(pieces) if pieces else "0"


def cmd_spectrum(args, report: Report):
    if not (0 <= args.pmax <= MAX_BIDEGREE and 0 <= args.qmax <= MAX_BIDEGREE):
        raise UsageError(f"--pmax/--qmax must lie in 0..{MAX_BIDEGREE}")
    op, expected_fn, formula = _OPERATORS[args.op]
    for p in range(args.pmax + 1):
        for q in range(args.qmax + 1):
            computed = common_eigenvalue(op, p, q)
            expected = GaussianRational(expected_fn(p, q))
            report.add(
                f"eigenvalue-{args.op}-p{p}-q{q}",
                f"{args.op} acts on H_({p},{q}) as the scalar {formula}",
                computed == expected,
                computed=computed,
                expected=expected,
                dimension=p + q + 1,
            )


def cmd_decompose(args, report: Report):
    phi = parse_poly(args.phi)
    components = canonicalize(phi)
    total = SpherePoly.zero()
    for (p, q), piece in sorted(components.items()):
        total = total + piece
        report.add(
            f"component-p{p}-q{q}",
            f"harmonic component of bidegree ({p},{q})",
            True,
            component=piece,
        )
    report.add(
        "reconstruction",
        "the harmonic components sum back to the input on S^3",
        sphere_equal(total, phi),
        input=phi,
    )
    verdict = be_check(phi)
    report.add(
        "be-verdict",
        "Burns-Epstein condition: all components have p >= q+4",
        True,
        satisfies_BE=verdict.satisfies_be,
        violating_components=[list(v) for v in verdict.violating_components],
    )


def cmd_torsion(args, report: Report):
    phi = parse_poly(args.phi)
    factor = torsion_factor(phi)
    vanishes = sphere_equal(factor, SpherePoly.zero())
    components = canonicalize(phi)
    on_diagonal = all(p == q + 4 for (p, q) in components)
    report.add(
        "zero-torsion-characterization",
        "torsion vanishes iff every component of phi has bidegree p = q+4",
        vanishes == on_diagonal,
        vanishes=vanishes,
        all_components_on_p_eq_q_plus_4=on_diagonal,
    )
    if args.t is None:
        num, den = torsion(phi)
        report.add(
            "torsion-pair",
            "torsion = numerator/denominator of the deformed structure along t*phi",
            True,
            numerator=_jet_text(num),
            denominator=_jet_text(den),
        )
    else:
        num, den = torsion(phi, GaussianRational(args.t))
        report.add(
            "torsion-pair",
            f"torsion = numerator/denominator at t = {args.t}",
            True,
            numerator=num,
            denominator=den,
        )


def cmd_rossi(args, report: Report):
    data = rossi(GaussianRational(args.t))
    report.add(
        "rossi-webster-curvature",
        "Webster curvature 2(1+t^2)/|1-t^2| of the constant family is positive",
        data["webster_R"].real_sign() > 0,
        webster_R=data["webster_R"],
        branch=data["branch"],
        t=str(args.t),
    )
    num, den = torsion(one, GaussianRational(args.t))
    num_scalar = num.coefficient((0, 0, 0, 0))
    den_scalar = den.coefficient((0, 0, 0, 0))
    agrees = (len(num) <= 1 and len(den) <= 1
              and num_scalar == data["torsion_coeff"] * den_scalar)
    report.add(
        "rossi-torsion-crosscheck",
        "closed-form torsion coefficient 4ti/(1-t^2) matches the general formula",
        agrees,
        torsion_coeff=data["torsion_coeff"],
        general_numerator=num,
        general_denominator=den,
    )


def cmd_bochner(args, report: Report):
    phi = parse_poly(args.phi)
    residual = bochner_residual(phi)
    report.add(
        "bochner-vanishing",
        "the torsion-free Bochner identity holds on S^3 (residual vanishes)",
        sphere_equal(residual, SpherePoly.zero()),
        residual_canonical=canonical_form(residual),
        phi=phi,
    )


def cmd_variation(args, report: Report):
    if not 1 <= args.pmax <= MAX_VARIATION_PMAX:
        raise UsageError(f"--pmax must lie in 1..{MAX_VARIATION_PMAX}")
    phi = parse_poly(args.phi)
    if args.order == 1:
        form = assemble_form(first_variation(phi), args.pmax, expect_hermitian=True)
        report.add(
            "first-variation-zero-form",
            "the first-variation quadratic form vanishes on the pluriharmonic space",
            form.is_zero(),
            dimension=form.dimension,
        )
        return
    form = assemble_form(second_variation(phi), args.pmax, expect_hermitian=True)
    verdict = classify(form)
    vectors = pluriharmonic_basis(args.pmax)
    diag = form.diagonal()
    negatives = [(v, diag[i]) for i, v in enumerate(vectors)
                 if diag[i].real_sign() < 0]
    report.add(
        "second-variation-classification",
        "exact definiteness of the second-variation form on the pluriharmonic space",
        True,
        classification=verdict,
        dimension=form.dimension,
        negative_directions=[v.label for v, _ in negatives],
    )
    be = be_check(phi)
    if be.satisfies_be and not phi.is_zero():
        report.add(
            "be-positivity",
            "phi satisfies Burns-Epstein, so the second-variation form is positive-definite",
            verdict == POSITIVE_DEFINITE,
            classification=verdict,
        )
    bidegree = phi.bidegree_if_uniform()
    if bidegree is not None and not be.satisfies_be and not phi.is_zero():
        p1, q1 = bidegree
        bound = q1 + 4 - p1
        confined = all(v.degree < bound for v, _ in negatives)
        report.add(
            "negative-direction-confinement",
            f"negative directions only occur in H_(p,0)/H_(0,p) with p < {bound}",
            confined,
            bound=str(bound),
            negative_directions={v.label: value for v, value in negatives},
        )


def cmd_integrate(args, report: Report):
    expr = parse_poly(args.expr)
    value = integrate(expr)
    conj_value = integrate(expr.conj())
    report.add(
        "integral-value",
        "exact integral over S^3 under the unit-mass measure",
        conj_value == value.conj(),
        value=value,
        expr=expr,
    )


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--approx", action="store_true",
                        help="add decimal renderings (non-authoritative)")


_T_HELP = "exact rational [-]a[/b]; write a negative value as --t=-1/3"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="crlab",
        description="exact verification of CR-geometric identities on the 3-sphere",
    )
    parser.add_argument("--version", action="version", version=f"crlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalue table of a canonical operator")
    p.add_argument("--pmax", type=int, default=4)
    p.add_argument("--qmax", type=int, default=4)
    p.add_argument("--op", choices=sorted(_OPERATORS), default="kohn")
    _add_common(p)
    p.set_defaults(run=cmd_spectrum)

    p = sub.add_parser("decompose", help="harmonic decomposition and Burns-Epstein verdict")
    p.add_argument("--phi", required=True, help="polynomial expression in z1, z2, z1c, z2c")
    _add_common(p)
    p.set_defaults(run=cmd_decompose)

    p = sub.add_parser("torsion", help="exact torsion of the deformed structure")
    p.add_argument("--phi", required=True)
    p.add_argument("--t", type=_parse_rational, default=None, help=_T_HELP)
    _add_common(p)
    p.set_defaults(run=cmd_torsion)

    p = sub.add_parser("rossi", help="constant-deformation family closed forms")
    p.add_argument("--t", type=_parse_rational, required=True, help=_T_HELP)
    _add_common(p)
    p.set_defaults(run=cmd_rossi)

    p = sub.add_parser("bochner", help="torsion-free Bochner identity residual")
    p.add_argument("--phi", required=True)
    _add_common(p)
    p.set_defaults(run=cmd_bochner)

    p = sub.add_parser("variation", help="variation quadratic forms on the pluriharmonic space")
    p.add_argument("--phi", required=True)
    p.add_argument("--order", type=int, choices=(1, 2), default=2)
    p.add_argument("--pmax", type=int, default=4,
                   help=f"largest degree k of H_(k,0), H_(0,k) (1..{MAX_VARIATION_PMAX})")
    _add_common(p)
    p.set_defaults(run=cmd_variation)

    p = sub.add_parser("integrate", help="exact integral over S^3")
    p.add_argument("--expr", required=True)
    _add_common(p)
    p.set_defaults(run=cmd_integrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    report = Report(command="crlab " + " ".join(argv))
    started = time.perf_counter()
    try:
        args.run(args, report)
    except (ParseError, EvaluationError, UsageError, DegenerateStructureError,
            PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IdentityCheckError as exc:
        print(f"internal error: identity check failed: {exc}", file=sys.stderr)
        return 3
    report.elapsed_ms = int((time.perf_counter() - started) * 1000)
    report.sort()
    rendered = report.render(args.format, approx=args.approx)
    if not rendered.endswith("\n"):
        rendered += "\n"
    sys.stdout.write(rendered)
    if not report.all_pass:
        print(json.dumps({"failures": report.failures()}), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
