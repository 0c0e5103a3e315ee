"""The CLI contract under generated input.

Expressions are drawn from the grammar (with deliberate errors mixed in)
and combined with every subcommand that reads one (as --expr, --phi or
--t), its flags and the three output formats.  Whatever the input, a run
exits 0, 1 or 2; exit 0 or 1 prints a well-formed report (exit 1 adds one
stderr line listing the failed records), exit 2 prints nothing to stdout
and exactly one line to stderr, and no run prints a traceback.
Expressions stay small (depth at most 3, exponents at most 3 unless above
the parser's bound), so each run is quick.
"""

import contextlib
import csv
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from crlab.cli import main

# The last leaf is above the expansion bound, so any expression holding it is rejected.
LEAVES = st.sampled_from(["z1", "z2", "z1c", "z2c", "conj(z1)", "i", "0", "1", "2/3", "7",
                          "((z1+z2+z1c+z2c)^32*(z1+z2+z1c+z2c)^32)"])
# Exponents above the bound of 32 are parse errors; (...)^0 is the constant 1.
EXPONENTS = st.sampled_from(["0", "1", "2", "3", "33"])
# Fragments that are not in the grammar, spliced in to reach every error path,
# and Unicode ones for each token class: a superscript digit, a no-break space,
# an Arabic-Indic digit, a non-ASCII letter, an underscore and a zero-width space.
JUNK = st.one_of(st.just(""), st.sampled_from([")", "(", "^", "*", "/0", "z3", "1.5", "$", "/z1",
                                               "\u00b2", "\u00a0", "\u0663", "\u00e9", "_",
                                               "\u200b"]))


@st.composite
def expressions(draw, depth=3):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(LEAVES)
    kind = draw(st.sampled_from(["+", "-", "*", "/", "neg", "conj", "pow", "paren"]))
    left = draw(expressions(depth=depth - 1))
    if kind == "neg":
        return f"-{left}"
    if kind == "conj":
        return f"conj({left})"
    if kind == "pow":
        return f"({left})^{draw(EXPONENTS)}"
    if kind == "paren":
        return f"({left})"
    return f"{left} {kind} {draw(expressions(depth=depth - 1))}"


# Values of --t: fixed rationals, or a generated expression with junk spliced in.
T_VALUES = st.one_of(st.sampled_from(["1/2", "-1/3", "0", "3", "1e5"]),
                     st.tuples(expressions(), JUNK).map("".join))


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["integrate", "decompose", "bochner", "torsion", "rossi",
                                    "variation"]))
    args = [command]
    if command != "rossi":
        args += ["--expr" if command == "integrate" else "--phi",
                 draw(expressions()) + draw(JUNK)]
    if command == "rossi" or command == "torsion" and draw(st.booleans()):
        args.append("--t=" + draw(T_VALUES))
    if command == "variation":
        args += ["--order", draw(st.sampled_from(["1", "2"])),
                 "--pmax", draw(st.sampled_from(["1", "2", "3", "0"]))]
    fmt = draw(st.sampled_from(["text", "json", "csv"]))
    args += ["--format", fmt]
    if draw(st.booleans()):
        args.append("--approx")
    return args, fmt


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_report(text: str, fmt: str, code: int):
    if fmt == "json":
        data = json.loads(text)
        assert data["schema"] == 1 and data["records"]
        assert data["all_pass"] is (code == 0)
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0][:4] == ["id", "claim", "status", "witness"] and len(rows) > 1
        assert all(len(row) == len(rows[0]) for row in rows)
    else:
        assert text.startswith("crlab report (schema 1)\n")


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_cli_exits_cleanly_on_generated_input(invocation):
    args, fmt = invocation
    code, out, err = run(args)
    assert code in (0, 1, 2), (args, code, err)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert_report(out, fmt, code)
        if code == 1:
            assert err.count("\n") == 1 and "failures" in json.loads(err)
        else:
            assert err == ""
