"""CLI behavior: record correctness, formats, exit codes, golden outputs."""

import csv
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crlab import GaussianRational, IdentityCheckError, PreconditionError, cli
from crlab.cli import main
from crlab.parsing import MAX_COEFF_BITS
from conftest import decode_complex, power_of_two

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    return code, json.loads(out), err


def test_spectrum_all_pass_and_exit_zero(capsys):
    code, data, _ = run_json(capsys, "spectrum", "--pmax", "2", "--qmax", "2", "--op", "kohn")
    assert code == 0
    assert data["all_pass"] is True
    assert data["schema"] == 1
    by_id = {r["id"]: r for r in data["records"]}
    assert by_id["eigenvalue-kohn-p0-q1"]["witness"]["computed"] == "2"
    assert by_id["eigenvalue-kohn-p2-q1"]["witness"]["computed"] == "6"


def test_spectrum_rejects_large_bounds(capsys):
    code, out, err = run_cli(capsys, "spectrum", "--pmax", "9")
    assert code == 2
    assert "0..8" in err


@pytest.mark.parametrize("pmax", ["0", "-3", "25"])
def test_variation_rejects_pmax_out_of_range(capsys, pmax):
    code, out, err = run_cli(capsys, "variation", "--phi", "z1", "--pmax", pmax)
    assert code == 2
    assert out == ""
    assert err == "error: --pmax must lie in 1..24\n"


def test_decompose_reports_components_and_be(capsys):
    code, data, _ = run_json(capsys, "decompose", "--phi", "z1^4")
    assert code == 0
    by_id = {r["id"]: r for r in data["records"]}
    assert by_id["be-verdict"]["witness"]["satisfies_BE"] is True
    code, data, _ = run_json(capsys, "decompose", "--phi", "1")
    verdict = {r["id"]: r for r in data["records"]}["be-verdict"]
    assert verdict["witness"]["satisfies_BE"] is False
    assert verdict["witness"]["violating_components"] == [["0", "0"]]


def test_parse_errors_exit_2_verbatim(capsys):
    code, out, err = run_cli(capsys, "decompose", "--phi", "z3")
    assert code == 2
    assert "unknown token 'z3'" in err and "column 1" in err
    assert out == ""


@pytest.mark.parametrize("error, code", [
    (PreconditionError("pmax must be >= 1"), 2),
    (IdentityCheckError("remainder pairing disagrees with its closed form"), 3),
])
def test_library_errors_exit_with_one_line(capsys, monkeypatch, error, code):
    def failing(phi):
        raise error
    monkeypatch.setattr(cli, "bochner_residual", failing)
    status, out, err = run_cli(capsys, "bochner", "--phi", "z1")
    assert status == code
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and str(error) in lines[0]


def _run_alone(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-m", "crlab.cli", *args], env=env,
                            capture_output=True, text=True, timeout=120)
    return result.returncode, result.stdout


def test_parser_is_built_once_and_commands_run_back_to_back(capsys):
    assert cli.build_parser() is cli.build_parser()
    runs = [("rossi", "--t", "1/2", "--format", "csv"),
            ("spectrum", "--pmax", "1", "--qmax", "1", "--op", "sublap", "--format", "csv"),
            ("integrate", "--expr", "z3")]
    alone = {args: _run_alone(*args) for args in runs}
    for order in (runs, runs[::-1]):
        assert [run_cli(capsys, *args)[:2] for args in order] == [alone[args] for args in order]


def test_rossi_witnesses_roundtrip(capsys):
    code, data, _ = run_json(capsys, "rossi", "--t", "1/2")
    assert code == 0
    by_id = {r["id"]: r for r in data["records"]}
    webster = by_id["rossi-webster-curvature"]["witness"]["webster_R"]
    assert Fraction(webster) == Fraction(10, 3)
    coeff = decode_complex(by_id["rossi-torsion-crosscheck"]["witness"]["torsion_coeff"])
    assert coeff.im == Fraction(8, 3) and coeff.re == 0


def test_rossi_degenerate_t_exits_2(capsys):
    code, out, err = run_cli(capsys, "rossi", "--t", "1")
    assert code == 2
    assert "not a CR structure" in err


@pytest.mark.parametrize("args", [("--phi", "1", "--t=-1"),
                                  ("--phi", "2*z1*z1c + 2*z2*z2c", "--t", "1/2")])
def test_torsion_degenerate_t_exits_2(capsys, args):
    code, out, err = run_cli(capsys, "torsion", *args)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "not a CR structure" in err


def test_torsion_symbolic_and_at_value(capsys):
    code, data, _ = run_json(capsys, "torsion", "--phi", "1")
    by_id = {r["id"]: r for r in data["records"]}
    assert by_id["torsion-pair"]["witness"]["numerator"] == "(4*i)*t"
    assert by_id["torsion-pair"]["witness"]["denominator"] == "(1) + (-1)*t^2"
    code, data, _ = run_json(capsys, "torsion", "--phi", "z1^4", "--t", "1/3")
    by_id = {r["id"]: r for r in data["records"]}
    assert by_id["torsion-pair"]["witness"]["numerator"] == "0"
    assert by_id["zero-torsion-characterization"]["status"] == "pass"


def test_bochner_command(capsys):
    code, data, _ = run_json(capsys, "bochner", "--phi", "z1*z2c + i*z2^2")
    assert code == 0
    record = data["records"][0]
    assert record["status"] == "pass"
    assert record["witness"]["residual_canonical"] == "0"


def test_variation_order1_zero_form(capsys):
    code, data, _ = run_json(capsys, "variation", "--phi", "z1*z2c", "--order", "1",
                             "--pmax", "3")
    assert code == 0
    record = data["records"][0]
    assert record["id"] == "first-variation-zero-form"
    assert record["status"] == "pass"


def test_variation_order2_be_positive(capsys):
    code, data, _ = run_json(capsys, "variation", "--phi", "z1^4", "--order", "2",
                             "--pmax", "4")
    assert code == 0
    by_id = {r["id"]: r for r in data["records"]}
    assert by_id["be-positivity"]["witness"]["classification"] == "positive-definite"
    assert by_id["second-variation-classification"]["witness"]["negative_directions"] == []


def test_variation_order2_rossi_negative_directions(capsys):
    code, data, _ = run_json(capsys, "variation", "--phi", "1", "--order", "2",
                             "--pmax", "1")
    assert code == 0
    by_id = {r["id"]: r for r in data["records"]}
    negatives = set(by_id["second-variation-classification"]["witness"]["negative_directions"])
    assert negatives == {"z1", "z2", "z1c", "z2c"}
    assert by_id["negative-direction-confinement"]["status"] == "pass"


def test_variation_dense_phi_at_largest_pmax(capsys):
    code, data, _ = run_json(capsys, "variation", "--phi", "(z1+z2+z1c+z2c)^2", "--pmax", "24")
    assert code == 0
    record = data["records"][0]
    assert record["witness"]["classification"] == "indefinite"


_PHI_COMMANDS = [("decompose",), ("torsion",), ("bochner",), ("variation", "--pmax", "1")]


@pytest.mark.parametrize("command", _PHI_COMMANDS)
def test_phi_degree_at_bound_is_accepted(capsys, command):
    code, out, err = run_cli(capsys, *command, "--phi", "(z1*z1c)^24")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("phi, degree", [("(z1*z1c)^24*z2", 49), ("((z1*z1c)^32)^32", 2048)])
@pytest.mark.parametrize("command", _PHI_COMMANDS)
def test_phi_degree_above_bound_exits_2_with_one_line(capsys, command, phi, degree):
    code, out, err = run_cli(capsys, *command, "--phi", phi)
    assert code == 2
    assert out == ""
    assert err == f"error: --phi has degree {degree}, above the bound 48\n"


def test_integrate_command(capsys):
    code, data, _ = run_json(capsys, "integrate", "--expr", "z1*z1c*z2*z2c")
    assert code == 0
    assert data["records"][0]["witness"]["value"] == "1/6"


def test_integrate_accepts_exponent_at_bound(capsys):
    code, data, _ = run_json(capsys, "integrate", "--expr", "(z1*z1c)^32")
    assert code == 0
    assert data["records"][0]["witness"]["value"] == "1/33"


def test_integrate_rejects_exponent_above_bound(capsys):
    code, out, err = run_cli(capsys, "integrate", "--expr", "(z1+z2+z1c+z2c)^33")
    assert code == 2
    assert out == ""
    assert err == "error: exponent 33 exceeds the bound 32 (column 17)\n"


def test_integrate_rejects_expansion_above_term_bound(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "integrate", "--expr",
                             "(z1+z2+z1c+z2c)^32*(z1+z2+z1c+z2c)^32")
    assert time.perf_counter() - started < 1
    assert code == 2
    assert out == ""
    assert err == "error: expression may expand to more than 10000 terms\n"


def test_integrate_accepts_a_long_product_in_one_variable(capsys):
    # 2^20 products, but at most 21 monomials in z1 alone
    code, out, err = run_cli(capsys, "integrate", "--expr", "*".join(["(z1+1)"] * 20))
    assert (code, err) == (0, "")


def test_integrate_accepts_a_long_sum(capsys):
    code, out, err = run_cli(capsys, "integrate", "--expr", "+".join(["z1"] * 2000))
    assert code == 0
    assert "2000*z1" in out and err == ""


@pytest.mark.parametrize("argv", [("integrate", "--expr", "((9^32)^32)^32"),
                                  ("torsion", "--t", "1/((9^32)^32)^32", "--phi", "z1c"),
                                  ("decompose", "--phi", "((9^32)^32)^32*z1")])
def test_constant_above_the_bit_bound_exits_2_with_one_line(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: expression may have coefficients of more than {MAX_COEFF_BITS} bits\n"


# The largest accepted constant: 2^(MAX_COEFF_BITS - 1) has MAX_COEFF_BITS bits.
_LARGEST = f"({power_of_two(MAX_COEFF_BITS - 1)})"


@pytest.mark.parametrize("argv", [
    *[("integrate", "--expr", expr) for expr in (_LARGEST, f"1/{_LARGEST}",
                                                 f"i*{_LARGEST}*z1*z1c")],
    *[(command, "--phi", phi) for command in ("decompose", "bochner", "torsion", "variation")
      for phi in (_LARGEST, f"{_LARGEST}*z1", f"z1c/{_LARGEST}")],
    *[(command, f"--t={t}")
      for command in ("rossi", "torsion --phi z1", f"torsion --phi {_LARGEST}*z1")
      for t in (_LARGEST, f"1/{_LARGEST}")],
])
def test_every_subcommand_takes_the_largest_accepted_constant(capsys, argv):
    # Every printed number, |t|^2 |phi|^2 of torsion included, stays printable.
    argv = [*argv[0].split(), *argv[1:]]
    for options in (["--format", "text"], ["--format", "json", "--approx"], ["--format", "csv"]):
        code, out, err = run_cli(capsys, *argv, *options)
        assert code in (0, 1) and out, argv
        assert len(err.splitlines()) == code and "Traceback" not in err


@pytest.mark.parametrize("expr", ["(" * 400 + "z1" + ")" * 400, "-" * 400 + "z1"])
def test_nesting_above_bound_exits_2_with_one_line(capsys, expr):
    code, out, err = run_cli(capsys, "integrate", "--expr=" + expr)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err == "error: nesting deeper than the bound 100 (column 101)\n"


@pytest.mark.parametrize("args", [
    (("rossi", "--t", "1e5000"), "error: unknown token 'e5000' (column 2)"),
    (("torsion", "--phi", "z1", "--t", "1e5000"), "error: unknown token 'e5000' (column 2)"),
    (("rossi", "--t", "1/" + "3" * 101),
     "error: integer literal of 101 digits exceeds the bound 100 (column 3)"),
])
def test_huge_parameter_is_a_usage_error(capsys, args):
    argv, message = args
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert "Traceback" not in err
    assert err.splitlines() == [message]


@pytest.mark.parametrize("command", [("rossi",), ("torsion", "--phi", "z1")])
@pytest.mark.parametrize("value, message", [
    ("2.5", "unknown token '.' (column 2)"),
    ("1/0", "denominator must be nonzero (column 3)"),
    ("z1", "--t 'z1' is not a real constant"),
    ("i", "--t 'i' is not a real constant"),
    ("", "unexpected 'end of input' (column 1)"),
])
def test_bad_t_is_one_error_line(capsys, command, value, message):
    code, out, err = run_cli(capsys, *command, "--t=" + value)
    assert (code, out, err) == (2, "", f"error: {message}\n")


# Every string of the former [-]a[/b] grammar for --t: integers of at most
# 100 digits (leading zeros and -0 included) and a nonzero denominator.
_DIGITS = st.text("0123456789", min_size=1, max_size=100)
_OLD_T = st.one_of(
    st.tuples(st.sampled_from(["", "-"]), _DIGITS,
              st.one_of(st.just(""), _DIGITS.filter(lambda d: int(d) != 0).map("/".__add__))
              ).map("".join),
    st.sampled_from(["-0", "007/0010", "-" + "9" * 100 + "/" + "0" * 99 + "1"]))


@settings(max_examples=200, deadline=None)
@given(_OLD_T)
def test_t_reads_every_rational_of_the_old_grammar(text):
    assert cli._parse_t(text) == GaussianRational(Fraction(text))


def test_t_accepts_any_expression_with_a_real_constant_value(capsys):
    _, sum_data, _ = run_json(capsys, "rossi", "--t", "1/2 - 1/6")
    _, third_data, _ = run_json(capsys, "rossi", "--t", "1/3")
    assert sum_data["all_pass"] is True
    assert sum_data["records"] == third_data["records"]


@pytest.mark.parametrize("args", [("rossi", "--t=-1/3"),
                                  ("torsion", "--phi", "z1", "--t=-1/3")])
def test_negative_t_joined_with_equals_is_accepted(capsys, args):
    code, data, _ = run_json(capsys, *args)
    assert code == 0
    assert data["all_pass"] is True


@pytest.mark.parametrize("args", [("rossi", "--t", "-1/3"),
                                  ("torsion", "--phi", "z1", "--t", "-1/3")])
def test_negative_t_as_separate_word_is_a_one_line_usage_error(capsys, args):
    # argparse reads "-1/3" as an option, so the value must be joined with "=".
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert "argument --t: expected one argument" in lines[0] and "--t=-1/3" in lines[0]


def test_integrate_rejects_literal_above_digit_bound(capsys):
    code, out, err = run_cli(capsys, "integrate", "--expr", "z1*z1c + " + "7" * 5000)
    assert code == 2
    assert out == ""
    assert err == "error: integer literal of 5000 digits exceeds the bound 100 (column 10)\n"


def test_literals_at_digit_bound_are_accepted(capsys):
    big, power = "9" * 100, "1" + "0" * 99
    code, data, _ = run_json(capsys, "integrate", "--expr", f"{big}/{power} + z1c^{'0' * 99}2")
    assert code == 0
    assert data["records"][0]["witness"]["value"] == str(Fraction(int(big), int(power)))
    code, data, _ = run_json(capsys, "rossi", "--t", f"1/{big}")
    assert code == 0
    assert data["all_pass"] is True


def test_formats_carry_identical_records(capsys):
    args = ("spectrum", "--pmax", "1", "--qmax", "1", "--op", "sublap")
    _, data, _ = run_json(capsys, *args)
    json_records = [(r["id"], r["claim"], r["status"], json.dumps(r["witness"], sort_keys=True))
                    for r in data["records"]]
    code, out, _ = run_cli(capsys, *args, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    csv_records = [(r["id"], r["claim"], r["status"],
                    json.dumps(json.loads(r["witness"]), sort_keys=True)) for r in rows]
    assert csv_records == json_records
    code, out, _ = run_cli(capsys, *args, "--format", "text")
    for record_id, *_ in json_records:
        assert record_id in out


def test_approx_flag_marks_decimals(capsys):
    code, data, _ = run_json(capsys, "integrate", "--expr", "z1*z1c", "--approx")
    assert code == 0
    assert "non-authoritative" in data["approx_note"]
    assert data["records"][0]["witness_approx"]["value"] == 0.5
    assert data["records"][0]["witness"]["value"] == "1/2"


def _normalized(text: str) -> str:
    return re.sub(r"\(\d+ ms\)", "(0 ms)", text)


def test_golden_rossi_json(capsys):
    code, data, _ = run_json(capsys, "rossi", "--t", "1/2")
    data["elapsed_ms"] = 0
    expected = json.loads((GOLDEN / "rossi_half.json").read_text())
    assert data == expected


def test_golden_torsion_at_t_json(capsys):
    code, out, _ = run_cli(capsys, "torsion", "--phi", "z1c", "--t", "1/3", "--format", "json")
    assert code == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert out == (GOLDEN / "torsion_z1c_third.json").read_text()


def test_golden_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--pmax", "2", "--qmax", "2",
                           "--op", "paneitz", "--format", "csv")
    assert out == (GOLDEN / "spectrum_paneitz_2x2.csv").read_text()


@pytest.mark.parametrize("phi, golden", [
    ("(z1+z2+z1c+z2c)^2", "variation_dense_pmax8.json"),
    ("z1c^2 + z2c^2", "variation_z1c2_z2c2_pmax8.json"),
])
def test_golden_variation_json(capsys, phi, golden):
    code, out, _ = run_cli(capsys, "variation", "--phi", phi, "--pmax", "8", "--format", "json")
    assert code == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert out == (GOLDEN / golden).read_text()


def test_golden_decompose_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--phi", "z1*z1c", "--format", "text")
    assert _normalized(out) == (GOLDEN / "decompose_z1z1c.txt").read_text()


#: Every monomial of degree <= 3 with a mixed complex coefficient: unreduced
#: fractions, negative real parts beside imaginary ones, pure i and plain integers.
DENSE_PHI = (
    "(-3/4 + 2/6*i) + (6/4)*z2c + (-i)*z2c^2 + (9/12 - 5/10*i)*z2c^3 + (-1)*z1c"
    " + (-5/6 + 4/9*i)*z1c*z2c + (2*i)*z1c*z2c^2 + (7)*z1c^2 + (-10/15*i)*z1c^2*z2c"
    " + (1/3 + i)*z1c^3 + (-8/12 - 14/21*i)*z2 + (4/2)*z2*z2c + (-2 + 3*i)*z2*z2c^2"
    " + (15/25 - 6/8*i)*z2*z1c + (i)*z2*z1c*z2c + (-4/6)*z2*z1c^2 + (12/18*i)*z2^2"
    " + (-1 - i)*z2^2*z2c + (5/3 + 10/9*i)*z2^2*z1c + (-21/14 + 1/7*i)*z2^3"
    " + (3/9)*z1 + (-6/9*i)*z1*z2c + (1 - 2*i)*z1*z2c^2 + (-9/6 + 8/6*i)*z1*z1c"
    " + (11/22)*z1*z1c*z2c + (-3*i)*z1*z1c^2 + (2/8 + 6/4*i)*z1*z2"
    " + (-7/21 - i)*z1*z2*z2c + (16/24)*z1*z2*z1c + (-25/30 + 18/27*i)*z1*z2^2"
    " + (-1/2*i)*z1^2 + (4/5 - 2/5*i)*z1^2*z2c + (-12/8)*z1^2*z1c + (20/16*i)*z1^2*z2"
    " + (-3/9 + 15/45*i)*z1^3"
)


def test_golden_decompose_dense_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--phi", DENSE_PHI, "--format", "json")
    assert code == 0
    out = re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', out)
    assert out == (GOLDEN / "decompose_dense.json").read_text()
