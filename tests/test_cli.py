"""CLI behavior: record correctness, formats, exit codes, golden outputs."""

import csv
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from crlab import IdentityCheckError, PreconditionError, cli
from crlab.cli import main
from crlab.report import decode_complex, decode_rational

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
    def failing(args, report):
        raise error
    monkeypatch.setattr(cli, "cmd_bochner", failing)
    status, out, err = run_cli(capsys, "bochner", "--phi", "z1")
    assert status == code
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and str(error) in lines[0]


def test_rossi_witnesses_roundtrip(capsys):
    code, data, _ = run_json(capsys, "rossi", "--t", "1/2")
    assert code == 0
    by_id = {r["id"]: r for r in data["records"]}
    webster = by_id["rossi-webster-curvature"]["witness"]["webster_R"]
    assert decode_rational(webster) == Fraction(10, 3)
    coeff = decode_complex(by_id["rossi-torsion-crosscheck"]["witness"]["torsion_coeff"])
    assert coeff.im == Fraction(8, 3) and coeff.re == 0


def test_rossi_degenerate_t_exits_2(capsys):
    code, out, err = run_cli(capsys, "rossi", "--t", "1")
    assert code == 2
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


@pytest.mark.parametrize("args", [("rossi", "--t", "1e5000"),
                                  ("torsion", "--phi", "z1", "--t", "1e5000"),
                                  ("rossi", "--t", "1/" + "3" * 101)])
def test_huge_parameter_is_a_usage_error(capsys, args):
    with pytest.raises(SystemExit) as exc:
        main(list(args))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        "argument --t: not an exact rational [-]a[/b] of integers with at most 100 digits")


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


def test_golden_spectrum_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--pmax", "2", "--qmax", "2",
                           "--op", "paneitz", "--format", "csv")
    assert out == (GOLDEN / "spectrum_paneitz_2x2.csv").read_text()


def test_golden_decompose_text(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--phi", "z1*z1c", "--format", "text")
    assert _normalized(out) == (GOLDEN / "decompose_z1z1c.txt").read_text()
