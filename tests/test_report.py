"""Report serialization: lossless witnesses and failure bookkeeping."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from crlab import gr, z1, z2c
from crlab.cli import main
from crlab.report import Report, _json, encode_witness
from conftest import decode_complex


def test_witness_encoding_is_lossless():
    value = gr(Fraction(-8, 3))
    assert encode_witness(value) == "-8/3"
    assert Fraction(encode_witness(value)) == Fraction(-8, 3)
    complex_value = gr(0, Fraction(8, 3))
    encoded = encode_witness(complex_value)
    assert encoded == {"re": "0", "im": "8/3"}
    assert decode_complex(encoded) == complex_value
    assert encode_witness(z1 * z2c) == "z1*z2c"
    assert encode_witness([1, Fraction(1, 2)]) == ["1", "1/2"]
    with pytest.raises(TypeError):
        encode_witness(0.5)


@given(st.fractions(), st.fractions())
def test_scalar_witness_prints_each_part_as_its_fraction(re, im):
    value = gr(re, im)
    expected = str(re) if not im else {"re": str(re), "im": str(im)}
    assert encode_witness(value) == expected


def test_failing_records_flip_all_pass_and_list_failures():
    report = Report(command="demo")
    report.add("b-check", "always true", True, value=gr(1))
    report.add("a-check", "always false", False, value=gr(0))
    report.sort()
    assert [r["id"] for r in report.records] == ["a-check", "b-check"]
    assert not report.all_pass
    assert report.failures() == ["a-check"]
    data = json.loads(report.to_json())
    assert data["all_pass"] is False
    assert data["records"][0]["status"] == "fail"


def test_renderings_share_records():
    report = Report(command="demo")
    report.add("only", "single record", True, value=gr(Fraction(1, 2)))
    as_json = json.loads(report.to_json())["records"]
    assert as_json[0]["witness"]["value"] == "1/2"
    assert "1/2" in report.to_csv()
    assert "[PASS] only" in report.to_text()
    with pytest.raises(ValueError):
        report.render("yaml")


# -- the json rendering is json.dumps(..., indent=2), byte for byte ------------------


CLI_COMMANDS = [
    ["spectrum", "--pmax", "2", "--qmax", "2", "--op", "paneitz"],
    ["decompose", "--phi", "z1^4 + z1c*z2/3"],
    ["decompose", "--phi", "z1^\u0663"],  # a non-ASCII command echo
    ["torsion", "--phi", "z1c/3"],
    ["torsion", "--phi", "z1c", "--t", "1/3"],
    ["rossi", "--t", "1/2"],
    ["bochner", "--phi", "z1*z2c - i/7"],
    ["variation", "--phi", "z1^4 + z1c*z2", "--pmax", "3"],
    ["variation", "--phi", "z1c^2 + z2c^2", "--order", "1", "--pmax", "2"],
    ["integrate", "--expr", "z1*z1c/3 + i"],
]


@pytest.mark.parametrize("approx", [False, True])
@pytest.mark.parametrize("argv", CLI_COMMANDS, ids=lambda argv: argv[0])
def test_cli_json_is_json_dumps_with_indent_2(argv, approx, monkeypatch, capsys):
    reports = []
    render = Report.render

    def captured(self, fmt, approx=False):
        reports.append(self)
        return render(self, fmt, approx)

    monkeypatch.setattr(Report, "render", captured)
    main([*argv, "--format", "json"] + (["--approx"] if approx else []))
    report, = reports
    expected = json.dumps(report.as_dict(approx), indent=2)
    assert report.to_json(approx) == expected
    assert capsys.readouterr().out == expected + "\n"


def test_hand_built_report_json_is_json_dumps_with_indent_2():
    report = Report(command="crlab demo --phi \u00e9 \"quoted\"\\\n\t\u2603 \U0001d11e")
    report.add("nested", "dicts and lists", True,
               table={"a": [gr(1), [gr(Fraction(-1, 3), 2), {}], []], "b": {"c": {"d": None}}},
               flags=[True, False, None], empty_list=[], empty_dict={}, note="\u0663\x7f\x00")
    report.add("bare", "no witness", False)
    report.add("numbers", "integers and fractions", True, n=-12, q=Fraction(1, 3),
               poly=z1 * z2c - z1.scale(gr(0, Fraction(1, 3))))
    report.elapsed_ms = 7
    for approx in (False, True):
        assert report.to_json(approx) == json.dumps(report.as_dict(approx), indent=2)
    assert '"q": 0.3333333333333333' in report.to_json(approx=True)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=100)
@given(JSON_VALUES)
def test_writer_is_json_dumps_with_indent_2(value):
    assert _json(value, "\n") == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [(1, 2), {1: "a"}, 1j, b"x"])
def test_writer_rejects_what_it_does_not_write(value):
    with pytest.raises(TypeError):
        _json(value, "\n")
