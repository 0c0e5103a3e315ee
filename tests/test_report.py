"""Report serialization: lossless witnesses and failure bookkeeping."""

import json
from fractions import Fraction

import pytest

from crlab import gr, z1, z2c
from crlab.report import Report, encode_witness
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
