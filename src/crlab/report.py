"""Verification reports: exact witnesses, lossless serialization, three formats.

Every CLI command produces a :class:`Report`: a command echo, the measure
normalization note, and a list of records.  Each record is a plain dict:
it names the claim it checks, carries a pass/fail status and exact witness
values, encoded once when the record is added.  Witnesses serialize
losslessly: rationals as strings like ``"-8/3"``, complex values as
``{"re": "0", "im": "8/3"}``, polynomials in the parser grammar.  The
text, json and csv renderings contain the same records; ``schema`` is
versioned so golden outputs stay comparable.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from json.encoder import INFINITY, encode_basestring_ascii

from .integration import CONTACT_MASS_NOTE
from .scalars import GaussianRational
from .spherepoly import SpherePoly, _ratio

SCHEMA_VERSION = 1

APPROX_NOTE = "decimal renderings are approximate and non-authoritative"


def encode_witness(value):
    """Lossless JSON-friendly encoding of exact values."""
    if isinstance(value, GaussianRational):
        # Each part is printed from the reduced triple, as str(Fraction) prints it.
        a, b, d = value._a, value._b, value._d
        if not b:
            return _ratio(a, d)
        return {"re": _ratio(a, d), "im": _ratio(b, d)}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, SpherePoly):
        return value.to_source()
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return [encode_witness(v) for v in value]
    if isinstance(value, dict):
        return {str(k): encode_witness(v) for k, v in value.items()}
    raise TypeError(f"cannot encode witness value {value!r}")


def _json(value, indent: str) -> str:
    """value as ``json.dumps(value, indent=2)`` writes it, nested at indent.

    ``indent`` is a newline and the spaces of value's own line.  Values are
    str, bool, int, float, None, and dicts with str keys and lists of them.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(v, inner) for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in value]) + indent + "]"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == INFINITY:
            return "Infinity"
        if value == -INFINITY:
            return "-Infinity"
        return float.__repr__(value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _approximate(encoded):
    if isinstance(encoded, str):
        try:
            return float(Fraction(encoded))
        except ValueError:
            return encoded
    if isinstance(encoded, dict):
        if set(encoded) == {"re", "im"}:
            return {"re": float(Fraction(encoded["re"])), "im": float(Fraction(encoded["im"]))}
        return {k: _approximate(v) for k, v in encoded.items()}
    if isinstance(encoded, list):
        return [_approximate(v) for v in encoded]
    return encoded


class Report:
    """A command's records, each stored as the plain dict that ``as_dict``
    emits: ``id``, ``claim``, ``status`` and the encoded ``witness``."""

    def __init__(self, command: str):
        self.command = command
        self.records: list[dict] = []
        self.normalization = CONTACT_MASS_NOTE
        self.elapsed_ms = 0

    def add(self, id: str, claim: str, passed: bool, **witness):
        self.records.append({"id": id, "claim": claim, "status": "pass" if passed else "fail",
                             "witness": encode_witness(witness)})

    def sort(self):
        self.records.sort(key=lambda r: r["id"])

    @property
    def all_pass(self) -> bool:
        return all(r["status"] == "pass" for r in self.records)

    def failures(self) -> list[str]:
        return [r["id"] for r in self.records if r["status"] == "fail"]

    def _records(self, approx: bool) -> list[dict]:
        if not approx:
            return self.records
        return [{**r, "witness_approx": _approximate(r["witness"])} for r in self.records]

    def as_dict(self, approx: bool = False) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "command": self.command,
            "normalization": self.normalization,
            "all_pass": self.all_pass,
            "elapsed_ms": self.elapsed_ms,
            "records": self._records(approx),
        }
        if approx:
            out["approx_note"] = APPROX_NOTE
        return out

    # -- renderings ------------------------------------------------------

    def to_json(self, approx: bool = False) -> str:
        """``json.dumps(self.as_dict(approx), indent=2)``, byte for byte."""
        return _json(self.as_dict(approx), "\n")

    def to_csv(self, approx: bool = False) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = ["id", "claim", "status", "witness"]
        if approx:
            header.append("witness_approx")
        writer.writerow(header)
        for record in self._records(approx):
            row = [record["id"], record["claim"], record["status"],
                   json.dumps(record["witness"], sort_keys=True)]
            if approx:
                row.append(json.dumps(record["witness_approx"], sort_keys=True))
            writer.writerow(row)
        return buf.getvalue()

    def to_text(self, approx: bool = False) -> str:
        lines = [
            f"crlab report (schema {SCHEMA_VERSION})",
            f"command: {self.command}",
            f"normalization: {self.normalization}",
            "",
        ]
        for record in self._records(approx):
            witness = ", ".join(f"{k}={json.dumps(v, sort_keys=True)}"
                                for k, v in record["witness"].items())
            lines.append(f"[{record['status'].upper()}] {record['id']}: {record['claim']}")
            if witness:
                lines.append(f"       {witness}")
            if approx:
                values = ", ".join(f"{k}~{json.dumps(v, sort_keys=True)}"
                                   for k, v in record["witness_approx"].items())
                lines.append(f"       approx ({APPROX_NOTE}): {values}")
        lines.append("")
        passed = sum(r["status"] == "pass" for r in self.records)
        lines.append(f"{passed}/{len(self.records)} checks passed "
                     f"({self.elapsed_ms} ms)")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str, approx: bool = False) -> str:
        if fmt == "json":
            return self.to_json(approx)
        if fmt == "csv":
            return self.to_csv(approx)
        if fmt == "text":
            return self.to_text(approx)
        raise ValueError(f"unknown format {fmt!r}")
