"""Benchmark worker: one fresh, single-threaded process per pass of a workload.

Started by ``bench/run.py``:

    python3 bench/worker.py --workload W --seed N --mode setup|pass [--trace --spans PATH]

Set-up imports crlab, generates the seeded inputs and parses them; then the
worker prints ``READY`` and, on the next line, the time of the reference
kernel (``reference.py``).  In ``setup`` mode it exits there.  In ``pass`` mode
it runs every case of the workload closed-loop (the next case starts when
the previous one has returned), timing each call into the program next to
the reference kernel (``reference.py``), and prints one JSON line with each
case's latency, kernel times, verdict and exact-output digest.  With ``--trace`` the layer tracer is installed before set-up and
its aggregates are added to that line; the spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def encode(value):
    """Structural, lossless encoding of library return values for digests."""
    from crlab import GaussianRational, SpherePoly

    if isinstance(value, GaussianRational):
        return [str(value.re), str(value.im)]
    if isinstance(value, SpherePoly):
        return sorted([list(mono), str(c.re), str(c.im)] for mono, c in value.terms.items())
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode {value!r}")


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def normalize_golden(text: str, name: str) -> str:
    """Zero the elapsed time, as the CLI golden tests do."""
    if name.endswith(".json"):
        return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', text)
    if name.endswith(".txt"):
        return re.sub(r"\(\d+ ms\)", "(0 ms)", text)
    return text


def call_cli(argv: list[str]) -> tuple[int, str]:
    import crlab.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = crlab.cli.main(list(argv))
    return code, out.getvalue()


def run_case(case) -> dict:
    """Run one case; returns its latency, verdict and digest of its exact output."""
    start = time.perf_counter_ns()
    try:
        if case.kind == "lib":
            result = case.payload()
        else:
            argv = case.payload if case.kind == "cli" else case.payload[0]
            result = call_cli(argv)
    except Exception as exc:  # a raising case is a failed case, not a dead worker
        latency = time.perf_counter_ns() - start
        return {"id": case.id, "seeded": case.seeded, "latency_ns": latency,
                "ok": False, "reason": f"raised {exc!r}", "digest": None}
    latency = time.perf_counter_ns() - start
    try:
        ok, reason, digest = check(case, result)
    except Exception as exc:  # e.g. no JSON report on stdout
        ok, reason, digest = False, f"unreadable output: {exc!r}", None
    return {"id": case.id, "seeded": case.seeded, "latency_ns": latency,
            "ok": ok, "reason": reason, "digest": digest}


def check(case, result) -> tuple[bool, str, str]:
    """Verdict, failure reason and exact-output digest of one case's result."""
    ok, reason = True, ""
    if case.kind == "lib":
        ok, values = result
        digest = sha256_json(encode(values))
        if not ok:
            reason = "library check returned false"
    elif case.kind == "cli":
        code, text = result
        report = json.loads(text)
        ok = code == 0 and report["all_pass"] is True
        reason = "" if ok else f"exit {code}, all_pass {report['all_pass']}"
        del report["elapsed_ms"], report["command"]
        digest = sha256_json(report)
    else:
        code, text = result
        name = case.payload[1]
        got = normalize_golden(text, name).encode()
        expected = (ROOT / "tests" / "golden" / name).read_bytes()
        ok = code == 0 and got == expected
        reason = "" if ok else f"exit {code}; output differs from tests/golden/{name}"
        digest = hashlib.sha256(got).hexdigest()
    return ok, reason, digest


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args()

    import crlab
    import crlab.cli  # noqa: F401  (loaded before tracing, as a CLI process has it)
    import reference
    import workloads
    from tracer import Tracer

    source = Path(crlab.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        print(f"crlab imported from {source}, not from this checkout", file=sys.stderr)
        return 3
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    cases = workloads.build_cases(args.workload, args.seed)
    print("READY", flush=True)
    # The reference kernel runs right after set-up and after every case, so
    # set-up and each case are scaled by the host speed on both sides of them.
    kernel_ns = reference.measure()
    print(kernel_ns, flush=True)
    if args.mode == "setup":
        return 0

    results = []
    for index, case in enumerate(cases):
        if tracer is not None:
            tracer.case = index
        result = run_case(case)
        result["kernel_before_ns"] = kernel_ns
        kernel_ns = reference.measure()
        result["kernel_after_ns"] = kernel_ns
        results.append(result)
    out = {"cases": results,
           "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.aggregate()
        out["spans"] = tracer.span_count()
        with open(args.spans, "a") as handle:
            tracer.write_spans(handle, [case.id for case in cases])
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
