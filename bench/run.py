"""crlab benchmark: end-to-end and per-layer timings with every output checked.

Run from the root of a checkout:

    python3 bench/run.py --workload variation-forms --seed 0 --seconds 35 --trace 0

Workloads are listed in ``BENCHMARK.json`` and built in ``workloads.py``.
A run executes passes of the workload's fixed case list until the next pass
would end after ``--seconds``.  Every pass is a fresh single-threaded worker
process (``worker.py``) started with ``CR_LAB_THREADS`` removed and a fixed
``PYTHONHASHSEED``; one caller drives its cases closed-loop.  Only one
process runs at a time.

End-to-end metrics (``--trace 0``; every time is scaled to a reference
host speed, see ``reference.py``, and each case's latency is its median
over the run's passes):

* ``setup_s``: from starting a worker until its first case is ready
  (interpreter start, ``import crlab``, seeded inputs and their parsing),
  measured by this process.  Extra set-up-only workers add samples.
* ``wall_s``: time spent inside the program on the whole case list.
* ``case_p50_ms``: median latency of one case.
* ``case_tail_ms``: the highest percentile of the case latencies that still
  has at least 10 cases above it (percentile and case count printed).
* ``peak_rss_mib``: the worker's maximum resident set size.

Failed cases are reported as ``failed`` out of ``attempted`` (the fail
ratio).  A case fails if it raises, exits non-zero, reports a failed check,
differs from a golden file, gives an exact-output digest that differs from
``expected_digests.json`` (every unseeded case, and seeded cases at the
default seed), or gives different digests in two passes of one run.

With ``--trace 1`` one untraced pass is followed by traced passes (see
``tracer.py``); the run reports the per-layer metrics of ``BENCHMARK.json``
from the traced passes, whose counts must agree exactly, plus the tracing
overhead.  Spans are written to ``.bench_out/spans-<workload>-seed<n>.tsv``
and every run's full record to ``.bench_out/<workload>-seed<n>-trace<t>.json``.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from math import ceil
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
DIGESTS = BENCH / "expected_digests.json"
DEFAULT_SEED = 0            # the seed whose seeded-case digests are committed

SETUP_PROBES = 12          # set-up-only workers per untraced run, after one warm-up
RUN_LIMIT_S = 170          # a run never lets a worker go past this
TAIL_MIN_ABOVE = 10


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("CR_LAB_THREADS", "PYTHONPATH", "PYTHONDONTWRITEBYTECODE",
                        "PYTHONSTARTUP", "PYTHONINSPECT")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    # Byte code is cached inside the benchmark's own output directory, so
    # every set-up after the warm-up reads the same cache, whatever the
    # caller's environment says about writing byte code.
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def spawn(args: list[str], deadline: float) -> tuple[dict, dict | None]:
    """Run one worker to its end; returns (set-up timing, pass result or None)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), *args]
    kernel_before = reference.measure()
    started = time.perf_counter()
    ready_at = None
    data = bytearray()
    with open(OUT / "worker-stderr.txt", "wb") as err, subprocess.Popen(
            cmd, cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err, bufsize=0) as proc:
        try:
            fd = proc.stdout.fileno()
            while True:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise BenchError(f"worker {' '.join(args)} ran out of time")
                readable, _, _ = select.select([fd], [], [], remaining)
                if not readable:
                    continue
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    break
                data += chunk
                if ready_at is None and b"\n" in data:
                    ready_at = time.perf_counter()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    lines = data.decode().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
        tail = (OUT / "worker-stderr.txt").read_text()[-2000:]
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode}):\n{tail}")
    # Host speed on both sides of the set-up: here before the start, and in
    # the worker right after it was ready.
    kernel_ns = (kernel_before + int(lines[1])) / 2
    setup = {"raw_s": ready_at - started, "kernel_ns": kernel_ns,
             "s": reference.scale(ready_at - started, kernel_ns)}
    return setup, (json.loads(lines[2]) if len(lines) > 2 else None)


def tail_index(n: int) -> tuple[int, int]:
    """(percentile, 1-based nearest rank) of the highest percentile with
    at least TAIL_MIN_ABOVE of n samples above it."""
    for pct in range(99, 0, -1):
        rank = ceil(pct * n / 100)
        if n - rank >= TAIL_MIN_ABOVE:
            return pct, rank
    raise BenchError(f"{n} cases per pass: too few for a tail percentile")


def check_passes(passes: list[dict], workload: str, seed: int, expected: dict) -> list[str]:
    """Mark every failed case execution; returns the failure messages."""
    committed = expected["workloads"].get(workload, {})
    gate_seeded = seed == expected["default_seed"]
    first = {c["id"]: c["digest"] for c in passes[0]["cases"]}
    failures = []
    for number, result in enumerate(passes):
        if [c["id"] for c in result["cases"]] != list(first):
            raise BenchError("passes ran different case lists")
        for case in result["cases"]:
            reason = case["reason"] if not case["ok"] else ""
            want = committed.get(case["id"])
            if not reason and (gate_seeded or not case["seeded"]):
                if want is None:
                    reason = "no committed digest"
                elif case["digest"] != want:
                    reason = f"digest {case['digest'][:12]} != committed {want[:12]}"
            if not reason and case["digest"] != first[case["id"]]:
                reason = "digest differs between passes"
            if reason:
                case["ok"] = False
                failures.append(f"pass {number} {case['id']}: {reason}")
    return failures


def latencies_ms(result: dict, scaled: bool = True) -> list[float]:
    """Case latencies of one pass, each scaled by the kernel timed around it."""
    if not scaled:
        return [c["latency_ns"] / 1e6 for c in result["cases"]]
    return [reference.scale(c["latency_ns"] / 1e6,
                            (c["kernel_before_ns"] + c["kernel_after_ns"]) / 2)
            for c in result["cases"]]


def end_to_end(setups: list[dict], passes: list[dict]) -> tuple[dict, dict]:
    """Each case's latency is its median over the passes (median-of-N), which
    drops the few cases a sudden change of host speed caught mid-call; wall
    time, median and tail are taken over those per-case medians."""
    n = len(passes[0]["cases"])
    pct, rank = tail_index(n)
    metrics, raw = {}, {}
    for out, scaled in ((metrics, True), (raw, False)):
        per_pass = [latencies_ms(result, scaled) for result in passes]
        per_case = sorted(statistics.median(lat[i] for lat in per_pass) for i in range(n))
        out["setup_s"] = statistics.median(s["s" if scaled else "raw_s"] for s in setups)
        out["wall_s"] = sum(per_case) / 1e3
        out["case_p50_ms"] = statistics.median(per_case)
        out["case_tail_ms"] = per_case[rank - 1]
    metrics["peak_rss_mib"] = statistics.median(r["peak_rss_kib"] / 1024 for r in passes)
    detail = {"raw": raw, "setup_samples_s": [s["s"] for s in setups],
              "wall_s_per_pass": [sum(latencies_ms(r)) / 1e3 for r in passes],
              "tail_percentile": pct, "cases_per_pass": n}
    return metrics, detail


def per_layer(baseline: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Median self times over traced passes; counts must agree exactly."""
    problems = []
    first = traced[0]["trace"]
    for result in traced[1:]:
        for key, value in result["trace"].items():
            if not key.endswith("_s") and value != first[key]:
                problems.append(f"traced count {key} changed between passes: "
                                f"{first[key]} then {value}")
    metrics = {key: (statistics.median(r["trace"][key] for r in traced)
                     if key.endswith("_s") else value)
               for key, value in first.items()}
    traced_wall = statistics.median(sum(latencies_ms(r)) / 1e3 for r in traced)
    metrics["trace.overhead_s"] = traced_wall - sum(latencies_ms(baseline)) / 1e3
    return metrics, problems


def git_commit() -> str | None:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crlab").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run(workload: str, seed: int, seconds: int, trace: bool, expected: dict) -> dict:
    """One benchmark run; returns the full record (metrics, passes, context)."""
    started = time.perf_counter()
    hard_deadline = started + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    spans = OUT / f"spans-{workload}-seed{seed}.tsv"
    setups = []
    spawn([*common, "--mode", "setup"], hard_deadline)   # warm-up: byte code, file cache
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(spawn([*common, "--mode", "setup"], hard_deadline)[0])
    else:
        spans.write_text("")
    passes, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        use_trace = trace and bool(passes)  # a traced run starts with one untraced pass
        args = [*common, "--mode", "pass"]
        if use_trace:
            args += ["--trace", "--spans", str(spans)]
            with open(spans, "a") as handle:
                handle.write(f"# pass {len(passes) + len(traced)}\n")
        begun = time.perf_counter()
        setup, result = spawn(args, hard_deadline)
        (traced if use_trace else passes).append(result)
        if not use_trace:
            setups.append(setup)
        took = time.perf_counter() - begun
        enough = not trace or traced
        if enough and time.perf_counter() + took > deadline:
            break
    all_passes = passes + traced
    failures = check_passes(all_passes, workload, seed, expected)
    attempted = sum(len(r["cases"]) for r in all_passes)
    failed = sum(1 for r in all_passes for c in r["cases"] if not c["ok"])
    e2e, detail = end_to_end(setups, passes)
    record = {"workload": workload, "seed": seed, "trace": trace,
              "attempted": attempted, "failed": failed, "failures": failures,
              "end_to_end": e2e, "detail": detail}
    if trace:
        layers, problems = per_layer(passes[0], traced)
        record["per_layer"] = layers
        record["failures"] += problems
        record["spans_per_pass"] = [r["spans"] for r in traced]
    record["context"] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "crlab_git_commit": git_commit(),
        "crlab_source_sha256": source_digest(),
        "seed": seed,
        "workload": workload,
        "run_seconds": seconds,
        "passes": len(passes),
        "traced_passes": len(traced),
        "trace_overhead_s": record.get("per_layer", {}).get("trace.overhead_s"),
        "elapsed_s": time.perf_counter() - started,
    }
    record["passes"] = all_passes
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        for needed in ("src/crlab/__init__.py", "tests/golden"):
            if not (ROOT / needed).exists():
                raise BenchError(f"{needed} is missing: run from the root of a crlab checkout")
        OUT.mkdir(exist_ok=True)
        expected = json.loads(DIGESTS.read_text())
        record = run(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    produced = record["per_layer"] if args.trace else record["end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in produced]
    if missing:
        print(f"bench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": produced[m["name"]], "unit": m["unit"]} for m in declared}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    detail = record["detail"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(record['passes'])}  cases/pass {detail['cases_per_pass']}")
    for name, metric in metrics.items():
        print(f"  {name:<52} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        print("  times are at the reference speed (reference.py); as measured: "
              + ", ".join(f"{name} {value:.6g}" for name, value in detail["raw"].items()))
        print(f"  case_tail_ms is p{detail['tail_percentile']} of "
              f"{detail['cases_per_pass']} cases per pass; setup_s is the median of "
              f"{len(detail['setup_samples_s'])} set-ups")
    print(f"  fail_ratio {record['failed']}/{record['attempted']} = "
          f"{record['failed'] / record['attempted']:.6g}")
    for failure in record["failures"][:20]:
        print(f"  FAIL {failure}")
    print(json.dumps({"context": record["context"]}))
    print(json.dumps({"correct": not record["failures"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
