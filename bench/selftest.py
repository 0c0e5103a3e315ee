"""Self-tests of the benchmark itself.

    python3 bench/selftest.py

1. A wrong committed digest makes a run count failed cases (fail ratio > 0).
2. Installing and removing the tracing wrappers leaves every digest as it
   was, and equal to the committed one.
3. A traced run reports every per-layer metric of ``BENCHMARK.json``; each
   is non-empty on the workload expected to move it, the layers a workload
   is meant to bypass stay at zero there, and the counts of two traced
   passes agree exactly.
4. In a directory holding only ``BENCHMARK.json`` and ``bench/`` the
   benchmark exits non-zero without printing a result.

Prints one line per test and exits 0 when all pass.  Takes about two
minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run

sys.path.insert(0, str(run.ROOT / "src"))

# Per-layer metrics that must be non-zero on a workload, and ones that must
# be zero because the workload is built to bypass that layer.
MOVES_ON = {
    "variation-forms": [
        "integration.inner.calls", "integration.inner.self_s",
        "integration.inner.nonzero_ratio", "variation.assemble_form.calls",
        "variation.assemble_form.self_s", "variation.classify.calls",
        "variation.classify.self_s", "variation.form_entries",
        "variation.form_nonzero_ratio", "variation.second_variation.self_s",
        "operators.apply.calls", "operators.apply.self_s", "scalars.ops",
        "scalars.coeff_bits_max",
    ],
    "identity-oracles": [
        "variation.weighted_gradient_pairing.calls",
        "variation.weighted_gradient_pairing.self_s",
        "variation.second_variation_decomposition.self_s",
        "variation.drift_square_form.self_s", "operators.apply.calls",
        "operators.apply.self_s", "operators.bochner_residual.self_s",
        "harmonics.basis.calls", "harmonics.basis.self_s", "harmonics.basis.hit_ratio",
        "harmonics.canonicalize.calls", "harmonics.canonicalize.self_s",
        "harmonics.sphere_equal.calls", "harmonics.sphere_equal.self_s",
        "deformation.variations_from_jets.calls", "deformation.variations_from_jets.self_s",
        "spherepoly.mul.calls", "spherepoly.mul.self_s", "spherepoly.terms_max",
        "scalars.ops", "scalars.coeff_bits_max", "parsing.parse_poly.calls",
    ],
    "spectra-cold": [
        "operators.common_eigenvalue.self_s", "harmonics.basis.calls",
        "harmonics.basis.self_s", "harmonics.basis.hit_ratio",
        "harmonics.canonicalize.calls", "harmonics.canonicalize.self_s",
        "harmonics.sphere_equal.calls", "harmonics.sphere_equal.self_s",
        "spherepoly.mul.calls", "spherepoly.mul.self_s", "spherepoly.terms_max",
        "scalars.ops", "scalars.coeff_bits_max", "parsing.parse_poly.calls",
        "parsing.parse_poly.self_s", "report.render.self_s", "cli.main.self_s",
    ],
}
BYPASSED = {
    "spectra-cold": ["integration.inner.calls", "variation.assemble_form.calls",
                     "variation.classify.calls"],
    "identity-oracles": ["variation.assemble_form.calls", "variation.classify.calls"],
}
FAST_CASE_NS = 300_000_000   # digest round trip in-process uses cases below this


def spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_wrong_digest_counts_as_failure():
    expected = json.loads(run.DIGESTS.read_text())
    victim = "golden/rossi_half.json"
    expected["workloads"]["spectra-cold"][victim] = "0" * 64
    record = run.run("spectra-cold", run.DEFAULT_SEED, 1, False, expected)
    assert record["failed"] > 0, record["failures"]
    assert all(victim in failure for failure in record["failures"]), record["failures"]


def test_tracing_leaves_digests_identical():
    import workloads
    from tracer import Tracer
    from worker import run_case

    committed = json.loads(run.DIGESTS.read_text())["workloads"]
    for workload in committed:
        cases = workloads.build_cases(workload, run.DEFAULT_SEED)
        first = [run_case(case) for case in cases]
        fast = [case for case, result in zip(cases, first)
                if result["latency_ns"] < FAST_CASE_NS]
        tracer = Tracer()
        tracer.install()
        try:
            traced = [run_case(case) for case in fast]
        finally:
            tracer.uninstall()
        after = [run_case(case) for case in fast]
        assert tracer.span_count() > 0
        want = {case.id: committed[workload][case.id] for case in fast}
        for results in (traced, after):
            assert {r["id"]: r["digest"] for r in results} == want, workload
            assert all(r["ok"] for r in results), workload


def test_traced_metrics_present_and_repeatable():
    declared = [m["name"] for m in spec()["per_layer"]]
    deadline = time.perf_counter() + run.RUN_LIMIT_S
    spans = run.OUT / "selftest-spans.tsv"
    for workload, moving in MOVES_ON.items():
        common = ["--workload", workload, "--seed", str(run.DEFAULT_SEED), "--mode", "pass"]
        passes = [run.spawn(common, deadline)[1]]
        repeats = 2 if workload == "spectra-cold" else 1
        for _ in range(repeats):
            passes.append(run.spawn([*common, "--trace", "--spans", str(spans)], deadline)[1])
        spans.unlink()
        assert not run.check_passes(passes, workload, run.DEFAULT_SEED,
                                    json.loads(run.DIGESTS.read_text())), workload
        layers, problems = run.per_layer(passes[0], passes[1:])
        assert not problems, problems
        missing = [name for name in declared if name not in layers]
        assert not missing, (workload, missing)
        empty = [name for name in moving if not layers[name]]
        assert not empty, (workload, empty)
        nonzero = [name for name in BYPASSED.get(workload, []) if layers[name]]
        assert not nonzero, (workload, nonzero)


def test_fails_without_the_program():
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        done = subprocess.run([sys.executable, *spec()["command"][1:], "--workload",
                               "spectra-cold", "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tests = [test_wrong_digest_counts_as_failure, test_tracing_leaves_digests_identical,
             test_traced_metrics_present_and_repeatable, test_fails_without_the_program]
    failed = 0
    for test in tests:
        started = time.perf_counter()
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc}")
            continue
        print(f"PASS {test.__name__} ({time.perf_counter() - started:.1f} s)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
