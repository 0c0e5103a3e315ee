"""Every benchmark case, run once in-process at the default seed, gives its committed digest.

The cases come from ``bench/workloads.py`` and run through
``bench/worker.run_case``, exactly as a benchmark worker runs them; each
digest is compared with ``bench/expected_digests.json``.  So an exact
output that a change moves fails here, in the test suite, before any
benchmark run.  Nothing under ``bench/`` is written.
"""

import json

import pytest

from conftest import BENCH, load_bench

EXPECTED = json.loads((BENCH / "expected_digests.json").read_text())

workloads = load_bench("workloads")
worker = load_bench("worker")


@pytest.mark.parametrize("workload", sorted(EXPECTED["workloads"]))
def test_workload_digests_match_committed(workload):
    cases = workloads.build_cases(workload, EXPECTED["default_seed"])
    results = [worker.run_case(case) for case in cases]
    assert [r["id"] for r in results if not r["ok"]] == []
    assert {r["id"]: r["digest"] for r in results} == EXPECTED["workloads"][workload]
