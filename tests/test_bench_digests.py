"""Every benchmark case, run once in-process at the default seed, gives its committed digest.

The cases come from ``bench/workloads.py`` and run through
``bench/worker.run_case``, exactly as a benchmark worker runs them; each
digest is compared with ``bench/expected_digests.json``.  So an exact
output that a change moves fails here, in the test suite, before any
benchmark run.  Nothing under ``bench/`` is written.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
EXPECTED = json.loads((BENCH / "expected_digests.json").read_text())


def _load(name: str):
    """A module of bench/, loaded from its file without putting bench/ on sys.path."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # leave bench/ untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


workloads = _load("workloads")
worker = _load("worker")


@pytest.mark.parametrize("workload", sorted(EXPECTED["workloads"]))
def test_workload_digests_match_committed(workload):
    cases = workloads.build_cases(workload, EXPECTED["default_seed"])
    results = [worker.run_case(case) for case in cases]
    assert [r["id"] for r in results if not r["ok"]] == []
    assert {r["id"]: r["digest"] for r in results} == EXPECTED["workloads"][workload]
