"""Record the exact-output digests that gate every benchmark case.

    python3 bench/record_digests.py

Runs one untraced pass of each workload at the default seed and writes
``expected_digests.json``.  A case whose own checks fail is not recorded.
Re-record only for a change that is meant to alter an exact output, and
say so in that change: a speed-up must leave every digest as it is.
"""

from __future__ import annotations

import json
import sys
import time

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    recorded = {}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        _, result = run.spawn(["--workload", workload, "--seed", str(run.DEFAULT_SEED),
                               "--mode", "pass"], time.perf_counter() + run.RUN_LIMIT_S)
        bad = [c["id"] for c in result["cases"] if not c["ok"]]
        if bad:
            print(f"{workload}: cases failed their own checks: {bad}", file=sys.stderr)
            return 1
        recorded[workload] = {c["id"]: c["digest"] for c in result["cases"]}
    run.DIGESTS.write_text(json.dumps({"default_seed": run.DEFAULT_SEED, "workloads": recorded},
                                      indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
