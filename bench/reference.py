"""Reference kernel that tracks the speed of the host's CPU.

On a small shared host the speed of one core drifts by up to about 1.8x over
tens of seconds (clock frequency, co-tenants), far more than the changes the
benchmark has to resolve.  Each timing is therefore taken together with the
time of this fixed kernel, measured in the same process right next to it,
and reported as ``raw * REFERENCE_NS / kernel_ns``: seconds at the speed at
which the kernel takes exactly ``REFERENCE_NS``.  Raw timings are kept in
the run record beside the scaled ones.

The kernel is standard-library exact arithmetic (``Fraction`` products and
dict updates, the operations crlab's hot loops consist of) and never touches
crlab, so no change to the program can change it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_NS = 1_000_000


def kernel() -> Fraction:
    total = Fraction(0)
    buckets: dict[tuple[int, int, int], Fraction] = {}
    for i in range(1, 120):
        value = Fraction(i, i + 3) * Fraction(i + 1, 2 * i + 1)
        total += value
        key = (i % 7, i % 5, i % 3)
        buckets[key] = buckets.get(key, 0) + value
    return total


def measure(reps: int = 21) -> int:
    """Median time of the kernel over reps runs, in nanoseconds."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        kernel()
        samples.append(time.perf_counter_ns() - start)
    return sorted(samples)[reps // 2]


def scale(raw: float, kernel_ns: float) -> float:
    """raw expressed at the reference speed."""
    return raw * REFERENCE_NS / kernel_ns
