#!/usr/bin/env python3
"""Checksum-gated timing of the Gelfand-Tsetlin aggregation kernel.

The workloads mirror the hot paths: the full d in {4,5,6} moment sweep (every
signature with entries in [-2,2], every admissible even r), a deep-tower
confluent character evaluation with the two eigenvalues on contiguous
halves, and the CAR tower at d in {256, 512} with the eigenvalues interleaved
the way the tower embedding lays them out.  Exits 1 unless every checksum
matches; each checksum is a sum of Weyl dimensions.  The kernel's shared
node memo is cleared before each timed repetition, so the times are cold.
Usage: python3 benchmarks/bench_gt.py
"""

import sys
import time

from weylchar import gtkernel
from weylchar.combinatorics import signatures_with_entries
from weylchar.gtkernel import group_counts
from weylchar.moments import TraceZeroSigned


def sweep_workload():
    total = 0
    for d in (4, 5, 6):
        for sig in signatures_with_entries(d, -2, 2):
            for r in range(2, d + 1, 2):
                counts = group_counts(sig.entries, TraceZeroSigned(r, d).groups(), 3)
                total += sum(counts.values())
    return total


def tower_workload():
    total = 0
    for d in (16, 32, 64, 128):
        entries = (2, 1) + (0,) * (d - 4) + (-1, -2)
        groups = tuple(0 if i < d // 2 else 1 for i in range(d))
        counts = group_counts(entries, groups, 2)
        total += sum(counts.values())
    return total


def car_interleaved_workload():
    total = 0
    for d in (256, 512):
        entries = (2, 1) + (0,) * (d - 4) + (-1, -2)
        groups = tuple(i % 2 for i in range(d))
        counts = group_counts(entries, groups, 2)
        total += sum(counts.values())
    return total


WORKLOADS = (
    ("moment sweep", sweep_workload, 982377),
    ("deep tower", tower_workload, 496078591740),
    ("car interleaved", car_interleaved_workload, 2032785592614910),
)


def run(label, workload, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        gtkernel._node.cache_clear()
        start = time.perf_counter()
        result = workload()
        best = min(best, time.perf_counter() - start)
    print(f"{label:>15}: {best * 1000:8.1f} ms  (checksum {result})")
    return result


def main():
    ok = True
    for label, workload, expected in WORKLOADS:
        result = run(label, workload)
        if result != expected:
            print(f"{label}: checksum {result} != expected {expected}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
