#!/usr/bin/env python3
"""Checksum-gated timing of the Gelfand-Tsetlin aggregation kernel.

The workloads mirror the hot paths: the full d in {4,5,6} moment sweep (every
signature with entries in [-2,2], every admissible even r), a deep-tower
confluent character evaluation with the two eigenvalues on contiguous
halves, and the CAR tower at d in {256, 512} with the eigenvalues interleaved
the way the tower embedding lays them out; each checksum is a sum of Weyl
dimensions.  Then a curve: `weight_distribution` over the moment sweep at
each d in {4, ..., 8}, printing the time, the kernel nodes and jump tables
built and a checksum, the leading hex of a sha256 over the repr of every
(m2, m4) of the point; the pinned values were computed with the tuple-keyed
kernel that the integer-keyed one replaced.  The kernel's node memo and
its jump tables are both cleared before each timed repetition, so the
times are cold.  Last a curve of exact characters: `char_eval` at each
d in {2^4, ..., 2^10} along the CAR tower, for five pairs {mu; lam} at three
spectra of two interleaved quarter turns, timed cold and then warm (best of
three each), with a checksum over the repr of every value; the pinned values
were computed by evaluating the Schur polynomial at Gaussian rational
eigenvalues, the route the phase count replaced.  Then a curve of
`weyl_dim` against d in {4, 8, 16, 64, 256, 1024} on 100 seeded signatures
with entries in [-4, 4] per d, and on the all-distinct staircase
(d-1, ..., 1, 0) for d up to 256, each point the best of three runs, with a
checksum over every dimension pinned with the accumulate-and-perm pair loop
that the current one replaced.  Last a pair curve: `signature_from_pair` and
`weyl_dim` on {2;1} and {2,1;1,1} at d in {2^8, 2^12, 2^16, 2^20}, with a
checksum pinned on the code that built the d-tuple and tallied its runs on
every call, then at d = 2^32 and 2^64, timed only.  Exits 1 unless every
checksum matches.
Usage: python3 benchmarks/bench_gt.py
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

# Import the package from this checkout's src/, whether or not it is installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from timing import best_of
from weylchar import gtkernel
from weylchar.combinatorics import (
    Partition,
    Signature,
    signature_from_pair,
    signatures_with_entries,
)
from weylchar.gtkernel import group_counts
from weylchar.moments import TraceZeroSigned, weight_distribution
from weylchar.symfunc import weyl_dim
from weylchar.ucharacters import DiagonalUnitary, char_eval


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


# d -> checksum of the (m2, m4) of weight_distribution over the moment sweep at d.
SWEEP_CURVE = {
    4: "9c1c8c2cdc4a3b7f",
    5: "497f2f37f200a0de",
    6: "3cd2b665e51569c5",
    7: "7eae18188883dfce",
    8: "6d296deb899a6d2d",
}


# d -> checksum of the exact character values of `car_characters(d)`.
CHAR_CURVE = {
    16: "8095103636640f4d",
    32: "3dd59cd9d8349d47",
    64: "b692fba6b9d8afdb",
    128: "9012cfba9248afb0",
    256: "5bedd48d178db02a",
    512: "7202ce05642cfc00",
    1024: "6facd5979ef46a52",
}

CHAR_PAIRS = (((1,), (1,)), ((2,), (1,)), ((1,), (2,)), ((2, 1), (1,)), ((2,), (2,)))
# Level-1 spectra of the CAR tower; level n repeats them, interleaved, 2^(n-1) times.
CAR_BASES = tuple((Fraction(k, 4), Fraction(k + 1, 4)) for k in range(3))


def car_characters(d):
    out = []
    for base in CAR_BASES:
        u = DiagonalUnitary(base * (d // 2))
        for lam, mu in CHAR_PAIRS:
            out.append(char_eval(signature_from_pair(Partition(lam), Partition(mu), d), u))
    return out


# d -> checksum of the Weyl dimensions of `dim_signatures(d)`.
DIM_CURVE = {
    4: "35671ee38513f636",
    8: "e4b6d26ae9e1ddee",
    16: "e62abd01cbb6779b",
    64: "00128392f623efcb",
    256: "a24900400fb7244a",
    1024: "9550c33cb7bff936",
}

# d -> checksum of the Weyl dimension of the staircase (d-1, ..., 1, 0).
STAIRCASE_CURVE = {
    4: "1af302cbcb594c73",
    16: "1eb499756009d9f8",
    64: "8795182bb3109c2a",
    256: "468c0627b95438f3",
}


# d -> checksum of the Weyl dimensions of `pair_dims(d)`.
PAIR_CURVE = {
    2**8: "f2e6b49a76d2593f",
    2**12: "298f1ab7e87bbe53",
    2**16: "512049abedad69ff",
    2**20: "2eaf84b7880490cb",
}
PAIR_TIMED_ONLY = (2**32, 2**64)
DIM_PAIRS = (((2,), (1,)), ((2, 1), (1, 1)))


def pair_dims(d):
    return [weyl_dim(signature_from_pair(Partition(lam), Partition(mu), d)) for lam, mu in DIM_PAIRS]


def dim_signatures(d, count=100):
    rng = random.Random(d)
    return [Signature(tuple(sorted((rng.randint(-4, 4) for _ in range(d)), reverse=True)))
            for _ in range(count)]


def dims_of(sigs):
    return [weyl_dim(sig) for sig in sigs]


def moment_pairs(d):
    out = []
    for sig in signatures_with_entries(d, -2, 2):
        for r in range(2, d + 1, 2):
            dist = weight_distribution(sig, TraceZeroSigned(r, d))
            out.append((dist.moment(2), dist.moment(4)))
    return out


def clear_kernel_caches():
    gtkernel._clear_memo()
    gtkernel._table.cache_clear()


def cold_best(workload):
    """(best seconds, nodes built, tables built, result) over cold repetitions.

    The node count is what the memo holds after the last repetition, the empty
    row's node included; every workload here stays within its bound.
    """
    best, result = best_of(workload, reset=clear_kernel_caches)
    nodes = sum(map(len, gtkernel._memo.values()))
    tables = gtkernel._table.cache_info().misses
    return best, nodes, tables, result


def main():
    ok = True
    for label, workload, expected in WORKLOADS:
        best, _, _, result = cold_best(workload)
        print(f"{label:>15}: {best * 1000:8.1f} ms  (checksum {result})")
        if result != expected:
            print(f"{label}: checksum {result} != expected {expected}", file=sys.stderr)
            ok = False
    print("weight_distribution over the moment sweep, cold:")
    for d, expected in SWEEP_CURVE.items():
        best, nodes, tables, pairs = cold_best(lambda: moment_pairs(d))
        digest = hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]
        print(f"  d={d}: {len(pairs):5d} calls {best * 1000:8.1f} ms  {nodes:5d} nodes  "
              f"{tables:5d} tables  (checksum {digest})")
        if digest != expected:
            print(f"d={d}: checksum {digest} != expected {expected}", file=sys.stderr)
            ok = False
    print("char_eval at quarter-turn CAR-tower spectra, cold then warm:")
    for d, expected in CHAR_CURVE.items():
        cold, _, _, values = cold_best(lambda: car_characters(d))
        warm, _ = best_of(lambda: car_characters(d))
        digest = hashlib.sha256(repr(values).encode()).hexdigest()[:16]
        print(f"  d={d:4d}: {len(values)} calls {cold * 1000:8.1f} ms cold "
              f"{warm * 1000:8.1f} ms warm  (checksum {digest})")
        if digest != expected:
            print(f"d={d}: checksum {digest} != expected {expected}", file=sys.stderr)
            ok = False
    print("weyl_dim, best of three:")
    for label, curve, signatures in (
        ("100 seeded, entries in [-4, 4]", DIM_CURVE, dim_signatures),
        ("staircase", STAIRCASE_CURVE, lambda d: [Signature(tuple(range(d - 1, -1, -1)))]),
    ):
        for d, expected in curve.items():
            sigs = signatures(d)
            best, dims = best_of(lambda: dims_of(sigs))
            # hex, since a staircase dimension has more digits than str() converts.
            digest = hashlib.sha256(",".join(map(hex, dims)).encode()).hexdigest()[:16]
            print(f"  {label} d={d:4d}: {best / len(sigs) * 1e6:9.1f} us a call  (checksum {digest})")
            if digest != expected:
                print(f"weyl_dim {label} d={d}: checksum {digest} != expected {expected}",
                      file=sys.stderr)
                ok = False
    print("signature_from_pair and weyl_dim on {2;1} and {2,1;1,1}, best of three:")
    for d in (*PAIR_CURVE, *PAIR_TIMED_ONLY):
        best, dims = best_of(lambda: pair_dims(d))
        digest = hashlib.sha256(",".join(map(hex, dims)).encode()).hexdigest()[:16]
        expected = PAIR_CURVE.get(d)
        pinned = f"  (checksum {digest})" if expected else ""
        print(f"  d=2^{d.bit_length() - 1:2d}: {best / len(dims) * 1e6:9.1f} us a pair{pinned}")
        if expected and digest != expected:
            print(f"pair d={d}: checksum {digest} != expected {expected}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
