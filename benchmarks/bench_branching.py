#!/usr/bin/env python3
"""Checksum-gated timing of the Littlewood-Richardson branching layer.

Three curves.  Two on seeded signatures: `restrict_to_blocks` against the
size of the shifted partition (sig + a, a the smallest shift making it one),
for sizes 10 ... 22 with two signatures each at d = 6, 7 and 8 (entries in
[-4, 4], d1 seeded); and `tensor_decompose` against the summed shifted size
of its two factors, for the same sizes with four pairs at d = 6 (entries in
[-3, 3]).  The third restricts {1;2,1} = (2, 1, 0, ..., 0, -1) to two halves
U(d/2) x U(d/2) at d = 2^k, k = 8 ... 12: the answer has 17 components at
every d, but the shifted partition has d - 1 rows, so the walks grow with d.
Each point prints the best of three runs and its component count.  Each
checksum is the leading hex of a sha256 over the repr of every component of
its curve.  The first two were pinned with the per-gamma LR loop and the
per-term signatures that the single ballot walk replaced; the third with the
walks that recursed once per row and once per cell, which needed the
recursion limit raised past d = 1024.  Exits 1 unless every checksum
matches.
Usage: python3 benchmarks/bench_branching.py
"""

import hashlib
import random
import sys
from pathlib import Path

# Import the package from this checkout's src/, whether or not it is installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from timing import best_of
from weylchar.combinatorics import Signature
from weylchar.ucharacters import restrict_to_blocks, tensor_decompose

SIZES = tuple(range(10, 23))
RESTRICT_DS = (6, 6, 7, 7, 8, 8)
TENSOR_D = 6
PAIRS_PER_SIZE = 4
HALVES_DS = tuple(2**k for k in range(8, 13))
DIM_BUDGET = 10**15


def shifted_size(sig):
    a = max(0, -sig.entries[-1])
    return sum(e + a for e in sig.entries)


def seeded_signature(rng, d, lo, hi, size):
    """A signature with entries in [lo, hi] whose shifted size is `size`."""
    while True:
        sig = Signature(tuple(sorted((rng.randint(lo, hi) for _ in range(d)), reverse=True)))
        if shifted_size(sig) == size:
            return sig


def restrict_cases(size):
    rng = random.Random(3000 + size)
    cases = []
    for d in RESTRICT_DS:
        sig = seeded_signature(rng, d, -4, 4, size)
        cases.append((sig, rng.randint(1, d - 1)))
    return cases


def restrict_run(cases):
    out = []
    for sig, d1 in cases:
        dec = restrict_to_blocks(sig, d1, sig.d - d1, dim_budget=DIM_BUDGET)
        out.append([(s1.entries, s2.entries, m) for s1, s2, m in dec.components])
    return out


def tensor_cases(size):
    rng = random.Random(4000 + size)
    cases = []
    for _ in range(PAIRS_PER_SIZE):
        first = rng.randint(size // 3, size - size // 3)
        cases.append((seeded_signature(rng, TENSOR_D, -3, 3, first),
                       seeded_signature(rng, TENSOR_D, -3, 3, size - first)))
    return cases


def tensor_run(cases):
    out = []
    for sig1, sig2 in cases:
        comps = tensor_decompose(sig1, sig2, dim_budget=DIM_BUDGET)
        out.append([(s.entries, m) for s, m in comps])
    return out


def halves_cases(d):
    return [(Signature((2, 1) + (0,) * (d - 3) + (-1,)), d // 2)]


CURVES = (
    ("restrict_to_blocks", "size", SIZES, restrict_cases, restrict_run, "b7d22024b4a211ef"),
    ("tensor_decompose", "size", SIZES, tensor_cases, tensor_run, "b86a6a7af74513c6"),
    ("restrict halves", "d", HALVES_DS, halves_cases, restrict_run, "8a0d2339ae08519d"),
)


def main():
    ok = True
    for label, knob, points, make_cases, run, expected in CURVES:
        digest = hashlib.sha256()
        for point in points:
            cases = make_cases(point)
            best, results = best_of(lambda: run(cases))
            for value in results:
                digest.update(repr(value).encode() + b"\n")
            ncomps = sum(len(value) for value in results)
            print(f"{label:>18} {knob}={point:<4}: {best * 1000:9.2f} ms  "
                  f"({len(cases)} cases, {ncomps} components)")
        checksum = digest.hexdigest()[:16]
        print(f"{label:>18}: checksum {checksum}")
        if checksum != expected:
            print(f"{label}: checksum {checksum} != expected {expected}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
