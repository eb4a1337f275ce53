#!/usr/bin/env python3
"""Checksum-gated timing of the Bratteli layer: traces, validation, K0, towers.

One curve per preset against its depth: `gicar` at depth 10 ... 40 (the
Pascal diagram, whose blocks grow one per level), `effros-shen` at depth
30 ... 240 (two blocks, weights with Fibonacci denominators) and `uhf:2,3`
at depth 8 ... 64 (one block, factors 2 and 3 alternating).  Each point
prints the best of three runs of `trace_weights` (default boundary),
`validate_diagram` and `k0_extension_obstruction` over 24 continuation
steps; `gicar` has no continuation, so it skips K0.  The checksum is the
leading hex of a sha256 over the repr of every result: the weights, the
report's JSON and the obstruction step.  It was pinned with the Fraction
backward substitution, dense primitivity probe and Cramer's-rule lifts that
the integer layer replaced.

The tower curve times `ergodic_sequence` against its depth: `car` {1;1},
{2;1} and {1;2} at depth 4 ... 12 (d = 4096 on the last level) and `uhf:3`
{1;1} at depth 3 ... 7 (d = 2187), each from a level-1 spectrum at quarter
turns (the exact phase count) and at float angles (the float determinant),
best of three, with the dimension budget raised to the deepest level's
dimension.  Its checksum covers the exact values and limits; it was pinned
on the code that concatenated every block's angles at each level.

The defect curve times `schur_weyl_defect` at tower level n = 7 (d = 128)
against p = q in 1, 2, 4, 8, 12, 16, 20, best of three.  Its checksum covers
the repr of every defect; it was pinned on the double sum over the
partitions of p and q that the closed form replaced.  Exits 1 unless all
three checksums match.
Usage: python3 benchmarks/bench_bratteli.py
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

# Import the package from this checkout's src/, whether or not it is installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from timing import best_of
from weylchar.afalgebra import (
    BlockUnitary,
    K0Hom,
    ergodic_sequence,
    k0_extension_obstruction,
    preset_diagram,
    schur_weyl_defect,
    trace_weights,
    validate_diagram,
)
from weylchar.combinatorics import Partition, signature_from_pair
from weylchar.symfunc import weyl_dim
from weylchar.ucharacters import DiagonalUnitary

K0_STEPS = 24
# (preset, depths, deepest K0 vector or None for no continuation)
CURVES = (
    ("gicar", (10, 20, 30, 40), None),
    ("effros-shen", (30, 60, 120, 240), (5, -3)),
    ("uhf:2,3", (8, 16, 32, 64), (6**5,)),
)
EXPECTED = "f31f5332d3b35452"

# (preset, {mu; lam} pairs as (lam, mu), depths, level-1 quarter turns, level-1 float angles)
TOWERS = (
    ("car", (((1,), (1,)), ((2,), (1,)), ((1,), (2,))), (4, 8, 10, 12),
     (Fraction(1, 4), Fraction(1, 2)), (0.1234, 0.5678)),
    ("uhf:3", (((1,), (1,)),), (3, 5, 7),
     (Fraction(1, 4), Fraction(1, 2), Fraction(0)), (0.05, 0.3, 0.71)),
)
TOWER_EXPECTED = "6b9ffc8538d49564"

DEFECT_N = 7
DEFECT_PQ = (1, 2, 4, 8, 12, 16, 20)
DEFECT_EXPECTED = "57108f657a6d9703"


def tower_curve():
    """Print the ergodic_sequence curve; return the checksum of its exact reports."""
    digest = hashlib.sha256()
    for name, pairs, depths, quarters, floats in TOWERS:
        for lam, mu in pairs:
            lam, mu = Partition(lam), Partition(mu)
            for depth in depths:
                diagram = preset_diagram(name, depth=depth)
                budget = weyl_dim(signature_from_pair(lam, mu, diagram.levels[depth][0]))
                times = []
                for angles in (quarters, floats):
                    u = BlockUnitary(1, (DiagonalUnitary(angles),))
                    best, report = best_of(
                        lambda: ergodic_sequence(diagram, lam, mu, u, depth, dim_budget=budget))
                    times.append(best)
                    if angles is quarters:
                        digest.update(repr((report.values, report.limit)).encode() + b"\n")
                print(f"{name:>12} {{{','.join(map(str, mu))};{','.join(map(str, lam))}}} "
                      f"depth={depth:<3} d={diagram.levels[depth][0]:<5}: ergodic_sequence "
                      f"exact {times[0] * 1000:8.2f} ms  float {times[1] * 1000:8.2f} ms")
    return digest.hexdigest()[:16]


def defect_curve():
    """Print the schur_weyl_defect curve at level DEFECT_N; return the checksum of its values."""
    digest = hashlib.sha256()
    for p in DEFECT_PQ:
        best, defect = best_of(lambda: schur_weyl_defect(DEFECT_N, p, p))
        digest.update(repr(defect).encode() + b"\n")
        print(f"{'car':>12} n={DEFECT_N} d={2**DEFECT_N} p=q={p:<3}: schur_weyl_defect "
              f"{best * 1e6:12.1f} us")
    return digest.hexdigest()[:16]


def main():
    digest = hashlib.sha256()
    for name, depths, k0_vector in CURVES:
        for depth in depths:
            diagram = preset_diagram(name, depth=depth)
            t_tw, weights = best_of(lambda: trace_weights(diagram))
            t_val, report = best_of(lambda: validate_diagram(diagram))
            results = [weights.weights, report.to_json()]
            line = (f"{name:>12} depth={depth:<4}: trace_weights {t_tw * 1000:8.2f} ms  "
                    f"validate_diagram {t_val * 1000:8.2f} ms")
            if k0_vector is not None:
                hom = K0Hom.from_deepest(diagram, k0_vector)
                t_k0, step = best_of(lambda: k0_extension_obstruction(hom, K0_STEPS))
                results.append(step)
                line += f"  k0 {t_k0 * 1000:8.2f} ms (obstruction {step})"
            for value in results:
                digest.update(repr(value).encode() + b"\n")
            print(line)
    ok = True
    for label, checksum, expected in (("checksum", digest.hexdigest()[:16], EXPECTED),
                                      ("tower checksum", tower_curve(), TOWER_EXPECTED),
                                      ("defect checksum", defect_curve(), DEFECT_EXPECTED)):
        print(f"{label} {checksum}")
        if checksum != expected:
            print(f"{label} {checksum} != expected {expected}", file=sys.stderr)
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
