#!/usr/bin/env python3
"""Checksum-gated timing of the exact Bratteli layer: traces, validation, K0.

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
the integer layer replaced.  Exits 1 unless the checksum matches.
Usage: python3 benchmarks/bench_bratteli.py
"""

import hashlib
import sys
from pathlib import Path

# Import the package from this checkout's src/, whether or not it is installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from timing import best_of
from weylchar.afalgebra import (
    K0Hom,
    k0_extension_obstruction,
    preset_diagram,
    trace_weights,
    validate_diagram,
)

K0_STEPS = 24
# (preset, depths, deepest K0 vector or None for no continuation)
CURVES = (
    ("gicar", (10, 20, 30, 40), None),
    ("effros-shen", (30, 60, 120, 240), (5, -3)),
    ("uhf:2,3", (8, 16, 32, 64), (6**5,)),
)
EXPECTED = "f31f5332d3b35452"


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
    checksum = digest.hexdigest()[:16]
    print(f"checksum {checksum}")
    if checksum != EXPECTED:
        print(f"checksum {checksum} != expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
