#!/usr/bin/env python3
"""One-shot record of the algorithmic cliffs, as curves against each size knob.

Usage, from the repository root:  python3 perfbench/cliffs.py > cliffs.json

Not part of the timed workloads: it takes minutes.  Each op runs in its own
child process, one at a time, under a per-op timeout; an op that runs out of
time is recorded as "timeout" with the limit as its time.  Prints one JSON
object: the environment record and, per op, its size knob next to its time.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import run

TIMEOUT_S = 150

WEYL_DIM_CHILD = """
import sys, time
from weylchar.combinatorics import Partition, signature_from_pair
from weylchar.symfunc import weyl_dim
sig = signature_from_pair(Partition((2,)), Partition((1,)), int(sys.argv[1]))
t0 = time.perf_counter()
weyl_dim(sig)
print(time.perf_counter() - t0)
"""


def timed(args: list[str], in_process: bool = False) -> dict:
    start = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable] + args, cwd=run.ROOT,
                              capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "seconds": TIMEOUT_S}
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return {"status": f"exit {proc.returncode}", "seconds": wall}
    return {"status": "ok", "seconds": float(proc.stdout.split()[-1]) if in_process else wall}


def main() -> int:
    run.prepare_environment()
    cli = ["-m", "weylchar.cli"]
    ops = []
    for d in (64, 128, 256, 512):
        ops.append(({"op": "weyl_dim {2;1} in-process", "d": d},
                    ["-c", WEYL_DIM_CHILD, str(d)], True))
    for level in (6, 7, 8, 9):
        ops.append(({"op": "weylchar ergodic --diagram car --lam 2 --mu 1 --u 0.25,0",
                     "level": level, "d": 2**level},
                    cli + ["ergodic", "--diagram", "car", "--lam", "2", "--mu", "1",
                           "--u", "0.25,0", "--nmax", str(level)], False))
    for k in (1, 2, 3, 4):
        ops.append(({"op": "weylchar poisson --kernel-a 1,1", "kstep_k": k, "m": 2,
                     "truncation": 60},
                    cli + ["poisson", "--kstep-k", str(k), "--kernel-a", "1,1"], False))
    for dmax in (5, 6, 7):
        ops.append(({"op": "weylchar moments --sweep", "dmax": dmax},
                    cli + ["moments", "--sweep", "--dmax", str(dmax)], False))
    records = []
    for knob, args, in_process in ops:
        records.append({**knob, **timed(args, in_process)})
        print(json.dumps(records[-1]), file=sys.stderr)
    print(json.dumps({"env": run.environment(None), "timeout_s": TIMEOUT_S, "ops": records},
                     indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
