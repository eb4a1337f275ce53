"""One set-up, timed from a fresh interpreter: imports and input generation.

Usage: python3 perfbench/probe.py <workload> <seed>.  Prints one JSON line:
the CLOCK_MONOTONIC time at which the first op could start, and the split
into numpy import, weylchar import and input generation.
"""

import json
import sys
import time

t0 = time.monotonic()

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

workload, seed = sys.argv[1], int(sys.argv[2])

t1 = time.monotonic()
import numpy  # noqa: E402,F401

t2 = time.monotonic()
if workload == "cli_session":
    import weylchar.cli  # noqa: F401
else:
    import weylchar.afalgebra  # noqa: F401
    import weylchar.gtkernel  # noqa: F401
    import weylchar.moments  # noqa: F401
    import weylchar.poisson  # noqa: F401
    import weylchar.ucharacters  # noqa: F401
t3 = time.monotonic()

import workloads  # noqa: E402

workloads.build(workload, seed)
t4 = time.monotonic()
print(json.dumps({"ready": t4, "numpy_s": t2 - t1, "weylchar_s": t3 - t2, "inputs_s": t4 - t3}))
