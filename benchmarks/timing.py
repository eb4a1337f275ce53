"""Best-of-N wall-clock timing shared by the benchmark scripts.

The scripts import it as `from timing import best_of`: Python puts a script's
own directory, benchmarks/, first on sys.path.
"""

import time


def best_of(call, repeats=3, reset=None):
    """(best seconds, result of the last run) over `repeats` runs of call().

    `reset`, when given, runs before each repetition, outside the timed region
    (the GT benchmark clears the kernel caches there to time cold runs).
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        if reset is not None:
            reset()
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result
