#!/usr/bin/env python3
"""Checksum-gated timing of the Poisson kernels.

One curve per check against the truncation T in {20, 40, 60, 80, 120}:
`poisson_series_check` on nine seeded cases with 1-3 rates in a and 0-2 in
b, `binomial_reexpansion_check` on six cases with 1-3 rates, and
`kstep_semigroup_check` at m = 1 and m = 2 (k = 3).  Rates are drawn from
[0.2, 2] and levels as perfbench's float_checks draws them.  Each point
prints the best of three runs of its cases, per call.  The checksum is the
leading hex of a sha256 over `float.hex` of every float field of every report
(both parts of a complex one); the pinned value was computed with the code
that made every mass afresh for each use, before the checks shared one table
of masses per rate, so it holds only if the tables keep every bit.  Exits 1
unless the checksum matches.
Usage: python3 benchmarks/bench_poisson.py
"""

import cmath
import dataclasses
import hashlib
import math
import random
import sys
from pathlib import Path

# Import the package from this checkout's src/, whether or not it is installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from timing import best_of
from weylchar.poisson import (
    PoissonKernelParams,
    binomial_reexpansion_check,
    kstep_semigroup_check,
    poisson_series_check,
)

TRUNCATIONS = (20, 40, 60, 80, 120)
KSTEP_K = 3
EXPECTED = "d96493e3aad6a622"


def _rates(rng, count):
    return tuple(round(rng.uniform(0.2, 2.0), 3) for _ in range(count))


def _traces(rng, count):
    return [cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for _ in range(count)]


def cases(truncation):
    """(name, calls) for each curve at one truncation; the draws do not depend on it."""
    rng = random.Random(2800)
    series = []
    for i in range(9):
        a, b = _rates(rng, 1 + i % 3), _rates(rng, i // 3 % 3)
        n = rng.randint(1, 8)
        tau, taup = _traces(rng, len(a)), _traces(rng, len(b))
        series.append(lambda a=a, b=b, n=n, tau=tau, taup=taup:
                      poisson_series_check(a, b, n, tau, taup, truncation))
    reexpansion = []
    for i in range(6):
        a = _rates(rng, 1 + i % 3)
        n = rng.randint(1, 6)
        m = n + rng.randint(1, 6)
        tau = _traces(rng, len(a))
        reexpansion.append(lambda a=a, n=n, m=m, tau=tau:
                           binomial_reexpansion_check(a, n, m, tau, truncation))
    curves = [("poisson_series_check", series), ("binomial_reexpansion_check", reexpansion)]
    for m in (1, 2):
        params = PoissonKernelParams(_rates(rng, m))
        curves.append((f"kstep_semigroup_check m={m}",
                       [lambda p=params: kstep_semigroup_check(p, KSTEP_K, truncation)]))
    return curves


def float_hexes(report):
    for field in dataclasses.fields(report):
        value = getattr(report, field.name)
        if isinstance(value, complex):
            yield value.real.hex()
            yield value.imag.hex()
        elif isinstance(value, float):
            yield value.hex()


def main():
    digest = hashlib.sha256()
    for truncation in TRUNCATIONS:
        for name, calls in cases(truncation):
            best, reports = best_of(lambda: [call() for call in calls])
            for report in reports:
                for text in float_hexes(report):
                    digest.update(text.encode() + b"\n")
            print(f"{name:<28} T={truncation:<3}: {best / len(calls) * 1000:8.3f} ms/call "
                  f"({len(calls)} calls)")
    checksum = digest.hexdigest()[:16]
    print(f"poisson: checksum {checksum}")
    if checksum != EXPECTED:
        print(f"poisson: checksum {checksum} != expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
