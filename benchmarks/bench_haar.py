#!/usr/bin/env python3
"""Checksum-gated timing of the Haar sampler.

One curve: `hciz_monte_carlo` (power mode, n = 2) against d in {2, 3, 4, 6, 8}
and samples in {10^4, 10^5, 4 * 10^5}, on seeded centred spectra with
integer entries in [-2, 2].  Each point prints the best of three runs, and
the header prints how many worker threads the chunks run on.  The checksum is
the leading hex of a sha256 over `float.hex` of every estimate and stderr;
the pinned value was computed with the serial chunk loop that the thread pool
replaced, so it holds bit for bit whatever the worker count.  Exits 1 unless
the checksum matches.
Usage: python3 benchmarks/bench_haar.py
"""

import hashlib
import random
import sys
from fractions import Fraction
from pathlib import Path

# Import the package from this checkout's src/, whether or not it is installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from timing import best_of
from weylchar import moments
from weylchar.moments import HermitianSpectrum, center, hciz_monte_carlo

DS = (2, 3, 4, 6, 8)
SAMPLES = (10_000, 100_000, 400_000)
N = 2
EXPECTED = "97a849425400696e"


def spectra(d):
    rng = random.Random(5000 + d)

    def one():
        while True:
            raw = [Fraction(rng.randint(-2, 2)) for _ in range(d)]
            if any(raw):
                return center(HermitianSpectrum(tuple(raw)))

    return one(), one()


def main():
    nchunks = (max(SAMPLES) + moments.MC_CHUNK - 1) // moments.MC_CHUNK
    print(f"hciz_monte_carlo: {moments._mc_workers(nchunks)} worker threads "
          f"at {max(SAMPLES)} samples")
    digest = hashlib.sha256()
    for d in DS:
        a, b = spectra(d)
        for samples in SAMPLES:
            best, rep = best_of(lambda: hciz_monte_carlo(a, b, N, samples, seed=d))
            for value in (rep.estimate.real, rep.estimate.imag, rep.stderr):
                digest.update(value.hex().encode() + b"\n")
            print(f"hciz_monte_carlo d={d} samples={samples:<7}: {best * 1000:9.2f} ms  "
                  f"({samples / best / 1e3:.0f} k samples/s)")
    checksum = digest.hexdigest()[:16]
    print(f"hciz_monte_carlo: checksum {checksum}")
    if checksum != EXPECTED:
        print(f"hciz_monte_carlo: checksum {checksum} != expected {EXPECTED}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
