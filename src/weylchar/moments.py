"""Moment distributions of one-parameter subgroups and HCIZ moment formulas.

The normalized character along exp(i t F), with F a +/-1 trace-zero diagonal,
is a Fourier series whose coefficients form an exact probability distribution
M(k) on the integers.  Brute-force moments come from Gelfand-Tsetlin
aggregation; closed forms come from partition sums of the unitary group
integral of Tr(U F U^{-1} B)^n.  The two routes must agree exactly.

The exact layer works on integers and builds one `Fraction` per result.  The
closed forms scale the centred signature L and rho by 2d, so that
2d (rho + L)_i = d (d-1-2i) + 2 (d lam_i - |lam|) is an integer, and take
every moment from the integer power sums 2 and 4 of that vector and of 2d rho
(whose sums have closed forms) over one common denominator.  The partition
sum scales each spectrum by the lcm D of its denominators, so its power sums
are integers, and weights each cycle type by the integer class-size times
character value n! chi^lam / z; the lam terms add over the lcm of the
s_lam(1_d), and the total is divided once by (n!)^2 D_A^n D_B^n.

The brute-force side works on integer counts too: the GT kernel counts the
patterns by k = <F, w> directly, the distribution keeps those counts over the
dimension, and a moment is one integer sum of k^p times the counts over it.
"""

from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from weylchar.combinatorics import EMPTY, Signature, partitions_of, signature_from_pair
from weylchar.exact import common_denominator
from weylchar.gtkernel import run_counts
from weylchar.symfunc import power_sum_weights, sym_group_dim, weyl_dim

if TYPE_CHECKING:
    import numpy as np

MC_CHUNK = 8192
# Samples per QR call: bounds the complex working arrays a Monte Carlo worker
# holds at once, whatever MC_CHUNK is.
MC_BATCH = 1024


@dataclass(frozen=True)
class HermitianSpectrum:
    """Diagonal Hermitian matrix, kept as its exact rational eigenvalue tuple."""

    eigenvalues: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "eigenvalues", tuple(Fraction(v) for v in self.eigenvalues)
        )
        if not self.eigenvalues:
            raise ValueError("spectrum must be nonempty")

    @property
    def d(self) -> int:
        return len(self.eigenvalues)

    def trace(self, p: int = 1) -> Fraction:
        return sum((v**p for v in self.eigenvalues), Fraction(0))


def center(b: HermitianSpectrum) -> HermitianSpectrum:
    """Traceless shift b - (Tr b / d) 1_d; idempotent."""
    mean = b.trace() / b.d
    return HermitianSpectrum(tuple(v - mean for v in b.eigenvalues))


@dataclass(frozen=True)
class TraceZeroSigned:
    """F = sum of +E_ii over the first r/2 slots minus the next r/2, zero elsewhere."""

    r: int
    d: int

    def __post_init__(self):
        if self.r % 2 != 0 or self.r < 2:
            raise ValueError("r must be even and at least 2")
        if self.r > self.d:
            raise ValueError(f"signed window [0, {self.r}) does not fit in d = {self.d}")

    def diagonal(self) -> tuple[int, ...]:
        half = self.r // 2
        return (1,) * half + (-1,) * half + (0,) * (self.d - self.r)

    def groups(self) -> tuple[int, ...]:
        """Coordinate groups: 0 for +1 slots, 1 for -1 slots, 2 for zeros."""
        return tuple({1: 0, -1: 1, 0: 2}[v] for v in self.diagonal())


@dataclass(frozen=True)
class WeightDistribution:
    """Finitely supported exact probability distribution on the integers.

    The mass at k is counts[k] / total, both reduced by their gcd so that
    equal masses compare equal.
    """

    counts: dict[int, int]
    total: int

    def __post_init__(self):
        counts, total = self.counts, self.total
        if not all(counts.values()):  # zero masses drop out
            counts = {k: c for k, c in counts.items() if c}
        if min(counts.values(), default=0) < 0:
            raise ValueError("negative mass")
        if total < 1 or sum(counts.values()) != total:
            raise ValueError("masses must sum to 1")
        g = math.gcd(total, *counts.values())
        # Copied either way, so the caller's dict is not shared.
        counts = {k: c // g for k, c in counts.items()} if g > 1 else dict(counts)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "total", total // g)

    @property
    def probs(self) -> dict[int, Fraction]:
        """The masses as `Fraction`s."""
        return {k: Fraction(c, self.total) for k, c in self.counts.items()}

    def moment(self, p: int) -> Fraction:
        """p-th moment sum k^p M(k); zero for odd p on symmetric distributions."""
        return Fraction(sum(k**p * c for k, c in self.counts.items()), self.total)

    def moment_ratio(self) -> Fraction | None:
        """<k^4>/<k^2>^2, the tightness diagnostic; None for the point mass at 0."""
        m2 = self.moment(2)
        if m2 == 0:
            return None
        return self.moment(4) / (m2 * m2)

    def convolve(self, other: "WeightDistribution") -> "WeightDistribution":
        """Distribution of the sum of independent weights, as in a product of characters."""
        out: dict[int, int] = {}
        for k1, c1 in self.counts.items():
            for k2, c2 in other.counts.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return WeightDistribution(out, self.total * other.total)


def weight_distribution(sig: Signature, f: TraceZeroSigned) -> WeightDistribution:
    """Exact distribution of the F-pairing of GT weights of the irrep sig."""
    if f.d != sig.d:
        raise ValueError(f"F lives on d = {f.d}, signature on d = {sig.d}")
    # F's diagonal as runs {coefficient: length}; `run_counts` refuses a run of length 0.
    half = f.r // 2
    runs = {c: n for c, n in ((1, half), (-1, half), (0, f.d - f.r)) if n}
    tally = run_counts(sig.entries, runs)
    # The Weyl dimension, not the tally's total: the sum-to-one check then
    # tests the kernel's pattern count against it.
    return WeightDistribution(tally, weyl_dim(sig))


def hciz_power_sum(a: HermitianSpectrum, b: HermitianSpectrum, n: int) -> Fraction:
    """Partition-sum value of the Haar average of Tr(U A U^{-1} B)^n.

    Sum over partitions of n with at most d rows of
    dim(S_n irrep) * s_lam(A) * s_lam(B) / s_lam(1_d).
    """
    if a.d != b.d:
        raise ValueError("spectra must have equal size")
    require_nonnegative_int("n", n)
    d = a.d
    scale_a, xa = common_denominator(a.eigenvalues)
    scale_b, xb = common_denominator(b.eigenvalues)
    pa = [sum(x**j for x in xa) for j in range(n + 1)]
    pb = [sum(x**j for x in xb) for j in range(n + 1)]
    partitions = partitions_of(n)
    pa_ct = [math.prod(pa[j] for j in ct.parts) for ct in partitions]
    pb_ct = [math.prod(pb[j] for j in ct.parts) for ct in partitions]
    # n! s_lam(D A) = sum over cycle types ct of (n! chi^lam(ct) / z_ct) p_ct(D A),
    # an integer dot product with `power_sum_weights(lam)`, which lists the
    # cycle types in the order of `partitions_of(n)`; the lam terms add over
    # the lcm of the s_lam(1_d).
    fact = math.factorial(n)
    terms = []
    for lam in partitions:
        if lam.length > d:
            continue
        weights = power_sum_weights(lam)
        na = sum(map(operator.mul, weights, pa_ct))
        nb = sum(map(operator.mul, weights, pb_ct))
        terms.append((sym_group_dim(lam) * na * nb, weyl_dim(signature_from_pair(lam, EMPTY, d))))
    common = math.lcm(*(dim for _, dim in terms))
    numerator = sum(num * (common // dim) for num, dim in terms)
    return Fraction(numerator, common * fact * fact * scale_a**n * scale_b**n)


def _j4(sum2: int, sum4: int, scale: int, d: int, r: int) -> tuple[int, int]:
    """The n = 4 closed form of a centred spectrum X / scale, X integer.

    Returns (numerator, denominator) of
    [3r((d^4-6d^2+18)r - 2d(2d^2-3)) sum2^2 - 6dr((2d^2-3)r - d(d^2+1)) sum4]
      / (d^2 (d^2-1)(d^2-4)(d^2-9) scale^4),
    with sum2 = sum X_i^2 and sum4 = sum X_i^4.  The denominator depends on
    (scale, d) only, so values at one scale add as numerators.
    """
    d2 = d * d
    lead = 3 * r * ((d2 * d2 - 6 * d2 + 18) * r - 2 * d * (2 * d2 - 3))
    sub = 6 * d * r * ((2 * d2 - 3) * r - d * (d2 + 1))
    return (
        lead * sum2 * sum2 - sub * sum4,
        d2 * (d2 - 1) * (d2 - 4) * (d2 - 9) * scale**4,
    )


def _closed_moments(sig: Signature, r: int) -> tuple[int, int, int, int]:
    """Numerator and denominator of the second and of the fourth moment closed form.

    Let rho be the staircase spectrum ((d-1)/2, (d-3)/2, ..., -(d-1)/2), L the
    centred signature, and J_n(B) the partition sum `hciz_power_sum` of F's
    diagonal against a centred spectrum B: r Tr B^2 / (d^2-1) at n = 2, and
    `_j4` at n = 4.  X = 2d (rho + L) has the integer entries
    X_i = d (d - 1 - 2i) + 2 (d lam_i - |lam|), and 2d rho has the power sums
    d^3 (d^2-1)/3 and d^5 (d^2-1)(3d^2-7)/15.  Then
    m2 = r (Tr (rho + L)^2 - Tr rho^2) / (d^2-1) and
    m4 = J_4(rho + L) - 6 m2 J_2(rho) - J_4(rho), with J_2(rho) = rd/12.
    The fourth-moment denominator is 0 below d = 4, where m4 is undefined.
    """
    d = sig.d
    size = sum(sig.entries)
    sum2 = sum4 = 0
    for i, e in enumerate(sig.entries):
        x = d * (d - 1 - 2 * i) + 2 * (d * e - size)
        x2 = x * x
        sum2 += x2
        sum4 += x2 * x2
    d2 = d * d
    rho2 = d2 * d * (d2 - 1) // 3
    rho4 = d2 * d2 * d * (d2 - 1) * (3 * d2 - 7) // 15
    top, den = _j4(sum2, sum4, 2 * d, d, r)
    base, _ = _j4(rho2, rho4, 2 * d, d, r)
    # 6 m2 J_2(rho) = r^2 (sum2 - rho2) / (8 d (d^2-1)), and den = 16 d^6 (d^2-1)(d^2-4)(d^2-9).
    cross = 2 * r * r * d2 * d2 * d * (d2 - 4) * (d2 - 9) * (sum2 - rho2)
    return r * (sum2 - rho2), 4 * d2 * (d2 - 1), top - base - cross, den


def moment2_closed(sig: Signature, f: TraceZeroSigned) -> Fraction:
    """Second moment r Tr(2 L rho + L^2)/(d^2-1) with L the centered signature."""
    if sig.d < 2:
        raise ValueError("d >= 2 required")
    m2n, m2d, _, _ = _closed_moments(sig, f.r)
    return Fraction(m2n, m2d)


def moment4_closed(sig: Signature, f: TraceZeroSigned) -> Fraction:
    """Fourth moment via the three-term partition-sum difference."""
    if sig.d < 4:
        raise ValueError("d >= 4 required")
    _, _, m4n, m4d = _closed_moments(sig, f.r)
    return Fraction(m4n, m4d)


@dataclass(frozen=True)
class EstimateReport:
    m2: Fraction
    m4: Fraction
    c1: Fraction
    c2: Fraction
    bound: Fraction
    holds: bool


def estimate_check(sig: Signature, f: TraceZeroSigned) -> EstimateReport:
    """Fourth-vs-second moment bound with the explicit d-dependent coefficients.

    Requires r >= 2d/3 and d >= 4; checks
    m4 <= 3 (d^2-1)(d^4-6d^2+18) / (d^2 (d^2-4)(d^2-9)) * m2^2
        + 2 (d^4-2d^2-3) / ((d^2-4)(d^2-9)) * m2.
    """
    d = sig.d
    if d < 4:
        raise ValueError("d >= 4 required")
    if 3 * f.r < 2 * d:
        raise ValueError(f"r = {f.r} violates r >= 2d/3 for d = {d}")
    d2 = d * d
    c1n = 3 * (d2 - 1) * (d2 * d2 - 6 * d2 + 18)
    c2n = 2 * (d2 * d2 - 2 * d2 - 3)
    p, q, m4n, m4d = _closed_moments(sig, f.r)
    # c1 m2^2 + c2 m2 over the common denominator d^2 (d^2-4)(d^2-9) q^2.
    bound = Fraction(c1n * p * p + c2n * d2 * p * q, d2 * (d2 - 4) * (d2 - 9) * q * q)
    m4 = Fraction(m4n, m4d)
    return EstimateReport(
        Fraction(p, q),
        m4,
        Fraction(c1n, d2 * (d2 - 4) * (d2 - 9)),
        Fraction(c2n, (d2 - 4) * (d2 - 9)),
        bound,
        m4 <= bound,
    )


def _normals(d: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(2, count, d, d) standard normals: every real part, then every imaginary part."""
    import numpy as np

    out = np.empty((2, count, d, d))
    rng.standard_normal(out=out[0])
    rng.standard_normal(out=out[1])
    return out


def _haar_from_normals(normals: np.ndarray) -> np.ndarray:
    """Haar unitaries from (2, count, d, d) normals, by QR with R-diagonal phase fix.

    The QR runs matrix by matrix, so each unitary depends only on its own
    normals and the callers may pass any slice along the count axis.
    """
    import numpy as np

    z = np.empty(normals.shape[1:], dtype=complex)
    z.real = normals[0]
    z.imag = normals[1]
    z /= math.sqrt(2)
    q, r = np.linalg.qr(z)
    del z
    diag = np.einsum("sii->si", r)
    phases = diag / np.abs(diag)
    del r, diag
    q *= phases[:, None, :]
    return q


def require_nonnegative_int(name: str, value) -> None:
    """Raise ValueError unless value is a nonnegative integer."""
    if not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


def _mc_workers(nchunks: int) -> int:
    """Threads for nchunks Monte Carlo chunks: one per CPU this process may use."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(nchunks, cpus)


@dataclass(frozen=True)
class MonteCarloReport:
    estimate: complex
    stderr: float
    samples: int
    seed: int
    mode: str


def hciz_monte_carlo(
    a: HermitianSpectrum,
    b: HermitianSpectrum,
    n: int,
    samples: int,
    seed: int,
    mode: str = "power",
) -> MonteCarloReport:
    """Haar-sample mean of Tr(U A U^{-1} B)^n, or of exp(i Tr(...)) in exp mode.

    Sampling is chunked: chunk i holds up to MC_CHUNK samples drawn from the i-th
    child of the master seed, in the same stream order whatever runs it.  The
    chunks run on a thread pool of one worker per CPU this process may use
    (numpy releases the GIL in the draws, the QR and the ufuncs), and each
    writes only its own slice of the values, so the estimate and stderr depend
    only on (seed, samples), never on the worker count: they are bit for bit
    those of a serial loop over the chunks.

    Peak memory per worker is the chunk's normals, 16 d^2 MC_CHUNK bytes,
    plus one sub-batch of MC_BATCH samples, at most 80 d^2 MC_BATCH bytes
    (its complex input, the QR's copy of it, Q, R and |U|^2); the values
    array adds 8 bytes a sample (16 in exp mode).  At d = 8 that is about
    13.6 MB a worker.
    """
    if a.d != b.d:
        raise ValueError("spectra must share d")
    if mode not in ("power", "exp"):
        raise ValueError(f"unknown mode {mode!r}")
    if samples < 1000:
        raise ValueError("at least 1000 samples required for a usable stderr")
    require_nonnegative_int("n", n)
    require_nonnegative_int("seed", seed)
    import numpy as np

    d = a.d
    av = np.array([float(v) for v in a.eigenvalues])
    bv = np.array([float(v) for v in b.eigenvalues])
    nchunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(nchunks)
    values = np.empty(samples, dtype=complex if mode == "exp" else float)

    def run_chunk(i: int) -> None:
        chunk = values[i * MC_CHUNK : (i + 1) * MC_CHUNK]
        normals = _normals(d, len(chunk), np.random.default_rng(children[i]))
        for start in range(0, len(chunk), MC_BATCH):
            u = _haar_from_normals(normals[:, start : start + MC_BATCH])
            traces = np.einsum("sij,j,i->s", np.abs(u) ** 2, av, bv)
            del u
            chunk[start : start + MC_BATCH] = (
                np.exp(1j * traces) if mode == "exp" else traces**n
            )

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(_mc_workers(nchunks)) as pool:
        # Reading every result re-raises a worker's exception here.
        for _ in pool.map(run_chunk, range(nchunks)):
            pass
    est = values.mean()
    if mode == "exp":
        err = math.sqrt((values.real.var() + values.imag.var()) / samples)
        return MonteCarloReport(complex(est), err, samples, seed, mode)
    err = math.sqrt(values.real.var() / samples)
    return MonteCarloReport(complex(est), err, samples, seed, mode)


def hciz_exponential_exact(a: HermitianSpectrum, b: HermitianSpectrum) -> complex:
    """Determinant formula for the Haar average of exp(i Tr(U A U^{-1} B)).

    prod_{k<d} k! * det(exp(i a_i b_j)) / (i^{d(d-1)/2} Delta(a) Delta(b));
    needs both spectra simple.
    """
    if a.d != b.d:
        raise ValueError("spectra must share d")
    d = a.d
    av = [float(v) for v in a.eigenvalues]
    bv = [float(v) for v in b.eigenvalues]
    delta_a = math.prod(av[i] - av[j] for i in range(d) for j in range(i + 1, d))
    delta_b = math.prod(bv[i] - bv[j] for i in range(d) for j in range(i + 1, d))
    if delta_a == 0 or delta_b == 0:
        raise ValueError("determinant formula needs simple spectra")
    import numpy as np

    m = np.array([[np.exp(1j * ai * bj) for bj in bv] for ai in av])
    pref = math.prod(math.factorial(k) for k in range(1, d))
    return pref * np.linalg.det(m) / (1j ** (d * (d - 1) // 2) * delta_a * delta_b)
