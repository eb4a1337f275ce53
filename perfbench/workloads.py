"""The four benchmark workloads: seeded op lists and the checks on their outputs.

An op is one call into a public `weylchar` entry point (or, for `cli_session`,
one `python -m weylchar.cli` child).  Ops look functions up on their module at
call time, so the traced run sees every call through its wrappers.  Each op
carries a check that tests its output against an identity from the paper or an
independent reference; exact outputs also feed a digest pinned for seed 0.

Known wrong answers of the program are ops marked `known_edge`: they are run,
timed and checked like the rest, but their misses are reported by name on
their own and are not counted as failed ops.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import weylchar.afalgebra as afalgebra
import weylchar.gtkernel as gtkernel
import weylchar.moments as moments
import weylchar.poisson as poisson
import weylchar.ucharacters as ucharacters
from weylchar.combinatorics import Partition, Signature, signatures_with_entries

# Checksums printed by benchmarks/bench_gt.py for its two workloads.
BENCH_GT_SWEEP_SUM = 982377
BENCH_GT_TOWER_SUM = 496078591740

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = Path(__file__).resolve().parent / "launch_cli.py"

# Digests of the exact outputs at seed 0, and of each README command's stdout.
PINNED_SEED = 0
PINNED = json.loads((Path(__file__).resolve().parent / "pinned.json").read_text())

# The CLI examples of the README, verbatim.
README_COMMANDS = (
    "weylchar char --sig 1,0,0,-1 --u 0.25,0,0,0",
    "weylchar branch --op restrict --sig 1,0,-1 --d1 1 --d2 2",
    "weylchar branch --op tensor --sig1 1,0,-1 --sig2 1,0,-1",
    "weylchar moments --sig 1,0,0,0 --r 4",
    "weylchar moments --sweep --dmax 5",
    "weylchar hciz --d 3 --n 2 --samples 100000 --seed 7",
    "weylchar hciz --d 2 --mode exp --a 1,-1 --b 1,-1 --seed 7",
    "weylchar ergodic --diagram car --lam 1 --mu 1 --u 0.25,0 --nmax 6",
    "weylchar schur-weyl --n 3 --p 1 --q 1",
    "weylchar poisson --stirling 4",
    "weylchar poisson --tv-a 1 --tv-k 100",
    "weylchar poisson --kstep-k 2 --kernel-a 1",
    "weylchar validate-diagram --diagram effros-shen",
)

CHAR_EDGE_SIG = (4, 3, 2, 1, 0, -1, -2)
CHAR_EDGE_SPACINGS = (1e-3, 1e-5, 1e-6, 1e-7, 2e-9)
CHAR_RTOL = 1e-9
TAIL_EDGES = ((5, 40), (1, 30))
MC_SIGMAS = 4


@dataclass
class Op:
    """One timed call and the check on what it returned.

    `check` returns None when the output is right, else the reason it is not.
    `exact` renders the exact part of the output for the pinned digest.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    exact: Callable[[object], str] | None = None
    known_edge: bool = False


@dataclass
class Raised:
    """Stands in for the output of an op that raised."""

    error: str


# ---------------------------------------------------------------------------
# independent references


def weyl_dim_ref(entries) -> int:
    """Weyl dimension by the product formula, kept apart from the package's."""
    d = len(entries)
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= entries[i] - entries[j] + j - i
            den *= j - i
    return num // den


def _mp():
    import mpmath

    return mpmath


def _mpf(x):
    mp = _mp()
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / x.denominator
    return mp.mpf(x)


def char_ref(entries, angles, dps: int) -> complex:
    """Weyl character at exp(2 pi i angles) by the alternant quotient in mpmath."""
    mp = _mp()
    with mp.workdps(dps):
        z = [mp.expjpi(2 * mp.mpf(a)) for a in angles]
        d = len(z)
        num = mp.det(mp.matrix([[zi ** (entries[j] + d - 1 - j) for j in range(d)] for zi in z]))
        den = mp.mpf(1)
        for i in range(d):
            for j in range(i + 1, d):
                den *= z[i] - z[j]
        return complex(num / den)


def poisson_tail_ref(t, k: int) -> float:
    """P(X > k) for X ~ Poisson(t): the regularized lower incomplete gamma."""
    mp = _mp()
    with mp.workdps(30):
        return float(mp.gammainc(k + 1, 0, _mpf(t), regularized=True))


def poisson_mass_ref(t, k: int) -> float:
    mp = _mp()
    with mp.workdps(30):
        t = _mpf(t)
        return float(mp.exp(-t) * t**k / mp.factorial(k))


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ---------------------------------------------------------------------------
# exact_sweep


def _identity(sig: Signature, r: int):
    f = moments.TraceZeroSigned(r, sig.d)
    dist = moments.weight_distribution(sig, f)
    m2c = moments.moment2_closed(sig, f)
    m4c = moments.moment4_closed(sig, f)
    est = moments.estimate_check(sig, f).holds if 3 * r >= 2 * sig.d else None
    return dist.moment(2), dist.moment(4), m2c, m4c, est


def _check_identity(out) -> str | None:
    m2, m4, m2c, m4c, est = out
    if m2 != m2c:
        return f"second moment {m2} != closed {m2c}"
    if m4 != m4c:
        return f"fourth moment {m4} != closed {m4c}"
    if est is False:
        return "fourth-vs-second moment estimate fails"
    return None


def _group_counts_op(name, entries, groups, ngroups) -> Op:
    def check(out):
        total, dim = sum(out.values()), weyl_dim_ref(entries)
        return None if total == dim else f"pattern count {total} != Weyl dimension {dim}"

    return Op(
        name,
        lambda: gtkernel.group_counts(entries, groups, ngroups),
        check,
        lambda out: repr(sorted(out.items())),
    )


def _restrict_op(sig: Signature, d1: int) -> Op:
    def check(out):
        dim = weyl_dim_ref(sig.entries)
        total = sum(m * weyl_dim_ref(s1.entries) * weyl_dim_ref(s2.entries)
                    for s1, s2, m in out.components)
        return None if total == dim else f"restriction dims add to {total}, not {dim}"

    return Op(
        f"restrict {sig.entries} d1={d1}",
        lambda: ucharacters.restrict_to_blocks(sig, d1, sig.d - d1, dim_budget=10**9),
        check,
        lambda out: repr([(s1.entries, s2.entries, m) for s1, s2, m in out.components]),
    )


def _tensor_op(sig1: Signature, sig2: Signature) -> Op:
    def check(out):
        dim = weyl_dim_ref(sig1.entries) * weyl_dim_ref(sig2.entries)
        total = sum(m * weyl_dim_ref(s.entries) for s, m in out)
        return None if total == dim else f"tensor dims add to {total}, not {dim}"

    return Op(
        f"tensor {sig1.entries} x {sig2.entries}",
        lambda: ucharacters.tensor_decompose(sig1, sig2, dim_budget=10**12),
        check,
        lambda out: repr([(s.entries, m) for s, m in out]),
    )


def _random_signature(rng: random.Random, d: int, lo: int, hi: int) -> Signature:
    return Signature(tuple(sorted((rng.randint(lo, hi) for _ in range(d)), reverse=True)))


def _shifted_size(sig: Signature) -> int:
    """Size of the partition sig + a, with a the smallest shift making it one."""
    a = max(0, -sig.entries[-1])
    return sum(e + a for e in sig.entries)


def _hciz_ops(rng: random.Random, d: int, nmax: int) -> list[Op]:
    """hciz_power_sum against symmetry in (A, B) and the scalar-B identity."""

    def spectrum():
        return moments.HermitianSpectrum(tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                                               for _ in range(d)))

    a, b = spectrum(), spectrum()
    c = Fraction(rng.randint(1, 3), 2)
    scalar = moments.HermitianSpectrum((c,) * d)
    ops = []
    for n in range(2, nmax + 1):
        expect = (c * a.trace()) ** n
        ops.append(Op(f"hciz_power_sum d={d} n={n} (A,B) and (B,A)",
                      lambda n=n: (moments.hciz_power_sum(a, b, n), moments.hciz_power_sum(b, a, n)),
                      lambda out: None if out[0] == out[1] else "hciz_power_sum not symmetric in A, B",
                      str))
        ops.append(Op(f"hciz_power_sum d={d} n={n} scalar B",
                      lambda n=n: moments.hciz_power_sum(a, scalar, n),
                      lambda out, expect=expect: None if out == expect
                      else f"scalar-B value {out} != (c Tr A)^n = {expect}", str))
    return ops


def bench_gt_sweep() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (entries, groups) pairs of bench_gt.py's moment-sweep workload."""
    return [(sig.entries, moments.TraceZeroSigned(r, d).groups())
            for d in (4, 5, 6) for sig in signatures_with_entries(d, -2, 2)
            for r in range(2, d + 1, 2)]


def bench_gt_tower() -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (entries, groups) pairs of bench_gt.py's deep-tower workload."""
    return [((2, 1) + (0,) * (d - 4) + (-1, -2), tuple(0 if i < d // 2 else 1 for i in range(d)))
            for d in (16, 32, 64, 128)]


def build_exact_sweep(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        Op(f"identity d={d} sig={sig.entries} r={r}",
           lambda sig=sig, r=r: _identity(sig, r), _check_identity,
           lambda out: repr(out[:4]))
        for d in range(4, 8) for sig in signatures_with_entries(d, -2, 2)
        for r in range(2, d + 1, 2)
    ]
    ops.append(_restrict_op(Signature((4, 2, 1, 0, -1, -2, -4)), 3))
    # Restriction and LR costs grow steeply with the size of the shifted
    # partition; capping it keeps a pass's cost nearly the same for every seed.
    for d in (6, 6, 6, 7, 7, 7, 8, 8, 8):
        while True:
            sig = _random_signature(rng, d, -4, 4)
            if 10**6 <= weyl_dim_ref(sig.entries) <= 10**8 and _shifted_size(sig) <= 20:
                break
        ops.append(_restrict_op(sig, rng.randint(1, d - 1)))
    for _ in range(8):
        while True:
            sig1, sig2 = _random_signature(rng, 6, -3, 3), _random_signature(rng, 6, -3, 3)
            if (10**6 <= weyl_dim_ref(sig1.entries) * weyl_dim_ref(sig2.entries) <= 10**10
                    and _shifted_size(sig1) + _shifted_size(sig2) <= 22):
                break
        ops.append(_tensor_op(sig1, sig2))
    ops += _hciz_ops(rng, 6, 12)
    ops += [_group_counts_op(f"bench_gt sweep {entries} {groups}", entries, groups, 3)
            for entries, groups in bench_gt_sweep()]
    return ops


# ---------------------------------------------------------------------------
# deep_tower


def _limit_ref(angles, p: int, q: int) -> complex:
    tau = sum(cmath.exp(2j * cmath.pi * float(a)) for a in angles) / len(angles)
    return tau**p * tau.conjugate() ** q


def _ergodic_op(name: str, diagram_name: str, depth: int, lam, mu, angles) -> Op:
    lam, mu = Partition(lam), Partition(mu)
    p, q = lam.size, mu.size
    expect = _limit_ref(angles, p, q)

    def call():
        diagram = afalgebra.preset_diagram(diagram_name, depth=depth)
        u = afalgebra.BlockUnitary(1, (ucharacters.DiagonalUnitary(angles),))
        return afalgebra.ergodic_sequence(diagram, lam, mu, u, depth)

    def check(out):
        if abs(complex(out.limit) - expect) > 1e-12:
            return f"limit {complex(out.limit)} != tau^p conj(tau)^q = {expect}"
        if any(abs(complex(v)) > 1 + 1e-9 for v in out.values):
            return "normalized character outside the unit disk"
        if out.errors[-1] > 2 * (p + q) ** 2 / out.dims[-1]:
            return f"error {out.errors[-1]:.3g} at d={out.dims[-1]} above 2(p+q)^2/d"
        return None

    def exact(out):
        return repr([(v.re, v.im) for v in out.values]) if all(
            hasattr(v, "re") for v in out.values) else ""

    return Op(name, call, check, exact)


@functools.cache
def _schur_weyl_ref(n: int, p: int, q: int) -> Fraction:
    """The isotypic defect sum, from hook-content and Weyl dimensions."""

    def partitions(k, largest=None):
        largest = k if largest is None else largest
        if k == 0:
            yield ()
            return
        for first in range(min(k, largest), 0, -1):
            for rest in partitions(k - first, first):
                yield (first,) + rest

    def conj(lam):
        return tuple(sum(1 for x in lam if x > j) for j in range(lam[0] if lam else 0))

    def hook_content(lam, d):
        c = conj(lam)
        num = den = 1
        for i, row in enumerate(lam):
            for j in range(row):
                num *= d + j - i
                den *= row - j + c[j] - i - 1
        return num // den, math.factorial(sum(lam)) // den

    d = 2**n
    total = 0
    for lam in partitions(p):
        for mu in partitions(q):
            s_lam, f_lam = hook_content(lam, d)
            s_mu, f_mu = hook_content(mu, d)
            entries = lam + (0,) * (d - len(lam) - len(mu)) + tuple(-x for x in reversed(mu))
            total += (s_lam * s_mu - weyl_dim_ref(entries)) * f_lam * f_mu
    return Fraction(total, 2 ** (n * (p + q)))


def _diagram_op(label: str, name: str, depth: int | None, k0_vector=None) -> Op:
    """Trace weights, validation and (given a vector) the K0 obstruction of one diagram."""
    if k0_vector is None:
        expect_k0 = None
    elif name == "car":
        # Halving obstructs once the 2-adic valuation of the vector is used up.
        expect_k0 = (k0_vector[0] & -k0_vector[0]).bit_length()
    else:
        expect_k0 = None  # unimodular effros-shen steps never obstruct

    def call():
        dg = afalgebra.preset_diagram(name, depth=depth)
        weights = afalgebra.trace_weights(dg)
        report = afalgebra.validate_diagram(dg)
        k0 = None
        if k0_vector is not None:
            k0 = afalgebra.k0_extension_obstruction(afalgebra.K0Hom.from_deepest(dg, k0_vector), 24)
        return weights, report, k0

    def check(out):
        weights, report, k0 = out
        dg = weights.diagram
        for n, m in enumerate(dg.mults):
            pulled = tuple(sum(m[i][j] * weights.weights[n + 1][i] for i in range(len(m)))
                           for j in range(len(m[0])))
            if pulled != weights.weights[n]:
                return f"weights not compatible between levels {n} and {n + 1}"
        for n, (w, dims) in enumerate(zip(weights.weights, dg.levels)):
            if sum(x * dd for x, dd in zip(w, dims)) != 1:
                return f"weights not normalized at level {n}"
        if not report.valid:
            return f"diagram invalid: {report.errors}"
        if k0 != expect_k0:
            return f"K0 obstruction {k0}, expected {expect_k0}"
        return None

    return Op(f"diagram {label}", call, check,
              lambda out: repr((out[0].weights, out[1].to_json(), out[2])))


def build_deep_tower(seed: int) -> list[Op]:
    rng = random.Random(seed)
    quarters = [Fraction(k, 4) for k in range(4)]
    ops = []
    for lam, mu in (((2,), (1,)), ((1,), (2,))):
        a, b = rng.sample(quarters, 2)
        ops.append(_ergodic_op(f"ergodic car lam={lam} mu={mu} exact", "car", 8, lam, mu, (a, b)))
        x = rng.random()
        y = (x + rng.uniform(0.1, 0.9)) % 1.0
        ops.append(_ergodic_op(f"ergodic car lam={lam} mu={mu} float", "car", 8, lam, mu, (x, y)))
    ops.append(_ergodic_op("ergodic uhf:3 lam=(1,) mu=(1,) exact", "uhf:3", 5, (1,), (1,),
                           tuple(rng.sample(quarters, 3))))
    # Enough (p, q) pairs that the median op sits among neighbours of similar
    # cost, so one noisy op does not move op_p50_ms.
    for p, q in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (1, 3)):
        ops.append(Op(f"schur_weyl_defect n=7 p={p} q={q}",
                      lambda p=p, q=q: afalgebra.schur_weyl_defect(7, p, q),
                      lambda out, p=p, q=q: None if out == _schur_weyl_ref(7, p, q)
                      else f"defect {out} != {_schur_weyl_ref(7, p, q)}", str))
    ops += [_group_counts_op(f"bench_gt tower d={len(entries)}", entries, groups, 2)
            for entries, groups in bench_gt_tower()]
    cf = ",".join(str(rng.randint(1, 3)) for _ in range(40))
    ops += [
        _diagram_op("effros-shen:<40 seeded terms>", f"effros-shen:{cf}", None, (1, 0)),
        _diagram_op("effros-shen depth 60", "effros-shen", 60, (rng.randint(1, 5), 0)),
        _diagram_op("gicar depth 20", "gicar", 20),
        _diagram_op("car depth 12", "car", 12, (rng.randint(1, 9),)),
    ]
    return ops


# ---------------------------------------------------------------------------
# float_checks


def _mc_op(rng: random.Random, d: int, mode: str, n: int, samples: int) -> Op:
    if mode == "exp":
        # Simple spectra, as the determinant formula needs.
        av = rng.sample(range(-4, 5), d)
        bv = rng.sample(range(-4, 5), d)
        a = moments.HermitianSpectrum(tuple(Fraction(v, 4) for v in av))
        b = moments.HermitianSpectrum(tuple(Fraction(v, 4) for v in bv))
    else:
        a = moments.center(moments.HermitianSpectrum(tuple(rng.randint(-2, 2) for _ in range(d))))
        b = moments.center(moments.HermitianSpectrum(tuple(rng.randint(-2, 2) for _ in range(d))))
    mc_seed = rng.randrange(2**31)

    def call():
        report = moments.hciz_monte_carlo(a, b, n, samples, mc_seed, mode=mode)
        if mode == "exp":
            exact = complex(moments.hciz_exponential_exact(a, b))
        else:
            exact = moments.hciz_power_sum(a, b, n)
        return report, exact

    def check(out):
        report, exact = out
        dev = abs(report.estimate - complex(exact))
        if dev > MC_SIGMAS * report.stderr + 1e-12:
            return f"Monte Carlo off by {dev:.3g} > {MC_SIGMAS} stderr = {MC_SIGMAS * report.stderr:.3g}"
        return None

    return Op(f"hciz_monte_carlo d={d} {mode} n={n} samples={samples}", call, check,
              lambda out: str(out[1]) if mode == "power" else "")


def _kstep_op(rng: random.Random, m: int, truncation: int, k: int) -> Op:
    rates = tuple(Fraction(rng.randint(2, 6), 4) for _ in range(m))
    params = poisson.PoissonKernelParams(rates)

    def check(out):
        # Each of the k steps and the direct jump can leave the box.
        bound = sum(k * poisson_tail_ref(a, truncation) + poisson_tail_ref(k * a, truncation)
                    for a in rates)
        if out.max_deviation > bound + 1e-12:
            return f"semigroup deviation {out.max_deviation:.3g} above tail bound {bound:.3g}"
        return None

    return Op(f"kstep_semigroup_check m={m} T={truncation} k={k}",
              lambda: poisson.kstep_semigroup_check(params, k, truncation), check)


def _series_op(rng: random.Random, i: int) -> Op:
    # The number of rates sets the cost, so it follows the op index, not the seed.
    a = tuple(round(rng.uniform(0.2, 2.0), 3) for _ in range(1 + i % 3))
    b = tuple(round(rng.uniform(0.2, 2.0), 3) for _ in range(i // 3 % 3))
    n = rng.randint(1, 8)
    tau = [cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for _ in a]
    taup = [cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for _ in b]
    truncation = 60
    exponent = sum(n * x * (v - 1) for x, v in zip(a, tau))
    exponent += sum(n * x * (v.conjugate() - 1) for x, v in zip(b, taup))
    closed = cmath.exp(exponent)

    def check(out):
        tail = sum(poisson_tail_ref(n * x, truncation) for x in a + b)
        if abs(out.closed - closed) > 1e-12:
            return f"closed exponential {out.closed} != {closed}"
        if abs(out.series - closed) > tail + 1e-12:
            return f"series deviation {abs(out.series - closed):.3g} above tail {tail:.3g}"
        return None

    return Op(f"poisson_series_check #{i} n={n} t_max={n * max(a + b):.3g}",
              lambda: poisson.poisson_series_check(a, b, n, tau, taup, truncation=truncation),
              check)


def _reexpansion_op(rng: random.Random, i: int) -> Op:
    a = tuple(round(rng.uniform(0.2, 2.0), 3) for _ in range(1 + i % 3))
    n = rng.randint(1, 6)
    mm = n + rng.randint(1, 6)
    tau = [cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for _ in a]
    truncation = 80

    def check(out):
        tail = sum(poisson_tail_ref((mm - n) * x, truncation) for x in a)
        if out.row_mass_deviation > tail + 1e-12:
            return f"row mass deviation {out.row_mass_deviation:.3g} above tail {tail:.3g}"
        if max(out.binomial_deviation, out.character_deviation) > 1e-10:
            return "binomial re-expansion or embedded exponential disagrees"
        return None

    return Op(f"binomial_reexpansion_check #{i} n={n} m={mm}",
              lambda: poisson.binomial_reexpansion_check(a, n, mm, tau, truncation), check)


def _stirling_op(rng: random.Random, i: int) -> Op:
    t = Fraction(rng.randint(1, 90), rng.randint(1, 4))
    floor_t = math.floor(t)
    closed = -1 + 2 * t**floor_t / math.factorial(floor_t)

    def check(out):
        if out.closed_form != closed:
            return f"closed form {out.closed_form} != {closed}"
        if abs(out.partial_sum - float(closed)) > 1e-10 * max(1.0, float(closed)):
            return f"partial sum {out.partial_sum!r} misses closed form {float(closed)!r}"
        return None

    return Op(f"stirling_identity #{i} t={t}", lambda: poisson.stirling_identity(t), check,
              lambda out: str(out.closed_form))


def _tv_op(rng: random.Random, i: int) -> Op:
    a = Fraction(rng.randint(1, 40), rng.randint(1, 8))
    k = rng.randint(1, 60)
    t = a * k

    def check(out):
        ref = 2 * poisson_mass_ref(t, math.floor(t))
        return None if _rel(out, ref) <= 1e-10 else f"tv_bound {out!r} != {ref!r}"

    return Op(f"tv_bound #{i} t={float(t):.4g}", lambda: poisson.tv_bound(a, k), check)


def _char_op(name: str, entries, angles, rtol: float, dps: int, known_edge=False) -> Op:
    sig = Signature(tuple(entries))
    u = ucharacters.DiagonalUnitary(tuple(angles))
    ref: list[complex] = []

    def check(out):
        if not ref:
            ref.append(char_ref(sig.entries, u.angles, dps))
        err = _rel(complex(out), ref[0])
        return None if err <= rtol else f"relative error {err:.3g} > {rtol:g}"

    return Op(name, lambda: ucharacters.char_eval(sig, u), check, known_edge=known_edge)


def _tail_edge_op(t, k) -> Op:
    def check(out):
        true = poisson_tail_ref(t, k)
        return None if out >= true else f"tail {out!r} below the true tail {true:.3g}"

    return Op(f"poisson_tail({t}, {k}) upper bound", lambda: poisson.poisson_tail(t, k), check,
              known_edge=True)


def build_float_checks(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops = [
        _mc_op(rng, 3, "power", 2, 100_000),
        _mc_op(rng, 3, "exp", 1, 100_000),
        _mc_op(rng, 4, "power", 4, 200_000),
        _mc_op(rng, 5, "exp", 1, 100_000),
        _mc_op(rng, 6, "power", 3, 100_000),
        _mc_op(rng, 8, "power", 2, 100_000),
    ]
    ops += [_kstep_op(rng, 1, 60, k) for k in (1, 2, 3, 4)]
    ops += [_kstep_op(rng, 2, 20, k) for k in (2, 3)]
    ops += [_series_op(rng, i) for i in range(40)]
    ops += [_reexpansion_op(rng, i) for i in range(20)]
    ops += [_stirling_op(rng, i) for i in range(20)]
    ops += [_tv_op(rng, i) for i in range(40)]
    for d in range(8, 17):
        entries = sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True)
        angles = [(k + rng.uniform(-0.25, 0.25)) / d for k in range(d)]
        ops.append(_char_op(f"char_eval d={d} separated", entries, angles, CHAR_RTOL, 40))
    for s in CHAR_EDGE_SPACINGS:
        ops.append(_char_op(f"char_eval {CHAR_EDGE_SIG} spacing {s:g}", CHAR_EDGE_SIG,
                            [0.1 + k * s for k in range(len(CHAR_EDGE_SIG))], CHAR_RTOL, 400,
                            known_edge=True))
    ops += [_tail_edge_op(t, k) for t, k in TAIL_EDGES]
    return ops


# ---------------------------------------------------------------------------
# cli_session


def _cli_op(command: str, traced: bool) -> Op:
    """One README command in a fresh child, which finds the package on PYTHONPATH."""
    args = command.split()[1:]
    prefix = [sys.executable, str(LAUNCHER)] if traced else [sys.executable, "-m", "weylchar.cli"]
    pinned = PINNED["cli_stdout_sha256"].get(command)

    def call():
        proc = subprocess.run(prefix + args, cwd=ROOT, capture_output=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def check(out):
        code, stdout, _ = out
        if code != 0:
            return f"exit code {code}"
        digest = hashlib.sha256(stdout).hexdigest()
        if digest != pinned:
            return f"stdout digest {digest[:12]} != pinned {str(pinned)[:12]}"
        return None

    return Op(command, call, check)


def build_cli_session(seed: int, traced: bool = False) -> list[Op]:
    rng = random.Random(seed)
    order = list(README_COMMANDS)
    rng.shuffle(order)
    return [_cli_op(c, traced) for c in order]


def build(name: str, seed: int, traced: bool = False) -> list[Op]:
    if name == "cli_session":
        return build_cli_session(seed, traced)
    return {
        "exact_sweep": build_exact_sweep,
        "deep_tower": build_deep_tower,
        "float_checks": build_float_checks,
    }[name](seed)


# ---------------------------------------------------------------------------
# the gate


def exact_digest(ops: list[Op], outs: list) -> str:
    h = hashlib.sha256()
    for op, out in zip(ops, outs):
        if op.exact is not None and not isinstance(out, Raised):
            h.update(f"{op.name}\t{op.exact(out)}\n".encode())
    return h.hexdigest()


def _checksum_failure(ops, outs, prefix: str, expect: int) -> str | None:
    total = 0
    for op, out in zip(ops, outs):
        if op.name.startswith(prefix):
            if isinstance(out, Raised):
                return f"{prefix} checksum unavailable: a call raised"
            total += sum(out.values())
    return None if total == expect else f"{prefix} checksum {total} != {expect}"


def check_outputs(workload: str, seed: int, ops: list[Op], outs: list):
    """Check one pass.  Returns (checks made, failures, known-edge misses).

    Failures and misses are (name, reason) pairs.  Besides each op's own
    check, a pass is checked as a whole: the bench_gt.py checksums, and at
    the pinned seed the digest of all exact outputs.
    """
    failures, misses = [], []
    for op, out in zip(ops, outs):
        try:
            reason = out.error if isinstance(out, Raised) else op.check(out)
        except Exception as exc:  # output too malformed for its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            (misses if op.known_edge else failures).append((op.name, reason))
    checks = sum(1 for op in ops if not op.known_edge)
    aggregate = []
    for prefix, expect in (("bench_gt sweep", BENCH_GT_SWEEP_SUM),
                           ("bench_gt tower", BENCH_GT_TOWER_SUM)):
        if any(op.name.startswith(prefix) for op in ops):
            aggregate.append((f"{prefix} checksum", _checksum_failure(ops, outs, prefix, expect)))
    if seed == PINNED_SEED and workload in PINNED["exact_sha256"]:
        digest = exact_digest(ops, outs)
        pinned = PINNED["exact_sha256"][workload]
        aggregate.append(("exact outputs digest", None if digest == pinned
                          else f"digest {digest[:12]} != pinned {pinned[:12]}"))
    for name, reason in aggregate:
        checks += 1
        if reason is not None:
            failures.append((name, reason))
    return checks, failures, misses
