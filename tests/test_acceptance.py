"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; exact checks compare
Fractions, never floats.
"""

import time
from fractions import Fraction

import numpy as np

from reference import J_closed_ref, all_signature_pairs, rational_approx_defect
from weylchar import moments, poisson
from weylchar.afalgebra import BlockUnitary, ergodic_sequence, preset_diagram, schur_weyl_defect
from weylchar.combinatorics import Partition, Signature, signature_from_pair, signatures_with_entries
from weylchar.exact import QQi
from weylchar.moments import (
    HermitianSpectrum,
    TraceZeroSigned,
    center,
    estimate_check,
    hciz_exponential_exact,
    hciz_monte_carlo,
    hciz_power_sum,
    moment2_closed,
    moment4_closed,
    weight_distribution,
)
from weylchar.symfunc import schur_to_power_sums, weyl_dim
from weylchar.ucharacters import (
    DiagonalUnitary,
    check_branching_inequalities,
    restrict_to_blocks,
    tensor_decompose,
)

F = Fraction
P = Partition
S = Signature


def _report(num: int, label: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"criterion {num:2d} PASS ({elapsed:6.2f}s < {limit:g}s) {label}")
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget"


POWER_SUM_TABLE = {
    (2,): {(2,): F(1, 2), (1, 1): F(1, 2)},
    (1, 1): {(2,): F(-1, 2), (1, 1): F(1, 2)},
    (4,): {(4,): F(1, 4), (3, 1): F(1, 3), (2, 2): F(1, 8), (2, 1, 1): F(1, 4),
           (1, 1, 1, 1): F(1, 24)},
    (1, 1, 1, 1): {(4,): F(-1, 4), (3, 1): F(1, 3), (2, 2): F(1, 8),
                   (2, 1, 1): F(-1, 4), (1, 1, 1, 1): F(1, 24)},
    (3, 1): {(4,): F(-1, 4), (2, 2): F(-1, 8), (2, 1, 1): F(1, 4),
             (1, 1, 1, 1): F(1, 8)},
    (2, 1, 1): {(4,): F(1, 4), (2, 2): F(-1, 8), (2, 1, 1): F(-1, 4),
                (1, 1, 1, 1): F(1, 8)},
    (2, 2): {(3, 1): F(-1, 3), (2, 2): F(1, 4), (1, 1, 1, 1): F(1, 12)},
}

DIM_CLOSED_FORMS = {
    (2,): lambda d: F(d * (d + 1), 2),
    (1, 1): lambda d: F(d * (d - 1), 2),
    (4,): lambda d: F(d * (d + 1) * (d + 2) * (d + 3), 24),
    (1, 1, 1, 1): lambda d: F(d * (d - 1) * (d - 2) * (d - 3), 24),
    (3, 1): lambda d: F((d - 1) * d * (d + 1) * (d + 2), 8),
    (2, 1, 1): lambda d: F((d - 2) * (d - 1) * d * (d + 1), 8),
    (2, 2): lambda d: F((d - 1) * d * d * (d + 1), 12),
}


def test_criterion_01_power_sum_table():
    started = time.perf_counter()
    for shape, expected in POWER_SUM_TABLE.items():
        got = {rho.parts: c for rho, c in schur_to_power_sums(P(shape)).items()}
        assert got == expected, shape
    _report(1, "seven power-sum expansions exact", started, 1.0)


def test_criterion_02_dimension_closed_forms():
    started = time.perf_counter()
    for shape, formula in DIM_CLOSED_FORMS.items():
        for d in range(4, 13):
            assert weyl_dim(signature_from_pair(P(shape), P(()), d)) == formula(d), (shape, d)
    _report(2, "seven dimension closed forms, d in [4,12], exact", started, 1.0)


def _moment_sweep():
    for d in (4, 5, 6):
        for sig in signatures_with_entries(d, -2, 2):
            for r in range(2, d + 1, 2):
                yield sig, TraceZeroSigned(r, d)


def test_criterion_03_moment_identities():
    started = time.perf_counter()
    checked = 0
    for sig, f in _moment_sweep():
        dist = weight_distribution(sig, f)
        assert moment2_closed(sig, f) == dist.moment(2), (sig, f.r)
        assert moment4_closed(sig, f) == dist.moment(4), (sig, f.r)
        checked += 1
    _report(3, f"moment identities exact on {checked} (signature, r) cases", started, 120.0)


def test_criterion_04_two_four_estimate():
    started = time.perf_counter()
    checked = 0
    for sig, f in _moment_sweep():
        if 3 * f.r < 2 * f.d:
            continue
        assert estimate_check(sig, f).holds, (sig, f.r)
        checked += 1
    _report(4, f"fourth-vs-second moment bound holds on {checked} cases", started, 120.0)


def test_criterion_05_hciz():
    started = time.perf_counter()
    rng = np.random.default_rng(20260809)
    count = 0
    while count < 50:
        d = (4, 5, 6)[count % 3]
        raw = [int(rng.integers(-4, 5)) for _ in range(d)]
        if not any(raw):
            continue
        spec = center(HermitianSpectrum(tuple(sorted(map(F, raw), reverse=True))))
        r = 2 * int(rng.integers(1, d // 2 + 1))
        window = HermitianSpectrum(TraceZeroSigned(r, d).diagonal())
        assert J_closed_ref(spec, r, 2) == hciz_power_sum(window, spec, 2)
        assert J_closed_ref(spec, r, 4) == hciz_power_sum(window, spec, 4)
        count += 1
    a3 = HermitianSpectrum((1, 0, -1))  # the signed-window spectrum at r=2, d=3
    b3 = HermitianSpectrum((F(3, 2), F(-1, 2), F(-1)))
    window3 = HermitianSpectrum(TraceZeroSigned(2, 3).diagonal())
    assert hciz_power_sum(a3, b3, 2) == hciz_power_sum(window3, b3, 2)
    exact = float(hciz_power_sum(a3, b3, 2))
    mc = hciz_monte_carlo(a3, b3, 2, 100_000, seed=7)
    assert abs(mc.estimate.real - exact) <= 3 * mc.stderr
    a2 = HermitianSpectrum((1, -1))
    det_value = hciz_exponential_exact(a2, a2)
    mc2 = hciz_monte_carlo(a2, a2, 1, 100_000, seed=7, mode="exp")
    assert abs(mc2.estimate - det_value) <= 3 * mc2.stderr
    _report(5, "50 exact J identities + two Monte Carlo cross-checks", started, 300.0)


def test_criterion_06_asymptotic_defect():
    started = time.perf_counter()
    dims = (4, 8, 16, 32, 64)

    def profile(d):
        return DiagonalUnitary((F(1, 8),) * (d // 4) + (F(0),) * (3 * d // 4))

    # Pairs with a genuine 1/d deviation: defect * d stays within a factor 3.
    for lam, mu in (((2,), (1,)), ((1, 1), (2,))):
        scaled = [rational_approx_defect(P(lam), P(mu), profile(d)) * d for d in dims]
        assert max(scaled) / min(scaled) < 3, (lam, mu, scaled)
        assert max(scaled) == scaled[0]
    # ((1),(1)) decays like 1/d^2 (the closed form is (d^2-|tr|^2)/(d^2(d^2-1))),
    # strictly inside the 1/d envelope: defect * d is bounded by its first
    # value and defect * d^2 is flat within a factor 3.
    scaled1 = [rational_approx_defect(P((1,)), P((1,)), profile(d)) * d for d in dims]
    assert max(scaled1) == scaled1[0]
    scaled2 = [v * d for v, d in zip(scaled1, dims)]
    assert max(scaled2) / min(scaled2) < 3
    _report(6, "defect*d bounded; flat ratios per decay rate", started, 60.0)


def test_criterion_07_schur_weyl_defect():
    started = time.perf_counter()
    for n in range(1, 7):
        assert schur_weyl_defect(n, 1, 1) == F(1, 4**n)
    for p in range(0, 4):
        for q in range(0, 4 - p):
            if (p, q) == (0, 0):
                continue
            vals = [schur_weyl_defect(n, p, q) for n in range(2, 7)]
            assert all(a >= b for a, b in zip(vals, vals[1:])), (p, q, vals)
            assert vals[-1] < F(1, 100), (p, q, vals[-1])
    _report(7, "tensor-power defect 4^-n at (1,1); decreasing, <1e-2 by n=6", started, 60.0)


def test_criterion_08_ergodic_convergence():
    started = time.perf_counter()
    car = preset_diagram("car")
    u = BlockUnitary(1, (DiagonalUnitary((F(1, 4), F(0))),))
    report = ergodic_sequence(car, P((1,)), P((1,)), u, 6)
    for d, value in zip(report.dims, report.values):
        assert isinstance(value, QQi) and value.im == 0
        assert value.re == F(d * d // 2 - 1, d * d - 1), d
    assert report.limit == QQi.of(F(1, 2))
    assert report.rate is not None and 1.8 <= report.rate <= 2.2
    _report(8, f"CAR sequence exact, limit 1/2, rate {report.rate:.3f}", started, 30.0)


def test_criterion_09_poisson_tail():
    started = time.perf_counter()
    for t in (F(1, 2), F(1), F(4), F(10), F(100)):
        rep = poisson.stirling_identity(t)
        assert rep.relative_deviation <= 1e-10, t
    assert poisson.tv_bound(1, 100) < 0.09
    sem = poisson.kstep_semigroup_check(poisson.PoissonKernelParams((1,)), 2, truncation=40)
    assert sem.max_deviation < 1e-10
    sem3 = poisson.kstep_semigroup_check(
        poisson.PoissonKernelParams((F(1, 2), F(1, 2))), 3, truncation=20
    )
    assert sem3.max_deviation < 1e-10
    _report(9, "Stirling partial sums, tv bound at k=100, semigroup check", started, 30.0)


def test_criterion_10_branching_inequalities():
    started = time.perf_counter()
    tensors = restrictions = 0
    for d in (2, 3, 4):
        sigs = all_signature_pairs(d, 2)
        for sig1 in sigs:
            for sig2 in sigs:
                comps = tensor_decompose(sig1, sig2)
                assert check_branching_inequalities(comps, (sig1, sig2)).holds
                tensors += 1
        for sig in sigs:
            for d1 in range(1, d):
                dec = restrict_to_blocks(sig, d1, d - d1)
                assert dec.total_dim() == weyl_dim(sig)
                assert check_branching_inequalities(dec, sig).holds
                restrictions += 1
    _report(
        10,
        f"branching inequalities on {tensors} tensor and {restrictions} restriction cases",
        started,
        120.0,
    )
