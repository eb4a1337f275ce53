import cmath
import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from reference import (
    LatticeDistribution,
    binomial_reexpansion_check_ref,
    box_kernel_row,
    box_kstep_semigroup_check,
    poisson_mass_ref,
    poisson_series_check_ref,
    poisson_tail_ref,
)
from weylchar import poisson
from weylchar.cli import main
from weylchar.errors import InvariantError
from weylchar.poisson import (
    _LOG_THRESHOLD,
    PoissonKernelParams,
    SemigroupReport,
    _masses,
    binomial_reexpansion_check,
    chi_tau_tauprime,
    embedded_trace_values,
    kstep_semigroup_check,
    poisson_mass,
    poisson_series_check,
    poisson_tail,
    stirling_identity,
    tv_bound,
)

F = Fraction


def test_kernel_examples():
    p1 = PoissonKernelParams((1,))
    assert abs(box_kernel_row(p1, 1, 5).probs[(0,)] - math.exp(-1)) < 1e-15
    p12 = PoissonKernelParams((1, 2))
    assert abs(box_kernel_row(p12, 1, 5).probs[(1, 0)] - math.exp(-3)) < 1e-15


def test_kernel_rows_sum_to_one():
    for rates in ((1,), (F(1, 2), 2), (1, 1, F(3, 2))):
        params = PoissonKernelParams(rates)
        row = box_kernel_row(params, 1, 24)
        total = 0.0
        for y in itertools.product(range(25), repeat=params.m):
            total += row.probs.get(y, 0.0)
        assert abs(total - 1) < 1e-8


def test_kernel_validation():
    with pytest.raises(ValueError, match="rates must be positive$"):
        PoissonKernelParams(())
    with pytest.raises(ValueError):
        PoissonKernelParams((0,))
    # `_rates`, the rate check of every Poisson entry, refuses an infinite or
    # NaN rate here, not later in the mass table.
    for bad in ((math.inf,), (1, math.nan), (-1,), (F(-1, 2),)):
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            PoissonKernelParams(bad)
    # The rates are held as floats, float(Fraction) for a rational one.
    params = PoissonKernelParams((F(1, 3), 2, 0.25))
    assert params.a == (float(F(1, 3)), 2.0, 0.25) and params.m == 3
    assert all(type(x) is float for x in params.a)


def test_kstep_semigroup():
    rep1 = kstep_semigroup_check(PoissonKernelParams((1,)), 1, truncation=30)
    assert rep1.max_deviation < 1e-15
    rep2 = kstep_semigroup_check(PoissonKernelParams((1,)), 2, truncation=40)
    assert rep2.max_deviation < 1e-12 and rep2.passed
    rep3 = kstep_semigroup_check(PoissonKernelParams((F(1, 2), F(1, 2))), 3, truncation=18)
    assert rep3.max_deviation < 1e-10 and rep3.passed
    with pytest.raises(ValueError):
        kstep_semigroup_check(PoissonKernelParams((1,)), 0)


def _kstep_semigroup_check_ref(params, k, truncation=40):
    """The joint-grid convolution that the per-coordinate iteration replaced."""
    if k < 1:
        raise ValueError("k >= 1 required")
    m = params.m
    rates = params.a
    grid = list(itertools.product(range(truncation + 1), repeat=m))
    probs = {(0,) * m: 1.0}
    for _ in range(k):
        new: dict[tuple[int, ...], float] = {}
        for x, px in probs.items():
            for z in grid:
                y = tuple(a + b for a, b in zip(x, z))
                if any(c > truncation for c in y):
                    continue
                mass = px
                for ai, zi in zip(rates, z):
                    mass *= poisson_mass_ref(ai, zi)
                    if mass == 0.0:
                        break
                if mass:
                    new[y] = new.get(y, 0.0) + mass
        probs = new
    iterated = LatticeDistribution(probs, sum(poisson_tail_ref(k * ai, truncation) for ai in rates))
    direct = box_kernel_row(params, k, truncation)
    worst = 0.0
    for y in grid:
        worst = max(worst, abs(iterated.probs.get(y, 0.0) - direct.probs.get(y, 0.0)))
    tail = max(iterated.tail_bound, direct.tail_bound)
    return SemigroupReport(k, worst, tail, worst <= max(tail, 1e-10))


def test_kstep_matches_joint_convolution():
    # One coordinate: the same accumulation order, hence the same report.
    for a in (1, F(1, 2), F(3, 2), F(5, 4)):
        for truncation in (35, 40, 60):
            for k in (1, 2, 3, 4):
                params = PoissonKernelParams((a,))
                assert kstep_semigroup_check(params, k, truncation) == (
                    _kstep_semigroup_check_ref(params, k, truncation)
                ), (a, truncation, k)
    # Several coordinates: the products are formed in another order.
    for rates, truncation, k in (
        ((1, 1), 15, 2),
        ((F(1, 2), 1), 14, 2),
        ((F(1, 2), F(3, 4)), 13, 3),
        ((F(1, 8), F(1, 8), F(1, 8)), 6, 2),
        ((F(1, 8), F(1, 6), F(1, 8)), 6, 2),
    ):
        params = PoissonKernelParams(rates)
        new = kstep_semigroup_check(params, k, truncation)
        ref = _kstep_semigroup_check_ref(params, k, truncation)
        assert abs(new.max_deviation - ref.max_deviation) <= 1e-15, (rates, truncation, k)
        assert (new.k, new.tail_bound, new.passed) == (ref.k, ref.tail_bound, ref.passed)


def _kernel_row_ref(params, scale, truncation):
    """The joint-grid row that the per-coordinate mass products replaced."""
    rates = tuple(scale * r for r in params.a)
    probs = {}
    for y in itertools.product(range(truncation + 1), repeat=params.m):
        mass = 1.0
        for ai, yi in zip(rates, y):
            mass *= poisson_mass_ref(ai, yi)
        if mass:
            probs[y] = mass
    return LatticeDistribution(probs, sum(poisson_tail_ref(r, truncation) for r in rates))


def test_kernel_row_matches_joint_grid():
    # Same products in the same order, so the rows are equal, not just close.
    for rates, truncation in (
        ((1,), 40),
        ((F(3, 2),), 200),
        ((0.37,), 35),
        ((F(1, 2), 2), 20),
        ((0.25, F(5, 4)), 30),
        ((F(1, 8), F(1, 6), 3), 8),
        ((0.9, F(1, 3), F(7, 4)), 10),
    ):
        params = PoissonKernelParams(rates)
        for scale in (1, 3):
            new = box_kernel_row(params, scale, truncation)
            ref = _kernel_row_ref(params, scale, truncation)
            assert new.probs == ref.probs, (rates, truncation, scale)
            assert new.tail_bound == ref.tail_bound


def _assert_same_report(new, ref, case):
    assert (new.k, new.passed) == (ref.k, ref.passed), case
    assert new.max_deviation.hex() == ref.max_deviation.hex(), case
    assert new.tail_bound.hex() == ref.tail_bound.hex(), case


def test_kstep_equals_the_box_product_form():
    # The products are formed as the joint-grid dicts formed them, left to
    # right, so every field keeps its bits.
    for rates, truncations in (
        ((1,), (0, 1, 7, 30, 60, 120)),
        ((F(3, 2),), (0, 20, 200)),
        ((0.37,), (5, 35)),
        ((350.0,), (60,)),
        ((1, 1), (0, 3, 15, 40)),
        ((F(1, 2), 2), (1, 20, 60)),
        ((0.25, F(5, 4)), (30,)),
        ((F(1, 8), F(1, 6), 3), (0, 4, 8)),
        ((0.9, F(1, 3), F(7, 4)), (10, 16)),
    ):
        params = PoissonKernelParams(rates)
        for truncation in truncations:
            for k in (1, 2, 3, 4):
                case = (rates, truncation, k)
                _assert_same_report(kstep_semigroup_check(params, k, truncation),
                                    box_kstep_semigroup_check(params, k, truncation), case)
    import random

    rng = random.Random(30)
    for _ in range(120):
        m = rng.randint(1, 3)
        rates = tuple(rng.choice((round(rng.uniform(0.05, 4.0), 3), F(rng.randint(1, 12), 4)))
                      for _ in range(m))
        truncation = rng.randint(0, (60, 40, 14)[m - 1])
        k = rng.randint(1, 4)
        params = PoissonKernelParams(rates)
        case = (rates, truncation, k)
        _assert_same_report(kstep_semigroup_check(params, k, truncation),
                            box_kstep_semigroup_check(params, k, truncation), case)


@pytest.mark.parametrize("fragment", ("negative mass", "exceeds 1", "does not cover"))
def test_kstep_mass_checks_are_invariants(monkeypatch, capsys, fragment):
    # The real tables pass the checks, as the box rows did.
    row = box_kernel_row(PoissonKernelParams((1, F(1, 2))), 2, truncation=30)
    total = sum(row.probs.values())
    assert total <= 1 + 1e-12
    assert total + row.tail_bound >= 1 - 1e-9
    assert kstep_semigroup_check(PoissonKernelParams((1, F(1, 2))), 2, truncation=30).passed
    # A table that breaks one is a bug in the masses, not bad input.
    masses = poisson._masses

    def broken(t, truncation):
        table = masses(t, truncation)
        if fragment == "negative mass":
            return [-0.5, 1.5] + table[2:]
        if fragment == "exceeds 1":
            return [0.7, 0.7] + table[2:]
        # Only the one-step table loses mass, so the direct row's tail is tiny.
        return [0.5] + [0.0] * truncation if t == 1.0 else table

    monkeypatch.setattr(poisson, "_masses", broken)
    with pytest.raises(InvariantError, match=fragment):
        kstep_semigroup_check(PoissonKernelParams((1,)), 2, truncation=30)
    assert main(["poisson", "--kstep-k", "2", "--kernel-a", "1"]) == 4
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize("t", (0, 0.0, 1e-300, 0.5, 12.6, 699.9, 700, 700.0, 1000.0))
def test_mass_table_is_bit_identical_to_poisson_mass(t):
    # k runs past 170!, and at 699.9 the log form starts at k = 92, where
    # k log t first reaches 600.
    table = _masses(t, 400)
    assert len(table) == 401
    for k, p in enumerate(table):
        assert p.hex() == poisson_mass(t, k).hex() == poisson_mass_ref(t, k).hex(), (t, k)
    if t == 699.9:
        assert 92 * math.log(t) >= 600 > 91 * math.log(t) and 92 <= _LOG_THRESHOLD


def test_tails_are_the_loop_over_the_old_masses():
    import random

    rng = random.Random(28)
    cases = [(0, 0), (0.0, 5), (1, 30), (5, 40), (700.0, 650), (1000.0, 1100), (0.5, -1)]
    for _ in range(600):
        t = rng.choice((rng.uniform(0, 5), rng.uniform(0, 200), rng.uniform(690, 1100)))
        cases.append((t, rng.randint(0, 260)))
    for t, k in cases:
        assert poisson_tail(t, k).hex() == poisson_tail_ref(t, k).hex(), (t, k)
        if k >= 0:
            assert [p.hex() for p in _masses(t, k)] == [
                poisson_mass_ref(t, j).hex() for j in range(k + 1)], (t, k)


def _float_checks_shaped_cases(seed):
    """Series and re-expansion arguments drawn as perfbench's float_checks draws them."""
    import random

    rng = random.Random(seed)
    series, reexpansion = [], []
    for i in range(40):
        a = tuple(round(rng.uniform(0.2, 2.0), 3) for _ in range(1 + i % 3))
        b = tuple(round(rng.uniform(0.2, 2.0), 3) for _ in range(i // 3 % 3))
        n = rng.randint(1, 8)
        tau = [cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for _ in a]
        taup = [cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for _ in b]
        series.append((a, b, n, tau, taup))
    for i in range(20):
        a = tuple(round(rng.uniform(0.2, 2.0), 3) for _ in range(1 + i % 3))
        n = rng.randint(1, 6)
        m = n + rng.randint(1, 6)
        tau = [cmath.rect(rng.uniform(0, 1), rng.uniform(0, 2 * math.pi)) for _ in a]
        reexpansion.append((a, n, m, tau))
    return series, reexpansion


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_checks_equal_the_per_mass_forms(seed):
    # Dataclass equality compares every float field exactly.
    series, reexpansion = _float_checks_shaped_cases(seed)
    for truncation in (60, 0, 1, 20, 200):
        for a, b, n, tau, taup in series:
            assert poisson_series_check(a, b, n, tau, taup, truncation) == (
                poisson_series_check_ref(a, b, n, tau, taup, truncation)), (a, b, n, truncation)
    for truncation in (80, 0, 1, 20, 200):
        for a, n, m, tau in reexpansion:
            assert binomial_reexpansion_check(a, n, m, tau, truncation) == (
                binomial_reexpansion_check_ref(a, n, m, tau, truncation)), (a, n, m, truncation)
    # Level 0 passes rate 0; rates at and past 700 take the log form.
    for a, b, n, truncation in (((1.5,), (0.5,), 0, 10), ((100.0,), (), 8, 60),
                                ((90.0, 0.25), (87.5,), 8, 900)):
        tau, taup = [0.5j] * len(a), [0.3] * len(b)
        assert poisson_series_check(a, b, n, tau, taup, truncation) == (
            poisson_series_check_ref(a, b, n, tau, taup, truncation))
    assert binomial_reexpansion_check((350.0, 0.5), 1, 3, [0.5j, 0.2], 900) == (
        binomial_reexpansion_check_ref((350.0, 0.5), 1, 3, [0.5j, 0.2], 900))


def test_truncation_zero_is_valid():
    rep = kstep_semigroup_check(PoissonKernelParams((1,)), 2, 0)
    assert rep.max_deviation == 0 and rep.tail_bound == poisson_tail(2.0, 0)
    rep = poisson_series_check((1,), (), 1, [0.5], truncation=0)
    assert rep.series == math.exp(-1) and rep.tail_bound == poisson_tail(1.0, 0)
    rep = binomial_reexpansion_check((1,), 1, 2, [0.5], truncation=0)
    assert rep.tail_bound == poisson_tail(1.0, 0)


def test_kstep_tail_covers_the_missing_mass():
    # A union bound over single steps, k * sum_i P(Poisson(a_i) > T), fell
    # short of the mass the iterated row misses on these inputs.
    for rates, truncation, k in (
        ((F(1, 2), F(3, 2)), 12, 2),
        ((F(1, 4), F(1, 2), F(1, 3)), 8, 3),
    ):
        rep = kstep_semigroup_check(PoissonKernelParams(rates), k, truncation)
        assert rep.tail_bound == sum(poisson_tail(k * float(a), truncation) for a in rates)
        assert rep.passed, (rates, truncation, k)


def test_kstep_two_coordinates_wide_box():
    rep = kstep_semigroup_check(PoissonKernelParams((1, 1)), 4, truncation=60)
    assert rep.passed and rep.max_deviation < 1e-14


def test_tv_bound_examples():
    assert abs(tv_bound(1, 4) - math.exp(-4) * 64 / 3) < 1e-15
    assert tv_bound(1, 100) < 0.09
    with pytest.raises(ValueError):
        tv_bound(1, 0)


def test_tv_bound_monotone_and_vanishing():
    for a in (F(1, 3), F(1), F(5, 2)):
        start = math.ceil(1 / float(a))
        vals = [tv_bound(a, k) for k in range(start, start + 200)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))
        # large-k shape ~ sqrt(2/(pi t)), hence vanishing
        t = float(a) * (start + 199)
        assert abs(vals[-1] - math.sqrt(2 / (math.pi * t))) < 0.15 * vals[-1]
        assert vals[-1] < 1.2 * math.sqrt(2 / (math.pi * t))


def test_tv_bound_matches_direct_series():
    for t in (F(1, 2), F(4), F(17, 3)):
        k = 1
        tf = float(t)
        direct = sum(
            abs(poisson_mass(tf, x) - poisson_mass(tf, x - 1)) for x in range(0, 400)
        )
        assert abs(tv_bound(t, k) - direct) < 1e-12


def test_stirling_identity_values():
    r4 = stirling_identity(F(4))
    assert r4.closed_form == F(61, 3)
    assert r4.relative_deviation < 1e-12
    assert abs(r4.damped - math.exp(-4) * 61 / 3) < 1e-12
    r1 = stirling_identity(F(1))
    assert r1.closed_form == 1
    r100 = stirling_identity(F(100))
    asym = 1 / math.sqrt(2 * math.pi * 100)
    assert abs(r100.peak_mass - asym) < 0.1 * asym
    with pytest.raises(ValueError):
        stirling_identity(0)


def test_stirling_terms_follow_t_and_overflow_is_refused(capsys):
    # N = max(200, ceil(2t) + 10): t <= 95 keeps the 200 terms it always had.
    assert [stirling_identity(t).terms for t in (F(1, 2), 95, F(191, 2), 96, 100)] == [
        200, 200, 201, 202, 210]
    assert main(["poisson", "--stirling", "96"]) == 0
    assert json.loads(capsys.readouterr().out)["stirling"]["terms"] == 202
    # From t = 707.42 on, t^n/n! overflows a double; the series would read NaN.
    for t in (F(70743, 100), 708, 714, 715, 10**6, 1e300):
        with pytest.raises(ValueError, match="out of range"):
            stirling_identity(t)
    assert math.isfinite(stirling_identity(F(70742, 100)).relative_deviation)
    assert main(["poisson", "--stirling", "708"]) == 2
    assert "out of range" in capsys.readouterr().err
    for t in (0, -1, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            stirling_identity(t)


def test_stirling_reports_match_the_fixed_term_count():
    # sha256 of repr(report), pinned when every t ran a fixed 200 terms.
    pinned = [(F(1, 2), "27d9048fe7b27e99"), (F(4), "1bd2d7ff4d19b270"),
              (F(90), "2c98f725c6613b96"), (0.5, "c74d58ab3c913d1e"), (90.0, "80f28d1330e93e45")]
    for t, digest in pinned:
        assert hashlib.sha256(repr(stirling_identity(t)).encode()).hexdigest()[:16] == digest, t


def test_stirling_partial_sums_converge():
    for t in (0.5, 1.0, 4.0, 10.0, 100.0):
        rep = stirling_identity(t)
        assert rep.relative_deviation <= 1e-10, t


def test_chi_tau_tauprime():
    assert chi_tau_tauprime([0]) == 1
    s = 0.3
    assert abs(chi_tau_tauprime([-2 * s]) - math.exp(-2 * s)) < 1e-15
    vals = [complex(-0.1, 0.7), complex(-0.5, -0.2)]
    out = chi_tau_tauprime(vals, [complex(-0.3, 0.1)])
    assert abs(out) <= 1
    assert abs(abs(out) - math.exp(-0.1 - 0.5 - 0.3)) < 1e-12
    with pytest.raises(ValueError):
        chi_tau_tauprime([complex(0.2, 0)])
    with pytest.raises(ValueError):
        chi_tau_tauprime([complex(math.nan, 0)])


def test_poisson_series_identity():
    tau = (1 + 1j) / 2
    rep = poisson_series_check([1], [], 2, [tau], truncation=60)
    assert rep.passed and rep.deviation < 1e-10
    assert abs(rep.closed - cmath.exp(2 * (tau - 1))) < 1e-14
    rep_ab = poisson_series_check([F(1)], [F(1)], 3, [tau], truncation=80)
    assert rep_ab.passed
    # a = b: modulus equals exp(2 n a Re(tau - 1))
    assert abs(abs(rep_ab.closed) - math.exp(2 * 3 * (tau.real - 1))) < 1e-12


@pytest.mark.parametrize("bad", (complex(math.nan, 0), complex(0, math.nan), complex(math.inf, 0)))
def test_poisson_series_refuses_non_finite_traces(bad):
    with pytest.raises(ValueError, match="unit disk"):
        poisson_series_check([1], [], 2, [bad])


def test_poisson_series_trivial_unitary():
    rep = poisson_series_check([1, 2], [1], 2, [1.0, 1.0], [1.0], truncation=50)
    assert abs(rep.closed - 1) < 1e-14 and abs(rep.series - 1) < 1e-10


def test_poisson_series_random_sweep():
    import random

    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [F(rng.randint(1, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 2))]
        b = [F(rng.randint(1, 2)) for _ in range(rng.randint(0, 2))]
        tau = []
        for _ in a:
            ang = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(0, 1)
            tau.append(r * cmath.exp(1j * ang))
        taup = [rng.uniform(0, 1) * cmath.exp(1j * rng.uniform(0, 7)) for _ in b]
        rep = poisson_series_check(a, b, n, tau, taup, truncation=90)
        assert rep.passed, (a, b, n)


def test_embedded_trace_values():
    tau = (0.2 + 0.5j,)
    (emb,) = embedded_trace_values(tau, 2, 6)
    assert abs(emb - (2 * tau[0] + 4) / 6) < 1e-15
    with pytest.raises(ValueError):
        embedded_trace_values(tau, 3, 3)


def test_binomial_reexpansion():
    tau = (1 + 1j) / 2
    rep = binomial_reexpansion_check([1], 2, 5, [tau], truncation=80)
    assert rep.passed
    assert rep.character_deviation < 1e-10
    assert rep.binomial_deviation < 1e-10
    assert rep.row_mass_deviation < 1e-10
    rep2 = binomial_reexpansion_check([F(1, 2), F(2)], 1, 4, [0.3 + 0.4j, -0.5 + 0.1j])
    assert rep2.passed


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: tv_bound(0, 1), "rate must be positive"),
        (lambda: poisson_series_check((1,), (), 1, [0.5, 0.5]), "one trace value per rate"),
        (lambda: binomial_reexpansion_check((1,), 1, 2, [0.5, 0.5]), "one trace value per rate"),
        (lambda: binomial_reexpansion_check((1,), 2, 2, [0.5]), "need 0 < n < m"),
        (lambda: poisson_series_check((-1,), (), 1, [0.5]), "rates must be positive and finite"),
        (lambda: poisson_series_check((1,), (0,), 1, [0.5], [0.5]), "rates must be positive"),
        (lambda: poisson_series_check((math.inf,), (), 1, [0.5]), "rates must be positive"),
        (lambda: poisson_series_check((1,), (), -1, [0.5]), "level n must be nonnegative"),
        (lambda: binomial_reexpansion_check((-1,), 1, 2, [0.5]), "rates must be positive"),
        (lambda: binomial_reexpansion_check((math.nan,), 1, 2, [0.5]), "and finite"),
        (lambda: poisson_series_check((1,), (), 1, [0.5], truncation=-1),
         "truncation must be nonnegative"),
        (lambda: kstep_semigroup_check(PoissonKernelParams((1,)), 2, -1),
         "truncation must be nonnegative"),
        (lambda: binomial_reexpansion_check((1,), 1, 2, [0.5], -1), "truncation must be"),
        (lambda: poisson_mass(-1.0, 3), "rate must be nonnegative and finite"),
        (lambda: poisson_mass(math.nan, 2), "rate must be nonnegative and finite"),
        (lambda: poisson_mass(-1.0, -1), "rate must be nonnegative"),
        (lambda: poisson_tail(-1.0, 3), "rate must be nonnegative"),
        (lambda: poisson_tail(math.inf, 5), "rate must be nonnegative and finite"),
        (lambda: poisson_series_check((), (), 2, []), "need at least one rate"),
        (lambda: binomial_reexpansion_check((), 1, 2, ()), "need at least one rate"),
        (lambda: tv_bound(math.inf, 1), "rate must be positive and finite"),
        (lambda: tv_bound(1e308, 10), "rate must be positive and finite"),
        (lambda: tv_bound(math.nan, 1), "rate must be positive and finite"),
    ],
)
def test_input_refusals(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
