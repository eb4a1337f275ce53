import functools
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    J_closed_ref,
    brute_force_counts,
    distribution_from_probs,
    fraction_weight_hciz_power_sum,
    hook_length_dim,
    pairing_counts,
    power_sum_value,
    rho,
    spectrum_sum,
)
from weylchar import moments
from weylchar.cli import main
from weylchar.combinatorics import Signature, signatures_with_entries
from weylchar.moments import (
    MC_BATCH,
    MC_CHUNK,
    HermitianSpectrum,
    TraceZeroSigned,
    WeightDistribution,
    _haar_from_normals,
    _normals,
    center,
    estimate_check,
    hciz_exponential_exact,
    hciz_monte_carlo,
    hciz_power_sum,
    moment2_closed,
    moment4_closed,
    weight_distribution,
)
from weylchar.symfunc import weyl_dim

S = Signature
F = Fraction


def test_rho_examples():
    assert rho(2).eigenvalues == (F(1, 2), F(-1, 2))
    assert rho(4).eigenvalues == (F(3, 2), F(1, 2), F(-1, 2), F(-3, 2))
    assert rho(4).trace(2) == 5
    assert rho(1).eigenvalues == (F(0),)
    for d in range(1, 9):
        assert rho(d).trace() == 0
        assert rho(d).trace(2) == F(d * (d * d - 1), 12)


def test_center_examples():
    assert center(HermitianSpectrum((1, 1))).eigenvalues == (F(0), F(0))
    assert center(HermitianSpectrum((3, 1, -1))).eigenvalues == (F(2), F(0), F(-2))
    sig_spec = HermitianSpectrum(S((1, 0, 0, 0)).entries)
    assert center(sig_spec).eigenvalues == (F(3, 4), F(-1, 4), F(-1, 4), F(-1, 4))
    assert center(center(sig_spec)) == center(sig_spec)


def test_trace_zero_signed_validation():
    f = TraceZeroSigned(4, 6)
    assert f.diagonal() == (1, 1, -1, -1, 0, 0)
    assert sum(f.diagonal()) == 0
    assert sum(v * v for v in f.diagonal()) == f.r
    with pytest.raises(ValueError):
        TraceZeroSigned(3, 6)
    with pytest.raises(ValueError):
        TraceZeroSigned(4, 3)


def test_weight_distribution_examples():
    sig = S((1, 0, 0, 0))
    assert weight_distribution(sig, TraceZeroSigned(4, 4)).probs == {
        1: F(1, 2),
        -1: F(1, 2),
    }
    assert weight_distribution(sig, TraceZeroSigned(2, 4)).probs == {
        1: F(1, 4),
        -1: F(1, 4),
        0: F(1, 2),
    }
    assert weight_distribution(S((0, 0, 0, 0)), TraceZeroSigned(4, 4)).probs == {0: F(1)}


def test_pairing_counts_permutation_invariance():
    # s_lam is symmetric, so the tally does not depend on where F's signed
    # slots sit among the coordinates.
    sig = S((2, 1, 0, -1))
    base = pairing_counts(sig.entries, TraceZeroSigned(2, 4).diagonal())
    for coeffs in set(itertools.permutations((1, -1, 0, 0))):
        assert pairing_counts(sig.entries, coeffs) == base, coeffs


def test_weight_distribution_matches_literal_enumeration():
    for entries in ((1, 0, 0, -1), (2, 0, -1), (1, 1, 0)):
        sig = S(entries)
        f = TraceZeroSigned(2, sig.d)
        direct = {}
        for w, c in brute_force_counts(sig.entries, tuple(range(sig.d)), sig.d).items():
            k = w[0] - w[1]
            direct[k] = direct.get(k, 0) + c
        dim = weyl_dim(sig)
        expected = {k: F(c, dim) for k, c in direct.items() if c}
        assert weight_distribution(sig, f).probs == expected


def _is_symmetric(dist):
    return all(dist.counts.get(-k, 0) == c for k, c in dist.counts.items())


def test_weight_distribution_symmetric_sweep():
    for d in (2, 3, 4, 5, 6):
        for sig in signatures_with_entries(d, -2, 2):
            for r in range(2, d + 1, 2):
                dist = weight_distribution(sig, TraceZeroSigned(r, d))
                assert _is_symmetric(dist), (sig, r)
    assert not _is_symmetric(WeightDistribution({1: 1, -1: 2}, 3))



def test_moment_examples():
    pm = distribution_from_probs({1: F(1, 2), -1: F(1, 2)})
    assert pm.moment(2) == 1
    assert pm.moment(3) == 0
    assert distribution_from_probs({0: F(1)}).moment(2) == 0


def test_distribution_from_counts_matches_the_fraction_form():
    counts = WeightDistribution({2: 1, 0: 4, -2: 1, 5: 0}, 6)
    masses = distribution_from_probs({2: F(1, 6), 0: F(2, 3), -2: F(1, 6)})
    assert counts.probs == masses.probs and counts == masses
    # Counts over a total that shares a factor with them compare equal too.
    assert WeightDistribution({1: 2, -1: 2}, 4) == distribution_from_probs({1: F(1, 2), -1: F(1, 2)})
    assert [counts.moment(p) for p in range(5)] == [masses.moment(p) for p in range(5)]
    for bad, total in (({1: 2}, 3), ({1: 3, 2: -1}, 2), ({}, 0)):
        with pytest.raises(ValueError):
            WeightDistribution(bad, total)


def _J(b, f, n):
    """The partition sum of F's signed window against B."""
    return hciz_power_sum(HermitianSpectrum(f.diagonal()), b, n)


def test_J_series_examples():
    f = TraceZeroSigned(4, 4)
    assert _J(rho(4), f, 1) == 0
    assert _J(rho(4), f, 2) == F(4, 3)
    b = HermitianSpectrum((1, -1, 0, 0))
    assert _J(b, TraceZeroSigned(2, 4), 2) == F(4, 15)


def test_J_closed_matches_series():
    rng = random.Random(77)
    for trial in range(50):
        d = (4, 5, 6)[trial % 3]
        raw = [rng.randint(-4, 4) for _ in range(d)]
        spec = center(HermitianSpectrum(tuple(sorted((F(x) for x in raw), reverse=True))))
        for r in range(2, d + 1, 2):
            f = TraceZeroSigned(r, d)
            assert J_closed_ref(spec, r, 2) == _J(spec, f, 2)
            assert J_closed_ref(spec, r, 4) == _J(spec, f, 4)
    assert _J(HermitianSpectrum((0, 0)), TraceZeroSigned(2, 2), 2) == 0


def test_moment2_closed_examples():
    sig = S((1, 0, 0, 0))
    assert moment2_closed(sig, TraceZeroSigned(4, 4)) == 1
    assert moment2_closed(sig, TraceZeroSigned(2, 4)) == F(1, 2)
    assert moment2_closed(S((0, 0, 0)), TraceZeroSigned(2, 3)) == 0


def test_moment4_closed_examples():
    sig = S((1, 0, 0, 0))
    f = TraceZeroSigned(4, 4)
    assert moment4_closed(S((0, 0, 0, 0)), f) == 0
    assert moment4_closed(sig, f) == 1
    s2 = S((1, 0, 0, -1))
    dist = weight_distribution(s2, f)
    assert moment4_closed(s2, f) == dist.moment(4)


def test_moment_closed_forms_brute_force_d4():
    d = 4
    for sig in signatures_with_entries(d, -2, 2):
        for r in (2, 4):
            f = TraceZeroSigned(r, d)
            dist = weight_distribution(sig, f)
            assert moment2_closed(sig, f) == dist.moment(2), (sig, r)
            assert moment4_closed(sig, f) == dist.moment(4), (sig, r)


def test_estimate_check_examples():
    f = TraceZeroSigned(4, 4)
    zero = estimate_check(S((0, 0, 0, 0)), f)
    assert zero.holds and zero.m2 == 0 and zero.m4 == 0
    one = estimate_check(S((1, 0, 0, 0)), f)
    assert one.holds and one.m2 == 1 and one.m4 == 1 and one.bound > 1
    with pytest.raises(ValueError):
        estimate_check(S((1, 0, 0, 0)), TraceZeroSigned(2, 4))


def test_product_moment_identity_examples():
    pm = distribution_from_probs({1: F(1, 2), -1: F(1, 2)})
    point = distribution_from_probs({0: F(1)})
    assert pm.convolve(point).probs == pm.probs
    conv = pm.convolve(pm)
    assert conv.probs == {2: F(1, 4), 0: F(1, 2), -2: F(1, 4)}
    assert conv.moment(2) == 2
    assert conv.moment(4) == 8  # = m4_1 + m4_2 + 6 m2_1 m2_2


@st.composite
def _sym_dists(draw):
    support = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True))
    masses = [F(draw(st.integers(1, 5))) for _ in support]
    probs = {}
    for k, m in zip(support, masses):
        probs[k] = probs.get(k, F(0)) + m
        probs[-k] = probs.get(-k, F(0)) + m
    total = sum(probs.values())
    return distribution_from_probs({k: v / total for k, v in probs.items()})


@given(st.lists(_sym_dists(), min_size=2, max_size=4))
@settings(max_examples=40, deadline=None)
def test_convolution_moment_additivity(dists):
    conv = functools.reduce(WeightDistribution.convolve, dists)
    m2s = [d.moment(2) for d in dists]
    m4s = [d.moment(4) for d in dists]
    assert conv.moment(2) == sum(m2s)
    cross = sum(
        6 * m2s[i] * m2s[j] for i in range(len(dists)) for j in range(i + 1, len(dists))
    )
    assert conv.moment(4) == sum(m4s) + cross


def test_haar_sampler_moments():
    rng = np.random.default_rng(123)
    u = _haar_from_normals(_normals(3, 100_000, rng))
    traces = np.einsum("sii->s", u)
    mean = traces.mean()
    std = traces.std() / np.sqrt(len(traces))
    assert abs(mean) <= 3 * np.sqrt(2) * std + 1e-3
    second = (np.abs(traces) ** 2).mean()
    err2 = (np.abs(traces) ** 2).std() / np.sqrt(len(traces))
    assert abs(second - 1) <= 3 * err2


def _haar_unitaries_ref(d, count, rng):
    """The out-of-place sampler that the in-place one replaced."""
    import math

    z = rng.standard_normal((count, d, d)) + 1j * rng.standard_normal((count, d, d))
    q, r = np.linalg.qr(z / math.sqrt(2))
    diag = np.einsum("sii->si", r)
    phases = diag / np.abs(diag)
    return q * phases[:, None, :]


def test_haar_sampler_matches_out_of_place_reference():
    for d, count in ((1, 5), (2, 1000), (3, 8192), (8, 8192), (8, 1808), (11, 17)):
        for seed in (0, 1, 99):
            new = _haar_from_normals(_normals(d, count, np.random.default_rng(seed)))
            ref = _haar_unitaries_ref(d, count, np.random.default_rng(seed))
            assert new.dtype == ref.dtype and new.shape == ref.shape
            assert new.tobytes() == ref.tobytes(), (d, count, seed)


def test_hciz_monte_carlo_zero_matrix():
    a = HermitianSpectrum((0, 0, 0))
    b = HermitianSpectrum((1, 0, -1))
    rep = hciz_monte_carlo(a, b, 2, 2000, seed=5)
    assert rep.estimate == 0 and rep.stderr == 0


def test_hciz_monte_carlo_power_mode():
    a = HermitianSpectrum((1, 0, -1))
    b = HermitianSpectrum((F(3, 2), F(-1, 2), F(-1)))
    exact = float(hciz_power_sum(a, b, 2))
    rep = hciz_monte_carlo(a, b, 2, 60_000, seed=7)
    assert abs(rep.estimate.real - exact) <= 3 * rep.stderr


def test_hciz_monte_carlo_exp_mode():
    a = HermitianSpectrum((1, -1))
    rep = hciz_monte_carlo(a, a, 1, 60_000, seed=7, mode="exp")
    exact = hciz_exponential_exact(a, a)
    assert abs(exact - np.sin(2) / 2) < 1e-12
    assert abs(rep.estimate - exact) <= 3 * rep.stderr


def test_hciz_monte_carlo_deterministic():
    a = HermitianSpectrum((1, 0, -1))
    r1 = hciz_monte_carlo(a, a, 2, 10_000, seed=42)
    r2 = hciz_monte_carlo(a, a, 2, 10_000, seed=42)
    assert r1 == r2


def test_distribution_json(capsys):
    # The distribution of S((1, 0, 0, 0)) under TraceZeroSigned(2, 4).
    assert main(["moments", "--sig", "1,0,0,0", "--r", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distribution"] == {"-1": "1/4", "0": "1/2", "1": "1/4"}


def test_moment_ratio():
    dist = distribution_from_probs({1: F(1, 2), -1: F(1, 2)})
    assert dist.moment_ratio() == 1
    assert distribution_from_probs({0: F(1)}).moment_ratio() is None


def test_monte_carlo_sample_floor():
    a = HermitianSpectrum((1, -1))
    with pytest.raises(ValueError):
        hciz_monte_carlo(a, a, 2, 999, seed=1)


@functools.lru_cache(maxsize=1)
def _serial_traces(a, b, samples, seed):
    """Per-sample Tr(U A U^{-1} B) from the serial chunk loop; the two modes share one draw."""
    av = np.array([float(v) for v in a.eigenvalues])
    bv = np.array([float(v) for v in b.eigenvalues])
    nchunks = (samples + MC_CHUNK - 1) // MC_CHUNK
    children = np.random.SeedSequence(seed).spawn(nchunks)
    traces = np.empty(samples)
    done = 0
    for child in children:
        take = min(MC_CHUNK, samples - done)
        u = _haar_from_normals(_normals(a.d, take, np.random.default_rng(child)))
        traces[done : done + take] = np.einsum("sij,j,i->s", np.abs(u) ** 2, av, bv)
        done += take
    return traces


def _hciz_monte_carlo_ref(a, b, n, samples, seed, mode="power"):
    """The serial chunk loop that the thread pool replaced: (estimate, stderr)."""
    traces = _serial_traces(a, b, samples, seed)
    values = np.exp(1j * traces) if mode == "exp" else traces**n
    est = values.mean()
    if mode == "exp":
        return complex(est), math.sqrt((values.real.var() + values.imag.var()) / samples)
    return complex(est), math.sqrt(values.real.var() / samples)


def _mc_spectra(d):
    a = HermitianSpectrum(tuple(F(i - d // 2, 3) for i in range(d)))
    b = HermitianSpectrum(tuple(F((7 * i) % 5 - 2, 2) for i in range(d)))
    return a, b


def _hex(estimate, stderr):
    return estimate.real.hex(), estimate.imag.hex(), stderr.hex()


MC_SAMPLES = (1000, 8191, 8192, 8193, 3 * 8192 + 5, 100_000)


@pytest.mark.parametrize("d", (1, 2, 3, 5, 8, 11))
def test_hciz_monte_carlo_matches_serial_reference(d):
    a, b = _mc_spectra(d)
    for samples in MC_SAMPLES:
        for seed in (0, 2**31 + 5):
            for mode, n in (("power", 3), ("exp", 1)):
                rep = hciz_monte_carlo(a, b, n, samples, seed, mode=mode)
                ref = _hciz_monte_carlo_ref(a, b, n, samples, seed, mode)
                assert _hex(rep.estimate, rep.stderr) == _hex(*ref), (d, samples, mode, seed)


@pytest.mark.parametrize("workers", (1, 3, 5))
def test_hciz_monte_carlo_ignores_the_worker_count(monkeypatch, workers):
    a, b = _mc_spectra(4)
    refs = {mode: _hciz_monte_carlo_ref(a, b, 2, 3 * 8192 + 5, 11, mode) for mode in ("power", "exp")}
    monkeypatch.setattr(moments, "_mc_workers", lambda nchunks: min(nchunks, workers))
    for mode, ref in refs.items():
        rep = hciz_monte_carlo(a, b, 2, 3 * 8192 + 5, 11, mode=mode)
        assert _hex(rep.estimate, rep.stderr) == _hex(*ref), mode


def test_hciz_monte_carlo_concurrent_callers():
    import sys
    import threading

    a, b = _mc_spectra(5)
    ref = _hex(*_hciz_monte_carlo_ref(a, b, 2, 30_000, 3))
    results = [None] * 4

    def call(slot):
        rep = hciz_monte_carlo(a, b, 2, 30_000, 3)
        results[slot] = _hex(rep.estimate, rep.stderr)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [ref] * 4


def test_hciz_monte_carlo_peak_memory_within_stated_bound():
    import tracemalloc

    d, samples = 8, 100_000
    a, b = _mc_spectra(d)
    workers = moments._mc_workers((samples + MC_CHUNK - 1) // MC_CHUNK)
    # The docstring's bound: per worker, the chunk's normals plus one
    # sub-batch; plus the values array.
    bound = workers * (16 * d * d * MC_CHUNK + 80 * d * d * MC_BATCH) + 8 * samples
    tracemalloc.start()
    try:
        hciz_monte_carlo(a, b, 2, samples, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound, (peak, bound, workers)


@pytest.mark.parametrize(
    "n, seed, message",
    [
        (-1, 1, "n must be a nonnegative integer, got -1"),
        (2.5, 1, "n must be a nonnegative integer, got 2.5"),
        (2, -1, "seed must be a nonnegative integer, got -1"),
        (2, 1.5, "seed must be a nonnegative integer, got 1.5"),
    ],
)
def test_hciz_monte_carlo_rejects_bad_n_and_seed(monkeypatch, n, seed, message):
    def no_sampling(*args):
        raise AssertionError("sampled before validating the arguments")

    monkeypatch.setattr(moments, "_normals", no_sampling)
    a = HermitianSpectrum((1, -1))
    with pytest.raises(ValueError, match=f"^{message}$"):
        hciz_monte_carlo(a, a, n, 1000, seed)


def test_multiblock_distribution_is_convolution():
    # A product character along exp(itF) with F split across two blocks has
    # the convolution of the per-block distributions, and the second and
    # fourth moments obey the additivity identities.
    cases = [
        (S((1, 0, 0, 0)), S((2, 0, -1)), 4, 2),
        (S((1, 1, 0, -1)), S((1, 0, 0)), 2, 2),
    ]
    for sig1, sig2, r1, r2 in cases:
        d1, d2 = sig1.d, sig2.d
        f1 = TraceZeroSigned(r1, d1)
        f2 = TraceZeroSigned(r2, d2)
        dist1 = weight_distribution(sig1, f1)
        dist2 = weight_distribution(sig2, f2)
        conv = dist1.convolve(dist2)
        assert conv.moment(2) == dist1.moment(2) + dist2.moment(2)
        assert conv.moment(4) == (
            dist1.moment(4) + dist2.moment(4) + 6 * dist1.moment(2) * dist2.moment(2)
        )
        # Brute-force oracle for the convolution itself.
        direct = {}
        for k1, p1 in dist1.probs.items():
            for k2, p2 in dist2.probs.items():
                direct[k1 + k2] = direct.get(k1 + k2, F(0)) + p1 * p2
        assert conv.probs == {k: v for k, v in direct.items() if v}


def test_moments_invariant_under_determinant_shift():
    # The hat convention is a traceless shift; any additive convention gives
    # identical moments because the partition sums see only the traceless part.
    import random

    rng = random.Random(55)
    for _ in range(20):
        d = rng.randint(4, 6)
        entries = tuple(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True))
        sig = S(entries)
        shift = rng.randint(-3, 3)
        shifted = S(tuple(e + shift for e in entries))
        r = 2 * rng.randint(1, d // 2)
        f = TraceZeroSigned(r, d)
        assert moment2_closed(sig, f) == moment2_closed(shifted, f)
        assert moment4_closed(sig, f) == moment4_closed(shifted, f)
        assert weight_distribution(sig, f).probs == weight_distribution(shifted, f).probs


# The Fraction-spectrum implementations that the integer layer replaced, kept
# verbatim (up to the names) as the reference for exact equality.


def _moment2_closed_ref(sig, f):
    d = sig.d
    if d < 2:
        raise ValueError("d >= 2 required")
    lhat = center(HermitianSpectrum(sig.entries))
    rd = rho(d)
    mixed = sum(
        (2 * a * b + a * a for a, b in zip(lhat.eigenvalues, rd.eigenvalues)),
        Fraction(0),
    )
    return Fraction(f.r) * mixed / (d * d - 1)


def _moment4_closed_ref(sig, f):
    d = sig.d
    if d < 4:
        raise ValueError("d >= 4 required")
    lhat = center(HermitianSpectrum(sig.entries))
    rd = rho(d)
    m2 = _moment2_closed_ref(sig, f)
    return (
        J_closed_ref(spectrum_sum(rd, lhat), f.r, 4)
        - 6 * m2 * J_closed_ref(rd, f.r, 2)
        - J_closed_ref(rd, f.r, 4)
    )


def _estimate_fields_ref(sig, f):
    d = sig.d
    d2 = d * d
    c1 = Fraction(3 * (d2 - 1) * (d2 * d2 - 6 * d2 + 18), d2 * (d2 - 4) * (d2 - 9))
    c2 = Fraction(2 * (d2 * d2 - 2 * d2 - 3), (d2 - 4) * (d2 - 9))
    m2 = _moment2_closed_ref(sig, f)
    m4 = _moment4_closed_ref(sig, f)
    bound = c1 * m2 * m2 + c2 * m2
    return m2, m4, c1, c2, bound, m4 <= bound


def _hciz_power_sum_ref(a, b, n):
    from weylchar.combinatorics import EMPTY, partitions_of, signature_from_pair
    from weylchar.symfunc import schur_to_power_sums, weyl_dim

    if a.d != b.d:
        raise ValueError("spectra must have equal size")
    d = a.d
    pa = {j: a.trace(j) for j in range(1, n + 1)}
    pb = {j: b.trace(j) for j in range(1, n + 1)}
    total = Fraction(0)
    for lam in partitions_of(n):
        if lam.length > d:
            continue
        exp = schur_to_power_sums(lam)
        total += (
            Fraction(hook_length_dim(lam))
            * power_sum_value(exp, pa)
            * power_sum_value(exp, pb)
            / weyl_dim(signature_from_pair(lam, EMPTY, d))
        )
    return total


def test_closed_forms_match_fraction_reference():
    rng = random.Random(2024)
    sigs = [S((1, 0, 0, 0)), S((0,) * 5), S((9,) * 6), S((9, -9, -9, -9))]
    sigs += [S(tuple(sorted((rng.randint(-9, 9) for _ in range(d)), reverse=True)))
             for d in [rng.randint(4, 16) for _ in range(60)]]
    estimates = 0
    for sig in sigs:
        d = sig.d
        for r in range(2, d + 1, 2):
            f = TraceZeroSigned(r, d)
            for new, ref in ((moment2_closed(sig, f), _moment2_closed_ref(sig, f)),
                             (moment4_closed(sig, f), _moment4_closed_ref(sig, f))):
                assert new == ref and repr(new) == repr(ref), (sig, r)
            if 3 * r >= 2 * d:
                report = estimate_check(sig, f)
                fields = (report.m2, report.m4, report.c1, report.c2, report.bound, report.holds)
                ref = _estimate_fields_ref(sig, f)
                assert fields == ref and repr(fields) == repr(ref), (sig, r)
                estimates += 1
    assert estimates > 100
    # d = 2, 3 have a second moment but no fourth.
    for sig in (S((2, -1)), S((3, 1, -4))):
        f = TraceZeroSigned(2, sig.d)
        assert repr(moment2_closed(sig, f)) == repr(_moment2_closed_ref(sig, f))
        with pytest.raises(ValueError):
            moment4_closed(sig, f)


def test_J_closed_matches_fraction_reference():
    # The Fraction closed form against the partition sum at rational spectra.
    rng = random.Random(31)
    for _ in range(80):
        d = rng.randint(2, 12)
        raw = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
        spec = center(HermitianSpectrum(raw))
        for r in range(2, d + 1, 2):
            for n in (2, 4) if d >= 4 else (2,):
                assert J_closed_ref(spec, r, n) == _J(spec, TraceZeroSigned(r, d), n), (raw, r, n)


def test_hciz_power_sum_matches_fraction_reference():
    rng = random.Random(9)
    cases = 0
    for _ in range(45):
        d = rng.randint(1, 7)
        n = rng.randint(1, 10) if cases % 3 else rng.randint(d + 1, 10)
        a, b = (HermitianSpectrum(tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                                        for _ in range(d))) for _ in range(2))
        new, ref = hciz_power_sum(a, b, n), _hciz_power_sum_ref(a, b, n)
        assert new == ref and repr(new) == repr(ref), (a, b, n)
        cases += 1
    zero = HermitianSpectrum((0, 0, 0))
    assert repr(hciz_power_sum(zero, zero, 0)) == repr(_hciz_power_sum_ref(zero, zero, 0))
    assert hciz_power_sum(zero, HermitianSpectrum((1, 2, 3)), 3) == 0
    with pytest.raises(ValueError):
        hciz_power_sum(zero, zero, -1)


def test_hciz_power_sum_matches_the_fraction_weight_loop():
    # Every n up to the power-sum bound at every d <= 7, so the lam with more
    # than d rows are cut off for every n > d.
    rng = random.Random(24)
    for d in range(1, 8):
        for n in range(0, 13):
            a, b = (HermitianSpectrum(tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                                            for _ in range(d))) for _ in range(2))
            new, ref = hciz_power_sum(a, b, n), fraction_weight_hciz_power_sum(a, b, n)
            assert new == ref and repr(new) == repr(ref), (a, b, n)


def _weight_distribution_ref(sig, f):
    """The per-pattern `Fraction` sum that the integer tally replaced."""
    from weylchar.gtkernel import group_counts

    if f.d != sig.d:
        raise ValueError(f"F lives on d = {f.d}, signature on d = {sig.d}")
    counts = group_counts(sig.entries, f.groups(), 3)
    dim = weyl_dim(sig)
    masses: dict[int, Fraction] = {}
    for (plus, minus, _zero), mult in counts.items():
        k = plus - minus
        masses[k] = masses.get(k, Fraction(0)) + Fraction(mult, dim)
    return distribution_from_probs(masses)


def _moment_ref(dist, p):
    """The per-mass `Fraction` moment that the common-denominator sum replaced."""
    return sum((Fraction(k**p) * v for k, v in dist.probs.items()), Fraction(0))


def _assert_same_moments(dist, ref_probs):
    for p in range(7):
        new, ref = dist.moment(p), _moment_ref(distribution_from_probs(ref_probs), p)
        assert new == ref and repr(new) == repr(ref), (ref_probs, p)


def test_integer_tally_matches_fraction_reference():
    cases = 0
    for d in range(4, 8):
        for sig in signatures_with_entries(d, -2, 2):
            for r in range(2, d + 1, 2):
                f = TraceZeroSigned(r, d)
                new, ref = weight_distribution(sig, f), _weight_distribution_ref(sig, f)
                assert new.probs == ref.probs, (sig, r)
                assert all(type(v) is Fraction for v in new.probs.values())
                _assert_same_moments(new, ref.probs)
                cases += 1
    assert cases == 2012


def test_moment_over_unequal_denominators():
    rng = random.Random(23)
    for _ in range(200):
        support = rng.sample(range(-9, 10), rng.randint(1, 6))
        weights = [F(rng.randint(1, 30), rng.randint(1, 40)) for _ in support]
        total = sum(weights)
        probs = {k: w / total for k, w in zip(support, weights)}
        _assert_same_moments(distribution_from_probs(probs), probs)
    probs = {-3: F(1, 6), 0: F(1, 4), 2: F(7, 12)}
    dist = distribution_from_probs(probs)
    assert dist.moment(1) == F(2, 3) and dist.moment(0) == 1
    _assert_same_moments(dist, probs)
    # Zero masses drop out; a denominator-1 mass keeps its own scale.
    assert distribution_from_probs({5: F(1), 2: F(0)}).moment(3) == 125


def test_distribution_constructor_errors():
    with pytest.raises(ValueError, match="negative mass"):
        distribution_from_probs({0: F(3, 2), 1: F(-1, 2)})
    with pytest.raises(ValueError, match="masses must sum to 1"):
        distribution_from_probs({0: F(1, 3), 1: F(1, 2)})
    with pytest.raises(ValueError, match="masses must sum to 1"):
        distribution_from_probs({0: F(2, 3), 1: F(1, 2)})
    with pytest.raises(ValueError, match="masses must sum to 1"):
        distribution_from_probs({})


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: HermitianSpectrum(()), "spectrum must be nonempty"),
        (lambda: spectrum_sum(HermitianSpectrum((1,)), rho(2)), "spectra of different sizes"),
        (lambda: rho(0), "d must be positive"),
        (lambda: weight_distribution(S((1, 0)), TraceZeroSigned(2, 4)),
         "F lives on d = 4, signature on d = 2"),
        (lambda: hciz_power_sum(rho(2), rho(3), 2), "spectra must have equal size"),
        (lambda: moment2_closed(S((1,)), TraceZeroSigned(2, 2)), "d >= 2 required"),
        (lambda: estimate_check(S((1, 0, 0)), TraceZeroSigned(2, 3)), "d >= 4 required"),
        (lambda: hciz_monte_carlo(rho(2), rho(3), 2, 1000, 0), "spectra must share d"),
        (lambda: hciz_monte_carlo(rho(2), rho(2), 2, 1000, 0, mode="log"), "unknown mode 'log'"),
        (lambda: hciz_exponential_exact(rho(2), rho(3)), "spectra must share d"),
        (lambda: hciz_exponential_exact(HermitianSpectrum((1, 1)), rho(2)),
         "needs simple spectra"),
    ],
)
def test_input_refusals(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
