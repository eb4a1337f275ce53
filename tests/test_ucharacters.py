import cmath
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reference import (
    all_signature_pairs,
    brute_force_counts,
    char_float_ref,
    concatenated_embed,
    enumerate_gt_patterns,
    eval_by_gt,
    exact_values,
    gt_weight,
    mp_alternant,
    mp_grouped_char,
    pairing_counts,
    rational_approx_defect,
)
from weylchar.afalgebra import BlockUnitary, embed, preset_diagram
from weylchar.cli import main
from weylchar.combinatorics import Partition, Signature, signature_from_pair
from weylchar.errors import BudgetExceeded
from weylchar.exact import QQi, phase_sum
from weylchar.symfunc import weyl_dim
from weylchar.ucharacters import (
    DiagonalUnitary,
    char_eval,
    char_float,
    check_branching_inequalities,
    over_dim,
    restrict_to_blocks,
    tensor_decompose,
)

P = Partition
S = Signature


def normalized_char(sig, u):
    """The character divided by its Weyl dimension, as `ergodic_sequence` divides it."""
    return over_dim(char_eval(sig, u), weyl_dim(sig))


def test_char_eval_trivial_cases():
    u = DiagonalUnitary((Fraction(0), Fraction(1, 2)))  # diag(1, -1)
    assert abs(complex(char_eval(S((1, 0)), u))) < 1e-12
    anything = DiagonalUnitary((0.13, 0.02, 0.9))
    assert abs(char_eval(S((0, 0, 0)), anything) - 1) < 1e-12


def test_char_eval_adjoint_exact():
    u = DiagonalUnitary((Fraction(1, 4), Fraction(3, 4)))  # diag(i, -i)
    val = char_eval(S((1, -1)), u)
    assert val == QQi.of(-1)
    # Oracle: explicit 3-dim expansion x1/x2 + 1 + x2/x1 = -1 - ... at (i, -i)
    x1, x2 = 1j, -1j
    assert abs(complex(char_eval(S((1, -1)), u)) - (x1 / x2 + 1 + x2 / x1)) < 1e-12


def test_normalized_char_examples():
    u = DiagonalUnitary((Fraction(1, 4), Fraction(3, 4)))
    assert normalized_char(S((1, -1)), u) == QQi.of(Fraction(-1, 3))
    ident = DiagonalUnitary.identity(4)
    assert normalized_char(S((3, 1, 0, -2)), ident) == QQi.of(1)
    z = cmath.exp(2j * cmath.pi * 0.37)
    u2 = DiagonalUnitary((0.37, 0.0, 0.0, 0.0))
    assert abs(normalized_char(S((1, 0, 0, 0)), u2) - (z + 3) / 4) < 1e-12


def test_char_dimension_mismatch():
    with pytest.raises(ValueError):
        char_eval(S((1, 0)), DiagonalUnitary.identity(3))


def test_char_routes_agree():
    # The float route against GT aggregation on random spectra.
    rng = random.Random(17)
    for _ in range(200):
        d = rng.randint(2, 5)
        entries = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
        sig = S(entries)
        angles = tuple(Fraction(rng.randint(0, 7), 8) for _ in range(d))
        u = DiagonalUnitary(angles)
        # Float angles take the float route, also where angles collide.
        numeric = char_eval(sig, DiagonalUnitary(tuple(map(float, angles))))
        exact = char_eval(sig, u) if all(
            a.denominator in (1, 2, 4) for a in angles
        ) else None
        distinct = len(set(angles)) == d
        if distinct:
            gt = eval_by_gt(sig.entries, u.complex_values())
            assert abs(numeric - gt) < 1e-9 * max(1.0, abs(gt))
        if exact is not None:
            assert abs(numeric - complex(exact)) < 1e-9 * max(1.0, abs(complex(exact)))


def _signatures(max_d: int, bound: int):
    return st.integers(1, max_d).flatmap(
        lambda d: st.lists(st.integers(-bound, bound), min_size=d, max_size=d)
    ).map(lambda xs: S(tuple(sorted(xs, reverse=True))))


def _dual_form(sig) -> bool:
    """Whether char_float takes the e form: l(lam) + l(mu) >= lam_1 + mu_1."""
    lam = [e for e in sig.entries if e > 0]
    mu = [-e for e in sig.entries if e < 0]
    return len(lam) + len(mu) >= max(lam, default=0) + max(mu, default=0)


@pytest.mark.parametrize("dual", (False, True))
@given(sig=_signatures(7, 4), data=st.data())
@settings(max_examples=80, deadline=None)
def test_float_route_matches_the_phase_count_within_its_bound(dual, sig, data):
    assume(_dual_form(sig) == dual)
    turns = data.draw(st.lists(st.integers(0, 3), min_size=sig.d, max_size=sig.d))
    exact = char_eval(sig, DiagonalUnitary(tuple(Fraction(k, 4) for k in turns)))
    value, bound = char_float(sig, DiagonalUnitary(tuple(k / 4 for k in turns)))
    assert abs(value - complex(exact)) <= bound, (sig, turns)


@pytest.mark.parametrize("k", range(3, 10))
def test_float_bound_covers_mpmath_at_near_confluent_spectra(k):
    sig = S((4, 3, 2, 1, 0, -1, -2))
    u = DiagonalUnitary(tuple(0.1 + j * 10.0**-k for j in range(7)))
    pytest.importorskip("mpmath")
    value, bound = char_float(sig, u)
    assert abs(value - mp_alternant(sig.entries, u.angles)) <= bound
    assert bound <= 1e-6 * weyl_dim(sig)


def test_char_near_confluent_cli_is_within_its_bound(capsys):
    # The alternant quotient printed 5.04e37 here.
    u = ",".join(f"{j}/10000000" for j in range(7))
    assert main(["char", "--sig", "4,3,2,1,0,-1,-2", "--u", u]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "trace_exact" not in payload
    normalized = complex(*payload["normalized"])
    assert abs(normalized - (1 + 1.3195e-5j)) < 1e-8
    pytest.importorskip("mpmath")
    ref = mp_alternant((4, 3, 2, 1, 0, -1, -2), [Fraction(j, 10**7) for j in range(7)])
    assert abs(normalized - ref / payload["dim"]) <= payload["error_bound"] / payload["dim"]


@given(sig=_signatures(8, 3), data=st.data())
@settings(max_examples=120, deadline=None)
def test_float_normalized_character_is_at_most_one_within_its_bound(sig, data):
    start = data.draw(st.floats(0, 1, exclude_max=True))
    spacing = data.draw(st.sampled_from((0.0, 1e-12, 1e-7, 1e-3, 0.1)))
    jitter = data.draw(st.lists(st.floats(0, 1), min_size=sig.d, max_size=sig.d))
    u = DiagonalUnitary(tuple(start + spacing * j * (1 + t) for j, t in enumerate(jitter)))
    value, bound = char_float(sig, u)
    dim = weyl_dim(sig)
    assert abs(value) / dim <= 1 + bound / dim


def test_float_route_at_d_4096_is_finite_and_within_its_bound():
    d = 4096
    sig = signature_from_pair(P((1, 1)), P((2, 1)), d)
    half = (Fraction(1, 4),) * (d // 2) + (Fraction(0),) * (d // 2)
    exact = complex(char_eval(sig, DiagonalUnitary(half)))
    value, bound = char_float(sig, DiagonalUnitary(tuple(map(float, half))))
    assert cmath.isfinite(value) and math.isfinite(bound)
    assert abs(value - exact) <= bound


@pytest.mark.parametrize(
    "bad", (math.nan, math.inf, -math.inf, pytest.param(np.float64("inf"), id="numpy-inf"))
)
def test_diagonal_unitary_refuses_non_finite_angles(bad):
    with pytest.raises(ValueError, match="finite"):
        DiagonalUnitary((bad, 0.1, 0.2))
    # Beside exact angles, which need no finiteness check of their own.
    with pytest.raises(ValueError, match="finite"):
        DiagonalUnitary((Fraction(1, 4), 3, bad))


def test_diagonal_unitary_keeps_its_angles():
    raw = (Fraction(1, 4), Fraction(5, 4), Fraction(-1, 3), 3, True, 0.25, -0.75, 1.5,
           np.float64(0.125), Fraction(0))
    kept = (Fraction(1, 4), Fraction(1, 4), Fraction(2, 3), Fraction(0), Fraction(0), 0.25,
            0.25, 0.5, 0.125, Fraction(0))
    angles = DiagonalUnitary(raw).angles
    assert angles == kept
    assert [type(a) for a in angles] == [type(a) for a in kept]
    assert DiagonalUnitary(raw[:1]).angles[0] is raw[0]


def _assert_phase_count_is_exact(sig, u):
    # The reference is the Schur polynomial at the Gaussian rational eigenvalues.
    value = char_eval(sig, u)
    assert type(value) is QQi, (sig, u)
    assert value == QQi.of(eval_by_gt(sig.entries, exact_values(u))), (sig, u)


def test_quarter_turn_characters_equal_the_gaussian_rational_sum():
    rng = random.Random(41)
    for _ in range(120):
        d = rng.randint(1, 8)
        entries = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
        u = DiagonalUnitary(tuple(Fraction(rng.randrange(4), 4) for _ in range(d)))
        _assert_phase_count_is_exact(S(entries), u)
    # Tower spectra: level-1 quarter turns embedded up to d = 256 (CAR) and 243 (UHF 3).
    for name, depth in (("car", 8), ("uhf:3", 5)):
        diagram = preset_diagram(name, depth=depth)
        k = diagram.levels[1][0]
        base = BlockUnitary(1, (DiagonalUnitary(tuple(Fraction(rng.randrange(4), 4)
                                                      for _ in range(k))),))
        for n in range(1, depth + 1):
            u = embed(base, diagram, n).blocks[0]
            for lam, mu in (((1,), (1,)), ((2,), (1,)), ((1, 1), (2,)), ((2, 1), ())):
                if len(lam) + len(mu) <= u.d:
                    _assert_phase_count_is_exact(signature_from_pair(P(lam), P(mu), u.d), u)


def test_normalized_char_bounded_and_central():
    rng = random.Random(23)
    for _ in range(50):
        d = rng.randint(2, 4)
        entries = tuple(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True))
        sig = S(entries)
        u = DiagonalUnitary(tuple(rng.random() for _ in range(d)))
        assert abs(normalized_char(sig, u)) <= 1 + 1e-9
        # central element z * 1_d
        turn = Fraction(rng.randint(0, 3), 4)
        central = DiagonalUnitary((turn,) * d)
        val = normalized_char(sig, central)
        z = complex(QQi.of(1)) if turn == 0 else cmath.exp(2j * cmath.pi * float(turn))
        assert abs(complex(val) - z ** sum(entries)) < 1e-12


def test_restrict_defining_rep():
    dec = restrict_to_blocks(S((1, 0)), 1, 1)
    assert {(a.entries, b.entries): m for a, b, m in dec.components} == {
        ((1,), (0,)): 1,
        ((0,), (1,)): 1,
    }


def test_restrict_sym_square():
    dec = restrict_to_blocks(S((2, 0)), 1, 1)
    assert {(a.entries, b.entries): m for a, b, m in dec.components} == {
        ((2,), (0,)): 1,
        ((1,), (1,)): 1,
        ((0,), (2,)): 1,
    }


def test_restrict_adjoint_u3():
    # Exhaustive weight bookkeeping oracle: the union of component weights,
    # with the U(1) weight prepended, must reproduce the parent multiset.
    sig = S((1, 0, -1))
    dec = restrict_to_blocks(sig, 1, 2)
    assert dec.total_dim() == 8
    assert len(dec.components) == 4
    rebuilt = {}
    for s1, s2, mult in dec.components:
        for pat in enumerate_gt_patterns(s2):
            w = (s1.entries[0],) + gt_weight(pat)
            rebuilt[w] = rebuilt.get(w, 0) + mult
    assert rebuilt == brute_force_counts(sig.entries, (0, 1, 2), 3)


def test_restrict_weight_oracle_random():
    rng = random.Random(31)
    for _ in range(15):
        d = rng.randint(2, 4)
        entries = tuple(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True))
        sig = S(entries)
        d1 = rng.randint(1, d - 1)
        d2 = d - d1
        dec = restrict_to_blocks(sig, d1, d2)
        assert dec.total_dim() == weyl_dim(sig)
        rebuilt = {}
        for s1, s2, mult in dec.components:
            for p1 in enumerate_gt_patterns(s1):
                for p2 in enumerate_gt_patterns(s2):
                    w = gt_weight(p1) + gt_weight(p2)
                    rebuilt[w] = rebuilt.get(w, 0) + mult
        assert rebuilt == brute_force_counts(entries, tuple(range(d)), d)


# The ten restrictions of the exact_sweep benchmark workload at seed 0, as (entries, d1).
SWEEP_RESTRICTIONS = (
    ((4, 2, 1, 0, -1, -2, -4), 3),
    ((4, 3, -1, -3, -4, -4), 4),
    ((4, 2, 0, -3, -4, -4), 5),
    ((4, 2, -1, -2, -3, -4), 1),
    ((4, 3, 2, 1, 0, -2, -2), 4),
    ((4, 3, 1, 1, 0, -1, -2), 3),
    ((2, 1, 0, -1, -3, -4, -4), 2),
    ((4, 2, 2, 1, 0, 0, -1, -1), 1),
    ((1, 0, 0, -2, -3, -3, -4, -4), 2),
    ((2, 1, 0, 0, -3, -4, -4, -4), 3),
)


def test_total_dim_matches_naive_sum():
    rng = random.Random(59)
    cases = list(SWEEP_RESTRICTIONS)
    for _ in range(20):
        d = rng.randint(2, 6)
        entries = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
        cases.append((entries, rng.randint(1, d - 1)))
    for entries, d1 in cases:
        dec = restrict_to_blocks(S(entries), d1, len(entries) - d1, dim_budget=10**9)
        naive = sum(m * weyl_dim(s1) * weyl_dim(s2) for s1, s2, m in dec.components)
        assert dec.total_dim() == naive == weyl_dim(S(entries)), (entries, d1)


def test_tensor_defining_reps():
    comps = tensor_decompose(S((1, 0)), S((1, 0)))
    assert [(s.entries, m) for s, m in comps] == [((1, 1), 1), ((2, 0), 1)]


def test_tensor_with_trivial():
    sig = S((2, 0, -1))
    comps = tensor_decompose(sig, S((0, 0, 0)))
    assert comps == ((sig, 1),)


def test_tensor_adjoint_squared():
    comps = tensor_decompose(S((1, 0, -1)), S((1, 0, -1)))
    assert sum(m * weyl_dim(s) for s, m in comps) == 64
    # Numeric character-product oracle at a random spectrum.
    u = DiagonalUnitary((0.11, 0.43, 0.78))
    lhs = char_eval(S((1, 0, -1)), u) ** 2
    rhs = sum(m * char_eval(s, u) for s, m in comps)
    assert abs(lhs - rhs) < 1e-9


def test_tensor_character_product_oracle_random():
    rng = random.Random(41)
    for _ in range(10):
        d = rng.randint(2, 3)
        e1 = tuple(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True))
        e2 = tuple(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True))
        comps = tensor_decompose(S(e1), S(e2))
        u = DiagonalUnitary(tuple(rng.random() for _ in range(d)))
        lhs = char_eval(S(e1), u) * char_eval(S(e2), u)
        rhs = sum(m * char_eval(s, u) for s, m in comps)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        tensor_decompose(S((6, 0, 0, -6)), S((6, 0, 0, -6)), dim_budget=100)
    with pytest.raises(BudgetExceeded):
        restrict_to_blocks(S((8, 4, 0, -8)), 2, 2, dim_budget=10)


def test_branching_inequalities_tensor():
    sig = S((1, 0, -1))
    comps = tensor_decompose(sig, sig)
    report = check_branching_inequalities(comps, (sig, sig))
    assert report.holds and report.kind == "tensor"
    comps2 = tensor_decompose(S((1, 0)), S((1, 0)))
    assert check_branching_inequalities(comps2, (S((1, 0)), S((1, 0)))).holds


def test_branching_inequalities_restriction_sweep():
    for d in range(2, 7):
        for sig in all_signature_pairs(d, 2):
            if weyl_dim(sig) > 50_000:
                continue
            for d1 in range(1, d):
                dec = restrict_to_blocks(sig, d1, d - d1)
                assert check_branching_inequalities(dec, sig).holds, (sig, d1)


def test_defect_examples():
    u = DiagonalUnitary((0.2, 0.5, 0.7, 0.9))
    assert rational_approx_defect(P((1,)), P(()), u) < 1e-12
    central = DiagonalUnitary((Fraction(1, 4),) * 5)
    assert rational_approx_defect(P((1,)), P((1,)), central) < 1e-12
    for d in (4, 6, 8):
        half = DiagonalUnitary((Fraction(1, 4),) * (d // 2) + (Fraction(0),) * (d // 2))
        expected = 1 / (2 * (d * d - 1))
        assert abs(rational_approx_defect(P((1,)), P((1,)), half) - expected) < 1e-12


def _rational_approx_defect_gt_ref(lam, mu, u):
    """rational_approx_defect on a float spectrum with the GT sum at its values as the character."""
    d = u.d
    sig = signature_from_pair(lam, mu, d)
    chi = complex(eval_by_gt(sig.entries, u.complex_values())) / weyl_dim(sig)
    tr = u.trace()
    target = (tr / d) ** lam.size * (tr.conjugate() / d) ** mu.size
    return abs(chi - target)


def test_defect_float_route_is_the_gt_sum():
    # On float spectra the defect's character comes from char_float, also
    # where eigenvalues sit close together (an alternant quotient is off by up
    # to 1e67 there: d = 8, spacing 1e-7 turns); it stays within its bound of
    # the GT sum.
    rng = random.Random(31)
    pairs = [((1,), ()), ((1,), (1,)), ((2,), (1,)), ((1, 1), (2,)), ((2, 1), (1,))]
    spacings = (None, None, 1e-3, 1e-5, 1e-7)
    for trial in range(300):
        d = rng.randint(2, 8)
        lam, mu = (P(x) for x in rng.choice(pairs))
        if lam.length + mu.length > d:
            continue
        spacing = spacings[trial % len(spacings)]
        if spacing is None:
            angles = [rng.random() for _ in range(d)]
        else:
            start = rng.random()
            angles = [start + k * spacing for k in range(d)]
        if trial % 4 == 0:
            angles[1:] = [rng.choice(angles) for _ in range(d - 1)]
        u = DiagonalUnitary(tuple(angles))
        defect = rational_approx_defect(lam, mu, u)
        sig = signature_from_pair(lam, mu, d)
        bound = char_float(sig, u)[1] / weyl_dim(sig)
        reference = _rational_approx_defect_gt_ref(lam, mu, u)
        assert abs(defect - reference) <= bound + 1e-15, (lam, mu, angles)
        assert defect <= 2


def test_defect_rate_bounded():
    for lam, mu in (((2,), (1,)), ((1, 1), (2,))):
        scaled = []
        for d in (4, 8, 16, 32):
            u = DiagonalUnitary((Fraction(1, 8),) * (d // 4) + (Fraction(0),) * (3 * d // 4))
            scaled.append(rational_approx_defect(P(lam), P(mu), u) * d)
        assert max(scaled) / min(scaled) < 3


def test_block_decomposition_json(capsys):
    assert main(["branch", "--op", "restrict", "--sig", "1,0", "--d1", "1", "--d2", "1"]) == 0
    data = json.loads(capsys.readouterr().out)["components"]
    assert data[0]["multiplicity"] == 1
    assert {"first", "second", "multiplicity"} <= set(data[0])


def test_subpartitions_skip_exactly_the_empty_skew_shapes():
    """The shared walk drops only the alpha whose skew expansion is empty."""
    from itertools import product

    from weylchar.combinatorics import partitions_of, rows_between
    from weylchar.symfunc import skew_expand

    for size in range(11):
        for nu in partitions_of(size):
            if nu.length > 6:
                continue
            for d in range(max(2, nu.length), 7):
                for d1 in range(1, d):
                    d2 = d - d1
                    rows = nu.parts[:d1]
                    # Every alpha inside nu with at most d1 rows, in the walk's
                    # order: lexicographically decreasing.
                    unbounded = [
                        P(t) for t in sorted(product(*(range(r + 1) for r in rows)),
                                             reverse=True)
                        if all(t[i] >= t[i + 1] for i in range(len(t) - 1))
                    ]
                    expected = [a for a in unbounded if skew_expand(nu, a, d2)]
                    # The rows of the jump over a run of d2 from nu padded to length d.
                    lam = tuple(nu.part(i) for i in range(d))
                    got = [P(row) for row in rows_between(lam[:d1], lam[d2:])]
                    assert got == expected, (nu, d1, d2)


def test_restriction_second_factors_sum_to_the_jump_multiplicity():
    """Per first factor alpha: s_{sig/alpha}(1^d2) = sum of mult * dim(s2) over the components."""
    from weylchar import gtkernel

    checked = 0
    for sig in (S((2, 1, 0)), S((3, 1, 1, -1)), S((2, 2, 0, -1, -2)), S((1, 0, 0, 0, 0, -1)),
                S((2, 1, 0, 0, -1, -2))):
        for d1 in range(1, sig.d):
            d2 = sig.d - d1
            per_first: dict = {}
            for s1, s2, mult in restrict_to_blocks(sig, d1, d2).components:
                per_first[s1.entries] = per_first.get(s1.entries, 0) + mult * weyl_dim(s2)
            table = gtkernel._table(sig.entries, d2)
            assert per_first == dict(zip(table[::3], table[2::3])), (sig, d1)
            checked += len(per_first)
    assert checked == 184


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: DiagonalUnitary(()), "need at least one eigenvalue"),
        (lambda: char_float(Signature((1, 0)), DiagonalUnitary((0.1,))),
         "dimension mismatch: signature d=2, unitary d=1"),
        (lambda: restrict_to_blocks(Signature((1, 0, 0)), 1, 1), "d1 + d2 = 2 must equal d = 3"),
        (lambda: restrict_to_blocks(Signature((1, 0, 0)), 0, 3), "both blocks must be nonempty"),
        (lambda: tensor_decompose(Signature((1, 0)), Signature((1, 0, 0))),
         "tensor factors must live on the same U(d)"),
    ],
)
def test_input_refusals(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)


@pytest.mark.parametrize(
    "groups, fragment",
    [
        ((), "need at least one eigenvalue"),
        (((0.1, 2), (0.3, 0)), "multiplicities must be positive"),
        (((math.inf, 2),), "angles must be finite"),
    ],
)
def test_grouped_refusals(groups, fragment):
    with pytest.raises(ValueError) as info:
        DiagonalUnitary.grouped(groups)
    assert fragment in str(info.value)


def test_char_float_bound_is_infinite_past_the_float_range(capsys):
    # At d = 5000 the series counts C(d + k - 1, k) of (200, 0, ..., 0) pass
    # the float range: the bound is infinite, never NaN, and the value finite.
    # So does the dimension, which the normalized value divides exactly.
    d = 5000
    entries = (200,) + (0,) * (d - 1)
    angles = tuple(0.1 + k * 1e-3 for k in range(d))
    value, bound = char_float(Signature(entries), DiagonalUnitary(angles))
    assert bound == math.inf
    assert cmath.isfinite(value)
    with pytest.raises(OverflowError):
        float(weyl_dim(Signature(entries)))
    normalized = normalized_char(Signature(entries), DiagonalUnitary(angles))
    assert cmath.isfinite(normalized) and abs(normalized) <= 1
    argv = ["char", "--sig", ",".join(map(str, entries)), "--u", ",".join(map(repr, angles))]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error_bound"] == math.inf
    assert all(math.isfinite(x) for x in payload["normalized"])
    assert math.hypot(*payload["normalized"]) <= 1


def _flat(groups, rng):
    """The angles of (angle, count) groups, one per eigenvalue, shuffled."""
    angles = [a for a, c in groups for _ in range(c)]
    rng.shuffle(angles)
    return tuple(angles)


def test_grouped_spectra_equal_their_flat_expansion():
    rng = random.Random(2901)
    for trial in range(80):
        quarter = trial % 2 == 0
        pool = range(4) if quarter else range(12)
        turns = rng.sample(pool, rng.randint(1, min(4, len(pool))))
        groups = tuple((Fraction(k, len(pool)), rng.choice((1, 2, 3, 5, 17))) for k in turns)
        grouped = DiagonalUnitary.grouped(groups)
        flat = _flat(groups, rng)
        d = len(flat)
        assert grouped.d == d and sorted(grouped.angles) == sorted(flat)
        lam, mu = rng.choice((((1,), (1,)), ((2,), (1,)), ((1, 1), (2,)), ((2, 1), (1,)), ((3,), ())))
        if len(lam) + len(mu) > d:
            continue
        sig = signature_from_pair(P(lam), P(mu), d)
        value = char_eval(sig, grouped)
        if quarter:
            # The tally of the runs against one coefficient per coordinate.
            per_coordinate = phase_sum(pairing_counts(sig.entries, tuple(int(4 * a) for a in flat)))
            assert value == per_coordinate == char_eval(sig, DiagonalUnitary(flat)), (sig, groups)
            if d <= 8:
                _assert_phase_count_is_exact(sig, grouped)
        else:
            pytest.importorskip("mpmath")
            exact = mp_grouped_char(sig.entries, groups)
            for u in (grouped, DiagonalUnitary(flat)):
                value, bound = char_float(sig, u)
                assert abs(value - exact) <= bound, (sig, groups)


def test_embed_angles_are_the_concatenated_multiset():
    rng = random.Random(2902)
    pool = (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1, 3), 0.25, 0.0, 0.7)
    for name in ("car", "uhf:2,3", "effros-shen", "gicar-excluded"):
        diagram = preset_diagram(name, depth=6)
        for _ in range(10):
            level = rng.randint(0, 3)
            blocks = tuple(DiagonalUnitary(tuple(rng.choice(pool) for _ in range(d)))
                           for d in diagram.levels[level])
            u = BlockUnitary(level, blocks)
            m = rng.randint(level, diagram.depth)
            expected = concatenated_embed(u, diagram, m)
            for block, angles in zip(embed(u, diagram, m).blocks, expected):
                # A float and a Fraction of equal value stay apart.
                assert sorted(map(repr, block.angles)) == sorted(map(repr, angles)), (name, u, m)
                assert block.d == len(angles)
                assert len(block.groups) == len({(a, type(a)) for a in angles})


# Near-confluent groups: two at a spacing of 1e-9 turns, one apart.
_CONFLUENT = (0.1, 0.1 + 1e-9, 0.6)


@pytest.mark.parametrize("c", (2, 3, 4, 5, 16, 64, 512, 4096))
@pytest.mark.parametrize("lam, mu", (((1,), (1,)), ((2,), (1,)), ((1,), (2,)), ((2, 1), (1,)),
                                     ((1, 1), (1,)), ((3,), ())))
def test_char_float_bound_holds_at_repeated_eigenvalues(c, lam, mu):
    pytest.importorskip("mpmath")
    for angles in ((0.13, 0.57, 0.82), _CONFLUENT):
        groups = ((angles[0], c), (angles[1], c), (angles[2], 1))
        u = DiagonalUnitary.grouped(groups)
        sig = signature_from_pair(P(lam), P(mu), u.d)
        value, bound = char_float(sig, u)
        assert abs(value - mp_grouped_char(sig.entries, groups)) <= bound, (sig, groups)
        assert abs(value) <= weyl_dim(sig) + bound
        # No looser than one step per coordinate, up to the rounding of its LU.
        assert bound <= char_float_ref(sig, u)[1] * (1 + 1e-9), (sig, groups)


@pytest.mark.parametrize("lam, mu", (((1,), (1,)), ((2,), (1,)), ((2,), (2,)), ((1, 1), (1,)),
                                     ((3,), ())))
def test_char_float_on_a_pair_at_d_2_64(lam, mu):
    # The signature and the spectrum stay runs and groups: nothing is d long.
    d = 2**64
    u = DiagonalUnitary.grouped(((0.13, d // 2), (0.57, d // 2)))
    sig = signature_from_pair(P(lam), P(mu), d)
    value, bound = char_float(sig, u)
    assert math.isfinite(bound)
    assert abs(value) - bound <= weyl_dim(sig)


_DISTINCT_SIGNATURES = ((1, 0, 0, -1), (2, 0, 0, -1), (1, 1, 0, -2), (3, 1, 0, 0, -1, -2),
                        (4, 3, 2, 1, 0, -1, -2), (2, 2, 1, 0, 0, 0, 0, -1), (5, 0, 0, 0, 0, -3))


@pytest.mark.parametrize("entries", _DISTINCT_SIGNATURES)
def test_char_float_is_the_per_coordinate_series_at_distinct_eigenvalues(entries):
    rng = random.Random(hash(entries) % 1000)
    d = len(entries)
    spectra = [tuple(rng.random() for _ in range(d)) for _ in range(5)]
    spectra += [tuple(0.1 + j * 10.0**-k for j in range(d)) for k in (3, 6, 9)]
    spectra.append(tuple(Fraction(k, 10 * d + 1) for k in rng.sample(range(10 * d + 1), d)))
    for angles in spectra:
        u = DiagonalUnitary(angles)
        assert all(c == 1 for _, c in u.groups)
        value, bound = char_float(S(entries), u)
        ref_value, ref_bound = char_float_ref(S(entries), u)
        got = (value.real.hex(), value.imag.hex(), bound.hex())
        assert got == (ref_value.real.hex(), ref_value.imag.hex(), ref_bound.hex()), angles
