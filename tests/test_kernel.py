import collections
import itertools
import random

import pytest

from reference import brute_force_counts, pairing_counts, two_row_strips
from weylchar import gtkernel
from weylchar.combinatorics import Signature, conjugate, rows_between, signatures_with_entries
from weylchar.moments import TraceZeroSigned


def _level_by_level_counts(entries, groups, ngroups):
    """The kernel before block jumps: one GT row at a time, in coordinate order."""
    d = len(entries)
    if len(groups) != d:
        raise ValueError("groups must assign every coordinate")
    if any(not 0 <= g < ngroups for g in groups):
        raise ValueError("group index out of range")

    memo: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}
    zero = tuple(0 for _ in range(ngroups))

    def rec(sig: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        k = len(sig)
        if k == 1:
            e = list(zero)
            e[groups[0]] = sig[0]
            return {tuple(e): 1}
        hit = memo.get(sig)
        if hit is not None:
            return hit
        g = groups[k - 1]
        total = sum(sig)
        out: dict[tuple[int, ...], int] = {}
        ranges = [range(sig[i + 1], sig[i] + 1) for i in range(k - 1)]
        for lower in itertools.product(*ranges):
            w = total - sum(lower)
            for e, m in rec(lower).items():
                if w:
                    e = e[:g] + (e[g] + w,) + e[g + 1 :]
                out[e] = out.get(e, 0) + m
        memo[sig] = out
        return out

    return rec(tuple(entries))


def test_kernel_matches_brute_force_enumeration():
    rng = random.Random(99)
    cases = []
    for _ in range(60):
        d = rng.randint(1, 5)
        entries = tuple(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True))
        ngroups = rng.randint(1, 3)
        groups = tuple(rng.randrange(ngroups) for _ in range(d))
        cases.append((entries, groups, ngroups))
    for sig in signatures_with_entries(4, -2, 2):
        cases.append((sig.entries, (0, 0, 1, 1), 2))
        cases.append((sig.entries, (0, 1, 0, 1), 2))
    for entries, groups, ngroups in cases:
        expected = brute_force_counts(entries, groups, ngroups)
        assert gtkernel.group_counts(entries, groups, ngroups) == expected, (entries, groups)


def test_kernel_matches_level_by_level_recursion():
    rng = random.Random(2024)
    for _ in range(200):
        d = rng.randint(1, 9)
        entries = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
        ngroups = rng.randint(1, 4)
        groups = tuple(rng.randrange(ngroups) for _ in range(d))
        expected = _level_by_level_counts(entries, groups, ngroups)
        assert gtkernel.group_counts(entries, groups, ngroups) == expected, (entries, groups)


def test_kernel_matches_level_by_level_on_tower_shapes():
    for d in (16, 32, 64, 128):
        entries = (2, 1) + (0,) * (d - 4) + (-1, -2)
        contiguous = tuple(0 if i < d // 2 else 1 for i in range(d))
        interleaved = tuple(i % 2 for i in range(d))
        for groups in (contiguous, interleaved):
            expected = _level_by_level_counts(entries, groups, 2)
            assert gtkernel.group_counts(entries, groups, 2) == expected, (d, groups[:4])


def test_kernel_ignores_coordinate_order():
    # s_lam is symmetric, so permuting which coordinate carries which group
    # leaves the grouped counts unchanged.
    rng = random.Random(7)
    for _ in range(30):
        d = rng.randint(2, 8)
        entries = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
        ngroups = rng.randint(2, 4)
        groups = [rng.randrange(ngroups) for _ in range(d)]
        expected = gtkernel.group_counts(entries, tuple(groups), ngroups)
        for _ in range(3):
            rng.shuffle(groups)
            assert gtkernel.group_counts(entries, tuple(groups), ngroups) == expected


def test_group_counts_totals_are_dimensions():
    from weylchar.symfunc import weyl_dim

    for entries in ((3, 1, 0, -2), (2, 2, -1), (1,) * 5):
        counts = gtkernel.group_counts(entries, tuple(range(len(entries))), len(entries))
        assert sum(counts.values()) == weyl_dim(Signature(entries))


def test_group_counts_exponents_sum_to_signature_weight():
    entries = (2, 0, -1)
    counts = gtkernel.group_counts(entries, (0, 1, 1), 2)
    for exps in counts:
        assert sum(exps) == sum(entries)


def test_two_row_product_matches_jacobi_trudi():
    """s_{lam/nu}(1^2) as a product of interval lengths equals the determinant."""
    checked = bottom = 0
    for d in range(2, 8):
        for lam in itertools.product(range(3, -4, -1), repeat=d):
            if any(lam[i] < lam[i + 1] for i in range(d - 1)):
                continue
            conj = conjugate(lam, lam[-1], lam[0])
            # Every nu with lam_i >= nu_i >= lam_{i+2}; nu = () when d = 2.
            for nu in rows_between(lam[: d - 2], lam[2:]):
                product = two_row_strips(lam, nu)
                assert product == gtkernel._skew_dim(lam, conj, nu, 2), (lam, nu)
                checked += 1
                bottom += nu == ()
    assert bottom == 28 and checked > 100_000


def _moment_cases(dims):
    """The (entries, groups) of the moment sweep: every signature in [-2, 2], every even r."""
    return [
        (sig.entries, TraceZeroSigned(r, d).groups())
        for d in dims
        for sig in signatures_with_entries(d, -2, 2)
        for r in range(2, d + 1, 2)
    ]


def _memo_size():
    """The nodes the kernel's memo holds."""
    return sum(map(len, gtkernel._memo.values()))


def test_shared_memo_gives_the_same_counts_warm_and_cold():
    cases = _moment_cases((4, 5, 6, 7))
    gtkernel._clear_memo()
    for entries, groups in cases:
        gtkernel.group_counts(entries, groups, 3)
    # The sweep's nodes stay within the bound, so the memo kept every one of them.
    size = _memo_size()
    assert 0 < size <= gtkernel.NODE_CACHE_SIZE
    warm = [gtkernel.group_counts(entries, groups, 3) for entries, groups in cases]
    assert _memo_size() == size
    for (entries, groups), expected in zip(cases, warm):
        gtkernel._clear_memo()
        gtkernel._table.cache_clear()
        assert gtkernel.group_counts(entries, groups, 3) == expected, (entries, groups)


def test_returned_counts_are_fresh_dicts():
    entries, groups = (2, 1, 0, 0, -1, -2), (0, 0, 1, 1, 2, 2)
    expected = gtkernel.group_counts(entries, groups, 3)
    # The rows below the top are cached nodes; asking for one of them
    # directly must not hand out the cached dict.
    inner = gtkernel.group_counts((2, 1, 0, -1), (0, 0, 1, 1), 3)
    inner_expected = dict(inner)
    for counts in (gtkernel.group_counts(entries, groups, 3), inner):
        key = next(iter(counts))
        counts[key] += 5
        counts[(99, 99, 99)] = 1
    assert gtkernel.group_counts(entries, groups, 3) == expected
    assert gtkernel.group_counts((2, 1, 0, -1), (0, 0, 1, 1), 3) == inner_expected


def test_shared_memo_keeps_group_labels_and_ngroups_apart():
    # Runs of equal lengths under different labels, e.g. (0, 0, 2) and
    # (1, 1, 2), give rows below the top with the same shape but different keys.
    three = ((0, 1, 1), (1, 0, 0), (0, 0, 2), (1, 1, 2), (0, 2, 2), (1, 2, 2))
    four = ((0, 0, 1, 1), (1, 1, 0, 0), (0, 0, 2, 2), (1, 1, 2, 2), (0, 1, 1, 1), (0, 2, 2, 2))
    cases = []
    for sig in signatures_with_entries(3, -2, 2):
        for groups in three:
            cases += [(sig.entries, groups, n) for n in (2, 3) if max(groups) < n]
    for sig in signatures_with_entries(4, -1, 2):
        for groups in four:
            cases += [(sig.entries, groups, n) for n in (2, 3) if max(groups) < n]
    gtkernel._clear_memo()
    # Forward then backward, so each case also runs after its neighbours warmed the memo.
    for entries, groups, ngroups in cases + cases[::-1]:
        expected = brute_force_counts(entries, groups, ngroups)
        assert gtkernel.group_counts(entries, groups, ngroups) == expected, (entries, groups, ngroups)


def _check_concurrent_calls():
    import sys
    import threading

    cases = _moment_cases((4, 5, 6))
    expected = [gtkernel.group_counts(entries, groups, 3) for entries, groups in cases]
    mismatches = []
    finished = []

    def worker(offset):
        for i in range(len(cases)):
            k = (i + offset) % len(cases)
            counts = gtkernel.group_counts(*cases[k], 3)
            if counts != expected[k]:
                mismatches.append(cases[k])
            counts.clear()
        # A call that raised ends the thread before this line.
        finished.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        gtkernel._clear_memo()
        gtkernel._table.cache_clear()
        threads = [threading.Thread(target=worker, args=(t * 37,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == [] and len(finished) == len(threads)


def test_shared_memo_under_concurrent_calls():
    _check_concurrent_calls()


def test_concurrent_calls_across_memo_flushes(monkeypatch):
    # Most calls now end past the bound and empty the memo under the other threads.
    monkeypatch.setattr(gtkernel, "NODE_CACHE_SIZE", 16)
    _check_concurrent_calls()


def test_shared_memo_stays_within_its_bound():
    from weylchar.symfunc import weyl_dim

    for entries, groups in _moment_cases((4, 5, 6)):
        gtkernel.group_counts(entries, groups, 3)
    car = (2, 1) + (0,) * 508 + (-1, -2)
    counts = gtkernel.group_counts(car, tuple(i % 2 for i in range(512)), 2)
    assert sum(counts.values()) == weyl_dim(Signature(car))
    assert 0 < _memo_size() <= gtkernel.NODE_CACHE_SIZE


def test_pairing_counts_match_brute_force_in_every_run_order():
    rng = random.Random(1616)
    for _ in range(40):
        d = rng.randint(1, 6)
        entries = tuple(sorted((rng.randint(-2, 2) for _ in range(d)), reverse=True))
        # Zeros, negatives and repeated coefficients, so runs merge.
        coeffs = tuple(rng.choice((-3, -1, 0, 0, 1, 2, 2)) for _ in range(d))
        expected: dict[int, int] = {}
        for w, n in brute_force_counts(entries, tuple(range(d)), d).items():
            k = sum(c * x for c, x in zip(coeffs, w))
            expected[k] = expected.get(k, 0) + n
        assert pairing_counts(entries, coeffs) == expected, (entries, coeffs)
        runs = tuple(collections.Counter(coeffs).items())
        for order in itertools.permutations(runs):
            assert gtkernel._counts(entries, order) == expected, (entries, order)


def test_a_call_builds_each_node_once_past_the_shared_bound(monkeypatch):
    # Six groups on a d = 6 signature: one call needs about 100 nodes.
    entries, groups = (2, 2, 1, 0, -1, -2), tuple(range(6))
    jump = gtkernel._jump
    rows = []

    def counted(lam, runs):
        rows.append((lam, runs))
        return jump(lam, runs)

    # The jumps below the top call build the nodes, and find `_jump` by name.
    monkeypatch.setattr(gtkernel, "_jump", counted)
    monkeypatch.setattr(gtkernel, "NODE_CACHE_SIZE", 10**9)
    gtkernel._clear_memo()
    expected = gtkernel.group_counts(entries, groups, 6)
    nodes = len(rows) - 1
    assert 80 <= nodes <= 120
    assert len(set(rows)) == len(rows) and _memo_size() == nodes == gtkernel._size
    # A bound far below the call's need must not make it rebuild nodes.
    monkeypatch.setattr(gtkernel, "NODE_CACHE_SIZE", 8)
    gtkernel._clear_memo()
    rows.clear()
    assert gtkernel.group_counts(entries, groups, 6) == expected
    assert len(rows) - 1 == nodes and len(set(rows)) == len(rows)
    assert gtkernel._memo == {} and gtkernel._size == 0


def _seeded_rows(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(1, 7)
        yield tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))


def test_jump_tables_match_the_inline_jump():
    """`_table` gives the rows, drops and multiplicities a jump computed inline."""
    for lam in _seeded_rows(1717, 150):
        d = len(lam)
        total = sum(lam)
        conj = conjugate(lam, lam[-1], lam[0])
        for m in range(1, d + 1):
            rows = list(rows_between(lam[: d - m], lam[m:]))
            drops = [total - sum(nu) for nu in rows]
            if m == 1:
                mults = [1] * len(rows)
            elif m == 2:
                mults = [two_row_strips(lam, nu) for nu in rows]
            else:
                mults = [gtkernel._skew_dim(lam, conj, nu, m) for nu in rows]
            expected = tuple(x for entry in zip(rows, drops, mults) for x in entry)
            gtkernel._table.cache_clear()
            assert gtkernel._table(lam, m) == expected, (lam, m)
            # A warm read hands back the same table.
            assert gtkernel._table(lam, m) == expected, (lam, m)


def test_jump_tables_satisfy_the_branching_rule():
    """sum over nu of s_{lam/nu}(1^m) dim(nu) = dim(lam): U(d) restricted to U(d - m)."""
    from weylchar.symfunc import weyl_dim

    for lam in _seeded_rows(1718, 150):
        d = len(lam)
        for m in range(1, d + 1):
            table = gtkernel._table(lam, m)
            assert len(table) % 3 == 0 and table
            rows, mults = table[::3], table[2::3]
            total = sum(
                mult * (weyl_dim(Signature(nu)) if nu else 1) for nu, mult in zip(rows, mults)
            )
            assert total == weyl_dim(Signature(lam)), (lam, m)


def test_jump_tables_stay_within_their_bound():
    from weylchar.symfunc import weyl_dim

    for entries, groups in _moment_cases((4, 5, 6)):
        gtkernel.group_counts(entries, groups, 3)
    car = (2, 1) + (0,) * 508 + (-1, -2)
    counts = gtkernel.group_counts(car, tuple(i % 2 for i in range(512)), 2)
    assert sum(counts.values()) == weyl_dim(Signature(car))
    info = gtkernel._table.cache_info()
    assert info.maxsize == gtkernel.NODE_CACHE_SIZE
    assert 0 < info.currsize <= info.maxsize
    assert info.hits > 0


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: pairing_counts((1, 0), (1,)), "coeffs must give every coordinate"),
        (lambda: gtkernel.run_counts((1, 0), {1: 1}), "must be positive and sum to d = 2"),
        (lambda: gtkernel.run_counts((1, 0), {1: 2, 0: 0}), "must be positive and sum to d = 2"),
        (lambda: gtkernel.group_counts((1, 0), (0,), 1), "groups must assign every coordinate"),
        (lambda: gtkernel.group_counts((1, 0), (0, 2), 2), "group index out of range"),
    ],
)
def test_input_refusals(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
