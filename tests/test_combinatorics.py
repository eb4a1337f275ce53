import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import GTPattern, brute_force_counts, enumerate_gt_patterns, gt_weight
from weylchar.cli import _encode
from weylchar.combinatorics import (
    Partition,
    Signature,
    partitions_of,
    rows_between,
    signature_from_pair,
    signature_to_pair,
    signatures_with_entries,
)
from weylchar.errors import BudgetExceeded
from weylchar.gtkernel import group_counts
from weylchar.symfunc import weyl_dim


def test_partition_normalizes_trailing_zeros():
    assert Partition((3, 1, 0, 0)).parts == (3, 1)
    assert Partition(()).parts == ()
    assert Partition((2, 2)).size == 4
    assert Partition((2, 2)).length == 2


@pytest.mark.parametrize("make", (lambda xs: Partition(xs).parts, lambda xs: Signature(xs).entries))
def test_constructors_accept_integral_entries_as_ints(make):
    # Exact ints pass through as they are; anything else equal to an int is
    # converted, and a generator is read once.
    for raw in ((3, 1, 1), (True, True, False), (np.int64(2), np.int64(1)), (2.0, 1.0),
                (x for x in (4, 2)), [3, 0]):
        entries = make(raw)
        assert all(type(e) is int for e in entries), entries
    assert make((True, True, False))[:2] == (1, 1)
    assert make((np.int64(2), np.int64(1))) == (2, 1)
    assert make((2.0, 1.0)) == (2, 1)
    assert make(x for x in (4, 2)) == (4, 2)


def test_partition_rejects_bad_input():
    for bad, message in (
        ((1.5,), "non-integer entries: (1.5,)"),
        (("1",), "non-integer entries: ('1',)"),
        ((2, 1.5), "non-integer entries: (2, 1.5)"),
        ((1, 2), "parts not weakly decreasing: (1, 2)"),
        ((3, 1, 2, 0), "parts not weakly decreasing: (3, 1, 2)"),
        ((1, -1), "negative part in partition: (1, -1)"),
        ((-2,), "negative part in partition: (-2,)"),
    ):
        with pytest.raises(ValueError) as err:
            Partition(bad)
        assert str(err.value) == message, bad


def test_signature_rejects_increasing():
    for bad, message in (
        ((1.5, 0), "non-integer entries: (1.5, 0)"),
        (("1",), "non-integer entries: ('1',)"),
        ((1, 2), "entries not weakly decreasing: (1, 2)"),
        ((0, -1, 0), "entries not weakly decreasing: (0, -1, 0)"),
        ((), "signature must have length d >= 1"),
        ((x for x in ()), "signature must have length d >= 1"),
    ):
        with pytest.raises(ValueError) as err:
            Signature(bad)
        assert str(err.value) == message, bad


@given(st.lists(st.integers(-3, 3), min_size=1, max_size=10))
@settings(max_examples=100, deadline=None)
def test_from_runs_is_the_entries_signature(raw):
    entries = tuple(sorted(raw, reverse=True))
    sig = Signature(entries)
    assert sig.runs == tuple((v, len(list(run))) for v, run in itertools.groupby(entries))
    same = Signature.from_runs(sig.runs)
    assert same == sig and hash(same) == hash(sig)
    assert (repr(same), same.to_json(), same.d) == (repr(sig), sig.to_json(), sig.d)
    assert same.entries == sig.entries == entries


@pytest.mark.parametrize("runs, message", [
    ((), "signature must have length d >= 1"),
    (((1, 2), (1, 1)), "run values not strictly decreasing: ((1, 2), (1, 1))"),
    (((0, 1), (2, 1)), "run values not strictly decreasing: ((0, 1), (2, 1))"),
    (((1, 0),), "positive int length, got ((1, 0),)"),
    (((1, 2), (0, -1)), "positive int length, got ((1, 2), (0, -1))"),
    (((1, 2.0),), "positive int length, got ((1, 2.0),)"),
    (((1, True),), "positive int length, got ((1, True),)"),
    (((1.5, 1),), "positive int length, got ((1.5, 1),)"),
])
def test_from_runs_refusals(runs, message):
    with pytest.raises(ValueError) as err:
        Signature.from_runs(runs)
    assert str(err.value).endswith(message)


def test_pair_round_trip_at_d_2_64():
    d = 2**64
    for lam, mu in (((), ()), ((1,), (1,)), ((2, 1), (1, 1)), ((3, 3, 1), ()), ((), (2, 2, 2))):
        lam, mu = Partition(lam), Partition(mu)
        sig = signature_from_pair(lam, mu, d)
        assert sig.d == d and (0, d - lam.length - mu.length) in sig.runs
        assert signature_to_pair(sig) == (lam, mu)


def test_signature_from_pair_examples():
    assert signature_from_pair(Partition((1,)), Partition((1,)), 4).entries == (1, 0, 0, -1)
    assert signature_from_pair(Partition((2, 1)), Partition(()), 3).entries == (2, 1, 0)
    assert signature_from_pair(Partition((3, 1)), Partition((2,)), 5).entries == (3, 1, 0, 0, -2)


def test_signature_from_pair_length_violation():
    with pytest.raises(ValueError):
        signature_from_pair(Partition((1, 1)), Partition((1,)), 2)


def test_signature_to_pair_examples():
    lam, mu = signature_to_pair(Signature((1, 0, 0, -1)))
    assert (lam.parts, mu.parts) == ((1,), (1,))
    lam, mu = signature_to_pair(Signature((0, 0, 0)))
    assert (lam.parts, mu.parts) == ((), ())
    lam, mu = signature_to_pair(Signature((3, 1, 0, 0, -2)))
    assert (lam.parts, mu.parts) == ((3, 1), (2,))


@st.composite
def _pairs(draw):
    lam = Partition(tuple(sorted(draw(st.lists(st.integers(1, 4), max_size=3)), reverse=True)))
    mu = Partition(tuple(sorted(draw(st.lists(st.integers(1, 4), max_size=3)), reverse=True)))
    d = draw(st.integers(lam.length + mu.length, lam.length + mu.length + 4))
    return lam, mu, max(d, 1)


@given(_pairs())
@settings(max_examples=60, deadline=None)
def test_pair_round_trip(data):
    lam, mu, d = data
    sig = signature_from_pair(lam, mu, d)
    back = signature_to_pair(sig)
    assert back == (lam, mu)


def test_gt_pattern_counts():
    assert len(list(enumerate_gt_patterns(Signature((1, 0))))) == 2
    assert len(list(enumerate_gt_patterns(Signature((1, 0, -1))))) == 8
    assert len(list(enumerate_gt_patterns(Signature((0, 0, 0, 0))))) == 1


def test_gt_budget():
    with pytest.raises(BudgetExceeded):
        list(enumerate_gt_patterns(Signature((1,) * 9)))
    with pytest.raises(BudgetExceeded):
        enumerate_gt_patterns(Signature((120, 0, 0, -120)), max_patterns=10_000)


def test_gt_interlacing_validation():
    with pytest.raises(ValueError):
        GTPattern(((5,), (1, 0)))


def test_gt_weights_examples():
    (only,) = enumerate_gt_patterns(Signature((0, 0)))
    assert gt_weight(only) == (0, 0)
    for pat in enumerate_gt_patterns(Signature((1, 0))):
        if pat.rows[0] == (1,):
            assert gt_weight(pat) == (1, 0)
    total = [0, 0, 0]
    for pat in enumerate_gt_patterns(Signature((1, 0, -1))):
        w = gt_weight(pat)
        total = [a + b for a, b in zip(total, w)]
    assert total == [0, 0, 0]


def test_gt_count_matches_weyl_dim_small_enumeration():
    for sig in signatures_with_entries(3, -2, 2):
        count = sum(1 for _ in enumerate_gt_patterns(sig))
        assert count == weyl_dim(sig)


def test_gt_count_matches_weyl_dim_full_sweep():
    # d <= 6, entries in [-3, 3], counted through the aggregation kernel.
    for d in range(1, 7):
        for sig in signatures_with_entries(d, -3, 3):
            counts = group_counts(sig.entries, (0,) * d, 1)
            assert sum(counts.values()) == weyl_dim(sig), sig


def test_weight_multiset_contragredient():
    for sig in (Signature((2, 0, -1)), Signature((1, 1, 0, -1)), Signature((3, 1))):
        coords = tuple(range(sig.d))
        fwd = brute_force_counts(sig.entries, coords, sig.d)
        neg = brute_force_counts(tuple(-e for e in reversed(sig.entries)), coords, sig.d)
        bwd = {tuple(-x for x in reversed(w)): c for w, c in neg.items()}
        assert fwd == bwd


def test_partitions_of():
    assert [p.parts for p in partitions_of(4)] == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(6) if p.length <= 2] == [(6,), (5, 1), (4, 2), (3, 3)]


def test_rows_between_is_the_filtered_product():
    """Every non-increasing row between the bounds, in decreasing lexicographic order."""
    hi_eq_lo = 0
    for n in range(5):
        bounds = list(itertools.combinations_with_replacement(range(2, -2, -1), n))
        for hi, lo in itertools.product(bounds, repeat=2):
            if any(l > h for h, l in zip(hi, lo)):
                continue
            boxes = itertools.product(*(range(h, l - 1, -1) for h, l in zip(hi, lo)))
            expected = [t for t in boxes if all(t[i] >= t[i + 1] for i in range(n - 1))]
            assert list(rows_between(hi, lo)) == expected, (hi, lo)
            if hi == lo:
                assert expected == [hi]
                hi_eq_lo += 1
    # One empty row, and every non-increasing row of length 1..4 over 4 values.
    assert hi_eq_lo == 1 + 4 + 10 + 20 + 35


def test_signature_json():
    assert Signature((1, 0, -1)).to_json() == {"d": 3, "entries": [1, 0, -1]}
    # The CLI writes a Partition, which keeps no to_json, as its one field.
    assert json.loads(json.dumps(Partition((2, 1)), default=_encode)) == {"parts": [2, 1]}
