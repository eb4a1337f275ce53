import random

from weylchar import gtkernel
from weylchar.combinatorics import Signature, enumerate_gt_patterns, gt_weight, signatures_with_entries


def _brute_force_counts(entries, groups, ngroups):
    out = {}
    for pattern in enumerate_gt_patterns(Signature(entries)):
        e = [0] * ngroups
        for g, w in zip(groups, gt_weight(pattern)):
            e[g] += w
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


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
        expected = _brute_force_counts(entries, groups, ngroups)
        assert gtkernel.group_counts(entries, groups, ngroups) == expected, (entries, groups)


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
