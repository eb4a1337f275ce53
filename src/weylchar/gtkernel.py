"""Gelfand-Tsetlin aggregation kernel.

`group_counts` is the hot primitive behind weight distributions, confluent
character evaluation and characters at quarter-turn spectra: it walks the GT
branching lattice level by level, memoizing on the signature seen at each
level, and aggregates pattern counts by the total weight landing in each
coordinate group.
"""

from __future__ import annotations

import itertools


def group_counts(
    entries: tuple[int, ...], groups: tuple[int, ...], ngroups: int
) -> dict[tuple[int, ...], int]:
    """Counts of GT patterns by grouped weight.

    For the irrep with top row `entries` (length d), every GT pattern has a
    weight vector w; coordinate i is assigned to groups[i].  Returns a map
    from (e_0, ..., e_{ngroups-1}) to the number of patterns whose group sums
    e_g = sum(w_i for groups[i] == g) take those values.  The values sum to
    the dimension of the irrep.
    """
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
