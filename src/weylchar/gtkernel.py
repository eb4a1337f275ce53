"""Gelfand-Tsetlin aggregation kernel.

`group_counts` is the hot primitive behind weight distributions, confluent
character evaluation and characters at quarter-turn spectra.  It aggregates
GT pattern counts by the total weight landing in each coordinate group, i.e.
the coefficients of s_lam evaluated with every coordinate of group g set to
y_g.

s_lam is symmetric, so the coordinates are first sorted by group; the sorted
order cuts into runs of m same-group coordinates.  The kernel then jumps
over each run in one step instead of walking it one GT row at a time: from
the row lam of length k to every row nu of length k - m with
lam_i >= nu_i >= lam_{i+m}, each jump carrying the multiplicity
s_{lam/nu}(1^m) (the number of GT strips between the two rows).  For
m >= 3 that is the dual Jacobi-Trudi determinant det[C(m, lam'_i - nu'_j - i + j)]
(Macdonald, Symmetric Functions and Hall Polynomials, I.5), computed with
integer Bareiss elimination.  A run of two has one middle row mu, whose
entries range independently between lam and nu (GT interlacing), so its
multiplicity is a product of interval lengths and needs no determinant.  The
bottom run jumps to the empty row, so the multiplicity there is the dimension
s_lam(1^m).

The sub-result below a row depends only on that row, the runs beneath it
and the number of groups, so one memo, `_node`, is shared by every call: an
`lru_cache` keyed by (row, runs below, ngroups) and bounded by
`NODE_CACHE_SIZE` entries.  `group_counts` jumps over its own top run
uncached, so the dict it returns is always built fresh and cached dicts never
escape; the jump only reads them.  A node holds one entry per grouped weight
of the patterns below its row, at most the dimension of that row's irrep,
so the memo holds at most `NODE_CACHE_SIZE` such tables.  A moment sweep
over every signature with entries in [-2, 2] at d = 4..7 caches 351 nodes
(0.35 MB); the d = 7 staircase with seven groups caches 429.  A call that
needs more nodes than the bound evicts its least recently used ones and
recomputes them when they come back.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math

from weylchar.errors import InvariantError

# About three times the 351 nodes of a full moment sweep.
NODE_CACHE_SIZE = 1024


def group_counts(
    entries: tuple[int, ...], groups: tuple[int, ...], ngroups: int
) -> dict[tuple[int, ...], int]:
    """Counts of GT patterns by grouped weight.

    For the irrep with top row `entries` (length d), every GT pattern has a
    weight vector w; coordinate i is assigned to groups[i].  Returns a map
    from (e_0, ..., e_{ngroups-1}) to the number of patterns whose group sums
    e_g = sum(w_i for groups[i] == g) take those values.  The values sum to
    the dimension of the irrep.  The map is built fresh on every call, so the
    caller may mutate it.
    """
    d = len(entries)
    if len(groups) != d:
        raise ValueError("groups must assign every coordinate")
    if any(not 0 <= g < ngroups for g in groups):
        raise ValueError("group index out of range")

    # Bottom run first: runs[r] covers GT rows sum(lengths[:r]) + 1 .. sum(lengths[:r+1]).
    runs = tuple((g, sum(1 for _ in run)) for g, run in itertools.groupby(sorted(groups)))
    return _jump(tuple(entries), runs, ngroups)


def _jump(
    lam: tuple[int, ...], runs: tuple[tuple[int, int], ...], ngroups: int
) -> dict[tuple[int, ...], int]:
    """Grouped counts of the GT patterns below row lam, whose runs (bottom first) are `runs`.

    Jumps over the top run and reads the rows below from the shared memo; it
    never mutates a dict that `_node` returned.
    """
    if not runs:
        return {(0,) * ngroups: 1}
    g, m = runs[-1]
    below = runs[:-1]
    total = sum(lam)
    lam_conj = _conjugate(lam, lam[-1], lam[0]) if m > 2 else ()
    out: dict[tuple[int, ...], int] = {}
    for nu in _rows_between(lam[: len(lam) - m], lam[m:]):
        if m == 1:
            mult = 1
        elif m == 2:
            mult = _two_row_strips(lam, nu)
        else:
            mult = _skew_dim(lam, lam_conj, nu, m)
        w = total - sum(nu)
        for e, n in _node(nu, below, ngroups).items():
            if w:
                e = e[:g] + (e[g] + w,) + e[g + 1 :]
            out[e] = out.get(e, 0) + n * mult
    return out


_node = functools.lru_cache(maxsize=NODE_CACHE_SIZE)(_jump)


def _rows_between(hi: tuple[int, ...], lo: tuple[int, ...]):
    """Every non-increasing row nu with lo <= nu <= hi entrywise.

    hi = lam[:k-m] and lo = lam[m:] for a non-increasing lam, so the all-lo row
    is valid, resetting a suffix to lo keeps a row valid, and only adjacent
    free entries (lo_i < hi_i) can violate the order; an odometer over the
    free entries therefore visits each row exactly once.
    """
    free = [i for i in range(len(lo)) if lo[i] < hi[i]]
    row = list(lo)
    while True:
        yield tuple(row)
        for i in reversed(free):
            if row[i] < hi[i] and (i == 0 or row[i] < row[i - 1]):
                row[i] += 1
                break
            row[i] = lo[i]
        else:
            return


def _conjugate(row: tuple[int, ...], base: int, top: int) -> tuple[int, ...]:
    """Column lengths 1..top-base of a non-increasing row shifted down by base."""
    ascending = row[::-1]
    n = len(row)
    return tuple([n - bisect.bisect_left(ascending, v) for v in range(base + 1, top + 1)])


def _two_row_strips(lam: tuple[int, ...], nu: tuple[int, ...]) -> int:
    """s_{lam/nu}(1^2) for len(nu) = len(lam) - 2: the middle rows mu between them.

    mu interlaces both rows, so each entry mu_i ranges independently over
    max(lam_{i+1}, nu_i) .. min(lam_i, nu_{i-1}), with nu_{-1} = +inf and
    nu_{k-2} = -inf; lam_0 and lam_{k-1} stand in for the two infinities.
    """
    mult = 1
    for a, b, hi, lo in zip(lam, lam[1:], (lam[0],) + nu, nu + (lam[-1],)):
        mult *= (a if a < hi else hi) - (b if b > lo else lo) + 1
    if mult <= 0:
        raise InvariantError(f"GT jump with {mult} strips: lam={lam}, nu={nu}, m=2")
    return mult


def _skew_dim(lam, lam_conj, nu, m) -> int:
    """s_{lam/nu}(1^m) for lam shifted to end at 0 and nu padded with zeros.

    s of a skew shape is the product over its pieces that share no row or
    column; a piece spanning columns a..b is the dual Jacobi-Trudi determinant
    det[C(m, lam'_i - nu'_j - i + j)] over i, j in a..b, and a one-column piece
    of height h is C(m, h).
    """
    nu_conj = _conjugate(nu, lam[-1], lam[0])
    width = len(lam_conj)
    mult = 1
    j = 0
    while j < width:
        if lam_conj[j] == nu_conj[j]:
            j += 1
            continue
        # Columns j and j + 1 share a row exactly when lam'_{j+1} > nu'_j.
        a = j
        j += 1
        while j < width and lam_conj[j] > nu_conj[j - 1]:
            j += 1
        if j - a == 1:
            mult *= math.comb(m, lam_conj[a] - nu_conj[a])
            continue
        mult *= _bareiss_det(
            [
                [_comb(m, lam_conj[r] - nu_conj[c] - r + c) for c in range(a, j)]
                for r in range(a, j)
            ]
        )
    if mult <= 0:
        raise InvariantError(f"GT jump with {mult} strips: lam={lam}, nu={nu}, m={m}")
    return mult


def _comb(n: int, r: int) -> int:
    return math.comb(n, r) if r >= 0 else 0


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination (in place).

    No row exchanges: the Jacobi-Trudi matrix of a connected skew shape at
    1^m is totally nonnegative with positive determinant, so every pivot, a
    leading principal minor, is positive; a pivot that is not is a bug.
    This integer-only routine stays apart from `symfunc.exact_det` (elimination
    over a field, with row exchanges): it is the kernel's hot path, and a
    shared routine would have to branch on which caller it serves to keep this
    invariant check.
    """
    n = len(a)
    prev = 1
    for k in range(n - 1):
        pivot_row = a[k]
        pivot = pivot_row[k]
        if pivot <= 0:
            raise InvariantError(f"Jacobi-Trudi pivot {pivot} at step {k} of {a}")
        for row in a[k + 1 :]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
        prev = pivot
    return a[-1][-1]
