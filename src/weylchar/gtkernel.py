"""Gelfand-Tsetlin aggregation kernel.

`run_counts` is the hot primitive behind weight distributions and exact
characters, and the one entry to the kernel: weight distributions hand it the
runs of F's diagonal, and exact characters the tally of their eigenvalues.
`group_counts` serves no route of the package: `perfbench`'s gate,
`benchmarks/bench_gt.py`'s checksums and the tests' GT-sum reference
`eval_by_gt` call it by name.  Both count the GT patterns of one irrep by an
integer linear functional of the pattern's weight w: `run_counts` keys
each pattern by k = sum_i c_i w_i for integer coefficients c_i, given as
runs {c: number of coordinates} (c = the diagonal of F gives k = <F, w>; at
eigenvalues i**q_j, c = q gives the pattern's phase i**k); `group_counts`
keys it by the group sums
e_g = sum(w_i for groups[i] == g), packed into one integer Kronecker-style,
k = sum_g B^g (e_g - m_g lo) with lo the smallest entry, m_g the group size
and B = d (hi - lo) + 1 past every digit, and decodes the keys.

s_lam is symmetric, so coordinates with equal coefficients merge into one
run of m coordinates, and the runs may be stacked in any order.  The kernel
jumps over each run in one step instead of walking it one GT row at a time:
from the row lam of length k to every row nu of length k - m with
lam_i >= nu_i >= lam_{i+m} (`combinatorics.rows_between`, the walk that also
gives the first factors of `ucharacters.restrict_to_blocks`), each jump adding
c (|lam| - |nu|) to the key and carrying the multiplicity s_{lam/nu}(1^m) (the
number of GT strips between the two rows).  For m >= 2 that is the dual
Jacobi-Trudi determinant det[C(m, lam'_i - nu'_j - i + j)] (Macdonald,
Symmetric Functions and Hall Polynomials, I.5), computed with integer Bareiss
elimination; a run of one has multiplicity 1.

Each jump splits into geometry and weighting.  The geometry of a jump over a
run of m from row lam, the rows nu with their drops |lam| - |nu| and
multiplicities, depends on neither the run's coefficient nor the runs below,
so `_table(lam, m)` builds it once, as one flat tuple (nu, drop, mult, nu,
drop, mult, ...), in a shared `lru_cache` of `NODE_CACHE_SIZE` tables; the
jump itself only adds c * drop to each key and multiplies the counts by
mult.  Every caller shares the tables, at any coefficients: weight
distributions, exact characters and `group_counts`.  A warm jump therefore
computes no multiplicity, and the table's own nu tuples key the memo nodes
below it.  One pass of the `perfbench` `exact_sweep` workload builds 1,968
tables holding 17,058 rows (4,916 with m = 1, 9,281 with m = 2,
2,660 with m = 3 and 201 with m >= 4), but only 457 distinct rows, so `_row`
keeps one shared copy of each (in an `lru_cache` of `NODE_CACHE_SIZE` rows).
Peak RSS after five passes then rises by 0.45 MB over a kernel without
tables; with a fresh row tuple per entry it rose by 2.0 MB, and with three
parallel tuples (rows, drops, mults) of shared rows by 0.85 MB.

Run order: the longest run goes at the bottom, ties broken by coefficient.
The bottom run jumps to the empty row with multiplicity s_nu(1^m), and that
jump is a memo node, so a cold call computes the long run's determinants once
per distinct row, and the top jump walks the short runs, which need no
determinant when m = 1.

The sub-result below a row depends only on that row and the runs beneath it,
so one memo, `_memo`, holds it, with no knob.  It maps the runs below a row
to a dict from row to that row's counts: the row alone is no key across
calls, since rows of one length sit above different runs under different
coefficient orders, and a flat (row, runs) key would build a tuple on every
lookup.  `_jump` stores a node when the node is complete, so a call that
raises leaves no partial node.  The memo grows as a call needs, so one call
never builds a node twice; a call that ends with more than `NODE_CACHE_SIZE`
nodes in the memo empties it, so between calls it holds at most that many.
The bound is checked in O(1) against `_size`, the nodes stored since the
memo was last emptied, which `_jump` advances and `_clear_memo`, the one
reset, sets to 0.
The top jump's result is not a node: the dict a call returns is always
fresh, and the nodes never escape; jumps only read them.  A node holds one
entry per key of the patterns below its row, at most the dimension of that
row's irrep.  A weight-distribution sweep over every signature with entries
in [-2, 2] at d = 4..7, every even r, builds 1,213 nodes (and the empty
row's), whose dicts, keys and values take 0.55 MB (`sys.getsizeof`); one
`exact_sweep` pass builds 2,510, so neither reaches the bound.  Concurrent
calls share the memo and the caches: the tables and rows are tuples, a node
is stored by one dict assignment and never written after, `_size` changes
under a lock, and emptying the memo only drops its references to dicts that
other calls may still read.  Two threads may both build one node, and the
two copies are equal; a node stored into a bucket that another thread has
just dropped is counted but not held, which can only empty the memo early.
"""

from __future__ import annotations

import functools
import math
import threading

from weylchar.combinatorics import conjugate, rows_between
from weylchar.errors import InvariantError

# About three times the 1,213 nodes of a full moment sweep, and twice the
# 1,968 jump tables of an `exact_sweep` pass (457 distinct rows; see above).
NODE_CACHE_SIZE = 4096

# The node memo: runs below a row -> {row: counts below it}.
_memo: dict[tuple[tuple[int, int], ...], dict[tuple[int, ...], dict[int, int]]] = {}
# The nodes stored since the memo was last emptied, and the lock that keeps
# concurrent stores from losing a count.
_size = 0
_size_lock = threading.Lock()


def run_counts(entries: tuple[int, ...], runs: dict[int, int]) -> dict[int, int]:
    """Counts of GT patterns by k = sum_i c_i w_i, for coefficients given as runs.

    `runs` maps each coefficient c to the number of coordinates that carry
    it; the lengths must be positive and sum to d = len(entries).  s_lam is
    symmetric, so which coordinates carry c does not matter.  For the irrep
    with top row `entries` (non-increasing), maps each value k of the
    pairing of the pattern weights w with the coefficients to the number of
    patterns taking it.  The values sum to the dimension of the irrep.  The
    map is built fresh on every call, so the caller may mutate it.
    """
    if sum(runs.values()) != len(entries) or any(m < 1 for m in runs.values()):
        raise ValueError(f"run lengths {runs} must be positive and sum to d = {len(entries)}")
    # Bottom first: the longest run, ties broken by coefficient.
    order = sorted(runs.items(), key=lambda run: (-run[1], run[0]))
    return _counts(tuple(entries), tuple(order))


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
    if not d:
        return {(0,) * ngroups: 1}

    # Every w_i lies in [lo, hi], so e_g - m_g lo is a digit in [0, base).
    lo, hi = min(entries), max(entries)
    base = d * (hi - lo) + 1
    sizes = [0] * ngroups
    for g in groups:
        sizes[g] += 1
    lows = [m * lo for m in sizes]
    offset = sum(base**g * low for g, low in enumerate(lows))
    # With every entry equal, base is 1 and all groups share one run.
    runs: dict[int, int] = {}
    for g, m in enumerate(sizes):
        if m:
            runs[base**g] = runs.get(base**g, 0) + m
    out: dict[tuple[int, ...], int] = {}
    for k, n in run_counts(entries, runs).items():
        k -= offset
        e = []
        for low in lows:
            k, digit = divmod(k, base)
            e.append(digit + low)
        out[tuple(e)] = n
    return out


def _counts(lam: tuple[int, ...], runs: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """Pattern counts below row lam for runs (coefficient, length), bottom first, in any order."""
    try:
        return _jump(lam, runs)
    finally:
        # The bound holds between calls, so one call never builds a node twice.
        if _size > NODE_CACHE_SIZE:
            _clear_memo()


def _clear_memo() -> None:
    """Empty the node memo and its count: the one place either is reset."""
    global _size
    with _size_lock:
        _memo.clear()
        _size = 0


def _stored() -> None:
    """Count one node stored in the memo."""
    global _size
    with _size_lock:
        _size += 1


def _jump(lam: tuple[int, ...], runs: tuple[tuple[int, int], ...]) -> dict[int, int]:
    """Counts by key of the GT patterns below row lam, whose runs (bottom first) are `runs`.

    Jumps over the top run through its cached table and reads the rows below
    from the memo, building and storing the nodes it misses.  It never
    mutates a dict that the memo holds.
    """
    if not runs:
        return {0: 1}
    c, m = runs[-1]
    below = runs[:-1]
    nodes = _memo.setdefault(below, {})
    table = iter(_table(lam, m))
    out: dict[int, int] = {}
    for nu, drop, mult in zip(table, table, table):
        node = nodes.get(nu)
        if node is None:
            node = nodes[nu] = _jump(nu, below)
            _stored()
        shift = c * drop
        for k, n in node.items():
            k += shift
            out[k] = out.get(k, 0) + n * mult
    return out


@functools.lru_cache(maxsize=NODE_CACHE_SIZE)
def _table(lam: tuple[int, ...], m: int) -> tuple:
    """The geometry of a jump over a run of m, flat: (nu, drop, mult, nu, drop, mult, ...).

    The nu are every row with lam_i >= nu_i >= lam_{i+m}, each drop is
    |lam| - |nu| and each mult is s_{lam/nu}(1^m).  None of it depends on the
    run's coefficient or on the runs below, so every caller shares one table.
    """
    rows = [_row(nu) for nu in rows_between(lam[: len(lam) - m], lam[m:])]
    if m == 1:
        mults = [1] * len(rows)
    else:
        lam_conj = conjugate(lam, lam[-1], lam[0])
        mults = [_skew_dim(lam, lam_conj, nu, m) for nu in rows]
    total = sum(lam)
    return tuple([x for nu, mult in zip(rows, mults) for x in (nu, total - sum(nu), mult)])


@functools.lru_cache(maxsize=NODE_CACHE_SIZE)
def _row(row: tuple[int, ...]) -> tuple[int, ...]:
    """One shared copy of each row: the tables list each distinct row many times."""
    return row


def _skew_dim(lam, lam_conj, nu, m) -> int:
    """s_{lam/nu}(1^m) for lam shifted to end at 0 and nu padded with zeros.

    s of a skew shape is the product over its pieces that share no row or
    column; a piece spanning columns a..b is the dual Jacobi-Trudi determinant
    det[C(m, lam'_i - nu'_j - i + j)] over i, j in a..b, and a one-column piece
    of height h is C(m, h).
    """
    nu_conj = conjugate(nu, lam[-1], lam[0])
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
