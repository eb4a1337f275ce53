"""Partitions and signatures.

These are the index sets for everything else: partitions label symmetric-group
irreps and polynomial U(d) irreps, and signatures, held as their runs of equal
entries, label all rational U(d) irreps.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass, field
from functools import cache
from typing import Iterator


def _as_int_tuple(xs) -> tuple[int, ...]:
    xs = tuple(xs)  # an iterator would be spent by the conversion before the check
    if set(map(type, xs)) <= {int}:  # exact ints, the common case, need no conversion
        return xs
    out = tuple(int(x) for x in xs)
    if any(x != y for x, y in zip(out, xs)):
        raise ValueError(f"non-integer entries: {xs!r}")
    return out


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers; trailing zeros dropped."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = _as_int_tuple(self.parts)
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        if any(map(operator.lt, parts, parts[1:])):
            raise ValueError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise ValueError(f"negative part in partition: {parts}")
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def part(self, i: int) -> int:
        """i-th part (0-based), zero beyond the length."""
        return self.parts[i] if i < len(self.parts) else 0

    def conjugate(self) -> "Partition":
        return Partition(conjugate(self.parts))

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= other.part(i) for i in range(other.length))

    def __repr__(self):
        return f"Partition{self.parts}"


EMPTY = Partition()


def conjugate(row: tuple[int, ...], base: int = 0, top: int | None = None) -> tuple[int, ...]:
    """Column lengths 1..top-base of a non-increasing row shifted down by base.

    With the defaults (top = row[0], or base for an empty row), the conjugate partition.
    """
    if top is None:
        top = row[0] if row else base
    ascending = row[::-1]
    n = len(row)
    return tuple([n - bisect.bisect_left(ascending, v) for v in range(base + 1, top + 1)])


@dataclass(frozen=True, init=False, slots=True)
class Signature:
    """Weakly decreasing integer d-tuple; the length d is semantic.

    Held, compared and hashed as its runs, (value, length) pairs with strictly
    decreasing values, so {mu; lam} is l(lam) + l(mu) + 1 runs at any d.
    `entries` is the d-tuple as given, or for `from_runs` built on first use.
    """

    runs: tuple[tuple[int, int], ...]
    d: int = field(compare=False, repr=False)
    _entries: tuple[int, ...] | None = field(compare=False, repr=False)

    def __init__(self, entries):
        entries = _as_int_tuple(entries)
        self._set(_runs(entries), len(entries), entries)

    @staticmethod
    def from_runs(runs) -> "Signature":
        """The signature with each value of the (value, length) runs repeated length times."""
        runs, d = tuple(map(tuple, runs)), 0
        for i, (v, n) in enumerate(runs):
            if type(v) is not int or type(n) is not int or n < 1:
                raise ValueError(f"runs must pair an int value with a positive int length, got {runs}")
            if i and v >= runs[i - 1][0]:
                raise ValueError(f"run values not strictly decreasing: {runs}")
            d += n
        return Signature.__new__(Signature)._set(runs, d, None)

    def _set(self, runs, d, entries) -> "Signature":
        if not runs:
            raise ValueError("signature must have length d >= 1")
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "_entries", entries)
        return self

    @property
    def entries(self) -> tuple[int, ...]:
        if self._entries is None:
            flat = itertools.chain.from_iterable(itertools.repeat(*run) for run in self.runs)
            object.__setattr__(self, "_entries", tuple(flat))
        return self._entries

    def to_json(self) -> dict:
        return {"d": self.d, "entries": list(self.entries)}


def signature_from_pair(lam: Partition, mu: Partition, d: int) -> Signature:
    """Signature (lam_1,...,0,...,0,-mu_q,...,-mu_1) of length d, built as its runs."""
    lam, mu = (x if type(x) is Partition else Partition(tuple(x)) for x in (lam, mu))
    length = lam.length + mu.length
    if length > d:
        raise ValueError(f"pair does not fit: l(lam)+l(mu) = {length} > d = {d}")
    zeros = ((0, d - length),) if length < d else ()
    return Signature.from_runs(_runs(lam.parts) + zeros + _runs(tuple(-m for m in reversed(mu))))


def _runs(entries: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(value, length) of each run of equal entries, in one scan that refuses an increase."""
    if not entries:
        return ()
    runs = []
    start, prev = 0, entries[0]
    for i, e in enumerate(entries):
        if e != prev:
            if e > prev:
                raise ValueError(f"entries not weakly decreasing: {entries}")
            runs.append((prev, i - start))
            start, prev = i, e
    runs.append((prev, len(entries) - start))
    return tuple(runs)


def signature_to_pair(sig: Signature) -> tuple[Partition, Partition]:
    """Inverse of signature_from_pair, read from the runs: positive parts, negated negatives."""
    lam = tuple(v for v, n in sig.runs if v > 0 for _ in range(n))
    mu = tuple(-v for v, n in reversed(sig.runs) if v < 0 for _ in range(n))
    return Partition(lam), Partition(mu)


@cache
def partitions_of(n: int):
    """All partitions of n, in reverse lexicographic order."""
    if n < 0:
        return ()

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(largest, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in rec(n, n))


def rows_between(hi: tuple[int, ...], lo: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every non-increasing row with lo <= row <= hi entrywise, in decreasing lexicographic order.

    hi and lo are non-increasing rows of one length with lo <= hi, such as
    lam[:k-m] and lam[m:] for a non-increasing lam of length k: the rows nu
    of a GT jump over a run of m, and the first factors alpha of the
    branching rule s_lam(x, y) = sum_alpha s_alpha(x) s_{lam/alpha}(y) in m
    variables y (Macdonald, Symmetric Functions and Hall Polynomials, I.5).

    An odometer, with no recursion per entry: lower the last entry that is
    above its floor and reset every entry j after it to its largest value
    min(hi_j, row_{j-1}).  That value is never below lo_j, which is at most
    hi_j and at most lo_{j-1} <= row_{j-1}.
    """
    row = list(hi)
    while True:
        yield tuple(row)
        i = len(row) - 1
        while i >= 0 and row[i] == lo[i]:
            i -= 1
        if i < 0:
            return
        row[i] -= 1
        for j in range(i + 1, len(row)):
            row[j] = min(hi[j], row[j - 1])


def signatures_with_entries(d: int, lo: int, hi: int) -> Iterator[Signature]:
    """All weakly decreasing d-tuples with entries in [lo, hi]."""
    for combo in itertools.combinations_with_replacement(range(hi, lo - 1, -1), d):
        yield Signature(combo)
