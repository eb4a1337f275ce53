"""Irreducible characters of U(d) and their branching behaviour.

Evaluation happens at diagonal unitaries (characters are class functions),
held as their distinct eigenvalues with multiplicities, so a spectrum costs
its distinct eigenvalues, not d; the spectrum alone picks one of two routes.
At eigenvalues i**q_j a GT pattern of weight w contributes
i**(sum_j q_j w_j): `gtkernel.run_counts` counts the patterns by that
exponent, from the tally {q: multiplicity of i**q}, and `exact.phase_sum`
folds the tally into an exact Gaussian integer.  Every other spectrum goes
through `char_float`, Koike's universal-character determinant in complex
doubles, whose series takes each distinct eigenvalue in one step and which
returns the value with a rigorous error bound.  It has no Vandermonde
denominator, so close or equal eigenvalues take the same route as distinct
ones.  `over_dim` is the one division of a trace by a Weyl dimension, for
`afalgebra.ergodic_sequence` and the CLI's `char`: exact for a Gaussian
rational, and exact before rounding where the dimension is past the float
range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from numbers import Rational

from weylchar.combinatorics import Partition, Signature, conjugate, rows_between, signature_to_pair
from weylchar.errors import DIM_BUDGET, BudgetExceeded, InvariantError
from weylchar.exact import phase_sum, quarter_turn, unit_complex
from weylchar.gtkernel import run_counts
from weylchar.symfunc import lr_product, skew_expand, weyl_dim


def _wrap(a):
    """An angle in turns reduced to [0, 1): a Fraction when rational, else a float.

    A Fraction already in [0, 1) is kept as it is: `afalgebra.embed` re-wraps
    every group's angle at each level.
    """
    if type(a) is Fraction and 0 <= a.numerator < a.denominator:
        return a
    return Fraction(a) % 1 if isinstance(a, (int, Rational)) else float(a) % 1.0


@dataclass(frozen=True, init=False, repr=False, slots=True)
class DiagonalUnitary:
    """diag(exp(2*pi*i*t_1), ..., exp(2*pi*i*t_d)) with angles t_k in turns.

    Rational angles are kept as Fractions; at quarter turns the eigenvalues
    are exact powers of i.  The spectrum is held by multiplicity: `groups`
    pairs each distinct angle, in first-appearance order, with its count, so
    a tower level costs its distinct eigenvalues, not d.  A float angle and a
    Fraction of equal value are distinct angles, as they take distinct routes.
    `angles` is the eigenvalue multiset: as given to the flat constructor, or,
    for `grouped`, each distinct angle repeated by its count, built on first
    use and kept.
    """

    groups: tuple[tuple, ...]
    d: int
    _angles: tuple | None = field(compare=False)

    def __init__(self, angles):
        angles = tuple(map(_wrap, angles))
        self._set(_tally((a, 1) for a in angles), angles)

    @staticmethod
    def grouped(pairs) -> "DiagonalUnitary":
        """The unitary with each angle of the (angle, count) pairs repeated count times."""
        pairs = tuple(pairs)
        if not all(type(c) is int and c >= 1 for _, c in pairs):
            raise ValueError(f"multiplicities must be positive integers, got {pairs}")
        u = DiagonalUnitary.__new__(DiagonalUnitary)
        u._set(_tally((_wrap(a), c) for a, c in pairs), None)
        return u

    def _set(self, groups, angles) -> None:
        if not groups:
            raise ValueError("need at least one eigenvalue")
        # A Fraction is always finite, and float(inf) % 1.0 is nan, so only a
        # float angle can fail: checking the Fractions would convert each to float.
        if not all(math.isfinite(a) for a, _ in groups if type(a) is float):
            raise ValueError(f"angles must be finite, got {angles or groups}")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "d", sum(c for _, c in groups))
        object.__setattr__(self, "_angles", angles)

    @property
    def angles(self) -> tuple:
        if self._angles is None:
            flat = tuple(chain.from_iterable(repeat(a, c) for a, c in self.groups))
            object.__setattr__(self, "_angles", flat)
        return self._angles

    def __repr__(self):
        return f"DiagonalUnitary.grouped({self.groups!r})"

    def complex_values(self) -> tuple[complex, ...]:
        return tuple(map(unit_complex, self.angles))

    def quarter_turns(self) -> dict[int, int] | None:
        """{k: multiplicity of i**k} when every angle is a quarter turn, else None."""
        tally = {}
        for a, c in self.groups:
            k = quarter_turn(a)
            if k is None:
                return None
            # Distinct angles in [0, 1) are distinct quarter turns.
            tally[k] = c
        return tally

    def trace(self) -> complex:
        return sum(c * unit_complex(a) for a, c in self.groups)

    @staticmethod
    def identity(d: int) -> "DiagonalUnitary":
        return DiagonalUnitary.grouped(((Fraction(0), d),))


def _tally(pairs) -> tuple[tuple, ...]:
    """(angle, count) pairs with equal angles of one type merged, in first-appearance order."""
    groups: dict = {}
    for a, c in pairs:
        # A Fraction keys by its two ints, which hash fast and never equal a float.
        key = (a.numerator, a.denominator) if type(a) is Fraction else a
        group = groups.get(key)
        if group is None:
            groups[key] = [a, c]
        else:
            group[1] += c
    return tuple((a, c) for a, c in groups.values())


def char_eval(sig: Signature, u: DiagonalUnitary):
    """Trace of the irrep sig at u.

    The input picks the route: when every angle is a quarter turn
    (`u.quarter_turns()`), the GT patterns counted by their power of i and
    folded into an exact Gaussian integer `QQi`; otherwise a complex double,
    the universal-character determinant of `char_float`.
    """
    if sig.d != u.d:
        raise ValueError(f"dimension mismatch: signature d={sig.d}, unitary d={u.d}")
    quarters = u.quarter_turns()
    if quarters is not None:
        return phase_sum(run_counts(sig.entries, quarters))
    return char_float(sig, u)[0]


# Unit roundoff of a double.  `exact.unit_complex` gives each eigenvalue to
# within 16u: the angle 2*pi*t, t in [0, 1) rounded from the given turn, is
# off by under 12u, and cos and sin each round by under one ulp.
_U = 2.0**-53
_X_ERR = 16
# A complex product rounds by a relative sqrt(5) u at most (Brent, Percival
# and Zimmermann, Math. Comp. 76, 2007); CPython's quotient, Smith's
# algorithm, by under 7u + O(u^2).
_MUL = 3
_DIV = 8


def _gamma(n: float) -> float:
    """Higham's gamma_n = n u / (1 - n u), the error of n stacked roundings."""
    return n * _U / (1 - n * _U)


def char_float(sig: Signature, u: DiagonalUnitary) -> tuple[complex, float]:
    """The trace of sig at u in complex doubles, and a bound on its error.

    Write sig = {mu; lam} with p = l(lam), q = l(mu).  The trace is Koike's
    universal character (Adv. Math. 74, 1989): the (p+q)-square determinant
    whose rows i = 1..q are h_{mu_{q+1-i}+i-j}(conj x) and whose rows
    i = q+1..q+p are h_{lam_{i-q}-i+j}(x), h_k the complete symmetric
    functions of the eigenvalues x.  Applying omega to that identity in
    Lambda(x) (x) Lambda(conj x) gives the same character as the
    (lam_1+mu_1)-square determinant with e_k for h_k and lam', mu' for
    lam, mu.  Both specialise to U(d), since p + q <= d.  The smaller one is
    evaluated, the e form on a tie, as e_k is at most C(d, k) where h_k
    reaches C(d+k-1, k): one series of prod (1 - x t)^-1 or prod (1 + x t),
    its conjugate for the conj x rows (|x| = 1), then LU with partial
    pivoting.  There is no Vandermonde denominator, so confluent eigenvalues
    need no special route.  The series is built once per distinct
    eigenvalue: a group of c equal x enters by c steps of the per-coordinate
    recurrence while c <= kmax + 2 (kmax the last index read), and past that
    by one product with the series of (1 - x t)^-c = sum_j C(c+j-1, j) x^j t^j
    or (1 + x t)^c = sum_j C(c, j) x^j t^j (`_convolve`).

    The bound holds for the eigenvalues at the exact angles.  The k-th series
    term is a sum of C(d+k-1, k) (h) or C(d, k) (e) unit monomials; count
    each one's roundings in units of u, 1 for a sum or a real scaling, 3 for
    a product and 16 for an eigenvalue.  A per-coordinate step passes each
    monomial through one sum, and through one more sum (h only), one product
    and one eigenvalue for each factor x it adds: c + 20 j (h) or c + 19 j
    (e) over a group contributing x^j.  In a convolution the x^j term
    carries the count's rounding, j - 1 products for x^j and one scaling,
    then one product into the series and at most j + 1 sums: 20 j + 3 for
    j >= 1 and 1 for j = 0, within kmax + 3 + 19 j.  With s the sum over the
    groups of min(c, kmax + 3), so s <= d and s = d unless some c > kmax + 2,
    a monomial of degree k carries at most s + 20 k (h) or s + 19 k (e), and
    the term errs by at most its count times expm1 of that times u.
    LU gives L U = M + F with |F| <= gamma_{n+11} |L| |U| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 9.3; n sums, one product
    and one quotient per term), and |L| <= 1 bounds each row of |L| |U| by
    the column sums of |U| down to that row, an O(n^2) pass.
    Hadamard's inequality on the rows then gives |det(M + D) - det M| <=
    prod a_i expm1(sum delta_i / a_i) for row norms ||M_i|| <= a_i and
    ||D_i|| <= delta_i; the product of the pivots adds its own rounding.
    """
    if sig.d != u.d:
        raise ValueError(f"dimension mismatch: signature d={sig.d}, unitary d={u.d}")
    lam, mu, d = *signature_to_pair(sig), sig.d
    p, q, lam1, mu1 = lam.length, mu.length, lam.part(0), mu.part(0)
    if p + q == 0:
        return 1 + 0j, 0.0
    # Both forms read the series up to this index; e_k vanishes past d.
    top = max(lam1 + p, mu1 + q) - 1
    dual = p + q >= lam1 + mu1
    if dual:
        below, above, kmax = conjugate(lam.parts), conjugate(mu.parts), min(top, d)
    else:
        below, above, kmax = lam.parts, mu.parts, top
    series = [1 + 0j] + [0j] * kmax
    # `steps` sums min(c, kmax + 3) over the groups: the sums a monomial
    # passes through, at most, apart from those its own factors add.
    steps = seen = 0
    for a, c in u.groups:
        x = unit_complex(a)
        if c > kmax + 2:
            _convolve(series, x, c, dual)
            steps += kmax + 3
        elif dual:  # e_k of the first i coordinates vanishes past k = i
            for i in range(seen + 1, seen + c + 1):
                for k in range(min(i, kmax), 0, -1):
                    series[k] += x * series[k - 1]
            steps += c
        else:
            for _ in range(c):
                acc = 1 + 0j
                for k in range(1, kmax + 1):
                    acc = series[k] + x * acc
                    series[k] = acc
            steps += c
        seen += c
    if dual:
        errs = [_scaled(math.comb(d, k), (steps + (_MUL + _X_ERR) * k) * _U)
                for k in range(kmax + 1)]
    else:
        errs = [_scaled(math.comb(d + k - 1, k), (steps + k + (_MUL + _X_ERR) * k) * _U)
                for k in range(kmax + 1)]
    nq = len(above)
    n = nq + len(below)
    # Every index a row reads lies in -n < k < kmax + n, and the entries
    # outside 0..kmax are exact zeros, so n zeros pad each end.
    pad = [0j] * n
    padded = pad + series + pad
    conj = [z.conjugate() for z in padded]
    pad_errs = [0.0] * n + errs + [0.0] * n
    rows: list[list[complex]] = []
    row_errs: list[float] = []
    for r in range(n):
        if r < nq:  # series terms k0, k0 - 1, ..., conjugated
            k0 = above[nq - 1 - r] + r + n
            rows.append(conj[k0:k0 - n:-1])
            row_errs.append(math.hypot(*pad_errs[k0:k0 - n:-1]))
        else:  # series terms k0, k0 + 1, ...
            k0 = below[r - nq] - r + n
            rows.append(padded[k0:k0 + n])
            row_errs.append(math.hypot(*pad_errs[k0:k0 + n]))
    # ||M_r|| is at most the computed norm plus the series error.
    norms = [math.hypot(*map(abs, row)) + err for row, err in zip(rows, row_errs)]
    det = 1 + 0j
    for c in range(n):
        column = [abs(row[c]) for row in rows[c:]]
        piv = c + column.index(max(column))
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            norms[c], norms[piv] = norms[piv], norms[c]
            row_errs[c], row_errs[piv] = row_errs[piv], row_errs[c]
            det = -det
        pivot_row = rows[c]
        pv = pivot_row[c]
        det *= pv
        if not pv:  # the column below is zero too: nothing to eliminate
            continue
        for row in rows[c + 1:]:
            m = row[c] / pv
            if m:
                for j in range(c + 1, n):
                    row[j] -= m * pivot_row[j]
    # |l| <= 1 up to the rounding of the quotient and of the pivot's abs().
    lu_gamma = _gamma(n + _MUL + _DIV) * (1 + (_DIV + 3) * _U)
    column_sums = [0.0] * n
    ratio = 0.0
    for i, row in enumerate(rows):
        for j in range(i, n):
            column_sums[j] += abs(row[j])
        ratio += (row_errs[i] + lu_gamma * math.hypot(*column_sums)) / norms[i]
    try:
        hadamard = math.prod(norms) * math.expm1(ratio)
    except OverflowError:  # the factor itself is past the float range
        hadamard = math.inf
    pivots = _gamma(_MUL * n)
    # The bound's own float evaluation rounds by a relative 4 n^2 u at most;
    # a series count past the float range (inf / inf) leaves no bound at all.
    bound = (hadamard + pivots / (1 - pivots) * abs(det)) * (1 + 2.0**-20)
    return det, math.inf if math.isnan(bound) else bound


def _convolve(series: list[complex], x: complex, c: int, dual: bool) -> None:
    """Multiply the series in place by (1 + x t)^c (dual) or (1 - x t)^-c, up to its length.

    The t^j coefficient is C(c, j) x^j or C(c + j - 1, j) x^j: the count,
    rounded once, times x^j by j - 1 products.  Each new term is summed in
    descending j, so the x^j term passes through at most j + 1 sums.
    """
    kmax = len(series) - 1
    terms = [1 + 0j]
    power = 1 + 0j
    for j in range(1, kmax + 1):
        power *= x
        terms.append(_scaled(math.comb(c, j) if dual else math.comb(c + j - 1, j), 1.0) * power)
    for k in range(kmax, 0, -1):
        acc = terms[k]  # times series[0] = 1, exactly
        for j in range(k - 1, 0, -1):
            acc += series[k - j] * terms[j]
        series[k] = acc + series[k]


def _scaled(count: int, factor: float) -> float:
    """count * factor as a float, inf when count is past the float range."""
    try:
        return float(count) * factor
    except OverflowError:
        return math.inf


def over_dim(trace, dim: int):
    """trace / dim, the one division of a trace by a dimension.

    A Gaussian rational stays exact.  A complex double is divided exactly,
    then rounded, when dim is past the float range.
    """
    try:
        return trace / dim
    except OverflowError:
        return complex(Fraction(trace.real) / dim, Fraction(trace.imag) / dim)


@dataclass(frozen=True)
class BlockDecomposition:
    """Restriction of a U(d1+d2) irrep to U(d1) x U(d2)."""

    parent: Signature
    d1: int
    d2: int
    components: tuple[tuple[Signature, Signature, int], ...]

    def total_dim(self) -> int:
        sigs = {s.runs: s for comp in self.components for s in comp[:2]}
        dims = {runs: weyl_dim(s) for runs, s in sigs.items()}
        return sum(m * dims[s1.runs] * dims[s2.runs] for s1, s2, m in self.components)


def _det_shift(sig: Signature) -> tuple[int, Partition]:
    """Smallest determinant twist making the signature polynomial."""
    a = max(0, -sig.entries[-1])
    return a, Partition(tuple(e + a for e in sig.entries))


def restrict_to_blocks(
    sig: Signature, d1: int, d2: int, dim_budget: int = DIM_BUDGET
) -> BlockDecomposition:
    """Full decomposition of sig restricted to the block subgroup U(d1) x U(d2).

    By s_lam(x, y) = sum_alpha s_alpha(x) s_{lam/alpha}(y), the first factors
    s1 are the rows of sig's GT jump over a run of d2 (`rows_between`), exactly
    the rows with a nonempty skew expansion in d2 variables.  That expansion
    runs through the determinant shift: sig + a is a partition nu, and each
    beta of s_{nu/(s1 + a)} gives the second factor beta - a.
    """
    if d1 + d2 != sig.d:
        raise ValueError(f"d1 + d2 = {d1 + d2} must equal d = {sig.d}")
    if d1 < 1 or d2 < 1:
        raise ValueError("both blocks must be nonempty")
    dim = weyl_dim(sig)
    if dim > dim_budget:
        raise BudgetExceeded(f"irrep dimension {dim} exceeds budget {dim_budget}")
    a, nu = _det_shift(sig)
    comps: list[tuple[Signature, Signature, int]] = []
    second: dict[tuple[int, ...], Signature] = {}
    for row in rows_between(sig.entries[:d1], sig.entries[d2:]):
        s1 = Signature(row)
        for beta, mult in skew_expand(nu, Partition(tuple(e + a for e in row)), d2).items():
            s2 = second.get(beta.parts)
            if s2 is None:
                s2 = second[beta.parts] = Signature(tuple(beta.part(i) - a for i in range(d2)))
            comps.append((s1, s2, mult))
    comps.sort(key=lambda c: (c[0].entries, c[1].entries))
    out = BlockDecomposition(sig, d1, d2, tuple(comps))
    if out.total_dim() != dim:
        raise InvariantError("restriction lost dimensions; branching bug")
    return out


def tensor_decompose(
    sig1: Signature, sig2: Signature, dim_budget: int = DIM_BUDGET
) -> tuple[tuple[Signature, int], ...]:
    """Multiset decomposition of the tensor product of two U(d) irreps."""
    if sig1.d != sig2.d:
        raise ValueError("tensor factors must live on the same U(d)")
    d = sig1.d
    dim1, dim2 = weyl_dim(sig1), weyl_dim(sig2)
    if dim1 * dim2 > dim_budget:
        raise BudgetExceeded(f"product dimension {dim1 * dim2} exceeds budget {dim_budget}")
    a1, nu1 = _det_shift(sig1)
    a2, nu2 = _det_shift(sig2)
    shift = a1 + a2
    comps = []
    for gamma, mult in lr_product(nu1, nu2, max_length=d).items():
        comps.append((Signature(tuple(gamma.part(i) - shift for i in range(d))), mult))
    comps.sort(key=lambda c: c[0].entries)
    total = sum(m * weyl_dim(s) for s, m in comps)
    if total != dim1 * dim2:
        raise InvariantError("tensor product lost dimensions; LR bug")
    return tuple(comps)


@dataclass(frozen=True)
class BranchingReport:
    kind: str
    holds: bool
    failures: tuple[str, ...]


def check_branching_inequalities(decomposition, source) -> BranchingReport:
    """Size inequalities satisfied by every component of a decomposition.

    For each component the parts are no bigger than the whole, in |lam| and
    in |mu|, and the difference |lam| - |mu| of the parts equals the whole's.
    For a tensor product (source = (sig1, sig2)) the parts are the sizes of a
    component {mu3; lam3} and the whole is the sum over the two factors.  For
    a restriction (source = parent signature, decomposition a
    BlockDecomposition) the parts are the summed sizes of a component pair
    and the whole is the parent's.
    """

    def sizes(*sigs):
        runs = [run for sig in sigs for run in sig.runs]
        return sum(v * n for v, n in runs if v > 0), -sum(v * n for v, n in runs if v < 0)

    if isinstance(decomposition, BlockDecomposition):
        kind, (lam, mu) = "restriction", sizes(source)
        parts = [comp[:2] for comp in decomposition.components]
    else:
        kind, (lam, mu) = "tensor", sizes(*source)
        parts = [comp[:1] for comp in decomposition]
    failures = []
    for sigs in parts:
        a, b = sizes(*sigs)
        if not (a <= lam and b <= mu and a - b == lam - mu):
            failures.append(f"{kind} component {', '.join(map(repr, sigs))}")
    return BranchingReport(kind, not failures, tuple(failures))
