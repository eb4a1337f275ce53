"""Brute-force references the tests check the package against.

Nothing in `weylchar` calls these: each is the slow, literal form of a result
the package computes another way.  GT pattern enumeration is the reference
for the aggregation kernel `gtkernel.group_counts`, a product of interval
lengths (`two_row_strips`) for its determinant over a run of two, the GT sum
at grouped values (`eval_by_gt`) and the alternant quotient (`bialternant`)
for the character values of `ucharacters.char_eval`, the same quotient in
mpmath (`mp_alternant`) for the error bound of `ucharacters.char_float`, and
at repeated eigenvalues the grouped GT tally summed in mpmath
(`mp_grouped_char`); the per-coordinate series that `char_float` took
before it grouped equal eigenvalues (`char_float_ref`) for its value and
bound at spectra with none repeated, and the concatenation of angles that
`afalgebra.embed` did before it added multiplicities (`concatenated_embed`);
power-sum evaluation for `moments.hciz_power_sum` and the dimension of a
partition; the hook-length formula (`hook_length_dim`) for f^lam, which
the package reads off the power-sum row; the partition sum that defines the
Schur-Weyl defect (`schur_weyl_defect_ref`) for its closed form in
`afalgebra.schur_weyl_defect`; the product over every pair of entries (`weyl_pair_product`) for
the run product of `symfunc.weyl_dim`; the Fraction power-sum table
(`fraction_power_sum_coeffs`) and the partition sum that read its weights
(`fraction_weight_hciz_power_sum`) for the integer weights of
`symfunc.power_sum_weights` and `hciz_power_sum`, and the Gaussian rational
eigenvalues of a quarter-turn spectrum (`exact_values`) for the exact values
of characters, traces and `det_phi`, which the package computes from powers
of i.  The Bratteli layer's integer
arithmetic is checked against the Fraction backward substitution
(`fraction_trace_weights`) and the dense primitivity probe over every matrix
entry (`dense_validate_diagram`) that it replaced.  The Poisson checks, which
read one table of masses per rate, are checked bit for bit against the forms
that made every mass afresh for each use: one `exp(-t)` and one int `k!` per
mass (`poisson_mass_ref`), the tail as a loop over it (`poisson_tail_ref`), and
the series and re-expansion checks built on the two
(`poisson_series_check_ref`, `binomial_reexpansion_check_ref`).  The
semigroup check, which compares the per-coordinate products point by point,
is checked field for field against the form that expanded both rows into
tuple-keyed dicts over the whole grid (`box_kstep_semigroup_check`, with
its `box_kernel_row`, `_box_product` and `LatticeDistribution`).  The GT
kernel's one entry takes its coefficients as runs; the tests that give one
coefficient per coordinate tally them through `pairing_counts`.

The rest are fixtures that several test files share.  The staircase
spectrum `rho`, `spectrum_sum` and the Fraction closed form of the partition
sum at n = 2 and 4 (`J_closed_ref`) build the references of the closed-form
moments.  `all_signature_pairs` lists every {mu; lam} signature up to a size,
`rational_approx_defect` is the distance of a normalized character from
its limit, the product of trace powers, and `distribution_from_probs` builds
a weight distribution from `Fraction` masses over their common denominator.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from weylchar.afalgebra import BratteliDiagram, DiagramReport
from weylchar.combinatorics import (
    EMPTY,
    Partition,
    Signature,
    _as_int_tuple,
    conjugate,
    partitions_of,
    signature_from_pair,
)
from weylchar.errors import BudgetExceeded, InvariantError
from weylchar.exact import QQI_ONE, QQi, common_denominator
from weylchar.gtkernel import group_counts, run_counts
from weylchar.moments import HermitianSpectrum, WeightDistribution
from weylchar.poisson import (
    PoissonKernelParams,
    ReexpansionReport,
    SemigroupReport,
    SeriesReport,
    _complement,
    _masses,
    chi_tau_tauprime,
    embedded_trace_values,
)
from weylchar.symfunc import (
    exact_det,
    schur_to_power_sums,
    sym_group_character,
    weyl_dim,
)
from weylchar.ucharacters import (
    _DIV,
    _MUL,
    _U,
    _X_ERR,
    _gamma,
    _scaled,
    char_eval,
    over_dim,
)

GT_ENUM_MAX_D = 8
GT_ENUM_MAX_PATTERNS = 10**6


@dataclass(frozen=True)
class GTPattern:
    """Triangular array; rows[k] has length k+1 and the last row is the signature.

    Interlacing: rows[k+1][i] >= rows[k][i] >= rows[k+1][i+1].
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(_as_int_tuple(r) for r in self.rows)
        for k, r in enumerate(rows):
            if len(r) != k + 1:
                raise ValueError(f"row {k} has length {len(r)}, expected {k + 1}")
        for k in range(len(rows) - 1):
            lower, upper = rows[k], rows[k + 1]
            for i in range(k + 1):
                if not (upper[i] >= lower[i] >= upper[i + 1]):
                    raise ValueError(f"interlacing fails between rows {k} and {k + 1}")
        object.__setattr__(self, "rows", rows)


def weyl_pair_product(entries) -> int:
    """The Weyl dimension as the formula reads: a product over every pair of entries, O(d^2)."""
    num = den = 1
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            num *= entries[i] - entries[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den


def interlacings(entries: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All length-(k-1) tuples interlacing below a length-k signature row."""
    k = len(entries)
    if k == 1:
        return iter(())
    ranges = [range(entries[i + 1], entries[i] + 1) for i in range(k - 1)]
    return itertools.product(*ranges)


def enumerate_gt_patterns(
    sig: Signature, max_patterns: int = GT_ENUM_MAX_PATTERNS
) -> Iterator[GTPattern]:
    """Depth-first stream of all GT patterns with top row sig.

    Pattern counts equal the irrep dimension, which explodes with d and with
    the entry magnitudes, so both are budgeted before the stream starts.
    """
    if sig.d > GT_ENUM_MAX_D:
        raise BudgetExceeded(f"GT enumeration bound exceeded: d = {sig.d} > {GT_ENUM_MAX_D}")
    dim = weyl_dim(sig)
    if dim > max_patterns:
        raise BudgetExceeded(f"{dim} patterns exceed the enumeration budget {max_patterns}")

    def rec(row: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if len(row) == 1:
            yield (row,)
            return
        for lower in interlacings(row):
            for rest in rec(lower):
                yield rest + (row,)

    def stream() -> Iterator[GTPattern]:
        for rows in rec(sig.entries):
            yield GTPattern(rows)

    return stream()


def gt_weight(pattern: GTPattern) -> tuple[int, ...]:
    """Weight vector: k-th entry is rowsum(k) - rowsum(k-1)."""
    sums = [sum(r) for r in pattern.rows]
    return tuple(s - prev for s, prev in zip(sums, [0] + sums[:-1]))


def brute_force_counts(entries, groups, ngroups) -> dict[tuple[int, ...], int]:
    """GT patterns of the signature counted by grouped weight, one pattern at a time.

    Coordinate k adds its weight to group groups[k]; with groups = range(d)
    the keys are the full weights, so the result is the weight multiset.
    """
    out: dict[tuple[int, ...], int] = {}
    for pattern in enumerate_gt_patterns(Signature(tuple(entries))):
        e = [0] * ngroups
        for g, w in zip(groups, gt_weight(pattern)):
            e[g] += w
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


def pairing_counts(entries: tuple[int, ...], coeffs: tuple[int, ...]) -> dict[int, int]:
    """`run_counts` with one coefficient per coordinate: coeffs[i] for w_i."""
    if len(coeffs) != len(entries):
        raise ValueError("coeffs must give every coordinate a coefficient")
    runs: dict[int, int] = {}
    for c in coeffs:
        runs[c] = runs.get(c, 0) + 1
    return run_counts(entries, runs)


def two_row_strips(lam: tuple[int, ...], nu: tuple[int, ...]) -> int:
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


def eval_by_gt(sig_entries: tuple[int, ...], values) -> object:
    """Character value at a (possibly confluent) spectrum via GT aggregation.

    Equal values share a coordinate group; the result is the sum over grouped
    weights of mult * prod(v**e).  Works for Fraction, QQi and complex values;
    returns a Fraction when every term is an integer.
    """
    distinct: list = []
    groups: list[int] = []
    for v in values:
        for g, w in enumerate(distinct):
            if w == v:
                groups.append(g)
                break
        else:
            groups.append(len(distinct))
            distinct.append(v)
    counts = group_counts(tuple(sig_entries), tuple(groups), len(distinct))
    # Integer multiplicities keep complex terms in native float arithmetic;
    # the Fraction start makes an all-integer sum come back as a Fraction.
    total = Fraction(0)
    for exps, mult in counts.items():
        term = mult
        for v, e in zip(distinct, exps):
            if e:
                term = term * v**e
        total = total + term
    return total


def bialternant(sig_entries: tuple[int, ...], values) -> object:
    """det(x_i^(e_j + d - j)) / det(x_i^(d - j)); requires distinct values.

    The alternant quotient, which `eval_by_gt` is checked against at
    distinct points.
    """
    d = len(values)
    exps = [sig_entries[j] + d - 1 - j for j in range(d)]
    num = exact_det([[x**e for e in exps] for x in values])
    den = Fraction(1)
    for i in range(d):
        for j in range(i + 1, d):
            den = den * (values[i] - values[j])
    return num / den


def mp_alternant(sig_entries: tuple[int, ...], angles, dps: int = 400) -> complex:
    """The alternant quotient in mpmath at exp(2 pi i t), t the exact angles in turns.

    At dps digits it resolves spectra far closer than a double can, so it
    checks the float route's error bound.  mpmath is a test extra: callers
    skip without it.
    """
    import mpmath

    with mpmath.mp.workdps(dps):
        z = [mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator
                           if isinstance(t, Fraction) else 2 * mpmath.mpf(t)) for t in angles]
        d = len(z)
        exps = [sig_entries[j] + d - 1 - j for j in range(d)]
        num = mpmath.det(mpmath.matrix([[x**e for e in exps] for x in z]))
        den = mpmath.mpf(1)
        for i in range(d):
            for j in range(i + 1, d):
                den *= z[i] - z[j]
        return complex(num / den)


def mp_grouped_char(sig_entries: tuple[int, ...], groups, dps: int = 50) -> complex:
    """The character at eigenvalues exp(2 pi i t) repeated by count, for (t, count) groups, in mpmath.

    `group_counts` tallies the GT patterns by their weight summed over each
    group, exactly, and each tally term is summed at the exact angles, so
    repeated and near-confluent eigenvalues need nothing special.
    """
    import mpmath

    labels = tuple(g for g, (_, c) in enumerate(groups) for _ in range(c))
    with mpmath.mp.workdps(dps):
        z = [mpmath.expjpi(2 * mpmath.mpf(t.numerator) / t.denominator
                           if isinstance(t, Fraction) else 2 * mpmath.mpf(t)) for t, _ in groups]
        total = mpmath.mpc(0)
        for sums, n in group_counts(sig_entries, labels, len(groups)).items():
            term = mpmath.mpc(n)
            for x, e in zip(z, sums):
                term *= x**e
            total += term
        return complex(total)


def char_float_ref(sig, u) -> tuple[complex, float]:
    """`ucharacters.char_float` as it was with one series step per coordinate.

    Kept verbatim: on a spectrum with no repeated eigenvalue the grouped
    series takes the same steps in the same order, so value and bound must
    match it bit for bit.
    """
    if sig.d != u.d:
        raise ValueError(f"dimension mismatch: signature d={sig.d}, unitary d={u.d}")
    entries = sig.entries
    d = len(entries)
    lam = tuple(e for e in entries if e > 0)
    mu = tuple(-e for e in reversed(entries) if e < 0)
    p, q = len(lam), len(mu)
    if p + q == 0:
        return 1 + 0j, 0.0
    lam1, mu1 = (lam or (0,))[0], (mu or (0,))[0]
    # Both forms read the series up to this index; e_k vanishes past d.
    top = max(lam1 + p, mu1 + q) - 1
    dual = p + q >= lam1 + mu1
    if dual:
        below, above, kmax = conjugate(lam), conjugate(mu), min(top, d)
    else:
        below, above, kmax = lam, mu, top
    series = [1 + 0j] + [0j] * kmax
    if dual:
        for j, x in enumerate(u.complex_values(), 1):
            for k in range(min(j, kmax), 0, -1):
                series[k] += x * series[k - 1]
        errs = [_scaled(math.comb(d, k), (d + (_MUL + _X_ERR) * k) * _U)
                for k in range(kmax + 1)]
    else:
        for x in u.complex_values():
            acc = 1 + 0j
            for k in range(1, kmax + 1):
                acc = series[k] + x * acc
                series[k] = acc
        errs = [_scaled(math.comb(d + k - 1, k), (d + k + (_MUL + _X_ERR) * k) * _U)
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
    hadamard = math.prod(norms) * math.expm1(ratio)
    pivots = _gamma(_MUL * n)
    # The bound's own float evaluation rounds by a relative 4 n^2 u at most;
    # a series count past the float range (inf / inf) leaves no bound at all.
    bound = (hadamard + pivots / (1 - pivots) * abs(det)) * (1 + 2.0**-20)
    return det, math.inf if math.isnan(bound) else bound


def concatenated_embed(u, diagram, m: int) -> tuple[tuple, ...]:
    """Each block's angles at level m, by concatenating every source block's
    angles repeated by its multiplicity, level by level."""
    blocks = [b.angles for b in u.blocks]
    for n in range(u.level, m):
        blocks = [sum((angles * k for k, angles in zip(row, blocks)), ())
                  for row in diagram.mults[n]]
    return tuple(blocks)


# The imaginary unit as an exact Gaussian rational.
QQI_I = QQi(Fraction(0), Fraction(1))

# Quarter-turn roots of unity: turn -> exact value.
_QUARTER = {
    Fraction(0): QQI_ONE,
    Fraction(1, 4): QQI_I,
    Fraction(1, 2): QQi(Fraction(-1), Fraction(0)),
    Fraction(3, 4): QQi(Fraction(0), Fraction(-1)),
}


def exact_unit(turn: Fraction) -> QQi | None:
    """Exact value of exp(2*pi*i*turn) when the angle is a quarter turn."""
    t = Fraction(turn) % 1
    return _QUARTER.get(t)


def exact_values(u) -> tuple[QQi, ...] | None:
    """Exact eigenvalues of the DiagonalUnitary u when every angle is a quarter turn, else None."""
    out = []
    for a in u.angles:
        if not isinstance(a, Fraction):
            return None
        v = exact_unit(a)
        if v is None:
            return None
        out.append(v)
    return tuple(out)


def hook_length_dim(lam: Partition) -> int:
    """f^lam, the dimension of the symmetric-group irrep, by the hook-length formula."""
    lam = Partition(tuple(lam))
    conj = lam.conjugate()
    dim = math.factorial(lam.size)
    for i, row in enumerate(lam.parts):
        for j in range(row):
            dim //= row - j + conj.parts[j] - i - 1
    return dim


def schur_weyl_defect_ref(n: int, p: int, q: int) -> Fraction:
    """The defect's defining partition sum, d = 2^n, p + q <= d, (p, q) != (0, 0).

    (1/d^{p+q}) * sum over lam of p, mu of q of
    (s_lam(1_d) s_mu(1_d) - dim pi_{mu;lam}) * f^lam * f^mu.
    """
    d = 2**n

    def dim(lam, mu):
        return weyl_dim(signature_from_pair(lam, mu, d))

    poly_dims = {part: dim(part, EMPTY) for part in partitions_of(p) + partitions_of(q)}
    total = 0
    for lam in partitions_of(p):
        for mu in partitions_of(q):
            gap = poly_dims[lam] * poly_dims[mu] - dim(lam, mu)
            total += gap * hook_length_dim(lam) * hook_length_dim(mu)
    return Fraction(total, d ** (p + q))


def power_sum_value(coeffs, p):
    """Sum over cycle types rho of coeffs[rho] * prod p[r], r in rho.

    Takes the {rho: coefficient} dict of `schur_to_power_sums` and p[r] for
    r = 1..n; works for Fraction, QQi or complex power sums.
    """
    total = None
    for rho, c in coeffs.items():
        term = c
        for r in rho.parts:
            term = term * p[r]
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def schur_by_power_sums(lam: Partition, values) -> Fraction:
    """s_lam at the given values, through the power-sum expansion."""
    p = {r: sum(v**r for v in values) for r in range(1, lam.size + 1)}
    return power_sum_value(schur_to_power_sums(lam), p)


def fraction_power_sum_coeffs(lam: Partition) -> dict[Partition, Fraction]:
    """{rho: chi^lam(rho) / z_rho} over the rho of |lam| with a nonzero character.

    The Fraction table, in the order of `partitions_of`, that `symfunc`
    cached before it cached the integer weights n! chi^lam(rho) / z_rho.
    """
    coeffs = {}
    for rho in partitions_of(lam.size):
        chi = sym_group_character(lam.parts, rho.parts)
        if chi:
            z = 1
            for r in set(rho.parts):
                m = rho.parts.count(r)
                z *= r**m * math.factorial(m)
            coeffs[rho] = Fraction(chi, z)
    return coeffs


def fraction_weight_hciz_power_sum(a, b, n: int) -> Fraction:
    """`moments.hciz_power_sum` with the weights read from the Fraction table.

    The loop that the integer dot product replaced: each weight is
    c.numerator * (n! // c.denominator) for c in `fraction_power_sum_coeffs`.
    """
    d = a.d
    scaled = []
    for spec in (a, b):
        scale = math.lcm(*(v.denominator for v in spec.eigenvalues))
        scaled.append((scale, [v.numerator * (scale // v.denominator) for v in spec.eigenvalues]))
    (scale_a, xa), (scale_b, xb) = scaled
    pa = [sum(x**j for x in xa) for j in range(n + 1)]
    pb = [sum(x**j for x in xb) for j in range(n + 1)]
    partitions = partitions_of(n)
    pa_ct = {ct: math.prod(pa[j] for j in ct.parts) for ct in partitions}
    pb_ct = {ct: math.prod(pb[j] for j in ct.parts) for ct in partitions}
    fact = math.factorial(n)
    terms = []
    for lam in partitions:
        if lam.length > d:
            continue
        na = nb = 0
        for ct, c in fraction_power_sum_coeffs(lam).items():
            weight = c.numerator * (fact // c.denominator)
            na += weight * pa_ct[ct]
            nb += weight * pb_ct[ct]
        terms.append((hook_length_dim(lam) * na * nb, weyl_dim(signature_from_pair(lam, EMPTY, d))))
    common = math.lcm(*(dim for _, dim in terms))
    numerator = sum(num * (common // dim) for num, dim in terms)
    return Fraction(numerator, common * fact * fact * scale_a**n * scale_b**n)


def uhf_product_diagram(factors: tuple[int, ...], depth: int) -> BratteliDiagram:
    """Direct sum of UHF towers (diagonal multiplicities); one extreme trace per block."""
    nb = len(factors)
    levels = [(1,) * nb]
    mults = []
    for _ in range(depth):
        m = tuple(
            tuple(factors[j] if i == j else 0 for i in range(nb)) for j in range(nb)
        )
        mults.append(m)
        levels.append(tuple(levels[-1][j] * factors[j] for j in range(nb)))
    return BratteliDiagram(
        tuple(levels), tuple(mults), f"product:{','.join(map(str, factors))}",
        None, simple_known=False,
    )


def fraction_trace_weights(diagram: BratteliDiagram, boundary) -> tuple[tuple[Fraction, ...], ...]:
    """Per-level weights by Fraction backward substitution t_n = M_n^T t_{n+1}.

    `boundary` is "uniform", a block index or a tuple, read as `trace_weights`
    reads it; the diagram's default boundary is not handled here.
    """
    dims = diagram.levels[-1]
    if boundary == "uniform":
        vec = tuple(Fraction(1, sum(dims)) for _ in dims)
    elif isinstance(boundary, int):
        vec = tuple(Fraction(int(i == boundary), d) for i, d in enumerate(dims))
    else:
        vec = tuple(Fraction(x) for x in boundary)
    out = [vec]
    for m in reversed(diagram.mults):
        t = out[-1]
        out.append(tuple(sum((m[i][j] * t[i] for i in range(len(m))), Fraction(0))
                         for j in range(len(m[0]))))
    return tuple(reversed(out))


def dense_validate_diagram(diagram: BratteliDiagram) -> DiagramReport:
    """`validate_diagram` with the primitivity probe ORing over every matrix entry."""
    errors = [f"level {n} block {i} has dimension {dim}"
              for n, lv in enumerate(diagram.levels) for i, dim in enumerate(lv) if dim < 1]
    for n, m in enumerate(diagram.mults):
        dims = diagram.levels[n]
        expected = tuple(sum(row[j] * dims[j] for j in range(len(dims))) for row in m)
        if expected != diagram.levels[n + 1]:
            errors.append(
                f"level {n + 1} dims {diagram.levels[n + 1]} != M_{n} d_{n} = {expected}"
            )
        for i, row in enumerate(m):
            if all(v == 0 for v in row):
                errors.append(f"matrix {n} row {i} is zero")
        if any(v < 0 for row in m for v in row):
            errors.append(f"matrix {n} has negative entries")
    min_dims = tuple(min(lv) for lv in diagram.levels)
    primitive = None
    if not errors and diagram.mults:
        depth = diagram.depth
        first_window = {}
        for n in range(depth):
            full = (1 << len(diagram.levels[n])) - 1
            prod = [sum(1 << j for j, v in enumerate(row) if v) for row in diagram.mults[n]]
            for m in range(n + 1, depth + 1):
                if all(row == full for row in prod):
                    first_window[n] = m - n
                    break
                if m < depth:
                    rows = []
                    for row in diagram.mults[m]:
                        mask = 0
                        for k, v in enumerate(row):
                            if v:
                                mask |= prod[k]
                        rows.append(mask)
                    prod = rows
        if not first_window:
            primitive = False
        else:
            window = max(first_window.values())
            primitive = all(n in first_window for n in range(depth) if n + window <= depth)
    return DiagramReport(not errors, tuple(errors), min_dims, primitive, diagram.simple_known)


def distribution_from_probs(probs: dict[int, Fraction]) -> WeightDistribution:
    """The distribution with mass probs[k] at k; the masses must sum to 1."""
    total, counts = common_denominator(probs.values())
    return WeightDistribution(dict(zip(probs, counts)), total)


def rho(d: int) -> HermitianSpectrum:
    """The staircase ((d-1)/2, (d-3)/2, ..., -(d-1)/2); Tr = 0, Tr^2 = d(d^2-1)/12."""
    if d < 1:
        raise ValueError("d must be positive")
    return HermitianSpectrum(tuple(Fraction(d - 1 - 2 * i, 2) for i in range(d)))


def spectrum_sum(a: HermitianSpectrum, b: HermitianSpectrum) -> HermitianSpectrum:
    """The spectrum of diag(a) + diag(b)."""
    if a.d != b.d:
        raise ValueError("spectra of different sizes")
    return HermitianSpectrum(tuple(x + y for x, y in zip(a.eigenvalues, b.eigenvalues)))


def J_closed_ref(b: HermitianSpectrum, r: int, n: int) -> Fraction:
    """Closed form of the partition sum of the signed window (r slots) against B, n in {2, 4}.

    B must be centred.  The partition sum itself is
    `hciz_power_sum(HermitianSpectrum(TraceZeroSigned(r, d).diagonal()), b, n)`.
    """
    if b.trace() != 0:
        raise ValueError("closed forms assume a centered spectrum; call center() first")
    d = b.d
    if n == 2:
        if d < 2:
            raise ValueError("n = 2 needs d >= 2")
        return Fraction(r) * b.trace(2) / (d * d - 1)
    if n == 4:
        if d < 4:
            raise ValueError("n = 4 needs d >= 4")
        d2 = d * d
        t2, t4 = b.trace(2), b.trace(4)
        lead = Fraction(3 * r) * ((d2 * d2 - 6 * d2 + 18) * r - 2 * d * (2 * d2 - 3))
        lead /= d2 * (d2 - 1) * (d2 - 4) * (d2 - 9)
        sub = Fraction(6 * r) * ((2 * d2 - 3) * r - d * (d2 + 1))
        sub /= d * (d2 - 1) * (d2 - 4) * (d2 - 9)
        return lead * t2 * t2 - sub * t4
    raise ValueError(f"no closed form for n = {n}")


def all_signature_pairs(d: int, max_size: int) -> list[Signature]:
    """All {mu; lam} signatures on U(d) with |lam|, |mu| <= max_size."""
    out = []
    for p in range(max_size + 1):
        for q in range(max_size + 1):
            for lam in partitions_of(p):
                for mu in partitions_of(q):
                    if lam.length + mu.length <= d:
                        out.append(signature_from_pair(lam, mu, d))
    return out


def rational_approx_defect(lam: Partition, mu: Partition, u) -> float:
    """|chi_{mu;lam}(u) / dim - (Tr u / d)^{|lam|} (conj Tr u / d)^{|mu|}|.

    The deviation of the normalized character from its limit decays like 1/d
    (faster for some pairs).
    """
    d = u.d
    sig = signature_from_pair(lam, mu, d)
    tr = u.trace()
    target = (tr / d) ** lam.size * (tr.conjugate() / d) ** mu.size
    return abs(complex(over_dim(char_eval(sig, u), weyl_dim(sig))) - target)


def poisson_mass_ref(t, k: int) -> float:
    """e^{-t} t^k / k! with its own exp(-t) and int k!, log space past 170!."""
    if k < 0:
        return 0.0
    if t == 0:
        return 1.0 if k == 0 else 0.0
    if k <= 170 and t < 700 and k * math.log(max(t, 1.0)) < 600:
        return math.exp(-t) * t**k / math.factorial(k)
    return math.exp(-t + k * math.log(t) - math.lgamma(k + 1))


def poisson_tail_ref(t, k: int) -> float:
    """max(0, 1 - sum of the masses at 0..k), summed by an explicit loop."""
    acc = 0.0
    for j in range(k + 1):
        acc += poisson_mass_ref(t, j)
    return max(0.0, 1.0 - acc)


def poisson_series_check_ref(a, b, n: int, tau, taup, truncation: int) -> SeriesReport:
    """`poisson_series_check` on valid float rates, each mass made for each use."""

    def factor(rate: float, value: complex) -> complex:
        out = 0j
        power = 1 + 0j
        for x in range(truncation + 1):
            out += poisson_mass_ref(rate, x) * power
            power *= value
        return out

    series = 1 + 0j
    tail = 0.0
    exponent = 0j
    for rate, v in zip(a, tau):
        series *= factor(n * rate, v)
        tail += poisson_tail_ref(n * rate, truncation)
        exponent += n * rate * (v - 1)
    for rate, v in zip(b, taup):
        series *= factor(n * rate, v.conjugate())
        tail += poisson_tail_ref(n * rate, truncation)
        exponent += n * rate * (v.conjugate() - 1)
    closed = cmath.exp(exponent)
    deviation = abs(closed - series)
    return SeriesReport(closed, series, deviation, tail, truncation, deviation <= max(tail * 4, 1e-10))


def binomial_reexpansion_check_ref(a, n: int, m: int, tau, truncation: int) -> ReexpansionReport:
    """`binomial_reexpansion_check` on valid float rates, each mass made for each use."""
    step = m - n
    rates = tuple(step * x for x in a)
    tail = sum(poisson_tail_ref(r, truncation) for r in rates)
    row_dev = 0.0
    proj_dev = 0.0
    for r in rates:
        mass = sum(poisson_mass_ref(r, x) for x in range(truncation + 1))
        mean = sum(x * poisson_mass_ref(r, x) for x in range(truncation + 1))
        row_dev = max(row_dev, abs(mass - 1.0))
        proj_dev = max(proj_dev, abs(mean - r))
    binom_dev = 0.0
    for v in tau:
        emb = (n * v + step) / m
        for z in (1, 2, 5):
            expanded = sum(
                math.comb(z, x) * n**x * step ** (z - x) / m**z * v**x for x in range(z + 1)
            )
            binom_dev = max(binom_dev, abs(emb**z - expanded))
    level_n = chi_tau_tauprime([n * ai * (vi - 1) for ai, vi in zip(a, tau)])
    emb_vals = embedded_trace_values(tau, n, m)
    level_m = chi_tau_tauprime([m * ai * (vi - 1) for ai, vi in zip(a, emb_vals)])
    char_dev = abs(level_n - level_m)
    passed = (
        row_dev <= max(tail, 1e-12)
        and proj_dev <= max(tail * truncation, 1e-8)
        and binom_dev <= 1e-10
        and char_dev <= 1e-10
    )
    return ReexpansionReport(row_dev, proj_dev, char_dev, binom_dev, tail, passed)


@dataclass(frozen=True)
class LatticeDistribution:
    """Truncated distribution on nonnegative integer tuples with a tail bound.

    The stored masses plus the certified tail account for all probability:
    sum(probs) <= 1 and sum(probs) + tail_bound covers 1 up to roundoff.
    """

    probs: dict[tuple[int, ...], float]
    tail_bound: float

    def __post_init__(self):
        probs = {tuple(k): float(v) for k, v in self.probs.items() if v}
        if any(v < 0 for v in probs.values()):
            raise ValueError("negative mass")
        total = sum(probs.values())
        if total > 1 + 1e-9:
            raise ValueError(f"mass {total} exceeds 1")
        if total + self.tail_bound < 1 - 1e-6:
            raise ValueError("tail bound does not cover the missing mass")
        object.__setattr__(self, "probs", probs)


def _box_product(vectors) -> dict[tuple[int, ...], float]:
    """Joint masses on the box: the product of one mass vector per coordinate."""
    probs = {(): 1.0}
    for vec in vectors:
        probs = {y + (z,): p * v for y, p in probs.items() for z, v in enumerate(vec)}
    return probs


def box_kernel_row(params: PoissonKernelParams, scale: int, truncation: int) -> LatticeDistribution:
    """Row of the scale-fold kernel from the origin, truncated to a box."""
    tables = [_masses(scale * r, truncation) for r in params.a]
    tail = sum(_complement(masses) for masses in tables)
    return LatticeDistribution(_box_product(tables), tail)


def box_kstep_semigroup_check(
    params: PoissonKernelParams, k: int, truncation: int = 40
) -> SemigroupReport:
    """`poisson.kstep_semigroup_check` over the joint grid as tuple-keyed dicts."""
    if k < 1:
        raise ValueError("k >= 1 required")
    if truncation < 0:
        raise ValueError(f"truncation must be nonnegative, got {truncation}")
    marginals = []
    for ai in params.a:
        pm = _masses(ai, truncation)
        vec = [1.0] + [0.0] * truncation
        for _ in range(k):
            new = [0.0] * (truncation + 1)
            for x, px in enumerate(vec):
                if px:
                    for z in range(truncation + 1 - x):
                        new[x + z] += px * pm[z]
            vec = new
        marginals.append(vec)
    probs = _box_product(marginals)
    direct = box_kernel_row(params, k, truncation)
    # Increments are nonnegative, so a k-step path leaves the box exactly when
    # its endpoint does: the iterated row misses the same mass as the direct row.
    iterated = LatticeDistribution(probs, direct.tail_bound)
    iterated_probs, direct_probs = iterated.probs, direct.probs
    worst = 0.0
    for y in probs:
        worst = max(worst, abs(iterated_probs.get(y, 0.0) - direct_probs.get(y, 0.0)))
    tail = direct.tail_bound
    return SemigroupReport(k, worst, tail, worst <= max(tail, 1e-10))
