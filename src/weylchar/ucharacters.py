"""Irreducible characters of U(d) and their branching behaviour.

Evaluation happens at diagonal unitaries (characters are class functions),
and the spectrum alone picks the route.  At eigenvalues i**q_j a GT pattern
of weight w contributes i**(sum_j q_j w_j): `gtkernel.pairing_counts` counts
the patterns by that exponent and `exact.phase_sum` folds the tally.  Other
spectra are complex doubles: distinct ones go through the Weyl quotient of
alternants, near-confluent ones through `symfunc.eval_by_gt` at grouped
values, since the alternant denominator degenerates there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from weylchar.combinatorics import (
    Partition,
    Signature,
    partitions_of,
    rows_between,
    signature_from_pair,
    signature_to_pair,
)
from weylchar.errors import DIM_BUDGET, BudgetExceeded, InvariantError
from weylchar.exact import phase_sum, quarter_turn, unit_complex
from weylchar.gtkernel import pairing_counts
from weylchar.symfunc import eval_by_gt, lr_product, skew_expand, weyl_dim

CONFLUENCE_GAP = 1e-8
CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class DiagonalUnitary:
    """diag(exp(2*pi*i*t_1), ..., exp(2*pi*i*t_d)) with angles t_k in turns.

    Rational angles are kept as Fractions; at quarter turns the eigenvalues
    are exact powers of i.
    """

    angles: tuple

    def __post_init__(self):
        angles = tuple(
            Fraction(a) % 1 if isinstance(a, (int, Rational)) else float(a) % 1.0
            for a in self.angles
        )
        if not angles:
            raise ValueError("need at least one eigenvalue")
        object.__setattr__(self, "angles", angles)

    @property
    def d(self) -> int:
        return len(self.angles)

    def complex_values(self) -> tuple[complex, ...]:
        return tuple(unit_complex(a) for a in self.angles)

    def quarter_turns(self) -> tuple[int, ...] | None:
        """Each eigenvalue as its power k of i when every angle is a quarter turn, else None."""
        ks = tuple(map(quarter_turn, self.angles))
        return None if None in ks else ks

    def trace(self) -> complex:
        return sum(self.complex_values())

    @staticmethod
    def identity(d: int) -> "DiagonalUnitary":
        return DiagonalUnitary((Fraction(0),) * d)


def _cluster(values: tuple[complex, ...]):
    reps: list[complex] = []
    groups: list[int] = []
    for v in values:
        for g, w in enumerate(reps):
            if abs(v - w) <= CLUSTER_TOL:
                groups.append(g)
                break
        else:
            groups.append(len(reps))
            reps.append(v)
    return reps, tuple(groups)


def char_eval(sig: Signature, u: DiagonalUnitary):
    """Trace of the irrep sig at u.

    The input picks the route: when every angle is a quarter turn
    (`u.quarter_turns()`), the GT patterns counted by their power of i and
    folded into an exact Gaussian integer `QQi`; otherwise a complex double,
    from GT summation whenever two eigenvalues are closer than 1e-8.
    """
    if sig.d != u.d:
        raise ValueError(f"dimension mismatch: signature d={sig.d}, unitary d={u.d}")
    quarters = u.quarter_turns()
    if quarters is not None:
        return phase_sum(pairing_counts(sig.entries, quarters))
    values = u.complex_values()
    # Tower-embedded unitaries repeat eigenvalues exactly; spot that in O(d)
    # before the O(d^2) pair scan.
    if len(set(values)) < u.d:
        gap = 0.0
    else:
        gap = min(
            (abs(values[i] - values[j]) for i in range(u.d) for j in range(i + 1, u.d)),
            default=float("inf"),
        )
    if gap < CONFLUENCE_GAP:
        reps, groups = _cluster(values)
        return complex(eval_by_gt(sig.entries, tuple(reps[g] for g in groups)))
    import numpy as np

    d = u.d
    exps = [sig.entries[j] + d - 1 - j for j in range(d)]
    num = np.linalg.det(np.array([[v**e for e in exps] for v in values], dtype=complex))
    den = 1.0 + 0j
    for i in range(d):
        for j in range(i + 1, d):
            den *= values[i] - values[j]
    return num / den


def normalized_char(sig: Signature, u: DiagonalUnitary):
    """char_eval divided by the Weyl dimension; modulus at most 1."""
    return char_eval(sig, u) / weyl_dim(sig)


@dataclass(frozen=True)
class BlockDecomposition:
    """Restriction of a U(d1+d2) irrep to U(d1) x U(d2)."""

    parent: Signature
    d1: int
    d2: int
    components: tuple[tuple[Signature, Signature, int], ...]

    def total_dim(self) -> int:
        dims = {s: weyl_dim(s) for s in {s for comp in self.components for s in comp[:2]}}
        return sum(m * dims[s1] * dims[s2] for s1, s2, m in self.components)


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
    second: dict[Partition, Signature] = {}
    for row in rows_between(sig.entries[:d1], sig.entries[d2:]):
        s1 = Signature(row)
        for beta, mult in skew_expand(nu, Partition(tuple(e + a for e in row)), d2).items():
            s2 = second.get(beta)
            if s2 is None:
                s2 = second[beta] = Signature(tuple(beta.part(i) - a for i in range(d2)))
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
    checked: int
    failures: tuple[str, ...]


def check_branching_inequalities(decomposition, source) -> BranchingReport:
    """Size inequalities satisfied by every component of a decomposition.

    For a tensor product (source = (sig1, sig2)): each component {mu3; lam3}
    obeys |lam3| <= |lam1|+|lam2|, |mu3| <= |mu1|+|mu2| and the difference
    equality.  For a restriction (source = parent signature, decomposition a
    BlockDecomposition): the mirrored inequalities hold per component pair.
    """
    failures: list[str] = []
    checked = 0
    if isinstance(decomposition, BlockDecomposition):
        lam, mu = signature_to_pair(source)
        for s1, s2, _ in decomposition.components:
            l1, m1 = signature_to_pair(s1)
            l2, m2 = signature_to_pair(s2)
            checked += 1
            ok = (
                l1.size + l2.size <= lam.size
                and m1.size + m2.size <= mu.size
                and l1.size + l2.size - m1.size - m2.size == lam.size - mu.size
            )
            if not ok:
                failures.append(f"restriction component ({s1}, {s2})")
        return BranchingReport("restriction", not failures, checked, tuple(failures))

    sig1, sig2 = source
    l1, m1 = signature_to_pair(sig1)
    l2, m2 = signature_to_pair(sig2)
    for s3, _ in decomposition:
        l3, m3 = signature_to_pair(s3)
        checked += 1
        ok = (
            l3.size <= l1.size + l2.size
            and m3.size <= m1.size + m2.size
            and l3.size - m3.size == l1.size + l2.size - m1.size - m2.size
        )
        if not ok:
            failures.append(f"tensor component {s3}")
    return BranchingReport("tensor", not failures, checked, tuple(failures))


def rational_approx_defect(lam: Partition, mu: Partition, u: DiagonalUnitary) -> float:
    """|chi_{mu;lam}(u) - (Tr u / d)^{|lam|} (conj Tr u / d)^{|mu|}|.

    The deviation decays like 1/d (faster for some pairs); the caller inspects
    the d-scaling.  The character is exact at quarter turns (`char_eval`) and
    otherwise the GT sum at float values: the alternant quotient loses every
    digit on near-confluent float spectra.
    """
    lam, mu = Partition(tuple(lam)), Partition(tuple(mu))
    d = u.d
    sig = signature_from_pair(lam, mu, d)
    exact = u.quarter_turns() is not None
    chi = char_eval(sig, u) if exact else eval_by_gt(sig.entries, u.complex_values())
    chi = complex(chi / weyl_dim(sig))
    tr = u.trace()
    target = (tr / d) ** lam.size * (tr.conjugate() / d) ** mu.size
    return abs(chi - target)


def all_signature_pairs(d: int, max_size: int):
    """All {mu; lam} signatures on U(d) with |lam|, |mu| <= max_size."""
    out = []
    for p in range(max_size + 1):
        for q in range(max_size + 1):
            for lam in partitions_of(p):
                for mu in partitions_of(q):
                    if lam.length + mu.length <= d:
                        out.append(signature_from_pair(lam, mu, d))
    return out
