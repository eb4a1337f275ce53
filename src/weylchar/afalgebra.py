"""Bratteli-diagram models of matrix-block inductive limits.

A diagram stores finitely many levels of block dimensions and the embedding
multiplicity matrices between them.  Traces live as per-level weight vectors
(value on a minimal projection of each block), K0 homomorphisms as per-level
integer vectors; both must intertwine the transposed multiplicity matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from weylchar.combinatorics import EMPTY, Partition, _as_int_tuple, partitions_of, signature_from_pair
from weylchar.errors import ERGODIC_DIM_BUDGET, BudgetExceeded
from weylchar.exact import QQi, common_denominator, phase_sum, quarter_turn, unit_complex
from weylchar.symfunc import exact_det, sym_group_dim, weyl_dim
from weylchar.ucharacters import DiagonalUnitary, char_eval, over_dim

Matrix = tuple[tuple[int, ...], ...]


def _as_matrix(rows) -> Matrix:
    return tuple(_as_int_tuple(row) for row in rows)


def _mat_t_vec(m: Matrix, v):
    """M^T v, skipping zero entries; ValueError unless v has one entry per row of M."""
    if len(v) != len(m):
        raise ValueError(f"vector of length {len(v)} against a matrix with {len(m)} rows")
    out = [0] * len(m[0])
    for row, x in zip(m, v):
        if x:
            for j, a in enumerate(row):
                if a:
                    out[j] += a * x
    return tuple(out)


def _check_length(n: int, vec, nblocks: int, what: str):
    if len(vec) != nblocks:
        raise ValueError(f"level {n}: {what} has {len(vec)} entries, the level has {nblocks} blocks")


@dataclass(frozen=True)
class BratteliDiagram:
    """Levels of block dimensions with multiplicity matrices between them.

    ``mults[n]`` has shape (len(levels[n+1]), len(levels[n])).  ``continuation``
    optionally gives a periodic tail of matrices used when reasoning about the
    diagram beyond the stored depth (K0 extendability).
    """

    levels: tuple[tuple[int, ...], ...]
    mults: tuple[Matrix, ...]
    name: str = ""
    continuation: tuple[Matrix, ...] | None = None
    simple_known: bool | None = None

    def __post_init__(self):
        levels = tuple(_as_int_tuple(lv) for lv in self.levels)
        mults = tuple(_as_matrix(m) for m in self.mults)
        for n, lv in enumerate(levels):
            if not lv:
                raise ValueError(f"level {n} has no blocks")
        if len(mults) != len(levels) - 1:
            raise ValueError("need exactly one multiplicity matrix per level step")
        for n, m in enumerate(mults):
            if len(m) != len(levels[n + 1]) or any(len(r) != len(levels[n]) for r in m):
                raise ValueError(f"matrix {n} has the wrong shape")
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "mults", mults)

    @property
    def depth(self) -> int:
        """Index of the deepest stored level."""
        return len(self.levels) - 1

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "levels": [list(lv) for lv in self.levels],
            "multiplicities": [[list(r) for r in m] for m in self.mults],
        }

    @staticmethod
    def from_json(data) -> "BratteliDiagram":
        """Inverse of to_json; ValueError when data does not have its structure."""
        try:
            return BratteliDiagram(
                tuple(tuple(lv) for lv in data["levels"]),
                tuple(_as_matrix(m) for m in data["multiplicities"]),
                name=data.get("name", ""),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed diagram JSON: {exc!r}") from exc


@dataclass(frozen=True)
class DiagramReport:
    valid: bool
    errors: tuple[str, ...]
    min_dims: tuple[int, ...]
    primitive_within_depth: bool | None
    simple_known: bool | None

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "errors": list(self.errors),
            "min_dims": list(self.min_dims),
            "primitive_within_depth": self.primitive_within_depth,
            "simple_known": self.simple_known,
        }


def _or_rows(masks: list[int], support: tuple[int, ...]) -> int:
    """Zero pattern of one row of M @ P: the OR of the rows of P that M's row hits."""
    out = 0
    for k in support:
        out |= masks[k]
    return out


def validate_diagram(diagram: BratteliDiagram) -> DiagramReport:
    """Block dimensions, their compatibility, zero rows, and a positivity probe of products."""
    errors = [f"level {n} block {i} has dimension {dim}"
              for n, lv in enumerate(diagram.levels) for i, dim in enumerate(lv) if dim < 1]
    # Per matrix, per row: the columns holding a nonzero entry.
    supports = [
        [tuple(j for j, v in enumerate(row) if v) for row in m] for m in diagram.mults
    ]
    for n, m in enumerate(diagram.mults):
        dims = diagram.levels[n]
        expected = tuple(
            sum(row[j] * dims[j] for j in supp) for row, supp in zip(m, supports[n])
        )
        if expected != diagram.levels[n + 1]:
            errors.append(
                f"level {n + 1} dims {diagram.levels[n + 1]} != M_{n} d_{n} = {expected}"
            )
        for i, supp in enumerate(supports[n]):
            if not supp:
                errors.append(f"matrix {n} row {i} is zero")
        if min(map(min, m)) < 0:
            errors.append(f"matrix {n} has negative entries")
    min_dims = tuple(min(lv) for lv in diagram.levels)
    primitive = None
    if not errors and diagram.mults:
        # Smallest window of matrix products that becomes strictly positive,
        # per start level; a level near the top is excused only when no full
        # window fits below the stored depth.  Every entry is nonnegative
        # here, so a product entry is positive exactly when some path of
        # positive entries reaches it: the products are tracked as zero
        # patterns, each row a bitmask over the level-n blocks.
        depth = diagram.depth
        row_masks = [[sum(1 << j for j in supp) for supp in rows] for rows in supports]
        first_window: dict[int, int] = {}
        for n in range(depth):
            full = (1 << len(diagram.levels[n])) - 1
            prod = row_masks[n]
            for m in range(n + 1, depth + 1):
                if all(row == full for row in prod):
                    first_window[n] = m - n
                    break
                if m < depth:
                    prod = [_or_rows(prod, supp) for supp in supports[m]]
        if not first_window:
            primitive = False
        else:
            window = max(first_window.values())
            primitive = all(
                n in first_window for n in range(depth) if n + window <= depth
            )
    return DiagramReport(not errors, tuple(errors), min_dims, primitive, diagram.simple_known)


# ---------------------------------------------------------------------------
# presets


def _uhf_diagram(factors: tuple[int, ...], depth: int, name: str) -> BratteliDiagram:
    levels = [(1,)]
    mults = []
    for n in range(depth):
        k = factors[n % len(factors)]
        mults.append(((k,),))
        levels.append((levels[-1][0] * k,))
    # The tail continues from step `depth`, so it stays in phase with the
    # stored steps whatever the depth.
    tail = tuple(((factors[(depth + i) % len(factors)],),) for i in range(len(factors)))
    return BratteliDiagram(tuple(levels), tuple(mults), name, tail, simple_known=True)


def _effros_shen_diagram(cf_terms: tuple[int, ...], name: str) -> BratteliDiagram:
    if not cf_terms or any(a < 1 for a in cf_terms):
        raise ValueError("continued-fraction terms must be positive integers")
    # Convergent denominators of [0; a_1, a_2, ...]; level n holds (q_n, q_{n-1}).
    q_prev, q = 1, cf_terms[0]
    levels = [(1,), (q, 1)]
    mults: list[Matrix] = [((cf_terms[0],), (1,))]
    for a in cf_terms[1:]:
        mults.append(((a, 1), (1, 0)))
        q_prev, q = q, a * q + q_prev
        levels.append((q, q_prev))
    tail = (((cf_terms[-1], 1), (1, 0)),)
    return BratteliDiagram(tuple(levels), tuple(mults), name, tail, simple_known=True)


def _gicar_diagram(depth: int) -> BratteliDiagram:
    levels = [tuple(math.comb(n, k) for k in range(n + 1)) for n in range(depth + 1)]
    mults = []
    for n in range(depth):
        m = tuple(
            tuple(1 if j in (i, i + 1) else 0 for i in range(n + 1)) for j in range(n + 2)
        )
        mults.append(m)
    return BratteliDiagram(
        tuple(levels), tuple(mults), "gicar-excluded", None, simple_known=False
    )


def preset_diagram(name: str, depth: int | None = None) -> BratteliDiagram:
    """Load a named diagram.

    Names: "car", "uhf:<k1,k2,...>" (factors cycled), "effros-shen[:<cf terms>]"
    (golden mean by default; explicit terms cycled like the uhf factors),
    "gicar-excluded" (the Pascal diagram; valid but not simple, excluded from
    the simplicity-dependent guarantees).  `depth` None means the preset's
    default depth, which for explicit Effros-Shen terms is one step per term
    as given; otherwise it must be at least 1.
    """
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")
    key = name.strip().lower()
    if key == "car":
        return _uhf_diagram((2,), depth or 8, "car")
    if key.startswith("uhf:"):
        factors = tuple(int(t) for t in key[4:].split(",") if t)
        if not factors or any(k < 2 for k in factors):
            raise ValueError("uhf factors must be integers >= 2")
        return _uhf_diagram(factors, depth or 8, key)
    if key == "effros-shen":
        return _effros_shen_diagram((1,) * (depth or 10), key)
    if key.startswith("effros-shen:"):
        terms = tuple(int(t) for t in key[len("effros-shen:") :].split(",") if t)
        if depth is not None and terms:
            terms = tuple(terms[n % len(terms)] for n in range(depth))
        return _effros_shen_diagram(terms, key)
    if key in ("gicar-excluded", "gicar"):
        return _gicar_diagram(depth or 8)
    raise ValueError(f"unknown diagram preset: {name!r}")


# ---------------------------------------------------------------------------
# traces


@dataclass(frozen=True)
class TraceWeights:
    """Per level, the trace of a minimal projection in each block.

    Normalized (sum of weight * dim = 1 per level) and exactly compatible with
    the diagram: t_n = M_n^T t_{n+1}.  Both are checked over the integers:
    every weight is scaled by L, the lcm of all their denominators, so a
    level must sum to L and the integer vectors must intertwine M^T.
    """

    diagram: BratteliDiagram
    weights: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        w = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in lv) for lv in self.weights
        )
        if len(w) != len(self.diagram.levels):
            raise ValueError("need one weight vector per level")
        for n, (tw, dims) in enumerate(zip(w, self.diagram.levels)):
            _check_length(n, tw, len(dims), "weight vector")
        lcm = math.lcm(*(x.denominator for lv in w for x in lv))
        scaled = [tuple(x.numerator * (lcm // x.denominator) for x in lv) for lv in w]
        for n, (xs, dims) in enumerate(zip(scaled, self.diagram.levels)):
            if any(x < 0 for x in xs):
                raise ValueError(f"level {n}: negative weight")
            if sum(x * d for x, d in zip(xs, dims)) != lcm:
                raise ValueError(f"level {n}: weights not normalized")
        for n, m in enumerate(self.diagram.mults):
            if _mat_t_vec(m, scaled[n + 1]) != scaled[n]:
                raise ValueError(f"compatibility fails between levels {n} and {n + 1}")
        object.__setattr__(self, "weights", w)


def _backward_weights(diagram: BratteliDiagram, boundary, what: str):
    """Every level's vector from the deepest one by v_n = M_n^T v_{n+1}."""
    _check_length(diagram.depth, boundary, len(diagram.levels[-1]), what)
    out = [tuple(boundary)]
    for m in reversed(diagram.mults):
        out.append(_mat_t_vec(m, out[-1]))
    out.reverse()
    return tuple(out)


def trace_weights(diagram: BratteliDiagram, boundary=None) -> TraceWeights:
    """Compatible normalized weights by exact backward substitution.

    The boundary is the weight vector at the deepest stored level: "uniform"
    spreads mass evenly, an integer selects the extreme trace concentrated on
    that block, and a tuple is used as given.  Without a boundary,
    effros-shen diagrams take their convergent ratio (1/q_n on the first
    block, 0 on the second) and every other diagram the uniform one.  Deeper
    diagrams give better approximations of the true trace of the infinite
    limit; compatibility below the boundary is exact regardless.  The
    substitution is linear, so every level shares the boundary's common
    denominator D: it runs on the integers D * boundary, and each weight
    becomes a Fraction over D once, at the end.
    """
    dims = diagram.levels[-1]
    nb = len(dims)
    if boundary is None:
        if diagram.name.startswith("effros-shen"):
            boundary = (Fraction(1, dims[0]), Fraction(0))
        else:
            boundary = "uniform"
    if boundary == "uniform":
        total = sum(dims)
        vec = tuple(Fraction(1, total) for _ in range(nb))
    elif isinstance(boundary, int):
        if not 0 <= boundary < nb:
            raise ValueError(
                f"boundary block {boundary} outside the deepest level's blocks 0..{nb - 1}"
            )
        vec = tuple(
            Fraction(1, dims[i]) if i == boundary else Fraction(0) for i in range(nb)
        )
    else:
        vec = tuple(Fraction(x) for x in boundary)
    denom, scaled = common_denominator(vec)
    levels = _backward_weights(diagram, scaled, "boundary")
    return TraceWeights(diagram, tuple(tuple(Fraction(x, denom) for x in lv) for lv in levels))


# ---------------------------------------------------------------------------
# K0 homomorphisms and det_phi


@dataclass(frozen=True)
class K0Hom:
    """Integer functional on K0: per level, its value on each block's minimal projection."""

    diagram: BratteliDiagram
    vectors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        v = tuple(_as_int_tuple(lv) for lv in self.vectors)
        if len(v) != len(self.diagram.levels):
            raise ValueError("need one vector per level")
        for n, (vec, dims) in enumerate(zip(v, self.diagram.levels)):
            _check_length(n, vec, len(dims), "K0 vector")
        for n, m in enumerate(self.diagram.mults):
            if _mat_t_vec(m, v[n + 1]) != v[n]:
                raise ValueError(f"K0 compatibility fails between levels {n} and {n + 1}")
        object.__setattr__(self, "vectors", v)

    @staticmethod
    def zero(diagram: BratteliDiagram) -> "K0Hom":
        return K0Hom(diagram, tuple((0,) * len(lv) for lv in diagram.levels))

    @staticmethod
    def from_deepest(diagram: BratteliDiagram, vector) -> "K0Hom":
        return K0Hom(diagram, _backward_weights(diagram, _as_int_tuple(vector), "K0 vector"))

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in lv) for lv in self.vectors)


def _adjugate(m: Matrix) -> tuple[int, Matrix]:
    """det(M^T) and the integer adjugate of M^T, whose cofactors come from `exact_det`.

    M must be square and nonsingular; any other step raises ValueError.
    """
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError(f"continuation step {m} is not square")
    a = [[Fraction(m[i][j]) for i in range(n)] for j in range(n)]
    det = int(exact_det(a))
    if det == 0:
        raise ValueError(f"continuation step {m} is singular")
    # adj(A)[i][j] = (-1)^(i+j) times the minor of A without row j and column i.
    adj = tuple(
        tuple(
            (-1) ** (i + j)
            * int(exact_det([row[:i] + row[i + 1 :] for r, row in enumerate(a) if r != j]))
            for j in range(n)
        )
        for i in range(n)
    )
    return det, adj


def _lift(det: int, adj: Matrix, target: tuple[int, ...]) -> tuple[int, ...] | None:
    """adj @ target / det when every entry divides exactly, else None.

    With (det, adj) = `_adjugate(M)` that is the unique rational x with
    M^T x = target, so a nonzero remainder proves no integer lift exists.
    """
    if len(target) != len(adj):
        raise ValueError(f"vector of length {len(target)} against a {len(adj)}-block step")
    lifted = []
    for row in adj:
        q, r = divmod(sum(a * t for a, t in zip(row, target) if a), det)
        if r:
            return None
        lifted.append(q)
    return tuple(lifted)


def k0_extension_obstruction(hom: K0Hom, extra_levels: int = 12) -> int | None:
    """First continuation step where the deepest vector fails to lift, or None.

    Lifts the deepest vector through `extra_levels` steps of the diagram's
    periodic continuation, each an exact solve of M^T x = v over Z (square,
    nonsingular steps only), so a reported step is a proof that the
    functional does not extend that far.  Each distinct step matrix gets its
    determinant and integer adjugate once per call; a step is then an
    integer mat-vec and a division by the determinant, whose nonzero
    remainder is the proof.  The CAR tower obstructs every nonzero vector
    (repeated halving), while unimodular steps (effros-shen) obstruct nothing.
    """
    tail = hom.diagram.continuation
    if tail is None:
        raise ValueError("diagram has no continuation data")
    adjugates: dict[int, tuple[int, Matrix]] = {}
    current = hom.vectors[-1]
    for k in range(extra_levels):
        i = k % len(tail)
        if i not in adjugates:
            adjugates[i] = _adjugate(tail[i])
        lifted = _lift(*adjugates[i], current)
        if lifted is None:
            return k + 1
        current = lifted
    return None


@dataclass(frozen=True)
class BlockUnitary:
    """Element of the level-n unitary group: one diagonal unitary per block."""

    level: int
    blocks: tuple[DiagonalUnitary, ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(b.d for b in self.blocks)


def _check_on_diagram(u: BlockUnitary, diagram: BratteliDiagram):
    if not 0 <= u.level <= diagram.depth:
        raise ValueError(f"level {u.level} outside diagram depth {diagram.depth}")
    if u.sizes() != diagram.levels[u.level]:
        raise ValueError(
            f"block sizes {u.sizes()} != level dims {diagram.levels[u.level]}"
        )


def embed(u: BlockUnitary, diagram: BratteliDiagram, m: int) -> BlockUnitary:
    """Image of u at level m: block j repeats each source block per multiplicity.

    The blocks stay grouped by eigenvalue: a step multiplies each source
    group's count by its multiplicity, so it costs the distinct eigenvalues,
    not the block sizes.
    """
    _check_on_diagram(u, diagram)
    if not u.level <= m <= diagram.depth:
        raise ValueError(f"target level {m} out of range [{u.level}, {diagram.depth}]")
    current = u
    for n in range(u.level, m):
        current = BlockUnitary(n + 1, tuple(
            DiagonalUnitary.grouped(
                (a, c * k) for k, block in zip(row, current.blocks) if k for a, c in block.groups
            )
            for row in diagram.mults[n]
        ))
    return current


def det_phi_turn(u: BlockUnitary, hom: K0Hom):
    """Total determinant angle in turns: sum of phi-weighted eigenvalue angles.

    Each distinct angle is weighted by its multiplicity.  Exact (a Fraction)
    when every angle is rational, a float otherwise.
    """
    _check_on_diagram(u, hom.diagram)
    pairs = [
        (w * c, a) for w, block in zip(hom.vectors[u.level], u.blocks) for a, c in block.groups
    ]
    if all(isinstance(a, Fraction) for _, a in pairs):
        return sum((w * a for w, a in pairs), Fraction(0)) % 1
    return sum((w * float(a) for w, a in pairs), 0.0) % 1.0


def det_phi(u: BlockUnitary, hom: K0Hom):
    """Product over blocks and eigenvalues z of z^phi; multiplicative in u."""
    turn = det_phi_turn(u, hom)
    k = quarter_turn(turn)
    return unit_complex(turn) if k is None else phase_sum({k: 1})


@dataclass(frozen=True)
class LimitCharacterSpec:
    """Parameters of a limit character: det twist and powers of extreme traces."""

    phi: K0Hom | None
    pos_traces: tuple[tuple[TraceWeights, int], ...] = ()
    neg_traces: tuple[tuple[TraceWeights, int], ...] = ()

    def __post_init__(self):
        if any(p < 0 for _, p in self.pos_traces + self.neg_traces):
            raise ValueError("trace powers must be nonnegative")


def trace_value(u: BlockUnitary, tw: TraceWeights):
    """Normalized trace of u: sum over blocks of weight * (sum of eigenvalues).

    Exact Gaussian rational at quarter-turn angles, complex otherwise.
    """
    _check_on_diagram(u, tw.diagram)
    quarters = [b.quarter_turns() for b in u.blocks]
    if any(q is None for q in quarters):
        sums = [b.trace() for b in u.blocks]
    else:
        sums = [phase_sum(q) for q in quarters]
    return sum(w * v for w, v in zip(tw.weights[u.level], sums))


def eval_limit_character(spec: LimitCharacterSpec, u: BlockUnitary):
    """det_phi(u) times products of trace values and conjugate trace values."""
    factors = []
    if spec.phi is not None and not spec.phi.is_zero():
        factors.append(det_phi(u, spec.phi))
    for tw, p in spec.pos_traces:
        factors.extend([trace_value(u, tw)] * p)
    for tw, q in spec.neg_traces:
        factors.extend([trace_value(u, tw).conjugate()] * q)
    if all(isinstance(x, QQi) for x in factors):
        return math.prod(factors, start=QQi.of(1))
    return math.prod(map(complex, factors), start=1 + 0j)


@dataclass(frozen=True)
class ErgodicReport:
    levels: tuple[int, ...]
    dims: tuple[int, ...]
    values: tuple
    limit: object
    errors: tuple[float, ...]
    rate: float | None


def ergodic_sequence(
    diagram: BratteliDiagram,
    lam: Partition,
    mu: Partition,
    u: BlockUnitary,
    n_max: int,
    block: int = 0,
    dim_budget: int = ERGODIC_DIM_BUDGET,
) -> ErgodicReport:
    """Values of the level-n extreme characters {mu; lam} along the tower.

    At each level the designated block carries the signature with positive
    part lam and negative part mu; the sequence is evaluated at the embedded
    unitary, together with its limit (trace powers p = |lam|, q = |mu|) and
    a fitted decay exponent of the error against the block dimension.
    """
    lam, mu = Partition(tuple(lam)), Partition(tuple(mu))
    _check_on_diagram(u, diagram)
    if n_max > diagram.depth:
        raise ValueError(f"n_max {n_max} beyond diagram depth {diagram.depth}")
    if n_max < u.level:
        raise ValueError(f"n_max {n_max} is below the level {u.level} of u: no level to walk")
    for n in range(u.level, n_max + 1):
        if not 0 <= block < len(diagram.levels[n]):
            raise ValueError(f"no block {block} at level {n}: its blocks are 0..{len(diagram.levels[n]) - 1}")
    levels, dims, values = [], [], []
    v = u
    for n in range(u.level, n_max + 1):
        v = embed(v, diagram, n)  # one step from the level before
        d = diagram.levels[n][block]
        if lam.length + mu.length > d:
            raise ValueError(f"pair does not fit at level {n}: d = {d}")
        sig = signature_from_pair(lam, mu, d)
        dim = weyl_dim(sig)
        if dim > dim_budget:
            raise BudgetExceeded("character dimension exceeds budget")
        levels.append(n)
        dims.append(d)
        values.append(over_dim(char_eval(sig, v.blocks[block]), dim))
    tau = trace_value(u, trace_weights(diagram))
    limit = tau**lam.size * tau.conjugate() ** mu.size
    errors = tuple(abs(complex(v) - complex(limit)) for v in values)
    rate = None
    pts = [(math.log(d), math.log(e)) for d, e in zip(dims, errors) if e > 0]
    if len(pts) >= 2:
        import numpy as np

        xs, ys = zip(*pts)
        slope = np.polyfit(xs, ys, 1)[0]
        rate = -slope
    return ErgodicReport(tuple(levels), tuple(dims), tuple(values), limit, errors, rate)


def schur_weyl_defect(n: int, p: int, q: int) -> Fraction:
    """Squared trace-norm defect of the isotypic compression at tower level n.

    (1/2^{n(p+q)}) * sum over lam of p, mu of q of
    (s_lam(1_d) s_mu(1_d) - dim pi_{mu;lam}) * dim K_lam * dim K_mu, d = 2^n.
    """
    if min(n, p, q) < 0:
        raise ValueError(f"n, p and q must be nonnegative, got {n}, {p}, {q}")
    if (p, q) == (0, 0):
        raise ValueError("(p, q) = (0, 0) has no defect")
    d = 2**n
    if p + q > d:
        raise ValueError(f"pairs of lengths up to {p + q} do not fit in d = {d}")

    def dim(lam, mu):
        # The signature is held as its runs: the cost follows p + q, not d.
        return weyl_dim(signature_from_pair(lam, mu, d))

    poly_dims = {part: dim(part, EMPTY) for part in partitions_of(p) + partitions_of(q)}
    total = 0
    for lam in partitions_of(p):
        for mu in partitions_of(q):
            gap = poly_dims[lam] * poly_dims[mu] - dim(lam, mu)
            total += gap * sym_group_dim(lam) * sym_group_dim(mu)
    return Fraction(total, 2 ** (n * (p + q)))
