"""Symmetric-function kernel, all in exact arithmetic.

Weyl dimensions by a product over runs of equal entries, power-sum
expansions from symmetric-group characters (Murnaghan-Nakayama divided by
centralizer orders), Littlewood-Richardson expansions by one ballot-tableau
walk, and determinants over exact fields.  Character values live in
`ucharacters`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from weylchar.combinatorics import EMPTY, Partition, Signature, partitions_of
from weylchar.errors import BudgetExceeded, InvariantError

POWER_SUM_MAX_N = 12


def weyl_dim(sig: Signature) -> int:
    """dim of the U(d) irrep with highest weight sig: prod (e_i - e_j + j - i)/(j - i).

    Taken over `sig.runs`: pairs inside a run contribute 1 and are skipped.
    For two runs with value gap c, fix one element of the shorter run; the
    factors along the longer run (length n) then form the ratio of falling
    factorials perm(hi + c, n) / perm(hi, n), hi the largest index distance,
    which telescopes to min(c, n) factors on each side.  When min(c, n) = 1,
    as for most pairs at small d, the factors are hi + c and hi + c - max(c, n)
    themselves, appended with no `math.perm` call.  The cost grows with the
    number of run pairs times the shorter run, not with d^2, so {mu; lam} at
    d = 2^64, whose zeros form one run, costs what it costs at small d.
    """
    runs = sig.runs
    num: list[int] = []
    den: list[int] = []
    for a in range(len(runs)):
        va, na = runs[a]
        gap = na  # index distance from the start of run a to the start of run b
        for b in range(a + 1, len(runs)):
            vb, nb = runs[b]
            c = va - vb
            n, m, lo = (nb, na, gap + nb - na) if na < nb else (na, nb, gap)
            gap += nb
            k, big = (c, n) if c < n else (n, c)
            if k == 1:  # perm(x, 1) = x: the factors are consecutive integers
                top = lo + c
                if m == 1:
                    num.append(top)
                    den.append(top - big)
                else:
                    num.extend(range(top, top + m))
                    den.extend(range(top - big, top - big + m))
            else:
                for hi in range(lo, lo + m):
                    num.append(math.perm(hi + c, k))
                    den.append(math.perm(hi + c - big, k))
    dim, rem = divmod(_product(num), _product(den))
    if rem:
        raise InvariantError("Weyl product did not divide evenly")
    return dim


def _product(factors: list[int]) -> int:
    """Product by halving, so the big operands of a long list meet last."""
    if len(factors) <= 32:
        return math.prod(factors)
    half = len(factors) // 2
    return _product(factors[:half]) * _product(factors[half:])


@cache
def sym_group_dim(lam: Partition) -> int:
    """Hook length formula for the symmetric-group irrep indexed by lam."""
    lam = Partition(tuple(lam))
    n = lam.size
    if n == 0:
        return 1
    conj = lam.conjugate()
    dim = math.factorial(n)
    for i, row in enumerate(lam.parts):
        for j in range(row):
            dim //= row - j + conj.parts[j] - i - 1
    return dim


@cache
def sym_group_character(shape: tuple[int, ...], cycle_type: tuple[int, ...]) -> int:
    """Murnaghan-Nakayama recursion on first-column hook (beta) numbers."""
    if not shape:
        return 1 if not cycle_type else 0
    if not cycle_type:
        return 1 if sum(shape) == 0 else 0
    r = cycle_type[0]
    rest = cycle_type[1:]
    l = len(shape)
    beta = [shape[i] + l - 1 - i for i in range(l)]
    beta_set = set(beta)
    total = 0
    for b in beta:
        c = b - r
        if c < 0 or c in beta_set:
            continue
        height = sum(1 for x in beta if c < x < b)
        new_beta = sorted((beta_set - {b}) | {c}, reverse=True)
        m = len(new_beta)
        new_shape = tuple(new_beta[i] - (m - 1 - i) for i in range(m))
        while new_shape and new_shape[-1] == 0:
            new_shape = new_shape[:-1]
        total += (-1) ** height * sym_group_character(new_shape, rest)
    return total


def _centralizer_order(rho: Partition) -> int:
    order = 1
    mult: dict[int, int] = {}
    for r in rho.parts:
        mult[r] = mult.get(r, 0) + 1
    for r, m in mult.items():
        order *= r**m * math.factorial(m)
    return order


@cache
def power_sum_weights(lam: Partition) -> tuple[int, ...]:
    """n! chi^lam(rho) / z_rho for each rho in `partitions_of(n)`, n = |lam|, in that order.

    n! / z_rho is the size of the class of cycle type rho, so each weight is
    an integer, and s_lam = (1/n!) sum_rho weight_rho p_rho.  A caller pairs
    the weights with values listed in the same order, so the sum is an
    integer dot product.
    """
    lam = Partition(tuple(lam))
    n = lam.size
    if n > POWER_SUM_MAX_N:
        raise BudgetExceeded(f"power-sum expansion bound exceeded: |lam| = {n} > {POWER_SUM_MAX_N}")
    fact = math.factorial(n)
    return tuple(
        sym_group_character(lam.parts, rho.parts) * (fact // _centralizer_order(rho))
        for rho in partitions_of(n)
    )


def schur_to_power_sums(lam: Partition) -> dict[Partition, Fraction]:
    """s_lam = sum of coeffs[rho] * p_rho, coeffs[rho] = chi^lam(rho)/z_rho.

    Only the cycle types rho of |lam| with a nonzero character appear.  The
    coefficients are the cached `power_sum_weights` over n!, so each call
    returns a new dict.
    """
    weights = power_sum_weights(lam)
    n = sum(lam)
    fact = math.factorial(n)
    return {rho: Fraction(w, fact) for rho, w in zip(partitions_of(n), weights) if w}


def exact_det(rows):
    """Determinant over an exact field (Fraction or QQi) by Gaussian elimination.

    The complex-double determinant of `ucharacters.char_float` stays apart:
    it pivots by magnitude, which means nothing over QQi, and carries an
    error bound.
    """
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        inv_lead = m[col][col]
        for r in range(col + 1, n):
            if m[r][col] != 0:
                factor = m[r][col] / inv_lead
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    det = Fraction(sign)
    for i in range(n):
        det = det * m[i][i]
    return det


def _ballot_fillings(
    nu: Partition, alpha: Partition, caps: tuple[int, ...]
) -> dict[Partition, int]:
    """Littlewood-Richardson tableaux of shape nu/alpha, counted by content.

    Fills the cells row by row, each row right to left (the reverse reading
    word), with values 1..len(caps): rows weakly increase, columns strictly
    increase, the word stays a ballot sequence and value v is used at most
    caps[v-1] times (Macdonald, Symmetric Functions and Hall Polynomials,
    I.9).  A ballot content is a partition, so the result is the skew Schur
    expansion {beta: c^nu_{alpha,beta}} over the contents within the caps.
    Each cell's right and upper neighbours come earlier in the reading order,
    so their indices (-1 outside the skew shape) are laid out once and the
    walk reads both bounds from one flat filling.  Leaves are tallied by the
    tuple of counts as it stands, and one Partition, which drops the trailing
    zeros (the only zeros a ballot content can have), is built per distinct
    content at the end, not one per leaf.  The walk keeps no recursion per cell, so shapes
    of thousands of cells fill too.
    """
    right: list[int] = []
    upper: list[int] = []
    above_start = above_nu = above_alpha = 0
    for r, (nu_r, alpha_r) in enumerate(zip(nu.parts, alpha.parts + (0,) * nu.length)):
        start = len(right)
        for c in range(nu_r - 1, alpha_r - 1, -1):
            right.append(len(right) - 1 if c < nu_r - 1 else -1)
            upper.append(above_start + above_nu - 1 - c if r and c >= above_alpha else -1)
        above_start, above_nu, above_alpha = start, nu_r, alpha_r
    ncells = len(right)
    nvals = len(caps)
    fill = [0] * ncells
    # counts[0] stands above every count, so value 1 always passes the ballot test.
    counts = [ncells + 1] + [0] * nvals
    found: dict[tuple[int, ...], int] = {}
    # Depth first with an explicit stack, the filling itself: v is the next
    # value to try at cell idx, 0 on entering it.
    idx = v = 0
    while idx >= 0:
        if idx == ncells:
            key = tuple(counts)
            found[key] = found.get(key, 0) + 1
        else:
            if not v:
                v = fill[upper[idx]] + 1 if upper[idx] >= 0 else 1
            hi = fill[right[idx]] if right[idx] >= 0 else nvals
            while v <= hi:
                n = counts[v]
                if n < caps[v - 1] and counts[v - 1] > n:
                    fill[idx] = v
                    counts[v] = n + 1
                    idx += 1
                    v = 0
                    break
                v += 1
            if not v:  # moved on to the next cell
                continue
        # Back up one cell and try its next value.
        idx -= 1
        if idx >= 0:
            v = fill[idx]
            counts[v] -= 1
            v += 1
    return {Partition(key[1:]): n for key, n in found.items()}


def skew_expand(nu: Partition, alpha: Partition, max_length: int) -> dict[Partition, int]:
    """s_{nu/alpha} in max_length variables, as {beta: c^nu_{alpha,beta}}.

    Only the beta with at most max_length parts appear.  One tableau walk
    over all ballot contents at once, with values capped at max_length, so no
    content with more parts ever enters the walk.
    """
    if not nu.contains(alpha):
        return {}
    size = nu.size - alpha.size
    if size == 0:
        return {EMPTY: 1}
    return _ballot_fillings(nu, alpha, (size,) * min(size, max_length))


def lr_product(alpha: Partition, beta: Partition, max_length: int) -> dict[Partition, int]:
    """s_alpha * s_beta = sum c^gamma_{alpha,beta} s_gamma over l(gamma) <= max_length.

    With b = beta_1, the skew shape nu/mu, nu = (alpha_i + b)_i followed by
    beta and mu = (b)^{l(alpha)}, is alpha shifted b columns right above
    beta.  The two pieces share no row or column, so s_{nu/mu} = s_alpha *
    s_beta (Macdonald I.5), and one `skew_expand` walk gives every gamma.
    The dict follows the walk's order.
    """
    b = beta.part(0)
    nu = Partition(tuple(p + b for p in alpha.parts) + beta.parts)
    return skew_expand(nu, Partition((b,) * alpha.length), max_length)
