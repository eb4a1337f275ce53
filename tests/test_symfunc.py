import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    QQI_I,
    bialternant,
    eval_by_gt,
    fraction_power_sum_coeffs,
    hook_length_dim,
    schur_by_power_sums,
    weyl_pair_product,
)
from weylchar.combinatorics import EMPTY, Partition, Signature, partitions_of, signature_from_pair
from weylchar.errors import BudgetExceeded
from weylchar.exact import QQi
from weylchar.symfunc import (
    POWER_SUM_MAX_N,
    lr_product,
    power_sum_weights,
    schur_to_power_sums,
    skew_expand,
    sym_group_character,
    weyl_dim,
)

P = Partition


def _padded(parts, d):
    """Signature entries of the partition parts on d variables."""
    return tuple(parts) + (0,) * (d - len(parts))


def _coeffs(lam):
    return {rho.parts: c for rho, c in schur_to_power_sums(P(lam)).items()}


# The classical low-degree expansions into power sums, frozen exactly.
EXPANSION_TABLE = {
    (2,): {(2,): Fraction(1, 2), (1, 1): Fraction(1, 2)},
    (1, 1): {(2,): Fraction(-1, 2), (1, 1): Fraction(1, 2)},
    (4,): {
        (4,): Fraction(1, 4),
        (3, 1): Fraction(1, 3),
        (2, 2): Fraction(1, 8),
        (2, 1, 1): Fraction(1, 4),
        (1, 1, 1, 1): Fraction(1, 24),
    },
    (1, 1, 1, 1): {
        (4,): Fraction(-1, 4),
        (3, 1): Fraction(1, 3),
        (2, 2): Fraction(1, 8),
        (2, 1, 1): Fraction(-1, 4),
        (1, 1, 1, 1): Fraction(1, 24),
    },
    (3, 1): {
        (4,): Fraction(-1, 4),
        (2, 2): Fraction(-1, 8),
        (2, 1, 1): Fraction(1, 4),
        (1, 1, 1, 1): Fraction(1, 8),
    },
    (2, 1, 1): {
        (4,): Fraction(1, 4),
        (2, 2): Fraction(-1, 8),
        (2, 1, 1): Fraction(-1, 4),
        (1, 1, 1, 1): Fraction(1, 8),
    },
    (2, 2): {
        (3, 1): Fraction(-1, 3),
        (2, 2): Fraction(1, 4),
        (1, 1, 1, 1): Fraction(1, 12),
    },
}


def test_power_sum_expansions_table():
    for shape, expected in EXPANSION_TABLE.items():
        assert _coeffs(shape) == expected, shape


def test_power_sum_expansions_match_the_fraction_table():
    for n in range(0, 11):
        for lam in partitions_of(n):
            got, ref = schur_to_power_sums(lam), fraction_power_sum_coeffs(lam)
            assert list(got.items()) == list(ref.items()), lam
            assert all(type(c) is Fraction for c in got.values())


def test_power_sum_trivial():
    assert _coeffs((1,)) == {(1,): Fraction(1)}


def test_power_sum_budget():
    with pytest.raises(BudgetExceeded):
        schur_to_power_sums(P((13,)))


def _dim(lam, mu, d):
    """dim {mu; lam} on U(d); s_lam(1_d) when mu is empty."""
    return weyl_dim(signature_from_pair(P(lam), P(mu), d))


def test_schur_dim_examples():
    assert _dim((2,), (), 4) == 10
    assert _dim((2, 2), (), 3) == 6
    assert _dim((), (), 7) == 1
    with pytest.raises(ValueError):
        _dim((1, 1, 1), (), 2)


@st.composite
def _pairs(draw):
    part = st.lists(st.integers(1, 3), max_size=3).map(lambda xs: P(tuple(sorted(xs, reverse=True))))
    return draw(part), draw(part)


@given(_pairs())
@settings(max_examples=40, deadline=None)
def test_pair_dim_is_its_polynomial_in_d(pair):
    # dim {mu; lam} is a polynomial in d of degree |lam| + |mu|: interpolate
    # it exactly from as many small d as that takes, then read it at d = 2^k.
    lam, mu = pair
    first = max(1, lam.length + mu.length)
    xs = range(first, first + lam.size + mu.size + 1)
    ys = [weyl_pair_product(signature_from_pair(lam, mu, x).entries) for x in xs]
    for k in (10, 20, 32, 64):
        d = 2**k
        value = Fraction(0)
        for x, y in zip(xs, ys):
            value += y * math.prod(Fraction(d - z, x - z) for z in xs if z != x)
        assert weyl_dim(signature_from_pair(lam, mu, d)) == value, (lam, mu, k)


def test_weyl_dim_examples():
    for d in range(2, 8):
        sig = Signature((1,) + (0,) * (d - 2) + (-1,))
        assert weyl_dim(sig) == d * d - 1
    assert weyl_dim(Signature((0, 0, 0))) == 1
    assert weyl_dim(Signature((1, 0))) == 2


def test_weyl_dim_shift_invariant():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 6)
        entries = tuple(sorted((rng.randint(-3, 3) for _ in range(d)), reverse=True))
        shift = rng.randint(-4, 4)
        assert weyl_dim(Signature(entries)) == weyl_dim(Signature(tuple(e + shift for e in entries)))


def _hook_content(lam, d):
    """s_lam(1_d) = prod over the cells of lam of (d + content) / hook."""
    conj = [sum(1 for p in lam if p > j) for j in range(lam[0])] if lam else []
    num = den = 1
    for i, row in enumerate(lam):
        for j in range(row):
            num *= d + j - i
            den *= row - j + conj[j] - i - 1
    assert num % den == 0
    return num // den


def _run_structured(rng, max_d):
    """A signature of runs of 1..40 equal entries whose values drop by 1 to 9."""
    entries = []
    value = rng.randint(-20, 20)
    while True:
        n = rng.randint(1, 40)
        if entries and (len(entries) + n > max_d or rng.random() < 0.2):
            return tuple(entries)
        entries += [value] * n
        value -= rng.choice((1, 2, 3, 5, 9))


def test_weyl_dim_matches_pair_product():
    rng = random.Random(17)
    cases = []
    for _ in range(300):
        d = rng.randint(1, 12)
        cases.append(tuple(sorted((rng.randint(-4, 4) for _ in range(d)), reverse=True)))
    cases.append(tuple(sorted(rng.sample(range(-100, 100), 64), reverse=True)))
    cases.append((2, 1) + (0,) * 60 + (-1, -2))
    # Long runs and value gaps of 2 or more take the math.perm branch.
    cases.append((5,) * 40 + (0,) * 40)
    cases.append((9,) * 3 + (2,) * 50 + (-7,) * 20)
    cases += [_run_structured(rng, 120) for _ in range(200)]
    assert max(map(len, cases)) <= 120
    for entries in cases:
        dim = weyl_dim(Signature(entries))
        assert dim == weyl_pair_product(entries), entries
        lam = tuple(e - entries[-1] for e in entries)
        assert _dim(lam, (), len(entries)) == _hook_content(P(lam).parts, len(entries)) == dim


def test_weyl_dim_hook_content_at_d_4096():
    d = 4096
    lam = (2, 1)
    assert weyl_dim(Signature(lam + (0,) * (d - 2))) == _hook_content(lam, d) == d * (d * d - 1) // 3


def test_schur_eval_examples():
    x = (Fraction(2), Fraction(5))
    assert eval_by_gt((1, 0), x) == 7
    assert eval_by_gt((2, 2, 0), (1, 1, 1)) == 6
    assert eval_by_gt((2, 0), (2, 3)) == 19


def test_schur_eval_gaussian_rational():
    # s_(1,1)(i, -i) = product of eigenvalues = -i * i = 1
    val = eval_by_gt((1, 1), (QQI_I, QQI_I.conjugate()))
    assert val == QQi.of(1)


def test_bialternant_matches_gt_on_distinct_points():
    rng = random.Random(9)
    for _ in range(30):
        d = rng.randint(2, 4)
        lam = P(tuple(sorted((rng.randint(0, 3) for _ in range(rng.randint(0, d))), reverse=True)))
        while True:
            xs = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(d))
            if len(set(xs)) == d:
                break
        padded = lam.parts + (0,) * (d - lam.length)
        assert bialternant(padded, xs) == eval_by_gt(padded, xs)


def test_schur_eval_confluent_consistency():
    # Repeated points force the GT route; perturbing them slightly recovers
    # the bialternant value.
    lam = P((2, 1))
    xs = (Fraction(2), Fraction(2), Fraction(3))
    val = eval_by_gt(_padded(lam.parts, 3), xs)
    # Oracle: brute-force monomial sum over semistandard tableaux of shape (2,1)
    # with entries in {1,2,3}: s_(2,1) = sum x_T.
    brute = Fraction(0)
    vals = xs
    for a in range(3):
        for b in range(3):
            for c in range(3):
                # tableau rows (a,b), (c): a <= b, a < c (columns strict)
                if a <= b and a < c:
                    brute += vals[a] * vals[b] * vals[c]
    assert val == brute


def test_power_sum_evaluation_matches_dimension():
    for n in range(0, 6):
        for lam in partitions_of(n):
            for d in range(max(1, lam.length), 7):
                ones = (Fraction(1),) * d
                assert schur_by_power_sums(lam, ones) == _dim(lam, (), d)


def _leading_coeff(lam):
    """Coefficient of p_1^n in s_lam."""
    return schur_to_power_sums(lam).get(P((1,) * lam.size), Fraction(0))


def test_leading_coeff_closed_form():
    assert _leading_coeff(P((2,))) == Fraction(1, 2)
    assert _leading_coeff(P((1, 1, 1, 1))) == Fraction(1, 24)
    assert _leading_coeff(P((3, 1))) == Fraction(1, 8)


def test_leading_coeff_vs_dimension():
    for n in range(1, 9):
        for lam in partitions_of(n):
            assert _leading_coeff(lam) == Fraction(hook_length_dim(lam), math.factorial(n))


def _f_lam(lam):
    """f^lam as the package reads it: the power-sum weight at the cycle type 1^n."""
    return power_sum_weights(P(lam))[-1]


def test_f_lam_examples():
    assert _f_lam((2, 2)) == 2
    assert _f_lam((3, 1)) == 3
    assert _f_lam((2, 1, 1)) == 3
    for n in range(1, 7):
        assert _f_lam((n,)) == 1


def test_f_lam_squares_sum_to_factorial():
    for n in range(1, 9):
        assert sum(_f_lam(lam) ** 2 for lam in partitions_of(n)) == math.factorial(n)


def test_f_lam_matches_hook_lengths():
    # Every partition that the power-sum row accepts, n <= POWER_SUM_MAX_N.
    for n in range(POWER_SUM_MAX_N + 1):
        assert partitions_of(n)[-1] == P((1,) * n)
        for lam in partitions_of(n):
            assert _f_lam(lam) == hook_length_dim(lam)


def test_sym_group_character_orthogonality():
    # Column orthogonality at the identity column doubles as a dimension check.
    for n in range(1, 7):
        ident = P((1,) * n)
        for lam in partitions_of(n):
            assert sym_group_character(lam.parts, ident.parts) == hook_length_dim(lam)


def test_lr_coefficient_examples():
    assert _lr_coefficient_ref(P((1,)), P((1,)), P(())) == 1
    assert _lr_coefficient_ref(P((2, 1)), P((1,)), P((1, 1))) == 1
    assert _lr_coefficient_ref(P((2, 2)), P((2,)), P((1,))) == 0  # size mismatch


def test_lr_symmetry():
    rng = random.Random(3)
    for _ in range(40):
        nu = P(tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(1, 3))), reverse=True)))
        total = nu.size
        for a in range(total + 1):
            for alpha in partitions_of(a):
                for beta in partitions_of(total - a):
                    c = _lr_coefficient_ref(nu, alpha, beta)
                    assert c == _lr_coefficient_ref(nu, beta, alpha)


def test_lr_dimension_identity():
    for n in range(0, 6):
        for nu in partitions_of(n):
            for d1 in range(1, 4):
                for d2 in range(1, 4):
                    if nu.length > d1 + d2:
                        continue
                    total = 0
                    for a in range(n + 1):
                        for alpha in partitions_of(a):
                            for beta in partitions_of(n - a):
                                if alpha.length > d1 or beta.length > d2:
                                    continue
                                c = _lr_coefficient_ref(nu, alpha, beta)
                                if c:
                                    total += c * _dim(alpha, (), d1) * _dim(beta, (), d2)
                    assert total == _dim(nu, (), d1 + d2), (nu, d1, d2)


def test_lr_product_matches_coefficient():
    alpha, beta = P((2, 1)), P((2, 1))
    prod = lr_product(alpha, beta, max_length=6)
    for gamma, c in prod.items():
        assert _lr_coefficient_ref(gamma, alpha, beta) == c
    assert sum(c * hook_length_dim(g) for g, c in prod.items()) > 0


def test_skew_expand_matches_coefficient():
    nu, alpha = P((3, 2, 1)), P((2, 1))
    for beta, c in skew_expand(nu, alpha, 3).items():
        assert _lr_coefficient_ref(nu, alpha, beta) == c
    total = sum(c * hook_length_dim(b) for b, c in skew_expand(nu, alpha, 3).items())
    assert total > 0


def _lr_product_ref(alpha: Partition, beta: Partition, max_length: int) -> dict[Partition, int]:
    """The per-gamma loop that the two-piece skew walk of `lr_product` replaced."""
    alpha, beta = Partition(tuple(alpha)), Partition(tuple(beta))
    n = alpha.size + beta.size
    out: dict[Partition, int] = {}
    max_part = alpha.part(0) + beta.part(0)
    for gamma in partitions_of(n):
        if gamma.length > max_length or gamma.part(0) > max_part or not gamma.contains(alpha):
            continue
        c = _lr_coefficient_ref(gamma, alpha, beta)
        if c:
            out[gamma] = c
    return out


def test_lr_product_matches_per_gamma_loop():
    """Every alpha, beta with |alpha| + |beta| <= 8, empty ones included."""
    nonempty = 0
    for n in range(9):
        for a in range(n + 1):
            for alpha in partitions_of(a):
                for beta in partitions_of(n - a):
                    for max_length in range(1, 5):
                        prod = lr_product(alpha, beta, max_length)
                        assert prod == _lr_product_ref(alpha, beta, max_length), (
                            alpha, beta, max_length)
                        nonempty += bool(prod)
    assert nonempty == 893


def _lr_coefficient_ref(nu: Partition, alpha: Partition, beta: Partition) -> int:
    """Littlewood-Richardson coefficient c^nu_{alpha,beta} by a content-capped tableau walk.

    Walks apart from `symfunc._ballot_fillings`, so it is the reference that
    `skew_expand` and `lr_product` are checked against.
    """
    nu, alpha, beta = (Partition(tuple(p)) for p in (nu, alpha, beta))
    if alpha.size + beta.size != nu.size:
        return 0
    if not nu.contains(alpha):
        return 0
    if beta.size == 0:
        return 1
    if beta.length > nu.length:
        return 0

    nrows = nu.length
    cells = []
    for r in range(nrows):
        for c in range(nu.parts[r] - 1, alpha.part(r) - 1, -1):
            cells.append((r, c))
    nvals = beta.length
    grid = [[0] * nu.parts[r] for r in range(nrows)]
    counts = [0] * (nvals + 1)
    found = 0

    def in_skew(r: int, c: int) -> bool:
        return 0 <= r < nrows and alpha.part(r) <= c < nu.parts[r]

    def rec(idx: int):
        nonlocal found
        if idx == len(cells):
            found += 1
            return
        r, c = cells[idx]
        hi = nvals
        if in_skew(r, c + 1):
            hi = min(hi, grid[r][c + 1])
        for v in range(1, hi + 1):
            if counts[v] >= beta.parts[v - 1]:
                continue
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            if in_skew(r - 1, c) and grid[r - 1][c] >= v:
                continue
            grid[r][c] = v
            counts[v] += 1
            rec(idx + 1)
            counts[v] -= 1
            grid[r][c] = 0

    rec(0)
    return found


def _skew_expand_ref(nu: Partition, alpha: Partition) -> dict[Partition, int]:
    """The uncapped tableau walk that `_ballot_fillings` replaced."""
    nu, alpha = Partition(tuple(nu)), Partition(tuple(alpha))
    if not nu.contains(alpha):
        return {}
    size = nu.size - alpha.size
    if size == 0:
        return {EMPTY: 1}

    nrows = nu.length
    cells = []
    for r in range(nrows):
        for c in range(nu.parts[r] - 1, alpha.part(r) - 1, -1):
            cells.append((r, c))
    grid = [[0] * nu.parts[r] for r in range(nrows)]
    counts = [0] * (size + 1)
    out: dict[Partition, int] = {}

    def in_skew(r: int, c: int) -> bool:
        return 0 <= r < nrows and alpha.part(r) <= c < nu.parts[r]

    def rec(idx: int):
        if idx == len(cells):
            content = tuple(c for c in counts[1:] if c > 0)
            key = Partition(content)
            out[key] = out.get(key, 0) + 1
            return
        r, c = cells[idx]
        hi = size
        if in_skew(r, c + 1):
            hi = min(hi, grid[r][c + 1])
        for v in range(1, hi + 1):
            if v > 1 and counts[v - 1] <= counts[v]:
                continue
            if in_skew(r - 1, c) and grid[r - 1][c] >= v:
                continue
            grid[r][c] = v
            counts[v] += 1
            rec(idx + 1)
            counts[v] -= 1
            grid[r][c] = 0

    rec(0)
    return out


def test_ballot_walk_matches_separate_walks():
    rng = random.Random(17)
    nonzero = 0
    for _ in range(400):
        n = rng.randint(0, 9)
        nu = rng.choice(partitions_of(n))
        a = rng.randint(0, n)
        alpha = rng.choice(partitions_of(a))
        # Mostly the matching size; now and then a size mismatch.
        b = n - a if rng.random() < 0.9 else rng.randint(0, 4)
        beta = rng.choice(partitions_of(b))
        full = skew_expand(nu, alpha, nu.size - alpha.size)
        c = full.get(beta, 0)
        assert c == _lr_coefficient_ref(nu, alpha, beta), (nu, alpha, beta)
        nonzero += c > 0
        # Same terms in the same order.
        assert list(full.items()) == list(_skew_expand_ref(nu, alpha).items())
    assert nonzero > 50


def test_traceless_specializations():
    # For Tr B = 0 the degree-4 Schur values collapse to polynomials in
    # Tr(B^2), Tr(B^4); frozen forms checked on random centered spectra.
    rng = random.Random(71)
    for _ in range(25):
        d = rng.randint(4, 7)
        raw = [Fraction(rng.randint(-5, 5)) for _ in range(d)]
        mean = sum(raw) / d
        b = tuple(sorted((x - mean for x in raw), reverse=True))
        p2 = sum(x**2 for x in b)
        p4 = sum(x**4 for x in b)
        assert eval_by_gt(_padded((2,), d), b) == p2 / 2
        assert eval_by_gt(_padded((1, 1), d), b) == -p2 / 2
        assert eval_by_gt(_padded((4,), d), b) == p4 / 4 + p2 * p2 / 8
        assert eval_by_gt(_padded((1, 1, 1, 1), d), b) == -p4 / 4 + p2 * p2 / 8
        assert eval_by_gt(_padded((3, 1), d), b) == -p4 / 4 - p2 * p2 / 8
        assert eval_by_gt(_padded((2, 1, 1), d), b) == p4 / 4 - p2 * p2 / 8
        assert eval_by_gt(_padded((2, 2), d), b) == p2 * p2 / 4


def test_schur_eval_symmetric_in_variables():
    rng = random.Random(13)
    for _ in range(20):
        d = rng.randint(2, 5)
        lam = P(tuple(sorted((rng.randint(0, 3) for _ in range(rng.randint(0, d))), reverse=True)))
        xs = [Fraction(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(d)]
        padded = _padded(lam.parts, d)
        base = eval_by_gt(padded, tuple(xs))
        rng.shuffle(xs)
        assert eval_by_gt(padded, tuple(xs)) == base


def test_skew_expand_caps_the_length():
    """Capping the walk at n values equals the full expansion filtered to l(beta) <= n."""
    cases = 0
    for size in range(10):
        for nu in partitions_of(size):
            for a in range(size + 1):
                for alpha in partitions_of(a):
                    if not nu.contains(alpha):
                        continue
                    skew = size - a
                    full = list(skew_expand(nu, alpha, skew).items())
                    for n in range(1, skew + 1):
                        capped = list(skew_expand(nu, alpha, n).items())
                        assert capped == [(b, c) for b, c in full if b.length <= n], (nu, alpha, n)
                        cases += 1
    assert cases > 5000
