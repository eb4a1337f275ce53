import cmath
import math
from fractions import Fraction

import pytest

from reference import (
    dense_validate_diagram,
    exact_unit,
    exact_values,
    fraction_trace_weights,
    uhf_product_diagram,
)
from weylchar.afalgebra import (
    BlockUnitary,
    BratteliDiagram,
    K0Hom,
    LimitCharacterSpec,
    TraceWeights,
    det_phi,
    det_phi_turn,
    embed,
    ergodic_sequence,
    eval_limit_character,
    k0_extension_obstruction,
    preset_diagram,
    schur_weyl_defect,
    trace_value,
    trace_weights,
    validate_diagram,
    _adjugate,
    _lift,
    _mat_t_vec,
)
from weylchar.combinatorics import Partition, signature_from_pair
from weylchar.exact import QQi
from weylchar.symfunc import exact_det, weyl_dim
from weylchar.ucharacters import DiagonalUnitary

F = Fraction
P = Partition


def _car_u():
    # diag(i, 1) at level 1 of the CAR tower
    return BlockUnitary(1, (DiagonalUnitary((F(1, 4), F(0))),))


def test_car_preset_valid():
    car = preset_diagram("car")
    rep = validate_diagram(car)
    assert rep.valid and rep.primitive_within_depth
    assert rep.min_dims == tuple(2**n for n in range(len(car.levels)))
    assert all(a < b for a, b in zip(rep.min_dims, rep.min_dims[1:]))


def test_invalid_diagram_reports():
    bad = BratteliDiagram(((1,), (3,)), (((2,),),))
    rep = validate_diagram(bad)
    assert not rep.valid and any("dims" in e for e in rep.errors)
    zero_row = BratteliDiagram(((1, 1), (1, 1)), ((((1, 0)), (0, 0)),))
    rep2 = validate_diagram(zero_row)
    assert not rep2.valid and any("zero" in e for e in rep2.errors)


def test_effros_shen_preset():
    es = preset_diagram("effros-shen")
    rep = validate_diagram(es)
    assert rep.valid and rep.primitive_within_depth
    assert es.levels[:5] == ((1,), (1, 1), (2, 1), (3, 2), (5, 3))
    custom = preset_diagram("effros-shen:2,3,2")
    assert validate_diagram(custom).valid


def test_effros_shen_terms_cycle_to_depth():
    for depth in (1, 5, 9, 12):
        es = preset_diagram("effros-shen:2,3,2", depth=depth)
        assert len(es.mults) == depth and len(es.levels) == depth + 1
        assert [m[0][0] for m in es.mults] == [(2, 3, 2)[n % 3] for n in range(depth)]
        assert validate_diagram(es).valid
    assert len(preset_diagram("effros-shen:2,3,2").mults) == 3


def test_gicar_preset_excluded_from_simplicity():
    g = preset_diagram("gicar-excluded", depth=6)
    rep = validate_diagram(g)
    assert rep.valid
    assert rep.primitive_within_depth is False
    assert rep.simple_known is False


def test_unknown_preset():
    with pytest.raises(ValueError):
        preset_diagram("nonsense")


def test_preset_depth_below_one_is_rejected():
    for name in ("car", "uhf:3", "effros-shen", "gicar-excluded"):
        for depth in (0, -3):
            with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
                preset_diagram(name, depth=depth)
        assert len(preset_diagram(name, depth=1).levels) == 2


def test_trace_weights_car():
    car = preset_diagram("car")
    tw = trace_weights(car)
    for n in range(len(car.levels)):
        assert tw.weights[n] == (F(1, 2**n),)


def test_trace_weights_single_block_power():
    d = preset_diagram("uhf:3", depth=5)
    tw = trace_weights(d)
    for n in range(6):
        assert tw.weights[n] == (F(1, 3**n),)


def test_trace_weights_effros_shen_convergents():
    es = preset_diagram("effros-shen")
    tw = trace_weights(es)
    # Fibonacci convergents: weights at level 1 are consecutive convergent errors.
    t1 = tw.weights[1]
    assert t1[0] + t1[1] == 1
    golden = (5**0.5 - 1) / 2
    assert abs(float(t1[0]) - golden) < 1e-3


def test_trace_weights_product_extremes():
    d = uhf_product_diagram((2, 3), depth=4)
    first = trace_weights(d, boundary=0)
    second = trace_weights(d, boundary=1)
    assert first.weights[2] == (F(1, 4), F(0))
    assert second.weights[2] == (F(0), F(1, 9))


def test_trace_weights_validation():
    car = preset_diagram("car", depth=2)
    with pytest.raises(ValueError):
        TraceWeights(car, ((F(1),), (F(1),), (F(1),)))  # not normalized/compatible


def test_trace_weights_boundary_block_out_of_range():
    gicar = preset_diagram("gicar", depth=3)
    for block in (5, 4, -1):
        with pytest.raises(ValueError, match=r"blocks 0\.\.3"):
            trace_weights(gicar, boundary=block)


def test_trace_weights_boundary_of_wrong_length():
    gicar = preset_diagram("gicar", depth=3)
    for boundary in ((F(1, 8),) * 3, (F(1, 8),) * 5):
        with pytest.raises(ValueError, match=rf"level 3: boundary has {len(boundary)} entries"):
            trace_weights(gicar, boundary=boundary)


def _random_diagram(rng, consistent=True):
    """Non-negative integer steps on 1-5 blocks, depth 1-12, built through BratteliDiagram."""
    nb = rng.randint(1, 5)
    levels = [tuple(rng.randint(1, 3) for _ in range(nb))]
    mults = []
    for _ in range(rng.randint(1, 12)):
        nout = rng.randint(1, 5)
        m = [[0 if rng.random() < 0.5 else rng.randint(1, 3) for _ in range(nb)]
             for _ in range(nout)]
        for row in m:
            if not any(row):
                row[rng.randrange(nb)] = 1
        mults.append(tuple(map(tuple, m)))
        levels.append(tuple(sum(v * d for v, d in zip(row, levels[-1])) for row in m))
        nb = nout
    if not consistent:
        kind = rng.choice(("dims", "zero row", "negative"))
        n = rng.randrange(len(mults))
        m = [list(row) for row in mults[n]]
        if kind == "dims":
            levels[n + 1] = tuple(d + 1 for d in levels[n + 1])
        elif kind == "zero row":
            m[rng.randrange(len(m))] = [0] * len(m[0])
        else:
            m[rng.randrange(len(m))][rng.randrange(len(m[0]))] = -1
        mults[n] = tuple(map(tuple, m))
    return BratteliDiagram(tuple(levels), tuple(mults))


def test_trace_weights_match_fraction_substitution():
    import random

    rng = random.Random(23)
    for _ in range(150):
        diagram = _random_diagram(rng)
        dims = diagram.levels[-1]
        # A tuple boundary holding floats: 0.0 off the first block.
        floats = tuple(F(1, dims[0]) if i == 0 else 0.0 for i in range(len(dims)))
        boundaries = ["uniform", *range(len(dims)), floats]
        for boundary in boundaries:
            expected = fraction_trace_weights(diagram, boundary)
            assert trace_weights(diagram, boundary).weights == expected, (diagram, boundary)
    # A nonzero float that is exact in binary.
    car = preset_diagram("car", depth=6)
    assert trace_weights(car, (0.5**6,)).weights == fraction_trace_weights(car, (0.5**6,))


def test_validate_diagram_matches_dense_probe():
    import random

    rng = random.Random(29)
    outcomes = set()
    for k in range(300):
        diagram = _random_diagram(rng, consistent=k % 3 != 0)
        report = validate_diagram(diagram).to_json()
        assert report == dense_validate_diagram(diagram).to_json(), diagram
        outcomes.add((report["valid"], report["primitive_within_depth"]))
    assert outcomes == {(True, True), (True, False), (False, None)}


def test_trace_weights_refuse_one_entry_off_by_one_over_the_common_denominator():
    gicar = preset_diagram("gicar", depth=3)
    weights = trace_weights(gicar, (F(1, 4), F(1, 6), F(1, 12), F(0))).weights
    lcm = math.lcm(*(x.denominator for lv in weights for x in lv))
    assert len({x.denominator for lv in weights for x in lv}) > 1 and lcm == 12
    for n, lv in enumerate(weights):
        for i in range(len(lv)):
            for delta in (F(1, lcm), F(-1, lcm)):
                bad = list(map(list, weights))
                bad[n][i] += delta
                with pytest.raises(ValueError):
                    TraceWeights(gicar, tuple(map(tuple, bad)))


def test_trace_weights_refuse_compatible_weights_that_are_not_normalized():
    es = preset_diagram("effros-shen", depth=6)
    doubled = tuple(tuple(2 * x for x in lv) for lv in trace_weights(es).weights)
    with pytest.raises(ValueError, match="level 0: weights not normalized"):
        TraceWeights(es, doubled)
    with pytest.raises(ValueError, match="negative weight"):
        TraceWeights(es, tuple(tuple(-x for x in lv) for lv in doubled))


def test_k0_car_rejects_nonzero():
    car = preset_diagram("car")
    assert k0_extension_obstruction(K0Hom.from_deepest(car, (0,))) is None
    # An exact lift at each continuation step: halving runs out.
    for v in range(-16, 17):
        if v == 0:
            continue
        hom = K0Hom.from_deepest(car, (v,))
        assert k0_extension_obstruction(hom) is not None, v


def test_k0_effros_shen_lattice():
    es = preset_diagram("effros-shen")
    for v1 in range(-3, 4):
        for v2 in range(-3, 4):
            hom = K0Hom.from_deepest(es, (v1, v2))
            assert k0_extension_obstruction(hom, extra_levels=20) is None


def _square_preimage_ref(m, target):
    """The square Gauss-Jordan solve of M^T x = target that Cramer's rule replaced."""
    nrows, ncols = len(m), len(m[0])
    a = [[Fraction(m[i][j]) for i in range(nrows)] for j in range(ncols)]
    b = [Fraction(t) for t in target]
    n = ncols
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    xs = [b[i] / a[i][i] for i in range(n)]
    if all(x.denominator == 1 for x in xs):
        return tuple(int(x) for x in xs)
    return None


def test_integer_preimage_matches_gauss_jordan():
    import random

    rng = random.Random(5)
    outcomes = set()
    cases = 0
    while cases < 200:
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
        if exact_det([[F(v) for v in row] for row in m]) == 0:
            continue
        cases += 1
        if rng.random() < 0.5:
            x = tuple(rng.randint(-5, 5) for _ in range(n))
            target = tuple(sum(m[i][j] * x[i] for i in range(n)) for j in range(n))
        else:
            target = tuple(rng.randint(-9, 9) for _ in range(n))
        lifted = _lift(*_adjugate(m), target)
        assert lifted == _square_preimage_ref(m, target), (m, target)
        outcomes.add(lifted is None)
    assert outcomes == {True, False}


def test_k0_uhf_lifts_match_gauss_jordan_steps():
    for depth in (5, 6):
        diagram = preset_diagram("uhf:2,3", depth=depth)
        for v in (0, 1, 2, 3, 6**3, 2**7 * 3**2, 6**12, -(6**12), 5 * 6**4):
            expected, current = None, (v,)
            for k in range(24):
                current = _square_preimage_ref(diagram.continuation[k % 2], current)
                if current is None:
                    expected = k + 1
                    break
            hom = K0Hom.from_deepest(diagram, (v,))
            assert k0_extension_obstruction(hom, 24) == expected, (depth, v)


def test_k0_refuses_vectors_of_the_wrong_length():
    gicar = preset_diagram("gicar", depth=3)
    with pytest.raises(ValueError, match="level 3: K0 vector has 5 entries, the level has 4 blocks"):
        K0Hom.from_deepest(gicar, (1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="level 3: K0 vector has 3 entries, the level has 4 blocks"):
        K0Hom.from_deepest(gicar, (1, 2, 3))
    es = preset_diagram("effros-shen")
    with pytest.raises(ValueError, match="K0 vector has 3 entries, the level has 2 blocks"):
        K0Hom.from_deepest(es, (1, 0, 7))
    good = K0Hom.from_deepest(gicar, (1, 2, 3, 4)).vectors
    for bad in (good[:2] + ((1, 2),) + good[3:], good[:1] + (good[1] + (0,),) + good[2:]):
        with pytest.raises(ValueError, match="level [12]: K0 vector has"):
            K0Hom(gicar, bad)


def test_mat_t_vec_refuses_a_vector_of_the_wrong_length():
    m = ((1, 0), (2, 1), (0, 3))
    assert _mat_t_vec(m, (1, 0, 2)) == (1, 6)
    for v in ((1, 0), (1, 0, 2, 5)):
        with pytest.raises(ValueError, match=f"length {len(v)} against a matrix with 3 rows"):
            _mat_t_vec(m, v)


def test_k0_rejects_non_square_and_singular_steps():
    levels = ((1,), (1, 1))
    mults = (((1,), (1,)),)
    # Not square, singular, and a 1-block step under the 2-block deepest level.
    for step in (((1, 1), (1, 1), (1, 0)), ((1, 1), (2, 2)), ((2,),)):
        diagram = BratteliDiagram(levels, mults, "test", (step,))
        hom = K0Hom.from_deepest(diagram, (1, 1))
        with pytest.raises(ValueError):
            k0_extension_obstruction(hom)


def test_k0_compatibility_enforced():
    car = preset_diagram("car", depth=2)
    with pytest.raises(ValueError):
        K0Hom(car, ((1,), (1,), (1,)))


def test_k0_rejects_non_integer_vectors():
    # int() would truncate 2.7 to 2 and report the obstruction of (2,).
    with pytest.raises(ValueError, match="non-integer"):
        K0Hom.from_deepest(preset_diagram("car", depth=2), (2.7,))
    with pytest.raises(ValueError, match="non-integer"):
        K0Hom.from_deepest(preset_diagram("car", depth=2), iter((2.7,)))
    with pytest.raises(ValueError, match="non-integer"):
        K0Hom(preset_diagram("car", depth=1), ((2,), (1.5,)))


def test_embed_car_example():
    car = preset_diagram("car")
    u = _car_u()
    v = embed(u, car, 2)
    assert sorted(v.blocks[0].angles) == [F(0), F(0), F(1, 4), F(1, 4)]
    tw = trace_weights(car)
    assert trace_value(u, tw) == trace_value(v, tw) == QQi(F(1, 2), F(1, 2))


def test_embed_identity():
    car = preset_diagram("car")
    u = BlockUnitary(0, (DiagonalUnitary.identity(1),))
    for m in range(1, 5):
        v = embed(u, car, m)
        assert all(a == 0 for a in v.blocks[0].angles)


def test_embed_concatenates_two_blocks():
    d = BratteliDiagram(((1, 1), (2,)), ((((1, 1)),),))
    u = BlockUnitary(0, (DiagonalUnitary((F(1, 4),)), DiagonalUnitary((F(1, 2),))))
    v = embed(u, d, 1)
    assert v.blocks[0].angles == (F(1, 4), F(1, 2))


def test_embed_trace_compatibility_random():
    import random

    rng = random.Random(2)
    for name in ("car", "uhf:2,3", "effros-shen", "gicar-excluded"):
        diagram = preset_diagram(name)
        tw = trace_weights(diagram)
        level = 1
        blocks = tuple(
            DiagonalUnitary(tuple(F(rng.randint(0, 3), 4) for _ in range(d)))
            for d in diagram.levels[level]
        )
        u = BlockUnitary(level, blocks)
        base = trace_value(u, tw)
        for m in range(level + 1, min(level + 4, diagram.depth + 1)):
            assert trace_value(embed(u, diagram, m), tw) == base


def test_det_phi_zero_hom():
    car = preset_diagram("car")
    u = _car_u()
    assert det_phi(u, K0Hom.zero(car)) == QQi.of(1)


def test_det_phi_multiplicative_and_embedding_stable():
    es = preset_diagram("effros-shen")
    hom = K0Hom.from_deepest(es, (1, 1))
    level = 2  # dims (2, 1)
    u = BlockUnitary(level, (DiagonalUnitary((F(1, 4), F(0))), DiagonalUnitary((F(1, 2),))))
    v = BlockUnitary(level, (DiagonalUnitary((F(1, 2), F(1, 4))), DiagonalUnitary((F(3, 4),))))
    uv = BlockUnitary(
        level,
        tuple(
            DiagonalUnitary(tuple(a + b for a, b in zip(x.angles, y.angles)))
            for x, y in zip(u.blocks, v.blocks)
        ),
    )
    assert det_phi(uv, hom) == det_phi(u, hom) * det_phi(v, hom)
    assert det_phi_turn(embed(u, es, 4), hom) == det_phi_turn(u, hom)


def test_det_phi_minimal_projection():
    # z e + (1 - e) for a minimal projection e in the first block picks up
    # exactly phi weight of that block.
    es = preset_diagram("effros-shen")
    hom = K0Hom.from_deepest(es, (2, -1))
    level = 3  # dims (3, 2)
    phi = hom.vectors[level]
    angles = (F(1, 4),) + (F(0),) * 2
    u = BlockUnitary(level, (DiagonalUnitary(angles), DiagonalUnitary.identity(2)))
    assert det_phi_turn(u, hom) == (phi[0] * F(1, 4)) % 1


def test_eval_limit_character_examples():
    car = preset_diagram("car")
    tw = trace_weights(car)
    u = _car_u()
    spec1 = LimitCharacterSpec(None, ((tw, 1),), ())
    assert eval_limit_character(spec1, u) == QQi(F(1, 2), F(1, 2))
    trivial = LimitCharacterSpec(K0Hom.zero(car), (), ())
    assert eval_limit_character(trivial, u) == QQi.of(1)
    spec11 = LimitCharacterSpec(None, ((tw, 1),), ((tw, 1),))
    assert eval_limit_character(spec11, u) == QQi.of(F(1, 2))


def test_ergodic_defining_rep_constant():
    car = preset_diagram("car")
    report = ergodic_sequence(car, P((1,)), P(()), _car_u(), 5)
    expected = QQi(F(1, 2), F(1, 2))
    assert all(v == expected for v in report.values)
    assert report.limit == expected
    assert all(e < 1e-15 for e in report.errors)


def test_ergodic_rejects_an_empty_range_of_levels():
    car = preset_diagram("car")
    with pytest.raises(ValueError, match="n_max 0 is below the level 1 of u"):
        ergodic_sequence(car, P((1,)), P((1,)), _car_u(), 0)
    assert ergodic_sequence(car, P((1,)), P((1,)), _car_u(), 1).levels == (1,)


def test_ergodic_trivial_pair():
    car = preset_diagram("car")
    report = ergodic_sequence(car, P(()), P(()), _car_u(), 4)
    assert all(v == QQi.of(1) for v in report.values)
    assert report.limit == QQi.of(1)


def test_ergodic_adjoint_sequence():
    car = preset_diagram("car")
    report = ergodic_sequence(car, P((1,)), P((1,)), _car_u(), 6)
    for d, v in zip(report.dims, report.values):
        assert isinstance(v, QQi) and v.im == 0
        assert v.re == F(d * d // 2 - 1, d * d - 1)
    assert report.limit == QQi.of(F(1, 2))
    assert report.rate is not None and 1.8 <= report.rate <= 2.2


def test_schur_weyl_defect_examples():
    for n in (1, 2, 3, 4, 5, 6, 64):
        assert schur_weyl_defect(n, 1, 1) == F(1, 4**n)
    assert schur_weyl_defect(3, 1, 0) == 0
    assert schur_weyl_defect(2, 2, 0) == 0
    with pytest.raises(ValueError):
        schur_weyl_defect(3, 0, 0)
    with pytest.raises(ValueError):
        schur_weyl_defect(1, 2, 1)  # pairs cannot fit in d = 2


def test_schur_weyl_defect_decreasing():
    for p, q in ((1, 1), (2, 1), (1, 2), (2, 0)):
        vals = [schur_weyl_defect(n, p, q) for n in range(2, 7)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        assert all(0 <= v < 1 for v in vals)


def test_schur_weyl_defect_rejects_negative_arguments():
    for n, p, q in ((3, -1, 1), (3, 1, -1), (-1, 1, 1)):
        with pytest.raises(ValueError, match="must be nonnegative"):
            schur_weyl_defect(n, p, q)


def test_diagram_json_round_trip():
    car = preset_diagram("car", depth=3)
    data = car.to_json()
    back = BratteliDiagram.from_json(data)
    assert back.levels == car.levels and back.mults == car.mults


def test_ergodic_error_rate_small_pairs():
    # |chi_n - limit| decays at least like 1/d_n for small pairs on the CAR tower.
    car = preset_diagram("car")
    u = BlockUnitary(2, (DiagonalUnitary((F(1, 8), F(1, 8), F(0), F(0))),))
    for lam, mu in (((2,), (1,)), ((1, 1), (2,)), ((1,), (1,))):
        rep = ergodic_sequence(car, P(lam), P(mu), u, 6)
        scaled = [e * d for e, d in zip(rep.errors, rep.dims)]
        assert max(scaled) == scaled[0], (lam, mu, scaled)
        assert rep.rate is not None and rep.rate > 0.9, (lam, mu, rep.rate)


def test_ergodic_deep_car_tower():
    # CAR to level 10 (d = 1024): the error at every level stays within
    # 2 (p+q)^2 / d, exactly at quarter turns and in floating point.
    car = preset_diagram("car", depth=10)
    lam, mu = P((2,)), P((1,))
    bound = 2 * (lam.size + mu.size) ** 2
    for angles in ((F(1, 4), F(1, 2)), (0.1234, 0.5678)):
        u = BlockUnitary(1, (DiagonalUnitary(angles),))
        report = ergodic_sequence(car, lam, mu, u, 10)
        assert report.dims[-1] == 1024
        for d, v in zip(report.dims, report.values):
            assert isinstance(v, QQi) == isinstance(angles[0], F)
            assert abs(complex(v) - complex(report.limit)) <= bound / d, (angles, d)


@pytest.mark.parametrize("name, depth, quarter, floats", (
    ("car", 12, (F(1, 4), F(1, 2)), (0.1234, 0.5678)),
    ("uhf:3", 7, (F(1, 4), F(1, 2), F(1, 2)), (0.05, 0.3, 0.71)),
))
@pytest.mark.parametrize("lam, mu", (((1,), (1,)), ((2,), (1,)), ((1,), (2,))))
def test_ergodic_at_thousands_of_coordinates(name, depth, quarter, floats, lam, mu):
    # d = 4096 (CAR) and 2187 (UHF 3): each value within the unit disk, the
    # limit tau^p conj(tau)^q, and the last level within 2 (p+q)^2 / d of it.
    diagram = preset_diagram(name, depth=depth)
    lam, mu = P(lam), P(mu)
    p, q = lam.size, mu.size
    d = diagram.levels[depth][0]
    budget = weyl_dim(signature_from_pair(lam, mu, d))
    for angles in (quarter, floats):
        u = BlockUnitary(1, (DiagonalUnitary(angles),))
        report = ergodic_sequence(diagram, lam, mu, u, depth, dim_budget=budget)
        assert report.dims[-1] == d
        exact = isinstance(angles[0], F)
        if exact:
            tau = sum((exact_unit(a) for a in angles), QQi.of(0)) / len(angles)
            assert report.limit == tau**p * tau.conjugate() ** q
            assert all(type(v) is QQi and v.abs2() <= 1 for v in report.values)
        else:
            tau = sum(cmath.exp(2j * cmath.pi * a) for a in angles) / len(angles)
            assert abs(complex(report.limit) - tau**p * tau.conjugate() ** q) <= 1e-12
            assert all(abs(v) <= 1 + 1e-9 for v in report.values)
        assert report.errors[-1] <= 2 * (p + q) ** 2 / d, (angles, report.errors[-1])


def _primitive_by_integer_products(diagram):
    """Reference for primitive_within_depth: the exact integer matrix products."""
    depth = diagram.depth
    first_window = {}
    for n in range(depth):
        prod = [list(row) for row in diagram.mults[n]]
        for m in range(n + 1, depth + 1):
            if all(v > 0 for row in prod for v in row):
                first_window[n] = m - n
                break
            if m < depth:
                mat = diagram.mults[m]
                prod = [
                    [sum(mat[i][k] * prod[k][j] for k in range(len(prod)))
                     for j in range(len(prod[0]))]
                    for i in range(len(mat))
                ]
    if not first_window:
        return False
    window = max(first_window.values())
    return all(n in first_window for n in range(depth) if n + window <= depth)


def _diagram_from_steps(nb0, steps):
    levels = [(1,) * nb0]
    for m in steps:
        levels.append(tuple(sum(v * d for v, d in zip(row, levels[-1])) for row in m))
    return BratteliDiagram(tuple(levels), tuple(steps))


def _random_step(rng, nin):
    kind = rng.choice(("dense", "sparse", "identity", "cycle", "blocks"))
    if kind == "identity":
        return tuple(tuple(int(i == j) for j in range(nin)) for i in range(nin))
    if kind == "cycle":
        # I + cyclic shift: a product of k such steps is positive once k >= nin - 1.
        return tuple(
            tuple(int(j in (i, (i + 1) % nin)) for j in range(nin)) for i in range(nin)
        )
    if kind == "blocks":
        # Block-diagonal: the first half of the blocks never feeds the second.
        half = max(1, nin // 2)
        return tuple(
            tuple(rng.randint(1, 2) if (i < half) == (j < half) else 0 for j in range(nin))
            for i in range(nin)
        )
    nout = rng.randint(1, 4)
    zero_share = 0.3 if kind == "dense" else 0.7
    rows = []
    for _ in range(nout):
        row = [0 if rng.random() < zero_share else rng.randint(1, 3) for _ in range(nin)]
        if not any(row):
            row[rng.randrange(nin)] = 1
        rows.append(tuple(row))
    return tuple(rows)


def test_primitivity_matches_integer_products():
    import random

    diagrams = [
        preset_diagram(name, depth=depth)
        for name in ("car", "uhf:2,3", "effros-shen", "effros-shen:2,3,2", "gicar-excluded")
        for depth in (None, 3, 12)
    ]
    diagrams.append(uhf_product_diagram((2, 3), 5))
    rng = random.Random(11)
    for _ in range(300):
        nb0 = nb = rng.randint(1, 4)
        steps = []
        for _ in range(rng.randint(1, 6)):
            steps.append(_random_step(rng, nb))
            nb = len(steps[-1])
        diagrams.append(_diagram_from_steps(nb0, steps))
    # Positive only near the top: identities first, then I + shift on 4 blocks.
    eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    cycle = tuple(tuple(int(j in (i, (i + 1) % 4)) for j in range(4)) for i in range(4))
    for k in range(5):
        diagrams.append(_diagram_from_steps(4, [eye] * k + [cycle] * 3))
        diagrams.append(_diagram_from_steps(4, [cycle] * 3 + [eye] * k))
    outcomes = set()
    for diagram in diagrams:
        report = validate_diagram(diagram)
        assert report.valid, report.errors
        expected = _primitive_by_integer_products(diagram)
        assert report.primitive_within_depth is expected, diagram.mults
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_uhf_continuation_in_phase():
    # The periodic tail continues from the stored depth: it is exactly the
    # next steps of the same preset built deeper.
    for name in ("uhf:2,3", "uhf:2,3,5"):
        for depth in range(1, 8):
            short = preset_diagram(name, depth=depth)
            deep = preset_diagram(name, depth=depth + len(short.continuation))
            assert short.continuation == deep.mults[depth:], (name, depth)
    # Lifting (2,): x2 steps always divide out once, x3 steps fail at once.
    for depth, step in ((2, 2), (3, 1), (4, 2), (5, 1)):
        hom = K0Hom.from_deepest(preset_diagram("uhf:2,3", depth=depth), (2,))
        assert k0_extension_obstruction(hom) == step, depth


# The per-type branches that `trace_value`, `eval_limit_character`,
# `det_phi_turn` and `det_phi` had before they shared one value path, kept
# verbatim as references.


def _trace_value_ref(u, tw):
    weights = tw.weights[u.level]
    exact_blocks = [exact_values(b) for b in u.blocks]
    if all(ev is not None for ev in exact_blocks):
        total = QQi.of(0)
        for w, ev in zip(weights, exact_blocks):
            s = QQi.of(0)
            for z in ev:
                s = s + z
            total = total + QQi.of(w) * s
        return total
    total_c = 0j
    for w, block in zip(weights, u.blocks):
        total_c += float(w) * sum(block.complex_values())
    return total_c


def _det_phi_turn_ref(u, hom):
    phi = hom.vectors[u.level]
    total = Fraction(0)
    exact = True
    acc = 0.0
    for w, block in zip(phi, u.blocks):
        for a in block.angles:
            if isinstance(a, Fraction) and exact:
                total += w * a
            else:
                exact = False
            acc += w * float(a)
    return total % 1 if exact else acc % 1.0


def _det_phi_ref(u, hom):
    from weylchar.exact import unit_complex

    turn = _det_phi_turn_ref(u, hom)
    if isinstance(turn, Fraction):
        ev = exact_unit(turn)
        if ev is not None:
            return ev
        return unit_complex(turn)
    return unit_complex(turn)


def _eval_limit_character_ref(spec, u):
    factors = []
    if spec.phi is not None and not spec.phi.is_zero():
        factors.append(_det_phi_ref(u, spec.phi))
    for tw, p in spec.pos_traces:
        t = _trace_value_ref(u, tw)
        factors.extend([t] * p)
    for tw, q in spec.neg_traces:
        t = _trace_value_ref(u, tw)
        conj = t.conjugate() if isinstance(t, QQi) else complex(t).conjugate()
        factors.extend([conj] * q)
    if all(isinstance(x, QQi) for x in factors):
        out = QQi.of(1)
        for x in factors:
            out = out * x
        return out
    out = 1 + 0j
    for x in factors:
        out *= complex(x)
    return out


def _random_angle(rng, kind):
    if kind == "quarter":
        return F(rng.randrange(4), 4)
    if kind == "rational":
        return F(rng.randrange(12), 12)
    return rng.random()


def _random_block_unitary(rng, diagram, level, kind):
    blocks = []
    for d in diagram.levels[level]:
        block_kind = rng.choice(("quarter", "rational", "float")) if kind == "mixed" else kind
        blocks.append(DiagonalUnitary(tuple(_random_angle(rng, block_kind) for _ in range(d))))
    return BlockUnitary(level, tuple(blocks))


def _same(new, ref):
    return type(new) is type(ref) and new == ref


def _same_up_to_rounding(new, ref):
    """Equal types, values within 1e-9 (turns on the circle).

    For float values at spectra with a repeated angle: the package sums each
    distinct angle once, times its count, where the references sum it count
    times, so only the rounding of the float sums differs.  Each sum errs by
    at most its length (<= 32 here) times u times the sum of its terms'
    moduli (< 10^4), under 1e-10.
    """
    gap = abs(new - ref)
    if type(new) is float:
        gap = min(gap, 1 - gap)
    return type(new) is type(ref) and gap <= 1e-9


def test_value_path_matches_per_type_branches():
    import random

    rng = random.Random(9)
    kinds = ("quarter", "rational", "float", "mixed")
    types = {"trace_value": set(), "det_phi_turn": set(), "det_phi": set(), "limit": set()}
    for name in ("car", "uhf:2,3", "effros-shen", "gicar-excluded"):
        diagram = preset_diagram(name, depth=5)
        nb = len(diagram.levels[-1])
        tws = [trace_weights(diagram)] + [trace_weights(diagram, boundary=j) for j in range(nb)]
        for trial in range(80):
            kind = kinds[trial % len(kinds)]
            level = rng.randint(0, diagram.depth)
            u = _random_block_unitary(rng, diagram, level, kind)
            hom = K0Hom.from_deepest(diagram, tuple(rng.randint(-3, 3) for _ in range(nb)))
            tw = rng.choice(tws)
            outs = {
                "trace_value": (trace_value(u, tw), _trace_value_ref(u, tw)),
                "det_phi_turn": (det_phi_turn(u, hom), _det_phi_turn_ref(u, hom)),
                "det_phi": (det_phi(u, hom), _det_phi_ref(u, hom)),
            }
            spec = LimitCharacterSpec(
                rng.choice((None, hom, K0Hom.zero(diagram))),
                tuple((rng.choice(tws), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))),
                tuple((rng.choice(tws), rng.randint(0, 3)) for _ in range(rng.randint(0, 2))),
            )
            outs["limit"] = (eval_limit_character(spec, u), _eval_limit_character_ref(spec, u))
            repeated = any(len(b.groups) < b.d for b in u.blocks)
            for fn, (new, ref) in outs.items():
                if repeated and type(new) in (float, complex):
                    assert _same_up_to_rounding(new, ref), (fn, name, u, spec)
                else:
                    assert _same(new, ref), (fn, name, u, spec)
                types[fn].add(type(new))
    # Both the exact and the float side of every function ran.
    assert types["det_phi_turn"] == {Fraction, float}
    assert all(types[fn] == {QQi, complex} for fn in ("trace_value", "det_phi", "limit"))


def _car_unitary(level, angles):
    return BlockUnitary(level, (DiagonalUnitary(angles),))


@pytest.mark.parametrize(
    "call, fragment",
    [
        (lambda: BratteliDiagram(((1,), (2,)), ()), "one multiplicity matrix per level step"),
        (lambda: BratteliDiagram(((1,), (2,)), (((2, 1),),)), "matrix 0 has the wrong shape"),
        (lambda: preset_diagram("effros-shen:1,0"), "continued-fraction terms must be positive"),
        (lambda: preset_diagram("uhf:1,2"), "uhf factors must be integers >= 2"),
        (lambda: TraceWeights(preset_diagram("car", depth=2), ((F(1),),)),
         "one weight vector per level"),
        # Each level is normalized and levels 0 and 1 agree; level 1 is not M^T of level 2.
        (lambda: TraceWeights(preset_diagram("gicar", depth=2),
                              ((F(1),), (F(1), F(0)), (F(1, 4), F(1, 4), F(1, 4)))),
         "compatibility fails between levels 1 and 2"),
        (lambda: K0Hom(preset_diagram("car", depth=2), ((0,),)), "one vector per level"),
        (lambda: k0_extension_obstruction(K0Hom.zero(preset_diagram("gicar", depth=2))),
         "no continuation data"),
        (lambda: embed(_car_unitary(5, (0, 0)), preset_diagram("car", depth=2), 2),
         "level 5 outside diagram depth 2"),
        (lambda: embed(_car_unitary(1, (0,)), preset_diagram("car", depth=2), 2),
         "block sizes (1,) != level dims (2,)"),
        (lambda: embed(_car_unitary(1, (0, 0)), preset_diagram("car", depth=2), 0),
         "target level 0 out of range [1, 2]"),
        (lambda: LimitCharacterSpec(None, ((trace_weights(preset_diagram("car", depth=2)), -1),)),
         "trace powers must be nonnegative"),
        (lambda: ergodic_sequence(preset_diagram("car", depth=3), P((1,)), P(()),
                                  _car_unitary(1, (0, 0)), 4),
         "n_max 4 beyond diagram depth 3"),
        (lambda: ergodic_sequence(preset_diagram("car", depth=3), P((1, 1)), P((1,)),
                                  _car_unitary(1, (0, 0)), 2),
         "pair does not fit at level 1: d = 2"),
    ],
)
def test_input_refusals(call, fragment):
    with pytest.raises(ValueError) as info:
        call()
    assert fragment in str(info.value)
