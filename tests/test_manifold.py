import json
import math

import numpy as np
import pytest

from srgeom import expr, manifold
from srgeom.lie import CarnotAlgebra, cartan_nilpotent, heisenberg
from srgeom.manifold import (
    FramedManifold,
    ManifoldError,
    RankJumpError,
    VectorField,
    _flags,
    bracket,
    check_constant_symbol,
    frame_bracket,
    frame_combination,
    frame_inverse,
    growth_flag,
    load_manifold,
    manifold_from_dict,
    structure_functions,
)
from srgeom.models import (
    carnot_group_manifold,
    cartan_group_manifold,
    euclidean_manifold,
    heisenberg_manifold,
    heisenberg_metric4_manifold,
    perturbed_235_manifold,
    varying_lambda_manifold,
)


def heis():
    return heisenberg_manifold()


# ---------------------------------------------------------------------------
# brackets


def test_coordinate_fields_commute():
    m = euclidean_manifold(3)
    b = bracket(m.frames[0], m.frames[1])
    assert all(c is expr.rational(0) for c in b.components)


def test_heisenberg_model_frame():
    m = heis()
    # the group construction reproduces the standard chart frame
    x, y = expr.var("x"), expr.var("y")
    assert m.frames[0].components == (
        expr.rational(1),
        expr.rational(0),
        expr.simplify(expr.mul(expr.rational(-1, 2), y)),
    )
    assert m.frames[1].components == (
        expr.rational(0),
        expr.rational(1),
        expr.simplify(expr.mul(expr.rational(1, 2), x)),
    )
    b = bracket(m.frames[0], m.frames[1])
    assert b.components == (expr.rational(0), expr.rational(0), expr.rational(1))


def test_bracket_antisymmetry():
    m = heis()
    v = VectorField(m, ["x^2", "sin(x)", "y*z"])
    w = VectorField(m, ["exp(y)", "1", "x"])
    ab = bracket(v, w)
    ba = bracket(w, v)
    for c1, c2 in zip(ab.components, ba.components):
        assert expr.simplify(c1 + c2) is expr.rational(0)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = m.point(rng.uniform(-1, 1, size=3))
        assert np.abs(ab.value_at(p) + ba.value_at(p)).max() < 1e-12


def test_bracket_jacobi_identity():
    m = heis()
    fields = [
        VectorField(m, ["x^2", "sin(x)", "y*z"]),
        VectorField(m, ["exp(y)", "1", "x"]),
        VectorField(m, ["z", "x*y", "cos(z)"]),
    ]
    x, y, z = fields
    total = frame_combination(
        m,
        (bracket(bracket(x, y), z), bracket(bracket(y, z), x), bracket(bracket(z, x), y)),
        (expr.ONE,) * 3,
    )
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = m.point(rng.uniform(-1, 1, size=3))
        assert np.abs(total.value_at(p)).max() <= 1e-8


# ---------------------------------------------------------------------------
# structure functions


def test_structure_functions_coordinate_frame():
    m = euclidean_manifold(3)
    c = structure_functions(m)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert c[i][j][k] is expr.rational(0)


def test_structure_functions_heisenberg():
    m = heis()
    c = structure_functions(m)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = 0
                if (i, j, k) == (0, 1, 2):
                    want = 1
                elif (i, j, k) == (1, 0, 2):
                    want = -1
                assert c[i][j][k] is expr.rational(want)


def test_structure_functions_235_group_are_structure_constants():
    g = cartan_nilpotent()
    m = cartan_group_manifold()
    c = structure_functions(m)
    tensor = g.structure_tensor()
    for i in range(5):
        for j in range(5):
            for k in range(5):
                e = c[i][j][k]
                assert isinstance(e, expr.Rat), (i, j, k, expr.to_string(e))
                assert float(e.value) == pytest.approx(tensor[i, j, k], abs=0)


def test_frame_inverse_heisenberg():
    m = heis()
    finv = frame_inverse(m)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = m.point(rng.uniform(-1, 1, size=3))
        num = np.array(
            [[expr.evaluate(e, p) for e in row] for row in finv]
        )
        assert np.abs(num @ m.frame_matrix_at(p) - np.eye(3)).max() < 1e-12


def test_inverse_refuses_a_singular_matrix():
    x = expr.var("x")
    with pytest.raises(ManifoldError, match="not symbolically invertible"):
        manifold._inverse([[x, x], [x, x]])


# ---------------------------------------------------------------------------
# growth flags


def test_growth_flag_heisenberg():
    m = heis()
    assert growth_flag(m, (0.3, -0.2, 0.5), 3) == (2, 3)


def test_growth_flag_235():
    m = cartan_group_manifold()
    p = (0.1, -0.4, 0.2, 0.7, -0.3)
    assert growth_flag(m, p, 3) == (2, 3, 5)


def test_growth_flag_full_rank():
    m = euclidean_manifold(4)
    assert growth_flag(m, (0, 0, 0, 0), 3) == (4,)


def test_growth_flag_martinet_point():
    # rank plateaus before jumping at the origin of a cubic-type frame
    m = FramedManifold(
        ("x", "y", "z"),
        [["1", "0", "0"], ["0", "1", "x^2"], ["0", "0", "1"]],
        2,
    )
    assert growth_flag(m, (0, 0, 0), 3) == (2, 2, 3)
    assert growth_flag(m, (0.5, 0, 0), 3) == (2, 3)


def test_flag_pass_mixed_batch_martinet():
    # one pass over a plateau point and a regular point: each point's flag
    # and layer values are the ones it gets alone
    m = FramedManifold(
        ("x", "y", "z"),
        [["1", "0", "0"], ["0", "1", "x^2"], ["0", "0", "1"]],
        2,
    )
    pts = [m.point(p) for p in [(0, 0, 0), (0.5, 0, 0)]]
    batch = _flags(m, pts, 3)
    assert [flag for _, flag, _ in batch] == [(2, 2, 3), (2, 3)]
    for p, (finv, flag, layers) in zip(pts, batch):
        alone_finv, alone_flag, alone_layers = _flags(m, [p], 3)[0]
        assert flag == alone_flag == growth_flag(m, p, 3)
        assert np.array_equal(finv, alone_finv)
        assert len(layers) == len(alone_layers) == len(flag)
        assert all(np.array_equal(a, b) for a, b in zip(layers, alone_layers))


# ---------------------------------------------------------------------------
# contact symbols


def test_symbol_heisenberg_normal_form():
    verdict = check_constant_symbol(heis(), [(0.2, 0.1, -0.3)])
    assert verdict.detail == pytest.approx((1.0,), abs=1e-9)


def test_symbol_metric4_normal_form():
    m = heisenberg_metric4_manifold()
    verdict = check_constant_symbol(m, [(0.2, 0.1, -0.3, 0.4, 0.0)])
    assert verdict.detail == pytest.approx((1.0, 2.0), abs=1e-8)


def test_symbol_independent_of_constant_rotation():
    # reframing the horizontal bundle (and transporting the metric along)
    # leaves the symbol's normal form untouched
    base = heisenberg_metric4_manifold()
    th = 0.7
    rot = np.eye(4)
    rot[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]

    frames = []
    for i in range(4):
        vec = []
        for k in range(5):
            vec.append(
                expr.add(
                    *[
                        expr.mul(expr.floatc(rot[j, i]), base.frames[j].components[k])
                        for j in range(4)
                    ]
                )
            )
        frames.append(vec)
    frames.append(list(base.frames[4].components))

    gmat = expr.evaluate_array(base.metric, base.point((0, 0, 0, 0, 0)))  # constant metric
    gnew = rot.T @ gmat @ rot
    metric = [[expr.floatc(gnew[i, j]) for j in range(4)] for i in range(4)]
    rotated = FramedManifold(
        base.coords, frames, 4, metric=metric, structure_class="contact"
    )
    p = [(0.2, 0.1, -0.3, 0.4, 0.0)]
    lam_base = check_constant_symbol(base, p).detail
    lam_rot = check_constant_symbol(rotated, p).detail
    assert lam_base == pytest.approx((1.0, 2.0), abs=1e-9)
    assert lam_base == pytest.approx(lam_rot, abs=1e-9)


def test_constant_symbol_bracket_calls_do_not_grow_with_points(monkeypatch):
    # the flag pass builds each bracket layer once per chart, so the number
    # of bracket calls must not grow with the number of points
    calls = []

    def counting_bracket(x, y):
        calls.append(None)
        return bracket(x, y)

    monkeypatch.setattr(manifold, "bracket", counting_bracket)
    rng = np.random.default_rng(4)
    counts = []
    for count in (1, 5):
        m = heisenberg_metric4_manifold()
        calls.clear()
        assert check_constant_symbol(m, rng.uniform(-1, 1, size=(count, 5))).constant
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_contact_symbol_ranks_each_layer_once(monkeypatch):
    # flat h1 at 20 points: one batched rank per flag layer, no SVD per point
    calls = []
    inner = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    m = heis()
    verdict = check_constant_symbol(m, manifold._default_samples(m, count=20, seed=5))
    assert verdict.constant and len(verdict.samples) == 20
    assert len(calls) <= 2


def test_constant_symbol_refuses_two_vertical_directions():
    # [A1, B1] = [A2, B2] = C1 and [A1, A2] = C2: the flag (4, 6) fills the
    # chart at step 2, but the bracket form modulo E has two components
    alg = CarnotAlgebra((4, 2), {(0, 2): {4: 1}, (1, 3): {4: 1}, (0, 1): {5: 1}})
    m = carnot_group_manifold(alg, structure_class="contact")
    pts = [(0.1, -0.2, 0.3, 0.4, 0.5, -0.6), (0.0, 0.2, -0.1, 0.3, 0.1, 0.2)]
    with pytest.raises(ManifoldError, match="^not a contact structure: 2 vertical directions"):
        check_constant_symbol(m, pts)


def _six_coordinate_235_chart():
    """X_1 = d/dx1, X_2 = d/dx2 + x1 d/dx3 + x1^2/2 d/dx4 + x1 x2 d/dx5, then d/dx3 .. d/dx6.

    Its flag is (2, 3, 5) at every point, in a chart of dimension 6.
    """
    rows = [[int(i == j) for j in range(6)] for i in range(6)]
    rows[1] = ["0", "1", "x1", "x1^2/2", "x1*x2", "0"]
    return FramedManifold([f"x{i + 1}" for i in range(6)], rows, 2, structure_class="two-three-five")


def test_constant_symbol_refuses_a_235_chart_of_the_wrong_shape_before_any_flag(monkeypatch):
    m = _six_coordinate_235_chart()
    assert growth_flag(m, [0.1, 0.2, 0.3, 0.4, 0.5, 0.6], 3) == (2, 3, 5)
    passes = []
    monkeypatch.setattr(manifold, "_flags", lambda *args: passes.append(args))
    with pytest.raises(ManifoldError, match="^two-three-five structure needs rank 2 in dimension 5, got rank 2 in dimension 6$"):
        check_constant_symbol(m, [(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)])
    assert passes == []


@pytest.mark.parametrize("lam", [180.0, 300.0])
def test_constant_symbol_accepts_a_wide_lambda(lam):
    # the singular values of J scale like 1/lambda^2 and the eigenvalues of
    # -J^2 like 1/lambda^4, which fell below 1e-9 of the largest from
    # lambda of about 178 on and were refused as a degenerate form
    m = carnot_group_manifold(heisenberg((1, lam)), structure_class="contact")
    verdict = check_constant_symbol(m, manifold._default_samples(m, count=5))
    assert verdict.constant
    assert verdict.detail == pytest.approx((1.0, lam), rel=1e-9)


def test_constant_symbol_refuses_odd_rank_before_any_flag(monkeypatch):
    # frame d/dx, d/dy + x d/dz, d/dw, d/dz: the flag (3, 4) fills the chart
    # at step 2 and the dimension is rank + 1, but no h_n has odd rank
    zero, one, x = expr.rational(0), expr.rational(1), expr.var("x")
    m = FramedManifold(
        ("x", "y", "z", "w"),
        [[one, zero, zero, zero], [zero, one, x, zero], [zero, zero, zero, one], [zero, zero, one, zero]],
        3,
        structure_class="contact",
    )
    assert growth_flag(m, {"x": 0.2, "y": 0.0, "z": 0.0, "w": 0.0}, 2) == (3, 4)
    passes = []
    monkeypatch.setattr(manifold, "_flags", lambda *args: passes.append(args))
    with pytest.raises(ManifoldError, match="^contact structure needs even horizontal rank"):
        check_constant_symbol(m, [(0.1, -0.2, 0.3, 0.4)])
    assert passes == []


# ---------------------------------------------------------------------------
# constant-symbol verdicts


def test_constant_symbol_heisenberg():
    m = heis()
    rng = np.random.default_rng(6)
    pts = [rng.uniform(-1, 1, size=3) for _ in range(5)]
    verdict = check_constant_symbol(m, pts)
    assert verdict.constant
    assert verdict.detail == pytest.approx((1.0,), abs=1e-9)


def test_constant_symbol_normalizes_every_point_in_one_call(monkeypatch):
    # the verdict stacks every point's bracket form and metric into one
    # batched normal form: one call for a flat group's 20 points, and one for
    # the two points of a chart whose λ varies
    calls = []
    inner = manifold.heisenberg_normal_forms

    def counted(forms, metrics):
        calls.append(len(forms))
        return inner(forms, metrics)

    monkeypatch.setattr(manifold, "heisenberg_normal_forms", counted)
    m = carnot_group_manifold(heisenberg((1, 1.6, 2.9)), structure_class="contact")
    verdict = check_constant_symbol(m, manifold._default_samples(m, count=20, seed=5))
    assert verdict.constant and len(verdict.samples) == 20
    assert verdict.detail == pytest.approx((1.0, 1.6, 2.9), abs=1e-9)
    assert calls == [20]
    calls.clear()
    verdict = check_constant_symbol(
        varying_lambda_manifold(), [(0.0, 0.1, 0.2, -0.1, 0.3), (0.8, 0.1, 0.2, -0.1, 0.3)]
    )
    assert not verdict.constant and calls == [2]


def test_constant_symbol_varying_lambda_fails():
    m = varying_lambda_manifold()
    pts = [
        (0.0, 0.1, 0.2, -0.1, 0.3),
        (0.8, 0.1, 0.2, -0.1, 0.3),
    ]
    verdict = check_constant_symbol(m, pts)
    assert not verdict.constant
    lam0, lam1 = verdict.samples
    assert lam0[1] == pytest.approx(1.0, abs=1e-6)
    assert lam1[1] == pytest.approx(1.64, abs=1e-6)


def test_constant_symbol_235():
    m = cartan_group_manifold()
    rng = np.random.default_rng(7)
    pts = [rng.uniform(-1, 1, size=5) for _ in range(5)]
    verdict = check_constant_symbol(m, pts)
    assert verdict.constant
    assert verdict.detail == (2, 3, 5)


def test_constant_symbol_rejects_differing_flags_within_two_layers():
    # the bracket [X1, X2] = z d/dz vanishes at z = 0, and so does every
    # deeper bracket; the growth vectors differ after two layers, so no
    # deeper layer is built (layer k holds 2^(k-1) fields)
    m = FramedManifold(
        ("x", "y", "z"),
        [["1", "0", "0"], ["0", "1", "x*z"], ["0", "0", "1"]],
        2,
        structure_class="contact",
    )
    with pytest.raises(RankJumpError, match=r"growth vector \(2, 2\) .* differs from \(2, 3\)"):
        check_constant_symbol(m, [(0.5, 0.1, 0.5), (0.5, 0.1, 0.0)])
    assert len(m._bracket_layers) == 2


def _degenerate_rank4_chart():
    # [X1, X3] = [X2, X4] = z d/dz and every deeper bracket vanish at z = 0,
    # so the flag there is (4, 4, 4, ...) and never fills the chart
    return FramedManifold(
        ("x1", "x2", "x3", "x4", "z"),
        [
            ["1", "0", "0", "0", "0"],
            ["0", "1", "0", "0", "0"],
            ["0", "0", "1", "0", "x1*z"],
            ["0", "0", "0", "1", "x2*z"],
            ["0", "0", "0", "0", "1"],
        ],
        4,
        structure_class="contact",
    ), [(0.1, -0.2, 0.3, 0.4, 0.0), (-0.5, 0.6, 0.2, -0.1, 0.0)], (4, 4)


def _cartan_declared_contact():
    # a step-3 symbol: its flag (2, 3) does not fill the chart at step 2
    m = cartan_group_manifold()
    pts = [(0.1, 0.2, -0.3, 0.4, 0.5), (-0.2, 0.1, 0.3, -0.4, 0.2)]
    frames = [f.components for f in m.frames]
    return FramedManifold(m.coords, frames, m.rank, structure_class="contact"), pts, (2, 3)


@pytest.mark.parametrize(
    "build", [_degenerate_rank4_chart, _cartan_declared_contact], ids=["rank4-z0", "cartan"]
)
def test_constant_symbol_rejects_non_contact_flag_at_step_two(build, monkeypatch):
    m, pts, flag = build()
    steps = []
    inner = manifold._flags

    def counted(m, points, max_step):
        steps.append(max_step)
        return inner(m, points, max_step)

    monkeypatch.setattr(manifold, "_flags", counted)
    message = rf"^not a contact structure: growth flag \({flag[0]}, {flag[1]}\)$"
    with pytest.raises(ManifoldError, match=message):
        check_constant_symbol(m, pts)
    assert steps and max(steps) <= 2


def test_constant_symbol_generic_is_undecidable():
    m = euclidean_manifold(2)
    with pytest.raises(ManifoldError, match="undecidable"):
        check_constant_symbol(m, [(0.0, 0.0)])


# ---------------------------------------------------------------------------
# frame-coefficient calculus


def test_apply_with_minus_one_cancels_exactly():
    m = heis()
    f = expr.parse("x^2*y + z*y", m.coords)
    x = m.frames[0]
    # the factor multiplies every term, so the flat terms cancel pairwise
    assert expr.add(x.apply(f), x.apply(f, expr.MINUS_ONE)) is expr.ZERO


def test_frame_bracket_matches_bracket_of_combinations():
    from srgeom.g235 import intrinsic_frame_235

    m = perturbed_235_manifold(0.1)
    data = intrinsic_frame_235(m)
    fields = data.frame.frames
    u = [expr.parse(t, m.coords) for t in ("x1", "1", "x2*x3", "0", "x5^2")]
    w = [expr.parse(t, m.coords) for t in ("x4", "x1*x2", "0", "1", "x3 - x5")]
    coeffs = frame_bracket(data.frame, u, w)
    field = bracket(frame_combination(m, fields, u), frame_combination(m, fields, w))
    for p in ((0.1, -0.2, 0.3, 0.4, -0.5), (0.5, 0.3, -0.7, 0.2, 0.6), (-0.4, 0.8, 0.1, -0.3, 0.2)):
        pt = m.point(p)
        fmat = np.column_stack([f.value_at(pt) for f in fields])
        want = np.linalg.solve(fmat, field.value_at(pt))
        got = expr.evaluate_array(coeffs, pt)
        assert np.abs(got - want).max() <= 1e-12


def _conformal_contact(n):
    """h_n(1, ..., 1) with its metric rescaled by exp(x1)."""
    scale = expr.exp(expr.var("x1"))
    metric = [[scale if i == j else expr.ZERO for j in range(2 * n)] for i in range(2 * n)]
    return carnot_group_manifold(heisenberg((1,) * n), metric=metric, structure_class="contact")


def _contact_frames(m):
    from srgeom.contact import extract_contact_data, morimoto_grading_contact

    cd = extract_contact_data(m)
    return [cd.aux, morimoto_grading_contact(cd).frame]


def _235_frames(m):
    from srgeom.g235 import _intrinsic_rows, intrinsic_frame_235, morimoto_grading_235

    bracket_frame, _ = _intrinsic_rows(m, None, None, None)
    return [bracket_frame, intrinsic_frame_235(m).frame, morimoto_grading_235(m).frame]


@pytest.mark.parametrize(
    "build, frames",
    [
        (lambda: carnot_group_manifold(heisenberg((1, 1.6, 2.9)), structure_class="contact"), _contact_frames),
        (lambda: _conformal_contact(1), _contact_frames),
        (lambda: _conformal_contact(2), _contact_frames),
        (cartan_group_manifold, _235_frames),
    ],
    ids=["flat-h3", "conformal-h1", "conformal-h2", "cartan"],
)
def test_derived_frames_agree_with_the_coordinate_level_calculus(build, frames):
    # every frame a construction derives takes its coframe and structure
    # functions from its coefficient rows; a chart declared with the same
    # coordinate components inverts and brackets them at the coordinate level
    # (tests/test_g235.py checks the perturbed (2,3,5) frames against
    # numeric brackets: there the coordinate-level inverse of the Morimoto
    # frame divides by a pivot that vanishes in exact arithmetic)
    m = build()
    pts = manifold._default_samples(m, count=3)
    for derived in frames(m):
        assert isinstance(derived, manifold._Frame) and isinstance(derived.chart, FramedManifold)
        reference = FramedManifold(derived.coords, [f.components for f in derived.frames], derived.rank)
        for p in pts:
            got = expr.evaluate_array(frame_inverse(derived), p)
            assert np.abs(got @ derived.frame_matrix_at(p) - np.eye(m.dim)).max() <= 1e-12
            want = expr.evaluate_array(structure_functions(reference), p)
            got = expr.evaluate_array(structure_functions(derived), p)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_pipelines_invert_and_bracket_only_declared_frames_at_the_coordinate_level(monkeypatch):
    # the contact pipeline reads the calculus of the chart's own frame, the
    # (2,3,5) pipeline that of raux, the bracket frame of the declared
    # horizontal fields; every other frame is derived from coefficient rows
    from srgeom import contact, g235

    # the coordinate-level inverse and bracket are methods of the declared
    # chart's type; every frame they run on is recorded
    declared = []

    def spy(inner):
        def record(m, *args):
            declared.append(m)
            return inner(m, *args)

        return record

    monkeypatch.setattr(FramedManifold, "_coframe", property(spy(FramedManifold._coframe.func)))
    monkeypatch.setattr(FramedManifold, "_bracket", spy(FramedManifold._bracket))
    m = _conformal_contact(1)
    cd = contact.extract_contact_data(m)
    contact.morimoto_connection_contact(cd, contact.morimoto_grading_contact(cd))
    assert {id(f) for f in declared} == {id(m)}
    declared.clear()
    m = cartan_group_manifold()
    g235.morimoto_connection_235(g235.morimoto_grading_235(m))
    (raux,) = {id(f): f for f in declared}.values()
    assert raux is not m
    assert [f.components for f in raux.frames[:2]] == [f.components for f in m.frames[:2]]


# ---------------------------------------------------------------------------
# description files


def test_manifold_from_dict_roundtrip(tmp_path):
    doc = {
        "coords": ["x", "y", "z"],
        "frames": [
            ["1", "0", "-y/2"],
            ["0", "1", "x/2"],
            ["0", "0", "1"],
        ],
        "horizontal_rank": 2,
        "class": "contact",
        "seed": 9,
        "sample_count": 4,
    }
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(doc))
    loaded = load_manifold(path)
    assert loaded.seed == 9
    assert loaded.sample_count == 4
    assert loaded.chart_box == ((-1.0, 1.0),) * 3
    pts = loaded.sample()
    assert len(pts) == 4
    assert growth_flag(loaded.manifold, pts[0], 2) == (2, 3)
    # same seed, same points
    again = load_manifold(path)
    assert [tuple(p.values()) for p in again.sample()] == [
        tuple(p.values()) for p in pts
    ]


def test_manifold_from_dict_validation():
    with pytest.raises(ManifoldError):
        manifold_from_dict(
            {
                "coords": ["x", "y"],
                "frames": [["1", "0"], ["0", "1"]],
                "horizontal_rank": 3,
            }
        )
    with pytest.raises(ManifoldError):
        manifold_from_dict({"coords": ["x"]})


@pytest.mark.parametrize(
    "key, value",
    [
        ("sample_count", 0),
        ("sample_count", -2),
        ("sample_count", 2.5),
        ("sample_count", "3"),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", "x"),
        ("seed", True),
    ],
)
def test_sampling_directives_are_checked_on_load(key, value):
    doc = {
        "coords": ["x", "y", "z"],
        "frames": [["1", "0", "-y/2"], ["0", "1", "x/2"], ["0", "0", "1"]],
        "horizontal_rank": 2,
        key: value,
    }
    with pytest.raises(ManifoldError, match=key):
        manifold_from_dict(doc)


def test_explicit_sample_points():
    doc = manifold_from_dict(
        {
            "coords": ["x", "y", "z"],
            "frames": [["1", "0", "-y/2"], ["0", "1", "x/2"], ["0", "0", "1"]],
            "horizontal_rank": 2,
            "sample_points": [[0.1, 0.2, 0.3], [0.0, 0.0, 0.0]],
        }
    )
    pts = doc.sample()
    assert pts[0] == {"x": 0.1, "y": 0.2, "z": 0.3}


_HEIS_DOC = {
    "coords": ["x", "y", "z"],
    "frames": [["1", "0", "-y/2"], ["0", "1", "x/2"], ["0", "0", "1"]],
    "horizontal_rank": 2,
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("sample_points", [["a", 0, 0]], "malformed"),
        ("sample_points", [[None, 0, 0]], "malformed"),
        ("sample_points", 5, "malformed"),
        ("chart_box", [[0], [0, 1], [0, 1]], "malformed"),
        ("chart_box", [["a", 1], [0, 1], [0, 1]], "malformed"),
        ("coords", 5, "malformed"),
        ("frames", 7, "malformed"),
        ("metric", 3, "malformed"),
        ("horizontal_rank", 2.7, "horizontal_rank"),
        ("horizontal_rank", True, "horizontal_rank"),
    ],
)
def test_a_malformed_description_raises_manifold_error(key, value, message):
    # each of these escaped as a bare ValueError or TypeError, or was read as
    # another value (a rank of 2.7 as 2, of true as 1)
    with pytest.raises(ManifoldError, match=message):
        manifold_from_dict(dict(_HEIS_DOC, **{key: value}))


@pytest.mark.parametrize("coords", ["xyz", [1, 2, 3], ["x", "y z", "w"], ["x", "2y", "z"], ["x", "y", ""]])
def test_coordinate_names_the_parser_cannot_read_are_refused(coords):
    # a string was read as its characters, and a number surfaced as a
    # ParseError from the frames
    with pytest.raises(ManifoldError, match="coords"):
        manifold_from_dict(dict(_HEIS_DOC, coords=coords))


_HEIS_ROWS = _HEIS_DOC["frames"]


@pytest.mark.parametrize(
    "read",
    [
        lambda: manifold_from_dict(dict(_HEIS_DOC, frames=["100", "010", "001"])),
        lambda: manifold_from_dict(dict(_HEIS_DOC, frames=[*_HEIS_ROWS[:2], "001"])),
        lambda: manifold_from_dict(dict(_HEIS_DOC, metric=["10", "01"])),
        lambda: manifold_from_dict(dict(_HEIS_DOC, metric="ab")),
        lambda: manifold_from_dict(dict(_HEIS_DOC, sample_points=["000"])),
        lambda: heisenberg_manifold().point("123"),
        lambda: heisenberg_manifold().point(b"123"),
        lambda: FramedManifold(("x", "y", "z"), [*_HEIS_ROWS[:2], b"001"], 2),
        lambda: VectorField(heisenberg_manifold(), "001"),
    ],
    ids=["frames", "frame-row", "metric-rows", "metric", "sample-point", "point", "point-bytes", "row-bytes", "field"],
)
def test_a_string_is_not_a_row(read):
    # each was read as its characters: "001" as the row (0, 0, 1), "123" as
    # the point x=1, y=2, z=3, and the metric "ab" raised a ParseError
    with pytest.raises(ManifoldError, match="not the string"):
        read()


@pytest.mark.parametrize("box", ["[0, Infinity]", "[-Infinity, 0]", "[0, NaN]", "[[-1, 1], [0, Infinity], [-1, 1]]"])
def test_a_non_finite_chart_box_bound_is_refused(tmp_path, box):
    # json reads Infinity and NaN; sampling such a box drew inf coordinates
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(_HEIS_DOC)[:-1] + f', "chart_box": {box}}}')
    with pytest.raises(ManifoldError, match="finite"):
        load_manifold(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_point_with_a_non_finite_coordinate_is_refused(tmp_path, bad):
    m = manifold_from_dict(_HEIS_DOC).manifold
    with pytest.raises(ManifoldError, match="'y'.*not finite"):
        m.point([0.1, bad, 0.3])
    with pytest.raises(ManifoldError, match="'y'.*not finite"):
        m.point({"x": 0.1, "y": bad, "z": 0.3})
    # a sample point of a description file is checked as it is loaded
    path = tmp_path / "heis.json"
    path.write_text(json.dumps(dict(_HEIS_DOC, sample_points=[[0.0, 0.0, 0.0], [0.1, bad, 0.3]])))
    with pytest.raises(ManifoldError, match="'y'.*not finite"):
        load_manifold(path)


def test_metric_must_be_symmetric():
    with pytest.raises(ManifoldError, match="symmetric"):
        FramedManifold(
            ("x", "y"),
            [["1", "0"], ["0", "1"]],
            2,
            metric=[["1", "x"], ["0", "1"]],
        )


def test_frame_singular_at_point():
    m = FramedManifold(("x", "y"), [["x", "0"], ["0", "1"]], 1)
    with pytest.raises(ManifoldError, match="singular"):
        m.frame_matrix_at(m.point((0.0, 0.5)))
    # the points are checked together: one singular point refuses them all
    with pytest.raises(ManifoldError, match="singular"):
        m.frame_matrices_at([m.point((0.3, 0.5)), m.point((0.0, 0.5))])


def test_frame_with_tiny_components_is_not_singular():
    # Heisenberg's frame with every component times 1e-4: its determinant is
    # 1e-12, but against the product of its column norms it is as regular as
    # the unscaled frame.
    h = heisenberg_manifold()
    small = expr.floatc(1e-4)
    m = FramedManifold(
        h.coords,
        [[expr.mul(small, c) for c in f.components] for f in h.frames],
        h.rank,
        structure_class="contact",
    )
    pts = [m.point((0.1, -0.3, 0.7)), m.point((0.0, 0.0, 0.0))]
    for p in pts:
        assert np.allclose(m.frame_matrix_at(p), 1e-4 * h.frame_matrix_at(p))
    assert growth_flag(m, pts[0], 2) == (2, 3)
    assert check_constant_symbol(m, pts).constant


@pytest.mark.parametrize(
    "frame",
    [
        [["1e8", "1e8"], ["2e8", "2e8"]],  # dependent columns, |det| = 0
        [["1e8", "1e8*x"], ["2e8", "2e8*x + 0.001"]],  # |det| = 1e5, near-parallel columns
    ],
    ids=["dependent", "near-parallel"],
)
def test_large_singular_frame_is_refused(frame):
    m = FramedManifold(("x", "y"), frame, 1)
    with pytest.raises(ManifoldError, match="singular"):
        m.frame_matrix_at(m.point((0.5, 0.5)))
