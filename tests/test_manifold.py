import json

import numpy as np
import pytest

from srgeom import expr
from srgeom.lie import cartan_nilpotent, heisenberg_normal_form
from srgeom.manifold import (
    FramedManifold,
    ManifoldError,
    RankJumpError,
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
    symbol_at,
)
from srgeom.models import (
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
    v = m.vector_field(["x^2", "sin(x)", "y*z"])
    w = m.vector_field(["exp(y)", "1", "x"])
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
        m.vector_field(["x^2", "sin(x)", "y*z"]),
        m.vector_field(["exp(y)", "1", "x"]),
        m.vector_field(["z", "x*y", "cos(z)"]),
    ]
    x, y, z = fields
    total = (
        bracket(bracket(x, y), z)
        + bracket(bracket(y, z), x)
        + bracket(bracket(z, x), y)
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
    with pytest.raises(RankJumpError):
        symbol_at(m, (0, 0, 0))


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
# symbol extraction


def test_symbol_heisenberg_normal_form():
    m = heis()
    g = symbol_at(m, (0.2, 0.1, -0.3))
    assert g.layer_dims == (2, 1)
    assert heisenberg_normal_form(g) == pytest.approx((1.0,), abs=1e-9)


def test_symbol_metric4_normal_form():
    m = heisenberg_metric4_manifold()
    g = symbol_at(m, (0.2, 0.1, -0.3, 0.4, 0.0))
    assert g.layer_dims == (4, 1)
    assert heisenberg_normal_form(g) == pytest.approx((1.0, 2.0), abs=1e-8)


def test_symbol_235_carnot_axioms():
    m = cartan_group_manifold()
    g = symbol_at(m, (0.1, -0.4, 0.2, 0.7, -0.3))
    assert g.layer_dims == (2, 1, 2)
    assert g.jacobi_residual() <= 1e-8
    assert g.generation_ok()


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

    gmat = base.metric_at(base.point((0, 0, 0, 0, 0)))  # constant metric
    gnew = rot.T @ gmat @ rot
    metric = [[expr.floatc(gnew[i, j]) for j in range(4)] for i in range(4)]
    rotated = FramedManifold(
        base.coords, frames, 4, metric=metric, structure_class="contact"
    )
    p = (0.2, 0.1, -0.3, 0.4, 0.0)
    lam_base = heisenberg_normal_form(symbol_at(base, p))
    lam_rot = heisenberg_normal_form(symbol_at(rotated, p))
    assert lam_base == pytest.approx((1.0, 2.0), abs=1e-9)
    assert lam_base == pytest.approx(lam_rot, abs=1e-9)


def _filiform_chart():
    """Step-4 filiform chart of dimension 5: growth (2, 3, 4, 5)."""
    frames = [
        ["1", "0", "0", "0", "0"],
        ["0", "1", "x1", "x1^2/2", "x1^3/6"],
        ["0", "0", "1", "0", "0"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "1"],
    ]
    return FramedManifold(("x1", "x2", "x3", "x4", "x5"), frames, 2)


def test_symbol_at_builds_layer_brackets_once(monkeypatch):
    # the brackets of layer 2 with layer 2 do not depend on the point, so the
    # number of bracket calls must not grow with the number of points
    import srgeom.manifold as manifold_module

    calls = []

    def counting_bracket(x, y):
        calls.append(None)
        return bracket(x, y)

    monkeypatch.setattr(manifold_module, "bracket", counting_bracket)
    rng = np.random.default_rng(4)
    counts = []
    for count in (1, 5):
        m = _filiform_chart()
        calls.clear()
        for _ in range(count):
            alg = symbol_at(m, rng.uniform(-1, 1, size=5))
            assert alg.layer_dims == (2, 1, 1, 1)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_symbol_rank_jump_against_reference():
    m = heis()
    with pytest.raises(RankJumpError):
        symbol_at(m, (0, 0, 0), reference_flag=(2, 3, 5))


# ---------------------------------------------------------------------------
# constant-symbol verdicts


def test_constant_symbol_heisenberg():
    m = heis()
    rng = np.random.default_rng(6)
    pts = [rng.uniform(-1, 1, size=3) for _ in range(5)]
    verdict = check_constant_symbol(m, pts)
    assert verdict.constant
    assert verdict.detail == pytest.approx((1.0,), abs=1e-9)


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
    fields = data.x
    u = [expr.parse(t, m.coords) for t in ("x1", "1", "x2*x3", "0", "x5^2")]
    w = [expr.parse(t, m.coords) for t in ("x4", "x1*x2", "0", "1", "x3 - x5")]
    coeffs = frame_bracket(fields, data.c, u, w)
    field = bracket(frame_combination(m, fields, u), frame_combination(m, fields, w))
    for p in ((0.1, -0.2, 0.3, 0.4, -0.5), (0.5, 0.3, -0.7, 0.2, 0.6), (-0.4, 0.8, 0.1, -0.3, 0.2)):
        pt = m.point(p)
        fmat = np.column_stack([f.value_at(pt) for f in fields])
        want = np.linalg.solve(fmat, field.value_at(pt))
        got = expr.evaluate_array(coeffs, pt)
        assert np.abs(got - want).max() <= 1e-12


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
