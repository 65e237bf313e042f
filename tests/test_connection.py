import itertools

import numpy as np
import pytest

from srgeom import expr
from srgeom.connection import (
    Connection,
    Grading,
    check_compatible,
    check_morimoto,
    curvature,
    curvature_isometry_residual,
    flat_frame_connection,
    flatness_check,
    left_invariant_grading,
    levi_civita,
    normal_geodesic,
    selector,
    t_zero,
    taming_metric,
    torsion,
    torsion_id_residual,
)
from srgeom.contact import extract_contact_data, morimoto_grading_contact
from srgeom.manifold import ManifoldError, VectorField
from srgeom.models import (
    cartan_group_manifold,
    conformal_heisenberg_manifold,
    euclidean_manifold,
    heisenberg_manifold,
    heisenberg_metric4_manifold,
    varying_lambda_manifold,
)

RNG = np.random.default_rng(7)


def sample_points(m, count=6, scale=0.7):
    return [
        {c: float(v) for c, v in zip(m.coords, RNG.uniform(-scale, scale, m.dim))}
        for _ in range(count)
    ]


def heis_grading():
    m = heisenberg_manifold()
    return m, left_invariant_grading(m, (2, 1))


def metric4_grading():
    m = heisenberg_metric4_manifold()
    return m, left_invariant_grading(m, (4, 1))


def cartan_grading():
    m = cartan_group_manifold()
    return m, left_invariant_grading(m, (2, 1, 2))


# ---------------------------------------------------------------------------
# gradings


def test_grading_validates_on_groups():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        assert g.validate(sample_points(m, 4)) <= 1e-9


def test_grading_rejects_wrong_layer_sizes():
    m = heisenberg_manifold()
    with pytest.raises(ManifoldError):
        Grading(m, [m.frames[:1], m.frames[1:]])


def test_grading_bad_complement_has_large_residual():
    m = heisenberg_manifold()
    # second "horizontal" field replaced by the vertical one: not inside E
    g = Grading(m, [(m.frames[0], m.frames[2]), (m.frames[1],)])
    assert g.validate(sample_points(m, 2)) > 1e-3


def test_graded_structure_heisenberg():
    m, g = heis_grading()
    cg = g.graded_structure_at({"x": 0.3, "y": -0.2, "z": 0.1})
    want = np.zeros((3, 3, 3))
    want[0, 1, 2] = 1.0
    want[1, 0, 2] = -1.0
    assert np.abs(cg - want).max() <= 1e-12


def test_symbol_algebra_matches_lie_model():
    m, g = cartan_grading()
    alg = g.symbol_algebra_at({c: 0.2 for c in m.coords})
    assert alg.layer_dims == (2, 1, 2)
    assert alg.jacobi_residual() <= 1e-12


def test_symbols_are_shared_only_when_bitwise_equal():
    # the symbol of conformal h_1 is h_1 at every point, but its computed
    # bracket constant is 1 up to a rounding that depends on x: these five
    # points have four bitwise-distinct symbols
    m = conformal_heisenberg_manifold()
    g = morimoto_grading_contact(extract_contact_data(m)).grading
    pts = [{"x": x, "y": 0.0, "z": 0.0} for x in (-0.8, -0.3, 0.0, 0.3, 0.5)]
    syms = g.symbol_algebras_at(pts)
    assert len({id(s) for s in syms}) == 4
    for s, t in itertools.combinations(syms, 2):
        equal = s.brackets == t.brackets and s.metric1.tobytes() == t.metric1.tobytes()
        assert (s is t) == equal
    # a later call gets the same objects
    assert g.symbol_algebras_at(pts[::-1]) == syms[::-1]
    # a flat chart has one symbol
    _, g = heis_grading()
    flat = g.symbol_algebras_at([{"x": 0.1 * k, "y": -0.05 * k, "z": 0.3} for k in range(20)])
    assert len({id(s) for s in flat}) == 1


# ---------------------------------------------------------------------------
# taming metric


def test_taming_euclidean_is_identity():
    m = euclidean_manifold(2)
    g = left_invariant_grading(m, (2,))
    tm = taming_metric(m, g)
    assert np.abs(tm.at({"x1": 0.2, "x2": -0.4}) - np.eye(2)).max() == 0.0


def test_taming_heisenberg_layer_norms():
    m, g = heis_grading()
    tm = taming_metric(m, g)
    assert np.abs(tm.at({"x": 0.1, "y": 0.2, "z": 0.3}) - np.eye(3)).max() <= 1e-12
    tm2 = taming_metric(m, g, convention="tensor")
    want = np.diag([1.0, 1.0, 0.5])
    assert np.abs(tm2.at({"x": 0.1, "y": 0.2, "z": 0.3}) - want).max() <= 1e-12


def test_taming_metric4_vertical_norm():
    m, g = metric4_grading()
    tm = taming_metric(m, g)
    got = tm.at({c: 0.0 for c in m.coords})
    want = np.diag([1.0, 4.0, 1.0, 4.0, 16.0 / 17.0])
    assert np.abs(got - want).max() <= 1e-12


def test_taming_cartan_all_orthonormal():
    m, g = cartan_grading()
    tm = taming_metric(m, g)
    for p in sample_points(m, 3):
        assert np.abs(tm.at(p) - np.eye(5)).max() <= 1e-12


def test_taming_matches_pointwise_symbol():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        for convention in ("selector", "tensor"):
            tm = taming_metric(m, g, convention)
            for p in sample_points(m, 3):
                assert np.abs(tm.at(p) - g.gram_at(p, convention)).max() <= 1e-10


def test_taming_varying_metric_is_symbolic():
    m = varying_lambda_manifold()
    g = left_invariant_grading(m, (4, 1))
    tm = taming_metric(m, g)
    for p in sample_points(m, 4):
        w = (1.0 + p["x1"] ** 2) ** 2
        want = w**2 / (1.0 + w**2)
        got = tm.at(p)
        assert got[4, 4] == pytest.approx(want, abs=1e-12)
        assert np.abs(got - g.gram_at(p)).max() <= 1e-10


def test_taming_rejects_foreign_grading():
    m, g = heis_grading()
    other = heisenberg_manifold()
    with pytest.raises(ManifoldError):
        taming_metric(other, g)


# ---------------------------------------------------------------------------
# selector


def test_selector_heisenberg_closed_form():
    _, g = heis_grading()
    chi = selector(g)
    assert chi.coefficients[0] == ()
    assert chi.coefficients[1] == ()
    ((a, b, coef),) = chi.coefficients[2]
    assert (a, b) == (0, 1)
    assert coef is expr.rational(1)


def test_selector_metric4_weights():
    m, g = metric4_grading()
    chi = selector(g)
    mat = chi.matrix_at({c: 0.0 for c in m.coords}, 4)
    want = np.zeros((5, 5))
    want[0, 2] = 16.0 / 17.0
    want[2, 0] = -16.0 / 17.0
    want[1, 3] = 1.0 / 17.0
    want[3, 1] = -1.0 / 17.0
    assert np.abs(mat - want).max() <= 1e-12


def test_selector_cartan_closed_form():
    m, g = cartan_grading()
    chi = selector(g)
    p = {c: 0.1 for c in m.coords}
    m2 = chi.matrix_at(p, 2)
    want2 = np.zeros((5, 5))
    want2[0, 1] = 1.0
    want2[1, 0] = -1.0
    assert np.abs(m2 - want2).max() <= 1e-12
    m3 = chi.matrix_at(p, 3)
    want3 = np.zeros((5, 5))
    want3[0, 2] = 1.0
    want3[2, 0] = -1.0
    assert np.abs(m3 - want3).max() <= 1e-12
    m4 = chi.matrix_at(p, 4)
    want4 = np.zeros((5, 5))
    want4[1, 2] = 1.0
    want4[2, 1] = -1.0
    assert np.abs(m4 - want4).max() <= 1e-12


def test_selector_axiom_wedge_degrees():
    for _, g in (heis_grading(), metric4_grading(), cartan_grading()):
        chi = selector(g)
        for t, rows in enumerate(chi.coefficients):
            for a, b, _ in rows:
                assert g.degree_of(a) < g.degree_of(t)
                assert g.degree_of(b) < g.degree_of(t)


def test_selector_anti_bracket_identity():
    # bracketing the selector value reproduces the field, even for a
    # point-dependent metric
    m = varying_lambda_manifold()
    g = left_invariant_grading(m, (4, 1))
    chi = selector(g)
    for p in sample_points(m, 4):
        cg = g.graded_structure_at(p)
        for t in range(g.dim):
            if g.degree_of(t) == 1:
                continue
            mat = chi.matrix_at(p, t)
            recon = 0.5 * np.einsum("ab,abc->c", mat, cg)
            want = np.zeros(g.dim)
            want[t] = 1.0
            for c in g.layer_range(g.degree_of(t)):
                assert recon[c] == pytest.approx(want[c], abs=1e-8)


# ---------------------------------------------------------------------------
# flat connections on group models


def test_flat_connection_heisenberg_torsion_value():
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    t = conn.torsion_at({"x": 0.2, "y": 0.1, "z": -0.3})
    want = np.zeros((3, 3, 3))
    want[0, 1, 2] = -1.0
    want[1, 0, 2] = 1.0
    assert np.abs(t - want).max() <= 1e-12
    assert np.abs(conn.curvature_at({"x": 0.2, "y": 0.1, "z": -0.3})).max() <= 1e-12


def test_flat_connection_compatibility_and_flatness():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        conn = flat_frame_connection(g)
        pts = sample_points(m, 4)
        rep = check_compatible(conn, pts)
        assert rep.compatible and rep.strongly_compatible
        assert max(rep.residual_layers, rep.residual_metric, rep.residual_t_zero) <= 1e-10
        fl = flatness_check(conn, pts)
        assert fl.flat
        assert fl.torsion_residual <= 1e-10 and fl.curvature_residual <= 1e-10


def test_flat_connection_morimoto_conditions():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        conn = flat_frame_connection(g)
        rep = check_morimoto(conn, sample_points(m, 4))
        assert rep.ok
        assert rep.max_residual <= 1e-10


def test_torsion_identity_on_groups():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        conn = flat_frame_connection(g)
        assert torsion_id_residual(conn, sample_points(m, 3)) <= 1e-10


def test_curvature_isometry_residual_flat():
    for m, g in (heis_grading(), metric4_grading()):
        conn = flat_frame_connection(g)
        assert curvature_isometry_residual(conn, sample_points(m, 3)) <= 1e-10


# ---------------------------------------------------------------------------
# negative controls


def _heis_d_perturbed(strength=0.1):
    """Layer- and metric-compatible perturbation along the rotation generator."""
    m, g = heis_grading()
    n = g.dim
    gamma = [[[0.0] * n for _ in range(n)] for _ in range(n)]
    # derivative along the vertical field rotates the horizontal plane
    gamma[2][0][1] = strength
    gamma[2][1][0] = -strength
    return m, g, Connection(g, gamma)


def test_perturbed_connection_still_strongly_compatible():
    m, g, conn = _heis_d_perturbed()
    rep = check_compatible(conn, sample_points(m, 3))
    assert rep.strongly_compatible
    # torsion identity still holds: the extra torsion sits in too-low degree
    assert torsion_id_residual(conn, sample_points(m, 3)) <= 1e-10


def test_perturbed_connection_fails_morimoto():
    m, g, conn = _heis_d_perturbed()
    rep = check_morimoto(conn, sample_points(m, 3))
    assert not rep.ok
    assert rep.residual_r > 1e-3


def test_morimoto_report_honours_tol():
    m, g, conn = _heis_d_perturbed()
    pts = sample_points(m, 3)
    rep = check_morimoto(conn, pts)
    assert rep.residual_r > 1e-3
    assert check_morimoto(conn, pts, tol=10 * rep.residual_r).ok


def test_levi_civita_not_layer_parallel_on_group():
    m, g = heis_grading()
    conn = levi_civita(taming_metric(m, g))
    rep = check_compatible(conn, sample_points(m, 3))
    assert not rep.layers_parallel
    assert rep.residual_layers > 1e-3
    # but it is torsion-free, so the graded torsion identity must fail
    assert torsion_id_residual(conn, sample_points(m, 3)) > 1e-3


def test_levi_civita_metric_rule_curved():
    m = euclidean_manifold(2)
    coords = m.coords
    curved = type(m)(
        coords,
        [f.components for f in m.frames],
        2,
        metric=[["1 + x1^2", "0"], ["0", "1"]],
    )
    g = left_invariant_grading(curved, (2,))
    conn = levi_civita(taming_metric(curved, g))
    pts = sample_points(curved, 4)
    rep = check_compatible(conn, pts)
    assert rep.metric_compatible
    for p in pts:
        assert np.abs(conn.torsion_at(p)).max() <= 1e-10


# ---------------------------------------------------------------------------
# torsion / curvature as field operations


def test_torsion_map_is_tensorial():
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    tmap = torsion(conn)
    x = expr.var("x")
    fx = VectorField(m, [expr.mul(x, c) for c in m.frames[0].components])
    val = tmap(fx, m.frames[1])
    p = {"x": 0.7, "y": -0.3, "z": 0.2}
    got = val.value_at(p)
    want = 0.7 * (-1.0) * m.frames[2].value_at(p)
    assert np.abs(got - want).max() <= 1e-10


def test_curvature_map_zero_on_flat():
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    rmap = curvature(conn)
    x = expr.var("x")
    fx = VectorField(m, [expr.mul(x, c) for c in m.frames[1].components])
    out = rmap(fx, m.frames[0])(m.frames[2])
    p = {"x": 0.4, "y": 0.1, "z": -0.2}
    assert np.abs(out.value_at(p)).max() <= 1e-10


def test_t_zero_heisenberg_sign():
    m, g = heis_grading()
    tz = t_zero(g)
    val = tz(m.frames[0], m.frames[1])
    p = {"x": 0.3, "y": 0.2, "z": 0.6}
    assert np.abs(val.value_at(p) + m.frames[2].value_at(p)).max() <= 1e-12


def test_covariant_derivative_product_rule():
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    x = expr.var("x")
    fy = VectorField(m, [expr.mul(x, c) for c in m.frames[1].components])
    out = conn.covariant_derivative(m.frames[0], fy)
    # flat connection: derivative is X1(x) * X2 = X2
    p = {"x": -0.2, "y": 0.5, "z": 0.1}
    assert np.abs(out.value_at(p) - m.frames[1].value_at(p)).max() <= 1e-12


# ---------------------------------------------------------------------------
# geodesics


def test_geodesic_euclidean_straight_line():
    m = euclidean_manifold(2)
    g = left_invariant_grading(m, (2,))
    conn = flat_frame_connection(g)
    path = normal_geodesic(conn, {"x1": 0.1, "x2": -0.2}, [0.3, 0.4], t_max=1.0, step=0.01)
    t, p, lam, speed = path[-1]
    assert t == pytest.approx(1.0)
    assert p["x1"] == pytest.approx(0.1 + 0.3, abs=1e-12)
    assert p["x2"] == pytest.approx(-0.2 + 0.4, abs=1e-12)
    assert speed == pytest.approx(0.5, abs=1e-12)


def test_geodesic_heisenberg_exact_solution():
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    beta = 0.5
    path = normal_geodesic(conn, {"x": 0.0, "y": 0.0, "z": 0.0}, [1.0, 0.0, beta],
                           t_max=1.0, step=1e-3)
    t, p, lam, speed = path[-1]
    assert p["x"] == pytest.approx(np.sin(beta) / beta, abs=1e-10)
    assert p["y"] == pytest.approx((1.0 - np.cos(beta)) / beta, abs=1e-10)
    assert p["z"] == pytest.approx((beta - np.sin(beta)) / (2 * beta**2), abs=1e-10)
    speeds = [s for (_, _, _, s) in path]
    assert max(abs(s - 1.0) for s in speeds) <= 1e-9


def test_geodesic_speed_constant_curved_metric():
    # Levi-Civita flow on a curved surface conserves the speed
    flat = euclidean_manifold(2)
    m = type(flat)(
        flat.coords,
        [f.components for f in flat.frames],
        2,
        metric=[["1 + x1^2", "0"], ["0", "1"]],
    )
    g = left_invariant_grading(m, (2,))
    conn = levi_civita(taming_metric(m, g))
    path = normal_geodesic(
        conn,
        {"x1": 0.2, "x2": -0.1},
        [0.4, 0.3],
        t_max=1.0,
        step=1e-3,
    )
    speeds = [s for (_, _, _, s) in path]
    assert max(speeds) - min(speeds) <= 1e-8


def test_geodesic_rk4_convergence_order():
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    beta = 0.9

    def endpoint(h):
        path = normal_geodesic(conn, {"x": 0.0, "y": 0.0, "z": 0.0},
                               [1.0, 0.0, beta], t_max=1.0, step=h)
        _, p, _, _ = path[-1]
        return np.array([p["x"], p["y"], p["z"]])

    exact = np.array(
        [
            np.sin(beta) / beta,
            (1.0 - np.cos(beta)) / beta,
            (beta - np.sin(beta)) / (2 * beta**2),
        ]
    )
    e1 = np.abs(endpoint(0.1) - exact).max()
    e2 = np.abs(endpoint(0.05) - exact).max()
    order = np.log2(e1 / e2)
    assert order >= 3.5


def test_geodesic_chart_exit_raises():
    m = euclidean_manifold(2)
    g = left_invariant_grading(m, (2,))
    conn = flat_frame_connection(g)
    with pytest.raises(ManifoldError, match="left the chart"):
        normal_geodesic(
            conn,
            {"x1": 0.0, "x2": 0.0},
            [1.0, 0.0],
            t_max=2.0,
            step=0.01,
            chart_box=[(-1.0, 1.0), (-1.0, 1.0)],
        )
