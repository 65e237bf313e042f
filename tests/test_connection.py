import functools
import itertools

import numpy as np
import pytest

from srgeom import expr
from srgeom.connection import (
    Connection,
    Grading,
    check_compatible,
    check_morimoto,
    flat_frame_connection,
    flatness_check,
    selector,
)
from srgeom.contact import extract_contact_data, morimoto_grading_contact
from srgeom.lie import heisenberg
from srgeom.manifold import FramedManifold, ManifoldError, VectorField, _Frame, bracket, frame_combination, frame_inverse
from srgeom.models import (
    carnot_group_manifold,
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
    return m, Grading(m, (2, 1))


def metric4_grading():
    m = heisenberg_metric4_manifold()
    return m, Grading(m, (4, 1))


def cartan_grading():
    m = cartan_group_manifold()
    return m, Grading(m, (2, 1, 2))


def t_zero_table(g):
    """Degree-0 torsion in the adapted frame, as Expr entries: entry [i][j][k] is
    the negated structure function c_ij^k where deg k = deg i + deg j, else 0."""
    c, deg, n = g.structure_functions(), g.degrees, g.dim
    return [
        [[expr.neg(c[i][j][k]) if deg[k] == deg[i] + deg[j] else expr.ZERO for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def graded_structure_at(g, p):
    """Structure functions at a point, restricted to exact-degree targets."""
    return -expr.evaluate_array(t_zero_table(g), g.frame.point(p))


def symbols_at(g, points):
    """The symbol at each point, as the checks of a connection on ``g`` read it."""
    return flat_frame_connection(g)._at(points).symbols


def taming_at(g, p):
    return expr.evaluate_array(selector(g).metric, g.frame.point(p))


def selector_matrix_at(chi, p, index):
    """Antisymmetric wedge-coefficient matrix of the selector's value on one field."""
    values = expr.evaluate_array(chi.table(), p)
    return chi.matrices(values[None])[0, index]


# ---------------------------------------------------------------------------
# gradings


def test_grading_validates_on_groups():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        assert g.validate(sample_points(m, 4)) <= 1e-9


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_flat_verdict_does_not_depend_on_metric_scale(scale):
    # the positive-definiteness test of a Gram matrix is relative to its
    # largest eigenvalue, so a small metric is not refused
    h = heisenberg_manifold()
    metric = [[expr.floatc(scale) if i == j else expr.ZERO for j in range(2)] for i in range(2)]
    m = FramedManifold(h.coords, [f.components for f in h.frames], 2, metric=metric,
                       structure_class="contact")
    g = Grading(m, (2, 1))
    assert flatness_check(flat_frame_connection(g), sample_points(m, 3)).flat


def test_grading_rejects_wrong_layer_sizes():
    m = heisenberg_manifold()
    with pytest.raises(ManifoldError):
        Grading(m, (1, 2))


@pytest.mark.parametrize("dims", [(2, -1, 2), (2, 0, 1), (2, 1.0), (2, True), (True, True, 1)])
def test_grading_refuses_a_layer_size_that_is_not_a_positive_integer(dims):
    # (2, -1, 2) gave 4 degrees on a 3-field frame and (2, 0, 1) an empty
    # layer, both refused only later as "not symbolically invertible";
    # (2, 1.0) raised a TypeError
    m = heisenberg_manifold()
    with pytest.raises(ManifoldError, match="positive integers"):
        Grading(m, dims)


def _zeros(*shape):
    return [_zeros(*shape[1:]) for _ in range(shape[0])] if len(shape) > 1 else [expr.ZERO] * shape[0]


@pytest.mark.parametrize(
    "gamma",
    [_zeros(2, 3, 3), _zeros(4, 3, 3), [_zeros(3, 3), _zeros(2, 3), _zeros(3, 3)], [_zeros(3, 3), _zeros(3, 4), _zeros(3, 3)]],
    ids=["short", "long", "short-row", "wide"],
)
def test_connection_refuses_a_table_that_is_not_n_by_n_by_n(gamma):
    _, g = heis_grading()
    with pytest.raises(ManifoldError, match="must be 3x3x3"):
        Connection(g, gamma)


def test_grading_bad_complement_has_large_residual():
    m = heisenberg_manifold()
    # second "horizontal" field replaced by the vertical one: not inside E
    swap = [[expr.ONE if b == a else expr.ZERO for b in range(3)] for a in (0, 2, 1)]
    g = Grading(_Frame(m, swap), (2, 1))
    assert g.validate(sample_points(m, 2)) > 1e-3


def test_graded_structure_heisenberg():
    m, g = heis_grading()
    cg = graded_structure_at(g, {"x": 0.3, "y": -0.2, "z": 0.1})
    want = np.zeros((3, 3, 3))
    want[0, 1, 2] = 1.0
    want[1, 0, 2] = -1.0
    assert np.abs(cg - want).max() <= 1e-12


def test_symbol_algebra_matches_lie_model():
    m, g = cartan_grading()
    (alg,) = symbols_at(g, [{c: 0.2 for c in m.coords}])
    assert alg.layer_dims == (2, 1, 2)
    assert alg.jacobi_residual() <= 1e-12


def test_symbols_are_shared_only_when_bitwise_equal():
    # the bracket constant of conformal h_1 is exactly 1: its structure
    # function exp(-x)·sqrt(exp(2x)) folds to ONE, so every point, x = -0.161
    # included, has the one symbol
    g = morimoto_grading_contact(extract_contact_data(conformal_heisenberg_manifold()))
    pts = [{"x": x, "y": 0.0, "z": 0.0} for x in (-0.8, -0.3, 0.0, 0.3, 0.5, -0.161)]
    assert len({id(s) for s in symbols_at(g, pts)}) == 1
    # with the metric weight 1 + x² it is (1 + x²)^-1·sqrt((1 + x²)^2), 1 up
    # to a rounding that depends on x: it is 1.0 at the first five points and
    # 0.9999999999999999 at x = 0.68, so the six points have two
    # bitwise-distinct symbols
    w = expr.add(1, expr.pow_(expr.var("x"), 2))
    m = carnot_group_manifold(
        heisenberg((1,)), coords=("x", "y", "z"),
        metric=[[w, expr.ZERO], [expr.ZERO, w]], structure_class="contact",
    )
    g = morimoto_grading_contact(extract_contact_data(m))
    pts = [{"x": x, "y": 0.0, "z": 0.0} for x in (-0.8, -0.3, 0.0, 0.3, 0.5, 0.68)]
    syms = symbols_at(g, pts)
    assert len({id(s) for s in syms[:5]}) == 1
    assert len({id(s) for s in syms}) == 2
    for s, t in itertools.combinations(syms, 2):
        equal = s.brackets == t.brackets and s.metric1.tobytes() == t.metric1.tobytes()
        assert (s is t) == equal
    # a later call gets the same objects
    assert symbols_at(g, pts[::-1]) == syms[::-1]
    # a flat chart has one symbol
    _, g = heis_grading()
    flat = symbols_at(g, [{"x": 0.1 * k, "y": -0.05 * k, "z": 0.3} for k in range(20)])
    assert len({id(s) for s in flat}) == 1


# ---------------------------------------------------------------------------
# taming metric


def test_taming_euclidean_is_identity():
    m = euclidean_manifold(2)
    g = Grading(m, (2,))
    assert np.abs(taming_at(g, {"x1": 0.2, "x2": -0.4}) - np.eye(2)).max() == 0.0


def test_taming_heisenberg_layer_norms():
    m, g = heis_grading()
    assert np.abs(taming_at(g, {"x": 0.1, "y": 0.2, "z": 0.3}) - np.eye(3)).max() <= 1e-12


def test_taming_metric4_vertical_norm():
    m, g = metric4_grading()
    got = taming_at(g, {c: 0.0 for c in m.coords})
    want = np.diag([1.0, 4.0, 1.0, 4.0, 16.0 / 17.0])
    assert np.abs(got - want).max() <= 1e-12


def test_taming_cartan_all_orthonormal():
    m, g = cartan_grading()
    for p in sample_points(m, 3):
        assert np.abs(taming_at(g, p) - np.eye(5)).max() <= 1e-12


def test_taming_matches_pointwise_symbol():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        pts = sample_points(m, 3)
        for p, sym in zip(pts, symbols_at(g, pts)):
            assert np.abs(taming_at(g, p) - sym.full_gram()).max() <= 1e-10


def test_taming_varying_metric_is_symbolic():
    m = varying_lambda_manifold()
    g = Grading(m, (4, 1))
    pts = sample_points(m, 4)
    for p, sym in zip(pts, symbols_at(g, pts)):
        w = (1.0 + p["x1"] ** 2) ** 2
        want = w**2 / (1.0 + w**2)
        got = taming_at(g, p)
        assert got[4, 4] == pytest.approx(want, abs=1e-12)
        assert np.abs(got - sym.full_gram()).max() <= 1e-10


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
    mat = selector_matrix_at(chi, {c: 0.0 for c in m.coords}, 4)
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
    m2 = selector_matrix_at(chi, p, 2)
    want2 = np.zeros((5, 5))
    want2[0, 1] = 1.0
    want2[1, 0] = -1.0
    assert np.abs(m2 - want2).max() <= 1e-12
    m3 = selector_matrix_at(chi, p, 3)
    want3 = np.zeros((5, 5))
    want3[0, 2] = 1.0
    want3[2, 0] = -1.0
    assert np.abs(m3 - want3).max() <= 1e-12
    m4 = selector_matrix_at(chi, p, 4)
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
    g = Grading(m, (4, 1))
    chi = selector(g)
    for p in sample_points(m, 4):
        cg = graded_structure_at(g, p)
        for t in range(g.dim):
            if g.degree_of(t) == 1:
                continue
            mat = selector_matrix_at(chi, p, t)
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


def graded_torsion_residual(conn, points):
    """How far the torsion is from the degree-0 torsion on fields of degrees
    i and j: its degree-(i+j) part must equal T₀ and every part of higher
    degree vanish."""
    g = conn.grading
    deg = np.array(g.degrees)
    target = (deg[:, None] + deg[None, :])[:, :, None]  # [i, j, 0]: deg i + deg j
    worst = 0.0
    for p in points:
        tors = conn.torsion_at(p)
        tz = expr.evaluate_array(t_zero_table(g), g.frame.point(p))
        worst = max(
            worst,
            np.abs(tors - tz)[deg == target].max(),
            np.abs(tors)[deg > target].max(initial=0.0),
        )
    return worst


def test_torsion_identity_on_groups():
    for m, g in (heis_grading(), metric4_grading(), cartan_grading()):
        conn = flat_frame_connection(g)
        assert graded_torsion_residual(conn, sample_points(m, 3)) <= 1e-10


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
    assert graded_torsion_residual(conn, sample_points(m, 3)) <= 1e-10


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
    # the Levi-Civita connection of the Heisenberg taming metric (the
    # identity in the frame X, Y, [X, Y]), from the Koszul formula
    # <∇_i W_j, W_k> = (c_ij^k - c_jk^i + c_ki^j) / 2 with c_12^3 = 1
    m, g = heis_grading()
    half = expr.rational(1, 2)
    gamma = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][1][2] = gamma[1][2][0] = gamma[2][1][0] = half
    gamma[1][0][2] = gamma[0][2][1] = gamma[2][0][1] = expr.neg(half)
    conn = Connection(g, gamma)
    pts = sample_points(m, 3)
    rep = check_compatible(conn, pts)
    assert rep.metric_compatible
    assert not rep.layers_parallel
    assert rep.residual_layers > 1e-3
    # but it is torsion-free, so the graded torsion identity must fail
    assert max(np.abs(conn.torsion_at(p)).max() for p in pts) <= 1e-12
    assert graded_torsion_residual(conn, pts) > 1e-3


def test_levi_civita_metric_rule_curved():
    m = euclidean_manifold(2)
    coords = m.coords
    curved = type(m)(
        coords,
        [f.components for f in m.frames],
        2,
        metric=[["1 + x1^2", "0"], ["0", "1"]],
    )
    g = Grading(curved, (2,))
    # coordinate frame with g_11 = 1 + x1^2: the only Christoffel symbol is
    # Γ_11^1 = ∂_1 g_11 / (2 g_11)
    x1 = expr.var("x1")
    gamma = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    gamma[0][0][0] = expr.div(x1, expr.add(expr.ONE, expr.mul(x1, x1)))
    conn = Connection(g, gamma)
    pts = sample_points(curved, 4)
    rep = check_compatible(conn, pts)
    assert rep.metric_compatible
    for p in pts:
        assert np.abs(conn.torsion_at(p)).max() <= 1e-10


# ---------------------------------------------------------------------------
# torsion / curvature from the covariant derivative of vector fields


def covariant_derivative(conn, x, y):
    """∇_x y as a vector field: x^i (W_i(y^k) + y^j Γ_ij^k) W_k in the adapted frame W."""
    g = conn.grading
    n = g.dim
    coframe = frame_inverse(g.frame)

    def components(v):
        return [
            expr.add(*[expr.mul(coframe[i][a], v.components[a]) for a in range(n)])
            for i in range(n)
        ]

    xs, ys = components(x), components(y)
    out = [
        expr.add(
            *[expr.mul(xs[i], g.fields[i].apply(ys[k])) for i in range(n)],
            *[expr.mul(xs[i], ys[j], conn.gamma[i][j][k]) for i in range(n) for j in range(n)],
        )
        for k in range(n)
    ]
    return frame_combination(g.frame.chart, g.fields, out)


def _difference(conn, a, b, c):
    """The vector field a - b - c."""
    return frame_combination(conn.grading.frame.chart, (a, b, c), (expr.ONE, expr.MINUS_ONE, expr.MINUS_ONE))


def torsion_field(conn, x, y):
    return _difference(conn, covariant_derivative(conn, x, y), covariant_derivative(conn, y, x), bracket(x, y))


def curvature_field(conn, x, y, w):
    nabla = functools.partial(covariant_derivative, conn)
    return _difference(conn, nabla(x, nabla(y, w)), nabla(y, nabla(x, w)), nabla(bracket(x, y), w))


def test_covariant_derivative_product_rule():
    # the oracle above obeys ∇_X (f Y) = X(f) Y + f ∇_X Y
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    x = expr.var("x")
    fy = VectorField(m, [expr.mul(x, c) for c in m.frames[1].components])
    out = covariant_derivative(conn, m.frames[0], fy)
    # flat connection: derivative is X1(x) * X2 = X2
    p = {"x": -0.2, "y": 0.5, "z": 0.1}
    assert np.abs(out.value_at(p) - m.frames[1].value_at(p)).max() <= 1e-12


def test_torsion_map_is_tensorial():
    # T(x X, Y) from the covariant derivative is x T(X, Y), and its frame
    # components are those of torsion_at
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    x = expr.var("x")
    fx = VectorField(m, [expr.mul(x, c) for c in m.frames[0].components])
    val = torsion_field(conn, fx, m.frames[1])
    p = {"x": 0.7, "y": -0.3, "z": 0.2}
    got = val.value_at(p)
    want = 0.7 * (-1.0) * m.frames[2].value_at(p)
    assert np.abs(got - want).max() <= 1e-10
    frame = g.frame.frame_matrix_at(g.frame.point(p))
    assert np.abs(got - 0.7 * frame @ conn.torsion_at(p)[0, 1]).max() <= 1e-10


def test_curvature_map_zero_on_flat():
    m, g = heis_grading()
    conn = flat_frame_connection(g)
    x = expr.var("x")
    fx = VectorField(m, [expr.mul(x, c) for c in m.frames[1].components])
    out = curvature_field(conn, fx, m.frames[0], m.frames[2])
    p = {"x": 0.4, "y": 0.1, "z": -0.2}
    assert np.abs(out.value_at(p)).max() <= 1e-10


def test_curvature_at_equals_the_field_curvature():
    # on a coordinate-dependent Γ the frame components of R(W_i, W_j) W_k
    # from the covariant derivative of fields are those of curvature_at
    m, g = heis_grading()
    x, y, z = (expr.var(c) for c in m.coords)
    gamma = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][1][0] = expr.mul(expr.floatc(0.5), y)
    gamma[1][0][2] = expr.mul(x, z)
    gamma[2][1][1] = expr.sin(x)
    gamma[2][0][1] = expr.neg(y)
    conn = Connection(g, gamma)
    p = {"x": 0.4, "y": 0.3, "z": -0.2}
    frame = g.frame.frame_matrix_at(g.frame.point(p))
    want = conn.curvature_at(p)
    assert np.abs(want).max() > 1e-3
    for i, j, k in itertools.product(range(3), repeat=3):
        got = curvature_field(conn, g.fields[i], g.fields[j], g.fields[k]).value_at(p)
        assert np.abs(got - frame @ want[i, j, k]).max() <= 1e-10


def test_t_zero_heisenberg_sign():
    # T₀(X, Y) = -[X, Y] on the Heisenberg frame
    m, g = heis_grading()
    tz = expr.evaluate_array(t_zero_table(g), {"x": 0.3, "y": 0.2, "z": 0.6})
    want = np.zeros((3, 3, 3))
    want[0, 1, 2] = -1.0
    want[1, 0, 2] = 1.0
    assert np.abs(tz - want).max() <= 1e-12
