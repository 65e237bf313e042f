"""Growth (2,3,5) structures: flatness verdicts, Morimoto normalization, and
the invariant characterizations of the intrinsic grading."""

import numpy as np
import pytest
from test_manifold import _six_coordinate_235_chart

from srgeom import expr, g235, manifold, models
from srgeom.connection import Grading, check_morimoto, flatness_check
from srgeom.g235 import (
    _corrected_frame,
    _intrinsic_rows,
    connection_235,
    intrinsic_frame_235,
    morimoto_connection_235,
    morimoto_grading_235,
)
from srgeom.manifold import (
    FramedManifold,
    ManifoldError,
    _default_samples,
    _gauss_jordan,
    _gram_schmidt_horizontal,
    bracket,
    check_constant_symbol,
    frame_combination,
    frame_inverse,
    structure_functions,
)
from srgeom.models import cartan_group_manifold, perturbed_235_manifold


def _pinned_samples(m, count=10, seed=42):
    """The points numpy's ``default_rng(seed)`` draws uniformly in [-0.9, 0.9].

    The perturbed chart's residuals below were pinned at these points, so the
    tests that check them draw them here rather than through
    ``_default_samples``.
    """
    lows, highs = np.full(m.dim, -0.9), np.full(m.dim, 0.9)
    rows = np.random.default_rng(seed).uniform(lows, highs, size=(count, m.dim))
    return [m.point(row) for row in rows]


def _chart(m, pts):
    return m, pts, intrinsic_frame_235(m, sample_points=pts)


@pytest.fixture(scope="module")
def cartan():
    m = cartan_group_manifold()
    return _chart(m, _default_samples(m)[:3])


@pytest.fixture(scope="module")
def perturbed():
    m = perturbed_235_manifold(0.1)
    return _chart(m, _pinned_samples(m)[:3])


def test_cartan_has_constant_symbol(cartan):
    m, pts, _ = cartan
    assert check_constant_symbol(m, pts).constant


def test_each_grading_is_returned_and_each_connection_keeps_it(cartan):
    m, pts, g = cartan
    assert type(g) is Grading and connection_235(g).grading is g
    morimoto = morimoto_grading_235(m, sample_points=pts)
    assert type(morimoto) is Grading and morimoto_connection_235(morimoto).grading is morimoto


def test_cartan_adapted_connection_is_flat(cartan):
    _, pts, g = cartan
    rep = flatness_check(connection_235(g), pts)
    assert rep.flat
    assert max(rep.torsion_residual, rep.curvature_residual) <= 1e-8


def test_cartan_morimoto_connection_is_flat_and_normalized(cartan):
    m, pts, _ = cartan
    conn = morimoto_connection_235(morimoto_grading_235(m, sample_points=pts))
    rep = flatness_check(conn, pts)
    assert rep.flat
    assert max(rep.torsion_residual, rep.curvature_residual) <= 1e-8
    assert check_morimoto(conn, pts).ok


def test_perturbed_adapted_connection_is_not_flat(perturbed):
    _, pts, g = perturbed
    rep = flatness_check(connection_235(g), pts)
    assert not rep.flat
    assert rep.torsion_residual == pytest.approx(0.07295747671501576, abs=1e-10)
    assert rep.curvature_residual == pytest.approx(0.09683132718135146, abs=1e-10)


def test_perturbed_morimoto_connection_is_normalized_but_not_flat():
    m = perturbed_235_manifold(0.1)
    pts = _pinned_samples(m)
    conn = morimoto_connection_235(morimoto_grading_235(m, sample_points=pts))
    assert check_morimoto(conn, pts).ok
    rep = flatness_check(conn, pts)
    assert not rep.flat
    assert rep.torsion_residual == pytest.approx(0.054897400767521844, abs=1e-10)
    assert rep.curvature_residual == pytest.approx(0.04495192438719752, abs=1e-10)


def _assert_form_characterization(m, pts, g):
    # theta is the coframe member dual to Z: d theta(X_e, .) kills Z and the
    # degree -3 layer, and theta([X_1, X_2]) = 1
    c = g.structure_functions()
    for p in pts:
        p = m.point(p)
        for e in range(2):
            for b in range(2, 5):
                assert abs(expr.evaluate(c[e][b][2], p)) <= 1e-12
        assert abs(expr.evaluate(c[0][1][2], p) - 1.0) <= 1e-12


@pytest.mark.parametrize("chart", ["cartan", "perturbed"])
def test_grading_satisfies_form_characterization(chart, request):
    _assert_form_characterization(*request.getfixturevalue(chart))


def _span_projector(fields, p):
    w = np.column_stack([f.value_at(p) for f in fields])
    return w @ np.linalg.pinv(w)


def _rotated_frame(m):
    """Cartan's orthonormal horizontal frame rotated by the angle x4/3."""
    e1, e2 = (frame_combination(m, m.frames[:2], row) for row in _gram_schmidt_horizontal(m))
    phi = expr.mul(expr.rational(1, 3), expr.var("x4"))
    cs, sn = expr.cos(phi), expr.sin(phi)
    return frame_combination(m, (e1, e2), (cs, sn)), frame_combination(m, (e1, e2), (expr.neg(sn), cs))


def test_fields_do_not_depend_on_horizontal_frame(cartan):
    m, pts, g = cartan
    rotated = intrinsic_frame_235(m, *_rotated_frame(m), sample_points=pts)
    for p in pts:
        p = m.point(p)
        z, rotated_z = g.fields[2], rotated.fields[2]
        assert np.abs(rotated_z.value_at(p) - z.value_at(p)).max() <= 1e-12
        moved = _span_projector(rotated.fields[3:], p) - _span_projector(g.fields[3:], p)
        assert np.abs(moved).max() <= 1e-12
    _assert_form_characterization(m, pts, rotated)
    rep = flatness_check(connection_235(rotated), pts)
    assert rep.flat
    assert max(rep.torsion_residual, rep.curvature_residual) <= 1e-8


def _layer_projectors(g, p):
    return [
        _span_projector([g.fields[a] for a in g.layer_range(k)], p)
        for k in range(1, g.step + 1)
    ]


def _layer_moves(m, pts, intrinsic):
    """Per point, how far each Morimoto layer lies from the intrinsic one."""
    g = morimoto_grading_235(m, sample_points=pts)
    moves = []
    for p in pts:
        p = m.point(p)
        moves.append([
            np.abs(a - b).max()
            for a, b in zip(_layer_projectors(g, p), _layer_projectors(intrinsic, p))
        ])
    return g, moves


def test_morimoto_layers_are_intrinsic_on_the_model(cartan):
    # the degree -3 frames differ by the rotation D, so compare spans
    g, moves = _layer_moves(*cartan)
    assert max(max(row) for row in moves) <= 1e-12
    assert morimoto_connection_235(g).grading is g


def test_morimoto_degree_two_layer_moves_off_the_model(perturbed):
    _, moves = _layer_moves(*perturbed)
    assert all(row[1] > 1e-3 for row in moves)


@pytest.mark.parametrize("chart", ["cartan", "perturbed", "rotated-cartan"])
def test_installed_coframe_inverts_the_frame(chart, request):
    # the coframe and structure functions a derived frame takes from its
    # coefficient rows are the inverse of its frame matrix and the frame
    # components of its brackets, for the bracket frame and the intrinsic and
    # Morimoto gradings; the brackets are taken at the coordinate level and
    # solved numerically at each point
    m, pts, _ = request.getfixturevalue(chart.removeprefix("rotated-"))
    x1, x2 = _rotated_frame(m) if chart == "rotated-cartan" else (None, None)
    bracket_frame, _ = _intrinsic_rows(m, x1, x2, pts)
    intrinsic = intrinsic_frame_235(m, x1, x2, sample_points=pts)
    for derived in (bracket_frame, intrinsic.frame, morimoto_grading_235(m, x1, x2, sample_points=pts).frame):
        ctab = structure_functions(derived)
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        tables = (
            frame_inverse(derived),
            [ctab[i][j] for i, j in pairs],
            [bracket(derived.frames[i], derived.frames[j]).components for i, j in pairs],
        )
        points = [derived.point(p) for p in pts]
        fmats = derived.frame_matrices_at(points)
        for fmat, coframe, got, brackets in zip(fmats, *expr.evaluate_tables(tables, points)):
            assert np.abs(coframe @ fmat - np.eye(5)).max() <= 1e-12
            want = np.linalg.solve(fmat, brackets.T).T
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("chart", ["cartan", "perturbed", "rotated-cartan"])
def test_brackets_with_z_pair_with_the_rotated_lifts_as_on_the_model(chart, request):
    # In the intrinsic frame with its lifts rotated to -Y_2, Y_1, the degree
    # -3 components of [X_e, Z] are row e of the model's [[0, 1], [-1, 0]] at
    # every point.  So Morimoto's normalization operator is constant in this
    # frame, and the canonical grading reads its corrections off structure
    # functions instead of solving for them.
    m, pts, _ = request.getfixturevalue(chart.removeprefix("rotated-"))
    x1, x2 = _rotated_frame(m) if chart == "rotated-cartan" else (None, None)
    c = structure_functions(_corrected_frame(*_intrinsic_rows(m, x1, x2, pts)))
    (values,) = expr.evaluate_tables(([[c[e][2][k] for k in (3, 4)] for e in range(2)],), [m.point(p) for p in pts])
    assert np.abs(values - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() <= 1e-12


def test_canonical_grading_solves_nothing_but_frame_inverses(monkeypatch):
    # Every Gauss-Jordan elimination the grading runs is the inverse of a
    # frame's rows, [A | I] with n columns of A: its corrections are read off
    # structure functions, not solved from symbolic linear systems.
    inverses = []

    def checked(rows, n):
        identity = [[expr.ONE if r == k else expr.ZERO for k in range(n)] for r in range(n)]
        assert len(rows) == n and [list(row[n:]) for row in rows] == identity
        inverses.append(n)
        return _gauss_jordan(rows, n)

    for module in (manifold, g235):
        if hasattr(module, "_gauss_jordan"):
            monkeypatch.setattr(module, "_gauss_jordan", checked)
    m = perturbed_235_manifold(0.1)
    morimoto_grading_235(m, sample_points=_pinned_samples(m)[:3])
    assert inverses


def test_the_chart_under_each_grading_carries_the_declared_metric(perturbed):
    # raux, the chart under both gradings, has the chart's horizontal fields;
    # it was declared with the identity metric, not 1 + 0.1*x4^2
    m, pts, intrinsic = perturbed
    for g in (intrinsic, morimoto_grading_235(m, sample_points=pts)):
        got = g.frame.chart.metric
        assert len(got) == len(m.metric) == 2
        assert all(a is b for row, want in zip(got, m.metric, strict=True) for a, b in zip(row, want, strict=True))


def test_bracket_frame_is_derived_over_the_brackets_of_the_declared_fields():
    # Cartan's horizontal fields with vertical fields that are not their
    # brackets: reading the bracket frame through this chart's coframe, not
    # through raux's, grew the pool from about 3,700 to 648,428 nodes
    c = cartan_group_manifold()
    x3, x4, x5 = c.frames[2:]
    x1, x2 = expr.var("x1"), expr.var("x2")
    vertical = [
        frame_combination(c, pair, (expr.ONE, factor))
        for pair, factor in (((x3, x4), x2), ((x4, x5), x1), ((x5, x3), expr.mul(x1, x2)))
    ]
    m = FramedManifold(
        c.coords,
        [f.components for f in (*c.frames[:2], *vertical)],
        2,
        metric=[["1 + 0.2*x4^2", "0"], ["0", "1"]],
        structure_class="two-three-five",
    )
    pts = _default_samples(m, count=4)
    before = len(expr._POOL)
    conn = morimoto_connection_235(morimoto_grading_235(m, sample_points=pts))
    assert check_morimoto(conn, pts).ok
    assert not flatness_check(conn, pts).flat
    assert len(expr._POOL) - before < 20_000


def _chart_235(x2_components):
    """Declared (2,3,5): X_1 = d/dx1 and the given X_2, completed by d/dx3, d/dx4, d/dx5."""
    rows = [[int(i == j) for j in range(5)] for i in range(5)]
    rows[1] = list(x2_components)
    return FramedManifold(("x1", "x2", "x3", "x4", "x5"), rows, 2, structure_class="two-three-five")


@pytest.mark.parametrize(
    "chart,points,message",
    [
        (models.heisenberg_manifold, [(0.1, 0.2, 0.3)], "not declared"),
        # [X_2, [X_1, X_2]] = 0 everywhere: flag (2, 3, 4)
        (lambda: _chart_235(["0", "1", "x1", "x1^2/2", "0"]), [(0.1, 0.2, 0.3, 0.4, 0.5)], "growth"),
        # [X_2, [X_1, X_2]] = x3 d/dx5: flag (2, 3, 5) at the first point, (2, 3, 4) at the second
        (
            lambda: _chart_235(["0", "1", "x1", "x1^2/2", "x1*x2*x3"]),
            [(0.1, 0.2, 0.3, 0.4, 0.5), (0.3, -0.2, 0.0, 0.1, 0.2)],
            r"growth \(2,3,5\) at every sample point: flags \[\(2, 3, 4\), \(2, 3, 5\)\]",
        ),
        # flag (2, 3, 5) at every point of a 6-dimensional chart
        (
            _six_coordinate_235_chart,
            [(0.1, 0.2, 0.3, 0.4, 0.5, 0.6)],
            "^two-three-five structure needs rank 2 in dimension 5, got rank 2 in dimension 6$",
        ),
    ],
    ids=["heisenberg", "flag-234", "flag-234-at-second-point", "six-coordinates"],
)
def test_235_constructions_refuse_through_the_verdict(chart, points, message):
    m = chart()
    for construct in (intrinsic_frame_235, morimoto_grading_235):
        with pytest.raises(ManifoldError, match=message):
            construct(m, sample_points=points)
