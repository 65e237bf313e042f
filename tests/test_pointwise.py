"""Torsion, curvature and the derivative of the degree-0 torsion evaluated
from point values, against the symbolic tables they replace on the verdict
path."""

import numpy as np
import pytest

from srgeom import connection, expr, models
from srgeom.connection import (
    Connection,
    _t_zero_derivatives,
    check_compatible,
    check_morimoto,
    flat_frame_connection,
    flatness_check,
    left_invariant_grading,
    levi_civita,
    normal_geodesic,
    taming_metric,
)
from srgeom.contact import (
    extract_contact_data,
    morimoto_connection_contact,
    morimoto_grading_contact,
)
from srgeom.g235 import morimoto_connection_235, morimoto_grading_235
from srgeom.lie import heisenberg
from srgeom.manifold import (
    _default_samples,
    _gram_schmidt_horizontal,
    check_constant_symbol,
)


def _conformal_h2():
    """h_2(1, 1) with its metric rescaled by exp(x1): curved, constant symbol."""
    scale = expr.exp(expr.var("x1"))
    metric = [[scale if i == j else expr.ZERO for j in range(4)] for i in range(4)]
    return models.carnot_group_manifold(
        heisenberg((1, 1)), metric=metric, structure_class="contact"
    )


def _contact_grading(m):
    cd = extract_contact_data(m)
    return cd, morimoto_grading_contact(cd)


def _contact_connection(m):
    return morimoto_connection_contact(*_contact_grading(m))


def _rotated_cartan_connection():
    """Morimoto connection of Cartan's chart with the frame rotated by x4/3."""
    m = models.cartan_group_manifold()
    e1, e2 = _gram_schmidt_horizontal(m)
    phi = expr.mul(expr.rational(1, 3), expr.var("x4"))
    cs, sn = expr.cos(phi), expr.sin(phi)
    x1 = e1.scaled(cs) + e2.scaled(sn)
    x2 = e2.scaled(cs) - e1.scaled(sn)
    pts = _default_samples(m)[:3]
    return morimoto_connection_235(morimoto_grading_235(m, x1, x2, sample_points=pts)), pts


def _perturbed_235_connection():
    m = models.perturbed_235_manifold(0.1)
    pts = _default_samples(m)[:3]
    return morimoto_connection_235(morimoto_grading_235(m, sample_points=pts)), pts


def _contact_chart(build):
    def make():
        m = build()
        return _contact_connection(m), _default_samples(m, count=3, seed=5)

    return make


CHARTS = {
    "conformal-h1": _contact_chart(models.conformal_heisenberg_manifold),
    "conformal-h2": _contact_chart(_conformal_h2),
    "perturbed-235": _perturbed_235_connection,
    "rotated-cartan": _rotated_cartan_connection,
}


def _assert_close(got, want):
    """Equal within 1e-12 relative to the size of ``want`` (at least 1)."""
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_tensors_from_values_equal_symbolic_tables(chart):
    conn, pts = CHARTS[chart]()
    sizes = []
    for p in pts:
        want_r = expr.evaluate_array(conn.curvature_tensor(), p)
        want_t = expr.evaluate_array(conn.torsion_tensor(), p)
        _assert_close(conn.curvature_at(p), want_r)
        _assert_close(conn.torsion_at(p), want_t)
        sizes.append(np.abs(want_t).max())
    # torsion holds the structure functions, so the comparison is not of zeros
    assert min(sizes) > 0.1


def _symbolic_t_zero_derivative(conn):
    """(∇_i T₀)[j][k][l] as an n⁴ table of expressions."""
    g = conn.grading
    n = g.dim
    tz = g.t_zero_tensor()
    gam = conn.gamma
    return [
        [
            [
                [
                    expr.add(
                        g.fields[i].apply(tz[j][k][l]),
                        *[
                            term
                            for m in range(n)
                            for term in (
                                expr.mul(tz[j][k][m], gam[i][m][l]),
                                expr.neg(expr.mul(gam[i][j][m], tz[m][k][l])),
                                expr.neg(expr.mul(gam[i][k][m], tz[j][m][l])),
                            )
                        ],
                    )
                    for l in range(n)
                ]
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize(
    "build", [models.conformal_heisenberg_manifold, _conformal_h2], ids=["h1", "h2"]
)
def test_t_zero_derivative_from_values_equals_symbolic(build):
    # the Levi-Civita connection of the taming metric does not keep the
    # degree-0 torsion parallel, so the compared tensor is not zero
    m = build()
    _, params = _contact_grading(m)
    conn = levi_civita(taming_metric(m, params.grading))
    table = _symbolic_t_zero_derivative(conn)
    for p in _default_samples(m, count=3, seed=5):
        want = expr.evaluate_array(table, p)
        assert np.abs(want).max() > 0.1
        _assert_close(next(_t_zero_derivatives(conn, [p]))[-1], want)


def _no_full_curvature_table(self):
    raise AssertionError("the verdict path built the full symbolic curvature table")


@pytest.mark.parametrize(
    "build, flat",
    [(models.conformal_heisenberg_manifold, False), (models.heisenberg_metric4_manifold, True)],
    ids=["conformal-h1", "flat-h2"],
)
def test_contact_verdicts_without_full_curvature_table(build, flat, monkeypatch):
    monkeypatch.setattr(Connection, "curvature_tensor", _no_full_curvature_table)
    m = build()
    pts = _default_samples(m, count=3, seed=5)
    assert check_constant_symbol(m, pts).constant
    conn = _contact_connection(m)
    assert check_morimoto(conn, pts, tol=1e-6).ok
    assert flatness_check(conn, pts).flat is flat


def test_235_verdicts_without_full_curvature_table(monkeypatch):
    monkeypatch.setattr(Connection, "curvature_tensor", _no_full_curvature_table)
    m = models.cartan_group_manifold()
    pts = _default_samples(m)[:3]
    assert check_constant_symbol(m, pts).constant
    conn = morimoto_connection_235(morimoto_grading_235(m, sample_points=pts))
    assert check_morimoto(conn, pts).ok
    assert flatness_check(conn, pts).flat


def _cartan_connection(pts):
    m = models.cartan_group_manifold()
    return morimoto_connection_235(morimoto_grading_235(m, sample_points=pts))


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def check_constant_symbol_of_base(conn, points):
    return check_constant_symbol(conn.grading.base, points)


def validate_grading(conn, points):
    return conn.grading.validate(points)


@pytest.mark.parametrize(
    "build", [models.conformal_heisenberg_manifold, models.cartan_group_manifold],
    ids=["conformal-h1", "cartan"],
)
def test_each_check_walks_its_tables_once_for_all_points(build, monkeypatch):
    m = build()
    if m.structure_class == "contact":
        conn = _contact_connection(m)
    else:
        conn = _cartan_connection(_default_samples(m)[:3])
    calls = _count_calls(monkeypatch, expr, "evaluate_tables")
    checks = (
        check_compatible,
        check_morimoto,
        flatness_check,
        check_constant_symbol_of_base,
        validate_grading,
    )
    for k, check in enumerate(checks):
        counts = []
        for count in (5, 20):
            calls.clear()
            # fresh points, so no pointwise cache answers for them
            check(conn, _default_samples(m, count=count, seed=100 * k + count))
            counts.append(len(calls))
        assert 0 < counts[0] == counts[1], (check.__name__, counts)


@pytest.mark.parametrize(
    "build", [models.heisenberg_metric4_manifold, models.cartan_group_manifold],
    ids=["flat-h2", "cartan"],
)
def test_selector_is_solved_once_per_pipeline(build, monkeypatch):
    m = build()
    pts = _default_samples(m, count=3, seed=5)
    calls = _count_calls(monkeypatch, connection, "taming_metric")
    if m.structure_class == "contact":
        conn = _contact_connection(m)
    else:
        conn = _cartan_connection(pts)
    assert check_morimoto(conn, pts, tol=1e-6).ok
    assert flatness_check(conn, pts).flat
    assert len(calls) == 1


def test_geodesic_evaluates_once_per_stage(monkeypatch):
    # each RK4 stage reads Γ, c, the metric and the frame in one call; the
    # speed sample after each step adds one more
    m = models.heisenberg_manifold()
    conn = flat_frame_connection(left_invariant_grading(m, (2, 1)))
    calls = _count_calls(monkeypatch, expr, "evaluate_tables")
    counts = []
    for steps in (3, 6):
        calls.clear()
        normal_geodesic(conn, {"x": 0.1, "y": 0.0, "z": 0.0}, [1.0, 0.0, 0.5],
                        t_max=steps * 1e-3, step=1e-3)
        counts.append(len(calls))
    assert counts[1] - counts[0] == 3 * (4 + 1)
