"""Growth (2,3,5) structures: flatness verdicts, Morimoto normalization, and
the invariant characterizations of the intrinsic grading."""

import numpy as np
import pytest

from srgeom import expr
from srgeom.connection import check_morimoto, flatness_check
from srgeom.g235 import (
    connection_235,
    intrinsic_frame_235,
    morimoto_connection_235,
    morimoto_grading_235,
)
from srgeom.manifold import (
    _default_samples,
    _gram_schmidt_horizontal,
    check_constant_symbol,
)
from srgeom.models import cartan_group_manifold, perturbed_235_manifold


def _chart(m):
    pts = _default_samples(m)[:3]
    return m, pts, intrinsic_frame_235(m, sample_points=pts)


@pytest.fixture(scope="module")
def cartan():
    return _chart(cartan_group_manifold())


@pytest.fixture(scope="module")
def perturbed():
    return _chart(perturbed_235_manifold(0.1))


def test_cartan_has_constant_symbol(cartan):
    m, pts, _ = cartan
    assert check_constant_symbol(m, pts).constant


def test_cartan_adapted_connection_is_flat(cartan):
    _, pts, data = cartan
    rep = flatness_check(connection_235(data), pts)
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
    _, pts, data = perturbed
    rep = flatness_check(connection_235(data), pts)
    assert not rep.flat
    assert rep.torsion_residual == pytest.approx(0.07295747671501576, abs=1e-10)
    assert rep.curvature_residual == pytest.approx(0.09683132718135146, abs=1e-10)


def test_perturbed_morimoto_connection_is_normalized_but_not_flat():
    m = perturbed_235_manifold(0.1)
    pts = _default_samples(m)
    conn = morimoto_connection_235(morimoto_grading_235(m, sample_points=pts))
    assert check_morimoto(conn, pts).ok
    rep = flatness_check(conn, pts)
    assert not rep.flat
    assert rep.torsion_residual == pytest.approx(0.054897400767521844, abs=1e-10)
    assert rep.curvature_residual == pytest.approx(0.04495192438719752, abs=1e-10)


def _assert_form_characterization(m, pts, data):
    # theta is the coframe member dual to Z: d theta(X_e, .) kills Z and the
    # degree -3 layer, and theta([X_1, X_2]) = 1
    c = data.grading.structure_functions()
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


def test_fields_do_not_depend_on_horizontal_frame(cartan):
    m, pts, data = cartan
    e1, e2 = _gram_schmidt_horizontal(m)
    phi = expr.mul(expr.rational(1, 3), expr.var("x4"))
    cs, sn = expr.cos(phi), expr.sin(phi)
    x1 = e1.scaled(cs) + e2.scaled(sn)
    x2 = e2.scaled(cs) - e1.scaled(sn)
    rotated = intrinsic_frame_235(m, x1, x2, sample_points=pts)
    for p in pts:
        p = m.point(p)
        assert np.abs(rotated.zp.value_at(p) - data.zp.value_at(p)).max() <= 1e-12
        moved = _span_projector(rotated.wp, p) - _span_projector(data.wp, p)
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


def _layer_moves(m, pts, data):
    """Per point, how far each Morimoto layer lies from the intrinsic one."""
    g = morimoto_grading_235(m, sample_points=pts)
    moves = []
    for p in pts:
        p = m.point(p)
        moves.append([
            np.abs(a - b).max()
            for a, b in zip(_layer_projectors(g, p), _layer_projectors(data.grading, p))
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
