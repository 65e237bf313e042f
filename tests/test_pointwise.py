"""Torsion, curvature and the derivative of the degree-0 torsion evaluated
from point values, against the symbolic tables they replace on the verdict
path; and the checks, which contract blocks of points, against a per-point
oracle."""

import dataclasses
import math

import numpy as np
import pytest

from srgeom import connection, expr, lie, manifold, models
from srgeom.connection import (
    CompatibilityReport,
    Connection,
    FlatnessReport,
    Grading,
    MorimotoReport,
    _t_zero_derivative,
    check_compatible,
    check_morimoto,
    flatness_check,
    selector,
)
from srgeom.contact import (
    extract_contact_data,
    morimoto_connection_contact,
    morimoto_grading_contact,
)
from srgeom.g235 import intrinsic_frame_235, morimoto_connection_235, morimoto_grading_235
from srgeom.lie import heisenberg
from srgeom.manifold import (
    ManifoldError,
    _default_samples,
    _gram_schmidt_horizontal,
    check_constant_symbol,
    frame_combination,
)


def _conformal(n):
    """h_n(1, ..., 1) with its metric rescaled by exp(x1): curved, constant symbol."""
    scale = expr.exp(expr.var("x1"))
    metric = [[scale if i == j else expr.ZERO for j in range(2 * n)] for i in range(2 * n)]
    return models.carnot_group_manifold(
        heisenberg((1,) * n), metric=metric, structure_class="contact"
    )


def _conformal_h2():
    return _conformal(2)


def _contact_grading(m):
    cd = extract_contact_data(m)
    return cd, morimoto_grading_contact(cd)


def _contact_connection(m):
    return morimoto_connection_contact(*_contact_grading(m))


def _rotated_cartan_connection():
    """Morimoto connection of Cartan's chart with the frame rotated by x4/3."""
    m = models.cartan_group_manifold()
    e1, e2 = (frame_combination(m, m.frames[:2], row) for row in _gram_schmidt_horizontal(m))
    phi = expr.mul(expr.rational(1, 3), expr.var("x4"))
    cs, sn = expr.cos(phi), expr.sin(phi)
    x1 = frame_combination(m, (e1, e2), (cs, sn))
    x2 = frame_combination(m, (e1, e2), (expr.neg(sn), cs))
    pts = _default_samples(m)[:3]
    return morimoto_connection_235(morimoto_grading_235(m, x1, x2, sample_points=pts)), pts


def _perturbed_235_connection():
    m = models.perturbed_235_manifold(0.1)
    pts = _default_samples(m)[:3]
    return morimoto_connection_235(morimoto_grading_235(m, sample_points=pts)), pts


def _curved_gamma(m):
    """A dense, coordinate-dependent Christoffel table for the chart ``m``.

    Entry [i][j][k] is the coordinate number (i + j + k) mod n with the
    weight sin(1 + i + 2j + 3k), rounded to three digits; no condition of
    the checks holds for it.
    """
    n = m.dim
    return [
        [
            [
                expr.mul(
                    expr.floatc(round(math.sin(1 + i + 2 * j + 3 * k), 3)),
                    expr.var(m.coords[(i + j + k) % n]),
                )
                for k in range(n)
            ]
            for j in range(n)
        ]
        for i in range(n)
    ]


def _skewed_h2_connection():
    """A connection on h_2(1, 1.6) that meets none of the checks' conditions.

    The metric is a non-diagonal constant matrix times exp(x1), so the
    symbol's Gram is not a multiple of the identity and differs from point
    to point; the connection is :func:`_curved_gamma`, so every residual is
    far from zero.
    """
    a = [[2, 0.5, 0, 0.3], [0.5, 1, 0.2, 0], [0, 0.2, 1.5, 0.4], [0.3, 0, 0.4, 1]]
    scale = expr.exp(expr.var("x1"))
    metric = [[expr.mul(expr.floatc(a[i][j]), scale) for j in range(4)] for i in range(4)]
    m = models.carnot_group_manifold(
        heisenberg((1, 1.6)), metric=metric, structure_class="contact"
    )
    g = Grading(m, (4, 1))
    return Connection(g, _curved_gamma(m)), _default_samples(m, count=3, seed=5)


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
    "skewed-h2": _skewed_h2_connection,
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
    # a coordinate-dependent Γ does not keep the degree-0 torsion parallel,
    # so the compared tensor is not zero
    m = build()
    _, g = _contact_grading(m)
    conn = Connection(g, _curved_gamma(m))
    table = _symbolic_t_zero_derivative(conn)
    pts = _default_samples(m, count=3, seed=5)
    # through the evaluation the checks share, block by block
    vals = conn._at(pts)
    blocks = [_t_zero_derivative(vals, blk) for blk in vals.blocks()]
    for p, got in zip(pts, np.concatenate(blocks), strict=True):
        want = expr.evaluate_array(table, p)
        assert np.abs(want).max() > 0.1
        _assert_close(got, want)


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
    return check_constant_symbol(conn.grading.frame.chart, points)


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


def _reports(conn, points, flatness_first):
    """Both checks' reports as reprs, which keep every bit (and tell 0.0 from -0.0)."""
    checks = {
        "morimoto": lambda: check_morimoto(conn, points, tol=1e-6),
        "flatness": lambda: flatness_check(conn, points),
    }
    order = ("flatness", "morimoto") if flatness_first else ("morimoto", "flatness")
    return {name: repr(checks[name]()) for name in order}


@pytest.mark.parametrize("flatness_first", [False, True], ids=["morimoto-first", "flatness-first"])
@pytest.mark.parametrize("change", ["value", "sign-of-zero"])
def test_shared_evaluation_follows_the_point_set(change, flatness_first, monkeypatch):
    # point sets A, B, A on one connection, B differing from A in one
    # coordinate: each change of point set evaluates once, and every report
    # equals that of a freshly built connection
    m = models.conformal_heisenberg_manifold()
    a = [m.point(p) for p in _default_samples(m, count=3, seed=5)]
    a[1]["y"] = 0.0
    b = [dict(p) for p in a]
    b[1]["y"] = 0.25 if change == "value" else -0.0
    conn = _contact_connection(m)
    evaluated = _count_calls(monkeypatch, expr, "evaluate_tables")
    got = [_reports(conn, pts, flatness_first) for pts in (a, b, a)]
    assert len(evaluated) == 3
    for pts, reports in zip((a, b, a), got):
        fresh = _contact_connection(models.conformal_heisenberg_manifold())
        assert reports == _reports(fresh, pts, flatness_first)


@pytest.mark.parametrize(
    "build, points, symbols",
    [
        (
            lambda: models.carnot_group_manifold(
                heisenberg((1, 1.6, 2.9)), structure_class="contact"
            ),
            lambda m: _default_samples(m, count=20, seed=5),
            1,
        ),
        (
            # one symbol, bitwise, at these points; see test_connection
            models.conformal_heisenberg_manifold,
            lambda m: [{"x": x, "y": 0.0, "z": 0.0} for x in (-0.8, -0.3, 0.0, 0.3, 0.5)],
            1,
        ),
    ],
    ids=["flat-h3", "conformal-h1"],
)
def test_checks_evaluate_once_and_solve_each_symbol_once(build, points, symbols, monkeypatch):
    m = build()
    conn = _contact_connection(m)
    pts = points(m)
    evaluated = _count_calls(monkeypatch, expr, "evaluate_tables")
    solved = _count_calls(monkeypatch, lie, "isometry_algebra")
    assert check_morimoto(conn, pts, tol=1e-6).ok
    flatness_check(conn, pts)
    assert (len(evaluated), len(solved)) == (1, symbols)


def _flat_h3():
    return models.carnot_group_manifold(heisenberg((1, 1.6, 2.9)), structure_class="contact")


@pytest.mark.parametrize("flatness_first", [False, True], ids=["morimoto-first", "flatness-first"])
def test_both_checks_compute_the_curvature_once_per_block(flatness_first, monkeypatch):
    # n = 7 takes 3 points per block, so 7 points make 3 blocks; both checks
    # read one pass over them
    m = _conformal(3)
    conn = _contact_connection(m)
    pts = _default_samples(m, count=7, seed=5)
    curvatures = _count_calls(monkeypatch, connection, "_curvature")
    reports = _reports(conn, pts, flatness_first)
    assert len(curvatures) == len(connection._blocks(len(pts), m.dim)) == 3
    assert reports == _reports(_contact_connection(_conformal(3)), pts, not flatness_first)


def test_symbols_check_every_metric_in_one_call(monkeypatch):
    m = _flat_h3()
    conn = _contact_connection(m)
    checked = _count_calls(monkeypatch, manifold, "_checked_metric")
    symbols = conn._at(_default_samples(m, count=20, seed=5)).symbols
    assert len(symbols) == 20 and len({id(s) for s in symbols}) == 1
    assert len(checked) == 1


def test_layer_two_brackets_each_unordered_pair_once():
    m = _flat_h3()
    r = m.rank
    assert len(m.bracket_layer(2)) == r * (r - 1) // 2 == 15
    # the contact form is still read whole, and antisymmetric
    verdict = check_constant_symbol(m, _default_samples(m, count=3, seed=5))
    assert verdict.constant and np.allclose(verdict.detail, (1, 1.6, 2.9), rtol=1e-12)


@pytest.mark.parametrize(
    "build, count",
    # a constant metric, T₀ and Γ (the flat chart) have no frame derivative;
    # on conformal h_1 the grading's frame is derived, so its metric is the
    # identity, and T₀ is constant too, since its bracket constant
    # exp(-x)·sqrt(exp(2x)) folds to 1, while Γ varies: one product per block
    [(_flat_h3, 0), (models.conformal_heisenberg_manifold, 1)],
    ids=["flat-h3", "conformal-h1"],
)
def test_checks_skip_the_frame_derivative_of_a_constant_table(build, count, monkeypatch):
    m = build()
    conn = _contact_connection(m)
    pts = _default_samples(m, count=5, seed=5)
    calls = _count_calls(monkeypatch, connection, "_frame_derivative")
    assert check_morimoto(conn, pts, tol=1e-6).ok
    flatness_check(conn, pts)
    assert len(calls) == count * len(connection._blocks(len(pts), m.dim))


@pytest.mark.parametrize("chart", ["conformal-h2", "rotated-cartan"])
def test_checks_differentiate_nothing(chart, monkeypatch):
    # every coordinate derivative a check reads comes from the evaluator
    conn, pts = CHARTS[chart]()
    calls = _count_calls(monkeypatch, expr, "differentiate")
    check_compatible(conn, pts)
    check_morimoto(conn, pts, tol=1e-6)
    flatness_check(conn, pts)
    assert calls == []


# ---------------------------------------------------------------------------
# per-point oracle: the checks written as loops over points, frame vectors
# and isometry generators, reading the same shared evaluation


def _pairing(a, b, gram, ginv):
    """Trace inner product of endomorphisms w.r.t. a frame Gram matrix."""
    return float(np.trace(a.T @ gram @ b @ ginv))


def _oracle_tensors(vals):
    """Torsion and curvature at each point."""
    for gam, c, frame, dgam in zip(vals.gamma, vals.c, vals.frame, vals.d_gamma):
        part = np.einsum("ia,ajkl->ijkl", frame, dgam) + np.einsum("jkm,iml->ijkl", gam, gam)
        curv = part - part.transpose(1, 0, 2, 3) - np.einsum("ijm,mkl->ijkl", c, gam)
        yield gam - gam.transpose(1, 0, 2) - c, curv


def _oracle_compatible(conn, points, tol):
    vals = conn._at(points)
    r = conn.grading.layer_dims[0]
    deg = np.array(conn.grading.degrees)
    layer_change = deg[:, None] != deg[None, :]
    worst_layers = worst_metric = worst_tz = 0.0
    for gam, tz, frame, met, dtz, dmet in zip(
        vals.gamma, vals.t_zero, vals.frame, vals.metric, vals.d_t_zero, vals.d_metric
    ):
        hor = gam[:, :r, :r]
        nmet = (
            np.einsum("ia,ajk->ijk", frame, dmet)
            - np.einsum("ijm,mk->ijk", hor, met)
            - np.einsum("ikm,jm->ijk", hor, met)
        )
        ntz = (
            np.einsum("ia,ajkl->ijkl", frame, dtz)
            + np.einsum("jkm,iml->ijkl", tz, gam)
            - np.einsum("ijm,mkl->ijkl", gam, tz)
            - np.einsum("ikm,jml->ijkl", gam, tz)
        )
        worst_layers = max(worst_layers, float(np.abs(gam[:, layer_change]).max(initial=0.0)))
        worst_metric = max(worst_metric, float(np.abs(nmet).max(initial=0.0)))
        worst_tz = max(worst_tz, float(np.abs(ntz).max(initial=0.0)))
    return CompatibilityReport(
        worst_layers <= tol, worst_metric <= tol, worst_tz <= tol,
        worst_layers, worst_metric, worst_tz,
    )


def _oracle_selector_matrices(chi, values):
    """The wedge-coefficient matrix of the value on each field, at one point."""
    n = chi.dim
    out = []
    pos = 0
    for row in chi.coefficients:
        mat = np.zeros((n, n))
        for a, b, _ in row:
            mat[a, b] += values[pos]
            mat[b, a] -= values[pos]
            pos += 1
        out.append(mat)
    return out


def _oracle_morimoto(conn, points, tol):
    g = conn.grading
    n = g.dim
    chi = selector(g)
    vals = conn._at(points)
    worst_r = worst_t = 0.0
    for sym, (tten, rten), tzt, coefs in zip(
        vals.symbols, _oracle_tensors(vals), vals.t_zero, vals.selector
    ):
        gram = sym.full_gram()
        ginv = np.linalg.inv(gram)
        for v, cm in enumerate(_oracle_selector_matrices(chi, coefs)):
            r_of_chi = 0.5 * np.einsum("ab,abkl->lk", cm, rten)
            t_of_chi = 0.5 * np.einsum("ab,abk->k", cm, tten)
            t_v = tten[v].T
            for d in sym.isometries():
                lhs = _pairing(r_of_chi, d, gram, ginv)
                rhs = _pairing(t_v, d, gram, ginv)
                worst_r = max(worst_r, abs(lhs - rhs))
            for w in range(n):
                if g.degree_of(w) < g.degree_of(v):
                    lhs = float(t_of_chi @ gram[:, w])
                    rhs = -_pairing(t_v, tzt[w].T, gram, ginv)
                    worst_t = max(worst_t, abs(lhs - rhs))
    return MorimotoReport(worst_r, worst_t, _oracle_compatible(conn, points, tol), tol)


def _oracle_flatness(conn, points, tol):
    vals = conn._at(points)
    worst_t = worst_r = 0.0
    for sym, (tten, rten), tzt in zip(vals.symbols, _oracle_tensors(vals), vals.t_zero):
        q = lie._onb_columns(sym.full_gram())
        qinv = np.linalg.inv(q)
        dt = np.einsum("ia,jb,ijk,kc->abc", q, q, tten - tzt, qinv.T, optimize=True)
        dr = np.einsum("ia,jb,kc,ijkl,ld->abcd", q, q, q, rten, qinv.T, optimize=True)
        worst_t = max(worst_t, float(np.abs(dt).max()))
        worst_r = max(worst_r, float(np.abs(dr).max()))
    return FlatnessReport(worst_t <= tol and worst_r <= tol, worst_t, worst_r)


def _fields(report):
    """A report's fields, nested reports flattened, in order; a bare residual is its own field."""
    if dataclasses.is_dataclass(report):
        return [v for f in dataclasses.fields(report) for v in _fields(getattr(report, f.name))]
    return [report]


def _checks(conn, points):
    """Every check's report at ``points``; verdicts at tol 1e-6."""
    return [
        check_compatible(conn, points, tol=1e-6),
        check_morimoto(conn, points, tol=1e-6),
        flatness_check(conn, points, tol=1e-6),
    ]


def _oracle_checks(conn, points):
    return [
        _oracle_compatible(conn, points, 1e-6),
        _oracle_morimoto(conn, points, 1e-6),
        _oracle_flatness(conn, points, 1e-6),
    ]


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_checks_equal_the_per_point_oracle(chart):
    conn, pts = CHARTS[chart]()
    got = [_fields(r) for r in _checks(conn, pts)]
    want = [_fields(r) for r in _oracle_checks(conn, pts)]
    assert [len(r) for r in got] == [len(r) for r in want]
    for g, w in zip((v for r in got for v in r), (v for r in want for v in r)):
        if isinstance(w, bool):
            assert g is w
        else:
            assert abs(g - w) <= 1e-12 * max(1.0, abs(w)), (g, w)


def test_skewed_chart_meets_no_condition():
    # the oracle compares ∇T₀, ∇g, the layer changes, both normalization
    # residuals, the torsion and the curvature on this chart: none is zero
    conn, pts = CHARTS["skewed-h2"]()
    compat = check_compatible(conn, pts)
    mr = check_morimoto(conn, pts)
    fr = flatness_check(conn, pts)
    residuals = (
        compat.residual_layers, compat.residual_metric, compat.residual_t_zero,
        mr.residual_r, mr.residual_t, fr.torsion_residual, fr.curvature_residual,
    )
    assert min(residuals) > 1e-3, residuals


@pytest.mark.parametrize("count", [1, 2, 3, 4, 7])
def test_blocks_of_points_report_the_maximum_over_points(count):
    # n = 7 takes 3 points per block, so these counts fill one block, fill
    # it exactly, and spill into a second and a third
    m = _conformal(3)
    conn = _contact_connection(m)
    pts = _default_samples(m, count=count, seed=5)
    assert connection._blocks(count, m.dim) == [
        slice(s, min(s + 3, count)) for s in range(0, count, 3)
    ]
    each = [[_fields(r) for r in _checks(conn, [p])] for p in pts]
    got = [_fields(r) for r in _checks(conn, pts)]
    for k, fields in enumerate(got):
        for f, value in enumerate(fields):
            values = [one[k][f] for one in each]
            if isinstance(value, bool):
                assert value is all(values)
            else:
                assert value == max(values)
    assert got[2][2] > 0.1  # the curvature residual is not zero


def _symmetric_huge_gamma():
    """Γ_000 = 1e200 x and Γ_010 = Γ_100 = -1e200 x: symmetric in its lower
    indices, so the torsion stays the structure functions, while ΓΓ
    overflows and the curvature holds inf - inf = NaN where x = 1."""
    gam = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    huge = expr.mul(expr.floatc(1e200), expr.var("x"))
    gam[0][0][0] = huge
    gam[0][1][0] = gam[1][0][0] = expr.neg(huge)
    return gam


@pytest.mark.parametrize("nan_last", [False, True], ids=["nan-first", "nan-last"])
def test_nan_residuals_fail_their_verdicts(nan_last):
    m = models.heisenberg_manifold()
    conn = Connection(Grading(m, (2, 1)), _symmetric_huge_gamma())
    # 101 points fill the first block of n = 3; the NaN point sits in it or
    # in a second block of its own
    finite = [{"x": 0.0, "y": 0.1 * k / 101, "z": 0.0} for k in range(101)]
    nan_point = {"x": 1.0, "y": 0.0, "z": 0.0}
    pts = finite + [nan_point] if nan_last else [nan_point] + finite
    assert len(connection._blocks(len(pts), 3)) == 2
    with np.errstate(over="ignore", invalid="ignore"):
        mr = check_morimoto(conn, pts)
        fr = flatness_check(conn, pts)
        finite_fr = flatness_check(conn, finite)
    assert np.isnan(mr.residual_r) and np.isnan(mr.max_residual) and not mr.ok
    assert np.isnan(fr.curvature_residual) and not fr.flat
    assert fr.torsion_residual == 0.0  # only the NaN fails flatness
    assert np.isfinite(finite_fr.curvature_residual)


@pytest.mark.parametrize("check", [check_compatible, check_morimoto, flatness_check])
def test_checks_refuse_an_empty_point_set(check):
    conn = _contact_connection(models.heisenberg_metric4_manifold())
    with pytest.raises(ManifoldError, match="at least one sample point is required"):
        check(conn, [])


@pytest.mark.parametrize(
    "construct",
    [
        lambda: extract_contact_data(models.heisenberg_metric4_manifold(), sample_points=[]),
        lambda: intrinsic_frame_235(models.cartan_group_manifold(), sample_points=[]),
        lambda: morimoto_grading_235(models.cartan_group_manifold(), sample_points=[]),
    ],
    ids=["extract_contact_data", "intrinsic_frame_235", "morimoto_grading_235"],
)
def test_constructions_refuse_an_empty_point_set(construct):
    with pytest.raises(ManifoldError, match="at least one sample point is required"):
        construct()


def _log_domain_chart(algebra, coord, structure_class):
    """A group chart with metric exp(log t)·I, t the coordinate ``coord``: defined for t > 0 only."""
    scale = expr.exp(expr.log(expr.var(coord)))
    r = algebra.layer_dims[0]
    metric = [[scale if i == j else expr.ZERO for j in range(r)] for i in range(r)]
    return models.carnot_group_manifold(algebra, metric=metric, structure_class=structure_class)


def test_constructions_read_only_the_callers_points():
    # both charts are defined only where the logged coordinate is positive; the
    # caller's points lie there, and the default points in [-0.9, 0.9] do not
    rng = np.random.default_rng(12)
    h1 = _log_domain_chart(heisenberg((1,)), "x1", "contact")
    pts = [(rng.uniform(0.2, 0.6), *rng.uniform(-0.5, 0.5, size=2)) for _ in range(5)]
    cd = extract_contact_data(h1, pts)
    conn = morimoto_connection_contact(cd, morimoto_grading_contact(cd))
    assert check_morimoto(conn, pts).ok and not flatness_check(conn, pts).flat
    cartan = _log_domain_chart(lie.cartan_nilpotent(), "x4", "two-three-five")
    pts235 = [(*rng.uniform(-0.5, 0.5, size=3), rng.uniform(0.2, 0.6), rng.uniform(-0.5, 0.5)) for _ in range(5)]
    conn = morimoto_connection_235(morimoto_grading_235(cartan, sample_points=pts235))
    assert check_morimoto(conn, pts235).ok and not flatness_check(conn, pts235).flat
    # without points, each construction reaches a default point outside the domain
    with pytest.raises(expr.EvaluationError):
        extract_contact_data(h1)
    with pytest.raises(expr.EvaluationError):
        morimoto_grading_235(cartan)
