"""Tests for the contact-structure pipeline."""

import numpy as np
import pytest

from srgeom import expr, models
from srgeom.connection import (
    check_compatible,
    check_morimoto,
    flatness_check,
    selector,
    taming_metric,
)
from srgeom.contact import (
    _tau_tensor,
    _dj_tensor,
    _upsilon_coeffs,
    connection_double_prime,
    connection_prime,
    extract_contact_data,
    morimoto_connection_contact,
    morimoto_grading_contact,
)
from srgeom.manifold import FramedManifold, ManifoldError, VectorField, check_constant_symbol
from test_connection import covariant_derivative, selector_matrix_at


_cache = {}


def conformal_h2_manifold():
    """Rank-four group chart with an exponentially rescaled metric.

    One four-dimensional eigenbundle; curved, constant symbol."""
    from srgeom.lie import heisenberg

    e2x = expr.exp(expr.mul(expr.rational(2), expr.var("x1")))
    metric = [
        [expr.mul(e2x, expr.rational(1 if i == j else 0)) for j in range(4)]
        for i in range(4)
    ]
    return models.carnot_group_manifold(
        heisenberg((1, 1)), metric=metric, structure_class="contact"
    )


def build(name):
    """Construct and cache the full pipeline for a named model."""
    if name in _cache:
        return _cache[name]
    m = {
        "h1": models.heisenberg_manifold,
        "m4": models.heisenberg_metric4_manifold,
        "conf": models.conformal_heisenberg_manifold,
        "confh2": conformal_h2_manifold,
    }[name]()
    cd = extract_contact_data(m)
    params = morimoto_grading_contact(cd)
    prime = connection_prime(cd, params)
    second = connection_double_prime(cd, params, prime=prime)
    final = morimoto_connection_contact(cd, params, second=second)
    rng = np.random.default_rng(7)
    count = 3 if name == "confh2" else 5
    pts = [dict(zip(m.coords, rng.uniform(-0.8, 0.8, m.dim))) for _ in range(count)]
    _cache[name] = (m, cd, params, prime, second, final, pts)
    return _cache[name]


def gamma_at(conn, p):
    return expr.evaluate_array(conn.gamma, p)


def eval_matrix(mat, p):
    return expr.evaluate_array(mat, p)


# ---------------------------------------------------------------------------
# extraction


def test_h1_normal_form():
    _, cd, *_ = build("h1")
    assert cd.lam_op == (1.0,)
    assert cd.lam == (1.0,)
    assert cd.multiplicities == (2,)


def test_h1_theta_and_reeb_exact():
    m, cd, *_ = build("h1")
    for vals in ([0.3, -0.2, 0.5], [-0.7, 0.1, 0.0]):
        p = m.point(vals)
        x, y = vals[0], vals[1]
        theta = [expr.evaluate(e, p) for e in cd.theta]
        assert np.allclose(theta, [y / 2, -x / 2, 1.0], atol=1e-12)
        assert np.allclose(cd.reeb.value_at(p), [0.0, 0.0, 1.0], atol=1e-12)


def test_m4_normal_form_matches_symbol_verdict():
    m, cd, *_ = build("m4")
    assert cd.lam_op == (1.0, 4.0)
    assert cd.multiplicities == (2, 2)
    assert np.allclose(cd.lam, (1.0, 2.0), atol=1e-9)
    _, _, _, _, _, _, pts = build("m4")
    verdict = check_constant_symbol(m, pts)
    assert verdict.constant
    assert np.allclose(verdict.detail, cd.lam, atol=1e-9)


def test_reeb_and_structure_operator_invariants():
    for name in ("h1", "m4", "conf"):
        m, cd, _, _, _, _, pts = build(name)
        dth = [
            [
                expr.simplify(
                    expr.sub(
                        expr.differentiate(cd.theta[b], m.coords[a]),
                        expr.differentiate(cd.theta[a], m.coords[b]),
                    )
                )
                for b in range(m.dim)
            ]
            for a in range(m.dim)
        ]
        for pt in pts:
            p = m.point(pt)
            dmat = expr.evaluate_array(dth, p)
            theta = expr.evaluate_array(cd.theta, p)
            z = cd.reeb.value_at(p)
            assert abs(theta @ z - 1.0) <= 1e-10
            assert np.abs(dmat @ z).max() <= 1e-10
            fmat = np.column_stack([f.value_at(p) for f in cd.ortho_frame])
            jt = eval_matrix(cd.jtheta, p)
            assert np.abs(fmat.T @ dmat @ fmat - jt).max() <= 1e-10


def test_projections_and_j_square():
    _, cd, _, _, _, _, pts = build("m4")
    m = cd.manifold
    for pt in pts:
        p = m.point(pt)
        projs = [eval_matrix(pr, p) for pr in cd.projections]
        total = sum(projs)
        assert np.abs(total - np.eye(4)).max() <= 1e-10
        for i, pi in enumerate(projs):
            assert np.abs(pi @ pi - pi).max() <= 1e-10
            for j, pj in enumerate(projs):
                if i != j:
                    assert np.abs(pi @ pj).max() <= 1e-10
        jm = eval_matrix(cd.jmat, p)
        assert np.abs(jm @ jm + np.eye(4)).max() <= 1e-10
        lam = eval_matrix(cd.lam_matrix, p)
        assert np.abs(lam - (projs[0] + 4.0 * projs[1])).max() <= 1e-10


def test_non_contact_inputs_rejected():
    with pytest.raises(ManifoldError, match="not declared"):
        extract_contact_data(models.perturbed_235_manifold())
    zero = expr.rational(0)
    one = expr.rational(1)
    flat = FramedManifold(
        ("x", "y", "z"),
        [[one, zero, zero], [zero, one, zero], [zero, zero, one]],
        2,
        structure_class="contact",
    )
    with pytest.raises(ManifoldError, match="growth flag"):
        extract_contact_data(flat)
    odd = FramedManifold(
        ("x", "y", "z", "w"),
        [
            [one, zero, zero, zero],
            [zero, one, zero, zero],
            [zero, zero, one, zero],
            [zero, zero, zero, one],
        ],
        3,
        structure_class="contact",
    )
    with pytest.raises(ManifoldError, match="even horizontal rank"):
        extract_contact_data(odd)


def test_degenerate_bracket_form_is_not_a_contact_structure():
    # X_2 = d/dx2 + x1 d/dz and coordinate fields otherwise: the flag (4, 5)
    # fills the chart, but the bracket form [X_1, X_2] = d/dz has rank 2
    rows = [[int(i == j) for j in range(5)] for i in range(5)]
    rows[1] = ["0", "1", "0", "0", "x1"]
    m = FramedManifold(("x1", "x2", "x3", "x4", "z"), rows, 4, structure_class="contact")
    pts = [(0.1, -0.2, 0.3, 0.4, 0.5), (0.2, 0.1, -0.3, 0.0, 0.4)]
    for refuse in (check_constant_symbol, extract_contact_data):
        with pytest.raises(ManifoldError, match="^not a contact structure: degenerate bracket form$"):
            refuse(m, pts)


def test_varying_eigenvalue_ratio_rejected():
    with pytest.raises(ManifoldError, match="not constant"):
        extract_contact_data(models.varying_lambda_manifold())


# ---------------------------------------------------------------------------
# grading


def test_upsilon_vanishes_on_group():
    # the obstruction fields, as coefficients over the orthonormal frame
    m, cd, params, _, _, _, pts = build("m4")
    ups = _upsilon_coeffs(cd)
    assert set(ups) == {(1, 2), (2, 1)}
    for pt in pts:
        p = m.point(pt)
        for coeffs in ups.values():
            assert np.abs(expr.evaluate_array(coeffs, p)).max() <= 1e-10
        assert np.abs([expr.evaluate(e, p) for e in params.w_coeffs]).max() <= 1e-10
        assert np.abs(params.zw_field.value_at(p) - cd.reeb.value_at(p)).max() <= 1e-10


def test_k1_grading_is_reeb_grading():
    for name in ("h1", "conf"):
        m, cd, params, _, _, _, pts = build(name)
        assert _upsilon_coeffs(cd) == {}
        for pt in pts:
            p = m.point(pt)
            assert np.abs(params.zw_field.value_at(p) - cd.reeb.value_at(p)).max() <= 1e-12


def test_grading_validates_against_flag():
    for name in ("m4", "conf"):
        m, _, params, _, _, _, pts = build(name)
        assert params.grading.validate(pts) <= 1e-9


def test_taming_vertical_norm_m4():
    m, _, params, _, _, _, _ = build("m4")
    tm = taming_metric(params.grading)
    entry = expr.simplify(tm[4][4])
    assert abs(expr.evaluate(entry, m.point([0.0] * 5)) - 16.0 / 17.0) <= 1e-12
    for i in range(4):
        assert expr.simplify(tm[4][i]) is expr.rational(0)


def test_selector_closed_form():
    # the canonical degree-2 selector equals -(2/tr Lambda^(-2)) Lambda^(-1) J
    for name in ("h1", "m4", "conf"):
        m, cd, params, _, _, _, pts = build(name)
        chi = selector(params.grading)
        trlam = sum(
            n * lo**-2.0 for lo, n in zip(cd.lam_op, cd.multiplicities)
        )
        r = m.rank
        for pt in pts:
            p = m.point(pt)
            mat = selector_matrix_at(chi, p, r)  # vertical slot
            lam_inv = eval_matrix(cd.lam_inv_matrix, p)
            jm = eval_matrix(cd.jmat, p)
            closed = -(2.0 / trlam) * lam_inv @ jm
            assert np.abs(mat[:r, :r] - closed).max() <= 1e-10
            assert np.abs(mat[r:, :]).max() <= 1e-12


# ---------------------------------------------------------------------------
# connections


def test_h1_prime_connection_is_left_invariant():
    m, _, _, prime, _, _, pts = build("h1")
    for pt in pts:
        assert np.abs(gamma_at(prime, m.point(pt))).max() <= 1e-12


def test_double_prime_equals_prime_when_j_parallel():
    # rank-two horizontal bundles: the twist commutes, so the correction
    # vanishes; on the group and conformally rescaled charts J is parallel
    for name in ("h1", "m4", "conf", "confh2"):
        m, _, _, prime, second, _, pts = build(name)
        for pt in pts:
            p = m.point(pt)
            assert np.abs(gamma_at(prime, p) - gamma_at(second, p)).max() <= 1e-10


def test_twist_correction_restores_parallel_j():
    # for ANY starting connection, adding half the J-derivative twist makes
    # J parallel; verify on a deliberately twisted perturbation
    from srgeom.connection import Connection

    m, cd, params, prime, _, _, pts = build("m4")
    g = params.grading
    nn = m.dim
    bump = expr.floatc(0.3)
    gamma = [
        [[prime.gamma[i][j][k] for k in range(nn)] for j in range(nn)]
        for i in range(nn)
    ]
    # mix the two eigenbundles in the first horizontal direction
    gamma[0][0][1] = expr.add(gamma[0][0][1], bump)
    gamma[0][1][0] = expr.sub(gamma[0][1][0], bump)
    perturbed = Connection(g, gamma)
    p = m.point(pts[0])

    def djmax(conn):
        dj = expr.evaluate_array(_dj_tensor(cd, conn), p)
        return np.abs(dj[:, : m.rank]).max()

    assert djmax(perturbed) > 0.1
    corrected = connection_double_prime(cd, params, prime=perturbed)
    assert djmax(corrected) <= 1e-10


def test_prime_preserves_eigenbundles_and_vertical():
    for name in ("m4", "conf"):
        m, cd, params, prime, _, _, pts = build(name)
        r = m.rank
        nn = m.dim
        for pt in pts:
            p = m.point(pt)
            gam = gamma_at(prime, p)
            # the vertical field is parallel and no horizontal field tilts out
            assert np.abs(gam[:, nn - 1, :]).max() <= 1e-12
            assert np.abs(gam[:, :r, nn - 1 :]).max() <= 1e-12
            projs = [eval_matrix(pr, p) for pr in cd.projections]
            for i in range(nn):
                op = gam[i, :r, :r].T  # operator: column j -> nabla_i F_j
                for pj in projs:
                    assert np.abs(pj @ op @ pj - op @ pj).max() <= 1e-8


def test_prime_is_metric_compatible():
    for name in ("m4", "conf"):
        _, _, _, prime, _, _, pts = build(name)
        rep = check_compatible(prime, pts)
        assert rep.compatible, rep


def test_double_prime_strongly_compatible():
    for name in ("h1", "m4", "conf"):
        _, _, _, _, second, _, pts = build(name)
        rep = check_compatible(second, pts)
        assert rep.strongly_compatible, rep


def test_trace_j_identity():
    # within each eigenbundle the twist derivative is trace-free
    for name in ("m4", "conf", "confh2"):
        m, cd, params, prime, _, _, pts = build(name)
        dj = _dj_tensor(cd, prime)
        r = m.rank
        for pt in pts:
            p = m.point(pt)
            djn = expr.evaluate_array(dj, p)[:r, :r, :r]
            for pr in cd.projections:
                pn = eval_matrix(pr, p)
                resid = np.einsum("ak,abk->b", pn, djn)
                assert np.abs(resid).max() <= 1e-8


def test_bianchi_cyclic_identity_prime():
    # cyclic sum of <(nabla'_X J)X1, X2> over same-eigenbundle fields
    rng = np.random.default_rng(3)
    for name in ("m4", "conf"):
        m, cd, params, prime, _, _, pts = build(name)
        dj = _dj_tensor(cd, prime)
        r = m.rank
        for pt in pts[:3]:
            p = m.point(pt)
            djn = expr.evaluate_array(dj, p)[:r, :r, :r]
            for pr in cd.projections:
                pn = eval_matrix(pr, p)
                vs = [pn @ rng.standard_normal(r) for _ in range(3)]
                total = 0.0
                for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                    total += np.einsum("i,j,ijk,k->", vs[a], vs[b], djn, vs[c])
                assert abs(total) <= 1e-8


def test_torsion_prime_equals_tau_on_horizontal_output():
    # the horizontal part of the prime torsion is the Lie-derivative tensor
    for name in ("m4", "conf"):
        m, cd, params, prime, _, _, pts = build(name)
        tau = _tau_tensor(cd, params)
        tten = prime.torsion_tensor()
        r = m.rank
        for pt in pts[:3]:
            p = m.point(pt)
            lhs, rhs = (v[0] for v in expr.evaluate_tables([tten, tau], [p]))
            assert np.abs(lhs - rhs)[:, :r, :r].max() <= 1e-8, name


def test_torsion_prime_same_bundle_matches_degree_zero():
    # between fields of one eigenbundle the prime torsion is the symbol bracket
    for name in ("m4", "conf"):
        m, cd, params, prime, _, _, pts = build(name)
        tten = prime.torsion_tensor()
        tzt = params.grading.t_zero_tensor()
        r = m.rank
        v = m.dim - 1
        for pt in pts[:3]:
            p = m.point(pt)
            tn, tz = (t[0, :r, :r, v] for t in expr.evaluate_tables([tten, tzt], [p]))
            for pr in cd.projections:
                pn = eval_matrix(pr, p)
                assert np.abs(pn.T @ (tn - tz) @ pn).max() <= 1e-8


def test_degree_zero_torsion_sign():
    # T0(X, Y) = <X, J^theta Y> Z^W in the orthonormal horizontal frame
    for name in ("h1", "m4", "conf"):
        m, cd, params, _, _, _, pts = build(name)
        tzt = params.grading.t_zero_tensor()
        r = m.rank
        v = m.dim - 1
        for pt in pts[:3]:
            p = m.point(pt)
            tz = expr.evaluate_array(tzt, p)[:r, :r, v]
            jt = eval_matrix(cd.jtheta, p)
            assert np.abs(tz - jt).max() <= 1e-8


def test_t_double_prime_orthogonal_to_isometries():
    for name in ("m4", "conf", "confh2"):
        m, _, params, _, second, _, pts = build(name)
        g = params.grading
        nn = m.dim
        for pt in pts[:3]:
            p = m.point(pt)
            tn = second.torsion_at(p)
            (sym,) = second._at([p]).symbols
            gram = sym.full_gram()
            ginv = np.linalg.inv(gram)
            for dm in sym.isometries():
                for vslot in range(nn):
                    tv = tn[vslot].T
                    pairing = np.trace(tv.T @ gram @ dm @ ginv)
                    assert abs(pairing) <= 1e-8


# ---------------------------------------------------------------------------
# the canonical connection


def test_groups_are_flat_and_canonical():
    for name in ("h1", "m4"):
        _, _, _, _, _, final, pts = build(name)
        fr = flatness_check(final, pts)
        assert fr.flat
        assert fr.torsion_residual <= 1e-8
        assert fr.curvature_residual <= 1e-8
        mr = check_morimoto(final, pts)
        assert mr.ok, mr


def test_curved_models_are_canonical_but_not_flat():
    for name in ("conf", "confh2"):
        _, _, _, _, _, final, pts = build(name)
        mr = check_morimoto(final, pts, tol=1e-6)
        assert mr.compatibility.strongly_compatible
        assert mr.ok, mr
        fr = flatness_check(final, pts)
        assert not fr.flat
        assert max(fr.torsion_residual, fr.curvature_residual) > 1e-3


def test_confh2_isometry_algebra_is_larger():
    # equal eigenvalues double the pointwise isometry algebra: dim 4 vs 2
    for name, dim in (("confh2", 4), ("m4", 2)):
        _, _, _, _, _, final, pts = build(name)
        (sym,) = final._at(pts[:1]).symbols
        assert len(sym.isometries()) == dim


def _b_fields_negated(m):
    """The group chart ``m`` of h_n with every B_j field negated and the same metric.

    Each bracket [A_j, B_j] changes sign, so the annihilator direction the
    construction picks, and with it θ, is flipped.
    """
    n = m.rank // 2
    frames = [(f.scaled(-1) if n <= i < m.rank else f).components for i, f in enumerate(m.frames)]
    return FramedManifold(m.coords, frames, m.rank, metric=m.metric, structure_class="contact")


def test_orientation_flip_leaves_geometry_unchanged():
    for name in ("m4", "conf"):
        m, cd, params, _, _, final, pts = build(name)
        cd2 = extract_contact_data(_b_fields_negated(m))
        theta, theta2 = (expr.evaluate_tables([c.theta], pts)[0] for c in (cd, cd2))
        assert np.array_equal(theta2, -theta)
        params2 = morimoto_grading_contact(cd2)
        final2 = morimoto_connection_contact(cd2, params2)
        coord_fields = [
            VectorField(m, [expr.rational(1 if a == i else 0) for a in range(m.dim)])
            for i in range(m.dim)
        ]
        for pt in pts[:2]:
            p = m.point(pt)
            # W and the taming data agree
            w1 = params.w_field.value_at(p)
            w2 = params2.w_field.value_at(p)
            assert np.abs(w1 - w2).max() <= 1e-8
            g1 = final._at([p]).symbols[0].full_gram()
            g2 = final2._at([p]).symbols[0].full_gram()
            assert np.abs(g1 - g2).max() <= 1e-8
            # the connections agree as geometric objects
            for x in coord_fields:
                for y in coord_fields[:2]:
                    d1 = covariant_derivative(final, x, y).value_at(p)
                    d2 = covariant_derivative(final2, x, y).value_at(p)
                    assert np.abs(d1 - d2).max() <= 1e-7, (name, pt)


@pytest.mark.parametrize("scale", [1e-12, 1.0, 1e10, 1e12])
@pytest.mark.parametrize("n", [1, 2])
def test_scaled_metric_passes_every_verdict(n, scale):
    # The flat group h_n with the metric scale * I.  The vertical complement
    # is tested by |det| against the product of its column norms, so the
    # orthonormal frame's size (1/sqrt(scale)) does not refuse it.
    from srgeom.lie import heisenberg
    from srgeom.manifold import _default_samples

    r = 2 * n
    metric = [[expr.floatc(scale) if i == j else expr.ZERO for j in range(r)] for i in range(r)]
    m = models.carnot_group_manifold(heisenberg((1,) * n), metric=metric, structure_class="contact")
    pts = _default_samples(m, count=3)
    assert check_constant_symbol(m, pts).constant
    cd = extract_contact_data(m)
    final = morimoto_connection_contact(cd, morimoto_grading_contact(cd))
    mr = check_morimoto(final, pts)
    fr = flatness_check(final, pts)
    assert mr.ok and mr.max_residual == 0.0
    assert fr.flat and fr.torsion_residual == 0.0 and fr.curvature_residual == 0.0


@pytest.mark.parametrize("scale", [1e-20, 1e-12, 1.0, 1e12, 1e20])
def test_contact_grading_validates_at_every_metric_scale(scale):
    # Horizontal and vertical adapted columns scale differently with the
    # metric, so the layers are ranked with their columns normalized.
    from srgeom.lie import heisenberg
    from srgeom.manifold import _default_samples

    metric = [[expr.floatc(scale) if i == j else expr.ZERO for j in range(2)] for i in range(2)]
    m = models.carnot_group_manifold(heisenberg((1,)), metric=metric, structure_class="contact")
    g = morimoto_grading_contact(extract_contact_data(m)).grading
    assert g.validate(_default_samples(m, count=3)) <= 1e-9
