import random

import numpy as np
import pytest

from srgeom import lie
from srgeom.lie import (
    CarnotAlgebra,
    LieError,
    cartan_nilpotent,
    heisenberg,
    heisenberg_normal_form,
    isometry_algebra,
)


def test_heisenberg_jacobi_random_lambdas():
    rng = random.Random(5)
    for _ in range(5):
        lam = sorted(round(rng.uniform(1.0, 3.0), 3) for _ in range(3))
        lam[0] = 1.0
        g = heisenberg(tuple(lam))
        assert g.jacobi_residual() == 0.0


def test_heisenberg_ordering_error():
    with pytest.raises(LieError):
        heisenberg((2, 1))
    with pytest.raises(LieError):
        heisenberg((2,))


def test_cartan_nilpotent_basics():
    g = cartan_nilpotent()
    assert g.layer_dims == (2, 1, 2)
    assert g.jacobi_residual() == 0.0
    assert g.generation_ok()


@pytest.mark.parametrize(
    "brackets,generated",
    [
        ({(0, 1): {2: 1e-12}, (0, 2): {3: 1e-12}, (1, 2): {4: 1e-12}}, True),
        ({(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}, True),
        ({(0, 1): {2: 1e12}, (0, 2): {3: 1e12}, (1, 2): {4: 1e12}}, True),
        # without [A2, B] the -1 layer does not generate C2
        ({(0, 1): {2: 1}, (0, 2): {3: 1}}, False),
    ],
    ids=["1e-12", "1", "1e12", "without-[A2,B]"],
)
def test_generation_is_ranked_relative_to_the_brackets(brackets, generated):
    assert CarnotAlgebra((2, 1, 2), brackets).generation_ok() is generated


def test_bracket_table_is_refused_out_of_order_or_off_grading():
    with pytest.raises(LieError, match="a < b"):
        CarnotAlgebra((2, 1), {(1, 0): {2: 1}})
    with pytest.raises(LieError, match="violates the grading"):
        CarnotAlgebra((2, 1), {(0, 1): {0: 1}})


@pytest.mark.parametrize("brackets", [{(0, 1): {-1: 1}}, {(0, 1): {3: 1}}, {(0, 5): {2: 1}}, {(-1, 1): {2: 1}}])
def test_bracket_table_is_refused_with_an_index_outside_the_algebra(brackets):
    with pytest.raises(LieError, match="outside range"):
        CarnotAlgebra((2, 1), brackets)


@pytest.mark.parametrize(
    "build",
    [
        lambda: heisenberg((1, np.nan)),
        lambda: heisenberg((1, np.inf)),
        lambda: CarnotAlgebra((2, 1), {(0, 1): {2: 1}}, metric1=[[1.0, 0.0], [0.0, np.inf]]),
        lambda: CarnotAlgebra((2, 1), {(0, 1): {2: 1}}, metric1=[[1.0, np.nan], [np.nan, 1.0]]),
        lambda: CarnotAlgebra((2, 1), {(0, 1): {2: np.nan}}),
        lambda: CarnotAlgebra((2, 1), {(0, 1): {2: -np.inf}}),
    ],
    ids=["lambda-nan", "lambda-inf", "metric-inf", "metric-nan", "bracket-nan", "bracket-inf"],
)
def test_non_finite_input_is_refused(build):
    # each was accepted: NaN passes the symmetry test, and cholesky does not
    # raise on NaN or inf entries
    with pytest.raises(LieError, match="finite"):
        build()


def test_jacobi_residual_of_a_non_lie_bracket():
    # on (A1, A2, A3) the Jacobi sum is [[A1,A2],A3] + [[A2,A3],A1] + [[A3,A1],A2] = -C
    brackets = {
        (0, 1): {3: 1}, (1, 2): {4: 1}, (0, 2): {5: 1},
        (2, 3): {6: 1}, (0, 4): {6: 1}, (1, 5): {6: 1},
    }
    assert CarnotAlgebra((3, 3, 1), brackets).jacobi_residual() == 1.0


# ---------------------------------------------------------------------------
# the induced inner product


def test_step1_metric_unchanged():
    m = np.array([[2.0, 0.5], [0.5, 1.0]])
    g = CarnotAlgebra((2,), {}, metric1=m)
    assert np.allclose(g.full_gram(), m)


def brute_force_tensor_degree2(metric_w: np.ndarray, bracket_map) -> np.ndarray:
    """Submetry metric on the degree-2 layer computed in W + W (x) W.

    The weighted tensor basis makes 2^(j/2) e_{i1} (x) ... (x) e_{ij}
    orthonormal for an orthonormal basis of W, i.e. the degree-2 Gram is
    (1/4) G_W (x) G_W. The projection sends e_i (x) e_j to [e_i, e_j]/2.
    This tensor-space metric is the induced one scaled by 2^(1-k) on layer
    k, so on layer 2 it is half of ``full_gram``.
    """
    n = metric_w.shape[0]
    target_dim = bracket_map(0, 1).shape[0]
    gt = 0.25 * np.kron(metric_w, metric_w)
    p = np.zeros((target_dim, n * n))
    for i in range(n):
        for j in range(n):
            p[:, i * n + j] = 0.5 * bracket_map(i, j)
    ginv = p @ np.linalg.inv(gt) @ p.T
    return np.linalg.inv(ginv)


def test_h1_tensor_norm_matches_bruteforce_oracle():
    g = heisenberg((1,))
    gram = g.full_gram()

    def br(i, j):
        out = np.zeros(1)
        for c, v in g.bracket(i, j).items():
            out[c - 2] = float(v)
        return out

    oracle = 2.0 * brute_force_tensor_degree2(g.metric1, br)
    assert gram[2, 2] == pytest.approx(oracle[0, 0], abs=1e-12)
    assert oracle[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_h2_tensor_block_matches_bruteforce_oracle():
    g = heisenberg((1.0, 2.0))
    gram = g.full_gram()

    def br(i, j):
        out = np.zeros(1)
        for c, v in g.bracket(i, j).items():
            out[c - 4] = float(v)
        return out

    oracle = 2.0 * brute_force_tensor_degree2(g.metric1, br)
    assert gram[4, 4] == pytest.approx(oracle[0, 0], abs=1e-12)


def test_selector_flavor_values():
    # Heisenberg center: |C|^2 = 1 / sum lambda_j^-4
    g = heisenberg((1.0, 2.0))
    gram = g.full_gram()
    assert gram[4, 4] == pytest.approx(16.0 / 17.0, abs=1e-12)
    # Cartan algebra: all five basis vectors orthonormal
    c = cartan_nilpotent()
    gram = c.full_gram()
    assert np.allclose(gram, np.eye(5), atol=1e-12)


def test_induced_gram_block_diagonal_positive():
    for g in (heisenberg((1.0, 1.5)), cartan_nilpotent()):
        gram = g.full_gram()
        np.linalg.cholesky(gram)
        for a in range(g.dim):
            for b in range(g.dim):
                if g.degree_of(a) != g.degree_of(b):
                    assert abs(gram[a, b]) < 1e-12


# ---------------------------------------------------------------------------
# isometry algebras


@pytest.mark.parametrize(
    "make,expected",
    [
        (lambda: heisenberg((1,)), 1),
        (lambda: heisenberg((1, 1)), 4),
        (lambda: heisenberg((1, 2)), 2),
        (cartan_nilpotent, 1),
    ],
)
def test_isometry_algebra_dims(make, expected):
    # the isometries of c * metric, and of c * brackets, are those of the
    # algebra, at every scale c
    g = make()
    for c in (1e-12, 1e-7, 1.0, 1e7, 1e12):
        scaled = CarnotAlgebra(g.layer_dims, g.brackets, metric1=c * g.metric1)
        assert len(isometry_algebra(scaled)) == expected, c
        brackets = {ab: {k: c * v for k, v in row.items()} for ab, row in g.brackets.items()}
        scaled = CarnotAlgebra(g.layer_dims, brackets, metric1=g.metric1)
        assert len(isometry_algebra(scaled)) == expected, c


def test_isometries_are_isometry_algebra_solved_once(monkeypatch):
    solved = []
    inner = lie.isometry_algebra
    monkeypatch.setattr(lie, "isometry_algebra", lambda g: solved.append(g) or inner(g))
    for make in (lambda: heisenberg((1, 2)), cartan_nilpotent):
        g = make()
        got = g.isometries()
        assert g.isometries() is got
        want = inner(g)
        assert len(got) == len(want)
        assert all(np.array_equal(d, w) for d, w in zip(got, want))
        # shared between callers, so no caller can change them
        assert not any(d.flags.writeable for d in got)
    assert len(solved) == 2


def test_cartan_isometry_generator_action():
    g = cartan_nilpotent()
    (D,) = isometry_algebra(g)
    # D is proportional to J: A1 -> A2, A2 -> -A1, B -> 0, C1 -> C2, C2 -> -C1
    J = np.zeros((5, 5))
    J[1, 0], J[0, 1] = 1.0, -1.0
    J[4, 3], J[3, 4] = 1.0, -1.0
    scale = D[1, 0]
    assert abs(scale) > 1e-8
    assert np.allclose(D, scale * J, atol=1e-10)


def test_isometry_closed_under_commutator():
    g = heisenberg((1, 1))
    basis = isometry_algebra(g)
    flat = np.array([D.flatten() for D in basis]).T
    for D1 in basis:
        for D2 in basis:
            C = (D1 @ D2 - D2 @ D1).flatten()
            resid = C - flat @ np.linalg.lstsq(flat, C, rcond=None)[0]
            assert np.abs(resid).max() < 1e-9


def test_isometry_skew_on_all_layers():
    for make in (lambda: heisenberg((1, 2)), cartan_nilpotent):
        g = make()
        gram = g.full_gram()
        for D in isometry_algebra(g):
            assert np.abs(gram @ D + (gram @ D).T).max() < 1e-9


def test_isometry_derivation_property():
    g = heisenberg((1, 2))
    C = g.structure_tensor()
    for D in isometry_algebra(g):
        for a in range(g.dim):
            for b in range(g.dim):
                lhs = np.einsum("c,cd->d", C[a, b], D.T)  # D [e_a, e_b]
                rhs = np.einsum("x,xc->c", D[:, a], C[:, b, :]) + np.einsum(
                    "x,xc->c", D[:, b], C[a, :, :]
                )
                assert np.abs(lhs - rhs).max() < 1e-9


# ---------------------------------------------------------------------------
# normal form


def test_normal_form_round_trip():
    g = heisenberg((1, 2))
    assert heisenberg_normal_form(g) == pytest.approx((1.0, 2.0), abs=1e-10)


def test_normal_form_scaled_metric():
    g = heisenberg((1,))
    scaled = CarnotAlgebra(g.layer_dims, g.brackets, metric1=4.0 * np.eye(2))
    assert heisenberg_normal_form(scaled) == pytest.approx((1.0,), abs=1e-12)


def test_normal_form_isometric_basis_change():
    rng = np.random.default_rng(3)
    g = heisenberg((1, 3))
    G = g.metric1
    w, q = np.linalg.eigh(G)
    gh = q @ np.diag(w ** 0.5) @ q.T
    ghi = q @ np.diag(w ** -0.5) @ q.T
    raw = rng.standard_normal((4, 4))
    orth, _ = np.linalg.qr(raw)
    O = ghi @ orth @ gh  # G-isometry of the -1 layer
    # transformed structure constants: [e'_a, e'_b] = sum O_xa O_yb [e_x, e_y]
    C = g.structure_tensor()
    newC = np.einsum("xa,yb,xyc->abc", O[:4, :4], O[:4, :4], C[:4, :4, :])
    brackets = {}
    for a in range(4):
        for b in range(a + 1, 4):
            if abs(newC[a, b, 4]) > 1e-15:
                brackets[(a, b)] = {4: float(newC[a, b, 4])}
    g2 = CarnotAlgebra((4, 1), brackets, metric1=G)
    assert heisenberg_normal_form(g2) == pytest.approx((1.0, 3.0), abs=1e-8)


def test_normal_form_center_rescale_invariant():
    g = heisenberg((1, 2))
    brackets = {
        pair: {c: 2 * v for c, v in row.items()} for pair, row in g.brackets.items()
    }
    g2 = CarnotAlgebra(g.layer_dims, brackets, metric1=g.metric1)
    assert heisenberg_normal_form(g2) == pytest.approx((1.0, 2.0), abs=1e-10)


def test_normal_form_degenerate_error():
    g = CarnotAlgebra((2, 1), {}, metric1=np.eye(2))
    with pytest.raises(LieError):
        heisenberg_normal_form(g)


def test_normal_forms_refuse_a_rank_two_form_with_rounded_entries():
    # B = u v^T - v u^T has rank 2 on a 4-dimensional layer.  Computed in
    # floats, the zero eigenvalues of -J^2 come out within about 1e-16 of the
    # largest, so for 5 of these forms their square roots pass a 1e-9 test;
    # the singular values of J come out within about 1e-16 of the largest
    rng = np.random.default_rng(11)
    u, v = rng.standard_normal((2, 50, 4))
    forms = u[:, :, None] * v[:, None, :] - v[:, :, None] * u[:, None, :]
    a = rng.standard_normal((50, 4, 4))
    metrics = a @ a.swapaxes(1, 2) + 0.5 * np.eye(4)
    for form, metric in zip(forms, metrics):
        with pytest.raises(LieError, match="degenerate bracket form"):
            lie.heisenberg_normal_forms(form[None], metric[None])


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_full_gram_of_a_scaled_metric(scale):
    # the positive-definiteness test is relative to the largest eigenvalue,
    # and the layer-2 Gram of h_1 under scale * I is scale^2
    g = heisenberg((1,))
    alg = CarnotAlgebra(g.layer_dims, g.brackets, metric1=scale * np.eye(2))
    assert np.allclose(alg.full_gram(), np.diag([scale, scale, scale**2]), rtol=1e-12, atol=0)
