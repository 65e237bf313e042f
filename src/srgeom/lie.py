"""Stratified (Carnot) Lie algebras.

A :class:`CarnotAlgebra` is a graded nilpotent Lie algebra generated by its
-1 layer, with an inner product on that layer. The module builds the
induced inner product on the higher layers, isometry algebras, and the two
model families (Heisenberg algebras h_n(lambda) and the rank-2 step-3 Cartan
nilpotent algebra), plus the Heisenberg normal-form invariant, computed for
stacked symbols (one per sample point) in one batched pass.

Layer conventions: layer k = 1..s corresponds to degree -k; the basis is
ordered layer by layer. Structure constants are given for index pairs a < b
and extended by antisymmetry into the dense structure tensor, which every
method except :meth:`CarnotAlgebra.bracket` reads.

The induced inner product (:meth:`CarnotAlgebra.full_gram`) makes the bracket
map a linear submetry from the 2-vectors of lower layers onto each layer
(recursively). Under this normalization the bracket picks up no spurious
factors: the selector's defining Gram property and its anti-bracket axiom
hold simultaneously, the Heisenberg center has |C|^2 = 1, and the (2,3,5)
model comes out with an orthonormal canonical frame.
"""

from __future__ import annotations

import numpy as np


class LieError(Exception):
    pass


class CarnotAlgebra:
    """Graded nilpotent Lie algebra generated by its -1 layer, with the inner
    product ``metric1`` on that layer (default: identity).

    ``brackets`` is ``{(a, b): {c: coeff}}`` with a < b; the constructor
    checks it against the grading.
    """

    def __init__(self, layer_dims, brackets, metric1=None):
        self.layer_dims = tuple(int(d) for d in layer_dims)
        self.dim = sum(self.layer_dims)
        self.step = len(self.layer_dims)
        self._degrees = [k for k, d in enumerate(self.layer_dims, start=1) for _ in range(d)]
        self.brackets = {
            pair: {c: v for c, v in row.items() if v != 0}
            for pair, row in brackets.items()
            if any(v != 0 for v in row.values())
        }
        C = np.zeros((self.dim, self.dim, self.dim))
        for (a, b), row in self.brackets.items():
            if not a < b:
                raise LieError("bracket table must be indexed with a < b")
            if a < 0 or b >= self.dim or any(not 0 <= c < self.dim for c in row):
                raise LieError(f"bracket [e{a}, e{b}] has an index outside range({self.dim})")
            for c, v in row.items():
                if self._degrees[c] != self._degrees[a] + self._degrees[b]:
                    raise LieError(
                        f"structure constant [e{a}, e{b}] -> e{c} violates the grading"
                    )
                C[a, b, c] = float(v)
                C[b, a, c] = -float(v)
        if not np.isfinite(C).all():
            raise LieError("structure constants must be finite")
        self._tensor = C
        d1 = self.layer_dims[0]
        if metric1 is None:
            metric1 = np.eye(d1)
        metric1 = np.array(metric1, dtype=float)
        if metric1.shape != (d1, d1):
            raise LieError("metric must be square of the -1 layer dimension")
        if not np.isfinite(metric1).all():
            raise LieError("metric must be finite")
        if np.abs(metric1 - metric1.T).max() > 1e-12:
            raise LieError("metric must be symmetric")
        try:
            np.linalg.cholesky(metric1)
        except np.linalg.LinAlgError as exc:
            raise LieError("metric must be positive-definite") from exc
        self.metric1 = metric1
        self._gram = None
        self._isometries = None

    def degree_of(self, idx: int) -> int:
        return self._degrees[idx]

    def layer_range(self, k: int) -> range:
        start = sum(self.layer_dims[: k - 1])
        return range(start, start + self.layer_dims[k - 1])

    def bracket(self, a: int, b: int) -> dict:
        """[e_a, e_b] as {index: coeff}."""
        if a == b:
            return {}
        if a < b:
            return dict(self.brackets.get((a, b), {}))
        return {c: -v for c, v in self.brackets.get((b, a), {}).items()}

    def structure_tensor(self) -> np.ndarray:
        """Dense float tensor C[a, b, c] with [e_a, e_b] = sum_c C[a,b,c] e_c."""
        return self._tensor

    def jacobi_residual(self) -> float:
        """Largest component of [[x, y], z] + [[y, z], x] + [[z, x], y] over basis triples."""
        C = self._tensor
        jacobi = (
            np.einsum("abw,wcu->abcu", C, C)
            + np.einsum("bcw,wau->abcu", C, C)
            + np.einsum("caw,wbu->abcu", C, C)
        )
        return float(np.abs(jacobi).max())

    def generation_ok(self) -> bool:
        """[g_{-1}, g_{-k}] spans g_{-k-1} for k < s.

        Each layer map is ranked relative to its largest entry, so scaling
        the brackets does not change the answer.
        """
        r1 = self.layer_range(1)
        for k in range(1, self.step):
            rk, target = self.layer_range(k), self.layer_range(k + 1)
            mat = self._tensor[r1.start : r1.stop, rk.start : rk.stop, target.start : target.stop]
            mat = mat.reshape(-1, len(target))
            if np.linalg.matrix_rank(mat, tol=1e-9 * np.abs(mat).max()) < len(target):
                return False
        return True

    def full_gram(self) -> np.ndarray:
        """Inner product on all of the algebra (layers mutually orthogonal), made once."""
        if self._gram is None:
            self._gram = _induced_gram(self)
        return self._gram

    def isometries(self) -> tuple:
        """:func:`isometry_algebra` of this algebra, solved on first use and kept.

        Every caller gets the same matrices, so they are read-only.
        """
        if self._isometries is None:
            basis = isometry_algebra(self)
            for d in basis:
                d.flags.writeable = False
            self._isometries = tuple(basis)
        return self._isometries


def _onb_columns(gram: np.ndarray) -> np.ndarray:
    """Columns are coordinates of an orthonormal basis for the given Gram.

    Positive-definiteness is tested relative to the largest eigenvalue, so
    scaling the Gram matrix does not change the answer.
    """
    w, q = np.linalg.eigh(gram)
    if not w.min() > 1e-12 * w.max():
        raise LieError("Gram matrix is not positive-definite")
    return q @ np.diag(w ** -0.5)


def _induced_gram(g: CarnotAlgebra) -> np.ndarray:
    """Block-diagonal inner product on all layers.

    Layer k >= 2 is defined recursively so that the bracket map from the
    orthonormalized 2-vectors of lower layers onto layer k is a submetry.
    """
    C = g.structure_tensor()
    gram = np.zeros((g.dim, g.dim))
    r1 = g.layer_range(1)
    gram[np.ix_(r1, r1)] = g.metric1
    degrees = np.array([g.degree_of(a) for a in range(g.dim)])
    for k in range(2, g.step + 1):
        # the wedges e_a ^ e_b, a < b, of degree k
        wa, wb = np.nonzero(np.triu(degrees[:, None] + degrees[None, :] == k, 1))
        wgram = (
            gram[np.ix_(wa, wa)] * gram[np.ix_(wb, wb)]
            - gram[np.ix_(wa, wb)] * gram[np.ix_(wb, wa)]
        )
        onb = _onb_columns(wgram)
        rk = g.layer_range(k)
        bon = C[wa, wb, rk.start : rk.stop].T @ onb
        ginv = bon @ bon.T
        block = np.linalg.inv(ginv)
        gram[np.ix_(rk, rk)] = block
    return gram


# ---------------------------------------------------------------------------
# model algebras


def heisenberg(lam) -> CarnotAlgebra:
    """Heisenberg algebra h_n(lambda): [A_j, B_j] = C, <A_j,A_j> = lambda_j^2."""
    lam = tuple(lam)
    n = len(lam)
    if n < 1:
        raise LieError("lambda must be nonempty")
    if abs(float(lam[0]) - 1.0) > 1e-12:
        raise LieError("normalization requires lambda_1 = 1")
    for i in range(n - 1):
        if float(lam[i]) > float(lam[i + 1]) + 1e-12:
            raise LieError("lambda must be nondecreasing")
    brackets = {(j, n + j): {2 * n: 1} for j in range(n)}
    metric = np.diag([float(l) ** 2 for l in lam] * 2)
    return CarnotAlgebra((2 * n, 1), brackets, metric1=metric)


def cartan_nilpotent() -> CarnotAlgebra:
    """The unique Carnot algebra with growth vector (2,3,5), basis A1, A2, B, C1, C2."""
    brackets = {(0, 1): {2: 1}, (0, 2): {3: 1}, (1, 2): {4: 1}}
    return CarnotAlgebra((2, 1, 2), brackets)


# ---------------------------------------------------------------------------
# isometry algebras


def isometry_algebra(g: CarnotAlgebra):
    """Basis of the degree-0 derivations skew-symmetric on the -1 layer.

    Returns a list of dim x dim float matrices (block-diagonal by layer),
    an orthonormal basis of the solution space in flattened coordinates.
    The derivation rows use the structure tensor divided by the power of two
    nearest its largest entry, the skew rows the metric divided by its
    largest entry, and the null space is cut relative to the largest
    singular value, so scaling the brackets or the metric does not change
    the answer.
    """
    n = g.dim
    deg = np.array(g._degrees)
    same = deg[:, None] == deg[None, :]
    # var[row, col] is the index of the unknown D_{row col}: the layer blocks
    # one after the other, each row-major; -1 off the blocks
    nvars = int(np.count_nonzero(same))
    var = np.full((n, n), -1)
    var[same] = np.arange(nvars)

    C = g.structure_tensor()
    if C.any():  # a power of two divides exactly: a largest constant of 1 keeps its bits
        C = C / 2.0 ** round(np.log2(np.abs(C).max()))
    # derivation: sum_x D_{xa} c_{xb}^c + sum_x D_{xb} c_{ax}^c = sum_{c'} c_{ab}^{c'} D_{c c'},
    # one row per a < b and c of degree deg a + deg b; the three sums set
    # distinct unknowns, each from one non-zero constant
    dg = g._degrees
    a, b, c = np.array(
        [(a, b, c) for a in range(n) for b in range(a + 1, n) for c in range(n) if dg[c] == dg[a] + dg[b]],
        dtype=int,
    ).reshape(-1, 3).T[:, :, None]
    x = np.arange(n)
    # [term, row, x]: D_{xa} c_{xb}^c, D_{xb} c_{ax}^c and -c_{ab}^{x} D_{c x}
    index = np.array([var[x, a], var[x, b], var[c, x]])
    value = np.array([C[x, b, c], C[a, x, c], -C[a, b, x]])
    live = (index >= 0) & (value != 0)
    derivation = np.zeros((len(a), nvars))
    derivation[np.nonzero(live)[1], index[live]] = value[live]
    derivation = derivation[derivation.any(axis=1)]
    # skew on the -1 layer: (G D)^T + G D = 0, one row per i <= j
    G1 = g.metric1 / np.abs(g.metric1).max()
    d1 = g.layer_dims[0]
    si, sj = np.array([(i, j) for i in range(d1) for j in range(i, d1)]).T
    skew = np.zeros((len(si), nvars))
    rows = np.arange(len(si))[:, None]
    skew[rows, var[:d1, sj].T] += G1[si]  # G1[i, m] at D_{mj}
    skew[rows, var[:d1, si].T] += G1[sj]  # G1[j, m] at D_{mi}

    _, sv, vt = np.linalg.svd(np.concatenate([derivation, skew]))
    null = [vt[i] for i in range(vt.shape[0]) if i >= sv.size or sv[i] <= 1e-10 * sv[0]]
    out = []
    for vec in null:
        D = np.zeros((n, n))
        D[same] = vec
        out.append(D)
    return out


# ---------------------------------------------------------------------------
# Heisenberg normal form


def heisenberg_normal_forms(B, G) -> np.ndarray:
    """The lambda invariants of stacked step-2 symbols with a rank-1 center.

    ``B[x]`` and ``G[x]`` are the bracket form and the inner product of symbol
    x on its -1 layer.  In G-orthonormal coordinates J = G^-1 B is the skew
    matrix K = G^-1/2 B G^-1/2, whose eigenvalues are ±i sigma for the
    singular values sigma of J; iK is Hermitian, so one batched ``eigvalsh``
    finds every sigma to within rounding of the largest.  Row x lists the
    square roots of the largest sigma over each sigma, ascending, so
    lambda_1 = 1.  The form is degenerate when its smallest sigma is below
    1e-9 times its largest; sigma scales like lambda^-2.
    """
    B, G = np.asarray(B, dtype=float), np.asarray(G, dtype=float)
    if B.shape != G.shape or B.shape[-1] % 2:
        raise LieError("normal form requires bracket forms and metrics of one even rank")
    w, q = np.linalg.eigh(G)
    root = (q * w[..., None, :] ** -0.5) @ np.swapaxes(q, -1, -2)  # G^-1/2
    # the upper half of the eigenvalues of iK, ascending
    sigma = np.linalg.eigvalsh(1j * (root @ B @ root))[..., B.shape[-1] // 2 :]
    if not np.all(sigma[..., 0] > 1e-9 * sigma[..., -1]):
        raise LieError("degenerate bracket form")
    return np.sqrt(sigma[..., -1:] / sigma[..., ::-1])


def heisenberg_normal_form(g: CarnotAlgebra) -> tuple:
    """:func:`heisenberg_normal_forms` of one algebra with layer dims (2n, 1)."""
    return tuple(heisenberg_normal_forms(g.structure_tensor()[None, :-1, :-1, -1], g.metric1[None])[0])
