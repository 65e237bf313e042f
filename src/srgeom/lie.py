"""Stratified (Carnot) Lie algebras.

Construction and validation of stratified algebras with exact rational
structure constants, free nilpotent algebras on a Hall basis, the induced
inner product on the higher layers, isometry algebras, and the two model
families (Heisenberg algebras h_n(lambda) and the rank-2 step-3 Cartan
nilpotent algebra), plus the Heisenberg normal-form invariant.

Layer conventions: layer k = 1..s corresponds to degree -k; the basis is
ordered layer by layer. Structure constants are stored for index pairs a < b
and extended by antisymmetry.

The induced inner product (:meth:`CarnotAlgebra.full_gram`) makes the bracket
map a linear submetry from the 2-vectors of lower layers onto each layer
(recursively). Under this normalization the bracket picks up no spurious
factors: the selector's defining Gram property and its anti-bracket axiom
hold simultaneously, the Heisenberg center has |C|^2 = 1, and the (2,3,5)
model comes out with an orthonormal canonical frame.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class LieError(Exception):
    pass


class ResourceError(LieError):
    pass


class StratifiedAlgebra:
    """Graded nilpotent Lie algebra generated by its -1 layer."""

    def __init__(self, layer_dims, labels, brackets, check=True):
        self.layer_dims = tuple(int(d) for d in layer_dims)
        self.dim = sum(self.layer_dims)
        self.step = len(self.layer_dims)
        self.labels = tuple(labels)
        if len(self.labels) != self.dim:
            raise LieError("label count does not match dimension")
        # brackets: {(a, b): {c: coeff}} with a < b; coeff Fraction or float
        self.brackets = {
            pair: {c: v for c, v in row.items() if v != 0}
            for pair, row in brackets.items()
            if any(v != 0 for v in row.values())
        }
        self._degrees = []
        for k, d in enumerate(self.layer_dims, start=1):
            self._degrees.extend([k] * d)
        self._tensor = None
        if check:
            self._check_grading()

    def degree_of(self, idx: int) -> int:
        return self._degrees[idx]

    def layer_range(self, k: int) -> range:
        start = sum(self.layer_dims[: k - 1])
        return range(start, start + self.layer_dims[k - 1])

    def _check_grading(self):
        for (a, b), row in self.brackets.items():
            if not a < b:
                raise LieError("bracket table must be indexed with a < b")
            k = self._degrees[a] + self._degrees[b]
            for c in row:
                if self._degrees[c] != k:
                    raise LieError(
                        f"structure constant [{self.labels[a]},{self.labels[b]}] -> "
                        f"{self.labels[c]} violates the grading"
                    )

    def bracket(self, a: int, b: int) -> dict:
        """[e_a, e_b] as {index: coeff}."""
        if a == b:
            return {}
        if a < b:
            return dict(self.brackets.get((a, b), {}))
        return {c: -v for c, v in self.brackets.get((b, a), {}).items()}

    def structure_tensor(self) -> np.ndarray:
        """Dense float tensor C[a, b, c] with [e_a, e_b] = sum_c C[a,b,c] e_c."""
        if self._tensor is None:
            C = np.zeros((self.dim, self.dim, self.dim))
            for (a, b), row in self.brackets.items():
                for c, v in row.items():
                    C[a, b, c] = float(v)
                    C[b, a, c] = -float(v)
            self._tensor = C
        return self._tensor

    def is_exact(self) -> bool:
        return all(
            isinstance(v, (Fraction, int))
            for row in self.brackets.values()
            for v in row.values()
        )

    def jacobi_residual(self):
        """Exact Fraction 0 iff Jacobi holds (exact algebras); float residual else."""
        exact = self.is_exact()
        worst = Fraction(0) if exact else 0.0
        for a in range(self.dim):
            for b in range(a + 1, self.dim):
                for c in range(b + 1, self.dim):
                    acc: dict = {}
                    for (x, y, z) in ((a, b, c), (b, c, a), (c, a, b)):
                        for w, v in self.bracket(x, y).items():
                            for u, vv in self.bracket(w, z).items():
                                acc[u] = acc.get(u, 0) + v * vv
                    for val in acc.values():
                        mag = abs(val)
                        if mag > worst:
                            worst = mag
        return worst

    def generation_ok(self, tol: float = 1e-9) -> bool:
        """[g_{-1}, g_{-k}] spans g_{-k-1} for k < s (numeric rank check)."""
        for k in range(1, self.step):
            target = self.layer_range(k + 1)
            cols = []
            for a in self.layer_range(1):
                for b in self.layer_range(k):
                    row = self.bracket(a, b)
                    cols.append([float(row.get(c, 0)) for c in target])
            mat = np.array(cols, dtype=float).T if cols else np.zeros((len(target), 0))
            if len(target) == 0:
                continue
            rank = np.linalg.matrix_rank(mat, tol=tol * max(1.0, float(np.abs(mat).max(initial=0.0))))
            if rank < len(target):
                return False
        return True


class CarnotAlgebra(StratifiedAlgebra):
    """Stratified algebra with an inner product on the -1 layer."""

    def __init__(self, layer_dims, labels, brackets, metric1=None, check=True):
        super().__init__(layer_dims, labels, brackets, check=check)
        d1 = self.layer_dims[0]
        if metric1 is None:
            metric1 = np.eye(d1)
        metric1 = np.array(metric1, dtype=float)
        if metric1.shape != (d1, d1):
            raise LieError("metric must be square of the -1 layer dimension")
        if np.abs(metric1 - metric1.T).max() > 1e-12:
            raise LieError("metric must be symmetric")
        try:
            np.linalg.cholesky(metric1)
        except np.linalg.LinAlgError as exc:
            raise LieError("metric must be positive-definite") from exc
        self.metric1 = metric1
        self._gram = None
        self._isometries = None

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
    """Columns are coordinates of an orthonormal basis for the given Gram."""
    w, q = np.linalg.eigh(gram)
    if w.min() <= 1e-12 * max(1.0, w.max()):
        raise LieError("Gram matrix is not positive-definite")
    return q @ np.diag(w ** -0.5)


def _induced_gram(g: CarnotAlgebra) -> np.ndarray:
    """Block-diagonal inner product on all layers.

    Layer k >= 2 is defined recursively so that the bracket map from the
    orthonormalized 2-vectors of lower layers onto layer k is a submetry.
    """
    gram = np.zeros((g.dim, g.dim))
    r1 = g.layer_range(1)
    gram[np.ix_(r1, r1)] = g.metric1
    for k in range(2, g.step + 1):
        wedges = [
            (a, b)
            for a in range(g.dim)
            for b in range(a + 1, g.dim)
            if g.degree_of(a) + g.degree_of(b) == k
        ]
        m = len(wedges)
        wgram = np.zeros((m, m))
        for i, (a, b) in enumerate(wedges):
            for j, (c, d) in enumerate(wedges):
                wgram[i, j] = gram[a, c] * gram[b, d] - gram[a, d] * gram[b, c]
        onb = _onb_columns(wgram)
        rk = g.layer_range(k)
        bmat = np.zeros((len(rk), m))
        for i, (a, b) in enumerate(wedges):
            row = g.bracket(a, b)
            for c, v in row.items():
                bmat[c - rk.start, i] = float(v)
        bon = bmat @ onb
        ginv = bon @ bon.T
        block = np.linalg.inv(ginv)
        gram[np.ix_(rk, rk)] = block
    return gram


# ---------------------------------------------------------------------------
# free nilpotent algebras (Hall basis)


def _hall_elements(n: int, s: int, dim_cap: int):
    """Hall set for n generators up to degree s.

    Elements are ints (generator index) or index pairs (u, v) into the list;
    the list order (degree-major) is the Hall order used in the defining
    condition: [u, v] with u > v, and u = [u1, u2] requires u2 <= v.
    """
    elements: list = list(range(n))
    degrees = [1] * n
    for d in range(2, s + 1):
        count = len(elements)
        new = []
        for v in range(count):
            for u in range(v + 1, count):
                if degrees[u] + degrees[v] != d:
                    continue
                eu = elements[u]
                if isinstance(eu, tuple) and eu[1] > v:
                    continue
                new.append((u, v))
        elements.extend(new)
        degrees.extend([d] * len(new))
        if len(elements) > dim_cap:
            raise ResourceError(
                f"free nilpotent algebra exceeds the dimension cap ({dim_cap})"
            )
    return elements, degrees


def free_nilpotent(generator_dim: int, step: int, inner_product=None, dim_cap: int = 64) -> CarnotAlgebra:
    """Free nilpotent Carnot algebra on `generator_dim` generators of the given step."""
    n, s = int(generator_dim), int(step)
    if n < 2 or s < 1:
        raise LieError("need generator_dim >= 2 and step >= 1")
    elements, degrees = _hall_elements(n, s, dim_cap)
    index_of = {e: i for i, e in enumerate(elements) if isinstance(e, tuple)}
    memo: dict = {}

    def reduce(u: int, v: int) -> dict:
        if u == v:
            return {}
        if u < v:
            return {c: -x for c, x in reduce(v, u).items()}
        if degrees[u] + degrees[v] > s:
            return {}
        key = (u, v)
        hit = memo.get(key)
        if hit is not None:
            return hit
        eu = elements[u]
        if not isinstance(eu, tuple) or eu[1] <= v:
            out = {index_of[(u, v)]: Fraction(1)}
        else:
            # [[u1,u2],v] = [u1,[u2,v]] - [u2,[u1,v]]
            u1, u2 = eu
            out: dict = {}
            for w, c in reduce(u2, v).items():
                for x, cc in reduce(u1, w).items():
                    out[x] = out.get(x, Fraction(0)) + c * cc
            for w, c in reduce(u1, v).items():
                for x, cc in reduce(u2, w).items():
                    out[x] = out.get(x, Fraction(0)) - c * cc
            out = {x: c for x, c in out.items() if c != 0}
        memo[key] = out
        return out

    brackets = {}
    for a in range(len(elements)):
        for b in range(a + 1, len(elements)):
            if degrees[a] + degrees[b] > s:
                continue
            row = reduce(b, a)
            # stored for (a, b) = -[b, a]
            row = {c: -v for c, v in row.items()}
            if row:
                brackets[(a, b)] = row

    def label(i) -> str:
        e = elements[i]
        if not isinstance(e, tuple):
            return f"A{e + 1}"
        return f"[{label(e[0])},{label(e[1])}]"

    dims = [degrees.count(d) for d in range(1, s + 1)]
    labels = [label(i) for i in range(len(elements))]
    return CarnotAlgebra(dims, labels, brackets, metric1=inner_product)


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
    labels = [f"A{j+1}" for j in range(n)] + [f"B{j+1}" for j in range(n)] + ["C"]
    brackets = {(j, n + j): {2 * n: Fraction(1)} for j in range(n)}
    metric = np.diag([float(l) ** 2 for l in lam] * 2)
    return CarnotAlgebra((2 * n, 1), labels, brackets, metric1=metric)


def cartan_nilpotent() -> CarnotAlgebra:
    """The unique Carnot algebra with growth vector (2,3,5)."""
    labels = ("A1", "A2", "B", "C1", "C2")
    brackets = {
        (0, 1): {2: Fraction(1)},
        (0, 2): {3: Fraction(1)},
        (1, 2): {4: Fraction(1)},
    }
    return CarnotAlgebra((2, 1, 2), labels, brackets)


# ---------------------------------------------------------------------------
# isometry algebras


def isometry_algebra(g: CarnotAlgebra, tol: float = 1e-10):
    """Basis of the degree-0 derivations skew-symmetric on the -1 layer.

    Returns a list of dim x dim float matrices (block-diagonal by layer),
    an orthonormal basis of the solution space in flattened coordinates.
    """
    blocks = [(k, g.layer_range(k)) for k in range(1, g.step + 1)]
    offsets = {}
    nvars = 0
    for k, rng in blocks:
        d = len(rng)
        offsets[k] = nvars
        nvars += d * d

    def var_idx(row: int, col: int) -> int:
        k = g.degree_of(row)
        if g.degree_of(col) != k:
            raise LieError("degree-0 parametrization violated")
        rng = g.layer_range(k)
        d = len(rng)
        return offsets[k] + (row - rng.start) * d + (col - rng.start)

    C = g.structure_tensor()
    rows = []
    # derivation: sum_x D_{xa} c_{xb}^c + sum_x D_{xb} c_{ax}^c = sum_{c'} c_{ab}^{c'} D_{c c'}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            k_out = g.degree_of(a) + g.degree_of(b)
            if k_out > g.step:
                continue
            for c in g.layer_range(k_out):
                row = np.zeros(nvars)
                for x in g.layer_range(g.degree_of(a)):
                    if C[x, b, c]:
                        row[var_idx(x, a)] += C[x, b, c]
                for x in g.layer_range(g.degree_of(b)):
                    if C[a, x, c]:
                        row[var_idx(x, b)] += C[a, x, c]
                for cp in g.layer_range(k_out):
                    if C[a, b, cp]:
                        row[var_idx(c, cp)] -= C[a, b, cp]
                if np.any(row):
                    rows.append(row)
    # skew on the -1 layer: (G D)^T + G D = 0
    G1 = g.metric1
    r1 = g.layer_range(1)
    d1 = len(r1)
    for i in range(d1):
        for j in range(i, d1):
            row = np.zeros(nvars)
            for m in range(d1):
                row[var_idx(r1.start + m, r1.start + j)] += G1[i, m]
                row[var_idx(r1.start + m, r1.start + i)] += G1[j, m]
            rows.append(row)

    A = np.array(rows) if rows else np.zeros((1, nvars))
    _, sv, vt = np.linalg.svd(A)
    smax = sv[0] if sv.size else 0.0
    null = [vt[i] for i in range(vt.shape[0]) if i >= sv.size or sv[i] <= tol * max(smax, 1.0)]
    out = []
    for vec in null:
        D = np.zeros((g.dim, g.dim))
        for k, rng in blocks:
            d = len(rng)
            off = offsets[k]
            D[np.ix_(rng, rng)] = vec[off : off + d * d].reshape(d, d)
        out.append(D)
    return out


# ---------------------------------------------------------------------------
# Heisenberg normal form


def heisenberg_normal_form(g: CarnotAlgebra, tol: float = 1e-9):
    """The lambda invariant of a step-2 algebra with rank-1 center.

    Eigenvalues of -(J^theta)^2 are normalized so the largest is 1; the
    returned vector lists the fourth-root reciprocals sorted ascending
    (lambda_1 = 1), one entry per eigenvalue pair.
    """
    if g.step != 2 or g.layer_dims[1] != 1:
        raise LieError("normal form requires layer dims (2n, 1)")
    d1 = g.layer_dims[0]
    if d1 % 2 != 0:
        raise LieError("the -1 layer of a nondegenerate step-2 algebra has even rank")
    center = g.dim - 1
    B = np.zeros((d1, d1))
    for a in range(d1):
        for b in range(a + 1, d1):
            v = g.bracket(a, b).get(center, 0)
            B[a, b] = float(v)
            B[b, a] = -float(v)
    scale = np.abs(B).max()
    if scale == 0 or np.linalg.matrix_rank(B, tol=tol * scale) < d1:
        raise LieError("degenerate bracket form")
    G = g.metric1
    J = np.linalg.solve(G, B)
    M = -J @ J
    # symmetrize in G-orthonormal coordinates
    w, q = np.linalg.eigh(G)
    gh = q @ np.diag(w ** 0.5) @ q.T
    ghi = q @ np.diag(w ** -0.5) @ q.T
    sym = gh @ M @ ghi
    ev = np.linalg.eigvalsh((sym + sym.T) / 2.0)
    ev = np.sort(ev)[::-1]
    if ev[-1] <= tol * ev[0]:
        raise LieError("degenerate bracket form")
    pairs = [(ev[2 * i] + ev[2 * i + 1]) / 2.0 for i in range(d1 // 2)]
    top = pairs[0]
    lam = sorted((e / top) ** -0.25 for e in pairs)
    return tuple(lam)
