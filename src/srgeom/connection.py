"""Gradings, taming metrics, selectors, and graded affine connections.

A :class:`Grading` equips a framed manifold with an adapted frame split into
layers spanning a complement decomposition of the bracket flag.  In adapted
coordinates the induced identification of the tangent space with its graded
symbol is simply "read the frame components", which makes the taming metric,
the canonical selector, the degree-zero torsion, and the isometry subbundle
all concretely computable, either symbolically or pointwise from the symbol
algebra.  A :class:`Connection` stores frame Christoffel coefficients and
provides torsion/curvature tensors plus the compatibility, normalization,
and flatness checks and the normal-geodesic integrator.

Symbolic where a construction reads expressions: structure functions,
degree-0 torsion, taming metric, selector (solved once per grading), Γ and
the symbolic tensors listed on :class:`Connection`.  From values where only
points are read: each check evaluates the tables it reads (Γ, structure
functions, T₀, frame rows, the non-zero coordinate derivatives of Γ and T₀,
selector coefficients) in one :func:`expr.evaluate_tables` call for all of
its points, then assembles torsion, curvature and ∇T₀ one point at a time
with ``einsum`` from that point's slices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .lie import CarnotAlgebra, _onb_columns, isometry_algebra
from .manifold import (
    FramedManifold,
    ManifoldError,
    VectorField,
    _checked_frame,
    _checked_metric,
    _flags,
    _gauss_jordan,
    bracket,
    frame_combination,
    frame_inverse,
    structure_functions,
)

__all__ = [
    "Grading",
    "left_invariant_grading",
    "TamingMetric",
    "taming_metric",
    "Selector",
    "selector",
    "Connection",
    "flat_frame_connection",
    "levi_civita",
    "torsion",
    "curvature",
    "t_zero",
    "check_compatible",
    "check_morimoto",
    "flatness_check",
    "torsion_id_residual",
    "curvature_isometry_residual",
    "normal_geodesic",
    "CompatibilityReport",
    "MorimotoReport",
    "FlatnessReport",
]

_ZERO = expr.rational(0)


class Grading:
    """Adapted frame whose layer blocks realize a grading of the tangent bundle.

    ``layers`` is a sequence of sequences of vector fields; the first block
    must span the horizontal bundle (its size equals the horizontal rank) and
    block number k spans a complement of the (k-1)-th flag subbundle inside
    the k-th.  ``metric`` gives the horizontal inner product in the adapted
    horizontal frame (default: identity, i.e. that frame is orthonormal).
    """

    def __init__(self, manifold: FramedManifold, layers, metric=None):
        self.base = manifold
        layer_list = [tuple(block) for block in layers]
        if not layer_list or len(layer_list[0]) != manifold.rank:
            raise ManifoldError(
                "the first grading layer must have exactly the horizontal rank"
            )
        fields = [f for block in layer_list for f in block]
        if len(fields) != manifold.dim:
            raise ManifoldError(
                f"adapted frame needs {manifold.dim} fields, got {len(fields)}"
            )
        self.layer_dims = tuple(len(block) for block in layer_list)
        self.step = len(self.layer_dims)
        components = []
        for f in fields:
            if isinstance(f, VectorField):
                components.append(list(f.components))
            else:
                components.append(list(f))
        # internal framed manifold over the adapted frame; reuses the
        # symbolic frame-inverse and structure-function machinery
        self.frame = FramedManifold(
            manifold.coords,
            components,
            manifold.rank,
            metric=metric,
            structure_class=manifold.structure_class,
        )
        self.degrees = tuple(
            k + 1 for k, d in enumerate(self.layer_dims) for _ in range(d)
        )
        self._symbol_cache = {}
        self._fields = self.frame.frames
        # rows[i][a]: coordinate component a of the i-th adapted field
        self.frame_rows = tuple(f.components for f in self._fields)
        self._t_zero = None
        self._t_zero_gradient = None
        self._selector = None

    # -- bookkeeping --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.frame.dim

    @property
    def fields(self):
        return self._fields

    def degree_of(self, a: int) -> int:
        return self.degrees[a]

    def layer_range(self, k: int) -> range:
        start = sum(self.layer_dims[: k - 1])
        return range(start, start + self.layer_dims[k - 1])

    def structure_functions(self):
        return structure_functions(self.frame)

    def coframe(self):
        return frame_inverse(self.frame)

    def components_in_frame(self, v: VectorField):
        """Adapted-frame components of a vector field (list of Expr)."""
        finv = self.coframe()
        n = self.dim
        return [
            expr.add(*[expr.mul(finv[i][a], v.components[a]) for a in range(n)])
            for i in range(n)
        ]

    # -- pointwise graded data ----------------------------------------------

    def graded_structure_at(self, point: dict) -> np.ndarray:
        """Structure functions at a point, restricted to exact-degree targets."""
        return -expr.evaluate_array(self.t_zero_tensor(), self.frame.point(point))

    def symbol_algebra_at(self, point: dict) -> CarnotAlgebra:
        """Pointwise symbol: the graded structure constants plus the metric."""
        return self.symbol_algebras_at([point])[0]

    def symbol_algebras_at(self, points) -> list:
        """Pointwise symbols at several points, each built once per point.

        The points not seen before are evaluated together: one call for the
        structure constants and one for the metric, whatever their number.
        """
        pts = [self.frame.point(p) for p in points]
        keys = [tuple(sorted(p.items())) for p in pts]
        fresh = {k: p for k, p in zip(keys, pts) if k not in self._symbol_cache}
        if fresh:
            n = self.dim
            labels = tuple(f"W{a+1}" for a in range(n))
            tzs = expr.evaluate_tables([self.t_zero_tensor()], fresh.values())[0]
            metrics = self.frame.metrics_at(fresh.values())
            for key, tz, metric in zip(fresh, tzs, metrics):
                cg = -tz
                brackets = {}
                for a in range(n):
                    for b in range(a + 1, n):
                        row = {
                            c: float(cg[a, b, c])
                            for c in range(n)
                            if abs(cg[a, b, c]) > 1e-13
                        }
                        if row:
                            brackets[a, b] = row
                self._symbol_cache[key] = CarnotAlgebra(
                    self.layer_dims, labels, brackets, metric1=metric
                )
        return [self._symbol_cache[k] for k in keys]

    def gram_at(self, point: dict, convention: str = "selector") -> np.ndarray:
        """Taming metric in adapted coordinates at a point."""
        return self.symbol_algebra_at(point).full_gram(convention)

    def isometries_at(self, point: dict):
        """Basis of the pointwise isometry algebra, in adapted coordinates."""
        return isometry_algebra(self.symbol_algebra_at(point))

    def t_zero_tensor(self):
        """Degree-0 torsion tensor in the adapted frame (Expr entries).

        Entry [i][j][k] holds the k-th component of the value on the i-th
        and j-th adapted fields; it is the negated exact-degree part of the
        structure functions.
        """
        if self._t_zero is None:
            c = self.structure_functions()
            n = self.dim
            out = [[[_ZERO for _ in range(n)] for _ in range(n)] for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    kdeg = self.degrees[i] + self.degrees[j]
                    if kdeg > self.step:
                        continue
                    for k in self.layer_range(kdeg):
                        out[i][j][k] = expr.neg(c[i][j][k])
            self._t_zero = out
        return self._t_zero

    def t_zero_gradient(self):
        """Non-zero coordinate derivatives of the degree-0 torsion, built once."""
        if self._t_zero_gradient is None:
            self._t_zero_gradient = _coordinate_gradient(self.t_zero_tensor(), self.frame.coords)
        return self._t_zero_gradient

    def validate(self, points):
        """Check the flag decomposition at sample points; returns max residual.

        For each k, the span of the adapted fields of degrees <= k must equal
        the k-th bracket-flag subspace of the base manifold's horizontal
        bundle, and the two spans must fill it as a direct sum.  The flag and
        its layer columns come from one flag pass over all points.
        """
        pts = [self.base.point(p) for p in points]
        passes = _flags(self.base, pts, self.step)
        adapted_frames = self.frame.frame_matrices_at(pts)
        want = tuple(sum(self.layer_dims[: k + 1]) for k in range(self.step))
        worst = 0.0
        for p, (base_inv, flag, layers), fmat in zip(pts, passes, adapted_frames):
            if flag != want:
                raise ManifoldError(
                    f"grading layer sizes {want} do not match the flag {flag} at {p}"
                )
            adapted = base_inv @ fmat
            for k in range(1, self.step + 1):
                cols = adapted[:, : want[k - 1]]
                # adapted columns must lie inside the flag subspace...
                q, _ = np.linalg.qr(np.hstack(layers[:k]))
                qr = q[:, : flag[k - 1]]
                resid = np.abs(cols - qr @ (qr.T @ cols)).max()
                worst = max(worst, float(resid))
                # ...and span it
                if np.linalg.matrix_rank(cols, tol=1e-9) != want[k - 1]:
                    raise ManifoldError(
                        f"adapted layers through {k} are dependent at {p}"
                    )
        return worst


def left_invariant_grading(m: FramedManifold, layer_dims, metric=None) -> Grading:
    """Grading whose layers are consecutive blocks of the manifold frame."""
    layer_dims = tuple(layer_dims)
    if sum(layer_dims) != m.dim:
        raise ManifoldError("layer dimensions must sum to the chart dimension")
    blocks = []
    start = 0
    for d in layer_dims:
        blocks.append(m.frames[start : start + d])
        start += d
    if metric is None:
        metric = [list(row) for row in m.metric]
    return Grading(m, blocks, metric=metric)


# ---------------------------------------------------------------------------
# taming metric


@dataclass
class TamingMetric:
    """Full metric induced on the tangent bundle by a grading."""

    grading: Grading
    convention: str
    matrix: tuple  # n x n Expr entries in the adapted frame

    def at(self, point) -> np.ndarray:
        return expr.evaluate_array(self.matrix, self.grading.frame.point(point))


def _wedge_classes(grading: Grading):
    """Wedge index pairs grouped by their degree multiset."""
    groups: dict = {}
    n = grading.dim
    for a in range(n):
        for b in range(a + 1, n):
            key = tuple(sorted((grading.degree_of(a), grading.degree_of(b))))
            groups.setdefault(key, []).append((a, b))
    return groups


def _symbolic_inverse(matrix):
    size = len(matrix)
    rows = [
        list(matrix[r]) + [expr.rational(1 if c == r else 0) for c in range(size)]
        for r in range(size)
    ]
    reduced = _gauss_jordan(rows, size)
    return [row[size:] for row in reduced]


def _wedge_gram_inverse(gmat, wedges):
    """Symbolic inverse of the Gram matrix of the wedges ``(a, b)`` under ``gmat``."""
    return _symbolic_inverse(
        [
            [
                expr.sub(
                    expr.mul(gmat[a][cc], gmat[b][d]),
                    expr.mul(gmat[a][d], gmat[b][cc]),
                )
                for (cc, d) in wedges
            ]
            for (a, b) in wedges
        ]
    )


def taming_metric(m: FramedManifold, grading: Grading, convention: str = "selector") -> TamingMetric:
    """Extend the horizontal metric over the whole adapted frame.

    Layer one carries the declared horizontal metric.  Each higher layer is
    built so that bracketing orthonormal 2-vectors of lower layers onto it
    is a submetry; concretely the layer's inverse Gram is B W^{-1} B^T with
    W the Gram of the lower-degree wedges and B the bracket coefficients.
    The ``tensor`` flavor rescales layer k by 2^(1-k).
    """
    if convention not in ("selector", "tensor"):
        raise ManifoldError(f"unknown inner-product convention {convention!r}")
    if grading.base is not m:
        raise ManifoldError("grading does not belong to this manifold")
    n = grading.dim
    c = grading.structure_functions()
    gmat = [[_ZERO for _ in range(n)] for _ in range(n)]
    r1 = grading.layer_range(1)
    for i in r1:
        for j in r1:
            gmat[i][j] = grading.frame.metric[i][j]

    for k in range(2, grading.step + 1):
        wedges = [
            (a, b)
            for a in range(n)
            for b in range(a + 1, n)
            if grading.degree_of(a) + grading.degree_of(b) == k
        ]
        winv = _wedge_gram_inverse(gmat, wedges)
        rk = grading.layer_range(k)
        ginv = [
            [
                expr.add(
                    *[
                        expr.mul(c[a][b][u], winv[i][j], c[aa][bb][v])
                        for i, (a, b) in enumerate(wedges)
                        for j, (aa, bb) in enumerate(wedges)
                    ]
                )
                for v in rk
            ]
            for u in rk
        ]
        block = _symbolic_inverse(ginv)
        for ui, u in enumerate(rk):
            for vi, v in enumerate(rk):
                gmat[u][v] = block[ui][vi]
    if convention == "tensor":
        # the recursion always runs in selector flavor; rescale afterwards
        for k in range(2, grading.step + 1):
            factor = expr.rational(1, 2 ** (k - 1))
            for u in grading.layer_range(k):
                for v in grading.layer_range(k):
                    gmat[u][v] = expr.mul(factor, gmat[u][v])
    return TamingMetric(grading, convention, tuple(tuple(row) for row in gmat))


# ---------------------------------------------------------------------------
# selector


@dataclass
class Selector:
    """Canonical selector in the adapted frame.

    ``coefficients[c]`` lists (a, b, Expr) triples: the value on the c-th
    adapted field is the sum of coeff * (field_a wedge field_b).
    """

    grading: Grading
    coefficients: tuple

    def table(self) -> list:
        """Every coefficient expression, field after field: what :meth:`matrices` reads."""
        return [coef for row in self.coefficients for _, _, coef in row]

    def matrices(self, values) -> list:
        """Antisymmetric wedge-coefficient matrices of the values on every field.

        ``values`` holds the values of :meth:`table` at one point.
        """
        n = self.grading.dim
        out = []
        pos = 0
        for row in self.coefficients:
            mat = np.zeros((n, n))
            for a, b, _ in row:
                mat[a, b] += values[pos]
                mat[b, a] -= values[pos]
                pos += 1
            out.append(mat)
        return out

    def matrix_at(self, point, index: int) -> np.ndarray:
        """Antisymmetric wedge-coefficient matrix of the value on one field."""
        values = expr.evaluate_array(self.table(), self.grading.frame.point(point))
        return self.matrices(values)[index]


def selector(grading: Grading) -> Selector:
    """Solve the wedge Gram system for the canonical selector.

    The value on a degree-k field is the unique wedge combination whose
    pairing against every wedge equals the pairing of the symbol bracket
    against the field; with the selector-flavor metric extension this
    inverts the fiberwise bracket (bracketing the value reproduces the
    field modulo lower flag layers), which is the defining normalization.
    Values on horizontal fields vanish.  Solved once per grading and stored
    on it.
    """
    if grading._selector is None:
        grading._selector = _solve_selector(grading)
    return grading._selector


def _solve_selector(grading: Grading) -> Selector:
    tm = taming_metric(grading.base, grading, "selector")
    gmat = tm.matrix
    c = grading.structure_functions()
    n = grading.dim
    classes = _wedge_classes(grading)
    coefficients = [[] for _ in range(n)]
    for key, wedges in classes.items():
        k = sum(key)
        if k > grading.step:
            continue
        targets = list(grading.layer_range(k))
        winv = _wedge_gram_inverse(gmat, wedges)
        for t in targets:
            rhs = [
                expr.add(
                    *[expr.mul(c[a][b][d], gmat[d][t]) for d in grading.layer_range(k)]
                )
                for (a, b) in wedges
            ]
            for i, (a, b) in enumerate(wedges):
                coef = expr.add(*[expr.mul(winv[i][j], rhs[j]) for j in range(len(wedges))])
                if coef is not _ZERO:
                    coefficients[t].append((a, b, coef))
    return Selector(grading, tuple(tuple(row) for row in coefficients))


# ---------------------------------------------------------------------------
# connections


def _coordinate_gradient(table, coords):
    """Non-zero derivatives of a rank-3 table along the coordinates.

    Returns the shape (coordinate, i, j, k), the flat indices of the non-zero
    derivatives of ``table[i][j][k]`` and those derivatives; most are zero,
    so only these are evaluated and held for every point.
    """
    derivatives = [
        expr.differentiate(e, x) for x in coords for plane in table for row in plane for e in row
    ]
    index = [pos for pos, d in enumerate(derivatives) if d is not _ZERO]
    shape = (len(coords), len(table), len(table[0]), len(table[0][0]))
    return shape, index, [derivatives[pos] for pos in index]


def _dense(shape, index, values) -> np.ndarray:
    """The array of ``shape`` holding ``values`` at the flat ``index``, zero elsewhere."""
    out = np.zeros(shape)
    out.flat[index] = values
    return out


def _torsion_values(gam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """T_ij^k = Γ_ij^k - Γ_ji^k - c_ij^k from values."""
    return gam - gam.transpose(1, 0, 2) - c


class Connection:
    """Affine connection given by Christoffel coefficients in an adapted frame.

    ``gamma[i][j][k]`` is the k-th adapted component of the derivative of the
    j-th adapted field along the i-th.

    Symbolic: ``gamma``, ``torsion_tensor`` and ``curvature_rows`` (the
    contact construction reads the rows at the selector's wedge pairs);
    ``curvature_tensor`` holds every row, for tests.  From values:
    ``torsion_at`` and ``curvature_at``, the one-point case of ``_tensors``,
    which evaluates its tables once for all points and assembles each
    point's tensors when that point is read, so only one point's n⁴
    curvature is held at a time.  The frame derivatives W_i(Γ) at a point
    are F(p)ᵀ ∂Γ(p): F(p) is the adapted frame matrix and ∂Γ the coordinate
    gradient of Γ, whose non-zero entries are built once and stored on the
    connection.
    """

    def __init__(self, grading: Grading, gamma):
        n = grading.dim
        self.grading = grading
        self.gamma = tuple(
            tuple(tuple(expr._coerce(e) for e in gamma[i][j]) for j in range(n))
            for i in range(n)
        )
        if any(len(entry) != n for row in self.gamma for entry in row):
            raise ManifoldError("Christoffel table has wrong width")
        self._torsion = None
        self._curvature = None
        self._gamma_gradient = None

    # -- symbolic tensors ---------------------------------------------------

    def torsion_tensor(self):
        """T[i][j][k]: torsion components on adapted frame pairs."""
        if self._torsion is None:
            c = self.grading.structure_functions()
            gam = self.gamma
            n = self.grading.dim
            self._torsion = tuple(
                tuple(
                    tuple(expr.sub(expr.sub(gam[i][j][k], gam[j][i][k]), c[i][j][k])
                          for k in range(n))
                    for j in range(n)
                )
                for i in range(n)
            )
        return self._torsion

    def curvature_rows(self, i: int, j: int):
        """R[i][j] as Expr rows: [k][l] is component l of R(W_i, W_j) W_k."""
        n = self.grading.dim
        c = self.grading.structure_functions()
        fields = self.grading.fields
        gam = self.gamma
        return tuple(
            tuple(
                expr.add(
                    # directional derivatives of the Christoffels
                    fields[i].apply(gam[j][k][l]),
                    fields[j].apply(gam[i][k][l], expr.MINUS_ONE),
                    *[
                        term
                        for mm in range(n)
                        for term in (
                            expr.mul(gam[j][k][mm], gam[i][mm][l]),
                            expr.neg(expr.mul(gam[i][k][mm], gam[j][mm][l])),
                            expr.neg(expr.mul(c[i][j][mm], gam[mm][k][l])),
                        )
                    ],
                )
                for l in range(n)
            )
            for k in range(n)
        )

    def curvature_tensor(self):
        """R[i][j][k][l]: value on (i, j) applied to field k, component l."""
        if self._curvature is None:
            n = self.grading.dim
            self._curvature = tuple(
                tuple(self.curvature_rows(i, j) for j in range(n)) for i in range(n)
            )
        return self._curvature

    # -- pointwise tensors ----------------------------------------------------

    def _values(self, points, *tables):
        """Γ, the structure functions and ``tables`` at every point, one call."""
        g = self.grading
        return expr.evaluate_tables(
            (self.gamma, g.structure_functions()) + tables, [g.frame.point(p) for p in points]
        )

    def torsion_at(self, point) -> np.ndarray:
        gam, c = self._values([point])
        return _torsion_values(gam[0], c[0])

    def curvature_at(self, point) -> np.ndarray:
        return next(self._tensors([point]))[1]

    def _tensors(self, points, *tables):
        """Yield torsion, curvature, degree-0 torsion and ``tables`` at each point.

        Every table is evaluated once for all points; the tensors of one point
        are assembled from its slices when that point's turn comes.
        """
        g = self.grading
        if self._gamma_gradient is None:
            self._gamma_gradient = _coordinate_gradient(self.gamma, g.frame.coords)
        shape, index, derivatives = self._gamma_gradient
        gams, cs, tzs, frames, dgams, *vals = self._values(
            points, g.t_zero_tensor(), g.frame_rows, derivatives, *tables
        )
        for x, (gam, c, frame) in enumerate(zip(gams, cs, frames)):
            dgam = _dense(shape, index, dgams[x])
            # W_i(Γ_jkl) + Σ_m Γ_jkm Γ_iml, antisymmetrized in (i, j), minus c_ij^m Γ_mkl
            part = np.einsum("ia,ajkl->ijkl", frame, dgam) + np.einsum("jkm,iml->ijkl", gam, gam)
            curv = part - part.transpose(1, 0, 2, 3) - np.einsum("ijm,mkl->ijkl", c, gam)
            yield (_torsion_values(gam, c), curv, tzs[x], *[v[x] for v in vals])

    def gamma_at(self, point) -> np.ndarray:
        return expr.evaluate_array(self.gamma, self.grading.frame.point(point))

    # -- derivatives of general fields ---------------------------------------

    def covariant_derivative(self, x: VectorField, y: VectorField) -> VectorField:
        """Derivative of y along x, as a vector field on the chart."""
        g = self.grading
        xs = g.components_in_frame(x)
        ys = g.components_in_frame(y)
        n = g.dim
        fields = g.fields
        out_frame = []
        for k in range(n):
            terms = []
            for i in range(n):
                # x^i W_i(y^k)
                terms.append(fields[i].apply(ys[k], xs[i]))
                for j in range(n):
                    terms.append(expr.mul(xs[i], ys[j], self.gamma[i][j][k]))
            out_frame.append(expr.add(*terms))
        return frame_combination(g.base, fields, out_frame)


def flat_frame_connection(grading: Grading) -> Connection:
    """Connection making every adapted frame field parallel."""
    n = grading.dim
    zero = [[[0] * n for _ in range(n)] for _ in range(n)]
    return Connection(grading, zero)


def levi_civita(tm: TamingMetric) -> Connection:
    """Levi-Civita connection of a taming metric, in the adapted frame."""
    g = tm.grading
    n = g.dim
    c = g.structure_functions()
    gmat = tm.matrix
    ginv = _symbolic_inverse([list(row) for row in gmat])
    fields = g.fields

    def dmetric(i, j, k):
        # W_i <W_j, W_k>
        return fields[i].apply(gmat[j][k])

    def cdown(i, j, k):
        # <[W_i, W_j], W_k>
        return expr.add(*[expr.mul(c[i][j][m], gmat[m][k]) for m in range(n)])

    gamma = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lowered = []
            for k in range(n):
                twice = expr.add(
                    dmetric(i, j, k),
                    dmetric(j, i, k),
                    expr.neg(dmetric(k, i, j)),
                    cdown(i, j, k),
                    expr.neg(cdown(i, k, j)),
                    expr.neg(cdown(j, k, i)),
                )
                lowered.append(expr.mul(expr.rational(1, 2), twice))
            for l in range(n):
                gamma[i][j][l] = expr.add(*[expr.mul(ginv[l][k], lowered[k]) for k in range(n)])
    return Connection(g, gamma)


# ---------------------------------------------------------------------------
# spec-level operations on connections


def torsion(conn: Connection):
    """Torsion as a bilinear map on vector fields."""

    def t(x: VectorField, y: VectorField) -> VectorField:
        return (
            conn.covariant_derivative(x, y)
            - conn.covariant_derivative(y, x)
            - bracket(x, y)
        )

    return t


def curvature(conn: Connection):
    """Curvature as an operator-valued map on vector-field pairs."""

    def r(x: VectorField, y: VectorField):
        def apply(w: VectorField) -> VectorField:
            return (
                conn.covariant_derivative(x, conn.covariant_derivative(y, w))
                - conn.covariant_derivative(y, conn.covariant_derivative(x, w))
                - conn.covariant_derivative(bracket(x, y), w)
            )

        return apply

    return r


def t_zero(grading: Grading):
    """Degree-zero torsion as a bilinear map on vector fields."""
    tensor = grading.t_zero_tensor()
    n = grading.dim
    fields = grading.fields

    def tt(x: VectorField, y: VectorField) -> VectorField:
        xs = grading.components_in_frame(x)
        ys = grading.components_in_frame(y)
        out_frame = [
            expr.add(
                *[
                    expr.mul(xs[i], ys[j], tensor[i][j][k])
                    for i in range(n)
                    for j in range(n)
                ]
            )
            for k in range(n)
        ]
        return frame_combination(grading.base, fields, out_frame)

    return tt


# ---------------------------------------------------------------------------
# checks


@dataclass
class CompatibilityReport:
    layers_parallel: bool
    metric_compatible: bool
    t_zero_parallel: bool
    residual_layers: float
    residual_metric: float
    residual_t_zero: float

    @property
    def compatible(self) -> bool:
        return self.layers_parallel and self.metric_compatible

    @property
    def strongly_compatible(self) -> bool:
        return self.compatible and self.t_zero_parallel


def _t_zero_derivatives(conn: Connection, points, *tables):
    """Yield Γ, ``tables`` and ∇T₀ at each point; every table evaluated once.

    (∇_i T₀)_jk^l = W_i(T₀_jk^l) + T₀_jk^m Γ_im^l - Γ_ij^m T₀_mk^l - Γ_ik^m T₀_jm^l.
    """
    g = conn.grading
    shape, index, derivatives = g.t_zero_gradient()
    gams, _, tzs, frames, dtzs, *vals = conn._values(
        points, g.t_zero_tensor(), g.frame_rows, derivatives, *tables
    )
    for x, (gam, tz, frame) in enumerate(zip(gams, tzs, frames)):
        dtz = _dense(shape, index, dtzs[x])
        ntz = (
            np.einsum("ia,ajkl->ijkl", frame, dtz)
            + np.einsum("jkm,iml->ijkl", tz, gam)
            - np.einsum("ijm,mkl->ijkl", gam, tz)
            - np.einsum("ikm,jml->ijkl", gam, tz)
        )
        yield (gam, *[v[x] for v in vals], ntz)


def check_compatible(conn: Connection, points, tol: float = 1e-8) -> CompatibilityReport:
    """Layer parallelism, horizontal metric rule, and degree-0-torsion parallelism."""
    g = conn.grading
    n = g.dim
    fields = g.fields
    gm = g.frame.metric
    r = g.layer_dims[0]

    # metric derivative rule on horizontal pairs
    metric_terms = []
    for i in range(n):
        for j in range(r):
            for k in range(r):
                dterm = fields[i].apply(gm[j][k])
                sterm = expr.add(
                    *[
                        expr.add(
                            expr.mul(conn.gamma[i][j][mm], gm[mm][k]),
                            expr.mul(conn.gamma[i][k][mm], gm[j][mm]),
                        )
                        for mm in range(r)
                    ]
                )
                metric_terms.append(expr.sub(dterm, sterm))

    # Christoffel components [i][j][k] that change layer
    deg = np.array(g.degrees)
    layer_change = deg[:, None] != deg[None, :]
    worst_layers = worst_metric = worst_tz = 0.0
    for gam, met, ntz in _t_zero_derivatives(conn, points, metric_terms):
        worst_layers = max(worst_layers, float(np.abs(gam[:, layer_change]).max(initial=0.0)))
        worst_metric = max(worst_metric, float(np.abs(met).max(initial=0.0)))
        worst_tz = max(worst_tz, float(np.abs(ntz).max(initial=0.0)))

    return CompatibilityReport(
        layers_parallel=worst_layers <= tol,
        metric_compatible=worst_metric <= tol,
        t_zero_parallel=worst_tz <= tol,
        residual_layers=worst_layers,
        residual_metric=worst_metric,
        residual_t_zero=worst_tz,
    )


def _operator_pairing(a: np.ndarray, b: np.ndarray, gram: np.ndarray, ginv: np.ndarray) -> float:
    """Trace inner product of endomorphisms w.r.t. a frame Gram matrix."""
    return float(np.trace(a.T @ gram @ b @ ginv))


@dataclass
class MorimotoReport:
    residual_r: float
    residual_t: float
    compatibility: CompatibilityReport
    tol: float

    @property
    def ok(self) -> bool:
        return self.compatibility.strongly_compatible and self.max_residual <= self.tol

    @property
    def max_residual(self) -> float:
        return max(self.residual_r, self.residual_t)


def check_morimoto(conn: Connection, points, tol: float = 1e-8) -> MorimotoReport:
    """Residuals of the two normalization identities of the canonical pair.

    For every sample point, every isometry generator D of the pointwise
    symbol and every adapted frame vector v:
        <R(chi(v)), D> = <T_v, D>           (curvature condition)
    and for frame vectors v, w with deg w < deg v:
        <T(chi(v)), w> = -<T_v, TZ_w>       (torsion condition)
    with operator pairings taken as metric traces.
    """
    g = conn.grading
    n = g.dim
    chi = selector(g)
    compat = check_compatible(conn, points, tol=tol)

    worst_r = 0.0
    worst_t = 0.0
    symbols = g.symbol_algebras_at(points)
    for sym, (tten, rten, tzt, coefs) in zip(symbols, conn._tensors(points, chi.table())):
        gram = sym.full_gram("selector")
        ginv = np.linalg.inv(gram)
        chimats = chi.matrices(coefs)
        isos = isometry_algebra(sym)

        for v in range(n):
            cm = chimats[v]
            # curvature and torsion of the wedge value
            r_of_chi = 0.5 * np.einsum("ab,abkl->lk", cm, rten)
            t_of_chi = 0.5 * np.einsum("ab,abk->k", cm, tten)
            t_v = tten[v].T  # operator: column = input index
            for d in isos:
                lhs = _operator_pairing(r_of_chi, d, gram, ginv)
                rhs = _operator_pairing(t_v, d, gram, ginv)
                worst_r = max(worst_r, abs(lhs - rhs))
            for w in range(n):
                if g.degree_of(w) >= g.degree_of(v):
                    continue
                lhs = float(t_of_chi @ gram[:, w])
                tz_w = tzt[w].T
                rhs = -_operator_pairing(t_v, tz_w, gram, ginv)
                worst_t = max(worst_t, abs(lhs - rhs))

    return MorimotoReport(worst_r, worst_t, compat, tol)


def torsion_id_residual(conn: Connection, points) -> float:
    """Residual of the graded torsion identity for compatible connections.

    On fields of degrees i and j, the degree-(i+j) part of the torsion must
    equal the degree-0 torsion value and all parts of degree > i+j vanish.
    """
    g = conn.grading
    deg = np.array(g.degrees)
    target = (deg[:, None] + deg[None, :])[:, :, None]  # [i, j, 0]: deg i + deg j
    worst = 0.0
    for gam, c, tzt in zip(*conn._values(points, g.t_zero_tensor())):
        tten = _torsion_values(gam, c)
        worst = max(
            worst,
            np.abs(tten - tzt)[deg == target].max(initial=0.0),
            np.abs(tten)[deg > target].max(initial=0.0),
        )
    return float(worst)


def curvature_isometry_residual(conn: Connection, points) -> float:
    """How far curvature values sit from the pointwise isometry algebra.

    Measured as the trace-norm of the component of each R(W_a, W_b)
    orthogonal to the span of the isometry generators.
    """
    g = conn.grading
    n = g.dim
    worst = 0.0
    for sym, (_, rten, _) in zip(g.symbol_algebras_at(points), conn._tensors(points)):
        gram = sym.full_gram("selector")
        ginv = np.linalg.inv(gram)
        isos = isometry_algebra(sym)
        # orthonormalize the generators under the trace pairing
        basis = []
        for d in isos:
            v = d.copy()
            for b in basis:
                v = v - _operator_pairing(v, b, gram, ginv) * b
            nrm = _operator_pairing(v, v, gram, ginv) ** 0.5
            if nrm > 1e-12:
                basis.append(v / nrm)
        for a in range(n):
            for b in range(a + 1, n):
                op = rten[a, b].T
                rem = op.copy()
                for d in basis:
                    rem = rem - _operator_pairing(op, d, gram, ginv) * d
                worst = max(
                    worst, abs(_operator_pairing(rem, rem, gram, ginv)) ** 0.5
                )
    return worst


@dataclass
class FlatnessReport:
    flat: bool
    torsion_residual: float
    curvature_residual: float


def flatness_check(conn: Connection, points, tol: float = 1e-8) -> FlatnessReport:
    """Verdict on whether torsion reduces to degree zero and curvature vanishes.

    Components are measured in the orthonormalized adapted frame of the
    taming metric; passing certifies local isometry with the flat model
    group of the symbol.
    """
    g = conn.grading
    worst_t = 0.0
    worst_r = 0.0
    for sym, (tten, rten, tzt) in zip(g.symbol_algebras_at(points), conn._tensors(points)):
        q = _onb_columns(sym.full_gram("selector"))
        qinv = np.linalg.inv(q)
        dt = np.einsum("ia,jb,ijk,kc->abc", q, q, tten - tzt, qinv.T, optimize=True)
        dr = np.einsum("ia,jb,kc,ijkl,ld->abcd", q, q, q, rten, qinv.T, optimize=True)
        worst_t = max(worst_t, float(np.abs(dt).max()))
        worst_r = max(worst_r, float(np.abs(dr).max()))
    return FlatnessReport(
        flat=bool(worst_t <= tol and worst_r <= tol),
        torsion_residual=worst_t,
        curvature_residual=worst_r,
    )


# ---------------------------------------------------------------------------
# normal geodesics


def normal_geodesic(conn: Connection, x0, lam0, t_max: float = 1.0,
                    step: float = 1e-3, chart_box=None):
    """Integrate the normal-geodesic system with fixed-step RK4.

    The covector is stored in adapted coframe components.  Returns a list of
    (t, point dict, covector array, horizontal speed) samples including both
    endpoints.
    """
    g = conn.grading
    n = g.dim
    r = g.layer_dims[0]
    coords = g.frame.coords
    lam = np.array(lam0, dtype=float)
    if lam.shape != (n,):
        raise ManifoldError(f"covector needs {n} components")
    x = np.array([g.frame.point(x0)[c] for c in coords], dtype=float)

    def rhs(state):
        xx, ll = state[:n], state[n:]
        p = {c: xx[a] for a, c in enumerate(coords)}
        gam, c, gh, rows = (v[0] for v in conn._values([p], g.frame.metric, g.frame_rows))
        u = np.linalg.solve(_checked_metric(gh), ll[:r])
        xdot = _checked_frame(np.ascontiguousarray(rows.T))[:, :r] @ u
        ldot = np.einsum("a,akm,m->k", u, (gam - _torsion_values(gam, c))[:r], ll)
        return np.concatenate([xdot, ldot])

    steps = max(1, int(round(t_max / step)))
    h = t_max / steps
    state = np.concatenate([x, lam])

    def speed(state):
        p = {c: state[a] for a, c in enumerate(coords)}
        gh = g.frame.metric_at(p)
        u = np.linalg.solve(gh, state[n : n + r])
        return float(np.sqrt(u @ gh @ u))

    out = [(0.0, {c: float(v) for c, v in zip(coords, state[:n])}, state[n:].copy(), speed(state))]
    for i in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * h * k1)
        k3 = rhs(state + 0.5 * h * k2)
        k4 = rhs(state + h * k3)
        state = state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not np.all(np.isfinite(state)):
            raise ManifoldError("geodesic integration produced non-finite values")
        if chart_box is not None:
            for a, (lo, hi) in enumerate(chart_box):
                if not lo <= state[a] <= hi:
                    raise ManifoldError(
                        f"geodesic left the chart at t={h * (i + 1):.6f} "
                        f"(coordinate {coords[a]})"
                    )
        t = h * (i + 1)
        out.append(
            (t, {c: float(v) for c, v in zip(coords, state[:n])}, state[n:].copy(), speed(state))
        )
    return out
