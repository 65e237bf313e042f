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
    _gauss_jordan,
    bracket,
    frame_combination,
    frame_inverse,
    growth_flag,
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
        p = self.frame.point(point)
        key = tuple(sorted(p.items()))
        if key not in self._symbol_cache:
            cg = self.graded_structure_at(p)
            brackets = {}
            n = self.dim
            for a in range(n):
                for b in range(a + 1, n):
                    row = {
                        c: float(cg[a, b, c])
                        for c in range(n)
                        if abs(cg[a, b, c]) > 1e-13
                    }
                    if row:
                        brackets[a, b] = row
            labels = tuple(f"W{a+1}" for a in range(n))
            self._symbol_cache[key] = CarnotAlgebra(
                self.layer_dims, labels, brackets,
                metric1=self.frame.metric_at(p),
            )
        return self._symbol_cache[key]

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
        return out

    def validate(self, points):
        """Check the flag decomposition at sample points; returns max residual.

        For each k, the span of the adapted fields of degrees <= k must equal
        the k-th bracket-flag subspace of the base manifold's horizontal
        bundle, and the two spans must fill it as a direct sum.
        """
        worst = 0.0
        for point in points:
            p = self.base.point(point)
            flag = growth_flag(self.base, p, self.step)
            want = tuple(sum(self.layer_dims[: k + 1]) for k in range(self.step))
            if flag != want:
                raise ManifoldError(
                    f"grading layer sizes {want} do not match the flag {flag} at {p}"
                )
            base_inv = np.linalg.inv(self.base.frame_matrix_at(p))
            adapted = base_inv @ self.frame.frame_matrix_at(p)
            for k in range(1, self.step + 1):
                cols = adapted[:, : sum(self.layer_dims[:k])]
                flag_cols = np.hstack(
                    [
                        np.column_stack(
                            [base_inv @ f.value_at(p) for f in self.base.bracket_layer(j)]
                        )
                        for j in range(1, k + 1)
                    ]
                )
                # adapted columns must lie inside the flag subspace...
                q, _ = np.linalg.qr(flag_cols)
                rank = np.linalg.matrix_rank(flag_cols, tol=1e-9)
                qr = q[:, :rank]
                resid = np.abs(cols - qr @ (qr.T @ cols)).max()
                worst = max(worst, float(resid))
                # ...and span it
                if np.linalg.matrix_rank(cols, tol=1e-9) != sum(self.layer_dims[:k]):
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
        wgram = [
            [
                expr.sub(
                    expr.mul(gmat[a][cc], gmat[b][d]),
                    expr.mul(gmat[a][d], gmat[b][cc]),
                )
                for (cc, d) in wedges
            ]
            for (a, b) in wedges
        ]
        winv = _symbolic_inverse(wgram)
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

    def matrix_at(self, point, index: int) -> np.ndarray:
        """Antisymmetric wedge-coefficient matrix of the value on one field."""
        p = self.grading.frame.point(point)
        n = self.grading.dim
        out = np.zeros((n, n))
        cache: dict = {}
        for a, b, coef in self.coefficients[index]:
            v = expr._eval(coef, p, cache)
            out[a, b] += v
            out[b, a] -= v
        return out


def selector(grading: Grading) -> Selector:
    """Solve the wedge Gram system for the canonical selector.

    The value on a degree-k field is the unique wedge combination whose
    pairing against every wedge equals the pairing of the symbol bracket
    against the field; with the selector-flavor metric extension this
    inverts the fiberwise bracket (bracketing the value reproduces the
    field modulo lower flag layers), which is the defining normalization.
    Values on horizontal fields vanish.
    """
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
        wgram = [
            [
                expr.sub(
                    expr.mul(gmat[a][cc], gmat[b][d]),
                    expr.mul(gmat[a][d], gmat[b][cc]),
                )
                for (cc, d) in wedges
            ]
            for (a, b) in wedges
        ]
        winv = _symbolic_inverse(wgram)
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


class Connection:
    """Affine connection given by Christoffel coefficients in an adapted frame.

    ``gamma[i][j][k]`` is the k-th adapted component of the derivative of the
    j-th adapted field along the i-th.
    """

    def __init__(self, grading: Grading, gamma):
        n = grading.dim
        self.grading = grading
        g = []
        for i in range(n):
            row = []
            for j in range(n):
                entry = [expr._coerce(e) for e in gamma[i][j]]
                if len(entry) != n:
                    raise ManifoldError("Christoffel table has wrong width")
                row.append(tuple(entry))
            g.append(tuple(row))
        self.gamma = tuple(g)
        self._torsion = None
        self._curvature = None

    # -- symbolic tensors ---------------------------------------------------

    def torsion_tensor(self):
        """T[i][j][k]: torsion components on adapted frame pairs."""
        if self._torsion is None:
            c = self.grading.structure_functions()
            n = self.grading.dim
            self._torsion = tuple(
                tuple(
                    tuple(
                        expr.sub(
                            expr.sub(self.gamma[i][j][k], self.gamma[j][i][k]),
                            c[i][j][k],
                        )
                        for k in range(n)
                    )
                    for j in range(n)
                )
                for i in range(n)
            )
        return self._torsion

    def curvature_tensor(self):
        """R[i][j][k][l]: value on (i, j) applied to field k, component l."""
        if self._curvature is None:
            n = self.grading.dim
            c = self.grading.structure_functions()
            fields = self.grading.fields
            out = []
            for i in range(n):
                row_i = []
                for j in range(n):
                    row_j = []
                    for k in range(n):
                        comps = []
                        for l in range(n):
                            # directional derivatives of the Christoffels
                            terms = [
                                fields[i].apply(self.gamma[j][k][l]),
                                fields[j].apply(self.gamma[i][k][l], expr.MINUS_ONE),
                            ]
                            for mm in range(n):
                                terms.append(
                                    expr.mul(self.gamma[j][k][mm], self.gamma[i][mm][l])
                                )
                                terms.append(
                                    expr.neg(
                                        expr.mul(self.gamma[i][k][mm], self.gamma[j][mm][l])
                                    )
                                )
                                terms.append(
                                    expr.neg(expr.mul(c[i][j][mm], self.gamma[mm][k][l]))
                                )
                            comps.append(expr.add(*terms))
                        row_j.append(tuple(comps))
                    row_i.append(tuple(row_j))
                out.append(tuple(row_i))
            self._curvature = tuple(out)
        return self._curvature

    # -- pointwise tensors ----------------------------------------------------

    def torsion_at(self, point) -> np.ndarray:
        return expr.evaluate_array(self.torsion_tensor(), self.grading.frame.point(point))

    def curvature_at(self, point) -> np.ndarray:
        return expr.evaluate_array(self.curvature_tensor(), self.grading.frame.point(point))

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


def check_compatible(conn: Connection, points, tol: float = 1e-8) -> CompatibilityReport:
    """Layer parallelism, horizontal metric rule, and degree-0-torsion parallelism."""
    g = conn.grading
    n = g.dim
    fields = g.fields
    gm = g.frame.metric
    r = g.layer_dims[0]

    tz = g.t_zero_tensor()

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

    # covariant derivative of the degree-0 torsion
    nab_tz = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    terms = [fields[i].apply(tz[j][k][l])]
                    for mm in range(n):
                        terms.append(expr.mul(tz[j][k][mm], conn.gamma[i][mm][l]))
                        terms.append(expr.neg(expr.mul(conn.gamma[i][j][mm], tz[mm][k][l])))
                        terms.append(expr.neg(expr.mul(conn.gamma[i][k][mm], tz[j][mm][l])))
                    nab_tz.append(expr.add(*terms))

    # Christoffel components [i][j][k] that change layer
    deg = np.array(g.degrees)
    layer_change = deg[:, None] != deg[None, :]
    worst_layers = worst_metric = worst_tz = 0.0
    for point in points:
        p = g.frame.point(point)
        gam = conn.gamma_at(p)[:, layer_change]
        met = expr.evaluate_array(metric_terms, p)
        ntz = expr.evaluate_array(nab_tz, p)
        worst_layers = max(worst_layers, float(np.abs(gam).max(initial=0.0)))
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
    tz = g.t_zero_tensor()

    worst_r = 0.0
    worst_t = 0.0
    for point in points:
        p = g.frame.point(point)
        gram = g.gram_at(p)
        ginv = np.linalg.inv(gram)
        tten = conn.torsion_at(p)
        rten = conn.curvature_at(p)
        tzt = expr.evaluate_array(tz, p)

        chimats = [chi.matrix_at(p, v) for v in range(n)]
        isos = g.isometries_at(p)

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
    n = g.dim
    worst = 0.0
    tz = g.t_zero_tensor()
    for point in points:
        p = g.frame.point(point)
        tten = conn.torsion_at(p)
        tzt = expr.evaluate_array(tz, p)
        for i in range(n):
            for j in range(n):
                target = g.degree_of(i) + g.degree_of(j)
                for k in range(n):
                    dk = g.degree_of(k)
                    if dk == target:
                        worst = max(worst, abs(tten[i, j, k] - tzt[i, j, k]))
                    elif dk > target:
                        worst = max(worst, abs(tten[i, j, k]))
    return worst


def curvature_isometry_residual(conn: Connection, points) -> float:
    """How far curvature values sit from the pointwise isometry algebra.

    Measured as the trace-norm of the component of each R(W_a, W_b)
    orthogonal to the span of the isometry generators.
    """
    g = conn.grading
    n = g.dim
    worst = 0.0
    for point in points:
        p = g.frame.point(point)
        gram = g.gram_at(p)
        ginv = np.linalg.inv(gram)
        rten = conn.curvature_at(p)
        isos = g.isometries_at(p)
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
    tz = g.t_zero_tensor()
    for point in points:
        p = g.frame.point(point)
        q = _onb_columns(g.gram_at(p))
        qinv = np.linalg.inv(q)
        tten = conn.torsion_at(p)
        rten = conn.curvature_at(p)
        tzt = expr.evaluate_array(tz, p)
        dt = np.einsum("ia,jb,ijk,kc->abc", q, q, tten - tzt, qinv.T)
        dr = np.einsum("ia,jb,kc,ijkl,ld->abcd", q, q, q, rten, qinv.T)
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

    gamma_t = conn.gamma
    tors = conn.torsion_tensor()

    def rhs(state):
        xx, ll = state[:n], state[n:]
        p = {c: xx[a] for a, c in enumerate(coords)}
        gh = g.frame.metric_at(p)
        u = np.linalg.solve(gh, ll[:r])
        fmat = g.frame.frame_matrix_at(p)
        xdot = fmat[:, :r] @ u
        gam, tor = expr.evaluate_array([gamma_t[:r], tors[:r]], p)
        ldot = np.einsum("a,akm,m->k", u, gam - tor, ll)
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
