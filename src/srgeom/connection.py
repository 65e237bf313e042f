"""Gradings, taming metrics, selectors, and graded affine connections.

A :class:`Grading` equips a framed manifold with an adapted frame split into
layers spanning a complement decomposition of the bracket flag.  In adapted
coordinates the induced identification of the tangent space with its graded
symbol is simply "read the frame components", which makes the taming metric,
the canonical selector and the degree-zero torsion concretely computable.  A
:class:`Connection` stores frame Christoffel coefficients; the
compatibility, normalization and flatness checks read its torsion and
curvature at sample points.

Symbolic where a construction reads expressions: structure functions,
degree-0 torsion, taming metric, selector (solved once per grading), Γ and
the symbolic tensors listed on :class:`Connection`.  From values where only
points are read, with one evaluation per chart and one solve per distinct
symbol: the tables every check reads (Γ, structure functions, T₀, frame
rows, the horizontal metric, selector coefficients) are evaluated in one
:func:`expr.evaluate_tables` call for all points, which also returns the
coordinate gradients of Γ, T₀ and the metric by forward-mode
differentiation, so no check differentiates a table symbolically.  The
connection keeps that evaluation for its last point set, so the checks of
one chart share it.  Torsion, curvature, ∇g and ∇T₀ are contracted with
``matmul`` on stacked ``(point, …)`` arrays, one block of points at a time,
so a stacked n⁴ array holds at most 8192 floats (or one point).  Points with bitwise
equal symbols share one :class:`CarnotAlgebra`, so its Gram matrices,
isometry algebra and trace frame are computed once and gathered per point.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import expr
from .lie import CarnotAlgebra, _onb_columns
from .manifold import (
    FramedManifold,
    ManifoldError,
    VectorField,
    _checked_metric,
    _flags,
    _gauss_jordan,
    _sum_of_products,
    structure_functions,
)

__all__ = [
    "Grading",
    "left_invariant_grading",
    "taming_metric",
    "Selector",
    "selector",
    "Connection",
    "flat_frame_connection",
    "check_compatible",
    "check_morimoto",
    "flatness_check",
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
        self._symbol_cache = {}  # symbol content -> CarnotAlgebra
        self._fields = self.frame.frames
        # rows[i][a]: coordinate component a of the i-th adapted field
        self.frame_rows = tuple(f.components for f in self._fields)
        self._t_zero = None
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

    # -- pointwise graded data ----------------------------------------------

    def _symbols_from(self, tzs, metrics) -> list:
        """Symbols from the values of T₀ and the horizontal metric at each point.

        A symbol is its bracket rows (the structure constants above 1e-13) and
        the bytes of its metric, checked symmetric positive-definite; equal
        ones are built once per grading.
        """
        out = []
        for tz, metric in zip(tzs, metrics):
            cg = -tz
            brackets = {}
            for a, b, c in zip(*np.nonzero(np.abs(cg) > 1e-13)):
                if a < b:
                    brackets.setdefault((int(a), int(b)), {})[int(c)] = float(cg[a, b, c])
            key = (
                tuple((ab, tuple(row.items())) for ab, row in brackets.items()),
                _checked_metric(metric).tobytes(),
            )
            if key not in self._symbol_cache:
                labels = tuple(f"W{a+1}" for a in range(self.dim))
                self._symbol_cache[key] = CarnotAlgebra(
                    self.layer_dims, labels, brackets, metric1=metric
                )
            out.append(self._symbol_cache[key])
        return out

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
                        if c[i][j][k] is not _ZERO:
                            out[i][j][k] = expr.neg(c[i][j][k])
            self._t_zero = out
        return self._t_zero

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
    def minor(a, b, cc, d):
        # expr.sub(g_ac g_bd, g_ad g_bc), building only the non-zero terms
        ad_bc = _sum_of_products([(gmat[a][d], gmat[b][cc])])
        return _sum_of_products([(expr.MINUS_ONE, ad_bc)], _sum_of_products([(gmat[a][cc], gmat[b][d])]))

    return _symbolic_inverse([[minor(a, b, cc, d) for (cc, d) in wedges] for (a, b) in wedges])


def taming_metric(grading: Grading) -> tuple:
    """Extend the horizontal metric over the whole adapted frame.

    Returns the n x n matrix of Expr entries in the adapted frame.  Layer one
    carries the declared horizontal metric.  Each higher layer is built so
    that bracketing orthonormal 2-vectors of lower layers onto it is a
    submetry; concretely the layer's inverse Gram is B W^{-1} B^T with W the
    Gram of the lower-degree wedges and B the bracket coefficients.  This is
    the Gram of :meth:`lie.CarnotAlgebra.full_gram`, as expressions.
    """
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
                _sum_of_products(
                    (c[a][b][u], winv[i][j], c[aa][bb][v])
                    for i, (a, b) in enumerate(wedges)
                    for j, (aa, bb) in enumerate(wedges)
                )
                for v in rk
            ]
            for u in rk
        ]
        block = _symbolic_inverse(ginv)
        for ui, u in enumerate(rk):
            for vi, v in enumerate(rk):
                gmat[u][v] = block[ui][vi]
    return tuple(tuple(row) for row in gmat)


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

    def matrices(self, values) -> np.ndarray:
        """Antisymmetric wedge-coefficient matrices of the values on every field, at every point.

        ``values`` holds the values of :meth:`table`, one row per point;
        ``out[p, c]`` is the matrix of the value on the c-th field at point p.
        One scatter fills every point, so the wedge pairs of one field must be
        distinct, as :func:`selector` makes them.
        """
        values = np.asarray(values, dtype=float)
        n = self.grading.dim
        c, a, b = np.array(
            [(c, a, b) for c, row in enumerate(self.coefficients) for a, b, _ in row],
            dtype=int,
        ).reshape(-1, 3).T
        out = np.zeros((len(values), n, n, n))
        out[:, c, a, b] = values
        out[:, c, b, a] = -values
        return out


def selector(grading: Grading) -> Selector:
    """Solve the wedge Gram system for the canonical selector.

    The value on a degree-k field is the unique wedge combination whose
    pairing against every wedge equals the pairing of the symbol bracket
    against the field; with the taming metric (:func:`taming_metric`) this
    inverts the fiberwise bracket (bracketing the value reproduces the
    field modulo lower flag layers), which is the defining normalization.
    Values on horizontal fields vanish.  Solved once per grading and stored
    on it.
    """
    if grading._selector is None:
        grading._selector = _solve_selector(grading)
    return grading._selector


def _solve_selector(grading: Grading) -> Selector:
    gmat = taming_metric(grading)
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
                _sum_of_products((c[a][b][d], gmat[d][t]) for d in grading.layer_range(k))
                for (a, b) in wedges
            ]
            for i, (a, b) in enumerate(wedges):
                coef = _sum_of_products((winv[i][j], rhs[j]) for j in range(len(wedges)))
                if coef is not _ZERO:
                    coefficients[t].append((a, b, coef))
    return Selector(grading, tuple(tuple(row) for row in coefficients))


# ---------------------------------------------------------------------------
# connections


def _torsion_values(gam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """T_ij^k = Γ_ij^k - Γ_ji^k - c_ij^k from values (at one point or stacked)."""
    return gam - gam.swapaxes(-3, -2) - c


# The most floats a stacked n⁴ temporary of a check holds (64 KiB): the
# checks contract blocks of max(1, _BLOCK_FLOATS // n⁴) points at a time.
_BLOCK_FLOATS = 8192


def _blocks(count: int, n: int) -> list:
    """Consecutive slices of ``count`` points, each small enough for its n⁴ arrays."""
    size = max(1, _BLOCK_FLOATS // n**4)
    return [slice(s, min(s + size, count)) for s in range(0, count, size)]


def _worst(worst, values) -> float:
    """The larger of ``worst`` and the largest magnitude in ``values``; a NaN in either wins."""
    return float(np.maximum(worst, np.abs(values).max(initial=0.0)))


def _stacked(arrays) -> np.ndarray:
    """Arrays equal in shape but for the first axis, stacked and zero-padded to the longest."""
    out = np.zeros((len(arrays), max(len(a) for a in arrays), *arrays[0].shape[1:]))
    for k, a in enumerate(arrays):
        out[k, : len(a)] = a
    return out


@dataclass(eq=False)
class _PointValues:
    """A connection's tables at a point set, from one :func:`expr.evaluate_tables` call.

    Each array has the point index first; the gradients ``d_*`` put the
    coordinate index second.  ``selector`` holds the values of
    :meth:`Selector.table`.
    """

    key: bytes
    grading: Grading
    gamma: np.ndarray
    c: np.ndarray
    t_zero: np.ndarray
    frame: np.ndarray
    metric: np.ndarray
    selector: np.ndarray
    d_gamma: np.ndarray
    d_t_zero: np.ndarray
    d_metric: np.ndarray

    @functools.cached_property
    def symbols(self) -> list:
        """The symbol at each point; bitwise-equal symbols are one object."""
        return self.grading._symbols_from(self.t_zero, self.metric)

    def per_symbol(self, make) -> list:
        """The arrays ``make(symbol)`` returns, made once per distinct symbol, at every point.

        Each returned array has the point index first; stacks of different
        length (isometry generators, say) are padded with zeros.
        """
        distinct = {id(s): s for s in self.symbols}
        index = {key: k for k, key in enumerate(distinct)}
        at = np.array([index[id(s)] for s in self.symbols])
        made = [make(s) for s in distinct.values()]
        return [_stacked(arrays)[at] for arrays in zip(*made)]

    def blocks(self) -> list:
        return _blocks(len(self.gamma), self.grading.dim)


def _frame_derivative(frame: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """W_i of a table at stacked points: F ∂, with the frame index in place of the coordinate."""
    b, n = frame.shape[:2]
    return (frame @ grad.reshape(b, grad.shape[1], -1)).reshape(b, n, *grad.shape[2:])


def _curvature(vals: _PointValues, blk: slice) -> np.ndarray:
    """R at the points of one block: [p, i, j, k, l] is component l of R(W_i, W_j) W_k.

    R = A - Aᵀ in (i, j), with A_ijkl = W_i(Γ_jkl) + Σ_m (Γ_jkm Γ_iml - ½ c_ij^m Γ_mkl)
    (c is antisymmetric in i, j).  A is antisymmetrized in place, one i at a
    time, so one n⁴ array of the block and one matmul product are alive at once.
    """
    gam, c = vals.gamma[blk], vals.c[blk]
    b, n = gam.shape[:2]
    curv = _frame_derivative(vals.frame[blk], vals.d_gamma[blk])
    curv += (gam.reshape(b, 1, n * n, n) @ gam).reshape(curv.shape)
    curv -= ((0.5 * c).reshape(b, n * n, n) @ gam.reshape(b, n, n * n)).reshape(curv.shape)
    for i in range(n):
        d = curv[:, i, :i] - curv[:, :i, i]
        curv[:, i, :i] = d
        np.negative(d, out=curv[:, :i, i])
        curv[:, i, i] = 0.0
    return curv


class Connection:
    """Affine connection given by Christoffel coefficients in an adapted frame.

    ``gamma[i][j][k]`` is the k-th adapted component of the derivative of the
    j-th adapted field along the i-th.

    Symbolic: ``gamma`` and ``curvature_rows`` (the contact construction
    reads the rows at the selector's wedge pairs); ``torsion_tensor`` and
    ``curvature_tensor`` hold every entry, as the oracles the values are
    tested against.  From values, one evaluation per chart and one solve per
    distinct symbol: ``_at`` evaluates every table the checks read in one
    call for all points and keeps the result for the last point set, so the
    checks of one chart evaluate once.  The checks contract stacked
    ``(point, …)`` arrays with ``matmul``, one block of points at a time
    (``_blocks``): a block holds at most 8192 floats of each n⁴ array, so
    n = 7 takes 3 points per block and n = 3 takes every point.
    ``torsion_at`` and ``curvature_at`` are the one-point case; the bench
    harness times these four methods.  The frame derivatives W_i(Γ) at a
    point are F(p) ∂Γ(p): F(p) is the adapted frame matrix and ∂Γ the
    coordinate gradient of Γ, which the evaluator returns with Γ's values.
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
        self._slot = None

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
        """R[i][j] as Expr rows: [k][l] is component l of R(W_i, W_j) W_k.

        Only the non-zero terms are built, in the order of the dense sum.
        """
        n = self.grading.dim
        c = self.grading.structure_functions()
        fields = self.grading.fields
        gam = self.gamma
        rows = []
        for k in range(n):
            row = []
            for l in range(n):
                products = []
                for mm in range(n):
                    products.append((gam[j][k][mm], gam[i][mm][l]))
                    # the negated products, expr.neg(expr.mul(...)), where non-zero
                    if gam[i][k][mm] is not _ZERO and gam[j][mm][l] is not _ZERO:
                        products.append((expr.MINUS_ONE, expr.mul(gam[i][k][mm], gam[j][mm][l])))
                    if c[i][j][mm] is not _ZERO and gam[mm][k][l] is not _ZERO:
                        products.append((expr.MINUS_ONE, expr.mul(c[i][j][mm], gam[mm][k][l])))
                # the directional derivatives of the Christoffels come first
                row.append(_sum_of_products(
                    products,
                    fields[i].apply(gam[j][k][l]),
                    fields[j].apply(gam[i][k][l], expr.MINUS_ONE),
                ))
            rows.append(tuple(row))
        return tuple(rows)

    def curvature_tensor(self):
        """R[i][j][k][l]: value on (i, j) applied to field k, component l."""
        if self._curvature is None:
            n = self.grading.dim
            self._curvature = tuple(
                tuple(self.curvature_rows(i, j) for j in range(n)) for i in range(n)
            )
        return self._curvature

    # -- pointwise tensors ----------------------------------------------------

    def _at(self, points) -> _PointValues:
        """Every table the checks read, at every point, from one evaluator call.

        The values of the last point set asked for are kept, keyed on the bits
        of its coordinates (so 0.0 and -0.0 are different points): the checks
        of one chart share one evaluation.  Every check reads its points here,
        so none answers for an empty point set.
        """
        g = self.grading
        pts = [g.frame.point(p) for p in points]
        if not pts:
            raise ManifoldError("at least one sample point is required")
        key = np.array([[p[c] for c in g.frame.coords] for p in pts], dtype=float).tobytes()
        if self._slot is None or self._slot.key != key:
            values = expr.evaluate_tables(
                (self.gamma, g.structure_functions(), g.t_zero_tensor(), g.frame_rows,
                 g.frame.metric, selector(g).table()),
                pts,
                g.frame.coords,
                gradients=(0, 2, 4),
            )
            self._slot = _PointValues(key, g, *values)
        return self._slot

    def torsion_at(self, point) -> np.ndarray:
        vals = self._at([point])
        return _torsion_values(vals.gamma[0], vals.c[0])

    def curvature_at(self, point) -> np.ndarray:
        return _curvature(self._at([point]), slice(0, 1))[0]


def flat_frame_connection(grading: Grading) -> Connection:
    """Connection making every adapted frame field parallel."""
    n = grading.dim
    zero = [[[0] * n for _ in range(n)] for _ in range(n)]
    return Connection(grading, zero)


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


def _metric_derivative(vals: _PointValues, blk: slice) -> np.ndarray:
    """∇g at the points of one block: [p, i, j, k] = (∇_i g)_jk on horizontal j, k.

    (∇_i g)_jk = W_i(g_jk) - Γ_ij^m g_mk - Γ_ik^m g_jm on horizontal j, k, m.
    """
    r = vals.grading.layer_dims[0]
    hor = vals.gamma[blk, :, :r, :r]
    met = vals.metric[blk, None]
    return (
        _frame_derivative(vals.frame[blk], vals.d_metric[blk])
        - hor @ met
        - (hor @ met.swapaxes(2, 3)).swapaxes(2, 3)
    )


def _t_zero_derivative(vals: _PointValues, blk: slice) -> np.ndarray:
    """∇T₀ at the points of one block: [p, i, j, k, l] = (∇_i T₀)_jk^l.

    (∇_i T₀)_jk^l = W_i(T₀_jk^l) + T₀_jk^m Γ_im^l - Γ_ij^m T₀_mk^l - Γ_ik^m T₀_jm^l.
    """
    gam, tz = vals.gamma[blk], vals.t_zero[blk]
    b, n = gam.shape[:2]
    out = _frame_derivative(vals.frame[blk], vals.d_t_zero[blk])
    out += (tz.reshape(b, 1, n * n, n) @ gam).reshape(out.shape)
    out -= (gam.reshape(b, n * n, n) @ tz.reshape(b, n, n * n)).reshape(out.shape)
    out -= gam[:, :, None] @ tz[:, None]  # Γ_i (k, m) times T₀_j (m, l), for every (i, j)
    return out


def check_compatible(conn: Connection, points, tol: float = 1e-8) -> CompatibilityReport:
    """Layer parallelism, horizontal metric rule, and degree-0-torsion parallelism."""
    vals = conn._at(points)
    # Christoffel components [i][j][k] that change layer: deg j != deg k
    deg = np.array(conn.grading.degrees)
    layer_change = deg[:, None] != deg[None, :]
    worst_layers = _worst(0.0, vals.gamma[:, :, layer_change])
    worst_metric = worst_tz = 0.0
    for blk in vals.blocks():
        worst_metric = _worst(worst_metric, _metric_derivative(vals, blk))
        worst_tz = _worst(worst_tz, _t_zero_derivative(vals, blk))

    return CompatibilityReport(
        layers_parallel=worst_layers <= tol,
        metric_compatible=worst_metric <= tol,
        t_zero_parallel=worst_tz <= tol,
        residual_layers=worst_layers,
        residual_metric=worst_metric,
        residual_t_zero=worst_tz,
    )


def _trace_frame(sym: CarnotAlgebra):
    """A symbol's selector Gram G, its inverse, and (G D G⁻¹)ᵀ for each isometry generator D.

    The checks hold an operator A as X = Aᵀ (input index first); its trace
    pairing tr(Aᵀ G D G⁻¹) with D is then the sum of X ⊙ (G D G⁻¹)ᵀ.
    """
    gram = sym.full_gram()
    ginv = np.linalg.inv(gram)
    isos = np.array(sym.isometries()).reshape(-1, *gram.shape)
    return gram, ginv, (gram @ isos @ ginv).swapaxes(1, 2)


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
        return float(np.maximum(self.residual_r, self.residual_t))


def check_morimoto(conn: Connection, points, tol: float = 1e-8) -> MorimotoReport:
    """Residuals of the two normalization identities of the canonical pair.

    For every sample point, every isometry generator D of the pointwise
    symbol and every adapted frame vector v:
        <R(chi(v)), D> = <T_v, D>           (curvature condition)
    and for frame vectors v, w with deg w < deg v:
        <T(chi(v)), w> = -<T_v, TZ_w>       (torsion condition)
    with operator pairings taken as metric traces.  Symbols with fewer
    generators than others are padded with zero generators, whose pairings
    are zero.
    """
    g = conn.grading
    n = g.dim
    chi = selector(g)
    vals = conn._at(points)
    compat = check_compatible(conn, points, tol=tol)
    gram, ginv, pairing = vals.per_symbol(_trace_frame)
    gram_t, ginv_t = gram.swapaxes(1, 2)[:, None], ginv.swapaxes(1, 2)[:, None]
    deg = np.array(g.degrees)
    lower = deg[None, :] < deg[:, None]  # [v, w]: deg w < deg v

    worst_r = worst_t = 0.0
    for blk in vals.blocks():
        tors = _torsion_values(vals.gamma[blk], vals.c[blk])
        b = len(tors)
        t_v = tors.reshape(b, n, n * n)  # operator T_v held with its input index first
        chis = chi.matrices(vals.selector[blk]).reshape(b, n, n * n)  # [v, ab]
        # <T(chi(v)), w> + <T_v, TZ_w>, where <T_v, TZ_w> = Σ T_v ⊙ (G⁻ᵀ TZ_w Gᵀ)
        tz_w = ginv_t[blk] @ vals.t_zero[blk] @ gram_t[blk]
        resid_t = 0.5 * chis @ tors.reshape(b, n * n, n) @ gram[blk]
        resid_t += t_v @ tz_w.reshape(b, n, n * n).swapaxes(1, 2)
        worst_t = _worst(worst_t, resid_t[:, lower])
        # <R(chi(v)) - T_v, D> for every generator D
        diff = 0.5 * chis @ _curvature(vals, blk).reshape(b, n * n, n * n) - t_v
        worst_r = _worst(worst_r, diff @ pairing[blk].reshape(b, -1, n * n).swapaxes(1, 2))

    return MorimotoReport(worst_r, worst_t, compat, tol)


@dataclass
class FlatnessReport:
    flat: bool
    torsion_residual: float
    curvature_residual: float


def _onb_and_inverse(sym: CarnotAlgebra):
    """Columns of an orthonormal basis of a symbol's selector Gram, and their inverse."""
    q = _onb_columns(sym.full_gram())
    return q, np.linalg.inv(q)


def _in_frame(x: np.ndarray, q: np.ndarray, qinv: np.ndarray) -> np.ndarray:
    """Components of ``x`` in the frame ``q`` of each of its points; ``x`` is overwritten.

    ``x`` is C-contiguous, with the point index first, then its lower
    indices, then one upper index.  The upper index is contracted with
    q⁻¹ᵀ, then each lower index, last first, with q, in place in the
    array's layout; the steps alternate between ``x`` and one buffer.
    """
    b, n = x.shape[:2]
    order = x.ndim - 1
    buf = np.empty_like(x)
    np.matmul(x.reshape(b, -1, n), qinv.swapaxes(1, 2), out=buf.reshape(b, -1, n))
    src, dst = buf, x
    qt = q.swapaxes(1, 2)[:, None]
    for axis in range(order - 2, -1, -1):
        shape = (b, n**axis, n, n ** (order - 1 - axis))
        np.matmul(qt, src.reshape(shape), out=dst.reshape(shape))
        src, dst = dst, src
    return src


def flatness_check(conn: Connection, points, tol: float = 1e-8) -> FlatnessReport:
    """Verdict on whether torsion reduces to degree zero and curvature vanishes.

    Components are measured in the orthonormalized adapted frame of the
    taming metric; passing certifies local isometry with the flat model
    group of the symbol.
    """
    vals = conn._at(points)
    q, qinv = vals.per_symbol(_onb_and_inverse)
    worst_t = worst_r = 0.0
    for blk in vals.blocks():
        tors = _torsion_values(vals.gamma[blk], vals.c[blk]) - vals.t_zero[blk]
        worst_t = _worst(worst_t, _in_frame(tors, q[blk], qinv[blk]))
        worst_r = _worst(worst_r, _in_frame(_curvature(vals, blk), q[blk], qinv[blk]))
    return FlatnessReport(
        flat=bool(worst_t <= tol and worst_r <= tol),
        torsion_residual=worst_t,
        curvature_residual=worst_r,
    )
