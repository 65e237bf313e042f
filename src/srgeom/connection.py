"""Gradings, taming metrics, selectors, and graded affine connections.

A :class:`Grading` is an adapted frame, a :class:`FramedManifold`, split into
layers spanning a complement decomposition of the bracket flag.  A
construction's grading has a derived frame, whose calculus comes from its
coefficient rows (``manifold._frame_over``); a declared chart's own frame is
inverted and bracketed at the coordinate level.  In adapted
coordinates the induced identification of the tangent space with its graded
symbol is simply "read the frame components", which makes the taming metric,
the canonical selector and the degree-zero torsion concretely computable.  A
:class:`Connection` stores frame Christoffel coefficients; the
compatibility, normalization and flatness checks read its torsion and
curvature at sample points.

Symbolic where a construction reads expressions: structure functions, degree-0
torsion, taming metric, selector (solved once per grading), Γ and the symbolic
tensors listed on :class:`Connection`.  Every symbolic inverse, the wedge-Gram
inverses and the taming metric's layer blocks alike, is ``manifold._inverse``.
The wedge-Gram inverse of each wedge class is solved once per grading and kept
on it, so the taming metric and the selector share it.  From values where only
points are read, with one evaluation per chart and one solve per distinct
symbol: the tables every check reads (Γ, structure functions, T₀, frame rows,
the horizontal metric, selector coefficients) are evaluated in one
:func:`expr.evaluate_tables` call for all points, which also returns the
coordinate gradients of Γ, T₀ and the metric by forward-mode differentiation,
so no check differentiates a table symbolically.  The connection keeps that
evaluation for its last point set, so the checks of one chart share it.
Torsion, curvature, ∇g and ∇T₀ are contracted with ``matmul`` on stacked
``(point, …)`` arrays, one block of points at a time, so a stacked n⁴ array
holds at most 8192 floats (or one point).  The three checks share one pass
over the blocks (``_PointValues.residuals``) with six running maxima, so each
check alone also makes the pieces of the other two, and each block's
curvature is made once.  A table whose gradient is the evaluator's constant
zero has no frame-derivative product.  Points with bitwise equal symbols
share one :class:`CarnotAlgebra`, so its Gram matrices, isometry algebra and
trace frame are computed once and gathered per point.
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
    _chart,
    _flags,
    _interned_symbols,
    _inverse,
    _ranks,
    _sum_of_products,
    structure_functions,
)

__all__ = [
    "Grading",
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

    ``frame`` is a :class:`FramedManifold` whose fields, taken in blocks of
    ``layer_dims``, are the layers: the first block spans the horizontal
    bundle (its size equals the horizontal rank) and block number k spans a
    complement of the (k-1)-th flag subbundle inside the k-th.  The frame's
    metric is the horizontal inner product in its first block.  A grading
    built by a construction has a derived frame (``manifold._frame_over``),
    whose calculus comes from its coefficient rows; a declared chart's own
    frame is handled at the coordinate level.  ``base`` is the declared
    chart under the frame, whose flag :meth:`validate` reads.
    """

    def __init__(self, frame: FramedManifold, layer_dims):
        self.layer_dims = tuple(layer_dims)
        if not self.layer_dims or self.layer_dims[0] != frame.rank:
            raise ManifoldError(
                "the first grading layer must have exactly the horizontal rank"
            )
        if sum(self.layer_dims) != frame.dim:
            raise ManifoldError(
                f"adapted frame needs {frame.dim} fields, got {sum(self.layer_dims)}"
            )
        self.frame = frame
        self.base = _chart(frame)
        self.step = len(self.layer_dims)
        self.degrees = tuple(
            k + 1 for k, d in enumerate(self.layer_dims) for _ in range(d)
        )
        self._symbol_cache = {}  # symbol content -> CarnotAlgebra
        self.fields = frame.frames
        # rows[i][a]: coordinate component a of the i-th adapted field
        self.frame_rows = tuple(f.components for f in self.fields)
        self._t_zero = None
        self._selector = None
        self._wedge_inverses = {}  # wedge class -> its wedge-Gram inverse

    # -- bookkeeping --------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.frame.dim

    def degree_of(self, a: int) -> int:
        return self.degrees[a]

    def layer_range(self, k: int) -> range:
        start = sum(self.layer_dims[: k - 1])
        return range(start, start + self.layer_dims[k - 1])

    def structure_functions(self):
        return structure_functions(self.frame)

    # -- pointwise graded data ----------------------------------------------

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
                # ...and span it; horizontal and vertical columns scale
                # differently with the metric, so they are ranked normalized
                normalized = cols / np.linalg.norm(cols, axis=0)
                if _ranks(normalized[None])[0] != want[k - 1]:
                    raise ManifoldError(
                        f"adapted layers through {k} are dependent at {p}"
                    )
        return worst


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


def _wedge_gram_inverse(grading: Grading, gmat, key, wedges):
    """Symbolic inverse of the Gram matrix of the ``wedges`` of class ``key`` under ``gmat``.

    Entry (ab, cd) of the Gram matrix is g_ac g_bd - g_ad g_bc, built from its
    products of two non-zero entries.  Both layers of a wedge in the class
    have degree below its sum, so only those layers of ``gmat`` are read,
    which the taming metric fills before it needs the class.  The inverse is
    solved once per grading and class and kept on the grading, which
    :func:`taming_metric` and :func:`selector` share.
    """
    if key not in grading._wedge_inverses:

        def minor(a, b, cc, d):
            # expr.sub(g_ac g_bd, g_ad g_bc), from the products without a ZERO factor
            ac_bd = _ZERO if _ZERO in (gmat[a][cc], gmat[b][d]) else expr.mul(gmat[a][cc], gmat[b][d])
            if _ZERO in (gmat[a][d], gmat[b][cc]):
                return ac_bd
            return _sum_of_products([(expr.MINUS_ONE, expr.mul(gmat[a][d], gmat[b][cc]))], ac_bd)

        gram = [[minor(a, b, cc, d) for (cc, d) in wedges] for (a, b) in wedges]
        grading._wedge_inverses[key] = _inverse(gram)
    return grading._wedge_inverses[key]


def taming_metric(grading: Grading) -> tuple:
    """Extend the horizontal metric over the whole adapted frame.

    Returns the n x n matrix of Expr entries in the adapted frame.  Layer one
    carries the declared horizontal metric.  Each higher layer is built so
    that bracketing orthonormal 2-vectors of lower layers onto it is a
    submetry; concretely the layer's inverse Gram is B W^{-1} B^T with W the
    Gram of the lower-degree wedges and B the bracket coefficients.  This is
    the Gram of :meth:`lie.CarnotAlgebra.full_gram`, as expressions.

    W is block diagonal over the wedge classes of degree k, which follow each
    other in the order of the wedges (the first degree of a class grows with
    its first index), so W⁻¹ is assembled from the inverses of the classes
    that :func:`_wedge_gram_inverse` keeps on the grading: :func:`selector`
    reads the same ones.  The sums run over the non-zero bracket
    coefficients and inverse entries, in the order of the dense sum.
    """
    n = grading.dim
    c = grading.structure_functions()
    gmat = [[_ZERO for _ in range(n)] for _ in range(n)]
    r1 = grading.layer_range(1)
    for i in r1:
        for j in r1:
            gmat[i][j] = grading.frame.metric[i][j]

    classes = _wedge_classes(grading)
    for k in range(2, grading.step + 1):
        rk = grading.layer_range(k)
        # per class: its inverse, and per u in layer k the wedges i with c[a][b][u] != 0
        blocks = []
        for key, wedges in classes.items():
            if sum(key) == k:
                winv = _wedge_gram_inverse(grading, gmat, key, wedges)
                live = {
                    u: [(i, c[a][b][u]) for i, (a, b) in enumerate(wedges) if c[a][b][u] is not _ZERO]
                    for u in rk
                }
                blocks.append((winv, live))
        ginv = []
        for u in rk:
            row = []
            for v in rk:
                terms = [
                    (cu, winv[i][j], cv)
                    for winv, live in blocks
                    for i, cu in live[u]
                    for j, cv in live[v]
                    if winv[i][j] is not _ZERO
                ]
                row.append(_sum_of_products(terms) if terms else _ZERO)
            ginv.append(row)
        block = _inverse(ginv)
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
    on it; the wedge-Gram inverse of each class is the one
    :func:`taming_metric` solved, kept on the grading.
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
        rk = grading.layer_range(k)
        winv = _wedge_gram_inverse(grading, gmat, key, wedges)
        for t in rk:
            column = [d for d in rk if gmat[d][t] is not _ZERO]
            rhs = []
            for a, b in wedges:
                terms = [(c[a][b][d], gmat[d][t]) for d in column if c[a][b][d] is not _ZERO]
                rhs.append(_sum_of_products(terms) if terms else _ZERO)
            live = [j for j, e in enumerate(rhs) if e is not _ZERO]
            for i, (a, b) in enumerate(wedges):
                terms = [(winv[i][j], rhs[j]) for j in live if winv[i][j] is not _ZERO]
                coef = _sum_of_products(terms) if terms else _ZERO
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
        g = self.grading
        return _interned_symbols(-self.t_zero, self.metric, g.layer_dims, g._symbol_cache)

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

    @functools.cached_property
    def residuals(self) -> tuple:
        """∇g and ∇T₀, Morimoto's r and t, and flatness's torsion and curvature residuals.

        The one pass over the blocks, keeping only these six running maxima:
        each block's torsion, selector matrices and curvature R are made once
        for every reduction, so the three checks on one point set make R once
        per block, in any order, and each alone makes the others' pieces.
        """
        n = self.grading.dim
        chi = selector(self.grading)
        gram, ginv, pairing = self.per_symbol(_trace_frame)
        gram_t, ginv_t = gram.swapaxes(1, 2)[:, None], ginv.swapaxes(1, 2)[:, None]
        q, qinv = self.per_symbol(_onb_and_inverse)
        deg = np.array(self.grading.degrees)
        lower = deg[None, :] < deg[:, None]  # [v, w]: deg w < deg v

        worst_metric = worst_tz = worst_r = worst_t = worst_torsion = worst_curvature = 0.0
        for blk in self.blocks():
            worst_metric = _worst(worst_metric, _metric_derivative(self, blk))
            worst_tz = _worst(worst_tz, _t_zero_derivative(self, blk))
            tors = _torsion_values(self.gamma[blk], self.c[blk])
            b = len(tors)
            t_v = tors.reshape(b, n, n * n)  # operator T_v held with its input index first
            chis = chi.matrices(self.selector[blk]).reshape(b, n, n * n)  # [v, ab]
            # <T(chi(v)), w> + <T_v, TZ_w>, where <T_v, TZ_w> = Σ T_v ⊙ (G⁻ᵀ TZ_w Gᵀ)
            tz_w = ginv_t[blk] @ self.t_zero[blk] @ gram_t[blk]
            resid_t = 0.5 * chis @ tors.reshape(b, n * n, n) @ gram[blk]
            resid_t += t_v @ tz_w.reshape(b, n, n * n).swapaxes(1, 2)
            worst_t = _worst(worst_t, resid_t[:, lower])
            # <R(chi(v)) - T_v, D> for every generator D
            curv = _curvature(self, blk)
            diff = 0.5 * chis @ curv.reshape(b, n * n, n * n) - t_v
            worst_r = _worst(worst_r, diff @ pairing[blk].reshape(b, -1, n * n).swapaxes(1, 2))
            # torsion less its degree-0 part, and R, in the orthonormal frame
            worst_torsion = _worst(worst_torsion, _in_frame(tors - self.t_zero[blk], q[blk], qinv[blk]))
            worst_curvature = _worst(worst_curvature, _in_frame(curv, q[blk], qinv[blk]))
        return worst_metric, worst_tz, worst_r, worst_t, worst_torsion, worst_curvature


def _constant(grad: np.ndarray) -> bool:
    """Whether ``grad`` is the evaluator's gradient of a constant table: one zero, broadcast."""
    return not any(grad.strides)


def _frame_derivative(frame: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """W_i of a table at stacked points: F ∂, with the frame index in place of the coordinate.

    Callers skip it for a :func:`_constant` gradient, whose product is zero.
    """
    b, n = frame.shape[:2]
    return (frame @ grad.reshape(b, grad.shape[1], -1)).reshape(b, n, *grad.shape[2:])


def _curvature(vals: _PointValues, blk: slice) -> np.ndarray:
    """R at the points of one block: [p, i, j, k, l] is component l of R(W_i, W_j) W_k.

    R = A - Aᵀ in (i, j), with A_ijkl = W_i(Γ_jkl) + Σ_m (Γ_jkm Γ_iml - ½ c_ij^m Γ_mkl)
    (c is antisymmetric in i, j).  A is antisymmetrized in place, one i at a
    time, so one n⁴ array of the block and one matmul product are alive at once.
    A constant Γ has no W_i(Γ) term.
    """
    gam, c = vals.gamma[blk], vals.c[blk]
    b, n = gam.shape[:2]
    curv = (gam.reshape(b, 1, n * n, n) @ gam).reshape(b, n, n, n, n)
    if not _constant(vals.d_gamma):
        curv += _frame_derivative(vals.frame[blk], vals.d_gamma[blk])
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
    n = 7 takes 3 points per block and n = 3 takes every point.  The three
    checks read one pass over the blocks, made on first use and kept with
    the evaluation as six running maxima.  ``torsion_at`` and
    ``curvature_at`` are the one-point case; the bench harness times these
    four methods.  The frame derivatives W_i(Γ) at a point are F(p) ∂Γ(p):
    F(p) is the adapted frame matrix and ∂Γ the coordinate gradient of Γ,
    which the evaluator returns with Γ's values.
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

        Only the non-zero terms are built, in the order of the dense sum, and
        an entry with none is ``ZERO`` without a sum.
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
                    if gam[j][k][mm] is not _ZERO and gam[i][mm][l] is not _ZERO:
                        products.append((gam[j][k][mm], gam[i][mm][l]))
                    # the negated products, expr.neg(expr.mul(...)), where non-zero
                    if gam[i][k][mm] is not _ZERO and gam[j][mm][l] is not _ZERO:
                        products.append((expr.MINUS_ONE, expr.mul(gam[i][k][mm], gam[j][mm][l])))
                    if c[i][j][mm] is not _ZERO and gam[mm][k][l] is not _ZERO:
                        products.append((expr.MINUS_ONE, expr.mul(c[i][j][mm], gam[mm][k][l])))
                # the directional derivatives of the Christoffels come first
                live = [
                    s for s in (fields[i].apply(gam[j][k][l]), fields[j].apply(gam[i][k][l], expr.MINUS_ONE))
                    if s is not _ZERO
                ]
                row.append(_sum_of_products(products, *live) if products or live else _ZERO)
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
    if _constant(vals.d_metric):
        # a constant metric has no W_i(g) term
        out = -(hor @ met)
    else:
        out = _frame_derivative(vals.frame[blk], vals.d_metric[blk]) - hor @ met
    return out - (hor @ met.swapaxes(2, 3)).swapaxes(2, 3)


def _t_zero_derivative(vals: _PointValues, blk: slice) -> np.ndarray:
    """∇T₀ at the points of one block: [p, i, j, k, l] = (∇_i T₀)_jk^l.

    (∇_i T₀)_jk^l = W_i(T₀_jk^l) + T₀_jk^m Γ_im^l - Γ_ij^m T₀_mk^l - Γ_ik^m T₀_jm^l.
    """
    gam, tz = vals.gamma[blk], vals.t_zero[blk]
    b, n = gam.shape[:2]
    out = (tz.reshape(b, 1, n * n, n) @ gam).reshape(b, n, n, n, n)
    if not _constant(vals.d_t_zero):
        out += _frame_derivative(vals.frame[blk], vals.d_t_zero[blk])
    out -= (gam.reshape(b, n * n, n) @ tz.reshape(b, n, n * n)).reshape(out.shape)
    out -= gam[:, :, None] @ tz[:, None]  # Γ_i (k, m) times T₀_j (m, l), for every (i, j)
    return out


def check_compatible(conn: Connection, points, tol: float = 1e-8) -> CompatibilityReport:
    """Layer parallelism, horizontal metric rule, and degree-0-torsion parallelism.

    ∇g and ∇T₀ come from the one pass of ``_PointValues.residuals``, so this
    check alone also makes the Morimoto and flatness pieces of its points."""
    vals = conn._at(points)
    # Christoffel components [i][j][k] that change layer: deg j != deg k
    deg = np.array(conn.grading.degrees)
    layer_change = deg[:, None] != deg[None, :]
    worst_layers = _worst(0.0, vals.gamma[:, :, layer_change])
    worst_metric, worst_tz = vals.residuals[:2]
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
    compat = check_compatible(conn, points, tol=tol)
    worst_r, worst_t = conn._at(points).residuals[2:4]
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
    worst_t, worst_r = conn._at(points).residuals[4:]
    return FlatnessReport(
        flat=bool(worst_t <= tol and worst_r <= tol),
        torsion_residual=worst_t,
        curvature_residual=worst_r,
    )
