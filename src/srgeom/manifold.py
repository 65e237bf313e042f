"""Chart-local sub-Riemannian manifolds described by coordinate frames.

A :class:`FramedManifold` is a single coordinate chart together with a
global frame of vector fields whose first ``r`` members span the horizontal
bundle, and a symmetric positive-definite coefficient matrix giving the
horizontal metric in that frame.  All geometry here is exact-symbolic where
possible (brackets, structure functions, frame inversion) and numeric where
it has to be (ranks, symbol algebras at sample points).

A frame is declared (a :class:`FramedManifold`, a chart's own frame by its
coordinate components) or derived (a :class:`_Frame`, coefficient rows over
a frame whose calculus is known).  Both offer :func:`frame_inverse` and one
bracket pair at a time, :func:`_pair`, built when first read; the whole
table, :func:`structure_functions`, is made of pairs.  A declared frame is
inverted and bracketed at the coordinate level, a derived frame through its
rows, and its coordinate fields are made when read.

Every reader of a bracket flag takes it from one pass, :func:`_flags`, which
evaluates the frame once for all sample points and each bracket layer once
for the points whose flag has not yet filled the chart.  The constant-symbol
verdict, the one test through which the constructions refuse a chart, reads
that pass too: a (2,3,5) chart its growth vector, a contact chart the
bracket form modulo the horizontal bundle (the vertical row of the step-2
values, one per unordered pair of horizontal fields, filled in
antisymmetrically) and the evaluated metric, stacked for one batched normal
form.  Symbols at points are checked and interned in one stacked pass
(:func:`_interned_symbols`).

Sample points, the default ones of the constructions and the seeded ones of
a description file, come from one helper, :func:`_uniform_rows`, which draws
from the standard library's ``random.Random(seed)``; numpy's generator is
never loaded.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr
from .expr import Expr
from .lie import CarnotAlgebra, LieError, heisenberg_normal_forms

__all__ = [
    "ManifoldError",
    "RankJumpError",
    "FramedManifold",
    "VectorField",
    "SymbolVerdict",
    "ManifoldDocument",
    "bracket",
    "frame_bracket",
    "frame_combination",
    "structure_functions",
    "frame_inverse",
    "growth_flag",
    "check_constant_symbol",
    "manifold_from_dict",
    "load_manifold",
]

STRUCTURE_CLASSES = ("generic", "contact", "two-three-five")

_ZERO = expr.rational(0)
_ONE = expr.rational(1)
_LAMBDA_SPREAD = 1e-6  # the most a contact λ varies over the points of a constant symbol


class ManifoldError(Exception):
    """Invalid manifold data or a geometric precondition failure."""


class RankJumpError(ManifoldError):
    """Growth vector changed between sample points (not equiregular)."""


def _row(value, what: str) -> tuple:
    """``value`` as a tuple; a string or bytes, which would be read as its characters, is refused."""
    if isinstance(value, (str, bytes)):
        raise ManifoldError(f"{what} must be a sequence, not the string {value!r}")
    return tuple(value)


def _coerce_expr(value, coords):
    if isinstance(value, Expr):
        return value
    if isinstance(value, str):
        return expr.parse(value, coords)
    if isinstance(value, bool):
        raise ManifoldError("booleans are not valid expression coefficients")
    if isinstance(value, int):
        return expr.rational(value)
    if isinstance(value, float):
        return expr.floatc(value)
    raise ManifoldError(f"cannot interpret {value!r} as an expression")


class VectorField:
    """Vector field on a chart, stored as coordinate-basis coefficients.

    Of ``manifold``, the chart or a field on it, only the coordinate names
    are kept: the chart's frame holds its fields, so keeping the chart would
    make a cycle that reference counting cannot free.
    """

    __slots__ = ("coords", "components")

    def __init__(self, manifold, components):
        coords = manifold.coords
        comps = tuple(_coerce_expr(c, coords) for c in _row(components, "a vector field's components"))
        if len(comps) != len(coords):
            raise ManifoldError(
                f"vector field needs {len(coords)} components, got {len(comps)}"
            )
        self.coords = coords
        self.components = comps

    def value_at(self, point: dict) -> np.ndarray:
        return expr.evaluate_array(self.components, point)

    def apply(self, f: Expr, factor: Expr = _ONE) -> Expr:
        """``factor * X(f)``: the derivative of ``f`` along this field.

        Only the non-zero terms are built: a constant ``f`` gives ``ZERO``, and
        a coordinate whose component of X or derivative of ``f`` is ``ZERO``
        is skipped, as every caller of ``expr.mul`` skips ``ZERO`` factors (the
        short-circuits in ``mul`` and ``add`` are a backstop).  ``factor``
        multiplies every term, not the sum: a negated sum is a ``(-1)*(a+b)``
        node, which ``expr.add`` does not cancel against the flat terms ``a``
        and ``b``.
        """
        if isinstance(f, (expr.Rat, expr.Flt)):
            return _ZERO
        terms = []
        for xa, c in zip(self.components, self.coords):
            if xa is not _ZERO:
                d = expr.differentiate(f, c)
                if d is not _ZERO:
                    terms.append((factor, xa, d))
        return _sum_of_products(terms) if terms else _ZERO

    def __repr__(self) -> str:
        parts = ", ".join(expr.to_string(c) for c in self.components)
        return f"VectorField([{parts}])"


class FramedManifold:
    """Single-chart manifold with a frame whose first r fields span E."""

    def __init__(self, coords, frames, horizontal_rank, metric=None,
                 structure_class: str = "generic"):
        coords, frames = _row(coords, "coords"), _row(frames, "frames")
        if not coords:
            raise ManifoldError("at least one coordinate is required")
        if len(set(coords)) != len(coords):
            raise ManifoldError("coordinate names must be distinct")
        n = len(coords)
        if len(frames) != n:
            raise ManifoldError(
                f"expected {n} frame fields for {n} coordinates, got {len(frames)}"
            )
        if not 1 <= horizontal_rank <= n:
            raise ManifoldError(
                f"horizontal rank {horizontal_rank} out of range 1..{n}"
            )
        if structure_class not in STRUCTURE_CLASSES:
            raise ManifoldError(
                f"unknown structure class {structure_class!r}; "
                f"expected one of {STRUCTURE_CLASSES}"
            )
        self.coords = coords
        self.rank = int(horizontal_rank)
        self.structure_class = structure_class
        self.frames = tuple(VectorField(self, vec) for vec in frames)

        r = self.rank
        if metric is None:
            metric = [[_ONE if i == j else _ZERO for j in range(r)] for i in range(r)]
        rows = [tuple(_coerce_expr(v, coords) for v in _row(row, "a metric row")) for row in _row(metric, "metric")]
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ManifoldError(f"metric must be a {r}x{r} matrix")
        for i in range(r):
            for j in range(i + 1, r):
                if rows[i][j] is not rows[j][i]:
                    raise ManifoldError("metric matrix must be symmetric")
        self.metric = tuple(rows)

        self._pairs = {}  # (i, j) -> c[i][j], as read by _pair
        self._bracket_layers = [list(self.frames[:r])]

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def chart(self) -> "FramedManifold":
        return self

    def point(self, values) -> dict:
        """The point as a coordinate dict of floats, each one finite."""
        if isinstance(values, dict):
            missing = [c for c in self.coords if c not in values]
            if missing:
                raise ManifoldError(f"point is missing coordinates {missing}")
            values = [values[c] for c in self.coords]
        values = _row(values, "a point")
        if len(values) != self.dim:
            raise ManifoldError(
                f"point needs {self.dim} values, got {len(values)}"
            )
        point = {c: float(v) for c, v in zip(self.coords, values)}
        bad = [c for c, v in point.items() if not math.isfinite(v)]
        if bad:
            raise ManifoldError(f"coordinate {bad[0]!r} of the point is {point[bad[0]]}, not finite")
        return point

    def frame_matrix_at(self, point: dict) -> np.ndarray:
        """Columns are the frame fields evaluated at the point."""
        return self.frame_matrices_at([point])[0]

    def frame_matrices_at(self, points) -> list:
        """Frame matrix at every point, checked non-singular; one evaluation and one check."""
        return list(_checked_frame(_columns(self.frames, points)))

    # -- the coordinate-level calculus, read by frame_inverse and _pair -----

    @functools.cached_property
    def _coframe(self):
        n = self.dim
        return tuple(map(tuple, _inverse([[self.frames[i].components[a] for i in range(n)] for a in range(n)])))

    @functools.cached_property
    def _rows_inverse(self):
        return list(zip(*frame_inverse(self)))  # the coframe transposed

    def _bracket(self, i: int, j: int):
        return bracket(self.frames[i], self.frames[j]).components

    # -- iterated horizontal brackets ---------------------------------------

    def bracket_layer(self, k: int):
        """Fields spanning the k-th layer: (k-1)-fold brackets of the frame.

        Layer 1 is the horizontal frame.  Layer 2 brackets each unordered
        pair of horizontal fields once, [X_a, X_b] for a < b in the order
        (0, 1), (0, 2), ..., (1, 2), ...: r(r-1)/2 fields, since [X_b, X_a] is
        their negative and [X_a, X_a] is zero.  Layer k > 2 brackets every
        horizontal field with every field of layer k-1.
        """
        hor = self._bracket_layers[0]
        while len(self._bracket_layers) < k:
            if len(self._bracket_layers) == 1:
                nxt = [bracket(x, y) for a, x in enumerate(hor) for y in hor[a + 1:]]
            else:
                nxt = [bracket(x, y) for x in hor for y in self._bracket_layers[-1]]
            self._bracket_layers.append(nxt)
        return self._bracket_layers[k - 1]


# ---------------------------------------------------------------------------
# brackets and structure functions


def _is_zero(e: Expr) -> bool:
    return e is _ZERO


def _is_nonzero_const(e: Expr) -> bool:
    return isinstance(e, (expr.Rat, expr.Flt)) and not _is_zero(e)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator bracket of two vector fields in the same coordinates."""
    if x.coords != y.coords:
        raise ManifoldError("vector fields live on different charts")
    components = []
    for xk, yk in zip(x.components, y.components):
        live = [s for s in (x.apply(yk), y.apply(xk, expr.MINUS_ONE)) if s is not _ZERO]
        components.append(_sum_of_products((), *live) if live else _ZERO)
    return VectorField(x, components)


def frame_bracket(frame, u, w):
    """Bracket of two coefficient vectors over ``frame``, again as coefficients.

    ``u`` and ``w`` hold coefficients over the fields of ``frame``; the
    bracket reads those fields, and the pairs :func:`_pair` ``(a, b)`` with
    ``u[a]`` and ``w[b]`` non-zero.  The loops run over the supports of ``u``
    and ``w``, the non-zero derivatives and the non-zero ``c[a][b][k]``, so no
    term with a ``ZERO`` factor reaches ``expr.mul`` (whose ``ZERO``
    short-circuit is only a backstop).  The kept terms keep their dense order.
    """
    fields, pairs = frame.frames, frame._pairs
    n = len(u)
    su = [a for a in range(n) if u[a] is not _ZERO]
    sw = [b for b in range(n) if w[b] is not _ZERO]
    either = sorted(set(su + sw))
    # the structure-constant terms of each component, in the order (a, b)
    structure = [[] for _ in range(n)]
    for a in su:
        for b in sw:
            row = pairs.get((a, b)) or _pair(frame, a, b)
            for k in range(n):
                if row[k] is not _ZERO:
                    structure[k].append((u[a], w[b], row[k]))
    out = []
    for k in range(n):
        terms = []
        uk, wk = u[k], w[k]
        if uk is not _ZERO or wk is not _ZERO:
            for a in either:
                if u[a] is not _ZERO and wk is not _ZERO:
                    d = fields[a].apply(wk)
                    if d is not _ZERO:
                        terms.append((u[a], d))
                if w[a] is not _ZERO and uk is not _ZERO:
                    d = fields[a].apply(uk)
                    if d is not _ZERO:
                        # expr.neg of the product
                        terms.append((expr.MINUS_ONE, expr.mul(w[a], d)))
        terms += structure[k]
        out.append(_sum_of_products(terms) if terms else _ZERO)
    return out


def frame_combination(m: FramedManifold, fields, coeffs) -> VectorField:
    """The vector field ``sum_i coeffs[i] * fields[i]`` on ``m``; a unit row gives its field as it is."""
    live = [i for i in range(len(fields)) if coeffs[i] is not _ZERO]
    if len(live) == 1 and coeffs[live[0]] is _ONE:
        return VectorField(m, fields[live[0]].components)
    components = []
    for a in range(m.dim):
        terms = [(coeffs[i], fields[i].components[a]) for i in live if fields[i].components[a] is not _ZERO]
        components.append(_sum_of_products(terms) if terms else _ZERO)
    return VectorField(m, components)


def _gram_schmidt_horizontal(m: FramedManifold):
    """Orthonormalize the horizontal frame symbolically.

    Returns the orthonormal fields as coefficient rows over the horizontal
    frame ``m.frames[:m.rank]``.
    """
    r = m.rank

    def inner(u, v):
        terms = [
            (u[i], m.metric[i][j], v[j])
            for i in range(r) if u[i] is not _ZERO
            for j in range(r) if v[j] is not _ZERO and m.metric[i][j] is not _ZERO
        ]
        return _sum_of_products(terms) if terms else _ZERO

    ortho = []
    for i in range(r):
        vec = [_ONE if j == i else _ZERO for j in range(r)]
        for prev in ortho:
            coef = inner(vec, prev)
            vec = [
                e if coef is _ZERO or p is _ZERO else expr.add(e, expr.neg(expr.mul(coef, p)))
                for e, p in zip(vec, prev)
            ]
        nrm = expr.sqrt(inner(vec, vec))
        inv = expr.pow_(nrm, -1)
        ortho.append([c if c is _ZERO else expr.mul(inv, c) for c in vec])
    return ortho


def _gauss_jordan(rows, n: int):
    """Reduce [A | B] in place so the left n columns become the identity.

    Pivots prefer nonzero constants to keep the symbolic arithmetic exact and
    small; expression pivots are used when no constant is available.  Only
    the non-zero entries of the pivot row are scaled, and only the rows with
    a non-zero entry in the pivot column are reduced, at its non-zero entries.
    """
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if _is_nonzero_const(rows[r][col]):
                pivot = r
                break
        if pivot is None:
            for r in range(col, n):
                if not _is_zero(rows[r][col]):
                    pivot = r
                    break
        if pivot is None:
            raise ManifoldError("matrix is not symbolically invertible")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = expr.pow_(rows[col][col], -1)
        rows[col] = [e if e is _ZERO else expr.mul(inv, e) for e in rows[col]]
        for r in range(n):
            if r == col or _is_zero(rows[r][col]):
                continue
            f = rows[r][col]
            rows[r] = [
                e if p is _ZERO else expr.sub(e, expr.mul(f, p))
                for e, p in zip(rows[r], rows[col])
            ]
    return rows


def _inverse(matrix):
    """Symbolic inverse of a square Expr matrix: :func:`_gauss_jordan` of [A | I].

    The one symbolic matrix inverse; a column without a non-zero pivot
    raises :class:`ManifoldError`.
    """
    n = len(matrix)
    rows = [list(matrix[r]) + [_ONE if c == r else _ZERO for c in range(n)] for r in range(n)]
    return [row[n:] for row in _gauss_jordan(rows, n)]


class _Frame:
    """The derived frame whose fields are the coefficient ``rows`` over the frame ``base``.

    Its coordinates, rank and points are those of ``chart``, the declared
    chart under it, and its metric is the identity: every derived frame
    starts with orthonormal horizontal fields.  A bracket pair is the
    :func:`frame_bracket` of two rows over ``base``; the fields, the
    :func:`frame_combination` of the rows, are made when first read.
    """

    def __init__(self, base, rows):
        self.base = base
        self.chart = base.chart
        self.rows = tuple(map(tuple, rows))
        self._rows_inverse = tuple(map(tuple, _inverse(self.rows)))
        self.coords, self.rank = self.chart.coords, self.chart.rank
        self.metric = tuple(tuple(_ONE if i == j else _ZERO for j in range(self.rank)) for i in range(self.rank))
        self._pairs = {}

    dim = FramedManifold.dim
    point = FramedManifold.point
    frame_matrix_at = FramedManifold.frame_matrix_at
    frame_matrices_at = FramedManifold.frame_matrices_at

    @functools.cached_property
    def frames(self):
        return tuple(frame_combination(self.chart, self.base.frames, row) for row in self.rows)

    @functools.cached_property
    def _coframe(self):
        return tuple(map(tuple, _matmul(list(zip(*self._rows_inverse)), frame_inverse(self.base))))

    def _bracket(self, i: int, j: int):
        return frame_bracket(self.base, self.rows[i], self.rows[j])


def frame_inverse(m):
    """Symbolic inverse of the frame matrix (rows of the dual coframe).

    Entry [i][a] is the coefficient of the i-th coframe one-form on the
    coordinate vector field number a, i.e. applying row i to a coordinate
    vector recovers the i-th frame component of that vector.  A declared
    frame solves its coordinate matrix by :func:`_inverse`; a derived frame
    takes the transpose of the inverse of its rows times the coframe of its
    base.  Made once per frame.
    """
    return m._coframe


def _pair(frame, i: int, j: int):
    """c[i][j] of :func:`structure_functions`: the components over ``frame`` of [F_i, F_j].

    Built with c[j][i] when first read, from the bracket with ``i < j`` read
    through the inverse of the frame's rows (a zero bracket without a sum),
    and kept.
    """
    if (i, j) not in frame._pairs:
        a, b = sorted((i, j))
        br = () if a == b else frame._bracket(a, b)
        c = _matmul([br], frame._rows_inverse)[0] if any(e is not _ZERO for e in br) else [_ZERO] * frame.dim
        frame._pairs[a, b] = c
        frame._pairs[b, a] = [e if e is _ZERO else expr.neg(e) for e in c]
    return frame._pairs[i, j]


def structure_functions(m):
    """Expressions c[i][j][k] with [X_i, X_j] = sum_k c[i][j][k] X_k: the whole table of pairs :func:`_pair`."""
    n = m.dim
    return [[_pair(m, i, j) for j in range(n)] for i in range(n)]


def _sum_of_products(terms, *summands):
    """``expr.add`` of the ``summands`` and of the products ``expr.mul(*t)``.

    The one sum of the symbolic construction.  ``terms`` holds tuples of
    factors.  Callers loop over the supports of their operands and pass only
    live terms: a caller whose sum has no live term takes ``ZERO`` without a
    call.  Only the non-zero terms are built here too: a ``ZERO`` summand and
    a tuple with a ``ZERO`` factor are skipped, and ``ZERO`` is returned
    without a constructor call when nothing is left.  The kept terms go to
    one ``add`` in their order, summands first: ``add`` folds float
    coefficients in argument order, so callers keep the dense order of their
    terms and the sum is the node the dense sum builds.  One kept term is
    returned as it is.
    """
    kept = [s for s in summands if s is not _ZERO]
    for t in terms:
        for f in t:
            if f is _ZERO:
                break
        else:
            kept.append(expr.mul(*t))
    if len(kept) == 1:
        # add of one term the constructors built returns that term
        return kept[0]
    return expr.add(*kept) if kept else _ZERO


def _matmul(a, b):
    """Product of two Expr matrices, built from the non-zero pairs of entries."""
    columns = [[k for k in range(len(b)) if b[k][j] is not _ZERO] for j in range(len(b[0]))]
    out = []
    for row in a:
        out_row = []
        for j, ks in enumerate(columns):
            terms = [(row[k], b[k][j]) for k in ks if row[k] is not _ZERO]
            out_row.append(_sum_of_products(terms) if terms else _ZERO)
        out.append(out_row)
    return out


# ---------------------------------------------------------------------------
# growth vector and graded symbol


def _singular(mat: np.ndarray) -> bool:
    """Whether a square matrix, or any of a stack, is singular, by a scale-free test.

    |det| is compared with 1e-9 times the product of the column norms, its
    bound by Hadamard's inequality, so scaling a column does not change the
    answer.  A matrix whose determinant is not a number counts as singular.
    """
    return not np.all(np.abs(np.linalg.det(mat)) > 1e-9 * np.prod(np.linalg.norm(mat, axis=-2), axis=-1))


def _checked_frame(mat: np.ndarray) -> np.ndarray:
    """A frame matrix, or a stack of them, checked non-singular."""
    if _singular(mat):
        raise ManifoldError("frame is singular at a requested point")
    return mat


def _checked_metric(g: np.ndarray) -> np.ndarray:
    """A metric matrix, or a stack of them, checked symmetric positive-definite."""
    if np.abs(g - np.swapaxes(g, -1, -2)).max() > 1e-12:
        raise ManifoldError("metric is not symmetric at a requested point")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ManifoldError("metric is not positive-definite at a requested point") from exc
    return g


def _columns(fields, points) -> np.ndarray:
    """Per point, the fields evaluated there as columns, stacked; one evaluation for all."""
    values = expr.evaluate_tables([[f.components for f in fields]], points)[0]
    return np.ascontiguousarray(np.swapaxes(values, 1, 2))


def _ranks(mats: np.ndarray) -> np.ndarray:
    """Numerical rank of each stacked matrix, relative to its largest singular value."""
    s = np.linalg.svd(mats, compute_uv=False)
    return np.sum(s > 1e-9 * s[:, :1], axis=1)


def _flags(m: FramedManifold, points, max_step: int) -> list:
    """Per point: the inverse frame matrix, the flag and the layer values.

    Layer values are in frame coordinates, one column per bracket field.  A
    point's flag ends when its rank fills the chart or after ``max_step``
    layers; a plateau does not end it.  Each layer is mapped to frame
    coordinates and ranked for all growing points at once.
    """
    if max_step < 1:
        raise ManifoldError("max_step must be at least 1")
    finvs = np.linalg.inv(_checked_frame(_columns(m.frames, points)))
    flags = [[] for _ in points]
    layers = [[] for _ in points]
    spans = np.zeros((len(points), m.dim, 0))  # every point's layers so far, side by side
    growing = np.arange(len(points))
    for k in range(1, max_step + 1):
        if not len(growing):
            break
        vals = finvs[growing] @ _columns(m.bracket_layer(k), [points[x] for x in growing])
        spans = np.concatenate([spans, vals], axis=2)
        ranks = _ranks(spans)
        for x, layer, rank in zip(growing, vals, ranks):
            layers[x].append(layer)
            flags[x].append(int(rank))
        still = ranks != m.dim
        growing, spans = growing[still], spans[still]
    return [(finv, tuple(flag), layer) for finv, flag, layer in zip(finvs, flags, layers)]


def growth_flag(m: FramedManifold, point, max_step: int):
    """Ranks of the iterated-bracket flag at a point.

    Stops once the rank reaches the chart dimension or ``max_step`` layers
    have been computed; it goes on through plateaus, so a Martinet point
    gives (2, 2, 3).
    """
    return _flags(m, [m.point(point)], max_step)[0][1]


def _interned_symbols(cs, metrics, layer_dims, cache: dict) -> list:
    """Symbols from the structure constants and the horizontal metric at each point.

    ``cs[x][a, b, c]`` is component c of [e_a, e_b] at point x.  A symbol is
    its bracket rows (the constants above 1e-13) and its metric; every
    point's metric is checked symmetric positive-definite in one stacked
    check.  A point is keyed by the bytes of its live mask, of its live
    constants and of its metric, and bitwise-equal keys are one object of
    ``cache``; the bracket rows are read only for a new key.
    """
    metrics = _checked_metric(np.asarray(metrics))
    live = np.abs(cs) > 1e-13
    out = []
    for cg, mask, metric in zip(cs, live, metrics):
        key = (mask.tobytes(), cg[mask].tobytes(), metric.tobytes())
        sym = cache.get(key)
        if sym is None:
            brackets = {}
            for a, b, c in zip(*np.nonzero(mask)):
                if a < b:
                    brackets.setdefault((int(a), int(b)), {})[int(c)] = float(cg[a, b, c])
            sym = cache[key] = CarnotAlgebra(layer_dims, brackets, metric1=metric)
        out.append(sym)
    return out


@dataclass(frozen=True)
class SymbolVerdict:
    """Outcome of a constant-symbol check over sample points."""

    constant: bool
    structure_class: str
    detail: Optional[tuple]
    samples: tuple

    def __bool__(self) -> bool:
        return self.constant


def check_constant_symbol(m: FramedManifold, sample) -> SymbolVerdict:
    """Decide whether the symbol algebra is the same at every sample point.

    The one constant-symbol test, through which the constructions refuse.
    A contact symbol is h_n(λ) with its metric, and λ depends only on the
    bracket form of the horizontal bundle E modulo E and on the metric on E.
    So the contact verdict stacks, over the points, the vertical row of the
    step-2 bracket values of the flag pass (in frame coordinates) and the
    evaluated metric for one batched :func:`lie.heisenberg_normal_forms`.  A
    chart declared contact whose rank is odd, whose flag does not fill it at
    step 2, whose dimension is not its rank + 1, or whose bracket form is
    degenerate, is refused with a :class:`ManifoldError`.  A (2,3,5) chart is
    refused the same way unless it has rank 2 in dimension 5, and is then
    read from its growth vector at every point.
    """
    points = [m.point(p) for p in sample]
    if not points:
        raise ManifoldError("at least one sample point is required")

    if m.structure_class == "contact":
        r = m.rank
        if r % 2:
            # no h_n has odd rank, so no flag or symbol is built
            raise ManifoldError(
                f"contact structure needs even horizontal rank and one extra "
                f"dimension, got rank {r} in dimension {m.dim}"
            )
        passes = _flags(m, points, 2)
        flags = [flag for _, flag, _ in passes]
        for p, f in zip(points, flags):
            if f != flags[0]:
                raise RankJumpError(
                    f"growth vector {f} at {p} differs from {flags[0]}"
                )
        if flags[0][-1] != m.dim:
            # a contact symbol fills the chart at step 2; deeper layers would
            # hold rank^(k-1) fields each, so none is built
            raise ManifoldError(f"not a contact structure: growth flag {flags[0]}")
        if m.dim != r + 1:
            # row r alone would miss the brackets along the other vertical fields
            raise ManifoldError(
                f"not a contact structure: {m.dim - r} vertical directions, not 1"
            )
        # [X_a, X_b] = B[a, b] X_r modulo E, from row r of the layer-2 values
        # for a < b; B is antisymmetric, and 0 - B[a, b] keeps a zero +0.0
        upper = np.array([layers[1][r] for _, _, layers in passes])
        a, b = np.triu_indices(r, 1)
        forms = np.zeros((len(points), r, r))
        forms[:, a, b] = upper
        forms[:, b, a] = 0.0 - upper
        metrics = _checked_metric(expr.evaluate_tables([m.metric], points)[0])
        try:
            lams = heisenberg_normal_forms(forms, metrics)
        except LieError as exc:
            raise ManifoldError(f"not a contact structure: {exc}") from None
        constant = float(np.ptp(lams, axis=0).max()) <= _LAMBDA_SPREAD
        return SymbolVerdict(
            constant=constant,
            structure_class="contact",
            detail=tuple(lams[0]) if constant else None,
            samples=tuple(map(tuple, lams)),
        )

    if m.structure_class == "two-three-five":
        if (m.rank, m.dim) != (2, 5):
            raise ManifoldError(
                f"two-three-five structure needs rank 2 in dimension 5, "
                f"got rank {m.rank} in dimension {m.dim}"
            )
        flags = [flag for _, flag, _ in _flags(m, points, 3)]
        ok = bool(all(f == (2, 3, 5) for f in flags))
        return SymbolVerdict(
            constant=ok,
            structure_class="two-three-five",
            detail=(2, 3, 5) if ok else None,
            samples=tuple(flags),
        )

    raise ManifoldError(
        "constant-symbol check is undecidable here for the generic class; "
        "declare the manifold as contact or two-three-five"
    )


# ---------------------------------------------------------------------------
# sampling and description files


def _uniform_rows(seed: int, box, count: int) -> list:
    """``count`` points drawn uniformly from a coordinate box, one list per row.

    The one sampling helper: a ``random.Random(seed)`` draws the coordinates
    row by row, axis by axis, so a seed gives the same points on every run.
    """
    rng = random.Random(seed)
    return [[rng.uniform(lo, hi) for lo, hi in box] for _ in range(count)]


def _default_samples(m: FramedManifold, count: int = 10, seed: int = 42):
    """Seeded sample points, uniform in the box [-0.9, 0.9] on every axis.

    Drawn by :func:`_uniform_rows`, so ``random.Random(seed)`` fixes them.
    """
    return [m.point(row) for row in _uniform_rows(seed, ((-0.9, 0.9),) * m.dim, count)]


@dataclass
class ManifoldDocument:
    """Manifold plus the sampling directives from its description file."""

    manifold: FramedManifold
    chart_box: tuple
    seed: int
    sample_count: int
    sample_points: Optional[tuple]

    def sample(self):
        """Sample points: the declared list if present, else ``sample_count``
        points uniform in ``chart_box``, drawn by :func:`_uniform_rows` from
        ``random.Random(seed)``."""
        if self.sample_points is not None:
            return [self.manifold.point(p) for p in self.sample_points]
        rows = _uniform_rows(self.seed, self.chart_box, self.sample_count)
        return [self.manifold.point(row) for row in rows]


def manifold_from_dict(data: dict) -> ManifoldDocument:
    """The manifold and sampling directives of a parsed description file.

    A malformed description raises :class:`ManifoldError`, also where reading
    a value of the wrong type or shape raises ``TypeError`` or ``ValueError``.
    """
    if not isinstance(data, dict):
        raise ManifoldError("manifold description must be a mapping")
    try:
        return _read_document(data)
    except (TypeError, ValueError) as exc:
        raise ManifoldError(f"malformed manifold description: {exc}") from None


def _read_document(data: dict) -> ManifoldDocument:
    try:
        coords, frames, rank = data["coords"], data["frames"], data["horizontal_rank"]
    except KeyError as exc:
        raise ManifoldError(f"missing required key {exc.args[0]!r}") from None
    if not all(map(_is_identifier, coords)):
        raise ManifoldError(f"coords must be a list of names each read by the parser as one identifier, got {coords!r}")
    manifold = FramedManifold(
        coords,
        frames,
        _whole_number("horizontal_rank", rank, 1),
        metric=data.get("metric"),
        structure_class=data.get("class", "generic"),
    )

    n = manifold.dim
    box = data.get("chart_box")
    if box is None:
        chart_box = tuple((-1.0, 1.0) for _ in range(n))
    else:
        box = list(box)
        if len(box) == 2 and all(isinstance(v, (int, float)) for v in box):
            box = [box] * n
        if len(box) != n:
            raise ManifoldError(
                f"chart_box needs one interval per coordinate ({n}), got {len(box)}"
            )
        chart_box = tuple((float(lo), float(hi)) for lo, hi in box)
        for lo, hi in chart_box:
            if not -math.inf < lo < hi < math.inf:
                raise ManifoldError(f"chart_box intervals must be finite and increasing, got [{lo}, {hi}]")

    pts = data.get("sample_points")
    sample_points = tuple(manifold.point(p) for p in pts) if pts is not None else None

    return ManifoldDocument(
        manifold=manifold,
        chart_box=chart_box,
        seed=_whole_number("seed", data.get("seed", 42), 0),
        sample_count=_whole_number("sample_count", data.get("sample_count", 10), 1),
        sample_points=sample_points,
    )


def _is_identifier(name) -> bool:
    """Whether ``name`` is a string that ``expr.parse`` reads as one identifier."""
    token = isinstance(name, str) and expr._TOKEN.fullmatch(name)
    return bool(token) and token.lastindex == 2


def _whole_number(key: str, value, least: int) -> int:
    """``value``, the entry ``key`` of a description file, refused unless an integer of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ManifoldError(f"{key} must be an integer of at least {least}, got {value!r}")
    return value


def load_manifold(path) -> ManifoldDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifoldError(
                f"{path}: invalid manifold file at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}"
            ) from None
    return manifold_from_dict(data)
