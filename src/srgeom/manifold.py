"""Chart-local sub-Riemannian manifolds described by coordinate frames.

A :class:`FramedManifold` is a single coordinate chart together with a
global frame of vector fields whose first ``r`` members span the horizontal
bundle, and a symmetric positive-definite coefficient matrix giving the
horizontal metric in that frame.  All geometry here is exact-symbolic where
possible (brackets, structure functions, frame inversion) and numeric where
it has to be (ranks, graded symbol algebras at a point).

Every reader of a bracket flag takes it from one pass, :func:`_flags`, which
evaluates the frame once for all sample points and each bracket layer once
for the points whose flag has not yet filled the chart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import expr
from .expr import Expr
from .lie import CarnotAlgebra, heisenberg_normal_form

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
    "symbol_at",
    "check_constant_symbol",
    "manifold_from_dict",
    "load_manifold",
]

STRUCTURE_CLASSES = ("generic", "contact", "two-three-five")

_ZERO = expr.rational(0)
_ONE = expr.rational(1)


class ManifoldError(Exception):
    """Invalid manifold data or a geometric precondition failure."""


class RankJumpError(ManifoldError):
    """Growth vector changed between sample points (not equiregular)."""


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
    """Vector field on a chart, stored as coordinate-basis coefficients."""

    __slots__ = ("manifold", "components")

    def __init__(self, manifold: "FramedManifold", components):
        comps = tuple(_coerce_expr(c, manifold.coords) for c in components)
        if len(comps) != manifold.dim:
            raise ManifoldError(
                f"vector field needs {manifold.dim} components, got {len(comps)}"
            )
        self.manifold = manifold
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
        return _sum_of_products(
            (factor, xa, expr.differentiate(f, c))
            for xa, c in zip(self.components, self.manifold.coords)
            if xa is not _ZERO
        )

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.manifold is not self.manifold:
            raise ManifoldError("vector fields live on different manifolds")
        return VectorField(
            self.manifold,
            [_sum_of_products((), a, b) for a, b in zip(self.components, other.components)],
        )

    def __sub__(self, other: "VectorField") -> "VectorField":
        if other.manifold is not self.manifold:
            raise ManifoldError("vector fields live on different manifolds")
        return VectorField(
            self.manifold,
            [
                _sum_of_products([(expr.MINUS_ONE, b)], a)  # expr.sub(a, b)
                for a, b in zip(self.components, other.components)
            ],
        )

    def scaled(self, factor) -> "VectorField":
        f = _coerce_expr(factor, self.manifold.coords)
        return VectorField(self.manifold, [_sum_of_products([(f, c)]) for c in self.components])

    def __repr__(self) -> str:
        parts = ", ".join(expr.to_string(c) for c in self.components)
        return f"VectorField([{parts}])"


class FramedManifold:
    """Single-chart manifold with a frame whose first r fields span E."""

    def __init__(self, coords, frames, horizontal_rank, metric=None,
                 structure_class: str = "generic"):
        coords = tuple(coords)
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
        rows = [tuple(_coerce_expr(v, coords) for v in row) for row in metric]
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ManifoldError(f"metric must be a {r}x{r} matrix")
        for i in range(r):
            for j in range(i + 1, r):
                if rows[i][j] is not rows[j][i]:
                    raise ManifoldError("metric matrix must be symmetric")
        self.metric = tuple(rows)

        self._frame_inverse = None
        self._structure_functions = None
        self._bracket_layers = [list(self.frames[:r])]
        self._layer_brackets = {}

    # -- basic queries -----------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.coords)

    def point(self, values) -> dict:
        if isinstance(values, dict):
            missing = [c for c in self.coords if c not in values]
            if missing:
                raise ManifoldError(f"point is missing coordinates {missing}")
            return {c: float(values[c]) for c in self.coords}
        values = list(values)
        if len(values) != self.dim:
            raise ManifoldError(
                f"point needs {self.dim} values, got {len(values)}"
            )
        return {c: float(v) for c, v in zip(self.coords, values)}

    def vector_field(self, components) -> VectorField:
        return VectorField(self, components)

    def frame_matrix_at(self, point: dict) -> np.ndarray:
        """Columns are the frame fields evaluated at the point."""
        return self.frame_matrices_at([point])[0]

    def frame_matrices_at(self, points) -> list:
        """Frame matrix at every point, checked non-singular; one evaluation."""
        return [_checked_frame(mat) for mat in _columns(self.frames, points)]

    def metric_at(self, point: dict) -> np.ndarray:
        """Horizontal metric at a point, checked symmetric positive-definite."""
        return _checked_metric(expr.evaluate_array(self.metric, point))

    # -- iterated horizontal brackets ---------------------------------------

    def bracket_layer(self, k: int):
        """Fields spanning the k-th layer: (k-1)-fold brackets of the frame.

        Layer 1 is the horizontal frame; layer k brackets every horizontal
        field with every layer-(k-1) field.
        """
        while len(self._bracket_layers) < k:
            prev = self._bracket_layers[-1]
            nxt = [
                bracket(x, y)
                for x in self._bracket_layers[0]
                for y in prev
            ]
            self._bracket_layers.append(nxt)
        return self._bracket_layers[k - 1]

    def layer_brackets(self, i: int, j: int):
        """Brackets [x, y] of layer i with layer j, built once.

        Entry a * len(layer j) + b holds [x_a, y_b]; for i = 1 that is the
        bracket layer j + 1 itself.
        """
        if i == 1:
            return self.bracket_layer(j + 1)
        if (i, j) not in self._layer_brackets:
            self._layer_brackets[i, j] = [
                bracket(x, y) for x in self.bracket_layer(i) for y in self.bracket_layer(j)
            ]
        return self._layer_brackets[i, j]


# ---------------------------------------------------------------------------
# brackets and structure functions


def _is_zero(e: Expr) -> bool:
    return e is _ZERO


def _is_nonzero_const(e: Expr) -> bool:
    return isinstance(e, (expr.Rat, expr.Flt)) and not _is_zero(e)


def bracket(x: VectorField, y: VectorField) -> VectorField:
    """Commutator bracket of two vector fields on the same chart."""
    if x.manifold is not y.manifold:
        raise ManifoldError("vector fields live on different manifolds")
    return VectorField(
        x.manifold,
        [
            _sum_of_products((), x.apply(yk), y.apply(xk, expr.MINUS_ONE))
            for xk, yk in zip(x.components, y.components)
        ],
    )


def frame_bracket(fields, ctab, u, w):
    """Bracket of two coefficient vectors over a frame, again as coefficients.

    ``u`` and ``w`` hold coefficients over the vector fields ``fields``, whose
    structure functions are ``ctab``.  The loops run over the supports of
    ``u`` and ``w`` and the non-zero ``ctab[a][b][k]``, so no term with a
    ``ZERO`` factor reaches ``expr.mul`` (whose ``ZERO`` short-circuit is only
    a backstop); the kept terms keep their dense order.
    """
    n = len(u)
    su = [a for a in range(n) if u[a] is not _ZERO]
    sw = [b for b in range(n) if w[b] is not _ZERO]
    either = sorted(set(su + sw))
    out = []
    for k in range(n):
        terms = []
        uk, wk = u[k], w[k]
        if uk is not _ZERO or wk is not _ZERO:
            for a in either:
                if u[a] is not _ZERO and wk is not _ZERO:
                    terms.append((u[a], fields[a].apply(wk)))
                if w[a] is not _ZERO and uk is not _ZERO:
                    d = fields[a].apply(uk)
                    if d is not _ZERO:
                        # expr.neg of the product
                        terms.append((expr.MINUS_ONE, expr.mul(w[a], d)))
        for a in su:
            for b in sw:
                terms.append((u[a], w[b], ctab[a][b][k]))
        out.append(_sum_of_products(terms))
    return out


def frame_combination(m: FramedManifold, fields, coeffs) -> VectorField:
    """The vector field ``sum_i coeffs[i] * fields[i]`` on ``m``."""
    return VectorField(
        m,
        [
            _sum_of_products((coeffs[i], fields[i].components[a]) for i in range(len(fields)))
            for a in range(m.dim)
        ],
    )


def _gram_schmidt_horizontal(m: FramedManifold):
    """Orthonormalize the horizontal frame symbolically; returns VectorFields."""
    r = m.rank
    # coefficient vectors over the original horizontal frame
    basis = [[expr.rational(1 if j == i else 0) for j in range(r)] for i in range(r)]

    def inner(u, v):
        return _sum_of_products(
            (u[i], m.metric[i][j], v[j]) for i in range(r) for j in range(r)
        )

    ortho = []
    for i in range(r):
        vec = list(basis[i])
        for prev in ortho:
            coef = inner(vec, prev)
            vec = [
                e if coef is _ZERO or p is _ZERO else expr.add(e, expr.neg(expr.mul(coef, p)))
                for e, p in zip(vec, prev)
            ]
        nrm = expr.sqrt(inner(vec, vec))
        inv = expr.pow_(nrm, -1)
        ortho.append([_sum_of_products([(inv, c)]) for c in vec])
    return [frame_combination(m, m.frames[:r], coeffs) for coeffs in ortho]


def _gauss_jordan(rows, n: int):
    """Reduce [A | B] in place so the left n columns become the identity.

    Pivots prefer nonzero constants to keep the symbolic arithmetic exact and
    small; expression pivots are used when no constant is available.
    """
    width = len(rows[0])
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
        rows[col] = [_sum_of_products([(inv, e)]) for e in rows[col]]
        for r in range(n):
            if r == col or _is_zero(rows[r][col]):
                continue
            f = rows[r][col]
            rows[r] = [
                e if p is _ZERO else expr.sub(e, expr.mul(f, p))
                for e, p in zip(rows[r], rows[col])
            ]
    return rows


def frame_inverse(m: FramedManifold):
    """Symbolic inverse of the frame matrix (rows of the dual coframe).

    Entry [i][a] is the coefficient of the i-th coframe one-form on the
    coordinate vector field number a, i.e. applying row i to a coordinate
    vector recovers the i-th frame component of that vector.
    """
    if m._frame_inverse is None:
        n = m.dim
        rows = []
        for a in range(n):
            row = [m.frames[i].components[a] for i in range(n)]
            row += [_ONE if b == a else _ZERO for b in range(n)]
            rows.append(row)
        reduced = _gauss_jordan(rows, n)
        m._frame_inverse = tuple(tuple(row[n:]) for row in reduced)
    return m._frame_inverse


def structure_functions(m: FramedManifold):
    """Expressions c[i][j][k] with [X_i, X_j] = sum_k c[i][j][k] X_k."""
    if m._structure_functions is None:
        n = m.dim
        finv = frame_inverse(m)
        c = [[[_ZERO for _ in range(n)] for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                br = bracket(m.frames[i], m.frames[j]).components
                for k in range(n):
                    e = _sum_of_products((finv[k][a], br[a]) for a in range(n))
                    if e is not _ZERO:
                        c[i][j][k] = e
                        c[j][i][k] = expr.neg(e)
        m._structure_functions = c
    return m._structure_functions


def _sum_of_products(terms, *summands):
    """``expr.add`` of the ``summands`` and of the products ``expr.mul(*t)``.

    ``terms`` holds tuples of factors.  Only the non-zero terms are built: a
    ``ZERO`` summand and a tuple with a ``ZERO`` factor are skipped, and
    ``ZERO`` is returned without a constructor call when nothing is left.  The
    kept terms go to one ``add`` in their order, summands first: ``add``
    folds float coefficients in argument order, so the sum is the node the
    dense sum builds.  One kept term is returned as it is.
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
    return [
        [_sum_of_products((row[k], b[k][j]) for k in range(len(b))) for j in range(len(b[0]))]
        for row in a
    ]


# ---------------------------------------------------------------------------
# growth vector and graded symbol


def _checked_frame(mat: np.ndarray) -> np.ndarray:
    """A frame matrix, checked non-singular."""
    if abs(np.linalg.det(mat)) <= 1e-9:
        raise ManifoldError("frame is singular at the requested point")
    return mat


def _checked_metric(g: np.ndarray) -> np.ndarray:
    """A metric matrix, checked symmetric positive-definite."""
    if np.abs(g - g.T).max() > 1e-12:
        raise ManifoldError("metric is not symmetric at the requested point")
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise ManifoldError("metric is not positive-definite at the requested point") from exc
    return g


def _columns(fields, points) -> list:
    """Per point, the fields evaluated there as columns; one evaluation for all."""
    values = expr.evaluate_tables([[f.components for f in fields]], points)[0]
    return [np.ascontiguousarray(v.T) for v in values]


def _ranks(mats: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Numerical rank of each stacked matrix, relative to its largest singular value."""
    s = np.linalg.svd(mats, compute_uv=False)
    return np.sum(s > tol * s[:, :1], axis=1)


def _flags(m: FramedManifold, points, max_step: int) -> list:
    """Per point: the inverse frame matrix, the flag and the layer values.

    Layer values are in frame coordinates, one column per bracket field.  A
    point's flag ends when its rank fills the chart or after ``max_step``
    layers; a plateau does not end it.  Each layer is mapped to frame
    coordinates and ranked for all growing points at once.
    """
    if max_step < 1:
        raise ManifoldError("max_step must be at least 1")
    finvs = np.linalg.inv(np.reshape(m.frame_matrices_at(points), (len(points), m.dim, m.dim)))
    flags = [[] for _ in points]
    layers = [[] for _ in points]
    spans = np.zeros((len(points), m.dim, 0))  # every point's layers so far, side by side
    growing = np.arange(len(points))
    for k in range(1, max_step + 1):
        if not len(growing):
            break
        vals = finvs[growing] @ np.stack(_columns(m.bracket_layer(k), [points[x] for x in growing]))
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


def symbol_at(m: FramedManifold, point, reference_flag=None, max_step: int = 8):
    """Graded nilpotent symbol algebra of the horizontal bundle at a point.

    Layers are realized as orthogonal complements within the bracket flag,
    orthogonality taken in the auxiliary inner product that declares the
    input frame orthonormal.  The returned algebra carries float structure
    constants and the horizontal metric evaluated at the point.
    """
    p = m.point(point)
    return _symbols(m, [p], _flags(m, [p], max_step), reference_flag)[0]


def _symbols(m: FramedManifold, points, passes, reference_flag=None) -> list:
    """Symbol algebras at the points, from their :func:`_flags` pass.

    Each point's flag, layers and metric are checked first, in point order;
    then each table of layer brackets is evaluated once, for the points
    whose step reaches it.  Points whose bracket rows and metric are
    bitwise equal get one algebra.
    """
    metrics = expr.evaluate_tables([m.metric], points)[0]
    # orthonormal bases of each quotient layer, plus representative
    # coefficients over the layer's bracket fields
    layered = []
    for p, (_, flag, layers), gmat in zip(points, passes, metrics):
        if flag[-1] != m.dim:
            raise ManifoldError(
                f"horizontal bundle is not bracket-generating at {p} "
                f"(flag {flag} within {len(flag)} steps)"
            )
        if reference_flag is not None and tuple(reference_flag) != flag:
            raise RankJumpError(
                f"growth vector {flag} at {p} differs from reference "
                f"{tuple(reference_flag)}"
            )
        layer_basis, layer_coeffs = [], []
        span = np.zeros((m.dim, 0))
        for k, vals in enumerate(layers, 1):
            proj = vals - span @ (span.T @ vals)
            u, s, vt = np.linalg.svd(proj, full_matrices=False)
            want = flag[k - 1] - (flag[k - 2] if k >= 2 else 0)
            if want == 0:
                raise RankJumpError(
                    f"flag {flag} plateaus at layer {k}; the point {p} is not "
                    "equiregular"
                )
            keep = s > 1e-9 * (s[0] if s.size else 1.0)
            if int(np.sum(keep)) != want:
                raise RankJumpError(
                    f"layer {k} rank at {p} is {int(np.sum(keep))}, expected {want}"
                )
            layer_basis.append(u[:, :want])
            layer_coeffs.append(vt[:want].T / s[:want])
            span = np.hstack([span, layer_basis[-1]])
        _checked_metric(gmat)
        layered.append((layer_basis, layer_coeffs))

    # numeric values of all pairwise brackets of layer fields, frame coords
    steps = [len(flag) for _, flag, _ in passes]
    bracket_vals = [{} for _ in points]
    for i in range(1, max(steps) + 1):
        for j in range(i, max(steps) - i + 1):
            reach = [x for x, step in enumerate(steps) if i + j <= step]
            shape = (m.dim, len(m.bracket_layer(i)), len(m.bracket_layer(j)))
            cols = np.stack(_columns(m.layer_brackets(i, j), [points[x] for x in reach]))
            finvs = np.stack([passes[x][0] for x in reach])
            # frame coordinates of every reached point's brackets, one matmul
            for x, vals in zip(reach, (finvs @ cols).reshape(len(reach), *shape)):
                bracket_vals[x][i, j] = vals

    algebras, interned = [], {}
    for (layer_basis, layer_coeffs), vals_at, gmat in zip(layered, bracket_vals, metrics):
        dims = [b.shape[1] for b in layer_basis]
        offsets = np.concatenate([[0], np.cumsum(dims)])
        brackets = {}
        for (i, j), vals in vals_at.items():
            ci, cj, target = layer_coeffs[i - 1], layer_coeffs[j - 1], layer_basis[i + j - 1]
            # [c, a, b]: component c of [e_a, e_b] in the target layer's basis
            coefs = (target.T @ (ci.T @ vals @ cj).reshape(len(target), -1)).reshape(
                -1, dims[i - 1], dims[j - 1]
            )
            keep = np.abs(coefs) > 1e-12
            if i == j:
                idx = np.arange(dims[i - 1])
                keep &= idx[:, None] < idx[None, :]
            for a, b, c in zip(*np.nonzero(keep.transpose(1, 2, 0))):
                ab = (int(offsets[i - 1] + a), int(offsets[j - 1] + b))
                brackets.setdefault(ab, {})[int(offsets[i + j - 1] + c)] = float(coefs[c, a, b])
        s1 = layer_basis[0][: m.rank]
        metric1 = s1.T @ gmat @ s1
        key = (
            tuple(dims),
            tuple((ab, tuple(row.items())) for ab, row in brackets.items()),
            metric1.tobytes(),
        )
        if key not in interned:
            labels = tuple(f"E{k+1}.{a+1}" for k, d in enumerate(dims) for a in range(d))
            interned[key] = CarnotAlgebra(tuple(dims), labels, brackets, metric1=metric1)
        algebras.append(interned[key])
    return algebras


@dataclass(frozen=True)
class SymbolVerdict:
    """Outcome of a constant-symbol check over sample points."""

    constant: bool
    structure_class: str
    detail: Optional[tuple]
    samples: tuple

    def __bool__(self) -> bool:
        return self.constant


def check_constant_symbol(m: FramedManifold, sample, tol: float = 1e-6) -> SymbolVerdict:
    """Decide whether the symbol algebra is the same at every sample point.

    A chart declared contact whose flag does not fill it at step 2 is
    refused with the :class:`ManifoldError` of ``extract_contact_data``.
    """
    points = [m.point(p) for p in sample]
    if not points:
        raise ManifoldError("at least one sample point is required")

    if m.structure_class == "contact":
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
        algebras = _symbols(m, points, passes)
        # equal symbols are one object, so each distinct one is normalized once
        forms = {alg: heisenberg_normal_form(alg) for alg in dict.fromkeys(algebras)}
        lams = [forms[alg] for alg in algebras]
        spread = float(np.ptp(np.array(lams), axis=0).max())
        return SymbolVerdict(
            constant=bool(spread <= tol),
            structure_class="contact",
            detail=lams[0] if spread <= tol else None,
            samples=tuple(lams),
        )

    if m.structure_class == "two-three-five":
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


def _uniform_rows(rng, box, count: int) -> np.ndarray:
    """``count`` points drawn uniformly from a coordinate box, one per row."""
    lows = np.array([lo for lo, _ in box])
    highs = np.array([hi for _, hi in box])
    return rng.uniform(lows, highs, size=(count, len(box)))


def _default_samples(m: FramedManifold, count: int = 10, seed: int = 42):
    """Seeded sample points, uniform in the box [-0.9, 0.9] on every axis."""
    rows = _uniform_rows(np.random.default_rng(seed), ((-0.9, 0.9),) * m.dim, count)
    return [m.point(row) for row in rows]


@dataclass
class ManifoldDocument:
    """Manifold plus the sampling directives from its description file."""

    manifold: FramedManifold
    chart_box: tuple
    seed: int
    sample_count: int
    sample_points: Optional[tuple]

    def sample(self):
        """Sample points: the declared list if present, else seeded uniform."""
        if self.sample_points is not None:
            return [self.manifold.point(p) for p in self.sample_points]
        rows = _uniform_rows(
            np.random.default_rng(self.seed), self.chart_box, self.sample_count
        )
        return [self.manifold.point(row) for row in rows]


def manifold_from_dict(data: dict) -> ManifoldDocument:
    if not isinstance(data, dict):
        raise ManifoldError("manifold description must be a mapping")
    try:
        coords = list(data["coords"])
        frames = data["frames"]
        rank = int(data["horizontal_rank"])
    except KeyError as exc:
        raise ManifoldError(f"missing required key {exc.args[0]!r}") from None
    manifold = FramedManifold(
        coords,
        frames,
        rank,
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
            if not lo < hi:
                raise ManifoldError("chart_box intervals must be increasing")

    pts = data.get("sample_points")
    sample_points = tuple(tuple(map(float, p)) if not isinstance(p, dict) else p
                          for p in pts) if pts is not None else None

    return ManifoldDocument(
        manifold=manifold,
        chart_box=chart_box,
        seed=_whole_number(data, "seed", 42, 0),
        sample_count=_whole_number(data, "sample_count", 10, 1),
        sample_points=sample_points,
    )


def _whole_number(data: dict, key: str, default: int, least: int) -> int:
    """The integer ``data[key]`` (``default`` if absent), at least ``least``."""
    value = data.get(key, default)
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
