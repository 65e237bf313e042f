"""Ready-made sub-Riemannian manifolds used by the tests and the benchmark.

The central constructor builds the left-invariant frame of a nilpotent group
in exponential coordinates.  For step at most three the fields

    X_u(x) = u + (1/2) [x, u] + (1/12) [x, [x, u]]

are exact (the series terminates), and they satisfy [X_u, X_v] = X_[u,v],
so the frame's structure functions are the structure constants of the
algebra.  The remaining helpers assemble the specific charts exercised by
the test-suite: flat groups, conformally rescaled metrics, and controlled
perturbations.
"""

from __future__ import annotations

from fractions import Fraction

from . import expr
from .lie import CarnotAlgebra, LieError, cartan_nilpotent, heisenberg
from .manifold import FramedManifold

__all__ = [
    "carnot_group_manifold",
    "heisenberg_manifold",
    "heisenberg_metric4_manifold",
    "conformal_heisenberg_manifold",
    "varying_lambda_manifold",
    "cartan_group_manifold",
    "perturbed_235_manifold",
    "euclidean_manifold",
]


def _const_expr(v):
    if isinstance(v, Fraction):
        return expr.rational(v.numerator, v.denominator)
    if isinstance(v, int):
        return expr.rational(v)
    f = float(v)
    if f.is_integer():
        return expr.rational(int(f))
    return expr.floatc(f)


def carnot_group_manifold(algebra: CarnotAlgebra, coords=None,
                          metric=None, structure_class: str = "generic") -> FramedManifold:
    """Left-invariant frame of the group of a Carnot algebra (step <= 3)."""
    if algebra.step > 3:
        raise LieError(
            "left-invariant frames are implemented for step at most 3"
        )
    n = algebra.dim
    if coords is None:
        coords = tuple(f"x{i+1}" for i in range(n))
    xs = [expr.var(c) for c in coords]

    frames = []
    for i in range(n):
        comp = [expr.rational(1) if k == i else expr.rational(0) for k in range(n)]
        for a in range(n):
            for m, v in algebra.bracket(a, i).items():
                comp[m] = comp[m] + expr.mul(
                    expr.rational(1, 2), _const_expr(v), xs[a]
                )
        # second-order term [x, [x, e_i]]: both x factors range independently
        for a in range(n):
            for m, v in algebra.bracket(a, i).items():
                for b in range(n):
                    for k, w in algebra.bracket(b, m).items():
                        comp[k] = comp[k] + expr.mul(
                            expr.rational(1, 12),
                            _const_expr(v),
                            _const_expr(w),
                            xs[a],
                            xs[b],
                        )
        frames.append(comp)

    if metric is None:
        r = algebra.layer_dims[0]
        metric = [
            [_const_expr(algebra.metric1[i, j]) for j in range(r)]
            for i in range(r)
        ]
    return FramedManifold(
        coords,
        frames,
        algebra.layer_dims[0],
        metric=metric,
        structure_class=structure_class,
    )


def heisenberg_manifold() -> FramedManifold:
    """Three-dimensional group chart (x, y, z) with its standard frame."""
    return carnot_group_manifold(
        heisenberg((1,)), coords=("x", "y", "z"), structure_class="contact"
    )


def heisenberg_metric4_manifold() -> FramedManifold:
    """Five-dimensional group whose vertical eigenvalue data is (1, 2)."""
    return carnot_group_manifold(heisenberg((1, 2)), structure_class="contact")


def conformal_heisenberg_manifold() -> FramedManifold:
    """Heisenberg chart with the metric rescaled by exp(2x).

    The symbol stays constant (the scale cancels in the normal form) but the
    geometry is no longer flat.
    """
    e2x = expr.exp(expr.mul(expr.rational(2), expr.var("x")))
    metric = [[e2x, expr.rational(0)], [expr.rational(0), e2x]]
    return carnot_group_manifold(
        heisenberg((1,)), coords=("x", "y", "z"),
        metric=metric, structure_class="contact",
    )


def varying_lambda_manifold() -> FramedManifold:
    """Contact chart whose vertical eigenvalue ratio drifts with x1.

    The horizontal fields come in the two symplectic pairs (X1, X3) and
    (X2, X4).  Weighting the second pair by (1 + x1^2)^2 makes the normal
    form at a point (1, 1 + x1^2): not a constant symbol.
    """
    x1 = expr.var("x1")
    w = expr.pow_(expr.add(expr.rational(1), expr.pow_(x1, 2)), 2)
    zero = expr.rational(0)
    one = expr.rational(1)
    metric = [
        [one, zero, zero, zero],
        [zero, w, zero, zero],
        [zero, zero, one, zero],
        [zero, zero, zero, w],
    ]
    return carnot_group_manifold(
        heisenberg((1, 1)), metric=metric, structure_class="contact"
    )


def cartan_group_manifold() -> FramedManifold:
    """Flat rank-2 chart in dimension five with growth (2, 3, 5)."""
    return carnot_group_manifold(
        cartan_nilpotent(), structure_class="two-three-five"
    )


def perturbed_235_manifold(eps: float = 0.1) -> FramedManifold:
    """Growth (2,3,5) chart with an x4-dependent horizontal metric."""
    x4 = expr.var("x4")
    w = expr.add(
        expr.rational(1),
        expr.mul(_const_expr(eps), expr.pow_(x4, 2)),
    )
    zero = expr.rational(0)
    metric = [[w, zero], [zero, expr.rational(1)]]
    return carnot_group_manifold(
        cartan_nilpotent(), metric=metric, structure_class="two-three-five"
    )


def euclidean_manifold(n: int = 2) -> FramedManifold:
    """Coordinate frame on R^n with the identity metric (rank = dimension)."""
    coords = tuple(f"x{i+1}" for i in range(n))
    frames = [
        [expr.rational(1) if k == i else expr.rational(0) for k in range(n)]
        for i in range(n)
    ]
    return FramedManifold(coords, frames, n)
