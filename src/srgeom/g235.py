"""Rank-two distributions of growth (2,3,5): grading, connections, flatness.

:func:`intrinsic_frame_235` returns the intrinsic grading
``E + span{Z} + span{Y_1, Y_2}`` as a ``Grading``: ``Z`` and ``Y_1``, ``Y_2``
correct the iterated brackets of an orthonormal horizontal frame so that
``Z`` and the span of the ``Y_j`` do not depend on that frame.
:func:`connection_235` is the adapted metric connection of this grading; the
structure is locally equivalent to the nilpotent model group exactly when
``connection.flatness_check(connection_235(g), points)`` reports it flat.

:func:`morimoto_grading_235` returns Morimoto's canonical grading as a
``Grading``: the intrinsic grading with its degree -2 field and degree -3
lifts corrected so that the normalization holds.  Its operator ∂ is
constant in the intrinsic frame with the lifts rotated, so the corrections
are structure functions of two derived frames taken through the constant
inverses of ∂'s two blocks: ``(r_k, r_{k+2}) -> ((r_k - r_{k+2}) / 2,
(3 r_k - 5 r_{k+2}) / 8)`` and ``diag(1/3, 1/3, 1/3, 1/3, 1/8)``; nothing
is solved symbolically.  On the nilpotent model every correction vanishes,
so each layer spans the same subspace as the intrinsic one (the degree -3
frames still differ by the rotation generator).
:func:`morimoto_connection_235` takes that grading and solves the
normalization identities checked by ``check_morimoto`` for its unique
compatible connection, the degree -2 scaling ν₂ that ∂'s second block
decouples from the grading included.

All constructions run in the coefficient calculus of the iterated-bracket
frame: every corrected field is a coefficient row over that frame, and each
grading is the derived frame of its rows (``manifold._Frame``), whose
coframe and structure functions come from the rows and are read by pair
(``manifold._pair``), so only the pairs read are built.  The bracket frame is
itself derived, from its rows over ``raux``, the chart's flag layers 1 to
3 (the declared horizontal fields and their brackets, which the
constant-symbol verdict's flag pass has already built), the only frame
inverted and bracketed at the coordinate level.  The calculus is the one
``contact`` uses too: ``manifold.frame_bracket(frame, u, w)`` brackets
coefficient rows over a frame,
``VectorField.apply`` differentiates along a frame field, and every sum of
products is built by ``manifold._sum_of_products`` from its non-zero terms.
"""

from . import expr
from .manifold import (
    FramedManifold,
    ManifoldError,
    VectorField,
    _Frame,
    _default_samples,
    _gram_schmidt_horizontal,
    _matmul,
    _pair,
    _sum_of_products,
    check_constant_symbol,
    frame_bracket,
    frame_combination,
    frame_inverse,
)
from .connection import Connection, Grading, selector

__all__ = [
    "connection_235",
    "intrinsic_frame_235",
    "morimoto_grading_235",
    "morimoto_connection_235",
]

_ZERO = expr.rational(0)
_ONE = expr.rational(1)
_HALF = expr.rational(1, 2)
_MINUS_ONE = expr.MINUS_ONE


def _check_growth(m: FramedManifold, points):
    """Refuse a chart not declared (2,3,5), or whose flag is not (2,3,5) at every point."""
    if m.structure_class != "two-three-five":
        raise ManifoldError("manifold is not declared as a two-three-five structure")
    verdict = check_constant_symbol(m, points)
    if not verdict:
        raise ManifoldError(
            f"the horizontal bundle does not have growth (2,3,5) at every "
            f"sample point: flags {sorted(set(verdict.samples))}"
        )


def _bracket_frame(m: FramedManifold, x1, x2) -> _Frame:
    """The bracket frame of an orthonormal horizontal frame, derived from ``raux``.

    ``raux`` is the chart's bracket flag: the fields of ``m.bracket_layer``
    1, 2 and 3, which the constant-symbol verdict's flag pass has already
    built on this chart, with the chart's metric (its horizontal fields are
    the chart's own), and the one frame here inverted and bracketed at the
    coordinate level.  The bracket frame is the frame of its rows over
    ``raux``: ``x1`` and ``x2`` through raux's coframe, and
    ``X_3 = [X_1, X_2]``, ``X_4 = [X_1, X_3]``, ``X_5 = [X_2, X_3]`` by
    ``frame_bracket``.  Not over the chart, whose vertical fields need not be
    brackets: for a chart where they are not, that grew the pool 180-fold.
    """
    if (x1 is None) != (x2 is None):
        raise ManifoldError("provide both horizontal fields or neither")
    if x1 is None:
        x1, x2 = (frame_combination(m, m.frames[:2], row) for row in _gram_schmidt_horizontal(m))
    raux = FramedManifold(
        m.coords,
        [f.components for k in (1, 2, 3) for f in m.bracket_layer(k)],
        m.rank,
        metric=m.metric,
        structure_class=m.structure_class,
    )
    alpha = frame_inverse(raux)
    # rows over raux; the given fields are horizontal, so their rows vanish
    # identically beyond the horizontal slots
    rows = [
        [_sum_of_products((alpha[j][a], x.components[a]) for a in range(5)) for j in range(2)] + [_ZERO] * 3
        for x in (x1, x2)
    ]
    rows.append(frame_bracket(raux, rows[0], rows[1]))
    rows += [frame_bracket(raux, rows[e], rows[2]) for e in range(2)]
    return _Frame(raux, rows)


# nonzero entries of the frame rotation generator D, as (out, in): sign;
# D rotates the horizontal plane by J, kills the degree -2 direction, and
# rotates the degree -3 plane compatibly with the lifts
_DENTRIES = {(0, 1): -1, (1, 0): 1, (3, 4): -1, (4, 3): 1}


def _rotation_connection(grading: Grading, nu_vals) -> Connection:
    """Connection whose value in every direction is a multiple of D.

    ``nu_vals[i]`` scales the rotation generator along the i-th adapted
    field: gamma[i][j][k] = nu_i * D[k][j].
    """
    n = grading.dim
    gamma = [[[_ZERO for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        nv = nu_vals[i]
        nneg = _ZERO if nv is _ZERO else expr.neg(nv)
        for (k, j), s in _DENTRIES.items():
            gamma[i][j][k] = nv if s > 0 else nneg
    return Connection(grading, gamma)


def _adapted_lambda(grading: Grading):
    """Generator coefficients of the adapted metric connection.

    In an orthonormal adapted frame the horizontal block of the connection
    is skew, hence a multiple of the rotation generator in every direction:
    the Koszul combination along horizontal directions, the half-skew
    bracket combination along vertical ones.  The degree -3 block mirrors
    the horizontal block.  Returned are the multiples of D along each
    adapted field.
    """
    cbar = grading.structure_functions()
    lam = []
    for i in range(grading.dim):
        # the Koszul value of gamma[i][0][1] equals nu_i * D[1][0] = nu_i
        val = _sum_of_products([(_MINUS_ONE, cbar[i][1][0])], cbar[i][0][1])
        if i < 2:
            val = _sum_of_products([(_MINUS_ONE, cbar[0][1][i])], val)
        lam.append(_sum_of_products([(_HALF, val)]))
    return lam


def intrinsic_frame_235(m: FramedManifold, x1: VectorField = None,
                        x2: VectorField = None, sample_points=None) -> Grading:
    """Intrinsic grading of a growth (2,3,5) horizontal bundle.

    Refuses a chart unless it is declared ``two-three-five`` and
    ``manifold.check_constant_symbol`` finds the flag (2,3,5) at every point.

    ``x1``, ``x2`` is an orthonormal horizontal frame (by default
    the Gram-Schmidt frame of the chart); ``X_3 = [X_1, X_2]``,
    ``X_4 = [X_1, X_3]``, ``X_5 = [X_2, X_3]`` complete it to the bracket
    frame with structure functions ``[X_a, X_b] = c_ab^k X_k``.  With
    ``P = c_14^4 + c_15^5`` and ``S = c_24^4 + c_25^5`` the corrected fields
    are (indices from 1)::

        Z   = X_3 + (c_23^3 + S) X_1 - (c_13^3 + P) X_2
        Y_1 = X_4 - P Z + (c_24^3 - X_2 P + c_24^4 P + c_24^5 S) X_1
                        - (c_14^3 - X_1 P + c_14^4 P + c_14^5 S) X_2
        Y_2 = X_5 - S Z + (c_25^3 - X_2 S + c_25^4 P + c_25^5 S) X_1
                        - (c_15^3 - X_1 S + c_15^4 P + c_15^5 S) X_2

    Equivalently, let ``theta`` be the one-form that kills ``E`` and
    ``Y_1``, ``Y_2`` and has ``theta(Z) = 1``.  Then ``span{Z, Y_1, Y_2}``
    is the common kernel of ``i_{X_1} d theta`` and ``i_{X_2} d theta``,
    ``span{Y_1, Y_2}`` is its intersection with the kernel of ``theta``, and
    ``theta([X_1, X_2]) = 1``.  Either way ``Z`` and ``span{Y_1, Y_2}`` do
    not depend on the choice of orthonormal horizontal frame.  The grading is
    the derived frame of these fields' rows over the bracket frame.
    """
    return Grading(_Frame(*_intrinsic_rows(m, x1, x2, sample_points)), (2, 1, 2))


def _intrinsic_rows(m: FramedManifold, x1, x2, sample_points):
    """The bracket frame, and the rows of ``X_1, X_2, Z, Y_1, Y_2`` over it.

    The refusals and the fields are those of :func:`intrinsic_frame_235`.
    """
    if sample_points is None:
        sample_points = _default_samples(m)
    _check_growth(m, sample_points)
    aux = _bracket_frame(m, x1, x2)
    fields = aux.frames
    try:
        aux.frame_matrix_at(aux.point(sample_points[0]))
    except ManifoldError as exc:
        raise ManifoldError(f"bracket frame is rank deficient: {exc}") from exc

    # two recurring horizontal-coefficient sums of the second layer; 6 of the
    # 10 pairs of the bracket frame are read
    p_sum = _sum_of_products((), _pair(aux, 0, 3)[3], _pair(aux, 0, 4)[4])
    s_sum = _sum_of_products((), _pair(aux, 1, 3)[3], _pair(aux, 1, 4)[4])

    zc1 = _sum_of_products((), _pair(aux, 1, 2)[2], s_sum)
    zc2 = _sum_of_products((), _pair(aux, 0, 2)[2], p_sum)

    # coefficients of X_1 and -X_2 in Y_j; ``v`` is the sum multiplying Z
    def ycoeffs(j, v):
        return [
            _sum_of_products(
                [
                    (_MINUS_ONE, fields[e].apply(v)),
                    (_pair(aux, e, j)[3], p_sum),
                    (_pair(aux, e, j)[4], s_sum),
                ],
                _pair(aux, e, j)[2],
            )
            for e in (1, 0)
        ]

    y1c1, y1c2 = ycoeffs(3, p_sum)
    y2c1, y2c2 = ycoeffs(4, s_sum)

    srows = (
        (_ONE, _ZERO, _ZERO, _ZERO, _ZERO),
        (_ZERO, _ONE, _ZERO, _ZERO, _ZERO),
        (zc1, _sum_of_products([(_MINUS_ONE, zc2)]), _ONE, _ZERO, _ZERO),
        (
            _sum_of_products([(_MINUS_ONE, p_sum, zc1)], y1c1),
            _sum_of_products([(_MINUS_ONE, y1c2), (p_sum, zc2)]),
            _sum_of_products([(_MINUS_ONE, p_sum)]),
            _ONE,
            _ZERO,
        ),
        (
            _sum_of_products([(_MINUS_ONE, s_sum, zc1)], y2c1),
            _sum_of_products([(_MINUS_ONE, y2c2), (s_sum, zc2)]),
            _sum_of_products([(_MINUS_ONE, s_sum)]),
            _ZERO,
            _ONE,
        ),
    )
    return aux, srows


def connection_235(g: Grading) -> Connection:
    """Adapted metric connection of the intrinsic grading ``g`` from :func:`intrinsic_frame_235`.

    Horizontal directions differentiate by the horizontal part of the
    Levi-Civita connection of the taming metric; directions of degree -2 and
    -3 use the bracket-plus-metric-drift rule.  The middle field is parallel
    and the degree -3 block mirrors the horizontal block, which makes all
    three layers parallel and the frame metric covariant constant.  The
    structure is locally equivalent to the nilpotent model group exactly
    when this connection passes ``connection.flatness_check``.
    """
    return _rotation_connection(g, _adapted_lambda(g))


# Morimoto's normalization of the canonical grading, read in the intrinsic
# frame F = (X_1, X_2, Z, -Y_2, Y_1) and its corrections, whose structure
# functions c[i][j][k] are the components k of [F_i, F_j].  Each table lists
# entries (sign, i, j, k) of c.  The right-hand sides r of the degree -2
# shift w1 and the degree -3 tilt w2, read off F itself:
_SHIFT_RHS = (
    ((2, 0, 1, 0), (1, 0, 3, 4), (-1, 0, 4, 3)),
    ((2, 0, 1, 1), (1, 1, 3, 4), (-1, 1, 4, 3)),
    ((1, 0, 1, 0), (1, 0, 3, 4), (-1, 1, 3, 3)),
    ((1, 0, 1, 1), (1, 0, 4, 4), (-1, 1, 4, 3)),
)
# the inverse of the first block of the normalization operator, (w1_k, w2_k)
# from (r_k, r_{k+2})
_SHIFT_INVERSE = ((expr.rational(1, 2), expr.rational(-1, 2)), (expr.rational(3, 8), expr.rational(-5, 8)))
# three times the horizontal endomorphism A of the lifts, read off F corrected
# by w1 and w2
_LIFT_RHS = (
    (((-1, 1, 2, 0), (-1, 3, 1, 2), (-1, 3, 2, 4)), ((-1, 1, 2, 1), (1, 3, 0, 2), (1, 3, 2, 3))),
    (((1, 0, 2, 0), (-1, 4, 1, 2), (-1, 4, 2, 4)), ((1, 0, 2, 1), (1, 4, 0, 2), (1, 4, 2, 3))),
)
_ZERO_PAIR = (_ZERO, _ZERO)


def _signed_sum(frame, entries, den=1):
    """The sum of ``sign / den * c[i][j][k]`` over the ``entries`` ``(sign, i, j, k)``, by pair of ``frame``."""
    terms = [(expr.rational(s, den), e) for s, i, j, k in entries if (e := _pair(frame, i, j)[k]) is not _ZERO]
    return _sum_of_products(terms) if terms else _ZERO


def _corrected_frame(frame, srows, w1=_ZERO_PAIR, w2=_ZERO_PAIR, amat=(_ZERO_PAIR,) * 2):
    """The intrinsic frame with its lifts rotated and corrected, derived over the bracket frame.

    Its fields are ``X_1``, ``X_2``, ``Z + w1_0 X_1 + w1_1 X_2`` and the
    rotated lifts ``-Y_2``, ``Y_1``, to which ``w2_j Z + amat[j][0] X_1 +
    amat[j][1] X_2`` is added.
    """
    tmat = [
        [_ONE, _ZERO, _ZERO, _ZERO, _ZERO],
        [_ZERO, _ONE, _ZERO, _ZERO, _ZERO],
        [w1[0], w1[1], _ONE, _ZERO, _ZERO],
        [amat[0][0], amat[0][1], w2[0], _ZERO, _MINUS_ONE],
        [amat[1][0], amat[1][1], w2[1], _ONE, _ZERO],
    ]
    return _Frame(frame, _matmul(tmat, srows))


def morimoto_grading_235(m: FramedManifold, x1: VectorField = None,
                         x2: VectorField = None, sample_points=None) -> Grading:
    """Canonical grading of a growth (2,3,5) structure.

    Refuses, like :func:`intrinsic_frame_235`, a chart not declared
    ``two-three-five`` or whose flag is not (2,3,5) at every sample point.

    Corrects the intrinsic grading so the canonical connection of the
    result satisfies the torsion and curvature trace normalizations exactly:
    the degree -2 direction is shifted by ``w1_0 X_1 + w1_1 X_2``, and the
    degree -3 lifts are tilted by ``w2_j Z`` and a horizontal endomorphism
    ``A``.  Morimoto's normalization is solved degree by degree through the
    operator ∂ of the symbol algebra, and ∂ is constant in the intrinsic
    frame with its lifts rotated to ``-Y_2``, ``Y_1``: there the degree -3
    part of ``[X_e, Z]`` is row e of the model's ``[[0, 1], [-1, 0]]``, by
    the definition of the bracket frame.  So nothing is solved symbolically.
    The first block of ∂, on ``(w1, w2)``, is
    ``[[5, 0, -4, 0], [0, 5, 0, -4], [3, 0, -4, 0], [0, 3, 0, -4]]``; its
    inverse takes the right-hand sides ``r`` read off that frame to
    ``w1_k = (r_k - r_{k+2}) / 2`` and ``w2_k = (3 r_k - 5 r_{k+2}) / 8``.
    The second block, on ``A`` and the degree -2 scaling ν₂ of the canonical
    connection, is ``diag(3, 3, 3, 3, 8)``: each entry of ``A`` is a third
    of a combination of structure functions of the frame corrected by ``w1``
    and ``w2``, and ν₂, which decouples, is left to
    :func:`morimoto_connection_235`.  The returned grading is the derived
    frame of its rows over the bracket frame.  On the model algebra every
    correction vanishes, so its layers span the same subspaces as those of
    ``intrinsic_frame_235(...)``; the degree -3 frames differ by the
    rotation generator.
    """
    frame, srows = _intrinsic_rows(m, x1, x2, sample_points)
    shifted = _corrected_frame(frame, srows)
    r = [_signed_sum(shifted, entries) for entries in _SHIFT_RHS]
    w1, w2 = ([_sum_of_products([(a, r[k]), (b, r[k + 2])]) for k in range(2)] for a, b in _SHIFT_INVERSE)
    tilted = _corrected_frame(frame, srows, w1, w2)
    amat = [[_signed_sum(tilted, entries, 3) for entries in row] for row in _LIFT_RHS]
    return Grading(_corrected_frame(frame, srows, w1, w2, amat), (2, 1, 2))


def morimoto_connection_235(g: Grading) -> Connection:
    """Canonical connection of the grading from :func:`morimoto_grading_235`.

    Every direction of the connection acts as a multiple of the frame
    rotation generator, so the whole connection is a scaling one-form times
    the generator.  The scaling values are solved degree by degree from the
    trace normalization: pairing curvature on the selector wedges against
    the generator must reproduce the torsion trace.  Horizontal selectors
    vanish, so the horizontal values are a third of the torsion trace;
    because bracketing a selector value reproduces its field exactly, each
    vertical unknown enters its own equation with a fixed integer weight and
    the solve is a closed form.
    """
    wf = g.fields
    cbar = g.structure_functions()
    chi = selector(g)

    def qval(v):
        """Trace of the structure functions along one field against D."""
        terms = [
            (expr.rational(s), cbar[v][y][x])
            for (x, y), s in _DENTRIES.items()
            if cbar[v][y][x] is not _ZERO
        ]
        return _sum_of_products(terms) if terms else _ZERO

    def dform_known(vals, v):
        """Exterior derivative of a partially known scaling on chi(v).

        ``vals`` holds the already solved scaling values; slots still being
        solved carry zero and their contraction terms are accounted for on
        the other side of the equation through the bracket-back property of
        the selector.
        """
        terms = []
        for a, b, coef in chi.coefficients[v]:
            e = _sum_of_products(
                [(_MINUS_ONE, wf[b].apply(vals[a]))]
                + [(_MINUS_ONE, cbar[a][b][k], vals[k]) for k in range(5) if cbar[a][b][k] is not _ZERO],
                wf[a].apply(vals[b]),
            )
            terms.append((coef, e))
        return _sum_of_products(terms)

    nu0 = _sum_of_products([(expr.rational(1, 3), qval(0))])
    nu1 = _sum_of_products([(expr.rational(1, 3), qval(1))])

    # degree -2: 4 d nu(chi) = 4 nu - q with the unknown's contraction
    # moved left (weight 1), so 8 nu_2 = 4 * known part + q_2
    known = (nu0, nu1, _ZERO, _ZERO, _ZERO)
    nu2 = _sum_of_products([(
        expr.rational(1, 8),
        _sum_of_products([(expr.rational(4), dform_known(known, 2)), (qval(2),)]),
    )])

    # degree -3: 4 d nu(chi) = 3 nu - q, unknown weight 1: 7 nu_v = 4*known + q_v
    known = (nu0, nu1, nu2, _ZERO, _ZERO)
    nu34 = [
        _sum_of_products([(
            expr.rational(1, 7),
            _sum_of_products([(expr.rational(4), dform_known(known, v)), (qval(v),)]),
        )])
        for v in (3, 4)
    ]

    return _rotation_connection(g, (nu0, nu1, nu2, nu34[0], nu34[1]))
