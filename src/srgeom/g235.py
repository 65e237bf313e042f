"""Rank-two distributions of growth (2,3,5): grading, connections, flatness.

:func:`intrinsic_frame_235` builds the intrinsic grading
``E + span{Z} + span{Y_1, Y_2}``: ``Z`` and ``Y_1``, ``Y_2`` correct the
iterated brackets of an orthonormal horizontal frame so that ``Z`` and the
span of the ``Y_j`` do not depend on that frame.  :func:`connection_235` is
the adapted metric connection of this grading; the structure is locally
equivalent to the nilpotent model group exactly when
``connection.flatness_check(connection_235(data), points)`` reports it flat.

:func:`morimoto_grading_235` returns Morimoto's canonical grading as a
``Grading``: the intrinsic grading with its degree -2 field and degree -3
lifts corrected so that the normalization holds.  On the nilpotent model
every correction vanishes, so each layer spans the same subspace as the
intrinsic one (the degree -3 frames still differ by the rotation generator).
:func:`morimoto_connection_235` takes that grading and solves the
normalization identities checked by ``check_morimoto`` for its unique
compatible connection.

All constructions run in the coefficient calculus of the iterated-bracket
frame: every corrected field is a coefficient row over that frame, and each
grading is the derived frame of its rows (``manifold._frame_over``), whose
coframe and structure functions come from the rows.  The bracket frame is
itself derived, from its rows over ``raux``, the bracket frame of the
declared horizontal fields, which is the only frame inverted and bracketed
at the coordinate level.  The calculus is the one ``contact`` uses too:
``manifold.frame_bracket`` brackets coefficient rows,
``VectorField.apply`` differentiates along a frame field, and every sum of
products is built by ``manifold._sum_of_products`` from its non-zero terms.
"""

from dataclasses import dataclass, field

from . import expr
from .manifold import (
    FramedManifold,
    ManifoldError,
    VectorField,
    _component,
    _default_samples,
    _frame_over,
    _gauss_jordan,
    _gram_schmidt_horizontal,
    _inverse,
    _matmul,
    _sum_of_products,
    bracket,
    check_constant_symbol,
    frame_bracket,
    frame_combination,
    frame_inverse,
    structure_functions,
)
from .connection import Connection, Grading, selector

__all__ = [
    "Intrinsic235",
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


def _bracket_frame(m: FramedManifold, x1, x2) -> FramedManifold:
    """The bracket frame of an orthonormal horizontal frame, derived from ``raux``.

    The frame of its rows over ``raux``, the bracket frame of the declared
    horizontal fields and the one frame here inverted and bracketed at the
    coordinate level: ``x1`` and ``x2`` through raux's coframe, and
    ``X_3 = [X_1, X_2]``, ``X_4 = [X_1, X_3]``, ``X_5 = [X_2, X_3]`` by
    ``frame_bracket``.  Not over the chart, whose vertical fields need not be
    brackets: for a chart where they are not, that grew the pool 180-fold.
    """
    if (x1 is None) != (x2 is None):
        raise ManifoldError("provide both horizontal fields or neither")
    if x1 is None:
        x1, x2 = (frame_combination(m, m.frames[:2], row) for row in _gram_schmidt_horizontal(m))
    r1, r2 = m.frames[:2]
    r3 = bracket(r1, r2)
    raux = FramedManifold(
        m.coords,
        [f.components for f in (r1, r2, r3, bracket(r1, r3), bracket(r2, r3))],
        m.rank,
        structure_class=m.structure_class,
    )
    alpha, c = frame_inverse(raux), structure_functions(raux)
    # rows over raux; the given fields are horizontal, so their rows vanish
    # identically beyond the horizontal slots
    rows = [
        [_sum_of_products((alpha[j][a], x.components[a]) for a in range(5)) for j in range(2)] + [_ZERO] * 3
        for x in (x1, x2)
    ]
    rows.append(frame_bracket(raux.frames, c, rows[0], rows[1]))
    rows += [frame_bracket(raux.frames, c, rows[e], rows[2]) for e in range(2)]
    return _frame_over(raux, rows)


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
        gamma[i][0][1] = nv
        gamma[i][1][0] = nneg
        gamma[i][3][4] = nv
        gamma[i][4][3] = nneg
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


@dataclass
class Intrinsic235:
    """Intrinsic grading ``E + span{Z} + span{Y_1, Y_2}`` over the bracket frame.

    ``frame`` is the bracket frame ``X_1..X_5``; ``srows`` holds the adapted
    fields ``X_1, X_2, Z, Y_1, Y_2`` as coefficient rows over it.  The
    grading, the derived frame of these rows, is built on first access.
    """

    manifold: FramedManifold
    frame: FramedManifold  # bracket frame X_1..X_5
    srows: tuple = field(repr=False)
    _grading: Grading = field(default=None, repr=False)

    @property
    def grading(self) -> Grading:
        if self._grading is None:
            self._grading = Grading(_frame_over(self.frame, self.srows), (2, 1, 2))
        return self._grading


def intrinsic_frame_235(m: FramedManifold, x1: VectorField = None,
                        x2: VectorField = None, sample_points=None) -> Intrinsic235:
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
    not depend on the choice of orthonormal horizontal frame.
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
    c = structure_functions(aux)

    # two recurring horizontal-coefficient sums of the second layer
    p_sum = _sum_of_products((), c[0][3][3], c[0][4][4])
    s_sum = _sum_of_products((), c[1][3][3], c[1][4][4])

    zc1 = _sum_of_products((), c[1][2][2], s_sum)
    zc2 = _sum_of_products((), c[0][2][2], p_sum)

    # coefficients of X_1 and -X_2 in Y_j; ``v`` is the sum multiplying Z
    def ycoeffs(j, v):
        return [
            _sum_of_products(
                [
                    (_MINUS_ONE, fields[e].apply(v)),
                    (c[e][j][3], p_sum),
                    (c[e][j][4], s_sum),
                ],
                c[e][j][2],
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
    return Intrinsic235(m, aux, srows)


def connection_235(data: Intrinsic235) -> Connection:
    """Adapted metric connection of the intrinsic grading.

    Horizontal directions differentiate by the horizontal part of the
    Levi-Civita connection of the taming metric; directions of degree -2 and
    -3 use the bracket-plus-metric-drift rule.  The middle field is parallel
    and the degree -3 block mirrors the horizontal block, which makes all
    three layers parallel and the frame metric covariant constant.  The
    structure is locally equivalent to the nilpotent model group exactly
    when this connection passes ``connection.flatness_check``.
    """
    g = data.grading
    return _rotation_connection(g, _adapted_lambda(g))


def morimoto_grading_235(m: FramedManifold, x1: VectorField = None,
                         x2: VectorField = None, sample_points=None) -> Grading:
    """Canonical grading of a growth (2,3,5) structure.

    Refuses, like :func:`intrinsic_frame_235`, a chart not declared
    ``two-three-five`` or whose flag is not (2,3,5) at every sample point.

    Corrects the intrinsic grading so the canonical connection of the
    result satisfies the torsion and curvature trace normalizations exactly:
    the degree -2 direction is shifted by a rotated horizontal field, and
    the degree -3 lifts are tilted by a vertical shift and a horizontal
    endomorphism.  The corrections are obtained by expanding the structure
    functions of the corrected frame over intrinsic bracket tensors and
    solving the two resulting linear systems by ``manifold._gauss_jordan``.
    The returned grading is the derived frame of its rows over the bracket
    frame.  On the model algebra every correction vanishes, so its layers
    span the same subspaces as those of ``intrinsic_frame_235(...).grading``;
    the degree -3 frames differ by the rotation generator.
    """
    data = intrinsic_frame_235(m, x1, x2, sample_points)
    xfields = data.frame.frames
    c = structure_functions(data.frame)
    srows = data.srows
    sinv = _inverse(srows)

    def phix(v):
        """Horizontal image of a coefficient vector under the flag map."""
        return [
            _sum_of_products([(_MINUS_ONE, _component(v, sinv, 4))]),
            _component(v, sinv, 3),
        ]

    # ---- intrinsic tensors of the lift geometry -------------------------
    # p pairs the flag image of brackets of horizontal fields with the
    # degree -2 direction against the horizontal frame; phi does the same
    # for brackets against the degree -3 lifts; xi for brackets of the
    # degree -2 direction with the lifts; cp and b are the horizontal parts
    # of the basic brackets.  The horizontal fields and the degree -2
    # direction are rows of ``srows``; the degree -3 lift of a*X_1 + b*X_2
    # is b*Y_1 - a*Y_2.
    e_rows, zp_row = srows[:2], srows[2]
    ell_rows = _matmul([[_ZERO, _MINUS_ONE], [_ONE, _ZERO]], srows[3:])
    ez = [frame_bracket(xfields, c, e_rows[e], zp_row) for e in range(2)]
    p_t = [phix(br) for br in ez]
    phi_t = [
        [phix(frame_bracket(xfields, c, e_rows[a], ell_rows[j])) for j in range(2)]
        for a in range(2)
    ]
    xi_t = [phix(frame_bracket(xfields, c, zp_row, ell_rows[j])) for j in range(2)]
    cp_t = [_component(frame_bracket(xfields, c, e_rows[0], e_rows[1]), sinv, k) for k in range(2)]
    b_t = [[_component(br, sinv, k) for k in range(2)] for br in ez]
    (p00, p01), (p10, p11) = p_t

    # ---- first correction block: rotated shift pairs --------------------
    # The normalization conditions that avoid the degree -3 endomorphism
    # (torsion on the degree -2 selector against horizontal fields, torsion
    # on degree -3 selectors against the degree -2 field, and the curvature
    # trace on horizontal selector wedges) close up into a linear system for
    # the rotated horizontal components of the two lift corrections.  A
    # 1-tuple among the products keeps a summand in its place in the sum.
    f_t = [_sum_of_products([(_MINUS_ONE, phi_t[v][1][0])], phi_t[v][0][1]) for v in range(2)]
    g_t = [
        _sum_of_products((phi_t[e][j][k], p_t[e][k]) for e in range(2) for k in range(2))
        for j in range(2)
    ]
    psq = _sum_of_products((p_t[e][k], p_t[e][k]) for e in range(2) for k in range(2))
    r2 = expr.rational(2)
    r5 = expr.rational(5)
    r3 = expr.rational(3)
    rhs1 = [
        _sum_of_products([(r2, cp_t[0])], f_t[0]),
        _sum_of_products([(r2, cp_t[1])], f_t[1]),
        _sum_of_products([(cp_t[0], p01), (cp_t[1], p11)], g_t[0]),
        _sum_of_products([(_MINUS_ONE, cp_t[0], p00), (_MINUS_ONE, cp_t[1], p10)], g_t[1]),
    ]
    mat1 = [
        [
            r5,
            _ZERO,
            _sum_of_products([(r3, p10), (_MINUS_ONE, p01)]),
            _sum_of_products([(r3, p11)], p00),
        ],
        [
            _ZERO,
            r5,
            _sum_of_products([(_MINUS_ONE, _sum_of_products([(r3, p00)], p11))]),
            _sum_of_products([(_MINUS_ONE, r3, p01)], p10),
        ],
        [
            _sum_of_products([(r2, p01)], _ONE),
            _sum_of_products([(r2, p11)]),
            _sum_of_products([(_MINUS_ONE, psq), (p10, p01), (_MINUS_ONE, p00, p11)], p10),
            p11,
        ],
        [
            _sum_of_products([(_MINUS_ONE, r2, p00)]),
            _sum_of_products([(_MINUS_ONE, r2, p10)], _ONE),
            _sum_of_products([(_MINUS_ONE, p00)]),
            _sum_of_products(
                [(_MINUS_ONE, _sum_of_products([(p11, p00), (_MINUS_ONE, p01, p10)], p01, psq))]
            ),
        ],
    ]
    aug1 = [mat1[i] + [rhs1[i]] for i in range(4)]
    sol1 = [row[4] for row in _gauss_jordan(aug1, 4)]
    w1c = sol1[:2]  # rotated components of the degree -2 shift
    w2c = sol1[2:]  # rotated components of the degree -3 vertical tilt

    dw1 = [[xfields[e].apply(w1c[k]) for k in range(2)] for e in range(2)]
    dw2 = [[xfields[e].apply(w2c[j]) for j in range(2)] for e in range(2)]
    w2p = [_sum_of_products((w2c[k], p_t[e][k]) for k in range(2)) for e in range(2)]

    # horizontal scaling values of the canonical connection, from the
    # curvature trace normalization (closed form with weight 3)
    nu_e = [
        _sum_of_products([(
            expr.rational(1, 3),
            _sum_of_products(
                [
                    (_MINUS_ONE, cp_t[e]),
                    (phi_t[e][0][1],),
                    (_MINUS_ONE, phi_t[e][1][0]),
                    (w2c[0], p_t[e][1]),
                    (_MINUS_ONE, w2c[1], p_t[e][0]),
                ],
                w1c[e],
            ),
        )])
        for e in range(2)
    ]

    # ---- second correction block: degree -3 endomorphism ----------------
    # The remaining torsion conditions (degree -3 selectors against
    # horizontal fields) couple the endomorphism to the degree -2 scaling
    # value; the curvature trace on the degree -2 selector closes the
    # system.  Each structure function entering the conditions is expanded
    # as an affine function of the endomorphism entries and that scaling:
    # a row of their five coefficients and the constant, built from the
    # intrinsic tensors and the solved shift components.  The conditions
    # are combinations of these rows, that is row vectors times them.

    # theta values of brackets of horizontal fields with the corrected
    # degree -2 field
    zpr = [w1c[1], _sum_of_products([(_MINUS_ONE, w1c[0])])]
    # horizontal components of brackets with the corrected degree -2 field
    cbar_e2 = [[None, None], [None, None]]
    for e in range(2):
        drift = _sum_of_products([(_MINUS_ONE, w2p[e])], zpr[e])
        for k in range(2):
            cw = (w1c[1], cp_t[k]) if e == 0 else (_MINUS_ONE, w1c[0], cp_t[k])
            const = _sum_of_products(
                [cw, (dw1[e][k],), (_MINUS_ONE, drift, w1c[k])], b_t[e][k]
            )
            row = [_ZERO] * 5 + [const]
            for mm in range(2):
                row[2 * mm + k] = _sum_of_products([(_MINUS_ONE, p_t[e][mm])])
            cbar_e2[e][k] = row
    # degree -2 components of brackets of the lifts with horizontal fields
    cbar_ye2 = [[None, None], [None, None]]
    for j in range(2):
        for e in range(2):
            w2phi = _sum_of_products((w2c[kk], phi_t[e][j][kk]) for kk in range(2))
            const = _sum_of_products(
                [(_MINUS_ONE, dw2[e][j]), (w2phi,), (w2c[j], w2p[e])]
            )
            row = [_ZERO] * 5 + [const]
            if e == 0:
                row[2 * j + 1] = _MINUS_ONE
            else:
                row[2 * j] = _ONE
            cbar_ye2[j][e] = row
    # degree -3 components of brackets of the lifts with the corrected
    # degree -2 field
    cbar_y2y = [[None, None], [None, None]]
    for j in range(2):
        for k in range(2):
            const = _sum_of_products(
                [(_MINUS_ONE, xi_t[j][k])]
                + [
                    (
                        _MINUS_ONE,
                        w1c[mm],
                        _sum_of_products([(w2c[j], p_t[mm][k])], phi_t[mm][j][k]),
                    )
                    for mm in range(2)
                ]
            )
            row = [_ZERO] * 5 + [const]
            for mm in range(2):
                row[2 * j + mm] = p_t[mm][k]
            cbar_y2y[j][k] = row

    # curvature trace data on the degree -2 selector
    qt2 = _matmul(
        [[_ONE, _MINUS_ONE, _ONE, _MINUS_ONE]],
        [cbar_e2[1][0], cbar_e2[0][1], cbar_y2y[1][0], cbar_y2y[0][1]],
    )[0]
    dkn2 = _sum_of_products(
        [
            (_MINUS_ONE, xfields[1].apply(nu_e[0])),
            (_MINUS_ONE, _sum_of_products([(_MINUS_ONE, w1c[0])], cp_t[0]), nu_e[0]),
            (_MINUS_ONE, _sum_of_products([(_MINUS_ONE, w1c[1])], cp_t[1]), nu_e[1]),
        ],
        xfields[0].apply(nu_e[1]),
    )

    nu2aff = [_ZERO, _ZERO, _ZERO, _ZERO, _ONE, _ZERO]
    nconst = [_ZERO] * 4 + [expr.rational(8), _sum_of_products([(expr.rational(-4), dkn2)])]
    # (coefficient, row) pairs of each condition
    conditions = [
        [
            (_MINUS_ONE, nu2aff),
            (_ONE, cbar_e2[1][0]),
            (_ONE, cbar_ye2[0][1]),
            (p00, cbar_y2y[0][0]),
            (p01, cbar_y2y[0][1]),
            (p01, nu2aff),
        ],
        [
            (_ONE, cbar_e2[1][1]),
            (_MINUS_ONE, cbar_ye2[0][0]),
            (p10, cbar_y2y[0][0]),
            (p11, cbar_y2y[0][1]),
            (p11, nu2aff),
        ],
        [
            (_MINUS_ONE, cbar_e2[0][0]),
            (_ONE, cbar_ye2[1][1]),
            (p00, cbar_y2y[1][0]),
            (p01, cbar_y2y[1][1]),
            (_sum_of_products([(_MINUS_ONE, p00)]), nu2aff),
        ],
        [
            (_MINUS_ONE, nu2aff),
            (_MINUS_ONE, cbar_e2[0][1]),
            (_MINUS_ONE, cbar_ye2[1][0]),
            (p10, cbar_y2y[1][0]),
            (p11, cbar_y2y[1][1]),
            (_sum_of_products([(_MINUS_ONE, p10)]), nu2aff),
        ],
        [(_ONE, nconst), (_MINUS_ONE, qt2)],
    ]
    eqs = [_matmul([[s for s, _ in pairs]], [row for _, row in pairs])[0] for pairs in conditions]
    # augmented rows: the five unknowns' coefficients, then minus the constant
    aug2 = [eqs[i][:5] + [_sum_of_products([(_MINUS_ONE, eqs[i][5])])] for i in range(5)]
    sol2 = [row[5] for row in _gauss_jordan(aug2, 5)]
    amat = [[sol2[0], sol2[1]], [sol2[2], sol2[3]]]

    # adapted rows of the corrected fields over the bracket frame; the lift
    # block rotates the degree -3 plane
    tmat = [
        [_ONE, _ZERO, _ZERO, _ZERO, _ZERO],
        [_ZERO, _ONE, _ZERO, _ZERO, _ZERO],
        [w1c[0], w1c[1], _ONE, _ZERO, _ZERO],
        [amat[0][0], amat[0][1], w2c[0], _ZERO, _MINUS_ONE],
        [amat[1][0], amat[1][1], w2c[1], _ONE, _ZERO],
    ]
    return Grading(_frame_over(data.frame, _matmul(tmat, srows)), (2, 1, 2))


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
