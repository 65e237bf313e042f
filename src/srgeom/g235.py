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
frame: every corrected field is stored as a coefficient row over that frame,
brackets are expanded through the frame structure functions, and the adapted
gradings receive their coframe and structure functions from closed-form
inverses of the (block unitriangular) coefficient matrices.  Only the bracket
frame itself is ever inverted at the coordinate level.  The calculus is the
one ``contact`` uses too: ``manifold.frame_bracket`` brackets coefficient
rows, ``manifold.frame_combination`` turns them back into fields,
``VectorField.apply`` differentiates along a frame field, and every sum of
products, matrix products included (``manifold._matmul``), is built by
``manifold._sum_of_products`` from its non-zero terms only.
"""

from dataclasses import dataclass, field

from . import expr
from .manifold import (
    FramedManifold,
    ManifoldError,
    VectorField,
    _default_samples,
    _gauss_jordan,
    _gram_schmidt_horizontal,
    _matmul,
    _sum_of_products,
    bracket,
    frame_bracket,
    frame_combination,
    frame_inverse,
    growth_flag,
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


def _frame_comp(v, sinv, k):
    """Adapted component k of a bracket-frame coefficient vector."""
    return _sum_of_products((v[a], sinv[a][k]) for a in range(5))


def _unit_lower_inverse(srows):
    """Inverse of a layered unitriangular coefficient matrix.

    Rows hold adapted fields over the bracket frame: the horizontal rows are
    standard basis vectors, row 2 corrects by horizontal terms only, rows 3
    and 4 correct by terms of slots 0..2 with an identity block on slots 3, 4.
    """
    out = [list(srows[0]), list(srows[1])]
    n2 = srows[2]
    out.append(
        [
            _sum_of_products([(_MINUS_ONE, n2[0])]),
            _sum_of_products([(_MINUS_ONE, n2[1])]),
            _ONE,
            _ZERO,
            _ZERO,
        ]
    )
    for r in (3, 4):
        nr = srows[r]
        row = [_sum_of_products([(_MINUS_ONE, nr[a]), (nr[2], n2[a])]) for a in range(2)]
        row.append(_sum_of_products([(_MINUS_ONE, nr[2])]))
        row += [_ONE if 3 + b == r else _ZERO for b in range(2)]
        out.append(row)
    return out


def _install_calculus(frame: FramedManifold, srows, sinv, alpha, xfields, ctab):
    """Install the coframe and structure functions of a frame given by rows.

    ``srows`` holds the fields of ``frame`` as coefficient rows over the
    frame ``xfields``, ``sinv`` is their inverse, ``alpha`` the coordinate
    coframe of ``xfields`` and ``ctab`` its structure functions.  Assembling
    the coframe and structure functions of ``frame`` from these replaces the
    coordinate-level solve the frame would otherwise perform.
    """
    n = 5
    finv = tuple(map(tuple, _matmul(list(zip(*sinv)), alpha)))
    cbar = [[[_ZERO for _ in range(n)] for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            br = frame_bracket(xfields, ctab, srows[i], srows[j])
            for k in range(n):
                e = _frame_comp(br, sinv, k)
                cbar[i][j][k] = e
                cbar[j][i][k] = _sum_of_products([(_MINUS_ONE, e)])
    frame._frame_inverse = finv
    frame._structure_functions = cbar


def _check_growth(m: FramedManifold, points):
    if m.rank != 2 or m.dim != 5:
        raise ManifoldError(
            "a growth (2,3,5) structure needs horizontal rank 2 in dimension 5"
        )
    flag = growth_flag(m, m.point(points[0]), 3)
    if tuple(flag) != (2, 3, 5):
        raise ManifoldError(
            f"the horizontal bundle does not have growth (2,3,5): flag {flag}"
        )


def _minor2(mat, rows, cols):
    return _sum_of_products([
        (mat[rows[0]][cols[0]], mat[rows[1]][cols[1]]),
        (_MINUS_ONE, mat[rows[0]][cols[1]], mat[rows[1]][cols[0]]),
    ])


def _frame_calculus(m: FramedManifold, aux: FramedManifold):
    """Install the coframe and structure functions of a bracket frame.

    ``aux`` is the bracket frame of an orthonormal horizontal frame.  Only
    the bracket frame of the manifold's declared horizontal fields is
    inverted at the coordinate level; ``aux`` is a block-triangular
    coefficient transform of it (horizontal block, degree -2 slot, degree -3
    block), inverted in closed form.  This keeps the metric normalization
    factors as isolated atoms instead of threading them through an
    elimination.
    """
    fields = aux.frames
    r1, r2 = m.frames[0], m.frames[1]
    r3 = bracket(r1, r2)
    r4 = bracket(r1, r3)
    r5 = bracket(r2, r3)
    rfields = (r1, r2, r3, r4, r5)
    raux = FramedManifold(
        m.coords,
        [list(f.components) for f in rfields],
        m.rank,
        structure_class=m.structure_class,
    )
    alpha_r = frame_inverse(raux)
    c_r = structure_functions(raux)

    # coefficient rows over the raw frame; the given fields are horizontal,
    # so their raw components beyond the horizontal slots vanish identically
    mrows = [None] * 5
    for i in range(2):
        row = [
            _sum_of_products((alpha_r[j][a], fields[i].components[a]) for a in range(5))
            for j in range(2)
        ]
        mrows[i] = row + [_ZERO, _ZERO, _ZERO]
    mrows[2] = frame_bracket(rfields, c_r, mrows[0], mrows[1])
    mrows[3] = frame_bracket(rfields, c_r, mrows[0], mrows[2])
    mrows[4] = frame_bracket(rfields, c_r, mrows[1], mrows[2])

    # block inverse: horizontal 2x2 block by adjugate, lower 3x3 block by
    # adjugate over its determinant, mixed block by composition
    det_l = _minor2(mrows, (0, 1), (0, 1))
    dli = expr.div(_ONE, det_l)
    linv = [
        [
            _sum_of_products([(mrows[1][1], dli)]),
            _sum_of_products([(_MINUS_ONE, mrows[0][1], dli)]),
        ],
        [
            _sum_of_products([(_MINUS_ONE, mrows[1][0], dli)]),
            _sum_of_products([(mrows[0][0], dli)]),
        ],
    ]
    cblk = [[mrows[2 + r][2 + s] for s in range(3)] for r in range(3)]
    det_c = _sum_of_products([
        (cblk[0][0], _minor2(cblk, (1, 2), (1, 2))),
        (_MINUS_ONE, cblk[0][1], _minor2(cblk, (1, 2), (0, 2))),
        (cblk[0][2], _minor2(cblk, (1, 2), (0, 1))),
    ])
    dci = expr.div(_ONE, det_c)
    cinv = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = tuple(r for r in range(3) if r != j)
            cols = tuple(s for s in range(3) if s != i)
            sign = _minor2(cblk, rows, cols)
            if (i + j) % 2:
                sign = _sum_of_products([(_MINUS_ONE, sign)])
            cinv[i][j] = _sum_of_products([(sign, dci)])
    pblk = [[mrows[2 + r][a] for a in range(2)] for r in range(3)]
    # -Cinv P Linv
    pli = _matmul(pblk, linv)
    lowleft = [
        [_sum_of_products([(_MINUS_ONE, e)]) for e in row] for row in _matmul(cinv, pli)
    ]
    minv = [
        [linv[0][0], linv[0][1], _ZERO, _ZERO, _ZERO],
        [linv[1][0], linv[1][1], _ZERO, _ZERO, _ZERO],
    ] + [
        [lowleft[i][0], lowleft[i][1], cinv[i][0], cinv[i][1], cinv[i][2]]
        for i in range(3)
    ]
    _install_calculus(aux, mrows, minv, alpha_r, rfields, c_r)


def _bracket_frame(m: FramedManifold, x1, x2):
    """The five iterated-bracket fields and their auxiliary frame.

    The auxiliary frame carries the coframe and structure functions
    installed by :func:`_frame_calculus`.
    """
    if (x1 is None) != (x2 is None):
        raise ManifoldError("provide both horizontal fields or neither")
    if x1 is None:
        x1, x2 = _gram_schmidt_horizontal(m)
    x3 = bracket(x1, x2)
    x4 = bracket(x1, x3)
    x5 = bracket(x2, x3)
    fields = (x1, x2, x3, x4, x5)
    aux = FramedManifold(
        m.coords,
        [list(f.components) for f in fields],
        m.rank,
        structure_class=m.structure_class,
    )
    _frame_calculus(m, aux)
    return fields, aux


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
        nneg = _sum_of_products([(_MINUS_ONE, nv)])
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

    ``srows`` holds the adapted fields ``X_1, X_2, Z, Y_1, Y_2`` as coefficient
    rows over the bracket frame ``x``, ``sinv`` their inverse.  The grading
    itself is built on first access.
    """

    manifold: FramedManifold
    x: tuple  # bracket frame X_1..X_5
    alpha: tuple  # coframe rows of the bracket frame
    c: tuple  # structure functions of the bracket frame
    zp: VectorField  # Z
    wp: tuple  # Y_1, Y_2
    srows: tuple = field(repr=False)
    sinv: tuple = field(repr=False)
    _grading: Grading = field(default=None, repr=False)

    @property
    def grading(self) -> Grading:
        if self._grading is None:
            g = Grading(self.manifold, [self.x[:2], (self.zp,), self.wp])
            _install_calculus(g.frame, self.srows, self.sinv, self.alpha, self.x, self.c)
            self._grading = g
        return self._grading


def intrinsic_frame_235(m: FramedManifold, x1: VectorField = None,
                        x2: VectorField = None, sample_points=None) -> Intrinsic235:
    """Intrinsic grading of a growth (2,3,5) horizontal bundle.

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
    fields, aux = _bracket_frame(m, x1, x2)
    try:
        aux.frame_matrix_at(aux.point(sample_points[0]))
    except ManifoldError as exc:
        raise ManifoldError(f"bracket frame is rank deficient: {exc}") from exc
    c = structure_functions(aux)
    x1f, x2f, x3f, x4f, x5f = fields

    # two recurring horizontal-coefficient sums of the second layer
    p_sum = _sum_of_products((), c[0][3][3], c[0][4][4])
    s_sum = _sum_of_products((), c[1][3][3], c[1][4][4])

    zc1 = _sum_of_products((), c[1][2][2], s_sum)
    zc2 = _sum_of_products((), c[0][2][2], p_sum)
    z = x3f + x1f.scaled(zc1) - x2f.scaled(zc2)

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
    y1 = x4f - z.scaled(p_sum) + x1f.scaled(y1c1) - x2f.scaled(y1c2)
    y2c1, y2c2 = ycoeffs(4, s_sum)
    y2 = x5f - z.scaled(s_sum) + x1f.scaled(y2c1) - x2f.scaled(y2c2)

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
    sinv = tuple(tuple(row) for row in _unit_lower_inverse(srows))
    return Intrinsic235(
        m, fields, frame_inverse(aux), c, z, (y1, y2), srows, sinv
    )


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

    Corrects the intrinsic grading so the canonical connection of the
    result satisfies the torsion and curvature trace normalizations exactly:
    the degree -2 direction is shifted by a rotated horizontal field, and
    the degree -3 lifts are tilted by a vertical shift and a horizontal
    endomorphism.  The corrections are obtained by expanding the structure
    functions of the corrected frame over intrinsic bracket tensors and
    solving the resulting linear systems in closed form.  The returned
    grading carries its coframe and structure functions.  On the model
    algebra every correction vanishes, so its layers span the same subspaces
    as those of ``intrinsic_frame_235(...).grading``; the degree -3 frames
    differ by the rotation generator.
    """
    data = intrinsic_frame_235(m, x1, x2, sample_points)
    xfields = data.x
    c = data.c
    srows = data.srows
    sinv = data.sinv

    def phix(v):
        """Horizontal image of a coefficient vector under the flag map."""
        return [
            _sum_of_products([(_MINUS_ONE, _frame_comp(v, sinv, 4))]),
            _frame_comp(v, sinv, 3),
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
    cp_t = [_frame_comp(frame_bracket(xfields, c, e_rows[0], e_rows[1]), sinv, k) for k in range(2)]
    b_t = [[_frame_comp(br, sinv, k) for k in range(2)] for br in ez]
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

    z_field = data.zp + frame_combination(m, xfields[:2], w1c)

    # adapted rows of the corrected fields over the bracket frame; the lift
    # block rotates the degree -3 plane, so the inverse composes the layered
    # unitriangular inverse with the closed-form inverse of that rotation
    tmat = [
        [_ONE, _ZERO, _ZERO, _ZERO, _ZERO],
        [_ZERO, _ONE, _ZERO, _ZERO, _ZERO],
        [w1c[0], w1c[1], _ONE, _ZERO, _ZERO],
        [amat[0][0], amat[0][1], w2c[0], _ZERO, _MINUS_ONE],
        [amat[1][0], amat[1][1], w2c[1], _ONE, _ZERO],
    ]
    tinv = [
        [_ONE, _ZERO, _ZERO, _ZERO, _ZERO],
        [_ZERO, _ONE, _ZERO, _ZERO, _ZERO],
        [
            _sum_of_products([(_MINUS_ONE, w1c[0])]),
            _sum_of_products([(_MINUS_ONE, w1c[1])]),
            _ONE,
            _ZERO,
            _ZERO,
        ],
        [
            _sum_of_products([(w2c[1], w1c[0]), (_MINUS_ONE, amat[1][0])]),
            _sum_of_products([(w2c[1], w1c[1]), (_MINUS_ONE, amat[1][1])]),
            _sum_of_products([(_MINUS_ONE, w2c[1])]),
            _ZERO,
            _ONE,
        ],
        [
            _sum_of_products([(_MINUS_ONE, w2c[0], w1c[0])], amat[0][0]),
            _sum_of_products([(_MINUS_ONE, w2c[0], w1c[1])], amat[0][1]),
            w2c[0],
            _MINUS_ONE,
            _ZERO,
        ],
    ]
    srows_i = _matmul(tmat, srows)
    sinv_i = _matmul(sinv, tinv)

    ell_fields = [
        frame_combination(m, xfields, srows_i[3]),
        frame_combination(m, xfields, srows_i[4]),
    ]

    grading = Grading(m, [(xfields[0], xfields[1]), (z_field,), tuple(ell_fields)])
    _install_calculus(grading.frame, srows_i, sinv_i, data.alpha, xfields, c)
    return grading


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
        return _sum_of_products(
            (expr.rational(s), cbar[v][y][x]) for (x, y), s in _DENTRIES.items()
        )

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
                + [(_MINUS_ONE, cbar[a][b][k], vals[k]) for k in range(5)],
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
