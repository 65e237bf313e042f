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
rows, ``manifold.frame_combination`` turns them back into fields, and
``VectorField.apply`` differentiates along a frame field.
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
    _is_zero,
    _matmul,
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
    "QMap",
    "connection_235",
    "intrinsic_frame_235",
    "q_map",
    "morimoto_grading_235",
    "morimoto_connection_235",
]

_ZERO = expr.rational(0)
_ONE = expr.rational(1)
_HALF = expr.rational(1, 2)


def _frame_comp(v, sinv, k):
    """Adapted component k of a bracket-frame coefficient vector."""
    return expr.add(
        *[expr.mul(v[a], sinv[a][k]) for a in range(5) if not _is_zero(v[a])]
    )


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
            expr.neg(n2[0]),
            expr.neg(n2[1]),
            _ONE,
            _ZERO,
            _ZERO,
        ]
    )
    for r in (3, 4):
        nr = srows[r]
        row = [
            expr.add(expr.neg(nr[a]), expr.mul(nr[2], n2[a])) for a in range(2)
        ]
        row.append(expr.neg(nr[2]))
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
                cbar[j][i][k] = expr.neg(e)
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
    return expr.add(
        expr.mul(mat[rows[0]][cols[0]], mat[rows[1]][cols[1]]),
        expr.neg(expr.mul(mat[rows[0]][cols[1]], mat[rows[1]][cols[0]])),
    )


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
            expr.add(
                *[
                    expr.mul(alpha_r[j][a], fields[i].components[a])
                    for a in range(5)
                    if not _is_zero(fields[i].components[a])
                ]
            )
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
        [expr.mul(mrows[1][1], dli), expr.neg(expr.mul(mrows[0][1], dli))],
        [expr.neg(expr.mul(mrows[1][0], dli)), expr.mul(mrows[0][0], dli)],
    ]
    cblk = [[mrows[2 + r][2 + s] for s in range(3)] for r in range(3)]
    det_c = expr.add(
        expr.mul(cblk[0][0], _minor2(cblk, (1, 2), (1, 2))),
        expr.neg(expr.mul(cblk[0][1], _minor2(cblk, (1, 2), (0, 2)))),
        expr.mul(cblk[0][2], _minor2(cblk, (1, 2), (0, 1))),
    )
    dci = expr.div(_ONE, det_c)
    cinv = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            rows = tuple(r for r in range(3) if r != j)
            cols = tuple(s for s in range(3) if s != i)
            sign = _minor2(cblk, rows, cols)
            if (i + j) % 2:
                sign = expr.neg(sign)
            cinv[i][j] = expr.mul(sign, dci)
    pblk = [[mrows[2 + r][a] for a in range(2)] for r in range(3)]
    # -Cinv P Linv
    pli = [
        [
            expr.add(*[expr.mul(pblk[r][a], linv[a][b]) for a in range(2)])
            for b in range(2)
        ]
        for r in range(3)
    ]
    lowleft = [
        [
            expr.neg(expr.add(*[expr.mul(cinv[i][r], pli[r][b]) for r in range(3)]))
            for b in range(2)
        ]
        for i in range(3)
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
        nneg = expr.neg(nv)
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
        val = expr.add(cbar[i][0][1], expr.neg(cbar[i][1][0]))
        if i < 2:
            val = expr.add(val, expr.neg(cbar[0][1][i]))
        lam.append(expr.mul(_HALF, val))
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
    p_sum = expr.add(c[0][3][3], c[0][4][4])
    s_sum = expr.add(c[1][3][3], c[1][4][4])

    zc1 = expr.add(c[1][2][2], s_sum)
    zc2 = expr.add(c[0][2][2], p_sum)
    z = x3f + x1f.scaled(zc1) - x2f.scaled(zc2)

    # coefficients of X_1 and -X_2 in Y_j; ``v`` is the sum multiplying Z
    def ycoeffs(j, v):
        return [
            expr.add(
                c[e][j][2],
                expr.neg(fields[e].apply(v)),
                expr.mul(c[e][j][3], p_sum),
                expr.mul(c[e][j][4], s_sum),
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
        (zc1, expr.neg(zc2), _ONE, _ZERO, _ZERO),
        (
            expr.add(y1c1, expr.neg(expr.mul(p_sum, zc1))),
            expr.add(expr.neg(y1c2), expr.mul(p_sum, zc2)),
            expr.neg(p_sum),
            _ONE,
            _ZERO,
        ),
        (
            expr.add(y2c1, expr.neg(expr.mul(s_sum, zc1))),
            expr.add(expr.neg(y2c2), expr.mul(s_sum, zc2)),
            expr.neg(s_sum),
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

    def brk(u, w):
        return frame_bracket(xfields, c, u, w)

    def evec(a, b):
        return [a, b, _ZERO, _ZERO, _ZERO]

    def ellx(a, b):
        """Bracket-frame coefficients of the degree -3 lift of a*X_1 + b*X_2."""
        return [
            expr.add(expr.mul(b, srows[3][k]), expr.neg(expr.mul(a, srows[4][k])))
            for k in range(5)
        ]

    def phix(v):
        """Horizontal image of a coefficient vector under the flag map."""
        return [
            expr.neg(_frame_comp(v, sinv, 4)),
            _frame_comp(v, sinv, 3),
        ]

    # ---- intrinsic tensors of the lift geometry -------------------------
    # p pairs the flag image of brackets of horizontal fields with the
    # degree -2 direction against the horizontal frame; phi does the same
    # for brackets against the degree -3 lifts; xi for brackets of the
    # degree -2 direction with the lifts; cp and b are the horizontal parts
    # of the basic brackets.
    e_rows = [evec(_ONE, _ZERO), evec(_ZERO, _ONE)]
    zp_row = list(srows[2])
    ell_rows = [ellx(_ONE, _ZERO), ellx(_ZERO, _ONE)]
    p_t = [phix(brk(e_rows[j], zp_row)) for j in range(2)]
    phi_t = [
        [phix(brk(e_rows[a], ell_rows[j])) for j in range(2)] for a in range(2)
    ]
    xi_t = [phix(brk(zp_row, ell_rows[j])) for j in range(2)]
    cp_t = [_frame_comp(brk(e_rows[0], e_rows[1]), sinv, k) for k in range(2)]
    b_t = [
        [_frame_comp(brk(e_rows[e], zp_row), sinv, k) for k in range(2)]
        for e in range(2)
    ]

    # ---- first correction block: rotated shift pairs --------------------
    # The normalization conditions that avoid the degree -3 endomorphism
    # (torsion on the degree -2 selector against horizontal fields, torsion
    # on degree -3 selectors against the degree -2 field, and the curvature
    # trace on horizontal selector wedges) close up into a linear system for
    # the rotated horizontal components of the two lift corrections.
    f_t = [
        expr.add(phi_t[v][0][1], expr.neg(phi_t[v][1][0])) for v in range(2)
    ]
    g_t = [
        expr.add(
            *[
                expr.mul(phi_t[e][j][k], p_t[e][k])
                for e in range(2)
                for k in range(2)
            ]
        )
        for j in range(2)
    ]
    psq = expr.add(
        *[expr.mul(p_t[e][k], p_t[e][k]) for e in range(2) for k in range(2)]
    )
    rhs1 = [
        expr.add(f_t[0], expr.mul(expr.rational(2), cp_t[0])),
        expr.add(f_t[1], expr.mul(expr.rational(2), cp_t[1])),
        expr.add(
            g_t[0],
            expr.mul(cp_t[0], p_t[0][1]),
            expr.mul(cp_t[1], p_t[1][1]),
        ),
        expr.add(
            g_t[1],
            expr.neg(expr.mul(cp_t[0], p_t[0][0])),
            expr.neg(expr.mul(cp_t[1], p_t[1][0])),
        ),
    ]
    r2 = expr.rational(2)
    r5 = expr.rational(5)
    r3 = expr.rational(3)
    mat1 = [
        [
            r5,
            _ZERO,
            expr.add(expr.mul(r3, p_t[1][0]), expr.neg(p_t[0][1])),
            expr.add(p_t[0][0], expr.mul(r3, p_t[1][1])),
        ],
        [
            _ZERO,
            r5,
            expr.neg(expr.add(p_t[1][1], expr.mul(r3, p_t[0][0]))),
            expr.add(p_t[1][0], expr.neg(expr.mul(r3, p_t[0][1]))),
        ],
        [
            expr.add(_ONE, expr.mul(r2, p_t[0][1])),
            expr.mul(r2, p_t[1][1]),
            expr.add(
                p_t[1][0],
                expr.neg(psq),
                expr.mul(p_t[1][0], p_t[0][1]),
                expr.neg(expr.mul(p_t[0][0], p_t[1][1])),
            ),
            p_t[1][1],
        ],
        [
            expr.neg(expr.mul(r2, p_t[0][0])),
            expr.add(_ONE, expr.neg(expr.mul(r2, p_t[1][0]))),
            expr.neg(p_t[0][0]),
            expr.neg(
                expr.add(
                    p_t[0][1],
                    psq,
                    expr.mul(p_t[1][1], p_t[0][0]),
                    expr.neg(expr.mul(p_t[0][1], p_t[1][0])),
                )
            ),
        ],
    ]
    aug1 = [mat1[i] + [rhs1[i]] for i in range(4)]
    sol1 = [row[4] for row in _gauss_jordan(aug1, 4)]
    w1c = sol1[:2]  # rotated components of the degree -2 shift
    w2c = sol1[2:]  # rotated components of the degree -3 vertical tilt

    dw1 = [[xfields[e].apply(w1c[k]) for k in range(2)] for e in range(2)]
    dw2 = [[xfields[e].apply(w2c[j]) for j in range(2)] for e in range(2)]
    w2p = [
        expr.add(expr.mul(w2c[0], p_t[e][0]), expr.mul(w2c[1], p_t[e][1]))
        for e in range(2)
    ]

    # horizontal scaling values of the canonical connection, from the
    # curvature trace normalization (closed form with weight 3)
    nu_e = [
        expr.mul(
            expr.rational(1, 3),
            expr.add(
                w1c[e],
                expr.neg(cp_t[e]),
                phi_t[e][0][1],
                expr.neg(phi_t[e][1][0]),
                expr.mul(w2c[0], p_t[e][1]),
                expr.neg(expr.mul(w2c[1], p_t[e][0])),
            ),
        )
        for e in range(2)
    ]

    # ---- second correction block: degree -3 endomorphism ----------------
    # The remaining torsion conditions (degree -3 selectors against
    # horizontal fields) couple the endomorphism to the degree -2 scaling
    # value; the curvature trace on the degree -2 selector closes the
    # system.  Each structure function entering the conditions is expanded
    # as an affine function of the endomorphism entries and that scaling,
    # with coefficients built from the intrinsic tensors and the solved
    # shift components.
    def aff(const=_ZERO):
        return [_ZERO, _ZERO, _ZERO, _ZERO, _ZERO, const]

    def aff_sum(*terms):
        return [expr.add(*[t[i] for t in terms]) for i in range(6)]

    def aff_neg(t):
        return [expr.neg(ti) for ti in t]

    def aff_scale(s, t):
        return [expr.mul(s, ti) for ti in t]

    # theta values of brackets of horizontal fields with the corrected
    # degree -2 field
    zpr = [w1c[1], expr.neg(w1c[0])]
    # horizontal components of brackets with the corrected degree -2 field
    cbar_e2 = [[None, None], [None, None]]
    for e in range(2):
        for k in range(2):
            cw = expr.mul(w1c[1], cp_t[k]) if e == 0 else expr.neg(
                expr.mul(w1c[0], cp_t[k])
            )
            const = expr.add(
                b_t[e][k],
                cw,
                dw1[e][k],
                expr.neg(
                    expr.mul(expr.add(zpr[e], expr.neg(w2p[e])), w1c[k])
                ),
            )
            row = aff(const)
            for mm in range(2):
                row[2 * mm + k] = expr.neg(p_t[e][mm])
            cbar_e2[e][k] = row
    # degree -2 components of brackets of the lifts with horizontal fields
    cbar_ye2 = [[None, None], [None, None]]
    for j in range(2):
        for e in range(2):
            w2phi = expr.add(
                expr.mul(w2c[0], phi_t[e][j][0]),
                expr.mul(w2c[1], phi_t[e][j][1]),
            )
            const = expr.add(
                expr.neg(dw2[e][j]), w2phi, expr.mul(w2c[j], w2p[e])
            )
            row = aff(const)
            if e == 0:
                row[2 * j + 1] = expr.neg(_ONE)
            else:
                row[2 * j] = _ONE
            cbar_ye2[j][e] = row
    # degree -3 components of brackets of the lifts with the corrected
    # degree -2 field
    cbar_y2y = [[None, None], [None, None]]
    for j in range(2):
        for k in range(2):
            const = expr.add(
                expr.neg(xi_t[j][k]),
                *[
                    expr.neg(
                        expr.mul(
                            w1c[mm],
                            expr.add(
                                phi_t[mm][j][k],
                                expr.mul(w2c[j], p_t[mm][k]),
                            ),
                        )
                    )
                    for mm in range(2)
                ],
            )
            row = aff(const)
            for mm in range(2):
                row[2 * j + mm] = p_t[mm][k]
            cbar_y2y[j][k] = row

    # curvature trace data on the degree -2 selector
    qt2 = aff_sum(
        cbar_e2[1][0],
        aff_neg(cbar_e2[0][1]),
        cbar_y2y[1][0],
        aff_neg(cbar_y2y[0][1]),
    )
    dkn2 = expr.add(
        xfields[0].apply(nu_e[1]),
        expr.neg(xfields[1].apply(nu_e[0])),
        expr.neg(expr.mul(expr.add(cp_t[0], expr.neg(w1c[0])), nu_e[0])),
        expr.neg(expr.mul(expr.add(cp_t[1], expr.neg(w1c[1])), nu_e[1])),
    )

    nu2aff = aff()
    nu2aff[4] = _ONE
    eqs = [
        aff_sum(
            aff_neg(nu2aff),
            cbar_e2[1][0],
            cbar_ye2[0][1],
            aff_scale(p_t[0][0], cbar_y2y[0][0]),
            aff_scale(p_t[0][1], cbar_y2y[0][1]),
            aff_scale(p_t[0][1], nu2aff),
        ),
        aff_sum(
            cbar_e2[1][1],
            aff_neg(cbar_ye2[0][0]),
            aff_scale(p_t[1][0], cbar_y2y[0][0]),
            aff_scale(p_t[1][1], cbar_y2y[0][1]),
            aff_scale(p_t[1][1], nu2aff),
        ),
        aff_sum(
            aff_neg(cbar_e2[0][0]),
            cbar_ye2[1][1],
            aff_scale(p_t[0][0], cbar_y2y[1][0]),
            aff_scale(p_t[0][1], cbar_y2y[1][1]),
            aff_neg(aff_scale(p_t[0][0], nu2aff)),
        ),
        aff_sum(
            aff_neg(nu2aff),
            aff_neg(cbar_e2[0][1]),
            aff_neg(cbar_ye2[1][0]),
            aff_scale(p_t[1][0], cbar_y2y[1][0]),
            aff_scale(p_t[1][1], cbar_y2y[1][1]),
            aff_neg(aff_scale(p_t[1][0], nu2aff)),
        ),
        aff_sum(
            [
                _ZERO,
                _ZERO,
                _ZERO,
                _ZERO,
                expr.rational(8),
                expr.mul(expr.rational(-4), dkn2),
            ],
            aff_neg(qt2),
        ),
    ]
    # augmented rows: the five unknowns' coefficients, then minus the constant
    aug2 = [eqs[i][:5] + [expr.neg(eqs[i][5])] for i in range(5)]
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
        [amat[0][0], amat[0][1], w2c[0], _ZERO, expr.neg(_ONE)],
        [amat[1][0], amat[1][1], w2c[1], _ONE, _ZERO],
    ]
    tinv = [
        [_ONE, _ZERO, _ZERO, _ZERO, _ZERO],
        [_ZERO, _ONE, _ZERO, _ZERO, _ZERO],
        [expr.neg(w1c[0]), expr.neg(w1c[1]), _ONE, _ZERO, _ZERO],
        [
            expr.add(expr.mul(w2c[1], w1c[0]), expr.neg(amat[1][0])),
            expr.add(expr.mul(w2c[1], w1c[1]), expr.neg(amat[1][1])),
            expr.neg(w2c[1]),
            _ZERO,
            _ONE,
        ],
        [
            expr.add(amat[0][0], expr.neg(expr.mul(w2c[0], w1c[0]))),
            expr.add(amat[0][1], expr.neg(expr.mul(w2c[0], w1c[1]))),
            w2c[0],
            expr.neg(_ONE),
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


@dataclass
class QMap:
    """Defect between bracketing against the lifts and the base connection."""

    data: Intrinsic235
    tensor: tuple  # [i][j][k]: pairing of the value on (X_i, X_j) against X_k

    def __call__(self, x: VectorField, y: VectorField) -> VectorField:
        g = self.data.grading
        xc = g.components_in_frame(x)
        yc = g.components_in_frame(y)
        comps = []
        for k in range(2):
            comps.append(
                expr.add(
                    *[
                        expr.mul(xc[i], yc[j], self.tensor[i][j][k])
                        for i in range(2)
                        for j in range(2)
                    ]
                )
            )
        return frame_combination(self.data.manifold, g.fields[:2], comps)


def q_map(data: Intrinsic235) -> QMap:
    """Bracket-versus-connection defect on horizontal fields.

    The value on (X, Y) is the horizontal image of the bracket of X with the
    degree -3 lift of Y, minus the adapted-connection derivative of Y along
    X.  It is tensorial in both slots.
    """
    srows = data.srows
    sinv = data.sinv
    g = data.grading
    conn0 = _rotation_connection(g, _adapted_lambda(g))
    tensor = []
    for i in range(2):
        ei = [_ONE if a == i else _ZERO for a in range(5)]
        row = []
        for j in range(2):
            if j == 0:
                ell_j = [expr.neg(srows[4][k]) for k in range(5)]
            else:
                ell_j = list(srows[3])
            br = frame_bracket(data.x, data.c, ei, ell_j)
            ph = [
                expr.neg(_frame_comp(br, sinv, 4)),
                _frame_comp(br, sinv, 3),
            ]
            row.append(tuple(expr.sub(ph[k], conn0.gamma[i][j][k]) for k in range(2)))
        tensor.append(tuple(row))
    return QMap(data, tuple(tensor))


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
        return expr.add(
            *[
                expr.mul(expr.rational(s), cbar[v][y][x])
                for (x, y), s in _DENTRIES.items()
                if not _is_zero(cbar[v][y][x])
            ]
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
            e = expr.add(
                wf[a].apply(vals[b]),
                expr.neg(wf[b].apply(vals[a])),
                *[
                    expr.neg(expr.mul(cbar[a][b][k], vals[k]))
                    for k in range(5)
                    if not _is_zero(cbar[a][b][k]) and not _is_zero(vals[k])
                ],
            )
            terms.append(expr.mul(coef, e))
        return expr.add(*terms)

    nu0 = expr.mul(expr.rational(1, 3), qval(0))
    nu1 = expr.mul(expr.rational(1, 3), qval(1))

    # degree -2: 4 d nu(chi) = 4 nu - q with the unknown's contraction
    # moved left (weight 1), so 8 nu_2 = 4 * known part + q_2
    known = (nu0, nu1, _ZERO, _ZERO, _ZERO)
    nu2 = expr.mul(
        expr.rational(1, 8),
        expr.add(
            expr.mul(expr.rational(4), dform_known(known, 2)), qval(2)
        ),
    )

    # degree -3: 4 d nu(chi) = 3 nu - q, unknown weight 1: 7 nu_v = 4*known + q_v
    known = (nu0, nu1, nu2, _ZERO, _ZERO)
    nu34 = [
        expr.mul(
            expr.rational(1, 7),
            expr.add(
                expr.mul(expr.rational(4), dform_known(known, v)), qval(v)
            ),
        )
        for v in (3, 4)
    ]

    return _rotation_connection(g, (nu0, nu1, nu2, nu34[0], nu34[1]))
