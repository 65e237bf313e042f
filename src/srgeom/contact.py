"""Contact sub-Riemannian manifolds of constant symbol.

Pipeline: orthonormalize the horizontal frame, build the annihilator
one-form from the frame inverse, normalize it so the largest eigenvalue of
the squared structure operator is one, split the horizontal bundle into
eigenbundles (pointwise numerics promoted to symbolic projector matrices
once the eigenvalues are verified constant), construct the Reeb field, the
grading-fixing horizontal field W, and finally the projected/corrected
connections whose curvature correction yields the canonical connection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .connection import Connection, Grading, selector
from .manifold import (
    FramedManifold,
    ManifoldError,
    VectorField,
    _default_samples,
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

__all__ = [
    "ContactData",
    "ContactGradingParams",
    "extract_contact_data",
    "morimoto_grading_contact",
    "connection_prime",
    "connection_double_prime",
    "morimoto_connection_contact",
]

_ZERO = expr.rational(0)
_HALF = expr.rational(1, 2)


def _cluster_descending(values, tol=1e-6):
    """Group a descending array into clusters of relative width tol."""
    groups = []
    for v in values:
        if groups and abs(groups[-1][-1] - v) <= tol * max(abs(values[0]), 1.0):
            groups[-1].append(v)
        else:
            groups.append([v])
    return [(float(np.mean(g)), len(g)) for g in groups]


@dataclass
class ContactData:
    """Normalized contact structure data on a constant-symbol manifold."""

    manifold: FramedManifold
    ortho_frame: tuple  # orthonormal horizontal VectorFields
    aux: FramedManifold  # frame (ortho..., vertical)
    theta: tuple  # normalized one-form, coordinate components (Expr)
    jtheta: tuple  # structure operator on E, Expr matrix
    lam_op: tuple  # eigenvalue parameters, ascending, lam_op[0] == 1
    multiplicities: tuple  # dimensions of the eigenbundles
    lam: tuple  # symbol normal form (one entry per symplectic pair)
    projections: tuple  # eigenbundle projector Expr matrices
    lam_matrix: tuple  # Lambda as Expr matrix on E
    lam_inv_matrix: tuple
    jmat: tuple  # J = Lambda J^theta, Expr matrix on E
    reeb: VectorField  # Z^0

    @property
    def rank(self) -> int:
        return self.manifold.rank



def extract_contact_data(m: FramedManifold, sample_points=None, orientation: int = 1) -> ContactData:
    """Normalize the contact structure of a constant-symbol manifold.

    The annihilator direction is the bracket of the first two horizontal
    frame fields (``orientation=-1`` flips it, for invariance testing); the
    one-form is scaled so the top eigenvalue of the squared structure
    operator is one.  Eigenvalues are computed numerically at the sample
    points, verified constant, and the eigenbundle projectors are then
    rebuilt as symbolic polynomial expressions in the structure operator.
    """
    if m.structure_class != "contact":
        raise ManifoldError("manifold is not declared as a contact structure")
    if sample_points is None:
        sample_points = _default_samples(m)
    r = m.rank
    if r % 2 != 0 or m.dim != r + 1:
        raise ManifoldError(
            f"contact structure needs even horizontal rank and one extra "
            f"dimension, got rank {r} in dimension {m.dim}"
        )
    flag = growth_flag(m, m.point(sample_points[0]), 2)
    if flag != (r, r + 1):
        raise ManifoldError(f"not a contact structure: growth flag {flag}")

    fields = _gram_schmidt_horizontal(m)
    # vertical complement: the first pair of horizontal frame fields whose
    # bracket leaves the horizontal bundle (for most inputs, [X_1, X_2])
    vert_raw = None
    base = m.point(sample_points[0])
    fmat = np.column_stack([f.value_at(base) for f in fields])
    for i in range(r):
        if vert_raw is not None:
            break
        for j in range(i + 1, r):
            cand = bracket(m.frames[i], m.frames[j])
            trial = np.column_stack([fmat, cand.value_at(base)])
            if abs(np.linalg.det(trial)) > 1e-9:
                vert_raw = cand
                break
    if vert_raw is None:
        raise ManifoldError(
            "no horizontal bracket complements the horizontal bundle"
        )
    if orientation not in (1, -1):
        raise ManifoldError("orientation must be +1 or -1")
    if orientation == -1:
        vert_raw = vert_raw.scaled(expr.rational(-1))
    aux = FramedManifold(
        m.coords,
        [f.components for f in fields] + [vert_raw.components],
        r,
        structure_class=m.structure_class,
    )
    caux = structure_functions(aux)
    v = r  # index of the vertical frame slot

    # raw annihilator one-form: the vertical coframe row
    finv = frame_inverse(aux)
    theta_raw = tuple(finv[v])

    # structure coefficients of the raw form: dtheta_raw(F_a, F_b)
    dmat = [[_sum_of_products([(expr.MINUS_ONE, caux[a][b][v])]) for b in range(r)] for a in range(r)]

    # pointwise eigen data of -(D^2)
    clusters0 = None
    ratios0 = None
    for dnum in expr.evaluate_tables([dmat], [m.point(p) for p in sample_points])[0]:
        msq = -dnum @ dnum
        eigs = np.linalg.eigvalsh(msq)[::-1]
        if eigs[0] <= 0 or eigs[-1] <= 1e-9 * eigs[0]:
            raise ManifoldError("degenerate structure form on the horizontal bundle")
        clusters = _cluster_descending(eigs / eigs[0])
        if clusters0 is None:
            clusters0 = clusters
            ratios0 = tuple(c for c, _ in clusters)
        else:
            if tuple(n for _, n in clusters) != tuple(n for _, n in clusters0):
                raise ManifoldError(
                    "eigenvalue multiplicities change across samples; "
                    "the symbol is not constant"
                )
            if max(abs(c - c0) for (c, _), c0 in zip(clusters, ratios0)) > 1e-6:
                raise ManifoldError(
                    "eigenvalue ratios change across samples; "
                    "the symbol is not constant"
                )
    nus = ratios0  # descending, nus[0] == 1.0
    mults = tuple(n for _, n in clusters0)
    if any(n % 2 for n in mults):
        raise ManifoldError("odd eigenbundle dimension; structure operator corrupt")
    lam_op = tuple(float(nu) ** -0.5 for nu in nus)  # ascending from 1
    lam = tuple(
        lo**0.5 for lo, n in zip(lam_op, mults) for _ in range(n // 2)
    )

    # normalization scale: theta = t * theta_raw with
    # t^2 * tr(-D^2) = tr(Lambda^{-2})
    tr_lam = float(sum(n * lo**-2.0 for lo, n in zip(lam_op, mults)))
    tr_d = _sum_of_products((e, e) for row in dmat for e in row)
    t = expr.sqrt(expr.div(expr.floatc(tr_lam), tr_d))
    theta = tuple(_sum_of_products([(t, e)]) for e in theta_raw)

    def scalar(s):
        # s times the identity on E: _matmul(scalar(s), a) scales a
        return [[s if i == j else _ZERO for j in range(r)] for i in range(r)]

    jtheta = _matmul(scalar(t), dmat)

    # projectors: Lagrange polynomials in Msq = -(J^theta)^2
    msq_expr = _matmul(scalar(expr.neg(expr.mul(t, t))), _matmul(dmat, dmat))
    eye = scalar(expr.ONE)
    projections = []
    for j, nu_j in enumerate(nus):
        mat = eye
        for i, nu_i in enumerate(nus):
            if i == j:
                continue
            shift = expr.floatc(-nu_i)
            shifted = [
                [_sum_of_products([(shift, e)], m) for m, e in zip(mrow, erow)]
                for mrow, erow in zip(msq_expr, eye)
            ]
            mat = _matmul(scalar(expr.floatc(1.0 / (nu_j - nu_i))), _matmul(mat, shifted))
        projections.append(tuple(tuple(row) for row in mat))
    projections = tuple(projections)

    def combination(weights):
        # sum_p weights[p] * projections[p]
        ws = [expr.floatc(wt) for wt in weights]
        return [
            [_sum_of_products((wt, pr[a][b]) for wt, pr in zip(ws, projections)) for b in range(r)]
            for a in range(r)
        ]

    lam_matrix = combination(lam_op)
    lam_inv_matrix = combination([1.0 / lo for lo in lam_op])
    jmat = _matmul(lam_matrix, jtheta)

    # Reeb field Z^0 = (1/t) * vertical + u^a F_a where the horizontal part
    # solves d(theta)(Z^0, F_b) = 0:  sum_a u_a D_ab = (1/t) c^v_{vb}... via
    # u = t J Lambda rhs with rhs_b = (1/t) c_aux[v][b][v] - F_b(1/t)
    tinv = expr.pow_(t, -1)
    rhs = [
        _sum_of_products([(tinv, caux[v][b][v]), (expr.MINUS_ONE, fields[b].apply(tinv))])
        for b in range(r)
    ]
    jl = _matmul(jmat, lam_matrix)
    u = [_sum_of_products((t, jl[a][b], rhs[b]) for b in range(r)) for a in range(r)]
    reeb_coeffs = tuple(u) + (tinv,)
    reeb = frame_combination(m, aux.frames, reeb_coeffs)

    return ContactData(
        manifold=m,
        ortho_frame=tuple(fields),
        aux=aux,
        theta=theta,
        jtheta=tuple(tuple(row) for row in jtheta),
        lam_op=lam_op,
        multiplicities=mults,
        lam=lam,
        projections=projections,
        lam_matrix=tuple(tuple(row) for row in lam_matrix),
        lam_inv_matrix=tuple(tuple(row) for row in lam_inv_matrix),
        jmat=tuple(tuple(row) for row in jmat),
        reeb=reeb,
    )


# ---------------------------------------------------------------------------
# grading


def _upsilon_coeffs(cd: ContactData):
    r = cd.rank
    k = len(cd.lam_op)
    if k == 1:
        return {}
    ctab = structure_functions(cd.aux)
    out = {}
    for i in range(k):
        for j in range(k):
            if i == j:
                continue
            acc = [_ZERO] * r
            for a in range(r):
                # pr[j] F_a and pr[j] J F_a as aux coefficient vectors
                ucol = [cd.projections[j][c][a] for c in range(r)] + [_ZERO]
                jcol = [
                    _sum_of_products((cd.projections[j][c][d], cd.jmat[d][a]) for d in range(r))
                    for c in range(r)
                ] + [_ZERO]
                brk = frame_bracket(cd.aux.frames, ctab, ucol, jcol)
                for c in range(r):
                    # pr[i] of the horizontal part
                    acc[c] = _sum_of_products(
                        ((cd.projections[i][c][d], brk[d]) for d in range(r)), acc[c]
                    )
            # apply J and the 1/2 factor
            vec = [
                _sum_of_products((_HALF, cd.jmat[c][d], acc[d]) for d in range(r))
                for c in range(r)
            ]
            out[i + 1, j + 1] = vec
    return out


@dataclass
class ContactGradingParams:
    """Grading data: the horizontal field W and the vertical direction."""

    data: ContactData
    w_coeffs: tuple  # W in orthonormal-frame coefficients
    w_field: VectorField
    zw_field: VectorField  # Z^W = Z^0 - JW
    grading: Grading


def morimoto_grading_contact(cd: ContactData) -> ContactGradingParams:
    """Canonical grading: the weighted sum of the cross-eigenbundle fields."""
    r = cd.rank
    ups = _upsilon_coeffs(cd)
    tr_lam = float(
        sum(n * lo**-2.0 for lo, n in zip(cd.lam_op, cd.multiplicities))
    )
    w = [_ZERO] * r
    for (i, j), vec in ups.items():
        coef = expr.floatc(
            (2.0 / tr_lam) * cd.lam_op[i - 1] ** 2 / cd.lam_op[j - 1]
        )
        w = [_sum_of_products([(coef, vec[c])], w[c]) for c in range(r)]
    w_field = frame_combination(cd.manifold, cd.ortho_frame, w)
    jw = [_sum_of_products((cd.jmat[c][d], w[d]) for d in range(r)) for c in range(r)]
    zw_field = cd.reeb - frame_combination(cd.manifold, cd.ortho_frame, jw)
    grading = Grading(cd.manifold, [cd.ortho_frame, (zw_field,)])
    return ContactGradingParams(cd, tuple(w), w_field, zw_field, grading)


# ---------------------------------------------------------------------------
# connections


def _tau_tensor(cd: ContactData, params: ContactGradingParams):
    """tau[i][j][k] = <tau_{W_i} F_j, F_k> over the graded frame."""
    g = params.grading
    nn = g.dim
    r = cd.rank
    ctab = g.structure_functions()
    frame_fields = g.fields
    k = len(cd.lam_op)

    tau = [[[_ZERO] * nn for _ in range(nn)] for _ in range(nn)]
    for p_idx in range(k):
        proj = cd.projections[p_idx]
        # pr[p] F_j as frame coefficients, with the indices where they are non-zero
        cols = [[proj[c][j] for c in range(r)] + [_ZERO] for j in range(r)]
        supports = [[c for c in range(r) if col[c] is not _ZERO] for col in cols]
        # <pr[p] F_j, pr[p] F_k>, which does not depend on i
        gram = [
            [_sum_of_products((aj[c], bk[c]) for c in supp) for bk in cols]
            for aj, supp in zip(cols, supports)
        ]
        for i in range(nn):
            ui = _complement(proj, nn, i)  # W_i - pr[p] W_i
            if all(e is _ZERO for e in ui):
                continue
            brackets = [frame_bracket(frame_fields, ctab, ui, col) for col in cols]
            for j in range(r):
                aj, bra = cols[j], brackets[j]
                for kk in range(r):
                    bk, brb = cols[kk], brackets[kk]
                    du = _sum_of_products(
                        (ui[a], frame_fields[a].apply(gram[j][kk]))
                        for a in range(nn)
                        if ui[a] is not _ZERO
                    )
                    lie = _sum_of_products(
                        [
                            (expr.MINUS_ONE, _sum_of_products((bra[c], bk[c]) for c in supports[kk])),
                            (expr.MINUS_ONE, _sum_of_products((brb[c], aj[c]) for c in supports[j])),
                        ],
                        du,
                    )
                    tau[i][j][kk] = _sum_of_products([(_HALF, lie)], tau[i][j][kk])
    return tau


def _complement(proj, n: int, i: int) -> list:
    """Coefficients of W_i - pr W_i over the n graded frame fields, for the projector ``proj`` on E."""
    ui = [expr.ONE if c == i else _ZERO for c in range(n)]
    if i < len(proj):
        for c in range(len(proj)):
            ui[c] = _sum_of_products([(expr.MINUS_ONE, proj[c][i])], ui[c])
    return ui


def connection_prime(cd: ContactData, params: ContactGradingParams) -> Connection:
    """Projected metric connection: eigenbundles and the vertical line parallel.

    Horizontal arguments follow the three-term rule (projected Levi-Civita
    within each eigenbundle, projected bracket across, plus the Lie-derivative
    correction); the vertical frame field is parallel.
    """
    g = params.grading
    nn = g.dim
    r = cd.rank
    ctab = g.structure_functions()
    frame_fields = g.fields
    k = len(cd.lam_op)

    def koszul(a, b, c):
        # half of c_ab^c - c_ac^b - c_bc^a
        twice = _sum_of_products(
            [(expr.MINUS_ONE, ctab[a][c][b]), (expr.MINUS_ONE, ctab[b][c][a])], ctab[a][b][c]
        )
        return _sum_of_products([(_HALF, twice)])

    # horizontal Koszul coefficients of the taming Levi-Civita connection
    # (orthonormal frame: metric derivative terms vanish)
    gamma_h = [[[koszul(a, b, c) for c in range(r)] for b in range(r)] for a in range(r)]

    tau = _tau_tensor(cd, params)
    gamma = [[[_ZERO] * nn for _ in range(nn)] for _ in range(nn)]
    for p_idx in range(k):
        proj = cd.projections[p_idx]
        # the non-zero entries of each row of pr[p]
        rows = [[c for c in range(r) if proj[kk][c] is not _ZERO] for kk in range(r)]
        for i in range(nn):
            # pr[p] W_i as horizontal coefficients, and where they are non-zero
            asupp = [a for a in range(r) if proj[a][i] is not _ZERO] if i < r else []
            ui = _complement(proj, nn, i)
            for j in range(r):
                bcol = [proj[c][j] for c in range(r)]
                bsupp = [b for b in range(r) if bcol[b] is not _ZERO]
                # term 1: pr[p] ( LC_{pr[p]W_i} pr[p]F_j )
                t1 = [
                    _sum_of_products(
                        [(proj[a][i], frame_fields[a].apply(bcol[kk])) for a in asupp]
                        + [(proj[a][i], bcol[b], gamma_h[a][b][kk]) for a in asupp for b in bsupp]
                    )
                    for kk in range(r)
                ]
                # term 2: pr[p] [ W_i - pr[p]W_i, pr[p]F_j ]
                brk = frame_bracket(frame_fields, ctab, ui, bcol + [_ZERO])
                both = [_sum_of_products((), t1[c], brk[c]) for c in range(r)]
                for kk in range(r):
                    val = _sum_of_products((proj[kk][c], both[c]) for c in rows[kk])
                    gamma[i][j][kk] = _sum_of_products((), gamma[i][j][kk], val)
    for i in range(nn):
        for j in range(r):
            for kk in range(r):
                gamma[i][j][kk] = _sum_of_products((), gamma[i][j][kk], tau[i][j][kk])
    return Connection(g, gamma)


def _dj_tensor(cd: ContactData, conn: Connection):
    """dj[i][b][k]: component k of the derivative of J applied to F_b."""
    g = conn.grading
    nn = g.dim
    r = cd.rank
    frame_fields = g.fields
    gam, jmat = conn.gamma, cd.jmat
    dj = [[[_ZERO] * nn for _ in range(nn)] for _ in range(nn)]
    for i in range(nn):
        for b in range(r):
            for kk in range(r):
                products = []
                for c in range(r):
                    products.append((jmat[c][b], gam[i][c][kk]))
                    if jmat[kk][c] is not _ZERO and gam[i][b][c] is not _ZERO:
                        # expr.neg of the product
                        products.append((expr.MINUS_ONE, expr.mul(gam[i][b][c], jmat[kk][c])))
                dj[i][b][kk] = _sum_of_products(products, frame_fields[i].apply(jmat[kk][b]))
    return dj


def connection_double_prime(cd: ContactData, params: ContactGradingParams,
                            prime: Connection = None) -> Connection:
    """Corrected connection: adds half the J-derivative twist, which makes J
    (hence the degree-0 torsion) parallel for any metric starting connection."""
    if prime is None:
        prime = connection_prime(cd, params)
    g = params.grading
    nn = g.dim
    r = cd.rank
    dj = _dj_tensor(cd, prime)
    gamma = [
        [[prime.gamma[i][j][kk] for kk in range(nn)] for j in range(nn)]
        for i in range(nn)
    ]
    for i in range(nn):
        for j in range(r):
            for kk in range(r):
                corr = _sum_of_products((cd.jmat[b][j], dj[i][b][kk]) for b in range(r))
                gamma[i][j][kk] = _sum_of_products([(_HALF, corr)], gamma[i][j][kk])
    return Connection(g, gamma)


def morimoto_connection_contact(cd: ContactData, params: ContactGradingParams,
                                second: Connection = None) -> Connection:
    """Canonical connection: curvature-corrected along the selector.

    Only the curvature rows of ``second`` at the selector's wedge pairs are built.
    """
    if second is None:
        second = connection_double_prime(cd, params)
    g = params.grading
    nn = g.dim
    chi = selector(g)
    rten = {(a, b): second.curvature_rows(a, b) for rows in chi.coefficients for a, b, _ in rows}
    gamma = [
        [[second.gamma[i][j][kk] for kk in range(nn)] for j in range(nn)]
        for i in range(nn)
    ]
    for i in range(nn):
        rows = chi.coefficients[i]
        if not rows:
            continue
        for j in range(nn):
            for kk in range(nn):
                corr = _sum_of_products((coef, rten[a, b][j][kk]) for a, b, coef in rows)
                gamma[i][j][kk] = _sum_of_products([(_HALF, corr)], gamma[i][j][kk])
    return Connection(g, gamma)
