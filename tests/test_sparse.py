"""The symbolic construction builds only its non-zero terms.

The sparse loops of ``VectorField.apply``, ``frame_bracket``,
``Connection.curvature_rows``, ``manifold._matmul``, ``structure_functions``,
``_gauss_jordan``, the taming metric and selector, ``connection_double_prime``
and ``manifold._component`` run over the supports of their operands; the dense
loops they replaced are kept here as oracles, and both must return the same
interned nodes.  Volume guards count the constructor calls and the sums the
contact and (2,3,5) pipelines spend on structurally zero terms, and the
wedge-Gram inverses a grading solves.
"""

import pytest
from test_pointwise import CHARTS

from srgeom import connection, contact, expr, g235, lie, manifold, models
from srgeom.connection import Grading, _wedge_classes, selector, taming_metric
from srgeom.contact import (
    connection_double_prime,
    connection_prime,
    extract_contact_data,
    morimoto_connection_contact,
    morimoto_grading_contact,
)
from srgeom.g235 import intrinsic_frame_235, morimoto_connection_235, morimoto_grading_235
from srgeom.manifold import (
    FramedManifold,
    _component,
    _default_samples,
    _gauss_jordan,
    _inverse,
    _matmul,
    _sum_of_products,
    bracket,
    frame_bracket,
    frame_combination,
    frame_inverse,
    structure_functions,
)

_ZERO = expr.ZERO
_HALF = expr.HALF


def _dense_sum(terms, *summands):
    """The sum with a product built for every term, ZERO factors included:
    what a loop over the whole index range makes."""
    return expr.add(*summands, *[expr.mul(*t) for t in terms])


def _oracle_apply(x, f, factor=expr.ONE):
    """``factor * X(f)`` with a product for every non-zero component of X."""
    return expr.add(
        *[
            expr.mul(factor, xa, expr.differentiate(f, c))
            for xa, c in zip(x.components, x.manifold.coords)
            if xa is not _ZERO
        ]
    )


def _oracle_frame_bracket(fields, ctab, u, w):
    """The bracket of coefficient vectors, looping over every index triple."""
    n = len(u)
    out = []
    for k in range(n):
        terms = []
        for a in range(n):
            if u[a] is not _ZERO and w[k] is not _ZERO:
                terms.append(expr.mul(u[a], _oracle_apply(fields[a], w[k])))
            if w[a] is not _ZERO and u[k] is not _ZERO:
                terms.append(expr.neg(expr.mul(w[a], _oracle_apply(fields[a], u[k]))))
        for a in range(n):
            if u[a] is _ZERO:
                continue
            for b in range(n):
                if w[b] is _ZERO or ctab[a][b][k] is _ZERO:
                    continue
                terms.append(expr.mul(u[a], w[b], ctab[a][b][k]))
        out.append(expr.add(*terms))
    return out


def _oracle_curvature_rows(conn, i, j):
    """R[i][j] with every product of the dense sum built."""
    n = conn.grading.dim
    c = conn.grading.structure_functions()
    fields = conn.grading.fields
    gam = conn.gamma
    return tuple(
        tuple(
            expr.add(
                _oracle_apply(fields[i], gam[j][k][l]),
                _oracle_apply(fields[j], gam[i][k][l], expr.MINUS_ONE),
                *[
                    term
                    for mm in range(n)
                    for term in (
                        expr.mul(gam[j][k][mm], gam[i][mm][l]),
                        expr.neg(expr.mul(gam[i][k][mm], gam[j][mm][l])),
                        expr.neg(expr.mul(c[i][j][mm], gam[mm][k][l])),
                    )
                ],
            )
            for l in range(n)
        )
        for k in range(n)
    )


def _oracle_matmul(a, b):
    """The matrix product with a term for every non-zero entry of ``a``."""
    return [
        [
            expr.add(*[expr.mul(a[i][k], b[k][j]) for k in range(len(b)) if a[i][k] is not _ZERO])
            for j in range(len(b[0]))
        ]
        for i in range(len(a))
    ]


def _same_nodes(got, want):
    """Nested sequences of expressions holding the same objects, entry by entry."""
    if isinstance(want, expr.Expr):
        return got is want
    return len(got) == len(want) and all(_same_nodes(g, w) for g, w in zip(got, want))


@pytest.mark.parametrize("chart", sorted(CHARTS))
def test_sparse_construction_builds_the_dense_nodes(chart):
    conn, _ = CHARTS[chart]()
    g = conn.grading
    n = g.dim
    fields, ctab, gam = g.fields, g.structure_functions(), conn.gamma
    units = [[expr.ONE if a == b else _ZERO for b in range(n)] for a in range(n)]
    # float coefficients on shared monomials, whose sums round by term order
    xs = [expr.var(c) for c in g.frame.coords]
    u_flt = [expr.mul(expr.floatc(0.1 * (a + 1)), xs[a], xs[-1]) for a in range(n)]
    w_flt = [expr.mul(expr.floatc(0.3 / (a + 1)), xs[a], xs[0]) for a in range(n)]
    entries = [e for plane in gam for row in plane for e in row] + [e for row in g.frame_rows for e in row]
    nonzero = 0
    for field in fields:
        for f in entries:
            want = _oracle_apply(field, f)
            nonzero += want is not _ZERO
            assert field.apply(f) is want
            assert field.apply(f, expr.MINUS_ONE) is _oracle_apply(field, f, expr.MINUS_ONE)
    pairs = [(u_flt, w_flt)]
    pairs += [(gam[i][j], gam[j][i]) for i in range(n) for j in range(n)]
    pairs += [(units[i], gam[i][j]) for i in range(n) for j in range(n)]
    pairs += [(gam[i][j], ctab[i][j]) for i in range(n) for j in range(n)]
    for u, w in pairs:
        assert _same_nodes(frame_bracket(fields, ctab, u, w), _oracle_frame_bracket(fields, ctab, u, w))
    for i in range(n):
        for j in range(i + 1, n):
            assert _same_nodes(conn.curvature_rows(i, j), _oracle_curvature_rows(conn, i, j))
        for b in (ctab[(i + 1) % n], gam[i], units):
            assert _same_nodes(_matmul(gam[i], b), _oracle_matmul(gam[i], b))
    # the comparison is not of zeros alone
    assert nonzero > 0


def _count_zero_terms(monkeypatch):
    """Counters of the `mul` calls with a ZERO argument and the `add` calls whose arguments are all ZERO."""
    zero_mul, zero_add = [0], [0]
    mul, add = expr.mul, expr.add

    def counted_mul(*factors):
        zero_mul[0] += any(f is _ZERO for f in factors)
        return mul(*factors)

    def counted_add(*terms):
        zero_add[0] += all(t is _ZERO for t in terms)
        return add(*terms)

    monkeypatch.setattr(expr, "mul", counted_mul)
    monkeypatch.setattr(expr, "add", counted_add)
    return zero_mul, zero_add


def test_contact_pipeline_builds_few_zero_terms(monkeypatch):
    # Flat h_3 (dimension 7), from the contact data to the canonical connection.
    # Dense loops made 26,368 `mul` calls with a ZERO argument and 15,713 `add`
    # calls whose arguments were all ZERO here, in a fresh interpreter, out of
    # 26,848 and 16,139 calls.
    m = models.carnot_group_manifold(lie.heisenberg((1, 1.5, 2.5)), structure_class="contact")
    zero_mul, zero_add = _count_zero_terms(monkeypatch)
    cd = extract_contact_data(m)
    params = morimoto_grading_contact(cd)
    prime = connection_prime(cd, params)
    second = connection_double_prime(cd, params, prime=prime)
    morimoto_connection_contact(cd, params, second=second)
    assert zero_mul[0] < 1000
    assert zero_add[0] < 1000


def test_235_pipeline_builds_few_zero_terms(monkeypatch):
    # Cartan's chart at 3 points, the canonical grading and connection.  The
    # dense sums of `g235` made 615 `mul` calls with a ZERO argument and 254
    # `add` calls whose arguments were all ZERO here, in a fresh interpreter,
    # out of 959 and 374 calls.
    m = models.cartan_group_manifold()
    zero_mul, zero_add = _count_zero_terms(monkeypatch)
    morimoto_connection_235(morimoto_grading_235(m, sample_points=_default_samples(m)[:3]))
    assert zero_mul[0] < 50
    assert zero_add[0] < 50


def test_connection_prime_skips_zero_columns_of_the_projectors(monkeypatch):
    # Flat h_3(1, 1.6, 2.9): each eigenbundle projector has two non-zero
    # columns of six.  Looping over every column made 8,672 sums here, 8,610
    # of them ZERO; skipping the zero columns makes 2,564.
    m = models.carnot_group_manifold(lie.heisenberg((1, 1.6, 2.9)), structure_class="contact")
    cd = extract_contact_data(m)
    params = morimoto_grading_contact(cd)
    sums, zeros = [0], [0]

    def counted(terms, *summands):
        out = _sum_of_products(terms, *summands)
        sums[0] += 1
        zeros[0] += out is _ZERO
        return out

    monkeypatch.setattr(contact, "_sum_of_products", counted)
    monkeypatch.setattr(manifold, "_sum_of_products", counted)
    connection_prime(cd, params)
    assert sums[0] < 2800
    assert zeros[0] < 2600


# ---------------------------------------------------------------------------
# dense oracles of structure functions, Gauss-Jordan, taming metric, selector,
# the twist correction and the (2,3,5) frame components


def _oracle_structure_functions(m):
    """c[i][j][k] with the coframe row contracted over every coordinate."""
    n = m.dim
    finv = frame_inverse(m)
    c = [[[_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            br = bracket(m.frames[i], m.frames[j]).components
            for k in range(n):
                c[i][j][k] = _dense_sum((finv[k][a], br[a]) for a in range(n))
                c[j][i][k] = expr.neg(c[i][j][k])
    return c


def _oracle_gauss_jordan(rows, n):
    """Gauss-Jordan that scales every entry of the pivot row and rebuilds every
    entry of each reduced row."""
    rows = [list(row) for row in rows]
    for col in range(n):
        live = [r for r in range(col, n) if rows[r][col] is not _ZERO]
        consts = [r for r in live if isinstance(rows[r][col], (expr.Rat, expr.Flt))]
        pivot = (consts or live)[0]
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = expr.pow_(rows[col][col], -1)
        rows[col] = [expr.mul(inv, e) for e in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] is not _ZERO:
                f = rows[r][col]
                rows[r] = [expr.sub(e, expr.mul(f, p)) for e, p in zip(rows[r], rows[col])]
    return rows


def _oracle_inverse(matrix):
    size = len(matrix)
    rows = [list(matrix[r]) + [expr.rational(1 if c == r else 0) for c in range(size)] for r in range(size)]
    return [row[size:] for row in _oracle_gauss_jordan(rows, size)]


def _oracle_wedge_inverse(gmat, wedges):
    """The inverse Gram matrix of ``wedges``, with both products of every minor built."""
    return _oracle_inverse(
        [[expr.sub(expr.mul(gmat[a][c], gmat[b][d]), expr.mul(gmat[a][d], gmat[b][c])) for c, d in wedges]
         for a, b in wedges]
    )


def _oracle_taming_metric(g):
    """The taming metric with one inverse over all wedges of each degree."""
    n = g.dim
    c = g.structure_functions()
    gmat = [[_ZERO] * n for _ in range(n)]
    for i in g.layer_range(1):
        for j in g.layer_range(1):
            gmat[i][j] = g.frame.metric[i][j]
    for k in range(2, g.step + 1):
        wedges = [(a, b) for a in range(n) for b in range(a + 1, n) if g.degrees[a] + g.degrees[b] == k]
        winv = _oracle_wedge_inverse(gmat, wedges)
        rk = g.layer_range(k)
        ginv = [
            [
                _dense_sum(
                    (c[a][b][u], winv[i][j], c[aa][bb][v])
                    for i, (a, b) in enumerate(wedges)
                    for j, (aa, bb) in enumerate(wedges)
                )
                for v in rk
            ]
            for u in rk
        ]
        block = _oracle_inverse(ginv)
        for ui, u in enumerate(rk):
            for vi, v in enumerate(rk):
                gmat[u][v] = block[ui][vi]
    return gmat


def _oracle_selector(g):
    """Selector coefficients, solving each wedge class again under the oracle taming metric."""
    gmat = _oracle_taming_metric(g)
    c = g.structure_functions()
    coefficients = [[] for _ in range(g.dim)]
    for key, wedges in _wedge_classes(g).items():
        k = sum(key)
        if k > g.step:
            continue
        winv = _oracle_wedge_inverse(gmat, wedges)
        for t in g.layer_range(k):
            rhs = [_dense_sum((c[a][b][d], gmat[d][t]) for d in g.layer_range(k)) for a, b in wedges]
            for i, (a, b) in enumerate(wedges):
                coef = _dense_sum((winv[i][j], rhs[j]) for j in range(len(wedges)))
                if coef is not _ZERO:
                    coefficients[t].append((a, b, coef))
    return coefficients


def _oracle_double_prime(cd, params, prime):
    """Γ'' with every product of the J-derivative and of its contraction with J built."""
    g = params.grading
    nn, r = g.dim, cd.rank
    gam, jmat = prime.gamma, cd.jmat
    dj = [
        [
            [
                _dense_sum(
                    [
                        term
                        for c in range(r)
                        for term in (
                            (jmat[c][b], gam[i][c][kk]),
                            (expr.MINUS_ONE, expr.mul(gam[i][b][c], jmat[kk][c])),
                        )
                    ],
                    _oracle_apply(g.fields[i], jmat[kk][b]),
                )
                for kk in range(r)
            ]
            for b in range(r)
        ]
        for i in range(nn)
    ]
    return [
        [
            [
                _dense_sum([(_HALF, _dense_sum((jmat[b][j], dj[i][b][kk]) for b in range(r)))], gam[i][j][kk])
                if j < r and kk < r
                else gam[i][j][kk]
                for kk in range(nn)
            ]
            for j in range(nn)
        ]
        for i in range(nn)
    ]


def _flat_h3():
    return models.carnot_group_manifold(lie.heisenberg((1, 1.6, 2.9)), structure_class="contact")


def _conformal_h2():
    scale = expr.exp(expr.var("x1"))
    metric = [[scale if i == j else _ZERO for j in range(4)] for i in range(4)]
    return models.carnot_group_manifold(lie.heisenberg((1, 1)), metric=metric, structure_class="contact")


_CONTACT = {
    "flat-h3": _flat_h3,
    "conformal-h1": models.conformal_heisenberg_manifold,
    "conformal-h2": _conformal_h2,
}


def _step4_grading():
    """A step-4 grading whose degree-4 wedges fall in two classes, (1, 3) and (2, 2).

    The frame X1, X2, X3 | Y1, Y2 | Z | W on seven coordinates has the brackets
    [X1, X2] = Y1, [X1, X3] = Y2 - x4 W, [X1, Y1] = Z, [X1, Z] = [Y1, Y2] = W
    and [X2, Y2] = x1 W, so both classes bracket onto W.  The W components of
    [X1, X3] and [X2, Y2] leave the flag; neither the taming metric nor the
    selector reads them.  The horizontal metric is a constant non-diagonal
    float matrix.
    """
    x = expr.var("x1")
    half_sq = expr.mul(_HALF, x, x)
    e = [[expr.ONE if a == i else _ZERO for a in range(7)] for i in range(7)]
    e[1][3], e[1][5], e[1][6] = x, half_sq, expr.mul(expr.rational(1, 6), x, x, x)
    e[2][4] = x
    e[4][6] = expr.var("x4")
    e[3][5], e[3][6] = x, half_sq
    e[5][6] = x
    metric = [[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 1.5]]
    m = FramedManifold([f"x{i + 1}" for i in range(7)], e, 3, metric=metric)
    return Grading(m, (3, 2, 1, 1))


def _fresh_grading(name):
    """A grading on which no taming metric or selector has been solved yet."""
    if name in _CONTACT:
        return morimoto_grading_contact(extract_contact_data(_CONTACT[name]())).grading
    if name == "cartan":
        m = models.cartan_group_manifold()
        return morimoto_grading_235(m, sample_points=_default_samples(m)[:3])
    return _step4_grading()


def test_sparse_structure_functions_are_the_dense_nodes():
    charts = [build() for build in _CONTACT.values()]
    charts += [models.cartan_group_manifold(), models.perturbed_235_manifold(0.1)]
    # the orthonormal frame of a conformal chart, whose components hold exp(-x1/2)
    aux = extract_contact_data(models.conformal_heisenberg_manifold()).aux
    charts.append(FramedManifold(aux.coords, [f.components for f in aux.frames], aux.rank))
    charts.append(_step4_grading().frame)
    for m in charts:
        want = _oracle_structure_functions(m)
        assert _same_nodes(structure_functions(m), want)
    assert any(e is not _ZERO for plane in want for row in plane for e in row)


def test_sparse_gauss_jordan_is_the_dense_elimination():
    x, y = expr.var("x1"), expr.var("x2")
    mixed = [
        [x, _ZERO, expr.floatc(0.5), _ZERO],
        [_ZERO, expr.ONE, _ZERO, y],
        [expr.rational(2), _ZERO, expr.ONE, _ZERO],
        [_ZERO, expr.floatc(0.3), expr.mul(x, y), expr.ONE],
    ]
    matrices = [mixed]
    for m in [build() for build in _CONTACT.values()] + [models.cartan_group_manifold()]:
        n = m.dim
        matrices.append([[m.frames[i].components[a] for i in range(n)] for a in range(n)])
    for mat in matrices:
        n = len(mat)
        rows = [list(row) + [expr.ONE if b == a else _ZERO for b in range(n)] for a, row in enumerate(mat)]
        assert _same_nodes(_gauss_jordan([list(r) for r in rows], n), _oracle_gauss_jordan(rows, n))


@pytest.mark.parametrize("name", ["flat-h3", "conformal-h1", "conformal-h2", "cartan", "step-4"])
def test_taming_metric_and_selector_are_the_dense_nodes(name):
    g = _fresh_grading(name)
    want = _oracle_selector(g)
    assert _same_nodes(taming_metric(g), _oracle_taming_metric(g))
    got = selector(g).coefficients
    assert [[(a, b) for a, b, _ in row] for row in got] == [[(a, b) for a, b, _ in row] for row in want]
    coefs = [[[coef for _, _, coef in row] for row in rows] for rows in (got, want)]
    assert _same_nodes(*coefs)
    assert any(want)


def test_wedge_gram_inverse_is_solved_once_per_class(monkeypatch):
    # Each taming metric solves one inverse per layer above the first, and the
    # wedge classes' inverses once per grading; the selector, which builds the
    # taming metric too, reads them from the grading.  Solving every wedge
    # inverse at each use made 7 inverses here on flat h_3 and 22 on the
    # step-4 grading, whose degree-4 wedges were one inverse.
    solved = [0]
    inverse = connection._inverse

    def counted(matrix):
        solved[0] += 1
        return inverse(matrix)

    monkeypatch.setattr(connection, "_inverse", counted)
    for g in (_fresh_grading("flat-h3"), _step4_grading()):
        solved[0] = 0
        classes = [key for key in _wedge_classes(g) if sum(key) <= g.step]
        taming_metric(g)
        selector(g)
        taming_metric(g)
        assert solved[0] == len(classes) + 3 * (g.step - 1)
        assert sorted(g._wedge_inverses) == sorted(classes)
    assert len(classes) == 4  # (1, 1), (1, 2), (1, 3) and (2, 2)


@pytest.mark.parametrize("name", sorted(_CONTACT))
def test_sparse_double_prime_is_the_dense_correction(name):
    cd = extract_contact_data(_CONTACT[name]())
    params = morimoto_grading_contact(cd)
    prime = connection_prime(cd, params)
    got = connection_double_prime(cd, params, prime=prime).gamma
    assert _same_nodes(got, _oracle_double_prime(cd, params, prime))


def test_sparse_frame_components_are_the_dense_nodes():
    cartan = models.cartan_group_manifold()
    data = [intrinsic_frame_235(models.perturbed_235_manifold(0.1))]
    # Cartan's chart with its orthonormal frame rotated by x4/3
    e1, e2 = (frame_combination(cartan, cartan.frames[:2], row) for row in manifold._gram_schmidt_horizontal(cartan))
    phi = expr.mul(expr.rational(1, 3), expr.var("x4"))
    cs, sn = expr.cos(phi), expr.sin(phi)
    data.append(intrinsic_frame_235(cartan, e1.scaled(cs) + e2.scaled(sn), e2.scaled(cs) - e1.scaled(sn)))
    nonzero = 0
    for d in data:
        sinv = _inverse(d.srows)
        ctab = structure_functions(d.frame)
        vectors = list(d.srows)
        vectors += [frame_bracket(d.frame.frames, ctab, u, w) for u in d.srows for w in d.srows]
        vectors.append([expr.mul(expr.floatc(0.1 * (a + 1)), expr.var("x1")) for a in range(5)])
        for v in vectors:
            for k in range(5):
                want = _dense_sum((v[a], sinv[a][k]) for a in range(5))
                nonzero += want is not _ZERO
                assert _component(v, sinv, k) is want
    assert nonzero > 0


def _count_sums(monkeypatch):
    """Counters of the `_sum_of_products` calls, and of those returning ZERO, in every module."""
    sums, zeros = [0], [0]

    def counted(terms, *summands):
        out = _sum_of_products(terms, *summands)
        sums[0] += 1
        zeros[0] += out is _ZERO
        return out

    for module in (manifold, contact, connection, g235):
        monkeypatch.setattr(module, "_sum_of_products", counted)
    return sums, zeros


def test_contact_pipeline_makes_few_sums(monkeypatch):
    # Flat h_3(1, 1.6, 2.9), from the contact data through both checks.  The
    # dense loops made 8,304 sums here, 7,894 of them ZERO; the loops over
    # supports make 216, 24 of them ZERO.
    m = _flat_h3()
    pts = _default_samples(m, count=3)
    sums, zeros = _count_sums(monkeypatch)
    cd = extract_contact_data(m)
    conn = morimoto_connection_contact(cd, morimoto_grading_contact(cd))
    assert connection.check_morimoto(conn, pts).ok and connection.flatness_check(conn, pts).flat
    assert sums[0] <= 238
    assert zeros[0] <= 27


def test_235_pipeline_makes_few_sums(monkeypatch):
    # Cartan's chart at 3 points, from the canonical grading through both
    # checks.  The dense loops made 1,324 sums here, 1,046 of them ZERO; the
    # loops over supports made 342, 148 of them ZERO.  With every coefficient
    # inverse solved by `manifold._inverse` in place of the closed-form block
    # inverses it makes 293, 107 of them ZERO (most in the closed-form
    # corrections of `morimoto_grading_235`, which all vanish on this chart).
    m = models.cartan_group_manifold()
    pts = _default_samples(m)[:3]
    sums, zeros = _count_sums(monkeypatch)
    conn = morimoto_connection_235(morimoto_grading_235(m, sample_points=pts))
    assert connection.check_morimoto(conn, pts).ok and connection.flatness_check(conn, pts).flat
    assert sums[0] <= 322
    assert zeros[0] <= 118
