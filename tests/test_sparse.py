"""The symbolic construction builds only its non-zero terms.

The sparse loops of ``VectorField.apply``, ``frame_bracket``,
``Connection.curvature_rows`` and ``manifold._matmul`` run over the supports
of their operands; the dense loops they replaced are kept here as oracles,
and both must return the same interned nodes.  Volume guards count the
constructor calls the contact and (2,3,5) pipelines spend on structurally
zero terms.
"""

import pytest
from test_pointwise import CHARTS

from srgeom import expr, lie, models
from srgeom.contact import (
    connection_double_prime,
    connection_prime,
    extract_contact_data,
    morimoto_connection_contact,
    morimoto_grading_contact,
)
from srgeom.g235 import morimoto_connection_235, morimoto_grading_235
from srgeom.manifold import _default_samples, _matmul, frame_bracket

_ZERO = expr.ZERO


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
