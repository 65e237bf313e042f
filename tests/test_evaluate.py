"""The batched evaluator against a scalar per-point reference, and its
gradients against the evaluated symbolic derivatives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgeom import expr, models
from srgeom.contact import (
    extract_contact_data,
    morimoto_connection_contact,
    morimoto_grading_contact,
)
from srgeom.expr import EvaluationError, ExprError
from srgeom.lie import heisenberg
from srgeom.manifold import _default_samples

X, Y, Z, W = expr.var("x"), expr.var("y"), expr.var("z"), expr.var("w")


def _reference(e, point, cache):
    """One expression at one point: fsum for sums, left-to-right products.

    fsum's overflow and its inf + -inf are :class:`EvaluationError`, as in
    the evaluator.
    """
    key = id(e)
    if key in cache:
        return cache[key]
    if isinstance(e, expr.Rat):
        v = float(e.value)
    elif isinstance(e, expr.Flt):
        v = e.value
    elif isinstance(e, expr.Var):
        try:
            v = float(point[e.name])
        except KeyError:
            raise EvaluationError(f"missing coordinate {e.name!r}") from None
    elif isinstance(e, expr.Add):
        terms = [_reference(t, point, cache) for t in e.terms]
        try:
            v = math.fsum(terms)
        except OverflowError as exc:
            raise EvaluationError("overflow in sum") from exc
        except ValueError as exc:
            raise EvaluationError("inf - inf in sum") from exc
    elif isinstance(e, expr.Mul):
        v = 1.0
        for f in e.factors:
            v *= _reference(f, point, cache)
    elif isinstance(e, expr.Pow):
        b = _reference(e.base, point, cache)
        if e.exponent < 0 and b == 0.0:
            raise EvaluationError("division by zero")
        try:
            v = b ** e.exponent
        except OverflowError as exc:
            raise EvaluationError("overflow in power") from exc
    else:
        v = expr._apply_fn(e.name, _reference(e.arg, point, cache))
    cache[key] = v
    return v


def _reference_table(table, point):
    cache = {}

    def walk(t):
        if isinstance(t, (list, tuple)):
            return [walk(x) for x in t]
        return _reference(expr._coerce(t), point, cache)

    return np.array(walk(table), dtype=float)


def _assert_bitwise(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def _dags(draw):
    """Several expressions over x, y, z built from shared subexpressions."""
    nodes = [X, Y, Z]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(["add", "mul", "pow", "fn", "flt"]))
        args = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3))
        try:
            if kind == "add":
                e = expr.add(*args)
            elif kind == "mul":
                e = expr.mul(*args)
            elif kind == "pow":
                e = expr.pow_(args[0], draw(st.sampled_from([-2, -1, 2, 3])))
            elif kind == "fn":
                e = expr.fn(draw(st.sampled_from(expr.FUNCTIONS)), args[0])
            else:
                c = draw(st.floats(-3, 3, allow_nan=False, allow_infinity=False))
                e = expr.add(expr.mul(expr.floatc(c), args[0]), *args[1:])
        except EvaluationError:
            continue
        nodes.append(e)
    return nodes


# Most examples should compare values, so most coordinate values are positive
# and away from 0.  0.0 and the negative values keep the error paths (x⁻¹,
# log, sqrt) covered; they come last because Hypothesis draws the first
# elements of ``sampled_from`` more often.
_POINTS = st.lists(
    st.fixed_dictionaries(
        {
            c: st.sampled_from(
                [1.0, 0.5, 2.0, 0.25, 0.75, 1.5, 3.0, 0.1, 1.25, 2.5, 1e-3, -0.3, -1.0, 0.0]
            )
            for c in "xyz"
        }
    ),
    min_size=1,
    max_size=5,
)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_dags(), _POINTS)
def test_batch_equals_scalar_reference_bitwise(nodes, points):
    table = [nodes, list(reversed(nodes))]
    errors = []
    want = []
    for p in points:
        try:
            want.append(_reference_table(table, p))
        except EvaluationError as exc:
            errors.append((type(exc), str(exc)))
    if errors:
        # a failing point fails the batch, with one of the per-point errors
        with pytest.raises(EvaluationError) as info:
            expr.evaluate_tables([table], points)
        assert (info.type, str(info.value)) in errors
        return
    (got,) = expr.evaluate_tables([table], points)
    _assert_bitwise(got, np.array(want))
    for x, p in enumerate(points):
        _assert_bitwise(expr.evaluate_array(table, p), want[x])


_FAILING = [
    ("missing coordinate 'y'", X * Y, {"x": 1.0}),
    ("division by zero", expr.pow_(X, -1), {"x": 0.0}),
    ("sqrt of negative argument", expr.sqrt(X), {"x": -1.0}),
    ("log of non-positive argument", expr.log(X), {"x": 0.0}),
    ("overflow in exp", expr.exp(X), {"x": 1000.0}),
    ("overflow in power", expr.pow_(X, 3), {"x": 1e200}),
    ("overflow in sum", X + Y, {"x": 1e308, "y": 1e308}),
    ("inf - inf in sum", X + Y, {"x": math.inf, "y": -math.inf}),
]


@pytest.mark.parametrize("message, e, bad", _FAILING, ids=[m for m, _, _ in _FAILING])
def test_one_failing_point_fails_the_batch(message, e, bad):
    good = {"x": 0.5, "y": 2.0}
    for at in range(3):
        points = [good, good, good]
        points[at] = bad
        with pytest.raises(EvaluationError) as info:
            expr.evaluate_tables([[e, X]], points)
        assert str(info.value) == message
    assert expr.evaluate_tables([[e]], [good, good])[0].shape == (2, 1)


def test_tables_keep_their_shape_with_the_point_axis_first():
    points = [{"x": 0.5}, {"x": 2.0}]
    scalar, empty, table = expr.evaluate_tables([X, [], [[X, 0], [1, X * X]]], points)
    assert scalar.tolist() == [0.5, 2.0]
    assert empty.shape == (2, 0)
    assert table.tolist() == [[[0.5, 0.0], [1.0, 0.25]], [[2.0, 0.0], [1.0, 4.0]]]
    with pytest.raises(ExprError):
        expr.evaluate_tables([[[X], [X, X]]], points)


def _derivatives(table, c):
    """The symbolic derivative of every entry of a nested table along ``c``."""
    if isinstance(table, (list, tuple)):
        return [_derivatives(t, c) for t in table]
    return expr.differentiate(expr._coerce(table), c)


# The evaluator's gradient and the evaluated symbolic derivative round
# differently (one is a sum of per-point products, the other a simplified
# expression), so they are compared within this relative tolerance, relative
# to the size of the reference entry and at least 1.
GRADIENT_RTOL = 1e-12


def _assert_gradient_close(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.isfinite(got), np.isfinite(want))
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    scale = np.maximum(1.0, np.abs(want[finite]))
    assert (np.abs(got[finite] - want[finite]) <= GRADIENT_RTOL * scale).all()


def _symbolic_gradients(nodes, points):
    """Per point, [coordinate][node] values of the symbolic derivatives, or the errors."""
    want, errors = [], []
    for p in points:
        try:
            want.append(_reference_table([_derivatives(nodes, c) for c in "xyz"], p))
        except EvaluationError as exc:
            errors.append((type(exc), str(exc)))
    return want, errors


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_dags(), _POINTS)
def test_gradient_equals_evaluated_symbolic_derivative(nodes, points):
    try:
        expr.evaluate_tables([nodes], points)
    except EvaluationError:
        return  # the values fail first; the property above covers them
    want, errors = _symbolic_gradients(nodes, points)
    if errors:
        # the gradient fails where the symbolic derivative fails, with its error
        with pytest.raises(EvaluationError) as info:
            expr.evaluate_tables([nodes], points, "xyz", (0,))
        assert (info.type, str(info.value)) in errors
        return
    _, grads = expr.evaluate_tables([nodes], points, "xyz", (0,))
    assert grads.shape == (len(points), 3, len(nodes))
    _assert_gradient_close(grads, np.array(want))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_dags(), _POINTS)
def test_gradient_of_a_point_does_not_depend_on_the_batch(nodes, points):
    table = [nodes, list(reversed(nodes))]
    try:
        _, batch = expr.evaluate_tables([table], points, "xyz", (0,))
    except EvaluationError:
        return
    for x, p in enumerate(points):
        _, alone = expr.evaluate_tables([table], [p], "xyz", (0,))
        _assert_bitwise(batch[x], alone[0])


_FAILING_DERIVATIVES = [
    # the values evaluate; only the derivative fails
    ("division by zero", expr.sqrt(X), {"x": 0.0}),
    ("overflow in power", expr.pow_(X, -1), {"x": 1e-160}),
    # the sums of the derivative along x, y + z and y·z - y·w
    ("overflow in sum", X * Y + X * Z, {"x": 1e-300, "y": 1e308, "z": 1e308, "w": 1.0}),
    ("inf - inf in sum", X * Y * Z - X * Y * W, {"x": 1e-300, "y": 1e300, "z": 1e300, "w": 1e300}),
]


@pytest.mark.parametrize(
    "message, e, bad", _FAILING_DERIVATIVES, ids=[m for m, _, _ in _FAILING_DERIVATIVES]
)
def test_gradient_fails_where_the_symbolic_derivative_fails(message, e, bad):
    with pytest.raises(EvaluationError) as info:
        expr.evaluate(expr.differentiate(e, "x"), bad)
    assert str(info.value) == message
    good = {"x": 0.5, "y": 2.0, "z": 1.5, "w": 0.5}
    for at in range(3):
        points = [good, good, good]
        points[at] = bad
        # without a gradient request the same batch evaluates
        (values,) = expr.evaluate_tables([[e, X]], points)
        assert np.isfinite(values).all()
        with pytest.raises(EvaluationError) as info:
            expr.evaluate_tables([[e, X]], points, "x", (0,))
        assert str(info.value) == message


def test_gradient_layout_is_point_then_coordinate_then_table():
    points = [{"x": 0.5, "y": 2.0}, {"x": -1.0, "y": 3.0}]
    _, grad = expr.evaluate_tables([[X * X, 3]], points, ("y", "x"), (0,))
    # along y: nothing depends on it; along x: 2x and 0
    assert grad.tolist() == [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [-2.0, 0.0]]]
    # a coordinate that is not named gets no axis; a table that depends on
    # no named coordinate has a read-only zero gradient
    _, grad = expr.evaluate_tables([Y], points, ("x",), (0,))
    assert grad.tolist() == [[0.0], [0.0]]
    assert not grad.flags.writeable


def _conformal_h2():
    scale = expr.exp(expr.var("x1"))
    metric = [[scale if i == j else expr.ZERO for j in range(4)] for i in range(4)]
    return models.carnot_group_manifold(
        heisenberg((1, 1)), metric=metric, structure_class="contact"
    )


def _flat_h3():
    return models.carnot_group_manifold(heisenberg((1, 1.6, 2.9)), structure_class="contact")


@pytest.mark.parametrize("build", [_conformal_h2, _flat_h3], ids=["conformal-h2", "flat-h3"])
def test_connection_tables_batch_equals_scalar_reference(build):
    m = build()
    cd = extract_contact_data(m)
    conn = morimoto_connection_contact(cd, morimoto_grading_contact(cd))
    g = conn.grading
    tables = [conn.gamma, g.structure_functions(), g.t_zero_tensor(), g.frame_rows]
    points = _default_samples(m, count=4, seed=3)
    coords = g.frame.coords
    batch = expr.evaluate_tables(tables, points, coords, (0, 2))
    for table, got in zip(tables, batch):
        for x, p in enumerate(points):
            _assert_bitwise(got[x], _reference_table(table, p))
    # the gradients of Γ and T₀ against their evaluated symbolic derivatives
    for table, got in zip((conn.gamma, g.t_zero_tensor()), batch[len(tables):]):
        derivatives = [_derivatives(table, c) for c in coords]
        for x, p in enumerate(points):
            _assert_gradient_close(got[x], _reference_table(derivatives, p))
