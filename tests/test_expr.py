import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from srgeom import expr
from srgeom.expr import (
    EvaluationError,
    ParseError,
    add,
    cos,
    differentiate,
    div,
    evaluate,
    exp,
    mul,
    parse,
    pow_,
    rational,
    simplify,
    sin,
    sqrt,
    sub,
    to_string,
    var,
)

X, Y, Z = var("x"), var("y"), var("z")


def test_parse_product_difference():
    e = parse("x*y - z^2", ["x", "y", "z"])
    assert evaluate(e, {"x": 1, "y": 2, "z": 3}) == -7.0


def test_parse_syntax_error_offset():
    with pytest.raises(ParseError) as err:
        parse("x +", ["x"])
    assert err.value.offset == 3


def test_parse_sin_half():
    e = parse("sin(x)/2", ["x"])
    assert evaluate(e, {"x": 0.0}) == 0.0
    assert evaluate(e, {"x": math.pi / 2}) == pytest.approx(0.5)


def test_parse_unknown_identifier():
    with pytest.raises(ParseError):
        parse("x + q", ["x"])


def test_parse_unknown_function():
    with pytest.raises(ParseError):
        parse("sinh(x)", ["x"])


def test_parse_non_integer_exponent():
    with pytest.raises(ParseError):
        parse("x^y", ["x", "y"])
    with pytest.raises(ParseError):
        parse("x^2.5", ["x"])
    with pytest.raises(ParseError):
        parse("x^(1/2)", ["x"])


def test_parse_rational_literal():
    e = parse("1/2", ["x"])
    assert isinstance(e, expr.Rat)
    assert evaluate(e, {"x": 0}) == 0.5


def test_parse_scientific_notation():
    e = parse("1e-3 + x", ["x"])
    assert evaluate(e, {"x": 0}) == pytest.approx(1e-3)


def test_differentiate_product_rule():
    assert differentiate(mul(X, Y), "x") is Y


def test_differentiate_sin_at_zero():
    d = differentiate(sin(X), "x")
    assert evaluate(d, {"x": 0.0}) == 1.0


def test_differentiate_absent_variable_is_zero():
    assert differentiate(mul(Y, Z), "x") is expr.ZERO


def _random_expr(rng, depth=0):
    r = rng.random()
    if depth > 3 or r < 0.25:
        choice = rng.random()
        if choice < 0.4:
            return var(rng.choice(["x", "y", "z"]))
        if choice < 0.7:
            return rational(rng.randint(-5, 5), rng.randint(1, 4))
        return expr.floatc(round(rng.uniform(-2, 2), 3))
    if r < 0.5:
        return add(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if r < 0.75:
        return mul(_random_expr(rng, depth + 1), _random_expr(rng, depth + 1))
    if r < 0.85:
        return pow_(_random_expr(rng, depth + 1), rng.randint(2, 3))
    inner = _random_expr(rng, depth + 1)
    return rng.choice([sin, cos, exp])(inner)


def _random_point(rng):
    return {c: rng.uniform(-1.5, 1.5) for c in ("x", "y", "z")}


def test_derivative_matches_finite_difference():
    rng = random.Random(7)
    h = 1e-5
    for _ in range(40):
        e = _random_expr(rng)
        d = differentiate(e, "x")
        p = _random_point(rng)
        plus = dict(p, x=p["x"] + h)
        minus = dict(p, x=p["x"] - h)
        fd = (evaluate(e, plus) - evaluate(e, minus)) / (2 * h)
        assert abs(evaluate(d, p) - fd) <= 1e-6 * (1 + abs(fd))


def test_round_trip_print_parse():
    rng = random.Random(11)
    for _ in range(100):
        e = _random_expr(rng)
        text = to_string(e)
        back = parse(text, ["x", "y", "z"])
        p = _random_point(rng)
        a, b = evaluate(e, p), evaluate(back, p)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_simplify_preserves_value():
    rng = random.Random(13)
    for _ in range(100):
        e = _random_expr(rng)
        s = simplify(e)
        p = _random_point(rng)
        a, b = evaluate(e, p), evaluate(s, p)
        assert abs(a - b) <= 1e-12 * (1 + abs(a))


def test_simplify_idempotent():
    rng = random.Random(17)
    for _ in range(100):
        e = _random_expr(rng)
        s = simplify(e)
        assert simplify(s) is s


def test_evaluate_rational_half():
    assert evaluate(rational(1, 2), {}) == 0.5


def test_evaluate_division_by_zero():
    e = div(X, Y)
    with pytest.raises(EvaluationError):
        evaluate(e, {"x": 1.0, "y": 0.0})


def test_evaluate_exp_zero_plus_one():
    assert evaluate(add(exp(expr.ZERO), expr.ONE), {}) == 2.0


def test_evaluate_missing_coordinate():
    with pytest.raises(EvaluationError):
        evaluate(X, {"y": 1.0})


def test_evaluate_sqrt_negative():
    with pytest.raises(EvaluationError):
        evaluate(sqrt(X), {"x": -1.0})


def test_rational_folding_exact():
    e = add(rational(1, 3), rational(1, 6))
    assert e is rational(1, 2)


def test_no_float_contamination_of_exact_subtree():
    # x/3 + x/6 collects exactly into x/2
    e = add(div(X, 3), div(X, 6))
    assert e is mul(rational(1, 2), X)


def test_hash_consing_identity():
    a = parse("x*y + sin(x)", ["x", "y"])
    b = parse("sin(x) + y*x", ["x", "y"])
    assert a is b


def test_differentiate_linearity():
    rng = random.Random(23)
    for _ in range(20):
        e1, e2 = _random_expr(rng), _random_expr(rng)
        c = rational(rng.randint(1, 5), rng.randint(1, 3))
        lhs = differentiate(add(mul(c, e1), e2), "y")
        rhs = add(mul(c, differentiate(e1, "y")), differentiate(e2, "y"))
        assert simplify(lhs) is simplify(rhs)


def test_construction_division_by_zero():
    with pytest.raises(EvaluationError):
        div(X, 0)


def test_sqrt_of_square_power():
    assert pow_(sqrt(X), 2) is X
    assert pow_(sqrt(X), 4) is pow_(X, 2)


def test_mul_merges_folded_sqrt_with_its_base():
    u = add(1, pow_(X, 2))
    assert mul(pow_(sqrt(u), -1), pow_(sqrt(u), -1), u) is expr.ONE


_SHARED_BASES = (X, add(1, pow_(X, 2)), add(Y, mul(X, Z)))
_OTHER_FACTORS = (Y, Z, rational(2, 3), sin(X), add(X, Y))


@st.composite
def _products_over_shared_bases(draw):
    factors = []
    for u in draw(st.lists(st.sampled_from(_SHARED_BASES), min_size=1, max_size=6)):
        if draw(st.booleans()):
            u = sqrt(u)
        factors.append(pow_(u, draw(st.integers(-3, 3))))
    factors += draw(st.lists(st.sampled_from(_OTHER_FACTORS), max_size=3))
    return mul(*draw(st.permutations(factors)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_products_over_shared_bases())
def test_constructor_output_is_simplify_fixed_point(e):
    assert simplify(e) is e


def test_pow_of_mul_distributes():
    e = pow_(mul(X, Y), 2)
    assert e is mul(pow_(X, 2), pow_(Y, 2))


def test_antisymmetric_cancellation():
    assert sub(mul(X, Y), mul(Y, X)) is expr.ZERO


def test_evaluate_array_matches_elementwise_evaluate():
    shared = add(mul(X, Y), sin(Z))
    table = [
        [(shared, mul(shared, shared)), (rational(3), X)],
        [(sub(shared, Y), cos(shared)), (pow_(shared, -1), mul(X, Z))],
    ]
    point = {"x": 0.3, "y": -1.2, "z": 0.7}
    out = expr.evaluate_array(table, point)
    assert out.shape == (2, 2, 2)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert out[i, j, k] == evaluate(table[i][j][k], point)



def _sin_cos_chain(depth):
    e = X
    for _ in range(depth):
        e = mul(sin(e), cos(e))
    return e


def test_interning_cost_follows_the_dag_not_the_tree():
    # Written out as a tree, the chain has about 2^48 nodes; as a DAG, about
    # 4 per level. Interning keyed on the children's identities stays linear.
    e = _sin_cos_chain(48)
    v = 0.3
    for _ in range(48):
        v = math.sin(v) * math.cos(v)
    assert evaluate(e, {"x": 0.3}) == v
    size = len(expr._POOL)
    assert _sin_cos_chain(48) is e
    assert len(expr._POOL) == size
