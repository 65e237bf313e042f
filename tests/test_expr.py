import math
import random
import string
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srgeom import expr
from srgeom.expr import (
    HALF,
    EvaluationError,
    ParseError,
    add,
    cos,
    differentiate,
    div,
    evaluate,
    exp,
    mul,
    neg,
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


@pytest.mark.parametrize("text", ["2²", "x^²", "²"])
def test_parse_refuses_numeric_characters_that_are_not_decimal_digits(text):
    # str.isdigit accepts "²", int does not
    with pytest.raises(ParseError):
        parse(text, ["x"])


@settings(max_examples=500, deadline=None, derandomize=True)
@given(st.text(alphabet=string.digits + string.ascii_letters + "_.+-*/^() \t\n²½é", max_size=24))
@example("sin(1e999)")  # math.sin of an infinity raises ValueError
def test_parse_returns_or_raises_an_expr_error(text):
    try:
        parse(text, ["x", "y", "é"])
    except expr.ExprError:
        pass


def test_parse_refuses_an_integer_literal_too_long_to_convert():
    # CPython converts at most 4,300 digits of a decimal string to an int
    for text, offset in (("1" * 4301, 0), ("x + " + "1" * 4301, 4), ("x^" + "1" * 4301, 2)):
        with pytest.raises(ParseError) as err:
            parse(text, ["x"])
        assert err.value.offset == offset
    assert parse("1" * 4300, ["x"]) is rational(int("1" * 4300))


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


@pytest.mark.parametrize("exact_first", [True, False], ids=["exact-first", "float-first"])
def test_memo_keeps_exact_and_float_constants_apart(exact_first):
    # 2 and 2.0 (and 1 and 1.0) are equal as raw arguments, so a memo keyed on
    # them would hand the second call the first one's node; keyed on the
    # coerced nodes Rat(2) and Flt(2.0), each call keeps its own kind
    x = var(f"memo_{exact_first}")
    order = [(2, expr.Rat), (2.0, expr.Flt)]
    for c, kind in order if exact_first else order[::-1]:
        coeff = mul(c, x).factors[0]
        assert type(coeff) is kind and coeff.value == 2
    order = [(1, expr.Rat), (1.0, expr.Flt)]
    for c, kind in order if exact_first else order[::-1]:
        (const,) = [t for t in add(c, x).terms if t is not x]
        assert type(const) is kind and const.value == 1


@pytest.mark.parametrize("valid_first", [True, False], ids=["valid-first", "invalid-first"])
def test_memo_keeps_refusing_exponents_that_are_not_integers(valid_first):
    # True == 1 and 2.0 == 2 as raw arguments; the exponent is checked
    # before any memo lookup
    x = var(f"memo_pow_{valid_first}")

    def valid():
        assert pow_(x, 1) is x
        assert pow_(x, 2) is expr.Pow(x, 2)

    def invalid():
        for k in (True, 2.0):
            with pytest.raises(expr.ExprError, match="exponent must be an integer"):
                pow_(x, k)

    for step in (valid, invalid) if valid_first else (invalid, valid):
        step()


def test_memo_returns_the_interned_node():
    a, b = var("memo_a"), var("memo_b")
    assert mul(a, b) is mul(a, b) is mul(b, a)
    assert add(a, b) is add(a, b) is add(b, a)


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


def test_construction_float_power_overflow():
    # folding a float constant raises the evaluator's error, not OverflowError
    with pytest.raises(EvaluationError, match="^overflow in power$"):
        pow_(mul(expr.floatc(1e200), X), 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: add(expr.floatc(math.inf), expr.floatc(-math.inf)),
        lambda: parse("1e999*0.0", ["x"]),
        lambda: add(mul(expr.floatc(math.inf), X), mul(expr.floatc(-math.inf), X)),
    ],
    ids=["inf-minus-inf", "inf-times-zero", "coefficients"],
)
def test_construction_refuses_a_nan_constant(build):
    # the evaluator refuses inf - inf at a point; folding refuses it too
    with pytest.raises(EvaluationError, match="NaN"):
        build()


@pytest.mark.parametrize("text", ["exp(1e999*x)", "exp(-1e999*x)", "x - 1e999", "1e999*x^2"])
def test_a_non_finite_float_prints_as_a_literal_that_parses_back(text):
    e = parse(text, ["x"])
    assert "inf" not in to_string(e)
    assert parse(to_string(e), ["x"]) is e


def test_printing_a_rational_too_long_to_convert_is_an_expr_error():
    # 2^20000 has 6,021 digits; CPython converts at most 4,300 to a string
    with pytest.raises(expr.ExprError, match="too long"):
        to_string(parse("2^20000", ["x"]))


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


_TERMS = _SHARED_BASES + _OTHER_FACTORS + (
    rational(-1, 2), expr.floatc(0.75), expr.floatc(0.0), pow_(X, -2), mul(rational(3), Y),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.lists(st.sampled_from(_TERMS), max_size=6),
    st.lists(st.integers(0, 6), max_size=4),
)
def test_zero_short_circuits(terms, zero_slots):
    with_zeros = list(terms)
    for slot in zero_slots:
        with_zeros.insert(min(slot, len(with_zeros)), expr.ZERO)
    assert mul(*with_zeros, expr.ZERO) is expr.ZERO
    if zero_slots:
        assert mul(*with_zeros) is expr.ZERO
    total = add(*with_zeros)
    assert total is add(*terms)
    assert simplify(total) is total
    product = mul(*terms)
    assert simplify(product) is product


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


# ---------------------------------------------------------------------------
# exponentials in normal form: one exp per product, exact exponent coefficients


def _normal_exponent(u):
    """``u`` as the constructors keep an exponent: exact coefficients, distributed over sums."""
    return exp(u).arg


_EXPONENTS = tuple(
    _normal_exponent(u)
    for u in (
        X,
        mul(expr.floatc(1.1), X),
        add(X, Y),
        add(mul(expr.floatc(0.7), X), mul(rational(-1, 3), Y), expr.floatc(0.25)),
        mul(X, Y),
        sin(Z),
    )
)


@pytest.mark.parametrize("u", _EXPONENTS, ids=["x", "float-x", "x+y", "sum", "x*y", "sin-z"])
def test_exponentials_combine_into_one_node(u):
    results = [mul(exp(u), exp(neg(u)))]
    assert results[0] is expr.ONE
    for v in _EXPONENTS:
        results.append(mul(exp(u), exp(v)))
        assert results[-1] is exp(add(u, v))
    for k in (-3, -1, 2, 3):
        results.append(pow_(exp(u), k))
        assert results[-1] is exp(mul(k, u))
    results.append(sqrt(exp(u)))
    assert results[-1] is exp(mul(HALF, u))
    # e^u·e^u and (e^u)² are one node, also when u is a sum
    assert mul(exp(u), exp(u)) is pow_(exp(u), 2)
    assert sqrt(pow_(exp(u), 2)) is exp(u)
    for e in results:
        assert simplify(e) is e
        assert parse(to_string(e), ["x", "y", "z"]) is e


def test_exponent_coefficients_are_exact():
    # Fraction(float) is exact, so exp(a·x) evaluates as math.exp(a * x)
    a = 1.1
    e = exp(mul(expr.floatc(a), X))
    assert e.arg is mul(rational(Fraction(a)), X)
    for x in (-0.9, -0.161, 0.3, 0.7):
        assert evaluate(e, {"x": x}) == math.exp(a * x)
    # a / 2 is not rounded twice, so e^{-a x / 2} meets itself
    half = pow_(sqrt(e), -1)
    assert add(mul(3, half), mul(-3, pow_(sqrt(pow_(e, 3)), -1), e)) is expr.ZERO
    # a constant in an exponent is exact too, and a float argument still folds
    assert exp(add(X, expr.floatc(0.5))).arg is add(X, HALF)
    assert exp(expr.floatc(0.5)) is expr.floatc(math.exp(0.5))


def test_a_non_finite_exponent_coefficient_stays_a_float():
    # Fraction(inf) raises OverflowError; the coefficient is kept as it is
    assert parse("exp(1e999*x)", ["x"]).arg is mul(expr.floatc(math.inf), X)
    for text in ("exp(1e999*x)*exp(-1e999*x)", "sqrt(exp(1e999*x))", "exp(x + 1e999)"):
        try:
            parse(text, ["x"])
        except expr.ExprError:
            pass


_COEFFICIENTS = st.sampled_from([rational(1, 3), rational(-2), expr.floatc(0.7), expr.floatc(-1.3)])
_MONOMIALS = st.sampled_from([X, Y, mul(X, Y), sin(Z), pow_(X, 2)])


@st.composite
def _exponents(draw):
    terms = [mul(c, t) for c, t in draw(st.lists(st.tuples(_COEFFICIENTS, _MONOMIALS), max_size=3))]
    if draw(st.booleans()):
        terms.append(draw(_COEFFICIENTS))
    return add(*terms)


_SAMPLE = st.fixed_dictionaries({c: st.floats(-1, 1) for c in "xyz"})


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_exponents(), _exponents(), st.integers(-3, 3), _SAMPLE)
def test_normalized_exponentials_keep_their_value(u, v, k, point):
    # each rule's node against the expression it rewrites, evaluated piece by piece
    eu, ev = math.exp(evaluate(u, point)), math.exp(evaluate(v, point))
    for e, want in (
        (mul(exp(u), exp(v), Y), eu * ev * point["y"]),
        (pow_(exp(u), k), eu ** k),
        (sqrt(exp(u)), math.sqrt(eu)),
        (mul(exp(u), pow_(exp(v), k), pow_(sqrt(exp(u)), -1)), eu * ev ** k / math.sqrt(eu)),
    ):
        assert simplify(e) is e
        got = evaluate(e, point)
        assert abs(got - want) <= 1e-12 * abs(want)
