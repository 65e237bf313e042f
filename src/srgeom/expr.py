"""Expression DSL: parsing, exact differentiation, numeric evaluation.

Scalar functions of named chart coordinates. Nodes are immutable and
hash-consed: structurally equal expressions are the same object, so identity
comparison, per-point evaluation caches, and derivative memoization are all
cheap. The pool key of a node is its tag plus its atoms or its child nodes,
which hash by their cached hash and compare by identity. Each node also
carries ``skey``, its structure as nested tuples, which is used only as the
sort key for the canonical order of terms and factors. Smart constructors
normalize on the way in (constant folding, 0/1 identities, flattening,
collection of like terms and like powers), which keeps the bracket/curvature
pipelines from drowning in redundant subtrees.

Invariant: every node the constructors return is already in normal form, i.e.
``simplify(e) is e``. Callers never need to re-normalize a result.

Exact rationals stay exact until a float literal or a transcendental forces a
float; all verdict-level work downstream is numeric at sample points.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


class ExprError(Exception):
    """Base class for expression errors."""


class ParseError(ExprError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class EvaluationError(ExprError):
    pass


_POOL: dict = {}


def _node(cls, key: tuple, *fields) -> "Expr":
    """The one interned node of class ``cls`` with pool key ``key``.

    ``key`` is the tag followed by atoms or child nodes. Children hash by
    their cached ``_hash`` and compare by identity, so a lookup costs the
    node's arity, not the size of its tree. ``fields`` fill the class's
    ``__slots__`` in order. The order key ``skey`` replaces each child by the
    child's ``skey``; it only sorts terms and factors and is never hashed.
    """
    hit = _POOL.get(key)
    if hit is not None:
        return hit
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        setattr(node, name, value)
    node.skey = tuple(c.skey if isinstance(c, Expr) else c for c in key)
    node._hash = hash(key)
    _POOL[key] = node
    return node


class Expr:
    __slots__ = ("skey", "_hash")

    def __hash__(self):
        return self._hash

    # Interned: structural equality is identity.
    def __eq__(self, other):
        return self is other

    def __ne__(self, other):
        return self is not other

    def __str__(self):
        return to_string(self)

    def __repr__(self):
        return f"Expr({to_string(self)})"

    # Arithmetic sugar so geometry code reads naturally.
    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __pow__(self, k):
        return pow_(self, k)


class Rat(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: Fraction):
        return _node(cls, (0, value.numerator, value.denominator), value)


class Flt(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        return _node(cls, (1, repr(float(value))), float(value))


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        return _node(cls, (2, name), name)


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        return _node(cls, (3,) + terms, terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        return _node(cls, (4,) + factors, factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        return _node(cls, (5, base, exponent), base, exponent)


FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "tan")


class Fn(Expr):
    __slots__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expr):
        return _node(cls, (6, name, arg), name, arg)


ZERO = Rat(Fraction(0))
ONE = Rat(Fraction(1))
MINUS_ONE = Rat(Fraction(-1))
HALF = Rat(Fraction(1, 2))


def rational(num, den=1) -> Expr:
    return Rat(Fraction(num, den))


def floatc(x: float) -> Expr:
    return Flt(x)


def var(name: str) -> Expr:
    return Var(name)


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, bool):
        raise ExprError("booleans are not expressions")
    if isinstance(x, int):
        return Rat(Fraction(x))
    if isinstance(x, Fraction):
        return Rat(x)
    if isinstance(x, float):
        return Flt(x)
    raise ExprError(f"cannot coerce {x!r} to Expr")


def _is_const(e: Expr) -> bool:
    return isinstance(e, (Rat, Flt))


def add(*terms) -> Expr:
    """n-ary sum with flattening, exact constant folding, like-term collection."""
    rat_part = Fraction(0)
    flt_part = 0.0
    has_flt = False
    by_core: dict = {}
    order: list = []

    def absorb(e: Expr):
        nonlocal rat_part, flt_part, has_flt
        if isinstance(e, Add):
            for t in e.terms:
                absorb(t)
            return
        if isinstance(e, Rat):
            rat_part += e.value
            return
        if isinstance(e, Flt):
            flt_part += e.value
            has_flt = True
            return
        coeff, core = _split_coeff(e)
        if core in by_core:
            by_core[core] = _num_add(by_core[core], coeff)
        else:
            by_core[core] = coeff
            order.append(core)

    for t in terms:
        absorb(_coerce(t))

    out = []
    for core in order:
        coeff = by_core[core]
        if coeff == 0:
            continue
        out.append(_scale(core, coeff))
    const: Expr | None = None
    if has_flt:
        total = flt_part + float(rat_part)
        if total != 0.0:
            const = Flt(total)
    elif rat_part != 0:
        const = Rat(rat_part)
    if const is not None:
        out.append(const)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=lambda e: e.skey)
    return Add(tuple(out))


def _num_add(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _split_coeff(e: Expr):
    """Write a non-constant term as (numeric coefficient, core expression)."""
    if isinstance(e, Mul):
        f0 = e.factors[0]
        if _is_const(f0):
            rest = e.factors[1:]
            core = rest[0] if len(rest) == 1 else Mul(rest)
            return f0.value, core
    return Fraction(1), e


def _scale(core: Expr, coeff) -> Expr:
    if coeff == 1:
        return core
    c = Rat(coeff) if isinstance(coeff, Fraction) else Flt(coeff)
    if isinstance(core, Mul):
        return Mul((c,) + core.factors)
    return Mul((c, core))


def mul(*factors) -> Expr:
    """n-ary product with flattening, constant folding, like-power collection."""
    rat_part = Fraction(1)
    flt_part = 1.0
    has_flt = False
    by_base: dict = {}
    order: list = []

    def absorb(e: Expr):
        nonlocal rat_part, flt_part, has_flt
        if isinstance(e, Mul):
            for f in e.factors:
                absorb(f)
            return
        if isinstance(e, Rat):
            rat_part *= e.value
            return
        if isinstance(e, Flt):
            flt_part *= e.value
            has_flt = True
            return
        if isinstance(e, Pow):
            base, k = e.base, e.exponent
        else:
            base, k = e, 1
        if base in by_base:
            by_base[base] += k
        else:
            by_base[base] = k
            order.append(base)

    for f in factors:
        absorb(_coerce(f))

    if rat_part == 0:
        return ZERO
    if has_flt and flt_part == 0.0:
        return ZERO

    out = []
    folded = []
    for base in order:
        k = by_base[base]
        p = pow_(base, k)
        if p is ONE:
            continue
        if _is_const(p):
            # sqrt(c)^(2j) folds to a constant
            absorb(p)
            continue
        if p is base or (isinstance(p, Pow) and p.base is base):
            out.append(p)
        else:
            # sqrt(u)^(2j) became u^j, which may share its base with other
            # factors: it goes back through mul below
            folded.append(p)

    const: Expr | None = None
    if has_flt:
        total = flt_part * float(rat_part)
        if total == 0.0:
            return ZERO
        if total != 1.0:
            const = Flt(total)
    elif rat_part != 1:
        const = Rat(rat_part)

    if folded:
        return mul(*([] if const is None else [const]), *out, *folded)
    if not out:
        return const if const is not None else ONE
    out.sort(key=lambda e: e.skey)
    if const is not None:
        out.insert(0, const)
    if len(out) == 1:
        return out[0]
    return Mul(tuple(out))


def pow_(base, exponent: int) -> Expr:
    base = _coerce(base)
    if not isinstance(exponent, int) or isinstance(exponent, bool):
        raise ExprError("exponent must be an integer")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if isinstance(base, Rat):
        if base.value == 0 and exponent < 0:
            raise EvaluationError("division by zero (0 raised to negative power)")
        return Rat(base.value ** exponent)
    if isinstance(base, Flt):
        if base.value == 0.0 and exponent < 0:
            raise EvaluationError("division by zero (0.0 raised to negative power)")
        return Flt(base.value ** exponent)
    if isinstance(base, Mul):
        return mul(*[pow_(f, exponent) for f in base.factors])
    if isinstance(base, Pow):
        return pow_(base.base, base.exponent * exponent)
    if isinstance(base, Fn) and base.name == "sqrt" and exponent % 2 == 0:
        # valid on the sqrt domain (argument nonnegative)
        return pow_(base.arg, exponent // 2)
    return Pow(base, exponent)


def neg(e) -> Expr:
    return mul(MINUS_ONE, _coerce(e))


def sub(a, b) -> Expr:
    return add(_coerce(a), neg(b))


def div(a, b) -> Expr:
    b = _coerce(b)
    if _is_const(b) and b.value == 0:
        raise EvaluationError("division by zero")
    return mul(_coerce(a), pow_(b, -1))


def _sqrt_fraction(q: Fraction):
    num = math.isqrt(q.numerator)
    den = math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def fn(name: str, arg) -> Expr:
    arg = _coerce(arg)
    if name not in FUNCTIONS:
        raise ExprError(f"unknown function {name!r}")
    if isinstance(arg, Flt):
        return Flt(_apply_fn(name, arg.value))
    if isinstance(arg, Rat):
        q = arg.value
        if name == "sqrt":
            if q < 0:
                raise EvaluationError("sqrt of negative argument")
            r = _sqrt_fraction(q)
            if r is not None:
                return Rat(r)
        elif name == "exp":
            if q == 0:
                return ONE
        elif name == "log":
            if q <= 0:
                raise EvaluationError("log of non-positive argument")
            if q == 1:
                return ZERO
        elif name == "sin" or name == "tan":
            if q == 0:
                return ZERO
        elif name == "cos":
            if q == 0:
                return ONE
    return Fn(name, arg)


def sqrt(e) -> Expr:
    return fn("sqrt", e)


def exp(e) -> Expr:
    return fn("exp", e)


def log(e) -> Expr:
    return fn("log", e)


def sin(e) -> Expr:
    return fn("sin", e)


def cos(e) -> Expr:
    return fn("cos", e)


def tan(e) -> Expr:
    return fn("tan", e)


def _apply_fn(name: str, x: float) -> float:
    try:
        if name == "sqrt":
            if x < 0:
                raise EvaluationError("sqrt of negative argument")
            return math.sqrt(x)
        if name == "exp":
            return math.exp(x)
        if name == "log":
            if x <= 0:
                raise EvaluationError("log of non-positive argument")
            return math.log(x)
        if name == "sin":
            return math.sin(x)
        if name == "cos":
            return math.cos(x)
        if name == "tan":
            return math.tan(x)
    except OverflowError as exc:
        raise EvaluationError(f"overflow in {name}") from exc
    raise ExprError(f"unknown function {name!r}")


def simplify(e: Expr) -> Expr:
    """Re-normalize bottom-up through the smart constructors (idempotent).

    Every constructor output is a fixed point, so this returns its input for
    any expression built through this module; it is kept as the reference
    the tests check the constructors against.
    """
    if isinstance(e, (Rat, Flt, Var)):
        return e
    if isinstance(e, Add):
        return add(*[simplify(t) for t in e.terms])
    if isinstance(e, Mul):
        return mul(*[simplify(f) for f in e.factors])
    if isinstance(e, Pow):
        return pow_(simplify(e.base), e.exponent)
    if isinstance(e, Fn):
        return fn(e.name, simplify(e.arg))
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# evaluation


def evaluate(e: Expr, point: dict) -> float:
    return _eval(e, point, {})


def evaluate_array(table, point: dict) -> np.ndarray:
    """Evaluate a nested table (lists or tuples) of expressions to an ndarray.

    All entries share one per-point cache, so subexpressions common to
    several entries are evaluated once.
    """
    cache: dict = {}

    def walk(t):
        if isinstance(t, (list, tuple)):
            return [walk(x) for x in t]
        return _eval(_coerce(t), point, cache)

    return np.array(walk(table), dtype=float)


def _eval(e: Expr, point: dict, cache: dict) -> float:
    key = id(e)
    hit = cache.get(key)
    if hit is not None:
        return hit
    if isinstance(e, Rat):
        v = float(e.value)
    elif isinstance(e, Flt):
        v = e.value
    elif isinstance(e, Var):
        try:
            v = float(point[e.name])
        except KeyError:
            raise EvaluationError(f"missing coordinate {e.name!r}") from None
    elif isinstance(e, Add):
        v = math.fsum(_eval(t, point, cache) for t in e.terms)
    elif isinstance(e, Mul):
        v = 1.0
        for f in e.factors:
            v *= _eval(f, point, cache)
    elif isinstance(e, Pow):
        b = _eval(e.base, point, cache)
        if e.exponent < 0 and b == 0.0:
            raise EvaluationError("division by zero")
        try:
            v = b ** e.exponent
        except OverflowError as exc:
            raise EvaluationError("overflow in power") from exc
    elif isinstance(e, Fn):
        v = _apply_fn(e.name, _eval(e.arg, point, cache))
    else:
        raise ExprError(f"unknown node {e!r}")
    cache[key] = v
    return v


# ---------------------------------------------------------------------------
# differentiation

_DIFF_CACHE: dict = {}


def differentiate(e: Expr, v: str) -> Expr:
    if not isinstance(v, str):
        raise ExprError("differentiation variable must be a coordinate name")
    key = (id(e), v)
    hit = _DIFF_CACHE.get(key)
    if hit is not None:
        return hit
    d = _diff(e, v)
    _DIFF_CACHE[key] = d
    return d


def _diff(e: Expr, v: str) -> Expr:
    if isinstance(e, (Rat, Flt)):
        return ZERO
    if isinstance(e, Var):
        return ONE if e.name == v else ZERO
    if isinstance(e, Add):
        return add(*[differentiate(t, v) for t in e.terms])
    if isinstance(e, Mul):
        parts = []
        fs = e.factors
        for i, f in enumerate(fs):
            df = differentiate(f, v)
            if df is ZERO:
                continue
            parts.append(mul(df, *fs[:i], *fs[i + 1:]))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = differentiate(e.base, v)
        if db is ZERO:
            return ZERO
        return mul(rational(e.exponent), pow_(e.base, e.exponent - 1), db)
    if isinstance(e, Fn):
        da = differentiate(e.arg, v)
        if da is ZERO:
            return ZERO
        u = e.arg
        name = e.name
        if name == "sqrt":
            outer = div(HALF, fn("sqrt", u))
        elif name == "exp":
            outer = fn("exp", u)
        elif name == "log":
            outer = pow_(u, -1)
        elif name == "sin":
            outer = fn("cos", u)
        elif name == "cos":
            outer = neg(fn("sin", u))
        elif name == "tan":
            outer = add(ONE, pow_(fn("tan", u), 2))
        else:
            raise ExprError(f"unknown function {name!r}")
        return mul(outer, da)
    raise ExprError(f"unknown node {e!r}")


def variables(e: Expr) -> set:
    """Set of coordinate names occurring in e."""
    out: set = set()
    stack = [e]
    seen: set = set()
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        if isinstance(n, Var):
            out.add(n.name)
        elif isinstance(n, Add):
            stack.extend(n.terms)
        elif isinstance(n, Mul):
            stack.extend(n.factors)
        elif isinstance(n, Pow):
            stack.append(n.base)
        elif isinstance(n, Fn):
            stack.append(n.arg)
    return out


# ---------------------------------------------------------------------------
# printing (the printed form re-parses)


def to_string(e: Expr) -> str:
    return _print(e, 0)


# precedence levels: 0 sum, 1 product, 2 unary/power operand, 3 atom
def _print(e: Expr, ctx: int) -> str:
    if isinstance(e, Rat):
        q = e.value
        s = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        need = ctx >= 1 and (q < 0 or q.denominator != 1)
        return f"({s})" if need else s
    if isinstance(e, Flt):
        s = repr(e.value)
        return f"({s})" if (ctx >= 1 and e.value < 0) else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Add):
        parts = []
        for i, t in enumerate(e.terms):
            s = _print(t, 0)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(" - " + s[1:])
            else:
                parts.append(" + " + s)
        s = "".join(parts)
        return f"({s})" if ctx >= 1 else s
    if isinstance(e, Mul):
        s = "*".join(_print(f, 1) for f in e.factors)
        # a leading negative constant keeps the '-' outside at sum level
        return f"({s})" if ctx >= 2 else s
    if isinstance(e, Pow):
        b = _print(e.base, 3)
        k = e.exponent
        return f"{b}^{k}" if k >= 0 else f"{b}^({k})"
    if isinstance(e, Fn):
        return f"{e.name}({_print(e.arg, 0)})"
    raise ExprError(f"unknown node {e!r}")


# ---------------------------------------------------------------------------
# parsing


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list = []
        self._scan()
        self.idx = 0

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            c = text[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                is_float = False
                if j < n and text[j] == ".":
                    is_float = True
                    j += 1
                    while j < n and text[j].isdigit():
                        j += 1
                if j < n and text[j] in "eE":
                    k = j + 1
                    if k < n and text[k] in "+-":
                        k += 1
                    if k < n and text[k].isdigit():
                        is_float = True
                        j = k
                        while j < n and text[j].isdigit():
                            j += 1
                self.tokens.append(("num", text[i:j], i, is_float))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                self.tokens.append(("ident", text[i:j], i, None))
                i = j
                continue
            if c in "+-*/^()":
                self.tokens.append((c, c, i, None))
                i += 1
                continue
            raise ParseError(f"unexpected character {c!r}", i)
        self.tokens.append(("end", "", n, None))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        t = self.tokens[self.idx]
        self.idx += 1
        return t


def parse(text: str, coords) -> Expr:
    """Parse an expression over the given coordinate names."""
    coords = list(coords)
    if not coords:
        raise ExprError("coordinate list must be nonempty")
    if len(set(coords)) != len(coords):
        raise ExprError("coordinate names must be distinct")
    tz = _Tokenizer(text)
    e = _parse_sum(tz, set(coords))
    kind, _, off, _ = tz.peek()
    if kind != "end":
        raise ParseError(f"unexpected token {tz.peek()[1]!r}", off)
    return e


def _parse_sum(tz, coords) -> Expr:
    e = _parse_product(tz, coords)
    while True:
        kind = tz.peek()[0]
        if kind == "+":
            tz.next()
            e = add(e, _parse_product(tz, coords))
        elif kind == "-":
            tz.next()
            e = sub(e, _parse_product(tz, coords))
        else:
            return e


def _parse_product(tz, coords) -> Expr:
    e = _parse_unary(tz, coords)
    while True:
        kind = tz.peek()[0]
        if kind == "*":
            tz.next()
            e = mul(e, _parse_unary(tz, coords))
        elif kind == "/":
            tok = tz.peek()
            tz.next()
            rhs = _parse_unary(tz, coords)
            if _is_const(rhs) and rhs.value == 0:
                raise ParseError("division by zero constant", tok[2])
            e = div(e, rhs)
        else:
            return e


def _parse_unary(tz, coords) -> Expr:
    if tz.peek()[0] == "-":
        tz.next()
        return neg(_parse_unary(tz, coords))
    return _parse_power(tz, coords)


def _parse_power(tz, coords) -> Expr:
    base = _parse_atom(tz, coords)
    if tz.peek()[0] != "^":
        return base
    tz.next()
    k = _parse_exponent(tz)
    return pow_(base, k)


def _parse_exponent(tz) -> int:
    parens = False
    if tz.peek()[0] == "(":
        parens = True
        tz.next()
    sign = 1
    if tz.peek()[0] == "-":
        tz.next()
        sign = -1
    kind, text, off, is_float = tz.next()
    if kind != "num" or is_float:
        raise ParseError("exponent must be an integer", off)
    if parens:
        kind2, _, off2, _ = tz.next()
        if kind2 != ")":
            raise ParseError("expected ')' after exponent", off2)
    return sign * int(text)


def _parse_atom(tz, coords) -> Expr:
    kind, text, off, is_float = tz.next()
    if kind == "num":
        return Flt(float(text)) if is_float else Rat(Fraction(int(text)))
    if kind == "(":
        e = _parse_sum(tz, coords)
        kind2, _, off2, _ = tz.next()
        if kind2 != ")":
            raise ParseError("expected ')'", off2)
        return e
    if kind == "ident":
        if tz.peek()[0] == "(":
            if text not in FUNCTIONS:
                raise ParseError(f"unknown function {text!r}", off)
            tz.next()
            arg = _parse_sum(tz, coords)
            kind2, _, off2, _ = tz.next()
            if kind2 != ")":
                raise ParseError("expected ')'", off2)
            return fn(text, arg)
        if text in coords:
            return Var(text)
        raise ParseError(f"unknown identifier {text!r}", off)
    raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)
