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
pipelines from drowning in redundant subtrees. Most terms of the geometry's
dense index sums are structurally zero, and callers skip them: the
construction loops run over the supports of their operands, pass the one sum
(``manifold._sum_of_products``) only live terms, make no sum where no term is
live, and so call no constructor for a term with a ``ZERO`` factor. That
``mul`` returns ``ZERO`` as soon as a factor is ``ZERO`` and ``add`` drops
``ZERO`` terms before folding anything is only a backstop.

Invariant: every node the constructors return is already in normal form, i.e.
``simplify(e) is e``. Callers never need to re-normalize a result.

Exponentials have a normal form of their own (as in SymPy's exp/power
combination): a product holds at most one ``exp`` factor, e^u·e^v being
e^{u+v} and ``ONE`` when the exponents cancel; (e^u)^k is e^{ku} and
sqrt(e^u) is e^{u/2}. An exponent keeps its numeric coefficients distributed
over its sums and exact: a finite float coefficient or constant becomes the
rational it equals (``Fraction(float)`` is exact, so ``exp(a*x)`` evaluates
as ``math.exp(a * x)``), and halving or summing exponents rounds nothing, so
e^{-u/2} reached by two routes is one node and a difference of two such terms
cancels. A non-finite coefficient stays a float.

Next to the pool, ``mul``, ``add`` and ``pow_`` keep a memo of their calls
(``_MUL_MEMO``, ``_ADD_MEMO``, ``_POW_MEMO``). Its key is the tuple of the
coerced, interned operands (for ``pow_`` the base and the exponent, checked
to be an integer first), so ``mul(2, x)`` and ``mul(2.0, x)`` are different
calls; its value is the node the call returns, which the pool holds anyway.
Like ``_POOL`` and the differentiation cache it lives as long as the
process. The constructors fold without closures, dispatching on the node's
type, and carry an exact coefficient as an integer numerator and
denominator, made one ``Rat`` at the end.

Exact rationals stay exact until a float literal or a transcendental forces a
float, except in an exponent, as above; all verdict-level work downstream is
numeric at sample points. A float constant may be infinite but never NaN:
folding inf - inf or 0 * inf raises :class:`EvaluationError`, as the
evaluator does at a point. One evaluator, :func:`evaluate_tables`, takes
nested tables and a list of points and evaluates each DAG node once for all
of them, together with the coordinate gradients of the tables the caller
names (forward mode, with the rules of :func:`differentiate`); ``evaluate``
and ``evaluate_array`` are its one-point case.

:func:`parse` takes its tokens from one compiled pattern, so a number is what
``int`` and ``float`` read, and a recursive-descent parser builds the
expression from them; every error it raises is an :class:`ExprError`, an
integer literal longer than ``int`` converts included. The printed form
(:func:`to_string`) parses back to the same node; an infinity prints as
``1e999``, and a rational longer than ``str`` converts is an
:class:`ExprError`.
"""

from __future__ import annotations

import math
import operator
import re
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

# the constructor memo (module docstring): coerced operands -> result node
_ADD_MEMO: dict = {}
_MUL_MEMO: dict = {}
_POW_MEMO: dict = {}


def _new(cls, key: tuple, skey: tuple, *fields) -> "Expr":
    """A fresh node of class ``cls``, interned in ``_POOL`` under ``key``.

    ``key`` is the tag followed by atoms or child nodes. Children hash by
    their cached ``_hash`` and compare by identity, so a lookup costs the
    node's arity, not the size of its tree; each class looks its key up
    first and calls this only for a new one. ``fields`` fill the class's
    ``__slots__`` in order. The order key ``skey`` replaces each child by the
    child's ``skey``; it only sorts terms and factors and is never hashed.
    """
    node = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        setattr(node, name, value)
    node.skey = skey
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
        return _rat(value.numerator, value.denominator, value)


def _rat(num: int, den: int, value=None) -> "Rat":
    """The node of the reduced fraction num/den (den > 0); ``value`` is it as a Fraction, if made."""
    key = (0, num, den)
    return _POOL.get(key) or _new(Rat, key, key, Fraction(num, den) if value is None else value)


class Flt(Expr):
    __slots__ = ("value",)

    def __new__(cls, value: float):
        value = float(value)
        if value != value:
            raise EvaluationError("constant is NaN (inf - inf or 0 * inf)")
        key = (1, repr(value))
        return _POOL.get(key) or _new(cls, key, key, value)


class Var(Expr):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        key = (2, name)
        return _POOL.get(key) or _new(cls, key, key, name)


class Add(Expr):
    __slots__ = ("terms",)

    def __new__(cls, terms: tuple):
        key = (3,) + terms
        return _POOL.get(key) or _new(cls, key, (3,) + tuple([t.skey for t in terms]), terms)


class Mul(Expr):
    __slots__ = ("factors",)

    def __new__(cls, factors: tuple):
        key = (4,) + factors
        return _POOL.get(key) or _new(cls, key, (4,) + tuple([f.skey for f in factors]), factors)


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __new__(cls, base: Expr, exponent: int):
        key = (5, base, exponent)
        return _POOL.get(key) or _new(cls, key, (5, base.skey, exponent), base, exponent)


FUNCTIONS = ("sqrt", "exp", "log", "sin", "cos", "tan")


class Fn(Expr):
    __slots__ = ("name", "arg")

    def __new__(cls, name: str, arg: Expr):
        key = (6, name, arg)
        return _POOL.get(key) or _new(cls, key, (6, name, arg.skey), name, arg)


# Fraction is immutable, so every term without a coefficient shares this one
_FRACTION_ONE = Fraction(1)

ZERO = Rat(Fraction(0))
ONE = Rat(_FRACTION_ONE)
MINUS_ONE = Rat(Fraction(-1))
HALF = Rat(Fraction(1, 2))

_SKEY = operator.attrgetter("skey")


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
        return _rat(int(x), 1)
    if isinstance(x, Fraction):
        return Rat(x)
    if isinstance(x, float):
        return Flt(x)
    raise ExprError(f"cannot coerce {x!r} to Expr")


def _operands(args: tuple) -> tuple:
    """``args`` coerced to nodes: the tuple itself when every one is a node already."""
    for a in args:
        if not isinstance(a, Expr):
            return tuple(map(_coerce, args))
    return args


def _is_const(e: Expr) -> bool:
    return type(e) is Rat or type(e) is Flt


def add(*terms) -> Expr:
    """n-ary sum with flattening, exact constant folding, like-term collection.

    ``ZERO`` terms are dropped before anything is folded.
    """
    terms = _operands(terms)
    hit = _ADD_MEMO.get(terms)
    if hit is None:
        hit = _ADD_MEMO[terms] = _add(terms)
    return hit


def _add(terms: tuple) -> Expr:
    num, den = 0, 1  # the exact constant, num/den
    flt_part = 0.0
    has_flt = False
    coeffs: dict = {}  # id(core) -> numeric coefficient
    order: list = []
    for t in terms:
        if t is ZERO:
            continue
        for e in (t.terms if type(t) is Add else (t,)):
            te = type(e)
            if te is Rat:
                v = e.value
                num, den = num * v.denominator + v.numerator * den, den * v.denominator
                continue
            if te is Flt:
                flt_part += e.value
                has_flt = True
                continue
            coeff, core = _split_coeff(e)
            k = id(core)
            if k in coeffs:
                coeffs[k] = _num_add(coeffs[k], coeff)
            else:
                coeffs[k] = coeff
                order.append(core)

    out = []
    for core in order:
        coeff = coeffs[id(core)]
        if coeff == 0:
            continue
        out.append(_scale(core, coeff))
    const: Expr | None = None
    if has_flt:
        total = flt_part + num / den
        if total != 0.0:
            const = Flt(total)
    elif num != 0:
        g = math.gcd(num, den)
        const = _rat(num // g, den // g)
    if const is not None:
        out.append(const)
    if not out:
        return ZERO
    if len(out) == 1:
        return out[0]
    out.sort(key=_SKEY)
    return Add(tuple(out))


def _num_add(a, b):
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a + b
    return float(a) + float(b)


def _split_coeff(e: Expr):
    """Write a non-constant term as (numeric coefficient, core expression)."""
    if type(e) is Mul:
        f0 = e.factors[0]
        if type(f0) is Rat or type(f0) is Flt:
            rest = e.factors[1:]
            core = rest[0] if len(rest) == 1 else Mul(rest)
            return f0.value, core
    return _FRACTION_ONE, e


def _scale(core: Expr, coeff) -> Expr:
    if coeff == 1:
        return core
    c = Rat(coeff) if isinstance(coeff, Fraction) else Flt(coeff)
    if type(core) is Mul:
        return Mul((c,) + core.factors)
    return Mul((c, core))


def mul(*factors) -> Expr:
    """n-ary product with flattening, constant folding, like-power collection.

    A ``ZERO`` factor makes the product ``ZERO`` before anything is folded.
    """
    factors = _operands(factors)
    hit = _MUL_MEMO.get(factors)
    if hit is None:
        hit = _MUL_MEMO[factors] = _mul(factors)
    return hit


def _mul(factors: tuple) -> Expr:
    for f in factors:
        if f is ZERO:
            return ZERO
    num, den = 1, 1  # the exact coefficient, num/den
    flt_part = 1.0
    has_flt = False
    exponents: dict = {}  # id(base) -> exponent
    order: list = []
    exps: list = []  # the exp factors, made one below
    for f in factors:
        for e in (f.factors if type(f) is Mul else (f,)):
            te = type(e)
            if te is Rat:
                v = e.value
                num *= v.numerator
                den *= v.denominator
                continue
            if te is Flt:
                flt_part *= e.value
                has_flt = True
                continue
            if te is Fn and e.name == "exp":
                exps.append(e)
                continue
            if te is Pow:
                base, k = e.base, e.exponent
            else:
                base, k = e, 1
            b = id(base)
            if b in exponents:
                exponents[b] += k
            else:
                exponents[b] = k
                order.append(base)

    if num == 0:
        return ZERO
    if has_flt and flt_part == 0.0:
        return ZERO

    out = []
    folded = []
    if exps:
        # e^u·e^v = e^{u+v}: ONE when the exponents cancel, a Flt when they add
        # up to a float constant
        p = exps[0] if len(exps) == 1 else exp(add(*[e.arg for e in exps]))
        if type(p) is Flt:
            flt_part *= p.value
            has_flt = True
        elif p is not ONE:
            out.append(p)
    for base in order:
        k = exponents[id(base)]
        if k == 1:
            out.append(base)
            continue
        p = pow_(base, k)
        if p is ONE:
            continue
        tp = type(p)
        if tp is Rat:
            # sqrt(c)^(2j) folds to a constant
            num *= p.value.numerator
            den *= p.value.denominator
            continue
        if tp is Flt:
            flt_part *= p.value
            has_flt = True
            continue
        if p is base or (tp is Pow and p.base is base):
            out.append(p)
        else:
            # sqrt(u)^(2j) became u^j, which may share its base with other
            # factors: it goes back through mul below
            folded.append(p)

    const: Expr | None = None
    if has_flt:
        total = flt_part * (num / den)
        if total == 0.0:
            return ZERO
        if total != 1.0:
            const = Flt(total)
    elif num != den:
        g = math.gcd(num, den)
        const = _rat(num // g, den // g)

    if folded:
        return mul(*([] if const is None else [const]), *out, *folded)
    if not out:
        return const if const is not None else ONE
    out.sort(key=_SKEY)
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
    key = (base, exponent)
    hit = _POW_MEMO.get(key)
    if hit is None:
        hit = _POW_MEMO[key] = _pow(base, exponent)
    return hit


def _pow(base: Expr, exponent: int) -> Expr:
    tb = type(base)
    if tb is Rat:
        if base.value == 0 and exponent < 0:
            raise EvaluationError("division by zero (0 raised to negative power)")
        return Rat(base.value ** exponent)
    if tb is Flt:
        if base.value == 0.0 and exponent < 0:
            raise EvaluationError("division by zero (0.0 raised to negative power)")
        try:
            return Flt(base.value ** exponent)
        except OverflowError as exc:
            raise EvaluationError("overflow in power") from exc
    if tb is Mul:
        return mul(*[pow_(f, exponent) for f in base.factors])
    if tb is Pow:
        return pow_(base.base, base.exponent * exponent)
    if tb is Fn and base.name == "exp":
        return exp(mul(exponent, base.arg))
    if tb is Fn and base.name == "sqrt" and exponent % 2 == 0:
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
    if name == "exp" and not _is_const(arg):
        arg = _exponent(arg)
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
    if name == "sqrt" and type(arg) is Fn and arg.name == "exp":
        return exp(mul(HALF, arg.arg))
    return Fn(name, arg)


def _exponent(u: Expr, scale: Expr = ONE) -> Expr:
    """``scale·u`` as an exponent in normal form (module docstring).

    Numeric coefficients are distributed over sums, and a finite float
    coefficient or constant becomes the rational it equals.
    """
    terms = []
    for t in (u.terms if type(u) is Add else (u,)):
        factors = t.factors if type(t) is Mul else (t,)
        c = scale
        if _is_const(factors[0]):
            c0 = factors[0]
            if type(c0) is Flt and math.isfinite(c0.value):
                c0 = Rat(Fraction(c0.value))
            c = mul(scale, c0)
            factors = factors[1:]
        if len(factors) == 1 and type(factors[0]) is Add:
            terms.append(_exponent(factors[0], c))
        else:
            terms.append(mul(c, *factors))
    return add(*terms)


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
    except ValueError as exc:  # sin, cos and tan of an infinity
        raise EvaluationError(f"{name} of {x!r}") from exc
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


def evaluate_tables(tables, points, coords=(), gradients=()) -> list:
    """Evaluate nested tables (lists or tuples) of expressions at every point.

    Returns one ndarray per table, of shape ``(len(points),) + table shape``.
    Every node of the shared DAG is evaluated once, for all points together;
    at each point its arithmetic is the scalar one (``math.fsum`` for sums,
    left-to-right products, Python ``**``), so a point's values do not depend
    on the other points in the batch.  An :class:`EvaluationError` at any
    point aborts the whole batch; a sum that overflows or adds inf to -inf is
    one.

    ``gradients`` names tables by their position in ``tables``; after the
    values come their coordinate gradients along ``coords``, one ndarray
    each, of shape ``(len(points), len(coords)) + table shape`` (a read-only
    view of one zero when no entry depends on a coordinate).  They are
    carried forward through the same walk (forward-mode differentiation): a
    node holds a derivative only for the coordinates it depends on, and the
    rules are :func:`differentiate`'s, so a point where the symbolic
    derivative fails to evaluate raises the same :class:`EvaluationError`.
    """
    tables = [_table_entries(t) for t in tables]
    points = list(points)
    count = len(points)
    slots = {name: a for a, name in enumerate(coords)}
    cache: dict = {}
    dcache: dict = {}

    def ev(e: Expr) -> list:
        key = id(e)
        hit = cache.get(key)
        if hit is not None:
            return hit
        if isinstance(e, Rat):
            v = [float(e.value)] * count
        elif isinstance(e, Flt):
            v = [e.value] * count
        elif isinstance(e, Var):
            try:
                v = [float(p[e.name]) for p in points]
            except KeyError:
                raise EvaluationError(f"missing coordinate {e.name!r}") from None
        elif isinstance(e, Add):
            v = _sums([ev(t) for t in e.terms])
        elif isinstance(e, Mul):
            v = _product([ev(f) for f in e.factors])
        elif isinstance(e, Pow):
            k = e.exponent
            b = ev(e.base)
            if k < 0 and 0.0 in b:
                raise EvaluationError("division by zero")
            try:
                v = [x ** k for x in b]
            except OverflowError as exc:
                raise EvaluationError("overflow in power") from exc
        elif isinstance(e, Fn):
            name = e.name
            v = [_apply_fn(name, x) for x in ev(e.arg)]
        else:
            raise ExprError(f"unknown node {e!r}")
        cache[key] = v
        return v

    def grad(e: Expr) -> dict:
        """Coordinate slot -> derivative values, for the slots ``e`` depends on."""
        key = id(e)
        hit = dcache.get(key)
        if hit is not None:
            return hit
        if isinstance(e, (Rat, Flt)):
            d = {}
        elif isinstance(e, Var):
            d = {slots[e.name]: [1.0] * count} if e.name in slots else {}
        elif isinstance(e, Add):
            parts = [p for p in map(grad, e.terms) if p]
            # with one dependent term, the sum's derivative is that term's
            d = parts[0] if len(parts) == 1 else {
                a: _sums([p[a] for p in parts if a in p]) for a in sorted(set().union(*parts))
            }
        elif isinstance(e, Mul):
            # Σ_i ∂f_i · Π_{j≠i} f_j over the factors that depend on the slot
            parts = [grad(f) for f in e.factors]
            vals = [ev(f) for f in e.factors]
            others = {
                i: _product([v for j, v in enumerate(vals) if j != i])
                for i, p in enumerate(parts)
                if p
            }
            d = {}
            for a in sorted(set().union(*parts)):
                terms = [
                    list(map(operator.mul, parts[i][a], v))
                    for i, v in others.items()
                    if a in parts[i]
                ]
                d[a] = terms[0] if len(terms) == 1 else _sums(terms)
        elif isinstance(e, (Pow, Fn)):
            inner = grad(e.base if isinstance(e, Pow) else e.arg)
            # the outer derivative is evaluated only where the chain rule reads it
            outer = _product([ev(f) for f in _outer(e)]) if inner else None
            d = {a: list(map(operator.mul, outer, v)) for a, v in inner.items()}
        else:
            raise ExprError(f"unknown node {e!r}")
        dcache[key] = d
        return d

    out = []
    try:
        for shape, entries in tables:
            values = np.zeros((count, math.prod(shape)))
            if entries:
                # ZERO entries keep the fill value, 0.0 = float(ZERO.value)
                index, exprs = zip(*entries)
                values[:, list(index)] = np.array([ev(e) for e in exprs], dtype=float).T
            out.append(values.reshape((count,) + shape))
        for t in gradients:
            shape, entries = tables[t]
            nonzero = [(a, i, d) for i, e in entries for a, d in grad(e).items()]
            if not nonzero:
                # a constant table (every flat chart's Γ and T₀): one zero, not
                # points x coordinates x entries of them
                out.append(np.broadcast_to(0.0, (count, len(coords)) + shape))
                continue
            values = np.zeros((count, len(coords), math.prod(shape)))
            slot, index, derivatives = zip(*nonzero)
            values[:, list(slot), list(index)] = np.array(derivatives, dtype=float).T
            out.append(values.reshape((count, len(coords)) + shape))
    finally:
        # ev and grad reach themselves through their closure cells, a cycle
        # that would keep the value caches alive until the cyclic collector ran
        del ev, grad
    return out


def _sums(terms: list) -> list:
    """Per-point ``math.fsum`` of value lists; its two failures are :class:`EvaluationError`."""
    try:
        return list(map(math.fsum, zip(*terms)))
    except OverflowError as exc:
        raise EvaluationError("overflow in sum") from exc
    except ValueError as exc:  # inf + -inf
        raise EvaluationError("inf - inf in sum") from exc


def _product(factors: list) -> list:
    """Per-point left-to-right product of value lists; 1.0 * x is x, so it starts from the first."""
    v = factors[0]
    for f in factors[1:]:
        v = list(map(operator.mul, v, f))
    return v


def _table_entries(table):
    """Shape of a nested table and its (flat index, Expr) entries that are not ZERO."""
    shape = []
    flat = [table]
    while isinstance(flat[0], (list, tuple)):
        try:
            if len(set(map(len, flat))) != 1:
                raise TypeError
        except TypeError:
            raise ExprError("table is not rectangular") from None
        shape.append(len(flat[0]))
        flat = [x for row in flat for x in row]
        if not flat:
            break
    entries = [(i, e) for i, e in enumerate(map(_coerce, flat)) if e is not ZERO]
    return tuple(shape), entries


def evaluate(e: Expr, point: dict) -> float:
    return float(evaluate_tables([e], [point])[0][0])


def evaluate_array(table, point: dict) -> np.ndarray:
    """Evaluate a nested table of expressions at one point to an ndarray."""
    return evaluate_tables([table], [point])[0][0]


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
    if isinstance(e, (Pow, Fn)):
        d = differentiate(e.base if isinstance(e, Pow) else e.arg, v)
        return ZERO if d is ZERO else mul(*_outer(e), d)
    raise ExprError(f"unknown node {e!r}")


def _outer(e: Expr) -> tuple:
    """Factors of the outer derivative of a Pow or Fn node: d e / d base or d e / d arg."""
    if isinstance(e, Pow):
        return rational(e.exponent), pow_(e.base, e.exponent - 1)
    u = e.arg
    name = e.name
    if name == "sqrt":
        return (div(HALF, fn("sqrt", u)),)
    if name == "exp":
        return (fn("exp", u),)
    if name == "log":
        return (pow_(u, -1),)
    if name == "sin":
        return (fn("cos", u),)
    if name == "cos":
        return (neg(fn("sin", u)),)
    if name == "tan":
        return (add(ONE, pow_(fn("tan", u), 2)),)
    raise ExprError(f"unknown function {name!r}")


# ---------------------------------------------------------------------------
# printing (the printed form re-parses)


def to_string(e: Expr) -> str:
    return _print(e, 0)


# precedence levels: 0 sum, 1 product, 2 unary/power operand, 3 atom
def _print(e: Expr, ctx: int) -> str:
    if isinstance(e, Rat):
        q = e.value
        try:
            s = str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        except ValueError:  # more digits than CPython converts
            raise ExprError("rational too long to print") from None
        need = ctx >= 1 and (q < 0 or q.denominator != 1)
        return f"({s})" if need else s
    if isinstance(e, Flt):
        # the literal 1e999 reads back as inf, where "inf" would not parse
        s = repr(e.value) if math.isfinite(e.value) else ("1e999" if e.value > 0 else "-1e999")
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


# a number, an identifier, an operator, or any other non-space character (an error)
_TOKEN = re.compile(r"(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|([^\W\d]\w*)|([-+*/^()])|(\S)")


class _Tokenizer:
    """Tokens ``(kind, text, offset, is_float)`` of ``text``, all read up front by ``_TOKEN``."""

    def __init__(self, text: str):
        self.tokens: list = []
        for m in _TOKEN.finditer(text):
            tok, i = m.group(), m.start()
            if m.lastindex == 4:
                raise ParseError(f"unexpected character {tok!r}", i)
            kind = ("num", "ident", tok)[m.lastindex - 1]
            self.tokens.append((kind, tok, i, not tok.isdecimal() if kind == "num" else None))
        self.tokens.append(("end", "", len(text), None))
        self.idx = 0

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


def _int(text: str, offset: int) -> int:
    try:
        return int(text)
    except ValueError:  # more digits than CPython converts
        raise ParseError("integer literal too long", offset) from None


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
    return sign * _int(text, off)


def _parse_atom(tz, coords) -> Expr:
    kind, text, off, is_float = tz.next()
    if kind == "num":
        return Flt(float(text)) if is_float else _rat(_int(text, off), 1)
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
