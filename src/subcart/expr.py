"""Symbolic scalar expressions over ambient coordinates.

Expressions are immutable trees built from constants, coordinate variables,
sums, products, quotients, integer powers, a fixed set of smooth unary
functions, and a smooth one-sided cutoff family used to build bump functions
with exact zeros.  Differentiation is exact and closed over the node set.
Every node carries the bitmask of the variables it uses, and ``diff`` is
memoised per node and variable: a subtree shared by many trees is
differentiated once, and a derivative with respect to a variable the node
does not use is the shared ``ZERO`` without recursion.
Evaluation is by generated Python code (``compile_scalar`` and
``compile_vector``) and deterministic: identical trees evaluated at
identical points give bit-identical floats, and points outside a
function's domain raise ``DomainError`` instead of producing NaN.  Each
generated source is compiled once per process: ``_define`` keeps every
function it makes, keyed by its generator and its source, for the
expression functions here and the membership, slack and projection
functions of ``space``, so a tree built anew with the same source gets the
function already made.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Callable, Optional, Sequence


class ExprError(ValueError):
    """Base class for expression failures."""


class ParseError(ExprError):
    """Raised when expression text does not match the grammar."""


class DomainError(ExprError):
    """Raised when evaluation hits a point outside a node's domain."""


_UNARY_NAMES = ("sin", "cos", "exp", "log", "sqrt", "tanh")


class Expr:
    """Immutable expression node; nodes compare and hash by identity.

    ``_mask`` has bit i set when the node uses x{i+1}; it is set at
    construction.  ``_diffs`` maps a variable index to the node's derivative
    and lives as long as the node.
    """

    __slots__ = ("_mask", "_diffs")

    def __setattr__(self, name, value):
        raise AttributeError("expressions are immutable")

    @property
    def is_zero(self) -> bool:
        return isinstance(self, Const) and self.value == 0.0

    @property
    def is_one(self) -> bool:
        return isinstance(self, Const) and self.value == 1.0

    def __str__(self) -> str:
        return to_text(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({to_text(self)!r})"


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        object.__setattr__(self, "value", float(value))
        object.__setattr__(self, "_mask", 0)


class Integer(Const):
    """A constant that prints as the integer it is, ``2`` and not ``2.0``;
    it evaluates, folds and differentiates as any ``Const``."""

    __slots__ = ()


class Var(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ExprError(f"variable index must be nonnegative, got {index}")
        object.__setattr__(self, "index", int(index))
        object.__setattr__(self, "_mask", 1 << self.index)


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_mask", left._mask | right._mask)


class Add(_Binary):
    __slots__ = ()


class Mul(_Binary):
    __slots__ = ()


class Div(_Binary):
    __slots__ = ()


class Pow(Expr):
    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "exponent", int(exponent))
        object.__setattr__(self, "_mask", base._mask)


class Neg(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "_mask", operand._mask)


class Fn(Expr):
    """Unary smooth function application: sin, cos, exp, log, sqrt, tanh."""

    __slots__ = ("name", "operand")

    def __init__(self, name: str, operand: Expr):
        if name not in _UNARY_NAMES:
            raise ExprError(f"unknown function {name!r}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "_mask", operand._mask)


class Cut(Expr):
    """Smooth one-sided cutoff: exp(-1/t)/t^k for t > 0, exactly 0 for t <= 0.

    Every member of the family is C-infinity on the whole line, which is what
    lets bump-built fields vanish identically outside a ball while staying
    smooth.  The exponent shift k keeps the family closed under
    differentiation.
    """

    __slots__ = ("shift", "operand")

    def __init__(self, shift: int, operand: Expr):
        if shift < 0:
            raise ExprError(f"cutoff shift must be nonnegative, got {shift}")
        object.__setattr__(self, "shift", int(shift))
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "_mask", operand._mask)


ZERO = Const(0.0)
ONE = Const(1.0)


def as_expr(obj) -> Expr:
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, (int, float)):
        return Const(float(obj))
    raise ExprError(f"cannot convert {obj!r} to an expression")


# Smart constructors fold constants and absorb exact zeros and ones.  Nothing
# deeper: no reassociation, no cancellation, so trees stay predictable.

def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value + b.value)
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    return add(a, neg(b))


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Const) and isinstance(b, Const):
        return Const(a.value * b.value)
    if a.is_zero or b.is_zero:
        return ZERO
    if a.is_one:
        return b
    if b.is_one:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if isinstance(b, Const):
        if b.value == 0.0:
            raise DomainError("division by constant zero")
        if isinstance(a, Const):
            return Const(a.value / b.value)
        if b.value == 1.0:
            return a
    if a.is_zero:
        return ZERO
    return Div(a, b)


def pow_int(base: Expr, k: int) -> Expr:
    k = int(k)
    if k < 0:
        raise ExprError("negative exponents are not in the grammar; use a quotient")
    if k == 0:
        return ONE
    if k == 1:
        return base
    if isinstance(base, Const):
        return Const(_power(base.value, k))
    return Pow(base, k)


def neg(a: Expr) -> Expr:
    if isinstance(a, Const):
        return Const(-a.value)
    if isinstance(a, Neg):
        return a.operand
    return Neg(a)


def dot(us: Sequence[Expr], vs: Sequence[Expr]) -> Expr:
    """The products ``us[i] * vs[i]`` added in order of i to ``ZERO``."""
    total: Expr = ZERO
    for u, v in zip(us, vs):
        total = add(total, mul(u, v))
    return total


def fn(name: str, operand: Expr) -> Expr:
    return Fn(name, operand)


def cut(shift: int, operand: Expr) -> Expr:
    return Cut(shift, operand)


# Differentiation ------------------------------------------------------------

def diff(e: Expr, var: int) -> Expr:
    """Exact partial derivative with respect to coordinate ``var`` (0-based).

    Memoised on the node, so repeated calls return the same object and a
    subtree shared by several trees is differentiated once.  When ``e`` does
    not use ``var`` the result is the shared ``ZERO`` without recursion,
    never the ``Const(-0.0)`` that combining the children's derivatives can
    give (``neg(ZERO)``, or ``0.0/c`` with ``c < 0``).  ``add``, ``mul`` and
    ``div`` absorb either zero alike and reports print both as ``0``, so the
    sign of a zero derivative reaches no report.
    """
    if not e._mask >> var & 1:
        return ZERO
    memo = getattr(e, "_diffs", None)
    if memo is None:
        memo = {}
        object.__setattr__(e, "_diffs", memo)
    d = memo.get(var)
    if d is None:
        d = memo[var] = _diff(e, var)
    return d


def _diff(e: Expr, var: int) -> Expr:
    """One differentiation step; ``e`` uses ``var``, children go through ``diff``."""
    if isinstance(e, Var):
        return ONE
    if isinstance(e, Add):
        return add(diff(e.left, var), diff(e.right, var))
    if isinstance(e, Mul):
        return add(mul(diff(e.left, var), e.right), mul(e.left, diff(e.right, var)))
    if isinstance(e, Div):
        num = sub(mul(diff(e.left, var), e.right), mul(e.left, diff(e.right, var)))
        return div(num, pow_int(e.right, 2))
    if isinstance(e, Pow):
        inner = diff(e.base, var)
        return mul(mul(Const(e.exponent), pow_int(e.base, e.exponent - 1)), inner)
    if isinstance(e, Neg):
        return neg(diff(e.operand, var))
    if isinstance(e, Fn):
        u = e.operand
        du = diff(u, var)
        if e.name == "sin":
            outer: Expr = fn("cos", u)
        elif e.name == "cos":
            outer = neg(fn("sin", u))
        elif e.name == "exp":
            outer = fn("exp", u)
        elif e.name == "log":
            outer = div(ONE, u)
        elif e.name == "sqrt":
            outer = div(ONE, mul(Const(2.0), fn("sqrt", u)))
        else:  # tanh
            outer = sub(ONE, pow_int(fn("tanh", u), 2))
        return mul(outer, du)
    if isinstance(e, Cut):
        u = e.operand
        du = diff(u, var)
        outer = sub(cut(e.shift + 2, u), mul(Const(e.shift), cut(e.shift + 1, u)))
        return mul(outer, du)
    raise ExprError(f"unknown node {e!r}")


def gradient_exprs(e: Expr, n_vars: int) -> tuple[Expr, ...]:
    """Partial derivatives of ``e`` with respect to x1..xn."""
    return tuple(diff(e, i) for i in range(n_vars))


def max_var_index(e: Expr) -> int:
    """Largest variable index appearing in ``e``, or -1 for constants."""
    return e._mask.bit_length() - 1


# Parsing ---------------------------------------------------------------------

# The levels a parsed tree may have, a leaf being one.  Differentiation,
# printing and code generation recurse once or twice per level, so a deeper
# tree would exhaust Python's stack.
_MAX_DEPTH = 200
_TOO_DEEP = f"expression nests deeper than {_MAX_DEPTH} levels"
_CHILDREN = ("left", "right", "base", "operand")  # the child slots of the node classes


def _depth(e: Expr) -> int:
    """The levels of ``e``, counted level by level without recursion."""
    depth, level = 0, [e]
    while level:
        depth += 1
        level = [getattr(node, a) for node in level for a in _CHILDREN if hasattr(node, a)]
    return depth


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []
        self._scan()
        self.cursor = 0

    def _scan(self) -> None:
        s, i, n = self.text, 0, len(self.text)
        while i < n:
            c = s[i]
            if c.isspace():
                i += 1
                continue
            if c in "+-*/^()":
                self.items.append((c, c, i))
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and s[i + 1].isdigit()):
                j = i
                while j < n and (s[j].isdigit() or s[j] == "."):
                    j += 1
                if j < n and s[j] in "eE":
                    k = j + 1
                    if k < n and s[k] in "+-":
                        k += 1
                    if k < n and s[k].isdigit():
                        j = k
                        while j < n and s[j].isdigit():
                            j += 1
                self.items.append(("num", s[i:j], i))
                i = j
                continue
            if c.isalpha() or c == "_":
                j = i
                while j < n and (s[j].isalnum() or s[j] == "_"):
                    j += 1
                self.items.append(("ident", s[i:j], i))
                i = j
                continue
            raise ParseError(f"unexpected character {c!r} at position {i}")
        self.items.append(("end", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.items[self.cursor]

    def take(self, kind: str | None = None) -> tuple[str, str, int]:
        tok = self.items[self.cursor]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind} at position {tok[2]}, got {tok[1]!r}")
        self.cursor += 1
        return tok


def parse(text: str, n_vars: int, aliases: Optional[Sequence[str]] = None) -> Expr:
    """Parse expression text over coordinates x1..x{n_vars}.

    Grammar: sums of terms, terms are products or quotients of factors, a
    factor is a base with an optional integer power, and a base is a number,
    a coordinate name, a function call, a parenthesized expression, or a
    negated base.  ``aliases`` optionally names the coordinates positionally,
    e.g. ("x", "y") makes "x" mean x1.  Cutoff nodes print as ``cutexp(u)``
    and ``cutexp2(u)`` (shift suffix on the name) and parse back the same way.
    A tree deeper than 200 levels, text nested too deep for the parser's
    stack, a constant that overflows when folded (``10^400``) and an
    exponent of more digits than ``int`` converts (4,300 by default) are
    each a ``ParseError``.
    """
    alias_map = {}
    if aliases is not None:
        if len(aliases) > n_vars:
            raise ParseError(f"{len(aliases)} aliases for {n_vars} coordinates")
        for i, name in enumerate(aliases):
            alias_map[name] = i
    toks = _Tokens(text)

    def parse_expr() -> Expr:
        node = parse_term()
        while toks.peek()[0] in ("+", "-"):
            op = toks.take()[0]
            rhs = parse_term()
            node = add(node, rhs) if op == "+" else sub(node, rhs)
        return node

    def parse_term() -> Expr:
        node = parse_factor()
        while toks.peek()[0] in ("*", "/"):
            op = toks.take()[0]
            rhs = parse_factor()
            node = mul(node, rhs) if op == "*" else div(node, rhs)
        return node

    def parse_factor() -> Expr:
        base = parse_base()
        if toks.peek()[0] == "^":
            toks.take()
            tok = toks.take("num")
            if not tok[1].isdigit():
                raise ParseError(f"exponent must be a plain integer, got {tok[1]!r}")
            try:
                k = int(tok[1])
            except ValueError:  # more digits than Python converts to an int
                raise ParseError(f"exponent of {len(tok[1])} digits at position {tok[2]} is too large") from None
            return pow_int(base, k)
        return base

    def parse_base() -> Expr:
        kind, text_, pos = toks.peek()
        if kind == "-":
            toks.take()
            return neg(parse_base())
        if kind == "num":
            toks.take()
            try:
                return Const(float(text_))
            except ValueError:
                raise ParseError(f"bad number literal {text_!r} at position {pos}") from None
        if kind == "(":
            toks.take()
            node = parse_expr()
            toks.take(")")
            return node
        if kind == "ident":
            toks.take()
            if toks.peek()[0] == "(":
                toks.take()
                arg = parse_expr()
                toks.take(")")
                if text_ in _UNARY_NAMES:
                    return fn(text_, arg)
                if text_ == "cutexp":
                    return cut(0, arg)
                if text_.startswith("cutexp") and text_[6:].isdigit():
                    return cut(int(text_[6:]), arg)
                raise ParseError(f"unknown function {text_!r} at position {pos}")
            if text_ in alias_map:
                return Var(alias_map[text_])
            if text_[0] == "x" and text_[1:].isdigit():
                idx = int(text_[1:])
                if not 1 <= idx <= n_vars:
                    raise ParseError(f"coordinate {text_} out of range for {n_vars} variables")
                return Var(idx - 1)
            raise ParseError(f"unknown identifier {text_!r} at position {pos}")
        raise ParseError(f"unexpected token {text_!r} at position {pos}")

    try:
        node = parse_expr()
    except RecursionError:  # parentheses or minus signs, which add no level to the tree
        raise ParseError(_TOO_DEEP) from None
    except OverflowError:
        raise ParseError("a constant overflows the float range") from None
    toks.take("end")
    if _depth(node) > _MAX_DEPTH:
        raise ParseError(_TOO_DEEP)
    return node


# Printing --------------------------------------------------------------------

def _number(v: float, integral: bool = False) -> str:
    """A constant that is not negative, or NaN, as text that parses back to
    it: the integer for an ``integral`` one (an ``Integer``'s), ``repr`` for
    a finite value, else a literal beyond the float range, which parses as
    inf (``repr`` would give the unknown identifiers inf and nan)."""
    if integral:
        return str(int(v))
    if math.isfinite(v):
        return repr(v)
    return "(1e999-1e999)" if v != v else "1e999"


def _print(e: Expr) -> tuple[str, int]:
    """Return (text, level) with level 0 atom, 1 power, 2 product, 3 sum, 4 negation."""
    if isinstance(e, Const):
        if e.value < 0.0:
            return "-" + _number(-e.value, isinstance(e, Integer)), 4
        return _number(e.value, isinstance(e, Integer)), 0
    if isinstance(e, Var):
        return f"x{e.index + 1}", 0
    if isinstance(e, Fn):
        return f"{e.name}({_print(e.operand)[0]})", 0
    if isinstance(e, Cut):
        name = "cutexp" if e.shift == 0 else f"cutexp{e.shift}"
        return f"{name}({_print(e.operand)[0]})", 0
    if isinstance(e, Neg):
        txt, lvl = _print(e.operand)
        if lvl >= 1:
            txt = f"({txt})"
        return "-" + txt, 4
    if isinstance(e, Pow):
        txt, lvl = _print(e.base)
        if lvl > 0:
            txt = f"({txt})"
        return f"{txt}^{e.exponent}", 1
    if isinstance(e, (Mul, Div)):
        lt, ll = _print(e.left)
        if ll > 2:
            lt = f"({lt})"
        # A product or quotient on the right must keep its own parentheses,
        # otherwise reparsing reassociates to the left.
        rt, rl = _print(e.right)
        if rl >= 2:
            rt = f"({rt})"
        op = "*" if isinstance(e, Mul) else "/"
        return f"{lt}{op}{rt}", 2
    if isinstance(e, Add):
        lt, ll = _print(e.left)
        if ll > 3:
            lt = f"({lt})"
        if isinstance(e.right, Neg):
            rt, rl = _print(e.right.operand)
            if rl > 2:
                rt = f"({rt})"
            return f"{lt} - {rt}", 3
        if isinstance(e.right, Const) and e.right.value < 0.0:
            return f"{lt} - {_number(-e.right.value, isinstance(e.right, Integer))}", 3
        rt, rl = _print(e.right)
        if rl >= 3:
            rt = f"({rt})"
        return f"{lt} + {rt}", 3
    raise ExprError(f"unknown node {e!r}")


def to_text(e: Expr) -> str:
    """Render to text that parses back to a tree of the same shape."""
    return _print(e)[0]


# Compilation -----------------------------------------------------------------

def _guard_div(a: float, b: float) -> float:
    if b == 0.0:
        raise DomainError("quotient denominator is zero")
    return a / b


def _guard_log(v: float) -> float:
    if v <= 0.0:
        raise DomainError(f"log argument must be positive, got {v!r}")
    return math.log(v)


def _guard_sqrt(v: float) -> float:
    if v < 0.0:
        raise DomainError(f"sqrt argument must be nonnegative, got {v!r}")
    return math.sqrt(v)


def _or(f: Callable[[float], float], error: type, value: float) -> Callable[[float], float]:
    """``f``, or ``value`` where ``f`` raises ``error``: the IEEE result, as
    numpy gives it, where ``math`` raises instead."""

    def g(v: float) -> float:
        try:
            return f(v)
        except error:
            return value

    return g


_exp = _or(math.exp, OverflowError, math.inf)


def _power(b: float, k: int) -> float:
    """``b ** k`` in Python's float arithmetic, for an integer k >= 0, with
    the sign of b^k.  Python's float ``**`` reads k as float(k), which past
    2^53 is even where k may be odd, so there the sign is taken from k
    itself.  The magnitude is |b| ** float(k), which is 0, 1 or inf unless
    |b| is within about 1e-13 of 1; there it still carries the rounding of
    float(k).  Raises ``OverflowError`` where ``**`` does."""
    if k <= 2**53:
        return b ** k
    r = abs(b) ** k
    return math.copysign(r, b) if k % 2 else r


def _pow(b: float, k: int) -> float:
    """``_power(b, k)`` in IEEE arithmetic: where Python's float ``**``
    raises ``OverflowError``, the power or the exponent being past the float
    range, the power is NaN, inf, 1 or 0 as |b| is NaN, above, at or below
    1, with b's sign for odd k."""
    try:
        return _power(b, k)
    except OverflowError:
        m = abs(b)
        r = m if m != m else math.inf if m > 1.0 else 1.0 if m == 1.0 else 0.0
        return math.copysign(r, b) if k % 2 else r


def _pairwise_sum(a: list, add: Callable = operator.add, zero=0.0):
    """Sum of a float list in numpy's float64 pairwise order, the one sum of
    the package's norms and residuals.

    Below 8 terms the sum is sequential from ``zero``; up to 128 it runs
    eight interleaved partial sums combined as a tree, then adds the tail;
    beyond that it splits at a multiple of 8 near the middle and recurses.
    Neither the builtin ``sum``, which compensates from Python 3.12, nor a
    BLAS dot, which may fuse multiply-adds, is a substitute.  With an
    ``add`` that joins source text it spells out the sum as an expression,
    which is how a flow kernel sums its error norm.
    """
    n = len(a)
    if n < 8:
        s = zero
        for x in a:
            s = add(s, x)
        return s
    if n <= 128:
        r = a[:8]
        m = n - n % 8
        for i in range(8, m, 8):
            r = [add(p, q) for p, q in zip(r, a[i : i + 8])]
        s = add(add(add(r[0], r[1]), add(r[2], r[3])), add(add(r[4], r[5]), add(r[6], r[7])))
        for x in a[m:]:
            s = add(s, x)
        return s
    half = n // 2
    half -= half % 8
    return add(_pairwise_sum(a[:half], add, zero), _pairwise_sum(a[half:], add, zero))


def _norm(v: Sequence[float]) -> float:
    """The Euclidean norm, the root of the pairwise sum of squares."""
    return math.sqrt(_pairwise_sum([a * a for a in v]))


def _cut_value(shift: int, t: float) -> float:
    if t <= 0.0:
        return 0.0
    if shift == 0:
        return _exp(-1.0 / t)
    return _exp(-1.0 / t - shift * math.log(t))


_COMPILE_ENV = {
    "_sin": _or(math.sin, ValueError, math.nan),  # at +-inf
    "_cos": _or(math.cos, ValueError, math.nan),
    "_exp": _exp,
    "_pow": _pow,
    "_power": _power,
    "_tanh": math.tanh,
    "_div": _guard_div,
    "_log": _guard_log,
    "_sqrt": _guard_sqrt,
    "_cut": _cut_value,
    "_inf": math.inf,
    "_ninf": -math.inf,
    "_nan": math.nan,
}


def _const_source(v: float) -> str:
    """A constant as source: ``repr`` for a finite value, else a name bound
    in ``_COMPILE_ENV`` (``repr`` would give the unbound names inf and nan)."""
    if math.isfinite(v):
        return repr(v)
    return "_nan" if v != v else "_inf" if v > 0 else "_ninf"


def _emit(e: Expr, memo: dict[int, str], lines: list[str], coord: str, ieee: bool = False) -> str:
    """Append to ``lines`` the assignments that compute ``e`` and return the
    name or literal holding its value.  ``coord`` spells coordinate i as
    ``coord.format(i)``: ``"_x[{}]"`` indexes the argument of a compiled
    function, ``"y{}"`` names the local y3 of a flow kernel.  ``memo`` maps
    the id of a node already emitted to its name, so a shared subtree is
    computed once.  A power is ``b ** k`` in Python's float arithmetic,
    which raises ``OverflowError`` past the float range, or ``_power(b, k)``
    past k = 2^53, where ``**`` loses the parity of k; with ``ieee`` it is
    IEEE arithmetic, which raises nothing there: a square is the correctly
    rounded product ``b * b`` and any other power ``_pow(b, k)``."""
    name = memo.get(id(e))
    if name is not None:
        return name
    if isinstance(e, Const):
        name = _const_source(e.value)
    elif isinstance(e, Var):
        name = coord.format(e.index)
    else:
        if isinstance(e, Add):
            rhs = f"{_emit(e.left, memo, lines, coord, ieee)} + {_emit(e.right, memo, lines, coord, ieee)}"
        elif isinstance(e, Mul):
            rhs = f"{_emit(e.left, memo, lines, coord, ieee)} * {_emit(e.right, memo, lines, coord, ieee)}"
        elif isinstance(e, Div):
            rhs = f"_div({_emit(e.left, memo, lines, coord, ieee)}, {_emit(e.right, memo, lines, coord, ieee)})"
        elif isinstance(e, Pow):
            base = _emit(e.base, memo, lines, coord, ieee)
            k = e.exponent
            rhs = (f"{base} * {base}" if k == 2 else f"_pow({base}, {k})") if ieee else (
                f"{base} ** {k}" if k <= 2**53 else f"_power({base}, {k})")
        elif isinstance(e, Neg):
            rhs = f"-{_emit(e.operand, memo, lines, coord, ieee)}"
        elif isinstance(e, Fn):
            rhs = f"_{e.name}({_emit(e.operand, memo, lines, coord, ieee)})"
        elif isinstance(e, Cut):
            rhs = f"_cut({e.shift}, {_emit(e.operand, memo, lines, coord, ieee)})"
        else:
            raise ExprError(f"unknown node {e!r}")
        name = f"_t{len(lines)}"
        lines.append(f"{name} = {rhs}")
    memo[id(e)] = name
    return name


def vector_source(exprs: Sequence[Expr], coord: str = "_x[{}]") -> tuple[list[str], list[str]]:
    """The unindented lines that compute several expressions, sharing common
    subtrees, and the name or literal of each value (see ``_emit``)."""
    memo: dict[int, str] = {}
    lines: list[str] = []
    return lines, [_emit(e, memo, lines, coord) for e in exprs]


# Every function generated in the process, keyed by the name of its
# generator and its whole source.  A generated function reads only its source
# and a fixed module-level scope, so equal keys give interchangeable
# functions.
_FUNCTIONS: dict[tuple[str, str], Callable] = {}


def _define(src: str, name: str, **env) -> Callable:
    """``_f`` as ``src`` defines it, with ``_COMPILE_ENV`` and ``env`` as its
    globals; compiled on the first request for this name and source, and
    found in ``_FUNCTIONS`` after that.  ``env`` must be the same for every
    call with the same name."""
    key = (name, src)
    f = _FUNCTIONS.get(key)
    if f is None:
        scope = dict(_COMPILE_ENV, **env)
        exec(compile(src, name, "exec"), scope)
        f = _FUNCTIONS[key] = scope["_f"]
    return f


def _function(lines: list[str], result: str, name: str) -> Callable:
    src = "def _f(_x):\n" + "".join(f"    {line}\n" for line in lines) + f"    return {result}\n"
    return _define(src, name)


def compile_scalar(e: Expr) -> Callable[[Sequence[float]], float]:
    """Compile to a fast callable, found by its source after the first call."""
    lines, (result,) = vector_source([e])
    return _function(lines, result, "<expr>")


def compile_vector(exprs: Sequence[Expr]) -> Callable[[Sequence[float]], list[float]]:
    """Compile several expressions into one callable returning a list."""
    lines, names = vector_source(exprs)
    return _function(lines, "[" + ", ".join(names) + "]", "<exprvec>")


class ExprMatrix:
    """A dim x dim matrix of expressions in x1..x{dim}, its ``rows`` read at a
    point by ``matrix_at``.  A subclass sets the ``error`` it raises and the
    ``noun`` its messages call the matrix."""

    error: type[ValueError] = ExprError
    noun = "matrix"

    def __init__(self, dim: int, rows: Sequence[Sequence[Expr]]):
        if dim < 1:
            raise self.error(f"dimension must be positive, got {dim}")
        rows = tuple(tuple(as_expr(e) for e in row) for row in rows)
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise self.error(f"{self.noun} must be {dim}x{dim}")
        for row in rows:
            for e in row:
                if max_var_index(e) >= dim:
                    raise self.error(f"{self.noun} entry {to_text(e)!r} uses a variable beyond x{dim}")
        self.dim = dim
        self.rows: tuple[tuple[Expr, ...], ...] = rows

    @functools.cached_property
    def _value(self):
        """The entries, flat, compiled on the first evaluation."""
        return compile_vector([e for row in self.rows for e in row])

    def matrix_at(self, point: Sequence[float]) -> list[list[float]]:
        """The entries at the point as ``dim`` rows of Python floats."""
        flat = self._value([float(v) for v in point])  # an array's scalars would warn where a power overflows
        return [flat[i:i + self.dim] for i in range(0, len(flat), self.dim)]


def block_rows(k: int, s: float) -> list[list[Expr]]:
    """The 2k x 2k rows with s at (i, k+i), -s at (k+i, i) and zero elsewhere."""
    rows = [[ZERO] * (2 * k) for _ in range(2 * k)]
    for i in range(k):
        rows[i][k + i] = Const(s)
        rows[k + i][i] = Const(-s)
    return rows
