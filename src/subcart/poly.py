"""An exact normal form of polynomial expressions, to certify that one is 0.

``normal_form`` reads ``Const``, ``Var``, ``Add``, ``Mul``, ``Neg``, ``Pow``
and ``Div`` by a constant into a dict from exponent tuples to nonzero int or
``Fraction`` coefficients, each float read as the rational it is, so ``{}``
is exactly 0.  Any other node, a constant that is not finite, and a result
past ``MAX_DEGREE`` or ``MAX_TERMS`` (a product counting its factors' terms
multiplied) is None, not polynomial; the caps bound the work on any tree.
"""

from __future__ import annotations

import math
import operator
from typing import Optional

from .expr import Add, Const, Div, Expr, Mul, Neg, Pow, Var

MAX_DEGREE = 12
MAX_TERMS = 256


def normal_form(e: Expr, n: int, memo: Optional[dict] = None) -> Optional[dict]:
    """The polynomial of ``e`` in x1..xn, or None.  ``memo`` maps the id of
    each node read to its polynomial; trees that share nodes may share it."""
    memo = {} if memo is None else memo
    if id(e) not in memo:
        memo[id(e)] = _form(e, n, memo)
    return memo[id(e)]


def _form(e: Expr, n: int, memo: dict) -> Optional[dict]:
    if isinstance(e, Const):
        if not math.isfinite(e.value):
            return None
        c = int(e.value) if e.value.is_integer() else _rational(e.value)
        return {(0,) * n: c} if c else {}
    if isinstance(e, Var):
        return {tuple(int(i == e.index) for i in range(n)): 1} if e.index < n else None
    if isinstance(e, Neg):
        p = normal_form(e.operand, n, memo)
        return None if p is None else {m: -c for m, c in p.items()}
    if isinstance(e, Pow):
        if e.exponent > MAX_DEGREE:
            return None
        p, r = normal_form(e.base, n, memo), {(0,) * n: 1}
        for _ in range(e.exponent):
            r = _product(r, p)
        return r
    if isinstance(e, (Add, Mul, Div)):
        a, b = normal_form(e.left, n, memo), normal_form(e.right, n, memo)
        if isinstance(e, Add):
            return _sum(a, b)
        if isinstance(e, Mul):
            return _product(a, b)
        if a is not None and isinstance(e.right, Const) and b:  # a nonzero constant divisor
            return {m: _rational(c) / b[(0,) * n] for m, c in a.items()}
    return None


def _rational(v: float | int):
    """``v`` as a ``Fraction``; ``fractions`` and the ``decimal`` it imports
    take about 5 ms to load, which integral coefficients never need."""
    from fractions import Fraction

    return Fraction(v)


def _sum(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    if a is None or b is None:
        return None
    r = dict(a)
    for m, c in b.items():
        c += r.pop(m, 0)
        if c:
            r[m] = c
    return r if len(r) <= MAX_TERMS else None


def _product(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    if a is None or b is None or len(a) * len(b) > MAX_TERMS or \
            max(map(sum, a), default=0) + max(map(sum, b), default=0) > MAX_DEGREE:
        return None
    r: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            m = tuple(map(operator.add, ma, mb))
            c = r.pop(m, 0) + ca * cb
            if c:
                r[m] = c
    return r
