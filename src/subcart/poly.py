"""An exact normal form of polynomial expressions, to certify that one is 0,
and an exact linear solve.

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
from typing import Optional, Sequence

from .expr import Add, Const, Div, Expr, Mul, Neg, Pow, Var

MAX_DEGREE = 12
MAX_TERMS = 256
MAX_ROWS, MAX_COLUMNS, MAX_BITS, MAX_WORK = 1024, 256, 4096, 2**22  # the caps of ``rref``


def normal_form(e: Expr, n: int, memo: Optional[dict] = None) -> Optional[dict]:
    """The polynomial of ``e`` in x1..xn, or None.  ``memo`` maps the id of
    each node read to the node and its polynomial; trees that share nodes
    may share it, and since it keeps each node alive, no id in it is reused."""
    memo = {} if memo is None else memo
    if id(e) not in memo:
        memo[id(e)] = (e, _form(e, n, memo))
    return memo[id(e)][1]


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


def rref(rows: Sequence[Sequence], width: int) -> Optional[tuple[list[list], list[int]]]:
    """The reduced row echelon form of ``rows``, lists of ints and
    ``Fraction``s, and its pivot columns, as sympy's ``rref``, pivots taken
    only in the first ``width`` columns: a later column is a right side, in
    their span exactly when it is 0 in the rows without a pivot, which come
    last.  None past ``MAX_ROWS``, ``MAX_COLUMNS``, an entry of ``MAX_BITS``
    bits or ``MAX_WORK`` entries formed.  Denominators are cleared row by
    row, then a fraction-free Gauss-Jordan elimination (Bareiss 1968, *Math.
    Comp.* 22) keeps every entry an integer minor, a row with 0 in the pivot
    column scaled only when next read."""
    a = [[int(c * d) for c in row] for row in rows for d in [math.lcm(*(c.denominator for c in row))]]
    if len(a) > MAX_ROWS or any(len(row) > MAX_COLUMNS or max(map(abs, row), default=0).bit_length() > MAX_BITS
                                for row in a):
        return None
    # the pivots so far after a 1, each row's count of them at its last update, and the (column, row) of each
    dets, stage, free, steps, work = [1], [0] * len(a), list(range(len(a))), [], 0

    def current(i: int) -> list[int]:
        return a[i] if stage[i] == len(dets) - 1 else [v * dets[-1] // dets[stage[i]] for v in a[i]]

    for col in range(width if a else 0):
        if (r := next((i for i in free if a[i][col]), None)) is None:
            continue
        free.remove(r)
        row, d = current(r), dets[-1]
        for i in range(len(a)):
            if a[i][col] and i != r:
                other = current(i)
                p, f = row[col], other[col]
                a[i] = new = [(p * x - f * y) // d for x, y in zip(other, row)]
                work += len(new)
                if work > MAX_WORK or max(max(new), -min(new)).bit_length() > MAX_BITS:
                    return None
                stage[i] = len(dets)
        a[r], stage[r] = row, len(dets)
        dets.append(row[col])
        steps.append((col, r))
    d, order = dets[-1], [r for _, r in steps] + free
    return [[v // d if v % d == 0 else _rational(v) / d for v in current(i)] for i in order], [c for c, _ in steps]
