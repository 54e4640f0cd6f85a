"""An exact normal form of polynomial expressions, to certify that one is 0,
its derivatives, a point where it is not 0, division by several
polynomials and Groebner bases, the way back to an ``Expr``, the one
invariance certificate of polynomial cells, and an exact linear solve.

``normal_form`` reads ``Const``, ``Var``, ``Add``, ``Mul``, ``Neg``, ``Pow``
and ``Div`` by a constant into a dict from exponent tuples to nonzero int or
``Fraction`` coefficients, each float read as the rational it is, so ``{}``
is exactly 0.  Any other node, a constant that is not finite, and a result
past ``MAX_DEGREE`` or ``MAX_TERMS`` (a product counting its factors' terms
multiplied) is None, not polynomial; the caps bound the work on any tree.
Monomials are ordered by degree, then lexicographically with x1 first.
"""

from __future__ import annotations

import functools
import heapq
import math
import operator
from typing import Optional, Sequence

from .expr import Add, Const, Div, Expr, Integer, Mul, Neg, Pow, Var

MAX_DEGREE = 12
MAX_TERMS = 256
MAX_ROWS, MAX_COLUMNS, MAX_BITS, MAX_WORK = 1024, 256, 4096, 2**26  # the caps of ``rref``
MAX_BASIS, MAX_WORK_TERMS = 32, 2**16  # the caps of ``groebner`` and ``divide``


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


def _order(m: tuple) -> tuple:
    return sum(m), m


def derivative(p: dict, i: int) -> dict:
    """The partial derivative of ``p`` in x{i+1}."""
    return {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i] for m, c in p.items() if m[i]}


def _lead(p: dict) -> tuple:
    return max(p, key=_order)


def _shifted(p: dict, shift: tuple, c) -> dict:
    """c x^shift p."""
    return {tuple(map(operator.add, shift, m)): c * v for m, v in p.items()}


def _ratio(a, b):
    """a / b, an int where it is one; None past ``MAX_BITS`` bits."""
    c = a // b if a % b == 0 else _rational(a) / b
    return None if max(c.numerator.bit_length(), c.denominator.bit_length()) > MAX_BITS else c


def divide(f: dict, divisors: Sequence[dict], work: Optional[list] = None) -> Optional[tuple[list[dict], dict]]:
    """Quotients q and the remainder r with f = sum q_i g_i + r, no term of r
    a multiple of the leading term of a g_i: each step moves the leading
    term of what is left into the quotient of the first g_i whose leading
    term divides it, else into r (Cox, Little and O'Shea, *Ideals,
    Varieties, and Algorithms*, ch. 2, section 3).  A step adds terms of
    lower monomials only, so it ends.  None past ``MAX_TERMS`` terms, a
    coefficient of ``MAX_BITS`` bits, or the terms ``work``, a one-item
    list, still allows (``MAX_WORK_TERMS`` where not given), each step
    charged the terms it forms."""
    work = [MAX_WORK_TERMS] if work is None else work
    work[0] -= sum(map(len, divisors))
    leads = [_lead(g) if g else None for g in divisors]
    qs: list[dict] = [{} for _ in divisors]
    r: dict = {}
    p: Optional[dict] = dict(f)
    while p:
        m = _lead(p)
        i = next((i for i, lead in enumerate(leads) if lead and all(map(operator.ge, m, lead))), None)
        if i is None:
            r[m] = p.pop(m)
            work[0] -= 1
            full = len(r) > MAX_TERMS
        else:
            shift, g = tuple(map(operator.sub, m, leads[i])), divisors[i]
            qs[i][shift] = c = _ratio(p[m], g[leads[i]])
            p = None if c is None else _sum(p, _shifted(g, shift, -c))
            work[0] -= len(g)
            full = len(qs[i]) > MAX_TERMS
        if p is None or full or work[0] < 0:
            return None
    return qs, r


def _combination(qs: Sequence[dict], reps: Sequence[list[dict]], count: int, work: list) -> Optional[list[dict]]:
    """The cofactors of sum q_l g_l over ``count`` polynomials, those of each
    g_l being ``reps[l]``; each product charged to ``work``."""
    out = []
    for j in range(count):
        total: Optional[dict] = {}
        for q, rep in zip(qs, reps):
            if q and rep[j]:
                work[0] -= len(q) * len(rep[j])
                total = _sum(total, _product(q, rep[j]))
                if total is None or work[0] < 0:
                    return None
        out.append(total)
    return out


def groebner(polys: Sequence[dict], work: Optional[list] = None) -> Optional[tuple[list[dict], list[list[dict]]]]:
    """The reduced Groebner basis of the ideal of ``polys`` under the graded
    order, each element monic, from the highest leading monomial down; and
    for each element g its cofactors over ``polys``, g = sum c_j polys[j].

    Buchberger's algorithm (1965): the S-polynomial of each pair, the pair
    of least common multiple first, is divided by the basis so far, and a
    nonzero remainder joins it.  A pair whose leading monomials are coprime
    reduces to 0 and is skipped (his first criterion).  Then an element
    whose leading monomial another's divides is dropped, and each is
    divided by the rest.  The worst case is doubly exponential (Mayr and
    Meyer 1982): None past ``MAX_BASIS`` elements, an S-polynomial of
    degree past ``MAX_DEGREE``, or a cap of ``divide`` and of the products,
    all of them drawing on one ``work``."""
    work = [MAX_WORK_TERMS] if work is None else work
    basis: list[dict] = []
    reps: list[list[dict]] = []
    leads: list[tuple] = []
    pairs: list[tuple] = []  # a heap of (order of the lcm, i, j)

    def join(p: dict, rep: list[dict]) -> bool:
        """Add p made monic, with its cofactors, and its pairs; False past a cap."""
        lead = _lead(p)
        c = p[lead]
        p, *rep = ({m: _ratio(v, c) for m, v in q.items()} for q in [p, *rep])
        if any(None in q.values() for q in [p, *rep]) or len(basis) == MAX_BASIS:
            return False
        for i, other in enumerate(leads):
            if any(map(min, other, lead)):
                heapq.heappush(pairs, (_order(tuple(map(max, other, lead))), i, len(basis)))
        basis.append(p)
        reps.append(rep)
        leads.append(lead)
        return True

    def reduced(p: dict, rep: list[dict], among: list[int]) -> Optional[tuple[dict, list[dict]]]:
        """The remainder of p, of cofactors ``rep``, by the elements ``among``, and its cofactors."""
        out = divide(p, [basis[k] for k in among], work)
        taken = None if out is None else _combination(out[0], [reps[k] for k in among], len(polys), work)
        rest = [] if taken is None else [_sum(r, {m: -c for m, c in t.items()}) for r, t in zip(rep, taken)]
        return None if taken is None or None in rest else (out[1], rest)

    for j, p in enumerate(polys):
        if p and not join(p, [{(0,) * len(_lead(p)): 1} if k == j else {} for k in range(len(polys))]):
            return None
    while pairs:
        (degree, top), i, j = heapq.heappop(pairs)
        if degree > MAX_DEGREE:
            return None
        si, sj = tuple(map(operator.sub, top, leads[i])), tuple(map(operator.sub, top, leads[j]))
        s = [_sum(_shifted(a, si, 1), _shifted(b, sj, -1)) for a, b in zip([basis[i], *reps[i]], [basis[j], *reps[j]])]
        out = None if None in s else reduced(s[0], s[1:], list(range(len(basis))))
        if out is None or out[0] and not join(*out):
            return None
    keep = [i for i, g in enumerate(leads) if not any(
        all(map(operator.ge, g, h)) and (g != h or k < i) for k, h in enumerate(leads) if k != i)]
    result = [reduced(basis[i], reps[i], [k for k in keep if k != i]) for i in keep]
    if None in result:
        return None
    result.sort(key=lambda gr: _order(_lead(gr[0])), reverse=True)
    return [g for g, _ in result], [rep for _, rep in result]


def cofactors(fs: Sequence[dict], polys: Sequence[dict]) -> Optional[tuple[list[dict], list[list[dict]]]]:
    """The ``groebner`` basis of the ideal of ``polys``, and for each f of
    ``fs`` polynomials c with f = sum c_j polys[j], where each f lies in the
    ideal: its remainder by the basis is 0 (Cox, Little and O'Shea, ch. 2,
    section 6).  None where one does not, or past a cap; one ``work`` bounds
    it all."""
    work = [MAX_WORK_TERMS]
    found = groebner(polys, work)
    if found is None:
        return None
    basis, reps = found
    rows = []
    for f in fs:
        out = divide(f, basis, work)
        row = None if out is None or out[1] else _combination(out[0], reps, len(polys), work)
        if row is None:
            return None
        rows.append(row)
    return basis, rows


def value(p: dict, point: Sequence):
    """``p`` at the point exactly, each coordinate an int, a ``Fraction`` or
    a float read as the rational it is; at an integer point, an int where
    the coefficients are."""
    point = [v if isinstance(v, int) else _rational(v) for v in point]
    return sum(c * math.prod(map(operator.pow, point, m)) for m, c in p.items())


def nonzero_point(p: dict) -> tuple[list[int], object]:
    """A point of {0..d}^n where the nonzero ``p``, of degree d, is not 0,
    and its exact value there.  Each coordinate in turn takes the first
    value of 0..d that leaves a nonzero polynomial in the others.  One
    does: the coefficient of each monomial in the others is a polynomial in
    the coordinate of degree at most d, and one of them that is not 0 has
    at most d roots (Schwartz 1980; Zippel 1979).  So at most n(d + 1)
    substitutions are made."""
    d, point = max(map(sum, p)), []
    for i in range(len(next(iter(p)))):
        for a in range(d + 1):
            rest: dict = {}
            for m, c in p.items():
                k = m[:i] + (0,) + m[i + 1:]
                if v := rest.pop(k, 0) + c * a ** m[i]:
                    rest[k] = v
            if rest:
                break
        p = rest
        point.append(a)
    return point, p[(0,) * len(point)]


def lie_derivative(xs: Sequence[dict], f: dict) -> Optional[dict]:
    """X f = sum x_i df/dx_i for the field of components ``xs``; None past a cap."""
    return functools.reduce(_sum, [_product(x, derivative(f, i)) for i, x in enumerate(xs)], {})


def to_expr(p: dict) -> Optional[Expr]:
    """``p`` as an ``Expr`` whose normal form is ``p``, its terms in the
    monomial order from the top, each after the first added or subtracted:
    an integral coefficient below 2^53 is an ``Integer``, any other a float
    or a quotient of two, whichever is exact; None where it is neither."""
    total: Optional[Expr] = None
    for m in sorted(p, key=_order, reverse=True):
        c = p[m] if total is None else abs(p[m])
        if (coefficient := _constant(c)) is None:
            return None
        powers = [Var(i) if k == 1 else Pow(Var(i), k) for i, k in enumerate(m) if k]
        term = functools.reduce(Mul, powers, coefficient) if c != 1 or not powers else functools.reduce(Mul, powers)
        total = term if total is None else Add(total, Neg(term) if p[m] < 0 else term)
    return Integer(0) if total is None else total


def _float(k) -> Optional[float]:
    """The int or ``Fraction`` ``k`` as a float where one is exactly ``k``."""
    try:
        v = float(k)
    except OverflowError:
        return None
    return v if v == k else None


def _constant(c) -> Optional[Expr]:
    """The coefficient ``c`` as an exact ``Const``, or a quotient of two."""
    def exact(v: float) -> Const:
        return Integer(v) if v.is_integer() and abs(v) < 2**53 else Const(v)

    if (v := _float(c)) is not None:
        return exact(v)
    num, den = _float(c.numerator), _float(c.denominator)
    return None if num is None or den is None else Div(exact(num), exact(den))


def invariance_cofactors(field: Sequence[Expr], cells: Sequence[Sequence[tuple[Expr, bool]]],
                         memo: Optional[dict] = None) -> Optional[list[tuple[list[Expr], list[list[Expr]]]]]:
    """The certificate that each cell, its constraints c given with whether
    each is an equality e, is invariant under the field X on R^n, n its
    components: for each cell the reduced ``groebner`` basis of I = (e_1,
    ..., e_m), and for each c_k a row of cofactors over the cell's
    constraints, X c_k = sum_l C_kl c_l, where C_kl is 0 for every
    inequality c_l but c_k, all as ``to_expr`` gives them.  None where a
    component has no normal form, or at the first cell where a constraint
    has none, some X e is not in I or some X g not in (g) + I, a cap is
    passed, or an entry has no exact ``Expr``; ``memo`` is ``normal_form``'s.

    Along a curve that starts where e = 0, e(x(t)) solves e' = H e with
    e(0) = 0, so it stays 0; there g' = h g, so g keeps its sign (> 0, = 0
    or < 0).  With every constraint read as an inequality, row k is X f_k =
    h f_k alone, h its own entry: f(x(t)) = f(x(0)) exp(int h), Darboux's
    rule (1878), so each cell, and their union, is invariant; and where
    every entry is 0, X f = 0 exactly, each f is a first integral, and no
    cell is left or entered.  The test is sufficient, not necessary: a
    field tangent only modulo the real radical of I is not certified."""
    n, memo = len(field), {} if memo is None else memo
    xs = [normal_form(e, n, memo) for e in field]
    if any(p is None for p in xs):
        return None
    out = []
    for cell in cells:
        fs = [normal_form(e, n, memo) for e, _ in cell]
        if any(p is None for p in fs):
            return None
        eqs = [k for k, (_, equality) in enumerate(cell) if equality]
        # the X e over the equalities, then each X g over g and the equalities
        groups = [(eqs, eqs)] + [([k], eqs + [k]) for k in range(len(fs)) if k not in eqs]
        rows, bases = [[]] * len(fs), []
        for of, gens in groups:
            xf = [lie_derivative(xs, fs[i]) for i in of]
            found = None if None in xf else cofactors(xf, [fs[i] for i in gens])
            if found is None:
                return None
            bases.append(found[0])
            for i, row in zip(of, found[1]):
                rows[i] = [row[gens.index(j)] if j in gens else {} for j in range(len(fs))]
        exprs = [[to_expr(p) for p in row] for row in [bases[0]] + rows]
        if any(e is None for row in exprs for e in row):
            return None
        out.append((exprs[0], exprs[1:]))
    return out


def rref(rows: Sequence[Sequence], width: int) -> Optional[tuple[list[list], list[int]]]:
    """The reduced row echelon form of ``rows``, lists of ints and
    ``Fraction``s, and its pivot columns, as sympy's ``rref``, pivots taken
    only in the first ``width`` columns: a later column is a right side, in
    their span exactly when it is 0 in the rows without a pivot, which come
    last.  None past ``MAX_ROWS``, ``MAX_COLUMNS``, an entry of ``MAX_BITS``
    bits or ``MAX_WORK``, each entry formed charged one plus its bit length.
    Denominators are cleared row by row, then a fraction-free Gauss-Jordan
    elimination (Bareiss 1968, *Math. Comp.* 22) keeps every entry an
    integer minor, a row with 0 in the pivot column scaled only when next
    read."""
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
                work += sum(v.bit_length() + 1 for v in new)
                if work > MAX_WORK or max(max(new), -min(new)).bit_length() > MAX_BITS:
                    return None
                stage[i] = len(dets)
        a[r], stage[r] = row, len(dets)
        dets.append(row[col])
        steps.append((col, r))
    d, order = dets[-1], [r for _, r in steps] + free
    return [[v // d if v % d == 0 else _rational(v) / d for v in current(i)] for i in order], [c for c, _ in steps]
