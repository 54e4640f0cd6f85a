"""poly's exact elimination, derivative, division, first integrals and way
back to ``Expr`` against sympy, its caps, the normal form's memo, and the
invariance certificate of ``classify`` re-verified in sympy from the
scenario text."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import subcart
from subcart.cli import main
from subcart.expr import Integer, parse, to_text
from subcart.poisson import PoissonStructure, bracket
from subcart.poly import (
    MAX_BITS, MAX_COLUMNS, MAX_ROWS, cofactors, derivative, divide, first_integrals, groebner, nonzero_point,
    normal_form, rref, to_expr, value,
)

from conftest import scenario_path

SRC_DIR = str(Path(subcart.__file__).resolve().parent.parent)
R4_INVARIANTS = ("x1^2+x2^2", "x3^2+x4^2", "x1*x3+x2*x4", "x1*x4-x2*x3")


@st.composite
def matrices(draw, entries, max_rows: int = 7, max_columns: int = 8):
    """A matrix of ``entries``, half of them 0, with a last row that is
    often a combination of two others, so that dependent rows, zero
    columns and rank deficiency are common."""
    rows, columns = draw(st.integers(1, max_rows)), draw(st.integers(1, max_columns))
    cell = st.one_of(st.just(0), entries)
    m = draw(st.lists(st.lists(cell, min_size=columns, max_size=columns), min_size=rows, max_size=rows))
    if rows > 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[-1] = [a * u + b * v for u, v in zip(m[0], m[1])]
    return m


_INTEGERS = st.integers(-9, 9)
_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=7)


def _sympy_rref(m):
    reduced, pivots = sympy.Matrix(m).rref()
    return [[Fraction(int(v.p), int(v.q)) for v in reduced.row(i)] for i in range(len(m))], list(pivots)


@pytest.mark.parametrize("entries", [_INTEGERS, _RATIONALS], ids=["integer", "rational"])
@given(data=st.data())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_rref_is_sympys(entries, data):
    m = data.draw(matrices(entries))
    got, pivots = rref(m, len(m[0]))
    assert (got, pivots) == _sympy_rref(m)
    assert len(pivots) == sympy.Matrix(m).rank()
    # a Fraction only where the entry is no integer
    assert all(type(v) is int or v.denominator > 1 for row in got for v in row)


@given(data=st.data())
@settings(derandomize=True, max_examples=150, deadline=None)
def test_rref_solves_the_columns_past_its_width(data):
    # pivots only among the first `width` columns: those are sympy's pivots of
    # that block, a right side is in its span exactly when no row without a
    # pivot has a nonzero entry there, and the pivot rows then give a solution
    m = data.draw(matrices(_RATIONALS))
    width = data.draw(st.integers(0, len(m[0])))
    got, pivots = rref(m, width)
    a = sympy.Matrix(m)[:, :width]
    assert pivots == (list(a.rref()[1]) if width else [])
    for j in range(width, len(m[0])):
        b = sympy.Matrix(m)[:, j]
        inside = a.rank() == sympy.Matrix.hstack(a, b).rank() if width else not any(b)
        assert inside == (not any(row[j] for row in got[len(pivots):]))
        if inside:
            x = [0] * width
            for row, col in zip(got, pivots):
                x[col] = row[j]
            assert [sum(Fraction(r[k]) * x[k] for k in range(width)) for r in m] == [Fraction(r[j]) for r in m]


def test_rref_of_no_rows_and_of_zero_rows():
    assert rref([], 0) == ([], [])
    assert rref([[0, 0], [0, 0]], 2) == ([[0, 0], [0, 0]], [])


def test_rref_reduces_a_matrix_at_its_caps_and_refuses_one_past_them():
    # the unit rows of MAX_COLUMNS columns, then zero rows up to MAX_ROWS:
    # each pivot touches one row, so this is quick
    at = [[int(i == j) for j in range(MAX_COLUMNS)] for i in range(MAX_ROWS)]
    assert rref(at, MAX_COLUMNS) == (at, list(range(MAX_COLUMNS)))
    assert rref(at + [[0] * MAX_COLUMNS], MAX_COLUMNS) is None
    assert rref([row + [0] for row in at[:1]], MAX_COLUMNS) is None
    assert rref([[2**MAX_BITS - 1]], 1) == ([[1]], [0])
    assert rref([[2**MAX_BITS]], 1) is None
    # a denominator is cleared first, so it counts towards the bits
    assert rref([[Fraction(1, 2**MAX_BITS), 1]], 2) is None
    # entries of MAX_BITS - 1 bits whose 2 x 2 minor has about twice that
    big = 2**(MAX_BITS - 1) + 1
    assert rref([[big, big - 2], [big - 2, big]], 2) is None


# Each matrix is within the size caps, and each is reduced in a child
# process, timed there: the answer, and its seconds.  The dense one forms
# some 2^18 entries per pivot, and took 44 s to reduce without a work cap.
# The two of long entries form fewer entries, but each costs more: charged
# per entry, the 512-bit one ran 3.8 s to reach the bits cap and the 64-bit
# one 2.0 s to reduce.  A quarter of the dense one's rows is within the cap.
_WORK_CHILD = """
import json, random, sys, time
from subcart.poly import MAX_COLUMNS, MAX_ROWS, rref

def wide(bits):
    rng = random.Random(0)
    return [[rng.getrandbits(bits) - 2 ** (bits - 1) for _ in range(32)] for _ in range(MAX_ROWS)], 32

rng = random.Random(0)
dense = [[rng.randint(-9, 9) for _ in range(MAX_COLUMNS)] for _ in range(MAX_ROWS)]
cases = {"dense": (dense, MAX_COLUMNS), "512-bit": wide(512), "64-bit": wide(64),
         "quarter": (dense[: MAX_ROWS // 4], 16)}
out = {}
for name, (rows, width) in cases.items():
    start = time.perf_counter()
    reduced = rref(rows, width)
    out[name] = [reduced is not None, time.perf_counter() - start]
print(json.dumps(out))
"""


def test_rref_refuses_a_dense_matrix_past_its_work():
    proc = subprocess.run([sys.executable, "-c", _WORK_CHILD], capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {name: reduced for name, (reduced, _) in out.items()} == {
        "dense": False, "512-bit": False, "64-bit": False, "quarter": True}
    assert out["dense"][1] < 5.0 and out["512-bit"][1] < 1.0 and out["64-bit"][1] < 1.0, out


@pytest.mark.parametrize("seed", range(10))
def test_rref_solves_a_dependent_system(seed):
    # 120 x 15, each row over a denominator of its own and the last column
    # twice the fourth: an exact dependency, so the fourth column's pivot
    # leaves the last free, and a right side A x is solved exactly with the
    # free unknown 0
    rng = random.Random(seed)
    a = [[Fraction(rng.randint(-9, 9), d) for _ in range(14)] for d in [rng.randint(1, 6) for _ in range(120)]]
    a = [row + [2 * row[3]] for row in a]
    x = [rng.randint(-9, 9) for _ in range(15)]
    b = [sum(c * v for c, v in zip(row, x)) for row in a]
    got, pivots = rref([row + [v] for row, v in zip(a, b)], 15)
    assert pivots == list(range(14))
    assert [row[15] for row in got[:14]] == [*x[:3], x[3] + 2 * x[14], *x[4:14]]
    assert all(v == 0 for row in got[14:] for v in row)


def test_a_shared_memo_outlives_the_trees_it_read():
    # each bracket is built, read and dropped in the loop; a memo keyed by
    # id alone read a later tree's node at a dead node's id and answered
    # another bracket's form for 12 of these 16
    amb = PoissonStructure.canonical(2)
    sigma = [parse(t, 4) for t in R4_INVARIANTS]
    memo: dict = {}
    for f in sigma:
        for g in sigma:
            assert normal_form(bracket(amb, f, g), 4, memo) == normal_form(bracket(amb, f, g), 4)


def _ambient_monomials(count: int) -> list[str]:
    """``count`` distinct monomials in q1..q4 of degree 1 to 12."""
    exps = [(a, b, c, d) for a in range(13) for b in range(13) for c in range(13) for d in range(13)
            if 0 < a + b + c + d <= 12]
    return ["*".join(f"q{i + 1}^{k}" for i, k in enumerate(e) if k) for e in exps[:count]]


def _reduction(invariants: list[str], degree: int, ambient_dim: int = 4) -> dict:
    return {"name": "past-caps", "space": {"ambient_dim": 1, "cells": [[]], "locally_closed": True},
            "fields": {}, "reduction": {"ambient_dim": ambient_dim, "invariants": invariants, "degree": degree,
                                        "aliases": [f"q{i + 1}" for i in range(ambient_dim // 2)]
                                        + [f"p{i + 1}" for i in range(ambient_dim // 2)]}}


_MONOMIALS = _ambient_monomials(1250)
_QUADRATIC = [(i, j) for i in range(10) for j in range(i, 10)]
# a reduction past each cap of the exact solve, and the line it exits 2 with
PAST_CAPS = {
    # 330 monomials of four invariants up to degree 7
    "columns": (_reduction(["q1", "q2", "p1", "p2"], 7),
                "error: 330 monomials of 4 invariants up to degree 7 and 6 brackets are past "
                "the exact solve's 256 columns\n"),
    # five invariants in q alone, of 250 ambient monomials each in sums of
    # 50, within the parser's depth, all brackets 0
    "rows": (_reduction([" + ".join(f"({' + '.join(_MONOMIALS[j : j + 50])})" for j in range(k, k + 250, 50))
                         for k in range(0, 1250, 250)], 1, 8),
             "error: the bracket table's system of 1251 ambient monomials by 16 columns is past "
             "the exact solve's caps\n"),
    # s1^5 has a coefficient near 2^4983
    "bits": (_reduction(["1e300*(q1^2+q2^2)", "p1^2+p2^2", "q1*p1+q2*p2", "q1*p2-q2*p1"], 5),
             "error: the bracket table's system of 545 ambient monomials by 132 columns is past "
             "the exact solve's caps\n"),
    # 15 quadratics of 16 terms each in 10 variables: 241 columns, and a
    # system dense enough that reducing it formed 19 million entries in 5 s
    "work": (_reduction([" + ".join(f"{rng.randint(1, 5)}*x{i + 1}*x{j + 1}" for i, j in rng.sample(_QUADRATIC, 16))
                         for rng in [random.Random(1)] for _ in range(15)], 2, 10),
             "error: the bracket table's system of 759 ambient monomials by 241 columns is past "
             "the exact solve's caps\n"),
}


@pytest.mark.parametrize("cap", sorted(PAST_CAPS))
def test_reduce_past_a_cap_exits_2_at_once(tmp_path, cap):
    doc, says = PAST_CAPS[cap]
    path = tmp_path / f"{cap}.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "subcart", "reduce", "--scenario", str(path)],
                          capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", says)
    assert time.perf_counter() - start < 5.0


def test_the_shipped_reduction_is_within_the_caps_at_degree_5(tmp_path, capsys):
    # the system of the degree-5 table has 545 rows and 132 columns
    doc = json.loads(open(scenario_path("reduction_r4"), encoding="utf-8").read())
    doc["reduction"]["degree"] = 5
    path = tmp_path / "r5.json"
    path.write_text(json.dumps(doc))
    assert main(["reduce", "--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["meta"]["table"] == {
        "{s1,s2}": "4.0*x3", "{s1,s3}": "2.0*x1", "{s1,s4}": "0.0", "{s2,s3}": "(-2.0)*x2", "{s2,s4}": "0.0",
        "{s3,s4}": "0.0"}


# Derivative, division and to_expr against sympy ---------------------------------

_X = sympy.symbols("x1:4")


@st.composite
def polynomials(draw, coefficients=_RATIONALS, max_terms: int = 5, max_exponent: int = 3):
    """A polynomial in x1..x3 as ``normal_form`` gives one: exponent tuples
    to nonzero ints and ``Fraction``s, an integral one an int."""
    p = draw(st.dictionaries(st.tuples(*[st.integers(0, max_exponent)] * 3), coefficients, max_size=max_terms))
    return {m: int(c) if c.denominator == 1 else c for m, c in p.items() if c}


def _sympy(p: dict):
    return sum((sympy.Rational(c.numerator, c.denominator) * sympy.prod(x**k for x, k in zip(_X, m))
                for m, c in p.items()), sympy.Integer(0))


def _poly(e) -> dict:
    """A sympy polynomial in x1..x3 as a dict like ``normal_form``'s."""
    terms = sympy.Poly(e, *_X).terms() if e != 0 else []
    return {m: int(c) if c.q == 1 else Fraction(int(c.p), int(c.q)) for m, c in terms if c}


@given(polynomials(), st.integers(0, 2))
@settings(derandomize=True, max_examples=150, deadline=None)
def test_derivative_is_sympys(p, i):
    assert derivative(p, i) == _poly(sympy.diff(_sympy(p), _X[i]))


@given(polynomials(max_terms=4, max_exponent=2), polynomials(max_terms=3, max_exponent=2),
       polynomials(max_terms=3, max_exponent=2), st.booleans())
@settings(derandomize=True, max_examples=200, deadline=None)
def test_divide_answers_a_quotient_exactly_where_sympys_remainder_is_0(f, g, q, multiple):
    # half the dividends are a multiple of g, so both answers are common;
    # the remainder of one divisor is 0 exactly when g divides f, in any order
    if not g:
        return
    if multiple:
        f = _poly(sympy.expand(_sympy(q) * _sympy(g)))
    quotient, remainder = sympy.div(_sympy(f), _sympy(g), *_X)
    (got,), rest = divide(f, [g])
    assert (not rest) == (sympy.expand(remainder) == 0)
    if not rest:
        assert got == _poly(sympy.expand(quotient))


@given(polynomials(max_terms=5, max_exponent=3), st.lists(polynomials(max_terms=3, max_exponent=2), max_size=3))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_divide_is_sympys_reduced(f, divisors):
    # the quotients and the remainder, term for term, of sympy's division
    # by several polynomials in order under grlex, x1 > x2 > x3
    divisors = [g for g in divisors if g]
    quotients, remainder = divide(f, divisors)
    if not f:  # sympy gives no quotients for 0
        assert (quotients, remainder) == ([{}] * len(divisors), {})
        return
    want_q, want_r = sympy.reduced(_sympy(f), [_sympy(g) for g in divisors], *_X, order="grlex") if divisors \
        else ([], _sympy(f))
    assert quotients == [_poly(sympy.expand(q)) for q in want_q]
    assert remainder == _poly(sympy.expand(want_r))


def test_divide_by_zero_and_of_zero():
    assert divide({}, [{}]) == ([{}], {}) and divide({(1,): 1}, [{}]) == ([{}], {(1,): 1})
    assert divide({}, [{(1,): 3}]) == ([{}], {}) and divide({(1,): 1}, []) == ([], {(1,): 1})
    assert divide({(2,): 1}, [{(1,): 3}]) == ([{(1,): Fraction(1, 3)}], {})


def _monic(p: dict) -> dict:
    lead = max(p, key=lambda m: (sum(m), m))
    return {m: Fraction(c) / p[lead] for m, c in p.items()}


@given(st.lists(polynomials(_INTEGERS, max_terms=3, max_exponent=2), min_size=1, max_size=3))
@settings(derandomize=True, max_examples=100, deadline=None)
def test_groebner_is_sympys(polys):
    # the reduced basis is unique: sympy's under grlex, each made monic, in
    # the same order; and each element is the combination of the generators
    # its cofactors say.  These are all within the caps
    found = groebner(polys)
    nonzero = [p for p in polys if p]
    if not nonzero:
        assert found == ([], [])
        return
    want = sympy.groebner([_sympy(p) for p in nonzero], *_X, order="grlex", domain=sympy.QQ)
    basis, reps = found
    assert basis == [_monic(_poly(sympy.expand(g))) for g in want.exprs]
    for g, rep in zip(basis, reps):
        assert len(rep) == len(polys)
        assert sympy.expand(sum((_sympy(c) * _sympy(p) for c, p in zip(rep, polys)), sympy.Integer(0))
                            - _sympy(g)) == 0


@given(st.lists(polynomials(_INTEGERS, max_terms=3, max_exponent=2), min_size=1, max_size=3),
       polynomials(max_terms=3, max_exponent=1), st.booleans())
@settings(derandomize=True, max_examples=100, deadline=None)
def test_cofactors_answer_exactly_sympys_membership(polys, f, inside):
    # half the polynomials are a combination of the generators; cofactors
    # are found exactly where sympy's basis contains f, and they give f back
    if inside:
        f = _poly(sympy.expand(sum((_sympy(f) * _sympy(p) * (k + 1) for k, p in enumerate(polys)),
                                   sympy.Integer(0))))
    got = cofactors([f], polys)
    nonzero = [_sympy(p) for p in polys if p]
    member = sympy.groebner(nonzero, *_X, order="grlex", domain=sympy.QQ).contains(_sympy(f)) if nonzero else not f
    assert (got is not None) == member
    if got is not None:
        (row,) = got[1]
        assert sympy.expand(sum((_sympy(c) * _sympy(p) for c, p in zip(row, polys)), sympy.Integer(0))
                            - _sympy(f)) == 0


@given(polynomials(), st.lists(st.one_of(_RATIONALS, st.integers(-5, 5), st.floats(-1e3, 1e3)), min_size=3,
                                max_size=3))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_value_is_sympys(p, point):
    # each float read as the rational it is
    exact = [sympy.Rational(Fraction(v)) if isinstance(v, float) else sympy.Rational(v.numerator, v.denominator)
             if isinstance(v, Fraction) else sympy.Integer(v) for v in point]
    want = _sympy(p).subs(dict(zip(_X, exact)))
    got = value(p, point)
    assert Fraction(got) == Fraction(int(want.p), int(want.q))


@given(polynomials(max_terms=4, max_exponent=2), st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=4))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_nonzero_point_is_a_grid_point_where_sympy_is_not_0(p, roots):
    # each factor x_i - a is 0 on a plane of the grid {0..d}^3, which the
    # search must step past, a twice over where the factor repeats
    q = sympy.expand(_sympy(p) * sympy.prod([_X[i] - a for i, a in roots]))
    assume(q != 0)
    p = _poly(q)
    point, v = nonzero_point(p)
    degree = sympy.Poly(q, *_X).total_degree()
    assert len(point) == 3 and all(isinstance(c, int) and 0 <= c <= degree for c in point)
    want = q.subs(dict(zip(_X, point)))
    assert want != 0 and Fraction(v) == Fraction(int(want.p), int(want.q))
    assert isinstance(v, int) or not all(isinstance(c, int) for c in p.values())


def test_first_integrals_answer_only_what_the_normal_form_reads():
    # X f = 0 exactly; a constant is a first integral of any field
    rot = [parse("-x2", 2), parse("x1", 2)]
    assert first_integrals(rot, [parse("x1^2 + x2^2 - 1", 2), parse("3", 2)])
    assert first_integrals(rot, [])
    assert not first_integrals(rot, [parse("x1^2 + x2^2", 2), parse("x1", 2)])
    # exp(x1^2 + x2^2) is constant along rot too, but has no normal form, and
    # neither has a field written with exp; X f past MAX_TERMS is refused
    assert not first_integrals(rot, [parse("exp(x1^2 + x2^2)", 2)])
    assert not first_integrals([parse("-x2*exp(0*x1)", 2), parse("x1", 2)], [parse("x1^2 + x2^2", 2)])
    # rot scaled by s^3 keeps x1^2 + x2^2 times any function of x3..x6, but
    # its products take 20 terms times the 15 of each df/dx_i
    s = "(x3 + x4 + x5 + x6)"
    field = [parse(text, 6) for text in (f"-x2*{s}^3", f"x1*{s}^3", "0", "0", "0", "0")]
    f = parse(f"(x1^2 + x2^2)*({s} + 1)^2", 6)
    assert None not in [normal_form(e, 6) for e in field + [f]]
    assert first_integrals(field, [parse("x1^2 + x2^2", 6)]) and not first_integrals(field, [f])


_FLOAT_COEFFICIENTS = st.one_of(_RATIONALS, st.floats(-1e6, 1e6).filter(bool).map(Fraction))


@given(polynomials(_FLOAT_COEFFICIENTS))
@settings(derandomize=True, max_examples=200, deadline=None)
def test_to_expr_gives_back_the_normal_form(p):
    # the tree, and sympy's reading of its printed text, are p exactly
    e = to_expr(p)
    assert normal_form(e, 3) == p
    text = sympy.parse_expr(to_text(e).replace("^", "**"), local_dict=dict(zip(("x1", "x2", "x3"), _X)))
    assert _poly(text.xreplace({f: sympy.Rational(float(f)) for f in text.atoms(sympy.Float)})) == p


def test_to_expr_prints_in_the_monomial_order():
    # by degree, then lexicographically; an integral coefficient as an
    # integer, any other as the float it is or as a quotient of integers
    assert to_text(to_expr({})) == "0" and isinstance(to_expr({}), Integer)
    assert to_text(to_expr(normal_form(parse("3 - x3 + x1*x2 - 2*x1^2 + x2", 3), 3))) == \
        "(-2)*x1^2 + x1*x2 + x2 - x3 + 3"
    assert to_text(to_expr(normal_form(parse("x2 - x1^2", 3), 3))) == "(-1)*x1^2 + x2"
    assert to_text(to_expr({(1, 0, 0): Fraction(1, 3), (0, 0, 0): Fraction(-1, 10)})) == "1/3*x1 - 1/10"
    assert to_text(to_expr({(0, 1, 0): Fraction(-1, 3)})) == "(-1)/3*x2"
    assert to_text(to_expr({(0, 0, 2): Fraction(1, 2), (0, 0, 0): Fraction(0.1)})) == "0.5*x3^2 + 0.1"
    assert to_text(to_expr({(0, 0, 0): 2**60})) == "1.152921504606847e+18"
    # a coefficient that is no float and no quotient of two
    assert to_expr({(0, 0, 0): Fraction(1, 3**40)}) is None
    assert to_expr({(0, 0, 0): 2**2000}) is None


# The invariance certificate of classify -------------------------------------------

# the pairs ROADMAP item 15 certifies, with their quotients h, one a constraint
CERTIFIED = [("halfline", "xddx", [["1"]]), ("circle", "rot", [["0"]]), ("rotation_plane", "rot", [["0"]]),
             ("cone", "euler", [["2", "1"]]), ("cone", "rot", [["0", "0"]])]


@pytest.mark.parametrize("name,field,quotients", CERTIFIED, ids=[f"{n}-{f}" for n, f, _ in CERTIFIED])
def test_each_certified_quotient_is_sympys(capsys, name, field, quotients):
    # X f - h f expands to 0 in sympy, built from the scenario's text alone
    # with each float the rational it is, h read from the printed report
    doc = json.loads(open(scenario_path(name), encoding="utf-8").read())
    xs = sympy.symbols(f"x1:{doc['space']['ambient_dim'] + 1}")
    names = {**dict(zip(doc.get("aliases", []), xs)), **{f"x{i + 1}": x for i, x in enumerate(xs)}}

    def read(text: str):
        e = sympy.parse_expr(text.replace("^", "**"), local_dict=names)
        return e.xreplace({f: sympy.Rational(float(f)) for f in e.atoms(sympy.Float)})

    assert main(["classify", "--scenario", scenario_path(name), "--field", field]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["basis"], result["quotients"], result["probes_run"]) == ("exact", quotients, 0)
    components = [read(t) for t in doc["fields"][field]]
    for cell, hs in zip(doc["space"]["cells"], result["quotients"]):
        assert len(cell) == len(hs)
        for constraint, h in zip(cell, hs):
            f = read(constraint["expr"])
            xf = sum(c * sympy.diff(f, x) for c, x in zip(components, xs))
            assert sympy.expand(xf - read(h) * f) == 0, (constraint, h)


# classify on a field or constraint past a cap of the normal form, and on a
# pair whose X f passes MAX_TERMS, in a child process: whether the
# certificate answered None and its seconds, and whether the report is the
# one of the sampler called directly, as the CLI's was before the certificate
_BOUNDED_CHILD = """
import contextlib, io, json, sys, time
from dataclasses import asdict
from subcart.cli import load_scenario, main
from subcart.flow import FlowOptions, classify_vector_field
from subcart.poly import darboux_quotients
from subcart.report import canonical_json
out = {}
for path in sys.argv[1:]:
    sc = load_scenario(path)
    fld = sc.fields["v"]
    start = time.perf_counter()
    certified = darboux_quotients(fld.components, [[c.expr for c in cell] for cell in sc.space.cells])
    seconds = time.perf_counter() - start
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        main(["classify", "--scenario", path, "--field", "v"])
    sampled = classify_vector_field(sc.space, fld, sc.seeds["default"], options=FlowOptions())
    same = canonical_json(json.loads(printed.getvalue())["result"]) == canonical_json(asdict(sampled))
    out[sc.name] = [certified is None, seconds, same]
print(json.dumps(out))
"""

# name: ambient dimension, the one cell's constraint, the field v
CLASSIFY_PAST_CAPS = {
    # a component past MAX_DEGREE
    "degree": (1, "-x1", ["x1^13"]),
    # a constraint past MAX_TERMS: (x1 + x2 + x3 + 1)^6 has 84 terms, so the
    # product that makes its 6th power is 84 x 4 terms
    "terms": (3, "(x1 + x2 + x3 + 1)^12 - 1e9", ["-x2", "x1", "0"]),
    # within the caps each, but X f = 0.002 (s + 1)^4 s, s = x1 + ... + x4,
    # is a product of 70 x 4 terms
    "xf": (4, "(x1 + x2 + x3 + x4)^2 - 1", ["0.001*(x1 + x2 + x3 + x4 + 1)^4", "0", "0", "0"]),
}


def test_classify_past_a_cap_falls_back_to_the_sampler_at_once(tmp_path):
    paths = []
    for name, (n, constraint, field) in CLASSIFY_PAST_CAPS.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({
            "name": name, "space": {"ambient_dim": n, "cells": [[{"expr": constraint, "rel": "lt0"}]]},
            "fields": {"v": field}, "seeds": {"default": [[0.1] * n]}}), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _BOUNDED_CHILD, *map(str, paths)], capture_output=True, text=True,
                          timeout=5, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {name: (uncertified, same) for name, (uncertified, _, same) in out.items()} == {
        name: (True, True) for name in CLASSIFY_PAST_CAPS}
    assert max(seconds for _, seconds, _ in out.values()) < 0.5, out


# The tangency certificate of strata past its caps ----------------------------------

# strata --check tangency on a stratum past a cap of the certificate, in a
# child process: whether the exact stage answered None and its seconds, and
# whether the CLI's result is the sampled check's, called directly
_STRATA_CHILD = """
import contextlib, io, json, sys, time
from dataclasses import asdict
from subcart.cli import load_scenario, main
from subcart.flow import FlowOptions
from subcart.report import canonical_json
from subcart.strata import _exact_tangency, strongly_stratified_check
out = {}
for path in sys.argv[1:]:
    sc = load_scenario(path)
    fld = sc.fields["v"]
    start = time.perf_counter()
    exact = _exact_tangency(sc.stratified, fld, [p for ps in sc.seeds.values() for p in ps])
    seconds = time.perf_counter() - start
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        main(["strata", "--check", "tangency", "--scenario", path, "--field", "v"])
    drift = sc.tolerances.get("drift", 1e-8)
    sampled = strongly_stratified_check(sc.stratified, fld, *sc.box, drift_tol=drift, options=FlowOptions())
    same = canonical_json(json.loads(printed.getvalue())["result"]) == canonical_json(
        {**asdict(sampled), "declared_locally_trivial": False})
    out[sc.name] = [exact is None, seconds, same]
print(json.dumps(out))
"""

_LINES = ["x1+2*x2-x3+x4+x5+1", "x1-x2+2*x3+x4-x5+2", "2*x1+x2-x3-x4+x5+3", "x1+x2+x3-2*x4+x5+4"]
# name: ambient dimension, the equalities of the one stratum, the field v
STRATA_PAST_CAPS = {
    # the curve x_i = x1^i: its basis of 29 elements passes MAX_BASIS on
    # the way; v is its tangent, which the sampled check passes at drift 1e-4
    "basis": (7, [f"x{i}-x1^{i}" for i in range(2, 8)], ["1"] + [f"{i}*x1^{i - 1}" for i in range(2, 8)]),
    # the S-polynomial of x1^7 x2 - 1 and x1 x2^7 - 1 has degree 14
    "degree": (2, ["x1^7*x2 - 1", "x1*x2^7 - 1"], ["-x2", "x1"]),
    # x_i times a line: past MAX_WORK_TERMS terms formed, in about 0.4 s;
    # without that cap a cofactor passes MAX_TERMS later
    "work": (5, [f"x{i + 1}*({line})" for i, line in enumerate(_LINES)], ["0", "0", "0", "0", "1"]),
    # X f = 0.002 (s + 1)^4 s, s = x1 + ... + x4, a product of 70 x 4 terms
    "xf": (4, ["(x1 + x2 + x3 + x4)^2 - 1"], ["0.001*(x1 + x2 + x3 + x4 + 1)^4", "0", "0", "0"]),
}


def test_strata_past_a_cap_falls_back_to_the_sampled_check_at_once(tmp_path):
    paths = []
    for name, (n, equalities, field) in STRATA_PAST_CAPS.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps({
            "name": name, "space": {"ambient_dim": n, "cells": [[]]}, "fields": {"v": field},
            "strata": [{"name": "s", "dim": 1, "cells": [[{"expr": e, "rel": "eq0"} for e in equalities]]}],
            "box": [[-2.0] * n, [2.0] * n], "tolerances": {"drift": 1e-4}}), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-c", _STRATA_CHILD, *map(str, paths)], capture_output=True, text=True,
                          timeout=5, env=dict(os.environ, PYTHONPATH=SRC_DIR))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert {name: (uncertified, same) for name, (uncertified, _, same) in out.items()} == {
        name: (True, True) for name in STRATA_PAST_CAPS}
    assert max(seconds for _, seconds, _ in out.values()) < 1.5, out
