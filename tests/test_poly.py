"""poly's exact elimination against sympy, its caps, and the normal form's memo."""

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
from hypothesis import given, settings
from hypothesis import strategies as st

import subcart
from subcart.cli import main
from subcart.expr import parse
from subcart.poisson import PoissonStructure, bracket
from subcart.poly import MAX_BITS, MAX_COLUMNS, MAX_ROWS, normal_form, rref

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


def test_rref_refuses_a_dense_matrix_past_its_work():
    # within the size caps, but each pivot forms some 2^18 entries, so the
    # work cap ends it after a few dozen: a dense 512 x 256 integer matrix
    # took 44 s to reduce without this cap
    rng = random.Random(0)
    dense = [[rng.randint(-9, 9) for _ in range(MAX_COLUMNS)] for _ in range(MAX_ROWS)]
    start = time.perf_counter()
    assert rref(dense, MAX_COLUMNS) is None
    assert time.perf_counter() - start < 5.0
    # a quarter of its rows is within the cap
    assert rref(dense[: MAX_ROWS // 4], 16) is not None


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
