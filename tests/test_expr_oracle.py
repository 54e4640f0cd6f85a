"""Independent sympy oracle for differentiation and for the shipped bivectors.

Derivatives: random polynomial, quotient and trig trees are printed with
``to_text``, parsed by sympy, differentiated by ``sympy.diff`` and evaluated
at random points against ``compile_scalar(diff(e, i))``.

Bivectors: the Jacobiator {f,{g,h}} + {g,{h,f}} + {h,{f,g}} of each
scenario's bivector is built in sympy alone, from the scenario JSON text, on
generic quadratic f, g, h whose coefficients are symbols.  It expands to
exactly 0 for a Poisson bivector and not for the negative control.  The
compiled Schouten components J^ijk of each scenario are checked against
sympy's Jacobiator of the coordinate triple (x_i, x_j, x_k), which is J^ijk
because coordinates have constant gradients and no second derivatives.

Brackets: ``poisson.bracket`` and ``field.lie_bracket`` of random polynomial
bivectors, functions and fields, against the same brackets built in sympy
from the printed inputs.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcart.cli import load_scenario
from subcart.expr import Const, Var, add, compile_scalar, diff, div, fn, mul, pow_int, sub, to_text
from subcart.field import TangentField, lie_bracket
from subcart.poisson import PoissonStructure, bracket

from conftest import scenario_path

sympy = pytest.importorskip("sympy")

N_VARS = 3
REL_TOL = 1e-9
SYMBOLS = sympy.symbols(f"x1:{N_VARS + 1}")


def _to_sympy(text: str, names: dict):
    return sympy.parse_expr(text.replace("^", "**"), local_dict=names)


# Random trees ---------------------------------------------------------------

_coeff = st.sampled_from([-2.0, -1.5, -1.0, -0.5, 0.25, 0.5, 1.0, 2.0, 3.0])


@st.composite
def polys(draw, max_terms=3):
    """Sum of coefficient times monomial of degree at most 3."""
    e = Const(0.0)
    for _ in range(draw(st.integers(1, max_terms))):
        term = Const(draw(_coeff))
        for i in range(N_VARS):
            term = mul(term, pow_int(Var(i), draw(st.integers(0, 2))))
        e = add(e, term)
    return e


@st.composite
def smooth_trees(draw, depth=2):
    """Polynomials, quotients with denominators bounded away from zero, and
    sin, cos, exp, tanh, log and sqrt of them, combined by sums and products."""
    kind = draw(st.sampled_from(["poly", "quot", "trig", "sum", "prod"] if depth else ["poly"]))
    if kind == "poly":
        return draw(polys())
    if kind == "quot":
        # 1 + p^2 >= 1 and 2 + sin(p) >= 1
        den = add(Const(1.0), pow_int(draw(polys()), 2)) if draw(st.booleans()) \
            else add(Const(2.0), fn("sin", draw(polys())))
        return div(draw(smooth_trees(depth=depth - 1)), den)
    if kind == "trig":
        name = draw(st.sampled_from(["sin", "cos", "exp", "tanh", "log", "sqrt"]))
        inner = draw(smooth_trees(depth=depth - 1))
        if name in ("log", "sqrt"):
            inner = add(Const(0.5), pow_int(inner, 2))
        elif name == "exp":
            inner = fn("tanh", inner)  # keeps exp from overflowing
        return fn(name, inner)
    left, right = draw(smooth_trees(depth=depth - 1)), draw(smooth_trees(depth=depth - 1))
    return add(left, right) if kind == "sum" else sub(mul(left, right), right)


_points = st.lists(st.tuples(*[st.floats(-1.5, 1.5)] * N_VARS), min_size=1, max_size=3)


@given(smooth_trees(), _points)
@settings(max_examples=30, deadline=None)
def test_diff_matches_sympy(e, points):
    names = {f"x{i + 1}": s for i, s in enumerate(SYMBOLS)}
    oracle = _to_sympy(to_text(e), names)
    want = sympy.lambdify(SYMBOLS, [sympy.diff(oracle, xi) for xi in SYMBOLS], "math")
    got = [compile_scalar(diff(e, i)) for i in range(N_VARS)]
    for p in points:
        for i, w in enumerate(want(*p)):
            w = float(w)
            assert abs(got[i](p) - w) <= REL_TOL * max(1.0, abs(w)), (to_text(e), i, p)


# Jacobiator of the shipped bivectors ----------------------------------------

def _scenario_bivector(name: str):
    doc = json.loads(open(scenario_path(name), encoding="utf-8").read())
    rows = doc["poisson"]["bivector"]
    xs = sympy.symbols(f"x1:{len(rows) + 1}")
    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    names.update({alias: xs[i] for i, alias in enumerate(doc.get("aliases") or [])})
    return xs, [[_to_sympy(text, names) for text in row] for row in rows]


def _generic_quadratic(xs, prefix: str):
    monos = [sympy.Integer(1)] + list(xs) + [a * b for a, b in
                                              itertools.combinations_with_replacement(xs, 2)]
    coeffs = sympy.symbols(f"{prefix}0:{len(monos)}")
    return sum(c * m for c, m in zip(coeffs, monos))


def _jacobiator(xs, p, f, g, h):
    """Cyclic sum of nested brackets, as an expanded polynomial in xs and the
    coefficient symbols (sympy's sparse Poly arithmetic keeps this fast)."""
    n = len(xs)
    gens = sorted((f + g + h).free_symbols | set(xs), key=str)
    f, g, h = (sympy.Poly(e, *gens) for e in (f, g, h))
    p = [[sympy.Poly(e, *gens) for e in row] for row in p]

    def bracket(u, v):
        du = [u.diff(x) for x in xs]
        dv = [v.diff(x) for x in xs]
        return sum((p[i][j] * du[i] * dv[j] for i in range(n) for j in range(n)),
                   sympy.Poly(0, *gens))

    return (bracket(f, bracket(g, h)) + bracket(g, bracket(h, f))
            + bracket(h, bracket(f, g))).as_expr()


@pytest.mark.parametrize("name", ["canonical_r2", "reduction_r4", "jacobi_control"])
def test_bivector_jacobiator(name):
    xs, p = _scenario_bivector(name)
    f, g, h = (_generic_quadratic(xs, prefix) for prefix in "abc")
    jac = _jacobiator(xs, p, f, g, h)
    if name == "jacobi_control":
        # the negative control: on the coordinate triple the cyclic sum is x3
        assert jac != 0
        assert sympy.expand(_jacobiator(xs, p, *xs)) == xs[2]
    else:
        assert jac == 0


def _sympy_bracket(xs, p, u, v):
    n = len(xs)
    return sum(p[i][j] * sympy.diff(u, xs[i]) * sympy.diff(v, xs[j])
               for i in range(n) for j in range(n))


@pytest.mark.parametrize("name", ["canonical_r2", "reduction_r4", "jacobi_control"])
def test_schouten_components_match_sympy(name):
    xs, p = _scenario_bivector(name)
    n = len(xs)
    want = [[[sympy.lambdify(xs, sympy.expand(
        _sympy_bracket(xs, p, xs[i], _sympy_bracket(xs, p, xs[j], xs[k]))
        + _sympy_bracket(xs, p, xs[j], _sympy_bracket(xs, p, xs[k], xs[i]))
        + _sympy_bracket(xs, p, xs[k], _sympy_bracket(xs, p, xs[i], xs[j]))), "math")
        for k in range(n)] for j in range(n)] for i in range(n)]
    structure = load_scenario(scenario_path(name)).poisson
    points = [[0.5 + 0.25 * i - 0.75 * (i % 2) + 0.1 * t for i in range(n)] for t in range(4)]
    j, pm, sym = (np.array(t).reshape(len(points), n, *[n] * d)
                  for t, d in zip(structure.jacobi_tensors(points), (2, 1, 1)))
    for t, x in enumerate(points):
        for i, jj, k in itertools.product(range(n), repeat=3):
            w = float(want[i][jj][k](*x))
            assert abs(j[t, i, jj, k] - w) <= REL_TOL * max(1.0, abs(w)), (i, jj, k, x)
        for a, b in itertools.product(range(n), repeat=2):
            pab = float(p[a][b].subs(dict(zip(xs, x))))
            pba = float(p[b][a].subs(dict(zip(xs, x))))
            assert pm[t, a, b] == pytest.approx(pab, rel=REL_TOL, abs=REL_TOL)
            assert sym[t, a, b] == pytest.approx(pab + pba, rel=REL_TOL, abs=REL_TOL)
    if name != "jacobi_control":
        assert not j.any()


@given(st.lists(polys(), min_size=N_VARS * N_VARS, max_size=N_VARS * N_VARS),
       polys(), polys(), _points)
@settings(max_examples=25, deadline=None)
def test_poisson_bracket_matches_sympy(entries, f, g, points):
    names = {f"x{i + 1}": s for i, s in enumerate(SYMBOLS)}
    rows = [entries[N_VARS * i: N_VARS * (i + 1)] for i in range(N_VARS)]
    p = [[_to_sympy(to_text(e), names) for e in row] for row in rows]
    oracle = _sympy_bracket(SYMBOLS, p, _to_sympy(to_text(f), names), _to_sympy(to_text(g), names))
    want = sympy.lambdify(SYMBOLS, oracle, "math")
    got = compile_scalar(bracket(PoissonStructure(N_VARS, rows), f, g))
    for x in points:
        w = float(want(*x))
        assert abs(got(x) - w) <= REL_TOL * max(1.0, abs(w)), (to_text(f), to_text(g), x)


@given(st.lists(polys(), min_size=2 * N_VARS, max_size=2 * N_VARS), _points)
@settings(max_examples=25, deadline=None)
def test_lie_bracket_matches_sympy(comps, points):
    names = {f"x{i + 1}": s for i, s in enumerate(SYMBOLS)}
    x_field = TangentField("X", comps[:N_VARS])
    y_field = TangentField("Y", comps[N_VARS:])
    xs = [_to_sympy(to_text(c), names) for c in x_field.components]
    ys = [_to_sympy(to_text(c), names) for c in y_field.components]
    # [X,Y]_i = X(Y_i) - Y(X_i)
    oracle = [sum(xs[j] * sympy.diff(ys[i], SYMBOLS[j]) - ys[j] * sympy.diff(xs[i], SYMBOLS[j])
                  for j in range(N_VARS)) for i in range(N_VARS)]
    want = sympy.lambdify(SYMBOLS, oracle, "math")
    got = lie_bracket(x_field, y_field)
    for x in points:
        for gi, wi in zip(got.value(list(x)), want(*x)):
            wi = float(wi)
            assert abs(gi - wi) <= REL_TOL * max(1.0, abs(wi)), (str(x_field), str(y_field), x)
