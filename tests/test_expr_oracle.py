"""Independent sympy oracle for differentiation and for the shipped bivectors.

Derivatives: random polynomial, quotient and trig trees are printed with
``to_text``, parsed by sympy, differentiated by ``sympy.diff`` and evaluated
at random points against ``compile_scalar(diff(e, i))``.

Bivectors: the Jacobiator {f,{g,h}} + {g,{h,f}} + {h,{f,g}} of each
scenario's bivector is built in sympy alone, from the scenario JSON text, on
generic quadratic f, g, h whose coefficients are symbols.  It expands to
exactly 0 for a Poisson bivector and not for the negative control.
"""

from __future__ import annotations

import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcart.expr import Const, Var, add, compile_scalar, diff, div, fn, mul, pow_int, sub, to_text

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
