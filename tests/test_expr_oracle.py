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

Normal form: ``poly.normal_form`` of every shipped scenario expression, and
of the Schouten and P + P^T components the Jacobi check keeps, against
``sympy.expand`` of the same text with each float made the rational number
it is.  A component is pruned exactly where sympy expands it to 0.

Nijenhuis tensor: the components N^k_ij an almost complex structure builds
once, against N(e_i, e_j) = 2([Je_i, Je_j] - J[Je_i, e_j] - J[e_i, Je_j])
built from sympy's Lie brackets of the matrix read from the JSON text.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcart.almostcomplex import AlmostComplexStructure
from subcart.cli import load_scenario
from subcart.expr import Const, Var, add, compile_scalar, diff, div, fn, mul, parse, pow_int, sub, to_text
from subcart.field import TangentField, lie_bracket
from subcart.poisson import PoissonStructure, bracket
from subcart.poly import normal_form

from conftest import SCENARIO_DIR, scenario_path

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


# The exact normal form -------------------------------------------------------

def _terms(e, xs):
    """sympy's coefficients of ``e`` by exponent tuple, each float of ``e``
    taken as the rational number it is; None where ``e`` is no polynomial."""
    e = sympy.expand(e.xreplace({f: sympy.Rational(float(f)) for f in e.atoms(sympy.Float)}))
    if not e.is_polynomial(*xs):
        return None
    return {m: Fraction(int(c.p), int(c.q)) for m, c in sympy.Poly(e, *xs).terms() if c}


def _fractions(p):
    return None if p is None else {m: Fraction(c) for m, c in p.items()}


_EXPRESSION_KEYS = ("expr", "fields", "bivector", "matrix", "omega", "generators", "casimirs")


def _texts(node, inside: bool = False) -> list:
    """The expression texts of a scenario document but its reduction block's."""
    if isinstance(node, str):
        return [node] if inside else []
    if isinstance(node, list):
        return [t for v in node for t in _texts(v, inside)]
    if isinstance(node, dict):
        return [t for k, v in node.items() if k != "reduction" for t in _texts(v, inside or k in _EXPRESSION_KEYS)]
    return []


def _shipped_expressions() -> list:
    """(scenario, text, dimension, aliases) of every expression of the shipped scenarios."""
    out = []
    for path in sorted(Path(SCENARIO_DIR).glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        out += [(path.stem, t, doc["space"]["ambient_dim"], doc.get("aliases") or []) for t in _texts(doc)]
        red = doc.get("reduction") or {"invariants": []}
        out += [(path.stem, t, red["ambient_dim"], red.get("aliases") or []) for t in red["invariants"]]
    return out


_SHIPPED = _shipped_expressions()


@pytest.mark.parametrize("name, text, n, aliases", _SHIPPED, ids=[f"{row[0]}-{i}" for i, row in enumerate(_SHIPPED)])
def test_normal_form_of_every_shipped_expression_matches_sympy(name, text, n, aliases):
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {f"x{i + 1}": x for i, x in enumerate(xs)} | dict(zip(aliases, xs))
    assert _fractions(normal_form(parse(text, n, aliases), n)) == _terms(_to_sympy(text, names), xs)


def test_the_shipped_expressions_reach_every_kind_of_answer():
    answers = [normal_form(parse(text, n, aliases), n) for _, text, n, aliases in _SHIPPED]
    assert len(_SHIPPED) > 100
    assert None in answers and {} in answers  # 1/(1 + x1^2), and the zero entries
    assert any(p and len(p) > 1 for p in answers)


@pytest.mark.parametrize("text", ["(x1+x2+x3+x4)^30", "x1^9007199254740993", "(x1+x2+x3+x4)^12", "x1^7*x2^6",
                                  "sin(x1) - sin(x1)", "x1/x2", "1e400*x1 - 1e400*x1"])
def test_normal_form_refuses_what_is_past_its_caps_or_not_polynomial(text):
    # 5,456 and 455 terms, degree 2^53 + 1 and 13; a function, a quotient by
    # a variable and a constant that is not finite
    assert normal_form(parse(text, 4), 4) is None


# so(3)*: P^ij = eps_ijk x_k, a Lie-Poisson bivector; with a 0.1 on one
# coordinate it is still Poisson, and the broken bivector with a 0.1 has a
# Jacobiator with a coefficient that is no integer
_BUILT = {
    "so3": [["0", "x3", "-x2"], ["-x3", "0", "x1"], ["x2", "-x1", "0"]],
    "so3-tenth": [["0", "0.1*x3", "-x2"], ["-0.1*x3", "0", "x1"], ["x2", "-x1", "0"]],
    "jacobi_control-tenth": [["0", "0.1*x3", "0"], ["-0.1*x3", "0", "x2"], ["0", "-x2", "0"]],
}


def _structure(name: str):
    """The symbols, sympy's bivector and the package's structure."""
    if name not in _BUILT:
        return (*_scenario_bivector(name), load_scenario(scenario_path(name)).poisson)
    rows = _BUILT[name]
    xs = sympy.symbols(f"x1:{len(rows) + 1}")
    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    return (xs, [[_to_sympy(t, names) for t in row] for row in rows],
            PoissonStructure(len(rows), [[parse(t, len(rows)) for t in row] for row in rows]))


@pytest.mark.parametrize("name", ["canonical_r2", "reduction_r4", "jacobi_control", *_BUILT])
def test_jacobi_check_prunes_exactly_the_components_sympy_expands_to_zero(name):
    xs, p, structure = _structure(name)
    n = len(xs)
    schouten, _, sym = structure._jacobi_exprs
    # J^ijk is the Jacobiator of the coordinate triple (x_i, x_j, x_k)
    want = [_sympy_bracket(xs, p, xs[i], _sympy_bracket(xs, p, xs[j], xs[k]))
            + _sympy_bracket(xs, p, xs[j], _sympy_bracket(xs, p, xs[k], xs[i]))
            + _sympy_bracket(xs, p, xs[k], _sympy_bracket(xs, p, xs[i], xs[j]))
            for i, j, k in itertools.product(range(n), repeat=3)]
    want += [p[i][j] + p[j][i] for i in range(n) for j in range(n)]
    terms = [_terms(w, xs) for w in want]
    assert [e.is_zero for e in schouten + sym] == [t == {} for t in terms]
    assert [_fractions(normal_form(e, n)) for e in schouten + sym] == terms
    kept = sum(not e.is_zero for e in schouten)
    assert kept == {"jacobi_control": 6, "jacobi_control-tenth": 6}.get(name, 0)


# Nijenhuis tensor of an almost complex structure ------------------------------

# acs_variable's structure with its planes coupled by f = x1 x3: on R^4,
# J e3 = f e1 + e4 / a and J e4 = -a (f e2 + e3) with a = 1 + x1^2; J J = -I,
# and J is not integrable
NON_INTEGRABLE_J = [
    ["0", "-1", "x1*x3", "0"],
    ["1", "0", "0", "0-(1+x1^2)*x1*x3"],
    ["0", "0", "0", "0-(1+x1^2)"],
    ["0", "0", "1/(1+x1^2)", "0"],
]


def _sympy_nijenhuis(xs, jm) -> dict:
    """N(e_i, e_j), i < j, from sympy's Lie brackets of the matrix ``jm``."""
    n, e = len(xs), sympy.eye(len(xs))

    def bracket(u, v):
        return sympy.Matrix([sum(u[l] * sympy.diff(v[k], xs[l]) - v[l] * sympy.diff(u[k], xs[l])
                                 for l in range(n)) for k in range(n)])

    return {(i, j): 2 * (bracket(jm * e[:, i], jm * e[:, j]) - jm * bracket(jm * e[:, i], e[:, j])
                         - jm * bracket(e[:, i], jm * e[:, j]) - bracket(e[:, i], e[:, j]))
            for i in range(n) for j in range(i + 1, n)}


@pytest.mark.parametrize("name", ["acs_standard", "acs_variable", "non-integrable"])
def test_nijenhuis_components_match_sympy(name):
    if name == "non-integrable":
        rows, aliases = NON_INTEGRABLE_J, None
    else:
        doc = json.loads(Path(scenario_path(name)).read_text(encoding="utf-8"))
        rows, aliases = doc["acs"]["matrix"], doc.get("aliases")
    n = len(rows)
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    want = _sympy_nijenhuis(xs, sympy.Matrix([[_to_sympy(t, {**names, **dict(zip(aliases or [], xs))})
                                                for t in row] for row in rows]))
    got = AlmostComplexStructure(n, [[parse(t, n, aliases) for t in row] for row in rows])._nijenhuis
    assert len(got) == n and all(i < j for nk in got for i, j in nk)
    for (i, j), column in want.items():
        for k in range(n):
            mine = got[k].get((i, j))
            # a component left out is structurally zero, so sympy's must vanish
            mine = 0 if mine is None else sympy.nsimplify(_to_sympy(to_text(mine), names), rational=True)
            assert sympy.simplify(column[k] - mine) == 0, (k, i, j)
    nonzero = sum(sympy.simplify(c) != 0 for column in want.values() for c in column)
    assert nonzero == {"acs_standard": 0, "acs_variable": 4, "non-integrable": 10}[name]
    assert sum(map(len, got)) >= nonzero
    if name == "acs_standard":
        assert got == [{}] * n
