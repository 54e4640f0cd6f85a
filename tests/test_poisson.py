"""Poisson brackets, invariance, reduction by invariants, leaf sampling."""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import tempfile
import time
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcart import dense
from subcart.cli import load_scenario, main
from subcart.expr import Const, Var, ZERO, add, compile_scalar, compile_vector, diff, mul, parse, pow_int, to_text
from subcart.poisson import (
    CERTIFY_TOL,
    PoissonError,
    PoissonStructure,
    ReductionError,
    bracket,
    hamiltonian_field,
    invariance_residual,
    jacobi_residual,
    jacobi_sample_residual,
    leaf_sample,
    monomials,
    reduce,
)
from subcart import flow
from subcart.flow import flow_map
from subcart.space import Constraint, Rel, SubcartesianSpace

from conftest import jacobi_control_on_sphere, scenario_path

JACOBI_TOL = 1e-8
CASIMIR_TOL = 1e-9

R4_INVARIANTS = ("x1^2+x2^2", "x3^2+x4^2", "x1*x3+x2*x4", "x1*x4-x2*x3")

REDUCED_ROWS = [
    ["0", "4*x3", "2*x1", "0"],
    ["-4*x3", "0", "-2*x2", "0"],
    ["-2*x1", "2*x2", "0", "0"],
    ["0", "0", "0", "0"],
]

BROKEN_ROWS = [
    ["0", "x3", "0"],
    ["-x3", "0", "x2"],
    ["0", "-x2", "0"],
]


def reduced_structure() -> PoissonStructure:
    return PoissonStructure(
        4, [[parse(e, 4) for e in row] for row in REDUCED_ROWS], label="reduced"
    )


def broken_structure() -> PoissonStructure:
    return PoissonStructure(
        3, [[parse(e, 3) for e in row] for row in BROKEN_ROWS], label="broken"
    )


def rng_points(n: int, count: int, seed: int = 0, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-scale, scale, size=n) for _ in range(count)]


def test_canonical_matrix():
    p = PoissonStructure.canonical(1)
    assert np.allclose(p.matrix_at([0.3, -0.7]), [[0.0, 1.0], [-1.0, 0.0]])
    q = PoissonStructure.canonical(2)
    m = q.matrix_at([0.0] * 4)
    assert np.allclose(m, [[0, 0, 1, 0], [0, 0, 0, 1], [-1, 0, 0, 0], [0, -1, 0, 0]])
    assert q.antisymmetry_residual(rng_points(4, 5)) == 0.0


def test_structure_validation():
    with pytest.raises(PoissonError):
        PoissonStructure(2, [[parse("0", 2)]])
    with pytest.raises(PoissonError):
        PoissonStructure(2, [[parse("x3", 3)] * 2] * 2)


def test_bracket_canonical_pairs():
    p = PoissonStructure.canonical(1)
    qp = bracket(p, parse("x1", 2), parse("x2", 2))
    for pt in rng_points(2, 4):
        assert compile_scalar(qp)(pt) == 1.0
    f = parse("x1^2+x2^2", 2)
    g = parse("x1", 2)
    fg = compile_scalar(bracket(p, f, g))
    for pt in rng_points(2, 4, seed=1):
        assert abs(fg(pt) - (-2.0 * pt[1])) <= 1e-12


def test_hamiltonian_field_canonical():
    p = PoissonStructure.canonical(1)
    h = parse("(x1^2+x2^2)/2", 2)
    xh = hamiltonian_field(p, h)
    for pt in rng_points(2, 4, seed=2):
        assert np.allclose(xh.value(list(pt)), [-pt[1], pt[0]], atol=1e-13)


def test_reduced_table_brackets():
    lam = reduced_structure()
    s = [parse(f"x{i}", 4) for i in (1, 2, 3, 4)]
    pts = rng_points(4, 5, seed=3)
    expected = {
        (0, 1): lambda x: 4.0 * x[2],
        (0, 2): lambda x: 2.0 * x[0],
        (1, 2): lambda x: -2.0 * x[1],
        (0, 3): lambda x: 0.0,
        (1, 3): lambda x: 0.0,
        (2, 3): lambda x: 0.0,
    }
    for (a, b), want in expected.items():
        got = compile_scalar(bracket(lam, s[a], s[b]))
        for pt in pts:
            assert abs(got(pt) - want(pt)) <= 1e-12


def test_casimirs_of_reduced_structure():
    lam = reduced_structure()
    c = parse("x1*x2-x3^2-x4^2", 4)
    s4 = parse("x4", 4)
    pts = rng_points(4, 8, seed=4)
    for a in range(4):
        sa = parse(f"x{a + 1}", 4)
        for cas in (c, s4):
            g = compile_scalar(bracket(lam, sa, cas))
            for pt in pts:
                assert abs(g(pt)) <= CASIMIR_TOL


def test_jacobi_residuals():
    s = [parse(f"x{i}", 3) for i in (1, 2, 3)]
    lam = reduced_structure()
    s4 = [parse(f"x{i}", 4) for i in (1, 2, 3, 4)]
    pts4 = rng_points(4, 6, seed=5)
    assert jacobi_residual(lam, s4[0], s4[1], s4[2], pts4) <= 1e-12
    broken = broken_structure()
    # jacobiator of the coordinate triple is x3 for this bivector
    assert jacobi_residual(broken, s[0], s[1], s[2], [np.array([0.5, 0.25, 0.75])]) == 0.75
    assert jacobi_sample_residual(PoissonStructure.canonical(1), n_triples=20)[0] <= 1e-10
    assert jacobi_sample_residual(lam, n_triples=20)[0] <= JACOBI_TOL
    assert jacobi_sample_residual(broken, n_triples=20)[0] >= 0.1


def test_residual_folds_keep_nan():
    # the builtin max keeps 0.0 against a later NaN, which read an overflow as a pass
    broken = broken_structure()
    s = [parse(f"x{i}", 3) for i in (1, 2, 3)]
    pts = [[0.5, 0.25, 0.75], [0.0, 0.0, np.nan], [0.1, 0.1, 0.1]]  # the jacobiator is x3
    assert np.isnan(jacobi_residual(broken, s[0], s[1], s[2], pts))
    assert np.isnan(jacobi_sample_residual(broken, n_triples=3, n_points=3, scale=1e160)[0])
    assert np.isnan(broken.antisymmetry_residual([[0.0, 0.0, 0.0], [1.0, 1.0, np.nan]]))


# The nested-bracket Jacobi path the Schouten contraction replaced, kept here
# as the reference: three brackets of brackets built symbolically and one
# compile per triple.

def nested_jacobi_residual(p, f1, f2, f3, points) -> float:
    s = add(
        bracket(p, f1, bracket(p, f2, f3)),
        add(bracket(p, f2, bracket(p, f3, f1)), bracket(p, f3, bracket(p, f1, f2))),
    )
    ev = compile_scalar(s)
    worst = 0.0
    for x in points:
        r = abs(ev(list(map(float, x))))
        if r != r:
            return r
        worst = max(worst, r)
    return worst


def nested_terms(p, f1, f2, f3, x) -> list[float]:
    """{f1,{f2,f3}}, {f2,{f3,f1}} and {f3,{f1,f2}} at x, the terms the nested
    path sums."""
    return [compile_scalar(bracket(p, a, bracket(p, b, c)))(list(map(float, x)))
            for a, b, c in ((f1, f2, f3), (f2, f3, f1), (f3, f1, f2))]


def _monomial(exps):
    e = Const(1.0)
    for i, k in enumerate(exps):
        if k:
            e = mul(e, pow_int(Var(i), k))
    return e


def nested_random_poly(monos, rng):
    e = ZERO
    for exps in monos:
        c = rng.uniform(-1.0, 1.0)
        if abs(c) < 0.3:
            continue
        e = add(e, mul(Const(round(c, 3)), _monomial(exps)))
    return e


def nested_sample_residual(p, n_triples=50, n_points=10, degree=2, scale=1.0, rng_seed=0):
    rng = random.Random(rng_seed)
    monos = monomials(p.dim, degree)
    worst = 0.0
    for _ in range(n_triples):
        triple = [nested_random_poly(monos, rng) for _ in range(3)]
        pts = [[rng.uniform(-scale, scale) for _ in range(p.dim)] for _ in range(n_points)]
        r = nested_jacobi_residual(p, triple[0], triple[1], triple[2], pts)
        if r != r:
            return r
        worst = max(worst, r)
    return worst


def scenario_structure(name: str) -> PoissonStructure:
    return load_scenario(scenario_path(name)).poisson


REL = 1e-12


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", ["reduction_r4", "canonical_r2", "jacobi_control"])
def test_sample_residual_matches_nested_path(name, seed):
    p = scenario_structure(name)
    got = jacobi_sample_residual(p, n_triples=12, n_points=4, scale=1.5, rng_seed=seed)[0]
    want = nested_sample_residual(p, n_triples=12, n_points=4, scale=1.5, rng_seed=seed)
    if name == "jacobi_control":
        # the same triples at the same points, or the values would differ widely
        assert want > 0.1
        assert abs(got - want) <= REL * want
    else:
        assert want <= 1e-12
        assert got == 0.0


def test_jacobi_kernel_is_built_on_first_check():
    p = broken_structure()
    assert "_jacobi_kernel" not in vars(p) and "_value" not in vars(p)
    jacobi_sample_residual(p, n_triples=2, n_points=2)
    assert "_jacobi_kernel" in vars(p)
    kernel = p._jacobi_kernel
    jacobi_sample_residual(p, n_triples=2, n_points=2, rng_seed=1)
    assert p._jacobi_kernel is kernel


@pytest.mark.parametrize("name", ["reduction_r4", "canonical_r2"])
def test_a_vanishing_jacobiator_leaves_no_arithmetic_in_the_kernel(name):
    # every J and P + P^T component has the exact normal form 0, so no
    # gradient, Hessian entry or offset x - c is formed
    p = scenario_structure(name)
    lines = [line.strip() for line in dense._jacobi_source(p.dim, *p._jacobi_exprs, monomials(p.dim, 2)).splitlines()]
    start = next(i for i, line in enumerate(lines) if line.endswith("= jet"))
    assert lines[start + 1].startswith("for pk, ")
    assert lines[start + 2 : start + 4] == ["r = abs(0.0)", "if r > worst or r != r:"]


def test_jacobi_tensors_of_the_broken_bivector():
    # J^123 is the Jacobiator of the coordinate triple, x3 here
    j, pm, sym = (np.array(t).reshape(2, 3, *[3] * d) for t, d in zip(
        broken_structure().jacobi_tensors([[0.5, 0.25, 0.75], [1.0, -2.0, 3.0]]), (2, 1, 1)))
    assert j.shape == (2, 3, 3, 3) and pm.shape == sym.shape == (2, 3, 3)
    assert j[:, 0, 1, 2].tolist() == [0.75, 3.0]
    assert np.all(sym == 0.0)
    assert pm[1].tolist() == [[0.0, 3.0, 0.0], [-3.0, 0.0, -2.0], [0.0, 2.0, 0.0]]


def test_overflowing_scale_gives_nan_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.isnan(jacobi_sample_residual(broken_structure(), n_triples=3, n_points=3,
                                               scale=1e300)[0])
        # J and P + P^T are exactly 0.0, so no product of large gradients is formed
        assert jacobi_sample_residual(reduced_structure(), n_triples=3, n_points=3,
                                      scale=1e300)[0] == 0.0


# The numpy path the generated Jacobi kernel replaced, kept here as its
# reference: the triple's jets are the einsum of its coefficients with the
# monomials' gradients and Hessians, and the cyclic sum is contracted from
# the right with einsum.

def _cyclic_sums(p, points, grads, hessians):
    """|{f,{g,h}} + cyc| at each point; ``grads`` (m, 3, n) and ``hessians``
    (m, 3, n, n), f, g, h in that order."""
    n = p.dim
    j, pm, sym = (np.array(t).reshape(len(points), n, *[n] * d) for t, d in zip(p.jacobi_tensors(points), (2, 1, 1)))
    with np.errstate(all="ignore"):
        t = np.einsum("pijk,pk->pij", j, grads[:, 2])
        t = np.einsum("pij,pj->pi", t, grads[:, 1])
        total = np.einsum("pi,pi->p", t, grads[:, 0])
        right = np.einsum("pyv,pav->pay", sym, grads)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            t = np.einsum("pxy,py->px", hessians[:, b], right[:, c])
            t = np.einsum("pux,px->pu", pm, t)
            total = total + np.einsum("pu,pu->p", t, grads[:, a])
        return np.abs(total)


def einsum_sample_residual(p, n_triples, n_points, scale, rng_seed):
    """``jacobi_sample_residual`` by the numpy path, from the same draws."""
    n = p.dim
    monos = monomials(n, 2)
    jets = []
    for exps in monos:
        grad = [diff(_monomial(exps), i) for i in range(n)]
        jets += grad + [diff(g, k) for g in grad for k in range(n)]
    table = compile_vector(jets)
    draw = random.Random(rng_seed).random
    worst = 0.0
    for _ in range(n_triples):
        c = [-1.0 + 2.0 * draw() for _ in range(3 * len(monos))]
        c = np.array([round(v, 3) if abs(v) >= 0.3 else 0.0 for v in c]).reshape(3, len(monos))
        pts = [[-scale + (scale - -scale) * draw() for _ in range(n)] for _ in range(n_points)]
        tab = np.array([table(x) for x in pts]).reshape(n_points, len(monos), n + n * n)
        with np.errstate(all="ignore"):
            jet = np.einsum("am,kmd->kad", c, tab)
        r = float(np.max(_cyclic_sums(p, pts, jet[:, :, :n], jet[:, :, n:].reshape(-1, 3, n, n))))
        if r != r:
            return r
        worst = max(worst, r)
    return worst


@pytest.mark.parametrize("name", ["reduction_r4", "canonical_r2", "jacobi_control"])
def test_generated_sample_matches_the_einsum_path(name):
    p = scenario_structure(name)
    for seed in range(20):
        got = jacobi_sample_residual(p, n_triples=15, n_points=6, scale=1.5, rng_seed=seed)[0]
        want = einsum_sample_residual(p, 15, 6, 1.5, seed)
        assert abs(got - want) <= 4 * math.ulp(want), (seed, got, want)
        assert (want > 0.1) == (name == "jacobi_control")


def _sympy_cyclic_sum(bivector: list[list[str]], witness: dict) -> float:
    """{f,{g,h}} + cyc at the witness point, in exact arithmetic on the
    witness's floats, from the bivector's text and the coefficients of f, g
    and h over the monomials of degree <= 2 in (degree, lex) order."""
    sympy = pytest.importorskip("sympy")
    n = len(bivector)
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {f"x{i + 1}": x for i, x in enumerate(xs)}
    p = [[sympy.sympify(e, locals=names) for e in row] for row in bivector]
    monos = [e for d in range(3) for e in itertools.product(range(d + 1), repeat=n) if sum(e) == d]
    f, g, h = (sum(sympy.Rational(c) * sympy.prod([x**k for x, k in zip(xs, e)]) for c, e in zip(witness[k], monos))
               for k in "fgh")

    def br(u, v):
        return sum(p[i][j] * sympy.diff(u, xs[i]) * sympy.diff(v, xs[j]) for i in range(n) for j in range(n))

    total = br(f, br(g, h)) + br(g, br(h, f)) + br(h, br(f, g))
    return float(abs(total.subs({x: sympy.Rational(v) for x, v in zip(xs, witness["point"])})))


def test_failing_sample_carries_a_witness_sympy_rechecks(tmp_path, capsys):
    # jacobi_control's bivector over an equality cell, which the exact stage
    # leaves to the sample; the check reads only the scenario text and the report
    path = tmp_path / "jacobi_sphere.json"
    path.write_text(json.dumps(jacobi_control_on_sphere()))
    assert main(["poisson", "--scenario", str(path), "--triples", "10"]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    witness = result["witness"]
    assert "basis" not in result
    assert sorted(witness) == ["f", "g", "h", "point", "residual"]
    assert witness["residual"] == result["jacobi_residual"] > 1.0
    bivector = json.loads(path.read_text(encoding="utf-8"))["poisson"]["bivector"]
    assert _sympy_cyclic_sum(bivector, witness) == pytest.approx(witness["residual"], rel=1e-12)
    # a passing run reports none
    assert main(["poisson", "--scenario", scenario_path("reduction_r4"), "--triples", "5"]) == 0
    assert "witness" not in json.loads(capsys.readouterr().out)["result"]


def check_exact_jacobi_report(result: dict, doc: dict) -> None:
    """Re-verify an exact ``poisson`` result from its JSON and the scenario's
    text alone: passed where sympy expands every coordinate Jacobiator
    {x_i,{x_j,x_k}} + cyc to 0; else the witness's triple has the printed
    Jacobiator, its value at the integer point is the printed value, the
    point satisfies every constraint of a cell exactly, and the space has
    no equality."""
    sympy = pytest.importorskip("sympy")
    n = doc["space"]["ambient_dim"]
    xs = sympy.symbols(f"x1:{n + 1}")
    names = {**dict(zip(doc.get("aliases", []), xs)), **{f"x{i + 1}": x for i, x in enumerate(xs)}}

    def read(text: str):
        e = sympy.parse_expr(text.replace("^", "**"), local_dict=names)
        return e.xreplace({f: sympy.Rational(float(f)) for f in e.atoms(sympy.Float)})

    p = [[read(t) for t in row] for row in doc["poisson"]["bivector"]]

    def br(u, v):
        return sum(p[i][j] * sympy.diff(u, xs[i]) * sympy.diff(v, xs[j]) for i in range(n) for j in range(n))

    def jacobiator(i, j, k):
        return sympy.expand(br(xs[i], br(xs[j], xs[k])) + br(xs[j], br(xs[k], xs[i])) + br(xs[k], br(xs[i], xs[j])))

    assert result["basis"] == "exact" and result["antisymmetry_residual"] == 0
    assert all(sympy.expand(p[i][j] + p[j][i]) == 0 for i in range(n) for j in range(n))
    if result["passed"]:
        assert result["jacobi_residual"] == 0 and "witness" not in result
        assert all(jacobiator(*t) == 0 for t in itertools.combinations(range(n), 3))
        return
    witness = result["witness"]
    jac = jacobiator(*(i - 1 for i in witness["triple"]))
    assert jac != 0 and sympy.expand(jac - read(witness["jacobiator"])) == 0
    point = witness["point"]
    assert all(isinstance(v, int) and 0 <= v <= sympy.Poly(jac, *xs).total_degree() for v in point)
    at = dict(zip(xs, point))
    assert float(jac.subs(at)) == witness["value"] and abs(witness["value"]) == result["jacobi_residual"]
    cells = doc["space"]["cells"]
    assert all(c["rel"] != "eq0" for cell in cells for c in cell)
    holds = {"geq0": lambda v: v >= 0, "gt0": lambda v: v > 0, "leq0": lambda v: v <= 0, "lt0": lambda v: v < 0}
    assert any(all(holds[c["rel"]](read(c["expr"]).subs(at)) for c in cell) for cell in cells)


@pytest.mark.parametrize("scale", ["1", "2", "1e160", "1e300", "1e308"])
def test_jacobi_control_fails_exactly_at_every_scale(capsys, scale):
    # the exact stage draws nothing, so --scale, which once made this run
    # overflow and exit 2, changes no byte of the report
    path = scenario_path("jacobi_control")
    assert main(["poisson", "--scenario", path, "--triples", "3", "--points", "3", "--scale", scale]) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["witness"] == {"jacobiator": "x3", "point": [0, 0, 1], "triple": [1, 2, 3], "value": 1}
    with open(path, encoding="utf-8") as fh:
        check_exact_jacobi_report(result, json.load(fh))


def _control_with(cells=None, **entries) -> dict:
    """jacobi_control with the bivector entries at "ij" (1-based) replaced, and its cells."""
    with open(scenario_path("jacobi_control"), encoding="utf-8") as fh:
        doc = json.load(fh)
    for at, text in entries.items():
        doc["poisson"]["bivector"][int(at[1]) - 1][int(at[2]) - 1] = text
    if cells is not None:
        doc["space"]["cells"] = cells
    return doc


# scenarios the exact stage leaves to the sample, and the sample's exit code
UNDECIDED = {
    # the identity may hold modulo the constraint: J^123 = x3 is 0 on x3 = 0
    "equality": (jacobi_control_on_sphere(), 1),
    # J^123 = x3 is not 0 at (0, 0, 1), which is not in x1 >= 5
    "not-a-member": (_control_with([[{"expr": "x1 - 5", "rel": "geq0"}]]), 1),
    "not-antisymmetric": (_control_with(e21="x3"), 1),
    "not-polynomial": (_control_with(e12="exp(x3)", e21="-exp(x3)"), 1),
    # J^123 = 1e600 x3 is beyond the float range, and so is the sample
    "overflowing-value": (_control_with(e12="1e300*x3", e21="-1e300*x3", e23="1e300*x2", e32="-1e300*x2"), 2),
}


@pytest.mark.parametrize("name", UNDECIDED)
def test_the_exact_stage_leaves_to_the_sample_what_it_cannot_decide(tmp_path, capsys, name):
    doc, code = UNDECIDED[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    assert main(["poisson", "--scenario", str(path), "--triples", "10"]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert out == "" and "residuals are not finite at --scale 1" in err
    else:
        assert "basis" not in json.loads(out)["result"]


# Lie algebras by their structure constants c^k_ij, [e_i, e_j] = sum_k c^k_ij e_k,
# each bracket of i < j: so(3), sl(2) in the basis (h, e, f), and Heisenberg
LIE_ALGEBRAS = {
    "so3": {(0, 1): (0, 0, 1), (1, 2): (1, 0, 0), (0, 2): (0, -1, 0)},
    "sl2": {(0, 1): (0, 2, 0), (0, 2): (0, 0, -2), (1, 2): (1, 0, 0)},
    "heisenberg": {(0, 1): (0, 0, 1)},
}
# the constants (i, j, k) of each whose change by any nonzero integer breaks
# Jacobi, by sympy: c^1_12 of so(3) gives [e3, [e1, e2]] = c e2, for one
BREAKING = {"so3": [(0, 1, 0), (0, 1, 1), (0, 2, 0), (0, 2, 2), (1, 2, 1), (1, 2, 2)],
            "heisenberg": [(0, 2, 0), (1, 2, 1)]}
BREAKING["sl2"] = BREAKING["so3"]


def lie_poisson_rows(constants: dict, basis: list[list[int]]) -> list[list[list[int]]]:
    """The structure constants c'^c_ab of the basis e'_a = sum_b A_ab e_b,
    A = ``basis`` unimodular: [e'_a, e'_b] = sum A_ai A_bj c^k_ij e_k, and
    e_k = sum_c (A^-1)_kc e'_c; as rows c'[a][b], each a list over c."""
    sympy = pytest.importorskip("sympy")
    a, inv = sympy.Matrix(basis), sympy.Matrix(basis).inv()
    full = {**constants, **{(j, i): tuple(-x for x in v) for (i, j), v in constants.items()}}
    rows = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    for p, q, c in itertools.product(range(3), repeat=3):
        rows[p][q][c] = int(sum(a[p, i] * a[q, j] * v[k] * inv[k, c]
                                for (i, j), v in full.items() for k in range(3)))
    return rows


def _changed(constants: dict, i: int, j: int, k: int, delta: int) -> dict:
    """``constants`` with c^k_ij, i < j, changed by ``delta``."""
    v = list(constants.get((i, j), (0, 0, 0)))
    v[k] += delta
    return {**constants, (i, j): tuple(v)}


def _linear_text(coefficients: list[int]) -> str:
    return " + ".join(f"({c})*x{k + 1}" for k, c in enumerate(coefficients) if c) or "0"


# a unimodular change of basis: products of elementary operations row_i += m row_j
_elementary = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)).filter(lambda t: t[0] != t[1])
_constant = st.tuples(st.sampled_from([(0, 1), (0, 2), (1, 2)]), st.integers(0, 2), st.sampled_from([-2, -1, 1, 2]))


@given(st.sampled_from([(name, k) for name in sorted(LIE_ALGEBRAS) for k in BREAKING[name]]),
       st.sampled_from([-2, -1, 1, 2]), st.lists(_elementary, max_size=4), _constant)
@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@example(("so3", (0, 1, 0)), 1, [], ((0, 1), 2, 1))
@example(("heisenberg", (1, 2, 1)), -2, [(0, 1, 2), (2, 0, -1)], ((0, 1), 2, 1))
def test_lie_poisson_bivectors_are_decided_exactly(tmp_path_factory, breaking, delta_broken, operations, change):
    # P_ab = sum_c c^c_ab x_c is Poisson exactly when the constants satisfy
    # Jacobi (Weinstein 1983): a Lie algebra in any basis passes exactly, one
    # breaking constant changed fails with a witness, and any constant
    # changed in the new basis gets sympy's verdict
    (name, broken), ((a, b), c, delta) = breaking, change
    basis = [[int(i == j) for j in range(3)] for i in range(3)]
    for i, j, m in operations:
        basis[i] = [u + m * v for u, v in zip(basis[i], basis[j])]
    constants = LIE_ALGEBRAS[name]
    rows = lie_poisson_rows(constants, basis)
    changed = [[list(v) for v in row] for row in rows]
    changed[a][b][c] += delta
    changed[b][a][c] -= delta
    cases = [(rows, True), (lie_poisson_rows(_changed(constants, *broken, delta_broken), basis), False),
             (changed, None)]
    path = tmp_path_factory.mktemp("lie") / "lie.json"
    for table, passes in cases:
        doc = {"name": name, "space": {"ambient_dim": 3, "cells": [[]], "locally_closed": True},
               "poisson": {"bivector": [[_linear_text(v) for v in row] for row in table]}}
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["poisson", "--scenario", str(path)])
        result = json.loads(out.getvalue())["result"]
        assert code == int(not result["passed"]) and passes in (None, result["passed"])
        check_exact_jacobi_report(result, doc)


def test_sample_witness_is_the_worst_triple_and_point():
    p = broken_structure()
    worst, witness = jacobi_sample_residual(p, n_triples=7, n_points=4, rng_seed=5)
    assert worst == witness["residual"]
    monos = monomials(3, 2)
    f, g, h = (_poly(witness[k], monos) for k in "fgh")
    assert jacobi_residual(p, f, g, h, [witness["point"]]) == pytest.approx(worst, rel=1e-12)
    assert jacobi_sample_residual(p, n_triples=0) == (0.0, None)


def _poly(coeffs, monos):
    e = ZERO
    for c, exps in zip(coeffs, monos):
        if c:
            e = add(e, mul(Const(c), _monomial(exps)))
    return e


_R4_TABLE = {"{s1,s2}": "4.0*x3", "{s1,s3}": "2.0*x1", "{s1,s4}": "0.0",
             "{s2,s3}": "(-2.0)*x2", "{s2,s4}": "0.0", "{s3,s4}": "0.0"}


def _r4_reduction(seed: int, degree: int = 2, scale: float = 1.0) -> PoissonStructure:
    """reduce on reduction_r4 at ``seed`` and ``degree``, its first invariant
    times ``scale``."""
    red = load_scenario(scenario_path("reduction_r4")).reduction
    return reduce(PoissonStructure.canonical(2), (mul(Const(scale), red["invariants"][0]), *red["invariants"][1:]),
                  degree=degree, rng_seed=seed)


@pytest.mark.parametrize("seed", range(20))
def test_reduction_table_is_the_same_at_every_seed_and_degree(seed):
    # the table is solved exactly, so the seed moves only the replay's
    # points; a higher degree adds monomials in the invariants, and with
    # them the relation s1 s2 = s3^2 + s4^2, whose dependent columns take 0
    for degree in range(1, 6):
        red = _r4_reduction(seed, degree)
        assert red.meta["table"] == _R4_TABLE
        assert red.meta["certified_residual"] <= 1e-13


@pytest.mark.parametrize("seed", range(20))
def test_reduction_table_is_exact_on_a_scaled_invariant(seed):
    # s1 = 3e3 |q|^2 put s1^2's column some 1e7 above the constant one; a
    # least-squares fit came within 1e-11 of the coefficients, the exact
    # solve reads them, {s1,s2} = 4 (3e3) s3 and the rest as unscaled
    red = _r4_reduction(seed, scale=3e3)
    assert red.meta["table"] == {**_R4_TABLE, "{s1,s2}": "12000.0*x3"}
    assert red.meta["certified_residual"] <= CERTIFY_TOL


def test_reduce_with_a_scaled_invariant():
    # 1e4 |q|^2: unscaled, the constant column's pivot fell under k eps of
    # s1^2's and reduce answered NotReducible with a fit residual of 5e4
    red = load_scenario(scenario_path("reduction_r4")).reduction
    invariants = (mul(Const(1e4), red["invariants"][0]), *red["invariants"][1:])
    assert reduce(PoissonStructure.canonical(2), invariants).meta["table"] == {"{s1,s2}": "40000.0*x3", "{s1,s3}": "2.0*x1", "{s1,s4}": "0.0",
                                           "{s2,s3}": "(-2.0)*x2", "{s2,s4}": "0.0", "{s3,s4}": "0.0"}


def test_jacobi_residual_edge_inputs():
    with pytest.raises(PoissonError):
        jacobi_residual(PoissonStructure.canonical(1), parse("x1", 2), parse("x2", 2),
                        parse("x3", 3), [[0.0, 0.0]])
    assert jacobi_residual(PoissonStructure.canonical(1), parse("x1", 2), parse("x2", 2),
                           parse("x1", 2), []) == 0.0
    assert jacobi_sample_residual(broken_structure(), n_triples=0) == (0.0, None)
    assert jacobi_sample_residual(broken_structure(), n_points=0) == (0.0, None)


_coeff = st.sampled_from([-2.0, -1.0, -0.5, 0.25, 0.5, 1.0, 3.0])


@st.composite
def polys(draw, n, max_degree=2):
    """A sum of up to three terms coefficient * monomial of degree <= max_degree."""
    e = ZERO
    for _ in range(draw(st.integers(0, 3))):
        term = Const(draw(_coeff))
        for _ in range(draw(st.integers(0, max_degree))):
            term = mul(term, Var(draw(st.integers(0, n - 1))))
        e = add(e, term)
    return e


@st.composite
def jacobi_cases(draw):
    """A polynomial bivector of dimension 1-5, antisymmetric or not, a triple
    of polynomials of degree <= 3 and sample points."""
    n = draw(st.integers(1, 5))
    rows = [[draw(polys(n)) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        for i in range(n):
            rows[i][i] = ZERO
            for j in range(i):
                rows[i][j] = mul(Const(-1.0), rows[j][i])
    triple = [draw(polys(n, max_degree=3)) for _ in range(3)]
    coords = st.floats(-1.5, 1.5, allow_nan=False)
    points = draw(st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=3))
    return PoissonStructure(n, rows), triple, points


def _cancelling_case():
    """A 2-D case whose nested terms, about 1770, 5808 and -7578, sum to
    2e-12 in floats; the Schouten path gives the exact 0.0, since in 2-D J^ijk
    has no three distinct indices."""
    x1, x2 = Var(0), Var(1)
    a = add(mul(mul(Const(-2.0), x1), x1), Const(-2.0))
    p = PoissonStructure(2, [[ZERO, a], [mul(Const(-1.0), a), ZERO]])
    f = mul(mul(Const(-2.0), x1), x1)
    g = add(Const(-2.0), mul(mul(mul(Const(-2.0), x1), x1), x2))
    h = add(Const(-4.0), mul(mul(Const(3.0), x1), x2))
    return p, (f, g, h), [[1.335260124986804, 0.0]]


@given(jacobi_cases())
@example(_cancelling_case())
@settings(max_examples=60, deadline=None)
def test_jacobi_residual_matches_nested_path(case):
    p, (f, g, h), points = case
    for x in points:
        got = jacobi_residual(p, f, g, h, [x])
        want = nested_jacobi_residual(p, f, g, h, [x])
        # the nested sum rounds at the size of its terms, not of their sum
        scale = sum(abs(t) for t in nested_terms(p, f, g, h, x))
        assert abs(got - want) <= REL * max(scale, 1.0), (p.rows, x)


def fd_invariance_residual(p, h, f1, f2, t, x) -> float:
    """|{f1 o phi_t, f2 o phi_t}(x) - {f1,f2}(phi_t(x))| by an independent
    route: central differences of the flows of x +- s e_i on the ambient
    space, at s = 1e-5 and 1e-5 / 2, Richardson-extrapolated."""
    n = p.dim
    xh = hamiltonian_field(p, h)
    ambient = SubcartesianSpace.whole_space(n)
    x = np.array(x, dtype=float)
    ef1, ef2 = compile_scalar(f1), compile_scalar(f2)
    pm = p.matrix_at(x.tolist())

    def pulled(step: float) -> float:
        d1, d2 = np.zeros(n), np.zeros(n)
        for i in range(n):
            e = step * np.eye(n)[i]
            plus = flow_map(ambient, xh, x + e, t)
            minus = flow_map(ambient, xh, x - e, t)
            d1[i] = (ef1(plus) - ef1(minus)) / (2.0 * step)
            d2[i] = (ef2(plus) - ef2(minus)) / (2.0 * step)
        return float(d1 @ pm @ d2)

    coarse, fine = pulled(1e-5), pulled(0.5e-5)
    image = flow_map(ambient, xh, x, t)
    return abs(fine + (fine - coarse) / 3.0 - compile_scalar(bracket(p, f1, f2))(image))


def test_invariance_residual_canonical():
    p = PoissonStructure.canonical(1)
    h = parse("(x1^2+x2^2)/2", 2)
    space = SubcartesianSpace.whole_space(2)
    for t in (0.1, 1.0):
        rep = invariance_residual(
            p, h, parse("x1", 2), parse("x2", 2), t, [0.7, -0.2], space=space
        )
        assert rep.value <= 1e-6
        assert abs(np.linalg.norm(rep.image) - np.linalg.norm([0.7, -0.2])) <= 1e-8


def test_invariance_residual_reduced():
    lam = reduced_structure()
    h = parse("x1+x2", 4)
    rep = invariance_residual(
        lam, h, parse("x3", 4), parse("x4", 4), 0.5, [1.0, 1.0, 1.0, 0.0],
        space=SubcartesianSpace.whole_space(4),
    )
    assert rep.value <= 1e-6


@pytest.mark.parametrize("case", ["canonical-0.1", "canonical-1", "canonical-5", "reduced", "jacobi_control"])
def test_invariance_residual_matches_finite_differences(case, monkeypatch):
    # the variational kernel and differences of perturbed flows are two
    # routes to the same derivative of the flow; on the bivector that breaks
    # Jacobi the residual is far from 0, so agreement is not vacuous
    if case.startswith("canonical"):
        p, n, h, f1, f2 = PoissonStructure.canonical(1), 2, "(x1^2+x2^2)/2", "x1", "x2"
        x, t = [0.7, -0.2], float(case.split("-")[1])
    elif case == "reduced":
        p, n, h, f1, f2, x, t = reduced_structure(), 4, "x1+x2", "x3", "x4", [1.0, 1.0, 1.0, 0.0], 0.5
    else:
        p = load_scenario(scenario_path("jacobi_control")).poisson
        n, h, f1, f2, x, t = 3, "(x1^2+x2^2+x3^2)/2", "x1", "x3", [0.5, 0.25, 0.75], 0.35
    h, f1, f2 = (parse(e, n) for e in (h, f1, f2))
    carried = []
    transport = flow.transport_vector
    monkeypatch.setattr(flow, "transport_vector", lambda *a: carried.append(a[4]) or transport(*a))
    got = invariance_residual(p, h, f1, f2, t, x, space=SubcartesianSpace.whole_space(n)).value
    # one flow per unit vector, each the variational kernel's
    assert carried == [[1.0 if k == i else 0.0 for k in range(n)] for i in range(n)]
    want = fd_invariance_residual(p, h, f1, f2, t, x)
    assert abs(got - want) <= 1e-7, (got, want)
    if case == "jacobi_control":
        assert got > 0.05


def test_monomials_order_and_count():
    assert monomials(2, 0) == [(0, 0)]
    assert monomials(2, 2) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert len(monomials(3, 2)) == 10


def test_monomials_of_many_variables_are_listed_at_once():
    # they were filtered from all (degree + 1)^n exponent tuples, so the
    # Jacobi sample of poisson on canonical R^16 took 20 s
    start = time.perf_counter()
    monos = monomials(16, 2)
    assert time.perf_counter() - start < 0.5
    assert monos == sorted(set(monos), key=lambda e: (sum(e), e)) and len(monos) == math.comb(18, 2)


def test_reduce_reproduces_bracket_table():
    red = reduce(PoissonStructure.canonical(2), [parse(s, 4) for s in R4_INVARIANTS])
    assert red.dim == 4
    assert red.meta["certified_points"] == 200
    assert red.meta["certified_residual"] <= 1e-10
    want = reduced_structure()
    for pt in rng_points(4, 6, seed=6, scale=1.2):
        assert np.allclose(red.matrix_at(pt), want.matrix_at(pt), atol=1e-9)
    assert red.meta["table"]["{s1,s2}"] == "4.0*x3"


def test_reduce_rejects_non_invariant_pair():
    with pytest.raises(ReductionError) as exc:
        reduce(PoissonStructure.canonical(1), [parse("x1^2", 2), parse("x2", 2)])
    msg = str(exc.value)
    assert "1" in msg and "2" in msg
    assert "x1^2" in msg


# Closed-form reductions: linear invariants s = L x on canonical R^2k have
# the constant brackets L Omega L^T, computed here with numpy ---------------

@st.composite
def linear_invariants(draw):
    """k and an integer L of up to four rows of 2k entries, its last row
    often a copy of another: a relation of degree 1 among the invariants."""
    k = draw(st.integers(1, 2))
    rows = draw(st.lists(st.lists(st.integers(-3, 3), min_size=2 * k, max_size=2 * k), min_size=1, max_size=3))
    if draw(st.booleans()):
        rows.append(list(rows[draw(st.integers(0, len(rows) - 1))]))
    return k, rows


def _linear(row: list[int]) -> str:
    return " + ".join(f"({c})*x{i + 1}" for i, c in enumerate(row) if c) or "0"


def _reduce_cli(k: int, invariants: list[str]) -> tuple[int, dict]:
    """``reduce`` at degree 1 on canonical R^2k: its exit code and report."""
    doc = {"name": "linear", "space": {"ambient_dim": 1, "cells": [[]], "locally_closed": True}, "fields": {},
           "reduction": {"ambient_dim": 2 * k, "invariants": invariants, "degree": 1}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "linear.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(["reduce", "--scenario", path])
    return code, json.loads(out.getvalue())


def _omega(k: int) -> np.ndarray:
    return np.block([[np.zeros((k, k), int), np.eye(k, dtype=int)], [-np.eye(k, dtype=int), np.zeros((k, k), int)]])


@given(linear_invariants())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_reduce_of_linear_invariants_prints_their_constant_brackets(case):
    k, rows = case
    want = np.array(rows) @ _omega(k) @ np.array(rows).T
    code, report = _reduce_cli(k, [_linear(row) for row in rows])
    assert (code, report["result"]["verdict"]) == (0, "Reduced")
    m = len(rows)
    assert report["result"]["bivector"] == [[str(float(want[a, b])) for b in range(m)] for a in range(m)]
    assert report["result"]["meta"]["table"] == {
        f"{{s{a + 1},s{b + 1}}}": str(float(want[a, b])) for a in range(m) for b in range(a + 1, m)}


@given(linear_invariants())
@settings(derandomize=True, max_examples=60, deadline=None)
def test_reduce_names_the_first_bracket_of_a_square_that_leaves_the_span(case):
    # s1 = q1^2 before s = L x: {s1, L_b x} = 2 L_b[k] q1, L_b[k] the
    # coefficient of p1, is in the span of 1, s1 and L x exactly when it is
    # 0 or q1 is in the row space of L
    k, rows = case
    code, report = _reduce_cli(k, ["x1^2"] + [_linear(row) for row in rows])
    unit = [1] + [0] * (2 * k - 1)
    in_rows = np.linalg.matrix_rank(np.array(rows + [unit])) == np.linalg.matrix_rank(np.array(rows))
    outside = [] if in_rows else [b for b, row in enumerate(rows) if row[k]]
    if outside:
        assert (code, report["result"]["verdict"]) == (1, "NotReducible")
        assert report["result"]["detail"].startswith(f"bracket of invariants 1 and {outside[0] + 2} ('x1^2', ")
    else:
        assert (code, report["result"]["verdict"]) == (0, "Reduced")


def sigma_space() -> SubcartesianSpace:
    rel = Constraint(parse("x1*x2-x3^2-x4^2", 4), Rel.EQ)
    pos1 = Constraint(parse("x1", 4), Rel.GE)
    pos2 = Constraint(parse("x2", 4), Rel.GE)
    return SubcartesianSpace(4, [[rel, pos1, pos2]], tol=1e-6)


def test_leaf_sample_stays_on_symplectic_leaf():
    lam = reduced_structure()
    gens = [parse(f"x{i}", 4) for i in (1, 2, 3)]
    cas = [parse("x1*x2-x3^2-x4^2", 4), parse("x4", 4)]
    sample = leaf_sample(
        sigma_space(), lam, gens, [1.0, 1.0, 1.0, 0.0], budget=150, rng_seed=0,
        casimirs=cas,
    )
    pts = np.asarray(sample.points)
    assert len(pts) == 150
    assert sample.est_dimension == 2
    drifts = [d["max_drift"] for d in sample.diagnostics["casimirs"]]
    assert max(drifts) <= 1e-6
    assert pts[:, 0].min() >= -1e-9
    assert pts[:, 1].min() >= -1e-9
    rel = np.abs(pts[:, 0] * pts[:, 1] - pts[:, 2] ** 2 - pts[:, 3] ** 2)
    assert rel.max() <= 1e-6
    assert to_text(gens[0]) in sample.diagnostics["generators"]
