"""Almost complex structures: torsion, tensoriality, compatibility."""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np
import pytest

from subcart.almostcomplex import (
    AlmostComplexError,
    AlmostComplexStructure,
    DegenerateError,
    cauchy_riemann_residual,
    eigenspace_closure_field,
    kahler_check,
    max_norm,
    tensoriality_residual,
    torsion,
    torsion_residual,
)
from subcart.dense import _smallest_eigenvalue
from subcart.expr import Const, Var, compile_vector, parse
from subcart.field import TangentField
from subcart.poisson import PoissonError, PoissonStructure

from conftest import coordinate_fields, make_field

TORSION_TOL = 1e-8
TENSOR_TOL = 1e-10

VARIABLE_J_ROWS = [
    ["0", "-1", "0", "0"],
    ["1", "0", "0", "0"],
    ["0", "0", "0", "0-(1+x1^2)"],
    ["0", "0", "1/(1+x1^2)", "0"],
]


def variable_j() -> AlmostComplexStructure:
    return AlmostComplexStructure(
        4, [[parse(e, 4) for e in row] for row in VARIABLE_J_ROWS]
    )


def std_omega_rows(n: int = 4):
    om = np.zeros((n, n))
    k = n // 2
    for i in range(k):
        om[i, k + i] = 1.0
        om[k + i, i] = -1.0
    return [[parse(repr(v), n) for v in row] for row in om.tolist()]


def rng_points(n: int, count: int, seed: int = 0, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    return [rng.uniform(-scale, scale, size=n) for _ in range(count)]


def field_vals(fld: TangentField, pt) -> np.ndarray:
    return np.array(compile_vector(fld.components)(pt))


def numeric_nijenhuis(j: AlmostComplexStructure, x, y, pt, h: float = 1e-5):
    """Torsion at a point from finite-difference brackets only.

    Uses N(X,Y) = 2([JX,JY] - J[JX,Y] - J[X,JY] - [X,Y]) with every bracket
    evaluated as (DW)V - (DV)W through central differences, an independent
    route from the symbolic derivative code.
    """
    pt = np.asarray(pt, dtype=float)
    n = len(pt)
    jm = lambda q: np.array([[compile_vector([e])(q)[0] for e in row] for row in j.rows])
    xv = lambda q: field_vals(x, q)
    yv = lambda q: field_vals(y, q)
    jx = lambda q: jm(q) @ xv(q)
    jy = lambda q: jm(q) @ yv(q)

    def fd_bracket(v, w, q):
        jac_v = np.zeros((n, n))
        jac_w = np.zeros((n, n))
        for k in range(n):
            e = np.zeros(n)
            e[k] = h
            jac_v[:, k] = (v(q + e) - v(q - e)) / (2 * h)
            jac_w[:, k] = (w(q + e) - w(q - e)) / (2 * h)
        return jac_w @ v(q) - jac_v @ w(q)

    t1 = fd_bracket(jx, jy, pt)
    t2 = jm(pt) @ fd_bracket(jx, yv, pt)
    t3 = jm(pt) @ fd_bracket(xv, jy, pt)
    t4 = fd_bracket(xv, yv, pt)
    return 2.0 * (t1 - t2 - t3 - t4)


def test_standard_structure_squares_to_minus_identity():
    j = AlmostComplexStructure.standard(2)
    assert j.square_residual(rng_points(4, 5)) == 0.0
    e = coordinate_fields(4)
    jq1 = j.apply(e[0])
    assert np.allclose(field_vals(jq1, [0.0] * 4), [0.0, 0.0, 1.0, 0.0])
    jp1 = j.apply(e[2])
    assert np.allclose(field_vals(jp1, [0.0] * 4), [-1.0, 0.0, 0.0, 0.0])


def test_variable_structure_squares_to_minus_identity():
    j = variable_j()
    assert j.square_residual(rng_points(4, 8, seed=1)) <= 1e-12


def test_validation_rejects_non_complex_matrix():
    ident = AlmostComplexStructure(2, [[parse("1", 2), parse("0", 2)],
                                       [parse("0", 2), parse("1", 2)]])
    assert ident.square_residual(rng_points(2, 3)) > 1e-10
    with pytest.raises(AlmostComplexError):
        AlmostComplexStructure(2, [[parse("0", 2)]])


def test_torsion_vanishes_for_constant_structure():
    j = AlmostComplexStructure.standard(2)
    x = make_field("x", ["x2^2", "1", "x3", "0"], 4)
    y = make_field("y", ["x1*x4", "x3", "0", "x2"], 4)
    assert torsion_residual(j, x, y, rng_points(4, 6, seed=2)) <= 1e-12


def test_torsion_antisymmetric_and_vanishes_on_diagonal():
    j = variable_j()
    e = coordinate_fields(4)
    pts = rng_points(4, 5, seed=3)
    nxx = torsion(j, e[0], e[0])
    for pt in pts:
        assert np.allclose(field_vals(nxx, pt), 0.0, atol=1e-14)
    nxy = torsion(j, e[0], e[2])
    nyx = torsion(j, e[2], e[0])
    for pt in pts:
        assert np.allclose(field_vals(nxy, pt), -field_vals(nyx, pt), atol=1e-12)


def test_torsion_value_against_numeric_oracle():
    j = variable_j()
    e = coordinate_fields(4)
    pt = [1.0, 0.0, 0.0, 0.0]
    symbolic = field_vals(torsion(j, e[0], e[2]), pt)
    numeric = numeric_nijenhuis(j, e[0], e[2], pt)
    assert np.linalg.norm(symbolic - numeric) <= 1e-8
    assert np.linalg.norm(symbolic - np.array([0.0, 0.0, -2.0, 0.0])) <= TORSION_TOL
    # a second point, same two routes
    pt2 = [0.5, -0.3, 0.8, 0.2]
    sym2 = field_vals(torsion(j, e[0], e[2]), pt2)
    num2 = numeric_nijenhuis(j, e[0], e[2], pt2)
    assert np.linalg.norm(sym2 - num2) <= 1e-7


def test_tensoriality():
    e = coordinate_fields(4)
    f = parse("1+x2^2", 4)
    h = parse("2+x1*x3", 4)
    pts = rng_points(4, 10, seed=4)
    for j in (AlmostComplexStructure.standard(2), variable_j()):
        assert tensoriality_residual(j, e[0], e[2], f, h, pts) <= TENSOR_TOL


def test_eigenspace_closure_equals_quarter_torsion():
    j = variable_j()
    e = coordinate_fields(4)
    closure = eigenspace_closure_field(j, e[0], e[2])
    n_field = torsion(j, e[0], e[2])
    for pt in rng_points(4, 10, seed=5):
        c = field_vals(closure, pt)
        n = field_vals(n_field, pt)
        assert np.linalg.norm(c + n / 4.0) <= 1e-12
        assert abs(np.linalg.norm(c) - np.linalg.norm(n) / 4.0) <= TENSOR_TOL


def test_cauchy_riemann_residual():
    j = AlmostComplexStructure.standard(1)
    e = coordinate_fields(2)
    pts = rng_points(2, 5, seed=6)
    holo = cauchy_riemann_residual(j, e, parse("x1", 2), parse("x2", 2), pts)
    assert holo == 0.0
    anti = cauchy_riemann_residual(j, e, parse("x1", 2), parse("0-x2", 2), pts)
    assert anti == 2.0
    # real and imaginary parts of (x1 + i x2)^2 are holomorphic too
    holo2 = cauchy_riemann_residual(
        j, e, parse("x1^2-x2^2", 2), parse("2*x1*x2", 2), pts
    )
    assert holo2 <= 1e-12


def test_kahler_check_standard_pair():
    j = AlmostComplexStructure.standard(2)
    e = coordinate_fields(4)
    rep = kahler_check(j, std_omega_rows(), e, rng_points(4, 5, seed=7))
    assert rep.passed
    assert rep.compatibility <= 1e-14
    assert rep.metric_symmetry <= 1e-14
    assert rep.positive
    assert abs(rep.min_metric_eigenvalue - 1.0) <= 1e-12
    assert rep.torsion_residual <= 1e-14
    d = asdict(rep)
    assert d["passed"] is True


def test_kahler_torsion_is_the_largest_symbolic_torsion_of_the_pairs(tmp_path):
    # the check contracts the tensor built once; torsion_residual builds
    # N(X, Y) from four brackets per pair, an independent route
    import json

    from subcart.cli import load_scenario

    doc = {
        "name": "coupled",
        "space": {"ambient_dim": 4, "cells": [[]]},
        "fields": {"u": ["1", "x3", "0", "0"], "v": ["0", "1", "x1*x2", "0"], "w": ["x4", "0", "0", "1"]},
        "acs": {
            "matrix": [["0", "-1", "x1*x3", "0"], ["1", "0", "0", "0-(1+x1^2)*x1*x3"],
                       ["0", "0", "0", "0-(1+x1^2)"], ["0", "0", "1/(1+x1^2)", "0"]],
            "omega": [["0", "0", "1", "0"], ["0", "0", "0", "1"], ["-1", "0", "0", "0"], ["0", "-1", "0", "0"]],
        },
    }
    path = tmp_path / "coupled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sc = load_scenario(str(path))
    u, v, w = (sc.fields[k] for k in "uvw")
    fields = [u.scaled(parse("1 + x1^2", 4)), v, w.scaled(parse("x2 - 3", 4)), u]
    pts = rng_points(4, 6, seed=3)
    assert sc.acs.square_residual(pts) <= 1e-14
    rep = kahler_check(sc.acs, sc.omega, fields, pts)
    want = max(torsion_residual(sc.acs, fields[a], fields[b], pts) for a in range(4) for b in range(a + 1, 4))
    assert want > 1.0
    assert rep.torsion_residual == pytest.approx(want, rel=1e-13, abs=0.0)
    assert not rep.passed


def test_kahler_check_flipped_structure_loses_positivity():
    mats = [[parse(repr(-v), 4) for v in row]
            for row in np.asarray([[0, 0, -1, 0], [0, 0, 0, -1],
                                   [1, 0, 0, 0], [0, 1, 0, 0]], dtype=float).tolist()]
    jneg = AlmostComplexStructure(4, mats)
    e = coordinate_fields(4)
    rep = kahler_check(jneg, std_omega_rows(), e, rng_points(4, 5, seed=8))
    assert not rep.passed
    assert not rep.positive
    assert rep.min_metric_eigenvalue < 0.0


def test_kahler_check_rejects_degenerate_form():
    j = AlmostComplexStructure.standard(1)
    e = coordinate_fields(2)
    zero = [[parse("0", 2), parse("0", 2)], [parse("0", 2), parse("0", 2)]]
    with pytest.raises(AlmostComplexError):
        kahler_check(j, zero, e, [[0.3, 0.4]])


# the bivector, J and the two-form are one matrix type: each raises its
# module's error naming the fault
_MATRIX_BUILDERS = {
    "bivector": (PoissonStructure, PoissonError),
    "J": (AlmostComplexStructure, AlmostComplexError),
    "two-form": (lambda n, rows: kahler_check(AlmostComplexStructure.standard(1), rows, coordinate_fields(2),
                                              [[0.3, 0.4]]), AlmostComplexError),
}


@pytest.mark.parametrize("rows,message", [
    ([[Const(0.0), Const(1.0)]], "must be 2x2"),
    ([[Const(0.0), Var(5)], [Const(-1.0), Const(0.0)]], "entry 'x6' uses a variable beyond x2"),
], ids=["not-square", "variable-out-of-range"])
@pytest.mark.parametrize("kind", sorted(_MATRIX_BUILDERS))
def test_matrix_validation_raises_the_module_error(kind, rows, message):
    build, error = _MATRIX_BUILDERS[kind]
    with pytest.raises(error, match=message):
        build(2, rows)


def test_residual_folds_keep_nan():
    # each fold used the builtin max, which dropped a NaN after a finite value
    j = AlmostComplexStructure.standard(1)
    e = coordinate_fields(2)
    big = TangentField("big", [parse("1e300*x1", 2), parse("1e300*x2", 2)])
    pts = [[0.1, 0.2], [1e10, 1e10]]
    undefined = TangentField("undefined", [parse("x1 - x1", 2), parse("0", 2)])
    assert max_norm(undefined, [[0.5, 0.5]]) == 0.0
    assert math.isnan(max_norm(undefined, [[0.5, 0.5], [math.nan, 0.5]]))
    jn = AlmostComplexStructure(2, [[parse("x1 - x1", 2), parse("-1", 2)], [parse("1", 2), parse("0", 2)]])
    assert jn.square_residual([[0.5, 0.5]]) == 0.0
    assert math.isnan(jn.square_residual([[0.5, 0.5], [math.nan, 0.5]]))
    f = parse("1e300*x1*x2", 2)
    assert math.isnan(cauchy_riemann_residual(j, [e[0]], f, f, pts))
    with np.errstate(all="ignore"):
        rep = kahler_check(j, std_omega_rows(2), [big, e[0]], [[0.0, 0.0], [0.5, 0.5]])
    assert math.isnan(rep.metric_symmetry) and not rep.passed


def test_smallest_eigenvalue_matches_eigvalsh():
    rng = np.random.default_rng(0)
    for _ in range(50):
        b = rng.standard_normal((4, 4))
        a = b @ b.T + 1e-3 * np.eye(4)
        want = np.linalg.eigvalsh(a)
        assert abs(_smallest_eigenvalue(a.tolist()) - want[0]) <= 1e-15 * want[-1]
    # a diagonal matrix is not rotated; an indefinite one is rotated too
    assert _smallest_eigenvalue([[2.0, 0.0], [0.0, 0.5]]) == 0.5
    assert _smallest_eigenvalue([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(-1.0, abs=1e-15)


def test_kahler_values_that_are_not_finite_are_named():
    j = AlmostComplexStructure.standard(1)
    e = coordinate_fields(2)
    nan_form = [[parse("0", 2), parse("1 + (1e200*x1*1e200 - 1e200*x1*1e200)", 2)],
                [parse("-1", 2), parse("0", 2)]]
    with pytest.raises(AlmostComplexError, match=r"not finite at \(0.5, 0.25\)") as info:
        kahler_check(j, nan_form, e, [[0.5, 0.25]])
    assert not isinstance(info.value, DegenerateError)
    # a zero two-form is degenerate, a certified failure
    with pytest.raises(DegenerateError):
        kahler_check(j, [[parse("0", 2)] * 2] * 2, e, [[0.5, 0.25]])
