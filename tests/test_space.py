"""Constraint cells, membership semantics, sampling, projection."""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subcart.expr import (
    Add, Const, Cut, Div, DomainError, Fn, Mul, Neg, Pow, Var, _cut_value, add, compile_scalar, fn,
    gradient_exprs, mul, parse, pow_int, sub,
)
import subcart.poisson
from subcart import cli
from subcart import expr as expr_module
from subcart.flow import ATTAINED_FACTOR, _driver_source
from subcart.space import (
    BALL_TRIES,
    BOX_TRIES,
    DEFAULT_TOL,
    PROJECTION_STEPS,
    Constraint,
    Rel,
    SpaceError,
    SubcartesianSpace,
    ball,
    box,
    project_to_equalities,
    _compile_projection,
    sample,
)

from conftest import SCENARIO_DIR, disk_line, halfline, punctured_plane, scenario_path, unit_circle

TOL = 1e-9


def test_rel_satisfied_table():
    c = lambda rel: Constraint(parse("x1", 1), rel)
    assert c(Rel.EQ).satisfied(0.0, TOL)
    assert c(Rel.EQ).satisfied(TOL / 2, TOL)
    assert not c(Rel.EQ).satisfied(2 * TOL, TOL)
    assert c(Rel.GE).satisfied(-TOL / 2, TOL)
    assert not c(Rel.GE).satisfied(-2 * TOL, TOL)
    assert c(Rel.LE).satisfied(TOL / 2, TOL)
    assert not c(Rel.LE).satisfied(2 * TOL, TOL)
    # strict relations narrow as the tolerance grows
    assert c(Rel.GT).satisfied(2 * TOL, TOL)
    assert not c(Rel.GT).satisfied(TOL / 2, TOL)
    assert c(Rel.LT).satisfied(-2 * TOL, TOL)
    assert not c(Rel.LT).satisfied(-TOL / 2, TOL)


def test_margin_signs():
    c = Constraint(parse("x1", 1), Rel.GE)
    assert c.margin(0.5) == 0.5
    assert c.margin(-0.5) == -0.5
    eq = Constraint(parse("x1", 1), Rel.EQ)
    assert eq.margin(0.3) == -0.3
    assert eq.margin(-0.3) == -0.3
    le = Constraint(parse("x1", 1), Rel.LE)
    assert le.margin(-0.4) == 0.4


def test_halfline_membership():
    hl = halfline()
    assert hl.contains([0.0])
    assert hl.contains([1.0])
    assert hl.contains([-1e-12])
    assert not hl.contains([-1.0])
    assert hl.slack([0.5]) == 0.5
    assert hl.slack([-0.5]) == -0.5
    with pytest.raises(SpaceError):
        hl.require_member([-1.0])


def test_slack_keeps_nan():
    # Python's min/max dropped the NaN margin and reported slack inf
    hl = halfline()
    assert math.isnan(hl.slack([math.nan]))
    assert math.isnan(disk_line().slack([math.nan, 0.5]))
    with pytest.raises(SpaceError, match="slack nan"):
        hl.require_member([math.nan])


def test_nonfinite_literals_in_generated_membership_and_slack():
    # repr wrote an infinite literal as the unbound name inf
    below = SubcartesianSpace(1, [[Constraint(parse("1e999 - x1", 1), Rel.GE)]])
    above = SubcartesianSpace(1, [[Constraint(parse("x1 - 1e999", 1), Rel.GE)]])
    undefined = SubcartesianSpace(1, [[Constraint(parse("1e999 - 1e999 + x1", 1), Rel.GE)]])
    assert below.contains([1.0]) and below.member_cell([1.0]) == 0 and below.cell_contains(0, [1.0])
    assert below.closure_contains([1.0])
    assert below.slack([1.0]) == math.inf
    assert not above.contains([1.0]) and not above.cell_contains(0, [1.0])
    assert above.slack([1.0]) == -math.inf
    assert not undefined.contains([1.0])
    assert math.isnan(undefined.slack([1.0]))


def test_per_constraint_callables_compile_on_first_use(monkeypatch):
    # membership and slack are one generated function each; the per-constraint
    # tests, which only name the constraint of an exit witness, are generated
    # on their first use, each the membership function of a one-constraint cell
    import subcart.space as space_mod

    built = []
    build = space_mod._build

    def counting_build(src, name):
        built.append(name)
        return build(src, name)

    monkeypatch.setattr(space_mod, "_build", counting_build)
    dl = disk_line()
    assert dl.contains([0.0, 0.5])
    assert dl.slack([0.0, 0.5]) == 0.75
    dl.slack([0.0, 0.25])
    assert built == ["<membership>", "<slack>"]
    assert "_constraint_tests" not in vars(dl)
    ((disk, text),), ((line, _),) = dl._constraint_tests
    assert built == ["<membership>", "<slack>", "<membership>", "<membership>"]
    assert text == dl.cells[0][0].text()
    assert (disk([0.0, 0.5], dl.tol), disk([0.0, 0.0], dl.tol)) == (0, None)
    assert (line([3.0, 0.0], dl.tol), line([0.0, 0.5], dl.tol)) == (0, None)


def test_disk_line_membership_and_cells():
    dl = disk_line()
    assert dl.contains([0.0, 0.5])
    assert dl.contains([0.0, 0.0])
    assert dl.contains([0.3, 0.0])
    assert not dl.contains([0.0, -0.5])
    assert not dl.contains([1.0, 1.0001])
    # (0,0) is on the line but excluded from the open disk
    assert dl.member_cell([0.0, 0.0]) == 1
    assert dl.member_cell([0.0, 1.0]) == 0
    assert dl.member_cell([5.0, 5.0]) is None


def test_strict_boundary_points_are_excluded():
    pp = punctured_plane()
    assert pp.contains([1.0, 0.0])
    assert not pp.contains([0.0, 0.0])
    dl = disk_line()
    assert not dl.cell_contains(0, [1.0, 1.0])


def test_circle_membership():
    circ = unit_circle()
    assert circ.contains([1.0, 0.0])
    assert circ.contains([0.6, 0.8])
    assert not circ.contains([1.1, 0.0])


def test_whole_space():
    w = SubcartesianSpace.whole_space(3)
    assert w.contains([100.0, -100.0, 0.0])
    assert w.member_cell([0.0, 0.0, 0.0]) == 0


def test_constructor_validation():
    with pytest.raises(SpaceError):
        SubcartesianSpace(0, [()])
    with pytest.raises(SpaceError):
        SubcartesianSpace(1, [])
    with pytest.raises(SpaceError):
        SubcartesianSpace(1, [()], tol=0.0)


def test_project_to_equalities_onto_circle():
    circ = unit_circle()
    y = project_to_equalities(circ, 0, np.array([1.3, 0.4]))
    assert type(y) is list and all(type(v) is float for v in y)
    assert abs(y[0] ** 2 + y[1] ** 2 - 1.0) <= 1e-9
    # already on the locus: unchanged
    z = project_to_equalities(circ, 0, np.array([0.6, 0.8]))
    assert np.allclose(z, [0.6, 0.8], atol=1e-12)


def _walk(e, x):
    """The tree-walking evaluator the package once had beside the compiled one."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return float(x[e.index])
    if isinstance(e, Add):
        return _walk(e.left, x) + _walk(e.right, x)
    if isinstance(e, Mul):
        return _walk(e.left, x) * _walk(e.right, x)
    if isinstance(e, Div):
        den = _walk(e.right, x)
        if den == 0.0:
            raise DomainError("quotient denominator is zero")
        return _walk(e.left, x) / den
    if isinstance(e, Pow):
        return _walk(e.base, x) ** e.exponent
    if isinstance(e, Neg):
        return -_walk(e.operand, x)
    if isinstance(e, Cut):
        return _cut_value(e.shift, _walk(e.operand, x))
    assert isinstance(e, Fn)
    v = _walk(e.operand, x)
    if e.name == "log" and v <= 0.0 or e.name == "sqrt" and v < 0.0:
        raise DomainError(f"{e.name} argument out of domain, got {v!r}")
    return getattr(math, e.name)(v)


def _walk_jet(e, x):
    """Value and gradient of ``e`` at x, each by walking an exact derivative tree."""
    return _walk(e, x), [_walk(g, x) for g in gradient_exprs(e, len(x))]


def _eval_jet_projection(space, cell_index, start, max_iter=PROJECTION_STEPS):
    """``project_to_equalities`` as it was with a tree-walking jet per constraint."""
    eqs = [c for c in space.cells[cell_index] if c.rel is Rel.EQ]
    z = np.asarray(start, dtype=float).copy()
    if not eqs:
        return z
    n = space.ambient_dim
    target = min(space.tol * 1e-3, 1e-12)
    for _ in range(max_iter):
        try:
            jets = [_walk_jet(c.expr, z) for c in eqs]
        except DomainError:
            return None
        g = np.array([value for value, _ in jets])
        if np.max(np.abs(g)) <= target:
            return z
        J = np.array([grad for _, grad in jets]).reshape(len(eqs), n)
        try:
            lam = np.linalg.solve(J @ J.T, g)
        except np.linalg.LinAlgError:
            return None
        step = J.T @ lam
        if not np.all(np.isfinite(step)):
            return None
        z = z - step
    try:
        final = max(abs(_walk(c.expr, z)) for c in eqs)
    except DomainError:
        return None
    return z if final <= space.tol else None


def _inorder_solve(a, b):
    """a x = b by elimination with partial pivoting (first row of largest
    magnitude), column-wise back substitution, None on a zero pivot."""
    m = len(b)
    a = [list(row) for row in a]
    b = list(b)
    for k in range(m):
        p = k
        for i in range(k + 1, m):
            if abs(a[i][k]) > abs(a[p][k]):
                p = i
        a[k], a[p], b[k], b[p] = a[p], a[k], b[p], b[k]
        if a[k][k] == 0.0:
            return None
        for i in range(k + 1, m):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, m):
                a[i][j] = a[i][j] - f * a[k][j]
            b[i] = b[i] - f * b[k]
    for k in reversed(range(m)):
        b[k] = b[k] / a[k][k]
        for i in range(k):
            b[i] = b[i] - b[k] * a[i][k]
    return b


def _inorder(terms):
    """A sum in order from its first term, as ``a + b + c`` spells it."""
    terms = list(terms)
    s = terms[0]
    for t in terms[1:]:
        s = s + t
    return s


def _inorder_projection(space, cell_index, start, max_iter=PROJECTION_STEPS):
    """``project_to_equalities`` on Python floats: tree-walking jets, in-order
    sums for J J^T and J^T lam, and a list solver; an overflow gives None."""
    eqs = [c for c in space.cells[cell_index] if c.rel is Rel.EQ]
    z = [float(v) for v in start]
    if not eqs:
        return z
    n = space.ambient_dim
    target = min(space.tol * 1e-3, 1e-12)
    try:
        for _ in range(max_iter):
            jets = [_walk_jet(c.expr, z) for c in eqs]
            g = [value for value, _ in jets]
            if all(abs(v) <= target for v in g):
                return z
            J = [grad for _, grad in jets]
            lam = _inorder_solve([[_inorder(a * b for a, b in zip(Ji, Jj)) for Jj in J] for Ji in J], g)
            if lam is None:
                return None
            step = [_inorder(J[i][k] * lam[i] for i in range(len(eqs))) for k in range(n)]
            if not all(math.isfinite(v) for v in step):
                return None
            z = [a - b for a, b in zip(z, step)]
        final = [_walk(c.expr, z) for c in eqs]
    except (DomainError, OverflowError):
        return None
    return z if all(abs(v) <= space.tol for v in final) else None


def _hex_point(z):
    return None if z is None else [float(v).hex() for v in z]


def _check_projection(space, seed=5):
    """The generated projection equals the in-order reference bit for bit and
    stays within 1e-13 max(1, |z|) of the numpy one, with the same Nones.
    Fewer steps than ``project_to_equalities`` takes are run on the cell's
    generated function."""
    rng = random.Random(seed)
    n = space.ambient_dim
    for ci in range(len(space.cells)):
        project = _compile_projection(space.cells[ci], n, space.tol)
        for k in range(60):
            start = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            if k % 4 == 0:
                start[rng.randrange(n)] = 0.0  # where roots and quotients are singular
            if k % 3 == 0:
                max_iter = PROJECTION_STEPS
                got = project_to_equalities(space, ci, start)
            else:
                max_iter = 3 + k % 5
                got = project(start, max_iter)
            assert _hex_point(got) == _hex_point(_inorder_projection(space, ci, start, max_iter)), (ci, start)
            old = _eval_jet_projection(space, ci, start, max_iter)
            assert (got is None) == (old is None), (ci, start, max_iter)
            if got is not None:
                scale = max(1.0, max(abs(v) for v in old))
                assert max(abs(a - b) for a, b in zip(got, old)) <= 1e-13 * scale, (ci, start)


def _shipped_spaces():
    from subcart.cli import load_scenario

    for name in sorted(p.stem for p in Path(SCENARIO_DIR).glob("*.json")):
        sc = load_scenario(scenario_path(name))
        yield name, [sc.space] + [s.space for s in (sc.stratified.strata if sc.stratified else ())]


@pytest.mark.parametrize("name", sorted(p.stem for p in Path(SCENARIO_DIR).glob("*.json")))
def test_compiled_projection_jets_match_eval_jet(name):
    spaces = dict(_shipped_spaces())[name]
    for space in spaces:
        _check_projection(space)


def _two_equalities():
    # a circle in R^3: the gradients of two equalities fill a 2 x 3 Jacobian
    return SubcartesianSpace(3, [[
        Constraint(parse("x1^2 + x2^2 + x3^2 - 1", 3), Rel.EQ),
        Constraint(parse("x3 - 0.3 * x1 + x2 * x3", 3), Rel.EQ),
        Constraint(parse("x1", 3), Rel.GE),
    ]])


def test_compiled_projection_jets_with_two_equalities():
    _check_projection(_two_equalities())
    _check_projection(_two_equalities(), seed=6)
    # the second gradient is 100 times the first, so elimination swaps rows
    _check_projection(SubcartesianSpace(3, [[
        Constraint(parse("0.1 * (x1 + x2 + x3^2) - 0.1", 3), Rel.EQ),
        Constraint(parse("10 * x1 - 3 * x2^2 - 1", 3), Rel.EQ),
    ]]))


CONE = [Constraint(parse("x1^2 + x2^2 - x3^2", 3), Rel.EQ), Constraint(parse("x3", 3), Rel.GT)]
APEX = [Constraint(parse(f"x{i}", 3), Rel.EQ) for i in (1, 2, 3)]

# Projections pinned as hex floats: (cell, ambient dimension, start, result).
GOLDEN_PROJECTION = [
    ([Constraint(parse("x1^2 + x2^2 - 1", 2), Rel.EQ)], 2, [1.3, 0.4], ["0x1.e95bddc1545e9p-1", "0x1.2d24d73be5268p-2"]),
    (CONE, 3, [1.0, 0.5, 0.7], ["0x1.8b51a07058a92p-1", "0x1.8b51a07058a92p-2", "0x1.b9fadbbf02929p-1"]),
    (CONE, 3, [-0.3, 1.7, 0.2], ["-0x1.4c9576f795c04p-4", "0x1.d729133414258p-2", "0x1.de70cbfeab135p-2"]),
    (APEX, 3, [0.3, -0.2, 0.1], ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]),
    (_two_equalities().cells[0], 3, [0.9, -0.4, 0.6],
     ["0x1.9b62e027ee43ap-1", "-0x1.b1d334c46a409p-2", "0x1.ac45c157214d2p-2"]),
]


@pytest.mark.parametrize("cell, n, start, want", GOLDEN_PROJECTION)
def test_golden_projection(cell, n, start, want):
    space = SubcartesianSpace(n, [cell])
    assert _hex_point(project_to_equalities(space, 0, start)) == want


def test_projection_edge_cases():
    circ = unit_circle()
    assert project_to_equalities(circ, 0, [0.0, 0.0]) is None  # J J^T = 0: a zero pivot
    assert project_to_equalities(circ, 0, [math.nan, 0.5]) is None
    assert project_to_equalities(circ, 0, [1e200, 0.0]) is None  # Python's float ** overflows
    # parallel gradients: J J^T is singular, and the numpy reference agrees
    parallel = SubcartesianSpace(2, [[Constraint(parse("x1 - 1", 2), Rel.EQ),
                                      Constraint(parse("2 * x1 - 2", 2), Rel.EQ)]])
    assert project_to_equalities(parallel, 0, [0.5, 0.3]) is None
    assert _eval_jet_projection(parallel, 0, [0.5, 0.3]) is None
    # a NaN residual after a finite one fails the acceptance test, which the
    # old max(...) fold passed
    nan_after = SubcartesianSpace(2, [[Constraint(parse("x1", 2), Rel.EQ),
                                       Constraint(parse("x2 * 1e999", 2), Rel.EQ)]])
    assert _compile_projection(nan_after.cells[0], 2, nan_after.tol)([0.0, 0.0], 0) is None
    assert _eval_jet_projection(nan_after, 0, [0.0, 0.0], max_iter=0) is not None
    # no equalities: the start itself
    assert project_to_equalities(halfline(), 0, [0.5]) == [0.5]


def test_spaces_share_generated_functions_by_source_and_a_projection_bakes_in_its_tol():
    cells = [[Constraint(parse("x1^2+x2^2-1", 2), Rel.EQ)]]
    a, b, loose = SubcartesianSpace(2, cells), SubcartesianSpace(2, cells), SubcartesianSpace(2, cells, tol=1e-6)
    for space in (a, b, loose):
        project_to_equalities(space, 0, [0.9, 0.1])
    assert a._projections[0] is b._projections[0]
    assert a._projections[0] is not loose._projections[0]
    # with no step taken, the residual 1e-7 passes the acceptance test of
    # tol 1e-6 only
    assert a._projections[0]([1.0 + 5e-8, 0.0], 0) is None
    assert loose._projections[0]([1.0 + 5e-8, 0.0], 0) == [1.0 + 5e-8, 0.0]
    # membership takes the tolerance as an argument, so one function serves all three
    assert a._first_cell is b._first_cell is loose._first_cell


def test_sample_ball_on_circle_stays_on_locus():
    circ = unit_circle()
    rng = random.Random(0)
    pts = sample(circ, 25, ball(rng, np.array([1.0, 0.0]), 0.3), BALL_TRIES)
    assert len(pts) == 25
    assert all(type(p) is list and all(type(v) is float for v in p) for p in pts)
    g = compile_scalar(parse("x1^2+x2^2-1", 2))
    for p in pts:
        assert abs(g(p)) <= 1e-8
        assert np.linalg.norm(np.asarray(p) - [1.0, 0.0]) <= 0.3 + 1e-9


def test_sample_ball_round_robin_covers_cells():
    dl = disk_line()
    rng = random.Random(1)
    pts = sample(dl, 30, ball(rng, np.array([0.0, 0.0]), 0.4), BALL_TRIES)
    assert len(pts) == 30
    cells = {dl.member_cell(p) for p in pts}
    assert cells == {0, 1}


def test_sample_round_robin_split_and_tries():
    # of k cells the first count % k ask one more; a share of 0 is not asked
    x_1, x_2 = parse("x1 - 1", 1), parse("x1 - 2", 1)
    three = SubcartesianSpace(1, [[Constraint(x_1, Rel.LT)],
                                  [Constraint(x_1, Rel.GE), Constraint(x_2, Rel.LT)],
                                  [Constraint(x_2, Rel.GE)]])
    # each cell stops drawing once it has its share: for 7 the cells draw 7,
    # 4 and 4 times; for 2 the third cell, whose share is 0, draws nothing
    for count, shares, draws in ((7, [3, 2, 2], 15), (2, [1, 1], 2), (0, [], 0), (3, [1, 1, 1], 3)):
        drawn = []

        def draw():  # 0.5, 1.5, 2.5, 0.5, ...: each cell meets one draw in three
            drawn.append([0.5 + len(drawn) % 3])
            return drawn[-1]

        out = sample(three, count, draw, 3)
        cells = [three.member_cell(p) for p in out]
        assert cells == sorted(cells) and [cells.count(i) for i in range(len(shares))] == shares
        assert len(out) == count
        assert len(drawn) == draws
    # a cell the draws never meet gives up after tries draws per sample
    drawn = []
    assert sample(halfline(), 4, lambda: drawn.append(0) or [-1.0], 5) == []
    assert len(drawn) == 20


def test_sample_box():
    hl = halfline()
    rng = random.Random(2)
    pts = sample(hl, 20, box(rng, [0.0], [2.0]), BOX_TRIES)
    assert len(pts) == 20
    for p in pts:
        assert hl.contains(p)
        assert 0.0 <= p[0] <= 2.0


def _digest(pts):
    """The count, a hash of every coordinate's ``float.hex`` and the first point."""
    text = "\n".join(",".join(float(v).hex() for v in p) for p in pts)
    return [len(pts), hashlib.sha256(text.encode()).hexdigest()[:16], [float(v).hex() for v in pts[0]]]


# The points of the samplers that ``sample`` and the box draw replaced, as
# those samplers made them: ``sample_near`` on disk_line, ``strata``'s
# ``sample_space_box`` per cone stratum (count, digest, first point, then
# the next ``rng.random()``, which pins what the draws consumed),
# ``cli._box_points`` on acs_standard, and the certify points of ``reduce``
# on reduction_r4, all at seed 0: the first 120 were its fit points, when
# it fitted its table by least squares.
GOLDEN_SAMPLES = {
    "ball_disk_line": [30, "d09f3cd0a22b159e", ["0x1.1a267f5aa62cap-2", "0x1.a6a1eb1cb8d20p-3"],
                       "0x1.f1bca90426464p-3"],
    "box_cone_apex": [60, "5a25b314b33e54f2", ["0x0.0p+0", "0x0.0p+0", "0x0.0p+0"], "0x1.447a9936a43d4p-1"],
    "box_cone_surface": [60, "8e62ba36ccc88872",
                         ["0x1.d4de2ab27c04dp-1", "0x1.5f287955acb77p-1", "0x1.24e506a041272p+0"],
                         "0x1.447a9936a43d4p-1"],
    "box_points_acs_standard": [25, "21816040454d354c", ["0x1.60b01f314fb7cp-1", "0x1.082532f1f3834p-1",
                                                         "-0x1.4556bbeb45a20p-3", "-0x1.edbd0e08d74b4p-2"]],
    "reduce_certify_points_first_120": [120, "6a0459763f8be12f", ["0x1.08841764fbc9cp+0", "0x1.8c37cc6aed450p-1",
                                                                  "-0x1.e80219e0e8730p-3", "-0x1.724dca86a1787p-1"]],
    "reduce_certify_points": [200, "945519661484f00c", ["0x1.08841764fbc9cp+0", "0x1.8c37cc6aed450p-1",
                                                        "-0x1.e80219e0e8730p-3", "-0x1.724dca86a1787p-1"]],
}


def test_sample_reproduces_the_points_of_the_samplers_it_replaced(monkeypatch):
    got = {}
    rng = random.Random(0)
    dl = cli.load_scenario(scenario_path("disk_line"))
    got["ball_disk_line"] = _digest(sample(dl.space, 30, ball(rng, [0.0, 0.0], 0.4), BALL_TRIES)) + [
        rng.random().hex()]
    cone = cli.load_scenario(scenario_path("cone"))
    for s in cone.stratified.strata:
        rng = random.Random(0)
        got[f"box_cone_{s.name}"] = _digest(sample(s.space, 60, box(rng, *cone.box), BOX_TRIES)) + [
            rng.random().hex()]
    got["box_points_acs_standard"] = _digest(cli._box_points(cli.load_scenario(scenario_path("acs_standard")),
                                                             25, 0))
    # reduce evaluates its invariants, the first function it compiles, at
    # the certify points
    seen = []
    compile_vector = subcart.poisson.compile_vector

    def recording(exprs):
        f = compile_vector(exprs)
        if recording.done:
            return f
        recording.done = True
        return lambda x: seen.append(list(x)) or f(x)

    recording.done = False

    monkeypatch.setattr(subcart.poisson, "compile_vector", recording)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["reduce", "--scenario", scenario_path("reduction_r4")]) == 0
    got["reduce_certify_points_first_120"] = _digest(seen[:120])
    got["reduce_certify_points"] = _digest(seen)
    assert got == GOLDEN_SAMPLES


# Generated membership against the per-constraint reference ---------------------

N_PROP = 2
_CLOSED = {Rel.GT: Rel.GE, Rel.LT: Rel.LE}
RELAXED = DEFAULT_TOL * ATTAINED_FACTOR


def _ieee_scalar(e):
    """``e`` compiled in IEEE arithmetic, as the package evaluates a
    constraint (``expr._emit`` with ``ieee``): a square is the product b * b
    and any other power is inf past the float range, so nothing overflows.
    Python float ``**`` retried on numpy floats raised at (sqrt(x1)^2)^2 for
    x1 = 1e200, as ``math.sqrt`` hands a Python float back to ``**``."""
    lines: list[str] = []
    name = expr_module._emit(e, {}, lines, "_x[{}]", ieee=True)
    body = "".join(f"    {line}\n" for line in lines)
    return expr_module._define(f"def _f(_x):\n{body}    return {name}\n", "<ieee reference>")


def _reference_cell(space, i, x, tol):
    """A cell holds when every constraint is defined at x and satisfies its relation."""
    for c in space.cells[i]:
        try:
            v = _ieee_scalar(c.expr)(x)
        except DomainError:
            return False
        if not c.satisfied(v, tol):
            return False
    return True


def _reference_first(space, x, tol):
    return next((i for i in range(len(space.cells)) if _reference_cell(space, i, x, tol)), None)


def _old_slack(space, point):
    """``slack`` as a loop over one compiled callable per constraint."""
    best = -np.inf
    for cell in space.cells:
        worst = np.inf
        for c in cell:
            try:
                m = c.margin(_ieee_scalar(c.expr)(point))
            except DomainError:
                worst = -np.inf
                break
            if m < worst or m != m:
                worst = m
        if worst > best or worst != worst:
            best = worst
    return float(best)


def _outcome(f, *args):
    """The result, or the class of the exception a non-domain failure raises."""
    try:
        return f(*args)
    except Exception as exc:  # sin(inf) raises ValueError on both sides
        return type(exc)


_leaves = st.one_of(st.builds(Var, st.integers(0, N_PROP - 1)),
                    st.sampled_from([Const(0.0), Const(1.0), Const(-0.5), Const(2.0)]))
_exprs = st.recursive(_leaves, lambda kids: st.one_of(
    st.builds(add, kids, kids), st.builds(sub, kids, kids), st.builds(mul, kids, kids),
    st.builds(Div, kids, kids),  # raw node: a zero denominator raises at evaluation
    st.builds(fn, st.sampled_from(["log", "sqrt", "sin", "exp"]), kids),
    st.builds(pow_int, kids, st.integers(2, 3)),
), max_leaves=5)


@st.composite
def _spaces(draw):
    """Multi-cell spaces over all five relations; constraints of a cell reuse
    expression objects, so the generated code shares their subtrees."""
    pool = draw(st.lists(_exprs, min_size=1, max_size=3))
    picks = st.one_of(st.sampled_from(pool), st.builds(add, st.sampled_from(pool), _exprs),
                      st.builds(Var, st.integers(0, N_PROP - 1)))
    cells = draw(st.lists(
        st.lists(st.builds(Constraint, picks, st.sampled_from(list(Rel))), max_size=3),
        min_size=1, max_size=3))
    return SubcartesianSpace(N_PROP, cells)


# x1^2 overflows after x2 >= 0 held in the same cell, and x1^3 to -inf
_OVERFLOW_AFTER_A_PASS = SubcartesianSpace(2, [
    [Constraint(parse("x2", 2), Rel.GE), Constraint(parse("1 - x1^2", 2), Rel.GE)],
    [Constraint(parse("x1^3", 2), Rel.LT)]])

# the edges of the default and relaxed bands, where a comparison that lost or
# gained its equality case changes the answer
_edges = [s * t for s in (1.0, -1.0) for t in (DEFAULT_TOL, RELAXED)]
_coords = st.one_of(st.sampled_from(_edges), st.floats(-3.0, 3.0),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, math.nan, math.inf, -math.inf]),
                    st.sampled_from([1e200, -1e200, 1e308, -1e308, 1e-200]))  # powers overflow


@given(_spaces(), st.lists(_coords, min_size=N_PROP, max_size=N_PROP), st.booleans(),
       st.lists(_coords, max_size=N_PROP))
@example(SubcartesianSpace(2, [[Constraint(parse("(1/x1)^2", 2), Rel.LE)]]),
         [1.3758828927650757e-229, 1e-09], False, [1e200])  # overflows on Python floats only
@example(SubcartesianSpace(2, [[Constraint(parse("exp(x1)", 2), Rel.GE)]]),
         [1e200, 0.0], False, [])  # math.exp overflows, exp gives inf
@example(_OVERFLOW_AFTER_A_PASS, [-1e200, 0.5], False, [])
@example(SubcartesianSpace(2, [[Constraint(parse("(sqrt(x1)^2)^2", 2), Rel.EQ)]]),
         [1e200, 1e-9], False, [])  # a square of a Python float past the float range
@settings(max_examples=500, deadline=None)
def test_generated_membership_matches_reference(space, coords, as_array, extra):
    x = np.array(coords) if as_array else coords
    # coordinates after the space's, as a transported vector adds, change nothing
    longer = np.array(coords + extra) if as_array else coords + extra
    with np.errstate(all="ignore"):
        for f in (space.contains, space.member_cell, space.closure_contains):
            assert _outcome(f, longer) == _outcome(f, x)
        assert repr(_outcome(space.slack, longer)) == repr(_outcome(space.slack, x))
    for tol in (None, RELAXED):
        # the space's own tolerance rules every test but ``contains``
        t = space.tol if tol is None else tol
        banded = SubcartesianSpace(N_PROP, space.cells, t)
        with np.errstate(all="ignore"):  # inf - inf on numpy scalars
            first = _outcome(_reference_first, space, x, t)
            got = _outcome(space.contains, x, tol)
            assert got == (first if isinstance(first, type) else first is not None)
            assert isinstance(first, type) or type(got) is bool
            assert _outcome(banded.member_cell, x) == first
            for i in range(len(space.cells)):
                inside = _outcome(banded.cell_contains, i, x)
                assert inside == _outcome(_reference_cell, space, i, x, t)
                assert isinstance(inside, type) or type(inside) is bool
            # the closure relaxes > to >= and < to <=
            closed = SubcartesianSpace(N_PROP, [[Constraint(c.expr, _CLOSED.get(c.rel, c.rel)) for c in cell]
                                                for cell in space.cells])
            first = _outcome(_reference_first, closed, x, t)
            assert _outcome(banded.closure_contains, x) == (first if isinstance(first, type) else first is not None)


@given(_spaces(), st.lists(_coords, min_size=N_PROP, max_size=N_PROP), st.booleans())
@example(SubcartesianSpace(2, [[Constraint(parse("(1/x1)^2", 2), Rel.LE)], []]),
         [1.3758828927650757e-229, 1e-09], False)
@example(SubcartesianSpace(2, [[Constraint(parse("log(x1)", 2), Rel.GE)],
                               [Constraint(parse("x2", 2), Rel.EQ)]]),
         [-1.0, math.nan], False)  # a DomainError cell, then a NaN margin
@example(_OVERFLOW_AFTER_A_PASS, [-1e200, 0.5], False)
@settings(max_examples=500, deadline=None)
def test_generated_slack_matches_reference(space, coords, as_array):
    x = np.array(coords) if as_array else coords
    with np.errstate(all="ignore"):
        want = _outcome(_old_slack, space, x)
        got = _outcome(space.slack, x)
    assert repr(got) == repr(want)  # NaN and the sign of zero included
    assert isinstance(want, type) or type(got) is float


@pytest.mark.parametrize("rel", list(Rel))
@pytest.mark.parametrize("value", [k * v for k in (0.5, 1.0, 2.0) for v in _edges]
                         + [0.0, -0.0, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("tol", [None, RELAXED])
def test_generated_membership_at_band_edges(rel, value, tol):
    c = Constraint(parse("x1", 1), rel)
    expected = c.satisfied(value, DEFAULT_TOL if tol is None else tol)
    assert SubcartesianSpace(1, [[c]]).contains([value], tol) is expected
    space = SubcartesianSpace(1, [[c]], DEFAULT_TOL if tol is None else tol)
    assert space.contains([value]) is expected
    assert space.cell_contains(0, [value]) is expected
    assert space.member_cell([value]) == (0 if expected else None)


def test_membership_where_float_power_overflows():
    # Python's float ** raises OverflowError where numpy's gives inf; the cell
    # squares by product, which is inf there too, and an array's scalars
    # print no RuntimeWarning
    plane, disk = punctured_plane(), disk_line()
    huge = [1e200, 1e200]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert plane.contains(huge) and plane.member_cell(huge) == 0
        assert plane.cell_contains(0, huge)
        assert not disk.contains(huge) and disk.member_cell(huge) is None
        assert disk.slack(huge) == -1e200  # the line cell; the disk margin is -inf
        plane.require_member(np.array([1e308, 1e308]))
        with pytest.raises(SpaceError, match="not in the space"):
            disk.require_member(np.array(huge))
    # finite points that do not overflow keep their answers
    for p in ([0.5, 0.5], [0.0, 0.0], [1e-200, 0.0], [3.0, -4.0], [1e150, 1e150]):
        assert plane.contains(p) == plane.contains(np.array(p))
        assert disk.member_cell(p) == disk.member_cell(np.array(p))


def test_a_power_past_the_float_range_is_ieee_in_membership():
    # float(k) overflows for this k, so Python's float ** raises at any base;
    # 0.5^k is 0 and 2^k is inf
    k = "1" + "0" * 400
    space = SubcartesianSpace(1, [[Constraint(parse(f"1 - x1^{k}", 1), Rel.GE)]])
    assert space.contains([0.5]) and space.contains([-1.0]) and space.slack([0.5]) == 1.0
    assert not space.contains([2.0]) and space.slack([-2.0]) == -math.inf


def test_an_odd_power_past_2_53_keeps_the_sign_of_its_base_in_membership():
    # float(k) is even for this odd k, so Python's float ** gives (-1)^k = 1
    # and would reject -1, where x1^k + 0.5 = -0.5 holds
    k = "1" + "0" * 299 + "1"
    space = SubcartesianSpace(1, [[Constraint(parse(f"x1^{k} + 0.5", 1), Rel.LE)]])
    assert space.contains([-1.0]) and space.slack([-1.0]) == 0.5
    assert space.contains([-1.5]) and not space.contains([1.0]) and not space.contains([-0.5])


def test_constraint_squares_are_correctly_rounded_products():
    # Python's float ** calls the C library's pow, which may misround a
    # square; a constraint squares by product, which IEEE rounds correctly.
    # Where the library rounds every draw correctly, none is misrounded
    rng = random.Random(41)
    misrounded: list[float] = []
    for _ in range(1_000_000):
        x = rng.uniform(-3.0, 3.0)
        if x ** 2 != x * x:
            misrounded.append(x)
            if len(misrounded) == 20:
                break
    square = SubcartesianSpace(1, [[Constraint(parse("x1^2", 1), Rel.GE)]])
    for x in misrounded + [rng.uniform(-3.0, 3.0) for _ in range(100)]:
        value = square.slack([x])  # the margin of one >= constraint is its value
        assert value.hex() == (x * x).hex() and value == float(Fraction(x) ** 2), x


def _generated_source(f) -> str:
    return next(src for (_, src), g in expr_module._FUNCTIONS.items() if g is f)


def _kernel_constraint_lines(components, cells, keep) -> Counter:
    """The lines the cells add to a flow kernel, its scan's tests and its
    exit bisection: its source less that of the same kernel with nothing to
    test, or, for a drift, with no constraint."""
    bare = [()] if keep == "drift" else None
    return (Counter(_driver_source(components, cells, keep).splitlines())
            - Counter(_driver_source(components, bare, keep).splitlines()))


@pytest.mark.parametrize("name", sorted(p.stem for p in Path(SCENARIO_DIR).glob("*.json")))
def test_constraint_sources_hold_no_float_power(name):
    sc = cli.load_scenario(scenario_path(name))
    for space in [sc.space] + [s.space for s in (sc.stratified.strata if sc.stratified else ())]:
        sources = [_generated_source(f) for f in (space._first_cell, space._slack)]
        for fld in sc.fields.values():
            for keep in ("store", "count", None, "drift"):
                sources.append("\n".join(_kernel_constraint_lines(fld.components, space.cells, keep)))
        for src in sources:
            assert "**" not in src and "except OverflowError" not in src
