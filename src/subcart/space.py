"""Subsets of R^n described by finite unions of constraint cells.

A cell is a conjunction of smooth constraints (equalities and strict or
non-strict inequalities) and a space is a finite union of cells.  Membership
carries an explicit tolerance: non-strict constraints get a forgiving band,
strict constraints get a guard band, so "member" is numerically stable on
both sides.  ``locally_closed`` is derived: one cell is, as each constraint
is closed or open in its expression's domain and the domains of ``log``,
``sqrt`` and quotients are locally closed; a union is not shown to be.  Even
closed cells may fail: {log(x2) <= 100, x1^2 + x2^2 <= 1} and the origin are
not locally closed at the origin.

Membership is generated code.  On a space's first membership test its cells
are emitted, with the expression compiler's emitter, into one Python
function of the point and the tolerance that tests the cells in order, each
inside its own ``try`` so that a constraint undefined at the point
(``DomainError``) rules out only its cell, and returns the index of the
first cell that holds.  ``contains``, ``member_cell``, ``cell_contains`` and
``closure_contains`` (strict relations relaxed) all call functions made by
that one generator.  A flow kernel, which is handed the space, tests its
cells with the same lines inline, and locates an exit with the space's
bisection, a loop over a step's dense output and the same lines, generated
on the space's first exit.
``slack`` is emitted the same way on its first use.  The strongly-stratified
check of ``strata`` folds the same slack lines inline in a flow kernel of
its own use, "drift", which reads the stratum's slack at every scanned
point of its curve and stores none of them.
Constraints are evaluated in IEEE arithmetic: an overflow is an infinity,
and an infinity's ``sin`` is NaN.  Python's float ``**`` alone raises
``OverflowError`` there, so a cell whose test overflows is tested again, in
the same generated function, with its powers spelled ``_pow``, which gives
the infinity; only that rare path pays for it.

The Gauss-Newton projection onto a cell's equalities is generated the same
way, one function per cell on its first projection: the equalities and
their gradients inline, J J^T and J^T lam as in-order sums, and the m x m
system solved by elimination with partial pivoting, all on Python floats,
so no projected point depends on a BLAS build.  A projection whose
equalities overflow fails, as one with a step that is not finite does.
Each of these generators hands its source to ``expr._define``, which
compiles a source once per process: a space built anew with the same
cells, by another command in the same process, gets the functions already
made, while a different ``tol``, written into a projection's source as a
literal, makes a new one.  A space still keeps the functions it got, so
its later tests neither emit nor look up a source.
``sample`` is the one sampler: it draws with a ``ball`` or ``box`` draw,
projects and tests, all on float lists.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .expr import (
    DomainError,
    Expr,
    _const_source,
    _define,
    _emit,
    _pairwise_sum,
    gradient_exprs,
    to_text,
    vector_source,
)

DEFAULT_TOL = 1e-9


class SpaceError(ValueError):
    """Raised for malformed spaces or points outside expectations."""


class Rel(str, Enum):
    """Constraint sense: the constraint function g compared against zero."""

    EQ = "eq0"
    GE = "geq0"
    GT = "gt0"
    LE = "leq0"
    LT = "lt0"


@dataclass(frozen=True)
class Constraint:
    expr: Expr
    rel: Rel

    def satisfied(self, value: float, tol: float) -> bool:
        if self.rel is Rel.EQ:
            return abs(value) <= tol
        if self.rel is Rel.GE:
            return value >= -tol
        if self.rel is Rel.LE:
            return value <= tol
        if self.rel is Rel.GT:
            return value > tol
        return value < -tol

    def margin(self, value: float) -> float:
        """Signed slack, positive inside the constraint, tolerance-free."""
        if self.rel is Rel.EQ:
            return -abs(value)
        if self.rel in (Rel.GE, Rel.GT):
            return value
        return -value

    def text(self) -> str:
        return to_text(self.expr)


Cell = tuple[Constraint, ...]

# The test and the margin of each relation as source for the generated
# functions; the value goes in the braces.  ``Constraint.satisfied`` and
# ``Constraint.margin`` spell out the same rules.
_TESTS = {
    Rel.EQ: "abs({}) <= _tol",
    Rel.GE: "{} >= -_tol",
    Rel.LE: "{} <= _tol",
    Rel.GT: "{} > _tol",
    Rel.LT: "{} < -_tol",
}
_MARGINS = {Rel.EQ: "-abs({})", Rel.GE: "{}", Rel.GT: "{}", Rel.LE: "-{}", Rel.LT: "-{}"}
_CLOSED = {Rel.GT: Rel.GE, Rel.LT: Rel.LE}


def _cell_source(cell: Cell, check: Callable[[Constraint, str], str], indent: str, coord: str,
                 ieee: bool = False) -> list[str]:
    """Lines that evaluate a cell's constraints in order, each followed by
    ``check(constraint, value)``; the expressions share the emitter's memo,
    so a common subtree is evaluated once.  ``coord`` spells the coordinates
    and ``ieee`` the powers as in ``expr._emit``."""
    memo: dict[int, str] = {}
    lines: list[str] = []
    src = []
    for c in cell:
        start = len(lines)
        value = _emit(c.expr, memo, lines, coord, ieee)
        src += [f"{indent}    {line}" for line in lines[start:]]
        src.append(f"{indent}    {check(c, value)}")
    return src


def _cells_test(cells: Sequence[Cell], coord: str, indent: str) -> list[str]:
    """Lines that set ``_c``, None before them, to the index of the first
    cell holding at the point given by ``coord`` under the tolerance ``_tol``.

    A cell's constraints are tested in order and the first failing one ends
    the cell (``break`` out of a ``while True`` that never loops); a
    ``DomainError`` anywhere in the cell rules the cell out.  Where Python's
    float ``**`` overflows, the cell is tested again with its powers
    spelled ``_pow``, which gives the IEEE infinity.  Cells after the
    first run only while ``_c`` is None, so the lines stay flat however
    many cells and constraints there are.  Membership functions, the exit
    bisection and the flow kernels' scans are all made of these lines.
    """
    def test(cell: Cell, i: int, pad: str, ieee: bool) -> list[str]:
        return [f"{pad}try:", f"{pad}    while True:",
                *_cell_source(cell, lambda c, v: f"if not {_TESTS[c.rel].format(v)}: break", pad + " " * 4,
                              coord, ieee),
                f"{pad}        _c = {i}", f"{pad}        break", f"{pad}except _DomainError:", f"{pad}    pass"]

    src = []
    for i, cell in enumerate(cells):
        pad = indent + "    " * (i > 0)
        if i:
            src.append(f"{indent}if _c is None:")
        src += [*test(cell, i, pad, False), f"{pad}except OverflowError:", *test(cell, i, pad + "    ", True)]
    return src


def _compile_bisection(cells: Sequence[Cell], n: int) -> Callable:
    """Generate ``f(space, coeffs, lo, hi, h, limit)``, the bisection by
    which a flow locates its exit from the space with these cells.

    ``coeffs`` holds one tuple (y, ydiff, bspl, r4, r5) of a step's dense
    output per component, of which the first n, the space's coordinates,
    are read; ``lo`` is a fraction of the step whose point holds, ``hi``
    one whose point fails.  While ``(hi - lo) * |h|`` exceeds ``limit`` the
    point at the midpoint fraction is computed by ``flow._dense``'s formula
    and tested by the lines of ``_cells_test`` under ``space.tol``, and
    replaces the end of the same verdict.  Returns the last ``lo`` and
    ``hi``, which are those of a loop of ``_dense`` and ``space.contains``.
    """
    ks = range(n)
    src = ["def _f(_space, _coeffs, _lo, _hi, _h, _limit):",
           "    " + ", ".join(f"(y{k}, yd{k}, bs{k}, q{k}, r{k})" for k in ks) + f", = _coeffs[:{n}]",
           "    _tol = _space.tol", "    _span = abs(_h)", "    while (_hi - _lo) * _span > _limit:",
           "        _mid = 0.5 * (_lo + _hi)", "        _u = 1.0 - _mid",
           *(f"        p{k} = y{k} + _mid * (yd{k} + _u * (bs{k} + _mid * (q{k} + _u * r{k})))" for k in ks),
           "        _c = None", *_cells_test(cells, "p{}", " " * 8),
           "        if _c is None:", "            _hi = _mid", "        else:", "            _lo = _mid",
           "    return _lo, _hi"]
    return _build(src, "<bisection>")


def _build(src: list[str], name: str) -> Callable:
    return _define("\n".join(src) + "\n", name, _DomainError=DomainError, _solve=_solve)


def _compile_cells(cells: Sequence[Cell]) -> Callable[[Sequence[float], float], Optional[int]]:
    """Generate ``f(x, tol)``: the index of the first cell holding at x, or None."""
    return _build(["def _f(_x, _tol):", "    _c = None"] + _cells_test(cells, "_x[{}]", "    ")
                  + ["    return _c"], "<membership>")


def _slack_source(cells: Sequence[Cell], indent: str, coord: str) -> list[str]:
    """Lines that set ``_b`` to the slack of ``SubcartesianSpace.slack`` at the
    point given by ``coord``.

    Each cell folds its margins in order into its worst one, ``_w``, and the
    cells fold into the best, ``_b``; a NaN taken by either fold stays, and a
    ``DomainError`` anywhere in a cell makes its margin -inf.  Where Python's
    float ``**`` overflows, the cell's fold starts again with its powers
    spelled ``_pow``, as in ``_cells_test``.
    """
    def fold(cell: Cell, pad: str, ieee: bool) -> list[str]:
        return [f"{pad}try:",
                *_cell_source(cell, lambda c, v: f"_m = {_MARGINS[c.rel].format(v)}; "
                              "_w = _m if _m < _w or _m != _m else _w", pad, coord, ieee),
                f"{pad}except _DomainError:", f"{pad}    _w = -_inf"]

    src = [f"{indent}_b = -_inf"]
    for cell in cells:
        src.append(f"{indent}_w = _inf")
        if cell:
            src += [*fold(cell, indent, False), f"{indent}except OverflowError:", f"{indent}    _w = _inf",
                    *fold(cell, indent + "    ", True)]
        src.append(f"{indent}_b = _w if _w > _b or _w != _w else _b")
    return src


def _compile_slack(cells: Sequence[Cell]) -> Callable[[Sequence[float]], float]:
    """Generate ``slack(x)``, the slack of ``SubcartesianSpace.slack``."""
    return _build(["def _f(_x):", *_slack_source(cells, "    ", "_x[{}]"), "    return float(_b)"], "<slack>")


class SubcartesianSpace:
    """Finite union of constraint cells in a fixed ambient dimension."""

    def __init__(self, ambient_dim: int, cells: Sequence[Sequence[Constraint]], tol: float = DEFAULT_TOL):
        if ambient_dim < 1:
            raise SpaceError(f"ambient dimension must be positive, got {ambient_dim}")
        if not 0 < tol < math.inf:
            raise SpaceError(f"membership tolerance must be finite and positive, got {tol}")
        if not cells:
            raise SpaceError("a space needs at least one cell")
        self.ambient_dim = int(ambient_dim)
        self.cells: tuple[Cell, ...] = tuple(tuple(c) for c in cells)
        self.locally_closed = len(self.cells) == 1
        self.tol = float(tol)
        # one-cell predicates and projections for the sampler, generated on first use
        self._cell_tests: list[Optional[Callable]] = [None] * len(self.cells)
        self._projections: list[Optional[Callable]] = [None] * len(self.cells)

    @functools.cached_property
    def _first_cell(self) -> Callable[[Sequence[float], float], Optional[int]]:
        """The predicate over all cells, generated on first use, so a space that
        is never tested, as in most symbolic commands, costs no ``compile()``."""
        return _compile_cells(self.cells)

    @functools.cached_property
    def _scan_key(self) -> Optional[str]:
        """The source of the cell tests, which a flow kernel's membership scan
        is made from and its cache is keyed by; None when a cell with no
        constraints holds everywhere, so flows test nothing."""
        if not all(self.cells):
            return None
        return "\n".join(_cells_test(self.cells, "_x[{}]", ""))

    @functools.cached_property
    def _bisect(self) -> Callable:
        """The exit bisection of ``_compile_bisection``, generated on the first
        exit of a flow on the space."""
        return _compile_bisection(self.cells, self.ambient_dim)

    @functools.cached_property
    def _constraint_tests(self) -> list[list[tuple[Callable[[Sequence[float], float], Optional[int]], str]]]:
        """The membership function of each constraint as a cell of its own,
        and its text, for the constraint named by an exit witness; generated
        on first use, since membership does not need them.  A one-constraint
        space's is its membership function."""
        return [[(_compile_cells([(c,)]), c.text()) for c in cell] for cell in self.cells]

    def cell_contains(self, cell_index: int, point: Sequence[float]) -> bool:
        test = self._cell_tests[cell_index]
        if test is None:
            test = self._cell_tests[cell_index] = _compile_cells(self.cells[cell_index : cell_index + 1])
        return test(point, self.tol) is not None

    def contains(self, point: Sequence[float], tol: Optional[float] = None) -> bool:
        return self._first_cell(point, self.tol if tol is None else tol) is not None

    def member_cell(self, point: Sequence[float]) -> Optional[int]:
        return self._first_cell(point, self.tol)

    def closure_contains(self, point: Sequence[float]) -> bool:
        """Membership in the topological closure: strict relations relaxed."""
        return self._closure_cell(point, self.tol) is not None

    @functools.cached_property
    def _closure_cell(self) -> Callable[[Sequence[float], float], Optional[int]]:
        return _compile_cells([tuple(Constraint(c.expr, _CLOSED.get(c.rel, c.rel)) for c in cell)
                               for cell in self.cells])

    def slack(self, point: Sequence[float]) -> float:
        """Best cell margin: max over cells of the worst constraint margin.

        Positive means comfortably inside some cell, negative means every
        cell is violated by at least that much.  Constraint functions that
        are undefined at the point count as minus infinity for their cell.
        A NaN margin makes the slack NaN, as ``np.min``/``np.max`` would.
        The folds are one function generated on first use, like membership.
        A drift kernel (``flow.drift``) folds the same lines inline.
        """
        return self._slack(point)

    @functools.cached_property
    def _slack(self) -> Callable[[Sequence[float]], float]:
        """The slack function of ``_compile_slack``, generated on first use."""
        return _compile_slack(self.cells)

    @functools.cached_property
    def _slack_key(self) -> str:
        """The source of the slack, which a drift kernel folds along a curve
        (``flow.drift``) and its cache is keyed by."""
        return "\n".join(_slack_source(self.cells, "", "_x[{}]"))

    def require_member(self, point: Sequence[float], what: str = "point") -> None:
        if hasattr(point, "tolist"):
            point = point.tolist()  # an array's scalars would warn where a power overflows
        if not self.contains(point):
            raise SpaceError(f"{what} {list(map(float, point))} is not in the space (slack {self.slack(point):.3e})")

    @classmethod
    def whole_space(cls, ambient_dim: int) -> "SubcartesianSpace":
        """All of R^n: one cell with no constraints."""
        return cls(ambient_dim, [()])


# Sampling --------------------------------------------------------------------
#
# Cells with equality constraints have measure zero, so plain rejection
# sampling never lands on them.  Draws are pulled toward the equality locus
# with Gauss-Newton steps first, then filtered through full cell membership.
# Points go in and come out as lists of Python floats.

def _solve(a: list[list[float]], b: list[float]) -> Optional[list[float]]:
    """x with a x = b, by elimination with partial pivoting (the first row of
    largest magnitude, as LAPACK's idamax picks it) and column-wise back
    substitution, or None where a pivot is exactly zero, as LAPACK's getrf
    reports a singular matrix.  Overwrites a and b."""
    m = len(b)
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(a[i][k]))
        if p != k:
            a[k], a[p] = a[p], a[k]
            b[k], b[p] = b[p], b[k]
        pivot = a[k][k]
        if pivot == 0.0:
            return None
        for i in range(k + 1, m):
            f = a[i][k] / pivot
            for j in range(k + 1, m):
                a[i][j] = a[i][j] - f * a[k][j]
            b[i] = b[i] - f * b[k]
    for k in reversed(range(m)):
        b[k] = b[k] / a[k][k]
        for i in range(k):
            b[i] = b[i] - b[k] * a[i][k]
    return b


def _compile_projection(cell: Cell, n: int, tol: float) -> Callable[[list[float], int], Optional[list[float]]]:
    """Generate ``f(x, max_iter)``: ``project_to_equalities`` of the cell on
    float lists.

    Each iteration computes the m equalities g and their gradients, the rows
    of J, inline over the coordinates x0..; it stops when every |g_i| is at
    most the target, forms J J^T with in-order sums, solves J J^T lam = g (for
    m = 1 that is lam = g / d, else ``_solve``), takes the step J^T lam, again
    in-order, and ends with None on a zero pivot or a step that is not
    finite.  After ``max_iter`` steps the point is kept when every |g_i| is at
    most ``tol``, so a NaN residual rejects it.  A constraint undefined at an
    iterate (``DomainError``) or one whose power overflows on Python floats
    also gives None; in IEEE arithmetic the latter would be inf and then a
    NaN step.
    """
    eqs = [c.expr for c in cell if c.rel is Rel.EQ]
    if not eqs:
        return lambda x, max_iter: list(x)
    m = len(eqs)
    target = _const_source(min(tol * 1e-3, 1e-12))
    xs = ", ".join(f"x{k}" for k in range(n))
    lines, names = vector_source(eqs + [d for e in eqs for d in gradient_exprs(e, n)], "x{}")
    g, J = names[:m], [names[m + i * n : m + i * n + n] for i in range(m)]

    def dot(u: list[str], v: list[str]) -> str:
        return " + ".join(f"{a} * {b}" for a, b in zip(u, v))

    body = lines + [
        f"if {' and '.join(f'abs({v}) <= {target}' for v in g)}:",
        f"    return [{xs}]",
    ]
    body += [f"_a{i}_{j} = {dot(J[i], J[j])}" for i in range(m) for j in range(i + 1)]  # J J^T is symmetric
    if m == 1:
        body += ["if _a0_0 == 0.0:", "    return None", f"_l0 = {g[0]} / _a0_0"]
    else:
        rows = ", ".join("[" + ", ".join(f"_a{max(i, j)}_{min(i, j)}" for j in range(m)) + "]" for i in range(m))
        body += [f"_l = _solve([{rows}], [{', '.join(g)}])", "if _l is None:", "    return None",
                 f"{', '.join(f'_l{i}' for i in range(m))}, = _l"]
    body += [f"_s{k} = {dot([J[i][k] for i in range(m)], [f'_l{i}' for i in range(m)])}" for k in range(n)]
    body += [f"if not ({' and '.join(f'-_inf < _s{k} < _inf' for k in range(n))}):", "    return None"]
    body += [f"x{k} = x{k} - _s{k}" for k in range(n)]
    final, residuals = vector_source(eqs, "x{}")
    src = ["def _f(_x, _max_iter):", f"    {xs}, = _x", "    try:", "        for _ in range(_max_iter):"]
    src += [f"            {line}" for line in body] + [f"        {line}" for line in final]
    src += ["    except (_DomainError, OverflowError):", "        return None",
            f"    if {' and '.join(f'abs({v}) <= {_const_source(tol)}' for v in residuals)}:",
            f"        return [{xs}]", "    return None"]
    return _build(src, "<projection>")


# Gauss-Newton steps of a projection, at most
PROJECTION_STEPS = 40


def project_to_equalities(space: SubcartesianSpace, cell_index: int, start: Sequence[float]) -> Optional[list[float]]:
    """Gauss-Newton projection of ``start`` onto the cell's equality locus,
    by the cell's projection function, generated on the cell's first
    projection and kept on the space, in at most ``PROJECTION_STEPS`` steps.

    Returns None when the iteration stalls, the constraint gradients are
    degenerate at the iterate, or a constraint is undefined or overflows
    there.  Inequalities of the cell are ignored here.
    """
    f = space._projections[cell_index]
    if f is None:
        f = space._projections[cell_index] = _compile_projection(
            space.cells[cell_index], space.ambient_dim, space.tol)
    return f([float(v) for v in start], PROJECTION_STEPS)


# draws per sample asked of a cell, at most, from a ball and from a box
BALL_TRIES = 60
BOX_TRIES = 80


def ball(rng: random.Random, center: Sequence[float], radius: float) -> Callable[[], list[float]]:
    """A draw, uniform in the ball: a point of the cube [-1, 1]^n, drawn again
    until it lies in the unit ball, scaled by ``radius`` about ``center``."""
    center = [float(v) for v in center]

    def draw() -> list[float]:
        while True:
            u = [rng.uniform(-1.0, 1.0) for _ in center]
            if _pairwise_sum([v * v for v in u]) <= 1.0:
                return [c + radius * v for c, v in zip(center, u)]

    return draw


def box(rng: random.Random, lo: Sequence[float], hi: Sequence[float]) -> Callable[[], list[float]]:
    """A draw, uniform in the axis box [lo, hi]: ``rng.uniform`` inlined, the same floats."""
    bounds, random = [(float(a), float(b) - float(a)) for a, b in zip(lo, hi)], rng.random
    return lambda: [a + w * random() for a, w in bounds]


def sample(space: SubcartesianSpace, count: int, draw: Callable[[], list[float]],
           tries: int) -> list[list[float]]:
    """Up to ``count`` members of the space, split over the cells in order:
    of k cells the first ``count % k`` ask one more than ``count // k``, and
    a cell whose share is 0 is not asked.  A cell projects each of at most
    ``tries`` draws per sample it asks for onto its equalities and keeps the
    point if the cell holds there; a cell the draws barely meet gives fewer.
    """
    k = len(space.cells)
    out: list[list[float]] = []
    for i in range(k):
        share = count // k + (1 if i < count % k else 0)
        kept = 0
        for _ in range(tries * share):
            if kept == share:
                break
            z = project_to_equalities(space, i, draw())
            if z is not None and space.cell_contains(i, z):
                out.append(z)
                kept += 1
    return out
