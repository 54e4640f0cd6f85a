"""Subsets of R^n described by finite unions of constraint cells.

A cell is a conjunction of smooth constraints (equalities and strict or
non-strict inequalities) and a space is a finite union of cells.  Membership
carries an explicit tolerance: non-strict constraints get a forgiving band,
strict constraints get a guard band, so "member" is numerically stable on
both sides.  Whether the set is locally closed is a declared property, not
something we try to decide.

Membership is generated code.  On a space's first membership test its cells
are emitted, with the expression compiler's emitter, into one Python
function of the point and the tolerance that tests the cells in order, each
inside its own ``try`` so that a constraint undefined at the point
(``DomainError``) rules out only its cell, and returns the index of the
first cell that holds.  ``contains``, ``member_cell`` and ``cell_contains``
all call functions made by that one generator.  Python's float ``**`` raises
``OverflowError`` where numpy's gives inf, so a point whose test overflows
is tested again on numpy floats, with numpy's overflow warnings off; only
that rare path pays for it.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .expr import (
    _COMPILE_ENV,
    DomainError,
    Expr,
    _emit,
    compile_scalar,
    eval_jet,
    parse,
    to_text,
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

# The test of each relation as source for the generated predicate; the value
# goes in the braces.  ``Constraint.satisfied`` spells out the same five tests.
_TESTS = {
    Rel.EQ: "abs({}) <= _tol",
    Rel.GE: "{} >= -_tol",
    Rel.LE: "{} <= _tol",
    Rel.GT: "{} > _tol",
    Rel.LT: "{} < -_tol",
}


def _compile_cells(cells: Sequence[Cell]) -> Callable[[Sequence[float], float], Optional[int]]:
    """Generate ``f(x, tol)``: the index of the first cell holding at x, or None.

    A cell's constraints are tested in order and the first failing one ends
    the cell (``break`` out of a ``while True`` that never loops).  Within a
    cell the expressions share the emitter's memo, so a common subtree is
    evaluated once; a ``DomainError`` anywhere in the cell rules the cell out.
    """
    src = ["def _f(_x, _tol):"]
    for i, cell in enumerate(cells):
        memo: dict[int, str] = {}
        lines: list[str] = []
        src += ["    try:", "        while True:"]
        for c in cell:
            start = len(lines)
            value = _emit(c.expr, memo, lines)
            src += ["        " + line for line in lines[start:]]
            src.append(f"            if not {_TESTS[c.rel].format(value)}: break")
        src += [f"            return {i}", "    except _DomainError:", "        pass"]
    src.append("    return None\n")
    scope = dict(_COMPILE_ENV, _DomainError=DomainError)
    exec(compile("\n".join(src), "<membership>", "exec"), scope)
    return scope["_f"]


def _on_numpy_floats(f: Callable, point: Sequence[float], *args):
    """``f`` at the point's coordinates as numpy floats, whose ``**`` gives inf
    where Python's raises ``OverflowError``; the warnings numpy would print
    for that are off."""
    with np.errstate(all="ignore"):
        return f([np.float64(v) for v in point], *args)


class SubcartesianSpace:
    """Finite union of constraint cells in a fixed ambient dimension."""

    def __init__(
        self,
        ambient_dim: int,
        cells: Sequence[Sequence[Constraint]],
        locally_closed: bool,
        tol: float = DEFAULT_TOL,
    ):
        if ambient_dim < 1:
            raise SpaceError(f"ambient dimension must be positive, got {ambient_dim}")
        if tol <= 0:
            raise SpaceError(f"membership tolerance must be positive, got {tol}")
        if not cells:
            raise SpaceError("a space needs at least one cell")
        self.ambient_dim = int(ambient_dim)
        self.cells: tuple[Cell, ...] = tuple(tuple(c) for c in cells)
        self.locally_closed = bool(locally_closed)
        self.tol = float(tol)
        # one-cell predicates for the samplers, generated on first use
        self._cell_tests: list[Optional[Callable]] = [None] * len(self.cells)

    def _first_cell(self, point: Sequence[float], tol: float) -> Optional[int]:
        """Generate the predicate over all cells on first use, so a space that is
        never tested, as in most symbolic commands, costs no ``compile()``; the
        generated function then shadows this method on the instance."""
        self._first_cell = _compile_cells(self.cells)
        return self._first_cell(point, tol)

    @functools.cached_property
    def _evals(self) -> list[list[Callable[[Sequence[float]], float]]]:
        """One compiled callable per constraint, for ``slack``, exit witnesses and
        closure tests; compiled on first use, since membership does not need them."""
        return [[compile_scalar(c.expr) for c in cell] for cell in self.cells]

    def cell_contains(self, cell_index: int, point: Sequence[float], tol: Optional[float] = None) -> bool:
        test = self._cell_tests[cell_index]
        if test is None:
            test = self._cell_tests[cell_index] = _compile_cells(self.cells[cell_index : cell_index + 1])
        try:
            return test(point, self.tol if tol is None else tol) is not None
        except OverflowError:
            return _on_numpy_floats(test, point, self.tol if tol is None else tol) is not None

    def contains(self, point: Sequence[float], tol: Optional[float] = None) -> bool:
        try:
            return self._first_cell(point, self.tol if tol is None else tol) is not None
        except OverflowError:
            return _on_numpy_floats(self._first_cell, point, self.tol if tol is None else tol) is not None

    def member_cell(self, point: Sequence[float], tol: Optional[float] = None) -> Optional[int]:
        try:
            return self._first_cell(point, self.tol if tol is None else tol)
        except OverflowError:
            return _on_numpy_floats(self._first_cell, point, self.tol if tol is None else tol)

    def slack(self, point: Sequence[float]) -> float:
        """Best cell margin: max over cells of the worst constraint margin.

        Positive means comfortably inside some cell, negative means every
        cell is violated by at least that much.  Constraint functions that
        are undefined at the point count as minus infinity for their cell.
        A NaN margin makes the slack NaN, as ``np.min``/``np.max`` would.
        """
        try:
            return self._slack(point)
        except OverflowError:
            return _on_numpy_floats(self._slack, point)

    def _slack(self, point: Sequence[float]) -> float:
        best = -np.inf
        for cell, evals in zip(self.cells, self._evals):
            worst = np.inf
            for c, ev in zip(cell, evals):
                try:
                    m = c.margin(ev(point))
                except DomainError:
                    worst = -np.inf
                    break
                if m < worst or m != m:
                    worst = m
            if worst > best or worst != worst:
                best = worst
        return float(best)

    def require_member(self, point: Sequence[float], what: str = "point") -> None:
        if isinstance(point, np.ndarray):
            point = point.tolist()  # numpy scalars would warn where a power overflows
        if not self.contains(point):
            raise SpaceError(f"{what} {list(map(float, point))} is not in the space (slack {self.slack(point):.3e})")

    # Serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "cells": [
                [{"expr": c.text(), "rel": c.rel.value} for c in cell]
                for cell in self.cells
            ],
            "locally_closed": self.locally_closed,
            "tol": self.tol,
        }

    @classmethod
    def from_json_dict(cls, d: dict, aliases: Optional[Sequence[str]] = None) -> "SubcartesianSpace":
        try:
            n = int(d["ambient_dim"])
            raw_cells = d["cells"]
            locally_closed = bool(d["locally_closed"])
        except KeyError as exc:
            raise SpaceError(f"space description missing key {exc}") from None
        tol = float(d.get("tol", DEFAULT_TOL))
        cells = []
        for ci, raw in enumerate(raw_cells):
            cell = []
            for ki, con in enumerate(raw):
                try:
                    rel = Rel(con["rel"])
                except ValueError:
                    raise SpaceError(f"cells[{ci}][{ki}]: unknown rel {con['rel']!r}") from None
                cell.append(Constraint(parse(con["expr"], n, aliases), rel))
            cells.append(tuple(cell))
        return cls(n, cells, locally_closed, tol)

    @classmethod
    def from_json(cls, text: str, aliases: Optional[Sequence[str]] = None) -> "SubcartesianSpace":
        return cls.from_json_dict(json.loads(text), aliases)

    @classmethod
    def whole_space(cls, ambient_dim: int, tol: float = DEFAULT_TOL) -> "SubcartesianSpace":
        """All of R^n: one cell with no constraints."""
        return cls(ambient_dim, [()], locally_closed=True, tol=tol)


# Sampling --------------------------------------------------------------------
#
# Cells with equality constraints have measure zero, so plain rejection
# sampling never lands on them.  Draws are pulled toward the equality locus
# with Gauss-Newton steps first, then filtered through full cell membership.

def project_to_equalities(
    space: SubcartesianSpace,
    cell_index: int,
    start: Sequence[float],
    max_iter: int = 40,
) -> Optional[np.ndarray]:
    """Gauss-Newton projection of ``start`` onto the cell's equality locus.

    Returns None when the iteration stalls or the constraint gradients are
    degenerate at the iterate.  Inequalities of the cell are ignored here.
    """
    eqs = [c for c in space.cells[cell_index] if c.rel is Rel.EQ]
    z = np.asarray(start, dtype=float).copy()
    if not eqs:
        return z
    n = space.ambient_dim
    target = min(space.tol * 1e-3, 1e-12)
    for _ in range(max_iter):
        try:
            jets = [eval_jet(c.expr, z, order=1) for c in eqs]
        except DomainError:
            return None
        g = np.array([j.value for j in jets])
        if np.max(np.abs(g)) <= target:
            return z
        J = np.array([j.gradient for j in jets]).reshape(len(eqs), n)
        JJT = J @ J.T
        try:
            lam = np.linalg.solve(JJT, g)
        except np.linalg.LinAlgError:
            return None
        step = J.T @ lam
        if not np.all(np.isfinite(step)):
            return None
        z = z - step
    try:
        final = max(abs(eval_jet(c.expr, z, order=0).value) for c in eqs)
    except DomainError:
        return None
    return z if final <= space.tol else None


def _ball_draw(rng: random.Random, center: np.ndarray, radius: float) -> np.ndarray:
    n = len(center)
    while True:
        u = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        if float(np.dot(u, u)) <= 1.0:
            return center + radius * u


def sample_cell_near(
    space: SubcartesianSpace,
    cell_index: int,
    center: Sequence[float],
    radius: float,
    count: int,
    rng: random.Random,
    max_tries: int = 0,
) -> list[np.ndarray]:
    """Sample up to ``count`` members of one cell from a ball around ``center``."""
    center = np.asarray(center, dtype=float)
    if max_tries <= 0:
        max_tries = 60 * count
    out: list[np.ndarray] = []
    for _ in range(max_tries):
        if len(out) >= count:
            break
        z = project_to_equalities(space, cell_index, _ball_draw(rng, center, radius))
        if z is None:
            continue
        if space.cell_contains(cell_index, z):
            out.append(z)
    return out


def sample_near(
    space: SubcartesianSpace,
    center: Sequence[float],
    radius: float,
    count: int,
    rng: random.Random,
) -> list[np.ndarray]:
    """Sample members of the space near ``center``, visiting cells round-robin.

    Cells that have no members in the ball simply contribute nothing; the
    result can be shorter than ``count`` if the ball barely meets the space.
    """
    k = len(space.cells)
    per = [count // k + (1 if i < count % k else 0) for i in range(k)]
    out: list[np.ndarray] = []
    for i, c in enumerate(per):
        if c:
            out.extend(sample_cell_near(space, i, center, radius, c, rng))
    return out


def sample_cell_box(
    space: SubcartesianSpace,
    cell_index: int,
    lo: Sequence[float],
    hi: Sequence[float],
    count: int,
    rng: random.Random,
    max_tries: int = 0,
) -> list[np.ndarray]:
    """Sample up to ``count`` members of one cell from an axis box."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if max_tries <= 0:
        max_tries = 80 * count
    out: list[np.ndarray] = []
    for _ in range(max_tries):
        if len(out) >= count:
            break
        draw = np.array([rng.uniform(a, b) for a, b in zip(lo, hi)])
        z = project_to_equalities(space, cell_index, draw)
        if z is None:
            continue
        if space.cell_contains(cell_index, z):
            out.append(z)
    return out
