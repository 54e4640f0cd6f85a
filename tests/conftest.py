"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.resources

import pytest

from subcart.expr import parse
from subcart.field import TangentField
from subcart.space import Constraint, Rel, SubcartesianSpace

SCENARIO_DIR = str(importlib.resources.files("subcart") / "scenarios")


@pytest.fixture
def scenario_dir() -> str:
    return SCENARIO_DIR


def scenario_path(name: str) -> str:
    return f"{SCENARIO_DIR}/{name}.json"


def make_field(label: str, comps: list[str], n: int) -> TangentField:
    return TangentField(label, [parse(c, n) for c in comps])


def coordinate_fields(n: int) -> list[TangentField]:
    return [
        TangentField(f"e{i + 1}", [parse("1" if j == i else "0", n) for j in range(n)])
        for i in range(n)
    ]


def halfline() -> SubcartesianSpace:
    return SubcartesianSpace(1, [[Constraint(parse("x1", 1), Rel.GE)]])


def punctured_plane() -> SubcartesianSpace:
    return SubcartesianSpace(2, [[Constraint(parse("x1^2+x2^2", 2), Rel.GT)]])


def disk_line() -> SubcartesianSpace:
    disk = Constraint(parse("x1^2+(x2-1)^2-1", 2), Rel.LT)
    line = Constraint(parse("x2", 2), Rel.EQ)
    return SubcartesianSpace(2, [[disk], [line]])


def unit_circle(tol: float = 1e-6) -> SubcartesianSpace:
    # equality cells need a membership band wider than the integrator's
    # constraint drift over the horizons the tests use
    return SubcartesianSpace(2, [[Constraint(parse("x1^2+x2^2-1", 2), Rel.EQ)]], tol=tol)
