"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.resources
import json
from pathlib import Path

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


# The golden reports, one file a report holding the bytes the CLI printed; a
# report that moves on purpose is written again by the CLI itself, with
# ``--out tests/golden/<name>.json``
GOLDEN_DIR = Path(__file__).parent / "golden"


def assert_golden(out: str, name: str) -> None:
    """The report ``out`` is the golden report ``name``: first as JSON, for a
    failure that shows the values that moved, then byte for byte, for the
    spelling of each float and the sign of zero.  The file is read as bytes,
    so no line end is translated."""
    golden = (GOLDEN_DIR / f"{name}.json").read_bytes().decode("utf-8")
    assert json.loads(out) == json.loads(golden), name
    assert out == golden, name


# The verdicts, or a classify report's classifications, of a certified
# failure, spelled out here so that a report's exit code is checked from the
# report alone
FAILING_VERDICTS = ("NotVectorField", "PreconditionFailed", "NotReducible", "NotAlmostComplex", "Degenerate")


def exit_code_of(report: dict) -> int:
    """The exit code the result of ``report`` calls for: 1 where its
    ``passed`` is false or its verdict or classification is one of
    ``FAILING_VERDICTS``, else 0."""
    result = report["result"]
    return int(result.get("passed") is False or result.get("verdict") in FAILING_VERDICTS
               or result.get("classification") in FAILING_VERDICTS)


def cone_without_polynomials() -> dict:
    """The cone scenario with each field component times exp(0*x), which is
    1.0 in floats: the same flows, but no polynomial for an exact stage."""
    doc = json.loads(Path(scenario_path("cone")).read_text(encoding="utf-8"))
    doc["fields"] = {k: [f"({c})*exp(0*x)" for c in v] for k, v in doc["fields"].items()}
    return doc


def jacobi_control_on_sphere() -> dict:
    """jacobi_control's bivector over the unit sphere, one equality cell: its
    Jacobiator is not 0, and on an equality the identity may hold modulo the
    constraint, so ``poisson`` gives the sampled verdict there."""
    doc = json.loads(Path(scenario_path("jacobi_control")).read_text(encoding="utf-8"))
    doc["space"]["cells"] = [[{"expr": "x1^2+x2^2+x3^2-1", "rel": "eq0"}]]
    return doc


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
