"""Shared builders for the test suite."""

from __future__ import annotations

import importlib.resources
import json

import pytest

from subcart.expr import parse
from subcart.report import canonical_json
from subcart.field import TangentField
from subcart.space import Constraint, Rel, SubcartesianSpace

SCENARIO_DIR = str(importlib.resources.files("subcart") / "scenarios")


@pytest.fixture
def scenario_dir() -> str:
    return SCENARIO_DIR


def scenario_path(name: str) -> str:
    return f"{SCENARIO_DIR}/{name}.json"


# Every tolerance and its default, as each report echoed them before a report
# held only the tolerances its command reads
ALL_TOLERANCES = {"rtol": 1e-9, "atol": 1e-12, "rank": 1e-8, "completeness": 1e-6, "antisymmetry": 1e-12,
                  "jacobi": 1e-8, "casimir_drift": 1e-6, "frontier": 1e-4, "drift": 1e-8, "kahler": 1e-8,
                  "fit": 1e-10, "certify": 1e-10, "square": 1e-10}


def full_envelope(text: str, scenario: str) -> str:
    """The report ``text`` of a run on the scenario file ``scenario`` as the
    CLI printed it when every report echoed every tolerance and a seed: the
    defaults, then the scenario's tolerances, under those echoed; the seed,
    0 for a command that takes none; and the result's own copies of them,
    ``frontier_tol`` of a frontier check, ``drift_tol`` of a tangency check
    and ``rng_seed`` in the diagnostics of an orbit sample."""
    with open(scenario, encoding="utf-8") as fh:
        tolerances = dict(ALL_TOLERANCES, **json.load(fh).get("tolerances", {}))
    report = json.loads(text)
    tolerances.update(report["tolerances"])
    report["tolerances"] = tolerances
    seed = report.setdefault("seed", 0)
    result = report["result"]
    if "frontier_violations" in result:
        result["frontier_tol"] = tolerances["frontier"]
    if "max_drift" in result:
        result["drift_tol"] = tolerances["drift"]
    if report["command"] in ("orbit", "leaf"):
        result["diagnostics"]["rng_seed"] = seed
    return canonical_json(report) + "\n"


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
