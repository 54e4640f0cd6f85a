"""Stratifications: frontier audit, strong stratifiedness, orbits against strata."""

from __future__ import annotations

import numpy as np
import pytest

from subcart.expr import parse
from subcart.orbit import FieldFamily
from subcart.space import Constraint, Rel, SubcartesianSpace
from subcart.strata import (
    StrataError,
    StratifiedSpace,
    Stratum,
    closure_distance,
    frontier_check,
    orbit_vs_strata,
    strongly_stratified_check,
)

from conftest import make_field

DRIFT_TOL = 1e-6

CONE_LO = [-2.0, -2.0, 0.0]
CONE_HI = [2.0, 2.0, 2.0]


def cone_space() -> SubcartesianSpace:
    g = parse("x1^2+x2^2-x3^2", 3)
    return SubcartesianSpace(
        3,
        [[Constraint(g, Rel.EQ), Constraint(parse("x3", 3), Rel.GE)]],
    )


def cone_stratification() -> StratifiedSpace:
    apex = Stratum(
        "apex",
        SubcartesianSpace(
            3,
            [[Constraint(parse(f"x{i}", 3), Rel.EQ) for i in (1, 2, 3)]],
        ),
        0,
    )
    surface = Stratum(
        "surface",
        SubcartesianSpace(
            3,
            [[
                Constraint(parse("x1^2+x2^2-x3^2", 3), Rel.EQ),
                Constraint(parse("x3", 3), Rel.GT),
            ]],
        ),
        2,
    )
    return StratifiedSpace(cone_space(), [apex, surface])


def cone_fields() -> dict:
    return {
        "euler": make_field("euler", ["x1", "x2", "x3"], 3),
        "rot": make_field("rot", ["-x2", "x1", "0"], 3),
        "ddz": make_field("ddz", ["0", "0", "1"], 3),
    }


def test_closure_contains_relaxes_strict_sides():
    ss = cone_stratification()
    surface = ss.strata[1].space
    assert surface.closure_contains([0.0, 0.0, 0.0])
    assert surface.closure_contains([1.0, 0.0, 1.0])
    assert not surface.closure_contains([1.0, 0.0, -1.0])
    assert not surface.closure_contains([1.0, 1.0, 1.0])


def test_closure_distance_apex_to_surface():
    ss = cone_stratification()
    d = closure_distance(ss.strata[1].space, np.array([0.0, 0.0, 0.0]))
    assert d <= 1e-9


def test_frontier_check_cone_passes():
    ss = cone_stratification()
    rep = frontier_check(ss, CONE_LO, CONE_HI, rng_seed=0)
    assert rep.passed
    assert not rep.coverage_failures
    assert not rep.disjointness_failures
    assert not rep.frontier_violations
    pairs = {(c["m"], c["n"]) for c in rep.contacts}
    assert ("apex", "surface") in pairs


def test_frontier_check_detects_violation():
    # the x-axis touches the closure of the open right halfplane at one end
    # only, so the frontier condition fails (and the pieces overlap)
    axis = Stratum(
        "axis",
        SubcartesianSpace(2, [[Constraint(parse("x2", 2), Rel.EQ)]]),
        1,
    )
    half = Stratum(
        "half",
        SubcartesianSpace(2, [[Constraint(parse("x1", 2), Rel.GT)]]),
        2,
    )
    total = SubcartesianSpace.whole_space(2)
    ss = StratifiedSpace(total, [axis, half])
    rep = frontier_check(ss, [-2.0, -2.0], [2.0, 2.0], rng_seed=0)
    assert not rep.passed
    assert rep.frontier_violations or rep.disjointness_failures


def test_strongly_stratified_tangent_fields_pass():
    ss = cone_stratification()
    fields = cone_fields()
    rep = strongly_stratified_check(
        ss, fields["euler"], CONE_LO, CONE_HI, rng_seed=0, drift_tol=DRIFT_TOL
    )
    assert rep.passed
    assert rep.max_drift <= 1e-10
    rep2 = strongly_stratified_check(
        ss, fields["rot"], CONE_LO, CONE_HI, rng_seed=0, drift_tol=DRIFT_TOL
    )
    assert rep2.passed
    assert rep2.max_drift <= 1e-7


def test_strongly_stratified_rejects_transverse_field():
    ss = cone_stratification()
    fields = cone_fields()
    rep = strongly_stratified_check(
        ss, fields["ddz"], CONE_LO, CONE_HI, rng_seed=0, drift_tol=DRIFT_TOL
    )
    assert not rep.passed
    assert rep.max_drift >= 0.1
    assert rep.witness is not None
    assert rep.witness["stratum"] == "surface"


def test_orbit_vs_strata_containment():
    ss = cone_stratification()
    fields = cone_fields()
    fam = FieldFamily(cone_space(), [fields["euler"], fields["rot"]])
    rep = orbit_vs_strata(
        ss, fam, [[1.0, 0.0, 1.0]], CONE_LO, CONE_HI,
        budget=200, rng_seed=0, drift_tol=DRIFT_TOL,
    )
    assert rep.passed
    seat = rep.per_seed[0]
    assert seat["contained"]
    assert seat["escapes"] == []
    assert seat["est_dimension"] == 2
    assert seat["stratum"] == "surface"


def test_orbit_vs_strata_gates_on_precondition():
    ss = cone_stratification()
    fields = cone_fields()
    fam = FieldFamily(cone_space(), [fields["ddz"]])
    with pytest.raises(StrataError):
        orbit_vs_strata(
            ss, fam, [[1.0, 0.0, 1.0]], CONE_LO, CONE_HI,
            budget=50, rng_seed=0, drift_tol=DRIFT_TOL,
        )
