"""Stratifications: frontier audit, strong stratifiedness, orbits against strata."""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest

from subcart import flow, strata
from subcart import orbit as orbit_module
from subcart.expr import parse
from subcart.flow import integrate
from subcart.orbit import FieldFamily
from subcart.space import BOX_TRIES, Constraint, Rel, SpaceError, SubcartesianSpace, box, sample
from subcart.strata import (
    COVER_RADIUS,
    COVER_SAMPLES,
    DRIFT_SAMPLES,
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


@pytest.mark.parametrize("n", [1, 3, 8, 11])
def test_distance_to_a_cloud_is_numpys_norm_bit_for_bit(n):
    # the smallest pairwise sum of squares, then one root: the distances the
    # frontier check reports are numpy's norm of the differences, minimized
    rng = np.random.default_rng(n)
    # a half space none of the points lies in, so only the cloud is measured
    space = SubcartesianSpace(n, [[Constraint(parse("x1 - 1e300", n), Rel.GE)]])
    for scale in (1e-3, 1.0, 1e150):
        cloud = (scale * rng.standard_normal((60, n))).tolist()
        for p in (scale * rng.standard_normal((5, n))).tolist():
            want = float(np.min(np.linalg.norm(np.array(cloud) - p, axis=1)))
            assert closure_distance(space, p, cloud).hex() == want.hex()


def test_frontier_check_cone_passes():
    ss = cone_stratification()
    rep = frontier_check(ss, CONE_LO, CONE_HI, rng_seed=0)
    assert rep.passed
    assert not rep.coverage_failures
    assert not rep.disjointness_failures
    assert not rep.frontier_violations
    pairs = {(c["m"], c["n"]) for c in rep.contacts}
    assert ("apex", "surface") in pairs


def test_frontier_check_tests_each_distinct_sample_for_its_owners_once(monkeypatch):
    # the apex stratum gives its one point for all 60 of its samples; the
    # disjointness scan tested it against both strata 60 times
    ss = cone_stratification()
    at_apex = []
    contains = SubcartesianSpace.contains

    def counting(self, point, tol=None):
        at_apex.append(list(point) == [0.0, 0.0, 0.0])
        return contains(self, point, tol)

    monkeypatch.setattr(SubcartesianSpace, "contains", counting)
    rep = frontier_check(ss, CONE_LO, CONE_HI, rng_seed=0)
    assert rep.samples_per_stratum == {"apex": 60, "surface": 60}
    assert sum(at_apex) == 2 and len(at_apex) == 362


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


def test_orbit_vs_strata_coverage_matches_the_nearest_cloud_norm(monkeypatch):
    # a test-local reference: the share of stratum samples whose nearest
    # orbit point, by numpy's row norm, lies within the cover radius
    clouds = []
    real = orbit_module.sample_orbit

    def spy(*args, **kwargs):
        clouds.append(real(*args, **kwargs))
        return clouds[-1]

    monkeypatch.setattr(orbit_module, "sample_orbit", spy)
    ss = cone_stratification()
    fields = cone_fields()
    fam = FieldFamily(cone_space(), [fields["euler"], fields["rot"]])
    seeds = [[1.0, 0.0, 1.0], [0.0, 0.6, 0.6]]
    for rng_seed, budget in ((0, 200), (3, 40), (5, 600)):
        clouds.clear()
        rep = orbit_vs_strata(ss, fam, seeds, CONE_LO, CONE_HI, budget=budget, rng_seed=rng_seed,
                              drift_tol=DRIFT_TOL)
        draw = box(random.Random(rng_seed), CONE_LO, CONE_HI)
        for seat, cloud in zip(rep.per_seed, clouds):
            samples = sample(ss.strata[1].space, COVER_SAMPLES, draw, BOX_TRIES)
            arr = np.array(cloud.points)
            covered = sum(float(np.min(np.linalg.norm(arr - q, axis=1))) <= COVER_RADIUS for q in samples)
            assert seat["coverage_fraction"] == covered / len(samples)
        assert 0.0 < rep.per_seed[0]["coverage_fraction"] < 1.0


def test_orbit_vs_strata_gates_on_precondition():
    ss = cone_stratification()
    fields = cone_fields()
    fam = FieldFamily(cone_space(), [fields["ddz"]])
    with pytest.raises(StrataError):
        orbit_vs_strata(
            ss, fam, [[1.0, 0.0, 1.0]], CONE_LO, CONE_HI,
            budget=50, rng_seed=0, drift_tol=DRIFT_TOL,
        )


# The drift fold against the loop it replaced ----------------------------------


def _hexed(v):
    """``v`` with every float spelled by ``float.hex``, so -0.0 and 0.0 differ."""
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return [_hexed(x) for x in v]
    if isinstance(v, dict):
        return {k: _hexed(x) for k, x in v.items()}
    return v


def _pairs(samples) -> list:
    n = len(samples.x) // len(samples.t)
    return [(t, samples.x[i * n : i * n + n].tolist()) for i, t in enumerate(samples.t)]


def _samples(curve) -> list:
    """The curve's (t, point) pairs in time order, read from its buffers
    apart from the library's own reading, which they must equal."""
    pairs = [p for p in reversed(_pairs(curve.backward)) if p[0] < 0.0] + _pairs(curve.forward)
    assert _hexed(pairs) == _hexed(curve.samples)
    return pairs


def _loop_drift(ss, fld, lo, hi, horizon, rng_seed):
    """The drift of ``strongly_stratified_check`` as a plain loop: every
    sample flowed, ``slack`` called at each point of the curve's samples on
    numpy floats, whose ``**`` gives inf where Python's raises."""
    draw = box(random.Random(rng_seed), lo, hi)
    ambient = SubcartesianSpace.whole_space(ss.total.ambient_dim)
    max_drift, witness, per_stratum = 0.0, None, {}
    for s in ss.strata:
        worst_here = 0.0
        for p in sample(s.space, DRIFT_SAMPLES, draw, BOX_TRIES):
            for t, q in _samples(integrate(ambient, fld, p, horizon=horizon, store=True)):
                with np.errstate(all="ignore"):
                    slack = s.space.slack([np.float64(v) for v in q])
                if slack != slack:
                    raise SpaceError(f"the constraints of stratum {s.name!r} are not a number at {q}")
                violation = max(0.0, -slack)
                if violation > worst_here:
                    worst_here = violation
                    if violation > max_drift:
                        max_drift = violation
                        witness = {"t": t, "point": q, "start": [float(v) for v in p]}
        per_stratum[s.name] = worst_here
    return _hexed([max_drift, per_stratum, witness])


def _fold_drift(ss, fld, lo, hi, horizon, rng_seed):
    # drift_tol 0 reports the witness of any positive drift
    rep = strongly_stratified_check(ss, fld, lo, hi, horizon=horizon, rng_seed=rng_seed, drift_tol=0.0)
    witness = rep.witness and {k: rep.witness[k] for k in ("t", "point", "start")}
    return _hexed([rep.max_drift, rep.per_stratum, witness])


@pytest.mark.parametrize("horizon", [0.2, 0.6, 1.0])
@pytest.mark.parametrize("name", ["rot", "euler", "ddz"])
def test_drift_fold_matches_the_pointwise_loop_on_the_cone(name, horizon):
    ss, fld = cone_stratification(), cone_fields()[name]
    for seed in range(10):
        want = _loop_drift(ss, fld, CONE_LO, CONE_HI, horizon, seed)
        assert _fold_drift(ss, fld, CONE_LO, CONE_HI, horizon, seed) == want, seed


def quadrant_stratification() -> StratifiedSpace:
    """The closed quadrant of the plane: the origin, the two open half-axes
    as one two-cell stratum, and the open quadrant, cut out by strict
    inequalities."""
    def cons(*pairs):
        return [Constraint(parse(e, 2), rel) for e, rel in pairs]

    return StratifiedSpace(
        SubcartesianSpace(2, [cons(("x1", Rel.GE), ("x2", Rel.GE))]),
        [
            Stratum("origin", SubcartesianSpace(2, [cons(("x1", Rel.EQ), ("x2", Rel.EQ))]), 0),
            Stratum("axes", SubcartesianSpace(2, [cons(("x2", Rel.EQ), ("x1", Rel.GT)),
                                                  cons(("x1", Rel.EQ), ("x2", Rel.GT))]), 1),
            Stratum("open", SubcartesianSpace(2, [cons(("x1", Rel.GT), ("x2", Rel.GT))]), 2),
        ],
    )


@pytest.mark.parametrize("components", [["-x2", "x1"], ["x1", "x2"], ["x2", "x1^2"], ["1", "-1"]])
def test_drift_fold_matches_the_pointwise_loop_on_two_cell_and_strict_strata(components):
    ss, fld = quadrant_stratification(), make_field("f", components, 2)
    for seed in range(5):
        for horizon in (0.3, 1.0):
            want = _loop_drift(ss, fld, [-1.0, -1.0], [2.0, 2.0], horizon, seed)
            assert _fold_drift(ss, fld, [-1.0, -1.0], [2.0, 2.0], horizon, seed) == want, (seed, horizon)


def _outcome(check, *args):
    try:
        return check(*args)
    except SpaceError as exc:
        return str(exc)


@pytest.mark.parametrize("constraint, components, box_lo, box_hi", [
    # x1^2 overflows on Python floats at every point, and is inf in IEEE
    # arithmetic, on numpy's and in the fold's re-run with _pow alike
    ("x1^2 - 1", ["0", "-1"], [1e160, 0.0], [2e160, 1.0]),
    # both powers overflow on Python floats once x2 leaves 0; on numpy's they
    # are inf, and inf - inf is NaN
    ("(x1*1e300)^2 - (x2*1e300)^2", ["0", "1"], [1.0, 0.0], [2.0, 1e-300]),
    # math.exp overflows where x1 passes 709.78, and exp gives inf there
    ("exp(x1)", ["1000", "0"], [0.0, 0.0], [1.0, 1.0]),
])
def test_drift_fold_retries_overflowing_points_on_numpy_floats(constraint, components, box_lo, box_hi):
    space = SubcartesianSpace(2, [[Constraint(parse(constraint, 2), Rel.GE), Constraint(parse("x2", 2), Rel.GE)]])
    ss = StratifiedSpace(space, [Stratum("s", space, 2)])
    fld = make_field("f", components, 2)
    want = _outcome(_loop_drift, ss, fld, box_lo, box_hi, 1.0, 0)
    assert _outcome(_fold_drift, ss, fld, box_lo, box_hi, 1.0, 0) == want


def _counting_drift(monkeypatch) -> list:
    starts: list = []
    real = flow.drift

    def counted(stratum, fld, x0, *args, **kwargs):
        starts.append(list(x0))
        return real(stratum, fld, x0, *args, **kwargs)

    monkeypatch.setattr(flow, "drift", counted)
    return starts


@pytest.mark.parametrize("name", ["rot", "euler", "ddz"])
def test_tangency_flows_the_cone_apex_once(monkeypatch, name):
    # the apex is one point, which the sampler returns 15 times
    starts = _counting_drift(monkeypatch)
    strongly_stratified_check(cone_stratification(), cone_fields()[name], CONE_LO, CONE_HI, rng_seed=0)
    assert len(starts) == 16
    assert starts.count([0.0, 0.0, 0.0]) == 1


def test_tangency_flows_starts_differing_in_the_sign_of_a_zero_apart(monkeypatch):
    starts = _counting_drift(monkeypatch)
    points = [[0.0, 1.0, 1.0], [-0.0, 1.0, 1.0], [0.0, 1.0, 1.0], [-0.0, 1.0, 1.0], [0.0, -0.0, 0.0]]
    monkeypatch.setattr(strata, "sample", lambda space, count, draw, tries: [list(p) for p in points])
    strongly_stratified_check(cone_stratification(), cone_fields()["rot"], CONE_LO, CONE_HI, rng_seed=0)
    # each of the two strata gets the same five points, three of them distinct
    assert _hexed(starts) == _hexed([points[0], points[1], points[4]] * 2)


@pytest.mark.parametrize("components", [["0", "1"], ["-x2", "x1"]])
def test_a_worst_drift_reached_at_t_and_minus_t_is_witnessed_at_minus_t(components):
    # both fields are odd under (x2, t) -> (-x2, -t), so from the x1 axis the
    # backward curve mirrors the forward one bit for bit and |x2| is worst at
    # both t and -t; the fold in time order keeps the earlier, backward point
    axis = SubcartesianSpace(2, [[Constraint(parse("x2", 2), Rel.EQ)]])
    ss, fld = StratifiedSpace(axis, [Stratum("axis", axis, 1)]), make_field("f", components, 2)
    rep = strongly_stratified_check(ss, fld, [0.5, -1.0], [1.5, 1.0], horizon=2.0, drift_tol=0.0)
    curve = integrate(SubcartesianSpace.whole_space(2), fld, rep.witness["start"], horizon=2.0, store=True)
    forward = [(t, p) for t, p in _samples(curve) if t >= 0.0]
    worst = max(abs(p[1]) for _, p in forward)
    t, p = next((t, p) for t, p in forward if abs(p[1]) == worst)
    assert rep.max_drift == worst > 0.0 and t > 0.0
    assert _hexed([rep.witness["t"], rep.witness["point"]]) == _hexed([-t, [p[0], -p[1]]])


def test_tangency_memory_does_not_grow_with_the_horizon():
    # euler vanishes at the apex, so each step there is ten times the last
    # until one reaches the horizon, and a drive scans 1e4 points; storing
    # them peaked at 1.5 MB.  (From the surface euler's curves end in a step
    # size underflow at t = 707, after as many points again.)
    cone = cone_stratification()
    apex, fld = StratifiedSpace(cone.total, cone.strata[:1]), cone_fields()["euler"]
    strongly_stratified_check(apex, fld, CONE_LO, CONE_HI, horizon=1.0)  # compiles the kernel untraced
    tracemalloc.start()
    try:
        rep = strongly_stratified_check(apex, fld, CONE_LO, CONE_HI, horizon=1e3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.max_drift == 0.0
    assert peak < 64 * 1024


def test_a_backward_nan_is_named_before_a_later_forward_overflow():
    # exp overflows to inf once the forward half passes x1 = 709.78, where
    # math.exp raises, and the slack is NaN (inf - inf) wherever x1 < 0,
    # which the backward half reaches; the loop over time order meets the
    # NaN at t = -1 first, so a fold that stopped at the forward overflow
    # would name the wrong point
    step = "(1 - tanh(x1*1e300*1e300))*1e300*1e300"
    space = SubcartesianSpace(2, [[Constraint(parse(f"exp(x1) + {step} - {step}", 2), Rel.GE)]])
    ss = StratifiedSpace(space, [Stratum("s", space, 2)])
    fld = make_field("f", ["1000", "0"], 2)
    want = _outcome(_loop_drift, ss, fld, [0.5, 0.0], [1.0, 1.0], 1.0, 0)
    assert want.startswith("the constraints of stratum 's' are not a number at [-999.")
    assert _outcome(_fold_drift, ss, fld, [0.5, 0.0], [1.0, 1.0], 1.0, 0) == want
