"""Stratifications: frontier audit, strong stratifiedness, orbits against strata."""

from __future__ import annotations

import json
import random
import tracemalloc

import numpy as np
import pytest
import sympy

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

from conftest import GOLDEN_DIR, assert_golden, cone_without_polynomials, make_field, scenario_path

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


@pytest.mark.parametrize("horizon", [1e-15, 1e-13, 1e-12, 1e-10, 1e-8, 5e-8, 1e-7, 1e-5, 1e-3, 0.1, 1.0])
def test_tangency_on_the_cone_at_every_horizon(horizon):
    # a projected sample keeps a residual of some 7e-14 at t = 0, which
    # drift_tol * horizon fell below: rot and euler failed below 1e-7,
    # though their curves drift no farther than where they start; ddz must
    # still fail where its drift is far under that residual
    ss, fields = cone_stratification(), cone_fields()
    got = {(name, seed): strongly_stratified_check(ss, fields[name], CONE_LO, CONE_HI, horizon=horizon,
                                                   rng_seed=seed, drift_tol=1e-6)
           for name in fields for seed in range(3)}
    assert {key: rep.passed for key, rep in got.items()} == {key: key[0] != "ddz" for key in got}
    assert all((rep.witness is None) == rep.passed for rep in got.values())
    # the surface alone tells ddz apart, not only the apex, which it leaves at speed 1
    assert all(rep.witness["stratum"] == "surface" for (name, _), rep in got.items() if name == "ddz")


def test_tangency_fails_a_curve_that_leaves_its_start_beside_a_larger_residual(monkeypatch):
    # each curve is measured from its own start: the largest drift, a
    # residual its sample starts with and keeps, does not lift the bound
    # for the others, and a passing curve is no witness
    calls = []

    def fake(space, fld, p, horizon, options=None):
        calls.append(p)
        violation, at_start = (1e-3, 1e-3) if len(calls) == 1 else (3e-6, 0.0)
        return violation, 0.5, list(p), None, at_start

    monkeypatch.setattr(flow, "drift", fake)
    rep = strongly_stratified_check(cone_stratification(), cone_fields()["rot"], CONE_LO, CONE_HI,
                                    horizon=1.0, drift_tol=1e-6)
    assert len(calls) > 2 and rep.max_drift == 1e-3
    assert not rep.passed and rep.witness["drift"] == 3e-6 and rep.witness["start"] != calls[0]


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
    # the same loop over ``flow.drift``, the fold the check runs on each
    # curve; the check's report carries its maxima, but a witness only
    # where a curve leaves its stratum, not at the worst drift of a pass
    draw = box(random.Random(rng_seed), lo, hi)
    max_drift, witness, per_stratum = 0.0, None, {}
    for s in ss.strata:
        worst_here = 0.0
        for p in sample(s.space, DRIFT_SAMPLES, draw, BOX_TRIES):
            violation, t, q, _, _ = flow.drift(s.space, fld, p, horizon)
            if violation > worst_here:
                worst_here = violation
                if violation > max_drift:
                    max_drift = violation
                    witness = {"t": t, "point": q, "start": [float(v) for v in p]}
        per_stratum[s.name] = worst_here
    rep = strongly_stratified_check(ss, fld, lo, hi, horizon=horizon, rng_seed=rng_seed)
    assert _hexed([rep.max_drift, rep.per_stratum]) == _hexed([max_drift, per_stratum])
    return _hexed([max_drift, per_stratum, witness])


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
    # x1^2 overflows Python's float ** at every point, and is inf in IEEE
    # arithmetic, on numpy's floats and in the fold's product alike
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


# The exact stage of strata --------------------------------------------------------

def _sampled_strata_report(check: str, name: str, horizon: float, seed: int, budget: int = 400) -> str:
    """The CLI's report of ``strata --check tangency --field name`` or
    ``--check orbits --family name`` on the shipped cone, its result the
    sampled check's, called directly."""
    from dataclasses import asdict

    from subcart.cli import load_scenario
    from subcart.flow import FlowOptions
    from subcart.report import canonical_json

    sc, opts = load_scenario(scenario_path("cone")), FlowOptions()
    drift = sc.tolerances["drift"]
    tolerances = {"atol": opts.atol, "drift": drift, "rtol": opts.rtol}
    if check == "tangency":
        rep = strongly_stratified_check(sc.stratified, sc.field(name), *sc.box, horizon=horizon, rng_seed=seed,
                                        drift_tol=drift, options=opts)
    else:
        rep = orbit_vs_strata(sc.stratified, sc.family(name), sc.seeds["default"], *sc.box, budget=budget,
                              rng_seed=seed, horizon=horizon, drift_tol=drift, options=opts)
        tolerances["rank"] = 1e-8
    return canonical_json({"command": "strata", "result": {**asdict(rep), "declared_locally_trivial": False},
                           "scenario": {"name": sc.name, "sha256": sc.sha256}, "seed": seed,
                           "tolerances": tolerances}) + "\n"


# (name of the golden report, check, field or family, horizon, seed, budget):
# the bytes the CLI printed for these runs before its exact stage answered them
SAMPLED_STRATA = [
    ("sampled-strata-tangency-rot", "tangency", "rot", 0.3, 4, 400),
    ("sampled-strata-tangency-ddz", "tangency", "ddz", 0.3, 4, 400),
    ("sampled-strata-orbits", "orbits", "default", 0.5, 6, 60),
]


@pytest.mark.parametrize("name,check,field,horizon,seed,budget", SAMPLED_STRATA, ids=[s[0] for s in SAMPLED_STRATA])
def test_the_sampled_checks_keep_their_bytes(name, check, field, horizon, seed, budget):
    assert_golden(_sampled_strata_report(check, field, horizon, seed, budget), name)


def _reader(doc: dict):
    """A reader of the scenario's texts and the report's into sympy, over
    x1..xn and the aliases, each float the rational it is."""
    xs = sympy.symbols(f"x1:{doc['space']['ambient_dim'] + 1}")
    names = {**dict(zip(doc.get("aliases", []), xs)), **{f"x{i + 1}": x for i, x in enumerate(xs)}}

    def read(text: str):
        e = sympy.parse_expr(text.replace("^", "**"), local_dict=names)
        return e.xreplace({f: sympy.Rational(float(f)) for f in e.atoms(sympy.Float)})

    return xs, read


def check_exact_strata_report(result: dict, doc: dict) -> None:
    """Re-verify an exact ``strata --check tangency`` result from its JSON
    and the scenario's alone: each cofactor row gives X c = sum C c' with a
    0 on every other inequality, and the printed basis is sympy's reduced
    one; or the witness point lies in its stratum exactly, on its equality
    e, with X e there the printed nonzero number."""
    xs, read = _reader(doc)
    field = [read(t) for t in doc["fields"][result["field"]]]

    def along(f):
        return sum(c * sympy.diff(f, x) for c, x in zip(field, xs))

    strata = {s["name"]: s for s in doc["strata"]}
    assert result["basis"] == "exact"
    if result["passed"]:
        assert result["witness"] is None and set(result["per_stratum"]) == set(strata)
        for name, certificates in result["per_stratum"].items():
            for cell, cert in zip(strata[name]["cells"], certificates, strict=True):
                fs = [read(c["expr"]) for c in cell]
                for f, row in zip(fs, cert["cofactors"], strict=True):
                    cs = [read(t) for t in row]
                    assert sympy.expand(along(f) - sum(c * g for c, g in zip(cs, fs, strict=True))) == 0
                    assert all(c == 0 for c, g, con in zip(cs, fs, cell) if g is not f and con["rel"] != "eq0")
                equalities = [f for f, c in zip(fs, cell) if c["rel"] == "eq0"]
                want = sympy.groebner(equalities, *xs, order="grlex", domain=sympy.QQ).exprs if equalities else []
                assert [sympy.expand(read(t)) for t in cert["groebner"]] == [
                    sympy.expand(g / sympy.Poly(g, *xs).LC(order="grlex")) for g in want]
        return
    w = result["witness"]
    (cell,) = strata[w["stratum"]]["cells"]
    at = dict(zip(xs, (sympy.Rational(v) for v in w["point"])))
    relation = {"eq0": lambda v: v == 0, "geq0": lambda v: v >= 0, "gt0": lambda v: v > 0,
                "leq0": lambda v: v <= 0, "lt0": lambda v: v < 0}
    assert all(relation[c["rel"]](read(c["expr"]).subs(at)) for c in cell)
    e = read(w["constraint"])
    assert any(c["rel"] == "eq0" and sympy.expand(read(c["expr"]) - e) == 0 for c in cell)
    assert along(e).subs(at) == sympy.Rational(w["derivative"]) != 0


@pytest.mark.parametrize("field,code", [("rot", 0), ("euler", 0), ("ddz", 1)])
def test_each_exact_tangency_report_is_verified_from_its_json(capsys, field, code):
    from subcart.cli import main

    doc = json.loads(open(scenario_path("cone"), encoding="utf-8").read())
    assert main(["strata", "--check", "tangency", "--scenario", scenario_path("cone"), "--field", field]) == code
    result = json.loads(capsys.readouterr().out)["result"]
    check_exact_strata_report(result, doc)
    for name in ("strata-tangency-rot", "strata-tangency-ddz"):
        check_exact_strata_report(json.loads((GOLDEN_DIR / f"{name}.json").read_text())["result"], doc)


def test_the_checker_refuses_a_wrong_cofactor_and_a_wrong_witness(capsys):
    from subcart.cli import main

    doc = json.loads(open(scenario_path("cone"), encoding="utf-8").read())
    golden = json.loads((GOLDEN_DIR / "strata-tangency-rot.json").read_text())["result"]
    wrong = json.loads(json.dumps(golden))
    wrong["per_stratum"]["apex"][0]["cofactors"][0][1] = "1"
    with pytest.raises(AssertionError):
        check_exact_strata_report(wrong, doc)
    golden = json.loads((GOLDEN_DIR / "strata-tangency-ddz.json").read_text())["result"]
    for key, value in (("derivative", "2"), ("point", [0, 0, 1]), ("constraint", "x1")):
        with pytest.raises(AssertionError):
            check_exact_strata_report({**golden, "witness": {**golden["witness"], key: value}}, doc)


# each cone field: whether it is certified on the apex and on the surface
CONE_CERTIFIED = {"rot": (True, True), "euler": (True, True), "ddz": (False, False)}


@pytest.mark.parametrize("field", sorted(CONE_CERTIFIED))
def test_the_cone_fields_are_certified_as_sympy_decides(field):
    # item 33's values: each X e of each equality is in I = (e), each X g in
    # (g) + I, exactly where sympy's Groebner basis contains it
    from subcart.poly import invariance_cofactors

    doc = json.loads(open(scenario_path("cone"), encoding="utf-8").read())
    xs, read = _reader(doc)
    components = [read(t) for t in doc["fields"][field]]
    fld = cone_fields()[field]
    ss = cone_stratification()
    for s, want in zip(ss.strata, CONE_CERTIFIED[field]):
        (cell,) = s.space.cells
        got = invariance_cofactors(fld.components, [[(c.expr, c.rel is Rel.EQ) for c in cell]])
        assert (got is not None) == want
        fs = [sympy.sympify(c.text().replace("^", "**"), locals=dict(zip(("x1", "x2", "x3"), xs))) for c in cell]
        equalities = [f for f, c in zip(fs, cell) if c.rel is Rel.EQ]
        inside = all(sympy.groebner(equalities + ([] if c.rel is Rel.EQ else [f]), *xs, order="grlex").contains(
            sympy.expand(sum(x * sympy.diff(f, v) for x, v in zip(components, xs)))) for f, c in zip(fs, cell))
        assert inside == want


def test_ddz_leaves_each_cone_stratum_at_a_seed():
    # X z = 1 at the apex (0, 0, 0), X f = -2z = -2 at (1, 0, 1)
    ss, ddz = cone_stratification(), cone_fields()["ddz"]
    seeds = [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
    assert strata._transversal(ss.strata[0], ddz, seeds, {}) == {
        "stratum": "apex", "point": [0.0, 0.0, 0.0], "constraint": "x3", "derivative": "1"}
    assert strata._transversal(ss.strata[1], ddz, seeds, {}) == {
        "stratum": "surface", "point": [1.0, 0.0, 1.0], "constraint": "x1^2 + x2^2 - x3^2", "derivative": "-2"}
    # a seed off the stratum by a rounding, or a tangent field, is no witness
    assert strata._transversal(ss.strata[1], ddz, [[1.0, 0.0, 1.0 + 2**-52]], {}) is None
    assert strata._transversal(ss.strata[1], cone_fields()["rot"], seeds, {}) is None


def test_the_boost_is_not_certified_and_gets_the_sampled_report(tmp_path, capsys):
    # z d/dx + x d/dz keeps x^2 + y^2 - z^2 and the apex, but X z = x is not
    # in (z, f): the sampled check answers, byte for byte
    from dataclasses import asdict

    from subcart.cli import load_scenario, main
    from subcart.flow import FlowOptions
    from subcart.poly import invariance_cofactors
    from subcart.report import canonical_json

    doc = json.loads(open(scenario_path("cone"), encoding="utf-8").read())
    doc["fields"]["boost"] = ["z", "0", "x"]
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(str(path))
    boost = sc.field("boost")
    apex, surface = ([(c.expr, c.rel is Rel.EQ) for c in s.space.cells[0]] for s in sc.stratified.strata)
    assert invariance_cofactors(boost.components, [apex]) is not None
    assert invariance_cofactors(boost.components, [surface]) is None
    assert invariance_cofactors(boost.components, [surface[:1]]) is not None
    assert strata._exact_tangency(sc.stratified, boost, [p for ps in sc.seeds.values() for p in ps]) is None
    assert main(["strata", "--check", "tangency", "--scenario", str(path), "--field", "boost", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    opts = FlowOptions()
    rep = strongly_stratified_check(sc.stratified, boost, *sc.box, rng_seed=2, drift_tol=1e-6, options=opts)
    assert out == canonical_json({
        "command": "strata", "result": {**asdict(rep), "declared_locally_trivial": False},
        "scenario": {"name": sc.name, "sha256": sc.sha256}, "seed": 2,
        "tolerances": {"atol": opts.atol, "drift": 1e-6, "rtol": opts.rtol}}) + "\n"


@pytest.mark.parametrize("check", [["tangency", "--field", "rot"], ["orbits", "--budget", "20"]])
@pytest.mark.parametrize("horizon", ["1e307", "-1", "nan"])
def test_a_certified_run_refuses_the_horizons_a_sampled_one_does(tmp_path, capsys, check, horizon):
    # no drive runs, yet the horizon is refused as a drive refuses it; the
    # cone whose fields the certificate cannot read samples and drives
    from subcart.cli import main

    unread = tmp_path / "cone-exp.json"
    unread.write_text(json.dumps(cone_without_polynomials()))
    answers = []
    for path in (scenario_path("cone"), str(unread)):
        code = main(["strata", "--check", *check, "--scenario", path, f"--horizon={horizon}"])
        answers.append((code, *capsys.readouterr()))
    assert answers[0] == answers[1]
    assert answers[0][0] == 2 and answers[0][1] == ""
    if horizon == "1e307":
        assert answers[0][2] == ("error: integration failed: horizon 1e+307 is more than 2^53 sample spacings "
                                 "of 0.1\n")


def test_an_orbit_check_of_certified_fields_is_the_sampled_containment(capsys):
    # the same seeds' evidence as the sampled check, with an exact precondition
    from subcart.cli import main

    assert main(["strata", "--check", "orbits", "--scenario", scenario_path("cone"), "--budget", "60",
                 "--seed", "6"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    sampled = json.loads(_sampled_strata_report("orbits", "default", 0.5, 6, 60))["result"]
    assert {k: v for k, v in result.items() if k != "precondition"} == \
        {k: v for k, v in sampled.items() if k != "precondition"}
    assert result["precondition"] == [{"basis": "exact", "field": f, "passed": True} for f in ("euler", "rot")]
