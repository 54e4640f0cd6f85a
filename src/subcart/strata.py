"""Declared stratifications and their sampled checks.

A stratified space here is a total constraint space together with named
sub-spaces (the strata) that are supposed to partition it.  Nothing is
inferred: partitions, dimensions, and local triviality are declared, and
this module measures how well the declarations hold up on samples.

Three checks matter downstream.  The frontier check estimates, pair by
pair, whether one stratum touches another's closure and, if so, whether it
is wholly contained in that closure.  The strongly-stratified check flows a
candidate field from each distinct stratum sample once, without any
membership clamping, and measures how far the trajectories drift from the
stratum's constraint locus in a flow kernel that folds the stratum's slack
at every point it scans (``flow.drift``), so no curve is stored.  The orbit
check explores the orbit of a family of such fields and hard-asserts that
no sampled orbit point leaves its seed's stratum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .expr import _norm
from .field import RANK_TOL, TangentField
from .space import (
    BOX_TRIES,
    SpaceError,
    SubcartesianSpace,
    box,
    project_to_equalities,
    sample,
)

if TYPE_CHECKING:
    from .flow import FlowOptions
    from .orbit import FieldFamily

FRONTIER_TOL = 1e-4
DRIFT_TOL = 1e-8
COVER_RADIUS = 0.35
# box samples drawn per stratum by each check, and of the total space by the
# frontier check's partition test
FRONTIER_SAMPLES = 60
PARTITION_SAMPLES = 120
DRIFT_SAMPLES = 15
COVER_SAMPLES = 60


class StrataError(ValueError):
    pass


class NotStronglyStratifiedError(StrataError):
    """A family field drifts off a stratum, so the orbit check's precondition
    fails; the message carries the drift's witness."""


@dataclass(frozen=True)
class Stratum:
    name: str
    space: SubcartesianSpace
    dim: int


class StratifiedSpace:
    """A total space with declared strata and a declared triviality flag."""

    def __init__(
        self,
        total: SubcartesianSpace,
        strata: Sequence[Stratum],
        locally_trivial: bool = False,
    ):
        if not strata:
            raise StrataError("a stratified space needs at least one stratum")
        names = [s.name for s in strata]
        if len(set(names)) != len(names):
            raise StrataError(f"duplicate stratum names in {names}")
        for s in strata:
            if s.space.ambient_dim != total.ambient_dim:
                raise StrataError(
                    f"stratum {s.name!r} lives in dimension {s.space.ambient_dim}, "
                    f"total space in {total.ambient_dim}"
                )
        self.total = total
        self.strata: tuple[Stratum, ...] = tuple(strata)
        self.locally_trivial = bool(locally_trivial)

    def stratum_of(self, point: Sequence[float]) -> Optional[int]:
        for i, s in enumerate(self.strata):
            if s.space.contains(point):
                return i
        return None


def _bits(point: Sequence[float]) -> tuple[str, ...]:
    """The key of a sample among bit-identical ones: hex, as == would take -0.0 for 0.0."""
    return tuple(map(float.hex, point))


def closure_distance(
    space: SubcartesianSpace,
    point: Sequence[float],
    cloud: Sequence[Sequence[float]] = (),
) -> float:
    """Estimated distance from a point to the closure of a space.

    Combines Gauss-Newton projection onto each cell's equality locus
    (followed by a closure-membership check of the projected point) with
    the nearest point of the sample ``cloud`` as a fallback.  Caller-level
    tolerances should stay coarse: these are sampling estimates.  A distance
    is the root of a pairwise sum of squares (``dense._nearest``).
    """
    p, best = [float(v) for v in point], math.inf
    for ci in range(len(space.cells)):
        z = project_to_equalities(space, ci, p)
        if z is not None and space.closure_contains(z):
            best = min(best, _norm([a - b for a, b in zip(p, z)]))
    if cloud:
        from .dense import _nearest

        best = min(best, math.sqrt(_nearest(len(p))(cloud, p)))
    return best


@dataclass
class FrontierReport:
    passed: bool
    coverage_failures: list[dict]
    disjointness_failures: list[dict]
    contacts: list[dict]
    frontier_violations: list[dict]
    samples_per_stratum: dict


def frontier_check(
    ss: StratifiedSpace,
    lo: Sequence[float],
    hi: Sequence[float],
    rng_seed: int = 0,
    frontier_tol: float = FRONTIER_TOL,
) -> FrontierReport:
    """Sampled partition and frontier-condition audit.

    Coverage: total-space samples must land in exactly one stratum.
    Frontier: whenever some sample of stratum M sits within frontier_tol of
    the closure of stratum N, every M sample must.  The owners and the
    distances of a sample bit-identical to an earlier one of its stratum (a
    one-point stratum gives its point every time) are the earlier one's, not
    computed again; each copy still counts and fails on its own.
    """
    draw = box(random.Random(rng_seed), lo, hi)
    clouds: list[list[list[float]]] = []
    for s in ss.strata:
        pts = sample(s.space, FRONTIER_SAMPLES, draw, BOX_TRIES)
        if not pts:
            raise StrataError(f"stratum {s.name!r} produced no samples in the given box")
        clouds.append(pts)

    coverage_failures: list[dict] = []
    disjointness_failures: list[dict] = []
    total_pts = sample(ss.total, PARTITION_SAMPLES, draw, BOX_TRIES)
    for p in total_pts:
        owners = [s.name for s in ss.strata if s.space.contains(p)]
        if not owners:
            coverage_failures.append({"point": p, "strata": owners})
        elif len(owners) > 1:
            disjointness_failures.append({"point": p, "strata": owners})
    keys = [[_bits(p) for p in pts] for pts in clouds]
    distinct = [dict(zip(ks, pts)) for ks, pts in zip(keys, clouds)]
    for ks, pts, once in zip(keys, clouds, distinct):
        owners = {k: [s.name for s in ss.strata if s.space.contains(p)] for k, p in once.items()}
        disjointness_failures += [{"point": p, "strata": owners[k]} for p, k in zip(pts, ks) if len(owners[k]) > 1]

    contacts: list[dict] = []
    violations: list[dict] = []
    for i, m in enumerate(ss.strata):
        for j, n in enumerate(ss.strata):
            if i == j:
                continue
            dist = {k: closure_distance(n.space, p, clouds[j]) for k, p in distinct[i].items()}
            dists = [dist[k] for k in keys[i]]
            touch = min(dists) <= frontier_tol
            if not touch:
                continue
            contacts.append({"m": m.name, "n": n.name, "min_distance": min(dists)})
            for p, d in zip(clouds[i], dists):
                if d > frontier_tol:
                    violations.append({"m": m.name, "n": n.name, "point": p, "distance": d})
    passed = not coverage_failures and not disjointness_failures and not violations
    return FrontierReport(
        passed=passed,
        coverage_failures=coverage_failures,
        disjointness_failures=disjointness_failures,
        contacts=contacts,
        frontier_violations=violations,
        samples_per_stratum={s.name: len(c) for s, c in zip(ss.strata, clouds)},
    )


@dataclass
class StrongStratReport:
    passed: bool
    field: str
    horizon: float
    max_drift: float
    witness: Optional[dict]
    per_stratum: dict


def strongly_stratified_check(
    ss: StratifiedSpace,
    fld: TangentField,
    lo: Sequence[float],
    hi: Sequence[float],
    horizon: float = 0.5,
    rng_seed: int = 0,
    drift_tol: float = DRIFT_TOL,
    options: Optional[FlowOptions] = None,
) -> StrongStratReport:
    """Flow the field from stratum samples and measure stratum drift.

    Integration is unconstrained (ambient space), so a field that pushes
    points off their stratum shows up as constraint-residual growth rather
    than being clipped at the membership boundary.  Drift of a point is the
    worst violation of its stratum's constraints along the trajectory; the
    check passes when max drift <= drift_tol * horizon.  A constraint that
    is not a number on the trajectory is a ``SpaceError`` naming the point.

    A sample bit-identical to an earlier one of its stratum (a one-point
    stratum gives its point every time) is not flowed again: the same start
    gives the same curve, and the maxima take a later point only where it
    is strictly worse, so the report is the same.  Each curve's drift is
    folded while it is integrated (``flow.drift``), in the order of a loop
    over its points in time, and no point is stored.
    """
    from .flow import drift

    draw = box(random.Random(rng_seed), lo, hi)
    threshold = drift_tol * horizon
    max_drift = 0.0
    witness: Optional[dict] = None
    per_stratum: dict[str, float] = {}
    for s in ss.strata:
        pts = sample(s.space, DRIFT_SAMPLES, draw, BOX_TRIES)
        if not pts:
            raise StrataError(f"stratum {s.name!r} produced no samples in the given box")
        flowed: set[tuple[str, ...]] = set()
        worst_here = 0.0
        for p in pts:
            start = _bits(p)
            if start in flowed:
                continue
            flowed.add(start)
            violation, t, point, stop = drift(s.space, fld, p, horizon, options)
            if stop is not None:  # max(0.0, -nan) would read as no drift
                raise SpaceError(f"the constraints of stratum {s.name!r} are not a number at {stop}")
            if violation > worst_here:
                worst_here = violation
                if violation > max_drift:
                    max_drift = violation
                    witness = {
                        "stratum": s.name,
                        "start": [float(v) for v in p],
                        "t": t,
                        "point": point,
                        "drift": violation,
                    }
        per_stratum[s.name] = worst_here
    return StrongStratReport(
        passed=max_drift <= threshold,
        field=fld.label,
        horizon=horizon,
        max_drift=max_drift,
        witness=witness if max_drift > threshold else None,
        per_stratum=per_stratum,
    )


@dataclass
class OrbitStrataReport:
    passed: bool
    per_seed: list[dict]
    cover_radius: float
    precondition: list[dict]


def orbit_vs_strata(
    ss: StratifiedSpace,
    family: FieldFamily,
    seeds: Sequence[Sequence[float]],
    lo: Sequence[float],
    hi: Sequence[float],
    budget: int = 400,
    rng_seed: int = 0,
    horizon: float = 0.5,
    drift_tol: float = DRIFT_TOL,
    tol_rank: float = RANK_TOL,
    options: Optional[FlowOptions] = None,
) -> OrbitStrataReport:
    """Sampled two-sided comparison of family orbits with strata.

    Preconditions gate hard: every family field must pass the strongly
    stratified check first.  Containment is then asserted per seed (no
    sampled orbit point may leave the seed's stratum); coverage of the
    stratum by the orbit cloud is reported as evidence at COVER_RADIUS
    resolution, far coarser than the orbit merge radius.  ``tol_rank`` is
    the relative rank tolerance of the clouds' span dimensions.
    """
    from .orbit import _MergeIndex, sample_orbit

    precondition: list[dict] = []
    for f in family.fields:
        rep = strongly_stratified_check(
            ss, f, lo, hi, horizon=horizon, rng_seed=rng_seed,
            drift_tol=drift_tol, options=options,
        )
        precondition.append({"field": f.label, "passed": rep.passed, "max_drift": rep.max_drift})
        if not rep.passed:
            raise NotStronglyStratifiedError(
                f"field {f.label!r} is not strongly stratified "
                f"(drift {rep.max_drift:.3e} over horizon {horizon}); witness {rep.witness}"
            )

    draw = box(random.Random(rng_seed), lo, hi)
    per_seed: list[dict] = []
    all_ok = True
    for seed in seeds:
        si = ss.stratum_of(seed)
        if si is None:
            raise StrataError(f"seed {list(map(float, seed))} lies in no declared stratum")
        stratum = ss.strata[si]
        cloud = sample_orbit(family, seed, budget, rng_seed=rng_seed, tol_rank=tol_rank, options=options)
        escapes = [q for q in cloud.points if not stratum.space.contains(q)]
        stratum_pts = sample(stratum.space, COVER_SAMPLES, draw, BOX_TRIES)
        # cells of one cover radius: cells of four, the merge test's, hold
        # several times the points a query has to measure
        index = _MergeIndex(ss.total.ambient_dim, COVER_RADIUS, side=COVER_RADIUS)
        for q in cloud.points:
            index.add(q)
        covered = sum(map(index.near, stratum_pts))
        frac = covered / len(stratum_pts) if stratum_pts else float("nan")
        ok = not escapes
        all_ok = all_ok and ok
        per_seed.append(
            {
                "seed": [float(v) for v in seed],
                "stratum": stratum.name,
                "n_orbit_points": len(cloud.points),
                "escapes": escapes,
                "contained": ok,
                "est_dimension": cloud.est_dimension,
                "declared_dimension": stratum.dim,
                "coverage_fraction": frac,
            }
        )
    return OrbitStrataReport(
        passed=all_ok,
        per_seed=per_seed,
        cover_radius=COVER_RADIUS,
        precondition=precondition,
    )

