"""Declared stratifications and their sampled checks.

A stratified space here is a total constraint space together with named
sub-spaces (the strata) that are supposed to partition it.  Nothing is
inferred: partitions, dimensions, and local triviality are declared, and
this module measures how well the declarations hold up on samples.

Three checks matter downstream.  The frontier check estimates, pair by
pair, whether one stratum touches another's closure and, if so, whether it
is wholly contained in that closure.  The strongly-stratified check flows a
candidate field from stratum samples without any membership clamping and
measures how far the trajectories drift from the stratum's constraint
locus.  The orbit check explores the orbit of a family of such fields and
hard-asserts that no sampled orbit point leaves its seed's stratum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .field import RANK_TOL, TangentField
from .space import (
    SpaceError,
    SubcartesianSpace,
    _project,
    _sum_sq,
    round_robin,
    sample_cell_box,
)

if TYPE_CHECKING:
    import numpy as np

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


def sample_space_box(
    space: SubcartesianSpace,
    lo: Sequence[float],
    hi: Sequence[float],
    count: int,
    rng: random.Random,
) -> list[list[float]]:
    """Box sampling across all cells of a space, round-robin."""
    return round_robin(space, count, lambda i, c: sample_cell_box(space, i, lo, hi, c, rng))


def closure_distance(
    space: SubcartesianSpace,
    point: Sequence[float],
    cloud: Optional[np.ndarray] = None,
) -> float:
    """Estimated distance from a point to the closure of a space.

    Combines Gauss-Newton projection onto each cell's equality locus
    (followed by a closure-membership check of the projected point) with
    the nearest sampled point of the space as a fallback.  Caller-level
    tolerances should stay coarse: these are sampling estimates.  The
    projection and the distance to it are taken on float lists, the
    distance as the root of the in-order sum of squares.
    """
    p = [float(v) for v in point]
    best = math.inf
    for ci in range(len(space.cells)):
        z = _project(space, ci, p)
        if z is not None and space.closure_contains(z):
            best = min(best, math.sqrt(_sum_sq(a - b for a, b in zip(p, z))))
    if cloud is not None and cloud.size:
        import numpy as np

        best = min(best, float(np.min(np.linalg.norm(cloud - p, axis=1))))
    return best


@dataclass
class FrontierReport:
    passed: bool
    coverage_failures: list[dict]
    disjointness_failures: list[dict]
    contacts: list[dict]
    frontier_violations: list[dict]
    samples_per_stratum: dict
    frontier_tol: float

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "coverage_failures": self.coverage_failures,
            "disjointness_failures": self.disjointness_failures,
            "contacts": self.contacts,
            "frontier_violations": self.frontier_violations,
            "samples_per_stratum": self.samples_per_stratum,
            "frontier_tol": self.frontier_tol,
        }


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
    the closure of stratum N, every M sample must.
    """
    import numpy as np

    rng = random.Random(rng_seed)
    clouds: list[list[list[float]]] = []  # lists: numpy scalars would warn where a power overflows
    arrays: list[np.ndarray] = []
    for s in ss.strata:
        pts = sample_space_box(s.space, lo, hi, FRONTIER_SAMPLES, rng)
        if not pts:
            raise StrataError(f"stratum {s.name!r} produced no samples in the given box")
        clouds.append(pts)
        arrays.append(np.array(pts))

    coverage_failures: list[dict] = []
    disjointness_failures: list[dict] = []
    total_pts = sample_space_box(ss.total, lo, hi, PARTITION_SAMPLES, rng)
    for p in total_pts:
        owners = [s.name for s in ss.strata if s.space.contains(p)]
        if not owners:
            coverage_failures.append({"point": p, "strata": owners})
        elif len(owners) > 1:
            disjointness_failures.append({"point": p, "strata": owners})
    for i, pts in enumerate(clouds):
        for p in pts:
            owners = [s.name for s in ss.strata if s.space.contains(p)]
            if len(owners) > 1:
                disjointness_failures.append({"point": p, "strata": owners})

    contacts: list[dict] = []
    violations: list[dict] = []
    for i, m in enumerate(ss.strata):
        for j, n in enumerate(ss.strata):
            if i == j:
                continue
            dists = [closure_distance(n.space, p, arrays[j]) for p in clouds[i]]
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
        frontier_tol=frontier_tol,
    )


@dataclass
class StrongStratReport:
    passed: bool
    field_label: str
    horizon: float
    drift_tol: float
    max_drift: float
    witness: Optional[dict]
    per_stratum: dict

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "field": self.field_label,
            "horizon": self.horizon,
            "drift_tol": self.drift_tol,
            "max_drift": self.max_drift,
            "witness": self.witness,
            "per_stratum": self.per_stratum,
        }


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
    """
    from .flow import integrate

    rng = random.Random(rng_seed)
    ambient = SubcartesianSpace.whole_space(ss.total.ambient_dim)
    threshold = drift_tol * horizon
    max_drift = 0.0
    witness: Optional[dict] = None
    per_stratum: dict[str, float] = {}
    for s in ss.strata:
        pts = sample_space_box(s.space, lo, hi, DRIFT_SAMPLES, rng)
        if not pts:
            raise StrataError(f"stratum {s.name!r} produced no samples in the given box")
        worst_here = 0.0
        for p in pts:
            curve = integrate(ambient, fld, p, horizon=horizon, options=options)
            for t, q in curve.samples:
                slack = s.space.slack(q)
                if slack != slack:  # max(0.0, -nan) would read as no drift
                    raise SpaceError(f"the constraints of stratum {s.name!r} are not a number at {q}")
                violation = max(0.0, -slack)
                if violation > worst_here:
                    worst_here = violation
                    if violation > max_drift:
                        max_drift = violation
                        witness = {
                            "stratum": s.name,
                            "start": [float(v) for v in p],
                            "t": t,
                            "point": q,
                            "drift": violation,
                        }
        per_stratum[s.name] = worst_here
    return StrongStratReport(
        passed=max_drift <= threshold,
        field_label=fld.label,
        horizon=horizon,
        drift_tol=drift_tol,
        max_drift=max_drift,
        witness=witness if max_drift > threshold else None,
        per_stratum=per_stratum,
    )


@dataclass
class OrbitStrataReport:
    passed: bool
    per_seed: list[dict]
    precondition: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "per_seed": self.per_seed,
            "cover_radius": COVER_RADIUS,
            "precondition": self.precondition,
        }


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
    import numpy as np

    from .orbit import sample_orbit

    precondition: list[dict] = []
    for f in family.fields:
        rep = strongly_stratified_check(
            ss, f, lo, hi, horizon=horizon, rng_seed=rng_seed,
            drift_tol=drift_tol, options=options,
        )
        precondition.append({"field": f.label, "passed": rep.passed, "max_drift": rep.max_drift})
        if not rep.passed:
            raise StrataError(
                f"field {f.label!r} is not strongly stratified "
                f"(drift {rep.max_drift:.3e} over horizon {horizon}); witness {rep.witness}"
            )

    rng = random.Random(rng_seed)
    per_seed: list[dict] = []
    all_ok = True
    for seed in seeds:
        si = ss.stratum_of(seed)
        if si is None:
            raise StrataError(f"seed {list(map(float, seed))} lies in no declared stratum")
        stratum = ss.strata[si]
        cloud = sample_orbit(family, seed, budget, rng_seed=rng_seed, tol_rank=tol_rank, options=options)
        # lists: numpy scalars would warn where a product overflows
        escapes = [q for q in (p.tolist() for p in cloud.points) if not stratum.space.contains(q)]
        stratum_pts = sample_space_box(stratum.space, lo, hi, COVER_SAMPLES, rng)
        arr = cloud.as_array()
        covered = 0
        for q in stratum_pts:
            if arr.size and float(np.min(np.linalg.norm(arr - q, axis=1))) <= COVER_RADIUS:
                covered += 1
        frac = covered / len(stratum_pts) if stratum_pts else float("nan")
        ok = not escapes
        all_ok = all_ok and ok
        per_seed.append(
            {
                "seed": [float(v) for v in np.asarray(seed, dtype=float)],
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
        precondition=precondition,
    )

