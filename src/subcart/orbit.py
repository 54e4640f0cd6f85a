"""Orbits of finite vector-field families.

A flow word is a finite program [(field_index, t1), ...]; replaying it from
a seed composes the individual flow maps left to right.  The orbit of a
family through a seed is everything reachable by such words.  Orbits are
explored breadth-first with random word extensions; every collected point
keeps its generating word so reachability claims stay reproducible.

Only explicit finite families are handled.  Questions that quantify over
all vector fields of the space are exercised through nested finite
families.
"""

from __future__ import annotations

import math
import random
from array import array
from collections import deque
from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import TYPE_CHECKING, Optional, Sequence

from .expr import DomainError
from .field import RANK_TOL, TangentField
from .flow import (
    FlowDomainError, FlowOptions, IntegrationError, _flow_core, _pairwise_sum, flow_map, transport_vector,
)
from .space import SubcartesianSpace

if TYPE_CHECKING:
    import numpy as np

MERGE_RADIUS = 1e-6  # orbit points closer than this are one point
COMPLETENESS_TOL = 1e-6
CHART_FD_STEP = 1e-6  # the central difference step of the chart's word map

FlowWord = tuple[tuple[int, float], ...]


class OrbitError(ValueError):
    pass


class DependentBasisError(OrbitError):
    """Chart basis fields are linearly dependent at the basepoint."""


class ReachError(RuntimeError):
    """A word segment left the space before its full duration."""

    def __init__(self, message: str, segment: int, achieved_t: float, partial: list[np.ndarray]):
        super().__init__(message)
        self.segment = segment
        self.achieved_t = achieved_t
        self.partial = partial


class FieldFamily:
    """A finite list of tangent fields sharing one space."""

    def __init__(self, space: SubcartesianSpace, fields: Sequence[TangentField]):
        if not fields:
            raise OrbitError("a family needs at least one field")
        for f in fields:
            if f.dim != space.ambient_dim:
                raise OrbitError(
                    f"field {f.label!r} has dimension {f.dim}, space has {space.ambient_dim}"
                )
        self.space = space
        self.fields: tuple[TangentField, ...] = tuple(fields)

    def __len__(self) -> int:
        return len(self.fields)

    def __getitem__(self, i: int) -> TangentField:
        return self.fields[i]

    def labels(self) -> list[str]:
        return [f.label for f in self.fields]

    def value_matrix(self, point: Sequence[float]) -> np.ndarray:
        """Columns are the member fields evaluated at the point (n x m)."""
        import numpy as np

        return np.column_stack([f(point) for f in self.fields])

    def vanishes_at(self, point: Sequence[float]) -> bool:
        """Whether every field evaluates to exactly 0.0 at the point.  Then
        every flow of the family fixes the point, and its orbit is the point
        alone, a 0-dimensional manifold."""
        try:
            return all(v == 0.0 for f in self.fields for v in f.value(point))
        except (DomainError, OverflowError):  # a field undefined there does not vanish
            return False


def check_word(family: FieldFamily, word: Sequence[tuple[int, float]]) -> FlowWord:
    out = []
    for k, (idx, t) in enumerate(word):
        idx = int(idx)
        if not 0 <= idx < len(family):
            raise OrbitError(f"word step {k} names field {idx}, family has {len(family)}")
        out.append((idx, float(t)))
    return tuple(out)


def reach(
    family: FieldFamily,
    x0: Sequence[float],
    word: Sequence[tuple[int, float]],
    options: Optional[FlowOptions] = None,
) -> np.ndarray:
    """Replay a flow word from x0; the empty word is the identity."""
    import numpy as np

    word = check_word(family, word)
    family.space.require_member(x0, "basepoint")
    y = np.asarray(x0, dtype=float)
    trail = [y.copy()]
    for k, (idx, t) in enumerate(word):
        try:
            y = flow_map(family.space, family.fields[idx], y, t, options)
        except FlowDomainError as exc:
            trail.append(np.array(exc.partial_point))
            raise ReachError(
                f"segment {k} (field {family.fields[idx].label!r}) exits at "
                f"t={exc.achieved_t:.6g} before t={t:.6g}",
                segment=k,
                achieved_t=exc.achieved_t,
                partial=trail,
            ) from None
        trail.append(y.copy())
    return y


def span_dimensions(
    family: FieldFamily, points: Sequence[Sequence[float]], tol_rank: float = RANK_TOL
) -> list[int]:
    """Numerical rank of the family's value matrix at each point.

    The field values are packed into one flat buffer and the (n x m) value
    matrices of all points go through one stacked SVD, which computes each
    matrix exactly as a call of its own would.
    """
    import numpy as np

    if not points:
        return []
    vals = array("d")
    for p in points:
        for f in family.fields:
            vals.extend(f.value(p))
    m = np.frombuffer(vals).reshape(len(points), len(family), family.space.ambient_dim)
    s = np.linalg.svd(m.transpose(0, 2, 1), compute_uv=False)
    top = s[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(s > tol_rank * top, axis=1), 0).tolist()


class _MergeIndex:
    """The collected points of an orbit, for the merge test of ``sample_orbit``.

    A candidate merges when some collected point lies within
    ``MERGE_RADIUS`` by the row formula of ``np.linalg.norm(buf - y,
    axis=1)``, the square root of the pairwise sum of the squared
    differences, and the smallest distance is not NaN.  Points sit in grid
    cells of side 4 * MERGE_RADIUS keyed by ``floor(x / side)``.  A point
    within the radius differs from the candidate by at most a quarter of the
    side in every coordinate, and as long as every |x / side| is below 2^50
    the rounding of the two quotients adds at most 1/8 of a side.  So per
    axis the point lies in the candidate's cell or in the neighbour on the
    side of the candidate's half of its cell, and the 2^n cells those
    choices span hold every point within the radius.  ``locate`` computes a
    point's cell and those lower corners once, for the merge test and for
    adding the point.  Points beyond 2^50 go to ``far``, which every
    candidate scans; a candidate beyond it, and one with fewer points than
    cells to probe, scan all points.  A cell is found by the hash of its key
    and holds a chain of point indices through ``prev``; cells whose hashes
    collide share a chain, which only adds points to the exact test.
    """

    side = 4.0 * MERGE_RADIUS
    # a point farther than twice the radius in its first coordinate is
    # farther than the radius
    far_off = 2.0 * MERGE_RADIUS

    def __init__(self, n: int):
        self.n = n
        self.x = array("d")  # n coordinates per point
        self.last: dict[int, int] = {}  # cell hash -> its last point
        self.prev = array("q")  # per point: the point before it in its cell, or -1
        self.far: list[int] = []
        self.nan = False  # a collected NaN makes every smallest distance NaN

    def locate(self, y: list[float]) -> Optional[tuple[tuple[int, ...], list[int]]]:
        """The key of y's cell and, per axis, the lower of the two cells to
        probe; None off the grid."""
        key = []
        low = []
        for v in y:
            q = v / self.side
            if not abs(q) < 2.0**50:
                return None
            k = math.floor(q)
            key.append(k)
            low.append(k if q - k >= 0.5 else k - 1)
        return tuple(key), low

    def add(self, y: list[float], where: Optional[tuple]) -> None:
        """Collect y, located by ``locate``."""
        j = len(self.prev)
        self.x.extend(y)
        self.nan = self.nan or any(v != v for v in y)
        if where is None:
            self.far.append(j)
            self.prev.append(-1)
        else:
            cell = hash(where[0])
            self.prev.append(self.last.get(cell, -1))
            self.last[cell] = j

    def merges(self, y: list[float], where: Optional[tuple]) -> bool:
        """Whether y, located by ``locate``, merges into a collected point."""
        if self.nan:
            return False
        n, count, last, prev = self.n, len(self.prev), self.last, self.prev
        if where is None or 1 << n > count:
            near: Sequence[int] = range(count)
        else:
            near = list(self.far)
            for c in product(*((k, k + 1) for k in where[1])):
                j = last.get(hash(c), -1)
                while j >= 0:
                    near.append(j)
                    j = prev[j]
        far_off = self.far_off
        x, y0 = self.x, y[0]
        best = math.inf
        for j in near:
            if abs(x[j * n] - y0) > far_off:
                continue
            d = math.sqrt(_pairwise_sum([(a - b) * (a - b) for a, b in zip(x[j * n : j * n + n], y)]))
            if d != d:
                return False
            best = min(best, d)
        return best <= MERGE_RADIUS


@dataclass
class OrbitSample:
    """A reachable point cloud with the words that produced it."""

    seed: np.ndarray
    points: list[np.ndarray]
    words: list[FlowWord]
    est_dimension: int
    dimensions: list[int] = dc_field(default_factory=list)  # span dimension per point
    diagnostics: dict = dc_field(default_factory=dict)

    def as_array(self) -> np.ndarray:
        import numpy as np

        return np.array(self.points)


def sample_orbit(
    family: FieldFamily,
    x0: Sequence[float],
    budget: int,
    step_scale: float = 0.3,
    rng_seed: int = 0,
    tol_rank: float = RANK_TOL,
    options: Optional[FlowOptions] = None,
) -> OrbitSample:
    """Breadth-first random orbit exploration, deterministic per rng_seed.

    Frontier points are expanded with one random duration per family field;
    candidates of a round are sorted canonically before dedup so the result
    does not depend on expansion interleaving.  Points within MERGE_RADIUS
    of an already collected point are merged away.  Where every field of
    the family vanishes at x0, every flow fixes it: the cloud is x0 alone,
    at once, with ``"fixed_point": true`` in the diagnostics.
    """
    import numpy as np

    if budget < 1:
        raise OrbitError(f"budget must be at least 1, got {budget}")
    space = family.space
    space.require_member(x0, "seed")
    opts = options or FlowOptions()
    flows = [_flow_core(space, f, opts) for f in family.fields]
    rng = random.Random(rng_seed)
    seed = np.asarray(x0, dtype=float)
    points: list[list[float]] = [seed.tolist()]
    words: list[FlowWord] = [()]
    index = _MergeIndex(seed.size)
    index.add(points[0], index.locate(points[0]))
    frontier: deque[int] = deque([0])
    attempts = 0
    merged = 0
    failures = 0
    max_attempts = 40 * budget
    fixed = family.vanishes_at(points[0])

    while not fixed and frontier and len(points) < budget and attempts < max_attempts:
        i = frontier.popleft()
        base = points[i]
        word = words[i]
        space.require_member(base, "basepoint")
        candidates: list[tuple[list[float], FlowWord]] = []
        for fi, flow in enumerate(flows):
            dt = rng.uniform(-step_scale, step_scale)
            attempts += 1
            try:
                y = flow(base, dt)
            except (FlowDomainError, IntegrationError):
                failures += 1
                continue
            candidates.append((y, word + ((fi, dt),)))
        candidates.sort(key=lambda c: c[0])
        accepted_any = False
        for y, w in candidates:
            if len(points) >= budget:
                break
            where = index.locate(y)
            if index.merges(y, where):
                merged += 1
                continue
            points.append(y)
            words.append(w)
            index.add(y, where)
            frontier.append(len(points) - 1)
            accepted_any = True
        # a barren expansion must not starve the frontier: retry the point
        # with fresh durations while the attempt cap allows
        if not accepted_any and len(points) < budget:
            frontier.append(i)

    arrays = [np.array(p) for p in points]
    dims = span_dimensions(family, arrays, tol_rank)
    diagnostics = {
        "attempts": attempts,
        "merged": merged,
        "flow_failures": failures,
        "span_dimensions": sorted(set(dims)),
        "rng_seed": rng_seed,
        "step_scale": step_scale,
        "merge_radius": MERGE_RADIUS,
    }
    if fixed:
        diagnostics["fixed_point"] = True
    return OrbitSample(
        seed=seed,
        points=arrays,
        words=words,
        est_dimension=max(dims) if dims else 0,
        dimensions=dims,
        diagnostics=diagnostics,
    )


@dataclass
class Chart:
    """A composite-flow chart at a basepoint, with its rank certificate.

    jacobian0 stacks the basis field values at the basepoint; fd_jacobian
    differentiates the word map T -> flows(T)(basepoint) at T=0 through the
    integrator.  Their agreement is the checkable content of the chart
    construction: both are the derivative of the same map, computed by
    independent routes.
    """

    basis: tuple[int, ...]
    basepoint: np.ndarray
    box: list[tuple[float, float]]
    jacobian0: np.ndarray
    fd_jacobian: np.ndarray
    agreement: float
    rank: int
    singular_values: list[float]


def chart_jacobian(
    family: FieldFamily,
    basis: Sequence[int],
    x: Sequence[float],
    tol_rank: float = RANK_TOL,
    options: Optional[FlowOptions] = None,
) -> Chart:
    """Build the chart differential at T=0 for the chosen basis fields."""
    import numpy as np

    basis = tuple(int(b) for b in basis)
    if not basis:
        raise OrbitError("the chart basis is empty")
    for b in basis:
        if not 0 <= b < len(family):
            raise OrbitError(f"basis index {b} out of range for family of {len(family)}")
    family.space.require_member(x, "basepoint")
    x = np.asarray(x, dtype=float)
    jac = np.column_stack([family.fields[b](x) for b in basis])
    s = np.linalg.svd(jac, compute_uv=False)
    rank = 0 if s[0] <= 0.0 else int(np.sum(s > tol_rank * s[0]))
    if rank < len(basis):
        raise DependentBasisError(
            f"basis fields {[family.fields[b].label for b in basis]} span only "
            f"rank {rank} at {x.tolist()}"
        )

    fd_cols = []
    box = []
    for b in basis:
        fld = family.fields[b]
        plus = flow_map(family.space, fld, x, CHART_FD_STEP, options)
        minus = flow_map(family.space, fld, x, -CHART_FD_STEP, options)
        fd_cols.append((plus - minus) / (2.0 * CHART_FD_STEP))
        box.append((-CHART_FD_STEP, CHART_FD_STEP))
    fd_jac = np.column_stack(fd_cols)
    agreement = float(np.max(np.abs(fd_jac - jac)))
    return Chart(
        basis=basis,
        basepoint=x,
        box=box,
        jacobian0=jac,
        fd_jacobian=fd_jac,
        agreement=agreement,
        rank=rank,
        singular_values=[float(v) for v in s],
    )


@dataclass
class DimensionReport:
    seed: np.ndarray
    dimensions: list[int]
    constant: bool
    n_points: int
    per_dimension_counts: dict


def dimension_constancy_report(
    family: FieldFamily,
    x0: Sequence[float],
    n_probes: int = 100,
    rng_seed: int = 0,
    step_scale: float = 0.3,
    tol_rank: float = RANK_TOL,
    options: Optional[FlowOptions] = None,
) -> DimensionReport:
    """Distinct span dimensions along a sampled orbit.

    A singleton answer is consistent with local completeness of the family;
    multiple values certify that the pointwise span dimension is not an
    orbit invariant for this family.
    """
    cloud = sample_orbit(
        family, x0, n_probes, step_scale=step_scale, rng_seed=rng_seed,
        tol_rank=tol_rank, options=options,
    )
    counts: dict[int, int] = {}
    for d in cloud.dimensions:
        counts[d] = counts.get(d, 0) + 1
    distinct = sorted(counts)
    return DimensionReport(
        seed=cloud.seed,
        dimensions=distinct,
        constant=len(distinct) == 1,
        n_points=len(cloud.points),
        per_dimension_counts=counts,
    )


@dataclass
class CompletenessReport:
    passed: bool
    n_probes: int
    skipped: int
    max_residual: float
    witness: Optional[dict]
    records: list[dict]

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "n_probes": self.n_probes,
            "skipped": self.skipped,
            "max_residual": self.max_residual,
            "witness": self.witness,
        }


def _span_residual(matrix: np.ndarray, w: np.ndarray) -> float:
    """Distance from w to the column span of matrix."""
    import numpy as np

    if not np.any(matrix):
        return float(np.linalg.norm(w))
    coef, *_ = np.linalg.lstsq(matrix, w, rcond=None)
    return float(np.linalg.norm(w - matrix @ coef))


def local_completeness_probe(
    family: FieldFamily,
    probes: Optional[Sequence[tuple[Sequence[float], float, int, int]]] = None,
    rng_seed: int = 0,
    n_random: int = 20,
    centers: Optional[Sequence[Sequence[float]]] = None,
    radius: float = 1.0,
    t_scale: float = 1.0,
    tol: float = COMPLETENESS_TOL,
    options: Optional[FlowOptions] = None,
) -> CompletenessReport:
    """Test the pointwise completeness condition on sampled probes.

    Each probe (x, t, i, j) carries field j's value at x along field i's
    flow for time t and measures the distance of the carried vector from
    the family's span at the image point.  Probes whose flow exits are
    skipped and counted.  Explicit probes take precedence; otherwise
    probes are drawn near the given centers (or the seed of the family's
    first field's domain must be supplied via centers).
    """
    from .space import sample_near

    rng = random.Random(rng_seed)
    todo: list[tuple[list[float], float, int, int]] = []
    if probes is not None:
        for (x, t, i, j) in probes:
            todo.append(([float(v) for v in x], float(t), int(i), int(j)))
    else:
        if centers is None:
            raise OrbitError("randomized probing needs center points")
        pts: list[list[float]] = []
        for c in centers:
            pts.extend(sample_near(family.space, c, radius, n_random, rng))
        for x in pts:
            i = rng.randrange(len(family))
            j = rng.randrange(len(family))
            t = rng.uniform(-t_scale, t_scale)
            todo.append((x, t, i, j))

    records: list[dict] = []
    skipped = 0
    worst: Optional[dict] = None
    max_res = 0.0
    for (x, t, i, j) in todo:
        try:
            image, w = transport_vector(
                family.space, family.fields[i], t, family.fields[j], x, options
            )
        except (FlowDomainError, IntegrationError):
            skipped += 1
            continue
        residual = _span_residual(family.value_matrix(image), w)
        rec = {
            "point": [float(v) for v in x],
            "t": t,
            "flow_field": family.fields[i].label,
            "carried_field": family.fields[j].label,
            "image": [float(v) for v in image],
            "carried_vector": [float(v) for v in w],
            "residual": residual,
        }
        records.append(rec)
        if residual > max_res:
            max_res = residual
            if residual > tol:
                worst = rec
    return CompletenessReport(
        passed=worst is None,
        n_probes=len(records),
        skipped=skipped,
        max_residual=max_res,
        witness=worst,
        records=records,
    )

