"""Orbits of finite vector-field families.

A flow word is a finite program [(field_index, t1), ...]; replaying it from
a seed composes the individual flow maps left to right.  The orbit of a
family through a seed is everything reachable by such words.  Orbits are
explored breadth-first with random word extensions; every collected point
keeps its generating word so reachability claims stay reproducible.

Only explicit finite families are handled.  Questions that quantify over
all vector fields of the space are exercised through nested finite
families.

The completeness probe carries one field's value along another's flow
(``flow.transport_vector``) and measures how far the carried vector lies
from the family's span at the image, by a Gram-Schmidt on Python floats
(``_span_residual``), so its residuals do not depend on the BLAS build.
"""

from __future__ import annotations

import functools
import math
import random
import sys
from array import array
from collections import deque
from dataclasses import dataclass, field as dc_field
from itertools import product
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .expr import DomainError, _define, _norm, _pairwise_sum, compile_vector
from .field import RANK_TOL, TangentField, _unevaluable, _value_at
from .flow import (
    FlowDomainError, FlowOptions, IntegrationError, _flow_core, transport_vector,
)
from .space import BALL_TRIES, SubcartesianSpace, ball, sample

if TYPE_CHECKING:
    import numpy as np

MERGE_RADIUS = 1e-6  # orbit points closer than this are one point
COMPLETENESS_TOL = 1e-6
CHART_FD_STEP = 1e-6  # the central difference step of the chart's word map
_UNROLLED = 6  # the largest dimension whose merge test probes its 2^n cells inline; a cap on its source size

FlowWord = tuple[tuple[int, float], ...]


class OrbitError(ValueError):
    pass


class DependentBasisError(OrbitError):
    """Chart basis fields are linearly dependent at the basepoint."""


class ReachError(RuntimeError):
    """A word segment left the space before its full duration."""

    def __init__(self, message: str, segment: int, achieved_t: float, partial: list[list[float]]):
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

    def labels(self) -> list[str]:
        return [f.label for f in self.fields]

    @functools.cached_property
    def _values(self) -> Callable[[Sequence[float]], list[float]]:
        """Every field's components at a point, field after field in one list,
        compiled on the first evaluation into one function."""
        return compile_vector([c for f in self.fields for c in f.components])

    def value_matrix(self, point: Sequence[float]) -> np.ndarray:
        """Columns are the member fields evaluated at the point (n x m).  A
        field undefined, overflowing or not finite there is a ``FieldError``."""
        import numpy as np

        return np.column_stack([_value_at(f, point) for f in self.fields])

    def vanishes_at(self, point: Sequence[float]) -> bool:
        """Whether every field evaluates to exactly 0.0 at the point.  Then
        every flow of the family fixes the point, and its orbit is the point
        alone, a 0-dimensional manifold."""
        try:
            return all(v == 0.0 for v in self._values(point))
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
) -> list[float]:
    """Replay a flow word from x0; the empty word is the identity.  Each
    segment starts where the last one reached, a member of the space."""
    word = check_word(family, word)
    family.space.require_member(x0, "basepoint")
    opts = options or FlowOptions()
    y = [float(v) for v in x0]
    trail = [y]
    for k, (idx, t) in enumerate(word):
        try:
            y = _flow_core(family.space, family.fields[idx], opts)(y, t)
        except FlowDomainError as exc:
            trail.append(list(exc.partial_point))
            raise ReachError(
                f"segment {k} (field {family.fields[idx].label!r}) exits at "
                f"t={exc.achieved_t:.6g} before t={t:.6g}",
                segment=k,
                achieved_t=exc.achieved_t,
                partial=trail,
            ) from None
        trail.append(y)
    return y


def span_dimensions(
    family: FieldFamily, points: Sequence[Sequence[float]], tol_rank: float = RANK_TOL
) -> list[int]:
    """Numerical rank of the family's value matrix at each point.

    The values of all fields at a point come from one generated function
    (``FieldFamily._values``) and are packed into one flat buffer, and the
    (n x m) value matrices of all points go through one stacked SVD, which
    computes each matrix exactly as a call of its own would.  A field not
    finite at a point, or raising there, is ``value_matrix``'s error.
    """
    import numpy as np

    if not points:
        return []
    values = family._values
    vals = array("d")
    for p in points:
        try:
            vals.extend(values(p))
        except (DomainError, OverflowError):
            family.value_matrix(p)
    m = np.frombuffer(vals).reshape(len(points), len(family), family.space.ambient_dim)
    finite = np.isfinite(m).all(axis=(1, 2))
    if not finite.all():
        family.value_matrix(points[int(finite.argmin())])
    s = np.linalg.svd(m.transpose(0, 2, 1), compute_uv=False)
    top = s[:, :1]
    return np.where(top[:, 0] > 0.0, np.sum(s > tol_rank * top, axis=1), 0).tolist()


class _MergeIndex:
    """The collected points of an orbit and the merge test of ``sample_orbit``.

    ``collect(y)`` adds y to ``points`` and returns True, unless y merges:
    some collected point lies within ``MERGE_RADIUS`` by the row formula of
    ``np.linalg.norm(buf - y, axis=1)``, the square root of the pairwise sum
    of the squared differences, and the smallest distance is not NaN.
    ``cells`` maps the tuple of ``floor(x / side)``, a grid cell of side 4 *
    MERGE_RADIUS, to the indices of its points.  A point within the radius
    differs from the candidate by at most a quarter of the side per axis,
    and while every |x / side| is below 2^50 the rounding of the quotients
    adds at most 1/8 of a side.  So per axis it lies in the candidate's cell
    or in the neighbour on the side of the candidate's half of its cell, and
    the 2^n cells those choices span hold every point within the radius.
    ``collect``, generated per dimension, probes them over scalar locals and
    where all are empty, and no point is off the grid, collects y at once.
    Any other candidate, and each above ``_UNROLLED`` dimensions, takes the
    exact test of ``_collect_exact``.  Points off the grid, NaN ones among
    them, go to ``far``, which that test scans with the probed cells; a
    candidate off the grid scans all points.
    """

    side = 4.0 * MERGE_RADIUS

    def __init__(self, n: int):
        self.points: list[list[float]] = []
        self.cells: dict[tuple[int, ...], list[int]] = {}
        self.far: list[int] = []
        # collect holds the parts, not the index, so no cycle keeps them alive
        make = _define(_merge_source(n), "<merge>", floor=math.floor)
        self.collect: Callable[[list[float]], bool] = make(self.points, self.cells, self.far, _collect_exact)


def _collect_exact(points: list[list[float]], cells: dict, far: list[int], y: list[float],
                   key: Optional[tuple[int, ...]], low: tuple[int, ...]) -> bool:
    """``collect`` by distances, for y in the cell ``key`` (None off the
    grid) whose cells to probe have the lower corners ``low``."""
    if not any(v != v for j in far for v in points[j]):  # a NaN point makes every smallest distance NaN
        if key is None:
            near: Sequence[int] = range(len(points))
        else:
            near = list(far)
            for c in product(*((k, k + 1) for k in low)):
                near += cells.get(c, ())
        best = math.inf
        for j in near:
            p = points[j]
            if abs(p[0] - y[0]) > 2.0 * MERGE_RADIUS:  # then farther than the radius
                continue
            d = _norm([a - b for a, b in zip(p, y)])
            if d != d:  # the smallest distance is NaN: no merge
                break
            best = min(best, d)
        else:
            if best <= MERGE_RADIUS:
                return False
    if key is None:
        far.append(len(points))
    else:
        cells.setdefault(key, []).append(len(points))
    points.append(y)
    return True


def _merge_source(n: int) -> str:
    """Source of ``_f(points, cells, far, exact)``, which returns the
    ``collect`` of a ``_MergeIndex`` of dimension n over those parts."""
    ix = range(n)

    def tup(stems) -> str:  # the trailing comma makes a tuple of one name too
        return "(" + ", ".join(f"{s}{i}" for i, s in zip(ix, stems)) + ",)"

    grid = " and ".join(f"abs(q{i}) < {2.0**50!r}" for i in ix)
    body = [f"{tup('y' * n)} = y", *(f"q{i} = y{i} / {_MergeIndex.side!r}" for i in ix),
            f"if not ({grid}):", "    return exact(points, cells, far, y, None, ())"]
    for i in ix:
        body += [f"k{i} = floor(q{i})", f"l{i} = k{i} if q{i} - k{i} >= 0.5 else k{i} - 1"]
    if n <= _UNROLLED:
        probes = " or ".join(f"{tup(c)} in cells" for c in product("lh", repeat=n))
        body += [*(f"h{i} = l{i} + 1" for i in ix), f"if not (far or {probes}):",
                 f"    cells[{tup('k' * n)}] = [len(points)]", "    points.append(y)", "    return True"]
    body.append(f"return exact(points, cells, far, y, {tup('k' * n)}, {tup('l' * n)})")
    return ("def _f(points, cells, far, exact):\n    def collect(y):\n"
            + "".join(f"        {line}\n" for line in body) + "    return collect\n")


def _check_duration_scale(scale: float, what: str) -> None:
    """Reject a scale whose duration draw ``uniform(-scale, scale)``, which
    computes ``a + (b - a) * random()``, has a width that overflows: past
    half the largest float every duration drawn would be inf or NaN."""
    if not math.isfinite(2 * scale):
        raise OrbitError(f"{what} {scale!r} must be at most {sys.float_info.max / 2!r}, half the largest "
                         f"float: above it the width of the duration draw from [-{scale!r}, {scale!r}] overflows")


@dataclass
class OrbitSample:
    """A reachable point cloud with the words that produced it."""

    seed: list[float]
    points: list[list[float]]
    words: list[FlowWord]
    est_dimension: int
    dimensions: list[int] = dc_field(default_factory=list)  # span dimension per point
    diagnostics: dict = dc_field(default_factory=dict)


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
    if budget < 1:
        raise OrbitError(f"budget must be at least 1, got {budget}")
    _check_duration_scale(step_scale, "step scale")
    space = family.space
    space.require_member(x0, "seed")
    opts = options or FlowOptions()
    flows = [_flow_core(space, f, opts) for f in family.fields]
    rng = random.Random(rng_seed)
    seed = [float(v) for v in x0]
    index = _MergeIndex(len(seed))
    collect = index.collect
    collect(seed)
    points = index.points
    words: list[FlowWord] = [()]
    frontier: deque[int] = deque([0])
    attempts = 0
    merged = 0
    failures = 0
    max_attempts = 40 * budget
    fixed = family.vanishes_at(seed)

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
            if not collect(y):
                merged += 1
                continue
            words.append(w)
            frontier.append(len(points) - 1)
            accepted_any = True
        # a barren expansion must not starve the frontier: retry the point
        # with fresh durations while the attempt cap allows
        if not accepted_any and len(points) < budget:
            frontier.append(i)

    dims = span_dimensions(family, points, tol_rank)
    diagnostics = {
        "attempts": attempts,
        "merged": merged,
        "flow_failures": failures,
        "span_dimensions": sorted(set(dims)),
        "step_scale": step_scale,
        "merge_radius": MERGE_RADIUS,
    }
    if fixed:
        diagnostics["fixed_point"] = True
    return OrbitSample(
        seed=list(seed),
        points=points,
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
    basepoint: list[float]
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
    """Build the chart differential at T=0 for the chosen basis fields.  A
    basis field undefined, overflowing or not finite at the basepoint is a
    ``FieldError`` naming it, not a rank read off a NaN matrix."""
    import numpy as np

    basis = tuple(int(b) for b in basis)
    if not basis:
        raise OrbitError("the chart basis is empty")
    for k, b in enumerate(basis):
        if not 0 <= b < len(family):
            raise OrbitError(f"basis index {b} out of range for family of {len(family)}")
        if b in basis[:k]:
            raise OrbitError(f"basis index {b} is listed twice")
    family.space.require_member(x, "basepoint")
    x = [float(v) for v in x]
    jac = np.column_stack([_value_at(family.fields[b], x) for b in basis])
    s = np.linalg.svd(jac, compute_uv=False)
    rank = 0 if s[0] <= 0.0 else int(np.sum(s > tol_rank * s[0]))
    if rank < len(basis):
        raise DependentBasisError(
            f"basis fields {[family.fields[b].label for b in basis]} span only "
            f"rank {rank} at {x}"
        )

    opts = options or FlowOptions()
    fd_cols = []
    for b in basis:
        core = _flow_core(family.space, family.fields[b], opts)
        plus, minus = core(x, CHART_FD_STEP), core(x, -CHART_FD_STEP)
        fd_cols.append([(p - m) / (2.0 * CHART_FD_STEP) for p, m in zip(plus, minus)])
    fd_jac = np.column_stack(fd_cols)
    agreement = float(np.max(np.abs(fd_jac - jac)))
    return Chart(
        basis=basis,
        basepoint=x,
        jacobian0=jac,
        fd_jacobian=fd_jac,
        agreement=agreement,
        rank=rank,
        singular_values=[float(v) for v in s],
    )


@dataclass
class DimensionReport:
    seed: list[float]
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
    passed: Optional[bool]  # None where no probe ran, so nothing was tested
    n_probes: int
    skipped: int
    max_residual: float
    witness: Optional[dict]


def _span_residual(columns: list[list[float]], w: list[float]) -> float:
    """Distance from w to the span of the columns, lists of finite floats;
    inf or NaN where the arithmetic overflows.

    Modified Gram-Schmidt on Python floats, each sum a ``_pairwise_sum``, so
    the residual is the same on every machine: each column, less its
    projections on the directions kept before it, is a new direction unless
    its norm is at most eps * max(m, n) times the largest column norm, the
    cutoff ``lstsq`` puts on singular values; w, less its projections on the
    directions, is the residual.  A column whose largest magnitude exceeds 1
    is divided by it first, which leaves the span as it is: unscaled, a unit
    column beside one of norm 4e15 would count as zero; scaled, a column
    counts as zero only where it is that small both beside the others and
    beside 1, as a field value of 3e-16 is at a point the flow put at the
    origin up to rounding.
    """
    cols = []
    for c in columns:
        top = max(map(abs, c))
        cols.append([v / top for v in c] if top > 1.0 else c)
    cutoff = sys.float_info.epsilon * max(len(w), len(cols)) * max(map(_norm, cols))
    basis: list[list[float]] = []
    for c in cols:
        for q in basis:
            d = _pairwise_sum([a * b for a, b in zip(q, c)])
            c = [a - d * b for a, b in zip(c, q)]
        r = _norm(c)
        if r > cutoff:
            basis.append([a / r for a in c])
    for q in basis:
        d = _pairwise_sum([a * b for a, b in zip(q, w)])
        w = [a - d * b for a, b in zip(w, q)]
    return _norm(w)


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
    skipped and counted; if all are, ``passed`` is None.  Explicit probes
    take precedence; otherwise probes are drawn near the given centers (or
    the seed of the family's first field's domain must be given as centers).
    """
    rng = random.Random(rng_seed)
    todo: list[tuple[list[float], float, int, int]] = []
    if probes is not None:
        for (x, t, i, j) in probes:
            todo.append(([float(v) for v in x], float(t), int(i), int(j)))
    else:
        if centers is None:
            raise OrbitError("randomized probing needs center points")
        _check_duration_scale(t_scale, "t scale")
        pts: list[list[float]] = []
        for c in centers:
            pts.extend(sample(family.space, n_random, ball(rng, c, radius), BALL_TRIES))
        for x in pts:
            i = rng.randrange(len(family))
            j = rng.randrange(len(family))
            t = rng.uniform(-t_scale, t_scale)
            todo.append((x, t, i, j))

    n_probes = 0
    skipped = 0
    worst: Optional[dict] = None
    max_res = 0.0
    for (x, t, i, j) in todo:
        try:
            image, w = transport_vector(family.space, family.fields[i], t, x, family.fields[j].value(x), options)
        except (FlowDomainError, IntegrationError):
            skipped += 1
            continue
        except (DomainError, OverflowError) as exc:  # the carried field at the probe point
            raise _unevaluable(family.fields[j], x, exc) from None
        residual = _span_residual([_value_at(f, image) for f in family.fields], w)
        if not math.isfinite(residual):
            raise OrbitError(f"the span residual of field {family.fields[j].label!r} carried along "
                             f"{family.fields[i].label!r} from {x} is not finite at the image {image}")
        rec = {
            "point": x,
            "t": t,
            "flow_field": family.fields[i].label,
            "carried_field": family.fields[j].label,
            "image": image,
            "carried_vector": w,
            "residual": residual,
        }
        n_probes += 1
        if residual > max_res:
            max_res = residual
            if residual > tol:
                worst = rec
    return CompletenessReport(
        passed=None if n_probes == 0 else worst is None,
        n_probes=n_probes,
        skipped=skipped,
        max_residual=max_res,
        witness=worst,
    )

