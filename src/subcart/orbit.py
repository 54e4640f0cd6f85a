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
from collections import deque
from dataclasses import dataclass
from itertools import product
from typing import Callable, Iterable, Optional, Sequence

from .dense import _MAGNITUDES, _rank, _rank_of, _singular_values
from .expr import DomainError, _define, _norm, _pairwise_sum, compile_vector
from .field import RANK_TOL, TangentField, _unevaluable, _value_at
from .flow import (
    FlowDomainError, FlowOptions, IntegrationError, _flow_core, transport_vector,
)
from .report import worst_residual
from .space import BALL_TRIES, SubcartesianSpace, ball, sample

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
    """Numerical rank of the family's value matrix at each point: the number
    of its singular values above ``tol_rank`` times the largest, 0 where all
    are 0.

    The values of all fields at a point come from one generated function
    (``FieldFamily._values``), and the rank from one kernel generated per
    shape (``_rank_source``) on Python floats.  A field not finite at a
    point, or raising there, is the ``FieldError`` of ``_value_at``.
    """
    values = family._values
    rank = _rank_kernel(family.space.ambient_dim, len(family))
    dims = []
    for p in points:
        try:
            d = rank(values(p), tol_rank)
        except (DomainError, OverflowError):
            d = -1
        if d < 0:  # a field undefined, overflowing or not finite at p
            d = rank([v for f in family.fields for v in _value_at(f, p)], tol_rank)
        dims.append(d)
    return dims


@functools.cache
def _rank_kernel(n: int, m: int) -> Callable[[list[float], float], int]:
    """The rank of n x m value matrices (``_rank_source``), generated on
    first use and kept for the process."""
    return _define(_rank_source(n, m), f"<rank n={n} m={m}>", sqrt=math.sqrt, copysign=math.copysign,
                   rank=_rank, jacobi=_singular_values, rank_of=_rank_of)


def _rank_source(n: int, m: int) -> str:
    """Source of ``_f(v, tol)``, the rank of the n x m matrix whose columns
    are the m consecutive n-vectors of the flat list v, or -1 where an entry
    is not finite.

    The k = min(n, m) columns of the matrix, or of its transpose, are
    scalar locals.  Where their sum of squares is out of the squares of
    ``_MAGNITUDES``, ``dense._rank`` takes the rank, -1 where an entry is
    not finite.  One column's rank is 1, or 0 where tol is 1 or more.  Two
    columns take one closed-form Jacobi rotation, after which their norms
    are the singular values.  Three or more take a modified Gram-Schmidt
    that settles rank k - 1 where it is certain:
    s_k <= |R_kk| + d, s_(k-1) >= s_(k-1) of the leading k - 1 columns >=
    the product of their R_ii over their Frobenius norm to the power k - 2,
    less d, and cmax <= s_1 <= |A|_F, with cmax the largest column norm and
    d a multiple of eps |A|_F beyond Gram-Schmidt's backward error.
    Everywhere else, ``_singular_values`` gives the singular values.
    """
    k, size = min(n, m), max(n, m)
    # entry i of column c is a{c}_{i}; the columns are the fields' values,
    # or where fields outnumber coordinates, the rows
    names = [f"a{j}_{i}" if m <= n else f"a{i}_{j}" for j in range(m) for i in range(n)]

    def col(c) -> list[str]:
        return [f"a{c}_{i}" for i in range(size)]

    columns = f"[{', '.join('[' + ', '.join(col(c)) + ']' for c in range(k))}]"

    def dot(x: list[str], y: list[str]) -> str:  # the pairwise sum, without adding its first term to 0.0
        terms = [f"{a} * {b}" for a, b in zip(x, y)]
        return _pairwise_sum(terms, lambda s, t: t if s is None else f"({s} + {t})", None)

    body = [f"{', '.join(names)}, = v", *(f"p{c} = {dot(col(c), col(c))}" for c in range(k)),
            f"f2 = {' + '.join(f'p{c}' for c in range(k))}",
            f"if not ({_MAGNITUDES[0] ** 2!r} < f2 < {_MAGNITUDES[1] ** 2!r}):",
            f"    return rank({columns}, tol)"]
    if k == 1:
        body += ["s1 = sqrt(p0)", "return int(s1 > tol * s1)"]
    elif k == 2:
        rotated = [f"c * {a} - s * {b}" for a, b in zip(col(0), col(1))] + [
            f"s * {a} + c * {b}" for a, b in zip(col(0), col(1))]
        body += [f"r = {dot(col(0), col(1))}", "if r != 0.0:",
                 *("    " + line for line in [
                     "z = (p1 - p0) / (r + r)", "t = copysign(1.0, z) / (abs(z) + sqrt(1.0 + z * z))",
                     "c = 1.0 / sqrt(1.0 + t * t)", "s = c * t",
                     f"{', '.join(col(0) + col(1))} = {', '.join(rotated)}",
                     f"p0 = {dot(col(0), col(0))}", f"p1 = {dot(col(1), col(1))}"]),
                 "if p0 < p1:", "    p0, p1 = p1, p0",
                 "s1 = sqrt(p0)", "return (s1 > tol * s1) + (sqrt(p1) > tol * s1)"]
    else:
        # u{c}_{i}: the unit directions of Gram-Schmidt; w_{i}: the column less its projections
        mgs = []
        for c in range(k):
            w = col(c)
            for b in range(c):
                u = [f"u{b}_{i}" for i in range(size)]
                mgs += [f"x = {dot(u, w)}", f"{', '.join(f'w_{i}' for i in range(size))}, = "
                        + ", ".join(f"{wi} - x * {ui}" for wi, ui in zip(w, u))]
                w = [f"w_{i}" for i in range(size)]
            mgs.append(f"r{c} = sqrt({dot(w, w) if c else 'p0'})")
            if c < k - 1:
                mgs.append(f"{', '.join(f'u{c}_{i}' for i in range(size))}, = "
                           + ", ".join(f"{wi} / r{c}" for wi in w))
        slack = 64 * k * size * sys.float_info.epsilon
        low = " * ".join(["g"] + [f"(r{c} / g)" for c in range(k - 1)])
        body += ["try:", *("    " + line for line in mgs + [
            f"g = sqrt({' + '.join(f'p{c}' for c in range(k - 1))})", f"d = sqrt(f2) * {slack!r}",
            f"if r{k - 1} + d <= tol * sqrt(max({', '.join(f'p{c}' for c in range(k))})) "
            f"and {low} - d > tol * sqrt(f2):", f"    return {k - 1}"]),
            "except ZeroDivisionError:  # a column in the span of those before it", "    pass",
            f"return rank_of(jacobi({columns}), tol)"]
    return "def _f(v, tol):\n" + "".join(f"    {line}\n" for line in body)


class _MergeIndex:
    """Points on a grid of cells, and whether a point lies within ``radius``
    of one: the merge test of ``sample_orbit`` at ``MERGE_RADIUS``, and the
    coverage count of ``strata.orbit_vs_strata`` at its cover radius.

    A point lies within the radius of y where its distance, by the row
    formula of ``np.linalg.norm(buf - y, axis=1)``, the square root of the
    pairwise sum of the squared differences (``expr._norm``), is at most the
    radius and the smallest distance is not NaN.  ``collect(y)`` adds y to
    ``points`` and returns True, unless such a point merges it; ``add(y)``
    adds y without the test, and ``near(y)`` makes it without adding y.
    ``cells`` maps the tuple of ``floor(x / side)`` to the indices of its
    points.  While every |x / side| is below 2^50 the rounding of the
    quotients moves a point by at most 1/8 of a side against another, so
    the cells within radius / side + 1/8 of y's quotients per axis hold
    every point within the radius; ``near`` probes those within
    radius / side + 1/4, which also covers the rounding of that bound.
    ``collect`` needs cells of side 4 * radius, the default: then per axis a
    point within the radius lies in y's cell or in the neighbour on the side
    of y's half of its cell, and the 2^n cells those choices span hold every
    such point.  ``collect``, generated per dimension, probes them over
    scalar locals and where all are empty, and no point is off the grid,
    collects y at once.  Any other candidate, and each above ``_UNROLLED``
    dimensions, takes the exact test of ``_near``.  Points off the grid, NaN
    ones among them, go to ``far``, which that test scans with the probed
    cells; a candidate off the grid scans all points.  An index with a side
    of its own, finer cells for a radius that is large against the
    points' spacing, has no ``collect``.
    """

    def __init__(self, n: int, radius: float = MERGE_RADIUS, side: Optional[float] = None):
        self.radius = radius
        self.side = 4.0 * radius if side is None else side
        self.points: list[list[float]] = []
        self.cells: dict[tuple[int, ...], list[int]] = {}
        self.far: list[int] = []
        if side is None:
            # collect holds the parts, not the index, so no cycle keeps them alive
            make = _define(_merge_source(n), "<merge>", floor=math.floor)
            self.collect: Callable[[list[float]], bool] = make(self.points, self.cells, self.far,
                                                               _collect_exact, radius)

    def _quotients(self, y: list[float]) -> Optional[list[float]]:
        """y / side per axis, or None off the grid."""
        q = [v / self.side for v in y]
        return q if all(map((2.0**50).__gt__, map(abs, q))) else None

    def add(self, y: list[float]) -> None:
        q = self._quotients(y)
        _insert(self.points, self.cells, self.far, y, None if q is None else tuple(map(math.floor, q)))

    def near(self, y: list[float]) -> bool:
        q = self._quotients(y)
        reach = self.radius / self.side + 0.25
        probes = None if q is None else product(
            *(range(math.floor(v - reach), math.floor(v + reach) + 1) for v in q))
        return _near(self.points, self.cells, self.far, y, probes, self.radius)


def _near(points: list[list[float]], cells: dict, far: list[int], y: list[float],
          probes: Optional[Iterable[tuple[int, ...]]], radius: float) -> bool:
    """Whether a point lies within the radius of y, among those of the
    cells ``probes`` and ``far``, or all points where ``probes`` is None (y
    off the grid), and the smallest distance is not NaN."""
    if any(v != v for j in far for v in points[j]):  # a NaN point makes every smallest distance NaN
        return False
    if probes is None:
        near: Sequence[int] = range(len(points))
    else:
        near = list(far)
        for c in probes:
            near += cells.get(c, ())
    best = math.inf
    for j in near:
        p = points[j]
        if abs(p[0] - y[0]) > 2.0 * radius:  # then farther than the radius
            continue
        d = _norm([a - b for a, b in zip(p, y)])
        if d <= radius and probes is not None:  # y on the grid is finite, so no distance is NaN
            return True
        if d != d:  # the smallest distance is NaN
            return False
        best = min(best, d)
    return best <= radius


def _insert(points: list[list[float]], cells: dict, far: list[int], y: list[float],
            key: Optional[tuple[int, ...]]) -> None:
    if key is None:
        far.append(len(points))
    else:
        cells.setdefault(key, []).append(len(points))
    points.append(y)


def _collect_exact(points: list[list[float]], cells: dict, far: list[int], y: list[float],
                   key: Optional[tuple[int, ...]], low: tuple[int, ...], radius: float) -> bool:
    """``collect`` by the distances of ``_near``, for y in the cell ``key``
    (None off the grid) whose cells to probe have the lower corners ``low``."""
    if _near(points, cells, far, y, None if key is None else product(*((k, k + 1) for k in low)), radius):
        return False
    _insert(points, cells, far, y, key)
    return True


def _merge_source(n: int) -> str:
    """Source of ``_f(points, cells, far, exact, radius)``, which returns the
    ``collect`` of a ``_MergeIndex`` of dimension n over those parts."""
    ix = range(n)

    def tup(stems) -> str:  # the trailing comma makes a tuple of one name too
        return "(" + ", ".join(f"{s}{i}" for i, s in zip(ix, stems)) + ",)"

    grid = " and ".join(f"abs(q{i}) < {2.0**50!r}" for i in ix)
    body = [f"{tup('y' * n)} = y", *(f"q{i} = y{i} / side" for i in ix),
            f"if not ({grid}):", "    return exact(points, cells, far, y, None, (), radius)"]
    for i in ix:
        body += [f"k{i} = floor(q{i})", f"l{i} = k{i} if q{i} - k{i} >= 0.5 else k{i} - 1"]
    if n <= _UNROLLED:
        probes = " or ".join(f"{tup(c)} in cells" for c in product("lh", repeat=n))
        body += [*(f"h{i} = l{i} + 1" for i in ix), f"if not (far or {probes}):",
                 f"    cells[{tup('k' * n)}] = [len(points)]", "    points.append(y)", "    return True"]
    body.append(f"return exact(points, cells, far, y, {tup('k' * n)}, {tup('l' * n)}, radius)")
    return ("def _f(points, cells, far, exact, radius):\n    side = 4.0 * radius\n    def collect(y):\n"
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
    dimensions: list[int]  # span dimension per point
    diagnostics: dict


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

    jacobian0 stacks the basis field values at the basepoint as columns;
    fd_jacobian differentiates the word map T -> flows(T)(basepoint) at T=0
    through the integrator.  Both are lists of rows of Python floats.  Their
    agreement is the checkable content of the chart construction: both are
    the derivative of the same map, computed by independent routes.  The
    singular values of jacobian0, largest first, are the one-sided Jacobi
    ones of ``_singular_values``.
    """

    basis: tuple[int, ...]
    basepoint: list[float]
    jacobian0: list[list[float]]
    fd_jacobian: list[list[float]]
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
    ``FieldError`` naming it, not a rank read off a NaN matrix; a singular
    value past the largest float is an ``OrbitError``."""
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
    cols = [_value_at(family.fields[b], x) for b in basis]
    try:
        s = _singular_values(cols)
    except OverflowError:  # scaled back, a value past the largest float
        raise OrbitError(f"a singular value of the basis fields at {x} is beyond the largest float") from None
    rank = _rank_of(s, tol_rank)
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
    return Chart(
        basis=basis,
        basepoint=x,
        jacobian0=[list(row) for row in zip(*cols)],
        fd_jacobian=[list(row) for row in zip(*fd_cols)],
        agreement=worst_residual(abs(f - j) for fc, c in zip(fd_cols, cols) for f, j in zip(fc, c)),
        rank=rank,
        singular_values=s,
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

