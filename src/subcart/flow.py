"""Maximal integral curves clipped to a constrained subset.

The integrator is an adaptive Dormand-Prince 5(4) pair with a quartic dense
interpolant.  It runs on Python float lists, which cost far less than small
numpy arrays for the state sizes here, and computes each component with the
operations, in the order, of the whole-array numpy expressions, summing the
error norm in numpy's pairwise order, so its results are bit-identical to a
numpy stepper.  Membership in the space is monitored along every accepted
step; on the first violation the exit time is located by bisection on the
dense output down to 1e-12 in time.  Domain-guard failures inside the
derivative (logs, roots, quotients) are treated as leaving the chart: the
step is retried at half size down to 1e-14, then the curve ends.

An exit comes in two flavours.  When the limit point still satisfies the
membership predicate under a relaxed tolerance the interval endpoint is
attained inside the set (the curve ran into a closed face), otherwise the
interval is open on that side.  Attained endpoints are exactly what the
vector-field classifier looks for on locally closed spaces: a derivation
whose curve stops at an interior-reachable member point admits no local
one-parameter group there.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .field import TangentField
from .expr import DomainError
from .space import SubcartesianSpace, sample_near

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
DEFAULT_HORIZON = 10.0
BISECT_TOL = 1e-12
MIN_STEP = 1e-14
ATTAINED_FACTOR = 10.0


class IntegrationError(RuntimeError):
    """Numerical failure of the stepper itself (not a domain exit)."""

    def __init__(self, message: str, t: Optional[float] = None, samples=None):
        super().__init__(message)
        self.t = t
        self.samples = samples or []


class FlowDomainError(RuntimeError):
    """Requested flow time lies outside the maximal interval."""

    def __init__(self, message: str, achieved_t: float, partial_point: np.ndarray, exit_witness):
        super().__init__(message)
        self.achieved_t = achieved_t
        self.partial_point = partial_point
        self.exit_witness = exit_witness


@dataclass(frozen=True)
class FlowOptions:
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    horizon: float = DEFAULT_HORIZON
    bisect_tol: float = BISECT_TOL
    min_step: float = MIN_STEP
    max_steps: int = 1_000_000
    attained_factor: float = ATTAINED_FACTOR
    interior_checks: int = 3
    max_sample_dt: float = 0.1


@dataclass(frozen=True)
class ExitWitness:
    """Where and how a curve left the set.

    ``point`` is the first excluded point found by bisection, ``attained``
    records whether the exit limit still satisfies membership under a
    relaxed tolerance (a closed, attained endpoint).  ``guard`` marks exits
    forced by domain-guard failures rather than constraint violations.
    """

    t: float
    point: tuple[float, ...]
    attained: bool
    guard: bool = False
    cell_index: Optional[int] = None
    constraint_index: Optional[int] = None
    constraint: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "point": list(self.point),
            "attained": self.attained,
            "guard": self.guard,
            "cell_index": self.cell_index,
            "constraint_index": self.constraint_index,
            "constraint": self.constraint,
        }


@dataclass
class IntegralCurve:
    """One maximal (horizon-clipped) integral curve through a basepoint."""

    basepoint: np.ndarray
    field_label: str
    t_minus: float
    t_plus: float
    clipped_minus: bool
    clipped_plus: bool
    samples: list[tuple[float, np.ndarray]]
    exit_minus: Optional[ExitWitness] = None
    exit_plus: Optional[ExitWitness] = None

    def interval_radius(self) -> float:
        return min(-self.t_minus, self.t_plus)

    def to_json_dict(self) -> dict:
        return {
            "basepoint": [float(v) for v in self.basepoint],
            "field": self.field_label,
            "t_minus": self.t_minus,
            "t_plus": self.t_plus,
            "clipped_minus": self.clipped_minus,
            "clipped_plus": self.clipped_plus,
            "n_samples": len(self.samples),
            "exit_minus": self.exit_minus.to_json_dict() if self.exit_minus else None,
            "exit_plus": self.exit_plus.to_json_dict() if self.exit_plus else None,
        }


# Dormand-Prince 5(4) tableau with the classic quartic dense interpolant.

_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)


def _pairwise_sum(a: list[float]) -> float:
    """Sum of a float list in numpy's float64 pairwise order.

    Below 8 terms the sum is sequential; up to 128 it runs eight interleaved
    partial sums combined as a tree, then adds the tail; beyond that it
    splits at a multiple of 8 near the middle and recurses.  The builtin
    ``sum`` is no substitute: from Python 3.12 it compensates float sums.
    """
    n = len(a)
    if n < 8:
        s = 0.0
        for x in a:
            s += x
        return s
    if n <= 128:
        r = a[:8]
        m = n - n % 8
        for i in range(8, m, 8):
            r = [p + q for p, q in zip(r, a[i : i + 8])]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[m:]:
            s += x
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(a[:half]) + _pairwise_sum(a[half:])


def _mean(a: list[float]) -> float:
    """``np.mean`` of a float list, bit for bit: the reduction starts at 0.0."""
    return (0.0 + _pairwise_sum(a)) / len(a)


def _rms(v: list[float]) -> float:
    """Root mean square, equal to ``math.sqrt(np.mean(np.square(v)))`` bit for bit."""
    return math.sqrt(_mean([x * x for x in v]))


def _initial_step(y: list[float], f0: list[float], rtol: float, atol: float, limit: float) -> float:
    sk = [atol + rtol * abs(v) for v in y]
    d0 = _rms([v / s for v, s in zip(y, sk)])
    d1 = _rms([v / s for v, s in zip(f0, sk)])
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return min(h0, limit) if limit > 0 else h0


class _Samples:
    """Recorded (t, point) pairs, the points packed into one float buffer."""

    def __init__(self, t0: float, p0: list[float]):
        self.t = [t0]
        self.x = array("d", p0)

    def add(self, t: float, p: list[float]) -> None:
        self.t.append(t)
        self.x.extend(p)

    def pairs(self) -> list[tuple[float, np.ndarray]]:
        return list(zip(self.t, np.frombuffer(self.x).reshape(len(self.t), -1)))


@dataclass
class _DriveResult:
    t_end: float
    y_end: list[float]
    reached: bool
    samples: _Samples
    exit_witness: Optional[ExitWitness]
    n_steps: int = 0


def _drive(
    f: Callable[[list[float]], list[float]],
    x0: list[float],
    target: float,
    opts: FlowOptions,
    member: Optional[Callable[[list[float]], bool]],
    member_relaxed: Optional[Callable[[list[float]], bool]],
    witness_info: Optional[Callable[[list[float], list[float]], tuple]],
) -> _DriveResult:
    """Integrate from x0 toward signed time ``target`` with membership exits.

    Every vector is a list of floats, and every component is computed with
    the operations, in the order, of the whole-array expressions in the
    comments, including the products with the tableau's zeros.  Sums of
    stage derivatives start from 0.0; the error norm sums like ``np.mean``.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), \
        (a61, a62, a63, a64, a65), (a71, a72, a73, a74, a75, a76) = _A[1:]
    e1, e2, e3, e4, e5, e6, e7 = _E
    d1, d2, d3, d4, d5, d6, d7 = _D
    rtol, atol = opts.rtol, opts.atol
    direction = 1.0 if target >= 0 else -1.0
    span = abs(target)
    y = list(x0)
    t = 0.0
    samples = _Samples(0.0, y)
    if span == 0.0:
        return _DriveResult(0.0, y, True, samples, None)
    try:
        k1 = f(y)
    except DomainError:
        raise IntegrationError(f"field undefined at basepoint {y}") from None
    h = direction * _initial_step(y, k1, rtol, atol, span)
    n_steps = 0

    def guard_exit() -> _DriveResult:
        witness = ExitWitness(t=t, point=tuple(y), attained=True, guard=True)
        return _DriveResult(t, y, False, samples, witness, n_steps)

    while True:
        n_steps += 1
        if n_steps > opts.max_steps:
            raise IntegrationError(f"exceeded {opts.max_steps} steps at t={t}", t=t,
                                   samples=samples.pairs())
        landing = False
        remaining = target - t
        if abs(h) >= abs(remaining):
            h = remaining
            landing = True

        # Stages y + h * sum_j A[i][j] * k[j]; a domain-guard failure anywhere
        # in the step means the step wandered out of the chart, so retry shorter.
        try:
            k2 = f([a + h * (0.0 + a21 * c1) for a, c1 in zip(y, k1)])
            k3 = f([a + h * (0.0 + a31 * c1 + a32 * c2) for a, c1, c2 in zip(y, k1, k2)])
            k4 = f([a + h * (0.0 + a41 * c1 + a42 * c2 + a43 * c3)
                    for a, c1, c2, c3 in zip(y, k1, k2, k3)])
            k5 = f([a + h * (0.0 + a51 * c1 + a52 * c2 + a53 * c3 + a54 * c4)
                    for a, c1, c2, c3, c4 in zip(y, k1, k2, k3, k4)])
            k6 = f([a + h * (0.0 + a61 * c1 + a62 * c2 + a63 * c3 + a64 * c4 + a65 * c5)
                    for a, c1, c2, c3, c4, c5 in zip(y, k1, k2, k3, k4, k5)])
            # the stage 7 node is the step endpoint
            ynew = [a + h * (0.0 + a71 * c1 + a72 * c2 + a73 * c3 + a74 * c4 + a75 * c5 + a76 * c6)
                    for a, c1, c2, c3, c4, c5, c6 in zip(y, k1, k2, k3, k4, k5, k6)]
            k7 = f(ynew)
        except DomainError:
            h *= 0.5
            if abs(h) < opts.min_step:
                return guard_exit()
            continue

        # err_vec / sk with err_vec = h * sum_i E[i] * k[i] and
        # sk = atol + rtol * np.maximum(|y|, |ynew|), which propagates NaN
        scaled = []
        for a, b, c1, c2, c3, c4, c5, c6, c7 in zip(y, ynew, k1, k2, k3, k4, k5, k6, k7):
            ya, yb = abs(a), abs(b)
            scaled.append(h * (0.0 + e1 * c1 + e2 * c2 + e3 * c3 + e4 * c4 + e5 * c5 + e6 * c6 + e7 * c7)
                          / (atol + rtol * (ya if ya > yb or ya != ya else yb)))
        err = _rms(scaled)
        if err > 1.0:
            h *= max(0.2, 0.9 * err**-0.2)
            if abs(h) < opts.min_step:
                raise IntegrationError(f"step size underflow at t={t}", t=t, samples=samples.pairs())
            continue

        # Per component: y, ydiff = ynew - y, bspl = h * k1 - ydiff,
        # r4 = ydiff - h * k7 - bspl and r5 = h * sum_i D[i] * k[i].
        coeffs = []
        for a, b, c1, c2, c3, c4, c5, c6, c7 in zip(y, ynew, k1, k2, k3, k4, k5, k6, k7):
            ydiff = b - a
            bspl = h * c1 - ydiff
            coeffs.append((a, ydiff, bspl, ydiff - h * c7 - bspl,
                           h * (0.0 + d1 * c1 + d2 * c2 + d3 * c3 + d4 * c4 + d5 * c5 + d6 * c6 + d7 * c7)))

        def dense(theta: float) -> list[float]:
            u = 1.0 - theta
            return [a + theta * (ydiff + u * (bspl + theta * (r4 + u * r5)))
                    for a, ydiff, bspl, r4, r5 in coeffs]

        # The scan grid doubles as the sample grid, keeping recorded sample
        # spacing at or below max_sample_dt.
        n_sub = max(opts.interior_checks + 1, math.ceil(abs(h) / opts.max_sample_dt))
        theta_out = None
        theta_in = 0.0
        passed: list[tuple[float, list[float]]] = []
        for i in range(1, n_sub + 1):
            th = i / n_sub
            p = dense(th)
            if member is not None and not member(p):
                theta_out = th
                break
            theta_in = th
            passed.append((th, p))
        if theta_out is None:
            for th, p in passed:
                tt = target if (landing and th == 1.0) else t + th * h
                samples.add(tt, p)
            t = target if landing else t + h
            y = ynew
            k1 = k7
            if landing:
                return _DriveResult(t, y, True, samples, None, n_steps)
            grow = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.2)
            h *= max(0.2, grow)
            continue

        # Exit inside this step: bisect membership on the dense output.
        for th, p in passed:
            samples.add(t + th * h, p)
        while (theta_out - theta_in) * abs(h) > opts.bisect_tol:
            mid = 0.5 * (theta_in + theta_out)
            if member(dense(mid)):
                theta_in = mid
            else:
                theta_out = mid
        p_in = dense(theta_in)
        p_out = dense(theta_out)
        attained = bool(member_relaxed(p_out)) if member_relaxed is not None else False
        info = witness_info(p_in, p_out) if witness_info is not None else (None, None, None)
        witness = ExitWitness(
            t=t + theta_out * h,
            point=tuple(p_out),
            attained=attained,
            cell_index=info[0],
            constraint_index=info[1],
            constraint=info[2],
        )
        t_end = t + theta_in * h
        if samples.t[-1] != t_end:
            samples.add(t_end, p_in)
        return _DriveResult(t_end, p_in, False, samples, witness, n_steps)


def _membership(space: Optional[SubcartesianSpace], opts: FlowOptions, n_head: Optional[int] = None):
    if space is None:
        return None, None, None

    def member(p: list[float]) -> bool:
        return space.contains(p[:n_head] if n_head is not None else p)

    def member_relaxed(p: list[float]) -> bool:
        q = p[:n_head] if n_head is not None else p
        return space.contains(q, tol=space.tol * opts.attained_factor)

    def witness_info(p_in: list[float], p_out: list[float]) -> tuple:
        q_in = p_in[:n_head] if n_head is not None else p_in
        q_out = p_out[:n_head] if n_head is not None else p_out
        ci = space.member_cell(q_in)
        if ci is None:
            return None, None, None
        for ki, (con, ev) in enumerate(zip(space.cells[ci], space._evals[ci])):
            try:
                v = ev(q_out)
            except DomainError:
                return ci, ki, con.text()
            if not con.satisfied(v, space.tol):
                return ci, ki, con.text()
        return ci, None, None

    return member, member_relaxed, witness_info


def integrate(
    space: SubcartesianSpace,
    fld: TangentField,
    x0: Sequence[float],
    horizon: Optional[float] = None,
    options: Optional[FlowOptions] = None,
) -> IntegralCurve:
    """Maximal integral curve through x0, clipped to [-horizon, horizon].

    The curve is the connected component through time zero of the in-set
    times of the ambient trajectory, so every recorded sample satisfies
    membership at the space's tolerance.
    """
    opts = options or FlowOptions()
    h = opts.horizon if horizon is None else float(horizon)
    if h <= 0:
        raise ValueError(f"horizon must be positive, got {h}")
    x0 = np.asarray(x0, dtype=float)
    space.require_member(x0, "basepoint")
    member, member_relaxed, witness_info = _membership(space, opts)
    start = x0.tolist()
    fwd = _drive(fld._value, start, h, opts, member, member_relaxed, witness_info)
    bwd = _drive(fld._value, start, -h, opts, member, member_relaxed, witness_info)
    samples = [(t, p) for t, p in reversed(bwd.samples.pairs()) if t < 0.0] + fwd.samples.pairs()
    return IntegralCurve(
        basepoint=x0,
        field_label=fld.label,
        t_minus=bwd.t_end,
        t_plus=fwd.t_end,
        clipped_minus=bwd.reached,
        clipped_plus=fwd.reached,
        samples=samples,
        exit_minus=bwd.exit_witness,
        exit_plus=fwd.exit_witness,
    )


def flow_map(
    space: Optional[SubcartesianSpace],
    fld: TangentField,
    x0: Sequence[float],
    t: float,
    options: Optional[FlowOptions] = None,
) -> np.ndarray:
    """Time-t flow of the field applied to x0, erroring if t is out of range."""
    opts = options or FlowOptions()
    x0 = np.asarray(x0, dtype=float)
    if space is not None:
        space.require_member(x0, "basepoint")
    if t == 0.0:
        return x0.copy()
    member, member_relaxed, witness_info = _membership(space, opts)
    res = _drive(fld._value, x0.tolist(), float(t), opts, member, member_relaxed, witness_info)
    if not res.reached:
        raise FlowDomainError(
            f"flow of {fld.label} from {x0.tolist()} leaves the space at "
            f"t={res.t_end:.6g}, requested t={t:.6g}",
            achieved_t=res.t_end,
            partial_point=np.array(res.y_end),
            exit_witness=res.exit_witness,
        )
    return np.array(res.y_end)


def transport_vector(
    space: Optional[SubcartesianSpace],
    x_field: TangentField,
    t: float,
    y_field: TangentField,
    x0: Sequence[float],
    options: Optional[FlowOptions] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Carry y_field(x0) along the flow of x_field for time t.

    The carried vector solves the variational system v' = (Dx_field) v along
    the base trajectory, which is exactly the derivative of the flow map
    applied to the initial vector.  Returns (image_point, vector).
    """
    if x_field.dim != y_field.dim:
        raise ValueError("fields must share a dimension")
    opts = options or FlowOptions()
    x0 = np.asarray(x0, dtype=float)
    if space is not None:
        space.require_member(x0, "basepoint")
    n = x_field.dim
    v0 = y_field(x0)
    if t == 0.0:
        return x0.copy(), v0
    base = x_field._value

    def joint(z: list[float]) -> list[float]:
        y = z[:n]
        return base(y) + (x_field.jacobian_at(y) @ np.array(z[n:])).tolist()

    member, member_relaxed, witness_info = _membership(space, opts, n_head=n)
    res = _drive(joint, x0.tolist() + v0.tolist(), float(t), opts, member, member_relaxed, witness_info)
    if not res.reached:
        raise FlowDomainError(
            f"flow of {x_field.label} from {x0.tolist()} leaves the space at "
            f"t={res.t_end:.6g}, requested t={t:.6g}",
            achieved_t=res.t_end,
            partial_point=np.array(res.y_end[:n]),
            exit_witness=res.exit_witness,
        )
    return np.array(res.y_end[:n]), np.array(res.y_end[n:])


# Classification ---------------------------------------------------------------

VECTOR_FIELD = "VectorField"
NOT_VECTOR_FIELD = "NotVectorField"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class ProbeOptions:
    """Seed points and shrinking-neighborhood schedule for the probes."""

    seeds: tuple[tuple[float, ...], ...] = ()
    radius0: float = 0.5
    decay: float = 0.25
    levels: int = 6
    samples_per_level: int = 20
    eps_factor: float = 4.0
    probe_horizon: float = 1.0
    rng_seed: int = 0
    fail_ratio: float = 0.3
    pass_ratio: float = 0.5
    abs_fraction: float = 0.1
    injectivity_floor: float = 1e-3


@dataclass
class VectorFieldVerdict:
    classification: str
    witness: Optional[dict]
    probes_run: int
    notes: list[str] = dc_field(default_factory=list)
    diagnostics: dict = dc_field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "classification": self.classification,
            "witness": self.witness,
            "probes_run": self.probes_run,
            "notes": self.notes,
            "diagnostics": self.diagnostics,
        }


def classify_vector_field(
    space: SubcartesianSpace,
    fld: TangentField,
    probe: ProbeOptions,
    options: Optional[FlowOptions] = None,
) -> VectorFieldVerdict:
    """Decide whether a derivation generates a local flow on the space.

    Negative answers are certified by a witness.  On declared locally closed
    spaces an integral curve whose interval endpoint is attained inside the
    set at probe-commensurate times settles the question immediately.  The
    direct probe measures the minimal interval radius over shrinking sampled
    neighborhoods of the seeds: radii bounded away from zero (with sampled
    injectivity) support a probabilistic positive, radii collapsing toward
    zero certify a negative, anything in between is inconclusive.
    """
    pr = probe
    opts = options or FlowOptions()
    rng = random.Random(pr.rng_seed)
    seeds = [np.asarray(s, dtype=float) for s in pr.seeds]
    if not seeds:
        raise ValueError("classification needs at least one seed point")
    for s in seeds:
        space.require_member(s, "seed")
    probes_run = 0
    m_levels: list[float] = []
    radii: list[float] = []
    min_witness: Optional[dict] = None
    last_level_points: list[np.ndarray] = []

    for level in range(pr.levels):
        r = pr.radius0 * pr.decay**level
        radii.append(r)
        pts: list[np.ndarray] = list(seeds)
        for s in seeds:
            pts.extend(sample_near(space, s, r, pr.samples_per_level, rng))
        m_here = math.inf
        for y in pts:
            try:
                curve = integrate(space, fld, y, horizon=pr.probe_horizon, options=opts)
            except IntegrationError as exc:
                return VectorFieldVerdict(
                    INCONCLUSIVE,
                    None,
                    probes_run,
                    notes=[f"integrator failure during probing: {exc}"],
                    diagnostics={"radii": radii, "min_interval_radius": m_levels},
                )
            probes_run += 1
            if space.locally_closed:
                for t_end, clipped, wit, side in (
                    (curve.t_minus, curve.clipped_minus, curve.exit_minus, 0),
                    (curve.t_plus, curve.clipped_plus, curve.exit_plus, -1),
                ):
                    if clipped or wit is None or not wit.attained:
                        continue
                    if abs(t_end) <= pr.eps_factor * r:
                        endpoint = curve.samples[side][1]
                        return VectorFieldVerdict(
                            NOT_VECTOR_FIELD,
                            witness={
                                "kind": "attained-endpoint",
                                "point": [float(v) for v in endpoint],
                                "endpoint_time": t_end,
                                "probe_point": [float(v) for v in y],
                                "level_radius": r,
                            },
                            probes_run=probes_run,
                            notes=["interval endpoint attained inside the set"],
                            diagnostics={"radii": radii, "min_interval_radius": m_levels},
                        )
            radius = curve.interval_radius()
            if curve.clipped_minus and curve.clipped_plus:
                radius = pr.probe_horizon
            if radius < m_here:
                m_here = radius
                if min_witness is None or level == pr.levels - 1:
                    min_witness = {
                        "kind": "shrinking-intervals",
                        "point": [float(v) for v in y],
                        "interval_radius": radius,
                        "level_radius": r,
                    }
        m_levels.append(m_here if math.isfinite(m_here) else pr.probe_horizon)
        if level == pr.levels - 1:
            last_level_points = pts

    m_first, m_last = m_levels[0], m_levels[-1]
    diagnostics = {"radii": radii, "min_interval_radius": m_levels}
    notes: list[str] = []

    if m_last <= pr.abs_fraction * pr.probe_horizon and m_last <= pr.fail_ratio * max(m_first, 1e-300):
        return VectorFieldVerdict(
            NOT_VECTOR_FIELD,
            witness=min_witness,
            probes_run=probes_run,
            notes=["no uniform flow time: interval radii collapse under refinement"],
            diagnostics=diagnostics,
        )

    # Injectivity of the sampled time-eps flow at the finest level.
    t_eps = 0.5 * min(m_last, pr.probe_horizon)
    inj = math.inf
    if t_eps > 0 and len(last_level_points) >= 2:
        images = []
        for y in last_level_points:
            try:
                images.append((y, flow_map(space, fld, y, t_eps, opts)))
                probes_run += 1
            except (FlowDomainError, IntegrationError):
                images.append((y, None))
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                yi, zi = images[i]
                yj, zj = images[j]
                if zi is None or zj is None:
                    continue
                d0 = float(np.linalg.norm(yi - yj))
                if d0 < 1e-12:
                    continue
                inj = min(inj, float(np.linalg.norm(zi - zj)) / d0)
    diagnostics["injectivity_min_ratio"] = None if math.isinf(inj) else inj

    if m_last >= pr.pass_ratio * m_first and (math.isinf(inj) or inj >= pr.injectivity_floor):
        notes.append("uniform flow time with sampled injectivity; positive answers are probabilistic")
        return VectorFieldVerdict(VECTOR_FIELD, None, probes_run, notes, diagnostics)

    notes.append("refinement exhausted without a certificate either way")
    return VectorFieldVerdict(INCONCLUSIVE, None, probes_run, notes, diagnostics)
