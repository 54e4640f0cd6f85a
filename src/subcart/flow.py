"""Maximal integral curves clipped to a constrained subset.

The integrator is an adaptive Dormand-Prince 5(4) pair with a quartic dense
interpolant (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.4-6).  Its
adaptive loop, the starting step included, is generated Python source:
straight-line code over scalar locals, which costs far less than loops over
lists or small numpy arrays.  Each component is computed with the
operations, in the order, of the whole-array numpy expressions, and the
norms sum in numpy's pairwise order, so results are bit-identical to a
numpy stepper, though numpy is not imported for it.  ``integrate``,
``flow_map``, ``drift`` and the classifier's probes run the kernel of their
field and space: a loop generated for that field, the space's cells and use
of the samples (stored, counted, folded into a stratum's drift, or none),
whose stages compute the field's components inline and whose scan tests the
cells inline.  A constant component is a literal in every sum that reads it,
which the compiler folds with the same floats the running sum would give.
It is called with the space, ``kernel(x0, target, opts, space)``, under
whose tolerance it tests and whose cells an exit witness names.
``transport_vector`` carries a vector on the kernel of the field's
variational field on R^2n, the point followed by the vector its Jacobian
carries, whose cell tests read the point alone.
Kernels are compiled on first use (1-3 ms each on the shipped scenarios)
and kept for the process in one table keyed by the source they are made
of, so a field or space built anew with the same content finds its kernel.
Membership is monitored along every accepted step at evenly spaced points
of the dense output, at least four per step, its end included, and at most
0.1 apart in time (``INTERIOR_CHECKS``, ``MAX_SAMPLE_DT``); a step of four
points, the most common, scans them without a loop.  ``integrate`` keeps
them: asked to store them, for ``flow --out`` alone, in one packed buffer
per direction that a curve turns into (t, point) pairs when they are read,
and otherwise as a count, which is all a report of ``flow`` without
``--out`` reads.  ``drift``, the tangency check's curve, keeps only the
worst violation of a stratum's constraints at its points, on the ambient
space, so its memory does not grow with the horizon.
A space with a cell of no constraints holds everywhere, so there nothing is
tested, and a kernel that neither tests, stores nor folds has no scan.
Nor is anything tested along the way where the field annihilates every
constraint of every cell (X f = 0 exactly: ``poly.invariance_cofactors``,
each constraint read as an inequality, certifies every cell with every
cofactor 0): each constraint keeps its value along the exact curve, so no
cell is left or entered.  There the kernel is the one of no cells, and a drive is tested
at its end alone; one whose end is not a member, from the integrator's
drift out of an equality's band, or that fails, is run again on the
scanning kernel, which locates the exit.  So such a drive equals the
scanning one bit for bit, except where the scan would stop at a scanned
point outside the band although the drive's end is back inside it: there
the drive reaches its end, as the exact curve does.
The scan's cell tests are the space's generated lines, which evaluate the
constraints in IEEE arithmetic (``space._cells_test``), so a power past the
float range tests as inf.  On the first violation the exit time is located
by bisection on the dense output down to 1e-12 in time (``BISECT_TOL``), in
a loop of the same cell tests that the kernel's source defines beside its
drive, so a kernel, its exit included, is one ``compile()``.  Domain-guard
failures inside the derivative (logs, roots, quotients) are treated as
leaving the chart: the step is retried at half size down to 1e-14
(``MIN_STEP``), then the curve ends.
A starting step that is zero or not finite, a NaN error norm, an accepted
step too short to advance t and a field whose value overflows (Python's
float ``**`` raises there) are failures of the stepper itself.

An exit comes in two flavours.  When the limit point still satisfies the
membership predicate under a relaxed tolerance the interval endpoint is
attained inside the set (the curve ran into a closed face), otherwise the
interval is open on that side; the relaxed tolerance is 10 times the
space's (``ATTAINED_FACTOR``).  Attained endpoints are exactly what the
vector-field classifier looks for on locally closed spaces: a derivation
whose curve stops at an interior-reachable member point admits no local
one-parameter group there.

These numbers, and the classifier's probe schedule below, are module
constants.  A caller sets the error tolerances and the step budget
(``FlowOptions``) and the horizon.
"""

from __future__ import annotations

import math
import random
import re
from array import array
from dataclasses import asdict, dataclass, replace
from typing import Callable, Optional, Sequence

from .field import MAX_SAMPLE_DT, IntegrationError, TangentField, _horizon
from .expr import _COMPILE_ENV, Const, DomainError, Expr, _const_source, _pairwise_sum, vector_source
from .space import BALL_TRIES, Cell, SubcartesianSpace, _cells_test, _slack_source, ball, sample

DEFAULT_RTOL = 1e-9
DEFAULT_ATOL = 1e-12
DEFAULT_HORIZON = 10.0
BISECT_TOL = 1e-12
MIN_STEP = 1e-14
ATTAINED_FACTOR = 10.0
INTERIOR_CHECKS = 3  # scanned points inside each accepted step, at least


class FlowDomainError(RuntimeError):
    """Requested flow time lies outside the maximal interval.

    ``partial_point`` is where the flow stopped, a tuple of floats like
    ``ExitWitness.point``.
    """

    def __init__(self, message: str, achieved_t: float, partial_point: tuple[float, ...], exit_witness):
        super().__init__(message)
        self.achieved_t = achieved_t
        self.partial_point = partial_point
        self.exit_witness = exit_witness


@dataclass(frozen=True)
class FlowOptions:
    rtol: float = DEFAULT_RTOL
    atol: float = DEFAULT_ATOL
    max_steps: int = 1_000_000


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


class _Samples:
    """Recorded (t, point) pairs, the points packed into one float buffer."""

    def __init__(self, t0: float, p0: list[float]):
        self.t = [t0]
        self.x = array("d", p0)

    def point(self, i: int) -> list[float]:
        n = len(self.x) // len(self.t)
        return self.x[i * n : i * n + n].tolist()


@dataclass
class IntegralCurve:
    """One maximal (horizon-clipped) integral curve through a basepoint."""

    basepoint: tuple[float, ...]
    field_label: str
    t_minus: float
    t_plus: float
    clipped_minus: bool
    clipped_plus: bool
    n_samples: int  # the start and the points each drive stored or counted after it
    forward: Optional[_Samples]  # what each drive stored, from t = 0 on; None where nothing was stored
    backward: Optional[_Samples]
    exit_minus: Optional[ExitWitness]
    exit_plus: Optional[ExitWitness]

    @property
    def samples(self) -> list[tuple[float, list[float]]]:
        """The (t, point) pairs in time order, made anew from the buffers at each
        read: the backward buffer reversed, without its t = 0 start, then the
        forward one."""
        if self.forward is None:
            raise ValueError("the curve stored no samples: integrate it with store=True to read them")
        bwd, fwd = self.backward, self.forward
        return ([(bwd.t[i], bwd.point(i)) for i in range(len(bwd.t) - 1, -1, -1) if bwd.t[i] < 0.0]
                + [(fwd.t[i], fwd.point(i)) for i in range(len(fwd.t))])

    def to_json_dict(self) -> dict:
        return {
            "basepoint": [float(v) for v in self.basepoint],
            "field": self.field_label,
            "t_minus": self.t_minus,
            "t_plus": self.t_plus,
            "clipped_minus": self.clipped_minus,
            "clipped_plus": self.clipped_plus,
            "n_samples": self.n_samples,
            "exit_minus": asdict(self.exit_minus) if self.exit_minus else None,
            "exit_plus": asdict(self.exit_plus) if self.exit_plus else None,
        }


# Dormand-Prince 5(4) tableau with the classic quartic dense interpolant.

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


def _dense(coeffs: Sequence[tuple[float, ...]], theta: float) -> list[float]:
    """The quartic interpolant at ``theta`` in [0, 1] of a step, from its per-component coefficients."""
    u = 1.0 - theta
    return [a + theta * (ydiff + u * (bspl + theta * (r4 + u * r5)))
            for a, ydiff, bspl, r4, r5 in coeffs]


@dataclass
class _DriveResult:
    t_end: float
    y_end: list[float]
    reached: bool
    samples: Optional[_Samples]  # None from a kernel that stores nothing; a drift kernel's fold (see ``drift``)
    exit_witness: Optional[ExitWitness]
    n_steps: int
    n_samples: Optional[int]  # points stored after the start; None from a kernel that counts nothing


def _exit(coeffs, theta_in, theta_out, last, t, h, samples, n_samples, n_steps, space):
    """End a drive that leaves the space inside the step from t to t + h, at
    the bracket ``theta_in``, ``theta_out`` of the kernel's bisection on the
    step's dense output, given as per-component tuples (y, ydiff, bspl, r4,
    r5), which may run past the space's coordinates.  The witness names the
    cell holding at theta_in's point and the constraint failing at
    theta_out's, and is attained where the latter holds under the relaxed
    tolerance.  The point at theta_in is stored, or counted in
    ``n_samples``, only where its time differs from ``last``, that of the
    last point stored before the exit.
    """
    p_in = _dense(coeffs, theta_in)
    p_out = _dense(coeffs, theta_out)
    ci, ki, text = _witness_info(space, p_in, p_out)
    witness = ExitWitness(t=t + theta_out * h, point=tuple(p_out),
                          attained=space.contains(p_out, tol=space.tol * ATTAINED_FACTOR),
                          cell_index=ci, constraint_index=ki, constraint=text)
    t_end = t + theta_in * h
    if n_samples is not None and t_end != last:
        n_samples += 1
        if samples is not None:
            samples.t.append(t_end)
            samples.x.extend(p_in)
    return _DriveResult(t_end, p_in, False, samples, witness, n_steps, n_samples)


def _witness_info(space: SubcartesianSpace, p_in: list[float], p_out: list[float]) -> tuple:
    """The cell holding at p_in, the index of its first constraint that fails
    at p_out and that constraint's text, None where there is none."""
    ci = space.member_cell(p_in)
    if ci is None:
        return None, None, None
    for ki, (test, text) in enumerate(space._constraint_tests[ci]):
        if test(p_out, space.tol) is None:
            return ci, ki, text
    return ci, None, None


# A kernel integrates from x0 toward the signed time ``target`` and stops
# where membership fails.  It is generated as straight-line code over scalar
# locals: y0.. the state, k1_0.. the stage derivatives, sk0.., sy0.. and sf0..
# the scale, state and slope of the starting-step rule (h0 = 0.01 *
# rms(y / sk) / rms(k1 / sk), or 1e-6 when either norm is below 1e-5, at most
# the span), yn0.. the step endpoint, s0.. the scaled errors and yd, bs, q, r
# the dense coefficients ydiff = ynew - y, bspl = h * k1 - ydiff, r4 = ydiff -
# h * k7 - bspl and r5 = h * sum_i D[i] * k[i].  Only a scan and its exit read
# the dense coefficients, so they are computed only in a kernel that tests
# cells or stores its points; the others have no $coeffs lines.  Each
# component uses the operations, in the order, of the whole-array numpy
# expression: stage sums y + h * sum_j A[i][j] * k[j] start from 0.0 and keep
# the products with the tableau's zeros, which keeps the sign of a zero sum
# and a NaN or inf stage, sk = atol + rtol * np.maximum(|y|, |ynew|)
# propagates NaN, and the norms sum like ``np.mean``.  The tableau's
# coefficients A, E and D are written into the source as float literals by
# ``repr``, so a stage reads constants, not globals.  So is a component of the
# field that is a constant (``_const_source``, in parentheses, so -0.0 stays
# itself and inf and NaN are ``_inf`` and ``_nan``): the sums that read it
# read the literal where another component reads its local k{s}_{i}, and no
# local holds it.  The compiler folds a sum of literals into one float by
# the IEEE operations, in the order, of the running kernel, so the floats
# are the same.  The step-size factors
# are conditional expressions that give what max(0.2, 0.9 * err**-0.2) and
# min(10.0, 0.9 * err**-0.2) give, a NaN factor included; an accepted step
# has err <= 1, so its factor is at least 0.9 and needs no floor of 0.2.
# Each $name below is replaced by the code of one kernel.
#
# A kernel computes its field's components inline at each stage, from the
# stage state z0.. (yn0.. for the last stage), and tests the space's cells
# inline, under its ``_tol = space.tol``, at each scanned point p0.. of the
# dense output; those lines (``space._cells_test``) evaluate the constraints
# in IEEE arithmetic, so no overflow leaves them.
# A step of at most INTERIOR_CHECKS + 1 = 4 scanned points, one of at most
# 0.4 time units, scans them in a block of straight-line code with the
# fractions 0.25, 0.5, 0.75, 1.0 as literals; a longer step scans its
# points in a loop.  The test |h| / 0.1 <= 4.0 holds exactly where
# ceil(|h| / 0.1) <= 4, so ``ceil`` is called only for a longer step, where
# it still raises on an inf or NaN quotient.  A failing point leaves the
# scan (the block is a ``while True`` run once) with its bracket in _lo,
# _hi; the exit block after it narrows that with ``_bisect``, the dense
# output and the same cell tests in a loop, defined after ``_drive``, and
# ends the drive in ``_exit``.
# What $samples sets up, $scan does with the points and $kept returns
# depends on the use of the samples.  A kernel that stores them (``flow
# --out``) keeps each scanned point in ``samples``; one that counts them
# (every other ``flow``) adds the points of each passed step to
# ``n_samples``, and with no cell to test it has no scan, only that sum; one
# that folds them (``drift``, the tangency check of ``strata``) tests no
# cell and evaluates the slack lines of a stratum (``space._slack_source``)
# at its start and at each scanned point, and returns the worst violation
# max(0, -slack), its time and point, and the point where the slack is NaN
# in place of ``samples``; one that does none of these (``flow_map``,
# ``transport_vector`` and the classifier's probes) leaves both None, and
# with no cell to test it has no scan at all.
_DRIVER = """\
def _drive(x0, target, opts, space):
    rtol = opts.rtol
    atol = opts.atol
    max_steps = opts.max_steps
    span = abs(target)
    y = list(x0)
$samples
    if span == 0.0:
        return _DriveResult(0.0, y, True, $kept, None, 0, n_samples)
    $y = y
    try:
$first
    except DomainError:
        raise IntegrationError(f"field undefined at basepoint {y}") from None
    except OverflowError:
        raise IntegrationError(f"field overflows at basepoint {y}") from None
$start
    ny = sqrt((0.0 + $ysq) / $n)
    nf = sqrt((0.0 + $fsq) / $n)
    h = (1.0 if target >= 0 else -1.0) * min(1e-6 if ny < 1e-5 or nf < 1e-5 else 0.01 * ny / nf, span)
    if not 0.0 < abs(h) < inf:
        raise IntegrationError(f"starting step {h} at basepoint {y} is zero or not finite")
    t = 0.0
    n_steps = 0
    while True:
        n_steps += 1
        if n_steps > max_steps:
            raise IntegrationError(f"exceeded {max_steps} steps at t={t}", t=t)
        landing = False
        remaining = target - t
        if abs(h) >= abs(remaining):
            h = remaining
            landing = True
        # a domain-guard failure anywhere in the step means the step wandered
        # out of the chart, so retry shorter
        try:
$stages
        except DomainError:
            h *= 0.5
            if abs(h) < MIN_STEP:
                witness = ExitWitness(t=t, point=($y), attained=True, guard=True)
                return _DriveResult(t, [$y], False, $kept, witness, n_steps, n_samples)
            continue
        except OverflowError:
            raise IntegrationError(f"field overflows at t={t}", t=t) from None
$errors
        err = sqrt((0.0 + $sumsq) / $n)
        if not err <= 1.0:
            shrink = 0.9 * err**-0.2
            h *= shrink if shrink > 0.2 else 0.2
            if abs(h) < MIN_STEP:
                raise IntegrationError(f"step size underflow at t={t}", t=t)
            continue
        if t + h == t:
            raise IntegrationError(f"step {h} does not advance t={t}", t=t)
$coeffs
$scan
$advance
        if landing:
            return _DriveResult(target, [$y], True, $kept, None, n_steps, n_samples)
        t = t + h
        grow = 10.0 if err == 0.0 else 0.9 * err**-0.2
        h *= grow if grow < 10.0 else 10.0
$bisect
"""

def _indent(lines: list[str], depth: int) -> str:
    return "\n".join(" " * depth + line for line in lines)


def _driver_source(components: Sequence[Expr], cells: Optional[Sequence[Cell]], keep: Optional[str]) -> str:
    """Source of the kernel of the field with these components (see the
    comments above ``_DRIVER``), which tests ``cells`` inline, or nothing when
    ``cells`` is None, and stores its scanned points (``keep`` "store"),
    counts them ("count") or does neither (None).  With ``keep`` "drift" it
    tests nothing and folds the slack of ``cells`` instead.
    """
    n = len(components)
    ix = range(n)
    fold = keep == "drift"
    tests = cells is not None and not fold
    moving = [i for i in ix if not isinstance(components[i], Const)]

    def sumsq(stem: str) -> str:
        return _pairwise_sum([f"{stem}{i} * {stem}{i}" for i in ix], lambda p, q: f"({p} + {q})", "0.0")

    def each(fmt: str) -> str:
        return ", ".join(fmt.format(i=i) for i in ix)

    def names(stem: str) -> str:  # the trailing comma makes a tuple of one name too
        return each(stem + "{i}") + ","

    def slope(s: int, i: int) -> str:
        """Stage value (s, i): the local k{s}_{i}, or the literal of a constant component."""
        c = components[i]
        return f"({_const_source(c.value)})" if isinstance(c, Const) else f"k{s}_{i}"

    def comb(coefs: Sequence[float], i: int) -> str:
        return "0.0" + "".join(f" + {c!r} * {slope(j, i)}" for j, c in enumerate(coefs, 1))

    def stage(s: int, i: int) -> str:
        return f"y{i} + h * ({comb(_A[s - 1], i)})"

    def field(s: int, coord: str) -> list[str]:
        """Lines that set k{s}_i to the field's component i at the point coord
        names, for each component that is not a constant."""
        lines, values = vector_source(components, coord)
        return lines + [f"k{s}_{i} = {values[i]}" for i in moving]

    def fold_drift(stamp: str) -> list[str]:
        """Lines that fold the violation max(0, -slack) at the point p0.. of
        time ``stamp`` into the drift's worst, its time and point, and the
        point where the fold stops: its slack is NaN (``_nan`` is the
        constant's name, so the local is ``_stop``)."""
        point = f"[{names('p')}]"
        return [*_slack_source(cells, "", "p{}"),
                "if _b != _b and (_stop is None or _back):", f"    _stop = {point}",
                "_v = -_b",
                "if _v > _worst or _back and _v == _worst > 0.0:",
                "    _worst = _v", f"    _wt = {stamp}", f"    _wp = {point}"]

    # a stage state is computed only in the coordinates the field reads
    read = [i for i in ix if any(c._mask >> i & 1 for c in components)]
    stages = []
    for s in range(2, 7):
        stages += [f"z{i} = {stage(s, i)}" for i in read] + field(s, "z{}")
    stages += [f"yn{i} = {stage(7, i)}" for i in ix] + field(7, "yn{}")
    errors = []
    for i in ix:
        errors += [f"ya = abs(y{i})", f"yb = abs(yn{i})",
                   f"s{i} = h * ({comb(_E, i)}) / (atol + rtol * (ya if ya > yb or ya != ya else yb))"]
    start = []
    for i in ix:
        start += [f"sk{i} = atol + rtol * abs(y{i})", f"sy{i} = y{i} / sk{i}", f"sf{i} = {slope(1, i)} / sk{i}"]

    def dense(th: str, u: str) -> list[str]:  # p0.. at fraction th of the step on its dense output; u is 1 - th
        return [f"p{i} = y{i} + {th} * (yd{i} + {u} * (bs{i} + {th} * (q{i} + {u} * r{i})))" for i in ix]

    def grid_point(th: str, u: str, theta_in: str, passed: str, stamp: str) -> list[str]:
        """Lines that compute the scanned point at fraction th of the step (u
        is 1 - th), leave the scan if it fails with the bracket theta_in, th
        in _lo, _hi and the ``passed`` points of this step before it in _k,
        and store it at time ``stamp`` or fold its drift."""
        lines = dense(th, u)
        if tests:
            lines += ["_c = None", *_cells_test(cells, "p{}", ""), "if _c is None:",
                      f"    _lo, _hi, _k = {theta_in}, {th}, {passed}", "    break"]
        if keep == "store":
            lines += [f"sample_t.append({stamp})", f"sample_x.extend(({names('p')}))"]
        if fold:
            lines += fold_drift(stamp)
        return lines

    # The scan grid doubles as the sample grid, keeping stored sample spacing
    # at or below MAX_SAMPLE_DT.  A step of at most INTERIOR_CHECKS + 1 grid
    # points scans them as straight-line code; its fractions are the floats
    # i / n_sub and 1 - i / n_sub of the loop, written out by repr, so its
    # points are the loop's bit for bit.
    grid = INTERIOR_CHECKS + 1
    short = f"abs(h) / {MAX_SAMPLE_DT!r} <= {float(grid)!r}"
    n_sub = f"ceil(abs(h) / {MAX_SAMPLE_DT!r})"
    counts = keep in ("store", "count")
    coeffs, scan, bisect = [], [], []
    if cells is not None or keep == "store":
        for i in ix:  # the dense coefficients, which only the scan and its exit read
            coeffs += [f"yd{i} = yn{i} - y{i}", f"bs{i} = h * {slope(1, i)} - yd{i}",
                       f"q{i} = yd{i} - h * {slope(7, i)} - bs{i}", f"r{i} = h * ({comb(_D, i)})"]
        block = []
        for k in range(1, grid + 1):
            th = k / grid
            stamp = "target if landing else t + h" if k == grid else f"t + {th!r} * h"
            block += grid_point(repr(th), repr(1.0 - th), repr((k - 1) / grid), str(k - 1), stamp)
        loop = ["th = i / n_sub", "u = 1.0 - th",
                *grid_point("th", "u", "theta_in", "i - 1", "target if (landing and th == 1.0) else t + th * h"),
                "theta_in = th"]
        if counts:
            block.append(f"n_samples += {grid}")
        if tests:
            block = ["while True:", *("    " + line for line in block), "    break"]
        scan = [f"if {short}:", *("    " + line for line in block),
                "else:", f"    n_sub = {n_sub}", "    theta_in = 0.0", "    for i in range(1, n_sub + 1):",
                *(" " * 8 + line for line in loop)]
        if counts:
            scan += ["    else:", "        n_samples += n_sub"]
        if tests:  # the exit block after the scan, and the bisection it calls, defined after ``_drive``
            co = each("(y{i}, yd{i}, bs{i}, q{i}, r{i})") + ","
            scan = ["_hi = None", *scan, "if _hi is not None:", "    _last = t + _lo * h", f"    _co = ({co})",
                    "    return _exit(_co, *_bisect(_co, _lo, _hi, h, _tol), _last, t, h, samples, "
                    f"{'n_samples + _k' if counts else 'None'}, n_steps, space)"]
            halve = ["_mid = 0.5 * (_lo + _hi)", "_u = 1.0 - _mid", *dense("_mid", "_u"), "_c = None",
                     *_cells_test(cells, "p{}", ""), "if _c is None:", "    _hi = _mid", "else:", "    _lo = _mid"]
            bisect = ["def _bisect(_co, _lo, _hi, h, _tol):", f"    {co} = _co", "    _span = abs(h)",
                      f"    while (_hi - _lo) * _span > {BISECT_TOL!r}:", _indent(halve, 8), "    return _lo, _hi"]
    elif keep == "count":
        scan = [f"n_samples += {grid} if {short} else {n_sub}"]
    if fold:
        samples = ["n_samples = None", "_back = target < 0.0", "_worst = 0.0", "_wt = _wp = _stop = None",
                   f"{names('p')} = y", *fold_drift("0.0"), "_start = _worst"]
    else:
        samples = {None: ["samples = None", "n_samples = None"], "count": ["samples = None", "n_samples = 0"],
                   "store": ["samples = _Samples(0.0, y)", "sample_t = samples.t", "sample_x = samples.x",
                             "n_samples = 0"]}[keep]
    if tests:
        samples.append("_tol = space.tol")
    advance = [f"{names('y')} = {names('yn')}"]
    if moving:
        advance.append(" = ".join(", ".join(f"k{s}_{i}" for i in moving) + "," for s in (1, 7)))
    parts = dict(
        n=n, y=names("y"), advance=_indent(advance, 8),
        first=_indent(field(1, "y{}") or ["pass"], 8), start=_indent(start, 4), ysq=sumsq("sy"), fsq=sumsq("sf"),
        stages=_indent(stages, 12), errors=_indent(errors, 8), coeffs=_indent(coeffs, 8),
        sumsq=sumsq("s"), scan=_indent(scan, 8), samples=_indent(samples, 4), bisect="\n".join(bisect),
        kept="(_worst, _wt, _wp, _stop, _start)" if fold else "samples",
    )
    return re.sub(r"\$(\w+)", lambda m: str(parts[m.group(1)]), _DRIVER)


# Every kernel of the process, keyed by (field source, scan key, keep).
_DRIVERS: dict[tuple, Callable[..., _DriveResult]] = {}


def _kernel(fld: TangentField, space: SubcartesianSpace, keep: Optional[str]) -> Callable[..., _DriveResult]:
    """The kernel of the field on the space, made on first use and kept for
    the process.

    A kernel with ``keep`` "store" keeps the start, the scanned points and,
    after an exit, its last point as samples; one with "count" counts the
    points it would store after the start in ``n_samples``, and stores
    nothing (``samples`` is None); one with None does neither (both None).
    One with "drift" tests no cells, as on the ambient space, and folds the
    slack of ``space``, a stratum, along the curve instead (see ``drift``).
    The table is keyed by the source the kernel is made of, the field's
    (``TangentField._source``) and the cell tests (``_scan_key``) or the
    slack (``_slack_key``), so a field or space built anew, by another
    command in the same process, finds the kernel already compiled.

    Where the field annihilates every constraint of every cell exactly
    (``_first_integrals``), no cell is left or entered along the exact
    curve, and the kernel is ``_guarded``: the kernel of no cells for
    ``keep``, with the scanning one behind an end test.
    """
    scan = space._slack_key if keep == "drift" else space._scan_key
    key = (fld._source, scan, keep)
    drive = _DRIVERS.get(key)
    if drive is None:
        cells = None if scan is None else space.cells
        if keep == "drift" or cells is None or not _first_integrals(fld, cells):
            drive = _compile(fld, cells, keep)
        else:
            drive = _guarded(_compile(fld, None, keep), lambda: _compile(fld, cells, keep))
        _DRIVERS[key] = drive
    return drive


def _first_integrals(fld: TangentField, cells: Sequence[Cell]) -> bool:
    """Whether X f = 0 exactly for each constraint f of the cells, each a
    first integral: ``poly.invariance_cofactors`` certifies them all, each
    read as an inequality, with every cofactor 0.  ``poly`` is loaded only
    here, where a space has constraints."""
    from .poly import invariance_cofactors

    found = invariance_cofactors(fld.components, [[(c.expr, False) for c in cell] for cell in cells])
    return found is not None and all(h.is_zero for _, rows in found for row in rows for h in row)


def _compile(fld: TangentField, cells: Optional[Sequence[Cell]], keep: Optional[str]) -> Callable[..., _DriveResult]:
    """The drive of ``_driver_source``, compiled."""
    scope = dict(_COMPILE_ENV, _Samples=_Samples, _DriveResult=_DriveResult, _exit=_exit,
                 ExitWitness=ExitWitness, DomainError=DomainError,
                 _DomainError=DomainError, IntegrationError=IntegrationError, sqrt=math.sqrt,
                 ceil=math.ceil, inf=math.inf, MIN_STEP=MIN_STEP)
    exec(compile(_driver_source(fld.components, cells, keep), f"<dopri5 kernel n={fld.dim}>", "exec"), scope)
    return scope["_drive"]


def _guarded(free: Callable[..., _DriveResult],
             scanning: Callable[[], Callable[..., _DriveResult]]) -> Callable[..., _DriveResult]:
    """A kernel that runs ``free``, which tests no cell, and keeps its drive
    where it reaches the target at a member of the space; any other drive,
    a failure included, runs again on the scanning kernel, which
    ``scanning`` compiles on its first call and which locates the exit.
    The free drive steps as the scanning one does and keeps or counts the
    same points (the module notes say where the two differ)."""
    scanned: list[Callable[..., _DriveResult]] = []

    def drive(x0, target, opts, space):
        try:
            res = free(x0, target, opts, space)
            if res.reached and space.contains(res.y_end):
                return res
        except IntegrationError:
            pass
        if not scanned:
            scanned.append(scanning())
        return scanned[0](x0, target, opts, space)

    return drive


def _drives(space: SubcartesianSpace, fld: TangentField, x0: Sequence[float], horizon: float,
            opts: FlowOptions, keep: Optional[str]) -> tuple[_DriveResult, _DriveResult]:
    """The forward and backward drives of the curve through x0, a sequence of
    Python floats, clipped to [-horizon, horizon], on the kernel that keeps
    its samples as ``keep`` says (see ``_kernel``)."""
    horizon = _horizon(horizon)
    if keep != "drift":  # a drift kernel's space is the stratum whose slack it folds, not one it tests
        space.require_member(x0, "basepoint")
    drive = _kernel(fld, space, keep)
    return drive(x0, horizon, opts, space), drive(x0, -horizon, opts, space)


def integrate(
    space: SubcartesianSpace,
    fld: TangentField,
    x0: Sequence[float],
    horizon: float = DEFAULT_HORIZON,
    options: Optional[FlowOptions] = None,
    store: bool = False,
) -> IntegralCurve:
    """Maximal integral curve through x0, clipped to [-horizon, horizon].

    The curve is the connected component through time zero of the in-set
    times of the ambient trajectory, so every sample satisfies membership at
    the space's tolerance, except where the field annihilates every
    constraint: there the exact curve stays in its cell, only each drive's
    end is tested, and a point before it may lie past a band by the
    integrator's error (see the module notes).  The samples are stored, for
    ``samples`` to read, only with ``store`` set; either way ``n_samples``
    counts them.
    """
    opts = options or FlowOptions()
    x0 = tuple(float(v) for v in x0)
    fwd, bwd = _drives(space, fld, x0, horizon, opts, "store" if store else "count")
    return IntegralCurve(
        basepoint=x0,
        field_label=fld.label,
        t_minus=bwd.t_end,
        t_plus=fwd.t_end,
        clipped_minus=bwd.reached,
        clipped_plus=fwd.reached,
        n_samples=1 + fwd.n_samples + bwd.n_samples,
        forward=fwd.samples,
        backward=bwd.samples,
        exit_minus=bwd.exit_witness,
        exit_plus=fwd.exit_witness,
    )


def drift(stratum: SubcartesianSpace, fld: TangentField, x0: list[float], horizon: float,
          options: Optional[FlowOptions] = None) -> tuple[float, Optional[float], Optional[list[float]],
                                                          Optional[list[float]], float]:
    """The worst violation of the stratum along the curve of the field
    through x0, a list of Python floats, on the ambient space, clipped to
    [-horizon, horizon].

    The violation at a point is max(0, -slack).  Each drive folds it at its
    start and at every scanned point, so nothing is stored.  The result is
    what a fold of the stored curve in time order with a strict ``>`` from
    0.0 gives: the worst violation, the time and point of its first
    occurrence in time (None where none is positive), and the earliest point
    whose slack is NaN (None where there is none), then the violation at x0
    itself.  So the backward drive keeps the last of equal maxima and of NaN
    points, the one earliest in time, and wins a tie with the forward one;
    the start, which both fold, gives both the same value.  Both drives run
    before the result is read, so an ``IntegrationError`` of either comes
    first.
    """
    fwd, bwd = _drives(stratum, fld, x0, horizon, options or FlowOptions(), "drift")
    worst, t, point, stop, start = fwd.samples
    back_worst, back_t, back_point, back_stop, _ = bwd.samples
    if back_worst >= worst:
        worst, t, point = back_worst, back_t, back_point
    return worst, t, point, stop if back_stop is None else back_stop, start


def _flow_core(space: SubcartesianSpace, fld: TangentField,
               opts: FlowOptions) -> Callable[[list[float], float], list[float]]:
    """``flow_map`` on float lists: ``core(x0, t)`` is the time-t image of x0,
    which must be a member (it is not tested), erroring if t is out of range
    or not finite."""
    drive = _kernel(fld, space, None)

    def core(x0: list[float], t: float) -> list[float]:
        if not math.isfinite(t):  # such a time would drive on until max_steps
            raise ValueError(f"flow time must be finite, got {t}")
        res = drive(x0, t, opts, space)
        if not res.reached:
            raise FlowDomainError(
                f"flow of {fld.label} from {x0} leaves the space at "
                f"t={res.t_end:.6g}, requested t={t:.6g}",
                achieved_t=res.t_end,
                partial_point=tuple(res.y_end),
                exit_witness=res.exit_witness,
            )
        return res.y_end

    return core


def flow_map(space: SubcartesianSpace, fld: TangentField, x0: Sequence[float], t: float) -> list[float]:
    """Time-t flow of the field applied to x0, as a list of floats, erroring
    if t is out of range or not finite."""
    x0 = [float(v) for v in x0]
    space.require_member(x0, "basepoint")
    if t == 0.0:
        return x0
    return _flow_core(space, fld, FlowOptions())(x0, float(t))


def transport_vector(
    space: SubcartesianSpace,
    x_field: TangentField,
    t: float,
    x0: Sequence[float],
    v0: Sequence[float],
    options: Optional[FlowOptions] = None,
) -> tuple[list[float], list[float]]:
    """Carry the vector v0 at x0 along the flow of x_field for time t.

    The carried vector solves the variational system v' = (Dx_field) v along
    the base trajectory, which is exactly the derivative of the flow map
    applied to v0.  Returns (image_point, vector), lists of floats.  Past
    the maximal interval the ``FlowDomainError``'s partial point is the
    point followed by the vector carried so far.
    """
    n = x_field.dim
    if len(v0) != n:
        raise ValueError(f"the vector has {len(v0)} components, the field {n}")
    opts = options or FlowOptions()
    x0 = [float(v) for v in x0]
    space.require_member(x0, "basepoint")
    v0 = [float(v) for v in v0]
    if t == 0.0:
        return x0, v0
    try:
        end = _flow_core(space, x_field._variational, opts)(x0 + v0, float(t))
    except FlowDomainError as exc:  # the witness names a point of the space, not the joint state
        exc.exit_witness = replace(exc.exit_witness, point=exc.exit_witness.point[:n])
        raise
    return end[:n], end[n:]


# Classification ---------------------------------------------------------------

VECTOR_FIELD = "VectorField"
NOT_VECTOR_FIELD = "NotVectorField"
INCONCLUSIVE = "Inconclusive"


# The classifier's shrinking-neighborhood schedule: level k samples
# PROBE_SAMPLES points within PROBE_RADIUS0 * PROBE_DECAY^k of each seed and
# drives each for PROBE_HORIZON both ways.  An attained exit within
# PROBE_EPS_FACTOR times the level radius is a witness.
PROBE_RADIUS0 = 0.5
PROBE_DECAY = 0.25
PROBE_LEVELS = 6
PROBE_SAMPLES = 20
PROBE_EPS_FACTOR = 4.0
PROBE_HORIZON = 1.0
# The verdict on the levels' minimum interval radii: the last below
# ABS_FRACTION of the horizon and FAIL_RATIO of the largest fails (a level's
# minimum is set by the sample nearest the edge, so the first is no
# reference); every one at least ABS_FRACTION of the horizon and the last
# at least PASS_RATIO of the largest pass.  The absolute floor keeps radii of
# 1e-9 at every level, as on a half line given as two cells, which is not
# shown locally closed, from passing.
FAIL_RATIO = 0.3
PASS_RATIO = 0.5
ABS_FRACTION = 0.1


@dataclass
class VectorFieldVerdict:
    classification: str
    witness: Optional[dict]
    probes_run: int
    notes: list[str]
    diagnostics: dict


def classify_vector_field(
    space: SubcartesianSpace,
    fld: TangentField,
    seeds: Sequence[Sequence[float]],
    rng_seed: int = 0,
    options: Optional[FlowOptions] = None,
) -> VectorFieldVerdict:
    """Decide whether a derivation generates a local flow on the space.

    Negative answers are certified by a witness.  On a locally closed space,
    as the space derives it from its cells, an integral curve whose interval
    endpoint is attained inside the set at probe-commensurate times settles
    the question immediately.  The direct probe measures the minimal
    interval radius over shrinking sampled neighborhoods of the seeds: radii
    bounded away from zero at every level support a probabilistic positive,
    radii collapsing toward zero certify a negative, anything in between is
    inconclusive.  Probes start at the ``seeds`` and at points drawn around
    them by a generator seeded with ``rng_seed``.
    """
    opts = options or FlowOptions()
    rng = random.Random(rng_seed)
    seeds = [[float(v) for v in s] for s in seeds]
    if not seeds:
        raise ValueError("classification needs at least one seed point")
    for s in seeds:
        space.require_member(s, "seed")
    probes_run = 0
    m_levels: list[float] = []
    radii: list[float] = []
    min_witness: Optional[dict] = None
    diagnostics = {"radii": radii, "min_interval_radius": m_levels}
    # every level probes the seeds first; their drives are the same at each
    # level, so they run at level 0 only and are read again after that
    seed_drives: list[tuple[_DriveResult, _DriveResult]] = []

    for level in range(PROBE_LEVELS):
        r = PROBE_RADIUS0 * PROBE_DECAY**level
        radii.append(r)
        pts: list[list[float]] = list(seeds)
        for s in seeds:
            pts.extend(sample(space, PROBE_SAMPLES, ball(rng, s, r), BALL_TRIES))
        m_here = math.inf
        for i, y in enumerate(pts):
            if level and i < len(seeds):
                fwd, bwd = seed_drives[i]
            else:
                try:
                    fwd, bwd = _drives(space, fld, y, PROBE_HORIZON, opts, None)
                except IntegrationError as exc:
                    return VectorFieldVerdict(INCONCLUSIVE, None, probes_run,
                                              [f"integrator failure during probing: {exc}"], diagnostics)
                if i < len(seeds):
                    seed_drives.append((fwd, bwd))
            probes_run += 1
            if space.locally_closed:
                for res in (bwd, fwd):
                    wit = res.exit_witness
                    if res.reached or wit is None or not wit.attained:
                        continue
                    if abs(res.t_end) <= PROBE_EPS_FACTOR * r:
                        witness = {"kind": "attained-endpoint", "point": res.y_end, "endpoint_time": res.t_end,
                                   "probe_point": [float(v) for v in y], "level_radius": r}
                        return VectorFieldVerdict(NOT_VECTOR_FIELD, witness, probes_run,
                                                  ["interval endpoint attained inside the set"], diagnostics)
            radius = min(-bwd.t_end, fwd.t_end)  # the horizon where both drives reach it
            if radius < m_here:
                m_here = radius
                if min_witness is None or level == PROBE_LEVELS - 1:
                    min_witness = {
                        "kind": "shrinking-intervals",
                        "point": [float(v) for v in y],
                        "interval_radius": radius,
                        "level_radius": r,
                    }
        m_levels.append(m_here if math.isfinite(m_here) else PROBE_HORIZON)

    m_top, m_last = max(m_levels), m_levels[-1]
    if m_last <= ABS_FRACTION * PROBE_HORIZON and m_last <= FAIL_RATIO * max(m_top, 1e-300):
        return VectorFieldVerdict(NOT_VECTOR_FIELD, min_witness, probes_run,
                                  ["no uniform flow time: interval radii collapse under refinement"], diagnostics)

    if min(m_levels) >= ABS_FRACTION * PROBE_HORIZON and m_last >= PASS_RATIO * m_top:
        notes = ["uniform flow time; positive answers are probabilistic"]
        return VectorFieldVerdict(VECTOR_FIELD, None, probes_run, notes, diagnostics)
    notes = ["refinement exhausted without a certificate either way"]
    return VectorFieldVerdict(INCONCLUSIVE, None, probes_run, notes, diagnostics)
