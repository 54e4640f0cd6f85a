"""Integration: closed-form flows, exits, witnesses, classification."""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcart.flow import (
    FlowDomainError,
    FlowOptions,
    IntegrationError,
    ProbeOptions,
    classify_vector_field,
    flow_map,
    integrate,
    transport_vector,
)
from subcart.flow import _initial_step, _mean, _rms
from subcart.space import SubcartesianSpace

from conftest import disk_line, halfline, make_field, punctured_plane, unit_circle

CLOSED_FORM_TOL = 1e-8
GROUP_LAW_TOL = 1e-7


def test_rotation_closed_form():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    for t in (0.3, 1.0, -2.5, 6.0):
        got = flow_map(pp, rot, [1.0, 0.0], t)
        assert np.allclose(got, [math.cos(t), math.sin(t)], atol=CLOSED_FORM_TOL)


def test_scaling_closed_form():
    hl = halfline()
    xddx = make_field("xddx", ["x1"], 1)
    for t in (0.5, -1.0, 2.0):
        got = flow_map(hl, xddx, [1.0], t)
        assert abs(got[0] - math.exp(t)) <= CLOSED_FORM_TOL * math.exp(max(t, 0.0))


def test_translation_exits_halfline():
    hl = halfline()
    ddx = make_field("ddx", ["1"], 1)
    assert np.allclose(flow_map(hl, ddx, [1.0], 3.0), [4.0], atol=1e-10)
    with pytest.raises(FlowDomainError) as exc:
        flow_map(hl, ddx, [1.0], -2.0)
    err = exc.value
    assert abs(err.achieved_t - (-1.0)) <= 1e-6
    assert err.exit_witness is not None
    assert err.exit_witness.attained
    assert abs(err.exit_witness.point[0]) <= 1e-6


def test_integrate_halfline_endpoint_attained():
    hl = halfline()
    ddx = make_field("ddx", ["1"], 1)
    curve = integrate(hl, ddx, [0.0], horizon=1.0)
    assert curve.clipped_plus
    assert not curve.clipped_minus
    assert curve.t_plus == 1.0
    assert abs(curve.t_minus) <= 1e-9
    w = curve.exit_minus
    assert w is not None
    assert w.attained
    # the witness is the first excluded point, a bisection step past -tol
    assert -2e-9 <= w.point[0] < 0.0
    assert w.cell_index == 0
    assert w.constraint_index == 0
    assert w.constraint == "x1"


def test_integrate_complete_field_is_clipped_both_sides():
    hl = halfline()
    xddx = make_field("xddx", ["x1"], 1)
    curve = integrate(hl, xddx, [1.0], horizon=2.0)
    assert curve.clipped_minus and curve.clipped_plus
    assert curve.exit_minus is None and curve.exit_plus is None
    assert curve.interval_radius() == 2.0


def test_integrate_zero_field_from_boundary_point():
    hl = halfline()
    xddx = make_field("xddx", ["x1"], 1)
    curve = integrate(hl, xddx, [0.0], horizon=5.0)
    assert curve.clipped_minus and curve.clipped_plus
    for t, p in curve.samples:
        assert abs(p[0]) <= 1e-12


def test_open_cell_exit_is_not_attained():
    dl = disk_line()
    ddy = make_field("ddy", ["0", "1"], 2)
    # straight up from inside the disk: leaves through the open boundary
    curve = integrate(dl, ddy, [0.0, 0.5], horizon=4.0)
    assert not curve.clipped_plus
    w = curve.exit_plus
    assert w is not None
    assert not w.attained
    assert abs(w.t - 1.5) <= 1e-6


def test_escape_time_matches_circle_chord():
    dl = disk_line()
    ddx = make_field("ddx", ["1", "0"], 2)
    for eps in (1e-2, 1e-3):
        curve = integrate(dl, ddx, [0.0, eps], horizon=1.0)
        expected = math.sqrt(2 * eps - eps * eps)
        assert abs(curve.t_plus - expected) <= 1e-6
        assert not curve.exit_plus.attained


def test_circle_flow_stays_on_equality_cell():
    circ = unit_circle()
    rot = make_field("rot", ["-x2", "x1"], 2)
    curve = integrate(circ, rot, [1.0, 0.0], horizon=7.0)
    assert curve.clipped_minus and curve.clipped_plus
    for t, p in curve.samples:
        assert abs(p[0] ** 2 + p[1] ** 2 - 1.0) <= 1e-7


def test_tight_equality_band_cuts_long_flows():
    # at tol 1e-9 the integrator's own constraint drift crosses the
    # membership band after a few time units: the curve ends early with an
    # attained exit even though the field is tangent
    circ = unit_circle(tol=1e-9)
    rot = make_field("rot", ["-x2", "x1"], 2)
    curve = integrate(circ, rot, [1.0, 0.0], horizon=7.0)
    assert not (curve.clipped_minus and curve.clipped_plus)
    w = curve.exit_plus or curve.exit_minus
    assert w.attained
    assert abs(w.point[0] ** 2 + w.point[1] ** 2 - 1.0) <= 1e-8


def test_group_law():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(30):
        t, s = rng.uniform(-2, 2, size=2)
        ang = rng.uniform(0, 2 * math.pi)
        r = rng.uniform(0.5, 1.5)
        x = np.array([r * math.cos(ang), r * math.sin(ang)])
        a = flow_map(pp, rot, x, t + s)
        b = flow_map(pp, rot, flow_map(pp, rot, x, s), t)
        worst = max(worst, float(np.linalg.norm(a - b)))
    assert worst <= GROUP_LAW_TOL


def test_flow_map_rejects_outside_basepoint_and_bad_horizon():
    hl = halfline()
    ddx = make_field("ddx", ["1"], 1)
    with pytest.raises(Exception):
        flow_map(hl, ddx, [-1.0], 1.0)
    with pytest.raises(ValueError):
        integrate(hl, ddx, [1.0], horizon=0.0)


def test_flow_map_unconstrained_space():
    ddx = make_field("ddx", ["1"], 1)
    got = flow_map(None, ddx, [-5.0], 3.0)
    assert np.allclose(got, [-2.0])


def test_max_steps_exhaustion():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    opts = FlowOptions(max_steps=3)
    with pytest.raises(IntegrationError):
        integrate(pp, rot, [1.0, 0.0], horizon=50.0, options=opts)


def test_transport_vector_rotation():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    ddx = make_field("ddx", ["1", "0"], 2)
    t = math.pi / 2
    image, vec = transport_vector(pp, rot, t, ddx, [1.0, 0.0])
    assert np.allclose(image, [0.0, 1.0], atol=1e-8)
    assert np.allclose(vec, [0.0, 1.0], atol=1e-7)


def test_transport_vector_shear_probe():
    plane = SubcartesianSpace.whole_space(2)
    ddx = make_field("ddx", ["1", "0"], 2)
    xddy = make_field("xddy", ["0", "x1"], 2)
    image, vec = transport_vector(plane, ddx, -1.0, xddy, [1.0, 0.0])
    assert np.allclose(image, [0.0, 0.0], atol=1e-9)
    # flow of ddx has identity derivative, so the vector rides unchanged
    assert np.allclose(vec, [0.0, 1.0], atol=1e-9)


def test_integrate_deterministic():
    dl = disk_line()
    ddx = make_field("ddx", ["1", "0"], 2)
    a = integrate(dl, ddx, [0.0, 0.5], horizon=2.0)
    b = integrate(dl, ddx, [0.0, 0.5], horizon=2.0)
    assert a.t_plus == b.t_plus and a.t_minus == b.t_minus
    assert len(a.samples) == len(b.samples)
    for (ta, pa), (tb, pb) in zip(a.samples, b.samples):
        assert ta == tb and np.array_equal(pa, pb)


def test_classify_halfline_fields():
    hl = halfline()
    probe = ProbeOptions(seeds=((0.0,), (1.0,)))
    bad = classify_vector_field(hl, make_field("ddx", ["1"], 1), probe)
    assert bad.classification == "NotVectorField"
    assert bad.witness["kind"] == "attained-endpoint"
    assert abs(bad.witness["point"][0]) <= 1e-9
    good = classify_vector_field(hl, make_field("xddx", ["x1"], 1), probe)
    assert good.classification == "VectorField"
    assert good.probes_run >= 100


def test_classify_not_locally_closed_uses_interval_shrinkage():
    dl = disk_line()
    probe = ProbeOptions(seeds=((0.0, 0.0),))
    verdict = classify_vector_field(dl, make_field("ddx", ["1", "0"], 2), probe)
    assert verdict.classification == "NotVectorField"
    assert verdict.witness["kind"] == "shrinking-intervals"
    # the witness point sits in the last shrinking neighborhood of the seed
    assert np.linalg.norm(verdict.witness["point"]) <= 1e-2
    assert verdict.witness["interval_radius"] > verdict.witness["level_radius"]
    ok = classify_vector_field(dl, make_field("ddy_scaled", ["0", "x2"], 2), probe)
    assert ok.classification != "NotVectorField"


# The stepper's list arithmetic must match the numpy expressions it replaced
# bit for bit; lengths up to 40 cross numpy's 8-lane pairwise summation block.

_FLOATS = st.one_of(
    st.floats(-1.0, 1.0),
    st.floats(-1e-9, 1e-9),
    st.floats(allow_nan=False, allow_infinity=False),
)
_VECTORS = st.lists(_FLOATS, min_size=1, max_size=40)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=200, deadline=None)
@given(_VECTORS)
def test_list_mean_and_rms_match_numpy_bitwise(v):
    with np.errstate(all="ignore"):
        want_mean = float(np.mean(np.asarray(v)))
        want_rms = math.sqrt(float(np.mean(np.asarray(v) ** 2)))
    assert _bits(_mean(v)) == _bits(want_mean)
    assert _bits(_rms(v)) == _bits(want_rms)


def _numpy_initial_step(y, f0, rtol, atol, limit):
    y = np.asarray(y, dtype=float)
    f0 = np.asarray(f0, dtype=float)
    sk = atol + rtol * np.abs(y)
    d0 = math.sqrt(float(np.mean((y / sk) ** 2)))
    d1 = math.sqrt(float(np.mean((f0 / sk) ** 2)))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    return min(h0, limit) if limit > 0 else h0


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 40).flatmap(lambda n: st.tuples(
        st.lists(_FLOATS, min_size=n, max_size=n), st.lists(_FLOATS, min_size=n, max_size=n))),
    st.floats(1e-13, 1e-3),
    st.floats(1e-15, 1e-6),
    st.floats(0.0, 100.0),
)
def test_list_initial_step_matches_numpy_bitwise(yf, rtol, atol, limit):
    y, f0 = yf
    with np.errstate(all="ignore"):
        want = _numpy_initial_step(y, f0, rtol, atol, limit)
    assert _bits(_initial_step(y, f0, rtol, atol, limit)) == _bits(want)
