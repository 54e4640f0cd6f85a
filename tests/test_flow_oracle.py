"""Independent oracles for the stepper: scipy's RK45 and finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from subcart.cli import load_scenario
from subcart.flow import FlowOptions, flow_map, transport_vector

from conftest import make_field, scenario_path

scipy_integrate = pytest.importorskip("scipy.integrate")

# scipy runs the same Dormand-Prince pair with its own step control, at a
# tighter tolerance than flow_map's defaults (rtol 1e-9, atol 1e-12)
ORACLE_TOL = 1e-8
FD_STEP = 1e-5
FD_TOL = 1e-9
TIGHT = FlowOptions(rtol=1e-12, atol=1e-14)


def _oscillator():
    return make_field("osc", ["x2", "-x1 - 0.3*x2*x3", "x4", "-x3 + 0.5*x1^2"], 4)


def _solve_ivp(fld, x0, t):
    sol = scipy_integrate.solve_ivp(lambda _t, y: fld.value(y.tolist()), (0.0, t), x0,
                                  method="RK45", rtol=1e-11, atol=1e-13)
    assert sol.success
    return sol.y[:, -1]


@pytest.mark.parametrize("x0,t", [
    ([1.0, 0.0], 0.4), ([0.6, -0.8], 3.0), ([-0.3, 1.7], -5.5), ([1.2, 0.5], 12.0),
])
def test_flow_map_matches_solve_ivp_rotation(x0, t):
    sc = load_scenario(scenario_path("rotation_plane"))
    rot = sc.field("rot")
    got = flow_map(sc.space, rot, x0, t)
    assert np.max(np.abs(got - _solve_ivp(rot, x0, t))) <= ORACLE_TOL


@pytest.mark.parametrize("x0,t", [
    ([0.3, -0.2, 0.5, 0.1], 0.7), ([0.3, -0.2, 0.5, 0.1], -2.0), ([-0.8, 0.4, 0.0, 0.6], 4.0),
])
def test_flow_map_matches_solve_ivp_nonlinear_4d(x0, t):
    osc = _oscillator()
    got = flow_map(None, osc, x0, t)
    assert np.max(np.abs(got - _solve_ivp(osc, x0, t))) <= ORACLE_TOL


@pytest.mark.parametrize("t", [0.7, -1.5, 3.0])
def test_transport_vector_matches_central_differences(t):
    osc = _oscillator()
    probe = make_field("probe", ["1", "x3", "0", "x1*x2"], 4)
    x0 = np.array([0.3, -0.2, 0.5, 0.1])
    image, vec = transport_vector(None, osc, t, probe, x0, options=TIGHT)
    v0 = probe(x0)
    plus = flow_map(None, osc, x0 + FD_STEP * v0, t, TIGHT)
    minus = flow_map(None, osc, x0 - FD_STEP * v0, t, TIGHT)
    assert np.max(np.abs(image - flow_map(None, osc, x0, t, TIGHT))) <= 1e-12
    assert np.max(np.abs(vec - (plus - minus) / (2 * FD_STEP))) <= FD_TOL
