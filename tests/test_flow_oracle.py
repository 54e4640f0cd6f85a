"""Independent oracles for the stepper: scipy's RK45, finite differences
and, for the kernels that test no cell, sympy's expansion of X f."""

from __future__ import annotations

import glob
import json

import numpy as np
import pytest

from subcart.cli import load_scenario
from subcart.expr import compile_scalar
from subcart.flow import FlowOptions, _flow_core, _kernel, flow_map, integrate, transport_vector
from subcart.poisson import hamiltonian_field
from subcart.space import SubcartesianSpace

from conftest import SCENARIO_DIR, make_field, scenario_path
from test_flow_golden import SPIRAL_DISK

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
    got = flow_map(SubcartesianSpace.whole_space(4), osc, x0, t)
    assert np.max(np.abs(got - _solve_ivp(osc, x0, t))) <= ORACLE_TOL


@pytest.mark.parametrize("t", [0.7, -1.5, 3.0])
def test_transport_vector_matches_central_differences(t):
    osc = _oscillator()
    probe = make_field("probe", ["1", "x3", "0", "x1*x2"], 4)
    x0 = np.array([0.3, -0.2, 0.5, 0.1])
    v0 = np.array(probe.value(x0.tolist()))
    image, vec = transport_vector(SubcartesianSpace.whole_space(4), osc, t, x0, v0, options=TIGHT)
    # flow_map runs at the default tolerances; its core takes the tight ones
    tight_flow = lambda x: np.array(_flow_core(SubcartesianSpace.whole_space(4), osc, TIGHT)(x.tolist(), t))
    plus = tight_flow(x0 + FD_STEP * v0)
    minus = tight_flow(x0 - FD_STEP * v0)
    assert np.max(np.abs(np.subtract(image, tight_flow(x0)))) <= 1e-12
    assert np.max(np.abs(np.subtract(vec, (plus - minus) / (2 * FD_STEP)))) <= FD_TOL


# Exit times.  Each space below is one constraint g, kept as g >= -tol or
# g < -tol, so the curve leaves where g + tol changes sign; scipy locates that
# time as a terminal event.  At rtol 1e-12 the observed gap is at most 1.2e-10.
EXIT_TOL = 1e-9


def _event_time(fld, g, x0, t_end, tol):
    event = lambda _t, y: g(list(y)) + tol
    event.terminal = True
    sol = scipy_integrate.solve_ivp(lambda _t, y: fld.value(list(y)), (0.0, t_end), x0,
                                    method="RK45", rtol=1e-11, atol=1e-13, events=event)
    assert sol.success
    return sol.t_events[0][0] if len(sol.t_events[0]) else t_end


@pytest.mark.parametrize("name,field,x0,horizon,attained", [
    # d/dx on [0, inf): the backward curve stops at the boundary point, attained at -x0
    ("halfline", "ddx", [0.25], 10.0, (True, None)),
    ("halfline", "ddx", [3.5], 10.0, (True, None)),
    # d/dx in the open disk of disk_line: open exits at both ends of the chord
    ("disk_line", "ddx", [0.1, 0.5], 3.0, (False, False)),
    ("disk_line", "ddx", [-0.4, 1.2], 3.0, (False, False)),
    ("disk_line", "ddx", [0.2, 0.05], 3.0, (False, False)),
    # an expanding spiral leaving an open disk through its curved edge
    ("spiral_disk", "spiral", [0.5, 0.25], 20.0, (None, False)),
    ("spiral_disk", "spiral", [-1.9, 0.3], 20.0, (None, False)),
])
def test_exit_times_match_solve_ivp_events(tmp_path, name, field, x0, horizon, attained):
    if name == SPIRAL_DISK["name"]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SPIRAL_DISK), encoding="utf-8")
        sc = load_scenario(str(path))
    else:
        sc = load_scenario(scenario_path(name))
    fld = sc.field(field)
    g = compile_scalar(sc.space.cells[0][0].expr)
    curve = integrate(sc.space, fld, x0, horizon=horizon, options=TIGHT)
    t_minus = _event_time(fld, g, x0, -horizon, sc.space.tol)
    t_plus = _event_time(fld, g, x0, horizon, sc.space.tol)
    assert abs(curve.t_minus - t_minus) <= EXIT_TOL
    assert abs(curve.t_plus - t_plus) <= EXIT_TOL
    for witness, clipped, want in ((curve.exit_minus, curve.clipped_minus, attained[0]),
                                   (curve.exit_plus, curve.clipped_plus, attained[1])):
        assert clipped is (want is None)
        assert (witness.attained if witness else None) is want


def _constrained_pairs(sympy) -> list:
    """(scenario, field name, the package's field, its space, whether sympy
    expands X f to 0 for every constraint f) for each field of each shipped
    scenario with constraints, reduction_r4's Hamiltonians of its generators
    among them; sympy reads the scenario's JSON text alone."""
    out = []
    for path in sorted(glob.glob(f"{SCENARIO_DIR}/*.json")):
        doc = json.loads(open(path, encoding="utf-8").read())
        cells = doc["space"]["cells"]
        if not all(cells):  # a cell of no constraints holds everywhere: no kernel there scans
            continue
        names = doc.get("aliases") or [f"x{i + 1}" for i in range(doc["space"]["ambient_dim"])]
        xs = sympy.symbols(names)
        local = dict(zip(names, xs))

        def read(text):
            return sympy.parse_expr(text.replace("^", "**"), local_dict=local)

        fs = [read(c["expr"]) for cell in cells for c in cell]
        sc = load_scenario(path)
        fields = [(name, sc.field(name), [read(t) for t in comps]) for name, comps in sorted(doc["fields"].items())]
        if "generators" in doc:  # X_h = sum_i P^ij d_i h
            rows = [[read(t) for t in row] for row in doc["poisson"]["bivector"]]
            for text, g in zip(doc["generators"], sc.generators):
                h = read(text)
                comps = [sum(rows[i][j] * sympy.diff(h, xs[i]) for i in range(len(xs))) for j in range(len(xs))]
                fields.append((f"X[{text}]", hamiltonian_field(sc.poisson, g), comps))
        for name, fld, comps in fields:
            zero = all(sympy.expand(sum(c * sympy.diff(f, x) for c, x in zip(comps, xs))) == 0 for f in fs)
            out.append((sc.name, name, fld, sc.space, zero))
    return out


def test_a_kernel_tests_no_cell_exactly_where_sympy_expands_each_x_f_to_0():
    # a scanning kernel defines its exit bisection beside its drive; the
    # guarded one of a field that keeps every constraint is the kernel of
    # no cells behind an end test, and defines none
    sympy = pytest.importorskip("sympy")
    decided = {}
    for scenario, name, fld, space, zero in _constrained_pairs(sympy):
        for keep in (None, "count", "store"):
            assert ("_bisect" in _kernel(fld, space, keep).__globals__) is not zero, (scenario, name, keep)
        decided[scenario, name] = zero
    assert sorted(k for k, zero in decided.items() if zero) == [
        ("circle", "rot"), ("cone", "rot"), ("rotation_plane", "rot")]
    assert sorted(k for k, zero in decided.items() if not zero) == [
        ("cone", "ddz"), ("cone", "euler"), ("disk_line", "ddx"), ("disk_line", "ddy"), ("halfline", "ddx"),
        ("halfline", "xddx"), ("reduction_r4", "X[s1]"), ("reduction_r4", "X[s2]"), ("reduction_r4", "X[s3]"),
        ("rotation_plane", "rad")]
