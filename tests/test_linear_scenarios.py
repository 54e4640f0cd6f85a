"""Generated scenarios with closed-form answers: linear fields on R^n.

A derandomized strategy writes whole-space scenarios with two linear fields
x -> A x and x -> B x, integer entries in [-2, 2] on R^2 to R^4, and runs
the CLI on them through ``cli.main``, 100 examples in a few seconds.  The answers come from numpy and
scipy, never from subcart: the bracket of the two fields is (BA - AB) x in
the convention [X, Y]_i = X(Y_i) - Y(X_i), and the flow of A x is
exp(tA) x.
"""

from __future__ import annotations

import csv
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from test_scenario_schema import run

HORIZON = 0.5
FLOW_TOL = 1e-7  # relative to the largest coordinate; the integrator runs at rtol 1e-9


@st.composite
def linear_scenarios(draw):
    n = draw(st.integers(2, 4), label="n")
    entries = st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=n, max_size=n)
    a, b = draw(entries, label="A"), draw(entries, label="B")
    point = draw(st.lists(st.floats(-2.0, 2.0, allow_subnormal=False), min_size=n, max_size=n), label="point")
    return np.array(a, dtype=float), np.array(b, dtype=float), point


def _components(m: np.ndarray) -> list[str]:
    """The components of x -> M x as expression text."""
    return [" + ".join(f"{int(c)}*x{j + 1}" for j, c in enumerate(row) if c) or "0" for row in m]


def _result(*argv: str) -> dict:
    code, out, err = run(*argv)
    assert (code, err) == (0, ""), argv
    return json.loads(out)["result"]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(linear_scenarios())
def test_linear_fields_bracket_and_flow_match_closed_forms(tmp_path_factory, case):
    a, b, point = case
    n = len(point)
    tmp = tmp_path_factory.mktemp("linear")
    path = tmp / "linear.json"
    path.write_text(json.dumps({"name": "linear", "space": {"ambient_dim": n, "cells": [[]]},
                                "fields": {"a": _components(a), "b": _components(b)}}))
    at = "--point=" + ",".join(repr(v) for v in point)
    x = np.array(point)

    bracket = _result("bracket", "--scenario", str(path), "--x", "a", "--y", "b", at)
    want = (b @ a - a @ b) @ x
    assert np.allclose(bracket["value"], want, rtol=1e-12, atol=1e-12 * max(1.0, float(np.abs(x).max())))

    out = tmp / "curve.csv"
    flow = _result("flow", "--scenario", str(path), "--field", "a", at, "--horizon", repr(HORIZON),
                "--out", str(out))
    assert (flow["t_minus"], flow["t_plus"]) == (-HORIZON, HORIZON)
    assert flow["clipped_minus"] and flow["clipped_plus"]
    with open(out, newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    for row in (rows[0], rows[-1]):
        t, y = row[0], np.array(row[1:])
        assert abs(t) == HORIZON
        exact = expm(t * a) @ x
        assert np.abs(y - exact).max() <= FLOW_TOL * max(1.0, float(np.abs(exact).max())), (t, y, exact)
