"""Command line driver: scenarios, exit codes, reports, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import subcart
from subcart.cli import DEFAULT_TOLERANCES, load_scenario, main
from subcart.cli import SchemaError
from subcart.report import canonical_json

from conftest import (
    GOLDEN_DIR, assert_golden, cone_without_polynomials, exit_code_of, jacobi_control_on_sphere, scenario_path,
)
from test_imports import KAHLER_INF, KAHLER_NAN, OVERFLOW_EXIT, _fresh


def run(capsys, *argv: str) -> tuple[int, dict, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else {}
    return code, report, captured.err


def run_bytes(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_missing_scenario_file(capsys):
    code, report, err = run(capsys, "flow", "--scenario", "/nope/missing.json",
                            "--field", "f", "--point", "0")
    assert code == 2
    assert report == {}
    assert "error:" in err


def test_malformed_scenario_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "flow", "--scenario", str(p), "--field", "f",
                       "--point", "0")
    assert code == 2
    assert "$" in err


def test_schema_error_reports_json_path(tmp_path):
    p = tmp_path / "bad_rel.json"
    doc = {
        "name": "bad",
        "space": {
            "ambient_dim": 1,
            "cells": [[{"expr": "x1", "rel": "bogus"}]],
            "locally_closed": True,
        },
    }
    p.write_text(json.dumps(doc))
    with pytest.raises(SchemaError) as exc:
        load_scenario(str(p))
    assert "$.space.cells[0][0].rel" in str(exc.value)


def test_load_scenario_shapes():
    sc = load_scenario(scenario_path("halfline"))
    assert sc.name == "halfline"
    assert len(sc.sha256) == 64
    assert sc.space.ambient_dim == 1
    assert sorted(sc.fields) == ["ddx", "xddx"]
    assert sc.family("default").labels() == ["xddx"]
    assert sc.seeds["default"] == [[0.0], [1.0]]
    with pytest.raises(Exception):
        sc.field("nope")


def test_classify_exit_codes(capsys):
    code, rep, _ = run(capsys, "classify", "--scenario", scenario_path("halfline"),
                       "--field", "ddx")
    assert code == 1
    assert rep["result"]["classification"] == "NotVectorField"
    assert rep["command"] == "classify"
    assert rep["scenario"]["name"] == "halfline"
    code2, rep2, _ = run(capsys, "classify", "--scenario", scenario_path("halfline"),
                         "--field", "xddx")
    assert code2 == 0
    # xddx scales the half line onto itself, X x = 1 * x: certified exactly,
    # with no probe (the sampler's >= 100 probes are acceptance criterion 1's)
    assert rep2["result"]["classification"] == "VectorField"
    assert (rep2["result"]["basis"], rep2["result"]["quotients"], rep2["result"]["probes_run"]) == ("exact", [["1"]], 0)


# rot is tangent to the cone and to the circle, yet the sampler read the
# integrator's drift out of the equality's band, relaxed tenfold, as an
# attained endpoint: cone rot exited 1 after 7 probes at rtol 2e-9 (1 at
# 5e-9 and 1e-8), circle rot at 1e-5.  The certificate runs no probe.
@pytest.mark.parametrize("name,rtol,quotients", [("cone", 2e-9, [["0", "0"]]), ("cone", 5e-9, [["0", "0"]]),
                                                 ("cone", 1e-8, [["0", "0"]]), ("circle", 1e-5, [["0"]])])
def test_classify_certifies_rot_at_loose_tolerances(capsys, name, rtol, quotients):
    code, rep, err = run(capsys, "classify", "--scenario", scenario_path(name), "--field", "rot",
                         "--tol-overrides", json.dumps({"rtol": rtol}))
    assert (code, err) == (0, "")
    result = rep["result"]
    assert (result["classification"], result["basis"], result["quotients"], result["probes_run"], result["witness"]) \
        == ("VectorField", "exact", quotients, 0, None)


def test_classify_certifies_a_cube_on_the_half_line(tmp_path, capsys):
    # x^3 d/dx blows up from x = 1 at t = 1/2, which the sampler took for an
    # integrator failure and answered Inconclusive; X x = x^2 * x
    doc = json.loads(open(scenario_path("halfline"), encoding="utf-8").read())
    doc["fields"]["cube"] = ["x^3"]
    path = tmp_path / "cube.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, rep, _ = run(capsys, "classify", "--scenario", str(path), "--field", "cube")
    assert code == 0
    assert (rep["result"]["classification"], rep["result"]["basis"], rep["result"]["quotients"]) == \
        ("VectorField", "exact", [["x1^2"]])


# the unit circle written as exp(x^2+y^2-1)-1 = 0, beyond the certificate's
# reach: rot is tangent (X f = 0), yet at rtol 1e-5 the integrator drifted
# out of the band in 1 probe, and the sampler answered NotVectorField with an
# attained endpoint at (0.880, -0.475)
EXP_CIRCLE = {"name": "exp-circle", "aliases": ["x", "y"],
              "space": {"ambient_dim": 2, "tol": 1e-6,
                        "cells": [[{"expr": "exp(x^2+y^2-1)-1", "rel": "eq0"}]]},
              "fields": {"rot": ["-y", "x"]}, "seeds": {"default": [[1.0, 0.0]]}}


@pytest.mark.parametrize("rtol", [1e-5, 1e-4])
def test_classify_takes_no_drift_off_an_equality_for_an_exit(tmp_path, capsys, rtol):
    path = tmp_path / "exp-circle.json"
    path.write_text(json.dumps(EXP_CIRCLE), encoding="utf-8")
    code, rep, err = run(capsys, "classify", "--scenario", str(path), "--field", "rot",
                         "--tol-overrides", json.dumps({"rtol": rtol}))
    assert (code, err) == (0, "")
    result = rep["result"]
    assert result["classification"] == "Inconclusive"
    assert result["witness"]["kind"] == "attained-endpoint"  # the sampler's, kept
    assert result["notes"][-1].startswith("the endpoint is on an equality f with X f = 0 there up to rounding")
    x, y = result["witness"]["point"]
    assert abs(x * x + y * y - 1) < 1e-4


def test_classify_keeps_an_exit_across_an_equality_and_an_inequality(tmp_path, capsys):
    # cone ddz crosses x^2+y^2-z^2 = 0 at speed 2z; the half line's exit is
    # across x >= 0, no equality; the exp circle's exit along rot is on its
    # y >= 0 band once the circle is cut in half, so it is a true exit
    code, rep, _ = run(capsys, "classify", "--scenario", scenario_path("cone"), "--field", "ddz")
    assert (code, rep["result"]["classification"]) == (1, "NotVectorField")
    half = json.loads(json.dumps(EXP_CIRCLE))
    half["space"]["cells"][0].append({"expr": "y", "rel": "geq0"})
    half["seeds"]["default"] = [[1.0, 0.0]]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(half), encoding="utf-8")
    code, rep, _ = run(capsys, "classify", "--scenario", str(path), "--field", "rot")
    assert (code, rep["result"]["classification"]) == (1, "NotVectorField")


def test_classify_checks_the_seeds_of_a_certified_pair(tmp_path, capsys):
    # the seeds are the space's points, certificate or not, with the sampler's error line
    seeds = tmp_path / "seeds.json"
    seeds.write_text("[[-1.0]]", encoding="utf-8")
    code, rep, err = run(capsys, "classify", "--scenario", scenario_path("halfline"), "--field", "xddx",
                         "--seeds", str(seeds))
    assert (code, rep) == (2, {})
    assert err == "error: seed [-1.0] is not in the space (slack -1.000e+00)\n"


def test_unknown_field_is_usage_error(capsys):
    code, _, err = run(capsys, "classify", "--scenario", scenario_path("halfline"),
                       "--field", "nope")
    assert code == 2
    assert "nope" in err


def test_flow_writes_csv_and_json(tmp_path, capsys):
    csv_out = tmp_path / "curve.csv"
    code, rep, _ = run(capsys, "flow", "--scenario", scenario_path("rotation_plane"),
                       "--field", "rot", "--point", "1,0", "--horizon", "1.0",
                       "--out", str(csv_out))
    assert code == 0
    lines = csv_out.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2"
    last = [float(v) for v in lines[-1].split(",")]
    assert abs(last[0] - 1.0) <= 1e-12
    assert abs(last[1] - np.cos(1.0)) <= 1e-8

    json_out = tmp_path / "curve.json"
    code2, _, _ = run(capsys, "flow", "--scenario", scenario_path("rotation_plane"),
                      "--field", "rot", "--point", "1,0", "--horizon", "1.0",
                      "--out", str(json_out))
    assert code2 == 0
    _, stdout_text = run_bytes(capsys, "flow", "--scenario",
                               scenario_path("rotation_plane"), "--field", "rot",
                               "--point", "1,0", "--horizon", "1.0")
    assert json_out.read_text() == stdout_text


def test_orbit_csv_words_sidecar(tmp_path, capsys):
    cloud = tmp_path / "cloud.csv"
    code, rep, _ = run(capsys, "orbit", "--scenario", scenario_path("translate_shear"),
                       "--point", "0,0", "--budget", "80", "--out", str(cloud))
    assert code == 0
    assert rep["result"]["est_dimension"] == 2
    assert rep["result"]["n_points"] == 80
    lines = cloud.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,word_id"
    assert len(lines) == 81
    sidecar = tmp_path / "cloud.words.json"
    words = json.loads(sidecar.read_text())["words"]
    assert len(words) == 80
    assert words[0] == []


def test_chart_dependent_basis_exit(capsys):
    # the orbit through (0, 0) is the whole plane, though the fields span
    # rank 1 there: a rank-deficient chart is inconclusive, not a failure
    code, rep, _ = run(capsys, "chart", "--scenario", scenario_path("translate_shear"),
                       "--family", "default", "--point", "0,0", "--basis", "0,1")
    assert code == 0
    assert rep["result"]["verdict"] == "DependentBasis"
    assert rep["result"]["detail"] == (
        "basis fields ['ddx', 'xddy'] span only rank 1 at [0.0, 0.0]; the pointwise rank is only "
        "a lower bound on the orbit dimension, so the chart is inconclusive")
    code2, rep2, _ = run(capsys, "chart", "--scenario", scenario_path("translate_shear"),
                         "--family", "default", "--point", "1,0")
    assert code2 == 0
    assert rep2["result"]["rank"] == 2
    assert rep2["result"]["agreement"] <= 1e-5


@pytest.mark.parametrize("family", ["one", "two"])
def test_chart_whose_singular_value_overflows_exits_2(tmp_path, capsys, family):
    # the largest singular value of (1.5e308, 1.5e308) is some 2.1e308; scaled
    # back with math.ldexp, it ended in "internal error: OverflowError"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "name": "huge", "space": {"ambient_dim": 2, "cells": [[]], "locally_closed": True},
        "fields": {"big": ["1.5e308", "1.5e308"], "up": ["0", "1"]},
        "families": {"one": ["big"], "two": ["big", "up"]},
    }))
    code, report, err = run(capsys, "chart", "--scenario", str(path), "--point=0,0", "--family", family)
    assert (code, report) == (2, {})
    assert err == "error: a singular value of the basis fields at [0.0, 0.0] is beyond the largest float\n"


# Every field of the family vanishes at these points, so each orbit is the
# point alone: the exploration merged 16,000 and 20,001 attempts back into it.
@pytest.mark.parametrize("argv", [
    ["orbit", "--scenario", scenario_path("cone"), "--point=0,0,0"],
    ["leaf", "--scenario", scenario_path("reduction_r4"), "--point=0,0,0,0"],
])
def test_orbit_of_a_fixed_point_is_the_point_at_once(capsys, argv):
    code, rep, _ = run(capsys, *argv)
    assert code == 0
    result = rep["result"]
    assert (result["n_points"], result["est_dimension"]) == (1, 0)
    d = result["diagnostics"]
    assert (d["attempts"], d["merged"], d["flow_failures"], d["fixed_point"]) == (0, 0, 0, True)
    assert d["span_dimensions"] == [0]


def test_chart_at_a_fixed_point_is_0_dimensional(capsys):
    code, rep, _ = run(capsys, "chart", "--scenario", scenario_path("cone"), "--point=0,0,0")
    assert code == 0
    result = rep["result"]
    assert (result["verdict"], result["rank"], result["basepoint"]) == ("FixedPoint", 0, [0, 0, 0])
    # one vanishing field of two is no fixed point: ddx moves the axis x = 0
    code, rep, _ = run(capsys, "chart", "--scenario", scenario_path("translate_shear"), "--point=0,0.5")
    assert (code, rep["result"]["verdict"]) == (0, "DependentBasis")
    code, rep, _ = run(capsys, "orbit", "--scenario", scenario_path("translate_shear"), "--point=0,0.5",
                       "--budget", "40")
    assert code == 0 and rep["result"]["n_points"] == 40
    assert "fixed_point" not in rep["result"]["diagnostics"]


def test_complete_probe_pass_and_fail(capsys):
    code, rep, _ = run(capsys, "complete-probe", "--scenario",
                       scenario_path("rotation_plane"), "--family", "rotation")
    assert code == 0
    assert rep["result"]["passed"] is True
    code2, rep2, _ = run(capsys, "complete-probe", "--scenario",
                         scenario_path("translate_shear"), "--family", "default",
                         "--seeds", "chart")
    assert code2 in (0, 1)


def test_strata_checks(capsys):
    code, rep, _ = run(capsys, "strata", "--scenario", scenario_path("cone"),
                       "--check", "frontier")
    assert code == 0
    assert rep["result"]["passed"] is True
    # the triviality flag is declared scenario data, echoed but never computed
    assert rep["result"]["declared_locally_trivial"] is False
    code2, rep2, _ = run(capsys, "strata", "--scenario", scenario_path("cone"),
                         "--check", "tangency", "--field", "ddz")
    assert code2 == 1
    assert rep2["result"]["passed"] is False
    assert rep2["tolerances"]["drift"] == 1e-6
    assert rep2["result"]["declared_locally_trivial"] is False


def test_strata_declared_triviality_flag_echo(tmp_path, capsys):
    with open(scenario_path("cone")) as fh:
        raw = json.load(fh)
    raw["locally_trivial"] = True
    p = tmp_path / "cone_trivial.json"
    p.write_text(json.dumps(raw))
    code, rep, _ = run(capsys, "strata", "--scenario", str(p), "--check", "frontier")
    assert code == 0
    assert rep["result"]["declared_locally_trivial"] is True


def _plane_strata(tmp_path, strata: list) -> str:
    """A scenario file of the whole plane, the box [-1, 1]^2 and ``strata``,
    each a name, its cells as (expr, rel) pairs and its dimension."""
    doc = {"name": "plane", "space": {"ambient_dim": 2, "cells": [[]]}, "fields": {},
           "strata": [{"name": name, "dim": dim,
                       "cells": [[{"expr": e, "rel": r} for e, r in cell] for cell in cells]}
                      for name, cells, dim in strata],
           "box": [[-1.0, -1.0], [1.0, 1.0]]}
    p = tmp_path / "plane.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_strata_frontier_violation_exits_1(tmp_path, capsys):
    # the axis touches the closed quadrant at x1 >= 0 only, so every axis
    # sample at x1 < 0 violates the frontier condition
    p = _plane_strata(tmp_path, [("axis", [[("x2", "eq0")]], 1),
                                 ("quadrant", [[("x1", "gt0"), ("x2", "gt0")]], 2),
                                 ("rest", [[("x1", "leq0"), ("x2", "gt0")], [("x2", "lt0")]], 2)])
    code, rep, _ = run(capsys, "strata", "--scenario", p, "--check", "frontier")
    res = rep["result"]
    assert code == 1 and res["passed"] is False
    assert res["coverage_failures"] == res["disjointness_failures"] == []
    assert len(res["frontier_violations"]) == 21
    for v in res["frontier_violations"]:
        (x1, x2), d = v["point"], v["distance"]
        assert (v["m"], v["n"]) == ("axis", "quadrant") and x2 == 0.0
        # the distance is a sampled upper estimate of the exact one
        assert d > 1e-4 and d >= max(0.0, -x1)


def test_strata_coverage_and_overlap_failures_exit_1(tmp_path, capsys):
    # nothing covers 0 <= x2 <= 0.5, and the band lies inside low
    p = _plane_strata(tmp_path, [("high", [[("x2 - 0.5", "gt0")]], 2),
                                 ("low", [[("x2", "lt0")]], 2),
                                 ("band", [[("x2 + 0.5", "gt0"), ("x2", "lt0")]], 2)])
    code, rep, _ = run(capsys, "strata", "--scenario", p, "--check", "frontier")
    res = rep["result"]
    assert code == 1 and res["passed"] is False
    assert len(res["coverage_failures"]) == 27
    assert all(f["strata"] == [] and 0.0 <= f["point"][1] <= 0.5 for f in res["coverage_failures"])
    assert len(res["disjointness_failures"]) == 119
    assert all({"low", "band"} <= set(f["strata"]) for f in res["disjointness_failures"])


def test_strata_precondition_failure(capsys):
    code, rep, _ = run(capsys, "strata", "--scenario", scenario_path("cone"),
                       "--check", "orbits", "--family", "transverse")
    assert code == 1
    assert rep["result"]["verdict"] == "PreconditionFailed"


@pytest.mark.parametrize("edit,error", [
    ({"seeds": {"default": [[1.0, 0.0, 0.5]]}}, "error: seed [1.0, 0.0, 0.5] lies in no declared stratum\n"),
    ({"box": [[-3, -3, -3], [3, 3, -2]]}, "error: stratum 'surface' produced no samples in the given box\n"),
], ids=["seed-in-no-stratum", "box-without-stratum-samples"])
def test_strata_orbits_bad_input_exits_2(tmp_path, capsys, edit, error):
    # only a field that is not strongly stratified is a certified
    # PreconditionFailed; these are bad input, as for --check tangency
    with open(scenario_path("cone")) as fh:
        raw = json.load(fh)
    p = tmp_path / "cone.json"
    p.write_text(json.dumps({**raw, **edit}))
    assert run(capsys, "strata", "--scenario", str(p), "--check", "orbits", "--budget", "20") == (2, {}, error)


def test_poisson_and_control(capsys):
    code, rep, _ = run(capsys, "poisson", "--scenario", scenario_path("canonical_r2"))
    assert code == 0
    assert rep["result"]["passed"] is True
    assert rep["result"]["jacobi_residual"] <= 1e-8
    code2, rep2, _ = run(capsys, "poisson", "--scenario",
                         scenario_path("jacobi_control"))
    assert code2 == 1
    assert rep2["result"]["jacobi_residual"] >= 0.1


def test_reduce_command(capsys):
    code, rep, _ = run(capsys, "reduce", "--scenario", scenario_path("reduction_r4"))
    assert code == 0
    res = rep["result"]
    assert res["meta"]["certified_points"] == 200
    assert res["meta"]["certified_residual"] <= 1e-10
    # invariants echo in canonical coordinates, aliases are input-only
    assert res["invariants"] == [
        "x1^2 + x2^2", "x3^2 + x4^2", "x1*x3 + x2*x4", "x1*x4 - x2*x3",
    ]


def test_reduce_rejection(tmp_path, capsys):
    doc = {
        "name": "norot",
        "space": {"ambient_dim": 2, "cells": [[]], "locally_closed": True},
        "fields": {},
        "reduction": {"ambient_dim": 2, "invariants": ["x1^2", "x2"]},
        "box": [[-1.0, -1.0], [1.0, 1.0]],
    }
    p = tmp_path / "norot.json"
    p.write_text(json.dumps(doc))
    code, rep, _ = run(capsys, "reduce", "--scenario", str(p))
    assert code == 1
    assert rep["result"]["verdict"] == "NotReducible"
    assert rep["result"]["detail"] == (
        "bracket of invariants 1 and 2 ('x1^2', 'x2') is not expressible in the invariants up to degree 2: "
        "no combination of their monomials equals it")


def test_leaf_command(tmp_path, capsys):
    out = tmp_path / "leaf.csv"
    code, rep, _ = run(capsys, "leaf", "--scenario", scenario_path("reduction_r4"),
                       "--point", "1,1,1,0", "--budget", "120", "--out", str(out))
    assert code == 0
    assert rep["result"]["max_casimir_drift"] <= 1e-6
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,x3,x4,word_id"
    assert len(lines) == 121


def test_acs_commands(capsys):
    code, rep, _ = run(capsys, "acs", "--scenario", scenario_path("acs_variable"),
                       "--check", "torsion", "--x", "e1", "--y", "e3",
                       "--point", "1,0,0,0")
    assert code == 0
    val = rep["result"]["value"]
    assert np.allclose(val, [0.0, 0.0, -2.0, 0.0], atol=1e-10)
    code2, rep2, _ = run(capsys, "acs", "--scenario", scenario_path("acs_standard"),
                         "--check", "kahler")
    assert code2 == 0
    assert rep2["result"]["passed"] is True
    code3, rep3, _ = run(capsys, "acs", "--scenario", scenario_path("acs_standard"),
                         "--check", "cr", "--f", "q1", "--h", "q2")
    assert code3 == 0


def test_acs_failures(tmp_path, capsys):
    flipped = {
        "name": "flipped",
        "space": {"ambient_dim": 2, "cells": [[]], "locally_closed": True},
        "fields": {"e1": ["1", "0"], "e2": ["0", "1"]},
        "acs": {
            "matrix": [["0", "1"], ["-1", "0"]],
            "omega": [["0", "1"], ["-1", "0"]],
        },
        "box": [[-1.0, -1.0], [1.0, 1.0]],
    }
    p = tmp_path / "flipped.json"
    p.write_text(json.dumps(flipped))
    code, rep, _ = run(capsys, "acs", "--scenario", str(p), "--check", "kahler")
    assert code == 1
    assert rep["result"]["passed"] is False
    assert rep["result"]["positive"] is False

    degenerate = dict(flipped)
    degenerate["name"] = "degenerate"
    degenerate["acs"] = {
        "matrix": [["0", "-1"], ["1", "0"]],
        "omega": [["0", "0"], ["0", "0"]],
    }
    p2 = tmp_path / "degenerate.json"
    p2.write_text(json.dumps(degenerate))
    code2, rep2, _ = run(capsys, "acs", "--scenario", str(p2), "--check", "kahler")
    assert code2 == 1
    assert rep2["result"]["verdict"] == "Degenerate"

    not_acs = dict(flipped)
    not_acs["name"] = "notacs"
    not_acs["acs"] = {"matrix": [["1", "0"], ["0", "1"]]}
    p3 = tmp_path / "notacs.json"
    p3.write_text(json.dumps(not_acs))
    code3, rep3, _ = run(capsys, "acs", "--scenario", str(p3), "--check", "torsion",
                         "--x", "e1", "--y", "e2")
    assert code3 == 1
    assert rep3["result"]["verdict"] == "NotAlmostComplex"


def _unpolynomial_cone(tmp_path) -> str:
    path = tmp_path / "cone-exp.json"
    path.write_text(json.dumps(cone_without_polynomials()))
    return str(path)


def test_tol_overrides(tmp_path, capsys):
    # rot keeps the cone exactly, whatever the drift tolerance: the sampled
    # check exited 1 at 1e-12 on the integrator's drift of 8.9e-10, as it
    # still does where the certificate cannot read the field
    for path, want in ((scenario_path("cone"), 0), (_unpolynomial_cone(tmp_path), 1)):
        code, rep, _ = run(capsys, "strata", "--scenario", path, "--check", "tangency", "--field", "rot",
                           "--tol-overrides", '{"drift": 1e-12}')
        assert code == want and ("basis" in rep["result"]) == (want == 0)
        assert rep["tolerances"]["drift"] == 1e-12
    code2, _, err = run(capsys, "strata", "--scenario", scenario_path("cone"),
                        "--check", "tangency", "--field", "rot",
                        "--tol-overrides", "not-json")
    assert code2 == 2
    assert "tol-overrides" in err


def test_strata_orbits_passes_its_precondition_at_a_short_horizon(tmp_path, capsys):
    # answered PreconditionFailed: rot and euler drifted 6.98e-14, the
    # residual a sample had at t = 0, once drift_tol * horizon fell below
    # it; on the shipped cone both fields are certified and skip it
    code, report, _ = run(capsys, "strata", "--scenario", _unpolynomial_cone(tmp_path), "--check", "orbits",
                          "--horizon", "1e-8")
    assert code == 0 and report["result"]["passed"]
    assert [p.get("basis") for p in report["result"]["precondition"]] == [None, None]


# each command, with its --check, and the tolerances it reads: 33 of the 13
# tolerances on 15 command/--check pairs that every report used to echo
_READS = [
    (["flow", "halfline", "--field", "ddx", "--point=0.5", "--horizon", "2"], {"rtol", "atol"}),
    (["classify", "halfline", "--field", "ddx"], {"rtol", "atol"}),
    (["bracket", "translate_shear", "--x", "ddx", "--y", "xddy", "--point=1,2"], set()),
    (["orbit", "translate_shear", "--point=0,0", "--budget", "20"], {"rank", "rtol", "atol"}),
    (["chart", "translate_shear", "--point=0.7,0.2"], {"rank", "rtol", "atol"}),
    (["complete-probe", "rotation_plane", "--family", "pair", "--seeds", "ring", "--n", "3"],
     {"completeness", "rtol", "atol"}),
    (["strata", "cone", "--check", "frontier"], {"frontier"}),
    # the sampled checks: the certificate cannot read these fields
    (["strata", "cone-exp", "--check", "tangency", "--field", "rot", "--horizon", "0.3"], {"drift", "rtol", "atol"}),
    (["strata", "cone-exp", "--check", "orbits", "--budget", "30"], {"drift", "rank", "rtol", "atol"}),
    (["poisson", "canonical_r2", "--triples", "2", "--points", "2"], {"antisymmetry", "jacobi"}),
    (["reduce", "reduction_r4"], {"certify"}),
    (["leaf", "reduction_r4", "--point=1,1,1,0", "--budget", "20"], {"rank", "rtol", "atol", "casimir_drift"}),
    (["acs", "acs_standard", "--check", "torsion", "--x", "e1", "--y", "e2", "--points", "2"], {"square"}),
    (["acs", "acs_standard", "--check", "cr", "--f", "x1", "--h", "x3", "--points", "2"], {"square"}),
    (["acs", "acs_standard", "--check", "kahler", "--points", "2"], {"square", "kahler"}),
]


class _Recording(dict):
    """Every default tolerance under those ``tol`` holds, recording each key read."""

    def __init__(self, tol: dict):
        super().__init__({k: v for k, (v, _) in DEFAULT_TOLERANCES.items()}, **tol)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


@pytest.mark.parametrize("argv,reads", _READS, ids=[" ".join(a[:1] + a[2:4]) if "--check" in a else a[0]
                                                     for a, _ in _READS])
def test_a_report_echoes_exactly_the_tolerances_its_command_reads(monkeypatch, tmp_path, capsys, argv, reads):
    # the handler reads from a mapping of every tolerance, so a read of one
    # the table does not give its command is seen here, not as a KeyError
    import subcart.cli as cli

    text, handler, arguments = cli._COMMANDS[argv[0]]
    tols = []

    def recorded(sc, args, tol):
        tols.append(_Recording(tol))
        return handler(sc, args, tols[-1])

    monkeypatch.setitem(cli._COMMANDS, argv[0], (text, recorded, arguments))
    path = _unpolynomial_cone(tmp_path) if argv[1] == "cone-exp" else scenario_path(argv[1])
    code, rep, err = run(capsys, argv[0], "--scenario", path, *argv[2:])
    assert code in (0, 1), err
    assert tols[0].read == set(rep["tolerances"]) == reads
    assert ("seed" in rep) == (argv[0] not in ("flow", "bracket", "chart"))


def test_every_tolerance_is_read_by_some_command():
    assert set().union(*(reads for _, reads in _READS)) == set(DEFAULT_TOLERANCES)
    assert sum(len(reads) for _, reads in _READS) == 32


@pytest.mark.parametrize("argv,says", [
    (["flow", "--field", "f", "--point=0", "--tol-overrides", '{"jacobi": 1e-6}'],
     "error: --tol-overrides.jacobi: flow does not read it; it reads ['atol', 'rtol']\n"),
    (["bracket", "--x", "f", "--y", "g", "--tol-overrides", '{"rtol": 1e-6}'],
     "error: --tol-overrides.rtol: bracket does not read it; it reads []\n"),
    (["strata", "--check", "frontier", "--tol-overrides", '{"drift": 1e-6}'],
     "error: --tol-overrides.drift: strata --check frontier does not read it; it reads ['frontier']\n"),
    (["flow", "--field", "f", "--point=0", "--out", "x.txt"], "error: --out 'x.txt': flow writes .json or .csv files\n"),
    (["bracket", "--x", "f", "--y", "g", "--out", "b.csv"], "error: --out 'b.csv': bracket writes .json files\n"),
    (["chart", "--point=0", "--out", "c.csv"], "error: --out 'c.csv': chart writes .json files\n"),
    (["poisson", "--out", "p.txt"], "error: --out 'p.txt': poisson writes .json files\n"),
    (["orbit", "--point=0", "--out", ""], "error: --out '': orbit writes .json or .csv files\n"),
], ids=["flow-jacobi", "bracket-rtol", "frontier-drift", "flow-txt", "bracket-csv", "chart-csv", "poisson-txt",
        "orbit-empty"])
def test_unread_override_and_unwritten_out_suffix_exit_2_before_the_scenario_is_read(tmp_path, capsys, argv, says):
    # a scenario that cannot be read: the error is the flag's, not the file's
    code, report, err = run(capsys, argv[0], "--scenario", str(tmp_path / "missing.json"), *argv[1:])
    assert (code, report, err) == (2, {}, says)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["flow", "--field", "f", "--point=0"], ["bracket", "--x", "f", "--y", "g"],
                                  ["chart", "--point=0"]], ids=["flow", "bracket", "chart"])
def test_seed_is_not_a_flag_of_commands_that_draw_nothing(tmp_path, capsys, argv):
    code, report, err = run(capsys, argv[0], "--scenario", str(tmp_path / "missing.json"), *argv[1:], "--seed", "1")
    assert (code, report) == (2, {})
    assert err.endswith("error: unrecognized arguments: --seed 1\n")


def test_scenario_tolerances_a_command_does_not_read_are_accepted_and_not_echoed(capsys):
    # cone sets drift, which the frontier check does not read
    code, rep, _ = run(capsys, "strata", "--check", "frontier", "--scenario", scenario_path("cone"))
    assert code == 0 and rep["tolerances"] == {"frontier": 1e-4}
    code, rep, _ = run(capsys, "strata", "--check", "tangency", "--field", "rot", "--horizon", "0.3",
                       "--scenario", scenario_path("cone"), "--tol-overrides", '{"rtol": 1e-8}')
    assert code == 0 and rep["tolerances"] == {"drift": 1e-6, "rtol": 1e-8, "atol": 1e-12}


def test_default_tolerances_present(capsys):
    # the defaults of the tolerances the command reads, and no other
    _, rep, _ = run(capsys, "poisson", "--scenario", scenario_path("canonical_r2"))
    assert rep["tolerances"] == {"antisymmetry": 1e-12, "jacobi": 1e-8}


def test_default_tolerances_and_horizon_are_the_library_constants():
    # cli writes these out so that importing it loads no command module
    from subcart import almostcomplex, cli, field, flow, orbit, poisson, strata

    assert {k: v for k, (v, _) in DEFAULT_TOLERANCES.items()} == {
        "rtol": flow.DEFAULT_RTOL, "atol": flow.DEFAULT_ATOL, "rank": field.RANK_TOL,
        "completeness": orbit.COMPLETENESS_TOL, "antisymmetry": 1e-12, "jacobi": 1e-8,
        "casimir_drift": 1e-6, "frontier": strata.FRONTIER_TOL, "drift": strata.DRIFT_TOL,
        "kahler": almostcomplex.KAHLER_TOL, "certify": poisson.CERTIFY_TOL,
        "square": 1e-10,
    }
    assert orbit.RANK_TOL is field.RANK_TOL
    argv = ["flow", "--scenario", "s.json", "--field", "f", "--point=0"]
    assert cli._build_parser(argv).parse_args(argv).horizon == flow.DEFAULT_HORIZON


def test_rank_tolerance_reaches_orbit_leaf_and_strata_orbits(capsys):
    # the echoed rank tolerance is the one the span dimensions are taken at
    def dims(argv, rank=None):
        overrides = () if rank is None else ("--tol-overrides", json.dumps({"rank": rank}))
        code, rep, _ = run(capsys, argv[0], "--scenario", scenario_path(argv[1]), *argv[2:], *overrides)
        assert code == 0 and rep["tolerances"]["rank"] == (1e-8 if rank is None else rank)
        return rep["result"]

    # near x = 0 the shear field is short against the translation
    orbit = ["orbit", "translate_shear", "--point=0.5,0", "--budget", "40"]
    assert dims(orbit)["diagnostics"]["span_dimensions"] == [2]
    assert 1 in dims(orbit, 0.9)["diagnostics"]["span_dimensions"]
    strata = ["strata", "cone", "--check", "orbits", "--budget", "40"]
    assert [s["est_dimension"] for s in dims(strata)["per_seed"]] == [2]
    assert [s["est_dimension"] for s in dims(strata, 0.9)["per_seed"]] == [1]
    # the leaf's two singular values are equal, so only a tolerance of 1,
    # which no singular value exceeds relative to the top one, changes it
    leaf = ["leaf", "reduction_r4", "--point=1,1,1,0", "--budget", "40"]
    assert dims(leaf)["diagnostics"]["span_dimensions"] == [2]
    assert dims(leaf, 1.0)["diagnostics"]["span_dimensions"] == [0]


def test_threads_env_has_no_effect(monkeypatch, capsys):
    # SUBCART_THREADS was a validated knob that changed nothing; it is gone
    _, plain = run_bytes(capsys, "poisson", "--scenario", scenario_path("canonical_r2"))
    monkeypatch.setenv("SUBCART_THREADS", "zero")
    code, out = run_bytes(capsys, "poisson", "--scenario", scenario_path("canonical_r2"))
    assert code == 0
    assert out == plain


def test_seed_flag_changes_sampling_not_schema(capsys):
    _, a = run_bytes(capsys, "orbit", "--scenario", scenario_path("translate_shear"),
                     "--point", "0,0", "--budget", "40", "--seed", "0")
    _, b = run_bytes(capsys, "orbit", "--scenario", scenario_path("translate_shear"),
                     "--point", "0,0", "--budget", "40", "--seed", "1")
    assert a != b
    assert json.loads(a)["seed"] == 0
    assert json.loads(b)["seed"] == 1


def test_reports_are_byte_identical_across_runs(capsys):
    cases = [
        ("classify", "--scenario", scenario_path("halfline"), "--field", "ddx"),
        ("orbit", "--scenario", scenario_path("translate_shear"),
         "--point", "0,0", "--budget", "50"),
        ("poisson", "--scenario", scenario_path("canonical_r2")),
        ("acs", "--scenario", scenario_path("acs_variable"), "--check", "torsion",
         "--x", "e1", "--y", "e3", "--point", "1,0,0,0"),
    ]
    for argv in cases:
        c1, out1 = run_bytes(capsys, *argv)
        c2, out2 = run_bytes(capsys, *argv)
        assert c1 == c2
        assert out1 == out2


def test_bracket_command(capsys):
    code, rep, _ = run(capsys, "bracket", "--scenario",
                       scenario_path("translate_shear"), "--x", "ddx", "--y", "xddy",
                       "--point", "0.3,0.9")
    assert code == 0
    assert rep["result"]["value"] == [0.0, 1.0]


@pytest.mark.parametrize("argv,flag", [
    (["flow", "--scenario", "halfline", "--field", "ddx", "--point=0.5", "--horizon", "-1"], "--horizon"),
    (["flow", "--scenario", "halfline", "--field", "ddx", "--point=0.5", "--horizon", "inf"], "--horizon"),
    (["strata", "--check", "tangency", "--scenario", "cone", "--field", "rot", "--horizon", "nan"],
     "--horizon"),
    (["orbit", "--scenario", "translate_shear", "--point=0,0", "--step-scale", "nan"], "--step-scale"),
    (["leaf", "--scenario", "reduction_r4", "--point=1,1,0,0", "--step-scale", "0"], "--step-scale"),
    (["complete-probe", "--scenario", "rotation_plane", "--t-scale", "nan"], "--t-scale"),
    (["complete-probe", "--scenario", "rotation_plane", "--radius", "-0.5"], "--radius"),
    (["acs", "--check", "torsion", "--scenario", "acs_standard", "--x", "e1", "--y", "e3",
      "--points", "0"], "--points"),
    # a bivector that breaks Jacobi used to pass with no triples or no scale
    (["poisson", "--scenario", "jacobi_control", "--triples", "0"], "--triples"),
    (["poisson", "--scenario", "jacobi_control", "--triples", "-3"], "--triples"),
    (["poisson", "--scenario", "jacobi_control", "--scale", "nan"], "--scale"),
    (["poisson", "--scenario", "jacobi_control", "--scale", "0"], "--scale"),
    (["poisson", "--scenario", "canonical_r2", "--points", "0"], "--points"),
    (["complete-probe", "--scenario", "rotation_plane", "--n", "0"], "--n"),
    # a zero starting step used to run a million steps that never advanced t
    (["flow", "--scenario", "translate_shear", "--field", "xddy", "--point=1e200,0", "--horizon", "1"],
     "starting step 0.0"),
    # a NaN error norm used to accept a NaN state; the report serializer
    # then failed on the non-finite value
    (["flow", "--scenario", "rotation_plane", "--field", "rot", "--point=1e308,1e308", "--horizon", "1"],
     "step size underflow"),
    # a NaN point used to end in "cannot convert float NaN to integer" or,
    # through slack, in "slack inf"
    (["orbit", "--scenario", "translate_shear", "--point=nan,0"], "--point[0]: coordinate nan is not finite"),
    (["flow", "--scenario", "halfline", "--field", "ddx", "--point=nan"], "--point[0]: coordinate nan is not finite"),
    (["chart", "--scenario", "translate_shear", "--family", "default", "--point=0,inf"],
     "--point[1]: coordinate inf is not finite"),
    (["leaf", "--scenario", "reduction_r4", "--point=1,1,-inf,0"], "--point[2]: coordinate -inf is not finite"),
    # above half the largest float the width of the duration draw overflows:
    # every duration was inf or NaN, the orbit ran for minutes and the probe
    # skipped every probe and passed
    (["orbit", "--scenario", "translate_shear", "--point=0.1,0.2", "--budget", "2", "--step-scale", "1e308"],
     "step scale 1e+308 must be at most 8.988465674311579e+307"),
    (["leaf", "--scenario", "reduction_r4", "--point=1,1,1,0", "--budget", "2", "--step-scale", "1e308"],
     "step scale 1e+308 must be at most 8.988465674311579e+307"),
    (["complete-probe", "--scenario", "translate_shear", "--n", "3", "--t-scale", "1e308"],
     "t scale 1e+308 must be at most 8.988465674311579e+307"),
    # strata used to run its tangency precondition before the budget failed
    (["orbit", "--scenario", "translate_shear", "--point=0,0", "--budget", "0"], "--budget"),
    (["strata", "--check", "orbits", "--scenario", "cone", "--budget", "0"], "--budget"),
    (["leaf", "--scenario", "reduction_r4", "--point=1,1,1,0", "--budget", "0"], "--budget"),
    # a step of the horizon's length over the sample spacing of 0.1 is inf,
    # and counting its scan ended in "internal error: OverflowError"
    (["flow", "--scenario", "translate_shear", "--field", "ddx", "--point=0,0", "--horizon", "1e308"],
     "horizon 1e+308 is more than 2^53 sample spacings of 0.1"),
    # a field listed twice used to answer DependentBasis, exit 0, as if the
    # orbit had a lower rank there
    (["chart", "--scenario", "translate_shear", "--point=1,0", "--basis", "0,0"], "basis index 0 is listed twice"),
    # a finite count past 2^53 is not exact: this exited 0 with n_samples a
    # 308-digit integer
    (["flow", "--scenario", "translate_shear", "--field", "ddx", "--point=0,0", "--horizon", "1e307"],
     "horizon 1e+307 is more than 2^53 sample spacings of 0.1"),
])
def test_bad_numeric_argument_exits_2_at_once(capsys, argv, flag):
    # --horizon inf and --step-scale nan used to run the stepper to max_steps
    argv = list(argv)
    at = argv.index("--scenario") + 1
    argv[at] = scenario_path(argv[at])
    t0 = time.perf_counter()
    code, report, err = run(capsys, *argv)
    assert time.perf_counter() - t0 < 2.0
    assert code == 2
    assert report == {}
    assert flag in err
    assert "Traceback" not in err


# each command that reads --point, with a valid argv around it
_POINT_COMMANDS = {
    "flow": (["flow", "--scenario", "halfline", "--field", "ddx"], 1),
    "bracket": (["bracket", "--scenario", "translate_shear", "--x", "ddx", "--y", "xddy"], 2),
    "orbit": (["orbit", "--scenario", "translate_shear"], 2),
    "chart": (["chart", "--scenario", "translate_shear"], 2),
    "leaf": (["leaf", "--scenario", "reduction_r4"], 4),
    "acs": (["acs", "--scenario", "acs_variable", "--check", "torsion", "--x", "e1", "--y", "e3"], 4),
}
# each numeric flag, with a valid argv around it, and whether it counts
_NUMERIC_FLAGS = [
    (["flow", "--scenario", "halfline", "--field", "ddx", "--point=0.5"], "--horizon", False),
    (["orbit", "--scenario", "translate_shear", "--point=0,0"], "--budget", True),
    (["orbit", "--scenario", "translate_shear", "--point=0,0"], "--step-scale", False),
    (["complete-probe", "--scenario", "rotation_plane"], "--n", True),
    (["complete-probe", "--scenario", "rotation_plane"], "--radius", False),
    (["complete-probe", "--scenario", "rotation_plane"], "--t-scale", False),
    (["strata", "--scenario", "cone", "--check", "orbits"], "--budget", True),
    (["strata", "--scenario", "cone", "--check", "orbits"], "--horizon", False),
    (["poisson", "--scenario", "canonical_r2"], "--triples", True),
    (["poisson", "--scenario", "canonical_r2"], "--points", True),
    (["poisson", "--scenario", "canonical_r2"], "--scale", False),
    (["leaf", "--scenario", "reduction_r4", "--point=1,1,1,0"], "--budget", True),
    (["leaf", "--scenario", "reduction_r4", "--point=1,1,1,0"], "--step-scale", False),
    (["acs", "--scenario", "acs_standard", "--check", "kahler"], "--points", True),
]
_BAD_SEEDS = ["[[0.5, 1.0]]", "[]", "[[NaN]]", '[["0.5"]]', '{"a": [[0.5]]}', "[0.5]", "# not JSON"]
_BAD_FLAGS = (
    [(argv + [f"--point={','.join(['0.5'] * (n + 1))}"], "--point") for argv, n in _POINT_COMMANDS.values()]
    + [(argv + [f"--point={','.join([bad] + ['0.5'] * (n - 1))}"], "--point")
       for argv, n in _POINT_COMMANDS.values() for bad in ("nan", "inf", "-inf", "one")]
    + [(argv + [flag, value], flag) for argv, flag, counts in _NUMERIC_FLAGS
       for value in ("0", "-1", "nan", "inf") + (("1.5",) if counts else ())]
    + [(["acs", "--scenario", "acs_standard", "--check", "cr", "--f", f, "--h", h], flag)
       for bad in ("x1 +", "x9", "foo(x1)", "1/0", "") for f, h, flag in ((bad, "q1", "--f"), ("q1", bad, "--h"))]
    + [(["chart", "--scenario", "translate_shear", "--point=1,0", "--basis", basis], "--basis")
       for basis in ("a", "0,1.5", "0,")]
    + [(["classify", "--scenario", "halfline", "--field", "ddx", "--seeds", seeds], "--seeds") for seeds in _BAD_SEEDS]
    + [(["classify", "--scenario", "halfline", "--field", "ddx", "--tol-overrides", value], "--tol-overrides")
       for value in ('{"rtol": -1}', '{"rtol": 0}', '{"rtol": NaN}', '{"rtol": 1e400}', '{"rtol": "1e-9"}',
                     '{"rtoll": 1e-9}', '{"drift": 1e-9}', "[1e-9]", "1e-9")]
)


@pytest.mark.parametrize("argv,flag", _BAD_FLAGS, ids=[" ".join(a[:1] + a[3:]) for a, _ in _BAD_FLAGS])
def test_a_bad_flag_value_exits_2_with_one_error_line_that_names_it(tmp_path, capsys, argv, flag):
    argv = list(argv)
    at = argv.index("--scenario") + 1
    argv[at] = scenario_path(argv[at])
    if flag == "--seeds":  # the value is the file's text
        seeds = tmp_path / "seeds.json"
        seeds.write_text(argv[-1])
        argv[-1] = str(seeds)
    code = main(argv)
    captured = capsys.readouterr()
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert (code, captured.out) == (2, "")
    assert len(errors) == 1 and flag in errors[0], captured.err
    assert "Traceback" not in captured.err


def _one_cell_scenario(tmp_path, constraint: str, field: str) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({
        "name": "overflow",
        "space": {"ambient_dim": 1, "cells": [[{"expr": constraint, "rel": "geq0"}]],
                  "locally_closed": True},
        "fields": {"f": [field]},
        "families": {"default": ["f"]},
    }))
    return str(path)


@pytest.mark.parametrize("constraint,field,argv,says", [
    # Python's float ** raises OverflowError where the field is evaluated:
    # at the basepoint, and inside a step from a basepoint that does not
    ("x1", "x1^2", ["flow", "--field", "f", "--point=1e200", "--horizon", "1"],
     "field 'f' overflows at [1e+200]"),
    ("x1", "1e-200 * x1^4", ["flow", "--field", "f", "--point=1.15e77", "--horizon", "1"],
     "field overflows at t=0.0"),
    # x1*x1 overflows to inf, whose sine is NaN: math.sin raised ValueError
    ("sin(x1*x1) + 2", "1", ["flow", "--field", "f", "--point=1e200"],
     "basepoint [1e+200] is not in the space (slack nan)"),
])
def test_overflow_exits_2_naming_it(tmp_path, capsys, constraint, field, argv, says):
    # each used to end in "internal error: OverflowError"
    code, report, err = run(capsys, *argv, "--scenario", _one_cell_scenario(tmp_path, constraint, field))
    assert code == 2
    assert report == {}
    assert err.count("\n") == 1 and says in err and "internal error" not in err


@pytest.mark.parametrize("argv", [["flow", "--field", "f", "--point=1000"], ["orbit", "--point=1000"]],
                         ids=["flow", "orbit"])
def test_a_constraint_that_overflows_to_inf_holds(tmp_path, capsys, argv):
    # math.exp(1000) raises OverflowError; in IEEE arithmetic exp(1000) - 2 is
    # inf >= 0, so 1000 is a member and both commands run.  They exited 2
    # with "a constraint of the space overflows at [1000.0]".
    code, report, err = run(capsys, *argv, "--scenario", _one_cell_scenario(tmp_path, "exp(x1) - 2", "1"))
    assert (code, err) == (0, "")
    result = report["result"]
    if argv[0] == "flow":
        assert (result["t_minus"], result["t_plus"]) == (-10, 10)
    else:
        assert result["est_dimension"] == 1 and result["diagnostics"]["flow_failures"] == 0


@pytest.mark.parametrize("fields,seed,argv,says", [
    # the carried field at the probe point: this ended in "internal error: OverflowError"
    ({"p": ["x1^400", "0"]}, [10.0, 0.0], ["--n", "3", "--radius", "0.5"],
     "error: field 'p' overflows at [10.344421851525048, 0.2579544029403025]\n"),
    # the family at the image of a probe under the flow of ddx
    ({"ddx": ["1", "0"], "q": ["x1^308", "0"]}, [9.5, 0.0], ["--n", "6", "--radius", "0.3", "--seed", "1"],
     "error: field 'q' overflows at [10.024663042518142, -0.03030536112675712]\n"),
    ({"p": ["log(x1 - 10)", "0"]}, [10.0, 0.0], ["--n", "3", "--radius", "0.5"],
     "error: field 'p' is undefined at [9.920571580830845, -0.24108324970703665]\n"),
    # the family is finite at the image, but the span residual overflows: q
    # turns from (0, 1, 9.33) x1^300 to (0, 1, 8.82) x1^300 along ddx, so the
    # carried q lies about 1e291 off the span, whose norm overflows; it used
    # to print numpy's overflow warning and fail on writing inf
    ({"ddx": ["1", "0", "0"], "q": ["0", "x1^300", "x1^301"]}, [9.5, 0.0, 0.0],
     ["--n", "6", "--radius", "0.3", "--seed", "1"],
     "error: the span residual of field 'q' carried along 'ddx' from [9.33301499976382, -0.03726744380965676, "
     "-0.0025126551708896105] is not finite at the image [8.818494946849956, -0.03726744380965676, "
     "-0.0025126551708896105]\n"),
], ids=["overflow-at-probe", "overflow-at-image", "undefined-at-probe", "overflow-in-residual"])
def test_complete_probe_names_the_field_and_point_it_cannot_evaluate(tmp_path, capsys, fields, seed, argv, says):
    path = tmp_path / "family.json"
    path.write_text(json.dumps({"name": "family", "space": {"ambient_dim": len(seed), "cells": [[]]},
                                "fields": fields, "seeds": {"default": [seed]}}))
    code, report, err = run(capsys, "complete-probe", "--scenario", str(path), *argv)
    assert (code, report, err) == (2, {}, says)


_NAN = "x1*x1*x1 - x1*x1*x1"  # inf - inf from x1 = 1e200 on


@pytest.mark.parametrize("argv,says", [
    # each overflow at the point ended in "internal error: OverflowError"
    (["acs", "--check", "torsion", "--scenario", "acs_variable", "--x", "e1", "--y", "e3", "--point=1e100,1,1,1"],
     "error: field 'N(e1,e3)' overflows at [1e+100, 1.0, 1.0, 1.0]\n"),
    (["bracket", "--scenario", "pair", "--x", "p", "--y", "q", "--point=1e200,1"],
     "error: field '[p,q]' overflows at [1e+200, 1.0]\n"),
    (["bracket", "--scenario", "pair", "--x", "p", "--y", "q", "--point=0,-1"],
     "error: field '[p,q]' is undefined at [0.0, -1.0]\n"),
    # r overflows to inf without raising, and [r,s] to inf - inf; the bracket
    # printed the serializer's "non-finite float nan" line, and the chart
    # read rank 0 off the NaN matrix and exited 1 with DependentBasis
    (["bracket", "--scenario", "pair", "--x", "r", "--y", "s", "--point=1e200,1"],
     "error: field '[r,s]' is not finite at [1e+200, 1.0]\n"),
    (["chart", "--scenario", "pair", "--family", "cubic", "--point=1e200,1"],
     "error: field 'r' is not finite at [1e+200, 1.0]\n"),
    # the sine of inf is NaN, where math.sin raised ValueError
    (["chart", "--scenario", "pair", "--family", "sine", "--point=1e200,0"],
     "error: field 'u' is not finite at [1e+200, 0.0]\n"),
    # the span dimensions of the orbit's points: the flows of v fail at once,
    # those of w keep x1 = 1e200, and the family's values there ended in an
    # internal OverflowError, or a NaN matrix in an internal LinAlgError
    (["orbit", "--scenario", "pair", "--family", "square", "--point=1e200,0"],
     "error: field 'v' overflows at [1e+200, 0.0]\n"),
    (["orbit", "--scenario", "pair", "--family", "nan", "--point=1e200,0"],
     "error: field 'n' is not finite at [1e+200, 0.0]\n"),
    (["leaf", "--scenario", "pair", "--point=1e200,0"],
     "error: field 'X[x1]' is not finite at [1e+200, 0.0]\n"),
    # a flow said "integration failed: starting step 0.0 at basepoint [...]
    # is zero or not finite", from the kernel's step rule
    (["flow", "--scenario", "pair", "--field", "r", "--point=1e200,1"],
     "error: field 'r' is not finite at [1e+200, 1.0]\n"),
    (["flow", "--scenario", "pair", "--field", "e", "--point=1000,0"],
     "error: field 'e' is not finite at [1000.0, 0.0]\n"),
], ids=["torsion-overflow", "bracket-overflow", "bracket-undefined", "bracket-not-finite", "chart-not-finite",
        "chart-sine-of-inf", "orbit-overflow", "orbit-not-finite", "leaf-not-finite", "flow-not-finite",
        "flow-exp-not-finite"])
def test_value_at_point_names_the_field_and_point_it_cannot_evaluate(tmp_path, capsys, argv, says):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"name": "pair", "space": {"ambient_dim": 2, "cells": [[]]},
                                "fields": {"p": ["x1^3", "1"], "q": ["x1", "sqrt(x2)"],
                                           "r": ["x1*x1*x1", "1"], "s": ["x1", "0"], "u": ["sin(x1*x1)", "0"],
                                           "v": ["x1^2", "0"], "w": ["0", "1"], "n": [_NAN, "0"],
                                           "e": ["exp(x1)", "0"]},
                                "families": {"cubic": ["r", "s"], "sine": ["u"], "square": ["v", "w"],
                                             "nan": ["n", "w"]},
                                "poisson": {"bivector": [["0", _NAN], [f"-({_NAN})", "0"]]},
                                "generators": ["x1", "x2"]}))
    argv = list(argv)
    at = argv.index("--scenario") + 1
    argv[at] = str(path) if argv[at] == "pair" else scenario_path(argv[at])
    code, report, err = run(capsys, *argv)
    assert (code, report, err) == (2, {}, says)


@pytest.mark.parametrize("overrides,key", [
    ('{"rtoll": 1e-9}', "rtoll"),
    ('{"rtol": NaN}', "rtol"),
    ('{"atol": Infinity}', "atol"),
    ('{"rtol": -1}', "rtol"),
    ('{"drift": 0}', "drift"),
    ('{"rtol": 1' + "0" * 400 + "}", "rtol"),
])
def test_bad_tolerance_override_exits_2(capsys, overrides, key):
    code, report, err = run(capsys, "flow", "--scenario", scenario_path("disk_line"),
                            "--field", "ddx", "--point=0.1,0.5", "--tol-overrides", overrides)
    assert code == 2
    assert report == {}
    assert err.startswith(f"error: --tol-overrides.{key}: ")
    assert "Traceback" not in err


def test_unknown_scenario_tolerance_exits_2_with_path_and_known_names(tmp_path, capsys):
    # a misspelt name would be echoed in the report and change nothing
    doc = json.loads(open(scenario_path("cone"), encoding="utf-8").read())
    doc["tolerances"] = {"drfit": 1e-3}
    p = tmp_path / "misspelt_tol.json"
    p.write_text(json.dumps(doc))
    code, report, err = run(capsys, "strata", "--check", "tangency", "--field", "euler", "--scenario", str(p))
    assert (code, report) == (2, {})
    assert err == (f"error: scenario error at $.tolerances.drfit: unknown tolerance; "
                   f"known: {sorted(DEFAULT_TOLERANCES)}\n")
    # an override may name only a default, whatever the scenario names
    code, report, err = run(capsys, "strata", "--check", "tangency", "--field", "euler",
                            "--scenario", scenario_path("cone"), "--tol-overrides", '{"drfit": 1e-3}')
    assert (code, report) == (2, {})
    assert err == (f"error: --tol-overrides.drfit: unknown tolerance; "
                   f"known: {sorted(DEFAULT_TOLERANCES)}\n")


@pytest.mark.parametrize("value,text", [
    ("-1", "-1"), ("0", "0"), ("NaN", "nan"), ("Infinity", "inf"), ("1" + "0" * 400, "float range"),
    ('"1e-9"', "expected a number"), ("true", "expected a number"),
])
def test_bad_scenario_tolerance_exits_2_with_path(tmp_path, capsys, value, text):
    doc = json.loads(open(scenario_path("halfline"), encoding="utf-8").read())
    p = tmp_path / "bad_tol.json"
    p.write_text(json.dumps(doc)[:-1] + ', "tolerances": {"rtol": ' + value + "}}")
    code, report, err = run(capsys, "flow", "--scenario", str(p), "--field", "ddx",
                            "--point=0.5", "--horizon", "1")
    assert code == 2
    assert report == {}
    assert "$.tolerances.rtol" in err
    assert text in err
    assert "Traceback" not in err


def test_huge_scenario_integer_exits_2_with_path(tmp_path, capsys):
    text = open(scenario_path("halfline"), encoding="utf-8").read()
    p = tmp_path / "huge_box.json"
    p.write_text(text.replace('"box": [[0.0], [2.0]]', '"box": [[0.0], [2' + "0" * 400 + "]]"))
    code, report, err = run(capsys, "classify", "--scenario", str(p), "--field", "ddx")
    assert code == 2
    assert report == {}
    assert "$.box[1][0]" in err
    assert "internal error" not in err


def _sphere_scenario(tmp_path) -> str:
    """The path of ``jacobi_control_on_sphere``, which ``poisson`` samples."""
    path = tmp_path / "jacobi_sphere.json"
    path.write_text(json.dumps(jacobi_control_on_sphere()))
    return str(path)


@pytest.mark.parametrize("scale", ["1e160", "1e200", "1e300"])
def test_poisson_overflowing_scale_exits_2(tmp_path, capsys, scale):
    # the cubic terms of the broken bivector overflow; Python's max used to
    # drop the NaN and report a passing residual of 0.  On jacobi_control
    # itself the exact stage answers at any scale, so the sampled path is
    # run over an equality cell, where the exact stage leaves it the verdict
    code, report, err = run(capsys, "poisson", "--scenario", _sphere_scenario(tmp_path),
                            "--triples", "3", "--points", "3", "--scale", scale)
    assert code == 2
    assert report == {}
    assert "--scale" in err
    assert len(err.splitlines()) == 1


def test_poisson_passes_at_any_scale_where_the_jacobiator_vanishes(capsys):
    # J and P + P^T of the reduced bivector are exactly 0, so the exact stage
    # passes it with no sample point to overflow
    code, report, err = run(capsys, "poisson", "--scenario", scenario_path("reduction_r4"),
                            "--triples", "3", "--points", "3", "--scale", "1e300")
    assert code == 0
    assert report["result"]["jacobi_residual"] == 0
    assert err == ""


def test_poisson_passes_where_the_cancelling_jacobiator_overflowed_in_floats(tmp_path, capsys):
    # at --scale 1e308 a term such as 2*s1*4 overflows to inf, and the
    # Schouten component 2*s1*4 + 2*s1*(-4) was inf - inf: NaN, exit 2.  Its
    # exact normal form is 0, so the exact stage decides it, and the Jacobi
    # kernel would not evaluate it either
    code, report, err = run(capsys, "poisson", "--scenario", scenario_path("reduction_r4"),
                            "--triples", "3", "--points", "3", "--scale", "1e308")
    assert (code, report["result"]["jacobi_residual"], report["result"]["passed"], err) == (0, 0, True, "")
    # a sampled Jacobiator that is not 0 still overflows there
    code, report, err = run(capsys, "poisson", "--scenario", _sphere_scenario(tmp_path),
                            "--triples", "3", "--points", "3", "--scale", "1e308")
    assert (code, report) == (2, {}) and "--scale" in err


def _cap_scenario(entry: str) -> dict:
    """A bivector on R^4 that breaks Jacobi, with ``entry`` at (1, 2)."""
    rows = [["0"] * 4 for _ in range(4)]
    rows[0][1], rows[1][0], rows[1][2], rows[2][1] = entry, f"-({entry})", "x3", "-x3"
    return {"name": "cap", "space": {"ambient_dim": 4, "cells": [[]], "locally_closed": True},
            "poisson": {"bivector": rows, "label": "cap"}}


# The golden reports of a bivector past each of the normal form's caps, by
# name: the entry at (1, 2) and the exit code
CAPS = {
    "poisson-cap-power_30": ("(x1+x2+x3+x4)^30", 1),
    "poisson-cap-power_2p53": ("x1^9007199254740993", 0),
}


def _cap_argv(tmp_path, name: str) -> list[str]:
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(_cap_scenario(CAPS[name][0])))
    return ["poisson", "--scenario", str(path), "--triples", "10"]


@pytest.mark.parametrize("name", CAPS)
def test_poisson_past_the_normal_forms_caps_ends_with_the_bytes_it_had(tmp_path, name):
    # expanding the first entry has 5,456 terms and the second a power with 2^53
    # + 1 factors; past its degree cap the normal form answers "not
    # polynomial" at once, so nothing the caps refuse is pruned and the
    # report is the one of the float evaluation before the normal form existed
    proc = _cli_process(*_cap_argv(tmp_path, name), timeout=5)
    assert proc.returncode == CAPS[name][1]
    assert_golden(proc.stdout, name)


def test_poisson_reduce_flag_is_gone(capsys):
    # the reduction is the `reduce` subcommand
    code, report, err = run(capsys, "poisson", "--scenario", scenario_path("reduction_r4"),
                            "--reduce")
    assert code == 2
    assert report == {}
    assert "unrecognized arguments: --reduce" in err


def _cli_process(*argv: str, timeout: float = 60) -> subprocess.CompletedProcess:
    """The CLI in a child process, so stderr holds what a user would see,
    numpy's warnings included."""
    src = os.path.dirname(os.path.dirname(subcart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "subcart", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_flow_from_overflowing_point_prints_one_line():
    # x^2 + y^2 overflows: numpy scalars used to print two RuntimeWarnings
    proc = _cli_process("flow", "--scenario", scenario_path("rotation_plane"), "--field", "rot",
                        "--point=1e308,1e308", "--horizon", "1")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: integration failed: step size underflow at t=0.0\n"


def test_flow_where_python_float_power_overflows(tmp_path):
    # Python's 1e200 ** 2 raises OverflowError, which used to end in an internal
    # error; the membership test now reads it as inf, as numpy does.  The point
    # is in the punctured plane, so the flow runs: a rotation by one radian
    arc = tmp_path / "arc.csv"
    proc = _cli_process("flow", "--scenario", scenario_path("rotation_plane"), "--field", "rot",
                        "--point=1e200,1e200", "--horizon", "1", "--out", str(arc))
    assert proc.stderr == ""
    assert proc.returncode == 0
    result = json.loads(proc.stdout)["result"]
    assert result["t_plus"] == 1 and result["exit_plus"] is None
    t, x, y = map(float, arc.read_text().splitlines()[-1].split(","))
    assert t == 1.0
    want = (1e200 * (math.cos(1.0) - math.sin(1.0)), 1e200 * (math.sin(1.0) + math.cos(1.0)))
    assert abs(x - want[0]) <= 1e-8 * 1e200 and abs(y - want[1]) <= 1e-8 * 1e200


def _overflow_exit_argv(tmp_path) -> list[str]:
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(OVERFLOW_EXIT))
    return ["flow", "--scenario", str(path), "--field", "v", "--point=0.5,0", "--horizon", "3"]


def test_exit_witness_where_an_earlier_constraint_overflows(tmp_path, capsys):
    # the witness names the violated constraint after evaluating the cell's
    # earlier ones, where (1e200 x1)^2 used to end in an internal OverflowError
    code, report, err = run(capsys, *_overflow_exit_argv(tmp_path))
    assert code == 0 and err == ""
    witness = report["result"]["exit_plus"]
    assert witness["constraint_index"] == 1 and witness["constraint"] == "x2 - 1.0"


def test_overflowing_flow_imports_no_numpy_in_a_fresh_interpreter(tmp_path, capsys):
    # every membership test of this flow overflows on Python floats; the
    # generated test runs the cell again in IEEE arithmetic, where a retry on
    # numpy floats imported numpy, and the report is the same
    argv = _overflow_exit_argv(tmp_path)
    before, after, code, out = json.loads(_fresh(
        "import contextlib, io, json, sys\n"
        "from subcart.cli import main\n"
        "before = 'numpy' in sys.modules\n"
        "buf = io.StringIO()\n"
        "with contextlib.redirect_stdout(buf):\n"
        f"    code = main({argv!r})\n"
        "print(json.dumps([before, 'numpy' in sys.modules, code, buf.getvalue()]))"
    ))
    assert (before, after) == (False, False)
    assert (code, out) == run_bytes(capsys, *argv)
    assert_golden(out, "flow-overflow_exit")  # the report the numpy retry printed


# Near the origin of the box the squares are tiny, further out each product
# overflows to inf and the slack is inf - inf = NaN: a drift fold that reads
# NaN as 0 passed --check tangency, though v leaves {|x1| >= |x2|} at once.
WEDGE = {
    "name": "wedge",
    "space": {"ambient_dim": 2, "cells": [[]], "locally_closed": True},
    "fields": {"v": ["1", "2"]},
    "families": {"default": ["v"]},
    "seeds": {"default": [[0.0, 0.0]]},
    "strata": [{"name": "wedge", "dim": 2, "cells": [[
        {"expr": "x1*1e200*x1*1e200 - x2*1e200*x2*1e200", "rel": "geq0"}]]}],
    "box": [[-1e-250, -1e-250], [1e-250, 1e-250]],
}


# The first NaN point in time order is the backward end of the first curve,
# at t = -0.5, where the point-by-point loop before the drift fold raised.
NAN_ERROR = ("error: the constraints of stratum 'wedge' are not a number at "
             "[-0.49999999999999983, -0.9999999999999997]\n")


@pytest.mark.parametrize("check", ["tangency", "orbits"])
def test_strata_nan_slack_exits_2(tmp_path, check):
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(WEDGE))
    proc = _cli_process("strata", "--scenario", str(path), "--check", check, "--field", "v")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", NAN_ERROR)


# 0 - 0 where x1 > 0 and inf - inf = NaN where x1 < 0: the samples lie at
# x1 > 0, so the forward half of each curve stays finite and only the
# backward half, past its start, reaches NaN
_STEP = "(1 - tanh(x1*1e300*1e300))*1e300*1e300"
BACKWARD_NAN = dict(WEDGE, strata=[{"name": "wedge", "dim": 2, "cells": [[
    {"expr": f"{_STEP} - {_STEP}", "rel": "geq0"}]]}], box=[[1e-250, -1e-250], [2e-250, 1e-250]])


@pytest.mark.parametrize("check", ["tangency", "orbits"])
def test_strata_nan_in_the_backward_half_only_names_its_earliest_point(tmp_path, check):
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(BACKWARD_NAN))
    proc = _cli_process("strata", "--scenario", str(path), "--check", check, "--field", "v")
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", NAN_ERROR)


def test_strata_frontier_samples_without_numpy_warnings(tmp_path):
    # over a box of side 2 every product overflows; the box sampler used to
    # test its draws on numpy scalars, which printed RuntimeWarnings
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(dict(WEDGE, box=[[-1.0, -1.0], [1.0, 1.0]])))
    proc = _cli_process("strata", "--scenario", str(path), "--check", "frontier")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: stratum 'wedge' produced no samples in the given box\n"


def test_strata_tangency_where_a_cosine_of_inf_is_nan_exits_2(tmp_path, capsys):
    # x1*x1*1e300*1e300 overflows to inf over most of the box, and its cosine
    # is NaN, so the draws fail the stratum; math.cos raised ValueError there
    path = tmp_path / "cos.json"
    path.write_text(json.dumps(dict(WEDGE, box=[[-1.0, -1.0], [1.0, 1.0]], strata=[{"name": "s", "dim": 2, "cells": [[
        {"expr": "cos(x1*x1*1e300*1e300) + 2", "rel": "geq0"}]]}])))
    code, report, err = run(capsys, "strata", "--scenario", str(path), "--check", "tangency", "--field", "v")
    assert (code, report, err) == (2, {}, "error: stratum 's' produced no samples in the given box\n")


@pytest.mark.parametrize("check", [["frontier"], ["tangency", "--field", "rot"]])
def test_strata_projection_overflow_exits_2_naming_the_stratum(tmp_path, capsys, check):
    # over a box of side 2e160 x^2 + y^2 - z^2 overflows in Python floats at
    # nearly every draw; such a projection fails like a non-finite step, so
    # the surface gets no samples, where the overflow used to escape.  The
    # shipped rot is certified with no sample, so tangency samples for a rot
    # the certificate cannot read
    cone = cone_without_polynomials()
    path = tmp_path / "cone.json"
    path.write_text(json.dumps(dict(cone, box=[[-1e160] * 3, [1e160] * 3])))
    code, report, err = run(capsys, "strata", "--scenario", str(path), "--check", *check)
    assert code == 2
    assert report == {}
    assert err == "error: stratum 'surface' produced no samples in the given box\n"


@pytest.mark.parametrize("frame, where", [(["v", "w"], "frame[1]"), ([3], "frame[0]"), ("v", "frame")])
def test_bad_stratum_frame_exits_2(tmp_path, capsys, frame, where):
    path = tmp_path / "wedge.json"
    strata = [dict(WEDGE["strata"][0], frame=frame)]
    path.write_text(json.dumps(dict(WEDGE, strata=strata)))
    code, report, err = run(capsys, "strata", "--scenario", str(path), "--check", "frontier")
    assert code == 2
    assert report == {}
    assert f"$.strata[0].{where}" in err


def test_unexpected_exception_exits_2_without_traceback(monkeypatch, capsys):
    import subcart.cli as cli

    def broken(sc, args, tol):
        raise ZeroDivisionError("float division\nby zero")

    text, _, arguments = cli._COMMANDS["flow"]
    monkeypatch.setitem(cli._COMMANDS, "flow", (text, broken, arguments))
    code, report, err = run(capsys, "flow", "--scenario", scenario_path("halfline"),
                            "--field", "ddx", "--point=0.5")
    assert code == 2
    assert report == {}
    assert err == "internal error: ZeroDivisionError: float division by zero\n"


# module, error, the arguments it is raised with, and the line main writes
_LIBRARY_ERRORS = [
    ("flow", "FlowDomainError", ("past the end", 0.5, (0.5,), None), "error: integration failed: past the end\n"),
    ("flow", "IntegrationError", ("step failed",), "error: integration failed: step failed\n"),
    ("orbit", "OrbitError", ("no family",), "error: no family\n"),
    ("orbit", "DependentBasisError", ("rank 1",), "error: rank 1\n"),
    ("poisson", "PoissonError", ("not square",), "error: not square\n"),
    ("poisson", "ReductionError", ("no fit",), "error: no fit\n"),
    ("strata", "StrataError", ("overlap",), "error: overlap\n"),
    ("almostcomplex", "AlmostComplexError", ("degenerate",), "error: degenerate\n"),
    ("orbit", "ReachError", ("left the space", 0, 0.25, []), "internal error: ReachError: left the space\n"),
    ("builtins", "RuntimeError", ("no luck",), "internal error: RuntimeError: no luck\n"),
]


def _loading(module: str) -> list[str]:
    """A command that imports ``module`` and exits 0."""
    return {
        "flow": ["flow", "--scenario", scenario_path("halfline"), "--field", "ddx", "--point=0.5"],
        "orbit": ["chart", "--scenario", scenario_path("translate_shear"), "--point=1,0"],
        "poisson": ["poisson", "--scenario", scenario_path("canonical_r2"), "--triples", "1", "--points", "1"],
        "strata": ["strata", "--check", "frontier", "--scenario", scenario_path("cone")],
        "almostcomplex": ["acs", "--check", "torsion", "--scenario", scenario_path("acs_standard"),
                          "--x", "e1", "--y", "e3", "--points", "1"],
    }.get(module, ["bracket", "--scenario", scenario_path("translate_shear"), "--x", "ddx", "--y", "xddy"])


@pytest.mark.parametrize("used", [False, True], ids=["module-unused", "module-used"])
@pytest.mark.parametrize("module,name,args,line", _LIBRARY_ERRORS, ids=[e[1] for e in _LIBRARY_ERRORS])
def test_library_errors_exit_2_whether_or_not_a_command_loaded_their_module(module, name, args, line, used):
    # in a fresh interpreter, a handler raises the error; with ``used``, a
    # command that imports the error's module runs first, and without it
    # only this test imports the module, after cli is loaded
    out = json.loads(_fresh(
        "import contextlib, importlib, io, json, sys\n"
        "from subcart import cli\n"
        "def run(argv):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        return cli.main(argv), err.getvalue()\n"
        f"first = run({_loading(module)!r}) if {used!r} else None\n"
        f"loaded = 'subcart.{module}' in sys.modules\n"
        f"error = getattr(importlib.import_module({module if module == 'builtins' else 'subcart.' + module!r}), "
        f"{name!r})\n"
        "def broken(sc, args, tol):\n"
        f"    raise error(*{args!r})\n"
        "text, _, arguments = cli._COMMANDS['bracket']\n"
        "cli._COMMANDS['bracket'] = (text, broken, arguments)\n"
        f"print(json.dumps([first, loaded, run({_loading('builtins')!r})]))"
    ))
    assert out == [[0, ""] if used else None, module != "builtins" and (used or module == "almostcomplex"),
                   [2, line]]


def test_step_scale_of_half_the_largest_float_is_accepted(capsys):
    # the largest scale whose duration draw has a finite width; on
    # translate_shear its flows are straight or shear lines, which the
    # stepper follows with no error, so its steps grow tenfold and reach
    # even such durations in about 310 steps
    half = sys.float_info.max / 2
    t0 = time.perf_counter()
    code, report, _ = run(capsys, "orbit", "--scenario", scenario_path("translate_shear"), "--point=0.1,0.2",
                          "--budget", "2", "--step-scale", repr(half))
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert report["result"]["n_points"] == 2
    assert report["result"]["diagnostics"]["step_scale"] == half


@pytest.mark.parametrize("scale", ["1e16", "1e17", "8.988465674311579e+307"])
def test_complete_probe_far_along_a_translation_passes(capsys, scale):
    # a probe carried to x = -4.4e15 sees ddx = (1, 0) beside xddy = (0, x),
    # which span the plane; unscaled, lstsq's cutoff dropped the unit column
    # beside the one of norm 4.4e15 and reported a residual of 1, exit 1
    code, report, _ = run(capsys, "complete-probe", "--scenario", scenario_path("translate_shear"), "--n", "3",
                          "--t-scale", scale)
    assert code == 0
    assert report["result"]["passed"] and report["result"]["max_residual"] == 0.0


@pytest.mark.parametrize("argv,skipped", [(["--n", "5"], 5), (["--family", "pair", "--seeds", "ring", "--n", "5"], 15)])
def test_complete_probe_that_skips_every_probe_is_inconclusive(capsys, argv, skipped):
    # every flow from a point near 1e308 fails to integrate; a probe that
    # ran none used to pass with exit 0
    code, report, _ = run(capsys, "complete-probe", "--scenario", scenario_path("rotation_plane"), *argv,
                          "--radius", "1e308")
    result = report["result"]
    assert code == 0
    assert (result["verdict"], result["passed"], result["n_probes"], result["skipped"]) == (
        "Inconclusive", None, 0, skipped)
    assert result["detail"].startswith("every probe was skipped")


@pytest.mark.parametrize("argv,says", [
    (["--check", "torsion", "--y", "e3"], "--check torsion needs --x and --y"),
    (["--check", "torsion", "--x", "e1", "--y", "nope"], "nope"),
    (["--check", "torsion", "--x", "e1", "--y", "e3", "--point=1,0"], "--point"),
    (["--check", "cr", "--f", "x1"], "--check cr needs --f and --h"),
    (["--check", "cr", "--f", "x1", "--h", "x3 +"], "--h: unexpected token"),
    (["--check", "kahler", "--fields", "e1,nope"], "nope"),
    (["--check", "kahler"], "--check kahler needs an 'omega' matrix"),
])
def test_acs_usage_errors_exit_2_before_sampling(tmp_path, capsys, argv, says):
    # with J^2 != -I these used to exit 1 as NotAlmostComplex, and exit 2
    # only on a valid J
    scenario = json.loads(Path(scenario_path("acs_standard")).read_text(encoding="utf-8"))
    scenario["acs"]["matrix"][0][0] = "1"
    if "omega" in says:
        del scenario["acs"]["omega"]
    path = tmp_path / "acs_bad_j.json"
    path.write_text(json.dumps(scenario))
    assert run(capsys, "acs", "--scenario", str(path), "--check", "torsion", "--x", "e1", "--y", "e3")[1][
        "result"]["verdict"] == "NotAlmostComplex"
    code, report, err = run(capsys, "acs", "--scenario", str(path), *argv)
    assert (code, report) == (2, {})
    assert says in err


def test_orbit_from_overflowing_seed_ends_at_once(capsys):
    # every flow from x1 = 1e308 either fails at its starting step or merges
    # back into the seed; the zero starting step used to spin for minutes
    t0 = time.perf_counter()
    code, report, err = run(capsys, "orbit", "--scenario", scenario_path("translate_shear"),
                            "--point=1e308,0", "--budget", "5")
    assert time.perf_counter() - t0 < 2.0
    assert code == 0
    assert report["result"]["n_points"] == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
def test_nonfinite_seed_file_coordinate_exits_2(tmp_path, capsys, value):
    p = tmp_path / "seeds.json"
    p.write_text(f"[[0.5], [{value}]]")
    code, report, err = run(capsys, "classify", "--scenario", scenario_path("halfline"),
                            "--field", "ddx", "--seeds", str(p))
    assert code == 2
    assert report == {}
    assert "--seeds" in err and "$[1][0]" in err and "not finite" in err
    assert "Traceback" not in err


def _acs_with_field(tmp_path, name: str, components: list[str]) -> str:
    doc = json.loads(open(scenario_path("acs_standard"), encoding="utf-8").read())
    doc["fields"][name] = components
    p = tmp_path / "acs_extra.json"
    p.write_text(json.dumps(doc))
    return str(p)


def test_acs_torsion_nan_exits_2(tmp_path, capsys):
    # every sampled torsion value is [nan, 0, nan, 0]; the builtin max dropped
    # the NaN and the check passed with max_norm 0
    path = _acs_with_field(tmp_path, "big", ["1e300*q1*p1", "0", "1e300*q1*p1", "0"])
    code, report, err = run(capsys, "acs", "--check", "torsion", "--scenario", path,
                            "--x", "big", "--y", "big", "--points", "5")
    assert code == 2
    assert report == {}
    assert err == "error: non-finite float nan cannot appear in a report\n"


@pytest.mark.parametrize("doc", ["nan", "inf"])
def test_kahler_two_form_that_is_not_finite_exits_2(tmp_path, capsys, doc):
    # numpy's det of the NaN form read 0.0, a false Degenerate with exit 1
    # and a RuntimeWarning; the inf form ended in "internal error:
    # LinAlgError: Eigenvalues did not converge"
    p = tmp_path / "kahler.json"
    p.write_text(json.dumps(KAHLER_NAN if doc == "nan" else KAHLER_INF))
    code, report, err = run(capsys, "acs", "--check", "kahler", "--scenario", str(p))
    assert code == 2
    assert report == {}
    assert err.startswith("error: J, the two-form or a probe field is not finite at (")
    assert len(err.splitlines()) == 1


# invariants of reduction_r4 replaced, and the line reduce exits 2 with
_OUT_OF_RANGE = [
    ({0: "sin(q1)"}, "error: invariant 1 ('sin(x1)') has no exact polynomial normal form\n"),
    # the invariant normalises to q1, but its bracket folds 1e200*1e200 to inf
    ({0: "q1 + (1e200*q1*1e200 - 1e200*q1*1e200)"},
     "error: the bracket of invariants 1 and 2 has no exact polynomial normal form\n"),
    # {s1,s3} = 2e200 s1 exactly, but s1 is near 1e200 on the certify points
    ({0: "1e200*(q1^2+q2^2)", 2: "1e200*(q1*p1+q2*p2)"},
     "error: the replay of the bracket of invariants 1 and 3 is not finite at ["),
    ({0: "1e308*(q1^2+q2^2)"}, "error: a coefficient of the bracket of invariants 1 and 2 is beyond the largest float\n"),
]


@pytest.mark.parametrize("invariants,says", _OUT_OF_RANGE, ids=["sin", "inf-bracket", "replay", "coefficient"])
def test_reduce_with_an_invariant_out_of_range_exits_2(tmp_path, capsys, invariants, says):
    # lstsq ended in "internal error: LinAlgError: SVD did not converge"
    doc = json.loads(open(scenario_path("reduction_r4"), encoding="utf-8").read())
    for k, text in invariants.items():
        doc["reduction"]["invariants"][k] = text
    p = tmp_path / "reduction.json"
    p.write_text(json.dumps(doc))
    code, report, err = run(capsys, "reduce", "--scenario", str(p))
    assert (code, report) == (2, {})
    assert err.startswith(says) and len(err.splitlines()) == 1


def test_reduce_with_a_huge_linear_invariant_is_not_reducible(tmp_path, capsys):
    # {1e200 q1, |p|^2} = 2e200 p1, in no span of the invariants' monomials;
    # the fit had read the values past 2^500 as an error
    doc = json.loads(open(scenario_path("reduction_r4"), encoding="utf-8").read())
    doc["reduction"]["invariants"][0] = "1e200*q1"
    p = tmp_path / "reduction.json"
    p.write_text(json.dumps(doc))
    code, report, err = run(capsys, "reduce", "--scenario", str(p))
    assert (code, report["result"]["verdict"], err) == (1, "NotReducible", "")
    assert report["result"]["detail"].startswith("bracket of invariants 1 and 2 ('1e+200*x1', 'x3^2 + x4^2')")


def test_infinite_literal_in_a_constraint(tmp_path, capsys):
    # an infinite literal used to become the unbound name inf in generated code
    path = _one_cell_scenario(tmp_path, "1e999 - x1", "1")
    code, report, err = run(capsys, "flow", "--scenario", path, "--field", "f",
                            "--point=1", "--horizon", "1")
    assert code == 0 and err == ""
    assert report["result"]["t_plus"] == 1 and report["result"]["exit_plus"] is None
    code, report, err = run(capsys, "orbit", "--scenario", path, "--point=1", "--budget", "5")
    assert code == 0 and err == ""


# Repeated in-process calls and the one-command parser -----------------------------

def _golden_cases(tmp_path) -> dict[str, list[str]]:
    """The argv of the run of every golden report, by the report's name; the
    scenarios the tests write are written to ``tmp_path``."""
    from test_flow_golden import GOLDEN as FLOW, ORBIT_2000, _scenario
    from test_symbolic_golden import GOLDEN as SYMBOLIC

    cases = {name: [_scenario(tmp_path, a) if i and argv[i - 1] == "--scenario" else a for i, a in enumerate(argv)]
             for name, argv, *_ in FLOW + SYMBOLIC + [ORBIT_2000]}
    cases["flow-overflow_exit"] = _overflow_exit_argv(tmp_path)
    cases.update((name, _cap_argv(tmp_path, name)) for name in CAPS)
    return cases


def test_every_golden_file_is_read_and_canonical(tmp_path):
    # an orphaned, hand-edited or pretty-printed golden fails here by name
    # besides the CLI's reports, the sampled reports of the runs the CLI
    # answers exactly, which test_flow, test_strata and test_symbolic_golden
    # pin through the library
    from test_flow import CLASSIFY_ONCE
    from test_strata import SAMPLED_STRATA
    from test_symbolic_golden import SAMPLED_POISSON

    texts = {path.stem: path.read_bytes().decode("utf-8") for path in GOLDEN_DIR.glob("*.json")}
    cases = _golden_cases(tmp_path)
    sampled = CLASSIFY_ONCE + SAMPLED_STRATA + SAMPLED_POISSON
    assert sorted(texts) == sorted({*cases, *(name for name, *_ in sampled)})
    for name, text in texts.items():
        assert text.endswith("\n") and not text.endswith("\n\n"), name
        assert canonical_json(json.loads(text)) + "\n" == text, name


def test_in_process_calls_give_the_bytes_of_a_fresh_process(tmp_path, capsys):
    from concurrent.futures import ThreadPoolExecutor

    cases = list(_golden_cases(tmp_path).values())
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = [(p.returncode, p.stdout, p.stderr) for p in pool.map(lambda a: _cli_process(*a), cases)]
    for order in (range(len(cases)), reversed(range(len(cases)))):
        for i in order:
            code = main(cases[i])
            out, err = capsys.readouterr()
            assert (code, out, err) == fresh[i], cases[i]


def _other_cpythons() -> list[str]:
    """The interpreters on PATH as python3.10 to python3.14 that start as a
    CPython 3.10 or later other than the running one, one per ``sys.version``."""
    probe = "import json, sys; print(json.dumps([sys.implementation.name, sys.version_info >= (3, 10), sys.version]))"
    found = {}
    for minor in range(10, 15):
        exe = shutil.which(f"python3.{minor}")
        if exe is None:
            continue
        try:
            proc = subprocess.run([exe, "-S", "-c", probe], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if proc.returncode == 0:
            name, recent, version = json.loads(proc.stdout)
            if name == "cpython" and recent and version != sys.version:
                found.setdefault(version, exe)
    return list(found.values())


# Run the golden commands in one interpreter, given their argv by name as JSON
# on stdin, and print each report by name.
_CHILD = """\
import contextlib, io, json, sys
from subcart.cli import main
outs = {}
for name, argv in json.load(sys.stdin).items():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        main(argv)
    outs[name] = out.getvalue()
print(json.dumps(outs))
"""


def test_golden_reports_are_the_same_under_every_other_cpython(tmp_path):
    # every report float is a Python float from the package's own sums, so
    # no report may move with the interpreter; -S keeps site-packages, and
    # so any third-party package, off the child's path
    interpreters = _other_cpythons()
    if not interpreters:
        pytest.skip("no other CPython 3.10 or later starts from PATH as python3.10 to python3.14")
    cases = _golden_cases(tmp_path)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subcart.__file__)))
    for exe in interpreters:
        proc = subprocess.run([exe, "-S", "-c", _CHILD], input=json.dumps(cases), capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, (exe, proc.stderr)
        outs = json.loads(proc.stdout)
        assert sorted(outs) == sorted(cases)
        for name, out in outs.items():
            assert_golden(out, name)


def _bracket_scenario(path, name: str, field: list[str]) -> None:
    path.write_text(json.dumps({
        "name": name,
        "space": {"ambient_dim": 1, "cells": [[]], "locally_closed": True},
        "fields": {"f": field, "g": ["1"]},
    }))


def test_edited_scenario_is_loaded_again(tmp_path, capsys):
    path = tmp_path / "edited.json"
    argv = ("bracket", "--scenario", str(path), "--x", "f", "--y", "g", "--point=2")
    _bracket_scenario(path, "before", ["x1^2"])
    code, first, _ = run(capsys, *argv)
    assert code == 0 and first["result"]["value"] == [-4.0]
    _bracket_scenario(path, "after", ["x1^3"])
    code, second, _ = run(capsys, *argv)
    assert code == 0 and second["result"]["value"] == [-12.0]
    assert second["scenario"] == {"name": "after", "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
    assert first["scenario"]["sha256"] != second["scenario"]["sha256"]


def test_scenario_fixed_after_bad_json_loads(tmp_path, capsys):
    path = tmp_path / "fixed.json"
    path.write_text('{"name": "fixed", ')
    argv = ("bracket", "--scenario", str(path), "--x", "f", "--y", "g")
    code, report, err = run(capsys, *argv)
    assert code == 2 and report == {} and "not valid JSON" in err
    _bracket_scenario(path, "fixed", ["x1"])
    code, report, err = run(capsys, *argv)
    assert code == 0 and err == "" and report["scenario"]["name"] == "fixed"


_COMMAND_NAMES = ["flow", "classify", "bracket", "orbit", "chart", "complete-probe",
                  "strata", "poisson", "reduce", "leaf", "acs"]


def _parse(parser, argv: list[str], capsys):
    """What ``parser`` answers to ``argv``: exit code, namespace, stdout, stderr."""
    try:
        ns, code = sorted(vars(parser.parse_args(argv)).items()), None
    except SystemExit as exc:
        ns, code = None, exc.code
    out, err = capsys.readouterr()
    return code, repr(ns), out, err


def test_help_and_command_errors_are_unchanged(monkeypatch, capsys):
    import hashlib

    import subcart.cli as cli

    monkeypatch.setenv("COLUMNS", "80")
    texts = [_parse(cli._build_parser(), argv + ["--help"], capsys)[2]
             for argv in [[]] + [[name] for name in _COMMAND_NAMES]]
    assert all(t.startswith("usage: subcart") for t in texts)
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert digest == "a44bafa990736c0c9315045ac4d9b19390eb93b7e483f0d20036ffb3fdc6b30c"
    assert main([]) == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")
    assert main(["bogus"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument command: invalid choice: 'bogus' (choose from 'flow', 'classify',"
        " 'bracket', 'orbit', 'chart', 'complete-probe', 'strata', 'poisson', 'reduce',"
        " 'leaf', 'acs')\n")


@pytest.mark.parametrize("columns", ["80", "50", "200", None])
def test_one_command_parser_answers_as_the_full_one(monkeypatch, capsys, columns):
    import argparse

    import subcart.cli as cli

    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    assert list(cli._COMMANDS) == _COMMAND_NAMES
    argvs = [[], ["-h"], ["bogus"], ["--scenario", "s.json", "flow"], ["--", "flow"]]
    for name in _COMMAND_NAMES:
        argvs += [
            [name], [name, "-h"], [name, "--scenario", "s.json"],
            [name, "--scenario", "s.json", "extra", "--bogus"],
            [name, "--scenario", "s", "--check", "nope", "--horizon", "-1", "--n", "0"],
            [name, "--scen", "s", "--field", "f", "--point=-1", "--x", "a", "--y", "b",
             "--check", "frontier", "--budget", "7", "--seed", "3"],
            [name, name, "--help"],
        ]
    built = 0
    for argv in argvs:
        parser = cli._build_parser(argv)
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert list(commands.choices) == (argv[:1] if argv[:1] in ([n] for n in _COMMAND_NAMES)
                                          else _COMMAND_NAMES)
        built += len(commands.choices) == 1
        assert _parse(parser, argv, capsys) == _parse(cli._build_parser(), argv, capsys), argv
    assert built == 7 * len(_COMMAND_NAMES)


@pytest.mark.parametrize("argv", [[]] + [[name] for name in _COMMAND_NAMES], ids=["all"] + _COMMAND_NAMES)
def test_a_parser_reads_the_terminal_width_once(monkeypatch, argv):
    # argparse's HelpFormatter reads it for each add_argument where no width is given
    import shutil

    import subcart.cli as cli

    calls = []
    size = shutil.get_terminal_size
    monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: calls.append(a) or size(*a))
    cli._build_parser(argv)
    assert len(calls) == 1


# Argument fuzzing ---------------------------------------------------------------

README = Path(__file__).resolve().parent.parent / "README.md"
_FLAG_VALUES = ["nan", "inf", "-1", "0", "1e308", "", "seven"]


def _readme_examples(out_dir: Path) -> list[list[str]]:
    """The argvs of the README's command line examples, with ``$S`` spelled
    out and each ``--out`` file moved into ``out_dir``."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"Examples, using the scenario files.*?```sh\n(.*?)```", text, re.S).group(1)
    block = block.replace("\\\n", " ").replace("$S", str(Path(scenario_path("halfline")).parent))
    argvs = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("subcart ")]
    return [[str(out_dir / a) if a.endswith(".csv") else a for a in argv] for argv in argvs]


def test_readme_examples_with_one_flag_value_replaced_end_with_an_exit_code(tmp_path, monkeypatch, capsys):
    # every README example with the value of one flag replaced by one of
    # _FLAG_VALUES, each such mutant once, in a fixed order
    import subcart.cli as cli
    from subcart.flow import FlowOptions

    # a horizon the integrator cannot reach, such as 1e308 on a rotation,
    # runs until the step budget is spent: a million steps take seconds,
    # and 20,000 end on the same exit-2 path
    monkeypatch.setattr(cli, "_flow_options", lambda tol: FlowOptions(
        rtol=tol["rtol"], atol=tol["atol"], max_steps=20_000))
    examples = _readme_examples(tmp_path)
    assert {argv[0] for argv in examples} == set(_COMMAND_NAMES)
    codes = Counter()
    parsed = 0
    for argv in examples:
        for i in (i for i, a in enumerate(argv) if a.startswith("--")):
            for value in _FLAG_VALUES:
                mutant = argv[:i + 1] + [value] + argv[i + 2:]
                code = main(mutant)
                out, err = capsys.readouterr()
                assert code in (0, 1, 2) and "Traceback" not in err and "internal error:" not in err, (mutant, err)
                if code != 2:  # the report alone gives the exit code
                    assert exit_code_of(json.loads(out)) == code, mutant
                codes[code] += 1
                parsed += not err.startswith("usage:")
    assert sum(codes.values()) == len(_FLAG_VALUES) * sum(a.startswith("--") for argv in examples for a in argv)
    # not every mutant stops at the parser, and some run the command: 21 of
    # the 24 that exited 0 were --out paths that no command writes, which
    # exited 0 writing nothing and now exit 2
    assert parsed >= 200 and codes[0] >= 3, (parsed, codes)
