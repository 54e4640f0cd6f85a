"""Command line driver: scenarios, exit codes, reports, determinism."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import shlex
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

from conftest import scenario_path
from test_imports import _fresh


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
    assert rep2["result"]["classification"] == "VectorField"
    assert rep2["result"]["probes_run"] >= 100


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
    code, rep, _ = run(capsys, "chart", "--scenario", scenario_path("translate_shear"),
                       "--family", "default", "--point", "0,0", "--basis", "0,1")
    assert code == 1
    assert rep["result"]["verdict"] == "DependentBasis"
    code2, rep2, _ = run(capsys, "chart", "--scenario", scenario_path("translate_shear"),
                         "--family", "default", "--point", "1,0")
    assert code2 == 0
    assert rep2["result"]["rank"] == 2
    assert rep2["result"]["agreement"] <= 1e-5


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
    assert (code, rep["result"]["verdict"]) == (1, "DependentBasis")
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


def test_strata_precondition_failure(capsys):
    code, rep, _ = run(capsys, "strata", "--scenario", scenario_path("cone"),
                       "--check", "orbits", "--family", "transverse")
    assert code == 1
    assert rep["result"]["verdict"] == "PreconditionFailed"


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
    assert "fit residual" in rep["result"]["detail"]


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


def test_tol_overrides(capsys):
    code, rep, _ = run(capsys, "strata", "--scenario", scenario_path("cone"),
                       "--check", "tangency", "--field", "rot",
                       "--tol-overrides", '{"drift": 1e-12}')
    assert code == 1
    assert rep["tolerances"]["drift"] == 1e-12
    code2, _, err = run(capsys, "strata", "--scenario", scenario_path("cone"),
                        "--check", "tangency", "--field", "rot",
                        "--tol-overrides", "not-json")
    assert code2 == 2
    assert "tol-overrides" in err


def test_default_tolerances_present(capsys):
    _, rep, _ = run(capsys, "poisson", "--scenario", scenario_path("canonical_r2"))
    for key in DEFAULT_TOLERANCES:
        assert key in rep["tolerances"]


def test_default_tolerances_and_horizon_are_the_library_constants():
    # cli writes these out so that importing it loads no command module
    from subcart import almostcomplex, cli, field, flow, orbit, poisson, strata

    assert DEFAULT_TOLERANCES == {
        "rtol": flow.DEFAULT_RTOL, "atol": flow.DEFAULT_ATOL, "rank": field.RANK_TOL,
        "completeness": orbit.COMPLETENESS_TOL, "antisymmetry": 1e-12, "jacobi": 1e-8,
        "casimir_drift": 1e-6, "frontier": strata.FRONTIER_TOL, "drift": strata.DRIFT_TOL,
        "kahler": almostcomplex.KAHLER_TOL, "fit": poisson.FIT_TOL, "certify": poisson.CERTIFY_TOL,
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
    (["orbit", "--scenario", "translate_shear", "--point=nan,0"], "--point coordinate 0 is nan"),
    (["flow", "--scenario", "halfline", "--field", "ddx", "--point=nan"], "--point coordinate 0 is nan"),
    (["chart", "--scenario", "translate_shear", "--family", "default", "--point=0,inf"],
     "--point coordinate 1 is inf"),
    (["leaf", "--scenario", "reduction_r4", "--point=1,1,-inf,0"], "--point coordinate 2 is -inf"),
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
     "field overflows at basepoint [1e+200]"),
    ("x1", "1e-200 * x1^4", ["flow", "--field", "f", "--point=1.15e77", "--horizon", "1"],
     "field overflows at t=0.0"),
    # math.exp overflows on numpy floats too, so membership cannot retry there
    ("exp(x1) - 2", "1", ["flow", "--field", "f", "--point=1000"],
     "a constraint of the space overflows at [1000.0]"),
    ("exp(x1) - 2", "1", ["orbit", "--point=1000"], "a constraint of the space overflows at [1000.0]"),
])
def test_overflow_exits_2_naming_it(tmp_path, capsys, constraint, field, argv, says):
    # each used to end in "internal error: OverflowError"
    code, report, err = run(capsys, *argv, "--scenario", _one_cell_scenario(tmp_path, constraint, field))
    assert code == 2
    assert report == {}
    assert err.count("\n") == 1 and says in err and "internal error" not in err


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
    assert repr(key) in err
    assert "Traceback" not in err


def test_scenario_tolerance_key_can_be_overridden(tmp_path, capsys):
    doc = json.loads(open(scenario_path("halfline"), encoding="utf-8").read())
    doc["tolerances"] = {"probe_extra": 0.5}
    p = tmp_path / "extra_tol.json"
    p.write_text(json.dumps(doc))
    code, rep, _ = run(capsys, "flow", "--scenario", str(p), "--field", "ddx", "--point=0.5",
                       "--horizon", "1", "--tol-overrides", '{"probe_extra": 0.25}')
    assert code == 0
    assert rep["tolerances"]["probe_extra"] == 0.25


@pytest.mark.parametrize("value,text", [
    ("-1", "-1"), ("0", "0"), ("NaN", "nan"), ("Infinity", "inf"), ("1" + "0" * 400, "float range"),
    ('"1e-9"', "expected a number"), ("true", "expected a number"),
])
def test_bad_scenario_tolerance_exits_2_with_path(tmp_path, capsys, value, text):
    doc = json.loads(open(scenario_path("halfline"), encoding="utf-8").read())
    p = tmp_path / "bad_tol.json"
    p.write_text(json.dumps(doc)[:-1] + ', "tolerances": {"probe_extra": 0.5, "rtol": ' + value + "}}")
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


@pytest.mark.parametrize("scale", ["1e160", "1e200", "1e300"])
def test_poisson_overflowing_scale_exits_2(capsys, scale):
    # the cubic terms of the broken bivector overflow; Python's max used to
    # drop the NaN and report a passing residual of 0
    code, report, err = run(capsys, "poisson", "--scenario", scenario_path("jacobi_control"),
                            "--triples", "3", "--points", "3", "--scale", scale)
    assert code == 2
    assert report == {}
    assert "--scale" in err
    assert len(err.splitlines()) == 1


def test_poisson_passes_at_any_scale_where_the_jacobiator_vanishes(capsys):
    # J and P + P^T of the reduced bivector are exactly 0.0, so large sample
    # points no longer overflow the residual
    code, report, err = run(capsys, "poisson", "--scenario", scenario_path("reduction_r4"),
                            "--triples", "3", "--points", "3", "--scale", "1e300")
    assert code == 0
    assert report["result"]["jacobi_residual"] == 0
    assert err == ""


def test_poisson_reduce_flag_is_gone(capsys):
    # the reduction is the `reduce` subcommand
    code, report, err = run(capsys, "poisson", "--scenario", scenario_path("reduction_r4"),
                            "--reduce")
    assert code == 2
    assert report == {}
    assert "unrecognized arguments: --reduce" in err


def _cli_process(*argv: str) -> subprocess.CompletedProcess:
    """The CLI in a child process, so stderr holds what a user would see,
    numpy's warnings included."""
    src = os.path.dirname(os.path.dirname(subcart.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "subcart", *argv], capture_output=True,
                          text=True, env=env, timeout=60)


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


OVERFLOW_EXIT = {
    "name": "overflow-exit",
    "space": {"ambient_dim": 2, "locally_closed": True, "cells": [[
        {"expr": "(1e200*x1)^2 + 1", "rel": "geq0"}, {"expr": "x2 - 1", "rel": "leq0"}]]},
    "fields": {"v": ["0", "1"]},
    "families": {"default": ["v"]},
}


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


def test_overflow_retry_imports_numpy_in_a_fresh_interpreter(tmp_path, capsys):
    # every membership test of this flow overflows on Python floats; the
    # retry on numpy floats imports numpy, which the child has not loaded yet
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
    assert (before, after) == (False, True)
    assert (code, out) == run_bytes(capsys, *argv)


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


@pytest.mark.parametrize("check", ["tangency", "orbits"])
def test_strata_nan_slack_exits_2(tmp_path, check):
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(WEDGE))
    proc = _cli_process("strata", "--scenario", str(path), "--check", check, "--field", "v")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "RuntimeWarning" not in proc.stderr
    assert re.fullmatch(r"error: the constraints of stratum 'wedge' are not a number at "
                        r"\[[^\]]+\]\n", proc.stderr), proc.stderr


def test_strata_frontier_samples_without_numpy_warnings(tmp_path):
    # over a box of side 2 every product overflows; the box sampler used to
    # test its draws on numpy scalars, which printed RuntimeWarnings
    path = tmp_path / "wedge.json"
    path.write_text(json.dumps(dict(WEDGE, box=[[-1.0, -1.0], [1.0, 1.0]])))
    proc = _cli_process("strata", "--scenario", str(path), "--check", "frontier")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: stratum 'wedge' produced no samples in the given box\n"


@pytest.mark.parametrize("check", [["frontier"], ["tangency", "--field", "rot"]])
def test_strata_projection_overflow_exits_2_naming_the_stratum(tmp_path, capsys, check):
    # over a box of side 2e160 x^2 + y^2 - z^2 overflows in Python floats at
    # nearly every draw; such a projection fails like a non-finite step, so
    # the surface gets no samples, where the overflow used to escape
    cone = json.loads(Path(scenario_path("cone")).read_text())
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

def _golden_cases(tmp_path) -> list[list[str]]:
    from test_flow_golden import GOLDEN as FLOW, _scenario
    from test_symbolic_golden import GOLDEN as SYMBOLIC

    cases = []
    for _, argv, _, _ in FLOW + SYMBOLIC:
        argv = list(argv)
        at = argv.index("--scenario") + 1
        argv[at] = _scenario(tmp_path, argv[at])
        cases.append(argv)
    return cases


def test_in_process_calls_give_the_bytes_of_a_fresh_process(tmp_path, capsys):
    from concurrent.futures import ThreadPoolExecutor

    cases = _golden_cases(tmp_path)
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = [(p.returncode, p.stdout, p.stderr) for p in pool.map(lambda a: _cli_process(*a), cases)]
    for order in (range(len(cases)), reversed(range(len(cases)))):
        for i in order:
            code = main(cases[i])
            out, err = capsys.readouterr()
            assert (code, out, err) == fresh[i], cases[i]


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
    assert digest == "e1df34af491ea3dc6a21feb541893d6ce4e781f6eaf20a899a1feb060ef51908"
    assert main([]) == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: command\n")
    assert main(["bogus"]) == 2
    assert capsys.readouterr().err.endswith(
        "error: argument command: invalid choice: 'bogus' (choose from 'flow', 'classify',"
        " 'bracket', 'orbit', 'chart', 'complete-probe', 'strata', 'poisson', 'reduce',"
        " 'leaf', 'acs')\n")


@pytest.mark.parametrize("columns", ["80", "50"])
def test_one_command_parser_answers_as_the_full_one(monkeypatch, capsys, columns):
    import argparse

    import subcart.cli as cli

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
    for argv in examples:
        for i in (i for i, a in enumerate(argv) if a.startswith("--")):
            for value in _FLAG_VALUES:
                mutant = argv[:i + 1] + [value] + argv[i + 2:]
                code = main(mutant)
                err = capsys.readouterr().err
                assert code in (0, 1, 2) and "Traceback" not in err and "internal error:" not in err, (mutant, err)
                codes[code] += 1
    assert sum(codes.values()) == len(_FLAG_VALUES) * sum(a.startswith("--") for argv in examples for a in argv)
    assert codes[0] >= 20, codes  # not every mutant stops at the parser
