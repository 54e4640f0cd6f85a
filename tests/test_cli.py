"""Command line driver: scenarios, exit codes, reports, determinism."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from subcart.cli import DEFAULT_TOLERANCES, load_scenario, main
from subcart.cli import SchemaError

from conftest import scenario_path


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
    assert sc.seed_set("default") == [[0.0], [1.0]]
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


def test_threads_env_validation(monkeypatch, capsys):
    monkeypatch.setenv("SUBCART_THREADS", "2")
    code, rep, _ = run(capsys, "poisson", "--scenario", scenario_path("canonical_r2"))
    assert code == 0
    monkeypatch.setenv("SUBCART_THREADS", "zero")
    code2, _, err = run(capsys, "poisson", "--scenario", scenario_path("canonical_r2"))
    assert code2 == 2
    assert "SUBCART_THREADS" in err


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
