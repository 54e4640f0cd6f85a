"""Canonical JSON reports and CSV artifacts."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subcart.report import (
    ReportError,
    canonical_json,
    format_float,
    sha256_hex,
    worst_residual,
    write_csv,
)


def test_worst_residual_keeps_nan():
    # the builtin max keeps what it has when the next value is NaN
    assert max(0.0, math.nan) == 0.0
    assert worst_residual([]) == 0.0
    assert worst_residual([0.5, 2.0, 1.0]) == 2.0
    assert worst_residual(iter([0.0, 3.0, math.inf])) == math.inf
    for values in ([math.nan], [1.0, math.nan], [math.nan, 5.0], [1.0, math.nan, math.inf]):
        assert math.isnan(worst_residual(values))


def test_format_float_basics():
    assert format_float(0.0) == "0"
    assert format_float(-0.0) == "0"
    assert format_float(1.5) == "1.5"
    assert format_float(0.1) == "0.10000000000000001"
    with pytest.raises(ReportError):
        format_float(float("nan"))
    with pytest.raises(ReportError):
        format_float(float("inf"))


@given(st.floats(allow_nan=False, allow_infinity=False))
@settings(max_examples=200, deadline=None)
def test_format_float_round_trips(v):
    assert float(format_float(v)) == v or (v == 0.0)


def test_canonical_json_shapes():
    obj = {
        "b": [1, 2.5, True, None],
        "a": {"nested": (1, 2)},
        "npfloat": np.float64(0.25),  # a float
    }
    text = canonical_json(obj)
    # keys sorted, bools and null in JSON form, tuples as lists
    assert text == '{"a":{"nested":[1,2]},"b":[1,2.5,true,null],"npfloat":0.25}'
    assert canonical_json(obj) == text
    parsed = json.loads(text)
    assert parsed["b"][2] is True


def test_canonical_json_distinguishes_bool_from_int():
    assert canonical_json([True, 1, False, 0]) == "[true,1,false,0]"


def test_canonical_json_rejects_bad_values():
    with pytest.raises(ReportError):
        canonical_json({"x": float("nan")})
    with pytest.raises(ReportError):
        canonical_json({1: "non-string key"})
    with pytest.raises(ReportError):
        canonical_json({"x": object()})
    # numpy values other than float64 are not Python values
    for bad in (np.array([1.0, 2.0]), np.int64(7), np.bool_(True), np.float32(0.5)):
        with pytest.raises(ReportError):
            canonical_json({"x": [bad]})


def test_sha256_hex():
    assert sha256_hex("abc") == sha256_hex(b"abc")
    assert len(sha256_hex("abc")) == 64


def test_write_csv(tmp_path):
    path = tmp_path / "data.csv"
    write_csv(str(path), ["t", "x", "id"], [[0.5, 1.0 / 3.0, 3], [1.0, 0.0, 0]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "t,x,id"
    assert lines[1].startswith("0.5,0.3333333333333333")
    assert lines[1].endswith(",3")
    assert lines[2] == "1,0,0"
    assert float(lines[1].split(",")[1]) == 1.0 / 3.0


def test_write_csv_numpy_scalars(tmp_path):
    # np.float64 is a float; any other numpy scalar is refused, as are bools and strings
    path = tmp_path / "np.csv"
    write_csv(str(path), ["a"], [[np.float64(0.25)]])
    assert path.read_text().splitlines()[1] == "0.25"
    for bad in (True, "x", np.int64(3), np.bool_(False), np.float32(1.5)):
        with pytest.raises(ReportError):
            write_csv(str(path), ["a"], [[bad]])


def test_write_csv_rejects_unquotable_cells(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ReportError):
        write_csv(str(path), ["a"], [["needs,quoting"]])
    with pytest.raises(ReportError):
        write_csv(str(path), ["a"], [[float("nan")]])


def test_write_csv_deterministic(tmp_path):
    rows = [[math.pi, 2.0 ** -40], [1e-300, 123456789.123456789]]
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_csv(str(p1), ["u", "v"], rows)
    write_csv(str(p2), ["u", "v"], rows)
    assert p1.read_bytes() == p2.read_bytes()
