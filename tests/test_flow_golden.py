"""Golden bytes of the integrator-backed commands.

Each case pins the canonical report of one small CLI run to its file in
``tests/golden``, and for flows also the sha256 of the sample CSV, so any
change to the integrator that moves a single bit of a curve, exit time,
orbit cloud or drift shows up here.
Direct ``transport_vector`` calls on a 4-dimensional field (joint state of
length 8, past numpy's 8-term pairwise summation block) pin their results
by ``float.hex``, and the reference driver of ``test_flow`` backs those pins.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator

import numpy as np
import pytest

from subcart.cli import main
from subcart.expr import compile_vector, diff
from subcart.flow import FlowOptions, transport_vector
from subcart.space import SubcartesianSpace

from conftest import assert_golden, exit_code_of, make_field, scenario_path
from test_flow import _hexes, _ref_drive

# (name of the golden report, argv with the scenario name in place of its path, exit code)
GOLDEN = [
    ("flow-halfline", ["flow", "--scenario", "halfline", "--field", "ddx", "--point=0.5",
                       "--horizon", "2"], 0),
    ("flow-halfline-xddx", ["flow", "--scenario", "halfline", "--field", "xddx", "--point=0.75",
                            "--horizon", "3"], 0),
    ("flow-disk_line", ["flow", "--scenario", "disk_line", "--field", "ddx", "--point=0.1,0.5",
                        "--horizon", "3"], 0),
    ("flow-rotation_plane", ["flow", "--scenario", "rotation_plane", "--field", "rot",
                             "--point=0.6,-0.8", "--horizon", "7"], 0),
    ("flow-spiral_disk", ["flow", "--scenario", "spiral_disk", "--field", "spiral",
                          "--point=0.5,0.25", "--horizon", "20"], 0),
    ("classify-halfline-xddx", ["classify", "--scenario", "halfline", "--field", "xddx",
                                "--seeds", "interior"], 0),
    ("classify-halfline-ddx", ["classify", "--scenario", "halfline", "--field", "ddx"], 1),
    ("classify-circle-rot", ["classify", "--scenario", "circle", "--field", "rot"], 0),
    ("classify-halfline-xddx-default", ["classify", "--scenario", "halfline", "--field", "xddx",
                                        "--seeds", "default"], 0),
    ("classify-rotation_plane-rot-ring", ["classify", "--scenario", "rotation_plane", "--field", "rot",
                                          "--seeds", "ring"], 0),
    ("classify-disk_line-ddx-default", ["classify", "--scenario", "disk_line", "--field", "ddx",
                                        "--seeds", "default"], 1),
    ("orbit-translate_shear", ["orbit", "--scenario", "translate_shear", "--point=0.2,-0.3",
                               "--budget", "60", "--seed", "3"], 0),
    ("orbit-cone", ["orbit", "--scenario", "cone", "--point=0.6,0.8,1.0", "--budget", "60",
                    "--seed", "5"], 0),
    ("leaf-reduction_r4", ["leaf", "--scenario", "reduction_r4", "--point=1.0,0.29,0.5,0.2",
                           "--budget", "40", "--seed", "1"], 0),
    ("chart", ["chart", "--scenario", "translate_shear", "--point=0.7,0.2"], 0),
    # the span residual is a Gram-Schmidt on Python floats, not lstsq: only
    # max_residual moved, from 7.021666937153402e-16 to 4.965068306494546e-16,
    # and it no longer depends on the BLAS kernel; test_orbit checks every
    # probe's residual against lstsq
    ("complete-probe", ["complete-probe", "--scenario", "rotation_plane", "--family", "pair",
                        "--seeds", "ring", "--n", "6", "--seed", "2"], 0),
    ("strata-tangency-rot", ["strata", "--check", "tangency", "--scenario", "cone", "--field", "rot",
                             "--horizon", "0.3", "--seed", "4"], 0),
    ("strata-tangency-ddz", ["strata", "--check", "tangency", "--scenario", "cone", "--field", "ddz",
                             "--horizon", "0.3", "--seed", "4"], 1),
    ("strata-orbits", ["strata", "--check", "orbits", "--scenario", "cone", "--budget", "60",
                       "--seed", "6"], 0),
]

# A rotating, expanding field leaving an open disk through its curved edge,
# written to a file as ``_scenario`` writes it
SPIRAL_DISK = {
    "name": "spiral_disk",
    "aliases": ["x", "y"],
    "space": {"ambient_dim": 2, "cells": [[{"expr": "x^2+y^2-4", "rel": "lt0"}]]},
    "fields": {"spiral": ["-y + 0.1*x", "x + 0.1*y"]},
}

# sha256 of the sample CSV written by --out for the flow cases
GOLDEN_CSV = {
    "flow-halfline": "4b4086638b11b4ddb844a053eeea13dc23bf2996679e6ec0e713cb113b211c9a",
    "flow-disk_line": "9094703705f467532d31299d70d87a902c3b71083ffb866688cf512f4db42ee4",
    "flow-rotation_plane": "23a74c71f91d2db33562d57cc9ee34b52d36026343163b3342b5eac7a54d75a4",
    "flow-spiral_disk": "34d508abb7a2ce329f731cde8c81ddef1c4e556ec3c7a062676ced60deba3a8c",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scenario(tmp_path, name: str) -> str:
    if name == SPIRAL_DISK["name"]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(SPIRAL_DISK, sort_keys=True), encoding="utf-8")
        return str(path)
    return scenario_path(name)


@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(capsys, tmp_path, name, argv, code):
    argv = list(argv)
    at = argv.index("--scenario") + 1
    argv[at] = _scenario(tmp_path, argv[at])
    csv = tmp_path / "samples.csv"
    # a flow counts its samples without --out and stores them with it, for
    # the same report
    runs = [argv, argv + ["--out", str(csv)]] if argv[0] == "flow" else [argv]
    for run in runs:
        assert main(run) == code
        out = capsys.readouterr().out
        assert exit_code_of(json.loads(out)) == code
        assert_golden(out, name)
    if argv[0] == "flow":
        text = csv.read_text(encoding="utf-8")
        assert text.count("\n") == 1 + json.loads(out)["result"]["n_samples"]  # the header and one row a sample
        if name in GOLDEN_CSV:
            assert _digest(text) == GOLDEN_CSV[name]


# An orbit at the size of the benchmark's large translate_shear orbits: the
# report, the cloud CSV and the words sidecar pin every point, word and
# duration drawn, and so every merge answer and flow of 2,000 candidates.
# (name of the golden report, argv, sha256 of the cloud CSV, of the words)
ORBIT_2000 = ("orbit-translate_shear-2000",
              ["orbit", "--scenario", "translate_shear", "--point=0.3,-0.4", "--budget", "2000", "--seed", "7"],
              "6042d86bcebdfc8d23f5bb23d89b46ca31bd5a378e3469fb1e36d2811bfbc75a",
              "d740551461abfccce4b9c6eb60f16b562b4652f78b808953e64cd167c417c2b4")


def test_golden_orbit_cloud_at_the_bench_size(capsys, tmp_path):
    name, argv, cloud, words = ORBIT_2000
    csv = tmp_path / "cloud.csv"
    assert main([scenario_path(a) if a == "translate_shear" else a for a in argv] + ["--out", str(csv)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["result"]["n_points"] == 2000
    assert_golden(out, name)
    assert _digest(csv.read_text(encoding="utf-8")) == cloud
    assert _digest((tmp_path / "cloud.words.json").read_text(encoding="utf-8")) == words


# (t, image point, transported vector) by float.hex
GOLDEN_TRANSPORT = [
    (0.7, ["0x1.c0dc1523ec9dcp-4", "-0x1.47ae53bfb2e9ap-2", "0x1.d0e54c542586dp-2", "-0x1.d88f5c71062a9p-3"],
     ["0x1.14126ad216a00p+0", "-0x1.15df478941c1ap-2", "0x1.6cf4d13726834p-6", "0x1.94d9783106801p-4"]),
    (5.0, ["0x1.17c7bb575c7b4p-2", "0x1.d23671baba1c1p-3", "0x1.35c773b95f052p-4", "0x1.e27a4e5cf43c4p-2"],
     ["-0x1.329f698710409p-2", "0x1.21140763cc6e1p+0", "0x1.4f37d7d198f91p-3", "-0x1.25fabf4ddc915p-3"]),
    (-3.0, ["-0x1.ff8d596413ce0p-3", "0x1.b9fcc54270d14p-3", "-0x1.c7f09a109a7ecp-2", "0x1.69095dddff29bp-7"],
     ["-0x1.22bb7581dcdcdp+0", "-0x1.bc1517bf7890cp-2", "0x1.df0ae06a499eap-5", "0x1.f8f97e71309b5p-4"]),
]


def _oscillator():
    x_field = make_field("osc", ["x2", "-x1 - 0.3*x2*x3", "x4", "-x3 + 0.5*x1^2"], 4)
    y_field = make_field("probe", ["1", "x3", "0", "x1*x2"], 4)
    return x_field, y_field, [0.3, -0.2, 0.5, 0.1]


@pytest.mark.parametrize("t,image_hex,vector_hex", GOLDEN_TRANSPORT)
def test_golden_transport_vector_4d(t, image_hex, vector_hex):
    x_field, y_field, x0 = _oscillator()
    image, vec = transport_vector(SubcartesianSpace.whole_space(4), x_field, t, x0, y_field.value(x0))
    assert [float(v).hex() for v in image] == image_hex
    assert [float(v).hex() for v in vec] == vector_hex


def _variational_rhs(x_field, blas: bool):
    """The right-hand side of the point and the carried vector: the field,
    then its Jacobian times the vector, as a numpy matrix product (BLAS,
    whose rounding varies by CPU) or summed in order over the Jacobian's
    entries that are not identically zero."""
    n = x_field.dim
    rows = [[diff(c, k) for k in range(n)] for c in x_field.components]
    jac = compile_vector([e for row in rows for e in row])

    def rhs(z):
        y, v = z[:n], z[n:]
        j = jac(y)
        if blas:
            return x_field.value(y) + (np.array(j).reshape(n, n) @ np.array(v)).tolist()
        carried = [functools.reduce(operator.add, [j[i * n + k] * v[k] for k, e in enumerate(row) if not e.is_zero],
                                    0.0) for i, row in enumerate(rows)]
        return x_field.value(y) + carried

    return rhs


def _reference_transport(x_field, y_field, x0, t, blas: bool) -> list[float]:
    start = list(x0) + y_field.value(x0)
    return _ref_drive(_variational_rhs(x_field, blas), start, t, FlowOptions(), None, None, None).y_end


@pytest.mark.parametrize("t,image_hex,vector_hex", GOLDEN_TRANSPORT)
def test_golden_transport_matches_the_reference_drives(t, image_hex, vector_hex):
    x_field, y_field, x0 = _oscillator()
    pinned = image_hex + vector_hex
    # bit for bit the drive of the in-order sums the kernel computes inline
    assert _hexes(_reference_transport(x_field, y_field, x0, t, False)) == pinned
    # and close to the BLAS product transport used to call
    blas = _reference_transport(x_field, y_field, x0, t, True)
    assert all(abs(float.fromhex(h) - b) <= 1e-12 * abs(b) for h, b in zip(pinned, blas))


@pytest.mark.parametrize("components", [["-x2", "x1"], ["0", "x1"], ["1", "0"]], ids=["rotation", "shear", "ddx"])
@pytest.mark.parametrize("t", [0.7, 5.0, -3.0])
def test_transport_keeps_the_blas_bytes_where_jacobian_rows_have_one_term(components, t):
    # a product sum of one nonzero term rounds the same with and without FMA
    x_field = make_field("x", components, 2)
    y_field = make_field("y", ["1 + x2", "x1*x2"], 2)
    image, vec = transport_vector(SubcartesianSpace.whole_space(2), x_field, t, [0.3, -0.2], y_field.value([0.3, -0.2]))
    assert _hexes(list(image) + list(vec)) == _hexes(_reference_transport(x_field, y_field, [0.3, -0.2], t, True))
