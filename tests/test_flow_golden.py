"""Golden bytes of the integrator-backed commands.

Each case pins the sha256 of the canonical report of one small CLI run, and
for flows also of the sample CSV, so any change to the integrator that moves
a single bit of a curve, exit time, orbit cloud or drift shows up here.
Direct ``transport_vector`` calls on a 4-dimensional field (joint state of
length 8, past numpy's 8-term pairwise summation block) pin their results
by ``float.hex``, and the reference driver of ``test_flow`` backs those pins.
"""

from __future__ import annotations

import functools
import hashlib
import json
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from subcart.cli import main
from subcart.expr import compile_vector, diff
from subcart.flow import FlowOptions, transport_vector
from subcart.space import SubcartesianSpace

from conftest import exit_code_of, full_envelope, make_field, scenario_path
from test_flow import _hexes, _ref_drive

# (name, argv with the scenario name in place of its path, exit code, sha256 of stdout)
GOLDEN = [
    ("flow-halfline", ["flow", "--scenario", "halfline", "--field", "ddx", "--point=0.5",
                       "--horizon", "2"],
     0, "c060ee45be21606f68d7178ef0560c25bcae8ac1237cc4b7e7fd4f743905115e"),
    ("flow-halfline-xddx", ["flow", "--scenario", "halfline", "--field", "xddx", "--point=0.75",
                            "--horizon", "3"],
     0, "fa87512373ca2d5ad1ca36b1c620771093edf2f11c792d4e8ceee43d77173803"),
    ("flow-disk_line", ["flow", "--scenario", "disk_line", "--field", "ddx", "--point=0.1,0.5",
                        "--horizon", "3"],
     0, "680dd95dddecf5d5aad731c452cd1179711ec4e2ed2f8bba7eb4c8d71e566968"),
    ("flow-rotation_plane", ["flow", "--scenario", "rotation_plane", "--field", "rot",
                             "--point=0.6,-0.8", "--horizon", "7"],
     0, "eda6443fc07437c2c8d6ae3a414ba5fcccc72010a0a2f85ee4277eb8190dd857"),
    ("flow-spiral_disk", ["flow", "--scenario", "spiral_disk", "--field", "spiral",
                          "--point=0.5,0.25", "--horizon", "20"],
     0, "a7d3f5e8e2da0a8f72a573ee0bc3af74e67442cf21887d9aba5ee8cf9141942e"),
    ("classify-halfline-xddx", ["classify", "--scenario", "halfline", "--field", "xddx",
                                "--seeds", "interior"],
     0, "2438b4d434660663e67ef5947c86a746ebff09c6fd58108127515f9c36d54cd3"),
    ("classify-halfline-ddx", ["classify", "--scenario", "halfline", "--field", "ddx"],
     1, "6138dfe01dd1a58ff0e3e6ce3f9908acb900e8fbe9df6ea75ce7bb51f74e5938"),
    ("classify-circle-rot", ["classify", "--scenario", "circle", "--field", "rot"],
     0, "bfc2df58cfd5ea2285292a5abea61b13d5b419b6dc2a9d15503d45395dbd18b0"),
    ("orbit-translate_shear", ["orbit", "--scenario", "translate_shear", "--point=0.2,-0.3",
                               "--budget", "60", "--seed", "3"],
     0, "4c9dae6fc9e0179dfcf9e61fbd7c9a4744cc5f6b75f4766641a951b53faf6fb3"),
    ("orbit-cone", ["orbit", "--scenario", "cone", "--point=0.6,0.8,1.0", "--budget", "60",
                    "--seed", "5"],
     0, "e6094c4142bef87d51e030c646dfeb63adb3fb6b694cad2b727f092723247a47"),
    ("leaf-reduction_r4", ["leaf", "--scenario", "reduction_r4", "--point=1.0,0.29,0.5,0.2",
                           "--budget", "40", "--seed", "1"],
     0, "5c37bdbffc3fb9532321dd7a65da70855a776fa7150a9bf4757e113be8da945e"),
    ("chart", ["chart", "--scenario", "translate_shear", "--point=0.7,0.2"],
     0, "be90f8e78a31e7b9a4b9af9b59b8d6eae63f269fb88f9ee5c870b77c91681ecb"),
    # the span residual is a Gram-Schmidt on Python floats, not lstsq: only
    # max_residual moved, from 7.021666937153402e-16 to 4.965068306494546e-16
    # (digests 74c220ee and e6500e55 before), and it no longer depends on the
    # BLAS kernel; test_orbit checks every probe's residual against lstsq
    ("complete-probe", ["complete-probe", "--scenario", "rotation_plane", "--family", "pair",
                        "--seeds", "ring", "--n", "6", "--seed", "2"],
     0, "8e2cf0b1841fbca3939bc2128f1fa7f3cefcfd2d22af34c3e867bf3266b7a3f8"),
    ("strata-tangency-rot", ["strata", "--check", "tangency", "--scenario", "cone", "--field", "rot",
                             "--horizon", "0.3", "--seed", "4"],
     0, "a945d0048c1dd569566af95533848bb36fbcc1d93e506ae872aa82e74aa20aba"),
    ("strata-tangency-ddz", ["strata", "--check", "tangency", "--scenario", "cone", "--field", "ddz",
                             "--horizon", "0.3", "--seed", "4"],
     1, "2208f423633e828957543367b1769fa8cbc5ab34bb793a3d39fef1e76954f7cc"),
    ("strata-orbits", ["strata", "--check", "orbits", "--scenario", "cone", "--budget", "60",
                       "--seed", "6"],
     0, "0fcc0f64a269bef11f522e3934c0a01e4366033ae89b9ab421c142aa58d4ff1b"),
]

# sha256 of each report above as conftest.full_envelope rebuilds it, with
# every tolerance and a seed: the digest of the report the CLI printed
# before a report echoed only the tolerances and seed its command reads
FULL_ENVELOPE = {
    "flow-halfline": "438ec21d90ebdc4b9f5b70a03884b5655bf0ae98c661d2114eb686fad96824b4",
    "flow-halfline-xddx": "b9fb23a4294c80256893f5446ad73730ba242388ed32fec54a181f5ab7e53bd3",
    "flow-disk_line": "f72729232e6e475e4d93285b404ccaeef8bb113a7ba9b0e39ebe03d7448c18d0",
    "flow-rotation_plane": "381242e4ccd5850749761b2195526f8f493ff7f3a2c4120a0b303d1485251bd2",
    "flow-spiral_disk": "8314b646665b9066d87b7b7c0f0a3c83dfc946598526c8c73c5e0872a3fb59c7",
    "classify-halfline-xddx": "5001d5f5328d370cc5afad65f1301131febf071dfe89aa80df0747a7b574a094",
    "classify-halfline-ddx": "436eb97a046f1e8f68feafffacad10b41b1fc052c97dfc87a29a0fe04de977a0",
    "classify-circle-rot": "af88879670c1379109ec10f27c0e512febe2bdd9a6649ea3c62c48daf0d3be09",
    "orbit-translate_shear": "329966c71fac9213df57aeccf4765fcbdebd132f7ba536345b379d6c66b96507",
    "orbit-cone": "038b3f4c30e2c831e1778a8ec045b9062f2759c26a39bf2403086da72242fc54",
    "leaf-reduction_r4": "0e1a6d7199ad8c5f1345f3c90b1ba8aaf761e3135fd05395a1a4a4ec9dd95f33",
    "chart": "4a65b9c6f433eebcac45200e4634e6ef0d1bce736016bc0e4dc29b98ede75aa2",
    "complete-probe": "c518b2f07fc46de77b19bd895273f81afcc51b0fa563a43ea7d7a012a8a5cf49",
    "strata-tangency-rot": "f3cc6724560ee8eed5a4c24e6f90b8c836a6b8ab4e413874bddf6b6a5a130a25",
    "strata-tangency-ddz": "d7ac7316fc598fd453a4329a0fd16954dcb1744217ceaf14982c26d0bcfb59d1",
    "strata-orbits": "293cfeb6655f09443ae17e4c9c6c86f94aa63a751d01954ebfbe2af0371a6b07",
}


# A rotating, expanding field leaving an open disk through its curved edge.
SPIRAL_DISK = {
    "name": "spiral_disk",
    "aliases": ["x", "y"],
    "space": {"ambient_dim": 2, "cells": [[{"expr": "x^2+y^2-4", "rel": "lt0"}]]},
    "fields": {"spiral": ["-y + 0.1*x", "x + 0.1*y"]},
}

# The report of flow-spiral_disk as it was when SPIRAL_DISK declared
# "locally_closed": false, which one open cell contradicts
SPIRAL_DISK_DECLARED = "8aa9eb4e45a2b844e683c448ee25d3614a1ca69c0b9c80c4175cee61cce56ced"

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


@pytest.mark.parametrize("name,argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(capsys, tmp_path, name, argv, code, digest):
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
        assert _digest(out) == digest, out
        assert _digest(full_envelope(out, argv[at])) == FULL_ENVELOPE[name]
    if argv[0] == "flow":
        text = csv.read_text(encoding="utf-8")
        assert text.count("\n") == 1 + json.loads(out)["result"]["n_samples"]  # the header and one row a sample
        if name in GOLDEN_CSV:
            assert _digest(text) == GOLDEN_CSV[name]


# An orbit at the size of the benchmark's large translate_shear orbits: the
# report, the cloud CSV and the words sidecar pin every point, word and
# duration drawn, and so every merge answer and flow of 2,000 candidates;
# the second digest is the report's full envelope (see FULL_ENVELOPE)
ORBIT_2000 = (["orbit", "--scenario", "translate_shear", "--point=0.3,-0.4", "--budget", "2000", "--seed", "7"],
              "755ce3da24aa619ca4b25114540274fb53e0779b8686bcd7d8fabcd6e7b3a478",
              "9f3478595a727c64bfb67409a97c2fca777b5d08983a9b0120faecf8dc616614",
              "6042d86bcebdfc8d23f5bb23d89b46ca31bd5a378e3469fb1e36d2811bfbc75a",
              "d740551461abfccce4b9c6eb60f16b562b4652f78b808953e64cd167c417c2b4")


def test_golden_orbit_cloud_at_the_bench_size(capsys, tmp_path):
    argv, report, full, cloud, words = ORBIT_2000
    csv = tmp_path / "cloud.csv"
    assert main([scenario_path(a) if a == "translate_shear" else a for a in argv] + ["--out", str(csv)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["result"]["n_points"] == 2000
    assert _digest(out) == report
    assert _digest(full_envelope(out, scenario_path("translate_shear"))) == full
    assert _digest(csv.read_text(encoding="utf-8")) == cloud
    assert _digest((tmp_path / "cloud.words.json").read_text(encoding="utf-8")) == words


def test_spiral_disk_report_moved_only_in_its_scenario_hash(capsys, tmp_path):
    _, argv, code, _ = next(g for g in GOLDEN if g[0] == "flow-spiral_disk")
    argv = [_scenario(tmp_path, a) if a == "spiral_disk" else a for a in argv]
    assert main(argv) == code
    out = capsys.readouterr().out
    declared = dict(SPIRAL_DISK, space=dict(SPIRAL_DISK["space"], locally_closed=False))
    old, new = (_digest(json.dumps(doc, sort_keys=True)) for doc in (declared, SPIRAL_DISK))
    assert out.count(new) == 1
    full = full_envelope(out, _scenario(tmp_path, "spiral_disk"))  # the envelope reports had then
    assert _digest(full.replace(new, old)) == SPIRAL_DISK_DECLARED


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


def _openblas_with_dynamic_arch() -> bool:
    """Whether numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, which picks
    its kernels by CPU when it loads and takes ``OPENBLAS_CORETYPE`` instead."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        return False
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


# Run the golden commands of this file and of test_symbolic_golden in one
# interpreter, given their argv by name as JSON, and print the digest of each
# report by name.
_CHILD = """\
import contextlib, hashlib, io, json, sys
from subcart.cli import main
digests = {}
for name, argv in json.loads(sys.argv[1]).items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    digests[name] = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
print(json.dumps(digests))
"""


@pytest.mark.skipif(not _openblas_with_dynamic_arch(), reason="numpy's BLAS is not an OpenBLAS built with DYNAMIC_ARCH")
def test_golden_digests_are_the_same_under_every_openblas_kernel(tmp_path):
    # OpenBLAS kernels sum in different orders, so a report float from BLAS or
    # LAPACK would move between CPUs; complete-probe's lstsq residual did under
    # Prescott and Nehalem
    from test_symbolic_golden import GOLDEN as SYMBOLIC

    cases = GOLDEN + SYMBOLIC + [("orbit-2000", ORBIT_2000[0], 0, ORBIT_2000[1])]
    argvs = {name: [_scenario(tmp_path, a) if i and argv[i - 1] == "--scenario" else a for i, a in enumerate(argv)]
             for name, argv, _, _ in cases}
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    children = {core: subprocess.Popen([sys.executable, "-c", _CHILD, json.dumps(argvs)], stdout=subprocess.PIPE,
                                       stderr=subprocess.PIPE, text=True, env=dict(env, OPENBLAS_CORETYPE=core))
                for core in ("Prescott", "Nehalem", "Haswell", "SkylakeX")}
    digests = {}
    for core, child in children.items():
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        digests[core] = json.loads(out)
    assert digests["Prescott"] == {name: digest for name, _, _, digest in cases}
    assert all(d == digests["Prescott"] for d in digests.values())
