"""Golden bytes of the integrator-backed commands.

Each case pins the sha256 of the canonical report of one small CLI run, and
for flows also of the sample CSV, so any change to the integrator that moves
a single bit of a curve, exit time, orbit cloud or drift shows up here.
Direct ``transport_vector`` calls on a 4-dimensional field (joint state of
length 8, past numpy's 8-term pairwise summation block) pin their results
by ``float.hex``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from subcart.cli import main
from subcart.flow import transport_vector

from conftest import make_field, scenario_path

# (name, argv with the scenario name in place of its path, exit code, sha256 of stdout)
GOLDEN = [
    ("flow-halfline", ["flow", "--scenario", "halfline", "--field", "ddx", "--point=0.5",
                       "--horizon", "2"],
     0, "438ec21d90ebdc4b9f5b70a03884b5655bf0ae98c661d2114eb686fad96824b4"),
    ("flow-halfline-xddx", ["flow", "--scenario", "halfline", "--field", "xddx", "--point=0.75",
                            "--horizon", "3"],
     0, "b9fb23a4294c80256893f5446ad73730ba242388ed32fec54a181f5ab7e53bd3"),
    ("flow-disk_line", ["flow", "--scenario", "disk_line", "--field", "ddx", "--point=0.1,0.5",
                        "--horizon", "3"],
     0, "f72729232e6e475e4d93285b404ccaeef8bb113a7ba9b0e39ebe03d7448c18d0"),
    ("flow-rotation_plane", ["flow", "--scenario", "rotation_plane", "--field", "rot",
                             "--point=0.6,-0.8", "--horizon", "7"],
     0, "381242e4ccd5850749761b2195526f8f493ff7f3a2c4120a0b303d1485251bd2"),
    ("flow-spiral_disk", ["flow", "--scenario", "spiral_disk", "--field", "spiral",
                          "--point=0.5,0.25", "--horizon", "20"],
     0, "8aa9eb4e45a2b844e683c448ee25d3614a1ca69c0b9c80c4175cee61cce56ced"),
    ("classify-halfline-xddx", ["classify", "--scenario", "halfline", "--field", "xddx",
                                "--seeds", "interior"],
     0, "958e9361b97dd1212d9f5620ef4a84f5719b9f5960124a31daefa7f93da7e9fb"),
    ("classify-halfline-ddx", ["classify", "--scenario", "halfline", "--field", "ddx"],
     1, "436eb97a046f1e8f68feafffacad10b41b1fc052c97dfc87a29a0fe04de977a0"),
    ("classify-circle-rot", ["classify", "--scenario", "circle", "--field", "rot"],
     0, "aca136d34b5e85244efc9af4091940bb53aa3b7a4e17ea11eb9c5b522689b06c"),
    ("orbit-translate_shear", ["orbit", "--scenario", "translate_shear", "--point=0.2,-0.3",
                               "--budget", "60", "--seed", "3"],
     0, "329966c71fac9213df57aeccf4765fcbdebd132f7ba536345b379d6c66b96507"),
    ("orbit-cone", ["orbit", "--scenario", "cone", "--point=0.6,0.8,1.0", "--budget", "60",
                    "--seed", "5"],
     0, "038b3f4c30e2c831e1778a8ec045b9062f2759c26a39bf2403086da72242fc54"),
    ("leaf-reduction_r4", ["leaf", "--scenario", "reduction_r4", "--point=1.0,0.29,0.5,0.2",
                           "--budget", "40", "--seed", "1"],
     0, "0e1a6d7199ad8c5f1345f3c90b1ba8aaf761e3135fd05395a1a4a4ec9dd95f33"),
    ("chart", ["chart", "--scenario", "translate_shear", "--point=0.7,0.2"],
     0, "4a65b9c6f433eebcac45200e4634e6ef0d1bce736016bc0e4dc29b98ede75aa2"),
    ("complete-probe", ["complete-probe", "--scenario", "rotation_plane", "--family", "pair",
                        "--seeds", "ring", "--n", "6", "--seed", "2"],
     0, "287a11fb2b3928510da58ea62dec2b73182917d9f991c05bd97d1b880f869a3b"),
    ("strata-tangency-rot", ["strata", "--check", "tangency", "--scenario", "cone", "--field", "rot",
                             "--horizon", "0.3", "--seed", "4"],
     0, "f3cc6724560ee8eed5a4c24e6f90b8c836a6b8ab4e413874bddf6b6a5a130a25"),
    ("strata-tangency-ddz", ["strata", "--check", "tangency", "--scenario", "cone", "--field", "ddz",
                             "--horizon", "0.3", "--seed", "4"],
     1, "d7ac7316fc598fd453a4329a0fd16954dcb1744217ceaf14982c26d0bcfb59d1"),
    ("strata-orbits", ["strata", "--check", "orbits", "--scenario", "cone", "--budget", "60",
                       "--seed", "6"],
     0, "293cfeb6655f09443ae17e4c9c6c86f94aa63a751d01954ebfbe2af0371a6b07"),
]


# A rotating, expanding field leaving an open disk through its curved edge.
SPIRAL_DISK = {
    "name": "spiral_disk",
    "aliases": ["x", "y"],
    "space": {"ambient_dim": 2, "cells": [[{"expr": "x^2+y^2-4", "rel": "lt0"}]],
              "locally_closed": False},
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


@pytest.mark.parametrize("name,argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(capsys, tmp_path, name, argv, code, digest):
    argv = list(argv)
    at = argv.index("--scenario") + 1
    argv[at] = _scenario(tmp_path, argv[at])
    csv = tmp_path / "samples.csv"
    if name in GOLDEN_CSV:
        argv += ["--out", str(csv)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert _digest(out) == digest, out
    if name in GOLDEN_CSV:
        assert _digest(csv.read_text(encoding="utf-8")) == GOLDEN_CSV[name]


# (t, image point, transported vector) by float.hex
GOLDEN_TRANSPORT = [
    (0.7, ["0x1.c0dc1523ec9ddp-4", "-0x1.47ae53bfb2e99p-2", "0x1.d0e54c542586ep-2", "-0x1.d88f5c71062aep-3"],
     ["0x1.14126ad2169ffp+0", "-0x1.15df478941c1ap-2", "0x1.6cf4d13726838p-6", "0x1.94d9783106803p-4"]),
    (5.0, ["0x1.17c7bb575c7aep-2", "0x1.d23671baba1bfp-3", "0x1.35c773b95f062p-4", "0x1.e27a4e5cf43cfp-2"],
     ["-0x1.329f698710404p-2", "0x1.21140763cc6e2p+0", "0x1.4f37d7d198f8bp-3", "-0x1.25fabf4ddc913p-3"]),
    (-3.0, ["-0x1.ff8d596413ccfp-3", "0x1.b9fcc54270d27p-3", "-0x1.c7f09a109a7eep-2", "0x1.69095dddff46bp-7"],
     ["-0x1.22bb7581dcdd0p+0", "-0x1.bc1517bf788eap-2", "0x1.df0ae06a499f9p-5", "0x1.f8f97e71309d6p-4"]),
]


@pytest.mark.parametrize("t,image_hex,vector_hex", GOLDEN_TRANSPORT)
def test_golden_transport_vector_4d(t, image_hex, vector_hex):
    x_field = make_field("osc", ["x2", "-x1 - 0.3*x2*x3", "x4", "-x3 + 0.5*x1^2"], 4)
    y_field = make_field("probe", ["1", "x3", "0", "x1*x2"], 4)
    image, vec = transport_vector(None, x_field, t, y_field, [0.3, -0.2, 0.5, 0.1])
    assert [float(v).hex() for v in image] == image_hex
    assert [float(v).hex() for v in vec] == vector_hex
