"""Golden bytes of the symbolic commands.

Each case pins the sha256 of the canonical report of one small CLI run of a
command that builds and differentiates expression trees without calling the
integrator: Jacobi checks, reduction, Lie brackets, almost complex structure
checks and the frontier condition.  A change to differentiation, constant
folding or codegen that moves a single bit of a residual, a printed
component or a fitted bivector shows up here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from subcart.cli import main

from conftest import exit_code_of, full_envelope, scenario_path

_POINT4 = "--point=0.3,-0.2,0.5,0.1"

# (name, argv with the scenario name in place of its path, exit code, sha256 of stdout)
GOLDEN = [
    ("poisson-reduction_r4", ["poisson", "--scenario", "reduction_r4", "--triples", "8",
                              "--points", "5", "--seed", "11"],
     0, "b40309b1e70ec2633c6d578a550f536cbc7e30e65b57ce71510aeeff9e9579ec"),
    # a failing Jacobi sample carries its witness; the residual kept its bits
    ("poisson-jacobi_control", ["poisson", "--scenario", "jacobi_control", "--triples", "4",
                                "--points", "3", "--seed", "12"],
     1, "614e512e33a660c0fe2fc878d48cba1936777ab3428a4a58d36fc46a450c7be8"),
    ("poisson-canonical_r2", ["poisson", "--scenario", "canonical_r2", "--triples", "6",
                              "--points", "4", "--scale", "2", "--seed", "13"],
     0, "2c9512df5713313cf6f790068f9a824b2e4ace12d65898a442b2a46172aa1320"),
    ("reduce-reduction_r4", ["reduce", "--scenario", "reduction_r4", "--seed", "14"],
     0, "0c5053f244eb9591a9ab9239eb3c461f761051e9ca3b03bcf2d6a82300ce4e02"),
    ("bracket-translate_shear", ["bracket", "--scenario", "translate_shear", "--x", "ddx",
                                 "--y", "xddy", "--point=0.3,-0.7"],
     0, "dd46bca77961e45640a39198b6f069714170288fd9b2b70481801997d77e47e7"),
    ("bracket-cone-ddz", ["bracket", "--scenario", "cone", "--x", "ddz", "--y", "rot",
                          "--point=-0.5,0.2,0.9"],
     0, "66849c7b8dc769361a02f10b974161027e8a7ade749d0675b880de8731535eba"),
    ("bracket-cone", ["bracket", "--scenario", "cone", "--x", "rot", "--y", "euler",
                      "--point=0.6,0.8,1.0"],
     0, "e2169bf53aaca2df465bd3cb5bfa94bf958d0c5806037e59421081dd2aea6aed"),
    ("acs-torsion-acs_variable", ["acs", "--check", "torsion", "--scenario", "acs_variable",
                                  "--x", "e1", "--y", "e3", "--points", "5", _POINT4,
                                  "--seed", "15"],
     0, "01be3bb5548b6aa2fbed769b6732e972292d9479615b8a38b71f1c56a5027867"),
    ("acs-torsion-acs_standard", ["acs", "--check", "torsion", "--scenario", "acs_standard",
                                  "--x", "e1", "--y", "e2", "--points", "5", _POINT4,
                                  "--seed", "16"],
     0, "9776e78edd575d8f0c0c5815b5ac6fd8f1aec1c0586192dfa66aab184dc7ff4c"),
    ("acs-cr", ["acs", "--check", "cr", "--scenario", "acs_standard", "--f", "x1^2 - x3^2",
                "--h", "2*x1*x3", "--points", "5", "--seed", "17"],
     0, "4faf7485847d2bf519250e57534393d20a0f29add5fb3b716efd4c2a16e97d83"),
    ("acs-kahler", ["acs", "--check", "kahler", "--scenario", "acs_standard", "--points", "5",
                    "--seed", "18"],
     0, "266a252d255d79e04b39e55591bfa6322eb4b9e05131e4f26b56fc7a9ad9dac9"),
    ("strata-frontier", ["strata", "--check", "frontier", "--scenario", "cone", "--seed", "19"],
     0, "d098bb8e837a7bf60d05168368833e144d064635773b8db426d5b2e4eeca74a0"),
]

# sha256 of each report above as conftest.full_envelope rebuilds it, with
# every tolerance and a seed: the digest of the report the CLI printed
# before a report echoed only the tolerances and seed its command reads
FULL_ENVELOPE = {
    "poisson-reduction_r4": "47b77f14e104e0fe30723bb7f59211ba61685c9ef2c595d33bda86870642c292",
    "poisson-jacobi_control": "71809cf7087180307b0b05c84702d51f4a09d60478fbb58c0a9dca121ad08d1d",
    "poisson-canonical_r2": "9ada6e9bd6b9196bdb414c9b4de116fcc692475a59ec67a7e87cbbbe07755cb0",
    "reduce-reduction_r4": "8f4c84f8222d392bb877f03cc056e450bca169eae4ca44dfa089224ca6915f81",
    "bracket-translate_shear": "62bf20f9fe48c22c56c555bffe6735fe3cb70d0073572143aa8c408da6aeb3df",
    "bracket-cone-ddz": "c402ffbca77673fbe8c9775139335e17f76201cbe7a363ae5944f1a8038d96bc",
    "bracket-cone": "626adf9fc63e2c5bea6e5c09108c25e3dcc5481074cb6841793075b558c3851d",
    "acs-torsion-acs_variable": "3cd0381d7c58b5b3d1d3747c5ca44f85897b550cd416ab9a6d2d9b25d4c3ab1b",
    "acs-torsion-acs_standard": "58ea7b2ddf023998330d2a0057f683e86f076f8db50826b9c4ad435954f41373",
    "acs-cr": "f57562d3296543830f86517d485aa9a3d776d144e99faf19509bd90ec4c61081",
    "acs-kahler": "b1349a72ad485c6fc1340ef725d23ef00a222446529fcb37ba41d1132a645643",
    "strata-frontier": "2ea2974d758b14e359aac3221c4e7ec6e8b4c0d95183e4f38700f2d669a059a6",
}


@pytest.mark.parametrize("name,argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(capsys, name, argv, code, digest):
    argv = list(argv)
    at = argv.index("--scenario") + 1
    argv[at] = scenario_path(argv[at])
    assert main(argv) == code
    out = capsys.readouterr().out
    assert exit_code_of(json.loads(out)) == code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, out
    assert hashlib.sha256(full_envelope(out, argv[at]).encode("utf-8")).hexdigest() == FULL_ENVELOPE[name]
