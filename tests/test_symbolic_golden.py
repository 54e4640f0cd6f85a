"""Golden bytes of the symbolic commands.

Each case pins the canonical report of one small CLI run of a command that
builds and differentiates expression trees without calling the
integrator: Jacobi checks, reduction, Lie brackets, almost complex structure
checks and the frontier condition.  A change to differentiation, constant
folding or codegen that moves a single bit of a residual, a printed
component or a fitted bivector shows up here.
"""

from __future__ import annotations

import json

import pytest

from subcart.cli import main

from conftest import assert_golden, exit_code_of, scenario_path

_POINT4 = "--point=0.3,-0.2,0.5,0.1"

# (name of the golden report, argv with the scenario name in place of its path, exit code)
GOLDEN = [
    ("poisson-reduction_r4", ["poisson", "--scenario", "reduction_r4", "--triples", "8",
                              "--points", "5", "--seed", "11"], 0),
    # a failing Jacobi sample carries its witness; the residual kept its bits
    ("poisson-jacobi_control", ["poisson", "--scenario", "jacobi_control", "--triples", "4",
                                "--points", "3", "--seed", "12"], 1),
    ("poisson-canonical_r2", ["poisson", "--scenario", "canonical_r2", "--triples", "6",
                              "--points", "4", "--scale", "2", "--seed", "13"], 0),
    ("reduce-reduction_r4", ["reduce", "--scenario", "reduction_r4", "--seed", "14"], 0),
    ("bracket-translate_shear", ["bracket", "--scenario", "translate_shear", "--x", "ddx",
                                 "--y", "xddy", "--point=0.3,-0.7"], 0),
    ("bracket-cone-ddz", ["bracket", "--scenario", "cone", "--x", "ddz", "--y", "rot",
                          "--point=-0.5,0.2,0.9"], 0),
    ("bracket-cone", ["bracket", "--scenario", "cone", "--x", "rot", "--y", "euler",
                      "--point=0.6,0.8,1.0"], 0),
    ("acs-torsion-acs_variable", ["acs", "--check", "torsion", "--scenario", "acs_variable",
                                  "--x", "e1", "--y", "e3", "--points", "5", _POINT4,
                                  "--seed", "15"], 0),
    ("acs-torsion-acs_standard", ["acs", "--check", "torsion", "--scenario", "acs_standard",
                                  "--x", "e1", "--y", "e2", "--points", "5", _POINT4,
                                  "--seed", "16"], 0),
    ("acs-cr", ["acs", "--check", "cr", "--scenario", "acs_standard", "--f", "x1^2 - x3^2",
                "--h", "2*x1*x3", "--points", "5", "--seed", "17"], 0),
    ("acs-kahler", ["acs", "--check", "kahler", "--scenario", "acs_standard", "--points", "5",
                    "--seed", "18"], 0),
    ("strata-frontier", ["strata", "--check", "frontier", "--scenario", "cone", "--seed", "19"], 0),
]


@pytest.mark.parametrize("name,argv,code", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_report(capsys, name, argv, code):
    argv = list(argv)
    at = argv.index("--scenario") + 1
    argv[at] = scenario_path(argv[at])
    assert main(argv) == code
    out = capsys.readouterr().out
    assert exit_code_of(json.loads(out)) == code
    assert_golden(out, name)
