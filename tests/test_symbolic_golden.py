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

from subcart.cli import _box_points, load_scenario, main
from subcart.poisson import jacobi_sample_residual
from subcart.report import canonical_json

from conftest import GOLDEN_DIR, assert_golden, exit_code_of, scenario_path

_POINT4 = "--point=0.3,-0.2,0.5,0.1"

# (name of the golden report, argv with the scenario name in place of its path, exit code)
GOLDEN = [
    # every Jacobiator and P + P^T has the exact normal form 0: no draw
    ("poisson-reduction_r4", ["poisson", "--scenario", "reduction_r4", "--triples", "8",
                              "--points", "5", "--seed", "11"], 0),
    # J^123 = x3 is not 0: its exact witness at the integer point (0, 0, 1)
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


def sampled_poisson_report(name: str, triples: int, points: int, scale: float, seed: int) -> str:
    """The CLI's report of ``poisson`` on the scenario ``name`` at the default
    tolerances, its result the antisymmetry at the box points and the
    Jacobi sample, called directly."""
    sc = load_scenario(scenario_path(name))
    p, tol = sc.poisson, {"antisymmetry": 1e-12, "jacobi": 1e-8}
    anti = p.antisymmetry_residual(_box_points(sc, 20, seed))
    jac, witness = jacobi_sample_residual(p, n_triples=triples, n_points=points, scale=scale, rng_seed=seed)
    result = {"label": p.label, "dim": p.dim, "antisymmetry_residual": anti, "jacobi_residual": jac,
              "passed": anti <= tol["antisymmetry"] and jac <= tol["jacobi"]}
    if jac > tol["jacobi"]:
        result["witness"] = witness
    return canonical_json({"command": "poisson", "result": result, "scenario": {"name": sc.name, "sha256": sc.sha256},
                           "seed": seed, "tolerances": tol}) + "\n"


# (name of the golden report, scenario, triples, points, scale, seed): the
# bytes the CLI printed for the poisson goldens above before its exact stage
# answered them
SAMPLED_POISSON = [
    ("sampled-poisson-reduction_r4", "reduction_r4", 8, 5, 1.0, 11),
    ("sampled-poisson-jacobi_control", "jacobi_control", 4, 3, 1.0, 12),
    ("sampled-poisson-canonical_r2", "canonical_r2", 6, 4, 2.0, 13),
]


@pytest.mark.parametrize("name,scenario,triples,points,scale,seed", SAMPLED_POISSON,
                         ids=[s[0] for s in SAMPLED_POISSON])
def test_the_sampled_jacobi_check_keeps_its_bytes(name, scenario, triples, points, scale, seed):
    out = sampled_poisson_report(scenario, triples, points, scale, seed)
    assert_golden(out, name)
    # the exact verdict is the sampled one
    exact = (GOLDEN_DIR / f"{name.removeprefix('sampled-')}.json").read_text(encoding="utf-8")
    assert json.loads(exact)["result"]["passed"] == json.loads(out)["result"]["passed"]
