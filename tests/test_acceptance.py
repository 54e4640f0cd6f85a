"""Acceptance gate: the fourteen behavior criteria, one test each.

Every test prints one PASS/FAIL line (visible with -s or -rA; the verbose
test listing mirrors it) and asserts at the exact advertised tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np

from subcart.almostcomplex import (
    AlmostComplexStructure,
    eigenspace_closure_field,
    tensoriality_residual,
    torsion,
)
from subcart.cli import main
from subcart.expr import compile_vector, parse
from subcart.flow import ProbeOptions, classify_vector_field, flow_map, integrate
from subcart.orbit import (
    FieldFamily,
    chart_jacobian,
    dimension_constancy_report,
    local_completeness_probe,
)
from subcart.poisson import (
    PoissonStructure,
    ReductionSetup,
    invariance_residual,
    jacobi_residual,
    jacobi_sample_residual,
    leaf_sample,
    reduce,
)
from subcart.space import SubcartesianSpace
from subcart.strata import frontier_check, orbit_vs_strata, strongly_stratified_check

from conftest import (
    coordinate_fields,
    disk_line,
    halfline,
    make_field,
    punctured_plane,
    scenario_path,
)
from test_acs import VARIABLE_J_ROWS, numeric_nijenhuis
from test_poisson import R4_INVARIANTS, broken_structure, reduced_structure, sigma_space
from test_strata import CONE_HI, CONE_LO, cone_fields, cone_space, cone_stratification


def criterion(k: int, ok: bool, desc: str) -> bool:
    print(f"CRITERION {k:02d} {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    return ok


def test_criterion_01_halfline_classification():
    hl = halfline()
    probe = ProbeOptions(seeds=((0.0,), (1.0,)))
    bad = classify_vector_field(hl, make_field("ddx", ["1"], 1), probe)
    good = classify_vector_field(hl, make_field("xddx", ["x1"], 1), probe)
    ok = (
        bad.classification == "NotVectorField"
        and abs(bad.witness["point"][0]) <= 1e-9
        and good.classification == "VectorField"
        and good.probes_run >= 100
    )
    assert criterion(
        1, ok, "translation rejected on the halfline (witness at 0), scaling accepted"
    )


def test_criterion_02_disk_line_escape():
    dl = disk_line()
    ddx = make_field("ddx", ["1", "0"], 2)
    verdict = classify_vector_field(dl, ddx, ProbeOptions(seeds=((0.0, 0.0),)))
    ok = (
        verdict.classification == "NotVectorField"
        and np.linalg.norm(verdict.witness["point"]) <= 1e-2
    )
    for eps in (1e-2, 1e-3, 1e-4):
        curve = integrate(dl, ddx, [0.0, eps], horizon=1.0)
        ok = ok and 0.0 < curve.t_plus <= 2.0 * math.sqrt(2.0 * eps)
    assert criterion(
        2, ok, "horizontal field rejected at the tangency point, escape times obey the chord bound"
    )


def test_criterion_03_group_law():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        t, s = rng.uniform(-2.0, 2.0, size=2)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.5, 1.5)
        x = np.array([r * math.cos(ang), r * math.sin(ang)])
        a = flow_map(pp, rot, x, t + s)
        b = flow_map(pp, rot, flow_map(pp, rot, x, s), t)
        worst = max(worst, float(np.linalg.norm(a - b)))
    assert criterion(3, worst <= 1e-7, f"flow group law, worst composition gap {worst:.3e}")


def shear_family() -> FieldFamily:
    plane = SubcartesianSpace.whole_space(2)
    return FieldFamily(
        plane, [make_field("ddx", ["1", "0"], 2), make_field("xddy", ["0", "x1"], 2)]
    )


def test_criterion_04_chart_agreement():
    ch = chart_jacobian(shear_family(), [0, 1], (1.0, 0.0))
    ok = ch.rank == 2 and ch.agreement <= 1e-5
    assert criterion(
        4, ok, f"chart rank {ch.rank}, derivative routes agree to {ch.agreement:.3e}"
    )


def test_criterion_05_dimension_constancy():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    rad = make_field("rad", ["x1", "x2"], 2)
    one = dimension_constancy_report(FieldFamily(pp, [rot]), (1.0, 0.0))
    two = dimension_constancy_report(FieldFamily(pp, [rot, rad]), (1.0, 0.0))
    mix = dimension_constancy_report(shear_family(), (0.0, 0.0))
    ok = (
        one.constant
        and one.dimensions == [1]
        and two.constant
        and two.dimensions == [2]
        and not mix.constant
        and mix.dimensions == [1, 2]
    )
    assert criterion(
        5, ok, "orbit dimension constant for complete families, mixed for the shear pair"
    )


def test_criterion_06_completeness_probe():
    pp = punctured_plane()
    rot = make_field("rot", ["-x2", "x1"], 2)
    good = local_completeness_probe(FieldFamily(pp, [rot]), centers=[(1.0, 0.0)])
    bad = local_completeness_probe(shear_family(), probes=[((1.0, 0.0), -1.0, 0, 1)])
    w = bad.witness
    ok = (
        good.passed
        and not bad.passed
        and w is not None
        and np.linalg.norm(np.asarray(w["image"])) <= 1e-8
        and w["residual"] >= 0.5
    )
    assert criterion(
        6, ok, "singleton family locally complete, shear pair fails at the origin"
    )


def test_criterion_07_reduction_table():
    setup = ReductionSetup(
        ambient=PoissonStructure.canonical(2),
        invariants=tuple(parse(s, 4) for s in R4_INVARIANTS),
    )
    red = reduce(setup)
    want = reduced_structure()
    rng = np.random.default_rng(1)
    table_ok = all(
        np.allclose(red.matrix_at(pt), want.matrix_at(pt), atol=1e-9)
        for pt in rng.uniform(-1.5, 1.5, size=(10, 4))
    )
    ok = (
        table_ok
        and red.meta["certified_points"] == 200
        and red.meta["certified_residual"] <= 1e-10
    )
    assert criterion(
        7, ok,
        f"reduced bracket table recovered, certified at 200 points "
        f"(residual {red.meta['certified_residual']:.3e})",
    )


def test_criterion_08_leaf_cloud():
    lam = reduced_structure()
    gens = [parse(f"x{i}", 4) for i in (1, 2, 3)]
    cas = [parse("x1*x2-x3^2-x4^2", 4), parse("x4", 4)]
    sample = leaf_sample(
        sigma_space(), lam, gens, [1.0, 1.0, 1.0, 0.0], budget=500, rng_seed=0,
        casimirs=cas,
    )
    pts = np.asarray(sample.points)
    drift = max(d["max_drift"] for d in sample.diagnostics["casimirs"])
    relation = float(
        np.max(np.abs(pts[:, 0] * pts[:, 1] - pts[:, 2] ** 2 - pts[:, 3] ** 2))
    )
    ok = (
        len(pts) == 500
        and drift <= 1e-6
        and float(pts[:, 0].min()) >= 0.0
        and float(pts[:, 1].min()) >= 0.0
        and relation <= 1e-6
    )
    assert criterion(
        8, ok,
        f"500 leaf points stay on the leaf (casimir drift {drift:.3e}, "
        f"relation {relation:.3e})",
    )


def test_criterion_09_bracket_invariance():
    p = PoissonStructure.canonical(1)
    h = parse("(x1^2+x2^2)/2", 2)
    space = SubcartesianSpace.whole_space(2)
    vals = []
    for t in (0.1, 1.0):
        rep = invariance_residual(
            p, h, parse("x1", 2), parse("x2", 2), t, [0.7, -0.2], space=space
        )
        vals.append(rep.value)
    ok = all(v <= 1e-6 for v in vals)
    assert criterion(
        9, ok, f"bracket invariant under the flow (residuals {vals[0]:.2e}, {vals[1]:.2e})"
    )


def test_criterion_10_jacobi_identity():
    canonical = jacobi_sample_residual(PoissonStructure.canonical(1), n_triples=50)[0]
    reduced = jacobi_sample_residual(reduced_structure(), n_triples=50)[0]
    s = [parse(f"x{i}", 3) for i in (1, 2, 3)]
    control = jacobi_residual(
        broken_structure(), s[0], s[1], s[2], [np.array([0.5, 0.25, 0.75])]
    )
    ok = canonical <= 1e-8 and reduced <= 1e-8 and control >= 0.1
    assert criterion(
        10, ok,
        f"jacobi holds (canonical {canonical:.2e}, reduced {reduced:.2e}), "
        f"control violates it ({control:.2f})",
    )


def test_criterion_11_torsion_value():
    j = AlmostComplexStructure(4, [[parse(e, 4) for e in row] for row in VARIABLE_J_ROWS])
    e = coordinate_fields(4)
    pt = [1.0, 0.0, 0.0, 0.0]
    symbolic = np.array(compile_vector(torsion(j, e[0], e[2]).components)(pt))
    numeric = numeric_nijenhuis(j, e[0], e[2], pt)
    target = np.array([0.0, 0.0, -2.0, 0.0])
    ok = (
        np.linalg.norm(symbolic - target) <= 1e-8
        and np.linalg.norm(numeric - target) <= 1e-7
    )
    assert criterion(
        11, ok, f"torsion at the probe point is {symbolic.round(12).tolist()}"
    )


def test_criterion_12_tensoriality_and_eigenspace():
    e = coordinate_fields(4)
    f = parse("1+x2^2", 4)
    h = parse("2+x1*x3", 4)
    rng = np.random.default_rng(2)
    pts = [rng.uniform(-1.0, 1.0, size=4) for _ in range(50)]
    structures = [
        AlmostComplexStructure.standard(2),
        AlmostComplexStructure(4, [[parse(t, 4) for t in row] for row in VARIABLE_J_ROWS]),
    ]
    ok = True
    for j in structures:
        for x, y in ((e[0], e[2]), (e[1], e[3])):
            ok = ok and tensoriality_residual(j, x, y, f, h, pts) <= 1e-10
            closure = compile_vector(eigenspace_closure_field(j, x, y).components)
            n_val = compile_vector(torsion(j, x, y).components)
            for pt in pts:
                c = np.linalg.norm(closure(pt))
                n = np.linalg.norm(n_val(pt))
                ok = ok and abs(c - n / 4.0) <= 1e-10
    assert criterion(
        12, ok, "torsion is tensorial and measures the eigenspace bracket defect"
    )


def test_criterion_13_cone_stratification():
    ss = cone_stratification()
    fields = cone_fields()
    fam = FieldFamily(cone_space(), [fields["euler"], fields["rot"]])
    orbits = orbit_vs_strata(
        ss, fam, [[1.0, 0.0, 1.0]], CONE_LO, CONE_HI,
        budget=1000, rng_seed=0, drift_tol=1e-6,
    )
    seat = orbits.per_seed[0]
    frontier = frontier_check(ss, CONE_LO, CONE_HI, rng_seed=0)
    transverse = strongly_stratified_check(
        ss, fields["ddz"], CONE_LO, CONE_HI, rng_seed=0, drift_tol=1e-6
    )
    ok = (
        orbits.passed
        and seat["n_orbit_points"] >= 1000
        and seat["escapes"] == []
        and frontier.passed
        and not transverse.passed
    )
    assert criterion(
        13, ok,
        f"{seat['n_orbit_points']} orbit points stay in their stratum, frontier "
        f"holds, the transverse field is rejected",
    )


def test_criterion_14_deterministic_reports(capsys):
    cases = [
        ("flow", "--scenario", scenario_path("rotation_plane"), "--field", "rot",
         "--point", "1,0", "--horizon", "2.0"),
        ("classify", "--scenario", scenario_path("halfline"), "--field", "ddx"),
        ("bracket", "--scenario", scenario_path("translate_shear"), "--x", "ddx",
         "--y", "xddy", "--point", "0.5,0.25"),
        ("orbit", "--scenario", scenario_path("translate_shear"), "--point", "0,0",
         "--budget", "120"),
        ("chart", "--scenario", scenario_path("translate_shear"),
         "--family", "default", "--point", "1,0"),
        ("complete-probe", "--scenario", scenario_path("rotation_plane"),
         "--family", "rotation", "--n", "20"),
        ("strata", "--scenario", scenario_path("cone"), "--check", "frontier"),
        ("poisson", "--scenario", scenario_path("canonical_r2")),
        ("reduce", "--scenario", scenario_path("reduction_r4")),
        ("leaf", "--scenario", scenario_path("reduction_r4"), "--point", "1,1,1,0",
         "--budget", "150"),
        ("acs", "--scenario", scenario_path("acs_variable"), "--check", "torsion",
         "--x", "e1", "--y", "e3", "--point", "1,0,0,0"),
    ]
    ok = True
    for argv in cases:
        c1 = main(list(argv))
        out1 = capsys.readouterr().out
        c2 = main(list(argv))
        out2 = capsys.readouterr().out
        same = c1 == c2 and out1 == out2 and json.loads(out1)["command"] == argv[0]
        ok = ok and same
    with capsys.disabled():
        assert criterion(14, ok, "all eleven commands reproduce byte-identical reports")
