"""Command mixes of the three workloads and the correctness oracle of each command.

A workload is a list of templates.  Every round of a run emits each template
`count` times.  The size that dominates a template's cost (horizon, budget,
number of triples) is a stratified sample of its range over the whole run,
with little jitter inside each stratum, so two seeds give nearly the same
latency distribution; the other arguments (points, --seed) are plain seeded
draws.  Points are passed as `--point=...`, because argparse reads a leading
negative coordinate as a flag.

Every command carries its expected exit code and, where the scenario fixes
one, a check of the report against an analytic value.  A check returns None
when the report is right and a one-line reason otherwise.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional

# Exit times land within a few membership bands of the analytic value; the
# scenarios' band is space.tol = 1e-9.
BAND = 1e-9
EXIT_TOL = 8 * BAND


@dataclass
class Command:
    template: str
    argv: list[str]
    exit_code: int
    check: Optional[Callable[[dict], Optional[str]]] = None
    malformed: bool = False
    # a defect of the program known when the benchmark was written: its
    # failures are counted and listed, but do not make the run incorrect
    known_defect: Optional[str] = None


@dataclass
class Template:
    name: str
    count: int
    make: Callable[[float, random.Random, Callable[[str], str]], Command]


def _point(xs) -> str:
    return "--point=" + ",".join(repr(float(x)) for x in xs)


def _log_range(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _near(got, want, tol, what) -> Optional[str]:
    if not isinstance(got, (int, float)) or abs(got - want) > tol:
        return f"{what} is {got!r}, expected {want!r} within {tol:g}"
    return None


def _first(*reasons) -> Optional[str]:
    return next((r for r in reasons if r), None)


def _key(key, want) -> Callable[[dict], Optional[str]]:
    def check(res):
        if res.get(key) != want:
            return f"{key} is {res.get(key)!r}, expected {want!r}"
        return None

    return check


def _eval_text(text: str, x: list[float]) -> float:
    """Evaluate a printed subcart expression at x (x1..xn), independently of subcart."""
    env = {f"x{i + 1}": v for i, v in enumerate(x)}
    return eval(text.replace("^", "**"), {"__builtins__": {}}, env)


# probe_sweep ---------------------------------------------------------------------

def _classify(scenario, field, verdict, code, known_defect=None):
    def make(u, rng, sc):
        return Command(
            f"classify/{scenario}/{field}",
            ["classify", "--scenario", sc(scenario), "--field", field,
             "--seed", str(rng.randrange(10**6))],
            code, _key("classification", verdict), known_defect=known_defect,
        )
    return make


def _flow_halfline(u, rng, sc):
    x0 = 0.05 + 0.9 * rng.random()
    h = _log_range(u, 1.0, 20.0)

    def check(res):
        # ddx moves every point at unit speed: it leaves [0, inf) at t = -x0,
        # through an attained endpoint, and never leaves going forward
        return _first(
            _near(res["t_minus"], -x0, EXIT_TOL, "t_minus"),
            None if (res["exit_minus"] or {}).get("attained") is True
            else "exit_minus is not attained",
            None if res["clipped_plus"] and res["t_plus"] == h else "forward side not clipped at the horizon",
        )

    return Command("flow/halfline/ddx",
                   ["flow", "--scenario", sc("halfline"), "--field", "ddx", _point([x0]),
                    "--horizon", repr(h)], 0, check)


def _flow_disk_line(u, rng, sc):
    y = 0.3 + 1.4 * rng.random()
    w = math.sqrt(1.0 - (y - 1.0) ** 2)
    x = w * (1.8 * rng.random() - 0.9)
    h = 2.5 + 17.5 * u

    def check(res):
        # ddx crosses the open disk x^2 + (y-1)^2 < 1 along a chord: both
        # ends are open-face exits at x = -w and x = +w
        reasons = [
            _near(res["t_plus"], w - x, EXIT_TOL, "t_plus"),
            _near(res["t_minus"], -w - x, EXIT_TOL, "t_minus"),
        ]
        for side in ("exit_minus", "exit_plus"):
            wit = res[side]
            if not wit or wit.get("attained") is not False:
                reasons.append(f"{side} is not an open-face exit")
        return _first(*reasons)

    return Command("flow/disk_line/ddx",
                   ["flow", "--scenario", sc("disk_line"), "--field", "ddx", _point([x, y]),
                    "--horizon", repr(h)], 0, check)


def _flow_rotation(lo, hi):
    def make(u, rng, sc):
        return _rotation(_log_range(u, lo, hi), rng, sc)
    return make


def _rotation(h, rng, sc):
    r = 0.3 + 1.7 * rng.random()
    a = 2 * math.pi * rng.random()

    def check(res):
        # rotation keeps |x| fixed, so the curve never meets the origin
        ok = (res["clipped_minus"] and res["clipped_plus"] and res["t_minus"] == -h
              and res["t_plus"] == h and res["exit_minus"] is None and res["exit_plus"] is None)
        return None if ok else "rotation curve not clipped on both sides"

    return Command("flow/rotation_plane/rot",
                   ["flow", "--scenario", sc("rotation_plane"), "--field", "rot",
                    _point([r * math.cos(a), r * math.sin(a)]), "--horizon", repr(h)], 0, check)


# orbit_sweep ---------------------------------------------------------------------

def _dimension(want):
    def check(res):
        return _first(
            _key("est_dimension", want)(res),
            None if 1 <= res["n_points"] else "empty orbit",
        )
    return check


def _orbit(scenario, family, point_of, lo, hi):
    def make(u, rng, sc):
        budget = round(_log_range(u, lo, hi))
        argv = ["orbit", "--scenario", sc(scenario), "--family", family,
                _point(point_of(rng)), "--budget", str(budget), "--seed", str(rng.randrange(10**6))]
        # every family here spans the tangent plane of a 2-dimensional orbit
        return Command(f"orbit/{scenario}/{family}", argv, 0, _dimension(2))
    return make


def _plane_point(rng):
    return [2 * rng.random() - 1, 2 * rng.random() - 1]


def _ring_point(rng):
    r = 0.5 + rng.random()
    a = 2 * math.pi * rng.random()
    return [r * math.cos(a), r * math.sin(a)]


def _cone_point(rng):
    z = 0.5 + rng.random()
    a = 2 * math.pi * rng.random()
    return [z * math.cos(a), z * math.sin(a), z]


def _leaf(u, rng, sc):
    s1 = 0.5 + rng.random()
    s3 = 2 * rng.random() - 1
    s4 = rng.random() - 0.5
    point = [s1, (s3 * s3 + s4 * s4) / s1, s3, s4]
    budget = round(_log_range(u, 60, 600))

    def check(res):
        # two Casimirs on the 4-dimensional reduced space leave 2-dimensional leaves
        return _first(_key("passed", True)(res), _key("est_dimension", 2)(res))

    return Command("leaf/reduction_r4",
                   ["leaf", "--scenario", sc("reduction_r4"), _point(point),
                    "--budget", str(budget), "--seed", str(rng.randrange(10**6))], 0, check)


def _strata_orbits(u, rng, sc):
    budget = round(_log_range(u, 100, 600))
    return Command("strata-orbits/cone",
                   ["strata", "--check", "orbits", "--scenario", sc("cone"),
                    "--budget", str(budget), "--seed", str(rng.randrange(10**6))],
                   0, _key("passed", True))


def _tangency(field, passed):
    def make(u, rng, sc):
        return Command(f"strata-tangency/cone/{field}",
                       ["strata", "--check", "tangency", "--scenario", sc("cone"), "--field", field,
                        "--horizon", repr(0.2 + 0.8 * u), "--seed", str(rng.randrange(10**6))],
                       0 if passed else 1, _key("passed", passed))
    return make


def _chart(u, rng, sc):
    x = (0.5 + rng.random()) * rng.choice((-1.0, 1.0))
    y = 2 * rng.random() - 1

    def check(res):
        # the chart differential's columns are ddx = (1, 0) and x ddy = (0, x)
        want = [[1.0, 0.0], [0.0, x]]
        return _first(
            _key("verdict", "Chart")(res),
            None if res.get("jacobian") == want else f"jacobian {res.get('jacobian')!r}, expected {want!r}",
        )

    return Command("chart/translate_shear",
                   ["chart", "--scenario", sc("translate_shear"), _point([x, y])], 0, check)


def _complete(scenario, family, seeds):
    def make(u, rng, sc):
        argv = ["complete-probe", "--scenario", sc(scenario), "--family", family, "--seeds", seeds,
                "--n", str(round(10 + 30 * u)), "--radius", repr(0.3 + 0.9 * rng.random()),
                "--t-scale", repr(0.3 + 0.7 * rng.random()), "--seed", str(rng.randrange(10**6))]
        return Command(f"complete-probe/{scenario}/{family}", argv, 0, _key("passed", True))
    return make


# symbolic_sweep ------------------------------------------------------------------

def _poisson(scenario, passed, lo, hi):
    def make(u, rng, sc):
        argv = ["poisson", "--scenario", sc(scenario), "--triples", str(round(lo + (hi - lo) * u)),
                "--points", str(rng.randint(3, 15)), "--seed", str(rng.randrange(10**6))]
        return Command(f"poisson/{scenario}", argv, 0 if passed else 1, _key("passed", passed))
    return make


def _reduce(u, rng, sc):
    def check(res):
        # {s1,s2} = 4 s3, {s1,s3} = 2 s1, {s2,s3} = -2 s2 and s4 is a Casimir,
        # for s = (|q|^2, |p|^2, q.p, q x p) under the canonical bracket
        reason = _key("verdict", "Reduced")(res)
        if reason:
            return reason
        for x in ([0.3, -1.1, 0.7, 2.0], [1.5, 0.2, -0.4, -0.9]):
            s1, s2, s3, _ = x
            want = [[0, 4 * s3, 2 * s1, 0], [-4 * s3, 0, -2 * s2, 0],
                    [-2 * s1, 2 * s2, 0, 0], [0, 0, 0, 0]]
            for i, row in enumerate(res["bivector"]):
                for j, text in enumerate(row):
                    if abs(_eval_text(text, x) - want[i][j]) > 1e-9:
                        return f"reduced bracket entry [{i}][{j}] = {text!r}"
        return None

    return Command("reduce/reduction_r4",
                   ["reduce", "--scenario", sc("reduction_r4"), "--seed", str(rng.randrange(10**6))],
                   0, check)


def _bracket_shear(u, rng, sc):
    point = _plane_point(rng)

    def check(res):
        # [ddx, x ddy] = ddy
        return None if res.get("value") == [0.0, 1.0] else f"value {res.get('value')!r}, expected [0, 1]"

    return Command("bracket/translate_shear",
                   ["bracket", "--scenario", sc("translate_shear"), "--x", "ddx", "--y", "xddy",
                    _point(point)], 0, check)


def _bracket_cone(u, rng, sc):
    def check(res):
        # rotations commute with dilations
        return None if res.get("value") == [0.0, 0.0, 0.0] else f"value {res.get('value')!r}, expected 0"

    return Command("bracket/cone",
                   ["bracket", "--scenario", sc("cone"), "--x", "rot", "--y", "euler",
                    _point(_cone_point(rng))], 0, check)


def _acs_torsion(scenario, x, y, flat):
    def make(u, rng, sc):
        point = [2 * rng.random() - 1 for _ in range(4)]
        argv = ["acs", "--check", "torsion", "--scenario", sc(scenario), "--x", x, "--y", y,
                "--points", str(round(5 + 55 * u)), _point(point), "--seed", str(rng.randrange(10**6))]

        def check(res):
            # a constant structure is integrable
            if flat and res.get("max_norm") != 0.0:
                return f"max_norm {res.get('max_norm')!r} of a constant structure"
            return None

        return Command(f"acs-torsion/{scenario}", argv, 0, check)
    return make


def _acs_cr(u, rng, sc):
    c = 0.5 + 1.5 * rng.random()
    # with J d/dq1 = d/dp1, (f, h) = c z^2 for z = q1 + i p1 is holomorphic
    f = f"{c!r}*(x1^2 - x3^2)"
    h = f"{2 * c!r}*x1*x3"
    argv = ["acs", "--check", "cr", "--scenario", sc("acs_standard"), "--f", f, "--h", h,
            "--points", str(round(5 + 55 * u)), "--seed", str(rng.randrange(10**6))]

    def check(res):
        return _near(res.get("residual"), 0.0, 1e-9, "Cauchy-Riemann residual")

    return Command("acs-cr/acs_standard", argv, 0, check)


def _acs_kahler(u, rng, sc):
    argv = ["acs", "--check", "kahler", "--scenario", sc("acs_standard"),
            "--points", str(round(5 + 55 * u)), "--seed", str(rng.randrange(10**6))]
    return Command("acs-kahler/acs_standard", argv, 0, _key("passed", True))


def _frontier(u, rng, sc):
    return Command("strata-frontier/cone",
                   ["strata", "--check", "frontier", "--scenario", sc("cone"),
                    "--seed", str(rng.randrange(10**6))], 0, _key("passed", True))


# Malformed inputs ------------------------------------------------------------------
# Each must end in exit 2 without a traceback.  `--horizon inf` and
# `--step-scale nan` are left out: they hang inside one call, which a
# single-process benchmark cannot bound (see NOTES.md).

def _malformed(name, argv_of):
    def make(u, rng, sc):
        return Command(f"malformed/{name}", argv_of(sc), 2, malformed=True,
                       known_defect="accepted or crashes; input validation is ROADMAP item 5")
    return Template(f"malformed/{name}", 1, make)


_NAN_RTOL = ["--tol-overrides", '{"rtol": NaN}']
_UNKNOWN_KEY = ["--tol-overrides", '{"rtoll": 1e-9}']
_ACS_NO_POINTS = _malformed(
    "acs-points-0",
    lambda sc: ["acs", "--check", "torsion", "--scenario", sc("acs_standard"),
                "--x", "e1", "--y", "e3", "--points", "0"],
)

WORKLOADS: dict[str, list[Template]] = {
    "probe_sweep": [
        Template("classify/halfline/ddx", 1, _classify("halfline", "ddx", "NotVectorField", 1)),
        Template("classify/halfline/xddx", 1, _classify("halfline", "xddx", "VectorField", 0)),
        Template("classify/circle/rot", 1, _classify("circle", "rot", "VectorField", 0)),
        Template("classify/disk_line/ddx", 1, _classify(
            "disk_line", "ddx", "NotVectorField", 1,
            known_defect="the direct probe answers VectorField for some probe seeds")),
        Template("flow/halfline/ddx", 2, _flow_halfline),
        Template("flow/disk_line/ddx", 2, _flow_disk_line),
        # short arcs keep the samples dense around the median, long arcs
        # reach past the classify times
        Template("flow/rotation_plane/rot-short", 8, _flow_rotation(6.0, 10.0)),
        Template("flow/rotation_plane/rot-long", 2, _flow_rotation(15.0, 250.0)),
        _malformed("horizon-negative",
                   lambda sc: ["flow", "--scenario", sc("halfline"), "--field", "ddx",
                               "--point=0.5", "--horizon", "-1"]),
        _malformed("rtol-nan",
                   lambda sc: ["classify", "--scenario", sc("halfline"), "--field", "ddx"] + _NAN_RTOL),
        _malformed("unknown-tolerance",
                   lambda sc: ["flow", "--scenario", sc("disk_line"), "--field", "ddx",
                               "--point=0.1,0.5"] + _UNKNOWN_KEY),
        _ACS_NO_POINTS,
    ],
    "orbit_sweep": [
        # budgets from 80 to 3000 in bands; the 900-1100 band is a dense
        # cluster that holds the p90, the 2000-3000 band lies beyond it
        Template("orbit/cone/default", 1, _orbit("cone", "default", _cone_point, 80, 400)),
        Template("orbit/rotation_plane/pair", 1,
                 _orbit("rotation_plane", "pair", _ring_point, 200, 700)),
        Template("orbit/translate_shear/mid", 2,
                 _orbit("translate_shear", "default", _plane_point, 900, 1100)),
        Template("orbit/translate_shear/large", 1,
                 _orbit("translate_shear", "default", _plane_point, 2000, 3000)),
        Template("leaf/reduction_r4", 2, _leaf),
        Template("strata-orbits/cone", 1, _strata_orbits),
        Template("strata-tangency/cone/ddz", 2, _tangency("ddz", False)),
        Template("strata-tangency/cone/rot", 2, _tangency("rot", True)),
        Template("strata-tangency/cone/euler", 2, _tangency("euler", True)),
        Template("chart/translate_shear", 2, _chart),
        Template("complete-probe/translate_shear", 1, _complete("translate_shear", "default", "default")),
        Template("complete-probe/rotation_plane", 1, _complete("rotation_plane", "pair", "ring")),
        _malformed("horizon-negative",
                   lambda sc: ["strata", "--check", "tangency", "--scenario", sc("cone"),
                               "--field", "rot", "--horizon", "-1"]),
        _malformed("rtol-nan",
                   lambda sc: ["orbit", "--scenario", sc("translate_shear"), "--point=0,0",
                               "--budget", "80"] + _NAN_RTOL),
        _malformed("unknown-tolerance",
                   lambda sc: ["chart", "--scenario", sc("translate_shear"), "--point=1,0"] + _UNKNOWN_KEY),
        _ACS_NO_POINTS,
    ],
    "symbolic_sweep": [
        # the reduction_r4 bracket checks are the heaviest sixth and hold the p90
        Template("poisson/jacobi_control", 1, _poisson("jacobi_control", False, 10, 40)),
        Template("poisson/reduction_r4", 2, _poisson("reduction_r4", True, 40, 80)),
        Template("poisson/canonical_r2", 1, _poisson("canonical_r2", True, 10, 80)),
        Template("reduce/reduction_r4", 1, _reduce),
        Template("bracket/translate_shear", 1, _bracket_shear),
        Template("bracket/cone", 1, _bracket_cone),
        Template("acs-torsion/acs_variable", 1, _acs_torsion("acs_variable", "e1", "e3", False)),
        Template("acs-torsion/acs_standard", 1, _acs_torsion("acs_standard", "e1", "e2", True)),
        Template("acs-cr/acs_standard", 1, _acs_cr),
        Template("acs-kahler/acs_standard", 1, _acs_kahler),
        Template("strata-frontier/cone", 1, _frontier),
        _malformed("horizon-negative",
                   lambda sc: ["strata", "--check", "frontier", "--scenario", sc("cone"),
                               "--horizon", "-1"]),
        _malformed("rtol-nan",
                   lambda sc: ["poisson", "--scenario", sc("canonical_r2")] + _NAN_RTOL),
        _malformed("unknown-tolerance",
                   lambda sc: ["reduce", "--scenario", sc("reduction_r4")] + _UNKNOWN_KEY),
        _ACS_NO_POINTS,
    ],
}


def scenarios_of(workload: str, scenario_path: Callable[[str], str]) -> list[str]:
    """Paths of every scenario file the workload's commands name."""
    paths = set()
    for cmd in make_rounds(workload, 0, 1, scenario_path)[0]:
        paths.add(cmd.argv[cmd.argv.index("--scenario") + 1])
    return sorted(paths)


def make_rounds(workload: str, seed: int, rounds: int,
                scenario_path: Callable[[str], str]) -> list[list[Command]]:
    """The commands of a run of `rounds` rounds, a pure function of the arguments.

    A template's n = rounds * count sizes are drawn one from the middle
    fifth of each of n equal strata of [0, 1), and spread over the rounds by
    a seeded shuffle, so the sum and the quantiles of the sizes barely move
    with the seed.
    """
    out: list[list[Command]] = [[] for _ in range(rounds)]
    for t in WORKLOADS[workload]:
        rng = random.Random(f"{workload}/{seed}/{t.name}")
        n = rounds * t.count
        slots = list(range(n))
        rng.shuffle(slots)
        for k, slot in enumerate(slots):
            u = (k + 0.4 + 0.2 * rng.random()) / n
            out[slot // t.count].append(t.make(u, rng, scenario_path))
    return out
