"""Command line front end: scenario loading, dispatch, deterministic reports.

A scenario JSON file declares one space plus named fields, families, seed
sets and optional strata / bivector / reduction / almost-complex blocks.
Everything is validated at load time; schema violations name the offending
JSON path and exit with code 2.

Every command prints one canonical JSON report to stdout (sorted keys, 17
significant digit floats, no timestamps) and optionally writes artifacts to
--out: .json gets the same report, .csv gets the command's point data
(curves, orbit clouds) with a words sidecar for clouds.  Reruns with
identical inputs and --seed are byte-identical.

Exit codes: 0 for PASS-type outcomes (including honest Inconclusive), 1 for
certified failures or witnesses, 2 for usage, IO, or schema errors.

The environment variable SUBCART_THREADS is accepted as a worker cap for
compatibility; evaluation is sequential either way, so it has no effect on
results.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .almostcomplex import (
    AlmostComplexError,
    AlmostComplexStructure,
    cauchy_riemann_residual,
    kahler_check,
    torsion,
)
from .expr import Expr, ExprError, ParseError, parse, to_text
from .field import FieldError, TangentField, lie_bracket
from .flow import (
    FlowDomainError,
    FlowOptions,
    IntegrationError,
    NOT_VECTOR_FIELD,
    ProbeOptions,
    classify_vector_field,
    integrate,
)
from .orbit import (
    DependentBasisError,
    FieldFamily,
    OrbitError,
    chart_jacobian,
    local_completeness_probe,
    sample_orbit,
)
from .poisson import (
    PoissonError,
    PoissonStructure,
    ReductionError,
    ReductionSetup,
    jacobi_sample_residual,
    leaf_sample,
    reduce as reduce_structure,
)
from .report import ReportError, canonical_json, sha256_hex, write_csv
from .space import DEFAULT_TOL, Rel, SpaceError, SubcartesianSpace, Constraint
from .strata import (
    StrataError,
    StratifiedSpace,
    Stratum,
    frontier_check,
    orbit_vs_strata,
    strongly_stratified_check,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_TOLERANCES = {
    "rtol": 1e-9,
    "atol": 1e-12,
    "rank": 1e-8,
    "completeness": 1e-6,
    "antisymmetry": 1e-12,
    "jacobi": 1e-8,
    "casimir_drift": 1e-6,
    "frontier": 1e-4,
    "drift": 1e-8,
    "kahler": 1e-8,
    "fit": 1e-10,
    "certify": 1e-10,
    "square": 1e-10,
}


class CliError(Exception):
    """Usage, IO, or precondition problem; maps to exit code 2."""


class SchemaError(CliError):
    def __init__(self, path: str, message: str):
        super().__init__(f"scenario error at {path}: {message}")
        self.path = path


# Schema walking helpers --------------------------------------------------------

def _want(value, kind, path: str, name: str):
    if not isinstance(value, kind):
        raise SchemaError(path, f"expected {name}, got {type(value).__name__}")
    return value


def _want_dict(v, path):
    return _want(v, dict, path, "an object")


def _want_list(v, path):
    return _want(v, list, path, "an array")


def _want_str(v, path):
    return _want(v, str, path, "a string")


def _want_bool(v, path):
    return _want(v, bool, path, "a boolean")


def _want_int(v, path):
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(path, f"expected an integer, got {type(v).__name__}")
    return v


def _want_float(v, path) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(v).__name__}")
    return float(v)


def _want_point(v, n, path) -> list[float]:
    _want_list(v, path)
    if len(v) != n:
        raise SchemaError(path, f"point has {len(v)} coordinates, space has {n}")
    return [_want_float(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _parse_expr(text, n, aliases, path) -> Expr:
    _want_str(text, path)
    try:
        return parse(text, n, aliases)
    except ParseError as exc:
        raise SchemaError(path, str(exc)) from None


def _parse_matrix(raw, n, aliases, path) -> list[list[Expr]]:
    _want_list(raw, path)
    if len(raw) != n:
        raise SchemaError(path, f"expected {n} rows, got {len(raw)}")
    rows = []
    for i, row in enumerate(raw):
        _want_list(row, f"{path}[{i}]")
        if len(row) != n:
            raise SchemaError(f"{path}[{i}]", f"expected {n} entries, got {len(row)}")
        rows.append([_parse_expr(e, n, aliases, f"{path}[{i}][{j}]") for j, e in enumerate(row)])
    return rows


def _parse_cells(raw, n, aliases, path) -> list[tuple[Constraint, ...]]:
    _want_list(raw, path)
    if not raw:
        raise SchemaError(path, "needs at least one cell")
    cells = []
    for ci, rawcell in enumerate(raw):
        _want_list(rawcell, f"{path}[{ci}]")
        cell = []
        for ki, rawcon in enumerate(rawcell):
            cpath = f"{path}[{ci}][{ki}]"
            _want_dict(rawcon, cpath)
            if "expr" not in rawcon:
                raise SchemaError(cpath, "constraint needs an 'expr' key")
            if "rel" not in rawcon:
                raise SchemaError(cpath, "constraint needs a 'rel' key")
            e = _parse_expr(rawcon["expr"], n, aliases, f"{cpath}.expr")
            relname = _want_str(rawcon["rel"], f"{cpath}.rel")
            try:
                rel = Rel(relname)
            except ValueError:
                raise SchemaError(
                    f"{cpath}.rel",
                    f"unknown relation {relname!r}, expected one of "
                    f"{sorted(r.value for r in Rel)}",
                ) from None
            cell.append(Constraint(e, rel))
        cells.append(tuple(cell))
    return cells


# Scenario ---------------------------------------------------------------------

@dataclass
class Scenario:
    name: str
    sha256: str
    space: SubcartesianSpace
    aliases: Optional[list[str]]
    fields: dict[str, TangentField]
    families: dict[str, list[str]]
    seeds: dict[str, list[list[float]]]
    stratified: Optional[StratifiedSpace]
    frames: dict[str, list[str]]
    box: Optional[tuple[list[float], list[float]]]
    poisson: Optional[PoissonStructure]
    reduction: Optional[dict]
    generators: list[Expr]
    casimirs: list[Expr]
    acs: Optional[AlmostComplexStructure]
    omega: Optional[list[list[Expr]]]
    tolerances: dict[str, float] = dc_field(default_factory=dict)

    def field(self, name: str) -> TangentField:
        if name not in self.fields:
            raise CliError(f"unknown field {name!r}; scenario has {sorted(self.fields)}")
        return self.fields[name]

    def family(self, name: str) -> FieldFamily:
        if name not in self.families:
            raise CliError(f"unknown family {name!r}; scenario has {sorted(self.families)}")
        return FieldFamily(self.space, [self.fields[f] for f in self.families[name]])

    def seed_set(self, name: str) -> list[list[float]]:
        if name not in self.seeds:
            raise CliError(f"unknown seed set {name!r}; scenario has {sorted(self.seeds)}")
        return self.seeds[name]

    def need_box(self) -> tuple[list[float], list[float]]:
        if self.box is None:
            raise CliError("this command needs a 'box' block in the scenario")
        return self.box


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read scenario {path!r}: {exc}") from None
    sha = sha256_hex(blob)
    try:
        raw = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"not valid JSON ({exc})") from None
    _want_dict(raw, "$")

    if "name" not in raw:
        raise SchemaError("$", "missing required key 'name'")
    name = _want_str(raw["name"], "$.name")

    aliases = None
    if "aliases" in raw:
        rawa = _want_list(raw["aliases"], "$.aliases")
        aliases = [_want_str(a, f"$.aliases[{i}]") for i, a in enumerate(rawa)]

    if "space" not in raw:
        raise SchemaError("$", "missing required key 'space'")
    rawsp = _want_dict(raw["space"], "$.space")
    if "ambient_dim" not in rawsp:
        raise SchemaError("$.space", "missing required key 'ambient_dim'")
    n = _want_int(rawsp["ambient_dim"], "$.space.ambient_dim")
    if n < 1:
        raise SchemaError("$.space.ambient_dim", f"must be positive, got {n}")
    if aliases is not None and len(aliases) > n:
        raise SchemaError("$.aliases", f"{len(aliases)} aliases for {n} coordinates")
    if "cells" not in rawsp:
        raise SchemaError("$.space", "missing required key 'cells'")
    cells = _parse_cells(rawsp["cells"], n, aliases, "$.space.cells")
    if "locally_closed" not in rawsp:
        raise SchemaError("$.space", "missing required key 'locally_closed'")
    locally_closed = _want_bool(rawsp["locally_closed"], "$.space.locally_closed")
    sp_tol = _want_float(rawsp.get("tol", DEFAULT_TOL), "$.space.tol")
    try:
        space = SubcartesianSpace(n, cells, locally_closed, sp_tol)
    except SpaceError as exc:
        raise SchemaError("$.space", str(exc)) from None

    fields: dict[str, TangentField] = {}
    for fname, comps in sorted(_want_dict(raw.get("fields", {}), "$.fields").items()):
        fpath = f"$.fields.{fname}"
        _want_list(comps, fpath)
        if len(comps) != n:
            raise SchemaError(fpath, f"field has {len(comps)} components, space has {n}")
        exprs = [_parse_expr(c, n, aliases, f"{fpath}[{i}]") for i, c in enumerate(comps)]
        fields[fname] = TangentField(fname, exprs)

    families: dict[str, list[str]] = {}
    for famname, members in sorted(_want_dict(raw.get("families", {}), "$.families").items()):
        fpath = f"$.families.{famname}"
        _want_list(members, fpath)
        if not members:
            raise SchemaError(fpath, "family must not be empty")
        out = []
        for i, m in enumerate(members):
            m = _want_str(m, f"{fpath}[{i}]")
            if m not in fields:
                raise SchemaError(f"{fpath}[{i}]", f"unknown field {m!r}")
            out.append(m)
        families[famname] = out
    if not families and fields:
        families["default"] = sorted(fields)

    seeds: dict[str, list[list[float]]] = {}
    for sname, pts in sorted(_want_dict(raw.get("seeds", {}), "$.seeds").items()):
        spath = f"$.seeds.{sname}"
        _want_list(pts, spath)
        seeds[sname] = [_want_point(p, n, f"{spath}[{i}]") for i, p in enumerate(pts)]

    stratified = None
    frames: dict[str, list[str]] = {}
    if "strata" in raw:
        rawst = _want_list(raw["strata"], "$.strata")
        strata = []
        for i, s in enumerate(rawst):
            spath = f"$.strata[{i}]"
            _want_dict(s, spath)
            for key in ("name", "cells", "dim"):
                if key not in s:
                    raise SchemaError(spath, f"missing required key {key!r}")
            stname = _want_str(s["name"], f"{spath}.name")
            stcells = _parse_cells(s["cells"], n, aliases, f"{spath}.cells")
            stdim = _want_int(s["dim"], f"{spath}.dim")
            if not 0 <= stdim <= n:
                raise SchemaError(f"{spath}.dim", f"dimension {stdim} outside 0..{n}")
            if "frame" in s:
                rawframe = _want_list(s["frame"], f"{spath}.frame")
                frame = []
                for j, m in enumerate(rawframe):
                    m = _want_str(m, f"{spath}.frame[{j}]")
                    if m not in fields:
                        raise SchemaError(f"{spath}.frame[{j}]", f"unknown field {m!r}")
                    frame.append(m)
                frames[stname] = frame
            st_space = SubcartesianSpace(n, stcells, locally_closed=True, tol=sp_tol)
            strata.append(Stratum(stname, st_space, stdim))
        locally_trivial = _want_bool(raw.get("locally_trivial", False), "$.locally_trivial")
        try:
            stratified = StratifiedSpace(space, strata, locally_trivial)
        except StrataError as exc:
            raise SchemaError("$.strata", str(exc)) from None

    box = None
    if "box" in raw:
        rawbox = _want_list(raw["box"], "$.box")
        if len(rawbox) != 2:
            raise SchemaError("$.box", "expected [lo, hi]")
        lo = _want_point(rawbox[0], n, "$.box[0]")
        hi = _want_point(rawbox[1], n, "$.box[1]")
        for i in range(n):
            if not lo[i] < hi[i]:
                raise SchemaError("$.box", f"lo[{i}] must be below hi[{i}]")
        box = (lo, hi)

    poisson = None
    if "poisson" in raw:
        rawp = _want_dict(raw["poisson"], "$.poisson")
        if "bivector" not in rawp:
            raise SchemaError("$.poisson", "missing required key 'bivector'")
        mat = _parse_matrix(rawp["bivector"], n, aliases, "$.poisson.bivector")
        label = _want_str(rawp.get("label", "poisson"), "$.poisson.label")
        try:
            poisson = PoissonStructure(n, mat, label)
        except PoissonError as exc:
            raise SchemaError("$.poisson.bivector", str(exc)) from None

    reduction = None
    if "reduction" in raw:
        rawr = _want_dict(raw["reduction"], "$.reduction")
        for key in ("ambient_dim", "invariants"):
            if key not in rawr:
                raise SchemaError("$.reduction", f"missing required key {key!r}")
        amb_n = _want_int(rawr["ambient_dim"], "$.reduction.ambient_dim")
        if amb_n < 1:
            raise SchemaError("$.reduction.ambient_dim", f"must be positive, got {amb_n}")
        ralias = None
        if "aliases" in rawr:
            rawra = _want_list(rawr["aliases"], "$.reduction.aliases")
            ralias = [_want_str(a, f"$.reduction.aliases[{i}]") for i, a in enumerate(rawra)]
            if len(ralias) > amb_n:
                raise SchemaError("$.reduction.aliases", f"{len(ralias)} aliases for {amb_n} coordinates")
        rawinv = _want_list(rawr["invariants"], "$.reduction.invariants")
        if not rawinv:
            raise SchemaError("$.reduction.invariants", "needs at least one invariant")
        invariants = [
            _parse_expr(e, amb_n, ralias, f"$.reduction.invariants[{i}]")
            for i, e in enumerate(rawinv)
        ]
        degree = _want_int(rawr.get("degree", 2), "$.reduction.degree")
        if degree < 1:
            raise SchemaError("$.reduction.degree", f"must be positive, got {degree}")
        ambient_bivector = None
        if "bivector" in rawr:
            amat = _parse_matrix(rawr["bivector"], amb_n, ralias, "$.reduction.bivector")
            try:
                ambient_bivector = PoissonStructure(amb_n, amat, "ambient")
            except PoissonError as exc:
                raise SchemaError("$.reduction.bivector", str(exc)) from None
        elif amb_n % 2:
            raise SchemaError(
                "$.reduction.ambient_dim",
                f"odd dimension {amb_n} needs an explicit 'bivector'",
            )
        reduction = {
            "ambient_dim": amb_n,
            "invariants": invariants,
            "degree": degree,
            "ambient": ambient_bivector,
        }

    generators: list[Expr] = []
    if "generators" in raw:
        if poisson is None:
            raise SchemaError("$.generators", "generators need a 'poisson' block")
        rawg = _want_list(raw["generators"], "$.generators")
        generators = [_parse_expr(e, n, aliases, f"$.generators[{i}]") for i, e in enumerate(rawg)]

    casimirs: list[Expr] = []
    if "casimirs" in raw:
        if poisson is None:
            raise SchemaError("$.casimirs", "casimirs need a 'poisson' block")
        rawc = _want_list(raw["casimirs"], "$.casimirs")
        casimirs = [_parse_expr(e, n, aliases, f"$.casimirs[{i}]") for i, e in enumerate(rawc)]

    acs = None
    omega = None
    if "acs" in raw:
        rawacs = _want_dict(raw["acs"], "$.acs")
        if "matrix" not in rawacs:
            raise SchemaError("$.acs", "missing required key 'matrix'")
        jmat = _parse_matrix(rawacs["matrix"], n, aliases, "$.acs.matrix")
        try:
            acs = AlmostComplexStructure(n, jmat, "J")
        except AlmostComplexError as exc:
            raise SchemaError("$.acs.matrix", str(exc)) from None
        if "omega" in rawacs:
            omega = _parse_matrix(rawacs["omega"], n, aliases, "$.acs.omega")

    tolerances: dict[str, float] = {}
    for key, v in sorted(_want_dict(raw.get("tolerances", {}), "$.tolerances").items()):
        tolerances[_want_str(key, "$.tolerances")] = _want_float(v, f"$.tolerances.{key}")

    return Scenario(
        name=name,
        sha256=sha,
        space=space,
        aliases=aliases,
        fields=fields,
        families=families,
        seeds=seeds,
        stratified=stratified,
        frames=frames,
        box=box,
        poisson=poisson,
        reduction=reduction,
        generators=generators,
        casimirs=casimirs,
        acs=acs,
        omega=omega,
        tolerances=tolerances,
    )


# Shared helpers -----------------------------------------------------------------

def _parse_point_arg(text: str, n: int) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise CliError(f"--point has {len(parts)} coordinates, space has {n}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad --point value: {exc}") from None


def _resolve_seeds(sc: Scenario, spec: str) -> list[list[float]]:
    if spec in sc.seeds:
        return sc.seeds[spec]
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read seeds file {spec!r}: {exc}") from None
        if not isinstance(raw, list) or not raw:
            raise CliError(f"seeds file {spec!r} must hold a non-empty array of points")
        return [
            _want_point(p, sc.space.ambient_dim, f"$[{i}]") for i, p in enumerate(raw)
        ]
    raise CliError(
        f"--seeds {spec!r} is neither a seed set {sorted(sc.seeds)} nor a file"
    )


def _box_points(sc: Scenario, count: int, seed: int) -> list[list[float]]:
    lo, hi = sc.need_box()
    rng = random.Random(seed)
    return [
        [rng.uniform(lo[i], hi[i]) for i in range(len(lo))] for _ in range(count)
    ]


def _flow_options(tol: dict) -> FlowOptions:
    return FlowOptions(rtol=tol["rtol"], atol=tol["atol"])


def _csv_out(args) -> Optional[str]:
    if args.out and args.out.endswith(".csv"):
        return args.out
    return None


def _write_cloud(path: str, points, words) -> None:
    n = len(points[0]) if points else 0
    header = [f"x{i + 1}" for i in range(n)] + ["word_id"]
    rows = [list(map(float, p)) + [i] for i, p in enumerate(points)]
    write_csv(path, header, rows)
    sidecar = path[: -len(".csv")] + ".words.json" if path.endswith(".csv") else path + ".words.json"
    payload = {"words": [[[i, t] for (i, t) in w] for w in words]}
    with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(payload) + "\n")


# Command handlers ---------------------------------------------------------------
# Each returns (result dict, exit code).

def cmd_flow(sc: Scenario, args, tol) -> tuple[dict, int]:
    fld = sc.field(args.field)
    point = _parse_point_arg(args.point, sc.space.ambient_dim)
    curve = integrate(sc.space, fld, point, horizon=args.horizon, options=_flow_options(tol))
    out = _csv_out(args)
    if out:
        header = ["t"] + [f"x{i + 1}" for i in range(sc.space.ambient_dim)]
        write_csv(out, header, [[t] + [float(v) for v in p] for t, p in curve.samples])
    return curve.to_json_dict(), EXIT_PASS


def cmd_classify(sc: Scenario, args, tol) -> tuple[dict, int]:
    fld = sc.field(args.field)
    seeds = _resolve_seeds(sc, args.seeds)
    probe = ProbeOptions(seeds=tuple(tuple(s) for s in seeds), rng_seed=args.seed)
    verdict = classify_vector_field(sc.space, fld, probe, options=_flow_options(tol))
    code = EXIT_FAIL if verdict.classification == NOT_VECTOR_FIELD else EXIT_PASS
    return verdict.to_json_dict(), code


def cmd_bracket(sc: Scenario, args, tol) -> tuple[dict, int]:
    fx = sc.field(args.x)
    fy = sc.field(args.y)
    b = lie_bracket(fx, fy)
    result = {
        "x": fx.label,
        "y": fy.label,
        "components": [to_text(c) for c in b.components],
    }
    if args.point is not None:
        point = _parse_point_arg(args.point, sc.space.ambient_dim)
        result["point"] = point
        result["value"] = [float(v) for v in b(point)]
    return result, EXIT_PASS


def cmd_orbit(sc: Scenario, args, tol) -> tuple[dict, int]:
    fam = sc.family(args.family)
    point = _parse_point_arg(args.point, sc.space.ambient_dim)
    cloud = sample_orbit(
        fam, point, args.budget, step_scale=args.step_scale,
        rng_seed=args.seed, options=_flow_options(tol),
    )
    out = _csv_out(args)
    if out:
        _write_cloud(out, cloud.points, cloud.words)
    result = {
        "family": fam.labels(),
        "seed_point": point,
        "n_points": len(cloud.points),
        "est_dimension": cloud.est_dimension,
        "diagnostics": cloud.diagnostics,
    }
    return result, EXIT_PASS


def cmd_chart(sc: Scenario, args, tol) -> tuple[dict, int]:
    fam = sc.family(args.family)
    point = _parse_point_arg(args.point, sc.space.ambient_dim)
    if args.basis:
        try:
            basis = [int(b) for b in args.basis.split(",")]
        except ValueError as exc:
            raise CliError(f"bad --basis: {exc}") from None
    else:
        basis = list(range(len(fam)))
    try:
        chart = chart_jacobian(fam, basis, point, tol_rank=tol["rank"], options=_flow_options(tol))
    except DependentBasisError as exc:
        return {"verdict": "DependentBasis", "detail": str(exc)}, EXIT_FAIL
    result = {
        "verdict": "Chart",
        "basis": [fam.fields[b].label for b in chart.basis],
        "basepoint": [float(v) for v in chart.basepoint],
        "rank": chart.rank,
        "agreement": chart.agreement,
        "jacobian": [[float(v) for v in row] for row in chart.jacobian0],
        "fd_jacobian": [[float(v) for v in row] for row in chart.fd_jacobian],
        "singular_values": chart.singular_values,
    }
    return result, EXIT_PASS


def cmd_complete_probe(sc: Scenario, args, tol) -> tuple[dict, int]:
    fam = sc.family(args.family)
    centers = _resolve_seeds(sc, args.seeds)
    rep = local_completeness_probe(
        fam,
        rng_seed=args.seed,
        n_random=args.n,
        centers=centers,
        radius=args.radius,
        t_scale=args.t_scale,
        tol=tol["completeness"],
        options=_flow_options(tol),
    )
    return rep.to_json_dict(), EXIT_PASS if rep.passed else EXIT_FAIL


def cmd_strata(sc: Scenario, args, tol) -> tuple[dict, int]:
    if sc.stratified is None:
        raise CliError("this command needs a 'strata' block in the scenario")
    ss = sc.stratified
    lo, hi = sc.need_box()
    if args.check == "frontier":
        rep = frontier_check(ss, lo, hi, rng_seed=args.seed, frontier_tol=tol["frontier"])
        result, code = rep.to_json_dict(), EXIT_PASS if rep.passed else EXIT_FAIL
    elif args.check == "tangency":
        if not args.field:
            raise CliError("--check tangency needs --field")
        fld = sc.field(args.field)
        rep = strongly_stratified_check(
            ss, fld, lo, hi, horizon=args.horizon, rng_seed=args.seed,
            drift_tol=tol["drift"], options=_flow_options(tol),
        )
        result, code = rep.to_json_dict(), EXIT_PASS if rep.passed else EXIT_FAIL
    else:
        fam = sc.family(args.family)
        seeds = _resolve_seeds(sc, args.seeds)
        try:
            rep = orbit_vs_strata(
                ss, fam, seeds, lo, hi, budget=args.budget, rng_seed=args.seed,
                horizon=args.horizon, drift_tol=tol["drift"], options=_flow_options(tol),
            )
        except StrataError as exc:
            result = {"verdict": "PreconditionFailed", "detail": str(exc)}
            return result, EXIT_FAIL
        result, code = rep.to_json_dict(), EXIT_PASS if rep.passed else EXIT_FAIL
    # declared, never verified: there is no finite certificate for it
    result["declared_locally_trivial"] = ss.locally_trivial
    return result, code


def cmd_poisson(sc: Scenario, args, tol) -> tuple[dict, int]:
    if args.reduce:
        return cmd_reduce(sc, args, tol)
    if sc.poisson is None:
        raise CliError("this command needs a 'poisson' block in the scenario")
    p = sc.poisson
    pts = _box_points(sc, 20, args.seed) if sc.box else [
        [0.0] * p.dim, [0.5] * p.dim, [-0.5] * p.dim
    ]
    anti = p.antisymmetry_residual(pts)
    jac = jacobi_sample_residual(
        p, n_triples=args.triples, n_points=args.points,
        scale=args.scale, rng_seed=args.seed,
    )
    passed = anti <= tol["antisymmetry"] and jac <= tol["jacobi"]
    result = {
        "label": p.label,
        "dim": p.dim,
        "antisymmetry_residual": anti,
        "jacobi_residual": jac,
        "passed": passed,
    }
    return result, EXIT_PASS if passed else EXIT_FAIL


def cmd_reduce(sc: Scenario, args, tol) -> tuple[dict, int]:
    if sc.reduction is None:
        raise CliError("this command needs a 'reduction' block in the scenario")
    red = sc.reduction
    ambient = red["ambient"]
    if ambient is None:
        ambient = PoissonStructure.canonical(red["ambient_dim"] // 2, "ambient")
    setup = ReductionSetup(
        ambient=ambient,
        invariants=tuple(red["invariants"]),
        degree=red["degree"],
        rng_seed=args.seed,
        fit_tol=tol["fit"],
        certify_tol=tol["certify"],
    )
    try:
        reduced = reduce_structure(setup)
    except ReductionError as exc:
        return {"verdict": "NotReducible", "detail": str(exc)}, EXIT_FAIL
    result = {
        "verdict": "Reduced",
        "invariants": [to_text(s) for s in setup.invariants],
        "bivector": [[to_text(e) for e in row] for row in reduced.bivector],
        "meta": reduced.meta,
    }
    return result, EXIT_PASS


def cmd_leaf(sc: Scenario, args, tol) -> tuple[dict, int]:
    if sc.poisson is None:
        raise CliError("this command needs a 'poisson' block in the scenario")
    if not sc.generators:
        raise CliError("this command needs a 'generators' block in the scenario")
    point = _parse_point_arg(args.point, sc.space.ambient_dim)
    cloud = leaf_sample(
        sc.space, sc.poisson, sc.generators, point, args.budget,
        rng_seed=args.seed, step_scale=args.step_scale,
        casimirs=sc.casimirs, options=_flow_options(tol),
    )
    out = _csv_out(args)
    if out:
        _write_cloud(out, cloud.points, cloud.words)
    drifts = cloud.diagnostics.get("casimirs", [])
    max_drift = max((d["max_drift"] for d in drifts), default=0.0)
    passed = max_drift <= tol["casimir_drift"]
    result = {
        "seed_point": point,
        "n_points": len(cloud.points),
        "est_dimension": cloud.est_dimension,
        "max_casimir_drift": max_drift,
        "diagnostics": cloud.diagnostics,
        "passed": passed,
    }
    return result, EXIT_PASS if passed else EXIT_FAIL


def cmd_acs(sc: Scenario, args, tol) -> tuple[dict, int]:
    if sc.acs is None:
        raise CliError("this command needs an 'acs' block in the scenario")
    j = sc.acs
    pts = _box_points(sc, args.points, args.seed)
    square = j.square_residual(pts)
    if square > tol["square"]:
        return (
            {"verdict": "NotAlmostComplex", "square_residual": square},
            EXIT_FAIL,
        )
    if args.check == "torsion":
        if not (args.x and args.y):
            raise CliError("--check torsion needs --x and --y")
        fx = sc.field(args.x)
        fy = sc.field(args.y)
        n = torsion(j, fx, fy)
        worst = 0.0
        for p in pts:
            worst = max(worst, float(np.linalg.norm(np.asarray(n(p), dtype=float))))
        result = {
            "check": "torsion",
            "x": fx.label,
            "y": fy.label,
            "square_residual": square,
            "max_norm": worst,
        }
        if args.point is not None:
            point = _parse_point_arg(args.point, sc.space.ambient_dim)
            result["point"] = point
            result["value"] = [float(v) for v in n(point)]
        return result, EXIT_PASS
    if args.check == "cr":
        if not (args.f and args.h):
            raise CliError("--check cr needs --f and --h")
        try:
            f = parse(args.f, sc.space.ambient_dim, sc.aliases)
            h = parse(args.h, sc.space.ambient_dim, sc.aliases)
        except ParseError as exc:
            raise CliError(f"bad expression: {exc}") from None
        flds = [sc.field(nm) for nm in args.fields.split(",")] if args.fields else list(
            sc.fields[k] for k in sorted(sc.fields)
        )
        if not flds:
            raise CliError("--check cr needs at least one field")
        resid = cauchy_riemann_residual(j, flds, f, h, pts)
        result = {
            "check": "cr",
            "f": to_text(f),
            "h": to_text(h),
            "fields": [x.label for x in flds],
            "square_residual": square,
            "residual": resid,
        }
        return result, EXIT_PASS
    if sc.omega is None:
        raise CliError("--check kahler needs an 'omega' matrix in the acs block")
    flds = [sc.field(nm) for nm in args.fields.split(",")] if args.fields else list(
        sc.fields[k] for k in sorted(sc.fields)
    )
    if not flds:
        raise CliError("--check kahler needs at least one field")
    try:
        rep = kahler_check(j, sc.omega, flds, pts, tol=tol["kahler"])
    except AlmostComplexError as exc:
        return {"verdict": "Degenerate", "detail": str(exc)}, EXIT_FAIL
    result = rep.to_json_dict()
    result["check"] = "kahler"
    result["fields"] = [x.label for x in flds]
    return result, EXIT_PASS if rep.passed else EXIT_FAIL


# Dispatch -----------------------------------------------------------------------

def _positive_float(text: str) -> float:
    """argparse type for horizons, step and time scales and radii: finite and positive."""
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(v) and v > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return v


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True, help="scenario JSON file")
    common.add_argument("--out", default=None, help="artifact path (.json report or .csv data)")
    common.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    common.add_argument(
        "--tol-overrides", default=None,
        help="JSON object of tolerance overrides, e.g. '{\"jacobi\": 1e-6}'",
    )

    parser = argparse.ArgumentParser(
        prog="subcart",
        description="Flows, orbits, strata, brackets and torsion on subsets of R^n.",
        epilog="SUBCART_THREADS caps worker threads (evaluation is sequential regardless).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("flow", parents=[common], help="integrate one field from a point")
    p.add_argument("--field", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--horizon", type=_positive_float, default=10.0)

    p = sub.add_parser("classify", parents=[common], help="derivation vs vector field verdict")
    p.add_argument("--field", required=True)
    p.add_argument("--seeds", default="default", help="seed set name or JSON file")

    p = sub.add_parser("bracket", parents=[common], help="Lie bracket of two named fields")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--point", default=None)

    p = sub.add_parser("orbit", parents=[common], help="sample the orbit of a family")
    p.add_argument("--family", default="default")
    p.add_argument("--point", required=True)
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--step-scale", type=_positive_float, default=0.3)

    p = sub.add_parser("chart", parents=[common], help="chart differential with rank certificate")
    p.add_argument("--family", default="default")
    p.add_argument("--point", required=True)
    p.add_argument("--basis", default=None, help="comma separated field indices")

    p = sub.add_parser("complete-probe", parents=[common], help="local completeness probe")
    p.add_argument("--family", default="default")
    p.add_argument("--seeds", default="default", help="probe centers: seed set name or JSON file")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--radius", type=_positive_float, default=1.0)
    p.add_argument("--t-scale", type=_positive_float, default=1.0)

    p = sub.add_parser("strata", parents=[common], help="stratification checks")
    p.add_argument("--check", required=True, choices=["frontier", "tangency", "orbits"])
    p.add_argument("--field", default=None, help="field for --check tangency")
    p.add_argument("--family", default="default")
    p.add_argument("--seeds", default="default")
    p.add_argument("--budget", type=int, default=400)
    p.add_argument("--horizon", type=_positive_float, default=0.5)

    p = sub.add_parser("poisson", parents=[common], help="bivector antisymmetry and Jacobi check")
    p.add_argument("--triples", type=int, default=50)
    p.add_argument("--points", type=int, default=10)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--reduce", action="store_true", help="run the reduction instead")

    p = sub.add_parser("reduce", parents=[common], help="invariant-based reduction")

    p = sub.add_parser("leaf", parents=[common], help="Hamiltonian orbit with Casimir drift")
    p.add_argument("--point", required=True)
    p.add_argument("--budget", type=int, default=500)
    p.add_argument("--step-scale", type=_positive_float, default=0.3)

    p = sub.add_parser("acs", parents=[common], help="almost complex structure checks")
    p.add_argument("--check", required=True, choices=["torsion", "cr", "kahler"])
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--f", default=None)
    p.add_argument("--h", default=None)
    p.add_argument("--fields", default=None, help="comma separated field names")
    p.add_argument("--points", type=_positive_int, default=25)
    p.add_argument("--point", default=None)

    return parser


_HANDLERS = {
    "flow": cmd_flow,
    "classify": cmd_classify,
    "bracket": cmd_bracket,
    "orbit": cmd_orbit,
    "chart": cmd_chart,
    "complete-probe": cmd_complete_probe,
    "strata": cmd_strata,
    "poisson": cmd_poisson,
    "reduce": cmd_reduce,
    "leaf": cmd_leaf,
    "acs": cmd_acs,
}


def _effective_tolerances(sc: Scenario, overrides: Optional[str]) -> dict[str, float]:
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(sc.tolerances)
    if overrides:
        try:
            raw = json.loads(overrides)
        except json.JSONDecodeError as exc:
            raise CliError(f"--tol-overrides is not valid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise CliError("--tol-overrides must be a JSON object")
        for k, v in raw.items():
            if k not in tol:
                raise CliError(f"--tol-overrides[{k!r}] is not a tolerance; known: {sorted(tol)}")
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise CliError(f"--tol-overrides[{k!r}] must be a number")
            # compares a huge JSON integer without converting it, NaN fails
            if not 0 < v <= sys.float_info.max:
                raise CliError(f"--tol-overrides[{k!r}] must be finite and positive, got {v!r}")
            tol[k] = float(v)
    return tol


def main(argv: Optional[Sequence[str]] = None) -> int:
    threads = os.environ.get("SUBCART_THREADS")
    if threads is not None:
        try:
            if int(threads) < 1:
                raise ValueError
        except ValueError:
            sys.stderr.write(f"error: SUBCART_THREADS={threads!r} is not a positive integer\n")
            return EXIT_USAGE

    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        sc = load_scenario(args.scenario)
        tol = _effective_tolerances(sc, args.tol_overrides)
        result, code = _HANDLERS[args.command](sc, args, tol)
    except CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (
        SpaceError, FieldError, ExprError, OrbitError, PoissonError,
        AlmostComplexError, StrataError, ReportError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (FlowDomainError, IntegrationError) as exc:
        sys.stderr.write(f"error: integration failed: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE

    report = {
        "command": args.command,
        "scenario": {"name": sc.name, "sha256": sc.sha256},
        "seed": args.seed,
        "tolerances": tol,
        "result": result,
    }
    text = canonical_json(report) + "\n"
    sys.stdout.write(text)
    if args.out and args.out.endswith(".json"):
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
