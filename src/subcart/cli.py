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

Exit codes, read by ``main`` off the result: 1 where "passed" is False or
the verdict is in ``FAILURES``, 0 for any other result; 2 for usage, IO or
schema errors and any unexpected exception (one ``internal error:`` line).

A call of ``main`` keeps nothing for the next one: it builds an argument
parser, for the command its argv names first only, and reads, validates and
builds its scenario anew, so calls in one process give the bytes of fresh
runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass, field as dc_field
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from .almostcomplex import (
    KAHLER_TOL, AlmostComplexError, AlmostComplexStructure, DegenerateError, cauchy_riemann_residual, kahler_check,
    max_norm, torsion,
)
from .expr import Expr, ExprError, ParseError, parse, to_text
from .field import RANK_TOL, FieldError, TangentField, _value_at, lie_bracket
from .report import ReportError, canonical_json, sha256_hex, worst_residual, write_csv
from .space import DEFAULT_TOL, Rel, SpaceError, SubcartesianSpace, Constraint, box

# flow, orbit, poisson and strata are imported by the handlers and loader
# branches that use them, so a command compiles only the modules it runs
if TYPE_CHECKING:
    from .flow import FlowOptions
    from .orbit import FieldFamily
    from .poisson import PoissonStructure
    from .strata import StratifiedSpace

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
# the verdicts, or a classify report's classification, that exit 1 (see main)
FAILURES = ("NotVectorField", "PreconditionFailed", "NotReducible", "NotAlmostComplex", "Degenerate")

# name: (default, the commands that read it, "strata:tangency" for one --check);
# a constant of a module imported on first use is written out, and a test pins it
DEFAULT_TOLERANCES = {
    "rtol": (1e-9, "flow classify orbit chart complete-probe strata:tangency strata:orbits leaf"),
    "atol": (1e-12, "flow classify orbit chart complete-probe strata:tangency strata:orbits leaf"),
    "rank": (RANK_TOL, "orbit chart strata:orbits leaf"),
    "completeness": (1e-6, "complete-probe"),  # orbit.COMPLETENESS_TOL
    "antisymmetry": (1e-12, "poisson"),
    "jacobi": (1e-8, "poisson"),
    "casimir_drift": (1e-6, "leaf"),
    "frontier": (1e-4, "strata:frontier"),  # strata.FRONTIER_TOL
    "drift": (1e-8, "strata:tangency strata:orbits"),  # strata.DRIFT_TOL
    "kahler": (KAHLER_TOL, "acs:kahler"),
    "certify": (1e-10, "reduce"),  # poisson.CERTIFY_TOL
    "square": (1e-10, "acs:torsion acs:cr acs:kahler"),
}


class CliError(Exception):
    """Usage, IO, or precondition problem; maps to exit code 2."""


class SchemaError(CliError):
    def __init__(self, path: str, message: str):
        super().__init__(f"scenario error at {path}: {message}")
        self.path = path
        self.detail = message


# Schema walking helpers --------------------------------------------------------
# A checker takes a JSON value and its path, such as $.space.cells[0][1], and
# returns the value it reads or raises a SchemaError at that path.

_REQUIRED = object()


def _key(raw: dict, key: str, path: str, want, default=_REQUIRED):
    """``want`` applied to ``raw[key]`` at ``path.key``; ``default`` when the
    key is absent, and without a default the key is required."""
    if key in raw:
        return want(raw[key], f"{path}.{key}")
    if default is _REQUIRED:
        raise SchemaError(path, f"missing required key {key!r}")
    return default


def _items(want, v, path: str, nonempty: str = "") -> list:
    """``want`` applied to each item of the array ``v``; ``nonempty`` is the
    error for an empty array, if one is not allowed."""
    if not _arr(v, path) and nonempty:
        raise SchemaError(path, nonempty)
    return [want(x, f"{path}[{i}]") for i, x in enumerate(v)]


def _named(want, v, path: str) -> dict:
    """``want`` applied to each value of the object ``v``, in name order."""
    return {k: want(x, f"{path}.{k}") for k, x in sorted(_obj(v, path).items())}


def _length(v, path: str, n: int, message: str) -> list:
    """The array ``v`` if it has ``n`` items; else ``message``, formatted
    with the length found and ``n``, is the error."""
    if len(_arr(v, path)) != n:
        raise SchemaError(path, message.format(len(v), n))
    return v


def _want(v, path: str, kind, name: str):
    # bool is an int to Python, but not a number to a scenario
    if isinstance(v, kind) and (kind is bool or not isinstance(v, bool)):
        return v
    raise SchemaError(path, f"expected {name}, got {type(v).__name__}")


_obj = partial(_want, kind=dict, name="an object")
_arr = partial(_want, kind=list, name="an array")
_str = partial(_want, kind=str, name="a string")
_bool = partial(_want, kind=bool, name="a boolean")
_int = partial(_want, kind=int, name="an integer")


def _positive(v, path: str) -> int:
    if _int(v, path) < 1:
        raise SchemaError(path, f"must be positive, got {v}")
    return v


def _float(v, path: str) -> float:
    try:
        return float(_want(v, path, (int, float), "a number"))
    except OverflowError:  # a JSON integer beyond the float range
        raise SchemaError(path, "number out of the float range") from None


def _tolerance(v, path: str) -> float:
    x = _float(v, path)
    if not 0 < x < math.inf:
        raise SchemaError(path, f"must be finite and positive, got {v!r}")
    return x


def _tolerances(v, path: str) -> dict[str, float]:
    """A tolerance object: each name one of ``DEFAULT_TOLERANCES``, each value
    finite and positive."""
    for name in sorted(_obj(v, path)):
        if name not in DEFAULT_TOLERANCES:
            raise SchemaError(f"{path}.{name}", f"unknown tolerance; known: {sorted(DEFAULT_TOLERANCES)}")
    return _named(_tolerance, v, path)


def _rel(v, path: str) -> Rel:
    try:
        return Rel(_str(v, path))
    except ValueError:
        raise SchemaError(
            path, f"unknown relation {v!r}, expected one of {sorted(r.value for r in Rel)}"
        ) from None


def _aliases(raw: dict, path: str, n: int) -> Optional[list[str]]:
    """The optional coordinate names of the object ``raw``, at most ``n``."""
    aliases = _key(raw, "aliases", path, partial(_items, _str), None)
    if aliases is not None and len(aliases) > n:
        raise SchemaError(f"{path}.aliases", f"{len(aliases)} aliases for {n} coordinates")
    return aliases


def _built(path: str, make, *args):
    """``make(*args)``; the ValueError of a constructor is an error at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from None


class _Coords:
    """The checkers of values read in one coordinate system: ``n``
    coordinates, named x1..xn and by ``aliases``."""

    def __init__(self, n: int, aliases: Optional[list[str]]):
        self.n = n
        self.aliases = aliases

    def expr(self, v, path: str) -> Expr:
        try:
            return parse(_str(v, path), self.n, self.aliases)
        except ExprError as exc:  # a ParseError, or a constant quotient by zero
            raise SchemaError(path, str(exc)) from None

    def row(self, v, path: str, message: str = "expected {1} entries, got {0}") -> list[Expr]:
        return _items(self.expr, _length(v, path, self.n, message), path)

    def field(self, v, path: str) -> list[Expr]:
        return self.row(v, path, "field has {} components, space has {}")

    def matrix(self, v, path: str) -> list[list[Expr]]:
        return _items(self.row, _length(v, path, self.n, "expected {1} rows, got {0}"), path)

    def point(self, v, path: str) -> list[float]:
        message = "point has {} coordinates, space has {}"
        point = _items(_float, _length(v, path, self.n, message), path)
        for i, x in enumerate(point):
            if not math.isfinite(x):
                raise SchemaError(f"{path}[{i}]", f"coordinate {x} is not finite")
        return point

    def seeds(self, v, path: str) -> list[list[float]]:
        return _items(self.point, v, path, nonempty="seed set must not be empty")

    def box(self, v, path: str) -> tuple[list[float], list[float]]:
        lo, hi = _items(self.point, _length(v, path, 2, "expected [lo, hi]"), path)
        for i in range(self.n):
            if not lo[i] < hi[i]:
                raise SchemaError(path, f"lo[{i}] must be below hi[{i}]")
        return lo, hi

    def cells(self, v, path: str) -> list[list[Constraint]]:
        return _items(partial(_items, self.constraint), v, path, nonempty="needs at least one cell")

    def constraint(self, v, path: str) -> Constraint:
        _obj(v, path)
        for key, article in (("expr", "an"), ("rel", "a")):
            if key not in v:
                raise SchemaError(path, f"constraint needs {article} {key!r} key")
        return Constraint(self.expr(v["expr"], f"{path}.expr"), _rel(v["rel"], f"{path}.rel"))


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
        from .orbit import FieldFamily

        return FieldFamily(self.space, [self.fields[f] for f in self.families[name]])


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CliError(f"cannot read scenario {path!r}: {exc}") from None
    try:
        raw = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise SchemaError("$", f"not valid JSON ({exc})") from None
    raw = _obj(raw, "$")
    name = _key(raw, "name", "$", _str)
    rawsp = _key(raw, "space", "$", _obj)
    n = _key(rawsp, "ambient_dim", "$.space", _positive)
    aliases = _aliases(raw, "$", n)
    coords = _Coords(n, aliases)
    cells = _key(rawsp, "cells", "$.space", coords.cells)
    locally_closed = _key(rawsp, "locally_closed", "$.space", _bool, None)
    tol = _key(rawsp, "tol", "$.space", _float, DEFAULT_TOL)
    space = _built("$.space", SubcartesianSpace, n, cells, tol)
    if locally_closed is not None and locally_closed != space.locally_closed:
        raise SchemaError("$.space.locally_closed",
                          "declared true, but a union of cells is not shown to be locally closed"
                          if locally_closed else "declared false, but one cell is locally closed")

    components = _key(raw, "fields", "$", partial(_named, coords.field), {})
    fields = {k: TangentField(k, c) for k, c in components.items()}

    def field_name(v, path: str) -> str:
        if _str(v, path) not in fields:
            raise SchemaError(path, f"unknown field {v!r}")
        return v

    families = _key(raw, "families", "$", partial(_named, partial(
        _items, field_name, nonempty="family must not be empty")), {})
    if not families and fields:
        families["default"] = sorted(fields)
    seeds = _key(raw, "seeds", "$", partial(_named, coords.seeds), {})

    def stratum(v, path: str) -> Stratum:
        stname = _key(_obj(v, path), "name", path, _str)
        stcells = _key(v, "cells", path, coords.cells)
        dim = _key(v, "dim", path, _int)
        if not 0 <= dim <= n:
            raise SchemaError(f"{path}.dim", f"dimension {dim} outside 0..{n}")
        _key(v, "frame", path, partial(_items, field_name), None)
        return Stratum(stname, SubcartesianSpace(n, stcells, tol), dim)

    stratified = None
    if "strata" in raw:
        from .strata import StratifiedSpace, Stratum

        strata = _key(raw, "strata", "$", partial(_items, stratum))
        locally_trivial = _key(raw, "locally_trivial", "$", _bool, False)
        stratified = _built("$.strata", StratifiedSpace, space, strata, locally_trivial)
    box = _key(raw, "box", "$", coords.box, None)

    poisson = None
    if "poisson" in raw:
        from .poisson import PoissonStructure

        rawp = _key(raw, "poisson", "$", _obj)
        bivector = _key(rawp, "bivector", "$.poisson", coords.matrix)
        label = _key(rawp, "label", "$.poisson", _str, "poisson")
        poisson = _built("$.poisson.bivector", PoissonStructure, n, bivector, label)

    reduction = None
    if "reduction" in raw:
        rawr = _key(raw, "reduction", "$", _obj)
        amb_n = _key(rawr, "ambient_dim", "$.reduction", _positive)
        amb = _Coords(amb_n, _aliases(rawr, "$.reduction", amb_n))
        invariants = _key(rawr, "invariants", "$.reduction", partial(
            _items, amb.expr, nonempty="needs at least one invariant"))
        degree = _key(rawr, "degree", "$.reduction", _positive, 2)
        ambient = _key(rawr, "bivector", "$.reduction", amb.matrix, None)
        if ambient is not None:
            from .poisson import PoissonStructure

            ambient = _built("$.reduction.bivector", PoissonStructure, amb_n, ambient, "ambient")
        elif amb_n % 2:
            raise SchemaError("$.reduction.ambient_dim",
                              f"odd dimension {amb_n} needs an explicit 'bivector'")
        reduction = {"ambient_dim": amb_n, "invariants": invariants, "degree": degree,
                     "ambient": ambient}

    for key in ("generators", "casimirs"):
        if key in raw and poisson is None:
            raise SchemaError(f"$.{key}", f"{key} need a 'poisson' block")
    generators = _key(raw, "generators", "$", partial(_items, coords.expr), [])
    casimirs = _key(raw, "casimirs", "$", partial(_items, coords.expr), [])

    acs = omega = None
    if "acs" in raw:
        rawacs = _key(raw, "acs", "$", _obj)
        jmat = _key(rawacs, "matrix", "$.acs", coords.matrix)
        acs = _built("$.acs.matrix", AlmostComplexStructure, n, jmat)
        omega = _key(rawacs, "omega", "$.acs", coords.matrix, None)

    return Scenario(
        name=name,
        sha256=sha256_hex(blob),
        space=space,
        aliases=aliases,
        fields=fields,
        families=families,
        seeds=seeds,
        stratified=stratified,
        box=box,
        poisson=poisson,
        reduction=reduction,
        generators=generators,
        casimirs=casimirs,
        acs=acs,
        omega=omega,
        tolerances=_key(raw, "tolerances", "$", _tolerances, {}),
    )


# Shared helpers -----------------------------------------------------------------

def _parse_point_arg(text: str, n: int) -> list[float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise CliError(f"--point has {len(parts)} coordinates, space has {n}")
    try:
        point = [float(p) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad --point value: {exc}") from None
    for i, x in enumerate(point):
        if not math.isfinite(x):
            raise CliError(f"--point coordinate {i} is {x}, expected a finite number")
    return point


def _resolve_seeds(sc: Scenario, spec: str) -> list[list[float]]:
    if spec in sc.seeds:
        return sc.seeds[spec]
    if os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise CliError(f"cannot read seeds file {spec!r}: {exc}") from None
        try:  # a seed set, read as the scenario's are
            return _Coords(sc.space.ambient_dim, sc.aliases).seeds(raw, "$")
        except SchemaError as exc:
            raise CliError(f"--seeds file {spec!r} at {exc.path}: {exc.detail}") from None
    raise CliError(
        f"--seeds {spec!r} is neither a seed set {sorted(sc.seeds)} nor a file"
    )


def _need(block, key: str):
    """``block``, the scenario's ``key`` block, unless it is absent or empty."""
    if not block:
        article = "an" if key == "acs" else "a"
        raise CliError(f"this command needs {article} {key!r} block in the scenario")
    return block


def _box_points(sc: Scenario, count: int, seed: int) -> list[list[float]]:
    draw = box(random.Random(seed), *_need(sc.box, "box"))
    return [draw() for _ in range(count)]


def _flow_options(tol: dict) -> FlowOptions:
    from .flow import FlowOptions

    return FlowOptions(rtol=tol["rtol"], atol=tol["atol"])


def _csv_out(args) -> Optional[str]:
    if args.out and args.out.endswith(".csv"):
        return args.out
    return None


def _write_cloud(path: str, points, words) -> None:
    n = len(points[0]) if points else 0
    header = [f"x{i + 1}" for i in range(n)] + ["word_id"]
    rows = [p + [i] for i, p in enumerate(points)]
    write_csv(path, header, rows)
    sidecar = path[: -len(".csv")] + ".words.json"
    payload = {"words": [[[i, t] for (i, t) in w] for w in words]}
    with open(sidecar, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(payload) + "\n")


# Command handlers ---------------------------------------------------------------
# Each returns its result dict; main reads the exit code off it (see FAILURES).

def cmd_flow(sc: Scenario, args, tol) -> dict:
    from .flow import IntegrationError, integrate

    fld = sc.field(args.field)
    point = _parse_point_arg(args.point, sc.space.ambient_dim)
    out = _csv_out(args)
    try:
        curve = integrate(sc.space, fld, point, horizon=args.horizon, options=_flow_options(tol), store=bool(out))
    except IntegrationError:
        _value_at(fld, point)  # a field that fails at the point is named, as bracket names it
        raise
    if out:
        header = ["t"] + [f"x{i + 1}" for i in range(sc.space.ambient_dim)]
        write_csv(out, header, [[t] + p for t, p in curve.samples])
    return curve.to_json_dict()


def cmd_classify(sc: Scenario, args, tol) -> dict:
    from .flow import ProbeOptions, classify_vector_field

    fld = sc.field(args.field)
    seeds = _resolve_seeds(sc, args.seeds)
    probe = ProbeOptions(seeds=tuple(tuple(s) for s in seeds), rng_seed=args.seed)
    return asdict(classify_vector_field(sc.space, fld, probe, options=_flow_options(tol)))


def cmd_bracket(sc: Scenario, args, tol) -> dict:
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
        result["value"] = _value_at(b, point)
    return result


def cmd_orbit(sc: Scenario, args, tol) -> dict:
    from .orbit import sample_orbit

    fam = sc.family(args.family)
    point = _parse_point_arg(args.point, sc.space.ambient_dim)
    cloud = sample_orbit(
        fam, point, args.budget, step_scale=args.step_scale,
        rng_seed=args.seed, tol_rank=tol["rank"], options=_flow_options(tol),
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
    return result


def cmd_chart(sc: Scenario, args, tol) -> dict:
    from .orbit import DependentBasisError, chart_jacobian

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
        if fam.vanishes_at(point):  # a certified 0-dimensional orbit, not a failure
            return {"verdict": "FixedPoint", "basepoint": point, "rank": 0,
                    "detail": f"every field of {fam.labels()} vanishes at the point, "
                              "so its orbit is the point alone"}
        # the orbit can be larger than the pointwise span (translate_shear at
        # (0, 0) spans rank 1 in an orbit that is the whole plane), so this is
        # no certified failure
        return {"verdict": "DependentBasis",
                "detail": f"{exc}; the pointwise rank is only a lower bound on the orbit dimension, "
                          "so the chart is inconclusive"}
    result = {
        "verdict": "Chart",
        "basis": [fam.fields[b].label for b in chart.basis],
        "basepoint": chart.basepoint,
        "rank": chart.rank,
        "agreement": chart.agreement,
        "jacobian": chart.jacobian0,
        "fd_jacobian": chart.fd_jacobian,
        "singular_values": chart.singular_values,
    }
    return result


def cmd_complete_probe(sc: Scenario, args, tol) -> dict:
    from .orbit import local_completeness_probe

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
    if rep.passed is None:
        return {**asdict(rep), "verdict": "Inconclusive",
                "detail": "every probe was skipped: its flow left the space or failed to integrate"}
    return asdict(rep)


def cmd_strata(sc: Scenario, args, tol) -> dict:
    from .strata import NotStronglyStratifiedError, frontier_check, orbit_vs_strata, strongly_stratified_check

    ss = _need(sc.stratified, "strata")
    lo, hi = _need(sc.box, "box")
    if args.check == "frontier":
        rep = frontier_check(ss, lo, hi, rng_seed=args.seed, frontier_tol=tol["frontier"])
    elif args.check == "tangency":
        if not args.field:
            raise CliError("--check tangency needs --field")
        fld = sc.field(args.field)
        rep = strongly_stratified_check(
            ss, fld, lo, hi, horizon=args.horizon, rng_seed=args.seed,
            drift_tol=tol["drift"], options=_flow_options(tol),
        )
    else:
        fam = sc.family(args.family)
        seeds = _resolve_seeds(sc, args.seeds)
        try:
            rep = orbit_vs_strata(
                ss, fam, seeds, lo, hi, budget=args.budget, rng_seed=args.seed, horizon=args.horizon,
                drift_tol=tol["drift"], tol_rank=tol["rank"], options=_flow_options(tol),
            )
        except NotStronglyStratifiedError as exc:  # certified, with a witness; any other StrataError is bad input
            return {"verdict": "PreconditionFailed", "detail": str(exc)}
    result = asdict(rep)
    # declared, never verified: there is no finite certificate for it
    result["declared_locally_trivial"] = ss.locally_trivial
    return result


def cmd_poisson(sc: Scenario, args, tol) -> dict:
    from .poisson import jacobi_sample_residual

    p = _need(sc.poisson, "poisson")
    pts = _box_points(sc, 20, args.seed) if sc.box else [
        [0.0] * p.dim, [0.5] * p.dim, [-0.5] * p.dim
    ]
    anti = p.antisymmetry_residual(pts)
    jac, witness = jacobi_sample_residual(
        p, n_triples=args.triples, n_points=args.points,
        scale=args.scale, rng_seed=args.seed,
    )
    if not (math.isfinite(anti) and math.isfinite(jac)):
        raise CliError(f"residuals are not finite at --scale {args.scale:g} (antisymmetry {anti}, "
                       f"jacobi {jac}); choose a smaller --scale")
    result = {
        "label": p.label,
        "dim": p.dim,
        "antisymmetry_residual": anti,
        "jacobi_residual": jac,
        "passed": anti <= tol["antisymmetry"] and jac <= tol["jacobi"],
    }
    if jac > tol["jacobi"]:
        result["witness"] = witness
    return result


def cmd_reduce(sc: Scenario, args, tol) -> dict:
    from .poisson import PoissonStructure, ReductionError, ReductionSetup, reduce as reduce_structure

    red = _need(sc.reduction, "reduction")
    ambient = red["ambient"] or PoissonStructure.canonical(red["ambient_dim"] // 2)
    setup = ReductionSetup(ambient=ambient, invariants=tuple(red["invariants"]), degree=red["degree"],
                           rng_seed=args.seed, certify_tol=tol["certify"])
    try:
        reduced = reduce_structure(setup)
    except ReductionError as exc:
        return {"verdict": "NotReducible", "detail": str(exc)}
    return {
        "verdict": "Reduced",
        "invariants": [to_text(s) for s in setup.invariants],
        "bivector": [[to_text(e) for e in row] for row in reduced.rows],
        "meta": reduced.meta,
    }


def cmd_leaf(sc: Scenario, args, tol) -> dict:
    from .poisson import leaf_sample

    _need(sc.poisson, "poisson")
    _need(sc.generators, "generators")
    point = _parse_point_arg(args.point, sc.space.ambient_dim)
    cloud = leaf_sample(
        sc.space, sc.poisson, sc.generators, point, args.budget,
        rng_seed=args.seed, step_scale=args.step_scale,
        casimirs=sc.casimirs, tol_rank=tol["rank"], options=_flow_options(tol),
    )
    out = _csv_out(args)
    if out:
        _write_cloud(out, cloud.points, cloud.words)
    drifts = cloud.diagnostics.get("casimirs", [])
    max_drift = worst_residual(d["max_drift"] for d in drifts)
    result = {
        "seed_point": point,
        "n_points": len(cloud.points),
        "est_dimension": cloud.est_dimension,
        "max_casimir_drift": max_drift,
        "diagnostics": cloud.diagnostics,
        "passed": max_drift <= tol["casimir_drift"],
    }
    return result


def _acs_fields(sc: Scenario, args) -> list[TangentField]:
    """The fields --fields names, or else every field of the scenario."""
    names = args.fields.split(",") if args.fields else sorted(sc.fields)
    if not names:
        raise CliError(f"--check {args.check} needs at least one field")
    return [sc.field(nm) for nm in names]


def cmd_acs(sc: Scenario, args, tol) -> dict:
    j = _need(sc.acs, "acs")
    # usage errors exit 2 before any sampling, whatever J squares to
    if args.check == "torsion":
        if not (args.x and args.y):
            raise CliError("--check torsion needs --x and --y")
        fx = sc.field(args.x)
        fy = sc.field(args.y)
        point = None if args.point is None else _parse_point_arg(args.point, sc.space.ambient_dim)
    elif args.check == "cr":
        if not (args.f and args.h):
            raise CliError("--check cr needs --f and --h")
        try:
            f = parse(args.f, sc.space.ambient_dim, sc.aliases)
            h = parse(args.h, sc.space.ambient_dim, sc.aliases)
        except ParseError as exc:
            raise CliError(f"bad expression: {exc}") from None
    elif sc.omega is None:
        raise CliError("--check kahler needs an 'omega' matrix in the acs block")
    if args.check != "torsion":
        flds = _acs_fields(sc, args)
    pts = _box_points(sc, args.points, args.seed)
    square = j.square_residual(pts)
    if square > tol["square"]:
        return {"verdict": "NotAlmostComplex", "square_residual": square}
    if args.check == "torsion":
        n = torsion(j, fx, fy)
        result = {
            "check": "torsion",
            "x": fx.label,
            "y": fy.label,
            "square_residual": square,
            "max_norm": max_norm(n, pts),
        }
        if point is not None:
            result["point"] = point
            result["value"] = _value_at(n, point)
        return result
    if args.check == "cr":
        resid = cauchy_riemann_residual(j, flds, f, h, pts)
        result = {
            "check": "cr",
            "f": to_text(f),
            "h": to_text(h),
            "fields": [x.label for x in flds],
            "square_residual": square,
            "residual": resid,
        }
        return result
    try:
        rep = kahler_check(j, sc.omega, flds, pts, tol=tol["kahler"])
    except DegenerateError as exc:
        return {"verdict": "Degenerate", "detail": str(exc)}
    result = asdict(rep)
    result["check"] = "kahler"
    result["fields"] = [x.label for x in flds]
    return result


# Dispatch -----------------------------------------------------------------------

def _positive_float(text: str) -> float:
    """argparse type for horizons, step, time and sample scales and radii: finite and positive."""
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


_COMMON_ARGS = (
    ("--scenario", {"required": True, "help": "scenario JSON file"}),
    ("--out", {"default": None, "help": "artifact path: .json report, or .csv data of flow, orbit, leaf"}),
    ("--tol-overrides", {"default": None, "help": "JSON object overriding tolerances the command reads"}),
)
_SEED = ("--seed", {"type": int, "default": 0, "help": "random seed (default 0)"})

# name -> (help, handler, arguments after the common ones), in the order --help lists them
_COMMANDS = {
    "flow": ("integrate one field from a point", cmd_flow, (
        ("--field", {"required": True}),
        ("--point", {"required": True}),
        ("--horizon", {"type": _positive_float, "default": 10.0}),  # flow.DEFAULT_HORIZON
    )),
    "classify": ("derivation vs vector field verdict", cmd_classify, (_SEED,
        ("--field", {"required": True}),
        ("--seeds", {"default": "default", "help": "seed set name or JSON file"}),
    )),
    "bracket": ("Lie bracket of two named fields", cmd_bracket, (
        ("--x", {"required": True}),
        ("--y", {"required": True}),
        ("--point", {"default": None}),
    )),
    "orbit": ("sample the orbit of a family", cmd_orbit, (_SEED,
        ("--family", {"default": "default"}),
        ("--point", {"required": True}),
        ("--budget", {"type": _positive_int, "default": 400}),
        ("--step-scale", {"type": _positive_float, "default": 0.3}),
    )),
    "chart": ("chart differential with rank certificate", cmd_chart, (
        ("--family", {"default": "default"}),
        ("--point", {"required": True}),
        ("--basis", {"default": None, "help": "comma separated field indices"}),
    )),
    "complete-probe": ("local completeness probe", cmd_complete_probe, (_SEED,
        ("--family", {"default": "default"}),
        ("--seeds", {"default": "default", "help": "probe centers: seed set name or JSON file"}),
        ("--n", {"type": _positive_int, "default": 20}),
        ("--radius", {"type": _positive_float, "default": 1.0}),
        ("--t-scale", {"type": _positive_float, "default": 1.0}),
    )),
    "strata": ("stratification checks", cmd_strata, (_SEED,
        ("--check", {"required": True, "choices": ["frontier", "tangency", "orbits"]}),
        ("--field", {"default": None, "help": "field for --check tangency"}),
        ("--family", {"default": "default"}),
        ("--seeds", {"default": "default"}),
        ("--budget", {"type": _positive_int, "default": 400}),
        ("--horizon", {"type": _positive_float, "default": 0.5}),
    )),
    "poisson": ("bivector antisymmetry and Jacobi check", cmd_poisson, (_SEED,
        ("--triples", {"type": _positive_int, "default": 50}),
        ("--points", {"type": _positive_int, "default": 10}),
        ("--scale", {"type": _positive_float, "default": 1.0}),
    )),
    "reduce": ("invariant-based reduction", cmd_reduce, (_SEED,)),
    "leaf": ("Hamiltonian orbit with Casimir drift", cmd_leaf, (_SEED,
        ("--point", {"required": True}),
        ("--budget", {"type": _positive_int, "default": 500}),
        ("--step-scale", {"type": _positive_float, "default": 0.3}),
    )),
    "acs": ("almost complex structure checks", cmd_acs, (_SEED,
        ("--check", {"required": True, "choices": ["torsion", "cr", "kahler"]}),
        ("--x", {"default": None}),
        ("--y", {"default": None}),
        ("--f", {"default": None}),
        ("--h", {"default": None}),
        ("--fields", {"default": None, "help": "comma separated field names"}),
        ("--points", {"type": _positive_int, "default": 25}),
        ("--point", {"default": None}),
    )),
}


def _build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for ``argv``.

    When ``argv`` starts with a command name, only that command's subparser
    is built: argparse hands everything after the name to it, and the
    command list in the top-level usage is spelled out, so every answer
    equals the full parser's.  Otherwise all eleven are built, for help and
    for the errors that list the commands.
    """
    only = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = argparse.ArgumentParser(
        prog="subcart",
        description="Flows, orbits, strata, brackets and torsion on subsets of R^n.",
    )
    # a metavar would also rename the command in the full parser's errors
    metavar = None if only is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, _, arguments) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=text)
            for flag, options in _COMMON_ARGS + arguments:
                p.add_argument(flag, **options)
    return parser


def _tolerance_overrides(text: Optional[str], reader: str, read: dict) -> dict[str, float]:
    """The ``--tol-overrides`` object, read by the rules of a scenario's
    tolerances, whose keys must also be in ``read``, the tolerances the
    command ``reader`` reads; it names no scenario key, so it is read
    before the scenario."""
    try:
        overrides = _tolerances(json.loads(text), "--tol-overrides") if text else {}
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(f"--tol-overrides is not valid JSON: {exc}") from None
    except SchemaError as exc:
        raise CliError(f"{exc.path}: {exc.detail}") from None
    for name in sorted(overrides):
        if name not in read:
            command = reader.replace(":", " --check ")
            raise CliError(f"--tol-overrides.{name}: {command} does not read it; it reads {sorted(read)}")
    return overrides


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        # the tolerances the command, or the command with its --check, reads
        reader = args.command + (f":{args.check}" if "check" in args else "")
        read = {k: v for k, (v, readers) in DEFAULT_TOLERANCES.items() if reader in readers.split()}
        overrides = _tolerance_overrides(args.tol_overrides, reader, read)
        writes = (".json", ".csv") if args.command in ("flow", "orbit", "leaf") else (".json",)
        if args.out is not None and not args.out.endswith(writes):
            raise CliError(f"--out {args.out!r}: {args.command} writes {' or '.join(writes)} files")
        sc = load_scenario(args.scenario)
        tol = {k: overrides.get(k, sc.tolerances.get(k, v)) for k, v in read.items()}
        result = _COMMANDS[args.command][1](sc, args, tol)
        report = {
            "command": args.command,
            "scenario": {"name": sc.name, "sha256": sc.sha256},
            "tolerances": tol,
            "result": result,
        }
        if "seed" in args:
            report["seed"] = args.seed
        text = canonical_json(report) + "\n"
        sys.stdout.write(text)
        if args.out and args.out.endswith(".json"):
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except Exception as exc:
        sys.stderr.write(_error_line(exc))
        return EXIT_USAGE
    failed = result.get("passed") is False or result.get("verdict", result.get("classification")) in FAILURES
    return EXIT_FAIL if failed else EXIT_PASS


def _error_line(exc: Exception) -> str:
    """``error:`` for bad input and the library's errors, ``internal error:``
    for a defect, since exit 1 stays reserved for certified failures.  The
    errors of a module imported on first use are read only once it is
    loaded: a module that is not loaded raised nothing."""

    def loaded(module: str, *names: str) -> tuple:
        mod = sys.modules.get(f"{__package__}.{module}")
        return tuple(getattr(mod, name) for name in names) if mod else ()

    if isinstance(exc, loaded("flow", "FlowDomainError", "IntegrationError")):
        return f"error: integration failed: {exc}\n"
    usage = (CliError, OSError, SpaceError, FieldError, ExprError, AlmostComplexError, ReportError)
    if isinstance(exc, usage + loaded("orbit", "OrbitError") + loaded("poisson", "PoissonError")
                  + loaded("strata", "StrataError")):
        return f"error: {exc}\n"
    return f"internal error: {type(exc).__name__}: {' '.join(str(exc).split())}\n"


if __name__ == "__main__":
    raise SystemExit(main())
