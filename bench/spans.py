"""Per-layer tracer: spans around the public entry points of each subcart module.

The tracer replaces each entry point named in ENTRY_POINTS by a timing
wrapper, matched by object identity in every subcart.* module dict and in the
defining class dict, because `from .x import y` binds the function again in
every module that imports it.  A name that no longer exists is skipped and
reported as absent.

A span records its name, start, end, parent span and the command it belongs
to.  A recursive entry point records only its outermost span: `expr.diff`
recurses through its module-global name.  Self time is a span's duration
minus the durations of its child spans; time in code that is not wrapped
(private helpers, compiled expressions) counts as self time of the innermost
wrapped caller.

The callables returned by compile_vector and compile_scalar are wrapped to
count calls.  A vector evaluation whose innermost span is a flow entry point
is one right-hand-side evaluation of the integrator.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from collections import Counter

MODULES = ("cli", "report", "expr", "space", "field", "flow", "orbit", "strata", "poisson",
           "almostcomplex")

# Entry points per module, as qualified names.  Each metric below reads the
# spans of one or more of them.
ENTRY_POINTS = {
    "cli": ("main", "load_scenario"),
    "report": ("canonical_json",),
    "expr": ("parse", "diff", "compile_scalar", "compile_vector", "eval_jet"),
    "space": ("SubcartesianSpace.contains", "project_to_equalities", "sample_near",
              "sample_cell_near", "sample_cell_box"),
    "field": ("lie_bracket", "TangentField.jacobian_at", "pushforward_at"),
    "flow": ("integrate", "classify_vector_field", "flow_map", "transport_vector"),
    "orbit": ("sample_orbit", "span_dimension", "chart_jacobian", "local_completeness_probe"),
    "strata": ("frontier_check", "strongly_stratified_check", "orbit_vs_strata",
               "closure_contains", "sample_space_box"),
    "poisson": ("bracket", "jacobi_sample_residual", "reduce", "leaf_sample"),
    "almostcomplex": ("torsion", "kahler_check", "cauchy_riemann_residual"),
}

# metric prefix -> spans it sums over
SPAN_METRICS = {
    "cli.main": ("cli.main",),
    "cli.load_scenario": ("cli.load_scenario",),
    "report.canonical_json": ("report.canonical_json",),
    "expr.parse": ("expr.parse",),
    "expr.diff": ("expr.diff",),
    "expr.compile": ("expr.compile_scalar", "expr.compile_vector"),
    "expr.eval_jet": ("expr.eval_jet",),
    "space.contains": ("space.SubcartesianSpace.contains",),
    "space.project": ("space.project_to_equalities",),
    "space.sample": ("space.sample_near", "space.sample_cell_near", "space.sample_cell_box"),
    "field.lie_bracket": ("field.lie_bracket",),
    "field.jacobian_at": ("field.TangentField.jacobian_at",),
    "flow.integrate": ("flow.integrate",),
    "flow.classify": ("flow.classify_vector_field",),
    "flow.flow_map": ("flow.flow_map",),
    "flow.transport": ("flow.transport_vector",),
    "orbit.sample_orbit": ("orbit.sample_orbit",),
    "orbit.span_dimension": ("orbit.span_dimension",),
    "orbit.chart": ("orbit.chart_jacobian",),
    "orbit.completeness": ("orbit.local_completeness_probe",),
    "strata.frontier": ("strata.frontier_check",),
    "strata.tangency": ("strata.strongly_stratified_check",),
    "strata.orbits": ("strata.orbit_vs_strata",),
    "poisson.bracket": ("poisson.bracket",),
    "poisson.jacobi": ("poisson.jacobi_sample_residual",),
    "poisson.reduce": ("poisson.reduce",),
    "poisson.leaf": ("poisson.leaf_sample",),
    "almostcomplex.torsion": ("almostcomplex.torsion",),
    "almostcomplex.kahler": ("almostcomplex.kahler_check",),
    "almostcomplex.cr": ("almostcomplex.cauchy_riemann_residual",),
}

# The per-layer metrics in print order: (metric prefix, field); `calls` and
# `self_s` come from spans, the rest from counts taken at the same boundaries.
METRICS = (
    ("cli.main", "self_s"), ("cli.load_scenario", "calls"), ("cli.load_scenario", "self_s"),
    ("report.canonical_json", "calls"), ("report.canonical_json", "self_s"), ("report", "bytes"),
    ("expr.parse", "calls"), ("expr.parse", "self_s"), ("expr.diff", "calls"), ("expr.diff", "self_s"),
    ("expr.compile", "calls"), ("expr.compile", "self_s"), ("expr.compile", "hit_ratio"),
    ("expr.eval_jet", "calls"), ("expr.eval_jet", "self_s"),
    ("expr.vector_eval", "calls"), ("expr.scalar_eval", "calls"),
    ("space.contains", "calls"), ("space.contains", "self_s"),
    ("space.project", "calls"), ("space.project", "fail_ratio"), ("space.project", "self_s"),
    ("space.sample", "yield_ratio"), ("space.sample", "self_s"),
    ("field.lie_bracket", "calls"), ("field.lie_bracket", "self_s"),
    ("field.jacobian_at", "calls"), ("field.jacobian_at", "self_s"),
    ("flow.integrate", "calls"), ("flow.integrate", "self_s"),
    ("flow.classify", "calls"), ("flow.classify", "self_s"),
    ("flow", "us_per_rhs"), ("flow", "contains_per_call"),
    ("flow.flow_map", "calls"), ("flow.flow_map", "self_s"), ("flow.flow_map", "exit_ratio"),
    ("flow.transport", "calls"), ("flow.transport", "self_s"), ("flow", "rhs_per_call"),
    ("orbit.sample_orbit", "calls"), ("orbit.sample_orbit", "self_s"),
    ("orbit.sample_orbit", "merged_ratio"), ("orbit.sample_orbit", "fail_ratio"),
    ("orbit.span_dimension", "calls"), ("orbit.span_dimension", "self_s"),
    ("orbit.chart", "self_s"), ("orbit.completeness", "self_s"),
    ("strata.frontier", "self_s"), ("strata.tangency", "self_s"), ("strata.orbits", "self_s"),
    ("poisson.bracket", "calls"), ("poisson.bracket", "self_s"), ("poisson.jacobi", "self_s"),
    ("poisson.reduce", "self_s"), ("poisson.leaf", "self_s"),
    ("almostcomplex.torsion", "self_s"), ("almostcomplex.kahler", "self_s"),
    ("almostcomplex.cr", "self_s"),
    ("trace", "overhead_s"),
)

UNITS = {"calls": "count", "self_s": "s", "bytes": "B", "us_per_rhs": "us",
         "contains_per_call": "count", "rhs_per_call": "count", "overhead_s": "s"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # one entry per span
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_command = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.flow_stack: list[int] = []
        self.commands = 0
        self.counts: Counter = Counter()
        self.rhs_by_span: Counter = Counter()  # span name id -> right-hand-side evaluations
        self.absent: list[str] = []

    def install(self) -> None:
        """Wrap every entry point that exists; the tracer stays installed for the process."""
        mods = {m: importlib.import_module(f"subcart.{m}") for m in MODULES}
        every = [importlib.import_module("subcart")] + list(mods.values())
        observers = {
            "space.SubcartesianSpace.contains": self._observe_contains,
            "space.project_to_equalities": self._observe_project,
            "space.sample_cell_near": self._observe_sample,
            "space.sample_cell_box": self._observe_sample,
            "flow.flow_map": self._observe_flow_map,
            "orbit.sample_orbit": self._observe_orbit,
            "report.canonical_json": self._observe_report,
        }
        for module, qualnames in ENTRY_POINTS.items():
            for qualname in qualnames:
                name = f"{module}.{qualname}"
                owner = mods[module]
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                fn = getattr(owner, "__dict__", {}).get(attr)
                if not inspect.isfunction(fn):
                    self.absent.append(name)
                    continue
                inner = fn
                if name in ("expr.compile_scalar", "expr.compile_vector"):
                    inner = self._count_compiled(fn, name == "expr.compile_scalar")
                wrapped = self._wrap(name, inner, module == "flow", observers.get(name))
                if path:
                    setattr(owner, attr, wrapped)
                    continue
                for m in every:
                    for key, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, key, wrapped)

    def _wrap(self, name, fn, is_flow, observe):
        nid = len(self.names)
        self.names.append(name)
        depth = 0
        span_name, span_parent, span_command = self.span_name, self.span_parent, self.span_command
        span_start, span_end, stack, flow_stack = self.span_start, self.span_end, self.stack, self.flow_stack
        counts = self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            nonlocal depth
            if depth:  # recursion: only the outermost call is a span
                return fn(*args, **kwargs)
            depth += 1
            index = len(span_name)
            if not stack:
                self.commands += 1
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_command.append(self.commands)
            span_end.append(0.0)
            stack.append(index)
            if is_flow:
                if not flow_stack:
                    counts["flow.entries"] += 1
                flow_stack.append(index)
            result = error = None
            span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                span_end[index] = clock()
                stack.pop()
                if is_flow:
                    flow_stack.pop()
                depth -= 1
                if observe is not None:
                    observe(args, kwargs, result, error)

        return traced

    def _count_compiled(self, compile_fn, scalar):
        """Count compile cache hits, and calls into the compiled callables."""
        counts, rhs, stack, flow_stack, span_name = (
            self.counts, self.rhs_by_span, self.stack, self.flow_stack, self.span_name)
        key = "expr.scalar_eval.calls" if scalar else "expr.vector_eval.calls"

        def compile_and_count(e, *args, **kwargs):
            if scalar:
                counts["expr.compile.hits"] += getattr(e, "_compiled", None) is not None
            f = compile_fn(e, *args, **kwargs)

            def counted(x):
                counts[key] += 1
                if not scalar and flow_stack and stack[-1] == flow_stack[-1]:
                    rhs[span_name[stack[-1]]] += 1
                return f(x)

            return counted

        return compile_and_count

    # counts taken at the boundaries ---------------------------------------------------

    def _observe_contains(self, args, kwargs, result, error):
        self.counts["flow.contains"] += bool(self.flow_stack)

    def _observe_project(self, args, kwargs, result, error):
        self.counts["space.project.failed"] += error is None and result is None

    def _observe_sample(self, args, kwargs, result, error):
        self.counts["space.sample.asked"] += kwargs["count"] if "count" in kwargs else args[4]
        self.counts["space.sample.got"] += len(result or ())

    def _observe_flow_map(self, args, kwargs, result, error):
        self.counts["flow.flow_map.exits"] += error is not None

    def _observe_orbit(self, args, kwargs, result, error):
        if result is not None:
            for key in ("attempts", "merged", "flow_failures"):
                self.counts[f"orbit.{key}"] += result.diagnostics.get(key, 0)

    def _observe_report(self, args, kwargs, result, error):
        self.counts["report.bytes"] += len((result or "").encode("utf-8"))

    # results --------------------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def _totals(self):
        """Self seconds and calls per entry point."""
        dur = [e - s for s, e in zip(self.span_start, self.span_end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        selfs: Counter = Counter()
        calls: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            selfs[self.names[nid]] += dur[i] - child[i]
            calls[self.names[nid]] += 1
        return selfs, calls

    def metrics(self, overhead_s: float) -> dict[str, tuple[float, str]]:
        selfs, calls = self._totals()
        c = self.counts
        rhs = Counter({self.names[nid]: n for nid, n in self.rhs_by_span.items()})
        flow_self = sum(v for k, v in selfs.items() if k.startswith("flow."))
        moves = ("flow.flow_map", "flow.transport_vector")
        derived = {
            "report.bytes": c["report.bytes"],
            "expr.compile.hit_ratio": _ratio(c["expr.compile.hits"], calls["expr.compile_scalar"]),
            "expr.vector_eval.calls": c["expr.vector_eval.calls"],
            "expr.scalar_eval.calls": c["expr.scalar_eval.calls"],
            "space.project.fail_ratio": _ratio(c["space.project.failed"],
                                               calls["space.project_to_equalities"]),
            "space.sample.yield_ratio": _ratio(c["space.sample.got"], c["space.sample.asked"]),
            "flow.us_per_rhs": _ratio(flow_self * 1e6, sum(rhs.values())),
            "flow.contains_per_call": _ratio(c["flow.contains"], c["flow.entries"]),
            "flow.flow_map.exit_ratio": _ratio(c["flow.flow_map.exits"], calls["flow.flow_map"]),
            "flow.rhs_per_call": _ratio(sum(rhs[k] for k in moves), sum(calls[k] for k in moves)),
            "orbit.sample_orbit.merged_ratio": _ratio(c["orbit.merged"], c["orbit.attempts"]),
            "orbit.sample_orbit.fail_ratio": _ratio(c["orbit.flow_failures"], c["orbit.attempts"]),
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for prefix, field in METRICS:
            name = f"{prefix}.{field}"
            if name in derived:
                value = derived[name]
            else:
                spans = SPAN_METRICS[prefix]
                value = sum((selfs if field == "self_s" else calls)[s] for s in spans)
            out[name] = (float(value), UNITS.get(field, "ratio"))
        return out

    def summary(self) -> dict:
        """Self-time share per module, spans per command, and absent entry points."""
        selfs, _ = self._totals()
        total = sum(selfs.values())
        share = Counter()
        for name, v in selfs.items():
            share[name.split(".")[0]] += v / total if total else 0.0
        return {
            "module_self_share": {m: round(share[m], 4) for m in MODULES},
            "spans_per_command": round(_ratio(self.span_count(), self.commands), 1),
            "absent_entry_points": self.absent,
        }
