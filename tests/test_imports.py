"""The package's import surface: lazy exports, the README example, no unused imports or names."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import subcart

SRC = Path(subcart.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports the package under test; return stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_expr_alone_loads_no_numpy_and_no_other_module():
    loaded = json.loads(_fresh(
        "import json, sys, subcart.expr\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'subcart'))))"
    ))
    assert loaded == ["subcart", "subcart.expr"]


def _runs_at_import(body: list[ast.stmt]):
    """The statements of ``body`` that run when the module is imported: those
    of module and class bodies and the blocks inside them, but no function
    body and no ``if TYPE_CHECKING:`` block, which only type checkers read."""
    for node in body:
        yield node
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            yield from _runs_at_import(node.orelse)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for field in ("body", "orelse", "finalbody", "handlers"):
                yield from _runs_at_import(getattr(node, field, []))


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")))
def test_no_module_imports_numpy_at_import_time(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    found = [node.lineno for node in _runs_at_import(tree.body)
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]
    assert found == [], f"{path} imports numpy at import time, line {found}"


def _subcart_modules(node: ast.stmt) -> set[str]:
    """The submodules of the package that the import statement ``node``
    imports: ``flow`` for ``from .flow import x``, ``from . import flow`` and
    ``import subcart.flow``."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("subcart.")}
    if isinstance(node, ast.ImportFrom):
        module = node.module or ""
        if node.level == 0 and (module + ".").startswith("subcart."):
            module = module[len("subcart"):].lstrip(".")
        elif node.level != 1:
            return set()
        return {module.split(".")[0]} if module else {a.name for a in node.names}
    return set()


# module -> the modules it imports only inside the functions that use them
_ON_FIRST_USE = {
    "cli.py": {"flow", "orbit", "poisson", "strata"},
    "poisson.py": {"flow", "orbit"},
    "strata.py": {"flow", "orbit"},
}


@pytest.mark.parametrize("path", sorted(_ON_FIRST_USE))
def test_command_modules_are_imported_on_first_use(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    found = [(node.lineno, sorted(_subcart_modules(node) & _ON_FIRST_USE[path]))
             for node in _runs_at_import(tree.body) if _subcart_modules(node) & _ON_FIRST_USE[path]]
    assert found == [], f"{path} imports a command module at import time: {found}"


# The probe_sweep commands of the benchmark, malformed ones included, then
# the other commands that need no numpy: scenario name, argv, exit code.
_NUMPY_FREE_COMMANDS = [
    ("halfline", ["flow", "--field", "ddx", "--point=0.5", "--horizon", "2"], 0),
    ("disk_line", ["flow", "--field", "ddx", "--point=0.1,0.5", "--horizon", "3"], 0),
    ("rotation_plane", ["flow", "--field", "rot", "--point=0.6,-0.8", "--horizon", "7", "--out", "{csv}"], 0),
    ("halfline", ["classify", "--field", "ddx"], 1),
    ("halfline", ["classify", "--field", "xddx"], 0),
    ("circle", ["classify", "--field", "rot"], 0),
    ("disk_line", ["classify", "--field", "ddx"], 1),
    ("halfline", ["flow", "--field", "ddx", "--point=0.5", "--horizon", "-1"], 2),
    ("halfline", ["classify", "--field", "ddx", "--tol-overrides", '{"rtol": NaN}'], 2),
    ("disk_line", ["flow", "--field", "ddx", "--point=0.1,0.5", "--tol-overrides", '{"rtoll": 1e-9}'], 2),
    ("acs_standard", ["acs", "--check", "torsion", "--x", "e1", "--y", "e3", "--points", "0"], 2),
    ("translate_shear", ["bracket", "--x", "ddx", "--y", "xddy", "--point=1,2"], 0),
    ("cone", ["strata", "--check", "tangency", "--field", "ddz", "--horizon", "0.3"], 1),
]


def test_scenarios_flow_classify_bracket_and_tangency_never_load_numpy(tmp_path):
    scenarios = SRC / "scenarios"
    argvs = [[argv[0], "--scenario", str(scenarios / f"{name}.json")]
             + [a.replace("{csv}", str(tmp_path / "x.csv")) for a in argv[1:]]
             for name, argv, _ in _NUMPY_FREE_COMMANDS]
    out = json.loads(_fresh(
        "import contextlib, io, json, sys\n"
        "from subcart.cli import load_scenario, main\n"
        f"for path in {sorted(str(p) for p in scenarios.glob('*.json'))!r}:\n"
        "    load_scenario(path)\n"
        "codes = []\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, 'numpy' in sys.modules]))"
    ))
    assert out == [[code for _, _, code in _NUMPY_FREE_COMMANDS], False]
    assert (tmp_path / "x.csv").read_text(encoding="utf-8").startswith("t,x1,x2\n")


# what `import subcart.cli` and loading the scenarios of the benchmark's
# probe_sweep workload load of the package
_PROBE_SCENARIOS = ["halfline", "circle", "disk_line", "rotation_plane", "acs_standard"]
_CLI_MODULES = ["subcart", "subcart.almostcomplex", "subcart.cli", "subcart.expr", "subcart.field",
                "subcart.report", "subcart.space"]

# scenario, argv, exit code, and the modules of the package the command adds
_ADDED_MODULES = [
    ("halfline", ["flow", "--field", "ddx", "--point=0.5", "--horizon", "2"], 0, ["flow"]),
    ("halfline", ["classify", "--field", "ddx"], 1, ["flow"]),
    ("translate_shear", ["bracket", "--x", "ddx", "--y", "xddy", "--point=1,2"], 0, []),
    ("acs_standard", ["acs", "--check", "torsion", "--x", "e1", "--y", "e3", "--points", "2"], 0, []),
    # the loader imports poisson to build a poisson block and strata a strata block
    ("canonical_r2", ["poisson", "--triples", "2", "--points", "2"], 0, ["poisson"]),
    ("reduction_r4", ["reduce"], 0, ["poisson"]),
    ("cone", ["strata", "--check", "frontier"], 0, ["strata"]),
    # the malformed commands of the three benchmark workloads: each exits 2
    # before its handler runs, having loaded only what its scenario needs
    ("halfline", ["flow", "--field", "ddx", "--point=0.5", "--horizon", "-1"], 2, []),
    ("halfline", ["classify", "--field", "ddx", "--tol-overrides", '{"rtol": NaN}'], 2, []),
    ("disk_line", ["flow", "--field", "ddx", "--point=0.1,0.5", "--tol-overrides", '{"rtoll": 1e-9}'], 2, []),
    ("acs_standard", ["acs", "--check", "torsion", "--x", "e1", "--y", "e3", "--points", "0"], 2, []),
    ("cone", ["strata", "--check", "tangency", "--field", "rot", "--horizon", "-1"], 2, []),
    ("translate_shear", ["orbit", "--point=0,0", "--budget", "80", "--tol-overrides", '{"rtol": NaN}'], 2, []),
    ("translate_shear", ["chart", "--point=1,0", "--tol-overrides", '{"rtoll": 1e-9}'], 2, []),
    ("cone", ["strata", "--check", "frontier", "--horizon", "-1"], 2, []),
    ("canonical_r2", ["poisson", "--tol-overrides", '{"rtol": NaN}'], 2, ["poisson"]),
    ("reduction_r4", ["reduce", "--tol-overrides", '{"rtoll": 1e-9}'], 2, ["poisson"]),
]


@pytest.mark.parametrize("name,argv,code,added", _ADDED_MODULES,
                         ids=[f"{i}-{argv[0]}-{name}" for i, (name, argv, _, _) in enumerate(_ADDED_MODULES)])
def test_each_command_loads_only_the_modules_it_runs(name, argv, code, added):
    scenarios = SRC / "scenarios"
    argv = [argv[0], "--scenario", str(scenarios / f"{name}.json")] + argv[1:]
    out = json.loads(_fresh(
        "import contextlib, io, json, sys\n"
        "from subcart.cli import load_scenario, main\n"
        f"for path in {[str(scenarios / f'{n}.json') for n in _PROBE_SCENARIOS]!r}:\n"
        "    load_scenario(path)\n"
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'subcart')\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = main({argv!r})\n"
        "after = sorted(m for m in sys.modules if m.split('.')[0] == 'subcart')\n"
        "print(json.dumps([before, code, [m for m in after if m not in before]]))"
    ))
    assert out == [_CLI_MODULES, code, [f"subcart.{m}" for m in added]]


def test_every_export_resolves_and_is_listed():
    out = json.loads(_fresh(
        "import json, subcart\n"
        "listed = dir(subcart)\n"
        "for name in subcart.__all__:\n"
        "    getattr(subcart, name)\n"
        "print(json.dumps([subcart.__all__, [n for n in subcart.__all__ if n not in listed]]))"
    ))
    assert out[0] == sorted(set(out[0])) and len(out[0]) == 76
    assert out[1] == []


def _knobs() -> list[str]:
    """Every value a caller of the public API may leave at its default: the
    defaulted fields of an exported dataclass, the defaulted parameters of
    another exported class's ``__init__`` and public methods, and those of an
    exported function."""
    knobs = []
    for name in subcart.__all__:
        obj = getattr(subcart, name)
        if dataclasses.is_dataclass(obj):
            knobs += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING or f.default_factory is not dataclasses.MISSING]
            continue
        if inspect.isclass(obj):
            methods = [(f"{name}.{m}", getattr(fn, "__func__", fn)) for m, fn in vars(obj).items()
                       if m == "__init__" or not m.startswith("_")]
        else:
            methods = [(name, obj)]
        for label, fn in methods:
            if inspect.isfunction(fn):
                knobs += [f"{label}({p.name})" for p in inspect.signature(fn).parameters.values()
                          if p.default is not p.empty]
    return sorted(knobs)


# A new optional parameter or defaulted field of the public API edits this
# list in the same change, so each one is seen to be set by some caller.
KNOBS = [
    "AlmostComplexStructure.__init__(label)", "AlmostComplexStructure.apply(label)",
    "AlmostComplexStructure.standard(label)",
    "ExitWitness.cell_index", "ExitWitness.constraint", "ExitWitness.constraint_index", "ExitWitness.guard",
    "FlowOptions.atol", "FlowOptions.max_steps", "FlowOptions.rtol",
    "IntegralCurve.exit_minus", "IntegralCurve.exit_plus",
    "IntegrationError.__init__(t)",
    "OrbitSample.diagnostics", "OrbitSample.dimensions",
    "PoissonStructure.__init__(label)", "PoissonStructure.canonical(label)",
    "ProbeOptions.rng_seed", "ProbeOptions.seeds",
    "ReductionSetup.certify_tol", "ReductionSetup.degree", "ReductionSetup.fit_tol", "ReductionSetup.rng_seed",
    "StratifiedSpace.__init__(locally_trivial)",
    "SubcartesianSpace.__init__(tol)", "SubcartesianSpace.cell_contains(tol)",
    "SubcartesianSpace.closure_contains(tol)", "SubcartesianSpace.contains(tol)",
    "SubcartesianSpace.member_cell(tol)", "SubcartesianSpace.require_member(what)",
    "SubcartesianSpace.whole_space(tol)",
    "TangentField.scaled(label)",
    "VectorFieldVerdict.diagnostics", "VectorFieldVerdict.notes",
    "chart_jacobian(options)", "chart_jacobian(tol_rank)",
    "classify_vector_field(options)",
    "dimension_constancy_report(n_probes)", "dimension_constancy_report(options)",
    "dimension_constancy_report(rng_seed)", "dimension_constancy_report(step_scale)",
    "dimension_constancy_report(tol_rank)",
    "flow_map(options)",
    "frontier_check(frontier_tol)", "frontier_check(rng_seed)",
    "hamiltonian_field(label)",
    "integrate(horizon)", "integrate(options)",
    "invariance_residual(options)", "invariance_residual(space)",
    "jacobi_sample_residual(n_points)", "jacobi_sample_residual(n_triples)",
    "jacobi_sample_residual(rng_seed)", "jacobi_sample_residual(scale)",
    "kahler_check(tol)",
    "leaf_sample(casimirs)", "leaf_sample(options)", "leaf_sample(rng_seed)", "leaf_sample(step_scale)",
    "leaf_sample(tol_rank)",
    "lie_bracket(label)",
    "local_completeness_probe(centers)", "local_completeness_probe(n_random)",
    "local_completeness_probe(options)", "local_completeness_probe(probes)",
    "local_completeness_probe(radius)", "local_completeness_probe(rng_seed)",
    "local_completeness_probe(t_scale)", "local_completeness_probe(tol)",
    "orbit_vs_strata(budget)", "orbit_vs_strata(drift_tol)", "orbit_vs_strata(horizon)",
    "orbit_vs_strata(options)", "orbit_vs_strata(rng_seed)", "orbit_vs_strata(tol_rank)",
    "parse(aliases)",
    "project_to_equalities(max_iter)",
    "reach(options)",
    "sample_orbit(options)", "sample_orbit(rng_seed)", "sample_orbit(step_scale)", "sample_orbit(tol_rank)",
    "strongly_stratified_check(drift_tol)", "strongly_stratified_check(horizon)",
    "strongly_stratified_check(options)", "strongly_stratified_check(rng_seed)",
    "torsion(label)",
    "transport_vector(options)",
]


def test_public_knobs_are_pinned():
    assert len(KNOBS) == 88
    assert _knobs() == KNOBS


def test_star_import_binds_exactly_all():
    out = json.loads(_fresh(
        "import json, subcart\n"
        "ns = {}\n"
        "exec('from subcart import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), subcart.__all__]))"
    ))
    assert out[0] == out[1]


def test_submodule_resolves_after_bare_import():
    assert _fresh("import subcart\nprint(subcart.flow.__name__, subcart.report.__name__)").split() == [
        "subcart.flow", "subcart.report"]


@pytest.mark.parametrize("name", ["no_such_name", "eval_jet", "write_report"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(subcart, name)


def test_readme_python_quick_start():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Python quick start\n\n```python\n(.*?)```", text, re.S).group(1)
    # each print carries the value it prints as a comment, before any ", remark"
    want = [line.split("#", 1)[1].split(",")[0].strip()
            for line in block.splitlines() if line.startswith("print(")]
    assert want and all(want)
    assert _fresh(block).splitlines() == want


def _bound_names(node: ast.AST) -> list[tuple[str, int]]:
    if isinstance(node, ast.Import):
        return [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [(a.asname or a.name, node.lineno) for a in node.names]
    return []


def _used_names(tree: ast.AST) -> set[str]:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names inside string annotations such as -> "TangentField"
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for ann in filter(None, annotations):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= _used_names(ast.parse(c.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(path):
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for node in ast.walk(tree)
              for name, line in _bound_names(node) if name not in used]
    assert unused == [], f"{path} imports names it never uses: {unused}"


def _references(tree: ast.AST) -> Counter:
    """How often each name is read in ``tree``: loaded names, attribute names,
    names inside string annotations and the strings listed in ``_EXPORTS``."""
    refs = Counter(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    refs.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
    annotations = [n.annotation for n in ast.walk(tree) if isinstance(n, (ast.arg, ast.AnnAssign))]
    annotations += [n.returns for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for ann in filter(None, annotations):
        for c in ast.walk(ann):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                refs.update(_references(ast.parse(c.value, mode="eval")))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets):
            refs.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return refs


def _top_level_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defs += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in defs if not (name.startswith("__") and name.endswith("__"))]


def test_every_top_level_name_is_read_somewhere():
    # a name no module reads, outside its own definition, is dead code; a
    # mention in a comment or docstring does not count
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    dead = [f"{path}:{name}" for path, tree in trees.items() for name, node in _top_level_definitions(tree)
            if refs[name] == _references(node)[name]]
    assert dead == []
