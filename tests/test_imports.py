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
import textwrap
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


def test_poly_imports_only_the_standard_library_and_is_not_loaded_by_the_cli():
    # the exact normal form is loaded on the first Jacobi check, and needs
    # nothing beyond expr and the standard library
    loaded = json.loads(_fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import subcart.poly\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before if m.split('.')[0] == 'subcart'"
        " or m.split('.')[0] not in sys.stdlib_module_names)))"
    ))
    assert loaded == ["subcart", "subcart.expr", "subcart.poly"]
    scenarios = sorted(str(p) for p in (SRC / "scenarios").glob("*.json"))
    assert _fresh(
        "import sys\n"
        "from subcart.cli import load_scenario\n"
        f"for path in {scenarios!r}:\n"
        "    load_scenario(path)\n"
        "print('subcart.poly' in sys.modules)"
    ).split() == ["False"]


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
    # nor later: every command runs on Python floats, so numpy is imported
    # nowhere, function bodies and ``if TYPE_CHECKING:`` blocks included
    tree = ast.parse((SRC / path).read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"]
    assert found == [], f"{path} imports numpy, line {found}"


# the verdicts a report may carry that exit 0
PASSING_VERDICTS = ("FixedPoint", "DependentBasis", "Chart", "Inconclusive", "Reduced")


def _verdicts(tree: ast.AST) -> set[str]:
    """The string values given to a "verdict" key in ``tree``, in a dict
    display or by a subscript assignment."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            pairs = zip(node.keys, node.values)
        elif isinstance(node, ast.Assign):
            pairs = [(t.slice, node.value) for t in node.targets if isinstance(t, ast.Subscript)]
        else:
            continue
        found |= {v.value for k, v in pairs if isinstance(k, ast.Constant) and k.value == "verdict"
                  and isinstance(v, ast.Constant) and isinstance(v.value, str)}
    return found


def test_every_verdict_is_classified_as_failing_or_passing():
    # main reads the exit code off the result, so a new verdict must say
    # which it is, and a failure that no handler gives is stale
    import subcart.cli as cli
    from subcart.flow import NOT_VECTOR_FIELD

    found = _verdicts(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
    assert found <= set(cli.FAILURES) | set(PASSING_VERDICTS), sorted(found - set(cli.FAILURES) - set(PASSING_VERDICTS))
    assert not set(cli.FAILURES) & set(PASSING_VERDICTS)
    assert NOT_VECTOR_FIELD == "NotVectorField" and "NotVectorField" in cli.FAILURES
    # a classify report's classification, the one failure no handler spells
    assert set(cli.FAILURES) - found == {NOT_VECTOR_FIELD} and set(PASSING_VERDICTS) <= found


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_no_runtime_dependency_and_a_test_extra_of_what_the_tests_import():
    import tomllib

    project = tomllib.loads((README.parent / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == []
    tests = Path(__file__).resolve().parent
    imported = set()
    for path in tests.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "pytest.importorskip":
                imported.add(node.args[0].value.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {p.stem for p in tests.glob("*.py")} | {"subcart"}
    extra = {re.match(r"[\w-]+", req).group() for req in project["optional-dependencies"]["test"]}
    assert extra == imported == {"hypothesis", "numpy", "pytest", "scipy", "sympy"}


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
    "almostcomplex.py": {"dense"},
    "cli.py": {"dense", "flow", "orbit", "poisson", "strata"},
    "poisson.py": {"dense", "flow", "orbit", "poly"},
    "strata.py": {"dense", "flow", "orbit"},
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
    # constraints that overflow Python's float **, whose generated tests run
    # the cell again in IEEE arithmetic; a retry on numpy floats imported it
    ("overflow-exit", ["flow", "--field", "v", "--point=0.5,0", "--horizon", "3"], 0),
    ("rotation_plane", ["flow", "--field", "rot", "--point=1e200,1e200", "--horizon", "1"], 0),
    ("cone", ["strata", "--check", "tangency", "--field", "euler", "--horizon", "1e3"], 2),
    # the span residual is a Gram-Schmidt on Python floats; lstsq imported numpy
    ("translate_shear", ["complete-probe", "--family", "default", "--seeds", "default", "--n", "10"], 0),
    ("rotation_plane", ["complete-probe", "--family", "pair", "--seeds", "ring", "--n", "10"], 0),
    # span ranks, the chart's singular values and the orbit coverage count
    # are Jacobi rotations, Gram-Schmidt and grid cells on Python floats; the
    # stacked SVD, the chart's SVD and the nearest-cloud norm imported numpy
    ("cone", ["orbit", "--point=1,0,1", "--budget", "80"], 0),
    ("rotation_plane", ["orbit", "--family", "pair", "--point=0.6,-0.8", "--budget", "200"], 0),
    ("translate_shear", ["orbit", "--point=0.3,-0.2", "--budget", "300"], 0),
    ("reduction_r4", ["leaf", "--point=1,1,1,0", "--budget", "120"], 0),
    ("cone", ["strata", "--check", "orbits", "--budget", "100"], 0),
    ("translate_shear", ["chart", "--point=0.7,0.2"], 0),
    ("translate_shear", ["chart", "--point=0,0.5"], 0),
    # the Jacobi sample is a kernel generated per bivector, reduce's table
    # an exact elimination over Python ints and its replay Python floats,
    # the Kahler check's determinant and eigenvalue an elimination and
    # Jacobi rotations, and the frontier's nearest cloud point a generated
    # sum of squares, all on Python floats; einsum, lstsq, det, eigvalsh
    # and numpy's norm imported numpy
    ("reduction_r4", ["poisson", "--triples", "20", "--points", "5"], 0),
    ("jacobi_control", ["poisson", "--triples", "10"], 1),
    ("canonical_r2", ["poisson", "--triples", "20"], 0),
    ("jacobi_control", ["poisson", "--triples", "3", "--points", "3", "--scale", "1e300"], 2),
    ("reduction_r4", ["reduce"], 0),
    ("acs_variable", ["acs", "--check", "torsion", "--x", "e1", "--y", "e3", "--point=1,0,0,0"], 0),
    ("acs_standard", ["acs", "--check", "torsion", "--x", "e1", "--y", "e2"], 0),
    ("acs_standard", ["acs", "--check", "cr", "--f", "x1^2 - x3^2", "--h", "2*x1*x3"], 0),
    ("acs_standard", ["acs", "--check", "kahler"], 0),
    ("kahler-nan", ["acs", "--check", "kahler"], 2),
    ("kahler-inf", ["acs", "--check", "kahler"], 2),
    ("cone", ["strata", "--check", "frontier"], 0),
    # the README's examples as it spells them
    ("rotation_plane", ["flow", "--field", "rot", "--point=1,0", "--horizon", "1.0", "--out", "{csv}"], 0),
    ("translate_shear", ["orbit", "--point=0,0", "--budget", "80", "--seed", "7", "--out", "{csv}"], 0),
    ("translate_shear", ["chart", "--point=1,0"], 0),
    ("rotation_plane", ["complete-probe", "--n", "5", "--radius", "0.5"], 0),
    ("reduction_r4", ["leaf", "--point=1,1,1,0", "--budget", "120", "--out", "{csv}"], 0),
]

# a cell whose first constraint overflows on Python floats wherever x1 is not tiny
OVERFLOW_EXIT = {
    "name": "overflow-exit",
    "space": {"ambient_dim": 2, "locally_closed": True, "cells": [[
        {"expr": "(1e200*x1)^2 + 1", "rel": "geq0"}, {"expr": "x2 - 1", "rel": "leq0"}]]},
    "fields": {"v": ["0", "1"]},
    "families": {"default": ["v"]},
}


def kahler_not_finite(entries: dict) -> dict:
    """acs_standard with the two-form entries at (row, column) replaced."""
    doc = json.loads((SRC / "scenarios" / "acs_standard.json").read_text(encoding="utf-8"))
    for (i, j), text in entries.items():
        doc["acs"]["omega"][i][j] = text
    return doc


# a two-form that is NaN wherever q1 is not 0, and one that is inf there
_NAN = "1 + (1e200*q1*1e200 - 1e200*q1*1e200)"
KAHLER_NAN = kahler_not_finite({(0, 2): _NAN, (2, 0): f"-({_NAN})"})
KAHLER_INF = kahler_not_finite({(3, 3): "1e200*q1*1e200"})


def test_every_command_runs_where_numpy_cannot_be_imported(tmp_path):
    # every shipped command, each README example among them, in an
    # interpreter where `import numpy` raises: the package needs no numpy
    scenarios = SRC / "scenarios"
    written = {"overflow-exit": OVERFLOW_EXIT, "kahler-nan": KAHLER_NAN, "kahler-inf": KAHLER_INF}
    for name, doc in written.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argvs = [[argv[0], "--scenario", str(tmp_path / f"{name}.json" if name in written
                                         else scenarios / f"{name}.json")]
             + [a.replace("{csv}", str(tmp_path / f"{k}.csv")) for a in argv[1:]]
             for k, (name, argv, _) in enumerate(_NUMPY_FREE_COMMANDS)]
    out = json.loads(_fresh(
        "import contextlib, io, json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from subcart.cli import load_scenario, main\n"
        f"for path in {sorted(str(p) for p in scenarios.glob('*.json'))!r}:\n"
        "    load_scenario(path)\n"
        "codes, errors = [], io.StringIO()\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(errors):\n"
        "        codes.append(main(argv))\n"
        "print(json.dumps([codes, 'numpy' in errors.getvalue()]))"
    ))
    # a command that exits 2 anyway would hide a failed import in its code alone
    assert out == [[code for _, _, code in _NUMPY_FREE_COMMANDS], False]
    first = next(k for k, (_, argv, _) in enumerate(_NUMPY_FREE_COMMANDS) if "{csv}" in argv)
    assert (tmp_path / f"{first}.csv").read_text(encoding="utf-8").startswith("t,x1,x2\n")


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
    # the Jacobi kernel and the frontier's nearest cloud point are in
    # dense; the Jacobi check prunes the components of the Schouten bracket
    # whose exact normal form (poly) is 0, and the reduction solves for its
    # table exactly in poly
    ("canonical_r2", ["poisson", "--triples", "2", "--points", "2"], 0, ["dense", "poisson", "poly"]),
    ("reduction_r4", ["reduce"], 0, ["poisson", "poly"]),
    ("cone", ["strata", "--check", "frontier"], 0, ["dense", "strata"]),
    # the malformed commands of the three benchmark workloads: each exits 2
    # before its handler runs, having loaded only what its scenario needs;
    # a bad --tol-overrides exits before the scenario is read
    ("halfline", ["flow", "--field", "ddx", "--point=0.5", "--horizon", "-1"], 2, []),
    ("halfline", ["classify", "--field", "ddx", "--tol-overrides", '{"rtol": NaN}'], 2, []),
    ("disk_line", ["flow", "--field", "ddx", "--point=0.1,0.5", "--tol-overrides", '{"rtoll": 1e-9}'], 2, []),
    ("acs_standard", ["acs", "--check", "torsion", "--x", "e1", "--y", "e3", "--points", "0"], 2, []),
    ("cone", ["strata", "--check", "tangency", "--field", "rot", "--horizon", "-1"], 2, []),
    ("translate_shear", ["orbit", "--point=0,0", "--budget", "80", "--tol-overrides", '{"rtol": NaN}'], 2, []),
    ("translate_shear", ["chart", "--point=1,0", "--tol-overrides", '{"rtoll": 1e-9}'], 2, []),
    ("cone", ["strata", "--check", "frontier", "--horizon", "-1"], 2, []),
    ("canonical_r2", ["poisson", "--tol-overrides", '{"rtol": NaN}'], 2, []),
    ("reduction_r4", ["reduce", "--tol-overrides", '{"rtoll": 1e-9}'], 2, []),
    # the Kahler check's determinant and eigenvalue are in dense
    ("acs_standard", ["acs", "--check", "kahler", "--points", "2"], 0, ["dense"]),
]


# the scenarios of the benchmark's symbolic_sweep workload
_SYMBOLIC_SCENARIOS = ["acs_standard", "acs_variable", "canonical_r2", "cone", "jacobi_control", "reduction_r4",
                       "translate_shear"]


def test_symbolic_scenarios_load_no_exact_or_rational_arithmetic():
    # the setup the benchmark times: a fresh interpreter imports the CLI and
    # loads the scenarios; poly, and the fractions and decimal modules that
    # a non-integral coefficient needs, load on a command's first exact step
    out = json.loads(_fresh(
        "import json, sys\n"
        "from subcart.cli import load_scenario\n"
        f"for path in {[str(SRC / 'scenarios' / f'{n}.json') for n in _SYMBOLIC_SCENARIOS]!r}:\n"
        "    load_scenario(path)\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'subcart'),"
        " [m for m in ('fractions', 'decimal') if m in sys.modules]]))"
    ))
    assert out == [sorted(_CLI_MODULES + ["subcart.poisson", "subcart.strata"]), []]


def test_only_poly_imports_fractions():
    # exact rationals are poly's alone: its callers get ints and Fractions from it
    found = [path.name for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "fractions" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").split(".")[0] == "fractions"]
    assert found == ["poly.py"]


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


# scenario, argv, exit code, and the compile() calls for generated code
# (a filename such as <expr> or <dopri5 kernel n=2>) of one run in a fresh
# interpreter, loading included.  Calls that compile a module's source file
# are left out: they happen only where no bytecode is cached.  The earlier
# counts below include them.  A field and an almost complex structure
# compile on their first evaluation, so the intermediate fields of a torsion
# or a bracket, never evaluated, compile nothing; before that the counts were
# 60, 17, 14, 3 and 14, with the same reports.  Each generated source is
# compiled once per process (``expr._define``), so equal sources within one
# command compile once; before that kahler made 12, cr 9, frontier 11,
# orbits 20, each classify 5 and complete-probe 8.  The merge test of an
# orbit is generated per dimension (``orbit._merge_source``): one compile
# for each orbit command, the two seeds of ``strata --check orbits`` on cone
# share theirs (17 before it, with orbit 7 and leaf 12).  The tangency
# check folds each stratum's slack inside a drift kernel per field and
# stratum (``flow.drift``), which also tests no ambient membership: tangency
# lost its two ``<slack>`` folds, the ambient ``<membership>`` and the
# storing kernel for two drift kernels (8 before it), and orbits, with two
# fields, lost one compile (15 before it).  A family's values come from one
# function of all its fields' components (``FieldFamily._values``) instead
# of one per field: orbit (two fields) made 6, leaf (three) 10 and orbits 14
# before that.  An exit witness tests each constraint by the membership
# function of its own one-constraint cell, whose source is the membership
# function's on the half line: classify ddx made 4 before that, one more for
# the constraint's value.  The span ranks of an orbit come from a kernel
# generated per shape of the family (``orbit._rank_source``), one more
# compile than the stacked SVD made: orbits 13, orbit 5 and leaf 8 before it.
# The Kahler check compiles the two-form, J, the fields and the products it
# reads as one function, 7 before that, and the frontier check's nearest
# cloud point is a kernel generated per dimension (``dense._nearest``), one
# more than numpy's norm made: 5 before it.
_COMPILES = [
    ("acs_standard", ["acs", "--check", "kahler"], 0, 3),
    ("acs_standard", ["acs", "--check", "cr", "--f", "x1", "--h", "x3"], 0, 2),
    ("acs_variable", ["acs", "--check", "torsion", "--x", "e1", "--y", "e3", "--point=1,0,0,0"], 0, 2),
    ("translate_shear", ["bracket", "--x", "ddx", "--y", "xddy", "--point=1,2"], 0, 1),
    ("cone", ["strata", "--check", "frontier"], 0, 6),
    ("cone", ["strata", "--check", "tangency", "--field", "rot"], 0, 6),
    ("cone", ["strata", "--check", "orbits"], 0, 14),
    ("translate_shear", ["orbit", "--budget", "80", "--point=0,0", "--seed", "7"], 0, 6),
    ("reduction_r4", ["leaf", "--budget", "120", "--point=1,1,1,0"], 0, 9),
    ("halfline", ["classify", "--field", "ddx"], 1, 3),
    ("circle", ["classify", "--field", "rot"], 0, 3),
    ("rotation_plane", ["complete-probe", "--family", "pair"], 0, 5),
]


def _compile_counts(rows, runs: int) -> list:
    """For each row, ``runs`` runs of its command in one fresh interpreter,
    each as [exit code, compile() calls for generated code, report]."""
    argvs = [[argv[0], "--scenario", str(SRC / "scenarios" / f"{name}.json")] + argv[1:] for name, argv, *_ in rows]
    return json.loads(_fresh(
        "import builtins, contextlib, io, json\n"
        "from subcart.cli import main\n"
        "calls = []\n"
        "compile = builtins.compile\n"
        "def counted(source, filename, *a, **k):\n"
        "    if str(filename).startswith('<'):\n"
        "        calls.append(filename)\n"
        "    return compile(source, filename, *a, **k)\n"
        "builtins.compile = counted\n"
        "out = []\n"
        f"for argv in {argvs!r}:\n"
        f"    for _ in range({runs}):\n"
        "        calls.clear()\n"
        "        with contextlib.redirect_stdout(io.StringIO()) as report:\n"
        "            code = main(argv)\n"
        "        out.append([code, len(calls), report.getvalue()])\n"
        "print(json.dumps(out))"
    ))


@pytest.mark.parametrize("row", _COMPILES, ids=[f"{a[0]}-{a[2]}" for _, a, *_ in _COMPILES])
def test_each_command_compiles_only_what_it_evaluates(row):
    [(code, calls, _)] = _compile_counts([row], 1)
    assert (code, calls) == row[2:]


def test_a_command_run_again_in_the_process_compiles_nothing():
    # every function it generates, flow kernels included, is found in its table
    out = _compile_counts(_COMPILES, 2)
    for (name, argv, code, _), first, again in zip(_COMPILES, out[::2], out[1::2]):
        assert again == [code, 0, first[2]], (name, argv)


def test_compile_is_called_only_by_the_table_of_generated_functions_and_the_flow_kernels():
    # a generator that called compile() itself would skip the table of
    # expr._define and compile again every source it had compiled before
    callers = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id == "compile":
                callers.append(f"{module}.{owner}")
            visit(child, module, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "<module>")
    assert callers == ["expr._define", "flow._kernel"]


def test_every_export_resolves_and_is_listed():
    out = json.loads(_fresh(
        "import json, subcart\n"
        "listed = dir(subcart)\n"
        "for name in subcart.__all__:\n"
        "    getattr(subcart, name)\n"
        "print(json.dumps([subcart.__all__, [n for n in subcart.__all__ if n not in listed]]))"
    ))
    assert out[0] == sorted(set(out[0])) and len(out[0]) == 75
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


# Every knob and what sets it: a function of the package, by its name in its
# module, the template of the generated flow driver, or an acceptance
# criterion of tests/test_acceptance.py.  A new optional parameter or
# defaulted field of the public API edits this map in the same change, and
# its caller must pass it, so a knob that only tests set cannot return.
# None marks the knobs kept with no caller yet: the step budget, the orbit
# dimension report's sampling, which the orbit commands are to report, and
# the flow options of ``reach``, which replays an orbit sample's words.
KNOBS = {
    "ExitWitness.cell_index": "flow._exit",
    "ExitWitness.constraint": "flow._exit",
    "ExitWitness.constraint_index": "flow._exit",
    "ExitWitness.guard": "flow._DRIVER",
    "FlowOptions.atol": "cli._flow_options",
    "FlowOptions.max_steps": None,
    "FlowOptions.rtol": "cli._flow_options",
    "IntegralCurve.exit_minus": "flow.integrate",
    "IntegralCurve.exit_plus": "flow.integrate",
    "IntegrationError.__init__(t)": "flow._DRIVER",
    "OrbitSample.diagnostics": "orbit.sample_orbit",
    "OrbitSample.dimensions": "orbit.sample_orbit",
    "PoissonStructure.__init__(label)": "poisson.reduce",
    "ProbeOptions.rng_seed": "cli.cmd_classify",
    "ProbeOptions.seeds": "cli.cmd_classify",
    "ReductionSetup.certify_tol": "cli.cmd_reduce",
    "ReductionSetup.degree": "cli.cmd_reduce",
    "ReductionSetup.rng_seed": "cli.cmd_reduce",
    "StratifiedSpace.__init__(locally_trivial)": "cli.load_scenario",
    "SubcartesianSpace.__init__(tol)": "cli.load_scenario",
    "SubcartesianSpace.contains(tol)": "flow._exit",
    "SubcartesianSpace.require_member(what)": "flow.classify_vector_field",
    "VectorFieldVerdict.diagnostics": "flow.classify_vector_field",
    "VectorFieldVerdict.notes": "flow.classify_vector_field",
    "chart_jacobian(options)": "cli.cmd_chart",
    "chart_jacobian(tol_rank)": "cli.cmd_chart",
    "classify_vector_field(options)": "cli.cmd_classify",
    "dimension_constancy_report(n_probes)": None,
    "dimension_constancy_report(options)": None,
    "dimension_constancy_report(rng_seed)": None,
    "dimension_constancy_report(step_scale)": None,
    "dimension_constancy_report(tol_rank)": None,
    "frontier_check(frontier_tol)": "cli.cmd_strata",
    "frontier_check(rng_seed)": "cli.cmd_strata",
    "integrate(horizon)": "cli.cmd_flow",
    "integrate(options)": "cli.cmd_flow",
    "integrate(store)": "cli.cmd_flow",
    "jacobi_sample_residual(n_points)": "cli.cmd_poisson",
    "jacobi_sample_residual(n_triples)": "cli.cmd_poisson",
    "jacobi_sample_residual(rng_seed)": "cli.cmd_poisson",
    "jacobi_sample_residual(scale)": "cli.cmd_poisson",
    "kahler_check(tol)": "cli.cmd_acs",
    "leaf_sample(casimirs)": "cli.cmd_leaf",
    "leaf_sample(options)": "cli.cmd_leaf",
    "leaf_sample(rng_seed)": "cli.cmd_leaf",
    "leaf_sample(step_scale)": "cli.cmd_leaf",
    "leaf_sample(tol_rank)": "cli.cmd_leaf",
    "local_completeness_probe(centers)": "cli.cmd_complete_probe",
    "local_completeness_probe(n_random)": "cli.cmd_complete_probe",
    "local_completeness_probe(options)": "cli.cmd_complete_probe",
    "local_completeness_probe(probes)": "test_acceptance.test_criterion_06_completeness_probe",
    "local_completeness_probe(radius)": "cli.cmd_complete_probe",
    "local_completeness_probe(rng_seed)": "cli.cmd_complete_probe",
    "local_completeness_probe(t_scale)": "cli.cmd_complete_probe",
    "local_completeness_probe(tol)": "cli.cmd_complete_probe",
    "orbit_vs_strata(budget)": "cli.cmd_strata",
    "orbit_vs_strata(drift_tol)": "cli.cmd_strata",
    "orbit_vs_strata(horizon)": "cli.cmd_strata",
    "orbit_vs_strata(options)": "cli.cmd_strata",
    "orbit_vs_strata(rng_seed)": "cli.cmd_strata",
    "orbit_vs_strata(tol_rank)": "cli.cmd_strata",
    "parse(aliases)": "cli._Coords.expr",
    "reach(options)": None,
    "sample_orbit(options)": "cli.cmd_orbit",
    "sample_orbit(rng_seed)": "cli.cmd_orbit",
    "sample_orbit(step_scale)": "cli.cmd_orbit",
    "sample_orbit(tol_rank)": "cli.cmd_orbit",
    "strongly_stratified_check(drift_tol)": "cli.cmd_strata",
    "strongly_stratified_check(horizon)": "cli.cmd_strata",
    "strongly_stratified_check(options)": "cli.cmd_strata",
    "strongly_stratified_check(rng_seed)": "cli.cmd_strata",
    "transport_vector(options)": "orbit.local_completeness_probe",
}


def test_public_knobs_are_pinned():
    assert len(KNOBS) == 72
    assert sorted(KNOBS) == _knobs()


def _parameter(knob: str) -> tuple[str, str, int]:
    """The name a call of the knob's owner is spelled with, the parameter,
    and its position among the arguments a call passes."""
    head, _, param = knob.rstrip(")").partition("(")
    name, _, member = head.partition(".")
    obj = getattr(subcart, name)
    if not param:  # a dataclass field
        return name, member, [f.name for f in dataclasses.fields(obj)].index(member)
    fn = getattr(obj, member) if member else obj
    names = [p for p in inspect.signature(fn).parameters if p not in ("self", "cls")]
    return (member if member not in ("", "__init__") else name), param, names.index(param)


def _caller_source(caller: str) -> str:
    module, *path = caller.split(".")
    if module == "test_acceptance":
        import test_acceptance as obj
    else:
        obj = getattr(subcart, module)
    for part in path:
        obj = getattr(obj, part)
    return obj if isinstance(obj, str) else textwrap.dedent(inspect.getsource(obj))


def _sets(source: str, call: str, param: str, position: int) -> bool:
    """Whether ``source`` calls ``call`` with ``param``, by keyword or at its
    position, directly or through a helper such as ``cli._built`` that is
    passed ``call`` and then its arguments.  A template of generated code is
    not Python, so there the call must pass the keyword on its line."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return re.search(rf"\b{call}\([^\n]*\b{param}=", source) is not None
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        args = node.args
        if getattr(node.func, "id", getattr(node.func, "attr", None)) != call:
            at = [i for i, a in enumerate(args) if isinstance(a, ast.Name) and a.id == call]
            if not at:
                continue
            args = args[at[0] + 1:]
        if any(k.arg == param for k in node.keywords) or len(args) > position:
            return True
    return False


@pytest.mark.parametrize("knob", sorted(k for k, caller in KNOBS.items() if caller))
def test_every_knob_is_set_by_its_caller(knob):
    assert _sets(_caller_source(KNOBS[knob]), *_parameter(knob)), f"{KNOBS[knob]} does not set {knob}"


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


def test_results_have_one_serialiser():
    # a result becomes a report by dataclasses.asdict; only a curve keeps its
    # own, which leaves out its packed sample buffers
    found = []
    for path in sorted(SRC.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        owner = {id(f): cls.name for cls in nodes if isinstance(cls, ast.ClassDef) for f in cls.body}
        found += [f"{path.name}:{owner.get(id(node), '<function>')}" for node in nodes
                  if isinstance(node, ast.FunctionDef) and node.name == "to_json_dict"]
    assert found == ["flow.py:IntegralCurve"]


def test_sums_of_products_have_one_accumulator():
    # a sum of products t = add(t, mul(a, b)) is built by expr.dot alone, so
    # every such sum adds its terms in the same order
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.stem}.{fn.name}" for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)
                  if isinstance(node, ast.Assign) and re.match(r"(\w+) = add\(\1, mul\(", ast.unparse(node))]
    assert found == ["expr.dot"]


def test_one_derivative_of_a_flow_and_one_spelling_of_its_space():
    # the variational kernel (flow.transport_vector) is the derivative of a
    # flow; the chart's central differences of the word map stay as its
    # independent check, and no other finite-difference step or quotient
    # f(x + s) - f(x - s) over 2 s is kept
    steps, quotients, optional = [], [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        steps += [f"{path.stem}.{name}" for name, _ in _top_level_definitions(tree) if "FD_STEP" in name]
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            quotients += [f"{path.stem}.{fn.name}" for node in ast.walk(fn) if isinstance(node, ast.BinOp)
                          and isinstance(node.op, ast.Div) and re.fullmatch(r"2(\.0)? \* \w+", ast.unparse(node.right))]
            # the flow API spells the ambient space whole_space(n), never None
            if path.name == "flow.py":
                optional += [f"{fn.name}({a.arg})" for a in fn.args.args + fn.args.kwonlyargs if a.annotation
                             and re.search(r"Optional\[SubcartesianSpace\]|SubcartesianSpace \| None",
                                           ast.unparse(a.annotation))]
    assert steps == ["orbit.CHART_FD_STEP"]
    assert quotients == ["orbit.chart_jacobian"]
    assert optional == []


def test_one_float_sum_and_python_values_across_the_seams():
    # every norm and residual sums its floats with expr._pairwise_sum, so it
    # is the same on every machine; strata's distances to a sampled cloud,
    # the last norm left to numpy, are pairwise sums too
    sums, norms = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sums += [f"{path.stem}.{node.name}" for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                 and node.name in ("_pairwise_sum", "_sum_sq", "_norm")]
        norms += [path.stem for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and ast.unparse(node) == "np.linalg.norm"]
    assert sorted(sums) == ["expr._norm", "expr._pairwise_sum"]
    assert norms == []
    # the orbit commands take ranks and singular values on Python floats too
    orbit = ast.parse((SRC / "orbit.py").read_text(encoding="utf-8"))
    assert [node.lineno for node in ast.walk(orbit) if isinstance(node, ast.Attribute)
            and ast.unparse(node) in ("np.linalg.svd", "np.linalg")] == []
    assert not hasattr(subcart.FieldFamily, "value_matrix")
    # a report is written from Python values alone, with no numpy adapter
    assert "tolist" not in (SRC / "report.py").read_text(encoding="utf-8")
    # transport carries a vector, not a field it evaluates itself
    assert list(inspect.signature(subcart.transport_vector).parameters) == [
        "space", "x_field", "t", "x0", "v0", "options"]


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
