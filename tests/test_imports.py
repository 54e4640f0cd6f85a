"""The package's import surface: lazy exports, the README example, no unused imports or names."""

from __future__ import annotations

import ast
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


def test_every_export_resolves_and_is_listed():
    out = json.loads(_fresh(
        "import json, subcart\n"
        "listed = dir(subcart)\n"
        "for name in subcart.__all__:\n"
        "    getattr(subcart, name)\n"
        "print(json.dumps([subcart.__all__, [n for n in subcart.__all__ if n not in listed]]))"
    ))
    assert out[0] == sorted(set(out[0])) and len(out[0]) == 77
    assert out[1] == []


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
