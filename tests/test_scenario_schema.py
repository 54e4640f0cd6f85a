"""Scenario loader: the exact error of every schema fault, pinned per row."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

from subcart.cli import DEFAULT_TOLERANCES, SchemaError, load_scenario, main

from conftest import cone_without_polynomials, scenario_path

DEL = object()  # an edit that deletes the key or item
BIG = 10**400  # a JSON integer beyond the float range


def shipped(name: str) -> dict:
    return json.loads(Path(scenario_path(name)).read_text(encoding="utf-8"))


def edited(name: str, edits: dict) -> dict:
    """The shipped scenario ``name`` with each ``{keys: value}`` edit applied
    in order; ``keys`` walks objects and arrays from the root, ``()`` is the
    whole document."""
    doc = shipped(name)
    for keys, value in edits.items():
        if keys:
            mutate(doc, keys, "delete" if value is DEL else "replace", value)
        else:
            doc = value
    return doc


def mutate(doc: dict, keys: tuple, op: str, value=None) -> None:
    """Delete the value at ``keys``, empty it, duplicate it if it is an array
    item, or replace it by ``value``."""
    *parents, last = keys
    node = doc
    for k in parents:
        node = node[k]
    if op == "delete":
        del node[last]
    elif op == "empty":
        node[last] = type(node[last])() if isinstance(node[last], (dict, list)) else ""
    elif op == "duplicate":
        if isinstance(node, list):
            node.insert(last, json.loads(json.dumps(node[last])))
    else:
        node[last] = value


def scenario_text(doc) -> str:
    """JSON text of ``doc``; a string ``"@raw:T"`` anywhere becomes the bare
    text T, for literals such as 1e-400 that a float cannot carry."""
    return re.sub(r'"@raw:([^"]*)"', r"\1", json.dumps(doc))


def write_scenario(tmp_path, doc, name: str = "s.json") -> str:
    path = tmp_path / name
    path.write_bytes(doc if isinstance(doc, bytes) else scenario_text(doc).encode("utf-8"))
    return str(path)


FOUR = ["0", "0", "0", "0"]

# (scenario, edits or raw bytes, path, detail); the ids name the fault
CORPUS = {
    # the document
    "not-json": (None, b"{not json", "$",
                 "not valid JSON (Expecting property name enclosed in double quotes: "
                 "line 1 column 2 (char 1))"),
    "not-utf8": (None, b'{"name": "\xff"}', "$",
                 "not valid JSON ('utf-8' codec can't decode byte 0xff in position 10: "
                 "invalid start byte)"),
    "json-too-deep": (None, b"[" * 100_000 + b"]" * 100_000, "$",
                      "not valid JSON (maximum recursion depth exceeded while decoding "
                      "a JSON array from a unicode string)"),
    "doc-array": ("halfline", {(): []}, "$", "expected an object, got list"),
    "no-name": ("halfline", {("name",): DEL}, "$", "missing required key 'name'"),
    "name-int": ("halfline", {("name",): 3}, "$.name", "expected a string, got int"),
    "aliases-str": ("halfline", {("aliases",): "x"}, "$.aliases", "expected an array, got str"),
    "alias-int": ("cone", {("aliases", 1): 1}, "$.aliases[1]", "expected a string, got int"),
    "aliases-too-many": ("halfline", {("aliases",): ["x", "y"]}, "$.aliases",
                         "2 aliases for 1 coordinates"),
    # space
    "no-space": ("halfline", {("space",): DEL}, "$", "missing required key 'space'"),
    "space-array": ("halfline", {("space",): []}, "$.space", "expected an object, got list"),
    "no-ambient-dim": ("halfline", {("space", "ambient_dim"): DEL}, "$.space",
                       "missing required key 'ambient_dim'"),
    "ambient-dim-float": ("halfline", {("space", "ambient_dim"): 1.0}, "$.space.ambient_dim",
                          "expected an integer, got float"),
    "ambient-dim-bool": ("halfline", {("space", "ambient_dim"): True}, "$.space.ambient_dim",
                         "expected an integer, got bool"),
    "ambient-dim-0": ("halfline", {("space", "ambient_dim"): 0}, "$.space.ambient_dim",
                      "must be positive, got 0"),
    "no-cells": ("halfline", {("space", "cells"): DEL}, "$.space", "missing required key 'cells'"),
    "cells-object": ("halfline", {("space", "cells"): {}}, "$.space.cells",
                     "expected an array, got dict"),
    "cells-empty": ("halfline", {("space", "cells"): []}, "$.space.cells",
                    "needs at least one cell"),
    "cell-object": ("disk_line", {("space", "cells", 1): {}}, "$.space.cells[1]",
                    "expected an array, got dict"),
    "constraint-str": ("halfline", {("space", "cells", 0, 0): "x1"}, "$.space.cells[0][0]",
                       "expected an object, got str"),
    "constraint-no-expr": ("cone", {("space", "cells", 0, 1, "expr"): DEL},
                           "$.space.cells[0][1]", "constraint needs an 'expr' key"),
    "constraint-no-rel": ("halfline", {("space", "cells", 0, 0, "rel"): DEL},
                          "$.space.cells[0][0]", "constraint needs a 'rel' key"),
    "rel-unknown": ("halfline", {("space", "cells", 0, 0, "rel"): "bogus"},
                    "$.space.cells[0][0].rel",
                    "unknown relation 'bogus', expected one of "
                    "['eq0', 'geq0', 'gt0', 'leq0', 'lt0']"),
    "rel-int": ("halfline", {("space", "cells", 0, 0, "rel"): 1}, "$.space.cells[0][0].rel",
                "expected a string, got int"),
    "expr-int": ("halfline", {("space", "cells", 0, 0, "expr"): 1}, "$.space.cells[0][0].expr",
                 "expected a string, got int"),
    "expr-syntax": ("halfline", {("space", "cells", 0, 0, "expr"): "x +"},
                    "$.space.cells[0][0].expr", "unexpected token '' at position 3"),
    "expr-coordinate": ("halfline", {("space", "cells", 0, 0, "expr"): "x2"},
                        "$.space.cells[0][0].expr", "coordinate x2 out of range for 1 variables"),
    "expr-power-overflow": ("halfline", {("space", "cells", 0, 0, "expr"): "x^2 - 10^400"},
                            "$.space.cells[0][0].expr", "a constant overflows the float range"),
    "expr-exponent-too-long": ("halfline", {("fields", "ddx", 0): "x^" + "9" * 5000}, "$.fields.ddx[0]",
                               "exponent of 5000 digits at position 2 is too large"),
    "expr-quotient-by-zero": ("halfline", {("space", "cells", 0, 0, "expr"): "x/(2-2)"},
                              "$.space.cells[0][0].expr", "division by constant zero"),
    "expr-parentheses-too-deep": ("halfline", {("space", "cells", 0, 0, "expr"):
                                               "(" * 300 + "x" + ")" * 300},
                                  "$.space.cells[0][0].expr",
                                  "expression nests deeper than 200 levels"),
    "expr-minus-signs-too-deep": ("halfline", {("space", "cells", 0, 0, "expr"): "-" * 5000 + "x"},
                                  "$.space.cells[0][0].expr",
                                  "expression nests deeper than 200 levels"),
    "locally-closed-contradicts": ("halfline", {("space", "locally_closed"): False}, "$.space.locally_closed",
                                   "declared false, but one cell is locally closed"),
    "locally-closed-union-true": ("disk_line", {("space", "locally_closed"): True}, "$.space.locally_closed",
                                  "declared true, but a union of cells is not shown to be locally closed"),
    "locally-closed-int": ("halfline", {("space", "locally_closed"): 1},
                           "$.space.locally_closed", "expected a boolean, got int"),
    "space-tol-str": ("circle", {("space", "tol"): "1e-9"}, "$.space.tol",
                      "expected a number, got str"),
    "space-tol-big": ("circle", {("space", "tol"): BIG}, "$.space.tol",
                      "number out of the float range"),
    "space-tol-negative": ("circle", {("space", "tol"): -1}, "$.space",
                           "membership tolerance must be finite and positive, got -1.0"),
    "space-tol-underflow": ("circle", {("space", "tol"): "@raw:1e-400"}, "$.space",
                            "membership tolerance must be finite and positive, got 0.0"),
    "space-tol-inf": ("halfline", {("space", "tol"): float("inf")}, "$.space",
                      "membership tolerance must be finite and positive, got inf"),
    "space-tol-nan": ("halfline", {("space", "tol"): float("nan")}, "$.space",
                      "membership tolerance must be finite and positive, got nan"),
    # fields and families
    "fields-array": ("halfline", {("fields",): []}, "$.fields", "expected an object, got list"),
    "field-str": ("halfline", {("fields", "ddx"): "1"}, "$.fields.ddx",
                  "expected an array, got str"),
    "field-length": ("halfline", {("fields", "ddx"): ["1", "0"]}, "$.fields.ddx",
                     "field has 2 components, space has 1"),
    "field-component-int": ("disk_line", {("fields", "ddy", 1): 1}, "$.fields.ddy[1]",
                            "expected a string, got int"),
    "field-component-syntax": ("disk_line", {("fields", "ddy", 1): "sin(z)"}, "$.fields.ddy[1]",
                               "unknown identifier 'z' at position 4"),
    "field-too-deep": ("rotation_plane", {("fields", "rad", 1): " + ".join(["y"] * 201)},
                       "$.fields.rad[1]", "expression nests deeper than 200 levels"),
    "families-array": ("halfline", {("families",): []}, "$.families",
                       "expected an object, got list"),
    "family-str": ("halfline", {("families", "default"): "xddx"}, "$.families.default",
                   "expected an array, got str"),
    "family-empty": ("rotation_plane", {("families", "pair"): []}, "$.families.pair",
                     "family must not be empty"),
    "family-member-int": ("halfline", {("families", "default", 0): 1}, "$.families.default[0]",
                          "expected a string, got int"),
    "family-member-unknown": ("rotation_plane", {("families", "pair", 1): "nope"},
                              "$.families.pair[1]", "unknown field 'nope'"),
    # seeds
    "seeds-array": ("halfline", {("seeds",): []}, "$.seeds", "expected an object, got list"),
    "seed-set-object": ("halfline", {("seeds", "interior"): {}}, "$.seeds.interior",
                        "expected an array, got dict"),
    "seed-set-empty": ("halfline", {("seeds", "interior"): []}, "$.seeds.interior",
                       "seed set must not be empty"),
    "seed-point-number": ("halfline", {("seeds", "default", 1): 0.5}, "$.seeds.default[1]",
                          "expected an array, got float"),
    "seed-point-length": ("halfline", {("seeds", "default", 0): [0.5, 1.0]},
                          "$.seeds.default[0]", "point has 2 coordinates, space has 1"),
    "seed-coordinate-str": ("cone", {("seeds", "apex", 0, 2): "0"}, "$.seeds.apex[0][2]",
                            "expected a number, got str"),
    "seed-coordinate-nan": ("cone", {("seeds", "apex", 0, 2): float("nan")},
                            "$.seeds.apex[0][2]", "coordinate nan is not finite"),
    "seed-coordinate-inf": ("halfline", {("seeds", "default", 0, 0): float("-inf")},
                            "$.seeds.default[0][0]", "coordinate -inf is not finite"),
    "seed-coordinate-big": ("halfline", {("seeds", "default", 0, 0): BIG},
                            "$.seeds.default[0][0]", "number out of the float range"),
    # strata
    "strata-object": ("cone", {("strata",): {}}, "$.strata", "expected an array, got dict"),
    "strata-empty": ("cone", {("strata",): []}, "$.strata",
                     "a stratified space needs at least one stratum"),
    "stratum-array": ("cone", {("strata", 0): []}, "$.strata[0]", "expected an object, got list"),
    "stratum-no-name": ("cone", {("strata", 0, "name"): DEL}, "$.strata[0]",
                        "missing required key 'name'"),
    "stratum-no-cells": ("cone", {("strata", 1, "cells"): DEL}, "$.strata[1]",
                         "missing required key 'cells'"),
    "stratum-no-dim": ("cone", {("strata", 1, "dim"): DEL}, "$.strata[1]",
                       "missing required key 'dim'"),
    "stratum-name-int": ("cone", {("strata", 0, "name"): 1}, "$.strata[0].name",
                         "expected a string, got int"),
    "stratum-cells-empty": ("cone", {("strata", 0, "cells"): []}, "$.strata[0].cells",
                            "needs at least one cell"),
    "stratum-rel-unknown": ("cone", {("strata", 1, "cells", 0, 1, "rel"): "gt"},
                            "$.strata[1].cells[0][1].rel",
                            "unknown relation 'gt', expected one of "
                            "['eq0', 'geq0', 'gt0', 'leq0', 'lt0']"),
    "stratum-dim-above": ("cone", {("strata", 1, "dim"): 4}, "$.strata[1].dim",
                          "dimension 4 outside 0..3"),
    "stratum-dim-negative": ("cone", {("strata", 0, "dim"): -1}, "$.strata[0].dim",
                             "dimension -1 outside 0..3"),
    "stratum-dim-str": ("cone", {("strata", 0, "dim"): "0"}, "$.strata[0].dim",
                        "expected an integer, got str"),
    "frame-str": ("cone", {("strata", 1, "frame"): "euler"}, "$.strata[1].frame",
                  "expected an array, got str"),
    "frame-member-int": ("cone", {("strata", 1, "frame", 0): 3}, "$.strata[1].frame[0]",
                         "expected a string, got int"),
    "frame-member-unknown": ("cone", {("strata", 1, "frame", 1): "nope"},
                             "$.strata[1].frame[1]", "unknown field 'nope'"),
    "strata-duplicate-names": ("cone", {("strata", 1, "name"): "apex"}, "$.strata",
                               "duplicate stratum names in ['apex', 'apex']"),
    "locally-trivial-str": ("cone", {("locally_trivial",): "yes"}, "$.locally_trivial",
                            "expected a boolean, got str"),
    # box
    "box-object": ("halfline", {("box",): {}}, "$.box", "expected an array, got dict"),
    "box-lo-alone": ("halfline", {("box",): [[0.0]]}, "$.box", "expected [lo, hi]"),
    "box-lo-above-hi": ("circle", {("box", 0, 1): 2.0}, "$.box", "lo[1] must be below hi[1]"),
    "box-lo-equals-hi": ("halfline", {("box",): [[1.0], [1.0]]}, "$.box",
                         "lo[0] must be below hi[0]"),
    "box-hi-length": ("halfline", {("box", 1): [2.0, 3.0]}, "$.box[1]",
                      "point has 2 coordinates, space has 1"),
    "box-hi-big": ("halfline", {("box", 1, 0): BIG}, "$.box[1][0]",
                   "number out of the float range"),
    "box-lo-inf": ("halfline", {("box", 0, 0): float("-inf")}, "$.box[0][0]",
                   "coordinate -inf is not finite"),
    # poisson
    "poisson-array": ("canonical_r2", {("poisson",): []}, "$.poisson",
                      "expected an object, got list"),
    "poisson-no-bivector": ("canonical_r2", {("poisson", "bivector"): DEL}, "$.poisson",
                            "missing required key 'bivector'"),
    "bivector-str": ("canonical_r2", {("poisson", "bivector"): "x"}, "$.poisson.bivector",
                     "expected an array, got str"),
    "bivector-rows": ("canonical_r2", {("poisson", "bivector", 1): DEL}, "$.poisson.bivector",
                      "expected 2 rows, got 1"),
    "bivector-row-str": ("canonical_r2", {("poisson", "bivector", 1): "0"},
                         "$.poisson.bivector[1]", "expected an array, got str"),
    "bivector-entries": ("canonical_r2", {("poisson", "bivector", 0): ["0"]},
                         "$.poisson.bivector[0]", "expected 2 entries, got 1"),
    "bivector-entry-int": ("canonical_r2", {("poisson", "bivector", 0, 1): 1},
                           "$.poisson.bivector[0][1]", "expected a string, got int"),
    "bivector-entry-syntax": ("canonical_r2", {("poisson", "bivector", 0, 1): "1 1"},
                              "$.poisson.bivector[0][1]", "expected end at position 2, got '1'"),
    "poisson-label-int": ("canonical_r2", {("poisson", "label"): 1}, "$.poisson.label",
                          "expected a string, got int"),
    # reduction
    "reduction-array": ("reduction_r4", {("reduction",): []}, "$.reduction",
                        "expected an object, got list"),
    "reduction-no-ambient-dim": ("reduction_r4", {("reduction", "ambient_dim"): DEL},
                                 "$.reduction", "missing required key 'ambient_dim'"),
    "reduction-no-invariants": ("reduction_r4", {("reduction", "invariants"): DEL},
                                "$.reduction", "missing required key 'invariants'"),
    "reduction-ambient-dim-str": ("reduction_r4", {("reduction", "ambient_dim"): "4"},
                                  "$.reduction.ambient_dim", "expected an integer, got str"),
    "reduction-ambient-dim-0": ("reduction_r4", {("reduction", "ambient_dim"): 0},
                                "$.reduction.ambient_dim", "must be positive, got 0"),
    "reduction-aliases-str": ("reduction_r4", {("reduction", "aliases"): "q"},
                              "$.reduction.aliases", "expected an array, got str"),
    "reduction-alias-int": ("reduction_r4", {("reduction", "aliases", 2): 2},
                            "$.reduction.aliases[2]", "expected a string, got int"),
    "reduction-aliases-too-many": ("reduction_r4", {("reduction", "aliases"): ["q1", "q2", "p1", "p2", "r"]},
                                   "$.reduction.aliases", "5 aliases for 4 coordinates"),
    "invariants-object": ("reduction_r4", {("reduction", "invariants"): {}},
                          "$.reduction.invariants", "expected an array, got dict"),
    "invariants-empty": ("reduction_r4", {("reduction", "invariants"): []},
                         "$.reduction.invariants", "needs at least one invariant"),
    "invariant-int": ("reduction_r4", {("reduction", "invariants", 3): 3},
                      "$.reduction.invariants[3]", "expected a string, got int"),
    "invariant-foreign-alias": ("reduction_r4", {("reduction", "invariants", 0): "s1"},
                                "$.reduction.invariants[0]",
                                "unknown identifier 's1' at position 0"),
    "degree-0": ("reduction_r4", {("reduction", "degree"): 0}, "$.reduction.degree",
                 "must be positive, got 0"),
    "degree-float": ("reduction_r4", {("reduction", "degree"): 2.0}, "$.reduction.degree",
                     "expected an integer, got float"),
    "reduction-odd-no-bivector": ("reduction_r4", {("reduction", "ambient_dim"): 3,
                                                   ("reduction", "aliases"): ["q1", "q2", "p1"],
                                                   ("reduction", "invariants"): ["q1^2+q2^2"]},
                                  "$.reduction.ambient_dim",
                                  "odd dimension 3 needs an explicit 'bivector'"),
    "reduction-bivector-rows": ("reduction_r4", {("reduction", "bivector"): [FOUR]},
                                "$.reduction.bivector", "expected 4 rows, got 1"),
    "reduction-bivector-entry": ("reduction_r4", {("reduction", "bivector"): [FOUR] * 3
                                                  + [["0", "0", "0", "s1"]]},
                                 "$.reduction.bivector[3][3]",
                                 "unknown identifier 's1' at position 0"),
    # generators and casimirs
    "generators-no-poisson": ("reduction_r4", {("poisson",): DEL}, "$.generators",
                              "generators need a 'poisson' block"),
    "casimirs-no-poisson": ("reduction_r4", {("poisson",): DEL, ("generators",): DEL},
                            "$.casimirs", "casimirs need a 'poisson' block"),
    "generators-str": ("reduction_r4", {("generators",): "s1"}, "$.generators",
                       "expected an array, got str"),
    "generator-int": ("reduction_r4", {("generators", 2): 3}, "$.generators[2]",
                      "expected a string, got int"),
    "casimirs-object": ("reduction_r4", {("casimirs",): {}}, "$.casimirs",
                        "expected an array, got dict"),
    "casimir-foreign-alias": ("reduction_r4", {("casimirs", 1): "q1"}, "$.casimirs[1]",
                              "unknown identifier 'q1' at position 0"),
    # almost complex structure
    "acs-array": ("acs_standard", {("acs",): []}, "$.acs", "expected an object, got list"),
    "acs-no-matrix": ("acs_standard", {("acs", "matrix"): DEL}, "$.acs",
                      "missing required key 'matrix'"),
    "acs-matrix-rows": ("acs_standard", {("acs", "matrix"): [FOUR]}, "$.acs.matrix",
                        "expected 4 rows, got 1"),
    "acs-matrix-entry": ("acs_variable", {("acs", "matrix", 1, 2): "x9"}, "$.acs.matrix[1][2]",
                         "coordinate x9 out of range for 4 variables"),
    "omega-empty": ("acs_standard", {("acs", "omega"): []}, "$.acs.omega",
                    "expected 4 rows, got 0"),
    "omega-entries": ("acs_standard", {("acs", "omega", 3): ["0"]}, "$.acs.omega[3]",
                      "expected 4 entries, got 1"),
    # tolerances
    "tolerances-array": ("cone", {("tolerances",): []}, "$.tolerances",
                         "expected an object, got list"),
    "tolerance-0": ("cone", {("tolerances", "drift"): 0}, "$.tolerances.drift",
                    "must be finite and positive, got 0"),
    "tolerance-negative": ("cone", {("tolerances", "rank"): -1e-8}, "$.tolerances.rank",
                           "must be finite and positive, got -1e-08"),
    "tolerance-inf": ("cone", {("tolerances", "drift"): float("inf")}, "$.tolerances.drift",
                      "must be finite and positive, got inf"),
    "tolerance-nan": ("cone", {("tolerances", "drift"): float("nan")}, "$.tolerances.drift",
                      "must be finite and positive, got nan"),
    "tolerance-big": ("cone", {("tolerances", "drift"): BIG}, "$.tolerances.drift",
                      "number out of the float range"),
    "tolerance-underflow": ("cone", {("tolerances", "drift"): "@raw:1e-400"},
                            "$.tolerances.drift", "must be finite and positive, got 0.0"),
    "tolerance-str": ("cone", {("tolerances", "drift"): "1e-6"}, "$.tolerances.drift",
                      "expected a number, got str"),
    "tolerance-bool": ("cone", {("tolerances", "drift"): True}, "$.tolerances.drift",
                       "expected a number, got bool"),
    "tolerance-unknown": ("cone", {("tolerances", "drfit"): 1e-3}, "$.tolerances.drfit",
                          f"unknown tolerance; known: {sorted(DEFAULT_TOLERANCES)}"),
}


@pytest.mark.parametrize("scenario, doc, path, detail", CORPUS.values(), ids=CORPUS.keys())
def test_schema_error_corpus(tmp_path, scenario, doc, path, detail):
    text = doc if scenario is None else edited(scenario, doc)
    with pytest.raises(SchemaError) as exc:
        load_scenario(write_scenario(tmp_path, text))
    assert (exc.value.path, exc.value.detail) == (path, detail)
    assert str(exc.value) == f"scenario error at {path}: {detail}"


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("scenario, argv", [
    ("disk_line", ["complete-probe"]),
    ("cone", ["strata", "--check", "orbits"]),
    ("circle", ["classify", "--field", "rot"]),
])
def test_empty_seed_set_exits_2_naming_it(tmp_path, scenario, argv):
    # an empty default seed set used to pass with 0 probes or 0 seeds
    path = write_scenario(tmp_path, edited(scenario, {("seeds", "default"): []}))
    code, out, err = run(*argv, "--scenario", path)
    assert (code, out) == (2, "")
    assert err == "error: scenario error at $.seeds.default: seed set must not be empty\n"


@pytest.mark.parametrize("name", sorted(Path(p).stem for p in Path(scenario_path("halfline")).parent.glob("*.json")))
def test_shipped_scenario_declares_the_locally_closed_its_cells_derive(tmp_path, name):
    declared = shipped(name)["space"]["locally_closed"]
    assert load_scenario(scenario_path(name)).space.locally_closed is declared
    # the key is optional: without it the derived value stands
    space = load_scenario(write_scenario(tmp_path, edited(name, {("space", "locally_closed"): DEL}))).space
    assert space.locally_closed is declared


def test_halfline_declared_not_locally_closed_exits_2(tmp_path):
    # the declaration used to switch the attained-endpoint certificate off,
    # and classify then answered VectorField with exit 0
    path = write_scenario(tmp_path, edited("halfline", {("space", "locally_closed"): False}))
    code, out, err = run("classify", "--scenario", path, "--field", "ddx")
    assert (code, out) == (2, "")
    assert err == ("error: scenario error at $.space.locally_closed: "
                   "declared false, but one cell is locally closed\n")


def test_infinite_space_tolerance_exits_2(tmp_path):
    # with tol inf every point was a member, and the flow ran clipped on both sides
    path = write_scenario(tmp_path, edited("halfline", {("space", "tol"): float("inf")}))
    code, out, err = run("flow", "--scenario", path, "--field", "ddx", "--point=0.5")
    assert (code, out) == (2, "")
    assert err == ("error: scenario error at $.space: "
                   "membership tolerance must be finite and positive, got inf\n")


def test_deep_json_is_not_valid_json(tmp_path):
    deep = "[" * 100_000 + "]" * 100_000
    seeds = tmp_path / "seeds.json"
    seeds.write_text(deep)
    path = write_scenario(tmp_path, b"{\"name\": " + deep.encode() + b"}")
    code, out, err = run("flow", "--scenario", path, "--field", "ddx", "--point=0.5")
    assert (code, out) == (2, "")
    assert err.startswith("error: scenario error at $: not valid JSON (maximum recursion depth")
    halfline = scenario_path("halfline")
    code, out, err = run("classify", "--scenario", halfline, "--field", "ddx", "--seeds", str(seeds))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: --seeds file {str(seeds)!r}: maximum recursion depth")
    code, out, err = run("flow", "--scenario", halfline, "--field", "ddx", "--point=0.5",
                         "--tol-overrides", deep)
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol-overrides is not valid JSON: maximum recursion depth")


def _deep_plane(tmp_path, terms: int) -> str:
    """rotation_plane with the field ``deep`` = (y + y + ... + y, x), ``terms``
    levels deep, and ``flat`` = (terms*y, x)."""
    return write_scenario(tmp_path, edited("rotation_plane", {
        ("fields", "deep"): [" + ".join(["y"] * terms), "x"],
        ("fields", "flat"): [f"{terms}*y", "x"],
    }))


def test_expression_200_levels_deep_brackets_and_flows(tmp_path):
    path = _deep_plane(tmp_path, 200)
    reports = {}
    for name in ("deep", "flat"):
        for argv in (["bracket", "--x", name, "--y", "rot", "--point=0.5,0.25"],
                     ["flow", "--field", name, "--point=0.5,0.25", "--horizon", "0.05"]):
            code, out, err = run(*argv, "--scenario", path)
            assert (code, err) == (0, "")
            reports[name, argv[0]] = json.loads(out)["result"]
    # 200 additions of 0.25 are exact, so the bracket values agree to the bit
    assert reports["deep", "bracket"]["value"] == reports["flat", "bracket"]["value"]
    deep, flat = reports["deep", "flow"], reports["flat", "flow"]
    assert (deep.pop("field"), flat.pop("field")) == ("deep", "flat")
    assert deep == flat


def test_expression_201_levels_deep_exits_2_naming_it(tmp_path):
    code, out, err = run("flow", "--scenario", _deep_plane(tmp_path, 201), "--field", "deep",
                         "--point=0.5,0.25")
    assert (code, out) == (2, "")
    assert err == ("error: scenario error at $.fields.deep[0]: "
                   "expression nests deeper than 200 levels\n")


# Loader fuzzing ---------------------------------------------------------------

NAMES = sorted(Path(p).stem for p in Path(scenario_path("halfline")).parent.glob("*.json"))

# cheap commands per scenario, run on each mutant; the tangency check meets
# the stratum constraints a mutant makes overflow or NaN with the drift fold
# where the field is "unread", rot written so that the exact stage cannot
# read it, and with the exact stage where it is rot
CHEAP = {name: [["complete-probe", "--n", "1", "--radius", "0.1", "--t-scale", "0.1"]]
         for name in ("circle", "disk_line", "halfline", "rotation_plane", "translate_shear")}
CHEAP.update({
    "cone": [["strata", "--check", "orbits", "--budget", "5", "--horizon", "0.1"],
             ["strata", "--check", "tangency", "--field", "unread", "--horizon", "0.1"],
             ["strata", "--check", "tangency", "--field", "rot", "--horizon", "0.1"]],
    "canonical_r2": [["poisson", "--triples", "1", "--points", "1"]],
    "jacobi_control": [["poisson", "--triples", "1", "--points", "1"]],
    "reduction_r4": [["leaf", "--point=1,1,1,0", "--budget", "5"]],
    "acs_standard": [["acs", "--check", "kahler", "--points", "1"]],
    "acs_variable": [["acs", "--check", "torsion", "--x", "e1", "--y", "e2", "--points", "1"]],
})

BOX = object()  # a box of +-1e160 in the scenario's dimension
VALUES = [
    None, True, False, 0, -1, 3, 0.5, BIG, -BIG, "@raw:1e999", "@raw:-1e999", "@raw:1e-400",
    float("nan"), float("inf"), "", "x1", "q", "eq0", "10^400", "x1/0",
    "(" * 300 + "x1" + ")" * 300, " + ".join(["x1"] * 1000),
    [], {}, [[]], [0.5], [1e160], {"default": []}, "@raw:" + "[" * 100_000 + "]" * 100_000, BOX,
]


def locations(doc, keys=()):
    """The keys of every value under ``doc``, parents first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for k, v in items:
        yield keys + (k,)
        yield from locations(v, keys + (k,))


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_scenarios_load_or_fail_with_a_path(tmp_path_factory, data):
    name = data.draw(st.sampled_from(NAMES), label="scenario")
    doc = shipped(name)
    if name == "cone":
        doc["fields"]["unread"] = cone_without_polynomials()["fields"]["rot"]
    n = doc["space"]["ambient_dim"]
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        keys = data.draw(st.sampled_from(list(locations(doc))), label="keys")
        op = data.draw(st.sampled_from(["delete", "replace", "empty", "duplicate"]), label="op")
        value = data.draw(st.sampled_from(VALUES), label="value") if op == "replace" else None
        mutate(doc, keys, op, [[-1e160] * n, [1e160] * n] if value is BOX else value)
    path = write_scenario(tmp_path_factory.getbasetemp(), doc, "mutant.json")
    try:
        load_scenario(path)
        event("loads")
    except SchemaError:
        event("SchemaError")
    for argv in CHEAP[name]:
        code, _, err = run(*argv, "--scenario", path)
        event(f"{' '.join(argv[:3])} exit {code}")
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        assert "internal error:" not in err
