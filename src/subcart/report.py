"""Deterministic report serialization.

Reports must be byte-identical across reruns with the same inputs, so
serialization is hand-rolled rather than delegated to json.dumps defaults:
keys are emitted sorted, floats are printed in %.17g form, no value that
depends on the environment (timestamps, paths, hostnames) is included, and
only Python values are written: a numpy value but a float64 is an error.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Sequence


class ReportError(ValueError):
    pass


def format_float(v: float) -> str:
    if math.isnan(v) or math.isinf(v):
        raise ReportError(f"non-finite float {v!r} cannot appear in a report")
    if v == 0.0:
        return "0"
    return "%.17g" % v


def _canon(obj, out: list[str]) -> None:
    """Append the canonical text of ``obj``, which is built of None, bools,
    ints, floats, strings, lists, tuples and dicts with string keys; any
    other value, a numpy array or integer among them, is a ``ReportError``."""
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, float):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        keys = list(obj.keys())
        if any(not isinstance(k, str) for k in keys):
            raise ReportError("report dict keys must be strings")
        for i, k in enumerate(sorted(keys)):
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _canon(obj[k], out)
        out.append("}")
    else:
        raise ReportError(f"cannot serialize {type(obj).__name__} into a report")


def worst_residual(residuals: Iterable[float]) -> float:
    """Largest of nonnegative residuals, 0.0 for none, NaN if any is NaN.

    The builtin ``max`` keeps what it has when the next value is NaN, so
    ``max(0.0, nan)`` is 0.0 and an overflowed residual would read as zero.
    Kept NaN ends the command with exit 2 when the report is serialized.
    """
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return r
        if r > worst:
            worst = r
    return worst


def canonical_json(obj) -> str:
    """Canonical JSON text: sorted keys, %.17g floats, no whitespace."""
    out: list[str] = []
    _canon(obj, out)
    return "".join(out)


def sha256_hex(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Deterministic CSV of float and int cells, written as in a report, with
    LF line endings.  Any other cell, a bool among them, is a ``ReportError``."""
    lines = [",".join(header)]
    for row in rows:
        cells: list[str] = []
        for cell in row:
            if isinstance(cell, bool) or not isinstance(cell, (float, int)):
                raise ReportError(f"cannot write {type(cell).__name__} into a csv cell")
            _canon(cell, cells)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
