"""Derivations of the smooth functions on an ambient patch.

A tangent field is stored as one expression per ambient coordinate.  Acting
on a scalar expression contracts the components against exact partial
derivatives, and the commutator of two fields is again a field, computed
symbolically.  Tangency to any particular space is not checked at
construction; flow and stratification checks surface violations where they
matter.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Optional, Sequence

from .expr import Expr, Var, add, as_expr, compile_vector, diff, mul, to_text, vector_source, ZERO

if TYPE_CHECKING:
    import numpy as np

# fields whose values at a point have a singular value below RANK_TOL times
# the largest one count as dependent there
RANK_TOL = 1e-8


class FieldError(ValueError):
    """Raised for malformed fields or dimension mismatches."""


class TangentField:
    """Vector of component expressions with a human-readable label."""

    def __init__(self, label: str, components: Sequence[Expr]):
        if not components:
            raise FieldError("a field needs at least one component")
        self.label = str(label)
        self.components: tuple[Expr, ...] = tuple(as_expr(c) for c in components)
        self.dim = len(self.components)
        self._value = compile_vector(self.components)
        self._jac_rows: Optional[tuple[tuple[Expr, ...], ...]] = None

    def __repr__(self) -> str:
        comps = ", ".join(to_text(c) for c in self.components)
        return f"TangentField({self.label!r}, [{comps}])"

    @functools.cached_property
    def _source(self) -> str:
        """The source that computes the components, as ``_value`` does; flow
        kernels, which compute them inline, are keyed by it."""
        lines, names = vector_source(self.components)
        return "\n".join(lines + names)

    def __call__(self, point: Sequence[float]) -> np.ndarray:
        """The components at the point as an ndarray; ``value`` gives a float list."""
        import numpy as np

        return np.array(self._value(point), dtype=float)

    def value(self, point: Sequence[float]) -> list[float]:
        return self._value(point)

    def apply(self, f: Expr) -> Expr:
        """Directional derivative of ``f`` along this field, as an expression."""
        out: Expr = ZERO
        for i, comp in enumerate(self.components):
            out = add(out, mul(comp, diff(f, i)))
        return out

    def jacobian_exprs(self) -> tuple[tuple[Expr, ...], ...]:
        """Rows J[i][j] = d component_i / d x_j, cached."""
        if self._jac_rows is None:
            self._jac_rows = tuple(
                tuple(diff(c, j) for j in range(self.dim)) for c in self.components
            )
        return self._jac_rows

    @functools.cached_property
    def _variational(self) -> "TangentField":
        """The field on R^2n whose flow carries a point and a vector along
        this one: the components, then sum_j dX_i/dx_j * x_{n+j}, summed in
        order of j."""
        n = self.dim
        carried = []
        for row in self.jacobian_exprs():
            out: Expr = ZERO
            for j, d in enumerate(row):
                out = add(out, mul(d, Var(n + j)))
            carried.append(out)
        return TangentField(f"variational({self.label})", self.components + tuple(carried))

    def scaled(self, factor, label: Optional[str] = None) -> "TangentField":
        """Pointwise multiple of this field by a scalar expression or number."""
        f = as_expr(factor)
        lab = label if label is not None else f"({to_text(f)})*{self.label}"
        return TangentField(lab, [mul(f, c) for c in self.components])

def lie_bracket(x: TangentField, y: TangentField, label: Optional[str] = None) -> TangentField:
    """Commutator field: component i is x(y_i) - y(x_i)."""
    if x.dim != y.dim:
        raise FieldError(f"bracket needs matching dimensions, got {x.dim} and {y.dim}")
    comps = [add(x.apply(yc), -y.apply(xc)) for xc, yc in zip(x.components, y.components)]
    lab = label if label is not None else f"[{x.label},{y.label}]"
    return TangentField(lab, comps)
