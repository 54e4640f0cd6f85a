"""Derivations of the smooth functions on an ambient patch.

A tangent field is stored as one expression per ambient coordinate.  Acting
on a scalar expression contracts the components against exact partial
derivatives, and the commutator of two fields is again a field, computed
symbolically.  Tangency to any particular space is not checked at
construction; flow and stratification checks surface violations where they
matter.

The integrator's failure, ``IntegrationError``, and its refusal of a
horizon past 2^53 sample spacings (``MAX_SAMPLE_DT``) live here, in a
module every command loads, so that a command which runs no drive refuses
such a horizon as a drive would without loading ``flow``.
"""

from __future__ import annotations

import functools
import math
from typing import Optional, Sequence

from .expr import (
    DomainError, Expr, Var, add, as_expr, compile_vector, dot, gradient_exprs, mul, neg, to_text, vector_source,
)

# fields whose values at a point have a singular value below RANK_TOL times
# the largest one count as dependent there
RANK_TOL = 1e-8
# the spacing of the points a flow scans along its curve, at most
MAX_SAMPLE_DT = 0.1


class FieldError(ValueError):
    """Raised for malformed fields or dimension mismatches."""


class IntegrationError(RuntimeError):
    """Numerical failure of the stepper itself (not a domain exit)."""

    def __init__(self, message: str, t: Optional[float] = None):
        super().__init__(message)
        self.t = t


def _horizon(horizon: float) -> float:
    """``horizon`` as a float, refused where a drive cannot take it."""
    horizon = float(horizon)
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if horizon / MAX_SAMPLE_DT > 2**53:  # past 2^53 a float no longer counts the scanned points exactly
        raise IntegrationError(f"horizon {horizon} is more than 2^53 sample spacings of {MAX_SAMPLE_DT}")
    return horizon


class TangentField:
    """Vector of component expressions with a human-readable label."""

    def __init__(self, label: str, components: Sequence[Expr]):
        if not components:
            raise FieldError("a field needs at least one component")
        self.label = str(label)
        self.components: tuple[Expr, ...] = tuple(as_expr(c) for c in components)
        self.dim = len(self.components)

    def __repr__(self) -> str:
        comps = ", ".join(to_text(c) for c in self.components)
        return f"TangentField({self.label!r}, [{comps}])"

    @functools.cached_property
    def _source(self) -> str:
        """The source that computes the components, as ``_value`` does; flow
        kernels, which compute them inline, are keyed by it."""
        lines, names = vector_source(self.components)
        return "\n".join(lines + names)

    @functools.cached_property
    def _value(self):
        """The compiled components, compiled on the first evaluation, since
        most intermediate fields of a bracket or a torsion are never evaluated."""
        return compile_vector(self.components)

    def value(self, point: Sequence[float]) -> list[float]:
        """The components at the point, a list of floats for a list of floats."""
        return self._value(point)

    def apply(self, f: Expr) -> Expr:
        """Directional derivative of ``f`` along this field, as an expression."""
        return dot(self.components, gradient_exprs(f, self.dim))

    @functools.cached_property
    def _variational(self) -> "TangentField":
        """The field on R^2n whose flow carries a point and a vector along
        this one: the components, then sum_j dX_i/dx_j * x_{n+j}, summed in
        order of j."""
        n = self.dim
        tail = [Var(n + j) for j in range(n)]
        carried = tuple(dot(gradient_exprs(c, n), tail) for c in self.components)
        return TangentField(f"variational({self.label})", self.components + carried)

    def scaled(self, factor) -> "TangentField":
        """Pointwise multiple of this field by a scalar expression or number."""
        f = as_expr(factor)
        return TangentField(f"({to_text(f)})*{self.label}", [mul(f, c) for c in self.components])


def _unevaluable(fld: TangentField, point: Sequence[float], exc: Optional[Exception]) -> FieldError:
    """The error of a field that raised ``exc``, a ``DomainError`` or an
    ``OverflowError``, at the point, or with ``exc`` None, of one whose value
    there is not finite."""
    fault = "is not finite" if exc is None else "overflows" if isinstance(exc, OverflowError) else "is undefined"
    return FieldError(f"field {fld.label!r} {fault} at {[float(v) for v in point]}")


def _value_at(fld: TangentField, point: Sequence[float]) -> list[float]:
    """The field's value at the point; a field undefined or overflowing
    there, or whose value is not finite there (``x1*x1*x1`` at 1e200 gives
    inf without raising), is a ``FieldError`` naming both."""
    try:
        value = fld.value(point)
    except (DomainError, OverflowError) as exc:
        raise _unevaluable(fld, point, exc) from None
    if not all(map(math.isfinite, value)):
        raise _unevaluable(fld, point, None)
    return value


def lie_bracket(x: TangentField, y: TangentField) -> TangentField:
    """Commutator field: component i is x(y_i) - y(x_i)."""
    if x.dim != y.dim:
        raise FieldError(f"bracket needs matching dimensions, got {x.dim} and {y.dim}")
    comps = [add(x.apply(yc), neg(y.apply(xc))) for xc, yc in zip(x.components, y.components)]
    return TangentField(f"[{x.label},{y.label}]", comps)
