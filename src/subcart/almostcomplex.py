"""Almost complex structures as expression matrices, with torsion residuals.

A structure is a matrix J of coordinate expressions squaring pointwise to
minus the identity.  Its torsion tensor is built symbolically from Lie
brackets, so tensoriality and the failure of eigenspace involutivity are
measurable dual routes: the first compares N(fX, hY) against f h N(X, Y),
the second compares the bracket defect of +i eigenvectors against N
itself.  A compatible nondegenerate two-form upgrades the structure to a
candidate Kahler triple; the check reports compatibility, metric symmetry,
positivity, and torsion in one record.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .expr import (
    Const,
    Expr,
    add,
    as_expr,
    compile_scalar,
    compile_vector,
    max_var_index,
    mul,
    sub,
    to_text,
    ZERO,
)
from .field import TangentField, lie_bracket
from .report import worst_residual

if TYPE_CHECKING:
    import numpy as np

DEGENERACY_TOL = 1e-12
KAHLER_TOL = 1e-8


class AlmostComplexError(ValueError):
    pass


class AlmostComplexStructure:
    """A matrix of expressions acting on tangent vectors, with J J = -I."""

    def __init__(self, dim: int, matrix: Sequence[Sequence[Expr]]):
        if dim < 1:
            raise AlmostComplexError(f"dimension must be positive, got {dim}")
        rows = [tuple(as_expr(e) for e in row) for row in matrix]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise AlmostComplexError(f"matrix must be {dim}x{dim}")
        for row in rows:
            for e in row:
                if max_var_index(e) >= dim:
                    raise AlmostComplexError(
                        f"matrix entry {to_text(e)!r} uses a variable beyond x{dim}"
                    )
        self.dim = dim
        self.matrix: tuple[tuple[Expr, ...], ...] = tuple(rows)
        self.label = "J"

    @functools.cached_property
    def _value(self):
        """The entries, flat, compiled on the first evaluation."""
        return compile_vector([e for row in self.matrix for e in row])

    def matrix_at(self, point: Sequence[float]) -> np.ndarray:
        import numpy as np

        return np.array(self._value(point), dtype=float).reshape(self.dim, self.dim)

    def square_residual(self, points: Sequence[Sequence[float]]) -> float:
        """Max entry of J(p) J(p) + I over the sample."""
        import numpy as np

        eye = np.eye(self.dim)
        return worst_residual(float(np.max(np.abs(m @ m + eye))) for m in map(self.matrix_at, points))

    def apply(self, x: TangentField) -> TangentField:
        """The field J X with components (J X)^i = sum_j J[i][j] X^j."""
        if x.dim != self.dim:
            raise AlmostComplexError(
                f"field {x.label!r} has dimension {x.dim}, structure has {self.dim}"
            )
        comps = []
        for i in range(self.dim):
            c: Expr = ZERO
            for j in range(self.dim):
                c = add(c, mul(self.matrix[i][j], x.components[j]))
            comps.append(c)
        return TangentField(f"{self.label}*{x.label}", comps)

    @classmethod
    def standard(cls, k: int) -> "AlmostComplexStructure":
        """Constant structure on R^{2k}: e_i -> e_{k+i}, e_{k+i} -> -e_i."""
        n = 2 * k
        rows = [[ZERO for _ in range(n)] for _ in range(n)]
        for i in range(k):
            rows[i][k + i] = Const(-1.0)
            rows[k + i][i] = Const(1.0)
        return cls(n, rows)


def torsion(j: AlmostComplexStructure, x: TangentField, y: TangentField) -> TangentField:
    """N(X,Y) = 2([JX,JY] - J[JX,Y] - J[X,JY] - [X,Y]), built symbolically."""
    jx = j.apply(x)
    jy = j.apply(y)
    t1 = lie_bracket(jx, jy)
    t2 = j.apply(lie_bracket(jx, y))
    t3 = j.apply(lie_bracket(x, jy))
    t4 = lie_bracket(x, y)
    comps = [
        mul(
            Const(2.0),
            sub(t1.components[i], add(t2.components[i], add(t3.components[i], t4.components[i]))),
        )
        for i in range(j.dim)
    ]
    return TangentField(f"N({x.label},{y.label})", comps)


def max_norm(fld: TangentField, points: Sequence[Sequence[float]]) -> float:
    """Max Euclidean norm of the field over the sample, NaN if any norm is."""
    import numpy as np

    return worst_residual(float(np.linalg.norm(fld.value(list(map(float, p))))) for p in points)


def torsion_residual(
    j: AlmostComplexStructure,
    x: TangentField,
    y: TangentField,
    points: Sequence[Sequence[float]],
) -> float:
    """Max Euclidean norm of N(X,Y) over the sample."""
    return max_norm(torsion(j, x, y), points)


def tensoriality_residual(
    j: AlmostComplexStructure,
    x: TangentField,
    y: TangentField,
    f: Expr,
    h: Expr,
    points: Sequence[Sequence[float]],
) -> float:
    """Max norm of N(fX, hY) - f h N(X, Y) over the sample.

    Vanishing identically certifies that the torsion is pointwise in the
    field values despite being assembled from derivatives.
    """
    f = as_expr(f)
    h = as_expr(h)
    lhs = torsion(j, x.scaled(f), y.scaled(h))
    base = torsion(j, x, y)
    rhs = base.scaled(mul(f, h))
    diff_field = TangentField(
        "tensoriality-defect",
        [sub(lhs.components[i], rhs.components[i]) for i in range(j.dim)],
    )
    return max_norm(diff_field, points)


def eigenspace_closure_field(
    j: AlmostComplexStructure,
    x: TangentField,
    y: TangentField,
) -> TangentField:
    """Real part of the bracket defect of the +i eigenvectors of J.

    For Z = X - i JX and W = Y - i JY the bracket [Z,W] splits into
    A' + i B' with A' = [X,Y] - [JX,JY] and B' = -([JX,Y] + [X,JY]).
    [Z,W] stays a +i eigenvector iff A' - J B' vanishes; the imaginary
    defect B' + J A' equals J applied to the real defect, so the real
    half carries all the information.  Returns (A' - J B') / 2, which
    equals -N(X,Y)/4 identically.
    """
    jx = j.apply(x)
    jy = j.apply(y)
    a_part = TangentField(
        "re-bracket",
        [
            sub(lie_bracket(x, y).components[i], lie_bracket(jx, jy).components[i])
            for i in range(j.dim)
        ],
    )
    b_part = TangentField(
        "im-bracket",
        [
            sub(ZERO, add(lie_bracket(jx, y).components[i], lie_bracket(x, jy).components[i]))
            for i in range(j.dim)
        ],
    )
    jb = j.apply(b_part)
    comps = [
        mul(Const(0.5), sub(a_part.components[i], jb.components[i])) for i in range(j.dim)
    ]
    return TangentField(f"eigdefect({x.label},{y.label})", comps)


def eigenspace_closure_residual(
    j: AlmostComplexStructure,
    x: TangentField,
    y: TangentField,
    points: Sequence[Sequence[float]],
) -> float:
    """Max norm of the eigenvector bracket defect over the sample."""
    return max_norm(eigenspace_closure_field(j, x, y), points)


def cauchy_riemann_residual(
    j: AlmostComplexStructure,
    fields: Sequence[TangentField],
    f: Expr,
    h: Expr,
    points: Sequence[Sequence[float]],
) -> float:
    """How far (f, h) is from being the real and imaginary part of a
    holomorphic function along the given directions.

    For each direction X both defects |X.f - (JX).h| and |(JX).f + X.h|
    are evaluated; the max over directions and points is returned.
    """
    f = as_expr(f)
    h = as_expr(h)

    def defects():
        for x in fields:
            jx = j.apply(x)
            d1 = compile_scalar(sub(x.apply(f), jx.apply(h)))
            d2 = compile_scalar(add(jx.apply(f), x.apply(h)))
            for p in points:
                q = list(map(float, p))
                yield abs(d1(q))
                yield abs(d2(q))

    return worst_residual(defects())


@dataclass
class KahlerReport:
    """Joint verdict for a two-form candidate paired with a structure."""

    compatibility: float
    metric_symmetry: float
    min_metric_eigenvalue: float
    positive: bool
    torsion_residual: float
    passed: bool
    n_points: int


def kahler_check(
    j: AlmostComplexStructure,
    omega: Sequence[Sequence[Expr]],
    fields: Sequence[TangentField],
    points: Sequence[Sequence[float]],
    tol: float = KAHLER_TOL,
) -> KahlerReport:
    """Compatibility, induced metric, and torsion for a two-form candidate.

    omega is an antisymmetric matrix of expressions with W(X,Y) the
    contraction X^T W Y.  Compatibility is the invariance defect
    |W(JX,JY) - W(X,Y)|; the induced metric is g(X,Y) = W(X, JY), whose
    Gram matrix over the given fields must be symmetric and positive.
    A pointwise singular omega is rejected outright.
    """
    import numpy as np

    n = j.dim
    rows = [tuple(as_expr(e) for e in row) for row in omega]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise AlmostComplexError(f"two-form matrix must be {n}x{n}")
    omega_eval = compile_vector([e for row in rows for e in row])
    m = len(fields)
    if m < 1:
        raise AlmostComplexError("need at least one probe field")
    for x in fields:
        if x.dim != n:
            raise AlmostComplexError(f"probe field {x.label!r} has wrong dimension")

    compats: list[float] = []
    syms: list[float] = []
    min_eig = float("inf")
    for p in points:
        q = list(map(float, p))
        w = np.array(omega_eval(q), dtype=float).reshape(n, n)
        if abs(float(np.linalg.det(w))) < DEGENERACY_TOL:
            raise AlmostComplexError(
                f"two-form is degenerate at {tuple(q)}: |det| below {DEGENERACY_TOL:.1e}"
            )
        jm = j.matrix_at(q)
        vals = np.column_stack([x.value(q) for x in fields])
        jvals = jm @ vals
        pair = vals.T @ w @ vals
        jpair = jvals.T @ w @ jvals
        compats.append(float(np.max(np.abs(jpair - pair))))
        gram = vals.T @ w @ jvals
        syms.append(float(np.max(np.abs(gram - gram.T))))
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        min_eig = min(min_eig, float(eigs[0]))

    compat = worst_residual(compats)
    sym = worst_residual(syms)
    torsion_worst = worst_residual(
        torsion_residual(j, fields[a], fields[b], points) for a in range(m) for b in range(a + 1, m)
    )

    positive = min_eig > DEGENERACY_TOL
    passed = compat <= tol and sym <= tol and positive and torsion_worst <= tol
    return KahlerReport(
        compatibility=compat,
        metric_symmetry=sym,
        min_metric_eigenvalue=min_eig,
        positive=positive,
        torsion_residual=torsion_worst,
        passed=passed,
        n_points=len(points),
    )
