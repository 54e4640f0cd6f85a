"""Almost complex structures as expression matrices, with torsion residuals.

A structure is a matrix J of coordinate expressions squaring pointwise to
minus the identity.  The torsion N(X, Y) of one pair of fields is built
symbolically from Lie brackets, so tensoriality and the failure of
eigenspace involutivity are measurable dual routes: the first compares
N(fX, hY) against f h N(X, Y), the second compares the bracket defect of
+i eigenvectors against N itself.  Since N is a tensor (Kobayashi and
Nomizu, *Foundations* II, ch. IX), its components N^k_ij are also built
once per structure from J and its first derivatives, and the torsion of
any pair is their contraction.  A compatible nondegenerate two-form
upgrades the structure to a candidate Kahler triple; the check reports
compatibility, metric symmetry, positivity, and the torsion of every pair
of probe fields, contracted from those components, in one record.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .expr import (
    Const,
    Expr,
    ExprMatrix,
    _norm,
    add,
    as_expr,
    block_rows,
    compile_scalar,
    compile_vector,
    dot,
    gradient_exprs,
    mul,
    sub,
    ZERO,
)
from .field import TangentField, lie_bracket
from .report import worst_residual
from .space import _solve

DEGENERACY_TOL = 1e-12
KAHLER_TOL = 1e-8


class AlmostComplexError(ValueError):
    pass


class DegenerateError(AlmostComplexError):
    """The two-form of a Kahler check is singular at a sample point."""


class AlmostComplexStructure(ExprMatrix):
    """A matrix of expressions acting on tangent vectors, with J J = -I."""

    error = AlmostComplexError
    label = "J"

    def square_residual(self, points: Sequence[Sequence[float]]) -> float:
        """Max entry of J(p) J(p) + I over the sample, NaN if any is."""
        n, rows = self.dim, self.rows
        square = compile_vector([add(dot(rows[i], [r[k] for r in rows]), Const(float(i == k)))
                                 for i in range(n) for k in range(n)])
        return worst_residual([abs(v) for p in points for v in square(list(map(float, p)))])

    def apply(self, x: TangentField) -> TangentField:
        """The field J X with components (J X)^i = sum_j J[i][j] X^j."""
        if x.dim != self.dim:
            raise AlmostComplexError(
                f"field {x.label!r} has dimension {x.dim}, structure has {self.dim}"
            )
        return TangentField(f"{self.label}*{x.label}", [dot(row, x.components) for row in self.rows])

    @functools.cached_property
    def _nijenhuis(self) -> list[dict[tuple[int, int], Expr]]:
        """The components N^k_ij, i < j, of the Nijenhuis tensor that are
        not structurally ``ZERO``: for each k, a dict from (i, j) to N^k_ij.
        With J^k_i the entry ``rows[k][i]``, the coordinate fields give
        ``torsion``'s N(e_i, e_j) = 2([Je_i, Je_j] - J[Je_i, e_j] - J[e_i, Je_j]):

            N^k_ij = 2 sum_l (J^l_i d_l J^k_j - J^l_j d_l J^k_i + J^k_l (d_j J^l_i - d_i J^l_j)),

        and N(X, Y)^k = sum_{i<j} N^k_ij (X^i Y^j - X^j Y^i) for any fields.
        A constant J has none.  Built on the first Kahler check."""
        n, rows = self.dim, self.rows
        cols = list(zip(*rows))
        d = [[gradient_exprs(e, n) for e in row] for row in rows]  # d[k][i][l] = d_l J^k_i
        comps: list[dict[tuple[int, int], Expr]] = [{} for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                curl = [sub(d[l][i][j], d[l][j][i]) for l in range(n)]
                for k in range(n):
                    total = add(sub(dot(cols[i], d[k][j]), dot(cols[j], d[k][i])), dot(rows[k], curl))
                    if not total.is_zero:
                        comps[k][i, j] = mul(Const(2.0), total)
        return comps

    @classmethod
    def standard(cls, k: int) -> "AlmostComplexStructure":
        """Constant structure on R^{2k}: e_i -> e_{k+i}, e_{k+i} -> -e_i."""
        return cls(2 * k, block_rows(k, -1.0))


class _TwoForm(ExprMatrix):
    """The two-form of a Kahler check, W(X, Y) = X^T W Y."""

    error = AlmostComplexError
    noun = "two-form matrix"


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
    return worst_residual(_norm(fld.value(list(map(float, p)))) for p in points)


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
    xy, jxjy, jxy, xjy = (lie_bracket(u, v).components for u, v in ((x, y), (jx, jy), (jx, y), (x, jy)))
    jb = j.apply(TangentField("im-bracket", [sub(ZERO, add(u, v)) for u, v in zip(jxy, xjy)]))
    comps = [mul(Const(0.5), sub(sub(u, v), w)) for u, v, w in zip(xy, jxjy, jb.components)]
    return TangentField(f"eigdefect({x.label},{y.label})", comps)


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
    Gram matrix over the given fields must be symmetric and positive.  The
    torsion is the largest norm of N(X, Y) over the pairs of fields, each
    contracted from the structure's Nijenhuis tensor, which is built once.
    All three are compiled once, with W, J and the fields.  A point where
    W, J or a field is not finite is an ``AlmostComplexError`` naming it,
    one where W is singular (``space._solve``) a ``DegenerateError``; the
    smallest metric eigenvalue is ``dense._smallest_eigenvalue``'s.
    """
    from .dense import _smallest_eigenvalue

    n = j.dim
    rows = _TwoForm(n, omega).rows
    m = len(fields)
    if m < 1:
        raise AlmostComplexError("need at least one probe field")
    for x in fields:
        if x.dim != n:
            raise AlmostComplexError(f"probe field {x.label!r} has wrong dimension")
    vs = [x.components for x in fields]
    jvs = [[dot(row, v) for row in j.rows] for v in vs]
    left, jleft = ([[dot(v, c) for c in zip(*rows)] for v in us] for us in (vs, jvs))  # X^T W, (JX)^T W
    compat = [sub(dot(jleft[a], jvs[b]), dot(left[a], vs[b])) for a in range(m) for b in range(m)]
    gram = [dot(left[a], jvs[b]) for a in range(m) for b in range(m)]
    torsions = []  # per pair a < b, the components of N(X_a, X_b) that are not structurally zero
    for a in range(m):
        for b in range(a + 1, m):
            wedge = {(i, l): sub(mul(vs[a][i], vs[b][l]), mul(vs[a][l], vs[b][i]))
                     for i in range(n) for l in range(i + 1, n)}  # X_a^i X_b^l - X_a^l X_b^i
            comps = [dot(list(nk.values()), [wedge[il] for il in nk]) for nk in j._nijenhuis]
            torsions.append([c for c in comps if not c.is_zero])
    given = [e for row in rows for e in row] + [e for row in j.rows for e in row] + [e for v in vs for e in v]
    value = compile_vector(given + compat + gram + [c for t in torsions for c in t])

    per, seen = [], {}  # per point: the compatibility, the symmetry, the smallest eigenvalue and the torsion
    for p in points:
        q = list(map(float, p))
        key = tuple(vals := value(q))
        if key not in seen:  # bit-identical values, as at every point of a constant structure, are checked once
            if not all(map(math.isfinite, vals[: len(given)])):
                raise AlmostComplexError(f"J, the two-form or a probe field is not finite at {tuple(q)}")
            w = [vals[i * n : (i + 1) * n] for i in range(n)]
            if _solve(w, [0.0] * n) is None or abs(math.prod(w[i][i] for i in range(n))) < DEGENERACY_TOL:
                raise DegenerateError(f"two-form is degenerate at {tuple(q)}: |det| below {DEGENERACY_TOL:.1e}")
            at = len(given)
            c, g = vals[at : at + m * m], vals[at + m * m : at + 2 * m * m]
            half = [[0.5 * (g[a * m + b] + g[b * m + a]) for b in range(m)] for a in range(m)]
            rest = iter(vals[at + 2 * m * m :])
            norms = [_norm([next(rest) for _ in t]) for t in torsions]
            seen[key] = (worst_residual(map(abs, c)),
                         worst_residual([abs(g[a * m + b] - g[b * m + a]) for a in range(m) for b in range(m)]),
                         _smallest_eigenvalue(half), worst_residual(norms))
        per.append(seen[key])

    compat = worst_residual(t[0] for t in per)
    sym = worst_residual(t[1] for t in per)
    min_eig = min([math.inf, *(t[2] for t in per)])  # a NaN is dropped after a number, as the fold always did
    torsion_worst = worst_residual(t[3] for t in per)

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
