"""Poisson brackets from coordinate bivectors, and invariant-based reduction.

The bracket of two expressions is the contraction {f,g} = sum_ij P^ij
d_i f d_j g against an antisymmetric matrix of coefficient expressions.
Structural properties the axiomatic treatment takes as definitions
(antisymmetry, Leibniz, Jacobi) become measurable residuals here, with the
Jacobi residual doubling as the acceptance gate for candidate bivectors.

The Jacobi residual of a triple is |{f,{g,h}} + {g,{h,f}} + {h,{f,g}}|,
computed without building a bracket.  Expanding {f,{g,h}} = P^ab f_a
d_b(P^cd g_c h_d) and summing cyclically leaves two kinds of term:

    J^ijk f_i g_j h_k,
        J^ijk = sum_l (P^il d_l P^jk + P^jl d_l P^ki + P^kl d_l P^ij),

for antisymmetric P the Schouten bracket [P,P] up to the convention's
factor (Lichnerowicz 1977; Vaisman 1994, ch. 1), and, for each cyclic
order, f_u P^ux g_xy (P+P^T)^yv h_v, which holds the second derivatives of
the triple and vanishes when P is antisymmetric.  The sum is the nested cyclic sum for every P, so one
path serves antisymmetric and other bivectors alike.  P needs only first
derivatives: J, P, P + P^T and the contraction are generated once per
structure, on the first Jacobi check, as one function on Python floats;
a triple enters only through its second-order Taylor coefficients.  A
component of J or P + P^T whose exact polynomial normal form is 0 is not
evaluated, so where all are, as for the shipped Poisson bivectors, the
residual is exactly 0.0 at any scale.

Reduction works with an explicit generating set of invariants sigma on a
canonical ambient space: pairwise upstairs brackets are solved for exactly
as polynomials in sigma, and the table is replayed on sampled points.  The
result is a bivector on sigma-space whose Hamiltonian dynamics mirror the
invariant dynamics upstairs.

``invariance_residual`` pulls the bracket back through a Hamiltonian flow's
derivative, which ``flow.transport_vector`` carries by the variational
equations (Hairer, Nørsett & Wanner, *Solving ODEs I*, §I.14).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .expr import (
    Const,
    Expr,
    ExprMatrix,
    ONE,
    Var,
    _define,
    _pairwise_sum,
    add,
    as_expr,
    block_rows,
    compile_scalar,
    compile_vector,
    diff,
    dot,
    gradient_exprs,
    max_var_index,
    mul,
    pow_int,
    to_text,
    ZERO,
)
from .field import RANK_TOL, TangentField
from .report import worst_residual
from .space import SubcartesianSpace, box

if TYPE_CHECKING:
    from .flow import FlowOptions
    from .orbit import OrbitSample

CERTIFY_TOL = 1e-10
# reduction certifies on CERTIFY_POINTS uniform points of [-SAMPLE_SCALE, SAMPLE_SCALE]^n
CERTIFY_POINTS = 200
SAMPLE_SCALE = 1.5
JACOBI_DEGREE = 2  # the degree of the random polynomial triples of the Jacobi sample


class PoissonError(ValueError):
    pass


class ReductionError(PoissonError):
    """A pairwise invariant bracket has no representation in the invariants."""


class PoissonStructure(ExprMatrix):
    """An antisymmetric coefficient matrix of expressions on R^n."""

    error = PoissonError
    noun = "bivector"

    def __init__(self, dim: int, bivector: Sequence[Sequence[Expr]], label: str = "poisson"):
        super().__init__(dim, bivector)
        self.label = str(label)
        self.meta: dict = {}

    @functools.cached_property
    def _jacobi_exprs(self) -> tuple[list[Expr], list[Expr], list[Expr]]:
        """J^ijk, P^ij and (P + P^T)^ij, each flat in index order.  A
        component of J or P + P^T whose exact polynomial normal form
        (``poly.normal_form``) is 0 is ``ZERO``, which the Jacobi kernel
        leaves out with every product it feeds: integer coefficients that
        cancel, as in ``2*x1*4 + 2*x1*(-4)``, are pruned before any code is
        generated.  A component past the normal form's caps is kept.  Built
        on the first Jacobi check, not on loading."""
        from .poly import normal_form

        n, p = self.dim, self.rows
        dp = [[gradient_exprs(e, n) for e in row] for row in p]
        schouten = []
        for i, j, k in itertools.product(range(n), repeat=3):
            pairs = ((p[i], dp[j][k]), (p[j], dp[k][i]), (p[k], dp[i][j]))
            # add and mul would drop a term with a zero factor, but build a constant for it first
            terms = [(a[l], b[l]) for l in range(n) for a, b in pairs if not (a[l].is_zero or b[l].is_zero)]
            schouten.append(dot([a for a, _ in terms], [b for _, b in terms]))
        sym = [add(p[i][j], p[j][i]) for i in range(n) for j in range(n)]
        memo: dict = {}  # P and its derivatives are shared by many components
        schouten, sym = ([ZERO if normal_form(e, n, memo) == {} else e for e in part] for part in (schouten, sym))
        return schouten, [e for row in p for e in row], sym

    @functools.cached_property
    def _jacobi_kernel(self) -> Callable[[list, list], tuple[float, Optional[tuple[int, int]]]]:
        """The Jacobi kernel (``dense._jacobi_source``), generated on the first Jacobi check, not on loading."""
        from .dense import _jacobi_source

        return _define(_jacobi_source(self.dim, *self._jacobi_exprs, monomials(self.dim, JACOBI_DEGREE)), "<jacobi>")

    def jacobi_tensors(self, points: Sequence[Sequence[float]]) -> tuple[list, list, list]:
        """J^ijk, P^ij and (P + P^T)^ij at each of m points, each an m-list of flat lists in index order."""
        value = compile_vector([e for part in self._jacobi_exprs for e in part])
        n3, n2, vals = self.dim**3, self.dim**2, [value(list(map(float, x))) for x in points]
        return [v[:n3] for v in vals], [v[n3 : n3 + n2] for v in vals], [v[n3 + n2 :] for v in vals]

    def antisymmetry_residual(self, points: Sequence[Sequence[float]]) -> float:
        n = self.dim
        return worst_residual(abs(v[i * n + j] + v[j * n + i])
                              for v in map(self._value, points) for i in range(n) for j in range(n))

    @classmethod
    def canonical(cls, k: int) -> "PoissonStructure":
        """Canonical structure on R^{2k} with coordinates (q1..qk, p1..pk)."""
        return cls(2 * k, block_rows(k, 1.0), "canonical")


def bracket(p: PoissonStructure, f: Expr, g: Expr) -> Expr:
    """Symbolic bracket {f,g} = sum_ij P^ij d_i f d_j g."""
    f = as_expr(f)
    g = as_expr(g)
    for e, what in ((f, "first"), (g, "second")):
        if max_var_index(e) >= p.dim:
            raise PoissonError(
                f"{what} argument {to_text(e)!r} uses a variable beyond x{p.dim}"
            )
    df = gradient_exprs(f, p.dim)
    dg = gradient_exprs(g, p.dim)
    return dot([e for row in p.rows for e in row], [mul(a, b) for a in df for b in dg])


def hamiltonian_field(p: PoissonStructure, f: Expr) -> TangentField:
    """The field X_f with X_f . h = {f,h}: components sum_i P^ij d_i f."""
    f = as_expr(f)
    if max_var_index(f) >= p.dim:
        raise PoissonError(f"hamiltonian {to_text(f)!r} uses a variable beyond x{p.dim}")
    df = gradient_exprs(f, p.dim)
    return TangentField(f"X[{to_text(f)}]", [dot(col, df) for col in zip(*p.rows)])


def jacobi_residual(
    p: PoissonStructure,
    f1: Expr,
    f2: Expr,
    f3: Expr,
    points: Sequence[Sequence[float]],
) -> float:
    """Max over points of |{f1,{f2,f3}} + cyc|, from the Schouten contraction,
    each point the center of the triple's Taylor coefficients there."""
    fs = [as_expr(f) for f in (f1, f2, f3)]
    for f in fs:
        if max_var_index(f) >= p.dim:
            raise PoissonError(f"argument {to_text(f)!r} uses a variable beyond x{p.dim}")
    taylor = []
    for f, exps in itertools.product(fs, monomials(p.dim, JACOBI_DEGREE)):
        d = f  # the derivative of the monomial's order, halved for a square
        for i, k in enumerate(exps):
            d = diff(diff(d, i), i) if k == 2 else diff(d, i) if k else d
        taylor.append(ZERO if d is f else mul(Const(0.5), d) if 2 in exps else d)
    value = compile_vector(taylor)
    pts = [list(map(float, x)) for x in points]
    return p._jacobi_kernel([x + value(x) for x in pts], [[x] for x in pts])[0]


def jacobi_sample_residual(
    p: PoissonStructure,
    n_triples: int = 50,
    n_points: int = 10,
    scale: float = 1.0,
    rng_seed: int = 0,
) -> tuple[float, Optional[dict]]:
    """Jacobi residual over random polynomial triples at random points and
    its witness, None for no point: the point, the coefficients of f, g and
    h over ``monomials(dim, JACOBI_DEGREE)`` and the residual there.  Each
    triple has its own points; no expression is built per triple.
    """
    # rng.uniform(a, b) is a + (b - a) * rng.random(); inlined, same floats
    draw = random.Random(rng_seed).random
    width = scale - -scale
    n = p.dim
    n_monos = len(monomials(n, JACOBI_DEGREE))
    coeffs, points = [], []
    for _ in range(n_triples if n_points > 0 else 0):
        c = [-1.0 + 2.0 * draw() for _ in range(3 * n_monos)]  # uniform in [-1, 1], rounded to 3 places, 0 under 0.3
        coeffs.append([round(v, 3) if abs(v) >= 0.3 else 0.0 for v in c])
        points.append([[-scale + width * draw() for _ in range(n)] for _ in range(n_points)])
    worst, at = p._jacobi_kernel([[0.0] * n + c for c in coeffs], points)
    if at is None:
        return worst, None
    c, k = coeffs[at[0]], n_monos
    return worst, {"point": points[at[0]][at[1]], "f": c[:k], "g": c[k : 2 * k], "h": c[2 * k :], "residual": worst}


@dataclass
class InvarianceReport:
    """Residual of bracket invariance under a Hamiltonian flow: the bracket
    pulled back through the flow's derivative against the bracket at the
    image point."""

    value: float
    image: list[float]


def invariance_residual(
    p: PoissonStructure,
    h: Expr,
    f1: Expr,
    f2: Expr,
    t: float,
    x: Sequence[float],
    space: SubcartesianSpace,
) -> InvarianceReport:
    """|{f1 o phi_t, f2 o phi_t}(x) - {f1,f2}(phi_t(x))| for the time-t flow
    phi_t of the Hamiltonian field of h on the space.

    ``transport_vector`` carries each unit vector e_i along the flow by the
    variational equations, which gives the column v_i = Dphi_t(x) e_i, and
    the first carry's image is phi_t(x).  The pulled-back bracket is
    sum_ij P^ij(x) (grad f1 . v_i) (grad f2 . v_j), the gradients taken at
    the image, each sum in a fixed order.
    """
    from .flow import transport_vector

    x = [float(v) for v in x]
    n = p.dim
    f1, f2 = as_expr(f1), as_expr(f2)
    at_image = compile_vector([bracket(p, f1, f2), *gradient_exprs(f1, n), *gradient_exprs(f2, n)])
    xh = hamiltonian_field(p, h)
    units = [[1.0 if k == i else 0.0 for k in range(n)] for i in range(n)]
    images, columns = zip(*(transport_vector(space, xh, t, x, e) for e in units))
    target, *grads = at_image(images[0])
    d1 = [_pairwise_sum([g * c for g, c in zip(grads[:n], v)]) for v in columns]
    d2 = [_pairwise_sum([g * c for g, c in zip(grads[n:], v)]) for v in columns]
    pm = p._value(x)
    pulled = _pairwise_sum([pm[i * n + j] * d1[i] * d2[j] for i in range(n) for j in range(n)])
    return InvarianceReport(value=abs(pulled - target), image=images[0])


# Reduction ---------------------------------------------------------------------

def monomials(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= degree, ordered by (degree, lex):
    those of a total are the gaps between n_vars - 1 bars placed among
    total + n_vars - 1 slots, whose positions run in lex order too."""
    return [tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, total + n_vars - 1)))
            for total in range(degree + 1) for bars in itertools.combinations(range(total + n_vars - 1), n_vars - 1)]


@dataclass(frozen=True)
class ReductionSetup:
    """Ambient structure plus an explicit generating set of invariants."""

    ambient: PoissonStructure
    invariants: tuple[Expr, ...]
    degree: int = 2
    rng_seed: int = 0
    certify_tol: float = CERTIFY_TOL


def reduce(setup: ReductionSetup) -> PoissonStructure:
    """Bivector on invariant space reproducing the upstairs bracket table.

    The monomials in the invariants up to ``degree`` are composed from their
    exact normal forms (``poly``), and one exact elimination (``poly.rref``)
    solves each pair's upstairs bracket over them, a dependent monomial
    taking 0.  A pair outside their span is rejected by name; the table is
    replayed on ``CERTIFY_POINTS`` sample points, an independent float
    check.  No normal form, a system past the caps and a replay value that
    is not finite are a ``PoissonError``."""
    from .poly import MAX_COLUMNS, _product, normal_form, rref

    amb, n, degree = setup.ambient, setup.ambient.dim, setup.degree
    sigma = [as_expr(s) for s in setup.invariants]
    m = len(sigma)
    if m < 1:
        raise ReductionError("need at least one invariant")
    for s in sigma:
        if max_var_index(s) >= n:
            raise ReductionError(f"invariant {to_text(s)!r} uses a variable beyond x{n}")
    pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
    brackets = [bracket(amb, sigma[a], sigma[b]) for a, b in pairs]
    memo: dict = {}  # the brackets share the invariants, the bivector and their derivatives
    forms = [normal_form(e, n, memo) for e in [*sigma, *itertools.chain(*amb.rows), *brackets]]
    if None in forms:
        names = [f"invariant {i + 1} ({to_text(s)!r})" for i, s in enumerate(sigma)] \
            + [f"ambient bivector entry ({i + 1},{j + 1})" for i in range(n) for j in range(n)] \
            + [f"the bracket of invariants {a + 1} and {b + 1}" for a, b in pairs]
        raise PoissonError(f"{names[forms.index(None)]} has no exact polynomial normal form")
    if (width := math.comb(m + degree, m)) + len(pairs) > MAX_COLUMNS:
        raise PoissonError(f"{width} monomials of {m} invariants up to degree {degree} and "
                           f"{len(pairs)} brackets are past the exact solve's {MAX_COLUMNS} columns")
    monos = monomials(m, degree)
    composed = {monos[0]: {(0,) * n: 1}}
    for exps in monos[1:]:  # each from one of lower degree, times an invariant
        i = next(i for i, k in enumerate(exps) if k)
        composed[exps] = _product(composed[tuple(k - (j == i) for j, k in enumerate(exps))], forms[i])
    if None in composed.values():
        raise PoissonError(f"a monomial of the invariants up to degree {degree} is past the normal form's caps")
    columns = [*composed.values(), *forms[m + n * n :]]
    rows: dict = {}  # an ambient monomial's coefficient in each column
    for j, form in enumerate(columns):
        for mono, c in form.items():
            rows.setdefault(mono, [0] * len(columns))[j] = c
    if (solved := rref(list(rows.values()), width)) is None:
        raise PoissonError(f"the bracket table's system of {len(rows)} ambient monomials by {len(columns)} "
                           "columns is past the exact solve's caps")
    reduced_rows, pivots = solved

    table = [[ZERO] * m for _ in range(m)]  # an all-zero side gives the shared ZERO
    for k, (a, b) in enumerate(pairs):
        if any(row[width + k] for row in reduced_rows[len(pivots) :]):
            raise ReductionError(f"bracket of invariants {a + 1} and {b + 1} ({to_text(sigma[a])!r}, "
                                 f"{to_text(sigma[b])!r}) is not expressible in the invariants up to degree "
                                 f"{degree}: no combination of their monomials equals it")
        try:
            kept = [(float(row[width + k]), monos[col])
                    for row, col in zip(reduced_rows, pivots) if row[width + k]]
        except OverflowError:
            raise PoissonError(f"a coefficient of the bracket of invariants {a + 1} and {b + 1} "
                               "is beyond the largest float") from None
        terms = [functools.reduce(mul, [pow_int(Var(i), e) for i, e in enumerate(exps) if e], ONE)
                 for _, exps in kept]
        table[a][b], table[b][a] = (dot([Const(sign * c) for c, _ in kept], terms) for sign in (1.0, -1.0))
    reduced = PoissonStructure(m, table, label=f"reduced[{amb.label}]")

    draw = box(random.Random(setup.rng_seed), [-SAMPLE_SCALE] * n, [SAMPLE_SCALE] * n)
    sigma_eval = compile_vector(sigma)
    reduced_eval, upstairs = compile_vector([table[a][b] for a, b in pairs]), compile_vector(brackets)
    worst = 0.0
    for x in [draw() for _ in range(CERTIFY_POINTS)]:
        for (a, b), r, u in zip(pairs, reduced_eval(sigma_eval(x)), upstairs(x)):
            if not math.isfinite(r - u):
                raise PoissonError(f"the replay of the bracket of invariants {a + 1} and {b + 1} "
                                   f"is not finite at {x}")
            worst = max(worst, abs(r - u))
    if not worst <= setup.certify_tol:
        raise ReductionError(f"certification failed: replay residual {worst:.3e} > {setup.certify_tol:.1e}")
    reduced.meta = {
        "certified_points": CERTIFY_POINTS,
        "certified_residual": worst,
        "degree": degree,
        "table": {f"{{s{a + 1},s{b + 1}}}": to_text(table[a][b]) for a, b in pairs},
    }
    return reduced


def leaf_sample(
    space: SubcartesianSpace,
    p: PoissonStructure,
    generators: Sequence[Expr],
    x0: Sequence[float],
    budget: int,
    rng_seed: int = 0,
    step_scale: float = 0.3,
    casimirs: Sequence[Expr] = (),
    tol_rank: float = RANK_TOL,
    options: Optional[FlowOptions] = None,
) -> OrbitSample:
    """Orbit of the Hamiltonian fields of the generators through x0, its
    span dimensions taken at the relative rank tolerance ``tol_rank``.

    Casimir expressions are evaluated along the cloud; their maximal drift
    from the seed value lands in the sample's diagnostics.
    """
    from .orbit import FieldFamily, sample_orbit

    fields = [hamiltonian_field(p, g) for g in generators]
    family = FieldFamily(space, fields)
    cloud = sample_orbit(
        family, x0, budget, step_scale=step_scale, rng_seed=rng_seed, tol_rank=tol_rank, options=options
    )
    drifts = []
    for c in casimirs:
        ev = compile_scalar(as_expr(c))
        base = ev(list(map(float, x0)))
        drift = worst_residual(abs(ev(pt) - base) for pt in cloud.points)
        drifts.append({"casimir": to_text(as_expr(c)), "seed_value": base, "max_drift": drift})
    cloud.diagnostics["casimirs"] = drifts
    cloud.diagnostics["generators"] = [to_text(as_expr(g)) for g in generators]
    return cloud
