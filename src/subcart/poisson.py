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
derivatives: J, P and P + P^T are compiled once per structure, on the first
Jacobi check, into one callable; each triple enters only through the
gradients and Hessians of f, g, h at the sample points.  Where every
component of J and of P + P^T evaluates to exactly 0.0, as for the shipped
Poisson bivectors with integer coefficients, the residual is exactly 0.0,
at any finite scale whose gradients do not overflow.

Reduction works with an explicit generating set of invariants sigma on a
canonical ambient space: pairwise upstairs brackets are matched against
polynomials in sigma by least squares over sampled points, integer-snapped,
and certified on fresh samples.  The result is a bivector on sigma-space
whose Hamiltonian dynamics mirror the invariant dynamics upstairs.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .expr import (
    Const,
    Expr,
    Var,
    add,
    as_expr,
    compile_scalar,
    compile_vector,
    diff,
    max_var_index,
    mul,
    neg,
    pow_int,
    to_text,
    ZERO,
)
from .field import RANK_TOL, TangentField
from .report import worst_residual
from .space import SubcartesianSpace

if TYPE_CHECKING:
    import numpy as np

    from .flow import FlowOptions
    from .orbit import OrbitSample

FIT_TOL = 1e-10
SNAP_TOL = 1e-9
CERTIFY_TOL = 1e-10
# reduction fits on FIT_POINTS and certifies on CERTIFY_POINTS uniform
# points of [-SAMPLE_SCALE, SAMPLE_SCALE]^n
FIT_POINTS = 120
CERTIFY_POINTS = 200
SAMPLE_SCALE = 1.5
JACOBI_DEGREE = 2  # the degree of the random polynomial triples of the Jacobi sample
INVARIANCE_FD_STEP = 1e-5  # the first central difference step of the bracket pullback
# sample points per block of the Jacobi sample: bounds its arrays, not its result
_BLOCK_POINTS = 160


class PoissonError(ValueError):
    pass


class ReductionError(PoissonError):
    """A pairwise invariant bracket has no representation in the invariants."""


class _Table:
    """Values of a list of expressions at many points, as an (m, len) array.

    Constant entries are filled in once; one ``compile_vector`` of the others
    is called per point.
    """

    def __init__(self, exprs: Sequence[Expr]):
        import numpy as np

        self._const = np.array([e.value if isinstance(e, Const) else 0.0 for e in exprs])
        self._where = [i for i, e in enumerate(exprs) if not isinstance(e, Const)]
        self._value = compile_vector([exprs[i] for i in self._where])

    def __call__(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        import numpy as np

        out = np.tile(self._const, (len(points), 1))
        if self._where:
            out[:, self._where] = [self._value(x) for x in points]
        return out


class PoissonStructure:
    """An antisymmetric coefficient matrix of expressions on R^n."""

    def __init__(self, dim: int, bivector: Sequence[Sequence[Expr]], label: str = "poisson"):
        if dim < 1:
            raise PoissonError(f"dimension must be positive, got {dim}")
        rows = [tuple(as_expr(e) for e in row) for row in bivector]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise PoissonError(f"bivector must be {dim}x{dim}")
        for row in rows:
            for e in row:
                if max_var_index(e) >= dim:
                    raise PoissonError(
                        f"bivector entry {to_text(e)!r} uses a variable beyond x{dim}"
                    )
        self.dim = dim
        self.bivector: tuple[tuple[Expr, ...], ...] = tuple(rows)
        self.label = str(label)
        self.meta: dict = {}

    @functools.cached_property
    def _value(self):
        return compile_vector([e for row in self.bivector for e in row])

    @functools.cached_property
    def _jacobi_kernel(self) -> _Table:
        """J^ijk, P^ij and (P + P^T)^ij, flat, as one table; compiled on the
        first Jacobi check, since loading a scenario does not need it."""
        n, p = self.dim, self.bivector
        dp = [[[diff(p[j][k], l) for l in range(n)] for k in range(n)] for j in range(n)]
        schouten = []
        for i, j, k in itertools.product(range(n), repeat=3):
            t: Expr = ZERO
            for l in range(n):
                for a, b in ((p[i][l], dp[j][k][l]), (p[j][l], dp[k][i][l]), (p[k][l], dp[i][j][l])):
                    if not (a.is_zero or b.is_zero):  # as add and mul would drop it
                        t = add(t, mul(a, b))
            schouten.append(t)
        flat = [e for row in p for e in row]
        sym = [add(p[i][j], p[j][i]) for i in range(n) for j in range(n)]
        return _Table(schouten + flat + sym)

    def matrix_at(self, point: Sequence[float]) -> np.ndarray:
        import numpy as np

        return np.array(self._value(point), dtype=float).reshape(self.dim, self.dim)

    def jacobi_tensors(
        self, points: Sequence[Sequence[float]]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """J^ijk, P^ij and (P + P^T)^ij at each point: shapes (m, n, n, n),
        (m, n, n) and (m, n, n) for m points."""
        n, n3 = self.dim, self.dim**3
        vals = self._jacobi_kernel(points)
        return (
            vals[:, :n3].reshape(-1, n, n, n),
            vals[:, n3 : n3 + n * n].reshape(-1, n, n),
            vals[:, n3 + n * n :].reshape(-1, n, n),
        )

    def antisymmetry_residual(self, points: Sequence[Sequence[float]]) -> float:
        import numpy as np

        return worst_residual(float(np.max(np.abs(m + m.T))) for m in map(self.matrix_at, points))

    @classmethod
    def canonical(cls, k: int, label: str = "canonical") -> "PoissonStructure":
        """Canonical structure on R^{2k} with coordinates (q1..qk, p1..pk)."""
        n = 2 * k
        rows = [[ZERO for _ in range(n)] for _ in range(n)]
        for i in range(k):
            rows[i][k + i] = Const(1.0)
            rows[k + i][i] = Const(-1.0)
        return cls(n, rows, label)

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "bivector": [[to_text(e) for e in row] for row in self.bivector],
            "label": self.label,
        }


def bracket(p: PoissonStructure, f: Expr, g: Expr) -> Expr:
    """Symbolic bracket {f,g} = sum_ij P^ij d_i f d_j g."""
    f = as_expr(f)
    g = as_expr(g)
    for e, what in ((f, "first"), (g, "second")):
        if max_var_index(e) >= p.dim:
            raise PoissonError(
                f"{what} argument {to_text(e)!r} uses a variable beyond x{p.dim}"
            )
    df = [diff(f, i) for i in range(p.dim)]
    dg = [diff(g, j) for j in range(p.dim)]
    total: Expr = ZERO
    for i in range(p.dim):
        for j in range(p.dim):
            total = add(total, mul(p.bivector[i][j], mul(df[i], dg[j])))
    return total


def hamiltonian_field(p: PoissonStructure, f: Expr, label: Optional[str] = None) -> TangentField:
    """The field X_f with X_f . h = {f,h}: components sum_i P^ij d_i f."""
    f = as_expr(f)
    if max_var_index(f) >= p.dim:
        raise PoissonError(f"hamiltonian {to_text(f)!r} uses a variable beyond x{p.dim}")
    df = [diff(f, i) for i in range(p.dim)]
    comps = []
    for j in range(p.dim):
        c: Expr = ZERO
        for i in range(p.dim):
            c = add(c, mul(p.bivector[i][j], df[i]))
        comps.append(c)
    return TangentField(label if label is not None else f"X[{to_text(f)}]", comps)


def _cyclic_sums(
    p: PoissonStructure, points: list[list[float]], grads: np.ndarray, hessians: np.ndarray
) -> np.ndarray:
    """|{f,{g,h}} + cyc| at each point from the triple's jets there.

    ``grads`` has shape (m, 3, n) and ``hessians`` (m, 3, n, n), f, g, h in
    that order.  Each term is contracted from the right, starting at J or
    P + P^T, so where those are exactly 0.0 every partial product is 0.0 and
    large gradients cannot make inf * 0.  Overflow gives inf or NaN without
    a warning; the fold keeps it.
    """
    import numpy as np

    j, pm, sym = p.jacobi_tensors(points)
    with np.errstate(all="ignore"):
        t = np.einsum("pijk,pk->pij", j, grads[:, 2])
        t = np.einsum("pij,pj->pi", t, grads[:, 1])
        total = np.einsum("pi,pi->p", t, grads[:, 0])
        # f_u P^ux g_xy (P+P^T)^yv h_v for (f,g,h), (g,h,f), (h,f,g)
        right = np.einsum("pyv,pav->pay", sym, grads)
        for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            t = np.einsum("pxy,py->px", hessians[:, b], right[:, c])
            t = np.einsum("pux,px->pu", pm, t)
            total = total + np.einsum("pu,pu->p", t, grads[:, a])
        return np.abs(total)


def jacobi_residual(
    p: PoissonStructure,
    f1: Expr,
    f2: Expr,
    f3: Expr,
    points: Sequence[Sequence[float]],
) -> float:
    """Max over points of |{f1,{f2,f3}} + cyc|, from the Schouten contraction.

    The gradients and Hessians of the triple are one ``compile_vector``.
    """
    import numpy as np

    fs = [as_expr(f) for f in (f1, f2, f3)]
    for f in fs:
        if max_var_index(f) >= p.dim:
            raise PoissonError(f"argument {to_text(f)!r} uses a variable beyond x{p.dim}")
    pts = [list(map(float, x)) for x in points]
    if not pts:
        return 0.0
    n = p.dim
    grads = [diff(f, i) for f in fs for i in range(n)]
    vals = _Table(grads + [diff(g, j) for g in grads for j in range(n)])(pts)
    d = vals[:, : 3 * n].reshape(-1, 3, n)
    hess = vals[:, 3 * n :].reshape(-1, 3, n, n)
    return float(np.max(_cyclic_sums(p, pts, d, hess)))


@functools.lru_cache(maxsize=None)
def _monomial_jets(n_vars: int) -> _Table:
    """Gradient then Hessian of each monomial of ``monomials(n_vars,
    JACOBI_DEGREE)``, flat in that order: len(monos) * (n + n^2) values per
    point."""
    out: list[Expr] = []
    for exps in monomials(n_vars, JACOBI_DEGREE):
        grad = [diff(_monomial_expr(exps), i) for i in range(n_vars)]
        out += grad
        out += [diff(g, j) for g in grad for j in range(n_vars)]
    return _Table(out)


def jacobi_sample_residual(
    p: PoissonStructure,
    n_triples: int = 50,
    n_points: int = 10,
    scale: float = 1.0,
    rng_seed: int = 0,
) -> float:
    """Jacobi residual over random polynomial triples at random points.

    Each triple is three coefficient vectors over ``monomials(dim, JACOBI_DEGREE)``
    and has its own points; its jets are those coefficients contracted with
    the monomials' gradient and Hessian tables.  No expression is built per
    triple.
    """
    import numpy as np

    if n_points < 1:
        return 0.0
    # rng.uniform(a, b) is a + (b - a) * rng.random(); inlined, same floats
    draw = random.Random(rng_seed).random
    width = scale - -scale
    n = p.dim
    n_monos = len(monomials(n, JACOBI_DEGREE))
    coeffs: list[list[list[float]]] = []
    pts: list[list[float]] = []
    for _ in range(n_triples):
        coeffs.append([_random_coeffs(n_monos, draw) for _ in range(3)])
        pts += [[-scale + width * draw() for _ in range(n)] for _ in range(n_points)]
    table = _monomial_jets(n)
    # a block of triples at a time keeps the (points, monomials, n + n^2) table small
    per_block = max(1, _BLOCK_POINTS // n_points)
    worst = []
    for t in range(0, n_triples, per_block):
        c = np.array(coeffs[t : t + per_block], dtype=float)
        block = pts[t * n_points : (t + len(c)) * n_points]
        tab = table(block).reshape(len(c), n_points, n_monos, n + n * n)
        with np.errstate(all="ignore"):
            jets = np.einsum("tam,tkmd->tkad", c, tab).reshape(-1, 3, n + n * n)
        hess = jets[:, :, n:].reshape(-1, 3, n, n)
        worst.append(float(np.max(_cyclic_sums(p, block, jets[:, :, :n], hess))))
    return worst_residual(worst)


def _random_coeffs(n_monos: int, draw: Callable[[], float]) -> list[float]:
    """Uniform coefficients in [-1, 1] rounded to 3 places; those under 0.3
    in size are 0."""
    out = []
    for _ in range(n_monos):
        c = -1.0 + 2.0 * draw()
        out.append(round(c, 3) if abs(c) >= 0.3 else 0.0)
    return out


@dataclass
class InvarianceReport:
    """Residual of bracket invariance under a Hamiltonian flow.

    value is the Richardson-extrapolated residual of the pulled-back
    bracket against the bracket at the image point; error_bar estimates the
    finite-difference truncation left in it.
    """

    value: float
    error_bar: float
    t: float
    image: list[float]

    def __float__(self) -> float:
        return self.value


def invariance_residual(
    p: PoissonStructure,
    h: Expr,
    f1: Expr,
    f2: Expr,
    t: float,
    x: Sequence[float],
    space: Optional[SubcartesianSpace] = None,
    options: Optional[FlowOptions] = None,
) -> InvarianceReport:
    """|{f1 o phi_t, f2 o phi_t}(x) - {f1,f2}(phi_t(x))| by numeric pullback.

    The base trajectory respects the given space; the finite-difference
    probe trajectories from perturbed basepoints are integrated in the
    ambient space, since coordinate perturbations leave thin varieties.
    """
    import numpy as np

    from .flow import flow_map

    x = np.asarray(x, dtype=float)
    xh = hamiltonian_field(p, h)
    image = flow_map(space, xh, x, t, options)
    target = compile_scalar(bracket(p, f1, f2))(image.tolist())
    ef1 = compile_scalar(as_expr(f1))
    ef2 = compile_scalar(as_expr(f2))
    pm = p.matrix_at(x)

    def pulled_bracket(step: float) -> float:
        d1 = np.zeros(p.dim)
        d2 = np.zeros(p.dim)
        for i in range(p.dim):
            e = np.zeros(p.dim)
            e[i] = step
            plus = flow_map(None, xh, x + e, t, options)
            minus = flow_map(None, xh, x - e, t, options)
            d1[i] = (ef1(plus.tolist()) - ef1(minus.tolist())) / (2.0 * step)
            d2[i] = (ef2(plus.tolist()) - ef2(minus.tolist())) / (2.0 * step)
        return float(d1 @ pm @ d2)

    b_h = pulled_bracket(INVARIANCE_FD_STEP)
    b_h2 = pulled_bracket(INVARIANCE_FD_STEP / 2.0)
    extrapolated = b_h2 + (b_h2 - b_h) / 3.0
    return InvarianceReport(
        value=abs(extrapolated - target),
        error_bar=abs(b_h2 - b_h) / 3.0,
        t=float(t),
        image=[float(v) for v in image],
    )


# Reduction ---------------------------------------------------------------------

def monomials(n_vars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= degree, ordered by (degree, lex)."""
    out: list[tuple[int, ...]] = []
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=n_vars):
            if sum(exps) == total:
                out.append(exps)
    return out


def _monomial_expr(exps: Sequence[int]) -> Expr:
    e: Expr = Const(1.0)
    for i, k in enumerate(exps):
        if k:
            e = mul(e, pow_int(Var(i), k))
    return e


@dataclass(frozen=True)
class ReductionSetup:
    """Ambient structure plus an explicit generating set of invariants."""

    ambient: PoissonStructure
    invariants: tuple[Expr, ...]
    degree: int = 2
    rng_seed: int = 0
    fit_tol: float = FIT_TOL
    certify_tol: float = CERTIFY_TOL


def reduce(setup: ReductionSetup) -> PoissonStructure:
    """Bivector on invariant space reproducing the upstairs bracket table.

    For each invariant pair the upstairs bracket is matched by least
    squares against monomials in the invariants (minimum-norm solution on
    the sampled image variety), snapped to nearby integers, and certified
    on fresh sample points.  Pairs with no representation within fit_tol
    are rejected by name.
    """
    import numpy as np

    amb = setup.ambient
    sigma = [as_expr(s) for s in setup.invariants]
    m = len(sigma)
    if m < 1:
        raise ReductionError("need at least one invariant")
    for s in sigma:
        if max_var_index(s) >= amb.dim:
            raise ReductionError(f"invariant {to_text(s)!r} uses a variable beyond x{amb.dim}")
    rng = random.Random(setup.rng_seed)
    sigma_eval = compile_vector(sigma)

    def draw(count: int) -> list[list[float]]:
        return [
            [rng.uniform(-SAMPLE_SCALE, SAMPLE_SCALE) for _ in range(amb.dim)]
            for _ in range(count)
        ]

    fit_points = draw(FIT_POINTS)
    sig_vals = np.array([sigma_eval(x) for x in fit_points])
    monos = monomials(m, setup.degree)
    design = np.column_stack(
        [np.prod(sig_vals ** np.array(exps), axis=1) for exps in monos]
    )

    pair_exprs: dict[tuple[int, int], Expr] = {}
    pair_brackets: dict[tuple[int, int], Expr] = {}
    for a in range(m):
        for b in range(a + 1, m):
            upstairs = bracket(amb, sigma[a], sigma[b])
            pair_brackets[(a, b)] = upstairs
            upstairs_eval = compile_scalar(upstairs)
            rhs = np.array([upstairs_eval(x) for x in fit_points])
            coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
            fit = float(np.max(np.abs(design @ coef - rhs))) if len(rhs) else 0.0
            if fit > setup.fit_tol:
                raise ReductionError(
                    f"bracket of invariants {a + 1} and {b + 1} "
                    f"({to_text(sigma[a])!r}, {to_text(sigma[b])!r}) is not expressible "
                    f"in the invariants up to degree {setup.degree}: fit residual {fit:.3e}"
                )
            snapped = np.array(
                [round(c) if abs(c - round(c)) <= SNAP_TOL else c for c in coef]
            )
            if float(np.max(np.abs(design @ snapped - rhs))) <= setup.fit_tol:
                coef = snapped
            e: Expr = ZERO
            for c, exps in zip(coef, monos):
                if c == 0.0:
                    continue
                e = add(e, mul(Const(float(c)), _monomial_expr(exps)))
            pair_exprs[(a, b)] = e

    rows = [[ZERO for _ in range(m)] for _ in range(m)]
    for (a, b), e in pair_exprs.items():
        rows[a][b] = e
        rows[b][a] = neg(e)
    reduced = PoissonStructure(m, rows, label=f"reduced[{amb.label}]")

    certify_points = draw(CERTIFY_POINTS)

    def replay_residuals():
        for (a, b), e in pair_exprs.items():
            upstairs_eval = compile_scalar(pair_brackets[(a, b)])
            reduced_eval = compile_scalar(e)
            for x in certify_points:
                yield abs(reduced_eval(sigma_eval(x)) - upstairs_eval(x))

    worst = worst_residual(replay_residuals())
    if not worst <= setup.certify_tol:
        raise ReductionError(
            f"certification failed: replay residual {worst:.3e} > {setup.certify_tol:.1e}"
        )
    reduced.meta = {
        "certified_points": CERTIFY_POINTS,
        "certified_residual": worst,
        "fit_points": FIT_POINTS,
        "degree": setup.degree,
        "table": {
            f"{{s{a + 1},s{b + 1}}}": to_text(e) for (a, b), e in sorted(pair_exprs.items())
        },
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
        drift = worst_residual(abs(ev(pt.tolist()) - base) for pt in cloud.points)
        drifts.append({"casimir": to_text(as_expr(c)), "seed_value": base, "max_drift": drift})
    cloud.diagnostics["casimirs"] = drifts
    cloud.diagnostics["generators"] = [to_text(as_expr(g)) for g in generators]
    return cloud
