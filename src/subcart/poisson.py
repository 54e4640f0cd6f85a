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

``invariance_residual`` pulls the bracket back through a Hamiltonian flow's
derivative, which ``flow.transport_vector`` carries by the variational
equations (Hairer, Nørsett & Wanner, *Solving ODEs I*, §I.14).
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
    ExprMatrix,
    Var,
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
    neg,
    pow_int,
    to_text,
    ZERO,
)
from .field import RANK_TOL, TangentField
from .report import worst_residual
from .space import SubcartesianSpace, box

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


class PoissonStructure(ExprMatrix):
    """An antisymmetric coefficient matrix of expressions on R^n."""

    error = PoissonError
    noun = "bivector"

    def __init__(self, dim: int, bivector: Sequence[Sequence[Expr]], label: str = "poisson"):
        super().__init__(dim, bivector)
        self.label = str(label)
        self.meta: dict = {}

    @functools.cached_property
    def _jacobi_kernel(self) -> _Table:
        """J^ijk, P^ij and (P + P^T)^ij, flat, as one table; compiled on the
        first Jacobi check, since loading a scenario does not need it."""
        n, p = self.dim, self.rows
        dp = [[gradient_exprs(e, n) for e in row] for row in p]
        schouten = []
        for i, j, k in itertools.product(range(n), repeat=3):
            pairs = ((p[i], dp[j][k]), (p[j], dp[k][i]), (p[k], dp[i][j]))
            # add and mul would drop a term with a zero factor, but build a constant for it first
            terms = [(a[l], b[l]) for l in range(n) for a, b in pairs if not (a[l].is_zero or b[l].is_zero)]
            schouten.append(dot([a for a, _ in terms], [b for _, b in terms]))
        flat = [e for row in p for e in row]
        sym = [add(p[i][j], p[j][i]) for i in range(n) for j in range(n)]
        return _Table(schouten + flat + sym)

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
    draw = box(random.Random(setup.rng_seed), [-SAMPLE_SCALE] * amb.dim, [SAMPLE_SCALE] * amb.dim)
    sigma_eval = compile_vector(sigma)
    fit_points = [draw() for _ in range(FIT_POINTS)]
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
            # an all-zero row gives the shared ZERO, whose compiled function is kept on it
            kept = [(c, exps) for c, exps in zip(coef, monos) if c != 0.0]
            pair_exprs[(a, b)] = dot([Const(float(c)) for c, _ in kept], [_monomial_expr(exps) for _, exps in kept])

    rows = [[ZERO for _ in range(m)] for _ in range(m)]
    for (a, b), e in pair_exprs.items():
        rows[a][b] = e
        rows[b][a] = neg(e)
    reduced = PoissonStructure(m, rows, label=f"reduced[{amb.label}]")

    certify_points = [draw() for _ in range(CERTIFY_POINTS)]
    sigma_at: list[list[float]] = []  # the invariants at each certify point, as the first pair reaches it

    def replay_residuals():
        for (a, b), e in pair_exprs.items():
            upstairs_eval = compile_scalar(pair_brackets[(a, b)])
            reduced_eval = compile_scalar(e)
            for i, x in enumerate(certify_points):
                if i == len(sigma_at):
                    sigma_at.append(sigma_eval(x))
                yield abs(reduced_eval(sigma_at[i]) - upstairs_eval(x))

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
        drift = worst_residual(abs(ev(pt) - base) for pt in cloud.points)
        drifts.append({"casimir": to_text(as_expr(c)), "seed_value": base, "max_drift": drift})
    cloud.diagnostics["casimirs"] = drifts
    cloud.diagnostics["generators"] = [to_text(as_expr(g)) for g in generators]
    return cloud
