"""Dense float routines, loaded by the commands that run them: a Jacobi
rotation, symmetric eigenvalues, singular values and ranks, a least-squares
fit and generated Jacobi and nearest-point kernels.  Every sum is exactly
rounded or in a fixed order, so results are the same on every machine
without numpy."""

from __future__ import annotations

import functools
import math
import operator
import sys
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, Optional, Sequence

from .expr import Expr, _define, _norm, _pairwise_sum, vector_source
from .space import _solve

_SWEEPS = 30  # a bound on Jacobi sweeps; quadratic convergence needs a handful


def _rotation(p: float, q: float, r: float) -> tuple[float, float]:
    """(c, s) of the Jacobi rotation (Jacobi 1846) that zeroes the
    off-diagonal r != 0 of [[p, r], [r, q]]: columns a, b become c a - s b and
    s a + c b, as ``_singular_values`` rotates them."""
    z = (q - p) / (r + r)
    t = math.copysign(1.0, z) / (abs(z) + math.sqrt(1.0 + z * z))
    c = 1.0 / math.sqrt(1.0 + t * t)
    return c, c * t


def _smallest_eigenvalue(a: list[list[float]]) -> float:
    """The smallest eigenvalue of the symmetric float matrix a, by cyclic
    Jacobi (Jacobi 1846): each off-diagonal entry above eps times the root of
    its diagonal entries' product is rotated to 0 with ``_rotation`` until a
    sweep rotates none, so a diagonal a gives its own entries."""
    m = len(a)
    for _ in range(_SWEEPS):
        rotated = False
        for i, k in combinations(range(m), 2):
            p, q, r = a[i][i], a[k][k], a[i][k]
            if abs(r) > sys.float_info.epsilon * math.sqrt(abs(p)) * math.sqrt(abs(q)):
                c, s = _rotation(p, q, r)
                for row in a:  # the columns, then the rows from them, and the 2 x 2 block
                    row[i], row[k] = c * row[i] - s * row[k], s * row[i] + c * row[k]
                a[i], a[k] = [row[i] for row in a], [row[k] for row in a]
                a[i][i], a[k][k], a[i][k], a[k][i] = p - s / c * r, q + s / c * r, 0.0, 0.0
                rotated = True
        if not rotated:
            break
    return min(a[i][i] for i in range(m))


# the range of a matrix's largest magnitude, and of the square root of its
# sum of squares, in which its singular values are taken unscaled: squares
# of values down to 1e-60 of the largest stay normal, none overflows
_MAGNITUDES = (2.0**-300, 2.0**300)


def _rank_of(s: list[float], tol: float) -> int:
    """The number of singular values s, largest first, above tol times the largest."""
    return 0 if s[0] <= 0.0 else sum(v > tol * s[0] for v in s)


def _rank(columns: list[list[float]], tol: float) -> int:
    """``_rank_of`` the matrix with these columns, lists of floats, or -1
    where an entry is not finite.  Its singular values are taken at the power
    of 2 that puts its largest magnitude in [0.5, 1), which scales every one
    alike and exactly, so none overflows where the matrix is near the
    largest float."""
    flat = [v for c in columns for v in c]
    if not all(map(math.isfinite, flat)):
        return -1
    e = math.frexp(max(map(abs, flat)))[1]
    return _rank_of(_singular_values([[math.ldexp(v, -e) for v in c] for c in columns]), tol)


def _singular_values(columns: Sequence[Sequence[float]]) -> list[float]:
    """The singular values, largest first, of the matrix with these columns,
    lists of finite floats: as many as its smaller dimension.

    One-sided Jacobi (Hestenes 1958): pairs of columns, of the transpose
    where columns outnumber rows, are rotated until every pair is orthogonal
    to ``len * eps``; the singular values are then the column norms.  It
    takes small singular values at least as accurately as LAPACK's
    bidiagonal route (Demmel and Veselic 1992).  A matrix whose largest
    magnitude is out of ``_MAGNITUDES`` is scaled by a power of 2 first, and
    the values back.  Where the columns are already orthogonal no rotation
    is made, so diag(1, x) gives exactly 1 and |x|.
    """
    cols = [list(c) for c in (zip(*columns) if len(columns) > len(columns[0]) else columns)]
    top = max(abs(v) for c in cols for v in c)
    if top == 0.0:
        return [0.0] * len(cols)
    e = 0 if _MAGNITUDES[0] <= top <= _MAGNITUDES[1] else math.frexp(top)[1]
    if e:
        cols = [[math.ldexp(v, -e) for v in c] for c in cols]
    cutoff = len(cols[0]) * sys.float_info.epsilon
    for _ in range(_SWEEPS):
        rotated = False
        for i, j in combinations(range(len(cols)), 2):
            a, b = cols[i], cols[j]
            p, q = _pairwise_sum([x * x for x in a]), _pairwise_sum([y * y for y in b])
            r = _pairwise_sum([x * y for x, y in zip(a, b)])
            if abs(r) <= cutoff * math.sqrt(p) * math.sqrt(q):
                continue
            c, s = _rotation(p, q, r)
            cols[i] = [c * x - s * y for x, y in zip(a, b)]
            cols[j] = [s * x + c * y for x, y in zip(a, b)]
            rotated = True
        if not rotated:
            break
    return sorted((math.ldexp(_norm(c), e) for c in cols), reverse=True)


def _min_norm_fits(cols: list[list[float]], rhss: list[list[float]]) -> list[list[float]]:
    """The minimum-norm least-squares coefficients over the columns ``cols``
    of each right side, as ``lstsq`` gives them, for entries below 2^500 in
    size: corrected semi-normal equations (Bjorck 1996, section 6.6).  Each
    column is scaled by the power of 2 that puts its norm in [0.5, 1), which
    is exact, and one Cholesky of their Gram matrix with diagonal pivoting
    stops where every pivot left is at most k eps; each column left over gives
    a null vector, and a right side's fit less its projection on them is the
    minimum-norm one.  Every dot is a ``math.fsum``, exactly rounded, so the
    rank is the same on every machine."""
    k, dot = len(cols), lambda u, v: math.fsum(map(operator.mul, u, v))
    shifts = [math.frexp(math.sqrt(dot(c, c)))[1] for c in cols]
    unit = [[math.ldexp(v, -e) for v in c] for c, e in zip(cols, shifts)]
    g = [[0.0] * k for _ in range(k)]
    for i, j in combinations_with_replacement(range(k), 2):
        g[i][j] = g[j][i] = dot(unit[i], unit[j])
    order, rank = list(range(k)), 0  # the column at each pivot position; the pivots taken
    for r in range(k):
        top = max(range(r, k), key=lambda i: g[i][i])
        if not g[top][top] > k * sys.float_info.epsilon:
            break
        for row in (g, *g):  # rows, then columns
            row[r], row[top] = row[top], row[r]
        order[r], order[top] = order[top], order[r]
        d = g[r][r] = math.sqrt(g[r][r])
        for i in range(r + 1, k):
            g[i][r] = g[r][i] = g[i][r] / d
            for j in range(r + 1, i + 1):
                g[i][j] = g[j][i] = g[i][j] - g[i][r] * g[j][r]
        rank = r + 1
    pivoted = [unit[i] for i in order[:rank]]

    def fit(b: list[float]) -> list[float]:
        """b's coefficients over ``cols``: a solve over the pivoted columns,
        then corrections from the residual until one moves them by at most
        sqrt(eps) of their size, unscaled; the rest 0."""
        x = [0.0] * rank
        for _ in range(5 if any(b) else 0):  # a zero side has zero coefficients
            y: list[float] = []
            for i in range(rank):  # L y = A^T b, then L^T y' = y
                y.append((dot(pivoted[i], b) - dot(g[i][:i], y)) / g[i][i])
            for i in reversed(range(rank)):
                y[i] = (y[i] - dot(g[i][i + 1 : rank], y[i + 1 :])) / g[i][i]
            x = [u + v for u, v in zip(x, y)]
            if max(map(abs, y), default=0.0) <= 2.0**-26 * max(map(abs, x), default=0.0):
                break
            b = _residual(pivoted, b, y)
        out = [0.0] * k
        for r, i in enumerate(order[:rank]):
            out[i] = math.ldexp(x[r], -shifts[i])
        return out

    # a dependent column less its fit over the pivoted ones is a null vector
    nulls = [[u - float(i == d) for i, u in enumerate(fit(cols[d]))] for d in order[rank:]]
    out = []
    for b in rhss:
        x = fit(b)
        if nulls:
            t = _solve([[dot(u, v) for v in nulls] for u in nulls], [dot(z, x) for z in nulls])
            for tz, z in zip(t, nulls):
                x = [u - tz * v for u, v in zip(x, z)]
        out.append(x)
    return out


def _residual(cols: list[list[float]], b: list[float], x: list[float]) -> list[float]:
    """b less the columns times x, a column at a time, those with x 0 left out."""
    for col, v in zip(cols, x):
        b = [u - v * c for u, c in zip(b, col)] if v else b
    return b


def _jacobi_source(n: int, schouten: list[Expr], flat: list[Expr], sym: list[Expr], monos: list) -> str:
    """Source of ``_f(jets, points)``: the largest |{f,{g,h}} + cyc| over
    triples and points and the (triple, point) indices where it is first
    reached, or the first NaN and its indices; None for no point.  ``jets[t]``
    is a center c and the coefficients of f, g and h over the monomials
    ``monos`` of degree <= 2 in x - c, ``points[t]`` the triple's points.
    Each Hessian H is formed once per triple and each gradient is a + H (x -
    c), summed in the order of ``monos``.  The cyclic sum is contracted from
    the right over scalar locals, each sum in index order: J^ijk h_k, then
    g_j, then f_i, and for each cyclic order (P+P^T)^yv h_v, then g_xy, P^ux
    and f_u.  A term with a symbolic zero of J, P or P + P^T is left out, and
    so is every product it feeds; ``PoissonStructure._jacobi_exprs`` makes
    each component whose exact normal form is 0 such a zero.  Only the
    gradients, Hessian entries and offsets x - c that a term left in reads
    are formed, so a bivector whose J and P + P^T are all zeros gives a loop
    with no arithmetic and the residual 0.0."""
    idx, body, read = range(n), [], set()

    def let(name: str, pairs, lines: list = body, lead: tuple = ()) -> Optional[str]:
        """``name`` = ``lead`` and the in-order sum of the products ``pairs``
        without a None, appended to ``lines``, or None for no term; every name
        a term reads goes to ``read``."""
        pairs = [pair for pair in pairs if None not in pair]
        read.update(lead, *pairs)
        terms = [*lead, *(f"{a} * {b}" for a, b in pairs)]
        lines.extend([f"{name} = {' + '.join(terms)}"] if terms else [])
        return name if terms else None

    j, s = ([None if e.is_zero else e for e in part] for part in (schouten, sym))
    pm = [None if e.is_zero or not any(s) else e for e in flat]  # P is read only after (P+P^T) h
    used = [e for e in j + pm + s if e is not None]
    lines, values = vector_source(used, "x{}")
    value = dict(zip(map(id, used), values))
    j, pm, s = ([None if e is None else value[id(e)] for e in part] for part in (j, pm, s))
    u = [let(f"u{i}", [(let(f"t{i}_{k}", [(j[(i * n + k) * n + l], f"h{l}") for l in idx]), f"g{k}") for k in idx])
         for i in idx]
    parts = [let("s0", [(u[i], f"f{i}") for i in idx])]
    right = {a: [let(f"r{a}{y}", [(s[y * n + v], f"{a}{v}") for v in idx]) for y in idx] for a in "fgh"}
    for a, b, c in ("fgh", "ghf", "hfg"):
        v = [let(f"v{a}{x}", [(f"H{b}{x}_{y}", right[c][y]) for y in idx]) for x in idx]
        w = [let(f"w{a}{i}", [(pm[i * n + x], v[x]) for x in idx]) for i in idx]
        parts.append(let(f"s{a}", [(w[i], f"{a}{i}") for i in idx]))
    # c{a}{m}: f's, g's or h's coefficient of monomial m; the gradients a
    # term reads, then the Hessian entries and offsets they or a term read
    head = [", ".join([f"c{i}" for i in idx] + [f"c{a}{m}" for a in "fgh" for m in range(len(monos))]) + ", = jet"]
    hessian, grads = {}, []
    for a, i in product("fgh", idx):
        pairs = []
        for m, exps in enumerate(monos):
            if sum(exps) == 2 and exps[i]:
                k = i if exps[i] == 2 else next(k for k in idx if k != i and exps[k])
                hessian[f"H{a}{i}_{k}"] = f"{'2.0 * ' if k == i else ''}c{a}{m}"
                pairs.append((f"H{a}{i}_{k}", f"e{k}"))
        if f"{a}{i}" in read:
            let(f"{a}{i}", pairs, grads, (f"c{a}{monos.index(tuple(int(k == i) for k in idx))}",))
    head += [f"{name} = {rhs}" for name, rhs in hessian.items() if name in read]
    offsets = [f"e{i} = x{i} - c{i}" for i in idx if f"e{i}" in read]
    return "\n".join([
        "def _f(jets, points):",
        "    worst, at = -1.0, None",
        "    for ti, jet in enumerate(jets):",
        *(f"        {line}" for line in head),
        f"        for pk, ({''.join(f'x{i}, ' for i in idx)}) in enumerate(points[ti]):",
        *(f"            {line}" for line in offsets + grads + lines + body),
        f"            r = abs({' + '.join(p for p in parts if p is not None) or '0.0'})",
        "            if r > worst or r != r:",
        "                worst, at = r, (ti, pk)",
        "                if r != r:",
        "                    return r, at",
        "    return max(worst, 0.0), at\n"])


@functools.cache
def _nearest(n: int) -> Callable[[Sequence[Sequence[float]], list[float]], float]:
    """``_f(cloud, p)``: the least pairwise sum of squares of c - p over the cloud's points c."""
    total = _pairwise_sum([f"(c{i} - p{i}) * (c{i} - p{i})" for i in range(n)],
                          lambda s, t: t if s is None else f"({s} + {t})", None)
    cs, ps = ("".join(f"{v}{i}, " for i in range(n)) for v in "cp")
    return _define(f"def _f(cloud, p):\n    {ps}= p\n    return min({total} for {cs}in cloud)\n", f"<nearest n={n}>")
