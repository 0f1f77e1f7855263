"""First-order optimality checks: multiplier recovery and stationarity residuals.

At a candidate maximizer the per-point identity

    sum_{j != k} 1/(z_j - z_k) = sum_{pairs {j,k} active} lambda_{jk} (conj z_j - conj z_k)

must hold with nonnegative multipliers supported on the active pairs
(squared distance within tolerance of 4).  Multipliers are recovered by
nonnegative least squares on the 2n real equations; the stationarity
residual is the largest per-point modulus of the unexplained part.

A diameter graph has at most n edges and each column of the system has four
nonzeros, so the least-squares solves use the normal equations, assembled
pair by pair and Cholesky-factored, with one step of iterative refinement.
Two pairs couple in the normal matrix only when they share a point, and a
maximizer's diameter graph is a caterpillar or an odd cycle with pendants,
so a row has a few nonzeros.  Fits of more than one Cholesky block of pairs
are ordered by direction, folded, which makes the matrix banded, and
factored a block of columns at a time, each block updating only the later
rows coupled to it.  Numerically dependent columns, or products
past the float range, fall back to np.linalg.lstsq on the dense system, and
more than 2n - 3 pairs, always dependent, go there before the normal matrix
is built.
verify, active_set and recover_multipliers read the pair reductions that
a PointConfig keeps (geometry._memo) and hold no n x n array: its
distances, formed once, give the distinctness test and, at the default
tolerance, the active set, filtered from the diameter-graph edge
candidates; the stationarity sums come with the first pass, or from at
most one later pass of differences and reciprocals.  Past the diameter
_MEMO_DIAMETER, when the memo keeps no edges (more than n), or at another
tolerance, the active set takes a pass of its own, and at another
tolerance so does verify's whole reduction.  _fit is the one entry to the
nonnegative least squares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, SingularConfigError
from .geometry import _TOL, PointConfig, _distinct_pairs, _memo, _pair_rows
from .geometry import stationarity_lhs  # noqa: F401, re-exported

Pair = tuple[int, int]


@dataclass(frozen=True)
class KKTReport:
    n: int
    active_set: tuple
    multipliers: dict
    stationarity_residual: float
    residual_norm2: float
    min_multiplier: float
    complementarity_violation: float
    zero_degree_points: tuple

    @property
    def structural_failure(self) -> bool:
        """True when some point has no incident active pair (stationarity impossible)."""
        return len(self.zero_degree_points) > 0


# the largest diameter at which the active set at _TOL is filtered from the
# memo's diameter-graph edge candidates.  Those are all pairs with distance
# at least (1 - _TOL) D, and at D <= 2 (1 + 1e-10) that cut is below
# 2 (1 - 8.9e-10), while a pair with squared distance q >= 4 (1 - _TOL) is
# at distance 2 sqrt(1 - _TOL) > 2 (1 - 5.1e-10) or more: every active pair
# is a candidate, by a margin far above the rounding of either test
_MEMO_DIAMETER = 2.0 * (1.0 + 1e-10)


def active_set(config: PointConfig, rel_tol: float = 1e-9) -> list[Pair]:
    """Pairs with squared distance at least 4 (1 - rel_tol).

    The configuration is expected to be normalized to diameter 2.
    """
    if rel_tol == _TOL:
        return _memo_active(config, _memo(config))
    return _pair_rows(config.as_complex, active=rel_tol).active


def _memo_active(config: PointConfig, memo) -> list[Pair]:
    """active_set at _TOL, from the edges on config's memo up to the
    diameter _MEMO_DIAMETER, else, or when the memo keeps no edges, from a
    pass of its own."""
    if memo.diameter <= _MEMO_DIAMETER and memo.edge_pairs is not None:
        keep = np.square(memo.edge_dist) >= 4.0 * (1.0 - _TOL)
        return list(map(tuple, memo.edge_pairs[keep].tolist()))
    return _pair_rows(config.as_complex, active=_TOL).active


def _pair_arrays(pairs):
    """The first and the second indices of a list of pairs, as two int arrays."""
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _column_matrix(w, a, b, n):
    """Real (2n, m) matrix whose column c holds w_c at point a_c and -w_c at
    point b_c: rows are the real then the imaginary parts, one per point."""
    m = len(a)
    A = np.zeros((2, n, m))
    c = np.arange(m)
    A[0, a, c], A[1, a, c] = w.real, w.imag
    A[0, b, c], A[1, b, c] = -w.real, -w.imag
    return A.reshape(2 * n, m)


def _constraint_matrix(z, a, b):
    """Real (2n, m) Jacobian of the gaps |z_a - z_b|^2 - 4: rows are the x
    then the y coordinates, one column per pair.  The gradients in z_a are
    2 (z_a - z_b), those in z_b their negatives."""
    # each part doubled on its own: a complex product by 2 can flip the sign
    # of a zero part, which the Newton step's least-squares solver reads.  The
    # plain 2 * (z[a] - z[b]) changed none of the 1,444 rows of the optimizer
    # panel in CHANGES.md, so this guards byte equality, not a measured move
    return _column_matrix((2 * (z[a] - z[b]).view(float)).view(complex), a, b, len(z))


def _constraint_gaps(z, a, b):
    """|z_a - z_b|^2 - 4 per pair."""
    # rounded like the scalar abs(w) ** 2: np.hypot is the scalar complex
    # abs, and the float power (libm pow) can differ from the vectorized
    # square in the last bit, which Newton would carry into its result.  Past
    # the float range the power raises OverflowError, and the product is inf.
    # np.abs(z[a] - z[b]) ** 2 - 4.0 changed 832 of the 1,444 rows of the
    # optimizer panel in CHANGES.md: 17 result active sets, 11 iteration
    # counts, log Delta-bar by up to 1.4e-13 and, through near-ties, the
    # ranking of graphs in 7 of its 12 sweeps
    w = z[a] - z[b]
    return np.array([x ** 2 if x < 1e150 else x * x
                     for x in np.hypot(w.real, w.imag).tolist()]) - 4.0


def _column_sum(w, a, b, x, n):
    """Complex n-vector sum_c x_c (w_c at point a_c, -w_c at point b_c)."""
    out = np.zeros(n, dtype=complex)
    np.add.at(out, a, w * x)
    np.subtract.at(out, b, w * x)
    return out


def _column_dots(w, a, b, r):
    """A^T [r.real; r.imag] for A = _column_matrix(w, a, b, len(r))."""
    return (w.conj() * (r[a] - r[b])).real


def _normal_matrix(w, a, b):
    """A^T A for A = _column_matrix(w, a, b, n), without forming A.

    Two distinct pairs share at most one point, so an off-diagonal entry is
    the one product at their shared point; the products are gathered point by
    point, over the ordered pairs of the columns meeting there."""
    m = len(w)
    cols = np.concatenate([np.arange(m), np.arange(m)])
    pts = np.concatenate([a, b])
    order = np.argsort(pts, kind="stable")
    cols, pts = cols[order], pts[order]
    vals = np.concatenate([w, -w])[order]
    deg = np.bincount(pts)
    run = deg[pts]  # entries at the point of each entry, this one included
    first = (np.cumsum(deg) - deg)[pts]  # the first of those, in sorted order
    # entry i, repeated once per entry j at its point
    i = np.repeat(np.arange(2 * m), run)
    j = first[i] + np.arange(len(i)) - np.repeat(np.cumsum(run) - run, run)
    prod = vals.real[i] * vals.real[j] + vals.imag[i] * vals.imag[j]
    return np.bincount(cols[i] * m + cols[j], weights=prod, minlength=m * m).reshape(m, m)


# a Cholesky pivot at most this fraction of the largest diagonal entry of the
# normal matrix marks its columns as numerically dependent
_PIVOT_FLOOR = 1e-10
# rows per diagonal block of the Cholesky factor
_BLOCK = 64


def _cholesky_factor(N):
    """Lower-triangular C with C C^T = N, and the inverses of its diagonal
    blocks of _BLOCK rows.  Raises LinAlgError when N is not numerically
    positive definite.

    The factor is right-looking, a block of columns at a time, in place of
    N, which it overwrites: np.linalg.cholesky factors the diagonal block,
    and only the span of later rows coupled to the block takes its panel and
    the Schur update, in place, on the lower triangle, a block of columns at
    a time.  A banded N, as _fit orders it by direction, folded, then costs
    O(m) blocks, and a dense one makes no temporary larger than a block of
    columns.  LAPACK sees no matrix larger than a block, so none copies the
    whole of N.

    The blocks are inverted by substitution row by row, not by
    np.linalg.solve, so the solves take only matrix products: the first call
    of another LAPACK routine maps more of the library into memory (0.4 MB
    more peak memory on an optimizer run)."""
    m = len(N)
    floor = _PIVOT_FLOOR * np.diag(N).max(initial=0.0)
    C = N
    inverses = []
    for lo in range(0, m, _BLOCK):
        hi = lo + _BLOCK
        C[lo:hi, lo:hi] = np.linalg.cholesky(C[lo:hi, lo:hi])
        C[lo:hi, hi:] = 0.0
        T = C[lo:hi, lo:hi]
        if (np.diag(T) ** 2).min() <= floor:
            raise np.linalg.LinAlgError("dependent columns")
        X = np.zeros_like(T)
        for k in range(len(T)):
            X[k] = -(T[k, :k] @ X[:k])
            X[k, k] += 1.0
            X[k] /= T[k, k]
        inverses.append(X)
        if hi < m:
            # the panel of the span of later rows coupled to this block (the
            # rows between take a zero panel and no update), and the Schur
            # update on that span: its columns a block at a time, each from
            # its first row down, as the entries above are zeroed or not read
            coupled = np.flatnonzero(C[hi:, lo:hi].any(axis=1))
            if len(coupled):
                r0, r1 = hi + coupled[0], hi + coupled[-1] + 1
                panel = C[r0:r1, lo:hi] @ X.T
                C[r0:r1, lo:hi] = panel
                for c0 in range(r0, r1, _BLOCK):
                    c1 = min(c0 + _BLOCK, r1)
                    C[c0:r1, c0:c1] -= panel[c0 - r0:] @ panel[c0 - r0:c1 - r0].T
    return C, inverses


def _cholesky_solve(C, inverses, r):
    """x with C C^T x = r: forward, then back substitution, a diagonal block
    at a time."""
    x = r.copy()
    for k, X in enumerate(inverses):
        lo, hi = k * _BLOCK, (k + 1) * _BLOCK
        x[lo:hi] = X @ x[lo:hi]
        x[hi:] -= C[hi:, lo:hi] @ x[lo:hi]
    for k, X in reversed(list(enumerate(inverses))):
        lo, hi = k * _BLOCK, (k + 1) * _BLOCK
        x[lo:hi] = X.T @ x[lo:hi]
        x[:lo] -= C[lo:hi, :lo].T @ x[lo:hi]
    return x


def _normal_solve(N, Atg, w, a, b, g):
    """Least-squares weights of the columns (w, a, b) for g from the normal
    equations N x = Atg, plus one step of iterative refinement on the
    residual taken from the columns themselves.  N is factored in place.
    Raises LinAlgError when N is not numerically positive definite."""
    C, inverses = _cholesky_factor(N)
    x = _cholesky_solve(C, inverses, Atg)
    r = g - _column_sum(w, a, b, x, len(g))
    return x + _cholesky_solve(C, inverses, _column_dots(w, a, b, r))


def _nnls_project_resolve(w, a, b, g) -> np.ndarray:
    """Least squares with nonnegativity by clamp-and-resolve iteration.

    Fits the complex n-vector g by nonnegative weights of columns holding w_c
    at point a_c and -w_c at point b_c, as 2n real equations.  Each solve
    Cholesky-factors the normal equations on the current support.  When
    those are not numerically positive definite, that solve and every later
    one use np.linalg.lstsq on the dense system instead, with each zero made
    +0.0, as its Householder reflections read the sign of a zero.  That is
    the case for dependent columns (more than 2n - 3 of them always are: the
    columns are the pair gradients, up to the signs of the rows, and each is
    blind to the three rigid motions) and for products past the float range.
    The first solve factors the normal matrix in place, and a refit builds
    that of its support anew, with the same entries: each is one product, or
    on the diagonal the sum of two equal ones.
    """
    n = len(g)
    # past 2n - 3 columns the first solve goes to lstsq, and so does every
    # later one: the m x m normal matrix is not built
    N = Atg = None
    normal = len(w) <= 2 * n - 3
    if normal:
        with np.errstate(over="ignore", invalid="ignore"):
            N, Atg = _normal_matrix(w, a, b), _column_dots(w, a, b, g)
            normal = np.isfinite(N).all() and np.isfinite(Atg).all()
    dense = None

    def solve(support, N=None):
        nonlocal dense
        if dense is None and normal and support.sum() <= 2 * n - 3:
            cols = np.flatnonzero(support)
            if N is None:
                N = _normal_matrix(w[cols], a[cols], b[cols])
            try:
                return _normal_solve(N, Atg[cols], w[cols], a[cols], b[cols], g)
            except np.linalg.LinAlgError:
                pass
        if dense is None:
            dense = _column_matrix(w, a, b, n) + 0.0, np.concatenate([g.real, g.imag])
        A, y = dense
        return np.linalg.lstsq(A if support.all() else A[:, support], y, rcond=None)[0]

    lam = solve(np.ones(len(w), dtype=bool), N)
    del N
    # each refit's support is strictly smaller than the last, so this ends;
    # a NaN weight fails the test as a negative one does
    while not (lam >= -1e-12).all():
        support = lam > 1e-12
        refit = np.zeros_like(lam)
        if support.any():
            refit[support] = solve(support)
        lam = refit
    return np.maximum(lam, 0.0)


def _direction_order(w) -> np.ndarray:
    """The columns w by direction, folded: first, last, second, second to
    last, and so on.

    Sorted by direction, a maximizer's diameters turn once around the
    polygon, and two that share a point lie at or next to neighbouring
    places of that cyclic sequence; the fold keeps cyclic neighbours within
    two places, so the nonzeros of the normal matrix lie in a narrow band."""
    turn = np.argsort(np.angle(w) % np.pi, kind="stable")
    order = np.empty_like(turn)
    order[0::2], order[1::2] = turn[:(len(w) + 1) // 2], turn[::-1][:len(w) // 2]
    return order


def _fit(z: np.ndarray, a: np.ndarray, b: np.ndarray,
         L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative multipliers of the active pairs (a < b) and the per-point
    stationarity residual they leave, from the stationarity sums L of z."""
    if not np.isfinite(L).all():
        raise SingularConfigError("points too close: the stationarity sums overflow")
    if not len(a):
        return np.zeros(0), L
    # pair {a, b} contributes conj(z_b - z_a) at point a and its negative at b
    w = np.conj(z[b] - z[a])
    if len(a) <= _BLOCK:
        lam = _nnls_project_resolve(w, a, b, L)
    else:
        # fitted in an order that makes the normal matrix banded
        order = _direction_order(w)
        lam = np.empty(len(a))
        lam[order] = _nnls_project_resolve(w[order], a[order], b[order], L)
    return lam, L - _column_sum(w, a, b, lam, len(z))


def recover_multipliers(config: PointConfig, active) -> tuple[dict, float]:
    """Nonnegative multipliers best explaining the stationarity identity.

    Returns (multipliers keyed by pair, max per-point residual modulus).
    Each pair is two distinct point labels, in either order, listed once.
    With an empty active set the residual is simply the size of the
    left-hand side: no stationarity is possible unless the gradient vanishes.
    """
    z = config.as_complex
    active = [(min(a, b), max(a, b)) for a, b in active]
    for a, b in active:
        if not 0 <= a < b < config.n:
            raise InvalidConfigError(f"pair ({a}, {b}) is not two of the {config.n} points")
    if len(set(active)) < len(active):
        raise InvalidConfigError("a pair is listed twice")
    L = _memo(config, sums=True, distinct=True).sums
    lam, resid = _fit(z, *_pair_arrays(active), L)
    return dict(zip(active, lam.tolist())), float(np.abs(resid).max())


def verify(config: PointConfig, rel_tol: float = 1e-9) -> KKTReport:
    """Full first-order report: active set, multipliers, residuals, slackness."""
    if config.n < 2:
        raise InvalidConfigError("need n >= 2")
    z = config.as_complex
    if rel_tol == _TOL:
        found = _memo(config, sums=True, distinct=True)
        act = _memo_active(config, found)
    else:
        found = _distinct_pairs(z, sums=True, active=rel_tol)
        act = found.active
    a, b = _pair_arrays(act)
    lam, resid = _fit(z, a, b, found.sums)
    comp = float(np.abs(lam * _constraint_gaps(z, a, b)).max(initial=0.0))
    degree = np.bincount(np.concatenate([a, b]), minlength=config.n)
    multipliers = dict(zip(act, lam.tolist()))
    top = float(np.abs(resid).max())
    with np.errstate(over="ignore"):
        norm2 = float(np.linalg.norm(resid))
        if not 2.0 ** -500 <= norm2 <= 2.0 ** 500 and 0.0 < top < math.inf:
            # the sum of squares may have overflowed or underflowed; after
            # rescaling only a norm past the float range stays inf
            norm2 = float(top * np.linalg.norm(resid / top))
    return KKTReport(
        n=config.n,
        active_set=tuple(sorted(act)),
        multipliers=multipliers,
        stationarity_residual=top,
        residual_norm2=norm2,
        min_multiplier=min(multipliers.values(), default=0.0),
        complementarity_violation=comp,
        zero_degree_points=tuple(np.flatnonzero(degree == 0).tolist()),
    )
