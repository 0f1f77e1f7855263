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
Numerically dependent columns, or products past the float range, fall back
to np.linalg.lstsq on the dense system.  verify builds the distance matrix
once, for the distinctness test and the active set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, SingularConfigError
from .geometry import (PointConfig, _distinct, pairwise_distances, stationarity_lhs,
                       upper_pairs)

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


def active_set(config: PointConfig, rel_tol: float = 1e-9) -> list[Pair]:
    """Pairs with squared distance at least 4 (1 - rel_tol).

    The configuration is expected to be normalized to diameter 2.
    """
    return _active_pairs(pairwise_distances(config.as_complex), rel_tol)


def _active_pairs(d: np.ndarray, rel_tol: float) -> list[Pair]:
    """active_set from the configuration's distance matrix."""
    return upper_pairs(d ** 2 >= 4.0 * (1.0 - rel_tol))


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


def _gap_gradients(z, a, b):
    """Gradients 2 (z_a - z_b) of the gaps |z_a - z_b|^2 - 4 in z_a, as
    complex numbers x + iy; the gradients in z_b are their negatives."""
    # each part doubled on its own: a complex product by 2 can flip the sign
    # of a zero part, which the Newton step's least-squares solver reads
    return (2 * (z[a] - z[b]).view(float)).view(complex)


def _constraint_matrix(z, a, b):
    """Real (2n, m) Jacobian of the gaps |z_a - z_b|^2 - 4: rows are the x
    then the y coordinates, one column per pair."""
    return _column_matrix(_gap_gradients(z, a, b), a, b, len(z))


def _constraint_gaps(z, a, b):
    """|z_a - z_b|^2 - 4 per pair."""
    # rounded like the scalar abs(w) ** 2: np.hypot is the scalar complex
    # abs, and the float power (libm pow) can differ from the vectorized
    # square in the last bit, which Newton would carry into its result
    w = z[a] - z[b]
    return np.array([x ** 2 for x in np.hypot(w.real, w.imag).tolist()]) - 4.0


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
# rows per diagonal block of the Cholesky factor in _cholesky_solve
_BLOCK = 64


def _cholesky_factor(N):
    """Lower-triangular C with C C^T = N, and the inverses of its diagonal
    blocks.  Raises LinAlgError when N is not numerically positive definite.

    The blocks are inverted by substitution row by row, not by
    np.linalg.solve, so the solves take only matrix products: the first call
    of another LAPACK routine maps more of the library into memory (0.4 MB
    more peak memory on an optimizer run)."""
    C = np.linalg.cholesky(N)
    if (np.diag(C) ** 2).min(initial=np.inf) <= _PIVOT_FLOOR * np.diag(N).max(initial=0.0):
        raise np.linalg.LinAlgError("dependent columns")
    inverses = []
    for lo in range(0, len(C), _BLOCK):
        T = C[lo:lo + _BLOCK, lo:lo + _BLOCK]
        X = np.zeros_like(T)
        for k in range(len(T)):
            X[k] = -(T[k, :k] @ X[:k])
            X[k, k] += 1.0
            X[k] /= T[k, k]
        inverses.append(X)
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
    residual taken from the columns themselves.  Raises LinAlgError when N
    is not numerically positive definite."""
    C, inverses = _cholesky_factor(N)
    x = _cholesky_solve(C, inverses, Atg)
    r = g - _column_sum(w, a, b, x, len(g))
    return x + _cholesky_solve(C, inverses, _column_dots(w, a, b, r))


def _nnls_project_resolve(w, a, b, g, rounds: int) -> np.ndarray:
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
    """
    n = len(g)
    with np.errstate(over="ignore", invalid="ignore"):
        N, Atg = _normal_matrix(w, a, b), _column_dots(w, a, b, g)
        normal = np.isfinite(N).all() and np.isfinite(Atg).all()
    dense = None

    def solve(support):
        nonlocal dense
        if dense is None and normal and support.sum() <= 2 * n - 3:
            cols = np.flatnonzero(support)
            try:
                return _normal_solve(N if support.all() else N[np.ix_(cols, cols)],
                                     Atg[cols], w[cols], a[cols], b[cols], g)
            except np.linalg.LinAlgError:
                pass
        if dense is None:
            dense = _column_matrix(w, a, b, n) + 0.0, np.concatenate([g.real, g.imag])
        A, y = dense
        return np.linalg.lstsq(A if support.all() else A[:, support], y, rcond=None)[0]

    lam = solve(np.ones(len(w), dtype=bool))
    for _ in range(rounds):
        if (lam >= -1e-12).all():
            break
        support = lam > 1e-12
        refit = np.zeros_like(lam)
        if support.any():
            refit[support] = solve(support)
        lam = refit
    return np.maximum(lam, 0.0)


def _fit(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative multipliers of the active pairs (a < b) and the per-point
    stationarity residual they leave."""
    L = stationarity_lhs(z)
    if not np.isfinite(L).all():
        raise SingularConfigError("points too close: the stationarity sums overflow")
    if not len(a):
        return np.zeros(0), L
    # pair {a, b} contributes conj(z_b - z_a) at point a and its negative at b
    w = np.conj(z[b] - z[a])
    lam = _nnls_project_resolve(w, a, b, L, len(a) + 2)
    return lam, L - _column_sum(w, a, b, lam, len(z))


def recover_multipliers(config: PointConfig, active) -> tuple[dict, float]:
    """Nonnegative multipliers best explaining the stationarity identity.

    Returns (multipliers keyed by pair, max per-point residual modulus).
    With an empty active set the residual is simply the size of the
    left-hand side: no stationarity is possible unless the gradient vanishes.
    """
    if not config.is_distinct():
        raise SingularConfigError("coincident points")
    active = [(min(a, b), max(a, b)) for a, b in active]
    lam, resid = _fit(config.as_complex, *_pair_arrays(active))
    return dict(zip(active, lam.tolist())), float(np.abs(resid).max())


def verify(config: PointConfig, rel_tol: float = 1e-9) -> KKTReport:
    """Full first-order report: active set, multipliers, residuals, slackness."""
    if config.n < 2:
        raise InvalidConfigError("need n >= 2")
    z = config.as_complex
    d = pairwise_distances(z)
    if not _distinct(d):
        raise SingularConfigError("coincident points")
    act = _active_pairs(d, rel_tol)
    del d  # the fit's own n x n arrays need the room
    a, b = _pair_arrays(act)
    lam, resid = _fit(z, a, b)
    comp = float(np.abs(lam * _constraint_gaps(z, a, b)).max(initial=0.0))
    degree = np.bincount(np.concatenate([a, b]), minlength=config.n)
    multipliers = dict(zip(act, lam.tolist()))
    with np.errstate(over="ignore"):
        norm2 = float(np.linalg.norm(resid))
        if np.isinf(norm2) and np.isfinite(resid).all():
            # the sum of squares overflowed; after rescaling only a norm
            # past the float range stays inf
            top = np.abs(resid).max()
            norm2 = float(top * np.linalg.norm(resid / top))
    return KKTReport(
        n=config.n,
        active_set=tuple(sorted(act)),
        multipliers=multipliers,
        stationarity_residual=float(np.abs(resid).max()),
        residual_norm2=norm2,
        min_multiplier=min(multipliers.values(), default=0.0),
        complementarity_violation=comp,
        zero_degree_points=tuple(np.flatnonzero(degree == 0).tolist()),
    )
