"""First-order optimality checks: multiplier recovery and stationarity residuals.

At a candidate maximizer the per-point identity

    sum_{j != k} 1/(z_j - z_k) = sum_{pairs {j,k} active} lambda_{jk} (conj z_j - conj z_k)

must hold with nonnegative multipliers supported on the active pairs
(squared distance within tolerance of 4).  Multipliers are recovered by
nonnegative least squares on the 2n real equations; the stationarity
residual is the largest per-point modulus of the unexplained part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, SingularConfigError
from .geometry import PointConfig, pairwise_distances, upper_pairs

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
    d2 = pairwise_distances(config.as_complex) ** 2
    return upper_pairs(d2 >= 4.0 * (1.0 - rel_tol))


def stationarity_lhs(z: np.ndarray) -> np.ndarray:
    """Per-point sums L_k = sum_{j != k} 1/(z_j - z_k)."""
    diff = z[None, :] - z[:, None]  # [k, j] = z_j - z_k
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    return inv.sum(axis=1)


def _pair_arrays(pairs):
    """The first and the second indices of a list of pairs, as two int arrays."""
    pairs = np.array(pairs, dtype=int).reshape(-1, 2)
    return pairs[:, 0], pairs[:, 1]


def _constraint_matrix(z, a, b):
    """Real (2n, m) Jacobian of the gaps |z_a - z_b|^2 - 4: rows are the x
    then the y coordinates, one column per pair."""
    n, m = len(z), len(a)
    w = 2 * (z[a] - z[b]).view(float).reshape(m, 2).T  # rows: real, imaginary
    G = np.zeros((2, n, m))
    c = np.arange(m)
    G[:, a, c] = w
    G[:, b, c] = -w
    return G.reshape(2 * n, m)


def _constraint_gaps(z, a, b):
    """|z_a - z_b|^2 - 4 per pair."""
    # rounded like the scalar abs(w) ** 2: np.hypot is the scalar complex
    # abs, and the float power (libm pow) can differ from the vectorized
    # square in the last bit, which Newton would carry into its result
    w = z[a] - z[b]
    return np.array([x ** 2 for x in np.hypot(w.real, w.imag).tolist()]) - 4.0


def _nnls_project_resolve(A: np.ndarray, y: np.ndarray, rounds: int) -> np.ndarray:
    """Least squares with nonnegativity by clamp-and-resolve iteration."""
    lam, *_ = np.linalg.lstsq(A, y, rcond=None)
    for _ in range(rounds):
        if (lam >= -1e-12).all():
            break
        support = lam > 1e-12
        refit = np.zeros_like(lam)
        if support.any():
            sol, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
            refit[support] = sol
        lam = refit
    return np.maximum(lam, 0.0)


def _fit(z: np.ndarray, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative multipliers of the active pairs (a < b) and the per-point
    stationarity residual they leave."""
    L = stationarity_lhs(z)
    n, m = len(z), len(a)
    if not m:
        return np.zeros(0), L
    # A = [M.real; M.imag] for the complex columns M, whose column for pair
    # {a, b} holds conj(z_b - z_a) at row a and its negative at row b: that
    # is -G[:n] / 2 + i G[n:] / 2 for the Jacobian G, exactly, as halving and
    # negation do not round.  Every zero is made +0.0, because the Householder
    # reflections of the least-squares solver read the sign of a zero.  Built
    # in place, so that no more than two (2n, m) arrays are alive at a time.
    A = _constraint_matrix(z, a, b) / 2
    np.subtract(0.0, A[:n], out=A[:n])
    A[n:] += 0.0
    lam = _nnls_project_resolve(A, np.concatenate([L.real, L.imag]), m + 2)
    M = np.empty((n, m), dtype=complex)
    M.real, M.imag = A[:n], A[n:]
    return lam, L - M @ lam


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
    if not config.is_distinct():
        raise SingularConfigError("coincident points")
    act = active_set(config, rel_tol)
    z = config.as_complex
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
