"""Core numeric evaluation of planar point configurations.

The central quantity is the discriminant-style product

    Delta = prod_{i != j} |z_i - z_j| = prod_{i < j} |z_i - z_j|^2,

evaluated in log space throughout, together with its normalization
Delta / n^n for configurations rescaled to diameter 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, SingularConfigError

# exp() overflows above this; larger log-values are reported as log-only
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


def _exp(x: float) -> float:
    """exp(x), or inf past the float range."""
    return math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf


@dataclass(frozen=True)
class PointConfig:
    """An ordered list of n planar points, stored as an (n, 2) float array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or (pts.size and pts.shape[1] != 2):
            pts = pts.reshape(-1, 2)
        if pts.size and not np.isfinite(pts).all():
            raise InvalidConfigError("non-finite coordinate in configuration")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @classmethod
    def from_complex(cls, z) -> "PointConfig":
        z = np.asarray(z, dtype=complex).ravel()
        return cls(np.column_stack([z.real, z.imag]) if z.size else np.empty((0, 2)))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def as_complex(self) -> np.ndarray:
        return self.points[:, 0] + 1j * self.points[:, 1]

    def min_pairwise_distance(self) -> float:
        if self.n < 2:
            return math.inf
        d = pairwise_distances(self.as_complex)
        np.fill_diagonal(d, np.inf)
        return float(d.min())

    def is_distinct(self) -> bool:
        return _distinct(pairwise_distances(self.as_complex))


@dataclass(frozen=True)
class EvalReport:
    """Evaluation summary of one configuration."""

    n: int
    delta: float
    log_delta: float
    delta_bar: float
    diameter: float

    @property
    def log_only(self) -> bool:
        """True when delta itself is not representable and only log_delta is meaningful."""
        return self.log_delta > _LOG_FLOAT_MAX


def pairwise_distances(z: np.ndarray) -> np.ndarray:
    """Full (n, n) matrix of |z_i - z_j| with zeros on the diagonal."""
    z = np.asarray(z, dtype=complex)
    with np.errstate(over="ignore"):  # differences past the float range are inf
        return np.abs(z[:, None] - z[None, :])


def _distinct(d: np.ndarray) -> bool:
    """True iff the distance matrix d has no zero off its diagonal."""
    return np.count_nonzero(d == 0.0) == len(d)


def _log_discriminant(d: np.ndarray) -> float:
    """Sum of the logs of the off-diagonal entries of the distance matrix d,
    -inf when one of them is zero."""
    off = ~np.eye(len(d), dtype=bool)
    if (d[off] == 0.0).any():
        return -math.inf
    return float(np.sum(np.log(d[off])))


def discriminant(config: PointConfig) -> tuple[float, float]:
    """Product of squared pairwise distances, with its natural logarithm.

    Returns
    -------
    (delta, log_delta) : tuple of float
        ``delta`` is exp(log_delta) when representable (inf past the float
        range; see EvalReport.log_only), 1.0 for n <= 1 by the empty-product
        convention, and 0.0 with log_delta = -inf when two points coincide.
    """
    if config.n <= 1:
        return 1.0, 0.0
    log_delta = _log_discriminant(pairwise_distances(config.as_complex))
    if log_delta == -math.inf:
        return 0.0, -math.inf
    return _exp(log_delta), log_delta


def diameter(config: PointConfig) -> float:
    """Largest pairwise distance. Requires n >= 2."""
    if config.n < 2:
        raise InvalidConfigError("diameter requires at least 2 points")
    return float(pairwise_distances(config.as_complex).max())


def normalize_to_diameter(config: PointConfig, target: float = 2.0) -> PointConfig:
    """Uniformly rescaled copy with the given diameter (relative 1e-14).

    An input already at the target diameter is returned unchanged.
    """
    if target <= 0:
        raise InvalidConfigError("target diameter must be positive")
    diam = diameter(config)
    scale = _rescale_factor(diam, target)
    if abs(diam - target) <= 1e-14 * target:
        return config
    return PointConfig(config.points * scale)


def _rescale_factor(diam: float, target: float = 2.0) -> float:
    """target / diam, the factor that rescales diameter diam to target.

    Raises InvalidConfigError when diam is zero, or when diam or the factor
    is past the float range.
    """
    if diam == 0.0:
        raise InvalidConfigError("zero-diameter configuration cannot be rescaled")
    scale = target / diam
    if not (math.isfinite(diam) and math.isfinite(scale)):
        raise InvalidConfigError(f"diameter {diam:.3g} cannot be rescaled to {target:g}")
    return scale


def normalized_discriminant(config: PointConfig, rescale_to_diameter: bool = True) -> float:
    """Delta / n^n, optionally rescaling the configuration to diameter 2 first."""
    n = config.n
    if n < 1:
        raise InvalidConfigError("normalized discriminant requires n >= 1")
    rescale = rescale_to_diameter and n >= 2
    if rescale:
        log_scale = math.log(_rescale_factor(diameter(config)))
    _, log_delta = discriminant(config)
    if log_delta == -math.inf:
        return 0.0
    if rescale:
        log_delta += n * (n - 1) * log_scale
    return _exp(log_delta - n * math.log(n))


def log_delta_bar(config: PointConfig) -> float:
    """log(Delta / n^n) of the configuration rescaled to diameter 2."""
    n = config.n
    if n < 2:
        raise InvalidConfigError("log_delta_bar requires n >= 2")
    d = pairwise_distances(config.as_complex)
    log_delta = _log_discriminant(d)
    diam = float(d.max())
    if diam == 0.0 or log_delta == -math.inf:
        return -math.inf
    return log_delta + n * (n - 1) * math.log(_rescale_factor(diam)) - n * math.log(n)


def evaluate(config: PointConfig) -> EvalReport:
    """Full evaluation report: delta_bar is delta / n^n of the configuration
    as given (rescale beforehand to compare diameter-2 values)."""
    if config.n < 2:
        raise InvalidConfigError("evaluate requires n >= 2")
    delta, log_delta = discriminant(config)
    diam = diameter(config)
    if diam == 0.0:
        raise InvalidConfigError("zero-diameter configuration")
    delta_bar = 0.0 if log_delta == -math.inf else _exp(
        log_delta - config.n * math.log(config.n))
    return EvalReport(n=config.n, delta=delta, log_delta=log_delta,
                      delta_bar=delta_bar, diameter=diam)


def is_convex_position(config: PointConfig) -> bool:
    """True iff every point is a strict vertex of the convex hull.

    Points inside the hull or on the relative interior of a hull edge fail.
    The turn test uses an absolute cross-product threshold 1e-9 * diameter^2.
    """
    if config.n < 3:
        raise InvalidConfigError("convex position requires n >= 3")
    return _convex_position(config.points, pairwise_distances(config.as_complex))


def _convex_position(points: np.ndarray, d: np.ndarray) -> bool:
    """is_convex_position from the points and their distance matrix d."""
    if not _distinct(d):
        raise SingularConfigError("coincident points")
    return len(hull_indices(points, 1e-9 * float(d.max()) ** 2)) == len(points)


def hull_indices(points: np.ndarray, eps: float) -> list[int]:
    """Indices of the convex hull vertices of an (n, 2) array (monotone chain).

    The walk starts at the lowest point in (x, y) order and runs
    counterclockwise.  A turn whose cross product is at most ``eps`` is not a
    vertex, so points on a hull edge are left out.  Fewer than three points
    are returned in their given order.
    """
    n = len(points)
    if n < 3:
        return list(range(n))
    order = np.lexsort((points[:, 1], points[:, 0])).tolist()

    def cross(o, a, b):
        po, pa, pb = points[o], points[a], points[b]
        return (pa[0] - po[0]) * (pb[1] - po[1]) - (pa[1] - po[1]) * (pb[0] - po[0])

    def chain(indices):
        hull = []
        for i in indices:
            while len(hull) > 1 and cross(hull[-2], hull[-1], i) <= eps:
                hull.pop()
            hull.append(i)
        return hull

    return chain(order)[:-1] + chain(order[::-1])[:-1]


def upper_pairs(mask: np.ndarray) -> list[tuple[int, int]]:
    """Pairs (i, j) with i < j where the (n, n) mask holds, in row-major order."""
    i, j = np.nonzero(np.triu(mask, 1))
    return list(zip(i.tolist(), j.tolist()))


def objective_gradient(config: PointConfig) -> np.ndarray:
    """Gradient of f = sum_{j<k} log |z_k - z_j|^2 as a flat (2n,) array.

    Layout is interleaved per point: [df/dx_1, df/dy_1, df/dx_2, ...].
    """
    if config.n < 2:
        raise InvalidConfigError("gradient requires n >= 2")
    if not config.is_distinct():
        raise SingularConfigError("coincident points make the objective singular")
    with np.errstate(over="ignore", invalid="ignore"):
        g = -2.0 * np.conj(stationarity_lhs(config.as_complex))
    if not np.isfinite(g).all():
        raise SingularConfigError("the gradient is past the float range")
    out = np.empty(2 * config.n)
    out[0::2] = g.real
    out[1::2] = g.imag
    return out


def stationarity_lhs(z: np.ndarray) -> np.ndarray:
    """Per-point sums L_k = sum_{j != k} 1/(z_j - z_k).

    The gradient df/dx_k + i df/dy_k of f = sum log |z_k - z_j|^2 is
    -2 conj(L_k).  Unlike complex_gradient, the reciprocal needs no squared
    modulus, so it stays finite wherever the separations and their
    reciprocals are.
    """
    diff = z[None, :] - z[:, None]  # [k, j] = z_j - z_k
    np.fill_diagonal(diff, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):  # callers reject non-finite sums
        inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    return inv.sum(axis=1)


def complex_gradient(z: np.ndarray) -> np.ndarray:
    """Per-point gradient df/dx_k + i df/dy_k of f = sum log |z_k - z_j|^2."""
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    w = 2.0 * diff / np.abs(diff) ** 2
    np.fill_diagonal(w, 0.0)
    return w.sum(axis=1)
