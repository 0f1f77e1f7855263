"""Core numeric evaluation of planar point configurations.

The central quantity is the discriminant-style product

    Delta = prod_{i != j} |z_i - z_j| = prod_{i < j} |z_i - z_j|^2,

evaluated in log space throughout, together with its normalization
Delta / n^n for configurations rescaled to diameter 2.

Each PointConfig keeps its distance pass at the default tolerance _TOL
(_memo) and, apart from it, its stationarity sums (_sums), O(n) values each.
Pairs are selected by distance by one rule, the diameter graph's: _selected
picks the pass for its edges, with their distances, and the KKT active set
is filtered from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError, SingularConfigError

# exp() overflows above this; larger log-values are reported as log-only
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)

# the stationarity sums scale coordinates past _HUGE by the exact _PRESCALE
_HUGE = 2.0 ** 1000
_PRESCALE = 2.0 ** -600

# the relative tolerance of the default checks, at which a PointConfig's memo
# keeps its diameter-graph edge candidates
_TOL = 1e-9

# entries of one temporary block of a pair array (4 MB of complex).
# Pair kernels at large n run a block of rows at a time, so none holds more
# than the arrays it returns plus one block: their peak memory then does not
# hang on where the allocator finds room for a full-size temporary.
_BLOCK_ENTRIES = 1 << 18


def _exp(x: float) -> float:
    """exp(x), or inf past the float range."""
    return math.exp(x) if x <= _LOG_FLOAT_MAX else math.inf


@dataclass(frozen=True)
class PointConfig:
    """An ordered list of n planar points, stored as an (n, 2) float array.

    The points are given as an (n, 2) array or as a flat array of even
    length [x_1, y_1, x_2, ...]; anything else raises InvalidConfigError.
    Once a check reads its pairs, the object also keeps their reductions
    (see _memo and _sums), outside its dataclass fields.
    """

    points: np.ndarray

    def __post_init__(self):
        try:
            pts = np.asarray(self.points, dtype=float)
        except (TypeError, ValueError):  # ragged, or not numbers
            raise InvalidConfigError("points are not an array of numbers") from None
        if pts.ndim == 1 and pts.size % 2 == 0:
            pts = pts.reshape(-1, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidConfigError(f"points of shape {pts.shape} are neither (n, 2) "
                                     "nor flat of even length")
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
        return _memo(self).nearest

    def is_distinct(self) -> bool:
        return self.n < 2 or _memo(self).nearest > 0.0


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


def _row_blocks(rows: int, cols: int | None = None) -> list[slice]:
    """Slices of the rows of a (rows, cols) pair array, square by default,
    _BLOCK_ENTRIES entries or one row per block."""
    step = max(1, _BLOCK_ENTRIES // max(rows if cols is None else cols, 1))
    return [slice(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


def pairwise_distances(z: np.ndarray) -> np.ndarray:
    """Full (n, n) matrix of |z_i - z_j| with zeros on the diagonal."""
    z = np.asarray(z, dtype=complex)
    # differences past the float range are inf
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(z[:, None] - z[None, :])


@dataclass
class _Pairs:
    """The reductions of one distance pass over the pairs: the diameter and
    the first pair at it always, the others None where not asked for.  A
    PointConfig's memo is one of these (_memo)."""

    diameter: float
    far: tuple[int, int] | None
    nearest: float | None = None
    log_sum: float | None = None
    edge_pairs: np.ndarray | None = None
    edge_dist: np.ndarray | None = None

    @property
    def edges(self) -> list | None:
        """The rows of edge_pairs as a list of pairs."""
        return _pair_list(self.edge_pairs)


def _pair_list(pairs: np.ndarray | None) -> list | None:
    """The rows of an (m, 2) index array as a list of pairs."""
    return None if pairs is None else list(map(tuple, pairs.tolist()))


def _pair_rows(z, *, nearest=False, logs=False, edges=None, most=math.inf) -> _Pairs:
    """One pass over the pairs of z, a block of rows at a time, forming each
    block of distances |z_j - z_k| once.

    Every pass takes the largest distance, ``diameter`` (-inf at n = 0), and
    ``far``, the first pair (i < j) in row-major order at it.  It also takes
    what is asked for:

    - ``nearest``: the smallest distance off the diagonal, 0 when two points
      coincide;
    - ``logs``: ``log_sum``, the sum of the logs of the distances off the
      diagonal, -inf when one is 0, and ``nearest``;
    - ``edges``: the pairs (i < j) with distance at least (1 - edges) times
      the diameter, in row-major order, as the rows of ``edge_pairs``, and
      their distances as ``edge_dist``; both are None at n = 0, and once
      more than ``most`` pairs lie past the cut of the largest distance so
      far, where the pass stops collecting them.

    No n x n array is held.  The distance of z_j and z_k is that of z_k and
    z_j to the last bit, so a block of rows lo, lo + 1, ... reads its pairs
    (i < j) in its columns from lo on, which a pass without the logs is all
    it forms.  The smallest distance comes from the copy of a block's
    off-diagonal entries that the logs are taken in, or else from the block
    with its diagonal set to inf for the while.  A block's edges are its
    pairs past the cut of the largest distance so far, kept with their
    distances and filtered against the final cut at the end.  The logs of a
    block are summed in one call, so at n <= 512, one block, log_sum is the
    sum over the whole matrix.
    """
    z = np.asarray(z, dtype=complex)
    n = len(z)
    nearest = nearest or logs
    top, far, low, log_sum = -math.inf, None, math.inf, 0.0
    found, kept = None if edges is None else [], 0
    # differences past the float range are inf
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in _row_blocks(n):
            lo = rows.start
            # the logs read every pair twice, in full rows
            first = 0 if logs else lo
            # the differences are freed once d is formed, and d at the end of
            # the block, so that the allocator hands back the same pages, not
            # fresh ones that fault in on first write
            d = np.abs(z[None, first:] - z[rows, None])  # [k, j - first] = |z_j - z_k|
            # a new largest distance, and the first pair in row-major order
            # at it, lie in the columns from lo on: the distances left of
            # them are those of pairs of earlier rows, at most the largest
            # so far
            at = int(d.argmax())
            if d.flat[at] > top:
                top = float(d.flat[at])
                i, j = divmod(at, n - first)
                far = (min(lo + i, first + j), max(lo + i, first + j))
            square = d[:, lo - first:]  # [i, j] = |z_{lo + j} - z_{lo + i}|
            if found is not None:
                i, j = _upper(square >= (1.0 - edges) * top)
                found.append((lo + i, lo + j, square[i, j]))
                kept += len(i)
                if kept > most:
                    found = _past_cut(found, (1.0 - edges) * top)
                    kept = len(found[0][0])
                    if kept > most:
                        found = None
            if logs:
                off = _off_diagonal(d, lo)
                low = min(low, float(off.min()))
                if low > 0.0:
                    log_sum += float(np.sum(np.log(off, out=off)))
                del off
            elif nearest:
                k = np.arange(rows.stop - lo)
                square[k, k] = np.inf
                low = min(low, float(square.min()))
                square[k, k] = 0.0
            del d, square
    result = _Pairs(top, far)
    if nearest:
        result.nearest = low
    if logs:
        result.log_sum = log_sum if low > 0.0 else -math.inf
    if found:
        # the cut of the final diameter: a block's own cut was at most this
        [(i, j, result.edge_dist)] = _past_cut(found, (1.0 - edges) * top)
        result.edge_pairs = np.stack((i, j), axis=1)
    return result


def _past_cut(found: list, cut: float) -> list:
    """The edge candidates of a list of blocks (rows, columns, distances) at
    distance cut or more, as one block.  The last block's were taken, or
    last cut, at the largest distance so far, so a lone one is kept whole."""
    if len(found) == 1:
        return found
    i, j, dist = (np.concatenate(part) for part in zip(*found))
    keep = dist >= cut
    return [(i[keep], j[keep], dist[keep])]


def _off_diagonal(block: np.ndarray, lo: int) -> np.ndarray:
    """The entries of the rows lo, lo + 1, ... of a square matrix that lie
    off its diagonal, in row-major order, as one new array."""
    # between two diagonal entries of the block lie n entries: the rows after
    # the first diagonal entry, one column longer, without their last column
    r, n = block.shape
    flat = block.ravel()
    end = lo + (r - 1) * (n + 1) + 1  # just past the block's last diagonal entry
    return np.concatenate((flat[:lo], flat[lo + 1:end].reshape(r - 1, n + 1)[:, :-1],
                           flat[end:]), axis=None)


def _memo(config: PointConfig, *, logs: bool = False, distinct: bool = False) -> _Pairs:
    """The reductions of the pairs of config at the tolerance _TOL, formed
    at most once per object and kept on it.

    The first pass takes the diameter, far, the smallest distance and the
    diameter-graph edges at _TOL with their distances, which need only
    comparisons, plus the log sum when asked for.  The edges are kept only
    while the pass finds at most n candidates, the most that distinct
    points have at their exact diameter; more, as among coincident or
    nearly coincident points, leave them None.  A later ask for the log sum
    takes another distance pass.  ``distinct`` rejects coincident points.
    """
    memo = config.__dict__.get("_pairs")
    if memo is None:
        memo = _pair_rows(config.as_complex, nearest=True, logs=logs, edges=_TOL, most=config.n)
        object.__setattr__(config, "_pairs", memo)
    elif logs and memo.log_sum is None:
        memo.log_sum = _pair_rows(config.as_complex, logs=True).log_sum
    if distinct and memo.nearest == 0.0:
        raise SingularConfigError("coincident points")
    return memo


def _sums(config: PointConfig) -> np.ndarray:
    """stationarity_lhs of config's points, formed at most once per object
    and kept on it apart from the memo, which it does not fill."""
    sums = config.__dict__.get("_sums")
    if sums is None:
        sums = stationarity_lhs(config.as_complex)
        sums.setflags(write=False)  # read by every later caller
        object.__setattr__(config, "_sums", sums)
    return sums


def _selected(config: PointConfig, rel_tol: float, *,
              distinct: bool = False) -> tuple[np.ndarray, np.ndarray, float]:
    """The diameter-graph edges of config, the pairs (i < j) with distance at
    least (1 - rel_tol) times the diameter, as the rows of an index array in
    row-major order, their distances, and config's diameter.

    At _TOL they are the memo's where it keeps them; else they take a pass
    of their own.  With ``distinct``, coincident points raise
    SingularConfigError; a rel_tol not in [0, 1) raises InvalidConfigError.
    """
    if not 0.0 <= rel_tol < 1.0:
        raise InvalidConfigError(f"rel_tol {rel_tol} is not in [0, 1)")
    if rel_tol == _TOL:
        memo = _memo(config, distinct=distinct)
        if memo.edge_pairs is not None:
            return memo.edge_pairs, memo.edge_dist, memo.diameter
    found = _pair_rows(config.as_complex, nearest=distinct, edges=rel_tol)
    if distinct and found.nearest == 0.0:
        raise SingularConfigError("coincident points")
    return found.edge_pairs, found.edge_dist, found.diameter


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
    log_delta = _memo(config, logs=True).log_sum
    return _exp(log_delta), log_delta


def diameter(config: PointConfig) -> float:
    """Largest pairwise distance. Requires n >= 2."""
    if config.n < 2:
        raise InvalidConfigError("diameter requires at least 2 points")
    return _memo(config).diameter


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
    if n == 1:
        return 1.0
    found = _memo(config, logs=True)
    log_delta = found.log_sum
    if rescale_to_diameter:
        log_delta += n * (n - 1) * math.log(_rescale_factor(found.diameter))
    return _exp(log_delta - n * math.log(n))


def log_delta_bar(config: PointConfig) -> float:
    """log(Delta / n^n) of the configuration rescaled to diameter 2."""
    n = config.n
    if n < 2:
        raise InvalidConfigError("log_delta_bar requires n >= 2")
    found = _memo(config, logs=True)
    log_delta, diam = found.log_sum, found.diameter
    if diam == 0.0 or log_delta == -math.inf:
        return -math.inf
    return log_delta + n * (n - 1) * math.log(_rescale_factor(diam)) - n * math.log(n)


def evaluate(config: PointConfig) -> EvalReport:
    """Full evaluation report: delta_bar is delta / n^n of the configuration
    as given (rescale beforehand to compare diameter-2 values)."""
    n = config.n
    if n < 2:
        raise InvalidConfigError("evaluate requires n >= 2")
    found = _memo(config, logs=True)
    diam = found.diameter
    if diam == 0.0:
        raise InvalidConfigError("zero-diameter configuration")
    log_delta = found.log_sum
    return EvalReport(n=n, delta=_exp(log_delta), log_delta=log_delta,
                      delta_bar=_exp(log_delta - n * math.log(n)), diameter=diam)


def is_convex_position(config: PointConfig) -> bool:
    """True iff every point is a strict vertex of the convex hull.

    Points inside the hull or on the relative interior of a hull edge fail.
    The turn test uses an absolute cross-product threshold 1e-9 * diameter^2.
    """
    if config.n < 3:
        raise InvalidConfigError("convex position requires n >= 3")
    return _convex_position(config.points, _memo(config, distinct=True).diameter)


def _convex_position(points: np.ndarray, diam: float) -> bool:
    """is_convex_position from distinct points and their diameter."""
    points, diam = _unit_scaled(points, diam)
    return len(hull_indices(points, 1e-9 * diam ** 2)) == len(points)


def _unit_scaled(points: np.ndarray, diam: float) -> tuple[np.ndarray, float]:
    """The points and their diameter diam scaled by the power of two that
    brings diam into [0.5, 1).

    The scaling is exact, so a test whose thresholds scale with diam or its
    square gives the same verdict on the scaled points as on the points
    themselves, wherever the latter neither overflows nor underflows."""
    e = math.frexp(diam)[1]
    return np.ldexp(points, -e), math.ldexp(diam, -e)


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

    # Python floats: the same arithmetic as numpy's, without its per-element
    # indexing cost
    x, y = points[:, 0].tolist(), points[:, 1].tolist()

    def cross(o, a, b):
        return (x[a] - x[o]) * (y[b] - y[o]) - (y[a] - y[o]) * (x[b] - x[o])

    def chain(indices):
        hull = []
        for i in indices:
            while len(hull) > 1 and cross(hull[-2], hull[-1], i) <= eps:
                hull.pop()
            hull.append(i)
        return hull

    return chain(order)[:-1] + chain(order[::-1])[:-1]


def _upper(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows and the columns i < j where a 2-d mask holds, in row-major
    order."""
    # masks of pairs are sparse: cheaper than a triu copy, and the flat
    # indices cheaper than np.nonzero's two, in the same row-major order
    i, j = np.divmod(np.flatnonzero(mask), mask.shape[1])
    upper = i < j
    return i[upper], j[upper]


def objective_gradient(config: PointConfig) -> np.ndarray:
    """Gradient of f = sum_{j<k} log |z_k - z_j|^2 as a flat (2n,) array.

    Layout is interleaved per point: [df/dx_1, df/dy_1, df/dx_2, ...].
    """
    if config.n < 2:
        raise InvalidConfigError("gradient requires n >= 2")
    _memo(config, distinct=True)
    with np.errstate(over="ignore", invalid="ignore"):
        g = -2.0 * np.conj(_sums(config))
    if not np.isfinite(g).all():
        raise SingularConfigError("the gradient is past the float range")
    out = np.empty(2 * config.n)
    out[0::2] = g.real
    out[1::2] = g.imag
    return out


def stationarity_lhs(z: np.ndarray) -> np.ndarray:
    """Per-point sums L_k = sum_{j != k} 1/(z_j - z_k), a block of rows at a
    time, holding no n x n array.

    The gradient df/dx_k + i df/dy_k of f = sum log |z_k - z_j|^2 is
    -2 conj(L_k).  Unlike complex_gradient, the reciprocal needs no squared
    modulus, so it stays finite wherever the separations and their
    reciprocals are.  Coordinates past 2^1000, where a difference or the
    reciprocal's internal scaling can overflow, are first scaled by 2^-600;
    L is homogeneous of degree -1 and the scaling is exact, so the sums are
    then scaled by 2^-600 too.
    """
    z = np.asarray(z, dtype=complex)
    huge = np.maximum(np.abs(z.real), np.abs(z.imag)).max(initial=0.0) > _HUGE
    zs = z * _PRESCALE if huge else z
    L = np.empty(len(z), dtype=complex)
    # reciprocals past the float range, and those of coincident points, are
    # not finite; callers reject non-finite sums
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for rows in _row_blocks(len(z)):
            k = np.arange(rows.stop - rows.start)
            diff = zs[None, :] - zs[rows, None]  # [k, j] = z_j - z_k
            diff[k, rows.start + k] = 1.0
            np.divide(1.0, diff, out=diff)
            diff[k, rows.start + k] = 0.0
            L[rows] = diff.sum(axis=1)
            # freed before the next block is made, so that the allocator
            # hands back the same pages, not fresh ones that fault in on
            # first write
            del diff
    return L * _PRESCALE if huge else L


def _pair_sq(z):
    """z_i - z_j over the last axis of z, and its squared modulus q.

    q is 1 on the diagonal, where diff is 0, so that log q and every
    gradient term vanish there, and so do the optimizer's penalty terms
    (mu > 0), whose multipliers are 0 there.
    """
    n = z.shape[-1]
    diff = z[..., :, None] - z[..., None, :]
    q = np.abs(diff) ** 2
    q.reshape(-1, n * n)[:, ::n + 1] = 1.0  # the diagonals, through a strided view
    return diff, q


def complex_gradient(z: np.ndarray) -> np.ndarray:
    """Per-point gradient df/dx_k + i df/dy_k of f = sum log |z_k - z_j|^2."""
    diff, q = _pair_sq(z)
    return np.add.reduce(2.0 * diff / q, axis=-1)
