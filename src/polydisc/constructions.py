"""Explicit configurations: small-n optima, the dihedral family, bent-arc
polygons for orders divisible by six, and triangular-wave perturbations of
regular polygons for even orders.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleError, InvalidConfigError
from .geometry import PointConfig, _pair_rows, _row_blocks

SQRT3 = math.sqrt(3.0)
OMEGA = cmath.exp(2j * math.pi / 3)  # primitive cube root of unity


def regular_ngon(n: int) -> PointConfig:
    """Regular n-gon of diameter exactly 2.

    Circumradius is 1 for even n (diameter across antipodal vertices) and
    1/cos(pi/2n) for odd n (diameter across the longest diagonals).
    """
    if n < 2:
        raise InvalidConfigError("need n >= 2")
    z = _circumradius(n) * np.exp(2j * math.pi * np.arange(n) / n)
    return PointConfig.from_complex(z)


def _circumradius(n: int) -> float:
    """Circumradius of the regular n-gon of diameter 2."""
    return 1.0 if n % 2 == 0 else 1.0 / math.cos(math.pi / (2 * n))


def kite4() -> PointConfig:
    """The four-point kite {0, 2, sqrt(3) +/- i} of diameter 2."""
    return PointConfig(np.array([[0.0, 0.0], [2.0, 0.0], [SQRT3, 1.0], [SQRT3, -1.0]]))


def hexagon6() -> PointConfig:
    """Six-point configuration: the kite plus two symmetric interior-edge points."""
    s = SQRT3 - 1.0
    return PointConfig(np.array([
        [SQRT3, 1.0],
        [0.0, 0.0],
        [SQRT3, -1.0],
        [2.0, 0.0],
        [s, s],
        [s, -s],
    ]))


@dataclass(frozen=True)
class DihedralParams:
    """Free points of the 6m-point family with 3-fold rotation + reflection symmetry.

    ``z`` holds z_1 ... z_m; z_1 is real and z_0 = z_1 - 2 is implied.  The
    generated set is {w^t u : u in A, t in 0,1,2} with w = exp(2 pi i / 3)
    and A = {z_0, ..., z_m} plus the conjugates of z_2 ... z_m.
    """

    m: int
    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex).ravel()
        if len(z) != self.m:
            raise InvalidConfigError(f"expected {self.m} free points, got {len(z)}")
        if self.m >= 1 and abs(z[0].imag) > 1e-12:
            raise InvalidConfigError("z_1 must be real")
        z = z.copy()
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @property
    def z0(self) -> complex:
        return self.z[0] - 2.0

    def chain(self) -> np.ndarray:
        """z_0 ... z_m as one array."""
        return np.concatenate([[self.z0], self.z])

    def residuals(self) -> np.ndarray:
        """Violations of the chain constraints |z_{k+1} - z_k| = 2 and closure."""
        c = self.chain()
        res = [abs(abs(c[k + 1] - c[k]) - 2.0) for k in range(1, self.m)]
        zm = c[-1]
        res.append(abs(abs(zm - cmath.exp(4j * math.pi / 3) * zm.conjugate()) - 2.0))
        return np.array(res)

    def generate(self) -> PointConfig:
        """All 6m points of the symmetric configuration."""
        base = list(self.chain()) + [w.conjugate() for w in self.z[1:]]
        pts = [OMEGA ** t * u for t in range(3) for u in base]
        return PointConfig.from_complex(np.array(pts))


def dihedral_delta(m: int, params: DihedralParams, tol: float = 1e-9) -> float:
    """log Delta of the generated 6m-point set via the factored closed product.

    The three-fold symmetry collapses the full pairwise product to a product
    over cube-power differences of the 2m base points, raised to the sixth
    power.  Raises InfeasibleError when the chain constraints are violated
    beyond ``tol``.
    """
    if params.m != m:
        raise InvalidConfigError("parameter block does not match m")
    res = params.residuals()
    if res.size and res.max() > tol:
        raise InfeasibleError(f"chain constraints violated by {res.max():.3e}",
                              violation=float(res.max()))
    return 6.0 * _chain_log_sum(params.chain(), math.log)


def _chain_log_sum(c, log) -> float:
    """log Delta / 6 of the 6m-point set generated by the chain c = z_0 .. z_m,
    with ``log`` the logarithm of the chain's number type."""
    m = len(c) - 1
    z0, z1 = c[0], c[1]
    total = m * log(3.0)
    total += log(abs(z0)) + log(abs(z1)) + log(abs(z0 ** 3 - z1 ** 3))
    for k in range(2, m + 1):
        zk = c[k]
        zkc = zk.conjugate()
        total += 2 * log(abs(zk))
        total += 2 * log(abs(z0 ** 3 - zk ** 3))
        total += 2 * log(abs(z1 ** 3 - zk ** 3))
        total += log(abs(zk ** 3 - zkc ** 3))
        for j in range(2, k):
            zj = c[j]
            total += 2 * log(abs(zk ** 3 - zj ** 3))
            total += 2 * log(abs(zk ** 3 - zj.conjugate() ** 3))
    return total


def dihedral_params_for_angle(alpha: float) -> DihedralParams:
    """m = 2 parameter block on the one-parameter feasible slice at angle alpha."""
    z1 = (4 * math.sin(math.pi / 3 + alpha) - 2.0) / SQRT3
    z2 = z1 - 2 * cmath.exp(1j * alpha)
    return DihedralParams(m=2, z=np.array([z1, z2]))


def dodecagon12() -> tuple[float, PointConfig]:
    """Best 12-point dihedral configuration.

    The free angle is the stationary point of log Delta on the
    one-parameter slice that Newton's method (mpmath.findroot) reaches from
    pi / 12, to a derivative below 1e-12, in high-precision arithmetic.
    """
    import mpmath as mp

    with mp.workdps(40):
        sqrt3 = mp.sqrt(3)

        def logdelta(al):
            z1 = (4 * mp.sin(mp.pi / 3 + al) - 2) / sqrt3
            return 6 * _chain_log_sum([z1 - 2, z1, z1 - 2 * mp.e ** (1j * al)], mp.log)

        deriv = lambda al: mp.diff(logdelta, al)
        root = mp.findroot(deriv, mp.pi / 12)
        if abs(deriv(root)) > 1e-12:
            raise InfeasibleError("stationarity polish did not converge")
        alpha = float(root)
    return alpha, dihedral_params_for_angle(alpha).generate()


@dataclass(frozen=True)
class ArcPolygon:
    """Equilateral 6k-gon built from six regular-polygon arcs with bent junctions.

    ``Y`` has side length sin(pi/n) and diameter cos(pi/2n); ``P`` is Y
    rescaled to diameter 2.
    """

    k: int
    Y: PointConfig
    P: PointConfig

    @property
    def n(self) -> int:
        return 6 * self.k

    @property
    def delta_angle(self) -> float:
        return math.pi / self.n


def _arc_vertices(k: int) -> np.ndarray:
    n = 6 * k
    delta = math.pi / n
    side = math.sin(delta)
    exterior = np.full(n, 2.0 * delta)
    for r in (1, 3, 5):
        exterior[(r * k) % n] = delta
    for r in (2, 4, 6):
        exterior[(r * k) % n] = 3.0 * delta
    verts = np.empty(n, dtype=complex)
    pos = 0.0 + 0.0j
    phi = 0.0
    for r in range(n):
        if r > 0:
            phi += exterior[r]
        verts[r] = pos
        pos += side * cmath.exp(1j * phi)
    if abs(pos - verts[0]) > 1e-12:
        raise InfeasibleError("arc polygon failed to close")
    return verts - verts.mean()


def arc_polygon(k: int) -> ArcPolygon:
    """Build the bent 6k-gon Y and its diameter-2 rescaling P."""
    if k < 1:
        raise InvalidConfigError("need k >= 1")
    n = 6 * k
    verts = _arc_vertices(k)
    scale = 2.0 / math.cos(math.pi / (2 * n))
    return ArcPolygon(k=k, Y=PointConfig.from_complex(verts),
                      P=PointConfig.from_complex(verts * scale))


def arc_edge_directions(poly: ArcPolygon) -> np.ndarray:
    """Edge directions of Y reduced modulo pi, sorted ascending."""
    z = poly.Y.as_complex
    e = np.roll(z, -1) - z
    ang = np.mod(np.angle(e), math.pi)
    # angles within rounding of pi wrap to 0
    ang[ang > math.pi - 1e-12] -= math.pi
    return np.sort(np.abs(ang))


def sparse_arc(n: int) -> PointConfig:
    """Every third vertex of the bent 3n-gon, rescaled to diameter 2.

    The diameter graph of the result is disconnected, so the family is a
    lower-bound construction only.
    """
    if n % 2 != 0 or n < 4:
        raise InvalidConfigError("need even n >= 4")
    verts = _arc_vertices(n // 2)  # 3n vertices
    sel = verts[::3]
    scale = 2.0 / math.cos(math.pi / (6 * n))
    return PointConfig.from_complex(sel * scale)


def tri(x):
    """2 pi periodic triangular wave, 1 - (2/pi)|x| on [-pi, pi]."""
    return 1.0 - (2.0 / math.pi) * np.arccos(np.cos(x))


@dataclass(frozen=True)
class TriwaveConfig:
    """Radially perturbed regular n-gon r_k = 1 + t * tri(m * theta_k)."""

    n: int
    m_frequency: int
    amplitude: float
    config: PointConfig

    @property
    def angles(self) -> np.ndarray:
        return 2.0 * math.pi * np.arange(self.n) / self.n


def default_triwave_amplitude(n: int) -> float:
    """Amplitude guaranteeing feasibility for the frequency-3 wave."""
    return math.pi ** 2 / (12.0 * n) * (1.0 - 1.0 / n)


def _triwave_points(n: int, m: int, t: float) -> np.ndarray:
    theta = 2.0 * math.pi * np.arange(n) / n
    return (1.0 + t * tri(m * theta)) * np.exp(1j * theta)


def _max_distance(z: np.ndarray) -> tuple[float, tuple[int, int]]:
    found = _pair_rows(z)
    return found.diameter, found.far


def triwave(n: int, m_frequency: int = 3, amplitude: Optional[float] = None) -> TriwaveConfig:
    """Triangular-wave perturbation of the regular n-gon (even n >= 8).

    Antipodal pairs sit at distance exactly 2 for every odd frequency.  The
    default amplitude for frequency 3 is pi^2 (1 - 1/n) / (12 n); for other
    odd frequencies the default is that value shrunk by bisection to the
    largest feasible fraction.  A supplied amplitude is checked, not fixed.
    """
    if n % 2 != 0 or n < 8:
        raise InvalidConfigError("n must be even and at least 8")
    if m_frequency % 2 != 1 or m_frequency < 1:
        raise InvalidConfigError("frequency must be odd and positive")
    t0 = default_triwave_amplitude(n)
    if amplitude is None:
        if m_frequency == 3:
            amplitude = t0
        else:
            # largest fraction of the reference amplitude keeping all
            # distances at most 2, found by bisection
            def feasible(s):
                worst, _ = _max_distance(_triwave_points(n, m_frequency, s * t0))
                return worst <= 2.0 + 1e-13
            lo, hi = 0.0, 1.0
            if feasible(1.0):
                lo = 1.0
            else:
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if feasible(mid):
                        lo = mid
                    else:
                        hi = mid
            amplitude = lo * t0
    z = _triwave_points(n, m_frequency, amplitude)
    worst, pair = _max_distance(z)
    if worst > 2.0 + 1e-12:
        raise InfeasibleError(
            f"pair {pair} at distance {worst:.15f} exceeds the diameter bound",
            worst_pair=pair, violation=worst - 2.0)
    return TriwaveConfig(n=n, m_frequency=m_frequency, amplitude=float(amplitude),
                         config=PointConfig.from_complex(z))


def zonogon_support_max(n: int, grid_points: int = 10 ** 6) -> float:
    """Max over a t-grid of sum_m |cos(t - m pi/n)| for m = 0 .. n-1.

    This is (up to the edge length) the support-function bound controlling
    the diameter of the bent polygon; its exact peak is 1/sin(pi/2n).
    """
    if n < 2:
        raise InvalidConfigError("need n >= 2")
    delta = math.pi / n
    best = 0.0
    m = np.arange(n) * delta
    t = np.linspace(0.0, 2.0 * math.pi, grid_points, endpoint=False)
    for rows in _row_blocks(grid_points, n):
        block = t[rows, None] - m[None, :]
        best = max(best, float(np.abs(np.cos(block)).sum(axis=1).max()))
    return best


def zonogon_support_peak(n: int) -> float:
    """Exact value of the support-sum peak, 1/sin(pi/2n)."""
    return 1.0 / math.sin(math.pi / (2 * n))
