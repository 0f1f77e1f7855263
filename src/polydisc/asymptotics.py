"""Asymptotic constants of the two infinite families, each by two routes.

The bent-polygon family (orders divisible by six) contributes three junction
constants C1, C2, C3 and their combination Cstar; the triangular-wave family
contributes the quadratic-form constant J and the resulting limit of the
normalized discriminant along even orders.  Every named constant is computed
from a closed form and independently from finite products, quadrature, or
truncated series, with the discrepancy reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constructions import default_triwave_amplitude, tri
from .errors import InvalidConfigError, QuadratureError

SQRT3 = math.sqrt(3.0)

CONSTANT_NAMES = ("C1", "C2", "C3", "Cstar", "J", "even_bound")


@dataclass(frozen=True)
class ConstantReport:
    name: str
    closed_form_value: float
    alt_route_value: float
    alt_route: str
    abs_discrepancy: float
    tolerance: float

    @property
    def within_tolerance(self) -> bool:
        return self.abs_discrepancy <= self.tolerance


def zeta3(terms: int = 20000) -> float:
    """zeta(3) by direct summation with an Euler-Maclaurin tail.

    The tail past N is 1/(2N^2) - 1/(2N^3) + 1/(4N^4) + O(N^-6), so the
    default 2e4 terms give full double precision.
    """
    if terms < 10:
        raise InvalidConfigError("too few terms")
    k = np.arange(1, terms + 1, dtype=float)
    n = float(terms)
    return float(np.sum(1.0 / k ** 3) + 1.0 / (2 * n * n) - 1.0 / (2 * n ** 3)
                 + 1.0 / (4 * n ** 4))


# ---------------------------------------------------------------------------
# junction constants of the bent polygon
# ---------------------------------------------------------------------------

def _closed_cstar() -> float:
    return 3.0 ** 2.25 / 8.0 * math.exp((math.pi ** 2 - 2.0 * SQRT3 * math.pi) / 8.0)


def _chord2_one_junction(x, y, d):
    """Squared distance across one bent junction, angle offset d."""
    return (np.sin(x) ** 2 + np.sin(y) ** 2
            + 2.0 * np.sin(x) * np.sin(y) * np.cos((x + y) - d))


def _chord2_two_junctions(x, y, d):
    """Squared distance spanning two junctions, angle offsets -d / +d."""
    a = math.pi / 6.0
    return ((0.5 + np.cos(a + x - d) * np.sin(x) + np.cos(a + y + d) * np.sin(y)) ** 2
            + (np.sin(a + x - d) * np.sin(x) - np.sin(a + y + d) * np.sin(y)) ** 2)


def regime_product(regime: int, k: int) -> float:
    """Finite product of squared-distance ratios between the bent and the
    regular 6k-gon for pairs spanning one, two, or three junctions.

    Computed in log space from the closed per-pair chord formulas; converges
    to C1, C2, C3 respectively as k grows.
    """
    if regime not in (1, 2, 3):
        raise InvalidConfigError("regime must be 1, 2 or 3")
    if k < 1:
        raise InvalidConfigError("need k >= 1")
    n = 6 * k
    delta = math.pi / n
    t = np.arange(1, k + 1) * (math.pi / n)
    x = t[:, None]
    y = t[None, :]
    if regime == 1:
        a2 = np.sin(x + y) ** 2
        logs = (np.log(_chord2_one_junction(x, y, delta))
                + np.log(_chord2_one_junction(x, y, -delta))
                - 2.0 * np.log(a2))
    elif regime == 2:
        a2 = _chord2_two_junctions(x, y, 0.0)
        logs = (np.log(_chord2_two_junctions(x, y, delta))
                + np.log(_chord2_two_junctions(x, y, -delta))
                - 2.0 * np.log(a2))
    else:
        logs = 2.0 * (np.log(np.cos(x - y - delta / 2.0) ** 2)
                      - np.log(np.cos(x - y) ** 2))
    return float(np.exp(np.sum(logs)))


def _integrand_rows(regime: int, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The junction integrand h(b, c) / sin^4(b + c + phi) in separable form.

    h(b, c) = sum_k f_k(b) g_k(c), each row a polynomial in the cosine and
    sine of its angle, expanded from the paper's form of h (which the tests
    keep as their reference).  Returns the rows f and g on the nodes t, as (K, len(t))
    arrays, and the offset phi.
    """
    c, s = np.cos(t), np.sin(t)
    if regime == 1:
        f = [c * s ** 3, c * s, s ** 4, s ** 2]
        g = [2 * c * s, 2 * c * s ** 3, -2 * s ** 2, -2 * s ** 2 * (s ** 2 - 2)]
        return np.array(f), np.array(g), 0.0
    if regime == 2:
        f = [c ** 4, c ** 3 * s, c ** 2, c * s, np.ones_like(t)]
        g = [-(4 * c ** 2 - 3) / 2,
             (4 * c * s - SQRT3) / 2,
             -(16 * c ** 4 - 24 * c ** 2 + 7) / 8,
             (16 * c ** 3 * s - 24 * c * s + 5 * SQRT3) / 8,
             (12 * c ** 4 - 4 * SQRT3 * c ** 3 * s - 7 * c ** 2 + 5 * SQRT3 * c * s - 2) / 8]
        return np.array(f), np.array(g), math.pi / 6.0
    f = [c ** 2, c * s, np.ones_like(t)]
    g = [(2 * c ** 2 + 2 * SQRT3 * c * s - 1) / 4,
         (2 * SQRT3 * c ** 2 - 2 * c * s - SQRT3) / 4,
         -(2 * c ** 2 + 2 * SQRT3 * c * s - 3) / 8]
    return np.array(f), np.array(g), math.pi / 3.0


def _graded_gauss_nodes(panels: int, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [0, pi/6], geometrically graded at 0.

    The grading resolves the bounded-but-unsmooth corner of the one-junction
    integrand; the other integrands are analytic and unaffected.
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes)
    length = math.pi / 6.0
    edges = [0.0] + [length * 2.0 ** (-i) for i in range(panels, -1, -1)]
    xs, ws = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        xs.append(0.5 * (hi - lo) * xg + 0.5 * (lo + hi))
        ws.append(0.5 * (hi - lo) * wg)
    return np.concatenate(xs), np.concatenate(ws)


# rows of the kernel 1 / sin^4(x + y + phi) built at a time by _regime_quadrature
_KERNEL_ROWS = 64


def _regime_quadrature(regime: int, nodes: int, panels: int) -> float:
    """sum_k (w f_k)^T R (w g_k) with R = 1 / sin^4(x + y + phi) on the tensor
    grid, R built a block of rows at a time from the addition formula."""
    t, w = _graded_gauss_nodes(panels, nodes)
    f, g, phi = _integrand_rows(regime, t)
    f, g = f * w, g * w
    sx, cx = np.sin(t), np.cos(t)
    sy, cy = np.sin(t + phi), np.cos(t + phi)
    total = 0.0
    for lo in range(0, len(t), _KERNEL_ROWS):
        rows = slice(lo, lo + _KERNEL_ROWS)
        r = np.multiply.outer(sx[rows], cy)
        r += np.multiply.outer(cx[rows], sy)
        r *= r
        r *= r
        np.divide(1.0, r, out=r)
        total += float(np.vdot(f[:, rows], g @ r.T))
    return total


def regime_integral(regime: int, nodes: int = 16, panels: int = 24) -> float:
    """Double integral whose value is -ln C_regime, by tensor Gauss-Legendre
    on a geometrically graded grid, summed as the low-rank form of
    _regime_quadrature; raises if doubling the nodes moves the result by
    1e-10 or more."""
    v = _regime_quadrature(regime, nodes, panels)
    v2 = _regime_quadrature(regime, 2 * nodes, panels)
    if abs(v2 - v) >= 1e-10:
        raise QuadratureError(
            f"regime {regime} quadrature unstable: doubling moved {abs(v2 - v):.2e}")
    return v2


def regime_integral_closed(regime: int) -> float:
    """Closed-form values of the three junction integrals."""
    if regime == 1:
        return -0.25 + math.pi * SQRT3 / 24.0 + math.log(3.0) / 8.0
    if regime == 2:
        return (0.25 - 5.0 * math.log(3.0) / 8.0 + math.pi * SQRT3 / 24.0
                + math.log(2.0) / 2.0)
    if regime == 3:
        return -math.log(3.0) / 2.0 + math.log(2.0)
    raise InvalidConfigError("regime must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# triangular-wave constants
# ---------------------------------------------------------------------------

def j_closed() -> float:
    """Closed form of the quadratic-form constant, 1/3 - 84 zeta(3) / pi^4."""
    return 1.0 / 3.0 - 84.0 * zeta3() / math.pi ** 4


def j_series(r_max: int = 100000) -> float:
    """Truncated odd series (32/pi^4) sum (1 - 3r)/r^4 plus its asymptotic tail.

    The tail over odd r >= M is -3/(4M^2) - 4/(3M^3) - 1/M^4 + O(M^-6),
    which brings the default truncation to full double precision.
    """
    if r_max < 1:
        raise InvalidConfigError("need r_max >= 1")
    r = np.arange(1, r_max + 1, 2, dtype=float)
    partial = float(np.sum((1.0 - 3.0 * r) / r ** 4))
    m = float(r[-1]) + 2.0
    tail = -3.0 / (4.0 * m * m) - 4.0 / (3.0 * m ** 3) - 1.0 / m ** 4
    return 32.0 / math.pi ** 4 * (partial + tail)


def j_series_error(r_max: int) -> float:
    """Upper bound on the truncation error of j_series after the tail correction."""
    m = float(2 * ((r_max + 1) // 2)) + 1.0  # first odd term beyond the sum
    return 32.0 / math.pi ** 4 * 8.0 / m ** 4 + 1e-15


def _rho_matrix(theta: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """rho(x, y) = (f(x) - f(y)) / (e^{ix} - e^{iy}) with f = tri(3 t) e^{it},
    zero on the diagonal: rows lo to hi (all by default) of the matrix on the
    full angle grid."""
    xi = np.exp(1j * theta)
    f = tri(3.0 * theta) * xi
    num = f[lo:hi, None] - f[None, :]
    den = xi[lo:hi, None] - xi[None, :]
    diag = (np.arange(len(den)), lo + np.arange(len(den)))
    den[diag] = 1.0
    rho = num / den
    rho[diag] = 0.0
    return rho


def j_riemann(grid_n: int) -> float:
    """Discrete double average (1/n^2) sum_{i != j} Re(rho_ij^2) on the uniform
    angle grid, converging to the integral constant J."""
    if grid_n < 8 or grid_n % 2 != 0:
        raise InvalidConfigError("need even grid_n >= 8")
    theta = 2.0 * math.pi * np.arange(grid_n) / grid_n
    total = 0.0
    chunk = max(1, 2 ** 22 // grid_n)
    for s in range(0, grid_n, chunk):
        total += float(np.sum(np.real(_rho_matrix(theta, s, s + chunk) ** 2)))
    return total / grid_n ** 2


def rho_square_bound() -> float:
    """Uniform bound on |Re(rho^2)|: (pi/2 Lip(f))^2 with Lip(f) <= 6/pi + 1."""
    return (math.pi / 2.0 * (6.0 / math.pi + 1.0)) ** 2


def rk_values(k: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(e^{ikx} - e^{iky}) / (e^{ix} - e^{iy}) via its finite exponential sum,
    stable on the diagonal."""
    shape = np.broadcast(x, y).shape
    out = np.zeros(shape, dtype=complex)
    if k == 0:
        return out
    if k >= 1:
        for m in range(k):
            out += np.exp(1j * ((k - 1 - m) * x + m * y))
        return out
    p = -k
    for m in range(p):
        out += np.exp(-1j * ((m + 1) * x + (p - m) * y))
    return -out


def rk_integral_check(k: int, l: int) -> float:
    """Torus average of R_k R_l by 64-point tensor Gauss-Legendre.

    Equals 1 - |k - 1| when k + l = 2 and zero otherwise.
    """
    if abs(k) > 8 or abs(l) > 8:
        raise InvalidConfigError("|k|, |l| must be at most 8")
    xg, wg = np.polynomial.legendre.leggauss(64)
    t = math.pi * (xg + 1.0)
    w = math.pi * wg
    x = t[:, None]
    y = t[None, :]
    vals = rk_values(k, x, y) * rk_values(l, x, y)
    out = complex(np.einsum("i,j,ij->", w, w, vals)) / (4.0 * math.pi ** 2)
    return float(out.real)


def triwave_prediction(n: int) -> float:
    """Second-order prediction of log(Delta / n^n) for the frequency-3 wave:
    -(n t_n)^2 / 2 times the discrete quadratic-form average."""
    if n < 8 or n % 2 != 0:
        raise InvalidConfigError("need even n >= 8")
    return -((n * default_triwave_amplitude(n)) ** 2) / 2.0 * j_riemann(n)


def even_bound_closed() -> float:
    """exp(7 zeta(3)/24 - pi^4/864), the even-order limit of the wave family."""
    return math.exp(7.0 * zeta3() / 24.0 - math.pi ** 4 / 864.0)


def constant(name: str) -> ConstantReport:
    """Closed form and an independent route for one named constant."""
    if name in ("C1", "C2", "C3"):
        regime = int(name[1])
        closed = math.exp(-regime_integral_closed(regime))
        alt = math.exp(-regime_integral(regime))
        return ConstantReport(name, closed, alt,
                              alt_route="exp(-quadrature of the junction integral)",
                              abs_discrepancy=abs(closed - alt), tolerance=1e-8)
    if name == "Cstar":
        closed = _closed_cstar()
        c1 = math.exp(-regime_integral(1))
        c2 = math.exp(-regime_integral(2))
        c3 = math.exp(-regime_integral(3))
        alt = math.exp(math.pi ** 2 / 8.0) * c1 ** 3 * c2 ** 3 * c3 ** 1.5
        return ConstantReport(name, closed, alt,
                              alt_route="exp(pi^2/8) C1^3 C2^3 C3^(3/2), quadrature route",
                              abs_discrepancy=abs(closed - alt), tolerance=1e-8)
    if name == "J":
        closed = j_closed()
        alt = j_series()
        return ConstantReport(name, closed, alt,
                              alt_route="truncated odd series with integral tail",
                              abs_discrepancy=abs(closed - alt), tolerance=1e-9)
    if name == "even_bound":
        closed = even_bound_closed()
        alt = math.exp(-(math.pi ** 2 / 12.0) ** 2 * j_series() / 2.0)
        return ConstantReport(name, closed, alt,
                              alt_route="exp(-(pi^2/12)^2 J/2) with series J",
                              abs_discrepancy=abs(closed - alt), tolerance=1e-8)
    raise InvalidConfigError(
        f"unknown constant {name!r}; choose from {', '.join(CONSTANT_NAMES)}")
