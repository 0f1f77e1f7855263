"""Constrained maximization of log Delta over diameter-bounded configurations.

Each start perturbs a regular n-gon and climbs an augmented-Lagrangian
merit function in which every pair carries the inequality |z_i - z_j|^2 <= 4
(equality targets on prescribed graph edges), by modified Newton steps on
the merit.  The multiplier estimates then seed a Newton solve of the
first-order system on the one working set the ascent ends on, which polishes
the configuration to stationarity near machine precision.  One pair kernel
gives both Newton methods their Hessian.  Starts are independent and
reproducible from (seed, start index).
All starts of a run climb together as one stack of arrays, in lockstep
rounds: each round steps the starts still ascending at fixed multipliers,
then updates their multipliers and penalties at once.  A start's output does
not depend on the stack it ran in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kkt
from .diamgraph import (DiameterGraph, enumerate_caterpillars,
                        enumerate_unicyclic_candidates)
from .errors import InvalidConfigError
from .geometry import (PointConfig, _pair_rows, _pair_sq, _rescale_factor,
                       complex_gradient, log_delta_bar, upper_pairs)
from .kkt import _constraint_gaps, _constraint_matrix, _pair_arrays

TERM_CONVERGED = "gradient-converged"
TERM_STALLED = "stalled"

# Largest ascent stack, in pair entries (starts x n^2); more starts run in
# consecutive chunks, so peak memory does not grow with the start count.
_STACK_ENTRIES = 1 << 14

# Per start: at most _ROUNDS ascent rounds of at most _ROUND_STEPS steps, the
# initial penalty and its growth factor, the count of consecutive stalling
# rounds that ends the ascent, the KKT residual below which a polished start
# counts as converged, and the constraint violation that ends the ascent.
# A round stalls when the penalty grew 10x and the violation fell by more
# than 2x but by no more than 4x, about the sqrt(10) of a violation that
# falls only as mu^-1/2: then no finite multiplier exists, and more penalty
# buys nothing.
_ROUNDS = 12
_ROUND_STEPS = 150
_PENALTY_INIT = 10.0
_PENALTY_GROWTH = 10.0
_STALL_ROUNDS = 3
_TOL_GRADIENT = 1e-8
_TOL_CONSTRAINT = 1e-10

# Largest sweep order; the number of admissible graphs grows exponentially.
_SWEEP_MAX_N = 12

# Line-search trials 2^-k, k < 50.  Scaling by a power of two is exact, so
# scoring several trials per merit call accepts the same one as trying them
# one at a time.
_HALVINGS = np.ldexp(1.0, -np.arange(50))
_TRIALS_PER_CALL = 3

# The ascent's Newton step: the smallest curvature it divides by, and the
# largest move of one point.
_CURVATURE_FLOOR = 1e-8
_STEP_CAP = 0.1


@dataclass(frozen=True)
class OptimizeOptions:
    seed: int = 0
    starts: int = 32
    record_trace: bool = False

    def __post_init__(self):
        if self.starts < 1:
            raise InvalidConfigError("starts must be >= 1")


@dataclass(frozen=True)
class StartSummary:
    index: int
    log_delta_bar: float
    kkt_residual: float
    iterations: int
    termination: str
    active_set: tuple
    trace: tuple = ()
    al_rounds: int = 0
    final_penalty: float = 0.0


@dataclass(frozen=True)
class OptimizeResult:
    config: PointConfig
    log_delta_bar: float
    iterations: int
    termination: str
    active_set: tuple
    kkt_residual: float
    multipliers: dict
    starts: tuple
    requested_graph: Optional[DiameterGraph] = None
    achieved_matches_request: Optional[bool] = None
    graph_infeasible: bool = False

    @property
    def delta_bar(self) -> float:
        return math.exp(self.log_delta_bar)


def _rescale(z: np.ndarray) -> np.ndarray:
    return z * _rescale_factor(_pair_rows(z).diameter)


def _start_config(n: int, seed: int, index: int, eq_edges=None) -> np.ndarray:
    """Perturbed regular n-gon: radial noise U(-0.1, 0.1), angular U(-pi/n, pi/n).

    With target edges, the points are first assigned to polygon slots so the
    requested pairs start long (a greedy swap search); otherwise labels are
    irrelevant and the identity assignment is used.
    """
    rng = np.random.default_rng([seed, index])
    radius = 1.0 if n % 2 == 0 else 1.0 / math.cos(math.pi / (2 * n))
    rad = rng.uniform(-0.1, 0.1, n)
    ang = rng.uniform(-math.pi / n, math.pi / n, n)
    z = (radius + rad) * np.exp(1j * (2 * math.pi * np.arange(n) / n + ang))
    if eq_edges:
        slots = np.exp(1j * (2 * math.pi * np.arange(n) / n))
        perm = _edge_stretching_permutation(n, eq_edges, slots, rng)
        z = z[perm]
    return _rescale(z)


def _edge_stretching_permutation(n, edges, slots, rng):
    """Assignment of graph vertices to polygon slots making the edges long.

    Hill-climbs total edge length over vertex-slot swaps from a random
    assignment; deterministic given the generator state.
    """
    perm = rng.permutation(n).tolist()
    dist = np.abs(slots[:, None] - slots[None, :]).tolist()

    def edge_len(p):
        return sum(dist[p[a]][p[b]] for a, b in edges)

    best = edge_len(perm)
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                perm[i], perm[j] = perm[j], perm[i]
                val = edge_len(perm)
                if val > best + 1e-12:
                    best = val
                    improved = True
                else:
                    perm[i], perm[j] = perm[j], perm[i]
    return perm


# The merit kernels take a stack: z (..., n), lam and lo (..., n, n), mu (...).
# Pair (i, j) with g = q - 4 carries the penalty
#     (max(lo, lam + mu g)^2 - lam^2) / 2 mu,
# whose multiplier floor lo is 0 for the inequality g <= 0 and -inf for an
# equality target g = 0, where the penalty is lam g + mu g^2 / 2.  Each stack
# entry sees the element-wise operations and the reduction order of a single
# (n, n) evaluation, so its value does not depend on the stack around it.

def _merit_value(z, lam, mu, lo):
    _, q = _pair_sq(z)
    g = q - 4.0
    f = np.add.reduce(np.log(q), axis=(-2, -1)) / 2.0
    mu = mu[..., None, None]
    pen = (np.maximum(lo, lam + mu * g) ** 2 - lam * lam) / (2.0 * mu)
    return f - np.add.reduce(pen, axis=(-2, -1)) / 2.0


def _merit_derivatives(z, lam, mu, lo):
    """The merit's gradient, as complex d/dx + i d/dy per point, and its
    Hessian in x-then-y coordinates, from one pair pass.

    A pair whose penalty is switched on (t = lam + mu g > lo) adds
    mu grad g grad g^T + t hess g to the penalty's Hessian.
    """
    diff, q = _pair_sq(z)
    g = q - 4.0
    grad_f = np.add.reduce(2.0 * diff / q, axis=-1)
    mu = mu[..., None, None]
    t = lam + mu * g
    coef = np.maximum(lo, t)
    on = t > lo
    grad = grad_f - np.add.reduce(2.0 * coef * diff, axis=-1)
    return grad, _pair_hessian(diff, q, coef, np.where(on, mu, 0.0))


def _pair_hessian(diff, q, c, m):
    """Hessian in x-then-y coordinates, (..., 2n, 2n), of the sum over pairs
    of log q - c g - m g^2 / 2 (g = q - 4) at fixed c and m, from the pair
    arrays of _pair_sq and the (..., n, n) pair coefficients c and m.

    Pair (i, j) with w = z_i - z_j contributes the 2 x 2 block
    B = (2/q - 2c) I - 4 (1/q^2 + m) w w^T at (i, i) and (j, j), and -B at
    (i, j) and (j, i).
    """
    n = diff.shape[-1]
    a = 2.0 / q - 2.0 * c
    a.reshape(-1, n * n)[:, ::n + 1] = 0.0  # no pair on the diagonal
    b = 4.0 / (q * q) + 4.0 * m
    wx, wy = diff.real, diff.imag
    bxy = -b * wx * wy
    blocks = np.stack([a - b * wx * wx, bxy, bxy, a - b * wy * wy], axis=-3)
    H = -blocks
    H.reshape(-1, n * n)[:, ::n + 1] = np.add.reduce(blocks, axis=-1).reshape(-1, n)
    H = H.reshape(H.shape[:-3] + (2, 2, n, n)).swapaxes(-3, -2)
    return H.reshape(H.shape[:-4] + (2 * n, 2 * n))


def _newton_step(z, grad, hess):
    """Modified Newton ascent step of each row of the (S, n) stack z on the
    merit with gradient ``grad`` and Hessian ``hess``.

    The step is V diag(1 / max(|w|, _CURVATURE_FLOOR)) V^T grad from the
    eigendecomposition V diag(w) V^T of -hess, so every curvature direction
    ascends.  The rigid motions (two translations and the rotation about
    the centroid) leave the merit unchanged; they are first projected out of
    -hess and put back as eigenvectors whose eigenvalue is the largest entry
    of |hess|, so the step has no part along them.  The step is scaled down
    so that no point moves more than _STEP_CAP.
    """
    S, n = z.shape
    u = np.zeros((S, 2 * n, 3))
    u[:, :n, 0] = u[:, n:, 1] = 1.0 / math.sqrt(n)
    r = 1j * (z - z.mean(axis=1, keepdims=True))
    r /= np.sqrt(np.add.reduce(r.real ** 2 + r.imag ** 2, axis=1))[:, None]
    u[:, :n, 2], u[:, n:, 2] = r.real, r.imag
    uu = u @ u.swapaxes(1, 2)
    proj = np.eye(2 * n) - uu
    a = -hess
    a = proj @ a @ proj + np.abs(a).max(axis=(1, 2))[:, None, None] * uu
    w, v = np.linalg.eigh(a)
    y = v.swapaxes(1, 2) @ np.concatenate([grad.real, grad.imag], axis=1)[..., None]
    p = (v @ (y / np.maximum(np.abs(w), _CURVATURE_FLOOR)[..., None]))[..., 0]
    step = p[:, :n] + 1j * p[:, n:]
    return step * np.minimum(1.0, _STEP_CAP / np.abs(step).max(axis=1))[:, None]


def _line_search(z, direction, phi, lam, mu, lo):
    """Per row, the first trial step 2^-k (k < 50) whose point
    z + step direction has a merit above phi.

    A row whose last trial so far rounds to z itself fails at once: every
    smaller step rounds to z too, and the merit there is phi.  Returns
    (found, z_new, phi_new): ``found`` masks the rows whose merit rose, and
    the other rows keep their z and phi.
    """
    z_new, phi_new = z.copy(), phi.copy()
    todo = np.arange(len(z))
    sel = slice(None)  # rows of todo, without a gather while it holds all
    for first in range(0, len(_HALVINGS), _TRIALS_PER_CALL):
        steps = _HALVINGS[first:first + _TRIALS_PER_CALL, None]
        zt = z[sel, None] + steps * direction[sel, None]
        phi_t = _merit_value(zt, lam[sel, None], mu[sel, None], lo[sel, None])
        better = phi_t > phi[sel, None]
        j = better.argmax(axis=1)
        hit = better.any(axis=1)
        rows, j = todo[hit], j[hit]
        z_new[rows] = zt[hit, j]
        phi_new[rows] = phi_t[hit, j]
        left = ~hit & (zt[:, -1] != z[sel]).any(axis=1)
        todo = sel = todo[left]
        if not todo.size:
            break
    return phi_new > phi, z_new, phi_new


def _violation(g, eq):
    """The largest constraint violation of each start of a stack, from its
    (S, n, n) pair gaps g and equality mask eq."""
    return np.where(eq, np.abs(g), np.maximum(0.0, g)).max(axis=(1, 2))


def _al_phase(z, eq, traces=None):
    """Augmented-Lagrangian ascent of the (S, n) stack of starts ``z``, in
    lockstep rounds.

    A round takes the starts still ascending through at most _ROUND_STEPS
    modified Newton steps (_newton_step) at fixed multipliers and penalty,
    each followed by a halving line search from the full step.  A start
    leaves the round when its gradient test passes or its line search fails,
    and that step counts as one of its iterations.  After the round, each of
    its starts updates its multipliers.  It leaves the ascent after _ROUNDS
    rounds, once its constraint violation is below _TOL_CONSTRAINT after a
    round that it left before its last step, or, if it has a prescribed
    edge, after _STALL_ROUNDS consecutive rounds each of which cut its
    violation by more than 2x but by no more than 4x; a start that stays
    grows its penalty 10x unless the round cut its violation by more than
    4x.  Once every start of a round passes its gradient test, the round
    ends without computing a step.

    ``eq`` is the (S, n, n) mask of equality pairs: their multiplier floor
    is -inf, every other pair's is 0.  ``traces``, when given, holds one list
    per start that receives its accepted steps as (round, iteration, merit,
    log Delta-bar).  Returns the final points, the (S, n, n) multiplier
    matrices, and per start the iterations used, the rounds run and the
    penalty of its last round.
    """
    S, n = z.shape
    z = z.copy()  # each start's one copy of its point, stepped in place
    lam = np.zeros((S, n, n))
    lo = np.where(eq, -np.inf, 0.0)
    mu = np.full(S, _PENALTY_INIT)
    viol_prev = np.full(S, math.inf)
    stalls = np.zeros(S, dtype=int)  # consecutive stalling rounds
    used = np.zeros(S, dtype=int)
    rounds = np.zeros(S, dtype=int)
    ids = np.arange(S)  # the starts still ascending
    for rnd in range(_ROUNDS):
        # the starts still stepping in this round, and their fixed merit terms
        live, laml, mul, lol = ids, lam[ids], mu[ids], lo[ids]
        gtol = np.maximum(1e-9, 1e-3 / mul)
        phi = _merit_value(z[live], laml, mul, lol)
        for k in range(1, _ROUND_STEPS + 1):
            d, hess = _merit_derivatives(z[live], laml, mul, lol)
            go = np.maximum.reduce(np.abs(d), axis=1) >= gtol
            if go.any():
                sub = slice(None) if go.all() else go
                rows = live[sub]
                found, z[rows], phi[sub] = _line_search(
                    z[rows], _newton_step(z[rows], d[sub], hess[sub]), phi[sub],
                    laml[sub], mul[sub], lol[sub])
                go[go] = found
            if not go.all():  # the rows that did not move end their round
                used[live[~go]] += k
                live, phi, laml, mul, lol, gtol = (
                    live[go], phi[go], laml[go], mul[go], lol[go], gtol[go])
            if traces is not None:
                for i, p in zip(live.tolist(), phi):
                    ldb = log_delta_bar(PointConfig.from_complex(z[i]))
                    traces[i].append((rnd, int(used[i]) + k, float(p), float(ldb)))
            if not live.size:
                break
        used[live] += _ROUND_STEPS
        rounds[ids] += 1
        # multiplier and penalty update of the round's starts
        g = _pair_sq(z[ids])[1] - 4.0
        lam[ids] = np.maximum(lo[ids], lam[ids] + mu[ids, None, None] * g)
        v, prev = _violation(g, eq[ids]), viol_prev[ids]
        grow = v > 0.25 * prev
        stalls[ids] = np.where(grow & (v <= 0.5 * prev), stalls[ids] + 1, 0)
        viol_prev[ids] = v
        # a start whose round used every step is not stationary yet
        done = (v < _TOL_CONSTRAINT) & ~np.isin(ids, live)
        done |= (stalls[ids] >= _STALL_ROUNDS) & eq[ids].any(axis=(1, 2))
        done |= rnd == _ROUNDS - 1
        mu[ids[grow & ~done]] *= _PENALTY_GROWTH
        ids = ids[~done]
        if not ids.size:
            break
    return z, lam, used, rounds, mu


def _grad_real(z):
    g = complex_gradient(z)
    return np.concatenate([g.real, g.imag])


def _kkt_F(z, lam, a, b):
    G = _constraint_matrix(z, a, b)
    return np.concatenate([_grad_real(z) - G @ lam, _constraint_gaps(z, a, b)]), G


# The stop rule of one Newton working set, set out in _newton_kkt.
_NEWTON_TOL = 1e-11
_NEWTON_FLOOR = 1e-9
_NEWTON_PATIENCE = 2
_NEWTON_HOPELESS = 1e-3
_NEWTON_CRAWL = 10
_NEWTON_TRIALS = 16


def _newton_kkt(z, act, lam):
    """Newton solve of the stationarity system on one working set: the
    sorted pair list ``act`` with the multipliers ``lam``, from any source.

    The set converges once max |F| < _NEWTON_TOL, or at the roundoff floor:
    max |F| < _NEWTON_FLOOR and the last step cut it by less than 10x or its
    line search failed, as a true Newton step from there lands far below
    _NEWTON_TOL.  The line search tries the steps 2^-k, at most 45 of them
    at the floor and _NEWTON_TRIALS above it.  The solve fails when its line
    search fails above the floor, after 100 steps, or as hopeless after
    _NEWTON_PATIENCE steps without a 10x drop while max |F| >= _NEWTON_HOPELESS,
    or after _NEWTON_CRAWL such steps at any max |F| above the floor.  The
    set is never changed: a converged point with a pair past the diameter or
    a negative multiplier is returned as it is, for the caller to judge.

    Returns (z, converged, steps); a failed solve returns z itself.
    """
    n, m = len(z), len(act)
    a, b = _pair_arrays(act)
    zz, lm = z, lam
    # the residual and Jacobian at (zz, lm): computed here, then taken over
    # from the line search's accepted trial
    F, G = _kkt_F(zz, lm, a, b)
    # max |F| before the last step, and at the last 10x drop
    last = ref = math.inf
    since = 0  # steps since the last 10x drop
    for steps in range(1, 101):
        nf = np.abs(F).max()
        if nf < _NEWTON_TOL or _NEWTON_FLOOR > nf > 0.1 * last:
            return zz, True, steps
        if nf < 0.1 * ref:
            ref, since = nf, 0
        elif since >= (_NEWTON_PATIENCE if nf >= _NEWTON_HOPELESS else _NEWTON_CRAWL):
            break
        c = np.zeros((n, n))
        c[a, b] = c[b, a] = lm
        J = np.zeros((2 * n + m, 2 * n + m))
        J[:2 * n, :2 * n] = _pair_hessian(*_pair_sq(zz), c, 0.0)
        J[:2 * n, 2 * n:] = -G
        J[2 * n:, :2 * n] = G.T
        du, *_ = np.linalg.lstsq(J, -F, rcond=None)
        t = 1.0
        for _ in range(45 if nf < _NEWTON_FLOOR else _NEWTON_TRIALS):
            zt = zz + (du[:n] + 1j * du[n:2 * n]) * t
            lt = lm + du[2 * n:] * t
            # coincident trial points give a non-finite residual, which
            # fails the test below
            with np.errstate(divide="ignore", invalid="ignore"):
                F2, G2 = _kkt_F(zt, lt, a, b)
            if np.abs(F2).max() < nf * (1 - 1e-4 * t) + 1e-15:
                zz, lm, F, G = zt, lt, F2, G2
                break
            t *= 0.5
        else:
            if nf < _NEWTON_FLOOR:
                return zz, True, steps
            break
        last, since = nf, since + 1
    return z, False, steps


def _polish(index, z, lam_matrix, used, rounds, penalty, keep, trace):
    """Newton polish, certification and summary of one start after its
    ascent, which used ``used`` iterations in ``rounds`` rounds, the last at
    penalty ``penalty``.

    The working set is the prescribed pairs ``keep``, the pairs with an
    ascent multiplier above 1e-7 and the pairs within 1e-5 of the diameter,
    seeded with the ascent's multipliers.  verify judges the polished point,
    or the ascent's point when the solve failed.
    """
    act = sorted(set(keep).union(upper_pairs(lam_matrix > 1e-7),
                                 _pair_rows(z, active=1e-5).active))
    z2, ok, newton_its = _newton_kkt(z, act, lam_matrix[_pair_arrays(act)])
    iterations = int(used) + newton_its

    config = PointConfig.from_complex(_rescale(z2))
    ldb = log_delta_bar(config)
    report = kkt.verify(config)
    residual = report.stationarity_residual
    term = TERM_CONVERGED if ok and residual < _TOL_GRADIENT else TERM_STALLED
    summary = StartSummary(
        index=index, log_delta_bar=ldb, kkt_residual=residual,
        iterations=iterations, termination=term,
        active_set=report.active_set,
        trace=tuple(trace) if trace else (),
        al_rounds=int(rounds), final_penalty=float(penalty),
    )
    return summary, config, report.multipliers, ok


def _solve(n: int, opts: OptimizeOptions, edge_sets):
    """Every start for every edge set (a DiameterGraph's edges, so each pair
    is (a, b) with a < b; None: no equality targets), ascended as one stack
    in chunks of at most _STACK_ENTRIES pair entries.

    Returns, per edge set, its starts' (summary, config, multipliers, ok).
    """
    if n < 3:
        raise InvalidConfigError("need n >= 3")
    jobs = [(edges, s) for edges in edge_sets for s in range(opts.starts)]
    chunk = max(1, _STACK_ENTRIES // (n * n))
    results = []
    for lo in range(0, len(jobs), chunk):
        part = jobs[lo:lo + chunk]
        z = np.array([_start_config(n, opts.seed, s, edges) for edges, s in part])
        eq = np.zeros((len(part), n, n), dtype=bool)
        for r, (edges, _) in enumerate(part):
            for a, b in edges or ():
                eq[r, a, b] = eq[r, b, a] = True
        traces = [[] for _ in part] if opts.record_trace else None
        z, lam, used, rounds, mu = _al_phase(z, eq, traces)
        results += [_polish(s, z[r], lam[r], used[r], rounds[r], mu[r],
                            upper_pairs(eq[r]), traces[r] if traces else None)
                    for r, (_, s) in enumerate(part)]
    return [results[i:i + opts.starts] for i in range(0, len(results), opts.starts)]


def _result(results, graph: Optional[DiameterGraph] = None) -> OptimizeResult:
    """The winning start (largest value, ties to the smaller residual) of one
    run, with the run's start summaries and, for a target graph, its flags."""
    best = None
    for summary, config, multipliers, ok in results:
        key = (summary.log_delta_bar, -summary.kkt_residual)
        if best is None or key > best[0]:
            best = (key, summary, config, multipliers, ok)
    _, summary, config, multipliers, ok = best
    flags = {}
    if graph is not None:
        achieved = set(summary.active_set)
        requested = set(graph.edges)
        flags = dict(requested_graph=graph,
                     achieved_matches_request=achieved == requested,
                     graph_infeasible=not ok or not requested <= achieved)
    return OptimizeResult(
        config=config,
        log_delta_bar=summary.log_delta_bar,
        iterations=sum(r[0].iterations for r in results),
        termination=summary.termination,
        active_set=summary.active_set,
        kkt_residual=summary.kkt_residual,
        multipliers=multipliers,
        starts=tuple(r[0] for r in results),
        **flags,
    )


def maximize_free(n: int, opts: OptimizeOptions = OptimizeOptions()) -> OptimizeResult:
    """Best local maximizer over seeded multi-starts, all pairs constrained to <= 2."""
    return _result(_solve(n, opts, [None])[0])


def _check_graph(n: int, graph: DiameterGraph) -> None:
    if graph.n != n:
        raise InvalidConfigError("graph order does not match n")
    if len(graph.edges) > n:
        raise InvalidConfigError("a realizable diameter graph has at most n edges")


def maximize_with_graph(n: int, graph: DiameterGraph,
                        opts: OptimizeOptions = OptimizeOptions()) -> OptimizeResult:
    """Like maximize_free but with |z_i - z_j| = 2 targeted on the graph edges.

    The result records whether the achieved active set equals the requested
    edge set; an unreachable edge set yields a flagged result, not an error.
    """
    _check_graph(n, graph)
    return _result(_solve(n, opts, [graph.edges])[0], graph)


def sweep_graphs(n: int, opts: OptimizeOptions = OptimizeOptions()):
    """Run the graph-targeted optimizer over all admissible diameter graphs.

    All starts of all graphs ascend as one stack; each graph's result equals
    that of maximize_with_graph.  Returns (graph, result) pairs sorted by
    decreasing log Delta-bar.
    """
    if n > _SWEEP_MAX_N:
        raise InvalidConfigError(f"sweep capped at n = {_SWEEP_MAX_N}")
    graphs = enumerate_caterpillars(n) + enumerate_unicyclic_candidates(n)
    solved = _solve(n, opts, [g.edges for g in graphs])
    ranked = [(g, _result(results, g)) for g, results in zip(graphs, solved)]
    # near-ties in value go to the graph that was achieved exactly, then to
    # the cleaner stationary point
    ranked.sort(key=lambda item: (round(item[1].log_delta_bar, 9),
                                  bool(item[1].achieved_matches_request),
                                  -item[1].kkt_residual), reverse=True)
    return ranked


def gauge_fix(config: PointConfig) -> PointConfig:
    """Canonical pose: centroid at the origin, the farthest point on the
    positive x-axis, and the second-farthest with nonnegative y."""
    z = config.as_complex
    z = z - z.mean()
    r = np.abs(z)
    order = np.argsort(-r, kind="stable")
    far = order[0]
    if r[far] > 0:
        z = z * np.exp(-1j * np.angle(z[far]))
    second = order[1] if len(order) > 1 else order[0]
    if z[second].imag < 0:
        z = np.conj(z)
    return PointConfig.from_complex(z)


def congruent(a: PointConfig, b: PointConfig, tol: float = 1e-5) -> bool:
    """True iff the two point sets agree up to translation/rotation/reflection.

    Tries every alignment of a far point of one set onto a far point of the
    other and greedily matches the rest within per-coordinate tolerance.
    """
    if a.n != b.n:
        return False
    za = a.as_complex - a.as_complex.mean()
    zb = b.as_complex - b.as_complex.mean()
    rb = np.abs(zb)
    ref = int(np.argmax(rb))
    if rb[ref] == 0.0:
        return bool(np.abs(za).max() <= tol)
    candidates = [i for i in range(a.n) if abs(abs(za[i]) - rb[ref]) <= 2 * tol]
    for i in candidates:
        if abs(za[i]) == 0:
            continue
        for flip in (False, True):
            zt = np.conj(za) if flip else za
            zt = zt * (zb[ref] / (np.conj(za[i]) if flip else za[i]))
            used = [False] * b.n
            good = True
            for p in zt:
                hit = None
                for j in range(b.n):
                    if used[j]:
                        continue
                    dd = p - zb[j]
                    if abs(dd.real) <= tol and abs(dd.imag) <= tol:
                        hit = j
                        break
                if hit is None:
                    good = False
                    break
                used[hit] = True
            if good:
                return True
    return False
