"""Constrained maximization of log Delta over diameter-bounded configurations.

Each start perturbs a regular n-gon and climbs an augmented-Lagrangian
merit function in which every pair carries the inequality |z_i - z_j|^2 <= 4
(equality targets on prescribed graph edges).  The multiplier estimates then
seed an active-set Newton solve of the first-order system, which polishes
the configuration to stationarity near machine precision.  Starts are
independent and reproducible from (seed, start index).  All starts of a run
climb together as one stack of arrays, in lockstep rounds: each round steps
the starts still ascending at fixed multipliers, then updates their
multipliers and penalties at once.  A start's output does not depend on the
stack it ran in.
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
from .geometry import (PointConfig, complex_gradient, log_delta_bar, pairwise_distances,
                       upper_pairs)
from .kkt import _constraint_gaps, _constraint_matrix, _pair_arrays

TERM_CONVERGED = "gradient-converged"
TERM_ITERATION_CAP = "iteration-cap"
TERM_STALLED = "stalled"

# Largest ascent stack, in pair entries (starts x n^2); more starts run in
# consecutive chunks, so peak memory does not grow with the start count.
_STACK_ENTRIES = 1 << 14

# A polish that fails after this many ascent and Newton iterations in all is
# labelled iteration-cap rather than stalled.
_MAX_ITERS = 2000

# Per start: at most _ROUNDS ascent rounds of at most _ROUND_STEPS steps, the
# round's initial step, the initial penalty and its growth factor, the KKT
# residual below which a polished start counts as converged, and the
# constraint violation that ends the ascent.
_ROUNDS = 12
_ROUND_STEPS = 150
_STEP_INIT = 1e-2
_PENALTY_INIT = 10.0
_PENALTY_GROWTH = 10.0
_TOL_GRADIENT = 1e-8
_TOL_CONSTRAINT = 1e-10

# Largest sweep order; the number of admissible graphs grows exponentially.
_SWEEP_MAX_N = 12

# Line-search trials alpha * 2^-k, k < 50.  Scaling by a power of two is
# exact, so scoring several trials per merit call accepts the same one as
# trying them one at a time.
_HALVINGS = np.ldexp(1.0, -np.arange(50))
_TRIALS_PER_CALL = 3


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
    d = pairwise_distances(z)
    return z * (2.0 / d.max())


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
    perm = rng.permutation(n)

    def edge_len(p):
        return sum(abs(slots[p[a]] - slots[p[b]]) for a, b in edges)

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


def _pair_sq(z):
    """z_i - z_j over the last axis of z, and its squared modulus q.

    q is 1 on the diagonal, where diff and the multipliers are 0, so that
    log q, the penalty terms (mu > 0) and every gradient term vanish there.
    """
    n = z.shape[-1]
    diff = z[..., :, None] - z[..., None, :]
    q = np.abs(diff) ** 2
    q.reshape(-1, n * n)[:, ::n + 1] = 1.0  # the diagonals, through a strided view
    return diff, q


# The merit kernels take a stack: z (..., n), lam and eq (..., n, n), mu (...).
# eq is None when no pair of the stack is an equality target.  Each stack
# entry sees the element-wise operations and the reduction order of a single
# (n, n) evaluation, so its value does not depend on the stack around it.

def _merit_value(z, lam, mu, eq):
    _, q = _pair_sq(z)
    g = q - 4.0
    f = np.add.reduce(np.log(q), axis=(-2, -1)) / 2.0
    mu = mu[..., None, None]
    pen = (np.maximum(0.0, lam + mu * g) ** 2 - lam * lam) / (2.0 * mu)
    if eq is not None:
        pen = np.where(eq, lam * g + 0.5 * mu * g * g, pen)
    return f - np.add.reduce(pen, axis=(-2, -1)) / 2.0


def _merit_gradient(z, lam, mu, eq):
    diff, q = _pair_sq(z)
    g = q - 4.0
    grad_f = np.add.reduce(2.0 * diff / q, axis=-1)
    t = lam + mu[..., None, None] * g
    coef = np.maximum(0.0, t) if eq is None else np.where(eq, t, np.maximum(0.0, t))
    return grad_f - np.add.reduce(2.0 * coef * diff, axis=-1)


def _line_search(z, direction, phi, alpha, lam, mu, eq):
    """Per row, the first trial step alpha 2^-k (k < 50) whose point
    z + step direction has a merit above phi.

    Returns (found, z_new, phi_new, step): ``found`` is None when every row
    found one, else the mask of the rows that did.
    """
    todo = np.arange(len(z))
    sel = slice(None)  # rows of todo, without a gather while it holds all
    for first in range(0, len(_HALVINGS), _TRIALS_PER_CALL):
        steps = alpha[sel, None] * _HALVINGS[first:first + _TRIALS_PER_CALL]
        zt = z[sel, None] + steps[..., None] * direction[sel, None]
        phi_t = _merit_value(zt, lam[sel, None], mu[sel, None],
                             None if eq is None else eq[sel, None])
        better = phi_t > phi[sel, None]
        j = better.argmax(axis=1)
        hit = better.any(axis=1)
        if first == 0:
            if hit.all():
                return None, zt[todo, j], phi_t[todo, j], steps[todo, j]
            found = np.zeros(len(z), dtype=bool)
            z_new = np.empty_like(z)
            phi_new = np.empty(len(z))
            step = np.empty(len(z))
        rows, j = todo[hit], j[hit]
        found[rows] = True
        z_new[rows] = zt[hit, j]
        phi_new[rows] = phi_t[hit, j]
        step[rows] = steps[hit, j]
        todo = sel = todo[~hit]
        if not todo.size:
            break
    return found, z_new, phi_new, step


def _al_phase(z, eq, traces=None):
    """Augmented-Lagrangian ascent of the (S, n) stack of starts ``z``, in
    lockstep rounds.

    A round takes the starts still ascending through at most _ROUND_STEPS
    normalized-gradient steps at fixed multipliers and penalty.  A start
    leaves the round when its gradient test passes or its line search fails,
    and that step counts as one of its iterations.  After the round, each of
    its starts updates its multipliers and penalty, and leaves the ascent
    once its constraint violation is below _TOL_CONSTRAINT or after _ROUNDS
    rounds.

    ``eq`` is None or the (S, n, n) mask of equality pairs; ``traces``, when
    given, holds one list per start that receives its accepted steps as
    (round, iteration, merit, log Delta-bar).  Returns the final points, the
    (S, n, n) multiplier matrices and the iterations used per start.
    """
    S, n = z.shape
    z = z.copy()
    lam = np.zeros((S, n, n))
    mu = np.full(S, _PENALTY_INIT)
    viol_prev = np.full(S, math.inf)
    used = np.zeros(S, dtype=int)
    ids = np.arange(S)  # the starts still ascending
    for rnd in range(_ROUNDS):
        # the starts still stepping in this round, and their rows
        live, zl, laml, mul = ids, z[ids], lam[ids], mu[ids]
        eql = None if eq is None else eq[ids]
        gtol = np.maximum(1e-9, 1e-3 / mul)
        alpha = np.full(len(ids), _STEP_INIT)
        phi = _merit_value(zl, laml, mul, eql)
        for k in range(1, _ROUND_STEPS + 1):
            d = _merit_gradient(zl, laml, mul, eql)
            nd = np.maximum.reduce(np.abs(d), axis=1)
            go = nd >= gtol
            sub = slice(None) if go.all() else go
            found, z_new, phi, taken = _line_search(
                zl[sub], d[sub] / nd[sub, None], phi[sub], alpha[sub], laml[sub],
                mul[sub], None if eql is None else eql[sub])
            if found is not None:
                go[go] = found
                z_new, phi, taken = z_new[found], phi[found], taken[found]
            if not go.all():  # the rows that did not move end their round
                stop = ~go
                z[live[stop]] = zl[stop]
                used[live[stop]] += k
                live, laml, mul, gtol = live[go], laml[go], mul[go], gtol[go]
                eql = None if eql is None else eql[go]
            zl, alpha = z_new, np.minimum(taken * 2.0, 1.0)
            if traces is not None:
                for i, zi, p in zip(live.tolist(), zl, phi):
                    ldb = log_delta_bar(PointConfig.from_complex(_rescale(zi)))
                    traces[i].append((rnd, int(used[i]) + k, float(p), float(ldb)))
            if not live.size:
                break
        z[live] = zl
        used[live] += _ROUND_STEPS
        # multiplier and penalty update of the round's starts
        g = _pair_sq(z[ids])[1] - 4.0
        t = lam[ids] + mu[ids, None, None] * g
        if eq is None:
            viol, lam[ids] = np.maximum(0.0, g), np.maximum(0.0, t)
        else:
            viol = np.where(eq[ids], np.abs(g), np.maximum(0.0, g))
            lam[ids] = np.where(eq[ids], t, np.maximum(0.0, t))
        v = viol.max(axis=(1, 2))
        mu[ids[v > 0.25 * viol_prev[ids]]] *= _PENALTY_GROWTH
        viol_prev[ids] = v
        ids = ids[~(v < _TOL_CONSTRAINT)]
        if not ids.size:
            break
    return z, lam, used


def _grad_real(z):
    g = complex_gradient(z)
    return np.concatenate([g.real, g.imag])


def _kkt_F(z, lam, a, b):
    G = _constraint_matrix(z, a, b)
    return np.concatenate([_grad_real(z) - G @ lam, _constraint_gaps(z, a, b)]), G


def _hessian_f(z):
    n = len(z)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    q = np.abs(diff) ** 2
    iq = 1.0 / q
    np.fill_diagonal(iq, 0.0)
    wx, wy = diff.real, diff.imag
    axx = 2 * iq - 4 * wx * wx * iq ** 2
    axy = -4 * wx * wy * iq ** 2
    ayy = 2 * iq - 4 * wy * wy * iq ** 2
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = -axx
    H[:n, n:] = -axy
    H[n:, :n] = -axy
    H[n:, n:] = -ayy
    idx = np.arange(n)
    H[idx, idx] = axx.sum(axis=1)
    H[idx, n + idx] = axy.sum(axis=1)
    H[n + idx, idx] = axy.sum(axis=1)
    H[n + idx, n + idx] = ayy.sum(axis=1)
    return H


_PAIR_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])


def _newton_kkt(z, act, lam_matrix, keep):
    """Active-set Newton solve of the stationarity system: at most 20
    working sets, each solved until max |F| < 1e-11.

    ``lam_matrix`` seeds the first working set's multipliers.  Pairs in
    ``keep`` stay in the working set even with negative multipliers
    (prescribed graph edges are equality targets).  Returns
    (z, converged, newton_iters).
    """
    n = len(z)
    act = sorted(set(act))
    a, b = _pair_arrays(act)
    lam = lam_matrix[a, b]
    iu = np.triu(np.ones((n, n), dtype=bool), 1)
    total_its = 0
    for _ in range(20):
        # pair c adds -2 lam_c [[1, -1], [-1, 1]] to the Hessian at rows and
        # columns (a_c, b_c) of both coordinate blocks, in pair order
        rows = np.stack([a, b, a, b], axis=1).ravel()
        cols = np.stack([a, b, b, a], axis=1).ravel()
        at = (np.concatenate([rows, n + rows]), np.concatenate([cols, n + cols]))
        if lam is None:
            lam = kkt._nnls_project_resolve(kkt._gap_gradients(z, a, b), a, b,
                                            complex_gradient(z), len(act) + 2)
        zz, lm = z.copy(), lam.copy()
        # the residual and Jacobian at (zz, lm): computed here, then taken
        # over from the line search's accepted trial
        F, G = _kkt_F(zz, lm, a, b)
        converged = False
        for _ in range(100):
            total_its += 1
            nf = np.abs(F).max()
            if nf < 1e-11:
                converged = True
                break
            H = _hessian_f(zz)
            s = (2.0 * lm[:, None] * _PAIR_SIGNS).ravel()
            np.add.at(H, at, -np.concatenate([s, s]))
            m = len(act)
            J = np.zeros((2 * n + m, 2 * n + m))
            J[:2 * n, :2 * n] = H
            J[:2 * n, 2 * n:] = -G
            J[2 * n:, :2 * n] = G.T
            du, *_ = np.linalg.lstsq(J, -F, rcond=None)
            t = 1.0
            accepted = False
            for _ in range(45):
                zt = zz + (du[:n] + 1j * du[n:2 * n]) * t
                lt = lm + du[2 * n:] * t
                dm = pairwise_distances(zt)
                np.fill_diagonal(dm, 1.0)
                if dm.min() < 1e-7:
                    t *= 0.5
                    continue
                F2, G2 = _kkt_F(zt, lt, a, b)
                if np.abs(F2).max() < nf * (1 - 1e-4 * t) + 1e-15:
                    zz, lm, F, G = zt, lt, F2, G2
                    accepted = True
                    break
                t *= 0.5
            if not accepted:
                break
        if not converged:
            return z, False, total_its
        # working-set adjustment: add the worst violated pair (the first in
        # row-major order among equals), else drop the most negative
        # removable multiplier
        d = pairwise_distances(zz)
        outside = iu & (d > 2.0 + 1e-10)
        outside[a, b] = False
        if outside.any():
            worst = divmod(int(np.where(outside, d, -np.inf).argmax()), n)
            act = sorted(set(act) | {worst})
        else:
            removable = [c for c, e in enumerate(act) if e not in keep and lm[c] < -1e-9]
            if not removable:
                return zz, True, total_its
            drop = act[min(removable, key=lambda c: lm[c])]
            act.remove(drop)
        a, b = _pair_arrays(act)
        z, lam = zz, None
    return z, False, total_its


def _polish(n, index, z, lam_matrix, used, keep, trace):
    """Newton polish, certification and summary of one start after its ascent."""
    d = pairwise_distances(z)
    act = set(keep) | set(upper_pairs((lam_matrix > 1e-7) | (d >= 2.0 - 1e-5)))
    z2, ok, newton_its = _newton_kkt(z, act, lam_matrix, keep)
    iterations = int(used) + newton_its

    z_final = _rescale(z2 if ok else z)
    config = PointConfig.from_complex(z_final)
    ldb = log_delta_bar(config)
    report = kkt.verify(config)
    residual = report.stationarity_residual
    if not ok:
        term = TERM_ITERATION_CAP if iterations >= _MAX_ITERS else TERM_STALLED
    else:
        term = TERM_CONVERGED if residual < _TOL_GRADIENT else TERM_STALLED
    summary = StartSummary(
        index=index, log_delta_bar=ldb, kkt_residual=residual,
        iterations=iterations, termination=term,
        active_set=report.active_set,
        trace=tuple(trace) if trace else (),
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
        keeps = [edges or frozenset() for edges, _ in part]
        eq = np.zeros((len(part), n, n), dtype=bool)
        for r, keep in enumerate(keeps):
            for a, b in keep:
                eq[r, a, b] = eq[r, b, a] = True
        traces = [[] for _ in part] if opts.record_trace else None
        z, lam, used = _al_phase(z, eq if eq.any() else None, traces)
        results += [_polish(n, s, z[r], lam[r], used[r], keeps[r],
                            traces[r] if traces else None)
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
