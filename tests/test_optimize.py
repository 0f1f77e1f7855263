import math
import warnings

import numpy as np
import pytest

from polydisc import (
    GraphKind,
    OptimizeOptions,
    PointConfig,
    classify,
    congruent,
    conjectured_even_graph,
    gauge_fix,
    maximize_free,
    maximize_with_graph,
    parse_graph_text,
    sweep_graphs,
)
from polydisc import geometry, optimize
from polydisc.constructions import arc_polygon, hexagon6, kite4, regular_ngon
from polydisc.diamgraph import maximizer_structure_report
from polydisc.geometry import diameter, log_delta_bar, pairwise_distances, upper_pairs
from polydisc.kkt import verify

SQRT3 = math.sqrt(3.0)
KITE_VALUE = 16.0 * (7.0 - 4.0 * SQRT3)
HEXAGON_VALUE = (2.0 * SQRT3 - 2.0) ** 18 / 3.0 ** 6
PENTAGON_VALUE = (4.0 / 5.0) ** 5 * (math.sqrt(5.0) - 1.0) ** 10


@pytest.fixture(scope="module")
def result_n4():
    return maximize_free(4, OptimizeOptions(seed=7, starts=16))


@pytest.fixture(scope="module")
def result_n5():
    return maximize_free(5, OptimizeOptions(seed=7, starts=16))


@pytest.fixture(scope="module")
def result_n6():
    return maximize_free(6, OptimizeOptions(seed=7, starts=16))


class TestMaximizeFree:
    def test_n4_reaches_kite(self, result_n4):
        assert result_n4.delta_bar == pytest.approx(KITE_VALUE, abs=1e-9)
        assert result_n4.termination == "gradient-converged"

    def test_n4_congruent_to_kite(self, result_n4):
        assert congruent(result_n4.config, kite4(), tol=1e-5)

    def test_n5_reaches_pentagon(self, result_n5):
        assert result_n5.delta_bar == pytest.approx(PENTAGON_VALUE, abs=1e-9)
        assert congruent(result_n5.config, regular_ngon(5), tol=1e-5)

    def test_n6_reaches_hexagon(self, result_n6):
        assert result_n6.delta_bar == pytest.approx(HEXAGON_VALUE, abs=1e-9)

    def test_never_exceeds_proven_maxima(self, result_n4, result_n5, result_n6):
        assert result_n4.delta_bar <= KITE_VALUE + 1e-9
        assert result_n5.delta_bar <= PENTAGON_VALUE + 1e-9
        assert result_n6.delta_bar <= HEXAGON_VALUE + 1e-9

    def test_feasible_at_return(self, result_n6):
        d = pairwise_distances(result_n6.config.as_complex)
        assert d.max() <= 2.0 + 1e-10
        assert diameter(result_n6.config) == pytest.approx(2.0, abs=1e-12)

    def test_kkt_residual_small(self, result_n6):
        assert result_n6.kkt_residual < 1e-8

    def test_per_start_summaries(self, result_n6):
        assert len(result_n6.starts) == 16
        assert all(s.iterations > 0 for s in result_n6.starts)
        best = max(s.log_delta_bar for s in result_n6.starts)
        assert best == result_n6.log_delta_bar

    def test_determinism(self):
        opts = OptimizeOptions(seed=123, starts=4)
        a = maximize_free(5, opts)
        b = maximize_free(5, opts)
        assert a.log_delta_bar == b.log_delta_bar
        assert np.array_equal(a.config.points, b.config.points)
        assert a.active_set == b.active_set

    @pytest.mark.parametrize("graph", [None, "6;1-2,2-3,1-3,1-4,2-5,3-6"],
                             ids=["free", "graph"])
    @pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
    def test_start_does_not_depend_on_batch(self, record_trace, graph):
        # start i takes the same steps in a batch of 1, 3 or 6 starts
        def starts(size):
            opts = OptimizeOptions(seed=5, starts=size, record_trace=record_trace)
            if graph is None:
                return maximize_free(6, opts).starts
            return maximize_with_graph(6, parse_graph_text(graph), opts).starts

        full = starts(6)
        for size in (1, 3):
            assert starts(size) == full[:size]
        if record_trace:
            steps = [entry[:2] for s in full for entry in s.trace]
            assert steps and all(rnd < 12 and it <= 1800 for rnd, it in steps)

    def test_chunks_match_one_stack(self, monkeypatch):
        opts = OptimizeOptions(seed=2, starts=5)
        whole = maximize_free(6, opts)
        monkeypatch.setattr(optimize, "_STACK_ENTRIES", 2 * 6 * 6)  # 2 starts a chunk
        chunked = maximize_free(6, opts)
        assert chunked.starts == whole.starts
        assert np.array_equal(chunked.config.points, whole.config.points)

    def test_merit_monotone_within_rounds(self):
        opts = OptimizeOptions(seed=3, starts=2, record_trace=True)
        result = maximize_free(4, opts)
        for summary in result.starts:
            assert summary.trace, "expected a recorded trace"
            by_round = {}
            for rnd, _step, merit, _ldb in summary.trace:
                by_round.setdefault(rnd, []).append(merit)
            for merits in by_round.values():
                assert all(b >= a for a, b in zip(merits, merits[1:]))


# A graph at n = 10 that its starts do not reach: with seed 2 and 2 starts,
# start 0's working set ends by the line-search trial cap and start 1's
# by the crawl rule.
GRAPH10 = "10;1-2,1-5,2-3,3-4,3-6,4-5,5-7,5-8,5-9,5-10"


def _newton_calls(monkeypatch, run):
    """((z, act, lam), (z_out, converged, steps)) of every _newton_kkt call
    while run() runs, in start order, and run()'s result."""
    calls = []
    newton = optimize._newton_kkt

    def record(*args):
        calls.append((args, newton(*args)))
        return calls[-1][1]

    monkeypatch.setattr(optimize, "_newton_kkt", record)
    return calls, run()


class TestNewtonStop:
    def test_n18_run_has_no_stalled_start(self, monkeypatch):
        # with only the 100-step cap ending a working set, starts 0, 1, 2 and
        # 6 stalled and the run made 4090 residual calls
        calls = []
        kkt_F = optimize._kkt_F
        monkeypatch.setattr(optimize, "_kkt_F",
                            lambda *args: calls.append(None) or kkt_F(*args))
        opts = OptimizeOptions(seed=1, starts=16)
        result = maximize_free(18, opts)
        assert [s.termination for s in result.starts] == ["gradient-converged"] * 16
        assert len(calls) < 1000
        # no start ends its ascent by the stall streak: without it, the run
        # takes the same steps
        monkeypatch.setattr(optimize, "_STALL_ROUNDS", optimize._ROUNDS + 1)
        assert maximize_free(18, opts).starts == result.starts

    def test_line_search_above_floor_is_capped(self, monkeypatch):
        # start 0's working set: max |F| = 5.99e-4, and after 7 steps
        # that barely cut it no step 2^-k with k < 16 cuts it enough, so the
        # set fails after 8 steps; with 45 trials it took 11 steps
        calls, _ = _newton_calls(monkeypatch, lambda: maximize_with_graph(
            10, parse_graph_text(GRAPH10), OptimizeOptions(seed=2, starts=2)))
        args, (z_out, ok, _) = calls[0]
        assert not ok and z_out is args[0]
        # replayed: the residuals of each step, split at its Hessian
        steps = [[]]
        kkt_F, pair_hessian = optimize._kkt_F, optimize._pair_hessian
        monkeypatch.setattr(optimize, "_kkt_F", lambda *a: steps[-1].append(
            np.abs(kkt_F(*a)[0]).max()) or kkt_F(*a))
        monkeypatch.setattr(optimize, "_pair_hessian",
                            lambda *a: steps.append([]) or pair_hessian(*a))
        optimize._newton_kkt(*args)
        assert min(min(r) for r in steps) >= optimize._NEWTON_FLOOR
        assert max(len(r) for r in steps[1:]) == optimize._NEWTON_TRIALS

    def test_hopeless_set_abandoned(self):
        # the polish run straight from start 1, without its ascent: max |F|
        # falls only from 16 to 8 in two steps
        graph = conjectured_even_graph(8)
        z = optimize._start_config(8, 0, 1, graph.edges)
        act = sorted(set(graph.edges) | set(upper_pairs(pairwise_distances(z) >= 2.0 - 1e-5)))
        z_out, ok, steps = optimize._newton_kkt(z, act, np.zeros(len(act)))
        assert not ok and z_out is z
        assert steps <= optimize._NEWTON_PATIENCE + 1

    def test_crawling_set_abandoned(self, monkeypatch):
        # start 1's working set: each step cuts max |F| = 6.8e-4 by
        # at most 0.05 %, after 12-16 line-search trials; with 45 trials and
        # only the 100-step cap it crawls for 100 steps
        calls, _ = _newton_calls(monkeypatch, lambda: maximize_with_graph(
            10, parse_graph_text(GRAPH10), OptimizeOptions(seed=2, starts=2)))
        args, (z_out, ok, steps) = calls[1]
        assert not ok and z_out is args[0]
        # at most a 10x step, then _NEWTON_CRAWL steps without one, then the test
        assert steps <= optimize._NEWTON_CRAWL + 2
        # replayed, the smallest residual of the set lies between the floor
        # and the hopeless level, so the 2-step rule did not end it
        residuals = []
        kkt_F = optimize._kkt_F
        monkeypatch.setattr(optimize, "_kkt_F", lambda *a: residuals.append(
            np.abs(kkt_F(*a)[0]).max()) or kkt_F(*a))
        optimize._newton_kkt(*args)
        assert optimize._NEWTON_FLOOR < min(residuals) < optimize._NEWTON_HOPELESS

    def test_floor_set_converges(self, monkeypatch):
        # start 8: max |F| is 4.5e-11 after the ascent and one step cuts it
        # by less than 10x, so the set ends at the roundoff floor instead of
        # crawling toward 1e-11
        calls, result = _newton_calls(
            monkeypatch, lambda: maximize_free(10, OptimizeOptions(seed=0, starts=9)))
        _, (_, ok, steps) = calls[8]
        assert ok and steps <= 3
        assert result.starts[8].termination == "gradient-converged"
        assert result.starts[8].active_set == ((0, 4), (0, 5), (0, 6), (1, 6), (2, 6),
                                               (2, 7), (2, 8), (3, 8), (4, 8), (4, 9))


def _polished(config, act):
    """_newton_kkt run from a certified configuration on the working set
    ``act``, seeded with verify's multipliers: its (converged, steps), the
    point it returned, and that point rescaled to diameter 2."""
    multipliers = verify(config).multipliers
    lam = np.array([multipliers.get(p, 0.0) for p in act])
    z, ok, steps = optimize._newton_kkt(config.as_complex, act, lam)
    return (ok, steps), z, PointConfig.from_complex(optimize._rescale(z))


class TestNewtonWorkingSet:
    # the solve never changes its working set: a converged point with a pair
    # past the diameter or a negative multiplier is returned, and verify
    # judges it

    def test_pair_past_the_diameter_is_returned(self):
        # the regular 15-gon without its diameter pair (0, 7): the working
        # set converges in 7 steps with the pair (8, 14) at distance 2.18
        config = regular_ngon(15)
        act = [p for p in verify(config).active_set if p != (0, 7)]
        (ok, steps), z, polished = _polished(config, act)
        assert ok and steps == 7
        d = pairwise_distances(z)
        assert np.unravel_index(d.argmax(), d.shape) == (8, 14)
        assert d.max() == pytest.approx(2.1839, abs=1e-4)
        assert verify(polished).stationarity_residual == pytest.approx(8.0, abs=0.05)
        assert not maximizer_structure_report(polished).all_ok

    def test_negative_multiplier_set_is_returned(self):
        # hexagon6 without its diameter pair (0, 5): the working set
        # converges in 7 steps, no pair past distance 2, with the multiplier
        # of (1, 2) negative; verify's nonnegative fit leaves a residual
        config = hexagon6()
        act = [p for p in verify(config).active_set if p != (0, 5)]
        (ok, steps), _, polished = _polished(config, act)
        assert ok and steps == 7
        assert verify(polished).stationarity_residual == pytest.approx(0.705, abs=1e-3)


@pytest.mark.parametrize("k, value", [(3, 1.2833475), (4, 1.2821194)], ids=["n18", "n24"])
def test_construction_polished_without_ascent(k, value):
    # the bent arc polygon, polished on verify's active set from verify's
    # multipliers, reaches the record of its order without an ascent
    config = arc_polygon(k).P
    (ok, steps), _, polished = _polished(config, list(verify(config).active_set))
    assert ok and steps <= 4
    assert math.exp(log_delta_bar(polished)) == pytest.approx(value, abs=5e-8)
    assert verify(polished).stationarity_residual < 1e-11
    assert maximizer_structure_report(polished).all_ok


def test_optimizer_builds_no_distance_matrix(monkeypatch):
    # the rescale and the Newton working set come from the one pass over the
    # pairs
    def refuse(z):
        raise AssertionError("an n x n distance matrix was built")

    monkeypatch.setattr(geometry, "pairwise_distances", refuse)
    monkeypatch.setattr(optimize, "pairwise_distances", refuse, raising=False)
    result = maximize_free(8, OptimizeOptions(seed=0, starts=2, record_trace=True))
    assert all(s.trace and s.termination == "gradient-converged" for s in result.starts)
    result = maximize_with_graph(6, conjectured_even_graph(6), OptimizeOptions(seed=0, starts=2))
    assert result.achieved_matches_request and result.termination == "gradient-converged"


class TestMerit:
    # two starts whose pair (0, 1) is a prescribed edge, 2.1 and 1.8 long;
    # every other pair is shorter than 1.3
    z = np.array([[-e, e, 0.3j, 0.1 - 0.4j, 0.2 + 0.1j] for e in (1.05, 0.9)])
    eq = np.zeros((2, 5, 5), bool)
    eq[:, 0, 1] = eq[:, 1, 0] = True
    lo = np.where(eq, -np.inf, 0.0)
    edge_lam = np.where(eq, np.array([-0.3, 0.5])[:, None, None], 0.0)

    def test_prescribed_edge_penalty(self):
        # lam + mu g < 0 on the shorter edge, where an inequality would not
        # penalize it; every other pair has a zero term
        mu = np.array([10.0, 10.0])
        merit = optimize._merit_value(self.z, self.edge_lam, mu, self.lo)
        for s in range(2):
            q = np.abs(self.z[s, :, None] - self.z[s, None, :]) ** 2
            f = sum(math.log(q[i, j]) for i in range(5) for j in range(i + 1, 5))
            g, lam = q[0, 1] - 4.0, self.edge_lam[s, 0, 1]
            assert f - merit[s] == pytest.approx(lam * g + mu[s] * g * g / 2, rel=1e-12)

    def test_gradient_matches_merit(self):
        # the free pairs' t = q - 1 is at least 0.06 from the floor, on
        # both sides of it
        lam = self.edge_lam + np.where(self.eq, 0.0, 3.0 * (1 - np.eye(5)))
        mu = np.array([1.0, 1.0])
        grad, _ = optimize._merit_derivatives(self.z, lam, mu, self.lo)
        h = 1e-6
        moves = h * np.concatenate([np.eye(5), 1j * np.eye(5)])

        def value(zt):
            return optimize._merit_value(zt, lam[:, None], mu[:, None], self.lo[:, None])

        fd = (value(self.z[:, None] + moves) - value(self.z[:, None] - moves)) / (2 * h)
        exact = np.concatenate([grad.real, grad.imag], axis=1)
        assert np.abs(fd - exact).max() <= 1e-6 * np.abs(exact).max()


class TestNewtonAscent:
    def test_round_that_used_every_step_keeps_ascending(self, monkeypatch):
        # the regular hexagon at diameter 1 stays feasible through a
        # one-step round, far from stationary; it used to leave the ascent
        monkeypatch.setattr(optimize, "_ROUND_STEPS", 1)
        z = 0.5 * np.exp(2j * np.pi * np.arange(6) / 6)
        z_out, _, used, _, _ = optimize._al_phase(z[None], np.zeros((1, 6, 6), bool))
        assert used[0] > 1
        assert pairwise_distances(z_out[0]).max() > 1.5

    def test_infeasible_start_ends_by_stall_streak(self, monkeypatch):
        # start 2 cannot reach the graph: its violation falls only as
        # mu^-1/2 (0.10, 0.033, 0.011 in the rounds at mu = 1e2, 1e3, 1e4),
        # so it leaves after its third such round; without the streak its
        # rounds go on up to mu = 1e11, 373 iterations in all
        opts = OptimizeOptions(seed=0, starts=3)
        start = maximize_with_graph(8, conjectured_even_graph(8), opts).starts[2]
        assert start.termination == "stalled"
        assert start.al_rounds == 5 and start.final_penalty <= 1e5
        monkeypatch.setattr(optimize, "_STALL_ROUNDS", optimize._ROUNDS + 1)
        start = maximize_with_graph(8, conjectured_even_graph(8), opts).starts[2]
        assert start.al_rounds == optimize._ROUNDS and start.final_penalty > 1e8

    @pytest.mark.parametrize("edge, rounds_0, mu_0", [(True, 4, 1e3), (False, 12, 1e11)],
                             ids=["edge", "free"])
    def test_stall_streak_ends_only_mu_half_violations(self, monkeypatch, edge, rounds_0, mu_0):
        # two starts of one stack with scripted violations: start 0's falls
        # by sqrt(10) per round, start 1's stays flat at 2e-10; the streak
        # ends start 0 only when it has a prescribed edge
        falling = 1e-2 / np.sqrt(10.0) ** np.arange(12)
        script = iter(np.stack([falling, np.full(12, 2e-10)], axis=1))
        rows = []

        def violation(g, eq):  # g holds the rows of the starts still ascending
            rows.append(len(g))
            return next(script)[-len(g):]

        monkeypatch.setattr(optimize, "_violation", violation)
        monkeypatch.setattr(optimize, "_ROUND_STEPS", 1)
        z = np.array([optimize._start_config(6, 0, s) for s in range(2)])
        eq = np.zeros((2, 6, 6), bool)
        eq[0, 0, 3] = eq[0, 3, 0] = edge
        _, _, used, rounds, mu = optimize._al_phase(z, eq)
        # round 0 sets the reference, rounds 1-3 stall
        assert rounds.tolist() == [rounds_0, 12]
        assert rows == [2] * rounds_0 + [1] * (12 - rounds_0)
        assert mu.tolist() == [mu_0, 1e11]
        assert used.tolist() == [rounds_0, 12]

    def test_line_search_below_roundoff_fails_at_once(self, monkeypatch):
        # row 0 takes a Newton step; row 1's direction rounds away at every
        # trial step, so the 50-halving search tries all 50 and finds none;
        # row 2's direction is 1000 Newton steps, so its full step overshoots
        # and a later merit call finds its step
        z = np.array([optimize._start_config(6, 0, s) for s in range(3)])
        lam, mu, lo = np.zeros((3, 6, 6)), np.full(3, 10.0), np.zeros((3, 6, 6))
        grad, hess = optimize._merit_derivatives(z, lam, mu, lo)
        direction = optimize._newton_step(z, grad, hess) * np.array([[1.0], [1e-30], [1e3]])
        phi = optimize._merit_value(z, lam, mu, lo)
        reference = {}
        for r in range(3):
            for k, t in enumerate(optimize._HALVINGS):
                zt = z[r] + t * direction[r]
                phi_t = optimize._merit_value(zt[None], lam[r:r + 1], mu[r:r + 1], lo[r:r + 1])[0]
                if phi_t > phi[r]:
                    reference[r] = (k, zt, phi_t)
                    break
        assert sorted(reference) == [0, 2]
        assert reference[0][0] < optimize._TRIALS_PER_CALL <= reference[2][0]
        calls = []
        merit = optimize._merit_value
        monkeypatch.setattr(optimize, "_merit_value",
                            lambda zt, *a: calls.append(len(zt)) or merit(zt, *a))
        found, z_new, phi_new = optimize._line_search(z, direction, phi, lam, mu, lo)
        assert found.tolist() == [True, False, True]
        for r in (0, 2):
            assert np.array_equal(z_new[r], reference[r][1]) and phi_new[r] == reference[r][2]
        assert np.array_equal(z_new[1], z[1]) and phi_new[1] == phi[1]
        # rows 0 and 1 leave after the first merit call (the 50-halving search
        # made 17 for row 1); row 2 goes on alone
        assert calls == [3] + [1] * (reference[2][0] // optimize._TRIALS_PER_CALL)

    @pytest.mark.parametrize("seed", range(6))
    def test_n6_free_starts_converge(self, seed):
        result = maximize_free(6, OptimizeOptions(seed=seed, starts=16))
        assert [s.termination for s in result.starts] == ["gradient-converged"] * 16

    def test_n10_iterations_per_start(self):
        result = maximize_free(10, OptimizeOptions(seed=0, starts=16))
        assert result.iterations / len(result.starts) <= 150

    @pytest.mark.parametrize("n", [14, 16, 18, 20])
    def test_free_winner_is_certified_above_regular(self, n):
        result = maximize_free(n, OptimizeOptions(seed=0, starts=16))
        assert result.termination == "gradient-converged"
        report = verify(result.config)
        assert report.stationarity_residual < 1e-8
        assert report.min_multiplier >= 0.0
        assert maximizer_structure_report(result.config).all_ok
        assert result.delta_bar > 1.24

    def test_free_search_at_n48_beats_the_regular_polygon(self):
        # free starts here stall by round 4 at penalty 1e3 and must keep
        # ascending: ended there, the winner is the regular 48-gon (1.0),
        # which fails the screen
        result = maximize_free(48, OptimizeOptions(seed=0, starts=16))
        assert result.termination == "gradient-converged"
        assert maximizer_structure_report(result.config).all_ok
        assert result.delta_bar > 1.28


class TestMaximizeWithGraph:
    def test_star_gains_edge_or_loses(self):
        graph = parse_graph_text("4;1-2,2-3,2-4")
        result = maximize_with_graph(4, graph, OptimizeOptions(seed=3, starts=8))
        gained_edge = not result.achieved_matches_request
        below_kite = result.delta_bar < KITE_VALUE - 1e-9
        assert gained_edge or below_kite

    def test_triangle_plus_pendant_reaches_kite(self):
        graph = parse_graph_text("4;1-2,1-3,2-3,2-4")
        result = maximize_with_graph(4, graph, OptimizeOptions(seed=3, starts=8))
        assert result.delta_bar == pytest.approx(KITE_VALUE, abs=1e-9)

    def test_hexagon_target_graph(self):
        graph = parse_graph_text("6;1-2,2-3,1-3,1-4,2-5,3-6")
        result = maximize_with_graph(6, graph, OptimizeOptions(seed=5, starts=8))
        assert result.delta_bar == pytest.approx(HEXAGON_VALUE, abs=1e-9)

    def test_order_mismatch_rejected(self):
        from polydisc import InvalidConfigError
        graph = parse_graph_text("4;1-2")
        with pytest.raises(InvalidConfigError):
            maximize_with_graph(5, graph)

    def test_result_flags_present(self):
        graph = parse_graph_text("4;1-2,1-3,2-3,2-4")
        result = maximize_with_graph(4, graph, OptimizeOptions(seed=1, starts=4))
        assert result.requested_graph is not None
        assert result.achieved_matches_request is not None

    def test_unrealizable_graph_flagged_not_raised(self):
        # a 4-cycle of unit-diameter pairs forces a longer diagonal, so the
        # requested edge set can never be achieved
        graph = parse_graph_text("4;1-2,2-3,3-4,1-4")
        result = maximize_with_graph(4, graph, OptimizeOptions(seed=1, starts=6))
        assert result.graph_infeasible
        assert not result.achieved_matches_request

    def test_too_many_edges_rejected(self):
        from polydisc import InvalidConfigError
        from polydisc.diamgraph import DiameterGraph
        full = DiameterGraph(n=4, edges=frozenset(
            (i, j) for i in range(4) for j in range(i + 1, 4)))
        with pytest.raises(InvalidConfigError):
            maximize_with_graph(4, full)

    def test_request_recorded_and_kite_reached(self):
        graph = parse_graph_text("4;1-2,1-3,2-3,2-4")
        result = maximize_with_graph(4, graph, OptimizeOptions(seed=3, starts=4))
        assert result.requested_graph == graph
        assert result.delta_bar == pytest.approx(KITE_VALUE, abs=1e-9)


class TestSweep:
    def test_n5_winner_is_pentagon_cycle(self):
        ranked = sweep_graphs(5, OptimizeOptions(seed=11, starts=4))
        graph, result = ranked[0]
        assert result.delta_bar == pytest.approx(PENTAGON_VALUE, abs=1e-8)
        assert classify(graph).kind == GraphKind.ODD_CYCLE_WITH_PENDANTS
        assert classify(graph).detail == 5

    def test_n6_winner_is_triangle_with_three_pendants(self):
        ranked = sweep_graphs(6, OptimizeOptions(seed=11, starts=4))
        graph, result = ranked[0]
        assert result.delta_bar == pytest.approx(HEXAGON_VALUE, abs=1e-8)
        c = classify(graph)
        assert c.kind == GraphKind.ODD_CYCLE_WITH_PENDANTS and c.detail == 3
        degrees = sorted(graph.degrees())
        assert degrees == [1, 1, 1, 3, 3, 3]

    def test_cap(self):
        from polydisc import InvalidConfigError
        with pytest.raises(InvalidConfigError):
            sweep_graphs(20)

    def test_matches_per_graph_runs(self):
        opts = OptimizeOptions(seed=11, starts=2)
        for graph, result in sweep_graphs(5, opts):
            alone = maximize_with_graph(5, graph, opts)
            assert alone.starts == result.starts
            assert np.array_equal(alone.config.points, result.config.points)

    def test_n8_only_unicyclic_deletions_beat_five_quarters(self):
        # the caterpillars that clear 5/4 are exactly the one-edge deletions
        # of the winning eight-edge unicyclic graph
        from polydisc.diamgraph import DiameterGraph
        ranked = sweep_graphs(8, OptimizeOptions(seed=1, starts=6))
        winner, result = ranked[0]
        assert result.delta_bar == pytest.approx(1.250472, abs=1e-4)
        assert classify(winner).kind == GraphKind.ODD_CYCLE_WITH_PENDANTS

        deletions = []
        for e in sorted(winner.edges):
            g = DiameterGraph(n=8, edges=winner.edges - {e})
            if classify(g).kind == GraphKind.CATERPILLAR:
                deletions.append(g)
        assert len(deletions) == 5  # five cycle edges, three classes

        # every deletion class supports a configuration above 5/4 ...
        for g in deletions[:3]:
            res = maximize_with_graph(8, g, OptimizeOptions(seed=2, starts=8))
            assert res.delta_bar > 1.25

        # ... and no caterpillar the sweep pushed above 5/4 lies outside
        # the deletion family (checked by degree sequence)
        deletion_keys = {tuple(sorted(g.degrees())) for g in deletions}
        for g, res in ranked:
            if classify(g).kind == GraphKind.CATERPILLAR and res.delta_bar > 1.25:
                assert tuple(sorted(g.degrees())) in deletion_keys

    def test_ties_keep_enumeration_order(self):
        # the residuals of tied graphs differ only by round-off, so they
        # decide no rank: graphs equal in rounded value, achievement and
        # convergence stay in the order they were enumerated
        from polydisc.diamgraph import enumerate_caterpillars, enumerate_unicyclic_candidates
        enumerated = [g.edges for g in
                      enumerate_caterpillars(8) + enumerate_unicyclic_candidates(8)]
        ranked = sweep_graphs(8, OptimizeOptions(seed=1, starts=2))
        keys = [(round(r.log_delta_bar, 9), r.achieved_matches_request,
                 r.termination == optimize.TERM_CONVERGED) for _, r in ranked]
        assert len(set(keys)) < len(keys)  # there are ties to order
        for key in set(keys):
            tied = [g.edges for (g, _), k in zip(ranked, keys) if k == key]
            assert tied == [e for e in enumerated if e in tied]


# Output of maximize_free(8, OptimizeOptions(seed=1, starts=16)) recorded
# from the Newton-step ascent (numpy 2.4, x86-64): per start
# (log_delta_bar, iterations, termination, active_set), then the winner.
# Starts 7, 8 and 12 tie bit for bit in value; the smallest residual of the
# multiplier fit picks the winner among them (start 7).
PINNED_STARTS = [
    (0.22352096006990152, 30, 'gradient-converged',
     ((0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7))),
    (0.22352096006697053, 30, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (4, 7))),
    (0.22352096026075685, 31, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (4, 7))),
    (0.2235209602607604, 36, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7), (4, 7))),
    (0.22352096006688882, 32, 'gradient-converged',
     ((0, 3), (0, 4), (0, 5), (1, 5), (2, 5), (2, 6), (2, 7), (3, 7))),
    (0.2235209600670558, 32, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (4, 7))),
    (0.22352096026075685, 38, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7), (4, 7))),
    (0.2235209602607675, 35, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (4, 7))),
    (0.2235209602607675, 35, 'gradient-converged',
     ((0, 3), (0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7))),
    (0.22352096006725475, 30, 'gradient-converged',
     ((0, 3), (0, 4), (0, 5), (1, 5), (2, 5), (2, 6), (3, 6), (3, 7))),
    (0.2235209600670629, 31, 'gradient-converged',
     ((0, 3), (0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7))),
    (0.22352096026075685, 36, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (4, 7))),
    (0.2235209602607675, 39, 'gradient-converged',
     ((0, 4), (1, 4), (1, 5), (1, 6), (2, 6), (2, 7), (3, 7), (4, 7))),
    (0.22352096026076396, 35, 'gradient-converged',
     ((0, 3), (0, 4), (0, 5), (1, 5), (2, 5), (2, 6), (2, 7), (3, 7))),
    (0.22352096026075685, 32, 'gradient-converged',
     ((0, 3), (0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7))),
    (0.2235209602607462, 36, 'gradient-converged',
     ((0, 3), (0, 4), (0, 5), (1, 5), (1, 6), (2, 6), (3, 6), (3, 7))),
]
PINNED_POINTS = [
    [0.8878091118883074, -0.01894981117367343],
    [0.6774925024916179, 0.8183766923191995],
    [-0.10345904965458226, 0.9531594373530737],
    [-0.7076063315683602, 0.5280481571367911],
    [-1.1113764308445442, -0.07602139541620008],
    [-0.6738027375673309, -0.6560727555066748],
    [-0.0463874654120557, -1.046026105379778],
    [0.7256031101415628, -0.8669108731553279],
]


def test_seeded_run_is_pinned():
    result = maximize_free(8, OptimizeOptions(seed=1, starts=16))
    got = [(s.log_delta_bar, s.iterations, s.termination, s.active_set)
           for s in result.starts]
    assert got == PINNED_STARTS
    assert result.config.points.tolist() == PINNED_POINTS


class TestGauge:
    def test_gauge_fix_pose(self):
        cfg = gauge_fix(kite4())
        z = cfg.as_complex
        assert abs(z.mean()) < 1e-12
        far = np.argmax(np.abs(z))
        assert z[far].imag == pytest.approx(0.0, abs=1e-12)
        assert z[far].real > 0

    def test_congruent_under_rigid_motions(self):
        rng = np.random.default_rng(2)
        base = hexagon6()
        z = base.as_complex
        moved = PointConfig.from_complex(
            (z * np.exp(1j * 0.83) + (2.0 - 1.0j))[rng.permutation(6)])
        assert congruent(base, moved, tol=1e-8)
        reflected = PointConfig.from_complex(np.conj(z) * np.exp(-0.4j))
        assert congruent(base, reflected, tol=1e-8)

    def test_not_congruent(self):
        assert not congruent(kite4(), regular_ngon(4), tol=1e-5)

    def test_empty_configuration(self):
        empty = PointConfig(np.empty((0, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert gauge_fix(empty).n == 0
            assert congruent(empty, empty)
        assert not congruent(empty, kite4())
