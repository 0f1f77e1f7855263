import itertools
from unittest import mock

import numpy as np
import pytest

from polydisc import (
    DiameterGraph,
    GraphKind,
    InvalidConfigError,
    PointConfig,
    SingularConfigError,
    caterpillar_count,
    check_pairwise_intersection,
    classify,
    conjectured_even_graph,
    enumerate_caterpillars,
    enumerate_unicyclic_candidates,
    extract,
    maximizer_structure_report,
    parse_graph_text,
)
from polydisc import diamgraph
from polydisc.constructions import arc_polygon, hexagon6, kite4, regular_ngon, triwave

SQUARE = PointConfig([[1, 0], [0, 1], [-1, 0], [0, -1]])


def path_graph(n):
    return DiameterGraph(n=n, edges=frozenset((i, i + 1) for i in range(n - 1)))


def cycle_graph(n):
    return DiameterGraph(n=n, edges=frozenset((i, (i + 1) % n) for i in range(n)))


class TestExtract:
    def test_square_two_diagonals(self):
        g = extract(SQUARE, 1e-9)
        assert g.edges == frozenset({(0, 2), (1, 3)})
        assert classify(g).kind == GraphKind.DISCONNECTED

    def test_kite_triangle_plus_pendant(self):
        g = extract(kite4(), 1e-9)
        assert len(g.edges) == 4
        assert classify(g).kind == GraphKind.ODD_CYCLE_WITH_PENDANTS

    def test_triwave_antipodal_pairs(self):
        n = 16
        tw = triwave(n)
        g = extract(tw.config, 1e-9)
        expected = frozenset((k, k + n // 2) for k in range(n // 2))
        assert g.edges == expected

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(3)
        cfg = PointConfig(rng.uniform(-1, 1, (9, 2)))
        tols = [1e-12, 1e-6, 1e-3, 1e-1]
        sets = [extract(cfg, t).edges for t in tols]
        for small, big in zip(sets, sets[1:]):
            assert small <= big

    def test_single_point_invalid(self):
        with pytest.raises(InvalidConfigError):
            extract(PointConfig([[0, 0]]))

    def test_equals_graph_with_same_edges(self):
        g = extract(kite4(), 1e-3)
        same = DiameterGraph(4, g.edges)
        assert g == same
        assert hash(g) == hash(same)


class TestClassify:
    def test_path_is_caterpillar(self):
        assert classify(path_graph(4)).kind == GraphKind.CATERPILLAR

    def test_triangle_plus_pendant(self):
        g = DiameterGraph(n=4, edges=frozenset({(0, 1), (1, 2), (0, 2), (1, 3)}))
        c = classify(g)
        assert c.kind == GraphKind.ODD_CYCLE_WITH_PENDANTS
        assert c.detail == 3

    def test_even_cycle_is_other(self):
        assert classify(cycle_graph(4)).kind == GraphKind.OTHER

    def test_odd_cycle_alone(self):
        c = classify(cycle_graph(5))
        assert c.kind == GraphKind.ODD_CYCLE_WITH_PENDANTS and c.detail == 5

    def test_star_is_caterpillar(self):
        g = DiameterGraph(n=5, edges=frozenset((0, i) for i in range(1, 5)))
        assert classify(g).kind == GraphKind.CATERPILLAR

    def test_deep_attachment_is_other(self):
        # triangle with a path of length 2 hanging off it: edge not incident
        # to the cycle
        g = DiameterGraph(n=5, edges=frozenset(
            {(0, 1), (1, 2), (0, 2), (0, 3), (3, 4)}))
        assert classify(g).kind == GraphKind.OTHER

    def test_isomorphism_invariance(self):
        rng = np.random.default_rng(7)
        graphs = enumerate_caterpillars(7) + enumerate_unicyclic_candidates(7)
        for g in graphs:
            kind = classify(g).kind
            for _ in range(3):
                perm = rng.permutation(g.n)
                edges = frozenset(
                    (int(min(perm[a], perm[b])), int(max(perm[a], perm[b])))
                    for a, b in g.edges)
                assert classify(DiameterGraph(n=g.n, edges=edges)).kind == kind


class TestPairwiseIntersection:
    def test_kite_diameters(self):
        assert check_pairwise_intersection(kite4(), extract(kite4()))

    def test_square_diagonals_cross(self):
        assert check_pairwise_intersection(SQUARE, extract(SQUARE))

    def test_parallel_disjoint_segments(self):
        cfg = PointConfig([[0, 0], [1, 0], [0, 1], [1, 1]])
        g = DiameterGraph(n=4, edges=frozenset({(0, 1), (2, 3)}))
        assert not check_pairwise_intersection(cfg, g)

    def test_collinear_overlap_fails(self):
        cfg = PointConfig([[0, 0], [2, 0], [1, 0], [3, 0]])
        g = DiameterGraph(n=4, edges=frozenset({(0, 1), (2, 3)}))
        assert not check_pairwise_intersection(cfg, g)

    def test_shared_endpoint_counts_once(self):
        cfg = PointConfig([[0, 0], [1, 0], [0, 1]])
        g = DiameterGraph(n=3, edges=frozenset({(0, 1), (0, 2)}))
        assert check_pairwise_intersection(cfg, g)

    @pytest.mark.parametrize("build", [lambda: regular_ngon(1001), lambda: triwave(256).config,
                                       lambda: arc_polygon(50).P],
                             ids=["regular1001", "triwave256", "arc50"])
    def test_certify_sizes(self, build):
        config = build()
        assert check_pairwise_intersection(config, extract(config))

    def test_fan_star_needs_no_scalar_test(self):
        # 400 edges from one point: every pair shares that endpoint and has a
        # nonzero sign at its free ends, so all 79800 are decided as arrays
        fan = PointConfig.from_complex(
            np.concatenate([[0], np.exp(1j * np.linspace(0, 0.9, 400))]))
        graph = extract(fan)
        assert graph.edges == {(0, k) for k in range(1, 401)}
        with mock.patch.object(diamgraph, "_segments_meet_once",
                               side_effect=AssertionError("scalar test reached")):
            assert check_pairwise_intersection(fan, graph)

    def test_late_side_edge_fails(self):
        # the side (999, 1000) sorts after every diameter edge and misses most
        # of them, so every failing pair involves the last edge
        cfg = regular_ngon(1001)
        g = extract(cfg)
        late = DiameterGraph(n=1001, edges=g.edges | {(999, 1000)})
        assert max(late.edges) == (999, 1000)
        assert not check_pairwise_intersection(cfg, late)

    def test_coincident_points_raise(self):
        cfg = PointConfig([[0, 0], [1, 0], [0, 1], [1, 0]])
        with pytest.raises(SingularConfigError):
            check_pairwise_intersection(cfg, extract(cfg))
        with pytest.raises(SingularConfigError):
            maximizer_structure_report(cfg)


def brute_force_caterpillar_classes(n):
    """All caterpillar isomorphism classes on n vertices from labeled trees."""

    def prufer_to_edges(seq):
        nn = len(seq) + 2
        degree = [1] * nn
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            for leaf in range(nn):
                if degree[leaf] == 1:
                    edges.append((min(v, leaf), max(v, leaf)))
                    degree[v] -= 1
                    degree[leaf] -= 1
                    break
        last = [v for v in range(nn) if degree[v] == 1]
        edges.append((min(last), max(last)))
        return edges

    def is_caterpillar(adj, nn):
        spine = {v for v in range(nn) if len(adj[v]) >= 2}
        if not spine:
            return True
        deg = {v: len(adj[v] & spine) for v in spine}
        return all(d <= 2 for d in deg.values())

    def ahu(adj, root, parent):
        subs = sorted(ahu(adj, c, root) for c in adj[root] if c != parent)
        return "(" + "".join(subs) + ")"

    def centroid_certificate(adj, nn):
        # strip leaves layer by layer; the last one or two vertices are centers
        degree = {v: len(adj[v]) for v in range(nn)}
        alive = set(range(nn))
        layer = [v for v in alive if degree[v] <= 1]
        while len(alive) > 2:
            nxt = []
            for v in layer:
                alive.discard(v)
                for w in adj[v]:
                    if w in alive:
                        degree[w] -= 1
                        if degree[w] == 1:
                            nxt.append(w)
            layer = nxt
        return min(ahu(adj, c, None) for c in alive)

    if n == 2:
        return 1
    classes = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = prufer_to_edges(list(seq))
        adj = {v: set() for v in range(n)}
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        if is_caterpillar(adj, n):
            classes.add(centroid_certificate(adj, n))
    return len(classes)


class TestEnumeration:
    def test_counts_against_brute_force(self):
        for n in (4, 5, 6, 7):
            assert len(enumerate_caterpillars(n)) == brute_force_caterpillar_classes(n)

    def test_reference_counts(self):
        assert len(enumerate_caterpillars(8)) == 20
        assert len(enumerate_caterpillars(10)) == 72

    def test_closed_form(self):
        for n in range(5, 13):
            assert len(enumerate_caterpillars(n)) == caterpillar_count(n)
            assert caterpillar_count(n) == 2 ** (n - 4) + 2 ** (n // 2 - 2)

    def test_n4_shapes(self):
        graphs = enumerate_caterpillars(4)
        assert len(graphs) == 2
        kinds = sorted(sorted(g.degrees()) for g in graphs)
        assert kinds == [[1, 1, 1, 3], [1, 1, 2, 2]]  # star and path

    def test_all_results_are_caterpillars(self):
        for n in (5, 8, 11):
            for g in enumerate_caterpillars(n):
                assert classify(g).kind == GraphKind.CATERPILLAR

    def test_no_duplicates(self):
        # duplicate classes would collide under a cheap invariant + exact check
        for n in (8, 9):
            seen = set()
            for g in enumerate_caterpillars(n):
                key = tuple(sorted(g.degrees()))
                seen.add((key, frozenset(g.edges)))
            assert len(seen) == len(enumerate_caterpillars(n))

    def test_unicyclic_n6(self):
        graphs = enumerate_unicyclic_candidates(6)
        assert len(graphs) == 4
        cycles = sorted(classify(g).detail for g in graphs)
        assert cycles == [3, 3, 3, 5]

    def test_unicyclic_n3(self):
        graphs = enumerate_unicyclic_candidates(3)
        assert len(graphs) == 1
        assert graphs[0].edges == frozenset({(0, 1), (1, 2), (0, 2)})

    def test_unicyclic_n4(self):
        graphs = enumerate_unicyclic_candidates(4)
        assert len(graphs) == 1
        assert classify(graphs[0]).kind == GraphKind.ODD_CYCLE_WITH_PENDANTS

    def test_unicyclic_all_valid(self):
        for g in enumerate_unicyclic_candidates(9):
            assert len(g.edges) == g.n
            assert classify(g).kind == GraphKind.ODD_CYCLE_WITH_PENDANTS


class TestConjecturedEvenGraph:
    def test_n6(self):
        g = conjectured_even_graph(6)
        c = classify(g)
        assert c.kind == GraphKind.ODD_CYCLE_WITH_PENDANTS and c.detail == 3
        # one pendant per cycle vertex
        deg = g.degrees()
        assert sorted(deg) == [1, 1, 1, 3, 3, 3]

    def test_n12_equally_spaced(self):
        g = conjectured_even_graph(12)
        c = classify(g)
        assert c.kind == GraphKind.ODD_CYCLE_WITH_PENDANTS and c.detail == 9
        pendant_positions = sorted(min(a, b) for a, b in g.edges if max(a, b) >= 9)
        assert pendant_positions == [0, 3, 6]

    def test_n8(self):
        g = conjectured_even_graph(8)
        c = classify(g)
        assert c.kind == GraphKind.ODD_CYCLE_WITH_PENDANTS and c.detail == 5

    def test_odd_invalid(self):
        with pytest.raises(InvalidConfigError):
            conjectured_even_graph(7)


class TestStructureReport:
    def test_kite_all_true(self):
        report = maximizer_structure_report(kite4())
        assert report.all_ok

    def test_square_disconnected(self):
        report = maximizer_structure_report(SQUARE)
        assert not report.connected
        assert not report.all_ok

    def test_pentagon_all_true(self):
        report = maximizer_structure_report(regular_ngon(5))
        assert report.all_ok
        assert report.graph_class.kind == GraphKind.ODD_CYCLE_WITH_PENDANTS
        assert report.graph_class.detail == 5

    def test_hexagon_all_true(self):
        report = maximizer_structure_report(hexagon6())
        assert report.all_ok
        assert report.graph_class.detail == 3


class TestTextFormat:
    def test_roundtrip(self):
        g = DiameterGraph(n=6, edges=frozenset({(0, 3), (1, 4), (2, 5)}))
        assert parse_graph_text(g.to_text()) == g

    def test_compact_form(self):
        g = parse_graph_text("4;1-2,2-3,2-4")
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (1, 3)})

    def test_canonical_form(self):
        g = parse_graph_text("n=4; edges=1-2,2-3,2-4")
        assert g.edges == frozenset({(0, 1), (1, 2), (1, 3)})

    def test_bad_text(self):
        with pytest.raises(InvalidConfigError):
            parse_graph_text("not a graph")
