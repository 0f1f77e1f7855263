"""The pair reductions a PointConfig keeps: the same bits as a fresh object,
each pass over the pairs at most once per object, and the multiplier fit
past 2n - 3 pairs without its normal matrix."""

import dataclasses
import enum
import math
import tracemalloc

import numpy as np
import pytest

from polydisc import PointConfig, diamgraph, geometry, kkt
from polydisc.constructions import arc_polygon, regular_ngon, triwave
from polydisc.geometry import normalize_to_diameter, pairwise_distances


def _moved(config, seed):
    """config rotated, shifted, scaled and relabelled, as the bench moves it."""
    rng = np.random.default_rng(seed)
    z = config.as_complex[rng.permutation(config.n)]
    turn = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    return PointConfig.from_complex(z * turn + complex(*rng.normal(size=2)))


def _coincident():
    z = regular_ngon(9).as_complex
    z[8] = z[0]
    return PointConfig.from_complex(z)


def _two_places(spread=0.0, k=20):
    """k points at 0 and k at 2, each moved by up to about spread."""
    z = np.repeat([0.0, 2.0], k) + spread * np.random.default_rng(3).normal(size=2 * k)
    return PointConfig.from_complex(z.astype(complex))


CONFIGS = {
    "regular301": lambda: PointConfig(
        regular_ngon(301).points[np.random.default_rng(0).permutation(301)]),
    "arc20": lambda: _moved(arc_polygon(20).P, 1),
    "triwave256": lambda: triwave(256).config,
    "wide": lambda: PointConfig(regular_ngon(40).points * 1.5),
    "coincident": _coincident,
    "huge": lambda: PointConfig(regular_ngon(11).points * 2.0 ** 1010),
    # more edge candidates than points, which the memo does not keep
    "one_place": lambda: PointConfig(np.full((40, 2), 0.75)),
    "two_places": _two_places,
    "two_clusters": lambda: _two_places(1e-13),
}


def _bits(x):
    """x as nested plain values that are equal exactly when x is, bit for
    bit: floats by float.hex, arrays by their bytes."""
    if isinstance(x, (bool, int, str, type(None))):
        return type(x).__name__, x
    if isinstance(x, (float, np.floating)):
        return "float", float(x).hex()
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.shape, x.tobytes().hex()
    if isinstance(x, enum.Enum):
        return type(x).__name__, x.value
    if isinstance(x, (tuple, list)):
        return type(x).__name__, [_bits(v) for v in x]
    if isinstance(x, frozenset):
        return "frozenset", sorted(_bits(v) for v in x)
    if isinstance(x, dict):
        return "dict", [(_bits(k), _bits(v)) for k, v in x.items()]
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [(f.name, _bits(getattr(x, f.name)))
                                  for f in dataclasses.fields(x)]
    raise TypeError(type(x))


def _outcome(call, config):
    """The bits of call(config), or the type and message of what it raised."""
    try:
        return _bits(call(config))
    except Exception as exc:  # compared, not swallowed
        return "raised", type(exc).__name__, str(exc)


def _calls(config):
    """Every call that reads the memo, and a few at another tolerance."""
    fresh = PointConfig(config.points)
    graph = None if fresh.n < 2 else diamgraph.extract(fresh)
    pairs = [(0, 1), (1, config.n - 1)]
    return {
        "log_delta_bar": geometry.log_delta_bar,
        "evaluate": geometry.evaluate,
        "discriminant": geometry.discriminant,
        "normalized_discriminant": geometry.normalized_discriminant,
        "normalized_discriminant_as_given":
            lambda c: geometry.normalized_discriminant(c, rescale_to_diameter=False),
        "diameter": geometry.diameter,
        "normalize_to_diameter": geometry.normalize_to_diameter,
        "is_convex_position": geometry.is_convex_position,
        "objective_gradient": geometry.objective_gradient,
        "min_pairwise_distance": lambda c: c.min_pairwise_distance(),
        "is_distinct": lambda c: c.is_distinct(),
        "verify": kkt.verify,
        "active_set": kkt.active_set,
        "recover_multipliers": lambda c: kkt.recover_multipliers(c, pairs),
        "extract": diamgraph.extract,
        "check_pairwise_intersection":
            lambda c: diamgraph.check_pairwise_intersection(c, graph),
        "maximizer_structure_report": diamgraph.maximizer_structure_report,
        "verify_loose": lambda c: kkt.verify(c, 1e-3),
        "active_set_loose": lambda c: kkt.active_set(c, 1e-3),
        "extract_loose": lambda c: diamgraph.extract(c, 1e-3),
        "maximizer_structure_report_loose":
            lambda c: diamgraph.maximizer_structure_report(c, 1e-3),
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_memo_gives_the_bits_of_a_fresh_object(name):
    config = CONFIGS[name]()
    calls = _calls(config)
    expected = {key: _outcome(call, PointConfig(config.points)) for key, call in calls.items()}
    names = sorted(calls)
    rng = np.random.default_rng(7)
    orders = [names, names[::-1]] + [list(rng.permutation(names)) for _ in range(3)]
    for order in orders:
        config = PointConfig(config.points)
        for key in order:
            assert _outcome(calls[key], config) == expected[key], (name, key, order)


def test_memo_holds_no_pair_matrix():
    config = PointConfig(regular_ngon(1001).points[np.random.default_rng(2).permutation(1001)])
    geometry.log_delta_bar(config)
    kkt.verify(config)
    diamgraph.maximizer_structure_report(config)
    assert "_pairs" not in {f.name for f in dataclasses.fields(PointConfig)}
    memo = vars(config)["_pairs"]
    assert len(memo.edges) == len(memo.edge_dist) == 1001
    for value in vars(memo).values():
        assert np.size(value) <= 2 * config.n
    assert not vars(config)["_sums"].flags.writeable


@pytest.mark.parametrize("case", ["one_place", "two_places", "two_clusters"])
def test_memo_keeps_no_dense_edges(case):
    # all pairs are edges at diameter 0, every pair between two places is
    # one, and so is every pair between two clusters 1e-13 wide; the memo
    # keeps none of them, and its pass holds no more than a block's worth
    n = 3000
    points = {"one_place": lambda: np.zeros((n, 2)),
              "two_places": lambda: _two_places(0.0, n // 2).points,
              "two_clusters": lambda: _two_places(1e-13, n // 2).points}[case]()
    config = PointConfig(points)
    tracemalloc.start()
    try:
        geometry.diameter(config)
        geometry.log_delta_bar(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the candidates alone, two indices and a distance each, would take
    # n^2 / 4 * 24 bytes, 51 MiB, or more; a block of 2^18 pairs takes 4 MiB
    assert peak < 24 * 2 ** 20
    memo = vars(config)["_pairs"]
    assert memo.edge_pairs is None and memo.edge_dist is None
    for value in vars(memo).values():
        assert np.size(value) <= 2 * n


def test_candidates_past_an_early_cut_do_not_count_against_the_cap(monkeypatch):
    # the centre of a regular 31-gon comes first: its row alone gives 31
    # candidates at the radius, which the diameter then cuts away, leaving
    # the 31 edges of the polygon
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", 32)
    z = np.r_[0.0, regular_ngon(31).as_complex]
    capped, full = geometry._pair_rows(z, edges=1e-9, most=32), geometry._pair_rows(z, edges=1e-9)
    assert len(capped.edges) == 31
    assert capped.edges == full.edges
    assert capped.edge_dist.tobytes() == full.edge_dist.tobytes()


@pytest.mark.parametrize("rows", [1, 2, None])
@pytest.mark.parametrize("case", ["random", "regular", "coincident", "one_place"])
def test_pass_without_logs_or_sums_matches_full_rows(monkeypatch, rows, case):
    # the pass that forms only the columns right of each block's first row
    # takes the reductions of the full rows: the first pair at the largest
    # distance among ties, the smallest distance, the active pairs and the
    # edges with their distances
    n = 37
    if rows is not None:
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", rows * n)
    z = {"random": lambda: [1, 1j] @ np.random.default_rng(5).normal(size=(2, n)),
         "regular": lambda: regular_ngon(n).as_complex,
         "coincident": lambda: regular_ngon(n - 1).as_complex[np.r_[:n - 1, 3]],
         "one_place": lambda: np.full(n, 0.5 + 0.25j)}[case]()
    some = dict(nearest=True, active=-0.5, edges=1e-9)
    part, full = geometry._pair_rows(z, **some), geometry._pair_rows(z, logs=True, **some)
    d = pairwise_distances(z)
    assert part.diameter == full.diameter == d.max()
    assert part.far == full.far
    assert part.nearest == full.nearest == d[~np.eye(n, dtype=bool)].min()
    assert part.active == full.active
    assert part.edges == full.edges
    assert part.edge_dist.tobytes() == full.edge_dist.tobytes()
    assert [d[p] for p in part.edges] == part.edge_dist.tolist()


def _count_passes(monkeypatch):
    """Counts of the pair passes that form distances and of those that form
    reciprocals, through every module that runs one."""
    counts = {"distance": 0, "reciprocal": 0}

    def counter(kind, run):
        def counted(*args, **kwargs):
            counts[kind] += 1
            return run(*args, **kwargs)
        return counted

    monkeypatch.setattr(geometry, "_pair_rows", counter("distance", geometry._pair_rows))
    monkeypatch.setattr(geometry, "stationarity_lhs",
                        counter("reciprocal", geometry.stationarity_lhs))
    return counts


CHECKS = {
    "log_delta_bar": geometry.log_delta_bar,
    "verify": kkt.verify,
    "maximizer_structure_report": diamgraph.maximizer_structure_report,
}


# the orders of the callers: a certificate (the bench, the optimizer's
# polish) reads log Delta-bar first, the CLI's kkt and evaluate only verify
# and the structure report; a lone verify forms the distances in one pass
# and the reciprocals in another
@pytest.mark.parametrize("order", [
    ("log_delta_bar", "verify", "maximizer_structure_report"),
    ("log_delta_bar", "maximizer_structure_report", "verify"),
    ("verify", "maximizer_structure_report"),
])
@pytest.mark.parametrize("n", [301, 1001])
def test_a_certificate_forms_distances_once_and_reciprocals_once(monkeypatch, order, n):
    config = PointConfig(regular_ngon(n).points[np.random.default_rng(n).permutation(n)])
    counts = _count_passes(monkeypatch)
    for name in order:
        CHECKS[name](config)
    assert counts == {"distance": 1, "reciprocal": 1}
    for name in order:
        CHECKS[name](config)
    assert counts == {"distance": 1, "reciprocal": 1}


def test_rescaling_an_object_with_a_memo_takes_no_pass(monkeypatch):
    wide = PointConfig(regular_ngon(301).points * 1.5)
    at_two = regular_ngon(301)
    for config in (wide, at_two):
        diamgraph.extract(config)
    counts = _count_passes(monkeypatch)
    for config in (wide, at_two):
        geometry.diameter(config)
        normalize_to_diameter(config)
    assert normalize_to_diameter(at_two) is at_two
    assert counts == {"distance": 0, "reciprocal": 0}


# the distance and reciprocal passes of a first call at another tolerance
# and of a second one, on a fresh object and on one with a filled memo: each
# call takes a distance pass of its own, while the stationarity sums are
# kept on the object, so only verify on a fresh object forms them, once
@pytest.mark.parametrize("call, passes", [
    (lambda c: kkt.verify(c, 1e-3), {"fresh": (1, 1), "filled": (1, 0)}),
    (lambda c: kkt.active_set(c, 1e-3), {"fresh": (1, 0), "filled": (1, 0)}),
    (lambda c: diamgraph.extract(c, 1e-3), {"fresh": (1, 0), "filled": (1, 0)}),
    (lambda c: diamgraph.maximizer_structure_report(c, 1e-3),
     {"fresh": (1, 0), "filled": (1, 0)}),
])
def test_another_tolerance_takes_its_own_pass(monkeypatch, call, passes):
    counts = _count_passes(monkeypatch)
    for state, (distance, reciprocal) in passes.items():
        config = regular_ngon(301)
        if state == "filled":
            for check in CHECKS.values():
                check(config)
        counts.update(distance=0, reciprocal=0)
        call(config)
        assert counts == {"distance": distance, "reciprocal": reciprocal}, state
        call(config)
        assert counts == {"distance": 2 * distance, "reciprocal": reciprocal}, state


def test_verify_past_the_memo_diameter_takes_its_own_active_pass(monkeypatch):
    # above 2 (1 + 1e-10) not every active pair need be an edge candidate
    config = PointConfig(regular_ngon(40).points * (1.0 + 1e-9))
    counts = _count_passes(monkeypatch)
    report = kkt.verify(config)
    assert counts == {"distance": 2, "reciprocal": 1}
    d2 = pairwise_distances(config.as_complex) ** 2
    assert list(report.active_set) == [(i, j) for i in range(40) for j in range(i + 1, 40)
                                       if d2[i, j] >= 4.0 * (1.0 - 1e-9)]


# multipliers of the regular heptagon and nonagon at rel_tol 0.5, where each
# has more active pairs than 2n - 3: the values of the fit that built the
# normal matrix first and never used it
PINNED_LOOSE = {
    7: ['0x1.5d660e4ad8354p-2', '0x1.0fa66f9a43b92p-1', '0x1.0fa66f9a43b8fp-1',
        '0x1.5d660e4ad8351p-2', '0x1.5d660e4ad8358p-2', '0x1.0fa66f9a43b92p-1',
        '0x1.0fa66f9a43b95p-1', '0x1.5d660e4ad835ap-2', '0x1.5d660e4ad8360p-2',
        '0x1.0fa66f9a43b94p-1', '0x1.0fa66f9a43b8ep-1', '0x1.5d660e4ad8359p-2',
        '0x1.0fa66f9a43b95p-1', '0x1.5d660e4ad835ep-2'],
    9: ['0x1.ef895dac8b718p-2', '0x1.40656ea3b1ef8p-1', '0x1.40656ea3b1ef6p-1',
        '0x1.ef895dac8b70fp-2', '0x1.ef895dac8b702p-2', '0x1.40656ea3b1effp-1',
        '0x1.40656ea3b1ef3p-1', '0x1.ef895dac8b70fp-2', '0x1.ef895dac8b712p-2',
        '0x1.40656ea3b1ef4p-1', '0x1.40656ea3b1efcp-1', '0x1.ef895dac8b700p-2',
        '0x1.ef895dac8b71ap-2', '0x1.40656ea3b1ef8p-1', '0x1.40656ea3b1efcp-1',
        '0x1.ef895dac8b707p-2', '0x1.40656ea3b1effp-1', '0x1.ef895dac8b6f6p-2'],
}


@pytest.mark.parametrize("n", sorted(PINNED_LOOSE))
def test_fit_past_2n_minus_3_pairs_builds_no_normal_matrix(monkeypatch, n):
    def refuse(*args):
        raise AssertionError("normal matrix built")

    monkeypatch.setattr(kkt, "_normal_matrix", refuse)
    report = kkt.verify(regular_ngon(n), 0.5)
    assert len(report.multipliers) > 2 * n - 3
    assert [v.hex() for v in report.multipliers.values()] == PINNED_LOOSE[n]
