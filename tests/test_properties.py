"""Property tests: relabeling, rigid motion and scaling, canonical pose,
congruence, persistence, CLI exits, and the edge intersection screen against
a per-pair reference.

Point sets are drawn on a grid of step 1/16 so that ties in distance and
collinear triples are exact and frequent; the runs are derandomized and
bounded, so the suite stays fast and repeatable.
"""

import itertools
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from polydisc import (
    DiameterGraph,
    PointConfig,
    active_set,
    check_pairwise_intersection,
    congruent,
    dodecagon12,
    extract,
    gauge_fix,
    hexagon6,
    is_convex_position,
    kite4,
    log_delta_bar,
    recover_multipliers,
    regular_ngon,
    triwave,
    verify,
)
from polydisc import diamgraph
from polydisc.cli import main, read_config, write_config
from polydisc.geometry import diameter, normalize_to_diameter
from polydisc.kkt import stationarity_lhs

bounded = settings(max_examples=60, deadline=None, derandomize=True, database=None)

grid = st.integers(-16, 16).map(lambda k: k / 16)


@st.composite
def grid_configs(draw, min_n=3, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pts = draw(st.lists(st.tuples(grid, grid), min_size=n, max_size=n, unique=True))
    return PointConfig(np.array(pts, dtype=float))


@st.composite
def rigid_motions(draw):
    """(rotation, shift, reflect) as a function of complex points."""
    rot = np.exp(1j * draw(st.floats(0.0, 2 * math.pi)))
    shift = complex(draw(st.floats(-3, 3)), draw(st.floats(-3, 3)))
    reflect = draw(st.booleans())
    return lambda z: (np.conj(z) if reflect else z) * rot + shift


def moved(config, motion, scale=1.0):
    return PointConfig.from_complex(scale * motion(config.as_complex))


def relabel(pairs, perm):
    return sorted(tuple(sorted((perm[i], perm[j]))) for i, j in pairs)


@bounded
@given(grid_configs(), st.data())
def test_pair_selection_relabels_with_a_permutation(config, data):
    perm = data.draw(st.permutations(range(config.n)))
    config = normalize_to_diameter(config)
    permuted = PointConfig(config.points[perm])
    for rel_tol in (1e-9, 1e-3):
        assert relabel(active_set(permuted, rel_tol), perm) == active_set(config, rel_tol)
        assert relabel(extract(permuted, rel_tol).edges, perm) \
            == sorted(extract(config, rel_tol).edges)


STATIONARY = {
    "kite4": kite4,
    "hexagon6": hexagon6,
    "regular5": lambda: regular_ngon(5),
    "regular7": lambda: regular_ngon(7),
    "dodecagon12": lambda: dodecagon12()[1],
    "triwave12": lambda: triwave(12).config,
}


def verdict(config):
    report = verify(config)
    return len(report.active_set), report.stationarity_residual < 1e-10


@bounded
@given(st.one_of(st.sampled_from(sorted(STATIONARY)).map(lambda k: STATIONARY[k]()),
                 grid_configs(max_n=8)),
       rigid_motions(), st.floats(0.25, 4.0))
def test_verify_verdict_survives_rigid_motion_and_scaling(config, motion, scale):
    base = normalize_to_diameter(config)
    assert verdict(normalize_to_diameter(moved(config, motion, scale))) == verdict(base)


@bounded
@given(st.one_of(st.sampled_from(sorted(STATIONARY)).map(lambda k: STATIONARY[k]()),
                 grid_configs()),
       rigid_motions(), st.floats(0.25, 4.0), st.sampled_from([1e-9, 1e-3, 0.1, 0.5]))
def test_multipliers_match_dense_lstsq(config, motion, scale, rel_tol):
    config = normalize_to_diameter(moved(config, motion, scale))
    active = active_set(config, rel_tol)
    lam, residual = recover_multipliers(config, active)
    # reference: the dense columns and clamp-and-resolve by np.linalg.lstsq
    z = config.as_complex
    a, b = np.array(active, dtype=int).reshape(-1, 2).T
    M = np.zeros((config.n, len(active)), dtype=complex)
    M[a, np.arange(len(a))] = np.conj(z[b] - z[a])
    M[b, np.arange(len(a))] = np.conj(z[a] - z[b])
    L = stationarity_lhs(z)
    A, y = np.vstack([M.real, M.imag]), np.concatenate([L.real, L.imag])
    ref, *_ = np.linalg.lstsq(A, y, rcond=None)
    for _ in range(len(active) + 2):
        if (ref >= -1e-12).all():
            break
        support = ref > 1e-12
        refit = np.zeros_like(ref)
        if support.any():
            refit[support], *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        ref = refit
    ref = np.maximum(ref, 0.0)
    ref_residual = float(np.abs(L - M @ ref).max())
    got = np.array(list(lam.values()))
    assert np.abs(got - ref).max(initial=0.0) <= 1e-9 * max(1.0, np.abs(ref).max(initial=0.0))
    assert residual <= ref_residual + max(1e-12, 1e-9 * ref_residual)


@bounded
@given(grid_configs(), rigid_motions())
def test_convex_position_survives_rigid_motion(config, motion):
    assert is_convex_position(moved(config, motion)) == is_convex_position(config)


@bounded
@given(grid_configs(), rigid_motions(), st.floats(0.25, 4.0), st.data())
def test_log_delta_bar_survives_motion_scaling_and_relabeling(config, motion, scale, data):
    perm = data.draw(st.permutations(range(config.n)))
    copy = moved(PointConfig(config.points[perm]), motion, scale)
    assert math.isclose(log_delta_bar(copy), log_delta_bar(config), rel_tol=1e-9)


@bounded
@given(grid_configs(), rigid_motions())
def test_gauge_fix_is_idempotent(config, motion):
    config = moved(config, motion)
    z = config.as_complex
    r = np.sort(np.abs(z - z.mean()))[::-1]
    assume(r[0] - r[1] > 1e-3)  # a tie for the farthest point leaves the pose open
    once = gauge_fix(config)
    assert np.abs(gauge_fix(once).points - once.points).max() <= 1e-12


@bounded
@given(grid_configs(), rigid_motions(), st.data())
def test_congruent_is_reflexive_and_symmetric(config, motion, data):
    perm = data.draw(st.permutations(range(config.n)))
    copy = moved(PointConfig(config.points[perm]), motion)
    assert congruent(config, config)
    assert congruent(config, copy)
    assert congruent(copy, config)


def _orient(p, q, r, eps):
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return 1 if v > eps else -1 if v < -eps else 0


def _in_box(p, q, r, eps):
    return (min(p[0], q[0]) - eps <= r[0] <= max(p[0], q[0]) + eps
            and min(p[1], q[1]) - eps <= r[1] <= max(p[1], q[1]) + eps)


def _meet_once(p1, p2, p3, p4, eps, eps_len):
    d1, d2 = _orient(p3, p4, p1, eps), _orient(p3, p4, p2, eps)
    d3, d4 = _orient(p1, p2, p3, eps), _orient(p1, p2, p4, eps)
    if 0 not in (d1, d2, d3, d4):
        return d1 != d2 and d3 != d4
    if d1 == d2 == d3 == d4 == 0:
        axis = 0 if abs(p2[0] - p1[0]) >= abs(p2[1] - p1[1]) else 1
        lo = max(min(p1[axis], p2[axis]), min(p3[axis], p4[axis]))
        hi = min(max(p1[axis], p2[axis]), max(p3[axis], p4[axis]))
        return abs(hi - lo) <= eps_len
    return ((d1 == 0 and _in_box(p3, p4, p1, eps_len))
            or (d2 == 0 and _in_box(p3, p4, p2, eps_len))
            or (d3 == 0 and _in_box(p1, p2, p3, eps_len))
            or (d4 == 0 and _in_box(p1, p2, p4, eps_len)))


def reference_pairwise_intersection(config, graph):
    """One scalar segment test per pair of edges, in sorted edge order."""
    pts, scale = config.points, diameter(config)
    return all(_meet_once(pts[a], pts[b], pts[c], pts[d], 1e-9 * scale ** 2, 1e-9 * scale)
               for (a, b), (c, d) in itertools.combinations(sorted(graph.edges), 2))


half_grid = st.integers(-4, 4).map(lambda k: k / 2)


@st.composite
def segment_graphs(draw):
    """Points on a half-integer grid, where shared endpoints, crossings,
    contacts at an interior point, collinear overlaps and disjoint pairs all
    occur, and 2-10 edges between them."""
    pts = draw(st.lists(st.tuples(half_grid, half_grid), min_size=3, max_size=9, unique=True))
    n = len(pts)
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e)))
    edges = draw(st.lists(edge, min_size=2, max_size=10, unique=True))
    return PointConfig(np.array(pts)), DiameterGraph(n=n, edges=frozenset(edges))


# an end of one edge exactly at the orientation tolerance of the other's line
# (v = +eps, then -eps): a contact, which a sign that counted v = eps as a
# turn would call a miss
AT_TOLERANCE = [PointConfig([[0, 0], [2, 0], [1, 2e-9], [1, 1]]),
                PointConfig([[2, 0], [0, 0], [1, 2e-9], [1, 1]])]


@settings(bounded, max_examples=300)
@given(segment_graphs(), st.sampled_from([1, 16, diamgraph._BLOCK_ENTRIES]))
@example((AT_TOLERANCE[0], DiameterGraph(n=4, edges=frozenset({(0, 1), (2, 3)}))), 16)
@example((AT_TOLERANCE[1], DiameterGraph(n=4, edges=frozenset({(0, 1), (2, 3)}))), 16)
def test_pairwise_intersection_matches_per_pair_reference(case, block):
    config, graph = case
    with mock.patch.object(diamgraph, "_BLOCK_ENTRIES", block):
        assert check_pairwise_intersection(config, graph) \
            == reference_pairwise_intersection(config, graph)


finite = st.floats(allow_nan=False, allow_infinity=False)


@bounded
@given(st.lists(st.tuples(finite, finite), max_size=8))
def test_json_round_trip_is_bit_exact(pts):
    config = PointConfig(np.array(pts, dtype=float).reshape(-1, 2))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        write_config(path, config, {"family": "random", "value": 1.5})
        loaded, meta = read_config(path)
    assert loaded.points.tobytes() == config.points.tobytes()
    assert meta == {"family": "random", "value": 1.5}


json_leaves = (st.none() | st.booleans() | st.integers() | st.floats()
               | st.text(max_size=4))
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4),
                                                                inner, max_size=4),
    max_leaves=10)
number = grid | st.floats() | st.integers()
pair = st.tuples(number, number).map(list)
malformed_point = st.lists(number | st.booleans() | st.text(max_size=2), max_size=3)


def document(points, **fields):
    return {"schema_version": 1, "n": len(points), "points": points, "meta": {}, **fields}


@st.composite
def fuzzed_documents(draw):
    """Configuration objects with some of their fields fuzzed."""
    points = draw(st.lists(pair | malformed_point, max_size=6) | json_values)
    doc = document(points if isinstance(points, list) else [])
    doc["points"] = points
    for key in ("schema_version", "n", "meta"):
        if draw(st.booleans()):
            doc[key] = draw(json_values)
    return doc


config_files = st.one_of(
    st.lists(pair, max_size=6).map(document),  # reach the numeric code
    fuzzed_documents(),
    json_values,
).map(lambda doc: json.dumps(doc).encode()) | st.binary(max_size=40)


@settings(bounded, max_examples=120)
@given(config_files, st.sampled_from(["evaluate", "kkt"]))
def test_cli_exit_code_on_fuzzed_files(content, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.json")
        with open(path, "wb") as fh:
            fh.write(content)
        assert main([command, path]) in (0, 2, 3, 4)

