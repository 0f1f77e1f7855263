"""Property tests: relabeling, rigid motion and scaling, canonical pose,
congruence, persistence, CLI exits.

Point sets are drawn on a grid of step 1/16 so that ties in distance and
collinear triples are exact and frequent; the runs are derandomized and
bounded, so the suite stays fast and repeatable.
"""

import json
import math
import os
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from polydisc import (
    PointConfig,
    active_set,
    congruent,
    dodecagon12,
    extract,
    gauge_fix,
    hexagon6,
    is_convex_position,
    kite4,
    log_delta_bar,
    regular_ngon,
    triwave,
    verify,
)
from polydisc.cli import main, read_config, write_config
from polydisc.geometry import normalize_to_diameter

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

