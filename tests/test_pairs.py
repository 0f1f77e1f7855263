"""Pair selection by distance against a plain loop over the upper triangle."""

import numpy as np
import pytest

from polydisc import PointConfig, active_set, extract, geometry, regular_ngon
from polydisc.geometry import normalize_to_diameter, pairwise_distances, upper_pairs


def loop_pairs(values, cut):
    """Reference: pairs i < j with values[i, j] >= cut, in row-major order."""
    n = len(values)
    return [(int(i), int(j)) for i, j in zip(*np.triu_indices(n, 1))
            if values[i, j] >= cut]


def _random(seed, n):
    rng = np.random.default_rng(seed)
    return normalize_to_diameter(PointConfig(rng.normal(size=(n, 2))))


CONFIGS = {
    "regular1000": lambda: regular_ngon(1000),
    "regular1001": lambda: regular_ngon(1001),
    **{f"random{n}_{s}": (lambda s=s, n=n: _random(s, n)) for s in range(4) for n in (9, 40)},
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def config(request):
    return CONFIGS[request.param]()


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-3])
def test_active_set_matches_loop(config, rel_tol):
    d2 = pairwise_distances(config.as_complex) ** 2
    assert active_set(config, rel_tol) == loop_pairs(d2, 4.0 * (1.0 - rel_tol))


@pytest.mark.parametrize("rel_tol", [1e-9, 1e-3])
def test_extract_matches_loop(config, rel_tol):
    d = pairwise_distances(config.as_complex)
    expected = loop_pairs(d, (1.0 - rel_tol) * d.max())
    assert sorted(extract(config, rel_tol).edges) == expected


def test_regular_polygon_ties():
    # every vertex of an odd polygon has two farthest neighbours, of an even
    # one a single antipode
    assert len(active_set(regular_ngon(1001))) == 1001
    assert len(extract(regular_ngon(1000)).edges) == 500


def test_upper_pairs_ignores_diagonal_and_lower_triangle():
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 2] = False
    assert upper_pairs(mask) == [(0, 1), (1, 2)]
    assert upper_pairs(np.zeros((0, 0), dtype=bool)) == []
    assert all(type(i) is int for pair in upper_pairs(mask) for i in pair)


@pytest.mark.parametrize("entries", [1, 50, 1 << 18])
def test_row_blocks_match_one_pass(monkeypatch, entries):
    # blocks of one row, of a few rows with a short last block, and one block
    # give the same bits as the whole (n, n) array at once
    monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", entries)
    rng = np.random.default_rng(3)
    z = rng.normal(size=23) + 1j * rng.normal(size=23)
    assert np.array_equal(pairwise_distances(z), np.abs(z[:, None] - z[None, :]))
    diff = z[None, :] - z[:, None]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    assert geometry.stationarity_lhs(z).tobytes() == inv.sum(axis=1).tobytes()
    config = normalize_to_diameter(PointConfig.from_complex(z))
    d2 = pairwise_distances(config.as_complex) ** 2
    assert active_set(config, 1e-3) == loop_pairs(d2, 4.0 * (1.0 - 1e-3))
    assert [s.stop - s.start for s in geometry._row_blocks(23)] == (
        [1] * 23 if entries == 1 else [2] * 11 + [1] if entries == 50 else [23])
