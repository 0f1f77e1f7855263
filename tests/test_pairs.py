"""Pair selection by distance against a plain loop over the upper triangle."""

import tracemalloc

import numpy as np
import pytest

from polydisc import (PointConfig, SingularConfigError, active_set, arc_polygon, asymptotics,
                      constructions, extract, geometry, maximizer_structure_report,
                      objective_gradient, recover_multipliers, regular_ngon, triwave, verify)
from polydisc.geometry import _pair_list, _upper, normalize_to_diameter, pairwise_distances


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


def _moved_arc():
    z = arc_polygon(20).P.as_complex[np.random.default_rng(20).permutation(120)]
    return PointConfig.from_complex(z * np.exp(0.7j) + (0.3 - 0.2j))


SELECTION_CONFIGS = {
    "relabelled_regular301": lambda: regular_ngon(301).points[
        np.random.default_rng(301).permutation(301)],
    "moved_arc20": lambda: _moved_arc().points,
    "triwave256": lambda: triwave(256).config.points,
    "random40": lambda: _random(7, 40).points,
}


@pytest.mark.parametrize("rows", [1, 2, None])
@pytest.mark.parametrize("grow", [False, True])
@pytest.mark.parametrize("rel_tol", [1e-12, 1e-9, 1e-3, 0.5])
@pytest.mark.parametrize("name", sorted(SELECTION_CONFIGS))
def test_active_set_is_the_edges_past_the_absolute_cut(monkeypatch, name, rel_tol, grow, rows):
    # up to the diameter 2 / sqrt(1 - rel_tol) every pair at squared distance
    # 4 (1 - rel_tol) or more is a diameter-graph edge, so the active set,
    # filtered from the edges, is all of them: at diameter 2 and at
    # 2 (1 + 0.45 rel_tol), just inside that bound
    points = SELECTION_CONFIGS[name]()
    if rows is not None:
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", rows * len(points))
    config = PointConfig(points * (1.0 + 0.45 * rel_tol) if grow else points)
    found = active_set(config, rel_tol)
    d2 = pairwise_distances(config.as_complex) ** 2
    assert found == upper_reference(d2 >= 4.0 * (1.0 - rel_tol))
    assert set(found) <= extract(PointConfig(config.points), rel_tol).edges


def test_regular_polygon_ties():
    # every vertex of an odd polygon has two farthest neighbours, of an even
    # one a single antipode
    assert len(active_set(regular_ngon(1001))) == 1001
    assert len(extract(regular_ngon(1000)).edges) == 500


def upper_pairs(mask):
    """_upper's pairs as a list of pairs of Python ints."""
    return _pair_list(np.column_stack(_upper(mask)))


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


@pytest.mark.parametrize("kernel", [lambda: asymptotics.j_riemann(4000),
                                    lambda: constructions.zonogon_support_max(12, 10 ** 6)],
                         ids=["j_riemann", "zonogon_support_max"])
def test_grid_kernels_take_row_blocks(kernel):
    # both grids take their blocks from _row_blocks; in blocks of their own
    # (2^22 and 10^7 entries) they peaked at 192 and 236 MiB
    tracemalloc.start()
    try:
        kernel()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def loop_distances_and_sums(z):
    """Reference: |z_j - z_k| and L_k = sum_{j != k} 1/(z_j - z_k) a row at a
    time, L from the points scaled by 2^-600 when a coordinate is past 2^1000."""
    huge = np.maximum(np.abs(z.real), np.abs(z.imag)).max() > 2.0 ** 1000
    zs = z * 2.0 ** -600 if huge else z
    d, L = np.empty((len(z), len(z))), np.empty(len(z), dtype=complex)
    for k in range(len(z)):
        with np.errstate(over="ignore"):
            d[k] = np.abs(z - z[k])
        diff = zs - zs[k]
        diff[k] = 1.0
        inv = 1.0 / diff
        inv[k] = 0.0
        L[k] = inv.sum()
    return d, L * 2.0 ** -600 if huge else L


def _fused_case(n, scale, close):
    x, y = np.random.default_rng(n).normal(size=(2, n))
    z = (x + 1j * y) * scale
    if close:
        z[:2] = 0.0, 1e-160
    return z


def upper_reference(mask):
    """Reference: pairs i < j where the (n, n) mask holds, in row-major order."""
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(np.triu(mask, 1)))]


@pytest.mark.parametrize("rows", [1, 2, None])
@pytest.mark.parametrize("scale, close", [(1e-150, False), (1.0, False), (2.0 ** 1010, False),
                                          (1.0, True)])
@pytest.mark.parametrize("n", [2, 3, 17, 512, 513, 1001, 1500])
def test_fused_pass_matches_distances_and_sums(monkeypatch, n, scale, close, rows):
    # blocks of one row, of two rows, and the default blocks (several at
    # n = 1500, the last one short): every distance reduction from one
    # pass, and the sums from the pass of stationarity_lhs
    if rows is not None:
        monkeypatch.setattr(geometry, "_BLOCK_ENTRIES", rows * n)
    z = _fused_case(n, scale, close)
    found = geometry._pair_rows(z, nearest=True, logs=True, edges=1e-3)
    L = geometry.stationarity_lhs(z)
    ref_d, ref_L = loop_distances_and_sums(z)
    assert pairwise_distances(z).tobytes() == ref_d.tobytes()
    assert L.tobytes() == ref_L.tobytes()
    assert np.isfinite(L).all()
    off = ~np.eye(n, dtype=bool)
    assert found.diameter == ref_d.max()
    assert found.far == tuple(sorted(divmod(int(ref_d.argmax()), n)))
    assert found.nearest == ref_d[off].min()
    # the logs of each block are summed in one call, in row-major order: at
    # one block, the sum over the whole matrix
    assert found.log_sum == sum(float(np.sum(np.log(ref_d[r][off[r]])))
                                for r in geometry._row_blocks(n))
    assert found.edges == upper_reference(ref_d >= (1.0 - 1e-3) * ref_d.max())


def test_fused_pass_prescales_only_the_sums():
    # the difference of the first two points is past the float range, so its
    # distance is inf, while the prescaled sums stay finite
    z = np.array([1.5 * 2.0 ** 1023, -1.5 * 2.0 ** 1023, 1j])
    found = geometry._pair_rows(z)
    d, L = pairwise_distances(z), geometry.stationarity_lhs(z)
    ref_d, ref_L = loop_distances_and_sums(z)
    assert d[0, 1] == d[1, 0] == np.inf
    assert found.diameter == np.inf and found.far == (0, 1)
    assert d.tobytes() == ref_d.tobytes() and L.tobytes() == ref_L.tobytes()
    assert np.isfinite(L).all()


@pytest.mark.parametrize("n", [3, 17, 513])
def test_coincident_points_stay_singular(n):
    z = _fused_case(n, 1.0, False)
    z[n - 1] = z[0]
    config = PointConfig.from_complex(z)
    assert geometry._pair_rows(z, nearest=True).nearest == 0.0
    assert not config.is_distinct()
    for check in (verify, maximizer_structure_report, objective_gradient):
        with pytest.raises(SingularConfigError):
            check(config)
    with pytest.raises(SingularConfigError):
        recover_multipliers(config, [(0, 1)])
