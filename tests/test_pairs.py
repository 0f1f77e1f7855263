"""Pair selection by distance against a plain loop over the upper triangle."""

import numpy as np
import pytest

from polydisc import (PointConfig, SingularConfigError, active_set, extract, geometry,
                      maximizer_structure_report, objective_gradient, recover_multipliers,
                      regular_ngon, verify)
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
    # pairs at squared distance 36 or more: a few at scale 1 and none at
    # 1e-150; at 2^1010 every square overflows, so that every pair is active
    active = -8.0 if scale < 2.0 ** 1000 else None
    found = geometry._pair_rows(z, nearest=True, logs=True, active=active, edges=1e-3)
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
    if active is not None:
        assert found.active == upper_reference(ref_d ** 2 >= 36.0)
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
