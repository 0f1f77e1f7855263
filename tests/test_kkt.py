import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from polydisc import (
    InvalidConfigError,
    PointConfig,
    SingularConfigError,
    active_set,
    log_delta_bar,
    maximizer_structure_report,
    recover_multipliers,
    regular_ngon,
    verify,
)
from polydisc import constructions, diamgraph, geometry, kkt
from polydisc.constructions import arc_polygon, dodecagon12, hexagon6, kite4, triwave
from polydisc.geometry import normalize_to_diameter, stationarity_lhs

SQRT7 = math.sqrt(7.0)

# stationary path-graph configuration of four points on diameter 2
P4_CONFIG = PointConfig.from_complex(np.array(
    [1.25 + SQRT7 / 4 * 1j, 0.0 + 0j, 1.5 - SQRT7 / 2 * 1j, 2.0 + 0j]))
P4_ACTIVE = [(0, 2), (1, 2), (1, 3)]


class TestActiveSet:
    def test_kite(self):
        assert set(active_set(kite4())) == {(0, 1), (0, 2), (0, 3), (2, 3)}

    def test_regular_hexagon_main_diagonals(self):
        assert set(active_set(regular_ngon(6))) == {(0, 3), (1, 4), (2, 5)}

    def test_triwave_antipodal(self):
        n = 12
        tw = triwave(n)
        assert set(active_set(tw.config)) == {(k, k + n // 2) for k in range(n // 2)}

    @pytest.mark.parametrize("rel_tol", [float("nan"), float("inf"), -1e-3, 1.0])
    def test_rel_tol_outside_unit_interval_rejected(self, rel_tol):
        for check in (active_set, verify):
            with pytest.raises(InvalidConfigError, match="rel_tol"):
                check(kite4(), rel_tol)


class TestRecoverMultipliers:
    def test_path_graph_multipliers(self):
        lam, residual = recover_multipliers(P4_CONFIG, P4_ACTIVE)
        assert lam[(0, 2)] == pytest.approx(0.75, abs=1e-10)
        assert lam[(1, 3)] == pytest.approx(0.75, abs=1e-10)
        assert lam[(1, 2)] == pytest.approx(0.0, abs=1e-10)
        assert residual < 1e-10

    def test_kite(self):
        lam, residual = recover_multipliers(kite4(), active_set(kite4()))
        assert residual < 1e-10
        assert min(lam.values()) >= -1e-12

    def test_pentagon_symmetric_multipliers(self):
        cfg = regular_ngon(5)
        lam, residual = recover_multipliers(cfg, active_set(cfg))
        assert residual < 1e-10
        values = list(lam.values())
        assert np.ptp(values) < 1e-10

    def test_duplicate_pair_rejected(self):
        # listed twice, in either order, a pair once reported half its
        # multiplier: 0.25 for (0, 2) of the regular 5-gon, not 0.5
        cfg = regular_ngon(5)
        active = active_set(cfg)
        assert recover_multipliers(cfg, active)[0][(0, 2)] == pytest.approx(0.5, abs=1e-10)
        for extra in [(0, 2), (2, 0)]:
            with pytest.raises(InvalidConfigError, match="twice"):
                recover_multipliers(cfg, active + [extra])

    @pytest.mark.parametrize("pair", [(1, 1), (-1, 2), (0, 5), (5, 0)])
    def test_pair_outside_the_points_rejected(self, pair):
        with pytest.raises(InvalidConfigError, match="not two of the 5 points"):
            recover_multipliers(regular_ngon(5), [(0, 2), pair])

    def test_empty_active_reports_gradient_size(self):
        rng = np.random.default_rng(1)
        cfg = PointConfig(rng.uniform(-1, 1, (5, 2)))
        lam, residual = recover_multipliers(cfg, [])
        assert lam == {}
        assert residual > 1e-2


class TestVerify:
    def test_kite_passes(self):
        report = verify(kite4())
        assert report.stationarity_residual < 1e-8
        assert report.min_multiplier >= -1e-10
        assert report.complementarity_violation < 1e-8
        assert not report.structural_failure

    def test_square_report_is_computed(self):
        # the square is stationary; rejecting it is the structure module's
        # job (its diameter graph is disconnected), not this report's
        square = PointConfig([[1, 0], [0, 1], [-1, 0], [0, -1]])
        report = verify(square)
        assert report.stationarity_residual < 1e-10
        from polydisc import maximizer_structure_report
        assert not maximizer_structure_report(square).connected

    def test_random_points_not_stationary(self):
        rng = np.random.default_rng(9)
        z = rng.uniform(-1, 1, (6, 2))
        cfg = normalize_to_diameter(PointConfig(z), 2.0)
        report = verify(cfg)
        assert report.stationarity_residual > 1e-2

    def test_zero_degree_point_flagged(self):
        # an interior point with no incident active pair cannot be stationary
        cfg = PointConfig([[1, 0], [-1, 0], [0.1, 0.33]])
        report = verify(cfg)
        assert report.structural_failure
        assert 2 in report.zero_degree_points

    def test_coincident_invalid(self):
        with pytest.raises(SingularConfigError):
            verify(PointConfig([[0, 0], [0, 0], [1, 0]]))

    def test_large_residual_has_finite_norm(self):
        # the residual's squares overflow a float, its 2-norm does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify(PointConfig([[0, 0], [1e-200, 0], [2, 0]]))
        assert math.isfinite(report.residual_norm2)
        assert report.residual_norm2 >= report.stationarity_residual


class TestInvariants:
    def test_rotation_equivariance(self):
        base = hexagon6()
        r0 = verify(base)
        rot = PointConfig.from_complex(base.as_complex * np.exp(0.61j))
        r1 = verify(rot)
        assert r1.stationarity_residual == pytest.approx(
            r0.stationarity_residual, abs=1e-10)
        for pair, lam in r0.multipliers.items():
            assert r1.multipliers[pair] == pytest.approx(lam, abs=1e-10)

    def test_complementary_slackness(self):
        for cfg in (kite4(), hexagon6(), regular_ngon(5)):
            assert verify(cfg).complementarity_violation < 1e-8

    def test_scale_invariance_of_verdict(self):
        base = kite4()
        r0 = verify(base)
        scaled = normalize_to_diameter(PointConfig(base.points * 3.7), 2.0)
        r1 = verify(scaled)
        assert r1.stationarity_residual == pytest.approx(
            r0.stationarity_residual, abs=1e-10)

    def test_path_graph_value_is_one(self):
        from polydisc import normalized_discriminant
        assert normalized_discriminant(P4_CONFIG) == pytest.approx(1.0, abs=1e-12)


# verify() outputs recorded with numpy 2.4.6 on x86-64, as float.hex strings,
# from the normal-equations fit; a change to the KKT algebra that moves any
# bit of them fails here
PINNED_VERIFY = {
    "dodecagon12": dict(
        active=[(0, 1), (1, 2), (1, 3), (2, 11), (3, 6), (4, 5), (5, 6), (5, 7),
                (7, 10), (8, 9), (9, 10), (9, 11)],
        multipliers=["0x1.37d876fffda75p+1", "0x1.3bb30d9ad5d38p-2", "0x1.3bb30d9ad5d5bp-2",
                     "0x1.393ac5994ce3cp+1", "0x1.393ac5994ce39p+1", "0x1.37d876fffda74p+1",
                     "0x1.3bb30d9ad5d50p-2", "0x1.3bb30d9ad5d4fp-2", "0x1.393ac5994ce39p+1",
                     "0x1.37d876fffda75p+1", "0x1.3bb30d9ad5d5ap-2", "0x1.3bb30d9ad5d35p-2"],
        residual="0x1.94c583ada5b53p-49",
        residual_norm2="0x1.985b9155218f4p-48",
        complementarity="0x1.393ac5994ce3cp-49",
    ),
    "regular7": dict(
        active=[(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)],
        multipliers=["0x1.7fffffffffffep-1", "0x1.7fffffffffffep-1", "0x1.7ffffffffffffp-1",
                     "0x1.7fffffffffffep-1", "0x1.8000000000000p-1", "0x1.7fffffffffffdp-1",
                     "0x1.7ffffffffffffp-1"],
        residual="0x1.2000000000000p-51",
        residual_norm2="0x1.c12432fec0329p-51",
        complementarity="0x0.0p+0",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_VERIFY))
def test_verify_is_pinned(name):
    config = dodecagon12()[1] if name == "dodecagon12" else regular_ngon(7)
    pin = PINNED_VERIFY[name]
    report = verify(config)
    assert report.active_set == tuple(pin["active"])
    assert list(report.multipliers) == pin["active"]
    assert [v.hex() for v in report.multipliers.values()] == pin["multipliers"]
    assert report.stationarity_residual.hex() == pin["residual"]
    assert report.residual_norm2.hex() == pin["residual_norm2"]
    assert float(report.complementarity_violation).hex() == pin["complementarity"]


def _loop_fit(config, active):
    """Reference: the complex constraint columns built pair by pair, and the
    clamp-and-resolve iteration by dense least squares on them."""
    z = config.as_complex
    M = np.zeros((config.n, len(active)), dtype=complex)
    for c, (a, b) in enumerate(active):
        M[a, c] = np.conj(z[b]) - np.conj(z[a])
        M[b, c] = np.conj(z[a]) - np.conj(z[b])
    L = stationarity_lhs(z)
    A, y = np.vstack([M.real, M.imag]), np.concatenate([L.real, L.imag])
    lam, *_ = np.linalg.lstsq(A, y, rcond=None)
    for _ in range(len(active) + 2):
        if (lam >= -1e-12).all():
            break
        support = lam > 1e-12
        refit = np.zeros_like(lam)
        if support.any():
            refit[support], *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
        lam = refit
    lam = np.maximum(lam, 0.0)
    return lam.tolist(), float(np.abs(L - M @ lam).max())


GRIDS = [
    [[0, 0], [2, 0], [1, 1], [1, -1], [0.5, 0.25]],
    [[0, 1], [0, -1], [1, 0], [-1, 0], [0.5, 0.5]],
    [[1, 1], [-1, -1], [1, -1], [-1, 1], [0, 0.5], [0.5, 0]],
    [[0, 0], [1, 0], [2, 0], [0, 1], [2, 1], [1, 2]],
]


# grid points make exactly horizontal and vertical pairs, whose zero
# coordinate differences carry a sign the least-squares solver reads
@pytest.mark.parametrize("points", GRIDS)
@pytest.mark.parametrize("rel_tol", [1e-9, 0.5])
def test_multipliers_match_loop_reference(points, rel_tol):
    config = normalize_to_diameter(PointConfig(points), 2.0)
    active = active_set(config, rel_tol)
    lam, residual = recover_multipliers(config, active)
    ref_lam, ref_residual = _loop_fit(config, active)
    assert list(lam) == active
    assert np.abs(np.subtract(list(lam.values()), ref_lam)).max() \
        <= 1e-9 * max(1.0, np.abs(ref_lam).max())
    assert residual <= ref_residual + max(1e-12, 1e-9 * ref_residual)


def test_many_blocks_match_loop_reference():
    # 201 pairs, so the Cholesky factor has four diagonal blocks
    config = regular_ngon(201)
    active = active_set(config)
    lam, residual = recover_multipliers(config, active)
    ref_lam, ref_residual = _loop_fit(config, active)
    assert len(lam) == 201
    assert np.abs(np.subtract(list(lam.values()), ref_lam)).max() \
        <= 1e-9 * max(1.0, np.abs(ref_lam).max())
    assert residual <= ref_residual + max(1e-12, 1e-9 * ref_residual)


# the first two grids at rel_tol 0.5 have 7 and 8 pairs of rank 6 and 7: the
# normal equations are singular, and the fit is the dense lstsq one
@pytest.mark.parametrize("points", GRIDS[:2])
def test_dependent_columns_take_the_lstsq_path(points):
    config = normalize_to_diameter(PointConfig(points), 2.0)
    active = active_set(config, 0.5)
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        lam, residual = recover_multipliers(config, active)
    assert lstsq.called
    ref_lam, ref_residual = _loop_fit(config, active)
    assert list(lam.values()) == ref_lam
    assert residual <= ref_residual + max(1e-12, 1e-9 * ref_residual)


def test_overflowing_normal_equations_fall_back():
    # pair differences near 1e160 square past the float range: every pair
    # is active, and the gaps to the diameter 2 are inf
    active = active_set(regular_ngon(5))
    config = PointConfig(regular_ngon(5).points * 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            lam, residual = recover_multipliers(config, active)
        every_pair = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        assert active_set(config) == every_pair
        report = verify(config)
    assert report.active_set == tuple(every_pair)
    assert report.min_multiplier > 0.0 and report.complementarity_violation == math.inf
    # the squares of the residual underflow, and the norm is rescaled
    assert 0 < report.stationarity_residual <= report.residual_norm2
    assert lstsq.called
    ref_lam, ref_residual = _loop_fit(config, active)
    assert list(lam.values()) == ref_lam
    assert residual <= ref_residual + max(1e-12, 1e-9 * ref_residual)


@pytest.mark.parametrize("scale", [1e200, 1e300])
def test_zero_multipliers_add_no_complementarity(scale):
    # the multipliers underflow to 0 while the gaps to the diameter 2 are
    # inf: a zero multiplier contributes 0, not 0 * inf
    config = PointConfig(regular_ngon(5).points * scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify(config)
    assert len(report.active_set) == 10
    assert set(report.multipliers.values()) == {0.0}
    assert report.complementarity_violation == 0.0
    assert 0.0 < report.stationarity_residual <= report.residual_norm2 < math.inf


NONAGON_GRAPH = diamgraph.extract(regular_ngon(9))


def _recover_multipliers(config):
    return recover_multipliers(config, [(0, 4)])


@pytest.mark.parametrize("check", [
    verify, maximizer_structure_report, log_delta_bar,
    *(pytest.param(f, id=f.__name__) for f in (
        geometry.diameter, geometry.normalize_to_diameter, geometry.evaluate,
        geometry.discriminant, geometry.normalized_discriminant, geometry.is_convex_position,
        geometry.objective_gradient, active_set, diamgraph.extract)),
    pytest.param(_recover_multipliers, id="recover_multipliers"),
    pytest.param(lambda c: diamgraph.check_pairwise_intersection(c, NONAGON_GRAPH),
                 id="check_pairwise_intersection"),
    pytest.param(PointConfig.is_distinct, id="is_distinct"),
    pytest.param(PointConfig.min_pairwise_distance, id="min_pairwise_distance"),
    pytest.param(lambda c: constructions._max_distance(c.as_complex), id="_max_distance"),
])
def test_one_distance_matrix_per_check(check):
    # every pass over the pairs counts: each check forms its distances in
    # one pass, and those that read the stationarity sums their reciprocals
    # in one more
    calls = {"distance": [], "reciprocal": []}

    def counter(kind, real):
        def counted(z, *args, **kwargs):
            calls[kind].append(len(z))
            return real(z, *args, **kwargs)
        return counted

    distances = counter("distance", geometry._pair_rows)
    reciprocals = counter("reciprocal", geometry.stationarity_lhs)
    with mock.patch.object(geometry, "_pair_rows", distances), \
            mock.patch.object(constructions, "_pair_rows", distances), \
            mock.patch.object(geometry, "stationarity_lhs", reciprocals):
        check(regular_ngon(9))
    assert calls["distance"] == [9]
    sums = check in (verify, geometry.objective_gradient, _recover_multipliers)
    assert calls["reciprocal"] == ([9] if sums else [])


@pytest.mark.parametrize("check", [log_delta_bar, verify, maximizer_structure_report])
def test_no_distance_matrix_held(check):
    # the distance matrix of the regular 2000-gon takes 32 MB
    config = regular_ngon(2000)
    tracemalloc.start()
    try:
        check(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2000 ** 2 * 8 / 2


def _relabeled(config, seed):
    perm = np.random.default_rng(seed).permutation(config.n)
    return PointConfig.from_complex(config.as_complex[perm]), perm


def _reflected(config):
    return PointConfig.from_complex(np.conj(config.as_complex))


def _wrapped(config):
    # rotated so that an active pair's direction is 0 (mod pi): sorted by
    # direction, the pairs next to it lie at both ends
    z = config.as_complex
    a, b = active_set(config)[0]
    return PointConfig.from_complex(z * np.exp(-1j * np.angle(z[b] - z[a])))


# more than kkt._BLOCK active pairs each (301 or 120): the fit is ordered
# by direction, folded, and factored a block at a time
BANDED = {"regular301": lambda: regular_ngon(301), "arc20": lambda: arc_polygon(20).P,
          "arc20_reflected": lambda: _reflected(arc_polygon(20).P),
          "regular301_wrapped": lambda: _wrapped(regular_ngon(301))}


def _lstsq_reference(config, active):
    z = config.as_complex
    a, b = kkt._pair_arrays(active)
    A = kkt._column_matrix(np.conj(z[b] - z[a]), a, b, config.n)
    L = stationarity_lhs(z)
    return np.linalg.lstsq(A, np.concatenate([L.real, L.imag]), rcond=None)[0]


@pytest.mark.parametrize("name", sorted(BANDED))
@pytest.mark.parametrize("floor", [kkt._PIVOT_FLOOR, 1.0])
def test_banded_fit_matches_dense_lstsq(name, floor, monkeypatch):
    # a pivot floor of 1 rejects every factor: the fit is the lstsq fallback
    monkeypatch.setattr(kkt, "_PIVOT_FLOOR", floor)
    config = BANDED[name]()
    moved, perm = _relabeled(config, 7)
    label = np.argsort(perm)  # the new label of each old point
    with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
        report = verify(moved)
    assert lstsq.called == (floor == 1.0)
    expected = {tuple(sorted((label[i], label[j]))) for i, j in active_set(config)}
    assert len(report.active_set) > kkt._BLOCK
    assert set(report.active_set) == expected
    ref = _lstsq_reference(moved, report.active_set)
    lam = np.array(list(report.multipliers.values()))
    assert ref.min() > 0
    assert (np.abs(lam - ref) <= 1e-12 * ref).all()


def _bandwidth(config):
    z = config.as_complex
    a, b = kkt._pair_arrays(active_set(config))
    w = np.conj(z[b] - z[a])
    order = kkt._direction_order(w)
    assert sorted(order.tolist()) == list(range(len(a)))
    i, j = np.nonzero(kkt._normal_matrix(w[order], a[order], b[order]))
    return np.abs(i - j).max()


def test_band_order_is_a_narrow_permutation():
    # the diameters of an odd regular polygon form a cycle whose pairs,
    # sorted by direction, share a point with their cyclic neighbours: folded,
    # each pair couples with pairs at most two places away
    assert _bandwidth(_relabeled(regular_ngon(301), 7)[0]) == 2
    assert _bandwidth(_relabeled(arc_polygon(20).P, 7)[0]) <= 4


def test_order_does_not_change_a_fit_of_any_pairs():
    # 100 random pairs, no diameter graph: the order changes only the speed
    rng = np.random.default_rng(3)
    n = 80
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    pairs = sorted({tuple(sorted(p)) for p in rng.choice(n, size=(150, 2)) if p[0] != p[1]})
    a, b = kkt._pair_arrays(pairs[:100])
    L = stationarity_lhs(z)
    lam, _ = kkt._fit(z, a, b, L)
    ref = kkt._nnls_project_resolve(np.conj(z[b] - z[a]), a, b, L)
    assert len(a) > kkt._BLOCK
    assert 0 < (ref == 0).sum() < len(ref) // 2  # clamped, then refitted
    assert (np.abs(lam - ref) <= 1e-12 * np.abs(ref)).all()


@pytest.mark.parametrize("m", [65, 130, 200])
@pytest.mark.parametrize("density", [0.02, 1.0])
def test_block_factor_matches_dense_cholesky(m, density):
    # a random sparse pattern, not a band: fill-in spreads over later blocks;
    # a dense one updates every later row, a block of columns at a time
    rng = np.random.default_rng(m)
    B = rng.normal(size=(m, m)) * (rng.uniform(size=(m, m)) < density)
    N = B @ B.T + np.eye(m)
    C, inverses = kkt._cholesky_factor(N.copy())  # factored in place
    assert not np.triu(C, 1).any()
    assert np.abs(C - np.linalg.cholesky(N)).max() <= 1e-12 * np.abs(C).max()
    r = rng.normal(size=m)
    assert np.abs(kkt._cholesky_solve(C, inverses, r) - np.linalg.solve(N, r)).max() \
        <= 1e-10 * np.abs(np.linalg.solve(N, r)).max()


def test_no_lapack_factor_larger_than_a_block():
    # the whole normal matrix never reaches np.linalg.cholesky, whose work
    # copy of it would set verify's memory peak at large n
    moved, _ = _relabeled(regular_ngon(301), 7)
    with mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky:
        verify(moved)
    sizes = [max(call.args[0].shape) for call in cholesky.call_args_list]
    assert len(sizes) > 1
    assert max(sizes) <= kkt._BLOCK
