import math
import warnings
from unittest import mock

import numpy as np
import pytest

from polydisc import (
    PointConfig,
    SingularConfigError,
    active_set,
    log_delta_bar,
    maximizer_structure_report,
    recover_multipliers,
    regular_ngon,
    verify,
)
from polydisc import diamgraph, geometry, kkt
from polydisc.constructions import dodecagon12, hexagon6, kite4, triwave
from polydisc.geometry import normalize_to_diameter
from polydisc.kkt import stationarity_lhs

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
    # pair differences near 1e160 square past the float range
    active = active_set(regular_ngon(5))
    config = PointConfig(regular_ngon(5).points * 1e160)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq:
            lam, residual = recover_multipliers(config, active)
    assert lstsq.called
    ref_lam, ref_residual = _loop_fit(config, active)
    assert list(lam.values()) == ref_lam
    assert residual <= ref_residual + max(1e-12, 1e-9 * ref_residual)


@pytest.mark.parametrize("check", [verify, maximizer_structure_report, log_delta_bar])
def test_one_distance_matrix_per_check(check):
    real, calls = geometry.pairwise_distances, []

    def counted(z):
        calls.append(len(z))
        return real(z)

    with mock.patch.object(geometry, "pairwise_distances", counted), \
            mock.patch.object(kkt, "pairwise_distances", counted), \
            mock.patch.object(diamgraph, "pairwise_distances", counted):
        check(regular_ngon(9))
    assert calls == [9]
