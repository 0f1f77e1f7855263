import math
import warnings

import numpy as np
import pytest

from polydisc import (
    PointConfig,
    SingularConfigError,
    active_set,
    recover_multipliers,
    regular_ngon,
    verify,
)
from polydisc.constructions import dodecagon12, hexagon6, kite4, triwave
from polydisc.geometry import normalize_to_diameter
from polydisc.kkt import _nnls_project_resolve, stationarity_lhs

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


# verify() outputs recorded with numpy 2.4.6 on x86-64, as float.hex strings;
# a change to the KKT algebra that moves any bit of them fails here
PINNED_VERIFY = {
    "dodecagon12": dict(
        active=[(0, 1), (1, 2), (1, 3), (2, 11), (3, 6), (4, 5), (5, 6), (5, 7),
                (7, 10), (8, 9), (9, 10), (9, 11)],
        multipliers=["0x1.37d876fffda72p+1", "0x1.3bb30d9ad5d3ep-2", "0x1.3bb30d9ad5d8dp-2",
                     "0x1.393ac5994ce3ep+1", "0x1.393ac5994ce3dp+1", "0x1.37d876fffda71p+1",
                     "0x1.3bb30d9ad5d53p-2", "0x1.3bb30d9ad5d7ap-2", "0x1.393ac5994ce3dp+1",
                     "0x1.37d876fffda7ap+1", "0x1.3bb30d9ad5d68p-2", "0x1.3bb30d9ad5d40p-2"],
        residual="0x1.68f9f8dbb6fe6p-47",
        residual_norm2="0x1.55ba73b04de61p-46",
        complementarity="0x1.393ac5994ce3ep-49",
    ),
    "regular7": dict(
        active=[(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6)],
        multipliers=["0x1.8000000000001p-1", "0x1.7fffffffffffcp-1", "0x1.8000000000002p-1",
                     "0x1.7fffffffffff9p-1", "0x1.8000000000003p-1", "0x1.7fffffffffffap-1",
                     "0x1.7fffffffffffbp-1"],
        residual="0x1.ad5336963eefcp-50",
        residual_norm2="0x1.548a6e5c2c110p-49",
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
    """Reference: the complex constraint columns built pair by pair."""
    z = config.as_complex
    M = np.zeros((config.n, len(active)), dtype=complex)
    for c, (a, b) in enumerate(active):
        M[a, c] = np.conj(z[b]) - np.conj(z[a])
        M[b, c] = np.conj(z[a]) - np.conj(z[b])
    L = stationarity_lhs(z)
    lam = _nnls_project_resolve(np.vstack([M.real, M.imag]),
                                np.concatenate([L.real, L.imag]), len(active) + 2)
    return lam.tolist(), float(np.abs(L - M @ lam).max())


# grid points make exactly horizontal and vertical pairs, whose zero
# coordinate differences carry a sign the least-squares solver reads
@pytest.mark.parametrize("points", [
    [[0, 0], [2, 0], [1, 1], [1, -1], [0.5, 0.25]],
    [[0, 1], [0, -1], [1, 0], [-1, 0], [0.5, 0.5]],
    [[1, 1], [-1, -1], [1, -1], [-1, 1], [0, 0.5], [0.5, 0]],
    [[0, 0], [1, 0], [2, 0], [0, 1], [2, 1], [1, 2]],
])
@pytest.mark.parametrize("rel_tol", [1e-9, 0.5])
def test_multipliers_match_loop_reference(points, rel_tol):
    config = normalize_to_diameter(PointConfig(points), 2.0)
    active = active_set(config, rel_tol)
    lam, residual = recover_multipliers(config, active)
    assert (list(lam.values()), residual) == _loop_fit(config, active)
