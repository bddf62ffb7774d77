import numpy as np
import pytest

from mrpairs import unit_root
from mrpairs.errors import DegenerateInputError
from mrpairs.unit_root import (
    IntegrationOrder,
    adf_critical_value,
    adf_test,
    classify_integration_order,
    schwert_max_lag,
    simulate_adf_null_statistics,
)


class TestSchwertMaxLag:
    def test_t100(self):
        assert schwert_max_lag(100) == 12

    def test_t1600(self):
        assert schwert_max_lag(1600) == 24

    def test_t50(self):
        assert schwert_max_lag(50) == 10


class TestCriticalValues:
    def test_asymptotic_95(self):
        assert adf_critical_value(10**9) == pytest.approx(-2.86, abs=1e-6)

    def test_interpolation_monotone_in_t(self):
        values = [adf_critical_value(t) for t in (25, 40, 80, 150, 400, 800)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_small_sample_stricter(self):
        assert adf_critical_value(25) == -3.00


class TestAdfTest:
    def test_random_walk_not_rejected(self):
        rng = np.random.default_rng(0)
        y = np.cumsum(rng.standard_normal(500))
        out = adf_test(y)
        assert out.statistic > -2.86
        assert not out.reject_unit_root

    def test_white_noise_rejected(self):
        rng = np.random.default_rng(0)
        out = adf_test(rng.standard_normal(500))
        assert out.statistic < -2.86
        assert out.reject_unit_root

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateInputError, match="^constant series has no unit-root test$"):
            adf_test(np.full(100, 3.0))

    @pytest.mark.parametrize("max_lag", [None, 0, 3])
    @pytest.mark.parametrize("step", [0.5, 1.0, -2.0])
    def test_constant_differences_have_no_test(self, max_lag, step):
        # Without the check the design is rank deficient, or at max_lag 0
        # the t-ratio is read off rounding noise.
        y = 1000.0 + step * np.arange(300)
        message = "^constant differences have no unit-root test$"
        with pytest.raises(DegenerateInputError, match=message):
            adf_test(y, max_lag=max_lag)

    def test_reject_flag_matches_statistic(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            out = adf_test(np.cumsum(rng.standard_normal(300)))
            assert out.reject_unit_root == (out.statistic < out.critical_value_95)

    def test_chosen_lag_within_schwert_bound(self):
        rng = np.random.default_rng(2)
        y = np.cumsum(rng.standard_normal(400))
        out = adf_test(y)
        assert 0 <= out.chosen_lag <= schwert_max_lag(400)

    def test_constant_shift_invariance(self):
        rng = np.random.default_rng(5)
        y = np.cumsum(rng.standard_normal(400))
        a = adf_test(y)
        b = adf_test(y + 1000.0)
        assert abs(a.statistic - b.statistic) < 1e-8

    def test_collinear_regressors_raise(self):
        # repeating block pattern makes lagged differences collinear
        y = np.tile([1.0, 2.0], 50)
        with pytest.raises(DegenerateInputError, match="^regressor matrix is rank deficient$"):
            adf_test(y, max_lag=4)

    def test_bic_recovers_strong_lag(self):
        # data generated straight from the ADF form with one strong lag
        true_lag = 3
        chosen = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            T = 1000
            y = np.zeros(T)
            dy = np.zeros(T)
            for t in range(1, T):
                shock = rng.standard_normal()
                lagged = dy[t - true_lag] if t - true_lag >= 1 else 0.0
                dy[t] = -0.2 * y[t - 1] + 0.5 * lagged + shock
                y[t] = y[t - 1] + dy[t]
            chosen.append(adf_test(y).chosen_lag)
        counts = np.bincount(chosen)
        assert np.argmax(counts) == true_lag


class TestClassifyIntegrationOrder:
    def test_random_walk_is_i1(self):
        rng = np.random.default_rng(0)
        y = np.cumsum(rng.standard_normal(500))
        assert classify_integration_order(y) is IntegrationOrder.I1

    def test_white_noise_is_i0(self):
        rng = np.random.default_rng(0)
        assert classify_integration_order(rng.standard_normal(500)) is IntegrationOrder.I0

    def test_twice_cumulated_is_i2plus(self):
        rng = np.random.default_rng(0)
        y = np.cumsum(np.cumsum(rng.standard_normal(500)))
        assert classify_integration_order(y) is IntegrationOrder.I2PLUS

    def test_levels_that_reject_make_one_adf_test(self, monkeypatch):
        tested = []

        def counted(series, max_lag=None):
            tested.append(len(series))
            return adf_test(series, max_lag=max_lag)

        monkeypatch.setattr(unit_root, "adf_test", counted)
        rng = np.random.default_rng(0)
        assert classify_integration_order(rng.standard_normal(500)) is IntegrationOrder.I0
        assert tested == [500]
        y = np.cumsum(rng.standard_normal(500))
        assert classify_integration_order(y) is IntegrationOrder.I1
        assert tested == [500, 500, 499]

    def test_levels_that_reject_need_no_testable_differences(self):
        # 10 points are the fewest a test at max_lag 0 takes, so their 9
        # differences have no test of their own
        rng = np.random.default_rng(0)
        y = (-1.0) ** np.arange(10) + 0.1 * rng.standard_normal(10)
        with pytest.raises(DegenerateInputError, match="too short"):
            adf_test(np.diff(y), max_lag=0)
        assert classify_integration_order(y, max_lag=0) is IntegrationOrder.I0


class TestNullSimulation:
    def test_quantiles_near_table(self):
        stats = simulate_adf_null_statistics(20000, sample_size=500, seed=11)
        q95 = np.quantile(stats, 0.05)
        assert q95 == pytest.approx(adf_critical_value(499), abs=0.05)

    def test_deterministic_given_seed(self):
        a = simulate_adf_null_statistics(100, sample_size=100, seed=3)
        b = simulate_adf_null_statistics(100, sample_size=100, seed=3)
        assert np.array_equal(a, b)
