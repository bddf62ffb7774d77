import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_drawdown_bruteforce
from mrpairs.backtest import (
    CostModel,
    PositionSeries,
    compute_metrics,
    compute_pnl,
    generate_mr_positions,
)
from mrpairs.errors import ValidationError
from mrpairs.market_data import PricePanel, trading_days


def _panel(prices, ids=None):
    prices = np.atleast_2d(np.asarray(prices, float))
    if ids is None:
        ids = tuple(f"I{i}" for i in range(prices.shape[0]))
    return PricePanel(
        dates=trading_days(dt.date(2010, 1, 4), prices.shape[1]),
        prices=prices,
        instrument_ids=ids,
    )


def _positions(panel, values):
    return PositionSeries(dates=panel.dates, positions=np.array(values))


class TestStateMachine:
    def test_hand_trace(self):
        z = np.array([0, -1.2, -0.5, 0.3, 1.5, 0.2, -0.1])
        out = generate_mr_positions(z, entry=1.0, exit=0.0)
        assert out.positions.tolist() == [0, 1, 1, 0, -1, -1, 0]

    def test_no_trigger_stays_flat(self):
        z = np.array([0.5, -0.9, 0.99, -0.3, 0.0])
        assert generate_mr_positions(z, 1.0, 0.0).positions.tolist() == [0] * 5

    def test_same_day_exit_then_entry(self):
        out = generate_mr_positions(np.array([-2.0, 2.0]), 1.0, 0.0)
        assert out.positions.tolist() == [1, -1]

    def test_exit_must_be_below_entry(self):
        with pytest.raises(ValidationError):
            generate_mr_positions(np.zeros(3), entry=1.0, exit=1.0)

    def test_negation_symmetry(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = rng.standard_normal(100) * 1.5
            pos = generate_mr_positions(z, 1.0, 0.0).positions
            neg = generate_mr_positions(-z, 1.0, 0.0).positions
            assert np.array_equal(neg, -pos)


    @settings(max_examples=150, deadline=None)
    @given(
        z=st.lists(
            st.one_of(
                st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
                st.floats(-5.0, 5.0),
            ),
            max_size=60,
        ),
        entry=st.sampled_from([0.5, 1.0, 2.0]),
        exit=st.sampled_from([-0.5, 0.0, 0.25]),
    )
    def test_negation_symmetry_property(self, z, entry, exit):
        # thresholds hit exactly, and exits on either side of zero
        z = np.array(z, dtype=float)
        pos = generate_mr_positions(z, entry, exit).positions
        neg = generate_mr_positions(-z, entry, exit).positions
        assert np.array_equal(neg, -pos)


class TestComputePnl:
    def test_all_flat_is_all_zero(self):
        panel = _panel(np.linspace(100, 110, 20))
        report = compute_pnl(
            panel, np.array([1.0]), _positions(panel, [0] * 20),
            CostModel({"I0": 0.5}),
        )
        assert np.all(report.daily_returns == 0.0)
        assert report.total_transaction_cost == 0.0
        assert report.apr == 0.0
        assert report.max_drawdown == 0.0
        assert math.isnan(report.sharpe)

    def test_held_position_earns_spread_change(self):
        panel = _panel([100.0, 101.0])
        report = compute_pnl(panel, np.array([1.0]), _positions(panel, [1, 1]))
        # entry trade happens at t0 but costs are zero here
        assert report.daily_returns.tolist() == [0.0, 0.01]

    def test_entry_cost_charged_on_day_zero(self):
        panel = _panel([100.0, 101.0])
        report = compute_pnl(
            panel, np.array([1.0]), _positions(panel, [1, 1]),
            CostModel({"I0": 0.5}),
        )
        assert report.daily_returns[0] == pytest.approx(-0.5 / 100.0)
        assert report.daily_returns[1] == pytest.approx(1.0 / 100.0)
        assert report.total_transaction_cost == pytest.approx(0.5)

    def test_flip_charges_two_units(self):
        panel = _panel([100.0, 100.0, 100.0])
        report = compute_pnl(
            panel, np.array([1.0]), _positions(panel, [1, -1, -1]),
            CostModel({"I0": 0.5}),
        )
        assert report.total_transaction_cost == pytest.approx(0.5 + 1.0)

    def test_per_unit_cost_uses_abs_hedge(self):
        panel = _panel(np.full((2, 3), 100.0) * np.array([[1.0], [2.0]]))
        report = compute_pnl(
            panel, np.array([1.0, -0.5]), _positions(panel, [1, 1, 0]),
            CostModel({"I0": 0.2, "I1": 0.4}),
        )
        per_unit = 1.0 * 0.2 + 0.5 * 0.4
        assert report.total_transaction_cost == pytest.approx(2 * per_unit)

    def test_cost_monotonicity(self):
        rng = np.random.default_rng(4)
        panel = _panel(100 + np.cumsum(rng.standard_normal((2, 120)), axis=1))
        pos = _positions(panel, rng.integers(-1, 2, 120))
        h = np.array([1.0, -0.7])
        aprs = [
            compute_pnl(panel, h, pos, CostModel({"I0": c, "I1": c})).apr
            for c in (0.0, 0.01, 0.05, 0.2)
        ]
        assert all(b <= a + 1e-15 for a, b in zip(aprs, aprs[1:]))


class TestComputeMetrics:
    def test_constant_return_apr_closed_form(self):
        r = np.full(252, 0.0001)
        m = compute_metrics(r)
        assert m.apr == pytest.approx(1.0001**252 - 1.0, abs=1e-12)
        assert m.max_drawdown == 0.0
        assert math.isnan(m.sharpe)

    def test_known_equity_path_drawdown(self):
        # equity [1.0, 1.1, 0.99, 1.05, 1.2, 0.9] -> MaxDD = 0.9/1.2 - 1
        equity = np.array([1.0, 1.1, 0.99, 1.05, 1.2, 0.9])
        returns = np.diff(equity) / equity[:-1]
        m = compute_metrics(returns)
        assert m.max_drawdown == pytest.approx(0.9 / 1.2 - 1.0, abs=1e-12)

    def test_monotone_equity_no_drawdown(self):
        m = compute_metrics(np.array([0.01, 0.0, 0.02, 0.0, 0.005]))
        assert m.max_drawdown == 0.0

    def test_sharpe_formula(self):
        rng = np.random.default_rng(1)
        r = rng.standard_normal(300) * 0.01 + 0.0002
        m = compute_metrics(r)
        expected = math.sqrt(252) * r.mean() / np.std(r, ddof=1)
        assert m.sharpe == pytest.approx(expected, abs=1e-12)

    def test_drawdown_matches_bruteforce_fuzz(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            n = rng.integers(2, 60)
            r = rng.standard_normal(n) * 0.05
            assert compute_metrics(r).max_drawdown == max_drawdown_bruteforce(r)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(st.just(0.0), st.floats(-0.99, 10.0)), min_size=2, max_size=60
        )
    )
    def test_drawdown_matches_bruteforce_property(self, returns):
        r = np.array(returns)
        assert compute_metrics(r).max_drawdown == max_drawdown_bruteforce(r)
