import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import max_drawdown_bruteforce
from mrpairs.backtest import (
    CostModel,
    FrictionlessScorer,
    PositionSeries,
    compute_metrics,
    compute_pnl,
    generate_mr_positions,
)
from mrpairs.errors import DegenerateInputError, ValidationError
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


def _outcome(call):
    """The call's result, or the type and text of what it raised."""
    try:
        return call()
    except (ValidationError, DegenerateInputError) as exc:
        return type(exc), str(exc)


def _same_apr(a, b):
    """Byte-equal floats, any NaN matching any NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def _score(panel, hedge, positions):
    """The scorer's APR and active flag for `positions`, built for them alone."""
    return FrictionlessScorer(panel, hedge, len(positions)).score(positions)


@st.composite
def scorer_cases(draw):
    """Random-walk closes (calm, or with jumps that wipe out a position),
    near 1 or near 1e300, a hedge with negative, zero or huge parts and
    random positions, now and then of the wrong length or width."""
    n_instruments = draw(st.integers(1, 4))
    n_dates = draw(st.integers(2, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    volatility = draw(st.sampled_from([0.0, 0.02, 1.5]))
    scale = draw(st.sampled_from([1.0, 2e297]))  # the CLI tests' closes near 1e300
    steps = volatility * rng.standard_normal((n_instruments, n_dates))
    prices = 100.0 * np.exp(np.clip(np.cumsum(steps, axis=1), -15.0, 15.0)) * scale
    part = st.one_of(
        st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, -1.0, 1e10, -1e10])
    )
    width = draw(st.sampled_from([n_instruments] * 8 + [n_instruments + 1]))
    hedge = np.array(draw(st.lists(part, min_size=width, max_size=width)))
    n_positions = draw(st.sampled_from([n_dates] * 8 + [n_dates - 1, n_dates + 1]))
    alphabet = draw(st.sampled_from([[1, -1, 0], [0], [1], [-1], [1, 0]]))
    positions = rng.choice(np.array(alphabet, dtype=np.int8), n_positions)
    return _panel(prices), hedge, positions


@settings(max_examples=400, deadline=None)
@given(scorer_cases())
def test_the_scorer_is_compute_pnl_bit_for_bit(case):
    panel, hedge, positions = case
    series = PositionSeries(dates=tuple(range(len(positions))), positions=positions)
    with np.errstate(all="ignore"):  # spreads past the float limit are part of the oracle
        expected = _outcome(lambda: compute_pnl(panel, hedge, series))
        scored = _outcome(lambda: _score(panel, hedge, positions))
    if isinstance(expected, tuple):
        assert scored == expected
    else:
        apr, active = scored
        assert _same_apr(apr, expected.apr)
        assert active == bool(np.any(expected.daily_returns != 0.0))


def test_the_scorer_raises_as_compute_pnl_does():
    panel = _panel([[100.0, 300.0, 100.0]])
    short = np.array([-1, -1, -1], dtype=np.int8)  # the day-1 return is -2
    flat = np.array([0, 0, 0], dtype=np.int8)
    cases = [
        (panel, np.array([1.0, 1.0]), short, "hedge ratio length does not match panel width"),
        (panel, np.array([1.0]), short[:2], "positions length does not match panel dates"),
        (panel, np.array([0.0]), short, "zero gross market value"),
        (_panel([[100.0]]), np.array([1.0]), short[:1], "need at least 2 returns for metrics"),
        (panel, np.array([1.0]), short, "a daily return wiped out the equity"),
    ]
    for case_panel, hedge, positions, message in cases:
        series = PositionSeries(dates=tuple(range(len(positions))), positions=positions)
        with pytest.raises((ValidationError, DegenerateInputError), match=message) as raised:
            compute_pnl(case_panel, hedge, series)
        with pytest.raises(raised.type, match=message):
            _score(case_panel, hedge, positions)
    # a scorer built on a panel serves every positions series, wiped out or not
    scorer = FrictionlessScorer(panel, np.array([1.0]), 3)
    assert scorer.score(flat) == (0.0, False)
    with pytest.raises(DegenerateInputError, match="wiped out"):
        scorer.score(short)
