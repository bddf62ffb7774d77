import datetime as dt
import math
import warnings

import numpy as np
import pytest

from mrpairs._ols import failure_error
from mrpairs.errors import DegenerateInputError, ValidationError
from mrpairs.market_data import PricePanel, simulate_ou, trading_days
from conftest import estimate_half_life, half_life_one_by_one, standardize_one_by_one
from mrpairs.spread_dynamics import (
    compute_spread,
    half_life_rows,
    zscore_rows,
)


def _panel(prices):
    prices = np.asarray(prices, float)
    return PricePanel(
        dates=trading_days(dt.date(2010, 1, 4), prices.shape[1]),
        prices=prices,
        instrument_ids=tuple(f"I{i}" for i in range(prices.shape[0])),
    )


class TestComputeSpread:
    def test_exact_cancellation_degenerate(self):
        p = _panel([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])
        with pytest.raises(DegenerateInputError):
            compute_spread(p, np.array([1.0, -1.0]))

    def test_single_date_degenerate(self):
        p = _panel([[2.0], [3.0]])
        with pytest.raises(DegenerateInputError):
            compute_spread(p, np.array([1.0, -0.5]))

    def test_values_are_hedge_dot_prices(self):
        rng = np.random.default_rng(0)
        p = _panel(rng.uniform(1, 2, size=(3, 40)))
        h = np.array([1.0, -0.4, 0.2])
        spread = compute_spread(p, h)
        assert np.array_equal(spread.values, h @ p.prices)
        mean, std = spread.values.mean(), np.std(spread.values, ddof=1)
        assert np.allclose(spread.zscores, (spread.values - mean) / std)

    def test_recipe_spread_is_scaled_ou(self, recipe_panel):
        spread = compute_spread(recipe_panel, np.array([1.0, -0.5]))
        ou = recipe_panel.prices[1] - 2.0 * recipe_panel.prices[0]
        assert np.allclose(spread.values, -0.5 * ou, atol=1e-9)

    def test_hedge_length_mismatch(self, recipe_panel):
        with pytest.raises(ValidationError):
            compute_spread(recipe_panel, np.array([1.0, -0.5, 0.1]))


class TestEstimateHalfLife:
    def test_simulated_ou_half_life_ten(self):
        rng = np.random.default_rng(42)
        x = simulate_ou(rng, 10000, half_life_days=10.0, noise_scale=1.0)
        assert 8.5 <= estimate_half_life(x) <= 11.5

    def test_deterministic_alternating_decay(self):
        # s_t = (-0.5)^t satisfies ds_t = -1.5 * s_{t-1} exactly
        s = (-0.5) ** np.arange(40, dtype=float)
        assert estimate_half_life(s) == pytest.approx(math.log(2) / 1.5, abs=1e-9)

    def test_random_walk_spread_not_mean_reverting(self):
        rng = np.random.default_rng(3)
        half_life = estimate_half_life(np.cumsum(rng.standard_normal(5000)))
        # no true reversion: either unbounded or far beyond the trading scale
        assert half_life > 250

    def test_positive_lambda_gives_unbounded_marker(self):
        s = 1.01 ** np.arange(60, dtype=float)
        assert estimate_half_life(s) == math.inf

    def test_too_short(self):
        with pytest.raises(DegenerateInputError):
            estimate_half_life(np.arange(10.0))

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateInputError):
            estimate_half_life(np.full(50, 2.0))

    def test_consistency_sweep(self):
        for true_hl in (5.0, 20.0, 60.0):
            estimates = [
                estimate_half_life(simulate_ou(np.random.default_rng(s), 20000, true_hl, 1.0))
                for s in range(20)
            ]
            assert abs(np.median(estimates) - true_hl) <= 0.10 * true_hl


def _zscores(values):
    """The z-scores of `values` as a stack of one, which passes its checks."""
    (zscores,), (failure,) = zscore_rows(np.asarray(values, dtype=float)[None])
    assert failure == ""
    return zscores


class TestStandardize:
    def test_three_point_symmetric(self):
        assert _zscores(np.array([1.0, 2.0, 3.0])).tolist() == [-1.0, 0.0, 1.0]

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        z = _zscores(rng.standard_normal(200))
        assert np.allclose(_zscores(z), z, atol=1e-9)

    def test_output_moments(self):
        rng = np.random.default_rng(8)
        z = _zscores(rng.uniform(5, 9, 500))
        assert abs(z.mean()) < 1e-9
        assert abs(np.std(z, ddof=1) - 1.0) < 1e-9

    def test_constant_degenerate(self):
        with pytest.raises(DegenerateInputError):
            compute_spread(_panel([np.full(10, 4.2)]), [1.0])

    def test_affine_equivariance(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal(100)
        z = _zscores(s)
        for a, b in ((2.5, 3.0), (-1.25, 100.0), (0.001, -7.0)):
            assert np.allclose(
                _zscores(a * s + b), np.sign(a) * z, atol=1e-9
            )


def _spreads(seed):
    """Rows that meet each branch of the two steps: walks, OU paths, a
    growing path, constant and almost constant rows, and non-finite ones."""
    rng = np.random.default_rng(seed)
    T = 80
    rows = [np.cumsum(rng.standard_normal(T)) for _ in range(3)]
    rows += [simulate_ou(rng, T, hl, 1.0) for hl in (2.0, 10.0)]
    rows += [1.01 ** np.arange(T, dtype=float), np.full(T, 2.0),
             np.r_[np.full(T - 1, 2.0), 3.0], 1e-300 * rng.standard_normal(T),
             np.r_[np.nan, np.ones(T - 1)], np.r_[np.ones(T - 1), np.inf]]
    return np.array(rows)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("length", [1, 20, 80])
def test_stacked_rows_equal_the_steps_one_row_at_a_time(seed, length):
    spreads = _spreads(seed)[:, :length]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        zscores, z_failures = zscore_rows(spreads)
        half_lives, hl_failures = half_life_rows(spreads)
    for row, z, z_failure, half_life, hl_failure in zip(
        spreads, zscores, z_failures, half_lives, hl_failures, strict=True
    ):
        with np.errstate(all="ignore"):  # the references warn on non-finite rows
            try:
                want = standardize_one_by_one(row)
            except DegenerateInputError as exc:
                assert z_failure == str(exc)
            else:
                assert z_failure == "" and z.tobytes() == want.tobytes()
            error = None
            try:
                want = half_life_one_by_one(row)
            except DegenerateInputError as exc:
                error = exc
        if error is None:
            assert hl_failure == "" and repr(float(half_life)) == repr(want)
        else:
            assert hl_failure == str(error)
            assert type(failure_error(hl_failure)) is type(error)
