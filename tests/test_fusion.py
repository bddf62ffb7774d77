import dataclasses
import re

import numpy as np
import pytest
from conftest import RECIPE_CONFIG
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrpairs.backtest import CostModel, compute_pnl, generate_mr_positions
from mrpairs.cointegration import fit_subset
from mrpairs.errors import (
    AlignmentError,
    OptimizationDegenerateError,
    ValidationError,
)
from mrpairs.fusion import (
    OptimizerConfig,
    WeightVector,
    combine_signals,
    optimize_weights,
    signal_to_position,
)
from mrpairs.macro_signals import Signal, SignalSeries
from mrpairs.market_data import generate_synthetic_panel
from mrpairs.spread_dynamics import compute_spread

L, S, F = Signal.LONG, Signal.SHORT, Signal.FLAT


def _series(dates, signals):
    return SignalSeries(dates=tuple(dates), signals=tuple(signals))


def _positions(series):
    return signal_to_position(series).positions.tolist()


class TestWeightVector:
    def test_bounds_enforced(self):
        with pytest.raises(ValidationError):
            WeightVector((0.5, 1.2, 0.0, 0.0))
        with pytest.raises(ValidationError):
            WeightVector((-0.1, 0.0, 0.0, 0.0))


class TestCombineSignals:
    dates = tuple(range(3))

    def _sources(self, *signal_rows):
        return [_series(self.dates, row) for row in signal_rows]

    def test_mean_reversion_only_weight_reproduces_it(self):
        sources = self._sources((L, S, F), (S, S, S), (F, L, L), (L, F, S))
        combined = combine_signals(sources, WeightVector((0, 0, 0, 1)))
        assert _positions(combined) == _positions(sources[-1])

    def test_majority_scores(self):
        sources = self._sources((L,) * 3, (L,) * 3, (S,) * 3, (F,) * 3)
        combined = combine_signals(sources, WeightVector((1, 1, 1, 1)))
        assert _positions(combined) == [1, 1, 1]

    def test_tie_resolves_flat(self):
        sources = self._sources((L,) * 3, (S,) * 3, (F,) * 3, (F,) * 3)
        combined = combine_signals(sources, WeightVector((1, 1, 0, 0)))
        assert _positions(combined) == [0, 0, 0]

    def test_argmax_scale_invariance(self):
        rng = np.random.default_rng(0)
        sigs = [tuple(rng.choice([L, S, F], size=40)) for _ in range(4)]
        sources = [_series(range(40), s) for s in sigs]
        w = (0.3, 0.7, 0.1, 0.9)
        base = combine_signals(sources, WeightVector(w))
        for c in (0.5, 1.0):
            scaled = combine_signals(
                sources, WeightVector(tuple(c * x for x in w))
            )
            assert _positions(scaled) == _positions(base)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        sigs = [tuple(rng.choice([L, S, F], size=30)) for _ in range(4)]
        sources = [_series(range(30), s) for s in sigs]
        w = (0.2, 0.8, 0.5, 1.0)
        base = combine_signals(sources, WeightVector(w))
        perm = [2, 0, 3, 1]
        permuted = combine_signals(
            [sources[i] for i in perm],
            WeightVector(tuple(w[i] for i in perm)),
        )
        assert _positions(permuted) == _positions(base)

    @settings(max_examples=100, deadline=None)
    @given(
        signals=st.lists(
            st.lists(st.sampled_from([L, S, F]), min_size=5, max_size=5),
            min_size=2,
            max_size=5,
        ),
        others=st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4),
        mr_weight=st.floats(0.0, 1.0),
    )
    def test_dominant_mean_reversion_weight_reproduces_it(
        self, signals, others, mr_weight
    ):
        others = others[: len(signals) - 1]
        assume(mr_weight > sum(others))
        sources = [_series(range(5), row) for row in signals]
        combined = combine_signals(sources, WeightVector((*others, mr_weight)))
        assert _positions(combined) == _positions(sources[-1])

    def test_calendar_mismatch(self):
        a = _series(range(3), (L, S, F))
        b = _series(range(1, 4), (L, S, F))
        with pytest.raises(AlignmentError, match="signal sources do not share a calendar"):
            combine_signals([a, b], WeightVector((1, 1)))

    def test_one_source_or_a_weight_too_many(self):
        a = _series(range(3), (L, S, F))
        with pytest.raises(ValidationError, match="need at least 2 signal sources to fuse"):
            combine_signals([a], WeightVector((1,)))
        with pytest.raises(ValidationError, match="one weight per signal source required"):
            combine_signals([a, a], WeightVector((1, 1, 1)))


class TestSignalToPosition:
    def test_mapping(self):
        out = signal_to_position(_series(range(3), (L, F, S)))
        assert out.positions.tolist() == [1, 0, -1]

    def test_all_flat(self):
        out = signal_to_position(_series(range(4), (F, F, F, F)))
        assert out.positions.tolist() == [0, 0, 0, 0]


def _optimizer_fixture(recipe_panel):
    """MR source plus one perfect-foresight oracle and two noise sources."""
    hedge = np.array([1.0, -0.5])
    spread = compute_spread(recipe_panel, hedge)
    mr_positions = generate_mr_positions(
        spread.zscores, 1.0, 0.0, dates=recipe_panel.dates
    )
    pos_sig = {1: L, -1: S, 0: F}
    mr = _series(recipe_panel.dates, [pos_sig[p] for p in mr_positions.positions])
    future_change = np.append(np.diff(spread.values), 0.0)
    oracle = _series(
        recipe_panel.dates, [L if c > 0 else S for c in future_change]
    )
    rng = np.random.default_rng(99)
    noise = [
        _series(recipe_panel.dates, rng.choice([L, S, F], size=recipe_panel.n_dates))
        for _ in range(2)
    ]
    return [oracle, noise[0], noise[1], mr], hedge


class TestOptimizeWeights:
    def test_dominates_baseline_and_grid(self, recipe_panel):
        sources, hedge = _optimizer_fixture(recipe_panel)
        result = optimize_weights(sources, recipe_panel, hedge)
        assert result.apr >= result.baseline_apr
        grid_aprs = [p.apr for p in result.trace]
        assert result.apr >= max(grid_aprs) - 1e-15
        # the oracle source makes a real difference
        assert result.apr > result.baseline_apr + 0.001

    def test_trace_is_deterministic(self, recipe_panel):
        sources, hedge = _optimizer_fixture(recipe_panel)
        cfg = OptimizerConfig(grid_step=0.5, simplex_max_iter=40)
        a = optimize_weights(sources, recipe_panel, hedge, cfg)
        b = optimize_weights(sources, recipe_panel, hedge, cfg)
        assert a.trace == b.trace
        assert a.weights == b.weights

    def test_baseline_equals_pure_mean_reversion_report(self, recipe_panel):
        sources, hedge = _optimizer_fixture(recipe_panel)
        combined = combine_signals(sources, WeightVector((0, 0, 0, 1)))
        fused = compute_pnl(
            recipe_panel, hedge, signal_to_position(combined), CostModel()
        )
        spread = compute_spread(recipe_panel, hedge)
        pure = compute_pnl(
            recipe_panel, hedge,
            generate_mr_positions(spread.zscores, 1.0, 0.0, recipe_panel.dates),
            CostModel(),
        )
        assert np.array_equal(fused.daily_returns, pure.daily_returns)
        assert fused.apr == pure.apr

    def test_all_flat_sources_degenerate(self, recipe_panel):
        flat = _series(recipe_panel.dates, (F,) * recipe_panel.n_dates)
        with pytest.raises(OptimizationDegenerateError):
            optimize_weights(
                [flat, flat, flat, flat],
                recipe_panel,
                np.array([1.0, -0.5]),
                OptimizerConfig(grid_step=0.5, simplex_max_iter=10),
            )

    def test_step_that_overshoots_one_returns_the_clipped_winner(self):
        # 0.6 gives the ticks 0, 0.6 and 1.2; the probes score 1.2 as 1.0.
        panel = generate_synthetic_panel(
            1, dataclasses.replace(RECIPE_CONFIG, n_days=500)
        )
        _, portfolio = fit_subset(panel, 10)
        rng = np.random.default_rng(13)
        sources = [
            SignalSeries(panel.dates, np.repeat(rng.integers(-1, 2, 25), 21)[:500])
            for _ in range(3)
        ]
        mr = generate_mr_positions(portfolio.spread.zscores, 1.0, 0.0)
        sources.append(SignalSeries(panel.dates, mr.positions))
        result = optimize_weights(
            sources, panel, portfolio.hedge_ratio,
            OptimizerConfig(grid_step=0.6, simplex_max_iter=5),
        )
        assert 1.0 in result.weights.weights
        scored = [
            p.apr for p in result.trace if p.weights == result.weights.weights
        ]
        assert scored and all(apr == result.apr for apr in scored)

    @pytest.mark.parametrize("step", [5e-324, 1e-310])
    def test_step_whose_tick_count_overflows_is_a_grid_size_error(
        self, recipe_panel, step
    ):
        sources, hedge = _optimizer_fixture(recipe_panel)
        with pytest.raises(
            ValidationError, match=f"grid_step {step!r} gives a grid of inf points"
        ):
            optimize_weights(sources, recipe_panel, hedge, OptimizerConfig(step))

    @pytest.mark.parametrize(
        "step, floor, largest", [(0.3, 1.0, 0.9), (0.4, 0.9, 0.8), (0.7, 0.9, 0.7)]
    )
    def test_a_floor_above_every_tick_is_rejected(self, step, floor, largest):
        # The mean-reversion axis would have no tick, and the grid no point.
        message = (
            f"grid_step {step} has no tick at or above mr_weight_floor {floor} "
            f"(largest {largest})"
        )
        with pytest.raises(ValidationError, match=re.escape(message)):
            OptimizerConfig(grid_step=step, mr_weight_floor=floor)

    @pytest.mark.parametrize("step, floor", [(0.3, 0.9), (0.25, 1.0), (0.6, 1.0), (1.0, 1.0)])
    def test_the_search_grids_the_configs_ticks(self, recipe_panel, step, floor):
        sources, hedge = _optimizer_fixture(recipe_panel)
        config = OptimizerConfig(grid_step=step, mr_weight_floor=floor, simplex_max_iter=2)
        ticks, mr_ticks = config.ticks()
        assert len(mr_ticks) and mr_ticks.min() >= floor
        result = optimize_weights(sources, recipe_panel, hedge, config)
        assert [axis.tolist() for axis in result.grid_axes] == (
            [ticks.tolist()] * 3 + [mr_ticks.tolist()]
        )
