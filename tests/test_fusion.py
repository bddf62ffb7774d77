import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mrpairs.backtest import CostModel, compute_pnl, generate_mr_positions
from mrpairs.errors import DegenerateInputError, ValidationError
from mrpairs.fusion import (
    OptimizerConfig,
    WeightVector,
    check_grid_size,
    combine_signals,
    optimize_weights,
    signal_to_position,
)
from mrpairs.macro_signals import Signal, SignalSeries
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
        with pytest.raises(ValidationError, match="^signal sources do not share a calendar$"):
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
        a = optimize_weights(sources, recipe_panel, hedge)
        b = optimize_weights(sources, recipe_panel, hedge)
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
        message = "^every weight probe produced an all-zero return stream$"
        with pytest.raises(DegenerateInputError, match=message):
            optimize_weights(
                [flat, flat, flat, flat],
                recipe_panel,
                np.array([1.0, -0.5]),
            )

    def test_the_floor_is_the_one_setting(self):
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["mr_weight_floor"]
        assert OptimizerConfig().grid_step == 0.25  # read to count the grid's probes

    @pytest.mark.parametrize("floor", [-0.25, 1.5, float("nan"), float("inf"), -float("inf")])
    def test_a_floor_outside_0_1_is_rejected(self, floor):
        with pytest.raises(ValidationError, match=re.escape(f"in [0, 1], got {floor!r}")):
            OptimizerConfig(mr_weight_floor=floor)

    def test_the_grid_takes_at_most_8_sources(self):
        check_grid_size(8)  # 5 ** 8 = 390 625 points
        message = "9 signal sources give a grid of more than 1000000 points (5 ticks per weight)"
        with pytest.raises(ValidationError, match=re.escape(message)):
            check_grid_size(9)

    @pytest.mark.parametrize("floor, mr_ticks", [
        (0.0, [0.0, 0.25, 0.5, 0.75, 1.0]), (0.25, [0.25, 0.5, 0.75, 1.0]),
        (0.3, [0.5, 0.75, 1.0]), (0.75, [0.75, 1.0]), (0.9, [1.0]), (1.0, [1.0]),
    ])
    def test_the_search_grids_the_ticks_at_or_above_the_floor(
        self, recipe_panel, floor, mr_ticks
    ):
        sources, hedge = _optimizer_fixture(recipe_panel)
        config = OptimizerConfig(mr_weight_floor=floor)
        result = optimize_weights(sources, recipe_panel, hedge, config)
        assert [axis.tolist() for axis in result.grid_axes] == (
            [[0.0, 0.25, 0.5, 0.75, 1.0]] * 3 + [mr_ticks]
        )
