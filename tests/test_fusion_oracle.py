"""The weighted vote against the one-hot/argmax fusion it replaced.

`reference_combine` keeps the earlier construction: each source's signal
is one-hot encoded over (Long, Short, Flat), weighted scores are summed
source by source, the argmax class wins and any tie at the top resolves to
Flat. The vote must give the same positions for any weights, exact float
ties included, and every optimizer probe must carry the APR of a fresh
backtest of the reference positions.
"""

import dataclasses
import gc
import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RECIPE_CONFIG
from mrpairs.backtest import PositionSeries, compute_pnl, generate_mr_positions
from mrpairs.fusion import (
    OptimizerConfig,
    WeightVector,
    combine_signals,
    optimize_weights,
    signal_to_position,
)
from mrpairs.macro_signals import SignalSeries
from mrpairs.market_data import generate_synthetic_panel
from mrpairs.spread_dynamics import compute_spread

_ROW_OF = {1: 0, -1: 1, 0: 2}  # Long, Short, Flat rows of the one-hot scores
_POSITION_OF_ROW = np.array([1, -1, 0])


def class_rows(series_list):
    """(source, date) one-hot row index of each signal."""
    return np.array([[_ROW_OF[int(v)] for v in s.signals] for s in series_list])


def reference_combine(rows, weights):
    """Target positions of the weighted one-hot argmax; ties resolve to Flat."""
    w = np.asarray(weights, dtype=float)
    n_sources, n_dates = rows.shape
    dates = np.arange(n_dates)
    scores = np.zeros((3, n_dates))
    for k in range(n_sources):
        scores[rows[k], dates] += w[k]
    best = np.argmax(scores, axis=0)
    tied = (scores == scores[best, dates]).sum(axis=0) > 1
    best[tied] = _ROW_OF[0]
    return _POSITION_OF_ROW[best]


# Values whose sums tie or miss a tie by one ulp (0.1 + 0.2 != 0.3).
_TIE_PRONE = [0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.6, 0.7, 0.75, 1.0]


@st.composite
def sources_and_weights(draw):
    n_sources = draw(st.integers(2, 5))
    n_dates = draw(st.integers(1, 40))
    signals = draw(
        st.lists(
            st.lists(st.sampled_from([1, -1, 0]), min_size=n_dates, max_size=n_dates),
            min_size=n_sources,
            max_size=n_sources,
        )
    )
    weight = draw(
        st.sampled_from(
            [st.floats(0.0, 1.0), st.sampled_from(_TIE_PRONE),
             st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])]
        )
    )
    weights = draw(st.lists(weight, min_size=n_sources, max_size=n_sources))
    dates = tuple(range(n_dates))
    return [SignalSeries(dates, row) for row in signals], tuple(weights)


@settings(max_examples=400, deadline=None)
@given(sources_and_weights())
def test_vote_equals_one_hot_argmax(case):
    sources, weights = case
    fused = combine_signals(sources, WeightVector(weights))
    expected = reference_combine(class_rows(sources), weights)
    assert signal_to_position(fused).positions.tolist() == expected.tolist()


def test_exact_ties_resolve_flat():
    dates = tuple(range(5))
    sources = [
        SignalSeries(dates, (1, 1, 1, 1, -1)),
        SignalSeries(dates, (-1, 0, 1, -1, 0)),
        SignalSeries(dates, (0, -1, -1, 1, 1)),
    ]
    # Long/Short, Long/Flat and Short/Flat ties on days 0, 1 and 4.
    fused = combine_signals(sources, WeightVector((0.5, 0.5, 0.25)))
    assert fused.signals.tolist() == [0, 0, 1, 1, 0]
    # Day 2: Long 0.1 + 0.2 beats Short 0.3 by one ulp, as it did before.
    weights = (0.1, 0.2, 0.3)
    fused = combine_signals(sources, WeightVector(weights))
    assert fused.signals[2] == 1
    expected = reference_combine(class_rows(sources), weights)
    assert fused.signals.tolist() == expected.tolist()


def test_scores_add_in_source_order():
    # (0.1 + 0.2) + 0.3 > 0.6, but 0.3 + 0.2 + 0.1 == 0.6 would tie to Flat.
    dates = (0,)
    sources = [SignalSeries(dates, (s,)) for s in (1, 1, 1, -1)]
    weights = (0.1, 0.2, 0.3, 0.6)
    fused = combine_signals(sources, WeightVector(weights))
    assert fused.signals.tolist() == [1]
    assert reference_combine(class_rows(sources), weights).tolist() == [1]


def _fixture(n_days):
    """MR positions, a perfect-foresight source and two noise sources."""
    panel = generate_synthetic_panel(1, dataclasses.replace(RECIPE_CONFIG, n_days=n_days))
    hedge = np.array([1.0, -0.5])
    spread = compute_spread(panel, hedge)
    mr = generate_mr_positions(spread.zscores, 1.0, 0.0, panel.dates)
    future = np.append(np.diff(spread.values), 0.0)
    rng = np.random.default_rng(7)
    sources = [
        SignalSeries(panel.dates, np.where(future > 0, 1, -1)),
        SignalSeries(panel.dates, rng.integers(-1, 2, panel.n_dates)),
        SignalSeries(panel.dates, rng.integers(-1, 2, panel.n_dates)),
        SignalSeries(panel.dates, mr.positions),
    ]
    return panel, hedge, sources


def test_every_probe_apr_is_a_fresh_backtest_of_the_reference():
    panel, hedge, sources = _fixture(1500)
    result = optimize_weights(sources, panel, hedge)
    rows = class_rows(sources)
    trace = result.trace
    assert len(trace) > 625  # the 5**4 grid, the baseline and the simplex
    for probe in trace:
        positions = PositionSeries(panel.dates, reference_combine(rows, probe.weights))
        assert compute_pnl(panel, hedge, positions).apr == probe.apr
    best = max(p.apr for p in trace)
    assert result.apr == best


def test_result_keeps_at_most_64_bytes_per_probe():
    panel, hedge, sources = _fixture(2500)
    optimize_weights(sources, panel, hedge, OptimizerConfig(grid_step=1.0))  # warm
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = optimize_weights(sources, panel, hedge)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_probes = len(result.probe_apr)
    assert n_probes > 625
    assert kept / n_probes <= 64, f"{kept / n_probes:.0f} B per probe"
