"""The weighted vote against the one-hot/argmax fusion it replaced.

`reference_combine` keeps the earlier construction: each source's signal
is one-hot encoded over (Long, Short, Flat), weighted scores are summed
source by source, the argmax class wins and any tie at the top resolves to
Flat. The vote must give the same positions for any weights, exact float
ties included, and every optimizer probe must carry the APR of a fresh
backtest of the reference positions. `optimize_weights_every_probe` keeps
the search as it was before it backtested each distinct fused rule once:
the memoized search must record the same probes, APRs and winner, bit
for bit. Both call `compute_pnl`, which the search itself never calls: they
are the oracle of its per-search day-factor scorer. The search and
`combine_signals` vote over the distinct daily vote patterns, the grid a
block of probes at a time: `_fuse` over a block, and over the patterns,
must give the bytes of one probe over every date (`date_vote_masks`), for
any number of sources.
"""

import dataclasses
import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import RECIPE_CONFIG, date_vote_masks
from mrpairs import backtest, fusion
from mrpairs.backtest import PositionSeries, compute_pnl, generate_mr_positions
from mrpairs.errors import OptimizationDegenerateError
from mrpairs.fusion import (
    OptimizerConfig,
    WeightVector,
    combine_signals,
    optimize_weights,
    signal_to_position,
)
from mrpairs.macro_signals import SignalSeries
from mrpairs.market_data import PricePanel, generate_synthetic_panel
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


@settings(max_examples=100, deadline=None)
@given(sources_and_weights(), st.data())
def test_a_block_of_probes_fuses_as_one_probe_at_a_time(case, data):
    sources, weights = case
    weight = st.sampled_from([st.floats(0.0, 1.0), st.sampled_from(_TIE_PRONE)])
    more = data.draw(st.lists(
        st.lists(data.draw(weight), min_size=len(weights), max_size=len(weights)),
        max_size=12,
    ))
    w = np.array([weights, *more]).T  # (source, probe)
    for masks in (date_vote_masks(sources), fusion._vote_patterns(sources)[0]):
        one_at_a_time = np.stack([fusion._fuse(masks, w[:, g]) for g in range(w.shape[1])])
        block = fusion._fuse(masks, w)
        assert block.dtype == np.int8
        assert block.tobytes() == one_at_a_time.tobytes()


@settings(max_examples=100, deadline=None)
@given(sources_and_weights())
def test_the_vote_of_each_pattern_is_the_vote_of_its_dates(case):
    sources, weights = case
    masks = date_vote_masks(sources)
    patterns, day_pattern = fusion._vote_patterns(sources)
    assert masks.tobytes() == patterns[:, :, day_pattern].tobytes()
    columns = {patterns[:, :, p].tobytes() for p in range(patterns.shape[2])}
    assert len(columns) == patterns.shape[2]  # each pattern once
    w = np.asarray(weights)
    assert fusion._fuse(patterns, w)[day_pattern].tobytes() == fusion._fuse(masks, w).tobytes()


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


def _votes_coded_2_to_the_64():
    """41 votes whose base-3 code, sum_k (s_k + 1) * 3**k, is 2**64.

    In int64 arithmetic, which wraps modulo 2**64, that code equals 0, the
    code of 41 Short votes.
    """
    votes, n = [], 2 ** 64
    while n:
        n, digit = divmod(n, 3)
        votes.append(digit - 1)
    return votes


@pytest.mark.parametrize("n_sources", [20, 41])
def test_many_sources_vote_as_the_one_hot_argmax(n_sources):
    # 20 is one past the 19 sources the search's grid allows; at 41 a base-3
    # int64 code of a date's votes overflows (3**40 > 2**63).
    rng = np.random.default_rng(n_sources)
    votes = rng.integers(-1, 2, (n_sources, 300))
    if n_sources == 41:
        votes[:, 0] = -1
        votes[:, 1] = _votes_coded_2_to_the_64()
    dates = tuple(range(votes.shape[1]))
    sources = [SignalSeries(dates, row) for row in votes]
    rows = class_rows(sources)
    # equal weights tie whenever the top two classes have as many votes
    equal = [0.5] * n_sources
    for weights in (equal, rng.choice(_TIE_PRONE, n_sources), rng.uniform(0.0, 1.0, n_sources)):
        fused = combine_signals(sources, WeightVector(tuple(weights))).signals
        assert fused.tolist() == reference_combine(rows, weights).tolist()
    if n_sources == 41:  # 41 Short votes, then 9 Short, 16 Flat and 16 Long
        assert combine_signals(sources, WeightVector(tuple(equal))).signals[:2].tolist() == [-1, 0]


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


def test_the_search_makes_no_backtest(monkeypatch):
    panel, hedge, sources = _fixture(300)

    def no_backtest(*args, **kwargs):
        raise AssertionError("the weight search called compute_pnl")

    for module in (backtest, fusion):
        monkeypatch.setattr(module, "compute_pnl", no_backtest)
    assert len(optimize_weights(sources, panel, hedge).probe_apr) > 625


def test_result_keeps_at_most_64_bytes_per_probe():
    panel, hedge, sources = _fixture(2500)
    optimize_weights(sources, panel, hedge)  # warm
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


def optimize_weights_every_probe(signal_series, panel, hedge_ratio, config, max_iter=200):
    """The weight search before its memo: a fresh backtest of every probe,
    and at most `max_iter` simplex iterations.

    Returns the winning weights, the APR, the baseline APR, every probe's
    clipped weights and every probe's APR.
    """
    masks = date_vote_masks(signal_series)
    dates = signal_series[0].dates
    n_sources = len(masks)
    probe_weights, probe_apr = [], []
    saw_active_probe = False

    def objective(raw):
        nonlocal saw_active_probe
        w = np.clip(np.asarray(raw, dtype=float), 0.0, 1.0)
        report = compute_pnl(panel, hedge_ratio, PositionSeries(dates, fusion._fuse(masks, w)))
        if np.any(report.daily_returns != 0.0):
            saw_active_probe = True
        probe_weights.append(w)
        probe_apr.append(report.apr)
        return report.apr

    ticks = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    axes = [ticks] * (n_sources - 1) + [ticks[ticks >= config.mr_weight_floor]]
    baseline = np.zeros(n_sources)
    baseline[-1] = 1.0
    baseline_apr = objective(baseline)
    best_w, best_apr = baseline, baseline_apr
    for point in itertools.product(*axes):
        apr = objective(point)
        if apr > best_apr:
            best_w, best_apr = point, apr
    x = fusion._nelder_mead(lambda w: -objective(w), np.array(best_w, dtype=float), max_iter)
    refined = np.clip(x, 0.0, 1.0)
    refined_apr = objective(refined)
    if refined_apr > best_apr:
        best_w, best_apr = refined, refined_apr
    if not saw_active_probe:
        raise OptimizationDegenerateError("every weight probe produced an all-zero return stream")
    return (
        WeightVector(tuple(float(w) for w in np.clip(best_w, 0.0, 1.0))),
        best_apr,
        baseline_apr,
        np.array(probe_weights),
        np.array(probe_apr),
    )


def _assert_same_search(sources, panel, hedge, config, max_iter=200):
    """The memoized search against the reference, both capped at `max_iter`
    simplex iterations; both results, or None."""
    try:
        expected = optimize_weights_every_probe(sources, panel, hedge, config, max_iter)
    except OptimizationDegenerateError as exc:
        with pytest.raises(OptimizationDegenerateError, match=str(exc)):
            optimize_weights(sources, panel, hedge, config)
        return None
    weights, apr, baseline_apr, probe_weights, probe_apr = expected
    result = optimize_weights(sources, panel, hedge, config)
    assert result.probe_weights.shape == probe_weights.shape
    assert result.probe_weights.tobytes() == probe_weights.tobytes()
    assert result.probe_apr.tobytes() == probe_apr.tobytes()
    assert result.weights == weights
    assert np.array([result.apr, result.baseline_apr]).tobytes() == (
        np.array([apr, baseline_apr]).tobytes()
    )
    return result, expected


_PAIR = generate_synthetic_panel(3, dataclasses.replace(RECIPE_CONFIG, n_days=60))
_PAIR_HEDGE = np.array([1.0, -0.5])


@st.composite
def search_cases(draw):
    """2-5 sources over a short pair: all-Flat, one-class, copied and noisy
    signals, so that many probes fuse to the same positions and weights tie;
    the real simplex cap or a small one that stops the simplex early."""
    n_sources = draw(st.integers(2, 5))
    n_days = draw(st.integers(5, len(_PAIR.dates)))
    panel = PricePanel(_PAIR.dates[:n_days], _PAIR.prices[:, :n_days], _PAIR.instrument_ids)
    rows = []
    for _ in range(n_sources):
        kind = draw(st.sampled_from(["flat", "one class", "copy", "noise"]))
        if kind == "flat":
            rows.append([0] * n_days)
        elif kind == "one class":
            rows.append([draw(st.sampled_from([1, -1]))] * n_days)
        elif kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            alphabet = draw(st.sampled_from([[1, -1, 0], [1, 0], [-1, 0], [1, -1]]))
            rows.append(draw(st.lists(
                st.sampled_from(alphabet), min_size=n_days, max_size=n_days
            )))
    config = OptimizerConfig(mr_weight_floor=draw(st.sampled_from([0.0, 0.5, 1.0])))
    max_iter = draw(st.one_of(st.just(fusion.SIMPLEX_MAX_ITER), st.integers(0, 40)))
    return [SignalSeries(panel.dates, row) for row in rows], panel, config, max_iter


@settings(max_examples=60, deadline=None)
@given(search_cases())
def test_memoized_search_equals_a_backtest_of_every_probe(case):
    sources, panel, config, max_iter = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusion, "SIMPLEX_MAX_ITER", max_iter)
        _assert_same_search(sources, panel, _PAIR_HEDGE, config, max_iter)


def test_all_flat_sources_still_raise_degenerate():
    dates = _PAIR.dates
    sources = [SignalSeries(dates, [0] * len(dates)) for _ in range(4)]
    assert _assert_same_search(sources, _PAIR, _PAIR_HEDGE, OptimizerConfig()) is None


def test_a_search_keeps_its_trace_and_only_the_simplex_rows():
    panel, hedge, sources = _fixture(120)
    result, expected = _assert_same_search(sources, panel, hedge, OptimizerConfig())
    _, _, _, probe_weights, probe_apr = expected

    def trace_bytes(rows):  # the layout of optimization_trace.csv
        return "".join(
            ",".join(map(repr, (i, *map(float, w), float(apr)))) + "\n" for i, w, apr in rows
        ).encode()

    assert trace_bytes((p.probe_index, p.weights, p.apr) for p in result.trace) == (
        trace_bytes(zip(itertools.count(), probe_weights, probe_apr))
    )
    grid = 5 ** 4
    assert [len(axis) for axis in result.grid_axes] == [5] * 4
    assert len(result.simplex_weights) == len(probe_apr) - 1 - grid > 0
    assert result.simplex_weights.tobytes() == probe_weights[1 + grid:].tobytes()


def test_a_78_125_point_grid_is_voted_in_blocks():
    # Seven noisy copies of one random vote over 800 days: 5 ** 7 grid
    # points over some 120 vote patterns. Voted whole, the grid's float
    # class scores alone would be over 200 MB. Each distinct rule is scored
    # for real, so the peak counts the memo and the day-return table too.
    panel = generate_synthetic_panel(3, dataclasses.replace(RECIPE_CONFIG, n_days=800))
    rng = np.random.default_rng(5)
    vote = rng.integers(-1, 2, 800)
    sources = [
        SignalSeries(panel.dates, np.where(rng.random(800) < 0.1, rng.integers(-1, 2, 800), vote))
        for _ in range(7)
    ]
    n_patterns = fusion._vote_patterns(sources)[0].shape[2]
    assert 5 ** 7 * 3 * n_patterns * 8 > 200 * 2 ** 20
    gc.collect()
    tracemalloc.start()
    try:
        result = optimize_weights(sources, panel, _PAIR_HEDGE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(axis) for axis in result.grid_axes] == [5] * 7
    assert len(result.probe_apr) > 1 + 5 ** 7
    assert peak < 64 * 2 ** 20, f"{peak / 2 ** 20:.1f} MB"
