"""Weighted-vote signal fusion and APR-maximizing weight search.

Each source's daily signal is a target position in {+1, -1, 0} (Long,
Short, Flat). Under a weight vector bounded to [0, 1] per component, every
date's Long, Short and Flat scores are the summed weights of the sources
voting for each; the fused signal is the class with the strictly highest
score, and any tie resolves to Flat (risk-off). The fused signal is a
*target position*: Flat means hold nothing, so weights (0, 0, 0, 1)
reproduce the pure mean-reversion strategy exactly.

The APR objective is piecewise constant in the weights (it only moves when
a vote flips), so a gradient-based program is ill-posed; the search is
derivative-free instead: an exhaustive coarse grid (GRID_TICKS on every
axis, so at most 8 sources), then at most SIMPLEX_MAX_ITER Nelder-Mead
iterations from the best grid point, clipped to the box. Both are fixed;
the one setting, `OptimizerConfig.mr_weight_floor`, trims the last (MR)
axis. The simplex is this module's numpy
`_nelder_mead`, a port that probes the same points as the reference
implementation (tests/test_simplex_oracle.py). A date's fused class
depends only on its vote pattern, the (Long, Short, Flat) vote of every
source, so `combine_signals` and every probe vote once per distinct
pattern (`_vote_patterns`), not once per date, and the grid votes in blocks
of probes at a time. Probes that fuse to the same rule, a class per
pattern, share one score from a per-search day-factor table
(`backtest.FrictionlessScorer`), bit-equal to `compute_pnl`'s APR.
Transaction costs are
excluded from the objective; `fuse_forecasts`, the fused half of a subset
run after `backtest.trade_subset`, adds them back in the backtest of the
winning weights it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import macro_signals as ms
from .backtest import (
    BacktestReport, CostModel, FrictionlessScorer, PositionSeries, compute_pnl,
)
from .errors import DegenerateInputError, ValidationError, about
from .macro_signals import SignalSeries
from .market_data import PricePanel

# The grid's ticks on every weight's axis; the floor trims the last (MR) one.
GRID_TICKS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
GRID_TICKS.setflags(write=False)  # shared by every result's grid_axes
# Largest coarse grid the search enumerates, counted over the full box
# before the mean-reversion floor trims the last axis: at most 8 sources.
MAX_GRID_POINTS = 1_000_000
# The simplex's iteration cap; its initial simplex counts as iteration 1.
SIMPLEX_MAX_ITER = 200
# Class scores the grid search votes at once: 256 KiB of float64 per block.
_BLOCK_SCORES = 1 << 15


@dataclass(frozen=True)
class WeightVector:
    """Per-source fusion weights, each bounded to [0, 1].

    Source order is (indicator_1, indicator_2, indicator_3, mean_reversion)
    in the standard four-source setup.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        if any(not 0.0 <= w <= 1.0 for w in self.weights):
            raise ValidationError("weights must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.weights)


def _vote_patterns(series_list: list[SignalSeries]) -> tuple[np.ndarray, np.ndarray]:
    """The distinct daily vote patterns and each date's pattern index.

    A date's pattern is its vote row, one signal per source. Returns the
    (source, class, pattern) 0/1 votes of each distinct row, classes in
    (Long, Short, Flat) order, and the (date,) index of each date's row.
    Rows are told apart by their bytes, so any number of sources works.
    """
    if len(series_list) < 2:
        raise ValidationError("need at least 2 signal sources to fuse")
    calendar = series_list[0].dates
    for s in series_list[1:]:
        if s.dates != calendar:
            raise ValidationError("signal sources do not share a calendar")
    votes = np.stack([s.signals for s in series_list], axis=1)  # (date, source) int8
    rows = votes.view(np.dtype((np.void, votes.shape[1])))[:, 0]
    _, first, day_pattern = np.unique(rows, return_index=True, return_inverse=True)
    # (source, pattern) in C order: `_fuse` is slower on a strided view
    patterns = np.ascontiguousarray(votes[first].T)
    masks = patterns[:, None, :] == np.array([1, -1, 0])[:, None]
    return masks.astype(float), day_pattern


def _fuse(masks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """int8 target positions of the weighted vote; ties resolve to Flat.

    `masks` is (source, class, column). Given one weight per source, `w`
    returns the (column,) positions; given (source, probe) weights, the
    (probe, column) positions of every probe. Each class score adds the
    weights in source order, so its float sums, and so its ties, match a
    one-hot score table summed source by source, for every probe alike.
    """
    scores = np.multiply.outer(w[0], masks[0])
    for k in range(1, len(masks)):
        scores += np.multiply.outer(w[k], masks[k])
    long_, short, flat = np.moveaxis(scores, -2, 0)
    is_long = (long_ > short) & (long_ > flat)
    is_short = (short > long_) & (short > flat)
    return is_long.astype(np.int8) - is_short.astype(np.int8)


def combine_signals(
    series_list: list[SignalSeries], weights: WeightVector
) -> SignalSeries:
    """Datewise weighted vote, once per distinct vote pattern; ties resolve to Flat."""
    masks, day_pattern = _vote_patterns(series_list)
    if len(weights) != len(series_list):
        raise ValidationError("one weight per signal source required")
    w = np.asarray(weights.weights, dtype=float)
    return SignalSeries(dates=series_list[0].dates, signals=_fuse(masks, w)[day_pattern])


def signal_to_position(combined: SignalSeries) -> PositionSeries:
    """Target positions: Long -> +1, Short -> -1, Flat -> 0."""
    return PositionSeries(dates=combined.dates, positions=combined.signals)


def check_grid_size(n_sources: int) -> None:
    """Reject a grid over `n_sources` weights of more than MAX_GRID_POINTS."""
    if len(GRID_TICKS) ** n_sources > MAX_GRID_POINTS:
        raise ValidationError(
            f"{n_sources} signal sources give a grid of more than {MAX_GRID_POINTS} "
            f"points ({len(GRID_TICKS)} ticks per weight)"
        )


@dataclass(frozen=True)
class OptimizerConfig:
    """Weight-search settings: the floor on the mean-reversion weight."""

    mr_weight_floor: float = 0.0  # minimum grid value on the last (MR) axis
    grid_step = float(GRID_TICKS[1] - GRID_TICKS[0])  # a class constant, not a field

    def __post_init__(self):
        if not 0.0 <= self.mr_weight_floor <= 1.0:
            raise ValidationError(
                f"mr_weight_floor must be in [0, 1], got {self.mr_weight_floor!r}"
            )


@dataclass(frozen=True)
class ProbeRecord:
    probe_index: int
    weights: tuple[float, ...]
    apr: float


@dataclass(frozen=True)
class OptimizationResult:
    weights: WeightVector
    apr: float
    baseline_apr: float  # weights (0, ..., 0, 1)
    grid_axes: tuple[np.ndarray, ...]  # the grid's ticks per source
    simplex_weights: np.ndarray  # (n_simplex, n_sources), clipped: the probes after the grid
    probe_apr: np.ndarray  # (n_probes,): the baseline, the grid, then the simplex

    @property
    def probe_weights(self) -> np.ndarray:
        """(n_probes, n_sources) weights in probe order, rebuilt on access."""
        baseline = np.zeros((1, len(self.grid_axes)))
        baseline[0, -1] = 1.0
        n_grid = math.prod(len(axis) for axis in self.grid_axes)
        grid = _grid_weights(self.grid_axes, np.arange(n_grid)).T
        return np.concatenate([baseline, grid, self.simplex_weights])

    @property
    def trace(self) -> tuple[ProbeRecord, ...]:
        """Every objective evaluation in order, built on access."""
        return tuple(
            ProbeRecord(i, tuple(w), float(apr))
            for i, (w, apr) in enumerate(zip(self.probe_weights, self.probe_apr))
        )


def _grid_weights(axes: tuple[np.ndarray, ...], index) -> np.ndarray:
    """(source, ...) weights of the grid points at `index`, in "ij" order."""
    shape = tuple(len(axis) for axis in axes)
    return np.stack([axis[i] for axis, i in zip(axes, np.unravel_index(index, shape))])


def optimize_weights(
    signal_series: list[SignalSeries],
    panel: PricePanel,
    hedge_ratio: np.ndarray,
    config: OptimizerConfig | None = None,
) -> OptimizationResult:
    """Maximize frictionless APR over the weight box [0, 1]^n.

    The coarse grid always contains the pure mean-reversion baseline
    (0, ..., 0, 1), so the returned APR dominates it by construction. The
    simplex stage refines from the best grid point; every objective
    evaluation is recorded in order, making reruns with the same inputs
    byte-identical. A probe votes over the distinct daily vote patterns,
    not over the dates; the grid is voted in blocks of probes, one
    `_fuse` call per block, and the simplex one probe per call.
    Each distinct fused rule (a class per pattern) is scored once, from a
    per-search day-factor table, to `compute_pnl`'s frictionless APR bit
    for bit, and a probe that repeats one records the same float. The
    result keeps the grid as its axes and only the simplex's weights as
    rows; `probe_weights` rebuilds the rest.
    """
    if config is None:
        config = OptimizerConfig()
    n_sources = len(signal_series)
    check_grid_size(n_sources)
    masks, day_pattern = _vote_patterns(signal_series)
    scorer = FrictionlessScorer(panel, hedge_ratio, len(day_pattern))
    rule_apr: dict[bytes, float] = {}  # fused class per pattern -> its APR
    simplex_apr: list[float] = []
    simplex_weights: list[np.ndarray] = []
    saw_active_probe = False

    def score(rule: np.ndarray) -> float:
        nonlocal saw_active_probe
        key = rule.tobytes()  # equal rules score the same APR
        apr = rule_apr.get(key)
        if apr is None:
            apr, active = scorer.score(rule[day_pattern])
            rule_apr[key] = apr
            saw_active_probe = saw_active_probe or active
        return apr

    def simplex_objective(raw) -> float:
        simplex_weights.append(np.clip(np.asarray(raw, dtype=float), 0.0, 1.0))
        simplex_apr.append(score(_fuse(masks, simplex_weights[-1])))
        return simplex_apr[-1]

    mr_ticks = GRID_TICKS[GRID_TICKS >= config.mr_weight_floor]
    axes = (GRID_TICKS,) * (n_sources - 1) + (mr_ticks,)
    baseline = np.zeros(n_sources)
    baseline[-1] = 1.0
    baseline_apr = score(_fuse(masks, baseline))

    # A block of grid points at a time, so that no (grid, class, pattern)
    # score array is ever whole.
    grid_apr = np.empty(math.prod(len(axis) for axis in axes))
    block = max(1, _BLOCK_SCORES // (3 * masks.shape[2]))
    for start in range(0, len(grid_apr), block):
        index = np.arange(start, min(start + block, len(grid_apr)))
        rules = _fuse(masks, _grid_weights(axes, index))
        grid_apr[index] = [score(rule) for rule in rules]

    # The first grid point of the highest APR, if it beats the baseline: the
    # winner of a strict `>` scan, which no NaN APR can take.
    best = int(np.argmax(np.where(np.isnan(grid_apr), -np.inf, grid_apr)))
    best_w, best_apr = baseline, baseline_apr
    if grid_apr[best] > best_apr:
        best_w, best_apr = _grid_weights(axes, best), float(grid_apr[best])

    x = _nelder_mead(
        lambda w: -simplex_objective(w), np.array(best_w, dtype=float), SIMPLEX_MAX_ITER
    )
    refined = np.clip(x, 0.0, 1.0)
    refined_apr = simplex_objective(refined)
    if refined_apr > best_apr:
        best_w, best_apr = refined, refined_apr
    if not saw_active_probe:
        raise DegenerateInputError("every weight probe produced an all-zero return stream")
    return OptimizationResult(
        weights=WeightVector(tuple(float(w) for w in best_w)),
        apr=best_apr,
        baseline_apr=baseline_apr,
        grid_axes=axes,
        simplex_weights=np.array(simplex_weights),
        probe_apr=np.concatenate([[baseline_apr], grid_apr, simplex_apr]),
    )


def fuse_forecasts(
    panel: PricePanel, hedge_ratio: np.ndarray, mr_positions: PositionSeries,
    forecasts: dict[str, dict[str, ms.Signal]], config: OptimizerConfig, costs: CostModel,
) -> tuple[OptimizationResult, BacktestReport]:
    """Fuse monthly forecasts with mean reversion over the dates they cover.

    The run spans the first to the last date of `panel` whose month every
    indicator's forecast covers; the full-sample mean-reversion positions
    are cut to it and vote last. The weights maximize the frictionless APR;
    the report is the backtest of the winning weights with `costs`.
    """
    keys, day_month = ms._month_index(panel.dates)
    month_covered = np.array(
        [all(key in signals for signals in forecasts.values()) for key in keys], dtype=bool
    )
    covered = np.flatnonzero(month_covered[day_month])
    if not len(covered):
        raise ValidationError("no trading date falls in a month every forecast covers")
    run = slice(covered[0], covered[-1] + 1)
    sub = PricePanel(panel.dates[run], panel.prices[:, run], panel.instrument_ids)
    sources = []
    for indicator, signals in forecasts.items():
        with about(f"indicator {indicator!r}"):
            sources.append(ms.expand_monthly_to_daily(signals, sub.dates))
    sources.append(SignalSeries(sub.dates, mr_positions.positions[run]))
    result = optimize_weights(sources, sub, hedge_ratio, config)
    fused = combine_signals(sources, result.weights)
    return result, compute_pnl(sub, hedge_ratio, signal_to_position(fused), costs)


def _nelder_mead(f, x0: np.ndarray, max_iter: int) -> np.ndarray:
    """Best vertex of a Nelder-Mead minimization of `f` from `x0`.

    A port of the reference implementation's unbounded, non-adaptive
    Nelder-Mead with xatol 1e-3 and fatol 1e-10, in its arithmetic and its
    order: the same initial simplex, step expressions and `np.argsort`
    after every step, so it probes the same points, bit for bit.
    Iterations count from 1, the initial simplex, so `max_iter` = N allows
    N - 1 steps. `f` is given views of the simplex and must not keep or
    change them.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([f(x) for x in sim], dtype=float)
    for _ in range(2):  # the reference sorts twice here; ties may move
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]

    iterations = 1
    while iterations < max_iter:
        if (np.max(np.abs(sim[1:] - sim[0])) <= 1e-3
                and np.max(np.abs(fsim[0] - fsim[1:])) <= 1e-10):
            break
        xbar = sim[:-1].sum(0) / n
        xr = (1 + rho) * xbar - rho * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                fxc = f(xc)
                keep = fxc <= fxr
            else:  # inside contraction
                xc = (1 - psi) * xbar + psi * sim[-1]
                fxc = f(xc)
                keep = fxc < fsim[-1]
            if keep:
                sim[-1], fsim[-1] = xc, fxc
            else:  # shrink towards the best vertex
                for j in range(1, n + 1):
                    sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = np.argsort(fsim)
        sim, fsim = sim[ind], fsim[ind]
    return sim[0]
