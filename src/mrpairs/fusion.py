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
derivative-free instead: an exhaustive coarse grid (0.25 steps, at most
MAX_GRID_POINTS points) followed by Nelder-Mead refinement from the best
grid point, clipped to the box. Transaction costs are excluded from the
objective and only re-enter in the final reported backtest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .backtest import PositionSeries, compute_pnl
from .errors import (
    AlignmentError,
    OptimizationDegenerateError,
    ValidationError,
)
from .macro_signals import SignalSeries
from .market_data import PricePanel

# Largest coarse grid the search enumerates, counted over the full box
# before the mean-reversion floor trims the last axis.
MAX_GRID_POINTS = 1_000_000


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


def _vote_masks(series_list: list[SignalSeries]) -> np.ndarray:
    """(source, class, date) 0/1 votes, classes in (Long, Short, Flat) order."""
    if len(series_list) < 2:
        raise ValidationError("need at least 2 signal sources to fuse")
    calendar = series_list[0].dates
    for s in series_list[1:]:
        if s.dates != calendar:
            raise AlignmentError("signal sources do not share a calendar")
    signals = np.stack([s.signals for s in series_list])[:, None, :]
    return (signals == np.array([1, -1, 0])[:, None]).astype(float)


def _fuse(masks: np.ndarray, w: np.ndarray) -> np.ndarray:
    """int8 target positions of the weighted vote; ties resolve to Flat.

    Each class score adds the weights in source order, so its float sums,
    and so its ties, match a one-hot score table summed source by source.
    """
    scores = w[0] * masks[0]
    for k in range(1, len(masks)):
        scores += w[k] * masks[k]
    long_, short, flat = scores
    is_long = (long_ > short) & (long_ > flat)
    is_short = (short > long_) & (short > flat)
    return is_long.astype(np.int8) - is_short.astype(np.int8)


def combine_signals(
    series_list: list[SignalSeries], weights: WeightVector
) -> SignalSeries:
    """Datewise weighted vote of the sources; ties resolve to Flat."""
    masks = _vote_masks(series_list)
    if len(weights) != len(series_list):
        raise ValidationError("one weight per signal source required")
    w = np.asarray(weights.weights, dtype=float)
    return SignalSeries(dates=series_list[0].dates, signals=_fuse(masks, w))


def signal_to_position(combined: SignalSeries) -> PositionSeries:
    """Target positions: Long -> +1, Short -> -1, Flat -> 0."""
    return PositionSeries(dates=combined.dates, positions=combined.signals)


@dataclass(frozen=True)
class OptimizerConfig:
    grid_step: float = 0.25
    mr_weight_floor: float = 0.0  # minimum grid value on the last (MR) axis
    simplex_max_iter: int = 200

    def __post_init__(self):
        if not 0.0 < self.grid_step <= 1.0:
            raise ValidationError(f"grid_step must be in (0, 1], got {self.grid_step!r}")
        if not 0.0 <= self.mr_weight_floor <= 1.0:
            raise ValidationError(
                f"mr_weight_floor must be in [0, 1], got {self.mr_weight_floor!r}"
            )
        if self.simplex_max_iter < 0:
            raise ValidationError(
                f"simplex_max_iter must be non-negative, got {self.simplex_max_iter!r}"
            )

    def check_grid_size(self, n_sources: int) -> None:
        """Reject a grid over `n_sources` weights of more than MAX_GRID_POINTS."""
        step = self.grid_step
        n_ticks = (1.0 + step / 2) / step  # len() of the grid's arange, before ceil
        # Below a step of ~5.6e-309 the quotient overflows; that grid counts as inf.
        n_points = math.ceil(n_ticks) ** n_sources if n_ticks < math.inf else n_ticks
        if n_points > MAX_GRID_POINTS:
            raise ValidationError(
                f"grid_step {step!r} gives a grid of {n_points} points "
                f"over {n_sources} weights, more than {MAX_GRID_POINTS}"
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
    probe_weights: np.ndarray  # (n_probes, n_sources), clipped, in probe order
    probe_apr: np.ndarray  # (n_probes,)

    @property
    def trace(self) -> tuple[ProbeRecord, ...]:
        """Every objective evaluation in order, built on access."""
        return tuple(
            ProbeRecord(i, tuple(w), float(apr))
            for i, (w, apr) in enumerate(zip(self.probe_weights, self.probe_apr))
        )


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
    byte-identical. Each probe is one vectorized vote and one `compute_pnl`.
    """
    from scipy import optimize as sopt  # slow to load; no other command needs it
    if config is None:
        config = OptimizerConfig()
    masks = _vote_masks(signal_series)
    dates = signal_series[0].dates
    n_sources = len(masks)
    step = config.grid_step
    config.check_grid_size(n_sources)
    probe_weights: list[np.ndarray] = []
    probe_apr: list[float] = []
    saw_active_probe = False

    def objective(raw) -> float:
        nonlocal saw_active_probe
        w = np.clip(np.asarray(raw, dtype=float), 0.0, 1.0)
        positions = PositionSeries(dates, _fuse(masks, w))
        report = compute_pnl(panel, hedge_ratio, positions)
        if np.any(report.daily_returns != 0.0):
            saw_active_probe = True
        probe_weights.append(w)
        probe_apr.append(report.apr)
        return report.apr

    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    mr_ticks = ticks[ticks >= config.mr_weight_floor]
    axes = [ticks] * (n_sources - 1) + [mr_ticks]

    baseline = np.zeros(n_sources)
    baseline[-1] = 1.0
    baseline_apr = objective(baseline)

    best_w, best_apr = baseline, baseline_apr
    for point in itertools.product(*axes):  # the order of an "ij" meshgrid
        apr = objective(point)
        if apr > best_apr:
            best_w, best_apr = point, apr

    result = sopt.minimize(
        lambda w: -objective(w),
        x0=np.array(best_w, dtype=float),
        method="Nelder-Mead",
        options={
            "maxiter": config.simplex_max_iter,
            "xatol": 1e-3,
            "fatol": 1e-10,
            "disp": False,
        },
    )
    refined = np.clip(result.x, 0.0, 1.0)
    refined_apr = objective(refined)
    if refined_apr > best_apr:
        best_w, best_apr = refined, refined_apr
    if not saw_active_probe:
        raise OptimizationDegenerateError(
            "every weight probe produced an all-zero return stream"
        )
    # A grid tick may exceed 1 when the step does not divide 1; report the
    # clipped weights the winning probe scored.
    return OptimizationResult(
        weights=WeightVector(tuple(float(w) for w in np.clip(best_w, 0.0, 1.0))),
        apr=best_apr,
        baseline_apr=baseline_apr,
        probe_weights=np.array(probe_weights),
        probe_apr=np.array(probe_apr),
    )
