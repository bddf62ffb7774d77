"""One-hot signal fusion and APR-maximizing weight search.

Each source's daily signal is one-hot encoded over (Long, Short, Flat) and
the sources' encodings are combined under a weight vector bounded to
[0, 1] per component; the fused signal is the argmax class, with ties
resolving to Flat (risk-off). The fused signal is a *target position*:
Flat means hold nothing, so weights (0, 0, 0, 1) reproduce the pure
mean-reversion strategy exactly.

The APR objective is piecewise constant in the weights (it only moves when
an argmax flips), so a gradient-based program is ill-posed; the search is
derivative-free instead: an exhaustive coarse grid (0.25 steps) followed
by Nelder-Mead refinement from the best grid point, clipped to the box.
Transaction costs are excluded from the objective and only re-enter in the
final reported backtest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backtest import PositionSeries, compute_pnl
from .errors import (
    AlignmentError,
    OptimizationDegenerateError,
    ValidationError,
)
from .macro_signals import SIGNAL_ORDER, Signal, SignalSeries
from .market_data import PricePanel

_SIGNAL_INDEX = {sig: i for i, sig in enumerate(SIGNAL_ORDER)}
_FLAT_INDEX = _SIGNAL_INDEX[Signal.FLAT]


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


def _signal_index_matrix(series_list: list[SignalSeries]) -> np.ndarray:
    if len(series_list) < 2:
        raise ValidationError("need at least 2 signal sources to fuse")
    calendar = series_list[0].dates
    for s in series_list[1:]:
        if s.dates != calendar:
            raise AlignmentError("signal sources do not share a calendar")
    return np.array(
        [[_SIGNAL_INDEX[sig] for sig in s.signals] for s in series_list]
    )


def combine_signals(
    series_list: list[SignalSeries], weights: WeightVector
) -> SignalSeries:
    """Datewise argmax of weighted one-hot scores; ties resolve to Flat."""
    idx = _signal_index_matrix(series_list)
    if len(weights) != len(series_list):
        raise ValidationError("one weight per signal source required")
    w = np.asarray(weights.weights, dtype=float)
    n_sources, n_dates = idx.shape
    scores = np.zeros((len(SIGNAL_ORDER), n_dates))
    for k in range(n_sources):
        scores[idx[k], np.arange(n_dates)] += w[k]
    best = np.argmax(scores, axis=0)
    top = scores[best, np.arange(n_dates)]
    tied = (scores == top).sum(axis=0) > 1
    best[tied] = _FLAT_INDEX
    return SignalSeries(
        dates=series_list[0].dates,
        signals=tuple(SIGNAL_ORDER[i] for i in best),
    )


_POSITION_FOR = {Signal.LONG: 1, Signal.SHORT: -1, Signal.FLAT: 0}


def signal_to_position(combined: SignalSeries) -> PositionSeries:
    """Target positions: Long -> +1, Short -> -1, Flat -> 0."""
    return PositionSeries(
        dates=combined.dates,
        positions=np.array([_POSITION_FOR[s] for s in combined.signals]),
    )


@dataclass(frozen=True)
class OptimizerConfig:
    grid_step: float = 0.25
    mr_weight_floor: float = 0.0  # minimum grid value on the last (MR) axis
    simplex_max_iter: int = 200


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
    trace: tuple[ProbeRecord, ...]


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
    evaluation is appended to the trace in order, making reruns with the
    same inputs byte-identical.
    """
    from scipy import optimize as sopt  # slow to load; no other command needs it
    if config is None:
        config = OptimizerConfig()
    idx = _signal_index_matrix(signal_series)
    n_sources = idx.shape[0]
    trace: list[ProbeRecord] = []
    saw_active_probe = False

    def objective(raw: np.ndarray) -> float:
        nonlocal saw_active_probe
        w = np.clip(np.asarray(raw, dtype=float), 0.0, 1.0)
        combined = combine_signals(signal_series, WeightVector(tuple(w)))
        report = compute_pnl(panel, hedge_ratio, signal_to_position(combined))
        if np.any(report.daily_returns != 0.0):
            saw_active_probe = True
        trace.append(ProbeRecord(len(trace), tuple(w), report.apr))
        return report.apr

    step = config.grid_step
    if not 0.0 < step <= 1.0:
        raise ValidationError("grid_step must be in (0, 1]")
    ticks = np.round(np.arange(0.0, 1.0 + step / 2, step), 12)
    mr_ticks = ticks[ticks >= config.mr_weight_floor]
    axes = [ticks] * (n_sources - 1) + [mr_ticks]

    baseline = np.zeros(n_sources)
    baseline[-1] = 1.0
    baseline_apr = objective(baseline)

    best_w, best_apr = baseline, baseline_apr
    for point in np.stack(
        np.meshgrid(*axes, indexing="ij"), axis=-1
    ).reshape(-1, n_sources):
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
    return OptimizationResult(
        weights=WeightVector(tuple(float(w) for w in best_w)),
        apr=best_apr,
        baseline_apr=baseline_apr,
        trace=tuple(trace),
    )
