"""Spread construction, OU half-life estimation, and z-scoring.

spread_t = sum_i hedge_i * price_{i,t}. The speed of mean reversion comes
from regressing the daily spread change on the lagged spread level (with
intercept); a negative slope lam gives half-life -ln(2)/lam, otherwise the
spread shows no measured mean reversion and the half-life is unbounded.
`estimate_half_life` takes the spread's values as a plain array.

Z-scores use the full-sample mean and sample (n-1) standard deviation;
`compute_spread` takes them from `standardize`, the one z-score routine.
NOTE: full-sample standardization is in-sample and embeds look-ahead bias;
it matches the single-period research backtest this engine reproduces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ols import ols_qr
from .errors import DegenerateInputError, ValidationError
from .market_data import PricePanel

MIN_HALF_LIFE_OBS = 30


@dataclass(frozen=True)
class SpreadSeries:
    """Spread values plus their full-sample standardization."""

    dates: tuple
    values: np.ndarray
    zscores: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


def standardize(values: np.ndarray) -> np.ndarray:
    """(x - mean)/std with the sample std."""
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        raise DegenerateInputError("need at least 2 points to standardize")
    std = float(np.std(x, ddof=1))
    if std == 0.0 or np.ptp(x) == 0.0:
        raise DegenerateInputError("zero variance, z-scores undefined")
    return (x - x.mean()) / std


def compute_spread(panel: PricePanel, hedge_ratio: np.ndarray) -> SpreadSeries:
    """Dot the hedge ratio into each date's prices and standardize."""
    h = np.asarray(hedge_ratio, dtype=float)
    if h.shape != (panel.n_instruments,):
        raise ValidationError(
            f"hedge ratio length {h.shape} does not match panel width "
            f"{panel.n_instruments}"
        )
    values = h @ panel.prices
    return SpreadSeries(panel.dates, values, standardize(values))


def estimate_half_life(spread: np.ndarray) -> float:
    """Half-life in days of the OLS of the daily spread change on the lagged level."""
    s = np.asarray(spread, dtype=float)
    if len(s) < MIN_HALF_LIFE_OBS:
        raise DegenerateInputError(
            f"need at least {MIN_HALF_LIFE_OBS} observations, got {len(s)}"
        )
    if np.ptp(s) == 0.0:
        raise DegenerateInputError("constant spread has no reversion speed")
    ds = np.diff(s)
    X = np.column_stack([np.ones(len(ds)), s[:-1]])
    fit = ols_qr(X, ds)
    lam = float(fit.coef[1])
    return -math.log(2.0) / lam if lam < 0 else math.inf
