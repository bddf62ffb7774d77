"""Spread construction, OU half-life estimation, and z-scoring.

spread_t = sum_i hedge_i * price_{i,t}. The speed of mean reversion is the
OLS slope lam of the daily spread change on the lagged spread level (with
intercept); a negative slope gives half-life -ln(2)/lam, otherwise the
spread shows no measured mean reversion and the half-life is unbounded.

Z-scores use the full-sample mean and sample (n-1) standard deviation,
from `zscore_rows`, the one z-score routine.
NOTE: full-sample standardization is in-sample and embeds look-ahead bias;
it matches the single-period research backtest this engine reproduces.

The z-scores and half-lives are computed as stacks (`zscore_rows`,
`half_life_rows`), one spread per row, so a scan fits all of its ranked
subsets' spreads at once; `compute_spread` standardizes a stack of one.
Each row's figures are bit-identical to that row computed as a stack of
one: the reductions run along each row, and numpy's stacked QR and solve
run the same LAPACK calls on each row's design as on that design alone.
The half-life fit stops at the slope, with no residuals, RSS or
(X'X)^-1. A stacked function reports each row's first failing check as a
message, "" where all pass, so one failing spread does not stop the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ols import _RANK_DEFICIENT, failure_error, rank_deficient
from .errors import ValidationError
from .market_data import PricePanel

MIN_HALF_LIFE_OBS = 30


@dataclass(frozen=True)
class SpreadSeries:
    """Spread values plus their full-sample standardization, one per panel date."""

    values: np.ndarray
    zscores: np.ndarray


def zscore_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean)/std with the sample std, of each row of `values` (B, n):
    the z-scores and the messages. A failed row's z-scores are not read."""
    B, n = values.shape
    if n < 2:
        return np.full((B, n), np.nan), np.full(B, "need at least 2 points to standardize")
    with np.errstate(divide="ignore", invalid="ignore"):  # flat or not finite rows
        std = np.std(values, axis=-1, ddof=1, keepdims=True)
        flat = (std[:, 0] == 0.0) | (np.ptp(values, axis=-1) == 0.0)
        zscores = (values - values.mean(axis=-1, keepdims=True)) / std
    return zscores, np.where(flat, "zero variance, z-scores undefined", "")


def compute_spread(panel: PricePanel, hedge_ratio: np.ndarray) -> SpreadSeries:
    """Dot the hedge ratio into each date's prices and standardize."""
    h = np.asarray(hedge_ratio, dtype=float)
    if h.shape != (panel.n_instruments,):
        raise ValidationError(
            f"hedge ratio length {h.shape} does not match panel width "
            f"{panel.n_instruments}"
        )
    values = h @ panel.prices
    (zscores,), (failure,) = zscore_rows(values[None])
    if failure:
        raise failure_error(failure)
    return SpreadSeries(values, zscores)


def half_life_rows(spreads: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-lives in days of each row of `spreads` (B, n), and the messages
    of each row's first failing check: fewer than MIN_HALF_LIFE_OBS points,
    a constant spread, then the rank rule on [1, s_{t-1}]. A failed row's
    half-life is nan."""
    B, n = spreads.shape
    half_lives = np.full(B, np.nan)
    if n < MIN_HALF_LIFE_OBS:
        message = f"need at least {MIN_HALF_LIFE_OBS} observations, got {n}"
        return half_lives, np.full(B, message)
    with np.errstate(divide="ignore", invalid="ignore"):  # flat or not finite rows
        constant = np.ptp(spreads, axis=-1) == 0.0
        ds = np.diff(spreads, axis=-1)[..., None]
        # Each design [1, s_{t-1}] is laid out column by column, as LAPACK
        # takes it, so `qr` copies whole columns; the values, and so the
        # factors, are the same in any layout.
        X = np.empty((B, 2, n - 1))
        X[:, 0] = 1.0
        X[:, 1] = spreads[:, :-1]
        q, r = np.linalg.qr(X.mT)  # a spread that is not finite gets a nan diagonal
        diag = np.abs(np.diagonal(r, axis1=-2, axis2=-1))
        deficient = rank_deficient(diag.min(axis=-1), diag.max(axis=-1))
        failures = np.where(
            constant,
            "constant spread has no reversion speed",
            np.where(deficient, _RANK_DEFICIENT, ""),
        )
        ok = failures == ""
        slopes = np.linalg.solve(r[ok], (q.mT @ ds)[ok])[:, 1, 0]
        half_lives[ok] = np.where(slopes < 0, -math.log(2.0) / slopes, math.inf)
    return half_lives, failures
