"""Augmented Dickey-Fuller unit-root testing and I(d) classification.

The ADF regression includes a drift term but no time trend:

    dy_t = a + b*y_{t-1} + g_1*dy_{t-1} + ... + g_p*dy_{t-p} + e_t

The lag order p is chosen by minimizing BIC = n*ln(RSS/n) + k*ln(n) with
k = p + 2, over a common estimation sample (all candidates drop the first
max_lag differences) so the criteria are comparable. Each candidate's
design is a column prefix of the max-lag design, so the one R factor of
[design | response] gives everything: with X = Q*R, the residual of the
response on the first k columns is Q[:, k:]*R[k:, -1], so every
candidate's RSS is a reversed cumulative sum of squares of R's last
column (`_ols.prefix_moments`), and the chosen lag's coefficients and
(X'X)^-1 come from R's leading k x k block. The design and its response
are built as one column-major block, LAPACK's own layout, and factored
as they are. The maximum lag follows Schwert's rule floor(12*(T/100)^(1/4)).
A constant series, a straight line and a design that fails the rank rule
have no test: `adf_test` raises each as `DegenerateInputError` with its
message in `NO_TEST`, which gives the reason a scan skips such a series.

The t-ratio on b is compared against finite-sample critical values for the
drift case, interpolated in 1/T between tabulated sample sizes. Only the
95% level is tabulated, since the test uses no other; the table can be
re-verified by Monte Carlo via `simulate_adf_null_statistics`
(also wired to the `verify-critical-values` CLI command), which draws its
walks from `null_walk_batches`, as every Johansen null simulation does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from ._ols import (
    _RANK_DEFICIENT, VAR_SPARE_OBS, failure_error, first_failures, prefix_failures,
    prefix_moments, r_factor,
)
from .errors import DegenerateInputError, ValidationError

# Finite-sample 95% critical values of the Dickey-Fuller t-statistic for the
# regression with constant and no trend, tabulated by effective sample size.
# The asymptotic value is -2.86; the table has been re-verified by Monte
# Carlo (see tests/test_acceptance.py, criterion 11).
_ADF_CV_SAMPLE_SIZES = (25, 50, 100, 250, 500, math.inf)
ADF_CRITICAL_VALUES_95 = (-3.00, -2.93, -2.89, -2.88, -2.87, -2.86)

_CONSTANT = "constant series has no unit-root test"
_CONSTANT_DIFFERENCES = "constant differences have no unit-root test"
# The messages of the failures that leave a series with no test, in the
# order `adf_test` checks them, and the reason a scan skips it for.
NO_TEST = {
    _CONSTANT: "constant series",
    _CONSTANT_DIFFERENCES: "constant differences",
    _RANK_DEFICIENT: "singular unit-root fit",
}

_NULL_BATCH = 256  # walks per Monte Carlo batch, small enough to stay in cache
_NULL_POINTS = 2**26 // (8 * _NULL_BATCH)  # 32768 floats a walk: a batch in 64 MiB


def adf_critical_value(sample_size: int) -> float:
    """Drift-case 95% DF critical value, interpolated linearly in 1/T."""
    table = ADF_CRITICAL_VALUES_95
    xs = [1.0 / t for t in _ADF_CV_SAMPLE_SIZES]  # descending in x
    x = 1.0 / max(sample_size, 1)
    if x >= xs[0]:
        return table[0]
    for i in range(len(xs) - 1):
        lo, hi = xs[i + 1], xs[i]
        if lo <= x <= hi:
            frac = (x - lo) / (hi - lo)
            return table[i + 1] + frac * (table[i] - table[i + 1])
    return table[-1]


def schwert_max_lag(sample_size: int) -> int:
    """Schwert's rule of thumb: floor(12 * (T/100)^(1/4))."""
    if sample_size < 1:
        raise ValueError("sample_size must be positive")
    return int(math.floor(12.0 * (sample_size / 100.0) ** 0.25))


@dataclass(frozen=True)
class AdfOutcome:
    """Result of one ADF regression at the BIC-selected lag."""

    statistic: float
    chosen_lag: int
    critical_value_95: float
    reject_unit_root: bool


class IntegrationOrder(enum.Enum):
    I0 = "I0"
    I1 = "I1"
    I2PLUS = "I2plus"


def _adf_design(y: np.ndarray, max_lag: int) -> np.ndarray:
    """[1, y_{t-1}, dy_{t-1..max_lag} | dy_t] on the common sample, column-major."""
    dy = np.diff(y)
    windows = np.lib.stride_tricks.sliding_window_view(dy, max_lag + 1)
    design = np.empty((len(windows), max_lag + 3), order="F")
    design[:, 0] = 1.0
    design[:, 1] = y[max_lag:-1]
    design[:, 2:-1] = windows[:, -2::-1]
    design[:, -1] = windows[:, -1]
    return design


def adf_test(series: np.ndarray, max_lag: int | None = None) -> AdfOutcome:
    """ADF test with drift, BIC lag selection, Schwert max lag.

    All candidate lags are fit on the sample left after trimming max_lag
    observations, so their BIC values are comparable, and every figure
    comes from one factorization of the max-lag design.
    """
    y = np.asarray(series, float).ravel()
    T = len(y)
    if max_lag is None:
        max_lag = schwert_max_lag(T)
    if max_lag < 0:
        raise ValidationError(f"max_lag must be non-negative, got {max_lag}")
    if T < max_lag + 10:
        raise DegenerateInputError(
            f"series length {T} too short for max_lag {max_lag}"
        )
    if np.ptp(y) == 0.0:
        raise DegenerateInputError(_CONSTANT)
    if np.ptp(np.diff(y)) == 0.0:
        raise DegenerateInputError(_CONSTANT_DIFFERENCES)

    design = _adf_design(y, max_lag)
    n = len(design)
    k_max = max_lag + 2
    r = r_factor(design)
    widths = np.arange(2, k_max + 1)
    (failure,) = first_failures(prefix_failures(r, k_max, n, widths)[None])
    if failure:
        raise failure_error(failure)
    rss = prefix_moments(r, k_max, widths)[:, 0, 0]
    bic = n * np.log(np.maximum(rss, np.finfo(float).tiny) / n) + widths * math.log(n)
    p = int(np.argmin(bic))  # the first minimum, so ties keep the smaller lag
    k = p + 2
    r_inv = np.linalg.inv(r[:k, :k])  # (X'X)^-1 = R^-1 R^-T
    coef = r_inv @ r[:k, -1]
    sigma2 = float(rss[p]) / (n - k)
    statistic = float(coef[1]) / math.sqrt(sigma2 * float(r_inv[1] @ r_inv[1]))
    cv = adf_critical_value(n)
    return AdfOutcome(
        statistic=statistic,
        chosen_lag=p,
        critical_value_95=cv,
        reject_unit_root=statistic < cv,
    )


def classify_integration_order(
    series: np.ndarray, max_lag: int | None = None
) -> IntegrationOrder:
    """I(0)/I(1)/I(2+) from ADF on levels, then, unless I(0), on differences."""
    y = np.asarray(series, float)
    if adf_test(y, max_lag=max_lag).reject_unit_root:
        return IntegrationOrder.I0
    if adf_test(np.diff(y), max_lag=max_lag).reject_unit_root:
        return IntegrationOrder.I1
    return IntegrationOrder.I2PLUS


def check_null_walk_size(n_draws: int, sample_size: int, dim: int = 1) -> None:
    """Raise ValidationError for sizes the null simulations cannot use.

    At least 4 points leave the t-ratio n - 2 >= 1 degrees of freedom. A
    Johansen null of dimension m >= 2 fits a VAR(1) of m walks, which
    needs m + VAR_SPARE_OBS points, as `cointegration.johansen_test`
    does. A batch of walks must fit in 64 MiB, so at most 32768 / m
    points.
    """
    if n_draws < 1:
        raise ValidationError(f"Monte Carlo needs at least 1 draw, got {n_draws}")
    if sample_size < 4:
        raise ValidationError(
            f"Monte Carlo sample size must be at least 4, got {sample_size}"
        )
    if dim < 1:
        raise ValidationError(f"Monte Carlo dimension must be at least 1, got {dim}")
    if dim >= 2 and sample_size < dim + VAR_SPARE_OBS:
        raise ValidationError(
            f"Monte Carlo sample size must be at least {dim + VAR_SPARE_OBS} for dimension "
            f"{dim}, got {sample_size}"
        )
    if sample_size > _NULL_POINTS // dim:
        raise ValidationError(
            f"Monte Carlo sample size must be at most {_NULL_POINTS // dim} for dimension "
            f"{dim} (a batch of {_NULL_BATCH} walks in 64 MiB), got {sample_size}"
        )


def null_walk_batches(n_draws: int, sample_size: int, seed: int, dim: int = 1):
    """Driftless random walks for the null simulations, in batches.

    Yields (b, sample_size, dim) arrays, walks along axis 1. Draw i reads
    the same stretch of the seeded stream whatever the batch size.
    """
    check_null_walk_size(n_draws, sample_size, dim)
    rng = np.random.default_rng(seed)
    for start in range(0, n_draws, _NULL_BATCH):
        b = min(_NULL_BATCH, n_draws - start)
        yield np.cumsum(rng.standard_normal((b, sample_size, dim)), axis=1)


def simulate_adf_null_statistics(
    n_draws: int,
    sample_size: int = 500,
    seed: int = 0,
) -> np.ndarray:
    """Dickey-Fuller t-statistics under the driftless random-walk null.

    Uses the lag-0 regression (correct under the null), vectorized across
    draws, for Monte Carlo verification of the embedded critical values.
    """
    out = []
    for walks in null_walk_batches(n_draws, sample_size, seed):
        y = walks[:, :, 0]
        x, d = y[:, :-1], np.diff(y, axis=1)
        xc, dc = x - x.mean(axis=1, keepdims=True), d - d.mean(axis=1, keepdims=True)
        n = xc.shape[1]
        sxx = np.sum(xc * xc, axis=1)
        sxy = np.sum(xc * dc, axis=1)
        beta = sxy / sxx
        resid = dc - beta[:, None] * xc
        sigma2 = np.sum(resid * resid, axis=1) / (n - 2)
        out.append(beta / np.sqrt(sigma2 / sxx))
    return np.concatenate(out)
