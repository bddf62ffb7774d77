"""Shared fixtures and helpers: synthetic panels, CSV fixture writers, the
one-design least-squares and half-life fits that the oracles compare
against, and the reference weight search that the fusion and simplex
oracles share."""

import datetime as dt
import itertools
import math
import os
import sys
from typing import NamedTuple

# One BLAS thread: the suite's matrices are tiny, and idle OpenBLAS threads
# spin on them. This must run before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

# The same examples on every run: each test keeps its own example count, and
# suite times and failures compare from one run to the next.
settings.register_profile("fixed examples", derandomize=True)
settings.load_profile("fixed examples")

from mrpairs import _ols, cointegration, fusion, unit_root  # noqa: E402
from mrpairs._ols import _RANK_DEFICIENT, _too_few, failure_error, rank_deficient  # noqa: E402
from mrpairs.backtest import PositionSeries, compute_pnl  # noqa: E402
from mrpairs.errors import DegenerateInputError, RankDeficientError  # noqa: E402
from mrpairs.fusion import WeightVector, optimize_weights  # noqa: E402
from mrpairs.market_data import (  # noqa: E402
    CointegrationRecipe,
    PricePanel,
    SynthConfig,
    generate_synthetic_panel,
    trading_days,
)
from mrpairs.spread_dynamics import half_life_rows  # noqa: E402

RECIPE_CONFIG = SynthConfig(
    n_walks=1,
    n_days=1500,
    noise_scale=1.0,
    start_price=500.0,
    recipe=CointegrationRecipe(weights=(2.0,), noise_scale=1.0, half_life_days=10.0),
)


@pytest.fixture
def recipe_panel():
    """Two instruments with planted cointegrating vector (1, -0.5)."""
    return generate_synthetic_panel(1, RECIPE_CONFIG)


@pytest.fixture
def independent_panel():
    """Two independent random walks, no cointegration."""
    return generate_synthetic_panel(
        1, SynthConfig(n_walks=2, n_days=1500, noise_scale=1.0, start_price=500.0)
    )


class OlsFit(NamedTuple):
    coef: np.ndarray        # (k,) or (k, m) for multi-response
    residuals: np.ndarray   # same leading shape as y
    rss: float | np.ndarray
    xtx_inv: np.ndarray     # (X'X)^-1, from R alone


# One design fitted in full, with the engine's two checks in their order:
# the reference for the stacked fits' figures and errors.
def ols_qr(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """OLS fit of y on X (no implicit intercept; add a ones column)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2-D with rows matching y")
    n, k = X.shape
    if n <= k:
        raise DegenerateInputError(_too_few(n, k))
    q, r = np.linalg.qr(X, mode="reduced")
    diag = np.abs(np.diag(r))  # |R_jj| of the regressors' thin QR
    if rank_deficient(diag.min(), diag.max()):
        raise RankDeficientError(_RANK_DEFICIENT)
    coef = np.linalg.solve(r, q.T @ y)
    residuals = y - X @ coef
    rss = np.sum(residuals * residuals, axis=0)
    r_inv = np.linalg.solve(r, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    return OlsFit(coef=coef, residuals=residuals, rss=rss, xtx_inv=xtx_inv)


def estimate_half_life(spread: np.ndarray) -> float:
    """Half-life in days of the OLS of the daily spread change on the lagged level."""
    (half_life,), (failure,) = half_life_rows(np.asarray(spread, dtype=float)[None])
    if failure:
        raise failure_error(failure)
    return float(half_life)


def write_price_csv(path, dates, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,close\n")
        for day, value in zip(dates, values):
            fh.write(f"{day.isoformat()},{float(value)!r}\n")
    return str(path)


def max_drawdown_bruteforce(daily_returns):
    """O(n^2) oracle: min over all peak<=trough pairs of trough/peak - 1."""
    equity = np.concatenate(
        [[1.0], np.cumprod(1.0 + np.asarray(daily_returns, dtype=float))]
    )
    worst = 0.0
    for i in range(len(equity)):
        for j in range(i, len(equity)):
            worst = min(worst, equity[j] / equity[i] - 1.0)
    return worst


def date_vote_masks(series_list):
    """(source, class, date) 0/1 votes, classes in (Long, Short, Flat) order:
    the vote of every date, which the search and `combine_signals` take per
    distinct vote pattern instead."""
    signals = np.stack([s.signals for s in series_list])[:, None, :]
    return (signals == np.array([1, -1, 0])[:, None]).astype(float)


def write_monthly_csv(path, months, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("month,value\n")
        for month, value in zip(months, values):
            fh.write(f"{month},{float(value)!r}\n")
    return str(path)


def ar1(rng, T, phi):
    """T points of y_t = phi * y_{t-1} + e_t, with y_0 = e_0."""
    e = rng.standard_normal(T)
    out = np.empty(T)
    out[0] = e[0]
    for t in range(1, T):
        out[t] = phi * out[t - 1] + e[t]
    return out


def error_of(fn, *args, **kwargs):
    """The type and message of the exception `fn(*args, **kwargs)` raises."""
    with pytest.raises(Exception) as info:
        fn(*args, **kwargs)
    return type(info.value), str(info.value)


def watch_qr(monkeypatch):
    """Record every QR the engine makes, as (input, mode, caller name).

    The stacked slices go through `np.linalg.qr`; a single design is
    factored in place by `_ols.r_factor`, recorded with mode "r". Every
    binding of `r_factor` is patched, so the caller is the engine function
    that asked for the factor.
    """
    seen = []

    def qr(a, mode="reduced", _qr=np.linalg.qr):
        seen.append((a, mode, sys._getframe(1).f_code.co_name))
        return _qr(a, mode=mode)

    def r_factor(a, _r_factor=_ols.r_factor):
        seen.append((a, "r", sys._getframe(1).f_code.co_name))
        return _r_factor(a)

    monkeypatch.setattr(np.linalg, "qr", qr)
    for module in (_ols, unit_root, cointegration):
        monkeypatch.setattr(module, "r_factor", r_factor)
    return seen


def six_walks(seed, T, degenerate=None):
    """(T, 6) levels: five walks with AR(0..0.8) increments and one
    cointegrated column.

    `degenerate` overwrites column 4 with a copy of column 1, a scaled
    copy, a constant, or a copy plus 3e-7 white noise, which lag selection
    accepts and the Johansen step's cond check does not.
    """
    rng = np.random.default_rng(seed)
    walks = [np.cumsum(ar1(rng, T, phi)) for phi in (0.0, 0.3, 0.5, 0.6, 0.8)]
    Y = np.column_stack(walks + [walks[0] - 0.5 * walks[1] + ar1(rng, T, 0.7)])
    if degenerate == "duplicate":
        Y[:, 4] = Y[:, 1]
    elif degenerate == "scaled duplicate":
        Y[:, 4] = 2.5 * Y[:, 1]
    elif degenerate == "constant":
        Y[:, 4] = 3.0
    elif degenerate == "near duplicate":
        Y[:, 4] = Y[:, 1] + 3e-7 * rng.standard_normal(T)
    return Y


def price_panel(Y):
    """Levels Y (T, m) as a panel S0..S(m-1) of prices 1000 + Y."""
    T, m = Y.shape
    return PricePanel(
        dates=trading_days(dt.date(2008, 1, 2), T),
        prices=(1000.0 + Y).T,
        instrument_ids=tuple(f"S{i}" for i in range(m)),
    )



# The portfolio steps as they ran one subset at a time before the stacked
# tail: the references for its bits and its errors.
def hedge_ratio_one_by_one(vector):
    v = np.array(vector, dtype=float)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        raise DegenerateInputError("zero eigenvector")
    return v / v[np.flatnonzero(np.abs(v) > 1e-12 * scale)[0]]


def standardize_one_by_one(values):
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        raise DegenerateInputError("need at least 2 points to standardize")
    std = float(np.std(x, ddof=1))
    if std == 0.0 or np.ptp(x) == 0.0:
        raise DegenerateInputError("zero variance, z-scores undefined")
    return (x - x.mean()) / std


def half_life_one_by_one(spread):
    s = np.asarray(spread, dtype=float)
    if len(s) < 30:
        raise DegenerateInputError(f"need at least 30 observations, got {len(s)}")
    if np.ptp(s) == 0.0:
        raise DegenerateInputError("constant spread has no reversion speed")
    ds = np.diff(s)
    lam = float(ols_qr(np.column_stack([np.ones(len(ds)), s[:-1]]), ds).coef[1])
    return -math.log(2.0) / lam if lam < 0 else math.inf


def portfolio_steps_one_by_one(panel, subsets, vectors):
    """(hedge ratio, spread, z-scores, half-life) of each subset in turn;
    the first failing step raises."""
    out = []
    for subset, vector in zip(subsets, vectors):
        hedge = hedge_ratio_one_by_one(vector)
        values = hedge @ panel.prices[list(subset)]
        out.append((hedge, values, standardize_one_by_one(values), half_life_one_by_one(values)))
    return out


ALL_ZERO = "every weight probe produced an all-zero return stream"


def optimize_weights_every_probe(simplex, signal_series, panel, hedge_ratio, config, max_iter):
    """The weight search before its memo: a fresh backtest of every probe,
    and `simplex(f, x0, max_iter)`, a Nelder-Mead minimizer that returns its
    best vertex, to refine the grid's best point.

    Returns the winning weights, the APR, the baseline APR, every probe's
    clipped weights and every probe's APR.
    """
    masks = date_vote_masks(signal_series)
    dates = signal_series[0].dates
    n_sources = len(masks)
    fusion.check_grid_size(n_sources)
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
    x = simplex(lambda w: -objective(w), np.array(best_w, dtype=float), max_iter)
    refined = np.clip(x, 0.0, 1.0)
    refined_apr = objective(refined)
    if refined_apr > best_apr:
        best_w, best_apr = refined, refined_apr
    if not saw_active_probe:
        raise DegenerateInputError(ALL_ZERO)
    return (
        WeightVector(tuple(float(w) for w in np.clip(best_w, 0.0, 1.0))),
        best_apr,
        baseline_apr,
        np.array(probe_weights),
        np.array(probe_apr),
    )


def assert_same_search(simplex, sources, panel, hedge, config, max_iter=fusion.SIMPLEX_MAX_ITER):
    """The memoized search against `optimize_weights_every_probe` with
    `simplex`, both capped at `max_iter` simplex iterations: both results,
    or None where both raise the search's own error, `ALL_ZERO`."""
    try:
        expected = optimize_weights_every_probe(
            simplex, sources, panel, hedge, config, max_iter
        )
    except DegenerateInputError as exc:
        assert str(exc) == ALL_ZERO
        with pytest.raises(DegenerateInputError, match=f"^{ALL_ZERO}$"):
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
