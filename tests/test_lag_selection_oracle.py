"""Nested-QR lag selection against the per-lag loops it replaced.

`adf_test` reads every candidate lag's RSS, and the chosen lag's
coefficients and t-ratio, off one QR of the max-lag design; `select_var_lag`
and the scan take their residual moments from a column subset of one QR of
the panel-wide design (`VarLagSelector`). The reference functions below
refit each candidate lag of each subset separately with `ols_qr`, as the
engine once did, and must agree on the chosen lag and on the exception
raised for a degenerate input. The ADF verdict and critical value must
be equal too; its statistic and coefficients, summed in another order
than a refit sums them, are held to a few hundred ulps relative.
"""

import datetime as dt
import math
import sys
from collections import Counter

import numpy as np
import pytest

from mrpairs import _ols, unit_root
from mrpairs._ols import ols_qr
from mrpairs.cointegration import (
    VarLagSelector,
    enumerate_combinations,
    scan_cointegration,
    select_var_lag,
)
from mrpairs.errors import RankDeficientError, SingularityError
from mrpairs.market_data import PricePanel, trading_days
from mrpairs.unit_root import (
    AdfOutcome,
    IntegrationOrder,
    _adf_design,
    adf_critical_value,
    adf_test,
    schwert_max_lag,
)


def adf_test_per_lag(y, max_lag=None):
    """ADF with BIC lag selection by one `ols_qr` fit per candidate lag."""
    y = np.asarray(y, float).ravel()
    if max_lag is None:
        max_lag = schwert_max_lag(len(y))
    best = None  # (bic, p, fit, X)
    design = _adf_design(y, max_lag)
    for p in range(max_lag + 1):
        X, resp = design[:, : p + 2], design[:, -1]
        fit = ols_qr(X, resp)
        n = len(resp)
        k = p + 2
        rss = max(float(fit.rss), np.finfo(float).tiny)
        bic = n * math.log(rss / n) + k * math.log(n)
        if best is None or bic < best[0]:
            best = (bic, p, fit, X)
    _, p, fit, X = best
    n, k = X.shape
    sigma2 = float(fit.rss) / (n - k)
    statistic = float(fit.coef[1]) / math.sqrt(sigma2 * fit.xtx_inv[1, 1])
    cv = adf_critical_value(n)
    return AdfOutcome(
        statistic=statistic,
        chosen_lag=p,
        critical_value_95=cv,
        reject_unit_root=statistic < cv,
        intercept=float(fit.coef[0]),
        level_coefficient=float(fit.coef[1]),
        lag_coefficients=tuple(float(c) for c in fit.coef[2:]),
    )


def select_var_lag_per_lag(Y, max_lag):
    """Schwarz-criterion VAR lag by one `ols_qr` fit per candidate lag."""
    Y = np.asarray(Y, float)
    T, m = Y.shape
    t0 = max_lag
    resp = Y[t0:]
    n = resp.shape[0]
    best_p, best_sc = None, None
    for p in range(1, max_lag + 1):
        cols = [np.ones((n, 1))]
        for i in range(1, p + 1):
            cols.append(Y[t0 - i : T - i])
        fit = ols_qr(np.hstack(cols), resp)
        sigma = fit.residuals.T @ fit.residuals / n
        sign, logdet = np.linalg.slogdet(sigma)
        if sign <= 0:
            raise SingularityError("singular residual covariance in VAR fit")
        sc = logdet + (math.log(n) / n) * (p * m * m + m)
        if best_sc is None or sc < best_sc:
            best_p, best_sc = p, sc
    return best_p


def _ar1(rng, T, phi):
    e = rng.standard_normal(T)
    y = np.empty(T)
    y[0] = e[0]
    for t in range(1, T):
        y[t] = phi * y[t - 1] + e[t]
    return y


def _series(kind, seed, T):
    rng = np.random.default_rng(seed)
    if kind == "walk":
        return np.cumsum(rng.standard_normal(T))
    if kind == "ar1":
        return _ar1(rng, T, 0.8)
    # walk whose increments carry short-run dynamics, so BIC picks p > 0
    return np.cumsum(_ar1(rng, T, 0.5))


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return type(info.value), str(info.value)


# The ADF corpus's series as quoted in other units: shifted and scaled
# (prices far from zero), scaled down exactly, and so large beside the unit
# intercept column that every fit fails the rank check.
UNITS = {
    "as drawn": lambda y: y,
    "1e6 + 1e3 y": lambda y: 1e6 + 1e3 * y,
    "2^-30 y": lambda y: 2.0**-30 * y,
    "2^45 + 2^40 y": lambda y: 2.0**45 + 2.0**40 * y,
}


def _coefficients(outcome):
    return np.array((outcome.intercept, outcome.level_coefficient) + outcome.lag_coefficients)


def assert_adf_close(got, want):
    """Same lag, verdict and critical value; figures within a few hundred ulps.

    `adf_test` sums each RSS from R's last column and solves with R's
    leading block, where the loop refits the chosen lag on its own, so the
    last bits of the figures differ.
    """
    assert (got.chosen_lag, got.reject_unit_root, got.critical_value_95) == (
        want.chosen_lag, want.reject_unit_root, want.critical_value_95
    )
    assert abs(got.statistic - want.statistic) <= 1e-12 * max(1.0, abs(want.statistic))
    coef, ref = _coefficients(got), _coefficients(want)
    assert coef.shape == ref.shape
    assert np.all(np.abs(coef - ref) <= 1e-11 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("T", [250, 1000, 2500, 5000])
@pytest.mark.parametrize("kind", ["walk", "ar1", "ar_increments"])
def test_adf_matches_per_lag_loop(kind, T):
    chosen, raised = set(), Counter()
    # The reference test of one series at T = 5000 takes about 80 ms.
    seeds = range(2) if T > 2500 else range(4)
    for seed in seeds:
        y = _series(kind, seed, T)
        for units, scaled in UNITS.items():
            for series in (scaled(y), np.diff(scaled(y))):
                try:
                    expected = adf_test_per_lag(series)
                except SingularityError:
                    assert _raised(adf_test, series) == _raised(adf_test_per_lag, series)
                    raised[units] += 1
                    continue
                assert_adf_close(adf_test(series), expected)
                chosen.add(expected.chosen_lag)
    assert raised == {"2^45 + 2^40 y": 2 * len(seeds)}
    if kind == "ar_increments":
        assert chosen != {0}


def test_adf_factors_once_and_refits_nothing(monkeypatch):
    calls = []

    def counting_qr(a, *args, _qr=np.linalg.qr, **kwargs):
        calls.append((np.shape(a), kwargs.get("mode")))
        return _qr(a, *args, **kwargs)

    def no_refit(*args, **kwargs):
        raise AssertionError("adf_test refit a lag with ols_qr")

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(_ols, "ols_qr", no_refit)
    monkeypatch.setattr(unit_root, "ols_qr", no_refit, raising=False)
    y = _series("ar_increments", 0, 2500)
    outcome = adf_test(y)
    assert outcome.chosen_lag > 0
    assert calls == [((2500 - 1 - schwert_max_lag(2500), schwert_max_lag(2500) + 3), "r")]


def _var_panel(seed, m, cointegrated, T=1000):
    rng = np.random.default_rng(seed)
    Y = np.cumsum(rng.standard_normal((T, m)), axis=0)
    if cointegrated:
        Y[:, -1] = Y[:, 0] - 0.5 * Y[:, 1] + _ar1(rng, T, 0.9)
    return Y


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("cointegrated", [False, True])
def test_select_var_lag_matches_per_lag_loop(m, cointegrated):
    for seed in range(5):
        Y = _var_panel(seed, m, cointegrated)
        assert select_var_lag(Y, 10) == select_var_lag_per_lag(Y, 10)


def test_adf_rank_deficient_raises_like_per_lag_loop():
    y = np.tile([1.0, 2.0], 50)
    raised = _raised(adf_test, y, 4)
    assert raised == _raised(adf_test_per_lag, y, 4)
    assert raised == (RankDeficientError, "regressor matrix is rank deficient")


def test_adf_too_few_observations_raises_like_per_lag_loop():
    # 9 observations in the common sample: lag 7 has 9 regressors
    y = np.cumsum(np.random.default_rng(0).standard_normal(40))
    raised = _raised(adf_test, y, 30)
    assert raised == _raised(adf_test_per_lag, y, 30)
    assert raised == (SingularityError, "9 observations for 9 regressors")


def test_ols_qr_counts_a_nan_design_as_rank_deficient():
    X = np.column_stack([np.ones(50), np.arange(50.0)])
    X[7, 1] = np.nan
    raised = _raised(ols_qr, X, np.arange(50.0))
    assert raised == (RankDeficientError, "regressor matrix is rank deficient")


def test_var_rank_deficient_raises_like_per_lag_loop():
    walk = np.cumsum(np.random.default_rng(1).standard_normal(500))
    Y = np.column_stack([walk, walk])
    raised = _raised(select_var_lag, Y, 5)
    assert raised == _raised(select_var_lag_per_lag, Y, 5)
    assert raised == (RankDeficientError, "regressor matrix is rank deficient")


def test_var_too_few_observations_raises_like_per_lag_loop():
    # one series, n = 30 observations: lag 29 has 1 + 29 = 30 regressors
    Y = np.cumsum(np.random.default_rng(2).standard_normal((70, 1)), axis=0)
    raised = _raised(select_var_lag, Y, 40)
    assert raised == _raised(select_var_lag_per_lag, Y, 40)
    assert raised == (SingularityError, "30 observations for 30 regressors")


def _feasible(T, m, var_max_lag=10):
    """The max lag `fit_subset` gives a subset of width m."""
    return max(1, min(var_max_lag, (T - 30) // m, (T - 2) // (m + 1)))


def _six_panel(seed, T, degenerate=None):
    """Five walks with AR(0..0.8) increments and one cointegrated column.

    `degenerate` overwrites column 4 with a copy of column 1, a scaled
    copy, or a constant.
    """
    rng = np.random.default_rng(seed)
    walks = [np.cumsum(_ar1(rng, T, phi)) for phi in (0.0, 0.3, 0.5, 0.6, 0.8)]
    Y = np.column_stack(walks + [walks[0] - 0.5 * walks[1] + _ar1(rng, T, 0.7)])
    if degenerate == "duplicate":
        Y[:, 4] = Y[:, 1]
    elif degenerate == "scaled duplicate":
        Y[:, 4] = 2.5 * Y[:, 1]
    elif degenerate == "constant":
        Y[:, 4] = 3.0
    return Y


def _outcome(fn, *args):
    try:
        return fn(*args)
    except SingularityError as exc:
        return "raised", str(exc)


@pytest.mark.parametrize(
    "T, degenerate",
    [(60, None), (250, None), (600, None), (300, "duplicate"),
     (300, "scaled duplicate"), (300, "constant")],
)
def test_every_subset_lag_matches_per_lag_loop(T, degenerate):
    chosen, feasible = set(), set()
    for seed in range(2):
        Y = _six_panel(seed, T, degenerate)
        lags = VarLagSelector(Y)
        for subset in enumerate_combinations(6, 2, 4):
            max_lag = _feasible(T, len(subset))
            expected = _outcome(select_var_lag_per_lag, Y[:, subset], max_lag)
            (lag,), (failure,) = lags.select_many([subset], max_lag)
            assert (("raised", failure) if failure else lag) == expected, subset
            chosen.add(expected)
            feasible.add(max_lag)
    if degenerate is None:
        assert max(chosen) > 1
    if T == 60:
        assert feasible == {10, 7}
    if degenerate is not None:
        assert ("raised", "regressor matrix is rank deficient") in chosen


def _price_panel(Y):
    T, m = Y.shape
    return PricePanel(
        dates=trading_days(dt.date(2008, 1, 2), T),
        prices=(1000.0 + Y).T,
        instrument_ids=tuple(f"S{i}" for i in range(m)),
    )


def test_scan_marks_only_subsets_with_both_copies_singular():
    panel = _price_panel(_six_panel(0, 300, "duplicate"))
    rows = scan_cointegration(panel, orders=[IntegrationOrder.I1] * 6)
    singular = {r.subset for r in rows if r.skipped_reason == "singular"}
    assert singular == {r.subset for r in rows if {"S1", "S4"} <= set(r.subset)}
    assert all(r.skipped_reason is None for r in rows if r.subset not in singular)


@pytest.mark.parametrize(
    "T, var_max_lag, expected_factors", [(500, 10, 1), (60, 10, 2)]
)
def test_scan_factors_the_panel_once_per_feasible_lag(
    monkeypatch, T, var_max_lag, expected_factors
):
    # Four instruments keep W and V taller than wide, so each subset's QR
    # of a slice of R_W or R_V has fewer rows than the sample. Lag
    # selection and the Johansen step factor with mode "r"; the half-life
    # fits use "reduced". Each call is counted under the function that
    # made it. A full-length factor has n = T - p rows at lag p: one R_W
    # per feasible max lag and one R_V per chosen lag, none per subset.
    Y = _six_panel(1, T)[:, [0, 1, 2, 5]]
    panel = _price_panel(Y)
    subsets = enumerate_combinations(4, 2, 4)
    chosen = {
        select_var_lag_per_lag(Y[:, s], _feasible(T, len(s), var_max_lag))
        for s in subsets
    }
    calls = []

    def counting_qr(a, *args, _qr=np.linalg.qr, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        calls.append((np.shape(a), kwargs.get("mode"), caller))
        return _qr(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    rows = scan_cointegration(
        panel, var_max_lag=var_max_lag, orders=[IntegrationOrder.I1] * 4
    )
    assert len(rows) == 11 and all(r.skipped_reason is None for r in rows)
    full_length = [
        (shape, caller)
        for shape, mode, caller in calls
        if mode == "r" and shape[-2] >= T - var_max_lag
    ]
    assert all(len(shape) == 2 for shape, _ in full_length)  # no stacks
    assert Counter(caller for _, caller in full_length) == {
        "_factor": expected_factors, "_vecm_factor": len(chosen)
    }
    vecm_shapes = [shape for shape, caller in full_length if caller == "_vecm_factor"]
    assert {T - n for n, _ in vecm_shapes} == chosen
