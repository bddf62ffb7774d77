"""The one-QR Johansen step against the two-fit construction it replaced.

`johansen_test` takes S00, S11 and S01 from the trailing block of one
R-only QR of [Z | dY_t | Y_{t-p}]. The reference below residualizes dY_t
and Y_{t-p} on Z with two `ols_qr` fits, as the engine once did, and forms
the moments from the residuals. Both must give the same rank, lag and
sample size, the same eigenvalues, trace statistics and hedge ratio up to
rounding, and the same exception for a degenerate input.
"""

import numpy as np
import pytest
from scipy import linalg as sla

from conftest import ar1, error_of, ols_qr, price_panel
from mrpairs import cointegration
from mrpairs.cointegration import extract_hedge_ratio, johansen_test
from mrpairs.errors import DegenerateInputError, RankDeficientError, ValidationError

RTOL = 1e-9


def johansen_trace_two_fits(Y, var_lag):
    """Johansen eigenproblem from explicit residuals R0 and R1."""
    Y = np.asarray(Y, dtype=float)
    T, m = Y.shape
    p = var_lag
    k = p - 1
    if p < 1:
        raise ValidationError("var_lag must be at least 1")
    if T < m * p + 30:
        raise ValidationError(f"need T >= m*var_lag + 30, got T={T}")
    dY = np.diff(Y, axis=0)
    n = T - p
    cols = [np.ones((n, 1))]
    for i in range(1, k + 1):
        cols.append(dY[p - 1 - i : T - 1 - i])
    Z = np.hstack(cols)
    r0 = ols_qr(Z, dY[p - 1 :]).residuals
    r1 = ols_qr(Z, Y[: T - p]).residuals
    s00 = r0.T @ r0 / n
    s11 = r1.T @ r1 / n
    s01 = r0.T @ r1 / n
    if np.linalg.cond(s00) > 1e12 or np.linalg.cond(s11) > 1e12:
        raise DegenerateInputError("singular moment matrix in Johansen step")
    core = s01.T @ np.linalg.solve(s00, s01)
    core = (core + core.T) / 2.0
    eigvals, eigvecs = sla.eigh(core, (s11 + s11.T) / 2.0)
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, 1.0 - 1e-15)
    eigvecs = eigvecs[:, order]
    trace = -n * np.log(1.0 - eigvals)[::-1].cumsum()[::-1]
    return eigvals, eigvecs, trace, n


def _levels(seed, T, m, cointegrated):
    """m walks with AR(1) increments; the last one tied to the others."""
    rng = np.random.default_rng(seed)
    Y = np.column_stack([np.cumsum(ar1(rng, T, 0.3)) for _ in range(m)])
    if cointegrated:
        weights = np.array([1.0, -0.5, 0.3])[: m - 1]
        Y[:, -1] = Y[:, :-1] @ weights + ar1(rng, T, 0.5)
    return Y


def _reference_test(panel, var_lag):
    eigvals, eigvecs, trace, n = johansen_trace_two_fits(panel.prices.T, var_lag)
    m = len(eigvals)
    cvs = np.array([cointegration.JOHANSEN_TRACE_CV_95[m - r] for r in range(m)])
    rank = next((r for r in range(m) if trace[r] <= cvs[r]), m)
    return cointegration.JohansenOutcome(
        panel.instrument_ids, eigvals, eigvecs, trace, cvs, rank, var_lag - 1, n
    )


@pytest.mark.parametrize("T", [60, 250, 2500])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("cointegrated", [False, True])
def test_matches_two_fit_construction(T, m, cointegrated):
    hedged = 0
    for var_lag in (1, 2, 3):
        for seed in range(3):
            panel = price_panel(_levels(seed, T, m, cointegrated))
            got = johansen_test(panel, var_lag)
            want = _reference_test(panel, var_lag)
            assert (got.rank, got.vecm_lag, got.n_obs) == (
                want.rank, want.vecm_lag, want.n_obs
            )
            np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=RTOL)
            np.testing.assert_allclose(
                got.trace_statistics, want.trace_statistics, rtol=RTOL
            )
            if want.rank >= 1:
                np.testing.assert_allclose(
                    extract_hedge_ratio(got), extract_hedge_ratio(want), rtol=RTOL
                )
                hedged += 1
    if cointegrated:
        assert hedged > 0


def _duplicate(Y):
    Y[:, 1] = Y[:, 0]
    return Y


def _constant(Y):
    Y[:, 1] = 3.0
    return Y


@pytest.mark.parametrize(
    "T, m, var_lag, degenerate, expected",
    [
        (300, 3, 1, _duplicate,
         (DegenerateInputError, "singular moment matrix in Johansen step")),
        (300, 3, 2, _duplicate, (RankDeficientError, "regressor matrix is rank deficient")),
        (110, 2, 40, None, (DegenerateInputError, "70 observations for 79 regressors")),
        (300, 3, 2, _constant, (RankDeficientError, "regressor matrix is rank deficient")),
    ],
)
def test_raises_like_two_fit_construction(T, m, var_lag, degenerate, expected):
    Y = _levels(0, T, m, cointegrated=False)
    if degenerate is not None:
        Y = degenerate(Y)
    raised = error_of(johansen_test, price_panel(Y), var_lag)
    assert raised == error_of(johansen_trace_two_fits, Y, var_lag)
    assert raised == expected
