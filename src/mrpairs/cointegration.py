"""Johansen cointegration scan over instrument subsets of size 2 to 4.

The VAR lag p is selected in levels by the Schwarz criterion. A scan
factors the panel-wide max-lag design [1, Y_{t-1..p}, Y_t] once (one thin
QR per distinct max lag); each subset's design is a column subset of it,
so a QR of the matching columns of the small R factor yields every
candidate lag's residual covariance for that subset
(`VarLagSelector`, `_ols.nested_residual_moments`). The VECM then uses
k = p - 1 lagged differences with the long-run layout: the levels enter at
the longest lag,

    dY_t = Pi * Y_{t-p} + G_1*dY_{t-1} + ... + G_k*dY_{t-k} + mu + e_t.

The constant is unrestricted (drift in the VAR, no trend in the
cointegrating relation). Reduced-rank estimation takes the moment matrices
S_ij = R_i'R_j/n of R0 (differences net of the short-run terms Z) and R1
(lagged levels net of the same) from the trailing block of one R-only QR
of [Z | dY_t | Y_{t-p}] (`_ols.nested_residual_moments`), and solves the
generalized eigenproblem det(l*S11 - S10*S00^-1*S01) = 0. The trace
statistic for rank <= r is -n * sum_{i>r} ln(1 - l_i).

`fit_subset` is the one recipe for a subset: lag selection, Johansen
test, and at rank >= 1 the hedge ratio, spread and half-life. The scan and
the CLI both use it.

Critical values below are the 95% quantiles of the trace statistic under
driftless random walks with this exact construction, estimated by Monte
Carlo at T=1000 (see `simulate_johansen_null_trace` and the
`verify-critical-values` CLI command). For m - r = 1 the walks come from
`unit_root.null_walk_batches`, shared with the ADF null simulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import linalg as sla

from ._ols import nested_residual_moments
from .errors import (
    JohansenSingularityError,
    NoCointegrationError,
    SingularityError,
    ValidationError,
)
from .market_data import PricePanel
from .spread_dynamics import SpreadSeries, compute_spread, estimate_half_life
from .unit_root import IntegrationOrder, classify_integration_order, null_walk_batches

# 95% trace critical values indexed by m - r (number of common trends under
# the null), for the unrestricted-constant, no-trend case. Monte Carlo
# estimates (100k-200k reps, T=1000) with this exact construction; the
# m-r=1 entry equals the square of the 5% drift-case Dickey-Fuller point
# (2.86^2 = 8.18) and the set agrees with the published table for this
# case (8.18, 17.95, 31.52, 49.65) up to finite-sample shift.
JOHANSEN_TRACE_CV_95 = {
    1: 8.18,
    2: 18.12,
    3: 31.91,
    4: 49.75,
}

_MAX_COND = 1e12


def enumerate_combinations(
    n: int, min_size: int = 2, max_size: int = 4
) -> list[tuple[int, ...]]:
    """All index subsets of sizes min..max in lexicographic order.

    max_size is capped at n, so asking for sizes 2..4 of 2 instruments
    yields just the single pair.
    """
    if min_size < 2:
        raise ValidationError("min_size must be at least 2")
    if max_size < min_size or n < min_size:
        raise ValidationError("need min_size <= max_size and min_size <= n")
    out: list[tuple[int, ...]] = []
    for size in range(min_size, min(max_size, n) + 1):
        out.extend(itertools.combinations(range(n), size))
    return out


class VarLagSelector:
    """Schwarz-criterion VAR lags for subsets of one panel's instruments.

    For a max lag p, W = [1, Y_{t-1}, ..., Y_{t-p}, Y_t] stacks the lagged
    levels of all N instruments in lag-major order, n = T - p rows by
    1 + (p+1)*N columns. W is factored once, W = Q*R_W, the first time p
    is asked for. A subset's design [X | Y] is the column subset W[:, c] =
    Q*R_W[:, c], so a QR of the small R_W[:, c] gives the subset's own R
    factor, and with it every candidate lag's residual covariance
    (`_ols.nested_residual_moments`).
    """

    def __init__(self, panel: PricePanel | np.ndarray):
        # (T, N), observation-major; a panel's transpose is a view, not a copy
        if isinstance(panel, PricePanel):
            self._levels = panel.prices.T
        else:
            self._levels = np.asarray(panel, float)
        _, self.n_instruments = self._levels.shape
        self._factors: dict[int, np.ndarray] = {}  # max lag -> R_W

    def select(self, columns: Sequence[int], max_lag: int) -> int:
        """VAR lag of the instruments at `columns`, in that order.

        SC(p) = ln det(Sigma_e) + (ln n / n) * (p*m^2 + m), all candidates
        fit on the common sample left after trimming max_lag observations.
        Ties go to the smaller lag.
        """
        T, N = self._levels.shape
        m = len(columns)
        if max_lag < 1:
            raise ValidationError("max_lag must be at least 1")
        if T < m * max_lag + 30:
            raise ValidationError(
                f"need T >= m*max_lag + 30, got T={T}, m={m}, max_lag={max_lag}"
            )
        if max_lag not in self._factors:
            self._factors[max_lag] = self._factor(max_lag)
        r_w = self._factors[max_lag]
        picked = [0] + [1 + i * N + j for i in range(max_lag + 1) for j in columns]
        r = np.linalg.qr(r_w[:, picked], mode="r")
        n = T - max_lag
        widths = [1 + p * m for p in range(1, max_lag + 1)]
        moments = nested_residual_moments(r, n, 1 + max_lag * m, widths)
        best_p, best_sc = None, None
        for p, cross in enumerate(moments, start=1):
            sigma = cross / n
            sign, logdet = np.linalg.slogdet(sigma)
            if sign <= 0:
                raise SingularityError("singular residual covariance in VAR fit")
            sc = logdet + (math.log(n) / n) * (p * m * m + m)
            if best_sc is None or sc < best_sc:
                best_p, best_sc = p, sc
        return best_p

    def _factor(self, max_lag: int) -> np.ndarray:
        """R_W for max lag p.

        W is filled column-major and factored in place, so the one
        n x (1 + (p+1)*N) array is its only copy; `np.linalg.qr` would add
        two more.
        """
        Y = self._levels
        T, N = Y.shape
        W = np.empty((T - max_lag, 1 + (max_lag + 1) * N), order="F")
        W[:, 0] = 1.0
        for i in range(1, max_lag + 1):
            W[:, 1 + (i - 1) * N : 1 + i * N] = Y[max_lag - i : T - i]
        W[:, 1 + max_lag * N :] = Y[max_lag:]
        _, r_w = sla.qr(W, mode="raw", overwrite_a=True, check_finite=False)
        return r_w


def select_var_lag(panel: PricePanel | np.ndarray, max_lag: int) -> int:
    """VAR lag in levels minimizing the Schwarz criterion.

    Factors this panel's lagged-levels design and selects for all of its
    columns; see `VarLagSelector`, which a scan shares across subsets.
    """
    lags = VarLagSelector(panel)
    return lags.select(range(lags.n_instruments), max_lag)


@dataclass(frozen=True)
class JohansenOutcome:
    """Eigen-decomposition and trace tests for one instrument subset."""

    subset: tuple[str, ...]
    eigenvalues: np.ndarray          # descending, in [0, 1)
    eigenvectors: np.ndarray         # column i pairs with eigenvalues[i]
    trace_statistics: np.ndarray     # null: rank <= 0 .. rank <= m-1
    critical_values_95: np.ndarray
    rank: int
    vecm_lag: int
    n_obs: int


@dataclass(frozen=True)
class CointegratedPortfolio:
    """A tradeable stationary combination extracted from a Johansen test."""

    subset: tuple[str, ...]
    hedge_ratio: np.ndarray
    spread: SpreadSeries
    half_life_days: float  # math.inf marks no measured mean reversion


def johansen_trace_from_levels(Y: np.ndarray, var_lag: int):
    """Eigenvalues, eigenvectors and trace statistics for levels Y (T x m)."""
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
    kz = 1 + k * m                           # Z = [1, dY_{t-1}, ..., dY_{t-k}]
    cols = [np.ones((n, 1))]
    for i in range(1, k + 1):
        cols.append(dY[p - 1 - i : T - 1 - i])
    cols += [dY[p - 1 :], Y[: T - p]]        # dY_t, Y_{t-p} for t = p..T-1
    r = np.linalg.qr(np.hstack(cols), mode="r")
    (cross,) = nested_residual_moments(r, n, kz, [kz])
    s00, s11, s01 = cross[:m, :m] / n, cross[m:, m:] / n, cross[:m, m:] / n
    if np.linalg.cond(s00) > _MAX_COND or np.linalg.cond(s11) > _MAX_COND:
        raise SingularityError("singular moment matrix in Johansen step")
    core = s01.T @ np.linalg.solve(s00, s01)
    core = (core + core.T) / 2.0
    try:
        eigvals, eigvecs = sla.eigh(core, (s11 + s11.T) / 2.0)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded above
        raise SingularityError("generalized eigenproblem failed") from exc
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, 1.0 - 1e-15)
    eigvecs = eigvecs[:, order]
    tails = np.log(1.0 - eigvals)[::-1].cumsum()[::-1]  # sum over i >= r
    trace = -n * tails
    return eigvals, eigvecs, trace, n


def johansen_test(panel: PricePanel, var_lag: int) -> JohansenOutcome:
    """Johansen trace test with unrestricted constant, VECM lag = var_lag - 1."""
    m = panel.n_instruments
    if not 2 <= m <= 4:
        raise ValidationError(f"Johansen subset width must be 2..4, got {m}")
    eigvals, eigvecs, trace, n = johansen_trace_from_levels(panel.prices.T, var_lag)
    cvs = np.array([JOHANSEN_TRACE_CV_95[m - r] for r in range(m)])
    rank = m
    for r in range(m):
        if trace[r] <= cvs[r]:
            rank = r
            break
    return JohansenOutcome(
        subset=panel.instrument_ids,
        eigenvalues=eigvals,
        eigenvectors=eigvecs,
        trace_statistics=trace,
        critical_values_95=cvs,
        rank=rank,
        vecm_lag=var_lag - 1,
        n_obs=n,
    )


def extract_hedge_ratio(outcome: JohansenOutcome) -> np.ndarray:
    """Eigenvector of the largest eigenvalue, first nonzero component = +1."""
    if outcome.rank < 1:
        raise NoCointegrationError(
            f"subset {outcome.subset} has cointegration rank 0"
        )
    v = np.array(outcome.eigenvectors[:, 0], dtype=float)
    scale = np.max(np.abs(v))
    if scale == 0.0:
        raise SingularityError("zero eigenvector")
    pivot = None
    for component in v:
        if abs(component) > 1e-12 * scale:
            pivot = component
            break
    return v / pivot


def fit_subset(
    sub: PricePanel, var_max_lag: int
) -> tuple[JohansenOutcome, CointegratedPortfolio | None]:
    """Johansen test of one subset and, at rank >= 1, its portfolio.

    The VAR lag is chosen up to var_max_lag, capped at the largest lag
    `select_var_lag` accepts for the subset's length. A singular lag
    selection or Johansen step raises JohansenSingularityError; errors of
    the hedge, spread and half-life steps propagate as they are.
    """
    columns = range(sub.n_instruments)
    return _fit_subset(sub, var_max_lag, VarLagSelector(sub), columns)


def _fit_subset(
    sub: PricePanel, var_max_lag: int, lags: VarLagSelector, columns: Sequence[int]
) -> tuple[JohansenOutcome, CointegratedPortfolio | None]:
    """`fit_subset`, with the VAR lag from `lags` for the instruments at `columns`."""
    feasible = max(1, min(var_max_lag, (sub.n_dates - 30) // sub.n_instruments))
    try:
        outcome = johansen_test(sub, lags.select(columns, feasible))
    except SingularityError as exc:
        raise JohansenSingularityError(str(exc)) from exc
    if outcome.rank < 1:
        return outcome, None
    hedge = extract_hedge_ratio(outcome)
    spread = compute_spread(sub, hedge)
    portfolio = CointegratedPortfolio(
        subset=outcome.subset,
        hedge_ratio=hedge,
        spread=spread,
        half_life_days=estimate_half_life(spread).half_life_days,
    )
    return outcome, portfolio


@dataclass(frozen=True)
class ScanRow:
    """One subset's line in the scan report."""

    subset: tuple[str, ...]
    skipped_reason: str | None
    rank: int | None
    top_eigenvalue: float | None
    hedge_ratio: np.ndarray | None
    half_life_days: float | None


def scan_cointegration(
    panel: PricePanel,
    min_size: int = 2,
    max_size: int = 4,
    var_max_lag: int = 10,
    adf_max_lag: int | None = None,
    orders: Sequence[IntegrationOrder] | None = None,
) -> list[ScanRow]:
    """Test every instrument subset; rows come back in enumeration order.

    Subsets whose members are not all I(1) are skipped, not tested. The
    report order is fixed by the enumeration. Every subset's VAR lag comes
    from one factor of the whole panel per distinct feasible max lag.
    """
    if orders is None:
        orders = [
            classify_integration_order(panel.prices[i], max_lag=adf_max_lag)
            for i in range(panel.n_instruments)
        ]
    lags = VarLagSelector(panel)
    rows: list[ScanRow] = []
    for subset in enumerate_combinations(panel.n_instruments, min_size, max_size):
        ids = tuple(panel.instrument_ids[i] for i in subset)
        if any(orders[i] is not IntegrationOrder.I1 for i in subset):
            rows.append(ScanRow(ids, "not all I(1)", None, None, None, None))
            continue
        try:
            outcome, portfolio = _fit_subset(
                panel.subpanel(subset), var_max_lag, lags, subset
            )
        except JohansenSingularityError:
            rows.append(ScanRow(ids, "singular", None, None, None, None))
            continue
        if portfolio is None:
            hedge, half_life = None, None
        else:
            hedge, half_life = portfolio.hedge_ratio, portfolio.half_life_days
        top = float(outcome.eigenvalues[0])
        rows.append(ScanRow(ids, None, outcome.rank, top, hedge, half_life))
    return rows


def simulate_johansen_null_trace(
    n_draws: int,
    sample_size: int = 1000,
    dim: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Trace statistics (rank <= 0) for independent driftless random walks.

    dim=1 is fully vectorized (the eigenvalue is the squared correlation of
    the demeaned level and change); higher dimensions loop over draws. Used
    to verify the embedded critical values.
    """
    if dim == 1:
        out = []
        for xc, dc in null_walk_batches(n_draws, sample_size, seed):
            lam = np.sum(xc * dc, axis=1) ** 2 / (
                np.sum(xc * xc, axis=1) * np.sum(dc * dc, axis=1)
            )
            out.append(-xc.shape[1] * np.log1p(-lam))
        return np.concatenate(out)
    rng = np.random.default_rng(seed)
    out = np.empty(n_draws)
    for i in range(n_draws):
        y = np.cumsum(rng.standard_normal((sample_size, dim)), axis=0)
        _, _, trace, _ = johansen_trace_from_levels(y, var_lag=1)
        out[i] = trace[0]
    return out
