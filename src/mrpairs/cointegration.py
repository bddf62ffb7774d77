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
(lagged levels net of the same) from the trailing block of the R factor
of [Z | dY_t | Y_{t-p}] (`_ols.nested_residual_moments`), and solves the
generalized eigenproblem det(l*S11 - S10*S00^-1*S01) = 0. The trace
statistic for rank <= r is -n * sum_{i>r} ln(1 - l_i). That design, too,
is a column subset of the panel-wide one, V = [1, dY_{t-1..t-k}, dY_t,
Y_{t-p}], factored once per distinct chosen lag. Of the lag and Johansen
work, only these panel factors grow with T.

Subsets are fit in stacks: by width m for lag selection
(`VarLagSelector.select_many`: one stacked QR of the R_W column subsets,
stacked slogdets) and by (m, p) for the Johansen step (`_johansen_stack`:
one stacked QR of the R_V column subsets, then stacked moments, cond,
solve, Cholesky and eigh). numpy's stacked linear algebra runs the same
LAPACK call on each matrix of a stack as on that matrix alone, so within
one scan every figure is bit-identical whatever the stack and chunk
sizes. Through the shared factors a subset's rounding depends on the
other tested columns: its figures are within about 1e-12 relative of a
fit of that subset alone. A check that fails for one subset becomes that
subset's message, in the order the single fit would raise it; the single
fits (`select_var_lag`, `johansen_test`) are stacks of one that raise it.
Each stack is processed in chunks under `_CHUNK_BYTES` (0.5 MB), so the
working set is bounded whatever the number of subsets.

`_fit_subsets` is the one recipe for subsets: the I(1) screen, lag
selection, Johansen test, and at rank >= 1 the hedge ratio, spread and
half-life. The scan runs it over every subset, on slices of factors of
every tested series; `backtest.trade_subset` runs it over one subset on
that subset's own columns, so their figures differ as above. Ranks come
from one comparison per Johansen stack against one read-only
critical-value array per width. The portfolio steps of the rank >= 1 subsets run as stacks too
(`_portfolios`, chunked under `_CHUNK_BYTES` like the rest): one stack
each of hedge ratios, spreads, z-scores and half-lives, every figure
bit-identical to a stack of one. A subset's steps fail on a zero top
eigenvector, then a flat spread, then the half-life fit (`half_life_rows`);
the first ranked subset in enumeration order with a failing step raises
that step's error, as running the steps one subset at a time would.

Critical values below are the 95% quantiles of the trace statistic under
driftless random walks with this exact construction, estimated by Monte
Carlo at T=1000 (see `simulate_johansen_null_trace` and the
`verify-critical-values` CLI command). Its walks come from
`unit_root.null_walk_batches`, shared with the ADF null simulation, and
for m - r >= 2 its statistics from the scan's own `_johansen_stack`, each
draw's R from a QR of its own design, since its panel of unrelated walks
is too wide to factor whole.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ._ols import VAR_SPARE_OBS, failure_error, first_failures, nested_residual_moments, r_factor
from .errors import DegenerateInputError, ValidationError
from .market_data import PricePanel
from .spread_dynamics import SpreadSeries, half_life_rows, zscore_rows
from .unit_root import NO_TEST, IntegrationOrder, classify_integration_order, null_walk_batches

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
# A stack of subsets is fit in chunks whose stacked design stays under this
# many bytes, so a scan's working set does not grow with its subset count.
_CHUNK_BYTES = 512 * 1024


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


def _chunks(n_items: int, item_bytes: int) -> Iterator[slice]:
    """Slices of a stack whose arrays stay under `_CHUNK_BYTES` each."""
    step = max(1, _CHUNK_BYTES // item_bytes)
    for start in range(0, n_items, step):
        yield slice(start, start + step)


def _sliced_factors(
    r_panel: np.ndarray, subsets: np.ndarray, n_blocks: int
) -> Iterator[tuple[slice, np.ndarray]]:
    """Chunks of `subsets` and the R factors of their designs, stacked.

    `r_panel` factors a lag-major panel design D = Q*R: a ones column, then
    `n_blocks` blocks of one column per instrument. A subset's design is
    D[:, c] = Q*R[:, c] for its columns c, so a QR of R[:, c] factors it.
    Each R[:, c] is gathered as rows of R', so it is column-major for LAPACK.
    """
    B, N = len(subsets), (r_panel.shape[1] - 1) // n_blocks
    blocks = [1 + i * N + subsets for i in range(n_blocks)]
    picked = np.hstack([np.zeros((B, 1), np.intp)] + blocks)
    for chunk in _chunks(B, 8 * r_panel.shape[0] * picked.shape[1]):
        sliced = np.take(r_panel.T, picked[chunk], axis=0).mT
        yield chunk, np.linalg.qr(sliced, mode="r")


class VarLagSelector:
    """Schwarz-criterion VAR lags for subsets of one panel's instruments.

    For a max lag p, W = [1, Y_{t-1}, ..., Y_{t-p}, Y_t] stacks the lagged
    levels of all N instruments in lag-major order, n = T - p rows by
    1 + (p+1)*N columns. W is factored once, W = Q*R_W, the first time p
    is asked for. A subset's design [X | Y] is the column subset W[:, c] =
    Q*R_W[:, c], so a QR of the small R_W[:, c] gives the subset's own R
    factor, and with it every candidate lag's residual covariance
    (`_ols.nested_residual_moments`). `select_many` factors equal-width
    subsets as stacks. Each subset's Johansen design is likewise a column
    subset of the panel's VECM design V (`_vecm_factor`).
    """

    def __init__(self, panel: PricePanel | np.ndarray):
        # (T, N), observation-major; a panel's transpose is a view, not a copy
        if isinstance(panel, PricePanel):
            self.levels = panel.prices.T
        else:
            self.levels = np.asarray(panel, float)
        _, self.n_instruments = self.levels.shape
        self._factors: dict[int, np.ndarray] = {}  # max lag -> R_W
        self._vecm_factors: dict[int, np.ndarray] = {}  # VAR lag -> R_V

    def select_many(
        self, subsets: Sequence[Sequence[int]], max_lag: int
    ) -> tuple[np.ndarray, list[str | None]]:
        """VAR lags of equal-width subsets of instruments, with failures as messages.

        SC(p) = ln det(Sigma_e) + (ln n / n) * (p*m^2 + m), all candidates
        fit on the common sample left after trimming max_lag observations.
        Ties go to the smaller lag. Returns each subset's lag, and the
        message of its first failing check, in order, or None.
        """
        T = self.levels.shape[0]
        columns = np.asarray(subsets, dtype=np.intp)
        B, m = columns.shape
        if max_lag < 1:
            raise ValidationError("max_lag must be at least 1")
        if T < m * max_lag + VAR_SPARE_OBS:
            raise ValidationError(
                f"need T >= m*max_lag + {VAR_SPARE_OBS}, got T={T}, m={m}, max_lag={max_lag}"
            )
        if max_lag not in self._factors:
            self._factors[max_lag] = self._factor(max_lag)
        n = T - max_lag
        lag_range = range(1, max_lag + 1)
        widths = [1 + p * m for p in lag_range]
        penalty = np.array([(math.log(n) / n) * (p * m * m + m) for p in lag_range])
        lags = np.zeros(B, np.intp)
        failures: list[str | None] = []
        for chunk, r in _sliced_factors(self._factors[max_lag], columns, max_lag + 1):
            moments, failed = nested_residual_moments(r, n, 1 + max_lag * m, widths)
            # A failed fit's moments may not be finite, or may be exactly zero.
            with np.errstate(divide="ignore", invalid="ignore"):
                sign, logdet = np.linalg.slogdet(moments / n)
            singular = (failed == "") & (sign <= 0)
            failed[singular] = "singular residual covariance in VAR fit"
            failures += first_failures(failed)
            # The first minimum, so ties keep the smaller lag; a failed
            # subset's lag is never read.
            lags[chunk] = np.argmin(logdet + penalty, axis=1) + 1
        return lags, failures

    def _factor(self, max_lag: int) -> np.ndarray:
        """R_W for max lag p.

        W, n x (1 + (p+1)*N), is filled column-major and factored in
        place (`_ols.r_factor`), so factoring needs no second copy of it.
        """
        Y = self.levels
        T, N = Y.shape
        W = np.empty((T - max_lag, 1 + (max_lag + 1) * N), order="F")
        W[:, 0] = 1.0
        for i in range(1, max_lag + 1):
            W[:, 1 + (i - 1) * N : 1 + i * N] = Y[max_lag - i : T - i]
        W[:, 1 + max_lag * N :] = Y[max_lag:]
        return r_factor(W)

    def _vecm_factor(self, var_lag: int) -> np.ndarray:
        """R_V for VAR lag p, factored the first time p is asked for.

        V is the VECM design of all N instruments, lag-major like W; the
        transpose of its one-subset stack is column-major and is factored in
        place.
        """
        if var_lag not in self._vecm_factors:
            everything = np.arange(self.n_instruments)[None]
            V = _vecm_designs(self.levels, everything, var_lag)[0].T
            self._vecm_factors[var_lag] = r_factor(V)
        return self._vecm_factors[var_lag]


def select_var_lag(panel: PricePanel | np.ndarray, max_lag: int) -> int:
    """VAR lag in levels minimizing the Schwarz criterion.

    Factors this panel's lagged-levels design and selects for all of its
    columns; see `VarLagSelector`, which a scan shares across subsets.
    """
    lags = VarLagSelector(panel)
    (lag,), (failure,) = lags.select_many([range(lags.n_instruments)], max_lag)
    if failure:
        raise failure_error(failure)
    return int(lag)


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

    hedge_ratio: np.ndarray
    spread: SpreadSeries
    half_life_days: float  # math.inf marks no measured mean reversion


def _vecm_designs(levels: np.ndarray, subsets: np.ndarray, var_lag: int) -> np.ndarray:
    """[Z | dY_t | Y_{t-p}], t = p..T-1, of B subsets: (B, 1 + (p+1)*m, T - p).

    Z = [1, dY_{t-1}, ..., dY_{t-k}], k = p - 1; columns are lag-major.
    """
    T = levels.shape[0]
    m = subsets.shape[1]
    p = var_lag
    kz = 1 + (p - 1) * m
    Y = levels.T[subsets]                    # (B, m, T)
    dY = np.diff(Y, axis=-1)
    design = np.empty((len(Y), kz + 2 * m, T - p))
    design[:, 0] = 1.0
    for i in range(1, p):
        design[:, 1 + (i - 1) * m : 1 + i * m] = dY[:, :, p - 1 - i : T - 1 - i]
    design[:, kz : kz + m] = dY[:, :, p - 1 :]
    design[:, kz + m :] = Y[:, :, : T - p]
    return design


def _johansen_stack(
    levels: np.ndarray, subsets: np.ndarray, var_lag: int, r_v: np.ndarray | None = None
):
    """Johansen eigenproblems of equal-width subsets at one VAR lag.

    `levels` is T x N and `subsets` a B x m array of its column indices.
    Each subset's R is a QR of its columns of `r_v` (the panel's
    `VarLagSelector._vecm_factor`), or without it of its own design.
    Returns eigenvalues (B, m), eigenvectors (B, m, m), trace statistics
    (B, m), the sample size n and per subset the message that
    `johansen_test` would raise for it, or None; a failed subset's rows
    are nan.
    """
    T = levels.shape[0]
    B, m = subsets.shape
    p = var_lag
    if p < 1:
        raise ValidationError("var_lag must be at least 1")
    if T < m * p + VAR_SPARE_OBS:
        raise ValidationError(f"need T >= m*var_lag + {VAR_SPARE_OBS}, got T={T}")
    n = T - p
    kz = 1 + (p - 1) * m                     # Z = [1, dY_{t-1}, ..., dY_{t-k}]
    eigvals, trace = np.full((2, B, m), np.nan)
    eigvecs = np.full((B, m, m), np.nan)
    failures: list[str | None] = []
    if r_v is None:
        factors = (
            (c, np.linalg.qr(_vecm_designs(levels, subsets[c], p).mT, mode="r"))
            for c in _chunks(B, 8 * n * (kz + 2 * m))
        )
    else:
        factors = _sliced_factors(r_v, subsets, p + 1)
    for chunk, r in factors:
        cross, failed = nested_residual_moments(r, n, kz, [kz])
        cross = cross[:, 0]
        s00, s11, s01 = cross[:, :m, :m] / n, cross[:, m:, m:] / n, cross[:, :m, m:] / n
        ill = (np.linalg.cond(s00) > _MAX_COND) | (np.linalg.cond(s11) > _MAX_COND)
        failed[(failed[:, 0] == "") & ill] = "singular moment matrix in Johansen step"
        ok = np.flatnonzero(failed[:, 0] == "")
        if len(ok):
            s00, s11, s01 = s00[ok], s11[ok], s01[ok]
            core = s01.mT @ np.linalg.solve(s00, s01)
            vals, vecs = _generalized_eigh((core + core.mT) / 2.0, (s11 + s11.mT) / 2.0)
            solved = ~np.isnan(vals[:, 0])
            failed[ok[~solved]] = "generalized eigenproblem failed"
            rows = chunk.start + ok[solved]
            vals, vecs = vals[solved], vecs[solved]
            order = np.argsort(vals, axis=-1)[:, ::-1]
            vals = np.clip(np.take_along_axis(vals, order, -1), 0.0, 1.0 - 1e-15)
            eigvals[rows] = vals
            eigvecs[rows] = np.take_along_axis(vecs, order[:, None, :], -1)
            tails = np.log(1.0 - vals)[:, ::-1].cumsum(axis=-1)[:, ::-1]  # i >= r
            trace[rows] = -n * tails
        failures += first_failures(failed)
    return eigvals, eigvecs, trace, n, failures


def _generalized_eigh(a: np.ndarray, b: np.ndarray):
    """Stacked a*v = l*b*v for symmetric a and positive definite b = L*L'.

    The eigenpairs (l, V) of L^-1*a*L^-T give the eigenvectors L^-T*V,
    with V'*b*V = I. A pair it fails on gets nan rows; one failing pair
    fails the whole stack, so a failed stack is retried one pair at a time.
    """
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(b))
        vals, vecs = np.linalg.eigh(l_inv @ a @ l_inv.mT)
        return vals, l_inv.mT @ vecs
    except np.linalg.LinAlgError:
        if len(a) == 1:
            return np.full(a.shape[:2], np.nan), np.full(a.shape, np.nan)
        parts = [_generalized_eigh(a[j : j + 1], b[j : j + 1]) for j in range(len(a))]
        return tuple(np.concatenate(part) for part in zip(*parts))


def _check_width(m: int) -> None:
    if not 2 <= m <= 4:
        raise ValidationError(f"Johansen subset width must be 2..4, got {m}")


def _critical_values(m: int) -> np.ndarray:
    """The 95% trace critical values of the tests rank <= 0 .. m-1, read-only."""
    cvs = np.array([JOHANSEN_TRACE_CV_95[m - r] for r in range(m)])
    cvs.setflags(write=False)
    return cvs


def _ranks(trace: np.ndarray, cvs: np.ndarray) -> np.ndarray:
    """Per row of trace statistics, the first r whose test accepts rank <= r, else m."""
    accepted = trace <= cvs
    return np.where(accepted.any(axis=-1), accepted.argmax(axis=-1), trace.shape[-1])


def johansen_test(panel: PricePanel, var_lag: int) -> JohansenOutcome:
    """Johansen trace test with unrestricted constant, VECM lag = var_lag - 1."""
    _check_width(panel.n_instruments)
    levels, subset = panel.prices.T, np.arange(panel.n_instruments)[None]
    eigvals, eigvecs, trace, n, (failure,) = _johansen_stack(levels, subset, var_lag)
    if failure:
        raise failure_error(failure)
    cvs = _critical_values(panel.n_instruments)
    rank = int(_ranks(trace, cvs)[0])
    return JohansenOutcome(
        panel.instrument_ids, eigvals[0], eigvecs[0], trace[0], cvs, rank, var_lag - 1, n
    )


def rank_zero_error(outcome: JohansenOutcome) -> DegenerateInputError:
    """The error of a subset with no cointegrating relation to trade."""
    return DegenerateInputError(f"subset {outcome.subset} has cointegration rank 0")


def extract_hedge_ratio(outcome: JohansenOutcome) -> np.ndarray:
    """Eigenvector of the largest eigenvalue, first nonzero component = +1."""
    if outcome.rank < 1:
        raise rank_zero_error(outcome)
    vector = np.asarray(outcome.eigenvectors, dtype=float)[:, 0]
    (hedge,), (failure,) = _hedge_rows(vector[None])
    if failure:
        raise failure_error(failure)
    return hedge


def _hedge_rows(vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`extract_hedge_ratio` of each row of eigenvectors (B, m): the hedge
    ratios and, per row, "zero eigenvector" or "". A failed row is nan."""
    size = np.abs(vectors)
    scale = size.max(axis=-1)
    first = np.argmax(size > 1e-12 * scale[:, None], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero rows
        hedges = vectors / vectors[np.arange(len(vectors)), first][:, None]
    return hedges, np.where(scale == 0.0, "zero eigenvector", "")


def _portfolios(
    panel: PricePanel, subsets: np.ndarray, vectors: np.ndarray
) -> list[CointegratedPortfolio]:
    """The portfolios of ranked subsets of `panel`, from their top
    eigenvectors, as stacks.

    Each chunk's hedge ratios, spreads, z-scores and half-lives are one
    stack each, with every figure bit-identical to a stack of one. A subset
    fails on a zero eigenvector, then a flat spread, then its half-life
    fit; the first failing subset, in order, raises that step's error.
    """
    T = panel.n_dates
    out: list[CointegratedPortfolio] = []
    # The largest stacked arrays: m rows of prices, or the 2 columns of a
    # half-life design, per subset.
    for chunk in _chunks(len(subsets), 8 * T * subsets.shape[1]):
        hedges, hedge_failed = _hedge_rows(vectors[chunk])
        values = (hedges[:, None] @ panel.prices[subsets[chunk]])[:, 0]
        zscores, flat = zscore_rows(values)
        half_lives, unfit = half_life_rows(values)
        failed = np.flatnonzero((hedge_failed != "") | (flat != "") | (unfit != ""))
        if len(failed):
            i = failed[0]
            if hedge_failed[i]:
                raise failure_error(hedge_failed[i])
            raise failure_error(flat[i] or unfit[i])
        # A scan row keeps its hedge ratio, so each is its own array, not a
        # view that keeps the chunk's stack alive.
        out += [
            CointegratedPortfolio(h.copy(), SpreadSeries(v, z), float(hl))
            for h, v, z, hl in zip(hedges, values, zscores, half_lives)
        ]
    return out


def _fit_equal_width(
    panel: PricePanel,
    lags: VarLagSelector,
    subsets: Sequence[tuple[int, ...]],
    var_max_lag: int,
) -> list[tuple[JohansenOutcome, CointegratedPortfolio | None] | str]:
    """Fits of equal-width subsets of `panel`, in their order.

    The VAR lag is chosen up to var_max_lag, capped at the largest lag
    `select_var_lag` accepts for the subset's length. The lags come from
    one `lags.select_many`, the Johansen steps and ranks from one
    `_johansen_stack` per chosen lag, and the portfolios of every rank >= 1
    subset from `_portfolios`, whose first failing subset raises. A subset
    whose lag selection or Johansen step fails gets the message.
    """
    m = len(subsets[0])
    T = panel.n_dates
    # The top candidate lag P must leave T - P > 1 + P*m observations.
    feasible = max(1, min(var_max_lag, (T - VAR_SPARE_OBS) // m, (T - 2) // (m + 1)))
    chosen, failures = lags.select_many(subsets, feasible)
    fits: list[JohansenOutcome | str | None] = list(failures)
    idx = np.asarray(subsets, dtype=np.intp)
    ok = np.array([f is None for f in failures])
    cvs = _critical_values(m)
    for p in sorted(set(chosen[ok].tolist())):  # np.unique would load numpy.ma
        members = np.flatnonzero(ok & (chosen == p))
        eigvals, eigvecs, trace, n, errors = _johansen_stack(
            lags.levels, idx[members], p, lags._vecm_factor(p)
        )
        ranks = _ranks(trace, cvs).tolist()
        for j, i in enumerate(members.tolist()):
            ids = tuple(panel.instrument_ids[c] for c in subsets[i])
            fits[i] = errors[j] or JohansenOutcome(
                ids, eigvals[j], eigvecs[j], trace[j], cvs, ranks[j], p - 1, n
            )
    ranked = [i for i, fit in enumerate(fits) if not isinstance(fit, str) and fit.rank]
    vectors = np.array([fits[i].eigenvectors[:, 0] for i in ranked]).reshape(-1, m)
    portfolios = dict(zip(ranked, _portfolios(panel, idx[ranked], vectors)))
    return [
        fit if isinstance(fit, str) else (fit, portfolios.get(i))
        for i, fit in enumerate(fits)
    ]


@dataclass(frozen=True, slots=True)
class ScanRow:
    """One subset's line in the scan report."""

    subset: tuple[str, ...]
    skipped_reason: str | None
    rank: int | None
    top_eigenvalue: float | None
    hedge_ratio: np.ndarray | None
    half_life_days: float | None


def integration_orders(panel: PricePanel, max_lag: int | None) -> list[IntegrationOrder | str]:
    """Each of `panel`'s series' I(d) class, or the reason it has none: the
    `unit_root.NO_TEST` reason of its test's message. Any other failure
    raises."""
    orders: list[IntegrationOrder | str] = []
    for series in panel.prices:
        try:
            orders.append(classify_integration_order(series, max_lag=max_lag))
        except DegenerateInputError as exc:
            if str(exc) not in NO_TEST:
                raise
            orders.append(NO_TEST[str(exc)])
    return orders


def _fit_subsets(
    panel: PricePanel,
    subsets: Sequence[tuple[int, ...]],
    var_max_lag: int,
    adf_max_lag: int | None,
    orders: Sequence[IntegrationOrder | str] | None = None,
) -> Iterator[tuple[str | None, tuple[JohansenOutcome, CointegratedPortfolio | None] | str | None]]:
    """Each subset's skip reason and None, or None and its fit, in order.

    A subset of `panel`'s columns (in ascending width) is skipped unless
    every member is I(1) (`orders`, else `integration_orders`), with its
    members' earliest reason in `NO_TEST`'s order, else "not all I(1)". The
    tested ones are fit by `_fit_equal_width` from one `VarLagSelector` of
    their members alone, a width at a time as they are read.
    """
    _check_width(len(subsets[-1]))
    if orders is None:
        orders = integration_orders(panel, adf_max_lag)
    reasons = [
        None if all(orders[i] is IntegrationOrder.I1 for i in s)
        else min((orders[i] for i in s if isinstance(orders[i], str)),
                 key=list(NO_TEST.values()).index, default="not all I(1)")
        for s in subsets
    ]
    tested = [s for s, reason in zip(subsets, reasons) if reason is None]
    factored = sorted({i for s in tested for i in s})
    at = {c: j for j, c in enumerate(factored)}
    fitted = panel.subpanel(factored)
    lags = VarLagSelector(fitted)
    fits = itertools.chain.from_iterable(
        _fit_equal_width(fitted, lags, [tuple(at[i] for i in s) for s in group], var_max_lag)
        for _, group in itertools.groupby(tested, len)
    )
    return ((reason, None if reason else next(fits)) for reason in reasons)


def scan_cointegration(
    panel: PricePanel,
    min_size: int = 2,
    max_size: int = 4,
    var_max_lag: int = 10,
    adf_max_lag: int | None = None,
    orders: Sequence[IntegrationOrder | str] | None = None,
) -> list[ScanRow]:
    """Test every instrument subset through `_fit_subsets`; rows come back
    in enumeration order, a skipped subset's with its skip reason and a
    failed fit's with "singular". A tested row depends on the tested series
    alone, since only they are factored.
    """
    subsets = enumerate_combinations(panel.n_instruments, min_size, max_size)
    fits = _fit_subsets(panel, subsets, var_max_lag, adf_max_lag, orders)
    rows: list[ScanRow] = []
    for subset, (reason, fit) in zip(subsets, fits):
        ids = tuple(panel.instrument_ids[i] for i in subset)
        if reason or isinstance(fit, str):
            rows.append(ScanRow(ids, reason or "singular", None, None, None, None))
            continue
        outcome, portfolio = fit
        hedge = half_life = None
        if portfolio is not None:
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

    dim=1 takes the closed form: the eigenvalue is the squared correlation
    of the demeaned level and change. Higher dimensions lay each batch of
    walks out as the columns of one levels array and fit them as a stack
    of subsets at VAR lag 1. Used to verify the embedded critical values.
    """
    out = []
    for walks in null_walk_batches(n_draws, sample_size, seed, dim):
        if dim == 1:
            y = walks[:, :, 0]
            x, d = y[:, :-1], np.diff(y, axis=1)
            xc, dc = x - x.mean(axis=1, keepdims=True), d - d.mean(axis=1, keepdims=True)
            lam = np.sum(xc * dc, axis=1) ** 2 / (
                np.sum(xc * xc, axis=1) * np.sum(dc * dc, axis=1)
            )
            out.append(-xc.shape[1] * np.log1p(-lam))
        else:
            b = len(walks)
            levels = walks.transpose(1, 0, 2).reshape(sample_size, b * dim)
            subsets = np.arange(b * dim).reshape(b, dim)
            _, _, trace, _, failures = _johansen_stack(levels, subsets, 1)
            failure = next((f for f in failures if f), None)
            if failure:
                raise failure_error(failure)
            out.append(trace[:, 0])
    return np.concatenate(out)
