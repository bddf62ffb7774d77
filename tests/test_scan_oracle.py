"""The stacked scan against the per-subset loops it replaced.

`scan_cointegration` fits its tested subsets in stacks: one stacked QR of
R_W column subsets per width for lag selection, and one stacked QR of
R_V column subsets per (width, lag) for the Johansen step, in chunks under
a byte budget. R_W and R_V are the R factors of the panel-wide VAR and
VECM designs. The first reference below is the loop the engine once ran:
for each subset, its own QR of a slice of each panel factor with one
slogdet per lag, then its own cond, solve and generalized eigh (the
engine's own `_generalized_eigh` on a stack of one), raising at the first
failed check. Both must give `repr`-identical rows (skip reason, rank, top
eigenvalue, hedge ratio, half-life), the same message for every failed
subset, and the same exception for an input the scan cannot fit.

The second reference takes each subset's Johansen R from a QR of its own
full-length design, as the engine did before it sliced R_V. Its rounding
does not depend on the panel's other columns, so it must agree exactly on
every rank, lag and message, and on every figure to 1e-9 relative.
"""

import hashlib
import math

import numpy as np
import pytest

from conftest import ar1, error_of, estimate_half_life, price_panel, six_walks
from mrpairs import cointegration
from mrpairs.cointegration import (
    JOHANSEN_TRACE_CV_95,
    VarLagSelector,
    enumerate_combinations,
    extract_hedge_ratio,
    scan_cointegration,
)
from mrpairs.errors import DegenerateInputError, ValidationError
from mrpairs.market_data import PricePanel
from mrpairs.spread_dynamics import compute_spread
from mrpairs.unit_root import IntegrationOrder


def _nested_moments(r, n, k_max, widths):
    """Residual moments per column prefix, raising at the first failed check."""
    diag = np.abs(np.diag(r[:, :k_max]))
    for k in widths:
        if n <= k:
            raise DegenerateInputError(f"{n} observations for {k} regressors")
        if diag[:k].min() <= 1e-10 * max(diag[:k].max(), 1.0):
            raise DegenerateInputError("regressor matrix is rank deficient")
        tail = r[k:, k_max:]
        yield tail.T @ tail


def select_lag_loop(levels, r_w, columns, max_lag):
    """One subset's Schwarz-criterion lag from its own QR of R_W columns."""
    T, N = levels.shape
    m = len(columns)
    if T < m * max_lag + 30:
        raise ValidationError(
            f"need T >= m*max_lag + 30, got T={T}, m={m}, max_lag={max_lag}"
        )
    picked = [0] + [1 + i * N + j for i in range(max_lag + 1) for j in columns]
    r = np.linalg.qr(r_w[:, picked], mode="r")
    n = T - max_lag
    widths = [1 + p * m for p in range(1, max_lag + 1)]
    best_p, best_sc = None, None
    for p, cross in enumerate(_nested_moments(r, n, 1 + max_lag * m, widths), 1):
        sign, logdet = np.linalg.slogdet(cross / n)
        if sign <= 0:
            raise DegenerateInputError("singular residual covariance in VAR fit")
        sc = logdet + (math.log(n) / n) * (p * m * m + m)
        if best_sc is None or sc < best_sc:
            best_p, best_sc = p, sc
    return best_p


def vecm_design(Y, p):
    """[1 | dY_{t-1..t-k} | dY_t | Y_{t-p}] of the columns of Y, lag-major."""
    T = len(Y)
    dY = np.diff(Y, axis=0)
    lagged = [dY[p - 1 - i : T - 1 - i] for i in range(1, p)]
    return np.hstack([np.ones((T - p, 1))] + lagged + [dY[p - 1 :], Y[: T - p]])


def johansen_loop(levels, r_v, columns, p):
    """One subset's Johansen eigenproblem from its own QR of R_V columns."""
    T, N = levels.shape
    picked = [0] + [1 + i * N + j for i in range(p + 1) for j in columns]
    r = np.linalg.qr(r_v[:, picked], mode="r")
    return johansen_from_r(r, T - p, len(columns), p)


def direct_johansen_loop(levels, columns, p):
    """One subset's Johansen eigenproblem from the QR of its own design."""
    r = np.linalg.qr(vecm_design(levels[:, list(columns)], p), mode="r")
    return johansen_from_r(r, len(levels) - p, len(columns), p)


def johansen_from_r(r, n, m, p):
    """The Johansen step from the R factor of [Z | dY_t | Y_{t-p}]."""
    kz = 1 + (p - 1) * m
    (cross,) = _nested_moments(r, n, kz, [kz])
    s00, s11, s01 = cross[:m, :m] / n, cross[m:, m:] / n, cross[:m, m:] / n
    if np.linalg.cond(s00) > 1e12 or np.linalg.cond(s11) > 1e12:
        raise DegenerateInputError("singular moment matrix in Johansen step")
    core = s01.T @ np.linalg.solve(s00, s01)
    core = (core + core.T) / 2.0
    eigvals, eigvecs = cointegration._generalized_eigh(
        core[None], ((s11 + s11.T) / 2.0)[None]
    )
    if np.isnan(eigvals).any():
        raise DegenerateInputError("generalized eigenproblem failed")
    eigvals, eigvecs = eigvals[0], eigvecs[0]
    order = np.argsort(eigvals)[::-1]
    eigvals = np.clip(eigvals[order], 0.0, 1.0 - 1e-15)
    eigvecs = eigvecs[:, order]
    trace = -n * np.log(1.0 - eigvals)[::-1].cumsum()[::-1]
    cvs = [JOHANSEN_TRACE_CV_95[m - r] for r in range(m)]
    rank = next((r for r in range(m) if trace[r] <= cvs[r]), m)
    return eigvals, eigvecs, rank


def scan_loop(panel, var_max_lag=10, direct=False):
    """Rows as the per-subset loop made them, with each subset's lag or message.

    The Johansen step slices the panel's VECM factor (`johansen_loop`), or
    with `direct` factors each subset's own design (`direct_johansen_loop`).
    """
    levels = panel.prices.T
    T = panel.n_dates
    factors, vecm = {}, {}
    rows, fits = [], {}
    for subset in enumerate_combinations(panel.n_instruments, 2, 4):
        ids = tuple(panel.instrument_ids[i] for i in subset)
        m = len(subset)
        feasible = max(1, min(var_max_lag, (T - 30) // m, (T - 2) // (m + 1)))
        if feasible not in factors:
            factors[feasible] = VarLagSelector(panel)._factor(feasible)
        try:
            p = select_lag_loop(levels, factors[feasible], subset, feasible)
            if direct:
                eigvals, eigvecs, rank = direct_johansen_loop(levels, subset, p)
            else:
                if p not in vecm:
                    vecm[p] = np.linalg.qr(vecm_design(levels, p), mode="r")
                eigvals, eigvecs, rank = johansen_loop(levels, vecm[p], subset, p)
        except DegenerateInputError as exc:
            fits[subset] = str(exc)
            rows.append(_row(ids, "singular", None, None, None, None))
            continue
        fits[subset] = p
        hedge = half_life = None
        if rank >= 1:
            outcome = cointegration.JohansenOutcome(
                ids, eigvals, eigvecs, None, None, rank, p - 1, T - p
            )
            hedge = extract_hedge_ratio(outcome)
            spread = compute_spread(panel.subpanel(subset), hedge)
            half_life = estimate_half_life(spread.values)
        rows.append(_row(ids, None, rank, float(eigvals[0]), hedge, half_life))
    return rows, fits


def _row(subset, skipped_reason, rank, top_eigenvalue, hedge_ratio, half_life):
    hedge = None if hedge_ratio is None else hedge_ratio.tolist()
    return subset, skipped_reason, rank, top_eigenvalue, hedge, half_life


def _rows(scan_rows):
    return [
        _row(r.subset, r.skipped_reason, r.rank, r.top_eigenvalue,
             r.hedge_ratio, r.half_life_days)
        for r in scan_rows
    ]


def _lines(rows):
    """Each row's repr, which is the same only for bit-identical figures."""
    return [repr(row) for row in rows]


def assert_rows_close(got, want, rtol=1e-9):
    """Same subsets, skip reasons and ranks; figures within rtol relative.

    A hedge ratio is compared against its largest component, so a
    component near zero is not held to a relative bound of its own.
    """
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g[:3] == w[:3]
        for a, b in ((g[3], w[3]), (g[5], w[5])):  # top eigenvalue, half-life
            if b is None or math.isinf(b):
                assert a == b, (g, w)
            else:
                assert abs(a - b) <= rtol * abs(b), (g, w)
        if w[4] is None:
            assert g[4] is None
        else:
            hedge = np.array(w[4])
            atol = rtol * np.abs(hedge).max()
            np.testing.assert_allclose(g[4], hedge, rtol=0, atol=atol)


def _stacked_fits(panel, var_max_lag=10):
    """Each tested subset's lag or message from the stacked path, and the
    max lags the panel was factored for."""
    lags = VarLagSelector(panel)
    fits = {}
    for m in (2, 3, 4):
        subsets = enumerate_combinations(panel.n_instruments, m, m)
        for subset, fit in zip(
            subsets,
            cointegration._fit_equal_width(panel, lags, subsets, var_max_lag),
        ):
            fits[subset] = fit if isinstance(fit, str) else fit[0].vecm_lag + 1
    return fits, set(lags._factors)


ALL_I1 = [IntegrationOrder.I1] * 6
PANELS = [(60, None), (250, None), (600, None), (300, "duplicate"),
          (300, "scaled duplicate"), (300, "constant"), (300, "near duplicate")]
# At the default budget the Johansen stacks of T = 600 span several chunks
# and the others fit in one; the extremes are one subset per chunk and one
# chunk per stack.
BUDGETS = {"one subset per chunk": 1, "one chunk per stack": 1 << 40}


@pytest.mark.parametrize("T, degenerate", PANELS)
def test_scan_matches_per_subset_loop(T, degenerate):
    _check_against_loop(T, degenerate)


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize("T, degenerate", [PANELS[i] for i in (0, 2, 3, 6)])
def test_any_byte_budget_matches_per_subset_loop(monkeypatch, budget, T, degenerate):
    monkeypatch.setattr(cointegration, "_CHUNK_BYTES", BUDGETS[budget])
    _check_against_loop(T, degenerate)


def _check_against_loop(T, degenerate):
    lags_by_width, messages = {}, set()
    for seed in range(2):
        panel = price_panel(six_walks(seed, T, degenerate))
        want_rows, want_fits = scan_loop(panel)
        rows = _rows(scan_cointegration(panel, orders=ALL_I1))
        assert _lines(rows) == _lines(want_rows)
        fits, factored = _stacked_fits(panel)
        assert fits == want_fits
        direct_rows, direct_fits = scan_loop(panel, direct=True)
        assert direct_fits == want_fits
        assert_rows_close(rows, direct_rows)
        for subset, fit in want_fits.items():
            if isinstance(fit, str):
                messages.add(fit)
            else:
                lags_by_width.setdefault(len(subset), set()).add(fit)
    if T == 60:  # (60 - 30) // m caps width 4 at lag 7; widths 2 and 3 keep 10
        assert factored == {10, 7}
    if degenerate is None:
        # some width's group holds subsets whose chosen lags differ
        assert any(len(lags) > 1 for lags in lags_by_width.values())
    if degenerate in ("duplicate", "scaled duplicate", "constant"):
        assert "regressor matrix is rank deficient" in messages
    if degenerate == "near duplicate":
        assert messages == {"singular moment matrix in Johansen step"}


def test_failed_eigenproblem_marks_only_its_subset(monkeypatch):
    # A stacked Cholesky fails as a whole, as it does when one S11 is not
    # positive definite; the failed pair alone must be marked.
    panel = price_panel(six_walks(0, 250))
    poisoned = {}

    def failing_cholesky(b, *args, _cholesky=np.linalg.cholesky, **kwargs):
        if not poisoned:
            poisoned["s11"] = b[0].copy()
        stacked = b.reshape(-1, *b.shape[-2:])
        if any(np.array_equal(x, poisoned["s11"]) for x in stacked):
            raise np.linalg.LinAlgError("planted failure")
        return _cholesky(b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    want_rows, want_fits = scan_loop(panel)
    assert list(want_fits.values()).count("generalized eigenproblem failed") == 1
    assert _lines(_rows(scan_cointegration(panel, orders=ALL_I1))) == _lines(want_rows)
    assert _stacked_fits(panel)[0] == want_fits


def test_panel_too_short_for_width_four_raises_like_the_loop():
    # T = 33: widths 2 and 3 fit at lag 1, width 4 needs T >= 34
    panel = price_panel(six_walks(0, 33))
    raised = error_of(scan_cointegration, panel, orders=ALL_I1)
    assert raised == error_of(scan_loop, panel)
    message = "need T >= m*max_lag + 30, got T=33, m=4, max_lag=1"
    assert raised == (ValidationError, message)


def _with_column(panel, column):
    return PricePanel(
        dates=panel.dates,
        prices=np.vstack([panel.prices, column]),
        instrument_ids=panel.instrument_ids + ("X",),
    )


def _fit_alone(panel, ids):
    """The scan row of the subset's own subpanel fitted alone, unscreened."""
    sub = panel.subpanel([panel.instrument_ids.index(i) for i in ids])
    columns = [tuple(range(len(ids)))]
    orders = [IntegrationOrder.I1] * len(ids)
    ((_, fit),) = cointegration._fit_subsets(sub, columns, 10, None, orders)
    if isinstance(fit, str):
        return _row(ids, "singular", None, None, None, None)
    outcome, portfolio = fit
    hedge = half_life = None
    if portfolio is not None:
        hedge, half_life = portfolio.hedge_ratio, portfolio.half_life_days
    top = float(outcome.eigenvalues[0])
    return _row(ids, None, outcome.rank, top, hedge, half_life)


def _ar1_of(walk, phi=0.5):
    """y_t = phi * y_{t-1} + e_t driven by the walk's increments e_t."""
    y = np.diff(walk, prepend=0.0)
    for t in range(1, len(y)):
        y[t] += phi * y[t - 1]
    return y


# The appended column, from a walk, and the skip reason its subsets get.
APPENDED = {
    "walk": (lambda walk: walk, None),
    "constant": (lambda walk: 0.0 * walk, "constant series"),
    "near constant": (lambda walk: 1e-12 * walk, "singular unit-root fit"),
    "AR(1)": (_ar1_of, "not all I(1)"),
}


@pytest.mark.parametrize("extra", list(APPENDED))
@pytest.mark.parametrize("seed", range(2))
def test_an_appended_column_leaves_every_subset_as_it_was(seed, extra):
    # A subset's R factors are slices of factors of every tested column, so
    # its rounding depends on the other tested columns; its outcome must not.
    panel = price_panel(six_walks(seed, 300))
    walk = np.cumsum(np.random.default_rng(100 + seed).standard_normal(300))
    column, reason = APPENDED[extra]
    wider = _with_column(panel, 1000.0 + column(walk))
    rows = _rows(scan_cointegration(panel))
    wider_rows = _rows(scan_cointegration(wider))
    kept = [row for row in wider_rows if "X" not in row[0]]
    assert any(row[2] for row in rows)  # some subset has rank >= 1
    assert_rows_close(kept, rows)
    fits, wider_fits = _stacked_fits(panel)[0], _stacked_fits(wider)[0]
    assert {s: fit for s, fit in wider_fits.items() if 6 not in s} == fits
    if reason:  # an untested column is left out of the panel factors
        added = {row[1] for row in wider_rows if "X" in row[0]}
        assert added == {reason}
        assert _lines(kept) == _lines(rows)
    for row in wider_rows:
        if row[1] in (None, "singular"):
            assert_rows_close([row], [_fit_alone(wider, row[0])])


# sha256 of the rows' reprs, joined by newlines, since the scan factors only
# the members of its tested subsets. A change that only makes the scan faster
# must leave every byte of them as it was.
PINNED_SCANS = {
    "I(0) column and near duplicate, T = 400":
        "ec0ca4720ccee66245b5e4646ec34bd6e01bf9a2b41b5440bec14c846b0b2480",
    "constant column, T = 800":
        "13f15f95133ca13690d5275ee907ae62cc265adecc51df39ba943d91c0cf02fd",
}


def _pinned_panel(name):
    if name.startswith("I(0)"):
        stationary = ar1(np.random.default_rng(7), 400, 0.5)
        return _with_column(price_panel(six_walks(0, 400, "near duplicate")), 1000.0 + stationary)
    return price_panel(six_walks(1, 800, "constant"))


@pytest.mark.parametrize("name", list(PINNED_SCANS))
def test_scan_rows_are_byte_identical_to_the_pinned_ones(name):
    rows = _rows(scan_cointegration(_pinned_panel(name)))  # I(d) screen included
    reasons = {row[1] for row in rows}
    assert None in reasons and len(reasons) > 1
    digest = hashlib.sha256("\n".join(_lines(rows)).encode()).hexdigest()
    assert digest == PINNED_SCANS[name]
