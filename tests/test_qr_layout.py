"""Every R-only QR of the I(d) screen and the scan gets a column-major input.

`np.linalg.qr` copies its input into LAPACK's column-major layout; an input
already in that layout is copied column by column instead of gathered
element by element. These tests watch every `mode="r"` call.
"""

import datetime as dt

import numpy as np

from mrpairs import unit_root
from mrpairs.cointegration import scan_cointegration
from mrpairs.market_data import PricePanel, trading_days
from mrpairs.unit_root import IntegrationOrder, schwert_max_lag


def _column_major(a):
    return all(matrix.flags.f_contiguous for matrix in (a[None] if a.ndim == 2 else a))


def _panel(T=300):
    rng = np.random.default_rng(11)
    walks = np.cumsum(rng.standard_normal((3, T)), axis=1)
    planted = walks[0] - 0.5 * walks[1] + rng.standard_normal(T)
    return PricePanel(
        dates=trading_days(dt.date(2008, 1, 2), T),
        prices=1000.0 + np.vstack([walks, planted]),
        instrument_ids=("A", "B", "C", "D"),
    )


def _watch_qr(monkeypatch):
    """Record the input of every mode="r" call of `np.linalg.qr`."""
    seen = []

    def qr(a, mode="reduced", _qr=np.linalg.qr):
        if mode == "r":
            seen.append(a)
        return _qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", qr)
    return seen


def test_adf_factors_its_max_lag_design_once_column_major(monkeypatch):
    seen = _watch_qr(monkeypatch)
    per_test = []

    def adf_test(series, max_lag=None, _adf_test=unit_root.adf_test):
        before = len(seen)
        outcome = _adf_test(series, max_lag)
        per_test.append((len(np.ravel(series)), seen[before:]))
        return outcome

    monkeypatch.setattr(unit_root, "adf_test", adf_test)
    panel = _panel()
    orders = [unit_root.classify_integration_order(y) for y in panel.prices]
    assert IntegrationOrder.I1 in orders
    # levels, then differences wherever the levels keep their unit root
    assert len(per_test) == sum(1 if o is IntegrationOrder.I0 else 2 for o in orders)
    for T, factored in per_test:
        (design,) = factored
        max_lag = schwert_max_lag(T)
        assert design.shape == (T - 1 - max_lag, max_lag + 3)
        assert design.flags.f_contiguous


def test_every_scan_factor_is_column_major(monkeypatch):
    seen = _watch_qr(monkeypatch)
    rows = scan_cointegration(_panel())
    assert any(row.rank for row in rows)  # the scan tested and fit subsets
    stacked = [a for a in seen if a.ndim == 3]
    assert stacked and len(seen) > len(stacked)  # panel factors and slices
    assert all(_column_major(a) for a in seen)
