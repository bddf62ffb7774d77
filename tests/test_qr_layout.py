"""Every R-only QR of the I(d) screen and the scan gets a column-major input.

A single design (an ADF test's max-lag design, the panel's W and V) is
factored in place by `_ols.r_factor`, which takes only a column-major
float64 matrix, so it is built in that layout. The stacked slices go
through `np.linalg.qr`, which copies its input into LAPACK's column-major
layout; an input already in that layout is copied column by column instead
of gathered element by element. These tests watch both kinds of call.
"""

import datetime as dt

import numpy as np
import pytest

from conftest import watch_qr
from mrpairs import _ols, unit_root
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


def test_adf_factors_its_max_lag_design_once_column_major(monkeypatch):
    seen = watch_qr(monkeypatch)
    per_test = []

    def adf_test(series, max_lag=None, _adf_test=unit_root.adf_test):
        before = len(seen)
        outcome = _adf_test(series, max_lag)
        factored = [a for a, mode, _ in seen[before:] if mode == "r"]
        per_test.append((len(np.ravel(series)), factored))
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
    seen = watch_qr(monkeypatch)
    rows = scan_cointegration(_panel())
    assert any(row.rank for row in rows)  # the scan tested and fit subsets
    factored = [a for a, mode, _ in seen if mode == "r"]
    stacked = [a for a in factored if a.ndim == 3]
    assert stacked and len(factored) > len(stacked)  # panel factors and slices
    assert all(_column_major(a) for a in factored)


def _designs():
    """Named column-major designs: the ADF and panel shapes the engine
    factors, and the odd ones a helper must still get right."""
    rng = np.random.default_rng(3)
    for T in (1000, 2500):
        for seed in range(5):
            y = np.cumsum(np.random.default_rng(seed).standard_normal(T))
            yield f"adf T={T} seed={seed}", unit_root._adf_design(y, schwert_max_lag(T))
    # W at max lag 10: 7 instruments give 78 columns, 10 give 111
    for T, N in ((2500, 7), (1000, 10)):
        walks = 1000.0 + np.cumsum(rng.standard_normal((T, N)), axis=0)
        W = np.asfortranarray(np.hstack([np.ones((T - 10, 1))] + [
            walks[10 - i : T - i] for i in range(11)
        ]))
        yield f"W {W.shape}", W
    # dgeqrf takes its blocked path, whose result depends on the workspace
    # size, past 128 columns
    shapes = ((5, 40), (30, 60), (200, 1), (1, 1), (33, 33), (600, 129), (400, 200))
    for shape in shapes:
        yield f"shape {shape}", np.asfortranarray(rng.standard_normal(shape))
    deficient = np.asfortranarray(rng.standard_normal((100, 6)))
    deficient[:, 3] = 2.0 * deficient[:, 1]
    deficient[:, 5] = 0.0
    yield "rank deficient", deficient
    for bad in (np.nan, np.inf, -np.inf):
        for row, col in ((0, 0), (50, 3), (99, 5)):
            a = np.asfortranarray(rng.standard_normal((100, 6)))
            a[row, col] = bad
            yield f"{bad} at {row},{col}", a
    a = np.asfortranarray(rng.standard_normal((300, 140)))
    a[:, 135] = np.nan
    yield "blocked, with a nan column", a


def test_r_factor_is_numpy_qr_bit_for_bit():
    names = []
    for name, design in _designs():
        expected = np.linalg.qr(design, mode="r")
        r = _ols.r_factor(design)
        k = min(design.shape)
        assert r.shape == expected.shape and r.dtype == expected.dtype, name
        assert r.tobytes() == expected.tobytes(), name
        # factored in place: R is the upper triangle of the overwritten input
        assert np.triu(design[:k]).tobytes() == r.tobytes(), name
        names.append(name)
    assert len(names) == len(set(names)) == 30


def test_r_factor_rejects_what_it_would_have_to_copy():
    column_major = np.asfortranarray(np.ones((4, 2)))
    column_major[1, 0] = 2.0
    frozen = column_major.copy(order="F")
    frozen.flags.writeable = False
    for bad in (
        np.ascontiguousarray(column_major),
        column_major.astype(np.int64, order="F"),
        column_major.astype(np.float32, order="F"),
        column_major[::2],
        column_major[None],
        frozen,
    ):
        with pytest.raises(ValueError, match="column-major float64"):
            _ols.r_factor(bad)
