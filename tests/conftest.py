"""Shared fixtures: synthetic panels and CSV fixture writers."""

import os

# One BLAS thread: the suite's matrices are tiny, and idle OpenBLAS threads
# spin on them. This must run before anything imports numpy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mrpairs.market_data import (  # noqa: E402
    CointegrationRecipe,
    SynthConfig,
    generate_synthetic_panel,
)

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
