"""Mean-reversion position state machine, P&L, and performance metrics.

Entry/exit rules on the z-score z_t (entry > exit, defaults 1 and 0):
flat and z < -entry  -> long the spread; flat and z > entry -> short;
long and z > -exit   -> flat;            short and z < exit -> flat.
Exits are evaluated before entries, so a single day can flip a position.

P&L accrues on the previous day's position (the trade executes at the
close that generated the signal, so no same-bar look-ahead):

    r_t = (pos_{t-1} * (spread_t - spread_{t-1}) - cost_t) / GMV_{t-1}

where GMV_{t-1} = sum_i |h_i| * p_{i,t-1} is the gross market value and
cost_t = |pos_t - pos_{t-1}| * sum_i |h_i| * per_unit_cost_i is charged
only when the position changes. APR compounds geometrically over a
252-day year; Sharpe uses sample std and a zero risk-free rate, and is
nan when the daily returns do not vary.

Without costs r_t depends only on pos_{t-1}, so `FrictionlessScorer`
tabulates it per held position once and scores positions with one gather
from the table: `compute_pnl`'s APR bit for bit, through the same checks
and APR line, and whether any return is non-zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import cointegration as ci
from ._ols import failure_error
from .errors import DegenerateInputError, ValidationError
from .market_data import PricePanel

TRADING_DAYS_PER_YEAR = 252


def target_positions(values, n_dates: int, what: str) -> np.ndarray:
    """`values` as an int8 array of target positions in {-1, 0, +1}.

    Accepts any integer sequence, `Signal` members included (they are ints).
    """
    pos = np.asarray(values)
    if pos.ndim != 1 or (pos.size and pos.dtype.kind not in "iu"):
        raise ValidationError(f"{what} must be a 1-D sequence of integers")
    if len(pos) != n_dates:
        raise ValidationError(f"{what} and dates lengths differ")
    if np.any((pos < -1) | (pos > 1)):
        raise ValidationError(f"{what} must be in {{-1, 0, +1}}")
    return pos.astype(np.int8, copy=False)


@dataclass(frozen=True)
class PositionSeries:
    """Units of the spread portfolio held per date: +1 long, -1 short, 0 flat."""

    dates: tuple
    positions: np.ndarray  # int8

    def __post_init__(self):
        pos = target_positions(self.positions, len(self.dates), "positions")
        object.__setattr__(self, "positions", pos)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class CostModel:
    """Per-unit transaction cost by instrument id (quote currency).

    Every cost must be a finite, non-negative number.
    """

    per_unit_cost: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, value in self.per_unit_cost.items():
            if not (math.isfinite(value) and value >= 0):
                raise ValidationError(
                    f"cost for {key!r} must be finite and non-negative, got {value!r}"
                )


class Metrics(NamedTuple):
    apr: float
    sharpe: float
    max_drawdown: float


@dataclass(frozen=True)
class BacktestReport:
    positions: np.ndarray
    daily_returns: np.ndarray
    apr: float
    sharpe: float  # nan when return variance is zero
    max_drawdown: float
    total_transaction_cost: float

    @property
    def cumulative_returns(self) -> np.ndarray:
        """Running prod(1 + r) - 1, computed on access so no report keeps it."""
        return np.cumprod(1.0 + self.daily_returns) - 1.0


def check_thresholds(entry: float, exit: float) -> None:
    """Raise ValidationError unless both are finite and exit < entry."""
    if not (math.isfinite(entry) and math.isfinite(exit)):
        raise ValidationError(
            f"entry and exit thresholds must be finite, got {entry!r} and {exit!r}"
        )
    if exit >= entry:
        raise ValidationError("exit threshold must be below entry threshold")


def generate_mr_positions(
    zscores: np.ndarray,
    entry: float = 1.0,
    exit: float = 0.0,
    dates: tuple | None = None,
) -> PositionSeries:
    """Stateful scan of the entry/exit rules, starting flat."""
    check_thresholds(entry, exit)
    z = np.asarray(zscores, dtype=float)
    out = np.zeros(len(z), dtype=np.int8)
    state = 0
    for t, zt in enumerate(z):
        if state == 1 and zt > -exit:
            state = 0
        elif state == -1 and zt < exit:
            state = 0
        if state == 0:
            if zt < -entry:
                state = 1
            elif zt > entry:
                state = -1
        out[t] = state
    if dates is None:
        dates = tuple(range(len(z)))
    return PositionSeries(dates=dates, positions=out)


def trade_subset(
    panel: PricePanel, subset_ids: list[str], var_max_lag: int, adf_max_lag: int | None,
    entry: float, exit: float, orders: list[ci.IntegrationOrder | str] | None = None,
) -> tuple[PricePanel, ci.JohansenOutcome, ci.CointegratedPortfolio, PositionSeries]:
    """The named subset's panel, Johansen outcome, portfolio and positions.

    Screened and fitted by the scan's own path, `cointegration._fit_subsets`,
    on the subset's own columns (the scan's row agrees in rank, and in
    figures to about 3e-13 relative), and traded on its full-sample
    z-scores. `orders`, the `integration_orders` of `panel` if the caller
    has them, spares classifying the members again. A subset the scan
    skips raises DegenerateInputError with the scan's reason, a failed fit
    the error of its failing check, and rank 0 DegenerateInputError.
    """
    idx = [panel.instrument_ids.index(s) for s in subset_ids]
    sub = panel.subpanel(idx)
    orders = None if orders is None else [orders[i] for i in idx]
    columns = [tuple(range(sub.n_instruments))]
    ((reason, fit),) = ci._fit_subsets(sub, columns, var_max_lag, adf_max_lag, orders)
    if reason:
        raise DegenerateInputError(f"subset {sub.instrument_ids} skipped: {reason}")
    if isinstance(fit, str):
        raise failure_error(fit)
    outcome, portfolio = fit
    if portfolio is None:
        raise ci.rank_zero_error(outcome)
    positions = generate_mr_positions(portfolio.spread.zscores, entry, exit, sub.dates)
    return sub, outcome, portfolio, positions


def _equity_and_apr(growth: np.ndarray, n_returns: int) -> tuple[np.ndarray, float]:
    """Running equity and APR of the daily growth factors 1 + r, after their checks."""
    if n_returns < 2:
        raise DegenerateInputError("need at least 2 returns for metrics")
    if np.any(growth <= 0.0):
        raise DegenerateInputError("a daily return wiped out the equity")
    equity = np.cumprod(growth)
    return equity, float(equity[-1] ** (TRADING_DAYS_PER_YEAR / n_returns) - 1.0)


def compute_metrics(daily_returns: np.ndarray) -> Metrics:
    """APR (geometric, 252-day year), Sharpe (zero risk-free), max drawdown.

    At zero return variance Sharpe is undefined and reads nan; APR and max
    drawdown remain well defined.
    """
    r = np.asarray(daily_returns, dtype=float)
    equity, apr = _equity_and_apr(1.0 + r, len(r))
    equity = np.concatenate([[1.0], equity])  # unit starting equity
    peaks = np.maximum.accumulate(equity)
    max_drawdown = float(np.min(equity / peaks - 1.0))
    std = float(np.std(r, ddof=1))
    # ptp catches constant returns whose float mean is not exactly
    # representable, where std comes out tiny but nonzero
    if std == 0.0 or np.ptp(r) == 0.0:
        return Metrics(apr, math.nan, max_drawdown)
    sharpe = math.sqrt(TRADING_DAYS_PER_YEAR) * float(r.mean()) / std
    return Metrics(apr=apr, sharpe=sharpe, max_drawdown=max_drawdown)


def _spread_and_gmv(
    panel: PricePanel, hedge_ratio: np.ndarray, n_positions: int, costs: CostModel
) -> tuple[np.ndarray, np.ndarray, float]:
    """The spread, the GMV and the per-unit trade cost, after the input checks."""
    h = np.asarray(hedge_ratio, dtype=float)
    if h.shape != (panel.n_instruments,):
        raise ValidationError("hedge ratio length does not match panel width")
    if n_positions != panel.n_dates:
        raise ValidationError("positions length does not match panel dates")
    spread = h @ panel.prices
    gmv = np.abs(h) @ panel.prices
    if np.any(gmv <= 0.0):
        raise DegenerateInputError("zero gross market value")
    per_unit_trade_cost = float(
        sum(
            abs(hi) * costs.per_unit_cost.get(iid, 0.0)
            for hi, iid in zip(h, panel.instrument_ids)
        )
    )
    return spread, gmv, per_unit_trade_cost


def compute_pnl(
    panel: PricePanel,
    hedge_ratio: np.ndarray,
    positions: PositionSeries,
    costs: CostModel | None = None,
) -> BacktestReport:
    """Daily returns of trading the spread at the given positions.

    Day 0 carries only the entry cost (if any); from day 1 on, the previous
    day's position earns the spread change. The position before the window
    is flat.
    """
    spread, gmv, per_unit_trade_cost = _spread_and_gmv(
        panel, hedge_ratio, len(positions), costs or CostModel()
    )
    pos = positions.positions
    prev_pos = np.concatenate([[0], pos[:-1]])
    trade_units = np.abs(pos - prev_pos)
    trade_cost = trade_units * per_unit_trade_cost
    pnl = np.zeros(panel.n_dates)
    pnl[1:] = pos[:-1] * np.diff(spread)
    denom = np.concatenate([[gmv[0]], gmv[:-1]])
    daily_returns = (pnl - trade_cost) / denom
    apr, sharpe, max_dd = compute_metrics(daily_returns)
    return BacktestReport(
        positions=pos,
        daily_returns=daily_returns,
        apr=apr,
        sharpe=sharpe,
        max_drawdown=max_dd,
        total_transaction_cost=float(trade_cost.sum()),
    )


class FrictionlessScorer:
    """`compute_pnl(...).apr` without costs, for any positions on one panel.

    Each day's return at each held position -1, 0, +1 is tabulated once in
    `compute_pnl`'s own expression, and a score gathers the positions'
    returns once. Day 0's growth factor is 1.0, so the product from day 1
    on is the same float.
    """

    def __init__(self, panel: PricePanel, hedge_ratio: np.ndarray, n_dates: int):
        spread, gmv, cost = _spread_and_gmv(panel, hedge_ratio, n_dates, CostModel())
        held = np.array([[-1], [0], [1]], dtype=np.int8)
        self._returns = ((held * np.diff(spread) - cost) / gmv[:-1]).T.ravel()
        self._day = 3 * np.arange(n_dates - 1) + 1  # day t held at p: 3t + 1 + p
        self._n_dates = n_dates

    def score(self, positions: np.ndarray) -> tuple[float, bool]:
        """The positions' APR, and whether any of their daily returns is not 0.0."""
        returns = self._returns.take(self._day + positions[:-1])
        return _equity_and_apr(1.0 + returns, self._n_dates)[1], bool(np.any(returns != 0.0))
