"""Price and macro data ingestion, panel alignment, and synthetic fixtures.

Daily close prices arrive as `date,close` CSVs with strict, zero-padded
`YYYY-MM-DD` dates, one file per instrument. Monthly macro indicators
arrive as `month,value` CSVs with strict, zero-padded `YYYY-MM` months.
Both loaders read through `_csv.read_rows`, so a malformed file fails with
a CsvParseError naming `path:line`, also for a close or value that is not
finite. Statistics modules take plain arrays, not these series types.
Panels are built by inner-joining the date sets so no price is ever
fabricated; the minimum overlap (default 30 trading days) keeps downstream
regressions well-posed.

The synthetic generator produces random-walk panels, optionally planting a
known cointegrating relationship: the last column is a weighted combination
of the driver columns plus a mean-reverting Ornstein-Uhlenbeck disturbance,
so tests can check that the scan recovers the planted hedge ratio.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._csv import parse_field, read_rows
from .errors import InsufficientOverlapError, ValidationError

DEFAULT_MIN_OVERLAP = 30


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PriceSeries:
    """One instrument's daily closes; dates strictly ascending, prices finite > 0."""

    dates: tuple[dt.date, ...]
    values: np.ndarray
    instrument_id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if len(self.dates) != len(self.values):
            raise ValidationError("dates and values lengths differ")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("dates must be strictly ascending")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("series contains non-finite values")
        if np.any(self.values <= 0):
            raise ValidationError(
                f"non-positive price in series {self.instrument_id!r}"
            )

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class PricePanel:
    """Date-aligned close prices: `prices[i, t]` is instrument i on date t."""

    dates: tuple[dt.date, ...]
    prices: np.ndarray  # shape (n_instruments, n_dates)
    instrument_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "prices", _readonly(self.prices))
        if self.prices.ndim != 2:
            raise ValidationError("prices must be a 2-D matrix")
        n, t = self.prices.shape
        if n != len(self.instrument_ids) or t != len(self.dates):
            raise ValidationError("panel shape does not match labels")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise ValidationError("panel dates must be strictly ascending")
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0):
            raise ValidationError("panel prices must be finite and positive")

    @property
    def n_instruments(self) -> int:
        return self.prices.shape[0]

    @property
    def n_dates(self) -> int:
        return self.prices.shape[1]

    def subpanel(self, indices: Sequence[int]) -> "PricePanel":
        """Panel restricted to the given instrument indices, in that order.

        Its parts come from this checked panel, so the checks are not rerun;
        the date-order check alone is a Python loop over every date.
        """
        idx = list(indices)
        parts = {
            "dates": self.dates,
            "prices": _readonly(self.prices[idx, :]),
            "instrument_ids": tuple(self.instrument_ids[i] for i in idx),
        }
        sub = object.__new__(PricePanel)
        for name, value in parts.items():
            object.__setattr__(sub, name, value)
        return sub


@dataclass(frozen=True)
class MonthlySeries:
    """Monthly indicator values; months contiguous and strictly ascending."""

    months: tuple[str, ...]  # "YYYY-MM"
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if len(self.months) != len(self.values):
            raise ValidationError("months and values lengths differ")
        keys = [_month_key(m) for m in self.months]
        for i in range(1, len(keys)):
            if keys[i] != keys[i - 1] + 1:
                raise ValidationError(
                    "months must be contiguous and ascending, got "
                    f"{self.months[i - 1]} then {self.months[i]}"
                )
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("monthly values must be finite")

    def __len__(self) -> int:
        return len(self.months)


_MONTH = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")
_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _month_key(month: str) -> int:
    """Months since year 0 of a strict, zero-padded `YYYY-MM`."""
    if not _MONTH.fullmatch(month):
        raise ValidationError(f"bad month {month!r}, expected YYYY-MM")
    return int(month[:4]) * 12 + int(month[5:]) - 1


def _finite(text: str) -> float:
    """A float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _date(text: str) -> dt.date:
    """A strict, zero-padded `YYYY-MM-DD` date."""
    text = text.strip()
    if not _DATE.fullmatch(text):
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")
    return dt.date.fromisoformat(text)


def load_price_csv(path: str, instrument_id: str | None = None) -> PriceSeries:
    """Parse a `date,close` CSV (dates `YYYY-MM-DD`) into a PriceSeries.

    Rows are sorted by date. Rejects duplicate dates and closes that are
    not finite and positive; parse failures name the offending line number.
    """
    rows: list[tuple[dt.date, float]] = []
    for line, date_text, close_text in read_rows(path, "date,close"):
        day = parse_field(path, line, "date", date_text, _date)
        close = parse_field(path, line, "close", close_text, _finite)
        if close <= 0:
            raise ValidationError(f"{path}:{line}: non-positive close {close}")
        rows.append((day, close))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    for (a, _), (b, _) in zip(rows, rows[1:]):
        if a == b:
            raise ValidationError(f"{path}: duplicate date {a.isoformat()}")
    name = instrument_id if instrument_id is not None else path
    return PriceSeries(
        dates=tuple(r[0] for r in rows),
        values=np.array([r[1] for r in rows]),
        instrument_id=name,
    )


def load_monthly_csv(path: str) -> MonthlySeries:
    """Parse a `month,value` CSV (months `YYYY-MM`) into a MonthlySeries."""
    rows: list[tuple[int, str, float]] = []
    for line, month_text, value_text in read_rows(path, "month,value"):
        month = month_text.strip()
        key = parse_field(path, line, "month", month, _month_key)
        value = parse_field(path, line, "value", value_text, _finite)
        rows.append((key, month, value))
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    rows.sort(key=lambda r: r[0])
    try:
        return MonthlySeries(
            months=tuple(r[1] for r in rows),
            values=np.array([r[2] for r in rows]),
        )
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def align_panel(
    series_list: Sequence[PriceSeries],
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> PricePanel:
    """Inner-join price series on their common dates.

    Column order follows input order. Raises InsufficientOverlapError when
    fewer than `min_overlap` dates are shared by every series.
    """
    if len(series_list) < 2:
        raise ValidationError("need at least 2 series to build a panel")
    for s in series_list:
        if len(s) == 0:
            raise ValidationError("cannot align an empty series")
    common = set(series_list[0].dates)
    for s in series_list[1:]:
        common &= set(s.dates)
    if len(common) < max(min_overlap, 1):
        raise InsufficientOverlapError(
            f"only {len(common)} common dates, need >= {min_overlap}"
        )
    dates = tuple(sorted(common))
    cols = []
    for s in series_list:
        lookup = dict(zip(s.dates, s.values))
        cols.append([lookup[d] for d in dates])
    return PricePanel(
        dates=dates,
        prices=np.array(cols),
        instrument_ids=tuple(s.instrument_id for s in series_list),
    )


def trading_days(start: dt.date, count: int) -> tuple[dt.date, ...]:
    """`count` consecutive weekdays starting at the first weekday >= start."""
    out: list[dt.date] = []
    day = start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return tuple(out)


@dataclass(frozen=True)
class CointegrationRecipe:
    """Plant a cointegrating relation in the synthetic panel.

    The extra column is `sum_i weights[i] * driver_i + OU noise` where the
    OU disturbance mean-reverts with the given half-life (Euler step, one
    day). The planted cointegrating vector against (drivers..., extra) is
    proportional to (weights..., -1).
    """

    weights: tuple[float, ...]
    noise_scale: float = 1.0
    half_life_days: float = 10.0


@dataclass(frozen=True)
class SynthConfig:
    """Parameters for generate_synthetic_panel."""

    n_walks: int = 2
    n_days: int = 500
    noise_scale: float = 1.0
    start_price: float = 100.0
    start_date: dt.date = field(default=dt.date(2008, 1, 2))
    recipe: CointegrationRecipe | None = None


def simulate_ou(
    rng: np.random.Generator,
    n: int,
    half_life_days: float,
    noise_scale: float,
    x0: float = 0.0,
) -> np.ndarray:
    """Mean-reverting path via the Euler step x_t = x_{t-1}(1 - k) + noise.

    The reversion speed k = ln(2)/half_life, so a regression of the daily
    change on the level recovers slope -k and half-life -ln(2)/slope.
    """
    if half_life_days <= 0:
        raise ValidationError("half_life_days must be positive")
    if noise_scale <= 0:
        raise ValidationError("noise_scale must be positive")
    kappa = math.log(2.0) / half_life_days
    eps = rng.standard_normal(n) * noise_scale
    x = np.empty(n)
    prev = x0
    for t in range(n):
        prev = prev * (1.0 - kappa) + eps[t]
        x[t] = prev
    return x


def generate_synthetic_panel(seed: int, config: SynthConfig) -> PricePanel:
    """Deterministic random-walk panel, optionally with a planted relation.

    Pure function of (seed, config): the same pair always yields a
    bit-identical panel.
    """
    if config.noise_scale <= 0:
        raise ValidationError("noise_scale must be positive")
    if config.n_walks < 1:
        raise ValidationError("need at least one random walk")
    rng = np.random.default_rng(seed)
    steps = rng.standard_normal((config.n_walks, config.n_days)) * config.noise_scale
    walks = config.start_price + np.cumsum(steps, axis=1)
    columns = [walks[i] for i in range(config.n_walks)]
    ids = [f"SYN{i + 1}" for i in range(config.n_walks)]
    if config.recipe is not None:
        recipe = config.recipe
        if len(recipe.weights) != config.n_walks:
            raise ValidationError("recipe weights must match n_walks")
        if recipe.noise_scale <= 0:
            raise ValidationError("recipe noise_scale must be positive")
        ou = simulate_ou(rng, config.n_days, recipe.half_life_days, recipe.noise_scale)
        combo = np.zeros(config.n_days)
        for w, col in zip(recipe.weights, columns):
            combo += w * col
        columns.append(combo + ou)
        ids.append(f"SYN{config.n_walks + 1}")
    prices = np.array(columns)
    if np.any(prices <= 0):
        raise ValidationError(
            "synthetic prices went non-positive; raise start_price or lower noise"
        )
    return PricePanel(
        dates=trading_days(config.start_date, config.n_days),
        prices=prices,
        instrument_ids=tuple(ids),
    )
