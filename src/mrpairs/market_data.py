"""Price and macro data ingestion, panel alignment, and synthetic fixtures.

Daily close prices arrive as `date,close` CSVs with strict, zero-padded
`YYYY-MM-DD` dates, one file per instrument. Monthly macro indicators
arrive as `month,value` CSVs with strict, zero-padded `YYYY-MM` months.
A file in plain form (the exact header, then `key,value` lines with no
quote, CR or blank line) is parsed as whole columns with numpy; any other
file, or one that fails a column check, goes through `_csv.read_map`'s row
loop. Both give the same values, and every error is the row loop's: a
CsvParseError naming `path:line`, also for a repeated date or month and for
a close or value that is not finite (or, for a close, not positive).
A price file loads as a date-sorted structured array of `date`
(`datetime64[D]`) and `close`; statistics modules take plain arrays, not
these types. Panels are built by inner-joining the files' dates so no
price is ever fabricated; the minimum overlap (default 30 trading days)
keeps downstream regressions well-posed.

The synthetic generator produces random-walk panels, optionally planting a
known cointegrating relationship: the last column is a weighted combination
of the driver columns plus a mean-reverting Ornstein-Uhlenbeck disturbance,
so tests can check that the scan recovers the planted hedge ratio.
"""

from __future__ import annotations

import csv
import datetime as dt
import math
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._csv import read_map
from .errors import InsufficientOverlapError, ValidationError

DEFAULT_MIN_OVERLAP = 30


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.asarray(a, dtype=float)
    out.setflags(write=False)
    return out


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


def _month(text: str) -> str:
    """A strict, zero-padded `YYYY-MM` month, as given."""
    _month_key(text)
    return text


def _finite(text: str) -> float:
    """A float that is neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _close(text: str) -> float:
    """A finite, positive close."""
    value = _finite(text)
    if value <= 0:
        raise ValueError(f"non-positive close {text!r}")
    return value


def _date(text: str) -> dt.date:
    """A strict, zero-padded `YYYY-MM-DD` date."""
    if not _DATE.fullmatch(text):
        raise ValueError(f"bad date {text!r}, expected YYYY-MM-DD")
    return dt.date.fromisoformat(text)


# Per input format: the key pattern of a plain-form line, the numpy key type,
# the row loop's parsers, and the bound every value must exceed. Year 0000
# goes to the row loop: numpy reads it as a date, `fromisoformat` does not.
_FORMATS = {
    "date,close": ("(?!0000)" + _DATE.pattern, "datetime64[D]", _date, _close, 0.0),
    "month,value": (_MONTH.pattern, "U7", _month, _finite, -math.inf),
}


def _read_table(path: str, header: str) -> np.ndarray:
    """A `key,value` file as a key-sorted structured array, one row per row.

    See the module docstring: a plain-form file is parsed as whole columns,
    any other file, or one a column check rejects, by `read_map`.
    """
    key, key_type, parse_key, parse_value, floor = _FORMATS[header]
    key_name, value_name = header.split(",")
    dtype = np.dtype([(key_name, key_type), (value_name, float)])
    # A value fits in `csv`'s field limit, as the row loop requires.
    line = f'(?:{key}),[^,"\\r\\n]{{0,{csv.field_size_limit()}}}\\n'
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            head, _, body = fh.read().partition("\n")
        if head != header or not re.fullmatch(f"(?:{line})+", body):
            raise ValueError("not in plain form")
        cells = body[:-1].replace("\n", ",").split(",")
        table = np.empty(len(cells) // 2, dtype)
        table[key_name], table[value_name] = cells[::2], list(map(float, cells[1::2]))
        table = table[np.argsort(table[key_name], kind="stable")]
        keys, values = table[key_name], table[value_name]
        in_range = np.isfinite(values) & (values > floor)
        if not in_range.all() or np.any(keys[1:] == keys[:-1]):
            raise ValueError("a column check failed")
    except ValueError:  # UnicodeDecodeError is one too
        rows = read_map(path, header, parse_key, parse_value)
        table = np.sort(np.array(list(rows.items()), dtype), order=key_name)
    return table


def load_price_csv(path: str) -> np.ndarray:
    """Parse a `date,close` CSV (dates `YYYY-MM-DD`) into a date-sorted table.

    The table is a structured array with fields `date` (`datetime64[D]`)
    and `close`, one element per data row; rows may come in any order.
    """
    return _read_table(path, "date,close")


def load_monthly_csv(path: str) -> MonthlySeries:
    """Parse a `month,value` CSV (months `YYYY-MM`) into a MonthlySeries."""
    table = _read_table(path, "month,value")
    try:
        return MonthlySeries(tuple(table["month"].tolist()), table["value"])
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def align_panel(
    closes: dict[str, np.ndarray],
    min_overlap: int = DEFAULT_MIN_OVERLAP,
) -> PricePanel:
    """Inner-join instruments' price tables on their common dates.

    Each table is date-sorted with unique dates, as `load_price_csv` gives
    it. Rows follow the order of `closes`. Raises InsufficientOverlapError
    when fewer than `min_overlap` dates are shared by every instrument.
    """
    if len(closes) < 2:
        raise ValidationError("need at least 2 series to build a panel")
    # Days as int64: numpy sorts and searches them faster than datetime64.
    days = [table["date"].view(np.int64) for table in closes.values()]
    common = days[0]
    for other in days[1:]:
        common = np.intersect1d(common, other, assume_unique=True)
    if len(common) < max(min_overlap, 1):
        raise InsufficientOverlapError(
            f"only {len(common)} common dates, need >= {min_overlap}"
        )
    return PricePanel(
        dates=tuple(common.view("datetime64[D]").astype(object)),
        prices=np.array([
            table["close"][np.searchsorted(d, common)]
            for d, table in zip(days, closes.values())
        ]),
        instrument_ids=tuple(closes),
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
    prev = 0.0
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
