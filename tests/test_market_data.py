import bisect
import datetime as dt
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpairs.cli import RunConfig
from mrpairs.errors import ValidationError
from mrpairs.market_data import (
    CointegrationRecipe,
    MonthlySeries,
    PricePanel,
    SynthConfig,
    align_panel,
    generate_synthetic_panel,
    load_monthly_csv,
    load_price_csv,
    trading_days,
)


def _closes(dates, values):
    """A price table as `load_price_csv` returns it (dates ascending)."""
    return np.array(
        list(zip(dates, map(float, values))),
        [("date", "datetime64[D]"), ("close", float)],
    )


D = [dt.date(2008, 1, 2) + dt.timedelta(days=i) for i in range(10)]


class TestLoadPriceCsv:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "eur.csv"
        path.write_text("date,close\n2008-01-02,0.8804\n2008-01-03,0.8760\n")
        closes = load_price_csv(str(path))
        assert closes.tolist() == [
            (dt.date(2008, 1, 2), 0.8804),
            (dt.date(2008, 1, 3), 0.8760),
        ]

    def test_out_of_order_rows_are_sorted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2008-01-03,2.0\n2008-01-02,1.0\n")
        closes = load_price_csv(str(path))
        panel = align_panel({"A": closes, "B": closes}, min_overlap=2)
        assert panel.dates == (dt.date(2008, 1, 2), dt.date(2008, 1, 3))
        assert panel.prices.tolist() == [[1.0, 2.0], [1.0, 2.0]]

    def test_negative_price_names_the_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2008-01-02,1.0\n2008-01-03,-1.0\n")
        with pytest.raises(ValidationError) as info:
            load_price_csv(str(path))
        assert str(info.value) == f"{path}:3: bad close '-1.0'"

    @pytest.mark.parametrize("close", ["0", "-0.0"])
    def test_zero_close_is_a_bad_field(self, tmp_path, close):
        path = tmp_path / "p.csv"
        path.write_text(f"date,close\n2008-01-02,1.0\n2008-01-03,{close}\n")
        with pytest.raises(ValidationError) as info:
            load_price_csv(str(path))
        assert str(info.value) == f"{path}:3: bad close '{close}'"

    def test_duplicate_date_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2008-01-02,1.0\n2008-01-02,1.1\n")
        with pytest.raises(ValidationError) as info:
            load_price_csv(str(path))
        assert str(info.value) == f"{path}:3: duplicate date 2008-01-02"

    def test_malformed_row_has_line_number(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("date,close\n2008-01-02,1.0\nnot-a-date,1.1\n")
        message = re.escape(f"{path}:3: bad date 'not-a-date'")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            load_price_csv(str(path))

    @pytest.mark.parametrize("close", ["nan", "inf", "-inf"])
    def test_non_finite_close_is_a_bad_field(self, tmp_path, close):
        path = tmp_path / "p.csv"
        path.write_text(f"date,close\n2008-01-02,1.0\n2008-01-03,{close}\n")
        with pytest.raises(ValidationError) as info:
            load_price_csv(str(path))
        assert str(info.value) == f"{path}:3: bad close '{close}'"

    @pytest.mark.parametrize("day", ["20080103", "2008-W01-4"])
    def test_date_must_be_zero_padded_yyyy_mm_dd(self, tmp_path, day):
        path = tmp_path / "p.csv"
        path.write_text(f"date,close\n2008-01-02,1.0\n{day},1.1\n")
        with pytest.raises(ValidationError, match=f"p\\.csv:3: bad date '{day}'"):
            load_price_csv(str(path))

    def test_bad_header(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("day,price\n2008-01-02,1.0\n")
        message = re.escape(f"{path}: expected header 'date,close'")
        with pytest.raises(ValidationError, match=f"^{message}$"):
            load_price_csv(str(path))


class TestLoadMonthlyCsv:
    def test_parse_and_sort(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("month,value\n2008-02,2.0\n2008-01,1.0\n2008-03,3.0\n")
        m = load_monthly_csv(str(path))
        assert m.months == ("2008-01", "2008-02", "2008-03")
        assert m.values.tolist() == [1.0, 2.0, 3.0]

    def test_gap_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("month,value\n2008-01,1.0\n2008-03,3.0\n")
        with pytest.raises(ValidationError, match="contiguous"):
            load_monthly_csv(str(path))

    @pytest.mark.parametrize(
        "rows, message",
        [("2008-01,1.0\n2008-03,3.0\n",
          ": months must be contiguous and ascending, got 2008-01 then 2008-03"),
         ("2008-02,1.0\n2008-01,1.0\n2008-02,2.0\n", ":4: duplicate month 2008-02")],
    )
    def test_gap_or_duplicate_names_file_and_months(self, tmp_path, rows, message):
        path = tmp_path / "m.csv"
        path.write_text("month,value\n" + rows)
        with pytest.raises(ValidationError) as info:
            load_monthly_csv(str(path))
        assert str(info.value) == f"{path}{message}"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_value_is_a_bad_field(self, tmp_path, value):
        path = tmp_path / "m.csv"
        path.write_text(f"month,value\n2008-01,1.0\n2008-02,{value}\n")
        with pytest.raises(ValidationError) as info:
            load_monthly_csv(str(path))
        assert str(info.value) == f"{path}:3: bad value '{value}'"

    @pytest.mark.parametrize("month", ["2008-1", "2010-13", "2010-00", "08-01"])
    def test_month_must_be_zero_padded_yyyy_mm(self, tmp_path, month):
        path = tmp_path / "m.csv"
        path.write_text(f"month,value\n2007-12,1.0\n{month},2.0\n")
        with pytest.raises(ValidationError, match=f"m\\.csv:3: bad month '{month}'"):
            load_monthly_csv(str(path))


_REFERENCE_MONTH = re.compile(r"[0-9]{4}-(0[1-9]|1[0-2])")


def _reference_month_check(months):
    """`MonthlySeries`' month check as a loop over the months: every month's
    strict form first, then each step of one month."""
    keys = []
    for month in months:
        if not _REFERENCE_MONTH.fullmatch(month):
            raise ValidationError(f"bad month {month!r}, expected YYYY-MM")
        keys.append(int(month[:4]) * 12 + int(month[5:]) - 1)
    for i in range(1, len(keys)):
        if keys[i] != keys[i - 1] + 1:
            raise ValidationError(
                "months must be contiguous and ascending, got "
                f"{months[i - 1]} then {months[i]}"
            )


def _month_outcomes(months):
    """The error of the reference check and of `MonthlySeries`, or None each."""
    outcomes = []
    for check in (
        _reference_month_check,
        lambda m: MonthlySeries(months=tuple(m), values=np.zeros(len(m))),
    ):
        try:
            check(months)
            outcomes.append(None)
        except ValidationError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


def _run(first, n):
    return [f"{k // 12:04d}-{k % 12 + 1:02d}" for k in range(first, first + n)]


# Month texts the strict form rejects, or that a looser parser would take.
_NEAR_MONTHS = [
    "2008-1", "208-01", "2008-001", "2008-00", "2008-13", "10000-01", "+2008-01",
    "-001-01", " 2008-01", "2008-01 ", "2008-01\n", "2008 -01", "2008-01-01",
    "\uff12\uff10\uff10\uff18-01", "2008-0\u0661", "", "2008/01",
]


class TestMonthlySeries:
    @pytest.mark.parametrize("months, accepted", [
        ([], True),
        (["2008-01"], True),
        (_run(2008 * 12, 443), True),
        (["2008-11", "2008-12", "2009-01"], True),
        (["0000-01", "0000-02"], True),
        (["0000-12", "0001-01"], True),
        (["9999-11", "9999-12"], True),
        (["9999-12", "10000-01"], False),
        (["10000-01", "10000-02"], False),
        (["2008-1", "2008-02"], False),
        (["2008-01", "2008-2"], False),
        (["2008-00", "2008-01"], False),
        (["2008-12", "2008-13"], False),
        (["0000-00"], False),
        (["2008-01", "2008-03"], False),
        (_run(2008 * 12, 200) + _run(2008 * 12 + 201, 200), False),
        (["2008-01", "2008-01"], False),
        (["2008-02", "2008-01"], False),
        (["2008-01", "2008-03", "2008-1"], False),
        ([" 2008-01", "2008-02"], False),
        (["2008-01", "2008-02 "], False),
        (["\uff12\uff10\uff10\uff18-01"], False),
        (["2008-01", "2008-0\u0662"], False),
    ])
    def test_the_check_matches_the_month_loop(self, months, accepted):
        reference, outcome = _month_outcomes(months)
        assert outcome == reference
        assert (reference is None) == accepted

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        first=st.one_of(  # near year 0000, near today, and running past 9999-12
            st.integers(0, 40), st.integers(1990 * 12, 2030 * 12),
            st.integers(9999 * 12 - 30, 9999 * 12 + 11),
        ),
        n=st.integers(1, 30),
        edits=st.lists(
            st.tuples(st.integers(0, 29), st.sampled_from(["swap", "copy", "drop", "near"]),
                      st.sampled_from(_NEAR_MONTHS)),
            max_size=3,
        ),
    )
    def test_edited_runs_match_the_month_loop(self, first, n, edits):
        months = _run(first, n)  # may run past 9999-12 into five-digit years
        for at, edit, text in edits:
            at %= len(months) or 1
            if not months:
                break
            if edit == "swap" and at + 1 < len(months):
                months[at], months[at + 1] = months[at + 1], months[at]
            elif edit == "copy":
                months.insert(at, months[at])
            elif edit == "drop":
                del months[at]
            elif edit == "near":
                months[at] = text
        reference, outcome = _month_outcomes(months)
        assert outcome == reference


class TestAlignPanel:
    def test_identical_dates_all_retained(self):
        a = _closes(D, range(1, 11))
        b = _closes(D, range(2, 12))
        panel = align_panel({"A": a, "B": b}, min_overlap=2)
        assert panel.dates == tuple(D)
        assert panel.instrument_ids == ("A", "B")

    def test_intersection_only(self):
        a = _closes(D[0:3], [1, 2, 3])
        b = _closes(D[1:4], [4, 5, 6])
        panel = align_panel({"A": a, "B": b}, min_overlap=1)
        assert panel.dates == tuple(D[1:3])
        assert panel.prices.tolist() == [[2, 3], [4, 5]]

    def test_disjoint_dates_raise(self):
        a = _closes(D[0:3], [1, 2, 3])
        b = _closes(D[5:8], [4, 5, 6])
        with pytest.raises(ValidationError, match="^only 0 common dates, need >= 1$"):
            align_panel({"A": a, "B": b}, min_overlap=1)

    def test_default_floor_of_30(self):
        # The run config's default is the one place the floor lives.
        a = _closes(D, range(1, 11))
        b = _closes(D, range(2, 12))
        with pytest.raises(ValidationError, match="only 10 common dates, need >= 30"):
            align_panel({"A": a, "B": b}, min_overlap=RunConfig().min_overlap)

    def test_output_dates_subset_of_inputs(self):
        a = _closes(D[0:8], range(1, 9))
        b = _closes(D[2:10], range(1, 9))
        panel = align_panel({"A": a, "B": b}, min_overlap=1)
        a_dates, b_dates = set(a["date"].tolist()), set(b["date"].tolist())
        assert set(panel.dates) <= a_dates
        assert set(panel.dates) <= b_dates
        assert len(panel.dates) == len(a_dates & b_dates)


    @pytest.mark.parametrize("calendars", ["equal", "shifted", "gapped", "equal then gapped"])
    def test_matches_the_pairwise_intersection_chain(self, calendars):
        # 5 tables of 60 weekdays: all equal, each starting a day later, each
        # missing its own dates, or three equal and two with gaps.
        rng = np.random.default_rng(3)
        days = np.array(trading_days(dt.date(2008, 1, 2), 70), dtype="datetime64[D]")
        tables = []
        for i in range(5):
            if calendars == "equal" or (calendars == "equal then gapped" and i < 3):
                keep = days[:60]
            elif calendars == "shifted":
                keep = days[i : 60 + i]
            else:
                keep = np.delete(days, rng.choice(70, 8, replace=False))
            tables.append(_closes(keep.astype(object), rng.uniform(1, 2, len(keep))))
        closes = dict(zip("ABCDE", tables))
        common = tables[0]["date"]
        for table in tables[1:]:
            common = np.intersect1d(common, table["date"], assume_unique=True)
        panel = align_panel(closes, min_overlap=1)
        assert panel.dates == tuple(common.astype(object))
        want = [t["close"][np.searchsorted(t["date"], common)] for t in tables]
        assert panel.prices.tobytes() == np.array(want).tobytes()

class TestPricePanel:
    def test_unsorted_dates_raise(self):
        for dates in [(D[1], D[0], D[2]), (D[0], D[1], D[1])]:  # a repeat too
            with pytest.raises(ValidationError, match="strictly ascending"):
                PricePanel(dates=dates, prices=np.ones((2, 3)), instrument_ids=("A", "B"))

    def test_subpanel_equals_direct_build(self):
        prices = np.arange(1.0, 31.0).reshape(3, 10)
        panel = PricePanel(
            dates=tuple(D), prices=prices, instrument_ids=("A", "B", "C")
        )
        sub = panel.subpanel([2, 0])
        direct = PricePanel(
            dates=tuple(D), prices=prices[[2, 0]], instrument_ids=("C", "A")
        )
        assert sub.dates == direct.dates and sub.instrument_ids == direct.instrument_ids
        assert np.array_equal(sub.prices, direct.prices)
        assert not sub.prices.flags.writeable


class TestGenerateSyntheticPanel:
    def test_deterministic(self):
        cfg = SynthConfig(n_walks=3, n_days=200)
        a = generate_synthetic_panel(1, cfg)
        b = generate_synthetic_panel(1, cfg)
        assert np.array_equal(a.prices, b.prices)
        assert a.dates == b.dates

    def test_seed_changes_panel(self):
        cfg = SynthConfig(n_walks=2, n_days=200)
        a = generate_synthetic_panel(1, cfg)
        b = generate_synthetic_panel(2, cfg)
        assert not np.array_equal(a.prices, b.prices)

    def test_recipe_adds_combination_column(self):
        cfg = SynthConfig(
            n_walks=1, n_days=300, start_price=200.0,
            recipe=CointegrationRecipe(weights=(2.0,), noise_scale=0.5,
                                       half_life_days=10.0),
        )
        panel = generate_synthetic_panel(5, cfg)
        assert panel.n_instruments == 2
        residual = panel.prices[1] - 2.0 * panel.prices[0]
        # the residual is the OU disturbance: bounded, mean-reverting
        assert np.abs(residual).max() < 10.0

    def test_bad_noise_scale(self):
        with pytest.raises(ValidationError):
            generate_synthetic_panel(1, SynthConfig(n_walks=2, noise_scale=0.0))

    def test_weekend_free_calendar(self):
        panel = generate_synthetic_panel(1, SynthConfig(n_walks=2, n_days=50))
        assert all(d.weekday() < 5 for d in panel.dates)


def _weekday_loop(start, count):
    """The reference calendar: step a day at a time and keep the weekdays."""
    out = []
    day = start
    while len(out) < count:
        if day.weekday() < 5:
            out.append(day)
        day += dt.timedelta(days=1)
    return tuple(out)


def test_trading_days_match_the_weekday_loop():
    # Every month of 1990-2030 on days 1, 2, 5, 6, 7 and 28, each with two
    # counts in 0-2500: 5904 cases. The loop runs once from the earliest
    # start, and a later start's days are its run from the first weekday on.
    loop = _weekday_loop(dt.date(1990, 1, 1), 13500)
    counts = iter(np.random.default_rng(0).integers(0, 2501, size=5904).tolist())
    for year in range(1990, 2031):
        for month in range(1, 13):
            for day in (1, 2, 5, 6, 7, 28):
                start = dt.date(year, month, day)
                first = bisect.bisect_left(loop, start)
                for count in (next(counts), next(counts)):
                    expected = loop[first:first + count]
                    assert len(expected) == count
                    assert trading_days(start, count) == expected, (start, count)
    days = trading_days(dt.date(2030, 12, 28), 2500)
    assert days == _weekday_loop(dt.date(2030, 12, 28), 2500)
    assert {type(d) for d in days} == {dt.date}
