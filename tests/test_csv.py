import csv
import datetime as dt
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrpairs._csv import read_map, read_rows, write_csv
from mrpairs.errors import PipelineError, ValidationError
from mrpairs.macro_signals import load_forecast_oracle_csv
from mrpairs import market_data
from mrpairs.market_data import (
    _close,
    _date,
    _finite,
    _month,
    _read_table,
    load_monthly_csv,
    load_price_csv,
)


def write_rows_reference(path, header, rows):
    """The writer as it was before it took columns, one `_cell` per cell:
    the reference for the column writer's bytes."""

    def cell(value):
        if value is None:
            return ""
        if isinstance(value, float):
            return repr(float(value))
        return str(value)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(cell, row)) + "\n" for row in rows)


class TestWriteCsv:
    def test_cell_formats(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(
            str(path),
            "f64,i64,none,inf,nan,text",
            [np.array([0.1]), np.array([7]), [None], [math.inf], [math.nan], ["a+b"]],
        )
        assert path.read_bytes() == b"f64,i64,none,inf,nan,text\n0.1,7,,inf,nan,a+b\n"

    def test_floats_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        values = np.random.default_rng(0).standard_normal(50)
        write_csv(str(path), "i,x", [np.arange(50), values])
        read = [float(b) for _, _, b in read_rows(str(path), "i,x")]
        assert np.array_equal(read, values)

    def test_no_rows_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(str(path), "a,b", [[], np.array([])])
        assert path.read_bytes() == b"a,b\n"

    def test_columns_of_different_lengths_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="columns differ in length"):
            write_csv(str(tmp_path / "out.csv"), "a,b", [[1, 2], np.array([1.0])])


_EDGE_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e308]
_FLOATS = st.one_of(st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=True, width=64))
# Cells without a comma or a line end, which the unquoted format cannot hold.
_TEXT = st.text(st.characters(exclude_categories=["Cs"], exclude_characters=",\r\n"))
_COLUMN_KINDS = {
    "float64": lambda n: st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
    "int8": lambda n: st.lists(st.integers(-128, 127), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int8)
    ),
    "int64": lambda n: st.lists(
        st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n
    ).map(lambda v: np.array(v, dtype=np.int64)),
    "objects": lambda n: st.lists(
        st.one_of(st.none(), _TEXT, st.dates(), _FLOATS, st.integers()),
        min_size=n, max_size=n,
    ),
}


@st.composite
def _columns(draw):
    n = draw(st.integers(0, 20))
    kinds = draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), min_size=1, max_size=5))
    return [draw(_COLUMN_KINDS[kind](n)) for kind in kinds]


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(columns=_columns())
def test_column_writer_writes_the_row_writers_bytes(tmp_path, columns):
    header = ",".join(f"c{i}" for i in range(len(columns)))
    got, want = tmp_path / "columns.csv", tmp_path / "rows.csv"
    write_csv(str(got), header, columns)
    write_rows_reference(str(want), header, zip(*columns))
    assert got.read_bytes() == want.read_bytes()


class TestReadRows:
    def test_skips_blank_rows_and_keeps_physical_line_numbers(self, tmp_path):
        path = tmp_path / "in.csv"
        path.write_text(
            'Date , CLOSE\n"2008-01-02",1.0\n\n   \n"2008-\n01-03",2.0\nx,3.0\n'
        )
        rows = list(read_rows(str(path), "date,close"))
        assert rows == [
            (2, "2008-01-02", "1.0"),
            (6, "2008-\n01-03", "2.0"),
            (7, "x", "3.0"),
        ]

    def test_quoted_field_across_lines_does_not_shift_error_line(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text('date,close\n2008-01-02,"1.0"\n2008-01-03,"2.0\n"\nbad,3.0\n')
        with pytest.raises(ValidationError, match=r"p\.csv:5: bad date 'bad'"):
            load_price_csv(str(path))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", ": expected header 'date,close'"),
            ("date,price\n", ": expected header 'date,close'"),
            ("date,close\n2008-01-02,1.0,x\n", ":2: expected 2 fields, got 3"),
            ("date,close\n2008-01-02\n", ":2: expected 2 fields, got 1"),
            (
                "date,close\n" + "1" * 200_000 + ",1.0\n",
                ":2: field larger than field limit",
            ),
        ],
    )
    def test_malformed_file(self, tmp_path, text, message):
        path = tmp_path / "p.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match="^" + re.escape(f"{path}{message}")):
            list(read_rows(str(path), "date,close"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,close\n2008-01-02,1.0\nCaf\xe9,2.0\n")
        message = re.escape(f"{path}: not UTF-8 text")
        with pytest.raises(ValidationError, match="^" + message):
            load_price_csv(str(path))


_LOADERS = {
    "date,close": load_price_csv,
    "month,value": load_monthly_csv,
    "month,direction": load_forecast_oracle_csv,
}
# Per format: a row, a later row that repeats its key, and the key as reported.
_REPEATS = {
    "date,close": ("2008-01-02,1.0", "2008-01-02,1.1", "date 2008-01-02"),
    "month,value": ("2008-01,1.0", " 2008-01 ,2.0", "month 2008-01"),
    "month,direction": ("2008-01,up", "2008-01,down", "month 2008-01"),
}


@pytest.mark.parametrize("header", sorted(_LOADERS))
def test_every_format_rejects_a_repeated_key_and_a_table_without_rows(
    tmp_path, header
):
    first, repeat, key = _REPEATS[header]
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n{first}\n\n{repeat}\n")
    with pytest.raises(ValidationError) as info:
        _LOADERS[header](str(path))
    assert str(info.value) == f"{path}:4: duplicate {key}"
    path.write_text(f"{header}\n\n  \n")
    with pytest.raises(ValidationError) as info:
        _LOADERS[header](str(path))
    assert str(info.value) == f"{path}: no data rows"


# Characters that make up valid rows of every format, plus a few that break them.
_ALPHABET = "0123456789-.,\" \t\r\nEeinfaupdowlt+\xe9"


@st.composite
def _file_bytes(draw):
    header = draw(st.sampled_from(sorted(_LOADERS)))
    body = draw(
        st.one_of(
            st.binary(max_size=120),
            st.text(alphabet=_ALPHABET, max_size=120).map(str.encode),
        )
    )
    return header, draw(st.sampled_from([b"", header.encode() + b"\n"])) + body


@settings(
    max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=_file_bytes())
def test_loaders_raise_only_pipeline_errors(tmp_path, case):
    header, data = case
    path = tmp_path / "fuzz.csv"
    path.write_bytes(data)
    try:
        _LOADERS[header](str(path))
    except PipelineError:
        pass


# The row loop is the reference for the two whole-column loaders.
_REFERENCE_PARSERS = {"date,close": (_date, _close), "month,value": (_month, _finite)}


def _assert_matches_the_row_loop(path, header):
    """`_read_table` gives `read_map`'s rows in key order, or its exact error."""
    try:
        rows = read_map(str(path), header, *_REFERENCE_PARSERS[header])
    except ValidationError as exc:
        with pytest.raises(ValidationError) as info:
            _read_table(str(path), header)
        assert str(info.value) == str(exc)
    else:
        table = _read_table(str(path), header)
        assert [(k, repr(v)) for k, v in table.tolist()] == [
            (k, repr(v)) for k, v in sorted(rows.items())
        ]


_LONG = "1." + "0" * csv.field_size_limit()  # float reads 1.0; csv rejects the field
# Files on the edge of the plain form, each as (header, text).
_NEAR_MISSES = {
    "year 0000": ("date,close", "date,close\n2008-01-02,1.0\n0000-01-01,2.0\n"),
    "month of year 0000": ("month,value", "month,value\n0000-01,1.0\n0000-02,2.0\n"),
    "2021-02-29": ("date,close", "date,close\n2021-02-28,1.0\n2021-02-29,2.0\n"),
    "crlf": ("date,close", "date,close\r\n2008-01-02,1.0\r\n2008-01-03,2.0\r\n"),
    "lone cr before a value": ("date,close", "date,close\n2008-01-02,\r1.5\n"),
    "bom": ("date,close", "\ufeffdate,close\n2008-01-02,1.0\n"),
    "non-ascii digit": ("month,value", "month,value\n\u0662008-01,1.0\n"),
    "quoted field": ("month,value", 'month,value\n2008-01,"1.0"\n2008-02,2.0\n'),
    "padded key": ("date,close", "date,close\n 2008-01-02 ,1.0\n2008-01-03,2.0\n"),
    "blank line": ("month,value", "month,value\n2008-01,1.0\n\n2008-02,2.0\n"),
    "no final newline": ("date,close", "date,close\n2008-01-02,1.0\n2008-01-03,2.0"),
    "field over the csv limit": ("date,close", f"date,close\n2008-01-02,{_LONG}\n"),
    "nul byte": ("date,close", "date,close\n2008-01-02,1.0\n2008-01-03,2\x00\n"),
    "underscore digits": ("date,close", "date,close\n2008-01-02,1_000\n"),
    "nan": ("month,value", "month,value\n2008-01,1.0\n2008-02,nan\n"),
    "inf": ("date,close", "date,close\n2008-01-02,inf\n"),
    "negative close": ("date,close", "date,close\n2008-01-02,1.0\n2008-01-03,-1\n"),
    "negative value": ("month,value", "month,value\n2008-01,-1\n"),
    "repeated date": ("date,close", "date,close\n2008-01-02,1.0\n2008-01-02,1.0\n"),
    "repeated month": ("month,value", "month,value\n2008-01,1.0\n2008-01,2.0\n"),
    "unsorted rows": ("date,close", "date,close\n2008-01-04,3.0\n2008-01-02,1.0\n"
                      "2008-01-03,2.0\n"),
}


@pytest.mark.parametrize("name", sorted(_NEAR_MISSES))
def test_near_miss_matches_the_row_loop(tmp_path, name):
    header, text = _NEAR_MISSES[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    _assert_matches_the_row_loop(path, header)


def test_plain_file_skips_the_row_loop_and_others_take_it(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(
        market_data, "read_map", lambda *args: calls.append(args) or read_map(*args)
    )
    path = tmp_path / "p.csv"
    path.write_text("date,close\n2008-01-03,2.0\n2008-01-02,1.0\n")
    assert len(load_price_csv(str(path))) == 2 and not calls
    path.write_text("date,close\n2008-01-03,2.0\n2008-01-02,1.0")
    assert len(load_price_csv(str(path))) == 2 and len(calls) == 1



def _plain_by_regex(text, header):
    """The whole-body regex that decided plain form before the byte checks,
    the reference for `_plain_form` on ASCII text. It held a date's month to
    01-12 only through numpy's parse after it; the byte checks hold it, so
    the reference's date key does too."""
    key = {"date,close": "(?!0000)[0-9]{4}-(0[1-9]|1[0-2])-[0-9]{2}",
           "month,value": "[0-9]{4}-(0[1-9]|1[0-2])"}[header]
    line = f'(?:{key}),[^,"\\r\\n]{{0,{csv.field_size_limit()}}}\\n'
    head, _, body = text.partition("\n")
    return head == header and re.fullmatch(f"(?:{line})+", body) is not None


_LIMIT = csv.field_size_limit()
# Bodies on the edges of the byte checks, each as (header, text).
_PLAIN_EDGES = {
    "value at the csv limit": ("date,close", f"date,close\n2008-01-02,{'1' * _LIMIT}\n"),
    "value over the csv limit": ("date,close",
                                 f"date,close\n2008-01-02,{'1' * (_LIMIT + 1)}\n"),
    "empty value": ("month,value", "month,value\n2008-01,\n"),
    "month 00": ("month,value", "month,value\n2008-00,1.0\n"),
    "month 13": ("month,value", "month,value\n2008-13,1.0\n"),
    "date month 13": ("date,close", "date,close\n2008-13-01,1.0\n"),
    "short key then a long line": ("date,close", "date,close\n20\n2008-0,-01,1.5\n"),
    "key of slashes": ("date,close", "date,close\n2008/01/02,1.0\n"),
    "key of letters": ("month,value", "month,value\n20a8-01,1.0\n"),
    "two commas": ("date,close", "date,close\n2008-01-02,1.0,\n"),
    "month key in a price file": ("date,close", "date,close\n2008-01,1.0\n"),
    "date key in a month file": ("month,value", "month,value\n2008-01-02,1.0\n"),
    "no rows": ("month,value", "month,value\n"),
    "many rows": ("date,close", "date,close\n" + "".join(
        f"{d},{i}.5\n" for i, d in enumerate(
            np.arange("2008-01-02", "2012-01-02", dtype="datetime64[D]").astype(str)
        )
    )),
}


@pytest.mark.parametrize("name", sorted(_PLAIN_EDGES))
def test_plain_form_edges_match_the_regex_and_the_row_loop(tmp_path, name):
    header, text = _PLAIN_EDGES[name]
    width = {"date,close": 10, "month,value": 7}[header]
    body = text.encode().partition(b"\n")[2]
    assert market_data._plain_form(body, width) == _plain_by_regex(text, header)
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    _assert_matches_the_row_loop(path, header)

_NEAR_KEYS = {
    "date,close": ["0000-01-01", "2021-02-29", "2008-01-32", "2008-1-02",
                   " 2008-01-02", "\u0662008-01-02", "2008-01-02T00", ""],
    "month,value": ["0000-01", "2008-13", "2008-1", " 2008-01", "\u0662008-01",
                    "2008-01-01", ""],
}
_NEAR_VALUES = ["1_000", "nan", "inf", "-inf", "-1", "0", "-0.0", " 1.5", '"2.5"',
                "\r1.5", "1e400", "1e-400", "", "1.0\x00", "0x1p0", "1,2", _LONG]


@st.composite
def _table_file(draw):
    """A `date,close` or `month,value` file, mostly plain, with some near-misses."""
    header = draw(st.sampled_from(sorted(_REFERENCE_PARSERS)))
    if header == "date,close":
        start = dt.date(2008, 1, 1)
        key = st.dates(start, start + dt.timedelta(days=99)).map(dt.date.isoformat)
    else:
        key = st.integers(2007 * 12, 2007 * 12 + 99).map(
            lambda k: f"{k // 12:04d}-{k % 12 + 1:02d}"
        )
    value = st.floats(min_value=1e-3, max_value=1e6).map(repr)
    near = st.integers(0, 15).map(lambda i: i == 0)  # one draw in 16 is a near miss
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        k = draw(st.sampled_from(_NEAR_KEYS[header]) if draw(near) else key)
        v = draw(st.sampled_from(_NEAR_VALUES) if draw(near) else value)
        end = draw(st.sampled_from(["\r\n", "\n\n", "\r"]) if draw(near)
                   else st.just("\n"))
        lines.append(f"{k},{v}{end}")
    if draw(near):
        lines[-1] = lines[-1].rstrip("\r\n")
    head = draw(st.sampled_from(["\ufeff" + header, header.upper()]) if draw(near)
                else st.just(header))
    return header, head + "\n" + "".join(lines)


@settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.one_of(st.sampled_from(list(_NEAR_MISSES.values())), _table_file()))
def test_whole_column_loaders_match_the_row_loop(tmp_path, case):
    header, text = case
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    _assert_matches_the_row_loop(path, header)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(st.sampled_from(list(_NEAR_MISSES.values())), _table_file()))
def test_byte_checks_accept_what_the_regex_accepted(case):
    header, text = case
    width = {"date,close": 10, "month,value": 7}[header]
    head, _, body = text.encode().partition(b"\n")
    plain = head == header.encode() and market_data._plain_form(body, width)
    # Non-ASCII text now takes the row loop, which reads it the same.
    assert plain == (text.isascii() and _plain_by_regex(text, header))
