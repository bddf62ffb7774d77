import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mrpairs._csv import read_map, read_rows, write_csv
from mrpairs.errors import CsvParseError, PipelineError
from mrpairs.macro_signals import load_forecast_oracle_csv
from mrpairs.market_data import load_monthly_csv, load_price_csv


class TestWriteCsv:
    def test_cell_formats(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(
            str(path),
            "f64,i64,none,inf,nan,text",
            [(np.float64(0.1), np.int64(7), None, math.inf, math.nan, "a+b")],
        )
        assert path.read_bytes() == b"f64,i64,none,inf,nan,text\n0.1,7,,inf,nan,a+b\n"

    def test_floats_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "out.csv"
        values = np.random.default_rng(0).standard_normal(50)
        write_csv(str(path), "i,x", enumerate(values))
        read = [float(b) for _, _, b in read_rows(str(path), "i,x")]
        assert np.array_equal(read, values)


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
        with pytest.raises(CsvParseError, match=r"p\.csv:5: bad date 'bad'"):
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
        with pytest.raises(CsvParseError, match="^" + re.escape(f"{path}{message}")):
            list(read_rows(str(path), "date,close"))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_bytes(b"date,close\n2008-01-02,1.0\nCaf\xe9,2.0\n")
        message = re.escape(f"{path}: not UTF-8 text")
        with pytest.raises(CsvParseError, match="^" + message):
            load_price_csv(str(path))


_LOADERS = {
    "date,close": load_price_csv,
    "month,value": load_monthly_csv,
    "month,direction": load_forecast_oracle_csv,
    # the `--costs` file, as `cli.run` reads it
    "instrument,cost": lambda path: read_map(path, "instrument,cost", str, float),
}
# Per format: a row, a later row that repeats its key, and the key as reported.
_REPEATS = {
    "date,close": ("2008-01-02,1.0", "2008-01-02,1.1", "date 2008-01-02"),
    "month,value": ("2008-01,1.0", " 2008-01 ,2.0", "month 2008-01"),
    "month,direction": ("2008-01,up", "2008-01,down", "month 2008-01"),
    "instrument,cost": ("SYN1,0.01", "SYN1 ,0.02", "instrument SYN1"),
}


@pytest.mark.parametrize("header", sorted(_LOADERS))
def test_every_format_rejects_a_repeated_key_and_a_table_without_rows(
    tmp_path, header
):
    first, repeat, key = _REPEATS[header]
    path = tmp_path / "in.csv"
    path.write_text(f"{header}\n{first}\n\n{repeat}\n")
    with pytest.raises(CsvParseError) as info:
        _LOADERS[header](str(path))
    assert str(info.value) == f"{path}:4: duplicate {key}"
    path.write_text(f"{header}\n\n  \n")
    with pytest.raises(CsvParseError) as info:
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
