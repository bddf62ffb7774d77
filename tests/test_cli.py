import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RECIPE_CONFIG, ar1, write_monthly_csv, write_price_csv
from mrpairs import cli
from mrpairs.backtest import (
    FrictionlessScorer,
    PositionSeries,
    compute_metrics,
    compute_pnl,
    trade_subset,
)
from mrpairs.errors import ValidationError
from mrpairs.fusion import WeightVector, combine_signals
from mrpairs.market_data import PricePanel, SynthConfig, generate_synthetic_panel


def _write_panel_csvs(panel, directory):
    paths = {}
    for i, iid in enumerate(panel.instrument_ids):
        paths[iid] = write_price_csv(
            directory / f"{iid}.csv", panel.dates, panel.prices[i]
        )
    return paths


def _months_of(panel):
    out = []
    for day in panel.dates:
        key = f"{day.year:04d}-{day.month:02d}"
        if not out or out[-1] != key:
            out.append(key)
    return out


def _write_oracle(panel, path):
    cycle = ["up", "down", "flat"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("month,direction\n")
        for i, month in enumerate(_months_of(panel)):
            fh.write(f"{month},{cycle[i % 3]}\n")
    return str(path)


@pytest.fixture(scope="module")
def pair_workspace(tmp_path_factory):
    """Recipe pair CSVs, an oracle forecast file, and a base config."""
    root = tmp_path_factory.mktemp("pair")
    panel = generate_synthetic_panel(1, RECIPE_CONFIG)
    paths = _write_panel_csvs(panel, root)
    oracle = _write_oracle(panel, root / "oracle.csv")
    config = root / "run.cfg"
    config.write_text(
        "# recipe pair\n"
        + "".join(f"price.{iid} = {p}\n" for iid, p in sorted(paths.items()))
        + f"macro_oracle.CPI = {oracle}\n"
    )
    return {"root": root, "panel": panel, "config": str(config), "oracle": oracle}


@pytest.fixture(scope="module")
def seven_workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("seven")
    panel = generate_synthetic_panel(
        2, SynthConfig(n_walks=7, n_days=400, noise_scale=1.0, start_price=500.0)
    )
    paths = _write_panel_csvs(panel, root)
    config = root / "run.cfg"
    config.write_text(
        "".join(f"price.{iid} = {p}\n" for iid, p in sorted(paths.items()))
    )
    return {"root": root, "config": str(config)}


@pytest.fixture(scope="module")
def small_workspace(tmp_path_factory):
    """Config text for a 500-day recipe pair and an indicator to train on.

    The indicator starts 24 months before the panel, so its held-out 30%
    of months falls inside the panel.
    """
    root = tmp_path_factory.mktemp("small")
    panel = generate_synthetic_panel(1, dataclasses.replace(RECIPE_CONFIG, n_days=500))
    paths = _write_panel_csvs(panel, root)
    first = panel.dates[0].year * 12 + panel.dates[0].month - 1 - 24
    months = [
        f"{k // 12:04d}-{k % 12 + 1:02d}"
        for k in range(first, first + 24 + len(_months_of(panel)))
    ]
    values = np.cumsum(np.random.default_rng(4).standard_normal(len(months)))
    macro = write_monthly_csv(root / "m1.csv", months, values)
    return "".join(f"price.{iid} = {p}\n" for iid, p in sorted(paths.items())) + (
        f"macro.M1 = {macro}\n"
    )


@pytest.fixture(scope="module")
def three_indicators(tmp_path_factory, small_workspace):
    """`small_workspace`'s prices and three indicator files: M1 and M2 of one
    length, so they train as one stack, and M3 12 months shorter."""
    root = tmp_path_factory.mktemp("three")
    lines = small_workspace.splitlines(True)
    (macro,) = [line.split(" = ", 1)[1].strip() for line in lines if "macro." in line]
    with open(macro, encoding="utf-8") as fh:
        months = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
    walks = np.cumsum(np.random.default_rng(7).standard_normal((2, len(months))), axis=1)
    return {
        "root": root,
        "prices": "".join(line for line in lines if "macro." not in line),
        "months": months,
        "paths": {
            "M1": macro,
            "M2": write_monthly_csv(root / "m2.csv", months, walks[0]),
            "M3": write_monthly_csv(root / "m3.csv", months[12:], walks[1, 12:]),
        },
    }


def _indicator_config(three_indicators, directory, **paths):
    """A config of `three_indicators`' prices and the named indicator files."""
    config = directory / "run.cfg"
    config.write_text(
        three_indicators["prices"]
        + "".join(f"macro.{name} = {path}\n" for name, path in sorted(paths.items()))
    )
    return str(config)


def _run_main(argv):
    """`cli.main` on argv: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["mrpairs"] + argv):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc_info:
                cli.main()
    return exc_info.value.code, out.getvalue(), err.getvalue()


# A batch of 256 walks of float64 must fit in 64 MiB.
_AT_MOST_32768 = "at most 32768 for dimension 1 (a batch of 256 walks in 64 MiB)"
_HUGE_SIZE = 10**19


def _read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    return header, rows


class TestScan:
    def test_seven_instruments_91_rows(self, seven_workspace, tmp_path):
        code = cli.run(
            ["scan", "--config", seven_workspace["config"], "--out", str(tmp_path)]
        )
        assert code == 0
        header, rows = _read_csv(tmp_path / "scan_report.csv")
        assert header[0] == "subset"
        assert len(rows) == 91

    def test_pair_scan_finds_planted_vector(self, pair_workspace, tmp_path):
        code = cli.run(
            ["scan", "--config", pair_workspace["config"], "--out", str(tmp_path)]
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "scan_report.csv")
        assert len(rows) == 1
        subset, skipped, rank, _, hedge, half_life = rows[0]
        assert subset == "SYN1+SYN2"
        assert skipped == "" and rank == "1"
        ratio = [float(x) for x in hedge.split(";")]
        assert ratio[0] == 1.0
        assert abs(ratio[1] + 0.5) < 0.05
        assert 5.0 < float(half_life) < 20.0


    def test_constant_series_is_skipped_not_fatal(self, tmp_path):
        # Three walks, a series that never moves and a straight line: the
        # scan skips the constant's 14 subsets and the line's 7 others, each
        # with its own reason, and exits 0.
        T = 300
        dates = generate_synthetic_panel(
            0, SynthConfig(n_walks=1, n_days=T, noise_scale=1.0, start_price=500.0)
        ).dates
        walks = 500.0 + np.cumsum(np.random.default_rng(3).standard_normal((3, T)), 1)
        series = {"FLAT": np.full(T, 250.0), "W1": walks[0], "W2": walks[1],
                  "W3": walks[2], "LINE": 1000.0 + 0.5 * np.arange(T)}
        config = tmp_path / "run.cfg"
        config.write_text("".join(
            f"price.{iid} = {write_price_csv(tmp_path / f'{iid}.csv', dates, y)}\n"
            for iid, y in series.items()
        ))
        out = tmp_path / "out"
        code, stdout, stderr = _run_main(["scan", "--config", str(config),
                                          "--out", str(out)])
        assert (code, stderr) == (0, "")
        _, rows = _read_csv(out / "scan_report.csv")
        skipped = {row[0]: row[1] for row in rows}
        assert len(skipped) == 25
        assert [s for s, reason in skipped.items() if reason == "constant series"] == [
            s for s in skipped if "FLAT" in s.split("+")
        ]
        assert sum("FLAT" in s.split("+") for s in skipped) == 14
        line = [s for s, reason in skipped.items() if reason == "constant differences"]
        assert line == [s for s in skipped if "LINE" in s.split("+") and "FLAT" not in s]
        assert len(line) == 7

    def test_near_constant_series_is_skipped_not_fatal(self, tmp_path):
        # A constant plus 1e-12 noise fails its unit-root fit's rank check:
        # the scan skips its 7 subsets with their own reason and exits 0,
        # and the other 4 rows are byte for byte a scan of the walks alone.
        T = 1500
        dates = generate_synthetic_panel(
            0, SynthConfig(n_walks=1, n_days=T, noise_scale=1.0, start_price=500.0)
        ).dates
        rng = np.random.default_rng(3)
        walks = 500.0 + np.cumsum(rng.standard_normal((3, T)), 1)
        walks[2] = 0.5 * walks[0] + 250.0 + rng.standard_normal(T)  # W1+W3 cointegrate
        near = 250.0 + 1e-12 * np.random.default_rng(9).standard_normal(T)
        series = {"NEAR": near, "W1": walks[0], "W2": walks[1], "W3": walks[2]}
        paths = {
            iid: write_price_csv(tmp_path / f"{iid}.csv", dates, y)
            for iid, y in series.items()
        }
        reports = {}
        for name, ids in (("all", list(series)), ("walks", ["W1", "W2", "W3"])):
            config = tmp_path / f"{name}.cfg"
            config.write_text("".join(f"price.{iid} = {paths[iid]}\n" for iid in ids))
            out = tmp_path / name
            code, _, stderr = _run_main(["scan", "--config", str(config), "--out", str(out)])
            assert (code, stderr) == (0, "")
            reports[name] = _read_csv(out / "scan_report.csv")[1]
        near_rows = [row for row in reports["all"] if "NEAR" in row[0].split("+")]
        assert len(near_rows) == 7
        assert {tuple(row[1:]) for row in near_rows} == {
            ("singular unit-root fit", "", "", "", "")
        }
        kept = [row for row in reports["all"] if "NEAR" not in row[0].split("+")]
        assert kept == reports["walks"]
        assert any(row[4] and row[5] for row in kept)  # a hedge and a half-life


class TestBacktest:
    def test_outputs_and_roundtrip(self, pair_workspace, tmp_path):
        code = cli.run(
            [
                "backtest", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        n = pair_workspace["panel"].n_dates
        header, rows = _read_csv(tmp_path / "backtest.csv")
        assert header == ["date", "position", "daily_return", "cumulative_return"]
        assert len(rows) == n
        # re-ingest and recompute the summary from the per-day returns
        daily = np.array([float(r[2]) for r in rows])
        _, summary = _read_csv(tmp_path / "backtest_summary.csv")
        apr, sharpe, max_dd, _ = (float(x) for x in summary[0])
        m = compute_metrics(daily)
        assert m.apr == pytest.approx(apr, abs=1e-9)
        assert m.sharpe == pytest.approx(sharpe, abs=1e-9)
        assert m.max_drawdown == pytest.approx(max_dd, abs=1e-9)

    def test_plot_data_rows_and_cumulative_oracle(self, pair_workspace, tmp_path):
        cli.run(
            [
                "backtest", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
            ]
        )
        n = pair_workspace["panel"].n_dates
        for name in ("spread.csv", "zscore_positions.csv", "returns.csv"):
            _, rows = _read_csv(tmp_path / name)
            assert len(rows) == n
            assert (tmp_path / name.replace(".csv", ".svg")).exists()
        _, rows = _read_csv(tmp_path / "returns.csv")
        running = 1.0
        for _, daily, cumulative in rows:
            running *= 1.0 + float(daily)
            assert abs((running - 1.0) - float(cumulative)) < 1e-9

    def test_never_triggered_entry_gives_zero_apr(self, pair_workspace, tmp_path):
        config = tmp_path / "wide.cfg"
        config.write_text(
            open(pair_workspace["config"]).read() + "entry_z = 50.0\n"
        )
        code = cli.run(
            [
                "backtest", "--config", str(config),
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
            ]
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "zscore_positions.csv")
        assert all(r[2] == "0" for r in rows)
        _, summary = _read_csv(tmp_path / "backtest_summary.csv")
        assert float(summary[0][0]) == 0.0
        assert math.isnan(float(summary[0][1]))


def _rescaled_indicator(small_workspace, directory, values_of):
    """`small_workspace`'s config with M1's values replaced by values_of(values)."""
    lines = small_workspace.splitlines(True)
    (macro,) = [line.split(" = ", 1)[1].strip() for line in lines if "macro." in line]
    _, rows = _read_csv(macro)
    months = [month for month, _ in rows]
    values = values_of(np.array([float(value) for _, value in rows]))
    path = write_monthly_csv(directory / "m1.csv", months, values)
    config = directory / "run.cfg"
    config.write_text(
        "".join(line for line in lines if "macro." not in line) + f"macro.M1 = {path}\n"
    )
    return str(config), months


class TestForecast:
    def test_oracle_round_trip(self, pair_workspace, tmp_path):
        code = cli.run(
            ["forecast", "--config", pair_workspace["config"], "--out", str(tmp_path)]
        )
        assert code == 0
        _, rows = _read_csv(tmp_path / "forecast_CPI.csv")
        _, oracle_rows = _read_csv(pair_workspace["oracle"])
        assert sorted(map(tuple, rows)) == sorted(map(tuple, oracle_rows))

    # Taken in the indicator's units, the squares of the scaler's std would
    # overflow at 2**532 and underflow to a zero std at 2**-560. Scaling by a
    # power of two is exact, so the forecasts must be the same.
    @pytest.mark.parametrize("exponent", [532, -560])
    def test_an_indicator_in_huge_or_tiny_units_forecasts_the_same(
        self, small_workspace, tmp_path, exponent
    ):
        forecasts = []
        for scale in (1.0, 2.0**exponent):
            directory = tmp_path / f"scale{scale!r}"
            directory.mkdir()
            config, _ = _rescaled_indicator(
                small_workspace, directory, lambda values: values * scale
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, _, err = _run_main(
                    ["forecast", "--config", config, "--out", str(directory)]
                )
            assert ([str(w.message) for w in caught], code, err) == ([], 0, "")
            forecasts.append((directory / "forecast_M1.csv").read_bytes())
        assert forecasts[0] == forecasts[1]


    def test_three_indicators_forecast_as_each_alone(self, three_indicators, tmp_path):
        paths = three_indicators["paths"]
        config = _indicator_config(three_indicators, tmp_path, **paths)
        with mock.patch.object(
            cli.ms, "train_direction_classifiers", wraps=cli.ms.train_direction_classifiers
        ) as train:
            code, _, err = _run_main(["forecast", "--config", config, "--out", str(tmp_path / "all")])
        assert (code, err) == (0, "")
        # one call trains all three: M1 and M2 as a stack, M3 alone
        ((problems,), _), = train.call_args_list
        shapes = [X.shape for X, _ in problems]
        assert len(shapes) == 3 and shapes[0] == shapes[1] != shapes[2]
        for name, path in paths.items():
            directory = tmp_path / name
            directory.mkdir()
            config = _indicator_config(three_indicators, directory, **{name: path})
            code, _, err = _run_main(["forecast", "--config", config, "--out", str(directory)])
            assert (code, err) == (0, "")
            alone = (directory / f"forecast_{name}.csv").read_bytes()
            assert (tmp_path / "all" / f"forecast_{name}.csv").read_bytes() == alone

    @staticmethod
    def _malformed(directory):
        bad = directory / "bad.csv"
        bad.write_text("month,value\n2000-01,1.0\n2000-02,abc\n")
        return str(bad)

    def test_a_malformed_indicator_file_writes_no_forecast(self, three_indicators, tmp_path):
        bad = self._malformed(tmp_path)
        paths = dict(three_indicators["paths"], M2=bad)
        config = _indicator_config(three_indicators, tmp_path, **paths)
        out = tmp_path / "out"
        code, _, err = _run_main(["forecast", "--config", config, "--out", str(out)])
        assert (code, err) == (2, f"ERR:validation:{bad}:3: bad value 'abc'\n")
        assert not list(out.glob("forecast_*.csv"))

    def test_a_file_error_wins_over_a_single_class_before_it(self, three_indicators, tmp_path):
        # M1 rises every month, so its labels are one class; that is found
        # when the classifiers train, after every file is read.
        months = three_indicators["months"]
        rising = write_monthly_csv(tmp_path / "rising.csv", months, np.arange(len(months)))
        bad = self._malformed(tmp_path)
        config = _indicator_config(three_indicators, tmp_path, M1=rising, M2=bad)
        code, _, err = _run_main(["forecast", "--config", config, "--out", str(tmp_path / "out")])
        assert (code, err) == (2, f"ERR:validation:{bad}:3: bad value 'abc'\n")


class TestOptimize:
    def test_trace_byte_identical_across_runs(self, pair_workspace, tmp_path):
        args = ["optimize", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.run(args + ["--out", str(out_a)]) == 0
        assert cli.run(args + ["--out", str(out_b)]) == 0
        trace_a = (out_a / "optimization_trace.csv").read_bytes()
        assert trace_a == (out_b / "optimization_trace.csv").read_bytes()
        assert len(trace_a.splitlines()) > 2

    def test_summary_baseline_row_is_pure_mean_reversion(
        self, pair_workspace, tmp_path
    ):
        cli.run(
            [
                "optimize", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
            ]
        )
        header, rows = _read_csv(tmp_path / "optimization_summary.csv")
        assert header == ["CPI", "mean_reversion", "apr"]
        baseline, optimized = rows
        assert [float(x) for x in baseline[:2]] == [0.0, 1.0]
        assert float(optimized[2]) >= float(baseline[2])

    def test_an_oracle_key_replaces_the_indicator_model(self, pair_workspace, tmp_path):
        # CPI has a `macro_oracle.` key and no `macro.` twin; M1 has both, and
        # its `macro.` file is never read.
        config = tmp_path / "run.cfg"
        with open(pair_workspace["config"], encoding="utf-8") as fh:
            config.write_text(
                fh.read() + "macro.M1 = never-read.csv\n"
                f"macro_oracle.M1 = {pair_workspace['oracle']}\n"
            )
        code = cli.run(
            [
                "optimize", "--config", str(config), "--subset", "SYN1,SYN2",
                "--out", str(tmp_path),
            ]
        )
        header, _ = _read_csv(tmp_path / "optimization_summary.csv")
        assert (code, header) == (0, ["CPI", "M1", "mean_reversion", "apr"])

    def test_trained_forecasts_fuse_over_the_months_they_cover(
        self, pair_workspace, tmp_path
    ):
        # The indicator starts with the panel, so the classifier, trained on
        # its front 70%, forecasts only the panel's later months.
        panel = pair_workspace["panel"]
        months = _months_of(panel)
        values = np.cumsum(np.random.default_rng(4).standard_normal(len(months)))
        macro = write_monthly_csv(tmp_path / "m1.csv", months, values)
        with open(pair_workspace["config"], encoding="utf-8") as fh:
            prices = [line for line in fh if line.startswith("price.")]
        config = tmp_path / "trained.cfg"
        config.write_text(
            "".join(prices) + f"macro.M1 = {macro}\n"
        )
        args = ["--config", str(config), "--subset", "SYN1,SYN2"]
        args += ["--out", str(tmp_path)]
        assert cli.run(["forecast"] + args) == 0
        assert cli.run(["optimize"] + args) == 0
        _, forecast = _read_csv(tmp_path / "forecast_M1.csv")
        first = forecast[0][0]
        assert months[0] < first and forecast[-1][0] == months[-1]
        # The baseline row is the full-sample mean-reversion strategy, cut to
        # the forecast months.
        start = next(t for t, day in enumerate(panel.dates) if f"{day:%Y-%m}" == first)
        _, _, portfolio, mr = trade_subset(panel, ["SYN1", "SYN2"], 10, None, 1.0, 0.0)
        run = PricePanel(
            panel.dates[start:], panel.prices[:, start:], panel.instrument_ids
        )
        expected = compute_pnl(
            run, portfolio.hedge_ratio, PositionSeries(run.dates, mr.positions[start:])
        ).apr
        _, summary = _read_csv(tmp_path / "optimization_summary.csv")
        assert [float(x) for x in summary[0]] == [0.0, 1.0, expected]
        assert (tmp_path / "optimized_backtest_summary.csv").stat().st_size > 0


class TestReport:
    def test_manifest_hash_stable(self, pair_workspace, tmp_path):
        args = [
            "report", "--config", pair_workspace["config"],
            "--subset", "SYN1,SYN2", "--out", str(tmp_path),
        ]
        hashes = []
        for _ in range(2):
            assert cli.run(args) == 0
            payload = json.loads((tmp_path / "manifest.json").read_text())
            hashes.append(payload["manifest_hash"])
            assert payload["config_hash"]
            assert payload["scan"]["n_subsets"] == 1
            # the search's fixed settings, under the keys that once set them
            assert (payload["config"]["grid_step"], payload["config"]["simplex_max_iter"]) == (
                0.25, 200
            )
        assert hashes[0] == hashes[1]


class TestErrorPaths:
    def _main_exit(self, monkeypatch, capsys, argv):
        monkeypatch.setattr("sys.argv", ["mrpairs"] + argv)
        with pytest.raises(SystemExit) as exc_info:
            cli.main()
        return exc_info.value.code, capsys.readouterr().err

    def test_missing_price_file_io_error(
        self, pair_workspace, tmp_path, monkeypatch, capsys
    ):
        config = tmp_path / "bad.cfg"
        config.write_text(
            "price.A = /nonexistent/a.csv\nprice.B = /nonexistent/b.csv\n"
        )
        code, err = self._main_exit(
            monkeypatch, capsys, ["scan", "--config", str(config)]
        )
        assert code == 4
        assert err.startswith("ERR:io:")

    def test_unknown_config_key(self, tmp_path, monkeypatch, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("frobnicate = 1\n")
        code, err = self._main_exit(
            monkeypatch, capsys, ["scan", "--config", str(config)]
        )
        assert code == 2
        assert err.startswith("ERR:validation:")

    def test_unknown_subset_id(self, pair_workspace, monkeypatch, capsys, tmp_path):
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", pair_workspace["config"],
                "--subset", "SYN1,NOPE", "--out", str(tmp_path),
            ],
        )
        assert code == 2
        assert err.startswith("ERR:validation:")

    def test_repeated_subset_id(self, pair_workspace, monkeypatch, capsys, tmp_path):
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN1", "--out", str(tmp_path),
            ],
        )
        assert code == 2
        assert err.startswith("ERR:validation:repeated subset instrument(s)")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
    def test_cost_not_finite_or_negative_in_config(
        self, pair_workspace, monkeypatch, capsys, tmp_path, value
    ):
        config = tmp_path / "cost.cfg"
        config.write_text(
            open(pair_workspace["config"]).read() + f"cost.SYN1 = {value}\n"
        )
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", str(config),
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
            ],
        )
        assert code == 2
        assert err.startswith(
            "ERR:validation:cost for 'SYN1' must be finite and non-negative"
        )
        assert not (tmp_path / "backtest_summary.csv").exists()

    def test_cost_for_unknown_instrument_in_config(
        self, pair_workspace, monkeypatch, capsys, tmp_path
    ):
        config = tmp_path / "cost.cfg"
        config.write_text(open(pair_workspace["config"]).read() + "cost.SYN01 = 0.5\n")
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", str(config),
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
            ],
        )
        assert code == 2
        assert err.startswith(
            "ERR:validation:cost for unknown instrument(s): ['SYN01']"
        )
        assert not (tmp_path / "backtest_summary.csv").exists()

    def test_cost_for_unknown_instrument_fails_optimize(
        self, pair_workspace, monkeypatch, capsys, tmp_path
    ):
        config = tmp_path / "cost.cfg"
        config.write_text(
            open(pair_workspace["config"]).read() + "cost.SYN1 = 0.01\ncost.SYN02 = 0.01\n"
        )
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "optimize", "--config", str(config),
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
            ],
        )
        assert code == 2
        assert err.startswith(
            "ERR:validation:cost for unknown instrument(s): ['SYN02']"
        )
        assert not (tmp_path / "optimized_backtest_summary.csv").exists()

    def test_price_file_not_utf8(self, pair_workspace, monkeypatch, capsys, tmp_path):
        price = tmp_path / "bad.csv"
        price.write_bytes(b"date,close\n2008-01-02,1.0\n2008-01-03,\xe9\n")
        config = tmp_path / "bad.cfg"
        config.write_text(
            f"price.A = {price}\nprice.B = {pair_workspace['root'] / 'SYN2.csv'}\n"
        )
        code, err = self._main_exit(
            monkeypatch, capsys, ["scan", "--config", str(config)]
        )
        assert code == 2
        assert err == f"ERR:validation:{price}: not UTF-8 text\n"

    def test_config_file_not_utf8(self, monkeypatch, capsys, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_bytes(b"# caf\xe9\nentry_z = 1.0\n")
        code, err = self._main_exit(
            monkeypatch, capsys, ["scan", "--config", str(config)]
        )
        assert code == 2
        assert err == f"ERR:validation:{config}: not UTF-8 text\n"

    # One price file per check of the CSV reader, each ending the scan in
    # its exact ERR line before anything is fitted.
    @pytest.mark.parametrize(
        "text, message",
        [
            ("date,price\n2008-01-02,1.0\n", ": expected header 'date,close'"),
            ("date,close\n2008-01-02,1.0,x\n", ":2: expected 2 fields, got 3"),
            ("date,close\n" + "1" * 200_000 + ",1.0\n",
             ":2: field larger than field limit (131072)"),
            ("date,close\n2008-01-02,1.0\n2008-01-03,abc\n", ":3: bad close 'abc'"),
            ("date,close\n2008-01-02,1.0\n2008-01-02,1.1\n", ":3: duplicate date 2008-01-02"),
            ("date,close\n\n", ": no data rows"),
        ],
    )
    def test_a_malformed_price_file_names_its_line(
        self, pair_workspace, tmp_path, text, message
    ):
        price = tmp_path / "bad.csv"
        price.write_text(text)
        config = tmp_path / "bad.cfg"
        config.write_text(
            f"price.A = {price}\nprice.B = {pair_workspace['root'] / 'SYN2.csv'}\n"
        )
        code, _, err = _run_main(["scan", "--config", str(config), "--out", str(tmp_path)])
        assert (code, err) == (2, f"ERR:validation:{price}{message}\n")

    def test_too_few_common_dates(self, pair_workspace, tmp_path):
        panel = pair_workspace["panel"]
        price = write_price_csv(tmp_path / "short.csv", panel.dates[:10], panel.prices[0, :10])
        config = tmp_path / "short.cfg"
        config.write_text(
            f"price.A = {price}\nprice.B = {pair_workspace['root'] / 'SYN2.csv'}\n"
        )
        code, _, err = _run_main(["scan", "--config", str(config), "--out", str(tmp_path)])
        assert (code, err) == (2, "ERR:validation:only 10 common dates, need >= 30\n")

    def test_a_search_with_no_active_probe_is_degenerate(self, pair_workspace, tmp_path):
        # No spread reaches an entry of 1e6 and every forecast is flat, so
        # every weight probe holds no position.
        oracle = tmp_path / "flat.csv"
        oracle.write_text("month,direction\n" + "".join(
            f"{m},flat\n" for m in _months_of(pair_workspace["panel"])
        ))
        with open(pair_workspace["config"], encoding="utf-8") as fh:
            prices = [line for line in fh if line.startswith("price.")]
        config = tmp_path / "run.cfg"
        config.write_text("".join(prices) + f"macro_oracle.CPI = {oracle}\nentry_z = 1e6\n")
        out = tmp_path / "out"
        code, _, err = _run_main(["optimize", "--config", str(config), "--subset", "SYN1,SYN2",
                                  "--out", str(out)])
        message = "every weight probe produced an all-zero return stream"
        assert (code, err) == (3, f"ERR:degenerate:{message}\n")
        assert not (out / "optimization_trace.csv").exists()

    @pytest.mark.parametrize("command", ["backtest", "optimize", "report"])
    def test_rank_zero_subset_degenerate(
        self, independent_panel, monkeypatch, capsys, tmp_path, command
    ):
        paths = _write_panel_csvs(independent_panel, tmp_path)
        config = tmp_path / "indep.cfg"
        config.write_text(
            "".join(f"price.{iid} = {p}\n" for iid, p in sorted(paths.items()))
            + "macro_oracle.CPI = unused.csv\n"
        )
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                command, "--config", str(config),
                "--subset", "SYN1,SYN2", "--out", str(tmp_path / "out"),
            ],
        )
        assert code == 3
        assert err == (
            "ERR:degenerate:subset ('SYN1', 'SYN2') has cointegration rank 0\n"
        )

    @staticmethod
    def _huge_pair_config(directory, scale):
        """A 500-day recipe pair with every close multiplied by `scale`."""
        panel = generate_synthetic_panel(1, dataclasses.replace(RECIPE_CONFIG, n_days=500))
        huge = PricePanel(panel.dates, panel.prices * scale, panel.instrument_ids)
        paths = _write_panel_csvs(huge, directory)
        config = directory / "huge.cfg"
        config.write_text(
            "".join(f"price.{iid} = {p}\n" for iid, p in sorted(paths.items()))
            + "macro_oracle.CPI = unused.csv\n"  # optimize fails before reading it
        )
        return config

    # Closes near 1e300 overflow the regression moments; near 1e305 the QR
    # itself gives a nan diagonal, which must fail the rank check. The unit-
    # root fits fail it first, so the subset is refused as the scan skips it.
    @pytest.mark.parametrize("scale", [2e297, 2e302])
    @pytest.mark.parametrize("command", ["backtest", "optimize", "report"])
    def test_closes_near_the_float_limit_end_in_one_err_line(
        self, monkeypatch, capsys, tmp_path, scale, command
    ):
        config = self._huge_pair_config(tmp_path, scale)
        argv = [command, "--config", str(config), "--subset", "SYN1,SYN2",
                "--out", str(tmp_path / "out")]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self._main_exit(monkeypatch, capsys, argv)
        assert [str(w.message) for w in caught] == []
        message = "subset ('SYN1', 'SYN2') skipped: singular unit-root fit"
        assert (code, err) == (3, f"ERR:degenerate:{message}\n")

    # The scan has no subset to fit: each series' unit-root fit fails the
    # same rank check, which skips that series' subsets instead.
    @pytest.mark.parametrize("scale", [2e297, 2e302])
    def test_closes_near_the_float_limit_skip_every_subset_of_a_scan(
        self, monkeypatch, capsys, tmp_path, scale
    ):
        config = self._huge_pair_config(tmp_path, scale)
        out = tmp_path / "out"
        argv = ["scan", "--config", str(config), "--out", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, err = self._main_exit(monkeypatch, capsys, argv)
        assert [str(w.message) for w in caught] == []
        assert (code, err) == (0, "")
        _, rows = _read_csv(out / "scan_report.csv")
        assert rows == [["SYN1+SYN2", "singular unit-root fit", "", "", "", ""]]

    def test_closes_near_1e300_print_only_the_err_line(self, tmp_path):
        config = self._huge_pair_config(tmp_path, 2e297)
        argv = ["backtest", "--config", str(config), "--subset", "SYN1,SYN2",
                "--out", str(tmp_path / "out")]
        done = subprocess.run(
            [sys.executable, "-m", "mrpairs.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1])},
            capture_output=True,
            text=True,
        )
        assert (done.returncode, done.stderr) == (
            3, "ERR:degenerate:subset ('SYN1', 'SYN2') skipped: singular unit-root fit\n"
        )

    # Both VAR residual series would be exactly zero, so slogdet would take
    # log 0; the tiny walk's unit-root fit fails the rank check first, and the
    # scan's skip reason is the one line printed.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["backtest", "optimize", "report"])
    def test_a_tiny_walk_and_an_exact_alternation_end_in_one_err_line(
        self, tmp_path, command
    ):
        panel = generate_synthetic_panel(0, dataclasses.replace(RECIPE_CONFIG, n_days=60))
        walk = np.cumsum(np.random.default_rng(0).standard_normal(60))
        closes = {"A": 1e-300 * (1.5 + np.abs(walk)), "B": np.resize([1.0, 2.0], 60)}
        config = tmp_path / "run.cfg"
        config.write_text("".join(
            f"price.{iid} = {write_price_csv(tmp_path / f'{iid}.csv', panel.dates, v)}\n"
            for iid, v in closes.items()
        ) + "macro.M1 = never-read.csv\n")
        code, _, err = _run_main([command, "--config", str(config), "--subset", "A,B",
                                  "--out", str(tmp_path / "out")])
        message = "subset ('A', 'B') skipped: singular unit-root fit"
        assert (code, err) == (3, f"ERR:degenerate:{message}\n")

    @pytest.fixture(scope="class")
    def screened_config(self, tmp_path_factory):
        """A walk W beside an AR(0.5) series S, a constant C and a straight
        line L at T = 600, and the scan's skip reason of each subset."""
        root = tmp_path_factory.mktemp("screened")
        dates = generate_synthetic_panel(0, dataclasses.replace(RECIPE_CONFIG, n_days=600)).dates
        rng = np.random.default_rng(0)
        closes = {
            "W": 100.0 + np.cumsum(rng.standard_normal(600)),
            "S": 100.0 + ar1(rng, 600, 0.5),
            "C": np.full(600, 50.0),
            "L": 10.0 + 0.125 * np.arange(600),
        }
        config = root / "run.cfg"
        config.write_text("".join(
            f"price.{iid} = {write_price_csv(root / f'{iid}.csv', dates, v)}\n"
            for iid, v in closes.items()
        ) + "macro.M1 = never-read.csv\n")
        assert cli.run(["scan", "--config", str(config), "--out", str(root)]) == 0
        _, rows = _read_csv(root / "scan_report.csv")
        return config, {row[0]: row[1] for row in rows}

    # `scan` skips these subsets, so a subset command refuses them with the
    # scan's reason before it writes anything. C and L have two reasons;
    # `adf_test` finds C's first, so both orders of the pair take it.
    @pytest.mark.parametrize("subset, reason", [
        ("W,S", "not all I(1)"), ("W,C", "constant series"), ("W,L", "constant differences"),
        ("C,L", "constant series"), ("L,C", "constant series"),
    ])
    @pytest.mark.parametrize("command", ["backtest", "optimize", "report"])
    def test_a_subset_the_scan_skips_ends_in_its_skip_reason(
        self, screened_config, tmp_path, command, subset, reason
    ):
        config, skipped = screened_config
        ids = subset.split(",")
        assert skipped["+".join(sorted(ids, key="WSCL".index))] == reason  # the config's order
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--subset", subset, "--out", str(out)]
        )
        assert (code, err) == (3, f"ERR:degenerate:subset {tuple(ids)} skipped: {reason}\n")
        assert not out.exists()

    @pytest.mark.parametrize("coverage", ["none", "gap"])
    def test_forecasts_that_miss_the_run(
        self, pair_workspace, monkeypatch, capsys, tmp_path, coverage
    ):
        months = _months_of(pair_workspace["panel"])
        if coverage == "none":
            rows = ["1990-01", "1990-02"]
            message = "no trading date falls in a month every forecast covers"
        else:
            rows = months[:3] + months[4:]
            message = f"indicator 'CPI': no monthly signal covers {months[3]}"
        oracle = tmp_path / "oracle.csv"
        oracle.write_text("month,direction\n" + "".join(f"{m},up\n" for m in rows))
        with open(pair_workspace["config"], encoding="utf-8") as fh:
            prices = [line for line in fh if line.startswith("price.")]
        config = tmp_path / "run.cfg"
        config.write_text("".join(prices) + f"macro_oracle.CPI = {oracle}\n")
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "optimize", "--config", str(config),
                "--subset", "SYN1,SYN2", "--out", str(tmp_path / "out"),
            ],
        )
        assert code == 2
        assert err == f"ERR:validation:{message}\n"

    def test_forecast_with_no_indicator(self, small_workspace, tmp_path):
        # optimize's own message is checked before loading, in TestChecksBeforeLoading
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace.replace("macro.", "# macro."))
        code, _, err = _run_main(
            ["forecast", "--config", str(config), "--out", str(tmp_path / "out")]
        )
        message = "config names no macro.<ID> or macro_oracle.<ID> files"
        assert (code, err) == (2, f"ERR:validation:{message}\n")

    @pytest.mark.parametrize("command", ["forecast", "optimize"])
    def test_indicator_changes_that_overflow(self, small_workspace, tmp_path, command):
        config, months = _rescaled_indicator(
            small_workspace,
            tmp_path,
            lambda values: np.where(np.arange(len(values)) % 2 == 0, 1.5e308, -1.5e308),
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = _run_main(
                [command, "--config", config, "--out", str(tmp_path / "out"),
                 "--subset", "SYN1,SYN2"]
            )
        message = f"indicator 'M1': the month-over-month changes overflow at {months[1]}"
        assert ([str(w.message) for w in caught], code, err) == (
            [], 2, f"ERR:validation:{message}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["forecast", "optimize"])
    def test_forecast_months_far_outside_the_training_ones(
        self, small_workspace, tmp_path, command
    ):
        # Trained on values near 1e-300, the held-out months near 1e300 have
        # no finite class score; forecasting from nan would pick a class.
        def values_of(values):
            held_out = np.arange(len(values)) >= len(values) - 5
            return np.where(held_out, 1e300, 1e-300) * values

        config, _ = _rescaled_indicator(small_workspace, tmp_path, values_of)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = _run_main(
                [command, "--config", config, "--out", str(tmp_path / "out"),
                 "--subset", "SYN1,SYN2"]
            )
        assert [str(w.message) for w in caught] == []
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("ERR:validation:indicator 'M1': forecast row ")
        assert err.endswith(" is too far outside the training features to score\n")

    @pytest.mark.parametrize("command", ["forecast", "optimize"])
    def test_an_indicator_of_one_class_is_named(self, small_workspace, tmp_path, command):
        # rises every month, so every training label is Up
        config, _ = _rescaled_indicator(
            small_workspace, tmp_path, lambda values: np.arange(len(values), dtype=float)
        )
        code, _, err = _run_main(
            [command, "--config", config, "--out", str(tmp_path / "out"),
             "--subset", "SYN1,SYN2"]
        )
        message = "indicator 'M1': training labels contain a single class"
        assert (code, err) == (3, f"ERR:degenerate:{message}\n")

    @pytest.mark.parametrize("command", ["forecast", "optimize"])
    def test_indicator_too_short_to_hold_out_a_window(
        self, small_workspace, tmp_path, command
    ):
        # 8 months give 4 labelled ones, fewer than the 24 the classifier trains on.
        months = [f"2000-{m:02d}" for m in range(1, 9)]
        macro = write_monthly_csv(tmp_path / "short.csv", months, np.arange(8.0))
        prices = [line for line in small_workspace.splitlines(True) if "macro." not in line]
        config = tmp_path / "run.cfg"
        config.write_text("".join(prices) + f"macro.M1 = {macro}\n")
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(tmp_path / "out"),
             "--subset", "SYN1,SYN2"]
        )
        message = "indicator 'M1': too few months to hold out a forecast window"
        assert (code, err) == (2, f"ERR:validation:{message}\n")

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("mc_draws = 0", "needs at least 1 draw, got 0"),
            ("mc_draws = -5", "needs at least 1 draw, got -5"),
            ("mc_adf_sample_size = 2", "sample size must be at least 4, got 2"),
            ("mc_adf_sample_size = 3", "sample size must be at least 4, got 3"),
            ("mc_johansen_sample_size = 1", "sample size must be at least 4, got 1"),
            *(
                (f"{key} = {_HUGE_SIZE}", f"sample size must be {_AT_MOST_32768}, got {_HUGE_SIZE}")
                for key in ("mc_adf_sample_size", "mc_johansen_sample_size")
            ),
        ],
    )
    def test_verify_critical_values_bad_monte_carlo_settings(
        self, monkeypatch, capsys, tmp_path, setting, message
    ):
        config = tmp_path / "mc.cfg"
        # A key may appear once: a bad mc_draws stands in for the small one.
        small = "" if setting.startswith("mc_draws ") else "mc_draws = 50\n"
        config.write_text(f"{small}{setting}\n")
        out = tmp_path / "out"
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            ["verify-critical-values", "--config", str(config), "--out", str(out)],
        )
        assert code == 2
        assert err == f"ERR:validation:Monte Carlo {message}\n"
        assert not out.exists()

    def test_verify_critical_values_checks_sizes_before_simulating(
        self, monkeypatch, capsys, tmp_path
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("ADF Monte Carlo ran before the size check")

        monkeypatch.setattr(cli.ur, "simulate_adf_null_statistics", no_simulation)
        config = tmp_path / "mc.cfg"
        config.write_text("mc_johansen_sample_size = 1\n")
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            ["verify-critical-values", "--config", str(config), "--out", str(tmp_path)],
        )
        assert code == 2
        assert err == "ERR:validation:Monte Carlo sample size must be at least 4, got 1\n"

    def test_verify_critical_values_smallest_settings(self, tmp_path):
        config = tmp_path / "mc.cfg"
        config.write_text(
            "mc_draws = 1\nmc_adf_sample_size = 4\nmc_johansen_sample_size = 4\n"
        )
        assert cli.run(
            ["verify-critical-values", "--config", str(config), "--out", str(tmp_path)]
        ) == 0
        _, rows = _read_csv(tmp_path / "critical_values.csv")
        assert all(math.isfinite(float(x)) for row in rows for x in row[1:])

    def test_duplicated_series_degenerate(self, tmp_path, monkeypatch, capsys):
        panel = generate_synthetic_panel(
            3, SynthConfig(n_walks=1, n_days=200, start_price=500.0)
        )
        path = write_price_csv(tmp_path / "one.csv", panel.dates, panel.prices[0])
        config = tmp_path / "dup.cfg"
        config.write_text(f"price.A = {path}\nprice.B = {path}\n")
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", str(config),
                "--subset", "A,B", "--out", str(tmp_path),
            ],
        )
        assert code == 3
        assert err.startswith("ERR:degenerate:")

    def _run_with(self, workspace, monkeypatch, capsys, tmp_path, command, setting):
        config = tmp_path / "run.cfg"
        config.write_text(pathlib.Path(workspace["config"]).read_text() + setting + "\n")
        argv = ["--config", str(config), "--out", str(tmp_path / "out")]
        if command != "scan":
            argv += ["--subset", "SYN1,SYN2"]
        return self._main_exit(monkeypatch, capsys, [command] + argv)

    @pytest.mark.parametrize(
        "setting, message",
        [
            ("mr_weight_floor = 1.5", "mr_weight_floor must be in [0, 1], got 1.5"),
            ("mr_weight_floor = nan", "mr_weight_floor must be in [0, 1], got nan"),
            ("mr_weight_floor = -1", "mr_weight_floor must be in [0, 1], got -1.0"),
            ("mr_weight_floor = inf", "mr_weight_floor must be in [0, 1], got inf"),
            ("mr_weight_floor = -inf", "mr_weight_floor must be in [0, 1], got -inf"),
        ],
    )
    def test_bad_optimizer_settings(
        self, pair_workspace, monkeypatch, capsys, tmp_path, setting, message
    ):
        code, err = self._run_with(
            pair_workspace, monkeypatch, capsys, tmp_path, "optimize", setting
        )
        assert code == 2
        assert err.startswith(f"ERR:validation:{message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out" / "optimization_trace.csv").exists()

    @pytest.mark.parametrize(
        "setting, shown",
        [
            ("entry_z = nan", "nan and 0.0"),
            ("entry_z = inf", "inf and 0.0"),
            ("exit_z = nan", "1.0 and nan"),
        ],
    )
    def test_non_finite_thresholds(
        self, pair_workspace, monkeypatch, capsys, tmp_path, setting, shown
    ):
        code, err = self._run_with(
            pair_workspace, monkeypatch, capsys, tmp_path, "backtest", setting
        )
        assert code == 2
        assert err == (
            f"ERR:validation:entry and exit thresholds must be finite, got {shown}\n"
        )
        assert not (tmp_path / "out" / "backtest_summary.csv").exists()

    def test_negative_adf_max_lag(self, pair_workspace, monkeypatch, capsys, tmp_path):
        code, err = self._run_with(
            pair_workspace, monkeypatch, capsys, tmp_path, "scan", "adf_max_lag = -2"
        )
        assert code == 2
        assert err == "ERR:validation:adf_max_lag must be non-negative, got -2\n"

    def test_adf_max_lag_too_large_for_the_panel(
        self, pair_workspace, monkeypatch, capsys, tmp_path
    ):
        # A max lag that leaves 9 rows for its unit-root fits is a setting
        # the panel cannot meet, not a singular series: the scan fails.
        max_lag = pair_workspace["panel"].n_dates - 10
        code, err = self._run_with(
            pair_workspace, monkeypatch, capsys, tmp_path, "scan", f"adf_max_lag = {max_lag}"
        )
        assert (code, err) == (3, "ERR:degenerate:9 observations for 9 regressors\n")


class TestConfigParsing:
    def test_comments_and_overrides(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text(
            "# comment\n\nentry_z = 2.0\nexit_z = 0.5\nseed = 7\n"
            "cost.EUR = 0.0001\nout_dir = /tmp/xyz\nprice.EUR = eur.csv\n"
        )
        cfg = cli.parse_config_file(str(config))
        assert cfg.entry_z == 2.0
        assert cfg.exit_z == 0.5
        assert cfg.seed == 7
        assert cfg.costs == {"EUR": 0.0001}
        assert cfg.out_dir == "/tmp/xyz"

    def test_bad_line_reports_position(self, tmp_path):
        config = tmp_path / "c.cfg"
        config.write_text("entry_z = 1.0\nnot a pair\n")
        with pytest.raises(Exception, match=":2:"):
            cli.parse_config_file(str(config))

    @pytest.mark.parametrize(
        "lines, line, key",
        [
            (["price.A = a.csv", "price.B = b.csv", "price.A = c.csv"], 3, "price.A"),
            (["seed = 1", "price.A = a.csv", "price.B = b.csv", "seed = 1"], 4, "seed"),
            (["cost.A = 0.1", "", "# same key", "cost.A = 0.2"], 4, "cost.A"),
        ],
        ids=["price", "scalar", "cost after a comment"],
    )
    def test_a_repeated_key_is_rejected_at_its_line(self, tmp_path, lines, line, key):
        # No second value replaces the first; no data file is read.
        config = tmp_path / "run.cfg"
        config.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        code, _, err = _run_main(["scan", "--config", str(config), "--out", str(out)])
        assert (code, err) == (2, f"ERR:validation:{config}:{line}: repeated key {key!r}\n")
        assert not out.exists()

    def test_config_hash_ignores_key_order(self, tmp_path):
        a, b = tmp_path / "a.cfg", tmp_path / "b.cfg"
        a.write_text("entry_z = 2.0\nseed = 3\n")
        b.write_text("seed = 3\nentry_z = 2.0\n")
        assert cli.config_hash(cli.parse_config_file(str(a))) == cli.config_hash(
            cli.parse_config_file(str(b))
        )

    def test_every_scalar_field_has_one_parse_rule(self, tmp_path):
        # Each scalar field parses with the type its annotation names.
        samples = {"float": 0.375, "int": 7, "int | None": 7, "str": "elsewhere"}
        defaults = cli.RunConfig()
        values = {
            f.name: samples[f.type] for f in dataclasses.fields(cli.RunConfig)
            if not isinstance(getattr(defaults, f.name), dict)
        }
        values["exit_z"] = 0.125  # below entry_z, as the threshold check asks
        config = tmp_path / "all.cfg"
        config.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
        parsed = cli.parse_config_file(str(config))
        for name, value in values.items():
            assert value != getattr(defaults, name), name
            got = getattr(parsed, name)
            assert got == value and type(got) is type(value), name

    def test_config_is_frozen_and_checked_on_replace(self):
        cfg = cli.RunConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = 3
        with pytest.raises(ValidationError, match="seed must be non-negative, got -1"):
            dataclasses.replace(cfg, seed=-1)

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        rows = [
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in readme.read_text(encoding="utf-8").splitlines()
            if line.startswith("| `")
        ]
        table = {row[0]: row[2] for row in rows}
        expected = {}
        for f in dataclasses.fields(cli.RunConfig):
            if f.default is dataclasses.MISSING:  # a map, filled by dotted keys
                prefix = next(p for p, (name, _) in cli._PREFIXES.items() if name == f.name)
                expected[f"{prefix}.<ID>"] = "none"
            else:
                expected[f.name] = str(f.default)
        assert table == expected


class TestConfigChecks:
    """Keys that no library function checks fail in `RunConfig`, before any work."""

    @pytest.mark.parametrize(
        "command, setting, message",
        [
            *(
                ("forecast", f"forecast_train_fraction = {value}",
                 f"forecast_train_fraction must be in (0, 1), got {shown}")
                for value, shown in [
                    ("nan", "nan"), ("inf", "inf"), ("-1", "-1.0"), ("0", "0.0"),
                    ("1", "1.0"),
                ]
            ),
            ("verify-critical-values", "seed = -1", "seed must be non-negative, got -1"),
            ("scan", "var_max_lag = 0", "var_max_lag must be at least 1, got 0"),
            ("scan", "var_max_lag = -3", "var_max_lag must be at least 1, got -3"),
            ("scan", "min_overlap = -5", "min_overlap must be at least 1, got -5"),
            ("forecast", "flat_epsilon = nan",
             "flat_epsilon must be finite and non-negative, got nan"),
            ("forecast", "flat_epsilon = inf",
             "flat_epsilon must be finite and non-negative, got inf"),
        ],
    )
    def test_bad_setting_fails_before_any_output(
        self, small_workspace, tmp_path, command, setting, message
    ):
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + setting + "\n")
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(out), "--subset", "SYN1,SYN2"]
        )
        assert (code, err) == (2, f"ERR:validation:{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command",
        ["scan", "backtest", "forecast", "optimize", "report", "verify-critical-values"],
    )
    def test_negative_seed_fails_every_command(self, small_workspace, tmp_path, command):
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + "seed = -1\n")
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(out), "--subset", "SYN1,SYN2"]
        )
        assert (code, err) == (2, "ERR:validation:seed must be non-negative, got -1\n")
        assert not out.exists()


class TestArguments:
    """An argument the parser rejects ends in one ERR line, as any bad input does."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["scan"], "the following arguments are required: --config"),
            (["scan", "--config", "run.cfg", "--verbose"], "unrecognized arguments: --verbose"),
            (["simulate", "--config", "run.cfg"],
             "argument command: invalid choice: 'simulate' (choose from "
             + ", ".join(map(repr, cli.COMMANDS)) + ")"),
            (["backtest", "--config", "run.cfg", "--subset"],
             "argument --subset: expected one argument"),
        ],
    )
    def test_an_argument_error_is_one_err_line(self, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)  # the default --out, where nothing may appear
        code, out, err = _run_main(argv)
        assert (code, out, err) == (2, "", f"ERR:validation:{message}\n")
        assert list(tmp_path.iterdir()) == []

    # The `seed`, `cost.<ID>` and `macro_oracle.<ID>` config keys set these.
    @pytest.mark.parametrize(
        "flag, value", [("--seed", "1"), ("--costs", "c.csv"), ("--oracle-forecasts", "f.csv")]
    )
    def test_a_removed_flag_is_an_unrecognized_argument(
        self, small_workspace, tmp_path, flag, value
    ):
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace)
        code, out, err = _run_main(
            ["optimize", "--config", str(config), "--subset", "SYN1,SYN2",
             "--out", str(tmp_path / "out"), flag, value]
        )
        message = f"unrecognized arguments: {flag} {value}"
        assert (code, out, err) == (2, "", f"ERR:validation:{message}\n")
        assert list(tmp_path.iterdir()) == [config]

    def test_help_lists_the_command_config_subset_and_out(self):
        code, out, err = _run_main(["--help"])
        assert (code, err) == (0, "")
        assert set(re.findall(r"--[a-z-]+", out)) == {"--help", "--config", "--subset", "--out"}


def _no_load(cfg):
    raise AssertionError("a price file was read before the check")


_GRID_OF_9 = "9 signal sources give a grid of more than 1000000 points (5 ticks per weight)"


class TestChecksBeforeLoading:
    """Every key and `--subset` id that needs no data is checked before any load."""

    @pytest.mark.parametrize("command", ["scan", "report"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ("entry_z = nan", "entry and exit thresholds must be finite, got nan and 0.0"),
            ("entry_z = inf", "entry and exit thresholds must be finite, got inf and 0.0"),
            ("exit_z = nan", "entry and exit thresholds must be finite, got 1.0 and nan"),
            ("exit_z = inf", "entry and exit thresholds must be finite, got 1.0 and inf"),
            ("exit_z = 1", "exit threshold must be below entry threshold"),
            ("flat_epsilon = nan", "flat_epsilon must be finite and non-negative, got nan"),
            ("flat_epsilon = inf", "flat_epsilon must be finite and non-negative, got inf"),
            ("mr_weight_floor = nan", "mr_weight_floor must be in [0, 1], got nan"),
            ("mr_weight_floor = inf", "mr_weight_floor must be in [0, 1], got inf"),
            ("cost.SYN1 = nan", "cost for 'SYN1' must be finite and non-negative, got nan"),
            ("cost.SYN1 = inf", "cost for 'SYN1' must be finite and non-negative, got inf"),
            ("mc_draws = 0", "Monte Carlo needs at least 1 draw, got 0"),
            ("mc_adf_sample_size = 3", "Monte Carlo sample size must be at least 4, got 3"),
            ("mc_johansen_sample_size = 1",
             "Monte Carlo sample size must be at least 4, got 1"),
            ("mc_adf_sample_size = 32769",
             f"Monte Carlo sample size must be {_AT_MOST_32768}, got 32769"),
            ("subset_min = 1", "subset_min must be at least 2, got 1"),
            ("subset_max = 1", "subset_max must be at least subset_min (2), got 1"),
            ("subset_min = 3",
             "subset_min must be at most the number of price.<ID> keys (2), got 3"),
            ("adf_max_lag = -2", "adf_max_lag must be non-negative, got -2"),
        ],
    )
    def test_bad_key_fails_every_command_before_loading(
        self, small_workspace, tmp_path, monkeypatch, command, setting, message
    ):
        monkeypatch.setattr(cli, "_load_panel", _no_load)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + setting + "\n")
        out = tmp_path / "out"
        code, _, err = _run_main([command, "--config", str(config), "--out", str(out)])
        assert (code, err) == (2, f"ERR:validation:{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "optimize", "report"])
    @pytest.mark.parametrize(
        "subset, message",
        [
            ("SYN1,NOPE", "unknown subset instrument(s): ['NOPE']"),
            ("SYN1,SYN2,SYN1", "repeated subset instrument(s): ['SYN1']"),
        ],
    )
    def test_subset_ids_fail_before_loading(
        self, small_workspace, tmp_path, monkeypatch, command, subset, message
    ):
        monkeypatch.setattr(cli, "_load_panel", _no_load)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace)
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(out), "--subset", subset]
        )
        assert (code, err) == (2, f"ERR:validation:{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "optimize", "report"])
    @pytest.mark.parametrize("subset", ["SYN1", "SYN1,SYN2,SYN3,SYN4,SYN5"])
    def test_subset_width_fails_before_loading(
        self, small_workspace, tmp_path, monkeypatch, command, subset
    ):
        monkeypatch.setattr(cli, "_load_panel", _no_load)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + "".join(
            f"price.SYN{i} = {tmp_path / f'SYN{i}.csv'}\n" for i in range(3, 6)
        ))
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(out), "--subset", subset]
        )
        width = len(subset.split(","))
        message = f"--subset must name 2 to 4 instruments, got {width}"
        assert (code, err) == (2, f"ERR:validation:{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["scan", "report"])
    def test_subset_max_above_four_fails_before_loading(
        self, small_workspace, tmp_path, monkeypatch, command
    ):
        monkeypatch.setattr(cli, "_load_panel", _no_load)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + "subset_max = 5\n" + "".join(
            f"price.SYN{i} = {tmp_path / f'SYN{i}.csv'}\n" for i in range(3, 6)
        ))
        out = tmp_path / "out"
        code, _, err = _run_main([command, "--config", str(config), "--out", str(out)])
        message = "subset_max must be at most 4 with 5 instruments, got 5"
        assert (code, err) == (2, f"ERR:validation:{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "drop_macro, setting, message",
        [
            (True, "", "optimize needs at least one macro indicator"),
            # M1 and 7 more: 8 indicators and mean reversion, 5 ** 9 grid points
            (False, "".join(f"macro.M{i} = never-read.csv\n" for i in range(2, 9)),
             _GRID_OF_9),
            # an oracle file counts as an indicator as a trained model does
            (True, "".join(f"macro_oracle.M{i} = never-read.csv\n" for i in range(1, 9)),
             _GRID_OF_9),
        ],
    )
    def test_optimize_indicators_and_grid_fail_before_loading(
        self, small_workspace, tmp_path, monkeypatch, drop_macro, setting, message
    ):
        monkeypatch.setattr(cli, "_load_panel", _no_load)
        text = small_workspace
        if drop_macro:
            text = text.replace("macro.", "# macro.")
        config = tmp_path / "run.cfg"
        config.write_text(text + setting)
        out = tmp_path / "out"
        code, _, err = _run_main(
            ["optimize", "--config", str(config), "--out", str(out),
             "--subset", "SYN1,SYN2"]
        )
        assert (code, err) == (2, f"ERR:validation:{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["grid_step = 0.25", "simplex_max_iter = 200"])
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_a_removed_search_key_fails_before_any_file_is_read(self, tmp_path, command, key):
        config = tmp_path / "run.cfg"
        config.write_text(
            "price.A = never-read.csv\nprice.B = never-read.csv\n"
            f"macro.M1 = never-read.csv\n{key}\n"
        )
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(out), "--subset", "A,B"]
        )
        name = key.split(" ")[0]
        assert (code, err) == (2, f"ERR:validation:unknown config key {name!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("scan", "price.A,B = never-read.csv", "bad id 'A,B' in 'price.A,B'"),
            ("scan", "price.A+B = never-read.csv", "bad id 'A+B' in 'price.A+B'"),
            ("scan", "price. = never-read.csv", "bad id '' in 'price.'"),
            ("scan", "price.A B = never-read.csv", "bad id 'A B' in 'price.A B'"),
            ("forecast", "macro.a/b = never-read.csv", "bad id 'a/b' in 'macro.a/b'"),
            ("forecast", "macro_oracle.a:b = never-read.csv",
             "bad id 'a:b' in 'macro_oracle.a:b'"),
            ("backtest", "cost.SYN1; = 0.01", "bad id 'SYN1;' in 'cost.SYN1;'"),
        ],
    )
    def test_bad_id_fails_before_any_file_is_read(
        self, small_workspace, tmp_path, monkeypatch, command, line, message
    ):
        monkeypatch.setattr(cli, "_load_panel", _no_load)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + line + "\n")
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(out), "--subset", "SYN1,SYN2"]
        )
        assert (code, err) == (2, f"ERR:validation:{config}:4: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["backtest", "optimize"])
    def test_missing_required_subset_fails_before_loading(
        self, small_workspace, tmp_path, monkeypatch, command
    ):
        monkeypatch.setattr(cli, "_load_panel", _no_load)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace)
        out = tmp_path / "out"
        code, _, err = _run_main([command, "--config", str(config), "--out", str(out)])
        assert (code, err) == (2, f"ERR:validation:{command} requires --subset\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize(
        "line, flags", [("", ["--out", ""]), ("out_dir =\n", [])], ids=["flag", "key"]
    )
    def test_empty_out_dir_fails_before_any_file_is_read(
        self, tmp_path, command, line, flags
    ):
        # Reading a file, or simulating and then writing, would end in ERR:io.
        config = tmp_path / "run.cfg"
        config.write_text(
            "price.SYN1 = never-read.csv\nprice.SYN2 = never-read.csv\n"
            "macro.M1 = never-read.csv\nmc_draws = 1\n" + line
        )
        code, _, err = _run_main(
            [command, "--config", str(config), "--subset", "SYN1,SYN2", *flags]
        )
        message = "out_dir must be a directory path, got ''"
        assert (code, err) == (2, f"ERR:validation:{message}\n")

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_out_dir_naming_a_file_fails_before_any_file_is_read(
        self, tmp_path, command
    ):
        # Reading a price file first would end in `[Errno 2] No such file`.
        config = tmp_path / "run.cfg"
        config.write_text(
            "price.SYN1 = never-read.csv\nprice.SYN2 = never-read.csv\n"
            "macro.M1 = never-read.csv\nmc_draws = 1\n"
        )
        afile = tmp_path / "afile"
        afile.write_text("")
        code, _, err = _run_main(
            [command, "--config", str(config), "--subset", "SYN1,SYN2",
             "--out", str(afile)]
        )
        assert (code, err) == (4, f"ERR:io:[Errno 17] File exists: '{afile}'\n")

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    @pytest.mark.parametrize("below, named", [("sub", "sub"), ("a/b", "a")])
    def test_out_dir_below_a_file_fails_before_any_file_is_read(
        self, small_workspace, tmp_path, monkeypatch, command, below, named
    ):
        # The message names the first directory `os.makedirs` would make.
        monkeypatch.setattr(cli, "load_price_csv", _no_load)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + "mc_draws = 1\n")
        afile = tmp_path / "afile"
        afile.write_text("")
        before = sorted(tmp_path.rglob("*"))
        code, _, err = _run_main(
            [command, "--config", str(config), "--subset", "SYN1,SYN2",
             "--out", f"{afile}/{below}"]
        )
        message = f"[Errno 20] Not a directory: '{afile}/{named}'"
        assert (code, err) == (4, f"ERR:io:{message}\n")
        assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == ""

    def test_report_runs_without_subset(self, small_workspace, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace)
        assert cli.run(["report", "--config", str(config), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["scan"]["n_subsets"] == 1
        assert "backtest" not in manifest

    def test_subset_max_above_four_is_capped_by_a_pair(self, small_workspace, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace + "subset_max = 5\n")
        assert cli.run(["scan", "--config", str(config), "--out", str(tmp_path)]) == 0
        _, rows = _read_csv(tmp_path / "scan_report.csv")
        assert [row[0] for row in rows] == ["SYN1+SYN2"]

    @pytest.mark.parametrize("half_life", [None, math.inf])
    def test_report_manifest_is_strict_json(
        self, small_workspace, tmp_path, monkeypatch, half_life
    ):
        if half_life is not None:  # a portfolio with no measured mean reversion
            fit = cli.ci._fit_subsets

            def no_reversion(*args):  # the workspace's one pair, in the scan too
                ((reason, (outcome, portfolio)),) = fit(*args)
                portfolio = dataclasses.replace(portfolio, half_life_days=half_life)
                return [(reason, (outcome, portfolio))]

            monkeypatch.setattr(cli.ci, "_fit_subsets", no_reversion)
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace)
        argv = ["report", "--config", str(config), "--out", str(tmp_path)]
        assert cli.run(argv + ["--subset", "SYN1,SYN2"]) == 0

        def reject(constant):
            raise ValueError(f"manifest holds {constant}")

        text = (tmp_path / "manifest.json").read_text(encoding="utf-8")
        backtest = json.loads(text, parse_constant=reject)["backtest"]
        if half_life is not None:
            assert backtest["half_life_days"] is None


@pytest.mark.parametrize(
    "command, name, flags, subset_ids",
    [
        ("scan", "cmd_scan", ["--subset", "SYN1,SYN2"], ["SYN1", "SYN2"]),
        ("verify-critical-values", "cmd_verify_critical_values", [], None),
    ],
)
def test_dispatch_calls_the_module_attribute(
    small_workspace, tmp_path, monkeypatch, command, name, flags, subset_ids
):
    # A tracer wraps a command by setting the module attribute, so `run`
    # must look the command up there when it dispatches, not hold it.
    calls = []

    def stub(*args):
        calls.append(args)
        return 7

    monkeypatch.setattr(cli, name, stub)
    config = tmp_path / "run.cfg"
    config.write_text(small_workspace)
    out = str(tmp_path / "out")
    assert cli.run([command, "--config", str(config), "--out", out, *flags]) == 7
    expected = dataclasses.replace(cli.parse_config_file(str(config)), out_dir=out)
    assert calls == [(expected, subset_ids)]


def _record_calls(monkeypatch, names):
    """Record the arguments of each call of each `module.function`, wrapped
    at every binding in mrpairs.

    A tracer wraps the same bindings, so a call that escapes this record
    would escape the tracer too.
    """
    calls = {name: [] for name in names}
    modules = [m for key, m in sys.modules.items() if key.startswith("mrpairs.")]

    def recorded(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        module, attr = name.split(".")
        original = getattr(sys.modules[f"mrpairs.{module}"], attr)
        wrapper = recorded(name, original)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    monkeypatch.setattr(m, key, wrapper)
    return calls


@pytest.mark.parametrize("command", ["backtest", "report", "optimize"])
def test_a_subset_run_fits_once_and_backtests_each_distinct_fused_rule_once(
    pair_workspace, tmp_path, monkeypatch, command
):
    config = tmp_path / "run.cfg"
    config.write_text(
        pathlib.Path(pair_workspace["config"]).read_text()
        + f"macro_oracle.GDP = {pair_workspace['oracle']}\n"
    )
    calls = _record_calls(monkeypatch, [
        "cointegration._fit_subsets", "unit_root.classify_integration_order",
        "backtest.generate_mr_positions",
        "backtest.compute_pnl", "macro_signals.expand_monthly_to_daily",
        "fusion.optimize_weights",
    ])
    scored = []
    score = FrictionlessScorer.score

    def recorded_score(self, positions):
        scored.append(positions.tobytes())
        return score(self, positions)

    monkeypatch.setattr(FrictionlessScorer, "score", recorded_score)
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--subset", "SYN1,SYN2", "--out", str(out)]
    assert cli.run(argv) == 0
    rules, indicators, optimizations = set(), 0, 0
    if command == "optimize":  # the search scores each distinct rule of the trace
        (sources, *_), = calls["fusion.optimize_weights"]
        trace = _read_csv(out / "optimization_trace.csv")[1]
        assert len(trace) > 1 + 5 ** 3  # the baseline, the 0.25-step grid, the simplex
        rules = {
            combine_signals(sources, WeightVector(tuple(map(float, row[1:-1])))).signals.tobytes()
            for row in trace
        }
        assert 1 < len(rules) < len(trace)
        indicators, optimizations = 2, 1
    assert len(set(scored)) == len(scored)
    assert set(scored) == rules
    # The subset is screened and fitted once, by the scan's path; report's
    # scan of the config's pair takes that path too. Each of the two series
    # is classified once: report classifies them for its scan and hands
    # the classes to the subset. One costed backtest per run: the
    # strategy's, or the winning weights'.
    scans = int(command == "report")
    *_, (sub, columns, *_) = calls["cointegration._fit_subsets"]
    assert (sub.instrument_ids, columns) == (("SYN1", "SYN2"), [(0, 1)])
    assert {name: len(args) for name, args in calls.items()} == {
        "cointegration._fit_subsets": 1 + scans,
        "unit_root.classify_integration_order": 2,
        "backtest.generate_mr_positions": 1,
        "backtest.compute_pnl": 1,
        "macro_signals.expand_monthly_to_daily": indicators,
        "fusion.optimize_weights": optimizations,
    }



# sha256 of each file `optimize` writes: on the oracle pair and with a
# trained indicator (two sources each). The vote, the search and the costed
# backtest of the winner must keep them byte for byte.
PINNED_OPTIMIZE = {
    "oracle forecasts": {
        "optimization_trace.csv":
            "a1fffd7527fa0d56d47d59a8ea3577a90b666cdf23cc5cdf592f5c9bb4684aa4",
        "optimization_summary.csv":
            "804127a127711b3ea17b5182e2aaeef305eb56b863f665733f3b20400f2c6336",
        "optimized_backtest_summary.csv":
            "e89bac41a3ff2ab582e348478f25afd5f780c3d963f1ee19bf94be836d5f18d6",
    },
    "trained indicator": {
        "optimization_trace.csv":
            "8e951a860089683e88d78073f51626c3a8448e736544911d892fb413fc1e2bbf",
        "optimization_summary.csv":
            "81b4368d06f21da57782e53141b38d4167f60512bbcbcdda519199e3032b1ed9",
        "optimized_backtest_summary.csv":
            "03a52d9e87a941569f4965bb832ff701223ff77f6a6d7348404e531f800e041b",
    },
}


@pytest.mark.parametrize("name", list(PINNED_OPTIMIZE))
def test_optimize_outputs_are_byte_identical_to_the_pinned_ones(
    pair_workspace, small_workspace, tmp_path, name
):
    config = tmp_path / "run.cfg"
    if name == "oracle forecasts":
        config.write_text(pathlib.Path(pair_workspace["config"]).read_text())
    else:
        config.write_text(small_workspace)
    out = tmp_path / "out"
    argv = ["optimize", "--config", str(config), "--subset", "SYN1,SYN2", "--out", str(out)]
    assert cli.run(argv) == 0
    digests = {
        file: hashlib.sha256((out / file).read_bytes()).hexdigest()
        for file in PINNED_OPTIMIZE[name]
    }
    assert digests == PINNED_OPTIMIZE[name]


# sha256 of `forecast_M1.csv` from `mrpairs forecast` on `small_workspace`:
# at flat_epsilon 0 the classifier trains on two labels, at 0.5 on three.
PINNED_FORECAST = {
    "0.0": "6d3bd01620f28ef2c7d56a2c37b2bace9362bcbf654b49821bb23628485a1aa9",
    "0.5": "b263b92f8303ff9dddf70ba60bb50f32787e9198a7aab04eb8d28177903ed526",
}


@pytest.mark.parametrize("flat_epsilon", list(PINNED_FORECAST))
def test_forecasts_are_byte_identical_to_the_pinned_ones(
    small_workspace, tmp_path, flat_epsilon
):
    config = tmp_path / "run.cfg"
    config.write_text(small_workspace + f"flat_epsilon = {flat_epsilon}\n")
    out = tmp_path / "out"
    assert cli.run(["forecast", "--config", str(config), "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "forecast_M1.csv").read_bytes()).hexdigest()
    assert digest == PINNED_FORECAST[flat_epsilon]

_TRICKY = [
    "nan", "-nan", "inf", "-inf", "1e-310", "5e-324", "0", "-0.0", "-1", "-3", "0.5",
    "1", "1e308", "99999999999999999999", "-99999999999999999999", "1.5e3", "7",
    "junk", "", "0x10", "1_000", "None",
]
_VALUES = st.one_of(
    st.sampled_from(_TRICKY),
    st.integers(-(10**20), 10**20).map(str),
    st.floats().map(repr),
)
_KEYS = sorted(cli._SCALAR_KEYS) + [f"{p}.SYN1" for p in cli._PREFIXES]
_LINES = st.one_of(
    st.builds("{} = {}".format, st.sampled_from(_KEYS + ["frob", ""]), _VALUES),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=30),
)


class TestConfigFuzz:
    """Any config either runs or ends in one `ERR:` line, never a traceback."""

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(_LINES, max_size=8))
    def test_any_text_parses_or_fails_validation(self, tmp_path_factory, lines):
        config = tmp_path_factory.getbasetemp() / "fuzz.cfg"
        config.write_text("\n".join(lines), encoding="utf-8")
        try:
            assert isinstance(cli.parse_config_file(str(config)), cli.RunConfig)
        except ValidationError:
            pass

    # The Monte Carlo sizes are left out: a batch holds 4000 draws of
    # sample-size floats. out_dir would write wherever it points.
    @settings(max_examples=20, deadline=None)
    @given(
        key=st.sampled_from(
            [k for k in cli._SCALAR_KEYS if not k.startswith("mc_") and k != "out_dir"]
        ),
        value=_VALUES,
    )
    @example(key="forecast_train_fraction", value="nan")
    def test_one_tricky_key_runs_or_ends_in_one_err_line(
        self, small_workspace, tmp_path_factory, key, value
    ):
        root = tmp_path_factory.mktemp("fuzz")
        config = root / "run.cfg"
        config.write_text(small_workspace + f"{key} = {value}\n")
        for command in (["report", "--subset", "SYN1,SYN2"], ["forecast"]):
            code, _, err = _run_main(
                command + ["--config", str(config), "--out", str(root / "out")]
            )
            assert code in (0, 2, 3, 4), (command, err)
            assert err.count("\n") <= 1 and err.startswith("ERR:") == bool(err), err


def test_importing_the_cli_or_scanning_loads_no_scipy(
    seven_workspace, pair_workspace, tmp_path
):
    # mrpairs needs numpy only: importing the CLI and running each of its
    # six subcommands, one after another in one interpreter, loads no scipy.
    src = pathlib.Path(cli.__file__).parents[1]
    config = tmp_path / "run.cfg"
    config.write_text(
        pathlib.Path(pair_workspace["config"]).read_text()
        + "mc_draws = 20\nmc_adf_sample_size = 50\nmc_johansen_sample_size = 50\n"
    )
    common = ["--config", str(config), "--out", str(tmp_path)]
    runs = [["scan", "--config", seven_workspace["config"], "--out", str(tmp_path)]]
    runs += [[command] + common for command in ("scan", "forecast", "verify-critical-values")]
    runs += [
        [command, "--subset", "SYN1,SYN2"] + common
        for command in ("backtest", "optimize", "report")
    ]
    probe = (
        "import sys, mrpairs.cli\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "print('scipy:', loaded())\n"
        f"for argv in {runs!r}:\n"
        "    assert mrpairs.cli.run(argv) == 0, argv\n"
        "    print('scipy:', loaded())\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    reports = [line for line in done.stdout.splitlines() if line.startswith("scipy:")]
    assert reports == ["scipy: []"] * (1 + len(runs))


def test_only_report_loads_hashlib(pair_workspace, tmp_path):
    # hashlib loads OpenSSL (some 3 MB): importing the CLI and running the
    # commands that hash nothing, in a fresh interpreter, leave it unloaded.
    src = pathlib.Path(cli.__file__).parents[1]
    common = ["--config", pair_workspace["config"], "--out", str(tmp_path)]
    runs = [["scan"] + common, ["forecast"] + common]
    runs += [
        [command, "--subset", "SYN1,SYN2"] + common
        for command in ("backtest", "optimize", "report")
    ]
    probe = (
        "import sys, mrpairs.cli\n"
        "print('hashlib:', 'hashlib' in sys.modules)\n"
        f"for argv in {runs!r}:\n"
        "    assert mrpairs.cli.run(argv) == 0, argv\n"
        "    print('hashlib:', 'hashlib' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    reports = [line for line in done.stdout.splitlines() if line.startswith("hashlib:")]
    assert reports == ["hashlib: False"] * 5 + ["hashlib: True"]
