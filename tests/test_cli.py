import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import RECIPE_CONFIG, write_monthly_csv, write_price_csv
from mrpairs import cli
from mrpairs.backtest import (
    FrictionlessScorer,
    PositionSeries,
    compute_metrics,
    compute_pnl,
    generate_mr_positions,
)
from mrpairs.cointegration import fit_subset
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


def _run_main(argv):
    """`cli.main` on argv: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "argv", ["mrpairs"] + argv):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with pytest.raises(SystemExit) as exc_info:
                cli.main()
    return exc_info.value.code, out.getvalue(), err.getvalue()


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
        # Three walks and a series that never moves: the scan skips the
        # constant's 7 subsets with their own reason and exits 0.
        T = 300
        dates = generate_synthetic_panel(
            0, SynthConfig(n_walks=1, n_days=T, noise_scale=1.0, start_price=500.0)
        ).dates
        walks = 500.0 + np.cumsum(np.random.default_rng(3).standard_normal((3, T)), 1)
        series = {"FLAT": np.full(T, 250.0), "W1": walks[0], "W2": walks[1],
                  "W3": walks[2]}
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
        assert len(skipped) == 11
        assert [s for s, reason in skipped.items() if reason == "constant series"] == [
            s for s in skipped if "FLAT" in s.split("+")
        ]
        assert sum("FLAT" in s.split("+") for s in skipped) == 7

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

    def test_oracle_flag_stands_in_for_every_indicator(self, pair_workspace, tmp_path):
        # CPI has a `macro_oracle.` key and no `macro.` twin; M1's file is never read.
        config = tmp_path / "run.cfg"
        with open(pair_workspace["config"], encoding="utf-8") as fh:
            config.write_text(fh.read() + "macro.M1 = never-read.csv\n")
        code = cli.run(
            [
                "optimize", "--config", str(config), "--subset", "SYN1,SYN2",
                "--out", str(tmp_path), "--oracle-forecasts", pair_workspace["oracle"],
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
        _, portfolio = fit_subset(panel, 10)
        mr = generate_mr_positions(portfolio.spread.zscores, 1.0, 0.0)
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

    @pytest.mark.parametrize(
        "row, message",
        [("SYN1,abc", ":3: bad cost 'abc'"), ("SYN1", ":3: expected 2 fields, got 1")],
    )
    def test_bad_costs_row(
        self, pair_workspace, monkeypatch, capsys, tmp_path, row, message
    ):
        costs = tmp_path / "costs.csv"
        costs.write_text(f"instrument,cost\nSYN2,0.01\n{row}\n")
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
                "--costs", str(costs),
            ],
        )
        assert code == 2
        assert err.startswith(f"ERR:validation:{costs}{message}")

    @pytest.mark.parametrize(
        "rows, message",
        [("SYN1,0.01\nSYN2,0.01\nSYN1,0.02\n", ":4: duplicate instrument SYN1"),
         ("", ": no data rows")],
    )
    def test_costs_file_repeating_or_without_instruments(
        self, pair_workspace, monkeypatch, capsys, tmp_path, rows, message
    ):
        costs = tmp_path / "costs.csv"
        costs.write_text("instrument,cost\n" + rows)
        out = tmp_path / "out"
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(out), "--costs", str(costs),
            ],
        )
        assert (code, err) == (2, f"ERR:validation:{costs}{message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_cost_not_finite_in_costs_file(
        self, pair_workspace, monkeypatch, capsys, tmp_path, value
    ):
        costs = tmp_path / "costs.csv"
        costs.write_text(f"instrument,cost\nSYN1,{value}\n")
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "backtest", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
                "--costs", str(costs),
            ],
        )
        assert code == 2
        assert err.startswith(
            "ERR:validation:cost for 'SYN1' must be finite and non-negative"
        )

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

    def test_cost_for_unknown_instrument_in_costs_file(
        self, pair_workspace, monkeypatch, capsys, tmp_path
    ):
        costs = tmp_path / "costs.csv"
        costs.write_text("instrument,cost\nSYN1,0.01\nSYN02,0.01\n")
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "optimize", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(tmp_path),
                "--costs", str(costs),
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
    # itself gives a nan diagonal, which must fail the rank check.
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
        assert (code, err) == (3, "ERR:degenerate:regressor matrix is rank deficient\n")

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
            3, "ERR:degenerate:regressor matrix is rank deficient\n"
        )

    # Both VAR residual series are exactly zero, so slogdet takes log 0;
    # the rank check's message is the one line printed.
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
        assert (code, err) == (3, "ERR:degenerate:regressor matrix is rank deficient\n")

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
            # the flag's file stands in for the config's one indicator, CPI
            message = f"indicator 'CPI': no monthly signal covers {months[3]}"
        oracle = tmp_path / "oracle.csv"
        oracle.write_text("month,direction\n" + "".join(f"{m},up\n" for m in rows))
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            [
                "optimize", "--config", pair_workspace["config"],
                "--subset", "SYN1,SYN2", "--out", str(tmp_path / "out"),
                "--oracle-forecasts", str(oracle),
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
        ],
    )
    def test_verify_critical_values_bad_monte_carlo_settings(
        self, monkeypatch, capsys, tmp_path, setting, message
    ):
        config = tmp_path / "mc.cfg"
        config.write_text(f"mc_draws = 50\n{setting}\n")
        out = tmp_path / "out"
        code, err = self._main_exit(
            monkeypatch,
            capsys,
            ["verify-critical-values", "--config", str(config), "--out", str(out)],
        )
        assert code == 2
        assert err == f"ERR:validation:Monte Carlo {message}\n"
        assert not (out / "critical_values.csv").exists()

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
            "cost.EUR = 0.0001\nout_dir = /tmp/xyz\n"
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
    def test_negative_seed_flag_fails_every_command(
        self, small_workspace, tmp_path, command
    ):
        config = tmp_path / "run.cfg"
        config.write_text(small_workspace)
        out = tmp_path / "out"
        code, _, err = _run_main(
            [command, "--config", str(config), "--out", str(out),
             "--subset", "SYN1,SYN2", "--seed", "-1"]
        )
        assert (code, err) == (2, "ERR:validation:seed must be non-negative, got -1\n")
        assert not out.exists()


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
        "drop_macro, setting, flags, message",
        [
            (True, "", [], "optimize needs at least one macro indicator"),
            # M1 and 7 more: 8 indicators and mean reversion, 5 ** 9 grid points
            (False, "".join(f"macro.M{i} = never-read.csv\n" for i in range(2, 9)), [],
             _GRID_OF_9),
            # the flag stands in for every indicator's file and keeps their count
            (True, "".join(f"macro_oracle.M{i} = never-read.csv\n" for i in range(1, 9)),
             ["--oracle-forecasts", "never-read.csv"], _GRID_OF_9),
        ],
    )
    def test_optimize_indicators_and_grid_fail_before_loading(
        self, small_workspace, tmp_path, monkeypatch,
        drop_macro, setting, flags, message,
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
             "--subset", "SYN1,SYN2", *flags]
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
            fit = cli.ci.fit_subset

            def no_reversion(*args):
                outcome, portfolio = fit(*args)
                return outcome, dataclasses.replace(portfolio, half_life_days=half_life)

            monkeypatch.setattr(cli.ci, "fit_subset", no_reversion)
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
        "cointegration.fit_subset", "backtest.generate_mr_positions",
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
    # one costed backtest per run: the strategy's, or the winning weights'
    assert {name: len(args) for name, args in calls.items()} == {
        "cointegration.fit_subset": 1,
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
