"""Command-line orchestration of the full research pipeline.

Subcommands: scan, backtest, forecast, optimize, report, and
verify-critical-values. Configuration is a flat `key = value` text file
(no nesting, diff-friendly); defaults reproduce the research settings
(entry z 1.0, exit z 0.0, subset sizes 2..4, 95% confidence).

Errors print a single machine-parsable line `ERR:<code>:<message>` and map
to exit codes: 2 validation, 3 numerical degeneracy, 4 I/O.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import backtest as bt
from . import cointegration as ci
from . import fusion
from . import macro_signals as ms
from . import spread_dynamics as sd
from . import unit_root as ur
from .errors import CsvParseError, PipelineError, ValidationError
from .market_data import align_panel, load_monthly_csv, load_price_csv
from .plot_data import emit_plot_data

EXIT_OK, EXIT_VALIDATION, EXIT_DEGENERATE, EXIT_IO = 0, 2, 3, 4


@dataclass
class RunConfig:
    """Everything a pipeline run needs; defaults mirror the research settings."""

    price_paths: dict[str, str] = field(default_factory=dict)
    macro_paths: dict[str, str] = field(default_factory=dict)
    macro_oracle_paths: dict[str, str] = field(default_factory=dict)
    costs: dict[str, float] = field(default_factory=dict)
    entry_z: float = 1.0
    exit_z: float = 0.0
    subset_min: int = 2
    subset_max: int = 4
    flat_epsilon: float = 0.0
    min_overlap: int = 30
    var_max_lag: int = 10
    adf_max_lag: int | None = None
    grid_step: float = 0.25
    mr_weight_floor: float = 0.0
    simplex_max_iter: int = 200
    forecast_train_fraction: float = 0.7
    mc_draws: int = 100_000
    mc_adf_sample_size: int = 500
    mc_johansen_sample_size: int = 1000
    seed: int = 0
    out_dir: str = "."


_FLOAT_KEYS = {
    "entry_z", "exit_z", "flat_epsilon", "grid_step", "mr_weight_floor",
    "forecast_train_fraction",
}
_INT_KEYS = {
    "subset_min", "subset_max", "min_overlap", "var_max_lag", "adf_max_lag",
    "simplex_max_iter", "mc_draws", "mc_adf_sample_size",
    "mc_johansen_sample_size", "seed",
}


def parse_config_file(path: str) -> RunConfig:
    """Flat `key = value` format; dotted keys map instruments to files."""
    cfg = RunConfig()
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected key = value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            try:
                _apply_config_key(cfg, key, value)
            except (ValueError, KeyError) as exc:
                raise ValidationError(f"{path}:{lineno}: bad value for {key!r}") from exc
    return cfg


def _apply_config_key(cfg: RunConfig, key: str, value: str) -> None:
    if key.startswith("price."):
        cfg.price_paths[key[len("price."):]] = value
    elif key.startswith("macro_oracle."):
        cfg.macro_oracle_paths[key[len("macro_oracle."):]] = value
    elif key.startswith("macro."):
        cfg.macro_paths[key[len("macro."):]] = value
    elif key.startswith("cost."):
        cfg.costs[key[len("cost."):]] = float(value)
    elif key == "out_dir":
        cfg.out_dir = value
    elif key in _FLOAT_KEYS:
        setattr(cfg, key, float(value))
    elif key in _INT_KEYS:
        setattr(cfg, key, int(value))
    else:
        raise ValidationError(f"unknown config key {key!r}")


def config_echo(cfg: RunConfig) -> dict:
    echo = {
        k: v
        for k, v in vars(cfg).items()
        if not isinstance(v, dict)
    }
    for name in ("price_paths", "macro_paths", "macro_oracle_paths", "costs"):
        echo[name] = dict(sorted(getattr(cfg, name).items()))
    return echo


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(config_echo(cfg), sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_panel(cfg: RunConfig):
    if len(cfg.price_paths) < 2:
        raise ValidationError("config must name at least two price.<ID> files")
    series = [
        load_price_csv(path, instrument_id=iid)
        for iid, path in cfg.price_paths.items()
    ]
    return align_panel(series, min_overlap=cfg.min_overlap)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def cmd_scan(cfg: RunConfig) -> int:
    panel = _load_panel(cfg)
    rows = ci.scan_cointegration(
        panel,
        min_size=cfg.subset_min,
        max_size=cfg.subset_max,
        var_max_lag=cfg.var_max_lag,
        adf_max_lag=cfg.adf_max_lag,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "scan_report.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("subset,skipped_reason,rank,top_eigenvalue,hedge_ratio,half_life_days\n")
        for row in rows:
            hedge = (
                ";".join(repr(float(h)) for h in row.hedge_ratio)
                if row.hedge_ratio is not None
                else ""
            )
            fh.write(
                ",".join(
                    [
                        "+".join(row.subset),
                        row.skipped_reason or "",
                        _fmt(row.rank),
                        _fmt(row.top_eigenvalue),
                        hedge,
                        _fmt(row.half_life_days),
                    ]
                )
                + "\n"
            )
    print(f"wrote {path} ({len(rows)} subsets)")
    return EXIT_OK


def _portfolio_for_subset(cfg: RunConfig, panel, subset_ids: list[str]):
    missing = [s for s in subset_ids if s not in panel.instrument_ids]
    if missing:
        raise ValidationError(f"unknown subset instrument(s): {missing}")
    repeated = sorted({s for s in subset_ids if subset_ids.count(s) > 1})
    if repeated:
        raise ValidationError(f"repeated subset instrument(s): {repeated}")
    indices = [panel.instrument_ids.index(s) for s in subset_ids]
    sub = panel.subpanel(indices)
    feasible = max(1, min(cfg.var_max_lag, (sub.n_dates - 30) // sub.n_instruments))
    var_lag = ci.select_var_lag(sub, feasible)
    outcome = ci.johansen_test(sub, var_lag)
    hedge = ci.extract_hedge_ratio(outcome)
    spread = sd.compute_spread(sub, hedge)
    half_life = sd.estimate_half_life(spread).half_life_days
    return sub, outcome, hedge, spread, half_life


def cmd_backtest(cfg: RunConfig, subset_ids: list[str]) -> int:
    panel = _load_panel(cfg)
    sub, _, hedge, spread, half_life = _portfolio_for_subset(cfg, panel, subset_ids)
    positions = bt.generate_mr_positions(
        spread.zscores, entry=cfg.entry_z, exit=cfg.exit_z, dates=sub.dates
    )
    report = bt.compute_pnl(sub, hedge, positions, bt.CostModel(cfg.costs))
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "backtest.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("date,position,daily_return,cumulative_return\n")
        for day, pos, r, c in zip(
            report.dates, report.positions,
            report.daily_returns, report.cumulative_returns,
        ):
            fh.write(f"{day.isoformat()},{pos},{float(r)!r},{float(c)!r}\n")
    summary_path = os.path.join(cfg.out_dir, "backtest_summary.csv")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write("apr,sharpe,max_drawdown,total_cost\n")
        fh.write(
            f"{report.apr!r},{report.sharpe!r},"
            f"{report.max_drawdown!r},{report.total_transaction_cost!r}\n"
        )
    emit_plot_data(report, spread, positions, half_life, cfg.out_dir)
    print(
        f"subset {'+'.join(subset_ids)}: APR {report.apr:.4%}, "
        f"Sharpe {report.sharpe:.3f}, MaxDD {report.max_drawdown:.4%}, "
        f"half-life {half_life:.2f} days"
    )
    return EXIT_OK


def _monthly_signal_map(cfg: RunConfig, indicator: str) -> dict[str, ms.Signal]:
    """Monthly Long/Short/Flat signals for one indicator.

    Prefers a forecast oracle file; otherwise trains the direction
    classifier on the front fraction of the history and predicts the rest.
    """
    if indicator in cfg.macro_oracle_paths:
        directions = ms.load_forecast_oracle_csv(cfg.macro_oracle_paths[indicator])
        return {m: ms.direction_to_signal(d) for m, d in directions.items()}
    series = load_monthly_csv(cfg.macro_paths[indicator])
    features, labels, months = ms.build_direction_features(series, cfg.flat_epsilon)
    split = max(24, int(len(months) * cfg.forecast_train_fraction))
    if split >= len(months):
        raise ValidationError(
            f"indicator {indicator!r}: too few months to hold out a forecast window"
        )
    model = ms.train_direction_classifier(
        features[:split], labels[:split], ms.TrainConfig(seed=cfg.seed)
    )
    predicted = ms.predict_directions(model, features[split:])
    return {
        m: ms.direction_to_signal(d)
        for m, d in zip(months[split:], predicted)
    }


def cmd_forecast(cfg: RunConfig) -> int:
    indicators = sorted(set(cfg.macro_paths) | set(cfg.macro_oracle_paths))
    if not indicators:
        raise ValidationError("config names no macro.<ID> or macro_oracle.<ID> files")
    os.makedirs(cfg.out_dir, exist_ok=True)
    signal_to_direction = {
        ms.Signal.SHORT: "up", ms.Signal.LONG: "down", ms.Signal.FLAT: "flat",
    }
    for indicator in indicators:
        signal_map = _monthly_signal_map(cfg, indicator)
        path = os.path.join(cfg.out_dir, f"forecast_{indicator}.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("month,direction\n")
            for month in sorted(signal_map):
                fh.write(f"{month},{signal_to_direction[signal_map[month]]}\n")
        print(f"wrote {path} ({len(signal_map)} months)")
    return EXIT_OK


_MR_SIGNAL_FOR = {1: ms.Signal.LONG, -1: ms.Signal.SHORT, 0: ms.Signal.FLAT}


def cmd_optimize(cfg: RunConfig, subset_ids: list[str]) -> int:
    panel = _load_panel(cfg)
    sub, _, hedge, spread, _ = _portfolio_for_subset(cfg, panel, subset_ids)
    mr_positions = bt.generate_mr_positions(
        spread.zscores, entry=cfg.entry_z, exit=cfg.exit_z, dates=sub.dates
    )
    mr_signals = ms.SignalSeries(
        dates=sub.dates,
        signals=tuple(_MR_SIGNAL_FOR[p] for p in mr_positions.positions),
    )
    indicators = sorted(set(cfg.macro_paths) | set(cfg.macro_oracle_paths))
    if not indicators:
        raise ValidationError("optimize needs at least one macro indicator")
    sources = []
    for indicator in indicators:
        signal_map = _monthly_signal_map(cfg, indicator)
        sources.append(ms.expand_monthly_to_daily(signal_map, sub.dates))
    sources.append(mr_signals)
    result = fusion.optimize_weights(
        sources, sub, hedge,
        fusion.OptimizerConfig(
            grid_step=cfg.grid_step,
            mr_weight_floor=cfg.mr_weight_floor,
            simplex_max_iter=cfg.simplex_max_iter,
            seed=cfg.seed,
        ),
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    source_names = indicators + ["mean_reversion"]
    trace_path = os.path.join(cfg.out_dir, "optimization_trace.csv")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(
            "probe_index," + ",".join(f"w{i+1}" for i in range(len(source_names)))
            + ",apr\n"
        )
        for probe in result.trace:
            ws = ",".join(repr(float(w)) for w in probe.weights)
            fh.write(f"{probe.probe_index},{ws},{probe.apr!r}\n")
    summary_path = os.path.join(cfg.out_dir, "optimization_summary.csv")
    baseline = [0.0] * (len(source_names) - 1) + [1.0]
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(",".join(source_names) + ",apr\n")
        fh.write(",".join(repr(w) for w in baseline) + f",{result.baseline_apr!r}\n")
        fh.write(
            ",".join(repr(float(w)) for w in result.weights.weights)
            + f",{result.apr!r}\n"
        )
    # Final report re-includes transaction costs, unlike the objective.
    fused = fusion.combine_signals(sources, result.weights)
    final = bt.compute_pnl(
        sub, hedge, fusion.signal_to_position(fused), bt.CostModel(cfg.costs)
    )
    final_path = os.path.join(cfg.out_dir, "optimized_backtest_summary.csv")
    with open(final_path, "w", encoding="utf-8") as fh:
        fh.write("apr,sharpe,max_drawdown,total_cost\n")
        fh.write(
            f"{final.apr!r},{final.sharpe!r},"
            f"{final.max_drawdown!r},{final.total_transaction_cost!r}\n"
        )
    print(
        f"baseline APR {result.baseline_apr:.4%} -> optimized {result.apr:.4%} "
        f"(weights {[round(float(w), 4) for w in result.weights.weights]})"
    )
    return EXIT_OK


def cmd_report(cfg: RunConfig, subset_ids: list[str] | None) -> int:
    panel = _load_panel(cfg)
    scan_rows = ci.scan_cointegration(
        panel,
        min_size=cfg.subset_min,
        max_size=cfg.subset_max,
        var_max_lag=cfg.var_max_lag,
        adf_max_lag=cfg.adf_max_lag,
    )
    cointegrated = [r for r in scan_rows if r.rank]
    payload = {
        "config": config_echo(cfg),
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "instruments": list(panel.instrument_ids),
        "n_dates": panel.n_dates,
        "scan": {
            "n_subsets": len(scan_rows),
            "n_cointegrated": len(cointegrated),
            "cointegrated_subsets": ["+".join(r.subset) for r in cointegrated],
        },
    }
    if subset_ids:
        sub, outcome, hedge, spread, half_life = _portfolio_for_subset(
            cfg, panel, subset_ids
        )
        positions = bt.generate_mr_positions(
            spread.zscores, entry=cfg.entry_z, exit=cfg.exit_z, dates=sub.dates
        )
        report = bt.compute_pnl(sub, hedge, positions, bt.CostModel(cfg.costs))
        payload["backtest"] = {
            "subset": subset_ids,
            "rank": outcome.rank,
            "hedge_ratio": [float(h) for h in hedge],
            "half_life_days": half_life,
            "apr": report.apr,
            "sharpe": None if math.isnan(report.sharpe) else report.sharpe,
            "max_drawdown": report.max_drawdown,
            "total_cost": report.total_transaction_cost,
        }
    serialized = json.dumps(payload, sort_keys=True, default=str)
    payload["manifest_hash"] = hashlib.sha256(serialized.encode()).hexdigest()
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify_critical_values(cfg: RunConfig) -> int:
    draws = cfg.mc_draws
    adf_stats = ur.simulate_adf_null_statistics(
        draws, sample_size=cfg.mc_adf_sample_size, seed=cfg.seed
    )
    adf_q = [float(q) for q in np.quantile(adf_stats, [0.10, 0.05, 0.01])]
    adf_embedded = ur.adf_critical_value(cfg.mc_adf_sample_size - 1, 0.95)
    joh_stats = ci.simulate_johansen_null_trace(
        draws, sample_size=cfg.mc_johansen_sample_size, dim=1, seed=cfg.seed + 1
    )
    joh_q = [float(q) for q in np.quantile(joh_stats, [0.90, 0.95, 0.99])]
    joh_embedded = ci.JOHANSEN_TRACE_CV_95[1]
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "critical_values.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            "statistic,sample_size,draws,quantile_90,quantile_95,quantile_99,"
            "embedded_95,abs_diff_95\n"
        )
        fh.write(
            f"adf_drift,{cfg.mc_adf_sample_size},{draws},"
            f"{adf_q[0]!r},{adf_q[1]!r},{adf_q[2]!r},"
            f"{adf_embedded!r},{abs(adf_q[1] - adf_embedded)!r}\n"
        )
        fh.write(
            f"johansen_trace_mr1,{cfg.mc_johansen_sample_size},{draws},"
            f"{joh_q[0]!r},{joh_q[1]!r},{joh_q[2]!r},"
            f"{joh_embedded!r},{abs(joh_q[1] - joh_embedded)!r}\n"
        )
    print(
        f"ADF 95%: MC {adf_q[1]:.4f} vs embedded {adf_embedded:.4f}; "
        f"Johansen m-r=1 95%: MC {joh_q[1]:.4f} vs embedded {joh_embedded:.4f}"
    )
    print(f"wrote {path}")
    return EXIT_OK


def _load_costs_csv(path: str) -> dict[str, float]:
    out: dict[str, float] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != [
            "instrument",
            "cost",
        ]:
            raise ValidationError(f"{path}: expected header 'instrument,cost'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise CsvParseError(
                    f"{path}:{reader.line_num}: expected 2 fields, got {len(row)}"
                )
            try:
                out[row[0].strip()] = float(row[1])
            except ValueError as exc:
                raise CsvParseError(
                    f"{path}:{reader.line_num}: bad cost {row[1]!r}"
                ) from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrpairs",
        description="Cointegration pairs-trading research engine",
    )
    parser.add_argument(
        "command",
        choices=[
            "scan", "backtest", "forecast", "optimize", "report",
            "verify-critical-values",
        ],
    )
    parser.add_argument("--config", required=True, help="flat key=value config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument(
        "--subset", help="comma-separated instrument ids (backtest/optimize/report)"
    )
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--costs", help="instrument,cost CSV overriding config costs")
    parser.add_argument(
        "--oracle-forecasts",
        help="month,direction CSV used as the forecast oracle for every indicator",
    )
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    cfg = parse_config_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.costs is not None:
        cfg.costs = _load_costs_csv(args.costs)
    if args.oracle_forecasts is not None:
        keys = set(cfg.macro_paths) or {"oracle"}
        cfg.macro_oracle_paths = {k: args.oracle_forecasts for k in keys}
    subset_ids = args.subset.split(",") if args.subset else None
    if args.command == "scan":
        return cmd_scan(cfg)
    if args.command == "backtest":
        if not subset_ids:
            raise ValidationError("backtest requires --subset")
        return cmd_backtest(cfg, subset_ids)
    if args.command == "forecast":
        return cmd_forecast(cfg)
    if args.command == "optimize":
        if not subset_ids:
            raise ValidationError("optimize requires --subset")
        return cmd_optimize(cfg, subset_ids)
    if args.command == "report":
        return cmd_report(cfg, subset_ids)
    return cmd_verify_critical_values(cfg)


def main() -> None:
    try:
        sys.exit(run(sys.argv[1:]))
    except PipelineError as exc:
        code = {2: "validation", 3: "degenerate"}.get(exc.exit_code, "error")
        print(f"ERR:{code}:{exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except OSError as exc:
        print(f"ERR:io:{exc}", file=sys.stderr)
        sys.exit(EXIT_IO)


if __name__ == "__main__":
    main()
