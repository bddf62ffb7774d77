"""Command-line orchestration of the full research pipeline.

Subcommands: scan, backtest, forecast, optimize, report, and
verify-critical-values. Configuration is a flat `key = value` text file
(no nesting, diff-friendly) whose one schema is `RunConfig`: its field types
parse the keys, and its defaults reproduce the research settings.

Every CSV is read and written through `_csv`, so the file format lives in
one place. Each command only loads, calls and writes. A `--subset` is
fitted and traded by `backtest.trade_subset`, as the scan fits it;
`backtest` and `report` backtest its positions with costs, `optimize`
fuses them in `fusion.fuse_forecasts`, and `scan` and `report` share one
scan call.

Errors print a single machine-parsable line `ERR:<code>:<message>` and map
to exit codes: 2 validation, 3 numerical degeneracy, 4 I/O.
"""

from __future__ import annotations

import argparse
import errno
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import backtest as bt
from . import cointegration as ci
from . import fusion
from . import macro_signals as ms
from . import unit_root as ur
from ._csv import read_map, write_csv
from .errors import PipelineError, ValidationError
from .market_data import align_panel, load_monthly_csv, load_price_csv
from .plot_data import emit_plot_data

EXIT_OK, EXIT_IO = 0, 4


@dataclass(frozen=True)
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
    mr_weight_floor: float = 0.0
    forecast_train_fraction: float = 0.7
    mc_draws: int = 100_000
    mc_adf_sample_size: int = 500
    mc_johansen_sample_size: int = 1000
    seed: int = 0
    out_dir: str = "."

    def __post_init__(self):  # every check that needs no data, before any command
        n_ids = len(self.price_paths)
        for key, ok, rule in (
            ("subset_min", self.subset_min >= 2, "at least 2"),
            ("subset_max", self.subset_max >= self.subset_min,
             f"at least subset_min ({self.subset_min})"),
            ("subset_min", n_ids < 2 or self.subset_min <= n_ids,
             f"at most the number of price.<ID> keys ({n_ids})"),
            ("subset_max", self.subset_max <= 4 or n_ids <= 4,
             f"at most 4 with {n_ids} instruments"),
            ("adf_max_lag", self.adf_max_lag is None or self.adf_max_lag >= 0,
             "non-negative"),
            ("var_max_lag", self.var_max_lag >= 1, "at least 1"),
            ("min_overlap", self.min_overlap >= 1, "at least 1"),
            ("forecast_train_fraction", 0.0 < self.forecast_train_fraction < 1.0,
             "in (0, 1)"),
            ("seed", self.seed >= 0, "non-negative"),
            ("out_dir", self.out_dir != "", "a directory path"),
        ):
            if not ok:
                raise ValidationError(f"{key} must be {rule}, got {getattr(self, key)!r}")
        # The other ranges are the library's own checks, called here up front.
        bt.check_thresholds(self.entry_z, self.exit_z)
        ms.check_flat_epsilon(self.flat_epsilon)
        bt.CostModel(self.costs)
        self.optimizer
        for size in (self.mc_adf_sample_size, self.mc_johansen_sample_size):
            ur.check_null_walk_size(self.mc_draws, size)

    @property
    def optimizer(self) -> fusion.OptimizerConfig:
        return fusion.OptimizerConfig(self.mr_weight_floor)


# A scalar key parses with its field's type (annotations are strings here);
# a dotted `<prefix>.<ID>` key fills a map field.
_PARSERS = {"float": float, "int": int, "int | None": int, "str": str}
_SCALAR_KEYS = {
    f.name: _PARSERS[f.type] for f in fields(RunConfig) if not f.type.startswith("dict")
}
_PREFIXES = {
    "price": ("price_paths", str),
    "macro_oracle": ("macro_oracle_paths", str),
    "macro": ("macro_paths", str),
    "cost": ("costs", float),
}
# An id names output files and fills `+`-joined subset and CSV cells.
_ID = re.compile(r"[A-Za-z0-9_.-]+")


def parse_config_file(path: str) -> RunConfig:
    """Flat `key = value` format; dotted keys map instruments to files."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError:
        raise ValidationError(f"{path}: not UTF-8 text") from None
    values: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        prefix, dot, name = key.partition(".")
        if dot and prefix in _PREFIXES:
            if not _ID.fullmatch(name):
                raise ValidationError(f"{path}:{lineno}: bad id {name!r} in {key!r}")
            target, parse = _PREFIXES[prefix]
            into = values.setdefault(target, {})
        elif key in _SCALAR_KEYS:
            into, name, parse = values, key, _SCALAR_KEYS[key]
        else:
            raise ValidationError(f"unknown config key {key!r}")
        try:
            into[name] = parse(value)
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad value for {key!r}") from exc
    return RunConfig(**values)


def _settings(cfg: RunConfig) -> dict:
    """Every setting of a run: the config's keys and the weight search's fixed two."""
    return asdict(cfg) | {
        "grid_step": fusion.OptimizerConfig.grid_step, "simplex_max_iter": fusion.SIMPLEX_MAX_ITER,
    }


def config_hash(cfg: RunConfig) -> str:
    canon = json.dumps(_settings(cfg), sort_keys=True, default=str)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _load_panel(cfg: RunConfig):
    if len(cfg.price_paths) < 2:
        raise ValidationError("config must name at least two price.<ID> files")
    closes = {iid: load_price_csv(path) for iid, path in cfg.price_paths.items()}
    return align_panel(closes, min_overlap=cfg.min_overlap)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _scan(cfg: RunConfig, panel) -> list[ci.ScanRow]:
    return ci.scan_cointegration(
        panel,
        min_size=cfg.subset_min,
        max_size=cfg.subset_max,
        var_max_lag=cfg.var_max_lag,
        adf_max_lag=cfg.adf_max_lag,
    )


def cmd_scan(cfg: RunConfig, subset_ids: list[str] | None) -> int:
    rows = _scan(cfg, _load_panel(cfg))
    path = _out_path(cfg, "scan_report.csv")
    write_csv(
        path,
        "subset,skipped_reason,rank,top_eigenvalue,hedge_ratio,half_life_days",
        (
            ("+".join(r.subset), r.skipped_reason, r.rank, r.top_eigenvalue,
             None if r.hedge_ratio is None
             else ";".join(repr(float(h)) for h in r.hedge_ratio),
             r.half_life_days)
            for r in rows
        ),
    )
    print(f"wrote {path} ({len(rows)} subsets)")
    return EXIT_OK


def _write_summary(path: str, report: bt.BacktestReport) -> None:
    write_csv(
        path,
        "apr,sharpe,max_drawdown,total_cost",
        [(report.apr, report.sharpe, report.max_drawdown, report.total_transaction_cost)],
    )


def _backtest(cfg: RunConfig, panel, subset_ids: list[str]):
    """The subset's Johansen outcome, portfolio and positions, and their
    backtest with `cfg.costs`."""
    sub, outcome, portfolio, positions = bt.trade_subset(
        panel, subset_ids, cfg.var_max_lag, cfg.entry_z, cfg.exit_z
    )
    report = bt.compute_pnl(sub, portfolio.hedge_ratio, positions, bt.CostModel(cfg.costs))
    return outcome, portfolio, positions, report


def cmd_backtest(cfg: RunConfig, subset_ids: list[str]) -> int:
    _, portfolio, positions, report = _backtest(cfg, _load_panel(cfg), subset_ids)
    write_csv(
        _out_path(cfg, "backtest.csv"),
        "date,position,daily_return,cumulative_return",
        zip(report.dates, report.positions, report.daily_returns,
            report.cumulative_returns),
    )
    _write_summary(_out_path(cfg, "backtest_summary.csv"), report)
    half_life = portfolio.half_life_days
    emit_plot_data(report, portfolio.spread, positions, half_life, cfg.out_dir)
    print(
        f"subset {'+'.join(subset_ids)}: APR {report.apr:.4%}, "
        f"Sharpe {report.sharpe:.3f}, MaxDD {report.max_drawdown:.4%}, "
        f"half-life {half_life:.2f} days"
    )
    return EXIT_OK


def _monthly_directions(cfg: RunConfig, indicator: str) -> dict[str, ms.DirectionLabel]:
    """Monthly Up/Down/Flat forecasts for one indicator.

    Prefers a forecast oracle file; otherwise trains the direction
    classifier on the front fraction of the history and predicts the rest.
    """
    if indicator in cfg.macro_oracle_paths:
        return ms.load_forecast_oracle_csv(cfg.macro_oracle_paths[indicator])
    series = load_monthly_csv(cfg.macro_paths[indicator])
    try:
        features, labels, months = ms.build_direction_features(series, cfg.flat_epsilon)
    except ValidationError as exc:
        raise ValidationError(f"indicator {indicator!r}: {exc}") from exc
    split = max(24, int(len(months) * cfg.forecast_train_fraction))
    if split >= len(months):
        raise ValidationError(
            f"indicator {indicator!r}: too few months to hold out a forecast window"
        )
    model = ms.train_direction_classifier(features[:split], labels[:split])
    try:
        predicted = ms.predict_directions(model, features[split:])
    except ValidationError as exc:
        raise ValidationError(f"indicator {indicator!r}: {exc}") from exc
    return dict(zip(months[split:], predicted))


def _indicators(cfg: RunConfig) -> list[str]:
    """Every indicator named by a macro.<ID> or macro_oracle.<ID> key, sorted."""
    return sorted(set(cfg.macro_paths) | set(cfg.macro_oracle_paths))


def cmd_forecast(cfg: RunConfig, subset_ids: list[str] | None) -> int:
    indicators = _indicators(cfg)
    if not indicators:
        raise ValidationError("config names no macro.<ID> or macro_oracle.<ID> files")
    for indicator in indicators:
        directions = _monthly_directions(cfg, indicator)
        path = _out_path(cfg, f"forecast_{indicator}.csv")
        write_csv(
            path,
            "month,direction",
            ((month, directions[month].value) for month in sorted(directions)),
        )
        print(f"wrote {path} ({len(directions)} months)")
    return EXIT_OK


def cmd_optimize(cfg: RunConfig, subset_ids: list[str]) -> int:
    """Fuse, optimize and backtest over the dates every forecast covers."""
    indicators = _indicators(cfg)
    if not indicators:
        raise ValidationError("optimize needs at least one macro indicator")
    fusion.check_grid_size(len(indicators) + 1)
    sub, _, portfolio, positions = bt.trade_subset(
        _load_panel(cfg), subset_ids, cfg.var_max_lag, cfg.entry_z, cfg.exit_z
    )
    forecasts = {}
    for indicator in indicators:
        directions = _monthly_directions(cfg, indicator).items()
        forecasts[indicator] = {m: ms.direction_to_signal(d) for m, d in directions}
    result, final = fusion.fuse_forecasts(
        sub, portfolio.hedge_ratio, positions, forecasts, cfg.optimizer,
        bt.CostModel(cfg.costs),
    )
    baseline = [0.0] * len(indicators) + [1.0]
    write_csv(
        _out_path(cfg, "optimization_trace.csv"),
        ",".join(["probe_index"] + [f"w{i + 1}" for i in range(len(baseline))] + ["apr"]),
        ((probe.probe_index, *probe.weights, probe.apr) for probe in result.trace),
    )
    write_csv(
        _out_path(cfg, "optimization_summary.csv"),
        ",".join(indicators + ["mean_reversion", "apr"]),
        [(*baseline, result.baseline_apr), (*result.weights.weights, result.apr)],
    )
    _write_summary(_out_path(cfg, "optimized_backtest_summary.csv"), final)
    print(
        f"baseline APR {result.baseline_apr:.4%} -> optimized {result.apr:.4%} "
        f"(weights {[round(float(w), 4) for w in result.weights.weights]})"
    )
    return EXIT_OK


def cmd_report(cfg: RunConfig, subset_ids: list[str] | None) -> int:
    panel = _load_panel(cfg)
    scan_rows = _scan(cfg, panel)
    cointegrated = [r for r in scan_rows if r.rank]
    payload = {
        "config": _settings(cfg),
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
        outcome, portfolio, _, report = _backtest(cfg, panel, subset_ids)
        half_life = portfolio.half_life_days  # JSON has no inf: none measured is null
        payload["backtest"] = {
            "subset": subset_ids,
            "rank": outcome.rank,
            "hedge_ratio": [float(h) for h in portfolio.hedge_ratio],
            "half_life_days": half_life if math.isfinite(half_life) else None,
            "apr": report.apr,
            "sharpe": None if math.isnan(report.sharpe) else report.sharpe,
            "max_drawdown": report.max_drawdown,
            "total_cost": report.total_transaction_cost,
        }
    serialized = json.dumps(payload, sort_keys=True, default=str)
    payload["manifest_hash"] = hashlib.sha256(serialized.encode()).hexdigest()
    path = _out_path(cfg, "manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=str)
        fh.write("\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify_critical_values(cfg: RunConfig, subset_ids: list[str] | None) -> int:
    draws = cfg.mc_draws
    adf_stats = ur.simulate_adf_null_statistics(
        draws, sample_size=cfg.mc_adf_sample_size, seed=cfg.seed
    )
    adf_q = [float(q) for q in np.quantile(adf_stats, [0.10, 0.05, 0.01])]
    adf_embedded = ur.adf_critical_value(cfg.mc_adf_sample_size - 1)
    joh_stats = ci.simulate_johansen_null_trace(
        draws, sample_size=cfg.mc_johansen_sample_size, dim=1, seed=cfg.seed + 1
    )
    joh_q = [float(q) for q in np.quantile(joh_stats, [0.90, 0.95, 0.99])]
    joh_embedded = ci.JOHANSEN_TRACE_CV_95[1]
    path = _out_path(cfg, "critical_values.csv")
    write_csv(
        path,
        "statistic,sample_size,draws,quantile_90,quantile_95,quantile_99,"
        "embedded_95,abs_diff_95",
        [
            ("adf_drift", cfg.mc_adf_sample_size, draws, *adf_q,
             adf_embedded, abs(adf_q[1] - adf_embedded)),
            ("johansen_trace_mr1", cfg.mc_johansen_sample_size, draws, *joh_q,
             joh_embedded, abs(joh_q[1] - joh_embedded)),
        ],
    )
    print(
        f"ADF 95%: MC {adf_q[1]:.4f} vs embedded {adf_embedded:.4f}; "
        f"Johansen m-r=1 95%: MC {joh_q[1]:.4f} vs embedded {joh_embedded:.4f}"
    )
    print(f"wrote {path}")
    return EXIT_OK


# Each command's `--subset` rule: True required, False optional, None ignored.
# `run` looks `cmd_<name>` up at call time, so a wrapper set on the module
# attribute (as a tracer sets one) is the function that runs.
COMMANDS = {
    "scan": None, "backtest": True, "forecast": None, "optimize": True,
    "report": False, "verify-critical-values": None,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrpairs",
        description="Cointegration pairs-trading research engine",
    )
    parser.add_argument("command", choices=list(COMMANDS))
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
    overrides = {"seed": args.seed, "out_dir": args.out}
    if args.costs is not None:
        overrides["costs"] = read_map(args.costs, "instrument,cost", str, float)
    if args.oracle_forecasts is not None:
        keys = _indicators(cfg) or ["oracle"]
        overrides["macro_oracle_paths"] = {k: args.oracle_forecasts for k in keys}
    cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
    unknown = sorted(set(cfg.costs) - set(cfg.price_paths))
    if unknown:
        raise ValidationError(f"cost for unknown instrument(s): {unknown}")
    subset_ids = args.subset.split(",") if args.subset else None
    rule = COMMANDS[args.command]
    if rule and not subset_ids:
        raise ValidationError(f"{args.command} requires --subset")
    if rule is not None and subset_ids:
        missing = [s for s in subset_ids if s not in cfg.price_paths]
        if missing:
            raise ValidationError(f"unknown subset instrument(s): {missing}")
        repeated = sorted({s for s in subset_ids if subset_ids.count(s) > 1})
        if repeated:
            raise ValidationError(f"repeated subset instrument(s): {repeated}")
        if not 2 <= len(subset_ids) <= 4:
            raise ValidationError(
                f"--subset must name 2 to 4 instruments, got {len(subset_ids)}"
            )
    # what `os.makedirs` raises at the first write, before any data is read
    below, ancestor = None, cfg.out_dir
    while ancestor and not os.path.exists(ancestor):
        below, ancestor = ancestor, os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        code = errno.ENOTDIR if below else errno.EEXIST  # OSError picks the subclass
        raise OSError(code, os.strerror(code), below or ancestor)
    return globals()["cmd_" + args.command.replace("-", "_")](cfg, subset_ids)


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
