"""The benchmark's three workloads: inputs from a seed, one pass, output checks.

Each workload is driven as a closed loop by one client (one researcher):
a pass starts when the previous one ends. Inputs are a pure function of
the seed and the size, and the program sees only those inputs. Every call
into mrpairs goes through a module attribute (`cointegration.johansen_test`,
not a name imported here), so the traced run can wrap it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

from mrpairs import (
    backtest,
    cli,
    cointegration,
    fusion,
    macro_signals,
    market_data,
    spread_dynamics,
    unit_root,
)
from mrpairs.errors import PipelineError, ValidationError

START_PRICE = 1000.0
HALF_LIFE_DAYS = 10.0
HISTORY_START = 1975 * 12  # month key of 1975-01, where every indicator starts
COST_PER_UNIT = 0.01
# Johansen's hedge ratio for the planted 3-subset at T=2500 missed
# (1, -0.5, -1) by at most 0.105 in any component over seeds 0-99; a ratio
# from a different relation misses by far more.
HEDGE_TOLERANCE = 0.2

# Generated walks whose lag-0 Dickey-Fuller t-ratio falls below this are
# redrawn. The scan skips every subset with a member the ADF test calls
# I(0) (41 of 91 subsets for one of 7 walks), and at the test's 5% size
# about 3 seeds in 10 would otherwise do half the work of the rest. The
# screen sits ~0.6 above the 5% critical value and keeps 84% of walks.
DF_SCREEN = -2.3

# (random walks, trading days, macro loading) per size: "full" is what the
# benchmark measures, "tiny" is for the self-test. The loading is how many
# spread units the pair's spread moves per unit of indicator M1 (see
# plant_macro). At 2.0 the fused optimum beats pure mean reversion; at
# 1000 days a loading of 2.0 hides the pair from Johansen on ~1 seed in 3,
# so the shorter panels use 1.0, which it finds on 40 seeds of 40.
SIZES = {
    "scan_7x2500": {"full": (6, 2500, 0.0), "tiny": (3, 1000, 0.0)},
    "fuse_pair_2500": {"full": (1, 2500, 2.0), "tiny": (1, 1000, 1.0)},
    "cli_10x1000": {"full": (9, 1000, 1.0), "tiny": (3, 1000, 1.0)},
}

_MR_SIGNAL = {
    1: macro_signals.Signal.LONG,
    -1: macro_signals.Signal.SHORT,
    0: macro_signals.Signal.FLAT,
}


@dataclass
class Operation:
    """One attempted operation and the names of the checks it failed."""

    label: str
    failures: list[str]
    known_defect: bool = False


def _month_name(key: int) -> str:
    return f"{key // 12:04d}-{key % 12 + 1:02d}"


def _month_ends(dates) -> tuple[list[int], list[int]]:
    """Month keys of a daily calendar and the index of each month's last day."""
    keys, last = [], []
    for i, day in enumerate(dates):
        key = day.year * 12 + day.month - 1
        if keys and keys[-1] == key:
            last[-1] = i
        else:
            keys.append(key)
            last.append(i)
    return keys, last


def _df_tstat(y: np.ndarray) -> float:
    """Lag-0 Dickey-Fuller t-ratio with drift, computed without mrpairs."""
    dy = np.diff(y)
    x = y[:-1] - y[:-1].mean()
    d = dy - dy.mean()
    beta = float(x @ d) / float(x @ x)
    resid = d - beta * x
    sigma2 = float(resid @ resid) / (len(d) - 2)
    return beta / math.sqrt(sigma2 / float(x @ x))


def _passes_screen(y: np.ndarray) -> bool:
    """DF_SCREEN holds on the whole series and on the sample the ADF test fits.

    The ADF test drops the first Schwert max-lag observations so that all of
    its candidate lags fit the same sample. Screened on the whole series
    only, a walk of the cli_10x1000 panel for seed 12 read -2.17 there and
    -3.06 in the ADF test, which called it I(0) and skipped a third of the
    scan.
    """
    trim = int(12 * (len(y) / 100) ** 0.25)
    return min(_df_tstat(y), _df_tstat(y[trim:])) > DF_SCREEN


def screened_panel(seed: int, n_walks: int, n_days: int, weights: tuple):
    """Random walks plus one planted column, redrawn until all pass the screen.

    The planted column is `sum_i weights[i] * SYN_i + OU` with half-life
    HALF_LIFE_DAYS. Each redraw derives a new panel seed from (seed, attempt).
    """
    config = market_data.SynthConfig(
        n_walks=n_walks,
        n_days=n_days,
        noise_scale=1.0,
        start_price=START_PRICE,
        recipe=market_data.CointegrationRecipe(
            weights=weights, noise_scale=1.0, half_life_days=HALF_LIFE_DAYS
        ),
    )
    for attempt in range(1000):
        panel_seed = int(np.random.SeedSequence([seed, attempt]).generate_state(1)[0])
        try:
            panel = market_data.generate_synthetic_panel(panel_seed, config)
        except ValidationError:  # a walk went non-positive
            continue
        if all(_passes_screen(col) for col in panel.prices):
            return panel
    raise RuntimeError(f"no screened panel for seed {seed}")


def _ar1(rng: np.random.Generator, n: int, phi: float = 0.25) -> np.ndarray:
    """Unit-variance AR(1) path."""
    eps = rng.standard_normal(n) * math.sqrt(1.0 - phi * phi)
    out = np.empty(n)
    prev = rng.standard_normal()
    for t in range(n):
        prev = phi * prev + eps[t]
        out[t] = prev
    return out


def plant_macro(seed: int, panel, pair: tuple[int, int], loading: float):
    """Make the pair's spread follow a monthly macro indicator; return three.

    The indicators are monthly from 1975-01 to the panel's last month. M1
    is a unit-variance AR(1) whose changes are predictable from its lags,
    and over the panel the pair's spread (hedge (1, -0.5)) gains
    -loading * M1, interpolated linearly across each month, so a
    forecast rise of M1 (mapped to Short) foretells a falling spread. M2
    and M3 are independent AR(1) noise.
    """
    rng = np.random.default_rng([seed, 1])
    keys, last = _month_ends(panel.dates)
    months = tuple(_month_name(k) for k in range(HISTORY_START, keys[-1] + 1))
    m1, m2, m3 = (_ar1(rng, len(months)) for _ in range(3))
    at = np.array(keys) - HISTORY_START
    daily = np.interp(
        np.arange(panel.n_dates), [-1] + last, np.concatenate([m1[at[:1] - 1], m1[at]])
    )
    prices = np.array(panel.prices)
    prices[pair[1]] += 2.0 * loading * daily
    panel = market_data.PricePanel(panel.dates, prices, panel.instrument_ids)
    indicators = [market_data.MonthlySeries(months=months, values=v) for v in (m1, m2, m3)]
    return panel, indicators


# ---------------------------------------------------------------- scan_7x2500


@dataclass
class ScanOutput:
    orders: list
    rows: list


class ScanWorkload:
    """Classify every series, then run the Johansen scan over all subsets.

    The panel is 6 random walks plus SYN7 = SYN1 - 0.5*SYN2 + OU, so the
    planted vector over (SYN1, SYN2, SYN7) is (1, -0.5, -1).
    """

    name = "scan_7x2500"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        n_walks, n_days, _ = SIZES[self.name]["tiny" if tiny else "full"]
        weights = (1.0, -0.5) + (0.0,) * (n_walks - 2)
        self.panel = screened_panel(seed, n_walks, n_days, weights)
        ids = self.panel.instrument_ids
        self.planted = (ids[0], ids[1], ids[-1])

    def run_pass(self, index: int, split=lambda: None) -> ScanOutput:
        panel = self.panel
        orders = [
            unit_root.classify_integration_order(panel.prices[i])
            for i in range(panel.n_instruments)
        ]
        rows = cointegration.scan_cointegration(panel, orders=orders)
        return ScanOutput(orders, rows)

    @staticmethod
    def _serialize(out: ScanOutput) -> str:
        lines = [",".join(o.value for o in out.orders)]
        for r in out.rows:
            hedge = "" if r.hedge_ratio is None else ";".join(map(repr, r.hedge_ratio))
            lines.append(
                f"{'+'.join(r.subset)},{r.skipped_reason},{r.rank},"
                f"{r.top_eigenvalue!r},{hedge},{r.half_life_days!r}"
            )
        return "\n".join(lines)

    def check(self, outputs: list) -> list[Operation]:
        n = self.panel.n_instruments
        expected_rows = sum(math.comb(n, k) for k in range(2, min(4, n) + 1))
        good = [o for o in outputs if o is not None]
        first = self._serialize(good[0]) if good else None
        ops = []
        for i, out in enumerate(outputs):
            label = f"scan pass {i}"
            if out is None:
                ops.append(Operation(label, ["scan.pass_raised"]))
                continue
            failures = []
            if self._serialize(out) != first:
                failures.append("scan.rows_identical")
            if len(out.rows) != expected_rows:
                failures.append("scan.subset_count")
            planted_rows = [r for r in out.rows if set(self.planted) <= set(r.subset)]
            if not planted_rows or any(not r.rank for r in planted_rows):
                failures.append("scan.planted_rank")
            triple = [r for r in planted_rows if len(r.subset) == 3]
            if not triple or triple[0].hedge_ratio is None or np.max(
                np.abs(triple[0].hedge_ratio - np.array([1.0, -0.5, -1.0]))
            ) > HEDGE_TOLERANCE:
                failures.append("scan.planted_hedge")
            ops.append(Operation(label, failures))
        return ops


# ------------------------------------------------------------- fuse_pair_2500


@dataclass
class FuseOutput:
    hedge: np.ndarray
    sources: list
    result: object
    final: object


class FuseWorkload:
    """Fit one planted pair, forecast three indicators, fuse and backtest.

    The pair is SYN2 = 2*SYN1 + OU; the three indicators are monthly series
    that start in 1975-01, and the classifiers train on the months before
    the panel's first month and forecast the panel's months.
    """

    name = "fuse_pair_2500"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        n_walks, n_days, loading = SIZES[self.name]["tiny" if tiny else "full"]
        self.panel, self.indicators = plant_macro(
            seed, screened_panel(seed, n_walks, n_days, (2.0,)), (0, 1), loading
        )
        self.first_month = _month_name(
            self.panel.dates[0].year * 12 + self.panel.dates[0].month - 1
        )
        self.costs = {iid: COST_PER_UNIT for iid in self.panel.instrument_ids}

    def run_pass(self, index: int, split=lambda: None) -> FuseOutput:
        panel = self.panel
        feasible = max(1, min(10, (panel.n_dates - 30) // panel.n_instruments))
        var_lag = cointegration.select_var_lag(panel, feasible)
        outcome = cointegration.johansen_test(panel, var_lag)
        hedge = cointegration.extract_hedge_ratio(outcome)
        spread = spread_dynamics.compute_spread(panel, hedge)
        mr = backtest.generate_mr_positions(spread.zscores, 1.0, 0.0, panel.dates)
        sources = []
        for series in self.indicators:
            features, labels, months = macro_signals.build_direction_features(series)
            n_train = sum(m < self.first_month for m in months)
            model = macro_signals.train_direction_classifier(
                features[:n_train], labels[:n_train]
            )
            predicted = macro_signals.predict_directions(model, features[n_train:])
            monthly = {
                m: macro_signals.direction_to_signal(d)
                for m, d in zip(months[n_train:], predicted)
            }
            sources.append(macro_signals.expand_monthly_to_daily(monthly, panel.dates))
        sources.append(
            macro_signals.SignalSeries(
                dates=panel.dates,
                signals=tuple(_MR_SIGNAL[int(p)] for p in mr.positions),
            )
        )
        result = fusion.optimize_weights(sources, panel, hedge)
        fused = fusion.combine_signals(sources, result.weights)
        final = backtest.compute_pnl(
            panel, hedge, fusion.signal_to_position(fused), backtest.CostModel(self.costs)
        )
        return FuseOutput(hedge, sources, result, final)

    @staticmethod
    def trace_bytes(out: FuseOutput) -> bytes:
        """The probe trace in the layout `mrpairs optimize` writes."""
        return "".join(
            f"{p.probe_index},{','.join(repr(float(w)) for w in p.weights)},{p.apr!r}\n"
            for p in out.result.trace
        ).encode()

    def _frictionless_apr(self, out: FuseOutput, weights) -> float:
        fused = fusion.combine_signals(out.sources, weights)
        return backtest.compute_pnl(
            self.panel, out.hedge, fusion.signal_to_position(fused)
        ).apr

    def oracle_apr(self, out: FuseOutput) -> float:
        """Best APR of an exhaustive 0.25-step grid, independent of the optimizer."""
        ticks = np.linspace(0.0, 1.0, 5)
        return max(
            self._frictionless_apr(out, fusion.WeightVector(tuple(w)))
            for w in itertools.product(ticks, repeat=len(out.sources))
        )

    def check(self, outputs: list) -> list[Operation]:
        good = [o for o in outputs if o is not None]
        first = self.trace_bytes(good[0]) if good else None
        oracle = self.oracle_apr(good[0]) if good else None
        ops = []
        for i, out in enumerate(outputs):
            label = f"fuse pass {i}"
            if out is None:
                ops.append(Operation(label, ["fuse.pass_raised"]))
                continue
            res = out.result
            failures = []
            if self.trace_bytes(out) != first:
                failures.append("fuse.trace_identical")
            if not res.apr >= res.baseline_apr:
                failures.append("fuse.beats_baseline")
            if not res.apr >= oracle - 1e-12:
                failures.append("fuse.beats_grid_oracle")
            if self._frictionless_apr(out, res.weights) != res.apr:
                failures.append("fuse.apr_reproduces")
            ops.append(Operation(label, failures))
        return ops


# ---------------------------------------------------------------- cli_10x1000

CLI_COMMANDS = ("scan", "report", "backtest", "forecast", "optimize")
_TAKES_SUBSET = {"report", "backtest", "optimize"}
_EXPECTED_FILES = {
    "scan": ("scan_report.csv",),
    "report": ("manifest.json",),
    "backtest": (
        "backtest.csv", "backtest_summary.csv",
        "spread.csv", "spread.svg",
        "zscore_positions.csv", "zscore_positions.svg",
        "returns.csv", "returns.svg",
    ),
    "forecast": ("forecast_M1.csv", "forecast_M2.csv", "forecast_M3.csv"),
    "optimize": (
        "optimization_trace.csv", "optimization_summary.csv",
        "optimized_backtest_summary.csv",
    ),
}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`mrpairs.cli.run` in-process: exit code and the error line, as `main` gives."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            return cli.run(argv), ""
        except PipelineError as exc:
            code = {2: "validation", 3: "degenerate"}.get(exc.exit_code, "error")
            return exc.exit_code, f"ERR:{code}:{exc}"
        except OSError as exc:
            return 4, f"ERR:io:{exc}"
        except Exception as exc:  # a traceback is a failure, not a crash of the benchmark
            return 1, f"traceback:{type(exc).__name__}:{exc}"


def _write_csv(path: str, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(f"{a},{b!r}\n" for a, b in rows)


@dataclass
class CliOutput:
    out_dir: str
    results: list  # (command, exit code, error line)


class CliWorkload:
    """The five subcommands on CSV inputs, in-process, into a fresh directory.

    10 instruments (9 walks plus SYN10 = 2*SYN1 + OU) and three monthly
    indicators from 1975-01, so the classifier's held-out 30% covers the
    panel. A known-defect probe runs `optimize` once more with indicators
    that start with the panel.
    """

    name = "cli_10x1000"

    def __init__(self, seed: int, tiny: bool, workdir: str):
        n_walks, n_days, loading = SIZES[self.name]["tiny" if tiny else "full"]
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        panel, indicators = plant_macro(
            seed,
            screened_panel(seed, n_walks, n_days, (2.0,) + (0.0,) * (n_walks - 1)),
            (0, n_walks),
            loading,
        )
        ids = panel.instrument_ids
        self.subset = f"{ids[0]},{ids[-1]}"
        price_lines = []
        for iid, values in zip(ids, panel.prices):
            path = os.path.join(workdir, f"{iid}.csv")
            _write_csv(path, "date,close", zip((d.isoformat() for d in panel.dates), map(float, values)))
            price_lines.append(f"price.{iid} = {path}\n")
        cost_lines = [f"cost.{iid} = {COST_PER_UNIT}\n" for iid in (ids[0], ids[-1])]
        first_month = _month_name(panel.dates[0].year * 12 + panel.dates[0].month - 1)
        configs = {"run.cfg": [], "probe.cfg": []}
        for j, series in enumerate(indicators, start=1):
            rows = list(zip(series.months, map(float, series.values)))
            full = os.path.join(workdir, f"M{j}.csv")
            short = os.path.join(workdir, f"M{j}_from_panel.csv")
            _write_csv(full, "month,value", rows)
            _write_csv(short, "month,value", [r for r in rows if r[0] >= first_month])
            configs["run.cfg"].append(f"macro.M{j} = {full}\n")
            configs["probe.cfg"].append(f"macro.M{j} = {short}\n")
        for name, macro_lines in configs.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                fh.writelines(price_lines + macro_lines + cost_lines)
        self.config = os.path.join(workdir, "run.cfg")
        self.probe_config = os.path.join(workdir, "probe.cfg")

    def _argv(self, command: str, config: str, out_dir: str) -> list[str]:
        argv = [command, "--config", config, "--out", out_dir]
        if command in _TAKES_SUBSET:
            argv += ["--subset", self.subset]
        return argv

    def run_pass(self, index: int, split=lambda: None) -> CliOutput:
        """The five subcommands; `split` ends a timed stage between them."""
        out_dir = os.path.join(self.workdir, f"pass{index}")
        results = []
        for i, command in enumerate(CLI_COMMANDS):
            if i:
                split()
            code, err = run_cli(self._argv(command, self.config, out_dir))
            results.append((command, code, err))
        return CliOutput(out_dir, results)

    @staticmethod
    def output_bytes(out: CliOutput) -> int:
        """Bytes of every file a pass left in its output directory."""
        if not os.path.isdir(out.out_dir):
            return 0
        return sum(e.stat().st_size for e in os.scandir(out.out_dir) if e.is_file())

    @staticmethod
    def _command_failures(out_dir: str, command: str, code: int) -> list[str]:
        failures = []
        if code != 0:
            failures.append(f"cli.{command}.exit")
        if any(
            not os.path.isfile(p) or os.path.getsize(p) == 0
            for p in (os.path.join(out_dir, f) for f in _EXPECTED_FILES[command])
        ):
            failures.append(f"cli.{command}.files")
        return failures

    def check(self, outputs: list) -> list[Operation]:
        ops = []
        for i, out in enumerate(outputs):
            if out is None:
                ops.append(Operation(f"cli pass {i}", ["cli.pass_raised"]))
                continue
            for command, code, err in out.results:
                failures = self._command_failures(out.out_dir, command, code)
                ops.append(Operation(f"cli {command} pass {i} {err}".rstrip(), failures))
            shutil.rmtree(out.out_dir, ignore_errors=True)
        probe_dir = os.path.join(self.workdir, "probe")
        code, err = run_cli(self._argv("optimize", self.probe_config, probe_dir))
        ops.append(
            Operation(
                f"known-defect probe: optimize with indicators from the panel's "
                f"first month: exit {code} {err}".rstrip(),
                self._command_failures(probe_dir, "optimize", code),
                known_defect=True,
            )
        )
        shutil.rmtree(probe_dir, ignore_errors=True)
        return ops


WORKLOADS = {w.name: w for w in (ScanWorkload, FuseWorkload, CliWorkload)}
