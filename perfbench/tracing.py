"""Spans around the public functions of each mrpairs module, from outside.

A traced pass replaces module attributes with wrappers. A function that
other modules import by name (`fusion.compute_pnl`, `cli.emit_plot_data`,
each module's `ols_qr`) is replaced at every binding of the same object,
so calls made inside the package are traced too. Each wrapper records a
span (name, start, end, parent, pass) in memory; the spans are written out
when the run ends. A target that no longer exists is reported as missing.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

PACKAGE = "mrpairs"

# (span name, module, attribute path, metrics reported for the span):
# "full" gives <name>.calls, <name>.s and <name>.self_s; "calls" counts
# calls without a span, so the time stays with the caller.
TARGETS = (
    ("ols_qr", "_ols", "ols_qr", "full"),
    ("unit_root.adf_test", "unit_root", "adf_test", "full"),
    ("unit_root.classify_integration_order", "unit_root", "classify_integration_order", "full"),
    ("cointegration.scan_cointegration", "cointegration", "scan_cointegration", "full"),
    ("cointegration.select_var_lag", "cointegration", "select_var_lag", "full"),
    ("cointegration.johansen_test", "cointegration", "johansen_test", "full"),
    ("spread_dynamics.compute_spread", "spread_dynamics", "compute_spread", "full"),
    ("spread_dynamics.estimate_half_life", "spread_dynamics", "estimate_half_life", "full"),
    ("backtest.compute_pnl", "backtest", "compute_pnl", "full"),
    ("backtest.generate_mr_positions", "backtest", "generate_mr_positions", "full"),
    ("macro_signals.build_direction_features", "macro_signals", "build_direction_features", "full"),
    ("macro_signals.train_direction_classifier", "macro_signals", "train_direction_classifier", "full"),
    ("macro_signals.predict_directions", "macro_signals", "predict_directions", "full"),
    ("macro_signals.expand_monthly_to_daily", "macro_signals", "expand_monthly_to_daily", "full"),
    ("fusion.optimize_weights", "fusion", "optimize_weights", "full"),
    ("fusion.combine_signals", "fusion", "combine_signals", "full"),
    ("fusion.signal_to_position", "fusion", "signal_to_position", "full"),
    ("market_data.load_price_csv", "market_data", "load_price_csv", "full"),
    ("market_data.load_monthly_csv", "market_data", "load_monthly_csv", "full"),
    ("market_data.align_panel", "market_data", "align_panel", "full"),
    ("market_data.subpanel", "market_data", "PricePanel.subpanel", "calls"),
    ("plot_data.emit_plot_data", "plot_data", "emit_plot_data", "full"),
    ("cli.run", "cli", "run", ""),
    ("cli.scan", "cli", "cmd_scan", "s"),
    ("cli.report", "cli", "cmd_report", "s"),
    ("cli.backtest", "cli", "cmd_backtest", "s"),
    ("cli.forecast", "cli", "cmd_forecast", "s"),
    ("cli.optimize", "cli", "cmd_optimize", "s"),
)

# Modules whose summed span self time is reported as <module>.self_s.
MODULES = (
    "unit_root", "cointegration", "spread_dynamics", "backtest",
    "macro_signals", "fusion", "market_data", "plot_data", "cli",
)

# Counters and ratios, with units; perfbench/README.md defines each one.
DERIVED = (
    ("ols_qr.flops_computed", "flop"),
    ("ols_qr.bytes_computed", "B"),
    ("unit_root.fits_per_test", "count"),
    ("cointegration.fits_per_subset", "count"),
    ("cointegration.subsets_tested", "count"),
    ("cointegration.subsets_skipped", "count"),
    ("cointegration.subsets_singular", "count"),
    ("cointegration.hit_ratio", "ratio"),
    ("fusion.probes", "count"),
    ("fusion.simplex_probes", "count"),
    ("fusion.probe_us", "us"),
    ("fusion.useful_probe_ratio", "ratio"),
    ("market_data.rows_parsed", "count"),
    ("plot_data.bytes_written", "B"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.passes", "count"),
    ("trace.missing", "count"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _, emit in TARGETS:
        if emit == "full":
            units.update({f"{name}.calls": "count", f"{name}.s": "s", f"{name}.self_s": "s"})
        elif emit == "s":
            units[f"{name}.s"] = "s"
        elif emit == "calls":
            units[f"{name}.calls"] = "count"
    for module in MODULES:
        units[f"{module}.self_s"] = "s"
    units.update(DERIVED)
    return units


def _ols_cost(tracer, args, kwargs, result) -> None:
    """Flops and bytes of one thin-QR least-squares fit, from the shapes.

    QR 2nk^2 - 2k^3/3, Q'y and X@coef 2nkm each, the triangular solves
    k^2 m + k^3, X'X^-1 k^3, residual sums 3nm; bytes count X, y, Q,
    the residuals and R once each, as float64.
    """
    X, y = args[0], args[1]
    n, k = X.shape
    m = 1 if y.ndim == 1 else y.shape[1]
    tracer.counts["ols_qr.flops_computed"] += (
        2 * n * k * k - 2 * k ** 3 / 3 + 4 * n * k * m + k * k * m + 2 * k ** 3 + 3 * n * m
    )
    tracer.counts["ols_qr.bytes_computed"] += 8 * (2 * n * k + 2 * n * m + k * k)


def _scan_rows(tracer, args, kwargs, result) -> None:
    for row in result:
        if row.skipped_reason == "not all I(1)":
            tracer.counts["cointegration.subsets_skipped"] += 1
            continue
        tracer.counts["cointegration.subsets_tested"] += 1
        if row.skipped_reason == "singular":
            tracer.counts["cointegration.subsets_singular"] += 1
        elif row.rank:
            tracer.counts["cointegration.cointegrated"] += 1


def _optimizer_trace(tracer, args, kwargs, result) -> None:
    from mrpairs import fusion

    probes = len(result.trace)
    config = kwargs.get("config") or (args[3] if len(args) > 3 else None)
    config = config or fusion.OptimizerConfig()
    ticks = np.round(np.arange(0.0, 1.0 + config.grid_step / 2, config.grid_step), 12)
    n_sources = len(args[0])
    grid = len(ticks) ** (n_sources - 1) * int(np.sum(ticks >= config.mr_weight_floor))
    best, useful = -math.inf, 0
    for probe in result.trace:
        if probe.apr > best:
            best, useful = probe.apr, useful + 1
    tracer.counts["fusion.probes"] += probes
    tracer.counts["fusion.simplex_probes"] += max(0, probes - 1 - grid)
    tracer.counts["fusion.useful_probes"] += useful


def _rows_parsed(tracer, args, kwargs, result) -> None:
    tracer.counts["market_data.rows_parsed"] += len(result)


def _plot_bytes(tracer, args, kwargs, result) -> None:
    for path in result:
        for p in (path, path[: -len(".csv")] + ".svg"):
            if os.path.isfile(p):
                tracer.counts["plot_data.bytes_written"] += os.path.getsize(p)


HOOKS = {
    "ols_qr": _ols_cost,
    "cointegration.scan_cointegration": _scan_rows,
    "fusion.optimize_weights": _optimizer_trace,
    "market_data.load_price_csv": _rows_parsed,
    "market_data.load_monthly_csv": _rows_parsed,
    "plot_data.emit_plot_data": _plot_bytes,
}


class Tracer:
    """Installs the wrappers for one traced pass at a time and keeps the spans."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.pass_of: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.hook_errors: dict[str, str] = {}
        self._stack: list[int] = []
        self._pass = -1
        self._undo: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, original, hook, emit: str):
        if emit == "calls":
            def counted(*args, **kwargs):
                self.counts[name + ".calls"] += 1
                return original(*args, **kwargs)

            return counted

        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.pass_of.append(self._pass)
            self.end.append(math.nan)
            self._stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = original(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except (AttributeError, TypeError, ValueError, IndexError) as exc:
                    self.hook_errors[name] = f"{type(exc).__name__}: {exc}"
            return result

        return traced

    def install(self, pass_index: int) -> None:
        """Wrap every target for the pass with the given index."""
        self._pass = pass_index
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, module_name, path, emit in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                if name not in self.missing:
                    self.missing.append(name)
                continue
            wrapper = self._wrapper(name, original, HOOKS.get(name), emit)
            bindings = [(owner, attr)]
            if not outer:
                bindings += [
                    (m, key) for m in modules if m is not owner
                    for key, value in list(vars(m).items()) if value is original
                ]
            for target, key in bindings:
                self._undo.append((target, key, original))
                setattr(target, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            target, key, original = self._undo.pop()
            setattr(target, key, original)
        self._pass = -1

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[i]
        return own

    def layer_metrics(
        self, pass_seconds: list[float], overhead_s: float, cli_bytes: float
    ) -> dict:
        """Per-layer metrics as means per traced pass.

        `cli_bytes` is what the traced passes left in their output directories.
        """
        n_pass = max(len(pass_seconds), 1)
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = self.self_times()
        calls, total, selft = defaultdict(int), defaultdict(float), defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            total[name] += dur[i]
            selft[name] += own[i]
        values: dict[str, float] = {}
        for name, _, _, emit in TARGETS:
            values[f"{name}.calls"] = (
                self.counts[name + ".calls"] if emit == "calls" else calls[name]
            ) / n_pass
            values[f"{name}.s"] = total[name] / n_pass
            values[f"{name}.self_s"] = selft[name] / n_pass
        for module in MODULES:
            values[f"{module}.self_s"] = sum(
                v for k, v in selft.items() if k.startswith(module + ".")
            ) / n_pass

        ancestors = self._ancestor_names()
        adf_fits = sum(
            1 for i, name in enumerate(self.names)
            if name == "ols_qr" and self.parent[i] >= 0
            and self.names[self.parent[i]] == "unit_root.adf_test"
        )
        scan_fits = sum(
            1 for i, name in enumerate(self.names)
            if name == "ols_qr" and "cointegration.scan_cointegration" in ancestors[i]
            and "unit_root.classify_integration_order" not in ancestors[i]
        )
        c = self.counts
        tested = c["cointegration.subsets_tested"]
        probes = c["fusion.probes"]
        values.update({
            "ols_qr.flops_computed": c["ols_qr.flops_computed"] / n_pass,
            "ols_qr.bytes_computed": c["ols_qr.bytes_computed"] / n_pass,
            "unit_root.fits_per_test": adf_fits / calls["unit_root.adf_test"]
            if calls["unit_root.adf_test"] else 0.0,
            "cointegration.fits_per_subset": scan_fits / tested if tested else 0.0,
            "cointegration.subsets_tested": tested / n_pass,
            "cointegration.subsets_skipped": c["cointegration.subsets_skipped"] / n_pass,
            "cointegration.subsets_singular": c["cointegration.subsets_singular"] / n_pass,
            "cointegration.hit_ratio": c["cointegration.cointegrated"] / tested if tested else 0.0,
            "fusion.probes": probes / n_pass,
            "fusion.simplex_probes": c["fusion.simplex_probes"] / n_pass,
            "fusion.probe_us": 1e6 * total["fusion.optimize_weights"] / probes if probes else 0.0,
            "fusion.useful_probe_ratio": c["fusion.useful_probes"] / probes if probes else 0.0,
            "market_data.rows_parsed": c["market_data.rows_parsed"] / n_pass,
            "plot_data.bytes_written": c["plot_data.bytes_written"] / n_pass,
            "cli.bytes_written": cli_bytes / n_pass,
            "trace.overhead_s": overhead_s,
            "trace.unattributed_s": (
                sum(pass_seconds)
                - sum(d for d, p in zip(dur, self.parent) if p < 0)
            ) / n_pass,
            "trace.passes": float(len(pass_seconds)),
            "trace.missing": float(len(self.missing)),
        })
        return {k: values[k] for k in per_layer_units()}

    def _ancestor_names(self) -> list[frozenset]:
        out: list[frozenset] = []
        for p in self.parent:
            out.append(frozenset() if p < 0 else out[p] | {self.names[p]})
        return out

    def write(self, path: str, pass_seconds: list[float]) -> None:
        """Spans as parallel arrays, with start and end relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "name": self.names,
                    "start_s": [s - t0 for s in self.start],
                    "end_s": [e - t0 for e in self.end],
                    "parent": self.parent,
                    "pass": self.pass_of,
                    "self_s": self.self_times(),
                    "pass_s": pass_seconds,
                    "missing": self.missing,
                    "hook_errors": self.hook_errors,
                },
                fh,
            )
