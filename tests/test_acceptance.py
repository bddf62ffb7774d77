"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line so the run log doubles as the acceptance report. Run with
`pytest tests/test_acceptance.py -v -s`."""

import math
import time

import numpy as np
import pytest

from conftest import (
    RECIPE_CONFIG,
    estimate_half_life,
    max_drawdown_bruteforce,
    ols_qr,
    write_price_csv,
)
from mrpairs import cli
from mrpairs.backtest import (
    CostModel,
    compute_metrics,
    compute_pnl,
    generate_mr_positions,
)
from mrpairs.cointegration import (
    enumerate_combinations,
    extract_hedge_ratio,
    johansen_test,
    select_var_lag,
)
from mrpairs.fusion import (
    WeightVector,
    combine_signals,
    optimize_weights,
    signal_to_position,
)
from mrpairs.macro_signals import Signal, SignalSeries
from mrpairs.market_data import (
    SynthConfig,
    generate_synthetic_panel,
    simulate_ou,
)
from mrpairs.spread_dynamics import compute_spread
from mrpairs.unit_root import adf_test


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] criterion {number}: {description}{suffix}")
    assert ok, f"criterion {number}: {description}{suffix}"


def _recipe_panel(seed):
    return generate_synthetic_panel(seed, RECIPE_CONFIG)


def _select_and_test(panel):
    feasible = max(1, min(10, (panel.n_dates - 30) // panel.n_instruments))
    return johansen_test(panel, select_var_lag(panel, feasible))


def test_01_adf_size():
    start = time.monotonic()
    rng = np.random.default_rng(20080102)
    walks = np.cumsum(rng.standard_normal((2000, 250)), axis=1)
    rejections = sum(adf_test(w).reject_unit_root for w in walks)
    rate = rejections / 2000
    elapsed = time.monotonic() - start
    _report(
        1,
        "ADF rejection rate on driftless random walks in [0.03, 0.07]",
        0.03 <= rate <= 0.07 and elapsed < 60.0,
        f"rate {rate:.4f}, {elapsed:.1f}s",
    )


def test_02_adf_power():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    rejections = 0
    for _ in range(2000):
        eps = rng.standard_normal(250)
        y = np.empty(250)
        y[0] = eps[0]
        for t in range(1, 250):
            y[t] = 0.5 * y[t - 1] + eps[t]
        rejections += adf_test(y).reject_unit_root
    rate = rejections / 2000
    elapsed = time.monotonic() - start
    _report(
        2,
        "ADF power against AR(1) coefficient 0.5 is at least 0.95",
        rate >= 0.95 and elapsed < 60.0,
        f"rate {rate:.4f}, {elapsed:.1f}s",
    )


def test_03_johansen_recovery():
    ranks, second_components, gaps = [], [], []
    for seed in range(50):
        panel = _recipe_panel(seed)
        outcome = _select_and_test(panel)
        ranks.append(outcome.rank)
        if outcome.rank >= 1:
            hedge = extract_hedge_ratio(outcome)
            second_components.append(hedge[1])
            # Engle-Granger oracle: static regression of the first
            # instrument on the second gives the vector (1, -slope)
            y1, y2 = panel.prices[0], panel.prices[1]
            slope = ols_qr(np.column_stack([np.ones(len(y2)), y2]), y1).coef[1]
            gaps.append(abs(hedge[1] - (-slope)))
    detection = sum(r >= 1 for r in ranks) / len(ranks)
    median_second = float(np.median(second_components))
    median_gap = float(np.median(gaps))
    _report(
        3,
        "Johansen recovers the planted pair: rank 1 in >= 90% of seeds, "
        "median hedge second component -0.5 +/- 0.05, agreeing with the "
        "Engle-Granger oracle",
        detection >= 0.90
        and abs(median_second + 0.5) <= 0.05
        and median_gap <= 0.05,
        f"detection {detection:.2f}, median second {median_second:.4f}, "
        f"median oracle gap {median_gap:.4f}",
    )


def test_04_johansen_null():
    cfg = SynthConfig(n_walks=2, n_days=1500, noise_scale=1.0, start_price=500.0)
    ranks = [_select_and_test(generate_synthetic_panel(seed, cfg)).rank
             for seed in range(200)]
    rate = sum(r == 0 for r in ranks) / len(ranks)
    _report(
        4,
        "Johansen finds rank 0 for independent walks in >= 90% of seeds",
        rate >= 0.90,
        f"rate {rate:.3f}",
    )


def test_05_half_life_estimator():
    ok, details = True, []
    for true_hl in (5.0, 20.0, 60.0):
        estimates = [
            estimate_half_life(simulate_ou(np.random.default_rng(s), 20000, true_hl, 1.0))
            for s in range(50)
        ]
        median = float(np.median(estimates))
        ok = ok and abs(median - true_hl) <= 0.10 * true_hl
        details.append(f"{true_hl:g}->{median:.2f}")
    _report(
        5,
        "median OU half-life estimate within 10% of truth for 5/20/60 days",
        ok,
        ", ".join(details),
    )


def test_06_state_machine_hand_trace():
    z = np.array([0, -1.2, -0.5, 0.3, 1.5, 0.2, -0.1])
    got = generate_mr_positions(z, entry=1.0, exit=0.0).positions.tolist()
    expected = [0, 1, 1, 0, -1, -1, 0]
    _report(
        6,
        "state machine reproduces the hand-traced position sequence exactly",
        got == expected,
        f"got {got}",
    )


def test_07_max_drawdown_oracle():
    rng = np.random.default_rng(99)
    mismatches = 0
    for _ in range(1000):
        n = rng.integers(2, 60)
        r = rng.standard_normal(n) * 0.05
        if compute_metrics(r).max_drawdown != max_drawdown_bruteforce(r):
            mismatches += 1
    _report(
        7,
        "max drawdown matches the brute-force oracle on 1000 fuzzed series",
        mismatches == 0,
        f"{mismatches} mismatches",
    )


def _fusion_sources(panel):
    """One perfect-foresight source, two noise sources, and mean reversion."""
    hedge = np.array([1.0, -0.5])
    spread = compute_spread(panel, hedge)
    mr_positions = generate_mr_positions(spread.zscores, 1.0, 0.0, panel.dates)
    sig_for = {1: Signal.LONG, -1: Signal.SHORT, 0: Signal.FLAT}
    mr = SignalSeries(
        dates=panel.dates,
        signals=tuple(sig_for[p] for p in mr_positions.positions),
    )
    future = np.append(np.diff(spread.values), 0.0)
    oracle = SignalSeries(
        dates=panel.dates,
        signals=tuple(Signal.LONG if c > 0 else Signal.SHORT for c in future),
    )
    rng = np.random.default_rng(42)
    noise = [
        SignalSeries(
            dates=panel.dates,
            signals=tuple(
                rng.choice([Signal.LONG, Signal.SHORT, Signal.FLAT],
                           size=panel.n_dates)
            ),
        )
        for _ in range(2)
    ]
    return [oracle, noise[0], noise[1], mr], hedge, mr_positions


def test_08_fusion_identity():
    panel = _recipe_panel(1)
    sources, hedge, mr_positions = _fusion_sources(panel)
    fused = compute_pnl(
        panel, hedge,
        signal_to_position(combine_signals(sources, WeightVector((0, 0, 0, 1)))),
        CostModel(),
    )
    pure = compute_pnl(panel, hedge, mr_positions, CostModel())
    ok = (
        np.allclose(fused.daily_returns, pure.daily_returns, atol=1e-12)
        and np.allclose(fused.cumulative_returns, pure.cumulative_returns,
                        atol=1e-12)
        and np.array_equal(fused.positions, pure.positions)
        and abs(fused.apr - pure.apr) <= 1e-12
        and abs(fused.sharpe - pure.sharpe) <= 1e-12
        and abs(fused.max_drawdown - pure.max_drawdown) <= 1e-12
        and fused.total_transaction_cost == pure.total_transaction_cost
    )
    _report(
        8,
        "all-weight-on-mean-reversion fusion reproduces the pure report "
        "field by field to 1e-12",
        ok,
    )


def test_09_optimizer_dominance():
    start = time.monotonic()
    panel = _recipe_panel(1)
    sources, hedge, _ = _fusion_sources(panel)
    result = optimize_weights(sources, panel, hedge)
    # independent exhaustive sweep of the same 0.25-step grid
    ticks = np.linspace(0.0, 1.0, 5)
    best_grid = -math.inf
    for w1 in ticks:
        for w2 in ticks:
            for w3 in ticks:
                for w4 in ticks:
                    fused = combine_signals(
                        sources, WeightVector((w1, w2, w3, w4))
                    )
                    apr = compute_pnl(
                        panel, hedge, signal_to_position(fused), CostModel()
                    ).apr
                    best_grid = max(best_grid, apr)
    elapsed = time.monotonic() - start
    ok = (
        result.apr >= result.baseline_apr
        and result.apr >= result.baseline_apr + 0.001
        and result.apr >= best_grid - 1e-12
        and elapsed < 300.0
    )
    _report(
        9,
        "optimized APR dominates the baseline by >= 0.1pp and the "
        "exhaustive 0.25-step grid",
        ok,
        f"baseline {result.baseline_apr:.4%}, optimized {result.apr:.4%}, "
        f"grid best {best_grid:.4%}, {elapsed:.1f}s",
    )


def test_10_enumeration_count():
    count = len(enumerate_combinations(7, 2, 4))
    _report(
        10,
        "7 instruments, subset sizes 2..4 enumerate exactly 91 subsets",
        count == 91,
        f"count {count}",
    )


def test_11_critical_value_verification(tmp_path):
    config = tmp_path / "mc.cfg"
    config.write_text("mc_draws = 100000\n")
    code = cli.run(
        ["verify-critical-values", "--config", str(config), "--out", str(tmp_path)]
    )
    with open(tmp_path / "critical_values.csv", encoding="utf-8") as fh:
        fh.readline()
        rows = {line.split(",")[0]: line.strip().split(",") for line in fh}
    adf_diff = float(rows["adf_drift"][-1])
    joh_diff = float(rows["johansen_trace_mr1"][-1])
    _report(
        11,
        "Monte Carlo reproduces the embedded ADF 95% value within 0.03 "
        "and the Johansen m-r=1 value within 0.3",
        code == 0 and adf_diff <= 0.03 and joh_diff <= 0.3,
        f"ADF diff {adf_diff:.4f}, Johansen diff {joh_diff:.4f}",
    )


def test_12_optimize_determinism(tmp_path):
    panel = _recipe_panel(1)
    paths = {
        iid: write_price_csv(tmp_path / f"{iid}.csv", panel.dates, panel.prices[i])
        for i, iid in enumerate(panel.instrument_ids)
    }
    months, cycle = [], ["up", "down", "flat"]
    for day in panel.dates:
        key = f"{day.year:04d}-{day.month:02d}"
        if not months or months[-1] != key:
            months.append(key)
    oracle = tmp_path / "oracle.csv"
    oracle.write_text(
        "month,direction\n"
        + "".join(f"{m},{cycle[i % 3]}\n" for i, m in enumerate(months))
    )
    config = tmp_path / "run.cfg"
    config.write_text(
        "".join(f"price.{iid} = {p}\n" for iid, p in sorted(paths.items()))
        + f"macro_oracle.RATES = {oracle}\n"
    )
    args = ["optimize", "--config", str(config), "--subset", "SYN1,SYN2"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli.run(args + ["--out", str(out_a)])
    code_b = cli.run(args + ["--out", str(out_b)])
    bytes_a = (out_a / "optimization_trace.csv").read_bytes()
    bytes_b = (out_b / "optimization_trace.csv").read_bytes()
    _report(
        12,
        "two optimize runs with identical inputs and seed emit "
        "byte-identical trace files",
        code_a == 0 and code_b == 0 and bytes_a == bytes_b,
        f"{len(bytes_a)} bytes",
    )
