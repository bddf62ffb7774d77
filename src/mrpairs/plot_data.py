"""Plot-data files: CSVs plus self-contained SVG line charts.

Reproduces the content of the research figures (spread with half-life,
standardized spread with positions, daily and cumulative returns) as data
files and minimal vector graphics, with no external renderer required.
"""

from __future__ import annotations

import math
import os

import numpy as np

from ._csv import write_csv
from .backtest import BacktestReport
from .spread_dynamics import SpreadSeries

_SVG_W, _SVG_H, _SVG_PAD = 900, 300, 40


def svg_line_chart(path: str, title: str, series: dict[str, np.ndarray]) -> None:
    """Write a fixed-size SVG with one polyline per named series, each
    spanning the chart's width."""
    colors = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
    all_vals = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    lo, hi = float(np.min(all_vals)), float(np.max(all_vals))
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi == lo:
        hi = lo + 1.0
    inner_w = _SVG_W - 2 * _SVG_PAD
    inner_h = _SVG_H - 2 * _SVG_PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_SVG_PAD}" y="20" font-family="sans-serif" font-size="14">'
        f"{title}</text>",
        f'<rect x="{_SVG_PAD}" y="{_SVG_PAD}" width="{inner_w}" height="{inner_h}" '
        'fill="none" stroke="#cccccc"/>',
    ]
    for color, (name, values) in zip(colors, series.items()):
        ys = np.asarray(values, dtype=float)
        px = _SVG_PAD + inner_w * (np.arange(len(ys)) / max(len(ys) - 1, 1))
        py = _SVG_PAD + inner_h * (1.0 - (ys - lo) / (hi - lo))
        pts = " ".join(map("{:.2f},{:.2f}".format, px.tolist(), py.tolist()))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.2"><title>{name}</title></polyline>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_plot_data(
    report: BacktestReport,
    spread: SpreadSeries,
    half_life_days: float,
    out_dir: str,
    days: list[str],
) -> list[str]:
    """Write spread/zscore/returns CSVs and a matching SVG for each.

    Each figure is one row of a table: file stem, CSV header and columns,
    then the SVG's title and named series. `days` holds the cells
    (`_csv.cells`) of the panel calendar that the report and the spread
    share, so the caller formats them once for every file. Returns the
    three CSV paths.
    """
    os.makedirs(out_dir, exist_ok=True)
    cumulative = report.cumulative_returns
    figures = [
        ("spread", "date,spread,half_life_days",
         [days, spread.values, np.full(len(days), half_life_days)],
         f"Portfolio spread (half-life {half_life_days:.2f} days)",
         {"spread": spread.values}),
        ("zscore_positions", "date,zscore,position",
         [days, spread.zscores, report.positions],
         "Standardized spread and positions",
         {"zscore": spread.zscores, "position": report.positions.astype(float)}),
        ("returns", "date,daily_return,cumulative_return",
         [days, report.daily_returns, cumulative],
         "Daily and cumulative returns",
         {"daily_return": report.daily_returns, "cumulative_return": cumulative}),
    ]
    written = []
    for name, header, columns, title, series in figures:
        path = os.path.join(out_dir, f"{name}.csv")
        write_csv(path, header, columns)
        svg_line_chart(os.path.join(out_dir, f"{name}.svg"), title, series)
        written.append(path)
    return written
