import math
import re

import numpy as np
import pytest

from mrpairs.plot_data import _SVG_H, _SVG_PAD, _SVG_W, svg_line_chart


def _points_one_by_one(n, series):
    """The polyline points as the per-point formula gives them: the reference."""
    all_vals = np.concatenate([np.asarray(v, dtype=float) for v in series.values()])
    lo, hi = float(np.min(all_vals)), float(np.max(all_vals))
    if not math.isfinite(lo) or not math.isfinite(hi):
        lo, hi = 0.0, 1.0
    if hi == lo:
        hi = lo + 1.0
    inner_w, inner_h = _SVG_W - 2 * _SVG_PAD, _SVG_H - 2 * _SVG_PAD
    return [
        " ".join(
            f"{_SVG_PAD + inner_w * (i / max(n - 1, 1)):.2f},"
            f"{_SVG_PAD + inner_h * (1.0 - (float(v) - lo) / (hi - lo)):.2f}"
            for i, v in enumerate(values)
        )
        for values in series.values()
    ]


_RNG = np.random.default_rng(7)
_WALK = _RNG.standard_normal(1000).cumsum()


@pytest.mark.parametrize(
    "series",
    [
        {"spread": _WALK},
        {"zscore": _WALK / 3, "position": np.sign(_WALK).astype(int)},
        {"daily": _RNG.standard_normal(1000) * 1e-3, "cumulative": _WALK * 1e-2},
        {"flat": np.zeros(5)},
        {"one": np.array([2.5])},
        {"gap": np.array([1.0, np.nan, 3.0])},
        {"blowup": np.array([1.0, np.inf, -2.0])},
    ],
    ids=["walk", "two series", "mixed scales", "constant", "one point", "nan", "inf"],
)
def test_svg_points_match_the_per_point_formula(tmp_path, series):
    path = tmp_path / "chart.svg"
    n = len(next(iter(series.values())))
    svg_line_chart(str(path), "title", series)
    points = re.findall(r'points="([^"]*)"', path.read_text())
    assert points == _points_one_by_one(n, series)
