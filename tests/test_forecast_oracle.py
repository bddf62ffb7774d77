"""The array forecast features against the per-month loops they replaced.

`reference_label_directions` and `reference_build_direction_features` keep
the earlier construction: one month at a time, a change strictly above
+flat_epsilon is Up, strictly below -flat_epsilon is Down, anything else
(the band's edges included) is Flat, and each feature row is built from
Python lists with the 3-month mean taken by `np.mean`. The array versions
must give bitwise-equal features and the same labels and months.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrpairs.macro_signals import (
    DirectionLabel,
    build_direction_features,
    label_directions,
)
from mrpairs.market_data import MonthlySeries


def reference_label_directions(series, flat_epsilon):
    out = []
    for change in np.diff(series.values):
        if change > flat_epsilon:
            out.append(DirectionLabel.UP)
        elif change < -flat_epsilon:
            out.append(DirectionLabel.DOWN)
        else:
            out.append(DirectionLabel.FLAT)
    return out


def reference_build_direction_features(series, flat_epsilon):
    v = series.values
    d = np.diff(v)
    rows, labels, months = [], [], []
    all_labels = reference_label_directions(series, flat_epsilon)
    for t in range(4, len(v)):
        lag_levels = [v[t - 1], v[t - 2], v[t - 3]]
        lag_changes = [d[t - 2], d[t - 3], d[t - 4]]
        rows.append(lag_levels + lag_changes + [float(np.mean(lag_changes))])
        labels.append(all_labels[t - 1])
        months.append(series.months[t])
    return np.array(rows), labels, tuple(months)


def _series(values):
    months = tuple(f"{1900 + k // 12:04d}-{k % 12 + 1:02d}" for k in range(len(values)))
    return MonthlySeries(months=months, values=np.asarray(values, dtype=float))


def _values(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "walk":
        return np.cumsum(rng.standard_normal(n))
    if kind == "rounded":  # changes near +/-0.1 and +/-0.5, and exact zeros
        return np.round(np.cumsum(rng.standard_normal(n) * 0.4), 1)
    if kind == "integer":  # changes exactly on +/-1, the epsilon these run at
        return np.cumsum(rng.integers(-2, 3, n)).astype(float)
    return rng.choice([-0.0, 0.0, 1.0, -1.0], n)  # signed zeros


@st.composite
def series_and_epsilon(draw):
    kind = draw(st.sampled_from(["walk", "rounded", "integer", "zeros"]))
    n = draw(st.integers(6, 700))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind in ("integer", "zeros"):
        epsilon = draw(st.sampled_from([0.0, 1.0]))
    else:
        epsilon = draw(st.sampled_from([0.0, 0.1, 0.5]))
    return _series(_values(kind, n, seed)), epsilon


@settings(max_examples=300, deadline=None)
@given(series_and_epsilon())
@example((_series([0.0, 1.0, 2.0, 1.0, 1.0, 3.0, 2.0]), 1.0))
def test_features_labels_and_months_match_the_loops(case):
    series, epsilon = case
    X, labels, months = build_direction_features(series, epsilon)
    ref_X, ref_labels, ref_months = reference_build_direction_features(series, epsilon)
    assert X.shape == ref_X.shape and X.dtype == ref_X.dtype
    assert X.tobytes() == ref_X.tobytes()
    assert labels == ref_labels
    assert months == ref_months
    assert label_directions(series, epsilon) == reference_label_directions(
        series, epsilon
    )
