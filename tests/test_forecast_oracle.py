"""The array forecast features against the per-month loops they replaced.

`reference_label_directions` and `reference_build_direction_features` keep
the earlier construction: one month at a time, a change strictly above
+flat_epsilon is Up, strictly below -flat_epsilon is Down, anything else
(the band's edges included) is Flat, and each feature row is built from
Python lists with the 3-month mean taken by `np.mean`. The array versions
must give bitwise-equal features and the same labels and months. This is
the labels' one check at the band's edges: the `integer` and `zeros` kinds
run at flat_epsilon = 1 with changes of exactly +-1.

`reference_train_direction_classifier` keeps the classifier's earlier
epoch loop, a fresh array for every step of the update, and the moments
of `X.mean` and `X.std`. The buffered loop must give bitwise-equal
weights, biases and scaler, and the same predictions, for each problem
of a stack trained in one call and for one trained alone.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mrpairs.macro_signals import (
    CLASS_ORDER,
    L2_PENALTY,
    LEARNING_RATE,
    TRAIN_EPOCHS,
    DirectionLabel,
    DirectionModel,
    build_direction_features,
    predict_directions,
    train_direction_classifier,
    train_direction_classifiers,
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


def reference_train_direction_classifier(features, labels):
    X = np.asarray(features, dtype=float)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    Xs = (X - mean) / std
    n, d = Xs.shape
    W = np.zeros((len(CLASS_ORDER), d))
    b = np.zeros(len(CLASS_ORDER))
    truth = np.array([CLASS_ORDER.index(lab) for lab in labels])
    targets = np.where(truth == np.arange(len(CLASS_ORDER))[:, None], 1.0, -1.0)
    for epoch in range(TRAIN_EPOCHS):
        eta = LEARNING_RATE / np.sqrt(epoch + 1.0)
        margins = targets * (W @ Xs.T + b[:, None])
        active = (margins < 1.0).astype(float) * targets
        grad_w = L2_PENALTY * W - (active @ Xs) / n
        grad_b = -active.sum(axis=1) / n
        W -= eta * grad_w
        b -= eta * grad_b
    return DirectionModel(
        weights=W,
        biases=b,
        scaler_mean=mean,
        scaler_std=std,
        scaler_exponent=np.zeros(d, int),  # standardized in the features' own units
    )


@st.composite
def training_problems(draw, shape=None):
    """Features with column scales from 2**-40 to 2**40, some rounded to
    integers or held constant, and labels from two or three classes, drawn
    at random or from a noisy linear rule of the features; of `shape` if
    it is given."""
    n, d = shape or (draw(st.integers(24, 700)), draw(st.integers(1, 9)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0, d)
    X += rng.standard_normal(d) * draw(st.sampled_from([0.0, 1.0, 100.0]))
    if draw(st.booleans()):
        X = np.round(X)
    if draw(st.booleans()):
        X[:, rng.integers(d)] = draw(st.sampled_from([0.0, 1.0, -3.5]))
    X = np.ldexp(X, rng.integers(-40, 41, d))
    n_classes = draw(st.sampled_from([2, 3]))
    if draw(st.booleans()):
        score = X @ rng.standard_normal(d) / (np.abs(X).max(axis=0) @ np.ones(d) + 1.0)
        classes = np.digitize(
            score + 0.1 * rng.standard_normal(n), np.quantile(score, [1 / 3, 2 / 3])
        ) % n_classes
    else:
        classes = rng.integers(n_classes, size=n)
    classes[:n_classes] = np.arange(n_classes)  # every class at least once
    return X, [CLASS_ORDER[c] for c in classes]


@st.composite
def stacks_of_problems(draw):
    """One to four training problems of one features shape."""
    first = draw(training_problems())
    return [first] + draw(st.lists(training_problems(first[0].shape), max_size=3))


def _walk_problem(seed):
    """The first 307 training rows of a random walk's features, the size
    each indicator of the benchmark's CLI workload trains on."""
    X, labels, _ = build_direction_features(_series(_values("walk", 311, seed)))
    return X, labels


def _assert_same_model(model, ref, X):
    for field in ("weights", "biases", "scaler_mean", "scaler_std"):
        got, want = getattr(model, field), getattr(ref, field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), field
    assert predict_directions(model, X) == predict_directions(ref, X)


@settings(max_examples=150, deadline=None)
@given(stacks_of_problems())
@example([_walk_problem(seed) for seed in range(3)])
def test_the_buffered_loop_trains_the_weights_of_the_reference_loop(problems):
    refs = [reference_train_direction_classifier(X, labels) for X, labels in problems]
    # Alone, the first problem is the stack of one, which runs on 2-D arrays.
    alone = train_direction_classifier(*problems[0])
    _assert_same_model(alone, refs[0], problems[0][0])
    models = train_direction_classifiers(problems) if len(problems) > 1 else [alone]
    assert len(models) == len(problems)
    for (X, _), model, ref in zip(problems, models, refs):
        _assert_same_model(model, ref, X)
