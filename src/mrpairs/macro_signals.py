"""Monthly macro direction forecasting and signal expansion.

Directions (Up/Down/Flat) are labelled from month-over-month changes with
a configurable flat band. A one-vs-rest linear classifier trained with
regularized hinge loss and deterministic full-batch subgradient descent
forecasts the direction; a `month,direction` oracle CSV can stand in for
the model so the downstream fusion pipeline is testable on its own.

Training is 400 epochs of 12 numpy calls each: the margins and the
weight gradient as BLAS products, the bias sums as a small third, and
nine in-place ufuncs on one flat [W | b] buffer and its gradient,
allocated once per training. At a few hundred months the cost is numpy
call overhead, not arithmetic, so `train_direction_classifiers` runs
problems of one shape through the loop as one stack. The tests keep the
earlier loop, a fresh array for every step, as an oracle the weights
must equal bit for bit, alone or stacked. The scaler is scale-free: each
column is divided by a power of two near its largest training |value|,
kept in the model, and is standardized and its moments taken in those
units. That is exact, so in range it changes no bit, and an indicator
quoted in huge or tiny units trains the model of the same indicator in
units near 1, where no deviation from a column mean can overflow. A
month-over-month change that overflows is rejected, not trained on, and
so is a forecast row whose class scores are not finite.

Direction-to-signal convention: the macro indicators move opposite to the
majors-vs-USD exchange rates, so a forecast increase maps to Short, a
decrease to Long, and flat to Flat. Monthly signals broadcast to every
trading day of their month.

A daily signal is held as its int8 target position (Long +1, Short -1,
Flat 0), the form fusion and the backtest use; `Signal` names those
values at the edges.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from ._csv import read_map
from .backtest import target_positions
from .errors import DegenerateInputError, ValidationError
from .market_data import MonthlySeries, _month


class DirectionLabel(enum.Enum):
    # Declaration order is the tie-break order for argmax predictions.
    UP = "up"
    DOWN = "down"
    FLAT = "flat"


class Signal(enum.IntEnum):
    """A trading signal, valued as its target position."""

    LONG = 1
    SHORT = -1
    FLAT = 0


CLASS_ORDER = (DirectionLabel.UP, DirectionLabel.DOWN, DirectionLabel.FLAT)


@dataclass(frozen=True)
class SignalSeries:
    """One trading signal per daily date, stored as int8 target positions.

    `signals` may be given as any sequence of `Signal` members or of the
    integers -1, 0 and +1.
    """

    dates: tuple
    signals: np.ndarray  # int8

    def __post_init__(self):
        sig = target_positions(self.signals, len(self.dates), "signals")
        object.__setattr__(self, "signals", sig)


def check_flat_epsilon(flat_epsilon: float) -> None:
    """Raise ValidationError unless the flat band is finite and non-negative."""
    if not 0.0 <= flat_epsilon < np.inf:
        raise ValidationError(
            f"flat_epsilon must be finite and non-negative, got {flat_epsilon!r}"
        )


# Feature recipe: lagged levels (1-3 months), lagged changes (1-3 months),
# and the 3-month mean of the changes. 7 features per month.
_FEATURE_BURN_IN = 4  # first month index with a full feature vector


def build_direction_features(
    series: MonthlySeries, flat_epsilon: float = 0.0
) -> tuple[np.ndarray, list[DirectionLabel], tuple[str, ...]]:
    """Feature matrix, labels, and target months for direction training; a
    month's label is its own change's direction, Flat within +-flat_epsilon."""
    v = series.values
    if len(v) < _FEATURE_BURN_IN + 2:
        raise ValidationError("too few months to build features")
    t = np.arange(_FEATURE_BURN_IN, len(v))
    with np.errstate(over="ignore", invalid="ignore"):  # reported below, not warned
        d = np.diff(v)
        c1, c2, c3 = d[t - 2], d[t - 3], d[t - 4]  # changes into months t-1..t-3
        # Summed in this order, the mean equals np.mean of (c1, c2, c3) bitwise.
        total = c1 + c2 + c3
    over = ~np.isfinite(d)
    over[t - 2] |= ~np.isfinite(total)  # a 3-month sum, at its latest change
    if over.any():
        month = series.months[np.argmax(over) + 1]
        raise ValidationError(f"the month-over-month changes overflow at {month}")
    check_flat_epsilon(flat_epsilon)
    change = d[_FEATURE_BURN_IN - 1:]  # into each month t
    classes = np.where(change > flat_epsilon, 0, np.where(change < -flat_epsilon, 1, 2))
    X = np.column_stack([v[t - 1], v[t - 2], v[t - 3], c1, c2, c3, total / 3])
    return X, [CLASS_ORDER[i] for i in classes], tuple(series.months[_FEATURE_BURN_IN:])


# Subgradient descent: epochs, initial step size, L2 penalty on the weights.
TRAIN_EPOCHS = 400
LEARNING_RATE = 0.5
L2_PENALTY = 1e-4


@dataclass(frozen=True)
class DirectionModel:
    """One-vs-rest linear hinge classifier with an internal scaler."""

    weights: np.ndarray       # (3, n_features), rows in CLASS_ORDER
    biases: np.ndarray        # (3,)
    scaler_mean: np.ndarray   # in the features' own units
    scaler_std: np.ndarray    # 1 where a column does not vary
    scaler_exponent: np.ndarray  # columns are standardized divided by 2**exponent

    @property
    def n_features(self) -> int:
        return self.weights.shape[1]


def check_training_problem(
    features: np.ndarray, labels: list[DirectionLabel]
) -> np.ndarray:
    """The features as a float array, once they pass the trainer's checks:
    2-D with one row per label, at least 24 rows and two classes."""
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or len(X) != len(labels):
        raise ValidationError("features must be 2-D with one row per label")
    if len(X) < 24:
        raise ValidationError("need at least 24 training rows")
    if len({lab for lab in labels}) < 2:
        raise DegenerateInputError("training labels contain a single class")
    return X


def _standardize(X: np.ndarray):
    """The standardized features and the scaler's mean, std and exponent."""
    # Each column is divided by the power of two above its largest |value|
    # and standardized in those units. That is exact, so its moments scaled
    # back equal X.mean and X.std, and Xs equals (X - mean) / std, bit for
    # bit in range; a column in huge or tiny units neither overflows in its
    # squares or deviations nor underflows to a zero std.
    _, exponent = np.frexp(np.abs(X).max(axis=0))
    scaled = np.ldexp(X, -exponent)
    scaled_mean, scaled_std = scaled.mean(axis=0), scaled.std(axis=0)
    mean = np.ldexp(scaled_mean, exponent)
    std = np.ldexp(scaled_std, exponent)
    std[std == 0.0] = 1.0
    constant = scaled_std == 0.0
    scaled_std[constant] = 1.0
    Xs = (scaled - scaled_mean) / scaled_std
    # A column that never moved has deviations 0 here and a zero weight;
    # forecasts take its deviations in its own units, as (X - mean) / 1.
    exponent[constant] = 0
    return Xs, mean, std, exponent


def _descend(Xs: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The weights (..., k, d) and biases (..., k) that subgradient descent
    reaches on standardized features (..., n, d) and +-1 targets (..., k, n).

    Leading axes stack problems of one shape; a single problem runs on
    plain 2-D arrays. W and b are views of one flat buffer `Wb`, and so are
    their pulls, so an epoch is 12 numpy calls. The penalty `l2` is 0 on
    the biases, whose step `0*b - s/n` is exactly -(s/n): b stays finite
    and never becomes -0, so `b - eta*step` is bit for bit `b + eta*(s/n)`.
    """
    *lead, n, d = Xs.shape
    k = targets.shape[-2]
    Wb = np.zeros((*lead, k * (d + 1)))
    pull, step = np.empty_like(Wb), np.empty_like(Wb)
    W, b = Wb[..., :k * d].reshape(*lead, k, d), Wb[..., k * d:]
    pull_w, pull_b = pull[..., :k * d].reshape(*lead, k, d), pull[..., k * d:]
    l2 = np.repeat([L2_PENALTY, 0.0], [k * d, k])
    XsT, ones, b_col = np.swapaxes(Xs, -1, -2), np.ones(n), b[..., None]
    margins, active = np.empty((*lead, k, n)), np.empty((*lead, k, n))
    # np.dot is the same BLAS call as np.matmul on 2-D arrays, with less
    # overhead; a stack needs matmul's leading axes.
    product = np.matmul if lead else np.dot
    step_sizes = (LEARNING_RATE / np.sqrt(np.arange(1.0, TRAIN_EPOCHS + 1.0))).tolist()
    for eta in step_sizes:
        product(W, XsT, out=margins)
        margins += b_col
        margins *= targets
        np.less(margins, 1.0, out=active)
        active *= targets
        # The bias sum is its own product: a ones column folded into
        # `active @ Xs` changes OpenBLAS's tiling and the other columns' bits.
        product(active, Xs, out=pull_w)
        product(active, ones, out=pull_b)  # exact: a sum of +-1 and +-0
        pull /= n
        np.multiply(Wb, l2, out=step)
        step -= pull
        step *= eta
        Wb -= step
    return W, b


def train_direction_classifiers(
    problems: list[tuple[np.ndarray, list[DirectionLabel]]],
) -> list[DirectionModel]:
    """One model per `(features, labels)` problem, in input order.

    Every problem is checked, in input order, before any is trained; the
    first that fails raises its own error. Problems of one features shape
    train as one stack, with the bits each would get trained alone.
    """
    checked = [(check_training_problem(X, labels), labels) for X, labels in problems]
    k = len(CLASS_ORDER)
    scalers = [_standardize(X) for X, _ in checked]
    truths = [np.array([CLASS_ORDER.index(lab) for lab in labels]) for _, labels in checked]
    groups: dict[tuple, list[int]] = {}
    for i, (X, _) in enumerate(checked):
        groups.setdefault(X.shape, []).append(i)
    models: list = [None] * len(checked)
    for members in groups.values():
        Xs = [scalers[i][0] for i in members]
        targets = [np.where(truths[i] == np.arange(k)[:, None], 1.0, -1.0) for i in members]
        if len(members) == 1:
            W, b = _descend(Xs[0], targets[0])
        else:
            W, b = _descend(np.stack(Xs), np.stack(targets))
        W, b = W.reshape(-1, k, W.shape[-1]), b.reshape(-1, k)
        for i, weights, biases in zip(members, W, b):
            _, mean, std, exponent = scalers[i]
            models[i] = DirectionModel(
                weights=weights.copy(),
                biases=biases.copy(),
                scaler_mean=mean,
                scaler_std=std,
                scaler_exponent=exponent,
            )
    return models


def train_direction_classifier(
    features: np.ndarray, labels: list[DirectionLabel]
) -> DirectionModel:
    """Deterministic full-batch subgradient descent on the hinge loss.

    Each class gets a +1/-1 one-vs-rest problem; the step size decays as
    lr/sqrt(epoch). No randomness enters the updates, so identical inputs
    give bitwise-identical weights. An epoch is `grad_w = L2*W - (active @
    Xs)/n`, `grad_b = -active.sum(axis=1)/n`, `W -= eta*grad_w` and `b -=
    eta*grad_b`, made with the same float operations in the same order, in
    place on buffers allocated once per call. This is the stack of one of
    `train_direction_classifiers`.
    """
    return train_direction_classifiers([(features, labels)])[0]


def predict_directions(
    model: DirectionModel, features: np.ndarray
) -> list[DirectionLabel]:
    """Argmax of class scores; ties break toward the first class in order.

    The rows are standardized in the units the model was trained in, each
    column divided by 2**exponent, which in range is bit for bit
    (X - mean) / std. A row whose scores are not finite, one far outside
    what the model was trained on, raises ValidationError.
    """
    X = np.asarray(features, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise ValidationError(
            f"feature width {X.shape} does not match model ({model.n_features})"
        )
    shift = -model.scaler_exponent
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # reported below
        deviations = np.ldexp(X, shift) - np.ldexp(model.scaler_mean, shift)
        Xs = deviations / np.ldexp(model.scaler_std, shift)
        scores = model.weights @ Xs.T + model.biases[:, None]
    unscored = ~np.isfinite(scores).all(axis=0)
    if unscored.any():
        raise ValidationError(
            f"forecast row {np.argmax(unscored)} is too far outside the training "
            "features to score"
        )
    return [CLASS_ORDER[i] for i in np.argmax(scores, axis=0)]


def direction_to_signal(label: DirectionLabel) -> Signal:
    """Forecast increase -> short the majors, decrease -> long, flat -> flat."""
    if label is DirectionLabel.UP:
        return Signal.SHORT
    if label is DirectionLabel.DOWN:
        return Signal.LONG
    return Signal.FLAT


def _month_index(daily_dates) -> tuple[list[str], np.ndarray]:
    """The distinct `YYYY-MM` months of the dates, ascending, and each
    date's index into them; each month is formatted once."""
    months = np.fromiter(
        (day.year * 12 + day.month - 1 for day in daily_dates), np.int64, len(daily_dates)
    )
    distinct, day_month = np.unique(months, return_inverse=True)
    return [f"{m // 12:04d}-{m % 12 + 1:02d}" for m in distinct.tolist()], day_month


def expand_monthly_to_daily(
    monthly_signals: dict[str, Signal], daily_dates: tuple
) -> SignalSeries:
    """Broadcast each month's signal to all its trading days."""
    keys, day_month = _month_index(daily_dates)
    missing = np.array([key not in monthly_signals for key in keys], dtype=bool)
    if missing.any():  # name the month of the first uncovered date
        first = day_month[np.argmax(missing[day_month])]
        raise ValidationError(f"no monthly signal covers {keys[first]}")
    signals = np.array([monthly_signals[key] for key in keys], dtype=np.int8)
    return SignalSeries(dates=tuple(daily_dates), signals=signals[day_month])


def load_forecast_oracle_csv(path: str) -> dict[str, DirectionLabel]:
    """Parse a `month,direction` CSV with direction in {up,down,flat}."""
    return read_map(
        path, "month,direction", _month, lambda s: DirectionLabel(s.strip().lower())
    )
