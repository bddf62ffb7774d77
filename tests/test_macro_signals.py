import datetime as dt
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mrpairs.errors import DegenerateInputError, ValidationError
from mrpairs.macro_signals import (
    _month_index,
    CLASS_ORDER,
    DirectionLabel,
    DirectionModel,
    Signal,
    build_direction_features,
    direction_to_signal,
    expand_monthly_to_daily,
    load_forecast_oracle_csv,
    predict_directions,
    train_direction_classifier,
    train_direction_classifiers,
)
from mrpairs.market_data import MonthlySeries, trading_days


def _monthly(values, start_year=2000):
    months = []
    y, m = start_year, 1
    for _ in values:
        months.append(f"{y:04d}-{m:02d}")
        m += 1
        if m > 12:
            y, m = y + 1, 1
    return MonthlySeries(months=tuple(months), values=np.array(values, float))


# The labels' rule, band edges included, is also checked month by month
# against a reference loop in test_forecast_oracle.py. The first months of
# each series here are the features' burn-in and carry no label.
class TestLabelDirections:
    def test_definitional(self):
        _, labels, _ = build_direction_features(_monthly([1, 1, 1, 2, 3, 3, 1]))
        assert labels == [DirectionLabel.UP, DirectionLabel.FLAT, DirectionLabel.DOWN]

    def test_constant_all_flat(self):
        _, labels, _ = build_direction_features(_monthly([5] * 6))
        assert labels == [DirectionLabel.FLAT] * 2

    def test_flat_band(self):
        _, labels, _ = build_direction_features(
            _monthly([1.0, 1.0, 1.0, 1.0, 1.4, 0.8]), flat_epsilon=0.5
        )
        assert labels == [DirectionLabel.FLAT, DirectionLabel.DOWN]

    @pytest.mark.parametrize("epsilon", [-0.1, float("nan"), float("inf")])
    def test_flat_band_must_be_finite_and_non_negative(self, epsilon):
        with pytest.raises(ValidationError, match="finite and non-negative"):
            build_direction_features(_monthly([5] * 6), flat_epsilon=epsilon)


def _separable_set(seed, n_per_class=20):
    rng = np.random.default_rng(seed)
    centers = {
        DirectionLabel.UP: (0.0, 10.0),
        DirectionLabel.DOWN: (10.0, -10.0),
        DirectionLabel.FLAT: (-10.0, -10.0),
    }
    X, labels = [], []
    for label, (cx, cy) in centers.items():
        pts = rng.standard_normal((n_per_class, 2)) * 0.5 + (cx, cy)
        X.append(pts)
        labels.extend([label] * n_per_class)
    return np.vstack(X), labels


class TestTraining:
    def test_separable_set_fit_exactly(self):
        X, labels = _separable_set(0)
        model = train_direction_classifier(X, labels)
        assert predict_directions(model, X) == labels

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).standard_normal((30, 2))
        with pytest.raises(DegenerateInputError, match="^training labels contain a single class$"):
            train_direction_classifier(X, [DirectionLabel.UP] * 30)

    def test_too_few_rows_rejected(self):
        X, labels = _separable_set(0, n_per_class=5)
        with pytest.raises(ValidationError):
            train_direction_classifier(X, labels)

    def test_training_bitwise_deterministic(self):
        X, labels = _separable_set(3)
        a = train_direction_classifier(X, labels)
        b = train_direction_classifier(X, labels)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.biases, b.biases)

    def test_held_out_accuracy_across_seeds(self):
        hits = []
        for seed in range(20):
            X, labels = _separable_set(seed, n_per_class=30)
            order = np.random.default_rng(seed + 1000).permutation(len(X))
            X, labels = X[order], [labels[i] for i in order]
            model = train_direction_classifier(X[:60], labels[:60])
            predicted = predict_directions(model, X[60:])
            hits.append(np.mean([p is t for p, t in zip(predicted, labels[60:])]))
        assert all(h >= 0.95 for h in hits)

    def test_a_stack_of_mixed_shapes_comes_back_in_input_order(self):
        # The first and the last problem share a shape and train as one
        # stack; the two between differ in rows or in columns.
        X, labels = _separable_set(2, n_per_class=10)
        problems = [
            _separable_set(0, n_per_class=10),
            _separable_set(1),
            (X[:, :1], labels),
            _separable_set(3, n_per_class=10),
        ]
        models = train_direction_classifiers(problems)
        assert len(models) == len(problems)
        for (X, labels), model in zip(problems, models):
            alone = train_direction_classifier(X, labels)
            for field in ("weights", "biases", "scaler_mean", "scaler_std", "scaler_exponent"):
                got, want = getattr(model, field), getattr(alone, field)
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field

    def test_the_first_invalid_problem_raises_its_own_message(self):
        X, labels = _separable_set(0)
        one_class = (X, [DirectionLabel.UP] * len(X))
        too_few = (X[:20], labels[:20])
        with pytest.raises(ValidationError, match="need at least 24 training rows") as info:
            train_direction_classifiers([(X, labels), too_few, one_class])
        assert not isinstance(info.value, DegenerateInputError)
        message = "^training labels contain a single class$"
        with pytest.raises(DegenerateInputError, match=message):
            train_direction_classifiers([(X, labels), one_class, too_few])

    @staticmethod
    def _forecast(values):
        X, labels, months = build_direction_features(_monthly(values))
        split = int(len(months) * 0.7)
        model = train_direction_classifier(X[:split], labels[:split])
        return model, predict_directions(model, X[split:])

    # At flat_epsilon 0 the labels are signs, and scaling by a power of two
    # is exact, so an indicator quoted in other units trains the same model.
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 300), data=st.data())
    def test_a_power_of_two_rescaling_trains_the_same_model(self, seed, n, data):
        values = np.cumsum(np.random.default_rng(seed).standard_normal(n))
        features, _, _ = build_direction_features(_monthly(values))
        model, predicted = self._forecast(values)
        moves = np.concatenate(
            [values, np.diff(values), features[:, -1], model.scaler_mean, model.scaler_std]
        )
        magnitudes = np.abs(moves[moves != 0.0])
        # Every k that keeps the values, their changes and 3-month mean
        # changes, and the scaler's column moments normal, with two bits to
        # spare at the top for the 3-month sums and the deviations from the
        # column means.
        lowest = -1021 - np.frexp(magnitudes.min())[1]
        highest = 1022 - np.frexp(magnitudes.max())[1]
        k = data.draw(st.integers(lowest, highest))
        for shift in (lowest, k, highest):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                scaled, scaled_predicted = self._forecast(np.ldexp(values, shift))
            assert scaled.weights.tobytes() == model.weights.tobytes()
            assert scaled.biases.tobytes() == model.biases.tobytes()
            assert scaled_predicted == predicted
            for field in ("scaler_mean", "scaler_std"):
                want = np.ldexp(getattr(model, field), shift)
                assert getattr(scaled, field).tobytes() == want.tobytes()

    def test_an_indicator_spanning_the_float_range_forecasts_as_in_units_near_1(self):
        # From -1.59e308 to +1.56e308 in finite steps: every deviation from a
        # column mean taken in the indicator's own units would overflow.
        rng = np.random.default_rng(0)
        c = np.clip(np.arange(60) / 59 + 0.03 * rng.standard_normal(60), 0.0, 1.0)
        c[0], c[-1] = 0.0, 1.0
        values = -1.59e308 * (1.0 - c) + 1.56e308 * c

        def forecast(values):
            X, labels, _ = build_direction_features(_monthly(values))
            model = train_direction_classifier(X[:40], labels[:40])
            return model, predict_directions(model, X[40:])

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, predicted = forecast(values)
            near_1, near_1_predicted = forecast(np.ldexp(values, -1020))
        assert model.weights.tobytes() == near_1.weights.tobytes()
        assert model.biases.tobytes() == near_1.biases.tobytes()
        assert predicted == near_1_predicted
        assert len(predicted) == 60 - 4 - 40  # the first 4 months have no features


class TestPrediction:
    def _zero_model(self):
        return DirectionModel(
            weights=np.zeros((3, 2)),
            biases=np.zeros(3),
            scaler_mean=np.zeros(2),
            scaler_std=np.ones(2),
            scaler_exponent=np.zeros(2, int),
        )

    def test_tie_breaks_to_first_class(self):
        assert predict_directions(self._zero_model(), np.zeros((1, 2))) == [
            DirectionLabel.UP
        ]
        assert CLASS_ORDER[0] is DirectionLabel.UP

    def test_duplicated_row_identical_predictions(self):
        X, labels = _separable_set(5)
        model = train_direction_classifier(X, labels)
        row = np.tile(X[3], (5, 1))
        assert len(set(predict_directions(model, row))) == 1

    def test_rows_far_outside_the_training_features_raise(self):
        # Trained on values near 1e-300, a forecast row near 1e300 has no
        # finite standardized value, so no finite class score.
        values = np.cumsum(np.random.default_rng(2).standard_normal(60))
        X, labels, _ = build_direction_features(_monthly(1e-300 * values))
        model = train_direction_classifier(X, labels)
        huge, _, _ = build_direction_features(_monthly(1e300 * values))
        rows = np.vstack([X[:3], huge[3:5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^forecast row 3 is too far outside"):
                predict_directions(model, rows)
            assert len(predict_directions(model, rows[:3])) == 3

    def test_width_mismatch(self):
        with pytest.raises(ValidationError):
            predict_directions(self._zero_model(), np.zeros((2, 3)))


class TestDirectionToSignal:
    def test_up_means_short(self):
        assert direction_to_signal(DirectionLabel.UP) is Signal.SHORT

    def test_down_means_long(self):
        assert direction_to_signal(DirectionLabel.DOWN) is Signal.LONG

    def test_flat_means_flat(self):
        assert direction_to_signal(DirectionLabel.FLAT) is Signal.FLAT


def _reference_month_keys(days):
    """The per-date formatting the month index replaced."""
    return [f"{day.year:04d}-{day.month:02d}" for day in days]


def _reference_expand(monthly, days):
    """The per-date expansion loop the month index replaced."""
    signals = np.empty(len(days), dtype=np.int8)
    for t, month in enumerate(_reference_month_keys(days)):
        if month not in monthly:
            raise ValidationError(f"no monthly signal covers {month}")
        signals[t] = monthly[month]
    return signals


class TestExpandMonthlyToDaily:
    def test_broadcast_within_month(self):
        days = trading_days(dt.date(2010, 3, 1), 23)
        assert all(d.month == 3 for d in days)
        series = expand_monthly_to_daily({"2010-03": Signal.LONG}, days)
        assert series.signals.tolist() == [1] * 23  # Long

    def test_switch_at_month_boundary(self):
        # Jan 2010 has 21 weekdays, Feb has 20
        days = trading_days(dt.date(2010, 1, 1), 41)
        series = expand_monthly_to_daily(
            {"2010-01": Signal.LONG, "2010-02": Signal.SHORT}, days
        )
        for day, sig in zip(series.dates, series.signals):
            assert sig == (1 if day.month == 1 else -1)  # Long, then Short
        # within-month constancy
        by_month = {}
        for day, sig in zip(series.dates, series.signals):
            by_month.setdefault(day.month, set()).add(sig)
        assert all(len(v) == 1 for v in by_month.values())

    def test_uncovered_month_raises(self):
        days = trading_days(dt.date(2010, 1, 1), 25)
        with pytest.raises(ValidationError, match="^no monthly signal covers 2010-02$"):
            expand_monthly_to_daily({"2010-01": Signal.LONG}, days)

    @pytest.mark.parametrize(
        "days",
        [
            [dt.date(2010, 3, 2), dt.date(2009, 12, 31), dt.date(2010, 1, 5), dt.date(2010, 3, 1)],
            [dt.date(2011, 5, 3), dt.date(2011, 2, 1), dt.date(2011, 5, 4), dt.date(2011, 2, 2),
             dt.date(2010, 5, 3), dt.date(2011, 5, 5)],
            [dt.date(999, 12, 1), dt.date(1, 1, 1), dt.date(45, 7, 9), dt.date(1000, 1, 1)],
            [dt.date(2024, 2, 29)],
            trading_days(dt.date(2010, 1, 1), 70),
        ],
        ids=["unsorted", "months repeated out of order", "years below 1000",
             "a single date", "three months"],
    )
    # Uncovered months by their rank; with two, the error must name the one
    # of the first uncovered date, which in unsorted dates may be the later.
    @pytest.mark.parametrize("holes", [(), (0,), (-1,), ("middle",), (0, -1)])
    def test_matches_the_per_date_loop(self, days, holes):
        keys = _reference_month_keys(days)
        months = sorted(set(keys))
        missing = {months[len(months) // 2 if h == "middle" else h] for h in holes}
        monthly = {m: Signal(i % 3 - 1) for i, m in enumerate(months) if m not in missing}
        distinct, day_month = _month_index(days)
        assert distinct == months and [distinct[i] for i in day_month] == keys
        try:
            expected = _reference_expand(monthly, days)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                expand_monthly_to_daily(monthly, days)
            assert str(raised.value) == str(exc)
        else:
            series = expand_monthly_to_daily(monthly, days)
            assert series.dates == tuple(days)
            assert series.signals.dtype == np.int8
            assert series.signals.tobytes() == expected.tobytes()


class TestFeatures:
    def test_shape_and_months(self):
        series = _monthly(np.arange(40.0))
        X, labels, months = build_direction_features(series)
        assert X.shape == (36, 7)
        assert len(labels) == 36
        assert months[0] == series.months[4]

    def test_linear_trend_labels_all_up(self):
        series = _monthly(np.arange(40.0))
        _, labels, _ = build_direction_features(series)
        assert set(labels) == {DirectionLabel.UP}

    @pytest.mark.parametrize(
        "values, month",
        [
            ([1.5e308, -1.5e308] * 20, "2000-02"),
            # every change is finite, but the three up to 2000-07 sum past the limit
            ([0.0] * 4 + [-1.5e308, -0.5e308, 0.5e308, 0.5e308], "2000-07"),
        ],
    )
    def test_changes_that_overflow_are_rejected_without_a_warning(self, values, month):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValidationError,
                match=f"^the month-over-month changes overflow at {month}$",
            ):
                build_direction_features(_monthly(values))


class TestOracleCsv:
    def test_parse(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text("month,direction\n2010-01,up\n2010-02,flat\n2010-03,down\n")
        out = load_forecast_oracle_csv(str(path))
        assert out == {
            "2010-01": DirectionLabel.UP,
            "2010-02": DirectionLabel.FLAT,
            "2010-03": DirectionLabel.DOWN,
        }

    @pytest.mark.parametrize("month", ["2008-1", "2010-13", "2010-00", "2010-01-01"])
    def test_month_must_be_zero_padded_yyyy_mm(self, tmp_path, month):
        path = tmp_path / "oracle.csv"
        path.write_text(f"month,direction\n2010-02,up\n{month},down\n")
        with pytest.raises(ValidationError, match=f"oracle\\.csv:3: bad month '{month}'"):
            load_forecast_oracle_csv(str(path))

    def test_bad_direction(self, tmp_path):
        path = tmp_path / "oracle.csv"
        path.write_text("month,direction\n2010-01,sideways\n")
        with pytest.raises(ValidationError):
            load_forecast_oracle_csv(str(path))
