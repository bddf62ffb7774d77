import datetime as dt
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import estimate_half_life, portfolio_steps_one_by_one, price_panel, six_walks
from mrpairs import cointegration, unit_root
from mrpairs.backtest import trade_subset
from mrpairs.cointegration import (
    JohansenOutcome,
    enumerate_combinations,
    extract_hedge_ratio,
    johansen_test,
    scan_cointegration,
    select_var_lag,
    simulate_johansen_null_trace,
)
from mrpairs.errors import DegenerateInputError, ValidationError
from mrpairs.market_data import (
    CointegrationRecipe,
    PricePanel,
    SynthConfig,
    generate_synthetic_panel,
    trading_days,
)
from mrpairs.spread_dynamics import SpreadSeries, compute_spread
from mrpairs.unit_root import IntegrationOrder, simulate_adf_null_statistics

I1_PAIR = [IntegrationOrder.I1, IntegrationOrder.I1]


def _raise_singular(*args, **kwargs):
    raise DegenerateInputError("planted singularity")


class TestEnumerateCombinations:
    def test_seven_instruments_give_91_subsets(self):
        assert len(enumerate_combinations(7, 2, 4)) == 91

    def test_pairs_of_four(self):
        assert len(enumerate_combinations(4, 2, 2)) == 6

    def test_two_instruments(self):
        assert enumerate_combinations(2, 2, 4) == [(0, 1)]

    def test_lexicographic_and_deterministic(self):
        subsets = enumerate_combinations(4, 2, 3)
        assert subsets[:3] == [(0, 1), (0, 2), (0, 3)]
        assert subsets == enumerate_combinations(4, 2, 3)

    def test_min_size_below_two_rejected(self):
        with pytest.raises(ValidationError):
            enumerate_combinations(5, 1, 3)


def _simulate_var2(seed, T=1000):
    rng = np.random.default_rng(seed)
    a1, a2 = 0.2, 0.5
    y = np.zeros((T, 2))
    for t in range(2, T):
        y[t] = a1 * y[t - 1] + a2 * y[t - 2] + rng.standard_normal(2)
    return y


class TestSelectVarLag:
    def test_recovers_var2(self):
        assert select_var_lag(_simulate_var2(0), max_lag=6) == 2

    def test_white_noise_prefers_one(self):
        rng = np.random.default_rng(1)
        assert select_var_lag(rng.standard_normal((1000, 2)), max_lag=6) == 1

    def test_single_candidate(self):
        rng = np.random.default_rng(2)
        assert select_var_lag(rng.standard_normal((200, 2)), max_lag=1) == 1


class TestJohansenTest:
    def test_recipe_panel_rank_one(self, recipe_panel):
        var_lag = select_var_lag(recipe_panel, 5)
        out = johansen_test(recipe_panel, var_lag)
        assert out.rank == 1
        hedge = extract_hedge_ratio(out)
        assert hedge[0] == pytest.approx(1.0)
        assert hedge[1] == pytest.approx(-0.5, abs=0.05)

    def test_independent_walks_rank_zero(self, independent_panel):
        assert johansen_test(independent_panel, 1).rank == 0

    def test_identical_columns_singular(self, independent_panel):
        p = independent_panel
        dup = PricePanel(
            dates=p.dates,
            prices=np.vstack([p.prices[0], p.prices[0]]),
            instrument_ids=("A", "B"),
        )
        message = "^singular moment matrix in Johansen step$"
        with pytest.raises(DegenerateInputError, match=message):
            johansen_test(dup, 1)

    def test_width_bounds(self, independent_panel):
        wide = PricePanel(
            dates=independent_panel.dates,
            prices=np.vstack([independent_panel.prices] * 3)
            * np.arange(1, 7)[:, None],
            instrument_ids=tuple("ABCDEF"),
        )
        with pytest.raises(ValidationError):
            johansen_test(wide, 1)

    def test_outcome_invariants(self, recipe_panel):
        out = johansen_test(recipe_panel, 2)
        ev = out.eigenvalues
        assert np.all(ev >= 0) and np.all(ev < 1)
        assert np.all(np.diff(ev) <= 0)
        assert np.all(np.diff(out.trace_statistics) <= 0)
        # trace identity: -trace(r)/n == sum_{i>r} ln(1 - l_i)
        for r in range(len(ev)):
            assert -out.trace_statistics[r] / out.n_obs == pytest.approx(
                np.log(1.0 - ev[r:]).sum(), abs=1e-12
            )

    def test_scale_invariance(self, recipe_panel):
        p = recipe_panel
        scaled = PricePanel(
            dates=p.dates, prices=p.prices * 3.7, instrument_ids=p.instrument_ids
        )
        a = johansen_test(p, 2)
        b = johansen_test(scaled, 2)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-8)
        assert np.allclose(a.trace_statistics, b.trace_statistics, atol=1e-8)
        assert np.allclose(
            extract_hedge_ratio(a), extract_hedge_ratio(b), atol=1e-8
        )

    def test_column_permutation_equivariance(self, recipe_panel):
        p = recipe_panel
        swapped = p.subpanel([1, 0])
        h = extract_hedge_ratio(johansen_test(p, 2))
        h_swapped = extract_hedge_ratio(johansen_test(swapped, 2))
        # same vector up to the scale fixed by the normalization convention
        assert np.allclose(h_swapped / h_swapped[1], h[[1, 0]] / h[0], atol=1e-8)


class TestExtractHedgeRatio:
    def _outcome(self, rank):
        return JohansenOutcome(
            subset=("A", "B"),
            eigenvalues=np.array([0.3, 0.01]),
            eigenvectors=np.array([[2.0, 1.0], [-1.0, 1.0]]),
            trace_statistics=np.array([50.0, 1.0]),
            critical_values_95=np.array([18.12, 8.18]),
            rank=rank,
            vecm_lag=0,
            n_obs=100,
        )

    def test_max_eigenvalue_vector_normalized(self):
        assert extract_hedge_ratio(self._outcome(1)).tolist() == [1.0, -0.5]

    def test_rank_zero_raises(self):
        message = r"^subset \('A', 'B'\) has cointegration rank 0$"
        with pytest.raises(DegenerateInputError, match=message):
            extract_hedge_ratio(self._outcome(0))


def _walks_and_constant(T, seed=3):
    """A constant series, then three independent walks."""
    walks = 500.0 + np.cumsum(np.random.default_rng(seed).standard_normal((3, T)), 1)
    return PricePanel(
        dates=trading_days(dt.date(2008, 1, 2), T),
        prices=np.vstack([np.full(T, 250.0), walks]),
        instrument_ids=("K", "A", "B", "C"),
    )


class TestScan:
    def test_constant_series_skips_its_subsets(self):
        rows = scan_cointegration(_walks_and_constant(300))
        assert len(rows) == 11
        for row in rows:
            if "K" in row.subset:
                assert row.skipped_reason == "constant series"
                assert row.rank is None and row.top_eigenvalue is None
            else:
                assert row.skipped_reason in (None, "not all I(1)")

    def test_straight_line_skips_its_subsets_with_its_own_reason(self):
        panel = _walks_and_constant(300)
        line = PricePanel(
            dates=panel.dates,
            prices=np.vstack([panel.prices, 1000.0 + 0.5 * np.arange(300)]),
            instrument_ids=panel.instrument_ids + ("L",),
        )
        rows = scan_cointegration(line)
        assert len(rows) == 25
        for row in rows:
            if "K" in row.subset:
                assert row.skipped_reason == "constant series"
            elif "L" in row.subset:
                assert row.skipped_reason == "constant differences"
                assert row.rank is None and row.top_eigenvalue is None
        kept = [row for row in rows if "L" not in row.subset]
        for got, want in zip(kept, scan_cointegration(panel), strict=True):
            assert (got.subset, got.skipped_reason, got.rank) == (
                want.subset, want.skipped_reason, want.rank
            )
            assert got.top_eigenvalue == pytest.approx(want.top_eigenvalue, rel=1e-9)

    def test_a_panel_in_huge_units_skips_every_subset(self):
        # Walks quoted in units of 2^40: each series' unit-root fit fails its
        # rank check against the unit intercept column, so every subset is
        # skipped and none raises.
        panel = _walks_and_constant(300)
        walks = PricePanel(
            dates=panel.dates,
            prices=np.ldexp(panel.prices[1:], 40),
            instrument_ids=panel.instrument_ids[1:],
        )
        rows = scan_cointegration(walks)
        assert len(rows) == 4
        assert {row.skipped_reason for row in rows} == {"singular unit-root fit"}

    def test_panel_too_short_with_a_constant_series_still_raises(self):
        # Schwert's max lag for 15 points is 7, which needs 17 of them; the
        # constant series is classified first and is too short first.
        with pytest.raises(DegenerateInputError, match="series length 15 too short"):
            scan_cointegration(_walks_and_constant(15))

    # A failure that is none of the three with no unit-root test raises out
    # of the screen: at T = 15 the constant series is too short first; at
    # T = 40 with max lag 30 it takes its reason, and the first walk's fit
    # has too few observations.
    @pytest.mark.parametrize("T, max_lag, message", [
        (15, None, "series length 15 too short for max_lag 7"),
        (40, 30, "9 observations for 9 regressors"),
    ])
    def test_integration_orders_raises_any_other_degenerate_failure(self, T, max_lag, message):
        with pytest.raises(DegenerateInputError, match=f"^{message}$"):
            cointegration.integration_orders(_walks_and_constant(T), max_lag)

    def test_rows_in_enumeration_order_with_skips(self, recipe_panel):
        orders = [IntegrationOrder.I1, IntegrationOrder.I1]
        rows = scan_cointegration(recipe_panel, orders=orders, var_max_lag=3)
        assert len(rows) == 1
        assert rows[0].rank == 1
        assert rows[0].half_life_days == pytest.approx(10.0, rel=0.5)

    def test_not_all_i1_skipped(self, recipe_panel):
        orders = [IntegrationOrder.I0, IntegrationOrder.I1]
        rows = scan_cointegration(recipe_panel, orders=orders)
        assert rows[0].skipped_reason == "not all I(1)"
        assert rows[0].rank is None

    def test_singular_lag_selection_marks_the_row(self, independent_panel):
        p = independent_panel
        dup = PricePanel(
            dates=p.dates,
            prices=np.vstack([p.prices[0], p.prices[0]]),
            instrument_ids=("A", "B"),
        )
        rows = scan_cointegration(dup, orders=I1_PAIR)
        assert rows[0].skipped_reason == "singular"
        assert rows[0].rank is None

    def test_singular_johansen_marks_the_row(self, recipe_panel, monkeypatch):
        # The pair plus an independent walk give four subsets; the stacked
        # Johansen step reports the planted failure for (0, 2) alone.
        p = recipe_panel
        walk = 500.0 + np.cumsum(np.random.default_rng(5).standard_normal(p.n_dates))
        panel = PricePanel(
            dates=p.dates,
            prices=np.vstack([p.prices, walk]),
            instrument_ids=("A", "B", "C"),
        )
        orders = [IntegrationOrder.I1] * 3
        stack = cointegration._johansen_stack

        def planted(levels, subsets, var_lag, r_v=None):
            *out, failures = stack(levels, subsets, var_lag, r_v)
            marked = [s == (0, 2) for s in map(tuple, subsets)]
            return *out, ["planted" if hit else f for hit, f in zip(marked, failures)]

        clean = scan_cointegration(panel, orders=orders)
        monkeypatch.setattr(cointegration, "_johansen_stack", planted)
        rows = scan_cointegration(panel, orders=orders)
        assert [r.skipped_reason for r in rows] == [None, "singular", None, None]
        assert [r.subset for r in rows] == [
            ("A", "B"), ("A", "C"), ("B", "C"), ("A", "B", "C")
        ]
        for row, before in zip(rows, clean):
            if row.skipped_reason is None:
                assert repr(row) == repr(before)

    def test_scan_working_memory_is_bounded(self):
        # 375 subsets of a 10 x 1000 panel: the stacks are fit in chunks, so
        # the peak stays near the panel factors plus one chunk (about
        # 2.0 MB); one stack per group would peak near 21 MB.
        panel = generate_synthetic_panel(0, SynthConfig(
            n_walks=9, n_days=1000, noise_scale=1.0, start_price=1000.0,
            recipe=CointegrationRecipe(weights=(2.0,) + (0.0,) * 8),
        ))
        orders = [IntegrationOrder.I1] * 10
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = scan_cointegration(panel, orders=orders)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == 375 and sum(bool(r.rank) for r in rows) > 0
        assert peak < 4e6

    def test_width_above_four_fails_before_any_fit(
        self, independent_panel, monkeypatch
    ):
        monkeypatch.setattr(cointegration, "_fit_equal_width", _raise_singular)
        wide = PricePanel(
            dates=independent_panel.dates,
            prices=np.vstack([independent_panel.prices] * 3)
            * np.arange(1, 7)[:, None],
            instrument_ids=tuple("ABCDEF"),
        )
        with pytest.raises(ValidationError, match="width must be 2..4, got 5"):
            scan_cointegration(wide, max_size=5, orders=[IntegrationOrder.I1] * 6)

    @pytest.mark.parametrize("step", ["_hedge_rows", "zscore_rows", "half_life_rows"])
    def test_singular_portfolio_step_propagates(self, recipe_panel, monkeypatch, step):
        # Each stacked step of the portfolio tail fails every row it is given.
        real = getattr(cointegration, step)

        def planted(rows):
            out, failures = real(rows)
            return out, np.full(len(failures), "planted singularity")

        monkeypatch.setattr(cointegration, step, planted)
        with pytest.raises(DegenerateInputError, match="^planted singularity$") as info:
            scan_cointegration(recipe_panel, orders=I1_PAIR)
        assert type(info.value) is DegenerateInputError


# A 4 x 60 panel whose spreads fail each portfolio step: B = A + 5 exactly, so
# the vector (1, -1) gives a constant spread, and D repeats C but on its last
# day, so (1, -1) gives a spread that is constant but for its last value.
def _tail_panel(T=60):
    rng = np.random.default_rng(11)
    a = 100.0 + np.cumsum(rng.choice([-1.0, 1.0], T))
    c = 200.0 + np.cumsum(rng.standard_normal(T))
    d = c.copy()
    d[-1] += 1.0
    prices = np.array([a, a + 5.0, c, d])
    return PricePanel(trading_days(dt.date(2008, 1, 2), T), prices, tuple("ABCD"))


_OK, _FLAT, _ZERO, _DEFICIENT = (
    ((0, 2), (1.0, -0.4)), ((0, 1), (2.0, -2.0)), ((1, 3), (0.0, 0.0)),
    ((2, 3), (-3.0, 3.0)),
)
_TAIL_CASES = {
    "no failure": (60, [_OK, _OK]),
    "zero eigenvector, then zero variance": (60, [_OK, _ZERO, _FLAT, _OK]),
    "zero variance, then zero eigenvector": (60, [_OK, _FLAT, _ZERO]),
    "zero variance": (60, [_FLAT]),
    "rank-deficient half-life fit": (60, [_OK, _DEFICIENT, _FLAT]),
    "fewer than 30 dates": (20, [_OK, _OK]),
    "fewer than 30 dates after a zero eigenvector": (20, [_ZERO, _OK]),
}


class TestPortfolioTail:
    @pytest.mark.parametrize("budget", [1, 1 << 40])
    @pytest.mark.parametrize("case", sorted(_TAIL_CASES))
    def test_matches_the_steps_one_subset_at_a_time(self, monkeypatch, budget, case):
        T, rows = _TAIL_CASES[case]
        panel = _tail_panel(T)
        subsets = np.array([s for s, _ in rows])
        vectors = np.array([v for _, v in rows])
        monkeypatch.setattr(cointegration, "_CHUNK_BYTES", budget)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                want = portfolio_steps_one_by_one(panel, subsets, vectors)
            except Exception as exc:
                with pytest.raises(type(exc)) as info:
                    cointegration._portfolios(panel, subsets, vectors)
                assert (type(info.value), str(info.value)) == (type(exc), str(exc))
                return
            got = cointegration._portfolios(panel, subsets, vectors)
        assert case == "no failure"
        for portfolio, (hedge, values, zscores, half_life) in zip(got, want, strict=True):
            assert portfolio.hedge_ratio.tobytes() == hedge.tobytes()
            assert portfolio.spread.values.tobytes() == values.tobytes()
            assert portfolio.spread.zscores.tobytes() == zscores.tobytes()
            assert repr(portfolio.half_life_days) == repr(half_life)

    def test_positions_carry_the_subset_panels_calendar(self, recipe_panel):
        ids = list(recipe_panel.instrument_ids)
        sub, _, _, positions = trade_subset(recipe_panel, ids, 10, None, 1.0, 0.0)
        assert positions.dates is sub.dates

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    def test_every_ranked_scan_row_matches_the_steps_one_subset_at_a_time(
        self, monkeypatch, budget
    ):
        panel = price_panel(six_walks(0, 600))
        monkeypatch.setattr(cointegration, "_CHUNK_BYTES", budget)
        lags = cointegration.VarLagSelector(panel)
        checked = 0
        for m in (2, 3, 4):
            subsets = enumerate_combinations(panel.n_instruments, m, m)
            fits = cointegration._fit_equal_width(panel, lags, subsets, 10)
            ranked = [(s, f) for s, f in zip(subsets, fits)
                      if not isinstance(f, str) and f[0].rank]
            want = portfolio_steps_one_by_one(
                panel, [s for s, _ in ranked], [f[0].eigenvectors[:, 0] for _, f in ranked]
            )
            for (_, (_, portfolio)), (hedge, values, zscores, half_life) in zip(ranked, want):
                assert portfolio.hedge_ratio.tobytes() == hedge.tobytes()
                assert portfolio.spread.values.tobytes() == values.tobytes()
                assert portfolio.spread.zscores.tobytes() == zscores.tobytes()
                assert repr(portfolio.half_life_days) == repr(half_life)
                checked += 1
        assert checked >= 3


def _fit_whole(panel, var_max_lag, orders=None):
    """The fit of all of `panel`'s columns as one subset, by the scan's path."""
    columns = [tuple(range(panel.n_instruments))]
    ((reason, fit),) = cointegration._fit_subsets(panel, columns, var_max_lag, None, orders)
    assert reason is None
    return fit


class TestOneSubsetFit:
    def test_portfolio_is_the_hedge_spread_half_life_chain(self, recipe_panel):
        outcome, portfolio = _fit_whole(recipe_panel, var_max_lag=10)
        assert outcome.rank == 1
        assert np.array_equal(portfolio.hedge_ratio, extract_hedge_ratio(outcome))
        assert isinstance(portfolio.spread, SpreadSeries)
        expected = compute_spread(recipe_panel, portfolio.hedge_ratio)
        assert np.array_equal(portfolio.spread.zscores, expected.zscores)
        assert portfolio.half_life_days == estimate_half_life(expected.values)

    def test_rank_zero_has_no_portfolio(self, independent_panel):
        outcome, portfolio = _fit_whole(independent_panel, var_max_lag=10)
        assert outcome.rank == 0
        assert portfolio is None

    def test_lag_capped_by_subset_length(self, recipe_panel):
        short = PricePanel(
            dates=recipe_panel.dates[:40],
            prices=recipe_panel.prices[:, :40],
            instrument_ids=recipe_panel.instrument_ids,
        )
        # (40 - 30) // 2 = 5 is the longest lag select_var_lag accepts here
        outcome, _ = _fit_whole(short, var_max_lag=10, orders=I1_PAIR)
        assert outcome.vecm_lag <= 4

    def test_lag_capped_so_the_top_candidate_lag_can_be_fit(self, recipe_panel):
        short = PricePanel(
            dates=recipe_panel.dates[:100],
            prices=recipe_panel.prices[:, :100],
            instrument_ids=recipe_panel.instrument_ids,
        )
        # Max lag (100 - 30) // 2 = 35 would fit every candidate lag p on
        # 65 observations, too few for 1 + 2p regressors from p = 32 on;
        # (100 - 2) // 3 = 32 leaves 68 observations for at most 65.
        outcome, _ = _fit_whole(short, var_max_lag=40, orders=I1_PAIR)
        assert outcome.vecm_lag <= 31
        (row,) = scan_cointegration(short, var_max_lag=40, orders=I1_PAIR)
        assert row.skipped_reason is None
        assert row.rank == outcome.rank


class TestNullTraceSimulation:
    @pytest.mark.parametrize("sample_size", [50, 500])
    def test_dim_one_is_the_squared_df_ratio(self, sample_size):
        # 4001 draws span several batches of the shared walk generator; with
        # one common trend the trace is n*log1p(t^2/(n-2)) of the walk's
        # lag-0 Dickey-Fuller t-ratio.
        trace = simulate_johansen_null_trace(4001, sample_size, dim=1, seed=7)
        t = simulate_adf_null_statistics(4001, sample_size, seed=7)
        n = sample_size - 1
        assert trace.shape == (4001,)
        np.testing.assert_allclose(trace, n * np.log1p(t**2 / (n - 2)), rtol=1e-12)

    def test_batch_size_does_not_change_the_statistics(self, monkeypatch):
        # The walks are drawn row by row from one stream and reduced row by
        # row, so a batch of 256 walks gives what a batch of 4000 gives;
        # 8193 draws span three batches of 4000 and 33 of 256, and the 600
        # dim-2 draws one batch of 4000 and three of 256.
        runs = []
        for batch in (4000, 256):
            monkeypatch.setattr(unit_root, "_NULL_BATCH", batch)
            runs.append((
                simulate_adf_null_statistics(8193, 100, seed=5),
                simulate_johansen_null_trace(8193, 100, dim=1, seed=5),
                simulate_johansen_null_trace(600, 100, dim=2, seed=5),
            ))
        for big, small, n_draws in zip(*runs, (8193, 8193, 600)):
            assert big.shape == (n_draws,) and np.array_equal(big, small)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_batched_null_equals_the_per_draw_loop(self, dim):
        # The loop the batched null replaced: one walk per draw from the
        # same stream, each fit as a stack of one. 300 draws span two
        # batches of 256 walks.
        rng = np.random.default_rng(2)
        loop = np.empty(300)
        for i in range(300):
            y = np.cumsum(rng.standard_normal((120, dim)), axis=0)
            _, _, trace, _, (failure,) = cointegration._johansen_stack(
                y, np.arange(dim)[None], 1
            )
            assert failure is None
            loop[i] = trace[0, 0]
        batched = simulate_johansen_null_trace(300, 120, dim=dim, seed=2)
        assert np.array_equal(batched, loop)

    @pytest.mark.parametrize(
        "n_draws, sample_size, dim, message",
        [
            (0, 1000, 2, "Monte Carlo needs at least 1 draw, got 0"),
            (-3, 1000, 3, "Monte Carlo needs at least 1 draw, got -3"),
            (100, 3, 2, "Monte Carlo sample size must be at least 4, got 3"),
            (100, 1000, 0, "Monte Carlo dimension must be at least 1, got 0"),
            (100, 1000, -1, "Monte Carlo dimension must be at least 1, got -1"),
            (10, 20, 2, "Monte Carlo sample size must be at least 32 for dimension 2, got 20"),
            (10, 33, 4, "Monte Carlo sample size must be at least 34 for dimension 4, got 33"),
            (10, 16385, 2, "Monte Carlo sample size must be at most 16384 for dimension 2 "
             "(a batch of 256 walks in 64 MiB), got 16385"),
        ],
    )
    def test_every_dim_checks_the_sizes(
        self, monkeypatch, n_draws, sample_size, dim, message
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("walks drawn before the sizes were checked")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        with pytest.raises(ValidationError) as info:
            simulate_johansen_null_trace(n_draws, sample_size, dim=dim, seed=0)
        assert str(info.value) == message

    @pytest.mark.parametrize("dim", [2, 4])
    def test_shortest_johansen_sample_runs(self, dim):
        # dim + 30 points is what the VAR(1) fit of each draw accepts
        trace = simulate_johansen_null_trace(3, dim + 30, dim=dim, seed=0)
        assert trace.shape == (3,) and np.all(np.isfinite(trace))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_same_seed_same_draws(self, dim):
        a = simulate_johansen_null_trace(20, 120, dim=dim, seed=3)
        b = simulate_johansen_null_trace(20, 120, dim=dim, seed=3)
        assert np.array_equal(a, b)

    def test_dim_two_finite_and_positive(self):
        trace = simulate_johansen_null_trace(6, 200, dim=2, seed=1)
        assert trace.shape == (6,)
        assert np.all(np.isfinite(trace)) and np.all(trace > 0)
