"""The in-module Nelder-Mead against scipy.optimize's, probe for probe.

`fusion._nelder_mead` ports scipy's unbounded, non-adaptive Nelder-Mead
with xatol 1e-3 and fatol 1e-10. On smooth functions, on step functions
whose values tie, from starts with zero components and at several
iteration caps, both must evaluate the same points in the same order and
return the same vertex, bit for bit. The cases together must take every
kind of step. `optimize_weights_scipy` keeps the weight search as it was
when it called scipy, and its probe trace must equal the engine's.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from scipy import optimize as sopt

from conftest import RECIPE_CONFIG, date_vote_masks
from test_acceptance import _fusion_sources, _recipe_panel
from mrpairs import fusion
from mrpairs.backtest import PositionSeries, compute_pnl
from mrpairs.errors import OptimizationDegenerateError
from mrpairs.fusion import OptimizerConfig, WeightVector, optimize_weights
from mrpairs.macro_signals import SignalSeries
from mrpairs.market_data import generate_synthetic_panel

MAX_ITERS = (0, 1, 2, 7, 200)


def _recorded(f):
    """`f` and the list of (point, value) pairs it is called with."""
    calls = []

    def recording(x):
        value = f(x)
        calls.append((np.array(x, dtype=float, copy=True), value))
        return value

    return recording, calls


def scipy_run(f, x0, max_iter):
    recording, calls = _recorded(f)
    result = sopt.minimize(
        recording,
        x0=np.array(x0, dtype=float),
        method="Nelder-Mead",
        options={"maxiter": max_iter, "xatol": 1e-3, "fatol": 1e-10, "disp": False},
    )
    return calls, result.x


def port_run(f, x0, max_iter):
    recording, calls = _recorded(f)
    x = fusion._nelder_mead(recording, np.array(x0, dtype=float), max_iter)
    return calls, x


def steps_taken(values, n):
    """The step of each iteration, read off the sequence of f values alone.

    Tracks only the simplex's sorted values: every step replaces the worst
    vertex but a shrink, which replaces all but the best. A step is named
    by the point that replaced the worst vertex, or "shrink".
    """
    fsim = sorted(values[: n + 1])
    rest = iter(values[n + 1 :])
    steps = []
    for fxr in rest:
        if fxr < fsim[0]:
            fxe = next(rest)
            steps.append("expansion" if fxe < fxr else "reflection")
            fsim[-1] = fxe if fxe < fxr else fxr
        elif fxr < fsim[-2]:
            steps.append("reflection")
            fsim[-1] = fxr
        else:
            outside = fxr < fsim[-1]
            fxc = next(rest)
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                steps.append("outside contraction" if outside else "inside contraction")
                fsim[-1] = fxc
            else:
                steps.append("shrink")
                fsim[1:] = [next(rest) for _ in range(n)]
        fsim.sort()
    return steps


def _smooth(n, rng):
    centre = rng.uniform(-1, 2, n)
    scale = rng.uniform(0.5, 3.0, n)
    return lambda x: float(np.sum(scale * (x - centre) ** 2))


def _rosenbrock(n, rng):
    return lambda x: float(np.sum(100 * (x[1:] - x[:-1] ** 2) ** 2 + (1 - x[:-1]) ** 2))


def _plateaus(n, rng):
    # Level sets of a bowl, cut into bands: whole regions of the simplex tie.
    centre = rng.uniform(0, 1, n)
    return lambda x: float(np.floor(6 * np.sum((x - centre) ** 2)))


def _stairs(n, rng):
    # Piecewise constant along each axis, as the APR of a weighted vote is.
    signs = rng.choice([-1.0, 1.0], n)
    return lambda x: float(np.sum(signs * np.round(4 * x)) + np.round(np.sum(x) ** 2))


FUNCTIONS = {
    "smooth": _smooth,
    "rosenbrock": _rosenbrock,
    "plateaus": _plateaus,
    "stairs": _stairs,
}


def _starts(n, rng):
    """A random start, one with zero components and the origin."""
    some_zero = rng.uniform(0, 1, n)
    some_zero[rng.permutation(n)[: max(1, n // 2)]] = 0.0
    return {"random": rng.uniform(-0.5, 1.5, n), "some zero": some_zero, "origin": np.zeros(n)}


def _cases():
    for n, (name, make) in itertools.product(range(2, 6), FUNCTIONS.items()):
        rng = np.random.default_rng([n, len(name)])
        f = make(n, rng)
        for start, x0 in _starts(n, rng).items():
            yield f"{name}-{n}d-{start}", f, x0


CASES = list(_cases())


@pytest.mark.parametrize("max_iter", MAX_ITERS)
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_port_probes_the_points_scipy_probes(case, max_iter):
    _, f, x0 = case
    expected, expected_x = scipy_run(f, x0, max_iter)
    got, got_x = port_run(f, x0, max_iter)
    assert len(got) == len(expected)
    assert np.array([p for p, _ in got]).tobytes() == np.array([p for p, _ in expected]).tobytes()
    assert got_x.tobytes() == expected_x.tobytes()
    if max_iter <= 1:
        assert len(got) == len(x0) + 1  # the initial simplex only


def test_the_cases_take_every_kind_of_step():
    taken = set()
    for _, f, x0 in CASES:
        calls, _ = port_run(f, x0, 200)
        taken.update(steps_taken([v for _, v in calls], len(x0)))
    assert taken == {
        "expansion", "reflection", "outside contraction", "inside contraction", "shrink",
    }


def test_steps_taken_reads_a_hand_trace():
    # n = 2: initial values 0, 1, 2, then one step of each kind.
    values = [0.0, 1.0, 2.0]
    values += [-1.0, -2.0]           # expansion: fxr < best, fxe < fxr -> -2, 0, 1
    values += [-1.0]                 # reflection: best <= fxr < second worst -> -2, -1, 0
    values += [-0.5, -0.5]           # outside contraction, tie kept -> -2, -1, -0.5
    values += [5.0, -0.7]            # inside contraction: fxcc < worst -> -2, -1, -0.7
    values += [5.0, 6.0, 0.2, 0.3]   # inside contraction fails; shrink probes n points
    assert steps_taken(values, 2) == [
        "expansion", "reflection", "outside contraction", "inside contraction", "shrink",
    ]


def optimize_weights_scipy(signal_series, panel, hedge_ratio, config=None, max_iter=200):
    """The weight search as it was when its simplex was scipy's."""
    if config is None:
        config = OptimizerConfig()
    masks = date_vote_masks(signal_series)
    dates = signal_series[0].dates
    n_sources = len(masks)
    fusion.check_grid_size(n_sources)
    probe_weights, probe_apr = [], []
    saw_active_probe = False

    def objective(raw):
        nonlocal saw_active_probe
        w = np.clip(np.asarray(raw, dtype=float), 0.0, 1.0)
        report = compute_pnl(panel, hedge_ratio, PositionSeries(dates, fusion._fuse(masks, w)))
        if np.any(report.daily_returns != 0.0):
            saw_active_probe = True
        probe_weights.append(w)
        probe_apr.append(report.apr)
        return report.apr

    ticks = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    mr_ticks = ticks[ticks >= config.mr_weight_floor]
    axes = [ticks] * (n_sources - 1) + [mr_ticks]
    baseline = np.zeros(n_sources)
    baseline[-1] = 1.0
    baseline_apr = objective(baseline)
    best_w, best_apr = baseline, baseline_apr
    for point in itertools.product(*axes):
        apr = objective(point)
        if apr > best_apr:
            best_w, best_apr = point, apr
    result = sopt.minimize(
        lambda w: -objective(w),
        x0=np.array(best_w, dtype=float),
        method="Nelder-Mead",
        options={
            "maxiter": max_iter,
            "xatol": 1e-3,
            "fatol": 1e-10,
            "disp": False,
        },
    )
    refined = np.clip(result.x, 0.0, 1.0)
    refined_apr = objective(refined)
    if refined_apr > best_apr:
        best_w, best_apr = refined, refined_apr
    if not saw_active_probe:
        raise OptimizationDegenerateError("every weight probe produced an all-zero return stream")
    return (
        WeightVector(tuple(float(w) for w in np.clip(best_w, 0.0, 1.0))),
        best_apr,
        baseline_apr,
        np.array(probe_weights),
        np.array(probe_apr),
    )


def _assert_same_search(sources, panel, hedge, config, max_iter=fusion.SIMPLEX_MAX_ITER):
    weights, apr, baseline_apr, probe_weights, probe_apr = optimize_weights_scipy(
        sources, panel, hedge, config, max_iter
    )
    result = optimize_weights(sources, panel, hedge, config)
    assert result.probe_weights.tobytes() == probe_weights.tobytes()
    assert result.probe_apr.tobytes() == probe_apr.tobytes()
    assert (result.weights, result.apr, result.baseline_apr) == (weights, apr, baseline_apr)
    return result


def test_acceptance_09_search_matches_scipy():
    panel = _recipe_panel(1)
    sources, hedge, _ = _fusion_sources(panel)
    result = _assert_same_search(sources, panel, hedge, OptimizerConfig())
    assert len(result.probe_apr) > 1 + 5**4 + 5  # the grid and beyond the simplex


def _random_sources(seed, n_days=400):
    """A synthetic pair, its hedge and four sources, the last mean reversion."""
    panel = generate_synthetic_panel(seed, dataclasses.replace(RECIPE_CONFIG, n_days=n_days))
    rng = np.random.default_rng(seed)
    hedge = np.array([1.0, -rng.uniform(0.2, 1.0)])
    future = np.append(np.diff(panel.prices[0] + hedge[1] * panel.prices[1]), 0.0)
    informed = np.where(rng.random(n_days) < 0.6, np.sign(future), -np.sign(future))
    sources = [SignalSeries(panel.dates, informed.astype(np.int8))]
    sources += [SignalSeries(panel.dates, rng.integers(-1, 2, n_days)) for _ in range(3)]
    return panel, hedge, sources


CONFIGS = {  # the weight-search config and the simplex's iteration cap
    "default": (OptimizerConfig(), fusion.SIMPLEX_MAX_ITER),
    "max_iter 5": (OptimizerConfig(), 5),
    "mr floor": (OptimizerConfig(mr_weight_floor=0.5), fusion.SIMPLEX_MAX_ITER),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("seed", range(3))
def test_random_four_source_searches_match_scipy(seed, config, monkeypatch):
    panel, hedge, sources = _random_sources(seed)
    config, max_iter = config
    monkeypatch.setattr(fusion, "SIMPLEX_MAX_ITER", max_iter)
    _assert_same_search(sources, panel, hedge, config, max_iter)


@pytest.mark.parametrize("max_iter", [0, 1])
def test_max_iter_0_and_1_probe_only_the_initial_simplex(max_iter, monkeypatch):
    panel, hedge, sources = _random_sources(0)
    monkeypatch.setattr(fusion, "SIMPLEX_MAX_ITER", max_iter)
    result = _assert_same_search(sources, panel, hedge, OptimizerConfig(), max_iter)
    grid = 1 + 5**4  # the baseline and the 0.25-step grid
    assert len(result.probe_apr) == grid + 6  # 4 + 1 vertices and the re-probe
