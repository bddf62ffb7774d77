"""Every file the CLI writes, pinned byte for byte.

Each workspace is written into a fresh directory, and every command runs
from there with relative paths and a relative `--out`, so `manifest.json`
(which records the paths) is pinned too. A refactor that keeps the
outputs as they were keeps this table; a change that moves an output on
purpose re-pins the file it moves and says why.
"""

import dataclasses
import hashlib
import os

import numpy as np
import pytest

from conftest import RECIPE_CONFIG, write_monthly_csv, write_price_csv
from mrpairs import cli
from mrpairs.market_data import CointegrationRecipe, generate_synthetic_panel

# Small Monte Carlo sizes: `verify-critical-values` runs in milliseconds.
_MC = "mc_draws = 20\nmc_adf_sample_size = 50\nmc_johansen_sample_size = 50\n"


def _write_prices(panel):
    return "".join(
        f"price.{iid} = {write_price_csv(f'{iid}.csv', panel.dates, closes)}\n"
        for iid, closes in zip(panel.instrument_ids, panel.prices)
    )


def _months(panel, before=0):
    """As YYYY-MM, every month from `before` months ahead of the panel's
    first to its last."""
    first = panel.dates[0].year * 12 + panel.dates[0].month - 1 - before
    last = panel.dates[-1].year * 12 + panel.dates[-1].month - 1
    return [f"{k // 12:04d}-{k % 12 + 1:02d}" for k in range(first, last + 1)]


def _oracle_pair():
    """The 1500-day recipe pair and a forecast oracle cycling up, down, flat."""
    panel = generate_synthetic_panel(1, RECIPE_CONFIG)
    with open("oracle.csv", "w", encoding="utf-8") as fh:
        fh.write("month,direction\n")
        for i, month in enumerate(_months(panel)):
            fh.write(f"{month},{('up', 'down', 'flat')[i % 3]}\n")
    return _write_prices(panel) + "macro_oracle.CPI = oracle.csv\n", "SYN1,SYN2"


def _four_with_indicator():
    """Three walks and SYN4 = 2 SYN1 + OU over 500 days, and a monthly
    indicator from 24 months before the panel, so the classifier trains
    on it and its held-out months fall inside the panel."""
    recipe = CointegrationRecipe(weights=(2.0, 0.0, 0.0))
    panel = generate_synthetic_panel(
        3, dataclasses.replace(RECIPE_CONFIG, n_walks=3, n_days=500, recipe=recipe)
    )
    months = _months(panel, before=24)
    values = np.cumsum(np.random.default_rng(4).standard_normal(len(months)))
    write_monthly_csv("m1.csv", months, values)
    return _write_prices(panel) + "macro.M1 = m1.csv\n", "SYN1,SYN4"


WORKSPACES = {
    "oracle pair": _oracle_pair,
    "four instruments, trained indicator": _four_with_indicator,
}

# sha256 of every file in `out/` after the six commands, by workspace.
GOLDEN = {
    "oracle pair": {
        "backtest.csv":
            "8e17b4e97270f58f958633707784364d9376c47c09c6843884017353c2111407",
        "backtest_summary.csv":
            "e89bac41a3ff2ab582e348478f25afd5f780c3d963f1ee19bf94be836d5f18d6",
        "critical_values.csv":
            "577c6ebaab41bfeff58edb41ecfbddaf9530d7d55b01a35a635976e804e701e0",
        "forecast_CPI.csv":
            "8dac97ea7bd9dd05baa2c739f763366aacf74af89cd0fce213c6dfa2749d889c",
        "manifest.json":
            "cb92e4806194a4a3a9c03cfcce6529be4698c1235cfee15fec382ede2d642336",
        "optimization_summary.csv":
            "804127a127711b3ea17b5182e2aaeef305eb56b863f665733f3b20400f2c6336",
        "optimization_trace.csv":
            "a1fffd7527fa0d56d47d59a8ea3577a90b666cdf23cc5cdf592f5c9bb4684aa4",
        "optimized_backtest_summary.csv":
            "e89bac41a3ff2ab582e348478f25afd5f780c3d963f1ee19bf94be836d5f18d6",
        "returns.csv":
            "31764e4f258a8fa6999fba2081bde7f87d156530de2d0e632190b2cf8d7da01a",
        "returns.svg":
            "bee21c61e558821e109c43c04525a73a34c6a6b9adf446cc5b6f72a62b261528",
        "scan_report.csv":
            "ba4b1a18a0194b1a5669e9119692dfca06c8604fe4c23fd8752bc4435c794556",
        "spread.csv":
            "58c0fa3e747db093fe1cb1a4b233d30ec65ffd9a83d379a03b36f131f16da552",
        "spread.svg":
            "cb392db1143dc195e6dc9aa05bae3d9e20c89d5dcfaa7eccbd6891c2989e289b",
        "zscore_positions.csv":
            "25ff8616e50efef2c3fa5e0ee170b2b6ecaf73e0e85b1040e1b1bdfc185cb72d",
        "zscore_positions.svg":
            "a37eeea6d6b6ca6d6a12c732d80e2ef51e9db7d40d7156db854f78d343e65671",
    },
    "four instruments, trained indicator": {
        "backtest.csv":
            "27a8d63f9e4111d00719d7ae792c7ee6d45fcbb229f97206bb80d64016016b5f",
        "backtest_summary.csv":
            "027a3392c1294598c4f1929e8b0b3f5cfdadb15ba27d36520ffe84605ad7b3ae",
        "critical_values.csv":
            "577c6ebaab41bfeff58edb41ecfbddaf9530d7d55b01a35a635976e804e701e0",
        "forecast_M1.csv":
            "6d3bd01620f28ef2c7d56a2c37b2bace9362bcbf654b49821bb23628485a1aa9",
        "manifest.json":
            "02ed9d14fc8230cae149b534b2a24b378bfaade89cd0ab99a2e618b9f3a8b48d",
        "optimization_summary.csv":
            "16e95031f56f3750e1a366f67423cfaf542673fa9a84c14f62a21744a6436dc4",
        "optimization_trace.csv":
            "641384e1490de3dfa5deb8348a60c0f72792526f21f9c35248c4d41bb7d2c60b",
        "optimized_backtest_summary.csv":
            "d409b723c3cc6c3744f1d5074d2f680b158698ccc99dd36364804ea7520efb6c",
        "returns.csv":
            "a705a8480061b5a9aa0a03ea0af9891a9d6751f510d5940ce3ab88dca69029cb",
        "returns.svg":
            "c43ad17288b67ef513d18841b3edce6dc8838b001af7b78fbb82978838f624aa",
        "scan_report.csv":
            "123cdc629b6c4e702eaf8882322f01aefcd362f6d112d93753b5e57363b6b148",
        "spread.csv":
            "4760a5391893e87dad9e035dcd1a4962cc8296f4a81ffc404a0bb0131af2ed3b",
        "spread.svg":
            "0c53968af369fb3d5048d0dbe8c6922b9a9acaffd77fbaaddc08ba27d5f2fe8e",
        "zscore_positions.csv":
            "141609e9098d262606d45fa4b2f124dcb84361729cf6b22ec45e10fd657335c0",
        "zscore_positions.svg":
            "34823a2f36e8932ec0fdc451e1c0cb7bcef341af6cd85a053fb0aff4e3a8bce8",
    },
}


@pytest.mark.parametrize("name", list(WORKSPACES))
def test_every_output_file_is_byte_identical_to_the_pinned_one(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    config, subset = WORKSPACES[name]()
    with open("run.cfg", "w", encoding="utf-8") as fh:
        fh.write(config + _MC)
    for command, subset_rule in cli.COMMANDS.items():
        argv = [command, "--config", "run.cfg", "--out", "out"]
        if subset_rule is not None:  # `report` too, so its manifest holds a backtest
            argv += ["--subset", subset]
        assert cli.run(argv) == 0
    digests = {}
    for file in os.listdir("out"):
        with open(os.path.join("out", file), "rb") as fh:
            digests[file] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == GOLDEN[name]
