"""Every name `src/mrpairs/` defines is read by `src/mrpairs/` itself.

A name counts as read where `src/` loads it: as a bare name, or as an
attribute (`x.name`). The names checked are every top-level function,
class and constant, every method but the dunder ones, and every dataclass
and NamedTuple field. `run` calls each `cmd_<command>` by a name built from
`COMMANDS`, so those count as read through it.

The check matches attribute names, not the types they are read from, so it
is coarse: a field is taken as read wherever any object's attribute of
that name is. A field named `subset` passes behind the reads of
`ScanRow.subset` and `JohansenOutcome.subset`, as the unread
`CointegratedPortfolio.subset` once did. A name that only tests read, and
that no allowed entry below explains, fails it. An entry kept for the
benchmark must name an attribute that `perfbench/workloads.py` loads: a
name that the benchmark's tracer only wraps runs in no workload.
"""

import ast
import pathlib

from mrpairs import cli

SRC = pathlib.Path(cli.__file__).parent
WORKLOADS = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"

# Names nothing in `src/` reads, each with why it stays. An entry that is read
# again, or is gone, fails the check, so the list only shrinks.
ALLOWED = {
    "cointegration.select_var_lag": "perfbench/ calls it (ROADMAP items 1 and 2)",
    "cointegration.johansen_test": "perfbench/ calls it (ROADMAP items 1 and 2)",
    "market_data.generate_synthetic_panel": "perfbench/ calls it (ROADMAP items 1 and 2)",
    "macro_signals.train_direction_classifier": "perfbench/ calls it (ROADMAP items 1 and 2)",
    "cointegration.extract_hedge_ratio": "perfbench/ calls it (ROADMAP items 1 and 2)",
    "spread_dynamics.compute_spread": "perfbench/ calls it (ROADMAP items 1 and 2)",
    "fusion.ProbeRecord.probe_index": "perfbench/ reads it (ROADMAP items 1 and 2)",
    "cli._Parser.error": "argparse calls it",
    "cointegration.JohansenOutcome.trace_statistics": "the run's reports (ROADMAP item 5)",
    "cointegration.JohansenOutcome.critical_values_95": "the run's reports (ROADMAP item 5)",
    "cointegration.JohansenOutcome.vecm_lag": "the run's reports (ROADMAP item 5)",
    "cointegration.JohansenOutcome.n_obs": "the run's reports (ROADMAP item 5)",
    "unit_root.AdfOutcome.chosen_lag": "the run's reports (ROADMAP item 5)",
    "unit_root.AdfOutcome.critical_value_95": "the run's reports (ROADMAP item 5)",
}


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple, whose class-level annotations are fields."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    bases = decorators + node.bases
    return any(getattr(b, "id", getattr(b, "attr", None)) in ("dataclass", "NamedTuple")
               for b in bases)


def _defined(module: str, tree: ast.Module):
    """(qualified name, name) of everything the check covers in one module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("__"):
                        yield f"{module}.{name.id}", name.id
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                yield f"{module}.{node.name}.{item.name}", item.name
            elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                  and _is_record(node)):
                yield f"{module}.{node.name}.{item.target.id}", item.target.id


def _unread():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = {"cmd_" + command.replace("-", "_") for command in cli.COMMANDS}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    defined = {q: name for module, tree in trees.items() for q, name in _defined(module, tree)}
    return defined, {q for q, name in defined.items() if name not in read}


def test_every_name_src_defines_is_read_by_src_or_allowed():
    _, unread = _unread()
    assert sorted(unread - set(ALLOWED)) == []
    stale = sorted(set(ALLOWED) - unread)
    assert stale == [], "read again or gone: take these off ALLOWED"


def test_each_benchmark_entry_names_what_a_workload_loads():
    tree = ast.parse(WORKLOADS.read_text())
    loaded = {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for name, why in ALLOWED.items():
        if why.startswith("perfbench/"):
            assert name.rsplit(".", 1)[1] in loaded, name


def test_the_check_sees_each_kind_of_name():
    defined, _ = _unread()
    for name in ("cli.run", "cli.RunConfig", "cli.EXIT_OK", "cli.RunConfig.optimizer",
                 "cli.RunConfig.seed", "backtest.Metrics.apr", "cli._Parser.error"):
        assert name in defined, name
    assert "cli.RunConfig.__post_init__" not in defined
