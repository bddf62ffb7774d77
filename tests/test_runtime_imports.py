"""Every module in `src/mrpairs/` imports only the standard library and numpy.

The package's one runtime dependency is numpy; the `test` extra adds
scipy, pytest and hypothesis. An import of anything else, even inside a
function that only one command calls, would make that command behave
differently, or fail, in an install without the extra. The check reads
each module's syntax tree, so it sees every static import wherever it
stands, and needs no install without the extra to run.
"""

import ast
import pathlib
import sys

from mrpairs import cli

SRC = pathlib.Path(cli.__file__).parent
RUNTIME = {"numpy"}


def _imports(path: pathlib.Path):
    """(line, module) of every absolute import in the module at `path`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_every_module_imports_only_the_standard_library_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    outside = [
        f"{path.name}:{line}: {name}"
        for path in modules
        for line, name in _imports(path)
        if name.partition(".")[0] not in sys.stdlib_module_names | RUNTIME
    ]
    assert outside == []
