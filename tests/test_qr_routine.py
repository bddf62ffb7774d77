"""The engine gets every R factor from one routine, `_ols.r_factor`.

`np.linalg.qr` copies its input and allocates a buffer of its size on
every call, where `r_factor` factors a design, or a stack of them, in
place and bit-equal to it. The one call left is the half-life fit's,
which reads Q as well as R. The check reads each module's syntax tree,
so it sees every call wherever it stands.
"""

import ast
import pathlib

from mrpairs import cli

SRC = pathlib.Path(cli.__file__).parent


def _calls(node: ast.AST, function: str):
    """The enclosing function's name for each `linalg.qr` call under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call) and ast.unparse(child.func).endswith("linalg.qr"):
            yield function
        defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        yield from _calls(child, child.name if defines else function)


def qr_calls() -> list[str]:
    """`module.function` of every `np.linalg.qr` call in `src/mrpairs/`."""
    return [
        f"{path.stem}.{function}"
        for path in sorted(SRC.glob("*.py"))
        for function in _calls(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    ]


def test_only_the_half_life_fit_calls_numpy_qr():
    assert qr_calls() == ["spread_dynamics.half_life_rows"]
