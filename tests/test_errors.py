"""The two homes of an error's rules, and the rule for an error class.

`_ols.failure_error` is the one place a failed check's message becomes an
error: a `DegenerateInputError` whose message, a plain str, tells the
check apart. `errors.about` is the one place an error gains a `label: `
prefix on its way out, keeping its class. A class in `errors.py` sets an
exit code or is named in an `except` clause in `src/`; a `raise` alone
does not keep one, as its message tells the failure apart.
"""

import ast
import pathlib

import numpy as np
import pytest

from mrpairs import errors
from mrpairs._ols import _RANK_DEFICIENT, failure_error
from mrpairs.errors import DegenerateInputError, ValidationError, about

ERRORS = pathlib.Path(errors.__file__)


def _caught():
    """Every name an `except` clause in `src/` catches, bare or dotted."""
    names = set()
    for path in sorted(ERRORS.parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                for name in ast.walk(node.type):
                    if isinstance(name, ast.Name):
                        names.add(name.id)
                    elif isinstance(name, ast.Attribute):
                        names.add(name.attr)
    return names


def _classes():
    """Each class `errors.py` defines, and whether its body sets `exit_code`."""
    for node in ast.parse(ERRORS.read_text()).body:
        if isinstance(node, ast.ClassDef):
            targets = [t for item in node.body if isinstance(item, ast.Assign)
                       for t in item.targets]
            yield node.name, any(getattr(t, "id", None) == "exit_code" for t in targets)


def test_every_error_class_sets_an_exit_code_or_is_caught():
    caught = _caught()
    assert [name for name, sets in _classes() if not (sets or name in caught)] == []


def test_the_check_sees_exit_codes_and_except_clauses():
    setters = {name for name, sets in _classes() if sets}
    assert setters == {"PipelineError", "ValidationError", "DegenerateInputError"}
    caught = _caught()
    assert {"PipelineError", "DegenerateInputError"} <= caught
    assert "LinAlgError" in caught  # as `except np.linalg.LinAlgError`
    assert "ValidationError" in caught  # only as `except (ValueError, ValidationError)`


@pytest.mark.parametrize(
    "message",
    [_RANK_DEFICIENT, "zero eigenvector", "zero variance, z-scores undefined",
     "2 observations for 3 regressors"],
)
def test_every_message_is_degenerate_input(message):
    error = failure_error(message)
    assert type(error) is DegenerateInputError and str(error) == message


@pytest.mark.parametrize("message", [_RANK_DEFICIENT, "constant spread has no reversion speed"])
def test_a_numpy_string_cell_becomes_a_plain_str(message):
    # the stacked steps hold their messages in numpy string arrays
    for cell in (np.array([message, ""])[0], np.where([True], message, "")[0]):
        assert type(cell) is np.str_
        error = failure_error(cell)
        assert error.args == (message,) and type(error.args[0]) is str


@pytest.mark.parametrize(
    "cls, message",
    [
        (ValidationError, "no monthly signal covers 2008-04"),
        (DegenerateInputError, _RANK_DEFICIENT),
    ],
)
def test_about_prefixes_the_label_and_keeps_the_class(cls, message):
    cause = cls(message)
    with pytest.raises(cls) as caught:
        with about("indicator 'M2'"):
            raise cause
    assert type(caught.value) is cls
    assert str(caught.value) == f"indicator 'M2': {message}"
    assert caught.value.__cause__ is cause


def test_about_lets_an_error_outside_the_engine_pass_as_it_is():
    # `cli.main` prints an OSError as `ERR:io:<error>`, with no label
    error = FileNotFoundError(2, "No such file or directory", "m1.csv")
    with pytest.raises(FileNotFoundError) as caught:
        with about("m1.csv"):
            raise error
    assert caught.value is error
    assert str(caught.value) == "[Errno 2] No such file or directory: 'm1.csv'"
