"""The two homes of an error's rules.

`_ols.failure_error` is the one place a failed check's message becomes an
error, and so picks its class and exit code. `errors.about` is the one
place an error gains a `label: ` prefix on its way out, keeping its class.
"""

import numpy as np
import pytest

from mrpairs._ols import _RANK_DEFICIENT, failure_error
from mrpairs.errors import (
    CoverageError,
    DegenerateInputError,
    RankDeficientError,
    SingularityError,
    about,
)

_OTHERWISE = [SingularityError, DegenerateInputError]


@pytest.mark.parametrize("otherwise", _OTHERWISE)
def test_the_rank_message_is_rank_deficient_whatever_the_otherwise(otherwise):
    error = failure_error(_RANK_DEFICIENT, otherwise)
    assert type(error) is RankDeficientError and str(error) == _RANK_DEFICIENT
    assert type(failure_error(_RANK_DEFICIENT)) is RankDeficientError


@pytest.mark.parametrize("otherwise", _OTHERWISE)
@pytest.mark.parametrize(
    "message",
    ["zero eigenvector", "zero variance, z-scores undefined", "2 observations for 3 regressors"],
)
def test_any_other_message_gives_the_otherwise(message, otherwise):
    error = failure_error(message, otherwise)
    assert type(error) is otherwise and str(error) == message
    assert type(failure_error(message)) is SingularityError


@pytest.mark.parametrize("message", [_RANK_DEFICIENT, "constant spread has no reversion speed"])
def test_a_numpy_string_cell_becomes_a_plain_str(message):
    # the stacked steps hold their messages in numpy string arrays
    for cell in (np.array([message, ""])[0], np.where([True], message, "")[0]):
        assert type(cell) is np.str_
        error = failure_error(cell, DegenerateInputError)
        assert error.args == (message,) and type(error.args[0]) is str


@pytest.mark.parametrize(
    "cls, message",
    [
        (CoverageError, "no monthly signal covers 2008-04"),
        (RankDeficientError, _RANK_DEFICIENT),
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
