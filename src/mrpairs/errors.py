"""Exception hierarchy shared across the engine.

Every error carries a CLI exit code: 2 for validation problems,
3 for numerical degeneracies, 4 for I/O failures. `about` is the one way an
error gains context (an indicator, a file) on its way out.

A class here sets an exit code; every other kind of failure is told apart
by its message alone.
"""

import contextlib


class PipelineError(Exception):
    """Base class for all engine errors."""

    exit_code = 2


class ValidationError(PipelineError):
    """Bad input: malformed files, invalid parameters, broken invariants."""

    exit_code = 2


class DegenerateInputError(PipelineError):
    """Numerically degenerate input (zero variance, constant series, ...)."""

    exit_code = 3


@contextlib.contextmanager
def about(label: str):
    """Prefix `label: ` to the message of an engine error raised inside,
    keeping its class; any other exception passes as it is."""
    try:
        yield
    except PipelineError as exc:
        raise type(exc)(f"{label}: {exc}") from exc
