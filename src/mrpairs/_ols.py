"""Least squares via QR decomposition.

Normal equations square the condition number; lagged-difference regressor
blocks are frequently near-collinear, so everything here goes through a
thin QR factorization and explicit rank checks.

`r_factor` gives the R factor of one large design (an ADF test's max-lag
design, the scan's panel-wide W and V) by overwriting it with one LAPACK
`dgeqrf` call, bit-equal to `np.linalg.qr(a, mode="r")`. That wrapper
copies its input and allocates a design-sized buffer on every call; for
one design, the copies and their fresh pages cost about as much as the
factorization. Stacks of small slices still go through `np.linalg.qr`,
which reuses one buffer for the whole stack: a per-slice in-place `dgeqrf`
is bit-equal to it and no faster on the scan's 0.5 MB chunks.

Every fit of Y on a design of n rows and k regressors makes two checks,
in this order: n > k, else "<n> observations for <k> regressors"; then
the one rank rule, `rank_deficient`, on the |R_jj| of the design's R
factor, else "regressor matrix is rank deficient". `failure_error`
raises the first message as `DegenerateInputError`; a caller tells the
rank rule apart by that message, as `unit_root.NO_TEST` does.
`nested_residual_moments` takes the R factor of [X | Y], or a stack of
them, and gives the residual moments of Y on column prefixes of X, with
the outcome of each check as a message rather than a raise, so one
failing fit in a stack does not stop the others. It serves VAR lag
selection (every prefix; R from column subsets of a panel-wide factor)
and the Johansen step (the one prefix Z; Y holds both dY_t and Y_{t-p}).
ADF lag selection needs only each prefix's RSS, which it reads off its
own R factor; it takes the same checks from `prefix_failures` and
`first_failures`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.linalg import lapack_lite

from .errors import DegenerateInputError

# Relative tolerance on the diagonal of R for declaring rank deficiency.
_RANK_RTOL = 1e-10
_RANK_DEFICIENT = "regressor matrix is rank deficient"
VAR_SPARE_OBS = 30  # observations a VAR fit of m series at lag p keeps beyond m*p


def _too_few(n: int, k: int) -> str:
    return f"{n} observations for {k} regressors"


def r_factor(a: np.ndarray) -> np.ndarray:
    """The R factor of a thin QR of `a`, overwriting `a`.

    `a` must be a writeable, column-major float64 matrix; it is factored in
    place with one `dgeqrf` call and holds LAPACK's Householder vectors
    after. The workspace is the size LAPACK asks for, at least max(1, n),
    as `np.linalg.qr` takes it, so R is bit-equal to that function's; past
    128 columns dgeqrf takes its blocked path, whose rounding depends on
    that size.
    """
    if not (
        isinstance(a, np.ndarray)
        and a.ndim == 2
        and a.dtype == np.float64
        and a.flags.f_contiguous
        and a.flags.writeable
    ):
        raise ValueError("r_factor needs a writeable column-major float64 matrix")
    m, n = a.shape
    lda, tau, query = max(1, m), np.empty(min(m, n)), np.empty(1)
    # lapack_lite takes C-contiguous arrays; a's transpose is a's memory.
    lapack_lite.dgeqrf(m, n, a.T, lda, tau, query, -1, 0)
    lwork = max(1, n, int(query[0]))
    info = lapack_lite.dgeqrf(m, n, a.T, lda, tau, np.empty(lwork), lwork, 0)["info"]
    if info != 0:
        raise ValueError(f"dgeqrf failed with info {info}")
    return np.triu(a[: min(m, n)])


def rank_deficient(low: np.ndarray | float, high: np.ndarray | float) -> np.ndarray:
    """The rank rule, for regressors whose R factor has |R_jj| from `low` to
    `high`: deficient where low <= _RANK_RTOL * max(high, 1), or is nan."""
    return ~(low > _RANK_RTOL * np.maximum(high, 1.0))


def prefix_failures(diag: np.ndarray, n: int, widths: Sequence[int]) -> np.ndarray:
    """Per factor and width k, the message of the first check that the fit
    of Y on X[:, :k] fails, or "" where both pass: first n <= k gives
    "<n> observations for <k> regressors", then the rank rule on those k
    columns gives "regressor matrix is rank deficient".

    `diag` holds |R_jj| of X's columns, on its last axis, in the R factor
    of [X | Y] with n rows, or in a stack of them. A caller that
    interleaves its own checks combines them per width with
    `first_failures`, so each fit fails where a loop of separate fits would.
    """
    last = np.minimum(widths, diag.shape[-1]) - 1
    low = np.minimum.accumulate(diag, axis=-1)[..., last]
    high = np.maximum.accumulate(diag, axis=-1)[..., last]
    deficient = rank_deficient(low, high)
    failures = np.where(deficient, _RANK_DEFICIENT, "").astype(object)
    for j, k in enumerate(widths):
        if n <= k:
            failures[..., j] = _too_few(n, k)
    return failures


def nested_residual_moments(
    r: np.ndarray, n: int, k_max: int, widths: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Residual moments of Y on each column prefix X[:, :k], from one R.

    `r` is the R factor of a thin QR of [X | Y] with n rows, where X has
    k_max columns and Y the rest, or a stack of such factors (..., K, C).
    Any upper-triangular R with R'R = [X | Y]'[X | Y] will do, such as the
    QR of a column subset of a larger factor. The residual of Y on
    X[:, :k] is Q[:, k:] R[k:, k_max:], so its cross-product is
    R[k:, k_max:]' R[k:, k_max:]. Summing the trailing block avoids the
    cancellation of Y'Y - |Q'Y|^2.

    Returns the moment matrices stacked on axis -3 in width order, and the
    `prefix_failures` of each factor and width.
    """
    diag = np.abs(np.diagonal(r[..., :k_max], axis1=-2, axis2=-1))
    failures = prefix_failures(diag, n, widths)
    tails = [r[..., k:, k_max:] for k in widths]
    # Data of 1e154 and up overflow the moments, and no caller uses them:
    # such levels beside the unit intercept column fail the rank check
    # above, and the Johansen step's `cond` check fails its moments.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.stack([tail.mT @ tail for tail in tails], axis=-3), failures


def failure_error(message: str) -> DegenerateInputError:
    """The `DegenerateInputError` a failed check's message raises, with the
    message as a plain str, so a caller can look it up. Every stacked step's
    failure is raised through here."""
    return DegenerateInputError(str(message))


def first_failures(failures: np.ndarray) -> list[str | None]:
    """Per row of (B, P) messages, the first non-empty one, or None."""
    failed = failures != ""
    at = failed.argmax(axis=-1)
    return [
        str(row[i]) if any_failed else None
        for row, i, any_failed in zip(failures, at, failed.any(axis=-1))
    ]
