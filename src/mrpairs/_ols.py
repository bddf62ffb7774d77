"""Least squares via QR decomposition.

Normal equations square the condition number; lagged-difference regressor
blocks are frequently near-collinear, so everything here goes through a
thin QR factorization and explicit rank checks.

`r_factor` gives the R factor of a design by overwriting it with LAPACK's
`dgeqrf`, bit-equal to `np.linalg.qr(a, mode="r")`: one large design (an
ADF test's max-lag design, the scan's panel-wide W and V), or a stack of
small ones (the scan's column slices of W and V, a Johansen test's own
designs). That wrapper copies its input and allocates a buffer of the
input's size on every call; for one design, the copies and their fresh
pages cost about as much as the factorization.

Every fit of Y on a design of n rows and k regressors makes two checks,
in this order: n > k, else "<n> observations for <k> regressors"; then
the one rank rule, `rank_deficient`, on the |R_jj| of the design's R
factor, else "regressor matrix is rank deficient". `failure_error`
raises the first message as `DegenerateInputError`; a caller tells the
rank rule apart by that message, as `unit_root.NO_TEST` does.
`prefix_failures` gives the outcome of both checks for fits of Y on
column prefixes of X, from the R factor of [X | Y] or a stack of them, as
messages rather than raises, so one failing fit in a stack does not stop
the others; `prefix_moments` gives those fits' residual moments. ADF and
VAR lag selection read both at every prefix (VAR's R from column subsets
of a panel-wide factor); the Johansen step reads the checks of its one
prefix Z.
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
    """The R factor of a thin QR of `a`, or of each of a stack, overwriting `a`.

    `a` must be a writeable float64 matrix in column-major layout, or a
    stack (B, m, n) whose transpose `a.mT` is C-contiguous. Each matrix is
    factored in place with one `dgeqrf` call and holds LAPACK's
    Householder vectors after. The workspace is the size LAPACK asks for,
    at least max(1, n), as `np.linalg.qr` takes it, so R is bit-equal to
    that function's; past 128 columns dgeqrf takes its blocked path, whose
    rounding depends on that size.
    """
    if not (
        isinstance(a, np.ndarray)
        and a.ndim in (2, 3)
        and a.dtype == np.float64
        and a.mT.flags.c_contiguous
        and a.flags.writeable
    ):
        raise ValueError("r_factor needs a writeable column-major float64 matrix, or a stack")
    m, n = a.shape[-2:]
    lda, tau, query = max(1, m), np.empty(min(m, n)), np.empty(1)
    # lapack_lite takes C-contiguous arrays; a matrix's transpose is its memory.
    stack = a.mT.reshape(-1, n, m)
    lapack_lite.dgeqrf(m, n, stack, lda, tau, query, -1, 0)
    work = np.empty(max(1, n, int(query[0])))
    for matrix in stack:
        info = lapack_lite.dgeqrf(m, n, matrix, lda, tau, work, len(work), 0)["info"]
        if info != 0:
            raise ValueError(f"dgeqrf failed with info {info}")
    return np.triu(a[..., : min(m, n), :])


def rank_deficient(low: np.ndarray | float, high: np.ndarray | float) -> np.ndarray:
    """The rank rule, for regressors whose R factor has |R_jj| from `low` to
    `high`: deficient where low <= _RANK_RTOL * max(high, 1), or is nan."""
    return ~(low > _RANK_RTOL * np.maximum(high, 1.0))


def prefix_failures(r: np.ndarray, k_max: int, n: int, widths: Sequence[int]) -> np.ndarray:
    """Per factor and width k, the message of the first check that the fit
    of Y on X[:, :k] fails, or "" where both pass: first n <= k gives
    "<n> observations for <k> regressors", then the rank rule on those k
    columns gives "regressor matrix is rank deficient".

    `r` is the R factor of [X | Y] with n rows, where X has k_max columns,
    or a stack of them (..., K, C). A caller that interleaves its own
    checks combines them per width with `first_failures`, so each fit
    fails where a loop of separate fits would.
    """
    diag = np.abs(np.diagonal(r[..., :k_max], axis1=-2, axis2=-1))
    last = np.minimum(widths, diag.shape[-1]) - 1
    low = np.minimum.accumulate(diag, axis=-1)[..., last]
    high = np.maximum.accumulate(diag, axis=-1)[..., last]
    deficient = rank_deficient(low, high)
    failures = np.where(deficient, _RANK_DEFICIENT, "").astype(object)
    for j, k in enumerate(widths):
        if n <= k:
            failures[..., j] = _too_few(n, k)
    return failures


def prefix_moments(r: np.ndarray, k_max: int, widths: Sequence[int]) -> np.ndarray:
    """Residual moments of Y on each column prefix X[:, :k], stacked on axis -3.

    `r` is as for `prefix_failures`, or any upper-triangular R with R'R =
    [X | Y]'[X | Y]. The residual of Y on X[:, :k] is Q[:, k:] R[k:, k_max:],
    so its moments are the sum of the outer products of R's rows i >= k of
    Y: one reversed cumulative sum gives every width's, zero for a width of
    K or more, without the cancellation of Y'Y - |Q'Y|^2.
    """
    rows, m = r.shape[-2], r.shape[-1] - k_max
    y = r[..., ::-1, k_max:]  # R's rows of Y, last first
    sums = np.zeros(r.shape[:-2] + (rows + 1, m, m))  # sums[j]: of the last j rows
    np.cumsum(y[..., :, None] * y[..., None, :], axis=-3, out=sums[..., 1:, :, :])
    return sums[..., rows - np.minimum(widths, rows), :, :]


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
