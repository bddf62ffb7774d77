"""Least squares via QR decomposition.

Normal equations square the condition number; lagged-difference regressor
blocks are frequently near-collinear, so everything here goes through a
thin QR factorization and explicit rank checks.

`ols_qr` fits one design in full. `nested_residual_moments` takes the R
factor of [X | Y], or a stack of them, and gives the residual moments of Y
on column prefixes of X, with the outcome of each check `ols_qr` would
make as a message rather than a raise, so one failing fit in a stack does
not stop the others. It serves VAR lag selection (every prefix; R from
column subsets of a panel-wide factor) and the Johansen step (the one
prefix Z; Y holds both dY_t and Y_{t-p}). ADF lag selection needs only
each prefix's RSS, which it reads off its own R factor; it takes the same
checks, in the same order, from `prefix_failures` and `first_failures`,
and raises the first failure as `ols_qr` would (`failure_error`). Every
fit shares one rank rule, `rank_deficient`; a failure of it raises
`RankDeficientError`.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .errors import RankDeficientError, SingularityError

# Relative tolerance on the diagonal of R for declaring rank deficiency.
_RANK_RTOL = 1e-10
_RANK_DEFICIENT = "regressor matrix is rank deficient"


class OlsFit(NamedTuple):
    coef: np.ndarray        # (k,) or (k, m) for multi-response
    residuals: np.ndarray   # same leading shape as y
    rss: float | np.ndarray
    xtx_inv: np.ndarray     # (X'X)^-1, from R alone


def _too_few(n: int, k: int) -> str:
    return f"{n} observations for {k} regressors"


def ols_qr(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """OLS fit of y on X (no implicit intercept; add a ones column)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2-D with rows matching y")
    n, k = X.shape
    if n <= k:
        raise SingularityError(_too_few(n, k))
    q, r = np.linalg.qr(X, mode="reduced")
    diag = np.abs(np.diag(r))  # |R_jj| of the regressors' thin QR
    if rank_deficient(diag.min(), diag.max()):
        raise RankDeficientError(_RANK_DEFICIENT)
    coef = np.linalg.solve(r, q.T @ y)
    residuals = y - X @ coef
    rss = np.sum(residuals * residuals, axis=0)
    r_inv = np.linalg.solve(r, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    return OlsFit(coef=coef, residuals=residuals, rss=rss, xtx_inv=xtx_inv)


def rank_deficient(low: np.ndarray | float, high: np.ndarray | float) -> np.ndarray:
    """The rank rule, for regressors whose R factor has |R_jj| from `low` to
    `high`: deficient where low <= _RANK_RTOL * max(high, 1), or is nan."""
    return ~(low > _RANK_RTOL * np.maximum(high, 1.0))


def prefix_failures(diag: np.ndarray, n: int, widths: Sequence[int]) -> np.ndarray:
    """Per factor and width k, the message of the first check that
    `ols_qr(X[:, :k], Y)` would fail, in its order, or "" where it passes.

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


def failure_error(message: str) -> SingularityError:
    """The error a failed check's message raises: `RankDeficientError` for
    the rank rule, as in `ols_qr`, else `SingularityError`."""
    if message == _RANK_DEFICIENT:
        return RankDeficientError(message)
    return SingularityError(message)


def first_failures(failures: np.ndarray) -> list[str | None]:
    """Per row of (B, P) messages, the first non-empty one, or None."""
    failed = failures != ""
    at = failed.argmax(axis=-1)
    return [
        str(row[i]) if any_failed else None
        for row, i, any_failed in zip(failures, at, failed.any(axis=-1))
    ]
