"""Least squares via QR decomposition.

Normal equations square the condition number; lagged-difference regressor
blocks are frequently near-collinear, so everything here goes through a
thin QR factorization and explicit rank checks.

`ols_qr` fits one design in full. `nested_residual_moments` takes the R
factor of [X | Y] and yields the residual moments of Y on column prefixes
of X, with the checks `ols_qr` would make. It serves ADF lag selection
(every prefix; R from the design's own QR), VAR lag selection (every
prefix; R from a column subset of a panel-wide factor) and the Johansen
step (the one prefix Z; Y holds both dY_t and Y_{t-p}).
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .errors import SingularityError

# Relative tolerance on the diagonal of R for declaring rank deficiency.
_RANK_RTOL = 1e-10


class OlsFit(NamedTuple):
    coef: np.ndarray        # (k,) or (k, m) for multi-response
    residuals: np.ndarray   # same leading shape as y
    rss: float | np.ndarray
    xtx_inv: np.ndarray     # (X'X)^-1, from R alone


def _check_shapes(X: np.ndarray, y: np.ndarray) -> None:
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("X must be 2-D with rows matching y")


def _require_observations(n: int, k: int) -> None:
    if n <= k:
        raise SingularityError(f"{n} observations for {k} regressors")


def _require_full_rank(diag: np.ndarray) -> None:
    """`diag` holds |R_jj| of the regressors' thin QR."""
    if diag.min() <= _RANK_RTOL * max(diag.max(), 1.0):
        raise SingularityError("regressor matrix is rank deficient")


def ols_qr(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """OLS fit of y on X (no implicit intercept; add a ones column)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_shapes(X, y)
    n, k = X.shape
    _require_observations(n, k)
    q, r = np.linalg.qr(X, mode="reduced")
    _require_full_rank(np.abs(np.diag(r)))
    coef = np.linalg.solve(r, q.T @ y)
    residuals = y - X @ coef
    rss = np.sum(residuals * residuals, axis=0)
    r_inv = np.linalg.solve(r, np.eye(k))
    xtx_inv = r_inv @ r_inv.T
    return OlsFit(coef=coef, residuals=residuals, rss=rss, xtx_inv=xtx_inv)


def nested_residual_moments(
    r: np.ndarray, n: int, k_max: int, widths: Iterable[int]
) -> Iterator[np.ndarray]:
    """Residual moments of Y on each column prefix X[:, :k], from one R.

    `r` is the R factor of a thin QR of [X | Y] with n rows, where X has
    k_max columns and Y the rest. Any upper-triangular R with
    R'R = [X | Y]'[X | Y] will do, such as the QR of a column subset of a
    larger factor. The residual of Y on X[:, :k] is Q[:, k:] R[k:, k_max:],
    so its cross-product is R[k:, k_max:]' R[k:, k_max:] (the RSS in the
    1 x 1 case). Summing the trailing block avoids the cancellation of
    Y'Y - |Q'Y|^2.

    Yields one moment matrix per width, in order. Before each, the prefix
    gets the checks `ols_qr(X[:, :k], Y)` would make, in its order and
    with its messages, so a caller that interleaves its own checks raises
    where a loop of separate fits would.
    """
    diag = np.abs(np.diag(r[:, :k_max]))
    for k in widths:
        _require_observations(n, k)
        _require_full_rank(diag[:k])
        tail = r[k:, k_max:]
        yield tail.T @ tail
