"""Least squares via QR decomposition.

Normal equations square the condition number; lagged-difference regressor
blocks are frequently near-collinear, so everything here goes through a
thin QR factorization and explicit rank checks.
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
    X: np.ndarray, y: np.ndarray, widths: Iterable[int]
) -> Iterator[float | np.ndarray]:
    """Residual moments of y on each column prefix X[:, :k], from one QR.

    One thin QR of [X | y] = QR serves every prefix: the residual of y on
    X[:, :k] is Q[:, k:] R[k:, K:], so its cross-product is
    R[k:, K:]' R[k:, K:] (the RSS for 1-D y). Summing the trailing block
    avoids the cancellation of y'y - |Q'y|^2.

    Yields one moment per width, in order. Before each, the prefix gets
    the checks `ols_qr(X[:, :k], y)` would make, in its order and with its
    messages, so a caller that interleaves its own checks raises where a
    loop of separate fits would.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_shapes(X, y)
    n, K = X.shape
    r = np.linalg.qr(np.column_stack([X, y]), mode="r")
    diag = np.abs(np.diag(r[:, :K]))
    for k in widths:
        _require_observations(n, k)
        _require_full_rank(diag[:k])
        tail = r[k:, K:]
        moments = tail.T @ tail
        yield float(moments[0, 0]) if y.ndim == 1 else moments
