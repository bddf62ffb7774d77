"""The engine's generalized eigensolver against scipy's.

`cointegration._generalized_eigh` solves a*v = l*b*v for stacks of
symmetric a and positive definite b with numpy alone: a Cholesky factor
b = L*L', the standard eigenproblem of L^-1*a*L^-T, and the eigenvectors
L^-T*V. The reference is `scipy.linalg.eigh(a, b)`, one pair at a time.
They must agree on the eigenvalues to 1e-12 relative, the engine's
eigenvectors must be b-orthonormal to 1e-12, a scan must reach the same
ranks, lags and skip reasons with either solver, and a pair whose b is not
positive definite must fail alone.

The ill-conditioned b below get their condition number from the scale of
their variables, as a scan's S11 does when instruments trade at different
price levels. A b that is ill-conditioned because its variables are
nearly collinear leaves any solver, scipy's included, with about
eps * cond(b) relative error, so no two solvers agree to 1e-12 there.
"""

import numpy as np
import pytest
from scipy import linalg as sla

from mrpairs import cointegration
from mrpairs.cointegration import scan_cointegration
from conftest import price_panel, six_walks
from test_scan_oracle import ALL_I1, PANELS, _stacked_fits

RTOL = 1e-12


def scipy_generalized_eigh(a, b):
    """`sla.eigh(a, b)` pair by pair; a pair it fails on gets nan rows."""
    vals, vecs = np.full(a.shape[:2], np.nan), np.full(a.shape, np.nan)
    for j in range(len(a)):
        try:
            vals[j], vecs[j] = sla.eigh(a[j], b[j])
        except np.linalg.LinAlgError:
            pass
    return vals, vecs


def _pairs(seed, m, n_pairs, log10_cond):
    """Johansen-like pairs: b an SPD moment matrix rescaled so that
    cond(b) is about 10**log10_cond, and a = L*Q*diag(l)*Q'*L' with
    b = L*L', so the eigenvalues are l in (0.01, 0.99)."""
    rng = np.random.default_rng(seed)
    a, b, want = [], [], []
    for _ in range(n_pairs):
        x = rng.standard_normal((4 * m + 8, m))
        scale = np.logspace(0.0, -log10_cond / 2.0, m)
        rng.shuffle(scale)
        s11 = scale[:, None] * (x.T @ x / len(x)) * scale[None, :]
        s11 = (s11 + s11.T) / 2.0
        lower = np.linalg.cholesky(s11)
        q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        lam = rng.uniform(0.01, 0.99, m)
        core = lower @ q @ np.diag(lam) @ q.T @ lower.T
        a.append((core + core.T) / 2.0)
        b.append(s11)
        want.append(np.sort(lam))
    return np.array(a), np.array(b), np.array(want)


@pytest.mark.parametrize("log10_cond", [0.0, 6.0, 11.5])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_eigenpairs_match_scipy(m, log10_cond):
    a, b, lam = _pairs(m, m, 50, log10_cond)
    if log10_cond > 11:  # within a decade of the scan's cond limit
        cond = np.linalg.cond(b) / cointegration._MAX_COND
        assert 0.1 < cond.min() and cond.max() < 10 and (cond <= 1).any()
    vals, vecs = cointegration._generalized_eigh(a, b)
    want, _ = scipy_generalized_eigh(a, b)
    np.testing.assert_allclose(vals, want, rtol=RTOL, atol=0)
    np.testing.assert_allclose(vals, lam, rtol=1e-10, atol=0)
    gram = vecs.mT @ b @ vecs
    np.testing.assert_allclose(gram, np.broadcast_to(np.eye(m), gram.shape),
                               rtol=0, atol=RTOL)


def test_a_pair_that_is_not_positive_definite_fails_alone():
    a, b, _ = _pairs(0, 3, 5, 6.0)
    b[2] = -b[2]
    vals, vecs = cointegration._generalized_eigh(a, b)
    want, _ = scipy_generalized_eigh(a, b)
    assert np.isnan(want).any(axis=1).tolist() == [False, False, True, False, False]
    assert np.array_equal(np.isnan(vals), np.isnan(want))
    assert np.isnan(vecs[2]).all() and not np.isnan(np.delete(vecs, 2, 0)).any()
    np.testing.assert_allclose(vals, want, rtol=RTOL, atol=0)  # nan == nan here
    for j in (0, 1, 3, 4):  # each other pair as if it were solved alone
        alone = cointegration._generalized_eigh(a[j : j + 1], b[j : j + 1])
        assert np.array_equal(alone[0][0], vals[j])
        assert np.array_equal(alone[1][0], vecs[j])


@pytest.mark.parametrize("T, degenerate", PANELS)
def test_scan_reaches_scipy_ranks_lags_and_skips(monkeypatch, T, degenerate):
    for seed in range(2):
        panel = price_panel(six_walks(seed, T, degenerate))
        rows = scan_cointegration(panel, orders=ALL_I1)
        fits, _ = _stacked_fits(panel)
        with monkeypatch.context() as patched:
            patched.setattr(cointegration, "_generalized_eigh", scipy_generalized_eigh)
            want_rows = scan_cointegration(panel, orders=ALL_I1)
            want_fits, _ = _stacked_fits(panel)
        assert fits == want_fits
        assert [(r.subset, r.skipped_reason, r.rank) for r in rows] == [
            (r.subset, r.skipped_reason, r.rank) for r in want_rows
        ]
        for row, want in zip(rows, want_rows):
            if row.top_eigenvalue is not None:
                assert row.top_eigenvalue == pytest.approx(want.top_eigenvalue, rel=RTOL)
            if row.hedge_ratio is not None:
                np.testing.assert_allclose(row.hedge_ratio, want.hedge_ratio, rtol=RTOL)
