"""`_ols.prefix_moments`: every column prefix's residual moments from one R.

ADF lag selection reads each prefix's RSS, and VAR lag selection each
prefix's residual covariance, off the R factor of [X | Y]. The residual of
Y on X[:, :k] is Q[:, k:] R[k:, Y], so its moments are R[k:, Y]'R[k:, Y].
"""

import numpy as np

from mrpairs._ols import prefix_moments


def _factors(seed, B, rows, cols):
    """A stack of B upper-triangular (rows, cols) R factors."""
    rng = np.random.default_rng(seed)
    return np.triu(rng.standard_normal((B, rows, cols)) * rng.uniform(0.1, 1e3, (B, 1, cols)))


def test_one_response_column_is_adfs_rss_bit_for_bit():
    for seed, k_max in enumerate((2, 3, 12, 28)):
        rs = _factors(seed, 20, k_max + 1, k_max + 1)
        widths = range(2, k_max + 1)
        moments = prefix_moments(rs, k_max, widths)
        assert moments.shape == (20, k_max - 1, 1, 1)
        for r, rss in zip(rs, moments[..., 0, 0]):
            expected = np.cumsum(np.square(r[:1:-1, -1]))[::-1]
            assert rss.tobytes() == expected.tobytes()


def test_m_response_columns_match_each_prefix_product():
    for seed, (m, max_lag) in enumerate(((2, 10), (3, 4), (4, 10))):
        k_max = 1 + max_lag * m
        rs = _factors(seed, 30, k_max + m, k_max + m)
        widths = [1 + p * m for p in range(max_lag + 1)]
        moments = prefix_moments(rs, k_max, widths)
        assert moments.shape == (30, len(widths), m, m)
        for j, k in enumerate(widths):
            tail = rs[:, k:, k_max:]
            expected = tail.mT @ tail
            np.testing.assert_allclose(moments[:, j], expected, rtol=1e-13, atol=0)


def test_widths_at_or_past_the_last_row_read_zero_moments():
    # A slice of a factor with fewer rows than columns, as an n <= k fit has.
    m, k_max, rows = 3, 31, 20
    rs = _factors(7, 5, rows, k_max + m)
    widths = [1, 10, rows - 1, rows, rows + 1, k_max]
    moments = prefix_moments(rs, k_max, widths)
    assert moments[:, :3].any(axis=(-2, -1)).all()
    assert not moments[:, 3:].any()
    tail = rs[:, rows - 1 :, k_max:]
    assert moments[:, 2].tobytes() == (tail.mT @ tail).tobytes()
