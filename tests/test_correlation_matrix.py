"""The vectorized correlation matrix against the pairwise rule it replaces."""

import numpy as np

from gaussid.gaussian import correlation_matrix


def test_correlation_matrix_follows_the_pairwise_rule():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(5, 5))
    cov = a @ a.T
    cov[2, :] = cov[:, 2] = 0.0  # a fully determined quantity
    cov[3, 4] = cov[4, 3] = np.sqrt(cov[3, 3] * cov[4, 4]) * (1.0 + 1e-14)
    want = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            if cov[i, i] > 0.0 and cov[j, j] > 0.0:
                r = cov[i, j] / np.sqrt(cov[i, i] * cov[j, j])
                want[i, j] = 1.0 if i == j else min(1.0, max(-1.0, r))
    np.testing.assert_array_equal(correlation_matrix(cov), want)


def pre_in_place_formula(cov):
    """The earlier vectorized formula, which built several n x n temporaries."""
    var = np.diag(cov)
    live = var > 0.0
    both = np.outer(live, live)
    scale = np.sqrt(np.where(both, np.outer(var, var), 1.0))
    corr = np.where(both, np.clip(cov / scale, -1.0, 1.0), 0.0)
    np.fill_diagonal(corr, live.astype(float))
    return corr


def test_correlation_matrix_is_bitwise_the_earlier_formula():
    rng = np.random.default_rng(13)
    for n in (1, 2, 7, 40):
        a = rng.normal(size=(n, n + 2))
        cov = a @ a.T
        cov[0, :] = cov[:, 0] = 0.0  # a zero-variance row
        if n > 3:
            # variances that rounding took to zero and below, beside nonzero
            # covariances
            cov[3, 3] = 0.0
            cov[n - 2, n - 2] = -1e-17
        if n > 2:
            # a pair rounded past +1 and one past -1
            cov[1, 2] = cov[2, 1] = np.sqrt(cov[1, 1] * cov[2, 2]) * (1.0 + 4e-16)
            cov[n - 1, 1] = cov[1, n - 1] = -np.sqrt(cov[1, 1] * cov[n - 1, n - 1]) * (1.0 + 4e-16)
        got, want = correlation_matrix(cov), pre_in_place_formula(cov)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
