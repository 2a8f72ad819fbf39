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
