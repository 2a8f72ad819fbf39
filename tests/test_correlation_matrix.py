"""The vectorized correlation matrix against the pairwise rule it replaces."""

import json
import warnings

import numpy as np
import pytest

from gaussid.cli import EXIT_OK, main, serialize_model
from gaussid.gaussian import correlation_matrix
from gaussid.model import Add, Diagram, Var, basic, deterministic
from gaussid.solver import solve
from gaussid.transforms import PriorSpec, Transform


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


def test_extreme_variances_give_the_bits_of_their_scaled_down_matrix():
    rng = np.random.default_rng(17)
    n = 9
    a = rng.normal(size=(n, n + 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)  # variances about 1
    cov = a @ a.T
    k = rng.permutation([-510, -400, -300, 0, 0, 300, 400, 460, 510])  # variances times 4^k
    extreme = np.ldexp(cov, k[:, None] + k[None, :])
    assert extreme.max() > 1e300 and np.diag(extreme).min() < 1e-300
    assert correlation_matrix(extreme).tobytes() == correlation_matrix(cov).tobytes()


def _sum_of_two(variance):
    ts = Transform("scaled", 0.0, 1.0)
    prior = PriorSpec(family="normal", transform=ts, mean=0.0, variance=variance)
    return Diagram.from_nodes(
        [basic("x", prior), basic("y", prior), deterministic("z", ts, Add(Var("x"), Var("y")))]
    )


@pytest.mark.parametrize("variance", [1e-170, 1e200])
def test_solve_reads_correlations_of_extreme_variances(variance, tmp_path, capsys):
    d = _sum_of_two(variance)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = solve(d)
    assert result.param_ids == ("x", "y", "z")
    corr = result.posterior_correlations
    assert corr[0, 2] == corr[1, 2] == pytest.approx(np.sqrt(0.5), rel=1e-15)
    assert corr[0, 1] == corr[1, 0] == 0.0

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    path = tmp_path / "sum.json"
    path.write_text(json.dumps(serialize_model(d)))
    assert main(["solve", str(path), "--json"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == ""
    payload = json.loads(out, parse_constant=refuse)
    assert payload["correlations"]["matrix"] == corr.tolist()
