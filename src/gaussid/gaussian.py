"""Linear algebra on the transformed-scale Gaussian model.

The joint distribution is carried in regression form: node j satisfies

    X_j = E X_j + sum_i B_ij (X_i - E X_i) + eps_j,   Var eps_j = v_j

with B strictly upper triangular in a parent-before-child order, so the
full covariance (I - B)^-T diag(v) (I - B)^-1 follows from one
forward-substitution pass over the arcs (Shachter & Kenley, "Gaussian
influence diagrams", Management Science 35(5), 1989).  Evidence is folded
in by Gaussian conditioning behind a condition-number guard, and
correlations are read off the conditioned covariance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

__all__ = [
    "GaussianState",
    "ConditioningError",
    "propagate_covariance",
    "condition",
    "condition_sequential",
    "correlation",
    "correlation_matrix",
]

# Above this condition number the evidence block is treated as singular.
_MAX_CONDITION = 1e12


class ConditioningError(RuntimeError):
    """The evidence block of the covariance is singular or nearly so.

    ``condition_estimate`` carries the block's 2-norm condition number:
    infinite when the block is singular, NaN when it holds a non-finite
    entry.  This usually indicates a broken model, e.g. two copies of
    a deterministic observation of the same quantity.
    """

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector, regression coefficients, and noise variances, in order.

    ``order`` names the nodes; ``coeffs[i, j]`` is the coefficient of node
    i in node j's regression and must vanish on and below the diagonal;
    ``cond_var[j]`` is the noise variance of node j (zero exactly for
    deterministic nodes); ``cov`` is filled by
    :func:`propagate_covariance`.
    """

    order: tuple[str, ...]
    mean: np.ndarray
    coeffs: np.ndarray
    cond_var: np.ndarray
    cov: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.order)
        if self.mean.shape != (n,):
            raise ValueError(f"mean must have shape ({n},), got {self.mean.shape}")
        if self.coeffs.shape != (n, n):
            raise ValueError(f"coeffs must have shape ({n}, {n}), got {self.coeffs.shape}")
        if self.cond_var.shape != (n,):
            raise ValueError(f"cond_var must have shape ({n},), got {self.cond_var.shape}")
        if np.any(np.tril(self.coeffs) != 0.0):
            raise ValueError("coeffs must be strictly upper triangular in the node order")
        if np.any(self.cond_var < 0.0):
            raise ValueError("conditional variances must be >= 0")
        if self.cov is not None and self.cov.shape != (n, n):
            raise ValueError(f"cov must have shape ({n}, {n}), got {self.cov.shape}")


def propagate_covariance(st: GaussianState) -> GaussianState:
    """Fill the covariance (I - B)^-T diag(v) (I - B)^-1 by forward substitution.

    The covariance is A A' with A = (I - B)^-T diag(sqrt v), which is
    symmetric and positive semidefinite by construction.  Row j of A is
    sqrt(v_j) e_j plus sum_i B_ij A_i over its parents i, all earlier in
    the order, so one pass over the nodes with parents fills it.  Only the
    columns of nodes with v_j > 0 are kept: the others are zero.
    """
    n = len(st.order)
    live = np.flatnonzero(st.cond_var > 0.0)
    a = np.zeros((n, len(live)))
    a[live, np.arange(len(live))] = np.sqrt(st.cond_var[live])
    for j in np.flatnonzero(st.coeffs.any(axis=0)):
        parents = np.flatnonzero(st.coeffs[:, j])
        a[j] += st.coeffs[parents, j] @ a[parents]
    return replace(st, cov=a @ a.T)


def _split_indices(n: int, obs: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ev = np.array(sorted(obs), dtype=int)
    if len(ev) and (ev[0] < 0 or ev[-1] >= n):
        raise ValueError(f"evidence index out of range: {ev.tolist()}")
    if len(set(obs)) != len(obs):
        raise ValueError("duplicate evidence indices")
    keep = np.setdiff1d(np.arange(n), ev)
    d = np.array([obs[i] for i in ev.tolist()])
    return ev, keep, d


def _condition_number(block: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix, from its eigenvalues.

    The singular values of a symmetric matrix are the absolute values of
    its eigenvalues, so the number is ``|lambda|max / |lambda|min``:
    infinite when the smallest is zero, NaN when an entry is not finite.
    """
    if not np.isfinite(block).all():
        return np.nan
    eig = np.abs(np.linalg.eigvalsh(block))
    smallest = eig.min()
    return float(eig.max() / smallest) if smallest > 0.0 else np.inf


def _gaussian_update(
    mean: np.ndarray, cov: np.ndarray, cross: np.ndarray, block: np.ndarray, resid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``mean + K resid`` and ``cov - K cross'`` with gain ``K = cross block^-1``.

    ``block`` is the covariance of the evidence, ``cross`` that of the
    updated quantities with the evidence and ``resid`` the evidence minus
    its mean.  The guard rejects a block whose 2-norm condition number
    (:func:`_condition_number`) is not finite or reaches 1e12.  Behind it,
    the Cholesky factor L of the block gives W = L^-1 cross' and
    z = L^-1 resid, and the update is ``mean + W' z`` and ``cov - W' W``.
    """
    if len(resid) == 0:
        return mean, cov
    cond_est = _condition_number(block)
    if not np.isfinite(cond_est) or cond_est >= _MAX_CONDITION:
        raise ConditioningError(
            f"evidence covariance block is ill-conditioned (estimate {cond_est:.3e})",
            cond_est,
        )
    try:
        chol = np.linalg.cholesky(block)
    except np.linalg.LinAlgError as err:  # pragma: no cover - guarded above
        raise ConditioningError(
            f"evidence covariance block is not positive definite: {err}", cond_est
        ) from err

    wz = np.linalg.solve(chol, np.column_stack([cross.T, resid]))
    w, z = wz[:, :-1], wz[:, -1]
    post_cov = cov - w.T @ w
    return mean + w.T @ z, 0.5 * (post_cov + post_cov.T)


def condition(
    st: GaussianState, obs: Mapping[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of the unobserved nodes given ``obs``.

    ``obs`` maps node positions (in ``st.order``) to observed values.
    The evidence block is solved through a Cholesky factorization behind a
    condition-number guard; rows and columns of observed nodes do not
    appear in the result.
    """
    if st.cov is None:
        raise ValueError("covariance not populated; call propagate_covariance first")
    ev, keep, d = _split_indices(len(st.order), obs)
    return _gaussian_update(
        st.mean[keep],
        st.cov[np.ix_(keep, keep)],
        st.cov[np.ix_(keep, ev)],
        st.cov[np.ix_(ev, ev)],
        d - st.mean[ev],
    )


def condition_sequential(
    st: GaussianState, obs: Mapping[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Same contract as :func:`condition`, by rank-one updates per observation.

    The independent reference that tests check :func:`condition` against.
    Each step divides by the current marginal variance of the observation
    being absorbed, with the same singularity guard.
    """
    if st.cov is None:
        raise ValueError("covariance not populated; call propagate_covariance first")
    n = len(st.order)
    ev, keep, d = _split_indices(n, obs)
    mean = st.mean.copy()
    cov = st.cov.copy()
    for k, idx in enumerate(ev.tolist()):
        var_k = cov[idx, idx]
        if var_k <= 0.0 or not np.isfinite(var_k):
            raise ConditioningError(
                f"observation at position {idx} has non-positive marginal variance {var_k}",
                np.inf,
            )
        col = cov[:, idx].copy()
        mean = mean + col * ((d[k] - mean[idx]) / var_k)
        cov = cov - np.outer(col, col) / var_k
        cov = 0.5 * (cov + cov.T)
    return mean[keep], cov[np.ix_(keep, keep)]


def correlation_matrix(cov: np.ndarray) -> np.ndarray:
    """Correlations read from a covariance matrix, with the zero-variance rule.

    Where either diagonal entry is zero (a fully determined quantity) the
    correlation is defined to be 0, the diagonal included; elsewhere the
    usual ratio, clamped to [-1, 1] against rounding, and 1 on the diagonal.
    """
    var = np.diag(cov)
    live = var > 0.0
    both = np.outer(live, live)
    scale = np.sqrt(np.where(both, np.outer(var, var), 1.0))
    corr = np.where(both, np.clip(cov / scale, -1.0, 1.0), 0.0)
    np.fill_diagonal(corr, live.astype(float))
    return corr


def correlation(post_cov: np.ndarray, i: int, j: int) -> float:
    """Entry (i, j) of :func:`correlation_matrix` of ``post_cov``."""
    pair = [i, j]
    return float(correlation_matrix(post_cov[np.ix_(pair, pair)])[0, 1])
