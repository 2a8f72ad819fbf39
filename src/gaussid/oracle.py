"""Monte Carlo reference posteriors by prior-proposal importance sampling.

This module exists to check the linear approximation against an estimate
that shares none of its machinery: draws come straight from the declared
priors, deterministic nodes are propagated by exact expression
evaluation, and every draw is weighted by the product of the exact
evidence likelihoods on the natural scale (an exact binomial mass at the
propagated parent value; a Gaussian density for the normal designs).
Estimates are self-normalized weighted moments, so constant factors of
the likelihoods, such as binomial coefficients, are left out.

Reproducibility: all randomness comes from ``numpy.random.default_rng``
(the PCG64 generator) seeded with the caller's seed; a given (seed,
n_samples) pair yields bit-identical estimates.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .evidence import BINOMIAL as BINOMIAL_EVIDENCE, to_likelihood
from .model import (
    Add,
    BASIC,
    Const,
    Diagram,
    Div,
    EVIDENCE,
    Exp,
    Expr,
    Ln,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _fold,
    ensure_valid,
    topological_order,
)
from .transforms import (
    BETA,
    LOG_SCALED,
    LOGNORMAL,
    SCALED,
    Transform,
    forward_moments,
)

__all__ = ["McEstimate", "mc_posterior"]

# Below this effective sample size the estimate is flagged as degenerate.
_ESS_FLOOR = 50.0


@dataclass(frozen=True)
class McEstimate:
    """Weighted-sample posterior summary.

    ``mean``/``variance`` are natural-scale posterior estimates per
    parameter id; ``se_mean``/``se_var`` their standard errors;
    ``ess`` the effective sample size (sum w)^2 / sum w^2.
    """

    param_ids: tuple[str, ...]
    mean: dict[str, float]
    variance: dict[str, float]
    se_mean: dict[str, float]
    se_var: dict[str, float]
    ess: float
    n_samples: int
    seed: int
    warnings: tuple[str, ...] = ()


# The array operation of each operator node but Pow, on its operands' arrays
_ARRAY_OPS = {
    Neg: operator.neg,
    Exp: np.exp,
    Ln: np.log,
    Add: operator.add,
    Sub: operator.sub,
    Mul: operator.mul,
    Div: operator.truediv,
}


def _eval_array(e: Expr, env: dict[str, np.ndarray]) -> np.ndarray:
    def step(n: Expr, args: list[np.ndarray]) -> np.ndarray:
        if isinstance(n, Const):
            return np.asarray(n.value)
        if isinstance(n, Var):
            return env[n.name]
        if isinstance(n, Pow):
            return args[0] ** n.exponent
        return _ARRAY_OPS[type(n)](*args)

    return _fold(e, step)


def _forward_array(t: Transform, y: np.ndarray) -> np.ndarray:
    if t.kind == SCALED:
        return (y - t.a) / (t.b - t.a)
    if t.kind == LOG_SCALED:
        return np.log((y - t.a) / (t.b - t.a))
    return np.log((y - t.a) / (t.b - y))


def _draw_basic(node, rng: np.random.Generator, n: int) -> np.ndarray:
    p = node.prior
    t = p.transform
    if p.family == BETA:
        return t.a + (t.b - t.a) * rng.beta(p.alpha, p.beta, size=n)
    if p.family == LOGNORMAL:
        m = forward_moments(p)
        return t.a + (t.b - t.a) * np.exp(rng.normal(m.mean, np.sqrt(m.variance), size=n))
    return rng.normal(p.mean, np.sqrt(p.variance), size=n)


def mc_posterior(d: Diagram, n_samples: int, seed: int) -> McEstimate:
    """Estimate natural-scale posterior moments of every parameter.

    Basic parameters are sampled from their priors in topological order,
    deterministic nodes evaluated exactly, and draws weighted by the
    exact evidence likelihoods.  Draws that leave a transform support or
    produce non-finite values get weight zero.  An effective sample size
    below 50 attaches a degeneracy warning, and so does an estimate that
    is not finite; a weight sum of exactly zero raises ``RuntimeError``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    ensure_valid(d)
    rng = np.random.default_rng(seed)
    topo = topological_order(d)
    param_ids = tuple(i for i in topo if d.nodes[i].kind != EVIDENCE)

    values: dict[str, np.ndarray] = {}
    valid = np.ones(n_samples, dtype=bool)
    with np.errstate(all="ignore"):
        for pid in param_ids:
            node = d.nodes[pid]
            if node.kind == BASIC:
                values[pid] = _draw_basic(node, rng, n_samples)
            else:
                arr = np.broadcast_to(
                    _eval_array(node.expr, values), (n_samples,)
                ).astype(float)
                values[pid] = arr
                valid &= np.isfinite(arr)

        logw = np.zeros(n_samples)
        for node in d.evidence_nodes():
            parent = d.nodes[node.parents[0]]
            y = values[parent.id]
            spec = node.obs
            if spec.variant == BINOMIAL_EVIDENCE:
                t = parent.transform
                p = (y - t.a) / (t.b - t.a)
                ok = np.isfinite(p) & (p > 0.0) & (p < 1.0)
                valid &= ok
                p = np.where(ok, p, 0.5)
                s, n = spec.successes, spec.count
                logw += s * np.log(p) + (n - s) * np.log1p(-p)
            else:
                like = to_likelihood(spec, parent.transform, parent.prior)
                x = _forward_array(parent.transform, y)
                ok = np.isfinite(x)
                valid &= ok
                x = np.where(ok, x, 0.0)
                logw += -0.5 * (like.d - x) ** 2 / like.v

    valid &= np.isfinite(logw)
    if not valid.any():
        raise RuntimeError("all importance weights are zero; no valid draws")
    shift = logw[valid].max()
    w = np.where(valid, np.exp(logw - shift), 0.0)
    total = w.sum()  # at least 1: the largest valid weight is exp(0)

    ess = float(total * total / np.sum(w * w))
    warnings: list[str] = []
    n_dropped = int(n_samples - valid.sum())
    if n_dropped:
        warnings.append(f"{n_dropped} of {n_samples} draws were invalid and got weight zero")
    if ess < _ESS_FLOOR:
        warnings.append(
            f"effective sample size {ess:.1f} is below {_ESS_FLOOR:.0f}; "
            "estimates are unreliable"
        )

    mean: dict[str, float] = {}
    variance: dict[str, float] = {}
    se_mean: dict[str, float] = {}
    se_var: dict[str, float] = {}
    with np.errstate(all="ignore"):  # a moment that overflows is reported below
        for pid in param_ids:
            y = np.where(valid, values[pid], 0.0)
            m = float(np.sum(w * y) / total)
            dev = y - m
            v = float(np.sum(w * dev * dev) / total)
            mean[pid] = m
            variance[pid] = v
            se_mean[pid] = float(np.sqrt(np.sum((w * dev) ** 2)) / total)
            se_var[pid] = float(np.sqrt(np.sum((w * (dev * dev - v)) ** 2)) / total)

    moments = (mean, variance, se_mean, se_var)
    unusable = [pid for pid in param_ids if not all(math.isfinite(m[pid]) for m in moments)]
    if unusable:
        warnings.append(f"the estimates of {', '.join(unusable)} are not finite")

    return McEstimate(
        param_ids=param_ids,
        mean=mean,
        variance=variance,
        se_mean=se_mean,
        se_var=se_var,
        ess=ess,
        n_samples=int(n_samples),
        seed=int(seed),
        warnings=tuple(warnings),
    )
