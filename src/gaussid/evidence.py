"""Gaussian likelihood approximations for experimental observations.

Each observation is reduced to a pair (d, v): a Gaussian observation with
mean equal to the transformed parameter it bears on and variance v.
Three designs are supported — normal samples with known variance, normal
samples with unknown variance, and binomial counts — plus precision
pooling of several observations on one parameter and an adapter that
turns natural-scale samples of a log-transformed quantity into the
summary statistics the normal designs need.  ``_binomial_array`` does what
:func:`binomial` does, over arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .specfun import BetaParams, _beta_to_moments_lockstep, _Record, _set, beta_to_moments
from .transforms import LOG_SCALED, PriorSpec, Transform, forward_point

__all__ = [
    "NORMAL_KNOWN_VAR",
    "NORMAL_UNKNOWN_VAR",
    "BINOMIAL",
    "EVIDENCE_VARIANTS",
    "LikelihoodApprox",
    "EvidenceSpec",
    "normal_known_var",
    "normal_unknown_var",
    "binomial",
    "pool",
    "lognormal_sample_adapter",
    "to_likelihood",
]

NORMAL_KNOWN_VAR = "normal_known_var"
NORMAL_UNKNOWN_VAR = "normal_unknown_var"
BINOMIAL = "binomial"
EVIDENCE_VARIANTS = (NORMAL_KNOWN_VAR, NORMAL_UNKNOWN_VAR, BINOMIAL)

# Reference Beta parameters for binomial evidence when the parent has no
# Beta prior and the model gives none explicitly.
_DEFAULT_REFERENCE = 0.5


class LikelihoodApprox(_Record):
    """A Gaussian observation on the transformed scale: value d, variance v > 0."""

    __slots__ = ("d", "v")

    def __init__(self, d: float, v: float):
        if not (math.isfinite(d) and math.isfinite(v) and v > 0.0):
            raise ValueError(f"likelihood approximation needs finite d and v > 0, got ({d}, {v})")
        _set(self, "d", d)
        _set(self, "v", v)


class EvidenceSpec(_Record):
    """Declaration of one observation process.

    ``normal_known_var`` takes (count, sample_mean, variance);
    ``normal_unknown_var`` takes (count, sample_mean, sample_var) with the
    divisor-count convention; ``binomial`` takes (count, successes) and
    optional reference (alpha, beta).  Normal variants may instead carry
    raw ``samples`` of a log-transformed parent (``lognormal_samples``),
    in which case the summary statistics are derived at solve time.  Every
    number given must be finite.
    """

    __slots__ = (
        "variant", "count", "sample_mean", "variance", "sample_var", "successes", "alpha", "beta",
        "lognormal_samples", "samples",
    )

    def __init__(
        self, variant: str, count: int | None = None, sample_mean: float | None = None,
        variance: float | None = None, sample_var: float | None = None,
        successes: int | None = None, alpha: float | None = None, beta: float | None = None,
        lognormal_samples: bool = False, samples: tuple[float, ...] | None = None,
    ):
        _set(self, "variant", variant)
        _set(self, "count", count)
        _set(self, "sample_mean", sample_mean)
        _set(self, "variance", variance)
        _set(self, "sample_var", sample_var)
        _set(self, "successes", successes)
        _set(self, "alpha", alpha)
        _set(self, "beta", beta)
        _set(self, "lognormal_samples", lognormal_samples)
        _set(self, "samples", samples)
        if self.variant not in EVIDENCE_VARIANTS:
            raise ValueError(
                f"unknown evidence variant {self.variant!r}; expected one of {EVIDENCE_VARIANTS}"
            )
        numbers = (self.sample_mean, self.variance, self.sample_var, self.alpha, self.beta)
        for x in (*numbers, *(self.samples or ())):
            if x is not None and not math.isfinite(x):
                raise ValueError(f"evidence numbers must be finite, got {x}")
        if self.variant == BINOMIAL:
            self._check_binomial()
        else:
            self._check_normal()

    def _check_binomial(self) -> None:
        if self.lognormal_samples or self.samples is not None:
            raise ValueError("binomial evidence takes counts, not samples")
        if self.sample_mean is not None or self.variance is not None or self.sample_var is not None:
            raise ValueError("binomial evidence takes count/successes, not normal statistics")
        if self.count is None or self.successes is None:
            raise ValueError("binomial evidence requires count and successes")
        if self.count < 1 or not 0 <= self.successes <= self.count:
            raise ValueError(
                f"binomial evidence needs count >= 1 and 0 <= successes <= count, "
                f"got ({self.count}, {self.successes})"
            )
        if (self.alpha is None) != (self.beta is None):
            raise ValueError("binomial reference alpha and beta must be given together")
        if self.alpha is not None and not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"binomial reference parameters must be positive, got ({self.alpha}, {self.beta})"
            )

    def _check_normal(self) -> None:
        if self.successes is not None or self.alpha is not None or self.beta is not None:
            raise ValueError(f"{self.variant} evidence takes no binomial fields")
        if self.lognormal_samples:
            if self.samples is None or len(self.samples) == 0:
                raise ValueError("lognormal-sample evidence requires a non-empty samples list")
            if self.count is not None or self.sample_mean is not None or self.sample_var is not None:
                raise ValueError(
                    "lognormal-sample evidence derives count/mean/variance from the samples"
                )
        else:
            if self.samples is not None:
                raise ValueError("raw samples require the lognormal_samples flag")
            if self.count is None or self.sample_mean is None:
                raise ValueError(f"{self.variant} evidence requires count and sample_mean")
        if self.variant == NORMAL_KNOWN_VAR:
            if self.sample_var is not None:
                raise ValueError("normal_known_var takes variance, not sample_var")
            if self.variance is None:
                raise ValueError("normal_known_var evidence requires variance")
            if not self.variance > 0.0:
                raise ValueError(f"known variance must be positive, got {self.variance}")
            if not self.lognormal_samples and self.count < 1:
                raise ValueError(f"count must be >= 1, got {self.count}")
        else:
            if self.variance is not None:
                raise ValueError("normal_unknown_var takes sample_var, not variance")
            if not self.lognormal_samples:
                if self.count < 4:
                    raise ValueError(
                        f"unknown-variance evidence requires count >= 4, got {self.count}"
                    )
                if self.sample_var is None or not self.sample_var > 0.0:
                    raise ValueError(f"sample_var must be positive, got {self.sample_var}")
            elif len(self.samples) < 4:
                raise ValueError(
                    f"unknown-variance evidence requires at least 4 samples, got {len(self.samples)}"
                )


def normal_known_var(count: int, sample_mean: float, variance: float) -> LikelihoodApprox:
    """Mean of ``count`` draws with known per-draw variance: (mean, variance/count)."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not variance > 0.0:
        raise ValueError(f"variance must be positive, got {variance}")
    return LikelihoodApprox(sample_mean, variance / count)


def normal_unknown_var(count: int, sample_mean: float, sample_var: float) -> LikelihoodApprox:
    """Mean of ``count`` draws with estimated variance: (mean, sample_var/(count - 3)).

    The divisor ``count - 3`` absorbs the extra spread of the Student
    sampling distribution, and forces ``count >= 4``.
    """
    if count < 4:
        raise ValueError(f"unknown-variance evidence requires count >= 4, got {count}")
    if not sample_var > 0.0:
        raise ValueError(f"sample_var must be positive, got {sample_var}")
    return LikelihoodApprox(sample_mean, sample_var / (count - 3))


def binomial(count: int, successes: int, alpha: float, beta: float) -> LikelihoodApprox:
    """Binomial counts as a Gaussian observation of the log-odds.

    With reference Beta(alpha, beta), the log-odds moments before and
    after observing ``successes`` out of ``count`` are

        x1 = psi(alpha) - psi(beta)            v1 = psi'(alpha) + psi'(beta)
        x2 = psi(alpha+s) - psi(beta+count-s)  v2 = psi'(alpha+s) + psi'(beta+count-s)

    and the equivalent single observation is v = 1/(1/v2 - 1/v1),
    d = v*(x2/v2 - x1/v1).  The construction is exact in the sense that
    pooling (x1, v1) with (d, v) reproduces (x2, v2).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 0 <= successes <= count:
        raise ValueError(f"successes must lie in [0, {count}], got {successes}")
    if not (alpha > 0.0 and beta > 0.0):
        raise ValueError(f"reference parameters must be positive, got ({alpha}, {beta})")
    x1, v1 = beta_to_moments(BetaParams(alpha, beta))
    x2, v2 = beta_to_moments(BetaParams(alpha + successes, beta + count - successes))
    if not v2 < v1:
        raise ValueError(
            f"observation adds no precision (v2 = {v2} >= v1 = {v1}); "
            "this arises only for an empty experiment"
        )
    v = 1.0 / (1.0 / v2 - 1.0 / v1)
    d = v * (x2 / v2 - x1 / v1)
    return LikelihoodApprox(d, v)


def _binomial_array(
    count: np.ndarray,
    successes: np.ndarray,
    alpha: np.ndarray,
    beta: np.ndarray,
    prior: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`binomial` for arrays of observations, in one polygamma pass: ``(d, v, done)``.

    ``prior``, when given, has two rows: the log-odds mean x1 and variance
    v1 of each reference Beta(alpha, beta) where the caller has them already
    (from the same polygammas), and NaN elsewhere; the pass computes only
    the others.
    Where ``done`` is True, ``d`` and ``v`` are :func:`binomial`'s bit for
    bit; it is False exactly where :func:`binomial` raises.
    """
    with np.errstate(all="ignore"):
        alpha2, beta2 = alpha + successes, beta + count - successes
        x1, v1 = np.full((2, len(alpha)), math.nan) if prior is None else np.array(prior)
        need = ~(np.isfinite(x1) & np.isfinite(v1))
        x, var = _beta_to_moments_lockstep(
            np.append(alpha[need], alpha2), np.append(beta[need], beta2)
        )
        k = len(x) - len(alpha2)
        x1[need], v1[need] = x[:k], var[:k]
        x2, v2 = x[k:], var[k:]
        v = 1.0 / (1.0 / v2 - 1.0 / v1)
        d = v * (x2 / v2 - x1 / v1)
    done = (count >= 1.0) & (0.0 <= successes) & (successes <= count) & (alpha > 0.0) & (beta > 0.0)
    done &= np.isfinite([alpha, beta, alpha2, beta2]).all(axis=0) & (v2 < v1)
    return d, v, done & np.isfinite(d) & np.isfinite(v) & (v > 0.0)


def pool(items: list[LikelihoodApprox]) -> LikelihoodApprox:
    """Combine observations on one parameter by precision weighting.

    Precisions are taken relative to the largest: with v_min the smallest
    variance and r_i = v_min / v_i <= 1, the result is v = v_min / sum r_i
    and d = sum d_i r_i / sum r_i.  No reciprocal of a tiny variance is
    formed, and one observation comes back bit for bit (r = 1.0).  A
    pooled variance below the smallest float raises ``ValueError``.
    """
    if not items:
        raise ValueError("cannot pool an empty list of observations")
    v_min = min(it.v for it in items)
    total, weighted = 0.0, -0.0  # -0.0 + x is x, for x = -0.0 too
    for it in items:
        r = v_min / it.v
        total += r
        weighted += it.d * r
    v = v_min / total
    if v == 0.0:
        raise ValueError(f"the pooled variance {v_min!r} / {total!r} underflows to 0")
    return LikelihoodApprox(weighted / total, v)


def lognormal_sample_adapter(
    samples: list[float] | tuple[float, ...], t: Transform
) -> tuple[int, float, float]:
    """Summary statistics of log-transformed samples: (count, mean, variance).

    Each sample is mapped through the transform; the variance uses the
    divisor-count convention.  Samples outside the transform's support
    raise a ``ValueError`` naming the offending index.
    """
    if t.kind != LOG_SCALED:
        raise ValueError(f"sample adapter requires a log_scaled transform, got {t.kind}")
    if not samples:
        raise ValueError("sample adapter requires at least one sample")
    xs = []
    for i, y in enumerate(samples):
        if not t.contains(y):
            raise ValueError(
                f"sample {i} (value {y}) is outside the transform support {t.support()}"
            )
        xs.append(forward_point(t, y))
    count = len(xs)
    mean = sum(xs) / count
    var = sum((x - mean) ** 2 for x in xs) / count
    return count, mean, var


def to_likelihood(
    spec: EvidenceSpec,
    parent_transform: Transform,
    parent_prior: PriorSpec | None,
) -> LikelihoodApprox:
    """Resolve an evidence declaration against its parent into (d, v).

    Binomial evidence without explicit reference parameters inherits the
    parent's Beta prior when there is one and falls back to 0.5/0.5.
    Raw-sample normal evidence is summarised through
    :func:`lognormal_sample_adapter` with the parent's transform.
    """
    if spec.variant == BINOMIAL:
        return binomial(spec.count, spec.successes, *_reference(spec, parent_prior))

    if spec.lognormal_samples:
        count, mean, var = lognormal_sample_adapter(spec.samples, parent_transform)
        if spec.variant == NORMAL_KNOWN_VAR:
            return normal_known_var(count, mean, spec.variance)
        if var <= 0.0:
            raise ValueError(
                "transformed samples are all identical; unknown-variance evidence "
                "needs positive spread"
            )
        return normal_unknown_var(count, mean, var)

    if spec.variant == NORMAL_KNOWN_VAR:
        return normal_known_var(spec.count, spec.sample_mean, spec.variance)
    return normal_unknown_var(spec.count, spec.sample_mean, spec.sample_var)


def _reference(spec: EvidenceSpec, parent_prior: PriorSpec | None) -> tuple[float, float]:
    """The reference (alpha, beta) of binomial evidence, as :func:`to_likelihood` picks it."""
    if spec.alpha is not None:
        return spec.alpha, spec.beta
    if parent_prior is not None and parent_prior.family == "beta":
        return parent_prior.alpha, parent_prior.beta
    return _DEFAULT_REFERENCE, _DEFAULT_REFERENCE
