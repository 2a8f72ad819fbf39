"""Variable transforms and the moment maps between natural and transformed scales.

Every model quantity Y is carried into an unbounded variable X through one
of three invertible maps, parameterised by reference points ``a`` and ``b``:

* ``scaled``           X = (Y - a) / (b - a)           (affine, support: all reals)
* ``log_scaled``       X = ln((Y - a) / (b - a))       (support: Y on the b-side of a)
* ``logistic_scaled``  X = ln((Y - a) / (b - Y))       (support: Y strictly between a and b)

``a > b`` is legal and flips the support interval; the derivative formulas
below are signed so that they remain the true d X / d Y in either
orientation.

Moment maps translate a prior on Y into (mean, variance) of X and back:

* ``normal`` priors treat X as Gaussian with the affinely mapped moments
  (exact for the ``scaled`` transform).
* ``lognormal`` priors on a ``log_scaled`` quantity use the exact
  lognormal moment identities in both directions.
* ``beta`` priors on a ``logistic_scaled`` quantity map through the
  polygamma identities in :mod:`gaussid.specfun`; the inverse direction
  recovers Beta parameters by Newton inversion and then reports the exact
  Beta mean and variance rescaled to (a, b).

:func:`inverse_moments` maps one quantity; ``_inverse_moments_array`` maps
many quantities of one family at once, bit-identically, and leaves any entry
it cannot finish to the scalar map.  ``_TransformArrays`` likewise gives the
point maps and derivatives of many transforms at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import BetaParams, _beta_from_moments_lockstep, beta_from_moments, beta_to_moments

__all__ = [
    "SCALED",
    "LOG_SCALED",
    "LOGISTIC_SCALED",
    "TRANSFORM_KINDS",
    "Transform",
    "MomentPair",
    "PriorSpec",
    "forward_point",
    "inverse_point",
    "derivative",
    "forward_moments",
    "inverse_moments",
]

SCALED = "scaled"
LOG_SCALED = "log_scaled"
LOGISTIC_SCALED = "logistic_scaled"
TRANSFORM_KINDS = (SCALED, LOG_SCALED, LOGISTIC_SCALED)

NORMAL = "normal"
LOGNORMAL = "lognormal"
BETA = "beta"
PRIOR_FAMILIES = (NORMAL, LOGNORMAL, BETA)

# Which transform kind each prior family requires.
FAMILY_TRANSFORMS = {
    NORMAL: SCALED,
    LOGNORMAL: LOG_SCALED,
    BETA: LOGISTIC_SCALED,
}


@dataclass(frozen=True)
class Transform:
    """One of the three scale maps, with its reference points."""

    kind: str
    a: float
    b: float

    def __post_init__(self) -> None:
        if self.kind not in TRANSFORM_KINDS:
            raise ValueError(
                f"unknown transform kind {self.kind!r}; expected one of {TRANSFORM_KINDS}"
            )
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(f"transform reference points must be finite, got a={self.a}, b={self.b}")
        if self.a == self.b:
            raise ValueError(f"transform reference points must differ, got a = b = {self.a}")

    def support(self) -> tuple[float, float]:
        """Open interval of natural-scale values, as an ascending (lo, hi) pair."""
        if self.kind == SCALED:
            return (-math.inf, math.inf)
        if self.kind == LOG_SCALED:
            # Y must lie on the b side of a so (Y - a)/(b - a) > 0.
            return (self.a, math.inf) if self.a < self.b else (-math.inf, self.a)
        return (min(self.a, self.b), max(self.a, self.b))

    def contains(self, y: float) -> bool:
        """True when y lies strictly inside the support."""
        lo, hi = self.support()
        return lo < y < hi


@dataclass(frozen=True)
class MomentPair:
    """A (mean, variance) pair; the variance must be finite and >= 0."""

    mean: float
    variance: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.mean):
            raise ValueError(f"mean must be finite, got {self.mean}")
        if not (math.isfinite(self.variance) and self.variance >= 0.0):
            raise ValueError(f"variance must be finite and >= 0, got {self.variance}")


@dataclass(frozen=True)
class PriorSpec:
    """A marginal prior for one basic quantity, tied to its transform.

    ``normal`` and ``lognormal`` priors are given by natural-scale mean and
    variance; ``beta`` priors by (alpha, beta).  The family fixes which
    transform kind is legal, and the prior mean must lie inside the
    transform's support.
    """

    family: str
    transform: Transform
    mean: float | None = None
    variance: float | None = None
    alpha: float | None = None
    beta: float | None = None

    def __post_init__(self) -> None:
        if self.family not in PRIOR_FAMILIES:
            raise ValueError(
                f"unknown prior family {self.family!r}; expected one of {PRIOR_FAMILIES}"
            )
        required = FAMILY_TRANSFORMS[self.family]
        if self.transform.kind != required:
            raise ValueError(
                f"{self.family} priors require the {required} transform, "
                f"got {self.transform.kind}"
            )
        if self.family == BETA:
            if self.mean is not None or self.variance is not None:
                raise ValueError("beta priors take alpha/beta, not mean/variance")
            if self.alpha is None or self.beta is None:
                raise ValueError("beta priors require alpha and beta")
            BetaParams(self.alpha, self.beta)  # positivity check
        else:
            if self.alpha is not None or self.beta is not None:
                raise ValueError(f"{self.family} priors take mean/variance, not alpha/beta")
            if self.mean is None or self.variance is None:
                raise ValueError(f"{self.family} priors require mean and variance")
            if not math.isfinite(self.mean):
                raise ValueError(f"prior mean must be finite, got {self.mean}")
            if not (math.isfinite(self.variance) and self.variance > 0.0):
                raise ValueError(f"prior variance must be positive, got {self.variance}")
            if not self.transform.contains(self.mean):
                raise ValueError(
                    f"prior mean {self.mean} lies outside the transform support "
                    f"{self.transform.support()}"
                )


def _ratio(t: Transform, y: float) -> float:
    if not t.contains(y):
        raise ValueError(
            f"value {y} is outside the support {t.support()} of the {t.kind} transform"
        )
    if t.kind == LOGISTIC_SCALED:
        return (y - t.a) / (t.b - y)
    return (y - t.a) / (t.b - t.a)


def forward_point(t: Transform, y: float) -> float:
    """Map a natural-scale value to the transformed scale."""
    if t.kind == SCALED:
        return (y - t.a) / (t.b - t.a)
    return math.log(_ratio(t, y))


def inverse_point(t: Transform, x: float) -> float:
    """Map a transformed value back to the natural scale."""
    if t.kind == SCALED:
        return t.a + (t.b - t.a) * x
    if t.kind == LOG_SCALED:
        return t.a + (t.b - t.a) * math.exp(x)
    # logistic: b + (a - b) / (1 + e^x), which tends to a as x -> -inf
    # and to b as x -> +inf, in either orientation of (a, b).  The two
    # algebraically equal branches keep exp() from overflowing.
    if x > 0.0:
        e = math.exp(-x)
        return t.b + (t.a - t.b) * e / (1.0 + e)
    return t.b + (t.a - t.b) / (1.0 + math.exp(x))


def derivative(t: Transform, y: float) -> float:
    """d X / d Y at y: the local scale factor used for linearization.

    Signed formulas, valid in both orientations of (a, b):

        scaled            1 / (b - a)
        log_scaled        1 / (y - a)
        logistic_scaled   1 / (y - a) + 1 / (b - y)
    """
    if t.kind == SCALED:
        return 1.0 / (t.b - t.a)
    if not t.contains(y):
        raise ValueError(
            f"value {y} is outside the support {t.support()} of the {t.kind} transform"
        )
    if t.kind == LOG_SCALED:
        return 1.0 / (y - t.a)
    return 1.0 / (y - t.a) + 1.0 / (t.b - y)


@dataclass(frozen=True, eq=False)
class _TransformArrays:
    """Many transforms, one per entry of an array, for the array forms of the point maps.

    :meth:`contains`, :meth:`forward` and :meth:`derivative` give what
    :meth:`Transform.contains`, :func:`forward_point` and :func:`derivative`
    give entry by entry, bit for bit, and the latter two mark the entries
    where the scalar function raises.  Build with :meth:`of`.
    """

    scaled: np.ndarray  # kind masks
    logistic: np.ndarray
    a: np.ndarray
    b: np.ndarray
    lo: np.ndarray  # the supports' ends
    hi: np.ndarray
    flat: np.ndarray  # 1 / (b - a), the scaled derivative

    @classmethod
    def of(cls, ts: list[Transform], shape: tuple[int, ...]) -> _TransformArrays:
        """The transforms ``ts``, listed in C order, as arrays of ``shape``.

        Each distinct object is read once; few are distinct, for the parser
        makes a repeated transform one object.
        """
        ids = list(map(id, ts))
        objects = dict(zip(ids, ts))
        pos = {i: k for k, i in enumerate(objects)}
        which = np.reshape([pos[i] for i in ids], shape)
        kinds = np.array([t.kind for t in objects.values()])[which]
        a, b, lo, hi = np.array([(t.a, t.b, *t.support()) for t in objects.values()]).T[:, which]
        with np.errstate(over="ignore"):  # inf, as derivative gives, for a subnormal b - a
            flat = 1.0 / (b - a)
        return cls(kinds == SCALED, kinds == LOGISTIC_SCALED, a, b, lo, hi, flat)

    def __getitem__(self, at) -> _TransformArrays:
        return _TransformArrays(*(v[at] for v in vars(self).values()))

    def contains(self, y: np.ndarray) -> np.ndarray:
        return (self.lo < y) & (y < self.hi)

    def forward(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``forward_point`` entrywise, and where it does not raise."""
        with np.errstate(all="ignore"):
            rise = y - self.a
            ratio = np.where(self.logistic, rise / (self.b - y), rise / (self.b - self.a))
        logs = [math.log(r) if r > 0.0 else math.nan for r in ratio.ravel().tolist()]
        x = np.where(self.scaled, ratio, np.reshape(logs, ratio.shape))
        return x, self.scaled | (self.contains(y) & (ratio > 0.0))

    def derivative(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``derivative`` entrywise, and where it does not raise."""
        with np.errstate(all="ignore"):
            near = 1.0 / (y - self.a)
            dx = np.where(self.logistic, near + 1.0 / (self.b - y), near)
        return np.where(self.scaled, self.flat, dx), self.scaled | self.contains(y)


def forward_moments(p: PriorSpec) -> MomentPair:
    """Moments of X implied by a prior on Y."""
    t = p.transform
    if p.family == NORMAL:
        scale = t.b - t.a
        return MomentPair((p.mean - t.a) / scale, p.variance / (scale * scale))
    if p.family == LOGNORMAL:
        # X = ln((Y - a)/(b - a)) is Gaussian when (Y - a)/(b - a) is
        # lognormal; invert the lognormal moment identities.
        scale = t.b - t.a
        m = (p.mean - t.a) / scale
        v = p.variance / (scale * scale)
        if not m > 0.0:
            raise ValueError(
                f"lognormal prior mean {p.mean} is not on the b side of a for {t}"
            )
        sigma2 = math.log(1.0 + v / (m * m))
        mu = math.log(m) - 0.5 * sigma2
        return MomentPair(mu, sigma2)
    # beta
    return MomentPair(*beta_to_moments(BetaParams(p.alpha, p.beta)))


def inverse_moments(family: str, t: Transform, m: MomentPair) -> MomentPair:
    """Natural-scale moments of Y implied by Gaussian moments of X.

    The treatment matches :func:`forward_moments` family by family, so a
    round trip through both maps is the identity up to solver tolerances.
    """
    if family == NORMAL:
        scale = t.b - t.a
        return MomentPair(t.a + scale * m.mean, m.variance * scale * scale)
    if family == LOGNORMAL:
        scale = t.b - t.a
        mean_ratio = math.exp(m.mean + 0.5 * m.variance)
        var_ratio = (math.exp(m.variance) - 1.0) * math.exp(2.0 * m.mean + m.variance)
        return MomentPair(t.a + scale * mean_ratio, var_ratio * scale * scale)
    if family == BETA:
        if m.variance <= 0.0:
            raise ValueError(
                f"beta moment inversion requires a positive variance, got {m.variance}"
            )
        p = beta_from_moments(m.mean, m.variance)
        total = p.alpha + p.beta
        frac_mean = p.alpha / total
        frac_var = p.alpha * p.beta / (total * total * (total + 1.0))
        scale = t.b - t.a
        return MomentPair(t.a + scale * frac_mean, frac_var * scale * scale)
    raise ValueError(f"unknown prior family {family!r}")


def _exp(x: np.ndarray) -> np.ndarray:
    """``math.exp`` entrywise, whose rounding ``np.exp`` does not share.

    Arguments from 709 up give inf: ``math.exp`` overflows just above, and
    any result built on an inf is not finite, so the scalar map redoes it.
    """
    return np.array([math.exp(v) if v < 709.0 else math.inf for v in x.tolist()])


def _inverse_moments_array(
    family: str, a: np.ndarray, b: np.ndarray, mean: np.ndarray, var: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`inverse_moments` for many quantities of one family: ``(mean_y, var_y, done)``.

    Entry i maps Gaussian moments (mean[i], var[i]) of X through the
    transform with reference points (a[i], b[i]).  Where ``done`` is True the
    natural-scale moments equal what :func:`inverse_moments` returns, bit for
    bit.  ``done`` is False wherever the scalar map might raise: moments that
    are not a valid :class:`MomentPair`, a Beta inversion
    :func:`~gaussid.specfun._beta_from_moments_lockstep` did not finish, an
    overflow, or a result that is not finite or has a negative variance.
    """
    scale = b - a
    done = np.isfinite(mean) & np.isfinite(var) & (var >= 0.0)
    with np.errstate(all="ignore"):
        if family == NORMAL:
            mean_y, var_y = a + scale * mean, var * scale * scale
        elif family == LOGNORMAL:
            mean_ratio = _exp(mean + 0.5 * var)
            var_ratio = (_exp(var) - 1.0) * _exp(2.0 * mean + var)
            mean_y, var_y = a + scale * mean_ratio, var_ratio * scale * scale
        elif family == BETA:
            alpha, beta, inverted = _beta_from_moments_lockstep(mean, var)
            total = alpha + beta
            frac_mean = alpha / total
            frac_var = alpha * beta / (total * total * (total + 1.0))
            mean_y, var_y = a + scale * frac_mean, frac_var * scale * scale
            done &= inverted
        else:
            raise ValueError(f"unknown prior family {family!r}")
    done &= np.isfinite(mean_y) & np.isfinite(var_y) & (var_y >= 0.0)
    return mean_y, var_y, done
