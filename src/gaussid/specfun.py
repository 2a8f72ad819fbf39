"""Polygamma functions and moment maps for Beta distributions.

The digamma function ``psi(z) = d/dz ln Gamma(z)`` and its first two
derivatives are evaluated by shifting the argument up by ten through the
recurrence ``psi(z) = psi(z + 1) - 1/z`` and closing with a short
asymptotic series in ``w = z + 10``.  Ten shift terms keep the absolute
error below 1e-10 for digamma and trigamma and below 1e-9 for the second
derivative on all arguments this library produces (z >= 0.1 after the
safeguards in :func:`beta_from_moments`).

The moment maps connect a Beta(alpha, beta) distribution on (0, 1) to the
mean and variance of the log-odds ``X = ln(Y / (1 - Y))``:

    E X   = psi(alpha) - psi(beta)
    Var X = psi'(alpha) + psi'(beta)

:func:`beta_from_moments` inverts that map with a damped Newton iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "BetaParams",
    "ConvergenceError",
    "digamma",
    "trigamma",
    "tetragamma",
    "beta_to_moments",
    "beta_from_moments",
]

# Number of recurrence steps applied before the asymptotic series.
_SHIFT = 10

# Newton iteration controls.
_MAX_NEWTON = 100
_RESIDUAL_TOL = 1e-10
_STEP_TOL = 1e-12
_PARAM_FLOOR = 0.5
_JACOBIAN_NUDGE = 1e-6
_MAX_NUDGES = 3


class ConvergenceError(RuntimeError):
    """Newton's method ran out of iterations or rescue attempts.

    The last iterate reached is attached so callers can report how close
    the search got.
    """

    def __init__(self, message: str, last_iterate: tuple[float, float]):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a Beta(alpha, beta) distribution; both must be > 0."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (self.alpha > 0.0 and self.beta > 0.0):
            raise ValueError(
                f"Beta parameters must be positive, got ({self.alpha}, {self.beta})"
            )


def _require_positive(z: float) -> None:
    if not z > 0.0:
        raise ValueError(f"polygamma functions require a positive argument, got {z}")


def _polygammas(z: float) -> tuple[float, float, float]:
    """(psi(z), psi'(z), psi''(z)) from one pass of the shift recurrence."""
    _require_positive(z)
    psi = psi1 = psi2 = 0.0
    for i in range(_SHIFT):
        d = z + i
        d2 = d * d
        d3 = d2 * d
        psi -= 1.0 / d
        # d2 and d3 underflow to 0 only for z below about 1e-162 and 1e-108,
        # where psi' is inf and psi'' is -inf.
        psi1 += 1.0 / d2 if d2 else math.inf
        psi2 -= 2.0 / d3 if d3 else math.inf
    w = z + _SHIFT
    iw = 1.0 / w
    iw2 = iw * iw
    return (
        psi + math.log(w) - 0.5 * iw - iw2 * (1.0 / 12.0 - iw2 * (1.0 / 120.0 - iw2 / 252.0)),
        psi1 + iw + 0.5 * iw2 + iw * iw2 * (
            1.0 / 6.0 - iw2 * (1.0 / 30.0 - iw2 / 42.0 + iw2 * iw2 / 30.0)
        ),
        psi2 - iw2 - iw * iw2 - 0.5 * iw2 * iw2 + iw2 * iw2 * (iw2 / 6.0 - iw2 * iw2 / 6.0),
    )


def digamma(z: float) -> float:
    """psi(z), absolute error below 1e-8 for z >= 0.1."""
    return _polygammas(z)[0]


def trigamma(z: float) -> float:
    """psi'(z), absolute error below 1e-8 for z >= 0.1."""
    return _polygammas(z)[1]


def tetragamma(z: float) -> float:
    """psi''(z), absolute error below 1e-7 for z >= 0.1."""
    return _polygammas(z)[2]


def beta_to_moments(p: BetaParams) -> tuple[float, float]:
    """Mean and variance of the log-odds of a Beta(alpha, beta) variable."""
    psi_a, psi1_a, _ = _polygammas(p.alpha)
    psi_b, psi1_b, _ = _polygammas(p.beta)
    return psi_a - psi_b, psi1_a + psi1_b


def _initial_guess(mean: float, var: float) -> tuple[float, float]:
    # Matched to the large-parameter behaviour of the forward map; the
    # exponent is clamped so extreme means cannot overflow.
    e_pos = math.exp(min(mean, 700.0))
    e_neg = math.exp(min(-mean, 700.0))
    return 0.5 + (1.0 + e_pos) / var, 0.5 + (1.0 + e_neg) / var


def beta_from_moments(mean: float, var: float) -> BetaParams:
    """Invert :func:`beta_to_moments`: find (alpha, beta) for given log-odds moments.

    Newton iteration on the residuals

        F1 = psi(alpha) - psi(beta) - mean
        F2 = psi'(alpha) + psi'(beta) - var

    with Jacobian rows (psi'(alpha), -psi'(beta)) and
    (psi''(alpha), psi''(beta)).  Iterates are floored at 0.5 so the
    polygamma evaluations stay in their accurate range; convergence is
    declared when both residuals drop below 1e-10 or the step shrinks
    below 1e-12.

    Raises :class:`ConvergenceError` after 100 iterations, and ``ValueError``
    for ``var <= 0``.
    """
    if not var > 0.0:
        raise ValueError(f"log-odds variance must be positive, got {var}")
    if not math.isfinite(mean) or not math.isfinite(var):
        raise ValueError(f"log-odds moments must be finite, got ({mean}, {var})")

    alpha, beta = _initial_guess(mean, var)
    nudges = 0
    for _ in range(_MAX_NEWTON):
        assert alpha >= _PARAM_FLOOR and beta >= _PARAM_FLOOR
        psi_a, j11, j21 = _polygammas(alpha)
        psi_b, psi1_b, j22 = _polygammas(beta)
        f1 = psi_a - psi_b - mean
        f2 = j11 + psi1_b - var
        if abs(f1) < _RESIDUAL_TOL and abs(f2) < _RESIDUAL_TOL:
            return BetaParams(alpha, beta)

        j12 = -psi1_b
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            if nudges >= _MAX_NUDGES:
                raise ConvergenceError(
                    "singular Jacobian while inverting Beta moment map",
                    (alpha, beta),
                )
            nudges += 1
            alpha += _JACOBIAN_NUDGE
            beta += _JACOBIAN_NUDGE
            continue

        step_a = (j22 * f1 - j12 * f2) / det
        step_b = (-j21 * f1 + j11 * f2) / det
        alpha = max(alpha - step_a, _PARAM_FLOOR)
        beta = max(beta - step_b, _PARAM_FLOOR)
        if max(abs(step_a), abs(step_b)) < _STEP_TOL:
            return BetaParams(alpha, beta)

    raise ConvergenceError(
        f"Beta moment inversion did not converge for mean={mean}, var={var}",
        (alpha, beta),
    )
