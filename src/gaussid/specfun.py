"""Polygamma functions and moment maps for Beta distributions.

The digamma function ``psi(z) = d/dz ln Gamma(z)`` and its first two
derivatives are evaluated by shifting the argument up by ten through the
recurrence ``psi(z) = psi(z + 1) - 1/z`` and closing with a short
asymptotic series in ``w = z + 10``.  Ten shift terms keep the absolute
error below 1e-10 for digamma and trigamma and below 1e-9 for the second
derivative on all arguments this library produces (z >= 0.5, the floor
:func:`beta_from_moments` keeps its iterates on).

The moment maps connect a Beta(alpha, beta) distribution on (0, 1) to the
mean and variance of the log-odds ``X = ln(Y / (1 - Y))``:

    E X   = psi(alpha) - psi(beta)
    Var X = psi'(alpha) + psi'(beta)

:func:`beta_from_moments` inverts that map with a damped Newton iteration
(:func:`_beta_to_moments_lockstep` evaluates it on arrays, bit for bit).
:func:`_beta_from_moments_lockstep` runs the same iteration on arrays of
moments at once: each Newton step is one pass of array arithmetic over the
entries that have not yet converged, in the scalar routine's order of
operations, with its logarithms and exponentials taken by :mod:`math` one
entry at a time, so every iterate, and the result, is bit-identical to
:func:`beta_from_moments`.  Entries that meet a singular Jacobian, or
that end anywhere but at a converged finite point, are reported as
unfinished rather than raised, for the caller to redo with the scalar
routine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
_SHIFTS = np.arange(float(_SHIFT))[:, None]

# Newton iteration controls.
_MAX_NEWTON = 100
_RESIDUAL_TOL = 1e-10
_STEP_TOL = 1e-12
_PARAM_FLOOR = 0.5


class ConvergenceError(RuntimeError):
    """Newton's method ran out of iterations or met a singular Jacobian.

    The last iterate reached is attached so callers can report how close
    the search got.
    """

    def __init__(self, message: str, last_iterate: tuple[float, float]):
        super().__init__(message)
        self.last_iterate = last_iterate


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a Beta(alpha, beta) distribution; both must be finite and > 0."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < math.inf and 0.0 < self.beta < math.inf):
            raise ValueError(
                f"Beta parameters must be finite and positive, got ({self.alpha}, {self.beta})"
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

    Raises :class:`ConvergenceError` at a singular Jacobian or after 100
    iterations, and ``ValueError`` for ``var <= 0``.
    """
    if not var > 0.0:
        raise ValueError(f"log-odds variance must be positive, got {var}")
    if not math.isfinite(mean) or not math.isfinite(var):
        raise ValueError(f"log-odds moments must be finite, got ({mean}, {var})")

    alpha, beta = _initial_guess(mean, var)
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
        # det = psi'(a) psi''(b) + psi'(b) psi''(a) < 0 but where both terms
        # underflow (a, b >~ 1e100) or a parameter is infinite: no small step
        # leaves either state, so the search ends here.
        if det == 0.0 or not math.isfinite(det):
            raise ConvergenceError(
                "singular Jacobian while inverting Beta moment map", (alpha, beta)
            )

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


def _polygammas_lockstep(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_polygammas` over an array of positive arguments, bit for bit.

    Row i holds the shift term z + i; ``add.accumulate`` sums the rows in
    order, as the scalar loop does (it starts from 0.0, so subtracting each
    term is negating the running sum of the terms).  The terms are formed
    in two buffers, in place, which keeps the transient memory of a large
    family small.  Where a tiny z's powers underflow or their reciprocals
    overflow, the divisions give the scalar loop's infinities, with numpy
    warnings that callers silence.
    """
    d = z + _SHIFTS
    t = np.divide(1.0, d)
    psi = -np.add.accumulate(t, out=t)[-1]
    np.multiply(d, d, out=t)  # d^2
    d *= t  # d^3
    np.divide(2.0, d, out=d)
    psi2 = -np.add.accumulate(d, out=d)[-1]
    np.divide(1.0, t, out=t)
    psi1 = np.add.accumulate(t, out=t)[-1]
    w = z + _SHIFT
    iw = 1.0 / w
    iw2 = iw * iw
    log_w = np.array([math.log(v) for v in w.tolist()])
    return (
        psi + log_w - 0.5 * iw - iw2 * (1.0 / 12.0 - iw2 * (1.0 / 120.0 - iw2 / 252.0)),
        psi1 + iw + 0.5 * iw2 + iw * iw2 * (
            1.0 / 6.0 - iw2 * (1.0 / 30.0 - iw2 / 42.0 + iw2 * iw2 / 30.0)
        ),
        psi2 - iw2 - iw * iw2 - 0.5 * iw2 * iw2 + iw2 * iw2 * (iw2 / 6.0 - iw2 * iw2 / 6.0),
    )


def _beta_to_moments_lockstep(alpha: np.ndarray, beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`beta_to_moments` for arrays of parameters, bit for bit, in one polygamma pass."""
    k = len(alpha)
    with np.errstate(all="ignore"):
        psi, psi1, _ = _polygammas_lockstep(np.concatenate([alpha, beta]))
        return psi[:k] - psi[k:], psi1[:k] + psi1[k:]


def _beta_from_moments_lockstep(
    mean: np.ndarray, var: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`beta_from_moments` for arrays of moments: ``(alpha, beta, done)``.

    Runs the scalar routine's Newton iteration on all entries together, from
    its start point, with its floor, tolerances and order of operations; an
    entry leaves the iteration when it converges.  Where ``done`` is True,
    ``alpha`` and ``beta`` equal the scalar routine's result bit for bit.
    ``done`` is False, and ``alpha`` and ``beta`` are undefined, for every
    entry the scalar routine would reject, find a singular Jacobian at or
    fail to converge on, and for any step that is not finite; the scalar
    routine decides those entries.
    """
    alpha = np.full(mean.shape, math.nan)
    beta = np.full(mean.shape, math.nan)
    done = np.zeros(mean.shape, dtype=bool)
    act = np.flatnonzero((var > 0.0) & np.isfinite(mean) & np.isfinite(var))
    m, v = mean[act], var[act]
    e_pos = np.array([math.exp(x) for x in np.minimum(m, 700.0).tolist()])
    e_neg = np.array([math.exp(x) for x in np.minimum(-m, 700.0).tolist()])
    with np.errstate(all="ignore"):
        a, b = 0.5 + (1.0 + e_pos) / v, 0.5 + (1.0 + e_neg) / v
        keep = np.isfinite(a) & np.isfinite(b)
        act, m, v, a, b = act[keep], m[keep], v[keep], a[keep], b[keep]
        for _ in range(_MAX_NEWTON):
            if not act.size:
                break
            k = act.size
            psi, psi1, psi2 = _polygammas_lockstep(np.concatenate([a, b]))
            psi_a, psi_b = psi[:k], psi[k:]
            j11, psi1_b = psi1[:k], psi1[k:]
            j21, j22 = psi2[:k], psi2[k:]
            f1 = psi_a - psi_b - m
            f2 = j11 + psi1_b - v
            hit = (np.abs(f1) < _RESIDUAL_TOL) & (np.abs(f2) < _RESIDUAL_TOL)
            alpha[act[hit]], beta[act[hit]], done[act[hit]] = a[hit], b[hit], True

            j12 = -psi1_b
            det = j11 * j22 - j12 * j21
            step_a = (j22 * f1 - j12 * f2) / det
            step_b = (-j21 * f1 + j11 * f2) / det
            a = np.maximum(a - step_a, _PARAM_FLOOR)
            b = np.maximum(b - step_b, _PARAM_FLOOR)
            # A singular or non-finite Jacobian raises in the scalar routine,
            # and a NaN step meets Python's max(); both go back to it.
            ok = ~hit & (det != 0.0) & np.isfinite(det) & np.isfinite(step_a) & np.isfinite(step_b)
            small = ok & (np.maximum(np.abs(step_a), np.abs(step_b)) < _STEP_TOL)
            alpha[act[small]], beta[act[small]], done[act[small]] = a[small], b[small], True
            go = ok & ~small
            act, m, v, a, b = act[go], m[go], v[go], a[go], b[go]
    return alpha, beta, done
