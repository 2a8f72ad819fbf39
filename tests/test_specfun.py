"""Polygamma evaluations and the Beta moment maps.

Reference values below were computed with mpmath at 40 decimal digits
and frozen; the closed-form constants (Euler's gamma, pi^2/6, zeta(3))
pin the small-argument cases independently.
"""

import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussid import specfun
from gaussid.specfun import (
    BetaParams,
    ConvergenceError,
    _beta_from_moments_lockstep,
    _beta_to_moments_lockstep,
    _initial_guess,
    _polygammas,
    _polygammas_lockstep,
    beta_from_moments,
    beta_to_moments,
    digamma,
    tetragamma,
    trigamma,
)
from gaussid.solver import _BATCH_MIN
from gaussid.transforms import PriorSpec, Transform, forward_moments

EULER = 0.57721566490153286

# (z, psi(z), psi'(z), psi''(z)) frozen from mpmath (40 dps).
POLYGAMMA_TABLE = [
    (0.1, -10.423754940411076, 101.43329915079275, -2001.8614573783437),
    (0.5, -1.9635100260214235, 4.9348022005446793, -16.82879664423432),
    (1.0, -0.57721566490153286, 1.6449340668482264, -2.4041138063191886),
    (2.0, 0.42278433509846714, 0.64493406684822644, -0.40411380631918857),
    (4.0, 1.2561176684318005, 0.28382295573711533, -0.080039732245114497),
    (8.0, 2.01564147795561, 0.13313701469403143, -0.017699569195767774),
    (10.0, 2.2517525890667211, 0.10516633568168575, -0.011049834970802067),
    (1000.0, 6.9072551956488121, 0.0010005001666666333, -1.0010004999998333e-06),
]


class TestPolygamma:
    @pytest.mark.parametrize("z,psi,psi1,psi2", POLYGAMMA_TABLE)
    def test_frozen_references(self, z, psi, psi1, psi2):
        assert digamma(z) == pytest.approx(psi, abs=1e-8)
        assert trigamma(z) == pytest.approx(psi1, abs=1e-8)
        assert tetragamma(z) == pytest.approx(psi2, abs=1e-7)

    def test_closed_form_constants(self):
        assert digamma(1.0) == pytest.approx(-EULER, abs=1e-10)
        assert digamma(0.5) == pytest.approx(-EULER - 2 * math.log(2), abs=1e-10)
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6, abs=1e-10)
        assert trigamma(0.5) == pytest.approx(math.pi**2 / 2, abs=1e-10)
        assert tetragamma(1.0) == pytest.approx(-2 * 1.2020569031595943, abs=1e-9)

    def test_matches_scipy_on_grid(self):
        zs = np.concatenate([np.linspace(0.1, 5, 200), np.linspace(5, 1000, 200)])
        for z in zs:
            z = float(z)
            assert digamma(z) == pytest.approx(scipy.special.digamma(z), abs=1e-8)
            assert trigamma(z) == pytest.approx(
                scipy.special.polygamma(1, z), abs=1e-8
            )
            assert tetragamma(z) == pytest.approx(
                scipy.special.polygamma(2, z), abs=1e-7
            )

    @given(st.floats(min_value=0.1, max_value=500.0))
    @settings(max_examples=200, deadline=None)
    def test_recurrences(self, z):
        # psi(z+1) = psi(z) + 1/z and the differentiated versions.
        assert digamma(z + 1) == pytest.approx(digamma(z) + 1 / z, abs=1e-8)
        assert trigamma(z + 1) == pytest.approx(trigamma(z) - 1 / z**2, abs=1e-8)
        assert tetragamma(z + 1) == pytest.approx(tetragamma(z) + 2 / z**3, abs=1e-7)

    def test_monotonicity_shape(self):
        zs = np.linspace(0.2, 50, 300)
        psi = [digamma(float(z)) for z in zs]
        assert all(b > a for a, b in zip(psi, psi[1:]))  # psi increasing
        assert all(trigamma(float(z)) > 0 for z in zs)
        assert all(tetragamma(float(z)) < 0 for z in zs)

    @pytest.mark.parametrize("z", [1e-120, 1e-170, 5e-324])
    def test_tiny_arguments_reach_infinity_without_raising(self, z):
        # The leading shift terms -1/z, 1/z^2 and -2/z^3 decide the values here.
        assert digamma(z) == -1.0 / z
        assert trigamma(z) == (1.0 / (z * z) if z * z else math.inf)
        assert tetragamma(z) == -math.inf

    @pytest.mark.parametrize("fn", [digamma, trigamma, tetragamma])
    @pytest.mark.parametrize("z", [0.0, -1.0, -0.5])
    def test_nonpositive_argument_rejected(self, fn, z):
        with pytest.raises(ValueError):
            fn(z)


class TestBetaMoments:
    # ((alpha, beta), (log-odds mean, log-odds variance)) frozen from mpmath.
    FORWARD_TABLE = [
        ((1.0, 1.0), (0.0, 3.2898681336964529)),
        ((2.0, 3.0), (-0.5, 1.0398681336964529)),
        ((8.0, 4.0), (0.75952380952380952, 0.41695997043114675)),
        ((0.5, 0.5), (0.0, 9.8696044010893586)),
        ((5.0, 5.0), (0.0, 0.44264591147423065)),
        ((100.0, 50.0), (0.6981721793101952, 0.030251499890030697)),
    ]

    @pytest.mark.parametrize("params,expected", FORWARD_TABLE)
    def test_forward_map(self, params, expected):
        mean, var = beta_to_moments(BetaParams(*params))
        assert mean == pytest.approx(expected[0], abs=1e-8)
        assert var == pytest.approx(expected[1], abs=1e-8)

    def test_roundtrip_grid(self):
        grid = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
        for alpha in grid:
            for beta in grid:
                mean, var = beta_to_moments(BetaParams(alpha, beta))
                rec = beta_from_moments(mean, var)
                assert rec.alpha == pytest.approx(alpha, rel=1e-6)
                assert rec.beta == pytest.approx(beta, rel=1e-6)

    def test_inverse_hits_target_moments(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            alpha = float(rng.uniform(0.6, 40.0))
            beta = float(rng.uniform(0.6, 40.0))
            mean, var = beta_to_moments(BetaParams(alpha, beta))
            rec = beta_from_moments(mean, var)
            m2, v2 = beta_to_moments(rec)
            assert m2 == pytest.approx(mean, abs=1e-9)
            assert v2 == pytest.approx(var, abs=1e-9)

    def test_floor_guard_holds_for_small_parameters(self):
        # Moments of Beta(0.5, 0.5) sit right at the guard; the inversion
        # must recover them without ever evaluating below the floor
        # (the implementation asserts the floor on every pass).
        mean, var = beta_to_moments(BetaParams(0.5, 0.5))
        rec = beta_from_moments(mean, var)
        assert rec.alpha == pytest.approx(0.5, rel=1e-6)
        assert rec.beta == pytest.approx(0.5, rel=1e-6)

    def test_asymmetric_extremes(self):
        mean, var = beta_to_moments(BetaParams(0.5, 80.0))
        rec = beta_from_moments(mean, var)
        assert rec.alpha == pytest.approx(0.5, rel=1e-5)
        assert rec.beta == pytest.approx(80.0, rel=1e-5)

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_nonpositive_parameters_rejected(self, bad):
        with pytest.raises(ValueError):
            BetaParams(bad, 1.0)
        with pytest.raises(ValueError):
            BetaParams(1.0, bad)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_parameters_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BetaParams(bad, 1.0)
        with pytest.raises(ValueError, match="finite"):
            BetaParams(1.0, bad)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError):
            beta_from_moments(0.0, 0.0)
        with pytest.raises(ValueError):
            beta_from_moments(0.0, -1.0)

    def test_nonfinite_moments_rejected(self):
        with pytest.raises(ValueError):
            beta_from_moments(math.nan, 1.0)
        with pytest.raises(ValueError):
            beta_from_moments(0.0, math.inf)

    def test_convergence_error_carries_last_iterate(self):
        err = ConvergenceError("no luck", (1.5, 2.5))
        assert err.last_iterate == (1.5, 2.5)


def scalar_inversion(mean, var):
    """(alpha, beta) from the scalar routine, or None where it raises."""
    try:
        p = beta_from_moments(mean, var)
    except (ConvergenceError, ValueError):
        return None
    return p.alpha.hex(), p.beta.hex()


# Log-odds variances from 1e-12 to 12, with the two that sit at the edge of
# the inversion's reach: Beta(0.5, 0.5)'s pi^2 (at the floor) and
# Beta(0.45, 0.45)'s 11.83 (beyond it, where Newton fails).
LOG_ODDS_VARIANCES = st.one_of(
    st.floats(-12.0, math.log10(12.0)).map(lambda e: 10.0**e),
    st.sampled_from([math.pi**2, 2.0 * trigamma(0.45)]),
)


# Beta parameters from the subnormals, where psi' overflows, to 1e300.
POSITIVE_PARAMETERS = st.one_of(
    st.floats(5e-324, 10.0), st.floats(-323.5, 300.0).map(lambda e: 10.0**e)
)
T01 = Transform("logistic_scaled", 0.0, 1.0)


def nudged_beta_from_moments(mean, var):
    """The inversion as it stood with a Jacobian nudge: at a singular or
    non-finite Jacobian it moved both parameters up by 1e-6, at most three
    times, before it gave up."""
    if not var > 0.0:
        raise ValueError(f"log-odds variance must be positive, got {var}")
    if not math.isfinite(mean) or not math.isfinite(var):
        raise ValueError(f"log-odds moments must be finite, got ({mean}, {var})")

    alpha, beta = _initial_guess(mean, var)
    nudges = 0
    for _ in range(100):
        assert alpha >= 0.5 and beta >= 0.5
        psi_a, j11, j21 = _polygammas(alpha)
        psi_b, psi1_b, j22 = _polygammas(beta)
        f1 = psi_a - psi_b - mean
        f2 = j11 + psi1_b - var
        if abs(f1) < 1e-10 and abs(f2) < 1e-10:
            return BetaParams(alpha, beta)

        j12 = -psi1_b
        det = j11 * j22 - j12 * j21
        if det == 0.0 or not math.isfinite(det):
            if nudges >= 3:
                raise ConvergenceError(
                    "singular Jacobian while inverting Beta moment map",
                    (alpha, beta),
                )
            nudges += 1
            alpha += 1e-6
            beta += 1e-6
            continue

        step_a = (j22 * f1 - j12 * f2) / det
        step_b = (-j21 * f1 + j11 * f2) / det
        alpha = max(alpha - step_a, 0.5)
        beta = max(beta - step_b, 0.5)
        if max(abs(step_a), abs(step_b)) < 1e-12:
            return BetaParams(alpha, beta)

    raise ConvergenceError(
        f"Beta moment inversion did not converge for mean={mean}, var={var}",
        (alpha, beta),
    )


def inversion_outcome(invert, mean, var):
    """(alpha, beta) in hex, or the type and message of what ``invert`` raises."""
    try:
        p = invert(mean, var)
    except (ConvergenceError, ValueError) as err:
        return type(err), str(err)
    return p.alpha.hex(), p.beta.hex()


class TestSingularJacobian:
    """A singular Jacobian ends the inversion at once: no nudge ever helped."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.floats(-800.0, 800.0),
        st.one_of(
            st.floats(5e-324, 1e3),
            st.floats(-320.0, 3.0).map(lambda e: 10.0**e),
        ),
    )
    def test_outcomes_equal_the_nudged_routine(self, mean, var):
        assert inversion_outcome(beta_from_moments, mean, var) == inversion_outcome(
            nudged_beta_from_moments, mean, var
        )

    @pytest.mark.parametrize("mean,var", [(0.0, 1e-320), (800.0, 1e-320), (700.0, 1e-10)])
    def test_a_singular_jacobian_raises_at_the_first_iterate(self, monkeypatch, mean, var):
        calls = []
        polygammas = specfun._polygammas
        monkeypatch.setattr(specfun, "_polygammas", lambda z: calls.append(z) or polygammas(z))
        with pytest.raises(ConvergenceError, match="singular Jacobian") as info:
            beta_from_moments(mean, var)
        assert len(calls) == 2
        assert info.value.last_iterate == _initial_guess(mean, var)


class TestLockstepInversion:
    """The array Newton iteration reproduces the scalar one bit for bit."""

    def test_polygammas_match_the_scalar_loop_bitwise(self):
        # numpy's log differs from math.log on about 2 in 10^4 of these
        # arguments, so the grid is large enough to catch one.  Below 0.5
        # the grid reaches the subnormals, where psi' and psi'' are infinite
        # and psi is -inf.
        rng = np.random.default_rng(3)
        z = np.concatenate(
            [
                [5e-324, 1e-310, 2.2250738585072014e-308, 1e-162, 1e-108, 0.49999999999999994],
                [0.5, 1.0, 9.5, 10.0, 1e300, 1.7976931348623157e308],
                rng.uniform(0.5, 100.0, 40000),
                0.5 + 10.0 ** rng.uniform(-8, 8, 10000),
                rng.uniform(0.0, 0.5, 10000),
                10.0 ** rng.uniform(-323.5, math.log10(0.5), 10000),
            ]
        )
        with np.errstate(all="ignore"):
            psi, psi1, psi2 = _polygammas_lockstep(z[z > 0.0])
        for k, x in enumerate(z[z > 0.0].tolist()):
            assert _polygammas(x) == (psi[k], psi1[k], psi2[k])

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-700.0, 700.0), LOG_ODDS_VARIANCES),
            min_size=1,
            max_size=2 * _BATCH_MIN + 3,
        )
    )
    def test_done_entries_equal_the_scalar_routine(self, moments):
        mean = np.array([m for m, _ in moments])
        var = np.array([v for _, v in moments])
        alpha, beta, done = _beta_from_moments_lockstep(mean, var)
        for k, (m, v) in enumerate(moments):
            if done[k]:
                assert scalar_inversion(m, v) == (alpha[k].hex(), beta[k].hex())

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-700.0, 700.0), LOG_ODDS_VARIANCES, st.booleans()),
            min_size=1,
            max_size=2 * _BATCH_MIN + 3,
        )
    )
    def test_a_subset_gets_the_bits_of_the_full_batch(self, moments):
        # Entries leave the lockstep iteration one by one, so an entry's
        # iterates must not depend on what else is still iterating.
        mean, var, keep = (np.array(col) for col in zip(*moments))
        alpha, beta, done = _beta_from_moments_lockstep(mean, var)
        sub_alpha, sub_beta, sub_done = _beta_from_moments_lockstep(mean[keep], var[keep])
        assert sub_done.tolist() == done[keep].tolist()
        assert sub_alpha[sub_done].tobytes() == alpha[keep][sub_done].tobytes()
        assert sub_beta[sub_done].tobytes() == beta[keep][sub_done].tobytes()

    def test_entries_newton_cannot_finish_are_handed_back(self):
        good = beta_to_moments(BetaParams(3.0, 7.0))
        diffuse = beta_to_moments(BetaParams(0.45, 0.45))
        mean = np.array([good[0], diffuse[0], 0.0, 1.0, math.nan])
        var = np.array([good[1], diffuse[1], 0.0, -1.0, 1.0])
        alpha, beta, done = _beta_from_moments_lockstep(mean, var)
        assert done.tolist() == [True, False, False, False, False]
        assert scalar_inversion(*good) == (alpha[0].hex(), beta[0].hex())
        with pytest.raises(ConvergenceError):
            beta_from_moments(*diffuse)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(POSITIVE_PARAMETERS, POSITIVE_PARAMETERS), min_size=1, max_size=40
        )
    )
    def test_forward_map_matches_the_prior_map(self, params):
        # The solver maps a Beta prior family through _beta_to_moments_lockstep
        # and sends the entries whose moments are not finite to forward_moments.
        mean, var = _beta_to_moments_lockstep(*(np.array(col) for col in zip(*params)))
        for (a, b), m, v in zip(params, mean.tolist(), var.tolist()):
            prior = PriorSpec(family="beta", transform=T01, alpha=a, beta=b)
            if math.isfinite(m) and math.isfinite(v):
                got = forward_moments(prior)
                assert (got.mean.hex(), got.variance.hex()) == (m.hex(), v.hex())
            else:
                with pytest.raises(ValueError):
                    forward_moments(prior)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(POSITIVE_PARAMETERS, POSITIVE_PARAMETERS, st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    def test_the_forward_map_of_a_subset_has_the_full_bits(self, params):
        # A binomial observation reads its Beta prior's moments from the
        # prior family's pass instead of its own.
        alpha, beta, keep = (np.array(col) for col in zip(*params))
        full = _beta_to_moments_lockstep(alpha, beta)
        part = _beta_to_moments_lockstep(alpha[keep], beta[keep])
        for whole, subset in zip(full, part):
            assert whole[keep].tobytes() == subset.tobytes()

    def test_empty_input(self):
        alpha, beta, done = _beta_from_moments_lockstep(np.zeros(0), np.zeros(0))
        assert alpha.shape == beta.shape == done.shape == (0,)
