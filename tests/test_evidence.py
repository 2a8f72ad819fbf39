"""Gaussian likelihood approximations: three designs, pooling, the sample adapter."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gaussid.evidence import (
    EvidenceSpec,
    LikelihoodApprox,
    _binomial_array,
    binomial,
    lognormal_sample_adapter,
    normal_known_var,
    normal_unknown_var,
    pool,
    to_likelihood,
)
from gaussid.specfun import _beta_to_moments_lockstep, digamma, trigamma
from gaussid.transforms import PriorSpec, Transform

# (count, successes, alpha, beta) -> (d, v), frozen from a 40-digit
# polygamma evaluation of the defining identities.  The shifted asymptotic
# series underneath is good to ~1e-11, so the comparisons run at 1e-9.
BINOMIAL_TABLE = [
    (2, 1, 1.0, 1.0, 0.0, 2.1217480348592381),
    (10, 7, 1.0, 1.0, 0.86975741504249519, 0.47747552020226821),
    (10, 5, 1.0, 1.0, 0.0, 0.40757316575325057),
    (50, 30, 1.0, 1.0, 0.40734543603073699, 0.083627880421636352),
    (50, 12, 1.0, 1.0, -1.162109947410028, 0.10945429777589769),
    (1, 1, 0.5, 0.5, 4.9348022005446793, 14.482668357411251),
    (5, 0, 2.0, 3.0, -4.8408713283385415, 3.0905287771154282),
]

T01 = Transform("logistic_scaled", 0.0, 1.0)
TLOG = Transform("log_scaled", 0.0, 1.0)


class TestNormalDesigns:
    def test_known_variance_scales_with_count(self):
        lik = normal_known_var(8, 2.5, 4.0)
        assert lik.d == 2.5
        assert lik.v == pytest.approx(0.5)

    def test_unknown_variance_divisor(self):
        lik = normal_unknown_var(7, -1.0, 8.0)
        assert lik.d == -1.0
        assert lik.v == pytest.approx(2.0)

    def test_known_variance_needs_a_count(self):
        with pytest.raises(ValueError, match="count must be >= 1, got 0"):
            normal_known_var(0, 0.0, 1.0)

    def test_unknown_variance_needs_four(self):
        with pytest.raises(ValueError, match=">= 4"):
            normal_unknown_var(3, 0.0, 1.0)

    def test_bad_variances(self):
        with pytest.raises(ValueError):
            normal_known_var(5, 0.0, 0.0)
        with pytest.raises(ValueError):
            normal_unknown_var(5, 0.0, -1.0)


class TestBinomial:
    @pytest.mark.parametrize("count,successes,alpha,beta,d,v", BINOMIAL_TABLE)
    def test_frozen_values(self, count, successes, alpha, beta, d, v):
        lik = binomial(count, successes, alpha, beta)
        assert lik.d == pytest.approx(d, abs=1e-9)
        assert lik.v == pytest.approx(v, rel=1e-9)

    def test_symmetric_split_is_centred(self):
        lik = binomial(20, 10, 1.0, 1.0)
        assert lik.d == pytest.approx(0.0, abs=1e-12)

    def test_conjugate_fixed_point(self):
        # Pooling the reference moments with (d, v) must land exactly on the
        # updated reference moments — the construction inverts precision pooling.
        grid = [0.5, 1.0, 2.0, 5.0, 10.0]
        for alpha in grid:
            for beta in grid:
                for count, successes in [(1, 0), (1, 1), (10, 7), (30, 4), (50, 25)]:
                    lik = binomial(count, successes, alpha, beta)
                    x1 = digamma(alpha) - digamma(beta)
                    v1 = trigamma(alpha) + trigamma(beta)
                    precision = 1.0 / v1 + 1.0 / lik.v
                    mean = (x1 / v1 + lik.d / lik.v) / precision
                    a2 = alpha + successes
                    b2 = beta + count - successes
                    assert mean == pytest.approx(digamma(a2) - digamma(b2), abs=1e-9)
                    assert 1.0 / precision == pytest.approx(
                        trigamma(a2) + trigamma(b2), rel=1e-9
                    )

    def test_every_observation_adds_precision(self):
        grid = [0.5, 1.0, 2.0, 5.0, 10.0]
        for alpha in grid:
            for beta in grid:
                lik = binomial(1, 1, alpha, beta)
                assert lik.v > 0.0
                assert math.isfinite(lik.d)

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            binomial(0, 0, 1.0, 1.0)
        with pytest.raises(ValueError):
            binomial(5, 6, 1.0, 1.0)
        with pytest.raises(ValueError):
            binomial(5, 2, -1.0, 1.0)


# Positive floats from the subnormals up to 1e300: variances, and reference
# parameters down to where psi' overflows.
POSITIVES = st.one_of(st.floats(5e-324, 10.0), st.floats(-323.5, 300.0).map(lambda e: 10.0**e))


class TestPooling:
    def test_two_equal_variances(self):
        out = pool([LikelihoodApprox(1.0, 2.0), LikelihoodApprox(3.0, 2.0)])
        assert out.d == pytest.approx(2.0)
        assert out.v == pytest.approx(1.0)

    def test_unequal_variances(self):
        out = pool([LikelihoodApprox(0.0, 1.0), LikelihoodApprox(4.0, 3.0)])
        assert out.d == pytest.approx(1.0)
        assert out.v == pytest.approx(0.75)

    def test_single_item_is_identity(self):
        it = LikelihoodApprox(1.5, 0.3)
        out = pool([it])
        assert out.d == pytest.approx(it.d)
        assert out.v == pytest.approx(it.v)

    def test_order_invariance_and_associativity(self):
        items = [
            LikelihoodApprox(1.0, 0.5),
            LikelihoodApprox(-2.0, 3.0),
            LikelihoodApprox(0.25, 1.25),
        ]
        joint = pool(items)
        flipped = pool(items[::-1])
        staged = pool([pool(items[:2]), items[2]])
        assert flipped.d == pytest.approx(joint.d, abs=1e-12)
        assert flipped.v == pytest.approx(joint.v, rel=1e-12)
        assert staged.d == pytest.approx(joint.d, abs=1e-12)
        assert staged.v == pytest.approx(joint.v, rel=1e-12)

    def test_pooling_always_tightens(self):
        items = [LikelihoodApprox(0.0, 1.0), LikelihoodApprox(10.0, 8.0)]
        out = pool(items)
        assert out.v < min(it.v for it in items)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            pool([])

    def test_a_pooled_variance_that_underflows_is_rejected(self):
        looks = [LikelihoodApprox(0.5, 5e-324), LikelihoodApprox(0.5, 5e-324)]
        with pytest.raises(ValueError, match="pooled variance 5e-324 / 2.0 underflows to 0"):
            pool(looks)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False), POSITIVES)
    @example(-1.4695858455634698, 7.640108443576374)  # 1/(1/v) is not v
    @example(0.5, 1e-320)  # 1/v overflows
    def test_one_observation_comes_back_bit_for_bit(self, d, v):
        out = pool([LikelihoodApprox(d, v)])
        assert (out.d.hex(), out.v.hex()) == (d.hex(), v.hex())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), POSITIVES), min_size=1, max_size=6))
    def test_agrees_with_the_reciprocal_form(self, looks):
        # The textbook v = 1/sum(1/v_i), d = v sum(d_i/v_i), where its terms
        # neither overflow nor lose precision to subnormals.
        precisions, weights = [1.0 / v for _, v in looks], [d / v for d, v in looks]
        assume(all(p >= sys.float_info.min for p in precisions))
        assume(all(abs(w) >= sys.float_info.min or d == 0.0 for w, (d, _) in zip(weights, looks)))
        precision, weighted = sum(precisions), sum(weights)
        assume(math.isfinite(precision) and math.isfinite(weighted))
        want_v = 1.0 / precision
        want_d = want_v * weighted
        assume(want_d == 0.0 or abs(want_d) >= sys.float_info.min)
        out = pool([LikelihoodApprox(d, v) for d, v in looks])
        assert out.v == pytest.approx(want_v, rel=1e-12, abs=0.0)
        # d is a weighted mean: its error scales with the mean of |d_i|.
        scale = want_v * sum(abs(w) for w in weights)
        assert out.d == pytest.approx(want_d, rel=1e-12, abs=1e-12 * scale)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1.7e308, 1.7e308), POSITIVES), min_size=1, max_size=6))
    @example([(1.5e308, 1.0), (1.5e308, 1.0)])  # the plain weighted sum overflows
    @example([(1.7e308, 1.0), (-1.7e308, 2.0), (1.7e308, 1.0)])
    def test_a_power_of_two_on_every_mean_scales_the_pooled_mean(self, looks):
        # Scaling is exact away from the subnormals, so the sum that pool
        # redoes on scaled means, where the plain one overflows, gives the
        # bits of the plain one's exact rounding, as does any other scale.
        v_min = min(v for _, v in looks)
        assume(all(d == 0.0 or abs(d * (v_min / v)) >= 2.0**-1000 for d, v in looks))
        assume(v_min / sum(v_min / v for _, v in looks) > 0.0)
        out = pool([LikelihoodApprox(d, v) for d, v in looks])
        small = pool([LikelihoodApprox(d * 2.0**-16, v) for d, v in looks])
        assume(out.d == 0.0 or abs(out.d) >= 2.0**-1000)
        assert out.d.hex() == (small.d * 2.0**16).hex() and out.v.hex() == small.v.hex()


def outcome(fn, *args):
    """The hex bits of ``fn(*args)``'s (d, v), or None where it raises."""
    try:
        like = fn(*args)
    except (ValueError, ArithmeticError):
        return None
    return like.d.hex(), like.v.hex()


@st.composite
def binomial_observations(draw):
    """(count, successes, alpha, beta), a few of them outside binomial's domain."""
    count = draw(st.integers(0, 500))
    successes = draw(st.integers(-1, count + 1))
    return count, successes, draw(st.one_of(POSITIVES, st.just(0.0))), draw(POSITIVES)


class TestArrayForms:
    """The array binomial map gives the scalar bits, or marks the entries
    where the scalar function raises."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(binomial_observations(), min_size=1, max_size=40))
    def test_binomial_array_matches_binomial(self, observations):
        d, v, done = _binomial_array(*(np.array(col, dtype=float) for col in zip(*observations)))
        got = [(x.hex(), y.hex()) if ok else None for x, y, ok in zip(d, v, done)]
        assert got == [outcome(binomial, *obs) for obs in observations]

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(binomial_observations(), st.booleans()), min_size=1, max_size=40))
    def test_reference_moments_passed_in_give_the_same_bits(self, drawn):
        # The solver passes in the moments of each reference that is the
        # parent's Beta prior, from the prior family's own polygamma pass.
        cols = [np.array(col, dtype=float) for col in zip(*(obs for obs, _ in drawn))]
        known = np.array([k for _, k in drawn])
        with np.errstate(all="ignore"):
            x1, v1 = _beta_to_moments_lockstep(cols[2], cols[3])
        prior = np.where(known, [x1, v1], math.nan)
        want = _binomial_array(*cols)
        got = _binomial_array(*cols, prior=prior)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    def test_an_observation_that_adds_no_precision_is_marked(self):
        # Reference alpha 1e-160: v1 = inf, and with no success v2 = inf too.
        ones = np.ones(2)
        _, _, done = _binomial_array(10.0 * ones, np.array([0.0, 3.0]), 1e-160 * ones, ones)
        assert done.tolist() == [False, True]
        assert outcome(binomial, 10, 0, 1e-160, 1.0) is None


class TestSampleAdapter:
    def test_identical_samples(self):
        count, mean, var = lognormal_sample_adapter([math.e, math.e], TLOG)
        assert count == 2
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_spread_samples(self):
        count, mean, var = lognormal_sample_adapter([1.0, math.e**2], TLOG)
        assert count == 2
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(1.0)

    def test_offset_transform(self):
        t = Transform("log_scaled", 1.0, 3.0)
        # (y - 1)/2 = e^x  ->  samples 1 + 2e give x = 1.
        count, mean, var = lognormal_sample_adapter([1.0 + 2.0 * math.e], t)
        assert count == 1
        assert mean == pytest.approx(1.0)
        assert var == pytest.approx(0.0, abs=1e-15)

    def test_out_of_support_sample_names_index(self):
        with pytest.raises(ValueError, match="sample 1"):
            lognormal_sample_adapter([2.0, -1.0, 3.0], TLOG)

    def test_requires_a_sample(self):
        with pytest.raises(ValueError, match="at least one sample"):
            lognormal_sample_adapter([], TLOG)

    def test_requires_log_transform(self):
        with pytest.raises(ValueError, match="log_scaled"):
            lognormal_sample_adapter([1.0], Transform("scaled", 0.0, 1.0))


class TestToLikelihood:
    def test_binomial_explicit_reference_wins(self):
        spec = EvidenceSpec(variant="binomial", count=10, successes=7, alpha=2.0, beta=3.0)
        prior = PriorSpec(family="beta", transform=T01, alpha=5.0, beta=5.0)
        lik = to_likelihood(spec, T01, prior)
        ref = binomial(10, 7, 2.0, 3.0)
        assert (lik.d, lik.v) == (ref.d, ref.v)

    def test_binomial_inherits_parent_beta(self):
        spec = EvidenceSpec(variant="binomial", count=10, successes=7)
        prior = PriorSpec(family="beta", transform=T01, alpha=2.0, beta=3.0)
        lik = to_likelihood(spec, T01, prior)
        ref = binomial(10, 7, 2.0, 3.0)
        assert (lik.d, lik.v) == (ref.d, ref.v)

    def test_binomial_default_reference(self):
        spec = EvidenceSpec(variant="binomial", count=1, successes=1)
        lik = to_likelihood(spec, T01, None)
        ref = binomial(1, 1, 0.5, 0.5)
        assert (lik.d, lik.v) == (ref.d, ref.v)

    def test_normal_passthrough(self):
        spec = EvidenceSpec(
            variant="normal_known_var", count=4, sample_mean=2.0, variance=8.0
        )
        lik = to_likelihood(spec, Transform("scaled", 0.0, 1.0), None)
        assert lik.d == pytest.approx(2.0)
        assert lik.v == pytest.approx(2.0)

    def test_lognormal_samples_known_var(self):
        spec = EvidenceSpec(
            variant="normal_known_var",
            variance=4.0,
            lognormal_samples=True,
            samples=(1.0, math.e**2),
        )
        lik = to_likelihood(spec, TLOG, None)
        assert lik.d == pytest.approx(1.0)
        assert lik.v == pytest.approx(2.0)

    def test_lognormal_samples_unknown_var(self):
        spec = EvidenceSpec(
            variant="normal_unknown_var",
            lognormal_samples=True,
            samples=(1.0, math.e, math.e**2, math.e**3),
        )
        lik = to_likelihood(spec, TLOG, None)
        assert lik.d == pytest.approx(1.5)
        assert lik.v == pytest.approx(1.25)

    def test_identical_samples_cannot_estimate_variance(self):
        spec = EvidenceSpec(
            variant="normal_unknown_var",
            lognormal_samples=True,
            samples=(math.e, math.e, math.e, math.e),
        )
        with pytest.raises(ValueError, match="identical"):
            to_likelihood(spec, TLOG, None)


class TestEvidenceSpecValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="poisson", count=1, successes=1),
            dict(variant="binomial", count=10),
            dict(variant="binomial", count=0, successes=0),
            dict(variant="binomial", count=5, successes=6),
            dict(variant="binomial", count=5, successes=2, alpha=1.0),
            dict(variant="binomial", count=5, successes=2, alpha=1.0, beta=-1.0),
            dict(variant="binomial", count=5, successes=2, sample_mean=0.0),
            dict(variant="normal_known_var", count=5, sample_mean=0.0),
            dict(variant="normal_known_var", count=5, sample_mean=0.0, variance=-1.0),
            dict(variant="normal_known_var", count=5, sample_mean=0.0, sample_var=1.0),
            dict(variant="normal_unknown_var", count=3, sample_mean=0.0, sample_var=1.0),
            dict(variant="normal_unknown_var", count=5, sample_mean=0.0, variance=1.0),
            dict(variant="normal_unknown_var", count=5, sample_mean=0.0, successes=2),
            dict(variant="normal_known_var", count=2, sample_mean=0.0, variance=1.0,
                 samples=(1.0, 2.0)),
            dict(variant="normal_unknown_var", lognormal_samples=True,
                 samples=(1.0, 2.0, 3.0)),
            dict(variant="binomial", count=5, successes=2, lognormal_samples=True,
                 samples=(1.0,)),
        ],
    )
    def test_rejected_specs(self, kwargs):
        with pytest.raises(ValueError):
            EvidenceSpec(**kwargs)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "field,kwargs",
        [
            ("alpha", dict(variant="binomial", count=5, successes=2, beta=1.0)),
            ("beta", dict(variant="binomial", count=5, successes=2, alpha=1.0)),
            ("sample_mean", dict(variant="normal_known_var", count=5, variance=1.0)),
            ("variance", dict(variant="normal_known_var", count=5, sample_mean=0.0)),
            ("sample_var", dict(variant="normal_unknown_var", count=5, sample_mean=0.0)),
            ("samples", dict(variant="normal_known_var", variance=1.0, lognormal_samples=True)),
        ],
    )
    def test_non_finite_numbers_rejected(self, field, kwargs, bad):
        value = (1.0, bad) if field == "samples" else bad
        with pytest.raises(ValueError, match="must be finite"):
            EvidenceSpec(**kwargs, **{field: value})

    def test_accepted_specs(self):
        EvidenceSpec(variant="binomial", count=10, successes=0)
        EvidenceSpec(variant="binomial", count=10, successes=10, alpha=0.5, beta=0.5)
        EvidenceSpec(variant="normal_known_var", count=1, sample_mean=0.0, variance=2.0)
        EvidenceSpec(variant="normal_unknown_var", count=4, sample_mean=0.0, sample_var=2.0)
        EvidenceSpec(
            variant="normal_known_var", variance=1.0, lognormal_samples=True, samples=(1.0,)
        )

    def test_likelihood_approx_guards(self):
        with pytest.raises(ValueError):
            LikelihoodApprox(0.0, 0.0)
        with pytest.raises(ValueError):
            LikelihoodApprox(math.nan, 1.0)
