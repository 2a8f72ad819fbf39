"""Importance-sampling reference posteriors: correctness, determinism, error scaling."""

import numpy as np
import pytest

from gaussid.evidence import EvidenceSpec
from gaussid.model import Diagram, Ln, Sub, Var, basic, deterministic, evidence
from gaussid.oracle import mc_posterior
from gaussid.transforms import PriorSpec, Transform, forward_moments

T01 = Transform("logistic_scaled", 0.0, 1.0)
TS = Transform("scaled", 0.0, 1.0)
TLOG = Transform("log_scaled", 1.0, 3.0)
LOGNORMAL = PriorSpec(family="lognormal", transform=TLOG, mean=4.0, variance=2.0)


def normal_look(parent, sample_mean, variance, count=1):
    return evidence(
        "look",
        parent,
        EvidenceSpec(
            variant="normal_known_var", count=count, sample_mean=sample_mean, variance=variance
        ),
    )


def lognormal_moments(t, mu, s2):
    """Natural-scale mean and variance of a + (b - a) exp(X), X ~ N(mu, s2)."""
    scale = t.b - t.a
    return (
        t.a + scale * np.exp(mu + 0.5 * s2),
        scale * scale * np.expm1(s2) * np.exp(2.0 * mu + s2),
    )


def beta_binomial(count=10, successes=7):
    return Diagram.from_nodes(
        [
            basic("p", PriorSpec(family="beta", transform=T01, alpha=1.0, beta=1.0)),
            evidence(
                "trials",
                "p",
                EvidenceSpec(variant="binomial", count=count, successes=successes),
            ),
        ]
    )


class TestPriorOnly:
    def test_no_evidence_recovers_prior_moments(self):
        d = Diagram.from_nodes(
            [
                basic("p", PriorSpec(family="beta", transform=T01, alpha=2.0, beta=3.0)),
                basic("x", PriorSpec(family="normal", transform=TS, mean=1.0, variance=4.0)),
            ]
        )
        est = mc_posterior(d, 400_000, seed=9)
        assert est.ess == pytest.approx(400_000)
        assert est.mean["p"] == pytest.approx(0.4, abs=4 * est.se_mean["p"])
        assert est.mean["x"] == pytest.approx(1.0, abs=4 * est.se_mean["x"])
        assert est.variance["p"] == pytest.approx(0.04, abs=4 * est.se_var["p"])
        assert est.variance["x"] == pytest.approx(4.0, abs=4 * est.se_var["x"])

    def test_deterministic_nodes_propagate(self):
        d = Diagram.from_nodes(
            [
                basic("a", PriorSpec(family="beta", transform=T01, alpha=4.0, beta=2.0)),
                basic("b", PriorSpec(family="beta", transform=T01, alpha=2.0, beta=4.0)),
                deterministic(
                    "diff", Transform("scaled", -1.0, 1.0), Sub(Var("a"), Var("b"))
                ),
            ]
        )
        est = mc_posterior(d, 200_000, seed=11)
        # E(a - b) = 2/3 - 1/3 = 1/3 under independent priors
        assert est.mean["diff"] == pytest.approx(1.0 / 3.0, abs=4 * est.se_mean["diff"])

    def test_lognormal_prior_recovers_its_natural_moments(self):
        est = mc_posterior(Diagram.from_nodes([basic("y", LOGNORMAL)]), 200_000, seed=13)
        assert est.mean["y"] == pytest.approx(4.0, abs=4 * est.se_mean["y"])
        assert est.variance["y"] == pytest.approx(2.0, abs=4 * est.se_var["y"])


class TestPosterior:
    def test_beta_binomial_matches_conjugate_answer(self):
        est = mc_posterior(beta_binomial(), 200_000, seed=3)
        # Flat prior and 7/10 successes: posterior is Beta(8, 4)
        assert est.mean["p"] == pytest.approx(2.0 / 3.0, abs=3 * est.se_mean["p"])
        assert est.variance["p"] == pytest.approx(
            0.017094017094017094, abs=3 * est.se_var["p"]
        )
        assert est.se_mean["p"] < 1e-3

    def test_all_successes(self):
        est = mc_posterior(beta_binomial(count=5, successes=5), 100_000, seed=8)
        # posterior Beta(6, 1): mean 6/7
        assert est.mean["p"] == pytest.approx(6.0 / 7.0, abs=3 * est.se_mean["p"])

    def test_normal_look_on_a_lognormal_matches_the_closed_form(self):
        # X = ln((Y - a)/(b - a)) is normal a priori and a normal look on X
        # keeps it normal, with precision-weighted moments; the lognormal
        # identities carry them back to Y.
        prior = forward_moments(LOGNORMAL)
        d, v = 0.6, 0.05 / 2
        post_var = 1.0 / (1.0 / prior.variance + 1.0 / v)
        post_mean = post_var * (prior.mean / prior.variance + d / v)
        mean, var = lognormal_moments(TLOG, post_mean, post_var)
        diagram = Diagram.from_nodes([basic("y", LOGNORMAL), normal_look("y", d, 0.05, count=2)])
        est = mc_posterior(diagram, 200_000, seed=17)
        assert est.mean["y"] == pytest.approx(mean, abs=4 * est.se_mean["y"])
        assert est.variance["y"] == pytest.approx(var, abs=4 * est.se_var["y"])

    def test_normal_look_on_a_logit_matches_quadrature(self):
        # Posterior density of Y on (0, 1): Beta(2, 3) times the normal
        # likelihood of logit(Y), integrated by the midpoint rule.
        y = (np.arange(200_000) + 0.5) / 200_000
        density = y * (1.0 - y) ** 2 * np.exp(-0.5 * (0.8 - np.log(y / (1.0 - y))) ** 2 / 0.3)
        density /= density.sum()
        mean = np.sum(density * y)
        var = np.sum(density * (y - mean) ** 2)
        prior = PriorSpec(family="beta", transform=T01, alpha=2.0, beta=3.0)
        diagram = Diagram.from_nodes([basic("p", prior), normal_look("p", 0.8, 0.3)])
        est = mc_posterior(diagram, 200_000, seed=19)
        assert est.mean["p"] == pytest.approx(mean, abs=4 * est.se_mean["p"])
        assert est.variance["p"] == pytest.approx(var, abs=4 * est.se_var["p"])


class TestDeterminism:
    def test_same_seed_is_bit_identical(self):
        a = mc_posterior(beta_binomial(), 50_000, seed=123)
        b = mc_posterior(beta_binomial(), 50_000, seed=123)
        assert a.mean == b.mean
        assert a.variance == b.variance
        assert a.se_mean == b.se_mean
        assert a.ess == b.ess

    def test_different_seeds_differ(self):
        a = mc_posterior(beta_binomial(), 50_000, seed=123)
        b = mc_posterior(beta_binomial(), 50_000, seed=124)
        assert a.mean["p"] != b.mean["p"]


class TestErrorScaling:
    def test_standard_error_shrinks_like_root_n(self):
        ses = []
        for n in (10_000, 100_000, 1_000_000):
            est = mc_posterior(beta_binomial(), n, seed=21)
            ses.append(est.se_mean["p"])
        # each tenfold increase should cut the SE by about sqrt(10)
        for larger, smaller in zip(ses, ses[1:]):
            ratio = larger / smaller
            assert 0.5 * np.sqrt(10) < ratio < 2.0 * np.sqrt(10)


class TestDegeneracy:
    def test_low_ess_raises_warning_flag(self):
        # A tiny run with concentrated evidence: ESS below the floor.
        d = Diagram.from_nodes(
            [
                basic("p", PriorSpec(family="beta", transform=T01, alpha=1.0, beta=1.0)),
                evidence(
                    "trials",
                    "p",
                    EvidenceSpec(variant="binomial", count=500, successes=490),
                ),
            ]
        )
        est = mc_posterior(d, 200, seed=5)
        assert est.ess < 50.0
        assert any("effective sample size" in w for w in est.warnings)

    def test_no_valid_draw_raises(self):
        # ln(x) of x ~ N(-10, 0.01) is undefined on every draw.
        x = PriorSpec(family="normal", transform=TS, mean=-10.0, variance=0.01)
        d = Diagram.from_nodes([basic("x", x), deterministic("l", TS, Ln(Var("x")))])
        with pytest.raises(RuntimeError, match="all importance weights are zero"):
            mc_posterior(d, 1_000, seed=23)

    def test_invalid_samples_rejected(self):
        with pytest.raises(ValueError):
            mc_posterior(beta_binomial(), 0, seed=1)
