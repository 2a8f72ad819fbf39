"""The record classes: construction, checks, equality, hashing, repr and immutability.

One test class per public record.  The reprs are frozen strings; the other
tests state the behaviour each record keeps whatever builds it.
"""

import copy
import pickle

import numpy as np
import pytest

from gaussid import (
    BetaParams,
    Diagram,
    EvidenceSpec,
    GaussianState,
    IterationRecord,
    LikelihoodApprox,
    McEstimate,
    MomentPair,
    PriorSpec,
    SolverConfig,
    SolverResult,
    Transform,
    basic,
    evidence,
)
from gaussid.model import Add, Const, Div, Exp, Ln, Mul, Neg, Node, Pow, Sub, Var
from gaussid.solver import SolverState, initialize

T = Transform("logistic_scaled", 0.0, 1.0)
BETA = PriorSpec("beta", T, alpha=2.0, beta=3.0)


def assert_value_record(a, same, other):
    """``a`` equals ``same`` (a distinct object) with the same hash, and differs from ``other``."""
    assert a is not same
    assert a == same and not a != same
    assert hash(a) == hash(same)
    assert a != other and not a == other


def assert_frozen(record, name):
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        delattr(record, name)


def assert_identity_record(a, same):
    """``a`` equals only itself, though ``same`` holds the very same fields."""
    assert a == a
    assert a != same and not a == same
    assert hash(a) == hash(a)


@pytest.mark.parametrize(
    "record",
    [T, BETA, MomentPair(1.0, 2.0), EvidenceSpec("binomial", count=4, successes=1), SolverConfig()],
    ids=repr,
)
def test_copies_and_pickles_are_equal(record):
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))


def test_expression_copies_and_pickles_are_equal():
    e = Add(Var("x"), Pow(Const(2.0), 3.0))
    e.shape  # a cached walk is not a field
    for twin in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
        assert twin == e and twin.shape == e.shape


class TestTransform:
    def test_construction(self):
        assert Transform("scaled", 0.0, 2.0) == Transform(kind="scaled", a=0.0, b=2.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            (("beta", 0.0, 1.0), "unknown transform kind 'beta'; expected one of "
             "('scaled', 'log_scaled', 'logistic_scaled')"),
            (("scaled", float("inf"), 1.0),
             "transform reference points must be finite, got a=inf, b=1.0"),
            (("scaled", 1.0, 1.0), "transform reference points must differ, got a = b = 1.0"),
        ],
    )
    def test_checks(self, args, message):
        with pytest.raises(ValueError) as err:
            Transform(*args)
        assert str(err.value) == message

    def test_value_equality(self):
        same, other = Transform("logistic_scaled", 0.0, 1.0), Transform("logistic_scaled", 0.0, 2.0)
        assert_value_record(T, same, other)

    def test_repr(self):
        assert repr(T) == "Transform(kind='logistic_scaled', a=0.0, b=1.0)"

    def test_frozen(self):
        assert_frozen(T, "a")


class TestMomentPair:
    def test_construction(self):
        assert MomentPair(1.0, 2.0) == MomentPair(mean=1.0, variance=2.0)
        assert MomentPair(1.0, 0.0).variance == 0.0

    @pytest.mark.parametrize(
        "args, message",
        [
            ((float("nan"), 1.0), "mean must be finite, got nan"),
            ((0.0, -1.0), "variance must be finite and >= 0, got -1.0"),
            ((0.0, float("inf")), "variance must be finite and >= 0, got inf"),
        ],
    )
    def test_checks(self, args, message):
        with pytest.raises(ValueError) as err:
            MomentPair(*args)
        assert str(err.value) == message

    def test_value_equality(self):
        assert_value_record(MomentPair(1.0, 2.0), MomentPair(1.0, 2.0), MomentPair(1.0, 3.0))
        assert MomentPair(1.0, 2.0) != BetaParams(1.0, 2.0)
        assert MomentPair(1.0, 2.0) != (1.0, 2.0)

    def test_repr(self):
        assert repr(MomentPair(1.0, 2.0)) == "MomentPair(mean=1.0, variance=2.0)"

    def test_frozen(self):
        assert_frozen(MomentPair(1.0, 2.0), "mean")


class TestBetaParams:
    def test_construction(self):
        assert BetaParams(1.0, 2.0) == BetaParams(alpha=1.0, beta=2.0)

    def test_checks(self):
        with pytest.raises(ValueError) as err:
            BetaParams(0.0, 2.0)
        assert str(err.value) == "Beta parameters must be finite and positive, got (0.0, 2.0)"

    def test_value_equality(self):
        assert_value_record(BetaParams(1.0, 2.0), BetaParams(1.0, 2.0), BetaParams(2.0, 1.0))
        assert BetaParams(1.0, 2.0) != MomentPair(1.0, 2.0)

    def test_repr(self):
        assert repr(BetaParams(1.0, 2.0)) == "BetaParams(alpha=1.0, beta=2.0)"

    def test_frozen(self):
        assert_frozen(BetaParams(1.0, 2.0), "beta")


class TestPriorSpec:
    def test_construction(self):
        p = PriorSpec("beta", T, None, None, 2.0, 3.0)
        assert p == BETA == PriorSpec(family="beta", transform=T, alpha=2.0, beta=3.0)
        n = PriorSpec("normal", Transform("scaled", 0.0, 1.0), 0.5, 2.0)
        assert (n.mean, n.variance, n.alpha, n.beta) == (0.5, 2.0, None, None)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(family="gamma", transform=T), "unknown prior family 'gamma'; expected one of "
             "('normal', 'lognormal', 'beta')"),
            (dict(family="normal", transform=T, mean=0.5, variance=1.0),
             "normal priors require the scaled transform, got logistic_scaled"),
            (dict(family="beta", transform=T, mean=0.5, alpha=1.0, beta=1.0),
             "beta priors take alpha/beta, not mean/variance"),
            (dict(family="beta", transform=T, alpha=1.0), "beta priors require alpha and beta"),
            (dict(family="beta", transform=T, alpha=-1.0, beta=1.0),
             "Beta parameters must be finite and positive, got (-1.0, 1.0)"),
            (dict(family="lognormal", transform=Transform("log_scaled", 0.0, 1.0), mean=1.0,
                  variance=1.0, alpha=1.0), "lognormal priors take mean/variance, not alpha/beta"),
            (dict(family="normal", transform=Transform("scaled", 0.0, 1.0), mean=1.0),
             "normal priors require mean and variance"),
            (dict(family="normal", transform=Transform("scaled", 0.0, 1.0), mean=float("inf"),
                  variance=1.0), "prior mean must be finite, got inf"),
            (dict(family="normal", transform=Transform("scaled", 0.0, 1.0), mean=0.0, variance=0.0),
             "prior variance must be positive, got 0.0"),
            (dict(family="lognormal", transform=Transform("log_scaled", 1.0, 2.0), mean=0.5,
                  variance=1.0), "prior mean 0.5 lies outside the transform support (1.0, inf)"),
        ],
    )
    def test_checks(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            PriorSpec(**kwargs)
        assert str(err.value) == message

    def test_value_equality(self):
        same, other = PriorSpec("beta", T, alpha=2.0, beta=3.0), PriorSpec("beta", T, alpha=2.0, beta=4.0)
        assert_value_record(BETA, same, other)

    def test_repr(self):
        assert repr(BETA) == (
            "PriorSpec(family='beta', transform=Transform(kind='logistic_scaled', a=0.0, b=1.0), "
            "mean=None, variance=None, alpha=2.0, beta=3.0)"
        )

    def test_frozen(self):
        assert_frozen(BETA, "transform")


class TestLikelihoodApprox:
    def test_construction(self):
        assert LikelihoodApprox(0.5, 2.0) == LikelihoodApprox(d=0.5, v=2.0)

    def test_checks(self):
        with pytest.raises(ValueError) as err:
            LikelihoodApprox(0.5, 0.0)
        assert str(err.value) == "likelihood approximation needs finite d and v > 0, got (0.5, 0.0)"

    def test_value_equality(self):
        a, same, other = LikelihoodApprox(0.5, 2.0), LikelihoodApprox(0.5, 2.0), LikelihoodApprox(0.5, 1.0)
        assert_value_record(a, same, other)
        assert LikelihoodApprox(0.5, 2.0) != MomentPair(0.5, 2.0)

    def test_repr(self):
        assert repr(LikelihoodApprox(0.5, 2.0)) == "LikelihoodApprox(d=0.5, v=2.0)"

    def test_frozen(self):
        assert_frozen(LikelihoodApprox(0.5, 2.0), "v")


class TestEvidenceSpec:
    def test_construction(self):
        e = EvidenceSpec("binomial", 10, None, None, None, 3)
        assert e == EvidenceSpec(variant="binomial", count=10, successes=3)
        assert (e.alpha, e.beta, e.lognormal_samples, e.samples) == (None, None, False, None)
        s = EvidenceSpec("normal_known_var", variance=1.0, lognormal_samples=True, samples=(1.0,))
        assert (s.count, s.sample_mean, s.samples) == (None, None, (1.0,))

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(variant="poisson"), "unknown evidence variant 'poisson'; expected one of "
             "('normal_known_var', 'normal_unknown_var', 'binomial')"),
            (dict(variant="binomial", count=3, successes=1, alpha=float("nan"), beta=1.0),
             "evidence numbers must be finite, got nan"),
            (dict(variant="binomial", count=3), "binomial evidence requires count and successes"),
            (dict(variant="binomial", count=3, successes=4),
             "binomial evidence needs count >= 1 and 0 <= successes <= count, got (3, 4)"),
            (dict(variant="binomial", count=3, successes=1, alpha=1.0),
             "binomial reference alpha and beta must be given together"),
            (dict(variant="normal_known_var", count=3, sample_mean=0.0),
             "normal_known_var evidence requires variance"),
            (dict(variant="normal_unknown_var", count=3, sample_mean=0.0, sample_var=1.0),
             "unknown-variance evidence requires count >= 4, got 3"),
            (dict(variant="normal_known_var", lognormal_samples=True, variance=1.0),
             "lognormal-sample evidence requires a non-empty samples list"),
        ],
    )
    def test_checks(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            EvidenceSpec(**kwargs)
        assert str(err.value) == message

    def test_value_equality(self):
        e = EvidenceSpec("binomial", count=10, successes=3)
        same = EvidenceSpec("binomial", count=10, successes=3)
        assert_value_record(e, same, EvidenceSpec("binomial", count=10, successes=4))

    def test_repr(self):
        assert repr(EvidenceSpec("binomial", count=10, successes=3)) == (
            "EvidenceSpec(variant='binomial', count=10, sample_mean=None, variance=None, "
            "sample_var=None, successes=3, alpha=None, beta=None, lognormal_samples=False, samples=None)"
        )

    def test_frozen(self):
        assert_frozen(EvidenceSpec("binomial", count=10, successes=3), "count")


class TestSolverConfig:
    def test_construction(self):
        c = SolverConfig()
        fields = (c.epsilon, c.divergence_window, c.max_iterations, c.pool_evidence)
        assert fields == (1e-6, 3, 50, True)
        assert SolverConfig(1e-8, 2, 10, False) == SolverConfig(
            epsilon=1e-8, divergence_window=2, max_iterations=10, pool_evidence=False
        )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(epsilon=0.0), "epsilon must be positive, got 0.0"),
            (dict(epsilon=float("nan")), "epsilon must be positive, got nan"),
            (dict(divergence_window=0), "divergence_window must be >= 1, got 0"),
            (dict(max_iterations=0), "max_iterations must be >= 1, got 0"),
        ],
    )
    def test_checks(self, kwargs, message):
        with pytest.raises(ValueError) as err:
            SolverConfig(**kwargs)
        assert str(err.value) == message

    def test_value_equality(self):
        assert_value_record(SolverConfig(), SolverConfig(), SolverConfig(pool_evidence=False))

    def test_repr(self):
        assert repr(SolverConfig()) == (
            "SolverConfig(epsilon=1e-06, divergence_window=3, max_iterations=50, pool_evidence=True)"
        )

    def test_frozen(self):
        assert_frozen(SolverConfig(), "epsilon")


class TestExpressionNodes:
    def test_construction(self):
        x = Var("x")
        assert Var(name="x") == x and Const(value=2.0) == Const(2.0)
        assert Pow(x, 2.0) == Pow(base=x, exponent=2.0)
        assert Neg(x) == Neg(operand=x) and Add(x, x) == Add(left=x, right=x)

    def test_value_equality(self):
        x, y = Var("x"), Var("y")
        assert_value_record(Add(x, y), Add(Var("x"), Var("y")), Add(y, x))
        assert_value_record(Pow(x, 2.0), Pow(Var("x"), 2.0), Pow(x, 3.0))
        assert_value_record(Const(1.0), Const(1.0), Const(2.0))
        # A class is part of a node's value.
        assert Add(x, y) != Mul(x, y) and Sub(x, y) != Div(x, y)
        assert Neg(x) != Exp(x) and Exp(x) != Ln(x)
        assert Var("x") != Const("x")

    def test_repr(self):
        e = Add(Var("x"), Pow(Neg(Const(2.0)), 3.0))
        assert repr(e) == (
            "Add(left=Var(name='x'), right=Pow(base=Neg(operand=Const(value=2.0)), exponent=3.0))"
        )
        assert str(e) == "x + (-2.0)^3.0"

    def test_frozen(self):
        assert_frozen(Const(1.0), "value")
        assert_frozen(Add(Var("x"), Var("y")), "left")
        assert_frozen(Neg(Var("x")), "operand")

    def test_cached_walks(self):
        e = Mul(Var("x"), Add(Var("y"), Var("x")))
        assert e.postorder is e.postorder and e.shape is e.shape
        assert [type(n) for n in e.postorder] == [Var, Var, Var, Add, Mul]


class TestNode:
    def test_construction(self):
        n = Node("p", "basic", (), T, BETA)
        assert n == Node(id="p", kind="basic", transform=T, prior=BETA) == basic("p", BETA)
        assert (n.parents, n.expr, n.obs) == ((), None, None)

    def test_value_equality(self):
        assert_value_record(basic("p", BETA), basic("p", BETA), basic("q", BETA))

    def test_repr(self):
        obs = EvidenceSpec("binomial", count=4, successes=1)
        assert repr(evidence("e", "p", obs)) == (
            "Node(id='e', kind='evidence', parents=('p',), transform=None, prior=None, expr=None, "
            "obs=EvidenceSpec(variant='binomial', count=4, sample_mean=None, variance=None, "
            "sample_var=None, successes=1, alpha=None, beta=None, lognormal_samples=False, samples=None))"
        )

    def test_frozen(self):
        assert_frozen(basic("p", BETA), "kind")


class TestDiagram:
    def test_construction(self):
        assert Diagram().nodes == {} and Diagram().nodes is not Diagram().nodes
        p = basic("p", BETA)
        assert Diagram({"p": p}) == Diagram(nodes={"p": p}) == Diagram.from_nodes([p])

    def test_value_equality_and_no_hash(self):
        p = basic("p", BETA)
        assert Diagram.from_nodes([p]) == Diagram.from_nodes([p]) != Diagram()
        with pytest.raises(TypeError):
            hash(Diagram())

    def test_repr(self):
        assert repr(Diagram()) == "Diagram(nodes={})"

    def test_mutable(self):
        d = Diagram()
        d.nodes = {"p": basic("p", BETA)}
        assert list(d.nodes) == ["p"]


class TestMcEstimate:
    def make(self, seed=5):
        return McEstimate(("p",), {"p": 1.0}, {"p": 2.0}, {"p": 0.1}, {"p": 0.2}, 10.0, 100, seed)

    def test_construction(self):
        assert self.make().warnings == ()
        assert self.make() == McEstimate(
            param_ids=("p",), mean={"p": 1.0}, variance={"p": 2.0}, se_mean={"p": 0.1},
            se_var={"p": 0.2}, ess=10.0, n_samples=100, seed=5, warnings=(),
        )

    def test_value_equality(self):
        assert self.make() == self.make() != self.make(seed=6)

    def test_repr(self):
        assert repr(self.make()) == (
            "McEstimate(param_ids=('p',), mean={'p': 1.0}, variance={'p': 2.0}, se_mean={'p': 0.1}, "
            "se_var={'p': 0.2}, ess=10.0, n_samples=100, seed=5, warnings=())"
        )

    def test_frozen(self):
        assert_frozen(self.make(), "ess")


def gaussian_state(cov=None):
    return GaussianState(("a",), np.zeros(1), np.zeros((1, 1)), np.ones(1), cov)


class TestGaussianState:
    def test_construction(self):
        st = GaussianState(order=("a",), mean=np.zeros(1), coeffs=np.zeros((1, 1)), cond_var=np.ones(1))
        assert st.cov is None and st.order == ("a",)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((("a",), np.zeros(2), np.zeros((1, 1)), np.ones(1)), "mean must have shape (1,), got (2,)"),
            ((("a",), np.zeros(1), np.zeros((1, 2)), np.ones(1)), "coeffs must have shape (1, 1), got (1, 2)"),
            ((("a",), np.zeros(1), np.zeros((1, 1)), np.ones(2)), "cond_var must have shape (1,), got (2,)"),
            ((("a",), np.zeros(1), np.ones((1, 1)), np.ones(1)),
             "coeffs must be strictly upper triangular in the node order"),
            ((("a",), np.zeros(1), np.zeros((1, 1)), -np.ones(1)), "conditional variances must be >= 0"),
            ((("a",), np.zeros(1), np.zeros((1, 1)), np.ones(1), np.zeros(1)),
             "cov must have shape (1, 1), got (1,)"),
        ],
    )
    def test_checks(self, args, message):
        with pytest.raises(ValueError) as err:
            GaussianState(*args)
        assert str(err.value) == message

    def test_identity_equality(self):
        assert_identity_record(gaussian_state(), gaussian_state())

    def test_repr(self):
        assert repr(gaussian_state()) == (
            "GaussianState(order=('a',), mean=array([0.]), coeffs=array([[0.]]), "
            "cond_var=array([1.]), cov=None)"
        )

    def test_frozen(self):
        assert_frozen(gaussian_state(), "cov")


def iteration_record():
    a = np.zeros(1)
    return IterationRecord(1, a, a, a, a, 0.5)


class TestIterationRecord:
    def test_construction(self):
        a = np.zeros(1)
        rec = IterationRecord(t=1, prior_mean_x=a, posterior_mean_x=a, posterior_var_x=a, r=a, r_max=0.5)
        assert (rec.t, rec.r_max) == (1, 0.5) and rec.r is a

    def test_identity_equality(self):
        assert_identity_record(iteration_record(), iteration_record())

    def test_repr(self):
        assert repr(iteration_record()) == (
            "IterationRecord(t=1, prior_mean_x=array([0.]), posterior_mean_x=array([0.]), "
            "posterior_var_x=array([0.]), r=array([0.]), r_max=0.5)"
        )

    def test_frozen(self):
        assert_frozen(iteration_record(), "r_max")


def solver_result():
    return SolverResult("converged", [], {"p": MomentPair(0.5, 0.1)}, np.eye(1), ("p",), 0)


class TestSolverResult:
    def test_construction(self):
        r = SolverResult(
            status="converged", iterations=[], posterior_y={"p": MomentPair(0.5, 0.1)},
            posterior_correlations=np.eye(1), param_ids=("p",), reported_iteration=0,
        )
        assert (r.status, r.param_ids, r.reported_iteration) == ("converged", ("p",), 0)

    def test_identity_equality(self):
        assert_identity_record(solver_result(), solver_result())

    def test_repr(self):
        assert repr(solver_result()) == (
            "SolverResult(status='converged', iterations=[], "
            "posterior_y={'p': MomentPair(mean=0.5, variance=0.1)}, "
            "posterior_correlations=array([[1.]]), param_ids=('p',), reported_iteration=0)"
        )

    def test_frozen(self):
        assert_frozen(solver_result(), "status")


class TestSolverState:
    def state(self):
        obs = EvidenceSpec("binomial", count=4, successes=1)
        return initialize(Diagram.from_nodes([basic("p", BETA), evidence("e", "p", obs)]))

    def test_defaults(self):
        st = self.state()
        assert (st.t, st.records, st.linear_coeffs, st.inverted) == (0, [], {}, None)
        assert st.n_params == 1 and st.param_ids == ("p",)

    def test_identity_equality_and_mutable(self):
        a, b = self.state(), self.state()
        assert a == a and a != b
        a.t = 4
        assert a.t == 4
