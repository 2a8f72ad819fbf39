"""The iterative solver: initialization, linearization, stepping, and statuses."""

import copy
import importlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussid.gaussian as gaussian_mod
import gaussid.solver as solver_mod
import gaussid.specfun as specfun_mod
from gaussid.cli import parse_expression, parse_model
from gaussid.evidence import EvidenceSpec, binomial
from gaussid.gaussian import (
    ConditioningError,
    GaussianState,
    _covariance,
    _depth_levels,
    _level_arcs,
    _packing,
    _unpack,
    condition,
    condition_sequential,
    correlation_matrix,
    propagate_covariance,
)
from gaussid.model import (
    Add,
    Const,
    Diagram,
    Div,
    EvalError,
    Exp,
    Ln,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _slopes_columns,
    basic,
    deterministic,
    eval_expr,
    evidence,
    format_expr,
    slopes,
    topological_order,
)
from gaussid.solver import (
    CONVERGED,
    DIVERGED,
    MAX_ITERATIONS,
    InitializationError,
    IterationError,
    IterationRecord,
    SolverConfig,
    _relative_change,
    initialize,
    linearize,
    solve,
    step,
    update_means,
)
from gaussid.specfun import digamma, trigamma
from gaussid.transforms import (
    PriorSpec,
    Transform,
    forward_moments,
    forward_point,
    inverse_point,
)
from helpers import arcs_of, bench_generate, dense_b, dense_factor
from test_pinned_bits import joined_groups, wide_groups

# gaussid.evidence, the module: the package exports the function model.evidence
# under that name
evidence_mod = importlib.import_module("gaussid.evidence")

PI2_3 = 3.2898681336964529  # 2 * trigamma(1)

T01 = Transform("logistic_scaled", 0.0, 1.0)
TS = Transform("scaled", 0.0, 1.0)
TLOG = Transform("log_scaled", 0.0, 1.0)


def beta_p(nid, alpha=1.0, beta=1.0):
    return basic(nid, PriorSpec(family="beta", transform=T01, alpha=alpha, beta=beta))


def normal_p(nid, mean, var, t=TS):
    return basic(nid, PriorSpec(family="normal", transform=t, mean=mean, variance=var))


def lognormal_p(nid, mean, var):
    return basic(nid, PriorSpec(family="lognormal", transform=TLOG, mean=mean, variance=var))


def beta_binomial():
    return Diagram.from_nodes(
        [
            beta_p("p"),
            evidence("trials", "p", EvidenceSpec(variant="binomial", count=10, successes=7)),
        ]
    )


def linear_chain():
    # x ~ N(1, 4); z = 2x + 1; one observation of z with noise variance 1 at 5.
    return Diagram.from_nodes(
        [
            normal_p("x", 1.0, 4.0),
            deterministic("z", TS, Add(Mul(Const(2.0), Var("x")), Const(1.0))),
            evidence(
                "obs",
                "z",
                EvidenceSpec(
                    variant="normal_known_var", count=1, sample_mean=5.0, variance=1.0
                ),
            ),
        ]
    )


def normal_look(mean, var):
    return EvidenceSpec(variant="normal_known_var", count=1, sample_mean=mean, variance=var)


def correlated_evidence():
    # Risk differences over overlapping pairs of four proportions share the
    # proportions, so their three looks form one block of size 3; two looks
    # at the root r form a block of size 2; s and u are seen once each.
    td = Transform("scaled", -1.0, 1.0)
    return Diagram.from_nodes(
        [
            beta_p("p1", 2.0, 6.0),
            beta_p("p2", 2.0, 8.0),
            beta_p("p3", 3.0, 9.0),
            beta_p("p4", 2.0, 10.0),
            normal_p("r", 1.0, 4.0),
            normal_p("s", 0.0, 2.0),
            normal_p("u", -1.0, 1.0),
            deterministic("d12", td, Sub(Var("p1"), Var("p2"))),
            deterministic("d23", td, Sub(Var("p2"), Var("p3"))),
            deterministic("d34", td, Sub(Var("p3"), Var("p4"))),
            evidence("e12", "d12", normal_look(0.05, 0.05)),
            evidence("e23", "d23", normal_look(-0.03, 0.1)),
            evidence("e34", "d34", normal_look(0.1, 0.05)),
            evidence("r_a", "r", normal_look(1.5, 1.0)),
            evidence("r_b", "r", normal_look(2.0, 0.5)),
            evidence("s_a", "s", normal_look(-0.5, 1.0)),
            evidence("u_a", "u", normal_look(0.0, 0.3)),
        ]
    )


def augmented_reference(state, conditioner):
    """Next step's posterior from the parameters plus one leaf per evidence entry.

    Each leaf reads its parameter with coefficient one and carries the
    entry's noise; ``conditioner`` conditions that model exactly on the leaves.
    """
    n, m = state.n_params, len(state.ev_obs)
    arcs = linearize(state)
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = dense_b(n, arcs)
    aug[state.ev_parent, n + np.arange(m)] = 1.0
    ref = propagate_covariance(
        GaussianState(state.order, update_means(state, arcs), aug, state.cond_var)
    )
    return conditioner(ref, {n + e: o for e, o in enumerate(state.ev_obs)})


class TestInitialize:
    def test_flat_beta_prior_moments(self):
        state = initialize(beta_binomial())
        assert state.param_ids == ("p",)
        assert state.order == ("p", "trials")
        assert state.post_x[0] == pytest.approx(0.0, abs=1e-12)
        assert state.cond_var[0] == pytest.approx(PI2_3, rel=1e-9)
        assert state.post_y[0] == pytest.approx(0.5)

    def test_evidence_entry_resolved(self):
        state = initialize(beta_binomial())
        ref = binomial(10, 7, 1.0, 1.0)
        assert state.ev_parent.tolist() == [0]
        assert state.ev_obs[0] == pytest.approx(ref.d)
        assert state.cond_var[1] == pytest.approx(ref.v)

    def test_deterministic_node_at_prior_point(self):
        d = Diagram.from_nodes(
            [
                beta_p("p1", 2.0, 2.0),
                beta_p("p2", 3.0, 1.0),
                deterministic(
                    "diff", Transform("scaled", -1.0, 1.0), Sub(Var("p1"), Var("p2"))
                ),
            ]
        )
        state = initialize(d)
        k = state.param_ids.index("diff")
        # prior means 0.5 and 0.75 -> difference -0.25, transformed (y+1)/2
        assert state.post_y[k] == pytest.approx(-0.25)
        assert state.post_x[k] == pytest.approx(0.375)
        assert state.cond_var[k] == 0.0

    def test_pooling_merges_entries(self):
        nodes = [
            beta_p("p"),
            evidence("a", "p", EvidenceSpec(variant="binomial", count=10, successes=7)),
            evidence("b", "p", EvidenceSpec(variant="binomial", count=4, successes=1)),
        ]
        pooled = initialize(Diagram.from_nodes(nodes), SolverConfig(pool_evidence=True))
        split = initialize(Diagram.from_nodes(nodes), SolverConfig(pool_evidence=False))
        assert len(pooled.ev_obs) == 1
        assert pooled.order == ("p", "a")
        assert len(split.ev_obs) == 2
        assert split.order == ("p", "a", "b")
        # pooled precision equals the summed split precisions
        assert 1.0 / pooled.cond_var[1] == pytest.approx(
            1.0 / split.cond_var[1] + 1.0 / split.cond_var[2]
        )

    def test_one_look_pools_as_itself_bit_for_bit(self):
        # A (d, v) whose 1/(1/v) is not v: each parameter keeps its one look.
        look = normal_look(-1.4695858455634698, 7.640108443576374)
        nodes = [normal_p(f"x{i}", 0.5, 0.1) for i in range(3)]
        d = Diagram.from_nodes(nodes + [evidence(f"o{i}", f"x{i}", look) for i in range(3)])
        pooled = initialize(d, SolverConfig(pool_evidence=True))
        split = initialize(d, SolverConfig(pool_evidence=False))
        assert pooled.order == split.order
        for field in ("post_x", "post_y", "point_x", "cond_var", "ev_obs", "ev_parent"):
            assert getattr(pooled, field).tobytes() == getattr(split, field).tobytes(), field

    def test_a_look_whose_precision_overflows_pools(self):
        # Variance 1e-320 is a valid likelihood whose precision 1/v overflows.
        d = Diagram.from_nodes([normal_p("x", 1.0, 0.1), evidence("o", "x", normal_look(0.5, 1e-320))])
        pooled, split = solve(d), solve(d, SolverConfig(pool_evidence=False))
        assert pooled.status == split.status == CONVERGED
        assert record_bits(pooled.iterations) == record_bits(split.iterations)
        assert pooled.posterior_y == split.posterior_y
        assert pooled.posterior_y["x"].mean == 0.5
        assert pooled.posterior_correlations.tobytes() == split.posterior_correlations.tobytes()

    def test_a_pair_of_looks_with_a_tiny_variance_pools(self):
        looks = [normal_look(0.5, 1e-320), normal_look(0.7, 1.0)]
        d = Diagram.from_nodes(
            [normal_p("x", 1.0, 0.1)] + [evidence(f"o{k}", "x", look) for k, look in enumerate(looks)]
        )
        pooled, split = solve(d), solve(d, SolverConfig(pool_evidence=False))
        assert pooled.status == split.status == CONVERGED
        got, want = pooled.posterior_y["x"], split.posterior_y["x"]
        assert got.mean == pytest.approx(want.mean, rel=1e-9, abs=1e-9)
        assert got.variance == pytest.approx(want.variance, rel=1e-9, abs=1e-9)

    def test_a_pooled_variance_that_underflows_is_named(self):
        look = normal_look(0.5, 5e-324)
        d = Diagram.from_nodes([normal_p("x", 1.0, 0.1)] + [evidence(f"o{k}", "x", look) for k in range(2)])
        with pytest.raises(InitializationError, match="underflows to 0") as exc:
            solve(d)
        assert exc.value.node_id == "o0"

    @pytest.mark.parametrize(
        "prior,looks",
        [
            # three looks at a Normal, one of them diffuse
            (
                normal_p("x", 0.0, 4.0),
                [normal_look(1.0, 0.5), normal_look(1.5, 0.25), normal_look(-3.0, 1e6)],
            ),
            (
                beta_p("x", 2.0, 3.0),
                [
                    EvidenceSpec(variant="binomial", count=10, successes=3),
                    EvidenceSpec(variant="binomial", count=20, successes=9),
                ],
            ),
            # raw samples at a lognormal, known and unknown variance
            (
                lognormal_p("x", 2.0, 0.5),
                [
                    EvidenceSpec(
                        variant="normal_known_var", variance=0.2, lognormal_samples=True,
                        samples=(1.8, 2.2, 2.5),
                    ),
                    EvidenceSpec(
                        variant="normal_unknown_var", lognormal_samples=True,
                        samples=(1.2, 1.4, 1.9, 1.6, 1.3),
                    ),
                ],
            ),
        ],
        ids=["normal", "beta", "lognormal"],
    )
    def test_looks_at_a_basic_parameter_pool_to_1e_12(self, prior, looks):
        # Pooling the looks at a basic parameter is conditioning on them, so
        # both ways agree to rounding: on x and on its child z, and in their
        # correlation.
        z = deterministic("z", Transform("scaled", 0.0, 2.0), Mul(Const(2.0), Var("x")))
        d = Diagram.from_nodes(
            [prior, z] + [evidence(f"o{k}", "x", look) for k, look in enumerate(looks)]
        )
        pooled, split = solve(d), solve(d, SolverConfig(pool_evidence=False))
        assert pooled.status == split.status == CONVERGED
        for pid in ("x", "z"):
            got, want = pooled.posterior_y[pid], split.posterior_y[pid]
            assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0)
            assert got.variance == pytest.approx(want.variance, rel=1e-12, abs=0)
        np.testing.assert_allclose(
            pooled.posterior_correlations, split.posterior_correlations, rtol=0, atol=1e-12
        )

    def test_the_one_group_that_cannot_pool_is_named(self):
        # Two looks of variance 5e-324 on x6, one of _BATCH_MIN + 4 groups of
        # two, pool to a variance that underflows to 0.
        n = solver_mod._BATCH_MIN + 4
        nodes = [normal_p(f"x{i}", 1.0, 0.1) for i in range(n)]
        for i in range(n):
            var = 5e-324 if i == 6 else 1.0
            nodes += [evidence(f"o{i}_{k}", f"x{i}", normal_look(0.5, var)) for k in range(2)]
        with pytest.raises(InitializationError) as exc:
            initialize(Diagram.from_nodes(nodes))
        assert str(exc.value) == (
            "cannot pool the observations of 'o6_0': the pooled variance 5e-324 / 2.0 underflows to 0"
        )
        assert exc.value.node_id == "o6_0"
        assert isinstance(exc.value.__cause__, ValueError)

    def test_looks_whose_weighted_sum_overflows_pool_to_their_finite_mean(self):
        # Two looks of mean 1.5e308: their weighted sum overflows, their mean does not.
        nodes = [normal_p("x", 1.0, 0.1)]
        nodes += [evidence(f"o{k}", "x", normal_look(1.5e308, 1.0)) for k in (1, 2)]
        d = Diagram.from_nodes(nodes)
        pooled, split = solve(d), solve(d, SolverConfig(pool_evidence=False))
        assert pooled.status == split.status == CONVERGED
        got, want = pooled.posterior_y["x"], split.posterior_y["x"]
        assert np.isfinite(got.mean) and got.mean > 1e307
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0)
        assert got.variance == pytest.approx(want.variance, rel=1e-12, abs=0)

    def test_prior_point_outside_support(self):
        d = Diagram.from_nodes(
            [
                beta_p("p"),
                deterministic("q", TLOG, Sub(Var("p"), Var("p"))),
            ]
        )
        with pytest.raises(InitializationError) as exc:
            initialize(d)
        assert exc.value.node_id == "q"

    def test_prior_point_evaluation_failure(self):
        d = Diagram.from_nodes(
            [
                normal_p("x", 0.5, 1.0),
                deterministic("q", TS, Div(Const(1.0), Sub(Var("x"), Const(0.5)))),
            ]
        )
        with pytest.raises(InitializationError) as exc:
            initialize(d)
        assert exc.value.node_id == "q"

    def test_prior_moments_that_overflow_name_the_node(self):
        # Beta(1e-160, 1) is a valid prior whose log-odds variance is not finite.
        d = Diagram.from_nodes([normal_p("x", 0.5, 1.0), beta_p("p", alpha=1e-160)])
        with pytest.raises(InitializationError, match="prior of 'p'") as exc:
            solve(d)
        assert exc.value.node_id == "p"

    @pytest.mark.parametrize(
        "parent, look",
        [
            ("p", EvidenceSpec(variant="binomial", count=10**400, successes=3)),
            (
                "x",
                EvidenceSpec(
                    variant="normal_known_var", count=10**400, sample_mean=0.5, variance=1.0
                ),
            ),
        ],
    )
    def test_a_count_beyond_float_range_names_the_observation(self, parent, look):
        d = Diagram.from_nodes([normal_p("x", 0.5, 1.0), beta_p("p"), evidence("o", parent, look)])
        with pytest.raises(InitializationError, match="cannot resolve observation 'o'") as exc:
            solve(d)
        assert exc.value.node_id == "o"
        assert isinstance(exc.value.__cause__, OverflowError)


def assert_constant_slopes(d, node_id, want):
    """``slopes`` of the node are ``want`` to 1e-9 relative at two distinct
    interior points, so it is exactly linear on the transformed scale.

    Parent k sits at ``x + 0.07 k`` on its transformed scale, for x = -0.4
    and 0.35.
    """
    node = d.nodes[node_id]
    for x in (-0.4, 0.35):
        env = {
            p: inverse_point(d.nodes[p].transform, x + 0.07 * k)
            for k, p in enumerate(node.parents)
        }
        assert slopes(node, d, env)[1] == pytest.approx(want, rel=1e-9, abs=0.0)


class TestLinearize:
    def test_exactly_linear_coefficients_are_position_free(self):
        # w = u * v is exactly linear on the log scale: its slopes, taken
        # by the chain rule like any node's, are the constants 1 and 1 at
        # any point, up to rounding.
        d = Diagram.from_nodes(
            [
                lognormal_p("u", 1.0, 0.5),
                lognormal_p("v", 2.0, 1.0),
                deterministic("w", TLOG, Mul(Var("u"), Var("v"))),
            ]
        )
        state = initialize(d)
        state.post_y = np.array([3.7, 0.2, 0.74])  # an arbitrary later point
        coeffs = dense_b(state.n_params, linearize(state))
        iu, iv, iw = (state.param_ids.index(k) for k in ("u", "v", "w"))
        want = {"u": 1.0, "v": 1.0}
        assert_constant_slopes(d, "w", want)
        assert coeffs[iu, iw] == pytest.approx(want["u"], rel=1e-15, abs=0.0)
        assert coeffs[iv, iw] == pytest.approx(want["v"], rel=1e-15, abs=0.0)

    def test_scaled_multiple(self):
        state = initialize(linear_chain())
        coeffs = dense_b(state.n_params, linearize(state))
        assert coeffs[0, 1] == pytest.approx(2.0)
        # parameters only: the evidence entry gets no row or column
        assert coeffs.shape == (state.n_params, state.n_params) == (2, 2)

    def test_sum_of_log_nodes_at_unit_point(self):
        # w = u + v about (1, 1): each slope is (1/f) * 1 / (1/y) = 1/2.
        d = Diagram.from_nodes(
            [
                lognormal_p("u", 1.0, 0.5),
                lognormal_p("v", 1.0, 0.5),
                deterministic("w", TLOG, Add(Var("u"), Var("v"))),
            ]
        )
        state = initialize(d)
        coeffs = dense_b(state.n_params, linearize(state))
        iu, iv, iw = (state.param_ids.index(k) for k in ("u", "v", "w"))
        assert coeffs[iu, iw] == pytest.approx(0.5)
        assert coeffs[iv, iw] == pytest.approx(0.5)

    def test_chain_rule_matches_finite_differences(self):
        d = Diagram.from_nodes(
            [
                beta_p("p1", 2.0, 3.0),
                beta_p("p2", 4.0, 2.0),
                deterministic(
                    "q", T01, Div(Var("p1"), Add(Var("p1"), Mul(Const(2.0), Var("p2"))))
                ),
            ]
        )
        state = initialize(d)
        coeffs = dense_b(state.n_params, linearize(state))
        idx = {pid: i for i, pid in enumerate(state.param_ids)}
        node = d.nodes["q"]
        h = 1e-6
        for parent in node.parents:

            def composite(x_parent):
                env = {}
                for p in node.parents:
                    x = x_parent if p == parent else forward_point(
                        d.nodes[p].transform, state.post_y[idx[p]]
                    )
                    env[p] = inverse_point(d.nodes[p].transform, x)
                return forward_point(node.transform, eval_expr(node.expr, env))

            x0 = forward_point(d.nodes[parent].transform, state.post_y[idx[parent]])
            fd = (composite(x0 + h) - composite(x0 - h)) / (2.0 * h)
            assert coeffs[idx[parent], idx["q"]] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_point_leaving_support_raises(self):
        d = Diagram.from_nodes(
            [
                normal_p("x", 0.5, 1.0),
                deterministic("q", TLOG, Var("x")),
            ]
        )
        state = initialize(d)
        state.post_y = np.array([-1.0, 0.5])
        with pytest.raises(IterationError) as exc:
            linearize(state)
        assert exc.value.node_id == "q"

    def test_recognized_linear_node_leaving_the_reals_raises(self):
        # z = 2x + 1 is exactly linear, but its value at the point is
        # evaluated too, and 2e308 overflows.
        state = initialize(linear_chain())
        step(state)
        state.post_y = np.array([1e308, 0.5])
        with pytest.raises(IterationError) as exc:
            linearize(state)
        assert exc.value.node_id == "z"
        assert "at iteration 2" in str(exc.value)

    def test_first_failing_node_in_parameter_order_is_named(self):
        # b (depth 2) comes before c (depth 1) in the parameter order; both
        # leave their support, and b is the one named.
        d = Diagram.from_nodes(
            [
                normal_p("x", 0.5, 1.0),
                deterministic("a", TS, Mul(Const(2.0), Var("x"))),
                deterministic("b", TLOG, Var("a")),
                deterministic("c", TLOG, Var("x")),
            ]
        )
        state = initialize(d)
        assert state.param_ids == ("x", "a", "b", "c")
        assert [nodes.tolist() for nodes, _ in state.levels] == [[1, 3], [2]]
        state.post_y = np.array([-1.0, -2.0, 0.5, 0.5])
        with pytest.raises(IterationError) as exc:
            linearize(state)
        assert exc.value.node_id == "b"


def two_level_mixed():
    # Depth 1: z (affine) and w (a product); depth 2: u (affine in z and
    # w) and v (a product with x).
    return Diagram.from_nodes(
        [
            normal_p("x", 1.5, 0.5),
            normal_p("y", -0.8, 0.3),
            deterministic("z", TS, Sub(Mul(Const(2.0), Var("x")), Var("y"))),
            deterministic("w", TS, Mul(Var("x"), Var("y"))),
            deterministic("u", TS, Add(Var("z"), Mul(Const(0.5), Var("w")))),
            deterministic("v", TS, Add(Mul(Var("z"), Var("w")), Var("x"))),
            evidence("u_obs", "u", normal_look(2.0, 0.2)),
            evidence("v_obs", "v", normal_look(-3.0, 0.5)),
        ]
    )


def first_order_means(state, coeffs):
    """The first-order means written out node by node, in topological order."""
    d = state.diagram
    index = {pid: k for k, pid in enumerate(state.param_ids)}
    mean = np.zeros(state.n_params)
    for k, pid in enumerate(state.param_ids):
        node = d.nodes[pid]
        if node.kind == "basic":
            mean[k] = forward_moments(node.prior).mean
            continue
        env = {p: state.post_y[index[p]] for p in node.parents}
        mean[k] = forward_point(node.transform, eval_expr(node.expr, env))
        for p in node.parents:
            mean[k] += coeffs[index[p], k] * (mean[index[p]] - state.post_x[index[p]])
    return np.concatenate([mean, mean[state.ev_parent]])


def test_linearize_writes_the_level_arcs_layout():
    # The direct fill must match what _level_arcs gathers from the dense B,
    # bit for bit, with every padding column exactly 0.0.
    state = initialize(two_level_mixed())
    step(state)
    step(state)
    arcs = linearize(state)
    want = _level_arcs(state.levels, dense_b(state.n_params, arcs))
    assert len(arcs) == len(want) == len(state.levels)
    assert any((par == nodes[:, None]).any() for nodes, par in state.levels)  # u is padded
    for (nodes, par, c), (w_nodes, w_par, w_c), (l_nodes, l_par) in zip(arcs, want, state.levels):
        assert nodes is l_nodes and par is l_par
        assert np.array_equal(w_nodes, nodes) and np.array_equal(w_par, par)
        assert c.shape == w_c.shape == par.shape
        assert c.tobytes() == w_c.tobytes()
        pad = par == nodes[:, None]
        assert np.all(c[pad] == 0.0) and not np.signbit(c[pad]).any()
    assert np.count_nonzero(dense_b(state.n_params, arcs)) == 9  # z, w and u: 2 parents; v: 3


class TestUpdateMeans:
    def test_matches_the_node_by_node_formula(self):
        state = initialize(two_level_mixed())
        assert len(state.levels) == 2
        step(state)
        step(state)  # two moves off the prior point
        arcs = linearize(state)
        new_mean = update_means(state, arcs)
        expected = first_order_means(state, dense_b(state.n_params, arcs))
        assert not np.allclose(new_mean[: state.n_params], state.post_x)
        np.testing.assert_allclose(new_mean, expected, rtol=1e-13, atol=0.0)

    def test_linear_relation_is_preserved_exactly(self):
        state = initialize(linear_chain())
        step(state)  # move the posterior off the prior point
        new_mean = update_means(state, linearize(state))
        # E z = 2 E x + 1 must survive the first-order update without drift
        assert new_mean[0] == pytest.approx(1.0)
        assert new_mean[1] == pytest.approx(3.0)
        assert new_mean[2] == new_mean[1]

    def test_evidence_entries_track_parameter(self):
        state = initialize(beta_binomial())
        record = step(state)
        assert record.prior_mean_x[1] == record.prior_mean_x[0]


class TestStep:
    def test_conjugate_posterior_after_one_step(self):
        state = initialize(beta_binomial())
        record = step(state)
        assert record.t == 1
        want_mean = digamma(8.0) - digamma(4.0)
        want_var = trigamma(8.0) + trigamma(4.0)
        assert record.posterior_mean_x[0] == pytest.approx(want_mean, rel=1e-9)
        assert record.posterior_var_x[0] == pytest.approx(want_var, rel=1e-9)

    def test_step_matches_the_augmented_model(self):
        # Reference: the parameters plus one leaf per evidence entry that reads
        # its parameter with coefficient one, conditioned exactly on the leaves.
        d = Diagram.from_nodes(
            [
                beta_p("p", 2.0, 3.0),
                normal_p("x", 1.0, 4.0),
                deterministic("z", TS, Add(Mul(Var("p"), Var("x")), Const(1.0))),
                evidence("a", "p", EvidenceSpec(variant="binomial", count=10, successes=7)),
                evidence("b", "p", EvidenceSpec(variant="binomial", count=4, successes=1)),
                evidence(
                    "oz",
                    "z",
                    EvidenceSpec(
                        variant="normal_known_var", count=1, sample_mean=2.5, variance=0.5
                    ),
                ),
            ]
        )
        state = initialize(d, SolverConfig(pool_evidence=False))
        step(state)  # relinearize away from the prior point
        n, m = state.n_params, len(state.ev_obs)
        assert m == 3 and state.ev_parent.tolist().count(state.param_ids.index("p")) == 2
        arcs = linearize(state)
        aug = np.zeros((n + m, n + m))
        aug[:n, :n] = dense_b(n, arcs)
        aug[state.ev_parent, n + np.arange(m)] = 1.0
        ref = propagate_covariance(
            GaussianState(state.order, update_means(state, arcs), aug, state.cond_var)
        )
        want_mean, want_cov = condition(ref, {n + e: o for e, o in enumerate(state.ev_obs)})
        record = step(state)
        np.testing.assert_allclose(record.posterior_mean_x, want_mean, rtol=1e-12, atol=0)
        np.testing.assert_allclose(record.posterior_var_x, np.diag(want_cov), rtol=1e-12, atol=0)
        arcs, a, kept, wide, _, _ = state.snapshot
        scale, pack = np.sqrt(state.cond_var[:n]), state.packing
        cov = _unpack(_covariance(arcs, scale, pack, a, kept, wide), pack)
        np.testing.assert_allclose(cov, want_cov, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("conditioner", [condition, condition_sequential])
    def test_correlated_evidence_matches_the_augmented_model(self, conditioner):
        d = correlated_evidence()
        cfg = SolverConfig(pool_evidence=False)
        result = solve(d, cfg)
        assert result.status == CONVERGED
        state = initialize(d, cfg)
        assert [c.tolist() for c in state.ev_components] == [[[5], [6]], [[3, 4]], [[0, 1, 2]]]
        for _ in result.iterations:
            want_mean, want_cov = augmented_reference(state, conditioner)
            record = step(state)
            np.testing.assert_allclose(record.posterior_mean_x, want_mean, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                record.posterior_var_x, np.diag(want_cov), rtol=1e-12, atol=0
            )
        np.testing.assert_allclose(
            result.posterior_correlations, correlation_matrix(want_cov), rtol=0, atol=1e-12
        )
        assert abs(result.posterior_correlations[0, 2]) > 1e-3  # p1 and p3, through p2

    def test_evidence_blocks_are_the_dense_product(self, monkeypatch):
        # step forms each group's block from the group's own rows and columns
        # of A; with the noise on its diagonal it must equal the group's block
        # of the dense A[par] A[par]' of the factor it keeps, which is zero
        # between groups.
        blocks = []
        eigh_blocks = gaussian_mod._eigh_blocks

        def record(stacks):
            blocks.append([b.copy() for b in stacks])
            return eigh_blocks(stacks)

        monkeypatch.setattr(gaussian_mod, "_eigh_blocks", record)
        state = initialize(correlated_evidence(), SolverConfig(pool_evidence=False))
        n, par = state.n_params, state.ev_parent
        label = np.empty(len(par), dtype=int)
        for k, group in enumerate(g for idx in state.ev_components for g in idx.tolist()):
            label[group] = k
        for _ in range(3):
            step(state)
            _, a, _, _, _, _ = state.snapshot
            a = dense_factor(a, state.packing)
            want = a[par] @ a[par].T
            assert np.all(want[label[:, None] != label[None, :]] == 0.0)
            assert np.count_nonzero(want) < want.size  # entries with no shared ancestor
            want[np.diag_indices_from(want)] += state.cond_var[n:]
            for idx, got in zip(state.ev_components, blocks[-1], strict=True):
                np.testing.assert_allclose(
                    got, want[idx[:, :, None], idx[:, None, :]], rtol=1e-12, atol=0
                )

    def test_posterior_correlations_are_exactly_symmetric(self):
        # Substitution rounds the two triangles of A A' differently; the
        # reported matrix must not show it.
        result = solve(correlated_evidence(), SolverConfig(pool_evidence=False))
        corr = result.posterior_correlations
        assert np.array_equal(corr, corr.T)

    def test_step_records_accumulate(self):
        state = initialize(beta_binomial())
        step(state)
        step(state)
        assert [r.t for r in state.records] == [1, 2]
        # second pass re-derives the same fixed point, so nothing moves
        assert state.records[1].r_max == pytest.approx(0.0, abs=1e-12)


class TestSolve:
    def test_beta_binomial_converges_to_conjugate_answer(self):
        result = solve(beta_binomial())
        assert result.status == CONVERGED
        assert len(result.iterations) <= 3
        post = result.posterior_y["p"]
        assert post.mean == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert post.variance == pytest.approx(0.017094017094017094, abs=1e-5)
        assert result.reported_iteration == result.iterations[-1].t

    def test_linear_model_is_exact_at_second_iteration(self):
        result = solve(linear_chain())
        assert result.status == CONVERGED
        assert len(result.iterations) == 2
        assert result.iterations[1].r_max <= 1e-12
        # conjugate normal answer: z | obs ~ N(83/17, 16/17), x = (z-1)/2
        z = result.posterior_y["z"]
        x = result.posterior_y["x"]
        assert z.mean == pytest.approx(83.0 / 17.0, abs=1e-8)
        assert z.variance == pytest.approx(16.0 / 17.0, abs=1e-8)
        assert x.mean == pytest.approx(33.0 / 17.0, abs=1e-8)
        assert x.variance == pytest.approx(4.0 / 17.0, abs=1e-8)

    def test_linear_chain_correlation_is_one(self):
        result = solve(linear_chain())
        i = result.param_ids.index("x")
        j = result.param_ids.index("z")
        assert result.posterior_correlations[i, j] == pytest.approx(1.0, abs=1e-9)

    # A node that is exactly linear on the transformed scale is linearized
    # like any other, and its slopes are the same at every point.  The point
    # is the parents' natural-scale posterior means, and on a log or
    # log-odds scale the transform of a mean is not the mean of the
    # transform: the node's offset moves once, from the prior's spread to
    # the posterior's, so the second iteration still moves the means and
    # the third repeats it.

    def test_a_power_product_on_the_log_scale(self):
        # w = 3 u^2 / v on log_scaled(0, 2): ln(w/2) = ln 3 + 2 ln(u/2) - ln(v/2).
        t = Transform("log_scaled", 0.0, 2.0)
        lognormal = [
            basic(k, PriorSpec(family="lognormal", transform=t, mean=m, variance=v))
            for k, m, v in (("u", 1.5, 0.4), ("v", 0.8, 0.1))
        ]
        w = Mul(Const(3.0), Div(Pow(Var("u"), 2.0), Var("v")))
        d = Diagram.from_nodes(
            lognormal + [deterministic("w", t, w), evidence("o", "w", normal_look(0.3, 0.2))]
        )
        h = np.array([2.0, -1.0])
        assert_constant_slopes(d, "w", dict(zip("uv", h)))
        result = solve(d)
        assert result.status == CONVERGED
        assert [r.r_max <= 1e-12 for r in result.iterations] == [False, False, True]

        # The linear-Gaussian posterior of (ln(u/2), ln(v/2)) given one
        # look at ln(w/2), whose mean is ln 3 + h.mu plus h.diag(S')/2 for
        # the posterior covariance S' (a lognormal's mean is e^(mu + s/2)).
        prior = [forward_moments(node.prior) for node in lognormal]
        mu, s = np.array([m.mean for m in prior]), np.diag([m.variance for m in prior])
        gain = s @ h / (h @ s @ h + 0.2)
        cov = s - np.outer(gain, s @ h)
        pred = np.log(3.0) + h @ mu + h @ np.diag(cov) / 2.0
        mean = mu + gain * (0.3 - pred)
        want_mean = [*mean, np.log(3.0) + h @ (mean + np.diag(cov) / 2.0)]
        want_var = [*np.diag(cov), h @ cov @ h]
        last = result.iterations[-1]
        order = [result.param_ids.index(k) for k in "uvw"]
        np.testing.assert_allclose(last.posterior_mean_x[order], want_mean, rtol=1e-12, atol=0)
        for record in result.iterations:
            np.testing.assert_allclose(record.posterior_var_x[order], want_var, rtol=1e-12, atol=0)

    def test_an_odds_composition_on_the_log_odds_scale(self):
        # w = p^2 q / (p^2 q + (1 - p)^2 (1 - q)): logit w = 2 logit p + logit q,
        # and a binomial look at p is conjugate to its Beta prior.
        g = Mul(Pow(Var("p"), 2.0), Var("q"))
        h = Mul(Pow(Sub(Const(1.0), Var("p")), 2.0), Sub(Const(1.0), Var("q")))
        d = Diagram.from_nodes(
            [
                beta_p("p", 2.0, 3.0),
                beta_p("q", 4.0, 2.0),
                deterministic("w", T01, Div(g, Add(g, h))),
                evidence("o", "p", EvidenceSpec(variant="binomial", count=10, successes=7)),
            ]
        )
        assert_constant_slopes(d, "w", {"p": 2.0, "q": 1.0})
        result = solve(d)
        assert result.status == CONVERGED
        assert [r.r_max <= 1e-12 for r in result.iterations] == [False, False, True]

        # Beta(9, 6) and Beta(4, 2) on the log-odds scale, and w's transformed
        # mean at their natural means 9/15 and 4/6, which the solver finds
        # by the Beta moment inversion (residual tolerance 1e-10).
        want_mean = [digamma(9.0) - digamma(6.0), digamma(4.0) - digamma(2.0)]
        var_p, var_q = trigamma(9.0) + trigamma(6.0), trigamma(4.0) + trigamma(2.0)
        want_var = [var_p, var_q, 4.0 * var_p + var_q]
        last = result.iterations[-1]
        order = [result.param_ids.index(k) for k in "pqw"]
        np.testing.assert_allclose(last.posterior_mean_x[order[:2]], want_mean, rtol=1e-12, atol=0)
        assert last.posterior_mean_x[order[2]] == pytest.approx(
            2.0 * np.log(9.0 / 6.0) + np.log(4.0 / 2.0), rel=1e-10, abs=0.0
        )
        np.testing.assert_allclose(last.posterior_var_x[order], want_var, rtol=1e-12, atol=0)

    def test_no_evidence_returns_prior_in_one_iteration(self):
        d = Diagram.from_nodes([beta_p("p", 2.0, 3.0), normal_p("x", 1.0, 4.0)])
        result = solve(d)
        assert result.status == CONVERGED
        assert len(result.iterations) == 1
        assert result.posterior_y["p"].mean == pytest.approx(0.4, abs=1e-9)
        assert result.posterior_y["p"].variance == pytest.approx(0.04, abs=1e-9)
        assert result.posterior_y["x"].mean == pytest.approx(1.0, abs=1e-12)
        assert result.posterior_y["x"].variance == pytest.approx(4.0, abs=1e-12)
        np.testing.assert_allclose(result.posterior_correlations, np.eye(2), atol=1e-12)

    def test_undefined_slope_at_a_legal_point_names_the_expression(self, monkeypatch):
        # x^0.5 is defined at the prior point x = 0, but its slope is not.
        d = Diagram.from_nodes(
            [normal_p("x", 0.0, 1.0), deterministic("q", TS, Pow(Var("x"), 0.5))]
        )
        assert eval_expr(Pow(Var("x"), 0.5), {"x": 0.0}) == 0.0
        message = str(assert_a_prior_point_error(d, monkeypatch, "q"))
        assert "x^0.5" in message
        assert "x^(-0.5)" not in message

    def test_a_value_without_a_finite_slope_at_the_prior_point_fails_there(self, monkeypatch):
        # (x - 1)^0.5 is 0 at the prior mean x = 1, and its slope is infinite:
        # initialize names it, as it names a value undefined there.
        d = Diagram.from_nodes(
            [normal_p("x", 1.0, 1.0), deterministic("q", TS, Pow(Sub(Var("x"), Const(1.0)), 0.5))]
        )
        assert str(assert_a_prior_point_error(d, monkeypatch, "q")) == (
            "cannot evaluate 'q' at the prior point: non-finite slope inf along 'x' in (x - 1.0)^0.5"
        )

    def test_a_power_product_whose_walk_overflows(self, monkeypatch):
        # w = u^-2 v^2 is exactly linear on log_scaled(0, 1), but the walk's
        # slope of u^-2 at u = 1e-120 is -2 u^-3, which overflows.
        tiny = [
            basic(k, PriorSpec(family="lognormal", transform=TLOG, mean=m, variance=1e-242))
            for k, m in (("u", 1e-120), ("v", 2e-120))
        ]
        w = deterministic("w", TLOG, Mul(Pow(Var("u"), -2.0), Pow(Var("v"), 2.0)))
        d = Diagram.from_nodes(tiny + [w, evidence("o", "w", normal_look(0.5, 0.2))])
        assert "at the prior point: non-finite slope" in str(
            assert_a_prior_point_error(d, monkeypatch, "w")
        )

    def test_beta_inversion_failure_names_the_node(self):
        # Beta(0.45, 0.45) has a log-odds variance beyond what the moment
        # inversion reaches; the failure must come back typed, with its node.
        d = Diagram.from_nodes([beta_p("p", 0.45, 0.45)])
        with pytest.raises(IterationError) as exc:
            solve(d)
        assert exc.value.node_id == "p"
        assert exc.value.records == []

    def test_near_duplicate_observations_trip_the_conditioning_guard(self):
        # Two near-exact looks at one quantity through two copies of it: the
        # evidence block [[1 + 1e-13, 1], [1, 1 + 1e-13]] has condition 2e13.
        look = EvidenceSpec(variant="normal_known_var", count=1, sample_mean=0.5, variance=1e-13)
        d = Diagram.from_nodes(
            [
                normal_p("x", 0.0, 1.0),
                deterministic("q1", TS, Var("x")),
                deterministic("q2", TS, Var("x")),
                evidence("o1", "q1", look),
                evidence("o2", "q2", look),
            ]
        )
        with pytest.raises(IterationError) as exc:
            solve(d)
        assert exc.value.records == []
        cause = exc.value.__cause__
        assert isinstance(cause, ConditioningError)
        assert cause.condition_estimate == pytest.approx(2.0e13, rel=1e-2)

    def test_iteration_cap_status(self):
        result = solve(beta_binomial(), SolverConfig(max_iterations=1))
        assert result.status == MAX_ITERATIONS
        assert len(result.iterations) == 1
        assert result.reported_iteration == 1

    def test_reciprocal_conflict_diverges(self):
        # A reciprocal observed far on the other side of its pole: each
        # relinearization overshoots and the change measure keeps growing.
        d = Diagram.from_nodes(
            [
                normal_p("x", 0.2, 4.0),
                deterministic("z", TS, Div(Const(1.0), Var("x"))),
                evidence(
                    "oz",
                    "z",
                    EvidenceSpec(
                        variant="normal_known_var", count=1, sample_mean=-5.0, variance=0.1
                    ),
                ),
            ]
        )
        result = solve(d, SolverConfig(max_iterations=30))
        assert result.status == DIVERGED
        best = min(result.iterations, key=lambda rec: rec.r_max)
        assert result.reported_iteration == best.t
        assert "x" in result.posterior_y and "z" in result.posterior_y

    def test_divergence_detection_reports_best_iterate(self, monkeypatch):
        seq = iter([1.0, 2.0, 3.0, 0.5, 2.0, 3.0, 4.0])

        def fake_step(state):
            r = next(seq)
            state.t += 1
            record = IterationRecord(
                t=state.t,
                prior_mean_x=np.zeros(2),
                posterior_mean_x=np.full(1, r),
                posterior_var_x=np.ones(1),
                r=np.array([r]),
                r_max=r,
            )
            state.records.append(record)
            state.snapshot = ((), np.eye(1), np.ones(1), [], np.array([r]), np.array([0.01]))
            return record

        monkeypatch.setattr(solver_mod, "step", fake_step)
        result = solve(beta_binomial(), SolverConfig(divergence_window=3))
        # the run of increases restarts after the dip at t=4, so divergence
        # is declared at t=7 and the dip is the reported iterate
        assert result.status == DIVERGED
        assert len(result.iterations) == 7
        assert result.reported_iteration == 4
        assert result.posterior_y["p"].mean == pytest.approx(0.5)

    def test_divergence_reports_the_best_iterates_correlations(self, monkeypatch):
        seq = iter([1.0, 2.0, 3.0, 0.5, 2.0, 3.0, 4.0])

        def fake_step(state):
            r = next(seq)
            state.t += 1
            record = IterationRecord(
                t=state.t,
                prior_mean_x=np.zeros(4),
                posterior_mean_x=np.full(2, r),
                posterior_var_x=np.ones(2),
                r=np.array([r, r]),
                r_max=r,
            )
            state.records.append(record)
            # p and q are independent, so B = 0 and A = diag(sqrt v); packed as
            # one component (an arc p -> q with coefficient 0) and with one
            # group of both entries on both columns, V = w, the covariance
            # A (I - V'V) A' is [[0.75, rho - 0.25], [rho - 0.25, 0.75]] scaled
            # by sqrt(v_i v_j)
            rho = r / 10.0
            sd = np.sqrt(state.cond_var[:2])
            w = np.array([[np.sqrt(0.25 - rho / 2)] * 2, [np.sqrt(rho / 2), -np.sqrt(rho / 2)]])
            levels = _depth_levels(*arcs_of([[], [0]]))
            state.packing = _packing(levels, np.array([True, True]))
            arcs = tuple((nodes, par, np.zeros(par.shape)) for nodes, par in levels)
            a = np.diag(sd).ravel()  # rows of both live columns
            wide = [(np.array([[0, 1]]), w[None])]
            state.snapshot = (arcs, a, np.ones(2), wide, np.full(2, 0.5), np.full(2, 0.01))
            return record

        d = Diagram.from_nodes(
            [
                beta_p("p"),
                beta_p("q"),
                evidence("yp", "p", EvidenceSpec(variant="binomial", count=10, successes=7)),
                evidence("yq", "q", EvidenceSpec(variant="binomial", count=10, successes=2)),
            ]
        )
        monkeypatch.setattr(solver_mod, "step", fake_step)
        result = solve(d, SolverConfig(divergence_window=3))
        assert result.status == DIVERGED
        assert result.reported_iteration == 4
        want = (0.05 - 0.25) / 0.75
        np.testing.assert_allclose(
            result.posterior_correlations, [[1.0, want], [want, 1.0]], rtol=0, atol=1e-15
        )

    def test_single_increase_does_not_trip_window(self, monkeypatch):
        seq = iter([1.0, 2.0, 1e-9])

        def fake_step(state):
            r = next(seq)
            state.t += 1
            record = IterationRecord(
                t=state.t,
                prior_mean_x=np.zeros(2),
                posterior_mean_x=np.full(1, r),
                posterior_var_x=np.ones(1),
                r=np.array([r]),
                r_max=r,
            )
            state.records.append(record)
            state.snapshot = ((), np.eye(1), np.ones(1), [], np.array([0.5]), np.array([0.01]))
            return record

        monkeypatch.setattr(solver_mod, "step", fake_step)
        result = solve(beta_binomial(), SolverConfig(divergence_window=2))
        assert result.status == CONVERGED
        assert result.reported_iteration == 3


def test_solve_factors_each_evidence_block_once(monkeypatch):
    # The eigendecomposition that guards the evidence block also solves with
    # it: no Cholesky factor and no general solve anywhere in a solve.
    root = Path(__file__).resolve().parents[1]
    generate = bench_generate()
    models = [parse_model(root / "docs" / "models" / name) for name in generate.GOLDEN_MODELS]
    doc = generate.mixed_doc(7, **generate.SMOKE_SIZES["mixed_expr"])
    models.append(parse_model(json.dumps(doc)))
    models.append((correlated_evidence(), SolverConfig(pool_evidence=False)))

    def refuse(*args, **kwargs):
        raise AssertionError("second factorization of the evidence block")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    for d, cfg in models:
        assert solve(d, cfg).status == CONVERGED


def test_warm_step_forms_no_evidence_by_parameter_array():
    # The benchmark's scaling diagram: 1,000 Beta parameters, each observed
    # once, and 500 deterministic children of two of them.  Apart from the
    # factor A (n x q), a step forms no n x m array (no covariance of the
    # evidence with the parameters, no update factor over all parameters),
    # so its peak stays below four times the bytes of A.
    d, cfg = parse_model(json.dumps(bench_generate().scale_doc(7, 1000, 500)))
    state = initialize(d, cfg)
    step(state)
    n, q = state.n_params, int(np.count_nonzero(state.cond_var[: state.n_params]))
    assert (n, q, len(state.ev_obs)) == (1500, 1000, 1000)
    tracemalloc.start()
    try:
        step(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * n * q


def test_a_solve_forms_no_n_by_n_array_but_its_correlations():
    # The benchmark's scaling diagram again, in 500 components.  A and the
    # posterior covariance are packed by component, so besides the returned
    # n x n correlations a solve's arrays are small; the peak stays below
    # one and a half times the correlations' bytes.
    d, cfg = parse_model(json.dumps(bench_generate().scale_doc(7, 1000, 500)))
    n = solve(d, cfg).posterior_correlations.shape[0]
    assert n == 1500
    tracemalloc.start()
    try:
        solve(d, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n


def test_wide_groups_are_read_in_place_for_the_variances():
    # 120 groups of two looks on d = u * v + w, unpooled, joined into one
    # component by an unobserved z = d0 + ... + d119: each group reads its own
    # rows of A, so no group copies the component's block of A, and the peak
    # of _posterior_variance stays below four times A's bytes.
    d, _ = parse_model(json.dumps({"schema_version": "1", "nodes": joined_groups(120)}))
    state = initialize(d, SolverConfig(pool_evidence=False))
    step(state)
    _, a, kept, wide, _, _ = state.snapshot
    assert [v.shape for _, v in wide] == [(120, 2, 3)] and len(state.packing.first) == 2
    tracemalloc.start()
    try:
        gaussian_mod._posterior_variance(a, state.packing, kept, wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 8 * state.packing.a.size


class TestChangeMeasure:
    def test_identical_values_give_zero(self):
        assert _relative_change(0.0, 0.0) == 0.0
        assert _relative_change(5.0, 5.0) == 0.0

    def test_sign_flip(self):
        assert _relative_change(3.0, -3.0) == pytest.approx(2.0)

    def test_scale_free(self):
        small = _relative_change(1.1e-9, 1e-9)
        large = _relative_change(1.1e9, 1e9)
        assert small == pytest.approx(large)
        assert small == pytest.approx(0.1 / 1.1)

    def test_arrays_match_the_scalar_formula_bitwise(self):
        rng = np.random.default_rng(7)
        new = np.concatenate([rng.normal(size=20) * 10.0 ** rng.integers(-9, 9, 20), [0.0, 2.5]])
        old = np.concatenate([new[:10] * (1.0 + rng.normal(size=10) * 1e-3), -new[10:20], [0.0, 2.5]])

        def scalar(a, b):
            return 0.0 if a == b else abs(a - b) / max(abs(a), abs(b))

        expected = [scalar(a, b) for a, b in zip(new.tolist(), old.tolist())]
        assert _relative_change(new, old).tolist() == expected


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0),
            dict(epsilon=-1e-6),
            dict(divergence_window=0),
            dict(max_iterations=0),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.epsilon == 1e-6
        assert cfg.divergence_window == 3
        assert cfg.max_iterations == 50
        assert cfg.pool_evidence is True


def scalar_error(d, monkeypatch):
    """The IterationError of a solve with every family mapped one by one."""
    with monkeypatch.context() as m:
        m.setattr(solver_mod, "_BATCH_MIN", 10**9)
        with pytest.raises(IterationError) as exc:
            solve(d)
    return exc.value


def spy_batches(monkeypatch):
    """The list of families the solver maps as arrays, filled as it runs."""
    batched = []
    array_map = solver_mod._inverse_moments_array

    def spy(family, *args):
        batched.append(family)
        return array_map(family, *args)

    monkeypatch.setattr(solver_mod, "_inverse_moments_array", spy)
    return batched


class TestNaturalMomentsByFamily:
    """Families of at least ``_BATCH_MIN`` members are mapped as arrays; the
    result and the errors are those of the per-parameter loop."""

    def test_first_failing_beta_parameter_is_named(self, monkeypatch):
        n = max(40, 2 * solver_mod._BATCH_MIN)
        nodes = []
        for i in range(n):
            if i in (17, 23):
                nodes.append(beta_p(f"p{i}", 0.45, 0.45))  # diffuse, no evidence
            else:
                nodes.append(beta_p(f"p{i}", 2.0, 3.0))
                look = EvidenceSpec(variant="binomial", count=10, successes=i % 11)
                nodes.append(evidence(f"o{i}", f"p{i}", look))
        d = Diagram.from_nodes(nodes)
        batched = spy_batches(monkeypatch)
        with pytest.raises(IterationError) as exc:
            solve(d)
        assert batched == ["beta"]
        assert exc.value.node_id == "p17"
        assert exc.value.records == []
        expected = scalar_error(d, monkeypatch)
        assert str(exc.value) == str(expected)
        assert type(exc.value.__cause__) is type(expected.__cause__)

    def test_lognormal_overflow_in_a_batched_family(self, monkeypatch):
        # q_i = exp(c_i x) on log_scaled(0, 1) has X = c_i x, so its posterior
        # lognormal mean exp(c_i E x + c_i^2 Var x / 2) overflows for c = 40.
        n = max(20, solver_mod._BATCH_MIN + 4)
        nodes = [normal_p("x", 1.0, 1.0)]
        for i in range(n):
            c = 40.0 if i in (7, 12) else 1.0 + i / n
            nodes.append(deterministic(f"q{i}", TLOG, Exp(Mul(Const(c), Var("x")))))
        d = Diagram.from_nodes(nodes)
        batched = spy_batches(monkeypatch)
        with pytest.raises(IterationError) as exc:
            solve(d)
        assert batched == ["lognormal"]
        assert exc.value.node_id == "q7"
        assert exc.value.records == []
        assert isinstance(exc.value.__cause__, OverflowError)
        assert str(exc.value) == str(scalar_error(d, monkeypatch))

    @pytest.mark.parametrize("q_first", [True, False])
    def test_the_first_failure_in_parameter_order_is_named(self, q_first, monkeypatch):
        # q, the one lognormal parameter (mapped one by one), overflows, and
        # pd, a diffuse member of the batched Beta family, cannot be inverted;
        # whichever comes first in parameter order is named.
        n = solver_mod._BATCH_MIN + 4
        betas = [beta_p(f"p{i}", 2.0, 2.0) for i in range(n)]
        q = [normal_p("x", 1.0, 1.0), deterministic("q", TLOG, Exp(Mul(Const(40.0), Var("x"))))]
        pd = [beta_p("pd", 0.45, 0.45)]
        d = Diagram.from_nodes(betas[: n // 2] + (q + pd if q_first else pd + q) + betas[n // 2 :])
        first, second = ("q", "pd") if q_first else ("pd", "q")
        order = initialize(d).param_ids
        assert order[0] == "p0" and order.index(first) < order.index(second)
        with pytest.raises(IterationError) as exc:
            solve(d)
        assert exc.value.node_id == first
        assert str(exc.value) == str(scalar_error(d, monkeypatch))


def spy_tapes(monkeypatch):
    """The sizes of the tapes the solver runs, one entry per run, filled as it runs."""
    sizes = []
    run = solver_mod._linearize_tape

    def spy(tape, *args):
        sizes.append(len(tape.nodes))
        return run(tape, *args)

    monkeypatch.setattr(solver_mod, "_linearize_tape", spy)
    return sizes


def spy_walks(monkeypatch):
    """The ids of the nodes ``linearize`` walks on their own by :func:`slopes`."""
    walked = []
    walk = solver_mod.slopes

    def spy(node, *args):
        walked.append(node.id)
        return walk(node, *args)

    monkeypatch.setattr(solver_mod, "slopes", spy)
    return walked


def test_a_beta_family_solve_runs_one_polygamma_pass_per_map(monkeypatch):
    # 40 Betas with a binomial count each: the prior map, the binomial
    # references and three Newton passes of the first step's inversion take
    # 80 arguments each, the inversion's last pass the 3 Betas still moving;
    # in the later steps fewer than _BATCH_MIN Betas move, mapped one by one.
    sizes = []
    run = specfun_mod._polygammas_lockstep

    def spy(z):
        sizes.append(len(z))
        return run(z)

    monkeypatch.setattr(specfun_mod, "_polygammas_lockstep", spy)
    d, cfg = parse_model(json.dumps(bench_generate().scale_doc(1, 40, 20)))
    assert solve(d, cfg).status == CONVERGED
    assert sizes == [80, 80, 80, 80, 80, 6]


def test_a_solve_recognizes_no_linear_node(monkeypatch):
    calls = []
    monkeypatch.setattr(solver_mod, "recognize_linear", lambda *args: calls.append(args))
    for d in (linear_chain(), two_level_mixed(), correlated_evidence()):
        solve(d)
    assert calls == []


def record_bits(records):
    return [
        (r.t, r.prior_mean_x.tobytes(), r.posterior_mean_x.tobytes(), r.posterior_var_x.tobytes())
        for r in records
    ]


def moved_nodes(state, point):
    """The deterministic nodes with a parent whose ``post_y`` differs from ``point`` in a bit."""
    moved = state.post_y.view(np.int64) != point.view(np.int64)
    return sorted(
        state.param_ids[k]
        for nodes, par in state.levels
        for k, ps in zip(nodes.tolist(), par.tolist())
        if any(moved[i] for i in ps if i != k)
    )


def spy_columns(monkeypatch):
    """The members of each pass of ``_slopes_columns``, one entry per pass, as the solver runs."""
    passes = []
    run = solver_mod._slopes_columns

    def spy(ops, consts, env, *args):
        passes.append(len(env))
        return run(ops, consts, env, *args)

    monkeypatch.setattr(solver_mod, "_slopes_columns", spy)
    return passes


def test_the_prior_point_passes_a_tape_only_where_a_level_holds_batch_min_members(monkeypatch):
    # c_i = 0.9 * c_(i-1) + x_i for i = 1 .. 40 is a chain of 40 levels of one
    # shape, and n nodes e_j = 0.5 * c_5 + z_j of that shape join c_6 in its
    # level.  As linearize would, the prior point passes that level's members
    # at once and walks every other level's one member: each deterministic
    # node is evaluated once, with the bits of a walk.
    n = solver_mod._BATCH_MIN
    nodes = [normal_p(f"x{i}", 0.1 * i, 0.5) for i in range(41)]
    nodes += [normal_p(f"z{j}", -0.1 * j, 0.5) for j in range(n)]
    nodes += [deterministic("c0", TS, Mul(Const(0.9), Var("x0")))]
    chain = [Add(Mul(Const(0.9), Var(f"c{i - 1}")), Var(f"x{i}")) for i in range(1, 41)]
    nodes += [deterministic(f"c{i}", TS, e) for i, e in enumerate(chain, 1)]
    nodes += [deterministic(f"e{j}", TS, Add(Mul(Const(0.5), Var("c5")), Var(f"z{j}"))) for j in range(n)]
    d = Diagram.from_nodes(nodes + [evidence("look", "c40", normal_look(1.0, 0.5))])
    passed, walked = [], spy_walks(monkeypatch)
    run = solver_mod._linearize_tape

    def spy(tape, members, *args):
        passed.append(tape.nodes[members])
        return run(tape, members, *args)

    monkeypatch.setattr(solver_mod, "_linearize_tape", spy)
    state = initialize(d)
    assert [len(tape.nodes) for tape in state.tapes] == [40 + n]
    assert [len(members) for members in passed] == [n + 1]
    evaluated = [state.param_ids[k] for k in passed[0].tolist()] + walked
    assert sorted(evaluated) == sorted([f"c{i}" for i in range(41)] + [f"e{j}" for j in range(n)])
    monkeypatch.setattr(solver_mod, "_BATCH_MIN", 10**9)
    alone = initialize(d)
    for name in ("post_y", "point_x"):
        assert getattr(state, name).tobytes() == getattr(alone, name).tobytes()
    assert state.linearized[1].tobytes() == alone.linearized[1].tobytes()


def test_a_shape_of_batch_min_nodes_runs_one_tape_per_step(monkeypatch):
    # _BATCH_MIN nodes q_i = x * (y + c_i) share a shape; three r_j = x * y * c_j
    # share another, too few for a tape; z, affine, is walked like the r_j.
    # initialize walks each node once, at the prior point; iteration 1 walks
    # none, and iteration 2 the nodes whose parents moved: all of them.
    n = solver_mod._BATCH_MIN
    nodes = [normal_p("x", 1.0, 0.5), normal_p("y", 2.0, 0.3)]
    x, y = Var("x"), Var("y")
    nodes += [deterministic(f"q{i}", TS, Mul(x, Add(y, Const(0.1 * i)))) for i in range(n)]
    nodes += [deterministic(f"r{j}", TS, Mul(Mul(x, y), Const(j + 1.0))) for j in range(3)]
    nodes += [deterministic("z", TS, Add(Var("x"), Var("y")))]
    nodes += [evidence("look", "q3", normal_look(2.5, 0.2))]
    sizes, passes, walked = spy_tapes(monkeypatch), spy_columns(monkeypatch), spy_walks(monkeypatch)
    state = initialize(Diagram.from_nodes(nodes))
    alone = ["r0", "r1", "r2", "z"]
    assert [len(tape.nodes) for tape in state.tapes] == [n]
    assert passes == [n] and sorted(walked) == alone
    point = state.post_y.copy()
    passes.clear()
    walked.clear()
    step(state)
    assert sizes == [n] and passes == [] and walked == []
    assert moved_nodes(state, point) == sorted([f"q{i}" for i in range(n)] + alone)
    step(state)
    assert sizes == [n, n] and passes == [n] and sorted(walked) == alone


class TestTapeErrors:
    """A tape's failing members are walked again one by one, so the error
    named, its text and the records kept are those of the per-node walk."""

    def solve_both(self, nodes, monkeypatch):
        d = Diagram.from_nodes(nodes)
        sizes = spy_tapes(monkeypatch)
        with pytest.raises(IterationError) as exc:
            solve(d)
        assert sizes and set(sizes) == {solver_mod._BATCH_MIN + 4}
        expected = scalar_error(d, monkeypatch)
        assert exc.value.node_id == expected.node_id
        assert str(exc.value) == str(expected)
        assert type(exc.value.__cause__) is type(expected.__cause__)
        assert record_bits(exc.value.records) == record_bits(expected.records)
        return exc.value

    def fail_both(self, nodes, monkeypatch):
        """:meth:`solve_both` for q5's error at the prior point, which initialize raises."""
        sizes = spy_tapes(monkeypatch)
        err = assert_a_prior_point_error(Diagram.from_nodes(nodes), monkeypatch, "q5")
        assert sizes and set(sizes) == {solver_mod._BATCH_MIN + 4}
        return err

    def members(self, transform, expr, bad):
        """``_BATCH_MIN + 4`` nodes ``expr(c)``; c = ``bad`` for q5 and q9."""
        n = solver_mod._BATCH_MIN + 4
        return [
            deterministic(f"q{i}", transform, expr(bad if i in (5, 9) else -5.0 - i / n))
            for i in range(n)
        ]

    def test_a_non_finite_slope_at_the_prior_point(self, monkeypatch):
        # (x - c)^0.5 at x = c is 0, and its slope is infinite.
        nodes = [normal_p("x", 1.0, 1.0)]
        nodes += self.members(TS, lambda c: Pow(Sub(Var("x"), Const(c)), 0.5), 1.0)
        assert "non-finite slope" in str(self.fail_both(nodes, monkeypatch))

    def test_a_value_that_fails_at_a_later_iteration(self, monkeypatch):
        # The look pulls x from 1 to about -2, where ln(x - 0) is undefined.
        nodes = [normal_p("x", 1.0, 1.0), evidence("look", "x", normal_look(-2.0, 0.01))]
        nodes += self.members(TS, lambda c: Ln(Sub(Var("x"), Const(c))), 0.0)
        err = self.solve_both(nodes, monkeypatch)
        assert err.node_id == "q5" and len(err.records) == 1
        assert "log of non-positive value" in str(err)

    def test_a_value_off_its_transform_support(self, monkeypatch):
        # x - 0 is defined everywhere, but leaves log_scaled's (0, inf) with x.
        nodes = [normal_p("x", 1.0, 1.0), evidence("look", "x", normal_look(-2.0, 0.01))]
        nodes += self.members(TLOG, lambda c: Sub(Var("x"), Const(c)), 0.0)
        err = self.solve_both(nodes, monkeypatch)
        assert err.node_id == "q5" and len(err.records) == 1
        assert "outside its transform support" in str(err)

    # x - c written three ways that share one shape
    ways = (
        lambda c: Sub(Var("x"), Const(c)),
        lambda c: Add(Var("x"), Neg(Const(c))),
        lambda c: Sub(Var("x"), Neg(Neg(Const(c)))),
    )

    def merged(self, transform, expr, bad):
        """:meth:`members` of ``expr(x - c)``, with ``x - c`` written the three :attr:`ways`."""
        n = solver_mod._BATCH_MIN + 4
        return [
            deterministic(f"q{i}", transform, expr(self.ways[i % 3](c)))
            for i, c in enumerate(bad if i in (5, 9) else -5.0 - i / n for i in range(n))
        ]

    def test_a_merged_tape_member_that_fails_at_a_later_iteration(self, monkeypatch):
        # The look pulls x from 1 to about -2, where ln(x - 0) is undefined.
        nodes = [normal_p("x", 1.0, 1.0), evidence("look", "x", normal_look(-2.0, 0.01))]
        nodes += self.merged(TS, Ln, 0.0)
        trees = [Ln(way(0.0)) for way in self.ways]
        assert len({format_expr(tree) for tree in trees}) == 3
        assert len({tree.shape[0] for tree in trees}) == 1
        err = self.solve_both(nodes, monkeypatch)
        assert err.node_id == "q5" and len(err.records) == 1
        assert "log of non-positive value" in str(err)

    def test_a_merged_tape_member_without_a_slope_at_the_prior_point(self, monkeypatch):
        # (x - 1)^0.5 at x = 1 is 0, and its slope is infinite.
        nodes = [normal_p("x", 1.0, 1.0)]
        nodes += self.merged(TS, lambda u: Pow(u, 0.5), 1.0)
        assert "non-finite slope" in str(self.fail_both(nodes, monkeypatch))

    @pytest.mark.parametrize("batch_min", [1, solver_mod._BATCH_MIN, 10**9])
    def test_a_member_without_a_slope_at_the_prior_point_fails_initialize(
        self, batch_min, monkeypatch
    ):
        # q5 = (x5 - 1)^0.5 at x5's prior mean 1 is 0, and its slope is
        # infinite; the other members have finite slopes there.
        n = solver_mod._BATCH_MIN + 4
        nodes = [normal_p(f"x{i}", 1.0 if i == 5 else 2.0 + i, 1.0) for i in range(n)]
        nodes += [
            deterministic(f"q{i}", TS, Pow(Sub(Var(f"x{i}"), Const(1.0)), 0.5)) for i in range(n)
        ]
        d = Diagram.from_nodes(nodes)
        want = init_error(d, 10**9, monkeypatch)
        sizes = spy_tapes(monkeypatch)
        got = init_error(d, batch_min, monkeypatch)
        assert sizes == ([n] if batch_min <= n else [])
        assert got.node_id == want.node_id == "q5"
        assert str(got) == str(want) == (
            "cannot evaluate 'q5' at the prior point: "
            "non-finite slope inf along 'x5' in (x5 - 1.0)^0.5"
        )
        assert type(got.__cause__) is type(want.__cause__) is EvalError

    def test_a_parent_on_its_support_end(self, monkeypatch):
        # A Beta posterior mean can round onto the end of (0, 1), where the
        # parent's transform has no derivative.
        n = solver_mod._BATCH_MIN + 4
        nodes = [beta_p(f"p{i}", 2.0, 2.0) for i in range(n)]
        nodes += [deterministic(f"q{i}", TS, Mul(Var(f"p{i}"), Const(2.0 + i))) for i in range(n)]
        d = Diagram.from_nodes(nodes)

        def linearize_at_the_end(batch_min):
            monkeypatch.setattr(solver_mod, "_BATCH_MIN", batch_min)
            state = initialize(d)
            state.post_y[[state.param_ids.index(p) for p in ("p5", "p9")]] = 1.0
            with pytest.raises(IterationError) as exc:
                linearize(state)
            return len(state.tapes), exc.value

        (tapes, got), (_, want) = linearize_at_the_end(n - 4), linearize_at_the_end(10**9)
        assert tapes == 1 and got.node_id == "q5"
        assert str(got) == str(want) and "outside the support" in str(got)
        assert type(got.__cause__) is type(want.__cause__)


def signed_affine(n, seed):
    """``n`` nodes over six Normal parameters written as the mixed_expr benchmark
    writes its affine ones: a literal, negative for every other node, then
    terms each added or subtracted at random, the last a product.  They fall
    into several operator sequences, and all share one expression shape."""
    rng = np.random.default_rng(seed)
    zs = [f"z{i}" for i in range(6)]
    nodes = [normal_p(z, rng.uniform(-2.0, 2.0), rng.uniform(0.5, 4.0)) for z in zs]
    for z in zs[:4]:  # two looks on each, pooled or not
        for k in range(2):
            nodes.append(evidence(f"o{z}_{k}", z, normal_look(rng.normal(), rng.uniform(0.5, 2.0))))
    for i in range(n):
        a, b, c = rng.permutation(zs)[:3]
        text = f"{(-1.0 if i % 2 == 0 else 1.0) * rng.uniform(0.1, 1.0):.3f}"
        for term in (a, b, f"{b}*{c}"):
            text += f" {'+' if rng.random() < 0.5 else '-'} {rng.uniform(0.2, 1.0):.3f}*{term}"
        nodes.append(deterministic(f"a{i}", TS, parse_expression(text)))
    nodes += [evidence("oa0", "a0", normal_look(0.3, 0.5))]
    nodes += [evidence("oa1", "a1", normal_look(-0.2, 0.4))]
    return Diagram.from_nodes(nodes)


def test_signed_affine_nodes_written_several_ways_run_one_tape_per_step(monkeypatch):
    n = solver_mod._BATCH_MIN + 4
    d = signed_affine(n, 7)
    trees = [d.nodes[f"a{i}"].expr for i in range(n)]
    operators = [tuple(type(e) for e in tree.postorder) for tree in trees]
    assert len(set(operators)) > 1 and sum(Neg in ops for ops in operators) == n // 2
    assert len({tree.shape[0] for tree in trees}) == 1
    sizes, passes, walked = spy_tapes(monkeypatch), spy_columns(monkeypatch), spy_walks(monkeypatch)
    state = initialize(d)
    assert [len(tape.nodes) for tape in state.tapes] == [n] and state.walked == []
    assert passes == [n] and walked == []
    passes.clear()
    step(state)
    assert sizes == [n] and passes == []
    step(state)
    assert sizes == [n, n] and passes == [n] and walked == []


@pytest.mark.parametrize("pool", [True, False])
def test_a_merged_tape_solves_as_its_members_walked_one_by_one(pool, monkeypatch):
    d, cfg = signed_affine(solver_mod._BATCH_MIN + 4, 11), SolverConfig(pool_evidence=pool)
    assert len(initialize(d, cfg).tapes) == 1
    got = solve(d, cfg)
    monkeypatch.setattr(solver_mod, "_BATCH_MIN", 10**9)
    want = solve(d, cfg)
    assert len(got.iterations) > 2 and result_bits(got) == result_bits(want)


@pytest.mark.parametrize("pool", [True, False])
def test_wide_evidence_groups_solve_the_same_bits_in_runs_of_one_group(pool, monkeypatch):
    # Twelve groups of two looks, each on d = u * v + w with three live
    # ancestors, make one shape class of width 3: one (ancestors, V) pair of
    # twelve groups as _factor_update returns it, and twelve pairs of one
    # group when it is split. Each group reads its own rows in place, so the
    # split solves to the same bits, whether the groups sit in components of
    # their own or are joined in one by an unobserved z = d0 + ... + d11.
    update, runs = solver_mod._factor_update, []

    def split(*args):
        shift, kept, wide = update(*args)
        runs.extend(len(anc) for anc, _ in wide)
        return shift, kept, [(anc[i : i + 1], v[i : i + 1]) for anc, v in wide for i in range(len(anc))]

    for nodes in (wide_groups(), joined_groups()):
        d, _ = parse_model(json.dumps({"schema_version": "1", "nodes": nodes}))
        cfg = SolverConfig(pool_evidence=pool)
        assert [anc.shape for anc in initialize(d, cfg).ev_ancestors] == [(12, 3)]
        got = solve(d, cfg)
        monkeypatch.setattr(solver_mod, "_factor_update", split)
        want = solve(d, cfg)
        monkeypatch.undo()
        assert got.status == CONVERGED and len(want.iterations) > 1 and set(runs) == {12}
        runs.clear()
        assert result_bits(got) == result_bits(want)


def models_for_equivalence():
    generate = bench_generate()
    root = Path(__file__).resolve().parents[1]
    models = {
        name: parse_model(root / "docs" / "models" / name) for name in generate.GOLDEN_MODELS
    }
    for name in ("scale_1500", "mixed_expr"):
        (doc,) = generate.workload_docs(name, 505, smoke=True).values()
        models[name] = parse_model(json.dumps(doc))
    return models


@pytest.mark.parametrize(
    "name", ["beta_binomial.json", "risk_difference.json", "scale_1500", "mixed_expr"]
)
def test_array_and_scalar_moment_maps_give_bitwise_equal_solves(name, monkeypatch):
    d, cfg = models_for_equivalence()[name]
    results = []
    for batch_min in (1, 10**9):
        monkeypatch.setattr(solver_mod, "_BATCH_MIN", batch_min)
        results.append(solve(d, cfg))
    batched, scalar = results
    assert batched.status == scalar.status
    assert len(batched.iterations) == len(scalar.iterations)
    for rb, rs in zip(batched.iterations, scalar.iterations):
        assert rb.posterior_mean_x.tobytes() == rs.posterior_mean_x.tobytes()
        assert rb.posterior_var_x.tobytes() == rs.posterior_var_x.tobytes()
    assert {k: (m.mean.hex(), m.variance.hex()) for k, m in batched.posterior_y.items()} == {
        k: (m.mean.hex(), m.variance.hex()) for k, m in scalar.posterior_y.items()
    }
    assert batched.posterior_correlations.tobytes() == scalar.posterior_correlations.tobytes()



def init_error(d, batch_min, monkeypatch):
    """The InitializationError of ``initialize(d)`` with ``_BATCH_MIN`` set to ``batch_min``."""
    with monkeypatch.context() as m:
        m.setattr(solver_mod, "_BATCH_MIN", batch_min)
        with pytest.raises(InitializationError) as exc:
            initialize(d)
    return exc.value


def assert_the_scalar_error(d, monkeypatch, node_id, batch_min=1):
    """The array paths raise what the scalar paths raise, naming ``node_id``."""
    got, want = init_error(d, batch_min, monkeypatch), init_error(d, 10**9, monkeypatch)
    assert got.node_id == want.node_id == node_id
    assert str(got) == str(want)
    assert type(got.__cause__) is type(want.__cause__)
    return got


def assert_a_prior_point_error(d, monkeypatch, node_id):
    """``solve(d)`` names ``node_id`` at the prior point by an EvalError, and
    ``initialize`` raises the same at ``_BATCH_MIN`` 1, its own and 10**9."""
    with pytest.raises(InitializationError) as exc:
        solve(d)
    got = exc.value
    for batch_min in (1, solver_mod._BATCH_MIN):
        assert str(assert_the_scalar_error(d, monkeypatch, node_id, batch_min)) == str(got)
    assert got.node_id == node_id and type(got.__cause__) is EvalError
    assert str(got).startswith(f"cannot evaluate {node_id!r} at the prior point: ")
    return got


def binomial_look(count, successes, **reference):
    return EvidenceSpec(variant="binomial", count=count, successes=successes, **reference)


TINY_REFERENCE = {"alpha": 1e-160, "beta": 1.0}  # with no success, v1 and v2 are both inf


class TestInitializeByArrays:
    """Beta prior families, binomial observations and each tape's prior point
    go through arrays, with the scalar paths' bits and errors."""

    @pytest.mark.parametrize(
        "name", ["beta_binomial.json", "risk_difference.json", "scale_1500", "mixed_expr"]
    )
    @pytest.mark.parametrize("pool", [True, False])
    def test_the_state_is_bit_equal_to_the_scalar_path(self, name, pool, monkeypatch):
        d, _ = models_for_equivalence()[name]
        states = []
        for batch_min in (1, 10**9):
            monkeypatch.setattr(solver_mod, "_BATCH_MIN", batch_min)
            states.append(initialize(d, SolverConfig(pool_evidence=pool)))
        batched, scalar = states
        assert not scalar.tapes and scalar.transforms is None
        assert batched.order == scalar.order
        for field in ("post_x", "post_y", "point_x", "cond_var", "ev_obs", "ev_parent"):
            assert getattr(batched, field).tobytes() == getattr(scalar, field).tobytes(), field
        # and the scalar state maps every moment one by one
        array_calls = spy_batches(monkeypatch)
        step(scalar)
        assert array_calls == []

    def test_a_beta_prior_that_overflows_in_a_family(self, monkeypatch):
        n = solver_mod._BATCH_MIN + 4
        priors = [beta_p(f"p{i}", 1e-160 if i in (6, 9) else i + 1.0) for i in range(n)]
        d = Diagram.from_nodes(priors)
        err = assert_the_scalar_error(d, monkeypatch, "p6", batch_min=n)
        assert "cannot map the prior of 'p6'" in str(err)

    def test_a_binomial_observation_that_adds_no_precision(self, monkeypatch):
        n = solver_mod._BATCH_MIN + 4
        nodes = [beta_p(f"p{i}", 2.0, 3.0) for i in range(n)]
        for i in range(n):
            reference = TINY_REFERENCE if i in (5, 8) else {}
            look = binomial_look(10, 0 if reference else i % 11, **reference)
            nodes.append(evidence(f"o{i}", f"p{i}", look))
        err = assert_the_scalar_error(Diagram.from_nodes(nodes), monkeypatch, "o5", batch_min=n)
        assert "adds no precision" in str(err)

    def test_parameters_fail_before_observations(self, monkeypatch):
        n = solver_mod._BATCH_MIN + 4
        nodes = [evidence("o0", "p0", binomial_look(5, 0, **TINY_REFERENCE))]
        nodes += [beta_p(f"p{i}", 1e-160 if i == 9 else 2.0) for i in range(n)]
        assert_the_scalar_error(Diagram.from_nodes(nodes), monkeypatch, "p9")

    @pytest.mark.parametrize("q_first", [True, False])
    def test_the_first_failure_in_parameter_order_is_named(self, q_first, monkeypatch):
        # q3's prior point (a tape member) and p7's prior map (a Beta family
        # member) fail; whichever comes first in parameter order is named.
        n = solver_mod._BATCH_MIN + 4
        qs = [normal_p("x", 1.0, 0.5)] + [
            deterministic(f"q{i}", TS, Ln(Sub(Var("x"), Const(2.0 if i == 3 else -1.0 - i))))
            for i in range(n)
        ]
        ps = [beta_p(f"p{i}", 1e-160 if i == 7 else 2.0) for i in range(n)]
        d = Diagram.from_nodes(qs + ps if q_first else ps + qs)
        first, second = ("q3", "p7") if q_first else ("p7", "q3")
        assert topological_order(d).index(first) < topological_order(d).index(second)
        assert_the_scalar_error(d, monkeypatch, first, batch_min=n)

    def test_a_slope_failure_is_named_before_a_later_failing_prior_map(self, monkeypatch):
        # q3's slope (x - 1)^0.5 at x = 1 is infinite, and p7's prior map
        # fails; q3 comes first in parameter order, so it is named.
        n = solver_mod._BATCH_MIN + 4
        qs = [normal_p("x", 1.0, 0.5)] + [
            deterministic(f"q{i}", TS, Pow(Sub(Var("x"), Const(1.0 if i == 3 else -1.0 - i)), 0.5))
            for i in range(n)
        ]
        ps = [beta_p(f"p{i}", 1e-160 if i == 7 else 2.0) for i in range(n)]
        d = Diagram.from_nodes(qs + ps)
        assert topological_order(d).index("q3") < topological_order(d).index("p7")
        assert "'p7'" in str(init_error(Diagram.from_nodes(ps), n, monkeypatch))
        for batch_min in (1, n):
            err = assert_the_scalar_error(d, monkeypatch, "q3", batch_min)
        assert str(err).startswith("cannot evaluate 'q3' at the prior point: non-finite slope")
        assert type(err.__cause__) is EvalError

    @pytest.mark.parametrize(
        "name", ["beta_binomial.json", "risk_difference.json", "scale_1500", "mixed_expr"]
    )
    @pytest.mark.parametrize("batch_min", [1, solver_mod._BATCH_MIN, 10**9])
    def test_a_successful_initialize_is_the_first_linearization(
        self, name, batch_min, monkeypatch
    ):
        d, cfg = models_for_equivalence()[name]
        monkeypatch.setattr(solver_mod, "_BATCH_MIN", batch_min)
        state = initialize(d, cfg)
        assert state.linearized is not None
        assert state.linearized[0].tobytes() == state.post_y.tobytes()
        passes, walked = spy_columns(monkeypatch), spy_walks(monkeypatch)
        step(state)
        assert passes == [] and walked == []

    def test_only_what_an_array_pass_cannot_finish_reaches_the_scalar_maps(self, monkeypatch):
        n = solver_mod._BATCH_MIN + 4
        nodes = [normal_p("x", 1.0, 0.5)] + [beta_p(f"p{i}", 1.0 + i, 2.0) for i in range(n)]
        nodes += [evidence(f"o{i}", f"p{i}", binomial_look(9, i % 10)) for i in range(n)]
        nodes += [
            deterministic(f"q{i}", TS, Mul(Var("x"), Add(Var(f"p{i}"), Const(0.1 * i))))
            for i in range(n)
        ]
        calls = {"forward_moments": [], "to_likelihood": []}
        for name, seen in calls.items():

            def spy(first, *args, _fn=getattr(solver_mod, name), _seen=seen):
                _seen.append(first)
                return _fn(first, *args)

            monkeypatch.setattr(solver_mod, name, spy)
        state = initialize(Diagram.from_nodes(nodes))
        assert [len(tape.nodes) for tape in state.tapes] == [n]
        assert [p.family for p in calls["forward_moments"]] == ["normal"]
        assert calls["to_likelihood"] == []

        bad = evidence("o_bad", "p2", binomial_look(9, 0, **TINY_REFERENCE))
        with pytest.raises(InitializationError, match="'o_bad'"):
            initialize(Diagram.from_nodes(nodes + [bad]))
        assert calls["to_likelihood"] == [bad.obs]

    def test_binomial_looks_read_their_priors_moments(self, monkeypatch):
        # A look whose reference is its parent's Beta prior takes that
        # prior's log-odds moments from the prior map; a look with its own
        # reference, or on a node without a prior, computes them.
        n = solver_mod._BATCH_MIN + 4
        nodes = [beta_p(f"p{i}", 1.0 + i, 2.0) for i in range(n)]
        nodes += [evidence(f"o{i}", f"p{i}", binomial_look(9, i % 10)) for i in range(n)]
        nodes += [evidence("own", "p3", binomial_look(4, 1, alpha=3.0, beta=1.5))]
        nodes += [deterministic("q", T01, Mul(Var("p0"), Const(0.5)))]
        nodes += [evidence("oq", "q", binomial_look(5, 2))]
        d = Diagram.from_nodes(nodes)
        sizes = []
        lockstep = evidence_mod._beta_to_moments_lockstep

        def spy(alpha, beta):
            sizes.append(len(alpha))
            return lockstep(alpha, beta)

        monkeypatch.setattr(evidence_mod, "_beta_to_moments_lockstep", spy)
        state = initialize(d, SolverConfig(pool_evidence=False))
        assert sizes == [2 + (n + 2)]  # two references, and every posterior's
        monkeypatch.setattr(solver_mod, "_BATCH_MIN", 10**9)
        scalar = initialize(d, SolverConfig(pool_evidence=False))
        for name in ("ev_obs", "cond_var"):
            assert getattr(state, name).tobytes() == getattr(scalar, name).tobytes()


class TestPriorPointsOnTheSupportEnd:
    """A prior point on the support whose transform ratio underflows to 0
    names its node instead of raising math's bare ValueError."""

    T = Transform("log_scaled", 0.0, 1e308)

    def test_one_node(self):
        y = deterministic("y", self.T, Mul(Var("x"), Const(1e-320)))
        d = Diagram.from_nodes([normal_p("x", 1.0, 0.1), y])
        with pytest.raises(InitializationError, match="evaluate 'y' at the prior point") as exc:
            solve(d)
        assert exc.value.node_id == "y"
        assert isinstance(exc.value.__cause__, ValueError)

    def test_a_tape_member(self, monkeypatch):
        n = solver_mod._BATCH_MIN + 4
        nodes = [normal_p("x", 1.0, 0.1)] + [
            deterministic(f"y{i}", self.T, Mul(Var("x"), Const(1e-320 if i == 5 else 1.0 + i)))
            for i in range(n)
        ]
        assert_the_scalar_error(Diagram.from_nodes(nodes), monkeypatch, "y5", batch_min=n)


def three_differences(v):
    """The three risk differences of :func:`correlated_evidence`, each seen with variance ``v``.

    At v = 0.01 the looks conflict with the priors, and the plain iteration
    crawls: it is still moving at the cap of 50 iterations."""
    td = Transform("scaled", -1.0, 1.0)
    return Diagram.from_nodes(
        [
            beta_p("p1", 2.0, 6.0),
            beta_p("p2", 2.0, 8.0),
            beta_p("p3", 3.0, 9.0),
            beta_p("p4", 2.0, 10.0),
            deterministic("d12", td, Sub(Var("p1"), Var("p2"))),
            deterministic("d23", td, Sub(Var("p2"), Var("p3"))),
            deterministic("d34", td, Sub(Var("p3"), Var("p4"))),
            evidence("e12", "d12", normal_look(0.05, v)),
            evidence("e23", "d23", normal_look(-0.03, v)),
            evidence("e34", "d34", normal_look(0.1, v)),
        ]
    )


def without_reuse(state):
    """A copy of ``state`` that keeps nothing of earlier iterations to reuse.

    A step writes only ``point_x`` and ``records`` in place, so those are
    copied; it rebinds the rest."""
    twin = copy.copy(state)
    twin.point_x = state.point_x.copy()
    twin.records = list(state.records)
    twin.linearized = twin.inverted = None
    return twin


def solve_without_reuse(d, cfg, monkeypatch):
    """``solve(d, cfg)`` with every entry of every iteration computed from its inputs."""
    run = solver_mod.step

    def fresh_step(state):
        state.linearized = state.inverted = None
        return run(state)

    with monkeypatch.context() as m:
        m.setattr(solver_mod, "step", fresh_step)
        return solve(d, cfg)


def iteration_arrays(record, snapshot):
    """The arrays an iteration hands out: its record's and its snapshot's.

    The arcs' node and parent tables and the wide groups' ancestors are the
    solve's fixed structure, shared by design; the coefficients and the
    update factors are the iteration's own."""
    arcs, a, kept, wide, mean_y, var_y = snapshot
    arrays = [record.prior_mean_x, record.posterior_mean_x, record.posterior_var_x, record.r]
    return arrays + [c for _, _, c in arcs] + [a, kept, *(v for _, v in wide), mean_y, var_y]


def result_bits(result):
    return (
        result.status,
        result.reported_iteration,
        record_bits(result.iterations),
        {k: (m.mean.hex(), m.variance.hex()) for k, m in result.posterior_y.items()},
        result.posterior_correlations.tobytes(),
    )


def error_bits(err):
    return err.node_id, str(err), type(err.__cause__), record_bits(err.records)


class TestReuse:
    """An entry whose inputs keep their bits from one iteration to the next
    keeps its outputs; the iterates, the results and the errors are those of
    a solve that computes every entry in every iteration."""

    def checked_solve(self, d, cfg, monkeypatch):
        """``solve(d, cfg)``, each step checked against a step of a copy without reuse."""
        run = solver_mod.step
        handed_out = []

        def checked(state):
            twin = without_reuse(state)
            want = run(twin)
            got = run(state)
            assert record_bits([got]) == record_bits([want])
            assert state.post_y.tobytes() == twin.post_y.tobytes()
            assert state.snapshot[5].tobytes() == twin.snapshot[5].tobytes()
            assert state.point_x.tobytes() == twin.point_x.tobytes()
            for (_, _, c), (_, _, c_want) in zip(state.snapshot[0], twin.snapshot[0]):
                assert c.tobytes() == c_want.tobytes()
            handed_out.append(iteration_arrays(got, state.snapshot))
            return got

        monkeypatch.setattr(solver_mod, "step", checked)
        result = solve(d, cfg)
        for t, earlier in enumerate(handed_out):
            for later in handed_out[t + 1 :]:
                assert not any(np.shares_memory(x, y) for x in earlier for y in later)
        return result

    @pytest.mark.parametrize(
        "name", ["beta_binomial.json", "risk_difference.json", "scale_1500", "mixed_expr"]
    )
    @pytest.mark.parametrize("pool", [True, False])
    @pytest.mark.parametrize("batch_min", [1, solver_mod._BATCH_MIN, 10**9])
    def test_every_iterate_equals_the_one_computed_in_full(
        self, name, pool, batch_min, monkeypatch
    ):
        d, _ = models_for_equivalence()[name]
        monkeypatch.setattr(solver_mod, "_BATCH_MIN", batch_min)
        result = self.checked_solve(d, SolverConfig(pool_evidence=pool), monkeypatch)
        assert result.status == CONVERGED

    @pytest.mark.parametrize("batch_min", [1, 10**9])
    def test_a_slow_solve_to_the_cap(self, batch_min, monkeypatch):
        monkeypatch.setattr(solver_mod, "_BATCH_MIN", batch_min)
        result = self.checked_solve(three_differences(0.01), SolverConfig(), monkeypatch)
        assert result.status == MAX_ITERATIONS and len(result.iterations) == 50
        assert result_bits(result) == result_bits(
            solve_without_reuse(three_differences(0.01), SolverConfig(), monkeypatch)
        )

    def test_a_diverged_solve_reports_the_same_best_iterate(self, monkeypatch):
        d = Diagram.from_nodes(
            [
                normal_p("x", 0.2, 4.0),
                deterministic("z", TS, Div(Const(1.0), Var("x"))),
                evidence("oz", "z", normal_look(-5.0, 0.1)),
            ]
        )
        cfg = SolverConfig(max_iterations=30)
        result = self.checked_solve(d, cfg, monkeypatch)
        assert result.status == DIVERGED and result.reported_iteration < len(result.iterations)
        assert result_bits(result) == result_bits(solve_without_reuse(d, cfg, monkeypatch))

    def test_the_first_iteration_maps_and_walks_every_entry(self, monkeypatch):
        # initialize walks every deterministic node, at the prior point; the
        # first iteration maps every parameter and walks none, and each later
        # one walks exactly the nodes whose parents moved.
        d, cfg = models_for_equivalence()["scale_1500"]
        monkeypatch.setattr(solver_mod, "_BATCH_MIN", 1)
        mapped, walked = [], spy_columns(monkeypatch)
        array_map = solver_mod._inverse_moments_array

        def spy_map(family, a, b, mean, var):
            mapped.append(len(mean))
            return array_map(family, a, b, mean, var)

        monkeypatch.setattr(solver_mod, "_inverse_moments_array", spy_map)
        state = initialize(d, cfg)
        n_det = sum(len(nodes) for nodes, _ in state.levels)
        assert (sum(mapped), sum(walked)) == (0, n_det)
        counts, point = [], state.post_y.copy()  # where the latest linearization was
        while not state.records or state.records[-1].r_max >= cfg.epsilon:
            moved = len(moved_nodes(state, point))
            point = state.post_y.copy()
            mapped.clear()
            walked.clear()
            step(state)
            counts.append((sum(mapped), sum(walked), moved))
        assert counts[0] == (state.n_params, 0, 0)
        assert counts[1][1:] == (n_det, n_det)  # every post_y moved in iteration 1
        assert [w for _, w, _ in counts] == [m for _, _, m in counts]
        # and the solve's last iteration finds most inputs unchanged
        assert len(counts) == 3 and counts[-1][0] < state.n_params // 2

    def test_a_family_maps_as_arrays_only_batch_min_entries_or_more(self, monkeypatch):
        # At the real _BATCH_MIN, each iteration maps as arrays the families
        # with at least _BATCH_MIN entries to map (every parameter in the first
        # iteration, the moved ones later), and the other entries one by one.
        d, cfg = models_for_equivalence()["scale_1500"]
        arrays, scalars = [], []
        array_map, scalar_map = solver_mod._inverse_moments_array, solver_mod.inverse_moments

        def spy_array(family, a, b, mean, var):
            arrays.append((family, len(mean)))
            return array_map(family, a, b, mean, var)

        def spy_scalar(family, t, m):
            scalars.append(family)
            return scalar_map(family, t, m)

        monkeypatch.setattr(solver_mod, "_inverse_moments_array", spy_array)
        monkeypatch.setattr(solver_mod, "inverse_moments", spy_scalar)
        state = initialize(d, cfg)
        counts = []
        while not state.records or state.records[-1].r_max >= cfg.epsilon:
            saved = state.inverted
            arrays.clear()
            scalars.clear()
            step(state)
            record = state.records[-1]
            if saved is None:
                to_map = np.ones(state.n_params, dtype=bool)
            else:
                to_map = (record.posterior_mean_x.view(np.int64) != saved[0].view(np.int64)) | (
                    record.posterior_var_x.view(np.int64) != saved[1].view(np.int64)
                )
            for family, idx in state.families.items():
                entries = int(np.count_nonzero(to_map[idx]))
                mapped = [k for f, k in arrays if f == family]
                assert mapped == ([entries] if entries >= solver_mod._BATCH_MIN else [])
                assert scalars.count(family) == (0 if mapped else entries)
            counts.append((len(arrays), len(scalars)))
        assert counts[0] == (1, 10)  # 20 Betas as arrays, 10 lognormals one by one
        assert all(a == 0 for a, _ in counts[1:]) and len(counts) == 3

    def test_linearize_reads_an_edited_point(self):
        # linearize keys what it keeps on the bits of post_y, not on the
        # iteration: B at a point edited in place is B computed there in full.
        state = initialize(two_level_mixed())
        step(state)
        linearize(state)
        state.post_y[0] += 0.25  # x, a parent of z, w and v
        got = linearize(state)
        twin = without_reuse(state)
        want = linearize(twin)
        assert state.point_x.tobytes() == twin.point_x.tobytes()
        assert [c.tobytes() for _, _, c in got] == [c.tobytes() for _, _, c in want]
        before = [c.tobytes() for _, _, c in state.snapshot[0]]
        assert [c.tobytes() for _, _, c in got] != before  # w = x y and v moved

    def test_a_failed_linearization_keeps_nothing(self):
        # A tape writes the values of its members before a member's walk
        # fails; linearize then reuses nothing, so going back to the point
        # of the last success gives that success's values again.
        n = solver_mod._BATCH_MIN + 4
        nodes = [normal_p("x", 1.0, 1.0)]
        nodes += [
            deterministic(f"q{i}", TS, Ln(Sub(Var("x"), Const(0.0 if i == 5 else -5.0 - i))))
            for i in range(n)
        ]
        state = initialize(Diagram.from_nodes(nodes))
        assert len(state.tapes) == 1
        want = [c.tobytes() for _, _, c in linearize(state)]
        point_x = state.point_x.tobytes()
        state.post_y[0] = -1.0  # q5 = ln(x) fails; the others move
        with pytest.raises(IterationError, match="'q5'"):
            linearize(state)
        assert state.point_x.tobytes() != point_x
        state.post_y[0] = 1.0
        assert [c.tobytes() for _, _, c in linearize(state)] == want
        assert state.point_x.tobytes() == point_x

    def test_an_inversion_keys_on_the_variance_too(self):
        state = initialize(correlated_evidence())
        step(state)
        mean, var = state.records[-1].posterior_mean_x, state.records[-1].posterior_var_x
        wider = var.copy()
        wider[[0, 4]] *= 1.5  # p1, a Beta parameter, and r, a normal one
        for post_var in (var, wider):
            got = solver_mod._natural_moments(state, mean, post_var)
            want = solver_mod._natural_moments(without_reuse(state), mean, post_var)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]

    @pytest.mark.parametrize("batch_min", [solver_mod._BATCH_MIN, 10**9])
    def test_a_linearization_that_fails_at_iteration_two(self, batch_min, monkeypatch):
        # The look pulls x from 1 to about -2, where ln(x - 0) is undefined.
        n = solver_mod._BATCH_MIN + 4
        nodes = [normal_p("x", 1.0, 1.0), evidence("look", "x", normal_look(-2.0, 0.01))]
        nodes += [
            deterministic(f"q{i}", TS, Ln(Sub(Var("x"), Const(0.0 if i in (5, 9) else -5.0 - i))))
            for i in range(n)
        ]
        self.assert_the_full_error(Diagram.from_nodes(nodes), batch_min, "q5", monkeypatch)

    @pytest.mark.parametrize("batch_min", [solver_mod._BATCH_MIN, 10**9])
    def test_an_inversion_that_fails_at_iteration_two(self, batch_min, monkeypatch):
        # q_i = exp(c_i x^2) on log_scaled(0, 1) has X = c_i x^2.  Linearized
        # at x = 1 it has variance 4 c_i^2 Var x, about 36 for c = 1; at the
        # posterior x of about 4.6 it has about 780, and exp of that
        # overflows the lognormal variance.
        n = solver_mod._BATCH_MIN + 4
        nodes = [normal_p("x", 1.0, 100.0), evidence("look", "x", normal_look(5.0, 10.0))]
        c = [1.0 if i in (7, 12) else 0.1 + 0.01 * i for i in range(n)]
        nodes += [
            deterministic(f"q{i}", TLOG, Exp(Mul(Const(c[i]), Pow(Var("x"), 2.0))))
            for i in range(n)
        ]
        err = self.assert_the_full_error(Diagram.from_nodes(nodes), batch_min, "q7", monkeypatch)
        assert isinstance(err.__cause__, OverflowError)

    def assert_the_full_error(self, d, batch_min, node_id, monkeypatch):
        """The IterationError of ``solve(d)`` at iteration 2, as a solve without reuse raises it."""
        monkeypatch.setattr(solver_mod, "_BATCH_MIN", batch_min)
        with pytest.raises(IterationError) as exc:
            solve(d)
        with pytest.raises(IterationError) as full:
            solve_without_reuse(d, SolverConfig(), monkeypatch)
        assert exc.value.node_id == node_id and len(exc.value.records) == 1
        assert error_bits(exc.value) == error_bits(full.value)
        assert "at iteration 2" in str(exc.value)
        return exc.value


@pytest.fixture(scope="module")
def mixed_tapes():
    """The shape tapes of the smoke ``mixed_expr`` with ``_BATCH_MIN`` at 2, its
    parameters' transforms and its post_y."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver_mod, "_BATCH_MIN", 2)
        state = initialize(models_for_equivalence()["mixed_expr"][0])
    return state.tapes, state.transforms, state.post_y


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_tape_walks_a_subset_of_its_members_with_the_full_bits(mixed_tapes, data):
    # What linearize's reuse rests on: each member of a tape gets the same
    # bits from _slopes_columns whatever other members share the pass.
    # A subset's transforms are gathered from the state's one table, as
    # _linearize_tape gathers them.
    tapes, ts, post_y = mixed_tapes
    tape = data.draw(st.sampled_from(tapes))
    k = len(tape.nodes)
    scale = data.draw(st.sampled_from([0.0, 1e-3, 0.5, 3.0]))
    seed = data.draw(st.integers(0, 2**32 - 1))
    at = np.flatnonzero(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)))
    y = post_y * (1.0 + scale * np.random.default_rng(seed).standard_normal(len(post_y)))
    nodes, parents = tape.nodes, tape.parents
    full = _slopes_columns(tape.ops, tape.consts, y[parents], ts[nodes], ts[parents])
    part = _slopes_columns(
        tape.ops, tape.consts[:, at], y[parents[at]], ts[nodes[at]], ts[parents[at]]
    )
    for whole, subset in zip(full, part):
        assert whole[at].tobytes() == subset.tobytes()
