"""Acceptance suite: one test per criterion, each printing its own pass/fail line.

Every expected number is either a frozen arbitrary-precision reference, an
analytic identity computed independently inside the test, or a Monte Carlo
estimate with its standard error; nothing is copied from solver output.
"""

import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from gaussid.cli import parse_model
from gaussid.evidence import EvidenceSpec
from gaussid.gaussian import (
    GaussianState,
    condition,
    condition_sequential,
    propagate_covariance,
)
from gaussid.model import (
    Add,
    Const,
    Diagram,
    Div,
    Exp,
    Ln,
    Mul,
    Pow,
    Sub,
    Var,
    basic,
    deterministic,
    eval_expr,
    evidence,
)
from gaussid.oracle import mc_posterior
from gaussid.solver import (
    CONVERGED,
    DIVERGED,
    MAX_ITERATIONS,
    SolverConfig,
    initialize,
    linearize,
    solve,
)
from gaussid.specfun import (
    BetaParams,
    beta_from_moments,
    beta_to_moments,
    digamma,
    tetragamma,
    trigamma,
)
from gaussid.transforms import PriorSpec, Transform, forward_point, inverse_point
from helpers import dense_b

MODELS = Path(__file__).resolve().parent.parent / "docs" / "models"

T01 = Transform("logistic_scaled", 0.0, 1.0)


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if budget is not None and elapsed >= budget:
        print(f"criterion {number} [{name}]: FAIL (runtime {elapsed:.2f} s over {budget} s)")
        raise AssertionError(
            f"criterion {number} runtime {elapsed:.2f} s exceeded its {budget} s budget"
        )
    print(f"criterion {number} [{name}]: PASS ({elapsed:.3f} s)")


def test_criterion_1_beta_binomial_exactness():
    d = Diagram.from_nodes(
        [
            basic("p", PriorSpec(family="beta", transform=T01, alpha=1.0, beta=1.0)),
            evidence(
                "trials", "p", EvidenceSpec(variant="binomial", count=10, successes=7)
            ),
        ]
    )
    with criterion(1, "beta-binomial exactness", budget=1.0):
        result = solve(d)
        assert result.status == CONVERGED
        assert len(result.iterations) <= 3
        final = result.iterations[-1]
        # conjugacy fixed point: the transformed posterior must sit exactly on
        # the updated reference moments
        assert final.posterior_mean_x[0] == pytest.approx(
            digamma(8.0) - digamma(4.0), abs=1e-9
        )
        assert final.posterior_var_x[0] == pytest.approx(
            trigamma(8.0) + trigamma(4.0), abs=1e-9
        )
        post = result.posterior_y["p"]
        assert post.mean == pytest.approx(0.666667, abs=1e-5)
        assert post.variance == pytest.approx(0.017094, abs=1e-5)


def test_criterion_2_linear_gaussian_exactness():
    # y1 ~ N(1,1), y2 ~ N(0,2), z = 2 y1 - y2 + 0.5; one observation on z and
    # one on y1.  Transforms are affine (two of them non-identity), so the
    # solver must reproduce the conjugate normal answer.
    t1 = Transform("scaled", 0.0, 1.0)
    t2 = Transform("scaled", -1.0, 1.0)
    tz = Transform("scaled", 0.0, 4.0)
    d = Diagram.from_nodes(
        [
            basic("y1", PriorSpec(family="normal", transform=t1, mean=1.0, variance=1.0)),
            basic("y2", PriorSpec(family="normal", transform=t2, mean=0.0, variance=2.0)),
            deterministic(
                "z", tz, Add(Sub(Mul(Const(2.0), Var("y1")), Var("y2")), Const(0.5))
            ),
            evidence(
                "oz",
                "z",
                EvidenceSpec(
                    variant="normal_known_var", count=1, sample_mean=1.2, variance=0.25
                ),
            ),
            evidence(
                "o1",
                "y1",
                EvidenceSpec(
                    variant="normal_known_var", count=1, sample_mean=0.4, variance=0.5
                ),
            ),
        ]
    )

    # Independent reference: the natural-scale joint is Gaussian, and the
    # transformed-scale observations map back to natural-scale ones.
    mean = np.array([1.0, 0.0, 2.5])
    cov = np.array(
        [
            [1.0, 0.0, 2.0],
            [0.0, 2.0, -2.0],
            [2.0, -2.0, 6.0],
        ]
    )
    # observation of X_z = z/4 at 1.2 with var 0.25 -> z at 4.8 with var 4;
    # observation of X_1 = y1 at 0.4 with var 0.5
    h = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    vals = np.array([4.8, 0.4])
    noise = np.diag([4.0, 0.5])
    s = h @ cov @ h.T + noise
    gain = cov @ h.T @ np.linalg.inv(s)
    want_mean = mean + gain @ (vals - h @ mean)
    want_cov = cov - gain @ h @ cov

    with criterion(2, "linear-Gaussian exactness", budget=1.0):
        result = solve(d)
        assert result.status == CONVERGED
        assert len(result.iterations) == 2
        assert result.iterations[1].r_max <= 1e-12
        for k, pid in enumerate(("y1", "y2", "z")):
            post = result.posterior_y[pid]
            assert post.mean == pytest.approx(want_mean[k], abs=1e-8)
            assert post.variance == pytest.approx(want_cov[k, k], abs=1e-8)


def test_criterion_3_polygamma_accuracy():
    # frozen 40-digit references at z in {0.5, 1, 2, 8}; the closed forms are
    # -gamma - 2 ln 2, -gamma, pi^2/2, pi^2/6, -2 zeta(3), ...
    table = {
        0.5: (-1.9635100260214235, 4.9348022005446793, -16.82879664423432),
        1.0: (-0.57721566490153286, 1.6449340668482264, -2.4041138063191886),
        2.0: (0.42278433509846714, 0.64493406684822644, -0.40411380631918857),
        8.0: (2.01564147795561, 0.13313701469403143, -0.017699569195767774),
    }
    with criterion(3, "polygamma accuracy"):
        for z, (psi, psi1, psi2) in table.items():
            assert digamma(z) == pytest.approx(psi, abs=1e-8)
            assert trigamma(z) == pytest.approx(psi1, abs=1e-8)
            assert tetragamma(z) == pytest.approx(psi2, abs=1e-8)


def test_criterion_4_beta_inversion_roundtrip():
    grid = [0.5, 1.0, 2.0, 5.0, 10.0, 50.0, 100.0]
    with criterion(4, "beta inversion roundtrip", budget=1.0):
        for alpha in grid:
            for beta in grid:
                mean, var = beta_to_moments(BetaParams(alpha, beta))
                # the 0.5-floor guard is a live assertion inside every Newton
                # step, so any violation on this grid would raise here
                p = beta_from_moments(mean, var)
                assert p.alpha == pytest.approx(alpha, rel=1e-6)
                assert p.beta == pytest.approx(beta, rel=1e-6)


def _fd_coefficient(d, state, node, parent, idx, h=1e-6):
    def composite(x_parent):
        env = {}
        for p in node.parents:
            x = (
                x_parent
                if p == parent
                else forward_point(d.nodes[p].transform, state.post_y[idx[p]])
            )
            env[p] = inverse_point(d.nodes[p].transform, x)
        return forward_point(node.transform, eval_expr(node.expr, env))

    x0 = forward_point(d.nodes[parent].transform, state.post_y[idx[parent]])
    return (composite(x0 + h) - composite(x0 - h)) / (2.0 * h)


def _random_basic(rng, nid, family):
    if family == "normal":
        a = float(rng.uniform(-2.0, 1.0))
        t = Transform("scaled", a, a + float(rng.uniform(0.5, 3.0)))
        return basic(
            nid,
            PriorSpec(
                family="normal",
                transform=t,
                mean=float(rng.uniform(-2.0, 2.0)),
                variance=float(rng.uniform(0.25, 4.0)),
            ),
        )
    if family == "lognormal":
        t = Transform("log_scaled", 0.0, float(rng.uniform(0.5, 3.0)))
        return basic(
            nid,
            PriorSpec(
                family="lognormal",
                transform=t,
                mean=float(rng.uniform(0.3, 3.0)),
                variance=float(rng.uniform(0.1, 1.5)),
            ),
        )
    return basic(
        nid,
        PriorSpec(
            family="beta",
            transform=T01,
            alpha=float(rng.uniform(0.8, 8.0)),
            beta=float(rng.uniform(0.8, 8.0)),
        ),
    )


def _nonlinear_test_model(rng):
    shape = rng.integers(0, 7)
    if shape == 0:  # odds composition of two unit-interval parameters
        nodes = [_random_basic(rng, "p1", "beta"), _random_basic(rng, "p2", "beta")]
        g = Mul(Var("p1"), Var("p2"))
        hh = Mul(Sub(Const(1.0), Var("p1")), Sub(Const(1.0), Var("p2")))
        nodes.append(deterministic("q", T01, Div(g, Add(g, hh))))
    elif shape == 1:  # asymmetric ratio of unit-interval parameters
        nodes = [_random_basic(rng, "p1", "beta"), _random_basic(rng, "p2", "beta")]
        nodes.append(
            deterministic(
                "q", T01, Div(Var("p1"), Add(Var("p1"), Mul(Const(2.0), Var("p2"))))
            )
        )
    elif shape == 2:  # product of unbounded parameters
        nodes = [_random_basic(rng, "x1", "normal"), _random_basic(rng, "x2", "normal")]
        nodes.append(
            deterministic("q", Transform("scaled", 0.0, 2.0), Mul(Var("x1"), Var("x2")))
        )
    elif shape == 3:  # quadratic plus linear term
        nodes = [_random_basic(rng, "x1", "normal"), _random_basic(rng, "x2", "normal")]
        nodes.append(
            deterministic(
                "q", Transform("scaled", -1.0, 1.0), Add(Pow(Var("x1"), 2.0), Var("x2"))
            )
        )
    elif shape == 4:  # sum of positive parameters, log-scale output
        nodes = [
            _random_basic(rng, "u", "lognormal"),
            _random_basic(rng, "v", "lognormal"),
        ]
        nodes.append(
            deterministic("q", Transform("log_scaled", 0.0, 1.0), Add(Var("u"), Var("v")))
        )
    elif shape == 5:  # share of one positive parameter in a positive total
        nodes = [
            _random_basic(rng, "u", "lognormal"),
            _random_basic(rng, "v", "lognormal"),
        ]
        nodes.append(deterministic("q", T01, Div(Var("u"), Add(Var("u"), Var("v")))))
    else:  # exponential of a bounded multiple, mixed with a log parent
        nodes = [
            _random_basic(rng, "x1", "normal"),
            _random_basic(rng, "u", "lognormal"),
        ]
        nodes.append(
            deterministic(
                "q",
                Transform("log_scaled", 0.0, 1.0),
                Mul(Exp(Mul(Const(0.3), Var("x1"))), Pow(Var("u"), 1.5)),
            )
        )
    return Diagram.from_nodes(nodes)


def test_criterion_5_linearization_matches_finite_differences():
    rng = np.random.default_rng(2024)
    with criterion(5, "linearization vs finite differences", budget=10.0):
        for _ in range(50):
            d = _nonlinear_test_model(rng)
            state = initialize(d)
            coeffs = dense_b(state.n_params, linearize(state))
            idx = {pid: i for i, pid in enumerate(state.param_ids)}
            for pid in state.param_ids:
                node = d.nodes[pid]
                if node.kind != "deterministic":
                    continue
                for parent in node.parents:
                    fd = _fd_coefficient(d, state, node, parent, idx)
                    assert coeffs[idx[parent], idx[pid]] == pytest.approx(
                        fd, rel=1e-4, abs=1e-8
                    )


def test_criterion_6_covariance_identities():
    rng = np.random.default_rng(99)
    with criterion(6, "covariance identities"):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            coeffs = np.triu(rng.uniform(-3.0, 3.0, size=(n, n)), k=1)
            cond_var = rng.uniform(0.0, 5.0, size=n)
            st = GaussianState(
                order=tuple(f"n{i}" for i in range(n)),
                mean=rng.normal(size=n),
                coeffs=coeffs,
                cond_var=cond_var,
            )
            st = propagate_covariance(st)
            inv = np.linalg.inv(np.eye(n) - coeffs)
            closed = inv.T @ np.diag(cond_var) @ inv
            np.testing.assert_allclose(st.cov, closed, atol=1e-10, rtol=1e-10)
            assert np.linalg.eigvalsh(st.cov).min() >= -1e-10

            if n >= 3:
                st_pos = propagate_covariance(
                    GaussianState(
                        order=st.order,
                        mean=st.mean,
                        coeffs=coeffs,
                        cond_var=cond_var + 0.5,
                    )
                )
                k = int(rng.integers(1, n))
                picked = rng.choice(n, size=k, replace=False)
                obs = {int(i): float(rng.normal()) for i in picked}
                m_joint, c_joint = condition(st_pos, obs)
                m_seq, c_seq = condition_sequential(st_pos, obs)
                np.testing.assert_allclose(m_seq, m_joint, atol=1e-9)
                np.testing.assert_allclose(c_seq, c_joint, atol=1e-9)
                assert np.linalg.eigvalsh(c_joint).min() >= -1e-10


def test_criterion_7_monte_carlo_agreement():
    diagram, config = parse_model(MODELS / "risk_difference.json")
    with criterion(7, "Monte Carlo agreement", budget=60.0):
        result = solve(diagram, config)
        assert result.status == CONVERGED
        est = mc_posterior(diagram, 1_000_000, seed=2026)
        for pid in result.param_ids:
            approx = result.posterior_y[pid].mean
            mc = est.mean[pid]
            allowed = max(3.0 * est.se_mean[pid], 0.02 * max(abs(approx), abs(mc)))
            assert abs(approx - mc) <= allowed, (
                f"{pid}: |{approx} - {mc}| = {abs(approx - mc)} > {allowed}"
            )


def _random_valid_diagram(rng):
    nodes = []
    info = {}  # id -> (transform, natural prior-point value)
    n_basic = int(rng.integers(1, 5))
    for i in range(n_basic):
        family = ("normal", "lognormal", "beta")[int(rng.integers(0, 3))]
        node = _random_basic(rng, f"b{i}", family)
        nodes.append(node)
        p = node.prior
        if family == "beta":
            t = p.transform
            y0 = t.a + (t.b - t.a) * p.alpha / (p.alpha + p.beta)
        else:
            y0 = p.mean
        info[node.id] = (node.transform, y0)

    beta_ids = [n.id for n in nodes if n.prior.family == "beta"]
    scaled_ids = [n.id for n in nodes if n.transform.kind == "scaled"]
    log_ids = [n.id for n in nodes if n.transform.kind == "log_scaled"]

    for j in range(int(rng.integers(0, 3))):
        nid = f"d{j}"
        choices = []
        if len(beta_ids) >= 2:
            choices.append("odds")
        if len(scaled_ids) >= 2:
            choices.append("sum")
        if scaled_ids:
            choices.append("square")
        if len(log_ids) >= 2:
            choices.append("product")
        if log_ids:
            choices.append("power")
        if not choices:
            break
        shape = choices[int(rng.integers(0, len(choices)))]
        if shape == "odds":
            a, b = rng.choice(beta_ids, size=2, replace=False)
            g = Mul(Var(a), Var(b))
            hh = Mul(Sub(Const(1.0), Var(a)), Sub(Const(1.0), Var(b)))
            node = deterministic(nid, T01, Div(g, Add(g, hh)))
        elif shape == "sum":
            a, b = rng.choice(scaled_ids, size=2, replace=False)
            node = deterministic(
                nid, Transform("scaled", -1.0, 1.0), Add(Var(a), Var(b))
            )
        elif shape == "square":
            a = scaled_ids[int(rng.integers(0, len(scaled_ids)))]
            node = deterministic(nid, Transform("scaled", 0.0, 2.0), Pow(Var(a), 2.0))
        elif shape == "product":
            a, b = rng.choice(log_ids, size=2, replace=False)
            node = deterministic(
                nid, Transform("log_scaled", 0.0, 1.0), Mul(Var(a), Var(b))
            )
        else:
            a = log_ids[int(rng.integers(0, len(log_ids)))]
            node = deterministic(
                nid, Transform("log_scaled", 0.0, 1.0), Pow(Var(a), 1.5)
            )
        nodes.append(node)
        env = {p: info[p][1] for p in node.parents}
        info[nid] = (node.transform, eval_expr(node.expr, env))

    n_ev = int(rng.integers(1, min(4, 11 - len(nodes))))
    param_ids = list(info)
    for e in range(n_ev):
        parent = param_ids[int(rng.integers(0, len(param_ids)))]
        t, y0 = info[parent]
        if t.kind == "logistic_scaled":
            count = int(rng.integers(1, 51))
            spec = EvidenceSpec(
                variant="binomial", count=count, successes=int(rng.integers(0, count + 1))
            )
        else:
            x0 = forward_point(t, y0)
            spec = EvidenceSpec(
                variant="normal_known_var",
                count=1,
                sample_mean=float(x0 + rng.uniform(-1.5, 1.5)),
                variance=float(rng.uniform(0.1, 2.0)),
            )
        nodes.append(evidence(f"e{e}", parent, spec))
    return Diagram.from_nodes(nodes)


def test_criterion_8_termination_property():
    rng = np.random.default_rng(4096)
    cfg = SolverConfig(max_iterations=25)
    seen = set()
    with criterion(8, "termination property", budget=60.0):
        for _ in range(200):
            d = _random_valid_diagram(rng)
            result = solve(d, cfg)
            assert result.status in (CONVERGED, DIVERGED, MAX_ITERATIONS)
            assert len(result.iterations) <= cfg.max_iterations
            for pid in result.param_ids:
                m = result.posterior_y[pid]
                assert np.isfinite(m.mean) and np.isfinite(m.variance)
            seen.add(result.status)
    assert CONVERGED in seen  # the generator is not producing only pathologies


def test_criterion_9_pooling_equivalence():
    settings = [
        (0.3, 0.5),
        (0.9, 1.5),
        (-0.2, 0.8),
        (1.4, 2.5),
        (0.7, 1.1),
    ]
    with criterion(9, "pooling equivalence"):
        for k in (2, 3, 5):
            nodes = [
                basic(
                    "x",
                    PriorSpec(
                        family="normal",
                        transform=Transform("scaled", 0.0, 1.0),
                        mean=0.5,
                        variance=2.0,
                    ),
                ),
                deterministic(
                    "z", Transform("scaled", 0.0, 2.0), Mul(Const(2.0), Var("x"))
                ),
            ]
            for e, (m, v) in enumerate(settings[:k]):
                nodes.append(
                    evidence(
                        f"e{e}",
                        "x",
                        EvidenceSpec(
                            variant="normal_known_var",
                            count=1,
                            sample_mean=m,
                            variance=v,
                        ),
                    )
                )
            d = Diagram.from_nodes(nodes)
            pooled = solve(d, SolverConfig(pool_evidence=True))
            split = solve(d, SolverConfig(pool_evidence=False))
            assert pooled.status == CONVERGED and split.status == CONVERGED
            for pid in ("x", "z"):
                assert pooled.posterior_y[pid].mean == pytest.approx(
                    split.posterior_y[pid].mean, abs=1e-9
                )
                assert pooled.posterior_y[pid].variance == pytest.approx(
                    split.posterior_y[pid].variance, abs=1e-9
                )
