"""Covariance recursion, Gaussian conditioning, and correlation conventions."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from gaussid.gaussian import (
    ConditioningError,
    GaussianState,
    _components,
    _condition_number,
    _covariance,
    _depth_levels,
    _eigh_blocks,
    _evidence_components,
    _factor_update,
    _forward_factor,
    _level_arcs,
    _one_column_update,
    _packing,
    _posterior_variance,
    _product,
    _substitute,
    _times,
    _unpack,
    _unpacked_correlations,
    condition,
    condition_sequential,
    correlation,
    correlation_matrix,
    propagate_covariance,
)
from helpers import arcs_of, components, dense_factor, depth_levels


def make_state(mean, coeffs, cond_var, names=None):
    mean = np.asarray(mean, dtype=float)
    coeffs = np.asarray(coeffs, dtype=float)
    cond_var = np.asarray(cond_var, dtype=float)
    if names is None:
        names = tuple(f"n{i}" for i in range(len(mean)))
    return GaussianState(order=tuple(names), mean=mean, coeffs=coeffs, cond_var=cond_var)


def random_state(rng, n):
    coeffs = np.triu(rng.uniform(-3.0, 3.0, size=(n, n)), k=1)
    cond_var = rng.uniform(0.0, 5.0, size=n)
    mean = rng.normal(size=n)
    return make_state(mean, coeffs, cond_var)


def closed_form_cov(coeffs, cond_var):
    n = len(cond_var)
    inv = np.linalg.inv(np.eye(n) - coeffs)
    return inv.T @ np.diag(cond_var) @ inv


# The dense route that the packed kernels replace, kept as their reference:
# A with one column per node, and every product with A an n x n pass.


def dense_forward_factor(arcs, scale):
    """A = (I - B')^-1 diag(sqrt v), n x n, by the same kernel."""
    return _substitute(arcs, np.diag(scale))


def times_factor(arcs, scale, rhs):
    """``A @ rhs`` for the factor of :func:`dense_forward_factor`: the kernel on diag(sqrt v) rhs."""
    return _substitute(arcs, scale[:, None] * rhs)


def dense_factor_update(a, components, ancestors, par, noise, resid):
    """``(u, kept, wide)`` of the factor-space update on the n x n factor ``a``: u has one entry per node.

    A group of one live ancestor takes the closed form, the wider ones V by
    eigh, and one of none changes nothing."""
    u, kept, wide = np.zeros(a.shape[1]), np.ones(a.shape[1]), []
    for idx, anc in zip(components, ancestors):
        s = idx.shape[1]
        g = a[par[idx][:, :, None], anc[:, None, :]]
        if anc.shape[1] == 1:
            u[anc[:, 0]], kept[anc[:, 0]] = _one_column_update(g[:, :, 0], noise[idx], resid[idx])
            continue
        if anc.shape[1] == 0:
            continue
        block = g @ g.swapaxes(1, 2)
        block[:, np.arange(s), np.arange(s)] += noise[idx]
        val, vecs = np.linalg.eigh(block)
        scaled = (vecs / np.sqrt(val)[:, None, :]).swapaxes(1, 2)
        v = scaled @ g
        u[anc] = (v.swapaxes(1, 2) @ (scaled @ resid[idx][..., None]))[..., 0]
        wide.append((anc, v))
    return u, kept, wide


def dense_variance_terms(a, kept, wide):
    """The diagonal of A (I - V'V) A' over all n rows of the n x n factor ``a``, as the
    pair (A^2 by the shares one-column groups keep, A^2 V'V of the wider groups)."""
    less = np.zeros(len(a))
    for anc, v in wide:
        x = a[:, anc].swapaxes(0, 1) @ v.swapaxes(1, 2)  # (k, n, s)
        less += np.einsum("kns,kns->n", x, x)
    return (a * a) @ kept, less


def dense_covariance(arcs, scale, a, kept, wide):
    """A (I - V'V) A' as an n x n Y and one :func:`times_factor` pass, symmetrized."""
    y = a.T * kept[:, None]  # each row by the share of it a one-column group keeps
    for anc, v in wide:
        at = y[anc]
        at -= _product(v.swapaxes(1, 2), _product(v, at))
        y[anc] = at
    cov = times_factor(arcs, scale, y)
    cov += cov.T.copy()
    cov *= 0.5
    return cov


def packed_covariance(arcs, scale, pack, a, kept=None, wide=()):
    kept = np.ones(len(pack.comp)) if kept is None else kept
    return _unpack(_covariance(arcs, scale, pack, a, kept, wide), pack)


class TestPropagation:
    def test_no_coefficients_gives_diagonal(self):
        st = propagate_covariance(make_state([0.0, 0.0], np.zeros((2, 2)), [2.0, 3.0]))
        np.testing.assert_allclose(st.cov, np.diag([2.0, 3.0]))

    def test_two_node_chain_unit_coefficient(self):
        st = propagate_covariance(make_state([0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0]))
        np.testing.assert_allclose(st.cov, [[1.0, 1.0], [1.0, 2.0]])

    def test_deterministic_child(self):
        # Zero innovation: the child is exactly twice the parent.
        st = propagate_covariance(make_state([0.0, 0.0], [[0.0, 2.0], [0.0, 0.0]], [1.0, 0.0]))
        np.testing.assert_allclose(st.cov, [[1.0, 2.0], [2.0, 4.0]])

    def test_matches_closed_form(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            st = random_state(rng, n)
            got = propagate_covariance(st).cov
            want = closed_form_cov(st.coeffs, st.cond_var)
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_sparse_dag_matches_closed_form(self):
        # Forward substitution visits only the arcs and drops zero-variance
        # columns; on sparse diagrams with deterministic children, noisy
        # children and a deterministic root it must agree with the dense inverse.
        rng = np.random.default_rng(19)
        n = 300
        for _ in range(5):
            coeffs = np.zeros((n, n))
            for j in range(1, n):
                k = int(rng.integers(0, min(j, 6) + 1))
                parents = rng.choice(j, size=k, replace=False)
                coeffs[parents, j] = rng.uniform(-0.5, 0.5, size=k)
            cond_var = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.1, 2.0, size=n))
            cond_var[0] = 0.0
            has_parents = coeffs.any(axis=0)
            assert np.any(has_parents & (cond_var == 0.0))
            assert np.any(has_parents & (cond_var > 0.0))
            got = propagate_covariance(make_state(np.zeros(n), coeffs, cond_var)).cov
            want = closed_form_cov(coeffs, cond_var)
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_result_is_positive_semidefinite(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            st = propagate_covariance(random_state(rng, n))
            eigs = np.linalg.eigvalsh(st.cov)
            assert eigs.min() >= -1e-10

    def test_original_state_unchanged(self):
        st = make_state([0.0], np.zeros((1, 1)), [1.0])
        out = propagate_covariance(st)
        assert st.cov is None
        assert out is not st

    def test_propagation_does_not_revalidate(self, monkeypatch):
        # The state was checked when it was built; filling cov does not redo it.
        st = random_state(np.random.default_rng(3), 5)

        def refuse(self, *fields):
            raise AssertionError("validated again")

        # The checks run in __init__, so the copy must not be built through it.
        monkeypatch.setattr(GaussianState, "__init__", refuse)
        out = propagate_covariance(st)
        np.testing.assert_allclose(out.cov, closed_form_cov(st.coeffs, st.cond_var), atol=1e-10)
        assert out.mean is st.mean and out.coeffs is st.coeffs


def substitute(parents, coeffs, x0):
    """The kernel on B given by its parent lists and coefficients, on a copy of X0."""
    x = np.array(x0, dtype=float)
    out = _substitute(_level_arcs(_depth_levels(*arcs_of(parents)), coeffs), x)
    assert out is x  # solved in place
    return out


def dense_solve(coeffs, x0):
    return np.linalg.solve(np.eye(len(coeffs)) - coeffs.T, x0)


def coefficients(parents, rng):
    coeffs = np.zeros((len(parents), len(parents)))
    for j, ps in enumerate(parents):
        coeffs[ps, j] = rng.uniform(-1.5, 1.5, size=len(ps))
    return coeffs


class TestSubstitution:
    """The level-batched kernel solves (I - B') X = X0 like a dense solve."""

    @pytest.mark.parametrize("shape", [(40,), (40, 3)])
    def test_chain_of_full_depth(self, shape):
        rng = np.random.default_rng(71)
        parents = [[]] + [[j - 1] for j in range(1, 40)]
        assert len(_depth_levels(*arcs_of(parents))) == 39
        coeffs = coefficients(parents, rng)
        x0 = rng.normal(size=shape)
        got = substitute(parents, coeffs, x0)
        np.testing.assert_allclose(got, dense_solve(coeffs, x0), rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("shape", [(6,), (6, 4)])
    def test_parents_at_different_depths(self, shape):
        # Node 5 reads a root (depth 0) and node 4 (depth 3); node 3 has three
        # parents and node 4 one, so one level pads its rows.
        parents = [[], [], [0], [0, 1, 2], [3], [0, 4]]
        levels = _depth_levels(*arcs_of(parents))
        assert [nodes.tolist() for nodes, _ in levels] == [[2], [3], [4], [5]]
        rng = np.random.default_rng(73)
        coeffs = coefficients(parents, rng)
        x0 = rng.normal(size=shape)
        got = substitute(parents, coeffs, x0)
        np.testing.assert_allclose(got, dense_solve(coeffs, x0), rtol=1e-10, atol=1e-10)

    def test_padding_repeats_the_node_itself(self):
        levels = _depth_levels(*arcs_of([[], [], [0, 1], [0]]))
        assert len(levels) == 1
        nodes, par = levels[0]
        assert nodes.tolist() == [2, 3] and par.tolist() == [[0, 1], [0, 3]]

    def test_parent_listed_twice_counts_once(self):
        coeffs = np.zeros((2, 2))
        coeffs[0, 1] = 2.0
        got = substitute([[], [0, 0]], coeffs, np.array([1.0, 1.0]))
        np.testing.assert_array_equal(got, [1.0, 3.0])

    @pytest.mark.parametrize("shape", [(5,), (5, 2)])
    def test_arc_with_zero_coefficient(self, shape):
        # The arc 1 -> 4 is in the parent lists but its coefficient is 0.
        parents = [[], [0], [0, 1], [], [1, 3]]
        rng = np.random.default_rng(79)
        coeffs = coefficients(parents, rng)
        coeffs[1, 4] = 0.0
        x0 = rng.normal(size=shape)
        got = substitute(parents, coeffs, x0)
        np.testing.assert_allclose(got, dense_solve(coeffs, x0), rtol=1e-10, atol=1e-10)

    def test_zero_variance_nodes_with_parents(self):
        # Nodes 2 and 4 are deterministic children: A has no column for them,
        # and A, A rhs and A A' all match the dense factor.
        parents = [[], [0], [0, 1], [2], [1, 3]]
        rng = np.random.default_rng(83)
        coeffs = coefficients(parents, rng)
        cond_var = np.array([1.5, 0.5, 0.0, 2.0, 0.0])
        levels = _depth_levels(*arcs_of(parents))
        arcs, scale = _level_arcs(levels, coeffs), np.sqrt(cond_var)
        pack = _packing(levels, cond_var > 0.0)
        a = _forward_factor(arcs, scale, pack)
        assert a.shape == (15,)  # one component: 5 rows of its 3 live columns
        want = dense_solve(coeffs, np.diag(scale))
        np.testing.assert_allclose(dense_factor(a, pack), want, rtol=1e-10, atol=1e-10)
        rhs = rng.normal(size=(5, 6))
        got = times_factor(arcs, scale, rhs)
        np.testing.assert_allclose(got, want @ rhs, rtol=1e-10, atol=1e-10)
        want = closed_form_cov(coeffs, cond_var)
        np.testing.assert_allclose(packed_covariance(arcs, scale, pack, a), want, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("width", [1, 2, 3, 7])
    def test_a_column_gets_the_same_bits_at_any_width(self, width):
        # A BLAS product rounds a column by its position among the others;
        # the kernel adds each entry's terms in the parents' order, from 0.
        rng = np.random.default_rng(89)
        parents = [[]] * 12 + [list(range(12))] * 3 + [[12, 13, 14, 0]]
        coeffs = coefficients(parents, rng)
        x0 = rng.normal(size=(len(parents), 9))
        x0[rng.random(x0.shape) < 0.3] = -0.0
        wide = substitute(parents, coeffs, x0)
        for j in range(10 - width):
            got = substitute(parents, coeffs, x0[:, j : j + width])
            assert got.tobytes() == wide[:, j : j + width].tobytes()
        assert substitute(parents, coeffs, x0[:, 4]).tobytes() == wide[:, 4].tobytes()

    @given(
        n=hst.integers(min_value=1, max_value=12),
        columns=hst.integers(min_value=0, max_value=3),
        seed=hst.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_dags_match_the_dense_solve(self, n, columns, seed):
        rng = np.random.default_rng(seed)
        parents = [
            sorted(rng.choice(j, size=int(rng.integers(0, j + 1)), replace=False).tolist())
            for j in range(n)
        ]
        coeffs = coefficients(parents, rng)
        coeffs[rng.random((n, n)) < 0.1] = 0.0  # some arcs carry a zero coefficient
        x0 = rng.normal(size=(n, columns) if columns else n)
        got = substitute(parents, coeffs, x0)
        np.testing.assert_allclose(got, dense_solve(coeffs, x0), rtol=1e-10, atol=1e-10)


class TestStateValidation:
    def test_lower_triangle_rejected(self):
        with pytest.raises(ValueError, match="upper triangular"):
            make_state([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0])

    def test_diagonal_rejected(self):
        with pytest.raises(ValueError, match="upper triangular"):
            make_state([0.0], [[0.5]], [1.0])

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            make_state([0.0], [[0.0]], [-1.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianState(
                order=("a", "b"),
                mean=np.zeros(3),
                coeffs=np.zeros((2, 2)),
                cond_var=np.ones(2),
            )

    @pytest.mark.parametrize(
        "field,value",
        [
            ("coeffs", np.zeros((2, 3))),
            ("cond_var", np.ones(3)),
            ("cov", np.eye(3)),
        ],
    )
    def test_each_shape_is_checked(self, field, value):
        fields = dict(
            order=("a", "b"), mean=np.zeros(2), coeffs=np.zeros((2, 2)), cond_var=np.ones(2)
        )
        with pytest.raises(ValueError, match=f"{field} must have shape"):
            GaussianState(**{**fields, field: value})


class TestConditioning:
    def test_single_noisy_observation(self):
        # x ~ N(0,1), o = x + N(0,1); observing o = 2 gives x | o ~ N(1, 0.5).
        st = propagate_covariance(
            make_state([0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0])
        )
        mean, cov = condition(st, {1: 2.0})
        assert mean[0] == pytest.approx(1.0)
        assert cov[0, 0] == pytest.approx(0.5)

    def test_empty_observation_is_identity(self):
        rng = np.random.default_rng(2)
        st = propagate_covariance(random_state(rng, 4))
        mean, cov = condition(st, {})
        np.testing.assert_allclose(mean, st.mean)
        np.testing.assert_allclose(cov, st.cov)

    def test_a_state_of_no_nodes(self):
        st = propagate_covariance(make_state([], np.zeros((0, 0)), []))
        assert st.cov.shape == (0, 0)
        mean, cov = condition(st, {})
        assert mean.shape == (0,) and cov.shape == (0, 0)

    def test_two_rows_match_precision_pooling(self):
        # Two independent noisy looks at x are the same as one pooled look.
        st2 = propagate_covariance(
            make_state(
                [0.0, 0.0, 0.0],
                [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [1.0, 2.0, 2.0],
            )
        )
        mean2, cov2 = condition(st2, {1: 1.0, 2: 3.0})
        pooled = propagate_covariance(
            make_state([0.0, 0.0], [[0.0, 1.0], [0.0, 0.0]], [1.0, 1.0])
        )
        mean1, cov1 = condition(pooled, {1: 2.0})
        assert mean2[0] == pytest.approx(mean1[0], abs=1e-12)
        assert cov2[0, 0] == pytest.approx(cov1[0, 0], abs=1e-12)

    def test_sequential_matches_joint(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            base = random_state(rng, n)
            # strictly positive innovations keep the evidence block regular
            st = propagate_covariance(
                make_state(base.mean, base.coeffs, base.cond_var + 0.5)
            )
            k = int(rng.integers(1, n))
            idx = rng.choice(n, size=k, replace=False)
            obs = {int(i): float(rng.normal()) for i in idx}
            m_joint, c_joint = condition(st, obs)
            m_seq, c_seq = condition_sequential(st, obs)
            np.testing.assert_allclose(m_seq, m_joint, atol=1e-9)
            np.testing.assert_allclose(c_seq, c_joint, atol=1e-9)

    def test_conditioning_never_inflates_variance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            base = random_state(rng, n)
            st = propagate_covariance(
                make_state(base.mean, base.coeffs, base.cond_var + 0.5)
            )
            obs = {n - 1: 0.7}
            _, cov = condition(st, obs)
            prior_diag = np.diag(st.cov)[: n - 1]
            np.testing.assert_array_less(np.diag(cov), prior_diag + 1e-12)

    def test_posterior_is_positive_semidefinite(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            base = random_state(rng, n)
            st = propagate_covariance(
                make_state(base.mean, base.coeffs, base.cond_var + 0.5)
            )
            _, cov = condition(st, {0: 1.0, n - 1: -1.0})
            assert np.linalg.eigvalsh(cov).min() >= -1e-10

    def test_singular_evidence_block_raises(self):
        # Two deterministic copies of the same node: evidence block is rank 1.
        st = propagate_covariance(
            make_state(
                [0.0, 0.0, 0.0],
                [[0.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [1.0, 0.0, 0.0],
            )
        )
        with pytest.raises(ConditioningError) as exc:
            condition(st, {1: 1.0, 2: 2.0})
        assert exc.value.condition_estimate > 1e12 or not np.isfinite(
            exc.value.condition_estimate
        )

    def test_non_finite_evidence_block_raises(self):
        # condition reads the factor of the coefficients: a NaN on the arc
        # into node 2 makes its row of A, and so the evidence block, non-finite.
        st = propagate_covariance(
            make_state(
                [0.0, 0.0, 0.0],
                [[0.0, 1.0, np.nan], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
                [1.0, 1.0, 1.0],
            )
        )
        with pytest.raises(ConditioningError) as exc:
            condition(st, {1: 1.0, 2: 2.0})
        assert not np.isfinite(exc.value.condition_estimate)

    def test_condition_number_matches_svd(self):
        # The guard's eigenvalue ratio is the 2-norm condition number.
        rng = np.random.default_rng(47)
        for m in (1, 2, 5, 50):
            for _ in range(10):
                x = rng.normal(size=(m, m))
                block = x @ x.T + 1e-3 * np.eye(m)
                assert _condition_number(np.linalg.eigvalsh(block)) == pytest.approx(
                    np.linalg.cond(block), rel=1e-8
                )

    def test_indefinite_evidence_block_raises(self):
        # Eigenvalues 3 and -1: a benign ratio, but no covariance.  A block
        # G G' plus non-negative noise is never indefinite, so the guard is
        # driven through the kernel: G G' = [[1, 2], [2, 4]] plus noise (0, -3).
        g = np.array([[1.0], [2.0]])
        pack = _packing(_depth_levels(*arcs_of([[], [0]])), np.array([True, False]))
        one = ((np.array([[0, 1]]),), (np.array([[0]]),))
        with pytest.raises(ConditioningError, match="not positive definite") as exc:
            _factor_update(g.ravel(), pack, *one, np.array([0, 1]), np.array([0.0, -3.0]), np.zeros(2))
        assert exc.value.condition_estimate == pytest.approx(3.0)

    def test_unpropagated_state_conditions_alike(self):
        # condition reads only the regression form, not the covariance.
        rng = np.random.default_rng(53)
        base = random_state(rng, 6)
        st = make_state(base.mean, base.coeffs, base.cond_var + 0.5)
        obs = {1: 0.3, 4: -1.2}
        bare_mean, bare_cov = condition(st, obs)
        mean, cov = condition(propagate_covariance(st), obs)
        assert bare_mean.tobytes() == mean.tobytes()
        assert bare_cov.tobytes() == cov.tobytes()

    @pytest.mark.parametrize("conditioner", [condition, condition_sequential])
    def test_a_key_that_is_not_an_integer_is_named(self, conditioner):
        st = propagate_covariance(make_state([0.0, 0.0], np.zeros((2, 2)), [1.0, 1.0]))
        with pytest.raises(ValueError, match=r"must be integers, got \[1\.5\]"):
            conditioner(st, {1.5: 2.0})

    def test_sequential_needs_the_covariance(self):
        st = make_state([0.0], np.zeros((1, 1)), [1.0])
        with pytest.raises(ValueError, match="propagate_covariance"):
            condition_sequential(st, {0: 1.0})

    def test_sequential_rejects_an_observation_without_variance(self):
        st = propagate_covariance(make_state([0.0, 0.0], np.zeros((2, 2)), [1.0, 0.0]))
        with pytest.raises(ConditioningError, match="position 1 has non-positive"):
            condition_sequential(st, {1: 0.5})

    def test_out_of_range_index(self):
        st = propagate_covariance(make_state([0.0], np.zeros((1, 1)), [1.0]))
        with pytest.raises(ValueError, match="out of range"):
            condition(st, {3: 1.0})


def random_components(rng, sizes):
    """Interleaved index groups of the given sizes, as ``_evidence_components`` returns them."""
    perm = rng.permutation(sum(sizes))
    groups, start = {}, 0
    for s in sizes:
        groups.setdefault(s, []).append(sorted(perm[start : start + s].tolist()))
        start += s
    return tuple(np.array(groups[s], dtype=int) for s in sorted(groups))


def block_diagonal(rng, components):
    m = sum(idx.size for idx in components)
    block = np.zeros((m, m))
    for idx in components:
        for members in idx:
            x = rng.normal(size=(len(members), len(members)))
            block[np.ix_(members, members)] = x @ x.T + 1e-2 * np.eye(len(members))
    return block


def dense_evidence_components(levels, live, observed):
    """The reference grouping: a dense n x live matrix of every node's live ancestors."""
    n, m = len(live), len(observed)
    live_idx = np.flatnonzero(live)
    reach = np.zeros((n, len(live_idx)), dtype=bool)  # live ancestors of each node
    reach[live_idx, np.arange(len(live_idx))] = True
    for nodes, par in levels:  # a level's parents are complete before it
        reach[nodes] |= reach[par].any(axis=1)

    root = list(range(m))  # union-find forest over the entries

    def find(e):
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    first = {}  # live ancestor -> first entry that reaches it
    for e, c in zip(*(ix.tolist() for ix in np.nonzero(reach[observed]))):
        root[find(e)] = find(first.setdefault(c, e))
    members = {}
    for e in range(m):
        members.setdefault(find(e), []).append(e)
    by_shape = {}
    for group in members.values():
        ancestors = live_idx[reach[observed[group]].any(axis=0)].tolist()
        rows = by_shape.setdefault((len(group), len(ancestors)), ([], []))
        rows[0].append(group)
        rows[1].append(ancestors)
    shapes = sorted(by_shape)
    return (
        tuple(np.array(by_shape[sl][0], dtype=int) for sl in shapes),
        tuple(np.array(by_shape[sl][1], dtype=int) for sl in shapes),
    )


@hst.composite
def evidence_dags(draw):
    """(parents, live, observed) of a random disjoint union of DAGs and evidence on it.

    In each DAG, each node is a root (live or dead), extends a chain,
    collects the fan-in of all earlier nodes, or takes any earlier parents,
    repeats allowed.  The DAGs' nodes are interleaved in the node order,
    each DAG's in its own order; nodes may be observed several times or not
    at all.
    """
    parts = draw(hst.integers(min_value=1, max_value=3))
    dags = []
    for _ in range(parts):
        size = draw(hst.integers(min_value=1, max_value=40 // parts))
        dag = []
        for j in range(size):
            shape = draw(hst.sampled_from(["root", "chain", "fan_in", "any"])) if j else "root"
            if shape == "chain":
                dag.append([j - 1])
            elif shape == "fan_in":
                dag.append(list(range(j)))
            elif shape == "any":
                dag.append(draw(hst.lists(hst.integers(0, j - 1), max_size=4)))
            else:
                dag.append([])
        dags.append(dag)
    turns = [p for p, dag in enumerate(dags) for _ in dag]
    turns = draw(hst.permutations(turns))
    where = [[] for _ in dags]  # each DAG's nodes' places in the union
    for place, p in enumerate(turns):
        where[p].append(place)
    parents = [[] for _ in turns]
    for dag, places in zip(dags, where):
        for j, ps in enumerate(dag):
            parents[places[j]] = [places[i] for i in ps]
    n = len(parents)
    live = draw(hst.lists(hst.booleans(), min_size=n, max_size=n))
    observed = draw(hst.lists(hst.integers(0, n - 1), max_size=2 * n))
    return parents, live, observed


def dense_kept(kept, wide, q):
    """I - V'V as one dense q x q matrix: the share of its one column a group
    keeps on the diagonal, and each wider group's block on its own l columns."""
    out = np.diag(kept[:q])
    for anc, v in wide:
        for vg, cols in zip(v, anc):
            out[np.ix_(cols, cols)] -= vg.T @ vg
    return out


def factor_space_posterior(parents, coeffs, cond_var, mean, observed, noise, obs):
    """Posterior means, variances and covariance of the nodes, as the solver forms them."""
    levels = _depth_levels(*arcs_of(parents))
    arcs, scale = _level_arcs(levels, coeffs), np.sqrt(cond_var)
    components, ancestors = _evidence_components(levels, cond_var > 0.0, observed)
    pack = _packing(levels, cond_var > 0.0)
    a = _forward_factor(arcs, scale, pack)
    shift, kept, wide = _factor_update(a, pack, components, ancestors, observed, noise, obs - mean[observed])
    post_var = _posterior_variance(a, pack, kept, wide)
    return mean + shift, post_var, packed_covariance(arcs, scale, pack, a, kept, wide)


def augmented_posterior(coeffs, cond_var, mean, observed, noise, obs):
    """The same, by rank-one updates on the nodes plus one noisy leaf per entry."""
    n, m = len(mean), len(observed)
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = coeffs
    aug[observed, n + np.arange(m)] = 1.0
    st = propagate_covariance(
        make_state(
            np.concatenate([mean, mean[observed]]), aug, np.concatenate([cond_var, noise])
        )
    )
    return condition_sequential(st, {n + e: float(o) for e, o in enumerate(obs)})


class TestComponents:
    def test_union_of_component_eigenvalues_is_the_condition_number(self):
        # The spectrum of a block-diagonal matrix is the union of its blocks'.
        rng = np.random.default_rng(53)
        for _ in range(20):
            components = random_components(rng, [1, 2, 5])
            block = block_diagonal(rng, components)
            stacks = [block[idx[:, :, None], idx[:, None, :]] for idx in components]
            eig = np.concatenate([val.ravel() for val, _ in _eigh_blocks(stacks)])
            assert _condition_number(eig) == pytest.approx(np.linalg.cond(block), rel=1e-8)

    def test_update_by_components_matches_one_block(self):
        # Groups of shapes (s, l) on their own columns of a random factor,
        # three more rows and two columns that no evidence reaches; entry e
        # observes row e, which is zero outside its group's columns.  Nodes
        # 0 to q - 1 are the live ones, and the others read them all, so
        # all are one component and column t of A is node t.
        rng = np.random.default_rng(59)
        shapes = [(1, 1), (1, 1), (2, 3), (3, 2), (3, 1), (5, 4)]
        m = sum(s for s, _ in shapes)
        q = sum(l for _, l in shapes) + 2
        n = m + 3
        pack = _packing(_depth_levels(*arcs_of([[]] * q + [list(range(q))] * (n - q))), np.arange(n) < q)
        for _ in range(20):
            components = random_components(rng, [s for s, _ in shapes])
            by_size = {idx.shape[1]: idx.tolist() for idx in components}
            groups, lo = {}, 0  # (s, l) -> ([entries per group], [columns per group])
            for s, l in shapes:
                rows = groups.setdefault((s, l), ([], []))
                rows[0].append(by_size[s].pop(0))
                rows[1].append(list(range(lo, lo + l)))
                lo += l
            components = tuple(np.array(groups[sl][0]) for sl in sorted(groups))
            ancestors = tuple(np.array(groups[sl][1]) for sl in sorted(groups))
            a = rng.normal(size=(n, q))
            par = rng.permutation(m)
            for idx, anc in zip(components, ancestors):
                for entries, own in zip(idx.tolist(), anc.tolist()):
                    outside = np.setdiff1d(np.arange(q), own)
                    a[np.ix_(par[entries], outside)] = 0.0
            mean, resid, noise = rng.normal(size=n), rng.normal(size=m), rng.uniform(0.1, 1.0, m)

            flat = a.ravel()  # every row holds the q live columns, in the node order
            shift, kept, wide = _factor_update(flat, pack, components, ancestors, par, noise, resid)
            one = ((np.arange(m)[None, :],), (np.arange(q)[None, :],))
            want_shift, want_kept, want_wide = _factor_update(flat, pack, *one, par, noise, resid)
            np.testing.assert_allclose(mean + shift, mean + want_shift, rtol=1e-10, atol=1e-10)
            got_cov = a @ dense_kept(kept, wide, q) @ a.T
            ((_, want_v),) = want_wide
            want_cov = a @ (np.eye(q) - want_v[0].T @ want_v[0]) @ a.T
            np.testing.assert_allclose(got_cov, want_cov, rtol=1e-10, atol=1e-10)
            got_var = _posterior_variance(flat, pack, kept, wide)
            np.testing.assert_allclose(
                got_var, _posterior_variance(flat, pack, want_kept, want_wide), rtol=1e-10, atol=1e-10
            )
            cross = a[par] @ a.T
            gain = cross.T @ np.linalg.inv(a[par] @ a[par].T + np.diag(noise))
            np.testing.assert_allclose(mean + shift, mean + gain @ resid, rtol=1e-9, atol=1e-9)
            np.testing.assert_allclose(
                got_var, np.diag(a @ a.T - gain @ cross), rtol=1e-9, atol=1e-9
            )

    def test_components_are_the_diagonal_blocks_of_the_evidence(self):
        # Entries in different components have exactly zero covariance, and
        # each component is connected through nonzero covariances.
        rng = np.random.default_rng(61)
        n = 40
        for _ in range(30):
            coeffs = np.zeros((n, n))
            for j in range(1, n):
                k = int(rng.integers(0, min(j, 3) + 1)) * int(rng.random() < 0.5)
                coeffs[rng.choice(j, size=k, replace=False), j] = rng.uniform(0.2, 1.0, size=k)
            cond_var = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.5, 2.0, size=n))
            observed = rng.integers(0, n, size=15)
            levels = _depth_levels(*arcs_of([np.flatnonzero(coeffs[:, j]).tolist() for j in range(n)]))
            components, ancestors = _evidence_components(levels, cond_var > 0.0, observed)
            members = sorted(e for idx in components for e in idx.ravel().tolist())
            assert members == list(range(len(observed)))
            a = dense_forward_factor(_level_arcs(levels, coeffs), np.sqrt(cond_var))
            cov = (a @ a.T)[np.ix_(observed, observed)]
            label = np.empty(len(observed), dtype=int)
            for k, group in enumerate(g for idx in components for g in idx.tolist()):
                label[group] = k
                linked = cov[np.ix_(group, group)] != 0.0
                reached = np.arange(len(group)) == 0
                for _ in group:
                    reached |= linked[reached].any(axis=0)
                assert reached.all()
            assert np.all(cov[label[:, None] != label[None, :]] == 0.0)

    @given(evidence_dags())
    @example(([[], [0, 0, 0], [1, 0], [2]], [True, False, True, False], [3, 1, 3]))  # repeats
    @settings(max_examples=200, deadline=None)
    def test_the_array_analysis_matches_the_references(self, dag):
        # The levels against a walk in the node order, the components against
        # a breadth-first search, the groups against the dense reach matrix,
        # and each row of the packing holding its own component's entries.
        parents, live, observed = dag
        levels = _depth_levels(*arcs_of(parents))
        assert [(nodes.tolist(), par.tolist()) for nodes, par in levels] == [
            (nodes.tolist(), par.tolist()) for nodes, par in depth_levels(parents)
        ]
        live, observed = np.array(live), np.array(observed, dtype=int)
        got, want = _evidence_components(levels, live, observed), dense_evidence_components(
            levels, live, observed
        )
        for got_part, want_part in zip(got, want, strict=True):
            assert [g.tolist() for g in got_part] == [w.tolist() for w in want_part]
        pack = _packing(levels, live)
        comp = np.array(components(parents), dtype=int)
        assert pack.comp.tolist() == comp.tolist()
        size, live_size = np.bincount(comp), np.bincount(comp, live).astype(int)
        assert pack.cov.size == (size**2).sum() and pack.a.size == (size * live_size).sum()
        n = len(comp)
        for rows, keep in ((pack.cov, np.ones(n, dtype=bool)), (pack.a, live)):
            # The blocks tile the flat array in order, each a (k, s, w) array whose
            # rows start where ``start`` says, and every (row, column) pair of a
            # component, the column kept, appears exactly once.
            pairs, end = [], 0
            for at, nodes, cols, _ in rows.blocks:
                width = cols.shape[1]
                assert at.start == end and at.stop == end + nodes.size * width
                assert rows.start[nodes].ravel().tolist() == (end + width * np.arange(nodes.size)).tolist()
                assert np.all(rows.length[nodes] == width)
                pairs += (nodes[:, :, None] * n + cols[:, None, :]).ravel().tolist()
                end = at.stop
            assert end == rows.size
            assert sorted(pairs) == [
                i * n + j for i in range(n) for j in range(n) if comp[i] == comp[j] and keep[j]
            ]

    @given(
        hst.integers(1, 30).flatmap(
            lambda n: hst.tuples(
                hst.just(n), hst.lists(hst.tuples(*[hst.integers(0, n - 1)] * 2), max_size=40)
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_components_of_edges_in_any_order(self, graph):
        n, edges = graph
        parents = [[] for _ in range(n)]
        for u, v in edges:
            parents[max(u, v)].append(min(u, v))
        u, v = np.array(edges, dtype=np.intp).reshape(-1, 2).T
        assert _components(u, v, n).tolist() == components(parents)

    @given(evidence_dags())
    @example(([[], [], [0, 1]], [True, True, False], [0, 1]))  # unobserved child of two
    @example(([[], [0], [1], [2]], [False, True, False, False], [3, 0, 3, 2, 0]))
    @example(([[], [], [], [0, 1], [0, 2]], [False, True, True, False, False], [3, 4]))  # dead root of two
    @example(([[], [], [0, 1]], [False, True, False], [0, 0, 2]))  # dead root observed twice
    @settings(max_examples=300, deadline=None)
    def test_groups_match_the_dense_reach_matrix(self, dag):
        parents, live, observed = dag
        args = (_depth_levels(*arcs_of(parents)), np.array(live), np.array(observed, dtype=int))
        got, want = _evidence_components(*args), dense_evidence_components(*args)
        for got_part, want_part in zip(got, want, strict=True):  # entries, live ancestors
            assert [g.tolist() for g in got_part] == [w.tolist() for w in want_part]
            assert all(
                g.dtype == w.dtype and g.shape == w.shape for g, w in zip(got_part, want_part)
            )
        owned = [c for anc in got[1] for c in anc.ravel().tolist()]
        assert len(owned) == len(set(owned))  # the groups' live ancestors are disjoint
        comp = _packing(args[0], args[1]).comp
        assert all(len(set(comp[anc].tolist())) <= 1 for part in got[1] for anc in part)

    @given(evidence_dags(), hst.integers(min_value=0, max_value=2**32 - 1))
    @example(
        # Interleaved components: live roots 0 and 1 under node 5, observed
        # twice (a group on two columns); a dead root 2 and a live root 4
        # that no evidence reaches under node 6; an observed isolated live
        # node 7 and an isolated dead node 8.
        (
            [[], [], [], [0, 1], [], [3], [4, 2], [], []],
            [True, True, False, False, True, False, False, True, False],
            [5, 5, 7],
        ),
        0,
    )
    @settings(max_examples=200, deadline=None)
    def test_packed_matches_the_dense_route(self, dag, seed):
        # At fixed B, noise and evidence: A, the update factors, the covariance
        # and the correlations are bit for bit those of the n x n route, and
        # zero (+0.0) between components; A u and the variances, summed in
        # another order, agree to 1e-14 of the terms summed.
        parents, live, observed = dag
        rng = np.random.default_rng(seed)
        n, observed = len(parents), np.array(observed, dtype=int)
        coeffs = np.zeros((n, n))
        for j, ps in enumerate(parents):
            ps = sorted(set(ps))
            coeffs[ps, j] = rng.uniform(-1.0, 1.0, size=len(ps)) / max(len(ps), 1)
        cond_var = np.where(live, rng.uniform(0.5, 2.0, size=n), 0.0)
        noise = rng.uniform(0.2, 2.0, size=len(observed))
        resid = rng.normal(size=len(observed))
        levels = _depth_levels(*arcs_of(parents))
        arcs, scale = _level_arcs(levels, coeffs), np.sqrt(cond_var)
        components, ancestors = _evidence_components(levels, cond_var > 0.0, observed)
        pack = _packing(levels, cond_var > 0.0)
        a, want_a = _forward_factor(arcs, scale, pack), dense_forward_factor(arcs, scale)
        assert dense_factor(a, pack).tobytes() == want_a.tobytes()

        shift, kept, wide = _factor_update(a, pack, components, ancestors, observed, noise, resid)
        u, want_kept, want_wide = dense_factor_update(want_a, components, ancestors, observed, noise, resid)
        assert kept.tobytes() == want_kept.tobytes()
        assert all(
            anc.tobytes() == want_anc.tobytes() and v.tobytes() == w.tobytes()
            for (anc, v), (want_anc, w) in zip(wide, want_wide, strict=True)
        )
        assert np.all(np.abs(shift - want_a @ u) <= 1e-14 * (np.abs(want_a) @ np.abs(u)))
        np.testing.assert_allclose(
            np.einsum("ij,ij->i", *[dense_factor(a, pack)] * 2),
            np.einsum("ij,ij->i", want_a, want_a),
            rtol=1e-14,
            atol=0,
        )
        got_var = _posterior_variance(a, pack, kept, wide)
        sq, less = dense_variance_terms(want_a, kept, wide)
        terms = sq + dense_variance_terms(np.abs(want_a), kept, [(anc, np.abs(v)) for anc, v in wide])[1]
        assert np.all(np.abs(got_var - (sq - less)) <= 1e-14 * terms)

        got = _covariance(arcs, scale, pack, a, kept, wide)
        want = dense_covariance(arcs, scale, want_a, kept, wide)
        assert _unpack(got, pack).tobytes() == want.tobytes()
        corr = _unpacked_correlations(got, pack)
        assert corr.tobytes() == correlation_matrix(want).tobytes()
        between = pack.comp[:, None] != pack.comp[None, :]
        assert np.all(corr[between] == 0.0) and not np.signbit(corr[between]).any()

    def test_unobserved_child_of_two_links_nothing(self):
        levels = _depth_levels(*arcs_of([[], [], [0, 1]]))
        got = _evidence_components(levels, np.array([True, True, False]), np.array([0, 1]))
        assert [[x.tolist() for x in part] for part in got] == [[[[0], [1]]], [[[0], [1]]]]

    def test_groups_need_no_reach_matrix(self):
        # 3,000 observed Beta-like roots and 1,500 deterministic children of
        # two of them each, as in the benchmark's scaling diagram.
        n_basic, n_det = 3000, 1500
        rng = np.random.default_rng(67)
        parents = [[]] * n_basic + [
            sorted(rng.choice(n_basic, size=2, replace=False).tolist()) for _ in range(n_det)
        ]
        levels = _depth_levels(*arcs_of(parents))
        live = np.arange(n_basic + n_det) < n_basic
        observed = np.arange(n_basic)
        tracemalloc.start()
        try:
            components, ancestors = _evidence_components(levels, live, observed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.tolist() for c in components] == [[[e] for e in range(n_basic)]]
        assert [c.tolist() for c in ancestors] == [[[e] for e in range(n_basic)]]
        assert peak < (n_basic + n_det) * n_basic // 4  # a quarter of the n x live booleans

    def test_a_deep_chain_stores_no_ancestor_sets(self):
        # x_i live roots and c_i = 0.9 c_(i-1) + x_i dead, 1,500 levels deep,
        # every tenth c_i observed: one group, whose live ancestors are x_0 ..
        # x_1490, found in memory of the order of the arcs, not of depth x arcs.
        depth = 1500
        parents = [[]] * depth + [[0]] + [[depth + i - 1, i] for i in range(1, depth)]
        levels = _depth_levels(*arcs_of(parents))
        live = np.arange(2 * depth) < depth
        observed = np.arange(depth, 2 * depth, 10)
        tracemalloc.start()
        try:
            components, ancestors = _evidence_components(levels, live, observed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [c.tolist() for c in components] == [[list(range(len(observed)))]]
        assert [c.tolist() for c in ancestors] == [[list(range(depth - 9))]]
        assert peak < 1000 * (2 * depth - 1)

    def test_a_deep_chain_packs_no_index_per_entry(self):
        # The same chain is one component of 3,000 nodes: 9,000,000 covariance
        # entries and 4,500,000 of A, whose layouts are packed in memory of
        # the order of the nodes, with no row or column index per entry.
        depth = 1500
        parents = [[]] * depth + [[0]] + [[depth + i - 1, i] for i in range(1, depth)]
        levels = _depth_levels(*arcs_of(parents))
        live = np.arange(2 * depth) < depth
        tracemalloc.start()
        try:
            pack = _packing(levels, live)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (pack.cov.size, pack.a.size) == ((2 * depth) ** 2, 2 * depth * depth)
        assert peak < 1000 * 2 * depth

    def test_a_u_keeps_the_bits_of_rows_padded_to_the_widest(self):
        # Components of 9 and of 6 live roots, with one child of all nine and
        # 40 children of all six: A u keeps the bits of einsum over rows
        # padded with zeros to live_width 9, whose order of addition differs
        # from that at width 6.
        parents = [[]] * 15 + [list(range(9))] + [list(range(9, 15))] * 40
        n, rng = len(parents), np.random.default_rng(11)
        live = np.arange(n) < 15
        coeffs = np.zeros((n, n))
        for j, ps in enumerate(parents):
            coeffs[ps, j] = rng.uniform(-1.0, 1.0, size=len(ps))
        levels = _depth_levels(*arcs_of(parents))
        arcs, scale = _level_arcs(levels, coeffs), np.where(live, rng.uniform(0.5, 2.0, size=n), 0.0)
        pack = _packing(levels, live)
        a, u = _forward_factor(arcs, scale, pack), np.where(live, rng.normal(size=n), 0.0)
        dense, padded = dense_factor(a, pack), np.zeros((2, n, pack.live_width))
        for i in range(n):
            cols = (pack.comp == pack.comp[i]) & live
            padded[:, i, : np.count_nonzero(cols)] = dense[i, cols], u[cols]
        assert pack.live_width == 9
        assert _times(a, u, pack).tobytes() == np.einsum("it,it->i", *padded).tobytes()

    @given(evidence_dags(), hst.integers(min_value=0, max_value=2**32 - 1))
    @example(([[], [], [0, 1]], [True, True, False], [0, 1]), 0)
    @settings(max_examples=200, deadline=None)
    def test_factor_space_matches_the_augmented_model(self, dag, seed):
        # Random arc coefficients (scaled by the fan-in, so variances stay
        # moderate), prior noise on the live nodes, and noisy evidence.
        parents, live, observed = dag
        rng = np.random.default_rng(seed)
        n, observed = len(parents), np.array(observed, dtype=int)
        coeffs = np.zeros((n, n))
        for j, ps in enumerate(parents):
            ps = sorted(set(ps))
            coeffs[ps, j] = rng.uniform(-1.0, 1.0, size=len(ps)) / max(len(ps), 1)
        cond_var = np.where(live, rng.uniform(0.5, 2.0, size=n), 0.0)
        mean = rng.normal(size=n)
        noise = rng.uniform(0.2, 2.0, size=len(observed))
        obs = rng.normal(size=len(observed))
        got_mean, got_var, got_cov = factor_space_posterior(
            parents, coeffs, cond_var, mean, observed, noise, obs
        )
        want_mean, want_cov = augmented_posterior(coeffs, cond_var, mean, observed, noise, obs)
        np.testing.assert_allclose(got_mean, want_mean, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got_var, np.diag(want_cov), rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(got_cov, want_cov, rtol=1e-10, atol=1e-12)
        assert np.array_equal(got_cov, got_cov.T)


class TestCorrelation:
    def test_perfect_dependence(self):
        cov = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert correlation(cov, 0, 1) == pytest.approx(1.0)

    def test_zero_variance_convention(self):
        cov = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert correlation(cov, 0, 1) == 0.0

    def test_plain_value(self):
        cov = np.array([[4.0, -2.0], [-2.0, 4.0]])
        assert correlation(cov, 0, 1) == pytest.approx(-0.5)

    def test_clamped_against_rounding(self):
        cov = np.array([[1.0, 1.0 + 1e-14], [1.0 + 1e-14, 1.0]])
        assert correlation(cov, 0, 1) == 1.0
