"""Linear algebra on the transformed-scale Gaussian model.

The joint distribution is carried in regression form: node j satisfies

    X_j = E X_j + sum_i B_ij (X_i - E X_i) + eps_j,   Var eps_j = v_j

with B strictly upper triangular in a parent-before-child order, so the
covariance is A A' with the factor A = (I - B)^-T diag(sqrt v), which one
forward-substitution pass over the arcs builds (Shachter & Kenley,
"Gaussian influence diagrams", Management Science 35(5), 1989).  One
kernel, :func:`_substitute`, solves (I - B') X = X0 with one batched update
per depth level of the arcs.  A itself and every product of A with a matrix
go through it (A rhs is the kernel applied to diag(sqrt v) rhs), so none is
a dense matrix product, and each costs O(arcs x columns).

Evidence is absorbed in the factor space of A (Lauritzen & Jensen, "Stable
local computation with conditional Gaussian distributions", Statistics and
Computing 11, 2001).  A column of A belongs to a node with v > 0, a *live*
node.  The evidence entries fall into groups that share no live ancestor,
and an observed node's row of A is zero outside its live ancestors, so
each group works on its own columns L_g of A: its block G_g G_g' + noise,
with G_g = A[observed][:, L_g], is factored once by a symmetric
eigendecomposition, which also gives the condition-number guard, and the
update is a small factor V_g over those columns.  The posterior covariance
is A (I - V'V) A': the variances are row sums of squares, and the
covariance itself, from which the correlations are read, is formed only
when it is asked for, by one more substitution pass.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "GaussianState",
    "ConditioningError",
    "propagate_covariance",
    "condition",
    "condition_sequential",
    "correlation",
    "correlation_matrix",
]

# Nodes with parents by depth level, (nodes, par); and with B's coefficients
# gathered, (nodes, par, c): see _depth_levels and _level_arcs.
Levels = tuple[tuple[np.ndarray, np.ndarray], ...]
Arcs = tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

# Above this condition number the evidence block is treated as singular.
_MAX_CONDITION = 1e12


class ConditioningError(RuntimeError):
    """The evidence block of the covariance is singular or nearly so.

    ``condition_estimate`` carries the block's 2-norm condition number:
    infinite when the block is singular, NaN when it holds a non-finite
    entry.  This usually indicates a broken model, e.g. two copies of
    a deterministic observation of the same quantity.
    """

    def __init__(self, message: str, condition_estimate: float):
        super().__init__(message)
        self.condition_estimate = condition_estimate


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Mean vector, regression coefficients, and noise variances, in order.

    ``order`` names the nodes; ``coeffs[i, j]`` is the coefficient of node
    i in node j's regression and must vanish on and below the diagonal;
    ``cond_var[j]`` is the noise variance of node j (zero exactly for
    deterministic nodes); ``cov`` is filled by
    :func:`propagate_covariance`.  The fields are checked once, when the
    state is built.
    """

    order: tuple[str, ...]
    mean: np.ndarray
    coeffs: np.ndarray
    cond_var: np.ndarray
    cov: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.order)
        if self.mean.shape != (n,):
            raise ValueError(f"mean must have shape ({n},), got {self.mean.shape}")
        if self.coeffs.shape != (n, n):
            raise ValueError(f"coeffs must have shape ({n}, {n}), got {self.coeffs.shape}")
        if self.cond_var.shape != (n,):
            raise ValueError(f"cond_var must have shape ({n},), got {self.cond_var.shape}")
        if np.any(np.tril(self.coeffs) != 0.0):
            raise ValueError("coeffs must be strictly upper triangular in the node order")
        if np.any(self.cond_var < 0.0):
            raise ValueError("conditional variances must be >= 0")
        if self.cov is not None and self.cov.shape != (n, n):
            raise ValueError(f"cov must have shape ({n}, {n}), got {self.cov.shape}")


def _depth_levels(parents: Sequence[Sequence[int]]) -> Levels:
    """The nodes that have parents, grouped by their depth in the arcs.

    Node j's parents are ``parents[j]``, all earlier in the order.  A node's
    depth is one more than its deepest parent's (0 without parents), so the
    parents of a level's nodes all sit in earlier levels.  Each level is a
    pair ``(nodes, par)`` of its k nodes and their distinct parents, a
    (k, p) array whose rows are padded with their own node: its
    coefficient B_jj is zero.
    """
    depth = [0] * len(parents)
    rows: dict[int, list[list[int]]] = {}  # depth -> [node, *parents] per node
    for j, ps in enumerate(parents):
        if len(ps):
            depth[j] = 1 + max(depth[i] for i in ps)
            rows.setdefault(depth[j], []).append([j, *dict.fromkeys(ps)])
    levels = []
    for d in sorted(rows):
        width = max(map(len, rows[d]))
        padded = np.array([r + r[:1] * (width - len(r)) for r in rows[d]], dtype=int)
        levels.append((padded[:, 0], padded[:, 1:]))
    return tuple(levels)


def _level_arcs(levels: Levels, coeffs: np.ndarray) -> Arcs:
    """B's arcs by depth level: ``(nodes, par, c)`` with ``c[k, 0, :] = B[par[k], nodes[k]]``.

    Gathered once from a dense B (for :func:`propagate_covariance`), they serve
    every :func:`_substitute` pass; the solver's ``linearize`` fills them without B.
    """
    return tuple((nodes, par, coeffs[par, nodes[:, None]][:, None, :]) for nodes, par in levels)


def _substitute(arcs: Arcs, x: np.ndarray) -> np.ndarray:
    """Solve (I - B') X = X0 in place, one batch per depth level.

    ``arcs`` is B as :func:`_level_arcs` gives it.  ``x`` holds X0 on entry,
    1-D or 2-D with rows in the node order, and X on return; it is also
    returned.  Row j of X is X0[j] plus sum_i B_ij X[i] over j's parents i,
    which sit in earlier levels, so each level is one gather and one batched
    product: the cost is O(arcs x columns), and rows without parents are
    not touched.
    """
    rows = x if x.ndim == 2 else x[:, None]
    for nodes, par, c in arcs:
        rows[nodes] += (c @ rows[par])[:, 0]
    return x


def _forward_factor(arcs: Arcs, scale: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The factor A = (I - B)^-T diag(sqrt v) of the covariance A A'.

    ``scale`` is sqrt(v) per node.  Only the columns of nodes with v_j > 0
    are kept (the others are zero), in the order ``cols`` lists those
    nodes.  A is n x q, with q the number of nodes with v_j > 0, and solves
    (I - B') A = D with D = diag(sqrt v) on those columns: row j of A is
    sqrt(v_j) e_j plus sum_i B_ij A_i over its parents i, one
    :func:`_substitute` pass over B's ``arcs``.
    """
    a = np.zeros((len(scale), len(cols)))
    a[cols, np.arange(len(cols))] = scale[cols]
    return _substitute(arcs, a)


def _times_factor(arcs: Arcs, scale: np.ndarray, cols: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``A @ rhs`` for the factor A of :func:`_forward_factor`, with no dense product.

    A rhs solves (I - B') X = D rhs, where D rhs is ``rhs`` (q rows) scaled
    row by row by sqrt(v) and placed on the rows of the nodes ``cols``
    lists, zero elsewhere; :func:`_substitute` then costs O(arcs x columns).
    """
    x = np.zeros((len(scale), rhs.shape[1]))
    x[cols] = scale[cols, None] * rhs
    return _substitute(arcs, x)


# The update factors V are read in runs of at most this many rows or
# columns per group stack, so no temporary grows to the n x m of all the
# evidence entries.
_RUN = 64


def _runs(vs: Sequence[np.ndarray]) -> Iterator[tuple[slice, np.ndarray]]:
    """``(columns of A, V)`` for runs of groups of one shape class.

    ``vs`` holds one (k, s, l) stack per shape class, as
    :func:`_factor_update` returns them: k groups of s entries whose l live
    ancestors are l consecutive columns of A, class after class.  A class
    of width l = 1 needs no temporary (see :func:`_update_variance`), so it
    is one run.
    """
    lo = 0
    for v in vs:
        k, s, l = v.shape
        step = k if l == 1 else max(1, _RUN // max(s, l))
        for first in range(0, k, step):
            run = v[first : first + step]
            yield slice(lo + first * l, lo + (first + len(run)) * l), run
        lo += k * l


def _update_variance(a: np.ndarray, vs: Sequence[np.ndarray]) -> np.ndarray:
    """The diagonal of A V'V A': row sums of (A[:, L_g] V_g')^2 summed over the groups g.

    A group on one column c (l = 1) contributes A[:, c]^2 |V_g|^2, summed
    over its class in one pass with no temporary.
    """
    n = len(a)
    out = np.zeros(n)
    for cols, v in _runs(vs):
        k, _, l = v.shape
        if l == 1:
            out += np.einsum("nk,nk,k->n", a[:, cols], a[:, cols], np.einsum("ksl,ksl->k", v, v))
            continue
        x = a[:, cols].reshape(n, k, l).swapaxes(0, 1) @ v.swapaxes(1, 2)  # (k, n, s)
        out += np.einsum("kns,kns->n", x, x)
    return out


def _covariance(
    arcs: Arcs, scale: np.ndarray, cols: np.ndarray, a: np.ndarray, vs: Sequence[np.ndarray]
) -> np.ndarray:
    """The covariance A (I - V'V) A', exactly symmetric.

    ``vs`` are the update factors of :func:`_factor_update` (none for the
    prior covariance A A').  V'V is never formed: Y = A' - V'(V A'[L]) is
    A' with each group's rows L_g updated by its own small V_g (a row of a
    group on one column is scaled by 1 - |V_g|^2), and A Y is one
    :func:`_times_factor` pass.  Substitution rounds the two triangles
    differently, so the result is averaged with its transpose, in place;
    copying the transpose first is faster than letting the add resolve the
    overlap.
    """
    y = a.T.copy()
    for rows, v in _runs(vs):
        if v.shape[2] == 1:
            y[rows] *= 1.0 - np.einsum("ksl,ksl->k", v, v)[:, None]
            continue
        at = y[rows].reshape(len(v), v.shape[2], y.shape[1])  # a view: the rows of y
        at -= v.swapaxes(1, 2) @ (v @ at)
    cov = _times_factor(arcs, scale, cols, y)
    cov += cov.T.copy()
    cov *= 0.5
    return cov


def _state_arcs(st: GaussianState) -> Arcs:
    """The arcs of ``st.coeffs`` by depth level: its nonzero coefficients."""
    return _level_arcs(_depth_levels([np.flatnonzero(col) for col in st.coeffs.T]), st.coeffs)


def propagate_covariance(st: GaussianState) -> GaussianState:
    """Fill the covariance (I - B)^-T diag(v) (I - B)^-1 by forward substitution.

    The covariance is A A' with A from :func:`_forward_factor`; both A and
    A A' are :func:`_substitute` passes over the depth levels of B's nonzero
    arcs, and the result is symmetric and positive semidefinite.  The
    returned state shares ``st``'s other arrays, which were validated when
    ``st`` was built.
    """
    arcs = _state_arcs(st)
    scale = np.sqrt(st.cond_var)
    cols = np.flatnonzero(scale > 0.0)
    cov = _covariance(arcs, scale, cols, _forward_factor(arcs, scale, cols), ())
    out = copy.copy(st)
    object.__setattr__(out, "cov", cov)
    return out


def _evidence_components(
    levels: Levels, live: np.ndarray, observed: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Group evidence entries into the diagonal blocks of their covariance.

    ``levels`` are the depth levels of the arcs (:func:`_depth_levels`),
    ``live[j]`` says whether v_j > 0, and entry e observes node
    ``observed[e]``.  The covariance of two entries is a sum over the live
    ancestors (a node included) that their nodes share, so entries are
    linked when they share one, and a group is a class of the transitive
    closure of that link; the groups' sets of live ancestors L_g are
    therefore disjoint.  This holds for any coefficients on the arcs: a
    zero only removes links.  An arc alone links nothing: an unobserved
    child of two independent parents joins neither.  Only the observed
    nodes' ancestors are walked, each once, up ``levels``' rows.

    Returns ``(components, ancestors)``, one pair of arrays per shape
    class (s, l), in increasing order: ``components`` (k, s) holds each
    group's s entries in increasing order, and ``ancestors`` (k, l) its l
    live ancestors in the node order, rows by first entry.
    """
    parents = {j: ps for nodes, par in levels for j, ps in zip(nodes.tolist(), par.tolist())}
    live = live.tolist()
    targets = dict.fromkeys(observed.tolist())
    # observed node or its ancestor -> its live ancestors; roots need no walk
    reach = {j: {j} if live[j] else set() for j in targets if j not in parents}
    stack = [j for j in targets if j not in reach]
    while stack:
        j = stack[-1]
        ps = [i for i in parents.get(j, ()) if i != j]  # a row is padded with j
        todo = [i for i in ps if i not in reach]
        if todo:
            stack += todo
            continue
        stack.pop()
        reach[j] = set().union([j] if live[j] else [], *(reach[i] for i in ps))

    m = len(observed)
    root = list(range(m))  # union-find forest over the entries

    def find(e: int) -> int:
        while root[e] != e:
            root[e] = root[root[e]]
            e = root[e]
        return e

    first: dict[int, int] = {}  # live ancestor -> first entry that reaches it
    for e, node in enumerate(observed.tolist()):
        for c in reach[node]:
            root[find(e)] = find(first.setdefault(c, e))
    members: dict[int, list[int]] = {}
    for e in range(m):
        members.setdefault(find(e), []).append(e)
    owned: dict[int, list[int]] = {}  # group root -> its live ancestors
    for c, e in first.items():
        owned.setdefault(find(e), []).append(c)
    by_shape: dict[tuple[int, int], tuple[list[list[int]], list[list[int]]]] = {}
    for r, group in members.items():
        anc = sorted(owned.get(r, ()))
        rows = by_shape.setdefault((len(group), len(anc)), ([], []))
        rows[0].append(group)
        rows[1].append(anc)
    shapes = sorted(by_shape)
    return (
        tuple(np.array(by_shape[sl][0], dtype=int) for sl in shapes),
        tuple(np.array(by_shape[sl][1], dtype=int) for sl in shapes),
    )


def _factor_columns(ancestors: Sequence[np.ndarray], live: np.ndarray) -> np.ndarray:
    """The node of each column of A: the groups' live ancestors, then the other live nodes.

    ``ancestors`` are as :func:`_evidence_components` returns them, so each
    shape class of groups owns a run of consecutive columns, l per group;
    the live nodes that no evidence reaches follow in the node order.
    """
    grouped = [c for anc in ancestors for c in anc.ravel().tolist()]
    owned = set(grouped)
    rest = [j for j in np.flatnonzero(live).tolist() if j not in owned]
    return np.array(grouped + rest, dtype=int)


def _split_indices(n: int, obs: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    ev = np.array(sorted(obs), dtype=int)
    if len(ev) and (ev[0] < 0 or ev[-1] >= n):
        raise ValueError(f"evidence index out of range: {ev.tolist()}")
    if len(set(obs)) != len(obs):
        raise ValueError("duplicate evidence indices")
    keep = np.setdiff1d(np.arange(n), ev)
    d = np.array([obs[i] for i in ev.tolist()])
    return ev, keep, d


def _condition_number(eigenvalues: np.ndarray) -> float:
    """2-norm condition number of a symmetric matrix, from its eigenvalues.

    The singular values of a symmetric matrix are the absolute values of
    its eigenvalues, so the number is ``|lambda|max / |lambda|min``:
    infinite when the smallest is zero.
    """
    eig = np.abs(eigenvalues)
    smallest = eig.min()
    return float(eig.max() / smallest) if smallest > 0.0 else np.inf


def _eigh_blocks(blocks: Sequence[np.ndarray]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues and eigenvectors of each stack of evidence blocks, behind the guard.

    ``blocks`` holds one (k, s, s) stack per shape class; each is one
    batched ``eigh`` call.  The blocks' eigenvalues together are those of
    the block-diagonal covariance of the evidence, so they give its 2-norm
    condition number (:func:`_condition_number`).  The guard rejects a
    block with a non-finite entry, a number that is not finite or reaches
    1e12, and a non-positive eigenvalue.
    """
    if not all(np.isfinite(b).all() for b in blocks):
        raise ConditioningError("evidence covariance block has a non-finite entry", np.nan)
    pairs = [np.linalg.eigh(b) for b in blocks]
    lam = np.concatenate([val.ravel() for val, _ in pairs])
    cond_est = _condition_number(lam)
    if not np.isfinite(cond_est) or cond_est >= _MAX_CONDITION:
        raise ConditioningError(
            f"evidence covariance block is ill-conditioned (estimate {cond_est:.3e})",
            cond_est,
        )
    if lam.min() <= 0.0:
        raise ConditioningError(
            f"evidence covariance block is not positive definite "
            f"(smallest eigenvalue {lam.min():.3e})",
            cond_est,
        )
    return pairs


def _factor_update(
    a: np.ndarray,
    components: Sequence[np.ndarray],
    ancestors: Sequence[np.ndarray],
    par: np.ndarray,
    noise: np.ndarray,
    resid: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Condition the Gaussian with covariance A A' on noisy observations, in factor space.

    Entry e observes node ``par[e]`` with independent noise of variance
    ``noise[e]``; ``resid`` is the evidence minus its mean.  The entries
    fall into groups with disjoint live ancestors L_g, one shape class
    (s, l) per pair of ``components`` (k, s) and ``ancestors`` (k, l), as
    :func:`_evidence_components` returns them, and A's columns are laid out
    by :func:`_factor_columns`, so class after class, group after group,
    each group's L_g is l consecutive columns.  Row ``par[e]`` of A is zero
    outside L_g, so a group needs only G_g = A[par_g][:, L_g] (s x l): its
    block G_g G_g' + diag(noise_g) is factored once as Q diag(lambda) Q'
    (:func:`_eigh_blocks`), and V_g = diag(lambda)^-1/2 Q' G_g and
    z_g = diag(lambda)^-1/2 Q' resid_g.

    Returns ``(u, vs)``: the posterior mean is ``mean + A u``, with
    u[L_g] = V_g' z_g and zero on the other columns, and the posterior
    covariance A (I - V'V) A', with ``vs`` the (k, s, l) stacks of V_g per
    class (:func:`_update_variance`, :func:`_covariance`).
    """
    n = len(a)
    u = np.zeros(a.shape[1])
    if not components:
        return u, []
    groups, blocks, lo = [], [], 0  # (entries, columns of A, G) per class
    for idx, anc in zip(components, ancestors):
        (k, s), l = idx.shape, anc.shape[1]
        cols = slice(lo, lo + k * l)
        g = a[:, cols].reshape(n, k, l)[par[idx], np.arange(k)[:, None]]  # (k, s, l)
        block = g @ g.swapaxes(1, 2)
        block[:, np.arange(s), np.arange(s)] += noise[idx]
        groups.append((idx, cols, g))
        blocks.append(block)
        lo += k * l
    vs = []
    for (idx, cols, g), (val, vecs) in zip(groups, _eigh_blocks(blocks)):
        scaled = (vecs / np.sqrt(val)[:, None, :]).swapaxes(1, 2)  # diag(lambda)^-1/2 Q'
        v = scaled @ g
        u[cols] = (v.swapaxes(1, 2) @ (scaled @ resid[idx][..., None])).ravel()
        vs.append(v)
    return u, vs


def condition(
    st: GaussianState, obs: Mapping[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of the unobserved nodes given ``obs``.

    ``obs`` maps node positions (in ``st.order``) to observed values, taken
    as exact; ``st`` must have been through :func:`propagate_covariance`.
    The observations are one group of :func:`_factor_update`, with no added
    noise, on the factor A of ``st.coeffs`` and ``st.cond_var`` (whose
    product A A' is ``st.cov``) with all live nodes as its columns, and the
    posterior covariance is :func:`_covariance`; rows and columns of
    observed nodes do not appear in the result.
    """
    if st.cov is None:
        raise ValueError("covariance not populated; call propagate_covariance first")
    ev, keep, d = _split_indices(len(st.order), obs)
    arcs = _state_arcs(st)
    scale = np.sqrt(st.cond_var)
    cols = np.flatnonzero(scale > 0.0)
    a = _forward_factor(arcs, scale, cols)
    one = ((np.arange(len(ev))[None, :],), (cols[None, :],)) if len(ev) else ((), ())
    u, vs = _factor_update(a, *one, ev, np.zeros(len(ev)), d - st.mean[ev])
    mean = st.mean + a @ u
    return mean[keep], _covariance(arcs, scale, cols, a, vs)[np.ix_(keep, keep)]


def condition_sequential(
    st: GaussianState, obs: Mapping[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Same contract as :func:`condition`, by rank-one updates per observation.

    The independent reference that tests check :func:`condition` against.
    Each step divides by the current marginal variance of the observation
    being absorbed, with the same singularity guard.
    """
    if st.cov is None:
        raise ValueError("covariance not populated; call propagate_covariance first")
    n = len(st.order)
    ev, keep, d = _split_indices(n, obs)
    mean = st.mean.copy()
    cov = st.cov.copy()
    for k, idx in enumerate(ev.tolist()):
        var_k = cov[idx, idx]
        if var_k <= 0.0 or not np.isfinite(var_k):
            raise ConditioningError(
                f"observation at position {idx} has non-positive marginal variance {var_k}",
                np.inf,
            )
        col = cov[:, idx].copy()
        mean = mean + col * ((d[k] - mean[idx]) / var_k)
        cov = cov - np.outer(col, col) / var_k
        cov = 0.5 * (cov + cov.T)
    return mean[keep], cov[np.ix_(keep, keep)]


def correlation_matrix(cov: np.ndarray) -> np.ndarray:
    """Correlations read from a covariance matrix, with the zero-variance rule.

    Where either diagonal entry is zero (a fully determined quantity) the
    correlation is defined to be 0, the diagonal included; elsewhere the
    usual ratio, clamped to [-1, 1] against rounding, and 1 on the diagonal.
    The ratio is formed in one n x n array, divided and clamped in place;
    the rows and columns of non-positive variance are then overwritten.
    A variance outside [2^-500, 2^500] is first scaled into [0.5, 2) by 4^-k,
    its row and column by 2^-k, so no product of two variances leaves the
    normal range; being exact, this changes no bit where they stayed normal.
    """
    var = np.diag(cov)
    live = var > 0.0
    scale = np.where(live, var, 1.0)  # no zero or negative divisor
    k = np.where((scale < 2.0**-500) | (scale > 2.0**500), np.frexp(scale)[1] // 2, 0)
    if k.any():
        scale = np.ldexp(scale, -2 * k)
        cov = np.ldexp(cov, -(k[:, None] + k[None, :]))
    corr = np.sqrt(np.outer(scale, scale))
    np.divide(cov, corr, out=corr)
    np.clip(corr, -1.0, 1.0, out=corr)
    corr[~live] = 0.0
    corr[:, ~live] = 0.0
    np.fill_diagonal(corr, live.astype(float))
    return corr


def correlation(post_cov: np.ndarray, i: int, j: int) -> float:
    """Entry (i, j) of :func:`correlation_matrix` of ``post_cov``."""
    pair = [i, j]
    return float(correlation_matrix(post_cov[np.ix_(pair, pair)])[0, 1])
