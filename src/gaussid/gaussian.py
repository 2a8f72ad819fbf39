"""Linear algebra on the transformed-scale Gaussian model.

The joint distribution is carried in regression form: node j satisfies

    X_j = E X_j + sum_i B_ij (X_i - E X_i) + eps_j,   Var eps_j = v_j

with B strictly upper triangular in a parent-before-child order, so the
covariance is A A' with the factor A = (I - B)^-T diag(sqrt v), which one
forward-substitution pass over the arcs builds (Shachter & Kenley,
"Gaussian influence diagrams", Management Science 35(5), 1989).  One
kernel, :func:`_substitute`, solves (I - B') X = X0 with one batched update
per depth level of the arcs.  A itself and every product of A with a matrix
go through it, so none is a dense matrix product, and each costs
O(arcs x columns).

Nodes in different weakly connected components of the arcs share no
ancestor, hence no nonzero column of A or covariance, so they share column
slots (:class:`Packing`), the trivially colored case of column compression
(Curtis, Powell & Reid, J. Inst. Math. Appl. 13, 1974).

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
covariance itself, from which the correlations are read, is formed packed,
by one more substitution pass, and only the n x n result is unpacked.
"""

from __future__ import annotations

import copy
import operator
from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .specfun import _Record, _set

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


class GaussianState(_Record):
    """Mean vector, regression coefficients, and noise variances, in order.

    ``order`` names the nodes; ``coeffs[i, j]`` is the coefficient of node
    i in node j's regression and must vanish on and below the diagonal;
    ``cond_var[j]`` is the noise variance of node j (zero exactly for
    deterministic nodes); ``cov`` is filled by :func:`propagate_covariance`
    for :func:`condition_sequential`, its only reader.  The fields are
    checked once, when the state is built.
    """

    __slots__ = ("order", "mean", "coeffs", "cond_var", "cov")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, order: tuple[str, ...], mean: np.ndarray, coeffs: np.ndarray,
        cond_var: np.ndarray, cov: np.ndarray | None = None,
    ):
        n = len(order)
        if mean.shape != (n,):
            raise ValueError(f"mean must have shape ({n},), got {mean.shape}")
        if coeffs.shape != (n, n):
            raise ValueError(f"coeffs must have shape ({n}, {n}), got {coeffs.shape}")
        if cond_var.shape != (n,):
            raise ValueError(f"cond_var must have shape ({n},), got {cond_var.shape}")
        if np.any(np.tril(coeffs) != 0.0):
            raise ValueError("coeffs must be strictly upper triangular in the node order")
        if np.any(cond_var < 0.0):
            raise ValueError("conditional variances must be >= 0")
        if cov is not None and cov.shape != (n, n):
            raise ValueError(f"cov must have shape ({n}, {n}), got {cov.shape}")
        self._fill(order, mean, coeffs, cond_var, cov)


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
    """B's arcs by depth level: ``(nodes, par, c)`` with ``c[k] = B[par[k], nodes[k]]``.

    Gathered once from a dense B (for :func:`propagate_covariance`), they serve
    every :func:`_substitute` pass; the solver's ``linearize`` fills them without B.
    """
    return tuple((nodes, par, coeffs[par, nodes[:, None]]) for nodes, par in levels)


def _substitute(arcs: Arcs, x: np.ndarray) -> np.ndarray:
    """Solve (I - B') X = X0 in place, one batch per depth level.

    ``arcs`` is B as :func:`_level_arcs` gives it.  ``x`` holds X0 on entry,
    1-D or 2-D with rows in the node order, and X on return; it is also
    returned.  Row j of X is X0[j] plus sum_i B_ij X[i] over j's parents i,
    which sit in earlier levels, so each level is one gather and one batched
    product: the cost is O(arcs x columns), and rows without parents are
    not touched.  The sums are :func:`_product`'s, so each column's bits do
    not depend on how many columns there are.
    """
    rows = x if x.ndim == 2 else x[:, None]
    for nodes, par, c in arcs:
        rows[nodes] += _product(c[:, None, :], rows[par])[:, 0]
    return x


def _product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` for stacks m (k, r, t) and x (k, t, w), each entry summed from 0 over t in order.

    So a column's bits do not depend on w, as a BLAS product's do.  numpy's
    einsum adds so when its innermost loop runs over two or more columns.
    """
    if x.shape[2] == 1:
        return np.einsum("krt,ktw->krw", m, np.concatenate([x, x], axis=2))[:, :, :1]
    return np.einsum("krt,ktw->krw", m, x)


class Packing(NamedTuple):
    """Where A and the covariance keep their entries: packed by connected component.

    Node i has rank ``slot[i]`` in its component ``comp[i]``, which holds all
    it covaries with.  Column s of row i of the n x w covariance (w the most
    members) is node ``cols[i, s]``, member s of i's component, or i itself
    on the padding.  Column t of A (n x ``live_width``) is the live node of
    rank t in the row's component; live node j has rank ``live_slot[j]``.
    """

    comp: np.ndarray
    slot: np.ndarray
    members: np.ndarray  # (components, w): the node at each slot, -1 past the end
    cols: np.ndarray
    live: np.ndarray
    live_slot: np.ndarray
    live_width: int


def _packing(levels: Levels, live: np.ndarray) -> Packing:
    """The :class:`Packing` of the nodes whose arcs ``levels`` gives, with v_j > 0 where ``live``.

    A union-find over ``levels``' rows finds the components, numbered by first node.
    """
    n = len(live)
    root = list(range(n))
    for nodes, par in levels:  # each row joins its node and parents under one root r
        for j, ps in zip(nodes.tolist(), par.tolist()):
            r = -1
            for i in ps:
                while root[i] != i:  # up to i's root, halving the path
                    root[i] = root[root[i]]
                    i = root[i]
                r = i if r < 0 else r
                root[i] = root[j] = r
    sizes: dict[int, list[int]] = {}  # root -> [component, nodes, live nodes] so far
    comp, slot, live_slot = [], [], []
    for i, alive in enumerate(live.tolist()):
        while root[i] != root[root[i]]:
            root[i] = root[root[i]]
        c = sizes.setdefault(root[i], [len(sizes), 0, 0])
        comp.append(c[0])
        slot.append(c[1])
        live_slot.append(c[2])
        c[1] += 1
        c[2] += alive
    comp, slot, live_slot = np.array([comp, slot, live_slot], dtype=np.intp)
    members = np.full((len(sizes), max((c[1] for c in sizes.values()), default=0)), -1)
    members[comp, slot] = at = np.arange(n)
    cols = members[comp]
    np.copyto(cols, at[:, None], where=cols < 0)
    widest = max((c[2] for c in sizes.values()), default=0)
    return Packing(comp, slot, members, cols, np.flatnonzero(live), live_slot, widest)


def _forward_factor(arcs: Arcs, scale: np.ndarray, pack: Packing) -> np.ndarray:
    """The factor A = (I - B)^-T diag(sqrt v) of the covariance A A', packed by ``pack``.

    ``scale`` is sqrt(v) per node; only the columns of nodes with v_j > 0
    are nonzero.  A solves (I - B') A = diag(sqrt v): row j is sqrt(v_j) at
    j's own column plus sum_i B_ij A_i over its parents i, one
    :func:`_substitute` pass over B's ``arcs``.
    """
    a = np.zeros((len(scale), pack.live_width))
    a[pack.live, pack.live_slot[pack.live]] = scale[pack.live]
    return _substitute(arcs, a)


# The update factors V of groups of more than one column are read in runs
# of at most this many rows or columns per group stack, so no temporary
# grows to the n x m of all the evidence entries.
_RUN = 64


def _runs(ancestors: Sequence, vs: Sequence) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(live ancestors, V)`` for runs of groups of one shape class.

    ``ancestors`` and ``vs`` hold one (k, l) and one (k, s, l) array per shape
    class.  A class of width l = 1 needs no temporary, so it is one run, and
    one of width 0 changes nothing, so it has none.
    """
    for anc, v in zip(ancestors, vs):
        k, s, l = v.shape
        if l == 0:
            continue
        step = k if l == 1 else max(1, _RUN // max(s, l))
        for first in range(0, k, step):
            yield anc[first : first + step], v[first : first + step]


def _update_variance(a: np.ndarray, pack: Packing, ancestors: Sequence, vs: Sequence) -> np.ndarray:
    """The diagonal of A V'V A': row sums of (A[:, L_g] V_g')^2 summed over the groups g.

    A group, its columns and the rows where they are nonzero are in one
    component.  A one-column group puts |V_g|^2 into a (component, column)
    table that each row reads for its own; a wider one gathers its rows.
    """
    weight, wide = np.zeros((len(pack.members), a.shape[1])), []
    for anc, v in _runs(ancestors, vs):
        if v.shape[2] == 1:
            weight[pack.comp[anc[:, 0]], pack.live_slot[anc[:, 0]]] = np.einsum("ksl,ksl->k", v, v)
            continue
        rows = pack.members[pack.comp[anc[:, 0]]]  # (k, w), -1 past each component's end
        x = a[rows[:, :, None], pack.live_slot[anc][:, None, :]] @ v.swapaxes(1, 2)  # (k, w, s)
        keep = rows >= 0
        wide.append(np.bincount(rows[keep], np.einsum("kws,kws->kw", x, x)[keep], minlength=len(a)))
    return sum(wide, np.einsum("it,it,it->i", a, a, weight[pack.comp]))


def _covariance(
    arcs: Arcs, scale: np.ndarray, pack: Packing, a: np.ndarray, ancestors: Sequence, vs: Sequence
) -> np.ndarray:
    """The covariance A (I - V'V) A', packed n x w (:class:`Packing`), exactly symmetric.

    ``vs`` are :func:`_factor_update`'s factors on the groups' live
    ``ancestors`` (none for A A').  Y = A' - V'(V A'[L]) is A' with each
    group's rows L_g updated by its own V_g (a one-column group's row scaled
    by 1 - |V_g|^2), packed like the covariance, and A Y is one
    :func:`_substitute` pass.  Substitution rounds the two triangles
    differently, so the result is averaged with its transpose, gathered by
    each entry's transpose partner.  Padding meets only padding.
    """
    x = np.zeros(pack.cols.shape)
    x[pack.live] = a[pack.cols[pack.live], pack.live_slot[pack.live, None]]
    for anc, v in _runs(ancestors, vs):
        if v.shape[2] == 1:
            x[anc[:, 0]] *= 1.0 - np.einsum("ksl,ksl->k", v, v)[:, None]
            continue
        at = x[anc]  # (k, l, w)
        at -= _product(v.swapaxes(1, 2), _product(v, at))
        x[anc] = at
    x *= scale[:, None]  # the rows of nodes without noise are zero
    _substitute(arcs, x)
    partner = pack.cols * x.shape[1]
    partner += pack.slot[:, None]  # (i, s) and (cols[i, s], slot[i])
    x += x.ravel()[partner]
    x *= 0.5
    return x


def _unpack(x: np.ndarray, pack: Packing) -> np.ndarray:
    """The n x n matrix with x[i, s] at (i, ``pack.cols[i, s]``), zero between components.

    Padding lands on the diagonal, which is written again last.
    """
    n, at = len(x), np.arange(len(x))
    out = np.zeros((n, n))
    out.ravel()[pack.cols + n * at[:, None]] = x
    out[at, at] = x[at, pack.slot]
    return out


def _unpacked_correlations(cov: np.ndarray, pack: Packing) -> np.ndarray:
    """The n x n :func:`correlation_matrix` of the packed covariance ``cov``, read in place."""
    at = np.arange(len(cov))
    return _unpack(_correlate(cov, at[:, None], pack.cols, (at, pack.slot)), pack)


def _state_factor(st: GaussianState) -> tuple[Levels, Arcs, np.ndarray, Packing, np.ndarray]:
    """``(levels, arcs, scale, packing, A)`` of ``st``'s arcs (its nonzero coefficients)."""
    levels = _depth_levels([np.flatnonzero(col) for col in st.coeffs.T])
    arcs = _level_arcs(levels, st.coeffs)
    scale = np.sqrt(st.cond_var)
    pack = _packing(levels, scale > 0.0)
    return levels, arcs, scale, pack, _forward_factor(arcs, scale, pack)


def propagate_covariance(st: GaussianState) -> GaussianState:
    """Fill the covariance (I - B)^-T diag(v) (I - B)^-1 by forward substitution.

    The covariance is A A' with A from :func:`_forward_factor`; both A and
    A A' are :func:`_substitute` passes over the depth levels of B's nonzero
    arcs, packed by component, and the result is symmetric and positive
    semidefinite.  The returned state shares ``st``'s other arrays, which
    were validated when ``st`` was built.
    """
    _, arcs, scale, pack, a = _state_factor(st)
    out = copy.copy(st)
    _set(out, "cov", _unpack(_covariance(arcs, scale, pack, a, (), ()), pack))
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


def _split_indices(n: int, obs: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    try:
        ev = np.array(sorted(map(operator.index, obs)), dtype=int)
    except TypeError:
        raise ValueError(f"evidence indices must be integers, got {list(obs)}") from None
    if len(ev) and (ev[0] < 0 or ev[-1] >= n):
        raise ValueError(f"evidence index out of range: {ev.tolist()}")
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
    pack: Packing,
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
    :func:`_evidence_components` returns them, each group within one
    component of ``pack``.  Row ``par[e]`` of A is zero outside L_g, so a
    group needs only G_g = A[par_g][:, L_g] (s x l): its block
    G_g G_g' + diag(noise_g) is factored once as Q diag(lambda) Q'
    (:func:`_eigh_blocks`), V_g = diag(lambda)^-1/2 Q' G_g and
    z_g = diag(lambda)^-1/2 Q' resid_g.

    Returns ``(A u, vs)``: the posterior mean is ``mean + A u``, with
    u[L_g] = V_g' z_g kept by (component, column), and the covariance
    A (I - V'V) A', with ``vs`` the (k, s, l) stacks of V_g per class.
    """
    if not components:
        return np.zeros(len(a)), []
    u = np.zeros((len(pack.members), a.shape[1]))
    groups, blocks = [], []  # (entries, live ancestors, their columns of A, G) per class
    for idx, anc in zip(components, ancestors):
        s, cols = idx.shape[1], pack.live_slot[anc]
        g = a[par[idx][:, :, None], cols[:, None, :]]  # (k, s, l)
        block = g @ g.swapaxes(1, 2)
        block[:, np.arange(s), np.arange(s)] += noise[idx]
        groups.append((idx, anc, cols, g))
        blocks.append(block)
    vs = []
    for (idx, anc, cols, g), (val, vecs) in zip(groups, _eigh_blocks(blocks)):
        scaled = (vecs / np.sqrt(val)[:, None, :]).swapaxes(1, 2)  # diag(lambda)^-1/2 Q'
        v = scaled @ g
        u[pack.comp[anc], cols] = (v.swapaxes(1, 2) @ (scaled @ resid[idx][..., None]))[..., 0]
        vs.append(v)
    return np.einsum("it,it->i", a, u[pack.comp]), vs


def condition(
    st: GaussianState, obs: Mapping[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and covariance of the unobserved nodes given ``obs``.

    ``obs`` maps node positions (in ``st.order``) to observed values, taken
    as exact.  The observations are entries of :func:`_factor_update`, with
    no added noise, grouped by :func:`_evidence_components`, on the factor
    A of ``st.coeffs`` and ``st.cond_var`` (A A' is the prior covariance),
    and the posterior covariance is :func:`_covariance`; rows and columns
    of observed nodes do not appear in the result.  ``st.cov`` is not read:
    ``st`` need not have been through :func:`propagate_covariance`.
    """
    ev, keep, d = _split_indices(len(st.order), obs)
    levels, arcs, scale, pack, a = _state_factor(st)
    components, ancestors = _evidence_components(levels, scale > 0.0, ev)
    shift, vs = _factor_update(a, pack, components, ancestors, ev, np.zeros(len(ev)), d - st.mean[ev])
    cov = _unpack(_covariance(arcs, scale, pack, a, ancestors, vs), pack)
    return (st.mean + shift)[keep], cov[np.ix_(keep, keep)]


def condition_sequential(
    st: GaussianState, obs: Mapping[int, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Same contract as :func:`condition`, by rank-one updates per observation.

    The independent reference that tests check :func:`condition` against;
    it reads ``st.cov``, which :func:`propagate_covariance` fills.  Each
    step divides by the marginal variance of the observation it absorbs,
    and raises :class:`ConditioningError` where that is not positive.
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


def _correlate(
    cov: np.ndarray, rows: np.ndarray, cols: np.ndarray, diagonal: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Correlations read entry by entry from covariances, overwriting ``cov``.

    Entry e of ``cov`` is the covariance of variables ``rows[e]`` and
    ``cols[e]`` (``rows`` broadcasts to ``cols``' shape), variable i's
    variance its entry ``cov[diagonal][i]``.  Where either variance is not
    positive the correlation is 0, the diagonal included; elsewhere it is
    the ratio clamped to [-1, 1], and 1 on the diagonal.  A variance outside
    [2^-500, 2^500] is first scaled into [0.5, 2) by 4^-k, its covariances
    by 2^-k, so no product of two leaves the normal range; this is exact.
    """
    var = cov[diagonal]
    live = var > 0.0
    scale = np.where(live, var, 1.0)  # no zero or negative divisor
    k = np.where((scale < 2.0**-500) | (scale > 2.0**500), np.frexp(scale)[1] // 2, 0)
    if k.any():
        scale = np.ldexp(scale, -2 * k)
        np.ldexp(cov, -(k[rows] + k[cols]), out=cov)
    root = scale[cols]
    root *= scale[rows]
    np.sqrt(root, out=root)
    np.divide(cov, root, out=cov)
    np.clip(cov, -1.0, 1.0, out=cov)
    if not live.all():
        cov[~live[rows] | ~live[cols]] = 0.0
    cov[diagonal] = live
    return cov


def correlation_matrix(cov: np.ndarray) -> np.ndarray:
    """Correlations read from a covariance matrix by :func:`_correlate`'s rule."""
    at = np.arange(len(cov))
    return _correlate(np.array(cov, dtype=float), at[:, None], np.broadcast_to(at, cov.shape), (at, at))


def correlation(post_cov: np.ndarray, i: int, j: int) -> float:
    """Entry (i, j) of :func:`correlation_matrix` of ``post_cov``."""
    pair = [i, j]
    return float(correlation_matrix(post_cov[np.ix_(pair, pair)])[0, 1])
