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
ancestor, hence no nonzero column of A or covariance, so a row of either
holds only its own component's columns (:class:`Packing`): A holds sum s l
entries and the covariance sum s^2, over the components' s members and l
live ones.  The rows of one length are stored as one block, which the
kernels read as a 2-D array.  The structure these layouts rest on, the
depth levels, the components and the evidence groups, is analysed once per
solve in array passes, apart from the numeric work that is redone each
iteration, as sparse direct solvers split their symbolic analysis from the
numeric factorization (George & Liu, Computer Solution of Large Sparse
Positive Definite Systems, 1981).

Evidence is absorbed in the factor space of A (Lauritzen & Jensen, "Stable
local computation with conditional Gaussian distributions", Statistics and
Computing 11, 2001).  A column of A belongs to a node with v > 0, a *live*
node.  The evidence entries fall into groups that share no live ancestor,
and an observed node's row of A is zero outside its live ancestors, so
each group works on its own columns L_g of A: its block G_g G_g' + noise,
with G_g = A[observed][:, L_g], is factored once by a symmetric
eigendecomposition, which also gives the condition-number guard, and the
update is a small factor V_g over those columns (for one column, the
share 1 - V_g'V_g of its variance kept, in closed form).  The posterior
covariance is A (I - V'V) A': the variances are row sums of squares, and the
covariance itself, from which the correlations are read, is formed in its
own layout by one more substitution pass, and only the n x n result is
unpacked.
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
# Blocks of rows of one length and the arcs into them: see Rows.
Blocks = tuple[tuple[slice, int, int, np.ndarray, tuple[tuple[int, np.ndarray, np.ndarray, np.ndarray], ...]], ...]

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


def _ranges(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``range(lo[i], hi[i])`` for each i in turn, as one array."""
    size = hi - lo
    ends = np.add.accumulate(size)
    out = np.arange(ends[-1] if len(ends) else 0)
    out += (lo - ends + size).repeat(size)
    return out


def _offsets(index: np.ndarray, n: int) -> np.ndarray:
    """Where each of n groups starts in ``index`` sorted, and where the last ends: (n + 1,)."""
    out = np.zeros(n + 1, dtype=np.intp)
    np.add.accumulate(np.bincount(index, minlength=n), out=out[1:])
    return out


def _depth_levels(child: np.ndarray, parent: np.ndarray, n: int) -> Levels:
    """The nodes that have parents, grouped by their depth in the arcs.

    Arc e runs from ``parent[e]`` to ``child[e]``, the arcs sorted by child
    and each child's in its own order; an arc that repeats counts once, in
    its first place.  A node's depth is one more than its deepest parent's
    (0 without parents), so the parents of a level's nodes all sit in
    earlier levels.  The depths are relaxed over all arcs at once until
    none changes: depth + 1 passes, each over every arc, so O(depth x arcs)
    work, where :func:`_substitute`'s passes read each level's own arcs.
    On the benchmark's diagrams, one or two levels deep, this takes 15 to
    40 us against 90 to 140 for Kahn's level-by-level order (O(arcs) in
    all, but with a sort of the arcs by parent and more calls per level).
    A deep diagram pays for it: a chain of 1,500 nodes takes 15 ms, and
    one whose nodes have up to six parents 46 ms, against 4 and 5 ms for
    a walk of the nodes in Python, while a solve of a 750-level chain
    takes about 4 s (one CPU of a 2-vCPU x86-64 machine).  Each level is a
    pair ``(nodes, par)`` of its k nodes, increasing, and their parents, a
    (k, p) array whose rows are padded with their own node: its
    coefficient B_jj is zero.
    """
    if not len(child):
        return ()
    key = child * n + parent
    order = key.argsort(kind="stable")
    again = key[order[1:]] == key[order[:-1]]
    if np.count_nonzero(again):
        keep = np.ones(len(key), dtype=bool)
        keep[order[1:][again]] = False
        child, parent = child[keep], parent[keep]
    depth = np.zeros(n, dtype=np.intp)
    while True:
        deeper = depth.copy()
        np.maximum.at(deeper, child, depth[parent] + 1)
        if not np.count_nonzero(deeper != depth):
            break
        depth = deeper
    by_depth = depth.argsort(kind="stable")
    bounds = depth[by_depth].searchsorted(np.arange(1, depth[by_depth[-1]] + 2)).tolist()
    nodes = by_depth[bounds[0] :]
    at = _offsets(child, n)  # node j's parents: parent[at[j]:at[j + 1]]
    lo, hi = at[nodes], at[nodes + 1]
    count = hi - lo
    par = nodes[:, None].repeat(np.maximum.reduce(count), axis=1)
    arcs = _ranges(lo, hi)
    par[np.arange(len(nodes)).repeat(count), arcs - lo.repeat(count)] = parent[arcs]
    bounds = [b - bounds[0] for b in bounds]
    return tuple(
        (nodes[lo:hi], par[lo:hi, : np.maximum.reduce(count[lo:hi])].copy())
        for lo, hi in zip(bounds, bounds[1:])
    )


def _components(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The connected component of each of n vertices under edges (u[e], v[e]), by first vertex.

    Each round hooks every root onto the least root an edge reaches from its
    tree, then points every vertex straight at its root (Shiloach & Vishkin,
    J. Algorithms 3, 1982).  A vertex never points above itself, so a
    component's root is its least vertex.
    """
    root = np.arange(n)
    a, b = u, v
    while np.count_nonzero(a != b):
        low = np.minimum(a, b)
        np.minimum.at(root, a, low)
        np.minimum.at(root, b, low)
        up = root[root]
        while np.count_nonzero(up != root):
            root, up = up, up[up]
        a, b = root[u], root[v]
    return np.add.accumulate(root == np.arange(n))[root] - 1


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
    not touched.  Each entry sums its terms from 0 in the order of ``par``,
    the padding's 0 * X0[j] included, as :func:`_product` does, so its bits
    do not depend on how many columns there are.
    """
    if x.ndim == 1:
        for nodes, par, c in arcs:
            acc = np.zeros(len(nodes))
            for s in range(par.shape[1]):
                acc += c[:, s] * x[par[:, s]]
            x[nodes] += acc
        return x
    for nodes, par, c in arcs:
        x[nodes] += _product(c[:, None, :], x[par])[:, 0]
    return x


def _substitute_blocks(arcs: Arcs, x: np.ndarray, blocks: Blocks) -> np.ndarray:
    """:func:`_substitute` on the flat ``x`` laid out by ``blocks`` (:class:`Rows`), in place.

    Each block of rows of one length is a 2-D array, and each level's rows
    in it a batch of their own, so an entry sums the same terms in the same
    order as in any other layout.
    """
    for at, count, width, _, steps in blocks:
        if steps:
            rows = x[at].reshape(count, width)
            _substitute(tuple((nodes, par, arcs[lv][2][at]) for lv, at, nodes, par in steps), rows)
    return x


def _product(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``m @ x`` for stacks m (k, r, t) and x (k, t, w), each entry summed from 0 over t in order.

    So a column's bits do not depend on w, as a BLAS product's do.  numpy's
    einsum adds so when its innermost loop runs over two or more columns.
    """
    if x.shape[2] == 1:
        return np.einsum("krt,ktw->krw", m, np.concatenate([x, x], axis=2))[:, :, :1]
    return np.einsum("krt,ktw->krw", m, x)


class Rows(NamedTuple):
    """A flat array of one row per node, each row as long as it needs.

    Row i holds ``length[i]`` entries from ``start[i]``; entry e is row
    ``rows[e]``'s column for node ``cols[e]``.  The rows are stored so that
    runs of rows of one length are blocks (:func:`_layouts`), which the
    kernels read as 2-D arrays: ``blocks`` holds, for each block of
    nonempty rows, ``(at, count, width, nodes, steps)``: its slice of the
    flat array, its shape, its rows' nodes, and for each level with rows in
    the block a step ``(level, at, nodes, par)``: the level's rows ``at`` and
    their nodes and parents as rows of the block.
    """

    start: np.ndarray
    length: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    blocks: Blocks


def _layouts(
    levels: Levels, comp: np.ndarray, first: np.ndarray, members: np.ndarray,
    live_first: np.ndarray, live_members: np.ndarray,
) -> tuple[Rows, Rows]:
    """The :class:`Rows` of the covariance and of A: row i holds component ``comp[i]``'s
    members, ``members[first[c]:first[c + 1]]`` for c = comp[i], or its live ones.

    Both store the rows by component size, then live size, then component,
    then node, so they share their blocks, each a run of rows as long in
    both, and each block's steps."""
    n = len(comp)
    if len(first) == 2:  # one component: one block, its rows the nodes in order
        at = np.arange(n)
        steps = tuple((lv, slice(None), nodes, par) for lv, (nodes, par) in enumerate(levels))

        def block(nodes: np.ndarray) -> Rows:
            w = len(nodes)
            blocks = ((slice(0, n * w), n, w, at, steps),) if w else ()
            return Rows(at * w, np.full(n, w), at.repeat(w), nodes[None].repeat(n, axis=0).ravel(), blocks)

        return block(members), block(live_members)
    size, live_size = first[1:] - first[:-1], live_first[1:] - live_first[:-1]
    by_size = np.lexsort((live_size, size))  # the components by size, then live size, then number
    order = members[_ranges(first[by_size], first[by_size + 1])]
    size, live_size = size[comp], live_size[comp]
    cut = (size[order][1:] != size[order][:-1]) | (live_size[order][1:] != live_size[order][:-1])
    cut = (cut.nonzero()[0] + 1).tolist()
    spans = list(zip([0, *cut], [*cut, n])) if n else []  # each block's span of ``order``
    which = np.zeros(n, dtype=np.intp)
    which[cut] = 1
    which = np.add.accumulate(which)  # the block of each row in ``order``
    block, local = np.empty((2, n), dtype=np.intp)
    block[order] = which
    local[order] = np.arange(n) - np.array([lo for lo, _ in spans], dtype=np.intp)[which]
    steps: list[list] = [[] for _ in spans]
    for lv, (level, par) in enumerate(levels):
        at = block[level].argsort(kind="stable")
        which = block[level][at]
        bounds = [0, *((which[1:] != which[:-1]).nonzero()[0] + 1).tolist(), len(at)]
        for lo, hi in zip(bounds, bounds[1:]):
            part = at[lo:hi]
            steps[which[lo]].append((lv, part, local[level[part]], local[par[part]]))

    def rows(length: np.ndarray, firsts: np.ndarray, nodes: np.ndarray) -> Rows:
        width = length[order]
        ends = np.add.accumulate(width)
        start = np.empty(n, dtype=np.intp)
        start[order] = ends - width
        cols = (firsts[comp[order]] - ends + width).repeat(width)
        cols += np.arange(len(cols))
        w, end = width.tolist(), ends.tolist()
        blocks = tuple(
            (slice(end[lo] - w[lo], end[hi - 1]), hi - lo, w[lo], order[lo:hi], tuple(steps[b]))
            for b, (lo, hi) in enumerate(spans)
            if w[lo]
        )
        return Rows(start, length, order.repeat(width), nodes[cols], blocks)

    return rows(size, first, members), rows(live_size, live_first, live_members)


class Packing(NamedTuple):
    """Where A and the covariance keep their entries: each row only its own component's.

    Node i is member ``slot[i]`` of its component ``comp[i]``, which holds all
    it covaries with; component c's members are ``members[first[c]:first[c +
    1]]``, in the node order.  Row i of the covariance (``cov``, :class:`Rows`)
    holds one entry per member of i's component, in that order, and row i of
    A (``a``) one per live member, live node j being live member
    ``live_slot[j]``.  So the covariance holds sum s^2 entries and A sum s l,
    over the components' s members and l live ones; ``width`` and
    ``live_width`` are the most s and l of a component.  Row i of A is zero
    outside i's live ancestors, itself included; ``crowded`` lists the rows
    narrower than ``live_width`` with more than two of them (:func:`_times`).
    """

    comp: np.ndarray
    slot: np.ndarray
    members: np.ndarray
    first: np.ndarray
    live: np.ndarray  # the live nodes, increasing
    live_slot: np.ndarray
    cov: Rows
    a: Rows
    width: int
    live_width: int
    crowded: np.ndarray


def _packing(levels: Levels, live: np.ndarray) -> Packing:
    """The :class:`Packing` of the nodes whose arcs ``levels`` gives, with v_j > 0 where ``live``.

    The components are those of the arcs, rows and padding alike
    (:func:`_components`), numbered by first node.
    """
    n = len(live)
    none = np.zeros(0, dtype=np.intp)
    child = np.concatenate([nodes.repeat(par.shape[1]) for nodes, par in levels] + [none])
    parent = np.concatenate([par.ravel() for _, par in levels] + [none])
    comp = _components(child, parent, n)
    members = comp.argsort(kind="stable")
    first = _offsets(comp, np.maximum.reduce(comp, initial=-1) + 1)
    size = first[1:] - first[:-1]
    slot, live_slot = np.empty((2, n), dtype=np.intp)
    head = first[comp[members]]  # the first member of each member's component
    slot[members] = np.arange(n) - head
    alive = live[members]
    before = np.add.accumulate(alive, dtype=np.intp) - alive  # live members before, in all
    live_slot[members] = before - before[head]
    live_first = np.zeros(len(first), dtype=np.intp)
    live_first[1:] = before[first[1:] - 1] + alive[first[1:] - 1]
    live_size = live_first[1:] - live_first[:-1]
    live_width = int(np.maximum.reduce(live_size, initial=0))
    crowded = none
    if live_width > 2:
        reach = live.astype(np.intp)  # each node's live ancestors, itself included, counted up to 3
        for nodes, par in levels:
            more = np.add.reduce(np.where(par == nodes[:, None], 0, reach[par]), axis=1)  # no padding
            reach[nodes] = np.minimum(reach[nodes] + more, 3)
        crowded = ((reach > 2) & (live_size[comp] < live_width)).nonzero()[0]
    return Packing(
        comp, slot, members, first, live.nonzero()[0], live_slot,
        *_layouts(levels, comp, first, members, live_first, members[alive]),
        int(np.maximum.reduce(size, initial=0)), live_width, crowded,
    )


def _forward_factor(arcs: Arcs, scale: np.ndarray, pack: Packing) -> np.ndarray:
    """The factor A = (I - B)^-T diag(sqrt v) of the covariance A A', laid out by ``pack.a``.

    ``scale`` is sqrt(v) per node; only the columns of nodes with v_j > 0
    are nonzero, so a row holds the live members of its component.  A
    solves (I - B') A = diag(sqrt v): row j is sqrt(v_j) at j's own column
    plus sum_i B_ij A_i over its parents i, one :func:`_substitute_blocks`
    pass over B's ``arcs`` that touches the sum s l entries.
    """
    a = np.zeros(len(pack.a.rows))
    a[pack.a.start[pack.live] + pack.live_slot[pack.live]] = scale[pack.live]
    return _substitute_blocks(arcs, a, pack.a.blocks)


def _times(a: np.ndarray, u: np.ndarray, pack: Packing) -> np.ndarray:
    """A u for A laid out by ``pack.a`` and u by node, each row summed as the padded einsum sums it.

    The solver's outputs keep the bits of ``np.einsum("it,it->i")`` over rows
    padded with zeros to ``live_width``, whose order of addition depends on
    that width.  A sum of at most two terms that are not zero comes out the
    same in any order, so the rows are summed at their own width, and the
    ``crowded`` ones again, padded.
    """
    out, rows = np.zeros(len(pack.comp)), pack.a
    uc = u[rows.cols]
    for at, count, width, nodes, _ in rows.blocks:
        out[nodes] = np.einsum("it,it->i", a[at].reshape(count, width), uc[at].reshape(count, width))
    crowded = pack.crowded
    if len(crowded):
        at = _ranges(rows.start[crowded], rows.start[crowded] + rows.length[crowded])
        to = at + (np.arange(len(crowded)) * pack.live_width - rows.start[crowded]).repeat(
            rows.length[crowded]
        )
        pad = np.zeros((2, len(crowded) * pack.live_width))
        pad[0, to], pad[1, to] = a[at], uc[at]
        out[crowded] = np.einsum("it,it->i", *pad.reshape(2, len(crowded), pack.live_width))
    return out


# The update factors V of groups of more than one column are read in runs
# of at most this many rows or columns per group stack, so no temporary
# grows to the n x m of all the evidence entries.
_RUN = 64


def _runs(ancestors: Sequence, vs: Sequence) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(live ancestors, V)`` for runs of groups of one shape class.

    ``ancestors`` and ``vs`` hold one (k, l) array and one update stack
    (:func:`_factor_update`) per shape class.  A class of width l = 1 needs no
    temporary, so it is one run, and one of width 0 changes nothing, so it has none.
    """
    for anc, v in zip(ancestors, vs):
        k, l = anc.shape
        if l == 0:
            continue
        step = k if l == 1 else max(1, _RUN // max(v.shape[1], l))
        for first in range(0, k, step):
            yield anc[first : first + step], v[first : first + step]


def _posterior_variance(a: np.ndarray, pack: Packing, ancestors: Sequence, vs: Sequence) -> np.ndarray:
    """The diagonal of A (I - V'V) A': row sums of A^2, less those of (A[:, L_g] V_g')^2.

    A group, its columns and the rows where they are nonzero are in one
    component.  A one-column group puts the share of its column it keeps
    into a table of ones by live node that each entry's square is weighted
    by, and a row's weighted squares are summed in order from 0; a wider
    group gathers the rows of its component, as many as the widest
    component's (the padding rows are zero), whose sums are subtracted.
    """
    n = len(pack.comp)
    kept, wide = np.ones(n), []
    for anc, v in _runs(ancestors, vs):
        if v.ndim == 1:
            kept[anc[:, 0]] = v
            continue
        comp = pack.comp[anc[:, 0]]
        at = pack.first[comp, None] + np.arange(pack.width)  # (k, w)
        keep = at < pack.first[comp + 1, None]
        rows = pack.members[np.where(keep, at, pack.first[comp, None])]  # padded with the first member
        g = a[pack.a.start[rows][:, :, None] + pack.live_slot[anc][:, None, :]]  # (k, w, l)
        g[~keep] = 0.0
        x = g @ v.swapaxes(1, 2)  # (k, w, s)
        wide.append(np.bincount(rows[keep], np.einsum("kws,kws->kw", x, x)[keep], minlength=n))
    out, share = np.zeros(n), kept[pack.a.cols]
    for at, count, width, nodes, _ in pack.a.blocks:
        block = a[at].reshape(count, width)
        out[nodes] = np.einsum("it,it,it->i", block, block, share[at].reshape(count, width))
    return out - sum(wide, np.zeros(n))


def _covariance(
    arcs: Arcs, scale: np.ndarray, pack: Packing, a: np.ndarray, ancestors: Sequence, vs: Sequence
) -> np.ndarray:
    """The covariance A (I - V'V) A', laid out by ``pack.cov``, exactly symmetric.

    ``vs`` are :func:`_factor_update`'s updates on the groups' live
    ``ancestors`` (none for A A').  Y = A' - V'(V A'[L]) is A' with each
    group's rows L_g updated by its own V_g (a one-column group's row scaled
    by the share 1 - V_g'V_g it keeps), laid out like the covariance, and A Y
    is one :func:`_substitute_blocks` pass over its sum s^2 entries.  Substitution
    rounds the two triangles differently, so the result is averaged with its
    transpose, gathered by each entry's transpose partner.
    """
    rows, cols, start = pack.cov.rows, pack.cov.cols, pack.cov.start
    x = np.zeros(len(rows))
    at = _ranges(start[pack.live], start[pack.live] + pack.cov.length[pack.live])  # live nodes' rows
    x[at] = a[pack.a.start[cols[at]] + pack.live_slot[rows[at]]]
    for anc, v in _runs(ancestors, vs):
        lo = start[anc]
        hi = lo + pack.cov.length[anc]  # (k, l): each group's rows are as long
        if v.ndim == 1:
            x[_ranges(lo[:, 0], hi[:, 0])] *= np.repeat(v, hi[:, 0] - lo[:, 0])
            continue
        size = hi[:, 0] - lo[:, 0]
        keep = np.broadcast_to(np.arange(size.max()) < size[:, None, None], anc.shape + (size.max(),))
        at = np.where(keep, lo[:, :, None] + np.arange(size.max()), lo[:, :, None])  # (k, l, w)
        y = x[at]
        y -= _product(v.swapaxes(1, 2), _product(v, y))
        x[at[keep]] = y[keep]
    x *= scale[rows]  # the rows of nodes without noise are zero
    _substitute_blocks(arcs, x, pack.cov.blocks)
    x += x[start[cols] + pack.slot[rows]]  # each entry's transpose partner
    x *= 0.5
    return x


def _unpack(x: np.ndarray, pack: Packing) -> np.ndarray:
    """The n x n matrix of the covariance ``x`` laid out by ``pack.cov``, zero between components."""
    n = len(pack.comp)
    out = np.zeros((n, n))
    out.ravel()[pack.cov.rows * n + pack.cov.cols] = x
    return out


def _unpacked_correlations(cov: np.ndarray, pack: Packing) -> np.ndarray:
    """The n x n :func:`correlation_matrix` of the flat covariance ``cov``, read in place."""
    rows, cols = pack.cov.rows, pack.cov.cols
    return _unpack(_correlate(cov, rows, cols, pack.cov.start + pack.slot), pack)


def _state_factor(st: GaussianState) -> tuple[Levels, Arcs, np.ndarray, Packing, np.ndarray]:
    """``(levels, arcs, scale, packing, A)`` of ``st``'s arcs (its nonzero coefficients)."""
    child, parent = np.nonzero(st.coeffs.T)
    levels = _depth_levels(child, parent, len(st.order))
    arcs = _level_arcs(levels, st.coeffs)
    scale = np.sqrt(st.cond_var)
    pack = _packing(levels, scale > 0.0)
    return levels, arcs, scale, pack, _forward_factor(arcs, scale, pack)


def propagate_covariance(st: GaussianState) -> GaussianState:
    """Fill the covariance (I - B)^-T diag(v) (I - B)^-1 by forward substitution.

    The covariance is A A' with A from :func:`_forward_factor`; both A and
    A A' are :func:`_substitute` passes over the depth levels of B's nonzero
    arcs, each row holding only its component's entries, and the result is
    symmetric and positive semidefinite.  The returned state shares ``st``'s
    other arrays, which were validated when ``st`` was built.
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
    nodes and their ancestors get their sets of live ancestors, one level
    at a time, each the union of its parents' sets and itself if live;
    the groups are then the :func:`_components` of the entries and the
    live ancestors their nodes reach.

    Returns ``(components, ancestors)``, one pair of arrays per shape
    class (s, l), in increasing order: ``components`` (k, s) holds each
    group's s entries in increasing order, and ``ancestors`` (k, l) its l
    live ancestors in the node order, rows by first entry.
    """
    n, m = len(live), len(observed)
    if not m:
        return (), ()
    need = np.zeros(n, dtype=bool)  # the observed nodes and their ancestors
    need[observed] = True
    for nodes, par in reversed(levels):
        need[par[need[nodes]]] = True
    # node j's live ancestors, increasing: reach[at[j]:at[j] + count[j]]
    reach = (need & live).nonzero()[0]
    at, count = np.zeros((2, n), dtype=np.intp)
    at[reach], count[reach], used = np.arange(len(reach)), 1, len(reach)
    for nodes, par in levels:
        pick = need[nodes]
        if not np.count_nonzero(pick):
            continue
        nodes, width, par = nodes[pick], par.shape[1], par[pick].ravel()  # padding reads j's own
        owner = nodes.repeat(width).repeat(count[par])
        held = reach[_ranges(at[par], at[par] + count[par])]
        pairs = _distinct(np.concatenate([owner * n + held, nodes[live[nodes]] * (n + 1)]))
        if used + len(pairs) > len(reach):
            reach = np.concatenate([reach[:used], np.empty(max(used, len(pairs)), dtype=np.intp)])
        reach[used : used + len(pairs)] = pairs % n
        count[nodes] = np.bincount(nodes.searchsorted(pairs // n), minlength=len(nodes))
        at[nodes] = used + np.add.accumulate(count[nodes]) - count[nodes]
        used += len(pairs)

    reaches = count[observed]  # how many live ancestors each entry has
    entry = np.arange(m).repeat(reaches)
    node = reach[_ranges(at[observed], at[observed] + reaches)]
    group = _components(entry, m + node, m + n)[:m]  # numbered by first entry
    pairs = _distinct(group[entry] * n + node)  # each group's live ancestors, in order
    owner, node = pairs // n, pairs % n
    s = np.bincount(group)
    l = np.bincount(owner, minlength=len(s))
    order = np.lexsort((l, s))  # groups by shape class, then first entry
    rank = np.empty(len(s), dtype=np.intp)
    rank[order] = np.arange(len(s))
    entries = rank[group].argsort(kind="stable")
    node = node[rank[owner].argsort(kind="stable")]
    s, l = s[order], l[order]
    cut = ((s[1:] != s[:-1]) | (l[1:] != l[:-1])).nonzero()[0] + 1
    components, ancestors, e, c = [], [], 0, 0
    for lo, hi in zip([0, *cut.tolist()], [*cut.tolist(), len(order)]):
        k, width, live_width = hi - lo, int(s[lo]), int(l[lo])
        components.append(entries[e : e + k * width].reshape(k, width))
        ancestors.append(node[c : c + k * live_width].reshape(k, live_width))
        e, c = e + k * width, c + k * live_width
    return tuple(components), tuple(ancestors)


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of ``x``, increasing."""
    x = np.sort(x)
    return np.concatenate([x[:1], x[1:][x[1:] != x[:-1]]])


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
    batched ``eigh`` call, but for s = 1.  The blocks' eigenvalues together
    are those of the block-diagonal covariance of the evidence, so they give
    its 2-norm condition number (:func:`_condition_number`).  The guard rejects a
    block with a non-finite entry, a number that is not finite or reaches
    1e12, and a non-positive eigenvalue.
    """
    if not all(np.isfinite(b).all() for b in blocks):
        raise ConditioningError("evidence covariance block has a non-finite entry", np.nan)
    # A 1 x 1 block is its own eigenvalue, with eigenvector 1, as LAPACK's dsyevd
    # returns them.  Read so, the 1 x 1 blocks of a warm solve take 12 us in all
    # on scale_1500 (3,000 blocks) and 13 on mixed_expr (480), against 127 and 51
    # through eigh, and 16 against 45 us on the two golden models (medians of
    # 400 alternating rounds, one CPU of a 2-vCPU x86-64 machine).
    pairs = [np.linalg.eigh(b) if b.shape[1] > 1 else (b[:, :, 0], np.ones(b.shape)) for b in blocks]
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
    z_g = diag(lambda)^-1/2 Q' resid_g.  A group of one live ancestor
    (l = 1) takes V_g' z_g and 1 - V_g'V_g from :func:`_one_column_update`
    instead; its block is still factored, for the guard.

    Returns ``(A u, vs)``: the posterior mean is ``mean + A u``, with
    u[L_g] = V_g' z_g kept by live node (:func:`_times`), and the covariance
    A (I - V'V) A', with ``vs`` per class the (k, s, l) stack of V_g or,
    where l = 1, the (k,) shares 1 - V_g'V_g.
    """
    n = len(pack.comp)
    if not components:
        return np.zeros(n), []
    u = np.zeros(n)
    groups, blocks = [], []  # (entries, live ancestors, G) per class
    for idx, anc in zip(components, ancestors):
        s = idx.shape[1]
        g = a[pack.a.start[par[idx]][:, :, None] + pack.live_slot[anc][:, None, :]]  # (k, s, l)
        block = g @ g.swapaxes(1, 2)
        block[:, np.arange(s), np.arange(s)] += noise[idx]
        groups.append((idx, anc, g))
        blocks.append(block)
    vs = []
    for (idx, anc, g), (val, vecs) in zip(groups, _eigh_blocks(blocks)):
        if g.shape[2] == 1:
            u[anc[:, 0]], keep = _one_column_update(g[:, :, 0], noise[idx], resid[idx])
            vs.append(keep)
            continue
        scaled = (vecs / np.sqrt(val)[:, None, :]).swapaxes(1, 2)  # diag(lambda)^-1/2 Q'
        v = scaled @ g
        u[anc] = (v.swapaxes(1, 2) @ (scaled @ resid[idx][..., None]))[..., 0]
        vs.append(v)
    return _times(a, u, pack), vs


def _one_column_update(
    g: np.ndarray, noise: np.ndarray, resid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """V'z and 1 - V'V of groups of one live ancestor, rows of ``g`` (k, s), with no difference.

    With precisions relative to a group's least noise n_min, as in
    :func:`~gaussid.evidence.pool` (w_e = n_min / n_e, and 1 where n_e = n_min,
    so an exact entry counts in full), 1 - V'V = n_min / (n_min + sum g_e^2 w_e)
    and V'z = sum g_e r_e w_e / (n_min + sum g_e^2 w_e).
    """
    least = noise.min(axis=1, keepdims=True)
    w = np.divide(least, noise, out=np.ones(noise.shape), where=noise > least)
    gw = g * w
    total = least[:, 0] + np.einsum("ks,ks->k", gw, g)
    return np.einsum("ks,ks->k", gw, resid) / total, least[:, 0] / total


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
