"""The iterative linear-approximation solver.

A solve starts at the prior point, which :func:`initialize` builds in array
passes where there are enough members: a family of at least ``_BATCH_MIN``
Beta priors, as many binomial observations (a reference that is the
parent's Beta prior read from the prior map), and each expression-shape
tape (below) level by level.  What a pass cannot finish is redone one by
one, so the values and errors are the scalar ones.  The walk that gives a
deterministic node's value there gives its slopes too, so the prior point
is also the first linearization: unless a slope is undefined there, the
first iteration walks no expression.

Each iteration rebuilds a Gaussian model of the transformed variables
around the previous posterior point, conditions it on the evidence, and
maps the conditioned moments back to the natural scale:

1.  *Linearize* every deterministic node about the previous posterior
    means y*: a walk of its expression gives its transformed value
    T_j(f_j(y*)) and its slopes by the chain rule through the transforms,
    written straight into B's arcs by depth level.  The nodes are grouped by
    expression shape (:attr:`~gaussid.model.Expr.shape`): the operators with
    slots for the constants and variables, where ``u + v`` and ``u - v`` are
    one signed add with its sign in a slot and a negated literal is a
    literal.  The nodes of a shape with at least ``_BATCH_MIN`` of them share
    one tape, walked once for all of them over numpy columns with the same
    bits as their own walks, and a member whose walk would fail is walked
    again on its own.
    The levels and the tapes are built once per solve.  A node's row and
    value depend only on its parents' y*, so a node whose parents' y* kept
    every bit since the latest linearization (the prior point's, for the
    first iteration) keeps them, and only the other members of a tape go
    through its pass.
2.  *Update means* to first order: the shifts from the previous posterior
    point solve (I - B') s = x0, one forward substitution over the arcs, one
    batch per level.  Build the factor A of the parameters' covariance A A'
    by the same kernel, packed by connected component of the arcs: a row's
    columns are the live parameters (with prior noise) of its component, so
    A is n x (the most in one component).  *Condition* on all evidence
    entries, each a noisy observation of one parameter, in the factor space
    of A.  The entries fall into groups that share no live ancestor, found
    once per solve with each group's live ancestors L_g, so each group works
    on its own few columns: its block G_g G_g' plus its noise is factored
    once, and the update is a small factor V_g on them.  No step forms the
    covariance of the evidence with the parameters.  An iteration needs
    only the posterior means (A times one vector) and variances (row sums
    of squares); the posterior covariance A (I - V'V) A' is built once,
    packed, and only the reported iterate's correlations are n x n.
3.  *Invert the moment maps* to get natural-scale posterior moments per
    parameter, one prior family at a time: a family with at least
    ``_BATCH_MIN`` members (a size fixed for the solve) is mapped as arrays,
    the Beta inversions as one lockstep Newton iteration, and a smaller one
    parameter by parameter, with the same bits either way, into arrays
    (:class:`MomentPair` values are built once, for the reported iterate).
    A parameter whose transformed posterior mean and variance kept every bit
    since the previous iteration keeps its natural-scale moments; the array
    maps give an entry the same bits whatever else is in the batch, so only
    the others are mapped.  Then measure the relative change of the
    transformed posterior means.

What a step keeps for the next lives in the :class:`SolverState` of one
solve; the first iteration maps every parameter's moments, and walks only
what :func:`initialize` could not linearize.

The loop stops when the largest relative change drops below the
tolerance, when it has grown strictly for ``divergence_window``
consecutive comparisons (divergence), or at the iteration cap.  On
divergence the result reports the best iterate seen (smallest change
measure) so the user still gets the most self-consistent answer
available, clearly labelled with the diverged status.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .evidence import BINOMIAL, LikelihoodApprox, _binomial_array, _reference
from .evidence import pool as pool_likelihoods, to_likelihood
from .gaussian import (
    Arcs,
    ConditioningError,
    Levels,
    Packing,
    _covariance,
    _depth_levels,
    _evidence_components,
    _factor_update,
    _forward_factor,
    _packing,
    _substitute,
    _unpacked_correlations,
    _update_variance,
)
from .gaussian import (  # noqa: F401  wrapped by bench/tracer.py
    condition,
    correlation,
    propagate_covariance,
)
from .model import (
    BASIC,
    EVIDENCE,
    Diagram,
    Node,
    _slopes_columns,
    ensure_valid,
    point_value,
    slopes,
    topological_order,
)
from .model import (  # noqa: F401  names bench/tracer.py wraps
    eval_expr,
    value_and_gradient as diff_expr,
)
from .specfun import ConvergenceError, _beta_to_moments_lockstep, _Record, _set
from .transforms import (
    BETA,
    FAMILY_TRANSFORMS,
    MomentPair,
    _inverse_moments_array,
    _TransformArrays,
    derivative,  # noqa: F401  wrapped by bench/tracer.py
    forward_moments,
    forward_point,
    inverse_moments,
)

__all__ = [
    "CONVERGED",
    "DIVERGED",
    "MAX_ITERATIONS",
    "SolverConfig",
    "IterationRecord",
    "SolverResult",
    "SolverError",
    "InitializationError",
    "IterationError",
    "SolverState",
    "initialize",
    "linearize",
    "update_means",
    "step",
    "solve",
]

CONVERGED = "converged"
DIVERGED = "diverged"
MAX_ITERATIONS = "max_iterations"

# Transform kind -> family whose moment identities invert that scale.
_KIND_FAMILY = {kind: family for family, kind in FAMILY_TRANSFORMS.items()}

# A family with at least this many parameters maps its moments as arrays,
# and an expression shape with at least this many deterministic nodes is
# linearized as one tape; below it, numpy's fixed cost per call outweighs
# the per-node loop.  Measured on whole families and shapes, on one CPU of a
# 2-vCPU x86-64 machine: Beta families break even at about 16 members
# (Normal and lognormal ones at 6 to 10), and the fan-in-6 shapes of the
# mixed_expr benchmark at 6 to 8 nodes over a solve of three or four
# iterations, the tape's building included.  A later iteration applies the
# same size to the members whose inputs moved: a family maps them as arrays
# only when there are at least this many, while a tape runs for any number
# of them.  For such subsets the break-even is unmeasured: one Beta costs
# about 220 us as an array and 37 us on its own, and one timing found 16
# moved Betas slower as an array (551 us) than one by one (371 us).
_BATCH_MIN = 16

# A node's place in B's arcs: (level, row, parameter index, the row of
# parameter indices it reads), as linearize walks it.
Place = tuple[int, int, int, list[int]]


class _Tape(_Record):
    """The deterministic nodes of one expression shape, linearized together.

    Member i is parameter ``nodes[i]``; its expression is ``ops`` (of its
    :attr:`~gaussid.model.Expr.shape`) with constant slot j holding
    ``consts[j, i]`` (a literal or the sign of a signed add) and variable
    slot s reading parameter ``parents[i, s]``.  ``own`` holds the members'
    transforms (k,) and ``ins`` their parents' (k, slots).  ``places`` lists the members'
    places in the arcs, level by level, and ``cells`` has, for each level,
    its number, the slice of the members in it and the flat index of each
    slot's coefficient in that level's (rows, parents) coefficient array.
    """

    __slots__ = ("ops", "nodes", "parents", "consts", "own", "ins", "places", "cells")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, ops: tuple[tuple, ...], nodes: np.ndarray, parents: np.ndarray, consts: np.ndarray,
        own: _TransformArrays, ins: _TransformArrays, places: list[Place],
        cells: tuple[tuple[int, slice, np.ndarray], ...],
    ):
        self._fill(ops, nodes, parents, consts, own, ins, places, cells)


class SolverConfig(_Record):
    """Iteration controls.

    ``epsilon`` is the convergence tolerance on the maximum relative
    change of transformed posterior means; ``divergence_window`` is the
    number of consecutive strict increases of that measure that declares
    divergence; ``pool_evidence`` combines all observations on one
    parameter into a single precision-weighted entry before solving.
    """

    __slots__ = ("epsilon", "divergence_window", "max_iterations", "pool_evidence")

    def __init__(
        self, epsilon: float = 1e-6, divergence_window: int = 3, max_iterations: int = 50,
        pool_evidence: bool = True,
    ):
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if divergence_window < 1:
            raise ValueError(f"divergence_window must be >= 1, got {divergence_window}")
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self._fill(epsilon, divergence_window, max_iterations, pool_evidence)


class IterationRecord(_Record):
    """Snapshot of one iteration.

    ``prior_mean_x`` spans the full node order (parameters then evidence
    entries); ``posterior_mean_x``, ``posterior_var_x`` and ``r`` span the
    parameter nodes only.  ``r`` is the per-parameter relative change of
    the transformed posterior mean against the previous iteration, and
    ``r_max`` its maximum.  The arrays are the record's own: no later step
    writes them.
    """

    __slots__ = ("t", "prior_mean_x", "posterior_mean_x", "posterior_var_x", "r", "r_max")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, t: int, prior_mean_x: np.ndarray, posterior_mean_x: np.ndarray,
        posterior_var_x: np.ndarray, r: np.ndarray, r_max: float,
    ):
        _set(self, "t", t)
        _set(self, "prior_mean_x", prior_mean_x)
        _set(self, "posterior_mean_x", posterior_mean_x)
        _set(self, "posterior_var_x", posterior_var_x)
        _set(self, "r", r)
        _set(self, "r_max", r_max)


class SolverResult(_Record):
    """Outcome of a solve.

    ``posterior_y`` maps parameter ids to natural-scale moments from the
    reported iteration — the final one for ``converged`` and
    ``max_iterations``, the best (smallest r_max) for ``diverged``.
    ``posterior_correlations`` is indexed like ``param_ids``; a parameter
    whose posterior variance is not positive correlates 0 with every
    parameter, itself included.
    """

    __slots__ = (
        "status", "iterations", "posterior_y", "posterior_correlations", "param_ids",
        "reported_iteration",
    )
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, status: str, iterations: list[IterationRecord], posterior_y: dict[str, MomentPair],
        posterior_correlations: np.ndarray, param_ids: tuple[str, ...], reported_iteration: int,
    ):
        self._fill(
            status, iterations, posterior_y, posterior_correlations, param_ids, reported_iteration
        )


class SolverError(RuntimeError):
    """Base class for solve failures; carries the offending node id when known."""

    def __init__(self, message: str, node_id: str | None = None):
        super().__init__(message)
        self.node_id = node_id


class InitializationError(SolverError):
    """The prior point could not be evaluated or transformed."""


class IterationError(SolverError):
    """An iteration failed; ``records`` holds the iterations completed so far."""

    def __init__(self, message: str, node_id: str | None, records: list[IterationRecord]):
        super().__init__(message, node_id)
        self.records = records


class SolverState:
    """Mutable working state of one solve: made by :func:`initialize`, advanced by :func:`step`."""

    def __init__(
        self, diagram: Diagram, param_ids: tuple[str, ...], order: tuple[str, ...],
        ev_parent: np.ndarray, ev_obs: np.ndarray, ev_components: tuple[np.ndarray, ...],
        ev_ancestors: tuple[np.ndarray, ...], packing: Packing, levels: Levels,
        tapes: tuple[_Tape, ...], walked: list[Place],
        batched: tuple[tuple[str, np.ndarray, np.ndarray, np.ndarray], ...],
        one_by_one: list[int], cond_var: np.ndarray, post_x: np.ndarray, post_y: np.ndarray,
        point_x: np.ndarray, t: int = 0, records: list[IterationRecord] | None = None,
        snapshot: tuple[Arcs, np.ndarray, list[np.ndarray], np.ndarray, np.ndarray] | None = None,
        linearized: tuple[np.ndarray, list[np.ndarray]] | None = None,
        inverted: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
        linear_coeffs: dict[str, dict[str, float]] | None = None,
    ):
        self.diagram = diagram
        self.param_ids = param_ids
        self.order = order
        self.ev_parent = ev_parent  # parameter index observed by each evidence entry
        self.ev_obs = ev_obs
        # a-priori correlated entries, (k, s) per shape class (s, l) of groups, and
        # each group's l live ancestors, (k, l), as _evidence_components returns them
        self.ev_components = ev_components
        self.ev_ancestors = ev_ancestors
        self.packing = packing  # where A and the covariance keep their entries, by component
        self.levels = levels  # the parameters with parents, by depth of the arcs
        # one tape per expression shape of at least _BATCH_MIN deterministic
        # nodes; the places of the other deterministic nodes, walked one by one
        self.tapes = tapes
        self.walked = walked
        # (family, parameter indices, transform a's, transform b's) for each family of
        # at least _BATCH_MIN parameters; the members of the smaller ones, in parameter order
        self.batched = batched
        self.one_by_one = one_by_one
        self.cond_var = cond_var  # noise variances over the full order
        self.post_x = post_x  # previous posterior means of parameters (transformed scale)
        self.post_y = post_y  # previous posterior means of parameters (natural scale)
        # transformed values at y = post_y as the latest linearize found them:
        # T_j(f_j(y)) on deterministic nodes, prior means on basic ones
        self.point_x = point_x
        self.t = t
        self.records = [] if records is None else records
        # (B by level, A packed, the update factors V per shape class,
        # natural-scale means, natural-scale variances) of the latest iterate:
        # its parameter covariance is A (I - V'V) A'
        self.snapshot = snapshot
        # What the latest linearization and moment inversion read and wrote, kept
        # for the next one to reuse each entry whose inputs have the same bits:
        # (post_y it linearized at, its coefficients c by level; its values are in
        # point_x), and (post_mean, post_var it inverted, mean_y, var_y).  Private
        # copies.  initialize seeds the first with the prior point's linearization,
        # or leaves it None where a slope is undefined there; the second is None
        # until the first inversion succeeds.
        self.linearized = linearized
        self.inverted = inverted
        # always empty: no node keeps constant coefficients; the benchmark's
        # bench/worker.py::_sizes still reads it under --trace 1
        self.linear_coeffs = {} if linear_coeffs is None else linear_coeffs

    @property
    def n_params(self) -> int:
        return len(self.param_ids)


def recognize_linear(node: Node, d: Diagram) -> None:
    """Nothing, and nothing calls it: a name the benchmark's bench/tracer.py
    still wraps (its ``model.recognize_linear`` span), kept like
    :attr:`SolverState.linear_coeffs` until the tracer drops both."""


def _natural_prior_mean(node: Node) -> float:
    p = node.prior
    if p.family == BETA:
        t = p.transform
        return t.a + (t.b - t.a) * p.alpha / (p.alpha + p.beta)
    return p.mean


def initialize(d: Diagram, cfg: SolverConfig | None = None) -> SolverState:
    """Build the starting state: prior moments, prior point, evidence entries.

    Deterministic nodes take the value of their expression at the parent
    prior means, with conditional variance zero; their transformed means
    follow by applying their transform at that point, level by level: each
    tape over its members in the level, the other nodes one by one, by
    :func:`linearize`'s :func:`_linearize_tape` and :func:`_linearize_node`.
    The same walks give their slopes, which seed ``linearized`` as the first
    linearization, at the prior point, unless a node's slope is undefined
    there: then the first iteration walks every node and names it.
    Evidence nodes are resolved to (observation, variance) pairs in one
    pass, keyed by node, or by observed parameter and pooled when the
    configuration asks for it; the entries are grouped into the diagonal
    blocks of their covariance, which the diagram's arcs fix for every
    iteration, and the columns of the covariance factor are ordered by those
    groups' live ancestors.  The iteration-0 "posterior" point is defined to
    be this prior point.  The error raised is the first failing parameter in
    parameter order (prior map or prior point), then the first failing
    observation in declaration order, whatever went through arrays.
    """
    cfg = cfg or SolverConfig()
    ensure_valid(d)
    topo = topological_order(d)
    param_ids = tuple(i for i in topo if d.nodes[i].kind != EVIDENCE)
    index = {pid: k for k, pid in enumerate(param_ids)}

    n = len(param_ids)
    mean_y = np.zeros(n)
    mean_x = np.zeros(n)
    cond_var = np.zeros(n)
    members: dict[str, list[int]] = {}
    betas: list[int] = []  # the basic parameters with Beta priors, and the others
    others: list[int] = []
    for k, pid in enumerate(param_ids):
        node = d.nodes[pid]
        members.setdefault(_KIND_FAMILY[node.transform.kind], []).append(k)
        if node.kind == BASIC:
            (betas if node.prior.family == BETA else others).append(k)
            mean_y[k] = _natural_prior_mean(node)

    # Prior moments, the Beta family as arrays when it is large enough.
    failed: list[tuple[int, str, ValueError]] = []  # (parameter, what failed, why)
    if len(betas) >= _BATCH_MIN:
        at = np.array(betas, dtype=np.intp)
        ab = [(d.nodes[param_ids[k]].prior.alpha, d.nodes[param_ids[k]].prior.beta) for k in betas]
        mean_x[at], cond_var[at] = _beta_to_moments_lockstep(*np.array(ab).T)
        finite = np.isfinite(mean_x[at]) & np.isfinite(cond_var[at])  # what MomentPair checks
        betas = at[~finite].tolist()
    for k in others + betas:
        try:
            m = forward_moments(d.nodes[param_ids[k]].prior)
        except ValueError as err:
            what = f"cannot map the prior of {param_ids[k]!r} to its transformed scale"
            failed.append((k, what, err))
        else:
            mean_x[k], cond_var[k] = m.mean, m.variance

    batched = []
    one_by_one: list[int] = []
    for family, idx in members.items():
        if len(idx) < _BATCH_MIN:
            one_by_one += idx
            continue
        transforms = [d.nodes[param_ids[k]].transform for k in idx]
        batched.append(
            (
                family,
                np.array(idx, dtype=np.intp),
                np.array([t.a for t in transforms]),
                np.array([t.b for t in transforms]),
            )
        )
    one_by_one.sort()

    levels = _depth_levels([[index[p] for p in d.nodes[pid].parents] for pid in param_ids])

    # Group the deterministic nodes by expression shape, level by level.
    shapes: dict[tuple, list[Place]] = {}
    for level, (nodes, par) in enumerate(levels):
        for row, (k, ps) in enumerate(zip(nodes.tolist(), par.tolist())):
            shapes.setdefault(d.nodes[param_ids[k]].expr.shape[0], []).append((level, row, k, ps))
    taped = [(ops, places) for ops, places in shapes.items() if len(places) >= _BATCH_MIN]
    walked = [place for places in shapes.values() if len(places) < _BATCH_MIN for place in places]
    tapes = []
    if taped:
        transforms = _TransformArrays.of([d.nodes[pid].transform for pid in param_ids], (n,))
        tapes = [_tape(d, param_ids, index, levels, transforms, *shape) for shape in taped]

    # The prior point and the first linearization there, level by level, as
    # linearize makes it: each tape's members in the level at once, then the
    # level's other nodes and the members a tape cannot finish one by one.
    # A node whose value is defined but a slope is not leaves the
    # linearization to the first step, which names it.
    c = [np.zeros(par.shape) for _, par in levels]
    seeded = True
    by_level: list[list[Place]] = [[] for _ in levels]
    for place in walked:
        by_level[place[0]].append(place)
    for level, places in enumerate(by_level):
        for tape, at in [(tape, at) for tape in tapes for lv, at, _ in tape.cells if lv == level]:
            members = np.arange(at.start, at.stop)
            mean_y[tape.nodes[at]], failing = _linearize_tape(tape, members, mean_y, mean_x, c)
            places += failing
        for place in places:
            _, _, k, ps = place
            try:
                mean_y[k] = _linearize_node(d, param_ids, place, mean_y, mean_x, c)
            except ValueError:  # the value may be defined where a slope is not
                node = d.nodes[param_ids[k]]
                try:
                    mean_y[k] = point_value(node, {param_ids[i]: mean_y[i] for i in ps if i != k})
                    mean_x[k] = forward_point(node.transform, mean_y[k])
                except ValueError as err:
                    failed.append((k, f"cannot evaluate {node.id!r} at the prior point", err))
                else:
                    seeded = False
    if failed:
        k, what, err = min(failed, key=lambda f: f[0])
        raise InitializationError(f"{what}: {err}", param_ids[k]) from err

    # Evidence entries in order of first appearance, each labelled by its
    # first node: one per node, or one pooled entry per observed parameter.
    ev_nodes = d.evidence_nodes()
    ev_obs, ev_var = _likelihoods(ev_nodes, d, index, mean_x, cond_var)
    looks: dict[str, tuple[Node, list[int]]] = {}
    for i, node in enumerate(ev_nodes):
        looks.setdefault(node.parents[0] if cfg.pool_evidence else node.id, (node, []))[1].append(i)
    if cfg.pool_evidence:
        ev_obs, ev_var = _pooled(ev_obs, ev_var, list(looks.values()))
    order = param_ids + tuple(first.id for first, _ in looks.values())
    ev_parent = np.array([index[first.parents[0]] for first, _ in looks.values()], dtype=int)
    components, ancestors = _evidence_components(levels, cond_var > 0.0, ev_parent)

    return SolverState(
        diagram=d,
        param_ids=param_ids,
        order=order,
        ev_parent=ev_parent,
        ev_obs=np.array(ev_obs),
        ev_components=components,
        ev_ancestors=ancestors,
        packing=_packing(levels, cond_var > 0.0),
        levels=levels,
        tapes=tuple(tapes),
        walked=walked,
        batched=tuple(batched),
        one_by_one=one_by_one,
        cond_var=np.concatenate([cond_var, ev_var]),
        post_x=mean_x.copy(),
        post_y=mean_y.copy(),
        point_x=mean_x.copy(),
        linearized=(mean_y.copy(), c) if seeded else None,
    )


def _likelihoods(
    nodes: list[Node],
    d: Diagram,
    index: dict[str, int],
    prior_x: np.ndarray,
    prior_var: np.ndarray,
) -> tuple[list[float], list[float]]:
    """The (d, v) of each evidence node, at least ``_BATCH_MIN`` binomial ones as arrays.

    A binomial observation whose reference is its parent's Beta prior reads
    that prior's log-odds moments from ``prior_x`` and ``prior_var`` (over
    the parameters, by ``index``), which the prior map found with the same
    polygammas.  The other nodes, binomial counts from 2**53 on (not all
    exact as floats) and the entries the arrays leave NaN are resolved one
    by one in order, so the first failure raises."""
    obs, var = [math.nan] * len(nodes), [math.nan] * len(nodes)
    batch = [i for i, n in enumerate(nodes) if n.obs.variant == BINOMIAL and n.obs.count < 2**53]
    if len(batch) >= _BATCH_MIN:
        rows, shared = [], []
        for i in batch:
            spec, parent = nodes[i].obs, d.nodes[nodes[i].parents[0]]
            rows.append((spec.count, spec.successes, *_reference(spec, parent.prior)))
            own = spec.alpha is None and parent.prior is not None and parent.prior.family == BETA
            shared.append(index[parent.id] if own else -1)
        at = np.array(shared, dtype=np.intp)
        prior = np.where(at >= 0, [prior_x[at], prior_var[at]], math.nan)
        got = _binomial_array(*np.array(rows, dtype=float).T, prior=prior)
        for i, x, v, done in zip(batch, *(a.tolist() for a in got)):
            if done:
                obs[i], var[i] = x, v
    for i, x in enumerate(obs):
        if math.isnan(x):
            like = _resolve(nodes[i], d)
            obs[i], var[i] = like.d, like.v
    return obs, var


def _pooled(
    obs: list[float], var: list[float], groups: list[tuple[Node, list[int]]]
) -> tuple[list[float], list[float]]:
    """Each group of observations pooled into one by :func:`pool`, in order.

    A group of one keeps its entry, which is what :func:`pool` returns for
    it; the first group that cannot pool raises, naming its first node."""
    pooled_obs = [obs[items[0]] for _, items in groups]
    pooled_var = [var[items[0]] for _, items in groups]
    for g, (first, items) in enumerate(groups):
        if len(items) > 1:
            try:
                like = pool_likelihoods([LikelihoodApprox(obs[i], var[i]) for i in items])
            except ValueError as err:
                raise InitializationError(
                    f"cannot pool the observations of {first.id!r}: {err}", first.id
                ) from err
            pooled_obs[g], pooled_var[g] = like.d, like.v
    return pooled_obs, pooled_var


def _tape(
    d: Diagram,
    ids: tuple[str, ...],
    index: dict[str, int],
    levels: Levels,
    transforms: _TransformArrays,
    ops: tuple,
    places: list[Place],
) -> _Tape:
    """The tape of the nodes at ``places`` (level by level), whose expressions' shape is ``ops``.

    ``transforms`` holds the parameters' transforms, in parameter order.
    """
    layouts = [d.nodes[ids[k]].expr.shape for _, _, k, _ in places]
    parents = np.array([[index[name] for name in names] for _, _, names in layouts], dtype=np.intp)
    rows = np.array([row for _, row, _, _ in places], dtype=np.intp)
    cells, start = [], 0
    for level, group in itertools.groupby(places, key=lambda place: place[0]):
        at = slice(start, start + len(list(group)))
        par = levels[level][1][rows[at]]
        # each slot's column in its row: the first, and only, that holds its parent
        column = (par[:, :, None] == parents[at, None, :]).argmax(axis=1)
        cells.append((level, at, rows[at, None] * par.shape[1] + column))
        start = at.stop
    consts = np.array([c for _, c, _ in layouts], dtype=float).reshape(len(places), -1)
    members = np.array([k for _, _, k, _ in places], dtype=np.intp)
    return _Tape(
        ops=ops,
        nodes=members,
        parents=parents,
        consts=consts.T.copy(),
        own=transforms[members],
        ins=transforms[parents],
        places=places,
        cells=tuple(cells),
    )


def _resolve(node: Node, d: Diagram) -> LikelihoodApprox:
    parent = d.nodes[node.parents[0]]
    try:
        return to_likelihood(node.obs, parent.transform, parent.prior)
    except ValueError as err:
        raise InitializationError(
            f"cannot resolve observation {node.id!r}: {err}", node.id
        ) from err


def _iteration_error(
    state: SolverState, what: str, err: Exception, pid: str | None
) -> IterationError:
    return IterationError(f"{what} at iteration {state.t + 1}: {err}", pid, state.records)


def linearize(state: SolverState) -> Arcs:
    """B over the parameters at the previous posterior point, by depth level.

    Each level of ``state.levels`` gets ``(nodes, par, c)``, with
    ``c[k]`` node j = ``nodes[k]``'s coefficients on the parents in row
    ``par[k]``, in that order; the padding columns (j itself) get 0.0.  This
    is the layout :func:`~gaussid.gaussian._level_arcs` gathers from a dense
    B.  Node j's coefficient on parent i is
    ``B_ij = T'_j(f_j(y*)) * (df_j/dy_i)(y*) / T'_i(y*_i)`` with y* the
    previous natural-scale posterior means.  Each expression shape with
    a tape (at least ``_BATCH_MIN`` nodes) is walked once for all its nodes,
    by :func:`_linearize_tape`; each other node's expression is walked on
    its own by :func:`_linearize_node`, and so is each node a tape finds
    failing.  The transformed values T_j(f_j(y*)) are kept in
    ``state.point_x`` for :func:`update_means`.  A node's row and value
    depend only on its parents' y*, so a node none of whose parents' y*
    changed a bit since the latest linearization is not walked again: its
    row is copied from that linearization's B and its value stays in
    ``point_x``.  The latest is the previous call's, or the prior point's
    that :func:`initialize` seeds; without one (a slope undefined at the
    prior point, or a failed call) every node is walked.  Of the nodes that
    fail, the first in parameter order is named, with the message of its
    own walk.
    """
    d, ids = state.diagram, state.param_ids
    saved, state.linearized = state.linearized, None  # until this call succeeds
    if saved is None:
        c = [np.zeros(par.shape) for _, par in state.levels]
        walked = list(state.walked)
        redo = [np.arange(len(tape.nodes)) for tape in state.tapes]
    else:
        at, c = saved
        moved = state.post_y.view(np.int64) != at.view(np.int64)
        flags = moved.tolist()
        walked = [
            (level, row, k, ps)
            for level, row, k, ps in state.walked
            if any(flags[i] for i in ps if i != k)
        ]
        redo = [np.flatnonzero(moved[tape.parents].any(axis=1)) for tape in state.tapes]
    for tape, members in zip(state.tapes, redo):
        if members.size:
            walked += _linearize_tape(tape, members, state.post_y, state.point_x, c)[1]
    failed: list[tuple[int, ValueError]] = []
    for place in walked:
        try:
            _linearize_node(d, ids, place, state.post_y, state.point_x, c)
        except ValueError as err:
            failed.append((place[2], err))
    if failed:
        k, err = min(failed, key=lambda f: f[0])
        raise _iteration_error(state, f"cannot linearize {ids[k]!r}", err, ids[k]) from err
    state.linearized = (state.post_y.copy(), [cl.copy() for cl in c])
    return tuple((nodes, par, cl) for (nodes, par), cl in zip(state.levels, c))


def _linearize_tape(
    tape: _Tape,
    members: np.ndarray,
    post_y: np.ndarray,
    point_x: np.ndarray,
    c: list[np.ndarray],
) -> tuple[np.ndarray, list[Place]]:
    """Linearize a tape's ``members`` at ``post_y`` into ``point_x`` and the coefficients ``c``.

    ``members`` are increasing member indices.  One pass of
    :func:`~gaussid.model._slopes_columns` over them gives each node's
    value and slopes, bit for bit those of its own walk whatever else is in
    the pass, and marks the members whose walk would raise; their entries
    are written too.  Returns the members' values f(post_y) and the places
    of the marked ones, for :func:`_linearize_node` to walk them one by
    one, which rewrites their entries or names the error.
    """
    own = tape.own[members]
    y, b, failed = _slopes_columns(
        tape.ops, tape.consts[:, members], post_y[tape.parents[members]], own, tape.ins[members]
    )
    x, ok = own.forward(y)
    point_x[tape.nodes[members]] = x
    for level, at, flat in tape.cells:
        lo, hi = np.searchsorted(members, (at.start, at.stop))
        c[level].reshape(-1)[flat[members[lo:hi] - at.start]] = b[lo:hi]
    return y, [tape.places[i] for i in members[failed | ~ok].tolist()]


def _linearize_node(
    d: Diagram,
    ids: tuple[str, ...],
    place: Place,
    post_y: np.ndarray,
    point_x: np.ndarray,
    c: list[np.ndarray],
) -> float:
    """Linearize the node at ``place`` on its own, as :func:`_linearize_tape` does its members.

    One walk of :func:`~gaussid.model.slopes` at its parents' ``post_y``
    gives its value f(post_y), which is returned, and its row of ``c``; its
    transformed value goes into ``point_x``.  Raises ``ValueError`` where
    the walk or the transform fails.
    """
    level, row, k, ps = place
    node = d.nodes[ids[k]]
    y, coeffs = slopes(node, d, {ids[i]: post_y[i] for i in ps if i != k})
    point_x[k] = forward_point(node.transform, y)
    c[level][row] = [coeffs.get(ids[i], 0.0) for i in ps]  # padding (k itself) reads 0.0
    return y


def update_means(state: SolverState, arcs: Arcs) -> np.ndarray:
    """First-order update of the transformed means, from the values :func:`linearize` left.

    Basic parameters keep their prior-moment means; deterministic node j
    becomes ``T_j(f_j(y*)) + sum_i B_ij (E X_i - post_x_i)``, where E X_i
    is the parent's updated mean this iteration and post_x the previous
    posterior; evidence entries track their parameter's mean.  The shifts
    s = E X - post_x solve (I - B') s = point_x - post_x, one forward
    substitution over B's ``arcs``.
    """
    mean = state.post_x + _substitute(arcs, state.point_x - state.post_x)
    return np.concatenate([mean, mean[state.ev_parent]])


def step(state: SolverState) -> IterationRecord:
    """Run one full iteration and append its record to the state."""
    n = state.n_params
    arcs = linearize(state)
    new_mean = update_means(state, arcs)

    # The parameters' covariance is A A'.  An evidence entry is its parameter
    # plus independent noise, so each group of entries reads only its rows
    # of A on its own columns.
    a = _forward_factor(arcs, np.sqrt(state.cond_var[:n]), state.packing)
    par = state.ev_parent
    try:  # a mean that overflows is reported by name in _natural_moments
        with np.errstate(all="ignore"):
            shift, vs = _factor_update(
                a,
                state.packing,
                state.ev_components,
                state.ev_ancestors,
                par,
                state.cond_var[n:],
                state.ev_obs - new_mean[par],
            )
    except (ConditioningError, ValueError) as err:
        raise _iteration_error(state, "conditioning failed", err, None) from err
    post_mean = new_mean[:n] + shift

    # The diagonal of A (I - V'V) A'.  inf - inf is NaN, which
    # _natural_moments reports by name.
    with np.errstate(invalid="ignore"):
        update = _update_variance(a, state.packing, state.ev_ancestors, vs)
        post_var = np.maximum(np.einsum("ij,ij->i", a, a) - update, 0.0)
    mean_y, var_y = _natural_moments(state, post_mean, post_var)

    r = _relative_change(post_mean, state.post_x)
    r_max = float(r.max()) if n else 0.0

    state.t += 1
    record = IterationRecord(
        t=state.t,
        prior_mean_x=new_mean,
        posterior_mean_x=post_mean,
        posterior_var_x=post_var,
        r=r,
        r_max=r_max,
    )
    state.records.append(record)
    state.snapshot = (arcs, a, vs, mean_y, var_y)
    state.post_x = post_mean.copy()
    state.post_y = mean_y
    return record


def _natural_moments(
    state: SolverState, post_mean: np.ndarray, post_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Natural-scale posterior means and variances of the parameters, in parameter order.

    A parameter whose (post_mean, post_var) have the bits they had at the
    previous call keeps that call's result; the first call maps every
    parameter.  Of the others, the members of each family :func:`initialize`
    found to have at least ``_BATCH_MIN`` go through the array map at once
    when there are at least ``_BATCH_MIN`` of them; the map gives each entry
    the same bits whatever else is in the batch.  The rest, and every entry
    the array map could not finish, then go through :func:`inverse_moments`
    one at a time in parameter order, so the first parameter that cannot be
    mapped raises, with the message the per-parameter loop gives.
    """
    saved, state.inverted = state.inverted, None  # until this call succeeds
    if saved is None:
        moved = None
        mean_y, var_y = np.empty((2, state.n_params))
        one_by_one = list(state.one_by_one)
    else:
        at_mean, at_var, mean_y, var_y = saved
        moved = (post_mean.view(np.int64) != at_mean.view(np.int64)) | (
            post_var.view(np.int64) != at_var.view(np.int64)
        )
        one_by_one = [k for k in state.one_by_one if moved[k]]
    for family, idx, a, b in state.batched:
        if moved is not None:
            redo = moved[idx]
            if np.count_nonzero(redo) < _BATCH_MIN:
                one_by_one += idx[redo].tolist()
                continue
            idx, a, b = idx[redo], a[redo], b[redo]
        mean_y[idx], var_y[idx], done = _inverse_moments_array(
            family, a, b, post_mean[idx], post_var[idx]
        )
        one_by_one += idx[~done].tolist()

    d = state.diagram
    for k in sorted(one_by_one):
        pid = state.param_ids[k]
        t = d.nodes[pid].transform
        try:
            m = inverse_moments(
                _KIND_FAMILY[t.kind], t, MomentPair(float(post_mean[k]), float(post_var[k]))
            )
        except (ValueError, OverflowError, ConvergenceError) as err:
            raise _iteration_error(
                state, f"cannot map {pid!r} back to its natural scale", err, pid
            ) from err
        mean_y[k], var_y[k] = m.mean, m.variance
    state.inverted = (post_mean.copy(), post_var.copy(), mean_y.copy(), var_y.copy())
    return mean_y, var_y


def _relative_change(new: np.ndarray, old: np.ndarray) -> np.ndarray:
    """``|new - old| / max(|new|, |old|)`` elementwise, and 0 where ``new == old``."""
    moved = new != old
    scale = np.maximum(np.abs(new), np.abs(old))
    return np.divide(np.abs(new - old), scale, out=np.zeros(np.shape(moved)), where=moved)


def solve(d: Diagram, cfg: SolverConfig | None = None) -> SolverResult:
    """Iterate to convergence, divergence, or the iteration cap.

    Convergence: the maximum relative change drops below ``epsilon``.
    Divergence: it rises strictly across ``divergence_window``
    consecutive comparisons (the increase counter resets on any
    non-increase).  The reported posterior comes from the last iteration,
    except on divergence, where the iterate with the smallest change
    measure is reported instead.
    """
    cfg = cfg or SolverConfig()
    state = initialize(d, cfg)
    status = MAX_ITERATIONS
    increase_run = 0
    best = None  # (record, snapshot) of the smallest-r_max iterate so far, for divergence
    for _ in range(cfg.max_iterations):
        record = step(state)
        if best is None or record.r_max < best[0].r_max:
            best = (record, state.snapshot)
        if record.r_max < cfg.epsilon:
            status = CONVERGED
            break
        if state.t >= 2 and record.r_max > state.records[-2].r_max:
            increase_run += 1
            if increase_run >= cfg.divergence_window:
                status = DIVERGED
                break
        else:
            increase_run = 0

    if status != DIVERGED:
        best = (state.records[-1], state.snapshot)

    record, (arcs, a, vs, mean_y, var_y) = best
    scale = np.sqrt(state.cond_var[: state.n_params])
    cov = _covariance(arcs, scale, state.packing, a, state.ev_ancestors, vs)
    return SolverResult(
        status=status,
        iterations=state.records,
        posterior_y=dict(zip(state.param_ids, map(MomentPair, mean_y.tolist(), var_y.tolist()))),
        posterior_correlations=_unpacked_correlations(cov, state.packing),
        param_ids=state.param_ids,
        reported_iteration=record.t,
    )
