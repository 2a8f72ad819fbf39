"""The iterative linear-approximation solver.

A solve starts at the prior point, which :func:`initialize` builds in array
passes where there are enough members: a family of at least ``_BATCH_MIN``
Beta priors, as many binomial observations (a reference that is the
parent's Beta prior read from the prior map), and in each depth level each
expression-shape tape (below) by the rule a linearization follows.  What
is left is done one by one, so the values and errors are the scalar ones.
The walk that gives a deterministic node's value there gives its slopes
too, so the prior point is also the first linearization, and the first
iteration walks no expression.

Each iteration rebuilds a Gaussian model of the transformed variables
around the previous posterior point, conditions it on the evidence, and
maps the conditioned moments back to the natural scale:

1.  *Linearize* every deterministic node about the previous posterior
    means y*: a walk of its expression gives its transformed value
    T_j(f_j(y*)) and its slopes by the chain rule through the transforms,
    written straight into one flat store of B's coefficients, which the
    arcs view level by level.  The nodes are grouped by expression shape
    (:attr:`~gaussid.model.Expr.shape`): the operators with slots for the
    constants and variables, where ``u + v`` and ``u - v`` are one signed
    add with its sign in a slot and a negated literal is a literal.  The
    nodes of a shape with at least ``_BATCH_MIN`` of them share one tape,
    each member's coefficients at fixed places in the store.
    The levels and the tapes are built once per solve.  A node's row and
    value depend only on its parents' y*, so a node whose parents' y* kept
    every bit since the latest linearization (the prior point's, for the
    first iteration) keeps them, and only the other members of a tape are
    linearized again: in one pass over numpy columns, with the same bits as
    their own walks, when they are at least ``_BATCH_MIN``, and one by one
    otherwise, as is a member whose walk would fail.
2.  *Update means* to first order: the shifts from the previous posterior
    point solve (I - B') s = x0, one forward substitution over the arcs, one
    batch per level.  Build the factor A of the parameters' covariance A A'
    by the same kernel, laid out by connected component of the arcs: a row
    holds only the live parameters (with prior noise) of its component, so
    A holds sum s l entries over the components' s members and l live ones.
    *Condition* on all evidence
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
    parameter, one prior family at a time.  A parameter whose transformed
    posterior mean and variance kept every bit since the previous iteration
    keeps its natural-scale moments, so a family maps every member in the
    first iteration and only the others later.  When those are at least
    ``_BATCH_MIN`` they are mapped as arrays, the Beta inversions as one
    lockstep Newton iteration, and fewer parameter by parameter, with the
    same bits either way (the array maps give an entry the same bits
    whatever else is in the batch), into arrays (:class:`MomentPair` values
    are built once, for the reported iterate).  Then measure the relative
    change of the transformed posterior means.

What a step keeps for the next lives in the :class:`SolverState` of one
solve; the first iteration maps every parameter's moments, and walks no
expression.

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

from .evidence import _DEFAULT_REFERENCE, BINOMIAL, LikelihoodApprox, _binomial_array
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
    _posterior_variance,
    _ranges,
    _substitute,
    _unpacked_correlations,
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

# A family with at least this many parameters to map in an iteration maps
# them as arrays, and an expression shape with at least this many
# deterministic nodes is linearized as one tape; below it, numpy's fixed cost
# per call outweighs the per-node loop.  Measured on whole families and
# shapes, on one CPU of a 2-vCPU x86-64 machine: Beta families break even at
# about 16 members (Normal and lognormal ones at 6 to 10), and the fan-in-6
# shapes of the mixed_expr benchmark at 6 to 8 nodes over a solve of three
# or four iterations, the tape's building included.  A later iteration maps
# only a family's members whose inputs moved, and linearizes only a tape's
# members whose parents moved, by the same rule, which the prior point follows
# for a tape's members in each depth level.  For such subsets one Beta
# costs about 220 us as an array and 37 us on its own, and one timing found
# 16 moved Betas slower as an array (551 us) than one by one (371 us); a
# fan-in-6 tape's pass costs 125 to 235 us for 1 to 32 of its members, and
# a walk about 20 us a member, so its subsets break even at 6 to 8 members
# (mixed_expr, seed 505, after two steps, on the same CPU).
_BATCH_MIN = 16

# A node as _linearize_node walks it: (parameter index, where its coefficients
# go in the flat store, the parameter each multiplies, the node on padding).
Place = tuple[int, slice | list[int], list[int]]


class _Tape(_Record):
    """The deterministic nodes of one expression shape, linearized together.

    Member i is parameter ``nodes[i]``; its expression is ``ops`` (of its
    :attr:`~gaussid.model.Expr.shape`) with constant slot j holding
    ``consts[j, i]`` (a literal or the sign of a signed add) and variable
    slot s reading parameter ``parents[i, s]``; their transforms are read
    from :attr:`SolverState.transforms` by these indices.  The members are
    in the arcs level by level, and ``flat[i, s]`` is where member i's
    coefficient on slot s's parent sits in a linearization's flat store.
    """

    __slots__ = ("ops", "nodes", "parents", "consts", "flat")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(
        self, ops: tuple[tuple, ...], nodes: np.ndarray, parents: np.ndarray, consts: np.ndarray,
        flat: np.ndarray,
    ):
        self._fill(ops, nodes, parents, consts, flat)


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
        tapes: tuple[_Tape, ...], walked: list[Place], families: dict[str, np.ndarray],
        transforms: _TransformArrays | None, cond_var: np.ndarray, post_x: np.ndarray,
        post_y: np.ndarray, point_x: np.ndarray, t: int = 0,
        records: list[IterationRecord] | None = None,
        snapshot: tuple[Arcs, np.ndarray, np.ndarray, list, np.ndarray, np.ndarray] | None = None,
        linearized: tuple[np.ndarray, np.ndarray] | None = None,
        inverted: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None,
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
        # each family's parameter indices, increasing, in order of first appearance;
        # every parameter's transform, as arrays, when there are at least _BATCH_MIN
        self.families = families
        self.transforms = transforms
        self.cond_var = cond_var  # noise variances over the full order
        self.post_x = post_x  # previous posterior means of parameters (transformed scale)
        self.post_y = post_y  # previous posterior means of parameters (natural scale)
        # transformed values at y = post_y as the latest linearize found them:
        # T_j(f_j(y)) on deterministic nodes, prior means on basic ones
        self.point_x = point_x
        self.t = t
        self.records = [] if records is None else records
        # (B by level, A packed, the shares kept by live node, the wide groups'
        # (ancestors, V) per shape class, natural-scale means, natural-scale
        # variances) of the latest iterate: its parameter covariance is A (I - V'V) A'
        self.snapshot = snapshot
        # What the latest linearization and moment inversion read and wrote, kept
        # for the next one to reuse each entry whose inputs have the same bits:
        # (post_y it linearized at, its flat store of B's coefficients; its values
        # are in point_x), and (post_mean, post_var it inverted, mean_y, var_y).  Private
        # copies.  initialize seeds the first with the prior point's linearization,
        # and a failed linearize leaves it None; the second is None until the
        # first inversion succeeds.
        self.linearized = linearized
        self.inverted = inverted
        # always empty: no node keeps constant coefficients; the benchmark's
        # bench/worker.py::_sizes still reads it under --trace 1
        self.linear_coeffs = {}

    @property
    def n_params(self) -> int:
        return len(self.param_ids)


def recognize_linear(node: Node, d: Diagram) -> None:
    """Nothing, and nothing calls it: a name the benchmark's bench/tracer.py
    still wraps (its ``model.recognize_linear`` span), kept like
    :attr:`SolverState.linear_coeffs` until the tracer drops both."""


def initialize(d: Diagram, cfg: SolverConfig | None = None) -> SolverState:
    """Build the starting state: prior moments, prior point, evidence entries.

    The diagram is read once, node by node, into arrays: each parameter's
    transform and family, prior, parent indices and expression shape, and
    each evidence node's observed parameter.  From them numpy builds the
    structure the whole solve uses (the symbolic analysis, done once): the
    depth levels of the arcs, the expression-shape tapes, the evidence
    groups with their live ancestors and the packing of A and the
    covariance by component.
    Deterministic nodes take the value of their expression at the parent
    prior means, with conditional variance zero; their transformed means
    follow by applying their transform at that point, level by level, by
    :func:`_linearize_nodes` under :func:`linearize`'s rule: a tape passes
    a level's members when they are at least ``_BATCH_MIN``.
    The same passes and walks give their slopes, which seed ``linearized``
    as the first linearization, at the prior point; a node whose value,
    transform or slope is undefined there fails here.
    Evidence nodes are resolved to (observation, variance) pairs in one
    pass, keyed by node, or by observed parameter and pooled when the
    configuration asks for it; the entries are grouped into the diagonal
    blocks of their covariance, which the diagram's arcs fix for every
    iteration.  The iteration-0 "posterior" point is defined to be this
    prior point.  The error raised is the first failing parameter in
    parameter order (prior map or prior point), then the first failing
    observation in declaration order, whatever went through arrays.
    """
    cfg = cfg or SolverConfig()
    ensure_valid(d)
    nodes = d.nodes
    param_ids = tuple(i for i in topological_order(d) if nodes[i].kind != EVIDENCE)
    index = {pid: k for k, pid in enumerate(param_ids)}

    n = len(param_ids)
    mean_x, cond_var = np.zeros((2, n))
    means = [0.0] * n  # natural-scale prior means of the basic parameters
    ts = []  # each parameter's transform
    families: dict[str, list[int]] = {}  # parameter indices by their transform's family
    betas: list[int] = []  # the basic parameters with Beta priors, their (alpha, beta), and the others
    ab: list[tuple[float, float]] = []
    others: list[int] = []
    parents: list[int] = []  # each parameter's parent indices, in turn
    fan_in = [0] * n
    shapes: dict[tuple, int] = {}  # expression shape -> its number, by first appearance
    shape_of = [-1] * n
    layouts: dict[int, tuple] = {}  # deterministic node -> (constants, parent of each variable slot)
    for k, pid in enumerate(param_ids):
        node = nodes[pid]
        ts.append(node.transform)
        families.setdefault(_KIND_FAMILY[node.transform.kind], []).append(k)
        if node.kind == BASIC:
            prior = node.prior
            if prior.family == BETA:  # the mean of a + (b - a) Beta(alpha, beta)
                betas.append(k)
                ab.append((prior.alpha, prior.beta))
                t = prior.transform
                means[k] = t.a + (t.b - t.a) * prior.alpha / (prior.alpha + prior.beta)
            else:
                others.append(k)
                means[k] = prior.mean
            continue
        ps = [index[p] for p in node.parents]
        parents += ps
        fan_in[k] = len(ps)
        ops, consts, names = node.expr.shape
        shape_of[k] = shapes.setdefault(ops, len(shapes))
        layouts[k] = (consts, ps if names == node.parents else [index[p] for p in names])
    mean_y = np.array(means)
    ab = np.fromiter(itertools.chain.from_iterable(ab), float, 2 * len(betas)).reshape(-1, 2)

    # Prior moments, the Beta family as arrays when it is large enough.
    failed: list[tuple[int, str, ValueError]] = []  # (parameter, what failed, why)
    unmapped = betas
    if len(betas) >= _BATCH_MIN:
        at = np.array(betas, dtype=np.intp)
        mean_x[at], cond_var[at] = _beta_to_moments_lockstep(*ab.T)
        finite = np.isfinite(mean_x[at]) & np.isfinite(cond_var[at])  # what MomentPair checks
        unmapped = at[~finite].tolist()
    for k in others + unmapped:
        try:
            m = forward_moments(nodes[param_ids[k]].prior)
        except ValueError as err:
            what = f"cannot map the prior of {param_ids[k]!r} to its transformed scale"
            failed.append((k, what, err))
        else:
            mean_x[k], cond_var[k] = m.mean, m.variance

    levels = _depth_levels(np.repeat(np.arange(n), fan_in), np.array(parents, dtype=np.intp), n)

    # The deterministic nodes by level, each with ``width`` coefficients ending
    # at ``end`` in one flat store laid out as the levels' parents ``row``; a
    # tape per expression shape of at least _BATCH_MIN, the others walked.
    none = np.zeros(0, dtype=np.intp)
    placed = np.concatenate([level for level, _ in levels] + [none])
    row = np.concatenate([par.ravel() for _, par in levels] + [none])
    level_of = np.arange(len(levels)).repeat([len(level) for level, _ in levels])
    widths = [par.shape[1] for _, par in levels]
    width = np.array(widths, dtype=np.intp)[level_of]
    end = np.add.accumulate(width)
    taped, alone = [], slice(None)  # the positions in ``placed`` of the nodes walked one by one
    if len(placed) >= _BATCH_MIN:  # enough for a tape
        small = [none]
        code = np.array(shape_of, dtype=np.intp)[placed]
        size = np.bincount(code)
        by_shape = code.argsort(kind="stable")  # by shape, then level, then row
        bounds = np.add.accumulate(size)
        first = [int(by_shape[b - s]) for s, b in zip(size.tolist(), bounds.tolist())]
        ops_of = list(shapes)
        for c in sorted(range(len(size)), key=first.__getitem__):  # shapes by first place
            at = by_shape[bounds[c] - size[c] : bounds[c]]
            if size[c] >= _BATCH_MIN:
                taped.append((ops_of[c], at))
            else:
                small.append(at)
        alone = np.sort(np.concatenate(small))  # by level, then row
    walks = [[] for _ in levels]  # each level's nodes walked one by one
    for lv, k, hi in zip(level_of[alone].tolist(), placed[alone].tolist(), end[alone].tolist()):
        lo = hi - widths[lv]
        walks[lv].append((k, slice(lo, hi), row[lo:hi].tolist()))
    walked = [place for places in walks for place in places]
    transforms = None
    if n >= _BATCH_MIN:  # there may be a tape or an array moment map to read it
        transforms = _TransformArrays.of(ts, (n,))
    tapes, passes = [], [[] for _ in levels]  # and each level's (tape, members) pairs
    for ops, at in taped:
        tapes.append(_tape(ops, placed[at], end[at], width[at], row, layouts))
        lv, lo = np.unique(level_of[at], return_index=True)
        for level, members in zip(lv.tolist(), np.split(np.arange(len(at)), lo[1:])):
            passes[level].append((tapes[-1], members))

    # The prior point and the first linearization there, level by level, by
    # linearize's rule (see _linearize_nodes).
    c = np.zeros(len(row))
    for todo, places in zip(passes, walks):
        bad = _linearize_nodes(d, param_ids, transforms, todo, places, mean_y, mean_x, c, mean_y)
        failed += [(k, f"cannot evaluate {param_ids[k]!r} at the prior point", e) for k, e in bad]
    if failed:
        k, what, err = min(failed, key=lambda f: f[0])
        raise InitializationError(f"{what}: {err}", param_ids[k]) from err

    # Evidence entries in order of first appearance, each labelled by its
    # first node: one per node, or one pooled entry per observed parameter.
    ev_nodes = d.evidence_nodes()
    observed = np.array([index[node.parents[0]] for node in ev_nodes], dtype=np.intp)
    ev_obs, ev_var = _likelihoods(ev_nodes, d, observed, betas, ab, mean_x, cond_var)
    entry = np.arange(len(ev_nodes))  # the first node of each entry
    if cfg.pool_evidence:
        ev_obs, ev_var, entry = _pooled(ev_nodes, ev_obs, ev_var, observed)
    order = param_ids + tuple(ev_nodes[e].id for e in entry.tolist())
    ev_parent = observed[entry]
    live = cond_var > 0.0
    components, ancestors = _evidence_components(levels, live, ev_parent)

    return SolverState(
        diagram=d,
        param_ids=param_ids,
        order=order,
        ev_parent=ev_parent,
        ev_obs=np.array(ev_obs),
        ev_components=components,
        ev_ancestors=ancestors,
        packing=_packing(levels, live),
        levels=levels,
        tapes=tuple(tapes),
        walked=walked,
        families={family: np.array(idx, dtype=np.intp) for family, idx in families.items()},
        transforms=transforms,
        cond_var=np.concatenate([cond_var, ev_var]),
        post_x=mean_x.copy(),
        post_y=mean_y.copy(),
        point_x=mean_x.copy(),
        linearized=(mean_y.copy(), c),
    )


def _likelihoods(
    nodes: list[Node],
    d: Diagram,
    observed: np.ndarray,
    betas: list[int],
    ab: np.ndarray,
    prior_x: np.ndarray,
    prior_var: np.ndarray,
) -> tuple[list[float], list[float]]:
    """The (d, v) of each evidence node, at least ``_BATCH_MIN`` binomial ones as arrays.

    Node i observes parameter ``observed[i]``; the parameters ``betas`` have
    Beta priors, with (alpha, beta) the rows of ``ab``.  A binomial
    observation's reference is its own (alpha, beta), else its parent's
    Beta prior, whose log-odds moments it reads from ``prior_x`` and
    ``prior_var`` (the prior map found them with the same polygammas), else
    the default.  The other nodes, binomial counts from 2**53 on (not all
    exact as floats) and the entries the arrays leave NaN are resolved one
    by one in order, so the first failure raises."""
    obs, var = [math.nan] * len(nodes), [math.nan] * len(nodes)
    batch, rows = [], []
    for i, node in enumerate(nodes):
        spec = node.obs
        if spec.variant == BINOMIAL and spec.count < 2**53:
            batch.append(i)
            rows.append((spec.count, spec.successes, spec.alpha is None, spec.alpha, spec.beta))
    if len(batch) >= _BATCH_MIN:  # an absent reference (None) reads as NaN
        rows = np.fromiter(itertools.chain.from_iterable(rows), float, 5 * len(rows))
        count, successes, unset, alpha, beta = rows.reshape(-1, 5).T
        beta_prior = np.full((len(prior_x), 2), math.nan)  # each parameter's Beta prior
        beta_prior[betas] = ab
        unset, parent = unset > 0.0, observed[batch]
        own = unset & ~np.isnan(beta_prior[parent, 0])
        ref = np.where(own[:, None], beta_prior[parent], _DEFAULT_REFERENCE)
        alpha, beta = np.where(unset, ref.T, [alpha, beta])
        at = np.where(own, parent, -1)
        prior = np.where(at >= 0, [prior_x[at], prior_var[at]], math.nan)
        x, v, done = _binomial_array(count, successes, alpha, beta, prior=prior)
        for i, x_i, v_i in zip(np.array(batch)[done].tolist(), x[done].tolist(), v[done].tolist()):
            obs[i], var[i] = x_i, v_i
    for i, x in enumerate(obs):
        if math.isnan(x):
            like = _resolve(nodes[i], d)
            obs[i], var[i] = like.d, like.v
    return obs, var


def _pooled(
    nodes: list[Node], obs: list[float], var: list[float], observed: np.ndarray
) -> tuple[list[float], list[float], np.ndarray]:
    """The observations of each parameter pooled into one by :func:`pool`: ``(d, v, first)``.

    Node i observes parameter ``observed[i]``; the entries are in order of
    first appearance, and ``first`` holds each one's first node.  A group of
    one keeps its entry, which is what :func:`pool` returns for it; the first
    group that cannot pool raises, naming its first node."""
    order = observed.argsort(kind="stable")  # the nodes by parameter, then in order
    seen = observed[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = seen[1:] != seen[:-1]
    first = np.sort(order[new])
    pooled_obs = [obs[i] for i in first.tolist()]
    pooled_var = [var[i] for i in first.tolist()]
    if len(first) < len(nodes):
        bounds = [*new.nonzero()[0].tolist(), len(order)]
        groups = sorted(order[lo:hi].tolist() for lo, hi in zip(bounds, bounds[1:]))
        for g, items in enumerate(groups):
            if len(items) == 1:
                continue
            try:
                like = pool_likelihoods([LikelihoodApprox(obs[i], var[i]) for i in items])
            except ValueError as err:
                nid = nodes[items[0]].id
                raise InitializationError(f"cannot pool the observations of {nid!r}: {err}", nid) from err
            pooled_obs[g], pooled_var[g] = like.d, like.v
    return pooled_obs, pooled_var, first


def _tape(
    ops: tuple, nodes: np.ndarray, end: np.ndarray, width: np.ndarray, row: np.ndarray,
    layouts: dict[int, tuple],
) -> _Tape:
    """The tape of ``nodes`` (level by level), of shape ``ops``.

    Node i's row of the flat store is ``row[end[i] - width[i]:end[i]]``, its
    parents padded with itself; ``layouts`` holds each deterministic node's
    constants and the parent index of each variable slot of its shape."""
    ks, (consts, slots) = nodes.tolist(), layouts[int(nodes[0])]
    parents = np.fromiter(
        itertools.chain.from_iterable(layouts[k][1] for k in ks), np.intp, len(ks) * len(slots)
    ).reshape(len(ks), -1)
    # each slot's place in its row: the first, and only, that holds its parent
    at = _ranges(end - width, end)
    hit = row[at, None] == parents.repeat(width, axis=0)
    consts = np.fromiter(
        itertools.chain.from_iterable(layouts[k][0] for k in ks), float, len(ks) * len(consts)
    ).reshape(len(ks), -1)
    return _Tape(
        ops=ops, nodes=nodes, parents=parents, consts=consts.T.copy(),
        flat=at[hit.T.nonzero()[1]].reshape(len(slots), -1).T,
    )


def _members(tape: _Tape, members: np.ndarray) -> list[Place]:
    """The places of a tape's ``members``, each coefficient where its slot's goes."""
    return list(zip(*(a[members].tolist() for a in (tape.nodes, tape.flat, tape.parents))))


def _resolve(node: Node, d: Diagram) -> LikelihoodApprox:
    parent = d.nodes[node.parents[0]]
    try:
        return to_likelihood(node.obs, parent.transform, parent.prior)
    except (ValueError, OverflowError) as err:  # a count, say, beyond float range
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
    B, each level's ``c`` a view of one flat store.  Node j's coefficient on
    parent i is ``B_ij = T'_j(f_j(y*)) * (df_j/dy_i)(y*) / T'_i(y*_i)`` with
    y* the previous natural-scale posterior means.  :func:`_linearize_nodes`
    linearizes the nodes, by the rule :func:`initialize` follows at the
    prior point, and keeps their transformed values T_j(f_j(y*)) in
    ``state.point_x`` for :func:`update_means`.  A node's row and value
    depend only on its parents' y*, so a node none of whose parents' y*
    changed a bit since the latest linearization is not walked again: its
    row is copied from that linearization's B and its value stays in
    ``point_x``.  The latest is the previous call's, or the prior point's
    that :func:`initialize` seeds; without one (after a failed call) every
    node is walked.  Of the nodes that fail, the first in parameter order is
    named, with the message of its own walk.
    """
    d, ids = state.diagram, state.param_ids
    saved, state.linearized = state.linearized, None  # until this call succeeds
    if saved is None:
        c = np.zeros(sum(par.size for _, par in state.levels))
        walked = state.walked
        redo = [(tape, np.arange(len(tape.nodes))) for tape in state.tapes]
    else:
        at, c = saved
        moved = state.post_y.view(np.int64) != at.view(np.int64)
        flags = moved.tolist()
        walked = [p for p in state.walked if any(flags[i] for i in p[2] if i != p[0])]
        redo = [(tape, np.flatnonzero(moved[tape.parents].any(axis=1))) for tape in state.tapes]
    failed = _linearize_nodes(  # the values f(y*), into the last argument, go unread
        d, ids, state.transforms, redo, walked, state.post_y, state.point_x, c, np.empty(len(ids))
    )
    if failed:
        k, err = min(failed, key=lambda f: f[0])
        raise _iteration_error(state, f"cannot linearize {ids[k]!r}", err, ids[k]) from err
    state.linearized = (state.post_y.copy(), c.copy())
    arcs, lo = [], 0
    for nodes, par in state.levels:
        arcs.append((nodes, par, c[lo : lo + par.size].reshape(par.shape)))
        lo += par.size
    return tuple(arcs)


def _linearize_nodes(
    d: Diagram, ids: tuple[str, ...], transforms: _TransformArrays | None,
    passes: list[tuple[_Tape, np.ndarray]], walked: list[Place], post_y: np.ndarray,
    point_x: np.ndarray, c: np.ndarray, value: np.ndarray,
) -> list[tuple[int, ValueError]]:
    """Linearize at ``post_y`` each ``(tape, members)`` of ``passes`` and the nodes ``walked``.

    Their values f(post_y) go into ``value``, their transformed values into
    ``point_x`` and their coefficients into the flat store ``c``.  A tape
    passes its members (:func:`_linearize_tape`) when they are at least
    ``_BATCH_MIN``; fewer, and what a pass cannot finish, are walked one by
    one (:func:`_linearize_node`).  Returns each failure, (parameter, error).
    """
    for tape, members in passes:
        if len(members) >= _BATCH_MIN:
            walked = walked + _linearize_tape(tape, members, transforms, post_y, point_x, c, value)
        else:  # a pass costs about as much whatever its size (see _BATCH_MIN)
            walked = walked + _members(tape, members)
    failed = []
    for place in walked:
        try:
            value[place[0]] = _linearize_node(d, ids, place, post_y, point_x, c)
        except ValueError as err:
            failed.append((place[0], err))
    return failed


def _linearize_tape(
    tape: _Tape, members: np.ndarray, transforms: _TransformArrays, post_y: np.ndarray,
    point_x: np.ndarray, c: np.ndarray, value: np.ndarray,
) -> list[Place]:
    """Linearize a tape's ``members`` at ``post_y`` into ``value``, ``point_x`` and the store ``c``.

    ``members`` are increasing member indices, and ``transforms`` holds every
    parameter's transform (:attr:`SolverState.transforms`).  One pass of
    :func:`~gaussid.model._slopes_columns` over them gives each node's
    value and slopes, bit for bit those of its own walk whatever else is in
    the pass, and marks the members whose walk would raise; their entries
    are written too.  Returns the places of the marked ones, for
    :func:`_linearize_node` to rewrite their entries or name the error.
    """
    nodes, parents = tape.nodes[members], tape.parents[members]
    own = transforms[nodes]
    y, b, failed = _slopes_columns(
        tape.ops, tape.consts[:, members], post_y[parents], own, transforms[parents]
    )
    x, ok = own.forward(y)
    value[nodes], point_x[nodes], c[tape.flat[members]] = y, x, b
    return _members(tape, members[failed | ~ok])


def _linearize_node(
    d: Diagram,
    ids: tuple[str, ...],
    place: Place,
    post_y: np.ndarray,
    point_x: np.ndarray,
    c: np.ndarray,
) -> float:
    """Linearize the node at ``place`` on its own, as :func:`_linearize_tape` does its members.

    One walk of :func:`~gaussid.model.slopes` at its parents' ``post_y``
    gives its value f(post_y), which is returned, and its coefficients in
    ``c``; its transformed value goes into ``point_x``.  Raises
    ``ValueError`` where the walk or the transform fails.
    """
    k, at, ps = place
    node = d.nodes[ids[k]]
    y, coeffs = slopes(node, d, {ids[i]: post_y[i] for i in ps if i != k})
    point_x[k] = forward_point(node.transform, y)
    c[at] = [coeffs.get(ids[i], 0.0) for i in ps]  # padding (k itself) reads 0.0
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
            shift, kept, wide = _factor_update(
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
        post_var = np.maximum(_posterior_variance(a, state.packing, kept, wide), 0.0)
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
    state.snapshot = (arcs, a, kept, wide, mean_y, var_y)
    state.post_x = post_mean.copy()
    state.post_y = mean_y
    return record


def _natural_moments(
    state: SolverState, post_mean: np.ndarray, post_var: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Natural-scale posterior means and variances of the parameters, in parameter order.

    A parameter whose (post_mean, post_var) have the bits they had at the
    previous call keeps that call's result; the first call maps every
    parameter.  A family with at least ``_BATCH_MIN`` of the others goes
    through the array map at once, which gives each entry the same bits
    whatever else is in the batch.  The rest, and every entry the array map
    could not finish, then go through :func:`inverse_moments` one at a time
    in parameter order, so the first parameter that cannot be mapped raises,
    with the message the per-parameter loop gives.
    """
    saved, state.inverted = state.inverted, None  # until this call succeeds
    if saved is None:
        mean_y, var_y = np.empty((2, state.n_params))
    else:
        at_mean, at_var, mean_y, var_y = saved
        moved = (post_mean.view(np.int64) != at_mean.view(np.int64)) | (
            post_var.view(np.int64) != at_var.view(np.int64)
        )
    one_by_one: list[int] = []
    for family, idx in state.families.items():
        if saved is not None:
            idx = idx[moved[idx]]
        if len(idx) >= _BATCH_MIN:
            ts = state.transforms
            mean_y[idx], var_y[idx], done = _inverse_moments_array(
                family, ts.a[idx], ts.b[idx], post_mean[idx], post_var[idx]
            )
            idx = idx[~done]
        one_by_one += idx.tolist()

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
    except on divergence, where the iterate with the smallest change measure
    is reported instead.  Out of memory past :func:`initialize` is a
    :class:`SolverError` naming the widest component's first node.
    """
    cfg = cfg or SolverConfig()
    state = initialize(d, cfg)
    status = MAX_ITERATIONS
    increase_run = 0
    best = None  # (record, snapshot) of the smallest-r_max iterate so far, for divergence
    try:
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

        record, (arcs, a, kept, wide, mean_y, var_y) = best
        scale = np.sqrt(state.cond_var[: state.n_params])
        cov = _covariance(arcs, scale, state.packing, a, kept, wide)
        return SolverResult(
            status=status,
            iterations=state.records,
            posterior_y=dict(zip(state.param_ids, map(MomentPair, mean_y.tolist(), var_y.tolist()))),
            posterior_correlations=_unpacked_correlations(cov, state.packing),
            param_ids=state.param_ids,
            reported_iteration=record.t,
        )
    except MemoryError:
        pack, size = state.packing, np.diff(state.packing.first)
        node = state.param_ids[pack.members[pack.first[size.argmax()]]]
        msg = f"out of memory: the covariance of the component of {node!r} needs {int(size.max())**2:,} entries"
        raise SolverError(msg, node) from None
