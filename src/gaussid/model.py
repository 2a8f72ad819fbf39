"""Influence-diagram models: expression trees, nodes, and diagram-level checks.

A diagram is a DAG of named nodes of three kinds:

* ``basic`` — an uncertain quantity with a transform and a marginal prior;
* ``deterministic`` — a quantity defined by an arithmetic expression over
  previously declared basic/deterministic nodes, with its own transform;
* ``evidence`` — an observation process attached to exactly one
  basic/deterministic parent.

Expressions are small immutable trees supporting evaluation and printing;
:func:`value_and_gradient` returns an expression's value and its partials
together, from one walk.  :func:`point_value` and :func:`slopes` are the
pieces of linearizing a deterministic node, shared by the solver and by
:func:`recognize_linear`, which detects expression/transform combinations
that are exactly linear on the transformed scale, so the solver can skip
re-linearizing them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

from .evidence import BINOMIAL, EvidenceSpec
from .transforms import (
    LOG_SCALED,
    LOGISTIC_SCALED,
    SCALED,
    PriorSpec,
    Transform,
    derivative,
    inverse_point,
)

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Exp",
    "Ln",
    "EvalError",
    "CycleError",
    "InvalidDiagramError",
    "variables",
    "value_and_gradient",
    "eval_expr",
    "format_expr",
    "Node",
    "basic",
    "deterministic",
    "evidence",
    "Diagram",
    "validate",
    "ensure_valid",
    "topological_order",
    "point_value",
    "slopes",
    "recognize_linear",
]


# ---------------------------------------------------------------------------
# Expression trees


class Expr:
    """Base class for expression nodes."""

    def __str__(self) -> str:
        return format_expr(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """base raised to a fixed real exponent (the exponent is not an Expr)."""

    base: Expr
    exponent: float


@dataclass(frozen=True)
class Exp(Expr):
    operand: Expr


@dataclass(frozen=True)
class Ln(Expr):
    operand: Expr


class EvalError(ValueError):
    """Expression evaluation hit an undefined or non-finite operation.

    ``subexpression`` is the offending subtree, already formatted.
    """

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in {subexpression}")
        self.subexpression = subexpression


def variables(e: Expr) -> tuple[str, ...]:
    """Variable names referenced by ``e``, in order of first appearance."""
    seen: dict[str, None] = {}

    def walk(node: Expr) -> None:
        if isinstance(node, Var):
            seen.setdefault(node.name, None)
        elif isinstance(node, (Neg, Exp, Ln)):
            walk(node.operand)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Pow):
            walk(node.base)

    walk(e)
    return tuple(seen)


def value_and_gradient(e: Expr, env: dict[str, float]) -> tuple[float, dict[str, float]]:
    """Value of ``e`` and its partials by variable at ``env``, from one walk.

    Each subexpression carries its value and its partials together
    (forward mode).  Raises :class:`EvalError` for unbound variables,
    division by zero, logs of non-positive values, invalid powers, and
    non-finite values.  Partials are never checked here, so a point where
    the value is defined but a slope is not (``x^0.5`` at 0) gives an
    infinite or NaN partial instead of an error; :func:`slopes` rejects it.
    """
    if isinstance(e, Const):
        return e.value, {}
    if isinstance(e, Var):
        try:
            return float(env[e.name]), {e.name: 1.0}
        except KeyError:
            raise EvalError(f"unbound variable {e.name!r}", format_expr(e)) from None
    if isinstance(e, Neg):
        u, du = value_and_gradient(e.operand, env)
        return -u, _chain(-1.0, du)
    if isinstance(e, Exp):
        u, du = value_and_gradient(e.operand, env)
        if u > 709.0:
            raise EvalError("exp overflow", format_expr(e))
        value = math.exp(u)
        return value, _chain(value, du)
    if isinstance(e, Ln):
        u, du = value_and_gradient(e.operand, env)
        if u <= 0.0:
            raise EvalError(f"log of non-positive value {u}", format_expr(e))
        return math.log(u), _chain(1.0 / u, du)
    if isinstance(e, Pow):
        base, db = value_and_gradient(e.base, env)
        k = e.exponent
        if base == 0.0 and k < 0.0:
            raise EvalError("zero raised to a negative power", format_expr(e))
        if base < 0.0 and k != round(k):
            raise EvalError("negative base with non-integer exponent", format_expr(e))
        slope = k * _power(base, k - 1.0) if k != 0.0 else 0.0
        return _finite(_power(base, k), e), _chain(slope, db)
    u, du = value_and_gradient(e.left, env)
    v, dv = value_and_gradient(e.right, env)
    if isinstance(e, Add):
        return _finite(u + v, e), _sum(du, 1.0, dv, 1.0)
    if isinstance(e, Sub):
        return _finite(u - v, e), _sum(du, 1.0, dv, -1.0)
    if isinstance(e, Mul):
        return _finite(u * v, e), _sum(du, v, dv, u)
    if isinstance(e, Div):
        if v == 0.0:
            raise EvalError("division by zero", format_expr(e))
        value = _finite(u / v, e)
        return value, _sum(du, 1.0 / v, dv, -value / v)
    raise TypeError(f"not an expression: {e!r}")


def eval_expr(e: Expr, env: dict[str, float]) -> float:
    """Value of ``e`` at ``env``, checked as in :func:`value_and_gradient`."""
    return value_and_gradient(e, env)[0]


def _finite(value: float, e: Expr) -> float:
    if not math.isfinite(value):
        raise EvalError(f"non-finite result {value}", format_expr(e))
    return value


def _power(base: float, k: float) -> float:
    """``base**k``, infinite where Python raises instead (overflow, ``0.0 ** -0.5``)."""
    try:
        return base**k
    except (OverflowError, ZeroDivisionError):
        return math.inf


# Maps from variable to partial (or to coefficient, or exponent) combine
# linearly: _chain scales one, _sum adds two with weights.


def _chain(c: float, grad: dict[str, float]) -> dict[str, float]:
    return {v: c * g for v, g in grad.items()}


def _sum(a: dict[str, float], ca: float, b: dict[str, float], cb: float) -> dict[str, float]:
    """``ca * a + cb * b``, e.g. the partials of ``ca * u + cb * v`` from those of u and v."""
    out = _chain(ca, a)
    for v, g in b.items():
        out[v] = out.get(v, 0.0) + cb * g
    return out


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return repr(e.value) if e.value >= 0 else f"({e.value!r})", _PREC_ATOM
    if isinstance(e, Var):
        return e.name, _PREC_ATOM
    if isinstance(e, Neg):
        inner, prec = _fmt(e.operand)
        if prec < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}", _PREC_UNARY
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left, lp = _fmt(e.left)
        right, rp = _fmt(e.right)
        if lp < _PREC_ADD:
            left = f"({left})"
        # subtraction and addition both need the right side wrapped when it
        # binds at the same level, e.g. a - (b + c)
        if rp <= _PREC_ADD:
            right = f"({right})"
        return f"{left} {op} {right}", _PREC_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left, lp = _fmt(e.left)
        right, rp = _fmt(e.right)
        if lp < _PREC_MUL:
            left = f"({left})"
        if rp <= _PREC_MUL:
            right = f"({right})"
        return f"{left} {op} {right}", _PREC_MUL
    if isinstance(e, Pow):
        base, bp = _fmt(e.base)
        if bp < _PREC_ATOM:
            base = f"({base})"
        exp = repr(e.exponent) if e.exponent >= 0 else f"({e.exponent!r})"
        return f"{base}^{exp}", _PREC_POW
    if isinstance(e, Exp):
        return f"exp({_fmt(e.operand)[0]})", _PREC_ATOM
    if isinstance(e, Ln):
        return f"ln({_fmt(e.operand)[0]})", _PREC_ATOM
    raise TypeError(f"not an expression: {e!r}")


def format_expr(e: Expr) -> str:
    """Render an expression with minimal parentheses."""
    return _fmt(e)[0]


# ---------------------------------------------------------------------------
# Nodes and diagrams


BASIC = "basic"
DETERMINISTIC = "deterministic"
EVIDENCE = "evidence"
NODE_KINDS = (BASIC, DETERMINISTIC, EVIDENCE)


@dataclass(frozen=True)
class Node:
    """One diagram node.  Use :func:`basic` / :func:`deterministic` /
    :func:`evidence` to construct the three kinds."""

    id: str
    kind: str
    parents: tuple[str, ...] = ()
    transform: Transform | None = None
    prior: PriorSpec | None = None
    expr: Expr | None = None
    obs: EvidenceSpec | None = None


def basic(id: str, prior: PriorSpec) -> Node:
    """An uncertain quantity; its transform is the prior's transform."""
    return Node(id=id, kind=BASIC, transform=prior.transform, prior=prior)


def deterministic(id: str, transform: Transform, expr: Expr) -> Node:
    """A quantity defined by an expression of previously declared nodes."""
    return Node(
        id=id,
        kind=DETERMINISTIC,
        parents=variables(expr),
        transform=transform,
        expr=expr,
    )


def evidence(id: str, parent: str, obs: EvidenceSpec) -> Node:
    """An observation attached to one parent quantity."""
    return Node(id=id, kind=EVIDENCE, parents=(parent,), obs=obs)


class CycleError(ValueError):
    """The diagram's dependency graph contains a cycle."""

    def __init__(self, cycle: list[str]):
        super().__init__("dependency cycle: " + " -> ".join(cycle))
        self.cycle = cycle


class InvalidDiagramError(ValueError):
    """The diagram failed validation; ``violations`` holds (node id, message) pairs."""

    def __init__(self, violations: list[tuple[str, str]]):
        lines = "; ".join(f"{nid}: {msg}" for nid, msg in violations)
        super().__init__(f"invalid diagram: {lines}")
        self.violations = violations


@dataclass
class Diagram:
    """An ordered collection of nodes keyed by id.

    Construct with :meth:`from_nodes`, which preserves declaration order
    and rejects duplicate ids.
    """

    nodes: dict[str, Node] = field(default_factory=dict)

    @classmethod
    def from_nodes(cls, nodes: list[Node]) -> "Diagram":
        table: dict[str, Node] = {}
        for n in nodes:
            if n.id in table:
                raise ValueError(f"duplicate node id {n.id!r}")
            table[n.id] = n
        return cls(nodes=table)

    def node(self, id: str) -> Node:
        return self.nodes[id]

    def params(self) -> list[Node]:
        """Basic and deterministic nodes, in declaration order."""
        return [n for n in self.nodes.values() if n.kind != EVIDENCE]

    def evidence_nodes(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind == EVIDENCE]


def validate(d: Diagram) -> list[tuple[str, str]]:
    """Check every diagram invariant; return (node id, message) violations.

    An empty list means the diagram is well-formed.  Checks cover node
    shape (which fields each kind carries), parent references, evidence
    placement rules, and acyclicity.
    """
    problems: list[tuple[str, str]] = []
    declared = d.nodes

    for n in d.nodes.values():
        if n.kind not in NODE_KINDS:
            problems.append((n.id, f"unknown node kind {n.kind!r}"))
            continue
        if n.kind == BASIC:
            if n.prior is None or n.transform is None:
                problems.append((n.id, "basic nodes require a transform and a prior"))
                continue
            if n.parents:
                problems.append((n.id, "basic nodes cannot have parents"))
            if n.expr is not None or n.obs is not None:
                problems.append((n.id, "basic nodes carry no expression or observation"))
            if n.prior.transform != n.transform:
                problems.append((n.id, "prior transform differs from node transform"))
        elif n.kind == DETERMINISTIC:
            if n.expr is None or n.transform is None:
                problems.append(
                    (n.id, "deterministic nodes require a transform and an expression")
                )
                continue
            if n.prior is not None or n.obs is not None:
                problems.append((n.id, "deterministic nodes carry no prior or observation"))
            refs = variables(n.expr)
            if not refs:
                problems.append((n.id, "expression references no variables"))
            if set(n.parents) != set(refs):
                problems.append(
                    (n.id, f"parents {n.parents} do not match expression variables {refs}")
                )
            for ref in refs:
                if ref == n.id:
                    problems.append((n.id, "expression references the node itself"))
                elif ref not in declared:
                    problems.append((n.id, f"expression references undeclared node {ref!r}"))
                elif declared[ref].kind == EVIDENCE:
                    problems.append((n.id, f"expression references evidence node {ref!r}"))
        else:  # EVIDENCE
            if n.obs is None:
                problems.append((n.id, "evidence nodes require an observation"))
                continue
            if n.transform is not None or n.prior is not None or n.expr is not None:
                problems.append(
                    (n.id, "evidence nodes carry no transform, prior, or expression")
                )
            if len(n.parents) != 1:
                problems.append((n.id, "evidence nodes require exactly one parent"))
                continue
            parent = n.parents[0]
            if parent not in declared:
                problems.append((n.id, f"parent {parent!r} is not declared"))
            elif declared[parent].kind == EVIDENCE:
                problems.append((n.id, "evidence cannot attach to another evidence node"))
            else:
                pt = declared[parent].transform
                if n.obs.variant == BINOMIAL and pt.kind != LOGISTIC_SCALED:
                    problems.append(
                        (n.id, "binomial evidence requires a logistic_scaled parent")
                    )
                if n.obs.lognormal_samples and pt.kind != LOG_SCALED:
                    problems.append(
                        (n.id, "raw-sample evidence requires a log_scaled parent")
                    )

    if not problems:
        try:
            topological_order(d)
        except CycleError as err:
            problems.append((err.cycle[0], str(err)))
    return problems


def ensure_valid(d: Diagram) -> None:
    """Raise :class:`InvalidDiagramError` unless :func:`validate` is clean."""
    problems = validate(d)
    if problems:
        raise InvalidDiagramError(problems)


def topological_order(d: Diagram) -> list[str]:
    """Ids of all nodes, parents before children.

    Ties are broken by declaration order, so the result is deterministic
    for a given diagram.  Raises :class:`CycleError` when no such order
    exists, naming one cycle.
    """
    index = {nid: i for i, nid in enumerate(d.nodes)}
    pending = {nid: {p for p in n.parents if p in d.nodes} for nid, n in d.nodes.items()}
    children: dict[str, list[str]] = {nid: [] for nid in d.nodes}
    for nid, parents in pending.items():
        for p in parents:
            children[p].append(nid)

    ready = [index[nid] for nid, parents in pending.items() if not parents]
    heapq.heapify(ready)
    ids = list(d.nodes)
    order: list[str] = []
    while ready:
        nid = ids[heapq.heappop(ready)]
        order.append(nid)
        for child in children[nid]:
            pending[child].discard(nid)
            if not pending[child]:
                heapq.heappush(ready, index[child])

    if len(order) < len(d.nodes):
        remaining = d.nodes.keys() - set(order)
        # walk parent links inside the remaining set until a node repeats
        first = next(nid for nid in d.nodes if nid in remaining)
        trail = [first]
        seen = {first}
        while True:
            nxt = next(p for p in d.nodes[trail[-1]].parents if p in remaining)
            if nxt in seen:
                start = trail.index(nxt)
                raise CycleError(trail[start:] + [nxt])
            trail.append(nxt)
            seen.add(nxt)
    return order


# ---------------------------------------------------------------------------
# Linearizing deterministic nodes, and recognizing exactly linear ones


def point_value(node: Node, env: dict[str, float]) -> float:
    """``f(env)`` of a deterministic node; ``ValueError`` if undefined or off its support."""
    return _on_support(node, eval_expr(node.expr, env))


def _on_support(node: Node, y: float) -> float:
    if not node.transform.contains(y):
        raise ValueError(
            f"value {y} lies outside its transform support {node.transform.support()}"
        )
    return y


def slopes(node: Node, d: Diagram, env: dict[str, float]) -> tuple[float, dict[str, float]]:
    """``f(env)`` and the slopes ``T'(f(env)) * (df/dy_i)(env) / T'_i(env[i])`` by parent i.

    One walk gives both.  Raises ``ValueError`` where :func:`point_value`
    does, and :class:`EvalError` when a partial is not finite at ``env``.
    """
    y, grad = value_and_gradient(node.expr, env)
    t_out = derivative(node.transform, _on_support(node, y))
    out = {}
    for p in node.parents:
        g = grad[p]
        if not math.isfinite(g):
            raise EvalError(f"non-finite slope {g} along {p!r}", format_expr(node.expr))
        out[p] = t_out * g / derivative(d.nodes[p].transform, env[p])
    return y, out


def recognize_linear(node: Node, d: Diagram) -> dict[str, float] | None:
    """Constant transformed-scale coefficients for ``node``, when they exist.

    Detects three shapes whose relation between the node's transformed
    value and its parents' transformed values is exactly affine, so the
    linearization coefficients never change between iterations:

    * affine expressions where node and parents all use ``scaled``;
    * products of powers where node and parents all use ``log_scaled``
      anchored at ``a = 0`` with ``b > 0``;
    * ``g / (g + h)`` odds compositions where node and parents all use
      ``logistic_scaled`` on (0, 1), ``g`` is a product of powers of the
      parents and ``h`` the matching product of their complements.

    Every structural match is double-checked numerically against the
    chain rule at two interior points; any disagreement returns ``None``.
    Returning ``None`` merely means the solver re-linearizes each
    iteration, so unrecognized linear forms cost accuracy nothing.
    """
    if node.kind != DETERMINISTIC:
        return None
    coeffs = _linear_candidate(node, d)
    if coeffs is None:
        return None
    if not _coefficients_check_out(node, d, coeffs):
        return None
    return coeffs


def _linear_candidate(node: Node, d: Diagram) -> dict[str, float] | None:
    t = node.transform
    parents = [d.nodes[p] for p in node.parents]
    if any(p.transform is None for p in parents):
        return None

    if t.kind == SCALED:
        if any(p.transform.kind != SCALED for p in parents):
            return None
        affine = _affine(node.expr)
        if affine is None:
            return None
        return {
            p.id: affine[p.id] * (p.transform.b - p.transform.a) / (t.b - t.a)
            for p in parents
        }

    if t.kind == LOG_SCALED:
        if not (t.a == 0.0 and t.b > 0.0):
            return None
        if any(
            p.transform.kind != LOG_SCALED
            or p.transform.a != 0.0
            or p.transform.b <= 0.0
            for p in parents
        ):
            return None
        powers = _product(node.expr)
        if powers is None:
            return None
        factor, exponents = powers
        if factor <= 0.0:
            return None
        return {p.id: exponents.get(p.id, 0.0) for p in parents}

    if t.kind == LOGISTIC_SCALED:
        if not _unit_logistic(t):
            return None
        if any(
            p.transform.kind != LOGISTIC_SCALED or not _unit_logistic(p.transform)
            for p in parents
        ):
            return None
        return _odds_composition(node.expr)

    return None


def _unit_logistic(t: Transform) -> bool:
    return t.a == 0.0 and t.b == 1.0


def _var(e: Expr) -> str | None:
    return e.name if isinstance(e, Var) else None


def _complement(e: Expr) -> str | None:
    if isinstance(e, Sub) and e.left == Const(1.0) and isinstance(e.right, Var):
        return e.right.name
    return None


def _product(e: Expr, leaf=_var) -> tuple[float, dict[str, float]] | None:
    """Decompose ``e`` as constant * product of leaves^k; None when it is not.

    ``leaf`` names the variable of a leaf factor: ``Var`` by default, or
    ``1 - Var`` with :func:`_complement`.
    """
    if isinstance(e, Const):
        return e.value, {}
    name = leaf(e)
    if name is not None:
        return 1.0, {name: 1.0}
    if isinstance(e, Pow):
        inner = _product(e.base, leaf)
        if inner is None:
            return None
        factor, exps = inner
        if factor < 0.0:
            return None
        return factor**e.exponent, _chain(e.exponent, exps)
    if isinstance(e, (Mul, Div)):
        left = _product(e.left, leaf)
        right = _product(e.right, leaf)
        if left is None or right is None:
            return None
        if isinstance(e, Mul):
            return left[0] * right[0], _sum(left[1], 1.0, right[1], 1.0)
        if right[0] == 0.0:
            return None
        return left[0] / right[0], _sum(left[1], 1.0, right[1], -1.0)
    return None


def _affine(e: Expr) -> dict[str, float] | None:
    """Coefficients of ``e`` by variable when ``e`` is affine; None when it is not.

    Structural: a product is affine only when one factor is free of
    variables, a quotient only when its divisor is, and a power never is.
    """
    if not variables(e):
        return {}
    if isinstance(e, Var):
        return {e.name: 1.0}
    if isinstance(e, Neg):
        inner = _affine(e.operand)
        return None if inner is None else _chain(-1.0, inner)
    if isinstance(e, (Add, Sub)):
        left = _affine(e.left)
        right = _affine(e.right)
        if left is None or right is None:
            return None
        return _sum(left, 1.0, right, 1.0 if isinstance(e, Add) else -1.0)
    if not isinstance(e, (Mul, Div)):
        return None
    factor, other = e.right, e.left
    if isinstance(e, Mul) and not variables(e.left):
        factor, other = e.left, e.right
    if variables(factor):
        return None
    inner = _affine(other)
    try:
        c = eval_expr(factor, {})
    except EvalError:
        return None
    if inner is None or (isinstance(e, Div) and c == 0.0):
        return None
    return _chain(c if isinstance(e, Mul) else 1.0 / c, inner)


def _odds_composition(e: Expr) -> dict[str, float] | None:
    """Match ``g / (g + h)`` where the odds g/h is a product of parent odds."""
    if not isinstance(e, Div) or not isinstance(e.right, Add):
        return None
    num = e.left
    for g, h in ((e.right.left, e.right.right), (e.right.right, e.right.left)):
        if g != num:
            continue
        gp = _product(g)
        hp = _product(h, _complement)
        if gp is None or hp is None:
            continue
        g_factor, g_exps = gp
        h_factor, h_exps = hp
        if g_factor <= 0.0 or h_factor <= 0.0:
            continue
        if g_exps.keys() != h_exps.keys():
            continue
        if any(g_exps[v] != h_exps[v] for v in g_exps):
            continue
        return dict(g_exps)
    return None


def _coefficients_check_out(node: Node, d: Diagram, coeffs: dict[str, float]) -> bool:
    """Numerically confirm candidate coefficients at two interior points."""
    for x_probe in (-0.4, 0.35):
        env = {}
        for k, pid in enumerate(node.parents):
            pt = d.nodes[pid].transform
            env[pid] = inverse_point(pt, x_probe + 0.07 * k)
        try:
            _, b = slopes(node, d, env)
        except (ValueError, OverflowError):
            return False
        for pid in node.parents:
            if abs(b[pid] - coeffs[pid]) > 1e-9 * max(1.0, abs(coeffs[pid])):
                return False
    return True
