"""Influence-diagram models: expression trees, nodes, and diagram-level checks.

A diagram is a DAG of named nodes of three kinds:

* ``basic`` — an uncertain quantity with a transform and a marginal prior;
* ``deterministic`` — a quantity defined by an arithmetic expression over
  previously declared basic/deterministic nodes, with its own transform;
* ``evidence`` — an observation process attached to exactly one
  basic/deterministic parent.

Expressions are immutable trees supporting evaluation and printing, each
walked as one loop over its post-order sequence, so neither size nor depth
is limited; :func:`value_and_gradient` returns an expression's value and
its partials together, from one walk.  :func:`slopes` (a deterministic
node's support-checked value and transformed-scale slopes) linearizes one
node, and ``_slopes_columns`` linearizes many nodes whose expressions
share an :attr:`Expr.shape` (the operators with slots for the constants
and variables, ``+`` and ``-`` one signed add and ``-c`` a literal) in one
pass over numpy columns, with the bits of the one-node walk.
"""

from __future__ import annotations

import functools
import heapq
import math
from typing import Callable, TypeVar

import numpy as np

from .evidence import BINOMIAL, EvidenceSpec
from .specfun import _Record, _set
from .transforms import (
    LOG_SCALED,
    LOGISTIC_SCALED,
    PriorSpec,
    Transform,
    _TransformArrays,
    derivative,
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
    "slopes",
]

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Expression trees


class Expr(_Record):
    """Base class for expression nodes, which keep a ``__dict__`` for their cached walks."""

    def __str__(self) -> str:
        return format_expr(self)

    @functools.cached_property
    def postorder(self) -> tuple[Expr, ...]:
        """The tree's nodes, operands before their operator and left before right.

        Every walk over an expression is one loop over this sequence.  It is
        built on first use: building it at construction would cost O(n^2).
        """
        order, pending = [], [self]
        while pending:  # a pre-order that visits right before left, reversed
            order.append(pending.pop())
            pending.extend(_operands(order[-1]))
        return tuple(reversed(order))

    @functools.cached_property
    def shape(self) -> tuple[tuple[tuple, ...], tuple[float, ...], tuple[str, ...]]:
        """The tree with slots for its leaves: ``(ops, constants, variables)``.

        ``ops`` labels :attr:`postorder` node by node: ``(Const, j)`` reads
        constant slot j and ``(Var, s)`` variable slot s; ``(Pow, exponent)``
        and ``(type, None)`` are the other operators.  ``u + v`` and ``u - v``
        are one signed add ``u + s * v``, ``(_SignedAdd, j)``, whose sign s,
        1.0 or -1.0, is constant slot j, and a negation of a literal is no op:
        the literal takes the sign.  IEEE arithmetic gives ``u - v`` as ``u +
        (-1.0) * v`` and ``-c`` as the literal ``-c`` bit for bit, so trees
        with equal ``ops`` are walked as one tape by
        :func:`_value_and_gradient_columns` with the values in their slots.
        Constants and signs take their slots in post-order, variables theirs
        by first occurrence, so a repeated variable is one slot.
        """
        ops, consts, names = [], [], {}
        for n in self.postorder:
            op = type(n)
            if op is Const:
                ops.append((Const, len(consts)))
                consts.append(n.value)
            elif op is Var:
                ops.append((Var, names.setdefault(n.name, len(names))))
            elif op is Neg and ops[-1][0] is Const:  # the operand is the literal just read
                consts[-1] = -consts[-1]
            elif op is Add or op is Sub:
                ops.append((_SignedAdd, len(consts)))
                consts.append(1.0 if op is Add else -1.0)
            else:
                ops.append((op, getattr(n, "exponent", None)))
        return tuple(ops), tuple(consts), tuple(names)


class _SignedAdd:
    """The op ``u + s * v`` of a shape, its sign s (1.0 or -1.0) in a constant slot."""


def _operands(e: Expr) -> tuple[Expr, ...]:
    """The direct subexpressions of ``e``, left to right."""
    if isinstance(e, _Binary):
        return e.left, e.right
    if isinstance(e, _Unary):
        return (e.operand,)
    return (e.base,) if isinstance(e, Pow) else ()


def _fold(e: Expr, step: Callable[[Expr, list], T]) -> T:
    """``step(node, its operands' results)`` at each node of ``e``; the root's result."""
    stack: list[T] = []
    for n in e.postorder:
        k = len(stack) - len(_operands(n))
        stack[k:] = [step(n, stack[k:])]
    return stack[0]


class Const(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        _set(self, "value", value)


class Var(Expr):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)


class Pow(Expr):
    """base raised to a fixed real exponent (the exponent is not an Expr)."""

    __slots__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: float):
        _set(self, "base", base)
        _set(self, "exponent", exponent)


class _Unary(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        _set(self, "operand", operand)


class _Binary(Expr):
    __slots__ = ("left", "right")

    def __init__(self, left: Expr, right: Expr):
        _set(self, "left", left)
        _set(self, "right", right)


class Neg(_Unary):
    """-operand"""


class Exp(_Unary):
    """exp(operand)"""


class Ln(_Unary):
    """ln(operand)"""


class Add(_Binary):
    """left + right"""


class Sub(_Binary):
    """left - right"""


class Mul(_Binary):
    """left * right"""


class Div(_Binary):
    """left / right"""


class EvalError(ValueError):
    """Expression evaluation hit an undefined or non-finite operation.

    ``subexpression`` is the offending subtree, already formatted.
    """

    def __init__(self, message: str, subexpression: str):
        super().__init__(f"{message} in {subexpression}")
        self.subexpression = subexpression


def variables(e: Expr) -> tuple[str, ...]:
    """Variable names referenced by ``e``, by first appearance: its :attr:`Expr.shape`'s slots."""
    return e.shape[2]


def value_and_gradient(e: Expr, env: dict[str, float]) -> tuple[float, dict[str, float]]:
    """Value of ``e`` and its partials by variable at ``env``, from one walk.

    Each subexpression carries its value and its partials together
    (forward mode).  Raises :class:`EvalError` for unbound variables,
    division by zero, logs of non-positive values, invalid powers, and
    non-finite values.  Partials are never checked here, so a point where
    the value is defined but a slope is not (``x^0.5`` at 0) gives an
    infinite or NaN partial instead of an error; :func:`slopes` rejects it.
    """
    # The solver's hot path has its own loop: a step call per node (_fold) is 1.8x slower.
    stack: list[tuple[float, dict[str, float]]] = []  # each operand's value and partials
    for n in e.postorder:
        if isinstance(n, Const):
            stack.append((n.value, {}))
        elif isinstance(n, Var):
            if n.name not in env:
                raise EvalError(f"unbound variable {n.name!r}", format_expr(n))
            stack.append((float(env[n.name]), {n.name: 1.0}))
        elif isinstance(n, _Binary):
            v, dv = stack.pop()
            u, du = stack.pop()
            if isinstance(n, Add):
                stack.append((_finite(u + v, n), _sum(du, 1.0, dv, 1.0)))
            elif isinstance(n, Sub):
                stack.append((_finite(u - v, n), _sum(du, 1.0, dv, -1.0)))
            elif isinstance(n, Mul):
                stack.append((_finite(u * v, n), _sum(du, v, dv, u)))
            elif v == 0.0:
                raise EvalError("division by zero", format_expr(n))
            else:
                value = _finite(u / v, n)
                stack.append((value, _sum(du, 1.0 / v, dv, -value / v)))
        elif isinstance(n, Neg):
            u, du = stack.pop()
            stack.append((-u, _chain(-1.0, du)))
        elif isinstance(n, Exp):
            u, du = stack.pop()
            if u > 709.0:
                raise EvalError("exp overflow", format_expr(n))
            value = math.exp(u)
            stack.append((value, _chain(value, du)))
        elif isinstance(n, Ln):
            u, du = stack.pop()
            if u <= 0.0:
                raise EvalError(f"log of non-positive value {u}", format_expr(n))
            stack.append((math.log(u), _chain(1.0 / u, du)))
        elif isinstance(n, Pow):
            base, db = stack.pop()
            k = n.exponent
            if base == 0.0 and k < 0.0:
                raise EvalError("zero raised to a negative power", format_expr(n))
            if base < 0.0 and k != round(k):
                raise EvalError("negative base with non-integer exponent", format_expr(n))
            slope = k * _power(base, k - 1.0) if k != 0.0 else 0.0
            stack.append((_finite(_power(base, k), n), _chain(slope, db)))
        else:
            raise TypeError(f"not an expression: {n!r}")
    return stack.pop()


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


# Maps from variable to partial combine linearly: _chain scales one, _sum
# adds two with weights.  Both update their first map in place, so no two
# stack entries of a walk share a map.
# _value_and_gradient_columns keys its maps by slot, and its weights and
# partials may be numpy columns.


def _chain(c: float, grad: dict[str, float]) -> dict[str, float]:
    if (c == 1.0) is not True:  # scaling by exactly 1 changes no bit; a column always scales
        for v, g in grad.items():
            grad[v] = c * g
    return grad


def _sum(a: dict[str, float], ca: float, b: dict[str, float], cb: float) -> dict[str, float]:
    """``ca * a + cb * b``, e.g. the partials of ``ca * u + cb * v`` from those of u and v."""
    out = _chain(ca, a)
    for v, g in b.items():
        out[v] = out.get(v, 0.0) + cb * g
    return out


def _value_and_gradient_columns(
    ops: tuple[tuple, ...], consts: np.ndarray, env: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`value_and_gradient` of k trees of one shape: ``(value, partials, failed)``.

    The trees share the :attr:`Expr.shape` ``ops``, whose signed add
    ``(_SignedAdd, j)`` reads its sign from constant slot j;
    tree i holds ``consts[j, i]`` in constant slot j and ``env[i, s]`` in
    variable slot s.  Each operation runs once, over columns of the k trees,
    with the products and sums of the scalar walk in its order (``exp``,
    ``ln`` and ``**`` through :mod:`math`, whose rounding numpy's do not
    share), so ``value[i]`` and the partials ``partials[i, s]`` are the
    scalar walk's bit for bit; the signed add gives ``u + v`` and ``u - v``
    and their partials ``_sum(du, 1.0, dv, ±1.0)`` as the walk does.  Each
    check of the scalar walk is a mask instead: ``failed`` is True exactly
    where that walk raises, and those trees' entries are meaningless.
    """
    failed = np.zeros(len(env), dtype=bool)
    checked = []  # the values the scalar walk checks are finite, tested at the end
    stack: list[tuple[np.ndarray, dict[int, np.ndarray | float]]] = []
    with np.errstate(all="ignore"):
        for op, arg in ops:
            if op is Const:
                stack.append((consts[arg], {}))
            elif op is Var:
                stack.append((env[:, arg], {arg: 1.0}))
            elif op is Neg:
                u, du = stack.pop()
                stack.append((-u, _chain(-1.0, du)))
            elif op is Exp:
                u, du = stack.pop()
                failed |= u > 709.0
                value = np.array([math.inf if x > 709.0 else math.exp(x) for x in u.tolist()])
                stack.append((value, _chain(value, du)))
            elif op is Ln:
                u, du = stack.pop()
                failed |= u <= 0.0
                value = np.array([math.log(x) if x > 0.0 else math.nan for x in u.tolist()])
                stack.append((value, _chain(1.0 / u, du)))
            elif op is Pow:
                base, db = stack.pop()
                bases = base.tolist()
                if arg < 0.0:
                    failed |= base == 0.0
                if not (math.isfinite(arg) and arg == round(arg)):
                    failed |= base < 0.0
                    bases = [math.nan if x < 0.0 else x for x in bases]  # not complex powers
                value = np.array([_power(x, arg) for x in bases])
                slope = np.array([arg * _power(x, arg - 1.0) for x in bases]) if arg != 0.0 else 0.0
                checked.append(value)
                stack.append((value, _chain(slope, db)))
            else:
                v, dv = stack.pop()
                u, du = stack.pop()
                if op is _SignedAdd:
                    sign = consts[arg]
                    value, grad = u + sign * v, _sum(du, 1.0, dv, sign)
                elif op is Mul:
                    value, grad = u * v, _sum(du, v, dv, u)
                else:
                    failed |= v == 0.0
                    value = u / v
                    grad = _sum(du, 1.0 / v, dv, -value / v)
                checked.append(value)
                stack.append((value, grad))
    if checked:
        failed |= ~np.isfinite(checked).all(axis=0)
    value, grad = stack.pop()
    partials = np.empty((len(env), len(grad)))
    for s, g in grad.items():
        partials[:, s] = g
    return value, partials, failed


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_UNARY = 3
_PREC_POW = 4
_PREC_ATOM = 5
_INFIX = {Add: ("+", _PREC_ADD), Sub: ("-", _PREC_ADD), Mul: ("*", _PREC_MUL), Div: ("/", _PREC_MUL)}


def format_expr(e: Expr) -> str:
    """Render an expression with minimal parentheses."""

    def step(n: Expr, args: list[tuple[str, int]]) -> tuple[str, int]:  # text and precedence
        if isinstance(n, Const):
            return _literal(n.value), _PREC_ATOM
        if isinstance(n, Var):
            return n.name, _PREC_ATOM
        if isinstance(n, _Binary):
            op, prec = _INFIX[type(n)]
            # the right side is wrapped at the same level too, e.g. a - (b + c)
            return f"{_wrap(args[0], prec)} {op} {_wrap(args[1], prec + 1)}", prec
        if isinstance(n, Neg):
            return f"-{_wrap(args[0], _PREC_UNARY)}", _PREC_UNARY
        if isinstance(n, Pow):
            return f"{_wrap(args[0], _PREC_ATOM)}^{_literal(n.exponent)}", _PREC_POW
        if isinstance(n, (Exp, Ln)):
            return f"{'exp' if isinstance(n, Exp) else 'ln'}({args[0][0]})", _PREC_ATOM
        raise TypeError(f"not an expression: {n!r}")

    return _fold(e, step)[0]


def _wrap(operand: tuple[str, int], floor: int) -> str:
    """An operand's text, in parentheses if it binds less tightly than ``floor``."""
    text, prec = operand
    return f"({text})" if prec < floor else text


def _literal(x: float) -> str:
    return repr(x) if x >= 0 else f"({x!r})"


# ---------------------------------------------------------------------------
# Nodes and diagrams


BASIC = "basic"
DETERMINISTIC = "deterministic"
EVIDENCE = "evidence"
NODE_KINDS = (BASIC, DETERMINISTIC, EVIDENCE)


class Node(_Record):
    """One diagram node.  Use :func:`basic` / :func:`deterministic` /
    :func:`evidence` to construct the three kinds."""

    __slots__ = ("id", "kind", "parents", "transform", "prior", "expr", "obs")

    def __init__(
        self, id: str, kind: str, parents: tuple[str, ...] = (), transform: Transform | None = None,
        prior: PriorSpec | None = None, expr: Expr | None = None, obs: EvidenceSpec | None = None,
    ):
        _set(self, "id", id)
        _set(self, "kind", kind)
        _set(self, "parents", parents)
        _set(self, "transform", transform)
        _set(self, "prior", prior)
        _set(self, "expr", expr)
        _set(self, "obs", obs)


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


class Diagram(_Record):
    """An ordered collection of nodes keyed by id.

    Construct with :meth:`from_nodes`, which preserves declaration order
    and rejects duplicate ids.
    """

    __slots__ = ("nodes",)
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__
    __hash__ = None  # mutable, so unhashable

    def __init__(self, nodes: dict[str, Node] | None = None):
        self.nodes = {} if nodes is None else nodes

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
            if n.prior.transform is not n.transform and n.prior.transform != n.transform:
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
            if n.parents != refs and set(n.parents) != set(refs):
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
    exists, naming one cycle.  Parents that are not declared are ignored.

    Cost: O(nodes + arcs) when every declared parent is declared before its
    child, for then the order is the declaration order (the smallest order
    by declaration index, which is what the heap below returns).  Otherwise
    a min-heap Kahn sort, O((nodes + arcs) log nodes).
    """
    if _parents_first(d):
        return list(d.nodes)
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


def _parents_first(d: Diagram) -> bool:
    """Whether every declared parent is declared before its child (not itself)."""
    seen: set[str] = set()
    for nid, n in d.nodes.items():
        for p in n.parents:
            if p not in seen and p in d.nodes:
                return False
        seen.add(nid)
    return True


# ---------------------------------------------------------------------------
# Linearizing deterministic nodes


def slopes(node: Node, d: Diagram, env: dict[str, float]) -> tuple[float, dict[str, float]]:
    """``f(env)`` and the slopes ``T'(f(env)) * (df/dy_i)(env) / T'_i(env[i])`` by parent i.

    One walk gives both.  Raises ``ValueError`` where f is undefined at
    ``env`` or its value lies off the node's transform support, and
    :class:`EvalError` when a partial is not finite there.
    """
    y, grad = value_and_gradient(node.expr, env)
    if not node.transform.contains(y):
        raise ValueError(f"value {y} lies outside its transform support {node.transform.support()}")
    t_out = derivative(node.transform, y)
    out = {}
    for p in node.parents:
        g = grad[p]
        if not math.isfinite(g):
            raise EvalError(f"non-finite slope {g} along {p!r}", format_expr(node.expr))
        out[p] = t_out * g / derivative(d.nodes[p].transform, env[p])
    return y, out


def _slopes_columns(
    ops: tuple[tuple, ...],
    consts: np.ndarray,
    env: np.ndarray,
    own: _TransformArrays,
    parents: _TransformArrays,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`slopes` of k nodes of one shape at once: ``(value, slopes, failed)``.

    Node i's expression is the tree :func:`_value_and_gradient_columns`
    reads from ``ops``, ``consts`` and ``env``, its transform is ``own``'s
    entry i, and the parent in variable slot s has transform
    ``parents``' entry (i, s).  ``value[i]`` and ``slopes[i, s]`` are what
    :func:`slopes` gives, bit for bit, and ``failed`` is True exactly where
    it raises.
    """
    y, grad, failed = _value_and_gradient_columns(ops, consts, env)
    t_out, _ = own.derivative(y)
    t_in, defined = parents.derivative(env)
    failed |= ~own.contains(y) | ~(np.isfinite(grad) & defined).all(axis=1)
    with np.errstate(all="ignore"):
        return y, t_out[:, None] * grad / t_in, failed
