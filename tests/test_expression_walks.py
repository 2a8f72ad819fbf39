"""Every walk over an expression is one loop over its post-order sequence.

The walkers are checked bit for bit against recursive references written
out here, and on trees far deeper than Python's recursion limit allows a
recursive walk to reach.
"""

import ast
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gaussid.model as model
import gaussid.oracle as oracle
from gaussid.cli import EXIT_OK, main, parse_model, serialize_model
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
    Node,
    Pow,
    Sub,
    Var,
    basic,
    deterministic,
    format_expr,
    slopes,
    value_and_gradient,
    variables,
)
from gaussid.oracle import mc_posterior
from gaussid.solver import SolverConfig, solve
from gaussid.transforms import PriorSpec, Transform, _TransformArrays
from helpers import _same_tree

TS = Transform("scaled", 0.0, 1.0)
TLOG = Transform("log_scaled", 0.0, 1.0)

# ---------------------------------------------------------------------------
# Recursive references: one function per walk, each calling itself


def ref_variables(e, seen=None):
    seen = {} if seen is None else seen
    if isinstance(e, Var):
        seen.setdefault(e.name, None)
    for child in _children(e):
        ref_variables(child, seen)
    return tuple(seen)


def _children(e):
    if isinstance(e, (Neg, Exp, Ln)):
        return [e.operand]
    if isinstance(e, Pow):
        return [e.base]
    if isinstance(e, (Add, Sub, Mul, Div)):
        return [e.left, e.right]
    return []


def _ref_chain(c, grad):
    return {v: c * g for v, g in grad.items()}


def _ref_sum(a, ca, b, cb):
    out = _ref_chain(ca, a)
    for v, g in b.items():
        out[v] = out.get(v, 0.0) + cb * g
    return out


def _ref_power(base, k):
    try:
        return base**k
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _ref_finite(value, e):
    if not math.isfinite(value):
        raise EvalError(f"non-finite result {value}", ref_format(e))
    return value


def ref_value_and_gradient(e, env):
    if isinstance(e, Const):
        return e.value, {}
    if isinstance(e, Var):
        if e.name not in env:
            raise EvalError(f"unbound variable {e.name!r}", ref_format(e))
        return float(env[e.name]), {e.name: 1.0}
    if isinstance(e, Neg):
        u, du = ref_value_and_gradient(e.operand, env)
        return -u, _ref_chain(-1.0, du)
    if isinstance(e, Exp):
        u, du = ref_value_and_gradient(e.operand, env)
        if u > 709.0:
            raise EvalError("exp overflow", ref_format(e))
        value = math.exp(u)
        return value, _ref_chain(value, du)
    if isinstance(e, Ln):
        u, du = ref_value_and_gradient(e.operand, env)
        if u <= 0.0:
            raise EvalError(f"log of non-positive value {u}", ref_format(e))
        return math.log(u), _ref_chain(1.0 / u, du)
    if isinstance(e, Pow):
        base, db = ref_value_and_gradient(e.base, env)
        k = e.exponent
        if base == 0.0 and k < 0.0:
            raise EvalError("zero raised to a negative power", ref_format(e))
        if base < 0.0 and k != round(k):
            raise EvalError("negative base with non-integer exponent", ref_format(e))
        slope = k * _ref_power(base, k - 1.0) if k != 0.0 else 0.0
        return _ref_finite(_ref_power(base, k), e), _ref_chain(slope, db)
    u, du = ref_value_and_gradient(e.left, env)
    v, dv = ref_value_and_gradient(e.right, env)
    if isinstance(e, Add):
        return _ref_finite(u + v, e), _ref_sum(du, 1.0, dv, 1.0)
    if isinstance(e, Sub):
        return _ref_finite(u - v, e), _ref_sum(du, 1.0, dv, -1.0)
    if isinstance(e, Mul):
        return _ref_finite(u * v, e), _ref_sum(du, v, dv, u)
    if v == 0.0:
        raise EvalError("division by zero", ref_format(e))
    value = _ref_finite(u / v, e)
    return value, _ref_sum(du, 1.0 / v, dv, -value / v)


def _ref_fmt(e):
    if isinstance(e, Const):
        return (repr(e.value) if e.value >= 0 else f"({e.value!r})"), 5
    if isinstance(e, Var):
        return e.name, 5
    if isinstance(e, Neg):
        inner, prec = _ref_fmt(e.operand)
        return "-" + (f"({inner})" if prec < 3 else inner), 3
    if isinstance(e, Pow):
        base, prec = _ref_fmt(e.base)
        base = f"({base})" if prec < 5 else base
        k = repr(e.exponent) if e.exponent >= 0 else f"({e.exponent!r})"
        return f"{base}^{k}", 4
    if isinstance(e, (Exp, Ln)):
        return f"{'exp' if isinstance(e, Exp) else 'ln'}({_ref_fmt(e.operand)[0]})", 5
    op, own = {Add: ("+", 1), Sub: ("-", 1), Mul: ("*", 2), Div: ("/", 2)}[type(e)]
    left, lp = _ref_fmt(e.left)
    right, rp = _ref_fmt(e.right)
    left = f"({left})" if lp < own else left
    right = f"({right})" if rp <= own else right
    return f"{left} {op} {right}", own


def ref_format(e):
    return _ref_fmt(e)[0]


def ref_eval_array(e, env):
    if isinstance(e, Const):
        return np.asarray(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        return -ref_eval_array(e.operand, env)
    if isinstance(e, Pow):
        return ref_eval_array(e.base, env) ** e.exponent
    if isinstance(e, Exp):
        return np.exp(ref_eval_array(e.operand, env))
    if isinstance(e, Ln):
        return np.log(ref_eval_array(e.operand, env))
    u, v = ref_eval_array(e.left, env), ref_eval_array(e.right, env)
    if isinstance(e, Add):
        return u + v
    if isinstance(e, Sub):
        return u - v
    if isinstance(e, Mul):
        return u * v
    return u / v


# ---------------------------------------------------------------------------
# Bit-for-bit comparison


def _bits(x):
    return struct.pack("<d", x)


def _map_bits(m):
    return None if m is None else [(k, _bits(v)) for k, v in m.items()]


def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the text of the EvalError it raises."""
    try:
        return "ok", fn(*args)
    except EvalError as err:
        return "error", str(err)


_VARS = ("a", "b", "c")
_leaves = st.one_of(
    st.builds(Const, st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.5, 1e300]) | st.floats(-3.0, 3.0)),
    st.builds(Var, st.sampled_from(_VARS)),
)
_exponents = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 3.0])
_UNARY = (Neg, Exp, Ln, Pow)
_BINARY = (Add, Sub, Mul, Div)


@st.composite
def trees(draw):
    """Random trees built as postfix programs of up to 30 steps, so up to
    about 30 levels deep."""
    stack = [draw(_leaves)]
    steps = draw(st.integers(0, 30))
    ops = ["leaf", *_UNARY, *_BINARY]
    for op in draw(st.lists(st.sampled_from(ops), min_size=steps, max_size=steps)):
        if op == "leaf":
            stack.append(draw(_leaves))
        elif op is Pow:
            stack[-1] = Pow(stack[-1], draw(_exponents))
        elif op in _UNARY:
            stack[-1] = op(stack[-1])
        elif len(stack) > 1:
            right = stack.pop()
            stack[-1] = op(stack[-1], right)
    while len(stack) > 1:
        right = stack.pop()
        stack[-1] = draw(st.sampled_from(_BINARY))(stack[-1], right)
    return stack[0]


@settings(max_examples=400, deadline=None)
@given(
    trees(),
    trees(),
    st.dictionaries(st.sampled_from(_VARS), st.floats(-2.0, 2.0), min_size=2),
    st.integers(0, 2**32 - 1),
)
def test_every_walker_matches_its_recursive_reference(e, other, env, seed):
    got, want = _outcome(value_and_gradient, e, env), _outcome(ref_value_and_gradient, e, env)
    assert got[0] == want[0]
    if got[0] == "error":  # the same check fails first, with the same text
        assert got[1] == want[1]
    else:
        assert _bits(got[1][0]) == _bits(want[1][0])
        assert _map_bits(got[1][1]) == _map_bits(want[1][1])

    assert format_expr(e) == ref_format(e) == str(e)
    assert variables(e) == ref_variables(e)

    rng = np.random.default_rng(seed)
    arrays = {v: rng.uniform(-2.0, 2.0, size=4) for v in _VARS}
    with np.errstate(all="ignore"):
        got_array = np.broadcast_to(oracle._eval_array(e, arrays), (4,)).astype(float)
        want_array = np.broadcast_to(ref_eval_array(e, arrays), (4,)).astype(float)
    assert got_array.tobytes() == want_array.tobytes()

    assert _same_tree(e, other) == (e == other)
    assert _same_tree(e, _rebuilt(e))

    # The tape: trees of e's shape, with other literals and signs, walked
    # together over a column of environments; a tree it marks failed is
    # walked again on its own, which names the error.
    ops, consts, names = e.shape
    assert _from_shape(ops, consts, names) == ref_signed_literals(e)
    signs = {arg for op, arg in ops if op is model._SignedAdd}
    members = [(consts, {v: env.get(v, 0.5) for v in names})]
    for _ in range(5):
        other_consts = tuple(
            float(rng.choice((1.0, -1.0) if j in signs else _SLOT_VALUES))
            for j in range(len(consts))
        )
        members.append((other_consts, {v: float(rng.choice(_SLOT_VALUES)) for v in names}))
    value, partials, failed = model._value_and_gradient_columns(
        ops,
        np.array([c for c, _ in members]).reshape(len(members), len(consts)).T,
        np.array([[m[v] for v in names] for _, m in members]).reshape(len(members), len(names)),
    )
    for i, (member_consts, member_env) in enumerate(members):
        tree = _from_shape(ops, member_consts, names)
        want = _outcome(ref_value_and_gradient, tree, member_env)
        assert failed[i] == (want[0] == "error")
        if failed[i]:
            assert _outcome(value_and_gradient, tree, member_env) == want
        else:
            assert _bits(value[i]) == _bits(want[1][0])
            assert {v: _bits(partials[i, s]) for s, v in enumerate(names)} == dict(
                _map_bits(want[1][1])
            )


# Constants and variable values for the tape's other trees: edge values for
# every check, and ordinary ones.
_SLOT_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -1.5, 710.0, 1e300, 0.3, -0.7, 1.9]


def _from_shape(ops, consts, names):
    """The tree without negated literals whose :attr:`~gaussid.model.Expr.shape`
    is ``(ops, consts, names)``: a signed add is ``+`` for the sign 1.0 and
    ``-`` for -1.0."""
    stack = []
    for op, arg in ops:
        if op is Const:
            stack.append(Const(consts[arg]))
        elif op is Var:
            stack.append(Var(names[arg]))
        elif op is Pow:
            stack.append(Pow(stack.pop(), arg))
        elif op in (Neg, Exp, Ln):
            stack.append(op(stack.pop()))
        else:
            if op is model._SignedAdd:
                op = {1.0: Add, -1.0: Sub}[consts[arg]]
            right = stack.pop()
            stack.append(op(stack.pop(), right))
    return stack.pop()


def ref_signed_literals(e):
    """``e`` with each negation of a literal, however deep, folded into the literal."""
    if isinstance(e, Neg):
        operand = ref_signed_literals(e.operand)
        return Const(-operand.value) if isinstance(operand, Const) else Neg(operand)
    if isinstance(e, Pow):
        return Pow(ref_signed_literals(e.base), e.exponent)
    if isinstance(e, (Const, Var)):
        return e
    return type(e)(*map(ref_signed_literals, _children(e)))


# ---------------------------------------------------------------------------
# Trees that differ only in + against - and in negated literals share one
# shape, and so one tape


@st.composite
def shape_variants(draw, e):
    """A tree of ``e``'s shape: each ``+`` or ``-`` either way, each literal
    negated or not whatever ``e`` has, and its literals' values drawn anew."""
    stack = []
    for n in e.postorder:
        if isinstance(n, Const):
            literal = Const(draw(st.sampled_from(_SLOT_VALUES)))
            stack.append(Neg(literal) if draw(st.booleans()) else literal)
        elif isinstance(n, Var):
            stack.append(n)
        elif isinstance(n, Neg) and isinstance(n.operand, Const):
            continue  # the literal drew its own sign
        elif isinstance(n, Pow):
            stack.append(Pow(stack.pop(), n.exponent))
        elif isinstance(n, _UNARY):
            stack.append(type(n)(stack.pop()))
        else:
            right = stack.pop()
            op = draw(st.sampled_from((Add, Sub))) if isinstance(n, (Add, Sub)) else type(n)
            stack.append(op(stack.pop(), right))
    return stack.pop()


_TRANSFORMS = [
    TS,
    TLOG,
    Transform("logistic_scaled", -1.0, 2.0),
    Transform("log_scaled", 1.0, -1.0),
]


def check_one_tape(members, envs, own, ins):
    """One columns pass over ``members`` gives each its own walks' bits.

    Member i is node q of a diagram whose transform is ``own`` and whose
    variables (:func:`variables` of ``members[0]``) are parameters with the
    transforms ``ins``; it is walked at ``envs[i]``."""
    names = variables(members[0])
    (ops,) = {m.shape[0] for m in members}
    assert {m.shape[2] for m in members} == {names}
    for m in members:
        assert _from_shape(*m.shape) == ref_signed_literals(m)  # the slots hold m's values
    k = len(members)
    consts = np.array([m.shape[1] for m in members]).reshape(k, -1).T
    env = np.array([[x[v] for v in names] for x in envs]).reshape(k, len(names))
    value, partials, walk_failed = model._value_and_gradient_columns(ops, consts, env)
    y, slopes_bits, failed = model._slopes_columns(
        ops,
        consts,
        env,
        _TransformArrays.of([own] * k, (k,)),
        _TransformArrays.of(list(ins) * k, (k, len(names))),
    )
    parents = [Node(id=v, kind="basic", transform=t) for v, t in zip(names, ins)]
    for i, (m, x) in enumerate(zip(members, envs)):
        walk = _outcome(value_and_gradient, m, x)
        assert walk_failed[i] == (walk[0] == "error")
        if walk[0] == "ok":
            assert _bits(value[i]) == _bits(walk[1][0])
            assert {v: _bits(partials[i, s]) for s, v in enumerate(names)} == dict(
                _map_bits(walk[1][1])
            )
        d = Diagram.from_nodes(parents + [deterministic("q", own, m)])
        try:
            want = slopes(d.node("q"), d, x)
        except ValueError:
            assert failed[i]
        else:
            assert not failed[i]
            assert _bits(y[i]) == _bits(want[0])
            assert [_bits(b) for b in slopes_bits[i]] == [_bits(want[1][v]) for v in names]


@settings(max_examples=300, deadline=None)
@given(trees(), st.data())
def test_plus_minus_and_negated_literals_share_one_tape(e, data):
    names = variables(e)
    assume(names)  # a deterministic node reads at least one parameter
    members = [e] + [data.draw(shape_variants(e)) for _ in range(4)]
    values = st.sampled_from(_SLOT_VALUES)
    envs = [{v: data.draw(values) for v in names} for _ in members]
    own = data.draw(st.sampled_from(_TRANSFORMS))
    ins = [data.draw(st.sampled_from(_TRANSFORMS)) for _ in names]
    check_one_tape(members, envs, own, ins)


def test_every_slot_value_goes_through_a_shape_tape():
    # Each edge value, -0.0 among them, in every literal and variable of
    # trees that differ in + against - and in negated literals.
    a, b = Var("a"), Var("b")

    def members(c):
        x = Const(c)
        return [
            Ln(Add(Mul(x, a), Neg(Pow(Sub(b, Neg(x)), 2.0)))),
            Ln(Sub(Mul(Neg(x), a), Neg(Pow(Add(b, x), 2.0)))),
            Ln(Add(Mul(Neg(Neg(x)), a), Neg(Pow(Sub(b, x), 2.0)))),
        ]

    assert any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in _SLOT_VALUES)
    for c in _SLOT_VALUES:
        trees = members(c)
        for v in _SLOT_VALUES:
            envs = [{"a": v, "b": w} for w in (v, 0.5, -v)]
            for own in _TRANSFORMS:
                check_one_tape(trees, envs, own, [TS, own])


def _rebuilt(e):
    """An equal tree that shares no node with ``e``."""
    if isinstance(e, Const):
        return Const(e.value)
    if isinstance(e, Var):
        return Var(e.name)
    if isinstance(e, Pow):
        return Pow(_rebuilt(e.base), e.exponent)
    return type(e)(*map(_rebuilt, _children(e)))


def test_a_power_that_overflows_is_an_eval_error():
    e = Pow(Mul(Const(1e300), Var("x")), 2.0)
    for walk in (value_and_gradient, model.eval_expr):
        with pytest.raises(EvalError, match="non-finite result inf") as exc:
            walk(e, {"x": 1.0})
        assert exc.value.subexpression == format_expr(e)


def test_postorder_lists_operands_first_left_to_right():
    x, y = Var("x"), Var("y")
    e = Sub(Mul(x, Const(2.0)), Neg(y))
    assert e.postorder == (x, Const(2.0), e.left, y, e.right, e)
    assert e.postorder is e.postorder  # built once


# ---------------------------------------------------------------------------
# Trees deeper than a recursive walk can reach


def _normal(nid):
    return basic(nid, PriorSpec(family="normal", transform=TS, mean=0.0, variance=1.0))


def _lognormal(nid):
    return basic(nid, PriorSpec(family="lognormal", transform=TLOG, mean=1.0, variance=0.01))


def _walk_everything(e, d, node_id):
    """Run every walker on ``e`` (node ``node_id`` of ``d``) with each variable
    at 1; return the value, the partials, the text and the node's slopes."""
    env = {p: 1.0 for p in variables(e)}
    value, grad = value_and_gradient(e, env)
    arrays = {p: np.full(3, 1.0) for p in env}
    assert oracle._eval_array(e, arrays).tolist() == [value] * 3
    assert _same_tree(e, e)
    text = format_expr(e)
    y, node_slopes = slopes(d.node(node_id), d, env)
    assert y == value
    return value, grad, text, node_slopes


def test_a_5000_term_sum_walks_without_recursion():
    n = 5000
    e = Var("x0")
    for i in range(1, n):
        e = Add(e, Var(f"x{i}"))
    d = Diagram.from_nodes([*(_normal(f"x{i}") for i in range(n)), deterministic("s", TS, e)])
    value, grad, text, node_slopes = _walk_everything(e, d, "s")
    assert value == n and list(grad) == [f"x{i}" for i in range(n)]
    assert set(grad.values()) == {1.0}
    assert text == " + ".join(f"x{i}" for i in range(n))
    assert node_slopes == grad


def test_a_5000_deep_negation_walks_without_recursion():
    e = Var("x")
    for _ in range(5000):
        e = Neg(e)
    d = Diagram.from_nodes([_normal("x"), deterministic("y", TS, e)])
    value, grad, text, node_slopes = _walk_everything(e, d, "y")
    assert value == 1.0 and grad == {"x": 1.0}
    assert text == "-" * 5000 + "x"
    assert node_slopes == {"x": 1.0}


def test_a_2000_factor_product_walks_without_recursion():
    # forward-mode partials make a product of n factors O(n^2); on the log
    # scale at 1 the slopes are the exponents
    n = 2000
    e = Var("x0")
    for i in range(1, n):
        e = (Div if i % 2 else Mul)(e, Var(f"x{i}"))
    d = Diagram.from_nodes([*(_lognormal(f"x{i}") for i in range(n)), deterministic("p", TLOG, e)])
    value, grad, text, node_slopes = _walk_everything(e, d, "p")
    exponents = {f"x{i}": -1.0 if i % 2 else 1.0 for i in range(n)}
    assert value == 1.0 and grad == exponents
    assert text == "x0" + "".join(f" {'/' if i % 2 else '*'} x{i}" for i in range(1, n))
    assert node_slopes == exponents


def test_a_document_summing_2000_parameters(tmp_path, capsys):
    """Validates, solves to the analytic linear-Gaussian posterior, runs the
    oracle and round-trips; a recursive walk stops near 1,000 terms."""
    n, y_obs, noise = 2000, 3.0, 2.0
    means = np.linspace(-1.0, 1.0, n)
    variances = np.linspace(0.5, 1.5, n)
    scaled = {"kind": "scaled", "a": 0.0, "b": 1.0}
    nodes = [
        {"id": f"x{i}", "kind": "basic", "transform": scaled,
         "prior": {"family": "normal", "mean": means[i], "variance": variances[i]}}
        for i in range(n)
    ]
    nodes.append({"id": "s", "kind": "deterministic", "transform": scaled,
                  "expr": " + ".join(f"x{i}" for i in range(n))})
    nodes.append({"id": "s_obs", "kind": "evidence", "parent": "s", "evidence": {
        "variant": "normal_known_var", "count": 1, "sample_mean": y_obs, "variance": noise}})
    path = tmp_path / "sum.json"
    path.write_text(json.dumps({"schema_version": "1", "nodes": nodes}))

    assert main(["validate", str(path)]) == EXIT_OK
    d, cfg = parse_model(path)
    result = solve(d, cfg)
    assert result.status == "converged"
    gain = variances / (variances.sum() + noise)
    for i in range(n):
        m = result.posterior_y[f"x{i}"]
        assert m.mean == pytest.approx(means[i] + gain[i] * (y_obs - means.sum()), rel=1e-10)
        assert m.variance == pytest.approx(variances[i] * (1.0 - gain[i]), rel=1e-10)
    s, total = result.posterior_y["s"], variances.sum()
    assert s.mean == pytest.approx(means.sum() + gain.sum() * (y_obs - means.sum()), rel=1e-10)
    assert s.variance == pytest.approx(total * noise / (total + noise), rel=1e-10)

    est = mc_posterior(d, 200, 1)
    assert est.param_ids[-1] == "s" and math.isfinite(est.mean["s"])
    capsys.readouterr()
    assert main(["oracle", str(path), "--samples", "200", "--seed", "1", "--json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["estimates"]["s"]["mean"] == est.mean["s"]

    doc = serialize_model(d, SolverConfig())
    again, _ = parse_model(json.dumps(doc))
    assert serialize_model(again) == doc
    assert _same_tree(again.node("s").expr, d.node("s").expr)


# ---------------------------------------------------------------------------
# No function in the package calls itself, directly or through others

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)
PACKAGE = Path(model.__file__).parent


def _call_graph(source: str) -> dict[str, set[str]]:
    """Which module-level functions and methods of ``source`` each one calls.

    A method is ``Class.name``, reached by ``self.name(...)``,
    ``cls.name(...)`` or ``Class.name(...)``; calling ``Class(...)`` reaches
    its ``__init__`` and ``__post_init__``.  A nested function's calls count
    as its enclosing function's.  A name the function binds itself (a
    parameter, a nested ``def``, an assignment) is not the module-level
    function of that name: ``model._fold``'s ``step`` parameter and the
    nested ``step`` folds are not ``solver.step``.  A nested function that
    calls its own name is a node of its own with an edge to itself.
    """
    tree = ast.parse(source)
    functions, classes = {}, set()
    for top in tree.body:
        if isinstance(top, _DEFS):
            functions[top.name] = top
        elif isinstance(top, ast.ClassDef):
            classes.add(top.name)
            functions.update({f"{top.name}.{f.name}": f for f in top.body if isinstance(f, _DEFS)})
    graph = {}
    for qualname, fn in functions.items():
        owner = qualname.rpartition(".")[0]
        bound = set()
        for sub in ast.walk(fn):
            if isinstance(sub, (*_DEFS, ast.Lambda)):
                a = sub.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
                bound.update(p.arg for p in params if p is not None)
            if isinstance(sub, _DEFS) and sub is not fn:
                bound.add(sub.name)
                if any(isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == sub.name
                       for c in ast.walk(sub)):
                    graph[f"{qualname}.{sub.name}"] = {f"{qualname}.{sub.name}"}
            elif isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                bound.add(sub.id)
        callees = set()
        for call in ast.walk(fn):
            f = call.func if isinstance(call, ast.Call) else None
            if isinstance(f, ast.Name) and f.id not in bound:
                callees.update((f.id, f"{f.id}.__init__", f"{f.id}.__post_init__"))
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                base = f.value.id
                if base in ("self", "cls"):
                    callees.add(f"{owner}.{f.attr}")
                elif base in classes and base not in bound:
                    callees.add(f"{base}.{f.attr}")
        graph[qualname] = callees & functions.keys()
    return graph


def _recursive_functions(source: str) -> list[str]:
    """The functions of ``source`` that reach themselves through calls."""
    graph = _call_graph(source)
    found = []
    for start, callees in graph.items():
        seen, todo = set(), list(callees)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(graph[name])
        if start in seen:
            found.append(start)
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem
)
def test_no_function_calls_itself(path):
    assert _recursive_functions(path.read_text(encoding="utf-8")) == []


def test_the_call_check_sees_cycles_and_not_shadowed_names():
    source = """
class Parser:
    def sum(self):
        return self.term()

    def term(self):
        return self.atom()

    def atom(self):
        return self.sum()

    def flat(self):
        return self.atom()


class Node:
    def __post_init__(self):
        Node(1)


def step(state):
    return fold(state, step)


def fold(e, step):
    return step(e)


def walk(e):
    def step(n):
        return n

    return fold(e, step)


def outer(e):
    def inner(n):
        return inner(n)

    return inner(e)


def ping(n):
    return pong(n)


def pong(n):
    return Parser.flat(n) and ping(n)
"""
    assert _recursive_functions(source) == [
        "Node.__post_init__",
        "Parser.atom",
        "Parser.sum",
        "Parser.term",
        "outer.inner",
        "ping",
        "pong",
    ]
