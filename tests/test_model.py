"""Expression trees, node/diagram validation, topological order, and node slopes."""

import heapq
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gaussid.model as model_mod
from gaussid.cli import parse_expression
from gaussid.evidence import EvidenceSpec
from gaussid.model import (
    BASIC,
    DETERMINISTIC,
    EVIDENCE,
    Add,
    Const,
    CycleError,
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
    ensure_valid,
    eval_expr,
    evidence,
    format_expr,
    slopes,
    topological_order,
    validate,
    value_and_gradient,
    variables,
)
from gaussid.transforms import PriorSpec, Transform, inverse_point

T01 = Transform("logistic_scaled", 0.0, 1.0)
TS = Transform("scaled", 0.0, 1.0)
TLOG = Transform("log_scaled", 0.0, 1.0)


def beta_node(nid, alpha=1.0, beta=1.0, t=T01):
    return basic(nid, PriorSpec(family="beta", transform=t, alpha=alpha, beta=beta))


def normal_node(nid, mean=0.0, var=1.0, t=TS):
    return basic(nid, PriorSpec(family="normal", transform=t, mean=mean, variance=var))


def lognormal_node(nid, mean=1.0, var=0.5, t=TLOG):
    return basic(nid, PriorSpec(family="lognormal", transform=t, mean=mean, variance=var))


PRIOR_Y = PriorSpec(family="normal", transform=TS, mean=0.0, variance=1.0)
Y = basic("y", PRIOR_Y)
LOOK = EvidenceSpec(variant="normal_known_var", count=1, sample_mean=0.5, variance=1.0)
RAW_SAMPLES = EvidenceSpec(
    variant="normal_known_var", variance=1.0, lognormal_samples=True, samples=(1.0, 2.0)
)


def binomial_obs(nid, parent, count=10, successes=7):
    return evidence(
        nid, parent, EvidenceSpec(variant="binomial", count=count, successes=successes)
    )


def reference_variables(e):
    """The variable names of ``e`` by first appearance, by a recursive left-to-right walk."""
    found = {}

    def walk(n):
        if isinstance(n, Var):
            found.setdefault(n.name)
        for field in ("base", "operand", "left", "right"):
            if hasattr(n, field):
                walk(getattr(n, field))

    walk(e)
    return tuple(found)


def _expression_texts():
    leaves = st.sampled_from(["a", "b", "c", "x_1", "2", "0.5"])

    def grow(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(st.sampled_from(["exp", "ln", "-"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda t: f"({t})^2"),
        )

    return st.recursive(leaves, grow, max_leaves=12)


class TestExpressions:
    def test_variables_first_appearance_order(self):
        e = Add(Mul(Var("b"), Var("a")), Sub(Var("b"), Var("c")))
        assert variables(e) == ("b", "a", "c")

    @settings(max_examples=200, deadline=None)
    @given(_expression_texts())
    def test_variables_match_a_first_appearance_walk(self, text):
        e = parse_expression(text)
        assert variables(e) == reference_variables(e)

    def test_eval_basic_arithmetic(self):
        e = Div(Mul(Var("x"), Var("y")), Sub(Const(1.0), Var("y")))
        assert eval_expr(e, {"x": 3.0, "y": 0.5}) == pytest.approx(3.0)

    def test_eval_functions(self):
        e = Add(Exp(Const(0.0)), Ln(Const(math.e)))
        assert eval_expr(e, {}) == pytest.approx(2.0)

    def test_eval_power(self):
        assert eval_expr(Pow(Var("x"), 2.5), {"x": 4.0}) == pytest.approx(32.0)
        assert eval_expr(Pow(Var("x"), -1.0), {"x": 4.0}) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "expr,env",
        [
            (Div(Const(1.0), Var("x")), {"x": 0.0}),
            (Ln(Var("x")), {"x": 0.0}),
            (Ln(Var("x")), {"x": -2.0}),
            (Pow(Var("x"), 0.5), {"x": -1.0}),
            (Pow(Var("x"), -2.0), {"x": 0.0}),
            (Var("missing"), {}),
            (Exp(Var("x")), {"x": 1000.0}),
            (Pow(Var("x"), 2.0), {"x": 1e200}),
        ],
    )
    def test_eval_errors(self, expr, env):
        with pytest.raises(EvalError):
            eval_expr(expr, env)

    def test_eval_error_names_subexpression(self):
        err = None
        try:
            eval_expr(Add(Const(1.0), Div(Var("x"), Var("z"))), {"x": 1.0, "z": 0.0})
        except EvalError as caught:
            err = caught
        assert err is not None
        assert "x / z" in err.subexpression

    def test_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(5)
        exprs = [
            Mul(Var("x"), Var("y")),
            Div(Var("x"), Add(Var("x"), Var("y"))),
            Pow(Add(Var("x"), Const(1.0)), 3.0),
            Exp(Mul(Const(0.5), Var("x"))),
            Ln(Add(Mul(Var("x"), Var("x")), Var("y"))),
            Sub(Neg(Var("x")), Mul(Var("y"), Pow(Var("x"), 2.0))),
        ]
        for e in exprs:
            for _ in range(10):
                env = {"x": float(rng.uniform(0.2, 2.0)), "y": float(rng.uniform(0.2, 2.0))}
                value, grad = value_and_gradient(e, env)
                assert value == eval_expr(e, env)
                for name in ("x", "y"):
                    h = 1e-6
                    hi = dict(env)
                    lo = dict(env)
                    hi[name] += h
                    lo[name] -= h
                    fd = (eval_expr(e, hi) - eval_expr(e, lo)) / (2 * h)
                    assert grad.get(name, 0.0) == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_derivative_of_constant_subtree_folds_away(self):
        e = Mul(Exp(Const(2.0)), Var("x"))
        assert value_and_gradient(e, {"x": 0.3})[1] == {"x": pytest.approx(math.exp(2.0))}

    def test_format_round_trips_precedence(self):
        e = Mul(Add(Var("a"), Var("b")), Var("c"))
        assert format_expr(e) == "(a + b) * c"
        e2 = Sub(Var("a"), Add(Var("b"), Var("c")))
        assert format_expr(e2) == "a - (b + c)"
        e3 = Pow(Var("a"), -2.0)
        assert "a^" in format_expr(e3)


class TestDiagramValidation:
    def test_clean_diagram(self):
        d = Diagram.from_nodes(
            [
                beta_node("p1"),
                beta_node("p2"),
                deterministic("d", Transform("scaled", -1.0, 1.0), Sub(Var("p1"), Var("p2"))),
                binomial_obs("o1", "p1"),
            ]
        )
        assert validate(d) == []
        ensure_valid(d)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Diagram.from_nodes([beta_node("p"), beta_node("p")])

    def test_deterministic_undeclared_reference(self):
        d = Diagram.from_nodes(
            [deterministic("d", TS, Add(Var("ghost"), Const(1.0)))]
        )
        problems = validate(d)
        assert any("ghost" in msg for _, msg in problems)

    def test_evidence_parent_must_exist(self):
        d = Diagram.from_nodes([binomial_obs("o", "nobody")])
        problems = validate(d)
        assert any(nid == "o" and "nobody" in msg for nid, msg in problems)

    def test_evidence_two_parents_rejected(self):
        bad = Node(
            id="o",
            kind="evidence",
            parents=("a", "b"),
            obs=EvidenceSpec(variant="binomial", count=2, successes=1),
        )
        d = Diagram.from_nodes([beta_node("a"), beta_node("b"), bad])
        problems = validate(d)
        assert any(nid == "o" and "exactly one parent" in msg for nid, msg in problems)

    def test_evidence_on_evidence_rejected(self):
        d = Diagram.from_nodes(
            [beta_node("p"), binomial_obs("o1", "p"), binomial_obs("o2", "o1")]
        )
        problems = validate(d)
        assert any(nid == "o2" for nid, msg in problems)

    def test_binomial_needs_logistic_parent(self):
        d = Diagram.from_nodes([normal_node("x"), binomial_obs("o", "x")])
        problems = validate(d)
        assert any("logistic" in msg for _, msg in problems)

    def test_basic_with_parents_rejected(self):
        node = Node(
            id="x",
            kind="basic",
            parents=("y",),
            transform=TS,
            prior=PriorSpec(family="normal", transform=TS, mean=0.0, variance=1.0),
        )
        d = Diagram.from_nodes([normal_node("y"), node])
        problems = validate(d)
        assert any(nid == "x" for nid, _ in problems)

    def test_self_reference_rejected(self):
        d = Diagram.from_nodes([deterministic("d", TS, Add(Var("d"), Const(1.0)))])
        problems = validate(d)
        assert any("itself" in msg for _, msg in problems)

    # One diagram per rule of validate, each breaking it once: the node it
    # names and a fragment of its message.  Invalid nodes are built with Node.
    @pytest.mark.parametrize(
        "nodes,nid,fragment",
        [
            ([Node("x", "chance")], "x", "unknown node kind 'chance'"),
            ([Node("x", BASIC, prior=PRIOR_Y)], "x", "require a transform and a prior"),
            ([Node("x", BASIC, transform=TS)], "x", "require a transform and a prior"),
            (
                [Node("x", BASIC, transform=TS, prior=PRIOR_Y, expr=Const(1.0))],
                "x",
                "carry no expression",
            ),
            ([Node("x", BASIC, transform=TS, prior=PRIOR_Y, obs=LOOK)], "x", "carry no expression"),
            ([Node("x", BASIC, transform=TLOG, prior=PRIOR_Y)], "x", "prior transform differs"),
            (
                [Y, Node("d", DETERMINISTIC, ("y",), expr=Var("y"))],
                "d",
                "require a transform and an expression",
            ),
            (
                [Node("d", DETERMINISTIC, transform=TS)],
                "d",
                "require a transform and an expression",
            ),
            ([Y, Node("d", DETERMINISTIC, ("y",), TS, PRIOR_Y, Var("y"))], "d", "carry no prior"),
            (
                [Y, Node("d", DETERMINISTIC, ("y",), TS, expr=Var("y"), obs=LOOK)],
                "d",
                "carry no prior",
            ),
            ([deterministic("d", TS, Const(1.0))], "d", "references no variables"),
            (
                [Y, normal_node("z"), Node("d", DETERMINISTIC, ("y", "z"), TS, expr=Var("y"))],
                "d",
                "do not match",
            ),
            (
                [Y, evidence("o", "y", LOOK), deterministic("d", TS, Var("o"))],
                "d",
                "evidence node 'o'",
            ),
            ([Y, Node("o", EVIDENCE, ("y",))], "o", "require an observation"),
            ([Y, Node("o", EVIDENCE, ("y",), TS, obs=LOOK)], "o", "carry no transform"),
            ([Y, Node("o", EVIDENCE, ("y",), prior=PRIOR_Y, obs=LOOK)], "o", "carry no transform"),
            ([Y, Node("o", EVIDENCE, ("y",), expr=Var("y"), obs=LOOK)], "o", "carry no transform"),
            (
                [Y, evidence("o", "y", RAW_SAMPLES)],
                "o",
                "raw-sample evidence requires a log_scaled parent",
            ),
            (
                [deterministic("a", TS, Var("b")), deterministic("b", TS, Var("a"))],
                "a",
                "dependency cycle: a -> b -> a",
            ),
        ],
    )
    def test_each_rule_names_its_node(self, nodes, nid, fragment):
        problems = validate(Diagram.from_nodes(nodes))
        assert len(problems) == 1
        assert problems[0][0] == nid and fragment in problems[0][1]

    def test_parents_are_compared_with_the_expression_variables_as_sets(self):
        expr = Add(Mul(Var("z"), Var("y")), Var("z"))
        reordered = Node("d", DETERMINISTIC, ("y", "z"), TS, expr=expr)
        assert validate(Diagram.from_nodes([Y, normal_node("z"), reordered])) == []
        short = Node("d", DETERMINISTIC, ("y",), TS, expr=expr)
        assert validate(Diagram.from_nodes([Y, normal_node("z"), short])) == [
            ("d", "parents ('y',) do not match expression variables ('z', 'y')")
        ]


class TestTopologicalOrder:
    def test_chain_order(self):
        d = Diagram.from_nodes(
            [
                beta_node("p"),
                deterministic("q", T01, Div(Var("p"), Add(Var("p"), Sub(Const(1.0), Var("p"))))),
                binomial_obs("o", "q"),
            ]
        )
        assert topological_order(d) == ["p", "q", "o"]

    def test_declaration_order_breaks_ties(self):
        d = Diagram.from_nodes([beta_node("b"), beta_node("a"), beta_node("c")])
        assert topological_order(d) == ["b", "a", "c"]

    def test_parents_always_precede_children(self):
        d = Diagram.from_nodes(
            [
                normal_node("x1"),
                normal_node("x2"),
                deterministic("s", TS, Add(Var("x1"), Var("x2"))),
                deterministic("t", TS, Add(Var("s"), Var("x1"))),
            ]
        )
        order = topological_order(d)
        assert order.index("x1") < order.index("s") < order.index("t")

    def test_cycle_detected(self):
        d = Diagram.from_nodes(
            [
                deterministic("a", TS, Add(Var("b"), Const(1.0))),
                deterministic("b", TS, Add(Var("a"), Const(1.0))),
            ]
        )
        with pytest.raises(CycleError) as exc:
            topological_order(d)
        assert set(exc.value.cycle) >= {"a", "b"}

    def test_a_child_declared_before_its_parent(self):
        d = Diagram.from_nodes(
            [deterministic("c", TS, Var("b")), normal_node("a"), normal_node("b")]
        )
        assert topological_order(d) == ["a", "b", "c"]

    def test_parents_declared_first_never_touch_the_heap(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the heap was used")

        for name in ("heapify", "heappush", "heappop"):
            monkeypatch.setattr(model_mod.heapq, name, refuse)
        d = Diagram.from_nodes(
            [
                normal_node("x1"),
                normal_node("x2"),
                deterministic("s", TS, Add(Var("x2"), Var("ghost"))),
                deterministic("t", TS, Add(Var("s"), Var("x1"))),
                evidence("o", "t", LOOK),
            ]
        )
        assert topological_order(d) == ["x1", "x2", "s", "t", "o"]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_heap_sort(self, data):
        # Random graphs over n nodes, each parent drawn from the declared
        # nodes (earlier ones only, when parents come first), the node itself
        # or two undeclared ids; then the declaration order is shuffled or not.
        n = data.draw(st.integers(0, 12))
        parents_first = data.draw(st.booleans())
        names = [f"n{i}" for i in range(n)]
        nodes = []
        for i, nid in enumerate(names):
            pool = names[:i] if parents_first else names
            pool = pool + ["ghost", "phantom"]
            parents = data.draw(st.lists(st.sampled_from(pool), max_size=4))
            nodes.append(Node(nid, DETERMINISTIC, tuple(parents)))
        if data.draw(st.booleans()):
            nodes = data.draw(st.permutations(nodes))
        d = Diagram.from_nodes(nodes)
        assert _outcome(topological_order, d) == _outcome(reference_topological_order, d)


def _outcome(sort, d):
    try:
        return "order", sort(d)
    except CycleError as err:
        return "cycle", err.cycle


def reference_topological_order(d):
    """Kahn's sort with a min-heap of declaration indices, and a parent walk to name a cycle."""
    index = {nid: i for i, nid in enumerate(d.nodes)}
    pending = {nid: {p for p in n.parents if p in d.nodes} for nid, n in d.nodes.items()}
    children = {nid: [] for nid in d.nodes}
    for nid, parents in pending.items():
        for p in parents:
            children[p].append(nid)
    ready = [index[nid] for nid, parents in pending.items() if not parents]
    heapq.heapify(ready)
    ids = list(d.nodes)
    order = []
    while ready:
        nid = ids[heapq.heappop(ready)]
        order.append(nid)
        for child in children[nid]:
            pending[child].discard(nid)
            if not pending[child]:
                heapq.heappush(ready, index[child])
    if len(order) < len(d.nodes):
        remaining = d.nodes.keys() - set(order)
        trail = [next(nid for nid in d.nodes if nid in remaining)]
        while True:
            nxt = next(p for p in d.nodes[trail[-1]].parents if p in remaining)
            if nxt in trail:
                raise CycleError(trail[trail.index(nxt):] + [nxt])
            trail.append(nxt)
    return order


def slopes_at(d, node_id, x):
    """``slopes`` of the node with parent k at ``x (1 + (k mod 4) / 4)`` on
    its transformed scale: the parents move apart as well as together with
    ``x``, and stay bounded however many there are."""
    node = d.node(node_id)
    env = {
        p: inverse_point(d.node(p).transform, x * (1.0 + (k % 4) / 4.0))
        for k, p in enumerate(node.parents)
    }
    return slopes(node, d, env)[1]


# Three interior points: two alone can agree on a node that is not linear
# (see the cubic below).
PROBES = (-0.4, 0.35, 0.45)


class TestExactlyLinearSlopes:
    """A node exactly linear on its transformed scale has the same chain-rule
    slopes at every point; any other node's slopes move with the point."""

    def assert_constant(self, d, node_id, want):
        for x in PROBES:
            assert slopes_at(d, node_id, x) == pytest.approx(want, rel=1e-9, abs=0.0)

    def assert_moving(self, d, node_id):
        first, *rest = (slopes_at(d, node_id, x) for x in PROBES)
        assert any(s != pytest.approx(first, rel=1e-6) for s in rest)

    def test_affine_over_scaled(self):
        d = Diagram.from_nodes(
            [
                normal_node("x", t=Transform("scaled", 0.0, 2.0)),
                normal_node("y", t=Transform("scaled", 0.0, 1.0)),
                deterministic(
                    "z",
                    Transform("scaled", 0.0, 4.0),
                    Add(Mul(Const(3.0), Var("x")), Neg(Var("y"))),
                ),
            ]
        )
        # 3 * (2-0)/(4-0) and -1 * (1-0)/(4-0)
        self.assert_constant(d, "z", {"x": 1.5, "y": -0.25})

    @pytest.mark.parametrize(
        "expr,expected",
        [
            (
                Add(
                    Sub(Const(0.3), Mul(Const(0.5), Var("x"))),
                    Mul(Const(0.7), Var("y")),
                ),
                {"x": -0.5, "y": 0.7},
            ),
            (Div(Neg(Sub(Var("x"), Var("y"))), Const(4.0)), {"x": -0.25, "y": 0.25}),
            (Mul(Mul(Const(2.0), Var("x")), Const(3.0)), {"x": 6.0}),
            (Div(Var("x"), Const(0.5)), {"x": 2.0}),
        ],
        ids=["0.3 - 0.5*x + 0.7*y", "-(x - y)/4", "2*x*3", "x/0.5"],
    )
    def test_affine_forms_over_scaled(self, expr, expected):
        nodes = [normal_node(v) for v in variables(expr)]
        d = Diagram.from_nodes(nodes + [deterministic("z", TS, expr)])
        self.assert_constant(d, "z", expected)

    def test_a_cubic_agrees_at_two_points_only(self):
        # The slope 3 (x + 0.025)^2 is 0.421875 at both x = -0.4 and 0.35,
        # so only the third probe tells this node from a linear one.
        d = Diagram.from_nodes(
            [normal_node("x"), deterministic("z", TS, Pow(Add(Var("x"), Const(0.025)), 3.0))]
        )
        for x in PROBES[:2]:
            assert slopes_at(d, "z", x) == {"x": pytest.approx(0.421875)}
        self.assert_moving(d, "z")

    def test_product_of_powers_over_log(self):
        d = Diagram.from_nodes(
            [
                lognormal_node("u", t=Transform("log_scaled", 0.0, 1.0)),
                lognormal_node("v", t=Transform("log_scaled", 0.0, 2.0)),
                deterministic(
                    "w",
                    Transform("log_scaled", 0.0, 1.0),
                    Mul(Const(2.0), Mul(Pow(Var("u"), 2.0), Pow(Var("v"), -0.5))),
                ),
            ]
        )
        self.assert_constant(d, "w", {"u": 2.0, "v": -0.5})

    @pytest.mark.parametrize("n", [139, 140, 1000])
    def test_product_of_many_log_scaled_parents(self, n):
        # Parent points stay bounded, so the product does not overflow.
        names = [f"x{i}" for i in range(n)]
        product = Var(names[0])
        for name in names[1:]:
            product = Mul(product, Var(name))
        d = Diagram.from_nodes([*map(lognormal_node, names), deterministic("w", TLOG, product)])
        self.assert_constant(d, "w", dict.fromkeys(names, 1.0))

    def test_odds_composition_over_logistic(self):
        # q = p1 p2 / (p1 p2 + (1-p1)(1-p2)): log-odds add with unit weights.
        g = Mul(Var("p1"), Var("p2"))
        h = Mul(Sub(Const(1.0), Var("p1")), Sub(Const(1.0), Var("p2")))
        d = Diagram.from_nodes(
            [beta_node("p1"), beta_node("p2"), deterministic("q", T01, Div(g, Add(g, h)))]
        )
        self.assert_constant(d, "q", {"p1": 1.0, "p2": 1.0})

    def test_single_variable_odds_identity(self):
        g = Var("p")
        h = Sub(Const(1.0), Var("p"))
        d = Diagram.from_nodes([beta_node("p"), deterministic("q", T01, Div(g, Add(g, h)))])
        self.assert_constant(d, "q", {"p": 1.0})

    def test_a_product_over_scaled_moves(self):
        d = Diagram.from_nodes(
            [normal_node("x"), normal_node("y"), deterministic("z", TS, Mul(Var("x"), Var("y")))]
        )
        self.assert_moving(d, "z")

    def test_a_sum_across_transforms_moves(self):
        d = Diagram.from_nodes(
            [normal_node("x"), lognormal_node("u"), deterministic("z", TS, Add(Var("x"), Var("u")))]
        )
        self.assert_moving(d, "z")

    def test_a_sum_over_log_moves(self):
        d = Diagram.from_nodes(
            [lognormal_node("u"), lognormal_node("v"), deterministic("w", TLOG, Add(Var("u"), Var("v")))]
        )
        self.assert_moving(d, "w")

    def test_a_log_product_off_a_zero_anchor_moves(self):
        t = Transform("log_scaled", 1.0, 3.0)
        d = Diagram.from_nodes(
            [lognormal_node("u", mean=2.0, t=t), deterministic("w", t, Pow(Var("u"), 2.0))]
        )
        self.assert_moving(d, "w")

    def test_mismatched_odds_exponents_move(self):
        g = Mul(Var("p1"), Var("p2"))
        h = Mul(Sub(Const(1.0), Var("p1")), Pow(Sub(Const(1.0), Var("p2")), 2.0))
        d = Diagram.from_nodes(
            [beta_node("p1"), beta_node("p2"), deterministic("q", T01, Div(g, Add(g, h)))]
        )
        self.assert_moving(d, "q")

    def test_a_value_off_its_support_raises(self):
        # x - 1 at x = 0.5 is -0.5, below the log scale's anchor 0.
        d = Diagram.from_nodes(
            [normal_node("x"), deterministic("w", TLOG, Sub(Var("x"), Const(1.0)))]
        )
        with pytest.raises(ValueError, match="outside its transform support"):
            slopes(d.node("w"), d, {"x": 0.5})
