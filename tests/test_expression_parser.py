"""The expression parser is one loop over the tokens.

It is checked against the recursive-descent parser it replaced, written
out here as the reference, and on nesting far deeper than Python's
recursion limit lets a recursive parser reach.
"""

import json
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaussid.cli import ExpressionError, _tokenize, parse_expression, parse_model, serialize_model
from gaussid.model import Add, Const, Diagram, Div, Exp, Ln, Mul, Neg, Pow, Sub, Var, basic, deterministic
from gaussid.solver import SolverConfig, solve
from gaussid.transforms import PriorSpec, Transform
from helpers import _same_tree

TS = Transform("scaled", 0.0, 1.0)

# ---------------------------------------------------------------------------
# Recursive-descent reference: one method per precedence level


class RefParser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, at = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}, found {val or 'end of input'!r}", at)

    def parse(self):
        e = self.sum()
        kind, val, at = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected {val!r}", at)
        return e

    def sum(self):
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.term()
                e = Add(e, rhs) if val == "+" else Sub(e, rhs)
            else:
                return e

    def term(self):
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.factor()
                e = Mul(e, rhs) if val == "*" else Div(e, rhs)
            else:
                return e

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return Neg(self.factor())
        return self.power()

    def power(self):
        e = self.atom()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "^":
                self.take()
                e = Pow(e, self.exponent())
            else:
                return e

    def exponent(self):
        kind, val, at = self.take()
        sign = 1.0
        if kind == "op" and val == "-":
            sign = -1.0
            kind, val, at = self.take()
        if kind == "op" and val == "(":
            inner = self.exponent()
            self.expect_op(")")
            return sign * inner
        if kind != "num":
            raise ExpressionError("exponent must be a numeric literal", at)
        return sign * float(val)

    def atom(self):
        kind, val, at = self.take()
        if kind == "num":
            return Const(float(val))
        if kind == "name":
            if val in ("exp", "ln"):
                self.expect_op("(")
                inner = self.sum()
                self.expect_op(")")
                return Exp(inner) if val == "exp" else Ln(inner)
            return Var(val)
        if kind == "op" and val == "(":
            inner = self.sum()
            self.expect_op(")")
            return inner
        raise ExpressionError(f"unexpected {val or 'end of input'!r}", at)


def _outcome(parse, text):
    """``("tree", tree)`` or ``("error", message, position)``."""
    try:
        return "tree", parse(text)
    except ExpressionError as err:
        return "error", str(err), err.position


def _reference(text):
    """The reference's result; it descends five frames per parenthesis."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10_000))
    try:
        return RefParser(text).parse()
    finally:
        sys.setrecursionlimit(limit)


# Names, numbers, functions, operators, parentheses and characters or
# lexemes the tokenizer rejects.
_PIECES = [
    "x", "y_1", "_z", "exp", "ln", "e",
    "0", "2", "0.5", ".25", "1e-3", "2.5E+4", "1e400", "1.2.3", ".",
    "+", "-", "*", "/", "^", "(", ")", "(", ")", "-",
    "$", ",", "#",
]


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from(_PIECES), st.sampled_from(["", "", " "])), max_size=24),
    st.one_of(st.just(0), st.integers(0, 400)),
)
@example([("x", " "), ("^", ""), ("-", ""), ("(", ""), ("-", ""), ("0", ""), (")", "")], 0)
@example([("exp", ""), ("(", ""), ("x", ""), ("y_1", "")], 0)
@example([("(", ""), ("x", ""), (")", ""), (")", "")], 0)
@example([("-", ""), ("x", ""), ("^", ""), ("2", ""), ("*", ""), ("-", ""), ("y_1", ""), ("-", ""), ("_z", "")], 0)
@example([("x", ""), ("+", ""), ("y_1", "")], 300)
def test_the_loop_parses_every_token_string_as_the_recursive_parser_did(pieces, depth):
    """Each string is also tried inside ``depth`` parentheses."""
    text = "(" * depth + "".join(piece + gap for piece, gap in pieces) + ")" * depth
    got = _outcome(parse_expression, text)
    want = _outcome(_reference, text)
    assert got[0] == want[0]
    if got[0] == "error":  # the same message at the same position
        assert got[1:] == want[1:]
    else:
        assert _same_tree(got[1], want[1])


def test_100000_nested_parentheses_parse():
    depth = 100_000
    assert parse_expression("(" * depth + "x" + ")" * depth) == Var("x")
    e = parse_expression("-(" * depth + "x" + ")" * depth + " + 1")
    assert isinstance(e, Add) and e.right == Const(1.0)
    assert [type(n) for n in e.left.postorder] == [Var] + [Neg] * depth
    assert parse_expression("x^" + "(-" * depth + "2" + ")" * depth) == Pow(Var("x"), 2.0)
    with pytest.raises(ExpressionError, match=r"expected '\)', found 'end of input' at position"):
        parse_expression("(" * depth + "x" + ")" * (depth - 1))


def test_a_300_term_right_deep_sum_round_trips_and_solves():
    n = 300
    e = Var(f"x{n - 1}")
    for i in reversed(range(n - 1)):
        e = Add(Var(f"x{i}"), e)
    nodes = [basic(f"x{i}", PriorSpec(family="normal", transform=TS, mean=0.0, variance=1.0)) for i in range(n)]
    d = Diagram.from_nodes([*nodes, deterministic("s", TS, e)])
    doc = serialize_model(d, SolverConfig())
    assert doc["nodes"][n]["expr"].count("(") == n - 2

    again, cfg = parse_model(json.dumps(doc))
    assert _same_tree(again.node("s").expr, e)
    assert serialize_model(again, cfg) == doc
    result = solve(again, cfg)
    assert result.status == "converged"
    assert result.posterior_y["s"].mean == pytest.approx(0.0, abs=1e-12)
    assert result.posterior_y["s"].variance == pytest.approx(n, rel=1e-12)

