"""Command-line interface: model files, validation, solving, oracle runs.

Model documents are strict JSON (schema version "1"): unknown fields are
rejected with a path-qualified message, expressions are written in a
small infix grammar over node ids with ``+ - * / ^``, ``exp``, ``ln``
and parentheses (precedence ``^`` > unary ``-`` > ``* /`` > ``+ -``,
left-associative; the ``^`` exponent is a numeric literal).

Commands:

* ``infer validate <file>`` — parse and check a model.
* ``infer solve <file> [--json] [--epsilon F] [--max-iter N] [--no-pool]``
* ``infer oracle <file> --samples N --seed S [--json]``
* ``infer compare <file> --samples N --seed S [--json]``

``--json`` prints one compact JSON document on a single line;
``python -m json.tool`` pretty-prints it.

Exit codes: 0 converged/ok, 2 diverged, 3 max-iterations reached,
4 input/schema error, 5 numerical failure.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path
from typing import AbstractSet, Callable, Iterator

import numpy as np

from .evidence import EVIDENCE_VARIANTS, EvidenceSpec
from .model import (
    Add,
    Const,
    Diagram,
    Div,
    Exp,
    Expr,
    InvalidDiagramError,
    Ln,
    Mul,
    Neg,
    Node,
    Pow,
    Sub,
    Var,
    basic,
    deterministic,
    evidence,
    format_expr,
    validate,
)
from .oracle import McEstimate, mc_posterior
from .solver import (
    CONVERGED,
    DIVERGED,
    MAX_ITERATIONS,
    SolverConfig,
    SolverResult,
    solve,
)
from .transforms import PRIOR_FAMILIES, PriorSpec, Transform, TRANSFORM_KINDS

__all__ = [
    "EXIT_OK",
    "EXIT_DIVERGED",
    "EXIT_MAX_ITERATIONS",
    "EXIT_INPUT",
    "EXIT_NUMERICAL",
    "SchemaError",
    "ExpressionError",
    "parse_expression",
    "parse_model",
    "serialize_model",
    "main",
]

EXIT_OK = 0
EXIT_DIVERGED = 2
EXIT_MAX_ITERATIONS = 3
EXIT_INPUT = 4
EXIT_NUMERICAL = 5

SCHEMA_VERSION = "1"
_RESERVED_IDS = {"exp", "ln"}


class SchemaError(ValueError):
    """A model document violates the schema; ``path`` locates the problem."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# ---------------------------------------------------------------------------
# Expression grammar


class ExpressionError(ValueError):
    """An expression string failed to parse; ``position`` is the offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*/^()":
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdigit() or c == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                value = float(lexeme)
            except ValueError:
                raise ExpressionError(f"bad number {lexeme!r}", i) from None
            if not math.isfinite(value):  # e.g. 1e400
                raise ExpressionError("number out of range", i)
            tokens.append(("num", lexeme, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ExpressionError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# The infix operators, and how tightly each pending operator binds; a group
# (``(``, ``exp(``, ``ln(``) binds at 0.
_BINARY = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}


def _expected(op: str, val: str, at: int) -> ExpressionError:
    return ExpressionError(f"expected {op!r}, found {val or 'end of input'!r}", at)


def parse_expression(text: str) -> Expr:
    """Compile an infix expression string to an expression tree.

    One loop over the tokens (Dijkstra's shunting-yard) alternates between
    expecting an operand and an operator.  ``operands`` holds finished
    subtrees; ``pending`` the operators not yet applied and the open groups,
    of which there are ``groups``.  An operator first applies the pending
    ones that bind at least as tightly.  A ``^`` exponent is read on the
    spot: a numeric literal in any number of parentheses, with at most one
    ``-`` before each ``(`` and before the literal.
    """
    tokens = iter(_tokenize(text))
    operands: list[Expr] = []
    pending: list[str] = []
    groups = 0
    operand_next = True
    for kind, val, at in tokens:  # the end token returns or raises
        if operand_next:
            if kind == "num":
                operands.append(Const(float(val)))
                operand_next = False
            elif kind == "name" and val not in _RESERVED_IDS:
                operands.append(Var(val))
                operand_next = False
            elif kind == "name":  # exp or ln opens a group
                _, paren, paren_at = next(tokens)
                if paren != "(":
                    raise _expected("(", paren, paren_at)
                pending.append(val)
                groups += 1
            elif val == "(":
                pending.append(val)
                groups += 1
            elif val == "-":
                pending.append("neg")
            else:
                raise ExpressionError(f"unexpected {val or 'end of input'!r}", at)
            continue
        if val == "^":
            sign, depth = 1.0, 0
            while True:
                kind, val, at = next(tokens)
                if val == "-":
                    sign = -sign
                    kind, val, at = next(tokens)
                if val != "(":
                    break
                depth += 1
            if kind != "num":
                raise ExpressionError("exponent must be a numeric literal", at)
            operands[-1] = Pow(operands[-1], sign * float(val))
            for _ in range(depth):
                _, val, at = next(tokens)
                if val != ")":
                    raise _expected(")", val, at)
            continue
        closes = val == ")" if groups else kind == "end"  # ")" only inside a group
        if val not in _BINARY and not closes:
            if groups:
                raise _expected(")", val, at)
            raise ExpressionError(f"unexpected {val!r}", at)
        floor = _BINDING.get(val, 1)  # ")" and the end apply every pending operator
        while pending and _BINDING.get(pending[-1], 0) >= floor:
            op = pending.pop()
            if op == "neg":
                operands[-1] = Neg(operands[-1])
            else:
                right = operands.pop()
                operands[-1] = _BINARY[op](operands[-1], right)
        if val in _BINARY:
            pending.append(val)
            operand_next = True
        elif groups:
            groups -= 1
            opener = pending.pop()
            if opener != "(":
                operands[-1] = (Exp if opener == "exp" else Ln)(operands[-1])
        else:
            return operands[0]


# ---------------------------------------------------------------------------
# Model documents


def _require_keys(obj: dict, path: str, required: AbstractSet, known: AbstractSet | None = None) -> None:
    """Reject the first key of ``obj`` outside ``known`` (by default ``required``),
    then name the smallest ``required`` key that ``obj`` lacks."""
    known = required if known is None else known
    if not obj.keys() <= known:
        raise SchemaError(f"{path}.{next(key for key in obj if key not in known)}", "unknown field")
    if not obj.keys() >= required:
        raise SchemaError(path, f"missing required field {min(required - obj.keys())!r}")


# The readers of a value ``v`` found at key ``key`` of the object at ``path``.


def _number(v, path: str, key: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"{path}.{key}", f"expected a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:  # an integer literal beyond the float range
        raise SchemaError(f"{path}.{key}", "number out of range") from None


def _integer(v, path: str, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"{path}.{key}", f"expected an integer, got {v!r}")
    return v


def _boolean(v, path: str, key: str) -> bool:
    if not isinstance(v, bool):
        raise SchemaError(f"{path}.{key}", "expected true or false")
    return v


def _numbers(v, path: str, key: str) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise SchemaError(f"{path}.{key}", "expected a list of numbers")
    return tuple(_number(s, path, f"{key}[{i}]") for i, s in enumerate(v))


def _choice(options: tuple[str, ...]) -> Callable[[object, str, str], str]:
    def read(v, path: str, key: str) -> str:
        if v not in options:
            raise SchemaError(f"{path}.{key}", f"expected one of {list(options)}")
        return v

    return read


# Each spec class's document keys and the reader of each key's value.  The
# keys without a default in _DEFAULTS are required; the class's own checks do
# the rest.
_FIELDS: dict[type, dict[str, Callable]] = {
    Transform: {"kind": _choice(TRANSFORM_KINDS), "a": _number, "b": _number},
    PriorSpec: {
        "family": _choice(PRIOR_FAMILIES),
        "mean": _number,
        "variance": _number,
        "alpha": _number,
        "beta": _number,
    },
    EvidenceSpec: {
        "variant": _choice(EVIDENCE_VARIANTS),
        "count": _integer,
        "sample_mean": _number,
        "variance": _number,
        "sample_var": _number,
        "successes": _integer,
        "alpha": _number,
        "beta": _number,
        "lognormal_samples": _boolean,
        "samples": _numbers,
    },
    SolverConfig: {
        "epsilon": _number,
        "divergence_window": _integer,
        "max_iterations": _integer,
        "pool_evidence": _boolean,
    },
}
# The defaults of the optional fields, as each class's constructor has them.
_DEFAULTS: dict[type, dict] = {
    Transform: {},
    PriorSpec: dict.fromkeys(["mean", "variance", "alpha", "beta"]),
    EvidenceSpec: {
        **dict.fromkeys(["count", "sample_mean", "variance", "sample_var", "successes"]),
        **dict.fromkeys(["alpha", "beta", "samples"]),
        "lognormal_samples": False,
    },
    SolverConfig: {key: getattr(SolverConfig(), key) for key in _FIELDS[SolverConfig]},
}
_REQUIRED = {cls: keys.keys() - _DEFAULTS[cls].keys() for cls, keys in _FIELDS.items()}


def _read(cls: type, obj, path: str, **given):
    """The ``cls`` spec declared by document object ``obj`` at ``path``.

    ``given`` holds fields that come from elsewhere in the document, such
    as a prior's transform; they are not keys of ``obj``.
    """
    if not isinstance(obj, dict):
        raise SchemaError(path, "expected an object")
    readers = _FIELDS[cls]
    _require_keys(obj, path, _REQUIRED[cls], readers.keys())
    for key, v in obj.items():
        given[key] = readers[key](v, path, key)
    try:
        return cls(**given)
    except ValueError as err:
        raise SchemaError(path, str(err)) from None


def _write(spec) -> dict:
    """The document object of ``spec``: its keys whose values differ from the defaults."""
    defaults = _DEFAULTS[type(spec)]
    out = {}
    for key in _FIELDS[type(spec)]:
        value = getattr(spec, key)
        if key not in defaults or value != defaults[key]:
            out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _transform(obj, path: str, read: dict) -> Transform:
    """``_read(Transform, obj, path)``, kept in ``read`` for the identical objects that
    follow: same keys in order, each value of the same type and, for a float, the same
    bits, so ``false`` never stands for ``0`` nor ``-0.0`` for ``0.0``.  Failures are not kept."""
    key = isinstance(obj, dict) and tuple(
        [(k, type(v), v.hex() if type(v) is float else v) for k, v in obj.items()]
    )
    try:
        return read[key]
    except (KeyError, TypeError):  # a new object, or one holding a list or object
        read[key] = transform = _read(Transform, obj, path)  # a success's key is hashable
        return transform


def _parse_node(obj, path: str, declared: set[str], transforms: dict) -> Node:
    if not isinstance(obj, dict):
        raise SchemaError(path, "node must be an object")
    _require_keys(obj, path, {"id", "kind"}, obj.keys())  # the other keys by kind, below
    nid = obj["id"]
    if not isinstance(nid, str) or not nid:
        raise SchemaError(f"{path}.id", "id must be a non-empty string")
    if not (nid.isascii() and nid.isidentifier()) and not (  # the rule below, for ASCII
        (nid[0].isalpha() or nid[0] == "_") and all(c.isalnum() or c == "_" for c in nid)
    ):
        raise SchemaError(f"{path}.id", f"id {nid!r} is not a valid identifier")
    if nid in _RESERVED_IDS:
        raise SchemaError(f"{path}.id", f"id {nid!r} is reserved for a function name")
    kind = obj["kind"]
    if kind == "basic":
        _require_keys(obj, path, {"id", "kind", "transform", "prior"})
        transform = _transform(obj["transform"], f"{path}.transform", transforms)
        return basic(nid, _read(PriorSpec, obj["prior"], f"{path}.prior", transform=transform))
    if kind == "deterministic":
        _require_keys(obj, path, {"id", "kind", "transform", "expr"})
        transform = _transform(obj["transform"], f"{path}.transform", transforms)
        if not isinstance(obj["expr"], str):
            raise SchemaError(f"{path}.expr", "expression must be a string")
        try:
            tree = parse_expression(obj["expr"])
        except ExpressionError as err:
            raise SchemaError(f"{path}.expr", str(err)) from None
        return deterministic(nid, transform, tree)
    if kind == "evidence":
        _require_keys(obj, path, {"id", "kind", "parent", "evidence"})
        parent = obj["parent"]
        if not isinstance(parent, str):
            raise SchemaError(f"{path}.parent", "parent must be a node id")
        if parent not in declared:
            raise SchemaError(f"{path}.parent", f"unknown parent id {parent!r}")
        return evidence(nid, parent, _read(EvidenceSpec, obj["evidence"], f"{path}.evidence"))
    raise SchemaError(f"{path}.kind", "expected one of ['basic', 'deterministic', 'evidence']")


def parse_model(source: str | Path, check: bool = True) -> tuple[Diagram, SolverConfig]:
    """Parse a model document into a diagram and solver configuration.

    ``source`` is JSON text, or a :class:`pathlib.Path` to read.  Identical
    transform objects are read once and share a :class:`Transform`.  With
    ``check`` (the default) the diagram must also pass
    :func:`gaussid.model.validate`; pass ``check=False`` to obtain the
    diagram for separate validation reporting.
    """
    if isinstance(source, Path):
        text = source.read_text(encoding="utf-8")
    else:
        text = source
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as err:  # also too many digits, or too deep
        raise SchemaError("$", f"not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise SchemaError("$", "document must be a JSON object")
    _require_keys(doc, "$", {"schema_version", "nodes"}, {"schema_version", "nodes", "solver"})
    if doc["schema_version"] != SCHEMA_VERSION:
        raise SchemaError(
            "$.schema_version",
            f"unsupported version {doc['schema_version']!r}; this build reads {SCHEMA_VERSION!r}",
        )
    if not isinstance(doc["nodes"], list):
        raise SchemaError("$.nodes", "nodes must be a list")

    ids: set[str] = set()
    for i, entry in enumerate(doc["nodes"]):
        if isinstance(entry, dict) and isinstance(entry.get("id"), str):
            if entry["id"] in ids:
                raise SchemaError(f"$.nodes[{i}].id", f"duplicate node id {entry['id']!r}")
            ids.add(entry["id"])

    transforms: dict = {}
    nodes = [_parse_node(e, f"$.nodes[{i}]", ids, transforms) for i, e in enumerate(doc["nodes"])]
    diagram = Diagram.from_nodes(nodes)
    config = _read(SolverConfig, doc.get("solver", {}), "$.solver")
    if check:
        problems = validate(diagram)
        if problems:
            raise InvalidDiagramError(problems)
    return diagram, config


def serialize_model(d: Diagram, cfg: SolverConfig | None = None) -> dict:
    """Render a diagram (and optional non-default solver settings) as a document."""
    nodes = []
    for n in d.nodes.values():
        entry: dict = {"id": n.id, "kind": n.kind}
        if n.kind == "evidence":
            entry.update(parent=n.parents[0], evidence=_write(n.obs))
        elif n.kind == "basic":
            entry.update(transform=_write(n.transform), prior=_write(n.prior))
        else:
            entry.update(transform=_write(n.transform), expr=format_expr(n.expr))
        nodes.append(entry)
    doc: dict = {"schema_version": SCHEMA_VERSION, "nodes": nodes}
    overrides = _write(cfg) if cfg is not None else {}
    if overrides:
        doc["solver"] = overrides
    return doc


# ---------------------------------------------------------------------------
# Commands


def _build_parser():
    import argparse  # here, not at the top: only main parses arguments

    class _Cli(argparse.ArgumentParser):
        def error(self, message: str):  # usage problems are input errors, not "diverged"
            self.print_usage(sys.stderr)
            self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")

    parser = _Cli(prog="infer", description="Influence-diagram inference by iterative linearization")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Cli)

    p_val = sub.add_parser("validate", help="check a model file")
    p_val.add_argument("file")

    p_solve = sub.add_parser("solve", help="run the iterative solver")
    p_solve.add_argument("file")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument("--epsilon", type=float, help="override convergence tolerance")
    p_solve.add_argument("--max-iter", type=int, help="override the iteration cap")
    p_solve.add_argument("--no-pool", action="store_true", help="keep observations separate")
    p_solve.add_argument("--full-precision", action="store_true", help="print 17 significant digits")

    for name, summary in (
        ("oracle", "Monte Carlo reference posterior"),
        ("compare", "solver versus Monte Carlo, side by side"),
    ):
        p_mc = sub.add_parser(name, help=summary)
        p_mc.add_argument("file")
        p_mc.add_argument("--samples", type=int, required=True)
        p_mc.add_argument("--seed", type=int, required=True)
        p_mc.add_argument("--json", action="store_true")
        p_mc.add_argument("--full-precision", action="store_true")

    return parser


def _fmt(x: float, full: bool) -> str:
    return f"{x:.17g}" if full else f"{x:.6g}"


def _load(args) -> tuple[Diagram, SolverConfig] | None:
    """The model named by ``args``, or None after printing why it is unusable.

    The diagram is not validated here: each command validates it once."""
    try:
        loaded = parse_model(Path(args.file), check=False)
    except (OSError, SchemaError) as err:
        print(f"error: {err}", file=sys.stderr)
        return None
    if getattr(args, "samples", 1) < 1:
        print(f"error: --samples must be >= 1, got {args.samples}", file=sys.stderr)
        return None
    if getattr(args, "seed", 0) < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return None
    return loaded


# Exit-5 failures of solve and mc_posterior, caught once in main:
# SolverError, ConditioningError, ConvergenceError and the oracle's all-zero
# weights are RuntimeErrors.
_NUMERICAL_FAILURES = (RuntimeError, ValueError, OverflowError)

_STATUS_EXIT = {
    CONVERGED: EXIT_OK,
    DIVERGED: EXIT_DIVERGED,
    MAX_ITERATIONS: EXIT_MAX_ITERATIONS,
}


def _cmd_validate(args, diagram: Diagram, config: SolverConfig) -> int:
    problems = validate(diagram)
    if problems:
        for nid, message in problems:
            print(f"{nid}: {message}", file=sys.stderr)
        return EXIT_INPUT
    print(f"ok: {len(diagram.nodes)} nodes")
    return EXIT_OK


def _print_json(payload: dict) -> None:
    """Print ``payload`` as one compact line; without ``indent`` the C encoder runs."""
    print(json.dumps(payload))


def _finite_or_null(**numbers: float) -> dict:
    """``numbers`` with None (JSON null) for those that are not finite: JSON has no Infinity."""
    return {key: x if math.isfinite(x) else None for key, x in numbers.items()}


def _row_texts(
    matrix: np.ndarray, zero: str, sep: str, encode: Callable[[list[float]], str]
) -> Iterator[str]:
    """The text of each row of ``matrix``: its entries' texts joined by ``sep``.

    ``encode`` writes a list of floats that way in one call; ``zero`` is its
    text for 0.0.  A matrix at least half nonzero is encoded row by row.  In
    a sparser one, one ``encode`` call writes every entry but +0.0 (-0.0
    prints differently), split back on ``sep`` (no JSON float text holds
    ``", "``, no ``{:.6g}``/``{:.17g}`` text ``"  "``), and each row is a row
    of ``zero`` with its runs cut in.
    """
    m = np.ascontiguousarray(matrix, dtype=np.float64)
    flat = np.flatnonzero(m.view(np.uint64) != 0)
    if 2 * len(flat) >= m.size:
        yield from map(encode, m.tolist())
        return
    texts = encode(m.ravel()[flat].tolist()).split(sep)
    rows, cols = np.divmod(flat, m.shape[1])
    # Runs start after a +0.0 or at column 0; row i has runs first[i] to first[i + 1].
    run_lo = np.flatnonzero((np.diff(flat, prepend=-2) != 1) | (cols == 0))
    bounds, starts = [*run_lo.tolist(), len(flat)], cols[run_lo].tolist()
    first = np.searchsorted(rows[run_lo], np.arange(len(m) + 1)).tolist()
    zeros, width = sep.join([zero] * m.shape[1]), len(zero) + len(sep)  # entry j at width * j
    for i in range(len(m)):
        parts, at = [], 0
        for k in range(first[i], first[i + 1]):
            lo, hi = bounds[k], bounds[k + 1]
            parts += zeros[at : width * starts[k]], sep.join(texts[lo:hi])
            at = width * (starts[k] + hi - lo) - len(sep)
        parts.append(zeros[at:])
        yield "".join(parts)


def _json_matrix(matrix: np.ndarray) -> str:
    """``json.dumps(matrix.tolist())``, written by :func:`_row_texts`."""
    rows = list(_row_texts(matrix, "0.0", ", ", lambda values: json.dumps(values)[1:-1]))
    if not rows:
        return "[]"
    rows[0] = "[[" + rows[0]  # the outer brackets, without another copy of the whole text
    rows[-1] += "]]"
    return "], [".join(rows)


def _table_rows(matrix: np.ndarray, fmt: str) -> Iterator[str]:
    """Each row of ``matrix`` as ``"  ".join([fmt] * n).format(*row)`` writes it."""
    return _row_texts(matrix, fmt.format(0.0), "  ", lambda v: "  ".join([fmt] * len(v)).format(*v))


def _solver_payload(result: SolverResult) -> dict:
    """The ``solve --json`` document, with an empty placeholder for the matrix."""
    ids = list(result.param_ids)
    return {
        "status": result.status,
        "iterations": len(result.iterations),
        "reported_iteration": result.reported_iteration,
        "r_max": [rec.r_max for rec in result.iterations],
        "posterior": {
            pid: {"mean": m.mean, "variance": m.variance}
            for pid, m in result.posterior_y.items()
        },
        "correlations": {"parameters": ids, "matrix": []},
    }


def _print_solve_json(result: SolverResult) -> None:
    """Print what ``_print_json`` would for the payload with the matrix filled in."""
    # The matrix is the payload's last entry, so its placeholder is the last
    # occurrence of the text below; print writes the pieces without joining them.
    head, _, tail = json.dumps(_solver_payload(result)).rpartition('"matrix": []')
    print(f'{head}"matrix": ', _json_matrix(result.posterior_correlations), tail, sep="")


def _print_solve_table(result: SolverResult, full: bool) -> None:
    print(f"status: {result.status}")
    print(f"iterations: {len(result.iterations)}  reported: {result.reported_iteration}")
    print("iteration  r_max")
    for rec in result.iterations:
        print(f"{rec.t:>9}  {_fmt(rec.r_max, full)}")
    print("posterior:")
    for pid in result.param_ids:
        m = result.posterior_y[pid]
        print(f"{pid}  mean {_fmt(m.mean, full)}  var {_fmt(m.variance, full)}")
    if len(result.param_ids) > 1:
        print("correlations:")
        width = max(len(pid) for pid in result.param_ids)
        rows = _table_rows(result.posterior_correlations, "{:.17g}" if full else "{:.6g}")
        for pid, row in zip(result.param_ids, rows):
            print(f"{pid:<{width}}  " + row)


def _cmd_solve(args, diagram: Diagram, config: SolverConfig) -> int:
    try:
        config = SolverConfig(
            config.epsilon if args.epsilon is None else args.epsilon,
            config.divergence_window,
            config.max_iterations if args.max_iter is None else args.max_iter,
            False if args.no_pool else config.pool_evidence,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    result = solve(diagram, config)
    if args.json:
        _print_solve_json(result)
    else:
        _print_solve_table(result, args.full_precision)
    return _STATUS_EXIT[result.status]


def _mc_moments(est: McEstimate, pid: str) -> dict:
    """The Monte Carlo mean and variance of ``pid`` and their standard errors."""
    return {
        "mean": est.mean[pid],
        "variance": est.variance[pid],
        "se_mean": est.se_mean[pid],
        "se_var": est.se_var[pid],
    }


def _cmd_oracle(args, diagram: Diagram, config: SolverConfig) -> int:
    est = mc_posterior(diagram, args.samples, args.seed)
    if args.json:
        payload = {
            "samples": est.n_samples,
            "seed": est.seed,
            "ess": est.ess,
            "estimates": {pid: _finite_or_null(**_mc_moments(est, pid)) for pid in est.param_ids},
            "warnings": list(est.warnings),
        }
        _print_json(payload)
    else:
        full = args.full_precision
        print(f"samples: {est.n_samples}  seed: {est.seed}  ess: {_fmt(est.ess, full)}")
        for pid in est.param_ids:
            print(
                f"{pid}  mean {_fmt(est.mean[pid], full)}  se {_fmt(est.se_mean[pid], full)}"
                f"  var {_fmt(est.variance[pid], full)}  se_var {_fmt(est.se_var[pid], full)}"
            )
        for warning in est.warnings:
            print(f"warning: {warning}")
    return EXIT_OK


def _cmd_compare(args, diagram: Diagram, config: SolverConfig) -> int:
    result = solve(diagram, config)
    est = mc_posterior(diagram, args.samples, args.seed)

    rows = {}
    flagged = False
    for pid in result.param_ids:
        approx = result.posterior_y[pid]
        d_mean = abs(approx.mean - est.mean[pid])
        d_var = abs(approx.variance - est.variance[pid])
        se_m = est.se_mean[pid]
        se_v = est.se_var[pid]
        mean_flag = d_mean > max(3.0 * se_m, 0.02 * max(abs(approx.mean), abs(est.mean[pid])))
        var_flag = d_var > max(3.0 * se_v, 0.02 * max(abs(approx.variance), abs(est.variance[pid])))
        row_flag = bool(mean_flag or var_flag)
        flagged = flagged or row_flag
        rows[pid] = {
            "approx": {"mean": approx.mean, "variance": approx.variance},
            "mc": _mc_moments(est, pid),
            "discrepancy": {
                "mean_abs": d_mean,
                "mean_in_se": (d_mean / se_m) if se_m > 0 else math.inf,
                "var_abs": d_var,
                "var_in_se": (d_var / se_v) if se_v > 0 else math.inf,
                "flagged": row_flag,
            },
        }

    if args.json:
        rows = {pid: {k: _finite_or_null(**v) for k, v in row.items()} for pid, row in rows.items()}
        payload = {
            "status": result.status,
            "samples": est.n_samples,
            "seed": est.seed,
            "ess": est.ess,
            "flagged": flagged,
            "parameters": rows,
            "warnings": list(est.warnings),
        }
        _print_json(payload)
    else:
        full = args.full_precision
        print(
            f"status: {result.status}  samples: {est.n_samples}  seed: {est.seed}"
            f"  ess: {_fmt(est.ess, full)}"
        )
        for pid, row in rows.items():
            d = row["discrepancy"]
            marker = "  <-- flagged" if d["flagged"] else ""
            print(
                f"{pid}  approx mean {_fmt(row['approx']['mean'], full)}"
                f" var {_fmt(row['approx']['variance'], full)}"
                f"  mc mean {_fmt(row['mc']['mean'], full)} ± {_fmt(row['mc']['se_mean'], full)}"
                f" var {_fmt(row['mc']['variance'], full)} ± {_fmt(row['mc']['se_var'], full)}"
                f"  Δmean {_fmt(d['mean_abs'], full)} ({_fmt(d['mean_in_se'], full)} se){marker}"
            )
        for warning in est.warnings:
            print(f"warning: {warning}")
        if flagged:
            print("discrepancy flag: approximation and Monte Carlo disagree beyond tolerance")
    return _STATUS_EXIT[result.status]


_COMMANDS = {
    "validate": _cmd_validate,
    "solve": _cmd_solve,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        loaded = _load(args)
        if loaded is None:
            return EXIT_INPUT
        return _COMMANDS[args.command](args, *loaded)
    except InvalidDiagramError as err:  # from solve or mc_posterior: an input error
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except _NUMERICAL_FAILURES as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
