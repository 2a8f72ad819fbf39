"""Spans around the package's layer boundaries, installed from outside.

The package is not edited: :meth:`Tracer.install` replaces the module-global
names through which ``cli``, ``solver``, ``oracle``, ``model`` and
``transforms`` reach each other with timing wrappers, and
:meth:`Tracer.uninstall` puts the originals back.

Each wrapped call is a span with a name, start, end, parent span and
request id.  A layer's self time is its duration minus the time its child
spans cover.  Calls to *hot* names (leaf functions called per node or per
matrix entry, such as ``gaussian.correlation`` about a million times per
``scale_1500`` solve) are not stored one by one: they are aggregated as
(calls, total, self, errors) per parent span, which keeps the trace
bounded.  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  A function reached through several
# modules is wrapped under one span name at every site.
TARGETS = (
    ("gaussid", "solve", "solver.solve"),
    ("gaussid", "mc_posterior", "oracle.mc_posterior"),
    ("gaussid.cli", "main", "cli.main"),
    ("gaussid.cli", "parse_model", "cli.parse_model"),
    ("gaussid.cli", "validate", "model.validate"),
    ("gaussid.cli", "solve", "solver.solve"),
    ("gaussid.cli", "mc_posterior", "oracle.mc_posterior"),
    ("gaussid.model", "validate", "model.validate"),
    ("gaussid.model", "topological_order", "model.topological_order"),
    ("gaussid.solver", "solve", "solver.solve"),
    ("gaussid.solver", "initialize", "solver.initialize"),
    ("gaussid.solver", "step", "solver.step"),
    ("gaussid.solver", "linearize", "solver.linearize"),
    ("gaussid.solver", "update_means", "solver.update_means"),
    ("gaussid.solver", "ensure_valid", "model.ensure_valid"),
    ("gaussid.solver", "topological_order", "model.topological_order"),
    ("gaussid.solver", "recognize_linear", "model.recognize_linear"),
    ("gaussid.solver", "eval_expr", "model.eval_expr"),
    ("gaussid.solver", "diff_expr", "model.diff_expr"),
    ("gaussid.solver", "propagate_covariance", "gaussian.propagate_covariance"),
    ("gaussid.solver", "condition", "gaussian.condition"),
    ("gaussid.solver", "correlation", "gaussian.correlation"),
    ("gaussid.solver", "to_likelihood", "evidence.to_likelihood"),
    ("gaussid.solver", "pool_likelihoods", "evidence.pool"),
    ("gaussid.solver", "forward_moments", "transforms.forward_moments"),
    ("gaussid.solver", "forward_point", "transforms.forward_point"),
    ("gaussid.solver", "derivative", "transforms.derivative"),
    ("gaussid.solver", "inverse_moments", "transforms.inverse_moments"),
    ("gaussid.transforms", "beta_from_moments", "specfun.beta_from_moments"),
    ("gaussid.oracle", "mc_posterior", "oracle.mc_posterior"),
    ("gaussid.oracle", "ensure_valid", "model.ensure_valid"),
    ("gaussid.oracle", "topological_order", "model.topological_order"),
    ("gaussid.oracle", "to_likelihood", "evidence.to_likelihood"),
    ("gaussid.oracle", "forward_moments", "transforms.forward_moments"),
)

HOT = frozenset(
    {
        "gaussian.correlation",
        "model.eval_expr",
        "model.diff_expr",
        "model.recognize_linear",
        "transforms.inverse_moments",
        "transforms.forward_point",
        "transforms.forward_moments",
        "transforms.derivative",
        "specfun.beta_from_moments",
        "evidence.to_likelihood",
        "evidence.pool",
    }
)

SPAN_NAMES = tuple(sorted({name for _, _, name in TARGETS}))


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        # Frames of the calls in progress: [child time, span id for children].
        self._stack: list[list] = []
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []
        self.request: int | None = None
        self.request_kind: dict[int, str] = {}
        # (span id, name, start, end, parent id, request id, self time, error)
        self.spans: list[tuple] = []
        # (parent span id, name) -> [calls, total, self, errors]
        self.aggregates: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self._span_request: dict[int, int | None] = {0: None}

    def begin_request(self, rid: int, kind: str) -> None:
        self.request = rid
        self.request_kind[rid] = kind

    def _wrap(self, fn, name: str):
        stack = self._stack
        if name in HOT:
            aggregates = self.aggregates

            @functools.wraps(fn)
            def hot(*args, **kwargs):
                parent_id = stack[-1][1] if stack else 0
                frame = [0.0, parent_id]
                stack.append(frame)
                error = 0
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    error = 1
                    raise
                finally:
                    dur = perf_counter() - t0
                    stack.pop()
                    if stack:
                        stack[-1][0] += dur
                    rec = aggregates[(parent_id, name)]
                    rec[0] += 1
                    rec[1] += dur
                    rec[2] += dur - frame[0]
                    rec[3] += error

            return hot

        spans = self.spans
        span_request = self._span_request

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent_id = stack[-1][1] if stack else 0
            span_request[span_id] = self.request
            frame = [0.0, span_id]
            stack.append(frame)
            error = 0
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                spans.append(
                    (span_id, name, t0, t1, parent_id, self.request, t1 - t0 - frame[0], error)
                )

        return traced

    def install(self) -> None:
        wrapped: dict[tuple[int, str], object] = {}
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            key = (id(original), name)
            if key not in wrapped:
                wrapped[key] = self._wrap(original, name)
            setattr(module, attr, wrapped[key])
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def per_request(self) -> dict[int, dict[str, list]]:
        """request id -> span name -> [calls, self seconds, errors]."""
        out: dict[int, dict[str, list]] = defaultdict(lambda: defaultdict(lambda: [0, 0.0, 0]))
        for _, name, _, _, _, rid, self_s, error in self.spans:
            rec = out[rid][name]
            rec[0] += 1
            rec[1] += self_s
            rec[2] += error
        for (parent_id, name), (calls, _, self_s, errors) in self.aggregates.items():
            rec = out[self._span_request[parent_id]][name]
            rec[0] += calls
            rec[1] += self_s
            rec[2] += errors
        return out

    def write(self, path: Path) -> None:
        """Write spans, then per-parent aggregates, as JSON lines."""
        with path.open("w", encoding="utf-8") as f:
            for span_id, name, t0, t1, parent_id, rid, self_s, error in self.spans:
                f.write(
                    json.dumps(
                        {
                            "span": span_id,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "parent": parent_id,
                            "request": rid,
                            "self_s": self_s,
                            "error": error,
                        }
                    )
                    + "\n"
                )
            for (parent_id, name), (calls, total, self_s, errors) in self.aggregates.items():
                f.write(
                    json.dumps(
                        {
                            "aggregate": name,
                            "parent": parent_id,
                            "request": self._span_request[parent_id],
                            "calls": calls,
                            "total_s": total,
                            "self_s": self_s,
                            "errors": errors,
                        }
                    )
                    + "\n"
                )
