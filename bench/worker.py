"""The warm child: drives one workload in a fresh process.

Run by ``run.py`` as ``python3 bench/worker.py <spec.json>`` with the
checkout's ``src`` on ``PYTHONPATH``.  The spec names the model files,
their references, the time budget and the mode:

* ``setup`` - only the set-up below;
* ``warm`` - an untimed warm-up, then a timed closed loop of solve rounds,
  every result checked against its references;
* ``compare`` - the same loop over compare rounds (solve, then
  ``mc_posterior`` at the acceptance sample size), in a child of its own
  so that the Monte Carlo draw arrays do not set the solve children's
  peak memory;
* ``traced`` - a short untraced solve loop for the overhead baseline, then
  solve and compare rounds with :class:`tracer.Tracer` installed, and one
  in-process ``infer solve --json`` round.

A *round* is one call on each model of the workload.  The child also
measures set-up: a fresh interpreter's ``import gaussid.cli`` plus parsing
the workload's models.  The import is therefore timed before this module
imports anything else.  Times are returned as ``perf_counter`` intervals,
which the parent scales to the nominal machine speed (see ``probe.py``).
The result is written as JSON to the spec's ``out`` path.
"""

from __future__ import annotations

import sys
from time import perf_counter

_IMPORT_T = [perf_counter()]
import gaussid.cli  # noqa: E402
_IMPORT_T.append(perf_counter())

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gaussid  # noqa: E402

from reference import check_monte_carlo, check_posterior  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

# Keep at most this many problem descriptions in the result.
_MAX_PROBLEMS = 20

# Span names whose per-request figures are taken over CLI rounds, and over
# compare rounds; every other span is reported per solve round.
_CLI_HOME = ("cli.main", "cli.parse_model")
_COMPARE_HOME = ("oracle.mc_posterior",)


def posterior_of(result) -> dict[str, tuple[float, float]]:
    return {pid: (m.mean, m.variance) for pid, m in result.posterior_y.items()}


def _failure(err: BaseException) -> str:
    frame = traceback.extract_tb(err.__traceback__)[-1]
    return f"{type(err).__name__}: {err} ({Path(frame.filename).name}:{frame.lineno})"


class Checker:
    """Counts operations and failures, keeping the first few problems."""

    def __init__(self, refs: list[dict]):
        self.refs = [{pid: tuple(v) for pid, v in r.items()} for r in refs]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.max_rel_err = 0.0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            room = _MAX_PROBLEMS - len(self.problems)
            self.problems.extend(f"{label}: {p}" for p in problems[:room])

    def solve_problems(self, k: int, result) -> list[str]:
        problems = [] if result.status == "converged" else [f"status {result.status}"]
        if not np.all(np.isfinite(result.posterior_correlations)):
            problems.append("non-finite correlation")
        found, worst = check_posterior(posterior_of(result), self.refs[k])
        self.max_rel_err = max(self.max_rel_err, worst)
        return problems + found

    def compare_problems(self, k: int, est) -> list[str]:
        problems = []
        if not (math.isfinite(est.ess) and est.ess > 0.0):
            problems.append(f"effective sample size {est.ess}")
        for pid in est.param_ids:
            if not (math.isfinite(est.mean[pid]) and math.isfinite(est.variance[pid])):
                problems.append(f"{pid}: non-finite Monte Carlo moments")
        problems += check_monte_carlo(est.ess, est.mean, est.se_mean, self.refs[k])
        return problems


def closed_loop(op, budget_s: float, min_rounds: int) -> None:
    """Call ``op(i)`` until ``budget_s`` has passed and ``min_rounds`` are done."""
    start = perf_counter()
    i = 0
    while i < min_rounds or perf_counter() - start < budget_s:
        op(i)
        i += 1


class Workload:
    """The models of one workload and the checked operations on them."""

    def __init__(self, spec: dict, models: list[tuple], checker: Checker):
        self.spec = spec
        self.checker = checker
        self.paths = spec["models"]
        self.models = models
        # (start, end) perf_counter intervals of the correct rounds.
        self.solve_t: list[tuple[float, float]] = []
        self.compare_t: list[tuple[float, float]] = []
        self.iterations: set[int] = set()
        self.ess_ratio: set[float] = set()
        self.posteriors: list[dict] = []
        self.model_iterations: list[int] = []
        self.corr_sums: list[list[float]] = []

    def warm_up(self) -> None:
        for path in self.spec["warmup_models"]:
            gaussid.solve(*gaussid.cli.parse_model(Path(path)))

    def solve_round(self, i: int, times: list[tuple[float, float]] | None = None) -> None:
        times = self.solve_t if times is None else times
        try:
            t0 = perf_counter()
            results = [gaussid.solve(d, cfg) for d, cfg in self.models]
            t1 = perf_counter()
        except Exception as err:  # a failed request is counted, not fatal
            self.checker.record(f"solve round {i}", [_failure(err)])
            return
        problems = []
        for k, result in enumerate(results):
            problems += self.checker.solve_problems(k, result)
        self.checker.record(f"solve round {i}", problems)
        if problems:
            return
        times.append((t0, t1))
        self.iterations.add(sum(len(r.iterations) for r in results))
        if not self.posteriors:
            for result in results:
                corr = result.posterior_correlations
                self.posteriors.append(posterior_of(result))
                self.model_iterations.append(len(result.iterations))
                self.corr_sums.append([float(corr.sum()), float((corr * corr).sum())])

    def compare_round(self, i: int) -> None:
        draws, seed = self.spec["draws"], self.spec["seed"]
        try:
            t0 = perf_counter()
            pairs = [
                (gaussid.solve(d, cfg), gaussid.mc_posterior(d, draws, seed))
                for d, cfg in self.models
            ]
            t1 = perf_counter()
        except Exception as err:
            self.checker.record(f"compare round {i}", [_failure(err)])
            return
        problems = []
        for k, (result, est) in enumerate(pairs):
            problems += self.checker.solve_problems(k, result)
            problems += self.checker.compare_problems(k, est)
        self.checker.record(f"compare round {i}", problems)
        if not problems:
            self.compare_t.append((t0, t1))
            self.ess_ratio.add(sum(est.ess for _, est in pairs) / (draws * len(pairs)))

    def cli_round(self, i: int) -> int:
        """In-process ``infer solve --json`` on every model; returns stdout bytes."""
        out_bytes = 0
        problems = []
        for k, path in enumerate(self.paths):
            buf = io.StringIO()
            try:
                with contextlib.redirect_stdout(buf):
                    code = gaussid.cli.main(["solve", path, "--json"])
                payload = json.loads(buf.getvalue())
            except Exception as err:
                problems.append(_failure(err))
                continue
            out_bytes += len(buf.getvalue().encode())
            if code != 0:
                problems.append(f"{Path(path).name}: exit code {code}")
            posterior = {
                pid: (m["mean"], m["variance"]) for pid, m in payload["posterior"].items()
            }
            found, _ = check_posterior(posterior, self.checker.refs[k])
            problems += found
        self.checker.record(f"cli round {i}", problems)
        return out_bytes


def _ms(intervals: list[tuple[float, float]]) -> float:
    return 1e3 * statistics.median(t1 - t0 for t0, t1 in intervals) if intervals else 0.0


def run_warm(spec: dict, models: list[tuple], checker: Checker) -> dict:
    w = Workload(spec, models, checker)
    w.warm_up()
    if spec["mode"] == "compare":
        closed_loop(w.compare_round, spec["seconds"], spec["compare_rounds"])
    else:
        closed_loop(w.solve_round, spec["seconds"], spec["solve_rounds"])
    return {
        "solve_t": w.solve_t,
        "compare_t": w.compare_t,
        "iterations": sorted(w.iterations),
        "ess_ratio": sorted(w.ess_ratio),
        "posteriors": w.posteriors,
        "model_iterations": w.model_iterations,
        "corr_sums": w.corr_sums,
    }


def _sizes(models: list[tuple]) -> dict[str, float]:
    """Matrix sizes and linear-node hits, read from the solver's start state."""
    dim = evidence_dim = hits = 0
    cov_bytes = 0
    for d, cfg in models:
        state = gaussid.initialize(d, cfg)
        dim += len(state.order)
        cov_bytes += 8 * len(state.order) ** 2
        evidence_dim += len(state.ev_obs)
        hits += len(state.linear_coeffs)
    return {"dim": dim, "cov_bytes": cov_bytes, "evidence_dim": evidence_dim, "hits": hits}


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Mean per-request calls, self seconds and errors of every span name.

    Also returns the names whose call counts differ between requests of one
    kind, which breaks the exact-count rule.
    """
    by_request = tracer.per_request()
    unstable = []
    metrics: dict[str, float] = {}
    for name in SPAN_NAMES:
        if name in _CLI_HOME:
            kind = "cli"
        elif name in _COMPARE_HOME:
            kind = "compare"
        else:
            kind = "solve"
        rids = [rid for rid, k in tracer.request_kind.items() if k == kind]
        rows = [by_request.get(rid, {}).get(name, [0, 0.0, 0]) for rid in rids]
        if len({row[0] for row in rows}) > 1:
            unstable.append(name)
        n = max(len(rows), 1)
        metrics[f"{name}.calls"] = sum(row[0] for row in rows) / n
        metrics[f"{name}.self_s"] = sum(row[1] for row in rows) / n
        metrics[f"{name}.errors"] = sum(row[2] for row in rows) / n
    # The self times of every span in a solve round sum to its duration.
    solve_rids = [rid for rid, k in tracer.request_kind.items() if k == "solve"]
    self_sums = [sum(row[1] for row in by_request[rid].values()) for rid in solve_rids]
    metrics["trace.self_sum_ms"] = 1e3 * sum(self_sums) / max(len(self_sums), 1)
    return metrics, unstable


def run_traced(spec: dict, models: list[tuple], checker: Checker, trace_out: Path) -> dict:
    w = Workload(spec, models, checker)
    w.warm_up()
    seconds = spec["seconds"]
    untraced: list[tuple[float, float]] = []
    tracer = Tracer()
    rid = 0

    def traced(kind: str, op):
        def request(i: int):
            nonlocal rid
            rid += 1
            tracer.begin_request(rid, kind)
            tracer.install()
            try:
                return op(i)
            finally:
                tracer.uninstall()

        return request

    traced_solve = traced("solve", w.solve_round)

    def solve_pair(i: int) -> None:
        # Untraced and traced rounds alternate, so drift in machine speed
        # falls on both sides of the overhead estimate.
        w.solve_round(i, untraced)
        traced_solve(i)

    closed_loop(solve_pair, 0.6 * seconds, spec["trace_rounds"])
    if spec["compare_rounds"] > 0:
        closed_loop(traced("compare", w.compare_round), 0.1 * seconds, 1)
    output_bytes = traced("cli", w.cli_round)(0)
    tracer.write(trace_out)

    metrics, unstable = layer_metrics(tracer)
    for name in unstable:
        checker.record("exact counts", [f"{name}.calls differs between requests"])
    sizes = _sizes(w.models)
    calls = metrics["model.recognize_linear.calls"]
    metrics.update(
        {
            "cli.output_bytes": output_bytes,
            "model.recognize_linear.hit_ratio": sizes["hits"] / calls if calls else 0.0,
            "gaussian.propagate_covariance.dim": sizes["dim"],
            "gaussian.propagate_covariance.cov_bytes": sizes["cov_bytes"],
            "gaussian.condition.evidence_dim": sizes["evidence_dim"],
            "oracle.ess_ratio": min(w.ess_ratio) if w.ess_ratio else 0.0,
            "trace.untraced_solve_p50_ms": _ms(untraced),
            "trace.solve_p50_ms": _ms(w.solve_t),
            "trace.overhead_ms": _ms(w.solve_t) - _ms(untraced),
        }
    )
    return {
        "layers": metrics,
        "iterations": sorted(w.iterations),
        "ess_ratio": sorted(w.ess_ratio),
        "solve_rounds": len(w.solve_t),
        "untraced_rounds": len(untraced),
    }


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text(encoding="utf-8"))
    t0 = perf_counter()
    models = [gaussid.cli.parse_model(Path(p)) for p in spec["models"]]
    setup_t = [_IMPORT_T, [t0, perf_counter()]]
    refs = [json.loads(Path(p).read_text(encoding="utf-8")) for p in spec["refs"]]
    checker = Checker(refs)
    if spec["mode"] == "traced":
        out = run_traced(spec, models, checker, Path(spec["trace_out"]))
    elif spec["mode"] == "setup":
        checker.record("set-up", [])
        out = {}
    else:
        out = run_warm(spec, models, checker)
    out.update(
        {
            "setup_t": setup_t,
            "module": gaussid.__file__,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "problems": checker.problems,
            "max_rel_err": checker.max_rel_err,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    )
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
