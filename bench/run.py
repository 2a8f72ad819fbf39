"""gaussid benchmark: three seeded workloads, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload golden --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload scale_1500 --seed 1 --seconds 10 --trace 1
    python3 bench/run.py --workload golden --seed 1 --smoke   # quick check
    python3 bench/run.py --workload all --seed 1              # every workload, both modes

The package is driven only through its public entry points
(``gaussid.cli.main`` / ``parse_model``, ``gaussid.solve`` and
``gaussid.mc_posterior``) and imported from the checkout's ``src``; the
program only ever sees the generated model files.  The load is a closed
loop with one client: one request at a time, and at most one child process
running beside this one.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s`` - median over fresh interpreters of ``import gaussid.cli``
  plus ``parse_model`` of the workload's models;
* ``solve_p50_ms`` - median warm solve round (one ``solve`` per model);
* ``cli_solve_s`` - median cold ``solve <file> --json`` process;
* ``peak_rss_mb`` - peak resident memory of the children that only solve;
* ``iterations`` - solver iterations per round, an exact count;

and, in the report only, ``solve_p99_ms`` (where 1,000 rounds allow it),
``compare_p50_ms`` (warm solve plus ``mc_posterior`` at 1e5 draws),
``cli_compare_s`` and ``failed_frac``.  The benchmark and its children run
on one CPU, and these times are scaled to a nominal machine speed by a
probe that runs beside the measured work on that CPU (see ``probe.py``);
the report also keeps the unscaled wall-time medians.  A run is a series
of slices, each a warm child followed by some set-up children and cold CLI
processes, so every metric's samples span the run.  ``--trace 1`` prints
the per-layer metrics, as wall times, from a separate traced run (see
``tracer.py`` and ``worker.py``).  Every operation is checked against
independent references (``reference.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans, raw samples and the report are written under
``bench/.work``.  Exact counts (iterations, call counts, sizes, output
bytes, modules loaded, hit and ESS ratios) must repeat across runs of one
seed on the same code; a mismatch fails the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

sys.path.insert(0, str(BENCH))

if __name__ == "__main__":
    # One CPU for this process and every child it starts (see probe.py),
    # set before numpy loads so that its BLAS sizes its thread pool to the
    # one CPU here as it does in the children.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

import generate  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402

WORKLOADS = ("golden", "scale_1500", "mixed_expr")

# Per-workload run plan.  Minimum counts hold even when they overrun the
# time budget, so every median rests on a stated number of samples.  The
# smoke mode caps every count at 1.
#   slices           warm children, which only solve; the set-up children
#                    and cold CLI runs are spread between them
#   solve_rounds     minimum warm solve rounds per warm child
#   setup_runs       set-up children besides the warm ones
#   compare_rounds   warm compare rounds, in one child of their own; none on
#                    scale_1500, where 1e5 draws of 1,500 parameters would
#                    need over 1 GB
#   cli_solve_runs   cold ``solve --json`` processes, cycling over the models
#   cli_compare_runs cold ``compare`` processes, cycling over the models
#   trace_rounds     minimum untraced and traced solve rounds when tracing
PLANS = {
    "golden": dict(
        slices=5, solve_rounds=125, setup_runs=1, compare_rounds=8,
        cli_solve_runs=6, cli_compare_runs=1, trace_rounds=200,
    ),
    "mixed_expr": dict(
        slices=3, solve_rounds=3, setup_runs=2, compare_rounds=1,
        cli_solve_runs=5, cli_compare_runs=0, trace_rounds=2,
    ),
    "scale_1500": dict(
        slices=2, solve_rounds=1, setup_runs=2, compare_rounds=0,
        cli_solve_runs=2, cli_compare_runs=0, trace_rounds=1,
    ),
}

# Draws per Monte Carlo run: the acceptance sample size.
DRAWS = 100_000

CLI = "import sys; from gaussid.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORTS = "import sys; n = len(sys.modules); import gaussid.cli; print(len(sys.modules) - n)"

# Every child must end by this many seconds after the run starts, so the
# run ends within its 180-second limit even when the program hangs.
RUN_DEADLINE_S = 170
# Relative agreement required between a cold CLI answer and the warm one.
CLI_REL_TOL = 1e-9


class Run:
    """One benchmark invocation: children, checks, samples and counts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.plan = PLANS[workload]
        if smoke:
            self.plan = {k: min(v, 1) for k, v in self.plan.items()}
        tag = f"{workload}-s{seed}-t{int(trace)}" + ("-smoke" if smoke else "")
        self.dir = WORK / tag
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.deadline = perf_counter() + RUN_DEADLINE_S

    # -- bookkeeping -------------------------------------------------------

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:5])

    def child(self, args: list[str]) -> tuple[subprocess.CompletedProcess, tuple[float, float]]:
        """Run ``python3 <args>`` to completion; a timeout kills it and raises.

        Returns the process and its ``perf_counter`` interval.
        """
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, *args],
            env=self.env,
            cwd=ROOT,
            capture_output=True,
            timeout=max(self.deadline - t0, 1.0),
        )
        return proc, (t0, perf_counter())

    # -- inputs --------------------------------------------------------------

    def prepare(self) -> None:
        self.models = generate.write_workload(
            self.workload, self.seed, ROOT, self.dir / "models", self.smoke
        )
        self.refs = []
        for path in self.models:
            doc = json.loads(path.read_text(encoding="utf-8"))
            refs = {**reference.exact_posteriors(doc), **reference.golden_references(path.name)}
            ref_path = path.with_suffix(".refs.json")
            ref_path.write_text(json.dumps(refs), encoding="utf-8")
            self.refs.append(ref_path)
        # Lazy set-up (BLAS threads, first-call dispatch) is paid on a small
        # model of the same generator, so no timed round pays it.
        if self.workload != "golden" and not self.smoke:
            self.warmup = generate.write_workload(
                self.workload, self.seed, ROOT, self.dir / "warmup", smoke=True
            )
        else:
            self.warmup = list(self.models)

    def compile_bytecode(self) -> None:
        """Users pay imports on every run but bytecode compilation once."""
        proc, _ = self.child(["-c", "import gaussid.cli"])
        if proc.returncode != 0:
            raise SystemExit(f"cannot import gaussid from {SRC}: {proc.stderr.decode()[-2000:]}")

    # -- end-to-end measurements ------------------------------------------

    def worker(self, mode: str, slice_: int | str, seconds: float) -> dict:
        """One child running ``worker.py`` in ``mode``; its result, or {} on failure."""
        out_path = self.dir / f"{mode}-{slice_}.json"
        spec = {
            "mode": mode,
            "models": [str(p) for p in self.models],
            "refs": [str(p) for p in self.refs],
            "warmup_models": [str(p) for p in self.warmup],
            "seconds": seconds,
            "seed": self.seed,
            "draws": DRAWS,
            "out": str(out_path),
            "trace_out": str(self.dir / "spans.jsonl"),
            **self.plan,
        }
        spec_path = self.dir / f"{mode}-{slice_}-spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        proc, _ = self.child([str(BENCH / "worker.py"), str(spec_path)])
        if proc.returncode != 0:
            self.record(f"{mode} child {slice_}", [proc.stderr.decode()[-2000:]])
            return {}
        out = json.loads(out_path.read_text(encoding="utf-8"))
        if not Path(out["module"]).resolve().is_relative_to(SRC):
            raise SystemExit(f"worker imported gaussid from {out['module']}, not {SRC}")
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.problems.extend(out["problems"])
        return out

    def _cli(self, label: str, args: list[str]) -> tuple[dict | None, int, tuple, list[str]]:
        """One cold CLI process: parsed JSON output, its size, interval, problems."""
        proc, interval = self.child(["-c", CLI, *args])
        try:
            payload = json.loads(proc.stdout)
        except ValueError:
            payload = None
        if proc.returncode != 0 or payload is None:
            problem = f"{label}: exit {proc.returncode}: {proc.stderr.decode()[-500:]}"
            return None, len(proc.stdout), interval, [problem]
        status = payload["status"]
        return payload, len(proc.stdout), interval, [] if status == "converged" else [f"status {status}"]

    def cli_solve(self, k: int, warm: dict) -> tuple[tuple | None, int]:
        """Cold ``solve --json`` on model ``k``: interval if correct, and output bytes."""
        path = self.models[k]
        payload, size, interval, problems = self._cli(path.name, ["solve", str(path), "--json"])
        if payload is not None:
            posterior = {pid: (m["mean"], m["variance"]) for pid, m in payload["posterior"].items()}
            problems += reference.check_posterior(posterior, self._refs(k))[0]
            if warm:
                problems += _agree("posterior", posterior, warm["posteriors"][k])
                matrix = payload["correlations"]["matrix"]
                sums = [sum(map(sum, matrix)), sum(v * v for row in matrix for v in row)]
                for name, got, want in zip(("sum", "sum of squares"), sums, warm["corr_sums"][k]):
                    if abs(got - want) > CLI_REL_TOL * max(abs(want), 1.0):
                        problems.append(f"correlation {name} {got!r}, in-process {want!r}")
                if payload["iterations"] != warm["model_iterations"][k]:
                    problems.append(
                        f"{payload['iterations']} iterations, in-process {warm['model_iterations'][k]}"
                    )
        self.record(f"cli solve ({path.name})", problems)
        return (None if problems else interval), size

    def cli_compare(self, k: int, warm: dict) -> tuple | None:
        """Cold ``compare`` at the acceptance sample size: interval if correct."""
        path = self.models[k]
        args = ["compare", str(path), "--samples", str(DRAWS), "--seed", str(self.seed), "--json"]
        payload, _, interval, problems = self._cli(path.name, args)
        if payload is not None:
            rows = payload["parameters"]
            approx = {pid: (r["approx"]["mean"], r["approx"]["variance"]) for pid, r in rows.items()}
            if warm:
                problems += _agree("approx", approx, warm["posteriors"][k])
            mc_mean = {pid: r["mc"]["mean"] for pid, r in rows.items()}
            se_mean = {pid: r["mc"]["se_mean"] for pid, r in rows.items()}
            problems += reference.check_monte_carlo(payload["ess"], mc_mean, se_mean, self._refs(k))
        self.record(f"cli compare ({path.name})", problems)
        return None if problems else interval

    def _refs(self, k: int) -> dict[str, tuple[float, float]]:
        refs = json.loads(self.refs[k].read_text(encoding="utf-8"))
        return {pid: tuple(v) for pid, v in refs.items()}

    # -- per-layer measurements -------------------------------------------

    def import_profile(self) -> dict[str, float]:
        """``-X importtime`` of ``import gaussid.cli``, and modules it loads."""
        proc, _ = self.child(["-X", "importtime", "-c", IMPORTS])
        if proc.returncode != 0:
            self.record("import profile", [proc.stderr.decode()[-500:]])
            return {}
        self.record("import profile", [])
        cumulative: dict[str, int] = {}
        top_level = 0
        for line in proc.stderr.decode().splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)", line)
            if not m:
                continue
            us, depth, name = int(m.group(2)), len(m.group(3)) - 1, m.group(4)
            cumulative.setdefault(name, us)
            if depth == 0 and name.split(".")[0] == "gaussid":
                top_level += us
        return {
            "cli.import.total_s": top_level / 1e6,
            "cli.import.numpy_s": cumulative.get("numpy", 0) / 1e6,
            "cli.import.scipy_linalg_s": cumulative.get("scipy.linalg", 0) / 1e6,
            "cli.import.scipy_stats_s": cumulative.get("scipy.stats", 0) / 1e6,
            "cli.import.modules_loaded": int(proc.stdout.split()[-1]),
        }

    # -- exact counts ----------------------------------------------------

    def check_counts(self, counts: dict) -> None:
        """Counts must repeat within this run and across runs of this seed."""
        for name, values in counts.items():
            if isinstance(values, list) and len(values) > 1:
                self.record("exact counts", [f"{name} varies within the run: {values}"])
        digest = hashlib.sha256()
        for path in sorted(SRC.rglob("*.py")) + sorted(BENCH.glob("*.py")) + self.models:
            digest.update(path.read_bytes())
        store = WORK / "counts" / f"{self.dir.name}-{digest.hexdigest()[:16]}.json"
        if store.exists():
            previous = json.loads(store.read_text(encoding="utf-8"))
            changed = [k for k in counts if k in previous and previous[k] != counts[k]]
            self.record("exact counts", [f"{k}: {previous[k]} then {counts[k]}" for k in changed])
        else:
            store.parent.mkdir(parents=True, exist_ok=True)
            store.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")


def _agree(label: str, got: dict, want: dict) -> list[str]:
    problems = []
    if set(got) != set(want):
        return [f"{label} parameters differ from the in-process result"]
    for pid, pair in got.items():
        for g, w in zip(pair, want[pid]):
            if abs(g - w) > CLI_REL_TOL * max(abs(w), 1e-300):
                problems.append(f"{label} {pid}: {g!r} differs from in-process {w!r}")
                break
    return problems[:5]


def _quartiles(samples: list[float]) -> tuple[float, float, float]:
    if len(samples) < 2:
        v = samples[0] if samples else float("nan")
        return v, v, v
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, statistics.median(samples), q3


def _p99(samples: list[float]) -> float | None:
    """The 99th percentile, only when at least ten samples lie beyond it."""
    if len(samples) < 1000:
        return None
    return statistics.quantiles(samples, n=100)[98]


def machine_facts() -> dict:
    import numpy as np
    import scipy

    facts = {
        "nproc": os.cpu_count(),
        "cpu": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            facts["cpu"] = next(
                line.split(":", 1)[1].strip() for line in f if line.startswith("model name")
            )
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    facts["blas_threads"] = _blas_threads()
    return facts


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metric(value: float, unit: str, n: int | None = None) -> dict:
    out = {"value": value, "unit": unit}
    if n is not None:
        out["n"] = n
    return out


def _spread(total: int, slices: int) -> list[int]:
    """How many of ``total`` runs fall in each slice, spread evenly."""
    counts = [0] * slices
    for j in range(total):
        counts[j * slices // total] += 1
    return counts


def _median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def run_untraced(run: Run, report: dict) -> dict:
    """Slices of (warm child, set-up children, cold CLI processes).

    Spreading every metric's samples over the whole run keeps one slow
    stretch from moving a median, and every sample is scaled by the speed
    the probe saw while it ran.
    """
    plan = run.plan
    slices = plan["slices"]
    setups = _spread(plan["setup_runs"], slices)
    cli_solves = _spread(plan["cli_solve_runs"], slices)
    cli_compares = _spread(plan["cli_compare_runs"], slices)
    warms: list[dict] = []
    # Name -> one list of (start, end) intervals per correct sample: set-up
    # is the import plus the parsing, everything else one interval.
    intervals: dict[str, list] = {
        "setup_s": [], "solve_ms": [], "compare_ms": [], "cli_solve_s": [], "cli_compare_s": []
    }
    output_bytes: dict[str, set] = {}
    n_solve = n_compare = 0
    ess_ratio = []
    # The probe must stop before its samples are read.
    with probe.Probe() as speed:
        for i in range(slices):
            warm = run.worker("warm", i, run.seconds / slices)
            if warm:
                warms.append(warm)
                intervals["setup_s"].append(warm["setup_t"])
                intervals["solve_ms"] += [[t] for t in warm["solve_t"]]
            for j in range(setups[i]):
                out = run.worker("setup", f"{i}-{j}", 0.0)
                if out:
                    intervals["setup_s"].append(out["setup_t"])
            for _ in range(cli_solves[i]):
                k = n_solve % len(run.models)
                n_solve += 1
                interval, size = run.cli_solve(k, warm)
                output_bytes.setdefault(run.models[k].name, set()).add(size)
                if interval is not None:
                    intervals["cli_solve_s"].append([interval])
            for _ in range(cli_compares[i]):
                k = n_compare % len(run.models)
                n_compare += 1
                interval = run.cli_compare(k, warm)
                if interval is not None:
                    intervals["cli_compare_s"].append([interval])
        if plan["compare_rounds"]:
            compare = run.worker("compare", 0, 0.0)
            intervals["compare_ms"] = [[t] for t in compare.get("compare_t", [])]
            ess_ratio = compare.get("ess_ratio", [])

    iterations = sorted({n for w in warms for n in w["iterations"]})
    run.check_counts(
        {
            "iterations": iterations,
            "oracle.ess_ratio": ess_ratio,
            **{f"cli.output_bytes[{k}]": sorted(v) for k, v in output_bytes.items()},
        }
    )

    def times(name: str, duration) -> list[float]:
        unit = 1e3 if name.endswith("_ms") else 1.0
        return [unit * sum(duration(*t) for t in ts) for ts in intervals[name]]

    samples = {name: times(name, speed.scaled) for name in intervals}
    setup_s, solve_ms, cli_solve = samples["setup_s"], samples["solve_ms"], samples["cli_solve_s"]
    metrics = {
        "setup_s": _metric(_median(setup_s), "s", len(setup_s)),
        "solve_p50_ms": _metric(_median(solve_ms), "ms", len(solve_ms)),
        "cli_solve_s": _metric(_median(cli_solve), "s", len(cli_solve)),
        "peak_rss_mb": _metric(max((w["peak_rss_mb"] for w in warms), default=0.0), "MB", len(warms)),
        "iterations": _metric(float(iterations[0]) if iterations else 0.0, "count", len(solve_ms)),
    }
    extra = {}
    p99 = _p99(solve_ms)
    if p99 is not None:
        extra["solve_p99_ms"] = _metric(p99, "ms", len(solve_ms))
    if samples["compare_ms"]:
        extra["compare_p50_ms"] = _metric(_median(samples["compare_ms"]), "ms", len(samples["compare_ms"]))
    if samples["cli_compare_s"]:
        extra["cli_compare_s"] = _metric(_median(samples["cli_compare_s"]), "s", len(samples["cli_compare_s"]))
    report["samples"] = samples
    report["quartiles"] = {k: _quartiles(v) for k, v in samples.items() if v}
    report["unscaled_wall_medians"] = {
        name: _median(times(name, lambda t0, t1: t1 - t0)) for name in intervals if intervals[name]
    }
    report["speed_probe"] = {
        "nominal_s": probe.NOMINAL_S,
        "samples": len(speed.samples),
        "quartiles_s": _quartiles(speed.samples),
    }
    report["extra_metrics"] = extra
    report["max_rel_err_vs_exact"] = max((w["max_rel_err"] for w in warms), default=None)
    return metrics


def run_traced(run: Run, report: dict) -> dict:
    imports = run.import_profile()
    traced = run.worker("traced", 0, run.seconds)
    layers = {**traced.get("layers", {}), **imports}
    layers["solver.max_rel_err_vs_exact"] = traced.get("max_rel_err", 0.0)
    run.check_counts(
        {
            "iterations": traced.get("iterations", []),
            "oracle.ess_ratio": traced.get("ess_ratio", []),
            **{
                k: v
                for k, v in layers.items()
                if k.endswith((".calls", ".dim", ".cov_bytes", ".hit_ratio", ".evidence_dim"))
                or k in ("cli.output_bytes", "cli.import.modules_loaded")
            },
        }
    )
    report["trace_rounds"] = {
        "traced": traced.get("solve_rounds", 0),
        "untraced": traced.get("untraced_rounds", 0),
    }
    report["spans"] = str(run.dir / "spans.jsonl")
    units = {"_s": "s", "_ms": "ms", "bytes": "bytes"}
    metrics = {}
    for name, value in sorted(layers.items()):
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        if name.endswith(("ratio", "rel_err_vs_exact")):
            unit = "ratio"
        metrics[name] = _metric(value, unit)
    return metrics


def run_all(args: argparse.Namespace) -> int:
    """Every workload, untraced and then traced, each in a fresh invocation."""
    correct = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            proc = subprocess.run(cmd + ["--smoke"] * args.smoke, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            ok = proc.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
            if not ok:
                print(f"  {workload} trace {trace} failed: {proc.stderr[-2000:]}")
            correct = correct and ok
    print(f"all workloads correct: {correct}")
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny models and sample counts")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "gaussid" / "__init__.py", ROOT / "docs" / "models") if not p.exists()]
    if missing:
        print(f"error: not a gaussid checkout, missing {missing}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    report: dict = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "plan": run.plan,
        "machine": {**machine_facts(), "cpus_used": sorted(os.sched_getaffinity(0))},
        "loadavg_before": os.getloadavg(),
    }
    t0 = perf_counter()
    run.prepare()
    run.compile_bytecode()
    metrics = run_traced(run, report) if args.trace else run_untraced(run, report)
    report["loadavg_after"] = os.getloadavg()
    report["wall_s"] = perf_counter() - t0
    report["failed_frac"] = run.failed / max(run.attempted, 1)
    report["problems"] = run.problems[:20]
    report["metrics"] = metrics
    (run.dir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")

    print(f"gaussid benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("machine: " + ", ".join(f"{k} {v}" for k, v in report["machine"].items()))
    print(f"load average before {report['loadavg_before']}, after {report['loadavg_after']}")
    for name, m in {**metrics, **report.get("extra_metrics", {})}.items():
        n = f"  (n={m['n']})" if "n" in m else ""
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}{n}")
    print(f"  failed_frac {report['failed_frac']:.6g} ({run.failed} of {run.attempted} operations)")
    for problem in run.problems[:20]:
        print(f"  problem: {problem}")
    print(f"report: {run.dir / 'report.json'}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and run.attempted > 0,
                "attempted": max(run.attempted, 1),
                "failed": run.failed,
                "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
