"""Tests of the benchmark harness itself; they keep it from rotting.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import generate  # noqa: E402
import probe  # noqa: E402
import reference  # noqa: E402
import run as bench_run  # noqa: E402
import worker  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

import gaussid  # noqa: E402
from gaussid.cli import parse_model  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("golden", 0), ("scale_1500", 0), ("scale_1500", 1)],
)
def test_smoke_run_prints_every_declared_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "golden", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_perturbed_reference_is_counted_as_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    run = bench_run.Run("scale_1500", 1, 0.2, False, True)
    run.prepare()
    refs = json.loads(run.refs[0].read_text())
    pid = next(iter(refs))
    mean, var = refs[pid]
    refs[pid] = [mean * (1 + 1e-6), var]
    run.refs[0].write_text(json.dumps(refs))
    run.worker("warm", 0, 0.2)
    assert run.attempted >= 1
    assert run.failed == run.attempted
    assert any(pid in p for p in run.problems)


def test_exact_count_change_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_run, "WORK", tmp_path)
    run = bench_run.Run("golden", 1, 0.2, False, True)
    run.prepare()
    run.check_counts({"iterations": [5]})
    run.check_counts({"iterations": [5]})
    assert run.failed == 0
    run.check_counts({"iterations": [6]})
    assert run.failed == 1


def test_generators_are_seeded_and_parse(tmp_path):
    paths = generate.write_workload("mixed_expr", 7, ROOT, tmp_path, smoke=True)
    meta = json.loads((tmp_path / "meta.json").read_text())
    assert meta["seed"] == 7 and meta["sizes"] == generate.SMOKE_SIZES["mixed_expr"]
    assert meta["models"] == [p.name for p in paths]
    for name in ("scale_1500", "mixed_expr"):
        a = generate.workload_docs(name, 7)
        assert a == generate.workload_docs(name, 7) and a != generate.workload_docs(name, 8)
        for doc in a.values():
            parse_model(json.dumps(doc))
    (scale,) = generate.workload_docs("scale_1500", 7).values()
    kinds = [n["kind"] for n in scale["nodes"]]
    assert kinds.count("evidence") == 1000
    assert len(kinds) - kinds.count("evidence") == 1500


def test_references_match_the_stated_golden_posteriors():
    for name in generate.GOLDEN_MODELS:
        doc = json.loads((ROOT / "docs" / "models" / name).read_text())
        derived = reference.exact_posteriors(doc)
        stated = reference.golden_references(name)
        assert stated and set(stated) == set(derived)
        for pid in stated:
            assert derived[pid] == pytest.approx(stated[pid], rel=1e-15)


def test_self_times_account_for_the_traced_solve():
    d, cfg = parse_model(ROOT / "docs" / "models" / "risk_difference.json")
    tracer = Tracer()
    tracer.begin_request(1, "solve")
    tracer.install()
    try:
        result = gaussid.solve(d, cfg)
    finally:
        tracer.uninstall()
    assert gaussid.solve.__name__ == "solve" and not hasattr(gaussid.solve, "__wrapped__")
    (root,) = [s for s in tracer.spans if s[1] == "solver.solve"]
    per_name = tracer.per_request()[1]
    assert per_name["solver.step"][0] == len(result.iterations)
    assert per_name["gaussian.correlation"][0] == 3
    total_self = sum(rec[1] for rec in per_name.values())
    assert total_self == pytest.approx(root[3] - root[2], rel=1e-9)
    # The self times reported per solve round add up to the traced solve.
    metrics, unstable = worker.layer_metrics(tracer)
    assert not unstable
    assert metrics["model.validate.calls"] == per_name["model.validate"][0] > 0
    solve_names = set(SPAN_NAMES) - set(worker._CLI_HOME) - set(worker._COMPARE_HOME)
    reported = sum(metrics[f"{name}.self_s"] for name in solve_names)
    assert 1e3 * reported == pytest.approx(metrics["trace.self_sum_ms"], rel=1e-9)
    assert 1e3 * total_self == pytest.approx(metrics["trace.self_sum_ms"], rel=1e-9)


def test_probe_scales_wall_time_by_the_calibration_time_around_it():
    speed = probe.Probe()
    nominal = probe.NOMINAL_S
    speed.times = [0.0, 1.0, 2.0]
    speed.samples = [nominal, 2 * nominal, 4 * nominal]
    assert speed.scaled(0.95, 1.05) == pytest.approx(0.1 / 2)
    assert speed.scaled(0.0, 2.0) == pytest.approx(2.0 * 3 / 7)
    assert speed.scaled(10.0, 11.0) == pytest.approx(1.0)  # no sample: wall time
    with probe.Probe() as live:
        time.sleep(3.5 * probe.PERIOD_S)
    assert len(live.samples) == len(live.times) >= 2
    assert all(s > 0 for s in live.samples)
