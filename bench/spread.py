"""Run-to-run spread of the end-to-end metrics, over several seeds.

Usage, from the root of a checkout::

    python3 bench/spread.py --workload golden --seeds 101-110 [--out b.json] [--against a.json]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median, quartiles and the quartile distance as a
share of the median, next to the bound in ``BENCHMARK.json``.  With
``--against`` (the ``--out`` file of an earlier set) it also prints how
far this set's median lies from that set's, as a share of that median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="first-last, e.g. 101-110")
    parser.add_argument("--out", type=Path, help="also write the values and summary as JSON")
    parser.add_argument("--against", type=Path, help="an earlier set's --out file")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    failed_runs = []
    for seed in args.seeds:
        cmd = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        if result is None or not result["correct"]:
            failed_runs.append(seed)
            print(f"seed {seed}: failed\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{k} {v[-1]:.6g}" for k, v in values.items()), flush=True)

    earlier = json.loads(args.against.read_text(encoding="utf-8"))["summary"] if args.against else {}
    summary = {}
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else 0.0
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": m["bound"]}
        line = (
            f"  {m['name']:<14} median {med:.6g} {m['unit']}  quartiles {q1:.6g} .. {q3:.6g}"
            f"  spread {spread:.3f}  bound {m['bound']}"
        )
        if m["name"] in earlier and earlier[m["name"]]["median"]:
            before = earlier[m["name"]]["median"]
            summary[m["name"]]["gap"] = gap = (med - before) / before
            line += f"  gap {gap:+.3f}"
        print(line)
    if args.out:
        args.out.write_text(
            json.dumps(
                {"workload": args.workload, "seeds": args.seeds, "failed_runs": failed_runs,
                 "values": values, "summary": summary},
                indent=1,
            ),
            encoding="utf-8",
        )
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
