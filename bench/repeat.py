"""Run every workload several times and summarize each metric.

    python3 bench/repeat.py --runs 10 --seed-base 1

Each run is a fresh `bench/run.py` process of BENCHMARK.json's run_seconds
with its own seed (seed-base, seed-base + 1, ...); workloads are interleaved so that drift in the
machine's load spreads over all of them.  For every workload and metric
it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, next to the metric's bound from BENCHMARK.json,
plus jobs attempted and failed.  All results are saved to
.bench_out/repeat.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import ladders  # noqa: E402


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    args = parser.parse_args()

    results: dict = {w: [] for w in ladders.WORKLOADS}
    for i in range(args.runs):
        for workload in ladders.WORKLOADS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed_base + i),
                   "--seconds", str(config["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=900)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.splitlines()[-1])
            results[workload].append(result)
            print(f"run {i + 1}/{args.runs} {workload}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, attempted {attempted}, failed {failed}, "
              f"correct {correct}")
        print(f"  {'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}  unit")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
                else (values[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:28s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{bounds[name]:6.2f}  {first['unit']}")
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    (out / "repeat.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
