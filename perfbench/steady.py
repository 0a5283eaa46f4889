"""Steadiness of the end-to-end metrics across fresh processes.

    python3 perfbench/steady.py --workload symbolic_tables --runs 10 [--seconds 30] [--seed0 1]

Runs ``run.py`` k times one after another, each in a fresh process with
one client (no threads, no pools), seeds seed0..seed0+k-1.  Prints, per
end-to-end metric, the median, the quartiles and the quartile spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), f"--workload={workload}",
            f"--seed={seed}", f"--seconds={seconds}", "--trace=0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}): {proc.stderr[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    results = []
    for seed in range(args.seed0, args.seed0 + args.runs):
        res = run_once(args.workload, seed, args.seconds)
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)

    print(f"{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        print(f"  {name:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f} "
              f"{metric['bound']:>6.2f}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
