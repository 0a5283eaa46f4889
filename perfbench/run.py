"""odesym benchmark: one run of one workload.

    python3 perfbench/run.py --workload symbolic_tables --seed 1 --seconds 30 --trace 0

A run starts WORKERS fresh worker processes one after another.  Each is one
closed-loop client that sets up the same seeded workload, issues its
requests and checks their outputs; the parent only waits.  The metrics pool
the requests of all workers, and ``setup_s`` is the median of the workers'
set-up times.  The host's speed drifts by tens of percent over tens of
seconds, so a run spreads its work over as much time as it has.

Prints every metric by name and unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` one worker pass runs untraced, then the same pass is traced in
this process, and the metrics are the per-layer ones, plus the scaling
series; ``trace.overhead_s`` is the traced pass's request time minus the
untraced one's.
The full result, stamped with versions, seed and a noise-floor timing, is
written under perfbench/out/.

Every timed pass over a workload is one fresh process: sympy keeps a
process-wide cache, so a second pass inside the same interpreter would
measure a warmer program.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("symbolic_tables", "nonlinear_concrete", "constructions")
WORKERS = 3
WORKER_TIMEOUT_S = 50


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description="odesym benchmark run")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _add_paths():
    if not (ROOT / "src" / "odesym" / "__init__.py").is_file():
        raise SystemExit(f"error: odesym sources not found under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))


def _import_program():
    _add_paths()
    from perfbench import workloads

    return workloads


def _worker_seconds(args) -> float:
    return args.seconds / WORKERS


def _setup(args):
    """One worker's rounds: as many whole rounds as its share of --seconds
    holds at the nominal round time, and at least one."""
    workloads = _import_program()
    generate, round_s = workloads.WORKLOADS[args.workload]
    return generate(args.seed, max(1, int(_worker_seconds(args) // round_s)))


def _worker(args) -> None:
    """Set up, run and check one pass; print its result as one JSON line."""
    rounds = _setup(args)
    setup_done = time.time()
    from perfbench import harness

    result = harness.execute(rounds, deadline_s=2 * _worker_seconds(args))
    print(json.dumps({"setup_done": setup_done, **harness.to_json(result)}), flush=True)
    os._exit(0)  # skip the interpreter's teardown of sympy; nothing is left to clean up


def _run_workers(args, count: int) -> tuple[list, list]:
    """``count`` passes, each in a fresh process started after the last
    ended; returns their results and their set-up seconds (spawn until
    imported and generated)."""
    _add_paths()
    from perfbench import harness

    argv = [sys.executable, str(Path(__file__).resolve()), "--worker",
            f"--workload={args.workload}", f"--seed={args.seed}", f"--seconds={args.seconds}"]
    results, setups = [], []
    for _ in range(count):
        t0 = time.time()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"error: worker failed: {proc.stderr[-500:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        setups.append(out.pop("setup_done") - t0)
        results.append(harness.from_json(out))
    return results, setups


def _overhead_s(traced, untraced) -> float:
    """Traced minus untraced time of the requests both passes completed."""
    pairs = list(zip(traced.records, untraced.records))
    if any(t.name != u.name for t, u in pairs):
        raise SystemExit("error: traced and untraced passes issued different requests")
    return sum(t.ms - u.ms for t, u in pairs) / 1000


def _out_path(workload, seed, trace) -> Path:
    return ROOT / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"


def _show(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<40} {shown:>14} {unit}{note}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.worker:
        return _worker(args)

    if args.trace:
        (untraced,), _ = _run_workers(args, 1)
        rounds = _setup(args)
    else:
        passes, setups = _run_workers(args, WORKERS)
    from perfbench import harness, scaling, tracer

    stamp = harness.stamp(args.seed)
    if args.trace:
        tr = tracer.Tracer()
        tr.install()
        try:
            traced = harness.execute(rounds, tr, deadline_s=2 * _worker_seconds(args))
        finally:
            tr.uninstall()
        passes = [untraced, traced]
        request_s = sum(r.ms for r in traced.records) / 1000
        metrics = tracer.layer_metrics(tr, request_s, _overhead_s(traced, untraced))
        points = scaling.run_series()
        metrics.update(scaling.metrics(points))
    else:
        metrics = harness.end_to_end(harness.pool(passes), statistics.median(setups))
        points = None
    result = harness.pool(passes)

    attempted = len(result.records)
    failed = sum(not r.ok for r in result.records)
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "passes": [{"rounds": p.rounds, "wall_s": p.wall_s, "peak_rss_mb": p.peak_rss_mb}
                   for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": [vars(r) for r in result.records if not r.ok],
        "requests": harness.request_table(passes),
    }
    if args.trace:
        report["scaling"] = {
            s: {str(n): ({"capped": True} if v is None else {"seconds": v}) for n, v in p.items()}
            for s, p in points.items()
        }
        report["spans"] = tr.spans
    else:
        report["setup_s"] = setups
    path = _out_path(args.workload, args.seed, args.trace)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(report))

    shape = "an untraced and a traced pass" if args.trace else f"{len(passes)} passes"
    print(f"odesym benchmark: workload {args.workload}, seed {args.seed}, {shape}, "
          f"{result.rounds} round(s), {attempted} requests")
    print("  stamp: " + ", ".join(f"{k}={v}" for k, v in stamp.items()))
    print("per-layer metrics (traced pass):" if args.trace else "end-to-end metrics:")
    for name, (value, unit) in metrics.items():
        note = ""
        if value is None and name == "request_ms.p90":
            note = " (fewer than 100 requests)"
        elif value is None and name.startswith("scaling."):
            note = " (capped)"
        _show(name, value, unit, note)
    if args.trace:
        ranked = sorted((v, k) for k, (v, u) in metrics.items() if k.endswith(".self_s"))
        print("  top self time: " + ", ".join(f"{k} {v:.2f}s" for v, k in reversed(ranked[-3:])))
    for rec in result.records:
        if not rec.ok:
            print(f"FAILED {rec.name}: {rec.error.strip().splitlines()[-1]}", file=sys.stderr)
    print(f"  written to {path.relative_to(ROOT)}")

    names = _declared_metrics(args.trace)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }))
    return 0


def _declared_metrics(trace: int) -> list:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


if __name__ == "__main__":
    sys.exit(main())
