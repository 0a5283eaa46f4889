"""Growth with the order n, one fresh process per point, with a time cap.

Series: ``build_lode(n)`` for n = 4..12, ``divergence_check(G_n, Delta_n)``
for n = 4..12 and ``variational_check(H_n, L_n)`` (transformed Lagrangian)
for even n = 4..12.  Only the named call is timed; the equation or
Lagrangian it needs is built first.  A point that does not finish within
the cap is killed and recorded as capped, and so are the higher orders of
its series, which cost more.  The reported points, which take under 2 s
each on a 2-core x86 VM, always run; a point beyond them counts as capped
when it would run past its series' budget, so a series never takes much
more than the budget, however slow the host.

Run one point by hand with
``python3 perfbench/scaling.py --series divergence_G --n 6``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SERIES = {
    "build_lode": list(range(4, 13)),
    "divergence_G": list(range(4, 13)),
    "variational_H": [4, 6, 8, 10, 12],
}
# Points every traced run reports as metrics; the rest go to the trace file.
REPORTED = {
    "build_lode": [4, 5, 6, 7, 8],
    "divergence_G": [4, 5],
    "variational_H": [4, 6],
}
CAP_S = 8.0
SERIES_BUDGET_S = 10.0
_IMPORT_ALLOWANCE_S = 3.0


def measure(series: str, n: int) -> float:
    from odesym import maxsym, noether

    ctx = maxsym.SourceContext.make_symbolic()
    if series == "build_lode":
        t0 = time.perf_counter()
        maxsym.build_lode(n, ctx)
        return time.perf_counter() - t0
    gens = maxsym.generators(n).by_name()
    if series == "divergence_G":
        eq = maxsym.build_lode(n, ctx)
        t0 = time.perf_counter()
        verdict = noether.divergence_check(gens[f"G{n}"], eq, ctx)
    else:
        lag = maxsym.transformed_lagrangian(n, ctx)
        t0 = time.perf_counter()
        verdict = noether.variational_check(gens[f"H{n}"], lag, ctx)
    elapsed = time.perf_counter() - t0
    # G_n is a divergence symmetry for even n only; H_n is never variational
    want = series == "divergence_G" and n % 2 == 0
    if verdict.holds != want:
        raise SystemExit(f"{series} n={n}: verdict {verdict.holds}, expected {want}")
    return elapsed


def run_series() -> dict:
    """{series: {n: seconds or None when capped}}."""
    out = {}
    for series, orders in SERIES.items():
        points = out[series] = {}
        capped = False
        start = time.perf_counter()
        for n in orders:
            limit = CAP_S
            if n not in REPORTED[series]:
                limit = min(CAP_S, SERIES_BUDGET_S - (time.perf_counter() - start))
            if capped or limit <= 0:
                points[n] = None
                capped = True
                continue
            argv = [sys.executable, str(Path(__file__).resolve()), "--series", series, f"--n={n}"]
            try:
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                      timeout=limit + _IMPORT_ALLOWANCE_S)
            except subprocess.TimeoutExpired:
                points[n] = None
                capped = True
                continue
            if proc.returncode != 0:
                raise RuntimeError(f"scaling point {series} n={n} failed: {proc.stderr[-500:]}")
            seconds = json.loads(proc.stdout.strip().splitlines()[-1])["seconds"]
            if seconds > limit:
                points[n] = None
                capped = True
            else:
                points[n] = seconds
    return out


def metrics(points: dict) -> dict:
    """Reported points as metrics; a capped point has no time (value None)."""
    out = {}
    for series, orders in REPORTED.items():
        for n in orders:
            out[f"scaling.{series}.n{n}_s"] = (points[series][n], "s")
        done = [n for n, s in points[series].items() if s is not None]
        out[f"scaling.{series}.max_n"] = (max(done, default=0), "count")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--series", choices=sorted(SERIES), required=True)
    parser.add_argument("--n", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps({"series": args.series, "n": args.n, "seconds": measure(args.series, args.n)}))


if __name__ == "__main__":
    main()
