"""Closed-loop runner, metrics and result stamps.

One client issues the requests of a workload one after another, each only
after the previous one has finished.  A pass is a fixed number of whole
rounds, and every round holds the same requests in the same order, so passes
with different seeds, or on a faster or slower host, do the same work.  A
run is several passes over the same inputs, each in a fresh process, and
its metrics pool the requests of all passes.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import sympy

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class Record:
    name: str
    verdict: str | None
    ms: float
    ok: bool
    error: str = ""


@dataclass
class RunResult:
    records: list = field(default_factory=list)
    rounds: int = 0
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0


def _timed(fn, arg, tracer, rid):
    """fn(arg) and its milliseconds; traced as request ``rid``."""
    if tracer is not None:
        tracer.request = rid
    t0 = time.perf_counter()
    try:
        return fn(arg), (time.perf_counter() - t0) * 1000
    finally:
        if tracer is not None:
            tracer.request = None


def execute(rounds, tracer=None, deadline_s: float = float("inf")) -> RunResult:
    """Run every request of every round; ``rounds`` is a list of request lists.

    No round starts after ``deadline_s`` of wall time, which bounds a run on
    a host much slower than the one the round counts were set on.  Outputs
    are checked only after the last request, and peak memory is read before
    the checks, so their sympy work neither warms nor evicts the cache the
    timed requests use and never counts in the run's memory.
    """
    result = RunResult()
    state: dict = {}
    done = []  # (request, output, error, ms)
    start = time.perf_counter()
    rid = 0
    for requests in rounds:
        if time.perf_counter() - start > deadline_s:
            break
        for req in requests:
            t0 = time.perf_counter()
            try:
                out, ms = _timed(req.run, state, tracer, rid)
                if req.finish is not None:
                    out, finish_ms = _timed(req.finish, req.prepare(out), tracer, rid)
                    ms += finish_ms
                error = ""
            except Exception:  # a request that raises counts as failed
                out, error = None, traceback.format_exc(limit=3)
                ms = (time.perf_counter() - t0) * 1000
            done.append((req, out, error, ms))
            rid += 1
        result.rounds += 1
    result.wall_s = time.perf_counter() - start
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for req, out, error, ms in done:
        ok = not error
        if ok:
            try:
                ok = bool(req.check(out))
            except Exception:
                ok, error = False, traceback.format_exc(limit=3)
            if not ok and not error:
                error = f"output differs from the answer key: {out!r}"[:300]
        result.records.append(Record(req.name, req.verdict, ms, ok, error))
    return result


def to_json(result: RunResult) -> dict:
    return {"rounds": result.rounds, "wall_s": result.wall_s, "peak_rss_mb": result.peak_rss_mb,
            "records": [[r.name, r.verdict, r.ms, r.ok, r.error] for r in result.records]}


def from_json(data: dict) -> RunResult:
    records = [Record(*fields) for fields in data["records"]]
    return RunResult(records, data["rounds"], data["wall_s"], data["peak_rss_mb"])


def pool(passes: list) -> RunResult:
    """All passes' records as one run.  Peak memory is the median pass's."""
    return RunResult([r for p in passes for r in p.records], sum(p.rounds for p in passes),
                     sum(p.wall_s for p in passes),
                     statistics.median(p.peak_rss_mb for p in passes))


def request_table(passes: list) -> list:
    """[name, verdict, [ms in each pass], ok in every pass] per request position."""
    n = min(len(p.records) for p in passes)
    table = []
    for i in range(n):
        same = [p.records[i] for p in passes]
        if len({r.name for r in same}) != 1:
            raise RuntimeError(f"passes issued different requests at position {i}")
        table.append([same[0].name, same[0].verdict, [r.ms for r in same],
                      all(r.ok for r in same)])
    return table


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered) - 1, -(-len(ordered) * p // 100) - 1))]


def end_to_end(result: RunResult, setup_s: float) -> dict:
    """Every end-to-end metric; p90 is None below 100 requests.

    The ``.gmean`` figures are geometric means of request times.  They are
    what BENCHMARK.json gates on: the sample median of a few dozen requests
    whose costs span three decades jumps between neighbouring order
    statistics from run to run, which made its worst spread over ten runs
    wider (0.42 against 0.30 for the geometric mean).
    """
    recs = result.records
    times = [r.ms for r in recs]
    verified = [r.ms for r in recs if r.verdict == "verified"]
    refuted = [r.ms for r in recs if r.verdict == "refuted"]
    failed = sum(not r.ok for r in recs)

    def central(f, values):
        return f(values) if values else None

    return {
        "setup_s": (setup_s, "s"),
        "requests_per_s": (len(recs) / (sum(times) / 1000), "1/s"),
        "request_ms.p50": (statistics.median(times), "ms"),
        "request_ms.p90": (percentile(times, 90) if len(times) >= 100 else None, "ms"),
        "verified_ms.p50": (central(statistics.median, verified), "ms"),
        "refuted_ms.p50": (central(statistics.median, refuted), "ms"),
        "request_ms.gmean": (statistics.geometric_mean(times), "ms"),
        "verified_ms.gmean": (central(statistics.geometric_mean, verified), "ms"),
        "refuted_ms.gmean": (central(statistics.geometric_mean, refuted), "ms"),
        "fail_share": (failed / len(recs), "fraction"),
        "peak_rss_mb": (result.peak_rss_mb, "MB"),
    }


def noise_floor_s() -> float:
    """Median of three timings of a fixed pure-Python loop; context only,
    never used to rescale."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i % 7
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported tree, or one inside another repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "odesym").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(seed: int) -> dict:
    from sympy.external.gmpy import GROUND_TYPES

    return {
        "sympy": sympy.__version__,
        "ground_types": GROUND_TYPES,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "noise_floor_s": noise_floor_s(),
    }
