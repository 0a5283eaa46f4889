"""Tests of the benchmark itself: answer key, output checks, failure counting.

    python3 -m pytest perfbench/test_perfbench.py -q

The C3 comparison runs the casebook case once (tens of seconds).
"""

import json
from pathlib import Path

import pytest

from odesym import casebook
from perfbench import answer_key as key
from perfbench import harness, scaling, tracer, workloads

ROOT = Path(__file__).resolve().parent.parent


def test_population_size():
    full = key.symbolic_key()
    assert len(full) == 87
    assert sum(v == key.REFUTED for v in full.values()) == 27


def test_key_matches_c3_positive_sets():
    report = casebook.run_case("C3")
    assert all(c.status == "verified" for c in report.claims)
    c3_positive = {c.claim_id for c in report.claims if str(c.residual) == "0"}
    tables = [("divergence", n) for n in (3, 4, 5, 6)] + [("variational", n) for n in (4, 6)]
    hand = {f"n{n}-{kind[:3]}-{g}" for (kind, n, g), v in key.symbolic_key(tables).items()
            if v == key.VERIFIED}
    assert {c.claim_id for c in report.claims} == {
        f"n{n}-{kind[:3]}-{g}" for kind, n in tables for g in key.generator_names(n)
    }
    assert hand == c3_positive


def _table_requests(answer, n=3):
    (round0,) = workloads.symbolic_tables(seed=5, rounds=1, answer=answer)
    build = [r for r in round0 if r.name == f"build-div-n{n}"]
    claims = [r for r in round0 if r.name.startswith(f"div-n{n}-")]
    return build + claims


def test_true_key_gives_no_failures():
    result = harness.execute([_table_requests(None)])
    assert len(result.records) == 8
    assert harness.end_to_end(result, 0.0)["fail_share"][0] == 0


@pytest.mark.parametrize("entry", ["V0", "F3"])
def test_corrupted_key_entry_counts_as_failure(entry):
    answer = key.symbolic_key(workloads.TIMED_TABLES)
    flip = {key.VERIFIED: key.REFUTED, key.REFUTED: key.VERIFIED}
    answer["divergence", 3, entry] = flip[answer["divergence", 3, entry]]
    result = harness.execute([_table_requests(answer)])
    assert harness.end_to_end(result, 0.0)["fail_share"][0] == pytest.approx(1 / 8)
    assert [r.name for r in result.records if not r.ok] == [f"div-n3-{entry}"]


def test_output_checks_reject_wrong_outputs():
    good = "y4 + 10*q*y2 + 10*q1*y1 + (3*q2 + 9*q^2)*y"
    assert workloads._build_lode_check(4)(good)
    assert not workloads._build_lode_check(4)(good.replace("10*q1", "9*q1"))
    assert workloads._first_integral_check(3)("2*q*y^2 - y1^2/2 + y*y2")
    assert not workloads._first_integral_check(3)("2*q*y^2 - y1^2/2 + y*y3")


def test_declared_metrics_match_what_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = harness.end_to_end(harness.RunResult(records=[harness.Record("r", "verified", 1.0, True)]), 1.0)
    assert {m["name"] for m in spec["end_to_end"]} <= set(e2e)
    layers = tracer.layer_metrics(tracer.Tracer(), 0.0, 0.0)
    points = {s: {n: 1.0 for n in orders} for s, orders in scaling.SERIES.items()}
    layers.update(scaling.metrics(points))
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
