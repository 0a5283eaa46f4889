import math
import pathlib

import pytest
import sympy as sp

from odesym import casebook
from odesym.casebook import (
    CASE_IDS,
    SingularityEncountered,
    claim_status,
    example_equation_display,
    example_first_integral_components,
    example_map,
    independence_determinant,
    numeric_validate,
    run_case,
)
from odesym.cli import emit_report
from odesym.exprcore import COEF_Q, JET, canon
from odesym.jetcalc import DiffEq
from odesym.maxsym import SourceContext, build_lode, generators
from odesym.noether import divergence_check, first_integral
from odesym.transform import transform_equation

CTX = SourceContext.make_symbolic()
GOLDEN_REPORT = pathlib.Path(__file__).parent / "data" / "reproduce_all.json"


def test_inventory_is_complete():
    assert CASE_IDS == ("C1", "C2", "C3", "C4", "C5", "C6", "C7")
    with pytest.raises(KeyError):
        run_case("C8")


@pytest.mark.parametrize("case_id", CASE_IDS)
def test_case_verifies(case_id, case_report):
    report = case_report(case_id)
    assert report.case_id == case_id
    assert report.claims, "no claim may be silently omitted"
    failures = [c for c in report.claims if c.status != "verified"]
    assert not failures, failures


def test_case_claim_counts(case_report):
    assert len(case_report("C1").claims) == 3
    assert len(case_report("C2").claims) == 3
    assert len(case_report("C4").claims) == 12
    assert len(case_report("C6").claims) == 14


def test_report_dict_shape(case_report):
    d = case_report("C1").as_dict()
    assert set(d) == {"case", "claims"}
    for claim in d["claims"]:
        assert set(claim) == {"id", "status", "residual", "paper_ref", "millis"}


def test_numeric_drift_small_for_true_integral():
    F3 = first_integral(generators(3).homogeneity, build_lode(3, CTX), CTX)
    drift = numeric_validate(F3, q_expr=1, ic=(1.0, 0.0, 1.0), span=2, steps=2000)
    assert drift < 1e-6


def test_numeric_drift_detects_corruption():
    F3 = first_integral(generators(3).homogeneity, build_lode(3, CTX), CTX)
    corrupted = F3.expr + sp.Rational(2, 100) * COEF_Q[0] * JET[0] ** 2
    drift = numeric_validate(
        corrupted, q_expr=1, ic=(1.0, 0.0, 1.0), span=2, steps=2000, equation=F3.equation
    )
    assert drift > 1e-3


def test_numeric_drift_exact_linear_dynamics():
    drift = numeric_validate(JET[1], ic=(1.0, 0.5), span=2, steps=200, equation=DiffEq(JET[2], 2))
    assert drift < 1e-12


def test_numeric_singularity_reported():
    eq = transform_equation(DiffEq(JET[4], 4), example_map())
    component = example_first_integral_components()[0]
    with pytest.raises(SingularityEncountered):
        # y crosses zero almost immediately
        numeric_validate(component, ic=(0.05, -40.0, 0.0, 0.0), span=2, steps=400, equation=eq)


def test_independence_determinant_nonzero():
    det = independence_determinant(example_first_integral_components())
    assert abs(det) > 1e-6


def test_symbolic_and_numeric_agree():
    # every symbolically verified first integral stays flat numerically
    wy = generators(3).homogeneity
    for n, ic in ((3, (1.0, 0.0, 1.0)), (5, (1.0, 0.2, -0.3, 0.1, 0.5))):
        F = first_integral(wy, build_lode(n, CTX), CTX)
        assert numeric_validate(F, q_expr=1, ic=ic, span=2, steps=2000) < 1e-4


def test_claim_status_contract(monkeypatch):
    y = JET[0]
    assert claim_status(True, 0) == "verified"
    assert claim_status(False, y) == "refuted-witness"
    # for a non-membership claim an exact zero is the certified refutation
    assert claim_status(True, 0, negative=True) == "refuted-witness"
    assert claim_status(False, y, negative=True) == "verified"
    # nonzero, but below the witness tolerance everywhere
    assert claim_status(False, y / 10**12) == "undecided"
    assert claim_status(False, y / 10**12, negative=True) == "undecided"

    def no_sampling(e):
        raise AssertionError("an inexact residual must not be sampled")

    monkeypatch.setattr(casebook, "numeric_witness", no_sampling)
    assert claim_status(False, sp.Float(1e-9)) == "undecided"


def test_reproduce_all_report_is_byte_stable(case_report):
    # the merged report of `odesym reproduce all --json -`, wall times masked
    claims = [c.as_dict() for cid in CASE_IDS for c in case_report(cid).claims]
    for claim in claims:
        claim["millis"] = None
    payload = emit_report({"case": "all", "claims": claims}, "json") + "\n"
    assert payload.encode() == GOLDEN_REPORT.read_bytes()


def test_refutation_is_certified_without_a_lift(forbid_lifts):
    # W_y is no divergence symmetry at n = 4 (a C3 non-membership claim); its
    # status comes from the pair the check decided on
    verdict = divergence_check(generators(4).homogeneity, build_lode(4, CTX), CTX)
    assert not verdict.holds
    forbid_lifts()
    assert claim_status(False, verdict.pair) == "refuted-witness"
    rec = casebook._Recorder("C3")
    rec.negative("n4-div-Wy", verdict.pair)
    assert [c.status for c in rec.report.claims] == ["verified"]
