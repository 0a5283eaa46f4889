import math
import pathlib
import random

import pytest
import sympy as sp
from sympy.polys.rings import PolyElement

from odesym import casebook, exprcore
from odesym.casebook import (
    CASE_IDS,
    SingularityEncountered,
    claim_status,
    example_equation_display,
    example_first_integral_components,
    example_map,
    independence_determinant,
    membership_pattern,
    numeric_validate,
    run_case,
)
from odesym.cli import emit_report
from odesym.exprcore import COEF_Q, JET, X, canon
from odesym.jetcalc import DiffEq
from odesym.maxsym import (
    SourceContext,
    build_lode,
    generators,
    reference_first_integral_homogeneity,
    specialize_q,
    transformed_lagrangian,
)
from odesym.noether import NotADivergenceSymmetry, divergence_check, first_integral, variational_check
from odesym.transform import PointTransformation, transform_equation

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


@pytest.mark.parametrize("kind, n", [*(("divergence", n) for n in range(3, 13)),
                                     *(("variational", n) for n in range(4, 13, 2))])
def test_membership_pattern_is_the_computed_table(kind, n):
    # the generators the paper lists are exactly those whose check holds
    # under the symbolic context; every other one is refuted by a witness
    check, obj = ((divergence_check, build_lode(n, CTX)) if kind == "divergence"
                  else (variational_check, transformed_lagrangian(n, CTX)))
    verdicts = {name: check(vf, obj, CTX) for name, vf in generators(n).by_name().items()}
    assert membership_pattern(n, kind) == {name for name, verdict in verdicts.items() if verdict.holds}
    assert all(claim_status(False, v.pair) == "refuted-witness" for v in verdicts.values() if not v.holds)


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


def _reference_drift(F, q_expr=None, ic=(), span=2.0, steps=2000, equation=None):
    """The RK4 harness as one lambdify'd function per expression and one
    list per stage: the reference whose drifts the generated loop of
    numeric_validate must reproduce bit for bit."""
    expr = F.expr if hasattr(F, "expr") else sp.sympify(F)
    eq = equation if equation is not None else F.equation
    n = eq.order
    rhs_expr = eq.solved_rhs()
    if q_expr is not None:
        rhs_expr = specialize_q(rhs_expr, q_expr)
        expr = specialize_q(expr, q_expr)
    state_syms = [X, *JET[:n]]
    rhs = sp.lambdify(state_syms, rhs_expr, modules="math")
    Ff = sp.lambdify(state_syms, expr, modules="math")

    def deriv(t, s):
        return [*s[1:], rhs(t, *s)]

    h = span / steps
    state = [float(c) for c in ic]
    t = 0.0
    try:
        reference = Ff(t, *state)
        drift = 0.0
        scale = max(1.0, abs(reference))
        for _ in range(steps):
            k1v = deriv(t, state)
            k2v = deriv(t + h / 2, [s + h / 2 * k for s, k in zip(state, k1v)])
            k3v = deriv(t + h / 2, [s + h / 2 * k for s, k in zip(state, k2v)])
            k4v = deriv(t + h, [s + h * k for s, k in zip(state, k3v)])
            state = [
                s + h / 6 * (a + 2 * b + 2 * c + d)
                for s, a, b, c, d in zip(state, k1v, k2v, k3v, k4v)
            ]
            t += h
            value = Ff(t, *state)
            if not math.isfinite(value):
                raise SingularityEncountered(f"nonfinite invariant value at x={t}")
            drift = max(drift, abs(value - reference) / scale)
    except (ValueError, OverflowError, ZeroDivisionError) as err:
        raise SingularityEncountered(str(err)) from err
    return drift


_IC = (1.0, 0.2, -0.3, 0.1, 0.5, -0.2, 0.05)


def _parity_cases():
    """(name, F, equation, options) cases of numeric_validate: the homogeneity
    integrals as FirstIntegral and as expression, the corrupted one, the
    four C6 components on a shifted x at k2 = 3/2, and two hand-made F on
    y2 = 0 (the second reads math's sqrt, log and exp)."""
    y, y1 = JET[:2]
    shift = sp.Rational(5, 4)
    for n in (3, 5, 7):
        for q in (1, sp.Rational(3, 2)):
            options = {"q_expr": q, "ic": _IC[:n]}
            F = first_integral(generators(n).homogeneity, build_lode(n, CTX), CTX)
            yield f"homogeneity{n}-integral-q{q}", F, None, options
            yield f"homogeneity{n}-expr-q{q}", reference_first_integral_homogeneity(n), build_lode(n), options
    corrupted = reference_first_integral_homogeneity(3) + sp.Rational(2, 100) * COEF_Q[0] * y**2
    yield "corrupted3", corrupted, build_lode(3), {"q_expr": sp.Rational(3, 2), "ic": (1.0, 0.0, 1.0)}
    eq = transform_equation(DiffEq(JET[4], 4), PointTransformation(X + shift, casebook.K2 - sp.log(y)))
    for j, component in enumerate(example_first_integral_components()):
        F = component.xreplace({X: X + shift}).xreplace({casebook.K2: sp.Rational(3, 2)})
        yield f"component{j}", F, eq, {"ic": (1.0, 0.1, -0.05, 0.02)}
    flat, ic = DiffEq(JET[2], 2), {"ic": (1.0, 0.5), "steps": 200}
    yield "linear", y1, flat, ic
    yield "math-names", sp.sqrt(y1) + sp.log(y1) + sp.exp(y1), flat, ic
    yield "math-names-moving", sp.sqrt(y) + sp.log(y) * sp.exp(X * y1), flat, ic


def test_drift_matches_the_list_loop():
    for name, F, equation, options in _parity_cases():
        options = {**options, "span": 2, "equation": equation}
        assert numeric_validate(F, **options) == _reference_drift(F, **options), name


def test_singularity_matches_the_list_loop():
    y, y1 = JET[:2]
    cases = [
        # y * y1 passes the float range: inf, with no OverflowError
        (y * y1, DiffEq(JET[2], 2), (1e154, 1e154)),
        # the OverflowError of test_numeric_singularity_reported
        (example_first_integral_components()[0], transform_equation(DiffEq(JET[4], 4), example_map()),
         (0.05, -40.0, 0.0, 0.0)),
    ]
    for F, eq, ic in cases:
        options = {"ic": ic, "span": 2, "steps": 400, "equation": eq}
        with pytest.raises(SingularityEncountered) as reference:
            _reference_drift(F, **options)
        with pytest.raises(SingularityEncountered) as generated:
            numeric_validate(F, **options)
        assert type(generated.value.__cause__) is type(reference.value.__cause__)
        assert str(generated.value) == str(reference.value)


def test_drift_needs_no_lambdify(monkeypatch):
    y, y1 = JET[:2]
    cases = [(n, y * JET[n - 1] - y1**2 / 2 + COEF_Q[0] * y**2 * X) for n in range(2, 8)]
    expected = [_reference_drift(F, q_expr=sp.Rational(3, 2), ic=_IC[:n], steps=300, equation=build_lode(n))
                for n, F in cases]

    def no_lambdify(*args, **kwargs):
        raise AssertionError("numeric_validate must not call lambdify")

    monkeypatch.setattr(sp, "lambdify", no_lambdify)
    assert [numeric_validate(F, q_expr=sp.Rational(3, 2), ic=_IC[:n], steps=300, equation=build_lode(n))
            for n, F in cases] == expected


def test_independence_determinant_nonzero():
    det = independence_determinant(example_first_integral_components())
    assert abs(det) > 1e-6


def _tree_determinant(components, seed=0xC6):
    """independence_determinant on trees: each row's values by Basic.subs at
    the drawn point and evalf at 30 digits, the reference the evaluator's
    determinant must equal bit for bit."""
    rng = random.Random(seed)
    symbols = sorted(set().union(*[c.free_symbols for c in components]), key=str)
    rows = []
    for _ in range(len(components)):
        point = {s: sp.Rational(rng.randint(110, 900), 100) for s in symbols}
        rows.append([float(c.subs(point).evalf(30)) for c in components])
    return float(sp.Matrix(rows).det())


def test_independence_determinant_matches_the_tree_route(monkeypatch):
    y, y1, y2 = JET[:3]
    trees = example_first_integral_components()
    rational = [y1 / y, (X * y2 - y1) / y**2, y * y1 + X, (y2 + casebook.K2) / (y1**2 + 1)]
    cases = [trees, [exprcore._canonical_pair(c) for c in trees], rational]
    expected = [_tree_determinant(c) for c in (trees, trees, rational)]
    assert str(sp.Float(expected[0])) == "-384.391639729540"

    def subs(*args, **kwargs):
        raise AssertionError("independence_determinant substituted into a tree")

    monkeypatch.setattr(sp.Basic, "subs", subs)
    assert [independence_determinant(c) for c in cases] == expected


def test_c4_prints_no_pair(forbid_pair_prints):
    # the coefficient claims take the ring partial of the variational
    # checks' pairs, and the targets are reduced as pairs
    forbid_pair_prints()
    report = run_case("C4")
    assert [c.status for c in report.claims] == ["verified"] * 12


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

    monkeypatch.setattr(casebook, "witnessed", no_sampling)
    assert claim_status(False, sp.Float(1e-9)) == "undecided"


def test_reproduce_all_report_is_byte_stable(case_report):
    # the merged report of `odesym reproduce all --json -`, wall times masked
    claims = [c.as_dict() for cid in CASE_IDS for c in case_report(cid).claims]
    for claim in claims:
        claim["millis"] = None
    payload = emit_report({"case": "all", "claims": claims}, "json") + "\n"
    assert payload.encode() == GOLDEN_REPORT.read_bytes()


# the prints of pairs and lifts of trees of each case, run in that order in
# a fresh process, with a source context that is its pair, ladders of scale
# 1, image weights of 1 and a theta of 1 not lifted, and y_x lifted once per
# process; a source context that held its values as trees took
# 0/6/0/14/14/19/0 prints and 22/16/142/59/136/69/23 lifts.  C4 decides its
# coefficient claims on the pairs of its variational checks, and C6's 8
# prints are its four components' and verify_first_integral's multipliers
CASE_COUNT_BOUNDS = dict(zip(CASE_IDS, zip((0, 0, 0, 0, 0, 8, 0), (15, 10, 94, 25, 27, 45, 18))))


def test_cases_print_and_lift_no_more_than_with_tree_contexts(count_prints_and_lifts):
    counts = {}
    for case_id in CASE_IDS:
        before = dict(count_prints_and_lifts)
        run_case(case_id)
        counts[case_id] = tuple(count_prints_and_lifts[k] - before[k] for k in ("prints", "lifts"))
    assert all(a <= b for c in CASE_IDS for a, b in zip(counts[c], CASE_COUNT_BOUNDS[c])), counts
    prints, lifts = map(sum, zip(*counts.values()))
    assert prints < 53 and lifts < 467, counts


def test_refusal_is_certified_at_its_first_draw(monkeypatch):
    # claim_status stops at the first draw above the tolerance, where
    # numeric_witness evaluates all 20 to keep the best
    with pytest.raises(NotADivergenceSymmetry) as refusal:
        first_integral(generators(4).homogeneity, build_lode(4, CTX), CTX)
    calls = []
    evaluator = exprcore._evaluator

    def counted(f):
        evaluate = evaluator(f)

        def counted_evaluate(draws):
            calls.append(draws)
            return evaluate(draws)

        return counted_evaluate

    monkeypatch.setattr(exprcore, "_evaluator", counted)
    assert claim_status(False, refusal.value.pair) == "refuted-witness"
    certified = len(calls)
    assert exprcore.numeric_witness(refusal.value.pair) is not None
    assert certified == 1 and len(calls) - certified == 20


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


def test_a_witness_reads_its_pair_once(monkeypatch):
    # the seed, the evaluator and the atoms of one sampling share one reading
    # of the used generators: two PolyElement.degrees calls, num and den
    with pytest.raises(NotADivergenceSymmetry) as refusal:
        first_integral(generators(4).homogeneity, build_lode(4, CTX), CTX)
    pair = refusal.value.pair
    degrees, calls = PolyElement.degrees, []

    def counted(p):
        calls.append(p)
        return degrees(p)

    monkeypatch.setattr(PolyElement, "degrees", counted)
    assert exprcore.witnessed(exprcore.RingFraction(pair.num, pair.den)) is True
    assert len(calls) == 2


def test_numeric_validate_rejects_its_input():
    eq = DiffEq(JET[2], 2)
    with pytest.raises(ValueError, match="need 2 initial values, got 1"):
        numeric_validate(JET[1], ic=(1.0,), equation=eq)
    with pytest.raises(ValueError, match=r"unbound symbols for numeric validation: \[k1\]"):
        numeric_validate(exprcore.PARAMS["k1"] * JET[1], ic=(1.0, 0.5), equation=eq)
    # a run of no step or of zero span integrates nothing: it would read a
    # corrupted integral as conserved (drift 0.0), or divide by zero
    corrupted = reference_first_integral_homogeneity(3) + JET[0] ** 2 / 50
    options = {"q_expr": sp.Rational(3, 2), "ic": (1.0, 0.5, 0.2), "equation": build_lode(3)}
    assert numeric_validate(corrupted, steps=300, **options) > 1e-3
    for run in ({"steps": -5}, {"span": 0}, {"steps": 0}):
        with pytest.raises(ValueError, match="need steps >= 1 and a nonzero span"):
            numeric_validate(corrupted, **run, **options)
