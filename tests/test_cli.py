import json
import pathlib
import re
import shlex

import pytest
import sympy as sp

from odesym import casebook, cli, exprcore, maxsym, noether
from odesym.casebook import SingularityEncountered
from odesym.cli import emit_report, main
from odesym.exprcore import JET, Inconclusive, canon
from odesym.grammar import ParseError, parse
from odesym.jetcalc import JetOrderLimit, NotExact
from odesym.noether import SymmetryVerdict


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generators_text(capsys):
    code, out, _ = run(capsys, "generators", "--n", "4")
    assert code == 0
    for name in ("V0", "V3", "Wy", "F4", "G4", "H4"):
        assert name in out
    assert out.count("d/dy") == 8


def test_generators_bad_order(capsys):
    code, _, err = run(capsys, "generators", "--n", "1")
    assert code == 2


def test_build_lode_output_parses(capsys):
    code, out, _ = run(capsys, "build-lode", "--n", "3")
    assert code == 0
    assert canon(parse(out.strip()) - parse("y3 + 4*q*y1 + 2*q1*y")) == 0


def test_first_integral_homogeneity(capsys):
    code, out, _ = run(capsys, "first-integral", "--vf", "0;y", "--n", "3")
    assert code == 0
    assert canon(parse(out.strip()) - parse("2*q*y^2 - y1^2/2 + y*y2")) == 0


def test_first_integral_with_concrete_q(capsys):
    code, out, _ = run(capsys, "first-integral", "--vf", "0;y", "--n", "3", "--q", "1")
    assert code == 0
    assert canon(parse(out.strip()) - parse("2*y^2 - y1^2/2 + y*y2")) == 0


def test_check_missing_order_is_usage_error(capsys):
    code, _, err = run(capsys, "check", "--kind", "divergence", "--vf", "0;y", "--eq", "y2+q*y")
    assert code == 2
    assert "order" in err


def test_check_divergence_holds(capsys):
    code, out, _ = run(
        capsys, "check", "--kind", "divergence", "--vf", "0;y",
        "--eq", "y3+4*q*y1+2*q1*y", "--order", "3",
    )
    assert code == 0
    assert "verified" in out


def test_check_divergence_with_nonconstant_q(capsys):
    code, out, _ = run(
        capsys, "check", "--kind", "divergence", "--vf", "0;y",
        "--eq", "y3+4*q*y1+2*q1*y", "--order", "3", "--q", "-2/x^2",
    )
    assert code == 0
    assert "verified" in out


def test_check_divergence_refuted(capsys):
    code, out, _ = run(
        capsys, "check", "--kind", "divergence", "--vf", "0;y",
        "--eq", "y4+10*q*y2+10*q1*y1+(3*q2+9*q^2)*y", "--order", "4",
    )
    assert code == 1
    assert "refuted-witness" in out


@pytest.mark.parametrize(
    "vf, eq, order, q, code, residual",
    [
        ("0;y", "y4+q*y2+q1*y1", "4", None, 0, None),
        ("x;0", "y3+q*y1", "3", "-2/x^2", 0, None),
        ("1;0", "y3+q*y1+x*y", "3", "1", 1, "y"),
        ("x;0", "y3+q*y1", "3", "sqrt(x)", 1, "5*sqrt(x)*y1/2"),
        ("1;0", "y2 - (1+y1^2)^(-3/2)", "2", None, 0, None),
        ("0;q*y", "y3+4*q*y1+2*q1*y", "3", "1", 0, None),
    ],
)
def test_check_lie(capsys, vf, eq, order, q, code, residual):
    argv = ["check", "--kind", "lie", "--vf", vf, "--eq", eq, "--order", order]
    got, out, _ = run(capsys, *argv, *(("--q", q) if q else ()))
    assert got == code
    if residual is None:
        assert "lie-symmetry: verified" in out
    else:
        assert "lie-symmetry: refuted-witness" in out
        assert out.strip().split("residual = ")[1] == residual


def test_check_variational_with_concrete_q(capsys):
    code, out, _ = run(
        capsys, "check", "--kind", "variational", "--vf", "0;1",
        "--lagrangian", "y2^2/2", "--order", "2", "--q", "0",
    )
    assert code == 0


def test_check_rejects_solution_symbols_with_concrete_q(capsys):
    code, _, err = run(
        capsys, "check", "--kind", "divergence", "--vf", "0;u^2",
        "--eq", "y3", "--order", "3", "--q", "0",
    )
    assert code == 2


@pytest.mark.parametrize("kind, vf, obj, order, q", [
    ("divergence", "0;q*y", ("--eq", "y3+4*q*y1+2*q1*y"), "3", "1"),
    ("variational", "0;q", ("--lagrangian", "y1^2/2"), "1", "0"),
], ids=["divergence", "variational"])
def test_q_reaches_the_field(capsys, kind, vf, obj, order, q):
    # --q substitutes into the field too: q*y at q = 1 is W_y, q at q = 0 is 0
    got = run(capsys, "check", "--kind", kind, "--vf", vf, *obj, "--order", order, "--q", q)
    assert got == (0, f"  {kind}-symmetry: verified\n", "")


def test_first_integral_q_reaches_the_field(capsys):
    argv = ("first-integral", "--n", "3", "--q", "1", "--vf")
    assert run(capsys, *argv, "0;q*y") == run(capsys, *argv, "0;y") == (0, "2*y^2 + y*y2 - y1^2/2\n", "")


@pytest.mark.parametrize("argv", [
    ("check", "--kind", "lie", "--vf", "0;q*u", "--eq", "y3", "--order", "3"),
    ("check", "--kind", "lie", "--vf", "0;y", "--eq", "y3+v*y", "--order", "3"),
    ("first-integral", "--vf", "0;u^2", "--n", "3"),
], ids=["check-field", "check-equation", "first-integral"])
def test_q_refuses_solution_symbols(capsys, argv):
    # a field or equation in u or v has no concrete coefficient, with or without q in it
    got = run(capsys, *argv, "--q", "0")
    assert got == (2, "", "error: --q fixes a concrete coefficient; inputs must not use u or v\n")


@pytest.mark.parametrize("argv", [
    ("build-lode", "--n", "3", "--q", "y"),
    ("build-lode", "--n", "3", "--q", "y1"),
    ("build-lode", "--n", "3", "--q", "u"),
    ("build-lode", "--n", "3", "--q", "q1"),
    ("build-lode", "--n", "3", "--q", "x*v"),
    ("first-integral", "--vf", "0;y", "--n", "3", "--q", "u"),
    ("check", "--kind", "divergence", "--vf", "0;y",
     "--eq", "y3+4*q*y1+2*q1*y", "--order", "3", "--q", "y"),
    ("check", "--kind", "variational", "--vf", "0;1",
     "--lagrangian", "y2^2/2", "--order", "2", "--q", "q"),
], ids=lambda argv: argv[0] + "-" + argv[-1])
def test_q_must_be_a_function_of_x(capsys, argv):
    # a coefficient q(x) holds x and the parameters only; a jet, solution or
    # q symbol would make the output nonlinear or leave q in it
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: --q") and err.count("\n") == 1


def test_q_may_hold_parameters(capsys):
    code, out, _ = run(capsys, "build-lode", "--n", "3", "--q", "k1*x")
    assert code == 0
    assert canon(parse(out.strip()) - parse("y3 + 4*k1*x*y1 + 2*k1*y")) == 0


def test_parse_error_reports_position(capsys):
    code, _, err = run(capsys, "build-lode", "--n", "3", "--q", "1/(x")
    assert code == 2
    assert "column" in err


def test_parse_expr_validates_without_a_lift(forbid_lifts):
    # the grammar walk validates; the input is lifted into the ring only by
    # the object built from it
    forbid_lifts()
    assert cli._parse_expr("ln(y)*y1 + x^(1/2)") == parse("ln(y)*y1 + x^(1/2)")
    for text in ("ln(ln(y))", "x^y", "exp(sqrt(y))"):
        with pytest.raises(cli.UsageError, match="nested|non-rational"):
            cli._parse_expr(text)


def test_transform_equation(capsys):
    code, out, _ = run(
        capsys, "transform", "--map", "z=x; w=k2-ln(y)", "--eq", "y4", "--order", "4"
    )
    assert code == 0
    assert out == "Delta = (y^3*y4 - 4*y^2*y1*y3 - 3*y^2*y2^2 + 12*y*y1^2*y2 - 6*y1^4)/y^3\n"


def test_radical_forms_share_one_canon(capsys):
    # Two printed forms of the same order-5 equation: x^(17/2) = x^8*sqrt(x)
    # over the denominator 2*x^(17/2), and the radical-free denominator 2*x^5.
    code, out, _ = run(capsys, "build-lode", "--n", "5", "--q", "1+x^(-3/2)")
    assert code == 0
    written = (
        "(128*x^(17/2)*y1 + 40*x^(17/2)*y3 + 2*x^(17/2)*y5 + 128*x^(11/2)*y1"
        " - 192*x^(9/2)*y + 256*x^7*y1 + 40*x^7*y3 - 192*x^6*y - 90*x^6*y2"
        " + 135*x^5*y1 - 105*x^4*y)/(2*x^(17/2))",
        "(256*x^(7/2)*y1 + 40*x^(7/2)*y3 - 192*x^(5/2)*y - 90*x^(5/2)*y2"
        " + 135*x^(3/2)*y1 - 105*sqrt(x)*y + 128*x^5*y1 + 40*x^5*y3 + 2*x^5*y5"
        " + 128*x^2*y1 - 192*x*y)/(2*x^5)",
    )
    assert len({canon(parse(text)) for text in (out.strip(), *written)}) == 1


@pytest.mark.parametrize("obj", [
    ("--eq", "y2", "--order", "2"),
    ("--eq", "y4", "--order", "4"),
    ("--lagrangian", "y2^2/2", "--order", "2"),
    ("--vf", "-x^2;-3*x*y"),
    ("--integral", "y3"),
], ids=lambda obj: obj[0][2:] + obj[1])
def test_transform_text_and_json_print_one_form(capsys, obj):
    argv = ("transform", "--map", "z=x; w=k2-ln(y)", *obj)
    code, text, _ = run(capsys, *argv)
    assert code == 0
    code, payload, _ = run(capsys, *argv, "--json", "-")
    assert code == 0
    claims = json.loads(payload)["claims"]
    assert text == "".join(f"{c['id']} = {c['residual']}\n" for c in claims)


@pytest.mark.parametrize("argv", [
    ("check", "--kind", "divergence", "--vf", "0;ln(-y)", "--eq", "y3", "--order", "3"),
    ("check", "--kind", "lie", "--vf", "0;ln(-y)", "--eq", "y3", "--order", "3"),
    ("transform", "--map", "z=x; w=k2-ln(y)", "--integral", "ln(y1)"),
], ids=["divergence", "lie", "transform"])
def test_ln_of_a_negative_value_is_usage_error(capsys, argv):
    # ln(-y), and ln(y1) moved to ln(-y1/y), have no real value on the domain
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


def test_transform_requires_one_object(capsys):
    code, _, err = run(capsys, "transform", "--map", "z=x; w=y", "--eq", "y2", "--vf", "0;y")
    assert code == 2


def test_transform_singular_map(capsys):
    code, _, err = run(capsys, "transform", "--map", "z=x; w=x^2", "--integral", "y1")
    assert code == 2


def test_unknown_flag_rejected(capsys):
    code, _, _ = run(capsys, "generators", "--n", "4", "--frobnicate")
    assert code == 2


def test_reproduce_json_schema(tmp_path, capsys):
    target = tmp_path / "c1.json"
    code, out, _ = run(capsys, "reproduce", "C1", "--json", str(target))
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["case"] == "C1"
    assert [c["status"] for c in payload["claims"]] == ["verified"] * 3
    for claim in payload["claims"]:
        assert set(claim) == {"id", "status", "residual", "paper_ref", "millis"}


@pytest.mark.parametrize("argv", [
    ("generators", "--n", "3"),
    ("check", "--kind", "lie", "--vf", "1;0", "--eq", "y2", "--order", "2"),
    ("reproduce", "C1"),
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_json_path_is_usage_error(capsys, monkeypatch, tmp_path, argv, where):
    path = tmp_path / "missing" / "out.json" if where == "missing-directory" else tmp_path

    def no_work(*args, **kwargs):
        raise AssertionError("work ran before the --json path was checked")

    monkeypatch.setattr(casebook, "run_case", no_work)
    monkeypatch.setattr(noether, "lie_symmetry_check", no_work)
    monkeypatch.setattr(maxsym, "generators", no_work)
    code, out, err = run(capsys, *argv, "--json", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_json_write_failure_is_usage_error(capsys, monkeypatch, tmp_path):
    def full_disk(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    code, out, err = run(capsys, "generators", "--n", "3", "--json", str(tmp_path / "out.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write --json") and err.count("\n") == 1


def test_reproduce_deterministic_modulo_millis(tmp_path, capsys):
    paths = []
    for name in ("a.json", "b.json"):
        target = tmp_path / name
        code, _, _ = run(capsys, "reproduce", "C7", "--json", str(target))
        assert code == 0
        paths.append(target)

    def normal(path):
        data = json.loads(path.read_text())
        for claim in data["claims"]:
            claim["millis"] = None
        return json.dumps(data)

    assert normal(paths[0]) == normal(paths[1])


def test_emit_report_empty():
    payload = emit_report({"case": None, "claims": []}, "json")
    assert json.loads(payload) == {"case": None, "claims": []}
    assert "no claims" in emit_report({"case": None, "claims": []}, "text")


def test_round_trip_of_printed_expressions(capsys):
    # every expression printed by a construction subcommand re-parses
    for argv, reference in (
        (("build-lode", "--n", "4"), None),
        (("lagrangian", "--n", "4", "--kind", "natural"), None),
        (("lagrangian", "--n", "2", "--kind", "transformed"), None),
        (("first-integral", "--vf", "0;y", "--n", "5"), None),
    ):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        reparsed = parse(out.strip())
        assert canon(reparsed - parse(out.strip())) == 0


def test_check_without_witness_is_undecided(capsys):
    # S(v) = 10^-12 is nonzero, but below the witness tolerance everywhere
    code, out, _ = run(
        capsys, "check", "--kind", "variational", "--vf", "0;1",
        "--lagrangian", "y/10^12", "--order", "0",
    )
    assert code == 3
    assert "undecided" in out


def test_check_past_jet_limit_is_undecided(capsys):
    code, _, err = run(
        capsys, "check", "--kind", "divergence", "--vf", "x;y",
        "--eq", "y24+y1^2", "--order", "24",
    )
    assert code == 3
    assert err.count("\n") == 1 and "JetOrderLimit" in err


def test_check_at_jet_limit_with_fixed_jets_is_verified(capsys):
    # S = pr v(L) + L D_x xi for v = d/dx holds the jets fixed: nothing
    # reaches past y24, so the exact zero is a verdict.
    code, out, err = run(
        capsys, "check", "--kind", "variational", "--vf", "1;0",
        "--lagrangian", "y24^2", "--order", "24", "--json", "-",
    )
    assert code == 0 and err == ""
    assert json.loads(out)["claims"][0]["status"] == "verified"


@pytest.mark.parametrize("error", [
    Inconclusive(parse("y")),
    NotExact("not exact"),
    maxsym.EliminationFailed(parse("u")),
    SingularityEncountered("pole"),
    JetOrderLimit("jet order limit exceeded"),
], ids=lambda e: type(e).__name__)
def test_kernel_errors_are_undecided(capsys, monkeypatch, error):
    def fail(n):
        raise error

    monkeypatch.setattr(cli.maxsym, "generators", fail)
    code, out, err = run(capsys, "generators", "--n", "4")
    assert code == 3
    assert out == "" and err.count("\n") == 1 and err.startswith("undecided:")


def test_internal_error_is_not_a_refutation(capsys, monkeypatch):
    def fail(n):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(cli.maxsym, "generators", fail)
    code, _, err = run(capsys, "generators", "--n", "4")
    assert code == 3
    assert "ZeroDivisionError" in err and "internal error" in err


@pytest.mark.parametrize("argv", [
    ("check", "--kind", "divergence", "--vf", "0;y",
     "--eq", "y3 + 1/(ln(x*y)-ln(x)-ln(y))", "--order", "3"),
    ("check", "--kind", "variational", "--vf", "0;y",
     "--lagrangian", "y1^2 + 1/(ln(x*y)-ln(x)-ln(y))", "--order", "1"),
    ("transform", "--map", "z=x; w=y", "--integral", "1/(ln(x*y)-ln(x)-ln(y))"),
    ("build-lode", "--n", "3", "--q", "1/(ln(2*x)-ln(2)-ln(x))"),
    ("first-integral", "--n", "3", "--vf", "0;y", "--q", "1/(ln(2*x)-ln(2)-ln(x))"),
    ("check", "--kind", "lie", "--vf", "0;1/(ln(x*y)-ln(x)-ln(y))", "--eq", "y3", "--order", "3"),
    pytest.param(("check", "--kind", "lie", "--vf", "0;1/(u2+q*u)", "--eq", "y3", "--order", "3"),
                 id="check-lie-on-solutions"),
    pytest.param(("first-integral", "--vf", "0;1/(u2+q*u)", "--n", "3"), id="first-integral-on-solutions"),
    pytest.param(("check", "--kind", "lie", "--vf", "0;y/(q-1)", "--eq", "y3", "--order", "3", "--q", "1"),
                 id="check-lie-at-q"),
    pytest.param(("first-integral", "--vf", "0;y/(q-1)", "--n", "3", "--q", "1"), id="first-integral-at-q"),
], ids=lambda argv: argv[0] + ("-" + argv[2] if argv[0] == "check" else ""))
def test_zero_denominator_in_input_is_usage_error(capsys, argv):
    # ln(x*y) - ln(x) - ln(y) and ln(2x) - ln(2) - ln(x) are 0 in the ring,
    # u2 + q*u is 0 on the source solutions, and q - 1 is 0 at --q 1
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1


ZERO = "(ln(x*y)-ln(x)-ln(y))"  # 0 in the ring


@pytest.mark.parametrize("z, w", [("x", f"y/{ZERO}"), (f"x/{ZERO}", "y")], ids=["w", "z"])
def test_zero_denominator_in_map_is_usage_error(capsys, z, w):
    code, out, err = run(capsys, "transform", "--map", f"z={z}; w={w}", "--eq", "y2", "--order", "2")
    assert (code, out, err) == (2, "", "error: zero base of a negative power in 1/(-log(x) - log(y) + log(x*y))\n")


@pytest.mark.parametrize("text", ["z=x; w=y; w=y^2", "z=x; z=x^2; w=y"], ids=["w", "z"])
def test_repeated_map_component_is_usage_error(capsys, text):
    got = run(capsys, "transform", "--map", text, "--eq", "y2", "--order", "2")
    assert got == (2, "", "error: map must define exactly z and w\n")


@pytest.mark.parametrize("eq, order, err", [
    (f"y3*{ZERO}+y", "3", "leading coefficient is identically zero"),
    (f"y3*{ZERO}+y", "2", "declared order 2 does not match y + y3*(-log(x) - log(y) + log(x*y))"),
    ("y3^2+y", "3", "equation is not linear in its top derivative"),
    (f"y3 + 1/{ZERO}", "3", "zero base of a negative power in 1/(-log(x) - log(y) + log(x*y))"),
], ids=["zero-lead", "order", "nonlinear-top", "zero-denominator"])
def test_equation_errors_keep_their_messages(capsys, eq, order, err):
    # the declared order is tested on the input as given, before its lead cancels in the ring
    for argv in (("check", "--kind", "lie", "--vf", "0;y"), ("transform", "--map", "z=x; w=y^2")):
        assert run(capsys, *argv, "--eq", eq, "--order", order) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("argv", [
    ("check", "--kind", "lie", "--vf", "0;sqrt(u2+q*u)", "--eq", "y3", "--order", "3"),
    ("check", "--kind", "divergence", "--vf", "0;sqrt(u2+q*u)", "--eq", "y3", "--order", "3"),
    ("first-integral", "--vf", "0;sqrt(u2+q*u)", "--n", "3"),
], ids=["check-lie", "check-divergence", "first-integral"])
def test_check_dividing_by_zero_on_solutions_is_usage_error(capsys, argv):
    # the field reduces to 0 on the source solutions, its derivatives divide by it
    assert run(capsys, *argv) == (2, "", "error: a denominator vanishes on the source solutions\n")


@pytest.mark.parametrize("argv, option, where", [
    (("build-lode", "--n", "3", "--q", "ln(x-x)"), "--q", "as written"),
    (("check", "--kind", "lie", "--vf", "0;ln(u2+q*u)", "--eq", "y3", "--order", "3"),
     "--vf", "on the source solutions"),
    (("check", "--kind", "lie", "--vf", "0;y", "--eq", "y3 + 1/0", "--order", "3"), "--eq", "as written"),
    (("first-integral", "--vf", "0;ln(q)", "--n", "3", "--q", "0"), "--vf", "at --q"),
], ids=["q", "vf-on-solutions", "eq", "vf-at-q"])
def test_undefined_input_names_its_option(capsys, argv, option, where):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {option} is undefined {where}\n")
    assert "ComplexInfinity" not in err and "zoo" not in err


@pytest.mark.parametrize("argv, where", [
    (("check", "--kind", "lie", "--vf", "0;1/(u2+q*u)", "--eq", "y3", "--order", "3"), "on the source solutions"),
    (("first-integral", "--vf", "0;y/(q-1)", "--n", "3", "--q", "1"), "at --q"),
], ids=["on-solutions", "at-q"])
def test_vanishing_input_denominator_names_its_option(capsys, argv, where):
    assert run(capsys, *argv) == (2, "", f"error: a denominator of --vf vanishes {where}\n")


@pytest.mark.parametrize("argv, prints, lifts", [
    (("first-integral", "--vf", "0;y", "--n", "5", "--q", "1/(x^2+1)"), 7, 2),
    (("check", "--kind", "divergence", "--vf", "0;q*y", "--eq", "y3+4*q*y1+2*q1*y", "--order", "3",
      "--q", "1"), 1, 2),
], ids=["first-integral", "check"])
def test_q_values_stay_pairs(capsys, monkeypatch, argv, prints, lifts):
    # the values at --q go on as pairs: no print of one that is lifted again
    expected = run(capsys, *argv)  # builds and memoises Delta_n
    counts = {"as_expr": 0, "from_expr": 0}
    as_expr, from_expr = exprcore.RingFraction.as_expr, exprcore.RingFraction.from_expr

    def counted_as_expr(f):
        counts["as_expr"] += 1
        return as_expr(f)

    def counted_from_expr(*args, **kwargs):
        counts["from_expr"] += 1
        return from_expr(*args, **kwargs)

    monkeypatch.setattr(exprcore.RingFraction, "as_expr", counted_as_expr)
    monkeypatch.setattr(exprcore.RingFraction, "from_expr", staticmethod(counted_from_expr))
    assert run(capsys, *argv) == expected and expected[0] == 0
    assert counts["as_expr"] <= prints and counts["from_expr"] <= lifts, counts


KERNEL_COMMANDS = [
    ("generators", "--n", "12"),
    ("build-lode", "--n", "8", "--q", "-6/x^2"),
    ("lagrangian", "--n", "6", "--kind", "transformed"),
    ("first-integral", "--vf", "0;y", "--n", "5", "--q", "-2/x^2"),
]


@pytest.mark.parametrize("argv", [*KERNEL_COMMANDS, *((*argv, "--json", "-") for argv in KERNEL_COMMANDS)],
                         ids=lambda argv: " ".join(argv))
def test_kernel_shapes_never_reach_strprinter(capsys, forbid_str_printer, argv):
    # the generators, equations, Lagrangians and first integrals print directly
    expected = run(capsys, *argv)
    forbid_str_printer()
    assert run(capsys, *argv) == expected
    assert expected[0] == 0


def test_node_output_prints_through_strprinter(capsys, monkeypatch):
    # the integral under C6's map holds ln(y): a tree outside the direct shapes
    argv = ("transform", "--map", "z=x; w=k2-ln(y)", "--integral", "y*y2")
    expected = run(capsys, *argv)
    printed = []
    doprint = sp.StrPrinter.doprint

    def recorded(self, e):
        printed.append(e)
        return doprint(self, e)

    monkeypatch.setattr(sp.StrPrinter, "doprint", recorded)
    assert run(capsys, *argv) == expected
    assert expected == (0, "F = (-k2*y*y2 + k2*y1^2 + y*y2*ln(y) - y1^2*ln(y))/y^2\n", "")
    assert any(e.has(sp.log) for e in printed)


def test_order_above_jet_registry_is_bad_order(capsys):
    code, _, err = run(capsys, "generators", "--n", "25")
    assert code == 2
    assert "limit" in err


def test_vf_value_starting_with_minus(capsys):
    argv = ("check", "--kind", "divergence", "--eq", "y3", "--order", "3")
    separate = run(capsys, *argv, "--vf", "-x;y")
    joined = run(capsys, *argv, "--vf=-x;y")
    assert separate == joined and separate[0] == 1


def test_q_value_starting_with_minus(capsys):
    separate = run(capsys, "build-lode", "--n", "3", "--q", "-2/x^2")
    joined = run(capsys, "build-lode", "--n", "3", "--q=-2/x^2")
    assert separate == joined and separate[0] == 0


@pytest.mark.parametrize("witnessed, status, code", [
    (True, "refuted-witness", 1),
    (False, "undecided", 3),
])
def test_reproduce_exit_code_follows_the_witness(capsys, monkeypatch, witnessed, status, code):
    # the first C7 claim fails with the nonzero residual y; only a witness
    # makes that a refutation
    real = casebook.divergence_relation_check
    calls = []

    def corrupt_first(*args):
        calls.append(args)
        if len(calls) == 1:
            return SymmetryVerdict("variational", False, JET[0])
        return real(*args)

    monkeypatch.setattr(casebook, "divergence_relation_check", corrupt_first)
    if not witnessed:
        monkeypatch.setattr(casebook, "witnessed", lambda e: False)
    got, out, err = run(capsys, "reproduce", "C7", "--json", "-")
    statuses = [c["status"] for c in json.loads(out)["claims"]]
    assert statuses == [status, "verified", "verified"]
    assert got == code
    expected = "refutations found" if witnessed else "undecided claims found"
    assert err.strip() == expected


@pytest.mark.parametrize("witnessed, code", [(True, 1), (False, 3)])
def test_first_integral_refusal_exit_follows_the_witness(capsys, monkeypatch, witnessed, code):
    # W_y is no divergence symmetry at even n; only a witness of the residual
    # makes the refusal a refutation, and the message is the same either way
    if not witnessed:
        monkeypatch.setattr(casebook, "witnessed", lambda e: False)
    got, out, err = run(capsys, "first-integral", "--vf", "0;y", "--n", "4")
    assert got == code
    assert out == ""
    assert err == (
        "not a divergence symmetry: E(Q*Delta) = "
        "18*q**2*y + 20*q*y2 + 20*q1*y1 + 6*q2*y + 2*y4 != 0\n"
    )


@pytest.mark.parametrize("argv", [
    ("first-integral", "--vf", "0;y", "--n", "4"),
    ("first-integral", "--vf", "0;y", "--n", "6"),
    ("first-integral", "--vf", "0;y", "--n", "8"),
    ("first-integral", "--vf", "2*u*v;2*(u*v1 + u1*v)*y", "--n", "3"),
    ("check", "--kind", "divergence", "--vf", "0;y", "--eq", "y4", "--order", "4"),
], ids=("Wy4", "Wy6", "Wy8", "G3", "check"))
def test_refutation_text_skips_the_str_printer(capsys, forbid_str_printer, argv):
    # the refusal's residual and a refuted check's are written by the
    # grammar's direct printer: the same text with StrPrinter forbidden
    expected = run(capsys, *argv)
    assert expected[0] == 1
    forbid_str_printer()
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize("argv", [
    ("check", "--kind", "divergence", "--vf", "0;y", "--eq", "y4", "--order", "4"),
    ("first-integral", "--vf", "0;y", "--n", "4"),
], ids=("check", "first-integral"))
def test_refutation_is_certified_without_a_lift(capsys, monkeypatch, forbid_lifts, argv):
    # after the divergence check decides, the refutation is certified on its
    # pair: no residual is lifted into the ring again
    real = noether.divergence_check

    def check_then_forbid_lifts(*args):
        verdict = real(*args)
        forbid_lifts()
        return verdict

    monkeypatch.setattr(noether, "divergence_check", check_then_forbid_lifts)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "undecided" not in err


def test_main_builds_one_parser(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run(capsys, "generators", "--n", "3")[0] == 0
        assert run(capsys, "build-lode", "--n", "3")[0] == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_usage_error_leaves_the_parser_usable(capsys):
    first = run(capsys, "generators", "--n", "4")
    assert run(capsys, "generators")[0] == 2
    assert run(capsys, "generators", "--n", "4") == first
    assert first[0] == 0


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "reproduce" in out


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """(argv, comment) of each line of the sh block under "## Command line"
    in README.md; a line with an optional "[...]" part runs without it and
    again with it, whose output the comment does not state."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        yield shlex.split(re.sub(r"\[.*?\]", "", command))[1:], comment.strip()
        if "[" in command:
            yield shlex.split(re.sub(r"\[(.*?)\]", r"\1", command))[1:], ""


def test_readme_command_line_block(capsys, monkeypatch, tmp_path):
    # every line exits 0, and a comment that is an expression is the output
    monkeypatch.chdir(tmp_path)
    stated = 0
    for argv, comment in readme_commands():
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        try:
            value = parse(comment)
        except ParseError:
            continue
        assert canon(parse(out.strip()) - value) == 0, argv
        stated += 1
    assert stated >= 2
    assert json.loads((tmp_path / "report.json").read_text())["case"] == "all"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--vf=0;y", "--n=5"], 0),
        (["--vf=0;y", "--n=4"], 1),
        (["--vf=2*u*v;2*(u*v1 + u1*v)*y", "--n=3"], 1),
        (["--vf=0;y", "--n=5", "--q=x"], 0),
        (["--vf=0;y", "--n=4", "--q=x"], 1),
    ],
    ids=["Wy-n5", "Wy-n4", "G3", "Wy-n5-q", "Wy-n4-q"],
)
def test_a_repeated_first_integral_prints_the_same_bytes(capsys, monkeypatch, argv, code):
    # the second request is decided from the memo, and says the same
    first = run(capsys, "first-integral", *argv)
    euler = []
    monkeypatch.setattr(noether.jetcalc, "_euler", lambda *args: euler.append(args))
    assert run(capsys, "first-integral", *argv) == first and not euler
    assert first[0] == code and (first[2] == "") == (code == 0)


@pytest.mark.parametrize("argv, err", [
    (("check", "--kind", "lie", "--vf", "0", "--eq", "y2", "--order", "2"),
     'vector field must be given as "<xi>;<psi>"'),
    (("transform", "--map", "z=x; w", "--eq", "y2", "--order", "2"), 'map must be given as "z=<expr>; w=<expr>"'),
    (("transform", "--map", "z=x; z=y", "--eq", "y2", "--order", "2"), "map must define exactly z and w"),
    (("transform", "--map", "z=x", "--eq", "y2", "--order", "2"), "map must define exactly z and w"),
    (("check", "--kind", "variational", "--vf", "0;y", "--order", "1"),
     "variational checks need --lagrangian <expr> --order m"),
    (("check", "--kind", "lie", "--vf", "0;y", "--order", "2"), "lie checks need --eq <expr> --order n"),
    (("transform", "--map", "z=x; w=y", "--eq", "y2"), "--eq needs --order n"),
    (("transform", "--map", "z=x; w=y", "--lagrangian", "y1^2"), "--lagrangian needs --order m"),
], ids=["vf", "map-shape", "map-repeated", "map-missing", "no-lagrangian", "no-eq", "eq-order", "lagrangian-order"])
def test_malformed_input_is_usage_error(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_reproduce_text_report(capsys):
    code, out, _ = run(capsys, "reproduce", "C1")
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == "case C1" and len(lines) > 1
    assert all(re.search(r"\[[^\]]+\]$", line) for line in lines[1:]), lines
