import pytest
import sympy as sp

from odesym.exprcore import COEF_Q, JET, PARAMS, SOL_U, X, canon
from odesym.grammar import ParseError, parse, render, sympy_text
from odesym import maxsym
from odesym.casebook import CASE_IDS
from odesym.jetcalc import DiffEq
from odesym.noether import first_integral


def test_parse_basic():
    assert parse("y2 + q*y") == JET[2] + COEF_Q[0] * JET[0]
    assert parse("x^2 - k1/2") == X**2 - PARAMS["k1"] / 2
    assert parse("ln(y) + exp(x) - sqrt(u)") == sp.log(JET[0]) + sp.exp(X) - sp.sqrt(SOL_U[0])


def test_parse_precedence_and_unary():
    assert parse("-y^2") == -JET[0] ** 2
    assert parse("2*y^-2") == 2 * JET[0] ** -2
    assert parse("y^2^3") == JET[0] ** 8  # right associative
    assert parse("1 - 2 - 3") == -4


def test_parse_decimal_is_exact():
    assert parse("0.5*y") == sp.Rational(1, 2) * JET[0]


def test_parse_unknown_identifier():
    with pytest.raises(ParseError) as err:
        parse("y2 + zz")
    assert err.value.col == 6


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse("y1 + )")
    assert err.value.line == 1
    assert err.value.col == 6


def test_parse_unexpected_character():
    with pytest.raises(ParseError):
        parse("y1 ? y2")


@pytest.mark.parametrize(
    "text",
    [
        "y2 + q*y",
        "2*q*y^2 - y1^2/2 + y*y2",
        "(y1^2 - y*y2)^2 / (2*y^4)",
        "ln(k1 - 2*x) + sqrt(2*x - k1)",
        "exp(k1*x)/k2 - lam*theta + alpha*a0 + a1 + a2 + a3",
        "u^3 + u^2*v + 3*u*u1*y",
        "-1/2*y3^2 + q1*y*y3",
    ],
)
def test_round_trip_corpus(text):
    e = parse(text)
    assert canon(parse(render(e)) - e) == 0


def test_round_trip_library_outputs():
    ctx = maxsym.SourceContext.make_symbolic()
    produced = [
        maxsym.build_lode(4, ctx).delta,
        maxsym.reference_first_integral_homogeneity(5),
        maxsym.transformed_lagrangian(4, ctx).density,
        maxsym.natural_lagrangian(4, ctx).density,
    ]
    gens = maxsym.generators(4)
    produced.extend(vf.psi for vf in gens)
    for e in produced:
        assert canon(parse(render(canon(e))) - e) == 0


def _strprinter(e) -> str:
    """StrPrinter's lex text in the grammar: the text render must give."""
    return sp.StrPrinter({"order": "lex"}).doprint(e).replace("**", "^").replace("log(", "ln(")


x, y, y1, y2, y10 = X, *JET[:3], JET[10]

EDGE_CASES = [
    y**-2, 1 / y, -(x + y) / x, (x + y) / (2 * x), (x + y) / 2, -y1**2 / 2, y * y10 + y * y2,
    3 * y / (2 * x), y / (y1 + 1), -y / (x * (y1 + 1)), 1 - 2 * y, sp.Rational(-3, 4),
    y**2 - 3 + 2 / y - y**-2,  # a Laurent sum with a constant term
]


@pytest.mark.parametrize("e", EDGE_CASES, ids=str)
def test_render_prints_kernel_shapes_as_strprinter_does(forbid_str_printer, e):
    expected = _strprinter(e)
    forbid_str_printer()
    assert render(e) == expected


def _library_objects():
    """(name, expression) of the generators, Delta_n (symbolic and at
    q = -2/x^2), the Lagrangians and the first integrals of W_y at each
    concrete q."""
    from test_transform import CONCRETE_Q

    q = -2 / X**2
    for n in range(2, 15):
        for name, vf in maxsym.generators(n).by_name().items():
            yield f"{name}{n}.xi", vf.xi
            yield f"{name}{n}.psi", vf.psi
        eq = maxsym.build_lode(n)
        yield f"Delta{n}", eq.delta
        yield f"Delta{n}.q", maxsym.specialize_q(eq.pair, q)
    for n in range(2, 11, 2):
        yield f"L{n}.transformed", maxsym.transformed_lagrangian(n).density
        yield f"L{n}.natural", maxsym.natural_lagrangian(n).density
    wy = maxsym.generators(3).homogeneity
    for n in (3, 5, 7):
        for k, qx in enumerate(CONCRETE_Q):
            eq = DiffEq(maxsym.specialize_q(maxsym.build_lode(n).pair, qx), n)
            yield f"F{n}.q{k}", first_integral(wy, eq).expr


def test_render_matches_strprinter_on_library_objects():
    for name, e in _library_objects():
        assert render(e) == _strprinter(e), name


# sums that str's default order prints with the Rational first, and their
# neighbours that it prints in lex order
STR_ORDER_CASES = [
    1 - y, sp.Rational(3, 2) - y / 2, 1 - y**2, 2 - 1 / y, 1 - y**-2, (1 - y) / x, x / (1 - y),
    1 - x * y, y - 1, 1 + y, -1 - y,
]


@pytest.mark.parametrize("e", EDGE_CASES + STR_ORDER_CASES, ids=str)
def test_sympy_text_prints_kernel_shapes_as_str_does(forbid_str_printer, e):
    expected = str(e)
    forbid_str_printer()
    assert sympy_text(e) == expected


def test_sympy_text_is_str(case_report):
    # every residual of `reproduce all` (C6's Float through str itself),
    # node trees and the library objects
    trees = [c.residual for case_id in CASE_IDS for c in case_report(case_id).claims]
    trees += [
        sp.log(2) - sp.log(3),
        sp.log(y) - y1 * sp.exp(x) + 1,
        (sp.sqrt(x + y) - 2 * y1) / (y + sp.log(x) ** 2),
        sp.exp(x / 2) * y2 - sp.Float("0.25", 30) * y,
    ]
    trees += [e for _, e in _library_objects()]
    for e in trees:
        assert sympy_text(e) == str(e), sp.srepr(e)
