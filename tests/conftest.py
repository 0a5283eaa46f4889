import pytest
import sympy as sp

from odesym import exprcore, noether
from odesym.casebook import run_case


@pytest.fixture(scope="session")
def case_report():
    """run_case with each case run at most once per test session.

    Reports are only read by the tests that share them.
    """
    reports = {}

    def run(case_id):
        if case_id not in reports:
            reports[case_id] = run_case(case_id)
        return reports[case_id]

    return run


@pytest.fixture(autouse=True)
def fresh_decisions():
    """Each test starts with an empty memo of divergence verdicts and first
    integrals (``noether._DECIDED``), so a call or a print that a test
    counts is not one an earlier test already made."""
    noether._DECIDED.clear()


@pytest.fixture
def forbid_lifts(monkeypatch):
    """A call that makes every later lift of an expression into the ring
    (``RingFraction.from_expr``) fail."""

    def lift(e):
        raise AssertionError(f"residual lifted into the ring again: {e}")

    return lambda: monkeypatch.setattr(exprcore.RingFraction, "from_expr", staticmethod(lift))


@pytest.fixture
def forbid_prints(monkeypatch):
    """A call that makes every later print of a pair that holds a derivative
    of y (``RingFraction.as_expr``, which ``sp.sympify`` of a pair calls)
    fail: an equation or a density printed into a tree."""
    original = exprcore.RingFraction.as_expr

    def as_expr(f):
        if exprcore.max_jet_order(f) > 0:
            raise AssertionError(f"a pair of jet order {exprcore.max_jet_order(f)} was printed into a tree")
        return original(f)

    return lambda: monkeypatch.setattr(exprcore.RingFraction, "as_expr", as_expr)


@pytest.fixture
def forbid_pair_prints(monkeypatch):
    """A call that makes every later print of any pair (``RingFraction.as_expr``)
    fail.  A vector field coefficient holds no derivative of y, so
    ``forbid_prints`` does not see it printed."""

    def as_expr(f):
        raise AssertionError(f"a pair was printed into a tree: ({f.num}) / ({f.den})")

    return lambda: monkeypatch.setattr(exprcore.RingFraction, "as_expr", as_expr)


@pytest.fixture
def count_prints_and_lifts(monkeypatch):
    """{"prints": ..., "lifts": ...}, counting from now on every print of a
    pair (``RingFraction.as_expr``) and every lift of an expression, not a
    pair, into a ring (``exprcore._lift``)."""
    counts = {"prints": 0, "lifts": 0}
    as_expr, lift = exprcore.RingFraction.as_expr, exprcore._lift

    def counted_as_expr(f):
        counts["prints"] += 1
        return as_expr(f)

    def counted_lift(e, R):
        counts["lifts"] += not isinstance(e, exprcore.RingFraction)
        return lift(e, R)

    monkeypatch.setattr(exprcore.RingFraction, "as_expr", counted_as_expr)
    monkeypatch.setattr(exprcore, "_lift", counted_lift)
    return counts


@pytest.fixture
def forbid_str_printer(monkeypatch):
    """A call that makes every later ``StrPrinter.doprint`` fail: ``str`` of
    a tree, or ``render`` falling back to StrPrinter."""

    def doprint(printer, e):
        raise AssertionError(f"StrPrinter reached for {sp.srepr(e)}")

    return lambda: monkeypatch.setattr(sp.StrPrinter, "doprint", doprint)
