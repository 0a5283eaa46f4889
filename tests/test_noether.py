import concurrent.futures
import json
import pathlib
import sys

import pytest
import sympy as sp

from odesym import exprcore, jetcalc, noether
from odesym.casebook import family_exponential, family_power, family_radical_log
from odesym.exprcore import COEF_Q, JET, SOL_U, SOL_V, X, canon, zero_test
from odesym.jetcalc import (
    DiffEq,
    Lagrangian,
    VectorField,
    apply_prolongation,
    characteristic,
    euler,
    substitute_solved,
    total_derivative,
)
from odesym.maxsym import (
    SourceContext,
    build_lode,
    generators,
    natural_lagrangian,
    reference_first_integral_homogeneity,
    specialize_q,
    transformed_lagrangian,
)
from odesym.noether import (
    NotADivergenceSymmetry,
    NotFirstIntegral,
    divergence_check,
    divergence_relation_check,
    first_integral,
    invariance_expression,
    lie_symmetry_check,
    variational_check,
    verify_first_integral,
)

y, y1, y2, y3 = JET[:4]
q, q1 = COEF_Q[0], COEF_Q[1]
CTX = SourceContext.make_symbolic()


def test_lie_check_homogeneity_on_order_three():
    verdict = lie_symmetry_check(generators(3).homogeneity, build_lode(3, CTX), CTX)
    assert verdict.holds


def test_lie_check_f4():
    g = generators(4).by_name()
    assert lie_symmetry_check(g["F4"], build_lode(4, CTX), CTX).holds


def test_lie_check_translation_fails_for_symbolic_q():
    verdict = lie_symmetry_check(VectorField(1, 0), build_lode(4, CTX), CTX)
    assert not verdict.holds
    assert COEF_Q[1] in verdict.witness.free_symbols


def test_lie_check_raises_on_a_denominator_that_vanishes_on_solutions():
    # u'' + q u is 0 under the source equation: 1/(u2 + q u) has no value there
    u, u2 = SOL_U[0], SOL_U[2]
    with pytest.raises(ZeroDivisionError):
        lie_symmetry_check(VectorField(0, 1 / (u2 + q * u)), DiffEq(y3, 3), CTX)


def test_variational_membership_examples():
    L4 = transformed_lagrangian(4, CTX)
    g = generators(4).by_name()
    assert variational_check(g["G4"], L4, CTX).holds
    assert not variational_check(g["H4"], L4, CTX).holds


def test_variational_natural_lagrangian_flat_vs_symbolic():
    flat = SourceContext.zero_q()
    L4_flat = natural_lagrangian(4, flat)
    v0 = VectorField(0, 1)  # V0 with u = 1
    assert variational_check(v0, L4_flat, flat).holds
    L4_sym = natural_lagrangian(4, CTX)
    assert not variational_check(generators(4).solution[0], L4_sym, CTX).holds


def test_divergence_membership_examples():
    assert divergence_check(generators(3).homogeneity, build_lode(3, CTX), CTX).holds
    assert not divergence_check(generators(4).homogeneity, build_lode(4, CTX), CTX).holds
    v2 = generators(4).solution[2]
    assert divergence_check(v2, build_lode(4, CTX), CTX).holds


def test_first_integral_homogeneity_small_orders():
    wy = generators(3).homogeneity
    for n in (3, 5):
        F = first_integral(wy, build_lode(n, CTX), CTX)
        assert canon(F.expr - reference_first_integral_homogeneity(n)) == 0
        assert zero_test(F.witness)


def test_first_integral_trivial_equation():
    for n in (3, 4):
        F = first_integral(VectorField(0, 1), DiffEq(JET[n], n))
        assert canon(F.expr - JET[n - 1]) == 0


def test_first_integral_rejects_non_divergence_symmetry():
    with pytest.raises(NotADivergenceSymmetry):
        first_integral(generators(4).homogeneity, build_lode(4, CTX), CTX)


def test_verify_first_integral_multipliers():
    for n in (3, 7):
        F = reference_first_integral_homogeneity(n)
        mu = verify_first_integral(F, build_lode(n, CTX), CTX)
        assert canon(mu - y) == 0


def test_verify_first_integral_boundary():
    with pytest.raises(NotFirstIntegral):
        verify_first_integral(y1, build_lode(2, CTX), CTX)
    # with q = 0 the slope is conserved and the multiplier is 1
    mu = verify_first_integral(y1, DiffEq(y2, 2))
    assert mu == 1


def test_divergence_relation_examples():
    wy = VectorField(0, y)
    assert divergence_relation_check(Lagrangian(-(y1**2) / 2, 1), y**2, 3, wy).holds
    from odesym.maxsym import reference_transformed_lagrangian

    f2 = generators(2).by_name()["F2"]
    assert divergence_relation_check(
        reference_transformed_lagrangian(2), X * y * y1, 1, f2, CTX
    ).holds


@pytest.mark.parametrize("n", [4, 6])
def test_variational_implies_divergence(n):
    L = transformed_lagrangian(n, CTX)
    eq = DiffEq(canon(euler(L.density)), n)
    for vf in generators(n):
        if variational_check(vf, L, CTX).holds:
            assert divergence_check(vf, eq, CTX).holds, vf.name


def test_noether_consistency_multiplier_is_characteristic():
    # the constructed integral of every divergence symmetry divides back
    # with mu = Q exactly
    for n in (3, 4, 5):
        eq = build_lode(n, CTX)
        gens = generators(n)
        members = (
            (*gens.solution, *gens.special) if n % 2 == 0 else (*gens.solution, gens.homogeneity)
        )
        for vf in members:
            F = first_integral(vf, eq, CTX)
            mu = verify_first_integral(F.expr, eq, CTX)
            assert zero_test(CTX.reduce(mu - F.q)), (n, vf.name)


def test_q_to_zero_degeneration():
    wy = generators(3).homogeneity
    zeros = {COEF_Q[k]: sp.Integer(0) for k in range(8)}
    for n in (3, 5, 7):
        F = first_integral(wy, build_lode(n, CTX), CTX)
        degenerate = F.expr.xreplace(zeros)
        flat = first_integral(wy, DiffEq(JET[n], n))
        assert canon(degenerate - flat.expr) == 0
        assert not (degenerate.free_symbols & set(COEF_Q))


# The source equation written out once more, independently of maxsym: the
# x-derivatives of u, u', v, v' and q, q', ... under u'' = -q u, v'' = -q v.
_SOURCE_RATES = {
    SOL_U[0]: SOL_U[1],
    SOL_U[1]: -q * SOL_U[0],
    SOL_V[0]: SOL_V[1],
    SOL_V[1]: -q * SOL_V[0],
    **{COEF_Q[k]: COEF_Q[k + 1] for k in range(len(COEF_Q) - 1)},
}


def _reference_reduce(e):
    """u^(k), v^(k) from an sp.diff ladder, then v' = (1 + u'v)/u, then cancel."""
    ladder = {}
    for fam in (SOL_U, SOL_V):
        entry = fam[1]
        for k in range(2, len(fam)):
            if not e.free_symbols & set(fam[k:]):
                break
            entry = sp.expand(sum(sp.diff(entry, s) * r for s, r in _SOURCE_RATES.items()))
            ladder[fam[k]] = entry
    e = e.xreplace(ladder).xreplace({SOL_V[1]: (1 + SOL_U[1] * SOL_V[0]) / SOL_U[0]})
    return sp.cancel(sp.together(e))


def _assert_matches_reference(witness, free_result):
    assert sp.srepr(witness) == sp.srepr(_reference_reduce(free_result))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_divergence_residuals_match_free_algebra_reference(n):
    # the symbolic context's rates give the residual that the free algebra
    # gives after an explicit ladder rewrite and Wronskian normalization
    eq = build_lode(n, CTX)
    for vf in generators(n):
        free = euler(characteristic(vf) * eq.delta)
        _assert_matches_reference(divergence_check(vf, eq, CTX).witness, free)


@pytest.mark.parametrize("n", [4, 6])
def test_variational_residuals_match_free_algebra_reference(n):
    L = transformed_lagrangian(n, CTX)
    for vf in generators(n):
        free = invariance_expression(vf, L)
        _assert_matches_reference(variational_check(vf, L, CTX).witness, free)


@pytest.mark.parametrize("n", [3, 4])
def test_lie_residuals_match_free_algebra_reference(n):
    eq = build_lode(n, CTX)
    for vf in generators(n):
        free = substitute_solved(apply_prolongation(vf, eq.delta), eq)
        _assert_matches_reference(lie_symmetry_check(vf, eq, CTX).witness, free)


def _forbid_lift_of(monkeypatch, tree):
    """Make every lift of this very tree into a ring fail."""
    lift = exprcore._as_fraction

    def guarded(e, *args):
        if e is tree:
            raise AssertionError(f"lifted into the ring again: {tree}")
        return lift(e, *args)

    monkeypatch.setattr(exprcore, "_as_fraction", guarded)


def test_variational_table_lifts_the_lagrangian_once(monkeypatch):
    L = transformed_lagrangian(4, CTX)
    L.pair
    _forbid_lift_of(monkeypatch, L.density)
    held = {vf.name for vf in generators(4) if variational_check(vf, L, CTX).holds}
    assert held == {"V0", "V1", "F4", "G4"}


def test_divergence_table_lifts_the_equation_once(monkeypatch):
    eq = build_lode(4, CTX)
    eq.pair
    _forbid_lift_of(monkeypatch, eq.delta)
    held = {vf.name for vf in generators(4) if divergence_check(vf, eq, CTX).holds}
    assert held == {"V0", "V1", "V2", "V3", "F4", "G4", "H4"}


def test_lie_table_lifts_the_equation_once(monkeypatch):
    eq = build_lode(4, CTX)
    eq.pair
    _forbid_lift_of(monkeypatch, eq.delta)
    assert all(lie_symmetry_check(vf, eq, CTX).holds for vf in generators(4))


def test_first_integrals_lift_the_equation_once(monkeypatch):
    eq = build_lode(4, CTX)
    eq.pair
    _forbid_lift_of(monkeypatch, eq.delta)
    made = set()
    for vf in generators(4):
        try:
            first_integral(vf, eq, CTX)
            made.add(vf.name)
        except NotADivergenceSymmetry:
            pass
    assert made == {vf.name for vf in generators(4)} - {"Wy"}


def _divergence_symmetries(n):
    gens = generators(n)
    return [*gens.solution, *(gens.special if n % 2 == 0 else [gens.homogeneity])]


def test_first_integrals_lift_and_print_nothing(monkeypatch, forbid_lifts, forbid_pair_prints):
    # the peel and its verification stay in the ring; F, Q and the witness
    # are printed only when read, here after the guard is lifted
    cases = [(v, build_lode(n, CTX)) for n in (4, 5) for v in _divergence_symmetries(n)]
    expected = [sp.srepr((F.expr, F.q, F.witness)) for F in (first_integral(v, eq, CTX) for v, eq in cases)]
    forbid_lifts()
    forbid_pair_prints()
    integrals = [first_integral(v, eq, CTX) for v, eq in cases]
    monkeypatch.undo()
    assert [sp.srepr((F.expr, F.q, F.witness)) for F in integrals] == expected


def test_verify_first_integral_multiplies_the_monic_equation():
    # D_x F = y1*(2*y2 + y) = 2*y1*(y2 + y/2): mu belongs to y2 - rhs, not to Delta
    assert verify_first_integral(y1**2 + y**2 / 2, DiffEq(2 * y2 + y, 2)) == 2 * y1


def test_verify_first_integral_reduces_inside_nodes():
    # F = ln(y3 - y1) is ln(y2 - y1) on solutions of y3 = y2
    mu = verify_first_integral(sp.log(y3 - y1), DiffEq(y3 - y2, 3))
    assert canon(mu - 1 / (y2 - y1)) == 0


def _same_tree(a, b) -> bool:
    return sp.srepr(a) == sp.srepr(b) and a == b


def test_integral_prints_match_the_grouped_print():
    for n in range(3, 9):
        eq = build_lode(n, CTX)
        for v in _divergence_symmetries(n):
            F = first_integral(v, eq, CTX)
            assert len(F.value.den) == 1, (n, v.name)
            assert _same_tree(F.expr, jetcalc._printed(F.pieces)), (n, v.name)


@pytest.mark.parametrize("qx", [1 / (X**2 + 1), sp.exp(X), sp.sqrt(X)], ids=["rational", "exp", "sqrt"])
def test_integral_print_falls_back_to_the_grouped_print(monkeypatch, qx):
    # a denominator that is not a monomial (the pinned integral{3,5,7}.Wy.q5),
    # or a ring with a node, prints F by its pieces
    wy = generators(3).homogeneity
    calls, printed = [], jetcalc._printed
    monkeypatch.setattr(jetcalc, "_printed", lambda pieces: calls.append(pieces) or printed(pieces))
    for n in (3, 5, 7):
        F = first_integral(wy, DiffEq(specialize_q(build_lode(n).pair, qx), n))
        calls.clear()
        assert _same_tree(F.expr, printed(F.pieces)) and len(calls) == 1, n
        assert len(F.value.den) > 1 or not exprcore._symbols_only(F.value.num.ring), n


def test_integral_prints_at_order_eight_expand_nothing(monkeypatch):
    # every symbolic F at n = 8 prints as its Laurent sum, with neither
    # sympy's expand nor the grouped print of its pieces
    eq = build_lode(8, CTX)
    integrals = [first_integral(v, eq, CTX) for v in _divergence_symmetries(8)]
    expected = [jetcalc._printed(F.pieces) for F in integrals]

    def forbidden(*args, **kwargs):
        raise AssertionError("a first integral printed through sp.expand or by its pieces")

    monkeypatch.setattr(sp, "expand", forbidden)
    monkeypatch.setattr(jetcalc, "_printed", forbidden)
    prints = [F.expr for F in integrals]
    monkeypatch.undo()
    assert len(prints) == 11 and all(_same_tree(a, b) for a, b in zip(prints, expected))


# ---------------------------------------------------------------------------
# The memo of divergence verdicts and first integrals.

def _decision(v, eq, ctx, check, integral):
    """The verdict's holds and witness, and F's prints or the refusal's text."""
    verdict = check(v, eq, ctx)
    try:
        F = integral(v, eq, ctx)
        made = (sp.srepr(F.expr), sp.srepr(F.q), sp.srepr(F.witness))
    except NotADivergenceSymmetry as err:
        made = (str(err), sp.srepr(err.witness))
    return verdict.holds, sp.srepr(verdict.witness), made


@pytest.mark.parametrize("symbolic", [False, True], ids=["none", "symbolic"])
@pytest.mark.parametrize("n", range(2, 11))
def test_memoised_decisions_match_the_unmemoised(n, symbolic):
    ctx = SourceContext.make_symbolic() if symbolic else None
    eq = build_lode(n, ctx)
    decide = lambda *fns: [_decision(v, eq, ctx, *fns) for v in generators(n)]
    memoised, again = decide(divergence_check, first_integral), decide(divergence_check, first_integral)
    noether._DECIDED.clear()
    fresh = decide(divergence_check.__wrapped__, first_integral.__wrapped__)
    assert memoised == again == fresh
    assert len(fresh) == n + 4 and sum(holds for holds, *_ in fresh) >= (n + 1 if symbolic else n % 2)


def _counted(monkeypatch, *names):
    """{name: calls} of the named jetcalc functions, counted from now on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(jetcalc, name)

        def counted(*args, name=name, original=original):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(jetcalc, name, counted)
    return counts


def _concrete_contexts():
    return [
        *(family()[2] for family in (lambda: family_radical_log(1), lambda: family_radical_log(-1),
                                     family_exponential, family_power)),
        SourceContext.zero_q(),
        SourceContext.from_solutions(X, sp.Integer(1)),
    ]


def test_concrete_contexts_bypass_the_memo(monkeypatch):
    # C5's families, zero_q and a pair from from_solutions: every call runs
    # the Euler operator, and nothing is stored
    contexts = _concrete_contexts()
    cases = [(v, build_lode(4, ctx), ctx) for ctx in contexts for v in generators(4).specialize(ctx)]
    counts = _counted(monkeypatch, "_euler")
    for v, eq, ctx in cases:
        verdicts = [divergence_check(v, eq, ctx) for _ in range(2)]
        assert verdicts[0] is not verdicts[1] and verdicts[0].holds == verdicts[1].holds
        for _ in range(2):
            try:
                first_integral(v, eq, ctx)
            except NotADivergenceSymmetry:
                pass
    assert counts["_euler"] == 4 * len(cases) == 4 * 8 * len(contexts)
    assert not noether._DECIDED.values


def test_a_field_of_another_ring_gets_the_same_verdict():
    # the same values in a larger ring may miss the memo, not change the verdict
    for n in (3, 4):
        eq = build_lode(n, CTX)
        for v in generators(n):
            R = exprcore._ring({*v.pairs[0].num.ring.symbols, *v.pairs[1].num.ring.symbols, SOL_U[0], SOL_V[0], X})
            moved = VectorField(*(exprcore._lift(p, R) for p in v.pairs))
            assert _decision(moved, eq, CTX, divergence_check, first_integral) == _decision(
                v, eq, CTX, divergence_check, first_integral), (n, v.name)


def test_a_repeated_first_integral_runs_neither_euler_nor_the_peel(monkeypatch):
    cases = [(v, build_lode(n, CTX)) for n in (4, 5) for v in _divergence_symmetries(n)]
    integrals = [first_integral(v, eq, CTX) for v, eq in cases]
    counts = _counted(monkeypatch, "_euler", "_peel")
    assert [first_integral(v, eq, CTX) for v, eq in cases] == integrals
    assert [first_integral(v, eq, SourceContext.make_symbolic()) for v, eq in cases] == integrals
    assert counts == {"_euler": 0, "_peel": 0}


def test_first_integral_reuses_the_verdict_of_the_table(monkeypatch):
    eq = build_lode(6, CTX)
    held = [v for v in generators(6) if divergence_check(v, eq, CTX).holds]
    counts = _counted(monkeypatch, "_euler", "_peel")
    for v in held:
        first_integral(v, eq, CTX)
    assert len(held) == 9 and counts == {"_euler": 0, "_peel": 9}


def test_a_repeated_refusal_raises_a_new_exception_from_the_verdict(monkeypatch):
    for n, v in ((4, generators(4).homogeneity), (3, generators(3).special[1])):
        eq = build_lode(n, CTX)

        def refusal():
            with pytest.raises(NotADivergenceSymmetry) as err:
                first_integral(v, eq, CTX)
            return err.value

        refusals = [refusal()]
        counts = _counted(monkeypatch, "_euler")
        refusals += [refusal(), refusal()]
        assert counts["_euler"] == 0
        assert len({id(e) for e in refusals}) == 3
        assert len({str(e) for e in refusals}) == 1 and refusals[0].pair is refusals[2].pair
        assert refusals[0].pair is divergence_check(v, eq, CTX).pair
        monkeypatch.undo()


def test_the_memo_is_bounded_and_holds_frozen_values():
    memo = noether._Memo(2)
    for k in range(3):
        memo.put(k, str(k))
    assert memo.get(1) == "1" and memo.get(0) is None
    memo.put(3, "3")
    assert list(memo.values) == [1, 3]
    for n in (3, 4):
        eq = build_lode(n, CTX)
        for v in generators(n):
            divergence_check(v, eq, None)
            try:
                first_integral(v, eq, CTX)
            except NotADivergenceSymmetry:
                pass
    # 15 verdicts under None and under the symbolic context, and the 4 + 7
    # first integrals; the refusals are not stored
    values = list(noether._DECIDED.values.values())
    assert len(values) == 2 * 15 + 11
    assert all(type(f).__dataclass_params__.frozen for f in values)
    assert {type(f) for f in values} == {noether.SymmetryVerdict, noether.FirstIntegral}


def _in_threads(fn, items, workers=4):
    """[fn(item) for item in items] from more threads than cores, switching
    every 10 microseconds, each result awaited at most 60 s."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
            return [f.result(timeout=60) for f in [pool.submit(fn, item) for item in items]]
    finally:
        sys.setswitchinterval(interval)


def test_the_memo_keeps_its_bound_under_threads():
    memo = noether._Memo(16)

    def churn(t):
        for k in range(400):
            memo.put((t, k % 40), k)
            memo.get((t, (k * 7) % 40))

    _in_threads(churn, range(8), workers=8)
    assert len(memo.values) == 16 and all(v % 40 == k for (t, k), v in memo.values.items())


def test_concurrent_first_integrals_agree():
    eq = build_lode(7, CTX)
    fields = [*generators(7)] * 2
    made = _in_threads(lambda v: _decision(v, eq, CTX, divergence_check, first_integral), fields)
    noether._DECIDED.clear()
    assert made == [_decision(v, eq, CTX, divergence_check.__wrapped__, first_integral.__wrapped__) for v in fields]


# --- one operator algebra per context and jet order ---

REFUTED_RESIDUALS = pathlib.Path(__file__).parent / "data" / "refuted_residuals.json"
_TABLES = (("divergence", range(3, 9)), ("variational", (4, 6, 8)))


def _recorded_rings(monkeypatch, name, result):
    """The rings of the values the named jetcalc function returns, recorded
    from now on: ``result`` picks the value from its return."""
    rings, original = [], getattr(jetcalc, name)

    def recorded(*args):
        out = original(*args)
        rings.append(result(out).num.ring)
        return out

    monkeypatch.setattr(jetcalc, name, recorded)
    return rings


@pytest.mark.parametrize("n", [3, 4, 8])
def test_a_divergence_table_works_in_one_ring(monkeypatch, n):
    # V_k, W_y and F_n hold different ones of u, u', v and v', yet the
    # algebra holds the context's atoms, so each check's Euler operator
    # works in the same ring
    eq = build_lode(n, CTX)
    rings = _recorded_rings(monkeypatch, "_euler", lambda f: f)
    verdicts = [divergence_check(v, eq, CTX) for v in generators(n)]
    assert len(rings) == n + 4 and len(set(rings)) == 1
    assert sum(verdict.holds for verdict in verdicts) >= n + 1


def test_divergence_tables_form_q_in_the_checks_algebra(monkeypatch):
    # Q = psi - xi*y1 is formed among the Euler operator's lifts, so no
    # pair moves between rings by RingFraction arithmetic in the checks;
    # the fields are fresh copies, so nothing an earlier test cached hides work
    cases = [(VectorField(*v.pairs, name=v.name), build_lode(n, CTX)) for n in range(3, 7) for v in generators(n)]
    moves, original = [], exprcore.RingFraction._with

    def counted(self, other):
        if not (isinstance(other, exprcore.RingFraction) and other.num.ring is self.num.ring):
            moves.append(other)
        return original(self, other)

    monkeypatch.setattr(exprcore.RingFraction, "_with", counted)
    for v, eq in cases:
        divergence_check(v, eq, CTX)
    assert not moves


def test_a_variational_table_works_in_one_ring(monkeypatch):
    L = transformed_lagrangian(6, CTX)
    rings = _recorded_rings(monkeypatch, "_prolonged_action", lambda out: out[0])
    for v in generators(6):
        variational_check(v, L, CTX)
    assert len(rings) == 10 and len(set(rings)) == 1


def _refuted_residuals() -> dict:
    """The srepr of each refuted residual of the divergence tables n = 3..8
    and the variational tables n = 4, 6, 8 under the symbolic context."""
    out = {}
    for kind, orders in _TABLES:
        for n in orders:
            if kind == "divergence":
                obj, check = build_lode(n, CTX), divergence_check
            else:
                obj, check = transformed_lagrangian(n, CTX), variational_check
            for name, v in generators(n).by_name().items():
                verdict = check(v, obj, CTX)
                if not verdict.holds:
                    out[f"{kind}-n{n}-{name}"] = sp.srepr(verdict.witness)
    return out


def test_refuted_residuals_match_the_pins():
    pinned = json.loads(REFUTED_RESIDUALS.read_text())
    assert _refuted_residuals() == pinned
    assert len(pinned) == 27


def test_c3_refuted_residuals_print_without_division(monkeypatch):
    # each residual's denominator is a positive integer times a monomial,
    # so its print is built directly, never through sympy's /
    pinned = json.loads(REFUTED_RESIDUALS.read_text())
    verdicts = {}
    for n, kinds in ((3, ("divergence",)), (4, ("divergence", "variational")),
                     (5, ("divergence",)), (6, ("divergence", "variational"))):
        for kind in kinds:
            obj = build_lode(n, CTX) if kind == "divergence" else transformed_lagrangian(n, CTX)
            check = divergence_check if kind == "divergence" else variational_check
            for name, v in generators(n).by_name().items():
                verdicts[f"{kind}-n{n}-{name}"] = check(v, obj, CTX)
    refuted = {key: verdict.pair for key, verdict in verdicts.items() if not verdict.holds}

    def no_division(self, other):
        raise AssertionError(f"divided through sympy's /: {self} / {other}")

    monkeypatch.setattr(sp.Expr, "__truediv__", no_division)
    assert refuted and {key: sp.srepr(pair.as_expr()) for key, pair in refuted.items()} == {
        key: pinned[key] for key in refuted
    }
