import sys
import threading
from math import comb

import pytest
import sympy as sp

from odesym import jetcalc, maxsym
from odesym.casebook import (
    CASE_IDS,
    example_equation_display,
    example_generators_expected,
    example_lagrangian_expected,
    example_map,
    family_exponential,
    family_power,
    family_radical_log,
)
from odesym.exprcore import (
    COEF_Q,
    JET,
    PARAMS,
    SOL_U,
    SOL_V,
    X,
    RingFraction,
    _by_degree,
    _generators,
    _lift,
    _ring,
    base_rates,
    canon,
    zero_test,
)
from odesym.jetcalc import (
    DiffEq,
    Lagrangian,
    VectorField,
    derivative_ladder,
    euler,
    frechet_adjoint,
    total_derivative,
)
from odesym.maxsym import (
    BadOrder,
    OddOrder,
    SourceContext,
    build_lode,
    canonical_lagrangian,
    commutator,
    generators,
    natural_lagrangian,
    reference_first_integral_homogeneity,
    reference_transformed_lagrangian,
    solution_basis,
    source_transformation,
    specialize_q,
    transformed_lagrangian,
)
from odesym.noether import divergence_check, lie_symmetry_check, variational_check
from odesym.transform import PointTransformation, compose, pushforward, transform_equation, transform_lagrangian

y, y1, y2, y3, y4 = JET[:5]
u, u1, u2 = SOL_U[0], SOL_U[1], SOL_U[2]
v, v1, v2 = SOL_V[0], SOL_V[1], SOL_V[2]
q, q1, q2 = COEF_Q[0], COEF_Q[1], COEF_Q[2]

CTX = SourceContext.make_symbolic()


def test_reduce_second_derivative():
    assert canon(CTX.reduce(u2) + q * u) == 0


def test_reduce_wronskian():
    assert CTX.reduce(u * v1 - u1 * v) == 1


def test_reduce_derived_wronskian_is_q():
    assert canon(CTX.reduce(u1 * v2 - u2 * v1) - q) == 0


def test_reduce_high_order():
    assert canon(CTX.reduce(SOL_U[4]) - (q**2 * u - q2 * u - 2 * q1 * u1 + q * q * u - q**2 * u)) == canon(
        CTX.reduce(SOL_U[4]) - (q**2 * u - q2 * u - 2 * q1 * u1)
    )
    # u'''' = D^2(-q u) = -(q2 u + 2 q1 u1 + q u2) with u2 -> -q u
    assert canon(CTX.reduce(SOL_U[4]) - (-q2 * u - 2 * q1 * u1 + q**2 * u)) == 0


def test_generators_examples():
    g4 = generators(4).by_name()
    assert canon(g4["V2"].psi - u * v**2) == 0 and g4["V2"].xi == 0
    assert canon(g4["H4"].xi + v**2) == 0
    assert canon(g4["H4"].psi + 3 * v * v1 * y) == 0
    g2 = generators(2).by_name()
    assert canon(g2["F2"].xi - u**2) == 0
    assert canon(g2["F2"].psi - u * u1 * y) == 0


def test_generators_counts_and_solutions():
    for n in (2, 3, 5):
        gs = generators(n)
        assert len(list(gs)) == n + 4
        for k, vf in enumerate(gs.solution):
            assert canon(vf.psi - solution_basis(n)[k]) == 0


def test_generators_bad_order():
    with pytest.raises(BadOrder):
        generators(1)


ORDER_BUILDERS = (generators, source_transformation, build_lode,
                  canonical_lagrangian, transformed_lagrangian, natural_lagrangian)
# order: (error of an equation's builder, error of a Lagrangian's builder); None builds
ORDER_RULE = {
    -1: (BadOrder, OddOrder),
    0: (BadOrder, BadOrder),
    1: (BadOrder, OddOrder),
    2: (None, None),
    3: (None, OddOrder),
    24: (None, None),
    25: (BadOrder, BadOrder),
    26: (BadOrder, BadOrder),
}


@pytest.mark.parametrize("n", ORDER_RULE)
@pytest.mark.parametrize("builder", ORDER_BUILDERS, ids=lambda b: b.__name__)
def test_one_order_rule(builder, n):
    # orders 2..24, even ones for a Lagrangian; past the jet registry before parity
    error = ORDER_RULE[n][builder.__name__.endswith("_lagrangian")]
    if error is None:
        builder(n)
        return
    with pytest.raises(error) as info:
        builder(n)
    assert type(info.value) is error
    assert ("exceeds the jet registry limit" in str(info.value)) == (n > 24)


def test_commutator_examples():
    g2 = generators(2).by_name()
    v0, wy = g2["V0"], g2["Wy"]
    br = commutator(v0, wy)
    assert canon(br.xi) == 0 and canon(br.psi - v0.psi) == 0

    br = commutator(VectorField(1, 0), VectorField(X, 0))
    assert br.xi == 1 and br.psi == 0

    f2, h2 = g2["F2"], g2["H2"]
    br = commutator(f2, h2)
    gneg = g2["G2"]
    assert canon(CTX.reduce(br.xi + gneg.xi)) == 0
    assert canon(CTX.reduce(br.psi + gneg.psi)) == 0


def test_algebra_structure():
    gs = generators(4)
    names = gs.by_name()
    # solution symmetries commute pairwise
    for a in gs.solution:
        for b in gs.solution:
            br = commutator(a, b)
            assert canon(br.xi) == 0 and canon(br.psi) == 0
    # [Wy, V_k] = -V_k
    for vk in gs.solution:
        br = commutator(gs.homogeneity, vk)
        assert canon(br.xi) == 0 and canon(CTX.reduce(br.psi + vk.psi)) == 0
    # [F4, H4] lies in the span of G4
    f4, g4, h4 = gs.special
    br = commutator(f4, h4)
    ratio = canon(CTX.reduce(br.xi) / CTX.reduce(g4.xi))
    assert ratio.is_number and ratio != 0
    assert canon(CTX.reduce(br.psi) - ratio * CTX.reduce(g4.psi)) == 0


def test_build_lode_small_orders():
    assert canon(build_lode(2, CTX).delta - (y2 + q * y)) == 0
    assert canon(build_lode(3, CTX).delta - (y3 + 4 * q * y1 + 2 * q1 * y)) == 0
    assert canon(build_lode(4, CTX).delta - (y4 + 10 * q * y2 + 10 * q1 * y1 + (3 * q2 + 9 * q**2) * y)) == 0


def _build_lode_by_tree(n):
    """Reference: w = u^(1-n) y pushed through n steps of u^2 D_x on sympy
    trees, D_x by sp.diff over the atom ladders, then u'' -> -q u."""
    rates = base_rates()
    w = u ** (1 - n) * y
    for _ in range(n):
        w = sp.Add(*(sp.diff(w, s) * rates[s] for s in w.free_symbols))
        w = sp.expand(u**2 * w.xreplace({u2: -q * u}))
    return sp.expand(canon(w / sp.cancel(sp.diff(w, JET[n]))))


def test_build_lode_matches_tree_reference():
    for n in range(2, 11):
        assert sp.srepr(build_lode(n, CTX).delta) == sp.srepr(_build_lode_by_tree(n)), n


@pytest.mark.parametrize("n", range(2, 25))
def test_build_lode_is_the_transform_of_the_trivial_equation(n):
    # the reference route: w^(n) = 0 under the source transformation, where
    # u and v cancel, is the recurrence's Delta_n as a pair and as a print
    eq, lode = transform_equation(DiffEq(JET[n], n), source_transformation(n)), build_lode(n)
    assert not _generators(eq.pair) & {*SOL_U, *SOL_V}
    assert canon(eq.pair - lode.pair) == 0
    assert sp.srepr(eq.delta) == sp.srepr(lode.delta)


def _transformed_by_the_map(n, ctx):
    # the reference route: the canonical Lagrangian under the source
    # transformation, reduced by the context
    L = transform_lagrangian(canonical_lagrangian(n), source_transformation(n, ctx))
    return Lagrangian(ctx._reduce_pair(L.pair), n // 2)


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_transformed_lagrangian_is_the_transform_of_the_canonical_lagrangian(n):
    ref, lag = _transformed_by_the_map(n, CTX), transformed_lagrangian(n)
    assert canon(ref.pair - lag.pair) == 0
    assert sp.srepr(ref.density) == sp.srepr(lag.density)
    assert lag.order == n // 2


def test_transformed_lagrangian_is_one_ladder(monkeypatch):
    # one scaled ladder, and no map is built or applied
    ladders = []

    def counted(*args):
        ladders.append(args)
        return derivative_ladder(*args)

    def refused(*args, **kwargs):
        raise AssertionError("the transform route was taken")

    monkeypatch.setattr(maxsym, "derivative_ladder", counted)
    for name in ("source_transformation", "canonical_lagrangian"):
        monkeypatch.setattr(maxsym, name, refused)
    for name in ("PointTransformation", "transform_lagrangian"):
        monkeypatch.setattr(maxsym._transform, name, refused)
    transformed_lagrangian.__wrapped__(8, CTX)
    assert len(ladders) == 1


def _natural_by_the_euler_route(n, ctx):
    # the reference route: E(y*Delta_n/2), each square's coefficient a ring
    # partial of what is left, and E of each square subtracted
    rates = ctx.rates if ctx else None
    target, dens = jetcalc._euler(rates, JET[0] / 2, build_lode(n, ctx).pair), 0
    for m in range(n // 2, -1, -1):
        J = jetcalc._algebra(rates, (target, 0))
        square = J.partial(J.lift(target), JET[2 * m]) * ((-1) ** m * JET[m] ** 2 / 2)
        target, dens = target - jetcalc._euler(rates, square), square + dens
    assert zero_test(ctx._reduce_pair(target) if ctx else target)
    return Lagrangian(dens, n // 2)


@pytest.mark.parametrize("n", range(2, 25, 2))
def test_natural_lagrangian_is_the_euler_route(n):
    ref, lag = _natural_by_the_euler_route(n, None), natural_lagrangian(n)
    assert sp.srepr(ref.density) == sp.srepr(lag.density)
    assert lag.order == n // 2


def test_natural_lagrangian_is_one_algebra(monkeypatch):
    # Delta_n read in one algebra, and no Euler operator is run
    algebras = []

    def counted(*args):
        algebras.append(args)
        return jetcalc._algebra(*args)

    def refused(*args, **kwargs):
        raise AssertionError("the Euler route was taken")

    build_lode(8)
    monkeypatch.setattr(maxsym, "_algebra", counted)
    for name in ("_euler", "euler", "frechet_adjoint"):
        monkeypatch.setattr(jetcalc, name, refused)
    natural_lagrangian.__wrapped__(8, CTX)
    assert len(algebras) == 1


@pytest.mark.parametrize("n", range(2, 25))
def test_build_lode_is_adjoint_up_to_sign(n):
    # Delta_n* = (-1)^n Delta_n: self-adjoint at even n, skew at odd n
    delta = build_lode(n).delta
    assert canon(frechet_adjoint(delta, y) - (-1) ** n * delta) == 0


@pytest.mark.parametrize("n", range(3, 25))
def test_build_lode_coefficients_below_the_top(n):
    # no y^(n-1) term, and binom(n+1, 3) q at y^(n-2), read off the pair
    f = build_lode(n).pair
    R = _ring({*f.num.ring.symbols, JET[n - 1]})
    num = _lift(f, R).num
    assert f.den == 1 and set(_by_degree(num, R.symbols.index(JET[n - 1]))) == {0}
    below = _by_degree(num, R.symbols.index(JET[n - 2]))[1]
    assert canon(RingFraction(below, R.one) - comb(n + 1, 3) * q) == 0


def test_specialize_q_matches_diff_ladder():
    a = 3  # q = -a(a-1)/x^2 has the solution pair x^a, x^(1-a)
    k1 = PARAMS["k1"]
    q_values = (0, 1, -2 / X**2, 1 / X**2, sp.exp(X), k1 * X + 3, 1 / (X**2 + 1), -a * (a - 1) / X**2)
    for n in range(2, 9):
        delta = build_lode(n, CTX).delta
        for qval in map(sp.sympify, q_values):
            reference = delta.xreplace({COEF_Q[k]: sp.diff(qval, X, k) for k in range(n - 1)})
            assert canon(specialize_q(delta, qval)) == canon(reference), (n, qval)


def test_specialize_q_raises_on_a_denominator_that_vanishes_at_q():
    with pytest.raises(ZeroDivisionError):
        specialize_q(y / (COEF_Q[0] - 1), 1)


def test_build_lode_oracle_via_first_integral_derivative():
    # D_x of the order-3 homogeneity first integral must equal y * Delta_3
    F3 = reference_first_integral_homogeneity(3)
    assert canon(total_derivative(F3) - y * build_lode(3, CTX).delta) == 0


def test_build_lode_solution_property():
    for n in range(2, 7):
        eq = build_lode(n, CTX)
        for s in solution_basis(n):
            jets = {JET[k]: total_derivative(s, times=k) if k else s for k in range(n + 1)}
            substituted = eq.delta.xreplace(jets)
            assert zero_test(CTX.reduce(substituted)), (n, s)


def test_build_lode_numeric_solution_pairs():
    # concrete exponential pairs (u, v) = (e^(kx), -e^(-kx)/(2k)) for q = -k^2
    for k in (1, 2):
        qval = sp.Integer(-(k**2))
        uexp, vexp = sp.exp(k * X), -sp.exp(-k * X) / (2 * k)
        for n in (2, 3, 4):
            eq = build_lode(n, CTX)
            delta = eq.delta.xreplace(
                {COEF_Q[j]: (qval if j == 0 else sp.Integer(0)) for j in range(5)}
            )
            for kk in range(n):
                s = uexp ** (n - kk - 1) * vexp**kk
                subs = {JET[j]: sp.diff(s, X, j) for j in range(n + 1)}
                assert sp.simplify(delta.xreplace(subs)) == 0


def test_lie_symmetry_property_all_generators():
    for n in range(2, 7):
        eq = build_lode(n, CTX)
        for vf in generators(n):
            verdict = lie_symmetry_check(vf, eq, CTX)
            assert verdict.holds, (n, vf.name, verdict.witness)


def test_canonical_lagrangian():
    assert canon(canonical_lagrangian(2).density + y1**2 / 2) == 0
    assert canon(canonical_lagrangian(4).density - y2**2 / 2) == 0
    assert canon(canonical_lagrangian(6).density + y3**2 / 2) == 0
    for n in (2, 4, 6):
        assert canon(euler(canonical_lagrangian(n)) - JET[n]) == 0
    with pytest.raises(OddOrder):
        canonical_lagrangian(3)


def test_transformed_lagrangian_matches_references():
    for n in (2, 4, 6):
        lag = transformed_lagrangian(n, CTX)
        ref = reference_transformed_lagrangian(n)
        assert zero_test(CTX.reduce(lag.density - ref.density)), n


def test_transformed_lagrangian_euler_consistency():
    for n in (2, 4, 6):
        lag = transformed_lagrangian(n, CTX)
        e = CTX.reduce(euler(lag.density))
        ratio = canon(e / build_lode(n, CTX).delta)
        assert ratio.is_number and ratio != 0, (n, ratio)


def test_natural_lagrangian_order_two():
    lag = natural_lagrangian(2, CTX)
    assert canon(lag.density - (q * y**2 / 2 - y1**2 / 2)) == 0


def test_natural_lagrangian_flat_order_four():
    flat = SourceContext.zero_q()
    lag = natural_lagrangian(4, flat)
    assert canon(lag.density - y2**2 / 2) == 0


def test_natural_lagrangian_euler_recovers_equation():
    for n in (2, 4, 6):
        lag = natural_lagrangian(n, CTX)
        assert lag.order == n // 2
        assert canon(euler(lag.density) - build_lode(n, CTX).delta) == 0
    with pytest.raises(OddOrder):
        natural_lagrangian(3, CTX)


def test_concrete_context_validation():
    with pytest.raises(ValueError):
        SourceContext.from_solutions(X, 2 * X)  # dependent pair
    ctx = SourceContext.from_solutions(sp.Integer(1), X)
    assert ctx.q == 0 and ctx.wronskian == 1
    assert canon(ctx.reduce(u * v1 - u1 * v) - 1) == 0


def test_a_wronskian_that_is_not_constant_is_a_wrong_source_equation():
    # x^2 does not solve u'' = 0, and u v' - u' v = 2x is not constant
    with pytest.raises(ValueError, match="v does not solve the source equation of u"):
        SourceContext.from_solutions(1, X**2)


def _reduce_by_cancel(ctx, e):
    """Reference concrete reduction: substitute the pair's derivative
    ladders, then sp.cancel(sp.together(.))."""
    subs = {}
    for fam, root in ((SOL_U, ctx.u), (SOL_V, ctx.v), (COEF_Q, ctx.q)):
        cur = root
        for k in range(9):
            subs[fam[k]] = cur
            cur = sp.cancel(ctx.dx(cur))
    return sp.cancel(sp.together(sp.sympify(e).xreplace(subs)))


def test_reduce_concrete_families_match_cancel():
    # the concrete inputs of the family (C5) and worked-example (C6) cases
    from odesym.casebook import family_exponential, family_power, family_radical_log
    from odesym.noether import invariance_expression

    sym_L4 = natural_lagrangian(4, CTX)
    families = [
        (family_radical_log(+1)[2], "F4"),
        (family_radical_log(-1)[2], "H4"),
        (family_exponential()[2], "G4"),
        (family_power()[2], "G4"),
        (SourceContext.zero_q(), "V1"),
    ]
    for ctx, name in families:
        vf = generators(4).by_name()[name]
        for e in (sym_L4.density, vf.xi, vf.psi, invariance_expression(vf, sym_L4, CTX)):
            assert sp.srepr(ctx.reduce(e)) == sp.srepr(_reduce_by_cancel(ctx, e))


# The four builders memoised by order, for the symbolic context.
MEMOISED = (generators, build_lode, transformed_lagrangian, natural_lagrangian)


def _srepr_of(obj):
    if hasattr(obj, "homogeneity"):
        return sp.srepr([(vf.name, vf.xi, vf.psi) for vf in obj])
    if hasattr(obj, "delta"):
        return sp.srepr((obj.delta, obj.order, obj.leading))
    return sp.srepr((obj.density, obj.order))


def _memoised_at(n):
    """The memoised builders that accept order n."""
    return [b for b in MEMOISED if n % 2 == 0 or b in (generators, build_lode)]


def test_memo_returns_one_object_per_order():
    for builder in MEMOISED:
        assert builder(4) is builder(4)
    for builder in MEMOISED[1:]:
        assert builder(4, SourceContext.make_symbolic()) is builder(4)
        assert builder(4, None) is builder(4)
    # the lazy pair and solved right-hand side of the shared value are built once
    assert build_lode(5).pair is build_lode(5, CTX).pair
    assert build_lode(5).solved_rhs() is build_lode(5).solved_rhs()


def test_memo_serves_only_the_source_context():
    flat = SourceContext.zero_q()
    assert build_lode(3, flat) is not build_lode(3, flat)
    assert natural_lagrangian(4, flat) is not natural_lagrangian(4, flat)
    # symbolic without the source rates: its reduction applies the source relations all the same
    bare = SourceContext(SOL_U[0], SOL_V[0], COEF_Q[0])
    assert bare.symbolic
    assert build_lode(4, bare) is build_lode(4)


def test_memoised_values_match_fresh_builds():
    for n in range(2, 13):
        for builder in _memoised_at(n):
            assert _srepr_of(builder(n)) == _srepr_of(builder.__wrapped__(n)), (builder.__name__, n)


def test_no_case_mutates_a_memoised_value(case_report):
    before = {(b, n): _srepr_of(b(n)) for n in range(2, 13) for b in _memoised_at(n)}
    for cid in CASE_IDS:
        case_report(cid)
    for (builder, n), text in before.items():
        assert _srepr_of(builder(n)) == text == _srepr_of(builder.__wrapped__(n)), (builder.__name__, n)


def test_memo_under_concurrent_builds():
    # four threads build an order no other test builds, at once
    n, results, errors = 14, [], []

    def build():
        try:
            results.append(tuple(_srepr_of(builder(n)) for builder in MEMOISED))
        except Exception as err:  # reported by the assertion below
            errors.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=build) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 4 and len(set(results)) == 1


def test_memoised_values_stay_frozen():
    eq, lag = build_lode(4), transformed_lagrangian(4)
    before = _srepr_of(eq), _srepr_of(lag)
    for obj, name in ((eq, "delta"), (eq, "leading"), (eq, "order"), (lag, "density"), (lag, "value")):
        with pytest.raises(AttributeError):
            setattr(obj, name, y)
    assert (_srepr_of(eq), _srepr_of(lag)) == before


def test_memoised_generator_stays_frozen():
    vf = generators(4).by_name()["G4"]
    before = sp.srepr((vf.xi, vf.psi))
    for name in ("xi", "psi", "xi_value", "pairs", "name"):
        with pytest.raises(AttributeError):
            setattr(vf, name, y)
    assert sp.srepr((vf.xi, vf.psi)) == before and generators(4).by_name()["G4"] is vf


def _verdicts(n, eq, lag, ctx):
    checks = ((lie_symmetry_check, eq), (divergence_check, eq), (variational_check, lag))
    return [tuple(check(vf, obj, ctx).holds for check, obj in checks) for vf in generators(n)]


def test_builds_and_checks_print_no_equation_or_density(forbid_prints):
    # Delta_6 and the transformed L_6 built afresh, and the n+4 checks of each
    # kind on them, run on pairs; the memoised objects give the same verdicts
    n = 6
    expected = _verdicts(n, build_lode(n), transformed_lagrangian(n), CTX)
    forbid_prints()
    ctx = SourceContext.make_symbolic()
    eq, lag = build_lode.__wrapped__(n, ctx), transformed_lagrangian.__wrapped__(n, ctx)
    assert _verdicts(n, eq, lag, ctx) == expected
    assert [name for name, (_, div, _) in zip(generators(n).by_name(), expected) if not div] == ["Wy"]


def test_field_operations_print_no_pair(forbid_pair_prints):
    # building C5's families and specialising the generators to them,
    # pushing the q = 0 generators forward under C6's map, bracketing, and
    # checking the results, all on pairs
    forbid_pair_prints()
    families = (
        (family_radical_log(+1)[2], "F4"),
        (family_radical_log(-1)[2], "H4"),
        (family_exponential()[2], "G4"),
        (family_power()[2], "G4"),
    )
    flat, sigma = SourceContext.zero_q(), example_map()
    natural_lagrangian.__wrapped__(4)  # the symbolic density is solved on pairs
    for ctx, name in families:
        fields = generators(4).specialize(ctx).by_name()
        assert variational_check(fields[name], natural_lagrangian(4, ctx), ctx).holds, name
    eq = transform_equation(DiffEq(JET[4], 4), sigma)
    for name, vf in generators(4).specialize(flat).by_name().items():
        assert lie_symmetry_check(pushforward(vf, sigma), eq).holds, name
    gens = generators(6)
    brackets = {(a, b): commutator(a, b) for a in gens for b in gens if a is not b}
    assert all(not c.num for a in gens.solution for b in gens.solution if a is not b
               for c in brackets[a, b].pairs)


def test_point_transformations_print_no_pair(forbid_pair_prints, monkeypatch):
    # the source transformation and the objects it carries, and C6's map
    # with its equation, push-forwards, Lagrangian and a composition, all
    # built on pairs; the prints are read once the guard is lifted
    forbid_pair_prints()
    fields = generators(4).specialize(SourceContext.zero_q()).by_name()
    built = {n: (source_transformation(n), build_lode.__wrapped__(n), transformed_lagrangian.__wrapped__(n))
             for n in (4, 8)}
    sigma = example_map()
    eq = transform_equation(DiffEq(y4, 4), sigma)
    images = {name: pushforward(fields[name], sigma) for name in example_generators_expected()}
    lag = transform_lagrangian(canonical_lagrangian(4), sigma)
    # C6's map inside: a node of the outer map holding a key prints its argument's image
    combined = compose(PointTransformation(2 * X, y + X**2), sigma)
    monkeypatch.undo()
    for n, (source, lode, density) in built.items():
        assert (source.zeta, source.zeta_x, source.phi) == (v / u, u**-2, y / u ** (n - 1))
        assert sp.srepr(lode.delta) == sp.srepr(build_lode(n).delta)
        assert sp.srepr(density.density) == sp.srepr(transformed_lagrangian(n).density)
    shown = sp.together(example_equation_display())
    assert canon(eq.delta - shown / sp.diff(shown, y4)) == 0
    for name, want in example_generators_expected().items():
        assert canon(images[name].xi - want.xi) == 0 == canon(images[name].psi - want.psi), name
    assert canon(lag.density / example_lagrangian_expected()).is_number
    assert (combined.zeta, combined.phi) == (2 * X, X**2 + PARAMS["k2"] - sp.log(y))


# [a, b] = c * target, for target None: [a, b] = 0
def _structure(n):
    last = f"V{n - 1}"
    return [
        (f"F{n}", f"G{n}", 2, f"F{n}"),
        (f"F{n}", f"H{n}", -1, f"G{n}"),
        (f"G{n}", f"H{n}", 2, f"H{n}"),
        ("V0", "Wy", 1, "V0"),
        ("V1", f"F{n}", -1, "V0"),
        ("V0", f"H{n}", -(n - 1), "V1"),
        ("V0", "V1", 0, None),
        ("V0", f"F{n}", 0, None),
        (last, f"H{n}", 0, None),
    ]


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("rates", [None, CTX.rates], ids=["bare", "source"])
def test_bracket_structure_constants(n, rates):
    fields = generators(n).by_name()
    for a, b, c, target in _structure(n):
        bracket = commutator(fields[a], fields[b], rates)
        want = fields[target] if target else VectorField(0, 0)
        assert CTX.reduce(bracket.xi - c * want.xi) == 0 == CTX.reduce(bracket.psi - c * want.psi), (a, b)


CONCRETE = {
    "zero-q": SourceContext.zero_q(),
    "exponential": family_exponential()[2],
    "cube": SourceContext.from_solutions(X**3, -(X**-2) / 5),
}


@pytest.mark.parametrize("ctx", [*CONCRETE.values(), family_power()[2]], ids=[*CONCRETE, "power"])
def test_values_given_as_pairs_or_trees_reduce_alike(ctx):
    # the same context given its u, v, q and Wronskian as pairs and as their prints
    contexts = (SourceContext(*ctx.pairs[:3], ctx.rates, ctx.pairs[3]),
                SourceContext(ctx.u, ctx.v, ctx.q, ctx.rates, ctx.wronskian))
    reads = [[sp.srepr((c.q, c.wronskian)), _srepr_of(generators(4).specialize(c)),
              _srepr_of(natural_lagrangian(4, c)), *(_srepr_of(build_lode(n, c)) for n in (4, 5, 6))]
             for c in contexts]
    assert reads[0] == reads[1]


def test_symbolic_source_transformation_lifts_at_most_two_trees(count_prints_and_lifts):
    source_transformation(7, SourceContext.make_symbolic())
    assert count_prints_and_lifts["prints"] == 0 and count_prints_and_lifts["lifts"] <= 2


@pytest.mark.parametrize("ctx", CONCRETE.values(), ids=CONCRETE.keys())
def test_concrete_context_gets_the_memo_reduced(ctx):
    # the memoised symbolic value, reduced, prints as the build under ctx does
    for n in range(2, 6):
        for builder in (build_lode, transformed_lagrangian) if n % 2 == 0 else (build_lode,):
            assert _srepr_of(builder(n, ctx)) == _srepr_of(builder.__wrapped__(n, ctx)), (builder.__name__, n)


SIX_CONTEXTS = {
    **CONCRETE,
    "power": family_power()[2],
    "radical-log-F4": family_radical_log(+1)[2],
    "radical-log-H4": family_radical_log(-1)[2],
}


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("ctx", SIX_CONTEXTS.values(), ids=SIX_CONTEXTS.keys())
def test_transformed_lagrangian_under_a_context_is_the_transform(ctx, n):
    ref, lag = _transformed_by_the_map(n, ctx), transformed_lagrangian.__wrapped__(n, ctx)
    assert canon(ref.pair - lag.pair) == 0
    assert sp.srepr(ref.density) == sp.srepr(lag.density)


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("ctx", SIX_CONTEXTS.values(), ids=SIX_CONTEXTS.keys())
def test_natural_lagrangian_is_solved_under_its_context(ctx, n):
    # the unmemoised body solves the density from Delta_n under ctx: it
    # holds no q, and equals the memoised symbolic density reduced by ctx
    # before any reduction of the difference
    memoised, built = natural_lagrangian(n, ctx), natural_lagrangian.__wrapped__(n, ctx)
    assert canon(memoised.pair - built.pair) == 0
    half_y_delta = y * build_lode(n, ctx).delta / 2
    assert ctx.reduce(euler(built, ctx.rates) - euler(half_y_delta, ctx.rates)) == 0


@pytest.mark.parametrize("n", [2, 4, 6])
@pytest.mark.parametrize("ctx", SIX_CONTEXTS.values(), ids=SIX_CONTEXTS.keys())
def test_natural_lagrangian_under_a_context_is_the_euler_route(ctx, n):
    ref, lag = _natural_by_the_euler_route(n, ctx), natural_lagrangian.__wrapped__(n, ctx)
    assert canon(ref.pair - lag.pair) == 0
