import random

import pytest
import sympy as sp

from odesym import casebook, exprcore, jetcalc
from odesym.exprcore import COEF_Q, JET, MAX_JET_ORDER, PARAMS, SOL_U, SOL_V, X, canon, zero_test
from odesym.jetcalc import (
    DiffEq,
    JetOrderLimit,
    Lagrangian,
    NotExact,
    VectorField,
    apply_prolongation,
    characteristic,
    dx_fixed_jets,
    euler,
    frechet,
    frechet_adjoint,
    inverse_total_derivative,
    prolong,
    substitute_solved,
    total_derivative,
)
from odesym.maxsym import SourceContext, build_lode, generators, specialize_q, transformed_lagrangian
from odesym.transform import transform_equation

y, y1, y2, y3 = JET[0], JET[1], JET[2], JET[3]
u, u1 = SOL_U[0], SOL_U[1]
q, q1 = COEF_Q[0], COEF_Q[1]


def test_total_derivative_examples():
    assert canon(total_derivative(y**2) - 2 * y * y1) == 0
    assert canon(total_derivative(q * y) - (q1 * y + q * y1)) == 0
    assert canon(total_derivative(sp.log(y)) - y1 / y) == 0


def test_total_derivative_leibniz_linear():
    e1, e2 = y * y1, q * y**2
    assert canon(total_derivative(e1 * e2) - e1 * total_derivative(e2) - e2 * total_derivative(e1)) == 0
    assert canon(total_derivative(3 * e1 - 2 * e2) - 3 * total_derivative(e1) + 2 * total_derivative(e2)) == 0


def test_total_derivative_commutes_with_parameter_partial():
    lam = PARAMS["lam"]
    e = lam**2 * y * y2 + lam * q * y1 + X * lam
    assert canon(total_derivative(sp.diff(e, lam)) - sp.diff(total_derivative(e), lam)) == 0


def test_characteristic_examples():
    assert characteristic(VectorField(0, y)) == y
    assert characteristic(VectorField(1, 0)) == -y1
    f4 = VectorField(u**2, 3 * u * u1 * y)
    assert canon(characteristic(f4) - (3 * u * u1 * y - u**2 * y1)) == 0


def test_vector_field_rejects_jets():
    with pytest.raises(ValueError):
        VectorField(y1, 0)


# coefficients with denominators and ln, exp and radical nodes
FIELD_PAIRS = [
    (X**2 / (1 + y), y / X),
    (sp.log(X), sp.sqrt(y) * u / (X + SOL_V[0])),
    (sp.exp(X) * y / q, X * y**2 - u1),
]


@pytest.mark.parametrize("xi, psi", FIELD_PAIRS, ids=["rational", "nodes", "exp"])
def test_vector_field_of_pairs_matches_its_prints(xi, psi):
    pairs = [exprcore._canonical_pair(c) for c in (xi, psi)]
    given, printed = VectorField(*pairs), VectorField(*(p.as_expr() for p in pairs))
    assert given.pairs == tuple(pairs)
    for read in (lambda v: v.xi, lambda v: v.psi, characteristic):
        assert sp.srepr(read(given)) == sp.srepr(read(printed))
    for got, p in zip(printed.pairs, pairs):
        assert canon(got) == canon(p)
    actions = [apply_prolongation(v, y3 + q * y1 / X) for v in (given, printed)]
    assert sp.srepr(actions[0]) == sp.srepr(actions[1])


@pytest.mark.parametrize("xi, psi", [(y1, 0), (0, X * y2 / (y + 1)), (sp.log(y1), y)])
def test_vector_field_of_pairs_refuses_as_its_prints(xi, psi):
    messages = []
    for given in ((xi, psi), [exprcore.RingFraction.from_expr(c) for c in (xi, psi)]):
        with pytest.raises(ValueError) as err:
            VectorField(*given)
        messages.append(str(err.value))
    assert messages[0] == messages[1] and "involves jets" in messages[0]


def test_prolong_homogeneity():
    assert prolong(VectorField(0, y), 2) == [y, y1, y2]


def test_prolong_translation_scaling():
    assert prolong(VectorField(X, 0), 1) == [0, -y1]


def test_prolong_quadratic_coefficient():
    # frozen from the hand expansion of D_x^2(-x^2 y1) + x^2 y3
    assert canon(prolong(VectorField(X**2, 0), 2)[2] - (-4 * X * y2 - 2 * y1)) == 0


def test_prolong_matches_characteristic_formula():
    vf = VectorField(X**2 + y, X * y)
    qc = characteristic(vf)
    phis = prolong(vf, 3)
    dq = qc
    for k in range(4):
        assert canon(phis[k] - (dq + vf.xi * JET[k + 1])) == 0
        dq = total_derivative(dq)


def test_prolong_linearity():
    v1 = VectorField(X, y)
    v2 = VectorField(y, X * y)
    combined = VectorField(3 * v1.xi + 5 * v2.xi, 3 * v1.psi + 5 * v2.psi)
    for a, b in zip(prolong(combined, 3), (3 * sp.Matrix(prolong(v1, 3)) + 5 * sp.Matrix(prolong(v2, 3)))):
        assert canon(a - b) == 0


def test_euler_examples():
    assert canon(euler(Lagrangian(-(y1**2) / 2, 1)) - y2) == 0
    assert canon(euler(Lagrangian(y * y2, 2)) - 2 * y2) == 0


def test_euler_transformed_lagrangian_reduced():
    # hand oracle: expand -i^2 y + i y1 - D_x(i y - y1) with i = u'/u and
    # D_x i = -q - i^2 after the source-equation substitution
    i = u1 / u
    density = -(i**2) * y**2 / 2 + i * y * y1 - y1**2 / 2
    e = euler(Lagrangian(density, 1))
    reduced = canon(e.subs(SOL_U[2], -q * u))
    assert canon(reduced - (y2 + q * y)) == 0
    di = -q - i**2
    manual = -(i**2) * y + i * y1 - (di * y + i * y1 - y2)
    assert canon(reduced - canon(manual)) == 0


def test_frechet_linear_equation():
    qc = sp.Function("dummy")  # placeholder, not used below
    delta = y2 + q * y
    probe = y * y1
    assert canon(frechet(delta, probe) - (total_derivative(probe, 2) + q * probe)) == 0


def test_frechet_adjoint_trivial():
    assert frechet_adjoint(y2, 1) == 0


def test_frechet_adjoint_identity_instance():
    delta = y2 + q * y
    qc = y
    lhs = euler(qc * delta)
    rhs = frechet_adjoint(delta, qc) + frechet_adjoint(qc, delta)
    assert canon(lhs - rhs) == 0
    assert canon(lhs - (2 * y2 + 2 * q * y)) == 0


def test_inverse_total_derivative_examples():
    assert canon(inverse_total_derivative(y1 * y2) - y1**2 / 2) == 0
    # order-3 source form: matches the stored homogeneity first integral
    P = y * (y3 + 4 * q * y1 + 2 * q1 * y)
    F = inverse_total_derivative(P)
    assert canon(F - (2 * q * y**2 - y1**2 / 2 + y * y2)) == 0


def test_inverse_total_derivative_not_exact():
    with pytest.raises(NotExact):
        inverse_total_derivative(y * y1**2)


def test_inverse_total_derivative_x_residue():
    e = y * y1 + X**2 + PARAMS["k1"]
    F = inverse_total_derivative(e)
    assert canon(total_derivative(F) - e) == 0


def test_inverse_total_derivative_edges():
    assert inverse_total_derivative(y3) == y2  # the rung y2 is not in P
    assert inverse_total_derivative(y2 / y1) == sp.log(y1)  # log-type antiderivative
    for node in (y * sp.log(y), sp.exp(y) * y1):  # node pieces through the Risch integrator
        assert inverse_total_derivative(canon(total_derivative(node))) == node
    r = sp.sqrt(1 + y / X)  # the integrator leaves this top coefficient unevaluated
    with pytest.raises(NotExact, match="no antiderivative"):
        inverse_total_derivative(canon(total_derivative(r**3 / (y + r))))
    assert inverse_total_derivative(JET[MAX_JET_ORDER]) == JET[MAX_JET_ORDER - 1]
    # the radical relation sqrt(x)^2 = x cancels in the peel, as canon cancels it
    radical = sp.sqrt(X) * y1**2
    assert inverse_total_derivative(canon(total_derivative(radical))) == radical
    with pytest.raises(NotExact, match="nonlinear"):
        inverse_total_derivative(y1 * y2**2, check_exact=False)
    with pytest.raises(NotExact, match="residue"):  # the peel reaches q2, past P's closure
        inverse_total_derivative(q * y2, check_exact=False)
    for residue in (1 / X, sp.exp(X)):
        with pytest.raises(NotExact, match="residue"):
            inverse_total_derivative(y * y1 + residue)


def test_inverse_total_derivative_stops_on_a_step_that_keeps_its_top():
    # D_x(u v y) under the plain ladder rates; under v' = (1 + u'v)/u the
    # piece of each u1 step brings u1 back through v, so the peel never ends
    v, v1 = SOL_V[0], SOL_V[1]
    P = u * v * y1 + u * v1 * y + u1 * v * y
    rates = SourceContext.make_symbolic().deriv_rates()
    with pytest.raises(NotExact, match="survives its peel step"):
        inverse_total_derivative(P, rates=rates, check_exact=False)


def test_substitute_solved():
    eq = DiffEq(y2 + q * y, 2)
    assert canon(substitute_solved(y2, eq) + q * y) == 0
    assert canon(substitute_solved(y3, eq) - (-q1 * y - q * y1)) == 0


def test_ladder_images(monkeypatch):
    root, scale = y1 / X + q * y, 1 / (1 + y1)
    ladder = jetcalc.derivative_ladder(root, 3, scale=scale)
    images = jetcalc.ladder_images(JET[2:], root, {y2, JET[5], X}, scale=scale)
    # the root keeps its own tree; a re-lift would print it as (q*x*y + y1)/x
    assert images == {y2: root, JET[5]: ladder[3].as_expr()}
    assert isinstance(images[JET[5]], exprcore.RingFraction)  # a rung stays a pair
    assert sp.srepr(images[y2]) == sp.srepr(root) != sp.srepr(ladder[0].as_expr())
    assert jetcalc.ladder_images(JET[2:], root, {y1, X}) == {}
    monkeypatch.setattr(jetcalc, "derivative_ladder", None)  # only the root: no ladder
    assert jetcalc.ladder_images(COEF_Q, root, {q, X}) == {q: root}


def _substitute_solved_by_tree(e, eq, rates=None):
    """y^(m) -> D_x^(m-n) rhs, highest m first, on sympy trees."""
    rhs = eq.solved_rhs()
    m = exprcore.max_jet_order(e)
    while m >= eq.order:
        consequence = total_derivative(rhs, times=m - eq.order, rates=rates)
        consequence = consequence.subs(JET[eq.order], rhs)
        e = sp.together(e.subs(JET[m], consequence))
        m = exprcore.max_jet_order(e)
    return e


def _solved_corpus():
    """(expression, equation, rates): Lie actions of the generators, D_x of
    the C6 first-integral components and a concrete solution family, and
    consequences of each up to three orders above its equation."""
    sym = SourceContext.make_symbolic()
    for n in range(3, 7):
        eq = build_lode(n, sym)
        for vf in generators(n):
            yield apply_prolongation(vf, eq.delta, sym.rates), eq, sym.rates
        yield total_derivative(y1 * eq.delta, 2, sym.rates), eq, sym.rates
    c6 = transform_equation(DiffEq(JET[4], 4), casebook.example_map())
    for component in casebook.example_first_integral_components():
        yield total_derivative(component), c6, None
        yield total_derivative(component, 2), c6, None
    _, _, ctx = casebook.family_exponential()
    eq = build_lode(4, ctx)
    for vf in generators(4).specialize(ctx):
        yield apply_prolongation(vf, eq.delta, ctx.rates), eq, ctx.rates
    yield total_derivative(X * eq.delta, 3, ctx.rates), eq, ctx.rates


def test_substitute_solved_matches_tree_elimination():
    orders = []
    for e, eq, rates in _solved_corpus():
        out = substitute_solved(e, eq, rates)
        assert exprcore.max_jet_order(out) < eq.order
        assert canon(out) == canon(_substitute_solved_by_tree(e, eq, rates))
        orders.append(exprcore.max_jet_order(e) - eq.order)
    assert len(orders) == 34 + 4 + 8 + 8 + 1 and max(orders) == 3


def test_substitute_solved_annihilates_consequences():
    rates = SourceContext.make_symbolic().rates
    eq = build_lode(5)
    for k in range(1, 4):
        assert canon(substitute_solved(total_derivative(eq.delta, k, rates), eq, rates)) == 0


def test_diffeq_validation():
    with pytest.raises(ValueError):
        DiffEq(y2 + q * y, 3)
    with pytest.raises(ValueError):
        DiffEq(y2**2, 2)
    eq = DiffEq(2 * y2 + y, 2)
    assert canon(eq.monic().delta - (y2 + y / 2)) == 0
    assert canon(eq.solved_rhs() + y / 2) == 0


# zero on the domain, but not in the ring: only the zero test sees it
HIDDEN_ZERO = sp.sqrt(X + 1) * sp.sqrt(X + 2) - sp.sqrt(X**2 + 3 * X + 2)


@pytest.mark.parametrize("delta", [
    y3 + q * y1,
    y3 * y2 + y,
    2 * y3 / (X + y) - y1**2 / y,
    (X * y3 + y) / (y2 + 1),
    sp.log(y2) * y3 + sp.sqrt(y1),
], ids=["polynomial", "jet-lead", "denominator", "lead-over-jets", "nodes"])
def test_diffeq_of_a_pair_matches_its_print(delta):
    pair = exprcore.RingFraction.from_expr(delta)
    given, printed = DiffEq(pair, 3), DiffEq(pair.as_expr(), 3)
    assert sp.srepr(given.leading) == sp.srepr(printed.leading)
    assert sp.srepr(given.solved_rhs()) == sp.srepr(printed.solved_rhs())


@pytest.mark.parametrize("delta, order, message", [
    (y2 + q * y, 3, "declared order 3 does not match q*y + y2"),
    (y3**2 + y, 3, "equation is not linear in its top derivative"),
    (y3 / (y3 + 1) + y, 3, "equation is not linear in its top derivative"),
    (sp.log(y3) + y, 3, "equation is not linear in its top derivative"),
    (HIDDEN_ZERO * y3 + y, 3, "leading coefficient is identically zero"),
], ids=["order", "square", "denominator", "node", "zero-lead"])
def test_diffeq_of_a_pair_refuses_as_its_print(delta, order, message):
    pair = exprcore.RingFraction.from_expr(delta)
    for value in (pair, pair.as_expr()):
        with pytest.raises(ValueError) as err:
            DiffEq(value, order)
        assert str(err.value) == message


# --- randomized property suites -------------------------------------------

def _random_jet_poly(rng, max_order=3, terms=3):
    atoms = [X, y, y1, JET[2], JET[3]][: max_order + 2] + [q, q1]
    e = sp.Integer(0)
    for _ in range(terms):
        t = sp.Rational(rng.randint(-4, 4))
        for _ in range(rng.randint(1, 3)):
            t *= rng.choice(atoms)
        e += t
    return e


def test_euler_annihilates_total_derivatives_200():
    rng = random.Random(101)
    for _ in range(200):
        e = _random_jet_poly(rng)
        assert euler(total_derivative(e)) == 0


def test_frechet_adjoint_identity_random():
    rng = random.Random(202)
    for _ in range(100):
        delta = _random_jet_poly(rng, max_order=2, terms=2)
        qc = _random_jet_poly(rng, max_order=2, terms=2)
        lhs = euler(sp.expand(qc * delta))
        rhs = frechet_adjoint(delta, qc) + frechet_adjoint(qc, delta)
        assert canon(lhs - rhs) == 0


def test_inverse_total_derivative_round_trip_200():
    rng = random.Random(303)
    for _ in range(200):
        F = _random_jet_poly(rng)
        P = total_derivative(F)
        recovered = inverse_total_derivative(P, check_exact=False)
        assert total_derivative(recovered - F) == 0
        assert sp.srepr(recovered) == sp.srepr(_tree_inverse_total_derivative(P)), P


def test_apply_prolongation_product_rule():
    vf = VectorField(X, 2 * y)
    e1, e2 = y * y1, y2 + q * y
    lhs = apply_prolongation(vf, e1 * e2)
    rhs = e1 * apply_prolongation(vf, e2) + e2 * apply_prolongation(vf, e1)
    assert canon(lhs - rhs) == 0


# --- ring operators against a sympy-tree reference ------------------------
#
# The references below apply each operator's defining formula with sp.diff
# on expression trees; the operators must give the same canonical forms.

def _ref_dx(e, rates=None):
    table = {**exprcore.base_rates(), **(rates or {})}
    if JET[MAX_JET_ORDER] in e.free_symbols:
        raise JetOrderLimit("jet order limit exceeded")
    return sum((sp.diff(e, s) * table[s] for s in e.free_symbols if s in table), sp.Integer(0))


def _ref_total_derivative(e, times, rates=None):
    for _ in range(times):
        e = sp.expand(_ref_dx(e, rates))
    return e


def _ref_dx_fixed_jets(e, rates=None):
    return _ref_dx(e, rates) - sum(
        (JET[k + 1] * sp.diff(e, JET[k]) for k in range(exprcore.max_jet_order(e) + 1)),
        sp.Integer(0),
    )


def _ref_prolong(vf, order, rates=None):
    qc = vf.psi - vf.xi * y1
    return [_ref_total_derivative(qc, k, rates) + vf.xi * JET[k + 1] for k in range(order + 1)]


def _ref_apply_prolongation(vf, e, rates=None):
    m = max(exprcore.max_jet_order(e), 0)
    out = vf.xi * _ref_dx_fixed_jets(e, rates)
    for k, phi in enumerate(_ref_prolong(vf, m, rates)):
        out += phi * sp.diff(e, JET[k])
    return out


def _ref_euler(e, rates=None):
    return sum(
        ((-1) ** k * _ref_total_derivative(sp.diff(e, JET[k]), k, rates)
         for k in range(exprcore.max_jet_order(e) + 1)),
        sp.Integer(0),
    )


def _ref_frechet(delta, qc, rates=None):
    return sum(
        (sp.diff(delta, JET[k]) * _ref_total_derivative(qc, k, rates)
         for k in range(exprcore.max_jet_order(delta) + 1)),
        sp.Integer(0),
    )


def _ref_frechet_adjoint(delta, qc, rates=None):
    return sum(
        ((-1) ** k * _ref_total_derivative(qc * sp.diff(delta, JET[k]), k, rates)
         for k in range(exprcore.max_jet_order(delta) + 1)),
        sp.Integer(0),
    )


def _same(a, b):
    return canon(a) == canon(b)


def _random_expr(rng, atoms, terms=3, denominators=()):
    e = sp.Integer(0)
    for _ in range(terms):
        t = sp.Rational(rng.choice((-5, -3, -2, -1, 1, 2, 4)), rng.randint(1, 3))
        for _ in range(rng.randint(1, 3)):
            t *= rng.choice(atoms)
        if denominators and rng.random() < 0.5:
            t /= rng.choice(denominators) ** rng.randint(1, 3)
        e += t
    return e


def _parity_corpus(case):
    """(rates, expressions, vector fields) of one parity case, seeded."""
    rng = random.Random(f"jet-operator-parity:{case}")
    v = exprcore.SOL_V[0]
    k1 = PARAMS["k1"]
    base = [X, y, y1, y2, y3, u, u1, v, q, q1, k1]
    if case == "polynomial":
        rates, atoms, dens, fixed = None, base, (), []
    elif case == "rational-u":
        rates, atoms, dens = None, base, (u,)
        fixed = [transformed_lagrangian(4).density, transformed_lagrangian(6).density]
    elif case == "deriv-rates":
        rates = SourceContext.make_symbolic().deriv_rates()
        atoms, dens, fixed = [X, y, y1, y2, u, u1, v, q], (u,), []
    elif case == "family":
        rates = casebook.family_radical_log(+1)[2].rates
        atoms = [X, y, y1, y2, casebook.RADICAL, casebook.LOG_ATOM, PARAMS["k2"]]
        dens, fixed = (casebook.RADICAL,), []
    elif case == "log-edge":  # ln(y) and a radical enter the ring as generators
        rates, atoms, dens = None, [X, y, y1, y2, q], ()
        fixed = [PARAMS["k2"] - sp.log(y), sp.sqrt(y) * y1 / y2]
    else:  # nodes over jets and in the fields: the chain-rule rates of every table
        fields = [
            VectorField(sp.log(X), y * sp.log(y)),
            VectorField(sp.exp(X / 2), X * sp.sqrt(y)),
            VectorField(X**2, y * sp.exp(X)),
        ]
        nodes = [sp.log(y1) * y2, sp.sqrt(1 + y1**2) * y2, sp.exp(X / 2) * y2**2 / 2 + sp.log(X) * y1]
        rest = [_random_expr(rng, [X, y, y1, y2, q]) for _ in range(2)]
        return None, [*nodes, rest[0], *map(characteristic, fields), rest[1]], fields
    exprs = [_random_expr(rng, atoms, denominators=dens) for _ in range(8)]
    if case == "log-edge":
        exprs = [e + sp.log(y) * _random_expr(rng, atoms, 1) for e in exprs[:4]]
    exprs += fixed
    base_atoms = [a for a in atoms if a not in JET[1:]]
    fields = [
        VectorField(_random_expr(rng, base_atoms, 2, dens), _random_expr(rng, base_atoms, 2, dens))
        for _ in range(3)
    ]
    if case == "log-edge":
        fields.append(VectorField(2 * X, -3 * y * (PARAMS["k2"] - sp.log(y))))
    return rates, exprs, fields


PARITY_CASES = ["polynomial", "rational-u", "deriv-rates", "family", "log-edge", "node-fields"]


@pytest.mark.parametrize("case", PARITY_CASES)
def test_operators_match_tree_reference(case):
    rates, exprs, fields = _parity_corpus(case)
    for e in exprs:
        algebra = jetcalc._algebra(rates, (e, 1))
        assert isinstance(algebra, jetcalc._RingAlgebra), e
        for times in (1, 2, 3):
            got = total_derivative(e, times, rates)
            assert _same(got, _ref_total_derivative(e, times, rates)), (e, times)
        assert _same(jetcalc.dx_fixed_jets(e, rates), _ref_dx_fixed_jets(e, rates)), e
        assert _same(euler(e, rates), _ref_euler(e, rates)), e
    for vf in fields:
        for got, want in zip(prolong(vf, 3, rates), _ref_prolong(vf, 3, rates)):
            assert _same(got, want), vf
        for e in exprs[:4]:
            got = apply_prolongation(vf, e, rates)
            assert _same(got, _ref_apply_prolongation(vf, e, rates)), (vf, e)
    for delta, qc in zip(exprs[:4], exprs[4:8]):
        assert _same(frechet(delta, qc, rates), _ref_frechet(delta, qc, rates)), (delta, qc)
        got = frechet_adjoint(delta, qc, rates)
        assert _same(got, _ref_frechet_adjoint(delta, qc, rates)), (delta, qc)


def test_fixed_jets_derivation_reaches_the_registry_top():
    top = JET[MAX_JET_ORDER]
    assert dx_fixed_jets(X * top) == top
    assert dx_fixed_jets(X**2 * top / (1 + y1)) == 2 * X * top / (1 + y1)
    with pytest.raises(JetOrderLimit):
        total_derivative(X * top)


def test_operators_stop_at_the_jet_registry():
    top = JET[MAX_JET_ORDER]
    assert total_derivative(JET[MAX_JET_ORDER - 1]) == top
    assert total_derivative(JET[MAX_JET_ORDER - 2], 2) == top
    assert euler(y * top) == 2 * top
    assert prolong(VectorField(0, y), MAX_JET_ORDER)[-1] == top
    for call in (
        lambda: total_derivative(top),
        lambda: total_derivative(JET[MAX_JET_ORDER - 1], 2),
        lambda: total_derivative(1 / (1 + top)),
        lambda: euler(y1 * top),
        lambda: euler((y - X * y1) * (top + y1**2)),
        lambda: prolong(VectorField(0, y), MAX_JET_ORDER + 1),
    ):
        with pytest.raises(JetOrderLimit):
            call()


# --- the ring peel against the tree peel it replaced ------------------------

def _tree_inverse_total_derivative(P, rates=None):
    """The inverse total derivative peeled on sympy trees (check_exact=False)."""
    F = sp.Integer(0)
    P = sp.expand(sp.together(sp.sympify(P)))
    for family in (JET, exprcore.SOL_U, exprcore.SOL_V, COEF_Q):
        while True:
            m = exprcore.top_order(P.free_symbols, family)
            if m <= 0:
                break
            top = family[m]
            c = canon(sp.diff(P, top))
            if sp.diff(c, top) != 0:
                raise NotExact(f"nonlinear in top derivative {top}", P)
            piece = sp.integrate(c, family[m - 1])
            F += piece
            P = sp.expand(canon(P - total_derivative(piece, rates=rates)))
    if P != 0:
        extra = canon(P)
        if extra.free_symbols - {X} - exprcore._PARAM_SET or not extra.is_polynomial(X):
            raise NotExact("residue is not a polynomial in x", extra)
        F += sp.integrate(extra, X)
    return sp.expand(F)


def _divergence_symmetries(n):
    """The paper's divergence symmetries of Delta_n: every generator but W_y
    for even n, the V_k and W_y for odd n."""
    gens = generators(n)
    return [*gens.solution, *(gens.special if n % 2 == 0 else [gens.homogeneity])]


def _peel_corpus(case):
    """(P, rates) pairs: Q*Delta_n of each divergence symmetry under the
    symbolic context, and y*Delta_n of concrete q (the round trips of seed
    303 are compared in the round-trip test)."""
    ctx = SourceContext.make_symbolic()
    if case.startswith("divergence"):
        lo, hi = map(int, case.split("-")[1:])
        return [
            (ctx.reduce(characteristic(vf) * build_lode(n, ctx).delta), ctx.deriv_rates())
            for n in range(lo, hi + 1)
            for vf in _divergence_symmetries(n)
        ]
    out = []
    for n in (3, 5, 7):
        delta = build_lode(n, ctx).delta
        for qx in (1, -2 / X**2, -6 / X**2, -12 / X**2, sp.exp(X), 1 / (X**2 + 1), sp.sqrt(X)):
            out.append((canon(y * specialize_q(delta, qx)), None))
    return out


@pytest.mark.parametrize("case", ["divergence-3-6", "divergence-7-8", "concrete-q"])
def test_inverse_total_derivative_matches_tree_peel(case):
    for P, rates in _peel_corpus(case):
        got = inverse_total_derivative(P, rates=rates, check_exact=False)
        assert sp.srepr(got) == sp.srepr(_tree_inverse_total_derivative(P, rates)), P


def test_delta_expands_only_a_print_that_is_not_a_sum_of_monomials(monkeypatch):
    ctx = SourceContext.make_symbolic()
    direct = [(build_lode(n, ctx).pair, n) for n in (2, 5, 8)]
    direct.append((exprcore.RingFraction.from_expr(3 * y2 * JET[10] - y2**2 * X + 1), 10))
    # a denominator that is an integer times a monomial prints its Laurent sum
    direct.append((exprcore.RingFraction.from_expr((y2 + y) / X), 2))
    direct.append((exprcore.RingFraction.from_expr((3 * y2 - y * X**2 + 2) / (-6 * X * y1**2)), 2))
    expanded = [
        (exprcore.RingFraction.from_expr((y2 + y) / (X + 1)), 2),
        (exprcore.RingFraction.from_expr((y2 - sp.log(y) + 1) * (y1 + sp.log(y))), 2),
        (exprcore.RingFraction.from_expr((y2 - sp.exp(X)) * (sp.exp(X) + 1)), 2),
    ]
    cases = [(f, n, False) for f, n in direct] + [(f, n, True) for f, n in expanded]
    wanted = [sp.expand(f.as_expr()) for f, _, _ in cases]
    calls, expand = [], sp.expand
    monkeypatch.setattr(sp, "expand", lambda e, *a, **k: calls.append(e) or expand(e, *a, **k))
    for (f, n, expands), want in zip(cases, wanted):
        eq = DiffEq(f, n)
        calls.clear()
        assert sp.srepr(eq.delta) == sp.srepr(want) and eq.delta == want
        assert bool(calls) == expands


def test_declared_orders_are_checked():
    with pytest.raises(ValueError, match="density has jet order 2 > declared 1"):
        Lagrangian(y2**2, 1)
    with pytest.raises(ValueError, match="prolongation order must be >= 0"):
        prolong(VectorField(0, y), -1)
