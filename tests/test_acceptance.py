"""Acceptance suite: the seven exit criteria, one test each.

Every test prints a single PASS/FAIL line (run pytest with -s to stream
them).  Tolerances are pinned here: symbolic claims are exact (zero
residual after canonicalization/reduction), negative claims are certified
at 20 sample points with relative tolerance 1e-9, numeric drift bounds are
1e-6 for genuine first integrals and 1e-3 for the corrupted detector.
"""

import random
import time

import sympy as sp

from odesym.casebook import (
    example_first_integral_components,
    example_generators_expected,
    example_lagrangian_expected,
    example_map,
    family_exponential,
    family_power,
    family_radical_log,
    independence_determinant,
    numeric_validate,
)
from odesym.exprcore import COEF_Q, JET, SOL_U, SOL_V, X, canon, numeric_witness, zero_test
from odesym.jetcalc import (
    DiffEq,
    Lagrangian,
    VectorField,
    euler,
    frechet_adjoint,
    inverse_total_derivative,
    total_derivative,
)
from odesym.maxsym import (
    SourceContext,
    build_lode,
    canonical_lagrangian,
    generators,
    natural_lagrangian,
    reference_first_integral_homogeneity,
    reference_transformed_lagrangian,
    transformed_lagrangian,
)
from odesym.noether import (
    divergence_check,
    first_integral,
    invariance_expression,
    variational_check,
    verify_first_integral,
)
from odesym.transform import (
    PointTransformation,
    pushforward,
    transform_equation,
    transform_equation_covariant,
    transform_lagrangian,
)

CTX = SourceContext.make_symbolic()
WITNESS_TOL = sp.Rational(1, 10**9)


def _report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_homogeneity_first_integrals():
    wy = generators(3).homogeneity
    worst = 0.0
    for n in (3, 5, 7):
        t0 = time.perf_counter()
        F = first_integral(wy, build_lode(n, CTX), CTX)
        residual = canon(F.expr - reference_first_integral_homogeneity(n))
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert residual == 0, f"n={n} residual {residual}"
        assert elapsed < 30, f"n={n} took {elapsed:.1f}s"
    _report(1, True, f"homogeneity first integrals n=3,5,7 exact (worst case {worst:.1f}s < 30s)")


def test_criterion_2_transformed_lagrangians():
    worst = 0.0
    for n in (2, 4, 6):
        t0 = time.perf_counter()
        lag = transformed_lagrangian(n, CTX)
        residual = CTX.reduce(lag.density - reference_transformed_lagrangian(n).density)
        elapsed = time.perf_counter() - t0
        worst = max(worst, elapsed)
        assert residual == 0, f"n={n} residual {residual}"
        assert elapsed < 60, f"n={n} took {elapsed:.1f}s"
    _report(2, True, f"transformed Lagrangians n=2,4,6 exact (worst case {worst:.1f}s < 60s)")


def test_criterion_3_nonlinear_example_end_to_end():
    t0 = time.perf_counter()
    sigma = example_map()

    eq = transform_equation(DiffEq(JET[4], 4), sigma)
    from odesym.casebook import example_equation_display

    displayed = example_equation_display()
    ratio = canon(eq.delta / displayed)
    assert zero_test(sp.diff(ratio, JET[4])) and not zero_test(ratio), "equation multiple"
    assert canon(eq.delta - ratio * displayed) == 0

    flat = SourceContext.zero_q()
    expected = example_generators_expected()
    for name, vf in generators(4).specialize(flat).by_name().items():
        if name == "Wy":
            continue
        image = pushforward(vf, sigma)
        assert canon(image.xi - expected[name].xi) == 0, name
        assert canon(image.psi - expected[name].psi) == 0, name

    lag = transform_lagrangian(canonical_lagrangian(4), sigma)
    lag_ratio = canon(lag.density / example_lagrangian_expected())
    assert lag_ratio.is_number and lag_ratio != 0, "Lagrangian multiple"

    for j, component in enumerate(example_first_integral_components()):
        mu = verify_first_integral(component, eq)
        remainder = canon(total_derivative(component) - mu * eq.monic().delta)
        assert remainder == 0, f"integral a{j}"

    det = independence_determinant(example_first_integral_components())
    assert abs(det) > 1e-6, "independence"

    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    _report(
        3,
        True,
        f"nonlinear example: equation, 7 generators, Lagrangian (x{lag_ratio}), "
        f"4 first integrals, independence det {det:.3g} ({elapsed:.1f}s < 120s)",
    )


def test_criterion_4_membership_tables_order_four():
    gens = generators(4).by_name()
    L4 = transformed_lagrangian(4, CTX)
    eq = build_lode(4, CTX)
    var_expected = {"V0", "V1", "F4", "G4"}
    div_expected = {"V0", "V1", "V2", "V3", "F4", "G4", "H4"}
    for name, vf in gens.items():
        verdict = variational_check(vf, L4, CTX)
        assert verdict.holds == (name in var_expected), f"variational {name}"
        if not verdict.holds:
            witness = numeric_witness(verdict.witness, points=20, tol=WITNESS_TOL)
            assert witness is not None, f"uncertified variational negative {name}"
        verdict = divergence_check(vf, eq, CTX)
        assert verdict.holds == (name in div_expected), f"divergence {name}"
        if not verdict.holds:
            witness = numeric_witness(verdict.witness, points=20, tol=WITNESS_TOL)
            assert witness is not None, f"uncertified divergence negative {name}"
    _report(4, True, "order-4 variational and divergence membership tables exact, negatives certified")


def test_criterion_5_natural_lagrangian_theorems():
    sym_L4 = natural_lagrangian(4, CTX)
    gens = generators(4)
    # symbolic q: nonzero for every solution symmetry
    for k in range(4):
        verdict = variational_check(gens.solution[k], sym_L4, CTX)
        assert not verdict.holds, f"symbolic q V{k}"
        assert numeric_witness(verdict.witness, points=20, tol=WITNESS_TOL) is not None
    # q = 0, u = 1: exact vanishing for k in {0, 1} only
    flat = SourceContext.zero_q()
    flat_L4 = natural_lagrangian(4, flat)
    for k, vf in enumerate(generators(4).specialize(flat).solution):
        verdict = variational_check(vf, flat_L4, flat)
        assert verdict.holds == (k <= 1), f"flat q V{k}"
    # first-order coefficient identity
    u, u1, v, v1 = SOL_U[0], SOL_U[1], SOL_V[0], SOL_V[1]
    for k in range(4):
        s = CTX.reduce(invariance_expression(gens.solution[k], sym_L4, CTX))
        b0 = (k - 3) * v * u1 - k * u * v1
        target = CTX.reduce(10 * u ** (2 - k) * v ** (k - 1) * COEF_Q[0] * b0)
        assert canon(sp.diff(s, JET[1]) - target) == 0, f"coefficient identity k={k}"
    # concrete families drive S to exact zero
    for tag, family, vf_name in (
        ("radical-log", lambda: family_radical_log(+1), "F4"),
        ("radical-log-swapped", lambda: family_radical_log(-1), "H4"),
        ("exponential", family_exponential, "G4"),
        ("power", family_power, "G4"),
    ):
        _, _, ctx = family()
        lag = Lagrangian(ctx.reduce(sym_L4.density), 2)
        vf = generators(4).specialize(ctx).by_name()[vf_name]
        verdict = variational_check(vf, lag, ctx)
        assert verdict.holds, f"family {tag}: S({vf_name}) = {verdict.witness}"
    _report(5, True, "natural-Lagrangian theorems: vanishing table, coefficient identity, all families exact")


def test_criterion_6_property_suites():
    rng = random.Random(2025)
    atoms = [X, JET[0], JET[1], JET[2], JET[3], COEF_Q[0], COEF_Q[1]]

    def rand_poly(max_factors=3, terms=3):
        e = sp.Integer(0)
        for _ in range(terms):
            t = sp.Rational(rng.randint(-4, 4))
            for _ in range(rng.randint(1, max_factors)):
                t *= rng.choice(atoms)
            e += t
        return e

    for _ in range(200):
        assert euler(total_derivative(rand_poly())) == 0

    for _ in range(100):
        delta, qc = rand_poly(terms=2), rand_poly(terms=2)
        lhs = euler(sp.expand(qc * delta))
        rhs = frechet_adjoint(delta, qc) + frechet_adjoint(qc, delta)
        assert canon(lhs - rhs) == 0

    for _ in range(200):
        F = rand_poly()
        recovered = inverse_total_derivative(total_derivative(F), check_exact=False)
        assert total_derivative(recovered - F) == 0

    base = DiffEq(JET[3], 3)
    fields = [VectorField(0, 1), VectorField(0, X), VectorField(0, X**2), VectorField(0, JET[0])]
    for _ in range(10):
        c = sp.Rational(rng.randint(1, 3), rng.randint(1, 3))
        sigma = PointTransformation(
            X + c * X**2, sp.Rational(rng.randint(1, 4)) * JET[0] + rng.randint(0, 3) * X**2
        )
        coeffs = [sp.Rational(rng.randint(-2, 2)) for _ in fields]
        if all(cf == 0 for cf in coeffs):
            coeffs[-1] = sp.Integer(1)
        v = VectorField(0, sum(cf * f.psi for cf, f in zip(coeffs, fields)))
        assert divergence_check(v, base).holds
        assert divergence_check(pushforward(v, sigma), transform_equation_covariant(base, sigma)).holds
    _report(6, True, "property suites exact: 200 Euler/D, 100 adjoint identity, 200 round trips, 10 preservation pairs")


def test_criterion_7_numeric_redundancy():
    wy = generators(3).homogeneity
    drifts = []
    cases = (
        (3, (1.0, 0.0, 1.0)),
        (5, (1.0, 0.2, -0.3, 0.1, 0.5)),
        (7, (1.0, 0.2, -0.3, 0.1, 0.5, -0.2, 0.3)),
    )
    for n, ic in cases:
        F = first_integral(wy, build_lode(n, CTX), CTX)
        drifts.append(numeric_validate(F, q_expr=1, ic=ic, span=2, steps=2000))

    sigma = example_map()
    eq = transform_equation(DiffEq(JET[4], 4), sigma)
    from odesym.exprcore import PARAMS

    for component in example_first_integral_components():
        bound = component.subs(PARAMS["k2"], sp.Rational(3, 2))
        drifts.append(
            numeric_validate(bound, ic=(1.0, 0.1, -0.05, 0.02), span=2, steps=2000, equation=eq)
        )
    assert all(d < 1e-6 for d in drifts), drifts

    F3 = first_integral(wy, build_lode(3, CTX), CTX)
    corrupted = F3.expr + sp.Rational(2, 100) * COEF_Q[0] * JET[0] ** 2
    bad = numeric_validate(
        corrupted, q_expr=1, ic=(1.0, 0.0, 1.0), span=2, steps=2000, equation=F3.equation
    )
    assert bad > 1e-3, bad
    _report(
        7,
        True,
        f"numeric redundancy: max drift {max(drifts):.2e} < 1e-6, corrupted detector {bad:.2e} > 1e-3",
    )


def test_all_cases_reproduce(case_report):
    # the casebook is the acceptance substrate; every case must verify
    for cid in ("C1", "C2", "C3", "C4", "C5", "C6", "C7"):
        report = case_report(cid)
        failures = [c.claim_id for c in report.claims if c.status != "verified"]
        assert not failures, (cid, failures)
