import hashlib
import itertools
import json
import pathlib
import random

import pytest
import sympy as sp

from odesym.exprcore import COEF_Q, JET, PARAMS, SOL_U, SOL_V, X, UnsupportedForm, canon, zero_test
from odesym.jetcalc import DiffEq, Lagrangian, VectorField, characteristic, total_derivative
from odesym.casebook import example_map, family_exponential, family_power, family_radical_log
from odesym.maxsym import (
    SourceContext,
    build_lode,
    commutator,
    generators,
    natural_lagrangian,
    source_transformation,
    specialize_q,
    transformed_lagrangian,
)
from odesym.noether import NotADivergenceSymmetry, divergence_check, first_integral
from odesym.transform import (
    MissingInverse,
    PointTransformation,
    SingularMap,
    compose,
    identity_map,
    jet_substitution,
    pushforward,
    transform_equation,
    transform_equation_covariant,
    transform_first_integral,
    transform_lagrangian,
)

y, y1, y2, y3, y4 = JET[:5]
u, u1 = SOL_U[0], SOL_U[1]
q = COEF_Q[0]
k1, k2 = PARAMS["k1"], PARAMS["k2"]

CTX = SourceContext.make_symbolic()
LOG_MAP = PointTransformation(X, k2 - sp.log(y))


def test_singular_map_rejected():
    with pytest.raises(SingularMap):
        PointTransformation(X, X**2)  # phi_y == 0, zeta_y == 0
    with pytest.raises(SingularMap):
        PointTransformation(PARAMS["k1"], y)  # zeta_x == zeta_y == 0, so D_x zeta == 0


def test_identity_jet_substitution():
    images = jet_substitution(identity_map(), 3)
    for k in range(4):
        assert images[JET[k]] == JET[k]
    assert images[X] == X


@pytest.mark.parametrize("sigma, order", [
    (LOG_MAP, 6),
    *((source_transformation(n, CTX), n) for n in range(2, 9)),
    (PointTransformation(X + y, y), 4),
], ids=["log", *(f"source-{n}" for n in range(2, 9)), "x+y"])
def test_jet_images_match_stepwise_quotients(sigma, order):
    images = jet_substitution(sigma, order)
    dz = sigma.zeta_x + sigma.zeta_y() * y1
    current = sigma.phi
    assert images[X] == sigma.zeta and images[y] == current
    for k in range(1, order + 1):
        current = canon(total_derivative(current, rates=sigma.rates) / dz)
        assert canon(images[JET[k]]) == current


def test_log_map_first_jet():
    images = jet_substitution(LOG_MAP, 1)
    assert canon(images[JET[1]] + y1 / y) == 0


def test_source_map_first_jet():
    sigma = source_transformation(3, CTX)
    images = jet_substitution(sigma, 1)
    expected = CTX.reduce(u**2 * total_derivative(u**-2 * y))
    assert canon(CTX.reduce(images[JET[1]]) - expected) == 0


def test_transform_equation_source_order_two():
    sigma = source_transformation(2, CTX)
    eq = transform_equation(DiffEq(y2, 2), sigma)
    assert canon(CTX.reduce(eq.delta - build_lode(2, CTX).delta)) == 0


def test_transform_equation_log_map():
    eq = transform_equation(DiffEq(y4, 4), LOG_MAP)
    displayed = (6 * y1**4 - 12 * y * y1**2 * y2 + 3 * y**2 * y2**2 + 4 * y**2 * y1 * y3 - y**3 * y4) / y**4
    monic = canon(displayed / sp.diff(sp.together(displayed), y4))
    assert canon(eq.delta - monic) == 0


def test_transform_equation_identity():
    delta = y3 + 4 * q * y1
    eq = transform_equation(DiffEq(delta, 3), identity_map())
    assert canon(eq.delta - delta) == 0


def test_pushforward_examples():
    out = pushforward(VectorField(1, 0), LOG_MAP)
    assert out.xi == 1 and out.psi == 0

    out = pushforward(VectorField(0, 1), LOG_MAP)
    assert canon(out.xi) == 0 and canon(out.psi + y) == 0

    # -z^2 d/dz - 3 z w d/dw maps to -x^2 d/dx + 3 x y (k2 - ln y) d/dy
    out = pushforward(VectorField(-(X**2), -3 * X * y), LOG_MAP)
    assert canon(out.xi + X**2) == 0
    assert canon(out.psi - 3 * X * y * (k2 - sp.log(y))) == 0


def test_pushforward_requires_fiber_preserving():
    mixed = PointTransformation(X + y, y)
    with pytest.raises(MissingInverse):
        pushforward(VectorField(1, 0), mixed)


def test_transform_lagrangian_source_order_two():
    sigma = source_transformation(2, CTX)
    lag = transform_lagrangian(Lagrangian(-(y1**2) / 2, 1), sigma)
    i = u1 / u
    expected = -i**2 * y**2 / 2 + i * y * y1 - y1**2 / 2
    assert zero_test(CTX.reduce(lag.density - expected))


def test_transform_lagrangian_log_map_constant_multiple():
    lag = transform_lagrangian(Lagrangian(y2**2 / 2, 2), LOG_MAP)
    expected = -((y1**2 - y * y2) ** 2) / (2 * y**4)
    ratio = canon(lag.density / expected)
    assert ratio.is_number and ratio != 0


def test_transform_lagrangian_identity():
    density = q * y**2 / 2 - y1**2 / 2
    lag = transform_lagrangian(Lagrangian(density, 1), identity_map())
    assert canon(lag.density - density) == 0


def test_transform_first_integral_examples():
    out = transform_first_integral(y3, LOG_MAP)
    assert canon(out + (2 * y1**3 - 3 * y * y1 * y2 + y**2 * y3) / y**3) == 0

    assert transform_first_integral(y1, identity_map()) == y1

    sigma = source_transformation(2, CTX)
    out = transform_first_integral(y1, sigma)
    expected = CTX.reduce(u**2 * total_derivative(y / u))
    assert canon(CTX.reduce(out) - expected) == 0


def test_functoriality_random_compositions():
    rng = random.Random(31)
    F = y * y1**2 + X * y2
    for _ in range(6):
        a, b, c = (sp.Rational(rng.randint(1, 4)) for _ in range(3))
        s1 = PointTransformation(a * X, b * y + c * X**2)
        s2 = PointTransformation(X + rng.randint(1, 3), y + rng.randint(1, 3) * X)
        combined = compose(s2, s1)
        via_combined = transform_first_integral(F, combined)
        via_steps = transform_first_integral(transform_first_integral(F, s2), s1)
        assert canon(via_combined - via_steps) == 0


def test_divergence_symmetry_preserved_under_log_map():
    # w d/dw is a divergence symmetry of w''' = 0; its push-forward must be
    # one for the transformed equation (covariant representative)
    v = VectorField(0, y)
    assert divergence_check(v, DiffEq(y3, 3)).holds
    eq_t = transform_equation_covariant(DiffEq(y3, 3), LOG_MAP)
    v_t = pushforward(v, LOG_MAP)
    assert divergence_check(v_t, eq_t).holds


def test_divergence_preservation_random_pairs():
    # ten random fiber-preserving maps against random divergence symmetries
    # of the trivial order-3 equation
    rng = random.Random(77)
    base = DiffEq(y3, 3)
    fields = [VectorField(0, 1), VectorField(0, X), VectorField(0, X**2), VectorField(0, y)]
    for _ in range(10):
        c = sp.Rational(rng.randint(1, 3), rng.randint(1, 3))
        d1 = sp.Rational(rng.randint(1, 4))
        d2 = sp.Rational(rng.randint(0, 3))
        sigma = PointTransformation(X + c * X**2, d1 * y + d2 * X**2)
        coeffs = [sp.Rational(rng.randint(-2, 2)) for _ in fields]
        if all(cf == 0 for cf in coeffs):
            coeffs[0] = sp.Integer(1)
        v = VectorField(0, sum(cf * f.psi for cf, f in zip(coeffs, fields)))
        assert divergence_check(v, base).holds
        eq_t = transform_equation_covariant(base, sigma)
        v_t = pushforward(v, sigma)
        verdict = divergence_check(v_t, eq_t)
        assert verdict.holds, (sigma, v, verdict.witness)


def test_solution_correspondence():
    # F = w'' is a first integral of w''' = 0; the x-derivative of its image
    # must be a differential-function multiple of the transformed equation
    eq_t = transform_equation(DiffEq(y3, 3), LOG_MAP)
    F_t = transform_first_integral(y2, LOG_MAP)
    dF = total_derivative(F_t)
    mu = sp.cancel(sp.diff(sp.together(dF), y3))
    assert zero_test(canon(dF - mu * eq_t.delta))


# --- pins against the tree path: xreplace of jet_substitution, then canon ---

XY_MAP = PointTransformation(X + y, y)
# sqrt(y1) maps to the root of an uncancelled pair: a radical-reduced argument would hold y^(3/2)
RADICAL_MAP = PointTransformation(X, X * sp.sqrt(y))


def _substituted_by_tree(e, sigma):
    e = sp.sympify(e)
    return e.xreplace(jet_substitution(sigma, max(0, *(k for k, s in enumerate(JET) if s in e.free_symbols))))


def _equation_by_tree(eq, sigma):
    delta = _substituted_by_tree(eq.delta, sigma)
    lead = canon(sp.diff(delta, JET[eq.order]))
    return sp.expand(canon(delta / lead))


EQUATIONS = {
    "log-y4": (LOG_MAP, DiffEq(y4, 4)),
    "log-mixed": (LOG_MAP, DiffEq(y3 + X * y1 + y**2, 3)),
    "x+y": (XY_MAP, DiffEq(y3 + y1, 3)),
    "x+y-node": (XY_MAP, DiffEq(y2 + sp.log(y1) * y, 2)),
    "radical": (RADICAL_MAP, DiffEq(y2 + sp.sqrt(y1) * y, 2)),
    **{f"source-{n}": (source_transformation(n, CTX), DiffEq(JET[n], n)) for n in (2, 3, 5)},
}


@pytest.mark.parametrize("sigma, eq", EQUATIONS.values(), ids=EQUATIONS.keys())
def test_transform_equation_matches_tree_reference(sigma, eq):
    assert sp.srepr(transform_equation(eq, sigma).delta) == sp.srepr(_equation_by_tree(eq, sigma))
    weight = sigma.zeta_x * sigma.phi_y()
    covariant = canon(_substituted_by_tree(eq.delta, sigma) * weight)
    assert sp.srepr(transform_equation_covariant(eq, sigma).delta) == sp.srepr(covariant)


LAGRANGIANS = {
    **{
        f"source-{n}": (source_transformation(n, CTX), Lagrangian(JET[n // 2] ** 2 / 2, n // 2))
        for n in range(2, 9)
    },
    "log": (LOG_MAP, Lagrangian(y2**2 / 2, 2)),
    "x+y-ln": (XY_MAP, Lagrangian(sp.log(y1), 1)),
    "x+y-mixed": (XY_MAP, Lagrangian(sp.log(y1) * y + X * y1**2, 1)),
    "radical": (RADICAL_MAP, Lagrangian(sp.sqrt(y1), 1)),
    "radical-mixed": (RADICAL_MAP, Lagrangian(sp.sqrt(y1) * y + X * y1**2, 1)),
}


@pytest.mark.parametrize("sigma, L", LAGRANGIANS.values(), ids=LAGRANGIANS.keys())
def test_transform_lagrangian_matches_tree_reference(sigma, L):
    dz = sigma.zeta_x + sigma.zeta_y() * y1
    reference = canon(_substituted_by_tree(L.density, sigma) * dz)
    assert sp.srepr(transform_lagrangian(L, sigma).density) == sp.srepr(reference)


def test_radical_map_refuses_ln_y1_as_the_tree_path_does():
    # y1 -> sqrt(y) + x y1 / (2 sqrt(y)) puts a radical inside the ln node
    for F in (sp.log(y1), sp.sqrt(y1) * sp.log(y1)):
        with pytest.raises(UnsupportedForm):
            canon(_substituted_by_tree(F, RADICAL_MAP))
        with pytest.raises(UnsupportedForm):
            transform_lagrangian(Lagrangian(F, 1), RADICAL_MAP)
        with pytest.raises(UnsupportedForm):
            transform_first_integral(F, RADICAL_MAP)


def test_pushforward_of_c6_generators_matches_tree_reference():
    sigma = example_map()
    base = sigma.base_substitution()
    for name, v in generators(4).specialize(SourceContext.zero_q()).by_name().items():
        xi = canon(v.xi.xreplace(base) / sigma.zeta_x)
        psi = canon((v.psi.xreplace(base) - xi * sigma.phi_x()) / sigma.phi_y())
        out = pushforward(v, sigma)
        assert sp.srepr((out.xi, out.psi)) == sp.srepr((xi, psi)), name


INTEGRALS = (y3, y * y1**2 + X * y2, y2 / y1 + sp.exp(X) * y, sp.exp(y1) * y)


INTEGRAL_MAPS = {
    "log": (LOG_MAP, INTEGRALS),
    "x+y": (XY_MAP, INTEGRALS),
    "source-3": (source_transformation(3, CTX), INTEGRALS),
    "radical": (RADICAL_MAP, (sp.sqrt(y1), y * sp.sqrt(y1) + X * y1**2, 1 / sp.sqrt(y1))),
}


@pytest.mark.parametrize("sigma, integrals", INTEGRAL_MAPS.values(), ids=INTEGRAL_MAPS.keys())
def test_transform_first_integral_matches_tree_reference(sigma, integrals):
    for F in integrals:
        reference = canon(_substituted_by_tree(F, sigma))
        assert sp.srepr(transform_first_integral(F, sigma)) == sp.srepr(reference), F


# exp(x^2 + 1) prints as E*exp(x^2): the constant E is a generator too
OUTER_MAPS = (XY_MAP, PointTransformation(X**2 + 1, sp.exp(X) * y), PointTransformation(2 * X, y + X**2))


def test_compose_matches_tree_reference():
    for outer in OUTER_MAPS:
        for inner in (LOG_MAP, *OUTER_MAPS):
            combined = compose(outer, inner)
            subs = inner.base_substitution()
            for got, c in ((combined.zeta, outer.zeta), (combined.phi, outer.phi)):
                assert sp.srepr(got) == sp.srepr(canon(c.xreplace(subs)))


# --- pins of the printed objects: a sha256 of each srepr ---

OBJECT_PRINTS = pathlib.Path(__file__).parent / "data" / "objects_srepr.json"


def _equation_prints(name, eq) -> dict:
    return {f"{name}.delta": eq.delta, f"{name}.leading": eq.leading, f"{name}.rhs": eq.solved_rhs()}


def _object_prints() -> dict:
    """The digest of each pinned print by name: Delta_n and the Lagrangians
    (symbolic and at q = 0), and the outputs of the tree-reference corpus."""
    out, zero_q = {}, SourceContext.zero_q()
    for n in range(2, 15):
        out.update(_equation_prints(f"Delta{n}", build_lode(n)))
    for n in range(2, 15, 2):
        out[f"L{n}.transformed"] = transformed_lagrangian(n).density
        out[f"L{n}.natural"] = natural_lagrangian(n).density
    for n in range(2, 7):
        out.update(_equation_prints(f"Delta{n}.zero-q", build_lode(n, zero_q)))
    for n in (2, 4, 6):
        out[f"L{n}.transformed.zero-q"] = transformed_lagrangian(n, zero_q).density
        out[f"L{n}.natural.zero-q"] = natural_lagrangian(n, zero_q).density
    for name, (sigma, eq) in EQUATIONS.items():
        for kind, image in (("monic", transform_equation(eq, sigma)),
                            ("covariant", transform_equation_covariant(eq, sigma))):
            out.update(_equation_prints(f"{kind}.{name}", image))
            out[f"{kind}.{name}.monic"] = image.monic().delta
    for name, (sigma, L) in LAGRANGIANS.items():
        out[f"lagrangian.{name}"] = transform_lagrangian(L, sigma).density
    for name, v in generators(4).specialize(zero_q).by_name().items():
        image = pushforward(v, example_map())
        out[f"pushforward.{name}.xi"], out[f"pushforward.{name}.psi"] = image.xi, image.psi
    for name, (sigma, integrals) in INTEGRAL_MAPS.items():
        for k, F in enumerate(integrals):
            out[f"integral.{name}.{k}"] = transform_first_integral(F, sigma)
    for i, outer in enumerate(OUTER_MAPS):
        for j, inner in enumerate((LOG_MAP, *OUTER_MAPS)):
            combined = compose(outer, inner)
            out[f"compose.{i}.{j}.zeta"], out[f"compose.{i}.{j}.phi"] = combined.zeta, combined.phi
    out.update(_vector_field_prints())
    out.update(_first_integral_prints())
    out.update(_map_prints())
    return {name: hashlib.sha256(sp.srepr(e).encode()).hexdigest() for name, e in out.items()}


def _sigma_prints(name, sigma) -> dict:
    return {
        f"{name}.zeta": sigma.zeta, f"{name}.phi": sigma.phi, f"{name}.zeta_x": sigma.zeta_x,
        f"{name}.zeta_y": sigma.zeta_y(), f"{name}.phi_x": sigma.phi_x(), f"{name}.phi_y": sigma.phi_y(),
    }


# the concrete contexts whose q and Wronskian are pinned: a flat pair with Wronskian 3
SOURCE_CONTEXTS = {
    "zero-q": lambda: SourceContext.zero_q(),
    "cube": lambda: SourceContext.from_solutions(X**3, -(X**-2) / 5),
    "flat": lambda: SourceContext.from_solutions(2 * X + 1, 3 * X),
    "radical-log+": lambda: family_radical_log(+1)[2],
    "radical-log-": lambda: family_radical_log(-1)[2],
    "exponential": lambda: family_exponential()[2],
    "power": lambda: family_power()[2],
}


def test_source_contexts_print_no_pair(forbid_pair_prints, monkeypatch):
    # building each context, specialising the generators to it, and the
    # natural Lagrangian, Delta_n and the source transformation under it,
    # all on pairs; the maps' prints are read once the guard is lifted
    forbid_pair_prints()
    built = {}
    for tag, make in SOURCE_CONTEXTS.items():
        ctx = make()
        generators(4).specialize(ctx)
        natural_lagrangian(4, ctx)
        for n in (4, 5):
            build_lode(n, ctx)
            built[tag, n] = ctx, source_transformation(n, ctx)
    monkeypatch.undo()
    for (tag, n), (ctx, sigma) in built.items():
        assert canon(sigma.zeta - ctx.v / (ctx.wronskian * ctx.u)) == 0 == canon(sigma.phi - ctx.u ** (1 - n) * y), tag


def _map_prints() -> dict:
    """The prints of point transformations: the maps of this file, their
    compositions, the source transformation symbolic for n = 2..14 and at
    q = 0 for n = 2..6, and the q and Wronskian of concrete contexts."""
    maps = {
        "log": LOG_MAP, "x+y": XY_MAP, "radical": RADICAL_MAP, "root": ROOT_MAP,
        "identity": identity_map(), "example": example_map(),
        **{f"outer{i}": outer for i, outer in enumerate(OUTER_MAPS)},
        **{f"compose.{i}.{j}": compose(outer, inner)
           for i, outer in enumerate(OUTER_MAPS) for j, inner in enumerate((LOG_MAP, *OUTER_MAPS))},
        **{f"source{n}": source_transformation(n) for n in range(2, 15)},
        **{f"source{n}.zero-q": source_transformation(n, SourceContext.zero_q()) for n in range(2, 7)},
    }
    out = {}
    for name, sigma in maps.items():
        out.update(_sigma_prints(f"map.{name}", sigma))
    for tag, make in SOURCE_CONTEXTS.items():
        ctx = make()
        out[f"context.{tag}.q"], out[f"context.{tag}.wronskian"] = ctx.q, ctx.wronskian
    return out


# z = x^2 + 1, w = sqrt(y)/x: a fiber-preserving map whose push-forwards hold a radical
ROOT_MAP = PointTransformation(X**2 + 1, sp.sqrt(y) / X)


def _field_prints(name, v) -> dict:
    return {f"{name}.xi": v.xi, f"{name}.psi": v.psi}


def _vector_field_prints() -> dict:
    """The prints of the vector fields: the generators and their multiples
    with their characteristics, the generators specialised to a concrete
    pair, push-forwards, brackets and the characteristics of first
    integrals."""
    out = {}
    for n in range(2, 15):
        for name, v in generators(n).by_name().items():
            for tag, w in (("", v), (".7/3", sp.Rational(7, 3) * v)):
                out.update(_field_prints(f"field{n}.{name}{tag}", w))
                out[f"field{n}.{name}{tag}.characteristic"] = characteristic(w)
    contexts = {
        "zero-q": SourceContext.zero_q(),
        "radical-log+": family_radical_log(+1)[2],
        "radical-log-": family_radical_log(-1)[2],
        "exponential": family_exponential()[2],
        "power": family_power()[2],
    }
    for tag, ctx in contexts.items():
        for name, v in generators(4).specialize(ctx).by_name().items():
            out.update(_field_prints(f"specialize.{tag}.{name}", v))
    flat = generators(4).specialize(contexts["zero-q"]).by_name()
    for tag, sigma in (("log", example_map()), ("root", ROOT_MAP)):
        for name, v in flat.items():
            for scale, w in (("", v), (".3/5", sp.Rational(3, 5) * v)):
                out.update(_field_prints(f"pushforward.{tag}.{name}{scale}", pushforward(w, sigma)))
    for n in (4, 8):
        for rates_tag, rates in (("bare", None), ("source", CTX.rates)):
            for (a, v), (b, w) in itertools.combinations(generators(n).by_name().items(), 2):
                out.update(_field_prints(f"bracket{n}.{rates_tag}.{a}.{b}", commutator(v, w, rates)))
    for n in (3, 4, 5, 6):
        fields = generators(n).by_name()
        for name in ("Wy", f"F{n}", f"G{n}", f"H{n}", "V0"):
            try:
                out[f"first-integral{n}.{name}.q"] = first_integral(fields[name], build_lode(n), CTX).q
            except NotADivergenceSymmetry:  # F, G and H at odd n
                continue
    return out


# the concrete coefficients of the peel corpus in test_jetcalc.py
CONCRETE_Q = (1, -2 / X**2, -6 / X**2, -12 / X**2, sp.exp(X), 1 / (X**2 + 1), sp.sqrt(X))


def _integral_prints(name, F) -> dict:
    return {f"{name}.expr": F.expr, f"{name}.q": F.q, f"{name}.witness": F.witness}


def _first_integral_prints() -> dict:
    """The prints of first integrals: every divergence symmetry of Delta_n
    (all generators but W_y at even n, the V_k and W_y at odd n) under the
    symbolic context for n = 3..10, and W_y of Delta_3, Delta_5 and
    Delta_7 at q = 0 and at each concrete q, as ``first-integral --q``
    builds the equation."""
    out, zero_q = {}, SourceContext.zero_q()
    for n in range(3, 11):
        gens = generators(n)
        for v in (*gens.solution, *(gens.special if n % 2 == 0 else [gens.homogeneity])):
            out.update(_integral_prints(f"integral{n}.{v.name}", first_integral(v, build_lode(n), CTX)))
    wy = generators(3).homogeneity
    for n in (3, 5, 7):
        out.update(_integral_prints(f"integral{n}.Wy.zero-q", first_integral(wy, build_lode(n, zero_q), zero_q)))
        for k, qx in enumerate(CONCRETE_Q):
            eq = DiffEq(specialize_q(build_lode(n).pair, qx), n)
            out.update(_integral_prints(f"integral{n}.Wy.q{k}", first_integral(wy, eq)))
    return out


def test_object_prints_match_pins():
    # the pins were written by the code that printed every object into a tree
    assert _object_prints() == json.loads(OBJECT_PRINTS.read_text())


if __name__ == "__main__":  # python tests/test_transform.py writes the pin file
    OBJECT_PRINTS.write_text(json.dumps(_object_prints(), indent=1, sort_keys=True) + "\n")
