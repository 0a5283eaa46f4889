"""The three workloads: seeded inputs turned into rounds of requests.

A request's ``run(state)`` is the timed part: it calls odesym and, for a
refutation, certifies it with a numeric witness.  A request whose program
output is text has a second timed step: ``prepare(output)`` parses it
outside the timer and ``finish`` certifies the result.  ``check(output)``
runs after the last request and compares the output with the answer key or
a reference identity.  ``verdict`` is the correct verdict of a claim, or
None for a request that builds an object and decides nothing.

Inputs are plain data drawn from ``random.Random`` seeded per round; the
program sees only the expressions built from them.  Every round of a
workload holds the same requests in the same order, so runs with different
seeds do the same amount of work and differ only in coefficients, shifts,
initial conditions and q choices.  The order is fixed because sympy's
caches make a request's cost depend on what ran before it.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import random
import re
from dataclasses import dataclass
from typing import Any, Callable

import sympy as sp

from odesym import casebook, cli, exprcore, grammar, jetcalc, maxsym, noether, transform
from odesym.exprcore import JET, PARAMS, X

from . import answer_key as key
from . import checks

VERIFIED, REFUTED = key.VERIFIED, key.REFUTED


@dataclass
class Request:
    name: str
    verdict: str | None
    run: Callable[[dict], Any]
    check: Callable[[Any], bool]
    prepare: Callable[[Any], Any] | None = None
    finish: Callable[[Any], Any] | None = None


def _coef(rng: random.Random) -> sp.Rational:
    return sp.Rational(rng.randint(1, 9), rng.randint(1, 9))


def _certify(residual) -> str:
    """Refutation outcome: counts only with a numeric witness."""
    return REFUTED if exprcore.numeric_witness(residual) is not None else "uncertified"


def _verdict(symmetry) -> str:
    return VERIFIED if symmetry.holds else _certify(symmetry.witness)


def _expect(verdict):
    return lambda out: out == verdict


# ---------------------------------------------------------------------------
# symbolic_tables

# Tables timed in every pass: odd and even divergence, and the variational
# table of the transformed Lagrangian at n = 6.  Divergence n = 5..8 and
# variational n = 8 cost 0.3-14 s per claim; the scaling series of the
# traced run measures them instead, so that one round fits a pass of about
# 10 s.
TIMED_TABLES = [("divergence", 3), ("divergence", 4), ("variational", 6)]


def _table_build(kind, n):
    def run(state):
        ctx = maxsym.SourceContext.make_symbolic()
        if kind == "divergence":
            obj = maxsym.build_lode(n, ctx)
        else:
            obj = maxsym.transformed_lagrangian(n, ctx)
        state[kind, n] = (ctx, obj, maxsym.generators(n).by_name())
        return obj

    def check(obj):
        if kind == "divergence":
            return checks.is_maximal_lode(checks.to_ring(obj.delta), n)
        return checks.lagrangian_matches(obj.density, n)

    return Request(f"build-{kind[:3]}-n{n}", None, run, check)


def _table_claim(kind, n, name, c, verdict):
    def run(state):
        ctx, obj, gens = state[kind, n]
        vf = c * gens[name]
        if kind == "divergence":
            return _verdict(noether.divergence_check(vf, obj, ctx))
        return _verdict(noether.variational_check(vf, obj, ctx))

    return Request(f"{kind[:3]}-n{n}-{name}", verdict, run, _expect(verdict))


def symbolic_tables(seed: int, rounds: int, answer=None) -> list[list[Request]]:
    """Membership claims c*g for every generator g of the timed tables.

    A nonzero multiple of a generator keeps its verdict, so each round
    checks fresh expressions against the same answer key.  Builds run once,
    in round 0.
    """
    answer = answer or key.symbolic_key(TIMED_TABLES)
    out = []
    for r in range(rounds):
        rng = random.Random(f"symbolic_tables:{seed}:{r}")
        builds = [_table_build(kind, n) for kind, n in TIMED_TABLES] if r == 0 else []
        claims = [
            _table_claim(kind, n, g, _coef(rng), answer[kind, n, g])
            for kind, n in TIMED_TABLES
            for g in key.generator_names(n)
        ]
        out.append(builds + claims)
    return out


# ---------------------------------------------------------------------------
# nonlinear_concrete

K2 = PARAMS["k2"]
FAMILIES = {
    "f4-radical-log": (lambda: casebook.family_radical_log(+1), "F4"),
    "h4-radical-log": (lambda: casebook.family_radical_log(-1), "H4"),
    "g4-exponential": (casebook.family_exponential, "G4"),
    "g4-power": (casebook.family_power, "G4"),
}


def _shift(e, b):
    return sp.sympify(e).xreplace({X: X + b})


def _generators_match(gens, u, v) -> bool:
    """Specialized generators equal the paper's closed forms at the pair (u, v)."""
    subs = {exprcore.SOL_U[0]: u, exprcore.SOL_U[1]: sp.diff(u, X),
            exprcore.SOL_V[0]: v, exprcore.SOL_V[1]: sp.diff(v, X)}
    return all(checks.same(gens[g].xi, sp.sympify(xi).xreplace(subs))
               and checks.same(gens[g].psi, sp.sympify(psi).xreplace(subs))
               for g, (xi, psi) in checks.generator_table(4).items())


def _nonlinear_round(r: int, rng: random.Random, components) -> list[Request]:
    y, y1, y2 = JET[:3]
    b = sp.Rational(rng.randint(1, 12), 4)  # shift z = x + b of the worked example
    cu, cv, dv = (_coef(rng) for _ in range(3))  # flat pair u = cu, v = cv*x + dv

    # -- stage A: shared objects of this round ---------------------------
    def flat_context(state):
        ctx = maxsym.SourceContext.from_solutions(cu, cv * X + dv)
        lag = maxsym.natural_lagrangian(4, ctx)
        gens = maxsym.generators(4).specialize(ctx).by_name()
        state[r, "flat"] = (ctx, lag, gens)
        return lag, gens

    def flat_check(out):
        lag, gens = out
        return checks.same(lag.density, y2**2 / 2) and _generators_match(gens, cu, cv * X + dv)

    def example_equation(state):
        sigma = transform.PointTransformation(X + b, K2 - sp.log(y))
        eq = transform.transform_equation(jetcalc.DiffEq(JET[4], 4), sigma)
        state[r, "eq"] = (sigma, eq)
        return eq

    def equation_check(eq):
        shown = sp.together(casebook.example_equation_display())
        return checks.same(eq.delta, shown / sp.diff(shown, JET[4]))

    def example_generators(state):
        flat = maxsym.SourceContext.zero_q()
        state[r, "gens0"] = maxsym.generators(4).specialize(flat).by_name()
        return state[r, "gens0"]

    stage_a = [
        Request("flat-context", None, flat_context, flat_check),
        Request("example-equation", None, example_equation, equation_check),
        Request("example-generators", None, example_generators,
                lambda gens: _generators_match(gens, sp.Integer(1), X)),
    ]

    # -- stage B: claims on the shared objects -----------------------------
    stage_b = []
    for k in range(4):
        name, c = f"V{k}", _coef(rng)

        def flat_claim(state, name=name, c=c):
            ctx, lag, gens = state[r, "flat"]
            return _verdict(noether.variational_check(c * gens[name], lag, ctx))

        verdict = key.FLAT_NATURAL[name]
        stage_b.append(Request(f"flat-natural-{name}", verdict, flat_claim, _expect(verdict)))

    for tag, (family, gname) in FAMILIES.items():
        cl, cv = _coef(rng), _coef(rng)

        def family_claim(state, family=family, gname=gname, cl=cl, cv=cv):
            _, _, ctx = family()
            lag = maxsym.natural_lagrangian(4, ctx)
            lag = jetcalc.Lagrangian(cl * lag.density, lag.order)
            vf = cv * maxsym.generators(4).specialize(ctx).by_name()[gname]
            return _verdict(noether.variational_check(vf, lag, ctx))

        verdict = key.FAMILIES[tag]
        stage_b.append(Request(f"family-{tag}", verdict, family_claim, _expect(verdict)))

    expected = casebook.example_generators_expected()
    for name in key.EXAMPLE_LIE:
        c = _coef(rng)

        def push(state, name=name, c=c):
            sigma, _ = state[r, "eq"]
            image = transform.pushforward(c * state[r, "gens0"][name], sigma)
            state[r, "push", name] = image
            return image

        def push_check(image, name=name, c=c):
            want = expected[name]
            return (checks.same(image.xi, c * _shift(want.xi, b))
                    and checks.same(image.psi, c * _shift(want.psi, b)))

        stage_b.append(Request(f"pushforward-{name}", None, push, push_check))

    def example_lagrangian(state):
        sigma, _ = state[r, "eq"]
        return transform.transform_lagrangian(maxsym.canonical_lagrangian(4), sigma)

    def lagrangian_check(lag):
        ratio = sp.cancel(lag.density / casebook.example_lagrangian_expected())
        return ratio.is_number and ratio != 0

    stage_b.append(Request("example-lagrangian", None, example_lagrangian, lagrangian_check))

    for j, component in enumerate(components):
        c = _coef(rng)

        def integral(state, component=component, c=c):
            _, eq = state[r, "eq"]
            try:
                noether.verify_first_integral(c * _shift(component, b), eq)
            except noether.NotFirstIntegral as err:
                return _certify(err.witness)
            return VERIFIED

        stage_b.append(Request(f"example-integral-a{j}", VERIFIED, integral, _expect(VERIFIED)))

    # numeric cross-check along RK4 trajectories
    q_value = sp.Rational(rng.randint(1, 4), 2)
    ic3 = (rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.8), rng.uniform(-1.0, 1.0))
    ic4 = (1.0 + rng.uniform(-0.1, 0.1), rng.uniform(0.05, 0.15),
           rng.uniform(-0.08, -0.02), rng.uniform(0.0, 0.04))
    k2 = sp.Rational(rng.randint(4, 8), 4)
    j = rng.randrange(len(components))

    def drift_outcome(drift) -> str:
        if drift < key.DRIFT_GENUINE_MAX:
            return VERIFIED
        return REFUTED if drift > key.DRIFT_CORRUPTED_MIN else "undecided"

    def homogeneity_drift(state):
        F = maxsym.reference_first_integral_homogeneity(3)
        eq = maxsym.build_lode(3)
        return drift_outcome(casebook.numeric_validate(F, q_expr=q_value, ic=ic3, equation=eq))

    def corrupted_drift(state):
        F = maxsym.reference_first_integral_homogeneity(3)
        F += sp.Rational(2, 100) * exprcore.COEF_Q[0] * JET[0] ** 2
        eq = maxsym.build_lode(3)
        return drift_outcome(casebook.numeric_validate(F, q_expr=q_value, ic=ic3, equation=eq))

    def component_drift(state):
        _, eq = state[r, "eq"]
        F = _shift(components[j], b).xreplace({K2: k2})
        return drift_outcome(casebook.numeric_validate(F, ic=ic4, equation=eq))

    for tag, fn in (("homogeneity-n3", homogeneity_drift), ("corrupted-n3", corrupted_drift),
                    ("example-component", component_drift)):
        stage_b.append(Request(f"drift-{tag}", key.DRIFT[tag], fn, _expect(key.DRIFT[tag])))

    # linearity of S across equivalent Lagrangians (C7 shapes, seeded)
    theta, cp = _coef(rng), _coef(rng)
    monomials = (y, y1, y2, X, y * y1, y1 * y2, X * y)
    poly = lambda: sum(sp.Integer(rng.randint(-4, 4)) * m for m in monomials)
    L_rand, P_rand = poly(), poly()
    vf_rand = (rng.randint(1, 3) * X, rng.randint(1, 3) * y + rng.randint(0, 2) * X)

    def linearity_scaling(state):
        v = jetcalc.VectorField(0, y)
        lag = jetcalc.Lagrangian(-(y1**2) / 2, 1)
        return _verdict(noether.divergence_relation_check(lag, cp * y**2, theta, v))

    def linearity_sl2(state):
        sym = maxsym.SourceContext.make_symbolic()
        L0 = maxsym.reference_transformed_lagrangian(2)
        f2 = maxsym.generators(2).by_name()["F2"]
        return _verdict(noether.divergence_relation_check(L0, cp * X * y * y1, theta, f2, sym))

    def linearity_random(state):
        sym = maxsym.SourceContext.make_symbolic()
        lag = jetcalc.Lagrangian(L_rand, 2)
        v = jetcalc.VectorField(*vf_rand)
        return _verdict(noether.divergence_relation_check(lag, P_rand, PARAMS["theta"], v, sym))

    for tag, fn in (("scaling", linearity_scaling), ("sl2", linearity_sl2),
                    ("random", linearity_random)):
        stage_b.append(Request(f"linearity-{tag}", VERIFIED, fn, _expect(VERIFIED)))

    # -- stage C: Lie checks of the push-forwards ----------------------------
    stage_c = []
    for name, verdict in key.EXAMPLE_LIE.items():
        def lie(state, name=name):
            _, eq = state[r, "eq"]
            return _verdict(noether.lie_symmetry_check(state[r, "push", name], eq))

        stage_c.append(Request(f"lie-{name}", verdict, lie, _expect(verdict)))

    for tag, verdict in key.EXAMPLE_LIE_FLIPPED.items():
        def lie_flipped(state, flip_xi=tag.endswith("xi-flip")):
            _, eq = state[r, "eq"]
            image = state[r, "push", "H4"]
            xi, psi = (-image.xi, image.psi) if flip_xi else (image.xi, -image.psi)
            return _verdict(noether.lie_symmetry_check(jetcalc.VectorField(xi, psi), eq))

        stage_c.append(Request(f"lie-{tag}", verdict, lie_flipped, _expect(verdict)))

    return stage_a + stage_b + stage_c


def nonlinear_concrete(seed: int, rounds: int) -> list[list[Request]]:
    components = casebook.example_first_integral_components()
    return [
        _nonlinear_round(r, random.Random(f"nonlinear_concrete:{seed}:{r}"), components)
        for r in range(rounds)
    ]


# ---------------------------------------------------------------------------
# constructions

README_DELTA4 = "y4 + 10*q*y2 + 10*q1*y1 + (3*q2 + 9*q^2)*y"
POWER_A = (2, 3, 4, 5)  # q = -a(a-1)/x^2, source pair x^a, x^(1-a)


def _cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _parse_output(text):
    return grammar.parse(text.strip())


def _object(name, argv, check, verdict=None) -> Request:
    """A CLI request that must succeed; ``first-integral`` also decides a
    claim, since it refuses a field that is no divergence symmetry."""

    def run(state):
        code, out, _ = _cli(argv)
        return code, out

    def checked(result):
        code, out = result
        return code == 0 and check(out)

    return Request(name, verdict, run, checked)


def _build_lode_check(n):
    def check(out):
        delta = _parse_output(out)
        if n == 4 and not checks.same(delta, grammar.parse(README_DELTA4)):
            return False
        return checks.is_maximal_lode(checks.to_ring(delta), n)

    return check


def _lagrangian_check(n, kind):
    def check(out):
        density = _parse_output(out)
        if kind == "canonical":
            return checks.same(density, checks.canonical_lagrangian(n))
        if kind == "transformed" and n <= 6:
            return checks.same(density, maxsym.reference_transformed_lagrangian(n).density)
        return checks.lagrangian_matches(density, n)

    return check


def _first_integral_check(n):
    def check(out):
        F = _parse_output(out)
        if n in (3, 5, 7) and not checks.same(F, maxsym.reference_first_integral_homogeneity(n)):
            return False
        return checks.first_integral_wy_matches(F, n)

    return check


def _generators_check(n):
    line = re.compile(r"^(\w+) = \((.*)\) d/dx \+ \((.*)\) d/dy$")

    def check(out):
        table = checks.generator_table(n)
        seen = {}
        for text in out.strip().splitlines():
            m = line.match(text)
            if not m:
                return False
            seen[m[1]] = (grammar.parse(m[2]), grammar.parse(m[3]))
        return seen.keys() == table.keys() and all(
            checks.same(seen[g][0], xi) and checks.same(seen[g][1], psi)
            for g, (xi, psi) in table.items()
        )

    return check


_MESSAGE = re.compile(r"E\(Q\*Delta\) = (.*) != 0")


def _field_text(name: str, n: int) -> str:
    """Grammar text of a generator's vector field "xi;psi"."""
    return {
        "Wy": "0;y",
        f"F{n}": f"u^2;{n - 1}*u*u1*y",
        f"G{n}": f"2*u*v;{n - 1}*(u*v1 + u1*v)*y",
        f"H{n}": f"-v^2;-{n - 1}*v*v1*y",
    }[name]


def _refused_first_integral(name: str, n: int, q: str | None = None) -> Request:
    """A field that is no divergence symmetry: the CLI must refuse, and the
    harness certifies the residual in its message with a numeric witness."""
    verdict = key.table_key("divergence", n)[name]
    argv = ["first-integral", f"--vf={_field_text(name, n)}", f"--n={n}"]
    argv += [f"--q={q}"] if q is not None else []

    def run(state):
        code, _, err = _cli(argv)
        return code, err

    def residual(result):
        code, err = result
        m = _MESSAGE.search(err)
        if code != 1 or not m:
            return None
        names = {t: exprcore.resolve_name(t) for t in re.findall(r"[A-Za-z_]\w*", m[1])}
        if None in names.values():
            return None
        return sp.parse_expr(m[1], local_dict=names)

    def certify(residual):
        return "undecided" if residual is None else _certify(residual)

    suffix = "" if q is None else "-q"
    return Request(f"first-integral-{name}-n{n}{suffix}", verdict, run, _expect(verdict),
                   prepare=residual, finish=certify)


def constructions(seed: int, rounds: int) -> list[list[Request]]:
    """CLI object requests.  Every round repeats the symbolic (command, n)
    pairs of the round before, as in a user session; concrete q values
    change from round to round."""
    offset = random.Random(f"constructions:{seed}").randrange(len(POWER_A))
    out = []
    for r in range(rounds):
        # The i-th concrete-q request of round r uses a = POWER_A[offset + i + r],
        # so it never repeats the q of the round before, and every seed draws
        # the same exponents, whose costs differ, in a rotated order.
        exponents = (POWER_A[(offset + i + r) % len(POWER_A)] for i in itertools.count())

        def power():
            a = next(exponents)
            return a, grammar.render(checks.power_q(a))

        reqs = []
        for n in range(3, 8):
            reqs.append(_object(f"build-lode-n{n}", ["build-lode", f"--n={n}"],
                                _build_lode_check(n)))
        for n in (4, 6, 8):
            a, q = power()
            reqs.append(_object(f"build-lode-n{n}-q", ["build-lode", f"--n={n}", f"--q={q}"],
                                lambda o, n=n, a=a: checks.power_lode_matches(_parse_output(o), n, a)))
        for kind, orders in (("natural", (2, 4, 6)), ("transformed", (2, 4, 6)),
                             ("canonical", (2, 4, 6, 8, 10))):
            for n in orders:
                reqs.append(_object(f"lagrangian-{kind}-n{n}",
                                    ["lagrangian", f"--n={n}", f"--kind={kind}"],
                                    _lagrangian_check(n, kind)))
        for n in (3, 5):
            reqs.append(_object(f"first-integral-Wy-n{n}",
                                ["first-integral", "--vf=0;y", f"--n={n}"],
                                _first_integral_check(n), VERIFIED))
        for n in (3, 5):
            a, q = power()
            reqs.append(_object(
                f"first-integral-Wy-n{n}-q", ["first-integral", "--vf=0;y", f"--n={n}", f"--q={q}"],
                lambda o, n=n, a=a: checks.power_first_integral_wy_matches(_parse_output(o), n, a),
                VERIFIED))
        for name, n in (("Wy", 4), ("Wy", 6), ("G3", 3)):
            reqs.append(_refused_first_integral(name, n))
        for n in (4, 6):
            reqs.append(_refused_first_integral("Wy", n, power()[1]))
        for n in range(3, 13):
            reqs.append(_object(f"generators-n{n}", ["generators", f"--n={n}"],
                                _generators_check(n)))
        out.append(reqs)
    return out


# name -> (generator, nominal seconds of one round on a 2-core x86 VM,
# sympy 1.14, python ground types); a pass holds its share of the run's
# seconds // nominal rounds, and at least one.
WORKLOADS = {
    "symbolic_tables": (symbolic_tables, 11.0),
    "nonlinear_concrete": (nonlinear_concrete, 5.0),
    "constructions": (constructions, 4.5),
}
