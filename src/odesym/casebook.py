"""Executable reproduction of the published results, case by case.

Each case runs a list of claims and reports, per claim, a status
(verified / refuted-witness / undecided, see :func:`claim_status`)
together with the residual expression.  Positive claims verify an exact
symbolic zero; negative claims (non-membership) certify the residual as
nonzero by a numeric witness.  A Runge-Kutta harness cross-checks first
integrals numerically.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field

import sympy as sp
from sympy.printing.pycode import PythonCodePrinter

from .exprcore import (
    COEF_Q,
    JET,
    PARAMS,
    SOL_U,
    SOL_V,
    X,
    RingFraction,
    _canonical_pair,
    canon,
    witnessed,
    zero_test,
)
from .grammar import sympy_text
from .jetcalc import DiffEq, Lagrangian, VectorField, derivative_ladder
from .maxsym import (
    SourceContext,
    build_lode,
    canonical_lagrangian,
    generators,
    natural_lagrangian,
    reference_first_integral_homogeneity,
    reference_transformed_lagrangian,
    specialize_q,
    _specialized,
    transformed_lagrangian,
)
from .noether import (
    NotFirstIntegral,
    divergence_check,
    divergence_relation_check,
    first_integral,
    invariance_expression,
    variational_check,
    verify_first_integral,
)
from .transform import PointTransformation, pushforward, transform_equation, transform_lagrangian

K1, K2, K3, LAM = PARAMS["k1"], PARAMS["k2"], PARAMS["k3"], PARAMS["lam"]
A = [PARAMS[f"a{j}"] for j in range(4)]

CASE_IDS = ("C1", "C2", "C3", "C4", "C5", "C6", "C7")


class SingularityEncountered(RuntimeError):
    """The numeric trajectory met a pole or left the domain."""


@dataclass(frozen=True)
class ClaimResult:
    """One claim's outcome; ``residual`` prints the residual as given (a
    pair or an expression) when first read, and :meth:`as_dict` writes it
    as ``str`` does, by the grammar's direct printer."""

    claim_id: str
    status: str  # verified | refuted-witness | undecided
    residual_value: sp.Expr | RingFraction
    millis: float
    label: str = ""

    @functools.cached_property
    def residual(self) -> sp.Expr:
        return sp.sympify(self.residual_value)

    def as_dict(self) -> dict:
        return {
            "id": self.claim_id,
            "status": self.status,
            "residual": sympy_text(self.residual),
            "paper_ref": self.label,
            "millis": round(self.millis, 3),
        }


@dataclass
class CaseReport:
    case_id: str
    claims: list = field(default_factory=list)

    @property
    def verified(self) -> bool:
        return all(c.status == "verified" for c in self.claims)

    def as_dict(self) -> dict:
        return {"case": self.case_id, "claims": [c.as_dict() for c in self.claims]}


def claim_status(exact_zero: bool, residual, negative: bool = False) -> str:
    """The status of one claim: verified, refuted-witness or undecided.

    exact_zero is the claim's exact decision that its residual vanishes.
    It verifies a positive claim and refutes a negative (non-membership)
    claim.  Otherwise a numeric witness must certify the residual as
    nonzero (``exprcore.witnessed``, which stops sampling at the first
    draw that certifies it); it refutes a positive claim and verifies a
    negative one.
    residual is the canonical pair a check decided on, certified as it is,
    or an expression.  Without a witness, or with an inexact residual (a
    Float), the claim is undecided.
    """
    if exact_zero:
        return "refuted-witness" if negative else "verified"
    exact = isinstance(residual, RingFraction) or not sp.sympify(residual).has(sp.Float)
    if not exact or not witnessed(residual):
        return "undecided"
    return "verified" if negative else "refuted-witness"


class _Recorder:
    """Collects claim results; wall time covers work since the last record."""

    def __init__(self, case_id):
        self.report = CaseReport(case_id)
        self._mark = time.perf_counter()

    def _record(self, claim_id, ok, residual, label, negative=False):
        status = claim_status(ok, residual, negative)
        now = time.perf_counter()
        self.report.claims.append(ClaimResult(claim_id, status, residual, (now - self._mark) * 1000, label))
        self._mark = time.perf_counter()

    def positive(self, claim_id, residual, label=""):
        """Claim: residual vanishes identically."""
        pair = _canonical_pair(residual)
        self._record(claim_id, zero_test(pair), pair, label)

    def negative(self, claim_id, residual, label=""):
        """Claim: residual is NOT identically zero; certify by a witness."""
        pair = _canonical_pair(residual)
        self._record(claim_id, not pair.num, pair, label, negative=True)

    def check(self, claim_id, ok, residual, label=""):
        """Claim decided exactly by ok; residual is what a failure leaves."""
        self._record(claim_id, ok, residual, label)


# ---------------------------------------------------------------------------
# Reference payloads for the worked nonlinear example (order 4).

def example_map() -> PointTransformation:
    """z = x, w = k2 - ln(y): carries the trivial equation to the example."""
    return PointTransformation(X, K2 - sp.log(JET[0]))


def example_equation_display() -> sp.Expr:
    """The nonlinear order-4 equation as displayed (not monic)."""
    y, y1, y2, y3, y4 = JET[:5]
    return (
        6 * y1**4 - 12 * y * y1**2 * y2 + 3 * y**2 * y2**2 + 4 * y**2 * y1 * y3 - y**3 * y4
    ) / y**4


def example_generators_expected() -> dict:
    y, x = JET[0], X
    w = K2 - sp.log(y)
    return {
        "V0": VectorField(0, -y),
        "V1": VectorField(0, -x * y),
        "V2": VectorField(0, -(x**2) * y),
        "V3": VectorField(0, -(x**3) * y),
        "F4": VectorField(1, 0),
        "G4": VectorField(2 * x, -3 * y * w),
        "H4": VectorField(-(x**2), 3 * x * y * w),
    }


def example_lagrangian_expected() -> sp.Expr:
    y, y1, y2 = JET[:3]
    return -((y1**2 - y * y2) ** 2) / (2 * y**4)


def example_first_integral() -> sp.Expr:
    """Four-parameter combination of first integrals of the example."""
    y, y1, y2, y3 = JET[:4]
    x = X
    return -(
        A[0] * (2 * y1**3 - 3 * y * y1 * y2 + y**2 * y3)
        + A[1] * (-2 * x * y1**3 - y * y1 * (y1 - 3 * x * y2) + y**2 * (y2 - x * y3))
        - A[3]
        * (
            6 * y**3 * (K2 - sp.log(y))
            + 2 * x**3 * y1**3
            + 3 * x**2 * y * y1 * (y1 - x * y2)
            + x * y**2 * (6 * y1 + x * (-3 * y2 + x * y3))
        )
        + A[2]
        * (-2 * x**2 * y1**3 + x * y * y1 * (-2 * y1 + 3 * x * y2) - y**2 * (2 * y1 + x * (-2 * y2 + x * y3)))
    ) / y**3


def example_first_integral_components() -> list:
    F = example_first_integral()
    return [canon(sp.diff(F, a)) for a in A]


# ---------------------------------------------------------------------------
# Solution families that make the sl2 generators variational for the
# natural Lagrangian (n = 4).

# opaque atoms used by the concrete families, with prescribed x-derivatives
RADICAL = sp.Symbol("r_", positive=True)  # sqrt(2x - k1)
LOG_ATOM = sp.Symbol("l_", positive=True)  # ln(k1 - 2x)
EXP_ATOM = sp.Symbol("E_", positive=True)  # e^(k1 x)
ROOT_CONST = sp.Symbol("s_", positive=True)  # normalization root, constant
POWER_ATOM = sp.Symbol("B_", positive=True)  # (2x - k1)^p
POWER_EXP = sp.Symbol("p_", positive=True)  # the exponent p, constant


def family_radical_log(sign: int):
    """Concrete (u, v, ctx) built on sqrt(2x-k1) and ln(k1-2x).

    sign=+1 gives the family attached to F4, sign=-1 the one attached to
    H4 (the two swap the roles of u and v and the sign of the logarithm).
    """
    rates = {RADICAL: 1 / RADICAL, LOG_ATOM: 2 / RADICAL**2}
    straight = K2 * RADICAL
    mixed = RADICAL / (2 * K2) * (2 * K2**2 * K3 + sign * LOG_ATOM)
    u, v = (straight, mixed) if sign > 0 else (mixed, straight)
    return u, v, SourceContext.from_solutions(u, v, rates=rates)


def family_exponential():
    """u, v proportional to e^(k1 x) and e^(-k1 x); q = -k1^2."""
    rates = {EXP_ATOM: K1 * EXP_ATOM, ROOT_CONST: sp.Integer(0)}
    u = K2 / ROOT_CONST * EXP_ATOM
    v = LAM * ROOT_CONST / (K1 * K2) / EXP_ATOM
    return u, v, SourceContext.from_solutions(u, v, rates=rates)


def family_power():
    """u proportional to (2x-k1)^p with p = 1/(1+alpha), v = lam/u'.

    The exponent comes from the reduction u*u'' + alpha*(u')^2 = 0, whose
    nonconstant solutions have u^(1+alpha) linear in x.
    """
    rates = {
        POWER_ATOM: 2 * POWER_EXP * POWER_ATOM / (2 * X - K1),
        ROOT_CONST: sp.Integer(0),
        POWER_EXP: sp.Integer(0),
    }
    u = K2 / ROOT_CONST * POWER_ATOM
    ux = derivative_ladder(u, 1, rates)[1]
    v = _canonical_pair(RingFraction(ux.den, ux.num) * LAM)
    return u, v, SourceContext.from_solutions(u, v, rates=rates)


# ---------------------------------------------------------------------------
# Cases.

def _case_c1() -> CaseReport:
    rec = _Recorder("C1")
    ctx = SourceContext.make_symbolic()
    wy = generators(3).homogeneity
    for n in (3, 5, 7):
        F = first_integral(wy, build_lode(n, ctx), ctx)
        residual = F.value - reference_first_integral_homogeneity(n)
        rec.positive(f"n{n}", residual, f"homogeneity-first-integral-n{n}")
    return rec.report


def _case_c2() -> CaseReport:
    rec = _Recorder("C2")
    ctx = SourceContext.make_symbolic()
    for n in (2, 4, 6):
        computed = transformed_lagrangian(n, ctx)
        ref = reference_transformed_lagrangian(n)
        rec.positive(f"n{n}", ctx._reduce_pair(computed.pair - ref.pair), f"transformed-lagrangian-n{n}")
    return rec.report


def _membership_claims(rec, n, ctx, kind, positives):
    gens = generators(n)
    eq = build_lode(n, ctx) if kind == "divergence" else None
    lag = transformed_lagrangian(n, ctx) if kind == "variational" else None
    for name, vf in gens.by_name().items():
        if kind == "divergence":
            verdict = divergence_check(vf, eq, ctx)
        else:
            verdict = variational_check(vf, lag, ctx)
        label = f"{kind}-membership-n{n}-{name}"
        cid = f"n{n}-{kind[:3]}-{name}"
        if name in positives:
            rec.check(cid, verdict.holds, verdict.pair, label)
        else:
            rec.negative(cid, verdict.pair, label)


def _case_c3() -> CaseReport:
    rec = _Recorder("C3")
    ctx = SourceContext.make_symbolic()
    for n in (4, 6):
        var_pos = {f"V{k}" for k in range((n - 2) // 2 + 1)} | {f"F{n}", f"G{n}"}
        div_pos = {f"V{k}" for k in range(n)} | {f"F{n}", f"G{n}", f"H{n}"}
        _membership_claims(rec, n, ctx, "variational", var_pos)
        _membership_claims(rec, n, ctx, "divergence", div_pos)
    for n in (3, 5):
        div_pos = {f"V{k}" for k in range(n)} | {"Wy"}
        _membership_claims(rec, n, ctx, "divergence", div_pos)
    return rec.report


def _case_c4() -> CaseReport:
    rec = _Recorder("C4")
    sym = SourceContext.make_symbolic()
    L4 = natural_lagrangian(4, sym)
    gens = generators(4)
    # symbolic q: no solution symmetry is variational
    for k in range(4):
        verdict = variational_check(gens.solution[k], L4, sym)
        rec.negative(f"symbolic-q-V{k}", verdict.pair, f"natural-lagrangian-symbolic-q-V{k}")
    # q = 0 with u = 1, v = x: exactly k in {0, 1} pass
    flat = SourceContext.zero_q()
    L4_flat = natural_lagrangian(4, flat)
    flat_gens = gens.specialize(flat)
    for k in range(4):
        verdict = variational_check(flat_gens.solution[k], L4_flat, flat)
        label = f"natural-lagrangian-flat-q-V{k}"
        if k <= 1:
            rec.check(f"flat-q-V{k}", verdict.holds, verdict.pair, label)
        else:
            rec.negative(f"flat-q-V{k}", verdict.pair, label)
    # first-order coefficient of the expansion of S(V_k)
    u, u1, v, v1 = SOL_U[0], SOL_U[1], SOL_V[0], SOL_V[1]
    for k in range(4):
        s = sym.reduce(invariance_expression(gens.solution[k], L4, sym))
        b0 = (k - 3) * v * u1 - k * u * v1
        target = sym.reduce(10 * u ** (2 - k) * v ** (k - 1) * COEF_Q[0] * b0)
        rec.positive(f"coeff-y1-V{k}", sp.diff(s, JET[1]) - target, f"first-order-coefficient-V{k}")
    return rec.report


def _case_c5() -> CaseReport:
    rec = _Recorder("C5")
    # residuals of the coefficient claims, from the context's q pair and
    # the ladders [u, u'] and [v, v'] of its solution pairs
    value = lambda q, u, v: q - 1 / RADICAL**4
    condition = lambda q, u, v: q - u[1] * u[1] / (u[0] * u[0])
    coupling = lambda q, u, v: q - u[1] * v[1] / (u[0] * v[0])

    def check_family(tag, ctx, vf_name, q_claims):
        lag = natural_lagrangian(4, ctx)
        vf = generators(4).specialize(ctx).by_name()[vf_name]
        verdict = variational_check(vf, lag, ctx)
        rec.check(tag, verdict.holds, verdict.pair, f"variational-family-{tag}")
        u, v, q, _ = ctx.pairs
        ladders = [derivative_ladder(c, 1, ctx.rates) for c in (u, v)]
        for qtag, residual in q_claims:
            rec.positive(qtag, residual(q, *ladders), f"family-coefficient-{qtag}")

    check_family("f4-family", family_radical_log(+1)[2], "F4", [("f4-q-value", value), ("f4-q-condition", condition)])
    check_family("h4-family", family_radical_log(-1)[2], "H4", [("h4-q-value", value)])
    check_family("g4-exponential", family_exponential()[2], "G4", [("g4-exp-coupling", coupling)])
    check_family("g4-power", family_power()[2], "G4", [("g4-power-coupling", coupling)])
    return rec.report


def _case_c6() -> CaseReport:
    rec = _Recorder("C6")
    sigma = example_map()
    trivial = DiffEq(JET[4], 4)
    transformed = transform_equation(trivial, sigma)
    displayed = example_equation_display()
    monic_displayed = _canonical_pair(displayed / sp.diff(sp.together(displayed), JET[4]))
    rec.positive("equation", transformed.pair - monic_displayed, "transformed-equation")

    flat = SourceContext.zero_q()
    canonical_gens = generators(4).specialize(flat)
    expected = example_generators_expected()
    for name, vf in canonical_gens.by_name().items():
        if name == "Wy":
            continue  # not part of the divergence algebra for even order
        want = expected[name]
        xi_diff, psi_diff = (_canonical_pair(p - w) for p, w in zip(pushforward(vf, sigma).pairs, want.pairs))
        ok = zero_test(xi_diff) and zero_test(psi_diff)
        residual = xi_diff if xi_diff.num else psi_diff
        rec.check(f"generator-{name}", ok, residual, f"pushforward-{name}")

    lag = transform_lagrangian(canonical_lagrangian(4), sigma)
    expected_lag = example_lagrangian_expected()
    ratio = _canonical_pair(lag.pair / expected_lag)
    ok = not ratio.free_symbols and bool(ratio.num)
    rec.check("lagrangian", ok, _canonical_pair(lag.pair - ratio * expected_lag), "transformed-lagrangian")

    for j, component in enumerate(example_first_integral_components()):
        try:
            verify_first_integral(component, transformed)
            rec.check(f"integral-a{j}", True, sp.Integer(0), f"first-integral-a{j}")
        except NotFirstIntegral as err:
            rec.check(f"integral-a{j}", False, err.pair, f"first-integral-a{j}")

    det = independence_determinant(example_first_integral_components())
    rec.check("independence", abs(det) > 1e-6, sp.Float(det), "independent-first-integrals")
    return rec.report


def independence_determinant(components, seed: int = 0xC6) -> float:
    """Determinant of component values at random jet points (k2 fixed)."""
    rng = random.Random(seed)
    symbols = sorted(set().union(*[c.free_symbols for c in components]), key=str)
    rows = []
    for _ in range(len(components)):
        point = {s: sp.Rational(rng.randint(110, 900), 100) for s in symbols}
        rows.append([float(c.subs(point).evalf(30)) for c in components])
    return float(sp.Matrix(rows).det())


def _case_c7() -> CaseReport:
    rec = _Recorder("C7")
    sym = SourceContext.make_symbolic()
    y, y1 = JET[0], JET[1]
    wy = VectorField(0, y)

    verdict = divergence_relation_check(
        Lagrangian(-y1**2 / 2, 1), y**2, sp.Integer(3), wy
    )
    rec.check("scaling-field", verdict.holds, verdict.pair, "lagrangian-shift-linearity-1")

    L0 = reference_transformed_lagrangian(2)
    f2 = generators(2).by_name()["F2"]
    verdict = divergence_relation_check(L0, X * y * y1, sp.Integer(1), f2, sym)
    rec.check("sl2-field", verdict.holds, verdict.pair, "lagrangian-shift-linearity-2")

    rng = random.Random(0xC7)
    monomials = (y, y1, JET[2], X, y * y1, y1 * JET[2], X * y)
    def rand_poly():
        return sum(sp.Rational(rng.randint(-4, 4)) * m for m in monomials)
    L0 = Lagrangian(rand_poly(), 2)
    P = rand_poly()
    vf = VectorField(rng.randint(1, 3) * X, rng.randint(1, 3) * y + rng.randint(0, 2) * X)
    verdict = divergence_relation_check(L0, P, PARAMS["theta"], vf, sym)
    rec.check("random-instance", verdict.holds, verdict.pair, "lagrangian-shift-linearity-3")
    return rec.report


_CASES = {
    "C1": _case_c1,
    "C2": _case_c2,
    "C3": _case_c3,
    "C4": _case_c4,
    "C5": _case_c5,
    "C6": _case_c6,
    "C7": _case_c7,
}


def run_case(case_id: str) -> CaseReport:
    """Run one case of the inventory C1..C7."""
    if case_id not in _CASES:
        raise KeyError(f"unknown case {case_id!r}; known: {', '.join(CASE_IDS)}")
    return _CASES[case_id]()


def run_all() -> list:
    return [run_case(cid) for cid in CASE_IDS]


# ---------------------------------------------------------------------------
# Numeric redundancy: Runge-Kutta drift of first integrals.

def _rk4_source(n: int, rhs: str, F: str) -> str:
    """Python source of ``_run(_h, _steps, _s0, ..., _s{n-1})``: classical
    RK4 on y^(n) = rhs from x = 0 with the state (y, ..., y^(n-1)) held in
    scalars, evaluating the printed ``rhs`` at each stage and ``F`` after
    each step inline.  It returns ``(drift, None)``, or ``(None, x)`` at
    the first x where F is not finite.

    Each float operation, and its order, is that of RK4 written on state
    lists, ``s + h / 2 * k`` and ``s + h / 6 * (a + 2 * b + 2 * c + d)``
    with k_i = s_{i+1} below the top component, so the drift is the same
    to the bit.  Loop names start with ``_``, so they meet neither the jet
    symbols nor the names of ``math``.
    """
    jets = ", ".join(["x", *(str(J) for J in JET[:n])])

    def at(t, state):
        return f"{jets} = {t}, {', '.join(state)}"

    def stage(name, step, slopes):
        return [f"{name}{i} = _s{i} + {step} * {k}" for i, k in enumerate(slopes)]

    s, p, q, r = ([f"{name}{i}" for i in range(n)] for name in ("_s", "_p", "_q", "_r"))
    k1, k2, k3, k4 = ([*state[1:], f"_k{j}"] for j, state in enumerate((s, p, q, r), 1))
    # x, y, ... hold (t, state) on entering the loop: F was evaluated there
    loop = [
        f"_k1 = ({rhs})",
        *stage("_p", "_h2", k1), at("_t + _h2", p), f"_k2 = ({rhs})",
        *stage("_q", "_h2", k2), at("_t + _h2", q), f"_k3 = ({rhs})",
        *stage("_r", "_h", k3), at("_t + _h", r), f"_k4 = ({rhs})",
        # in increasing i, _s{i+1} (that is k1_i) is still the old state
        *(f"_s{i} = _s{i} + _h6 * ({a} + 2 * {b} + 2 * {c} + {d})"
          for i, (a, b, c, d) in enumerate(zip(k1, k2, k3, k4))),
        "_t += _h", at("_t", s), f"_value = ({F})",
        "if not isfinite(_value):", "    return None, _t",
        "_d = abs(_value - _reference) / _scale",
        "if _d > _drift:", "    _drift = _d",
    ]
    head = [
        "_h2 = _h / 2", "_h6 = _h / 6", "_t = 0.0", at("_t", s), f"_reference = ({F})",
        "_drift = 0.0", "_scale = max(1.0, abs(_reference))", "for _ in range(_steps):",
    ]
    body = [f"    {line}" for line in head] + [f"        {line}" for line in loop]
    return "\n".join([f"def _run(_h, _steps, {', '.join(s)}):", *body, "    return _drift, None"])


def numeric_validate(F, q_expr=None, ic=(), span=2.0, steps=2000, equation=None):
    """Max relative drift of F along an RK4 trajectory of its equation.

    ``F`` is a FirstIntegral or a plain expression (then ``equation`` is
    required).  ``q_expr`` substitutes a concrete coefficient function for
    the symbolic q; initial conditions give (y, y', ..., y^(n-1)) at x=0.
    The rhs and F are printed once, by the printer and settings that
    ``lambdify(..., modules="math")`` uses, into one generated loop
    (:func:`_rk4_source`) run in the namespace of ``math``.
    """
    expr = F.expr if hasattr(F, "expr") else sp.sympify(F)
    eq = equation if equation is not None else F.equation
    n = eq.order
    if len(ic) != n:
        raise ValueError(f"need {n} initial values, got {len(ic)}")
    if q_expr is None:
        rhs_expr = eq.solved_rhs()
    else:
        rhs_expr = _specialized(eq._lead_and_rhs[1], q_expr).as_expr()
        expr = specialize_q(expr, q_expr)
    state_syms = [X, *JET[:n]]
    extra = (set(rhs_expr.free_symbols) | set(expr.free_symbols)) - set(state_syms)
    if extra:
        raise ValueError(f"unbound symbols for numeric validation: {sorted(extra, key=str)}")
    printer = PythonCodePrinter({"fully_qualified_modules": False, "inline": True,
                                 "allow_unknown_functions": True, "user_functions": {}})
    namespace = dict(math.__dict__)
    exec(_rk4_source(n, printer.doprint(rhs_expr), printer.doprint(expr)), namespace)
    h = span / steps
    state = [float(c) for c in ic]
    try:
        drift, singular_at = namespace["_run"](h, steps, *state)
    except (ValueError, OverflowError, ZeroDivisionError) as err:
        raise SingularityEncountered(str(err)) from err
    if singular_at is not None:
        raise SingularityEncountered(f"nonfinite invariant value at x={singular_at}")
    return drift
