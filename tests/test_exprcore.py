import math
import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.polyerrors import GeneratorsError
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement

from odesym import casebook, exprcore
from odesym.exprcore import (
    COEF_Q,
    JET,
    PARAMS,
    SOL_U,
    SOL_V,
    X,
    Inconclusive,
    UnsupportedForm,
    canon,
    numeric_witness,
    partial,
    zero_test,
)
from odesym.jetcalc import DiffEq, total_derivative
from odesym.maxsym import (
    SourceContext,
    build_lode,
    canonical_lagrangian,
    generators,
    source_transformation,
    transformed_lagrangian,
)
from odesym.noether import divergence_check, variational_check
from odesym.transform import transform_equation, transform_lagrangian

y, y1, y2 = JET[0], JET[1], JET[2]
u, u1, v, v1, q = SOL_U[0], SOL_U[1], SOL_V[0], SOL_V[1], COEF_Q[0]
k1 = PARAMS["k1"]


def test_canon_binomial_identity():
    assert canon((X + 1) ** 2 - X**2 - 2 * X - 1) == 0


def test_canon_power_collapse():
    assert canon(sp.sqrt(2 * X - k1) ** 2) == 2 * X - k1


def test_canon_collects_products():
    assert canon(y * y1 * 2 - y1 * y - y * y1) == 0


def test_canon_idempotent():
    e = (y + y1) ** 3 / (y - 1) + sp.log(y) * q
    assert canon(canon(e)) == canon(e)


@pytest.mark.parametrize("e", [
    (X + y) ** sp.Rational(-3, 2),
    (1 + y**2) ** sp.Rational(-3, 2),
    (1 + y1**2) ** sp.Rational(-5, 3),
])
def test_canon_negative_radical_power_of_a_sum(e):
    # the normal form 1/(x*sqrt(x + y) + y*sqrt(x + y)) holds the generator
    # sqrt(x + y) below a sum, where the lift reads it
    c = canon(e)
    assert canon(c) == c
    assert sp.simplify(c - e) == 0


def test_pairs_have_integer_coefficients():
    e = y / 2 + y1 / 3
    f = exprcore.RingFraction.from_expr(e)
    assert f.num.ring.domain == ZZ
    pair = exprcore._canonical_pair(f)
    coeffs = [*pair.num.itercoeffs(), *pair.den.itercoeffs()]
    assert all(ZZ.of_type(c) for c in coeffs)
    assert math.gcd(*coeffs) == 1 and pair.den.LC > 0
    assert sp.srepr(canon(f)) == sp.srepr(sp.cancel(sp.together(e)))


def test_canon_rejects_float():
    with pytest.raises(UnsupportedForm):
        canon(0.5 * y)


def test_canon_rejects_nonrational_exponent():
    with pytest.raises(UnsupportedForm):
        canon(y**X)


def test_canon_rejects_nested_elementary():
    with pytest.raises(UnsupportedForm):
        canon(sp.log(sp.log(X)))


def test_canon_rejects_ln_of_a_negative_value():
    # ln(-y) normalizes to log(y) + I*pi: no real value on the domain
    with pytest.raises(UnsupportedForm, match="non-real"):
        canon(sp.log(-y))
    # real constants stay generators, and canon reads its own E*exp(x)
    assert canon(sp.log(2) * y - sp.log(2) * y) == 0
    once = canon(sp.exp(X + 1) * y)
    assert sp.srepr(canon(once)) == sp.srepr(once) == sp.srepr(sp.E * sp.exp(X) * y)


def test_canonical_pair_of_a_zero_denominator_raises():
    # PolyElement.cancel would return 1/0 as (1, 0) and 0/0 as (0, 1)
    R = exprcore.RingFraction.from_expr(y).num.ring
    for num in (R.one, R.zero):
        with pytest.raises(ZeroDivisionError):
            canon(exprcore.RingFraction(num, R.zero))


def test_partial_examples():
    assert canon(partial(y1**2 * y, y1) - 2 * y1 * y) == 0
    assert canon(partial(q * y**2, q) - y**2) == 0
    assert canon(partial(sp.log(y), y) - 1 / y) == 0


def test_partial_commutes_on_distinct_atoms():
    e = (y * y1 + q * y2) ** 3 / (u + v)
    for a, b in ((y, y1), (q, u), (y2, v)):
        assert canon(partial(partial(e, a), b) - partial(partial(e, b), a)) == 0


def test_zero_test_formal_wronskian_nonzero():
    assert zero_test(u * v1 - u1 * v - 1) is False


def test_zero_test_log_identity():
    assert zero_test(sp.log(X**2) - 2 * sp.log(X)) is True


def test_zero_test_annihilated_product():
    assert zero_test(0 * y2) is True


def test_zero_test_sqrt_identity():
    b = 2 * X - k1
    assert zero_test(sp.sqrt(b) * sp.sqrt(b) - b) is True


def test_zero_test_nonzero_with_log():
    assert zero_test(sp.log(y) + y) is False


def test_inconclusive_is_reported():
    # Both vanish on the positive sampling domain.  ln(x*y) - ln(x) - ln(y)
    # cancels to an exact 0 in the ring; ln(y^2 + 2y + 1) - 2 ln(y + 1)
    # survives the canonical form and is sampled.  Whether confirmation
    # succeeds or the kernel reports Inconclusive, it must never claim a
    # nonzero.
    for e in (
        sp.log(X * y) - sp.log(X) - sp.log(y),
        sp.log(y**2 + 2 * y + 1) - 2 * sp.log(y + 1),
    ):
        try:
            assert zero_test(e) is True
        except Inconclusive:
            pass


def test_numeric_witness_nonzero():
    point, value = numeric_witness(u * v1 - u1 * v - 1)
    assert isinstance(value, sp.Rational)  # exact for a rational residual
    assert value > sp.Rational(1, 10**9)


def test_numeric_witness_points_are_pinned():
    # literal points and values: a change of the sampler's seed digest moves them
    R = sp.Rational
    assert numeric_witness(u * v1 - u1 * v - 1) == (
        {u: R(187, 50), u1: R(57, 20), v: R(243, 25), v1: R(141, 100)},
        R(117143, 169877),
    )
    point, _ = numeric_witness(X * sp.log(y) - sp.exp(X / 2) * y)
    assert point == {X: R(409, 50), y: R(81, 100)}


def _witness_30_digits(c, points=20):
    """Reference witness: every expanded term evaluated by subs().evalf(30)."""
    rng = exprcore._seeded_rng(c)
    symbols = sorted(c.free_symbols, key=str)
    terms = sp.Add.make_args(sp.expand(c))
    best = None
    taken = attempts = 0
    while taken < points and attempts < 40 * points:
        attempts += 1
        point = {s: sp.Rational(rng.randint(10, 1000), 100) for s in symbols}
        vals = [t.subs(point).evalf(30) for t in terms]
        if any(val.has(sp.zoo, sp.oo, sp.nan) for val in vals):
            continue
        taken += 1
        rel = abs(sum(vals)) / max(sp.Float(1, 30), sum(abs(val) for val in vals))
        if best is None or rel > best[1]:
            best = (point, rel)
    return best


def test_numeric_witness_agrees_with_30_digit_path():
    ctx = SourceContext.make_symbolic()
    h6 = generators(6).by_name()["H6"]
    residual = variational_check(h6, transformed_lagrangian(6, ctx), ctx).witness
    point, value = numeric_witness(residual)
    ref_point, ref_value = _witness_30_digits(canon(residual))
    assert isinstance(value, sp.Rational)
    assert point == ref_point
    assert abs(value - ref_value) < sp.Float("1e-25", 30) * value


def _node_residuals() -> tuple:
    """Residuals with ln, exp or radical generators, sampled at 30 digits."""
    eq = DiffEq(casebook.example_equation_display(), 4)
    g4 = casebook.example_generators_expected()["G4"]
    return (
        sp.log(2) - sp.log(3),  # no atoms: one point, {}
        sp.log(y) - y1 * sp.exp(X) + 1,
        (sp.sqrt(X + y) - 2 * y1) / (y + sp.log(X) ** 2),
        divergence_check(g4, eq).witness,  # holds ln(y), through w = k2 - ln(y)
    )


def test_node_witness_agrees_with_30_digit_path():
    for residual in _node_residuals():
        point, value = numeric_witness(residual)
        ref_point, ref_value = _witness_30_digits(canon(residual))
        assert isinstance(value, sp.Float) and value._prec == ref_value._prec
        assert point == ref_point
        assert abs(value - ref_value) < sp.Float("1e-25", 30) * ref_value


def test_sampling_a_node_pair_builds_no_tree(monkeypatch):
    pair = exprcore._canonical_pair(sp.log(y) * y1 + X * sp.sqrt(X + y))

    def no_tree(self):
        raise AssertionError("the pair's expression was built")

    monkeypatch.setattr(exprcore._CanonicalPair, "as_expr", no_tree)
    assert numeric_witness(pair) is not None
    assert zero_test(pair) is False


def test_zero_test_refutes_exactly_what_is_witnessed(case_report):
    # zero_test and witnessed read one draw loop with one comparison: a
    # residual with nodes that zero_test calls nonzero is certified, and
    # one it calls zero is not; every exact residual of the cases is
    # rational so far, and one with nodes joins the list when it appears
    exact = [c.residual_value for cid in casebook.CASE_IDS for c in case_report(cid).claims
             if not c.residual.has(sp.Float)]
    residuals = [*_node_residuals(), sp.log(6) - sp.log(2) - sp.log(3),
                 *(r for r in exact if not exprcore.is_rational_expr(r))]
    for residual in residuals:
        assert (zero_test(residual) is False) == exprcore.witnessed(residual), residual


def test_zero_test_evaluates_an_atom_free_pair_once(monkeypatch):
    calls = []
    evaluator = exprcore._evaluator

    def counted(f):
        evaluate = evaluator(f)

        def counted_evaluate(draws):
            calls.append(draws)
            return evaluate(draws)

        return counted_evaluate

    monkeypatch.setattr(exprcore, "_evaluator", counted)
    assert zero_test(sp.log(6) - sp.log(2) - sp.log(3)) is True
    assert calls == [{}]


class _ScriptedRandom(random.Random):
    """Seeded RNG whose first draws k of ``randint(10, 1000)`` are fixed: the
    sampler draws k - 10 as 10 random bits, as randint does."""

    def __init__(self, first):
        super().__init__(0)
        self._first = list(first)

    def getrandbits(self, k):
        return self._first.pop(0) - 10 if self._first and k == 10 else super().getrandbits(k)


def _samples(c, points=20):
    """(point, value, ref) of each of the sampler's draws of c."""
    return [(exprcore._point(d), value, ref) for d, value, ref in exprcore._draws(exprcore._canonical_pair(c), points)]


def test_samples_skip_zero_denominator(monkeypatch):
    c = canon(1 / (X - y) + 1)
    # x = y = 1/2 twice, where the denominator x - y vanishes
    monkeypatch.setattr(exprcore, "_seeded_rng", lambda e: _ScriptedRandom([50, 50, 50, 50]))
    samples = _samples(c)
    assert len(samples) == 20
    assert all(point[X] != point[y] for point, _, _ in samples)
    assert samples[0][0] != {X: sp.Rational(1, 2), y: sp.Rational(1, 2)}
    monkeypatch.setattr(exprcore, "_seeded_rng", lambda e: _ScriptedRandom([50, 50, 50, 50]))
    point, value = numeric_witness(c)
    assert point[X] != point[y] and isinstance(value, sp.Rational)


def _fraction_value(e, values):
    """Exact value of a rational sympy tree, atoms bound to Fractions."""
    if e.is_Symbol:
        return values[e]
    if e.is_Rational:
        return Fraction(e.p, e.q)
    if e.is_Add:
        return sum((_fraction_value(a, values) for a in e.args), Fraction(0))
    if e.is_Mul:
        out = Fraction(1)
        for a in e.args:
            out *= _fraction_value(a, values)
        return out
    base, exponent = e.args
    return _fraction_value(base, values) ** int(exponent)


def _fraction_samples(c, rng, points=20):
    """Reference sampler on the tree of a canonical form: the relative value
    |sum n_i| / max(|d|, sum |n_i|) over the terms n_i of its numerator."""
    numer, denom = sp.fraction(c)
    symbols = sorted(c.free_symbols, key=str)
    out = []
    for _ in range(40 * points):
        if len(out) == points:
            break
        point = {s: sp.Rational(rng.randint(10, 1000), 100) for s in symbols}
        values = {s: Fraction(r.p, r.q) for s, r in point.items()}
        d = _fraction_value(denom, values)
        if d == 0:
            continue
        vals = [_fraction_value(t, values) for t in sp.Add.make_args(numer)]
        out.append((point, abs(sum(vals)) / max(abs(d), sum(map(abs, vals)))))
    return out


def _sampler_corpus():
    ctx = SourceContext.make_symbolic()
    h6 = generators(6).by_name()["H6"]
    return [
        ((X + y) / 2, [50, 50]),  # ground denominator, spread over the sum
        ((3 * X - 5 * y**2) / 7, []),
        ((X**2 - 3 * y * u) / (2 * X * y**3), []),  # monomial denominator
        (1 / (X - y) + 1, [50, 50, 50, 50]),  # x = y twice: the denominator vanishes
        (variational_check(h6, transformed_lagrangian(6, ctx), ctx).witness, [77] * 6),
    ]


def test_integer_sampler_matches_fraction_tree(monkeypatch):
    for e, first in _sampler_corpus():
        c = canon(e)
        monkeypatch.setattr(exprcore, "_seeded_rng", lambda e: _ScriptedRandom(first))
        got = [(point, Fraction(abs(value), ref)) for point, value, ref in _samples(c)]
        assert got == _fraction_samples(c, _ScriptedRandom(first)), c


def test_numeric_witness_seed_ignores_unused_generators():
    ctx = SourceContext.make_symbolic()
    h6 = generators(6).by_name()["H6"]
    for e in (
        (X + y) / 2,
        (X**2 - 3 * y * u) / (2 * X * y**3),
        variational_check(h6, transformed_lagrangian(6, ctx), ctx).witness,
    ):
        c = canon(e)
        extra = {JET[7], COEF_Q[3], PARAMS["k3"], X, sp.sqrt(X)}
        R = exprcore._ring(_sort_gens(exprcore._generators(c) | extra))
        wide = exprcore._lift(c, R)
        assert numeric_witness(wide) == numeric_witness(c)
        assert numeric_witness(wide) is not None


def test_numeric_witness_evaluates_an_atom_free_pair_once(monkeypatch):
    calls = []
    evalf = sp.Expr.evalf

    def counted(self, *args, **kwargs):
        calls.append(self)
        return evalf(self, *args, **kwargs)

    monkeypatch.setattr(sp.Expr, "evalf", counted)
    point, value = numeric_witness(sp.log(2) - sp.log(3))
    assert sorted(calls, key=str) == [sp.log(2), sp.log(3)]
    assert point == {} and abs(value - sp.log(sp.Rational(3, 2)) / sp.log(6)) < sp.Rational(1, 10**25)


def test_numeric_witness_zero_expression():
    assert numeric_witness((y + 1) ** 2 - y**2 - 2 * y - 1) is None


def test_witnessed_is_numeric_witness_not_none(case_report, monkeypatch):
    residuals = [
        c.residual_value
        for case_id in casebook.CASE_IDS
        for c in case_report(case_id).claims
        if isinstance(c.residual_value, exprcore.RingFraction) or not c.residual.has(sp.Float)
    ]
    residuals += [
        *_node_residuals(),
        exprcore._canonical_pair((y + 1) ** 2 - y**2 - 2 * y - 1),  # the zero pair
        y / 10**12,  # nonzero, below the tolerance at every draw
    ]
    for residual in residuals:
        assert exprcore.witnessed(residual) == (numeric_witness(residual) is not None), residual
    # x = y = 1/2 twice, where the denominator x - y vanishes
    c = canon(1 / (X - y) + 1)
    monkeypatch.setattr(exprcore, "_seeded_rng", lambda e: _ScriptedRandom([50, 50, 50, 50]))
    assert exprcore.witnessed(c) is True and numeric_witness(c) is not None


def _print_corpus():
    """Pairs at the edges of the print: zero, constants, a coefficient of -1
    on one generator, jets whose names sort apart from ``Basic.compare``
    (y2 against y10), ground and monomial denominators, random polynomials
    over many symbols, Delta_6 and the n = 6 transformed Lagrangian, and
    rings with ln, exp, radical and E generators."""
    y10 = JET[10]
    R = exprcore._ring({y, y2, y10, X})
    exprs = [
        -y,
        y2 - y10,
        y10**2 * y2 - 3 * y2**2 + y10 - 1,
        (X + y) / 2,
        (3 * X - 5 * y**2) / 7,
        (X**2 - 3 * y * u) / (5 * u**7),
        -(y2 + 1) / (y10 * X**3),
        sp.log(y) * y1 - sp.log(y) ** 2,
        sp.exp(X) ** 2 * y + sp.exp(X),
        y * sp.sqrt(y) - sp.sqrt(y) / (X + 1),
        sp.E * X - 1,
    ]
    pairs = [
        exprcore.RingFraction(R.zero, R.one),
        exprcore.RingFraction(R(-5), R.one),
        exprcore.RingFraction(R(7), R(3)),
        exprcore.RingFraction.from_expr(sp.Integer(7) / 3),
        exprcore.RingFraction(R.gens[0], R.one),
    ]
    pairs += [exprcore._canonical_pair(e) for e in exprs]
    ctx = SourceContext.make_symbolic()
    pairs += [build_lode(6, ctx).pair, transformed_lagrangian(6, ctx).pair]
    rng = random.Random(20261020)
    wide = exprcore._ring({X, *JET[:12], u, u1, v, q, k1})
    for _ in range(40):
        terms = {
            tuple(rng.choice((0, 0, 0, 1, 2)) for _ in wide.symbols): rng.choice((-1, 1, rng.randint(-30, 30)))
            for _ in range(rng.randint(1, 8))
        }
        pairs.append(exprcore.RingFraction(wide.from_dict(terms), wide.from_dict({(0,) * wide.ngens: rng.randint(1, 9)})))
    return pairs


def _same_tree(a, b) -> bool:
    """Equal srepr and equal args in the same order at every level: srepr
    prints the terms of a sum in its own order, ``==`` compares args as
    they are."""
    return sp.srepr(a) == sp.srepr(b) and a == b


def test_print_is_sympys_flatten():
    for f in _print_corpus():
        for p in (f.num, f.den):
            assert _same_tree(exprcore._printed(p), p.as_expr()), p
        assert _same_tree(f.as_expr(), f.num.as_expr() / f.den.as_expr()), f


def test_print_of_a_symbol_ring_skips_sympys_flatten(monkeypatch):
    corpus = _print_corpus()
    expected = [f.num.as_expr() / f.den.as_expr() for f in corpus]

    def flattened(self):
        raise AssertionError("printed through PolyElement.as_expr")

    monkeypatch.setattr(PolyElement, "as_expr", flattened)
    nodes = 0
    for f, want in zip(corpus, expected):
        if exprcore._symbols_only(f.num.ring):
            assert _same_tree(f.as_expr(), want)
        else:
            nodes += 1
            assert any(not s.is_Symbol for s in f.num.ring.symbols)
    assert nodes == 4


def _quotient_corpus() -> list:
    """Pairs over symbols: those of the print and Laurent corpora, and
    random pairs, half of them reduced, whose numerator has zero, one or
    more terms and whose denominator is a positive or negative integer
    times a monomial, 1, or a sum."""
    pairs = [f for f in (*_print_corpus(), *_laurent_corpus()) if exprcore._symbols_only(f.num.ring)]
    rng = random.Random(20261022)
    wide = exprcore._ring({X, *JET[:6], u, u1, v, q, k1})

    def poly(terms, exponents):
        return wide.from_dict({
            tuple(rng.choice(exponents) for _ in wide.symbols): rng.choice((-1, 1, rng.randint(-30, 30)))
            for _ in range(terms)
        })

    while len(pairs) < 400:
        num = poly(rng.choice((0, 1, 1, 2, 5)), (0, 0, 0, 0, 1, 2))
        den = wide.one if rng.random() < 0.1 else poly(rng.choice((1, 1, 1, 2)), (0, 0, 0, 0, 1, 3))
        if den:
            f = exprcore.RingFraction(num, den)
            pairs.append(exprcore._reduced(f) if rng.random() < 0.5 else f)
    return pairs


def test_quotient_print_is_sympys_division(monkeypatch):
    corpus = _quotient_corpus()
    expected = [exprcore._printed(f.num) / exprcore._printed(f.den) for f in corpus]

    def no_division(self, other):
        raise AssertionError(f"divided through sympy's /: {self} / {other}")

    direct = 0
    for f, want in zip(corpus, expected):
        if len(f.den) == 1 and f.den.LC > 0:
            direct += 1
            with monkeypatch.context() as patched:
                patched.setattr(sp.Expr, "__truediv__", no_division)
                got = f.as_expr()
        else:
            got = f.as_expr()
        assert _same_tree(got, want), f
    assert 200 < direct < len(corpus)


def _laurent_corpus() -> list:
    """Pairs over symbols whose denominator is an integer times a monomial,
    none reduced: negative exponents, coefficient -1, a constant term,
    rational coefficients, a single term, zero, a negative or ground
    denominator, and random pairs of a wide ring."""
    R = exprcore._ring({X, y, y1, y2, u})
    x_, y_, y1_, y2_, u_ = (R.gens[R.symbols.index(s)] for s in (X, y, y1, y2, u))
    pairs = [
        (R.zero, R(3)),
        (-y2_, 2 * x_),
        (x_ - y_ * y1_, x_ * y1_**2),
        (6 * x_ * y_ + 3 * y2_, 6 * x_ * y_),
        (2 * x_ - 3 * y_ + 1, 4 * y_**2),
        (x_ + y_, -3 * x_),
        (x_ + y_, R(7)),
        (x_ * y_ + 3 * x_, 2 * x_),
        (4 * x_**2 * u_ - 2 * y_, -4 * x_ * u_**3),
    ]
    out = [exprcore.RingFraction(a, b) for a, b in pairs]
    rng = random.Random(20261021)
    wide = exprcore._ring({X, *JET[:12], u, u1, v, q, k1})
    for _ in range(40):
        terms = {
            tuple(rng.choice((0, 0, 0, 1, 2)) for _ in wide.symbols): rng.choice((-1, 1, rng.randint(-30, 30)))
            for _ in range(rng.randint(1, 8))
        }
        den = {tuple(rng.choice((0, 0, 0, 1, 3)) for _ in wide.symbols): rng.choice((-6, -1, 1, 2, 9))}
        out.append(exprcore.RingFraction(wide.from_dict(terms), wide.from_dict(den)))
    return out


def test_laurent_print_is_sympys_expand(monkeypatch):
    corpus = _laurent_corpus()
    expected = [sp.expand(f.as_expr()) for f in corpus]

    def expand(e, *args, **kwargs):
        raise AssertionError(f"sp.expand reached for {e}")

    monkeypatch.setattr(sp, "expand", expand)
    for f, want in zip(corpus, expected):
        assert _same_tree(exprcore._expanded(f), want), f
    assert sp.Rational(3, 2) in expected[7].args and any(-1 in t.args for t in expected[2].args)
    assert expected[1] == -y2 / (2 * X) and expected[0] == 0


def test_expanded_print_falls_back_to_sympys_expand(monkeypatch):
    # a denominator that is not a monomial, and ln, exp and radical rings
    corpus = [
        exprcore._canonical_pair(e)
        for e in (
            (y2 + y) / (X + 1),
            (y2 - 3 * y) / (2 * X * (y1 + y)),
            (y2 - sp.log(y) + 1) * (y1 + sp.log(y)) / X,
            (y2 - sp.exp(X)) * (sp.exp(X) + 1) / (3 * y),
            y * sp.sqrt(y) - sp.sqrt(X) / (2 * X),
        )
    ]
    calls, expand = [], sp.expand
    monkeypatch.setattr(sp, "expand", lambda e, *a, **k: calls.append(e) or expand(e, *a, **k))
    for f in corpus:
        calls.clear()
        want = expand(f.as_expr())
        assert _same_tree(exprcore._expanded(f), want) and len(calls) == 1, f
        assert _same_tree(exprcore._expanded(f, lambda: want), want)


def test_lcm_and_exact_quotient_match_polyelement():
    R = exprcore._ring({X, y, y1, u})
    x_, y_, y1_, u_ = (R.gens[R.symbols.index(s)] for s in (X, y, y1, u))
    terms = [R.one, R(-1), R(6), R(-4), 2 * x_, -3 * x_**2 * y_, 4 * x_ * y1_, -6 * y1_**3 * u_, -u_, 10 * y_**2]
    sums = [x_ + y_, 2 * x_ * y_ - 4 * u_, -(y1_**2) + 3]
    for a in terms:
        for b in terms + sums:
            for first, second in ((a, b), (b, a)):
                lcm = exprcore._lcm(first, second)
                assert lcm == first.lcm(second), (first, second)
                assert exprcore._exquo(lcm, first) == lcm.exquo(first), (lcm, first)
    for a in sums:
        for b in sums:
            assert exprcore._lcm(a, b) == a.lcm(b)
            assert exprcore._exquo(a * b, b) == a


def test_canonical_pair_of_a_print_is_the_pair(monkeypatch):
    monomials = Counter()
    monomial = exprcore._monomial

    def counted(e, index):
        term = monomial(e, index)
        monomials[term is not None] += 1
        return term

    monkeypatch.setattr(exprcore, "_monomial", counted)
    ctx = SourceContext.make_symbolic()
    corpus = [
        X * y / 7 + y2,
        3 * X**2 * y1 - y / (2 * u) + 1,
        (y - 1) ** -2 + X**-3 * q,
        sp.E * X + sp.exp(X + 1) - y,
        sp.log(y) * y1 / (X + sp.sqrt(X * y)),
        sp.exp(2 * X) * y**2 - sp.cbrt(q) / u1,
        build_lode(5, ctx).pair,
        transformed_lagrangian(4, ctx).pair,
    ]
    for e in corpus:
        f = exprcore._canonical_pair(e)
        back = exprcore._lift(exprcore._canonical_pair(f.as_expr()), f.num.ring)
        assert (back.num, back.den) == (f.num, f.den), e
    assert monomials[True] and monomials[False]


def test_numeric_witness_builds_only_its_point(monkeypatch):
    built = []
    hundredths = exprcore._hundredths

    def counted(k):
        built.append(k)
        return hundredths(k)

    monkeypatch.setattr(exprcore, "_hundredths", counted)
    point, value = numeric_witness((X**2 - 3 * y * u) / (2 * X * y**3))
    assert isinstance(value, sp.Rational)
    assert sorted(built) == sorted(r.p * 100 // r.q for r in point.values())


def test_ring_is_one_object_per_generator_set():
    gens = {y1, X, u, sp.log(y), sp.sqrt(q), PARAMS["k2"]}
    R = exprcore._ring(gens)
    assert exprcore._ring(tuple(gens)) is R
    assert exprcore._ring(list(gens)) is R
    assert exprcore._ring(frozenset(gens)) is R
    assert exprcore._ring(_sort_gens(gens)) is R
    assert R.symbols == _sort_gens(gens)
    assert R.domain == ZZ


def _move_corpus():
    """ln, exp and radical generators, and the n = 6 transformed Lagrangian."""
    return [
        X * sp.log(y) - sp.exp(X / 2) * y,
        (sp.exp(X + k1 * y) + y1) / (sp.log(X * y) - u),
        sp.sqrt(y) * y1 / (X + sp.sqrt(X * y)),
        y ** sp.Rational(3, 2) - sp.cbrt(q) * u1 / y,
        (u * v1 - u1 * v - 1) / (q * y - v1) ** 2,
        sp.Integer(7) / 3,
        transformed_lagrangian(6, SourceContext.make_symbolic()).density,
    ]


def test_lift_of_a_pair_matches_set_ring():
    extras = ({JET[7], COEF_Q[3], sp.sqrt(X)}, {PARAMS["k3"], sp.log(u), v})
    for e in _move_corpus():
        pair = exprcore.RingFraction.from_expr(e)
        own = pair.num.ring
        for extra, other_extra in (extras, extras[::-1]):
            R = exprcore._ring(set(own.symbols) | extra)
            moved = exprcore._lift(pair, R)
            for got, p in ((moved.num, pair.num), (moved.den, pair.den)):
                assert got.ring is R
                assert dict(got) == dict(p.set_ring(R)), e
            # between two widenings that each lack the other's unused generators
            other = exprcore._ring(set(own.symbols) | other_extra)
            across = exprcore._lift(moved, other)
            for got, p in ((across.num, moved.num), (across.den, moved.den)):
                assert dict(got) == dict(p.set_ring(other)), e
            back = exprcore._lift(moved, own)
            assert (dict(back.num), dict(back.den)) == (dict(pair.num), dict(pair.den))


def test_lift_that_drops_a_used_generator_raises():
    pair = exprcore.RingFraction.from_expr(y * sp.log(u) / (X + 1))
    R = exprcore._ring({y, X, u, q})
    with pytest.raises(GeneratorsError):
        pair.num.set_ring(R)
    with pytest.raises(GeneratorsError):
        exprcore._lift(pair, R)


def test_pairs_of_two_rings_meet_in_the_union_ring(monkeypatch):
    a = exprcore.RingFraction.from_expr((X + y) / (X * y1) + sp.log(y))
    b = exprcore.RingFraction.from_expr(q / (y + 1) - sp.sqrt(u))
    e = sp.exp(X) / (q + 2)
    union = exprcore._ring(set(a.num.ring.symbols) | set(b.num.ring.symbols))
    with_e = exprcore._ring(set(a.num.ring.symbols) | exprcore._generators(e))
    ops = (lambda s, t: s + t, lambda s, t: s - t, lambda s, t: s * t)
    for op in ops:
        for other, ring in ((b, union), (e, with_e)):
            got = op(a, other)
            assert got.num.ring is ring and got.den.ring is ring
            lifted = op(exprcore._lift(a, ring), exprcore._lift(other, ring))
            assert (got.num, got.den) == (lifted.num, lifted.den)
            assert sp.srepr(canon(got)) == sp.srepr(canon(op(a.as_expr(), sp.sympify(other))))
    # two pairs of one ring: the result is of that ring object, and nothing moves
    c = exprcore._lift((X - y) / sp.log(y), a.num.ring)

    def moved(*args):
        raise AssertionError("a pair of the same ring was moved")

    monkeypatch.setattr(exprcore, "_lift", moved)
    for op in ops:
        got = op(a, c)
        assert got.num.ring is a.num.ring and got.den.ring is a.num.ring


def test_substituted_zero_image():
    f = exprcore._substituted((q * y + y1) / (X + q) + q**2, {q: 0})
    assert canon(f) == y1 / X


def test_substituted_pair_image_from_another_ring():
    image = exprcore.RingFraction.from_expr((1 + u1 * v) / u)
    e = (v1 * y + q * v1**2) / (u + v1)
    f = exprcore._substituted(e, {v1: image})
    assert f.num.ring is not image.num.ring
    assert canon(f) == canon(e.xreplace({v1: (1 + u1 * v) / u}))


def test_substituted_tree_and_its_pair_agree():
    e = (y1 * COEF_Q[2] + u1 * y) / (X * u + COEF_Q[2] ** 2) + sp.sqrt(q) * y
    images = {COEF_Q[2]: u / X, u1: sp.Integer(2), q: X**2}
    by_tree = exprcore._canonical_pair(exprcore._substituted(e, images))
    by_pair = exprcore._canonical_pair(exprcore._substituted(exprcore.RingFraction.from_expr(e), images))
    assert sp.srepr(by_tree.as_expr()) == sp.srepr(by_pair.as_expr())
    # the node sqrt(q) holds a key, and becomes the node of q's image
    assert by_tree.as_expr() == canon(e.xreplace(images))


def test_substituted_is_simultaneous():
    # each image holds the other key, and the node ln(y) holds a key
    e = (y * sp.log(y) + y1**2) / (X + y) + y1 * sp.log(X * y)
    images = {y: X * y1, y1: y + X}
    f = exprcore._substituted(e, images)
    assert sp.srepr(canon(f)) == sp.srepr(canon(e.xreplace(images)))
    pair = exprcore._substituted(exprcore.RingFraction.from_expr(e), images)
    assert sp.srepr(canon(pair)) == sp.srepr(canon(f))


def test_without_radical_reduces_by_the_base():
    g = sp.sqrt(y)
    R = exprcore._ring({X, y, g})
    i = R.symbols.index(g)
    gen = R.gens[i]
    num, den = gen**5 + R(X) * gen**3 + gen, R(X) * gen**2 + gen**4
    out_num, out_den = exprcore._without_radical(num, den, i)
    assert max(m[i] for m in out_num.itermonoms()) < 2
    assert max(m[i] for m in out_den.itermonoms()) < 2
    value = (g**5 + X * g**3 + g) / (X * g**2 + g**4)
    assert canon(out_num.as_expr() / out_den.as_expr() - value) == 0


# --- randomized agreement with an independent dict-based polynomial oracle ---

_ATOMS = [X, y, y1, u, q, PARAMS["k2"]]


def _oracle_add(p1, p2):
    out = dict(p1)
    for mono, c in p2.items():
        out[mono] = out.get(mono, Fraction(0)) + c
        if out[mono] == 0:
            del out[mono]
    return out


def _oracle_mul(p1, p2):
    out = {}
    for m1, c1 in p1.items():
        for m2, c2 in p2.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
            if out[m] == 0:
                del out[m]
    return out


def _rand_poly(rng, max_terms=4, max_deg=4):
    expr = sp.Integer(0)
    poly = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * len(_ATOMS)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(len(_ATOMS))] += 1
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        if coeff == 0:
            continue
        term = sp.Rational(coeff)
        for a, e in zip(_ATOMS, exps):
            term *= a**e
        expr += term
        mono = tuple(exps)
        poly[mono] = poly.get(mono, Fraction(0)) + coeff
        if poly[mono] == 0:
            del poly[mono]
    return expr, poly


def test_zero_test_matches_bruteforce_oracle():
    rng = random.Random(20240811)
    for trial in range(1000):
        e1, p1 = _rand_poly(rng)
        if rng.random() < 0.5:
            # same polynomial, structurally different tree
            e2 = sp.factor(e1) if trial % 2 else sp.expand(e1 * (y + 1)) / (y + 1)
            p2 = dict(p1)
        else:
            e2, p2 = _rand_poly(rng)
        expected = _oracle_add(p1, {m: -c for m, c in p2.items()}) == {}
        assert zero_test(e1 - e2) is expected


def test_canon_addition_property():
    rng = random.Random(7)
    for _ in range(50):
        e1, _ = _rand_poly(rng)
        e2, _ = _rand_poly(rng)
        assert canon(e1 + e2) == canon(canon(e1) + canon(e2))


# --- canon is srepr-identical to sp.cancel(sp.together(e)) ---

_RATIONAL_ATOMS = [X, y, y1, y2, JET[10], u, u1, v, q, COEF_Q[1], k1, PARAMS["theta"]]


def _rand_rational(rng, depth):
    """Nested sums, products, quotients and integer powers of random
    polynomials; quotients get non-monomial denominators, negated half the
    time so the leading coefficient starts out negative."""
    if depth == 0:
        return _rand_atom_poly(rng)
    a, b = _rand_rational(rng, depth - 1), _rand_rational(rng, depth - 1)
    pick = rng.random()
    if pick < 0.25:
        return a + b
    if pick < 0.5:
        return a * b
    if pick < 0.85:
        den = b + rng.choice(_RATIONAL_ATOMS) * sp.Rational(rng.randint(1, 5), rng.randint(1, 3))
        if den == 0:
            return a
        return a / (-den if rng.random() < 0.5 else den)
    return a ** rng.randint(-2, 3) if a != 0 else b


def _rand_atom_poly(rng):
    expr = sp.Integer(0)
    for _ in range(rng.randint(1, 3)):
        term = sp.Rational(rng.randint(-9, 9), rng.randint(1, 6))
        for _ in range(rng.randint(0, 3)):
            term *= rng.choice(_RATIONAL_ATOMS)
        expr += term
    return expr


def _elementary_corpus(rng):
    """ln and exp inputs: random rational cofactors of exp of a sum,
    exp(-2x), ln of a product and of a power, and the C6 objects (the
    transformed equation and Lagrangian, the first-integral components
    and their total derivatives)."""
    nodes = [
        sp.exp(X + k1 * y),
        sp.exp(2 * X + 2 * y1),
        sp.exp(-2 * X),
        sp.log(X * y),
        sp.log(y**3),
        sp.log(2 * X + 2 * y1),
    ]
    corpus = []
    for node in nodes:
        for _ in range(4):
            a, b = _rand_rational(rng, 1), _rand_atom_poly(rng)
            corpus += [a * node + b, a / (node + b + 1), (a + node) ** 2 * node]
    sigma = casebook.example_map()
    corpus.append(transform_equation(DiffEq(JET[4], 4), sigma).delta)
    corpus.append(transform_lagrangian(canonical_lagrangian(4), sigma).density)
    for component in casebook.example_first_integral_components():
        corpus += [component, total_derivative(component)]
    return corpus


def _canon_corpus():
    rng = random.Random(20261018)
    corpus = [_rand_rational(rng, rng.randint(1, 3)) for _ in range(150)]
    corpus += _elementary_corpus(rng)
    ctx = SourceContext.make_symbolic()
    for n in (4, 6):
        delta = build_lode(n, ctx).delta
        corpus += [delta, y * delta / 2, delta / (u1 - q * u), (delta - y1 * q) / (q * y - v1)]
    for n in (2, 4, 6):
        sigma = source_transformation(n, ctx)
        corpus.append(transform_lagrangian(canonical_lagrangian(n), sigma).density)
        corpus.append(transformed_lagrangian(n, ctx).density)
    return corpus


def test_canon_matches_cancel_together():
    for e in _canon_corpus():
        assert sp.srepr(canon(e)) == sp.srepr(sp.cancel(sp.together(e))), e


def test_case_sorts_each_generator_set_once_and_moves_no_pair_by_set_ring(monkeypatch):
    sorted_sets, set_ring_calls = [], []
    sort_gens, set_ring = exprcore._sort_gens, PolyElement.set_ring

    def counted_sort(gens, **args):
        sorted_sets.append(frozenset(gens))
        return sort_gens(gens, **args)

    def counted_set_ring(self, ring):
        set_ring_calls.append(ring)
        return set_ring(self, ring)

    monkeypatch.setattr(exprcore, "_sort_gens", counted_sort)
    monkeypatch.setattr(PolyElement, "set_ring", counted_set_ring)
    report = casebook.run_case("C3")
    assert report.claims
    assert max(Counter(sorted_sets).values(), default=0) <= 1
    assert set_ring_calls == []


def _generator_corpus() -> list:
    """Every registry symbol and parameter, E, and ln, exp and radical
    generators as :func:`exprcore._generators` reads them."""
    nodes = exprcore._generators(
        sp.log(y) + sp.log(X**2 + 1) + sp.exp(X) + sp.exp(y1 / X) + sp.sqrt(X + y) + sp.cbrt(q) * sp.E
        + sp.sqrt(u1) + sp.log(JET[10]) + PARAMS["theta"] ** sp.Rational(3, 2)
    )
    return [*exprcore._REGISTRY.values(), *(g for g in nodes if not g.is_Symbol)]


def test_cached_key_sorts_as_sort_gens():
    corpus = _generator_corpus()
    assert sp.E in corpus and any(isinstance(g, sp.log) for g in corpus) and any(g.is_Pow for g in corpus)
    rng = random.Random(20261023)
    samples = [corpus, corpus[::-1]]
    samples += [rng.sample(corpus, rng.randint(1, 30)) for _ in range(300)]
    for gens in samples:
        assert exprcore._sort_gens(gens) == _sort_gens(gens), gens


def test_jet_rejects_an_order_outside_the_registry():
    assert exprcore.jet(3) is JET[3]
    with pytest.raises(ValueError, match="jet order 25 outside supported range"):
        exprcore.jet(25)


def test_partial_rejects_a_non_atom():
    with pytest.raises(ValueError, match="partial expects an atom symbol"):
        partial(X, X + 1)


def test_a_function_outside_the_grammar_is_not_rational():
    assert exprcore.is_rational_expr(sp.sin(X)) is False
    with pytest.raises(UnsupportedForm):
        exprcore._generators(sp.sin(X))
