"""Differential operators on the jet space of one independent variable.

Total derivative, prolongation of point vector fields, Euler-Lagrange
operator, Frechet derivative and its formal adjoint, and an inverse total
derivative for exact differential polynomials.

Every operator takes an optional ``rates`` overlay: a mapping from extra
symbols to their x-derivatives, used when expressions carry atoms with a
prescribed x-dependence (concrete solution pairs, radicals, exponentials),
and by a symbolic source context for the source equation itself: u' and v'
have the rates -q u and -q v, so u'' and higher never appear.

Each operator is written once, over an operator algebra chosen per call.
Rational input with rational rates runs in the sparse ring QQ[G] that
:func:`exprcore.canon` uses, G being the input's atoms closed under the
rate table for as many D_x steps as the operator takes: values are
(numerator, denominator) pairs, D_x is sum_g dp/dg * rate(g) with the
quotient rule for denominators, and the result becomes a sympy expression
once per call.  Input with ln/exp/radical nodes, or rates that are not
rational, runs on sympy trees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import sympy as sp
from sympy.polys.polyutils import _sort_gens

from . import exprcore
from .exprcore import (
    JET,
    MAX_JET_ORDER,
    X,
    RingFraction,
    canon,
    max_jet_order,
    top_order,
    zero_test,
)

_BASE_RATES = exprcore.base_rates()
_BASE_RATE_ATOMS = {s: frozenset(r.free_symbols) for s, r in _BASE_RATES.items()}
_JETS = frozenset(JET)


class JetOrderLimit(RuntimeError):
    """A total derivative would need a jet beyond the registry."""


class NotExact(ValueError):
    """The expression is not a total x-derivative."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _quotient_rule(num, den, dnum, dden, scale):
    """(dnum*den - num*dden) / (scale*den^2), with gcd(den, dden) cancelled."""
    g = den.gcd(dden)
    cofactor = den.exquo(g)
    return RingFraction(dnum * cofactor - num * dden.exquo(g), scale * den * cofactor)


class _RingAlgebra:
    """QQ[gens] with the rate table compiled to ring elements.

    A rate that is a generator (the ladder shifts) or 1 (x) acts on a
    monomial by moving one exponent; any other rate is a (num, den) pair
    multiplied into the partial derivative.  gens must be closed under the
    rates of every generator an operator differentiates.
    """

    def __init__(self, gens, rates_key):
        R = exprcore._ring(gens)
        self.ring = R
        self.gen_of = dict(zip(R.symbols, R.gens))
        index = {s: i for i, s in enumerate(R.symbols)}
        overlay = dict(rates_key)
        shift = [None] * len(gens)  # rate is generator j (j >= 0) or 1 (j = -1)
        general = {}  # generator index -> (num, den) of any other rate
        for i, s in enumerate(R.symbols):
            rate = overlay[s] if s in overlay else _BASE_RATES.get(s)
            if rate is None or rate == 0:
                continue
            if rate == 1:
                shift[i] = -1
            elif rate in index:
                shift[i] = index[rate]
            elif rate.free_symbols <= index.keys():
                general[i] = exprcore._as_fraction(rate, R, self.gen_of)
            else:
                general[i] = None  # outside the closure; never differentiated
        self.shift = shift
        self.fixed_shift = [None if s in _JETS else t for s, t in zip(R.symbols, shift)]
        self.general = general
        self.top = index.get(JET[MAX_JET_ORDER])

    def lift(self, e) -> RingFraction:
        return RingFraction(*exprcore._as_fraction(e, self.ring, self.gen_of))

    def jet(self, k) -> RingFraction:
        return RingFraction(self.gen_of[JET[k]], self.ring.one)

    def partial(self, f, s) -> RingFraction:
        g = self.gen_of.get(s)
        if g is None:
            return RingFraction(self.ring.zero, self.ring.one)
        dnum = f.num.diff(g)
        if f.den.is_ground:
            return RingFraction(dnum, f.den)
        dden = f.den.diff(g)
        if not dden:
            return RingFraction(dnum, f.den)
        return _quotient_rule(f.num, f.den, dnum, dden, self.ring.one)

    def dx(self, f, fixed_jets=False) -> RingFraction:
        """D_x, or with fixed_jets the x-derivative through coefficients only."""
        if f.den.is_ground:
            (dnum,), scale = self._dx_polys((f.num,), fixed_jets)
            return RingFraction(dnum, scale * f.den)
        (dnum, dden), scale = self._dx_polys((f.num, f.den), fixed_jets)
        return _quotient_rule(f.num, f.den, dnum, dden, scale)

    def _dx_polys(self, polys, fixed_jets):
        """D_x of each polynomial, as numerators over one common denominator."""
        R = self.ring
        shift = self.fixed_shift if fixed_jets else self.shift
        general, top = self.general, self.top
        shifted, partials = [], []
        for p in polys:
            out, part = {}, {}
            for m, c in p.items():
                for i, e in enumerate(m):
                    if not e:
                        continue
                    t = shift[i]
                    if t is None:
                        if i in general:
                            dm = m[:i] + (e - 1,) + m[i + 1 :]
                            d = part.setdefault(i, {})
                            d[dm] = d[dm] + c * e if dm in d else c * e
                        elif i == top:
                            raise JetOrderLimit("jet order limit exceeded")
                        continue
                    dm = list(m)
                    dm[i] = e - 1
                    if t >= 0:
                        dm[t] += 1
                    dm = tuple(dm)
                    out[dm] = out[dm] + c * e if dm in out else c * e
            shifted.append(out)
            partials.append(part)
        scale = R.one
        for i in {i for part in partials for i in part}:
            if general[i] is None:
                raise RuntimeError(f"rate of {R.symbols[i]} lies outside the ring")
            den = general[i][1]
            if den != scale:
                scale = scale.lcm(den)
        results = []
        for out, part in zip(shifted, partials):
            num = R.dtype({m: c for m, c in out.items() if c})
            if not scale.is_ground or scale.LC != 1:
                num *= scale
            for i, d in part.items():
                rnum, rden = general[i]
                factor = rnum if rden == scale else rnum * scale.exquo(rden)
                num += R.dtype({m: c for m, c in d.items() if c}) * factor
            results.append(num)
        return results, scale


class _TreeAlgebra:
    """The edge path: sympy expressions differentiated with ``sp.diff``."""

    def __init__(self, rates):
        self.table = {**_BASE_RATES, **rates} if rates else _BASE_RATES

    def lift(self, e) -> sp.Expr:
        return e

    def jet(self, k) -> sp.Expr:
        return JET[k]

    def partial(self, e, s) -> sp.Expr:
        return sp.diff(e, s)

    def dx(self, e, fixed_jets=False) -> sp.Expr:
        out = sp.Integer(0)
        for s in e.free_symbols:
            if s is JET[MAX_JET_ORDER]:
                raise JetOrderLimit("jet order limit exceeded")
            rate = None if fixed_jets and s in _JETS else self.table.get(s)
            if rate is not None:
                out += sp.diff(e, s) * rate
        return out


def _rates_key(rates) -> tuple:
    if not rates:
        return ()
    return tuple(sorted(((s, sp.sympify(r)) for s, r in rates.items()), key=lambda kv: str(kv[0])))


@functools.lru_cache(maxsize=64)
def _rate_atoms(rates_key):
    """Atoms of each symbol's rate, or None when some rate is not rational."""
    if not all(exprcore.is_rational_expr(r) for _, r in rates_key):
        return None
    return {**_BASE_RATE_ATOMS, **{s: frozenset(r.free_symbols) for s, r in rates_key}}


@functools.lru_cache(maxsize=256)
def _ring_algebra(gens, rates_key) -> _RingAlgebra:
    return _RingAlgebra(gens, rates_key)


def _algebra(rates, *items):
    """The algebra for (expression, D_x steps) items under a rate table.

    The ring's generators are each expression's atoms closed under the
    rate table for its number of steps.
    """
    key = _rates_key(rates)
    rate_atoms = _rate_atoms(key)
    if rate_atoms is None or not all(exprcore.is_rational_expr(e) for e, _ in items):
        return _TreeAlgebra(rates)
    gens = set()
    for e, steps in items:
        closed = set(e.free_symbols)
        frontier = closed
        for _ in range(steps):
            frontier = set().union(*(rate_atoms.get(g, ()) for g in frontier)) - closed
            if not frontier:
                break
            closed |= frontier
        gens |= closed
    return _ring_algebra(tuple(_sort_gens(gens)), key)


def total_derivative(e, times: int = 1, rates: dict | None = None) -> sp.Expr:
    """Apply the total derivative D_x ``times`` times."""
    e = sp.sympify(e)
    if times == 0:
        return e
    J = _algebra(rates, (e, times))
    f = J.lift(e)
    for _ in range(times):
        f = J.dx(f)
    return f.as_expr()


def dx_fixed_jets(e, rates: dict | None = None) -> sp.Expr:
    """x-derivative through coefficient functions only, jets held fixed."""
    e = sp.sympify(e)
    J = _algebra(rates, (e, 1))
    return J.dx(J.lift(e), fixed_jets=True).as_expr()


@dataclass(frozen=True)
class VectorField:
    """Point vector field xi(x,y) d/dx + psi(x,y) d/dy."""

    xi: sp.Expr
    psi: sp.Expr
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "xi", sp.sympify(self.xi))
        object.__setattr__(self, "psi", sp.sympify(self.psi))
        for c in (self.xi, self.psi):
            if max_jet_order(c) > 0:
                raise ValueError(f"vector field coefficient {c} involves jets")

    def __add__(self, other):
        return VectorField(self.xi + other.xi, self.psi + other.psi)

    def __rmul__(self, scalar):
        return VectorField(scalar * self.xi, scalar * self.psi)

    def apply(self, f, rates: dict | None = None) -> sp.Expr:
        """Action on a base-space function f(x, y)."""
        return self.xi * dx_fixed_jets(f, rates) + self.psi * sp.diff(f, JET[0])


def characteristic(v: VectorField) -> sp.Expr:
    """Evolutionary representative Q = psi - xi*y_x."""
    return sp.expand(v.psi - v.xi * JET[1])


def prolong(v: VectorField, order: int, rates: dict | None = None) -> list:
    """Prolongation coefficients (phi^0, ..., phi^order).

    phi^0 = psi and phi^(k) = D_x^k(Q) + xi*y^(k+1); computed by the
    equivalent recursion phi^(k+1) = D_x(phi^k) - y^(k+1) D_x(xi), which
    keeps each coefficient at jet order k.
    """
    if order < 0:
        raise ValueError("prolongation order must be >= 0")
    jets = ((y, 0) for y in JET[1 : order + 1])
    J = _algebra(rates, (v.xi, max(order, 1)), (v.psi, order), *jets)
    return [phi.as_expr() for phi in _prolong(J, v, order)[0]]


def _prolong(J, v: VectorField, order: int) -> tuple:
    """(phi^0..phi^order, D_x xi) as values of J.

    phi^order holds D_x^order of psi and of xi, so J must close both over
    order steps.
    """
    phis = [J.lift(v.psi)]
    dxi = J.dx(J.lift(v.xi))
    for k in range(order):
        phis.append(J.dx(phis[-1]) - J.jet(k + 1) * dxi)
    return phis, dxi


def apply_prolongation(v: VectorField, e, rates: dict | None = None) -> sp.Expr:
    """pr v applied to an expression: xi*d/dx (jets fixed) + sum phi^k d/dy_k."""
    return _prolonged_action(v, e, rates)[0].as_expr()


def _prolonged_action(v: VectorField, e, rates) -> tuple:
    """(pr v(e), e, D_x xi) as values of one operator algebra."""
    e = sp.sympify(e)
    m = max(max_jet_order(e), 0)
    jets = ((y, 0) for y in JET[1 : m + 1])
    J = _algebra(rates, (v.xi, max(m, 1)), (v.psi, m), (e, 1), *jets)
    f = J.lift(e)
    phis, dxi = _prolong(J, v, m)
    out = J.lift(v.xi) * J.dx(f, fixed_jets=True)
    for k, phi in enumerate(phis):
        out = out + phi * J.partial(f, JET[k])
    return out, f, dxi


@dataclass(frozen=True)
class Lagrangian:
    """Lagrangian density with its declared jet order."""

    density: sp.Expr
    order: int

    def __post_init__(self):
        object.__setattr__(self, "density", sp.sympify(self.density))
        if max_jet_order(self.density) > self.order:
            raise ValueError(
                f"density has jet order {max_jet_order(self.density)} > declared {self.order}"
            )


@dataclass(frozen=True)
class DiffEq:
    """Differential function Delta of declared order n, solvable for y^(n)."""

    delta: sp.Expr
    order: int
    leading: sp.Expr = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "delta", sp.sympify(self.delta))
        if self.order < 1 or max_jet_order(self.delta) != self.order:
            raise ValueError(f"declared order {self.order} does not match {self.delta}")
        lead = sp.diff(self.delta, JET[self.order])
        if sp.diff(lead, JET[self.order]) != 0:
            raise ValueError("equation is not linear in its top derivative")
        if zero_test(lead):
            raise ValueError("leading coefficient is identically zero")
        object.__setattr__(self, "leading", canon(lead))

    @staticmethod
    def from_expr(delta) -> "DiffEq":
        return DiffEq(delta, max_jet_order(delta))

    def monic(self) -> "DiffEq":
        return DiffEq(canon(self.delta / self.leading), self.order)

    def solved_rhs(self) -> sp.Expr:
        """y^(n) = rhs on solutions."""
        rest = self.delta - self.leading * JET[self.order]
        return canon(-rest / self.leading)


def substitute_solved(e, eq: DiffEq, rates: dict | None = None) -> sp.Expr:
    """Eliminate y^(n) and higher jets using the equation and its D_x-consequences."""
    e = sp.sympify(e)
    m = max_jet_order(e)
    if m < eq.order:
        return e
    rhs = eq.solved_rhs()
    while m >= eq.order:
        consequence = total_derivative(rhs, times=m - eq.order, rates=rates)
        # the consequence may itself contain y^(n); clear it first
        consequence = consequence.subs(JET[eq.order], rhs)
        e = sp.together(e.subs(JET[m], consequence))
        m = max_jet_order(e)
    return e


def _alternating_sum(J, terms):
    """sum_k (-D_x)^k terms[k]; each term is differentiated on its own, so
    one reaching past the jet registry raises even where the sum would not."""
    out = terms[0]
    for k, term in enumerate(terms[1:], 1):
        for _ in range(k):
            term = J.dx(term)
        out = out - term if k % 2 else out + term
    return out


def euler(L, rates: dict | None = None) -> sp.Expr:
    """Euler-Lagrange operator E(L) = sum_k (-D_x)^k dL/dy^(k)."""
    return _euler(L, rates).as_expr()


def _euler(L, rates):
    density = L.density if isinstance(L, Lagrangian) else sp.sympify(L)
    m = max_jet_order(density)
    if m < 0:
        return sp.Integer(0)
    J = _algebra(rates, (density, m))
    f = J.lift(density)
    return _alternating_sum(J, [J.partial(f, y) for y in JET[: m + 1]])


def frechet(delta, q, rates: dict | None = None) -> sp.Expr:
    """Frechet derivative D_Delta(Q) = sum_k dDelta/dy^(k) * D_x^k Q."""
    delta = sp.sympify(delta)
    q = sp.sympify(q)
    m = max_jet_order(delta)
    if m < 0:
        return sp.Integer(0)
    J = _algebra(rates, (delta, 0), (q, m))
    f, dq = J.lift(delta), J.lift(q)
    out = J.partial(f, JET[0]) * dq
    for y in JET[1 : m + 1]:
        dq = J.dx(dq)
        out = out + J.partial(f, y) * dq
    return out.as_expr()


def frechet_adjoint(delta, q, rates: dict | None = None) -> sp.Expr:
    """Formal adjoint D_Delta^*(Q) = sum_k (-D_x)^k (Q * dDelta/dy^(k))."""
    delta = sp.sympify(delta)
    q = sp.sympify(q)
    m = max_jet_order(delta)
    if m < 0:
        return sp.Integer(0)
    J = _algebra(rates, (delta, m), (q, m))
    f, g = J.lift(delta), J.lift(q)
    return _alternating_sum(J, [g * J.partial(f, y) for y in JET[: m + 1]]).as_expr()


def inverse_total_derivative(P, rates: dict | None = None, check_exact: bool = True) -> sp.Expr:
    """An F with D_x F = P, for P a total derivative; constant fixed to 0.

    Peels the top jet order: P linear in its highest derivative y^(m) with
    coefficient c contributes the antiderivative of c in y^(m-1); the total
    derivative of that piece is subtracted and the loop recurses.  The same
    peel then runs on the u, v and q derivative ladders of any jet-free
    remainder (differentiating those families never reintroduces jets).  A
    final ladder-free remainder is integrated when it is polynomial in x.
    """
    P = sp.sympify(P)
    if check_exact:
        residual = canon(euler(P, rates=rates))
        if not zero_test(residual):
            raise NotExact("expression is not a total derivative", residual)
    F = sp.Integer(0)
    P = sp.expand(sp.together(P))
    for family in (JET, exprcore.SOL_U, exprcore.SOL_V, exprcore.COEF_Q):
        while True:
            m = top_order(P.free_symbols, family)
            if m <= 0:
                break
            top = family[m]
            c = sp.cancel(sp.diff(P, top))
            if sp.diff(c, top) != 0:
                raise NotExact(f"nonlinear in top derivative {top}", P)
            piece = sp.integrate(c, family[m - 1])
            F += piece
            P = sp.expand(sp.cancel(sp.together(P - total_derivative(piece, rates=rates))))
    if P != 0:
        extra = sp.cancel(P)
        if extra.free_symbols - {X} - exprcore._PARAM_SET or not extra.is_polynomial(X):
            raise NotExact("residue is not a polynomial in x", extra)
        F += sp.integrate(extra, X)
    return sp.expand(F)
