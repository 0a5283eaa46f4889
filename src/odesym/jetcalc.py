"""Differential operators on the jet space of one independent variable.

Total derivative, prolongation of point vector fields, Euler-Lagrange
operator, Frechet derivative and its formal adjoint, and an inverse total
derivative for exact differential polynomials.

Every operator takes an optional ``rates`` overlay: a mapping from extra
symbols to their x-derivatives, used when expressions carry atoms with a
prescribed x-dependence (concrete solution pairs, radicals, exponentials).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from . import exprcore
from .exprcore import JET, MAX_JET_ORDER, X, canon, max_jet_order, zero_test

_BASE_RATES = exprcore.base_rates()


class JetOrderLimit(RuntimeError):
    """A total derivative would need a jet beyond the registry."""


class NotExact(ValueError):
    """The expression is not a total x-derivative."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def total_derivative(e, times: int = 1, rates: dict | None = None) -> sp.Expr:
    """Apply the total derivative D_x ``times`` times."""
    e = sp.sympify(e)
    table = _BASE_RATES if not rates else {**_BASE_RATES, **rates}
    for _ in range(times):
        out = sp.Integer(0)
        for s in e.free_symbols:
            if s is JET[MAX_JET_ORDER]:
                raise JetOrderLimit("jet order limit exceeded")
            rate = table.get(s)
            if rate is None:
                continue  # parameters and opaque constants
            out += sp.diff(e, s) * rate
        e = out
    return e


def dx_fixed_jets(e, rates: dict | None = None) -> sp.Expr:
    """x-derivative through coefficient functions only, jets held fixed."""
    e = sp.sympify(e)
    out = total_derivative(e, rates=rates)
    for k in range(max_jet_order(e) + 1):
        out -= JET[k + 1] * sp.diff(e, JET[k])
    return out


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
    phis = [sp.sympify(v.psi)]
    dxi = total_derivative(v.xi, rates=rates)
    for k in range(order):
        phis.append(sp.expand(total_derivative(phis[-1], rates=rates) - JET[k + 1] * dxi))
    return phis


def apply_prolongation(v: VectorField, e, rates: dict | None = None) -> sp.Expr:
    """pr v applied to an expression: xi*d/dx (jets fixed) + sum phi^k d/dy_k."""
    e = sp.sympify(e)
    m = max(max_jet_order(e), 0)
    phis = prolong(v, m, rates)
    out = v.xi * dx_fixed_jets(e, rates)
    for k in range(m + 1):
        out += phis[k] * sp.diff(e, JET[k])
    return out


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
    rhs = eq.solved_rhs()
    while True:
        m = max_jet_order(e)
        if m < eq.order:
            return e
        consequence = rhs
        for _ in range(m - eq.order):
            consequence = total_derivative(consequence, rates=rates)
        # the consequence may itself contain y^(n); clear it first
        consequence = consequence.subs(JET[eq.order], rhs)
        e = sp.together(e.subs(JET[m], consequence))


def euler(L, rates: dict | None = None) -> sp.Expr:
    """Euler-Lagrange operator E(L) = sum_k (-D_x)^k dL/dy^(k)."""
    density = L.density if isinstance(L, Lagrangian) else sp.sympify(L)
    out = sp.Integer(0)
    for k in range(max_jet_order(density) + 1):
        term = sp.diff(density, JET[k])
        if term == 0:
            continue
        term = total_derivative(term, times=k, rates=rates) if k else term
        out += (-1) ** k * term
    return sp.expand(out)


def frechet(delta, q, rates: dict | None = None) -> sp.Expr:
    """Frechet derivative D_Delta(Q) = sum_k dDelta/dy^(k) * D_x^k Q."""
    delta = sp.sympify(delta)
    out = sp.Integer(0)
    dq = sp.sympify(q)
    for k in range(max_jet_order(delta) + 1):
        out += sp.diff(delta, JET[k]) * dq
        dq = total_derivative(dq, rates=rates)
    return sp.expand(out)


def frechet_adjoint(delta, q, rates: dict | None = None) -> sp.Expr:
    """Formal adjoint D_Delta^*(Q) = sum_k (-D_x)^k (Q * dDelta/dy^(k))."""
    delta = sp.sympify(delta)
    q = sp.sympify(q)
    out = sp.Integer(0)
    for k in range(max_jet_order(delta) + 1):
        term = q * sp.diff(delta, JET[k])
        if term == 0:
            continue
        term = total_derivative(term, times=k, rates=rates) if k else term
        out += (-1) ** k * term
    return sp.expand(out)


def _top_ladder_order(e, family) -> int:
    free = e.free_symbols
    return max((k for k in range(MAX_JET_ORDER + 1) if family[k] in free), default=-1)


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
            m = _top_ladder_order(P, family)
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
