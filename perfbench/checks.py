"""Reference identities that the benchmark uses to check program outputs.

The checks run outside the timed requests and use their own arithmetic:
symbolic-q outputs are converted to sparse polynomials over QQ
(``sympy.polys.rings``) and differentiated with a fixed derivative table,

    u' = u1, u1' = -q u, v' = v1, v1' = -q v, i' = -q - i^2 (i = u1/u),
    y_k' = y_{k+1}, q_k' = q_{k+1},

so no odesym operator is involved.  A monic linear operator of order n is
the maximal-symmetry equation Delta_n exactly when it annihilates the n
products u^(n-1-k) v^k of source solutions, because n independent
solutions fix a monic order-n equation.

Concrete-q outputs use the coefficient q = -a(a-1)/x^2, whose source pair
u = x^a, v = x^(1-a) makes every solution u^(n-1-k) v^k a power of x.
"""

from __future__ import annotations

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

from odesym.exprcore import COEF_Q, JET, MAX_JET_ORDER, SOL_U, SOL_V, X

I_SYM = sp.Symbol("i_", positive=True)  # shorthand for u1/u

_SYMS = [SOL_U[0], SOL_U[1], SOL_V[0], SOL_V[1], I_SYM, *JET, *COEF_Q[: MAX_JET_ORDER + 1]]
R, *_GENS = ring(_SYMS, QQ)
U, U1, V, V1, I = _GENS[:5]
Y = _GENS[5 : 5 + MAX_JET_ORDER + 1]
Q = _GENS[6 + MAX_JET_ORDER :]
_SOLUTION_GENS = (U, U1, V, V1, I)

_RATE = {U: U1, U1: -Q[0] * U, V: V1, V1: -Q[0] * V, I: -Q[0] - I**2}
for _k in range(MAX_JET_ORDER):
    _RATE[Y[_k]] = Y[_k + 1]
    _RATE[Q[_k]] = Q[_k + 1]
_INDEX = {g: j for j, g in enumerate(_GENS)}


class NotPolynomial(ValueError):
    """An output could not be written over the check ring."""


def to_ring(e):
    e = sp.expand(sp.sympify(e))
    try:
        return R(e)
    except ValueError as err:
        raise NotPolynomial(str(err)) from err


def dx(p):
    """Total derivative of a ring element."""
    present = {j for mon in p.itermonoms() for j, e in enumerate(mon) if e}
    out = R.zero
    for j in present:
        g = _GENS[j]
        if g is Y[MAX_JET_ORDER] or g is Q[MAX_JET_ORDER]:
            raise NotPolynomial("derivative leaves the check ring")
        out += p.diff(g) * _RATE[g]
    return out


def _jet_order(p) -> int:
    return max((k for k, g in enumerate(Y) if p.degree(g) > 0), default=-1)


def euler(p):
    """Euler-Lagrange expression sum_k (-D_x)^k dL/dy_k."""
    out = R.zero
    for k in range(_jet_order(p) + 1):
        term = p.diff(Y[k])
        for _ in range(k):
            term = -dx(term)
        out += term
    return out


def is_maximal_lode(delta, n: int) -> bool:
    """delta is the monic order-n equation annihilating u^(n-1-k) v^k."""
    if _jet_order(delta) != n or delta.diff(Y[n]) != 1:
        return False
    if any(delta.degree(g) > 0 for g in _SOLUTION_GENS):
        return False
    coeffs = [delta.diff(Y[j]) for j in range(n + 1)]
    if delta != sum((c * Y[j] for j, c in enumerate(coeffs)), R.zero):
        return False  # not linear and homogeneous in the jets
    for k in range(n):
        d = U ** (n - 1 - k) * V**k
        total = R.zero
        for j in range(n + 1):
            total += coeffs[j] * d
            if j < n:
                d = dx(d)
        if total != 0:
            return False
    return True


def substitute_shorthand(e):
    """Rewrite u1 as i*u; the result must be free of u."""
    e = sp.cancel(sp.sympify(e).xreplace({SOL_U[1]: I_SYM * SOL_U[0]}))
    if SOL_U[0] in e.free_symbols:
        raise NotPolynomial("u does not cancel after u1 = i*u")
    return e


def lagrangian_matches(density, n: int) -> bool:
    """E(L) = Delta_n for a symbolic-q Lagrangian of order n/2."""
    return is_maximal_lode(euler(to_ring(substitute_shorthand(density))), n)


def first_integral_wy_matches(F, n: int) -> bool:
    """D_x F = y * Delta_n, the Noether identity of W_y (Q = y)."""
    quotient, remainder = dx(to_ring(F)).div(Y[0])
    return remainder == 0 and is_maximal_lode(quotient, n)


# --- concrete coefficient q = -a(a-1)/x^2 -----------------------------------


def power_q(a) -> sp.Expr:
    a = sp.Rational(a)
    return -a * (a - 1) / X**2


def power_lode_matches(delta, n: int, a) -> bool:
    """delta is Delta_n at q = -a(a-1)/x^2."""
    delta = sp.expand(sp.sympify(delta))
    if delta.free_symbols - {X, *JET[: n + 1]}:
        return False
    if sp.diff(delta, JET[n]) != 1 or any(sp.diff(delta, JET[j], 2) != 0 for j in range(n + 1)):
        return False
    a = sp.Rational(a)
    for k in range(n):
        p = a * (n - 1 - k) + (1 - a) * k
        images = {JET[j]: sp.ff(p, j) * X ** (p - j) for j in range(n + 1)}
        if sp.cancel(delta.xreplace(images)) != 0:
            return False
    return True


def power_first_integral_wy_matches(F, n: int, a) -> bool:
    F = sp.sympify(F)
    DF = sp.diff(F, X) + sum(JET[j + 1] * sp.diff(F, JET[j]) for j in range(n))
    return power_lode_matches(sp.cancel(DF / JET[0]), n, a)


# --- closed forms ------------------------------------------------------------


def canonical_lagrangian(n: int) -> sp.Expr:
    m = n // 2
    return (-1) ** m * JET[m] ** 2 / 2


def generator_table(n: int) -> dict:
    """The n+4 generators as (xi, psi), written out from the paper."""
    u, u1, v, v1, y = SOL_U[0], SOL_U[1], SOL_V[0], SOL_V[1], JET[0]
    table = {f"V{k}": (0, u ** (n - 1 - k) * v**k) for k in range(n)}
    table["Wy"] = (0, y)
    table[f"F{n}"] = (u**2, (n - 1) * u * u1 * y)
    table[f"G{n}"] = (2 * u * v, (n - 1) * (u * v1 + u1 * v) * y)
    table[f"H{n}"] = (-(v**2), -(n - 1) * v * v1 * y)
    return table


def same(a, b) -> bool:
    return sp.cancel(sp.sympify(a) - sp.sympify(b)) == 0
