"""Symmetry classifiers and first integrals.

Three checks on a point vector field: Lie point symmetry of an equation
(prolonged action vanishes on solutions), variational symmetry of a
Lagrangian (the invariance expression S(v) vanishes identically), and
divergence symmetry of an equation (Q*Delta is a total derivative, tested
through the Euler operator).  First integrals pair an expression F with a
characteristic Q so that D_x F = Q*Delta exactly.

Each check reduces its residual to one canonical (numerator, denominator)
pair and decides on that pair with ``zero_test``.  The verdict, and a
refusal of :func:`first_integral`, carries that pair to the claim status,
whose ``witnessed`` certifies a refutation on it: a residual is lifted
into the ring once, by the check, and becomes an expression only where
it is printed, by the grammar's direct printer.  A first integral is its
pair too: F comes from the peel (``jetcalc._peel``) as a pair of the
peel's algebra, D_x F - Q*Delta is verified in that algebra, and F, Q
and the verified residual are printed only when read.

A divergence verdict and a first integral are decided once per process:
:func:`divergence_check` and :func:`first_integral` share one bounded memo
(:func:`_decided_once`) for the context None and for symbolic contexts.
"""

from __future__ import annotations

import collections
import functools
import threading
from dataclasses import dataclass

import sympy as sp

from . import grammar, jetcalc
from .exprcore import JET, RingFraction, _canonical_pair, canon, zero_test
from .jetcalc import (
    DiffEq,
    Lagrangian,
    VectorField,
    characteristic,
)
from .maxsym import SourceContext


class _Residual:
    """Carries the residual a check decided on: pair is its canonical pair
    (an expression is accepted too), witness its expression, printed when
    first read."""

    @functools.cached_property
    def witness(self) -> sp.Expr:
        return sp.sympify(self.pair)


class _Refusal(_Residual, ValueError):
    """A first integral refused on a nonzero residual."""

    def __init__(self, message, pair=None):
        super().__init__(message)
        self.pair = pair


class NotADivergenceSymmetry(_Refusal):
    """first_integral called with a field that fails the divergence check;
    the residual is E(Q*Delta)."""


class NotFirstIntegral(_Refusal):
    """D_x F is not a differential-function multiple of the equation."""


@dataclass(frozen=True)
class SymmetryVerdict(_Residual):
    """Outcome of a symmetry check; its residual is 0 when the check holds."""

    kind: str
    holds: bool
    pair: RingFraction


@dataclass(frozen=True)
class FirstIntegral(_Residual):
    """F with the characteristic Q of a field such that D_x F = Q*Delta.

    ``value`` is F as a pair, the sum of its peel ``pieces``, and ``pair``
    the residual D_x F - Q*Delta that was verified zero; ``expr`` (F
    printed by :func:`jetcalc._integral`), ``q`` and ``witness`` are
    prints, made when first read.
    """

    value: RingFraction
    pieces: tuple
    field: VectorField
    equation: DiffEq
    pair: RingFraction

    @functools.cached_property
    def expr(self) -> sp.Expr:
        return jetcalc._integral(self.value, self.pieces)

    @functools.cached_property
    def q(self) -> sp.Expr:
        return characteristic(self.field)


def _reduce(e, ctx: SourceContext | None):
    """The canonical pair of e, reduced by the context's relations if any."""
    return ctx._reduce_pair(e) if ctx is not None else _canonical_pair(e)


def _verdict(kind: str, residual) -> SymmetryVerdict:
    """Decided on the canonical pair; the witness is its expression."""
    return SymmetryVerdict(kind, zero_test(residual), residual)


def _rates(ctx: SourceContext | None):
    """The context's own rates: each check reduces once, at the end; under the
    peel's ``deriv_rates()`` the divergence check is as exact but twice as slow."""
    return ctx.rates if ctx is not None else None


class _Memo:
    """A bounded map from keys to frozen values, the least recently used
    evicted first.  Each read and write holds the lock; a value is computed
    outside it, so two threads that miss one key may both compute it, and
    they get equal values."""

    def __init__(self, size: int):
        self.size = size
        self.lock = threading.Lock()
        self.values = collections.OrderedDict()

    def get(self, key):
        with self.lock:
            value = self.values.get(key)
            if value is not None:
                self.values.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self.lock:
            self.values[key] = value
            self.values.move_to_end(key)
            if len(self.values) > self.size:
                self.values.popitem(last=False)

    def clear(self) -> None:
        with self.lock:
            self.values.clear()


# The verdicts and first integrals decided in this process: room for a
# verdict and an integral of every generator at every order the builders
# accept (2 * the sum of n + 4 over n = 2..24 is 782).
_DECIDED = _Memo(1024)


def _decided_once(decide):
    """decide(v, eq, ctx), served from :data:`_DECIDED` when ctx is None or
    symbolic.  The key is the field's two pairs, the equation's pair and
    order, and the context: None, or the symbolic context's rates, under
    which it reduces by the source relations.  A concrete context bypasses
    the memo, a call that raises stores nothing, and ``__wrapped__`` is
    decide itself."""

    @functools.wraps(decide)
    def decided(v: VectorField, eq: DiffEq, ctx: SourceContext | None = None):
        if ctx is not None and not ctx.symbolic:
            return decide(v, eq, ctx)
        rates = None if ctx is None else frozenset(ctx.rates.items())
        key = (decide.__name__, *((f.num, f.den) for f in v.pairs), eq.pair.num, eq.pair.den, eq.order, rates)
        value = _DECIDED.get(key)
        if value is None:
            value = decide(v, eq, ctx)
            _DECIDED.put(key, value)
        return value

    return decided


def invariance_expression(v: VectorField, L: Lagrangian, ctx: SourceContext | None = None) -> sp.Expr:
    """S(v) = pr v (L) + L * D_x xi, the variational invariance residual."""
    return _invariance(v, L.pair, ctx).as_expr()


def _invariance(v: VectorField, density, ctx: SourceContext | None):
    """S(v) of a density (an expression or a pair) as a value of the
    algebra of its prolonged action."""
    action, density, dxi = jetcalc._prolonged_action(v, density, _rates(ctx))
    return action + density * dxi


def lie_symmetry_check(v: VectorField, eq: DiffEq, ctx: SourceContext | None = None) -> SymmetryVerdict:
    """Prolonged action of v on Delta, reduced on the solution manifold."""
    rates = _rates(ctx)
    action = jetcalc._prolonged_action(v, eq.pair, rates)[0]
    return _verdict("lie", _reduce(jetcalc._on_shell(action, eq, rates), ctx))


def variational_check(v: VectorField, L: Lagrangian, ctx: SourceContext | None = None) -> SymmetryVerdict:
    """Off-shell test S(v) = 0 identically in all jet variables."""
    return _verdict("variational", _reduce(_invariance(v, L.pair, ctx), ctx))


@_decided_once
def divergence_check(v: VectorField, eq: DiffEq, ctx: SourceContext | None = None) -> SymmetryVerdict:
    """Test E(Q*Delta) = 0, Q the characteristic of v formed in E's algebra."""
    residual = jetcalc._euler(_rates(ctx), v, eq.pair)
    return _verdict("divergence", _reduce(residual, ctx))


@_decided_once
def first_integral(v: VectorField, eq: DiffEq, ctx: SourceContext | None = None) -> FirstIntegral:
    """Noether-style first integral of a divergence symmetry.

    F is the inverse total derivative of Q*Delta, computed with the
    context's reduced derivative table (Q*Delta is exact in the quotient
    algebra, not as a free differential polynomial).  Q*Delta is formed
    from the field's and the equation's pairs in one algebra, the peel
    returns F as a pair of its algebra, and the identity D_x F - Q*Delta = 0 is
    verified exactly in that algebra, with no lift, and stored.

    The check comes first and is memoised: a refusal is never stored, and
    a repeated one raises a new exception from the memoised verdict.  A
    memoised integral is returned as it was made, so its ``field`` and
    ``equation`` equal the given ones in value.
    """
    verdict = divergence_check(v, eq, ctx)
    if not verdict.holds:
        raise NotADivergenceSymmetry(f"E(Q*Delta) = {grammar.sympy_text(verdict.witness)} != 0", verdict.pair)
    product = _reduce(jetcalc._product(None, 0, v, eq.pair)[1], ctx)
    F, pieces, J = jetcalc._peel(product, ctx.deriv_rates() if ctx is not None else None)
    witness = _reduce(J.dx(F) - product, ctx)
    if not zero_test(witness):
        raise NotFirstIntegral("inverse derivative failed verification", witness)
    return FirstIntegral(F, pieces, v, eq, witness)


def verify_first_integral(F, eq: DiffEq, ctx: SourceContext | None = None) -> sp.Expr:
    """The multiplier mu with D_x F = mu * (y^(n) - rhs) on F brought below
    order n, if one exists: mu multiplies the monic equation, not Delta.

    Works by division against y^(n) - rhs: F is first brought below order
    n on solutions, so D_x F is linear in y^(n) with cofactor mu, and the
    remainder D_x F - mu*(y^(n) - rhs) is D_x F with y^(n) eliminated.
    D_x F and mu are values of one operator algebra, and the remainder is
    the pair of D_x F on solutions: no step becomes a tree.
    """
    rates = ctx.deriv_rates() if ctx is not None else None
    f = jetcalc._on_shell(F, eq, rates)
    J = jetcalc._algebra(rates, (f, 1))
    r = J.dx(J.lift(f))
    remainder = _reduce(jetcalc._on_shell(r, eq, rates), ctx)
    if not zero_test(remainder):
        raise NotFirstIntegral("nonzero remainder after division", remainder)
    return canon(J.partial(r, JET[eq.order]))


def divergence_relation_check(
    L0: Lagrangian, P, theta, v: VectorField, ctx: SourceContext | None = None
) -> SymmetryVerdict:
    """Linearity of S across equivalent Lagrangians L = theta*L0 + D_x P.

    D_x P, S(L), S(L0) and S(D_x P) are pairs, and their combination
    S(L) - theta*S(L0) - S(D_x P) is reduced once.  A theta of 1 is neither
    lifted nor multiplied.
    """
    dP = jetcalc.derivative_ladder(P, 1, _rates(ctx))[1]
    times_theta = (lambda f: f) if theta == 1 else (lambda f: f * theta)
    s, s0, sdP = (_invariance(v, e, ctx) for e in (times_theta(L0.pair) + dP, L0.pair, dP))
    return _verdict("variational", _reduce(s - times_theta(s0) - sdP, ctx))
