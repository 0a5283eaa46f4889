"""Structures specific to ODEs of maximal symmetry.

Everything here is generated by a solution pair (u, v) of the second-order
source equation y'' + q(x) y = 0 with unit Wronskian: the rewrite context
whose rates are that equation, the n+4 symmetry generators, the
order-n linear equation Delta_n by its three-term recurrence, the source
transformation (tests check that it carries w^(n) = 0 to Delta_n), and
three Lagrangian families (canonical, transformed, natural).

The symbolic objects depend on the order alone, so each process builds the
generators, Delta_n and the transformed and natural Lagrangians once per
order, in one bounded memo per builder, and every caller shares that
frozen value; a concrete context gets it reduced in the ring, as the
generators are by :meth:`GeneratorSet.specialize`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import sympy as sp

from . import transform as _transform
from .exprcore import (
    COEF_Q,
    JET,
    MAX_JET_ORDER,
    SOL_U,
    SOL_V,
    X,
    RingFraction,
    _canonical_pair,
    _generators,
    _substituted,
    zero_test,
)
from .jetcalc import (
    DiffEq,
    Lagrangian,
    VectorField,
    _algebra,
    _euler,
    _prolonged_action,
    derivative_ladder,
    ladder_images,
    total_derivative,
)


class BadOrder(ValueError):
    """Equation order outside the supported range."""


class OddOrder(ValueError):
    """A Lagrangian construction was requested for an odd-order equation."""


class EliminationFailed(RuntimeError):
    """Residual solution-symbol dependence survived the reduction; no
    builder raises it now, and the CLI maps it to exit 3."""

    def __init__(self, residue):
        super().__init__(f"u/v dependence not eliminated: {residue}")
        self.residue = residue


# The source equation u'' = -q u, v'' = -q v as the x-derivatives of u', v'.
_RATES = {SOL_U[1]: -COEF_Q[0] * SOL_U[0], SOL_V[1]: -COEF_Q[0] * SOL_V[0]}
# v' solved from the unit Wronskian u v' - u' v = 1.
_V1 = (1 + SOL_U[1] * SOL_V[0]) / SOL_U[0]
# The symbolic context's u, v, q and Wronskian, and the ladders it
# substitutes with their roots u'' = -q u and v' = (1 + u'v)/u, as pairs
# lifted once per process.
_SYMBOLIC_PAIRS = tuple(map(_canonical_pair, (SOL_U[0], SOL_V[0], COEF_Q[0], 1)))
_SYMBOLIC_ROOTS = ((SOL_U[2:], _canonical_pair(-COEF_Q[0] * SOL_U[0])), (SOL_V[1:], _canonical_pair(_V1)))


class SourceContext:
    """Rewrite context of a source-equation solution pair.

    The symbolic context is the one whose rates are the source equation
    u'' = -q u, v'' = -q v: operators run under it never produce u^(k) or
    v^(k) with k >= 2.  A concrete context has explicit values of u, v and
    q, with ``rates`` supplying x-derivatives of any opaque atoms they use.
    u, v, q and the Wronskian are held as given (``values``), each an
    expression or a pair; ``pairs`` are their canonical pairs, lifted when
    first read (the symbolic context's are lifted once per process), and
    ``u``, ``v``, ``q`` and ``wronskian`` are prints, made when first read.
    Reduction substitutes ladders of pairs in the ring, one root per
    ladder: u'' -> -q u and v' -> (1 + u'v)/u (the unit Wronskian
    u*v' - u'*v = 1) in symbolic mode, u, v and q -> their pairs in
    concrete mode.
    """

    def __init__(self, u, v, q, rates=None, wronskian=sp.Integer(1)):
        self.values = tuple(c if isinstance(c, RingFraction) else sp.sympify(c) for c in (u, v, q, wronskian))
        self.rates = dict(rates) if rates else {}
        self.symbolic = self.values[0] is SOL_U[0]

    u, v, q, wronskian = (functools.cached_property(lambda self, i=i: sp.sympify(self.values[i])) for i in range(4))

    @functools.cached_property
    def pairs(self) -> tuple:
        """(u, v, q, Wronskian) as canonical pairs."""
        return _SYMBOLIC_PAIRS if self.symbolic else tuple(map(_canonical_pair, self.values))

    @staticmethod
    def make_symbolic() -> "SourceContext":
        return SourceContext(SOL_U[0], SOL_V[0], COEF_Q[0], rates=_RATES)

    @staticmethod
    def from_solutions(u, v, rates=None) -> "SourceContext":
        """Context generated by a concrete solution pair, each solution an
        expression or a pair.

        Validates that u and v solve the same source equation and that
        their Wronskian is a nonzero constant (not necessarily 1; every
        claim checked against a concrete context is invariant under
        constant rescaling of the pair).  u', u'', v' and v'' are pairs of
        one :func:`jetcalc.derivative_ladder` per solution, each test is
        decided on a pair (D_x of the Wronskian u v' - u' v is u v'' - u'' v),
        and the context is given the q and Wronskian pairs decided on.
        """
        (u0, u1, u2), (v0, v1, v2) = (derivative_ladder(e, 2, rates) for e in (u, v))
        q = _canonical_pair(-u2 / u0)
        if not zero_test(v2 + q * v0):
            raise ValueError("v does not solve the source equation of u")
        w = _canonical_pair(u0 * v1 - u1 * v0)
        if not zero_test(u0 * v2 - u2 * v0):
            raise ValueError("Wronskian is not constant")
        if zero_test(w):
            raise ValueError("solution pair is linearly dependent")
        return SourceContext(u, v, q, rates=rates, wronskian=w)

    @staticmethod
    def zero_q() -> "SourceContext":
        return SourceContext.from_solutions(sp.Integer(1), X)

    def dx(self, e, times: int = 1) -> sp.Expr:
        return total_derivative(e, times=times, rates=self.rates)

    def deriv_rates(self) -> dict:
        """Derivative table closed over the reduced coordinates (u, u', v, q).

        v differentiates through the Wronskian relation to (1 + u'v)/u and
        u'' collapses to -q*u, so repeated total derivatives never leave
        the reduced algebra.
        """
        return {SOL_V[0]: _V1, **self.rates} if self.symbolic else self.rates

    def reduce(self, e) -> sp.Expr:
        """Normal form of an expression modulo the source-equation relations.

        e (an expression or a RingFraction) has each member of a ladder
        replaced by the derivative of the ladder's root under
        :meth:`deriv_rates` (:func:`jetcalc.ladder_images`), in the ring
        (:func:`exprcore._substituted`), and goes to its canonical pair.
        The roots are the pairs of u'' -> -q u and v' -> (1 + u'v)/u in
        symbolic mode, and of u, v, q -> the context's values in concrete
        mode.  The result is the expression of that pair, as :func:`canon`
        prints it.
        """
        return self._reduce_pair(e).as_expr()

    def _reduce_pair(self, e):
        """The canonical pair whose expression :meth:`reduce` returns."""
        roots = _SYMBOLIC_ROOTS if self.symbolic else tuple(zip((SOL_U, SOL_V, COEF_Q), self.pairs))
        used, rates = _generators(e), self.deriv_rates()
        images = (ladder_images(family, root, used, rates) for family, root in roots)
        return _canonical_pair(_substituted(e, {s: a for m in images for s, a in m.items()}))


def specialize_q(e, q) -> sp.Expr:
    """e with q, q', q'', ... replaced by a concrete q(x) and its derivatives.

    u and v stay formal; the derivatives are those of a concrete reduction,
    substituted in the ring, and the result is canonical.
    """
    return _specialized(e, q).as_expr()


def _specialized(e, q):
    """The canonical pair whose expression :func:`specialize_q` returns."""
    return _canonical_pair(_substituted(e, ladder_images(COEF_Q, sp.sympify(q), _generators(e))))


# Bound of each memo: one entry for every order the jet registry holds.
_ORDERS = MAX_JET_ORDER + 1


def _order(n: int, even: bool = False) -> int:
    """n, when the library builds objects of order n: at most the jet
    registry's limit, even for a Lagrangian construction, and at least 2."""
    if n > MAX_JET_ORDER:
        raise BadOrder(f"order {n} exceeds the jet registry limit {MAX_JET_ORDER}")
    if even and n % 2:
        raise OddOrder(f"no Lagrangian construction for odd order {n}")
    if n < 2:
        raise BadOrder(f"order must be >= 2, got {n}")
    return n


@dataclass(frozen=True)
class GeneratorSet:
    """The n+4 point-symmetry generators of a maximal-symmetry equation."""

    n: int
    solution: tuple  # V_0 ... V_{n-1}, the abelian ideal
    homogeneity: VectorField  # W_y
    special: tuple  # (F_n, G_n, H_n), the sl2 triplet

    def __iter__(self):
        yield from self.solution
        yield self.homogeneity
        yield from self.special

    def by_name(self) -> dict:
        names = {f"V{k}": vf for k, vf in enumerate(self.solution)}
        names["Wy"] = self.homogeneity
        names[f"F{self.n}"], names[f"G{self.n}"], names[f"H{self.n}"] = self.special
        return names

    def specialize(self, ctx: "SourceContext") -> "GeneratorSet":
        """Generators with a concrete solution pair substituted: each
        coefficient pair reduced by the context, and not printed."""
        conv = lambda vf: VectorField(*map(ctx._reduce_pair, vf.pairs), name=vf.name)
        return GeneratorSet(self.n, tuple(map(conv, self.solution)), conv(self.homogeneity),
                            tuple(map(conv, self.special)))


def _memoised_by_order(builder):
    """builder(n, ctx), served from one bounded per-process memo of
    builder(n) when ctx is None or symbolic, and as that value's pair
    reduced by a concrete context.  Any symbolic context reduces by the
    source relations, whatever its rates, so the memo's value is its
    answer.  ``__wrapped__`` is the builder itself."""
    memo = functools.lru_cache(maxsize=_ORDERS)(builder)

    @functools.wraps(builder)
    def build(n, ctx=None):
        value = memo(n)
        if ctx is None or ctx.symbolic:
            return value
        return type(value)(ctx._reduce_pair(value.pair), value.order)

    return build


def solution_basis(n: int) -> list:
    """The n solutions s_k = u^(n-k-1) v^k of the order-n equation."""
    _order(n)
    return [SOL_U[0] ** (n - k - 1) * SOL_V[0] ** k for k in range(n)]


@functools.lru_cache(maxsize=_ORDERS)
def generators(n: int) -> GeneratorSet:
    """Generators V_0..V_{n-1}, W_y, F_n, G_n, H_n in terms of u and v,
    each component in the form :func:`canon` prints."""
    u, u1 = SOL_U[0], SOL_U[1]
    v, v1 = SOL_V[0], SOL_V[1]
    y = JET[0]
    sols = tuple(
        VectorField(0, s, name=f"V{k}") for k, s in enumerate(solution_basis(n))
    )
    return GeneratorSet(
        n=n,
        solution=sols,
        homogeneity=VectorField(0, y, name="Wy"),
        special=(
            VectorField(u**2, (n - 1) * u * u1 * y, name=f"F{n}"),
            VectorField(2 * u * v, (n - 1) * (u * v1 * y + u1 * v * y), name=f"G{n}"),
            VectorField(-(v**2), -(n - 1) * v * v1 * y, name=f"H{n}"),
        ),
    )


def commutator(v1: VectorField, v2: VectorField, rates=None) -> VectorField:
    """Lie bracket of point vector fields: each component is the canonical
    pair of pr v1 (c2) - pr v2 (c1), c1 and c2 the fields' pairs of that
    component."""
    pr = lambda v, c: _prolonged_action(v, c, rates)[0]
    return VectorField(*(_canonical_pair(pr(v1, c2) - pr(v2, c1)) for c1, c2 in zip(v1.pairs, v2.pairs)))


def source_transformation(n: int, ctx: SourceContext | None = None):
    """The point transformation carrying the trivial equation to order n.

    z has derivative 1/u^2; with the Wronskian w(u,v)=W constant this
    antiderivative is v/(W u), which is used as the closed form: under the
    context's :meth:`SourceContext.deriv_rates` (v' = (1 + u'v)/u in
    symbolic mode) its D_x cancels to 1/u^2 in the ring.  The dependent
    map is w = u^(1-n) y (scaling constant fixed to 1).  Both components
    are formed from the context's pairs and handed to the map as canonical
    pairs; nothing is printed.
    """
    ctx = ctx or SourceContext.make_symbolic()
    _order(n)
    u, v, _, w = ctx.pairs
    zeta = _canonical_pair(v / (w * u))
    phi = _canonical_pair(RingFraction(u.den ** (n - 1), u.num ** (n - 1)) * JET[0])
    return _transform.PointTransformation(zeta, phi, ctx.deriv_rates())


@_memoised_by_order
def build_lode(n: int, ctx: SourceContext | None = None) -> DiffEq:
    """Monic normal-form linear equation of order n and maximal symmetry.

    Delta_n = y_n, the (n-1)-th symmetric power of y'' + q y: y_0 = y,
    y_1 = D_x y, y_{k+1} = D_x y_k + k(n-k) q y_{k-1}, run on pairs in one
    algebra, so no u or v enters; the pair, in the ring of the generators it
    uses, is reduced by the context.  Tests check it against the transform
    of w^(n) = 0 under the source transformation.
    """
    ctx = ctx or SourceContext.make_symbolic()
    J = _algebra(None, (JET[0] * COEF_Q[0], _order(n)))
    q, prev, cur = J.lift(COEF_Q[0]), J.jet(0), J.jet(1)
    for k in range(1, n):
        prev, cur = cur, J.dx(cur) + RingFraction(k * (n - k) * q.num, q.den) * prev
    return DiffEq(ctx._reduce_pair(RingFraction.from_expr(cur)), n)


def canonical_lagrangian(n: int) -> Lagrangian:
    """Order-n/2 Lagrangian of the trivial equation: (-1)^(n/2) (w^(n/2))^2 / 2.

    Written in the shared jet coordinates; its Euler-Lagrange expression is
    exactly w^(n).
    """
    m = _order(n, even=True) // 2
    return Lagrangian(sp.Rational(-1, 1) ** m * JET[m] ** 2 / 2, m)


@_memoised_by_order
def transformed_lagrangian(n: int, ctx: SourceContext | None = None) -> Lagrangian:
    """The canonical Lagrangian pushed through the source transformation."""
    ctx = ctx or SourceContext.make_symbolic()
    _order(n, even=True)
    sigma = source_transformation(n, ctx)
    L = _transform.transform_lagrangian(canonical_lagrangian(n), sigma)
    return Lagrangian(ctx._reduce_pair(L.pair), n // 2)


@_memoised_by_order
def natural_lagrangian(n: int, ctx: SourceContext | None = None) -> Lagrangian:
    """The diagonal density sum_m c_m(x) (y^(m))^2 with E(L) = E(y*Delta_n/2).

    y^(2m) enters E((y^(m))^2) with coefficient 2 (-1)^m, so the c_m are
    solved highest first, each a ring partial of the Euler pair, and the
    density is the sum of the squares as a pair.  This reduction of
    y*Delta_n/2 to order n/2 is the canonical representative used by the
    variational identities.  Delta_n and the rates are ctx's, if given.
    """
    _order(n, even=True)
    rates = ctx.rates if ctx else None
    target, dens = _euler(rates, JET[0] / 2, build_lode(n, ctx).pair), 0
    for m in range(n // 2, -1, -1):
        J = _algebra(rates, (target, 0))
        square = J.partial(J.lift(target), JET[2 * m]) * ((-1) ** m * JET[m] ** 2 / 2)
        target, dens = target - _euler(rates, square), square + dens
    if not zero_test(ctx._reduce_pair(target) if ctx else target):
        raise ValueError("density is not quadratic in the jets")
    return Lagrangian(dens, n // 2)


def reference_transformed_lagrangian(n: int) -> Lagrangian:
    """Fixed reference densities for the transformed Lagrangians, n in {2,4,6}.

    Stored with the shorthand i = u'/u written out.  The sign of the
    zeroth-order term of the n=6 entry is pinned by the Euler-operator
    consistency oracle E(L) = Delta_6.
    """
    i = SOL_U[1] / SOL_U[0]
    q, q1 = COEF_Q[0], COEF_Q[1]
    y, y1, y2, y3 = JET[0], JET[1], JET[2], JET[3]
    half = sp.Rational(1, 2)
    if n == 2:
        return Lagrangian(-half * i**2 * y**2 + i * y * y1 - y1**2 / 2, 1)
    if n == 4:
        return Lagrangian(
            sp.Rational(9, 2) * (q + 2 * i**2) ** 2 * y**2
            - 12 * i * (q + 2 * i**2) * y * y1
            + 8 * i**2 * y1**2
            + 3 * (q + 2 * i**2) * y * y2
            - 4 * i * y1 * y2
            + y2**2 / 2,
            2,
        )
    if n == 6:
        a = 9 * q * i + 12 * i**3 - q1
        b = 13 * q + 36 * i**2
        return Lagrangian(
            -sp.Rational(25, 2) * y**2 * a**2
            + 5 * b * y * a * y1
            - half * b**2 * y1**2
            - 45 * i * y * a * y2
            + 9 * (13 * q * i + 36 * i**3) * y1 * y2
            - sp.Rational(81, 2) * i**2 * y2**2
            + y * (45 * q * i + 60 * i**3 - 5 * q1) * y3
            - b * y1 * y3
            + 9 * i * y2 * y3
            - half * y3**2,
            3,
        )
    raise ValueError(f"no stored reference for order {n}")


def reference_first_integral_homogeneity(n: int) -> sp.Expr:
    """Fixed reference first integrals of W_y for n in {3, 5, 7}."""
    q, q1, q2, q3, q4 = COEF_Q[:5]
    y, y1, y2, y3, y4, y5, y6 = JET[:7]
    half = sp.Rational(1, 2)
    if n == 3:
        return 2 * q * y**2 - y1**2 / 2 + y * y2
    if n == 5:
        return (
            10 * y * q1 * y1
            - 10 * q * y1**2
            + 4 * y**2 * (8 * q**2 + q2)
            + 20 * q * y * y2
            + y2**2 / 2
            - y1 * y3
            + y * y4
        )
    if n == 7:
        return (
            -28 * y1**2 * (14 * q**2 + q2)
            - 28 * q1 * y1 * y2
            + y * (784 * q**2 + 84 * q2) * y2
            + 28 * q * y2**2
            + 28 * y * y1 * (28 * q * q1 + q3)
            + 84 * y * q1 * y3
            - 56 * q * y1 * y3
            - half * y3**2
            + 6 * y**2 * (192 * q**3 + 33 * q1**2 + 52 * q * q2 + q4)
            + 56 * q * y * y4
            + y2 * y4
            - y1 * y5
            + y * y6
        )
    raise ValueError(f"no stored reference for order {n}")
