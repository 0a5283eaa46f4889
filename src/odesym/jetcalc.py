"""Differential operators on the jet space of one independent variable.

Total derivative and its ladder, prolongation of point vector fields,
Euler-Lagrange operator, Frechet derivative and adjoint, y^(n) elimination
on solutions, inverse total derivative of exact differential polynomials.

Every operator takes an optional ``rates`` overlay: a mapping from extra
symbols to their x-derivatives, used when expressions carry atoms with a
prescribed x-dependence (concrete solution pairs, radicals, exponentials),
and by a symbolic source context for the source equation itself: u' and v'
have the rates -q u and -q v, so u'' and higher never appear.  The solved
equation y^(n) = rhs enters the same way, as the rate of y^(n-1).

Every map of D_x images is built by :func:`ladder_images`: a root's
symbol maps to the root, and the k-th symbol above it to the k-th rung of
its :func:`derivative_ladder`, a pair.  The y^(n) elimination (the ladder
of the solved rhs), the jet images of a point transformation (the ladder
of phi under D_x / D_x zeta), the substitution of a concrete q and the
ladders of a source context (u'' -> -q u and v' -> (1 + u'v)/u, or a
concrete pair's u, v, q) are all such maps.  Every substitution is
:func:`exprcore._substituted`: the images move into one ring by their
exponent tuples, and all keys of a value (a tree or a pair) are rewritten
at once, so an image may hold keys, as a change of x and y needs.  No
substitution goes through a tree.

Each operator is written once, over the sparse ring ZZ[G] that
:func:`exprcore.canon` uses, G being the input's generators (atoms and
ln/exp/radical nodes) closed under the rate table for as many D_x steps
as the operator takes: values are (numerator, denominator) pairs of
integer polynomials, rates included, and the result becomes a sympy
expression once per call (a rational content may print factored out). A
derivation is one table of generator rates, applied as sum_g dp/dg *
rate(g) with the quotient rule for denominators: D_x, D_x with jets held
fixed, d/ds of an atom and the prolonged action pr v are four such
tables, a node's rate given by the chain rule in each.  The Euler
operator and the Frechet adjoint sum (-D_x)^k t_k by Horner, one D_x
step per term.  Every input enters the algebra through
:func:`exprcore._lift`: a tree is lifted, a pair is moved by its
exponent tuples.  An equation or a Lagrangian is given as an expression
or a pair, and its pair (``pair``) is its primary value: the n+4 checks of
a table take it as it is, an equation is validated on it once (a degree
test in y^(n)), and the tree (``delta``, ``density``) is a print, made
only when it is read.  A vector field holds its two coefficients the same
way: ``pairs`` is lifted when first read, ``xi`` and ``psi`` are
prints, and its prolongation, prolonged action and the characteristic
pair psi - xi*y1 that the checks take are formed from its pairs (pairs of
two rings meet in one ring, by :class:`exprcore.RingFraction` arithmetic).
The inverse total derivative peels in such an algebra too, grown only
when a piece needs a generator it lacks (F and the remainder are moved
there as pairs), from its first lift to its result: F is the sum of the
pieces' pairs, a refusal carries the remainder's pair, and F is printed
once, only when it is read: as its Laurent sum when its denominator is an
integer times a monomial, else from its pieces.  Sympy's Risch integrator is
left only for log-type antiderivatives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import sympy as sp

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
_Y1 = RingFraction.from_expr(JET[1])  # the characteristic's y_x, lifted once per process


class JetOrderLimit(RuntimeError):
    """A total derivative would need a jet beyond the registry."""


class _OutsideRing(RuntimeError):
    """A rate needs a generator the operator algebra lacks."""


class NotExact(ValueError):
    """The expression is not a total x-derivative."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def _quotient_rule(num, den, dnum, dden, scale):
    """(dnum*den - num*dden) / (scale*den^2), with gcd(den, dden) cancelled:
    ``PolyElement.cofactors`` returns den and dden over their gcd, by
    exponents when den is an integer times a monomial."""
    _, cofactor, dcofactor = den.cofactors(dden)
    return RingFraction(dnum * cofactor - num * dcofactor, scale * den * cofactor)


class _RingAlgebra:
    """ZZ[gens] with the rate table compiled to integer pairs.

    Every value is a pair of integer polynomials: a rational coefficient of
    a rate sits in its denominator, and a value is canonical once
    ``PolyElement.cancel`` has reduced it.  A derivation is one table
    {generator index: rate}.  A rate j >= 0 is the ladder shift onto
    generator j and -1 the rate 1 of x: each moves one exponent of a
    monomial.  Any other rate is a (num, den) pair
    multiplied into the partial derivative, or the error that
    differentiating its generator raises.  :meth:`derivation` completes a
    table of atom rates with each node g(f) at the chain-rule rate
    g'(f) D f.  D_x (``total``), D_x with jets held fixed (``fixed``), d/ds
    of an atom s inside a node (``chains``) and pr v are such tables, each
    applied by :meth:`dx`.  gens must be closed under the rates of every
    generator differentiated.
    """

    def __init__(self, gens, rates_key):
        R = exprcore._ring(gens)
        self.ring = R
        self.index = index = exprcore._index(R)
        self.top = top_order(set().union(*(g.free_symbols for g in R.symbols)), JET)  # bounds every value's jet order
        overlay = dict(rates_key)
        total = {}
        for i, s in enumerate(R.symbols):
            rate = overlay[s] if s in overlay else _BASE_RATES.get(s)
            if rate is None or rate == 0:
                continue
            if rate == 1:
                total[i] = -1
            elif rate in index:
                total[i] = index[rate]
            elif exprcore._generators(rate) <= index.keys():
                rate = self.lift(rate)
                total[i] = rate.num, rate.den
            else:
                total[i] = _OutsideRing(f"rate of {s} lies outside the ring")
        if JET[MAX_JET_ORDER] in index:
            total[index[JET[MAX_JET_ORDER]]] = JetOrderLimit("jet order limit exceeded")
        self._nodes = []  # (index, g'(f), f) of each node g(f)
        for i, g in enumerate(R.symbols):
            if not g.is_Symbol and g.free_symbols:
                t = sp.Dummy()
                slope = g.func(t, *g.args[1:]).diff(t).xreplace({t: g.args[0]})
                self._nodes.append((i, self.lift(slope), self.lift(g.args[0])))
        self.total = self.derivation(total)
        # jets hold still, and with them the registry limit and an on-shell rate
        self.fixed = self.derivation({i: r for i, r in total.items() if R.symbols[i] not in _JETS})
        inner = set().union(*(R.symbols[i].free_symbols for i, _, _ in self._nodes))
        self.chains = {s: self.derivation({index[s]: -1}) for s in inner}

    def derivation(self, atom_rates) -> dict:
        """The table of atom_rates with each node g(f) at the rate g'(f) D f,
        or the error that D f raises."""
        table = dict(atom_rates)
        for i, slope, f in self._nodes:
            try:
                rate = slope * self.dx(f, atom_rates)
                if rate.num:
                    table[i] = rate.num, rate.den
            except RuntimeError as err:
                table[i] = err
        return table

    def lift(self, e) -> RingFraction:
        return exprcore._lift(e, self.ring)

    def jet(self, k) -> RingFraction:
        return RingFraction(self.ring.gens[self.index[JET[k]]], self.ring.one)

    def partial(self, f, s) -> RingFraction:
        if s not in self.index:
            return RingFraction(self.ring.zero, self.ring.one)
        return self.dx(f, self.chains.get(s) or {self.index[s]: -1})

    def dx(self, f, table=None) -> RingFraction:
        """D_x, or the derivation table (``fixed``: jets held fixed)."""
        table = self.total if table is None else table
        polys = (f.num,) if f.den.is_ground else (f.num, f.den)
        (dnum, *dden), scale = self._dx_polys(polys, table)
        if dden and dden[0]:
            return _quotient_rule(f.num, f.den, dnum, dden[0], scale)
        return RingFraction(dnum, f.den if scale == 1 else scale * f.den)

    def _dx_polys(self, polys, table):
        """A derivation of each polynomial, as numerators over one common denominator."""
        R = self.ring
        rates = list(table.items())
        shifted, partials = [], []
        for p in polys:
            out, part = {}, {}
            for m, c in p.items():
                for i, t in rates:
                    e = m[i]
                    if not e:
                        continue
                    dm = list(m)
                    dm[i] = e - 1
                    if type(t) is int:
                        if t >= 0:
                            dm[t] += 1
                        d = out
                    else:
                        d = part.setdefault(i, {})
                    dm = tuple(dm)
                    d[dm] = d[dm] + c * e if dm in d else c * e
            shifted.append(out)
            partials.append(part)
        scale = R.one
        for i in {i for part in partials for i in part}:
            if isinstance(table[i], Exception):
                raise type(table[i])(*table[i].args)
            den = table[i][1]
            if den != scale:
                scale = exprcore._lcm(scale, den)
        results = []
        for out, part in zip(shifted, partials):
            num = R.dtype({m: c for m, c in out.items() if c})
            if not scale.is_ground or scale.LC != 1:
                num *= scale
            for i, d in part.items():
                rnum, rden = table[i]
                factor = rnum if rden == scale else rnum * exprcore._exquo(scale, rden)
                num += R.dtype({m: c for m, c in d.items() if c}) * factor
            results.append(num)
        return results, scale


def _rates_key(rates) -> tuple:
    """The rate table as a key: each rate an expression, or a pair as it
    is (a pair compares by identity)."""
    if not rates:
        return ()
    items = ((s, r if isinstance(r, RingFraction) else sp.sympify(r)) for s, r in rates.items())
    return tuple(sorted(items, key=lambda kv: kv[0].name))


@functools.lru_cache(maxsize=64)
def _rate_atoms(rates_key):
    """The generators of each symbol's rate."""
    return {**_BASE_RATE_ATOMS, **{s: frozenset(exprcore._generators(r)) for s, r in rates_key}}


@functools.lru_cache(maxsize=256)
def _ring_algebra(gens: frozenset, rates_key) -> _RingAlgebra:
    """The algebra of a generator set under a rate table, built once."""
    return _RingAlgebra(gens, rates_key)


def _algebra(rates, *items):
    """The algebra for (expression, D_x steps) items under a rate table.

    The ring's generators are each expression's generators closed under
    the rate table for its number of steps, and the table's own keys
    closed for the largest step count: every value of one context, at one
    number of steps, lives in one ring, whichever of the context's atoms it
    holds.
    """
    key = _rates_key(rates)
    rate_atoms = _rate_atoms(key)
    items = [(exprcore._generators(e), steps) for e, steps in items]
    if key:
        items.append(({s for s, _ in key}, max((steps for _, steps in items), default=0)))
    gens = set()
    for closed, steps in items:
        frontier = closed
        for _ in range(steps):
            frontier = set().union(*(rate_atoms.get(g, ()) for g in frontier)) - closed
            if not frontier:
                break
            closed |= frontier
        gens |= closed
    return _ring_algebra(frozenset(gens), key)


def total_derivative(e, times: int = 1, rates: dict | None = None) -> sp.Expr:
    """Apply the total derivative D_x ``times`` times: the last rung of
    the :func:`derivative_ladder` of e."""
    e = sp.sympify(e)
    return derivative_ladder(e, times, rates)[-1].as_expr() if times else e


def derivative_ladder(e, order: int, rates: dict | None = None, scale=1) -> list:
    """[e, D e, ..., D^order e] for D = scale * D_x, e and scale each an
    expression or a pair, as values of one algebra, each step cancelled in
    the ring; no rung is printed.  A scale of 1 is neither lifted nor
    multiplied."""
    e, scale = (c if isinstance(c, RingFraction) else sp.sympify(c) for c in (e, scale))
    J = _algebra(rates, (e, order), (scale, order))
    ladder, s = [J.lift(e)], None if scale == 1 else J.lift(scale)
    for _ in range(order):
        f = J.dx(ladder[-1])
        if s is not None:
            f = s * f
        ladder.append(RingFraction(*f.num.cancel(f.den)))
    return ladder


def ladder_images(family, root, used, rates: dict | None = None, scale=1) -> dict:
    """The substitution family[0] -> root, family[k] -> (scale*D_x)^k root.

    root maps to itself, and each member of ``used`` above it to its
    rung of the :func:`derivative_ladder` of root, a pair of the ladder's
    algebra; no ladder is built when only root is used, and the map is
    empty when no member is.  A slice such as ``JET[n:]`` starts the
    family at y^(n).
    """
    top = top_order(used, family)
    if top < 0:
        return {}
    ladder = derivative_ladder(root, top, rates, scale)[1:] if top else ()
    return {family[0]: root, **{s: f for s, f in zip(family[1:], ladder) if s in used}}


def dx_fixed_jets(e, rates: dict | None = None) -> sp.Expr:
    """x-derivative through coefficient functions only, jets held fixed."""
    J = _algebra(rates, (e, 1))
    return J.dx(J.lift(e), J.fixed).as_expr()


def _as_pair(value) -> RingFraction:
    """A value given as an expression or a pair, as a pair: an expression is
    lifted into the ring of its generators."""
    return value if isinstance(value, RingFraction) else RingFraction.from_expr(value)


def _jet_free(value, what):
    """A function of x and y given as an expression (sympified) or a pair,
    as given; ValueError, naming it as what, if it holds a derivative of y."""
    value = value if isinstance(value, RingFraction) else sp.sympify(value)
    if max_jet_order(value) > 0:
        raise ValueError(f"{what} {sp.sympify(value)} involves jets")
    return value


@dataclass(frozen=True)
class VectorField:
    """Point vector field xi(x,y) d/dx + psi(x,y) d/dy, each coefficient
    given as an expression or a pair.

    ``pairs`` (xi, psi) is the primary value, an expression lifted when
    first read (a hidden zero denominator raises there); every operator
    takes it as it is.  ``xi`` and ``psi`` are the values given, or the
    pairs' prints, made when first read.
    """

    xi_value: sp.Expr | RingFraction
    psi_value: sp.Expr | RingFraction
    name: str | None = None

    def __post_init__(self):
        for attr in ("xi_value", "psi_value"):
            object.__setattr__(self, attr, _jet_free(getattr(self, attr), "vector field coefficient"))

    @functools.cached_property
    def pairs(self) -> tuple:
        return _as_pair(self.xi_value), _as_pair(self.psi_value)

    @functools.cached_property
    def xi(self) -> sp.Expr:
        return sp.sympify(self.xi_value)

    @functools.cached_property
    def psi(self) -> sp.Expr:
        return sp.sympify(self.psi_value)

    @functools.cached_property
    def characteristic_pair(self) -> RingFraction:
        """Q = psi - xi*y_x as a pair, not reduced."""
        return self.pairs[1] - self.pairs[0] * _Y1

    def __rmul__(self, scalar):
        return VectorField(*(c * scalar for c in self.pairs))


def characteristic(v: VectorField) -> sp.Expr:
    """Evolutionary representative Q = psi - xi*y_x, expanded: the Laurent
    sum of its pair when it has one (:func:`exprcore._expanded`), else the
    expand of psi - xi*y_x."""
    return exprcore._expanded(v.characteristic_pair, lambda: sp.expand(v.psi - v.xi * JET[1]))


def prolong(v: VectorField, order: int, rates: dict | None = None) -> list:
    """Prolongation coefficients (phi^0, ..., phi^order).

    phi^0 = psi and phi^(k) = D_x^k(Q) + xi*y^(k+1); computed by the
    equivalent recursion phi^(k+1) = D_x(phi^k) - y^(k+1) D_x(xi), which
    keeps each coefficient at jet order k.
    """
    if order < 0:
        raise ValueError("prolongation order must be >= 0")
    jets = ((y, 0) for y in JET[1 : order + 1])
    J = _algebra(rates, (v.pairs[0], max(order, 1)), (v.pairs[1], order), *jets)
    return [phi.as_expr() for phi in _prolong(J, v, order)[0]]


def _prolong(J, v: VectorField, order: int) -> tuple:
    """(phi^0..phi^order, D_x xi) as values of J.

    phi^order holds D_x^order of psi and of xi, so J must close both over
    order steps.
    """
    xi, psi = map(J.lift, v.pairs)
    phis, dxi = [psi], J.dx(xi)
    for k in range(order):
        phis.append(J.dx(phis[-1]) - J.jet(k + 1) * dxi)
    return phis, dxi


def apply_prolongation(v: VectorField, e, rates: dict | None = None) -> sp.Expr:
    """pr v applied to an expression: xi*d/dx (jets fixed) + sum phi^k d/dy_k."""
    return _prolonged_action(v, sp.sympify(e), rates)[0].as_expr()


def _prolonged_action(v: VectorField, e, rates) -> tuple:
    """(pr v(e), e, D_x xi) as values of one operator algebra, e being an
    expression or a pair: pr v is the derivation that takes y^(k) to
    phi^k and every other atom to xi times its rate in ``J.fixed``."""
    m = max(max_jet_order(e), 0)
    jets = ((y, 0) for y in JET[1 : m + 1])
    J = _algebra(rates, (v.pairs[0], max(m, 1)), (v.pairs[1], m), (e, 1), *jets)
    R, xi = J.ring, J.lift(v.pairs[0])
    phis, dxi = _prolong(J, v, m)
    table = {J.index[y]: (phi.num, phi.den) for y, phi in zip(JET, phis) if y in J.index and phi.num}
    for i, rate in J.fixed.items() if xi.num else ():
        if R.symbols[i].is_Symbol:
            if type(rate) is int:
                rate = R.gens[rate] if rate >= 0 else R.one, R.one
            table[i] = rate if isinstance(rate, Exception) else (xi.num * rate[0], xi.den * rate[1])
    f = J.lift(e)
    return J.dx(f, J.derivation(table)), f, dxi


@dataclass(frozen=True)
class _Given:
    """An object given as an expression or a pair (``value``) with a
    declared order; ``pair`` is the value in the ring, lifted when first
    read if an expression was given."""

    value: sp.Expr | RingFraction
    order: int

    def __post_init__(self):
        if not isinstance(self.value, RingFraction):
            object.__setattr__(self, "value", sp.sympify(self.value))

    @functools.cached_property
    def pair(self) -> RingFraction:
        return _as_pair(self.value)


@dataclass(frozen=True)
class Lagrangian(_Given):
    """Lagrangian density with its declared jet order, given as an
    expression or a pair; ``pair`` is taken by every operator, and
    ``density`` is the expression given, or the pair's print, made when
    first read."""

    def __post_init__(self):
        super().__post_init__()
        if max_jet_order(self.value) > self.order:
            raise ValueError(f"density has jet order {max_jet_order(self.value)} > declared {self.order}")

    @functools.cached_property
    def density(self) -> sp.Expr:
        return self.value.as_expr() if isinstance(self.value, RingFraction) else self.value


@dataclass(frozen=True)
class DiffEq(_Given):
    """Differential function Delta of declared order n, solvable for y^(n),
    given as an expression or a pair.

    Validated once, on ``pair``: its numerator, split by degree in y^(n),
    must be linear with a nonzero coefficient, and y^(n) must enter neither
    the denominator nor a node.  The y^(n) coefficient and the solved rhs
    come from that split as canonical pairs.  ``delta`` (the expression
    given, or the pair's :func:`exprcore._expanded` print), ``leading``
    and ``solved_rhs()`` are prints, made when first read.  The declared order
    is tested on the value as given, so a lead that cancels in the ring is
    reported as zero.
    """

    def __post_init__(self):
        super().__post_init__()
        if self.order < 1 or max_jet_order(self.value) != self.order:
            raise ValueError(f"declared order {self.order} does not match {self.delta}")
        f, top = self.pair, JET[self.order]
        split = exprcore._by_degree(f.num, f.num.ring.symbols.index(top)) if top in f.free_symbols else {}
        if max(split, default=0) > 1 or not _polynomial_in(f, top):
            raise ValueError("equation is not linear in its top derivative")
        lead = exprcore._canonical_pair(RingFraction(split.get(1, f.num.ring.zero), f.den))
        if zero_test(lead):
            raise ValueError("leading coefficient is identically zero")
        rhs = exprcore._canonical_pair(RingFraction(-split.get(0, f.num.ring.zero), split[1]))
        object.__setattr__(self, "_lead_and_rhs", (lead, rhs))

    @functools.cached_property
    def delta(self) -> sp.Expr:
        f = self.value
        return exprcore._expanded(f) if isinstance(f, RingFraction) else f

    @functools.cached_property
    def leading(self) -> sp.Expr:
        return self._lead_and_rhs[0].as_expr()

    def monic(self) -> "DiffEq":
        return DiffEq(canon(self.delta / self.leading), self.order)

    def solved_rhs(self) -> sp.Expr:
        """y^(n) = rhs on solutions, printed once per equation."""
        return self._rhs

    @functools.cached_property
    def _rhs(self) -> sp.Expr:
        return self._lead_and_rhs[1].as_expr()


def substitute_solved(e, eq: DiffEq, rates: dict | None = None) -> sp.Expr:
    """Eliminate y^(n) and higher jets on solutions of y^(n) = rhs: the
    expression of :func:`_on_shell`, or e itself when it is below order n."""
    e = sp.sympify(e)
    return e if max_jet_order(e) < eq.order else _on_shell(e, eq, rates).as_expr()


def _on_shell(e, eq: DiffEq, rates) -> RingFraction:
    """e (an expression or a pair) on solutions of y^(n) = rhs, as a pair:
    under the on-shell rate D_x y^(n-1) = rhs, the ladder of rhs images
    y^(n), y^(n+1), ..., substituted in the ring; rhs is the equation's
    pair, never printed."""
    n, rhs = eq.order, eq._lead_and_rhs[1]
    onshell = {**(rates or {}), JET[n - 1]: rhs}
    return exprcore._substituted(e, ladder_images(JET[n:], rhs, exprcore._generators(e), onshell))


def _alternating_sum(J, terms):
    """sum_k (-D_x)^k terms[k] by Horner, t_0 - D_x(t_1 - D_x(t_2 - ...)):
    one D_x step per term.  A nonzero t_k with jet order + k past the
    registry raises JetOrderLimit, as differentiating it k times would,
    even where the sum would not."""
    if J.top + len(terms) - 1 > MAX_JET_ORDER:  # else no term of J can pass the registry
        for k, term in enumerate(terms):
            if term.num and max_jet_order(term) + k > MAX_JET_ORDER:
                raise JetOrderLimit("jet order limit exceeded")
    out = terms[-1]
    for term in reversed(terms[:-1]):
        out = term - J.dx(out)
    return out


def euler(L, rates: dict | None = None) -> sp.Expr:
    """Euler-Lagrange operator E(L) = sum_k (-D_x)^k dL/dy^(k)."""
    return _euler(rates, L.pair if isinstance(L, Lagrangian) else sp.sympify(L)).as_expr()


def _euler(rates, *factors):
    """E of the product of factors (expressions or pairs), formed from their
    lifts in one operator algebra; 0 when no factor holds a jet."""
    m = max(map(max_jet_order, factors))
    if m < 0:
        return sp.Integer(0)
    J = _algebra(rates, *((e, m) for e in factors))
    f = functools.reduce(RingFraction.__mul__, map(J.lift, factors))
    return _alternating_sum(J, [J.partial(f, y) for y in JET[: m + 1]])


def frechet(delta, q, rates: dict | None = None) -> sp.Expr:
    """Frechet derivative D_Delta(Q) = sum_k dDelta/dy^(k) * D_x^k Q, the
    D_x^k Q the rungs of the :func:`derivative_ladder` of Q."""
    delta = sp.sympify(delta)
    q = sp.sympify(q)
    m = max_jet_order(delta)
    if m < 0:
        return sp.Integer(0)
    J = _algebra(rates, (delta, 0), (q, m))
    f = J.lift(delta)
    terms = (J.partial(f, y) * J.lift(dq) for y, dq in zip(JET, derivative_ladder(q, m, rates)))
    return functools.reduce(RingFraction.__add__, terms).as_expr()


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


_FAMILIES = (JET, exprcore.SOL_U, exprcore.SOL_V, exprcore.COEF_Q)


def _peel_algebra(rates, *exprs) -> _RingAlgebra:
    """The generators of exprs (expressions or pairs), x and the lower rungs
    of every ladder they touch, closed under the rates for one D_x step."""
    atoms = set().union(*map(exprcore._generators, exprs))
    rungs = sp.Mul(X, *(fam[k] for fam in _FAMILIES for k in range(top_order(atoms, fam))))
    return _algebra(rates, *((e, 1) for e in exprs), (rungs, 1))


def _polynomial_in(f, s) -> bool:
    """Whether a pair is a polynomial in the atom s: s occurs neither in its
    denominator nor inside a node."""
    for p, allowed in ((f.num, s), (f.den, None)):
        for g, d in zip(p.ring.symbols, p.degrees()):
            if d and g != allowed and s in g.free_symbols:
                return False
    return True


def _antiderivative(f, s) -> RingFraction:
    """The antiderivative in the generator s of a polynomial in s, as a pair
    of f's ring: each numerator term c s^e becomes c s^(e+1)/(e+1), kept
    integer as c L/(e+1) s^(e+1) over L times the denominator, L the lcm of
    the e+1."""
    R = f.num.ring
    i = R.symbols.index(s)
    L = math.lcm(*(m[i] + 1 for m in f.num.itermonoms()))
    terms = {m[:i] + (m[i] + 1,) + m[i + 1 :]: c * (L // (m[i] + 1)) for m, c in f.num.items()}
    return RingFraction(R.dtype(terms), f.den * L)


def _integral(F, pieces) -> sp.Expr:
    """F, the pair of :func:`_peel`, printed once: its Laurent sum
    (:func:`exprcore._expanded`) when it has one, else :func:`_printed` of
    its pieces."""
    return exprcore._expanded(F, lambda: _printed(pieces))


def _printed(pieces) -> sp.Expr:
    """F from the pieces of :func:`_peel`, printed by pieces: each
    antiderivative (pair, s) with each power of s over its own reduced
    denominator, as sympy's integrate writes it, the integrator's pieces as
    they came, and the sum expanded."""
    terms = [p for p in pieces if isinstance(p, sp.Expr)]
    for F, s in (p for p in pieces if not isinstance(p, sp.Expr)):
        groups = exprcore._by_degree(F.num, F.num.ring.symbols.index(s))
        terms += (RingFraction(*c.cancel(F.den)).as_expr() * s**e for e, c in groups.items())
    return sp.expand(sp.Add(*terms))


def inverse_total_derivative(P, rates: dict | None = None, check_exact: bool = True) -> sp.Expr:
    """An F with D_x F = P, for P (an expression or a pair) a total
    derivative; constant fixed to 0: the :func:`_peel` of P, printed once
    (:func:`_integral`).  With check_exact, P is refused unless E(P) is zero."""
    if check_exact and not zero_test(residual := _euler(rates, P)):
        raise NotExact("expression is not a total derivative", residual)
    return _integral(*_peel(P, rates)[:2])


def _peel(P, rates) -> tuple:
    """(F, pieces, J): F with D_x F = P as a pair of the algebra J, and the
    pieces that sum to F, each an antiderivative in s as its pair (pair, s),
    or as the expression of sympy's Risch integrator.

    Peels the top order, in one operator algebra: P linear in its highest
    derivative y^(m) (a degree test) with coefficient c = dP/dy^(m)
    contributes the antiderivative of c in y^(m-1), which moves one
    exponent when c's denominator is free of y^(m-1) (sympy's Risch
    integrator takes the log-type rest, such as y2/y1 -> ln y1, and a rest
    it leaves unevaluated raises NotExact); D_x of that piece is
    subtracted and the loop recurses.  D_x of the piece must cancel c*y^(m)
    exactly, so a step that leaves y^(m) in the remainder could repeat
    forever and raises NotExact instead (v' = (1 + u'v)/u in the rates
    gives such steps: D_x of a piece in v brings u' back).  The same peel
    then runs on the u, v and q derivative ladders of any jet-free
    remainder (differentiating those families never reintroduces jets).
    A final ladder-free remainder is integrated when it is polynomial in
    x, by moving the exponent of x.  J grows only when a piece needs a
    generator it lacks, and F, the remainder and the piece move there as
    pairs; a refusal carries the remainder's pair.  No step prints a pair.
    """
    J = _peel_algebra(rates, P)
    f, F, pieces = exprcore._reduced(J.lift(P)), RingFraction(J.ring.zero, J.ring.one), []
    for family in _FAMILIES:
        while (m := top_order(exprcore._generators(f), family)) > 0:
            top, below = family[m], family[m - 1]
            if not _polynomial_in(f, top) or f.num.degree(J.index[top]) > 1:
                raise NotExact(f"nonlinear in top derivative {top}", f)
            c = exprcore._reduced(J.partial(f, top))
            if _polynomial_in(c, below):
                piece = _antiderivative(c, below)
            else:
                piece = sp.integrate(canon(c), below, risch=True)
                if piece.has(sp.Integral):
                    raise NotExact(f"no antiderivative in {below} found", f)
            pieces.append(piece if isinstance(piece, sp.Expr) else (piece, below))
            try:
                d = J.dx(piece) if isinstance(piece, RingFraction) else None
            except _OutsideRing:
                d = None
            if d is None:  # D_x of the piece needs generators J lacks
                J = _peel_algebra(rates, F, f, piece)
                F, f, piece = map(J.lift, (F, f, piece))
                d = J.dx(piece)
            F, f = F + piece, exprcore._reduced(f - d)
            if top in exprcore._generators(f):
                raise NotExact(f"top derivative {top} survives its peel step", f)
    if f.num:
        atoms = set().union(*(g.free_symbols for g in f.free_symbols))
        if atoms - {X} - exprcore._PARAM_SET or not _polynomial_in(f, X):
            raise NotExact("residue is not a polynomial in x", f)
        pieces.append((_antiderivative(f, X), X))
        F = F + pieces[-1][0]
    return F, tuple(pieces), J
