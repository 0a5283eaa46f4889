"""Exact symbolic kernel over jet-space atoms.

Expressions are ordinary sympy objects built from a fixed atom registry:
the independent variable ``x``, jet variables ``y, y1, y2, ...``, the
derivative ladders ``u, u1, ...``, ``v, v1, ...``, ``q, q1, ...`` of three
symbol functions of x, and a small set of named parameters.  Coefficients
are exact rationals.  Elementary function applications are restricted to
``ln(g)``, ``exp(g)`` and ``g^(p/r)`` with ``g`` a rational expression;
each is a power of a generator of ZZ[gens], where every value is a pair of
integer polynomials and :func:`canon` works (srepr-identical to
``cancel(together(.))`` on rational, ln and most exp input).  Rings are
keyed by generator set: each set's ring is sorted and built once per
process, an expression is lifted by the ring's index map, built once per
ring, and a pair moves between two rings by an index map built once per
ring pair.

All atoms carry positive-real assumptions, matching the sampling domain
(1/10, 10) of :func:`_draws`, the randomized part of :func:`zero_test`.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import types

import sympy as sp
from sympy.core.add import _addsort
from sympy.core.exprtools import decompose_power
from sympy.core.mul import _mulsort
from sympy.polys.domains import ZZ
from sympy.polys.polyerrors import GeneratorsError
from sympy.polys.polyutils import _gens_order, _max_order, _re_gen
from sympy.polys.rings import PolyRing

MAX_JET_ORDER = 24


class UnsupportedForm(ValueError):
    """An expression uses a function application outside the atom grammar."""


class UndefinedValue(UnsupportedForm):
    """An expression holds an undefined value, such as 1/0 or ln(0)."""


class Inconclusive(RuntimeError):
    """zero_test could not decide: sampling says zero, symbolics disagree."""

    def __init__(self, expr, message="zero test inconclusive"):
        super().__init__(f"{message}: {expr}")
        self.expr = expr


def _ladder(base: str) -> tuple:
    return tuple(
        sp.Symbol(base if k == 0 else f"{base}{k}", positive=True)
        for k in range(MAX_JET_ORDER + 1)
    )


X = sp.Symbol("x", positive=True)
JET = _ladder("y")
SOL_U = _ladder("u")
SOL_V = _ladder("v")
COEF_Q = _ladder("q")

PARAM_NAMES = ("k1", "k2", "k3", "lam", "theta", "alpha", "a0", "a1", "a2", "a3")
PARAMS = {name: sp.Symbol(name, positive=True) for name in PARAM_NAMES}

_REGISTRY = {str(s): s for fam in (JET, SOL_U, SOL_V, COEF_Q) for s in fam}
_REGISTRY["x"] = X
_REGISTRY.update({name: sym for name, sym in PARAMS.items()})

_PARAM_SET = frozenset(PARAMS.values())


def jet(k: int) -> sp.Symbol:
    """Jet variable of order k (y for k=0)."""
    if not 0 <= k <= MAX_JET_ORDER:
        raise ValueError(f"jet order {k} outside supported range")
    return JET[k]


def resolve_name(name: str) -> sp.Symbol | None:
    """Registry symbol for a grammar identifier, or None."""
    return _REGISTRY.get(name)


def base_rates() -> dict:
    """x-derivative of each atom: the ladder shifts, x maps to 1."""
    rates = {X: sp.Integer(1)}
    for fam in (JET, SOL_U, SOL_V, COEF_Q):
        for k in range(MAX_JET_ORDER):
            rates[fam[k]] = fam[k + 1]
    return rates


def top_order(free, family) -> int:
    """Highest k with family[k] among the symbols free, or -1 if none is."""
    return max((k for k, s in enumerate(family) if s in free), default=-1)


def max_jet_order(e) -> int:
    """Highest jet order present in an expression or a pair (inside its
    nodes too), or -1 for jet-free input."""
    return top_order(_generators(e) if isinstance(e, RingFraction) else sp.sympify(e).free_symbols, JET)


def _generators(e) -> set:
    """The atoms of e, in node arguments too, and the generators ln(g), exp(g)
    and g^(1/r) of its nodes, read from each node's :func:`_normal_node` by
    the recursion of :func:`_as_fraction` (a negative power of a sum in a
    normal form holds generators too); UnsupportedForm if e is outside the
    atom grammar.  A pair's are the generators it uses and the atoms inside
    them."""
    if isinstance(e, RingFraction):
        gens = e.free_symbols
        return gens.union(*(g.free_symbols for g in gens))
    gens = set()

    def walk(e, inside):
        if e.is_Symbol or e is sp.E:  # E = exp(1), as canon prints exp(x + 1) = E*exp(x)
            gens.add(e)
        elif isinstance(e, sp.Float):
            raise UnsupportedForm(f"inexact coefficient {e}; use exact rationals")
        elif e.is_Add or e.is_Mul:
            for a in e.args:
                walk(a, inside)
        elif e.is_Pow and e.exp.is_Integer:
            walk(e.base, inside)
        elif e.is_Pow and not e.exp.is_Rational:
            raise UnsupportedForm(f"non-rational exponent in {e}")
        elif e.is_Pow or isinstance(e, (sp.log, sp.exp)):
            if inside:
                raise UnsupportedForm(f"nested elementary application in {e}")
            walk(e.args[0], True)
            node(_normal_node(e))
        elif not e.is_Rational:
            if e is sp.nan or e.is_infinite:
                raise UndefinedValue(f"undefined value {e}")
            raise UnsupportedForm(f"unsupported node {type(e).__name__} in {e}")

    def node(e):
        if e.is_Add or e.is_Mul or e.is_Pow and e.exp.is_Integer:
            for a in e.args:
                node(a)
        elif not (e.is_Symbol or e.is_Rational):
            if e.is_number and e.is_real is False:
                raise UnsupportedForm(f"non-real constant {e}: the value is not real on the domain")
            normal = _normal_node(e)
            if normal == e:
                gens.add(decompose_power(e)[0])
            else:
                node(normal)

    walk(sp.sympify(e), False)
    return gens


@functools.lru_cache(maxsize=4096)
def _normal_node(e) -> sp.Expr:
    """A node the way cancel sees it: exp(a + b) = exp(a)*exp(b), ln of a
    product or power split; ``decompose_power`` then reads each factor as a
    power of a generator: exp(2x) = exp(x)^2, y^(3/2) = sqrt(y)^3."""
    return sp.factor_terms(e, radical=True).expand()


def _ring(gens) -> PolyRing:
    """ZZ[gens] for any collection of generators, in ``_sort_gens`` order:
    the same ring object for equal generator sets, sorted once per process."""
    return _ring_of(frozenset(gens))


@functools.lru_cache(maxsize=512)
def _ring_of(gens: frozenset) -> PolyRing:
    return PolyRing(_sort_gens(gens), ZZ)


def _sort_gens(gens) -> tuple:
    """gens in the order of sympy's ``polyutils._sort_gens``, by the cached
    :func:`_gen_key` of each: no generator is printed again."""
    return tuple(sorted(gens, key=_gen_key))


@functools.lru_cache(maxsize=4096)
def _gen_key(g) -> tuple:
    """The key ``polyutils._sort_gens`` sorts g by, with no ``sort`` or
    ``wrt`` option: (rank of its name, name, index) read from ``str(g)``
    once per process."""
    name, index = _re_gen.match(str(g)).groups()
    return _gens_order.get(name, _max_order), name, int(index) if index else 0


@functools.lru_cache(maxsize=1024)
def _move_map(src: PolyRing, dst: PolyRing) -> tuple:
    """How an exponent tuple of src reads in dst: (take, dropped), take the
    src index of each dst generator (``src.ngens``, a zero pad, where src
    lacks it) and dropped the src indices of the generators dst lacks."""
    index = {s: i for i, s in enumerate(src.symbols)}
    take = tuple(index.pop(s, src.ngens) for s in dst.symbols)
    return take, tuple(index.values())


def _moved(p, R, take, dropped):
    """p of another ring in R, by the :func:`_move_map` (take, dropped)."""
    terms = {}
    for m, c in p.items():
        if dropped and any(m[i] for i in dropped):
            raise GeneratorsError("unable to drop generators")
        m += (0,)
        terms[tuple([m[i] for i in take])] = c
    return R.dtype(terms)


def _lift(e, R) -> "RingFraction":
    """e in the ring R, whose generators hold e's: the one way into a ring.

    An expression is lifted through :func:`_as_fraction`; a pair of another
    ring is moved by remapping its exponent tuples through the ring pair's
    cached :func:`_move_map` (both rings are over ZZ, so the coefficients
    move as they are); GeneratorsError if R lacks a generator it uses.
    """
    if isinstance(e, RingFraction):
        src = e.num.ring
        if src == R:
            return RingFraction(e.num, e.den)
        take, dropped = _move_map(src, R)
        return RingFraction(_moved(e.num, R, take, dropped), _moved(e.den, R, take, dropped))
    return RingFraction(*_as_fraction(sp.sympify(e), R, _index(R)))


@functools.lru_cache(maxsize=512)
def _index(R) -> types.MappingProxyType:
    """{generator: index} of R, read-only."""
    return types.MappingProxyType({s: i for i, s in enumerate(R.symbols)})


def _monomial(e, index):
    """(exponent tuple, coefficient) of e when it is an integer times
    positive integer powers of symbol generators of index, else None."""
    exponents, c = [0] * len(index), 1
    for a in e.args if e.is_Mul else (e,):
        if a.is_Integer:
            c *= a.p
        elif a.is_Symbol and a in index:
            exponents[index[a]] += 1
        elif a.is_Pow and a.exp.is_Integer and a.exp.p > 0 and a.base.is_Symbol and a.base in index:
            exponents[index[a.base]] += a.exp.p
        else:
            return None
    return tuple(exponents), c


def _as_fraction(e, R, index) -> tuple:
    """A (numerator, denominator) pair in R for an expression over R's gens,
    whose positions ``index`` holds (the ring's cached :func:`_index`).

    A monomial (an integer times positive powers of symbol generators) is
    one exponent tuple, and a sum collects its monomial terms in one dict;
    any other term is lifted by the recursion.  A rational p/q is the
    ground pair (p, q), so both sides keep integer coefficients.  Not
    reduced: a sum adds the numerators over each distinct denominator and
    brings the groups to the lcm of their denominators, so the only gcd
    work left is one cancellation of the final pair.
    """
    if e.is_Symbol:
        return R.gens[index[e]], R.one
    if e.is_Rational:
        return R.ground_new(e.p), R.ground_new(e.q)
    if e.is_Pow and e.exp.is_Integer:
        num, den = _as_fraction(e.base, R, index)
        k = int(e.exp)
        if k < 0:
            if not num:
                raise ZeroDivisionError(f"zero base of a negative power in {e}")
            num, den, k = den, num, -k
        return num**k, den**k
    if e.is_Mul:
        if (term := _monomial(e, index)) is not None:
            m, c = term
            return R.from_dict({m: c}), R.one
        num, den = R.one, R.one
        for a in e.args:
            n, d = _as_fraction(a, R, index)
            num, den = num * n, den * d
        return num, den
    if not e.is_Add:  # an elementary node: a power of its generator
        normal = _normal_node(e)
        if normal != e:
            return _as_fraction(normal, R, index)
        g, k = decompose_power(e)
        return (R.gens[index[g]] ** k, R.one) if k > 0 else (R.one, R.gens[index[g]] ** -k)
    groups, terms = {}, {}
    for a in e.args:
        if (term := _monomial(a, index)) is not None:
            m, c = term
            terms[m] = terms.get(m, 0) + c
        else:
            n, d = _as_fraction(a, R, index)
            groups[d] = groups.get(d, R.zero) + n
    if terms:
        groups[R.one] = groups.get(R.one, R.zero) + R.from_dict(terms)
    den = functools.reduce(_lcm, groups)
    return sum((n * _exquo(den, d) for d, n in groups.items()), R.zero), den


def _lcm(a, b):
    """lcm(a, b), the polynomial ``PolyElement.lcm`` returns.  When both are
    an integer times a monomial, by exponents: ``R.monomial_lcm`` times the
    integer lcm, negative when exactly one of a and b is, as sympy signs it.
    The one call of ``PolyElement.lcm``."""
    if len(a) == 1 == len(b):
        ((ma, ca),), ((mb, cb),) = a.items(), b.items()
        c = math.lcm(ca, cb)
        return a.ring.dtype({a.ring.monomial_lcm(ma, mb): c if (ca < 0) == (cb < 0) else -c})
    return a.lcm(b)


def _exquo(p, d):
    """p/d for a d that divides p: by exponents (``R.monomial_ldiv``) when d
    is an integer times a monomial, else ``PolyElement.exquo``."""
    if len(d) != 1:
        return p.exquo(d)
    ((m, c),) = d.items()
    ldiv = p.ring.monomial_ldiv
    return p.ring.dtype({ldiv(mp, m): cp // c for mp, cp in p.items()})


class RingFraction:
    """A rational function as a (numerator, denominator) pair of one ring.

    The ring is ``_ring(gens)`` with gens in ``_sort_gens`` order, as for
    :func:`canon`, computed once per generator set; the pair is not
    reduced.  Operators keep values in this form between steps, and
    :func:`canon`, :func:`zero_test` and :func:`numeric_witness` take one
    directly.  An equation, a Lagrangian or a vector field holds its pairs
    as its primary value, built from pairs or lifted once from
    expressions, and prints its trees only when they are read.  Every
    value enters a ring through :func:`_lift`, which moves a pair of
    another ring by its exponent tuples instead of lifting its expression
    again.  The operands of ``+``, ``-``, ``*`` and ``/`` meet in one ring: a pair
    of another ring, or an expression, moves with this pair into the ring
    of both operands' generators, and two pairs of one ring stay there.
    """

    __slots__ = ("num", "den", "_positions")

    def __init__(self, num, den):
        self.num, self.den = num, den

    @staticmethod
    def from_expr(e) -> "RingFraction":
        """e in the ring of its generators."""
        return _lift(e, _ring(_generators(e)))

    def _with(self, other) -> tuple:
        """self and other (a pair or an expression) in one ring."""
        R, pair = self.num.ring, isinstance(other, RingFraction)
        if pair and other.num.ring is R:
            return self, other
        U = _ring({*R.symbols, *(other.num.ring.symbols if pair else _generators(other))})
        return _lift(self, U), _lift(other, U)

    def __add__(self, other):
        self, other = self._with(other)
        a, b = self.den, other.den
        if a == b:
            return RingFraction(self.num + other.num, a)
        m = _lcm(a, b)
        return RingFraction(self.num * _exquo(m, a) + other.num * _exquo(m, b), m)

    def __neg__(self):
        return RingFraction(-self.num, self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        self, other = self._with(other)
        return RingFraction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        self, other = self._with(other)
        return RingFraction(self.num * other.den, self.den * other.num)

    @property
    def free_symbols(self) -> set:
        """The generators that occur in the numerator or the denominator."""
        symbols = self.num.ring.symbols
        return {symbols[i] for i in _used(self)}

    def as_expr(self) -> sp.Expr:
        """num/den, the tree sympy's ``/`` returns for the two
        :func:`_printed` sides (equal srepr).

        When the ring holds only symbols and den is an integer c > 0 times
        a monomial m, the tree is built without ``Mul.flatten``: den 1
        prints the numerator; a single term, or a sum over a ground c, is
        the Laurent sum of :func:`_printed`, as ``/`` spreads a ground
        denominator over a sum; any other sum is ``Mul._from_args`` of
        ``Rational(1, c)`` and the powers of 1/m and the numerator's sum in
        ``_mulsort`` order.  Other pairs divide by ``/``.
        """
        num, den = self.num, self.den
        if len(den) != 1 or den.LC < 0 or not _symbols_only(num.ring):
            return _printed(num) / _printed(den)
        if den == 1:
            return _printed(num)
        ((m, c),) = den.items()
        if len(num) <= 1 or not any(m):
            return _printed(num, den)
        factors = [sp.Pow(s, -k) for s, k in zip(num.ring.symbols, m) if k]
        factors.append(_printed(num))
        _mulsort(factors)
        if c != 1:
            factors.insert(0, sp.Rational(1, c))
        return sp.Mul._from_args(factors)

    def _sympy_(self) -> sp.Expr:
        """``sp.sympify`` of a pair is its expression."""
        return self.as_expr()

    def __repr__(self) -> str:
        """The pair's expression, so that an equation or a Lagrangian given
        as a pair reads as its value."""
        return f"{type(self).__name__}({self.as_expr()})"


def _used(f) -> tuple:
    """The positions of the generators that occur in f's numerator or
    denominator, in ring order, read once per pair and kept."""
    if getattr(f, "_positions", None) is None:
        f._positions = tuple(i for i, (a, b) in enumerate(zip(f.num.degrees(), f.den.degrees())) if a > 0 or b > 0)
    return f._positions


def _symbols_only(R) -> bool:
    """True when every generator of R is a symbol (no ln, exp, radical or E)."""
    return all(s.is_Symbol for s in R.symbols)


def _printed(p, den=None) -> sp.Expr:
    """p's expression, the tree ``p.as_expr()`` returns (equal srepr, the
    same args in the same order), built without sympy's flatten when every
    generator of its ring is a symbol.

    Each monomial is ``Mul._from_args`` of its generator powers in
    ``_mulsort`` order, its integer coefficient first unless it is 1, and
    the terms are ``Add._from_args`` in ``_addsort`` order, the constant
    first: the tree ``Mul.flatten`` and ``Add.flatten`` return for them.
    A ring with a node generator prints through ``PolyElement.as_expr``,
    as sympy merges powers of nodes (exp(x)^2 = exp(2x), y*sqrt(y) =
    y^(3/2)).

    With den, an integer c times a monomial m of a ring of symbols, this is
    p/den expanded, its Laurent sum: each term a*t prints as above with the
    coefficient ``Rational(a, c)`` and the powers of t/m, negative
    exponents allowed.
    """
    R = p.ring
    if den is None:
        if not _symbols_only(R):
            return p.as_expr()
        shift, d = None, 1
    else:
        ((shift, d),) = den.items()
    symbols, ldiv = R.symbols, R.monomial_ldiv
    coefficient = R.domain.to_sympy if d == 1 else lambda c: sp.Rational(c, d)
    terms, constant = [], None
    for m, c in p.items():
        if shift is not None:
            m = ldiv(m, shift)
        factors = [symbols[i] if k == 1 else sp.Pow(symbols[i], k) for i, k in enumerate(m) if k]
        if not factors:
            constant = coefficient(c)
            continue
        _mulsort(factors)
        if c != d:
            factors.insert(0, coefficient(c))
        terms.append(sp.Mul._from_args(factors))
    _addsort(terms)
    if constant is not None:
        terms.insert(0, constant)
    return sp.Add._from_args(terms)


def _expanded(f, fallback=None) -> sp.Expr:
    """f expanded, the tree ``sp.expand(f.as_expr())`` returns: the Laurent
    sum of :func:`_printed` when f's ring holds only symbols and its
    denominator is an integer times a monomial.  Any other pair prints by
    ``fallback()``, or by that expand when there is none."""
    if len(f.den) == 1 and _symbols_only(f.num.ring):
        return _printed(f.num, f.den)
    return fallback() if fallback is not None else sp.expand(f.as_expr())


def _by_degree(p, i) -> dict:
    """p grouped by its degree in generator i: {degree: cofactor}."""
    groups = {}
    for m, c in p.items():
        groups.setdefault(m[i], {})[m[:i] + (0,) + m[i + 1 :]] = c
    return {j: p.ring.dtype(terms) for j, terms in groups.items()}


def _rewritten(num, den, subs) -> tuple:
    """num/den with g^r -> a/b for the generator g of each index i in subs
    {i: (a, b, r)}, all keys at once: an image may hold keys.

    Each side is grouped by its exponents of the keys, and g^j becomes
    g^(j mod r) (a/b)^(j div r).  Both sides are homogenized by the power
    of each b that the higher of their degrees in g needs, so the powers
    of b cancel between them: no cancellation.
    """
    R, sides = num.ring, ({}, {})
    for p, groups in zip((num, den), sides):
        for m, c in p.items():
            rest = tuple(0 if i in subs else d for i, d in enumerate(m))
            groups.setdefault(tuple(m[i] for i in subs), {})[rest] = c
    factors = []
    for k, (i, (a, b, r)) in enumerate(subs.items()):
        degrees = {e[k] for groups in sides for e in groups}
        top = max(degrees) // r
        powers = {j: a ** (j // r) if j >= r else R.one for j in degrees}  # PolyElement refuses 0 ** 0
        factors.append({j: R.gens[i] ** (j % r) * powers[j] * b ** (top - j // r) for j in degrees})
    return tuple(
        sum((R.dtype(t) * math.prod(f[j] for f, j in zip(factors, e)) for e, t in groups.items()), R.zero)
        for groups in sides
    )


def _substituted(f, images) -> RingFraction:
    """f (an expression or a pair) with each generator among the keys of
    images replaced by its image (an expression or a pair), as a pair: the
    one way to substitute into a value of the ring.

    One ring holds the generators of f and of the images it uses; f and
    each image enter it through :func:`_lift`, and the keys of f are
    rewritten all at once (:func:`_rewritten`, no cancellation), so an
    image may hold keys: a change of x and y substitutes both together.
    A node of f that holds a key is itself a key, whose image is the node
    of its argument's image, cancelled but with no radical reduced, so
    that a radical monomial stays a factor the node's power splits.  A
    pair's ring keeps its generators, so a pair whose ring holds the
    images' generators does not move; f without a key stays in its own
    ring, a pair as it is.
    """
    gens = _generators(f)
    for g in gens:
        if not g.is_Symbol and g.free_symbols & images.keys():
            arg = _substituted(g.args[0], images)
            images = {**images, g: g.func(RingFraction(*arg.num.cancel(arg.den)).as_expr(), *g.args[1:])}
    images = {s: image for s, image in images.items() if s in gens}
    if not images:
        return f if isinstance(f, RingFraction) else _lift(f, _ring(gens))
    own = f.num.ring.symbols if isinstance(f, RingFraction) else ()
    R = _ring(gens.union(own, *map(_generators, images.values())))
    f = _lift(f, R)
    lifted = {R.symbols.index(s): _lift(image, R) for s, image in images.items()}
    return RingFraction(*_rewritten(f.num, f.den, {i: (a.num, a.den, 1) for i, a in lifted.items()}))


def _without_radical(num, den, i) -> tuple:
    """num/den reduced by g^r = b for the generator g = b^(1/r) of index i:
    g below degree r, and out of a denominator that is a monomial in g."""
    R = num.ring
    g, r = R.gens[i], R.symbols[i].exp.q
    b = _lift(R.symbols[i].base, R)
    while True:
        num, den = _rewritten(num, den, {i: (b.num, b.den, r)})
        num, den = num.cancel(den)
        degrees = {m[i] for m in den.itermonoms()}
        if len(degrees) > 1 or not (k := degrees.pop()):
            return num, den
        num, den = num * g ** (r - k), den * g ** (r - k)


def _reduced(f) -> "_CanonicalPair":
    """The pair with its common factors removed in the ring and each radical
    generator g = b^(1/r) reduced by g^r = b: a multiple of g^r - b left by
    a subtraction cancels.

    Over ZZ, ``PolyElement.cancel`` returns what ``sp.cancel`` returns: the
    unique p/q with no common factor (integer contents included) and a
    positive leading coefficient of q in lex order over the sorted gens.
    Gens absent from both polynomials change neither the order nor the
    result, and the radical step ends in such a cancel too.  A zero
    denominator raises ZeroDivisionError: ``cancel`` would return 1/0 as
    (1, 0) and 0/0 as (0, 1).
    """
    if not f.den:
        raise ZeroDivisionError("denominator is identically zero")
    num, den = f.num.cancel(f.den)
    for i, s in enumerate(num.ring.symbols):
        if s.is_Pow:
            num, den = _without_radical(num, den, i)
    return _CanonicalPair(num, den)


def _canonical_pair(e) -> "_CanonicalPair":
    """cancel's p/q for e (an expression or a RingFraction): the
    :func:`_reduced` pair of its lift.  A pair this function returned is
    returned as it is."""
    if isinstance(e, _CanonicalPair):
        return e
    return _reduced(e if isinstance(e, RingFraction) else RingFraction.from_expr(sp.sympify(e)))


class _CanonicalPair(RingFraction):
    """A pair in the normal form of :func:`_reduced`: its expression is the
    one :func:`canon` returns."""

    __slots__ = ()


def canon(e) -> sp.Expr:
    """Canonical form: a single normal form p/q over the ring generators.

    Idempotent, and the zero test for rational expressions: a rational
    expression is identically zero iff its canonical form is literal 0.
    e is lifted to a numerator/denominator pair over ZZ in its
    :func:`_generators`, and the pair ``PolyElement.cancel`` returns for it
    (a radical g = b^(1/r) reduced by g^r = b) is printed.  The result is
    srepr-identical to ``sp.cancel(sp.together(e))`` on rational and ln
    input and on exp input where cancel reads no exp(-t) or exp(c*t) as a
    generator of its own.  A :class:`RingFraction` is reduced in its ring.
    """
    return _canonical_pair(e).as_expr()


def partial(e, a) -> sp.Expr:
    """Formal partial derivative with all other atoms held fixed."""
    e = sp.sympify(e)
    if not isinstance(a, sp.Symbol):
        raise ValueError(f"partial expects an atom symbol, got {a}")
    return sp.diff(e, a)


def is_rational_expr(e) -> bool:
    """True when the expression is rational over the atoms (no ln/exp/roots).

    False as well for any form outside the atom grammar.  A RingFraction is
    rational when each generator it uses is an atom.
    """
    try:
        return all(g.is_Symbol for g in _generators(e))
    except UnsupportedForm:
        return False


@functools.lru_cache(maxsize=512)
def _names(R) -> tuple:
    """The printed name of each generator of R."""
    return tuple(map(str, R.symbols))


def _seeded_rng(e) -> random.Random:
    """The sampling RNG of e (an expression or a pair), seeded by a digest of
    its canonical pair: the (generator name, exponent) terms and integer
    coefficients of numerator and denominator.  Generators absent from both
    do not enter, so the seed does not depend on the ring holding the pair."""
    f = _canonical_pair(e)
    names, used = _names(f.num.ring), _used(f)

    def terms(p):
        return sorted((tuple((names[i], m[i]) for i in used if m[i]), c) for m, c in p.items())

    digest = hashlib.md5(repr((terms(f.num), terms(f.den))).encode()).hexdigest()
    return random.Random(int(digest[:16], 16))


def _evaluator(f):
    """(value, ref, den) of a canonical pair at a point: ``evaluate(draws)``
    with each atom drawn as k, the point each atom at k/100 (:func:`_point`).

    With every atom at k/100, each term of numerator and denominator is
    scaled by 100^D over its degree in the atoms, D the largest such degree
    of the pair, so a rational pair is evaluated in integers and never
    builds its point: each term is compiled once to its scaled coefficient
    and (position, exponent) pairs into the draws of the generators the
    pair uses.  Each node generator the pair uses (ln, exp or radical) is
    evaluated once per point at 30 digits, and the sums of a pair with
    nodes are 30-digit floats.  value is the sum of the numerator's terms
    n_i and ref is max(|d|, sum |n_i|): |value|/ref is the relative size of
    the pair, which no common scaling changes, nor does sympy spreading a
    ground denominator over the sum ((x+y)/2 prints as x/2 + y/2).  den is
    d, the denominator's sum under the same scaling, so value/den is the
    pair's value at the point.  None where d vanishes or a node value is
    not real and finite.
    """
    symbols, used = f.num.ring.symbols, _used(f)
    gens = [symbols[i] for i in used]
    atom = [g.is_Symbol for g in gens]
    nodes = [g for g, a in zip(gens, atom) if not a]

    def compiled(p):
        """(c, [(position, exponent)], degree in the atoms) of each term."""
        terms = []
        for m, c in p.items():
            factors = [(j, m[i]) for j, i in enumerate(used) if m[i]]
            terms.append((c, factors, sum(k for j, k in factors if atom[j])))
        return terms

    num, den = compiled(f.num), compiled(f.den)
    D = max(d for _, _, d in num + den)
    num, den = ([(c * 100 ** (D - d), factors) for c, factors, d in terms] for terms in (num, den))
    zero = sp.Float(0, 30) if nodes else 0

    def evaluate(draws):
        if nodes:
            point = _point(draws)
            values = {**draws, **{g: g.xreplace(point).evalf(30) for g in nodes}}
            if not all(values[g].is_real and values[g].is_finite for g in nodes):
                return None
            at = [values[g] for g in gens]
        else:
            at = [draws[g] for g in gens]
        d = sum((c * math.prod(at[j] ** k for j, k in m) for c, m in den), zero)
        if d == 0:
            return None
        vals = [c * math.prod(at[j] ** k for j, k in m) for c, m in num]
        return sum(vals, zero), max(abs(d), sum(map(abs, vals), zero)), d

    return evaluate


@functools.lru_cache(maxsize=1024)
def _hundredths(k: int) -> sp.Rational:
    """k/100, one of the 991 values a sample coordinate takes."""
    return sp.Rational(k, 100)


def _point(draws) -> dict:
    """The sample point of draws {atom: k}: each atom at k/100."""
    return {s: _hundredths(k) for s, k in draws.items()}


def _atoms(f) -> list:
    """The atoms of a pair's generators (nodes' arguments too), in name order."""
    return sorted((s for s in _generators(f) if s.is_Symbol), key=lambda s: s.name)


def _draws(e, points):
    """Seeded regular draws of e, an expression or a pair, the one sampler
    of :func:`zero_test`, :func:`numeric_witness` and :func:`witnessed`.

    e goes to its canonical pair once (a canonical pair is taken as it is).
    A zero pair has no draws, and an atom-free pair one, at {}.  Others
    yield (draws, value, ref) at up to ``points`` draws {atom: k}, k in
    10..1000, of its :func:`_atoms`, from the RNG of :func:`_seeded_rng`
    (``randint(10, 1000)``'s stream, read as 10 random bits), skipping
    singular points and giving up after 40*points draws; |value|/ref is
    the pair's relative size at the point of the draws (:func:`_point`),
    from :func:`_evaluator`: in integers for a rational pair, with node
    generators at 30 digits otherwise.  No step builds the expression.
    """
    f = _canonical_pair(e)
    if not f.num:
        return
    symbols = _atoms(f)
    points = points if symbols else 1
    bits = _seeded_rng(f).getrandbits
    evaluate = _evaluator(f)
    taken = 0
    for _ in range(40 * points):
        if taken == points:
            return
        draws = {}
        for s in symbols:  # rng.randint(10, 1000): 10 bits, rejected from 991 on
            k = bits(10)
            while k >= 991:
                k = bits(10)
            draws[s] = k + 10
        result = evaluate(draws)
        if result is None:
            continue
        taken += 1
        yield draws, *result[:2]


def _symbolic_confirm(e) -> bool:
    for simplifier in (
        lambda t: sp.cancel(sp.radsimp(t)),
        lambda t: sp.cancel(sp.powsimp(t, force=True)),
        lambda t: sp.cancel(sp.logcombine(sp.expand(t), force=True)),
        sp.simplify,
    ):
        try:
            if simplifier(e) == 0:
                return True
        except Exception:
            continue
    return False


_WITNESS_TOL = sp.Rational(1, 10**9)  # relative value above which a draw is nonzero


def zero_test(e) -> bool:
    """Decide whether an expression or a pair vanishes identically.

    e is reduced to its canonical pair once, which decides rational input
    exactly.  With ln, exp or radical nodes the pair decides only the
    nonzero direction, and the pair is nonzero when one of its 20
    :func:`_draws` (one without atoms) is :func:`_above` ``_WITNESS_TOL``,
    the draws and comparison by which :func:`witnessed` certifies it.
    Otherwise a cheap symbolic confirmation on the pair's expression must
    succeed; :class:`Inconclusive` is raised when it fails, or when fewer
    draws are regular.
    """
    f = _canonical_pair(e)
    if not f.num:
        return True
    if is_rational_expr(f):
        return False
    taken = 0
    for _, value, ref in _draws(f, 20):
        if _above(value, ref, _WITNESS_TOL):
            return False
        taken += 1
    c = f.as_expr()
    if taken < (20 if _atoms(f) else 1):
        raise Inconclusive(c, "could not find regular sample points")
    if not _symbolic_confirm(c):
        raise Inconclusive(c)
    return True


def _above(value, ref, tol) -> bool:
    """|value|/ref > tol, in integers for a rational pair's draw."""
    if isinstance(value, int):
        return abs(value) * tol.q > tol.p * ref
    return abs(value) / ref > tol


def numeric_witness(e, points: int = 20, tol=_WITNESS_TOL):
    """Best nonzero sample of an expression or a pair: (point, relative value)
    or None.

    A claim "e is not identically zero" is backed by a concrete sample
    where the relative value |value|/ref exceeds ``tol``; this returns the
    best of the :func:`_draws`, the first on a tie, and builds only its
    point and its value.  For a rational pair the draws compare in
    integers, by cross-multiplying value and ref, and the relative value is
    one exact ``sp.Rational``; otherwise it is a 30-digit float.
    """
    best = None
    for draws, value, ref in _draws(e, points):
        value, ref = (abs(value), ref) if isinstance(value, int) else (abs(value) / ref, 1)
        if best is None or value * best[2] > best[1] * ref:
            best = draws, value, ref
    if best is None:
        return None
    draws, value, ref = best
    rel = sp.Rational(value, ref) if isinstance(value, int) else value
    if rel <= tol:
        return None
    return _point(draws), rel


def witnessed(e) -> bool:
    """True when e (an expression or a pair) is certified nonzero: one of
    20 :func:`_draws` has a relative value above ``_WITNESS_TOL``.

    The sampling stops at the first such draw.  A draw above the tolerance
    exists exactly when the best draw is above it, so this is
    ``numeric_witness(e) is not None``.
    """
    return any(_above(value, ref, _WITNESS_TOL) for _, value, ref in _draws(e, 20))
