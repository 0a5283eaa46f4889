"""Point transformations acting on the jet space.

A transformation sigma = (zeta(x,y), phi(x,y)) reads: the new independent
variable is z = zeta, the new dependent variable is w = phi.  Objects
written in (z, w)-jet coordinates use the same atom family as the source
side; transforming substitutes the jet images z -> zeta, w^(k) -> image
into the object's pair, all at once.  A map is its pairs: the components'
canonical pairs, their partials and D_x zeta are formed once, in one
operator algebra, when the map is built, and every function here takes
them as they are.  The monic image of an equation and the image of a
Lagrangian, a vector field or a map are passed on as their canonical
pairs, printed only when read; the covariant image of an equation and a
transformed first integral are printed once from their canonical pairs.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import sympy as sp

from . import exprcore
from .exprcore import JET, X, RingFraction, _reduced, max_jet_order, zero_test
from .jetcalc import DiffEq, Lagrangian, VectorField, _algebra, _jet_free, ladder_images


class SingularMap(ValueError):
    """The transformation degenerates (zero Jacobian, as for a zero D_x zeta)."""


class MissingInverse(ValueError):
    """Push-forward requested for a map family without a usable inverse."""


@dataclass(frozen=True)
class PointTransformation:
    """Invertible change of variables z = zeta(x, y), w = phi(x, y), each
    component given as an expression or a pair.

    Built once: one operator algebra (``rates`` carries the x-derivatives of
    opaque atoms in the components) forms the components' pairs
    (``pairs``), the partials zeta_x, zeta_y, phi_x and phi_y
    (``partials``, x-derivatives with jets held fixed) and D_x zeta =
    zeta_x + zeta_y*y1 (``dx_zeta``), each reduced once, and the Jacobian
    is decided on its pair.  ``zeta`` and ``phi`` (the values given, or the
    pairs' prints), ``zeta_x``, ``zeta_y()``, ``phi_x()`` and ``phi_y()``
    are prints, made only when read.
    """

    zeta_value: sp.Expr | RingFraction
    phi_value: sp.Expr | RingFraction
    rates: dict = field(default_factory=dict)

    def __post_init__(self):
        for attr in ("zeta_value", "phi_value"):
            object.__setattr__(self, attr, _jet_free(getattr(self, attr), "transformation component"))
        pairs = tuple(map(exprcore._canonical_pair, (self.zeta_value, self.phi_value)))
        J = _algebra(self.rates, *((c, 1) for c in pairs))
        zeta, phi = map(J.lift, pairs)
        partials = tuple(_reduced(d) for c in (zeta, phi) for d in (J.dx(c, J.fixed), J.partial(c, JET[0])))
        vars(self).update(pairs=pairs, partials=partials, dx_zeta=_reduced(J.dx(zeta)))  # frozen: as cached_property stores
        zeta_x, zeta_y, phi_x, phi_y = partials
        # jac = 0 also wherever D_x zeta = zeta_x + zeta_y*y1 does (zeta_x = zeta_y = 0)
        if zero_test(zeta_x * phi_y - zeta_y * phi_x):
            raise SingularMap(f"Jacobian of ({self.zeta}, {self.phi}) vanishes")

    @functools.cached_property
    def zeta(self) -> sp.Expr:
        return sp.sympify(self.zeta_value)

    @functools.cached_property
    def phi(self) -> sp.Expr:
        return sp.sympify(self.phi_value)

    @functools.cached_property
    def zeta_x(self) -> sp.Expr:
        return self.partials[0].as_expr()

    def zeta_y(self):
        return self.partials[1].as_expr()

    def phi_x(self):
        return self.partials[2].as_expr()

    def phi_y(self):
        return self.partials[3].as_expr()

    def base_substitution(self) -> dict:
        """Images of the base coordinates: z -> zeta, w -> phi."""
        return {X: self.zeta, JET[0]: self.phi}


def identity_map() -> PointTransformation:
    return PointTransformation(X, JET[0])


def compose(outer: PointTransformation, inner: PointTransformation) -> PointTransformation:
    """The transformation outer o inner, with canonical components."""
    return PointTransformation(*(_image(c, inner) for c in outer.pairs), rates={**inner.rates, **outer.rates})


def jet_substitution(sigma: PointTransformation, order: int) -> dict:
    """Images of z, w, w', ..., w^(order) as expressions in the source jets."""
    return {s: sp.sympify(a) for s, a in _images(sigma, JET[: order + 1]).items()}


def _images(sigma: PointTransformation, used) -> dict:
    """Images of z and of the jets among used, as pairs: the ladder of phi
    under D_x / D_x(zeta), w^(k+1) = D_x(w^(k)) / D_x(zeta)."""
    scale = RingFraction(sigma.dx_zeta.den, sigma.dx_zeta.num)
    return {X: sigma.pairs[0], **ladder_images(JET, sigma.pairs[1], used, sigma.rates, scale)}


def _image(f, sigma: PointTransformation, weight=None) -> "exprcore._CanonicalPair":
    """The canonical pair of f (an expression or a pair) with the jet images
    of sigma substituted, all at once, times weight, if any, lifted into
    its ring."""
    f = exprcore._substituted(f, _images(sigma, exprcore._generators(f)))
    return exprcore._canonical_pair(f if weight is None else f * weight)


def transform_equation(eq: DiffEq, sigma: PointTransformation) -> DiffEq:
    """Image of an equation written in (z, w), normalized monic in y^(n):
    the numerator over its y^(n) coefficient, read by a degree test.  A
    map with a nonzero Jacobian keeps the equation linear in y^(n)."""
    f = _image(eq.pair, sigma)
    lead = exprcore._by_degree(f.num, f.num.ring.symbols.index(JET[eq.order]))[1]
    return DiffEq(exprcore._canonical_pair(RingFraction(f.num, lead)), eq.order)


def transform_equation_covariant(eq: DiffEq, sigma: PointTransformation) -> DiffEq:
    """Image of an equation weighted by D_x(zeta) * phi_y.

    This is the representative whose pairing with transformed
    characteristics preserves total derivatives: if Q*Delta is exact then
    so is Q'*Delta' for the push-forward, with Q' the plain characteristic.
    Divergence-symmetry membership is stable under point transformations
    for exactly this weighting; the monic form differs from it by a
    differential-function factor.
    """
    zeta_x, _, _, phi_y = sigma.partials
    return DiffEq(_image(eq.pair, sigma, zeta_x * phi_y).as_expr(), eq.order)


def pushforward(v: VectorField, sigma: PointTransformation) -> VectorField:
    """Vector field corresponding to v under the change of variables.

    v is written in the (z, w) coordinates; the result acts in (x, y).
    Supported for fiber-preserving maps z = zeta(x), w = phi(x, y) with
    phi_y != 0, which is the family the construction needs; general
    (x,y)-mixing maps would require a symbolic inverse.  The coefficients
    are substituted as pairs, and the result holds canonical pairs.  With
    zeta_y = 0 (``zero_test``), the map's nonzero Jacobian is zeta_x*phi_y.
    """
    zeta_x, zeta_y, phi_x, phi_y = sigma.partials
    if not zero_test(zeta_y):
        raise MissingInverse("push-forward implemented for fiber-preserving maps only")
    base = _images(sigma, JET[:1])
    xi_t, psi_t = (exprcore._substituted(c, base) for c in v.pairs)
    xi = exprcore._canonical_pair(xi_t / zeta_x)
    psi = exprcore._canonical_pair((psi_t - xi * phi_x) / phi_y)
    return VectorField(xi, psi, name=v.name)


def transform_lagrangian(L: Lagrangian, sigma: PointTransformation) -> Lagrangian:
    """Image density L(jet images) * D_x zeta, same declared order."""
    density = _image(L.pair, sigma, sigma.dx_zeta)
    return Lagrangian(density, max(L.order, max_jet_order(density)))


def transform_first_integral(F, sigma: PointTransformation) -> sp.Expr:
    """Image of a first integral: plain substitution of the jet images."""
    return _image(F, sigma).as_expr()
