"""Point transformations acting on the jet space.

A transformation sigma = (zeta(x,y), phi(x,y)) reads: the new independent
variable is z = zeta, the new dependent variable is w = phi.  Objects
written in (z, w)-jet coordinates use the same atom family as the source
side; transforming substitutes the jet images z -> zeta, w^(k) -> image
into the object's pair, all at once.  The image of an equation, a
Lagrangian or a vector field is passed on as its canonical pairs, printed
only when read; every other result is printed once from its canonical
pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import sympy as sp

from . import exprcore
from .exprcore import JET, X, RingFraction, canon, max_jet_order, zero_test
from .jetcalc import DiffEq, Lagrangian, VectorField, _dx_fixed, dx_fixed_jets, ladder_images


class SingularMap(ValueError):
    """The transformation degenerates (zero Jacobian, as for a zero D_x zeta)."""


class MissingInverse(ValueError):
    """Push-forward requested for a map family without a usable inverse."""


@dataclass(frozen=True)
class PointTransformation:
    """Invertible change of variables z = zeta(x, y), w = phi(x, y).

    ``zeta_x`` may be supplied when the stored zeta is an antiderivative
    whose derivative has a simpler normal form (the source transformation
    stores z = v/(W u) but uses z_x = 1/u^2 directly).  ``rates`` carries
    x-derivatives of opaque atoms appearing in the component functions.
    """

    zeta: sp.Expr
    phi: sp.Expr
    zeta_x: sp.Expr = None
    rates: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "zeta", sp.sympify(self.zeta))
        object.__setattr__(self, "phi", sp.sympify(self.phi))
        for c in (self.zeta, self.phi):
            if max_jet_order(c) > 0:
                raise ValueError(f"transformation component {c} involves jets")
        zx = self.zeta_x if self.zeta_x is not None else dx_fixed_jets(self.zeta, self.rates)
        object.__setattr__(self, "zeta_x", sp.sympify(zx))
        jac = self.zeta_x * self.phi_y() - self.zeta_y() * self.phi_x()
        # jac = 0 also wherever D_x zeta = zeta_x + zeta_y*y1 does (zeta_x = zeta_y = 0)
        if zero_test(jac):
            raise SingularMap(f"Jacobian of ({self.zeta}, {self.phi}) vanishes")

    def zeta_y(self):
        return sp.diff(self.zeta, JET[0])

    def phi_x(self):
        return dx_fixed_jets(self.phi, self.rates)

    def phi_y(self):
        return sp.diff(self.phi, JET[0])

    def base_substitution(self) -> dict:
        """Images of the base coordinates: z -> zeta, w -> phi."""
        return {X: self.zeta, JET[0]: self.phi}


def identity_map() -> PointTransformation:
    return PointTransformation(X, JET[0])


def compose(outer: PointTransformation, inner: PointTransformation) -> PointTransformation:
    """The transformation outer o inner, with canonical components."""
    subs = inner.base_substitution()
    zeta, phi = (canon(exprcore._substituted(c, subs)) for c in (outer.zeta, outer.phi))
    return PointTransformation(zeta, phi, rates={**inner.rates, **outer.rates})


def jet_substitution(sigma: PointTransformation, order: int) -> dict:
    """Images of z, w, w', ..., w^(order) as expressions in the source jets."""
    return {s: sp.sympify(a) for s, a in _images(sigma, JET[: order + 1]).items()}


def _images(sigma: PointTransformation, used) -> dict:
    """Images of z and of the jets among used, the jets' as pairs: the
    ladder of phi under D_x / D_x(zeta), w^(k+1) = D_x(w^(k)) / D_x(zeta)."""
    dz = sigma.zeta_x + sigma.zeta_y() * JET[1]
    return {X: sigma.zeta, **ladder_images(JET, sigma.phi, used, sigma.rates, scale=1 / dz)}


def _image(f, sigma: PointTransformation, weight=1) -> "exprcore._CanonicalPair":
    """The canonical pair of f (an expression or a pair) with the jet images
    of sigma substituted, all at once, times weight lifted into its ring."""
    f = exprcore._substituted(f, _images(sigma, exprcore._generators(f)))
    return exprcore._canonical_pair(f * weight)


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
    return DiffEq(_image(eq.pair, sigma, sigma.zeta_x * sigma.phi_y()).as_expr(), eq.order)


def pushforward(v: VectorField, sigma: PointTransformation) -> VectorField:
    """Vector field corresponding to v under the change of variables.

    v is written in the (z, w) coordinates; the result acts in (x, y).
    Supported for fiber-preserving maps z = zeta(x), w = phi(x, y) with
    phi_y != 0, which is the family the construction needs; general
    (x,y)-mixing maps would require a symbolic inverse.  The coefficients
    are substituted as pairs, and the result holds canonical pairs.
    """
    if not zero_test(sigma.zeta_y()):
        raise MissingInverse("push-forward implemented for fiber-preserving maps only")
    phi_y = sigma.phi_y()
    if zero_test(phi_y):
        raise SingularMap("phi_y vanishes identically")
    xi_t, psi_t = (exprcore._substituted(c, sigma.base_substitution()) for c in v.pairs)
    xi = exprcore._canonical_pair(xi_t * (1 / sigma.zeta_x))
    psi = exprcore._canonical_pair((psi_t - xi * _dx_fixed(sigma.phi, sigma.rates)) * (1 / phi_y))
    return VectorField(xi, psi, name=v.name)


def transform_lagrangian(L: Lagrangian, sigma: PointTransformation) -> Lagrangian:
    """Image density L(jet images) * D_x zeta, same declared order."""
    density = _image(L.pair, sigma, sigma.zeta_x + sigma.zeta_y() * JET[1])
    return Lagrangian(density, max(L.order, max_jet_order(density)))


def transform_first_integral(F, sigma: PointTransformation) -> sp.Expr:
    """Image of a first integral: plain substitution of the jet images."""
    return _image(F, sigma).as_expr()
