"""Weighted-homogeneous bivariate polynomial analysis.

A polynomial that is homogeneous for an axis weight (n,1) factors over the
algebraic closure as c * X^a * Y^b * prod (X - mu_i Y^n)^(s_i); the core
univariate polynomial in Z = X/Y^n carries the roots mu_i with their
multiplicities.  The power index is the largest m such that the polynomial
is an m-th power over the closure, computed as gcd(a, b, s_1, ..., s_k).
Multiplicity structure is preserved under field extension in
characteristic zero, so rational squarefree decomposition suffices; index
1 certifies "not a proper power" over the closure and hence over the
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .polynomials import BiPoly, UniPoly, poly_gcd
from .polygon import Weight


@dataclass(frozen=True)
class HomogShape:
    """Factored shape of an axis-weight homogeneous polynomial:
    X^x_mult * Y^y_mult * (homogenization of core), with core(0) != 0."""

    x_mult: int
    y_mult: int
    core: UniPoly
    weight: Weight


def _dehomogenize_x_axis(f: BiPoly, n: int) -> tuple[int, int, UniPoly]:
    """Shape for weight (n, 1): core in Z = X / Y^n."""
    pts = f.support()
    a = min(i for i, _ in pts)
    b = min(j for _, j in pts)
    shifted = {(i - a, j - b): c for (i, j), c in f.terms().items()}
    rest = max(n * i + j for i, j in shifted)
    coeffs = [Fraction(0)] * (rest // n + 1 if rest else 1)
    for (i, j), c in shifted.items():
        if n * i + j != rest:
            raise ValueError("polynomial is not weighted-homogeneous for this weight")
        # along the degree line, j = rest - n*i, so i indexes the core
        coeffs[i] = c
    core = UniPoly(coeffs)
    if not core.constant_term():
        raise ValueError("core lost its constant term; input support is inconsistent")
    return a, b, core


def dehomogenize(f: BiPoly, w: Weight) -> HomogShape:
    """Split off the pure X and Y factors and the core polynomial whose
    roots are the remaining factors over the closure.

    Requires an axis weight: (n,1) works on the X side, (1,n) on the Y side
    via exchanging the variables; (1,1) uses the X-side convention.  A
    polynomial that is not homogeneous for w raises ValueError.
    """
    if f.is_zero():
        raise ValueError("zero polynomial has no homogeneous shape")
    if w.sigma == 1:
        a, b, core = _dehomogenize_x_axis(f, w.rho)
        return HomogShape(a, b, core, w)
    if w.rho == 1:
        b, a, core = _dehomogenize_x_axis(f.swap_vars(), w.sigma)
        return HomogShape(a, b, core, w)
    raise ValueError("requires axis weight")


def rehomogenize(shape: HomogShape) -> BiPoly:
    """Inverse of dehomogenize: rebuild the bivariate polynomial."""
    w = shape.weight
    deg = shape.core.degree()
    terms: dict[tuple[int, int], Fraction] = {}
    if w.sigma == 1:
        n = w.rho
        for t, c in enumerate(shape.core.coeffs()):
            if c:
                terms[(shape.x_mult + t, shape.y_mult + n * (deg - t))] = c
    else:
        n = w.sigma
        for t, c in enumerate(shape.core.coeffs()):
            if c:
                terms[(shape.x_mult + n * (deg - t), shape.y_mult + t)] = c
    return BiPoly(terms)


@dataclass(frozen=True)
class SquarefreeDecomp:
    """unit * prod(factor^multiplicity) with monic, squarefree, pairwise
    coprime factors."""

    unit: Fraction
    factors: tuple[tuple[UniPoly, int], ...]


def squarefree_decompose(g: UniPoly) -> SquarefreeDecomp:
    """Yun's algorithm over the rationals (characteristic zero)."""
    if g.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    unit = g.leading()
    f = g.monic()
    if f.degree() == 0:
        return SquarefreeDecomp(unit, ())
    factors: list[tuple[UniPoly, int]] = []
    d = poly_gcd(f, f.derivative())
    b = f // d
    c = f.derivative() // d
    z = c - b.derivative()
    i = 1
    while b.degree() > 0:
        a = poly_gcd(b, z)
        if a.degree() > 0:
            factors.append((a, i))
        b = b // a
        c = z // a
        z = c - b.derivative()
        i += 1
    return SquarefreeDecomp(unit, tuple(factors))


def power_index(f: BiPoly, w: Weight) -> int:
    """Largest m such that f is an m-th power over the algebraic closure:
    the gcd of the axis multiplicities and the core root multiplicities.

    Index 1 certifies f is not a proper power over the closure, hence not
    over the rationals either.  An index above 1 guarantees a root over the
    closure only; a rational root may require the unit to be an m-th power
    in the rationals.
    """
    shape = dehomogenize(f, w)
    if gcd(shape.x_mult, shape.y_mult) == 1:
        return 1  # the gcd with the core multiplicities stays 1: skip Yun
    values = [shape.x_mult, shape.y_mult]
    if shape.core.degree() > 0:
        values.extend(mult for _, mult in squarefree_decompose(shape.core).factors)
    r = gcd(*values)
    if r == 0:
        raise ValueError("power index is undefined for constant polynomials")
    return r
