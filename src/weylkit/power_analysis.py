"""Weighted-homogeneous bivariate polynomial analysis.

A polynomial that is homogeneous for an axis weight (n,1) factors over the
algebraic closure as c * X^a * Y^b * prod (X - mu_i Y^n)^(s_i); the core
univariate polynomial in Z = X/Y^n carries the roots mu_i with their
multiplicities.  The power index is the largest m such that the polynomial
is an m-th power over the closure, which is gcd(a, b, S) with S the gcd of
the s_i.  The r for which the core is an r-th power over the closure are
exactly the divisors of S, and S divides deg core = sum s_i, so the index
is the largest divisor r of gcd(a, b, deg core) for which the monic core
is an r-th power.  That test is exact over the rationals: a monic r-th
root is unique, and monic_root's recurrence shows it is rational.  Index 1
certifies "not a proper power" over the closure and hence over the
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .polynomials import BiPoly, UniPoly
from .polygon import Weight


@dataclass(frozen=True)
class HomogShape:
    """Factored shape of an axis-weight homogeneous polynomial:
    X^x_mult * Y^y_mult * (homogenization of core), with core(0) != 0."""

    x_mult: int
    y_mult: int
    core: UniPoly
    weight: Weight

    def power_index(self) -> int:
        """Largest m such that the shape is an m-th power over the algebraic
        closure: with g = gcd(x_mult, y_mult, deg core), the largest
        divisor r of g for which the monic core has a monic r-th root
        (monic_root)."""
        g = gcd(self.x_mult, self.y_mult, self.core.degree())
        if g == 0:
            raise ValueError("power index is undefined for constant polynomials")
        if g == 1:
            return 1
        core = self.core.monic()
        for r in range(g, 1, -1):
            if g % r == 0 and monic_root(core, r) is not None:
                return r
        return 1

    def linear_root(self) -> Fraction | None:
        """mu if the core is lead*(Z - mu)^k, k = deg core >= 1, else None, in
        O(k): c_(k-1) = -k lead mu fixes mu, then c_j = lead C(k,j) (-mu)^(k-j)."""
        c = self.core.coeffs()
        k = len(c) - 1
        mu, term = -c[k - 1] / (k * c[k]), c[k]
        for j in range(k - 1, -1, -1):
            term = -term * mu * (j + 1) / (k - j)  # lead C(k,j) (-mu)^(k-j)
            if c[j] != term:
                return None
        return mu


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


def monic_root(f: UniPoly, r: int) -> UniPoly | None:
    """The monic h with h**r == f, or None when f is no r-th power.

    f is monic of degree n and r >= 1 divides n.  With F(t) = t^n f(1/t),
    so F(0) = 1, suppose f = h^r with h monic.  Then the reversal G of h is
    the unique power series with G(0) = 1 and G^r = F, and F G' = (1/r) F' G
    gives its coefficients:

        G_k = (1/k) sum_{j=1..k} (j/r - (k - j)) F_j G_{k-j}.

    They are rational.  If f = h^r, G is a polynomial of degree m = n/r,
    so G_k = 0 for m < k <= n.  Conversely, if those G_k vanish, the
    truncation H = G_0 + ... + G_m t^m has H^r = F mod t^(n+1), and both
    sides have degree at most n, so H^r = F and the reversal of H is a
    monic r-th root of f.  So the recurrence runs to k = n, with the sum
    over j >= k - m (the G beyond m are zero), and stops at the first
    nonzero G_k past m: O(n m) operations and no power of h.  The test over
    the rationals is exact: a monic r-th root over the closure is unique,
    and the recurrence makes it rational.  At r = n the root is linear,
    Z - mu, exactly when f = (Z - mu)^n.
    """
    n = f.degree()
    m = n // r
    F = f.coeffs()[::-1]
    G = [Fraction(1)]
    for k in range(1, n + 1):
        g = sum((j - r * (k - j)) * F[j] * G[k - j] for j in range(max(1, k - m), k + 1)) / (r * k)
        if k <= m:
            G.append(g)
        elif g:
            return None
    return UniPoly(G[::-1])


def power_index(f: BiPoly, w: Weight) -> int:
    """Largest m such that f is an m-th power over the algebraic closure
    (HomogShape.power_index of its shape at w).

    Index 1 certifies f is not a proper power over the closure, hence not
    over the rationals either.  An index above 1 guarantees a root over the
    closure only; a rational root may require the unit to be an m-th power
    in the rationals.
    """
    return dehomogenize(f, w).power_index()
