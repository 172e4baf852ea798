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
root is unique, and the recurrence of _root_numerators shows it is
rational.  Index 1 certifies "not a proper power" over the closure and
hence over the rationals.

The core is kept as the integer numerators of the polynomial, as the
polynomial stores them, and both root tests run on those integers: scaling
a core changes neither its roots nor their multiplicities.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .element import _Value, numerators
from .polynomials import BiPoly
from .polygon import Weight


class HomogShape(_Value):
    """Factored shape of an axis-weight homogeneous polynomial:
    X^x_mult * Y^y_mult * (homogenization of core), with core(0) != 0.
    The core is sum_k nums[k]/den Z^k, for integers nums and den > 0."""

    __slots__ = ("x_mult", "y_mult", "den", "nums", "weight")

    def __init__(self, x_mult: int, y_mult: int, den: int, nums: tuple[int, ...], weight: Weight):
        object.__setattr__(self, "x_mult", x_mult)
        object.__setattr__(self, "y_mult", y_mult)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "weight", weight)

    def power_index(self) -> int:
        """Largest m such that the shape is an m-th power over the algebraic
        closure: with g = gcd(x_mult, y_mult, deg core), the largest
        divisor r of g for which the core is lead times a monic r-th power
        (_root_numerators).  That root is rational, so m is the same over
        the rationals for the shape over lead."""
        g = gcd(self.x_mult, self.y_mult, len(self.nums) - 1)
        if g == 0:
            raise ValueError("power index is undefined for constant polynomials")
        rev = self.nums[::-1]
        for r in range(g, 1, -1):
            if g % r == 0 and _root_numerators(rev, r) is not None:
                return r
        return 1

    def linear_root(self) -> Fraction | None:
        """mu if the core is lead*(Z - mu)^k, k = deg core >= 1, else None,
        in O(k) integer steps.

        With c_j the integer numerators, c_(k-1) = -k c_k mu fixes
        mu = -c_(k-1)/(k c_k), and c_j = c_k C(k,j) (-mu)^(k-j) for every j.
        Multiplied by (k c_k)^(k-j) that reads

            c_j (k c_k)^(k-j) = c_k C(k,j) c_(k-1)^(k-j),

        both sides of degree k-j+1 in the c, so the test holds for the core
        at any scale.  It is trivial at j = k and j = k-1; for j < k-1 the
        two powers and C(k,j) = C(k,j+1) (j+1)/(k-j) are updated step by
        step.  The one Fraction made is the mu returned.

        _root_numerators(rev, k) runs the same test at r = k, yet this one
        is kept apart: folded into that call, it gave the same answers, but
        each call took 2.4x as long on the 209 step cores of one orbit pass
        (that recurrence carries powers of L r and factorials), and orbit
        p50 rose 2.1% and tail 2.7% over eight 6 s benchmark pairs
        (Python 3.11.7, 2-vCPU shared guest).
        """
        c = self.nums
        k = len(c) - 1
        lead, sub = c[k], c[k - 1]
        step = k * lead
        scale, power, binom = step, sub, k  # (k c_k)^(k-j), c_(k-1)^(k-j), C(k,j) at j = k-1
        for j in range(k - 2, -1, -1):
            scale *= step
            power *= sub
            binom = binom * (j + 1) // (k - j)
            if c[j] * scale != lead * binom * power:
                return None
        return Fraction(-sub, step)


def dehomogenize(f: BiPoly, w: Weight) -> HomogShape:
    """Split off the pure X and Y factors and the core polynomial whose
    roots are the remaining factors over the closure.

    Requires an axis weight: at (n,1) the core is in Z = X/Y^n and is
    indexed by the exponent of X less x_mult; at (1,n) it is in Y/X^n and
    indexed by the exponent of Y less y_mult; (1,1) uses the X-side
    convention.  The core's numerators are f's own, over f's denominator.
    A polynomial that is not homogeneous for w raises ValueError.
    """
    d, nums = numerators(f)
    if not nums:
        raise ValueError("zero polynomial has no homogeneous shape")
    if w.sigma == 1:
        side = 0
    elif w.rho == 1:
        side = 1
    else:
        raise ValueError("requires axis weight")
    x_mult = min(i for i, _ in nums)
    y_mult = min(j for _, j in nums)
    low = (x_mult, y_mult)[side]
    rho, sigma = w.rho, w.sigma
    i, j = next(iter(nums))
    v = rho * i + sigma * j
    # along the degree line the exponent on the core's side fixes the other,
    # and the point where it is least (x_mult or y_mult) is in the support,
    # so core[0] != 0
    core = [0] * (max(pt[side] for pt in nums) - low + 1)
    for pt, c in nums.items():
        if rho * pt[0] + sigma * pt[1] != v:
            raise ValueError("polynomial is not weighted-homogeneous for this weight")
        core[pt[side] - low] = c
    return HomogShape(x_mult, y_mult, d, tuple(core), w)


def _root_numerators(rev: Sequence[int], r: int) -> list[int] | None:
    """The numerators g_0, ..., g_m of the r-th root series of
    F(t) = sum_j rev[j]/rev[0] t^j, m = n/r with n = len(rev) - 1, or None
    when F has no r-th root of degree m; r >= 1 divides n.

    rev holds the integer core N from its leading coefficient down, so that
    F is the reversal t^n f(1/t) of the monic core f, and F(0) = 1.  If
    f = h^r with h monic, the reversal G of h is the unique power series
    with G(0) = 1 and G^r = F, and F G' = (1/r) F' G gives its
    coefficients:

        G_k = (1/k) sum_{j=1..k} (j/r - (k - j)) F_j G_(k-j).

    They are rational, and G_k = 0 for m < k <= n.  Conversely, if those
    G_k vanish, the truncation H = G_0 + ... + G_m t^m has
    H^r = F mod t^(n+1), and both sides have degree at most n, so H^r = F
    and the reversal of H is a monic r-th root of f.  So the recurrence
    runs to k = n, with the sum over j >= k - m (the G beyond m are zero),
    and stops at the first nonzero G_k past m: O(n m) operations and no
    power of h.  The test is exact over the rationals: a monic r-th root
    over the closure is unique, and the recurrence makes it rational.

    With L = N_0, F_j = N_j/L; the recurrence, written for
    G_k = g_k / (L^k r^k k!) and multiplied by L^k r^k k!, becomes

        g_k = sum_{j=max(1,k-m)..k} (j - r(k-j)) N_j (L r)^(j-1)
                                    ((k-1)!/(k-j)!) g_(k-j),   g_0 = 1,

    all integers, and G_k = 0 exactly when g_k = 0.  So F is an r-th
    power exactly when g_k = 0 for m < k <= n.  The factors N_j (L r)^(j-1)
    are computed once; (k-1)!/i!, i = k-j, is (k-1)! divided by 1, ..., i
    in turn, each division exact because i <= k-1.
    """
    n = len(rev) - 1
    m = n // r
    lr = rev[0] * r
    terms, power = [0], 1  # terms[j] = N_j (L r)^(j-1)
    for j in range(1, n + 1):
        terms.append(rev[j] * power)
        power *= lr
    g = [1]
    fact = 1  # (k-1)!
    for k in range(1, n + 1):
        s, falling = 0, fact
        for i in range(min(m, k - 1) + 1):
            if i:
                falling //= i
            j = k - i
            s += (j - r * i) * terms[j] * falling * g[i]
        if k <= m:
            g.append(s)
        elif s:
            return None
        fact *= k
    return g


def power_index(f: BiPoly, w: Weight) -> int:
    """Largest m such that f is an m-th power over the algebraic closure
    (HomogShape.power_index of its shape at w).

    The monic root is rational, so over the rationals the index is the
    same up to the unit (the core's leading coefficient); a rational root
    of f itself also needs the unit to be an m-th power in the rationals.
    """
    return dehomogenize(f, w).power_index()
