"""Exact sparse arithmetic in the first Weyl algebra over the rationals.

An element is a finite rational combination of the basis monomials p^i q^j
(all p factors to the left), stored as a sparse map from exponent pairs to
nonzero coefficients.  The generators satisfy p q - q p = 1; every product
is rewritten back into the basis, so two elements are equal exactly when
their coefficient maps are equal.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

ExponentPair = tuple[int, int]


class WeylInternalError(RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""


def as_scalar(value) -> Fraction:
    """Coerce an exact value to a Fraction.  Floats are rejected on purpose:
    binary floats silently break the exactness guarantees of the whole kit."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def binary_power(base, n: int, one, times=operator.mul):
    """base^n by binary powering on times (default: base's own *); base^0 = one."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    result = one
    while n:
        if n & 1:
            result = times(result, base)
        n >>= 1
        if n:
            base = times(base, base)
    return result


class MonomialMap:
    """An immutable sparse map from exponent pairs to nonzero rationals.

    The value-type half of WeylElement and polynomials.BiPoly: validation,
    equality, hashing, addition, scaling, powering and printing are written
    here once, and each subclass supplies its own product and the names of
    its two variables.  Values of different subclasses never compare equal
    and never add.
    """

    __slots__ = ("_terms", "_hash")
    _names: str  # the two variable names of the printer, set by each subclass

    def __init__(self, terms: Mapping[ExponentPair, object] | None = None):
        data: dict[ExponentPair, Fraction] = {}
        if terms:
            for key, value in terms.items():
                i, j = key
                if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                    raise ValueError(f"exponent pair {key!r} is not a pair of nonnegative integers")
                coeff = as_scalar(value)
                if coeff:
                    data[(i, j)] = coeff
        object.__setattr__(self, "_terms", data)
        object.__setattr__(self, "_hash", None)

    @classmethod
    def _raw(cls, data: dict[ExponentPair, Fraction]):
        # internal fast path: data already validated and pruned
        obj = object.__new__(cls)
        object.__setattr__(obj, "_terms", data)
        object.__setattr__(obj, "_hash", None)
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({(0, 0): Fraction(1)})

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1):
        c = as_scalar(coeff)
        return cls._raw({(i, j): c}) if c else cls.zero()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def terms(self) -> dict[ExponentPair, Fraction]:
        return dict(self._terms)

    def support(self) -> frozenset[ExponentPair]:
        return frozenset(self._terms)

    def coeff(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(frozenset(self._terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self._terms)
        for key, c in other._terms.items():
            s = data.get(key, 0) + c
            if s:
                data[key] = s
            else:
                data.pop(key, None)
        return self._raw(data)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._raw({k: -c for k, c in self._terms.items()})

    def scale(self, c):
        c = as_scalar(c)
        if not c:
            return self.zero()
        return self._raw({k: c * v for k, v in self._terms.items()})

    def __rmul__(self, other):
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.scale(c)

    def __pow__(self, n: int):
        return binary_power(self, n, self.one())

    def __str__(self) -> str:
        """Terms sorted by (i+j, i) descending, reduced fractional
        coefficients, unit coefficients elided."""
        order = sorted(self._terms, key=lambda t: (t[0] + t[1], t[0]), reverse=True)
        return format_terms((self._terms[key], format_monomial(key, self._names)) for key in order)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


class WeylElement(MonomialMap):
    """A normal-ordered element sum(c_ij * p^i * q^j) with rational c_ij.

    Instances are immutable; all arithmetic returns new elements in
    canonical sparse form (no zero coefficients stored).
    """

    __slots__ = ()
    _names = "pq"

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return mul(self, other)
        return self.__rmul__(other)


def normalize_qp(m: int, n: int) -> WeylElement:
    """Normal form of the word q^m p^n in the p-before-q basis.

    Moving each p left across each q via q p = p q - 1 telescopes into

        q^m p^n = sum_k (-1)^k k! C(m,k) C(n,k) p^(n-k) q^(m-k),

    which is validated in the test suite against a literal single-swap
    rewriting oracle.
    """
    if m < 0 or n < 0:
        raise ValueError("exponents must be nonnegative")
    return WeylElement._raw({key: Fraction(c) for key, c in mul_numerators({(0, m): 1}, {(n, 0): 1}).items()})


def numerators(x: WeylElement) -> tuple[int, dict[ExponentPair, int]]:
    """(d, terms of d*x): d is the lcm of the denominators of x (1 for
    zero), so every coefficient of d*x is an integer."""
    d = lcm(*(c.denominator for c in x._terms.values()))
    return d, {key: c.numerator * (d // c.denominator) for key, c in x._terms.items()}


def mul_numerators(xs: Mapping[ExponentPair, int],
                   ys: Mapping[ExponentPair, int]) -> dict[ExponentPair, int]:
    """x y on integer coefficient maps, zero terms pruned: p^a q^b p^c q^d is
    sum_k (-1)^k k! C(b,k) C(c,k) p^(a+c-k) q^(b+d-k), by a recurrence in k."""
    acc: dict[ExponentPair, int] = {}
    for (a, b), cx in xs.items():
        for (c, d), cy in ys.items():
            cxy = cx * cy
            coef = 1
            for k in range(min(b, c) + 1):
                if k:
                    coef = -(coef * (b - k + 1) * (c - k + 1)) // k
                key = (a + c - k, b + d - k)
                acc[key] = acc.get(key, 0) + cxy * coef
    return {key: c for key, c in acc.items() if c}


def mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Product in the Weyl algebra, in canonical sparse form: mul_numerators
    on the integer numerators of dx*x and dy*y, one Fraction over dx*dy per term."""
    dx, xs = numerators(x)
    dy, ys = numerators(y)
    den = dx * dy
    return WeylElement._raw({key: Fraction(c, den) for key, c in mul_numerators(xs, ys).items()})


def power_bracket(xs: Mapping[ExponentPair, int], n: int, on_q: bool) -> dict[ExponentPair, int]:
    """[X, q^n] if on_q else [X, p^n] on integer coefficient maps, by the
    recurrence of mul; zeros where terms of X cancel are left to the sums:

        [p^a q^b, p^n] =  sum_{k>=1} (-1)^k k! C(b,k) C(n,k) p^(a+n-k) q^(b-k),
        [p^a q^b, q^n] = -sum_{k>=1} (-1)^k k! C(a,k) C(n,k) p^(a-k) q^(b+n-k)."""
    acc: dict[ExponentPair, int] = {}
    for (a, b), coef in xs.items():
        if on_q:
            m, coef, b = a, -coef, b + n
        else:
            m, a = b, a + n
        for k in range(1, min(m, n) + 1):
            coef = -(coef * (m - k + 1) * (n - k + 1)) // k
            key = (a - k, b - k)
            acc[key] = acc.get(key, 0) + coef
    return acc


def commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """[x, y] = x y - y x in canonical sparse form, summed directly rather
    than as two products, on the integer numerators X = dx*x and Y = dy*y
    (see numerators).  ad X is a derivation, [X, p^c q^d] = [X, p^c] q^d +
    p^c [X, q^d], and in the p-before-q order both products only shift
    exponents.  So one power_bracket is taken per distinct exponent c >= 1
    of p and d >= 1 of q in Y, each term cy p^c q^d adds cy times its two
    shifted copies, and each nonzero sum becomes one Fraction over dx*dy."""
    dx, xs = numerators(x)
    dy, ys = numerators(y)
    left, right = {}, {}  # power_bracket by exponent of p, of q
    for c, d in ys:
        if c and c not in left:
            left[c] = power_bracket(xs, c, False)
        if d and d not in right:
            right[d] = power_bracket(xs, d, True)
    acc: dict[ExponentPair, int] = {}
    for (c, d), cy in ys.items():
        if c:
            for (i, j), v in left[c].items():
                key = (i, j + d)
                acc[key] = acc.get(key, 0) + cy * v
        if d:
            for (i, j), v in right[d].items():
                key = (i + c, j)
                acc[key] = acc.get(key, 0) + cy * v
    den = dx * dy
    return WeylElement._raw({key: Fraction(c, den) for key, c in acc.items() if c})


def ad_power(x: WeylElement, y: WeylElement, n: int) -> WeylElement:
    """n-fold nested commutator (ad x)^n y; n = 0 returns y."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = y
    for _ in range(n):
        out = commutator(x, out)
    return out


def power(x: WeylElement, n: int) -> WeylElement:
    """x^n by binary powering; x^0 = 1."""
    return x ** n


def substitute_poly(f, x: WeylElement) -> WeylElement:
    """Evaluate a univariate polynomial at a Weyl element (Horner scheme)."""
    result = WeylElement.zero()
    for c in reversed(f.coeffs()):
        result = mul(result, x) + WeylElement.monomial(0, 0, c)
    return result


P = WeylElement.monomial(1, 0)
Q = WeylElement.monomial(0, 1)
H = WeylElement.monomial(1, 1)  # h = p*q, already normal ordered
ONE = WeylElement.one()


def format_monomial(exponents: Iterable[int], names: str) -> str:
    """Spelling of a monomial such as p^2*q: a variable with exponent 0 is
    left out, exponent 1 is not written, and the unit monomial is empty."""
    parts = []
    for v, k in zip(names, exponents):
        if k:
            parts.append(v if k == 1 else f"{v}^{k}")
    return "*".join(parts)


def format_terms(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, monomial) pairs in the given order, shared by every
    printer in the kit: signs become " + " / " - " separators (a leading "-"
    on the first term), a unit magnitude is elided before a monomial, an
    empty monomial prints the bare magnitude, and no terms print "0"."""
    parts: list[str] = []
    for c, mono in terms:
        mag = abs(c)
        body = str(mag) if not mono else mono if mag == 1 else f"{mag}*{mono}"
        if parts:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if c < 0 else body)
    return "".join(parts) or "0"


def format_element(x: WeylElement) -> str:
    """Canonical printing: terms sorted by (i+j, i) descending, reduced
    fractional coefficients, p^i*q^j monomials, unit coefficients elided."""
    return str(x)
