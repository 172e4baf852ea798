"""Commutative polynomial helpers over the rationals.

UniPoly is a dense univariate polynomial (numerator list, ascending);
BiPoly is a sparse bivariate polynomial keyed by (i, j) exponent pairs,
sharing element.MonomialMap with WeylElement and differing only in the
names of its variables.  Both are immutable value types that hold the
h-form and the weighted leading polynomials, which the grading and
support-geometry modules build from integer sums: UniPoly has no
arithmetic, and BiPoly only the sums and scaling of MonomialMap.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import gcd, lcm

from .element import MonomialMap, _Value, as_scalar, format_monomial, format_terms


class UniPoly(_Value):
    """Univariate polynomial over the rationals, stored like MonomialMap as
    one canonical pair: a denominator d > 0 and the integer numerators of
    d*f in ascending degree, trailing zeros trimmed, with gcd(d, all
    numerators) = 1.  Only coeffs makes Fractions."""

    __slots__ = ("_den", "_nums")

    def __init__(self, coeffs: Iterable[object] = ()):
        cs = [as_scalar(c) for c in coeffs]
        # over the lcm of reduced denominators the numerators' content is 1
        d = lcm(*(c.denominator for c in cs))
        _store(self, d, [c.numerator * (d // c.denominator) for c in cs])

    @classmethod
    def _from_numerators(cls, d: int, nums: Iterable[int]):
        """The polynomial with coefficients nums[k] / d, for an integer
        d > 0: trailing zeros trimmed and the content gcd(d, nums) divided out."""
        nums = list(nums)
        g = gcd(d, *nums)
        if g != 1:
            d //= g
            nums = [c // g for c in nums]
        obj = object.__new__(cls)
        _store(obj, d, nums)
        return obj

    def coeffs(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(c, d) for c in self._nums)

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __reduce__(self):  # copy and pickle through the stored pair
        return type(self)._from_numerators, (self._den, self._nums)

    def __str__(self) -> str:
        d = self._den
        return format_terms(
            (c, d, format_monomial((k,), "X"))
            for k, c in reversed(list(enumerate(self._nums))) if c
        )

    def __repr__(self) -> str:
        return f"UniPoly({str(self)!r})"


def _store(obj: UniPoly, d: int, nums: list[int]) -> None:
    while nums and not nums[-1]:
        nums.pop()
    object.__setattr__(obj, "_den", d)
    object.__setattr__(obj, "_nums", tuple(nums))


class BiPoly(MonomialMap):
    """Sparse commutative polynomial in X, Y over the rationals."""

    __slots__ = ()
    _names = "XY"
