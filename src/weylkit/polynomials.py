"""Commutative polynomial helpers over the rationals.

UniPoly is a dense univariate polynomial (coefficient list, ascending);
BiPoly is a sparse bivariate polynomial keyed by (i, j) exponent pairs,
sharing element.MonomialMap with WeylElement and differing only in its
commutative product.  Both are immutable value types used by the grading
and support-geometry machinery; they carry exactly the operations those
modules need.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .element import MonomialMap, as_scalar, binary_power, format_monomial, format_terms


class UniPoly:
    """Univariate polynomial over the rationals, zero coefficients trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[object] = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, UniPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __mul__(self, other) -> "UniPoly":
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self._coeffs or not other._coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
        for i, a in enumerate(self._coeffs):
            for j, b in enumerate(other._coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __pow__(self, n: int) -> "UniPoly":
        return binary_power(self, n, UniPoly((1,)))

    def __str__(self) -> str:
        return format_terms(
            (c.numerator, c.denominator, format_monomial((k,), "X"))
            for k, c in reversed(list(enumerate(self._coeffs))) if c
        )

    def __repr__(self) -> str:
        return f"UniPoly({str(self)!r})"


class BiPoly(MonomialMap):
    """Sparse commutative polynomial in X, Y over the rationals."""

    __slots__ = ()
    _names = "XY"

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return self.__rmul__(other)
        acc: dict[tuple[int, int], int] = {}
        for (a, b), ca in self._nums.items():
            for (c, d), cb in other._nums.items():
                key = (a + c, b + d)
                acc[key] = acc.get(key, 0) + ca * cb
        return BiPoly._from_numerators(self._den * other._den, acc)

    def swap_vars(self) -> "BiPoly":
        """The polynomial with X and Y exchanged."""
        return BiPoly._from_numerators(self._den, {(j, i): c for (i, j), c in self._nums.items()})
