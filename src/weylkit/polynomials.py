"""Commutative polynomial helpers over the rationals.

UniPoly is a dense univariate polynomial (coefficient list, ascending);
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

from .element import MonomialMap, _Value, as_scalar, format_monomial, format_terms


class UniPoly(_Value):
    """Univariate polynomial over the rationals, zero coefficients trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[object] = ()):
        cs = [as_scalar(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "_coeffs", tuple(cs))

    def coeffs(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

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
