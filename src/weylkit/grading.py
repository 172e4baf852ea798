"""The integer grading of the Weyl algebra and its standard automorphisms.

Grade s collects the basis monomials p^i q^j with j - i = s, so the algebra
splits as a direct sum with A_i * A_j inside A_{i+j}.  Writing h = p*q, the
grade-s piece of any element is f(h) q^s for s >= 0 and f(h) p^(-s) for
s < 0, with a unique polynomial f; HForm holds that expansion.  The key
shifting identities are

    f(h) p^n = p^n f(h - n),      f(h) q^n = q^n f(h + n),

and p^k q^k = h (h+1) ... (h+k-1), both exercised directly by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .element import (
    H,
    WeylElement,
    WeylInternalError,
    bracket_numerators,
    mul,
    normalize_qp,
    numerators,
    substitute_poly,
)
from .polynomials import UniPoly


@dataclass(frozen=True)
class GradeSpan:
    min_grade: int
    max_grade: int


@dataclass(frozen=True)
class HForm:
    """Map from grade s to the nonzero polynomial f_s of that grade."""

    parts: dict[int, UniPoly]

    def __post_init__(self):
        for s, f in self.parts.items():
            if f.is_zero():
                raise ValueError(f"grade {s} stores a zero polynomial")
        object.__setattr__(self, "parts", dict(self.parts))

    def grades(self) -> list[int]:
        return sorted(self.parts)


def grade_components(x: WeylElement) -> dict[int, WeylElement]:
    """Split x into its graded pieces, keyed by s = j - i."""
    buckets: dict[int, dict] = {}
    for (i, j), c in x.terms().items():
        buckets.setdefault(j - i, {})[(i, j)] = c
    return {s: WeylElement(terms) for s, terms in sorted(buckets.items())}


def grade_span(x: WeylElement) -> GradeSpan:
    if x.is_zero():
        raise ValueError("zero element has no grade span")
    grades = [j - i for i, j in x.support()]
    return GradeSpan(min(grades), max(grades))


def to_h_form(x: WeylElement) -> HForm:
    """f_s for each grade s of x.  A term c p^i q^j is p^m (p^k q^k) q^n with
    k = min(i, j), m = max(0, i - j), n = max(0, j - i); p^k q^k is
    h(h+1)...(h+k-1), and f(h) p^m = p^m f(h - m), so the term adds c times
    (X+m)(X+m+1)...(X+m+k-1) to f_s.  The sums run on the integer numerators
    of x (see element.numerators); each coefficient becomes one Fraction."""
    d, xs = numerators(x)
    rows: dict[int, list[int]] = {}
    for (i, j), c in xs.items():
        k, m = min(i, j), max(0, i - j)
        rising = [1]
        for a in range(m, m + k):
            # times (X + a), in place from the top coefficient down
            rising.append(rising[-1])
            for r in range(len(rising) - 2, 0, -1):
                rising[r] = rising[r - 1] + a * rising[r]
            rising[0] *= a
        row = rows.setdefault(j - i, [])
        row.extend([0] * (k + 1 - len(row)))
        for r, v in enumerate(rising):
            row[r] += c * v
    # the terms of a grade differ in k, so no f_s is zero
    return HForm({s: UniPoly([Fraction(v, d) for v in rows[s]]) for s in sorted(rows)})


def from_h_form(hf: HForm) -> WeylElement:
    out = WeylElement.zero()
    for s, f in hf.parts.items():
        piece = substitute_poly(f, H)
        if s > 0:
            piece = mul(piece, WeylElement.monomial(0, s))
        elif s < 0:
            piece = mul(piece, WeylElement.monomial(-s, 0))
        out = out + piece
    return out


def omega(x: WeylElement) -> WeylElement:
    """The automorphism p -> -q, q -> p; it swaps grades s and -s."""
    out = WeylElement.zero()
    for (i, j), c in x.terms().items():
        sign = -c if i % 2 else c
        out = out + normalize_qp(i, j).scale(sign)
    return out


def exp_ad(g: WeylElement, x: WeylElement) -> WeylElement:
    """exp(ad g) applied to x, for g a polynomial in q alone or p alone.

    ad g is locally nilpotent for such g, so the series
    sum_k (ad g)^k x / k! has finitely many nonzero terms; division by k!
    is exact over the rationals.  The result is an algebra automorphism
    image: products and commutators are preserved.

    The series runs on integer numerators (see element.numerators): with
    g = G/dg and x = X/dx, the k-th term is (ad G)^k X / (dx k! dg^k), so
    each step takes bracket_numerators with G and the sum is kept over that
    running denominator; each output term becomes one Fraction at the end.
    For G in Q[q], [G, q^d] = 0, so a step shifts one [G, p^c] per distinct
    exponent c of p in the term (mirrored for G in Q[p]).
    """
    support = g.support()
    on_q_axis = all(i == 0 for i, _ in support)
    on_p_axis = all(j == 0 for _, j in support)
    if not (on_q_axis or on_p_axis):
        raise ValueError("exp-ad requires single-generator polynomial")
    cap = max(x.total_degree(), 0) + max(g.total_degree(), 0) + 2
    dg, gs = numerators(g)
    den, term = numerators(x)
    acc = dict(term)
    for k in range(1, cap + 1):
        term = bracket_numerators(gs, term)
        if not term:
            return WeylElement._raw({key: Fraction(c, den) for key, c in acc.items() if c})
        step = k * dg
        den *= step
        for key, c in acc.items():
            acc[key] = c * step
        for key, c in term.items():
            acc[key] = acc.get(key, 0) + c
    raise WeylInternalError(
        f"exp-ad series did not terminate within {cap} steps; "
        "ad g should be locally nilpotent"
    )
