"""The integer grading of the Weyl algebra and its standard automorphisms.

Grade s collects the basis monomials p^i q^j with j - i = s, so the algebra
splits as a direct sum with A_i * A_j inside A_{i+j}.  Writing h = p*q, the
grade-s piece of any element is f(h) q^s for s >= 0 and f(h) p^(-s) for
s < 0, with a unique polynomial f; HForm holds that expansion.  The key
shifting identities are

    f(h) p^n = p^n f(h - n),      f(h) q^n = q^n f(h + n),

and p^k q^k = h (h+1) ... (h+k-1), both exercised directly by the tests.

omega and exp_ad apply an automorphism through the images of p and q, which
fix it: x with p and q replaced by their images, summed on integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .element import (
    H,
    WeylElement,
    mul,
    mul_numerators,
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
    """The automorphism p -> -q, q -> p; it swaps grades s and -s.  Each
    term c p^i q^j of the integer numerators d*x adds the normal-ordered
    (-1)^i c q^i p^j to one integer sum, made a Fraction over d at the end."""
    d, xs = numerators(x)
    acc: dict[tuple[int, int], int] = {}
    for (i, j), c in xs.items():
        for key, v in mul_numerators({(0, i): -c if i % 2 else c}, {(j, 0): 1}).items():
            acc[key] = acc.get(key, 0) + v
    return WeylElement._raw({key: Fraction(c, d) for key, c in acc.items() if c})


def exp_ad(g: WeylElement, x: WeylElement) -> WeylElement:
    """exp(ad g) applied to x, for g a polynomial in q alone or p alone.

    For g in Q[q], ad g sends p to -g'(q), which ad g kills, and kills q,
    so exp(ad g) is p -> p - g'(q), q -> q (Dixmier 1968); for g in Q[p]
    it is q -> q + g'(p), p -> p.  On integer numerators g = G/dg and
    x = X/d with X = sum_i p^i f_i(q), the moved generator times dg is
    P = dg*p - G'(q), and by Horner's rule, with F_k = dg^(top-k) f_k,

        d dg^top exp(ad g) x = F_0 + P (F_1 + P (F_2 + ... + P F_top)).

    For G in Q[p], X = sum_j e_j(p) q^j and the steps multiply on the
    right by Q = dg*q + G'(p).  Each output term becomes one Fraction.
    """
    dg, gs = numerators(g)
    on_q_axis = all(i == 0 for i, _ in gs)
    if not (on_q_axis or all(j == 0 for _, j in gs)):
        raise ValueError("exp-ad requires single-generator polynomial")
    d, xs = numerators(x)
    if on_q_axis:  # P = dg*p - G'(q)
        moved = {(1, 0): dg, **{(0, j - 1): -j * c for (_, j), c in gs.items() if j}}
    else:  # Q = dg*q + G'(p)
        moved = {(0, 1): dg, **{(i - 1, 0): i * c for (i, _), c in gs.items() if i}}
    rows: dict[int, dict[tuple[int, int], int]] = {}  # f_i, or e_j
    for (i, j), c in xs.items():
        rows.setdefault(i if on_q_axis else j, {})[(0, j) if on_q_axis else (i, 0)] = c
    top = max(rows, default=0)
    acc, scale = rows.get(top, {}), 1
    for k in range(top - 1, -1, -1):
        acc = mul_numerators(moved, acc) if on_q_axis else mul_numerators(acc, moved)
        scale *= dg
        for key, c in rows.get(k, {}).items():
            acc[key] = acc.get(key, 0) + scale * c
    den = d * scale
    return WeylElement._raw({key: Fraction(c, den) for key, c in acc.items() if c})
