"""The integer grading of the Weyl algebra and its standard automorphisms.

Grade s collects the basis monomials p^i q^j with j - i = s, so the algebra
splits as a direct sum with A_i * A_j inside A_{i+j}.  Writing h = p*q, the
grade-s piece of any element is f(h) q^s for s >= 0 and f(h) p^(-s) for
s < 0, with a unique polynomial f; HForm holds that expansion.  The key
shifting identities are

    f(h) p^n = p^n f(h - n),      f(h) q^n = q^n f(h + n),

and p^k q^k = h (h+1) ... (h+k-1), both exercised directly by the tests.

omega applies p -> -q, q -> p through the images of p and q, and exp_ad
applies exp(ad g) by a commutative symbol sum; both sum on integers.
"""

from __future__ import annotations

from math import comb

from .element import WeylElement, _Value, mul_numerators, numerators
from .polynomials import UniPoly


class GradeSpan(_Value):
    __slots__ = ("min_grade", "max_grade")

    def __init__(self, min_grade: int, max_grade: int):
        object.__setattr__(self, "min_grade", min_grade)
        object.__setattr__(self, "max_grade", max_grade)


class HForm(_Value):
    """Map from grade s to the nonzero polynomial f_s of that grade."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[int, UniPoly]):
        for s, f in parts.items():
            if f.is_zero():
                raise ValueError(f"grade {s} stores a zero polynomial")
        object.__setattr__(self, "parts", dict(parts))

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
    grades = [j - i for i, j in numerators(x)[1]]
    return GradeSpan(min(grades), max(grades))


def to_h_form(x: WeylElement) -> HForm:
    """f_s for each grade s of x.  A term c p^i q^j is p^m (p^k q^k) q^n with
    k = min(i, j), m = max(0, i - j), n = max(0, j - i); p^k q^k is
    h(h+1)...(h+k-1), and f(h) p^m = p^m f(h - m), so the term adds c times
    (X+m)(X+m+1)...(X+m+k-1) to f_s.  The sums run on the integer numerators
    of x (see element.numerators), and each f_s is its integer row over d."""
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
    return HForm({s: UniPoly._from_numerators(d, rows[s]) for s in sorted(rows)})


def omega(x: WeylElement) -> WeylElement:
    """The automorphism p -> -q, q -> p; it swaps grades s and -s.  Each
    term c p^i q^j of the integer numerators d*x adds the normal-ordered
    (-1)^i c q^i p^j to one integer sum, the numerators over d."""
    d, xs = numerators(x)
    acc: dict[tuple[int, int], int] = {}
    for (i, j), c in xs.items():
        for key, v in mul_numerators({(0, i): -c if i % 2 else c}, {(j, 0): 1}).items():
            acc[key] = acc.get(key, 0) + v
    return WeylElement._from_numerators(d, acc)


def exp_ad(g: WeylElement, x: WeylElement) -> WeylElement:
    """exp(ad g) x = e^g x e^(-g), for g a polynomial in q alone or p alone.

    For p-before-q symbols, sigma(AB) = sum_k (-1)^k/k! d_q^k sigma(A)
    d_p^k sigma(B).  For g in Q[q], x e^(-g) thus has the symbol
    sigma(x) e^(-g), and d_q^k e^g = B_k e^g (B_0 = 1, B_(k+1) = B_k' +
    g' B_k) gives sigma(exp(ad g) x) = sum_k (-1)^k/k! B_k d_p^k sigma(x),
    in which every product commutes.  On integer numerators g = G/dg,
    x = X/d, X = sum_i p^i f_i(q) and b_k = dg^k B_k (b_(k+1) = dg b_k' +
    G' b_k), d dg^top exp(ad g) x is

        sum_i sum_(k<=i) (-1)^k C(i,k) dg^(top-k) p^(i-k) f_i(q) b_k(q).

    For g in Q[p], p and q exchange roles and b_(k+1) = dg b_k' - G' b_k.
    """
    dg, gs = numerators(g)
    on_q_axis = all(i == 0 for i, _ in gs)
    if not (on_q_axis or all(j == 0 for _, j in gs)):
        raise ValueError("exp-ad requires single-generator polynomial")
    d, xs = numerators(x)
    dG = [(i + j - 1, (j - i) * c) for (i, j), c in gs.items() if i + j]  # G', or -G' on p
    if not on_q_axis:  # the mirror: rows in q^j
        xs = {(j, i): c for (i, j), c in xs.items()}
    top = max((r for r, _ in xs), default=0)
    bs = [{0: 1}]  # b_k, exponent -> coefficient
    for _ in range(top):
        nxt = {e - 1: dg * e * v for e, v in bs[-1].items() if e}
        for e, v in bs[-1].items():
            for f, w in dG:
                nxt[e + f] = nxt.get(e + f, 0) + v * w
        bs.append(nxt)
    scales = [(-1) ** k * dg ** (top - k) for k in range(top + 1)]
    rows: list[dict[int, int]] = [{} for _ in range(top + 1)]  # row i - k: exponent of q -> sum
    for (r, s), c in xs.items():
        for k in range(r + 1):
            w = c * comb(r, k) * scales[k]
            row = rows[r - k]
            for e, v in bs[k].items():
                row[s + e] = row.get(s + e, 0) + w * v
    acc = {(r, s) if on_q_axis else (s, r): c for r, row in enumerate(rows) for s, c in row.items()}
    return WeylElement._from_numerators(d * dg ** top, acc)
