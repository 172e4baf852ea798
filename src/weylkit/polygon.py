"""Support geometry: weighted degrees, leading supports, edges and vertices.

For a weight (rho, sigma) of coprime positive integers, the weighted degree
of an element is the maximum of i*rho + j*sigma over its support, and the
leading support is the set of maximizers.  A leading support with two or
more points is an edge; with one point, a vertex.  Enumerating them over
all weights reduces to the convex hull of the support: the edges are the
hull segments whose primitive outward normal has both components positive,
and consecutive edges are joined by a single shared vertex exposed by any
weight whose slope lies strictly between the two edge slopes (the reduced
mediant is used as the canonical choice).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .element import WeylElement, WeylInternalError, commutator, numerators
from .polynomials import BiPoly

#: Distinguished bottom value for the weighted degree of the zero element.
NEG_INF = float("-inf")


@dataclass(frozen=True)
class Weight:
    """A pair of coprime positive integers used as a weight direction."""

    rho: int
    sigma: int

    def __post_init__(self):
        if not (isinstance(self.rho, int) and isinstance(self.sigma, int)):
            raise ValueError("weight components must be integers")
        if self.rho <= 0 or self.sigma <= 0:
            raise ValueError("weight components must be positive")
        if gcd(self.rho, self.sigma) != 1:
            raise ValueError(f"weight ({self.rho},{self.sigma}) is not coprime")

    def ratio(self) -> Fraction:
        return Fraction(self.rho, self.sigma)

    def degree_of(self, point: tuple[int, int]) -> int:
        return point[0] * self.rho + point[1] * self.sigma

    def is_axis(self) -> bool:
        """True for weights of the form (n,1) or (1,n)."""
        return self.rho == 1 or self.sigma == 1

    def __str__(self) -> str:
        return f"({self.rho},{self.sigma})"


def exposed_face(support, w: Weight) -> tuple[int, frozenset[tuple[int, int]]]:
    """The weighted degree v at w of a support and the face of points where
    it is reached, from one scan; v is -1 and the face empty for no points."""
    rho, sigma = w.rho, w.sigma
    v, face = -1, []
    for pt in support:
        d = pt[0] * rho + pt[1] * sigma
        if d > v:
            v, face = d, [pt]
        elif d == v:
            face.append(pt)
    return v, frozenset(face)


def weight_degree(x: WeylElement, w: Weight):
    """max(i*rho + j*sigma) over the support; NEG_INF for the zero element."""
    return exposed_face(x.support(), w)[0] if x else NEG_INF


def weight_support(x: WeylElement, w: Weight) -> frozenset[tuple[int, int]]:
    if x.is_zero():
        raise ValueError("zero element has no weighted support")
    return exposed_face(x.support(), w)[1]


def weight_polynomial(x: WeylElement, w: Weight) -> BiPoly:
    """The commutative polynomial collecting the leading-support terms."""
    if x.is_zero():
        raise ValueError("zero element has no weighted leading polynomial")
    d, xs = numerators(x)
    return BiPoly._from_numerators(d, {pt: xs[pt] for pt in weight_support(x, w)})


@dataclass(frozen=True)
class Edge:
    weight: Weight
    support: frozenset[tuple[int, int]]
    polynomial: BiPoly
    degree: int


@dataclass(frozen=True)
class Vertex:
    point: tuple[int, int]
    separating_weight: Weight


@dataclass(frozen=True)
class PolygonProfile:
    """Edges sorted by increasing slope, with the joining vertices between
    consecutive edges."""

    edges: tuple[Edge, ...]
    vertices: tuple[Vertex, ...]


def separating_weight(w1: Weight, w2: Weight) -> Weight:
    """The reduced mediant of two weights of distinct slope: a weight whose
    slope lies strictly between theirs."""
    if w1 == w2:  # coprime, so equal slopes are equal weights
        raise ValueError("weights have equal slope; nothing separates them")
    r = w1.rho + w2.rho
    s = w1.sigma + w2.sigma
    g = gcd(r, s)
    return Weight(r // g, s // g)


def convex_hull(points) -> list[tuple[int, int]]:
    """Convex hull in counterclockwise order (monotone chain); collinear
    boundary points are dropped.  Degenerate inputs yield 1 or 2 points."""
    pts = sorted(set(points))
    if len(pts) <= 1:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[tuple[int, int]] = []
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]


def edges(x: WeylElement) -> PolygonProfile:
    """Enumerate every edge of x (weights in increasing slope) and the
    joining vertices between consecutive edges.

    A hull segment contributes an edge exactly when its primitive outward
    normal (rho, sigma) has rho > 0 and sigma > 0, which reduces the search
    over infinitely many weights to the finitely many hull directions.
    """
    if x.is_zero():
        raise ValueError("zero element has no edges")
    d, xs = numerators(x)
    support = x.support()
    hull = convex_hull(support)
    weights: list[Weight] = []
    if len(hull) >= 2:
        for k in range(len(hull)):
            a = hull[k]
            b = hull[(k + 1) % len(hull)]
            dx = b[0] - a[0]
            dy = b[1] - a[1]
            # outward normal of the CCW-oriented segment a -> b
            nr, ns = dy, -dx
            if nr > 0 and ns > 0:
                g = gcd(nr, ns)
                weights.append(Weight(nr // g, ns // g))
    # from the lowest leftmost point the outward normals turn counterclockwise,
    # so the positive ones come as one run of decreasing slope rho/sigma
    weights.reverse()

    edge_list: list[Edge] = []
    for w in weights:
        v, sup = exposed_face(support, w)
        if len(sup) < 2:
            raise WeylInternalError(f"hull segment at weight {w} exposes a single point")
        edge_list.append(Edge(w, sup, BiPoly._from_numerators(d, {pt: xs[pt] for pt in sup}), v))

    vertex_list: list[Vertex] = []
    for e1, e2 in zip(edge_list, edge_list[1:]):
        shared = e1.support & e2.support
        if len(shared) != 1:
            raise WeylInternalError(
                f"adjacent edges {e1.weight} and {e2.weight} share {len(shared)} points"
            )
        point = next(iter(shared))
        sw = separating_weight(e1.weight, e2.weight)
        if exposed_face(support, sw)[1] != shared:
            raise WeylInternalError(
                f"separating weight {sw} does not expose the joining vertex {point}"
            )
        vertex_list.append(Vertex(point, sw))

    return PolygonProfile(tuple(edge_list), tuple(vertex_list))


def leading_split(x: WeylElement, y: WeylElement, w: Weight) -> tuple[WeylElement, WeylElement]:
    """Split [x, y] into the part t supported exactly on weighted degree
    v(x) + v(y) - (rho + sigma) and the strictly lower remainder u.

    t vanishes exactly when the leading polynomials f of x and g of y are
    power-proportional (g^v(x) a scalar multiple of f^v(y)); the remainder
    always sits strictly below the threshold degree.
    """
    if x.is_zero() or y.is_zero():
        raise ValueError("leading split requires nonzero inputs")
    threshold = weight_degree(x, w) + weight_degree(y, w) - (w.rho + w.sigma)
    den, bracket = numerators(commutator(x, y))
    t_terms: dict[tuple[int, int], int] = {}
    u_terms: dict[tuple[int, int], int] = {}
    for pt, c in bracket.items():
        d = w.degree_of(pt)
        if d == threshold:
            t_terms[pt] = c
        elif d < threshold:
            u_terms[pt] = c
        else:
            raise WeylInternalError(
                f"commutator exceeds the split threshold at {pt} for weight {w}"
            )
    return WeylElement._from_numerators(den, t_terms), WeylElement._from_numerators(den, u_terms)
