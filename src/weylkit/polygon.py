"""Support geometry: weighted degrees, leading supports, edges and vertices.

For a weight (rho, sigma) of coprime positive integers, the weighted degree
of an element is the maximum of i*rho + j*sigma over its support, and the
leading support is the set of maximizers.  A leading support with two or
more points is an edge; with one point, a vertex.  Every maximizer lies on
the support's frontier, the points that no other support point dominates
coordinatewise: a dominated point has a strictly lower weighted degree at
every positive weight.  Enumerating the faces over all weights reduces to
one monotone chain over the frontier, which is already sorted: its
segments are the edges, and consecutive edges are joined by a single
shared vertex exposed by any weight whose slope lies strictly between the
two edge slopes (the reduced mediant is used as the canonical choice).
"""

from __future__ import annotations

from math import gcd

from .element import WeylElement, WeylInternalError, _Value, numerators
from .polynomials import BiPoly


class Weight(_Value):
    """A pair of coprime positive integers used as a weight direction."""

    __slots__ = ("rho", "sigma")

    def __init__(self, rho: int, sigma: int):
        if not (type(rho) is int and type(sigma) is int):
            if not (isinstance(rho, int) and isinstance(sigma, int)):
                raise ValueError("weight components must be integers")
            rho, sigma = int(rho), int(sigma)  # a bool is stored as its int
        if rho <= 0 or sigma <= 0:
            raise ValueError("weight components must be positive")
        if gcd(rho, sigma) != 1:
            raise ValueError(f"weight ({rho},{sigma}) is not coprime")
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "sigma", sigma)

    def is_axis(self) -> bool:
        """True for weights of the form (n,1) or (1,n)."""
        return self.rho == 1 or self.sigma == 1

    def __str__(self) -> str:
        return f"({self.rho},{self.sigma})"


def frontier(support) -> list[tuple[int, int]]:
    """The points of a support (distinct pairs) that no other point of it
    dominates coordinatewise, in decreasing i, from one sort and one scan:
    in that order a point is maximal exactly when its j exceeds every j
    before it (Kung, Luccio & Preparata 1975)."""
    out, top = [], -1
    for pt in sorted(support, reverse=True):
        if pt[1] > top:
            out.append(pt)
            top = pt[1]
    return out


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


def weight_polynomial(x: WeylElement, w: Weight) -> BiPoly:
    """The commutative polynomial collecting the leading-support terms."""
    if x.is_zero():
        raise ValueError("zero element has no weighted leading polynomial")
    d, xs = numerators(x)
    return BiPoly._from_numerators(d, {pt: xs[pt] for pt in exposed_face(xs, w)[1]})


class Edge(_Value):
    __slots__ = ("weight", "support", "polynomial", "degree")

    def __init__(self, weight: Weight, support: frozenset[tuple[int, int]], polynomial: BiPoly, degree: int):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "degree", degree)


class Vertex(_Value):
    __slots__ = ("point", "separating_weight")

    def __init__(self, point: tuple[int, int], separating_weight: Weight):
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "separating_weight", separating_weight)


class PolygonProfile(_Value):
    """Edges sorted by increasing slope, with the joining vertices between
    consecutive edges."""

    __slots__ = ("edges", "vertices")

    def __init__(self, edges: tuple[Edge, ...], vertices: tuple[Vertex, ...]):
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertices", vertices)


def separating_weight(w1: Weight, w2: Weight) -> Weight:
    """The reduced mediant of two weights of distinct slope: a weight whose
    slope lies strictly between theirs."""
    if w1 == w2:  # coprime, so equal slopes are equal weights
        raise ValueError("weights have equal slope; nothing separates them")
    r = w1.rho + w2.rho
    s = w1.sigma + w2.sigma
    g = gcd(r, s)
    return Weight(r // g, s // g)


def edges(x: WeylElement, front: list[tuple[int, int]] | None = None) -> PolygonProfile:
    """Enumerate every edge of x (weights in increasing slope) and the
    joining vertices between consecutive edges; front is the frontier of
    x's support when the caller already holds it.

    The edges are the segments of one monotone chain over the frontier
    (Andrew 1979).  The frontier is a strict staircase, so in increasing i
    its j decreases, and the chain keeps a point only where it turns right:
    a segment (i0, j0) -> (i1, j1) then has the outward normal
    (j0 - j1, i1 - i0), positive in both components, and the normals come
    in increasing slope.  A point on a straight run is popped, so each
    segment is one whole edge.  The frontier exposes the same face as the
    support at every positive weight, so it has the same edges, and the
    joining vertices are the same points.
    """
    if x.is_zero():
        raise ValueError("zero element has no edges")
    d, xs = numerators(x)
    if front is None:
        front = frontier(xs)
    chain: list[tuple[int, int]] = []
    for i, j in reversed(front):
        while len(chain) >= 2:
            (i0, j0), (i1, j1) = chain[-2], chain[-1]
            if (i1 - i0) * (j - j0) < (j1 - j0) * (i - i0):  # a right turn at (i1, j1)
                break
            chain.pop()
        chain.append((i, j))

    edge_list: list[Edge] = []
    for (i0, j0), (i1, j1) in zip(chain, chain[1:]):
        g = gcd(j0 - j1, i1 - i0)
        w = Weight((j0 - j1) // g, (i1 - i0) // g)
        v, sup = exposed_face(front, w)
        if len(sup) < 2:
            raise WeylInternalError(f"chain segment at weight {w} exposes a single point")
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
        if exposed_face(front, sw)[1] != shared:
            raise WeylInternalError(
                f"separating weight {sw} does not expose the joining vertex {point}"
            )
        vertex_list.append(Vertex(point, sw))

    return PolygonProfile(tuple(edge_list), tuple(vertex_list))
