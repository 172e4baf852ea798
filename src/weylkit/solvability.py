"""Certified solvability analysis: is there a y with [x, y] = 1?

The analyzer runs a fixed ladder of decision rules.  Every "unsolvable"
verdict is backed by a proved criterion about the element's grading or
support geometry, every "solvable" verdict carries an explicit witness
that the function producing it has verified by exact computation, and
everything else comes back "unknown" (the general decision problem is
open).  An independent brute-force oracle searches for witnesses with
bounded exponents by solving the exact linear system [x, y] = 1 in the
coefficients of y.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd, isqrt, lcm
from typing import Iterator

from .element import WeylElement, WeylInternalError, commutator, numerators, power_bracket
from .grading import GradeSpan, HForm, grade_span, to_h_form
from .polygon import PolygonProfile, Weight, edges, exposed_face
from .polynomials import BiPoly
from .power_analysis import power_index

DEFAULT_BOX_BOUND = 4
DEFAULT_BOX_CAP = 8

_CLOSURE_NOTE = (
    "power indices are computed over the algebraic closure; an element whose "
    "leading polynomial is a proper power only over an extension field may be "
    "reported unknown rather than unsolvable"
)


class Outcome(enum.Enum):
    SOLVABLE = "solvable"
    UNSOLVABLE = "unsolvable"
    UNKNOWN = "unknown"


class RuleId(enum.Enum):
    """The ladder's rules in the order analyze runs them, which is what a
    verdict's attempted tuple is read from."""

    CONSTANT_ELEMENT = "constant-element"
    LOW_GRADE_BAND = "low-grade-band"
    POLYNOMIAL_IN_GENERATOR = "polynomial-in-generator"
    AFFINE_FAMILY = "affine-family"
    NON_AXIS_EDGE = "non-axis-edge"
    AXIS_POWER_INDEX_ONE = "axis-power-index-one"
    EDGE_GCD_ONE = "edge-gcd-one"
    ORACLE_WITNESS = "oracle-witness"


@dataclass(frozen=True)
class RuleCitation:
    rule: RuleId
    params: dict
    citation: str


class ElementProfile:
    """The facts the decision ladder derives from one element, each computed
    on first use and then shared by the later rules and by the report.

    A profile belongs to one analysis of one element; nothing is kept
    across calls.
    """

    def __init__(self, x: WeylElement):
        self.x = x

    @cached_property
    def support(self) -> frozenset[tuple[int, int]]:
        return self.x.support()

    @cached_property
    def span(self) -> GradeSpan:
        return grade_span(self.x)

    @cached_property
    def h_form(self) -> HForm:
        return to_h_form(self.x)

    @cached_property
    def polygon(self) -> PolygonProfile:
        return edges(self.x)

    @cached_property
    def edge_indices(self) -> tuple[int | None, ...]:
        """Power index of each polygon edge; None at a non-axis weight."""
        return tuple(
            power_index(e.polynomial, e.weight) if e.weight.is_axis() else None
            for e in self.polygon.edges
        )

    def exposed(self, w: Weight) -> tuple[int, frozenset[tuple[int, int]]]:
        """The weighted degree v of x at w and the face of support points
        where it is reached, from one scan of the support."""
        return exposed_face(self.support, w)

    def leading(self, face: frozenset[tuple[int, int]]) -> tuple[BiPoly, int]:
        """The leading polynomial and power index of a face exposed by an
        axis weight, from facts the profile already holds.

        A one-point face X^a Y^b is its single term, of power index
        gcd(a, b) at every weight.  A face of two or more points is exposed
        by exactly one weight, so it is the polygon edge with that support,
        whose index edge_indices holds.
        """
        if len(face) == 1:
            (pt,) = face
            return BiPoly.monomial(*pt, self.x.coeff(*pt)), gcd(*pt)
        for e, r in zip(self.polygon.edges, self.edge_indices):
            if e.support == face:
                return e.polynomial, r
        raise WeylInternalError(f"face {sorted(face)} is no edge of the polygon")

    @cached_property
    def dominates_unit(self) -> bool:
        """True iff v(w) >= rho + sigma at every coprime positive weight w,
        where v is the weighted degree of x.

        v(w) - (rho + sigma) = max over the support of <pt - (1,1), w>, a
        convex piecewise linear function of w on the closed weight cone.
        Its pieces change exactly where two support points tie for the
        maximum, i.e. at the edge weights of the polygon, so its minimum
        over the cone sits at an edge weight or at one of the limit
        directions (1,0) and (0,1), where it equals max i - 1 and
        max j - 1.  Coprime weights are dense among the directions, so the
        condition holds exactly when max i >= 1, max j >= 1 and every edge
        has degree at least rho + sigma.
        """
        return (
            max(i for i, _ in self.support) >= 1
            and max(j for _, j in self.support) >= 1
            and all(e.degree >= e.weight.rho + e.weight.sigma for e in self.polygon.edges)
        )


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    witness: WeylElement | None = None
    reasons: tuple[RuleCitation, ...] = ()
    attempted: tuple[RuleId, ...] = ()
    box_bound: int | None = None
    notes: tuple[str, ...] = ()
    profile: ElementProfile | None = field(default=None, compare=False, repr=False)


def verify_witness(x: WeylElement, y: WeylElement) -> bool:
    """True exactly when [x, y] equals the unit element."""
    return commutator(x, y) == WeylElement.one()


def witness_for_affine(x: WeylElement) -> WeylElement | None:
    """Witness for elements of the shapes a*p + g(q) or a*q + g(p), a != 0.

    [a*p + g(q), q/a] = 1 and [a*q + g(p), -p/a] = 1, so the witness is a
    scaled generator in both cases.  Returns None when x has neither shape.
    """
    pts = x.support()
    if all(pt == (1, 0) or pt[0] == 0 for pt in pts) and x.coeff(1, 0):
        y = WeylElement.monomial(0, 1, Fraction(1) / x.coeff(1, 0))
    elif all(pt == (0, 1) or pt[1] == 0 for pt in pts) and x.coeff(0, 1):
        y = WeylElement.monomial(1, 0, Fraction(-1) / x.coeff(0, 1))
    else:
        return None
    if not verify_witness(x, y):
        raise WeylInternalError("affine witness failed verification")
    return y


# Mersenne exponents e, each about twice the one before, with 2^e - 1 prime
_MERSENNE_EXPONENTS = (
    61, 127, 521, 1279, 2203, 4423, 9689, 19937, 44497, 86243, 216091, 756839,
    1257787, 2976221, 6972593, 13466917, 32582657, 74207281, 136279841,
)


def _reconstruct(u: int, prime: int) -> tuple[int, int] | None:
    """The fraction r/s = u mod prime with |r|, s <= sqrt(prime/2), by the
    half-extended Euclidean algorithm (Wang 1981); None if there is none.
    Such a fraction is unique when it exists."""
    bound = isqrt(prime // 2)
    r0, s0, r1, s1 = prime, 0, u, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _lift(v: dict[int, int], prime: int) -> tuple[int, dict[int, int]] | None:
    """A vector mod prime reconstructed over Q, as a common denominator
    and integer numerators; None if some entry does not reconstruct."""
    fracs = []
    for t, u in v.items():
        rs = _reconstruct(u, prime)
        if rs is None:
            return None
        fracs.append((t, rs))
    d = lcm(*(s for _, (_, s) in fracs))
    return d, {t: r * (d // s) for t, (r, s) in fracs}


def _eliminate(rows: list[dict[int, int]], ncols: int, prime: int) -> tuple[list[tuple[int, dict]], bool]:
    """The monic pivot rows mod prime, each holding no column left of its
    own, and whether a row was left holding only a right-hand side; see
    _solve for the pivot rule."""
    # rows mod prime in buckets by column: a row waits in a bucket at or
    # left of its leftmost column, and moves on to that column when its
    # bucket comes up without holding it
    reduced = [{t: c % prime for t, c in row.items() if c % prime} for row in rows]
    waiting: dict[int, list[int]] = {}
    for k, row in enumerate(reduced):
        if row:
            waiting.setdefault(min(row), []).append(k)
    pivots: list[tuple[int, dict[int, int]]] = []
    for col in range(ncols):
        hits = []
        for k in waiting.pop(col, ()):
            if col in reduced[k]:
                hits.append(k)
            else:
                waiting.setdefault(min(reduced[k]), []).append(k)
        if not hits:
            continue
        pk = min(hits, key=lambda k: (len(reduced[k]), k))
        inv = pow(reduced[pk][col], -1, prime)
        pivot = {t: c * inv % prime for t, c in reduced[pk].items()}
        for k in hits:
            if k != pk:
                row = reduced[k]
                f = row[col]
                for t, c in pivot.items():
                    c = (row.get(t, 0) - f * c) % prime
                    if c:
                        row[t] = c
                    else:
                        row.pop(t, None)
                if row:
                    waiting.setdefault(col + 1, []).append(k)
        pivots.append((col, pivot))
    return pivots, bool(waiting)


def _solve(rows: list[dict[int, int]], ncols: int) -> dict[int, Fraction] | None:
    """Solve a sparse system exactly.  A row maps column indices to nonzero
    int coefficients, with its right-hand side under the key ncols.
    Returns the solution on the pivot columns (free columns are zero), or
    None when the system is inconsistent.

    Columns are taken in index order; the pivot is the remaining row with a
    nonzero there and the fewest nonzeros, ties to the earliest row.  The
    pivot columns are the leftmost independent ones whatever rows are
    picked, and the solution supported on them is unique.

    An exact peel comes first.  A row whose one nonzero a_rt has right-hand
    side 0 forces y_t = 0 in every solution.  Every other column is 0 at
    row r, so column t lies outside the span of all the others: it is a
    pivot column in every column order, and deleting column t and row r
    changes neither the dependencies among the other columns nor the
    solutions on them.  So t is returned as a pivot entry 0, deleted from
    every row, and by induction the rows this leaves with one entry are
    peeled in turn.  A row left holding only b != 0 reads 0 = b: None.

    The rows that remain are eliminated over GF(P), P = 2^e - 1 for e in
    _MERSENNE_EXPONENTS, and the answer is proved on their integer rows, in
    O(nnz) per vector:
    - each mod-P free column f that some row holds gets the kernel vector
      with y_f = 1 and the other free columns 0, reconstructed over Q and
      checked to satisfy A v = 0.  Then no free column is a rational
      pivot, and columns independent mod P are independent over Q, so the
      two pivot sets are equal;
    - a row left holding only a right-hand side is then a nonzero minor of
      [A | b] beyond the rank, so the system is inconsistent: None;
    - otherwise the reconstructed solution on the pivot columns, checked to
      satisfy A y = b, is the unique solution supported on them.
    A failed step moves on to the next prime.  With H the Hadamard bound
    prod max(1, |row|_2) over the rows of [A | b], no nonzero minor
    vanishes mod P once P > 2 H^2, and every kernel or solution entry is a
    ratio of minors, each at most H, so within the reconstruction bound
    sqrt(P/2): every step passes.  Only a system far too large to hold in
    memory gets past the last prime, with ValueError.
    """
    rows = [{t: c for t, c in row.items() if c} for row in rows]
    by_col: dict[int, list[tuple[int, int]]] = {}
    for k, row in enumerate(rows):
        for t, c in row.items():
            by_col.setdefault(t, []).append((k, c))
    peeled: dict[int, Fraction] = {}
    singles = [k for k, row in enumerate(rows) if len(row) == 1]
    while singles:
        row = rows[singles.pop()]
        if not row:  # another row peeled its column first
            continue
        (t,) = row
        if t == ncols:
            return None
        peeled[t] = Fraction(0)
        for k, _ in by_col.pop(t):
            del rows[k][t]
            if len(rows[k]) == 1:
                singles.append(k)
    rhs = dict(by_col.pop(ncols, ()))

    def holds(lifted: tuple[int, dict[int, int]] | None, target: dict[int, int]) -> bool:
        # A v = target exactly, for v = numerators / d, in O(nnz of v's columns)
        if lifted is None:
            return False
        d, v = lifted
        acc: dict[int, int] = {}
        for t, c in v.items():
            if c:
                for k, a in by_col[t]:
                    acc[k] = acc.get(k, 0) + a * c
        return {k: s for k, s in acc.items() if s} == {k: d * b for k, b in target.items()}

    for e in _MERSENNE_EXPONENTS:
        prime = 2**e - 1
        pivots, inconsistent = _eliminate(rows, ncols, prime)

        def back_substitute(y: dict[int, int], below: int, homogeneous: bool) -> dict[int, int]:
            # pivot columns at or beyond `below` are zero
            for col, row in reversed(pivots):
                if col < below:
                    acc = 0 if homogeneous else row.get(ncols, 0)
                    y[col] = (acc - sum(c * y.get(t, 0) for t, c in row.items() if col < t < ncols)) % prime
            return y

        free = sorted(by_col.keys() - {col for col, _ in pivots})
        if not all(holds(_lift(back_substitute({f: 1}, f, True), prime), {}) for f in free):
            continue
        if inconsistent:
            return None
        lifted = _lift(back_substitute({}, ncols, False), prime)
        if holds(lifted, rhs):
            d, num = lifted
            return peeled | {col: Fraction(num[col], d) for col, _ in reversed(pivots)}
    raise ValueError("the box system's coefficients are too large to certify")


def _check_box(box: int, cap: int) -> None:
    if box > cap:
        raise ValueError(f"box bound {box} exceeds the solver cap {cap}")
    if box < 0:
        raise ValueError("box bound must be nonnegative")


def _box_system(x: WeylElement, box: int) -> tuple[list[dict[int, int]], list[tuple[int, int]]]:
    """The integer rows of [x, y] = 1 for y inside the box, restricted to
    the columns that can reach the unit row, and the exponent pair of each
    column; see find_witness_box.

    The bracket of x with p^i q^j has its terms in the grades j - i + g
    for g in the set G of grades of x's non-constant terms.  With g0 the
    least of G and m the gcd of g - g0 over G, a column of grade class
    j - i = c (mod m) meets only rows of class c + g0, so the system splits
    into blocks with disjoint rows, one per class, and the unit row (grade
    0) lies in the block of class -g0.  For homogeneous x, m = 0 and the
    classes are the single grades, so that block is j - i = -g0.  Only its
    columns are kept, in their box order.

    [X, p^i] and [X, q^j] are taken once for i, j <= box, and column (i, j)
    sums the shifts [X, p^i] q^j + p^i [X, q^j] (the Leibniz rule of
    element.commutator).  The loop is written out here, not shared with
    commutator, because a shared call per column cost about 20% of the time.
    """
    d, xs = numerators(x)
    grades = [j - i for i, j in xs if i or j]
    g0 = min(grades, default=0)
    m = gcd(*(g - g0 for g in grades))
    columns = [
        (i, j)
        for i in range(box + 1)
        for j in range(box + 1)
        if ((j - i + g0) % m if m else j - i + g0) == 0
    ]
    left = [power_bracket(xs, i, False) for i in range(box + 1)]
    right = [power_bracket(xs, j, True) for j in range(box + 1)]
    system: dict[tuple[int, int], dict[int, int]] = {(0, 0): {len(columns): d}}
    for col, (i, j) in enumerate(columns):
        entry = {(a, b + j): c for (a, b), c in left[i].items()}
        for (a, b), c in right[j].items():
            entry[(a + i, b)] = entry.get((a + i, b), 0) + c
        for key, c in entry.items():
            if c:
                system.setdefault(key, {})[col] = c
    return [system[key] for key in sorted(system)], columns


def find_witness_box(x: WeylElement, box: int, cap: int = DEFAULT_BOX_CAP) -> WeylElement | None:
    """Search for a witness supported inside {(i, j): i <= box, j <= box}.

    The commutator is linear in y, so the search is an exact linear solve.
    It runs on integers: with d the common denominator of x and X = d*x,
    column (i, j) is the bracket [X, p^i q^j] = [X, p^i] q^j + p^i [X, q^j]
    on X's integer numerators, shifted from 2(box + 1) pure-power brackets
    (see _box_system) and stored as sparse rows keyed by monomial, and the
    right-hand side is d at (0, 0), because [X, y] = d exactly when
    [x, y] = 1.  Each row is d times the row of the rational system, so the
    nonzeros, the pivots and the witness are the same: the one supported
    on the leftmost independent columns (see _solve), found modulo a prime
    and certified exactly.  A returned witness is always verified.  None
    means only that no witness exists within the box.

    Three exact reductions shrink the system and change no answer:
    - the constant term of [x, y] is
      sum_{a>=1} (-1)^a a! (x_{0a} y_{a0} - x_{a0} y_{0a}), with x_{ij} the
      coefficient of p^i q^j.  If x has no term q^a or p^a with
      1 <= a <= box, no y in the box reaches the unit: None, with nothing
      built.  This covers a nonzero constant x too;
    - only the grade class of the unit row is built (see _box_system).  Each
      other block is homogeneous, so it is consistent and the solution
      supported on its pivots is 0; column-order greedy independence splits
      over blocks with disjoint rows, so the unit block's pivot columns are
      the same as in the whole system.  Consistency and the witness are
      therefore the unit block's;
    - _solve first peels, in a cascade, each column that a one-entry row
      forces to 0; a row left holding only its right-hand side gives None
      with no prime involved.
    """
    _check_box(box, cap)
    if x.is_zero():
        raise ValueError("the zero element admits no witness")
    if not any(0 < i + j <= box for i, j in x.support() if i == 0 or j == 0):
        return None
    rows, columns = _box_system(x, box)
    solution = _solve(rows, len(columns))
    if solution is None:
        return None
    y = WeylElement({columns[col]: c for col, c in solution.items() if c})
    if not verify_witness(x, y):
        raise WeylInternalError("box oracle produced a non-verifying witness")
    return y


def _axis_weights(support) -> Iterator[Weight]:
    """(1,1), then (n,1) and (1,n) for n up to max exponent + 1: every face
    an axis direction can expose on a support.  Hull slopes are bounded by
    the exponent spans, so beyond that the exposed face is stable."""
    yield Weight(1, 1)
    for n in range(2, max(max(pt) for pt in support) + 2):
        yield Weight(n, 1)
        yield Weight(1, n)


def analyze(
    x: WeylElement,
    box: int = DEFAULT_BOX_BOUND,
    cap: int = DEFAULT_BOX_CAP,
) -> Verdict:
    """Run the decision ladder on x.

    Rule order: constant element, low grade band (and its mirror),
    polynomial of degree at least 2 in a single generator or in h, affine
    family (solvable), non-axis edge, axis power index one, edge gcd one,
    box oracle (solvable), unknown.  Cheap structural rules come first; the
    first matching unsolvability rule wins, and solvable outcomes always
    carry a verified witness, so the order cannot make a verdict unsound.
    Every witness is checked once, by the function that builds it
    (witness_for_affine, find_witness_box), which raises WeylInternalError
    rather than return one that fails.  The verdict carries the element's
    profile, so the facts the rules derived can be reported without
    computing them again.
    """
    _check_box(box, cap)
    profile = ElementProfile(x)
    notes: list[str] = []

    def verdict(outcome: Outcome, *reasons: RuleCitation, witness=None) -> Verdict:
        ladder = tuple(RuleId)
        attempted = ladder[:ladder.index(reasons[0].rule) + 1] if reasons else ladder
        return Verdict(outcome, witness=witness, reasons=reasons, attempted=attempted,
                       box_bound=box, notes=tuple(notes), profile=profile)

    def unsolvable(cit: RuleCitation) -> Verdict:
        return verdict(Outcome.UNSOLVABLE, cit)

    if all(pt == (0, 0) for pt in profile.support):
        return unsolvable(
            RuleCitation(
                RuleId.CONSTANT_ELEMENT,
                {"value": str(x)},
                "scalars commute with everything, so [x, y] = 0 can never reach 1",
            )
        )

    span = profile.span

    if span.min_grade >= 2 or span.max_grade <= -2:
        side = "min" if span.min_grade >= 2 else "max"
        return unsolvable(
            RuleCitation(
                RuleId.LOW_GRADE_BAND,
                {"min_grade": span.min_grade, "max_grade": span.max_grade, "side": side},
                "every graded component of x sits beyond grade +-1, so no bracket "
                "with x can produce a grade-0 unit",
            )
        )

    # x = f(h)*q or f(h)*p with deg f >= 1 needs no rule of its own:
    # axis-power-index-one decides it at (1,1), where the leading term is
    # the monomial X^d Y^(d+1) (or its mirror) of power index 1
    pts = profile.support
    if all(i == 0 for i, _ in pts):
        gen, deg = "q", max(j for _, j in pts)
    elif all(j == 0 for _, j in pts):
        gen, deg = "p", max(i for i, _ in pts)
    elif span.min_grade == span.max_grade == 0:
        # p^k q^k = h(h+1)...(h+k-1) has degree k in h
        gen, deg = "h", max(i for i, _ in pts)
    else:
        gen, deg = None, 0
    # degree 1 (a*q + c, a*p + c) falls through to affine-family
    if deg >= 2:
        if gen == "h":
            shape = f"x = f(h) with deg f = {deg}"
        else:
            shape = f"x is a polynomial of degree {deg} in {gen}"
        return unsolvable(
            RuleCitation(
                RuleId.POLYNOMIAL_IN_GENERATOR,
                {"generator": gen, "degree": deg},
                f"{shape}; a solvable polynomial in a single element must have degree 1",
            )
        )

    witness = witness_for_affine(x)
    if witness is not None:
        return verdict(
            Outcome.SOLVABLE,
            RuleCitation(
                RuleId.AFFINE_FAMILY,
                {"witness": str(witness)},
                "x = a*p + g(q) (or its mirror) is conjugate to a*p by an "
                "exp-ad automorphism; the scaled opposite generator is a witness",
            ),
            witness=witness,
        )

    polygon = profile.polygon

    for e in polygon.edges:
        if e.weight.rho >= 2 and e.weight.sigma >= 2 and e.degree > e.weight.rho + e.weight.sigma:
            return unsolvable(
                RuleCitation(
                    RuleId.NON_AXIS_EDGE,
                    {"weight": str(e.weight), "degree": e.degree},
                    "x has an edge at a weight with both components at least 2 and "
                    "weighted degree above rho + sigma; such elements admit no "
                    "nilpotent adjoint action, ruling out [x, y] = 1",
                )
            )

    saw_power_index_above_one = False
    for w in _axis_weights(profile.support):
        v, face = profile.exposed(w)
        if v < w.rho + w.sigma:
            continue
        f, r = profile.leading(face)
        if r == 1:
            return unsolvable(
                RuleCitation(
                    RuleId.AXIS_POWER_INDEX_ONE,
                    {"weight": str(w), "weighted_degree": v,
                     "leading_polynomial": str(f)},
                    "the leading polynomial at an axis weight with weighted degree "
                    "at least rho + sigma is not a proper power; a witness would "
                    "force an impossible leading-polynomial proportionality",
                )
            )
        saw_power_index_above_one = True
    if saw_power_index_above_one:
        notes.append(_CLOSURE_NOTE)

    if len(polygon.edges) >= 2 and all(e.weight.is_axis() for e in polygon.edges) and profile.dominates_unit:
        indices = list(profile.edge_indices)
        if gcd(*indices) == 1:
            return unsolvable(
                RuleCitation(
                    RuleId.EDGE_GCD_ONE,
                    {"weights": [str(e.weight) for e in polygon.edges],
                     "power_indices": indices},
                    "x dominates the unit and all its edges sit at axis weights "
                    "(required for the rule to apply), yet the edge power indices "
                    "share no common factor; adjacent edges of a solvable element "
                    "must have power indices with gcd above 1",
                )
            )

    y = find_witness_box(x, box, cap)
    if y is not None:
        return verdict(
            Outcome.SOLVABLE,
            RuleCitation(
                RuleId.ORACLE_WITNESS,
                {"box": box, "witness": str(y)},
                f"exact linear solve found a witness with exponents at most {box}",
            ),
            witness=y,
        )

    return verdict(Outcome.UNKNOWN)
