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
from collections.abc import Iterator
from fractions import Fraction
from math import gcd

from .element import WeylElement, WeylInternalError, _Value, commutator, numerators, power_bracket
from .grading import GradeSpan, HForm, exp_ad, grade_span, to_h_form
from .polygon import PolygonProfile, Weight, edges, frontier, weight_polynomial
from .power_analysis import HomogShape, dehomogenize

DEFAULT_BOX_BOUND = 4
DEFAULT_BOX_CAP = 8


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


_LADDER = tuple(RuleId)  # every rule, the attempted tuple of an unknown verdict


class RuleCitation(_Value):
    __slots__ = ("rule", "params", "citation")

    def __init__(self, rule: RuleId, params: dict, citation: str):
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "citation", citation)


class _fact:
    """A profile fact: its method runs on the first read, and the value is
    stored in the instance's __dict__ under the same name, where later reads
    find it before this non-data descriptor.  functools.cached_property does
    the same, but under Python 3.11 it takes an RLock on every first read,
    which makes that read about three times as slow as this one (3.12
    dropped the lock); a profile belongs to one call, so it needs none."""

    def __init__(self, fn):
        self.fn, self.name, self.__doc__ = fn, fn.__name__, fn.__doc__

    def __get__(self, profile, owner=None):
        if profile is None:
            return self
        value = profile.__dict__[self.name] = self.fn(profile)
        return value


class ElementProfile:
    """The facts the decision ladder derives from one element, each computed
    on first use and then shared by the later rules and by the report.

    A profile belongs to one analysis of one element; nothing is kept
    across calls.
    """

    def __init__(self, x: WeylElement):
        self.x = x

    @_fact
    def span(self) -> GradeSpan:
        return grade_span(self.x)

    @_fact
    def h_form(self) -> HForm:
        return to_h_form(self.x)

    @_fact
    def frontier(self) -> list[tuple[int, int]]:
        """The support points no other support point dominates
        coordinatewise (polygon.frontier), in decreasing i: every face and
        weighted degree at a positive weight, the largest i, j and i + j,
        and the constant and generator tests are read off it."""
        return frontier(numerators(self.x)[1])

    @_fact
    def polygon(self) -> PolygonProfile:
        return edges(self.x, self.frontier)

    @_fact
    def edge_shapes(self) -> tuple[HomogShape | None, ...]:
        """Factored shape of each polygon edge; None at a non-axis weight."""
        return tuple(
            dehomogenize(e.polynomial, e.weight) if e.weight.is_axis() else None
            for e in self.polygon.edges
        )

    @_fact
    def edge_indices(self) -> tuple[int | None, ...]:
        """Power index of each polygon edge; None at a non-axis weight."""
        return tuple(s.power_index() if s else None for s in self.edge_shapes)

    @_fact
    def dominates_unit(self) -> bool:
        """True iff v(w) >= rho + sigma at every coprime positive weight w,
        where v is the weighted degree of x.

        v(w) - (rho + sigma) = max over the support of <pt - (1,1), w>, a
        convex piecewise linear function of w on the closed weight cone.
        Its pieces change exactly where two support points tie for the
        maximum, i.e. at the edge weights of the polygon, so its minimum
        over the cone sits at an edge weight or at one of the limit
        directions (1,0) and (0,1), where it equals max i - 1 and
        max j - 1 (the frontier's first i and last j, less 1).  Coprime
        weights are dense among the directions, so the condition holds
        exactly when max i >= 1, max j >= 1 and every edge has degree at
        least rho + sigma.
        """
        return (
            self.frontier[0][0] >= 1
            and self.frontier[-1][1] >= 1
            and all(e.degree >= e.weight.rho + e.weight.sigma for e in self.polygon.edges)
        )


class Verdict(_Value):
    _fields = ("outcome", "witness", "reasons", "attempted")
    __slots__ = (*_fields, "profile")  # the report's profile: outside equality, hash and repr

    def __init__(self, outcome: Outcome, witness: WeylElement | None = None,
                 reasons: tuple[RuleCitation, ...] = (), attempted: tuple[RuleId, ...] = (),
                 profile: ElementProfile | None = None):
        object.__setattr__(self, "outcome", outcome)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "reasons", reasons)
        object.__setattr__(self, "attempted", attempted)
        object.__setattr__(self, "profile", profile)


def verify_witness(x: WeylElement, y: WeylElement) -> bool:
    """True exactly when [x, y] equals the unit element."""
    return commutator(x, y) == WeylElement.one()


def witness_for_affine(x: WeylElement, front: list[tuple[int, int]] | None = None) -> WeylElement | None:
    """Witness for elements of the shapes a*p + g(q) or a*q + g(p), a != 0;
    front is the frontier of x's support when the caller already holds it.

    [a*p + g(q), q/a] = 1 and [a*q + g(p), -p/a] = 1, so the witness is a
    scaled generator in both cases.  Returns None when x has neither shape.

    The shape is read off the frontier, which runs in decreasing i and
    increasing j and keeps the largest i of each j.  Its first point is
    (1, 0) exactly when the largest i is 1 and (1, 0) is the only support
    point with i = 1, that is, x = a*p + g(q) with a != 0; its last point
    is (0, 1) exactly in the mirror case.
    """
    if front is None:
        front = frontier(numerators(x)[1])
    if front[:1] == [(1, 0)]:
        y = WeylElement.monomial(0, 1, Fraction(1) / x.coeff(1, 0))
    elif front[-1:] == [(0, 1)]:
        y = WeylElement.monomial(1, 0, Fraction(-1) / x.coeff(0, 1))
    else:
        return None
    if not verify_witness(x, y):
        raise WeylInternalError("affine witness failed verification")
    return y


# the value of every peeled column, shared: Fractions are immutable
_ZERO = Fraction(0)


def _eliminate(rows: list[dict[int, int]], ncols: int) -> dict[int, tuple[int, dict[int, int]]] | None:
    """The pivot rows of a fraction-free elimination over the integers, by
    pivot column in column order, each as (a, row): a its pivot entry and
    row the rest, holding only columns right of it; None as soon as a row
    is left holding only a right-hand side (column ncols).  See _solve for
    the pivot rule and the proofs.  The rows passed in are not changed.

    A row waits in the bucket of its leftmost column, so every row in a
    bucket holds its column.  The pivot row is divided by its content (the
    gcd of its entries).  A waiting row holding f at the pivot column
    becomes (a/g) row - (f/g) pivot, g = gcd(a, f), which drops that column,
    and moves to the bucket of its new leftmost column.
    """
    current = list(rows)
    waiting: dict[int, list[int]] = {}
    for k, row in enumerate(current):
        if row:
            waiting.setdefault(min(row), []).append(k)
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for col in range(ncols):
        hits = waiting.pop(col, None)
        if hits is None:
            continue
        pk = hits[0]
        fewest = len(current[pk])
        for k in hits:
            n = len(current[k])
            if n < fewest or n == fewest and k < pk:
                pk, fewest = k, n
        row = current[pk]
        content = gcd(*row.values())
        pivot = {t: c // content for t, c in row.items() if t != col}
        a = row[col] // content
        for k in hits:
            if k != pk:
                row = current[k]
                f = row[col]
                g = gcd(a, f)
                s, f = a // g, f // g
                row = {t: s * c for t, c in row.items() if t != col}
                for t, c in pivot.items():
                    c = row.get(t, 0) - f * c
                    if c:
                        row[t] = c
                    else:
                        del row[t]
                current[k] = row
                if row:
                    left = min(row)
                    if left >= ncols:
                        return None
                    waiting.setdefault(left, []).append(k)
        pivots[col] = a, pivot
    return None if waiting else pivots


def _solve(columns: list[dict], rhs: dict) -> dict[int, Fraction] | None:
    """Solve a sparse system exactly.  Column t maps comparable row keys (the
    int row codes of _box_system) to its nonzero int coefficients, and rhs
    maps them to the nonzero right-hand side.  Returns the solution on the
    pivot columns (free columns are zero), or None when the system is
    inconsistent.

    An exact peel comes first.  A row whose one nonzero a_rt has right-hand
    side 0 forces y_t = 0 in every solution.  Every other column is 0 at
    row r, so column t lies outside the span of all the others: it is a
    pivot column in every column order, and deleting column t and row r
    changes neither the dependencies among the other columns nor the
    solutions on them.  So t is returned as a pivot entry 0, deleted from
    every row, and by induction the rows this leaves with one entry are
    peeled in turn.  A row left holding only b != 0 reads 0 = b: None.

    The rows that remain are eliminated over the integers (_eliminate).
    Columns are taken in index order; the pivot is the remaining row with a
    nonzero there and the fewest nonzeros, ties to the earliest row in key
    order.  Each step replaces a row by a nonzero multiple of itself minus
    a multiple of another, which is invertible, so the dependencies among
    the columns never change; at the end the pivot rows are in echelon
    form, where a column is independent of the columns before it exactly
    when it holds a pivot.  So the pivot columns are the leftmost
    independent ones whatever rows are picked, and the solution supported
    on them is unique.  A row left holding only b != 0 is a combination of
    the rows that reads 0 = b: None.  Otherwise back substitution over the
    pivots, last first, gives that solution in Fractions.

    Growth bound.  A pivot row at column c is reduced only by earlier
    pivot rows, so it lies in the span of its own input row and of the k
    input rows the earlier pivots came from, and vanishes at the k earlier
    pivot columns c_1 < ... < c_k.  Those k + 1 rows are independent, so
    the vectors of their span that vanish there form a line, spanned by
    the integer vector whose entry t is the minor on columns c_1, ..., c_k,
    t.  The pivot row, divided by its content, is that vector divided by
    its content, up to sign: its entries are at most the Hadamard bound
    H = prod max(1, |row|_2) over the input rows.  A waiting row reduced
    by a pivot grows by at most that pivot's size, once per pivot column.
    """
    ncols = len(columns)
    rows: dict = {}  # the one transposition, with the right-hand side as column ncols
    for t, col in enumerate((*columns, rhs)):
        for key, c in col.items():
            rows.setdefault(key, {})[t] = c
    peeled: dict[int, Fraction] = {}
    singles = [key for key, row in rows.items() if len(row) == 1]
    while singles:
        row = rows[singles.pop()]
        if not row:  # another row peeled its column first
            continue
        (t,) = row
        if t == ncols:
            return None
        peeled[t] = _ZERO
        for key in columns[t]:
            del rows[key][t]
            if len(rows[key]) == 1:
                singles.append(key)
    pivots = _eliminate([rows[key] for key in sorted(key for key, row in rows.items() if row)], ncols)
    if pivots is None:
        return None
    y: dict[int, Fraction] = {}
    for col, (a, row) in reversed(pivots.items()):
        # the pivot row holds only columns right of col: pivot columns
        # already solved, free columns (zero) and the right-hand side
        y[col] = Fraction(row.get(ncols, 0) - sum(c * y[t] for t, c in row.items() if t in y), a)
    return peeled | y


def _check_box(box: int, cap: int) -> None:
    if box > cap:
        raise ValueError(f"box bound {box} exceeds the solver cap {cap}")
    if box < 0:
        raise ValueError("box bound must be nonnegative")


def _box_system(x: WeylElement, box: int) -> tuple[list[dict[int, int]], list[tuple[int, int]], int]:
    """The integer columns of [x, y] = 1 for y inside the box that can reach
    the unit row, as {row code: nonzero int}, their exponent pairs, and the
    right-hand side d at the unit row, code 0; see find_witness_box.

    Row p^a q^b has the code a W + b, W = box + (largest q-exponent of x)
    + 1.  Every row has b <= that exponent + box - 1 < W, since each
    bracket term lowers the q-exponent of its term of x by k >= 1 before
    the shift by q^j, j <= box; so the codes are distinct, and they sort
    as the pairs (a, b) do.

    The bracket of x with p^i q^j has its terms in the grades j - i + g
    for g in the set G of grades of x's non-constant terms.  With g0 the
    least of G and m the gcd of g - g0 over G, a column of grade class
    j - i = c (mod m) meets only rows of class c + g0, so the system splits
    into blocks with disjoint rows, one per class, and the unit row (grade
    0) lies in the block of class -g0.  For homogeneous x, m = 0 and the
    classes are the single grades, so that block is j - i = -g0.  Only its
    columns are kept, in their box order.

    [X, p^i] and [X, q^j] are taken once for i, j <= box and coded, and
    column (i, j) sums the shifts [X, p^i] q^j + p^i [X, q^j] (the Leibniz
    rule of element.commutator), which add j and i W to the codes.  The loop
    is written out here, not shared with commutator, because a shared call
    per column cost about 20% of the time.
    """
    d, xs = numerators(x)
    width = box + max((j for _, j in xs), default=0) + 1
    grades = [j - i for i, j in xs if i or j]
    g0 = min(grades, default=0)
    m = gcd(*(g - g0 for g in grades))
    columns = [
        (i, j)
        for i in range(box + 1)
        for j in range(box + 1)
        if ((j - i + g0) % m if m else j - i + g0) == 0
    ]
    left = [{a * width + b: c for (a, b), c in power_bracket(xs, i, False).items() if c} for i in range(box + 1)]
    right = [{a * width + b: c for (a, b), c in power_bracket(xs, j, True).items() if c} for j in range(box + 1)]
    brackets = []
    for i, j in columns:
        entry = {k + j: c for k, c in left[i].items()}
        shift = i * width
        for k, c in right[j].items():
            k += shift
            c += entry.get(k, 0)
            if c:
                entry[k] = c
            else:
                del entry[k]
        brackets.append(entry)
    return brackets, columns, d


def find_witness_box(x: WeylElement, box: int, cap: int = DEFAULT_BOX_CAP) -> WeylElement | None:
    """Search for a witness supported inside {(i, j): i <= box, j <= box}.

    The commutator is linear in y, so the search is an exact linear solve.
    It runs on integers: with d the common denominator of x and X = d*x,
    column (i, j) is the bracket [X, p^i q^j] = [X, p^i] q^j + p^i [X, q^j]
    on X's integer numerators, shifted from 2(box + 1) pure-power brackets
    (see _box_system) and stored as a sparse column keyed by an integer
    code of the row monomial, and the right-hand side is d at the unit row,
    code 0, because [X, y] = d exactly when [x, y] = 1.  Each row is d
    times the row of the rational system, so the nonzeros, the pivots and
    the witness are the same: the one supported on the leftmost independent
    columns (see _solve).  A returned witness is always verified.  None
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
      with no elimination.
    """
    _check_box(box, cap)
    if x.is_zero():
        raise ValueError("the zero element admits no witness")
    if not any(0 < i + j <= box for i, j in x.support() if i == 0 or j == 0):
        return None
    brackets, columns, d = _box_system(x, box)
    solution = _solve(brackets, {0: d})
    if solution is None:
        return None
    y = WeylElement({columns[col]: c for col, c in solution.items() if c})
    if not verify_witness(x, y):
        raise WeylInternalError("box oracle produced a non-verifying witness")
    return y


def _axis_weights(front: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """(1,1), then (n,1) and (1,n) for n up to max exponent + 1, as (rho,
    sigma) pairs: every face an axis direction can expose on a support.
    Hull slopes are bounded by the exponent spans, so beyond that the
    exposed face is stable.  The largest exponent is the nonempty frontier's
    first i or last j."""
    yield 1, 1
    for n in range(2, max(front[0][0], front[-1][1]) + 2):
        yield n, 1
        yield 1, n


_Found = tuple[RuleCitation, WeylElement | None]


def _rules(profile: ElementProfile) -> _Found | None:
    """The structural rules on one profile, in RuleId order: the first
    citation that fires, with its witness for affine-family and None for an
    unsolvability rule; None when no rule fires."""
    x, front = profile.x, profile.frontier
    if front in ([], [(0, 0)]):
        return RuleCitation(
            RuleId.CONSTANT_ELEMENT,
            {"value": str(x)},
            "scalars commute with everything, so [x, y] = 0 can never reach 1",
        ), None

    span = profile.span

    if span.min_grade >= 2 or span.max_grade <= -2:
        side = "min" if span.min_grade >= 2 else "max"
        return RuleCitation(
            RuleId.LOW_GRADE_BAND,
            {"min_grade": span.min_grade, "max_grade": span.max_grade, "side": side},
            "every graded component of x sits beyond grade +-1, so no bracket "
            "with x can produce a grade-0 unit",
        ), None

    # x = f(h)*q or f(h)*p with deg f >= 1 needs no rule of its own:
    # axis-power-index-one decides it at (1,1), where the leading term is
    # the monomial X^d Y^(d+1) (or its mirror) of power index 1
    gen, deg = None, 0
    if len(front) == 1:
        # the one frontier point (a, b) dominates every support point: with
        # a = 0 (or b = 0) all of them lie on that axis, and with grade span
        # 0 all lie on the diagonal, at (k, k) for k <= a
        ((a, b),) = front
        if a == 0:
            gen, deg = "q", b
        elif b == 0:
            gen, deg = "p", a
        elif span.min_grade == span.max_grade == 0:
            # p^k q^k = h(h+1)...(h+k-1) has degree k in h
            gen, deg = "h", a
    # degree 1 (a*q + c, a*p + c) falls through to affine-family
    if deg >= 2:
        if gen == "h":
            shape = f"x = f(h) with deg f = {deg}"
        else:
            shape = f"x is a polynomial of degree {deg} in {gen}"
        return RuleCitation(
            RuleId.POLYNOMIAL_IN_GENERATOR,
            {"generator": gen, "degree": deg},
            f"{shape}; a solvable polynomial in a single element must have degree 1",
        ), None

    witness = witness_for_affine(x, front)
    if witness is not None:
        return RuleCitation(
            RuleId.AFFINE_FAMILY,
            {"witness": str(witness)},
            "x = a*p + g(q) (or its mirror) is conjugate to a*p by an "
            "exp-ad automorphism; the scaled opposite generator is a witness",
        ), witness

    polygon = profile.polygon

    for e in polygon.edges:
        # the degree always exceeds rho + sigma: the edge starts at some (i0, j0) with
        # j0 >= rho, so degree >= sigma j0 >= rho sigma > rho + sigma (coprime, both >= 2)
        if e.weight.rho >= 2 and e.weight.sigma >= 2:
            return RuleCitation(
                RuleId.NON_AXIS_EDGE,
                {"weight": str(e.weight), "degree": e.degree},
                "x has an edge at a weight with both components at least 2 and "
                "weighted degree above rho + sigma; such elements admit no "
                "nilpotent adjoint action, ruling out [x, y] = 1",
            ), None

    # the power index of each face: a one-point face X^a Y^b is its single
    # term, of index gcd(a, b) at every weight; a face of two or more points
    # is exposed by w alone, so it is the polygon edge at w.  v >= rho + sigma
    # always: v <= n at (n,1) (or (1,n)) means x = a*p + g(q) (or its mirror),
    # deg g <= n, which a rule above decides
    for rho, sigma in _axis_weights(front):
        v, face = -1, []  # exposed_face on int weights, with no Weight built
        for pt in front:
            d = pt[0] * rho + pt[1] * sigma
            if d > v:
                v, face = d, [pt]
            elif d == v:
                face.append(pt)
        if len(face) == 1:
            index = gcd(*face[0])
        else:
            index = next((r for e, r in zip(polygon.edges, profile.edge_indices)
                          if e.weight.rho == rho and e.weight.sigma == sigma), None)
            if index is None:
                raise WeylInternalError(f"face {sorted(face)} at weight ({rho},{sigma}) is no edge of the polygon")
        if index == 1:
            # w is positive, so the support's face at w is the frontier's
            w = Weight(rho, sigma)
            return RuleCitation(
                RuleId.AXIS_POWER_INDEX_ONE,
                {"weight": str(w), "weighted_degree": v, "leading_polynomial": str(weight_polynomial(x, w))},
                "the leading polynomial at an axis weight with weighted degree "
                "at least rho + sigma is not a proper power; a witness would "
                "force an impossible leading-polynomial proportionality",
            ), None

    if len(polygon.edges) >= 2 and all(e.weight.is_axis() for e in polygon.edges) and profile.dominates_unit:
        indices = list(profile.edge_indices)
        if gcd(*indices) == 1:
            return RuleCitation(
                RuleId.EDGE_GCD_ONE,
                {"weights": [str(e.weight) for e in polygon.edges],
                 "power_indices": indices},
                "x dominates the unit and all its edges sit at axis weights "
                "(required for the rule to apply), yet the edge power indices "
                "share no common factor; adjacent edges of a solvable element "
                "must have power indices with gcd above 1",
            ), None
    return None


def _size(profile: ElementProfile) -> tuple[int, int]:
    """(total degree, support size), the measure a reduction step lowers:
    the largest i + j is reached on the frontier, and the size is that of
    the stored map."""
    return max(i + j for i, j in profile.frontier), len(numerators(profile.x)[1])


def _reduction_step(profile: ElementProfile) -> tuple[WeylElement, ElementProfile] | None:
    """The g of the first map exp(ad g) that an axis edge of x suggests and
    that strictly lowers (total degree, support size) in lexicographic
    order, with the profile of the image; None when no edge gives a drop.

    An edge at (n,1), n >= 1, has the shape X^a Y^b core(X/Y^n).  When
    the core is lead*(Z - mu)^k with k = deg core (HomogShape.linear_root),
    the edge is lead X^a Y^b (X - mu Y^n)^k, and p -> p + mu q^n, which is
    exp(ad g) for g = -mu/(n+1) q^(n+1), turns its last factor into X^k.
    At (1,n), n >= 2, the core is in Y/X^n and the map is q -> q + mu p^n,
    g = mu/(n+1) p^(n+1).

    The map is homogeneous at the edge weight, so the image's leading form
    there is lead (X + mu Y^n)^a Y^b X^k, all of whose terms are in the
    image; its term X^k Y^(b + n a) has total degree k + b + n a (at
    (1,n), with the roles of X and Y exchanged).  A step for which that
    exceeds the total degree of x cannot drop, and is skipped without
    computing the image.
    """
    before = _size(profile)
    for e, shape in zip(profile.polygon.edges, profile.edge_shapes):
        if shape is None:
            continue
        k, w = len(shape.nums) - 1, e.weight
        if w.sigma == 1:
            a, b, n = shape.x_mult, shape.y_mult, w.rho
        else:
            a, b, n = shape.y_mult, shape.x_mult, w.sigma
        if k + b + n * a > before[0]:
            continue
        mu = shape.linear_root()
        if mu is None:
            continue
        num, den = mu.numerator, mu.denominator * (n + 1)
        if w.sigma == 1:
            g = WeylElement._from_numerators(den, {(0, n + 1): -num})
        else:
            g = WeylElement._from_numerators(den, {(n + 1, 0): num})
        image = ElementProfile(exp_ad(g, profile.x))
        if _size(image) < before:
            return g, image
    return None


def _pull_back(x: WeylElement, steps: list[WeylElement], y: WeylElement) -> WeylElement:
    """The witness for x got from a witness y for x' = exp(ad g_s)...
    exp(ad g_1) x, steps = [g_1, ..., g_s]: the inverse maps exp(ad -g),
    last step first, applied to y.  It is verified before it is returned."""
    for g in reversed(steps):
        y = exp_ad(-g, y)
    if not verify_witness(x, y):
        raise WeylInternalError("pulled-back witness failed verification")
    return y


def _oracle(x: WeylElement, box: int, cap: int) -> _Found | None:
    y = find_witness_box(x, box, cap)
    if y is None:
        return None
    return RuleCitation(
        RuleId.ORACLE_WITNESS,
        {"box": box, "witness": str(y)},
        f"exact linear solve found a witness with exponents at most {box}",
    ), y


def _reduced(profile: ElementProfile) -> _Found | None:
    """Reduce x by leading-form steps to x', run the structural rules once
    on x', and carry a verdict back to x: the cited rule is x''s, its
    params gain the g of each step in order, and a witness is pulled back.
    None when no step is taken or no rule fires on x'.

    Every step is an automorphism, so x' is solvable exactly when x is,
    and each step strictly lowers a well-ordered measure, so the loop ends.
    """
    x, steps = profile.x, []
    while (step := _reduction_step(profile)) is not None:
        g, profile = step
        steps.append(g)
    found = _rules(profile) if steps else None
    if found is None:
        return None
    cit, y = found
    params = {**cit.params, "steps": [str(g) for g in steps]}
    if y is not None:
        y = _pull_back(x, steps, y)
        params["witness"] = str(y)
    return RuleCitation(
        cit.rule,
        params,
        f"{cit.citation} (said of x' = exp(ad g_s)...exp(ad g_1) x, with "
        "g_1, ..., g_s the steps; automorphisms preserve [x, y] = 1, so x has "
        "the answer of x', and a witness for x' maps back to one for x)",
    ), y


def analyze(
    x: WeylElement,
    box: int = DEFAULT_BOX_BOUND,
    cap: int = DEFAULT_BOX_CAP,
) -> Verdict:
    """Run the decision ladder on x.

    Rule order: constant element, low grade band (and its mirror),
    polynomial of degree at least 2 in a single generator or in h, affine
    family (solvable), non-axis edge, axis power index one, edge gcd one,
    then the same rules once on the leading-form reduction x' of x (see
    _reduced), then the box oracle on x (solvable), else unknown.  Cheap
    structural rules come first; the first matching unsolvability rule
    wins, and solvable outcomes always carry a verified witness, so the
    order cannot make a verdict unsound.  Every witness is checked once, by
    the function that builds it (witness_for_affine, _pull_back,
    find_witness_box), which raises WeylInternalError rather than return
    one that fails.  The verdict carries the profile of x, so the facts the
    rules derived can be reported without computing them again.
    """
    _check_box(box, cap)
    profile = ElementProfile(x)
    found = _rules(profile) or _reduced(profile) or _oracle(x, box, cap)
    if found is None:
        return Verdict(Outcome.UNKNOWN, attempted=_LADDER, profile=profile)
    cit, witness = found
    return Verdict(
        Outcome.UNSOLVABLE if witness is None else Outcome.SOLVABLE,
        witness=witness,
        reasons=(cit,),
        attempted=_LADDER[:_LADDER.index(cit.rule) + 1],
        profile=profile,
    )
