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

from .element import WeylElement, WeylInternalError, bracket_numerators, commutator, numerators
from .grading import GradeSpan, HForm, grade_span, to_h_form
from .polygon import (
    PolygonProfile,
    Weight,
    edges,
    weight_degree,
    weight_polynomial,
    weight_support,
)
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
        self._faces: dict[frozenset[tuple[int, int]], tuple[BiPoly, int]] = {}

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
            self.leading(e.weight)[1] if e.weight.is_axis() else None
            for e in self.polygon.edges
        )

    def leading(self, w: Weight) -> tuple[BiPoly, int]:
        """The leading polynomial of x at the axis weight w and its power
        index, computed once per exposed face.

        The face is a sound key: a face of two or more points is exposed by
        exactly one weight, and a one-point face X^a Y^b has power index
        gcd(a, b) at every weight.
        """
        face = weight_support(self.x, w)
        hit = self._faces.get(face)
        if hit is None:
            poly = weight_polynomial(self.x, w)
            hit = self._faces[face] = (poly, power_index(poly, w))
        return hit

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


def dominates_unit(x: WeylElement) -> bool:
    """True iff the weighted degree of x is at least rho + sigma for every
    coprime positive weight; decided from the polygon edges, see
    ElementProfile.dominates_unit."""
    if x.is_zero():
        raise ValueError("zero element never dominates the unit")
    return ElementProfile(x).dominates_unit


def _integer_rows(rows: list[dict[int, int | Fraction]]) -> list[dict[int, int]]:
    """Each row scaled by the lcm of its denominators, zeros dropped."""
    out = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row.values()))
        out.append({t: int(c * scale) for t, c in row.items() if c})
    return out


def _solve_sparse(rows: list[dict[int, int | Fraction]], ncols: int) -> dict[int, Fraction] | None:
    """Solve a sparse system exactly.  A row maps column indices to int or
    Fraction coefficients, with its right-hand side under the key ncols.
    Returns the solution on the pivot columns (free columns are zero), or
    None when the system is inconsistent.

    Fraction-free elimination on integer rows, each scaled by the lcm of
    its denominators.  Columns are taken in index order; the pivot is the
    remaining row with a nonzero there and the fewest nonzeros, ties to the
    earliest row, and every other row with that column becomes
    lead * row - f * pivot divided by its content.  The pivot columns are
    the leftmost independent ones whatever rows are picked, and the
    solution supported on them is unique.  The box oracle calls it only
    through _solve_modular, as the exact fallback.
    """
    remaining = _integer_rows(rows)
    pivots: list[tuple[int, dict[int, int]]] = []
    for col in range(ncols):
        hits = [k for k, row in enumerate(remaining) if col in row]
        if not hits:
            continue
        pivot = remaining[min(hits, key=lambda k: len(remaining[k]))]
        lead = pivot[col]
        for k in hits:
            row = remaining[k]
            if row is not pivot:
                f = row[col]
                new = {t: lead * c for t, c in row.items()}
                for t, c in pivot.items():
                    new[t] = new.get(t, 0) - f * c
                g = gcd(*new.values()) or 1
                remaining[k] = {t: c // g for t, c in new.items() if c}
        pivots.append((col, pivot))
        remaining = [row for row in remaining if row and row is not pivot]
    if any(remaining):  # rows left hold only a nonzero right-hand side
        return None
    solution: dict[int, Fraction] = {}
    for col, row in reversed(pivots):
        # a pivot row holds no column left of its own
        acc = row.get(ncols, 0) - sum(c * solution.get(t, 0) for t, c in row.items() if col < t < ncols)
        solution[col] = Fraction(acc) / row[col]
    return solution


_PRIME = 2**61 - 1
_RECON_BOUND = isqrt(_PRIME // 2)


def _reconstruct(u: int) -> tuple[int, int] | None:
    """The fraction r/s = u mod _PRIME with |r|, s <= _RECON_BOUND, by the
    half-extended Euclidean algorithm (Wang 1981); None if there is none.
    Such a fraction is unique when it exists."""
    r0, s0, r1, s1 = _PRIME, 0, u, 1
    while r1 > _RECON_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > _RECON_BOUND or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _lift(v: dict[int, int]) -> tuple[int, dict[int, int]] | None:
    """A vector mod _PRIME reconstructed over Q, as a common denominator
    and integer numerators; None if some entry does not reconstruct."""
    fracs = []
    for t, u in v.items():
        rs = _reconstruct(u)
        if rs is None:
            return None
        fracs.append((t, rs))
    d = lcm(*(s for _, (_, s) in fracs))
    return d, {t: r * (d // s) for t, (r, s) in fracs}


def _solve_modular(rows: list[dict[int, int | Fraction]], ncols: int) -> dict[int, Fraction] | None:
    """_solve_sparse's answer, found modulo the prime p = 2^61 - 1 and
    proved exactly; _solve_sparse itself runs only when a proof step fails.

    The elimination is _solve_sparse's, over GF(p).  The proof works on the
    integer rows, in O(nnz) per vector:
    - each mod-p free column f that some row holds gets the kernel vector
      with y_f = 1 and the other free columns 0, reconstructed over Q and
      checked to satisfy A v = 0.  Then no free column is a rational
      pivot, and columns independent mod p are independent over Q, so the
      two pivot sets are equal;
    - a row left holding only a right-hand side is then a nonzero minor of
      [A | b] beyond the rank, so the system is inconsistent: None;
    - otherwise the reconstructed solution on the pivot columns, checked to
      satisfy A y = b, is the unique solution supported on them.
    """
    # the box oracle's rows are integers already; copying them would cost a
    # fifth of the time on its small systems
    exact = rows if all(type(c) is int for row in rows for c in row.values()) else _integer_rows(rows)
    by_col: dict[int, list[tuple[int, int]]] = {}
    for k, row in enumerate(exact):
        for t, c in row.items():
            by_col.setdefault(t, []).append((k, c))
    rhs = {k: c for k, c in by_col.pop(ncols, ()) if c}

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

    # rows mod p in buckets by column: a row waits in a bucket at or left
    # of its leftmost column, and moves on to that column when its bucket
    # comes up without holding it
    reduced = [{t: c % _PRIME for t, c in row.items() if c % _PRIME} for row in exact]
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
        inv = pow(reduced[pk][col], -1, _PRIME)
        pivot = {t: c * inv % _PRIME for t, c in reduced[pk].items()}
        for k in hits:
            if k != pk:
                row = reduced[k]
                f = row[col]
                for t, c in pivot.items():
                    c = (row.get(t, 0) - f * c) % _PRIME
                    if c:
                        row[t] = c
                    else:
                        row.pop(t, None)
                if row:
                    waiting.setdefault(col + 1, []).append(k)
        pivots.append((col, pivot))

    def back_substitute(y: dict[int, int], below: int, homogeneous: bool) -> dict[int, int]:
        # monic pivot rows, each holding no column left of its own; pivot
        # columns at or beyond `below` are zero
        for col, row in reversed(pivots):
            if col < below:
                acc = 0 if homogeneous else row.get(ncols, 0)
                y[col] = (acc - sum(c * y.get(t, 0) for t, c in row.items() if col < t < ncols)) % _PRIME
        return y

    for f in sorted(by_col.keys() - {col for col, _ in pivots}):
        if not holds(_lift(back_substitute({f: 1}, f, True)), {}):
            return _solve_sparse(exact, ncols)
    if waiting:  # rows left hold only a nonzero right-hand side
        return None
    lifted = _lift(back_substitute({}, ncols, False))
    if not holds(lifted, rhs):
        return _solve_sparse(exact, ncols)
    d, num = lifted
    return {col: Fraction(num[col], d) for col, _ in reversed(pivots)}


def _check_box(box: int, cap: int) -> None:
    if box > cap:
        raise ValueError(f"box bound {box} exceeds the solver cap {cap}")
    if box < 0:
        raise ValueError("box bound must be nonnegative")


def _box_system(x: WeylElement, box: int) -> tuple[list[dict[int, int]], list[tuple[int, int]]]:
    """The integer rows of [x, y] = 1 for y inside the box, and the
    exponent pair of each column; see find_witness_box."""
    columns = [(i, j) for i in range(box + 1) for j in range(box + 1)]
    d, xs = numerators(x)
    system: dict[tuple[int, int], dict[int, int]] = {(0, 0): {len(columns): d}}
    for col, (i, j) in enumerate(columns):
        for key, c in bracket_numerators(xs, {(i, j): 1}).items():
            system.setdefault(key, {})[col] = c
    return [system[key] for key in sorted(system)], columns


def find_witness_box(x: WeylElement, box: int, cap: int = DEFAULT_BOX_CAP) -> WeylElement | None:
    """Search for a witness supported inside {(i, j): i <= box, j <= box}.

    The commutator is linear in y, so the search is an exact linear solve.
    It runs on integers: with d the common denominator of x and X = d*x,
    column (i, j) is the bracket [X, p^i q^j] taken on X's integer
    numerators (element.bracket_numerators), stored as sparse rows keyed
    by monomial, and the right-hand side is d at (0, 0), because
    [X, y] = d exactly when [x, y] = 1.  Each row is d times the row of the
    rational system, so the nonzeros, the pivots and the witness are the
    same: the one supported on the leftmost independent columns (see
    _solve_sparse).  _solve_modular finds it modulo a prime and certifies
    it exactly.  A returned witness is always verified.  None means only
    that no witness exists within the box.
    """
    _check_box(box, cap)
    if x.is_zero():
        raise ValueError("the zero element admits no witness")
    rows, columns = _box_system(x, box)
    solution = _solve_modular(rows, len(columns))
    if solution is None:
        return None
    y = WeylElement({columns[col]: c for col, c in solution.items() if c})
    if not verify_witness(x, y):
        raise WeylInternalError("box oracle produced a non-verifying witness")
    return y


def _axis_weights(x: WeylElement) -> list[Weight]:
    """Finite list of axis weights that covers every distinct leading
    support an axis direction can expose on x.

    Slopes of hull segments are bounded by the exponent spans, so beyond
    max exponent + 1 the exposed face is stable and one representative
    suffices.
    """
    n_max = max(max(i, j) for i, j in x.support()) + 1
    seen: set[tuple[int, int]] = set()
    out: list[Weight] = []
    for n in range(1, n_max + 1):
        for rho, sigma in ((n, 1), (1, n)):
            if (rho, sigma) not in seen:
                seen.add((rho, sigma))
                out.append(Weight(rho, sigma))
    return out


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
    attempted: list[RuleId] = []
    notes: list[str] = []

    def verdict(outcome: Outcome, *reasons: RuleCitation, witness=None) -> Verdict:
        return Verdict(outcome, witness=witness, reasons=reasons, attempted=tuple(attempted),
                       box_bound=box, notes=tuple(notes), profile=profile)

    def unsolvable(cit: RuleCitation) -> Verdict:
        return verdict(Outcome.UNSOLVABLE, cit)

    attempted.append(RuleId.CONSTANT_ELEMENT)
    if all(pt == (0, 0) for pt in profile.support):
        return unsolvable(
            RuleCitation(
                RuleId.CONSTANT_ELEMENT,
                {"value": str(x)},
                "scalars commute with everything, so [x, y] = 0 can never reach 1",
            )
        )

    span = profile.span

    attempted.append(RuleId.LOW_GRADE_BAND)
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
    attempted.append(RuleId.POLYNOMIAL_IN_GENERATOR)
    pts = profile.support
    if all(i == 0 for i, _ in pts):
        gen, deg = "q", max(j for _, j in pts)
    elif all(j == 0 for _, j in pts):
        gen, deg = "p", max(i for i, _ in pts)
    elif span.min_grade == span.max_grade == 0:
        gen, deg = "h", profile.h_form.parts[0].degree()
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

    attempted.append(RuleId.AFFINE_FAMILY)
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

    attempted.append(RuleId.NON_AXIS_EDGE)
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

    attempted.append(RuleId.AXIS_POWER_INDEX_ONE)
    saw_power_index_above_one = False
    for w in _axis_weights(x):
        v = weight_degree(x, w)
        if v < w.rho + w.sigma:
            continue
        f, r = profile.leading(w)
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

    attempted.append(RuleId.EDGE_GCD_ONE)
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

    attempted.append(RuleId.ORACLE_WITNESS)
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
