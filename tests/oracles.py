"""Independent oracles the test suite checks the library against.

Everything here is deliberately naive: single-swap rewriting instead of the
closed-form normal ordering, exhaustive weight scans instead of convex
hulls, and undetermined-coefficient root extraction instead of squarefree
multiplicities.  Slow but obviously correct.  The one exception is
swap_normal_qp, a memoised recurrence that is checked against the literal
rewriting on small exponents and stays fast on large ones.

It also holds the helpers that only tests call, kept out of the library:
the schoolbook product and power of UniPoly and BiPoly (poly_mul,
poly_pow, swap_vars), the inverse of to_h_form (from_h_form, through
substitute_poly), nested commutators (ad_power) and the split of a bracket
at its leading weighted degree (leading_split).  The last four run on the
library's own mul and commutator, so they check the facts they state, not
those kernels.  The general convex hull (convex_hull) is here too: only
reference_edges runs it, over the whole support, while the library reads
its edges off one chain over the frontier.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

from weylkit import (
    H,
    P,
    Q,
    BiPoly,
    Edge,
    HForm,
    PolygonProfile,
    UniPoly,
    Vertex,
    WeylElement,
    WeylInternalError,
    Weight,
    commutator,
    grade_components,
    mul,
    power,
    separating_weight,
    weight_polynomial,
)
from weylkit.element import numerators
from weylkit.polygon import exposed_face


def poly_mul(f, g):
    """f g for two UniPolys or two BiPolys, by the schoolbook product."""
    if isinstance(f, UniPoly):
        out = [Fraction(0)] * (len(f.coeffs()) + len(g.coeffs()))
        for i, a in enumerate(f.coeffs()):
            for j, b in enumerate(g.coeffs()):
                out[i + j] += a * b
        return UniPoly(out)
    acc: dict[tuple[int, int], Fraction] = {}
    for (a, b), ca in f.terms().items():
        for (c, d), cb in g.terms().items():
            key = (a + c, b + d)
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return BiPoly(acc)


def poly_pow(f, m: int):
    """f^m for a UniPoly or a BiPoly, by m products with poly_mul."""
    if m < 0:
        raise ValueError("negative powers are not defined")
    out = UniPoly((1,)) if isinstance(f, UniPoly) else BiPoly.one()
    for _ in range(m):
        out = poly_mul(out, f)
    return out


def swap_vars(f: BiPoly) -> BiPoly:
    """f with X and Y exchanged."""
    return BiPoly({(j, i): c for (i, j), c in f.terms().items()})


def substitute_poly(f: UniPoly, x: WeylElement) -> WeylElement:
    """f(x) by Horner's rule on mul."""
    result = WeylElement.zero()
    for c in reversed(f.coeffs()):
        result = mul(result, x) + WeylElement.monomial(0, 0, c)
    return result


def from_h_form(hf: HForm) -> WeylElement:
    """The inverse of to_h_form: the sum of f_s(h) q^s over grades s >= 0
    and of f_s(h) p^(-s) over s < 0."""
    out = WeylElement.zero()
    for s, f in hf.parts.items():
        piece = substitute_poly(f, H)
        if s > 0:
            piece = mul(piece, WeylElement.monomial(0, s))
        elif s < 0:
            piece = mul(piece, WeylElement.monomial(-s, 0))
        out = out + piece
    return out


def ad_power(x: WeylElement, y: WeylElement, n: int) -> WeylElement:
    """n-fold nested commutator (ad x)^n y; n = 0 returns y."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = y
    for _ in range(n):
        out = commutator(x, out)
    return out


def leading_split(x: WeylElement, y: WeylElement, w: Weight) -> tuple[WeylElement, WeylElement]:
    """Split [x, y] into the part t supported exactly on weighted degree
    v(x) + v(y) - (rho + sigma) and the strictly lower remainder u.

    t vanishes exactly when the leading polynomials f of x and g of y are
    power-proportional (g^v(x) a scalar multiple of f^v(y)); the remainder
    always sits strictly below the threshold degree.
    """
    if x.is_zero() or y.is_zero():
        raise ValueError("leading split requires nonzero inputs")
    threshold = exposed_face(x.support(), w)[0] + exposed_face(y.support(), w)[0] - (w.rho + w.sigma)
    den, bracket = numerators(commutator(x, y))
    t_terms: dict[tuple[int, int], int] = {}
    u_terms: dict[tuple[int, int], int] = {}
    for pt, c in bracket.items():
        d = pt[0] * w.rho + pt[1] * w.sigma
        if d == threshold:
            t_terms[pt] = c
        elif d < threshold:
            u_terms[pt] = c
        else:
            raise WeylInternalError(
                f"commutator exceeds the split threshold at {pt} for weight {w}"
            )
    return WeylElement._from_numerators(den, t_terms), WeylElement._from_numerators(den, u_terms)


def rewrite_normal_qp(m: int, n: int) -> WeylElement:
    """Normal form of q^m p^n by exhaustively applying the single rewrite
    qp -> pq - 1 to one adjacent pair at a time."""
    pending: dict[str, Fraction] = {"q" * m + "p" * n: Fraction(1)}
    done: dict[str, Fraction] = {}
    while pending:
        word, coeff = pending.popitem()
        k = word.find("qp")
        if k < 0:
            done[word] = done.get(word, Fraction(0)) + coeff
            continue
        for new_word, c in ((word[:k] + "pq" + word[k + 2:], coeff),
                            (word[:k] + word[k + 2:], -coeff)):
            pending[new_word] = pending.get(new_word, Fraction(0)) + c
    terms: dict[tuple[int, int], Fraction] = {}
    for word, coeff in done.items():
        i = word.count("p")
        j = word.count("q")
        assert word == "p" * i + "q" * j
        terms[(i, j)] = terms.get((i, j), Fraction(0)) + coeff
    return WeylElement(terms)


def naive_omega(x: WeylElement) -> WeylElement:
    """omega(x) as sum c (-1)^i (q^i p^j), each word normal ordered by
    rewrite_normal_qp."""
    out = WeylElement.zero()
    for (i, j), c in x.terms().items():
        out = out + rewrite_normal_qp(i, j).scale(-c if i % 2 else c)
    return out


@cache
def swap_normal_qp(m: int, n: int) -> dict[tuple[int, int], int]:
    """Normal form of q^m p^n as {(i, j): coefficient of p^i q^j}.

    The single swap q p -> p q - 1, moved through q^m, gives
    q^m p = p q^m - m q^(m-1), hence the recurrence

        q^m p^n = p (q^m p^(n-1)) - m q^(m-1) p^(n-1).

    Results are cached and shared between callers: read them, never modify.
    """
    if m == 0 or n == 0:
        return {(n, m): 1}
    out: dict[tuple[int, int], int] = {}
    for (i, j), c in swap_normal_qp(m, n - 1).items():
        out[(i + 1, j)] = out.get((i + 1, j), 0) + c
    for (i, j), c in swap_normal_qp(m - 1, n - 1).items():
        out[(i, j)] = out.get((i, j), 0) - m * c
    return {key: c for key, c in out.items() if c}


def reference_mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """x y from swap_normal_qp alone: p^a q^b p^c q^d is p^a (q^b p^c) q^d,
    with the middle word normal ordered by the recurrence."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (a, b), cx in x.terms().items():
        for (c, d), cy in y.terms().items():
            for (i, j), k in swap_normal_qp(b, c).items():
                key = (a + i, j + d)
                acc[key] = acc.get(key, Fraction(0)) + cx * cy * k
    return WeylElement(acc)


def reference_bracket(x: WeylElement, y: WeylElement) -> WeylElement:
    """[x, y] as reference_mul(x, y) - reference_mul(y, x)."""
    return reference_mul(x, y) - reference_mul(y, x)


def naive_eval(ast) -> WeylElement:
    """An expression tree (strategies.ExprAst) folded on WeylElement values
    with mul, power and +, so every intermediate coefficient is a reduced
    Fraction."""
    # imported here: perfbench imports this module as tests.oracles, with
    # neither tests/ on the path nor hypothesis needed
    from strategies import Neg, Num, Pow, Prod, Sum, Var

    if isinstance(ast, Num):
        return WeylElement.monomial(0, 0, ast.value)
    if isinstance(ast, Var):
        return {"p": P, "q": Q, "h": H}[ast.name]
    if isinstance(ast, Pow):
        return power(naive_eval(ast.base), ast.exponent)
    if isinstance(ast, Prod):
        out = WeylElement.one()
        for factor in ast.factors:
            out = mul(out, naive_eval(factor))
        return out
    if isinstance(ast, Neg):
        return -naive_eval(ast.child)
    if isinstance(ast, Sum):
        out = WeylElement.zero()
        for part in ast.parts:
            out = out + naive_eval(part)
        return out
    raise TypeError(f"not an expression node: {ast!r}")


def _rising_factorial(k: int, offset: int) -> UniPoly:
    """(X + offset)(X + offset + 1)...(X + offset + k - 1) as a product of
    UniPolys."""
    out = UniPoly((1,))
    for t in range(k):
        out = poly_mul(out, UniPoly((offset + t, 1)))
    return out


def naive_h_form(x: WeylElement) -> HForm:
    """The h-form summed grade by grade as UniPolys of Fractions: grade s >= 0
    holds sum_i a_i p^i q^i q^s, so f_s = sum_i a_i X(X+1)...(X+i-1); grade
    s = -m < 0 holds p^m sum_j a_j p^j q^j, and f(h) p^m = p^m f(h - m)
    shifts each rising factorial to start at X + m."""
    parts: dict[int, UniPoly] = {}
    for s, comp in grade_components(x).items():
        coeffs: list[Fraction] = []
        for (i, j), c in comp.terms().items():
            term = poly_mul(UniPoly((c,)), _rising_factorial(i, 0) if s >= 0 else _rising_factorial(j, -s))
            coeffs += [Fraction(0)] * (len(term.coeffs()) - len(coeffs))
            for k, a in enumerate(term.coeffs()):
                coeffs[k] += a
        f = UniPoly(coeffs)
        if not f.is_zero():
            parts[s] = f
    return HForm(parts)


def all_coprime_weights(bound: int) -> list[Weight]:
    return [
        Weight(r, s)
        for r in range(1, bound + 1)
        for s in range(1, bound + 1)
        if gcd(r, s) == 1
    ]


def convex_hull(points) -> list[tuple[int, int]]:
    """Convex hull in counterclockwise order (Andrew's monotone chain, a
    lower and an upper chain over every point); collinear boundary points
    are dropped.  Degenerate inputs yield 1 or 2 points."""
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


def reference_edges(x: WeylElement) -> PolygonProfile:
    """polygon.edges over the whole support: the full convex hull of every
    support point (its own hull above, sharing no code with the library's
    chain over the frontier), the hull segments with a positive outward
    normal, their weights sorted by slope, and each edge's face and each
    joining vertex's check from a scan of every support point."""
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
            # outward normal of the CCW-oriented segment a -> b
            nr, ns = b[1] - a[1], a[0] - b[0]
            if nr > 0 and ns > 0:
                g = gcd(nr, ns)
                weights.append(Weight(nr // g, ns // g))
    weights.sort(key=lambda w: Fraction(w.rho, w.sigma))

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
        sw = separating_weight(e1.weight, e2.weight)
        if exposed_face(support, sw)[1] != shared:
            raise WeylInternalError(
                f"separating weight {sw} does not expose the joining vertex {next(iter(shared))}"
            )
        vertex_list.append(Vertex(next(iter(shared)), sw))

    return PolygonProfile(tuple(edge_list), tuple(vertex_list))


def rational_core(shape) -> UniPoly:
    """The core of a HomogShape with its rational coefficients nums[k]/den."""
    return UniPoly(Fraction(c, shape.den) for c in shape.nums)


def rehomogenize(shape) -> BiPoly:
    """Inverse of power_analysis.dehomogenize: rebuild the bivariate
    polynomial X^x_mult Y^y_mult times the homogenized core."""
    w = shape.weight
    core = rational_core(shape)
    deg = len(core.coeffs()) - 1
    terms: dict[tuple[int, int], Fraction] = {}
    for t, c in enumerate(core.coeffs()):
        if c:
            if w.sigma == 1:
                terms[(shape.x_mult + t, shape.y_mult + w.rho * (deg - t))] = c
            else:
                terms[(shape.x_mult + w.sigma * (deg - t), shape.y_mult + t)] = c
    return BiPoly(terms)


def fraction_linear_root(core: UniPoly) -> Fraction | None:
    """mu if core is lead*(Z - mu)^k, k = deg core >= 1, else None, on
    Fractions: c_(k-1) = -k lead mu fixes mu, then each c_j must be
    lead C(k,j) (-mu)^(k-j).  The reference for HomogShape.linear_root."""
    c = core.coeffs()
    k = len(c) - 1
    mu, term = -c[k - 1] / (k * c[k]), c[k]
    for j in range(k - 1, -1, -1):
        term = -term * mu * (j + 1) / (k - j)  # lead C(k,j) (-mu)^(k-j)
        if c[j] != term:
            return None
    return mu


def fraction_monic_root(f: UniPoly, r: int) -> UniPoly | None:
    """The monic h with h**r == f, or None, for f monic of degree n and r | n:
    the reversal G of h has G^r = F, the reversal of f, and F G' = (1/r) F' G
    gives G_k = (1/k) sum_j (j/r - (k - j)) F_j G_(k-j) on Fractions; f is an
    r-th power exactly when G_k = 0 for n/r < k <= n.  The reference for
    power_analysis._root_numerators."""
    n = len(f.coeffs()) - 1
    m = n // r
    F = f.coeffs()[::-1]
    G = [Fraction(1)]
    for k in range(1, n + 1):
        g = sum((j - r * (k - j)) * F[j] * G[k - j] for j in range(max(1, k - m), k + 1)) / (r * k)
        if k <= m:
            G.append(g)
        elif g:
            return None
    return UniPoly(G[::-1])


def fraction_power_index(shape) -> int:
    """HomogShape.power_index from the rational core: the largest divisor r
    of gcd(x_mult, y_mult, deg core) for which fraction_monic_root finds a
    root of the monic core."""
    cs = rational_core(shape).coeffs()
    g = gcd(shape.x_mult, shape.y_mult, len(cs) - 1)
    monic = UniPoly(c / cs[-1] for c in cs)
    return max(r for r in range(1, g + 1) if g % r == 0 and fraction_monic_root(monic, r) is not None)


def power_proportional(x: WeylElement, y: WeylElement, w: Weight) -> bool:
    """Does g^v(x) equal c * f^v(y) for some nonzero scalar c, where f and g
    are the leading polynomials of x and y at weight w?"""
    f = weight_polynomial(x, w)
    g = weight_polynomial(y, w)
    gp = poly_pow(g, exposed_face(x.support(), w)[0])
    fp = poly_pow(f, exposed_face(y.support(), w)[0])
    if gp.support() != fp.support():
        return False
    pt = next(iter(fp.support()))
    c = gp.coeff(*pt) / fp.coeff(*pt)
    return c != 0 and gp == c * fp


def series_exp_ad(g: WeylElement, x: WeylElement, cap: int = 64) -> WeylElement:
    """exp(ad g) x summed term by term, each term recomputed from scratch."""
    out = WeylElement.zero()
    fact = 1
    for k in range(cap):
        if k:
            fact *= k
        term = ad_power(g, x, k)
        if term.is_zero() and k > 0:
            return out
        out = out + term.scale(Fraction(1, fact))
    raise AssertionError("series did not terminate")


def naive_solve(rows: list[dict], ncols: int) -> dict[int, Fraction] | None:
    """Plain rational Gauss-Jordan elimination on a dense copy of a sparse
    system: a row maps column indices to coefficients, with its right-hand
    side under the key ncols.  Columns are pivoted left to right and free
    variables set to zero; returns the solution on the pivot columns, or
    None when the system is inconsistent.  The solution supported on the
    leftmost independent columns is unique, so it is the one the library's
    solver must return."""
    mat = [[Fraction(row.get(t, 0)) for t in range(ncols + 1)] for row in rows]
    r = 0
    pivots = []
    for col in range(ncols):
        pivot = next((k for k in range(r, len(mat)) if mat[k][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        lead = mat[r][col]
        mat[r] = [v / lead for v in mat[r]]
        for k in range(len(mat)):
            if k != r and mat[k][col]:
                factor = mat[k][col]
                mat[k] = [a - factor * b for a, b in zip(mat[k], mat[r])]
        pivots.append((r, col))
        r += 1
    if any(mat[k][ncols] for k in range(r, len(mat))):
        return None
    return {col: mat[row][ncols] for row, col in pivots}


def columns_of(rows: list[dict], ncols: int) -> tuple[list[dict], dict]:
    """The columns and right-hand side the library's _solve takes, from
    rows in naive_solve's form: column t, and the right-hand side, map the
    index of each row holding them to its entry."""
    columns: list[dict] = [{} for _ in range(ncols)]
    rhs: dict = {}
    for k, row in enumerate(rows):
        for t, c in row.items():
            (rhs if t == ncols else columns[t])[k] = c
    return columns, rhs


def reference_box_columns(x: WeylElement, box: int, columns: list[tuple[int, int]]) -> tuple[list[dict], int]:
    """The integer columns and right-hand side _box_system must return for
    the given exponent pairs: with d the common denominator of x, column t
    is d * reference_bracket(x, p^i q^j) for (i, j) = columns[t], keyed by
    monomial and holding only its nonzero entries, and the right-hand side
    is d at (0, 0).  box only bounds the columns."""
    assert all(i <= box and j <= box for i, j in columns)
    d = lcm(*(c.denominator for c in x.terms().values()))
    brackets = []
    for i, j in columns:
        br = reference_bracket(x, WeylElement.monomial(i, j)).terms()
        assert all((d * c).denominator == 1 for c in br.values())
        brackets.append({key: int(d * c) for key, c in br.items()})
    return brackets, d


def decoded_box_columns(x: WeylElement, box: int, brackets: list[dict[int, int]]) -> list[dict[tuple[int, int], int]]:
    """_box_system's columns keyed by monomial again: row code k is
    divmod(k, W) = (a, b) for p^a q^b, with W = box + (largest q-exponent
    of x) + 1, the width of the documented layout."""
    width = box + max((j for _, j in x.support()), default=0) + 1
    return [{divmod(k, width): c for k, c in col.items()} for col in brackets]


def naive_box_witness(x: WeylElement, box: int) -> WeylElement | None:
    """naive_solve on the linear system [x, y] = 1 over box-supported y,
    with every bracket taken from reference_bracket, so that it rests on
    neither the library's mul nor its commutator.  Every column of the box
    is built, so the witness it returns is the one find_witness_box must
    return."""
    columns = [(i, j) for i in range(box + 1) for j in range(box + 1)]
    brackets = [reference_bracket(x, WeylElement.monomial(i, j)) for i, j in columns]
    row_keys = sorted({pt for br in brackets for pt in br.support()} | {(0, 0)})
    rows = [
        {col: br.coeff(*key) for col, br in enumerate(brackets) if br.coeff(*key)}
        for key in row_keys
    ]
    rows[row_keys.index((0, 0))][len(columns)] = Fraction(1)
    solution = naive_solve(rows, len(columns))
    if solution is None:
        return None
    y = WeylElement({columns[col]: c for col, c in solution.items() if c})
    assert reference_bracket(x, y) == WeylElement.one()
    return y


def _integer_nth_root(n: int, m: int) -> int | None:
    if n < 0:
        return None
    if n in (0, 1):
        return n
    r = max(1, round(n ** (1.0 / m)))
    while r ** m > n:
        r -= 1
    while (r + 1) ** m <= n:
        r += 1
    return r if r ** m == n else None


def rational_nth_root(c: Fraction, m: int) -> Fraction | None:
    """A rational r with r^m = c, or None.  Positive root chosen for even m."""
    if c == 0:
        return Fraction(0)
    if c < 0 and m % 2 == 0:
        return None
    num = _integer_nth_root(abs(c.numerator), m)
    den = _integer_nth_root(c.denominator, m)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return -root if c < 0 else root


def bipoly_nth_root(f: BiPoly, m: int) -> BiPoly | None:
    """Exact rational m-th root of a polynomial whose support is a single
    point or a set of collinear points (every weighted leading polynomial
    has this shape), found by undetermined coefficients.

    Returns None when no root with rational coefficients exists.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    if m == 1 or f.is_zero():
        return f
    pts = sorted(f.support())
    lo = pts[0]
    if len(pts) == 1:
        if lo[0] % m or lo[1] % m:
            return None
        c = rational_nth_root(f.coeff(*lo), m)
        if c is None:
            return None
        return BiPoly.monomial(lo[0] // m, lo[1] // m, c)

    dx, dy = pts[-1][0] - lo[0], pts[-1][1] - lo[1]
    g = gcd(abs(dx), abs(dy))
    step = (dx // g, dy // g)
    indices: dict[tuple[int, int], int] = {}
    for pt in pts:
        ox, oy = pt[0] - lo[0], pt[1] - lo[1]
        if step[0]:
            t, rem = divmod(ox, step[0])
        else:
            t, rem = divmod(oy, step[1])
        if rem or (lo[0] + t * step[0], lo[1] + t * step[1]) != pt:
            raise ValueError("support points are not collinear")
        indices[pt] = t
    span = max(indices.values())
    if span % m or lo[0] % m or lo[1] % m:
        return None
    seq = [Fraction(0)] * (span + 1)
    for pt, t in indices.items():
        seq[t] = f.coeff(*pt)

    head = rational_nth_root(seq[0], m)
    if head is None:
        return None
    root_len = span // m + 1
    root_seq = [head]
    lead_factor = m * head ** (m - 1)
    for s in range(1, root_len):
        partial = poly_pow(UniPoly(root_seq), m).coeffs()
        known = partial[s] if s < len(partial) else Fraction(0)
        root_seq.append((seq[s] - known) / lead_factor)
    if poly_pow(UniPoly(root_seq), m) != UniPoly(seq):
        return None
    base = (lo[0] // m, lo[1] // m)
    root = BiPoly(
        {
            (base[0] + t * step[0], base[1] + t * step[1]): c
            for t, c in enumerate(root_seq)
            if c
        }
    )
    assert poly_pow(root, m) == f
    return root
