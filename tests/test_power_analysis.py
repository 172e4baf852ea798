"""Weighted-homogeneous factor shapes, monic r-th roots, power index."""

from fractions import Fraction
from math import factorial, gcd, lcm

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from weylkit import (
    BiPoly,
    HomogShape,
    UniPoly,
    Weight,
    dehomogenize,
    edges,
    power_index,
)
from weylkit.polygon import exposed_face
from weylkit.power_analysis import _root_numerators

from oracles import (
    bipoly_nth_root,
    fraction_linear_root,
    fraction_monic_root,
    fraction_power_index,
    poly_mul,
    poly_pow,
    rational_core,
    rational_nth_root,
    rehomogenize,
    swap_vars,
)
from strategies import coefficients, weyl_elements


def B(terms):
    return BiPoly(terms)


@st.composite
def axis_homogeneous(draw, max_factors=2, max_mult=2):
    """c * X^a * Y^b * prod (X + c_i Y^n)^(e_i) expanded, for a random
    axis weight (n, 1), with its factors (a, b, ((c_i, e_i), ...)); never a
    constant.  A c_i may repeat or be 0."""
    n = draw(st.integers(1, 3))
    a = draw(st.integers(0, 2))
    b = draw(st.integers(0, 2))
    n_factors = draw(st.integers(0, max_factors))
    if a == 0 and b == 0 and n_factors == 0:
        a = 1
    f = BiPoly.monomial(a, b, draw(coefficients(max_abs=5)))
    factors = []
    for _ in range(n_factors):
        c = draw(st.integers(-3, 3))
        e = draw(st.integers(1, max_mult))
        f = poly_mul(f, poly_pow(B({(1, 0): 1, (0, n): c}), e))
        factors.append((c, e))
    return f, Weight(n, 1), (a, b, tuple(factors))


def index_by_construction(a, b, factors):
    """gcd of the axis exponents and the root multiplicities of
    X^a Y^b prod (X + c_i Y^n)^(e_i): equal c_i merge, and c_i = 0 joins X."""
    mults = {}
    for c, e in factors:
        mults[c] = mults.get(c, 0) + e
    return gcd(a + mults.pop(0, 0), b, *mults.values())


class TestDehomogenize:
    def test_pure_monomial(self):
        shape = dehomogenize(B({(2, 2): 1}), Weight(1, 1))
        assert (shape.x_mult, shape.y_mult) == (2, 2)
        assert rational_core(shape) == UniPoly((1,))

    def test_perfect_square(self):
        f = B({(2, 0): 1, (1, 1): 2, (0, 2): 1})  # (X + Y)^2
        shape = dehomogenize(f, Weight(1, 1))
        assert (shape.x_mult, shape.y_mult) == (0, 0)
        assert rational_core(shape) == UniPoly((1, 2, 1))

    def test_sigma_axis_case(self):
        f = B({(2, 2): 1, (0, 3): 1})  # Y^2 (X^2 + Y) for weight (1, 2)
        shape = dehomogenize(f, Weight(1, 2))
        assert (shape.x_mult, shape.y_mult) == (0, 2)
        assert len(rational_core(shape).coeffs()) - 1 == 1
        assert rehomogenize(shape) == f

    def test_non_axis_weight_rejected(self):
        with pytest.raises(ValueError, match="axis weight"):
            dehomogenize(B({(2, 2): 1}), Weight(2, 3))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ValueError):
            dehomogenize(B({(1, 0): 1, (0, 2): 1}), Weight(1, 1))

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero polynomial"):
            dehomogenize(B({}), Weight(1, 1))

    @settings(max_examples=80, deadline=None)
    @given(axis_homogeneous())
    def test_reconstruction_round_trip(self, fw):
        f, w, _ = fw
        assert rehomogenize(dehomogenize(f, w)) == f

    @settings(max_examples=40, deadline=None)
    @given(axis_homogeneous())
    def test_mirrored_weight_round_trip(self, fw):
        f, w, _ = fw
        mirrored = swap_vars(f)
        assert rehomogenize(dehomogenize(mirrored, Weight(w.sigma, w.rho))) == mirrored

    def test_core_has_nonzero_constant_term(self):
        f = B({(3, 0): 2, (1, 2): -4})  # 2 X (X - sqrt2 Y)(X + sqrt2 Y) shape
        shape = dehomogenize(f, Weight(1, 1))
        assert shape.nums[0] != 0 and shape.nums[-1] != 0
        assert rational_core(shape).coeffs() == (Fraction(-4), 0, Fraction(2))


class TestPowerIndex:
    def test_plain_product(self):
        assert power_index(B({(1, 1): 1}), Weight(1, 1)) == 1

    def test_square_monomial(self):
        assert power_index(B({(2, 2): 1}), Weight(1, 1)) == 2

    def test_binomial_square(self):
        assert power_index(B({(2, 0): 1, (1, 1): 2, (0, 2): 1}), Weight(1, 1)) == 2

    def test_extra_factor_breaks_square(self):
        f = poly_mul(B({(2, 0): 1, (1, 1): 2, (0, 2): 1}), B({(1, 0): 1}))
        assert power_index(f, Weight(1, 1)) == 1

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            power_index(B({(0, 0): 3}), Weight(1, 1))

    @settings(max_examples=100, deadline=None)
    @given(axis_homogeneous(max_mult=6), st.booleans())
    def test_matches_gcd_over_full_decomposition(self, fw, mirrored):
        # the factorization is known by construction, so the index is too
        f, w, (a, b, factors) = fw
        if mirrored:
            f, w = swap_vars(f), Weight(w.sigma, w.rho)
        assert power_index(f, w) == index_by_construction(a, b, factors)

    @pytest.mark.parametrize("a, b, mults, expected", [
        (6, 6, (4, 8), 2),  # g = 6: 6 and 3 fail, 2 passes
        (12, 12, (8, 16), 4),  # g = 12: 12 and 6 fail, 4 passes
        (0, 0, (6,), 6),  # g = deg core
        (0, 0, (2, 4), 2),
        (0, 0, (3, 2), 1),
        (6, 9, (), 3),  # constant core: gcd(a, b)
        (4, 6, (), 2),
    ])
    def test_composite_divisors(self, a, b, mults, expected):
        # X^a Y^b prod (X + c Y)^e over distinct c
        f = B({(a, b): 3})
        for c, e in enumerate(mults, start=1):
            f = poly_mul(f, poly_pow(B({(1, 0): 1, (0, 1): c}), e))
        assert power_index(f, Weight(1, 1)) == expected

    @settings(max_examples=60, deadline=None)
    @given(axis_homogeneous(), st.integers(1, 4))
    def test_scaling_under_powers(self, fw, m):
        f, w, _ = fw
        assert power_index(poly_pow(f, m), w) == m * power_index(f, w)

    @settings(max_examples=60, deadline=None)
    @given(axis_homogeneous())
    def test_root_oracle_agreement(self, fw):
        # the index over the closure is the index over the rationals up to
        # the unit: f over its unit always has an exact rational r-th root,
        # and so does f itself when the unit is an r-th power in the rationals
        f, w, _ = fw
        r = power_index(f, w)
        shape = dehomogenize(f, w)
        unit = rational_core(shape).coeffs()[-1]
        monic = f.scale(1 / unit)
        root = bipoly_nth_root(monic, r)
        assert root is not None
        assert poly_pow(root, r) == monic
        if rational_nth_root(unit, r) is not None:
            root = bipoly_nth_root(f, r)
            assert root is not None
            assert poly_pow(root, r) == f

    @pytest.mark.parametrize("f, r, root", [
        # (X^2 - 2Y^2)^2: its core Z^2 - 2 has the irrational roots +-sqrt 2
        (poly_pow(B({(2, 0): 1, (0, 2): -2}), 2), 2, B({(2, 0): 1, (0, 2): -2})),
        # 3(X^2 + Y^2)^3: its core Z^2 + 1 has the roots +-i
        (poly_mul(B({(2, 0): 3, (0, 2): 3}), poly_pow(B({(2, 0): 1, (0, 2): 1}), 2)), 3, B({(2, 0): 1, (0, 2): 1})),
    ])
    def test_irrational_core_roots_give_a_rational_root(self, f, r, root):
        # the factors over the closure are irrational, yet the monic r-th
        # root is rational; only the unit can stand in the way
        w = Weight(1, 1)
        assert power_index(f, w) == r
        unit = rational_core(dehomogenize(f, w)).coeffs()[-1]
        assert bipoly_nth_root(f.scale(1 / unit), r) in (root, -root)
        assert (bipoly_nth_root(f, r) is None) == (unit != 1)

    def test_rational_gap_documented(self):
        # the only gap between the index over the closure and a rational
        # root is the unit: 2 * (XY)^2 has power index 2 and no rational
        # square root, yet (XY)^2 = 2 * (XY)^2 / 2 has the root XY
        f = B({(2, 2): 2})
        assert power_index(f, Weight(1, 1)) == 2
        assert bipoly_nth_root(f, 2) is None
        assert bipoly_nth_root(f.scale(Fraction(1, 2)), 2) == B({(1, 1): 1})

    def test_index_one_means_no_root_for_any_m(self):
        f = B({(3, 0): 1, (2, 1): 2, (1, 2): 1})  # X (X + Y)^2
        assert power_index(f, Weight(1, 1)) == 1
        for m in range(2, 4):
            assert bipoly_nth_root(f, m) is None


def sympy_sqf(terms):
    """sympy.sqf_list of sum c Z^k over (k, c) in terms, as its unit and
    its monic factors, each a tuple of Fractions from the constant term
    up, with multiplicities."""
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    f = sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * z**k for k, c in terms), z, domain="QQ")
    coeff, factors = f.sqf_list()
    unit = Fraction(str(coeff))
    monic = set()
    for g, m in factors:
        unit *= Fraction(str(g.LC())) ** m
        monic.add((tuple(Fraction(str(c)) for c in reversed(g.monic().all_coeffs())), m))
    return unit, monic


class TestSympyCrossChecks:
    """power_index against sympy's squarefree factorization (skipped where
    sympy is not installed)."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        st.tuples(axis_homogeneous(max_mult=3), st.booleans()),
        weyl_elements(max_exp=5, max_terms=5, nonzero=True).map(lambda x: (x, None)),
    ))
    def test_power_index_matches_sqf_list_multiplicities(self, case):
        # dehomogenized at Y = 1 (X = 1 for (1, n)), an axis edge polynomial
        # is Z^a core(Z); with b the least exponent of the other variable,
        # its power index is gcd(b, multiplicities of Z^a core(Z))
        if case[1] is None:
            faces = [(e.polynomial, e.weight) for e in edges(case[0]).edges if e.weight.is_axis()]
        else:
            (f, w, _), mirrored = case
            faces = [(swap_vars(f), Weight(w.sigma, w.rho)) if mirrored else (f, w)]
        for f, w in faces:
            side = 0 if w.sigma == 1 else 1
            terms = {pt[side]: c for pt, c in f.terms().items()}
            b = min(pt[1 - side] for pt in f.support())
            _, factors = sympy_sqf(terms.items())
            assert power_index(f, w) == gcd(b, *(m for _, m in factors))


monic_unipolys = st.lists(coefficients(fractional=True) | st.just(Fraction(0)), max_size=4).map(
    lambda low: UniPoly(tuple(low) + (1,)))


def root_by_numerators(f: UniPoly, r: int) -> UniPoly | None:
    """fraction_monic_root(f, r), for f monic and r | deg f, once
    _root_numerators on f's integer numerators N (over their lcm, lead
    first) is checked against it: None exactly when the reference is None,
    and otherwise g_k / (L^k r^k k!), L = N_0, is the reference root's
    coefficient of Z^(m-k)."""
    expected = fraction_monic_root(f, r)
    cs = f.coeffs()
    d = lcm(*(c.denominator for c in cs))
    rev = [c.numerator * (d // c.denominator) for c in reversed(cs)]
    g = _root_numerators(rev, r)
    assert (g is None) == (expected is None)
    if g is not None:
        lr = rev[0] * r
        assert [Fraction(gk, lr ** k * factorial(k)) for k, gk in enumerate(g)] == list(expected.coeffs()[::-1])
    return expected


class TestMonicRoot:
    @settings(max_examples=100, deadline=None)
    @given(monic_unipolys, st.integers(1, 6))
    def test_recovers_the_root(self, h, r):
        assert root_by_numerators(poly_pow(h, r), r) == h

    @settings(max_examples=100, deadline=None)
    @given(monic_unipolys, st.integers(2, 6), coefficients(fractional=True), coefficients(fractional=True))
    def test_rejects_a_non_power(self, h, r, c, d):
        # the root c of h^r (Z - c)^(r-1) (Z - d) has a multiplicity r does not divide
        if c == d:
            return
        q = poly_mul(poly_pow(UniPoly((-c, 1)), r - 1), UniPoly((-d, 1)))
        assert root_by_numerators(poly_mul(poly_pow(h, r), q), r) is None

    @settings(max_examples=60, deadline=None)
    @given(monic_unipolys)
    def test_first_root_is_the_polynomial_itself(self, f):
        assert root_by_numerators(f, 1) == f

    def test_single_root_read_off(self):
        # lead (Z - mu)^k is read from the linear root Z - mu at r = k
        assert root_by_numerators(poly_pow(UniPoly((Fraction(-1, 2), 1)), 5), 5) == UniPoly((Fraction(-1, 2), 1))
        assert root_by_numerators(poly_mul(poly_pow(UniPoly((1, 1)), 2), UniPoly((2, 1))), 3) is None


def monic(core: UniPoly) -> UniPoly:
    return UniPoly(c / core.coeffs()[-1] for c in core.coeffs())


def linear_by_monic_root(core: UniPoly) -> Fraction | None:
    """mu read from a linear fraction_monic_root(monic core, k), the
    reference for linear_root."""
    root = fraction_monic_root(monic(core), len(core.coeffs()) - 1)
    return None if root is None else -root.coeffs()[0]


def shape_of(core: UniPoly, x_mult=0, y_mult=0, w=Weight(1, 1)) -> HomogShape:
    """The shape with this core, stored over the lcm of its denominators."""
    d = lcm(*(c.denominator for c in core.coeffs()))
    return HomogShape(x_mult, y_mult, d, tuple(c.numerator * (d // c.denominator) for c in core.coeffs()), w)


class TestLinearRoot:
    MUS = [Fraction(3), Fraction(-2), Fraction(1, 2), Fraction(-5, 3), Fraction(7, 4)]
    LEADS = [Fraction(1), Fraction(-3), Fraction(2, 5)]

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("mu", MUS, ids=str)
    def test_reads_mu_of_a_pure_power(self, k, mu):
        for lead in self.LEADS:
            core = poly_mul(poly_pow(UniPoly((-mu, 1)), k), UniPoly((lead,)))
            assert shape_of(core).linear_root() == mu == linear_by_monic_root(core)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("mu", MUS, ids=str)
    def test_one_perturbed_coefficient(self, k, mu):
        # every coefficient in turn, by +1 and by a fraction; at k = 1 the
        # result is still linear, so only agreement with the monic root is asked
        base = poly_mul(poly_pow(UniPoly((-mu, 1)), k), UniPoly((Fraction(-3),))).coeffs()
        for j in range(k + 1):
            for delta in (Fraction(1), Fraction(-1, 7)):
                cs = list(base)
                cs[j] += delta
                if not cs[0] or not cs[k]:
                    continue
                core = UniPoly(cs)
                got = shape_of(core).linear_root()
                assert got == linear_by_monic_root(core)
                if k > 1:
                    assert got is None

    @settings(max_examples=150, deadline=None)
    @given(st.lists(coefficients(fractional=True) | st.just(Fraction(0)), min_size=1, max_size=8),
           coefficients(fractional=True), coefficients(fractional=True))
    def test_agrees_with_monic_root(self, middle, low, lead):
        core = UniPoly((low, *middle, lead))
        assert shape_of(core).linear_root() == linear_by_monic_root(core)


@st.composite
def cores(draw):
    """A rational core with nonzero constant and leading terms, degree 1 to
    8: random, lead times an r-th power of a random monic polynomial, or such
    a power with one coefficient moved."""
    kind = draw(st.sampled_from(["random", "power", "perturbed"]))
    nonzero = coefficients(fractional=True)
    if kind == "random":
        middle = draw(st.lists(nonzero | st.just(Fraction(0)), max_size=7))
        return UniPoly((draw(nonzero), *middle, draw(nonzero)))
    r = draw(st.integers(1, 4))
    low = draw(st.lists(nonzero | st.just(Fraction(0)), max_size=8 // r - 1))
    core = poly_mul(poly_pow(UniPoly((draw(nonzero), *low, 1)), r), UniPoly((draw(nonzero),)))
    if kind == "perturbed":
        cs = list(core.coeffs())
        cs[draw(st.integers(0, len(cs) - 1))] += draw(nonzero)
        assume(cs[0] and cs[-1])
        core = UniPoly(cs)
    return core


class TestMatchesFractionReferences:
    """The integer root tests against their Fraction forms in oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(cores())
    def test_linear_root(self, core):
        assert shape_of(core).linear_root() == fraction_linear_root(core)

    @settings(max_examples=200, deadline=None)
    @given(cores(), st.integers(1, 8))
    def test_monic_root(self, core, r):
        f = monic(core)
        if (len(f.coeffs()) - 1) % r == 0:
            root_by_numerators(f, r)

    @settings(max_examples=200, deadline=None)
    @given(cores(), st.integers(1, 3), st.integers(0, 2), st.integers(0, 2), st.integers(1, 3), st.booleans())
    def test_power_index_at_both_axes(self, core, m, a, b, n, mirrored):
        # X^(ma) Y^(mb) core at (n,1) (or its mirror at (1,n)), rebuilt as a
        # polynomial and factored again; (1,1) takes the X side
        mirrored = mirrored and n > 1
        w = Weight(1, n) if mirrored else Weight(n, 1)
        built = shape_of(core, m * a, m * b, w)
        assume(len(built.nums) > 1 or a or b)
        f = rehomogenize(built)
        if mirrored:
            assert dehomogenize(swap_vars(f), Weight(n, 1)).nums == built.nums
        shape = dehomogenize(f, w)
        assert shape.nums == built.nums and (shape.x_mult, shape.y_mult) == (m * a, m * b)
        assert shape.power_index() == fraction_power_index(shape)
        if len(shape.nums) > 1:
            assert shape.linear_root() == fraction_linear_root(rational_core(shape))


class TestPowerProportionalityDivision:
    @settings(max_examples=30, deadline=None)
    @given(axis_homogeneous(), st.integers(1, 3))
    def test_power_identity_forces_divisibility(self, fw, k):
        # if g^(deg f) = c f^(deg g) and f has power index 1, then
        # deg f divides deg g and g is a scalar multiple of a power of f
        f, w, _ = fw
        if power_index(f, w) != 1:
            return
        deg_f = exposed_face(f.support(), w)[0]
        if deg_f == 0:
            return
        g = poly_pow(f, k)
        deg_g = exposed_face(g.support(), w)[0]
        assert poly_pow(g, deg_f) == poly_pow(f, deg_g)
        assert deg_g % deg_f == 0
        assert g == poly_pow(f, deg_g // deg_f)
