"""The one stored form of WeylElement and BiPoly: a denominator d > 0 and a
map of nonzero integer numerators with gcd(d, all numerators) = 1.

Every kernel builds its output on that pair, so each output is checked for
the form itself, for agreement with the value rebuilt from its Fractions
(equality and hash), and for reduced Fractions on reading.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import weylkit.element
import weylkit.grading
import weylkit.power_analysis
from weylkit import (
    BiPoly,
    Weight,
    WeylElement,
    commutator,
    dehomogenize,
    edges,
    element_from_string,
    exp_ad,
    mul,
    normalize_qp,
    omega,
)
from weylkit.element import numerators

from oracles import (
    fraction_linear_root,
    fraction_power_index,
    naive_omega,
    reference_bracket,
    reference_mul,
    series_exp_ad,
)
from strategies import ast_text, bipolys, coefficients, expr_asts, weyl_elements

elements = weyl_elements(max_exp=3, max_terms=4, fractional=True)
scalars = st.one_of(st.just(Fraction(0)), coefficients(fractional=True))


def axis_polys(axis: str):
    """Polynomials in p alone or q alone, of degree at most 3."""
    key = (lambda k: (k, 0)) if axis == "p" else (lambda k: (0, k))
    return st.dictionaries(st.integers(0, 3).map(key), coefficients(fractional=True),
                           max_size=3).map(WeylElement)


def assert_canonical(out):
    d, nums = numerators(out)
    assert type(d) is int and d > 0
    assert all(type(c) is int and c for c in nums.values())
    assert gcd(d, *nums.values()) == 1  # for no terms, d = 1
    rebuilt = type(out)(out.terms())
    assert rebuilt == out and hash(rebuilt) == hash(out)
    assert numerators(rebuilt) == (d, nums)
    for (i, j), c in out.terms().items():
        assert type(c) is Fraction and c.denominator > 0
        assert gcd(c.numerator, c.denominator) == 1
        assert out.coeff(i, j) == c == Fraction(nums[i, j], d)
    outside = (1 + max((i for i, _ in nums), default=-1), 0)  # past every support point
    assert type(out.coeff(*outside)) is Fraction and out.coeff(*outside) == 0


class TestWeylKernels:
    @settings(max_examples=80, deadline=None)
    @given(elements, elements, scalars)
    def test_products_and_sums(self, x, y, c):
        for out in (mul(x, y), commutator(x, y), x + y, x - y, -x, x.scale(c)):
            assert_canonical(out)

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("n", range(5))
    def test_normalize_qp(self, m, n):
        assert_canonical(normalize_qp(m, n))

    @settings(max_examples=60, deadline=None)
    @given(elements, axis_polys("q"), axis_polys("p"))
    def test_automorphisms(self, x, gq, gp):
        for out in (omega(x), exp_ad(gq, x), exp_ad(gp, x)):
            assert_canonical(out)

    @settings(max_examples=60, deadline=None)
    @given(expr_asts())
    def test_parsed(self, ast):
        assert_canonical(element_from_string(ast_text(ast)))

    def test_content_is_divided_out(self):
        # 2/6 p q - 4/6 q p = -1/3 p q + 2/3 is stored over 3, not over 6
        x = element_from_string("2/6*p*q - 4/6*q*p")
        assert numerators(x) == (3, {(1, 1): -1, (0, 0): 2})
        assert str(x) == "-1/3*p*q + 2/3"
        # [3/4 p^2, 2/3 q] = p: the denominators 4 and 3 cancel against 2*6
        y = commutator(element_from_string("3/4*p^2"), element_from_string("2/3*q"))
        assert numerators(y) == (1, {(1, 0): 1})


class TestBiPoly:
    @settings(max_examples=80, deadline=None)
    @given(bipolys(max_exp=3, max_terms=4, fractional=True),
           bipolys(max_exp=3, max_terms=4, fractional=True), scalars)
    def test_products_and_sums(self, f, g, c):
        for out in (f * g, f + g, f - g, -f, f.scale(c), f.swap_vars(), f ** 2):
            assert_canonical(out)


class TestZero:
    @settings(max_examples=40, deadline=None)
    @given(elements)
    def test_one_form(self, x):
        zero = WeylElement()
        outs = [
            WeylElement.zero(), WeylElement({(1, 2): 0}), WeylElement.monomial(2, 1, 0),
            x - x, x.scale(0), mul(x, zero), commutator(x, x), exp_ad(zero, zero),
            element_from_string("p*q - q*p - 1"),
        ]
        for out in outs:
            assert numerators(out) == (1, {})
            assert out == zero and hash(out) == hash(zero)
        assert numerators(BiPoly() * BiPoly.one()) == (1, {})


def forbidden(*args, **kwargs):
    raise AssertionError("a kernel made a Fraction")


class TestKernelsMakeNoFraction:
    """The kernels sum on the stored numerators; a Fraction made in one of
    them would be a conversion the stored pair exists to avoid."""

    X = WeylElement({(2, 1): Fraction(-3, 4), (0, 2): Fraction(5, 6), (1, 0): 2})
    Y = WeylElement({(1, 2): Fraction(2, 3), (3, 0): Fraction(-1, 2)})
    GQ = WeylElement({(0, 3): Fraction(1, 3), (0, 1): Fraction(-2, 5)})
    GP = WeylElement({(2, 0): Fraction(-1, 2), (1, 0): 3})

    def test_mul_commutator_omega_exp_ad(self, monkeypatch):
        x, y, gq, gp = self.X, self.Y, self.GQ, self.GP
        with monkeypatch.context() as m:
            m.setattr(weylkit.element, "Fraction", forbidden)
            m.setattr(weylkit.grading, "Fraction", forbidden)
            outs = (mul(x, y), commutator(x, y), omega(x), exp_ad(gq, x), exp_ad(gp, x))
        assert outs == (reference_mul(x, y), reference_bracket(x, y), naive_omega(x),
                        series_exp_ad(gq, x), series_exp_ad(gp, x))

    # X^3 Y^3 (X - 2/3 Y^2)^3 at (2,1), its mirror at (1,2), and
    # 3/2 X^2 Y^2 (X^2 + XY + Y^2) at (1,1), whose core is no square
    LINE = BiPoly({(1, 0): 1, (0, 2): Fraction(-2, 3)})
    EDGES = [
        (BiPoly.monomial(3, 3) * LINE ** 3, Weight(2, 1)),
        ((BiPoly.monomial(3, 3) * LINE ** 3).swap_vars(), Weight(1, 2)),
        (BiPoly({(4, 2): Fraction(3, 2), (3, 3): Fraction(3, 2), (2, 4): Fraction(3, 2)}), Weight(1, 1)),
    ]

    def test_power_analysis(self, monkeypatch):
        # dehomogenize and power_index make no Fraction; linear_root makes
        # one, the mu it returns
        made = []

        def counted(*args):
            made.append(Fraction(*args))
            return made[-1]

        with monkeypatch.context() as m:
            m.setattr(weylkit.power_analysis, "Fraction", forbidden)
            shapes = [dehomogenize(f, w) for f, w in self.EDGES]
            indices = [s.power_index() for s in shapes]
        with monkeypatch.context() as m:
            m.setattr(weylkit.power_analysis, "Fraction", counted)
            roots = [s.linear_root() for s in shapes]
        assert indices == [fraction_power_index(s) for s in shapes] == [3, 3, 1]
        assert roots == [fraction_linear_root(s.core) for s in shapes] == [Fraction(2, 3)] * 2 + [None]
        assert made == [Fraction(2, 3)] * 2

    def test_parser_and_edges(self, monkeypatch):
        # Fraction.__new__ itself is forbidden, so the check holds for a
        # module that makes a Fraction without importing the name
        texts = ["1/2*p + 2/3*q^2", "(3/4*p - 1/5)^2*q", "6/4*h - q*p + 7"]
        showcase = WeylElement({(4, 0): 1, (3, 1): 1, (2, 2): 1, (0, 3): 1, (0, 1): 1})
        with monkeypatch.context() as m:
            m.setattr(Fraction, "__new__", forbidden)
            parsed = [element_from_string(t) for t in texts]
            profile = edges(showcase)
        assert parsed == [
            WeylElement({(1, 0): Fraction(1, 2), (0, 2): Fraction(2, 3)}),
            WeylElement({(2, 1): Fraction(9, 16), (1, 1): Fraction(-3, 10), (0, 1): Fraction(1, 25)}),
            WeylElement({(1, 1): Fraction(1, 2), (0, 0): 8}),
        ]
        assert [e.weight for e in profile.edges] == [Weight(1, 2), Weight(1, 1)]
        assert [v.separating_weight for v in profile.vertices] == [Weight(2, 3)]
