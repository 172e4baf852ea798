"""Grading, h-form conversion, omega, and exp-ad automorphisms."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import weylkit.element
import weylkit.grading
from weylkit import (
    H,
    HForm,
    ONE,
    P,
    Q,
    UniPoly,
    WeylElement,
    commutator,
    exp_ad,
    grade_components,
    grade_span,
    mul,
    omega,
    power,
    to_h_form,
)

from oracles import from_h_form, naive_h_form, naive_omega, series_exp_ad, substitute_poly
from strategies import apply_word, coefficients, tame_words, unipolys, weyl_elements

SHOWCASE = WeylElement({(4, 0): 1, (3, 1): 1, (2, 2): 1, (0, 3): 1, (0, 1): 1})


def derivative(g: WeylElement) -> WeylElement:
    """g' for g a polynomial in one generator (or a constant)."""
    return WeylElement({(i - 1, j) if i else (i, j - 1): (i + j) * c
                        for (i, j), c in g.terms().items() if i + j})


class TestGradeComponents:
    def test_two_monomials(self):
        comps = grade_components(P + power(Q, 3))
        assert comps == {-1: P, 3: WeylElement({(0, 3): 1})}

    def test_single_grade(self):
        comps = grade_components(H + ONE)
        assert comps == {0: H + ONE}

    def test_showcase_element(self):
        comps = grade_components(SHOWCASE)
        assert set(comps) == {-4, -2, 0, 3, 1}
        assert comps[-4] == WeylElement({(4, 0): 1})
        assert comps[0] == WeylElement({(2, 2): 1})

    def test_components_sum_to_element(self):
        comps = grade_components(SHOWCASE)
        total = WeylElement.zero()
        for c in comps.values():
            total = total + c
        assert total == SHOWCASE

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=3, nonzero=True),
           weyl_elements(max_exp=3, max_terms=3, nonzero=True))
    def test_product_respects_grading(self, x, y):
        cx = grade_components(x)
        cy = grade_components(y)
        for i, xi in cx.items():
            for j, yj in cy.items():
                piece = mul(xi, yj)
                if not piece.is_zero():
                    assert grade_components(piece).keys() <= {i + j}


class TestGradeSpan:
    def test_single_monomial(self):
        span = grade_span(power(Q, 3))
        assert (span.min_grade, span.max_grade) == (3, 3)

    def test_symmetric(self):
        span = grade_span(P + Q)
        assert (span.min_grade, span.max_grade) == (-1, 1)

    def test_showcase(self):
        span = grade_span(SHOWCASE)
        assert (span.min_grade, span.max_grade) == (-4, 3)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero element has no grade span"):
            grade_span(WeylElement.zero())


class TestHForm:
    def test_h_itself(self):
        assert to_h_form(H) == HForm({0: UniPoly((0, 1))})

    def test_p2q2(self):
        # p^2 q^2 = h(h+1): frozen from the mul-based reconstruction
        hf = to_h_form(power(P, 2) * power(Q, 2))
        assert hf == HForm({0: UniPoly((0, 1, 1))})
        assert substitute_poly(UniPoly((0, 1, 1)), H) == power(P, 2) * power(Q, 2)

    def test_p2q3(self):
        hf = to_h_form(WeylElement({(2, 3): 1}))
        assert hf == HForm({1: UniPoly((0, 1, 1))})

    def test_from_h_form_simple(self):
        assert from_h_form(HForm({0: UniPoly((0, 1))})) == H
        assert from_h_form(HForm({1: UniPoly((1,))})) == Q

    def test_from_h_form_negative_grade(self):
        # h * p^2 = p^3 q - 2 p^2
        out = from_h_form(HForm({-2: UniPoly((0, 1))}))
        assert out == WeylElement({(3, 1): 1, (2, 0): -2})
        assert out == mul(H, power(P, 2))

    @settings(max_examples=200, deadline=None)
    @given(weyl_elements(max_exp=4, max_terms=5, nonzero=True, fractional=True))
    def test_round_trip(self, x):
        assert from_h_form(to_h_form(x)) == x

    def test_negative_grade_with_fractions(self):
        # 1/2 p^3 q + 2/3 p^2 = p^2 (1/2 h + 2/3): f(X) = 1/2 (X + 2) + 2/3
        x = WeylElement({(3, 1): Fraction(1, 2), (2, 0): Fraction(2, 3)})
        assert to_h_form(x) == HForm({-2: UniPoly((Fraction(5, 3), Fraction(1, 2)))})

    @settings(max_examples=200, deadline=None)
    @given(weyl_elements(max_exp=5, max_terms=6, fractional=True))
    def test_matches_fraction_sum(self, x):
        assert to_h_form(x) == naive_h_form(x)


class TestShiftIdentities:
    @settings(max_examples=60, deadline=None)
    @given(unipolys(max_degree=5, nonzero=True), st.integers(0, 4))
    def test_h_polynomial_past_p_power(self, f, n):
        fh = substitute_poly(f, H)
        pn = WeylElement({(n, 0): 1})
        assert mul(fh, pn) == mul(pn, substitute_poly(f, H - n * ONE))

    @settings(max_examples=60, deadline=None)
    @given(unipolys(max_degree=5, nonzero=True), st.integers(0, 4))
    def test_h_polynomial_past_q_power(self, f, n):
        fh = substitute_poly(f, H)
        qn = WeylElement({(0, n): 1})
        assert mul(fh, qn) == mul(qn, substitute_poly(f, H + n * ONE))


class TestOmega:
    def test_generators(self):
        assert omega(P) == -Q
        assert omega(Q) == P

    def test_h(self):
        assert omega(H) == ONE - H

    def test_q_squared(self):
        assert omega(power(Q, 2)) == power(P, 2)

    def test_double_application_flips_signs(self):
        x = SHOWCASE
        flipped = WeylElement({(i, j): (-1) ** (i + j) * c for (i, j), c in x.terms().items()})
        assert omega(omega(x)) == flipped

    @settings(max_examples=80, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=3), weyl_elements(max_exp=3, max_terms=3))
    def test_multiplicative(self, x, y):
        assert omega(mul(x, y)) == mul(omega(x), omega(y))

    @settings(max_examples=80, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=3), weyl_elements(max_exp=3, max_terms=3))
    def test_preserves_commutators(self, x, y):
        assert omega(commutator(x, y)) == commutator(omega(x), omega(y))

    def test_swaps_grades(self):
        span = grade_span(omega(SHOWCASE))
        assert (span.min_grade, span.max_grade) == (-3, 4)

    @settings(max_examples=80, deadline=None)
    @given(weyl_elements(max_exp=4, max_terms=5, fractional=True))
    def test_matches_single_swap_rewriting(self, x):
        assert omega(x) == naive_omega(x)


class TestExpAd:
    def test_linear_q_shifts_p(self):
        lam = Fraction(5, 3)
        out = exp_ad(Q.scale(lam), P)
        assert out == P - WeylElement.monomial(0, 0, lam)
        assert out == series_exp_ad(Q.scale(lam), P)

    def test_cubic_q_adds_square(self):
        g = WeylElement.monomial(0, 3, Fraction(-1, 3))
        out = exp_ad(g, P)
        assert out == P + power(Q, 2)
        assert out == series_exp_ad(g, P)

    @settings(max_examples=60, deadline=None)
    @given(
        st.booleans(),
        st.dictionaries(st.integers(0, 3), coefficients(fractional=True), min_size=1, max_size=3),
        weyl_elements(max_exp=3, max_terms=4, fractional=True),
    )
    def test_matches_series_on_fractional_elements(self, on_q, coeffs, x):
        # the series runs over one running denominator built from both
        # operands' denominators, so both carry fractions here
        g = WeylElement({(0, k) if on_q else (k, 0): c for k, c in coeffs.items()})
        assert exp_ad(g, x) == series_exp_ad(g, x)

    @settings(max_examples=40, deadline=None)
    @given(
        st.booleans(),
        st.dictionaries(st.integers(0, 4), coefficients(fractional=True), min_size=1, max_size=4),
        weyl_elements(max_exp=6, max_terms=5, fractional=True),
    )
    def test_matches_series_on_deep_elements(self, on_q, coeffs, x):
        # x up to p^6 q^6 reaches b_6 of the Bell table, g of degree 4 on either axis
        g = WeylElement({(0, k) if on_q else (k, 0): c for k, c in coeffs.items()})
        assert exp_ad(g, x) == series_exp_ad(g, x)

    Q_POLYS = [
        WeylElement.monomial(0, 2, 1),
        WeylElement({(0, 3): Fraction(-1, 3), (0, 1): 2}),
        WeylElement({(0, 4): Fraction(5, 2), (0, 2): -1, (0, 0): 7}),
    ]

    @pytest.mark.parametrize("g", Q_POLYS, ids=str)
    def test_p_squared_gains_the_second_derivative(self, g):
        # the symbol (p - g')^2 + g'': putting p - g' into the symbol p^2
        # alone would miss g'', which the k = 2 term B_2 = g'' + g'^2 adds
        d1, d2 = derivative(g), derivative(derivative(g))
        assert not d2.is_zero()
        expected = power(P, 2) - mul(P, d1).scale(2) + mul(d1, d1) + d2
        assert exp_ad(g, power(P, 2)) == expected == power(P - d1, 2)

    P_POLYS = [
        WeylElement.monomial(2, 0, -1),
        WeylElement({(3, 0): Fraction(2, 3), (0, 0): -1}),
        WeylElement({(4, 0): Fraction(-1, 4), (1, 0): 3}),
    ]

    @pytest.mark.parametrize("g", P_POLYS, ids=str)
    def test_q_squared_loses_the_second_derivative(self, g):
        # the mirror, g in Q[p]: the symbol (q + g')^2 - g''
        d1, d2 = derivative(g), derivative(derivative(g))
        assert not d2.is_zero()
        expected = power(Q, 2) + mul(d1, Q).scale(2) + mul(d1, d1) - d2
        assert exp_ad(g, power(Q, 2)) == expected == power(Q + d1, 2)

    def test_fixes_q_for_any_q_polynomial(self):
        g = WeylElement({(0, 4): 2, (0, 1): -7, (0, 0): 3})
        assert exp_ad(g, Q) == Q

    def test_mixed_support_rejected(self):
        with pytest.raises(ValueError, match="single-generator polynomial"):
            exp_ad(H, P)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(0, 3),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        weyl_elements(max_exp=2, max_terms=3),
        weyl_elements(max_exp=2, max_terms=3),
    )
    def test_preserves_commutators(self, axis, coeffs, x, y):
        terms = {(0, k) if axis % 2 else (k, 0): c for k, c in enumerate(coeffs) if c}
        g = WeylElement(terms)
        lhs = exp_ad(g, commutator(x, y))
        rhs = commutator(exp_ad(g, x), exp_ad(g, y))
        assert lhs == rhs

    @settings(max_examples=40, deadline=None)
    @given(weyl_elements(max_exp=2, max_terms=3), weyl_elements(max_exp=2, max_terms=3))
    def test_multiplicative_for_p_cubed(self, x, y):
        g = WeylElement.monomial(3, 0, Fraction(1, 2))
        assert exp_ad(g, mul(x, y)) == mul(exp_ad(g, x), exp_ad(g, y))


class TestExpAdAgainstSeries:
    """exp_ad sums the commutative symbol formula; the series
    sum_k (ad g)^k x / k! is the definition it must agree with."""

    CASES = [
        WeylElement.zero(),
        ONE,
        P,
        Q,
        SHOWCASE,
        WeylElement({(3, 2): 1, (0, 1): 1}),  # p^3*q^2 + q: rows 1, 2 and 0, 1 missing
        WeylElement({(2, 3): Fraction(1, 2), (1, 0): -3}),
        WeylElement({(0, 4): Fraction(2, 3), (0, 1): 1, (0, 0): 5}),  # only q
        WeylElement({(3, 0): Fraction(-1, 4), (1, 0): 2}),  # only p
    ]
    GENERATORS = [
        WeylElement.zero(),
        WeylElement.monomial(0, 0, Fraction(7, 3)),
        WeylElement({(0, 1): Fraction(-2, 5), (0, 0): 1}),
        WeylElement({(1, 0): Fraction(3, 2), (0, 0): -4}),
        WeylElement({(0, 3): Fraction(1, 3), (0, 1): 2}),
        WeylElement({(2, 0): Fraction(-1, 2), (1, 0): 1}),
    ]

    @pytest.mark.parametrize("g", GENERATORS, ids=str)
    @pytest.mark.parametrize("x", CASES, ids=str)
    def test_matches_series(self, g, x):
        assert exp_ad(g, x) == series_exp_ad(g, x)

    def test_makes_no_weyl_product(self, monkeypatch):
        def forbidden(xs, ys):
            raise AssertionError("exp_ad called mul_numerators")

        outs = {}
        with monkeypatch.context() as m:
            m.setattr(weylkit.element, "mul_numerators", forbidden)
            m.setattr(weylkit.grading, "mul_numerators", forbidden)
            for g in self.GENERATORS:
                for x in self.CASES:
                    outs[g, x] = exp_ad(g, x)
        for (g, x), out in outs.items():
            assert out == series_exp_ad(g, x)

    @pytest.mark.parametrize("g", GENERATORS[:2], ids=str)
    @pytest.mark.parametrize("x", CASES, ids=str)
    def test_zero_and_constant_g_fix_everything(self, g, x):
        assert exp_ad(g, x) == x

    def test_fixed_generator_only(self):
        g = WeylElement({(0, 2): 3, (0, 1): -1})
        x = WeylElement({(0, 4): Fraction(2, 3), (0, 1): 1})
        assert exp_ad(g, x) == x
        g = WeylElement({(3, 0): Fraction(1, 2)})
        x = WeylElement({(3, 0): Fraction(-1, 4), (1, 0): 2})
        assert exp_ad(g, x) == x

    def test_rows_with_gaps(self):
        # p -> p - 2q under g = q^2; rows p^3 q^2 and q skip the powers 0, 1, 2 of p
        x = WeylElement({(3, 2): 1, (0, 1): 1})
        g = power(Q, 2)
        shifted = P - Q.scale(2)
        assert exp_ad(g, x) == mul(power(shifted, 3), power(Q, 2)) + Q
        assert exp_ad(g, x) == series_exp_ad(g, x)

    @settings(max_examples=60, deadline=None)
    @given(tame_words(), weyl_elements(max_exp=2, max_terms=3, fractional=True))
    def test_words_match_series(self, word, x):
        expected = x
        for g in word:
            expected = omega(expected) if g == "omega" else series_exp_ad(g, expected)
        assert apply_word(word, x) == expected
