"""The shared sparse-map value type behind WeylElement and BiPoly: the two
agree on every operation they share, never mix, and only WeylElement has
a product; the commutative product of BiPoly is tests/oracles.py's."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from weylkit import BiPoly, WeylElement

from oracles import poly_pow, swap_vars
from strategies import coefficients, exponent_pairs

term_maps = st.dictionaries(
    exponent_pairs(max_exp=4),
    st.one_of(st.just(Fraction(0)), coefficients(fractional=True)),
    max_size=5,
)


class TestSharedArithmetic:
    @settings(max_examples=150, deadline=None)
    @given(term_maps, term_maps, coefficients(fractional=True) | st.just(Fraction(0)))
    def test_same_terms_as_weyl_elements(self, s, t, c):
        bs, bt = BiPoly(s), BiPoly(t)
        ws, wt = WeylElement(s), WeylElement(t)
        assert bs.terms() == ws.terms()
        assert (bs + bt).terms() == (ws + wt).terms()
        assert (bs - bt).terms() == (ws - wt).terms()
        assert (-bs).terms() == (-ws).terms()
        assert bs.scale(c).terms() == ws.scale(c).terms()
        assert (c * bs).terms() == (c * ws).terms() == (ws * c).terms()

    @settings(max_examples=100, deadline=None)
    @given(term_maps)
    def test_printers_differ_only_in_variable_names(self, t):
        expected = str(WeylElement(t)).replace("p", "X").replace("q", "Y")
        assert str(BiPoly(t)) == expected
        assert repr(BiPoly(t)) == f"BiPoly({expected!r})"


class TestTypesDoNotMix:
    @settings(max_examples=100, deadline=None)
    @given(term_maps)
    def test_unequal_across_types(self, t):
        assert BiPoly(t) != WeylElement(t)
        assert WeylElement(t) != BiPoly(t)

    def test_addition_across_types_raises(self):
        t = {(1, 0): 1, (0, 2): Fraction(1, 2)}
        with pytest.raises(TypeError):
            BiPoly(t) + WeylElement(t)
        with pytest.raises(TypeError):
            WeylElement(t) - BiPoly(t)

    def test_product_across_types_raises(self):
        with pytest.raises(TypeError):
            BiPoly({(1, 0): 1}) * WeylElement({(1, 0): 1})


class TestHash:
    @settings(max_examples=150, deadline=None)
    @given(term_maps, term_maps)
    def test_hash_agrees_with_equality(self, s, t):
        for cls in (BiPoly, WeylElement):
            a, b = cls(s), cls(t)
            if a == b:
                assert hash(a) == hash(b)
            # the cached hash stays the same
            assert hash(a) == hash(cls(s))

    def test_equal_values_built_differently(self):
        for cls in (BiPoly, WeylElement):
            a = cls({(1, 1): 2, (0, 0): 0})
            b = cls.monomial(1, 1, 1) + cls.monomial(1, 1, 1)
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1


class TestBiPolyValueType:
    def test_rejects_attribute_assignment(self):
        f = BiPoly({(1, 0): 1})
        with pytest.raises(AttributeError):
            f._nums = {}
        with pytest.raises(AttributeError):
            f.extra = 1

    def test_rejects_negative_power(self):
        with pytest.raises(ValueError):
            poly_pow(BiPoly({(1, 0): 1}), -1)

    def test_power_is_commutative(self):
        f = BiPoly({(1, 0): 1, (0, 1): 1})
        assert poly_pow(f, 0) == BiPoly.one()
        assert poly_pow(f, 2) == BiPoly({(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            BiPoly({(-1, 0): 1})
        with pytest.raises(TypeError):
            BiPoly({(1, 0): 0.5})

    def test_swap_vars(self):
        assert swap_vars(BiPoly({(2, 1): 3})) == BiPoly({(1, 2): 3})
