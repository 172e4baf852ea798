"""Support geometry: weighted degrees, edges, vertices, leading splits."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from weylkit import (
    BiPoly,
    P,
    Q,
    Weight,
    WeylElement,
    commutator,
    edges,
    mul,
    power,
    separating_weight,
    verify_witness,
    weight_polynomial,
    witness_for_affine,
)
from weylkit.polygon import exposed_face, frontier

from oracles import all_coprime_weights, leading_split, poly_mul, power_proportional, reference_edges
from strategies import apply_word, exponent_pairs, homogeneous_elements, tame_words, weyl_elements, weights

SHOWCASE = WeylElement({(4, 0): 1, (3, 1): 1, (2, 2): 1, (0, 3): 1, (0, 1): 1})
NO_EDGES = WeylElement({(2, 2): 1, (1, 1): 1, (0, 0): 1})


def slope(w: Weight) -> Fraction:
    return Fraction(w.rho, w.sigma)


class TestWeight:
    def test_coprime_required(self):
        with pytest.raises(ValueError):
            Weight(2, 4)

    def test_positive_required(self):
        with pytest.raises(ValueError):
            Weight(0, 1)

    def test_axis_detection(self):
        assert Weight(3, 1).is_axis()
        assert Weight(1, 7).is_axis()
        assert not Weight(2, 3).is_axis()

    def test_bool_component_stored_as_int(self):
        w = Weight(True, 2)
        assert type(w.rho) is int and type(w.sigma) is int
        assert str(w) == "(1,2)"
        assert w == Weight(1, 2)


class TestSupport:
    def test_zero(self):
        assert WeylElement.zero().support() == frozenset()

    def test_h_plus_one(self):
        assert WeylElement({(1, 1): 1, (0, 0): 1}).support() == {(1, 1), (0, 0)}

    def test_showcase(self):
        assert SHOWCASE.support() == {(4, 0), (3, 1), (2, 2), (0, 3), (0, 1)}


# exposed_face(support, w) is (weighted degree, face): the weighted degree
# and the leading support of an element are read off its support
class TestWeightDegree:
    def test_showcase_balanced(self):
        assert exposed_face(SHOWCASE.support(), Weight(1, 1))[0] == 4

    def test_showcase_q_heavy(self):
        assert exposed_face(SHOWCASE.support(), Weight(1, 2))[0] == 6

    def test_zero_is_bottom(self):
        # below the degree 0 of every constant
        assert exposed_face(WeylElement.zero().support(), Weight(1, 1)) == (-1, frozenset())
        assert exposed_face(WeylElement.zero().support(), Weight(3, 2)) == (-1, frozenset())


class TestWeightSupport:
    def test_showcase_balanced(self):
        assert exposed_face(SHOWCASE.support(), Weight(1, 1))[1] == {(4, 0), (3, 1), (2, 2)}

    def test_showcase_q_heavy(self):
        assert exposed_face(SHOWCASE.support(), Weight(1, 2))[1] == {(2, 2), (0, 3)}

    def test_showcase_vertex(self):
        assert exposed_face(SHOWCASE.support(), Weight(2, 3))[1] == {(2, 2)}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            weight_polynomial(WeylElement.zero(), Weight(1, 1))

    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(max_exp=5, max_terms=5, nonzero=True))
    def test_scaled_weights_agree(self, x):
        # E_{k rho, k sigma} = E_{rho, sigma}: compare against an unreduced scan
        for w, k in ((Weight(1, 1), 3), (Weight(1, 2), 2), (Weight(2, 1), 4)):
            rho, sigma = k * w.rho, k * w.sigma
            best = max(i * rho + j * sigma for i, j in x.support())
            scan = {pt for pt in x.support() if pt[0] * rho + pt[1] * sigma == best}
            assert exposed_face(x.support(), w)[1] == scan


class TestWeightPolynomial:
    def test_h(self):
        assert weight_polynomial(WeylElement({(1, 1): 1}), Weight(1, 1)) == BiPoly({(1, 1): 1})

    def test_showcase_q_heavy(self):
        expected = BiPoly({(2, 2): 1, (0, 3): 1})
        assert weight_polynomial(SHOWCASE, Weight(1, 2)) == expected

    def test_no_edges_element_every_weight(self):
        for w in all_coprime_weights(4):
            assert weight_polynomial(NO_EDGES, w) == BiPoly({(2, 2): 1})

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=4, nonzero=True),
           weyl_elements(max_exp=3, max_terms=4, nonzero=True), weights())
    def test_multiplicative(self, x, y, w):
        lhs = weight_polynomial(mul(x, y), w)
        rhs = poly_mul(weight_polynomial(x, w), weight_polynomial(y, w))
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=4, nonzero=True),
           weyl_elements(max_exp=3, max_terms=4, nonzero=True), weights())
    def test_degree_additive(self, x, y, w):
        v = exposed_face(x.support(), w)[0] + exposed_face(y.support(), w)[0]
        assert exposed_face(mul(x, y).support(), w)[0] == v


class TestSeparatingWeight:
    def test_mediant(self):
        assert separating_weight(Weight(1, 2), Weight(1, 1)) == Weight(2, 3)

    def test_order_insensitive(self):
        assert separating_weight(Weight(1, 1), Weight(1, 2)) == Weight(2, 3)

    def test_reduction(self):
        assert separating_weight(Weight(1, 3), Weight(1, 1)) == Weight(1, 2)

    def test_equal_slopes_rejected(self):
        with pytest.raises(ValueError):
            separating_weight(Weight(1, 1), Weight(1, 1))

    @settings(max_examples=50, deadline=None)
    @given(weights(), weights())
    def test_strictly_between(self, w1, w2):
        if slope(w1) == slope(w2):
            return
        lo, hi = sorted([w1, w2], key=slope)
        mid = separating_weight(lo, hi)
        assert slope(lo) < slope(mid) < slope(hi)


class TestFrontier:
    def test_showcase(self):
        # (0, 1) lies below (0, 3); the other four are maximal
        assert frontier(SHOWCASE.support()) == [(4, 0), (3, 1), (2, 2), (0, 3)]

    def test_empty(self):
        assert frontier([]) == []

    @settings(max_examples=100, deadline=None)
    @given(st.sets(exponent_pairs(max_exp=8), max_size=30))
    def test_exactly_the_undominated_points(self, support):
        maximal = {a for a in support
                   if not any(b != a and b[0] >= a[0] and b[1] >= a[1] for b in support)}
        front = frontier(support)
        assert len(front) == len(maximal) and set(front) == maximal

    @settings(max_examples=100, deadline=None)
    @given(st.sets(exponent_pairs(max_exp=8), max_size=30))
    def test_exposes_every_face_of_the_support(self, support):
        front = frontier(support)
        for w in all_coprime_weights(8):
            assert exposed_face(front, w) == exposed_face(support, w)


class TestEdges:
    def test_showcase(self):
        profile = edges(SHOWCASE)
        assert [e.weight for e in profile.edges] == [Weight(1, 2), Weight(1, 1)]
        assert profile.edges[0].support == {(2, 2), (0, 3)}
        assert profile.edges[1].support == {(4, 0), (3, 1), (2, 2)}
        assert [v.point for v in profile.vertices] == [(2, 2)]
        assert profile.vertices[0].separating_weight == Weight(2, 3)

    def test_diagonal_support_has_no_edges(self):
        profile = edges(NO_EDGES)
        assert profile.edges == ()
        assert profile.vertices == ()

    def test_collinear_run_hidden_by_a_later_point(self):
        # (1,5) sits on the line from (0,6) to (2,4), and (4,3) then lies
        # above that line, so the chain pops both (2,4) and (1,5)
        x = WeylElement({(0, 6): 1, (1, 5): 1, (2, 4): 1, (4, 3): 1})  # q^6 + p*q^5 + p^2*q^4 + p^4*q^3
        profile = edges(x)
        assert [(e.weight, e.support, e.degree) for e in profile.edges] == [
            (Weight(3, 4), {(0, 6), (4, 3)}, 24)
        ]
        assert profile.vertices == ()
        assert profile == reference_edges(x)

    def test_later_point_pops_two(self):
        # (10,0) turns left at (2,7), then runs straight on from (0,10)
        # through (1,9), so one point pops two and the edge keeps (1,9)
        x = WeylElement({(0, 10): 1, (1, 9): 1, (2, 7): 1, (10, 0): 1})
        profile = edges(x)
        assert [(e.weight, e.support, e.degree) for e in profile.edges] == [
            (Weight(1, 1), {(0, 10), (1, 9), (10, 0)}, 10)
        ]
        assert profile == reference_edges(x)

    def test_single_monomial_has_no_edges(self):
        assert edges(power(Q, 5)).edges == ()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            edges(WeylElement.zero())

    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(max_exp=8, max_terms=6, nonzero=True))
    def test_matches_exhaustive_weight_scan(self, x):
        enumerated = [e.weight for e in edges(x).edges]
        scanned = [
            w for w in all_coprime_weights(12)
            if len(exposed_face(x.support(), w)[1]) >= 2
        ]
        assert enumerated == sorted(scanned, key=slope)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(
        weyl_elements(max_exp=8, max_terms=16, nonzero=True, fractional=True),
        # automorphism images have wide supports whose frontier is small
        st.builds(apply_word, tame_words(), weyl_elements(max_exp=3, max_terms=4, nonzero=True)),
    ))
    def test_matches_hull_of_whole_support(self, x):
        assert edges(x) == reference_edges(x)

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=6, max_terms=6, nonzero=True))
    def test_distinct_edges_share_at_most_one_point(self, x):
        profile = edges(x)
        for a in range(len(profile.edges)):
            for b in range(a + 1, len(profile.edges)):
                shared = profile.edges[a].support & profile.edges[b].support
                assert len(shared) <= 1

    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(max_exp=6, max_terms=6, nonzero=True))
    def test_each_edge_has_at_least_two_points(self, x):
        for e in edges(x).edges:
            assert len(e.support) >= 2
            assert e.degree == exposed_face(x.support(), e.weight)[0]


class TestLeadingSplit:
    def test_squares(self):
        t, u = leading_split(power(Q, 2), power(P, 2), Weight(1, 1))
        assert t == WeylElement({(1, 1): -4})
        assert u == WeylElement({(0, 0): 2})

    def test_generators(self):
        t, u = leading_split(P, Q, Weight(1, 1))
        assert t == WeylElement.one()
        assert u.is_zero()

    def test_self_bracket(self):
        x = SHOWCASE
        t, u = leading_split(x, x, Weight(1, 2))
        assert t.is_zero() and u.is_zero()

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=4, nonzero=True),
           weyl_elements(max_exp=3, max_terms=4, nonzero=True), weights())
    def test_contract(self, x, y, w):
        threshold = exposed_face(x.support(), w)[0] + exposed_face(y.support(), w)[0] - (w.rho + w.sigma)
        t, u = leading_split(x, y, w)
        assert t + u == commutator(x, y)
        if not t.is_zero():
            assert exposed_face(t.support(), w) == (threshold, t.support())
        assert u.is_zero() or exposed_face(u.support(), w)[0] < threshold

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=3, nonzero=True),
           weyl_elements(max_exp=3, max_terms=3, nonzero=True), weights())
    def test_vanishing_iff_power_proportional(self, x, y, w):
        t, _u = leading_split(x, y, w)
        assert t.is_zero() == power_proportional(x, y, w)

    @settings(max_examples=30, deadline=None)
    @given(weyl_elements(max_exp=2, max_terms=3, nonzero=True))
    def test_vanishes_on_proportional_construction(self, x):
        # y = x^2 has power-proportional leading polynomials with x
        y = mul(x, x)
        for w in (Weight(1, 1), Weight(1, 2)):
            assert power_proportional(x, y, w)
            t, _ = leading_split(x, y, w)
            assert t.is_zero()

    def test_vanishes_for_witness_pairs(self):
        # when [x, y] = 1 and the weighted degree clears rho + sigma the
        # leading part is forced to cancel
        for x in (P + power(Q, 2), WeylElement({(1, 0): 2, (0, 3): 5, (0, 0): 1})):
            y = witness_for_affine(x)
            assert y is not None and verify_witness(x, y)
            for w in (Weight(2, 1), Weight(3, 1)):
                if exposed_face(x.support(), w)[0] >= w.rho + w.sigma:
                    t, _ = leading_split(x, y, w)
                    assert t.is_zero()

    @settings(max_examples=60, deadline=None)
    @given(
        homogeneous_elements(grade=2),
        homogeneous_elements(grade=-1),
    )
    def test_nonzero_homogeneous_brackets(self, x, y):
        # [x, y] never vanishes for nonzero homogeneous x, y of strictly
        # positive and strictly negative grade
        assert not commutator(x, y).is_zero()
