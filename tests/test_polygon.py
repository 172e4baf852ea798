"""Support geometry: weighted degrees, edges, vertices, leading splits."""

import pytest
from hypothesis import given, settings

from weylkit import (
    BiPoly,
    NEG_INF,
    P,
    Q,
    Weight,
    WeylElement,
    commutator,
    edges,
    leading_split,
    mul,
    power,
    separating_weight,
    verify_witness,
    weight_degree,
    weight_polynomial,
    weight_support,
    witness_for_affine,
)

from oracles import all_coprime_weights, power_proportional
from strategies import homogeneous_elements, weyl_elements, weights

SHOWCASE = WeylElement({(4, 0): 1, (3, 1): 1, (2, 2): 1, (0, 3): 1, (0, 1): 1})
NO_EDGES = WeylElement({(2, 2): 1, (1, 1): 1, (0, 0): 1})


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


class TestSupport:
    def test_zero(self):
        assert WeylElement.zero().support() == frozenset()

    def test_h_plus_one(self):
        assert WeylElement({(1, 1): 1, (0, 0): 1}).support() == {(1, 1), (0, 0)}

    def test_showcase(self):
        assert SHOWCASE.support() == {(4, 0), (3, 1), (2, 2), (0, 3), (0, 1)}


class TestWeightDegree:
    def test_showcase_balanced(self):
        assert weight_degree(SHOWCASE, Weight(1, 1)) == 4

    def test_showcase_q_heavy(self):
        assert weight_degree(SHOWCASE, Weight(1, 2)) == 6

    def test_zero_is_bottom(self):
        assert weight_degree(WeylElement.zero(), Weight(1, 1)) == NEG_INF
        assert weight_degree(WeylElement.zero(), Weight(3, 2)) < -(10 ** 9)


class TestWeightSupport:
    def test_showcase_balanced(self):
        assert weight_support(SHOWCASE, Weight(1, 1)) == {(4, 0), (3, 1), (2, 2)}

    def test_showcase_q_heavy(self):
        assert weight_support(SHOWCASE, Weight(1, 2)) == {(2, 2), (0, 3)}

    def test_showcase_vertex(self):
        assert weight_support(SHOWCASE, Weight(2, 3)) == {(2, 2)}

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            weight_support(WeylElement.zero(), Weight(1, 1))

    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(max_exp=5, max_terms=5, nonzero=True))
    def test_scaled_weights_agree(self, x):
        # E_{k rho, k sigma} = E_{rho, sigma}: compare against an unreduced scan
        for w, k in ((Weight(1, 1), 3), (Weight(1, 2), 2), (Weight(2, 1), 4)):
            rho, sigma = k * w.rho, k * w.sigma
            best = max(i * rho + j * sigma for i, j in x.support())
            scan = {pt for pt in x.support() if pt[0] * rho + pt[1] * sigma == best}
            assert weight_support(x, w) == scan


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
        rhs = weight_polynomial(x, w) * weight_polynomial(y, w)
        assert lhs == rhs

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=4, nonzero=True),
           weyl_elements(max_exp=3, max_terms=4, nonzero=True), weights())
    def test_degree_additive(self, x, y, w):
        assert weight_degree(mul(x, y), w) == weight_degree(x, w) + weight_degree(y, w)


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
        if w1.ratio() == w2.ratio():
            return
        lo, hi = sorted([w1, w2], key=Weight.ratio)
        mid = separating_weight(lo, hi)
        assert lo.ratio() < mid.ratio() < hi.ratio()


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
            if len(weight_support(x, w)) >= 2
        ]
        assert enumerated == sorted(scanned, key=Weight.ratio)

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
            assert e.degree == weight_degree(x, e.weight)


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
        threshold = weight_degree(x, w) + weight_degree(y, w) - (w.rho + w.sigma)
        t, u = leading_split(x, y, w)
        assert t + u == commutator(x, y)
        if not t.is_zero():
            degrees = {w.degree_of(pt) for pt in t.support()}
            assert degrees == {threshold}
        assert weight_degree(u, w) < threshold

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
                if weight_degree(x, w) >= w.rho + w.sigma:
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
