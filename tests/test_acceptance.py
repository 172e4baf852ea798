"""End-to-end acceptance suite.

One test per acceptance criterion; each prints a PASS line when its checks
go through (run with -s to see them).  Every comparison is exact rational
equality; there are no tolerances anywhere.
"""

import random
from fractions import Fraction
from math import gcd

from weylkit import (
    H,
    ONE,
    P,
    Q,
    Outcome,
    RuleId,
    Weight,
    WeylElement,
    analyze,
    commutator,
    edges,
    exp_ad,
    find_witness_box,
    mul,
    normalize_qp,
    omega,
    power,
    power_index,
    verify_witness,
    weight_polynomial,
)
from weylkit.polygon import exposed_face
from weylkit.polynomials import UniPoly

from oracles import leading_split, poly_mul, power_proportional, rewrite_normal_qp, substitute_poly

SHOWCASE = WeylElement({(4, 0): 1, (3, 1): 1, (2, 2): 1, (0, 3): 1, (0, 1): 1})


def _random_element(rng, max_exp=4, max_terms=5, coeff=9):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff, coeff)
        if c:
            terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = c
    return WeylElement(terms)


def test_criterion_1_worked_polygon_example():
    profile = edges(SHOWCASE)
    assert [e.weight for e in profile.edges] == [Weight(1, 2), Weight(1, 1)]
    by_weight = {e.weight: e.support for e in profile.edges}
    assert by_weight[Weight(1, 1)] == {(4, 0), (3, 1), (2, 2)}
    assert by_weight[Weight(1, 2)] == {(2, 2), (0, 3)}
    assert [v.point for v in profile.vertices] == [(2, 2)]
    assert profile.vertices[0].separating_weight == Weight(2, 3)

    no_edges = WeylElement({(2, 2): 1, (1, 1): 1, (0, 0): 1})
    assert edges(no_edges).edges == ()
    print("criterion 1: PASS — two-edge example and edgeless example reproduced exactly")


def test_criterion_2_normal_ordering_oracle():
    for m in range(7):
        for n in range(7):
            assert normalize_qp(m, n) == rewrite_normal_qp(m, n), (m, n)
    print("criterion 2: PASS — normalize_qp matches the single-swap rewrite oracle on all 49 cases")


def test_criterion_3_weighted_degree_multiplicativity():
    weights = [Weight(1, 1), Weight(1, 2), Weight(2, 1), Weight(1, 3), Weight(3, 2)]
    rng = random.Random(2024)
    pairs = 0
    while pairs < 100:
        x = _random_element(rng, max_exp=3, max_terms=4)
        y = _random_element(rng, max_exp=3, max_terms=4)
        if x.is_zero() or y.is_zero():
            continue
        xy = mul(x, y)
        for w in weights:
            v = exposed_face(x.support(), w)[0] + exposed_face(y.support(), w)[0]
            assert exposed_face(xy.support(), w)[0] == v
            assert weight_polynomial(xy, w) == poly_mul(weight_polynomial(x, w), weight_polynomial(y, w))
        pairs += 1
    print(f"criterion 3: PASS — degree additivity and polynomial multiplicativity on {pairs} pairs x 5 weights")


def test_criterion_4_structure_identities():
    assert commutator(H, P) == -P
    assert commutator(H, Q) == Q
    assert omega(H) == ONE - H

    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 6))]
        f = UniPoly(coeffs)
        if f.is_zero():
            continue
        fh = substitute_poly(f, H)
        for n in range(5):
            pn = WeylElement({(n, 0): 1})
            qn = WeylElement({(0, n): 1})
            assert mul(fh, pn) == mul(pn, substitute_poly(f, H - n * ONE))
            assert mul(fh, qn) == mul(qn, substitute_poly(f, H + n * ONE))
        checked += 1
    assert checked >= 30
    print(f"criterion 4: PASS — bracket/omega identities and shift identities for {checked} polynomials, n <= 4")


def _soundness_corpus():
    rng = random.Random(31415)
    corpus = [
        H,
        power(H, 2),
        power(Q, 3),
        P + power(Q, 2),
        WeylElement({(0, 1): 3, (0, 0): 5}),
    ]
    for d in range(2, 7):
        corpus.append(WeylElement({(0, j): rng.randint(1, 9) for j in range(d + 1)}))
    while len(corpus) < 200:
        x = _random_element(rng, max_exp=4, max_terms=5)
        if not x.is_zero():
            corpus.append(x)
    return corpus


def test_criterion_5_verdict_soundness_vs_oracle():
    unsolvable = solvable = unknown = 0
    for x in _soundness_corpus():
        verdict = analyze(x, box=4)
        if verdict.outcome == Outcome.UNSOLVABLE:
            assert find_witness_box(x, 4) is None, str(x)
            unsolvable += 1
        elif verdict.outcome == Outcome.SOLVABLE:
            assert verdict.witness is not None
            assert commutator(x, verdict.witness) == ONE, str(x)
            solvable += 1
        else:
            unknown += 1
    assert unsolvable + solvable + unknown == 200
    print(
        "criterion 5: PASS — 200-element corpus: "
        f"{unsolvable} unsolvable (box-confirmed), {solvable} solvable (witness-verified), {unknown} unknown"
    )


def test_criterion_6_rule_specific_certifications():
    v = analyze(H)
    assert v.outcome == Outcome.UNSOLVABLE
    assert v.reasons[0].rule == RuleId.AXIS_POWER_INDEX_ONE
    assert v.reasons[0].params["weight"] == "(1,1)"
    assert power_index(weight_polynomial(H, Weight(1, 1)), Weight(1, 1)) == 1

    for d in range(2, 7):
        v = analyze(power(Q, d))
        assert v.outcome == Outcome.UNSOLVABLE
        assert v.reasons[0].rule in (RuleId.LOW_GRADE_BAND, RuleId.POLYNOMIAL_IN_GENERATOR)

    rng = random.Random(99)
    affine_checked = 0
    while affine_checked < 20:
        alpha = Fraction(rng.choice([c for c in range(-9, 10) if c]), rng.randint(1, 3))
        g_terms = {(0, j): rng.randint(-9, 9) for j in range(rng.randint(0, 6))}
        x = WeylElement({(1, 0): alpha}) + WeylElement({k: c for k, c in g_terms.items() if c})
        v = analyze(x)
        assert v.outcome == Outcome.SOLVABLE
        assert v.witness == WeylElement({(0, 1): 1 / alpha})
        affine_checked += 1

    non_axis = WeylElement({(3, 1): 1, (0, 3): 1})
    v = analyze(non_axis)
    assert v.outcome == Outcome.UNSOLVABLE
    assert v.reasons[0].rule == RuleId.NON_AXIS_EDGE
    print(
        "criterion 6: PASS — h via power index 1 at (1,1); q^d via band/generator rules; "
        f"{affine_checked} affine families solved with witness 1/a * q; non-axis edge fired"
    )


def test_criterion_7_coprime_edge_power_indices():
    # u carries the axis edge at (2,1); w adds a (1,1) edge whose power
    # index 3 is coprime to u^2's index 2
    u = WeylElement({(3, 3): 1, (4, 1): 1})
    w = WeylElement({(3, 9): 1, (4, 8): 3, (5, 7): 3})
    x = power(u, 2) + w

    profile = edges(x)
    assert [e.weight for e in profile.edges] == [Weight(1, 1), Weight(2, 1)]
    indices = [power_index(e.polynomial, e.weight) for e in profile.edges]
    assert sorted(indices) == [2, 3]
    assert gcd(*indices) == 1

    verdict = analyze(x, box=4)
    assert verdict.outcome == Outcome.UNSOLVABLE
    assert verdict.reasons[0].rule == RuleId.EDGE_GCD_ONE
    assert find_witness_box(x, 4) is None
    print("criterion 7: PASS — two axis edges with power indices 2 and 3: rule fired, box-4 search empty")


def test_criterion_8_leading_split_contract():
    weights = [Weight(1, 1), Weight(1, 2), Weight(2, 1), Weight(3, 2)]
    rng = random.Random(5150)
    pairs = 0
    while pairs < 100:
        x = _random_element(rng, max_exp=3, max_terms=4)
        y = _random_element(rng, max_exp=3, max_terms=4)
        if x.is_zero() or y.is_zero():
            continue
        if pairs % 4 == 0:
            y = mul(x, x)  # force a power-proportional (vanishing) instance
        w = weights[pairs % len(weights)]
        threshold = exposed_face(x.support(), w)[0] + exposed_face(y.support(), w)[0] - (w.rho + w.sigma)
        t, u = leading_split(x, y, w)
        assert t + u == commutator(x, y)
        assert u.is_zero() or exposed_face(u.support(), w)[0] < threshold
        if not t.is_zero():
            assert exposed_face(t.support(), w) == (threshold, t.support())
        assert t.is_zero() == power_proportional(x, y, w)
        pairs += 1
    print(f"criterion 8: PASS — split contract and vanishing criterion on {pairs} pairs")


def test_criterion_9_automorphism_transport():
    rng = random.Random(4242)
    solvable_pairs = [
        (P + power(Q, 2), Q),
        (WeylElement({(0, 1): 2, (0, 0): -1}), WeylElement({(1, 0): Fraction(-1, 2)})),
    ]
    for x, y in solvable_pairs:
        assert verify_witness(x, y)
    transported = 0
    while transported < 20:
        axis = rng.choice(["p", "q"])
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3))]
        terms = {
            (k + 1, 0) if axis == "p" else (0, k + 1): c
            for k, c in enumerate(coeffs)
            if c
        }
        g = WeylElement(terms)
        x, y = solvable_pairs[transported % len(solvable_pairs)]
        gx, gy = exp_ad(g, x), exp_ad(g, y)
        assert verify_witness(gx, gy)
        assert exp_ad(g, commutator(x, y)) == commutator(gx, gy)
        transported += 1
    print(f"criterion 9: PASS — witnesses transported through {transported} exp-ad automorphisms")
