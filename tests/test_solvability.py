"""Decision ladder, witnesses, and the box oracle."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import assume, example, given, settings

from weylkit import (
    H,
    ONE,
    P,
    Q,
    ElementProfile,
    Outcome,
    RuleId,
    WeylElement,
    analyze,
    edges,
    element_from_string,
    exp_ad,
    find_witness_box,
    grade_span,
    mul,
    omega,
    power,
    power_index,
    to_h_form,
    verify_witness,
    weight_degree,
    weight_polynomial,
    witness_for_affine,
)
from weylkit import solvability
from weylkit.cli import build_report

from oracles import all_coprime_weights, naive_box_witness, naive_solve, reference_bracket, reference_box_rows
from test_golden import corpus_inputs
from strategies import apply_word, coefficients, homogeneous_elements, tame_words, weyl_elements


def rules_of(verdict):
    return [cit.rule for cit in verdict.reasons]


def W(terms):
    return WeylElement(terms)


class TestVerifyWitness:
    def test_generators_reversed(self):
        assert verify_witness(Q, -P)

    def test_defining_pair(self):
        assert verify_witness(P, Q)

    def test_h_and_q(self):
        assert not verify_witness(H, Q)


class TestWitnessForAffine:
    def test_p_plus_q_squared(self):
        assert witness_for_affine(P + power(Q, 2)) == Q

    def test_scaled_q_with_constant(self):
        x = W({(0, 1): 3, (0, 0): 5})
        assert witness_for_affine(x) == W({(1, 0): Fraction(-1, 3)})

    def test_not_in_family(self):
        assert witness_for_affine(power(Q, 2)) is None

    def test_mirror_shape(self):
        x = W({(0, 1): 2, (3, 0): 1, (0, 0): -4})
        y = witness_for_affine(x)
        assert y == W({(1, 0): Fraction(-1, 2)})
        assert verify_witness(x, y)

    def test_random_family_members(self):
        rng = random.Random(11)
        for _ in range(25):
            alpha = Fraction(rng.choice([c for c in range(-9, 10) if c]),
                             rng.randint(1, 3))
            g_terms = {(0, j): rng.randint(-9, 9) for j in range(rng.randint(0, 5))}
            x = W({(1, 0): alpha}) + W({k: v for k, v in g_terms.items() if v})
            y = witness_for_affine(x)
            assert y == W({(0, 1): 1 / alpha})
            assert verify_witness(x, y)


def dominates_unit(x):
    return ElementProfile(x).dominates_unit


class TestDominatesUnit:
    def test_h(self):
        assert dominates_unit(H)

    def test_q_alone(self):
        assert not dominates_unit(Q)

    def test_high_monomial(self):
        assert dominates_unit(W({(2, 3): 1}))

    def test_needs_convex_combination(self):
        # neither support point clears (1,1) alone but the segment does
        assert dominates_unit(W({(3, 0): 1, (0, 3): 1}))

    def test_segment_that_misses(self):
        assert not dominates_unit(W({(2, 0): 1, (0, 1): 1}))

    @settings(max_examples=300, deadline=None)
    @given(weyl_elements(max_exp=5, max_terms=6, nonzero=True))
    # boundary cases: an edge of degree exactly rho + sigma, and (1,1) alone
    @example(W({(2, 0): 1, (0, 2): 1}))
    @example(W({(1, 1): 1}))
    def test_matches_naive_weight_scan(self, x):
        # the minimum of v(w) - (rho + sigma) sits at an edge weight (both
        # components at most the largest exponent) or in a limit direction,
        # which (n,1) and (1,n) reach by n = largest exponent + 2
        max_exp = max(max(pt) for pt in x.support())
        naive = all(
            weight_degree(x, w) >= w.rho + w.sigma
            for w in all_coprime_weights(max_exp + 2)
        )
        assert dominates_unit(x) == naive


class TestFindWitnessBox:
    def test_q_gets_minus_p(self):
        assert find_witness_box(Q, 1) == -P

    def test_h_has_no_witness(self):
        assert find_witness_box(H, 3) is None

    def test_affine_witness_found(self):
        assert find_witness_box(P + power(Q, 2), 2) == Q

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap 8"):
            find_witness_box(Q, 9)
        with pytest.raises(ValueError, match="cap 10"):
            find_witness_box(Q, 11, cap=10)

    def test_analyze_checks_box_before_any_rule(self):
        # q^3 is decided by a structural rule long before the oracle runs
        with pytest.raises(ValueError, match="cap 8"):
            analyze(Q ** 3, box=9)
        with pytest.raises(ValueError, match="nonnegative"):
            analyze(Q ** 3, box=-1)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            find_witness_box(WeylElement.zero(), 2)

    def test_found_witnesses_always_verify(self):
        rng = random.Random(23)
        for _ in range(20):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-5, 5)
                for _ in range(rng.randint(1, 4))
            }
            x = W({k: v for k, v in terms.items() if v})
            if x.is_zero():
                continue
            y = find_witness_box(x, 3)
            if y is not None:
                assert verify_witness(x, y)

    def test_existence_matches_naive_elimination(self):
        # the sparse solver and a plain dense row reduction must return the
        # same witness, not only agree that one exists: both solve on the
        # leftmost independent columns with free variables set to zero.
        # Denominators up to 6 give x a common denominator d that often
        # exceeds the lcm of a single row of the rational system, so the
        # integer rows scaled by d and the right-hand side d are checked
        # against plain rational elimination.
        rng = random.Random(1789)
        agreements = 0
        for _ in range(60):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): Fraction(rng.randint(-6, 6), rng.randint(1, 6))
                for _ in range(rng.randint(1, 4))
            }
            x = W({k: v for k, v in terms.items() if v})
            if x.is_zero():
                continue
            for box in (2, 3):
                assert find_witness_box(x, box) == naive_box_witness(x, box), (str(x), box)
            agreements += 1
        assert agreements >= 50

        # random draws this dense almost never have a witness in the box, so
        # compare found witnesses on x = a q + c u^2 with u = p + b q^2,
        # which [x, -u/a] = -[q, p] = 1 makes solvable at box 2
        def frac():
            return Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6))

        for _ in range(20):
            u = P + frac() * Q ** 2
            x = frac() * Q + frac() * u * u
            y = find_witness_box(x, 2)
            assert y is not None and y == naive_box_witness(x, 2), str(x)

    @pytest.mark.parametrize("text", ["p^3*q^2+q^4+p^2", "(p+q^2)^2", "p+q^2", "h"])
    def test_deep_elements_match_naive_elimination(self, text):
        x = element_from_string(text)
        assert find_witness_box(x, 6) == naive_box_witness(x, 6)


@st.composite
def graded_elements(draw):
    """Nonzero elements whose non-constant terms lie in one grade class
    j - i = r (mod m), with m = 0 meaning the single grade r; fractional
    coefficients and sometimes a constant term."""
    m = draw(st.sampled_from([0, 2, 3]))
    r = draw(st.integers(-3, 3))
    pts = [(i, j) for i in range(5) for j in range(5)
           if (i or j) and ((j - i - r) % m if m else j - i - r) == 0]
    terms = draw(st.dictionaries(st.sampled_from(pts), coefficients(fractional=True), min_size=1, max_size=4))
    if draw(st.booleans()):
        terms[(0, 0)] = draw(coefficients(fractional=True))
    return W(terms)


def without_pure_powers():
    """Nonzero elements with no term p^a or q^a, a >= 1: every term holds
    both generators, or is the constant."""
    return st.dictionaries(
        st.sampled_from([(i, j) for i in range(4) for j in range(4) if i * j or i == j == 0]),
        coefficients(fractional=True), min_size=1, max_size=4,
    ).map(W)


class TestBoxReductions:
    """find_witness_box builds only the grade class of the unit row, and
    builds nothing when no term p^a or q^a with a <= box reaches it."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        weyl_elements(max_exp=3, max_terms=4, nonzero=True, fractional=True),
        graded_elements(),
        st.integers(-2, 2).flatmap(lambda g: homogeneous_elements(g, max_h_degree=2)),
    ))
    def test_dropped_columns_never_meet_kept_rows(self, x):
        box = 3
        _, kept = solvability._box_system(x, box)
        rows = set()
        for i, j in kept:
            rows |= reference_bracket(x, W({(i, j): 1})).support()
        for i in range(box + 1):
            for j in range(box + 1):
                if (i, j) not in kept:
                    support = reference_bracket(x, W({(i, j): 1})).support()
                    assert (0, 0) not in support and not support & rows, (str(x), (i, j))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(
        weyl_elements(max_exp=4, max_terms=5, nonzero=True, fractional=True),
        graded_elements(),
        st.integers(-2, 2).flatmap(lambda g: homogeneous_elements(g, max_h_degree=3)),
    ))
    @example(element_from_string("p + q^2"))
    @example(element_from_string("h"))
    def test_system_matches_reference_brackets(self, x):
        # the shift assembly of each column, and its zero pruning, against
        # brackets built by single-swap products: the same rows in the same
        # order, the same integer entries, no stored zero, no empty row
        for box in range(6):
            rows, columns = solvability._box_system(x, box)
            assert rows == reference_box_rows(x, box, columns), (str(x), box)
            assert all(row and all(row.values()) for row in rows)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(graded_elements(), without_pure_powers()))
    def test_reduced_systems_match_naive_elimination(self, x):
        for box in range(4):
            assert find_witness_box(x, box) == naive_box_witness(x, box), (str(x), box)

    @pytest.mark.parametrize("text", [
        "q", "p", "p + q^2", "p + q^3", "3/2*q - 2/5*(p - 1/3*q^2)^2", "q + p^2 + 2*p^4*q",
        "p^2*q^3 + 7", "h + q - p^2",
    ])
    def test_constructed_elements_match_naive_elimination(self, text):
        x = element_from_string(text)
        for box in range(4):
            assert find_witness_box(x, box) == naive_box_witness(x, box), (text, box)

    def test_edge_cases(self):
        for box in (0, 4):
            assert find_witness_box(W({(0, 0): Fraction(5, 3)}), box) is None
        assert find_witness_box(P, 0) is None
        assert find_witness_box(P, 1) == Q
        assert find_witness_box(Q, 1) == -P
        for x in (H, element_from_string("p^2*q^3")):
            for box in range(4):
                assert find_witness_box(x, box) is None

    def test_kept_columns(self):
        # homogeneous (m = 0): the single grade -g0; p + q^2 (m = 3): the
        # class j - i = 1 (mod 3); p^3*q^2 + q^4 + p^2 (m = 1): every column
        def kept(text, box):
            return solvability._box_system(element_from_string(text), box)[1]

        assert kept("q", 2) == [(1, 0), (2, 1)]
        assert kept("p^2*q^3", 3) == [(1, 0), (2, 1), (3, 2)]
        assert kept("h", 2) == [(0, 0), (1, 1), (2, 2)]
        assert kept("p + q^2", 2) == [(0, 1), (1, 2), (2, 0)]
        assert len(kept("p^3*q^2 + q^4 + p^2", 3)) == 16

    def test_unreachable_unit_builds_nothing(self, monkeypatch):
        def no_build(x, box):
            raise AssertionError(f"built the system of {x} at box {box}")

        monkeypatch.setattr(solvability, "_box_system", no_build)
        for text in ("7", "h", "p^2*q^3 + p*q", "p^5 + q^5 + h"):
            assert find_witness_box(element_from_string(text), 4) is None
        with pytest.raises(AssertionError, match="box 5"):
            find_witness_box(element_from_string("p^5 + q^5 + h"), 5)


# the element of orbit seed 11 whose box-4 system defeats a proof step at
# 2^61 - 1: a kernel certificate has entries beyond sqrt(P/2)
ORBIT_RETRY = (
    "22667121*p^4 - 23652648*p^3*q + 9255384*p^2*q^2 - 1609632*p*q^3 + 104976*q^4"
    " + 36316908*p^3 - 28422342*p^2*q + 7414632*p*q^2 - 644760*q^3 + 57286093*p^2"
    " - 29888728*p*q + 3898573*q^2 + 34238692*p - 8932007*q + 10898078"
)


class TestSparseSolver:
    """naive_solve, the exact reference that _solve is checked against, on
    hand-built systems; the right-hand side of a row sits under the key
    ncols."""

    solve = staticmethod(naive_solve)

    def test_unique_solution(self):
        # x0 + x1 = 3, 2 x0 - 2 x1 = 1
        rows = [{0: 1, 1: 1, 2: 3}, {0: 2, 1: -2, 2: 1}]
        assert self.solve(rows, 2) == {0: Fraction(7, 4), 1: Fraction(5, 4)}

    def test_inconsistent_system(self):
        # x0 + x1 = 1 and 2 x0 + 2 x1 = 3
        rows = [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 3}]
        assert self.solve(rows, 2) is None

    def test_rank_deficient_sets_free_columns_to_zero(self):
        # x0 + x1 + x2 = 4 and x1 + x2 = 1: x2 is free, so 0
        rows = [{0: 1, 1: 1, 2: 1, 3: 4}, {1: 1, 2: 1, 3: 1}]
        assert self.solve(rows, 3) == {0: Fraction(3), 1: Fraction(1)}

    def test_row_with_only_the_right_hand_side(self):
        rows = [{0: 2, 1: 1}, {1: 5}]
        assert self.solve(rows, 1) is None

    def test_zero_right_hand_side(self):
        rows = [{0: 1, 1: -1}, {1: 3}]
        solution = self.solve(rows, 2)
        assert solution is not None and not any(solution.values())

    def test_untouched_column_is_free(self):
        # x0 + x2 = 1 and x2 = 2; column 1 appears in no row
        rows = [{0: 1, 2: 1, 3: 1}, {2: 1, 3: 2}]
        assert self.solve(rows, 3) == {0: Fraction(-1), 2: Fraction(2)}

    def test_cascade_of_one_entry_rows(self):
        # 2 x0 = 0 forces x0 = 0, which leaves 5 x1 = 0, then 4 x2 = 0,
        # then 2 x3 = 6
        rows = [{0: 2}, {0: 3, 1: 5}, {1: 1, 2: 4}, {2: 1, 3: 2, 4: 6}]
        assert self.solve(rows, 4) == {0: 0, 1: 0, 2: 0, 3: Fraction(3)}
        assert rows == [{0: 2}, {0: 3, 1: 5}, {1: 1, 2: 4}, {2: 1, 3: 2, 4: 6}]

    def test_cascade_leaves_only_a_right_hand_side(self):
        # 3 x1 = 0 forces x1 = 0, which leaves 0 = 5
        rows = [{0: 1, 1: 1}, {1: 3}, {1: 2, 2: 5}]
        assert self.solve(rows, 2) is None

    def test_forced_zero_left_of_a_free_column(self):
        # 3 x0 = 0 and x0 + x1 + x2 = 2: x0 is a pivot entry 0, x2 is free
        rows = [{0: 3}, {0: 1, 1: 1, 2: 1, 3: 2}]
        assert self.solve(rows, 3) == {0: 0, 1: Fraction(2)}

    def test_one_entry_row_of_a_prime(self):
        # (2^61 - 1) x0 = 0 forces x0 = 0 over Q, though the row vanishes
        # mod 2^61 - 1
        rows = [{0: 2**61 - 1}, {0: 1, 1: 1, 2: 1}]
        assert self.solve(rows, 2) == {0: 0, 1: Fraction(1)}


class TestModularSolver(TestSparseSolver):
    """_solve: the hand-built systems above, then systems built to defeat a
    proof step at the first prime P = 2^61 - 1, which must certify at
    2^127 - 1 after one retry."""

    solve = staticmethod(solvability._solve)
    PRIME = 2**61 - 1
    NEXT = 2**127 - 1

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        # the primes other than 2^61 - 1 that an elimination ran at
        calls = []
        eliminate = solvability._eliminate

        def counted(rows, ncols, prime):
            if prime != self.PRIME:
                calls.append(prime)
            return eliminate(rows, ncols, prime)

        monkeypatch.setattr(solvability, "_eliminate", counted)
        return calls

    def test_column_of_prime_multiples_is_a_pivot_over_q(self, fallbacks):
        # P x0 + x1 = 1: mod P column 0 vanishes and x1 = 1 solves, but over
        # Q column 0 is the leftmost independent one, so x0 = 1/P
        rows = [{0: self.PRIME, 1: 1, 2: 1}]
        assert self.solve(rows, 2) == {0: Fraction(1, self.PRIME)}
        assert fallbacks == [self.NEXT]

    def test_inconsistent_mod_prime_only(self, fallbacks):
        # P x0 + x1 = 0 and x1 = 1 leave 0 = 1 mod P, yet x0 = -1/P solves
        rows = [{0: self.PRIME, 1: 1}, {1: 1, 2: 1}]
        assert self.solve(rows, 2) == {0: Fraction(-1, self.PRIME), 1: Fraction(1)}
        assert fallbacks == [self.NEXT]

    def test_consistent_mod_prime_only(self, fallbacks):
        # x0 + x1 = 0 and x0 + x1 = P agree mod P but not over Q; no row
        # has one entry, so the peel leaves both to the elimination
        rows = [{0: 1, 1: 1}, {0: 1, 1: 1, 2: self.PRIME}]
        assert self.solve(rows, 2) is None
        assert fallbacks == [self.NEXT]

    def test_peel_decides_without_elimination(self, monkeypatch):
        primes = []
        eliminate = solvability._eliminate
        monkeypatch.setattr(solvability, "_eliminate",
                            lambda rows, ncols, prime: primes.append(prime) or eliminate(rows, ncols, prime))
        assert self.solve([{0: 1, 1: 1}, {1: 3}, {1: 2, 2: 5}], 2) is None
        assert self.solve([{0: 2}, {1: 4}], 1) is None
        assert not primes
        # the row of P is peeled over Q, so the rest certifies at P, no retry
        assert self.solve([{0: 2**61 - 1}, {0: 1, 1: 1, 2: 1}], 2) == {0: 0, 1: 1}
        assert primes == [self.PRIME]

    def test_coefficient_beyond_reconstruction(self, fallbacks):
        big = 2**31 + 1
        assert solvability._reconstruct(big, self.PRIME) is None
        assert solvability._reconstruct(big, self.NEXT) == (big, 1)
        assert self.solve([{0: 1, 1: big}], 1) == {0: Fraction(big)}
        assert fallbacks == [self.NEXT]

    def test_past_the_last_prime(self, monkeypatch):
        monkeypatch.setattr(solvability, "_MERSENNE_EXPONENTS", (61,))
        with pytest.raises(ValueError, match="too large"):
            self.solve([{0: 1, 1: 2**31 + 1}], 1)

    def test_deep_box_systems_certified_without_fallback(self, fallbacks, monkeypatch):
        # the centralizers of these elements meet the box (x, x^2, powers of
        # p + q^2, powers of h), so several kernel certificates are checked
        lifts = []
        lift = solvability._lift
        monkeypatch.setattr(solvability, "_lift", lambda v, prime: lifts.append(v) or lift(v, prime))
        for text in ("p^3*q^2+q^4+p^2", "(p+q^2)^2", "p+q^2", "h"):
            for box in (10, 12):
                rows, columns = solvability._box_system(element_from_string(text), box)
                fallbacks.clear()
                lifts.clear()
                self.solve(rows, len(columns))
                assert not fallbacks, (text, box)
                # every p^i q^i is a polynomial in h, so h's centralizer
                # columns are zero and need no certificate
                assert len([v for v in lifts if len(v) > 1]) >= 2 or text == "h", (text, box)

    def test_box_24_certifies_after_one_retry(self, fallbacks):
        # the sixth kernel certificate at 2^61 - 1 has entries beyond sqrt(P/2)
        x = element_from_string("p^3*q^2+q^4+p^2")
        assert find_witness_box(x, 24, cap=24) is None
        assert fallbacks == [self.NEXT]

    def test_orbit_element_certifies_after_one_retry(self, fallbacks):
        x = element_from_string(ORBIT_RETRY)
        y = find_witness_box(x, 4)
        assert fallbacks == [self.NEXT]
        assert y == naive_box_witness(x, 4)


@st.composite
def sparse_systems(draw):
    """Small sparse integer systems, often rank-deficient or inconsistent:
    extra rows are combinations of the first ones, with the right-hand side
    sometimes shifted.  Some entries are multiples of a tabulated prime or
    too large to reconstruct at it, so some draws escalate to the second or
    third prime.  Zero entries are left out, as the solver requires."""
    ncols = draw(st.integers(1, 6))
    small = st.integers(-9, 9).filter(bool)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols), small, max_size=ncols + 1), min_size=1, max_size=6))
    big = st.sampled_from([
        2**61 - 1, -2 * (2**61 - 1), 2**40 + 3, 2**127 - 1, 3 * (2**127 - 1), 2**200 + 7,
    ])
    spoiler = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, ncols), big)
    for k, t, c in draw(st.lists(spoiler, max_size=1)):
        rows[k][t] = c
    combos = st.tuples(st.integers(0, len(rows) - 1), st.integers(0, len(rows) - 1), st.integers(-3, 3), st.integers(-1, 1))
    for a, b, m, shift in draw(st.lists(combos, max_size=4)):
        row = dict(rows[a])
        for t, c in rows[b].items():
            row[t] = row.get(t, 0) + m * c
        row[ncols] = row.get(ncols, 0) + shift
        rows.append(row)
    return [{t: c for t, c in row.items() if c} for row in rows], ncols


class TestModularMatchesExact:
    @settings(max_examples=600, deadline=None)
    @given(sparse_systems())
    # defeats a proof step at 2^61 - 1 and at 2^127 - 1, certifies at 2^521 - 1
    @example(([{0: 2**127 - 1, 1: 1, 2: 1}], 2))
    # a cascade of one-entry rows from a prime multiple: x2 = 0, then x1 = 0
    @example(([{2: 2**61 - 1}, {1: 3, 2: 1}, {0: 1, 1: 1, 3: 1}, {0: 2, 1: -1, 2: 5, 3: 2}], 3))
    def test_random_systems(self, system):
        rows, ncols = system
        assert solvability._solve(rows, ncols) == naive_solve(rows, ncols)


class TestLadderVerdicts:
    def test_constant(self):
        v = analyze(W({(0, 0): 7}))
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.CONSTANT_ELEMENT]

    def test_zero(self):
        v = analyze(WeylElement.zero())
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.CONSTANT_ELEMENT]

    def test_h_fires_axis_power_index(self):
        v = analyze(H)
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.AXIS_POWER_INDEX_ONE]
        assert v.reasons[0].params["weight"] == "(1,1)"
        assert v.reasons[0].params["weighted_degree"] == 2

    def test_q_cubed_fires_low_grade_band(self):
        v = analyze(power(Q, 3))
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.LOW_GRADE_BAND]

    def test_p_cubed_fires_mirror_band(self):
        v = analyze(power(P, 3))
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.LOW_GRADE_BAND]

    def test_affine_family_solvable(self):
        v = analyze(P + power(Q, 2))
        assert v.outcome == Outcome.SOLVABLE
        assert v.witness == Q
        assert rules_of(v) == [RuleId.AFFINE_FAMILY]

    def test_linear_polynomial_solvable(self):
        v = analyze(W({(0, 1): 3, (0, 0): 5}))
        assert v.outcome == Outcome.SOLVABLE
        assert rules_of(v) == [RuleId.AFFINE_FAMILY]
        assert verify_witness(W({(0, 1): 3, (0, 0): 5}), v.witness)

    @pytest.mark.parametrize("degree", range(2, 7))
    def test_generator_polynomials_unsolvable(self, degree):
        # nonzero constant term keeps the grade band rule out of the way
        x = W({(0, j): 1 for j in range(degree + 1)})
        v = analyze(x)
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v)[0] in (RuleId.POLYNOMIAL_IN_GENERATOR, RuleId.LOW_GRADE_BAND)

    def test_generator_polynomial_rule_cited(self):
        x = W({(0, 2): 1, (0, 0): 1})
        v = analyze(x)
        assert rules_of(v) == [RuleId.POLYNOMIAL_IN_GENERATOR]
        assert v.reasons[0].params["generator"] == "q"

    def test_h_polynomial_unsolvable(self):
        v = analyze(power(H, 2))
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.POLYNOMIAL_IN_GENERATOR]
        assert v.reasons[0].params["generator"] == "h"

    def test_homogeneous_grade_one(self):
        # x = h q is homogeneous of grade 1 with nonconstant h-polynomial
        v = analyze(mul(H, Q))
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.AXIS_POWER_INDEX_ONE]

    def test_non_axis_edge(self):
        # support {(3,1),(0,3)} spans an edge of weight (2,3), degree 9 > 5
        x = W({(3, 1): 1, (0, 3): 1})
        v = analyze(x)
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.NON_AXIS_EDGE]
        assert v.reasons[0].params["weight"] == "(2,3)"

    def test_edge_gcd_one(self):
        u = W({(3, 3): 1, (4, 1): 1})
        w = W({(3, 9): 1, (4, 8): 3, (5, 7): 3})
        x = power(u, 2) + w
        v = analyze(x)
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.EDGE_GCD_ONE]
        assert sorted(v.reasons[0].params["power_indices"]) == [2, 3]

    def test_oracle_witness_rule(self):
        # conjugating p + q^2 by exp(ad p^2) hides the affine shape from
        # every structural rule, but the witness q + 2p sits in the box
        x = exp_ad(power(P, 2), P + power(Q, 2))
        v = analyze(x)
        assert v.outcome == Outcome.SOLVABLE
        assert rules_of(v) == [RuleId.ORACLE_WITNESS]
        assert verify_witness(x, v.witness)

    def test_unknown_square_of_solvable(self):
        # (p + q^2)^2 is a square of a solvable element; no ladder rule
        # sees it and the box is empty, so the honest answer is unknown
        x = power(P + power(Q, 2), 2)
        v = analyze(x)
        assert v.outcome == Outcome.UNKNOWN
        assert v.witness is None
        assert RuleId.ORACLE_WITNESS in v.attempted
        assert v.box_bound == 4

    def test_solvable_always_carries_verified_witness(self):
        rng = random.Random(7)
        for _ in range(60):
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-4, 4)
                for _ in range(rng.randint(1, 4))
            }
            x = W({k: v for k, v in terms.items() if v})
            verdict = analyze(x, box=3)
            if verdict.outcome == Outcome.SOLVABLE:
                assert verify_witness(x, verdict.witness)
            elif verdict.outcome == Outcome.UNSOLVABLE:
                assert verdict.reasons


class TestSubsumedShapes:
    """Shapes decided by a more general rule of the ladder: f(h)*q and
    f(h)*p by axis-power-index-one at (1,1), a*q + c and a*p + c by
    affine-family."""

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([1, -1]).flatmap(
        lambda s: homogeneous_elements(s, max_h_degree=5)))
    def test_f_of_h_times_generator_is_axis_power_index_one(self, x):
        d = to_h_form(x).parts[grade_span(x).min_grade].degree()
        assume(d >= 1)
        v = analyze(x)
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.AXIS_POWER_INDEX_ONE]
        assert v.reasons[0].params["weight"] == "(1,1)"
        assert v.reasons[0].params["weighted_degree"] == 2 * d + 1

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(["p", "q"]), coefficients(fractional=True),
           st.one_of(st.just(Fraction(0)), coefficients(fractional=True)))
    def test_linear_in_generator_is_affine_family(self, gen, a, c):
        x = (P if gen == "p" else Q).scale(a) + ONE.scale(c)
        v = analyze(x)
        assert v.outcome == Outcome.SOLVABLE
        assert rules_of(v) == [RuleId.AFFINE_FAMILY]
        assert v.witness == (Q.scale(1 / a) if gen == "p" else P.scale(-1 / a))


class TestElementProfile:
    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(max_exp=4, max_terms=5, nonzero=True))
    def test_facts_match_direct_computation(self, x):
        profile = ElementProfile(x)
        assert profile.support == x.support()
        assert profile.span == grade_span(x)
        assert profile.h_form == to_h_form(x)
        polygon = edges(x)
        assert profile.polygon == polygon
        assert profile.edge_indices == tuple(
            power_index(e.polynomial, e.weight) if e.weight.is_axis() else None
            for e in polygon.edges
        )

    @settings(max_examples=80, deadline=None)
    @given(weyl_elements(max_exp=4, max_terms=5, nonzero=True, fractional=True))
    def test_leading_matches_weight_polynomial(self, x):
        # the faces the axis-power-index-one sweep reads
        profile = ElementProfile(x)
        for w in solvability._axis_weights(profile.support):
            v, face = profile.exposed(w)
            if v >= w.rho + w.sigma:
                f = weight_polynomial(x, w)
                assert profile.leading(face) == (f, power_index(f, w))

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 5).map(lambda k: (k, k)), coefficients(fractional=True),
                           min_size=1, max_size=4).map(W))
    def test_h_degree_is_largest_diagonal_exponent(self, x):
        d = to_h_form(x).parts[0].degree()
        cited = [cit.params["degree"] for cit in analyze(x).reasons
                 if cit.rule == RuleId.POLYNOMIAL_IN_GENERATOR]
        assert cited == ([d] if d >= 2 else [])

    def test_verdict_carries_profile_outside_equality(self):
        a, b = analyze(H), analyze(H)
        assert a.profile is not None and a.profile is not b.profile
        assert a == b

    def test_report_computes_each_fact_once(self, monkeypatch):
        calls = Counter()
        faces = []

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                if name == "power_index":
                    faces.append(args[0].support())
                return fn(*args)
            return wrapper

        for name in ("grade_span", "to_h_form", "edges", "power_index"):
            monkeypatch.setattr(solvability, name, counting(name, getattr(solvability, name)))
        for text in (
            "h", "p^4 + p^3*q + p^2*q^2 + q^3 + q", "p^3*q + q^3", "p^2*q^2 + p*q + 1",
            "(p^3*q^3 + p^4*q)^2 + p^3*q^9 + 3*p^4*q^8 + 3*p^5*q^7",
        ):
            calls.clear()
            faces.clear()
            build_report(text, element_from_string(text), box=2, cap=8)
            # the report shows span, h-form and polygon of every nonzero x
            assert (calls["grade_span"], calls["to_h_form"], calls["edges"]) == (1, 1, 1)
            assert len(set(faces)) == len(faces)


class TestVerdictConsistency:
    def test_rules_never_contradict_witnesses(self):
        rng = random.Random(97)
        checked = 0
        while checked < 500:
            terms = {
                (rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-9, 9)
                for _ in range(rng.randint(1, 5))
            }
            x = W({k: v for k, v in terms.items() if v})
            verdict = analyze(x, box=2)
            if verdict.outcome == Outcome.UNSOLVABLE:
                assert witness_for_affine(x) is None
                assert verdict.witness is None
            checked += 1

    def test_unsolvable_verdicts_beat_box_oracle(self):
        rng = random.Random(41)
        found = 0
        while found < 50:
            terms = {
                (rng.randint(0, 3), rng.randint(0, 3)): rng.randint(-6, 6)
                for _ in range(rng.randint(1, 4))
            }
            x = W({k: v for k, v in terms.items() if v})
            if x.is_zero():
                continue
            verdict = analyze(x, box=2)
            if verdict.outcome == Outcome.UNSOLVABLE:
                assert find_witness_box(x, 4) is None
                found += 1

    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=4))
    def test_omega_equivariance(self, x):
        assert analyze(omega(x), box=3).outcome == analyze(x, box=3).outcome

    def test_witnesses_transport_along_automorphisms(self):
        rng = random.Random(5)
        x = P + power(Q, 2)
        y = Q
        assert verify_witness(x, y)
        for _ in range(20):
            axis = rng.choice(["p", "q"])
            coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3)]
            terms = {
                (k + 1, 0) if axis == "p" else (0, k + 1): c
                for k, c in enumerate(coeffs)
                if c
            }
            g = W(terms)
            assert verify_witness(exp_ad(g, x), exp_ad(g, y))


class TestAttemptedBookkeeping:
    """`attempted` is the ladder's rule order up to and including the rule
    that decided, and every rule for `unknown`, so a change of `attempted`
    in `analyze --json` reads as a change of ladder order alone."""

    CORPUS = corpus_inputs()

    @pytest.mark.parametrize("text", [text for _, text in CORPUS], ids=[i for i, _ in CORPUS])
    def test_attempted_is_ladder_prefix(self, text):
        verdict = analyze(element_from_string(text))
        ladder = tuple(RuleId)
        if verdict.outcome == Outcome.UNKNOWN:
            assert verdict.attempted == ladder
        else:
            k = ladder.index(verdict.reasons[0].rule)
            assert verdict.attempted == ladder[:k + 1]


class TestTameAutomorphisms:
    """Tame automorphisms (words in omega and exp_ad) preserve solvability,
    so no verdict on an image may contradict what is known of the
    preimage."""

    @settings(max_examples=150, deadline=None)
    @given(tame_words())
    def test_image_of_p_is_never_unsolvable(self, word):
        assert analyze(apply_word(word, P), box=3).outcome != Outcome.UNSOLVABLE

    @settings(max_examples=150, deadline=None)
    @given(tame_words())
    def test_oracle_finds_the_image_of_q(self, word):
        # [phi(p), phi(q)] = [p, q] = 1, so phi(q) is a witness for phi(p),
        # and the box oracle must find one whenever phi(q) fits in its box
        x, y = apply_word(word, P), apply_word(word, Q)
        assert reference_bracket(x, y) == ONE
        if all(max(pt) <= 3 for pt in y.support()):
            assert find_witness_box(x, 3) is not None

    @settings(max_examples=150, deadline=None)
    @given(tame_words(), st.sampled_from([2, 3]))
    def test_image_of_polynomial_in_q_is_never_solvable(self, word, k):
        x = apply_word(word, power(Q, k) + Q)
        assert analyze(x, box=3).outcome != Outcome.SOLVABLE

    @settings(max_examples=150, deadline=None)
    @given(tame_words(), weyl_elements(max_exp=2, max_terms=3, nonzero=True))
    def test_image_never_contradicts_preimage(self, word, x):
        outcomes = {analyze(x, box=3).outcome, analyze(apply_word(word, x), box=3).outcome}
        assert outcomes != {Outcome.SOLVABLE, Outcome.UNSOLVABLE}
