"""Decision ladder, witnesses, and the box oracle."""

import copy
import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod

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
    Weight,
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
    weight_polynomial,
    witness_for_affine,
)
from weylkit import solvability
from weylkit.cli import build_report
from weylkit.element import bracket_tables
from weylkit.polygon import exposed_face

from oracles import (
    all_coprime_weights, columns_of, decoded_box_columns, naive_box_witness, naive_solve, reference_bracket,
    reference_box_columns, reference_edges,
)
from test_golden import corpus_inputs
from strategies import apply_word, coefficients, homogeneous_elements, tame_words, weyl_elements


def rules_of(verdict):
    return [cit.rule for cit in verdict.reasons]


def W(terms):
    return WeylElement(terms)


def reference_axis_weights(support):
    """(1,1), then (n,1) and (1,n) for n up to the largest exponent of the
    support plus one, as the axis-power-index-one sweep takes them."""
    top = max(max(pt) for pt in support)
    return [Weight(1, 1)] + [w for n in range(2, top + 2) for w in (Weight(n, 1), Weight(1, n))]


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

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        weyl_elements(max_exp=3, max_terms=5, nonzero=True, fractional=True),
        # a*p + g(q) and its mirror, then one term more, which may leave the
        # shape (p + p*q, p^2 + q) or stay in it (a constant, a power of q)
        st.builds(lambda a, g, swap: W({((0, 1) if swap else (1, 0)): a}) + (omega(g) if swap else g),
                  coefficients(fractional=True),
                  st.dictionaries(st.integers(0, 4).map(lambda j: (0, j)), coefficients(fractional=True),
                                  max_size=4).map(W),
                  st.booleans()).flatmap(
            lambda x: st.one_of(st.just(x), weyl_elements(max_exp=2, max_terms=1).map(lambda t: x + t))),
    ))
    @example(P + P * Q)  # first frontier point (1, 1)
    @example(P ** 2 + Q)  # last frontier point (0, 1), but p^2 beside it
    @example(P + Q)  # both shapes: a*p + g(q) is read first
    @example(P - P)  # the zero element, whose frontier is empty
    def test_frontier_shape_matches_support_scan(self, x):
        # the shape read off the frontier, given or computed, against the
        # scan of every support point that it replaced
        pts = x.support()
        if x.coeff(1, 0) and all(pt == (1, 0) or pt[0] == 0 for pt in pts):
            expected = W({(0, 1): 1 / x.coeff(1, 0)})
        elif x.coeff(0, 1) and all(pt == (0, 1) or pt[1] == 0 for pt in pts):
            expected = W({(1, 0): -1 / x.coeff(0, 1)})
        else:
            expected = None
        assert witness_for_affine(x) == witness_for_affine(x, ElementProfile(x).frontier) == expected


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
            exposed_face(x.support(), w)[0] >= w.rho + w.sigma
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
        _, kept, _ = solvability._box_system(x, box)
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
    # [p q^2 + q, p^2] holds a zero at p that no [X, q^j] meets at box 2
    @example(element_from_string("p*q^2 + q"))
    def test_system_matches_reference_brackets(self, x):
        # the shift assembly of each column, and its zero pruning, against
        # brackets built by single-swap products: the same columns, the same
        # integer entries and right-hand side, no stored zero; rows are keyed
        # by int codes that decode to the reference monomials
        for box in range(6):
            brackets, columns, d = solvability._box_system(x, box)
            assert all(type(k) is int for col in brackets for k in col)
            decoded = decoded_box_columns(x, box, brackets)
            assert (decoded, d) == reference_box_columns(x, box, columns), (str(x), box)
            assert all(all(col.values()) for col in brackets)

    @pytest.mark.parametrize("text", [
        "p^3*q^2+q^4+p^2", "10^200*p + q^2", "3/2*q - 2/5*(p - 1/3*q^2)^2", "p^2*q^7 - 5*p^6*q + q",
    ])
    def test_system_matches_reference_brackets_to_box_8(self, text):
        # the one-pass tables step C(n, k) up to n = 8, and the last element
        # steps b!/(b-k)! (and a!/(a-k)!) up to k = 7
        x = element_from_string(text)
        for box in range(9):
            brackets, columns, d = solvability._box_system(x, box)
            assert (decoded_box_columns(x, box, brackets), d) == reference_box_columns(x, box, columns), (text, box)
            assert all(all(col.values()) for col in brackets)

    def test_asks_the_kernel_for_exactly_the_exponents_up_to_the_box(self, monkeypatch):
        asked = []

        def recording(xs, ps, qs):
            asked.append((list(ps), list(qs)))
            return bracket_tables(xs, ps, qs)

        monkeypatch.setattr(solvability, "bracket_tables", recording)
        for box in (0, 3, 8):
            solvability._box_system(element_from_string("p^3*q^2+q^4+p^2"), box)
        assert asked == [(list(range(box + 1)), list(range(box + 1))) for box in (0, 3, 8)]

    def test_row_codes_at_the_width_bound(self):
        # p + q^5 at box 4: W = 4 + 5 + 1 = 10, and the shift of [q^5, p^i]
        # by q^4 reaches q^8 = q^(5 + 4 - 1), the largest q-exponent a row
        # can have under the width bound
        x, box, width = element_from_string("p + q^5"), 4, 10
        brackets, columns, d = solvability._box_system(x, box)
        decoded = decoded_box_columns(x, box, brackets)
        assert (decoded, d) == reference_box_columns(x, box, columns)
        assert max(b for col in decoded for _, b in col) == 8
        codes = sorted({0}.union(*brackets))
        pairs = [divmod(k, width) for k in codes]
        assert pairs == sorted(pairs) == sorted({(0, 0)}.union(*decoded))
        assert find_witness_box(x, box) == naive_box_witness(x, box)

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


# the element of orbit seed 11 whose box-4 system has 32-bit entries
ORBIT_LARGE_ENTRIES = (
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
    """_solve, through columns_of: the hand-built systems above, then
    systems that defeat an elimination modulo a prime (a determinant of
    2^61 - 1, a solution entry beyond sqrt((2^61 - 1)/2) from small
    entries, entries of hundreds of digits), each with its exact answer."""

    solve = staticmethod(lambda rows, ncols: solvability._solve(*columns_of(rows, ncols)))
    PRIME = 2**61 - 1
    # M = [[A, 1, 0], [0, B, 1], [1, 0, C]] has det ABC + 1 = PRIME: its
    # columns are independent over Q but not mod PRIME
    A, B, C = 1311753, 1317173, 1334550

    def test_column_of_prime_multiples_is_a_pivot_over_q(self):
        # M y = column 2 of M: mod P column 2 is a combination of columns 0
        # and 1 (it minus that combination is a column of prime multiples);
        # over Q it is the third independent column, and y = (0, 0, 1)
        A, B, C = self.A, self.B, self.C
        assert A * B * C + 1 == self.PRIME
        rows = [{0: A, 1: 1}, {1: B, 2: 1, 3: 1}, {0: 1, 2: C, 3: C}]
        assert self.solve(rows, 3) == {0: 0, 1: 0, 2: 1}

    def test_inconsistent_mod_prime_only(self):
        # M y = (0, 0, 1) reads 0 = 1 mod P, yet y = (1, -A, AB)/P solves
        A, B, C = self.A, self.B, self.C
        rows = [{0: A, 1: 1}, {1: B, 2: 1}, {0: 1, 2: C, 3: 1}]
        assert self.solve(rows, 3) == {0: Fraction(1, self.PRIME), 1: Fraction(-A, self.PRIME),
                                       2: Fraction(A * B, self.PRIME)}

    def test_consistent_mod_prime_only(self):
        # columns 0 and 1 of M with column 2 as the right-hand side agree
        # mod P but not over Q; no row has one entry, so the peel leaves all
        # three to the elimination
        A, B, C = self.A, self.B, self.C
        rows = [{0: A, 1: 1}, {1: B, 2: 1}, {0: 1, 2: C}]
        assert self.solve(rows, 2) is None

    def test_peel_decides_without_elimination(self, monkeypatch):
        def no_elimination(rows, ncols):
            raise AssertionError("eliminated a system the peel decides")

        monkeypatch.setattr(solvability, "_eliminate", no_elimination)
        assert self.solve([{0: 1, 1: 1}, {1: 3}, {1: 2, 2: 5}], 2) is None
        assert self.solve([{0: 2}, {1: 4}], 1) is None
        monkeypatch.undo()
        # the row of P is peeled, and x0 + x1 = 1 is left to the elimination
        assert self.solve([{0: 2**61 - 1}, {0: 1, 1: 1, 2: 1}], 2) == {0: 0, 1: 1}

    # x0 = K x1 and x1 = K: small entries, but x0 = K^2 lies beyond
    # sqrt((2^61 - 1)/2) < 2^30
    K = 2**16 + 1
    BEYOND = [{0: 1, 1: -K}, {1: 1, 2: K}]

    def test_coefficient_beyond_reconstruction(self):
        assert self.solve(self.BEYOND, 2) == {0: self.K**2, 1: self.K}

    def test_large_entries(self):
        assert self.solve([{0: 1, 1: 2**31 + 1}], 1) == {0: 2**31 + 1}
        # x^2 of the system has entries near 10^400
        x = element_from_string("10^200*p + q^2")
        assert find_witness_box(x, 4) == naive_box_witness(x, 4) == W({(0, 1): Fraction(1, 10**200)})

    def test_deep_box_systems_certified_without_fallback(self):
        # the centralizers of these elements meet the box (x, x^2, powers of
        # p + q^2, powers of h), so the systems have free columns
        for text in ("p^3*q^2+q^4+p^2", "(p+q^2)^2", "p+q^2", "h"):
            for box in (10, 12):
                y = find_witness_box(element_from_string(text), box, cap=12)
                assert y == (Q if text == "p+q^2" else None), (text, box)

    def test_box_24_has_no_witness(self):
        x = element_from_string("p^3*q^2+q^4+p^2")
        assert find_witness_box(x, 24, cap=24) is None

    def test_orbit_element_matches_naive(self):
        x = element_from_string(ORBIT_LARGE_ENTRIES)
        assert find_witness_box(x, 4) == naive_box_witness(x, 4)


@st.composite
def sparse_systems(draw):
    """Small sparse integer systems, often rank-deficient or inconsistent:
    extra rows are combinations of the first ones, with the right-hand side
    sometimes shifted.  Some entries are large: multiples of the primes
    2^61 - 1 and 2^127 - 1, or past 2^200.  Zero entries are left out, as
    the solver requires."""
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


# an entry of 127 bits beside small ones
LARGE_ENTRY_SYSTEM = ([{0: 2**127 - 1, 1: 1, 2: 1}], 2)
# a cascade of one-entry rows from a prime multiple: x2 = 0, then x1 = 0
CASCADE_SYSTEM = ([{2: 2**61 - 1}, {1: 3, 2: 1}, {0: 1, 1: 1, 3: 1}, {0: 2, 1: -1, 2: 5, 3: 2}], 3)


class TestSolveMatchesNaive:
    @settings(max_examples=600, deadline=None)
    @given(sparse_systems())
    @example(LARGE_ENTRY_SYSTEM)
    @example(CASCADE_SYSTEM)
    def test_random_systems(self, system):
        rows, ncols = system
        assert solvability._solve(*columns_of(rows, ncols)) == naive_solve(rows, ncols)


def assert_growth_bound(rows, ncols):
    """Every pivot row _eliminate returns is primitive, and its entries are
    at most the Hadamard bound prod max(1, |row|_2) of the rows passed in,
    compared squared so that it stays exact.  The right-hand side is also
    eliminated as one more column, so an inconsistent system's pivots are
    checked too."""
    bound = prod(max(1, sum(c * c for c in row.values())) for row in rows)
    for pivots in (solvability._eliminate(rows, ncols), solvability._eliminate(rows, ncols + 1)):
        for a, row in (pivots or {}).values():
            assert gcd(a, *row.values()) == 1, (a, row)
            assert all(c * c <= bound for c in (a, *row.values())), (a, row)


def oracle_deep_systems(box):
    """The rows the peel leaves on the oracle_deep elements at the box, as
    _solve passes them to _eliminate, with their ncols."""
    seen = []
    eliminate = solvability._eliminate

    def recorded(rows, ncols):
        seen.append((copy.deepcopy(rows), ncols))
        return eliminate(rows, ncols)

    solvability._eliminate = recorded
    try:
        for text in ("p^3*q^2+q^4+p^2", "(p+q^2)^2", "p+q^2", "h"):
            find_witness_box(element_from_string(text), box, cap=box)
    finally:
        solvability._eliminate = eliminate
    return seen


class TestGrowthBound:
    @settings(max_examples=300, deadline=None)
    @given(sparse_systems())
    @example(LARGE_ENTRY_SYSTEM)
    @example(CASCADE_SYSTEM)
    def test_random_systems(self, system):
        assert_growth_bound(*system)

    @pytest.mark.parametrize("box", [8, 12])
    def test_oracle_deep_systems(self, box):
        systems = oracle_deep_systems(box)
        assert len(systems) == 3  # h is decided by the peel
        for rows, ncols in systems:
            assert_growth_bound(rows, ncols)


def assert_rows_unchanged(rows, ncols):
    """_eliminate reduces copies of the rows it is given, never the rows."""
    before = copy.deepcopy(rows)
    for n in (ncols, ncols + 1):
        solvability._eliminate(rows, n)
        assert rows == before, n


class TestEliminate:
    @settings(max_examples=300, deadline=None)
    @given(sparse_systems())
    @example(LARGE_ENTRY_SYSTEM)
    @example(CASCADE_SYSTEM)
    def test_random_rows_are_not_changed(self, system):
        assert_rows_unchanged(*system)

    @pytest.mark.parametrize("box", [8, 12])
    def test_oracle_deep_rows_are_not_changed(self, box):
        systems = oracle_deep_systems(box)
        assert len(systems) == 3  # h is decided by the peel
        for rows, ncols in systems:
            assert_rows_unchanged(rows, ncols)

    def test_pivot_ties_go_to_the_earliest_row(self):
        # both rows hold 3 entries at column 0: the pivot is row 0
        rows = [{0: 1, 1: 1, 2: 3}, {0: 1, 1: 2, 2: 5}]
        assert solvability._eliminate(rows, 2) == {0: (1, {1: 1, 2: 3}), 1: (1, {2: 2})}
        # row 1 - row 0 = {1: 1, 2: 2} joins column 1's bucket after row 2,
        # which has as many entries: the pivot is still the earlier row 1
        rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 3}, {1: 1, 2: 5}]
        assert solvability._eliminate(rows, 3) == {0: (1, {1: 1, 2: 1}), 1: (1, {2: 2}), 2: (1, {})}

    def test_pivot_rows_are_divided_by_their_content(self):
        assert solvability._eliminate([{0: 2, 1: 4, 2: 6}], 2) == {0: (1, {1: 2, 2: 3})}
        assert solvability._eliminate([{0: -2, 1: 4}], 1) == {0: (-1, {1: 2})}

    @pytest.mark.parametrize("a", [1, -1])
    def test_stops_at_the_first_row_left_with_its_right_hand_side(self, monkeypatch, a):
        # a x0 = 1 and x0 = 2 leave 0 = b at column 0; rows 2 and 3, which
        # start at column 1, are never reduced.  Every reduction takes one
        # gcd, and a pivot entry +-1 needs none for its content
        calls = []

        def counted(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(solvability, "gcd", counted)
        rows = [{0: a, 2: 1}, {0: 1, 2: 2}, {1: 1, 2: 1}, {1: 2, 2: 1}]
        assert solvability._eliminate(rows, 2) is None
        assert len(calls) == 1


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

    @pytest.mark.parametrize("text, front, outcome, cited", [
        ("0", [], Outcome.UNSOLVABLE, (RuleId.CONSTANT_ELEMENT, {"value": "0"})),
        ("5", [(0, 0)], Outcome.UNSOLVABLE, (RuleId.CONSTANT_ELEMENT, {"value": "5"})),
        ("q^3 + q", [(0, 3)], Outcome.UNSOLVABLE,
         (RuleId.POLYNOMIAL_IN_GENERATOR, {"generator": "q", "degree": 3})),
        ("p^2 + 3", [(2, 0)], Outcome.UNSOLVABLE,
         (RuleId.POLYNOMIAL_IN_GENERATOR, {"generator": "p", "degree": 2})),
        ("p^2*q^2 + 2*p*q", [(2, 2)], Outcome.UNSOLVABLE,
         (RuleId.POLYNOMIAL_IN_GENERATOR, {"generator": "h", "degree": 2})),
        # one diagonal frontier point, but grades 0 and 1: not f(h)
        ("p^2*q^2 + p*q^2", [(2, 2)], Outcome.UNKNOWN, None),
    ])
    def test_frontier_readings(self, text, front, outcome, cited):
        # the constant and generator tests read the frontier alone
        x = element_from_string(text)
        assert ElementProfile(x).frontier == front
        v = analyze(x)
        assert v.outcome == outcome
        assert [(c.rule, c.params) for c in v.reasons] == ([cited] if cited else [])

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
        # (2p - q)^2 + p is solvable, but the step p -> p + q/2 its (1,1)
        # edge suggests gives 4p^2 + p + q/2 - 2: the constant term keeps
        # (total degree, support size) at (2, 4), so the reduction stalls
        # and the box oracle finds the witness q - 2p
        x = element_from_string("4*p^2 - 4*p*q + q^2 + p")
        v = analyze(x)
        assert v.outcome == Outcome.SOLVABLE
        assert rules_of(v) == [RuleId.ORACLE_WITNESS]
        assert "steps" not in v.reasons[0].params
        assert v.witness == element_from_string("q - 2*p")

    def test_conjugated_affine_element_reduces(self):
        # conjugating p + q^2 by exp(ad p^2) hides the affine shape from
        # every structural rule; leading-form steps undo it, and the
        # witness of the reduced element is pulled back to x
        x = exp_ad(power(P, 2), P + power(Q, 2))
        v = analyze(x)
        assert v.outcome == Outcome.SOLVABLE
        assert rules_of(v) == [RuleId.AFFINE_FAMILY]
        assert v.reasons[0].params["steps"]
        assert v.reasons[0].params["witness"] == str(v.witness)
        assert verify_witness(x, v.witness)

    def test_square_of_solvable_reduces_to_grade_band(self):
        # (p + q^2)^2 has the (2,1) edge (X + Y^2)^2, so one step
        # p -> p - q^2 maps it to p^2, which sits in grade -2 alone
        x = power(P + power(Q, 2), 2)
        v = analyze(x)
        assert v.outcome == Outcome.UNSOLVABLE
        assert v.witness is None
        assert rules_of(v) == [RuleId.LOW_GRADE_BAND]
        assert v.reasons[0].params["steps"] == ["1/3*q^3"]
        assert v.attempted == (RuleId.CONSTANT_ELEMENT, RuleId.LOW_GRADE_BAND)

    @pytest.mark.parametrize("text, step", [
        ("q^4*(p - q^3)^2 + p^2", "-1/4*q^4"),
        ("p^4*(q - p^3)^2 + q^2", "1/4*p^4"),
    ])
    def test_step_keeps_the_outer_factor(self, text, step):
        # the (3,1) edge Y^4 (X - Y^3)^2 (or its mirror at (1,3)) has an
        # outer factor of higher degree than its core; p -> p + q^3 maps it
        # to Y^4 X^2, of total degree 6 < 10
        v = analyze(element_from_string(text))
        assert v.outcome == Outcome.UNSOLVABLE
        assert rules_of(v) == [RuleId.AXIS_POWER_INDEX_ONE]
        assert v.reasons[0].params["steps"] == [step]

    def test_step_that_cannot_drop_is_not_computed(self, monkeypatch):
        # the (9,1) edge X^40 (X - Y^9)^4 Y^40 suggests p -> p + q^9, whose
        # image has a term of total degree 4 + 40 + 9*40 > 116 = deg x, so
        # the step is skipped before (p + q^9)^40 is expanded
        maps = []
        monkeypatch.setattr(solvability, "exp_ad", lambda g, x: maps.append(g) or exp_ad(g, x))
        v = analyze(element_from_string("p^40*(p - q^9)^4*q^40"), box=0)
        assert v.outcome == Outcome.UNKNOWN
        assert maps == []

    @pytest.mark.parametrize("text, calls, outcome", [
        # one step, 1/3*p^3, maps x to -2*p^3 + p^2*q^2, whose (2,1) edge
        # X^2 (Y^2 - 2X) bounds the image's term by k + b + n a = 5, one
        # above deg 4: skipped by a hair
        ("p^6 - 2*p^4*q + p^2*q^2", 1, Outcome.UNSOLVABLE),
        # the (1,1) edge (X + Y)^2 bounds it by 2 = deg x: the step runs
        ("p^2 + 2*p*q + q^2", 1, Outcome.UNSOLVABLE),
        # the (1,2) edge X^2 Y^4 (Y + X^2)^2 bounds it by 2 + 2 + 2*4 = 12 >
        # 10, and only with b counted
        ("p^6*q^4 + 2*p^4*q^5 + p^2*q^6", 0, Outcome.UNKNOWN),
    ])
    def test_precheck_runs_exp_ad_exactly_when_a_step_can_drop(self, monkeypatch, text, calls, outcome):
        # found by counting exp_ad calls on small elements against copies of
        # _reduction_step with the pre-check dropped, k off by one, > taken
        # as >= or shifted by 1, or one of its terms dropped or negated
        maps = []
        monkeypatch.setattr(solvability, "exp_ad", lambda g, x: maps.append(g) or exp_ad(g, x))
        assert analyze(element_from_string(text)).outcome == outcome
        assert len(maps) == calls

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
        d = len(to_h_form(x).parts[grade_span(x).min_grade].coeffs()) - 1
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
        assert profile.span == grade_span(x)
        assert profile.h_form == to_h_form(x)
        polygon = edges(x)
        assert profile.polygon == polygon
        assert profile.edge_indices == tuple(
            power_index(e.polynomial, e.weight) if e.weight.is_axis() else None
            for e in polygon.edges
        )

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(
        weyl_elements(max_exp=8, max_terms=16, nonzero=True, fractional=True),
        st.builds(apply_word, tame_words(), weyl_elements(max_exp=3, max_terms=4, nonzero=True)),
    ))
    def test_frontier_facts_match_support_scans(self, x):
        # the facts read off the frontier, against the same facts computed
        # on every support point (edges from the hull of the whole support)
        profile = ElementProfile(x)
        support = x.support()
        weights = reference_axis_weights(support)
        assert list(solvability._axis_weights(profile.frontier)) == [(w.rho, w.sigma) for w in weights]
        for w in weights:
            assert exposed_face(profile.frontier, w) == exposed_face(support, w)
        assert solvability._size(profile) == (max(i + j for i, j in support), len(support))
        assert profile.dominates_unit == (
            max(i for i, _ in support) >= 1
            and max(j for _, j in support) >= 1
            and all(e.degree >= e.weight.rho + e.weight.sigma for e in reference_edges(x).edges)
        )

    @settings(max_examples=120, deadline=None)
    @given(st.one_of(
        weyl_elements(max_exp=4, max_terms=5, nonzero=True, fractional=True),
        st.builds(apply_word, tame_words(), weyl_elements(max_exp=3, max_terms=4, nonzero=True)),
    ))
    @example(H)  # a one-point face, (1,1), of index 1
    @example(element_from_string("p^2*q + p*q^2"))  # an edge at (1,1) of index 1
    @example(element_from_string("(p + q^2)^2 + p*q"))  # an edge at (2,1) of index 2; no citation
    # the first edge, at (1,1), is -q^2 (p - q)^2 of index 2; the second, at
    # (2,1), has index 1, so the face at (2,1) must take its own edge's index
    @example(element_from_string("-p^2*q^2 + 2*p*q^3 - q^4 - p^3 - p^2 + 3*p*q"))
    def test_leading_matches_weight_polynomial(self, x):
        # the axis-power-index-one citation, or its absence, against a sweep
        # over the whole support that factors each weight polynomial afresh
        ladder = list(RuleId)
        found = solvability._rules(ElementProfile(x))
        assume(found is None or ladder.index(found[0].rule) >= ladder.index(RuleId.AXIS_POWER_INDEX_ONE))
        cited = found[0].params if found and found[0].rule == RuleId.AXIS_POWER_INDEX_ONE else None
        support = x.support()
        expected = None
        for w in reference_axis_weights(support):
            v = exposed_face(support, w)[0]
            leading = weight_polynomial(x, w)
            if v >= w.rho + w.sigma and power_index(leading, w) == 1:
                expected = {"weight": str(w), "weighted_degree": v, "leading_polynomial": str(leading)}
                break
        assert cited == expected

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.integers(0, 5).map(lambda k: (k, k)), coefficients(fractional=True),
                           min_size=1, max_size=4).map(W))
    def test_h_degree_is_largest_diagonal_exponent(self, x):
        d = len(to_h_form(x).parts[0].coeffs()) - 1
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
                if name == "dehomogenize":
                    faces.append(args[0].support())
                return fn(*args)
            return wrapper

        # each axis edge is factored once, for its power index and for the
        # reduction steps alike; the profile's descriptor fills each fact
        # once, and the frontier is shared with edges and witness_for_affine
        for name in ("frontier", "grade_span", "to_h_form", "edges", "dehomogenize"):
            monkeypatch.setattr(solvability, name, counting(name, getattr(solvability, name)))
        for text in (
            "h", "p^4 + p^3*q + p^2*q^2 + q^3 + q", "p^3*q + q^3", "p^2*q^2 + p*q + 1",
            "(p^3*q^3 + p^4*q)^2 + p^3*q^9 + 3*p^4*q^8 + 3*p^5*q^7",
        ):
            calls.clear()
            faces.clear()
            build_report(text, element_from_string(text), box=2, cap=8)
            # the report shows span, h-form and polygon of every nonzero x
            assert (calls["frontier"], calls["grade_span"], calls["to_h_form"], calls["edges"]) == (1, 1, 1, 1)
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
    preimage, and the ladder's leading-form reduction undoes them: every
    image of p is decided solvable and every image of q^k + q unsolvable."""

    @settings(max_examples=150, deadline=None)
    @given(tame_words(max_maps=5))
    def test_image_of_p_is_never_unsolvable(self, word):
        # the reduction undoes the word, so the image is decided solvable
        x = apply_word(word, P)
        v = analyze(x)
        assert v.outcome == Outcome.SOLVABLE
        assert reference_bracket(x, v.witness) == ONE

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
    @given(tame_words(max_maps=5), st.sampled_from([2, 3]))
    def test_image_of_polynomial_in_q_is_never_solvable(self, word, k):
        # the reduction undoes the word, so the image is decided unsolvable
        assert analyze(apply_word(word, power(Q, k) + Q)).outcome == Outcome.UNSOLVABLE

    @settings(max_examples=150, deadline=None)
    @given(tame_words(max_maps=5), st.sampled_from(["p", "q^2 + q", "q^3 + q"]))
    def test_reduction_steps_replay(self, word, source):
        # exp_ad of each g in steps, in order, maps x to an x' on which the
        # cited rule fires by itself, with the same params less the steps
        # (and, for a solvable x, less the witness, which is x''s own there)
        x = apply_word(word, element_from_string(source))
        cit = analyze(x).reasons[0]
        steps = cit.params.get("steps", [])
        for g in steps:
            x = exp_ad(element_from_string(g), x)
        direct = analyze(x).reasons[0]
        assert direct.rule == cit.rule
        assert "steps" not in direct.params
        keep = lambda params: {k: v for k, v in params.items() if k not in ("steps", "witness")}
        assert keep(direct.params) == keep(cit.params)

    @settings(max_examples=150, deadline=None)
    @given(tame_words(), weyl_elements(max_exp=2, max_terms=3, nonzero=True))
    def test_image_never_contradicts_preimage(self, word, x):
        outcomes = {analyze(x, box=3).outcome, analyze(apply_word(word, x), box=3).outcome}
        assert outcomes != {Outcome.SOLVABLE, Outcome.UNSOLVABLE}
