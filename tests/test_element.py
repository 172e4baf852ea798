"""Core arithmetic: normal ordering, ring axioms, commutator identities."""

import contextlib
import math
import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from weylkit import (
    H,
    ONE,
    P,
    Q,
    UniPoly,
    WeylElement,
    commutator,
    mul,
    normalize_qp,
    power,
)
from weylkit import element
from weylkit.element import bracket_tables, format_ratio, format_terms, numerators

from oracles import ad_power, reference_bracket, reference_mul, rewrite_normal_qp, substitute_poly, swap_normal_qp
from strategies import coefficients, exponent_pairs, weyl_elements


def W(terms):
    return WeylElement(terms)


# bracket operands: sparse elements (zero included) and bare scalars
operands = st.one_of(
    weyl_elements(max_exp=5, fractional=True),
    coefficients(fractional=True).map(lambda c: WeylElement.monomial(0, 0, c)),
)

# denominators drawn from pairwise coprime values, so the common denominator
# the kernel scales an element by is larger than each of its own
coprime_fractional = st.dictionaries(
    exponent_pairs(4),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 2, 3, 5, 7, 11, 13])),
    max_size=5,
).map(WeylElement)


class TestNormalizeQP:
    def test_empty_word(self):
        assert normalize_qp(0, 0) == ONE

    def test_single_swap(self):
        assert normalize_qp(1, 1) == W({(1, 1): 1, (0, 0): -1})

    def test_two_one(self):
        assert normalize_qp(2, 1) == W({(1, 2): 1, (0, 1): -2})

    def test_one_two(self):
        assert normalize_qp(1, 2) == W({(2, 1): 1, (1, 0): -2})

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize("n", range(7))
    def test_matches_rewrite_oracle(self, m, n):
        assert normalize_qp(m, n) == rewrite_normal_qp(m, n)

    @pytest.mark.parametrize("m", range(6))
    @pytest.mark.parametrize("n", range(6))
    def test_swap_recurrence_matches_rewrite_oracle(self, m, n):
        # ties the reference product of the kernel tests to the literal rewriting
        assert WeylElement(swap_normal_qp(m, n)) == rewrite_normal_qp(m, n)


class TestMul:
    def test_already_ordered(self):
        assert mul(P, Q) == W({(1, 1): 1})

    def test_reversed_generators(self):
        assert mul(Q, P) == W({(1, 1): 1, (0, 0): -1})

    def test_h_times_p(self):
        assert mul(H, P) == W({(2, 1): 1, (1, 0): -1})

    def test_unit(self):
        x = W({(2, 3): Fraction(5, 7), (0, 1): -2})
        assert mul(x, ONE) == x
        assert mul(ONE, x) == x

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=3), weyl_elements(max_exp=3, max_terms=3),
           weyl_elements(max_exp=3, max_terms=3))
    def test_associative(self, x, y, z):
        assert mul(mul(x, y), z) == mul(x, mul(y, z))

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(), weyl_elements(), weyl_elements())
    def test_distributive(self, x, y, z):
        assert mul(x, y + z) == mul(x, y) + mul(x, z)
        assert mul(x + y, z) == mul(x, z) + mul(y, z)

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=3, max_terms=4, nonzero=True),
           weyl_elements(max_exp=3, max_terms=4, nonzero=True))
    def test_no_zero_divisors_observed(self, x, y):
        assert not mul(x, y).is_zero()

    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(fractional=True), weyl_elements(fractional=True))
    def test_canonical_sparse_form(self, x, y):
        # both kernels divide integer sums by a common denominator; the
        # result must still hold no zero and only reduced fractions
        for result in (mul(x, y), commutator(x, y)):
            for c in result.terms().values():
                assert c != 0
                assert c.denominator > 0
                assert gcd(abs(c.numerator), c.denominator) == 1

    @settings(max_examples=150, deadline=None)
    @given(coprime_fractional, coprime_fractional)
    @example(W({(1, 2): Fraction(1, 6), (0, 1): Fraction(3, 5)}), W({(2, 1): Fraction(5, 7), (0, 0): 2}))
    def test_kernel_matches_reference_product(self, x, y):
        assert mul(x, y) == reference_mul(x, y)
        assert commutator(x, y) == reference_bracket(x, y)


class TestLinearCombine:
    """Linear combinations written with scalar * and +, which keep the
    canonical sparse form."""

    def test_cancellation(self):
        combo = 1 * P + (-1) * P
        assert combo == WeylElement.zero() and not combo.terms()

    def test_merge(self):
        assert 2 * Q + 3 * Q == W({(0, 1): 5})

    def test_mixed(self):
        assert 1 * H + 1 * ONE == W({(1, 1): 1, (0, 0): 1})


class TestCommutator:
    def test_defining_relation(self):
        assert commutator(P, Q) == ONE

    def test_h_with_generators(self):
        assert commutator(H, P) == -P
        assert commutator(H, Q) == Q

    def test_squares(self):
        # [q^2, p^2] = -4pq + 2, frozen from the rewrite oracle
        expected = W({(1, 1): -4, (0, 0): 2})
        assert commutator(power(Q, 2), power(P, 2)) == expected
        qqpp = rewrite_normal_qp(2, 2)
        assert qqpp - mul(power(P, 2), power(Q, 2)) == expected

    @settings(max_examples=300, deadline=None)
    @given(operands, operands)
    @example(WeylElement.zero(), P)
    @example(WeylElement.monomial(0, 0, Fraction(3, 2)), H)
    def test_matches_two_products(self, x, y):
        # the closed-form sum against the definition x y - y x
        assert commutator(x, y) == mul(x, y) - mul(y, x)

    @settings(max_examples=150, deadline=None)
    @given(operands)
    def test_self_bracket_vanishes(self, x):
        assert commutator(x, x).is_zero()

    @settings(max_examples=150, deadline=None)
    @given(operands, operands)
    def test_antisymmetry(self, x, y):
        assert commutator(x, y) == -commutator(y, x)

    @settings(max_examples=100, deadline=None)
    @given(weyl_elements(max_exp=2, max_terms=3), weyl_elements(max_exp=2, max_terms=3),
           weyl_elements(max_exp=2, max_terms=3))
    def test_jacobi(self, x, y, z):
        total = (
            commutator(x, commutator(y, z))
            + commutator(y, commutator(z, x))
            + commutator(z, commutator(x, y))
        )
        assert total.is_zero()


# y with many terms on a 3 x 3 grid of exponents, so that its terms share
# p- and q-exponents; sometimes with a constant term and pure powers on
# either axis
shared_exponents = st.dictionaries(
    exponent_pairs(2).map(lambda t: (2 * t[0], t[1] + 1)),
    coefficients(fractional=True),
    min_size=2,
    max_size=9,
).map(WeylElement)
with_axis_terms = st.tuples(
    shared_exponents,
    st.sampled_from([0, 1, 3]),
    st.sampled_from([0, 2, 4]),
    coefficients(fractional=True),
).map(lambda t: t[0] + W({(0, 0): t[3]}) + W({(t[1], 0): 1}) + W({(0, t[2]): -t[3]}))


class TestLeibnizBracket:
    """commutator shifts the bracket_tables of y's distinct exponents: the
    result must not depend on how y's exponents repeat, on the gaps between
    them or on which axes its terms lie."""

    @settings(max_examples=200, deadline=None)
    @given(operands, shared_exponents)
    def test_shared_exponents_match_reference(self, x, y):
        assert commutator(x, y) == reference_bracket(x, y)

    @settings(max_examples=200, deadline=None)
    @given(operands, with_axis_terms)
    def test_constant_and_pure_powers_match_reference(self, x, y):
        assert commutator(x, y) == reference_bracket(x, y)

    @pytest.mark.parametrize("y", [
        W({(0, 0): 5}), W({(3, 0): 1}), W({(0, 3): 1}), W({(2, 0): 1, (0, 2): -1, (0, 0): 7}),
        W({(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): 4}),
        # gapped and isolated high exponents: runs that start above k
        W({(0, 50): 1}), W({(40, 40): 1}), W({(1, 0): 1, (0, 9): 1}), W({(2, 7): 1, (7, 0): 1}),
    ])
    def test_hand_cases_match_reference(self, y):
        for terms in ({(2, 3): 1, (1, 0): Fraction(1, 2)}, {(0, 4): 3, (3, 0): -1, (1, 1): 2}):
            x = W(terms)
            assert commutator(x, y) == reference_bracket(x, y)

    @settings(max_examples=60, deadline=None)
    @given(operands)
    def test_leibniz_identity(self, x):
        for i in range(5):
            for j in range(5):
                pi, qj = power(P, i), power(Q, j)
                assert commutator(x, mul(pi, qj)) == (
                    mul(commutator(x, pi), qj) + mul(pi, commutator(x, qj))
                ), (str(x), i, j)


# ascending exponent sets for bracket_tables: runs and gaps below 10, with
# or without 0, and maybe one n well above every exponent of X
exponent_sets = st.builds(
    lambda low, zero, high: sorted(low | ({0} if zero else set()) | ({high} if high else set())),
    st.sets(st.integers(1, 9), max_size=7),
    st.booleans(),
    st.sampled_from([None, 40]),
)


def assert_tables_match_reference(x, ps, qs):
    """Each table of bracket_tables on x's numerators X is [X, p^n] (or
    [X, q^n]) of the rewriting reference, keyed by code, zeros aside; and
    there is one table for each n asked for, and no other."""
    _, xs = numerators(x)
    left, right, width = bracket_tables(xs, ps, qs)
    assert width == max([j for _, j in xs], default=0) + max(qs, default=0) + 1
    assert list(left) == list(ps) and list(right) == list(qs)
    for tables, gen in ((left, P), (right, Q)):
        for n, table in tables.items():
            ref = reference_bracket(W(xs), power(gen, n))
            expected = {i * width + j: c for (i, j), c in ref.terms().items()}
            assert {k: v for k, v in table.items() if v} == expected, (str(x), str(gen), n)


class TestBracketTables:
    @settings(max_examples=150, deadline=None)
    @given(operands, exponent_sets, exponent_sets)
    def test_tables_match_reference(self, x, ps, qs):
        assert_tables_match_reference(x, ps, qs)

    @pytest.mark.parametrize("ps, qs", [
        ([], []), ([0], [0]), (range(5), range(5)), ([0, 2, 3, 7], [1, 40]), ([40], [3, 4, 5, 9]),
    ])
    def test_one_table_per_exponent_asked_for(self, ps, qs):
        # p^2 q^7 - 5 p^6 q + q: k runs past 5 on both sides
        assert_tables_match_reference(W({(2, 7): 1, (6, 1): -5, (0, 1): 1}), ps, qs)

    def test_runs_start_from_comb_and_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(element, "comb", lambda n, k: calls.append((n, k)) or math.comb(n, k))
        # q^3 on the runs [0], [2, 3] and [7]: comb starts each run at or
        # above k, and k = 3 enters [2, 3] at n = 3 from f_3
        bracket_tables({(0, 3): 1}, [0, 2, 3, 7], [])
        assert calls == [(2, 1), (7, 1), (2, 2), (7, 2), (7, 3)]
        calls.clear()
        # one run from 0: every value is a step
        bracket_tables({(0, 3): 1, (3, 0): 1, (2, 2): 1}, range(9), range(9))
        assert calls == []

    def test_commutator_asks_for_the_distinct_exponents_of_y(self, monkeypatch):
        asked = []

        def recording(xs, ps, qs):
            asked.append((ps, qs))
            return bracket_tables(xs, ps, qs)

        monkeypatch.setattr(element, "bracket_tables", recording)
        x, y = W({(3, 2): 1, (0, 4): 1}), W({(2, 7): 1, (7, 0): 1, (2, 0): 3})
        assert commutator(x, y) == reference_bracket(x, y)
        assert asked == [([2, 7], [0, 7])]

    def test_cancelled_terms_leave_zeros(self):
        # in [p q^2 + q, p^2], k = 2 of p q^2 and k = 1 of q meet at p with
        # +2 and -2
        left, _, width = bracket_tables({(1, 2): 1, (0, 1): 1}, [2], [])
        assert left[2][1 * width + 0] == 0
        assert_tables_match_reference(W({(1, 2): 1, (0, 1): 1}), [2], [])


class TestAdPower:
    def test_p_twice_on_q(self):
        assert ad_power(P, Q, 2) == WeylElement.zero()

    def test_h_thrice_on_q(self):
        assert ad_power(H, Q, 3) == Q

    def test_q_once_on_p(self):
        assert ad_power(Q, P, 1) == -ONE

    def test_zeroth_power_is_identity(self):
        x = W({(2, 1): 3, (0, 0): Fraction(1, 2)})
        assert ad_power(P, x, 0) == x


class TestPower:
    def test_cube_of_q(self):
        assert power(Q, 3) == W({(0, 3): 1})

    def test_h_squared(self):
        # h*h = p(qp)q = p(pq-1)q = p^2 q^2 - pq; cross-checked by the oracle
        expected = W({(2, 2): 1, (1, 1): -1})
        assert power(H, 2) == expected
        assert mul(H, H) == expected

    def test_binomial_with_correction(self):
        expected = W({(2, 0): 1, (1, 1): 2, (0, 2): 1, (0, 0): -1})
        assert power(P + Q, 2) == expected

    @settings(max_examples=40, deadline=None)
    @given(weyl_elements(max_exp=2, max_terms=3), st.integers(0, 4))
    def test_agrees_with_repeated_mul(self, x, n):
        out = ONE
        for _ in range(n):
            out = mul(out, x)
        assert power(x, n) == out


class TestSubstitutePoly:
    def test_square_of_q(self):
        assert substitute_poly(UniPoly((0, 0, 1)), Q) == W({(0, 2): 1})

    def test_affine_in_p(self):
        assert substitute_poly(UniPoly((1, 1)), P) == W({(1, 0): 1, (0, 0): 1})

    def test_square_of_h(self):
        assert substitute_poly(UniPoly((0, 0, 1)), H) == power(H, 2)


class TestCanonicalForm:
    def test_zero_coefficients_rejected_on_build(self):
        assert WeylElement({(1, 1): 0}).is_zero()

    def test_equality_is_structural(self):
        a = W({(1, 2): Fraction(2, 4)})
        b = W({(1, 2): Fraction(1, 2)})
        assert a == b and hash(a) == hash(b)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            WeylElement({(0, 0): 0.5})


@contextlib.contextmanager
def int_str_limit(digits: int):
    """Run the block under the given limit on int-to-str conversion (0: no
    limit), on an interpreter that has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestFormatRatio:
    CASES = [(-5, 1), (6, 8), (-6, 8), (0, 7), (12, 4)]

    def test_lowest_terms(self):
        assert [format_ratio(n, d) for n, d in self.CASES] == ["-5", "3/4", "-3/4", "0", "3"]
        assert [format_ratio(n, d) for n, d in self.CASES] == [str(Fraction(n, d)) for n, d in self.CASES]

    def test_past_the_int_str_limit(self):
        # at the smallest limit (640 digits) every number here is converted
        # in pieces: the sign kept, the zeros of each lower piece padded
        rng = random.Random(5)
        big = [10**700, 10**700 - 1, 10**1400 + 1, 7 * 10**2100, 3**5000]
        big += [rng.randrange(10**rng.randrange(641, 6000)) for _ in range(40)]
        cases = [(n * s, d) for n in big for s, d in ((1, 1), (-1, 1), (-1, 10**650 + 3), (1, 9 * 10**800))]
        cases += self.CASES
        with int_str_limit(640):
            got = [format_ratio(n, d) for n, d in cases]
            terms = format_terms((n, d, "X") for n, d in cases)
        with int_str_limit(0):
            assert got == [str(Fraction(n, d)) for n, d in cases]
            assert terms == format_terms((n, d, "X") for n, d in cases)
