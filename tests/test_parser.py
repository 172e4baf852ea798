"""Expression grammar, evaluation, and print/parse round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import (
    H,
    P,
    Q,
    ExprSyntaxError,
    WeylElement,
    element_from_string,
    format_element,
    mul,
    power,
)
from weylkit import parser
from weylkit.parser import _parse

from oracles import naive_eval
from strategies import Neg, Num, Pow, Prod, Sum, Var, ast_text, expr_asts, weyl_elements

SHOWCASE_TEXT = "p^4 + p^3*q + p^2*q^2 + q^3 + q"


class TestParse:
    def test_showcase_element(self):
        assert element_from_string(SHOWCASE_TEXT) == WeylElement(
            {(4, 0): 1, (3, 1): 1, (2, 2): 1, (0, 3): 1, (0, 1): 1})

    def test_h_desugars_on_eval(self):
        assert element_from_string("h^2 - h") == power(H, 2) - H
        assert element_from_string("h") == mul(P, Q)

    def test_product_order_preserved(self):
        assert element_from_string("q*p") == mul(Q, P) != mul(P, Q)

    def test_rational_coefficient(self):
        assert element_from_string("1/2 * p") == WeylElement({(1, 0): Fraction(1, 2)})

    def test_leading_minus(self):
        assert element_from_string("-p") == -P

    def test_parentheses(self):
        assert element_from_string("(p + q)^2") == power(P + Q, 2)

    def test_whitespace_insignificant(self):
        assert element_from_string("  p ^ 2 *  q+1 ") == element_from_string("p^2*q+1")


class TestEval:
    def test_qp_normal_orders(self):
        assert element_from_string("q*p") == WeylElement({(1, 1): 1, (0, 0): -1})

    def test_h_squared_minus_h(self):
        assert element_from_string("h^2 - h") == WeylElement({(2, 2): 1, (1, 1): -2})

    def test_scalar_only(self):
        assert element_from_string("3/4") == WeylElement({(0, 0): Fraction(3, 4)})

    @pytest.mark.parametrize("text, expected", [
        ("p*q - q*p - 1", "0"),
        ("0/3*p", "0"),
        ("p - p", "0"),
        ("(1/2*p + q)^2 - 1/4*p^2", "p*q + q^2 - 1/2"),
        ("(2/3*h - q*p)^2 * 3/2", "1/6*p^2*q^2 - 7/6*p*q + 3/2"),
        # only a one-term base with an exponent 0 is raised in closed form
        ("(p*q)^2", "p^2*q^2 - p*q"),
        # a term is one token only at a term start and when it ends at "+",
        # "-", ")" or the end; these are read factor by factor
        ("(p+q)^2*q", "p^2*q + 2*p*q^2 + q^3 - q"),
        ("2*3*p", "6*p"),
        ("q*p^2", "p^2*q - 2*p"),
        ("p*q*p", "p^2*q - p"),
        # and these are one token each
        ("( 3/4 * p ^ 2 * q )", "3/4*p^2*q"),
        ("p^0*q^0", "1"),
        ("0*p*q", "0"),
    ])
    def test_canonical_form(self, text, expected):
        # cancellation in the integer fold stores no zero coefficient and
        # leaves each Fraction reduced
        x = element_from_string(text)
        assert format_element(x) == expected
        assert all(x.terms().values())
        canonical = WeylElement(x.terms())
        assert x == canonical and hash(x) == hash(canonical)

    def test_power_of_content_shared_with_denominator(self):
        assert element_from_string("(2*(1/2)*p)^20000") == WeylElement({(20000, 0): 1})
        # the base is reduced before powering, so no 2^64 rides along in d
        assert _parse("((2*(1/2)*p)^8)^8") == (1, {(64, 0): 1})

    ONE_TERM_POWERS = {
        "(2/3*p)^5": Pow(Prod((Num(Fraction(2, 3)), Var("p"))), 5),
        "(-1/2*q)^3*p^2": Prod((Pow(Neg(Prod((Num(Fraction(1, 2)), Var("q")))), 3),
                                Pow(Var("p"), 2))),
        "(3/4)^0": Pow(Num(Fraction(3, 4)), 0),
        "p^0": Pow(Var("p"), 0),
        "(0*q)^2": Pow(Prod((Num(Fraction(0)), Var("q"))), 2),
        "(p*q)^2": Pow(Prod((Var("p"), Var("q"))), 2),
    }

    @pytest.mark.parametrize("text", ONE_TERM_POWERS)
    def test_one_term_power_matches_fraction_fold(self, text):
        assert element_from_string(text) == naive_eval(self.ONE_TERM_POWERS[text])

    def test_axis_monomial_powers_take_no_binary_power(self, monkeypatch):
        def forbid(name):
            def forbidden(*args):
                raise AssertionError(f"{name} called")
            monkeypatch.setattr(parser, name, forbidden)

        # "*1" makes each term a product read factor by factor, whose axis
        # powers p^3 and q^3 are raised in closed form
        forbid("binary_power")
        x = element_from_string("-6*p^3*q^3*1 + 3*q^3*1 - 5*p")
        assert format_element(x) == "-6*p^3*q^3 + 3*q^3 - 5*p"
        # a normal-ordered term at a term start is one token: no product
        forbid("_times")
        x = element_from_string("-6*p^3*q^3 + 3/4*q^3 - 5*p + 7")
        assert format_element(x) == "-6*p^3*q^3 + 3/4*q^3 - 5*p + 7"

    def test_power_of_fractional_sum(self):
        tree = Pow(Sum((Prod((Num(Fraction(1, 3)), Var("p"))),
                        Prod((Num(Fraction(1, 5)), Var("q"))))), 30)
        assert element_from_string("(1/3*p+1/5*q)^30") == naive_eval(tree)

    @settings(max_examples=100, deadline=None)
    @given(expr_asts())
    def test_text_matches_fraction_fold(self, ast):
        assert element_from_string(ast_text(ast)) == naive_eval(ast)


# every rejected text, with the byte offset and the message of its error
SYNTAX_ERRORS = {
    "": (0, "empty expression"),
    "   ": (0, "empty expression"),
    "p q": (2, "unexpected 'q'"),
    "p +": (3, "unexpected end of input"),
    "* p": (0, "unexpected '*'"),
    "p^": (2, "expected an exponent"),
    "p^-2": (2, "exponent must be a nonnegative integer"),
    "p^(1/2)": (2, "exponent must be a nonnegative integer"),
    "p^1/2q": (2, "exponent must be a nonnegative integer"),
    "2p": (1, "unexpected 'p'"),
    "p**2": (2, "unexpected '*'"),
    "(p + q": (6, "expected ')'"),
    "p + q)": (5, "unexpected ')'"),
    "x + y": (0, "unexpected character 'x'"),
    "1//2": (1, "unexpected character '/'"),
    "p^q": (2, "exponent must be a nonnegative integer"),
    "3 * * q": (4, "unexpected '*'"),
    "q^2.5": (3, "unexpected character '.'"),
    "p & q": (2, "unexpected character '&'"),
    "((p)": (4, "expected ')'"),
    "-": (1, "unexpected end of input"),
    "p -": (3, "unexpected end of input"),
    "p + \u0663*q": (4, "unexpected character '\u0663'"),
    "\u3000": (0, "unexpected character '\\u3000'"),  # repr escapes the space
    "(" * 101 + "p" + ")" * 101: (100, "parentheses nested deeper than 100 levels"),
    "(" * 5000 + "p" + ")" * 5000: (100, "parentheses nested deeper than 100 levels"),
    ")": (0, "unexpected ')'"),
    "(": (1, "unexpected end of input"),
    "()": (1, "unexpected ')'"),
    "p)": (1, "unexpected ')'"),
    "2/0": (0, "zero denominator"),
    "p^1/0": (2, "exponent must be a nonnegative integer"),
    # the whole text is tokenized before anything is evaluated, and a term
    # read as one token raises its zero denominator only when evaluated
    "3/0*p + $": (8, "unexpected character '$'"),
    "3/0*p + (": (0, "zero denominator"),
    "2*p^2*q^3 + 3/0*q": (12, "zero denominator"),
    # none of these is one term token
    "p^2^3": (3, "unexpected '^'"),
    "p^2 q": (4, "unexpected 'q'"),
    "2p^3": (1, "unexpected 'p'"),
    "p^1/2": (2, "exponent must be a nonnegative integer"),
    "--p": (1, "unexpected '-'"),
}

BAD_INPUTS = [
    pytest.param(text, id=f"nested-{text.count('(')}") if len(text) > 100 else text
    for text in SYNTAX_ERRORS
]


class TestErrors:
    @pytest.mark.parametrize("text", BAD_INPUTS)
    def test_rejected(self, text):
        position, message = SYNTAX_ERRORS[text]
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string(text)
        assert str(info.value) == f"syntax error at byte {position}: {message}"
        assert info.value.position == position

    def test_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string("p + $")
        assert info.value.position == 4
        assert "byte 4" in str(info.value)

    @pytest.mark.parametrize("text, position", [
        ("p$", 1),
        ("p + \u0663*q", 4),  # ARABIC-INDIC DIGIT THREE is not a digit
        ("p\u3000+ $", 1),  # IDEOGRAPHIC SPACE is not whitespace
        ("\u3000", 0),  # nor is whitespace-only non-ASCII input empty
    ])
    def test_unexpected_character_offset(self, text, position):
        # digits and whitespace are ASCII, so every offset is a byte offset
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string(text)
        assert info.value.position == position
        assert f"unexpected character {text[position]!r}" in str(info.value)
        assert len(text[:position].encode()) == position

    def test_spaces_then_bad_character_offset(self):
        # the offset is the bad character's, not the whitespace before it
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string("p +" + " \t" * 500 + "$ q")
        assert info.value.position == 1003

    def test_trailing_whitespace_ignored(self):
        assert element_from_string("p + q \t\n  ") == P + Q
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string("p +   ")
        # the missing operand is reported at the end of the input
        assert info.value.position == 6

    def test_negative_exponent_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string("q^-1")
        assert info.value.position == 2

    def test_nesting_limit_offset(self):
        # the error points at the first parenthesis beyond the limit
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string("(" * 5000 + "p" + ")" * 5000)
        assert info.value.position == 100

    @pytest.mark.parametrize("text, position, message", [
        ("(p+q)^3 + 1/0", 10, "zero denominator"),
        ("(p+q)^2 )", 8, "unexpected ')'"),
        ("(p+q)^2*(q", 10, "expected ')'"),
    ])
    def test_offset_after_evaluated_prefix(self, text, position, message):
        # the prefix before the error is evaluated first; the error is the
        # same as if nothing had been
        with pytest.raises(ExprSyntaxError) as info:
            element_from_string(text)
        assert str(info.value) == f"syntax error at byte {position}: {message}"
        assert info.value.position == position

    def test_nesting_at_limit_parses(self):
        assert element_from_string("(" * 100 + "p + q" + ")" * 100) == P + Q


class TestPrintParseRoundTrip:
    def test_showcase(self):
        x = element_from_string(SHOWCASE_TEXT)
        assert format_element(x) == SHOWCASE_TEXT
        assert element_from_string(format_element(x)) == x

    def test_signs_and_fractions(self):
        x = WeylElement({(1, 1): Fraction(-4), (0, 0): Fraction(2, 3)})
        text = format_element(x)
        assert text == "-4*p*q + 2/3"
        assert element_from_string(text) == x

    def test_zero(self):
        assert format_element(WeylElement.zero()) == "0"
        assert element_from_string("0") == WeylElement.zero()

    @settings(max_examples=500, deadline=None)
    @given(weyl_elements(max_exp=5, max_terms=6, fractional=True))
    def test_round_trip_random(self, x):
        assert element_from_string(format_element(x)) == x

    @settings(max_examples=300, deadline=None)
    @given(weyl_elements(max_exp=5, max_terms=6, fractional=True), st.data())
    def test_respelled_terms_parse_to_the_element(self, x, data):
        # each term is one token as printed or in parentheses, and is read
        # factor by factor when "*1" follows it; every spelling is x
        def op(symbol):
            space = st.text(" \t\n\r\f\v", max_size=2)
            return data.draw(space) + symbol + data.draw(space)

        text = ""
        for (i, j), c in sorted(x.terms().items()):
            text += op("-" if c < 0 else "+") if text or c < 0 else ""
            parts = [str(abs(c))] if abs(c) != 1 or not i + j else []
            parts += [f"p{op('^')}{i}" if i > 1 else "p"] if i else []
            parts += [f"q{op('^')}{j}" if j > 1 else "q"] if j else []
            term = op("*").join(parts)
            text += data.draw(st.sampled_from([term, f"({term})", term + op("*") + "1"]))
        assert element_from_string(text or "0") == x
