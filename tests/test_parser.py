"""Expression grammar, evaluation, and print/parse round trips."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from weylkit import (
    H,
    P,
    Q,
    ExprSyntaxError,
    WeylElement,
    element_from_string,
    eval_ast,
    format_element,
    mul,
    parse_expr,
    power,
)
from weylkit.parser import Neg, Pow, Prod, Sum, Var, _fold

from oracles import naive_eval
from strategies import ast_text, expr_asts, weyl_elements

SHOWCASE_TEXT = "p^4 + p^3*q + p^2*q^2 + q^3 + q"


class TestParse:
    def test_showcase_element(self):
        ast = parse_expr(SHOWCASE_TEXT)
        assert isinstance(ast, Sum)
        assert len(ast.parts) == 5
        assert ast.parts[0] == Pow(Var("p"), 4)
        assert ast.parts[1] == Prod((Pow(Var("p"), 3), Var("q")))

    def test_h_desugars_on_eval(self):
        assert element_from_string("h^2 - h") == power(H, 2) - H
        assert element_from_string("h") == mul(P, Q)

    def test_product_order_preserved(self):
        ast = parse_expr("q*p")
        assert ast == Prod((Var("q"), Var("p")))

    def test_rational_coefficient(self):
        assert element_from_string("1/2 * p") == WeylElement({(1, 0): Fraction(1, 2)})

    def test_leading_minus(self):
        ast = parse_expr("-p")
        assert ast == Neg(Var("p"))
        assert eval_ast(ast) == -P

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
        assert _fold(parse_expr("((2*(1/2)*p)^8)^8")) == (1, {(64, 0): 1})

    def test_power_of_fractional_sum(self):
        text = "(1/3*p+1/5*q)^30"
        assert element_from_string(text) == naive_eval(parse_expr(text))

    @settings(max_examples=150, deadline=None)
    @given(expr_asts())
    def test_matches_fraction_fold(self, ast):
        assert eval_ast(ast) == naive_eval(ast)

    @settings(max_examples=100, deadline=None)
    @given(expr_asts())
    def test_text_matches_fraction_fold(self, ast):
        assert element_from_string(ast_text(ast)) == naive_eval(ast)


BAD_INPUTS = [
    "",
    "   ",
    "p q",
    "p +",
    "* p",
    "p^",
    "p^-2",
    "p^(1/2)",
    "p^1/2q",
    "2p",
    "p**2",
    "(p + q",
    "p + q)",
    "x + y",
    "1//2",
    "p^q",
    "3 * * q",
    "q^2.5",
    "p & q",
    "((p)",
    "-",
    "p -",
    pytest.param("(" * 101 + "p" + ")" * 101, id="nested-101"),
    pytest.param("(" * 5000 + "p" + ")" * 5000, id="nested-5000"),
]


class TestErrors:
    @pytest.mark.parametrize("text", BAD_INPUTS)
    def test_rejected(self, text):
        with pytest.raises(ExprSyntaxError):
            element_from_string(text)

    def test_error_carries_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("p + $")
        assert info.value.position == 4
        assert "byte 4" in str(info.value)

    def test_spaces_then_bad_character_offset(self):
        # the offset is the bad character's, not the whitespace before it
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("p +" + " \t" * 500 + "$ q")
        assert info.value.position == 1003

    def test_trailing_whitespace_ignored(self):
        assert element_from_string("p + q \t\n  ") == P + Q
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("p +   ")
        # the missing operand is reported at the end of the input
        assert info.value.position == 6

    def test_negative_exponent_offset(self):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("q^-1")
        assert info.value.position == 2

    def test_nesting_limit_offset(self):
        # the error points at the first parenthesis beyond the limit
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr("(" * 5000 + "p" + ")" * 5000)
        assert info.value.position == 100

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
