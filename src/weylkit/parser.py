"""Recursive-descent parser for Weyl algebra expressions.

Grammar (ASCII only; whitespace insignificant, multiplication always explicit):

    expr     := ('+' | '-')? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := 'p' | 'q' | 'h' | rational | '(' expr ')'
    rational := uint ('/' uint)?

Products keep their source order; "q*p" only becomes p*q - 1 when the
tree is evaluated into a normal-ordered element.  The atom h stands for
the product p*q.  Parentheses nest at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .element import ExponentPair, WeylElement, binary_power, mul_numerators


class ExprSyntaxError(ValueError):
    """Parse failure; `position` is the byte offset of the offending text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at byte {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str  # 'p', 'q' or 'h'


@dataclass(frozen=True)
class Pow:
    base: "ExprAst"
    exponent: int


@dataclass(frozen=True)
class Prod:
    factors: tuple["ExprAst", ...]


@dataclass(frozen=True)
class Neg:
    child: "ExprAst"


@dataclass(frozen=True)
class Sum:
    parts: tuple["ExprAst", ...]


ExprAst = Num | Var | Pow | Prod | Neg | Sum
_Numerators = tuple[int, dict[ExponentPair, int]]

#: Deepest parenthesis nesting accepted; bounds the recursion of the parser.
MAX_NESTING = 100

# ASCII only: a Unicode digit or space is an unexpected character, so every
# character before an error is one byte and offsets are byte offsets
_TOKEN = re.compile(r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[pqh])|(?P<op>[-+*^()])|(?P<bad>\S))",
                    re.ASCII)


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, offset)
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
            self.items.append((kind, m[kind], m.start(kind)))
        self.index = 0
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.index] if self.index < len(self.items) else None

    def next(self) -> tuple[str, str, int] | None:
        tok = self.peek()
        if tok is not None:
            self.index += 1
        return tok

    def end_offset(self) -> int:
        return len(self.text)


def parse_expr(text: str) -> ExprAst:
    tokens = _Tokens(text)
    if not tokens.items:
        raise ExprSyntaxError("empty expression", 0)
    ast = _parse_sum(tokens)
    trailing = tokens.peek()
    if trailing is not None:
        raise ExprSyntaxError(f"unexpected {trailing[1]!r}", trailing[2])
    return ast


def _parse_sum(tokens: _Tokens) -> ExprAst:
    parts: list[ExprAst] = []
    tok = tokens.peek()
    lead_negative = False
    if tok is not None and tok[0] == "op" and tok[1] in "+-":
        tokens.next()
        lead_negative = tok[1] == "-"
    term = _parse_term(tokens)
    parts.append(Neg(term) if lead_negative else term)
    while True:
        tok = tokens.peek()
        if tok is None or tok[0] != "op" or tok[1] not in "+-":
            break
        tokens.next()
        term = _parse_term(tokens)
        parts.append(Neg(term) if tok[1] == "-" else term)
    return parts[0] if len(parts) == 1 else Sum(tuple(parts))


def _parse_term(tokens: _Tokens) -> ExprAst:
    factors = [_parse_factor(tokens)]
    while True:
        tok = tokens.peek()
        if tok is None or tok[0] != "op" or tok[1] != "*":
            break
        tokens.next()
        factors.append(_parse_factor(tokens))
    return factors[0] if len(factors) == 1 else Prod(tuple(factors))


def _parse_factor(tokens: _Tokens) -> ExprAst:
    base = _parse_atom(tokens)
    tok = tokens.peek()
    if tok is not None and tok[0] == "op" and tok[1] == "^":
        tokens.next()
        exp_tok = tokens.next()
        if exp_tok is None:
            raise ExprSyntaxError("expected an exponent", tokens.end_offset())
        kind, value, offset = exp_tok
        if kind != "number" or "/" in value:
            raise ExprSyntaxError("exponent must be a nonnegative integer", offset)
        return Pow(base, int(value))
    return base


def _parse_atom(tokens: _Tokens) -> ExprAst:
    tok = tokens.next()
    if tok is None:
        raise ExprSyntaxError("unexpected end of input", tokens.end_offset())
    kind, value, offset = tok
    if kind == "number":
        if "/" in value:
            num, den = value.split("/")
            if int(den) == 0:
                raise ExprSyntaxError("zero denominator", offset)
            return Num(Fraction(int(num), int(den)))
        return Num(Fraction(int(value)))
    if kind == "name":
        return Var(value)
    if kind == "op" and value == "(":
        if tokens.depth == MAX_NESTING:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING} levels", offset)
        tokens.depth += 1
        inner = _parse_sum(tokens)
        tokens.depth -= 1
        closing = tokens.next()
        if closing is None or closing[1] != ")":
            raise ExprSyntaxError("expected ')'", closing[2] if closing else tokens.end_offset())
        return inner
    raise ExprSyntaxError(f"unexpected {value!r}", offset)


_VAR_KEYS = {"p": (1, 0), "q": (0, 1), "h": (1, 1)}  # h = p*q is normal ordered


def _times(x: _Numerators, y: _Numerators) -> _Numerators:
    return x[0] * y[0], mul_numerators(x[1], y[1])


def _fold(ast: ExprAst) -> _Numerators:
    """(d, terms of d*x) for the element x that ast denotes: d > 0 and every
    coefficient an integer (d need not be the least such), zeros pruned."""
    if isinstance(ast, Num):
        v = ast.value
        return v.denominator, {(0, 0): v.numerator} if v else {}
    if isinstance(ast, Var):
        return 1, {_VAR_KEYS[ast.name]: 1}
    if isinstance(ast, Pow):
        # divide out d's common factor with the base, or (2*(1/2))^n carries 2^n in d
        d, xs = _fold(ast.base)
        g = gcd(d, *xs.values())
        d, n = d // g, ast.exponent
        if len(xs) == 1:
            (i, j), c = next(iter(xs.items()))
            if i == 0 or j == 0:  # (c*p^i)^n = c^n*p^(i*n): no normal ordering
                return d**n, {(i * n, j * n): (c // g) ** n}
        base = d, {key: c // g for key, c in xs.items()}
        return binary_power(base, n, (1, {(0, 0): 1}), _times)
    if isinstance(ast, Prod):
        out = _fold(ast.factors[0])
        for factor in ast.factors[1:]:
            out = _times(out, _fold(factor))
        return out
    if isinstance(ast, Neg):
        d, xs = _fold(ast.child)
        return d, {key: -c for key, c in xs.items()}
    if isinstance(ast, Sum):
        parts = [_fold(part) for part in ast.parts]
        d = lcm(*(e for e, _ in parts))
        acc: dict[ExponentPair, int] = {}
        for e, ys in parts:
            for key, c in ys.items():
                acc[key] = acc.get(key, 0) + c * (d // e)
        return d, {key: c for key, c in acc.items() if c}
    raise TypeError(f"not an expression node: {ast!r}")


def eval_ast(ast: ExprAst) -> WeylElement:
    """Fold the tree into a normal-ordered element.  The fold runs on
    integer numerators over one denominator (see element.numerators), and
    each output term becomes one Fraction at the end."""
    d, xs = _fold(ast)
    return WeylElement._raw({key: Fraction(c, d) for key, c in xs.items()})


def element_from_string(text: str) -> WeylElement:
    """Parse and evaluate in one step."""
    return eval_ast(parse_expr(text))
