"""Recursive-descent parser for Weyl algebra expressions.

Grammar (ASCII only; whitespace insignificant, multiplication always explicit):

    expr     := ('+' | '-')? term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' uint)?
    atom     := 'p' | 'q' | 'h' | rational | '(' expr ')'
    rational := uint ('/' uint)?

Each rule evaluates what it parses into the pair an element stores: a
denominator d > 0 and the integer numerators of d*x (d need not be the
least such), zeros pruned.  Products are normal ordered as they are read,
so "q*p" becomes p*q - 1.  The atom h stands for the product p*q.
Parentheses nest at most MAX_NESTING levels deep.  A syntax error after a
well-formed prefix is found once that prefix has been evaluated.

A term c*p^i*q^j (an optional rational, then p^i, then q^j, at least one
of the two) is normal ordered as written.  One that starts where a term
may start (the start, "+", "-" or "(" before it) and ends where a term
must end ("+", "-", ")" or the end after it) is read as one token and
evaluated in closed form, with no product; it means what the grammar says.
"""

from __future__ import annotations

import re
from math import gcd, lcm

from .element import ExponentPair, WeylElement, binary_power, mul_numerators


class ExprSyntaxError(ValueError):
    """Parse failure; `position` is the byte offset of the offending text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"syntax error at byte {position}: {message}")
        self.position = position


_Numerators = tuple[int, dict[ExponentPair, int]]

#: Deepest parenthesis nesting accepted; bounds the recursion of the parser.
MAX_NESTING = 100

# ASCII only: a Unicode digit or space is an unexpected character, so every
# character before an error is one byte and offsets are byte offsets.  Each
# token takes the whitespace before it, so the lookbehind sees the last token.
_TOKEN = re.compile(r"""
    (?<![^-+(]) \s* (?P<term>  # c*p^i*q^j after no token, "+", "-" or "(" ...
        (?: (?P<num>\d+) (?: / (?P<den>\d+) )? \s*\*\s* )? (?=[pq])
        (?: (?P<p>p) (?: \s*\^\s* (?P<i>\d+) )? )?
        (?: (?(p) \s*\*\s* ) (?P<q>q) (?: \s*\^\s* (?P<j>\d+) )? )?
    ) (?= \s* (?: [-+)] | \Z ) )  # ... that ends at "+", "-", ")" or the end
    | \s* (?: (?P<number>\d+(?:/\d+)?) | (?P<name>[pqh]) | (?P<op>[-+*^()]) | (?P<bad>\S) )
""", re.ASCII | re.VERBOSE)


class _Tokens:
    """The (kind, value, offset) tokens of a text, ended by ("end", "", len(text)).
    A number's kind is "number", a variable's "name", an operator's the
    operator itself.  A whole term's kind is "term" and its value the texts
    (or None) of its numerator, denominator, p, i, q and j."""

    def __init__(self, text: str):
        self.items: list[tuple[str, str | tuple, int]] = []
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise ExprSyntaxError(f"unexpected character {m[kind]!r}", m.start(kind))
            value = m.group("num", "den", "p", "i", "q", "j") if kind == "term" else m[kind]
            self.items.append((value if kind == "op" else kind, value, m.start(kind)))
        self.items.append(("end", "", len(text)))
        self.index = 0
        self.depth = 0  # parentheses open at the current position

    def peek(self) -> str:
        """The kind of the next token."""
        return self.items[self.index][0]

    def next(self) -> tuple[str, str | tuple, int]:
        tok = self.items[self.index]
        self.index += 1
        return tok


def _parse(text: str) -> _Numerators:
    """The (d, numerators) pair of the element text denotes."""
    tokens = _Tokens(text)
    if tokens.peek() == "end":
        raise ExprSyntaxError("empty expression", 0)
    value = _parse_sum(tokens)
    kind, trailing, offset = tokens.next()
    if kind != "end":
        raise ExprSyntaxError(f"unexpected {trailing!r}", offset)
    return value


def element_from_string(text: str) -> WeylElement:
    """Parse text into a normal-ordered element."""
    return WeylElement._from_numerators(*_parse(text))


def _parse_sum(tokens: _Tokens) -> _Numerators:
    parts: list[_Numerators] = []
    sign = tokens.next()[0] if tokens.peek() in _SIGNS else "+"
    while True:
        d, xs = _parse_term(tokens)
        parts.append((d, {key: -c for key, c in xs.items()}) if sign == "-" else (d, xs))
        if tokens.peek() not in _SIGNS:
            break
        sign = tokens.next()[0]
    if len(parts) == 1:
        return parts[0]
    d = lcm(*(e for e, _ in parts))
    acc: dict[ExponentPair, int] = {}
    for e, ys in parts:
        for key, c in ys.items():
            acc[key] = acc.get(key, 0) + c * (d // e)
    return d, {key: c for key, c in acc.items() if c}


def _parse_term(tokens: _Tokens) -> _Numerators:
    out = _parse_factor(tokens)
    while tokens.peek() == "*":
        tokens.next()
        out = _times(out, _parse_factor(tokens))
    return out


def _parse_factor(tokens: _Tokens) -> _Numerators:
    base = _parse_atom(tokens)
    if tokens.peek() != "^":
        return base
    tokens.next()
    kind, value, offset = tokens.next()
    if kind == "end":
        raise ExprSyntaxError("expected an exponent", offset)
    if kind != "number" or "/" in value:
        raise ExprSyntaxError("exponent must be a nonnegative integer", offset)
    # divide out d's common factor with the base, or (2*(1/2))^n carries 2^n in d
    d, xs = base
    g = gcd(d, *xs.values())
    d, n = d // g, int(value)
    if len(xs) == 1:
        (i, j), c = next(iter(xs.items()))
        if i == 0 or j == 0:  # (c*p^i)^n = c^n*p^(i*n): no normal ordering
            return d**n, {(i * n, j * n): (c // g) ** n}
    base = d, {key: c // g for key, c in xs.items()}
    return binary_power(base, n, (1, {(0, 0): 1}), _times)


def _parse_atom(tokens: _Tokens) -> _Numerators:
    kind, value, offset = tokens.next()
    if kind == "term":  # c*p^i*q^j is normal ordered as written
        num, den, p, i, q, j = value
        key = int(i or 1) if p else 0, int(j or 1) if q else 0
    elif kind == "number":
        num, _, den = value.partition("/")
        key = (0, 0)
    elif kind == "name":
        return 1, {_VAR_KEYS[value]: 1}
    elif kind == "(":
        if tokens.depth == MAX_NESTING:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_NESTING} levels", offset)
        tokens.depth += 1
        inner = _parse_sum(tokens)
        tokens.depth -= 1
        kind, _, offset = tokens.next()
        if kind != ")":
            raise ExprSyntaxError("expected ')'", offset)
        return inner
    else:
        raise ExprSyntaxError("unexpected end of input" if kind == "end" else f"unexpected {value!r}", offset)
    a, b = int(num or 1), int(den or 1)
    if b == 0:
        raise ExprSyntaxError("zero denominator", offset)
    g = gcd(a, b)
    return b // g, {key: a // g} if a else {}


_SIGNS = ("+", "-")
_VAR_KEYS = {"p": (1, 0), "q": (0, 1), "h": (1, 1)}  # h = p*q is normal ordered


def _times(x: _Numerators, y: _Numerators) -> _Numerators:
    return x[0] * y[0], mul_numerators(x[1], y[1])
