"""Hypothesis strategies shared across the test modules."""

from dataclasses import dataclass
from fractions import Fraction

import hypothesis.strategies as st

from weylkit import BiPoly, UniPoly, Weight, WeylElement, exp_ad, HForm, omega

from oracles import from_h_form

SMALL_WEIGHTS = [Weight(1, 1), Weight(1, 2), Weight(2, 1), Weight(1, 3), Weight(3, 2)]


def coefficients(max_abs=9, fractional=False):
    ints = st.integers(-max_abs, max_abs).filter(bool)
    if not fractional:
        return ints.map(Fraction)
    return st.builds(Fraction, ints, st.integers(1, 4))


def exponent_pairs(max_exp=4):
    return st.tuples(st.integers(0, max_exp), st.integers(0, max_exp))


def weyl_elements(max_exp=4, max_terms=5, nonzero=False, fractional=False):
    return st.dictionaries(
        exponent_pairs(max_exp),
        coefficients(fractional=fractional),
        min_size=1 if nonzero else 0,
        max_size=max_terms,
    ).map(WeylElement)


def unipolys(max_degree=5, nonzero=False, fractional=False):
    return st.lists(
        st.one_of(st.just(Fraction(0)), coefficients(fractional=fractional)),
        min_size=1 if nonzero else 0,
        max_size=max_degree + 1,
    ).filter(lambda cs: not nonzero or any(cs)).map(UniPoly)


def homogeneous_elements(grade, max_h_degree=3):
    """Nonzero elements concentrated in a single grade."""
    return (
        unipolys(max_degree=max_h_degree, nonzero=True)
        .map(lambda f: from_h_form(HForm({grade: f})))
    )


def tame_words(max_maps=3):
    """Words of 1 to max_maps tame automorphisms, first map first: each is
    "omega" or the g of exp_ad(g), a polynomial of degree 2 or 3 in q alone
    or p alone with coefficients in [-2, 2] (see apply_word)."""
    g = st.builds(
        lambda axis, low, lead: WeylElement({
            (k, 0) if axis == "p" else (0, k): c for k, c in enumerate(low + [lead], start=1)
        }),
        st.sampled_from("pq"),
        st.integers(1, 2).flatmap(lambda n: st.lists(st.integers(-2, 2), min_size=n, max_size=n)),
        st.integers(-2, 2).filter(bool),
    )
    return st.lists(st.one_of(st.just("omega"), g), min_size=1, max_size=max_maps).map(tuple)


def apply_word(word, x):
    """The image of x under a tame_words word."""
    for g in word:
        x = omega(x) if g == "omega" else exp_ad(g, x)
    return x


def bipolys(max_exp=4, max_terms=5, nonzero=False, fractional=False):
    return st.dictionaries(
        exponent_pairs(max_exp),
        coefficients(fractional=fractional),
        min_size=1 if nonzero else 0,
        max_size=max_terms,
    ).map(BiPoly)


def weights():
    return st.sampled_from(SMALL_WEIGHTS)


# Expression trees: ast_text prints one as parser input and
# oracles.naive_eval folds it on elements, the parser's reference.
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


def expr_asts(depth=3, max_exponent=3):
    """Expression trees at most depth levels deep: nonnegative fractions and
    p, q, h at the leaves; powers, products, negations and sums above."""
    leaves = st.one_of(
        st.builds(Num, st.fractions(min_value=0, max_value=5, max_denominator=4)),
        st.sampled_from([Var("p"), Var("q"), Var("h")]),
    )
    if depth == 0:
        return leaves
    sub = expr_asts(depth - 1, max_exponent)
    children = st.lists(sub, min_size=2, max_size=3).map(tuple)
    return st.one_of(
        leaves,
        st.builds(Pow, sub, st.integers(0, max_exponent)),
        children.map(Prod),
        st.builds(Neg, sub),
        children.map(Sum),
    )


def ast_text(ast) -> str:
    """Source text that parses back to an element equal to ast's, with every
    child in its own parentheses."""
    if isinstance(ast, Num):
        v = ast.value
        return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
    if isinstance(ast, Var):
        return ast.name
    if isinstance(ast, Pow):
        return f"({ast_text(ast.base)})^{ast.exponent}"
    if isinstance(ast, Prod):
        return "*".join(f"({ast_text(f)})" for f in ast.factors)
    if isinstance(ast, Neg):
        return f"-({ast_text(ast.child)})"
    return " + ".join(f"({ast_text(part)})" for part in ast.parts)
