"""Products in the Weyl algebra recomputed without the library's formula.

The library normal-orders q^m p^n with the closed form
sum_k (-1)^k k! C(m,k) C(n,k) p^(n-k) q^(m-k).  The checks here derive the
same normal forms from the single rewrite q p -> p q - 1 instead: applied
m times it gives q^m p = p q^m - m q^(m-1), hence the recurrence

    q^m p^n = p (q^m p^(n-1)) - m (q^(m-1) p^(n-1)),

which is memoised, so large exponents stay cheap.  `validate_against` ties
the recurrence to the repository's literal single-swap rewriting oracle on
small exponents.  Elements are read only through their public `terms()`.
"""

from __future__ import annotations

from fractions import Fraction

_QP: dict[tuple[int, int], dict[tuple[int, int], int]] = {}


def normal_qp(m: int, n: int) -> dict[tuple[int, int], int]:
    """q^m p^n as {(i, j): coefficient of p^i q^j}."""
    key = (m, n)
    hit = _QP.get(key)
    if hit is not None:
        return hit
    if m == 0 or n == 0:
        out = {(n, m): 1}
    else:
        out = {}
        for (i, j), c in normal_qp(m, n - 1).items():
            out[(i + 1, j)] = out.get((i + 1, j), 0) + c
        for (i, j), c in normal_qp(m - 1, n - 1).items():
            out[(i, j)] = out.get((i, j), 0) - m * c
        out = {k: c for k, c in out.items() if c}
    _QP[key] = out
    return out


def product(x: dict, y: dict) -> dict:
    """x y for elements given as {(i, j): coefficient of p^i q^j}."""
    acc: dict[tuple[int, int], Fraction] = {}
    for (a, b), cx in x.items():
        for (c, d), cy in y.items():
            cxy = cx * cy
            for (i, j), k in normal_qp(b, c).items():
                key = (a + i, j + d)
                acc[key] = acc.get(key, 0) + cxy * k
    return {k: c for k, c in acc.items() if c}


def bracket_is_one(x, y) -> bool:
    """True exactly when [x, y] = 1, for two WeylElements."""
    xt, yt = x.terms(), y.terms()
    xy, yx = product(xt, yt), product(yt, xt)
    diff = {k: xy.get(k, 0) - yx.get(k, 0) for k in xy.keys() | yx.keys()}
    return {k: c for k, c in diff.items() if c} == {(0, 0): 1}


def validate_against(rewrite_normal_qp, bound: int = 4) -> None:
    """Raise unless the recurrence matches the literal rewriting oracle for
    every q^m p^n with m, n <= bound."""
    for m in range(bound + 1):
        for n in range(bound + 1):
            if rewrite_normal_qp(m, n).terms() != normal_qp(m, n):
                raise RuntimeError(f"single-swap recurrence disagrees with the oracle at q^{m} p^{n}")
