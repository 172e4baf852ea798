"""Exact sparse arithmetic in the first Weyl algebra over the rationals.

An element is a finite rational combination of the basis monomials p^i q^j
(all p factors to the left), stored as one pair: a denominator d > 0 and a
sparse map from exponent pairs to nonzero integer numerators whose gcd with
d is 1, so that p^i q^j has the coefficient n_ij / d.  The generators
satisfy p q - q p = 1; every product is rewritten back into the basis, and
each element has exactly one such pair, so two elements are equal exactly
when their pairs are equal.  The kernels sum on the numerators; a Fraction
is made only where a caller reads a coefficient.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb, gcd, lcm

ExponentPair = tuple[int, int]


class WeylInternalError(RuntimeError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class _Value:
    """Base of the frozen record types: each lists its fields in __slots__ and
    sets them in __init__ with object.__setattr__.  Equality (within one type),
    hash and repr read _fields: every slot, unless the type names fewer."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        cls._key = property(operator.attrgetter(*cls._fields))  # what equality and hash compare

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle through __init__
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


def as_scalar(value) -> Fraction:
    """Coerce an exact value to a Fraction.  Floats are rejected on purpose:
    binary floats silently break the exactness guarantees of the whole kit."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def binary_power(base, n: int, one, times=operator.mul):
    """base^n by binary powering on times (default: base's own *); base^0 = one."""
    if n < 0:
        raise ValueError("negative powers are not defined")
    result = one
    while n:
        if n & 1:
            result = times(result, base)
        n >>= 1
        if n:
            base = times(base, base)
    return result


class MonomialMap:
    """An immutable sparse map from exponent pairs to nonzero rationals.

    It stores one canonical pair: a denominator d > 0 and a map from exponent
    pairs to nonzero integer numerators with gcd(d, all numerators) = 1, so a
    pair's coefficient is its numerator over d; zero is (1, {}).  Only
    coeff and terms make Fractions; products, sums and the printer work on
    the pair.

    The value-type half of WeylElement and polynomials.BiPoly: validation,
    equality, hashing, addition, scaling, copying and printing are written
    here once, and each subclass supplies the names of its two variables;
    WeylElement adds its product and powers.  Values of different
    subclasses never compare equal and never add.
    """

    __slots__ = ("_den", "_nums", "_hash")
    _names: str  # the two variable names of the printer, set by each subclass

    def __init__(self, terms: Mapping[ExponentPair, object] | None = None):
        data: dict[ExponentPair, int | Fraction] = {}
        integral = True  # every coefficient is an int, so the pair is (1, data)
        if terms:
            for key, value in terms.items():
                i, j = key
                if not (type(i) is int and type(j) is int and i >= 0 and j >= 0):
                    if not (isinstance(i, int) and isinstance(j, int) and i >= 0 and j >= 0):
                        raise ValueError(f"exponent pair {key!r} is not a pair of nonnegative integers")
                    i, j = int(i), int(j)  # a bool exponent is stored as its int
                if type(value) is int:
                    if value:
                        data[(i, j)] = value
                elif isinstance(value, Fraction):
                    if value:
                        data[(i, j)] = value
                        integral = False
                elif isinstance(value, int):
                    if value:
                        data[(i, j)] = int(value)  # a bool is stored as its int
                else:
                    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")
        if integral:
            _store(self, 1, data)
            return
        # over the lcm of reduced denominators the numerators' content is 1
        # (an int is its own numerator over 1)
        d = lcm(*(c.denominator for c in data.values()))
        _store(self, d, {key: c.numerator * (d // c.denominator) for key, c in data.items()})

    @classmethod
    def _from_numerators(cls, d: int, acc: Mapping[ExponentPair, int]):
        """The map with coefficients acc[key] / d, for an integer d > 0:
        zeros pruned and the content gcd(d, numerators) divided out."""
        nums = {key: c for key, c in acc.items() if c}
        g = gcd(d, *nums.values())
        if g != 1:
            d //= g
            nums = {key: c // g for key, c in nums.items()}
        obj = object.__new__(cls)
        _store(obj, d, nums)
        return obj

    @classmethod
    def zero(cls):
        return cls._from_numerators(1, {})

    @classmethod
    def one(cls):
        return cls._from_numerators(1, {(0, 0): 1})

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1):
        return cls({(i, j): coeff})

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def terms(self) -> dict[ExponentPair, Fraction]:
        d = self._den
        return {key: Fraction(c, d) for key, c in self._nums.items()}

    def support(self) -> frozenset[ExponentPair]:
        return frozenset(self._nums)

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._nums.get((i, j), 0), self._den)

    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other) -> bool:
        if type(other) is type(self):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self._den, frozenset(self._nums.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        d = lcm(self._den, other._den)
        a, b = d // self._den, d // other._den
        acc = {key: c * a for key, c in self._nums.items()}
        for key, c in other._nums.items():
            acc[key] = acc.get(key, 0) + c * b
        return self._from_numerators(d, acc)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return self._from_numerators(self._den, {key: -c for key, c in self._nums.items()})

    def scale(self, c):
        c = as_scalar(c)
        n = c.numerator
        return self._from_numerators(self._den * c.denominator, {key: n * v for key, v in self._nums.items()})

    def __rmul__(self, other):
        try:
            c = as_scalar(other)
        except TypeError:
            return NotImplemented
        return self.scale(c)

    def __reduce__(self):  # copy and pickle through the stored pair
        return type(self)._from_numerators, (self._den, self._nums)

    def __str__(self) -> str:
        """Terms sorted by (i+j, i) descending, reduced fractional
        coefficients, unit coefficients elided."""
        d, nums = self._den, self._nums
        order = sorted(nums, key=lambda t: (t[0] + t[1], t[0]), reverse=True)
        return format_terms((nums[key], d, format_monomial(key, self._names)) for key in order)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


def _store(obj: MonomialMap, d: int, nums: dict[ExponentPair, int]) -> None:
    object.__setattr__(obj, "_den", d)
    object.__setattr__(obj, "_nums", nums)
    object.__setattr__(obj, "_hash", None)


class WeylElement(MonomialMap):
    """A normal-ordered element sum(c_ij * p^i * q^j) with rational c_ij.

    Instances are immutable; all arithmetic returns new elements in
    canonical sparse form (no zero coefficients stored).
    """

    __slots__ = ()
    _names = "pq"

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return mul(self, other)
        return self.__rmul__(other)

    def __pow__(self, n: int):
        return binary_power(self, n, self.one())


def normalize_qp(m: int, n: int) -> WeylElement:
    """Normal form of the word q^m p^n in the p-before-q basis.

    Moving each p left across each q via q p = p q - 1 telescopes into

        q^m p^n = sum_k (-1)^k k! C(m,k) C(n,k) p^(n-k) q^(m-k),

    which is validated in the test suite against a literal single-swap
    rewriting oracle.
    """
    if m < 0 or n < 0:
        raise ValueError("exponents must be nonnegative")
    return WeylElement._from_numerators(1, mul_numerators({(0, m): 1}, {(n, 0): 1}))


def numerators(x) -> tuple[int, dict[ExponentPair, int] | tuple[int, ...]]:
    """The stored pair (d, numerators of d*x) of a MonomialMap or a
    polynomials.UniPoly x: d is the lcm of the denominators of x (1 for
    zero), so every coefficient of d*x is an integer.  The numerators are a
    map from exponent pairs, or for a UniPoly a tuple in ascending degree;
    they are x's own: read them, never change them."""
    return x._den, x._nums


def mul_numerators(xs: Mapping[ExponentPair, int],
                   ys: Mapping[ExponentPair, int]) -> dict[ExponentPair, int]:
    """x y on integer coefficient maps, zero terms pruned: p^a q^b p^c q^d is
    sum_k (-1)^k k! C(b,k) C(c,k) p^(a+c-k) q^(b+d-k), by a recurrence in k."""
    acc: dict[ExponentPair, int] = {}
    for (a, b), cx in xs.items():
        for (c, d), cy in ys.items():
            cxy = cx * cy
            coef = 1
            for k in range(min(b, c) + 1):
                if k:
                    coef = -(coef * (b - k + 1) * (c - k + 1)) // k
                key = (a + c - k, b + d - k)
                acc[key] = acc.get(key, 0) + cxy * coef
    return {key: c for key, c in acc.items() if c}


def mul(x: WeylElement, y: WeylElement) -> WeylElement:
    """Product in the Weyl algebra: mul_numerators on the integer
    numerators of dx*x and dy*y, over dx*dy."""
    dx, xs = numerators(x)
    dy, ys = numerators(y)
    return WeylElement._from_numerators(dx * dy, mul_numerators(xs, ys))


def bracket_tables(xs: Mapping[ExponentPair, int], ps: Iterable[int],
                   qs: Iterable[int]) -> tuple[dict[int, dict[int, int]], dict[int, dict[int, int]], int]:
    """[X, p^n] for each n in ps and [X, q^n] for each n in qs (ascending,
    no n twice) on an integer coefficient map X, in one pass over its terms:
    two maps from n to a table {a*W + b: value} keyed by the code of p^a q^b,
    and W = (largest q-exponent of X) + (largest n in qs) + 1, which a shift
    by q^j, j <= that n, keeps above every q-exponent.  Cancelled terms
    leave zeros.  By the closed form of mul, c p^a q^b adds, for 1 <= k <= n,

        f_k C(n,k) at p^(a+n-k) q^(b-k) to [X, p^n],  f_k = (-1)^k c b!/(b-k)!,
        g_k C(n,k) at p^(a-k) q^(b+n-k) to [X, q^n],  g_k = -(-1)^k c a!/(a-k)!,

    with f_k = -(b - k + 1) f_(k-1) and g_k likewise in a.  Along a run of
    consecutive n, f_k C(n,k) steps to f_k C(n+1,k) by one multiplication
    by n + 1 and one exact division by n + 1 - k, and the code by W or 1.
    A run starts at its first n from comb, or at n = k from f_k.  So gaps
    between the n cost nothing, and k stops at the largest n."""
    left, right = {}, {}
    sides = []  # per side: its runs (first n, tables of n, n + 1, ...) and its largest n
    for tables, ns in ((left, ps), (right, qs)):
        runs, n = [], 0
        for n in ns:
            tables[n] = table = {}
            if n - 1 not in tables:
                runs.append((n, run := []))
            run.append(table)
        sides.append((runs, n))
    p_side, q_side = sides
    width = max([j for _, j in xs], default=0) + q_side[1] + 1
    for (a, b), c in xs.items():
        base = a * width + b
        # per side: the exponent e it lowers, f_0, and the code steps per k and per n
        for (runs, top), e, f, key0, down, step in ((p_side, b, c, base, 1, width),
                                                    (q_side, a, -c, base, width, 1)):
            for k in range(1, min(e, top) + 1):
                f = -f * (e - k + 1)
                key0 -= down
                for n, run in runs:
                    if n >= k:
                        key, v = key0 + (n - k) * step, f * comb(n, k)
                    else:
                        run = run[k - n:]  # empty if the run ends below k
                        n, key, v = k, key0, f
                    for table in run:
                        table[key] = table.get(key, 0) + v
                        key += step
                        n += 1
                        v = v * n // (n - k)
    return left, right, width


def commutator(x: WeylElement, y: WeylElement) -> WeylElement:
    """[x, y] = x y - y x in canonical sparse form, summed directly rather
    than as two products, on the integer numerators X = dx*x and Y = dy*y
    (see numerators).  ad X is a derivation, [X, p^c q^d] = [X, p^c] q^d +
    p^c [X, q^d], and in the p-before-q order both products only shift
    exponents.  So each term cy p^c q^d of Y adds cy times the two shifted
    bracket_tables of its exponents, on codes, and the sums, decoded once,
    are the numerators over dx*dy."""
    dx, xs = numerators(x)
    dy, ys = numerators(y)
    left, right, width = bracket_tables(xs, sorted({c for c, _ in ys}), sorted({d for _, d in ys}))
    acc: dict[int, int] = {}
    for (c, d), cy in ys.items():
        for key, v in left[c].items():
            key += d
            acc[key] = acc.get(key, 0) + cy * v
        shift = c * width
        for key, v in right[d].items():
            key += shift
            acc[key] = acc.get(key, 0) + cy * v
    return WeylElement._from_numerators(dx * dy, {divmod(key, width): v for key, v in acc.items()})


def power(x: WeylElement, n: int) -> WeylElement:
    """x^n by binary powering; x^0 = 1."""
    return x ** n


P = WeylElement.monomial(1, 0)
Q = WeylElement.monomial(0, 1)
H = WeylElement.monomial(1, 1)  # h = p*q, already normal ordered
ONE = WeylElement.one()


def format_monomial(exponents: Iterable[int], names: str) -> str:
    """Spelling of a monomial such as p^2*q: a variable with exponent 0 is
    left out, exponent 1 is not written, and the unit monomial is empty."""
    parts = []
    for v, k in zip(names, exponents):
        if k:
            parts.append(v if k == 1 else f"{v}^{k}")
    return "*".join(parts)


def format_ratio(n: int, d: int) -> str:
    """The rational n/d (d > 0) in lowest terms as one string, "-5" or
    "3/4": the text of str(Fraction(n, d)), also past the interpreter's
    limit on int-to-str conversion."""
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:  # past sys.get_int_max_str_digits()
        return _digits(n) if d == 1 else f"{_digits(n)}/{_digits(d)}"


def _digits(n: int) -> str:
    """str(n) for an n of any size: split at a power of ten into halves
    short enough to convert, the lower one padded with zeros."""
    try:
        return str(n)
    except ValueError:
        pass
    k = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(abs(n), 10 ** k)
    return ("-" if n < 0 else "") + _digits(high) + _digits(low).zfill(k)


def format_terms(terms: Iterable[tuple[int, int, str]]) -> str:
    """Join (numerator, denominator, monomial) triples in the given order,
    shared by every printer in the kit: each coefficient's magnitude is
    format_ratio(|n|, d), signs become " + " / " - " separators (a leading
    "-" on the first term), a unit magnitude is elided before a monomial,
    an empty monomial prints the bare magnitude, and no terms print "0"."""
    parts: list[str] = []
    for n, d, mono in terms:
        mag = format_ratio(abs(n), d)
        body = mag if not mono else mono if mag == "1" else f"{mag}*{mono}"
        if parts:
            parts.append(f" - {body}" if n < 0 else f" + {body}")
        else:
            parts.append(f"-{body}" if n < 0 else body)
    return "".join(parts) or "0"


def format_element(x: WeylElement) -> str:
    """Canonical printing: terms sorted by (i+j, i) descending, reduced
    fractional coefficients, p^i*q^j monomials, unit coefficients elided."""
    return str(x)
