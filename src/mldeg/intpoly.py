"""Integer polynomial kernels, with no MPoly.

The costly work of every route runs here, on Python integers: products of
integer term maps (_term_products, _power), whose monomials are packed
ints or exponent tuples; interpolation of an integer polynomial from its
values (_interpolate); and gcds by primitive pseudo-remainder sequences
over Z (_integer_gcd) and over Z[params] (_gcd_degree, the degree only),
on coefficient lists given highest power first.  The faithful count
(critical) and the estimate (mle) call only these and VarContext, which
names a model's variables; the curve route and its resultant, roots and
the tests' MPoly (poly) build on them.  The tests check these
kernels against a rational Euclid and a rational Yun (tests/reference.py).
"""

from __future__ import annotations

from collections import namedtuple
from math import factorial as _factorial
from math import gcd as _int_gcd
from operator import add as _add


class VarContext(namedtuple("VarContext", "names")):
    """An ordered tuple of distinct variable names; what each one stands
    for is known to the module that builds the context.

    len() and `in` speak of the names.  _make, and so _replace, go through
    the constructor and its check."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, names: tuple[str, ...]):
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        return super().__new__(cls, names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"variable {name!r} not in context {self.names}") from None

    def drop(self, names) -> "VarContext":
        gone = set(names)
        return VarContext(tuple(n for n in self.names if n not in gone))

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)


# -- integer term maps ---------------------------------------------------


def _exp_add(e1: tuple, e2: tuple) -> tuple:
    return tuple(map(_add, e1, e2))


def _term_products(pairs, combine=_add) -> dict:
    """Sum of the products of the term maps in each pair, without zero
    coefficients; combine multiplies two monomials (by default the addition
    of packed exponents)."""
    out: dict = {}
    for a, b in pairs:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = combine(e1, e2)
                if e in out:
                    out[e] += c1 * c2
                else:
                    out[e] = c1 * c2
    return {e: c for e, c in out.items() if c}


def _power(terms: dict, k: int, one: dict, combine=_add) -> dict:
    """one * terms**k by repeated squaring: one is any term map, the
    constant 1 for the plain power, and combine multiplies two monomials,
    as in _term_products."""
    out = one
    while k:
        if k & 1:
            out = _term_products([(out, terms)], combine)
        k >>= 1
        if k:
            terms = _term_products([(terms, terms)], combine)
    return out


def _interpolate(values: list) -> list:
    """Ascending integer coefficients of the polynomial h of degree below
    len(values) with h(k + 1) = values[k], known to have integer coefficients.

    Newton form on the forward differences, scaled by (n - 1)! so that every
    step stays in the integers; one exact division at the end.
    """
    n = len(values)
    diffs = list(values)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            diffs[i] -= diffs[i - 1]
    scale = _factorial(n - 1)
    # h(t) * (n-1)! = sum_j diffs[j] * (n-1)!/j! * (t - 1)(t - 2)...(t - j)
    poly = [diffs[n - 1]]
    weight = 1  # (n-1)! / j!
    for j in range(n - 2, -1, -1):
        weight *= j + 1
        shifted = [0] + poly
        for k, c in enumerate(poly):
            shifted[k] -= (j + 1) * c
        shifted[0] += diffs[j] * weight
        poly = shifted
    return [c // scale for c in poly]


# -- integer polynomials, highest power first --------------------------------


def _trim(f: list) -> list:
    """f without its leading zero coefficients."""
    while f and not f[0]:
        f = f[1:]
    return f


def _primitive(f: list) -> list:
    """Nonzero f divided by its content, with a positive leading coefficient."""
    content = _int_gcd(*f) if f[0] > 0 else -_int_gcd(*f)
    return [x // content for x in f]


def _derivative(f: list) -> list:
    n = len(f) - 1
    return [c * (n - k) for k, c in enumerate(f[:-1])]


def _integer_gcd(f: list, g: list) -> list:
    """The primitive gcd of two nonzero integer polynomials (highest degree
    first), by a primitive pseudo-remainder sequence: each pseudo-remainder
    is a multiple of f mod g, and dividing out its content keeps the
    coefficients as small as the gcd allows."""
    f, g = _primitive(f), _primitive(g)
    while True:
        r = f
        while len(r) >= len(g):
            # r * lc(g) - lc(r) * x^k * g, whose leading coefficient is zero
            pad = [0] * (len(r) - len(g))
            r = _trim([g[0] * x - r[0] * y for x, y in zip(r[1:], g[1:] + pad)])
        if not r:
            return g
        f, g = g, _primitive(r)


def _gcd_degree(f: list, g: list) -> int:
    """Degree of gcd(f, g) over the fraction field of the coefficient ring,
    for f and g highest power first with coefficients in Z[params]: integer
    term maps over tuple exponents ({} for zero).

    The pseudo-remainder sequence of _integer_gcd over Z[params], each
    remainder divided by its integer content; a nonzero scalar changes no
    gcd degree.
    """
    # a shorter f only swaps the two in the first pass
    f, g = _trim(f), _trim(g)
    while len(g) > 1:
        r = f
        while len(r) >= len(g):
            lead = {e: -c for e, c in r[0].items()}
            pad = [{}] * (len(r) - len(g))
            r = _trim([_term_products(((g[0], x), (lead, y)), _exp_add)
                       for x, y in zip(r[1:], g[1:] + pad)])
        if r:
            content = _int_gcd(*(c for t in r for c in t.values()))
            r = [{e: c // content for e, c in t.items()} for t in r]
        f, g = g, r
    return 0 if g else max(len(f) - 1, 0)
