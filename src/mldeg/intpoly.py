"""Integer polynomial kernels, with no MPoly.

The costly work of every route runs here, on Python integers: products of
integer term maps (_term_products, _power), whose monomials are packed
ints or exponent tuples, and the engine's one remainder sequence, the
subresultant sequence over Z[t] (_remainders), on coefficient lists given
highest power first, each coefficient an integer term map in one integer
exponent, divided exactly by _exact_quotient.  Its last remainder gives
every gcd the engine takes: the primitive integer gcd (_integer_gcd), the
gcd degree over the fraction field of Z[t], with t a generic constant,
and the resultant, whose closing step is curve's.  The faithful count
(critical) expands its eliminant by the multinomial theorem and calls
none of these kernels, and the estimate (mle) only _integer_gcd,
_derivative and _trim; VarContext, which names a model's variables,
serves model and poly.  The curve route and its
resultant, roots and the tests' MPoly (poly) build on these kernels.
The tests check them against a rational Euclid, a multivariate
pseudo-remainder sequence, a rational Yun and Bareiss on the Sylvester
matrix (tests/reference.py).
"""

from __future__ import annotations

from collections import namedtuple
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


def _exact_quotient(a: dict, b: dict) -> dict:
    """a / b for integer term maps in one integer exponent, where b divides
    a: long division, each step on the top term left in a, so that only
    keys that a and the products hold are visited (packed keys are sparse);
    each quotient coefficient is exact."""
    top = max(b)
    a, q = dict(a), {}
    while a:
        k = max(a)
        q[k - top] = c = a[k] // b[top]
        for e, x in b.items():
            e += k - top
            a[e] = a.get(e, 0) - c * x
            if not a[e]:
                del a[e]
    return q


def _remainders(A: list, B: list) -> tuple:
    """(A, B, h, sign) at the end of the subresultant remainder sequence of
    two polynomials f and g over Z[t] (Collins 1967; Cohen, A Course in
    Computational Algebraic Number Theory, Alg. 3.3.7), given highest power
    first with nonzero leading coefficients, each an integer term map in
    one integer exponent ({} for zero).  B is the last nonzero remainder
    and A the one before it; a sequence that takes no step returns the
    longer input as A and the other as B.  h is the sequence's running
    scale, and sign the sign that the resultant's closing step puts on
    B[0]^deg(A) (curve._integer_resultant).

    Each pseudo-remainder is divided exactly by g * h^delta, g the leading
    coefficient of the last divisor, which keeps its coefficients those of
    a subresultant, each a minor of the Sylvester matrix.  The sequence
    stops at a remainder of degree 0 or at a zero one; B is then similar
    to gcd(f, g) over the fraction field, so its degree is the gcd's.  A
    key may be a packed monomial read as one exponent (Kronecker): when no
    Sylvester minor overflows a field, that reading is injective on every
    remainder, and the sequence is the image of the multivariate one.
    """
    one = {0: 1}
    # Res(f, g) = (-1)^(deg f * deg g) Res(g, f)
    sign = 1
    if len(A) < len(B):
        A, B, sign = B, A, (-1) ** ((len(A) - 1) * (len(B) - 1))
    g = h = one
    while len(B) > 1:
        delta = len(A) - len(B)
        sign *= (-1) ** ((len(A) - 1) * (len(B) - 1))
        # the pseudo-remainder lc(B)^(delta + 1) * A mod B, one step per degree
        r = A
        for _ in range(delta + 1):
            lead = {e: -c for e, c in r[0].items()}
            pad = [{}] * (len(r) - len(B))
            r = [_term_products(((B[0], x), (lead, y))) for x, y in zip(r[1:], B[1:] + pad)]
        r = _trim(r)
        if not r:
            break
        divisor = _power(h, delta, g)
        A, B = B, [_exact_quotient(c, divisor) for c in r]
        g = A[0]
        if delta:
            h = _exact_quotient(_power(g, delta, one), _power(h, delta - 1, one))
    return A, B, h, sign


def _integer_gcd(f: list, g: list) -> list:
    """The primitive gcd of two nonzero integer polynomials (highest degree
    first): the primitive part of the last remainder of their subresultant
    sequence (_remainders), each coefficient a constant term map."""
    last = _remainders(*([{0: c} if c else {} for c in h] for h in (f, g)))[1]
    return _primitive([c.get(0, 0) for c in last])
