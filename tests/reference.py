"""Reference code the tests compare the engine against; mldeg does not use it.

Bareiss on the Sylvester matrix (determinant_fraction_free over a
PolyMatrix, on integer rows with packed exponents) is the general resultant
that poly.resultant and the closed-form two-one resultant in critical are
checked against; univariate_gcd and eval_exact are the plain rational
Euclid and evaluation that the integer kernels are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm as _lcm
from operator import lshift as _lshift

from mldeg.poly import (
    ContextMismatchError,
    MPoly,
    NonExactDivisionError,
    VarContext,
    _as_fraction,
    _dense_gcd,
    _require_univariate,
    _sylvester_rows,
    _term_products,
    dense_coeffs,
    from_dense,
)


def eval_exact(f: MPoly, point: dict) -> Fraction:
    """Exact evaluation of f at a rational point binding every variable."""
    values = []
    for name in f.ctx.names:
        if name not in point:
            raise ValueError(f"unbound variable {name!r}")
        values.append(_as_fraction(point[name]))
    total = Fraction(0)
    for exp, term in f.items():
        for i, k in enumerate(exp):
            if k:
                term *= values[i] ** k
        total += term
    return total


@dataclass(frozen=True)
class PolyMatrix:
    """Rectangular matrix of MPoly entries sharing one context."""

    entries: tuple[tuple[MPoly, ...], ...]

    def __post_init__(self):
        if not self.entries or not self.entries[0]:
            raise ValueError("matrix must be nonempty")
        width = len(self.entries[0])
        ctx = self.entries[0][0].ctx
        for row in self.entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for e in row:
                if e.ctx != ctx:
                    raise ContextMismatchError("matrix entries in different contexts")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0])

    @property
    def ctx(self) -> VarContext:
        return self.entries[0][0].ctx


def determinant_fraction_free(m: PolyMatrix) -> MPoly:
    """Determinant by the Bareiss fraction-free elimination, over the integers.

    Each row is scaled by the lcm of its coefficient denominators, which
    multiplies the determinant by that lcm; Bareiss then runs on integer
    term maps, and the product of the row scales is divided out once at the
    end.  Every division performed is exact by the Bareiss identity, so the
    computation stays inside Z[vars]; row swaps flip the sign.

    Exponent vectors are packed into one int each, variable 0 most
    significant.  Every entry Bareiss forms is a minor, whose degree in a
    variable is at most the row-sum of the largest entry degrees in it, so
    a field twice that wide holds the product of two minors; one guard bit
    above it lets _int_exact_divide see a negative exponent.  A monomial
    product is then one addition, and the largest key is the lex leading
    monomial.
    """
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    n = m.nrows
    if n == 1:
        return m.entries[0][0]
    bits = [(2 * sum(max((e[v] for entry in row for e in entry._terms), default=0)
                     for row in m.entries)).bit_length() + 1 for v in range(len(m.ctx))]
    shifts = [sum(bits[v + 1:]) for v in range(len(bits))]
    guard = sum(1 << s + b - 1 for s, b in zip(shifts, bits))
    scale = 1
    a = []
    for row in m.entries:
        lcm = _lcm(*(c.denominator for entry in row for c in entry._terms.values()))
        scale *= lcm
        a.append([{sum(map(_lshift, e, shifts)): c.numerator * (lcm // c.denominator)
                   for e, c in entry._terms.items()} for entry in row])
    sign = 1
    prev = None  # the constant 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return MPoly.zero(m.ctx)
        pivot = a[k][k]
        for i in range(k + 1, n):
            lead = {e: -c for e, c in a[i][k].items()}
            for j in range(k + 1, n):
                num = _term_products(((a[i][j], pivot), (lead, a[k][j])))
                a[i][j] = num if prev is None else _int_exact_divide(num, prev, guard)
            a[i][k] = {}
        prev = pivot
    return MPoly._raw(m.ctx, {
        tuple(e >> s & (1 << b) - 1 for s, b in zip(shifts, bits)): Fraction(sign * c, scale)
        for e, c in a[n - 1][n - 1].items()})


def _int_exact_divide(a: dict, b: dict, guard: int) -> dict:
    """Quotient of packed integer term maps a/b, known to lie in Z[vars];
    raises NonExactDivisionError on a remainder or a negative exponent.

    Leading-term reduction as in poly.exact_divide, in lex order (the largest
    key), with divmod on the integers.  With every guard bit set on the
    dividend's leading monomial, subtracting the divisor's clears the guard
    bit of each field that would go negative, and borrows from no other
    field."""
    lead_b = max(b)
    cb = b[lead_b]
    rem = dict(a)
    quo: dict = {}
    while rem:
        lead_r = max(rem)
        qc, r = divmod(rem[lead_r], cb)
        if r or ((lead_r | guard) - lead_b) & guard != guard:
            raise NonExactDivisionError("non-exact division (corrupt elimination state)")
        diff = lead_r - lead_b
        quo[diff] = qc
        for eb, c in b.items():
            key = diff + eb
            new = rem.get(key, 0) - qc * c
            if new:
                rem[key] = new
            else:
                del rem[key]
    return quo


def sylvester_matrix(f: MPoly, g: MPoly, name: str) -> PolyMatrix:
    """Sylvester matrix of f and g viewed as univariate in name.

    Layout: deg(g) shifted rows of f's coefficients (highest power first),
    then deg(f) shifted rows of g's.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("sylvester matrix of a zero polynomial")
    df = f.degree_in(name)
    dg = g.degree_in(name)
    if df + dg < 1:
        raise ValueError("both polynomials have degree 0 in the eliminated variable")
    zero = MPoly.zero(f.ctx)
    fc = f.as_univariate(name)
    gc = g.as_univariate(name)
    frow = [fc.get(k, zero) for k in range(df, -1, -1)]
    grow = [gc.get(k, zero) for k in range(dg, -1, -1)]
    return PolyMatrix(tuple(tuple(row) for row in _sylvester_rows(frow, grow, zero)))


def univariate_gcd(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Monic gcd of two univariate rational polynomials (Euclid)."""
    _require_univariate(f, name)
    _require_univariate(g, name)
    if f.ctx != g.ctx:
        raise ContextMismatchError("operands in different contexts")
    d = _dense_gcd(dense_coeffs(f, name), dense_coeffs(g, name))
    return from_dense(f.ctx, name, d)
