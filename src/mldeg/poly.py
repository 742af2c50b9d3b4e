"""Exact multivariate polynomials over the rationals, and the integer resultant.

An MPoly is a map from exponent vectors to fractions.Fraction coefficients
over a VarContext (intpoly), kept canonical (no zero coefficients stored),
with graded-lexicographic order fixed for printing and for every
deterministic iteration.  No floats enter the module.  MPoly holds and
prints the model's polynomials, which model makes term by term, and the
tests build curves with its arithmetic; no route computes with it.  The
curve route reads the curve's polynomial once as an integer term map
(curve._integer_form) and stays on integers from there.  Results of the
arithmetic are canonical by construction and skip the constructor's
per-term validation (MPoly._raw); products and powers are intpoly's
term-map kernels.  The printer formats each coefficient from its numerator
and denominator.

_integer_resultant is the resultant of two integer polynomials in one
variable besides the eliminated one, evaluated at integer points and
interpolated; the curve route eliminates with it.  The tests check it
against Bareiss on the Sylvester matrix (tests/reference.py).
"""

from __future__ import annotations

from fractions import Fraction

from .intpoly import _exp_add, _interpolate, _power, _term_products, _trim


class ContextMismatchError(ValueError):
    """Operands live in different variable contexts."""


def _gl_key(exponents: tuple[int, ...]):
    # graded lexicographic: total degree first, then lexicographic on the vector
    return (sum(exponents), exponents)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected rational scalar, got {type(value).__name__}")


class MPoly:
    """Multivariate polynomial with Fraction coefficients over a VarContext."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: VarContext, terms: dict):
        self.ctx = ctx
        clean = {}
        width = len(ctx)
        for exp, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(exp) != width or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for context of width {width}")
            clean[tuple(exp)] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, ctx: VarContext, terms: dict) -> "MPoly":
        """Trusted constructor for results of the arithmetic, whose terms are
        canonical by construction: tuple exponents of the context's width,
        nonzero Fraction coefficients."""
        p = object.__new__(cls)
        p.ctx = ctx
        p._terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "MPoly":
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx: VarContext, value) -> "MPoly":
        return cls(ctx, {(0,) * len(ctx): _as_fraction(value)})

    @classmethod
    def var(cls, ctx: VarContext, name: str) -> "MPoly":
        exp = [0] * len(ctx)
        exp[ctx.index(name)] = 1
        return cls(ctx, {tuple(exp): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Terms in descending graded-lex order."""
        return [(e, self._terms[e]) for e in sorted(self._terms, key=_gl_key, reverse=True)]

    def term_map(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self._terms)

    def degree_in(self, name: str) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        i = self.ctx.index(name)
        return max(e[i] for e in self._terms)

    def uses(self, name: str) -> bool:
        i = self.ctx.index(name)
        return any(e[i] > 0 for e in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ctx != self.ctx:
                raise ContextMismatchError(
                    f"context mismatch: {self.ctx.names} vs {other.ctx.names}"
                )
            return other
        return MPoly.const(self.ctx, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            c += out.get(exp, 0)
            if c:
                out[exp] = c
            else:
                del out[exp]
        return MPoly._raw(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw(self.ctx, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return MPoly._raw(self.ctx, _term_products([(self._terms, other._terms)], _exp_add))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return MPoly._raw(self.ctx, _power(
            self._terms, n, {(0,) * len(self.ctx): Fraction(1)}, _exp_add))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.ctx, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self._terms.items())))

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms, key=_gl_key, reverse=True):
            c = self._terms[exp]
            num, den = c.numerator, c.denominator
            factors = [name if k == 1 else f"{name}^{k}"
                       for name, k in zip(self.ctx.names, exp) if k]
            # the magnitude as str(abs(c)) writes it, left out when it is 1
            if den != 1:
                factors.insert(0, f"{abs(num)}/{den}")
            elif num not in (1, -1) or not factors:
                factors.insert(0, str(abs(num)))
            parts.append(("- " if num < 0 else "+ ") + "*".join(factors))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"MPoly({self})"


def _sylvester_rows(fcoeffs: list, gcoeffs: list, zero) -> list:
    """Sylvester layout of two coefficient lists given highest power first:
    deg(g) shifted rows of f's coefficients, then deg(f) shifted rows of g's."""
    df, dg = len(fcoeffs) - 1, len(gcoeffs) - 1
    size = df + dg
    rows = [[zero] * i + fcoeffs + [zero] * (size - df - 1 - i) for i in range(dg)]
    rows += [[zero] * i + gcoeffs + [zero] * (size - dg - 1 - i) for i in range(df)]
    return rows


# -- bivariate resultants by evaluation and interpolation over the integers --


def _dense_in(coeffs: list, j: int) -> list:
    """Each integer term map of coeffs as a dense ascending list in the
    exponent at position j of its keys ([] for zero)."""
    out = []
    for coeff in coeffs:
        out.append([])
        for e, c in coeff.items():
            out[-1].extend([0] * (e[j] + 1 - len(out[-1])))
            out[-1][e[j]] = c
    return out


def _degree_window(rows: list):
    """(lo, hi) with lo <= val_t(det) and deg_t(det) <= hi, for a matrix of
    dense coefficient lists in t; None when a row or column is all zero.

    Each term of the determinant takes one entry from every row and every
    column, so its degree is at most the row-sum and the column-sum of the
    largest entry degrees, and its valuation at least the row-sum and the
    column-sum of the smallest valuations of nonzero entries.
    """
    his, los = [], []
    for lines in (rows, list(zip(*rows))):
        hi = lo = 0
        for line in lines:
            entries = [e for e in line if e]
            if not entries:
                return None
            hi += max(len(e) - 1 for e in entries)
            lo += min(next(k for k, c in enumerate(e) if c) for e in entries)
        his.append(hi)
        los.append(lo)
    return max(los), min(his)


def _horner(dense: list, point):
    """A dense ascending list at an integer or Fraction point."""
    value = 0
    for c in reversed(dense):
        value = value * point + c
    return value


def _integer_determinant(a: list) -> int:
    """Bareiss elimination on a square integer matrix (modified in place);
    every division is exact."""
    n = len(a)
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        tail = a[k][k + 1:]
        for i in range(k + 1, n):
            lead = a[i][k]
            a[i][k + 1:] = [(x * pivot - lead * y) // prev
                            for x, y in zip(a[i][k + 1:], tail)]
        prev = pivot
    return sign * a[n - 1][n - 1]


def _integer_resultant(fc: list, gc: list) -> list:
    """The integer Sylvester determinant of two polynomials given as
    coefficient lists in the eliminated variable, highest power first, each
    a dense ascending integer list in t ([] for zero): its coefficients in
    t, highest power first, without leading zeros ([] when it is zero).

    The determinant is t^lo * h with deg h <= hi - lo (see _degree_window);
    h is interpolated from exact integer determinants at t = 1 .. hi - lo + 1.
    """
    window = _degree_window(_sylvester_rows(fc, gc, []))
    if window is None or window[0] > window[1]:
        return []
    lo, hi = window
    values = []
    for point in range(1, hi - lo + 2):
        frow = [_horner(c, point) for c in fc]
        grow = [_horner(c, point) for c in gc]
        values.append(_integer_determinant(_sylvester_rows(frow, grow, 0)) // point ** lo)
    return _trim(_interpolate(values)[::-1] + [0] * lo)
