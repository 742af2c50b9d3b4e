"""Exact multivariate polynomial arithmetic over arbitrary-precision rationals.

An MPoly is a map from exponent vectors to fractions.Fraction coefficients,
kept canonical (no zero coefficients stored), with graded-lexicographic
order fixed for printing and for every deterministic iteration.  No floats
enter the kernel.

Under the MPoly interface the costly work runs on integers, on private
term maps and coefficient lists whose denominators were cleared once:
resultants (in one variable besides the eliminated one) are evaluated at
integer points and interpolated (_integer_resultant); gcds are primitive
pseudo-remainder sequences over Z (_integer_gcd) and over Z[params]
(_gcd_degree, the degree only).  The MPoly functions return the exact
rational results; the plane-curve route, the faithful route's zero
eliminant and mle call the integer kernels directly, and roots splits
squarefree factors by Yun's algorithm on the integer gcd.  The tests
check these kernels against Bareiss on the Sylvester matrix, a rational
Euclid and a rational Yun (tests/reference.py).

Substitution and composition group the terms by their exponents in the
bound variables, so each power of an image, and each group's product of
powers, is formed once.  Results of the arithmetic are canonical by
construction and skip the constructor's per-term validation (MPoly._raw).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import factorial as _factorial
from math import gcd as _int_gcd
from math import lcm as _lcm
from operator import add as _add


class ContextMismatchError(ValueError):
    """Operands live in different variable contexts."""


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

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self._terms.values()), Fraction(0))

    def degree_in(self, name: str) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        i = self.ctx.index(name)
        return max(e[i] for e in self._terms)

    def valuation_in(self, name: str) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no valuation")
        i = self.ctx.index(name)
        return min(e[i] for e in self._terms)

    def uses(self, name: str) -> bool:
        i = self.ctx.index(name)
        return any(e[i] > 0 for e in self._terms)

    def as_univariate(self, name: str) -> dict:
        """Map power -> coefficient polynomial (exponent of name zeroed)."""
        i = self.ctx.index(name)
        buckets: dict[int, dict] = {}
        for exp, c in self._terms.items():
            e = list(exp)
            k = e[i]
            e[i] = 0
            buckets.setdefault(k, {})[tuple(e)] = c
        return {k: MPoly(self.ctx, t) for k, t in buckets.items()}

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

    # -- calculus / maps ----------------------------------------------------

    def partial_derivative(self, name: str) -> "MPoly":
        i = self.ctx.index(name)
        out = {}
        for exp, c in self._terms.items():
            if exp[i] == 0:
                continue
            # distinct terms stay distinct, and no coefficient vanishes
            out[exp[:i] + (exp[i] - 1,) + exp[i + 1:]] = c * exp[i]
        return MPoly._raw(self.ctx, out)

    def substitute(self, bindings: dict) -> "MPoly":
        """Simultaneous substitution; bound variables that end up unused are
        dropped from the context of the result."""
        images = {self.ctx.index(name): self._coerce(value) for name, value in bindings.items()}
        result = self._mapped(images, self.ctx)
        unused = [self.ctx.names[i] for i in images if not result.uses(self.ctx.names[i])]
        if unused:
            result = result.cast(self.ctx.drop(unused))
        return result

    def cast(self, new_ctx: VarContext) -> "MPoly":
        """Re-express over new_ctx; every variable actually used must exist there."""
        mapping = []
        for i, name in enumerate(self.ctx.names):
            mapping.append(new_ctx.names.index(name) if name in new_ctx else None)
        out = {}
        for exp, c in self._terms.items():
            e = [0] * len(new_ctx)
            for i, k in enumerate(exp):
                if k == 0:
                    continue
                j = mapping[i]
                if j is None:
                    raise ValueError(f"variable {self.ctx.names[i]!r} used but absent from target context")
                e[j] = k
            # distinct exponents stay distinct: only unused variables are dropped
            out[tuple(e)] = c
        return MPoly._raw(new_ctx, out)

    def compose(self, images: dict, target_ctx: VarContext) -> "MPoly":
        """Total ring map: every context variable must be sent to an MPoly
        over target_ctx (or a rational scalar)."""
        sent = {}
        for i, name in enumerate(self.ctx.names):
            if name not in images:
                raise ValueError(f"no image given for {name!r}")
            value = images[name]
            if not isinstance(value, MPoly):
                value = MPoly.const(target_ctx, value)
            elif value.ctx != target_ctx:
                raise ContextMismatchError("image not over target context")
            sent[i] = value
        return self._mapped(sent, target_ctx)

    def _mapped(self, images: dict, ctx: VarContext) -> "MPoly":
        """The ring map sending variable i to images[i], an MPoly over ctx,
        and every other variable to itself (so ctx is self.ctx unless every
        variable is bound).

        Terms are grouped by their exponents in the bound variables: each
        power of an image is formed once, by repeated multiplication, and
        each group's kept part is multiplied by its product of powers once.
        With constant images that product is one constant term, so each
        term of the group costs one scalar multiply."""
        groups: dict = {}
        for exp, c in self._terms.items():
            kept = [0] * len(ctx)
            for i, k in enumerate(exp):
                if i not in images:
                    kept[i] = k
            groups.setdefault(tuple(exp[i] for i in images), {})[tuple(kept)] = c
        one = MPoly.const(ctx, 1)
        powers = {i: [one] for i in images}

        def products():
            for key, kept in groups.items():
                factor = one
                for i, k in zip(images, key):
                    table = powers[i]
                    while len(table) <= k:
                        table.append(table[-1] * images[i])
                    factor = factor * table[k]
                yield kept, factor._terms

        return MPoly._raw(ctx, _term_products(products(), _exp_add))

    def eval_complex(self, point: dict) -> complex:
        """Evaluate at a complex point binding every variable that appears.

        Terms are accumulated in descending graded-lex order with cached
        variable powers, so identical inputs give bit-identical results.
        """
        powers: list[list[complex]] = []
        for i, name in enumerate(self.ctx.names):
            top = max((e[i] for e in self._terms), default=0)
            if top and name not in point:
                raise ValueError(f"unbound variable {name!r}")
            v = complex(point[name]) if name in point else 0j
            row = [1.0 + 0j]
            for _ in range(top):
                row.append(row[-1] * v)
            powers.append(row)
        total = 0j
        for exp in sorted(self._terms, key=_gl_key, reverse=True):
            term = complex(self._terms[exp])
            for i, k in enumerate(exp):
                if k:
                    term *= powers[i][k]
            total += term
        return total

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp in sorted(self._terms, key=_gl_key, reverse=True):
            c = self._terms[exp]
            factors = []
            for name, k in zip(self.ctx.names, exp):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            mag = abs(c)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"MPoly({self})"


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


def _sylvester_rows(fcoeffs: list, gcoeffs: list, zero) -> list:
    """Sylvester layout of two coefficient lists given highest power first:
    deg(g) shifted rows of f's coefficients, then deg(f) shifted rows of g's."""
    df, dg = len(fcoeffs) - 1, len(gcoeffs) - 1
    size = df + dg
    rows = [[zero] * i + fcoeffs + [zero] * (size - df - 1 - i) for i in range(dg)]
    rows += [[zero] * i + gcoeffs + [zero] * (size - dg - 1 - i) for i in range(df)]
    return rows


def resultant(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Resultant in name, the determinant of the Sylvester matrix, of f and
    g over one context using at most one variable t besides name.

    It is computed over the integers by evaluation at integer points and
    interpolation (_integer_resultant): with m_f, m_g the denominator lcms,
    Res(f, g) = Res(m_f f, m_g g) / (m_f^deg g * m_g^deg f).  Sign is not
    normalized; callers compare up to a nonzero rational scalar.  More
    variables raise ValueError: no caller has them.
    """
    if f.ctx != g.ctx:
        raise ContextMismatchError("operands in different contexts")
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of a zero polynomial")
    if f.degree_in(name) + g.degree_in(name) < 1:
        raise ValueError("both polynomials have degree 0 in the eliminated variable")
    others = [n for n in f.ctx.names if n != name and (f.uses(n) or g.uses(n))]
    if len(others) > 1:
        raise ValueError(f"resultant in {name!r} of polynomials in {others}")
    t = next(iter(others), name)  # name: the resultant is a constant
    (fc, mf), (gc, mg) = _integer_coeffs(f, name), _integer_coeffs(g, name)
    j = f.ctx.index(t)
    denominator = mf ** (len(gc) - 1) * mg ** (len(fc) - 1)
    res = _integer_resultant(_dense_in(fc, j), _dense_in(gc, j))
    return from_dense(f.ctx, t, [Fraction(c, denominator) for c in reversed(res)])


# -- bivariate resultants by evaluation and interpolation over the integers --


def _integer_coeffs(f: MPoly, name: str) -> tuple[list, int]:
    """(coeffs, m): the coefficients of m*f in name, highest power first,
    each an integer term map over f's exponent vectors with the exponent of
    name set to 0 ({} for zero), where m is the lcm of the coefficient
    denominators of f."""
    m = _lcm(*(c.denominator for c in f._terms.values()))
    i = f.ctx.index(name)
    top = max((e[i] for e in f._terms), default=-1)
    coeffs = [{} for _ in range(top + 1)]
    for e, c in f._terms.items():
        coeffs[top - e[i]][e[:i] + (0,) + e[i + 1:]] = c.numerator * (m // c.denominator)
    return coeffs, m


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


def _horner(dense: list, point: int) -> int:
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


# -- univariate polynomials -----------------------------------------------


def from_dense(ctx: VarContext, name: str, coeffs) -> MPoly:
    i = ctx.index(name)
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            e = [0] * len(ctx)
            e[i] = k
            terms[tuple(e)] = _as_fraction(c)
    return MPoly(ctx, terms)
