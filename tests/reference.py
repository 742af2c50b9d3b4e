"""Reference code the tests compare the engine against; mldeg does not use it.

Bareiss on the Sylvester matrix (determinant_fraction_free over a
PolyMatrix, on integer rows with packed exponents) is the general resultant
that poly.resultant and the closed-form two-one resultant in critical are
checked against; univariate_gcd, squarefree_decomposition and eval_exact
are the plain rational Euclid, Yun's algorithm over the rationals and
evaluation that the integer kernels are checked against; exact_divide is
multivariate division that must leave no remainder.  pullback_is_zero
composes F_affine with a monomial map's images and folds the radical
(reduce_radical): the rational check that model's exact integer
composition check is compared against.

critical_system builds the critical equations as MPoly, from the map's
images by partial_derivative: the equations the faithful route's integer
term maps stand for.  bareiss_eliminant is their eliminant by Bareiss,
and engine_eliminant expands the integer eliminant of critical over the
same context, so the two can be compared.  critical packs each monomial
into one int: packed_poly and unpacked read such maps with tuple
exponents (equation_layout and folded_layout name the fields), and
two_one_resultant and fold are the tuple kernels that critical's packed
_two_one_resultant and _fold are checked against.

circuit_degree, discriminant_ke and circuit_ml_degree are the closed form
of the ML degree of one reaction, read off its stoichiometric vector (the
circuit) alone: the count that mle's extent count must give at generic
data.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _gcd
from math import lcm as _lcm
from operator import lshift as _lshift
from operator import mul as _mul

from mldeg import critical
from mldeg.model import build_parameterization
from mldeg.poly import (
    ContextMismatchError,
    MPoly,
    VarContext,
    _as_fraction,
    _exp_add,
    _gl_key,
    _power,
    _sylvester_rows,
    _term_products,
    from_dense,
)


class NonExactDivisionError(ArithmeticError):
    """Exact division requested but the divisor does not divide the dividend."""


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

    Leading-term reduction as in exact_divide, in lex order (the largest
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


def reduce_radical(p: MPoly, relation) -> MPoly:
    """Fold powers of the radical of a RadicalRelation (or None):
    s**e -> K_e**(e//k) * s**(e%k)."""
    if relation is None or relation.symbol not in p.ctx:
        return p
    s_index = p.ctx.index(relation.symbol)
    ke_index = p.ctx.index("K_e") if relation.ke.is_generic else None
    out: dict = {}
    for exp, coeff in p.term_map().items():
        q, r = divmod(exp[s_index], relation.power)
        e = list(exp)
        e[s_index] = r
        if q:
            if ke_index is None:
                coeff = coeff * relation.ke.value ** q
            else:
                e[ke_index] += q
        key = tuple(e)
        out[key] = out.get(key, Fraction(0)) + coeff
    return MPoly(p.ctx, out)


def pullback_is_zero(model, parameterization) -> bool:
    """Whether model.F_affine composed with the images of a
    build_parameterization result (K_e to itself when generic) vanishes
    modulo the radical relation."""
    shape, images = parameterization
    images = dict(images)
    ctx = next(iter(images.values())).ctx
    if model.ke.is_generic:
        images["K_e"] = MPoly.var(ctx, "K_e")
    composed = model.F_affine.compose(images, ctx)
    return reduce_radical(composed, shape.radical).is_zero()


class CriticalSystem(namedtuple(
        "CriticalSystem", "shape counts ctx images constraint_pullback weights equations")):
    """The critical equations (MPoly over ctx) of a model's monomial map at
    ObservationCounts, with the map, the constraint's pullback and the
    count weights."""

    __slots__ = ()

    @property
    def survivor(self) -> str:
        return self.shape.param_vars[-1]


def critical_system(model, counts) -> CriticalSystem:
    """f_i = lam * t_i * dg/dt_i - w_i over (parameters, lam, s, K_e, u...),
    g = sum(images) - 1 and w_i = sum(e * u) along row i of the exponent
    matrix: u0, u1, ... symbols for symbolic counts, the integers
    otherwise."""
    shape, images = build_parameterization(model)
    params = shape.param_vars
    symbols = tuple(f"u{i}" for i in range(counts.size)) * counts.is_symbolic
    ctx = VarContext(params + ("lam",) + shape.constants + symbols)
    g = MPoly.const(ctx, -1)
    for image in images.values():
        g = g + image.cast(ctx)
    u = [MPoly.var(ctx, n) for n in symbols] if counts.is_symbolic else counts.values
    weights = tuple(sum(map(_mul, row, u), MPoly.zero(ctx)) for row in shape.exponent_matrix)
    lam = MPoly.var(ctx, "lam")
    equations = tuple(
        lam * MPoly.var(ctx, t) * g.partial_derivative(t) - w for t, w in zip(params, weights)
    )
    return CriticalSystem(shape, counts, ctx, images, g, weights, equations)


def bareiss_eliminant(system: CriticalSystem) -> MPoly:
    """The eliminant of the system's equations: f0 itself for one
    parameter, Bareiss on the Sylvester matrix in t0 for two; radical
    folded."""
    eliminant = system.equations[0]
    if len(system.equations) == 2:
        eliminant = determinant_fraction_free(sylvester_matrix(*system.equations, "t0"))
    return reduce_radical(eliminant, system.shape.radical)


def packed_poly(terms: dict, bits: int, layout: tuple, ctx: VarContext, den: int = 1) -> MPoly:
    """A packed term map of critical (field i of a key, bits bits wide and
    field 0 lowest, is the exponent of layout[i]) as the MPoly terms/den
    over ctx.  A key must have no bit above the layout's fields and no
    exponent in a field whose name ctx lacks; a name of ctx outside the
    layout gets exponent 0."""
    field = (1 << bits) - 1
    out = {}
    for e, c in terms.items():
        exps = dict(zip(layout, (e >> i * bits & field for i in range(len(layout)))))
        assert e >> len(layout) * bits == 0, (e, layout)
        assert all(exps[n] == 0 for n in layout if n not in ctx), (e, layout, ctx)
        out[tuple(exps.get(n, 0) for n in ctx.names)] = Fraction(c, den)
    return MPoly(ctx, out)


def unpacked(terms: dict, bits: int, size: int) -> dict:
    """A packed term map of critical with tuple exponents of its first
    size fields, field 0 first."""
    field = (1 << bits) - 1
    return {tuple(e >> i * bits & field for i in range(size)): c for e, c in terms.items()}


def equation_layout(shape) -> tuple:
    """The fields of critical._equations: (t..., lam, w..., mu)."""
    weights = tuple(f"w{i}" for i in range(len(shape.param_vars)))
    return shape.param_vars + ("lam",) + weights + ("mu",)


def folded_layout(shape) -> tuple:
    """The fields of critical._fold: (t..., lam, w..., s, K_e)."""
    return equation_layout(shape)[:-1] + ("s", "K_e")


def over_counts(system: CriticalSystem, folded: tuple, bits: int) -> MPoly:
    """An integer term map of critical, (terms, den) as critical._fold gives
    it, packed (t..., lam, w..., s, K_e) in fields of bits bits, as the
    MPoly terms/den over system.ctx: each weight symbol w_i sent to
    system.weights[i]."""
    terms, den = folded
    names = system.ctx.drop(f"u{i}" for i in range(system.counts.size)).names
    weights = tuple(f"w{i}" for i in range(len(system.weights))) * system.counts.is_symbolic
    f = packed_poly(terms, bits, folded_layout(system.shape), VarContext(names + weights), den)
    into = {n: MPoly.var(system.ctx, n) for n in names}
    into.update(zip(weights, system.weights))
    return f.compose(into, system.ctx)


def two_one_resultant(f0: dict, f1: dict) -> dict:
    """Res(f0, f1, t0) in closed form, for integer term maps with tuple
    exponents, t0 first; the result has t0 exponent 0.  The tuple kernel
    that critical._two_one_resultant packs: f0 = A*t0**p + B*t0**n + E
    (B merged into A when p = n), f1 = C*t0**n + D, a = max(p, n),
    d = gcd(n, p), and Res = (-1)**(a*n) * G**d with
    G = (E*C - B*D)**(n/d) * C**((a-n)/d) - (-A)**(n/d) * (-D)**(p/d) * C**((a-p)/d).
    Any other shape raises AssertionError."""
    c0, c1 = {}, {}
    for f, c in ((f0, c0), (f1, c1)):
        for e, v in f.items():
            c.setdefault(e[0], {})[(0,) + e[1:]] = v
    a, n = max(c0, default=0), max(c1, default=0)
    others = c0.keys() - {n, 0}
    p = max(others, default=n)
    if n < 1 or c1.keys() != {n, 0} or len(others) > 1 or a != max(p, n):
        raise AssertionError(
            f"expected f0 = A*t0^p + B*t0^n + E and f1 = C*t0^n + D, got {f0} and {f1}")
    A, B, E = c0[p], c0.get(n, {}) if p != n else {}, c0.get(0, {})
    C, D = c1[n], c1[0]
    d = _gcd(n, p)
    one = {(0,) * len(next(iter(f0))): 1}

    def neg(terms):
        return {e: -c for e, c in terms.items()}

    left = _term_products([(E, C), (neg(B), D)], _exp_add)
    right = _term_products(
        [(_power(neg(A), n // d, one, _exp_add), _power(neg(D), p // d, one, _exp_add))], _exp_add
    )
    g = _power(_term_products([
        (_power(left, n // d, one, _exp_add), _power(C, (a - n) // d, one, _exp_add)),
        (neg(right), _power(C, (a - p) // d, one, _exp_add)),
    ], _exp_add), d, one, _exp_add)
    return neg(g) if a * n % 2 else g


def fold(terms: dict, shape) -> tuple[dict, int]:
    """critical._fold on tuple exponents whose last entry is mu: (folded,
    den) with mu**e -> s**r * K_e**q (generic K_e) or s**r * v**q (K_e = v),
    e = q*k + r for the shape's (k, v) = shape.fold, keyed (..., s, K_e)
    and v**q cleared by den = denominator(v)**max(q)."""
    k, v = shape.fold
    num, den = (v or 1).as_integer_ratio()
    top = max((e[-1] // k for e in terms), default=0)
    out: dict = {}
    for e, c in terms.items():
        q, r = divmod(e[-1], k)
        key = e[:-1] + (r, q if v is None else 0)
        out[key] = out.get(key, 0) + c * num ** q * den ** (top - q)
    return {e: c for e, c in out.items() if c}, den ** top


def engine_eliminant(system: CriticalSystem) -> MPoly | None:
    """critical's integer eliminant at the system's K_e (_eliminant_terms,
    folded by _fold) over system.ctx; None when it is zero."""
    shape = system.shape
    terms, bits = critical._eliminant_terms(shape, system.counts)
    folded = critical._fold(terms, shape, bits)
    return over_counts(system, folded, bits) if folded[0] else None


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


def exact_divide(a: MPoly, b: MPoly) -> MPoly:
    """Quotient a/b when b divides a exactly; NonExactDivisionError otherwise.

    Standard single-divisor reduction in graded-lex order: the leading term
    of the running remainder must always be divisible by the leading term of
    b, which characterizes exact divisibility over an integral domain.
    """
    if b.ctx != a.ctx:
        raise ContextMismatchError("operands in different contexts")
    if b.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if a.is_zero():
        return MPoly.zero(a.ctx)
    bt = b.term_map()
    lead_b = max(bt, key=_gl_key)
    cb = bt[lead_b]
    rem = a.term_map()
    quo: dict = {}
    while rem:
        lead_r = max(rem, key=_gl_key)
        diff = tuple(x - y for x, y in zip(lead_r, lead_b))
        if any(d < 0 for d in diff):
            raise NonExactDivisionError("non-exact division (corrupt elimination state)")
        qc = rem[lead_r] / cb
        quo[diff] = qc
        for eb, c in bt.items():
            key = tuple(x + y for x, y in zip(diff, eb))
            new = rem.get(key, Fraction(0)) - qc * c
            if new == 0:
                rem.pop(key, None)
            else:
                rem[key] = new
    return MPoly(a.ctx, quo)


# -- dense univariate helpers over the rationals ----------------------------


def _require_univariate(f: MPoly, name: str):
    i = f.ctx.index(name)
    for exp in f.term_map():
        for j, k in enumerate(exp):
            if j != i and k != 0:
                raise ValueError(f"polynomial is not univariate in {name!r}")


def dense_coeffs(f: MPoly, name: str) -> list[Fraction]:
    """Ascending coefficient list of a univariate polynomial."""
    _require_univariate(f, name)
    if f.is_zero():
        return []
    i = f.ctx.index(name)
    out = [Fraction(0)] * (f.degree_in(name) + 1)
    for exp, c in f.term_map().items():
        out[exp[i]] = c
    return out


def _dense_trim(c: list[Fraction]) -> list[Fraction]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _dense_divmod(a: list[Fraction], b: list[Fraction]):
    a = _dense_trim(list(a))
    b = _dense_trim(list(b))
    if not b:
        raise ZeroDivisionError("dense division by zero")
    m = len(b)
    if len(a) < m:
        return [], a
    q = [Fraction(0)] * (len(a) - m + 1)
    inv = 1 / b[-1]
    while len(a) >= m:
        k = len(a) - m
        f = a[-1] * inv
        q[k] = f
        for i in range(m):
            a[i + k] -= f * b[i]
        a.pop()
        _dense_trim(a)
    return q, a


def _dense_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    out = [
        (a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
        for i in range(n)
    ]
    return _dense_trim(out)


def _dense_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _dense_trim(list(a)), _dense_trim(list(b))
    while b:
        _, r = _dense_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _dense_derivative(a: list[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(a)][1:]


def squarefree_decomposition(f: MPoly, name: str) -> list[tuple[MPoly, int]]:
    """Yun's algorithm: f = c * prod(p_i ** i) with the p_i squarefree, monic.

    Factors of multiplicity i with degree 0 are omitted, so the product of
    the returned factors (with multiplicities) is f up to a rational scalar.
    """
    _require_univariate(f, name)
    if f.is_zero():
        raise ValueError("decomposition of the zero polynomial")
    a = dense_coeffs(f, name)
    if len(a) == 1:
        return []
    a = [c / a[-1] for c in a]
    ap = _dense_derivative(a)
    g = _dense_gcd(a, ap)
    b, _ = _dense_divmod(a, g)
    c, _ = _dense_divmod(ap, g)
    d = _dense_sub(c, _dense_derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        # gcd(b, 0) is monic b, which is exactly the last factor case
        p = _dense_gcd(b, d)
        if len(p) > 1:
            out.append((from_dense(f.ctx, name, p), i))
        b, _ = _dense_divmod(b, p)
        c, _ = _dense_divmod(d, p)
        d = _dense_sub(c, _dense_derivative(b))
        i += 1
    return out


def univariate_gcd(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Monic gcd of two univariate rational polynomials (Euclid)."""
    _require_univariate(f, name)
    _require_univariate(g, name)
    if f.ctx != g.ctx:
        raise ContextMismatchError("operands in different contexts")
    d = _dense_gcd(dense_coeffs(f, name), dense_coeffs(g, name))
    return from_dense(f.ctx, name, d)


def circuit_degree(c) -> int:
    """max(P, N), for P and N the sums of the positive and of the negated
    negative entries of c: the ML degree of the model of one reaction at
    generic K_e (Huh, Compositio 2013, with Kouchnirenko's volume of the
    circuit polytope)."""
    return max(sum(k for k in c if k > 0), -sum(k for k in c if k < 0))


def discriminant_ke(c) -> Fraction:
    """K_e* = S^S prod(c_i^-c_i), with S = sum(c) and 0^0 = 1: the
    A-discriminant of the circuit (Gel'fand, Kapranov and Zelevinsky, 1994,
    ch. 9), the one K_e where the model is singular."""
    s = sum(c)
    value = Fraction(s) ** s
    for k in c:
        value *= Fraction(k) ** -k
    return value


def circuit_ml_degree(c, ke) -> int:
    """The ML degree of the model K_e prod(p_i^c_i) = 1 at generic data u:
    max(P, N), less 2 at K_e = K_e* when S != 0 (a node of the model at
    p = c / S) and less 1 when S = 0 (the model is tangent to the line at
    infinity there)."""
    if ke != discriminant_ke(c):
        return circuit_degree(c)
    return circuit_degree(c) - (2 if sum(c) else 1)
