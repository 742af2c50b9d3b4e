"""Reference code the tests compare the engine against; mldeg does not use it.

Bareiss on the Sylvester matrix (determinant_fraction_free over a
PolyMatrix, on integer rows with packed exponents, laid out by
_sylvester_rows) is the general resultant that resultant (the rational
face of curve._integer_resultant, a subresultant remainder sequence) and
the closed-form two-one resultant in critical are checked against;
univariate_gcd, squarefree_decomposition and eval_exact are the plain
rational Euclid, Yun's algorithm over the rationals and evaluation that
the integer kernels are checked against; exact_divide is
multivariate division that must leave no remainder.  pullback_is_zero
composes F_affine with a monomial map's images and folds the radical
(reduce_radical): the rational check that model's exact integer
composition check is compared against.  compose, valuation_in,
constant_value, restrict_to_line, substitute, cast, mapped,
partial_derivative, eval_complex, as_univariate, from_dense and
integer_coeffs are MPoly operations that only the tests use.
variety_critical_system is the variety route's critical system as MPoly,
and rational reads an integer form of curve as MPoly: the rational
polynomials that the curve route's integer maps and float evaluations
(curve._float_value) are checked against.  integer_form and
plane_curve_of read an MPoly as the integer form that curve.plane_curve
takes; model_poly, mpoly_parameterization and curve_poly read the
model's integer polynomials, the map's images and a curve's form back as
MPoly.

arithmetic_f_affine, arithmetic_constraint, arithmetic_f_hom and
arithmetic_images build the model's polynomials by MPoly products and
sums, with Fraction sums for F_hom, and fraction_str prints an MPoly from
abs(), < 0 and str() of each Fraction coefficient: what model's term by
term construction and MPoly.__str__ must equal.

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

reference_parse_reaction is the reaction parser as a token cursor with
peek and next, one function per grammar rule: the parser whose results and
errors reaction.parse_reaction's single pass must equal on every text.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial as _factorial
from math import gcd as _gcd
from math import lcm as _lcm
from math import prod as _prod
from operator import lshift as _lshift
from operator import mul as _mul

from mldeg import critical
from mldeg.curve import (
    COORDS,
    LINES,
    _dense_in,
    _integer_resultant,
    _restricted,
    plane_curve,
)
from mldeg.intpoly import VarContext, _exp_add, _power, _term_products
from mldeg.model import _gl_key, build_parameterization
from mldeg.poly import ContextMismatchError, MPoly, _as_fraction
from mldeg.reaction import Arrow, Reaction, ReactionParseError, SpeciesTerm


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


def constant_value(f: MPoly) -> Fraction:
    """The value of a constant polynomial; ValueError for any other."""
    if not f.is_constant():
        raise ValueError("polynomial is not constant")
    return next(iter(f.term_map().values()), Fraction(0))


def valuation_in(f: MPoly, name: str) -> int:
    """The smallest exponent of name in a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("zero polynomial has no valuation")
    i = f.ctx.index(name)
    return min(e[i] for e in f.term_map())


def compose(f: MPoly, images: dict, target_ctx: VarContext) -> MPoly:
    """Total ring map: every variable of f's context must be sent to an
    MPoly over target_ctx (or a rational scalar); the images are applied
    by mapped, which substitute uses."""
    sent = {}
    for i, name in enumerate(f.ctx.names):
        if name not in images:
            raise ValueError(f"no image given for {name!r}")
        value = images[name]
        if not isinstance(value, MPoly):
            value = MPoly.const(target_ctx, value)
        elif value.ctx != target_ctx:
            raise ContextMismatchError("image not over target context")
        sent[i] = value
    return mapped(f, sent, target_ctx)


def restrict_to_line(curve, line: str) -> MPoly:
    """Binary form: a PlaneCurve restricted to one arrangement line, from
    the integer form that curve.arrangement_count restricts.

    Coordinate lines set the variable to zero; the sum line substitutes
    z = -(x + y).  A curve containing the line raises
    curve.CurveContainsLineError instead of restricting to zero.
    """
    if line not in LINES:
        raise ValueError(f"unknown line {line!r}; expected one of {LINES}")
    gone = "z" if line == "L" else line
    return rational(_restricted(curve.form, line), curve_ctx(curve), gone, curve.scale)


def integer_form(F: MPoly) -> tuple[dict, int]:
    """(G, m): m * F as an integer term map, m the lcm of the coefficient
    denominators, keyed by (x, y, z, *others) exponent tuples, others
    being F's remaining variables in context order: the integer form that
    curve.plane_curve takes."""
    for name in COORDS:
        if name not in F.ctx:
            raise ValueError(f"plane curve needs coordinate {name!r}")
    coords = [F.ctx.index(name) for name in COORDS]
    kept = coords + [i for i in range(len(F.ctx)) if i not in coords]
    terms = F.term_map()
    m = _lcm(*(c.denominator for c in terms.values()))
    return {tuple(e[i] for i in kept): c.numerator * (m // c.denominator)
            for e, c in terms.items()}, m


def plane_curve_of(F: MPoly):
    """The PlaneCurve of an MPoly F over a context holding x, y and z."""
    return plane_curve(*integer_form(F))


def model_poly(ctx: VarContext, poly: tuple) -> MPoly:
    """A polynomial of model, (G, m) with G = m * F keyed in ctx's order,
    as the MPoly F over ctx."""
    terms, m = poly
    return MPoly(ctx, {e: Fraction(c, m) for e, c in terms.items()})


def mpoly_parameterization(model):
    """build_parameterization's result with each image as MPoly over
    (parameters, constants); None for the Segre closed form."""
    parameterization = build_parameterization(model)
    if parameterization is None:
        return None
    shape, images = parameterization
    ctx = VarContext(shape.param_vars + shape.constants)
    return shape, {var: model_poly(ctx, image) for var, image in images.items()}


def curve_ctx(curve) -> VarContext:
    """x, y, z, and K_e when the curve's form keys carry a fourth entry:
    the context of a model's curve."""
    return VarContext(COORDS + ("K_e",) * (len(next(iter(curve.form))) - 3))


def curve_poly(curve) -> MPoly:
    """The curve's F, its form over its scale, as MPoly over curve_ctx."""
    return model_poly(curve_ctx(curve), (curve.form, curve.scale))


def rational(G: dict, ctx, gone: str, scale: int) -> MPoly:
    """G / scale at the coordinate gone = 1, over ctx less gone, for G
    keyed as a curve's form is."""
    names = COORDS + tuple(name for name in ctx.names if name not in COORDS)
    sub = ctx.drop([gone])
    terms = {}
    for key, c in G.items():
        e = [0] * len(sub)
        for name, k in zip(names, key):
            if k and name != gone:
                e[sub.index(name)] = k
        terms[tuple(e)] = Fraction(c, scale)
    return MPoly(sub, terms)


def partial_derivative(f: MPoly, name: str) -> MPoly:
    i = f.ctx.index(name)
    out = {}
    for exp, c in f.term_map().items():
        if exp[i] == 0:
            continue
        # distinct terms stay distinct, and no coefficient vanishes
        out[exp[:i] + (exp[i] - 1,) + exp[i + 1:]] = c * exp[i]
    return MPoly._raw(f.ctx, out)


def substitute(f: MPoly, bindings: dict) -> MPoly:
    """Simultaneous substitution; bound variables that end up unused are
    dropped from the context of the result."""
    images = {f.ctx.index(name): f._coerce(value) for name, value in bindings.items()}
    result = mapped(f, images, f.ctx)
    unused = [f.ctx.names[i] for i in images if not result.uses(f.ctx.names[i])]
    if unused:
        result = cast(result, f.ctx.drop(unused))
    return result


def cast(f: MPoly, new_ctx: VarContext) -> MPoly:
    """f re-expressed over new_ctx; every variable actually used must exist
    there."""
    mapping = []
    for i, name in enumerate(f.ctx.names):
        mapping.append(new_ctx.names.index(name) if name in new_ctx else None)
    out = {}
    for exp, c in f.term_map().items():
        e = [0] * len(new_ctx)
        for i, k in enumerate(exp):
            if k == 0:
                continue
            j = mapping[i]
            if j is None:
                raise ValueError(f"variable {f.ctx.names[i]!r} used but absent from target context")
            e[j] = k
        # distinct exponents stay distinct: only unused variables are dropped
        out[tuple(e)] = c
    return MPoly._raw(new_ctx, out)


def mapped(f: MPoly, images: dict, ctx: VarContext) -> MPoly:
    """The ring map sending variable i to images[i], an MPoly over ctx,
    and every other variable to itself (so ctx is f.ctx unless every
    variable is bound).

    Terms are grouped by their exponents in the bound variables: each
    power of an image is formed once, by repeated multiplication, and
    each group's kept part is multiplied by its product of powers once."""
    groups: dict = {}
    for exp, c in f.term_map().items():
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
            yield kept, factor.term_map()

    return MPoly._raw(ctx, _term_products(products(), _exp_add))


def eval_complex(f: MPoly, point: dict) -> complex:
    """f at a complex point binding every variable that appears.

    Terms are accumulated in descending graded-lex order with cached
    variable powers, so identical inputs give bit-identical results: the
    float operations that curve._float_value must repeat.
    """
    terms = f.term_map()
    powers: list[list[complex]] = []
    for i, name in enumerate(f.ctx.names):
        top = max((e[i] for e in terms), default=0)
        if top and name not in point:
            raise ValueError(f"unbound variable {name!r}")
        v = complex(point[name]) if name in point else 0j
        row = [1.0 + 0j]
        for _ in range(top):
            row.append(row[-1] * v)
        powers.append(row)
    total = 0j
    for exp in sorted(terms, key=_gl_key, reverse=True):
        term = complex(terms[exp])
        for i, k in enumerate(exp):
            if k:
                term *= powers[i][k]
        total += term
    return total


def as_univariate(f: MPoly, name: str) -> dict:
    """Map power -> coefficient polynomial (exponent of name zeroed)."""
    i = f.ctx.index(name)
    buckets: dict[int, dict] = {}
    for exp, c in f.term_map().items():
        e = list(exp)
        k = e[i]
        e[i] = 0
        buckets.setdefault(k, {})[tuple(e)] = c
    return {k: MPoly(f.ctx, t) for k, t in buckets.items()}


def from_dense(ctx: VarContext, name: str, coeffs) -> MPoly:
    """The univariate polynomial in name with ascending coefficients coeffs."""
    i = ctx.index(name)
    terms = {}
    for k, c in enumerate(coeffs):
        if c:
            e = [0] * len(ctx)
            e[i] = k
            terms[tuple(e)] = _as_fraction(c)
    return MPoly(ctx, terms)


def integer_coeffs(f: MPoly, name: str) -> tuple[list, int]:
    """(coeffs, m): the coefficients of m*f in name, highest power first,
    each an integer term map over f's exponent vectors with the exponent of
    name set to 0 ({} for zero), where m is the lcm of the coefficient
    denominators of f."""
    terms = f.term_map()
    m = _lcm(*(c.denominator for c in terms.values()))
    i = f.ctx.index(name)
    top = max((e[i] for e in terms), default=-1)
    coeffs = [{} for _ in range(top + 1)]
    for e, c in terms.items():
        coeffs[top - e[i]][e[:i] + (0,) + e[i + 1:]] = c.numerator * (m // c.denominator)
    return coeffs, m


def resultant(f: MPoly, g: MPoly, name: str) -> MPoly:
    """Resultant in name, the determinant of the Sylvester matrix, of f and
    g over one context using at most one variable t besides name: the
    rational face of curve._integer_resultant.

    With m_f, m_g the denominator lcms, Res(f, g) = Res(m_f f, m_g g) /
    (m_f^deg g * m_g^deg f).  Sign is not normalized.  More variables raise
    ValueError.
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
    (fc, mf), (gc, mg) = integer_coeffs(f, name), integer_coeffs(g, name)
    j = f.ctx.index(t)
    denominator = mf ** (len(gc) - 1) * mg ** (len(fc) - 1)
    res = _integer_resultant(_dense_in(fc, j), _dense_in(gc, j))
    return from_dense(f.ctx, t, [Fraction(c, denominator) for c in reversed(res)])


def variety_critical_system(curve, counts: tuple) -> tuple:
    """The determinant critical system on a PlaneCurve, as MPoly.

    Equation 1 is the curve itself; equation 2 is the 3x3 determinant with
    rows (1,1,1), (u0*y*z, u1*x*z, u2*x*y) and the gradient, homogeneous of
    degree d + 1: what variety._determinant_form builds on integers.
    """
    if len(counts) != 3:
        raise ValueError("variety critical system needs 3 observation counts")
    if any(c <= 0 for c in counts):
        raise ValueError("observation counts must be positive")
    F = curve_poly(curve)
    x, y, z = (MPoly.var(F.ctx, name) for name in COORDS)
    a0, a1, a2 = (Fraction(c) * m for c, m in zip(counts, (y * z, x * z, x * y)))
    b0, b1, b2 = (partial_derivative(F, name) for name in COORDS)
    # along the row of ones: a1*b2 - a2*b1 - a0*b2 + a2*b0 + a0*b1 - a1*b0
    eq2 = a0 * (b1 - b2) + a1 * (b2 - b0) + a2 * (b0 - b1)
    return F, eq2


def assert_canonical(p: MPoly) -> None:
    """p, built by the trusted constructor, equals the validated MPoly of its
    terms and stores no zero coefficient."""
    assert p == MPoly(p.ctx, p.term_map())
    assert all(type(c) is Fraction and c != 0 for c in p.term_map().values())


def arithmetic_f_affine(model) -> MPoly:
    """K_e (a symbol or a constant polynomial) times the reactant monomial
    minus the product monomial."""
    ctx = model.ctx

    def side_monomial(terms) -> MPoly:
        exps = [0] * len(ctx)
        for term in terms:
            exps[ctx.index(model.var_of(term.species))] = term.coefficient
        return MPoly(ctx, {tuple(exps): Fraction(1)})

    ke = model.ke
    ke_factor = MPoly.var(ctx, "K_e") if ke.is_generic else MPoly.const(ctx, ke.value)
    return (ke_factor * side_monomial(model.reaction.reactants)
            - side_monomial(model.reaction.products))


def arithmetic_constraint(model) -> MPoly:
    """L - 1, L summed one species variable at a time."""
    total = MPoly.zero(model.ctx)
    for n in model.species_vars:
        total = total + MPoly.var(model.ctx, n)
    return total - 1


def arithmetic_f_hom(model) -> MPoly:
    """Each term of arithmetic_f_affine times L^(degree - its degree in the
    species): the term of L^k with species exponents a has coefficient
    k! / prod(a_i!), and the Fraction products are summed per exponent."""
    species = [model.ctx.index(n) for n in model.species_vars]
    powers = {}  # k -> the terms of L^k: (variable indices, coefficient)
    hom = {}
    for exp, coeff in arithmetic_f_affine(model).items():
        shift = model.degree - sum(exp[k] for k in species)
        if shift not in powers:
            powers[shift] = [
                (combo, _factorial(shift) // _prod(_factorial(combo.count(k)) for k in species))
                for combo in combinations_with_replacement(species, shift)]
        for combo, c in powers[shift]:
            e = list(exp)
            for k in combo:
                e[k] += 1
            e = tuple(e)
            hom[e] = hom.get(e, 0) + coeff * c
    return MPoly(model.ctx, hom)


def arithmetic_images(model, shape) -> dict:
    """The images of a MapShape's map over (parameters, constants): the
    multiplier (the exact root, or the symbol s or K_e) on the product
    side, times each parameter raised to its exponent."""
    ctx = VarContext(shape.param_vars + shape.constants)
    one = MPoly.const(ctx, 1)
    if shape.root is not None:
        multiplier = MPoly.const(ctx, shape.root)
    else:
        multiplier = MPoly.var(ctx, shape.constants[0])
    images = {}
    for var, column, scaled in zip(
            model.species_vars, zip(*shape.exponent_matrix), shape.scaled):
        image = multiplier if scaled else one
        for t, k in zip(shape.param_vars, column):
            if k:
                image = image * MPoly.var(ctx, t) ** k
        images[var] = image
    return images


def fraction_str(p: MPoly) -> str:
    """The printed form of p: terms in descending graded-lex order, each a
    sign and the magnitude str(abs(c)) (left out when 1 and the term is
    not constant) times name^k factors."""
    if p.is_zero():
        return "0"
    parts = []
    for exp, c in p.items():
        factors = []
        for name, k in zip(p.ctx.names, exp):
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
    """Whether model.F_affine composed with the images of an
    mpoly_parameterization result (K_e to itself when generic) vanishes
    modulo the radical relation."""
    shape, images = parameterization
    images = dict(images)
    ctx = next(iter(images.values())).ctx
    if model.ke.is_generic:
        images["K_e"] = MPoly.var(ctx, "K_e")
    composed = compose(model_poly(model.ctx, model.F_affine), images, ctx)
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
    shape, images = mpoly_parameterization(model)
    params = shape.param_vars
    symbols = tuple(f"u{i}" for i in range(counts.size)) * counts.is_symbolic
    ctx = VarContext(params + ("lam",) + shape.constants + symbols)
    g = MPoly.const(ctx, -1)
    for image in images.values():
        g = g + cast(image, ctx)
    u = [MPoly.var(ctx, n) for n in symbols] if counts.is_symbolic else counts.values
    weights = tuple(sum(map(_mul, row, u), MPoly.zero(ctx)) for row in shape.exponent_matrix)
    lam = MPoly.var(ctx, "lam")
    equations = tuple(
        lam * MPoly.var(ctx, t) * partial_derivative(g, t) - w for t, w in zip(params, weights)
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
    return compose(f, into, system.ctx)


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


def _sylvester_rows(fcoeffs: list, gcoeffs: list, zero) -> list:
    """Sylvester layout of two coefficient lists given highest power first:
    deg(g) shifted rows of f's coefficients, then deg(f) shifted rows of g's."""
    df, dg = len(fcoeffs) - 1, len(gcoeffs) - 1
    size = df + dg
    rows = [[zero] * i + fcoeffs + [zero] * (size - df - 1 - i) for i in range(dg)]
    rows += [[zero] * i + gcoeffs + [zero] * (size - dg - 1 - i) for i in range(df)]
    return rows


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
    fc = as_univariate(f, name)
    gc = as_univariate(g, name)
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


# Longest arrow first so '<->' never tokenizes as '<-' + '>'.
_TOKEN = re.compile(r"(<->)|(->)|(<-)|(\+)|([0-9]+)|([A-Za-z][A-Za-z0-9]*)")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, offset)
        pos = 0
        n = len(text)
        while pos < n:
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ReactionParseError(f"unrecognized token {text[pos]!r}", pos)
            kinds = ("arrow", "arrow", "arrow", "plus", "uint", "ident")
            kind = kinds[m.lastindex - 1]
            self.items.append((kind, m.group(0), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def _parse_term(toks: _Tokens) -> tuple[SpeciesTerm, int]:
    """One term and the offset of its species name."""
    kind, value, offset = toks.peek()
    coefficient = 1
    if kind == "uint":
        toks.next()
        if len(value) > 4300:
            raise ReactionParseError("coefficient longer than 4300 digits", offset)
        coefficient = int(value)
        if coefficient == 0:
            raise ReactionParseError("zero coefficient", offset)
        kind, value, offset = toks.peek()
    if kind != "ident":
        raise ReactionParseError("empty term", offset)
    toks.next()
    return SpeciesTerm(value, coefficient), offset


def _parse_side(toks: _Tokens, side_start: int) -> list[tuple[SpeciesTerm, int]]:
    kind, _, offset = toks.peek()
    if kind in ("arrow", "end"):
        raise ReactionParseError("empty side", side_start if kind == "arrow" else offset)
    terms = [_parse_term(toks)]
    while toks.peek()[0] == "plus":
        toks.next()
        terms.append(_parse_term(toks))
    seen: set[str] = set()
    for t, offset in terms:
        if t.species in seen:
            raise ReactionParseError(f"duplicate species {t.species!r} on one side", offset)
        seen.add(t.species)
    return terms


def reference_parse_reaction(text: str) -> Reaction:
    """Parse reaction text into a Reaction; raises ReactionParseError with offset."""
    toks = _Tokens(text)
    left = _parse_side(toks, 0)
    kind, value, offset = toks.peek()
    if kind != "arrow":
        raise ReactionParseError("missing arrow", offset)
    toks.next()
    arrow = Arrow(value)
    right = _parse_side(toks, offset + len(value))
    kind, value, offset = toks.peek()
    if kind != "end":
        raise ReactionParseError(f"unexpected trailing input {value!r}", offset)
    left_names = {t.species for t, _ in left}
    for t, offset in right:
        if t.species in left_names:
            raise ReactionParseError(f"species {t.species!r} appears on both sides", offset)
    return Reaction(tuple(t for t, _ in left), tuple(t for t, _ in right), arrow)
