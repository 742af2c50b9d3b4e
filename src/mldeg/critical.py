"""Critical equations of the log-likelihood in parameter space.

Pulling the likelihood back through a monomial parameterization turns
log L into sum(w_i * log t_i) with integer-combination weights w_i, to be
maximized on the slice g = sum(images) - 1 = 0.  Clearing denominators in
the Lagrange conditions gives one polynomial

    f_i = lam * t_i * dg/dt_i - w_i

per parameter.  The solution count is read off a single eliminant: f_0
itself for one parameter, Res(f_0, f_1, t0) for two, as degree minus
valuation in the surviving parameter with lam symbolic.  No Sylvester
matrix is built for the two-one system nA + mB <-> pC: there
f_1 = C*t0**n + D is a binomial in t0 and f_0 = A*t0**p + B*t0**n + E, so
Poisson's formula, Res = lc(f_1)**deg f_0 * prod f_0(b) over the roots b
of f_1, gives the Sylvester determinant exactly, sign included, as
(-1)**(a*n) * G**d with a = max(p, n), d = gcd(n, p) and G a short
integer expression in A..E (_two_one_resultant).  Symbolic counts
enter the equations only through the weights, so the two-parameter
resultant is taken over two weight symbols w0, w1, and the count is read
there: f_i + w_i = lam * t_i * dg/dt_i holds no count, and the equations
are built from it directly.  w0 = p*u0 + n*u2 and w1 = p*u1 + m*u2 are
linearly independent linear forms in the counts, hence algebraically
independent: substituting them back is an injective ring map that fixes
t1, so a coefficient of t1**k is zero in w exactly when it is zero in u.
Degree, valuation and "is zero" are therefore the same before and after
the expansion, at generic and at specialised K_e (the specialisation
below binds neither w nor u, so it commutes with the expansion), and a
report expands its eliminant over the counts only when .eliminant is read.

A report builds the parameterization and the critical system once, at
generic K_e, and eliminates once, whatever K_e it is asked about: a numeric
K_e gets no parameterization, system or elimination of its own.  The
generic eliminant gives the generic count for the degeneracy verdict.  At
K_e = 0 the count is 0.  At K_e != 0 the eliminant is specialised: K_e ->
value, and s -> r where r**p = value has an exact rational root r, over the
generic context with those bound symbols dropped.  The result is the
numeric eliminant exactly: the resultant is a polynomial in the Sylvester
entries (f0 itself for one parameter), the t0-leading coefficients of f0,
f1 do not vanish at K_e != 0 so the matrix keeps its shape, and folding
s**p -> K_e before setting K_e -> value leaves the same reduced
polynomial, of degree below p in s, as folding s**p -> value.  With s -> r
the fold changes nothing, since r**p = value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import gcd

from .model import (
    EquilibriumConstant,
    EquilibriumModel,
    MonomialMap,
    ReactionShape,
    UnsupportedReactionError,
    build_model,
    build_parameterization,
    classify_shape,
    exact_root,
    fiber_degree,
    reduce_radical,
)
from .poly import (MPoly, VarContext, _exp_add, _integer_coeffs, _power, _term_products,
                   gcd_degree_in)
from .reaction import format_reaction

SEGRE_CLOSED_FORM_COUNT = 1


@dataclass(frozen=True)
class ObservationCounts:
    """Observation counts, one per species: symbolic u0.. or integers."""

    size: int
    values: tuple[int, ...] | None = None

    @classmethod
    def symbolic(cls, size: int) -> "ObservationCounts":
        if size < 1:
            raise ValueError("need at least one species")
        return cls(size, None)

    @classmethod
    def numeric(cls, values) -> "ObservationCounts":
        vals = tuple(values)
        if any(int(v) != v for v in vals):
            raise ValueError("counts must be integers")
        vals = tuple(int(v) for v in vals)
        if any(v < 0 for v in vals):
            raise ValueError("counts must be nonnegative")
        if sum(vals) == 0:
            raise ValueError("sample size must be positive")
        return cls(len(vals), vals)

    @property
    def is_symbolic(self) -> bool:
        return self.values is None

    def symbols(self) -> tuple[str, ...]:
        return tuple(f"u{i}" for i in range(self.size))


@dataclass(frozen=True)
class CriticalSystem:
    monomial_map: MonomialMap
    counts: ObservationCounts
    ctx: VarContext
    constraint_pullback: MPoly
    weights: tuple[MPoly, ...]
    equations: tuple[MPoly, ...]

    @property
    def survivor(self) -> str:
        return self.monomial_map.param_vars[-1]


class DegenerateEliminationError(ArithmeticError):
    """The eliminant vanishes identically (common factor in the system)."""

    def __init__(self, variable: str, gcd_degree: int):
        super().__init__(
            f"identically zero eliminant: the equations share a factor of "
            f"degree {gcd_degree} in {variable}"
        )
        self.variable = variable
        self.gcd_degree = gcd_degree


def build_critical_system(
    monomial_map: MonomialMap, counts: ObservationCounts
) -> CriticalSystem:
    params = monomial_map.param_vars
    if len(params) not in (1, 2):
        raise UnsupportedReactionError("only 1- or 2-parameter maps are supported")
    n_species = len(monomial_map.exponent_matrix[0])
    if counts.size != n_species:
        raise ValueError(
            f"got {counts.size} counts for {n_species} species"
        )
    # the map's constants (s, K_e) are the names in its context after params
    names = params + ("lam",) + monomial_map.ctx.drop(params).names
    ctx = VarContext(names + counts.symbols() if counts.is_symbolic else names)

    g = MPoly.const(ctx, -1)
    for image in monomial_map.images.values():
        g = g + image.cast(ctx)

    weights = []
    for i in range(len(params)):
        w = MPoly.zero(ctx)
        for j in range(n_species):
            e = monomial_map.exponent_matrix[i][j]
            if not e:
                continue
            if counts.is_symbolic:
                w = w + e * MPoly.var(ctx, f"u{j}")
            else:
                w = w + MPoly.const(ctx, e * counts.values[j])
        weights.append(w)

    lam = MPoly.var(ctx, "lam")
    equations = tuple(
        lam * MPoly.var(ctx, t) * g.partial_derivative(t) - w
        for t, w in zip(params, weights)
    )
    return CriticalSystem(monomial_map, counts, ctx, g, tuple(weights), equations)


def _two_one_resultant(f0: MPoly, f1: MPoly) -> MPoly:
    """Res(f0, f1, t0), the Sylvester determinant, in closed form.

    The two-one equations are f0 = A*t0**p + B*t0**n + E (the t0**n term
    from the product monomial, merged into A when p = n) and the binomial
    f1 = C*t0**n + D.  With a = max(p, n) = deg f0 and d = gcd(n, p),
    Poisson's formula gives

        Res(f0, f1) = (-1)**(a*n) * C**a * prod f0(b)  over b**n = -D/C
                    = (-1)**(a*n) * G**d,
        G = (E*C - B*D)**(n/d) * C**((a-n)/d)
            - (-A)**(n/d) * (-D)**(p/d) * C**((a-p)/d):

    at each root B*b**n + E = (E*C - B*D)/C, and b -> b**p maps the n
    roots d to one onto the n/d roots of g**(n/d) = (-D/C)**(p/d).  Both
    sides are polynomials in A..E that agree wherever C != 0, so they are
    equal for every coefficient value of these degrees, sign included.

    A..E are integer term maps of m0*f0 and m1*f1 (m the denominator
    lcms), and Res(m0*f0, m1*f1) = m0**n * m1**a * Res(f0, f1) is divided
    out once.  Any other shape raises AssertionError."""
    (c0, m0), (c1, m1) = _integer_coeffs(f0, "t0"), _integer_coeffs(f1, "t0")
    a, n = len(c0) - 1, len(c1) - 1  # c[deg - k] is the coefficient of t0**k
    others = {a - i for i, c in enumerate(c0) if c} - {n, 0}
    p = max(others, default=n)
    if n < 1 or any(c1[1:n]) or len(others) > 1 or a != max(p, n):
        raise AssertionError(
            f"expected f0 = A*t0^p + B*t0^n + E and f1 = C*t0^n + D, got {f0} and {f1}"
        )
    A, B, E = c0[a - p], c0[a - n] if p != n else {}, c0[a]
    C, D = c1[0], c1[n]
    d = gcd(n, p)
    one = {(0,) * len(f0.ctx): 1}

    def neg(terms):
        return {e: -c for e, c in terms.items()}

    left = _term_products([(E, C), (neg(B), D)], _exp_add)
    right = _term_products(
        [(_power(neg(A), n // d, one), _power(neg(D), p // d, one))], _exp_add
    )
    g = _term_products([
        (_power(left, n // d, one), _power(C, (a - n) // d, one)),
        (neg(right), _power(C, (a - p) // d, one)),
    ], _exp_add)
    sign = -1 if a * n % 2 else 1
    scale = m0 ** n * m1 ** a
    return MPoly._raw(f0.ctx, {
        e: Fraction(sign * c, scale) for e, c in _power(g, d, one).items()
    })


def _weight_eliminant(system: CriticalSystem) -> MPoly:
    """The eliminant in the coordinates it is computed in.  One parameter:
    f0 itself; two: Res(f0, f1, t0), in the closed form of
    _two_one_resultant (no Sylvester matrix is built).  Radical powers are
    folded back into K_e afterwards.  Raises DegenerateEliminationError if
    the result is identically zero modulo the radical relation.

    With symbolic counts the two equations see the counts only through the
    weights, so a two-one resultant is taken over the weight symbols w0, w1
    (one variable fewer than u0, u1, u2) and stays over them: its context is
    system.ctx without u0, u1 and with w0, w1 appended, and its equations
    are f_i + weights[i] - w_i, where f_i + weights[i] = lam * t_i * dg/dt_i
    holds no count.  Otherwise it is over system.ctx."""
    if len(system.equations) == 1:
        eliminant = system.equations[0]
    else:
        f0, f1 = system.equations
        if system.counts.is_symbolic:
            ctx = VarContext(system.ctx.drop(("u0", "u1")).names + ("w0", "w1"))
            f0, f1 = ((f + w).cast(ctx) - MPoly.var(ctx, f"w{i}")
                      for i, (f, w) in enumerate(zip(system.equations, system.weights)))
        eliminant = _two_one_resultant(f0, f1)
    eliminant = reduce_radical(eliminant, system.monomial_map.radical)
    if eliminant.is_zero():
        raise _degeneracy(system.monomial_map.param_vars[0], system.equations)
    return eliminant


def _to_counts(system: CriticalSystem, eliminant: MPoly) -> MPoly:
    """eliminant, from _weight_eliminant (and perhaps _specialise), expanded
    over the counts: w_i -> system.weights[i].  The result is over
    system.ctx less the symbols a specialisation bound; without weight
    symbols eliminant is returned as it is."""
    if "w0" not in eliminant.ctx:
        return eliminant
    ctx = VarContext(eliminant.ctx.names + ("u0", "u1"))
    back = {f"w{i}": w.cast(ctx) for i, w in enumerate(system.weights)}
    target = system.ctx.drop(n for n in system.ctx.names if n not in ctx)
    return eliminant.cast(ctx).substitute(back).cast(target)


def eliminate(system: CriticalSystem) -> MPoly:
    """The eliminant over system.ctx: _weight_eliminant, with the weights
    substituted back for w0, w1.  Substitution is a ring map and the
    resultant a polynomial in the Sylvester entries, so this is the
    polynomial that Bareiss gives over the counts."""
    return _to_counts(system, _weight_eliminant(system))


def _degeneracy(first: str, equations) -> DegenerateEliminationError:
    shared = gcd_degree_in(equations[0], equations[-1], first)
    return DegenerateEliminationError(first, shared)


def _specialise(system: CriticalSystem, value: Fraction, poly: MPoly) -> MPoly:
    """poly, over the generic-K_e system's context or its weight
    coordinates, at K_e = value != 0: K_e -> value, and s -> its exact root
    where one exists.  substitute drops the bound symbols, which leaves the
    numeric system's context (or its weight coordinates).  Exact for the
    reasons in the module docstring."""
    bindings = {"K_e": value}
    radical = system.monomial_map.radical
    if radical is not None:
        root = exact_root(value, radical.power)
        if root is not None:
            bindings[radical.symbol] = root
    return poly.substitute(bindings)


@dataclass(frozen=True)
class MLDegreeReport:
    reaction: str
    ke: str
    shape: str
    parameter_space_count: int | None
    fiber_degree: int | None
    variety_count_quotient: Fraction | None
    generic_parameter_space_count: int | None
    degeneracy: bool
    degeneracy_description: str | None
    survivor: str | None
    eliminant_degree: int | None
    eliminant_valuation: int | None
    covers_model: bool
    caveats: tuple[str, ...]
    method: str = "faithful"
    # the system and its eliminant as counted, in weight coordinates (the
    # system holds dicts, so it stays out of the hash)
    _counted: tuple[CriticalSystem, MPoly] | None = field(
        default=None, repr=False, hash=False
    )

    @cached_property
    def eliminant(self) -> MPoly | None:
        """The eliminant over the counts, expanded on first read."""
        return None if self._counted is None else _to_counts(*self._counted)

    def to_dict(self) -> dict:
        quotient = self.variety_count_quotient
        if quotient is not None:
            quotient = int(quotient) if quotient.denominator == 1 else str(quotient)
        return {
            "reaction": self.reaction,
            "ke": self.ke,
            "method": self.method,
            "shape": self.shape,
            "parameter_space_count": self.parameter_space_count,
            "fiber_degree": self.fiber_degree,
            "variety_count_quotient": quotient,
            "generic_parameter_space_count": self.generic_parameter_space_count,
            "degeneracy": self.degeneracy_description if self.degeneracy else "none",
            "eliminant_degree": self.eliminant_degree,
            "eliminant_valuation": self.eliminant_valuation,
            "covers_model": self.covers_model,
            "caveats": list(self.caveats),
        }


def _profile(eliminant: MPoly, survivor: str) -> tuple[int, int]:
    if not eliminant.uses(survivor):
        return 0, 0
    return eliminant.degree_in(survivor), eliminant.valuation_in(survivor)


def faithful_report(
    model: EquilibriumModel, counts: ObservationCounts | None = None
) -> MLDegreeReport:
    """Full paper-faithful run: parameterize and eliminate once at generic
    K_e, count, and compare against the generic count to flag degenerate
    constants."""
    if counts is None:
        counts = ObservationCounts.symbolic(len(model.species))
    shape = classify_shape(model.reaction)
    if shape is ReactionShape.UNSUPPORTED:
        build_parameterization(model)  # raises with the supported-shape list
    ke = model.ke
    head = (format_reaction(model.reaction), str(ke), shape.value)
    caveats = [model.normalization_note]

    system = eliminant = None
    generic_count = SEGRE_CLOSED_FORM_COUNT
    if shape is not ReactionShape.SEGRE:
        generic_model = (
            model if ke.is_generic
            else build_model(model.reaction, EquilibriumConstant.generic())
        )
        system = build_critical_system(build_parameterization(generic_model), counts)
        try:
            eliminant = _weight_eliminant(system)
        except DegenerateEliminationError as exc:
            generic_count, degeneracy = None, exc
        else:
            degree, valuation = _profile(eliminant, system.survivor)
            generic_count = degree - valuation

    if ke.is_zero:
        caveats.append(
            "K_e = 0: the relation degenerates to the product-side monomial "
            "inside the excluded arrangement"
        )
        return MLDegreeReport(
            *head, 0, None, Fraction(0), generic_count, True,
            f"count drops from {generic_count} to 0 at K_e = 0",
            None, None, None, False, tuple(caveats),
        )
    if system is None:
        caveats.append(
            "closed-form entry: count fixed at 1 (Euler characteristic of the "
            "complement); no elimination performed"
        )
        caveats.append(
            "a direct Lagrange solve of the 2:2 relation has 2 critical points "
            "for generic K_e != 1; the closed form follows the independence "
            "presentation"
        )
        return MLDegreeReport(
            *head, SEGRE_CLOSED_FORM_COUNT, None, Fraction(SEGRE_CLOSED_FORM_COUNT),
            SEGRE_CLOSED_FORM_COUNT, False, None, None, None, None, False,
            tuple(caveats),
        )

    monomial_map = system.monomial_map
    caveats.extend(monomial_map.caveats)
    fiber = fiber_degree(monomial_map)
    if not ke.is_generic:
        if eliminant is not None:
            eliminant = _specialise(system, ke.value, eliminant)
        if eliminant is None or eliminant.is_zero():
            eliminant = None
            degeneracy = _degeneracy(monomial_map.param_vars[0], [
                _specialise(system, ke.value, f) for f in system.equations
            ])
    if eliminant is None:
        return MLDegreeReport(
            *head, None, fiber, None, generic_count, True, str(degeneracy),
            system.survivor, None, None, monomial_map.covers_model,
            tuple(caveats),
        )

    degree, valuation = _profile(eliminant, system.survivor)
    count = degree - valuation
    degenerate = count < generic_count
    description = (
        f"parameter-space count drops from {generic_count} to {count} "
        f"at K_e = {ke}"
        if degenerate
        else None
    )
    return MLDegreeReport(
        *head, count, fiber, Fraction(count, fiber), generic_count, degenerate,
        description, system.survivor, degree, valuation,
        monomial_map.covers_model, tuple(caveats), _counted=(system, eliminant),
    )
