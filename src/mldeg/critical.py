"""Critical equations of the log-likelihood in parameter space.

Pulling the likelihood back through a monomial parameterization turns
log L into sum(w_i * log t_i) with integer-combination weights w_i, to be
maximized on the slice g = sum(images) - 1 = 0.  Clearing denominators in
the Lagrange conditions gives one polynomial

    f_i = lam * t_i * dg/dt_i - w_i

per parameter.  The solution count is read off a single eliminant: f_0
itself for one parameter, Res(f_0, f_1, t0) for two, as degree minus
valuation in the surviving parameter with lam symbolic.  Symbolic counts
enter the equations only through the weights, so the two-parameter
resultant is taken over two weight symbols w0, w1, and the count is read
there.  w0 = p*u0 + n*u2 and w1 = p*u1 + m*u2 are linearly independent
linear forms in the counts, hence algebraically independent: substituting
them back is an injective ring map that fixes t1, so a coefficient of
t1**k is zero in w exactly when it is zero in u.  Degree, valuation and
"is zero" are therefore the same before and after the expansion, at
generic and at specialised K_e (the specialisation below binds neither w
nor u, so it commutes with the expansion), and a report expands its
eliminant over the counts only when its .eliminant is read.

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
from .poly import MPoly, VarContext, gcd_degree_in, resultant
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
    pairs = [(t, "unknown") for t in params]
    pairs.append(("lam", "lagrange"))
    for name, role in zip(monomial_map.ctx.names, monomial_map.ctx.roles):
        if role == "constant":
            pairs.append((name, "constant"))
    if counts.is_symbolic:
        pairs.extend((u, "count") for u in counts.symbols())
    ctx = VarContext.of(*pairs)

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


def _weight_coordinates(system: CriticalSystem) -> tuple[VarContext, dict]:
    """(ctx, forward) for eliminating a symbolic two-one system over the
    weights: ctx is system.ctx with w0, w1 appended, and forward solves the
    weights w0 = p*u0 + n*u2, w1 = p*u1 + m*u2 for u0, u1."""
    (p, zero0, n), (zero1, p1, m) = system.monomial_map.exponent_matrix
    if zero0 or zero1 or p != p1 or p <= 0:
        raise AssertionError(
            "expected a two-one exponent matrix [[p, 0, n], [0, p, m]], got "
            f"{system.monomial_map.exponent_matrix}"
        )
    ctx = VarContext(
        system.ctx.names + ("w0", "w1"), system.ctx.roles + ("count", "count")
    )
    u2 = MPoly.var(ctx, "u2")
    forward = {
        "u0": (MPoly.var(ctx, "w0") - n * u2) * Fraction(1, p),
        "u1": (MPoly.var(ctx, "w1") - m * u2) * Fraction(1, p),
    }
    return ctx, forward


def _weight_eliminant(system: CriticalSystem) -> MPoly:
    """The eliminant in the coordinates it is computed in.  One parameter:
    f0 itself; two: Res(f0, f1, t0).  Radical powers are folded back into
    K_e afterwards.  Raises DegenerateEliminationError if the result is
    identically zero modulo the radical relation.

    With symbolic counts the two equations see the counts only through the
    weights, so a two-one resultant is taken over the weight symbols w0, w1
    (one variable fewer than u0, u1, u2) and stays over them: its context is
    system.ctx with u0, u1 replaced by w0, w1.  Otherwise it is over
    system.ctx."""
    if len(system.equations) == 1:
        eliminant = system.equations[0]
    else:
        f0, f1 = system.equations
        if system.counts.is_symbolic:
            ctx, forward = _weight_coordinates(system)
            f0, f1 = (f.cast(ctx).substitute(forward) for f in (f0, f1))
        eliminant = resultant(f0, f1, "t0")
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
    ctx = VarContext(
        eliminant.ctx.names + ("u0", "u1"), eliminant.ctx.roles + ("count", "count")
    )
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
