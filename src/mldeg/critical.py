"""Critical equations of the log-likelihood in parameter space.

Pulling the likelihood back through a monomial parameterization turns
log L into sum(w_i * log t_i) with integer-combination weights w_i, to be
maximized on the slice g = sum(images) - 1 = 0.  Clearing denominators in
the Lagrange conditions gives one polynomial

    f_i = lam * t_i * dg/dt_i - w_i

per parameter.  The solution count is read off a single eliminant: f_0
itself for one parameter, Res(f_0, f_1, t0) for two, as degree minus
valuation in the surviving parameter with lam and the counts symbolic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    EquilibriumConstant,
    EquilibriumModel,
    MonomialMap,
    ReactionShape,
    UnsupportedReactionError,
    build_model,
    build_parameterization,
    classify_shape,
    fiber_degree,
    reduce_radical,
)
from .poly import MPoly, VarContext, gcd_degree_in, resultant
from .reaction import format_reaction
from .roots import _complex_coeffs, aberth_roots

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
        vals = tuple(int(v) for v in values)
        if any(v < 0 for v in vals):
            raise ValueError("counts must be nonnegative")
        if sum(vals) == 0:
            raise ValueError("sample size must be positive")
        return cls(len(vals), vals)

    @property
    def is_symbolic(self) -> bool:
        return self.values is None

    @property
    def sample_size(self) -> int | None:
        return None if self.values is None else sum(self.values)

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


def eliminate(system: CriticalSystem) -> MPoly:
    """One parameter: f0 itself; two: Res(f0, f1, t0).  Radical powers are
    folded back into K_e afterwards.  Raises DegenerateEliminationError if
    the result is identically zero modulo the radical relation."""
    if len(system.equations) == 1:
        eliminant = system.equations[0]
    else:
        f0, f1 = system.equations
        eliminant = resultant(f0, f1, "t0")
    eliminant = reduce_radical(eliminant, system.monomial_map.radical)
    if eliminant.is_zero():
        first = system.monomial_map.param_vars[0]
        shared = gcd_degree_in(system.equations[0], system.equations[-1], first)
        raise DegenerateEliminationError(first, shared)
    return eliminant


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
    eliminant: MPoly | None
    survivor: str | None
    eliminant_degree: int | None
    eliminant_valuation: int | None
    covers_model: bool
    caveats: tuple[str, ...]
    method: str = "faithful"

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


def ml_degree_faithful(system: CriticalSystem) -> int:
    """Parameter-space count: degree minus valuation of the eliminant."""
    eliminant = eliminate(system)
    degree, valuation = _profile(eliminant, system.survivor)
    return degree - valuation


def _count_for(model: EquilibriumModel, counts: ObservationCounts) -> int | None:
    """Parameter-space count for a model, None on degenerate elimination."""
    monomial_map = build_parameterization(model)
    system = build_critical_system(monomial_map, counts)
    try:
        return ml_degree_faithful(system)
    except DegenerateEliminationError:
        return None


def faithful_report(
    model: EquilibriumModel, counts: ObservationCounts | None = None
) -> MLDegreeReport:
    """Full paper-faithful run: parameterize, eliminate, count, and compare
    against the generic-K_e count to flag degenerate constants."""
    if counts is None:
        counts = ObservationCounts.symbolic(len(model.species))
    shape = classify_shape(model.reaction)
    if shape is ReactionShape.UNSUPPORTED:
        build_parameterization(model)  # raises with the supported-shape list
    reaction_text = format_reaction(model.reaction)
    ke_text = str(model.ke)
    caveats = [model.normalization_note]

    if shape is ReactionShape.SEGRE:
        if not model.ke.is_generic and model.ke.is_zero:
            caveats.append(
                "K_e = 0: the relation degenerates to the product-side monomial "
                "inside the excluded arrangement"
            )
            return MLDegreeReport(
                reaction_text, ke_text, shape.value, 0, None, Fraction(0),
                SEGRE_CLOSED_FORM_COUNT, True,
                f"count drops from {SEGRE_CLOSED_FORM_COUNT} to 0 at K_e = 0",
                None, None, None, None, False, tuple(caveats),
            )
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
            reaction_text, ke_text, shape.value, SEGRE_CLOSED_FORM_COUNT, None,
            Fraction(SEGRE_CLOSED_FORM_COUNT), SEGRE_CLOSED_FORM_COUNT, False,
            None, None, None, None, None, False, tuple(caveats),
        )

    generic_model = (
        model
        if model.ke.is_generic
        else build_model(model.reaction, EquilibriumConstant.generic())
    )

    if not model.ke.is_generic and model.ke.is_zero:
        generic_count = _count_for(generic_model, counts)
        caveats.append(
            "K_e = 0: the relation degenerates to the product-side monomial "
            "inside the excluded arrangement"
        )
        return MLDegreeReport(
            reaction_text, ke_text, shape.value, 0, None, Fraction(0),
            generic_count, True,
            f"count drops from {generic_count} to 0 at K_e = 0",
            None, None, None, None, False, tuple(caveats),
        )

    monomial_map = build_parameterization(model)
    caveats.extend(monomial_map.caveats)
    system = build_critical_system(monomial_map, counts)
    fiber = fiber_degree(monomial_map)

    try:
        eliminant = eliminate(system)
    except DegenerateEliminationError as exc:
        generic_count = (
            None if model.ke.is_generic else _count_for(generic_model, counts)
        )
        return MLDegreeReport(
            reaction_text, ke_text, shape.value, None, fiber, None,
            generic_count, True, str(exc), None, system.survivor, None, None,
            monomial_map.covers_model, tuple(caveats),
        )

    degree, valuation = _profile(eliminant, system.survivor)
    count = degree - valuation
    if model.ke.is_generic:
        generic_count = count
    else:
        generic_count = _count_for(generic_model, counts)
    degenerate = generic_count is not None and count < generic_count
    description = (
        f"parameter-space count drops from {generic_count} to {count} "
        f"at K_e = {ke_text}"
        if degenerate
        else None
    )
    return MLDegreeReport(
        reaction_text, ke_text, shape.value, count, fiber,
        Fraction(count, fiber), generic_count, degenerate, description,
        eliminant, system.survivor, degree, valuation,
        monomial_map.covers_model, tuple(caveats),
    )


# -- numeric companion -------------------------------------------------------


def _radical_value(system: CriticalSystem) -> complex | None:
    relation = system.monomial_map.radical
    if relation is None:
        return None
    if relation.ke.is_generic or relation.ke.value <= 0:
        raise ValueError("numeric solving needs a numeric K_e > 0")
    return float(relation.ke.value) ** (1.0 / relation.power)


def solve_critical_numeric(
    system: CriticalSystem,
    tol_residual: float = 1e-9,
) -> list[dict]:
    """Numeric critical points of {f_i, g}: lam eliminated linearly, the
    eliminant root-found, lam recovered per candidate.  Points are kept when
    every equation residual is below tol_residual."""
    if system.counts.is_symbolic:
        raise ValueError("numeric solving needs numeric counts")
    if "K_e" in system.ctx:
        raise ValueError("numeric solving needs a numeric K_e")
    constants: dict[str, complex] = {"lam": 0.0}
    s_value = _radical_value(system)
    if s_value is not None:
        constants["s"] = s_value
    params = system.monomial_map.param_vars
    g = system.constraint_pullback
    lam_free: list[dict[str, complex]] = []

    if len(params) == 1:
        t = params[0]
        for root in aberth_roots(_complex_coeffs(g, t, constants)):
            lam_free.append({t: root})
    else:
        t0, t1 = params
        w0, w1 = system.weights
        a0 = MPoly.var(system.ctx, t0) * g.partial_derivative(t0)
        a1 = MPoly.var(system.ctx, t1) * g.partial_derivative(t1)
        h = w0 * a1 - w1 * a0
        eliminant = reduce_radical(resultant(h, g, t0), system.monomial_map.radical)
        for t1_root in aberth_roots(_complex_coeffs(eliminant, t1, constants)):
            binding = dict(constants)
            binding[t1] = t1_root
            g_coeffs = _complex_coeffs(g, t0, binding)
            if len(g_coeffs) < 2:
                continue
            for t0_root in aberth_roots(g_coeffs):
                lam_free.append({t0: t0_root, t1: t1_root})

    results: list[dict] = []
    for point in lam_free:
        full = dict(constants)
        full.update(point)
        t_first = params[0]
        denom = (
            MPoly.var(system.ctx, t_first) * g.partial_derivative(t_first)
        ).eval_complex(full)
        if denom == 0:
            continue
        lam = system.weights[0].eval_complex(full) / denom
        full["lam"] = lam
        residuals = [abs(eq.eval_complex(full)) for eq in system.equations]
        residuals.append(abs(g.eval_complex(full)))
        if max(residuals) >= tol_residual:
            continue
        record = {p: full[p] for p in params}
        record["lam"] = lam
        record["residual_max"] = max(residuals)
        if not any(
            all(abs(record[p] - other[p]) < 1e-7 for p in params)
            for other in results
        ):
            results.append(record)
    return results
