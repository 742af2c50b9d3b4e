"""Maximum-likelihood estimation on equilibrium models.

The observed counts u pick out the likelihood p0^u0 ... pn^un / (sum p)^(sum u);
its critical points on the model are computed per shape: 2-species models are
finite sets cut out by the simplex line, 3-species models reuse the numeric
variety solver, and the 2:2 unit reaction has an exact closed form.  The
optimum is the likelihood argmax over candidates in the open simplex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .curve import count_critical_points_variety, curve_from_model
from .model import EquilibriumModel, ReactionShape, UnsupportedReactionError, classify_shape
from .poly import MPoly
from .reaction import format_reaction
from .roots import complex_roots

CLASS_POSITIVE = "positive_real_simplex"
CLASS_REAL = "real_nonpositive"
CLASS_COMPLEX = "complex"


class NoPositiveCriticalPointError(ValueError):
    """Every critical point has a nonpositive or non-real coordinate."""

    def __init__(self, candidates):
        super().__init__("no critical point lies in the open probability simplex")
        self.candidates = tuple(candidates)


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of the likelihood on the model."""

    coordinates: tuple
    residuals: tuple
    classification: str


@dataclass(frozen=True)
class MLEResult:
    optimum: CriticalPoint
    log_likelihood: float
    all_critical_points: tuple
    observed_ml_count: int
    caveats: tuple = ()


def classify_point(coords, tol: float = 1e-9) -> str:
    if any(abs(complex(c).imag) >= tol for c in coords):
        return CLASS_COMPLEX
    reals = [complex(c).real for c in coords]
    if all(r > 0 for r in reals) and abs(sum(reals) - 1.0) < tol:
        return CLASS_POSITIVE
    return CLASS_REAL


def likelihood_value(p, u) -> float:
    """Log likelihood sum(u_i log p_i) - (sum u) log(sum p); scale-invariant."""
    ps = [float(c.real) if isinstance(c, complex) else float(c) for c in p]
    us = [float(c) for c in u]
    if len(ps) != len(us):
        raise ValueError("point and counts have different lengths")
    if any(c <= 0 for c in ps):
        raise ValueError("likelihood needs strictly positive coordinates")
    if any(c < 0 for c in us) or sum(us) <= 0:
        raise ValueError("counts must be nonnegative with positive sum")
    return sum(c * math.log(q) for c, q in zip(us, ps)) - sum(us) * math.log(sum(ps))


def _validated_counts(model: EquilibriumModel, counts) -> tuple:
    values = tuple(int(c) for c in counts)
    if len(values) != len(model.species_vars):
        raise ValueError(
            f"expected {len(model.species_vars)} observation counts, got {len(values)}"
        )
    if any(c <= 0 for c in values):
        raise ValueError("observation counts must be positive in numeric paths")
    return values


def _point(model: EquilibriumModel, coords, extra_eqs=()) -> CriticalPoint:
    binding = dict(zip(model.species_vars, (complex(c) for c in coords)))
    residuals = [abs(model.F_affine.eval_complex(binding))]
    residuals.append(abs(sum(complex(c) for c in coords) - 1.0))
    for eq in extra_eqs:
        residuals.append(abs(eq.eval_complex(binding)))
    coords = tuple(complex(c) for c in coords)
    return CriticalPoint(coords, tuple(residuals), classify_point(coords))


def _select_optimum(model, counts, points, caveats=()) -> MLEResult:
    positive = [pt for pt in points if pt.classification == CLASS_POSITIVE]
    if not positive:
        raise NoPositiveCriticalPointError(points)
    scored = [
        (likelihood_value(pt.coordinates, counts), -index, pt)
        for index, pt in enumerate(positive)
    ]
    best = max(scored, key=lambda item: (item[0], item[1]))
    return MLEResult(best[2], best[0], tuple(points), len(points), tuple(caveats))


def _two_species_points(model: EquilibriumModel) -> list:
    """The model is cut to a finite set by the simplex line y = 1 - x."""
    ctx = model.ctx
    x_name, y_name = model.species_vars
    one = MPoly.const(ctx, Fraction(1))
    restricted = model.F_affine.substitute({y_name: one - MPoly.var(ctx, x_name)})
    if restricted.is_zero():
        raise ValueError("model contains the whole simplex line; no finite set")
    if restricted.degree_in(x_name) < 1:
        return []
    points = []
    for root, _ in complex_roots(restricted, x_name):
        coords = (root, 1.0 - root)
        if min(abs(coords[0]), abs(coords[1])) < 1e-9:
            continue  # on a coordinate hyperplane: not a critical point off H
        points.append(_point(model, coords))
    return points


def _three_species_points(model, counts, tol_residual, tol_cluster):
    curve = curve_from_model(model)
    count, raw, determinant_eq = count_critical_points_variety(
        curve, counts, tol_residual=tol_residual, tol_cluster=tol_cluster
    )
    points = []
    for entry in raw:
        total = sum(entry["coords"])
        coords = tuple(c / total for c in entry["coords"])
        points.append(_point(model, coords, extra_eqs=(determinant_eq,)))
    return count, points


def _segre_closed_form(model: EquilibriumModel, counts) -> CriticalPoint:
    """Independence closed form on the 2x2 layout.

    Absorbing K_e sends the model to the rank-one 2x2 tables with entries
    (K_e*x, z / t, y); the table MLE is row*column/total^2, pulled back by
    dividing the first entry by K_e and renormalizing.  Exact rationals
    throughout, so the point lies on the model exactly.
    """
    u0, u1, u2, u3 = (Fraction(c) for c in counts)
    row1, row2 = u0 + u2, u3 + u1
    col1, col2 = u0 + u3, u2 + u1
    total = u0 + u1 + u2 + u3
    table = (
        row1 * col1 / total**2,  # K_e * x entry
        row2 * col2 / total**2,  # y entry
        row1 * col2 / total**2,  # z entry
        row2 * col1 / total**2,  # t entry
    )
    ke = model.ke.value
    unabsorbed = (table[0] / ke, table[1], table[2], table[3])
    scale = sum(unabsorbed)
    exact = tuple(c / scale for c in unabsorbed)
    point = model.F_affine.eval_exact(dict(zip(model.species_vars, exact)))
    if point != 0:
        raise AssertionError("closed-form point left the model")
    return _point(model, tuple(float(c) for c in exact))


def maximize_likelihood(
    model: EquilibriumModel,
    counts,
    tol_residual: float = 1e-9,
    tol_cluster: float = 1e-7,
) -> MLEResult:
    """Maximum-likelihood estimate for positive observation counts.

    Routes by reaction shape; raises when no critical point is a strictly
    positive simplex point (carrying every candidate found) and for shapes
    whose estimate has no implemented route.
    """
    values = _validated_counts(model, counts)
    if model.ke.is_generic:
        raise ValueError("maximum-likelihood estimation needs a numeric K_e")
    if model.ke.value <= 0:
        raise ValueError("maximum-likelihood estimation needs K_e > 0")
    shape = classify_shape(model.reaction)
    if shape == ReactionShape.PAIR:
        return _select_optimum(model, values, _two_species_points(model))
    if shape == ReactionShape.TWO_ONE:
        count, points = _three_species_points(model, values, tol_residual, tol_cluster)
        result = _select_optimum(model, values, points)
        return MLEResult(
            result.optimum, result.log_likelihood, result.all_critical_points,
            count, result.caveats,
        )
    if shape == ReactionShape.SEGRE:
        point = _segre_closed_form(model, values)
        caveats = [
            "count fixed at 1 by the closed-form catalog entry",
            "optimum from the independence closed form on the 2x2 layout "
            "after absorbing K_e into the first coordinate",
        ]
        if model.ke.value != 1:
            # absorbing K_e rescales a coordinate, which moves the sum-to-one
            # hyperplane; the pulled-back table stays on the model but stops
            # being the constrained maximizer
            caveats.append(
                "reference closed form only; for K_e != 1 the constrained "
                "likelihood has a better critical point"
            )
        result = _select_optimum(model, values, [point], caveats)
        return MLEResult(
            result.optimum, result.log_likelihood, result.all_critical_points,
            1, result.caveats,
        )
    raise UnsupportedReactionError(
        "no maximum-likelihood route for this reaction shape; "
        "parameter-space counting may still apply"
    )


def mle_record(model: EquilibriumModel, counts, result: MLEResult) -> dict:
    """Serialized estimate: coordinates carry 18 significant digits."""
    return {
        "reaction": format_reaction(model.reaction),
        "ke": str(model.ke),
        "u": [int(c) for c in counts],
        "optimum": [f"{c.real:.18g}" for c in result.optimum.coordinates],
        "log_likelihood": result.log_likelihood,
        "observed_ml_count": result.observed_ml_count,
        "residual_max": max(result.optimum.residuals),
        "caveats": list(result.caveats),
    }
