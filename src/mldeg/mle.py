"""Maximum-likelihood estimation on equilibrium models, on the extent line.

Write c for the stoichiometric vector (reactant coefficients positive,
product coefficients negative) and S = sum(c), so the model is
K_e * prod(p_i ** c_i) = 1 on the simplex.  The critical points of the log
likelihood sum(u_i log p_i) there satisfy u_i = alpha c_i + beta p_i, so each
one is p = w / beta with w_i = u_i - alpha c_i and beta = sum(u) - alpha S,
and alpha is a root of one polynomial, the extent polynomial Q.

On the bracket where every w_i > 0,
h(alpha) = log K_e + sum(c_i log w_i) - S log beta falls strictly from +inf
to -inf (h' = -sum(c_i^2 / w_i) + S^2 / beta <= 0 by Cauchy-Schwarz, since
sum(w_i) = beta), and Q has the sign of h.  So for K_e > 0 and u > 0 there
is exactly one critical point in the open simplex, and it is the maximum:
Birch's theorem for one reaction (Craciun, Dickenstein, Shiu and Sturmfels,
J. Symbolic Comput. 2009).  It is found by exact rational bisection on the
sign of Q.  The number of complex critical points, the ML degree at u (Huh,
Compositio 2013), is the number of distinct roots of Q off the hyperplanes
w_i = 0 and beta = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .model import EquilibriumModel
from .poly import MPoly, VarContext, squarefree_decomposition
from .reaction import format_reaction

_EXTENT = VarContext.of(("alpha", "unknown"))


@dataclass(frozen=True)
class CriticalPoint:
    """One critical point of the likelihood on the model."""

    coordinates: tuple
    residuals: tuple


@dataclass(frozen=True)
class MLEResult:
    """The maximiser and the number of complex critical points at u.

    ``all_critical_points`` holds the critical points in the open simplex,
    which is the optimum alone.
    """

    optimum: CriticalPoint
    log_likelihood: float
    all_critical_points: tuple
    observed_ml_count: int


def likelihood_value(p, u) -> float:
    """Log likelihood sum(u_i log p_i) - (sum u) log(sum p); scale-invariant."""
    ps = [float(c) for c in p]
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


def _extent_polynomial(ke: Fraction, c: tuple, u: tuple) -> MPoly:
    """Q(alpha) = K_e prod_{c_i>0} w_i^c_i beta^max(0,-S)
    - prod_{c_i<0} w_i^-c_i beta^max(0,S): the model equation at p = w / beta,
    cleared of denominators."""
    alpha = MPoly.var(_EXTENT, "alpha")
    s = sum(c)
    beta = sum(u) - s * alpha
    reactant_side = ke * beta ** max(0, -s)
    product_side = beta ** max(0, s)
    for ui, ci in zip(u, c):
        if ci > 0:
            reactant_side = reactant_side * (ui - ci * alpha) ** ci
        else:
            product_side = product_side * (ui - ci * alpha) ** -ci
    return reactant_side - product_side


def _bisect_optimum(q: MPoly, c: tuple, u: tuple) -> tuple:
    """The exact point p = w / beta at (or beside) the one root of Q on the
    positive bracket, found by bisection on the sign of Q.

    Each coordinate is monotone in alpha, so once every coordinate rounds to
    the same double at both ends of the bracket, that double is the correctly
    rounded coordinate of the root.  A rational root whose coordinate is a
    rounding tie never separates, so bisection also stops on an exact zero,
    and once the bracket is narrower than 2^-64 of its distance to the
    nearest hyperplane w_i = 0; every coordinate then varies by less than
    2^-62 of itself across the bracket.  Scaling u scales every alpha, so the
    result is the same for u and lambda * u.
    """
    total, s = sum(u), sum(c)
    walls = [Fraction(ui, ci) for ui, ci in zip(u, c)]

    def point(a):
        beta = total - s * a
        return tuple((ui - ci * a) / beta for ui, ci in zip(u, c))

    # Q > 0 at lo, where a product weight vanishes; Q < 0 at hi
    lo = max(wall for wall, ci in zip(walls, c) if ci < 0)
    hi = min(wall for wall, ci in zip(walls, c) if ci > 0)
    p_lo, p_hi = point(lo), point(hi)
    while any(float(a) != float(b) for a, b in zip(p_lo, p_hi)):
        mid = (lo + hi) / 2
        gap = min(abs(wall - end) for wall in walls for end in (lo, hi))
        if hi - lo < gap / 2**64:
            return point(mid)
        sign = q.eval_exact({"alpha": mid})
        if sign == 0:
            return point(mid)
        if sign > 0:
            lo, p_lo = mid, point(mid)
        else:
            hi, p_hi = mid, point(mid)
    return p_lo


def _critical_count(q: MPoly, c: tuple, u: tuple) -> int:
    """Distinct roots of Q, less those on a hyperplane w_i = 0 or beta = 0."""
    distinct = sum(f.degree_in("alpha") for f, _ in squarefree_decomposition(q, "alpha"))
    excluded = {Fraction(ui, ci) for ui, ci in zip(u, c)}
    if sum(c):
        excluded.add(Fraction(sum(u), sum(c)))
    return distinct - sum(q.eval_exact({"alpha": a}) == 0 for a in excluded)


def maximize_likelihood(model: EquilibriumModel, counts) -> MLEResult:
    """Maximum-likelihood estimate for positive counts and K_e > 0."""
    values = _validated_counts(model, counts)
    if model.ke.is_generic:
        raise ValueError("maximum-likelihood estimation needs a numeric K_e")
    if model.ke.value <= 0:
        raise ValueError("maximum-likelihood estimation needs K_e > 0")
    reaction = model.reaction
    c = tuple(t.coefficient for t in reaction.reactants) + tuple(
        -t.coefficient for t in reaction.products
    )
    q = _extent_polynomial(model.ke.value, c, values)
    coords = tuple(float(x) for x in _bisect_optimum(q, c, values))
    binding = dict(zip(model.species_vars, coords))
    residuals = (abs(model.F_affine.eval_complex(binding)), abs(sum(coords) - 1.0))
    optimum = CriticalPoint(coords, residuals)
    return MLEResult(
        optimum, likelihood_value(coords, values), (optimum,), _critical_count(q, c, values)
    )


def mle_record(model: EquilibriumModel, counts, result: MLEResult) -> dict:
    """Serialized estimate: coordinates carry 18 significant digits."""
    return {
        "reaction": format_reaction(model.reaction),
        "ke": str(model.ke),
        "u": [int(c) for c in counts],
        "optimum": [f"{c:.18g}" for c in result.optimum.coordinates],
        "log_likelihood": result.log_likelihood,
        "observed_ml_count": result.observed_ml_count,
        "residual_max": max(result.optimum.residuals),
        # a key of the record format; the extent route has no caveat to add
        "caveats": [],
    }
