"""Variety-side critical-point counting for 3-species models (plane curves).

Two independent routes to the same number:

* the smooth-curve count formula d^2 - 3d + a, with a = number of distinct
  points where the curve meets the distinguished line arrangement
  {x = 0, y = 0, z = 0, x + y + z = 0}, computed exactly; and
* a numeric solve of the determinant critical system on the curve itself.

Both live on the homogeneous side and know nothing about monomial
parameterizations, which is what makes them usable as cross-checks.

The certificates of the formula route (smoothness_check, arrangement_count)
run on integer term maps: the curve's polynomial F is multiplied once by a
common denominator (_integer_form), after a generic K_e is set to
SAMPLE_KE for the smoothness check, while the arrangement count keeps K_e
as a variable of the integer polynomial and works over Q(K_e).  Scaling F
by a nonzero integer changes neither the zero sets of F and of its
partials, nor which resultants vanish, nor any gcd degree, so every
verdict and count is that of F.  Floats start only at the root finders
(complex_roots, _complex_coeffs/aberth_roots) and _confirm_singular, and
each polynomial passed there is the rational one: the integer form
divided exactly by its scale, or the monic gcd, which is unique.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .model import EquilibriumModel
from .poly import (
    MPoly,
    _gcd_degree,
    _integer_gcd,
    _dense_in,
    _integer_resultant,
    from_dense,
    resultant,
)
from .roots import _complex_coeffs, aberth_roots, complex_roots

COORDS = ("x", "y", "z")
LINES = ("x", "y", "z", "L")

# remaining coordinates after restricting to each line
_REMAINING = {"x": ("y", "z"), "y": ("x", "z"), "z": ("x", "y"), "L": ("x", "y")}

# every point lying on >= 2 of the 4 arrangement lines, with its incidences
ARRANGEMENT_POINTS = (
    ((1, 0, 0), ("y", "z")),
    ((0, 1, 0), ("x", "z")),
    ((0, 0, 1), ("x", "y")),
    ((0, 1, -1), ("x", "L")),
    ((1, 0, -1), ("y", "L")),
    ((1, -1, 0), ("z", "L")),
)

# thresholds of the numeric count: the largest equation residual kept at a
# max-norm-normalized point; the discard distances of a normalized point to
# the arrangement, to a singular witness and to a kept point (projective)
TOL_RESIDUAL = 1e-9
TOL_POSITION = 1e-9
TOL_WITNESS = 1e-7
TOL_CLUSTER = 1e-7

# the value a generic K_e takes in smoothness_check
SAMPLE_KE = Fraction(101, 103)


class CurveContainsLineError(ValueError):
    """The curve vanishes identically on an arrangement line."""

    def __init__(self, line: str):
        super().__init__(f"curve contains line {line}: reducible against the arrangement")
        self.line = line


class PlaneCurve(namedtuple("PlaneCurve", "F_hom degree")):
    """Homogeneous plane curve F(x, y, z) = 0 of positive degree.

    The context may carry an extra transcendental constant (a generic
    equilibrium constant); degree and homogeneity are measured in the
    coordinate variables only.
    """

    __slots__ = ()


class ArrangementCount(namedtuple(
        "ArrangementCount", "per_line_distinct shared_point_correction a caveats")):
    """Distinct intersection points of the curve with the 4-line arrangement.

    a = sum(per_line_distinct) - shared_point_correction; the correction
    subtracts 1 for each of the 6 pairwise line intersections lying on the
    curve, since those appear in two per-line tallies.
    """

    __slots__ = ()


class SmoothnessReport(namedtuple("SmoothnessReport", "status witness detail")):
    """status "smooth", "singular" or "undetermined"; a witness point
    (tuple) or None; a detail text."""

    __slots__ = ()


def plane_curve(F_hom: MPoly) -> PlaneCurve:
    if F_hom.is_zero():
        raise ValueError("plane curve needs a nonzero polynomial")
    for name in COORDS:
        if name not in F_hom.ctx:
            raise ValueError(f"plane curve needs coordinate {name!r}")
    coord_idx = [F_hom.ctx.index(name) for name in COORDS]
    degrees = {sum(exp[i] for i in coord_idx) for exp in F_hom.term_map()}
    if len(degrees) != 1:
        raise ValueError("plane curve polynomial must be homogeneous in x, y, z")
    d = degrees.pop()
    if d < 1:
        raise ValueError("plane curve needs positive degree")
    return PlaneCurve(F_hom, d)


def curve_from_model(model: EquilibriumModel) -> PlaneCurve:
    """The model variety as a plane curve; 3-species models only."""
    if len(model.species_vars) != 3:
        raise ValueError("plane-curve route needs exactly 3 species")
    return plane_curve(model.F_hom)


def _pure_power_variable(F: MPoly) -> str | None:
    """The coordinate v when F is c * v^d (d >= 2) up to constants, else None."""
    if len(F.term_map()) != 1:
        return None
    used = [name for name in COORDS if F.uses(name)]
    if len(used) != 1:
        return None
    return used[0] if F.degree_in(used[0]) >= 2 else None


def _integer_form(F: MPoly, bind: bool) -> tuple[dict, int]:
    """(G, m): m * F as an integer term map, with m > 0.

    The keys are (x, y, z, *others) exponent tuples, others being F's
    remaining variables in context order.  With bind, every other variable
    is set to SAMPLE_KE = p/q first and the keys are (x, y, z); m is then
    the lcm of the coefficient denominators times q^top, top the largest
    total degree of a term in the other variables.
    """
    coords = [F.ctx.index(name) for name in COORDS]
    others = [i for i in range(len(F.ctx)) if i not in coords]
    kept = coords if bind else coords + others
    terms = F.term_map()
    lcd = math.lcm(*(c.denominator for c in terms.values()))
    p, q = SAMPLE_KE.numerator, SAMPLE_KE.denominator
    top = max(sum(e[i] for i in others) for e in terms) if bind else 0
    G = {}
    for e, c in terms.items():
        k = sum(e[i] for i in others) if bind else 0
        key = tuple(e[i] for i in kept)
        G[key] = G.get(key, 0) + c.numerator * (lcd // c.denominator) * p ** k * q ** (top - k)
    return {e: c for e, c in G.items() if c}, lcd * q ** top


def _rational(G: dict, ctx, gone: str, scale: int) -> MPoly:
    """G / scale at the coordinate gone = 1, over ctx less gone, for G
    keyed as _integer_form keys it."""
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


def _restricted(G: dict, line: str) -> dict:
    """The integer form G restricted to one arrangement line, keyed as G
    with the restricted coordinate at 0 (z on the sum line)."""
    if line == "L":
        # z = -(x + y), by the binomial theorem
        form = {}
        for (a, b, k, *rest), c in G.items():
            c = -c if k % 2 else c
            for j in range(k + 1):
                key = (a + j, b + k - j, 0, *rest)
                form[key] = form.get(key, 0) + c * math.comb(k, j)
        form = {e: c for e, c in form.items() if c}
    else:
        i = COORDS.index(line)
        form = {e: c for e, c in G.items() if not e[i]}
    if not form:
        raise CurveContainsLineError(line)
    return form


def restrict_to_line(curve: PlaneCurve, line: str) -> MPoly:
    """Binary form: the curve restricted to one arrangement line.

    Coordinate lines set the variable to zero; the sum line substitutes
    z = -(x + y).  A curve containing the line restricts to zero, which is
    flagged instead of returned.
    """
    if line not in LINES:
        raise ValueError(f"unknown line {line!r}; expected one of {LINES}")
    G, scale = _integer_form(curve.F_hom, bind=False)
    gone = "z" if line == "L" else line
    return _rational(_restricted(G, line), curve.F_hom.ctx, gone, scale)


def _distinct_projective_roots(form: dict, pair: tuple) -> int:
    """Distinct projective zeros of a restricted integer form in the
    coordinate pair.

    Exact: the root at (0:1) is a valuation check, the rest are counted as
    degree minus gcd degree with the derivative after dehomogenizing.  The
    other variables (a transcendental constant) stay in the coefficients,
    which keeps the gcd degree exact over the rational function field.
    """
    v, w = (COORDS.index(name) for name in pair)
    count = 1 if min(e[v] for e in form) > 0 else 0
    top = max(e[w] for e in form)
    if top >= 1:
        # the form is homogeneous in v, w: dehomogenizing merges no terms
        dehom = [{e[3:]: c for e, c in form.items() if e[w] == k} for k in range(top, -1, -1)]
        derivative = [{r: c * (top - k) for r, c in coeff.items()}
                      for k, coeff in enumerate(dehom[:-1])]
        count += top - _gcd_degree(dehom, derivative)
    return count


def _vanishes_at(G: dict, point: tuple) -> bool:
    """G is zero at a point (x, y, z) with coordinates in {0, ±1}: each
    value is a signed sum of coefficients, one per exponent of the other
    variables."""
    values = {}
    for (a, b, k, *rest), c in G.items():
        key = tuple(rest)
        values[key] = values.get(key, 0) + c * point[0] ** a * point[1] ** b * point[2] ** k
    return not any(values.values())


def arrangement_count(curve: PlaneCurve) -> ArrangementCount:
    """Count distinct points of curve ∩ arrangement, line by line.

    A non-reduced single-variable power (the K_e = 0 shape) is a multiple
    coordinate line: only its two corner points with the other coordinate
    lines are counted; the contained line and the sum line are skipped with
    caveats, matching the degenerate-case convention a = 2.
    """
    power_var = _pure_power_variable(curve.F_hom)
    if power_var is not None:
        per = tuple(
            0 if line in (power_var, "L") else 1 for line in LINES
        )
        caveats = (
            f"curve contains line {power_var}: reducible against the arrangement; "
            "skipped in the count",
            "restriction to the sum line has its only root on the contained "
            "line; not counted",
        )
        return ArrangementCount(per, 0, sum(per), caveats)

    G, _ = _integer_form(curve.F_hom, bind=False)
    per = []
    caveats = []
    skipped = set()
    for line in LINES:
        try:
            form = _restricted(G, line)
        except CurveContainsLineError as exc:
            skipped.add(line)
            per.append(0)
            caveats.append(f"{exc}; skipped in the count")
            continue
        per.append(_distinct_projective_roots(form, _REMAINING[line]))
    correction = 0
    for point, incident in ARRANGEMENT_POINTS:
        if any(line in skipped for line in incident):
            continue
        if _vanishes_at(G, point):
            correction += 1
    return ArrangementCount(tuple(per), correction, sum(per) - correction, tuple(caveats))


def _normalize_projective(coords: tuple) -> tuple:
    scale = max(abs(c) for c in coords)
    return tuple(c / scale for c in coords)


def _projective_distance(p: tuple, q: tuple) -> float:
    """Norm of the cross product of max-norm-normalized representatives."""
    a = _normalize_projective(p)
    b = _normalize_projective(q)
    cross = (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )
    return max(abs(c) for c in cross)


def smoothness_check(curve: PlaneCurve) -> SmoothnessReport:
    """Search for common projective zeros of the three partial derivatives.

    By the homogeneous scaling relation d*F = x*Fx + y*Fy + z*Fz, any such
    zero automatically lies on the curve, so only the partials are
    eliminated.  Per affine patch the integer partials are reduced to
    univariate integer eliminants; a constant gcd proves the patch clean
    exactly (scaling F by the common denominator changes no gcd), and
    nonconstant candidates are isolated numerically and confirmed singular
    only when every residual is below 1e-10.

    A generic K_e is decided at K_e = SAMPLE_KE: the pairs (K_e, p) where all
    partials vanish are closed in A^1 x P^2, so their projection to the K_e
    line is closed, and a curve smooth at the sample is smooth for all but
    finitely many K_e.  A singular point at the sample proves nothing for
    generic K_e, so its patch stays pending and is not searched.  The
    singular points of a model curve at the sample usually lie on the line
    arrangement, so such a patch is mostly decided pending by one exact
    common zero of its partials at an arrangement point, before any
    elimination (``_patch_singular_search``).
    """
    F = curve.F_hom
    power_var = _pure_power_variable(F)
    if power_var is not None:
        witness = {
            "x": (0.0 + 0j, 1.0 + 0j, 0.0 + 0j),
            "y": (1.0 + 0j, 0.0 + 0j, 0.0 + 0j),
            "z": (1.0 + 0j, 0.0 + 0j, 0.0 + 0j),
        }[power_var]
        return SmoothnessReport(
            "singular", witness, f"non-reduced: a power of {power_var}"
        )
    if curve.degree == 1:
        return SmoothnessReport("smooth", None, "degree 1")
    symbolic = any(F.uses(name) for name in F.ctx.names if name not in COORDS)
    G, scale = _integer_form(F, bind=True)
    partials = [{e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in G.items() if e[i]}
                for i in range(3)]
    # a homogeneous partial is zero in a patch only when it is zero
    reduced = [q for q in partials if q]
    pending = None
    for patch in range(3):
        u, v = (i for i in range(3) if i != patch)
        # one free of both patch unknowns is a nonzero constant there
        if any(not any(e[u] or e[v] for e in q) for q in reduced):
            continue
        witness = _patch_singular_search(curve, patch, reduced, scale, symbolic)
        if isinstance(witness, tuple):
            return SmoothnessReport("singular", witness, f"confirmed in patch {COORDS[patch]} = 1")
        if witness == "pending":
            pending = COORDS[patch]
    if pending is not None:
        return SmoothnessReport(
            "undetermined", None,
            f"exact candidates in patch {pending} = 1 lack numeric confirmation",
        )
    return SmoothnessReport("smooth", None, "all patch eliminants are nonzero constants")


def _arrangement_witness(patch: int, reduced: list) -> bool:
    """True when every reduced partial vanishes, exactly, at one point of
    ARRANGEMENT_POINTS that lies in the patch.

    The partials are homogeneous, so each vanishes at the point
    dehomogenised in the patch exactly when it vanishes at the point, whose
    coordinates are 0 and ±1: each check is a signed sum of coefficients.
    """
    return any(point[patch] and all(_vanishes_at(q, point) for q in reduced)
               for point, _ in ARRANGEMENT_POINTS)


def _rows(q: dict, u: int, v: int) -> list:
    """A partial in the patch: its coefficient lists in coordinate v,
    highest power first, each dense ascending in coordinate u, as
    _integer_resultant takes them."""
    top = max(e[v] for e in q)
    return _dense_in([{e: c for e, c in q.items() if e[v] == k} for k in range(top, -1, -1)], u)


def _patch_singular_search(curve, patch, reduced, scale, symbolic):
    """Candidates for common zeros of the partials in one affine patch.

    The reduced partials are the nonzero ones, integer forms (x, y, z)
    of scale times the rational partials.  Returns a witness tuple when a
    candidate passes the residual test, "pending" when exact candidates
    exist but none confirm, or "clean" when the eliminant gcd is a nonzero
    constant.

    A sampled generic K_e is first tried on the arrangement points of the
    patch (``_arrangement_witness``); a common zero there is "pending" before
    any elimination, the verdict elimination would reach: at a common zero
    (u0, v0) every univariate partial and every pairwise resultant in v
    vanishes at u0, so the eliminant gcd is nonconstant, or no resultant is
    nonzero, and both are "pending".

    The eliminants and their gcd are exact integer polynomials in u.  Floats
    start at the root finders and _confirm_singular, and every polynomial
    passed there is rational: the integer form divided exactly by its
    scale, or the monic gcd.
    """
    if symbolic and _arrangement_witness(patch, reduced):
        return "pending"
    u, v = (i for i in range(3) if i != patch)
    # univariate: (integer polynomial in u, highest power first; its scale)
    bivariate, univariate = [], []
    for q in reduced:
        if any(e[v] for e in q):
            bivariate.append(q)
        else:
            univariate.append((_rows(q, u, v)[0][::-1], scale))
    rows = [_rows(q, u, v) for q in bivariate]
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            r = _integer_resultant(rows[i], rows[j])
            if r:
                # Res(f / m, g / m) = Res(f, g) / m^(deg f + deg g)
                univariate.append((r, scale ** (len(rows[i]) + len(rows[j]) - 2)))

    if univariate:
        gcd = univariate[0][0]
        for other, _ in univariate[1:]:
            gcd = _integer_gcd(gcd, other)
        if len(gcd) == 1:
            return "clean"
    if symbolic:
        return "pending"

    # the float boundary: from here on each polynomial is the rational one,
    # the integer form divided exactly by its scale
    F = curve.F_hom
    partials = {name: F.partial_derivative(name) for name in COORDS}
    patch, others = COORDS[patch], (COORDS[u], COORDS[v])
    u_var, v_var = others
    if not univariate:
        # all partials share a factor: sample rational lines to land on it
        probe = _rational(reduced[0], F.ctx, patch, scale)
        for v0 in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                   Fraction(-2), Fraction(1, 2), Fraction(3)):
            # exact substitution, so repeated roots split off before Aberth
            line = probe.substitute({v_var: v0})
            if line.is_zero():
                continue
            for u0, _ in complex_roots(line, u_var):
                witness = _confirm_singular(F, partials, patch, others, u0, complex(v0))
                if witness is not None:
                    return witness
        return "pending"

    # the gcd the rational route reaches: the one eliminant itself, or monic
    divisor = univariate[0][1] if len(univariate) == 1 else gcd[0]
    gcd_poly = from_dense(F.ctx.drop([patch]), u_var, [Fraction(c, divisor) for c in gcd[::-1]])
    sources = [_rational(q, F.ctx, patch, scale) for q in bivariate or reduced]
    # a rational root p/q of the monic gcd has q dividing the lcm of its
    # coefficient denominators
    lcd = math.lcm(*(c.denominator for _, c in gcd_poly.items()))
    for u0, _ in complex_roots(gcd_poly, u_var):
        exact = Fraction(round(Fraction(u0.real) * lcd), lcd)
        rational = gcd_poly.substitute({u_var: exact}).is_zero()
        if rational:
            u0 = complex(exact)
        for source in sources:
            v_roots = aberth_roots(_complex_coeffs(source, v_var, {u_var: u0}))
            if rational:
                # Aberth leaves a repeated root off by ~sqrt(eps); the line
                # substituted exactly splits it off, so each root is snapped
                # to its exact neighbour
                line = source.substitute({u_var: exact})
                exact_v = [] if line.is_zero() else [v for v, _ in complex_roots(line, v_var)]
                v_roots = [min(exact_v, key=lambda v: abs(v - v0))
                           for v0 in v_roots] if exact_v else []
            for v0 in v_roots:
                witness = _confirm_singular(F, partials, patch, others, u0, v0)
                if witness is not None:
                    return witness
    return "pending"


def _confirm_singular(F, partials, patch, others, u0, v0):
    point = {patch: 1.0 + 0j, others[0]: u0, others[1]: v0}
    coords = tuple(point[name] for name in COORDS)
    normalized = _normalize_projective(coords)
    binding = dict(zip(COORDS, normalized))
    residuals = [abs(F.eval_complex(binding))]
    for name in COORDS:
        residuals.append(abs(partials[name].eval_complex(binding)))
    if max(residuals) < 1e-10:
        return normalized
    return None


def variety_critical_system(curve: PlaneCurve, counts: tuple) -> tuple:
    """The determinant critical system on the curve.

    Equation 1 is the curve itself; equation 2 is the 3x3 determinant with
    rows (1,1,1), (u0*y*z, u1*x*z, u2*x*y) and the gradient, homogeneous of
    degree d + 1.  The middle row is the likelihood gradient row cleared of
    denominators by x*y*z; the extra zeros that introduces lie on the
    arrangement and are discarded downstream.
    """
    if len(counts) != 3:
        raise ValueError("variety critical system needs 3 observation counts")
    if any(c <= 0 for c in counts):
        raise ValueError("observation counts must be positive")
    ctx = curve.F_hom.ctx
    x, y, z = (MPoly.var(ctx, name) for name in COORDS)
    a0, a1, a2 = (Fraction(c) * m for c, m in zip(counts, (y * z, x * z, x * y)))
    b0, b1, b2 = (curve.F_hom.partial_derivative(name) for name in COORDS)
    # along the row of ones: a1*b2 - a2*b1 - a0*b2 + a2*b0 + a0*b1 - a1*b0
    eq2 = a0 * (b1 - b2) + a1 * (b2 - b0) + a2 * (b0 - b1)
    return curve.F_hom, eq2


def count_critical_points_variety(curve: PlaneCurve, counts: tuple) -> tuple:
    """Numeric critical points of the determinant system off the arrangement.

    Works in the patch z = 1 (points with z = 0 lie on the arrangement and
    are discarded regardless): eliminate y by resultant, root-find, and
    back-substitute.  Candidates are kept when both equation residuals at
    the max-norm-normalized point are below TOL_RESIDUAL; then points on
    the arrangement (TOL_POSITION), points near a singular witness
    (TOL_WITNESS), and projective duplicates (TOL_CLUSTER) are discarded.

    Returns (count, kept points, determinant equation), the last so that a
    caller who also needs that equation builds the critical system once.
    """
    for name in curve.F_hom.ctx.names:
        if name not in COORDS:
            raise ValueError("numeric counting needs a numeric equilibrium constant")
    if _pure_power_variable(curve.F_hom) is not None:
        raise ValueError("numeric counting refuses a non-reduced curve")
    eq1, eq2 = variety_critical_system(curve, counts)
    witnesses = []
    report = smoothness_check(curve)
    if report.status == "singular":
        witnesses.append(report.witness)

    e1 = eq1.substitute({"z": Fraction(1)})
    e2 = eq2.substitute({"z": Fraction(1)})
    first, second = "x", "y"
    eliminant = resultant(e1, e2, second)
    if eliminant.is_zero():
        first, second = "y", "x"
        eliminant = resultant(e1, e2, second)
        if eliminant.is_zero():
            raise ValueError("critical system shares a component with the curve")

    candidates = []
    for root, _ in complex_roots(eliminant, first):
        coeffs = _complex_coeffs(e1, second, {first: root})
        if len(coeffs) < 2:
            continue
        for partner in aberth_roots(coeffs):
            point = {first: root, second: partner, "z": 1.0 + 0j}
            candidates.append((point["x"], point["y"], point["z"]))

    kept = []
    for coords in candidates:
        normalized = _normalize_projective(coords)
        binding = dict(zip(COORDS, normalized))
        residual = max(abs(eq1.eval_complex(binding)), abs(eq2.eval_complex(binding)))
        if residual >= TOL_RESIDUAL:
            continue
        margins = [abs(c) for c in normalized]
        margins.append(abs(sum(normalized)))
        if any(m < TOL_POSITION for m in margins):
            continue
        if any(_projective_distance(normalized, w) < TOL_WITNESS for w in witnesses):
            continue
        if any(_projective_distance(normalized, e["coords"]) < TOL_CLUSTER for e in kept):
            continue
        kept.append({"coords": normalized, "residual_max": residual})
    return len(kept), kept, eq2


class CurveMLReport(namedtuple(
        "CurveMLReport", "degree smoothness arrangement ml_degree caveats method",
        defaults=("curve",))):
    """Variety-side count with its certificate trail, for display: a
    SmoothnessReport, an ArrangementCount or None, and the count or None."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "degree": self.degree,
            "smoothness": self.smoothness.status,
            "arrangement_a": None if self.arrangement is None else self.arrangement.a,
            "per_line_distinct": None
            if self.arrangement is None
            else list(self.arrangement.per_line_distinct),
            "ml_degree_curve": self.ml_degree,
            "caveats": list(self.caveats),
        }


def curve_ml_report(curve: PlaneCurve) -> CurveMLReport:
    """Formula-route count with graceful refusal instead of exceptions."""
    caveats = []
    if _pure_power_variable(curve.F_hom) is not None:
        arrangement = arrangement_count(curve)
        caveats.extend(arrangement.caveats)
        caveats.append("non-reduced curve: count 0 by the degenerate-case convention")
        smoothness = smoothness_check(curve)
        return CurveMLReport(curve.degree, smoothness, arrangement, 0, tuple(caveats))
    smoothness = smoothness_check(curve)
    if smoothness.status == "singular":
        caveats.append(
            "smooth-curve count formula inapplicable: singular point near "
            f"{_format_witness(smoothness.witness)}"
        )
        return CurveMLReport(curve.degree, smoothness, None, None, tuple(caveats))
    if smoothness.status == "undetermined":
        caveats.append("smoothness undetermined: " + smoothness.detail)
        return CurveMLReport(curve.degree, smoothness, None, None, tuple(caveats))
    arrangement = arrangement_count(curve)
    caveats.extend(arrangement.caveats)
    d = curve.degree
    return CurveMLReport(
        curve.degree, smoothness, arrangement, d * d - 3 * d + arrangement.a, tuple(caveats)
    )


def _format_witness(witness) -> str:
    if witness is None:
        return "(unknown)"
    parts = []
    for c in witness:
        c = complex(c)
        if abs(c.imag) < 1e-12:
            parts.append(f"{c.real:.6g}")
        else:
            parts.append(f"{c.real:.6g}{c.imag:+.6g}i")
    return "(" + " : ".join(parts) + ")"
