"""Variety-side critical-point counting for 3-species models (plane curves).

The smooth-curve count formula d^2 - 3d + a, with a = number of distinct
points where the curve meets the distinguished line arrangement
{x = 0, y = 0, z = 0, x + y + z = 0}, computed exactly.  It lives on the
homogeneous side and knows nothing about monomial parameterizations, which
is what makes it usable as a cross-check.  The second route on the
variety, a numeric solve of the determinant critical system on the curve
itself, is variety's, which builds on this module; no command loads it.

A curve is an integer form: m * F as an integer term map keyed by
(x, y, z, *others) exponent tuples, for a common denominator m > 0, as the
model makes F_hom (model.EquilibriumModel).  The smoothness check sets a
generic K_e to SAMPLE_KE on that map (_bound_form), while the arrangement
count keeps K_e as a variable of the integer polynomial and works over
Q(K_e).  Partials, restrictions, eliminants and gcds are integer maps and
integer polynomials built from it.  Scaling F by a nonzero integer changes
neither the zero sets of F and of its partials, nor which resultants
vanish, nor any gcd degree, so every verdict and count is that of F.

A model curve's singular points are known: F_hom has two monomial terms
in x, y, z and L = x + y + z that share no variable, so a singular point
lies on two of the four lines (ARRANGEMENT_POINTS), or is the node at the
signed stoichiometry c, which the curve carries, at K_e = K_e*
(Rodriguez and Wang, IMRN 2020; Huh, Compositio 2013), or, at K_e = 0,
where F is a product of lines, lies on a multiple line, which holds
arrangement points that are singular too.  The smoothness check tests
these exact candidates before any elimination, so the route finds no
root and makes no float but the printed witness.

The integer resultant (_integer_resultant) is the resultant of two integer
polynomials in one variable t besides the eliminated one: the closing
step of intpoly's subresultant sequence over Z[t] (intpoly._remainders),
on integer term maps in t, which also gives the eliminant gcds and, over
Z[K_e], the gcd degrees of the arrangement count.  The tests check it
against Bareiss on the Sylvester matrix (tests/reference.py).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .intpoly import _exact_quotient, _integer_gcd, _power, _remainders
from .model import EquilibriumModel

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

# the value a generic K_e takes in smoothness_check
SAMPLE_KE = Fraction(101, 103)


class CurveContainsLineError(ValueError):
    """The curve vanishes identically on an arrangement line."""

    def __init__(self, line: str):
        super().__init__(f"curve contains line {line}: reducible against the arrangement")
        self.line = line


class PlaneCurve(namedtuple("PlaneCurve", "form scale degree node", defaults=(None,))):
    """Homogeneous plane curve F(x, y, z) = 0 of positive degree, given as
    its integer form m * F (form) and m (scale).

    The keys may carry one transcendental constant (a generic
    equilibrium constant) after x, y, z; degree and homogeneity are
    measured in the coordinates only.  node is an integer point where the
    curve may be singular off the arrangement, tested in smoothness_check
    beside the arrangement points: a model's stoichiometry, or None.
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


def plane_curve(form: dict, scale: int) -> PlaneCurve:
    """The curve of the integer form of scale * F, keyed (x, y, z) or
    (x, y, z, K_e)."""
    if not form:
        raise ValueError("plane curve needs a nonzero polynomial")
    if set(map(len, form)) not in ({3}, {4}):
        raise ValueError("plane curve needs coordinates x, y, z first in keys of one length,"
                         " with at most one constant after them")
    degrees = {sum(exp[:3]) for exp in form}
    if len(degrees) != 1:
        raise ValueError("plane curve polynomial must be homogeneous in x, y, z")
    d = degrees.pop()
    if d < 1:
        raise ValueError("plane curve needs positive degree")
    return PlaneCurve(form, scale, d)


def curve_from_model(model: EquilibriumModel) -> PlaneCurve:
    """The model variety as a plane curve; 3-species models only.  The
    model's F_hom is keyed by its context, (x, y, z) or (x, y, z, K_e), and
    its node is the stoichiometry c: at K_e = K_e* the model has a node at
    p = c / S, S the sum of c (Rodriguez and Wang, IMRN 2020)."""
    if len(model.species_vars) != 3:
        raise ValueError("plane-curve route needs exactly 3 species")
    return plane_curve(*model.F_hom)._replace(node=model.reaction.stoichiometry)


def _symbolic(G: dict) -> bool:
    """Whether a constant past (x, y, z) in G's keys is left symbolic."""
    return any(any(e[3:]) for e in G)


def _pure_power_variable(G: dict) -> str | None:
    """The coordinate v when G is c * v^d (d >= 2) up to constants, else None."""
    if len(G) != 1:
        return None
    (exp,) = G
    used = [i for i in range(3) if exp[i]]
    if len(used) != 1:
        return None
    return COORDS[used[0]] if exp[used[0]] >= 2 else None


def _bound_form(G: dict, scale: int) -> tuple[dict, int]:
    """(H, n): the integer form G of scale * F with every other variable
    set to SAMPLE_KE = p/q, keyed (x, y, z), as the integer form n * F.
    n is scale times q^top, top the largest total degree of a term in the
    other variables."""
    p, q = SAMPLE_KE.numerator, SAMPLE_KE.denominator
    top = max(sum(e[3:]) for e in G)
    H = {}
    for e, c in G.items():
        k = sum(e[3:])
        H[e[:3]] = H.get(e[:3], 0) + c * p ** k * q ** (top - k)
    return {e: c for e, c in H.items() if c}, scale * q ** top


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


def _distinct_projective_roots(form: dict, pair: tuple) -> int:
    """Distinct projective zeros of a restricted integer form in the
    coordinate pair.

    Exact: the root at (0:1) is a valuation check, the rest are counted as
    degree minus gcd degree with the derivative after dehomogenizing, the
    degree of the last subresultant remainder (intpoly._remainders).  The
    one other variable (a transcendental constant) stays in the
    coefficients, keyed by its exponent, which keeps the gcd degree exact
    over the rational function field.
    """
    v, w = (COORDS.index(name) for name in pair)
    count = 1 if min(e[v] for e in form) > 0 else 0
    top = max(e[w] for e in form)
    if top >= 1:
        # the form is homogeneous in v, w: dehomogenizing merges no terms
        dehom = [{sum(e[3:]): c for e, c in form.items() if e[w] == k}
                 for k in range(top, -1, -1)]
        derivative = [{r: c * (top - k) for r, c in coeff.items()}
                      for k, coeff in enumerate(dehom[:-1])]
        count += top + 1 - len(_remainders(dehom, derivative)[1])
    return count


def _vanishes_at(G: dict, point: tuple) -> bool:
    """G is zero at an integer point (x, y, z): one exact integer value per
    exponent of the other variables, at coordinates in {0, ±1} a signed sum
    of coefficients."""
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
    G = curve.form
    power_var = _pure_power_variable(G)
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


def smoothness_check(curve: PlaneCurve) -> SmoothnessReport:
    """Search for common projective zeros of the three partial derivatives.

    By the homogeneous scaling relation d*F = x*Fx + y*Fy + z*Fz, any such
    zero automatically lies on the curve, so only the partials are
    examined, patch by affine patch (_patch_singular_search).  The exact
    candidates of a patch, its arrangement points and then the curve's
    node, are tested first: a common zero there is a singular point, and
    its witness is that point.  Else the integer partials are reduced to
    univariate integer eliminants; a constant gcd proves the patch clean
    exactly (scaling F by the common denominator changes no gcd), and a
    nonconstant one leaves it pending.  A model curve's singular points
    are candidates, or, at K_e = 0, fill a multiple line through one, so at
    a numeric K_e it is decided; a hand-built curve singular off the
    candidates is "undetermined".

    A generic K_e is decided at K_e = SAMPLE_KE: the pairs (K_e, p) where all
    partials vanish are closed in A^1 x P^2, so their projection to the K_e
    line is closed, and a curve smooth at the sample is smooth for all but
    finitely many K_e.  A singular point at the sample proves nothing for
    generic K_e, so its patch stays pending: a candidate zero there is
    pending before any elimination, the verdict elimination would reach.

    A numeric K_e walks the patches x, y, z: the first candidate zero
    decides, else the last pending patch is named.  A generic K_e walks
    z, y, x and stops at the first pending patch, the same one, and the
    patches after it, which could only be pending or clean, change no
    verdict.
    """
    power_var = _pure_power_variable(curve.form)
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
    symbolic = _symbolic(curve.form)
    G, _ = _bound_form(curve.form, curve.scale)
    # a homogeneous partial is zero in a patch only when it is zero
    reduced = [q for q in _partials(G) if q]
    candidates = [point for point, _ in ARRANGEMENT_POINTS]
    if curve.node is not None:
        candidates.append(curve.node)
    pending = None
    for patch in (2, 1, 0) if symbolic else range(3):
        u, v = (i for i in range(3) if i != patch)
        # one free of both patch unknowns is a nonzero constant there
        if any(not any(e[u] or e[v] for e in q) for q in reduced):
            continue
        found = _patch_singular_search(reduced, patch, candidates)
        if found == "clean":
            continue
        if found != "pending" and not symbolic:
            return SmoothnessReport("singular", _witness(found, patch),
                                    f"confirmed in patch {COORDS[patch]} = 1")
        pending = COORDS[patch]
        if symbolic:
            break
    if pending is not None:
        return SmoothnessReport(
            "undetermined", None,
            f"exact candidates in patch {pending} = 1 lack numeric confirmation",
        )
    return SmoothnessReport("smooth", None, "all patch eliminants are nonzero constants")


def _partials(G: dict) -> list:
    """The partial derivatives of an integer form in x, y and z, keyed as G."""
    return [{e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in G.items() if e[i]}
            for i in range(3)]


def _candidate_zero(patch: int, reduced: list, candidates: list) -> tuple | None:
    """The first integer point of candidates that lies in the patch and at
    which every reduced partial vanishes, exactly, else None.

    The partials are homogeneous, so each vanishes at the point
    dehomogenised in the patch exactly when it vanishes at the point.
    """
    for point in candidates:
        if point[patch] and all(_vanishes_at(q, point) for q in reduced):
            return point
    return None


def _witness(point: tuple, patch: int) -> tuple:
    """An integer point scaled so that its patch coordinate is 1, and then
    by its largest absolute coordinate: each coordinate the exact quotient
    rounded once to a complex float, for display."""
    top = max(map(abs, point)) if point[patch] > 0 else -max(map(abs, point))
    return tuple(complex(Fraction(c, top)) for c in point)


# -- bivariate resultants, closing the subresultant sequence over Z[t] --


def _dense(terms: dict) -> list:
    """A nonzero integer term map in one exponent as a coefficient list,
    highest power first."""
    return [terms.get(k, 0) for k in range(max(terms), -1, -1)]


def _integer_resultant(fc: list, gc: list) -> list:
    """The integer Sylvester determinant of two polynomials given as
    coefficient lists in the eliminated variable, highest power first with
    a nonzero leading one, each an integer term map in t keyed by its
    exponent: its coefficients in t, highest power first, without leading
    zeros ([] when it is zero).

    The closing step of the subresultant sequence (intpoly._remainders):
    a last remainder of positive degree is a shared factor, so the
    resultant is zero; one of degree 0, B, after A, gives it as
    sign * B^deg(A) / h^(deg(A) - 1) (Cohen, Alg. 3.3.7).
    """
    A, B, h, sign = _remainders(fc, gc)
    if len(B) > 1:
        return []
    return _dense(_exact_quotient(_power(B[0], len(A) - 1, {0: sign}),
                                  _power(h, max(len(A) - 2, 0), {0: 1})))


def _rows(q: dict, u: int, v: int) -> list:
    """An integer form in the patch: its coefficient lists in coordinate v,
    highest power first, each an integer term map keyed by the exponent
    of coordinate u, as _integer_resultant takes them."""
    top = max(e[v] for e in q)
    return [{e[u]: c for e, c in q.items() if e[v] == k} for k in range(top, -1, -1)]


def _patch_singular_search(reduced: list, patch: int, candidates: list):
    """Common zeros of the reduced (nonzero) integer partials in one affine
    patch: the first candidate zero (_candidate_zero), else "clean" when
    the exact eliminant gcd is a nonzero constant, else "pending".

    The eliminants, the reduced partials free of v and then the pairwise
    resultants in v, are integer polynomials in u, folded into a running
    gcd as each is made; the patch is "clean" as soon as that gcd is
    constant, since the gcd of every eliminant divides it.  At a common
    zero (u0, v0) every eliminant vanishes at u0, so a patch with a
    candidate zero would be "pending" too: the candidates are tested first
    only because they are cheaper, and decide a numeric K_e.
    """
    zero = _candidate_zero(patch, reduced, candidates)
    if zero is not None:
        return zero
    u, v = (i for i in range(3) if i != patch)
    rows = [_rows(q, u, v) for q in reduced if any(e[v] for e in q)]

    def eliminants():
        # integer polynomials in u, highest power first: the partials free
        # of v, then the nonzero resultants in v, made lazily
        for q in reduced:
            if not any(e[v] for e in q):
                yield _dense(_rows(q, u, v)[0])
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                r = _integer_resultant(rows[i], rows[j])
                if r:
                    yield r

    gcd = None
    for eliminant in eliminants():
        gcd = eliminant if gcd is None else _integer_gcd(gcd, eliminant)
        if len(gcd) == 1:
            return "clean"
    return "pending"


class CurveMLReport(namedtuple(
        "CurveMLReport", "degree smoothness arrangement ml_degree caveats")):
    """Variety-side count with its certificate trail, for display: a
    SmoothnessReport, an ArrangementCount or None, and the count or None."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "method": "curve",
            "degree": self.degree,
            "smoothness": None if self.smoothness is None else self.smoothness.status,
            "arrangement_a": None if self.arrangement is None else self.arrangement.a,
            "per_line_distinct": None
            if self.arrangement is None
            else list(self.arrangement.per_line_distinct),
            "ml_degree_curve": self.ml_degree,
            "caveats": list(self.caveats),
        }


def route_report(model: EquilibriumModel) -> CurveMLReport:
    """The curve route's record for any model: curve_ml_report of its
    curve, or, without exactly 3 species, a record with no count."""
    if len(model.species_vars) != 3:
        return CurveMLReport(None, None, None, None, ("curve route needs exactly 3 species",))
    return curve_ml_report(curve_from_model(model))


def curve_ml_report(curve: PlaneCurve) -> CurveMLReport:
    """Formula-route count with graceful refusal instead of exceptions."""
    smoothness = smoothness_check(curve)
    if _pure_power_variable(curve.form) is not None:
        arrangement = arrangement_count(curve)
        caveats = (*arrangement.caveats,
                   "non-reduced curve: count 0 by the degenerate-case convention")
        return CurveMLReport(curve.degree, smoothness, arrangement, 0, caveats)
    if smoothness.status == "smooth":
        arrangement = arrangement_count(curve)
        d = curve.degree
        return CurveMLReport(d, smoothness, arrangement, d * d - 3 * d + arrangement.a,
                             arrangement.caveats)
    if smoothness.status == "singular":
        caveat = ("smooth-curve count formula inapplicable: singular point near "
                  f"{_format_witness(smoothness.witness)}")
    else:
        caveat = "smoothness undetermined: " + smoothness.detail
    return CurveMLReport(curve.degree, smoothness, None, None, (caveat,))


def _format_witness(witness: tuple) -> str:
    """A singular witness, a tuple of complex coordinates with zero
    imaginary parts (smoothness_check's), as (x : y : z)."""
    return "(" + " : ".join(f"{c.real:.6g}" for c in witness) + ")"
