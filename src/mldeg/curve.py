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
vanish, nor any gcd degree, nor the monic squarefree factors the root
finder splits off, so every verdict and count is that of F.  Floats start
only at the root finders (complex_roots, aberth_roots) and at the residual
tests, which read each integer map divided exactly by its scale, term by
term in graded-lex order (_float_value), so each float is that of the
rational polynomial.

The integer resultant (_integer_resultant) is the resultant of two integer
polynomials in one variable besides the eliminated one, evaluated at
integer points by Bareiss (_integer_determinant) and interpolated.  The
tests check it against Bareiss on the Sylvester matrix
(tests/reference.py).
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .intpoly import _gcd_degree, _integer_gcd, _interpolate, _trim
from .model import EquilibriumModel, _gl_key

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


class PlaneCurve(namedtuple("PlaneCurve", "form scale degree")):
    """Homogeneous plane curve F(x, y, z) = 0 of positive degree, given as
    its integer form m * F (form) and m (scale).

    The keys may carry extra transcendental constants (a generic
    equilibrium constant) after x, y, z; degree and homogeneity are
    measured in the coordinates only.
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
    """The curve of the integer form of scale * F, keyed (x, y, z, *others)."""
    if not form:
        raise ValueError("plane curve needs a nonzero polynomial")
    widths = set(map(len, form))
    if len(widths) != 1 or min(widths) < 3:
        raise ValueError("plane curve needs coordinates x, y, z first in keys of one length")
    degrees = {sum(exp[:3]) for exp in form}
    if len(degrees) != 1:
        raise ValueError("plane curve polynomial must be homogeneous in x, y, z")
    d = degrees.pop()
    if d < 1:
        raise ValueError("plane curve needs positive degree")
    return PlaneCurve(form, scale, d)


def curve_from_model(model: EquilibriumModel) -> PlaneCurve:
    """The model variety as a plane curve; 3-species models only.  The
    model's F_hom is keyed by its context, (x, y, z) or (x, y, z, K_e)."""
    if len(model.species_vars) != 3:
        raise ValueError("plane-curve route needs exactly 3 species")
    return plane_curve(*model.F_hom)


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


def _normalize_projective(coords: tuple) -> tuple:
    scale = max(abs(c) for c in coords)
    return tuple(c / scale for c in coords)


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
    G, scale = _bound_form(curve.form, curve.scale)
    partials = _partials(G)
    # a homogeneous partial is zero in a patch only when it is zero
    reduced = [q for q in partials if q]
    pending = None
    for patch in range(3):
        u, v = (i for i in range(3) if i != patch)
        # one free of both patch unknowns is a nonzero constant there
        if any(not any(e[u] or e[v] for e in q) for q in reduced):
            continue
        witness = _patch_singular_search((G, *partials), reduced, patch, scale, symbolic)
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


def _partials(G: dict) -> list:
    """The partial derivatives of an integer form in x, y and z, keyed as G."""
    return [{e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in G.items() if e[i]}
            for i in range(3)]


def _arrangement_witness(patch: int, reduced: list) -> bool:
    """True when every reduced partial vanishes, exactly, at one point of
    ARRANGEMENT_POINTS that lies in the patch.

    The partials are homogeneous, so each vanishes at the point
    dehomogenised in the patch exactly when it vanishes at the point, whose
    coordinates are 0 and ±1: each check is a signed sum of coefficients.
    """
    return any(point[patch] and all(_vanishes_at(q, point) for q in reduced)
               for point, _ in ARRANGEMENT_POINTS)


# -- bivariate resultants by evaluation and interpolation over the integers --


def _sylvester_rows(fcoeffs: list, gcoeffs: list, zero) -> list:
    """Sylvester layout of two coefficient lists given highest power first:
    deg(g) shifted rows of f's coefficients, then deg(f) shifted rows of g's."""
    df, dg = len(fcoeffs) - 1, len(gcoeffs) - 1
    size = df + dg
    rows = [[zero] * i + fcoeffs + [zero] * (size - df - 1 - i) for i in range(dg)]
    rows += [[zero] * i + gcoeffs + [zero] * (size - dg - 1 - i) for i in range(df)]
    return rows


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


def _horner(dense: list, point):
    """A dense ascending list at an integer or Fraction point."""
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


def _rows(q: dict, u: int, v: int) -> list:
    """An integer form in the patch: its coefficient lists in coordinate v,
    highest power first, each dense ascending in coordinate u, as
    _integer_resultant takes them."""
    top = max(e[v] for e in q)
    return _dense_in([{e: c for e, c in q.items() if e[v] == k} for k in range(top, -1, -1)], u)


def _at(rows: list, t: Fraction) -> list:
    """rows, as _rows(q, u, v) gives them, with coordinate u set to t: an
    integer polynomial in v, highest power first, a positive multiple of
    the exact one (all zero where that is zero)."""
    values = [_horner(dense, t) for dense in rows]
    den = math.lcm(*(x.denominator for x in values))
    return [int(x * den) for x in values]


def _float_value(terms: dict, scale: int, point: tuple) -> complex:
    """terms / scale at a complex point, for an integer term map keyed by
    exponent tuples as long as the point.

    The float operations are those of evaluating the rational polynomial
    term by term (tests/reference.py's eval_complex): terms in descending
    graded-lex order, each coefficient complex(Fraction(c, scale)), powers
    by repeated products from 1.0, so the value is bit-identical to it over
    a context that lists x, y, z in this order, as every model's does.
    """
    powers = []
    for i, value in enumerate(point):
        row = [1.0 + 0j]
        for _ in range(max((e[i] for e in terms), default=0)):
            row.append(row[-1] * value)
        powers.append(row)
    total = 0j
    for e in sorted(terms, key=_gl_key, reverse=True):
        term = complex(Fraction(terms[e], scale))
        for row, k in zip(powers, e):
            if k:
                term *= row[k]
        total += term
    return total


def _float_coeffs(rows: list, scale: int, t: complex) -> list:
    """Ascending float coefficients in v of rows / scale, for rows as
    _rows(q, u, v) gives them, with coordinate u set to t: the coefficients
    aberth_roots takes."""
    return [_float_value({(k,): c for k, c in enumerate(dense) if c}, scale, (t,))
            for dense in reversed(rows)]


def _patch_singular_search(forms, reduced, patch, scale, symbolic):
    """Candidates for common zeros of the partials in one affine patch.

    forms are the integer form G (x, y, z) of scale times F and its three
    partials, the reduced partials the nonzero ones.  Returns a witness
    tuple when a candidate passes the residual test, "pending" when exact
    candidates exist but none confirm, or "clean" when the eliminant gcd is
    a nonzero constant.

    A sampled generic K_e is first tried on the arrangement points of the
    patch (``_arrangement_witness``); a common zero there is "pending" before
    any elimination, the verdict elimination would reach: at a common zero
    (u0, v0) every univariate partial and every pairwise resultant in v
    vanishes at u0, so the eliminant gcd is nonconstant, or no resultant is
    nonzero, and both are "pending".

    The eliminants and their gcd are exact integer polynomials in u.  Floats
    start at the root finders, which take integer polynomials, and at
    _confirm_singular, which reads each form divided exactly by its scale.
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
    # imported only for a numeric search, which a generic K_e never makes,
    # so a cold command that makes none does not compile roots
    from .roots import aberth_roots, complex_roots

    def point(u0, v0):
        coords = [1.0 + 0j] * 3
        coords[u], coords[v] = u0, v0
        return tuple(coords)

    if not univariate:
        # all partials share a factor: sample rational lines to land on it
        probe = _rows(reduced[0], v, u)
        for v0 in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2),
                   Fraction(-2), Fraction(1, 2), Fraction(3)):
            # exact substitution, so repeated roots split off before Aberth
            line = _at(probe, v0)
            if not any(line):
                continue
            for u0, _ in complex_roots(line):
                witness = _confirm_singular(forms, scale, point(u0, complex(v0)))
                if witness is not None:
                    return witness
        return "pending"

    # the rational route's gcd is the one eliminant over its scale, or monic:
    # a rational root p/q of it has q dividing the lcm of its coefficient
    # denominators
    divisor = univariate[0][1] if len(univariate) == 1 else gcd[0]
    lcd = math.lcm(*(Fraction(c, divisor).denominator for c in gcd))
    for u0, _ in complex_roots(gcd):
        exact = Fraction(round(Fraction(u0.real) * lcd), lcd)
        rational = not _horner(gcd[::-1], exact)
        if rational:
            u0 = complex(exact)
        # a partial free of v has no roots in v
        for source in rows:
            v_roots = aberth_roots(_float_coeffs(source, scale, u0))
            if rational:
                # Aberth leaves a repeated root off by ~sqrt(eps); the line
                # substituted exactly splits it off, so each root is snapped
                # to its exact neighbour
                line = _at(source, exact)
                exact_v = [r for r, _ in complex_roots(line)] if any(line) else []
                v_roots = [min(exact_v, key=lambda r: abs(r - v0))
                           for v0 in v_roots] if exact_v else []
            for v0 in v_roots:
                witness = _confirm_singular(forms, scale, point(u0, v0))
                if witness is not None:
                    return witness
    return "pending"


def _confirm_singular(forms, scale, coords):
    """The max-norm-normalized point when every form divided by scale is
    below 1e-10 there, else None."""
    normalized = _normalize_projective(coords)
    if max(abs(_float_value(f, scale, normalized)) for f in forms) < 1e-10:
        return normalized
    return None


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
    """A singular witness, a tuple of complex coordinates, as (x : y : z)."""
    parts = []
    for c in witness:
        if abs(c.imag) < 1e-12:
            parts.append(f"{c.real:.6g}")
        else:
            parts.append(f"{c.real:.6g}{c.imag:+.6g}i")
    return "(" + " : ".join(parts) + ")"
