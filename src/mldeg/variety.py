"""The numeric variety route: critical points of the determinant system on
a plane curve, counted off the line arrangement.

The second count on the homogeneous side, beside curve's smooth-curve
formula d^2 - 3d + a, and like it blind to monomial parameterizations.
The curve and its determinant equation are integer forms (curve.PlaneCurve,
_determinant_form); floats start at the root finders and at the residual
tests, which read each form divided exactly by its scale
(_float_evaluator).  This module is the engine's float boundary on the
variety side: curve's certificates are exact and make no float but a
printed witness.  No command runs this route, so only its callers load
the module.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .curve import (
    PlaneCurve,
    _integer_resultant,
    _partials,
    _pure_power_variable,
    _rows,
    _symbolic,
    smoothness_check,
)
from .intpoly import _exp_add, _term_products
from .model import _gl_key
from .roots import aberth_roots, complex_roots

# thresholds of the numeric count: the largest equation residual kept at a
# max-norm-normalized point; the discard distances of a normalized point to
# the arrangement, to a singular witness and to a kept point (projective)
TOL_RESIDUAL = 1e-9
TOL_POSITION = 1e-9
TOL_WITNESS = 1e-7
TOL_CLUSTER = 1e-7


def _float_evaluator(terms: dict, scale: int):
    """terms / scale as a function of a complex point, for an integer term
    map keyed by exponent tuples as long as the point.

    The float operations are those of evaluating the rational polynomial
    term by term (tests/reference.py's eval_complex): terms in descending
    graded-lex order, each coefficient complex(Fraction(c, scale)), powers
    by repeated products from 1.0, so the value is bit-identical to it over
    a context that lists x, y, z in this order, as every model's does.
    The map is sorted and its coefficients are converted once, here, since
    each map is read at many points.
    """
    ordered = [(e, complex(Fraction(terms[e], scale)))
               for e in sorted(terms, key=_gl_key, reverse=True)]
    # the largest exponent of each coordinate
    tops = [max(k) for k in zip(*terms)]

    def value(point: tuple) -> complex:
        powers = []
        for top, x in zip(tops, point):
            row = [1.0 + 0j]
            for _ in range(top):
                row.append(row[-1] * x)
            powers.append(row)
        total = 0j
        for e, term in ordered:
            for row, k in zip(powers, e):
                if k:
                    term *= row[k]
            total += term
        return total

    return value


def _float_rows(rows: list, scale: int):
    """rows / scale, for rows as curve._rows(q, u, v) gives them, as a
    function of coordinate u: its ascending float coefficients in v there,
    the coefficients aberth_roots takes."""
    columns = [_float_evaluator({(k,): c for k, c in terms.items()}, scale)
               for terms in reversed(rows)]
    return lambda t: [column((t,)) for column in columns]


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


def _determinant_form(G: dict, counts: tuple) -> tuple[dict, int]:
    """(D, m): m times the determinant equation of the critical system on
    the curve of the integer form G, with m > 0 the lcm of the count
    denominators, so that D / (m * scale) is the curve's for G = scale * F.

    The equation is the 3x3 determinant with rows (1,1,1), (u0*y*z, u1*x*z,
    u2*x*y) and the gradient, homogeneous of degree d + 1.  The middle row
    is the likelihood gradient row cleared of denominators by x*y*z; the
    extra zeros that introduces lie on the arrangement and are discarded
    downstream.
    """
    if len(counts) != 3:
        raise ValueError("variety critical system needs 3 observation counts")
    if any(c <= 0 for c in counts):
        raise ValueError("observation counts must be positive")
    weights = [Fraction(c) for c in counts]
    m = math.lcm(*(w.denominator for w in weights))
    gradient = _partials(G)
    # along the row of ones: u_i * x_j * x_k * (b_j - b_k), (i, j, k) cyclic
    pairs = []
    for i in range(3):
        others = tuple(int(n != i) for n in range(3))
        w = int(weights[i] * m)
        pairs += [({others: w}, gradient[(i + 1) % 3]), ({others: -w}, gradient[(i + 2) % 3])]
    return _term_products(pairs, _exp_add), m


def count_critical_points_variety(curve: PlaneCurve, counts: tuple) -> tuple:
    """Numeric critical points of the determinant system off the arrangement.

    Works in the patch z = 1 (points with z = 0 lie on the arrangement and
    are discarded regardless): eliminate y by resultant, root-find, and
    back-substitute.  Candidates are kept when both equation residuals at
    the max-norm-normalized point are below TOL_RESIDUAL; then points on
    the arrangement (TOL_POSITION), points near a singular witness
    (TOL_WITNESS), and projective duplicates (TOL_CLUSTER) are discarded.

    The curve's form and its determinant equation (_determinant_form) are
    integer forms up to the floats, where each is read divided exactly by
    its scale.  Returns (count, kept points).
    """
    G, scale = curve.form, curve.scale
    if _symbolic(G):
        raise ValueError("numeric counting needs a numeric equilibrium constant")
    if _pure_power_variable(G) is not None:
        raise ValueError("numeric counting refuses a non-reduced curve")
    D, den = _determinant_form(G, counts)
    witnesses = []
    report = smoothness_check(curve)
    if report.status == "singular":
        witnesses.append(report.witness)

    # z = 1: both forms are homogeneous, so dropping z merges no terms
    e1, e2 = ({e[:2]: c for e, c in f.items()} for f in (G, D))
    if not e2:
        raise ValueError("resultant of a zero polynomial")
    # eliminate y, or x when that resultant vanishes; first is the one kept
    for first, second in ((0, 1), (1, 0)):
        rows = _rows(e1, first, second), _rows(e2, first, second)
        if len(rows[0]) + len(rows[1]) < 3:
            raise ValueError("both polynomials have degree 0 in the eliminated variable")
        eliminant = _integer_resultant(*rows)
        if eliminant:
            break
    else:
        raise ValueError("critical system shares a component with the curve")

    candidates = []
    partner_coeffs = _float_rows(rows[0], scale)
    for root, _ in complex_roots(eliminant):
        for partner in aberth_roots(partner_coeffs(root)):
            pair = (root, partner) if first == 0 else (partner, root)
            candidates.append(pair + (1.0 + 0j,))

    kept = []
    curve_value, determinant_value = _float_evaluator(G, scale), _float_evaluator(D, scale * den)
    for coords in candidates:
        normalized = _normalize_projective(coords)
        residual = max(abs(curve_value(normalized)), abs(determinant_value(normalized)))
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
    return len(kept), kept
