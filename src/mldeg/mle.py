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
J. Symbolic Comput. 2009).  It is found by exact bisection on the sign of
Q, which starts in the cell, 2^-64 of the bracket wide, that a Newton root
of h picks (float steps, then one step with h from the exact sides of Q),
or in its neighbour when that root is one cell off, and that two or three
exact signs of Q confirm; the root only chooses where to look, so the
estimate is the one that bisection from the whole bracket gives, bit for
bit.  The number of complex critical points, the ML degree at u (Huh,
Compositio 2013), is the number of distinct roots of Q off the
hyperplanes w_i = 0 and beta = 0.

Both run on Python integers.  At alpha = a / d both sides of Q have degree
max(P, N), P and N the sums of the positive and of the negated negative
c_i, so multiplying by d^max(P, N) clears every denominator at once and Q's
sign is the sign of a difference of two integer products.  The count is
deg Q - deg gcd(Q, Q') on the integer coefficients of den(K_e) * Q, less
the roots on a hyperplane.  For generic data Q is squarefree, and one
remainder sequence mod the prime p = 2^61 - 1 proves it: when p does not
divide the leading coefficient of Q and gcd(Q mod p, Q' mod p) is a
constant, the primitive integer gcd of Q and Q' divides Q, so p does not
divide its leading coefficient either, and its reduction, of the same
degree, divides that constant; so it is 1 and Q has deg Q distinct roots.
Otherwise a primitive pseudo-remainder sequence over the integers gives
the gcd, so the count is exact either way.  No polynomial object is built:
the residual of the estimate on the model relation is taken in floats
from c.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .model import EquilibriumModel
from .poly import _derivative, _integer_gcd, _interpolate, _trim
from .reaction import format_reaction


class NoEstimateError(ValueError):
    """Well-formed input that has no estimate: a count that is not
    positive, or a generic or nonpositive K_e."""


class CriticalPoint(namedtuple("CriticalPoint", "coordinates residuals")):
    """One critical point of the likelihood on the model (two tuples)."""

    __slots__ = ()


class MLEResult(namedtuple(
        "MLEResult", "optimum log_likelihood all_critical_points observed_ml_count")):
    """The maximiser (a CriticalPoint), its log likelihood (float) and the
    number of complex critical points at u (int).

    ``all_critical_points`` holds the critical points in the open simplex,
    which is the optimum alone.
    """

    __slots__ = ()


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
    values = tuple(counts)
    if any(int(c) != c for c in values):
        raise ValueError("observation counts must be integers")
    values = tuple(int(c) for c in values)
    if len(values) != len(model.species_vars):
        raise ValueError(
            f"expected {len(model.species_vars)} observation counts, got {len(values)}"
        )
    if any(c <= 0 for c in values):
        raise NoEstimateError("observation counts must be positive in numeric paths")
    return values


def _extent_sides(ke: Fraction, c: tuple, u: tuple, a: int, d: int) -> tuple:
    """The integer products R and P with d^max(P, N) * den(K_e) * Q(a / d)
    = R - P, for integers a and d > 0: with w_i = W_i / d and
    beta = B / d, where W_i = u_i d - c_i a and B = sum(u) d - S a, both
    products of Q have degree max(P, N).  R / P = exp(h(a / d)) inside
    the bracket, where both are positive."""
    s = sum(c)
    b = sum(u) * d - s * a
    reactant_side = ke.numerator * b ** max(0, -s)
    product_side = ke.denominator * b ** max(0, s)
    for ui, ci in zip(u, c):
        if ci > 0:
            reactant_side *= (ui * d - ci * a) ** ci
        else:
            product_side *= (ui * d - ci * a) ** -ci
    return reactant_side, product_side


def _extent_value(ke: Fraction, c: tuple, u: tuple, a: int, d: int) -> int:
    """d^max(P, N) * den(K_e) * Q(a / d), an integer for integers a and
    d > 0 (``_extent_sides``)."""
    reactant_side, product_side = _extent_sides(ke, c, u, a, d)
    return reactant_side - product_side


# halvings of the bracket skipped when a root of h confirms its cell: the
# width exit of the bisection cannot fire before 64 halvings, and after the
# exact Newton step of _float_root a cell 2^-64 of the bracket wide is still
# far wider than the error of the root
SEED_LEVEL = 64


def _float_root(ke: Fraction, c: tuple, u: tuple, lo: Fraction, hi: Fraction) -> Fraction | None:
    """A root of h on (lo, hi), as an exact rational.

    Newton's method in floats, with a bisection step whenever Newton
    leaves the bracket it keeps, finds a float root x, which is off by
    the rounding error of h in floats over h'.  One more Newton step from
    x takes h(x) from the exact sides R and P of Q at x
    (``_extent_sides``), as log1p((R - P) / P), and h'(x) in floats: it
    squares the error of x and adds only roundings relative to the step,
    so the root it gives is off by far less than a cell at level
    SEED_LEVEL, and lands in the cell of the root of h or, when that root
    lies as close to an end, in a neighbour.
    None when the arithmetic fails: a weight that rounds to zero, counts
    beyond floats, an x on a wall (R or P is 0), or a (R - P) / P beyond
    floats."""
    total, s = sum(u), sum(c)

    def slope(x):
        # h'(x) = S^2 / beta - sum(c_i^2 / w_i)
        return s * s / (total - s * x) - sum(ci * ci / (ui - ci * x) for ui, ci in zip(u, c))

    try:
        log_ke = math.log(ke.numerator) - math.log(ke.denominator)
        x_lo, x_hi = float(lo), float(hi)
        tol = (x_hi - x_lo) * 2.0**-50
        x = (x_lo + x_hi) / 2
        for _ in range(100):
            h = (log_ke + sum(ci * math.log(ui - ci * x) for ui, ci in zip(u, c))
                 - s * math.log(total - s * x))
            if h > 0:
                x_lo = x
            elif h < 0:
                x_hi = x
            else:
                break
            guess = x - h / slope(x)
            if not x_lo < guess < x_hi:
                guess = (x_lo + x_hi) / 2
            x, step = guess, guess - x
            if abs(step) <= tol:
                break
        g = Fraction(x)
        reactant_side, product_side = _extent_sides(ke, c, u, g.numerator, g.denominator)
        return g - Fraction(math.log1p((reactant_side - product_side) / product_side) / slope(x))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _bisect_optimum(ke: Fraction, c: tuple, u: tuple) -> tuple:
    """The point p = w / beta at (or beside) the one root of Q on the
    positive bracket, found by exact bisection on the sign of Q.

    The bracket ends and their midpoint are integer numerators a over one
    denominator d, which doubles at each step, so Q's sign is exact integer
    arithmetic (``_extent_value``) and each coordinate W_i / B is an integer
    quotient, which Python rounds correctly.  Each coordinate is monotone in
    alpha, so once every coordinate rounds to the same double at both ends,
    that double is the correctly rounded coordinate of the root.  A rational
    root whose coordinate is a rounding tie never separates, so bisection
    also stops on an exact zero, and once the bracket is narrower than 2^-64
    of its distance to the nearest hyperplane w_i = 0, which is one of the
    two walls of the bracket; every coordinate then varies by less than
    2^-62 of itself across the bracket.  Scaling u scales every alpha, so
    the result is the same for u and lambda * u.

    Bisection starts SEED_LEVEL halvings deep, in the dyadic cell of the
    bracket that holds the root of h that ``_float_root`` gives, when the
    exact signs of Q at the two ends of the cell show that it holds the
    root; an exact zero at either end is the root itself.  That root only
    chooses where to look.  The cells around the root are nested and
    unique, so a confirmed cell is the one that bisection from the whole bracket
    reaches after SEED_LEVEL halvings, and the result is the same bit for
    bit: bisection from the whole bracket could stop sooner only on equal
    ends or on an exact zero, which both give the correctly rounded root at
    any level, and its width exit cannot fire before 64 halvings, since a
    cell at level k spans 2^-k of the bracket and no wall is further than
    the whole bracket from it.  When that root lands one cell off, the
    sign at an end shows the side (Q < 0 at the low end: the root is to the
    left; Q > 0 at the high end: to the right), and the neighbour there is
    confirmed with one more sign, sharing the common end.  On a miss (no
    root from ``_float_root``, one outside the bracket, or signs that
    bracket the root in neither cell) bisection starts from the whole
    bracket.
    """
    total, s = sum(u), sum(c)

    def point(a, d):
        b = total * d - s * a
        return tuple((ui * d - ci * a) / b for ui, ci in zip(u, c))

    # Q > 0 at lo, where the product weight w_i vanishes; Q < 0 at hi, where
    # the reactant weight w_j does
    i = max((k for k in range(len(c)) if c[k] < 0), key=lambda k: Fraction(u[k], c[k]))
    j = min((k for k in range(len(c)) if c[k] > 0), key=lambda k: Fraction(u[k], c[k]))
    lo, hi = Fraction(u[i], c[i]), Fraction(u[j], c[j])
    d = lo.denominator * hi.denominator
    a_lo, a_hi = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    guess = _float_root(ke, c, u, lo, hi)
    if guess is not None:
        # the cell [cell, cell + 1] holding the guess, in units of the
        # level-K end (a_lo 2^K + k span) / (d 2^K)
        span, (g, g_den) = a_hi - a_lo, guess.as_integer_ratio()
        cell = ((g * d - a_lo * g_den) << SEED_LEVEL) // (g_den * span)
        base, d_k, top = a_lo << SEED_LEVEL, d << SEED_LEVEL, 1 << SEED_LEVEL

        def end(k):
            return base + k * span

        def sign(k):
            # the wall ends need no evaluation: Q > 0 at lo and Q < 0 at hi
            return 1 if k == 0 else -1 if k == top else _extent_value(ke, c, u, end(k), d_k)

        if 0 <= cell < top:
            # Q < 0 at the low end puts the root left of the cell, Q > 0 at
            # the high end right of it: try that neighbour, sharing the end
            v_lo = sign(cell)
            v_hi = sign(cell + 1) if v_lo > 0 else v_lo
            if v_lo < 0:
                cell, v_lo, v_hi = cell - 1, sign(cell - 1), v_lo
            elif v_hi > 0:
                cell, v_lo, v_hi = cell + 1, v_hi, sign(cell + 2)
            if v_lo == 0:
                return point(end(cell), d_k)
            if v_hi == 0:
                return point(end(cell + 1), d_k)
            if v_lo > 0 > v_hi:
                a_lo, a_hi, d = end(cell), end(cell + 1), d_k
    p_lo, p_hi = point(a_lo, d), point(a_hi, d)
    while p_lo != p_hi:
        # d times the distance of an end to its wall is W / |c| there
        width = (a_hi - a_lo) << 64
        if width * -c[i] < u[i] * d - c[i] * a_lo and width * c[j] < u[j] * d - c[j] * a_hi:
            return point(a_lo + a_hi, 2 * d)
        mid, d, a_lo, a_hi = a_lo + a_hi, 2 * d, 2 * a_lo, 2 * a_hi
        value = _extent_value(ke, c, u, mid, d)
        if value == 0:
            return point(mid, d)
        if value > 0:
            a_lo, p_lo = mid, point(mid, d)
        else:
            a_hi, p_hi = mid, point(mid, d)
    return p_lo


def _extent_coeffs(ke: Fraction, c: tuple, u: tuple) -> list:
    """den(K_e) * Q as integer coefficients, highest degree first,
    interpolated from its values at alpha = 1, ..., max(P, N) + 1."""
    degree = max(sum(k for k in c if k > 0), -sum(k for k in c if k < 0))
    values = [_extent_value(ke, c, u, a, 1) for a in range(1, degree + 2)]
    return _trim(_interpolate(values)[::-1])


# the prime of the squarefree certificate: a Mersenne prime, so that a
# leading coefficient it divides is rare
CERTIFICATE_PRIME = 2**61 - 1


def _squarefree_mod_p(f: list, g: list) -> bool:
    """True when p does not divide lc(f) and gcd(f mod p, g mod p) is a
    nonzero constant over GF(p), p = CERTIFICATE_PRIME; the remainder
    sequence of Euclid's algorithm, on integers mod p."""
    p = CERTIFICATE_PRIME
    if f[0] % p == 0:
        return False
    f, g = [x % p for x in f], _trim([x % p for x in g])
    while len(g) > 1:
        inverse = pow(g[0], -1, p)
        r = f
        while len(r) >= len(g):
            # r - lc(r) / lc(g) * x^k * g, whose leading coefficient is zero
            scale, pad = r[0] * inverse % p, [0] * (len(r) - len(g))
            r = _trim([(x - scale * y) % p for x, y in zip(r[1:], g[1:] + pad)])
        f, g = g, r
    return len(g) == 1


def _critical_count(ke: Fraction, c: tuple, u: tuple) -> int:
    """Distinct roots of Q, less those on a hyperplane w_i = 0 or beta = 0."""
    q = _extent_coeffs(ke, c, u)
    n = len(q) - 1
    if n == 0:
        return 0  # a nonzero constant has no roots, and no derivative to take a gcd with
    derivative = _derivative(q)
    if _squarefree_mod_p(q, derivative):
        distinct = n
    else:
        distinct = n - (len(_integer_gcd(q, derivative)) - 1)
    excluded = {Fraction(ui, ci) for ui, ci in zip(u, c)}
    if sum(c):
        excluded.add(Fraction(sum(u), sum(c)))
    return distinct - sum(
        _extent_value(ke, c, u, a.numerator, a.denominator) == 0 for a in excluded
    )


def _relation_residual(ke: Fraction, c: tuple, p: tuple) -> float:
    """|K_e prod(p_i^c_i) - prod(p_j^-c_j)| over the c_i > 0 and the c_j < 0,
    in floats, with the operations of MPoly.eval_complex on F_affine, so
    the value is the same bit for bit: each power by repeated products from
    1.0, and each term its coefficient times its powers in species order.
    The sum of the two terms does not depend on their order.  A K_e beyond
    the float range has no float coefficient, and the powers its term
    multiplies may underflow: that term is then taken exactly and rounded
    once."""
    try:
        reactant, exact = float(ke), False
    except OverflowError:
        reactant, exact = ke, True
    product = -1.0
    for ci, pi in zip(c, p):
        if ci > 0 and exact:
            reactant *= Fraction(pi) ** ci
            continue
        power = 1.0
        for _ in range(abs(ci)):
            power *= pi
        if ci > 0:
            reactant *= power
        else:
            product *= power
    return abs(float(reactant) + product)


def maximize_likelihood(model: EquilibriumModel, counts) -> MLEResult:
    """Maximum-likelihood estimate for positive counts and K_e > 0.

    It reads the model's reaction, K_e and species count only, and builds
    no polynomial."""
    values = _validated_counts(model, counts)
    if model.ke.is_generic:
        raise NoEstimateError("maximum-likelihood estimation needs a numeric K_e")
    if model.ke.value <= 0:
        raise NoEstimateError("maximum-likelihood estimation needs K_e > 0")
    c = model.reaction.stoichiometry
    ke = model.ke.value
    coords = _bisect_optimum(ke, c, values)
    if 0.0 in coords:
        # each coordinate is a correctly rounded positive quotient
        raise ArithmeticError(
            "the optimum is outside the float range: a coordinate underflows to 0"
        )
    residuals = (_relation_residual(ke, c, coords), abs(sum(coords) - 1.0))
    optimum = CriticalPoint(coords, residuals)
    return MLEResult(
        optimum, likelihood_value(coords, values), (optimum,), _critical_count(ke, c, values)
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
