"""Maximum-likelihood estimation on equilibrium models, on the extent line.

Write c for the stoichiometric vector (reactant coefficients positive,
product coefficients negative) and S = sum(c), so the model is
K_e * prod(p_i ** c_i) = 1 on the simplex.  The critical points of the log
likelihood sum(u_i log p_i) there satisfy u_i = alpha c_i + beta p_i, so each
one is p = w / beta with w_i = u_i - alpha c_i and beta = sum(u) - alpha S,
and alpha is a root of one polynomial, the extent polynomial Q.

Every kernel reads Q from one table of linear factors u - c alpha, each with
an exponent e (``_extent_table``): w_i with e = c_i in species order, then
beta with e = -S.  With it
h(alpha) = log K_e + sum(e log(u - c alpha)) = log K_e + sum(c_i log w_i) - S log beta,
and den(K_e) * Q = R - T, where the reactant side R is num(K_e) times the
factors with e > 0 to the power e and the product side T is den(K_e) times
those with e < 0 to the power -e.  The powers on each side sum to
max(P, N), P and N the sums of the positive and of the negated negative c_i.

On the bracket where every w_i > 0, h falls strictly from +inf to -inf
(h' = -sum(e c / (u - c alpha)) = S^2 / beta - sum(c_i^2 / w_i) <= 0 by
Cauchy-Schwarz, since sum(w_i) = beta), and Q has the sign of h.  So for
K_e > 0 and u > 0 there is exactly one critical point in the open simplex,
and it is the maximum: Birch's theorem for one reaction (Craciun,
Dickenstein, Shiu and Sturmfels, J. Symbolic Comput. 2009).  It is found by
exact bisection on the sign of Q, which starts in the cell, 2^-64 of the
bracket wide, that a Newton root of h picks (float steps, then one step with
h from the exact sides of Q), when two exact signs of Q confirm that cell,
and from the whole bracket otherwise; the root only chooses where to look,
so the estimate is the one that bisection from the whole bracket gives, bit
for bit.  The number of complex critical points, the ML degree at u (Huh,
Compositio 2013), is the number of distinct roots of Q off the walls, the
hyperplanes w_i = 0 and beta = 0.

Both run on Python integers.  At alpha = a / d both sides of Q have degree
max(P, N), so multiplying by d^max(P, N) clears every denominator at once
and Q's sign is the sign of a difference of two integer products.  The
estimate builds no Fraction: the walls of the bracket are compared by
cross-multiplication, and the Newton root and every end are integer pairs.

For generic data the count is max(P, N), and a certificate mod the prime
p = 2^61 - 1 proves it without building Q.  Write
H = prod(u - c alpha) h' over the table
  = S^2 prod(w_i) - beta sum(c_i^2 prod_{j != i} w_j),
of degree at most k, the number of species.  The certificate holds when
1. p does not divide the coefficient of alpha^max(P, N) in den(K_e) * Q,
   num(K_e) prod(-c)^e over the factors of R less den(K_e) times the same
   over T, which is 0 exactly at the discriminant
   K_e* = S^S prod(c_i^-c_i); and
2. gcd(H, Q mod H) is a nonzero constant over GF(p).
Then Q has max(P, N) distinct roots, and none on a wall w_i = 0 or
beta = 0, for K_e != 0:
- A root of Q on a wall is a root of both sides (one side vanishes there),
  so of a factor of R and of a factor of T: two factors of the table
  vanish there, and so does every term of H.
- At a repeated root off the walls R = T != 0 and R' = T', so
  R'/R - T'/T = -sum(e c / (u - c alpha)) = h' vanishes, and so does H.
- So any such root is a root of the primitive integer gcd G of Q and H.
  G divides Q, so p does not divide its leading coefficient, and its
  reduction, of the same degree, divides gcd(H mod p, Q mod p), a constant
  by 2; so G is 1 and there is no such root.
Q mod H is formed from the factors of the table mod p, one factor a step,
so the certificate costs O(max(P, N) k).

When it declines, at K_e*, or for data with a root of Q on a wall or a
repeated one, the count is deg Q - deg gcd(Q, Q') on the integer
coefficients of den(K_e) * Q, multiplied out from the table, less the roots
on a wall, which are the walls that are roots of a factor of R and of a
factor of T.  The primitive part of the last remainder of the subresultant
sequence over the integers gives that gcd (intpoly._integer_gcd).  No
polynomial object is built: the residual of the estimate on the model
relation is taken in floats from c.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .intpoly import _derivative, _integer_gcd, _trim
from .model import EquilibriumModel
from .reaction import format_reaction


class NoEstimateError(ValueError):
    """Well-formed input that has no estimate: a zero count, or a generic
    or nonpositive K_e."""


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


def _log_likelihood(ps, us) -> float:
    # floats, checked by the caller
    return sum(c * math.log(q) for c, q in zip(us, ps)) - sum(us) * math.log(sum(ps))


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
    return _log_likelihood(ps, us)


def _validated_counts(model: EquilibriumModel, counts) -> tuple:
    values = tuple(counts)
    if any(int(c) != c for c in values):
        raise ValueError("observation counts must be integers")
    values = tuple(int(c) for c in values)
    if len(values) != len(model.species_vars):
        raise ValueError(
            f"expected {len(model.species_vars)} observation counts, got {len(values)}"
        )
    if any(c < 0 for c in values):
        raise ValueError("observation counts must be nonnegative")
    if 0 in values:
        raise NoEstimateError("observation counts must be positive in numeric paths")
    return values


def _extent_table(c: tuple, u: tuple) -> tuple:
    """The linear factors u - c alpha of Q with their exponents e in h, as
    (u, c, e): each w_i with e = c_i in species order, then beta with
    e = -S (so e = 0 when S = 0)."""
    s = sum(c)
    return (*zip(u, c, c), (sum(u), s, -s))


def _extent_sides(ke: Fraction, table: tuple, a: int, d: int) -> tuple:
    """The integer products R and T with d^max(P, N) * den(K_e) * Q(a / d)
    = R - T, for integers a and d > 0: each factor u - c alpha is
    (u d - c a) / d there, and the powers on each side sum to max(P, N).
    R / T = exp(h(a / d)) inside the bracket, where both are positive.
    At (a, d) = (1, 0) each factor is -c, and R - T is the coefficient of
    alpha^max(P, N) in den(K_e) * Q."""
    reactant_side, product_side = ke.numerator, ke.denominator
    for ui, ci, e in table:
        if e > 0:
            reactant_side *= (ui * d - ci * a) ** e
        elif e:
            product_side *= (ui * d - ci * a) ** -e
    return reactant_side, product_side


def _extent_value(ke: Fraction, table: tuple, a: int, d: int) -> int:
    """d^max(P, N) * den(K_e) * Q(a / d), an integer for integers a and
    d > 0 (``_extent_sides``)."""
    reactant_side, product_side = _extent_sides(ke, table, a, d)
    return reactant_side - product_side


# halvings of the bracket skipped when a root of h confirms its cell: the
# width exit of the bisection cannot fire before 64 halvings, and after the
# exact Newton step of _float_root a cell 2^-64 of the bracket wide is still
# far wider than the error of the root
SEED_LEVEL = 64


def _float_root(ke: Fraction, table: tuple, a_lo: int, a_hi: int, d: int) -> tuple | None:
    """A root of h on (a_lo / d, a_hi / d), as integers (g, g_den) with
    g_den > 0 whose quotient is its exact value.

    Newton's method in floats, with a bisection step whenever Newton
    leaves the bracket it keeps, finds a float root x, which is off by
    the rounding error of h in floats over h'.  One more Newton step from
    x takes h(x) from the exact sides R and T of Q at x
    (``_extent_sides``), as log1p((R - T) / T), and h'(x) in floats: it
    squares the error of x and adds only roundings relative to the step,
    so the root it gives is as a rule off by far less than a cell at level
    SEED_LEVEL, and lands in the cell of the root of h; two exact signs in
    ``_bisect_optimum`` check that.  x and the step are both dyadic, so
    x - step is their integer ratios over one denominator.
    None when the arithmetic fails: a weight that rounds to zero, counts
    beyond floats, an x on a wall (R or T is 0), or a (R - T) / T beyond
    floats."""

    def slope(x):
        # h'(x) = -sum(e c / (u - c x))
        return -sum(e * ci / (ui - ci * x) for ui, ci, e in table)

    try:
        log_ke = math.log(ke.numerator) - math.log(ke.denominator)
        x_lo, x_hi = a_lo / d, a_hi / d
        tol = (x_hi - x_lo) * 2.0**-50
        x = (x_lo + x_hi) / 2
        for _ in range(100):
            h = log_ke + sum(e * math.log(ui - ci * x) for ui, ci, e in table)
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
        x_num, x_den = x.as_integer_ratio()
        reactant_side, product_side = _extent_sides(ke, table, x_num, x_den)
        step_num, step_den = (math.log1p((reactant_side - product_side) / product_side)
                              / slope(x)).as_integer_ratio()
        return x_num * step_den - step_num * x_den, x_den * step_den
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _bracket_walls(table: tuple) -> tuple:
    """The rows i and j of the table that wall the positive bracket: lo =
    u_i / c_i is the largest root of a factor with c_i < 0, hi = u_j / c_j
    the smallest root of one with c_j > 0.  beta = sum(w_i) is positive on
    the closed bracket, so its root lies outside and it is never a wall.
    Two roots of one sign of c compare by cross-multiplication, since the
    product of their c is positive; the first row wins a tie."""
    i = j = None
    for k, (uk, ck, _) in enumerate(table):
        if ck < 0 and (i is None or uk * c_lo > u_lo * ck):
            i, u_lo, c_lo = k, uk, ck
        elif ck > 0 and (j is None or uk * c_hi < u_hi * ck):
            j, u_hi, c_hi = k, uk, ck
    return i, j


def _bisect_optimum(ke: Fraction, table: tuple) -> tuple:
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
    exact signs of Q at the two ends of the cell, Q > 0 at the low end and
    Q < 0 at the high end, show that it holds the root.  An end on a wall
    needs no special case: one side of Q is 0 there and the other is
    positive.  That root only chooses where to look.  The cells around the
    root are nested and unique, so a confirmed cell is the one that
    bisection from the whole bracket reaches after SEED_LEVEL halvings, and
    the result is the same bit for bit: bisection from the whole bracket
    could stop sooner only on equal ends or on an exact zero, which both
    give the correctly rounded root at any level, and its width exit cannot
    fire before 64 halvings, since a cell at level k spans 2^-k of the
    bracket and no wall is further than the whole bracket from it.
    Anything else (no root from ``_float_root``, one outside the bracket,
    or a cell whose signs do not confirm it) starts bisection from the
    whole bracket, whose exact-zero exit finds a root that ends a cell.
    """
    *weights, (total, s, _) = table

    def point(a, d):
        b = total * d - s * a
        return tuple((ui * d - ci * a) / b for ui, ci, _ in weights)

    # Q > 0 at lo, where the weight of row i vanishes; Q < 0 at hi, where
    # the weight of row j does
    i, j = _bracket_walls(table)
    (u_lo, c_lo, _), (u_hi, c_hi, _) = table[i], table[j]
    # lo = lo_num / lo_den and hi = hi_num / hi_den in lowest terms, with
    # positive denominators
    g_lo, g_hi = math.gcd(u_lo, c_lo), math.gcd(u_hi, c_hi)
    lo_num, lo_den = -u_lo // g_lo, -c_lo // g_lo
    hi_num, hi_den = u_hi // g_hi, c_hi // g_hi
    d, a_lo, a_hi = lo_den * hi_den, lo_num * hi_den, hi_num * lo_den
    guess = _float_root(ke, table, a_lo, a_hi, d)
    if guess is not None:
        # the cell holding the guess has the level-K ends
        # (a_lo 2^K + k span) / (d 2^K) for k = cell and cell + 1
        span, (g, g_den) = a_hi - a_lo, guess
        cell = ((g * d - a_lo * g_den) << SEED_LEVEL) // (g_den * span)
        if 0 <= cell < 1 << SEED_LEVEL:
            # Q > 0 at the low end and Q < 0 at the high end confirm it
            cell_lo, d_k = (a_lo << SEED_LEVEL) + cell * span, d << SEED_LEVEL
            if (_extent_value(ke, table, cell_lo, d_k) > 0
                    > _extent_value(ke, table, cell_lo + span, d_k)):
                a_lo, a_hi, d = cell_lo, cell_lo + span, d_k
    p_lo, p_hi = point(a_lo, d), point(a_hi, d)
    while p_lo != p_hi:
        # d times the distance of an end to its wall is W / |c| there
        width = (a_hi - a_lo) << 64
        if width * -c_lo < u_lo * d - c_lo * a_lo and width * c_hi < u_hi * d - c_hi * a_hi:
            return point(a_lo + a_hi, 2 * d)
        mid, d, a_lo, a_hi = a_lo + a_hi, 2 * d, 2 * a_lo, 2 * a_hi
        value = _extent_value(ke, table, mid, d)
        if value == 0:
            return point(mid, d)
        if value > 0:
            a_lo, p_lo = mid, point(mid, d)
        else:
            a_hi, p_hi = mid, point(mid, d)
    return p_lo


def _extent_coeffs(ke: Fraction, table: tuple) -> list:
    """den(K_e) * Q as integer coefficients, highest degree first: each
    side, R and T, multiplied out from its factors in the table, lowest
    degree first."""
    sides = [[ke.numerator], [ke.denominator]]
    for a, b, e in table:
        for _ in range(abs(e)):
            # times a - b alpha
            side = sides[e < 0]
            sides[e < 0] = [a * x - b * y for x, y in zip(side + [0], [0, *side])]
    return _trim([x - y for x, y in zip(*sides)][::-1])


# the prime of the certificate: a Mersenne prime, so that a leading
# coefficient it divides is rare
CERTIFICATE_PRIME = 2**61 - 1


def _coprime_mod_p(f: list, g: list) -> bool:
    """True when gcd(f, g) is a nonzero constant over GF(p), p =
    CERTIFICATE_PRIME, for integer polynomials f and g (highest degree
    first); the remainder sequence of Euclid's algorithm on integers mod p,
    each remainder scaled by a unit so that no inverse is taken."""
    p = CERTIFICATE_PRIME
    f, g = _trim([x % p for x in f]), _trim([x % p for x in g])
    while g:
        while len(f) >= len(g):
            # lc(g) f - lc(f) x^k g, whose leading coefficient is zero
            pad = [0] * (len(f) - len(g))
            f = _trim([(g[0] * x - f[0] * y) % p for x, y in zip(f[1:], g[1:] + pad)])
        f, g = g, f
    return len(f) == 1


def _wall_roots(table: tuple) -> set:
    """The roots of Q on a wall w_i = 0 or beta = 0, for K_e != 0: one side
    of Q vanishes on a wall, so a wall is a root of Q exactly when it is a
    root of a factor of R (e > 0) and of a factor of T (e < 0).  Each root
    a / b is keyed by its lowest terms over a positive denominator."""
    roots = set()
    for a, b, e in table:
        if e > 0 and any(a * y == x * b for x, y, f in table if f < 0):
            g = math.gcd(a, b) if b > 0 else -math.gcd(a, b)
            roots.add((a // g, b // g))
    return roots


def _generic_certificate(ke: Fraction, table: tuple) -> bool:
    """True when Q has max(P, N) distinct roots, none on a wall: p =
    CERTIFICATE_PRIME does not divide the leading coefficient of den(K_e) Q
    at degree max(P, N), and gcd(H, Q mod H) is a nonzero constant over
    GF(p), for H = prod(u - c alpha) h' over the table (the module
    docstring has the proof).  Q mod H is taken from the factors of the
    table, so Q's coefficients are never built: the cost is
    O(max(P, N) k) for k species.  K_e != 0."""
    p = CERTIFICATE_PRIME
    if _extent_value(ke, table, 1, 0) % p == 0:
        return False
    # prod(u - c alpha) and H = -sum(e c prod of the other factors) mod p,
    # lowest degree first, one factor at a time
    whole, h = [1], [0]
    for a, b, e in table:
        h = [(a * x - b * y - e * b * z) % p for x, y, z in zip(h + [0], [0] + h, whole + [0])]
        whole = [(a * x - b * y) % p for x, y in zip(whole + [0], [0] + whole)]
    while h and not h[-1]:
        h.pop()
    if len(h) <= 1:
        return bool(h)  # a nonzero constant shares no root with Q
    # lead(H) alpha^m = -low(H) mod H, for m = deg H, so each step below
    # multiplies by lead(H) too; both sides take max(P, N) steps, so their
    # difference is lead(H)^max(P, N) (Q mod H), a unit multiple of Q mod H
    lead, low = h[-1], h[:-1]
    pad = [0] * (len(low) - 1)
    sides = [[ke.numerator % p, *pad], [ke.denominator % p, *pad]]
    for a, b, e in table:
        scaled_a, scaled_b = a * lead % p, b * lead % p
        for _ in range(abs(e)):
            # lead(H) r (a - b alpha) mod H
            r = sides[e < 0]
            t = b * r[-1]
            sides[e < 0] = [(scaled_a * x - scaled_b * y + t * z) % p
                            for x, y, z in zip(r, [0, *r], low)]
    return _coprime_mod_p(h[::-1], [x - y for x, y in zip(*sides)][::-1])


def _critical_count(ke: Fraction, table: tuple) -> int:
    """Distinct roots of Q, less those on a wall w_i = 0 or beta = 0."""
    if not ke:
        return 0  # Q is -den(K_e) times the product side, whose roots are walls
    if _generic_certificate(ke, table):
        return sum(e for _, _, e in table if e > 0)  # max(P, N)
    q = _extent_coeffs(ke, table)
    n = len(q) - 1
    if n == 0:
        return 0  # a nonzero constant has no roots, and no derivative to take a gcd with
    distinct = n - (len(_integer_gcd(q, _derivative(q))) - 1)
    return distinct - len(_wall_roots(table))



def _relation_residual(ke: Fraction, c: tuple, p: tuple) -> float:
    """|K_e prod(p_i^c_i) - prod(p_j^-c_j)| over the c_i > 0 and the c_j < 0,
    in floats, with the operations of evaluating F_affine term by term in
    graded-lex order (tests/reference.py's eval_complex, and
    variety._float_evaluator on an integer map), so the value is the same bit
    for bit: each power by repeated products from 1.0, and each term its
    coefficient times its powers in species order.
    The sum of the two terms does not depend on their order.  A K_e beyond
    the float range has no float coefficient, and the powers its term
    multiplies may underflow: that term is then taken exactly and rounded
    once."""
    num, den = ke.numerator, ke.denominator
    try:
        reactant, exact = float(ke), False
    except OverflowError:
        # the term is taken as the integers num / den
        reactant, exact = None, True
    product = -1.0
    for ci, pi in zip(c, p):
        if ci > 0 and exact:
            p_num, p_den = pi.as_integer_ratio()
            num, den = num * p_num ** ci, den * p_den ** ci
            continue
        power = 1.0
        for _ in range(abs(ci)):
            power *= pi
        if ci > 0:
            reactant *= power
        else:
            product *= power
    return abs((num / den if exact else reactant) + product)


def maximize_likelihood(model: EquilibriumModel, counts) -> MLEResult:
    """Maximum-likelihood estimate for positive counts and K_e > 0.

    It reads the model's reaction, K_e and species count only, and builds
    no polynomial and no Fraction."""
    values = _validated_counts(model, counts)
    if model.ke.is_generic:
        raise NoEstimateError("maximum-likelihood estimation needs a numeric K_e")
    if model.ke.value <= 0:
        raise NoEstimateError("maximum-likelihood estimation needs K_e > 0")
    floats = []
    for position, k in enumerate(values, 1):
        try:
            floats.append(float(k))
        except OverflowError:
            # Decimal counts the digits of an int of any size; str() stops
            # at sys.get_int_max_str_digits()
            from decimal import Decimal

            raise OverflowError(
                f"count {position} ({Decimal(k).adjusted() + 1} digits) is beyond the "
                "float range, so the log likelihood has no float value"
            ) from None
    c = model.reaction.stoichiometry
    ke = model.ke.value
    table = _extent_table(c, values)
    coords = _bisect_optimum(ke, table)
    if 0.0 in coords:
        # each coordinate is a correctly rounded positive quotient
        raise ArithmeticError(
            "the optimum is outside the float range: a coordinate underflows to 0"
        )
    residuals = (_relation_residual(ke, c, coords), abs(sum(coords) - 1.0))
    optimum = CriticalPoint(coords, residuals)
    # the counts are validated and each coordinate is positive, so the
    # checks of likelihood_value would repeat
    return MLEResult(optimum, _log_likelihood(coords, floats), (optimum,),
                     _critical_count(ke, table))


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
