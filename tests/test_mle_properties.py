"""Seeded property tests of the extent-line MLE (hypothesis, derandomized).

The extent count is checked against the numeric variety route, which stays
as an independent reference; the optimum against the scale of the counts;
and the estimate against every shape a single reaction can take.  The
integer kernel of mldeg.mle, which reads Q from one table of linear
factors, is checked against the extent polynomial Q built with MPoly
arithmetic, its gcd against Yun's squarefree decomposition over the
rationals, its two certificates mod p (the generic one on the factors of Q
and H, and the squarefree one on Q and Q') against the integer gcd alone,
the generic one also against the reference certificate on the weights and
beta apart, its count against the closed form of the circuit
(tests/reference.py), its float residual against F_affine evaluated by
MPoly, and the bisection that starts in the cell of a float root against
plain bisection from the whole bracket.  The walls of the bracket, found
by integer cross-multiplication, are checked against Fraction keys; spies
show that the estimate builds no Fraction and builds the table once.
"""

import collections
import contextlib
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from mldeg import mle
from mldeg.curve import curve_from_model
from mldeg.mle import (
    _critical_count,
    _extent_coeffs,
    _extent_sides,
    _extent_table,
    _extent_value,
    _integer_gcd,
    maximize_likelihood,
)
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly
from mldeg.reaction import parse_reaction
from mldeg.variety import count_critical_points_variety

from reference import (
    EXTENT,
    circuit_degree,
    circuit_ml_degree,
    dense_coeffs,
    discriminant_ke,
    eval_complex,
    eval_exact,
    extent_polynomial,
    model_poly,
    reference_generic_certificate,
    squarefree_decomposition,
)


def seeded(examples):
    return settings(max_examples=examples, derandomize=True, database=None,
                    deadline=None, suppress_health_check=[HealthCheck.too_slow])


# K_e = p/q with distinct primes p, q >= 11 avoids the degenerate constants
# of the rungs (4, 27/4, ...), which are ratios of small prime powers
KE_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
RUNGS = [(n, m, p) for n in range(1, 4) for m in range(1, 4) for p in range(1, 5)]
SHAPES = (
    "A <-> B", "2A <-> 3B", "A + B <-> 2C", "2A + B <-> 3C", "7A + 9B <-> 11C",
    "A + B <-> C + D", "A + B + C <-> D + E + F", "CO + 3H2 <-> CH4 + H2O",
    "A + B <-> C + D + E",
)


def model_of(text, ke):
    return build_model(parse_reaction(text), EquilibriumConstant.of(ke))


def term(k, name):
    return f"{k if k > 1 else ''}{name}"


def stoichiometry(model):
    return model.reaction.stoichiometry


def hyperplane_roots(c, u):
    """The values of alpha where some w_i or beta vanishes."""
    walls = {Fraction(ui, ci) for ui, ci in zip(u, c)}
    if sum(c):
        walls.add(Fraction(sum(u), sum(c)))
    return walls


def bracket(c, u):
    """The walls of the positive bracket: a product weight vanishes at lo,
    a reactant weight at hi."""
    walls = [Fraction(ui, ci) for ui, ci in zip(u, c)]
    return (max(w for w, ci in zip(walls, c) if ci < 0),
            min(w for w, ci in zip(walls, c) if ci > 0))


def integer_bracket(c, u):
    """The bracket as mldeg.mle passes it to _float_root: its ends as
    integer numerators a_lo, a_hi over one denominator d."""
    lo, hi = bracket(c, u)
    return (lo.numerator * hi.denominator, hi.numerator * lo.denominator,
            lo.denominator * hi.denominator)


def plain_bisection(ke, c, u, evaluate=_extent_value):
    """The exact bisection of mldeg.mle, always started from the whole
    bracket: halve until both ends give the same doubles, the sign of Q is
    exactly zero, or the bracket is narrower than 2^-64 of its gap to the
    walls."""
    total, s, table = sum(u), sum(c), _extent_table(c, u)

    def point(a, d):
        b = total * d - s * a
        return tuple((ui * d - ci * a) / b for ui, ci in zip(u, c))

    lo, hi = bracket(c, u)
    i = next(k for k in range(len(c)) if c[k] < 0 and Fraction(u[k], c[k]) == lo)
    j = next(k for k in range(len(c)) if c[k] > 0 and Fraction(u[k], c[k]) == hi)
    d = lo.denominator * hi.denominator
    a_lo, a_hi = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    p_lo, p_hi = point(a_lo, d), point(a_hi, d)
    while p_lo != p_hi:
        width = (a_hi - a_lo) << 64
        if width * -c[i] < u[i] * d - c[i] * a_lo and width * c[j] < u[j] * d - c[j] * a_hi:
            return point(a_lo + a_hi, 2 * d)
        mid, d, a_lo, a_hi = a_lo + a_hi, 2 * d, 2 * a_lo, 2 * a_hi
        value = evaluate(ke, table, mid, d)
        if value == 0:
            return point(mid, d)
        if value > 0:
            a_lo, p_lo = mid, point(mid, d)
        else:
            a_hi, p_hi = mid, point(mid, d)
    return p_lo


def is_generic(ke, c, u):
    """The extent polynomial has simple roots, none on w_i = 0 or beta = 0."""
    q = extent_polynomial(ke, c, u)
    if any(k > 1 for _, k in squarefree_decomposition(q, "alpha")):
        return False
    return all(eval_exact(q, {"alpha": a}) != 0 for a in hyperplane_roots(c, u))


def yun_count(ke, c, u):
    """Distinct roots of Q off the hyperplanes, by Yun over the rationals."""
    q = extent_polynomial(ke, c, u)
    distinct = sum(f.degree_in("alpha") for f, _ in squarefree_decomposition(q, "alpha"))
    return distinct - sum(eval_exact(q, {"alpha": a}) == 0 for a in hyperplane_roots(c, u))


def integer_coeffs(f):
    """Integer coefficients of a univariate MPoly, highest degree first."""
    coeffs = dense_coeffs(f, "alpha")[::-1]
    assert all(x.denominator == 1 for x in coeffs)
    return [int(x) for x in coeffs]


@st.composite
def positive_ke(draw):
    return Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**6)))


@st.composite
def shape_problems(draw, max_count):
    text = draw(st.sampled_from(SHAPES))
    species = len(parse_reaction(text).species)
    u = tuple(draw(st.lists(st.integers(1, max_count), min_size=species, max_size=species)))
    return text, draw(positive_ke()), u


@pytest.mark.parametrize("rung", RUNGS, ids=lambda r: "%d-%d-%d" % r)
@seeded(5)
@given(ke=st.tuples(st.sampled_from(KE_PRIMES), st.sampled_from(KE_PRIMES)),
       u=st.tuples(*[st.integers(1, 30)] * 3))
def test_extent_count_matches_variety_route(rung, ke, u):
    n, m, p = rung
    assume(ke[0] != ke[1])
    ke = Fraction(*ke)
    assume(is_generic(ke, (n, m, -p), u))
    model = model_of(f"{term(n, 'A')} + {term(m, 'B')} <-> {term(p, 'C')}", ke)
    variety, _ = count_critical_points_variety(curve_from_model(model), u)
    assert maximize_likelihood(model, u).observed_ml_count == variety


@seeded(40)
@given(problem=shape_problems(max_count=50), power=st.integers(1, 9))
def test_optimum_bit_identical_under_scaling(problem, power):
    text, ke, u = problem
    base = maximize_likelihood(model_of(text, ke), u)
    scaled = maximize_likelihood(model_of(text, ke), tuple(10**power * c for c in u))
    assert scaled.optimum.coordinates == base.optimum.coordinates
    assert scaled.observed_ml_count == base.observed_ml_count


@seeded(60)
@given(problem=shape_problems(max_count=10**9))
def test_estimate_exists_for_positive_data(problem):
    text, ke, u = problem
    model = model_of(text, ke)
    result = maximize_likelihood(model, u)
    p = result.optimum.coordinates
    assert min(p) > 0
    assert abs(sum(p) - 1) < 1e-12
    c = stoichiometry(model)
    assert abs(math.log(ke) + sum(ci * math.log(pi) for ci, pi in zip(c, p))) < 1e-10
    assert result.all_critical_points == (result.optimum,)
    assert 1 <= result.observed_ml_count <= max(sum(k for k in c if k > 0),
                                                -sum(k for k in c if k < 0))


@seeded(40)
@given(problem=shape_problems(max_count=10**6),
       points=st.lists(st.tuples(st.integers(-10**7, 10**7), st.integers(1, 10**7)),
                       min_size=1, max_size=5),
       scale=st.integers(1, 2**70))
def test_extent_kernel_matches_polynomial(problem, points, scale):
    # at random rationals, at the hyperplane roots (the bracket walls among
    # them) and over a denominator with a common factor, the integer value is
    # d^max(P, N) den(K_e) Q(a / d), so it has the sign of Q
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    q = extent_polynomial(ke, c, u)
    degree = max(sum(k for k in c if k > 0), -sum(k for k in c if k < 0))
    alphas = [Fraction(a, d) for a, d in points] + sorted(hyperplane_roots(c, u))
    table = _extent_table(c, u)
    for alpha in alphas:
        a, d = alpha.numerator, alpha.denominator
        want = eval_exact(q, {"alpha": alpha}) * d**degree * ke.denominator
        assert _extent_value(ke, table, a, d) == want
        assert _extent_value(ke, table, scale * a, scale * d) == want * scale**degree
    assert _extent_coeffs(ke, table) == integer_coeffs(q * ke.denominator)


def test_extent_coeffs_evaluate_to_the_extent_value():
    # den(K_e) Q multiplied out from its linear factors, homogenized at
    # degree max(P, N), is d^max(P, N) den(K_e) Q(a / d) at seeded a / d;
    # K_e* and a negative K_e among the constants, and at K_e* the leading
    # coefficient is 0 and trimmed off
    rng = random.Random(16)
    for _ in range(200):
        c = tuple(rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(2, 4)))
        if min(c) > 0 or max(c) < 0:
            continue
        u = tuple(rng.randint(1, 10**6) for _ in c)
        ke = rng.choice((Fraction(rng.randint(-10**4, 10**4) or 1, rng.randint(1, 10**4)),
                         discriminant_ke(c)))
        table = _extent_table(c, u)
        coeffs = _extent_coeffs(ke, table)
        degree = max(sum(k for k in c if k > 0), -sum(k for k in c if k < 0))
        assert len(coeffs) <= degree + 1 and coeffs[0]
        if ke == discriminant_ke(c):
            assert len(coeffs) <= degree
        for _ in range(3):
            a, d = rng.randint(-10**6, 10**6), rng.randint(1, 10**6)
            value = sum(x * a**k * d**(degree - k) for k, x in enumerate(reversed(coeffs)))
            assert value == _extent_value(ke, table, a, d)


@seeded(40)
@given(problem=shape_problems(max_count=10**9))
def test_bisection_halves_the_bracket(problem):
    # each step halves the bracket, so the width exit at 2^-64 of the gap
    # to the walls comes within a few hundred sign evaluations (these
    # shapes take at most 116); a step that does not halve runs on, or
    # leaves the bracket
    text, ke, u = problem
    calls = []

    def counted(*args):
        calls.append(args)
        assert len(calls) <= 200, "bisection does not converge"
        return _extent_value(*args)

    with mock.patch.object(mle, "_extent_value", counted):
        p = mle._bisect_optimum(ke, _extent_table(stoichiometry(model_of(text, ke)), u))
    assert calls
    assert min(p) > 0 and abs(sum(p) - 1) < 1e-12


def test_integer_gcd_pinned():
    # (x - 1)^2 (x + 2)^2 (2x + 3) and its derivative have the primitive
    # gcd x^2 + x - 2; a sequence that skips the content step ends on a
    # multiple of it
    f = [2, 7, 0, -17, -4, 12]
    n = len(f) - 1
    assert _integer_gcd(f, [a * (n - k) for k, a in enumerate(f[:-1])]) == [1, 1, -2]
    assert _integer_gcd([6, 4], [9, 6]) == [3, 2]
    assert _integer_gcd([1, 0, 1], [1, 1]) == [1]


@seeded(40)
@given(linear=st.lists(st.tuples(st.integers(1, 9), st.integers(-30, 30), st.integers(1, 4)),
                       min_size=1, max_size=4),
       quadratic=st.lists(st.tuples(st.integers(1, 50), st.integers(1, 3)), max_size=2))
def test_integer_gcd_matches_yun(linear, quadratic):
    # f = prod (p x + q)^m * prod (x^2 + k)^m over distinct primitive factors,
    # so gcd(f, f') = prod factor^(m - 1), primitive with a positive lead
    x = MPoly.var(EXTENT, "alpha")
    factors = {}
    for p, q, m in linear:
        g = math.gcd(p, q)
        factors.setdefault((p // g, q // g), (p // g * x + q // g, m))
    for k, m in quadratic:
        factors.setdefault(k, (x * x + k, m))
    f = MPoly.const(EXTENT, 1)
    repeated = MPoly.const(EXTENT, 1)
    for factor, m in factors.values():
        f = f * factor ** m
        repeated = repeated * factor ** (m - 1)
    coeffs = integer_coeffs(f)
    n = len(coeffs) - 1
    gcd = _integer_gcd(coeffs, [a * (n - k) for k, a in enumerate(coeffs[:-1])])
    assert gcd == integer_coeffs(repeated)
    squarefree = sum(g.degree_in("alpha") for g, _ in squarefree_decomposition(f, "alpha"))
    assert len(gcd) - 1 == n - squarefree


@seeded(40)
@given(problem=shape_problems(max_count=60))
def test_count_matches_yun(problem):
    text, ke, u = problem
    model = model_of(text, ke)
    assert maximize_likelihood(model, u).observed_ml_count == yun_count(
        ke, stoichiometry(model), u)


@pytest.mark.parametrize("text, u", [("A + 2B <-> C", (11, 2, 9)),
                                     ("A + 2B <-> C", (11, 3, 9)),
                                     ("A + 3B <-> C", (55, 60, 50))])
def test_count_drop_matches_yun(text, u):
    # the cases of test_mle.py where the count drops (a root of Q where w0
    # and beta both vanish) and the generic case between them
    ke = Fraction(7, 3)
    model = model_of(text, ke)
    assert maximize_likelihood(model, u).observed_ml_count == yun_count(
        ke, stoichiometry(model), u)


# A + B <-> C with its one root at alpha = 1/3, where the first coordinate
# lies halfway between two doubles, so only the width exit stops bisection
# (tests/test_mle.py::TestBisection::test_rounding_tie_ends)
_TIE_TOTAL = (2**55 + 1) // 3
_TIE_U0 = (2**54 // 3) & ~1
TIE_U = (_TIE_U0, (_TIE_TOTAL - _TIE_U0) // 2,
         _TIE_TOTAL - _TIE_U0 - (_TIE_TOTAL - _TIE_U0) // 2)
TIE_KE = Fraction(3 * TIE_U[2] + 1, 1) * (3 * _TIE_TOTAL - 1) / (
    (3 * TIE_U[0] - 1) * (3 * TIE_U[1] - 1))


def recording(calls):
    def evaluate(*args):
        calls.append(args)
        return _extent_value(*args)
    return evaluate


@seeded(60)
@given(problem=shape_problems(max_count=10**9))
def test_bisection_matches_plain_bisection(problem):
    # the float root only picks the cell bisection starts in, so the point
    # is the one plain bisection from the whole bracket finds, bit for bit
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    assert mle._bisect_optimum(ke, _extent_table(c, u)) == plain_bisection(ke, c, u)


def test_rounding_tie_matches_plain_bisection():
    c = (1, 1, -1)
    table = _extent_table(c, TIE_U)
    assert _extent_value(TIE_KE, table, 1, 3) == 0
    calls = []
    want = plain_bisection(TIE_KE, c, TIE_U, recording(calls))
    # 1/3 is never a dyadic end, so no sign is zero, and the ends round
    # apart until the width exit, past 64 halvings
    assert len(calls) > 64 and all(_extent_value(*args) for args in calls)
    assert mle._bisect_optimum(TIE_KE, table) == want


def root_cell(ke, c, u):
    """The level-SEED_LEVEL cell k of the bracket that holds the root, Q >= 0
    at its low end and Q < 0 at its high end, with the integer ends
    (a_lo 2^K + k span) / (d 2^K) of mldeg.mle, K = SEED_LEVEL, found by
    exact bisection on k; returns (k, a_lo 2^K, span, d 2^K)."""
    a_lo, a_hi, d = integer_bracket(c, u)
    base, span, d_k = a_lo << mle.SEED_LEVEL, a_hi - a_lo, d << mle.SEED_LEVEL
    table, low, high = _extent_table(c, u), 0, 1 << mle.SEED_LEVEL
    while high - low > 1:
        mid = (low + high) // 2
        if _extent_value(ke, table, base + mid * span, d_k) >= 0:
            low = mid
        else:
            high = mid
    return low, base, span, d_k


# cells from the root's cell to the seed's: the root lies left of the seed's
# cell (Q < 0 at its low end) or right of it (Q > 0 at its high end)
CELL_OFFSETS = {"left": 1, "right": -1, "wrong cell": 16}


def missed_guess(miss, ke, c, u):
    """A seed for _bisect_optimum, as an integer pair like the one
    _float_root returns: none, outside the bracket, the midpoint of the cell
    CELL_OFFSETS[miss] cells from the root's cell, or the float root
    itself."""
    lo, hi = bracket(c, u)
    if miss == "none":
        return None
    if miss == "below":
        return (float(lo) - 1.0).as_integer_ratio()
    if miss == "above":
        return (float(hi) + 1.0).as_integer_ratio()
    if miss == "float root":
        return mle._float_root(ke, _extent_table(c, u), *integer_bracket(c, u))
    k, base, span, d_k = root_cell(ke, c, u)
    return 2 * base + (2 * (k + CELL_OFFSETS[miss]) + 1) * span, 2 * d_k


# real draws whose float root lands one level-SEED_LEVEL cell off the root
# on Python 3.11, from a seeded search over counts of mixed scale (1 to
# 1e9): the root lies left of the seed's cell in the first and right of it
# in the second.  The float sums of _float_root may round differently on
# another version and confirm the cell, so the test takes either branch
ONE_CELL_OFF = (
    ("2A + B <-> 3C", Fraction(49566, 63487), (497700084, 83, 100)),
    ("CO + 3H2 <-> CH4 + H2O", Fraction(730719, 974258), (6166, 7041, 400714762, 11)),
)
# A <-> B at K_e = 1: the root alpha = -1 is the midpoint of the bracket
# [-5, 3], so it ends two cells, and Q = 0 there; the "right" seed is the
# cell it ends on the high side, the float root the one it starts
ROOT_ON_A_CELL_END = ("A <-> B", Fraction(1), (3, 5))
# the exact signs a missed seed takes before the calls of plain bisection:
# none without a seed in the bracket, one at the low end of a cell left of
# the root, and two at the ends of a cell right of it
MISSED_SIGNS = {"none": 0, "below": 0, "above": 0, "left": 1, "right": 2, "wrong cell": 1}


@pytest.mark.parametrize("miss", ["none", "below", "above", "left", "right",
                                  "wrong cell", "float root"])
@seeded(15)
@example(problem=ONE_CELL_OFF[0])
@example(problem=ONE_CELL_OFF[1])
@example(problem=ROOT_ON_A_CELL_END)
@given(problem=shape_problems(max_count=10**9))
def test_missed_seed_runs_plain_bisection(miss, problem):
    # a missed seed takes the signs of MISSED_SIGNS, and bisection then
    # makes exactly the calls of plain bisection.  The float root either
    # misses in one of those ways or confirms its cell, and bisection then
    # makes the calls plain bisection makes below that level
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    table = _extent_table(c, u)
    assert problem != ROOT_ON_A_CELL_END or _extent_value(ke, table, -1, 1) == 0
    guess = missed_guess(miss, ke, c, u)
    plain, calls = [], []
    want = plain_bisection(ke, c, u, recording(plain))
    with mock.patch.object(mle, "_float_root", lambda *args: guess), \
            mock.patch.object(mle, "_extent_value", recording(calls)):
        assert mle._bisect_optimum(ke, table) == want
    extra = len(calls) - len(plain)
    values = [_extent_value(*args) for args in calls[:2]]
    if extra < 0:
        # Q > 0 at the low end of the cell and Q < 0 at its high end
        assert miss == "float root" and problem != ROOT_ON_A_CELL_END
        assert values[0] > 0 > values[1] and calls[2:] == plain[mle.SEED_LEVEL:]
        return
    assert extra == MISSED_SIGNS.get(miss, extra) and calls[extra:] == plain
    if extra == 0:
        lo, hi = bracket(c, u)
        assert guess is None or not lo <= Fraction(*guess) < hi
    elif extra == 1:
        # the root lies left of the cell, or starts it
        assert values[0] <= 0
    else:
        # the root lies right of the cell, or ends it
        assert extra == 2 and values[0] > 0 <= values[1]


def float_h(ke, table, x):
    """h(x) in floats, with the operations of the float loop of _float_root."""
    return (math.log(ke.numerator) - math.log(ke.denominator)
            + sum(e * math.log(ui - ci * x) for ui, ci, e in table))


def test_float_root_with_zero_h_takes_the_exact_step():
    # the float loop stops where h(x) is 0.0 in floats; the root of Q is
    # still off x, so that float root needs the exact step as much as any
    rng = random.Random(5)
    hits = 0
    for _ in range(40):
        text = rng.choice(SHAPES)
        u = tuple(rng.randint(1, 10**9) for _ in parse_reaction(text).species)
        ke = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        c = stoichiometry(model_of(text, ke))
        table = _extent_table(c, u)
        sides, calls = [], []

        def evaluated(*args):
            sides.append(args)
            return _extent_sides(*args)

        with mock.patch.object(mle, "_extent_sides", evaluated), \
                mock.patch.object(mle, "_extent_value", recording(calls)):
            assert mle._bisect_optimum(ke, table) == plain_bisection(ke, c, u)
        # the first evaluation is the exact step at the float root
        (_, _, a, d) = sides[0]
        if float_h(ke, table, a / d) == 0.0:
            hits += 1
            assert _extent_value(ke, table, a, d) != 0
            assert len(calls) <= 4
    assert hits >= 5


@pytest.mark.parametrize("fault", ["low wall", "high wall", "overflow"])
@seeded(10)
@given(problem=shape_problems(max_count=10**9))
def test_exact_step_failure_falls_back(fault, problem):
    # an x on a wall, where P or R is 0, or a (R - P) / P beyond floats:
    # the exact step gives no seed, and bisection runs from the whole bracket
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    lo, hi = bracket(c, u)
    wall = lo if fault == "low wall" else hi
    ends = integer_bracket(c, u)

    def faulty(ke, table, a, d):
        if fault == "overflow":
            reactant_side, product_side = _extent_sides(ke, table, a, d)
            return reactant_side << 1100, product_side
        return _extent_sides(ke, table, wall.numerator, wall.denominator)

    float_root = mle._float_root

    def seed(*args):
        with mock.patch.object(mle, "_extent_sides", faulty):
            return float_root(*args)

    table = _extent_table(c, u)
    assert fault == "overflow" or 0 in faulty(ke, table, 0, 1)
    assert seed(ke, table, *ends) is None
    plain, calls = [], []
    want = plain_bisection(ke, c, u, recording(plain))
    with mock.patch.object(mle, "_float_root", seed), \
            mock.patch.object(mle, "_extent_value", recording(calls)):
        assert mle._bisect_optimum(ke, table) == want
    assert calls == plain


# the reactions of the benchmark's mle-ladder: small counts, then large ones
LADDER_SMALL = (
    "A + B <-> 2C", "2A + 3B <-> 4C", "3A + 4B <-> 5C", "4A + 5B <-> 7C",
    "5A + 7B <-> 9C", "7A + 9B <-> 11C", "2A <-> 3B", "A + B <-> C + D",
)
LADDER_LARGE = ("A + 2B <-> C", "2A + B <-> 3C", "N2 + 3H2 <-> 2NH3", "3A + 5B <-> 7C")


def test_seeded_bisection_call_count():
    # plain bisection takes about 56 signs per estimate on these; starting
    # 64 halvings deep takes 2 to confirm the cell, and a miss, which would
    # cost a full bisection, shows in the worst count
    rng = random.Random(11)
    worst, total, estimates = 0, 0, 0
    for text in LADDER_SMALL + LADDER_LARGE:
        low, high = (10, 100) if text in LADDER_SMALL else (10**5, 10**7)
        species = len(parse_reaction(text).species)
        for _ in range(5):
            ke = Fraction(*rng.sample(KE_PRIMES, 2))
            u = tuple(rng.randint(low, high) for _ in range(species))
            c = stoichiometry(model_of(text, ke))
            calls = []
            with mock.patch.object(mle, "_extent_value", recording(calls)):
                assert mle._bisect_optimum(ke, _extent_table(c, u)) == plain_bisection(ke, c, u)
            worst, total, estimates = max(worst, len(calls)), total + len(calls), estimates + 1
    assert worst <= 4 and total <= 3 * estimates


def test_constant_extent_polynomial_has_no_critical_point():
    # A <-> B at K_e = -1: Q = -(u0 - alpha) - (u1 + alpha) = -sum(u), a
    # nonzero constant, whose derivative is empty
    ke, table = Fraction(-1), _extent_table((1, -1), (3, 5))
    assert _extent_coeffs(ke, table) == [-8]
    assert _critical_count(ke, table) == 0


def test_zero_ke_has_no_critical_point():
    # K_e = 0 leaves Q = -(product side), whose roots all lie on walls
    c, u = (1, 2, -1), (11, 3, 9)
    assert _critical_count(Fraction(0), _extent_table(c, u)) == yun_count(Fraction(0), c, u) == 0


def gcd_only_count(ke, c, u):
    """The count with the generic certificate declining, so _integer_gcd decides."""
    with mock.patch.object(mle, "_generic_certificate", lambda ke, table: False):
        return _critical_count(ke, _extent_table(c, u))


def coprime_mod_p(ke, c, u):
    """gcd(Q mod p, Q' mod p) is a nonzero constant, p = CERTIFICATE_PRIME."""
    q = _extent_coeffs(ke, _extent_table(c, u))
    n = len(q) - 1
    return mle._coprime_mod_p(q, [x * (n - k) for k, x in enumerate(q[:-1])])


@seeded(60)
@given(problem=shape_problems(max_count=10**9))
def test_certificate_count_matches_integer_gcd(problem):
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    assert _critical_count(ke, _extent_table(c, u)) == gcd_only_count(ke, c, u)


@pytest.mark.parametrize("text, ke, u", [
    # the count drops at a simple root of Q on a hyperplane
    ("A + 2B <-> C", Fraction(7, 3), (11, 2, 9)),
    ("A + 3B <-> C", Fraction(7, 3), (55, 60, 50)),
    # a degenerate K_e lowers the degree of Q, which stays squarefree
    ("A + B <-> 3C", Fraction(27), (5, 7, 11)),
    ("A + B <-> 2C", Fraction(4), (30, 30, 40)),
])
def test_integer_gcd_decides_degenerate_squarefree_cases(text, ke, u):
    # non-generic data without a repeated root of Q: the generic certificate
    # declines (a root on a wall, or a leading coefficient of 0 at K_e*),
    # Q and Q' are coprime mod p, and the one integer gcd gives the count
    # that Yun gives
    c = stoichiometry(model_of(text, ke))
    table = _extent_table(c, u)
    assert not mle._generic_certificate(ke, table)
    assert coprime_mod_p(ke, c, u)
    with mock.patch.object(mle, "_integer_gcd", wraps=_integer_gcd) as gcd:
        count = _critical_count(ke, table)
    assert gcd.call_count == 1
    assert count == yun_count(ke, c, u)


@pytest.mark.parametrize("text, ke, u, repeated", [
    ("A + 2B <-> C", Fraction(27, 5), (2, 1, 2), [4, -7]),
    ("2A + B <-> 3C", Fraction(27), (1, 3, 1), [3, -4]),
    ("A + 2B <-> 2C", Fraction(1029, 5), (3, 2, 6), [4, -9]),
])
def test_certificate_declines_on_repeated_roots(text, ke, u, repeated):
    # Q has a double root off the walls, so gcd(Q, Q') is not constant mod
    # any p: the certificate declines and the integer gcd decides.  Q has
    # degree max(P, N) and no root on a wall, so the generic certificate
    # declines on its gcd of Q and H alone
    c = stoichiometry(model_of(text, ke))
    table = _extent_table(c, u)
    q = _extent_coeffs(ke, table)
    n = len(q) - 1
    assert _integer_gcd(q, [x * (n - k) for k, x in enumerate(q[:-1])]) == repeated
    assert n == circuit_degree(c) and q[0] % mle.CERTIFICATE_PRIME
    assert not mle._wall_roots(table)
    assert not mle._generic_certificate(ke, table)
    assert not coprime_mod_p(ke, c, u)
    with mock.patch.object(mle, "_integer_gcd", wraps=_integer_gcd) as gcd:
        count = _critical_count(ke, table)
    assert gcd.call_count == 1
    assert count == yun_count(ke, c, u) == n - 1 - sum(
        _extent_value(ke, table, a.numerator, a.denominator) == 0
        for a in hyperplane_roots(c, u))


def test_certificate_declines_when_the_prime_divides_the_leading_coefficient():
    # A + B <-> 3C: den(K_e) Q = -340 alpha^3 + ...; mod 17 its degree drops
    # and the gcd of the reduced pair is constant, which proves nothing about
    # Q, so the certificate declines and the integer gcd decides
    ke, c, u = Fraction(11, 13), (1, 1, -3), (2, 3, 5)
    table = _extent_table(c, u)
    assert _extent_coeffs(ke, table)[0] == -340
    assert mle._generic_certificate(ke, table)
    with mock.patch.object(mle, "CERTIFICATE_PRIME", 17), \
            mock.patch.object(mle, "_integer_gcd", wraps=_integer_gcd) as gcd:
        assert coprime_mod_p(ke, c, u)
        assert not mle._generic_certificate(ke, table)
        assert _critical_count(ke, table) == yun_count(ke, c, u) == 3
    assert gcd.call_count == 1


@st.composite
def circuits(draw):
    """A stoichiometric vector: 2 to 6 species, entries 1 to 4 in size,
    reactants first; non-primitive vectors included."""
    species = draw(st.integers(2, 6))
    reactants = draw(st.integers(1, species - 1))
    sizes = draw(st.lists(st.integers(1, 4), min_size=species, max_size=species))
    return tuple(k if i < reactants else -k for i, k in enumerate(sizes))


@st.composite
def circuit_problems(draw, at_discriminant):
    """A circuit, K_e* or another nonzero K_e, and counts u up to 1e9."""
    c = draw(circuits())
    if at_discriminant:
        ke = discriminant_ke(c)
    else:
        ke = Fraction(draw(st.integers(-10**6, 10**6).filter(bool)), draw(st.integers(1, 10**6)))
        assume(ke != discriminant_ke(c))
    u = tuple(draw(st.lists(st.integers(1, 10**9), min_size=len(c), max_size=len(c))))
    return ke, c, u


@pytest.mark.parametrize("at_discriminant", [True, False], ids=["at K_e*", "away"])
@seeded(25)
@given(data=st.data())
def test_count_matches_circuit_closed_form(at_discriminant, data):
    # at generic u the count is max(P, N), less 2 (S != 0) or 1 (S = 0) at
    # K_e*; non-generic u can only lower it, and Yun's count says by how much
    ke, c, u = data.draw(circuit_problems(at_discriminant))
    table = _extent_table(c, u)
    count = _critical_count(ke, table)
    assert count == yun_count(ke, c, u)
    assert count == circuit_ml_degree(c, ke) or not is_generic(ke, c, u)
    # the leading coefficient at degree max(P, N), the homogenized value at
    # (a, d) = (1, 0), vanishes at K_e* alone
    assert (_extent_value(ke, table, 1, 0) == 0) == at_discriminant
    if mle._generic_certificate(ke, table):
        assert count == circuit_degree(c)


@pytest.mark.parametrize("at_discriminant", [True, False], ids=["at K_e*", "away"])
@seeded(25)
@given(data=st.data())
def test_leading_coefficient_matches_q(at_discriminant, data):
    # the closed form of the coefficient of alpha^max(P, N) in den(K_e) Q,
    # which is 0 where the degree of Q drops
    ke, c, u = data.draw(circuit_problems(at_discriminant))
    table = _extent_table(c, u)
    q = _extent_coeffs(ke, table)
    degree = circuit_degree(c)
    assert sum(e for _, _, e in table if e > 0) == -sum(e for _, _, e in table if e < 0) == degree
    assert _extent_value(ke, table, 1, 0) == (q[0] if len(q) == degree + 1 else 0)


def test_wall_roots_match_exact_evaluation():
    # a wall is a root of Q exactly when it is a root of both sides; counts
    # up to 3 put roots on walls in about 1 draw of 30, where the generic
    # certificate declines and the fallback subtracts them by the same
    # rule: the count then matches Yun's
    rng = random.Random(7)
    hits = 0
    for _ in range(4000):
        species = rng.randint(2, 5)
        reactants = rng.randint(1, species - 1)
        c = tuple(rng.randint(1, 4) * (1 if i < reactants else -1) for i in range(species))
        u = tuple(rng.randint(1, 3) for _ in c)
        ke = Fraction(rng.choice([-1, 1]) * rng.randint(1, 50), rng.randint(1, 50))
        table = _extent_table(c, u)
        walls = mle._wall_roots(table)
        assert walls == {a.as_integer_ratio() for a in hyperplane_roots(c, u)
                         if _extent_value(ke, table, a.numerator, a.denominator) == 0}
        if walls:
            hits += 1
            assert not mle._generic_certificate(ke, table)
            if hits % 10 == 0:
                assert _critical_count(ke, table) == yun_count(ke, c, u)
    assert hits >= 120


@pytest.mark.parametrize("text", [
    "A + B <-> 3C", "2A + B <-> 3C", "CO + 3H2 <-> CH4 + H2O", "A + B <-> C + D + E",
    "A + 2B <-> C", "A + B <-> 2C", "2A + 2B <-> 2C", "7A + 9B <-> 11C",
])
def test_generic_certificate_declines_at_the_discriminant(text):
    # at K_e* the coefficient of alpha^max(P, N) vanishes, so the generic
    # certificate declines, and the fallback finds the closed-form drop
    c = parse_reaction(text).stoichiometry
    ke = discriminant_ke(c)
    u = (13, 29, 41, 53, 67)[:len(c)]
    table = _extent_table(c, u)
    assert _extent_value(ke, table, 1, 0) == 0
    assert not mle._generic_certificate(ke, table)
    assert _critical_count(ke, table) == yun_count(ke, c, u) == circuit_ml_degree(c, ke)


def test_generic_certificate_matches_reference():
    # the certificate on the table against the one with the weights and
    # beta apart, on seeded circuits: S != 0 and S = 0 (a species of
    # coefficient -S appended), counts up to 3 (roots on walls) and up to
    # 1e9, sum(u) a multiple of p (then beta, a constant when S = 0,
    # vanishes mod p), K_e* and other nonzero K_e
    rng = random.Random(38)
    p = mle.CERTIFICATE_PRIME
    seen = collections.Counter()
    for _ in range(1500):
        species = rng.randint(2, 5)
        reactants = rng.randint(1, species - 1)
        c = tuple(rng.randint(1, 4) * (1 if i < reactants else -1) for i in range(species))
        if sum(c) and rng.random() < 0.3:
            c += (-sum(c),)
        top = rng.choice((3, 10**9))
        u = [rng.randint(1, top) for _ in c]
        if rng.random() < 0.15:
            u[-1] += -sum(u) % p
        u = tuple(u)
        ke = rng.choice((discriminant_ke(c), Fraction(
            rng.choice((-1, 1)) * rng.randint(1, 10**4), rng.randint(1, 10**4))))
        table = _extent_table(c, u)
        verdict = mle._generic_certificate(ke, table)
        assert verdict == reference_generic_certificate(ke, c, u, p), (ke, c, u)
        seen.update({"S = 0": not sum(c), "S != 0": bool(sum(c)),
                     "wall": bool(mle._wall_roots(table)), "K_e*": ke == discriminant_ke(c),
                     "sum(u) = 0 mod p": not sum(u) % p, "accepted": verdict,
                     "declined": not verdict})
    assert min(seen.values()) >= 10 and len(seen) == 7, seen


def test_generic_certificate_accepts_on_the_ladder():
    # every rung of the benchmark's mle-ladder, and its large-count
    # reproducer, is generic data: the certificate holds, and its count is
    # the one the integer gcd gives
    rng = random.Random(11)
    problems = [("A + B <-> 3C", Fraction(7, 3), (1, 1, 1000000))]
    for text in LADDER_SMALL + LADDER_LARGE:
        low, high = (10, 100) if text in LADDER_SMALL else (10**5, 10**7)
        species = len(parse_reaction(text).species)
        for _ in range(5):
            u = tuple(rng.randint(low, high) for _ in range(species))
            problems.append((text, Fraction(*rng.sample(KE_PRIMES, 2)), u))
    for text, ke, u in problems:
        c = parse_reaction(text).stoichiometry
        table = _extent_table(c, u)
        assert mle._generic_certificate(ke, table), (text, ke, u)
        assert _critical_count(ke, table) == circuit_degree(c) == gcd_only_count(ke, c, u)


@seeded(60)
@given(problem=shape_problems(max_count=10**9),
       point=st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6))
def test_residual_matches_f_affine(problem, point):
    # the float residual of the estimate is |F_affine| as eval_complex
    # gives it, bit for bit, at the optimum and at any positive point
    text, ke, u = problem
    model = model_of(text, ke)
    c = stoichiometry(model)
    result = maximize_likelihood(model, u)
    for p in (result.optimum.coordinates, tuple(point[:len(c)])):
        f_affine = model_poly(model.ctx, model.F_affine)
        want = abs(eval_complex(f_affine, dict(zip(model.species_vars, p))))
        assert mle._relation_residual(ke, c, p) == want
    assert result.optimum.residuals[0] == mle._relation_residual(
        ke, c, result.optimum.coordinates)


def fraction_walls(c, u):
    """The indices of the bracket's walls, keyed by Fraction: max and min
    keep the first index of a tie."""
    return (max((k for k in range(len(c)) if c[k] < 0), key=lambda k: Fraction(u[k], c[k])),
            min((k for k in range(len(c)) if c[k] > 0), key=lambda k: Fraction(u[k], c[k])))


# counts beyond the float range: _float_root declines, and bisection runs
# from the whole bracket
HUGE = 10**400


@seeded(80)
@given(c=circuits(), data=st.data())
def test_bracket_walls_match_fraction_keys(c, data):
    # small counts tie often (u_k / c_k equal for two k of one sign);
    # counts near 10^400 have no float
    small = data.draw(st.lists(st.integers(1, 4), min_size=len(c), max_size=len(c)))
    large = data.draw(st.lists(st.integers(1, 10**6), min_size=len(c), max_size=len(c)))
    for u in (tuple(small), tuple(HUGE + k for k in large), tuple(HUGE * k for k in small)):
        assert mle._bracket_walls(_extent_table(c, u)) == fraction_walls(c, u)


@pytest.mark.parametrize("c, u, walls", [
    # u_2 / c_2 = u_3 / c_3 = -3 and u_0 / c_0 = u_1 / c_1 = 2: the first wins
    ((-1, -2, 2, 1), (3, 6, 4, 2), (0, 2)),
    ((2, 1, -1, -2), (4, 2, 3, 6), (2, 0)),
    ((2, 1, -1, -2), (HUGE * 4, HUGE * 2, HUGE * 3, HUGE * 6), (2, 0)),
    # the rounding tie of A + B <-> C: u_1 is the smaller reactant count
    ((1, 1, -1), TIE_U, (2, 1)),
])
def test_bracket_walls_pinned(c, u, walls):
    assert mle._bracket_walls(_extent_table(c, u)) == fraction_walls(c, u) == walls


@seeded(20)
@given(problem=shape_problems(max_count=10**6))
def test_counts_beyond_floats_match_plain_bisection(problem):
    # the seed declines where the ends have no float, and the estimate is
    # the one plain bisection gives
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    u = tuple(HUGE + k for k in u)
    table = _extent_table(c, u)
    assert mle._float_root(ke, table, *integer_bracket(c, u)) is None
    assert mle._bisect_optimum(ke, table) == plain_bisection(ke, c, u)


def counting_fractions(counts):
    """Patches that count every Fraction built, by Fraction(...) and, where
    the class has it, by the constructor its arithmetic uses."""
    def counted(new):
        def wrapper(*args, **kwargs):
            counts.append(args)
            return new(*args, **kwargs)
        return wrapper

    patches = [mock.patch.object(Fraction, "__new__", staticmethod(counted(Fraction.__new__)))]
    if "_from_coprime_ints" in vars(Fraction):
        build = Fraction._from_coprime_ints.__func__
        patches.append(mock.patch.object(Fraction, "_from_coprime_ints",
                                         classmethod(counted(build))))
    return patches


ESTIMATES = pytest.mark.parametrize("text, ke, u", [
    # generic data: the certificate holds
    ("A + B <-> 2C", "11/13", (40, 70, 90)),
    # K_e* of A + B <-> 3C: the certificate declines, and the integer gcd
    # and _wall_roots decide
    ("A + B <-> 3C", "27", (5, 7, 11)),
    # a root of Q on a wall, which _wall_roots keys
    ("A + 2B <-> C", "7/3", (11, 2, 9)),
    # a K_e beyond floats: the residual takes its term exactly
    ("A + B <-> C", str(10**400), (1, 1, 1)),
], ids=["certified", "at K_e*", "wall root", "K_e beyond floats"])


@ESTIMATES
def test_estimate_builds_the_table_once(text, ke, u):
    # the bisection, the certificate and the fallback count all read it
    model = build_model(parse_reaction(text), EquilibriumConstant.parse(ke))
    with mock.patch.object(mle, "_extent_table", wraps=mle._extent_table) as table:
        maximize_likelihood(model, u)
    assert table.call_count == 1


@ESTIMATES
def test_estimate_builds_no_fraction(text, ke, u):
    model = build_model(parse_reaction(text), EquilibriumConstant.parse(ke))
    want = maximize_likelihood(model, u)
    built = []
    with contextlib.ExitStack() as stack:
        for patch in counting_fractions(built):
            stack.enter_context(patch)
        Fraction(1, 3) + 1
        assert built, "the spy sees Fractions built"
        built.clear()
        got = maximize_likelihood(model, u)
    assert built == []
    assert repr(got) == repr(want)
