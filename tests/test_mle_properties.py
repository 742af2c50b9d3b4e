"""Seeded property tests of the extent-line MLE (hypothesis, derandomized).

The extent count is checked against the numeric variety route, which stays
as an independent reference; the optimum against the scale of the counts;
and the estimate against every shape a single reaction can take.  The
integer kernel of mldeg.mle is checked against the extent polynomial Q
built here with MPoly arithmetic, its gcd against Yun's squarefree
decomposition over the rationals, its squarefree certificate mod p against
the integer gcd alone, its float residual against F_affine evaluated by
MPoly, and the bisection that starts in the cell of a float root against
plain bisection from the whole bracket.
"""

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mldeg import mle
from mldeg.curve import count_critical_points_variety, curve_from_model
from mldeg.mle import (
    _critical_count,
    _extent_coeffs,
    _extent_sides,
    _extent_value,
    _integer_gcd,
    maximize_likelihood,
)
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly, VarContext
from mldeg.reaction import parse_reaction

from reference import dense_coeffs, eval_exact, squarefree_decomposition


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


ALPHA = VarContext(("alpha",))


def extent_polynomial(ke, c, u):
    """Q(alpha) = K_e prod_{c_i>0} w_i^c_i beta^max(0,-S)
    - prod_{c_i<0} w_i^-c_i beta^max(0,S), with w_i = u_i - c_i alpha and
    beta = sum(u) - S alpha."""
    alpha = MPoly.var(ALPHA, "alpha")
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


def plain_bisection(ke, c, u, evaluate=_extent_value):
    """The exact bisection of mldeg.mle, always started from the whole
    bracket: halve until both ends give the same doubles, the sign of Q is
    exactly zero, or the bracket is narrower than 2^-64 of its gap to the
    walls."""
    total, s = sum(u), sum(c)

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
        value = evaluate(ke, c, u, mid, d)
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
    variety, _, _ = count_critical_points_variety(curve_from_model(model), u)
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
    for alpha in alphas:
        a, d = alpha.numerator, alpha.denominator
        want = eval_exact(q, {"alpha": alpha}) * d**degree * ke.denominator
        assert _extent_value(ke, c, u, a, d) == want
        assert _extent_value(ke, c, u, scale * a, scale * d) == want * scale**degree
    assert _extent_coeffs(ke, c, u) == integer_coeffs(q * ke.denominator)


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
        p = mle._bisect_optimum(ke, stoichiometry(model_of(text, ke)), u)
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
    x = MPoly.var(ALPHA, "alpha")
    factors = {}
    for p, q, m in linear:
        g = math.gcd(p, q)
        factors.setdefault((p // g, q // g), (p // g * x + q // g, m))
    for k, m in quadratic:
        factors.setdefault(k, (x * x + k, m))
    f = MPoly.const(ALPHA, 1)
    repeated = MPoly.const(ALPHA, 1)
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
    assert mle._bisect_optimum(ke, c, u) == plain_bisection(ke, c, u)


def test_rounding_tie_matches_plain_bisection():
    c = (1, 1, -1)
    assert _extent_value(TIE_KE, c, TIE_U, 1, 3) == 0
    calls = []
    want = plain_bisection(TIE_KE, c, TIE_U, recording(calls))
    # 1/3 is never a dyadic end, so no sign is zero, and the ends round
    # apart until the width exit, past 64 halvings
    assert len(calls) > 64 and all(_extent_value(*args) for args in calls)
    assert mle._bisect_optimum(TIE_KE, c, TIE_U) == want


def missed_guess(miss, ke, c, u):
    """A float root that misses: none, outside the bracket, or 16 cells of
    level SEED_LEVEL away from the root, as an exact rational (a float
    cannot sit 16 cells of level 64 from a root)."""
    lo, hi = bracket(c, u)
    if miss == "none":
        return None
    if miss == "below":
        return float(lo) - 1.0
    if miss == "above":
        return float(hi) + 1.0
    root = mle._float_root(ke, c, u, lo, hi)
    off = (hi - lo) / 2 ** (mle.SEED_LEVEL - 4)
    return root + off if root + off < hi else root - off


@pytest.mark.parametrize("miss", ["none", "below", "above", "wrong cell"])
@seeded(15)
@given(problem=shape_problems(max_count=10**9))
def test_missed_seed_runs_plain_bisection(miss, problem):
    # after a miss, and after the two signs that found the wrong cell,
    # bisection makes exactly the calls of plain bisection
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    guess = missed_guess(miss, ke, c, u)
    plain, calls = [], []
    want = plain_bisection(ke, c, u, recording(plain))
    with mock.patch.object(mle, "_float_root", lambda *args: guess), \
            mock.patch.object(mle, "_extent_value", recording(calls)):
        assert mle._bisect_optimum(ke, c, u) == want
    extra = len(calls) - len(plain)
    assert 0 <= extra <= (2 if miss == "wrong cell" else 0)
    assert calls[extra:] == plain


# seeds one level-SEED_LEVEL cell off the root: the float root, which lands
# in the root's cell, moved by one cell width.  A seeded search (random.Random(0),
# 20000 draws of SHAPES, u up to 1e9, K_e = a/b with a, b <= 1e6) found no
# float root after the exact step that missed its cell, so the misses are
# built here; side is where the root lies from the seed's cell
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("text, ke, u", [
    ("A + B <-> 2C", Fraction(19838, 12127), (405050187, 84342310, 606645817)),
    ("7A + 9B <-> 11C", Fraction(610721, 236391), (272159144, 335811193, 977670888)),
    ("2A <-> 3B", Fraction(391625, 223539), (972574647, 810265199)),
    ("A + B <-> C + D", Fraction(393424, 147099),
     (948144266, 316601503, 834324760, 952034242)),
])
def test_neighbouring_cell_miss_steps_one_cell(text, ke, u, side):
    # the signs of the seed's cell point at the neighbour, one more sign
    # confirms it, and bisection then goes on from level SEED_LEVEL, making
    # the calls plain bisection makes below that level
    c = stoichiometry(model_of(text, ke))
    lo, hi = bracket(c, u)
    cell = (hi - lo) / 2**mle.SEED_LEVEL
    guess = mle._float_root(ke, c, u, lo, hi) + (cell if side == "left" else -cell)
    calls, plain = [], []
    want = plain_bisection(ke, c, u, recording(plain))
    with mock.patch.object(mle, "_float_root", lambda *args: guess), \
            mock.patch.object(mle, "_extent_value", recording(calls)):
        got = mle._bisect_optimum(ke, c, u)
    assert repr(got) == repr(want)
    # left: Q < 0 at the cell's low end, Q > 0 at the left neighbour's low
    # end; right: Q > 0 at both ends of the cell, Q < 0 one cell further
    expected = [False, True] if side == "left" else [True, True, False]
    assert [_extent_value(*args) > 0 for args in calls[:len(expected)]] == expected
    (_, _, _, a0, d), (_, _, _, a1, _) = calls[:2]
    assert Fraction(abs(a1 - a0), d) == cell  # one cell apart
    assert calls[len(expected):] == plain[mle.SEED_LEVEL:]


def float_h(ke, c, u, x):
    """h(x) in floats, with the operations of the float loop of _float_root."""
    s = sum(c)
    return (math.log(ke.numerator) - math.log(ke.denominator)
            + sum(ci * math.log(ui - ci * x) for ui, ci in zip(u, c))
            - s * math.log(sum(u) - s * x))


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
        sides, calls = [], []

        def evaluated(*args):
            sides.append(args)
            return _extent_sides(*args)

        with mock.patch.object(mle, "_extent_sides", evaluated), \
                mock.patch.object(mle, "_extent_value", recording(calls)):
            assert mle._bisect_optimum(ke, c, u) == plain_bisection(ke, c, u)
        # the first evaluation is the exact step at the float root
        (_, _, _, a, d) = sides[0]
        if float_h(ke, c, u, a / d) == 0.0:
            hits += 1
            assert _extent_value(ke, c, u, a, d) != 0
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

    def faulty(ke, c, u, a, d):
        if fault == "overflow":
            reactant_side, product_side = _extent_sides(ke, c, u, a, d)
            return reactant_side << 1100, product_side
        return _extent_sides(ke, c, u, wall.numerator, wall.denominator)

    float_root = mle._float_root

    def seed(*args):
        with mock.patch.object(mle, "_extent_sides", faulty):
            return float_root(*args)

    assert fault == "overflow" or 0 in faulty(ke, c, u, 0, 1)
    assert seed(ke, c, u, lo, hi) is None
    plain, calls = [], []
    want = plain_bisection(ke, c, u, recording(plain))
    with mock.patch.object(mle, "_float_root", seed), \
            mock.patch.object(mle, "_extent_value", recording(calls)):
        assert mle._bisect_optimum(ke, c, u) == want
    assert calls == plain


# the reactions of the benchmark's mle-ladder: small counts, then large ones
LADDER_SMALL = (
    "A + B <-> 2C", "2A + 3B <-> 4C", "3A + 4B <-> 5C", "4A + 5B <-> 7C",
    "5A + 7B <-> 9C", "7A + 9B <-> 11C", "2A <-> 3B", "A + B <-> C + D",
)
LADDER_LARGE = ("A + 2B <-> C", "2A + B <-> 3C", "N2 + 3H2 <-> 2NH3", "3A + 5B <-> 7C")


def test_seeded_bisection_call_count():
    # plain bisection takes about 56 signs per estimate on these; starting
    # 64 halvings deep takes 2 to confirm the cell, and rarely a few more
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
                assert mle._bisect_optimum(ke, c, u) == plain_bisection(ke, c, u)
            worst, total, estimates = max(worst, len(calls)), total + len(calls), estimates + 1
    assert worst <= 4 and total <= 3 * estimates


def test_constant_extent_polynomial_has_no_critical_point():
    # A <-> B at K_e = -1: Q = -(u0 - alpha) - (u1 + alpha) = -sum(u), a
    # nonzero constant, whose derivative is empty
    ke, c, u = Fraction(-1), (1, -1), (3, 5)
    assert _extent_coeffs(ke, c, u) == [-8]
    assert _critical_count(ke, c, u) == 0


def gcd_only_count(ke, c, u):
    """The count with the certificate declining, so _integer_gcd decides."""
    with mock.patch.object(mle, "_squarefree_mod_p", lambda f, g: False):
        return _critical_count(ke, c, u)


def certificate_accepts(ke, c, u):
    q = _extent_coeffs(ke, c, u)
    n = len(q) - 1
    return mle._squarefree_mod_p(q, [x * (n - k) for k, x in enumerate(q[:-1])])


@seeded(60)
@given(problem=shape_problems(max_count=10**9))
def test_certificate_count_matches_integer_gcd(problem):
    text, ke, u = problem
    c = stoichiometry(model_of(text, ke))
    assert _critical_count(ke, c, u) == gcd_only_count(ke, c, u)


@pytest.mark.parametrize("text, ke, u", [
    # the count drops at a simple root of Q on a hyperplane
    ("A + 2B <-> C", Fraction(7, 3), (11, 2, 9)),
    ("A + 3B <-> C", Fraction(7, 3), (55, 60, 50)),
    # a degenerate K_e lowers the degree of Q, which stays squarefree
    ("A + B <-> 3C", Fraction(27), (5, 7, 11)),
    ("A + B <-> 2C", Fraction(4), (30, 30, 40)),
])
def test_certificate_decides_degenerate_squarefree_cases(text, ke, u):
    # non-generic data without a repeated root of Q: the certificate holds
    # and gives the count that the gcd and Yun give
    c = stoichiometry(model_of(text, ke))
    assert certificate_accepts(ke, c, u)
    with mock.patch.object(mle, "_integer_gcd", wraps=_integer_gcd) as gcd:
        count = _critical_count(ke, c, u)
    assert gcd.call_count == 0
    assert count == gcd_only_count(ke, c, u) == yun_count(ke, c, u)


@pytest.mark.parametrize("text, ke, u, repeated", [
    ("A + 2B <-> C", Fraction(27, 5), (2, 1, 2), [4, -7]),
    ("2A + B <-> 3C", Fraction(27), (1, 3, 1), [3, -4]),
    ("A + 2B <-> 2C", Fraction(1029, 5), (3, 2, 6), [4, -9]),
])
def test_certificate_declines_on_repeated_roots(text, ke, u, repeated):
    # Q has a double root, so gcd(Q, Q') is not constant mod any p: the
    # certificate declines and the integer gcd decides
    c = stoichiometry(model_of(text, ke))
    q = _extent_coeffs(ke, c, u)
    n = len(q) - 1
    assert _integer_gcd(q, [x * (n - k) for k, x in enumerate(q[:-1])]) == repeated
    assert not certificate_accepts(ke, c, u)
    with mock.patch.object(mle, "_integer_gcd", wraps=_integer_gcd) as gcd:
        count = _critical_count(ke, c, u)
    assert gcd.call_count == 1
    assert count == yun_count(ke, c, u) == n - 1 - sum(
        _extent_value(ke, c, u, a.numerator, a.denominator) == 0
        for a in hyperplane_roots(c, u))


def test_certificate_declines_when_the_prime_divides_the_leading_coefficient():
    # A + B <-> 3C: den(K_e) Q = -340 alpha^3 + ...; mod 17 its degree drops
    # and the gcd of the reduced pair is constant, which proves nothing about
    # Q, so the certificate declines and the integer gcd decides
    ke, c, u = Fraction(11, 13), (1, 1, -3), (2, 3, 5)
    assert _extent_coeffs(ke, c, u)[0] == -340
    assert certificate_accepts(ke, c, u)
    with mock.patch.object(mle, "CERTIFICATE_PRIME", 17), \
            mock.patch.object(mle, "_integer_gcd", wraps=_integer_gcd) as gcd:
        assert not certificate_accepts(ke, c, u)
        assert _critical_count(ke, c, u) == yun_count(ke, c, u) == 3
    assert gcd.call_count == 1


@seeded(60)
@given(problem=shape_problems(max_count=10**9),
       point=st.lists(st.floats(1e-3, 1.0), min_size=6, max_size=6))
def test_residual_matches_f_affine(problem, point):
    # the float residual of the estimate is |F_affine| as MPoly.eval_complex
    # gives it, bit for bit, at the optimum and at any positive point
    text, ke, u = problem
    model = model_of(text, ke)
    c = stoichiometry(model)
    result = maximize_likelihood(model, u)
    for p in (result.optimum.coordinates, tuple(point[:len(c)])):
        want = abs(model.F_affine.eval_complex(dict(zip(model.species_vars, p))))
        assert mle._relation_residual(ke, c, p) == want
    assert result.optimum.residuals[0] == mle._relation_residual(
        ke, c, result.optimum.coordinates)
