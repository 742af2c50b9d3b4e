"""Seeded property tests of the extent-line MLE (hypothesis, derandomized).

The extent count is checked against the numeric variety route, which stays
as an independent reference; the optimum against the scale of the counts;
and the estimate against every shape a single reaction can take.  The
integer kernel of mldeg.mle is checked against the extent polynomial Q
built here with MPoly arithmetic, and its gcd against Yun's squarefree
decomposition over the rationals.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mldeg import mle
from mldeg.curve import count_critical_points_variety, curve_from_model
from mldeg.mle import _extent_coeffs, _extent_value, _integer_gcd, maximize_likelihood
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly, VarContext, dense_coeffs, squarefree_decomposition
from mldeg.reaction import parse_reaction


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
    reaction = model.reaction
    return tuple(t.coefficient for t in reaction.reactants) + tuple(
        -t.coefficient for t in reaction.products)


ALPHA = VarContext.of(("alpha", "unknown"))


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


def is_generic(ke, c, u):
    """The extent polynomial has simple roots, none on w_i = 0 or beta = 0."""
    q = extent_polynomial(ke, c, u)
    if any(k > 1 for _, k in squarefree_decomposition(q, "alpha")):
        return False
    return all(q.eval_exact({"alpha": a}) != 0 for a in hyperplane_roots(c, u))


def yun_count(ke, c, u):
    """Distinct roots of Q off the hyperplanes, by Yun over the rationals."""
    q = extent_polynomial(ke, c, u)
    distinct = sum(f.degree_in("alpha") for f, _ in squarefree_decomposition(q, "alpha"))
    return distinct - sum(q.eval_exact({"alpha": a}) == 0 for a in hyperplane_roots(c, u))


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
        want = q.eval_exact({"alpha": alpha}) * d**degree * ke.denominator
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
