"""Seeded property tests of the extent-line MLE (hypothesis, derandomized).

The extent count is checked against the numeric variety route, which stays
as an independent reference; the optimum against the scale of the counts;
and the estimate against every shape a single reaction can take.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from mldeg.curve import count_critical_points_variety, curve_from_model
from mldeg.mle import _extent_polynomial, maximize_likelihood
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import squarefree_decomposition
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


def is_generic(ke, c, u):
    """The extent polynomial has simple roots, none on w_i = 0 or beta = 0."""
    q = _extent_polynomial(ke, c, u)
    if any(k > 1 for _, k in squarefree_decomposition(q, "alpha")):
        return False
    walls = [Fraction(ui, ci) for ui, ci in zip(u, c)]
    if sum(c):
        walls.append(Fraction(sum(u), sum(c)))
    return all(q.eval_exact({"alpha": a}) != 0 for a in walls)


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
    reaction = model.reaction
    c = [t.coefficient for t in reaction.reactants] + [-t.coefficient for t in reaction.products]
    assert abs(math.log(ke) + sum(ci * math.log(pi) for ci, pi in zip(c, p))) < 1e-10
    assert result.all_critical_points == (result.optimum,)
    assert 1 <= result.observed_ml_count <= max(sum(k for k in c if k > 0),
                                                -sum(k for k in c if k < 0))
