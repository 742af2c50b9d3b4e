"""Maximum-likelihood estimation against closed forms and on-model search.

Optimality checks compare the reported optimum's likelihood against seeded
random points generated directly on the model, so a wrong critical point
cannot pass by having small residuals alone.
"""

import math
import random
from fractions import Fraction

import pytest

from mldeg.mle import (
    CLASS_COMPLEX,
    CLASS_POSITIVE,
    CLASS_REAL,
    CriticalPoint,
    NoPositiveCriticalPointError,
    classify_point,
    likelihood_value,
    maximize_likelihood,
    mle_record,
)
from mldeg.model import EquilibriumConstant, UnsupportedReactionError, build_model
from mldeg.reaction import parse_reaction


def model_of(text, ke):
    return build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))


def bisect_root(f, lo, hi, steps=80):
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2


class TestLikelihoodValue:
    def test_pinned_value(self):
        assert abs(likelihood_value((0.5, 0.5), (1, 1)) - math.log(0.25)) < 1e-12

    def test_scale_invariance(self):
        rng = random.Random(51)
        for _ in range(20):
            p = [rng.uniform(0.1, 2.0) for _ in range(3)]
            u = [rng.randrange(1, 10) for _ in range(3)]
            scaled = [7.5 * c for c in p]
            assert abs(likelihood_value(p, u) - likelihood_value(scaled, u)) < 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            likelihood_value((0.5, -0.5), (1, 1))
        with pytest.raises(ValueError):
            likelihood_value((0.5, 0.5), (1,))
        with pytest.raises(ValueError):
            likelihood_value((0.5, 0.5), (0, 0))


class TestClassification:
    def test_labels(self):
        assert classify_point((0.25, 0.25, 0.5)) == CLASS_POSITIVE
        assert classify_point((1.5, -0.5)) == CLASS_REAL
        assert classify_point((0.5 + 1e-3j, 0.5)) == CLASS_COMPLEX
        # sums away from 1 are real but not simplex points
        assert classify_point((0.2, 0.2)) == CLASS_REAL


class TestPairEstimates:
    def test_unit_pair_closed_form(self):
        for ke in (1, 2, Fraction(1, 2)):
            result = maximize_likelihood(model_of("A <-> B", ke), (3, 5))
            k = float(Fraction(ke))
            expected = (1 / (1 + k), k / (1 + k))
            for got, want in zip(result.optimum.coordinates, expected):
                assert abs(got - want) < 1e-12
            assert result.optimum.classification == CLASS_POSITIVE
            assert result.observed_ml_count == 1

    def test_two_three_pair_matches_bisection(self):
        # the K_e = 1 model is the single positive point (r^3, r^2),
        # r the real root of t^3 + t^2 = 1
        r = bisect_root(lambda t: t ** 3 + t ** 2 - 1, 0.0, 1.0)
        result = maximize_likelihood(model_of("2A <-> 3B", 1), (3, 5))
        assert abs(result.optimum.coordinates[0] - r ** 3) < 1e-9
        assert abs(result.optimum.coordinates[1] - r ** 2) < 1e-9
        assert result.observed_ml_count == 3

    def test_optimum_residuals_small(self):
        result = maximize_likelihood(model_of("A <-> B", 2), (3, 5))
        assert max(result.optimum.residuals) < 1e-12


class TestHardyWeinberg:
    CASES = ((30, 30, 40), (1, 1, 2), (5, 2, 9))

    def test_closed_form(self):
        for u in self.CASES:
            theta = (2 * u[0] + u[2]) / (2 * sum(u))
            expected = (theta ** 2, (1 - theta) ** 2, 2 * theta * (1 - theta))
            result = maximize_likelihood(model_of("A + B <-> 2C", 4), u)
            for got, want in zip(result.optimum.coordinates, expected):
                assert abs(got - want) < 1e-10
            assert result.observed_ml_count == 1

    def test_optimum_beats_on_model_points(self):
        u = (5, 2, 9)
        result = maximize_likelihood(model_of("A + B <-> 2C", 4), u)
        best = likelihood_value(result.optimum.coordinates, u)
        rng = random.Random(52)
        for _ in range(20):
            theta = rng.uniform(0.05, 0.95)
            point = (theta ** 2, (1 - theta) ** 2, 2 * theta * (1 - theta))
            assert likelihood_value(point, u) <= best + 1e-12

    def test_stationarity_determinant_residual(self):
        # third residual entry is the determinant equation of the
        # variety-side critical system
        result = maximize_likelihood(model_of("A + B <-> 2C", 4), (30, 30, 40))
        assert len(result.optimum.residuals) == 3
        assert max(result.optimum.residuals) < 1e-9


class TestConicEstimates:
    def test_generic_conic_count_and_optimality(self):
        u = (2, 3, 5)
        result = maximize_likelihood(model_of("A + B <-> 2C", 5), u)
        assert result.observed_ml_count == 2
        best = likelihood_value(result.optimum.coordinates, u)
        rng = random.Random(53)
        root5 = math.sqrt(5.0)
        for _ in range(20):
            t0, t1 = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            raw = (t0 * t0, t1 * t1, root5 * t0 * t1)
            total = sum(raw)
            point = tuple(c / total for c in raw)
            assert likelihood_value(point, u) <= best + 1e-9

    def test_cubic_route(self):
        result = maximize_likelihood(model_of("A + B <-> 3C", 2), (3, 4, 5))
        assert result.observed_ml_count == 3
        assert result.optimum.classification == CLASS_POSITIVE
        assert max(result.optimum.residuals) < 1e-9


class TestSegre:
    def test_closed_form_exact(self):
        # u = (4,3,2,1), K_e = 2: rows (6,4), columns (5,5), total 10;
        # un-absorbing K_e gives exactly (3/17, 4/17, 6/17, 4/17)
        result = maximize_likelihood(model_of("A + B <-> C + D", 2), (4, 3, 2, 1))
        expected = (3 / 17, 4 / 17, 6 / 17, 4 / 17)
        for got, want in zip(result.optimum.coordinates, expected):
            assert abs(got - want) < 1e-15
        assert result.observed_ml_count == 1
        assert max(result.optimum.residuals) < 1e-12
        assert len(result.caveats) == 3

    def test_unit_ke_exact_and_optimal(self):
        # at K_e = 1 the closed form is the genuine constrained maximizer
        u = (4, 3, 2, 1)
        result = maximize_likelihood(model_of("A + B <-> C + D", 1), u)
        expected = (0.3, 0.2, 0.3, 0.2)
        for got, want in zip(result.optimum.coordinates, expected):
            assert abs(got - want) < 1e-15
        assert len(result.caveats) == 2
        best = likelihood_value(result.optimum.coordinates, u)
        rng = random.Random(54)
        for _ in range(20):
            x, z, t = (rng.uniform(0.1, 1.0) for _ in range(3))
            y = z * t / x
            total = x + y + z + t
            point = (x / total, y / total, z / total, t / total)
            assert likelihood_value(point, u) <= best + 1e-12

    def test_nonunit_ke_reference_form_documented(self):
        # the route keeps the absorbed independence point by design and says
        # so; the Lagrange stationarity condition reduces to
        # (K-1)c^2 - (K(u0+u1)+u2+u3)c + (K*u0*u1 - u2*u3) = 0 with
        # p = ((u0-c)/n, (u1-c)/n, (u2+c)/n, (u3+c)/n), and for K_e != 1
        # that point is strictly better
        u = (4, 3, 2, 1)
        ke = 2.0
        result = maximize_likelihood(model_of("A + B <-> C + D", 2), u)
        assert any("K_e != 1" in text for text in result.caveats)
        qa = ke - 1
        qb = -(ke * (u[0] + u[1]) + u[2] + u[3])
        qc = ke * u[0] * u[1] - u[2] * u[3]
        c = (-qb - math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
        n = sum(u)
        point = ((u[0] - c) / n, (u[1] - c) / n, (u[2] + c) / n, (u[3] + c) / n)
        assert min(point) > 0
        assert abs(ke * point[0] * point[1] - point[2] * point[3]) < 1e-12
        reported = likelihood_value(result.optimum.coordinates, u)
        assert likelihood_value(point, u) > reported + 1e-3


class TestValidation:
    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            maximize_likelihood(model_of("A + B <-> 2C", 4), (0, 1, 1))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximize_likelihood(model_of("A + B <-> 2C", 4), (1, 1))

    def test_generic_ke_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            maximize_likelihood(model_of("A + B <-> 2C", "generic"), (1, 1, 1))

    def test_nonpositive_ke_rejected(self):
        with pytest.raises(ValueError):
            maximize_likelihood(model_of("A + B <-> 2C", 0), (1, 1, 1))
        with pytest.raises(ValueError):
            maximize_likelihood(model_of("A <-> B", -1), (1, 1))

    def test_chain_has_no_route(self):
        with pytest.raises(UnsupportedReactionError):
            maximize_likelihood(
                model_of("A + B + C <-> D + E + F", 2), (1, 1, 1, 1, 1, 1)
            )

    def test_no_positive_point_error_carries_candidates(self):
        from mldeg.mle import _select_optimum

        model = model_of("A <-> B", 2)
        candidate = CriticalPoint((0.5 + 1j, 0.5 - 1j), (0.0, 0.0), CLASS_COMPLEX)
        with pytest.raises(NoPositiveCriticalPointError) as info:
            _select_optimum(model, (1, 1), [candidate])
        assert info.value.candidates == (candidate,)


class TestReporting:
    def test_mle_record_fields(self):
        model = model_of("A + B <-> 2C", 4)
        u = (30, 30, 40)
        record = mle_record(model, u, maximize_likelihood(model, u))
        assert record["reaction"] == "A + B <-> 2C"
        assert record["ke"] == "4"
        assert record["u"] == [30, 30, 40]
        assert record["optimum"] == ["0.25", "0.25", "0.5"]
        assert record["observed_ml_count"] == 1
        assert record["residual_max"] < 1e-9
        assert isinstance(record["caveats"], list)


class TestUScalingInvariance:
    def test_optimum_invariant_across_shapes(self):
        cases = (
            ("A <-> B", 2, (3, 5)),
            ("A + B <-> 2C", 5, (2, 3, 5)),
            ("A + B <-> C + D", 2, (4, 3, 2, 1)),
        )
        for text, ke, u in cases:
            base = maximize_likelihood(model_of(text, ke), u).optimum.coordinates
            for scale in (2, 3, 7):
                scaled_u = tuple(scale * c for c in u)
                got = maximize_likelihood(model_of(text, ke), scaled_u).optimum.coordinates
                for a, b in zip(base, got):
                    assert abs(a - b) < 1e-10
