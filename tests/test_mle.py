"""Maximum-likelihood estimation against closed forms and on-model search.

Optimality checks compare the reported optimum's likelihood against seeded
random points generated directly on the model, so a wrong critical point
cannot pass by having small residuals alone.
"""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mldeg import cli
from mldeg import mle as mle_module
from mldeg.critical import faithful_report
from mldeg.mle import likelihood_value, maximize_likelihood, mle_record
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly
from mldeg.reaction import parse_reaction


# Without a bytecode cache (PYTHONDONTWRITEBYTECODE) every mle-ladder pass
# compiles mle.py, the largest engine module, from source in its set-up.
# The pin bounds its syntax tree, not that compile's peak memory, which
# grows with the parser's token count (printed by CI's size step) and not
# with the node count; keep the tree no larger than it is.
MLE_AST_NODE_BUDGET = 2998


def test_mle_module_stays_within_its_ast_node_budget():
    src = Path(mle_module.__file__).read_text(encoding="utf-8")
    assert sum(1 for _ in ast.walk(ast.parse(src))) <= MLE_AST_NODE_BUDGET


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
        # a NaN passes c <= 0, and an infinity gives inf - inf: both would
        # return nan
        for point in ((0.5, -0.5), (math.nan, 0.5), (math.inf, 0.5)):
            with pytest.raises(ValueError,
                               match="^likelihood needs strictly positive coordinates$"):
                likelihood_value(point, (1, 1))

    @pytest.mark.parametrize("counts, message", [
        ((1, -1), "counts must be nonnegative"),
        ((0, 0), "sample size must be positive"),
        ((1,), "got 1 counts for 2 species"),
        ((1.5, 2), "counts must be integers"),
        ((Fraction(1, 2), 2), "counts must be integers"),
        ((math.nan, 2), "counts must be integers"),
        ((math.inf, 2), "counts must be integers"),
    ])
    def test_counts_checked_as_every_route_checks_them(self, counts, message):
        # model.checked_counts, with one count per coordinate of the point
        with pytest.raises(ValueError, match=f"^{message}$"):
            likelihood_value((0.5, 0.5), counts)


class TestPairEstimates:
    def test_unit_pair_closed_form(self):
        for ke in (1, 2, Fraction(1, 2)):
            result = maximize_likelihood(model_of("A <-> B", ke), (3, 5))
            k = float(Fraction(ke))
            expected = (1 / (1 + k), k / (1 + k))
            for got, want in zip(result.optimum.coordinates, expected):
                assert abs(got - want) < 1e-12
            assert min(result.optimum.coordinates) > 0
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
        # residuals of the model equation and of the simplex constraint
        result = maximize_likelihood(model_of("A + B <-> 2C", 4), (30, 30, 40))
        assert len(result.optimum.residuals) == 2
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

    def test_count_drops_at_nongeneric_counts(self):
        # at u0 = u1 + u2 (A + 2B <-> C) and 2 u0 = u1 + u2 (A + 3B <-> C) a
        # root of the extent polynomial sits where w0 and beta both vanish;
        # the numeric variety route counts the same
        for text, u, count in (("A + 2B <-> C", (11, 2, 9), 2),
                               ("A + 2B <-> C", (11, 3, 9), 3),
                               ("A + 3B <-> C", (55, 60, 50), 3)):
            assert maximize_likelihood(model_of(text, "7/3"), u).observed_ml_count == count

    def test_cubic_route(self):
        result = maximize_likelihood(model_of("A + B <-> 3C", 2), (3, 4, 5))
        assert result.observed_ml_count == 3
        assert min(result.optimum.coordinates) > 0
        assert max(result.optimum.residuals) < 1e-9


class TestSegre:
    @staticmethod
    def lagrange_point(u, ke):
        # with p = ((u0-c)/n, (u1-c)/n, (u2+c)/n, (u3+c)/n) the stationarity
        # condition is (K-1)c^2 - (K(u0+u1)+u2+u3)c + (K*u0*u1 - u2*u3) = 0;
        # the root with every coordinate positive is the maximiser
        qa = ke - 1
        qb = -(ke * (u[0] + u[1]) + u[2] + u[3])
        qc = ke * u[0] * u[1] - u[2] * u[3]
        c = (-qb - math.sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
        n = sum(u)
        return ((u[0] - c) / n, (u[1] - c) / n, (u[2] + c) / n, (u[3] + c) / n)

    def test_closed_form_exact(self):
        u = (4, 3, 2, 1)
        result = maximize_likelihood(model_of("A + B <-> C + D", 2), u)
        expected = self.lagrange_point(u, 2.0)
        assert min(expected) > 0
        assert abs(2 * expected[0] * expected[1] - expected[2] * expected[3]) < 1e-12
        for got, want in zip(result.optimum.coordinates, expected):
            assert abs(got - want) < 1e-15
        assert result.observed_ml_count == 2
        assert max(result.optimum.residuals) < 1e-12

    def test_unit_ke_exact_and_optimal(self):
        # at K_e = 1 the quadratic is linear and the maximiser is the
        # independence point of the 2x2 table
        u = (4, 3, 2, 1)
        result = maximize_likelihood(model_of("A + B <-> C + D", 1), u)
        expected = (0.3, 0.2, 0.3, 0.2)
        for got, want in zip(result.optimum.coordinates, expected):
            assert abs(got - want) < 1e-15
        assert result.observed_ml_count == 1
        best = likelihood_value(result.optimum.coordinates, u)
        rng = random.Random(54)
        for _ in range(20):
            x, z, t = (rng.uniform(0.1, 1.0) for _ in range(3))
            y = z * t / x
            total = x + y + z + t
            point = (x / total, y / total, z / total, t / total)
            assert likelihood_value(point, u) <= best + 1e-12

    def test_nonunit_ke_optimal(self):
        # the independence point with K_e absorbed into the first entry lies
        # on the model but is not the maximiser for K_e != 1
        u = (3, 5, 7, 11)
        result = maximize_likelihood(model_of("A + B <-> C + D", 2), u)
        assert result.observed_ml_count == 2
        best = likelihood_value(result.optimum.coordinates, u)
        assert abs(best - likelihood_value(self.lagrange_point(u, 2.0), u)) < 1e-12
        assert abs(best - (-33.98194026716)) < 1e-10
        rows, cols, n = (u[0] + u[2], u[3] + u[1]), (u[0] + u[3], u[2] + u[1]), sum(u)
        absorbed = (rows[0] * cols[0] / 2, rows[1] * cols[1], rows[0] * cols[1],
                    rows[1] * cols[0])
        assert likelihood_value(absorbed, u) < best - 0.5
        rng = random.Random(55)
        for _ in range(20):
            x, z, t = (rng.uniform(0.1, 1.0) for _ in range(3))
            point = (x, z * t / (2 * x), z, t)
            assert likelihood_value(point, u) <= best + 1e-12


class TestBisection:
    def test_rounding_tie_ends(self):
        # A + B <-> C with its one root at alpha = 1/3, where the first
        # coordinate (3 u0 - 1) / 2^55 lies halfway between two doubles:
        # the bracket ends are dyadic and never reach 1/3, so the ends round
        # apart forever and only the width bound stops the bisection
        total = (2**55 + 1) // 3
        u0 = (2**54 // 3) & ~1
        u = (u0, (total - u0) // 2, total - u0 - (total - u0) // 2)
        alpha = Fraction(1, 3)
        exact = [(u[0] - alpha) / (total - alpha), (u[1] - alpha) / (total - alpha),
                 (u[2] + alpha) / (total - alpha)]
        assert exact[0].denominator == 2**55 and exact[0].numerator % 2 == 1
        ke = exact[2] / (exact[0] * exact[1])
        result = maximize_likelihood(model_of("A + B <-> C", ke), u)
        for got, want in zip(result.optimum.coordinates, exact):
            assert abs(got - want) <= math.ulp(float(want))


class TestModelUse:
    @pytest.mark.parametrize("text, u", [("N2 + 3H2 <-> 2NH3", (13, 29, 41)),
                                         ("7A + 9B <-> 11C", (13, 29, 41)),
                                         ("2A <-> 3B", (5, 8)),
                                         ("A + B <-> C + D", (3, 5, 7, 11))])
    def test_estimate_never_builds_f_hom(self, monkeypatch, text, u):
        # F_hom takes powers of L = sum of species variables; the estimate
        # reads the stoichiometry and K_e only
        def refuse(*args):
            raise AssertionError("polynomial power in mle")

        monkeypatch.setattr(MPoly, "__pow__", refuse)
        model = model_of(text, "7/3")
        maximize_likelihood(model, u)
        assert "F_hom" not in vars(model)

    @pytest.mark.parametrize("text, u", [("N2 + 3H2 <-> 2NH3", (13, 29, 41)),
                                         ("2A <-> 3B", (5, 8)),
                                         ("A + B <-> C + D + E", (3, 5, 7, 11, 13)),
                                         ("A + B + C <-> D + E + F", (1, 2, 3, 4, 5, 6))])
    def test_estimate_builds_no_polynomial(self, monkeypatch, text, u):
        # the model and the estimate together construct no MPoly: the residual
        # comes from the stoichiometry, and F_affine and the constraint are
        # left unbuilt
        def refuse(*args):
            raise AssertionError("polynomial in mle")

        monkeypatch.setattr(MPoly, "__init__", refuse)
        model = model_of(text, "7/3")
        result = maximize_likelihood(model, u)
        assert result.observed_ml_count >= 1
        assert not {"F_affine", "constraint", "F_hom"} & set(vars(model))


class TestValidation:
    def test_zero_count_rejected(self):
        # well-formed counts with no estimate: a zero among positive ones
        with pytest.raises(mle_module.NoEstimateError,
                           match="^observation counts must be positive in numeric paths$"):
            maximize_likelihood(model_of("A + B <-> 2C", 4), (0, 1, 1))

    def test_fractional_count_rejected(self):
        # truncating 2.5 to 2 would answer for other data
        model = model_of("A + B <-> 2C", 4)
        for u in ((2.5, 3, 4), (Fraction(5, 2), 3, 4)):
            with pytest.raises(ValueError, match="^counts must be integers$"):
                maximize_likelihood(model, u)
        whole = maximize_likelihood(model, (2.0, Fraction(6, 2), 4))
        assert whole == maximize_likelihood(model, (2, 3, 4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^got 2 counts for 3 species$"):
            maximize_likelihood(model_of("A + B <-> 2C", 4), (1, 1))

    @pytest.mark.parametrize("u, message", [
        ((1.5, 2, 3), "counts must be integers"),
        ((math.nan, 2, 3), "counts must be integers"),
        ((math.inf, 2, 3), "counts must be integers"),
        ((-math.inf, 2, 3), "counts must be integers"),
        ((-1, 2, 3), "counts must be nonnegative"),
        ((0, 0, 0), "sample size must be positive"),
        ((0, 0), "sample size must be positive"),
        ((1, 2), "got 2 counts for 3 species"),
    ])
    def test_count_faults_as_the_faithful_route_words_them(self, u, message):
        # model.checked_counts, in its order, at either route: malformed
        # input, a plain ValueError, not NoEstimateError; int() alone would
        # raise its own ValueError on a NaN and an OverflowError, which the
        # CLI words as a numeric failure, on an infinity
        model = model_of("A + B <-> 2C", 4)
        for route in (maximize_likelihood, faithful_report):
            with pytest.raises(ValueError, match=f"^{message}$") as error:
                route(model, u)
            assert type(error.value) is ValueError

    def test_generic_ke_rejected(self):
        with pytest.raises(ValueError, match="numeric"):
            maximize_likelihood(model_of("A + B <-> 2C", "generic"), (1, 1, 1))

    def test_nonpositive_ke_rejected(self):
        with pytest.raises(ValueError):
            maximize_likelihood(model_of("A + B <-> 2C", 0), (1, 1, 1))
        with pytest.raises(ValueError):
            maximize_likelihood(model_of("A <-> B", -1), (1, 1))

    def test_count_beyond_floats_named(self):
        # the log likelihood has no float value; the digits of a count past
        # the int-to-str limit are counted too
        model = model_of("A + B <-> 2C", "11/13")
        for u, message in (((1, 10**400, 2), "count 2 (401 digits)"),
                           ((10**5000, 1, 2), "count 1 (5001 digits)")):
            with pytest.raises(OverflowError) as error:
                maximize_likelihood(model, u)
            assert str(error.value) == (f"{message} is beyond the float range, "
                                        "so the log likelihood has no float value")

    def test_count_past_digit_limit_named(self, capsys):
        # --counts reads at most 4300 digits a count, int()'s default limit:
        # a longer count is named by its place, with none of its digits
        argv = ["mle", "A + B <-> 2C", "--ke", "11/13", "--counts"]
        for counts, place in ((["7" * 4401] * 3, 1), (["3", "+" + "0" * 4301, "5"], 2)):
            assert cli.main(argv + [",".join(counts)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.endswith(f"\nmldeg mle: error: argument --counts: "
                                              f"count {place} is longer than 4300 digits\n")
        # 4300 digits are read: the count then has no float value
        assert cli.main(argv + ["1," + "9" * 4300 + ",2"]) == 5
        assert capsys.readouterr().err.startswith("numeric failure: count 2 (4300 digits)")


class TestChain:
    def test_estimate_and_count(self):
        # by symmetry the optimum at u = 1 is (a, a, a, b, b, b) with
        # 3a + 3b = 1 and 2 a^3 = b^3
        u = (1, 1, 1, 1, 1, 1)
        result = maximize_likelihood(model_of("A + B + C <-> D + E + F", 2), u)
        a = 1 / (3 * (1 + 2 ** (1 / 3)))
        expected = (a,) * 3 + ((1 - 3 * a) / 3,) * 3
        for got, want in zip(result.optimum.coordinates, expected):
            assert abs(got - want) < 1e-15
        assert result.observed_ml_count == 3


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
