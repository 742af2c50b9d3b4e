"""Critical systems, resultant elimination, and parameter-space counts.

Pinned eliminants for the (1,2,1), (2,2,2), and (3,3,3) two-one systems are
spelled out term by term from the Lagrange derivation, so the elimination
pipeline is checked against hand-expanded forms, not against itself.
"""

import random
import sys
from fractions import Fraction

import pytest

from mldeg import critical
from mldeg.catalog import load_catalog
from mldeg.critical import (
    DegenerateEliminationError,
    ObservationCounts,
    build_critical_system,
    eliminate,
    faithful_report,
)
from mldeg.model import (
    EquilibriumConstant,
    ReactionShape,
    build_model,
    build_parameterization,
    classify_shape,
    reduce_radical,
)
from mldeg.poly import MPoly, gcd_degree_in
from mldeg.reaction import format_reaction, parse_reaction

from reference import determinant_fraction_free, sylvester_matrix


def system_for(text, ke="generic", counts=None):
    model = build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))
    monomial_map = build_parameterization(model)
    if counts is None:
        counts = ObservationCounts.symbolic(len(model.species))
    return build_critical_system(monomial_map, counts)


def count_of(system):
    """Parameter-space count: degree minus valuation of the eliminant."""
    degree, valuation = critical._profile(eliminate(system), system.survivor)
    return degree - valuation


def model_of(text, ke="generic"):
    return build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))


def equal_up_to_scalar(f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    (ef, cf) = f.items()[0]
    (eg, cg) = g.items()[0]
    return ef == eg and f * cg == g * cf


class TestObservationCounts:
    def test_symbolic(self):
        counts = ObservationCounts.symbolic(3)
        assert counts.is_symbolic
        assert counts.symbols() == ("u0", "u1", "u2")
        assert counts.values is None

    def test_numeric(self):
        counts = ObservationCounts.numeric((3, 5, 7))
        assert not counts.is_symbolic
        assert counts.values == (3, 5, 7)

    def test_validation(self):
        with pytest.raises(ValueError):
            ObservationCounts.numeric((1, -1))
        with pytest.raises(ValueError):
            ObservationCounts.numeric((0, 0))
        with pytest.raises(ValueError):
            ObservationCounts.symbolic(0)

    def test_fractional_counts_rejected(self):
        for values in ((2.5, 3, 4), (Fraction(5, 2), 3, 4)):
            with pytest.raises(ValueError, match="integers"):
                ObservationCounts.numeric(values)
        assert ObservationCounts.numeric((2.0, Fraction(6, 2), 4)).values == (2, 3, 4)


class TestSystemConstruction:
    def test_unit_pair_equation(self):
        system = system_for("A <-> B")
        assert len(system.equations) == 1
        assert str(system.equations[0]) == "p0*lam*K_e + p0*lam - u0 - u1"
        assert system.survivor == "p0"

    def test_pair_with_radical(self):
        system = system_for("2A <-> 3B")
        ctx = system.ctx
        p0, lam, s, u0, u1 = (MPoly.var(ctx, n) for n in ("p0", "lam", "s", "u0", "u1"))
        expected = 3 * lam * p0 ** 3 + 2 * lam * s * p0 ** 2 - (3 * u0 + 2 * u1)
        assert system.equations[0] == expected

    def test_two_one_weights(self):
        system = system_for("A + B <-> 2C")
        ctx = system.ctx
        u = [MPoly.var(ctx, f"u{i}") for i in range(3)]
        assert system.weights[0] == 2 * u[0] + u[2]
        assert system.weights[1] == 2 * u[1] + u[2]
        assert system.survivor == "t1"

    def test_numeric_counts_become_constants(self):
        system = system_for("A + B <-> 2C", "5", ObservationCounts.numeric((2, 3, 5)))
        assert system.weights[0].is_constant()
        assert system.weights[0].constant_value() == 2 * 2 + 5

    def test_count_size_mismatch(self):
        monomial_map = build_parameterization(model_of("A + B <-> 2C"))
        with pytest.raises(ValueError):
            build_critical_system(monomial_map, ObservationCounts.symbolic(2))

    def test_lagrange_structure(self):
        # f_i = lam * t_i * dg/dt_i - w_i, checked against a manual rebuild
        system = system_for("A + B <-> 3C", "1")
        ctx = system.ctx
        lam = MPoly.var(ctx, "lam")
        g = system.constraint_pullback
        for t_name, eq, w in zip(("t0", "t1"), system.equations, system.weights):
            t = MPoly.var(ctx, t_name)
            assert eq == lam * t * g.partial_derivative(t_name) - w


class TestPinnedEliminants:
    def test_unit_pair_eliminant_is_the_single_equation(self):
        system = system_for("A <-> B")
        assert eliminate(system) == system.equations[0]
        assert count_of(system) == 1

    def test_one_two_one_printed_form(self):
        # A + 2B <-> C at K_e = 1: the 2x2 Sylvester resultant expands to
        # lam^2*t1 + lam*b + lam^2*t1^3 + lam*t1^2*b - 2a*lam*t1^2
        # with a = -(u0 + u2), b = -(u1 + 2u2)
        system = system_for("A + 2B <-> C", "1")
        ctx = system.ctx
        lam = MPoly.var(ctx, "lam")
        t1 = MPoly.var(ctx, "t1")
        a = -system.weights[0]
        b = -system.weights[1]
        printed = (
            lam ** 2 * t1 + lam * b + lam ** 2 * t1 ** 3
            + lam * t1 ** 2 * b - 2 * a * lam * t1 ** 2
        )
        eliminant = eliminate(system)
        assert eliminant == printed
        assert eliminant.degree_in("t1") == 3
        assert eliminant.valuation_in("t1") == 0
        assert count_of(system) == 3

    def test_two_two_two_printed_form(self):
        # 2A + 2B <-> 2C at K_e = 1, fourteen printed terms
        system = system_for("2A + 2B <-> 2C", "1")
        ctx = system.ctx
        lam = MPoly.var(ctx, "lam")
        t1 = MPoly.var(ctx, "t1")
        a = -system.weights[0]
        b = -system.weights[1]
        printed = (
            16 * lam ** 4 * t1 ** 4 + 16 * lam ** 3 * t1 ** 2 * b
            + 4 * lam ** 2 * b ** 2 + 32 * lam ** 4 * t1 ** 6
            + 32 * lam ** 3 * t1 ** 4 * b + 8 * lam ** 2 * t1 ** 2 * b ** 2
            - 16 * lam ** 3 * t1 ** 4 * a - 8 * lam ** 2 * t1 ** 2 * a * b
            + 16 * lam ** 4 * t1 ** 8 + 16 * lam ** 3 * t1 ** 6 * b
            + 4 * lam ** 2 * t1 ** 4 * b ** 2 - 16 * lam ** 3 * t1 ** 6 * a
            - 8 * lam ** 2 * t1 ** 4 * a * b + 4 * lam ** 2 * t1 ** 4 * a ** 2
        )
        assert equal_up_to_scalar(eliminate(system), printed)
        assert count_of(system) == 8

    def test_three_three_three_printed_cube(self):
        system = system_for("3A + 3B <-> 3C", "1")
        ctx = system.ctx
        lam = MPoly.var(ctx, "lam")
        t1 = MPoly.var(ctx, "t1")
        a = -system.weights[0]
        b = -system.weights[1]
        inner = (
            9 * lam ** 2 * t1 ** 3 + 3 * lam * b + 9 * lam ** 2 * t1 ** 6
            + 3 * lam * t1 ** 3 * b - 3 * a * lam * t1 ** 3
        )
        eliminant = eliminate(system)
        assert equal_up_to_scalar(eliminant, inner ** 3)
        assert eliminant.degree_in("t1") == 18
        assert eliminant.valuation_in("t1") == 0

    @staticmethod
    def broken(system):
        t0 = MPoly.var(system.ctx, "t0")
        t1 = MPoly.var(system.ctx, "t1")
        return system._replace(equations=(t0 * t1, t0 * (t1 + 1)))

    def test_degenerate_elimination_reported(self):
        # hand-built equations without the weight terms: with numeric counts
        # they are eliminated as given
        system = system_for("A + B <-> 2C", "5", ObservationCounts.numeric((3, 5, 7)))
        with pytest.raises(DegenerateEliminationError) as info:
            eliminate(self.broken(system))
        assert info.value.variable == "t0"
        assert info.value.gcd_degree == 1
        assert "share a factor" in str(info.value)
        # with symbolic counts the equations over w0, w1 are built from
        # f_i + weights[i], which here still holds the counts
        with pytest.raises(ValueError, match="'u0'"):
            eliminate(self.broken(system_for("A + B <-> 2C", "5")))


class TestWeightSymbolElimination:
    """eliminate takes the two-one resultant over the weight symbols w0, w1
    and substitutes the weights back; the eliminant must be the polynomial
    that Bareiss gives over the count symbols u0, u1, u2."""

    RUNGS = (
        "A + B <-> 3C", "2A + 3B <-> 4C", "3A + 2B <-> 4C",
        "3A + 4B <-> 5C", "2A + 2B <-> 2C", "3A + 3B <-> 3C",
    )
    CASES = (
        [(text, "generic") for text in RUNGS]
        + [(text, "23/71") for text in RUNGS]  # radical s
        + [("A + B <-> 3C", "8"), ("A + B <-> 2C", "4")]  # exact roots
    )

    @pytest.mark.parametrize("text, ke", CASES)
    def test_equals_bareiss_over_the_counts(self, text, ke):
        system = system_for(text, ke)
        f0, f1 = system.equations
        reference = reduce_radical(
            determinant_fraction_free(sylvester_matrix(f0, f1, "t0")),
            system.monomial_map.radical,
        )
        eliminant = eliminate(system)
        assert eliminant.ctx == system.ctx
        assert eliminant == reference

    @pytest.mark.parametrize("text, ke", CASES)
    def test_weight_equations_built_without_a_change_of_variables(
        self, monkeypatch, text, ke
    ):
        # f_i + weights[i] holds no count, so the equations over w0, w1 are
        # cast and shifted, with no substitution of the weights for u0, u1
        system = system_for(text, ke)

        def refuse(*args, **kwargs):
            raise AssertionError("the weight equations went through a ring map")

        for name in ("substitute", "compose", "_mapped"):
            monkeypatch.setattr(MPoly, name, refuse)
        eliminant = critical._weight_eliminant(system)
        assert eliminant.ctx.names == system.ctx.drop(("u0", "u1")).names + ("w0", "w1")

    @pytest.mark.parametrize("ke", ["generic", "23/71"])
    def test_resultant_never_sees_u0_or_u1(self, monkeypatch, ke):
        calls = []
        real = critical._two_one_resultant

        def spy(f, g):
            calls.append((f, g))
            return real(f, g)

        monkeypatch.setattr(critical, "_two_one_resultant", spy)
        eliminate(system_for("2A + 3B <-> 4C", ke))
        assert len(calls) == 1
        for f in calls[0]:
            assert not any(u in f.ctx and f.uses(u) for u in ("u0", "u1", "u2"))
        f0, f1 = calls[0]
        assert f0.uses("w0") and f1.uses("w1")


class TestTwoOneClosedForm:
    """_two_one_resultant gives Res(f0, f1, t0) in closed form; it must be
    the Sylvester determinant that Bareiss gives, sign included, and the
    faithful route must build no Sylvester matrix at all."""

    # every nA + mB <-> pC with n, m, p <= 5: n = p, n > p, n | p and
    # gcd(n, p) > 1 all occur
    RUNGS = tuple(
        f"{n}A + {m}B <-> {p}C"
        for n in range(1, 6) for m in range(1, 6) for p in range(1, 6)
    )
    # generic, a radical s (23/71), and exact roots of both signs
    KES = ("generic", "23/71", "8", "4", "27", "-27/4")

    @pytest.mark.parametrize("text", RUNGS)
    def test_equals_bareiss_on_the_sylvester_matrix(self, monkeypatch, text):
        rng = random.Random(text)
        calls = []
        real = critical._two_one_resultant
        monkeypatch.setattr(
            critical, "_two_one_resultant",
            lambda f, g: calls.append((f, g)) or real(f, g),
        )
        all_counts = (
            ObservationCounts.symbolic(3),
            ObservationCounts.numeric(rng.randint(1, 60) for _ in range(3)),
            ObservationCounts.numeric((0, rng.randint(1, 60), 0)),  # w0 = 0
        )
        for ke in self.KES:
            for counts in all_counts:
                system = system_for(text, ke, counts)
                calls.clear()
                try:
                    eliminant = critical._weight_eliminant(system)
                except DegenerateEliminationError:
                    eliminant = None
                [(f0, f1)] = calls
                reference = determinant_fraction_free(sylvester_matrix(f0, f1, "t0"))
                assert real(f0, f1) == reference, (ke, counts)
                reduced = reduce_radical(reference, system.monomial_map.radical)
                assert eliminant == (None if reduced.is_zero() else reduced), (ke, counts)

    def test_other_shapes_are_refused(self):
        system = system_for("2A + 3B <-> 4C")
        f0, f1 = system.equations
        t0 = MPoly.var(system.ctx, "t0")
        for g0, g1 in ((f0, f1 + t0), (f0 + t0 ** 7, f1), (f0 + t0, f1),
                       (f0, f1 - f1), (f1, f0)):
            with pytest.raises(AssertionError, match="expected f0"):
                critical._two_one_resultant(g0, g1)

    # the benchmark's count-ladder rungs
    COUNT_LADDER = (
        "A + B <-> 2C", "2A + B <-> 3C", "2A + 3B <-> 4C", "3A + 4B <-> 5C",
        "4A + 5B <-> 7C", "2A <-> 3B", "A + B <-> 3C", "A + 2B <-> C",
        "3A + 2B <-> 4C", "3A + 5B <-> 7C", "5A + 7B <-> 9C", "3A <-> 5B",
    )

    def test_faithful_route_runs_no_bareiss(self, monkeypatch):
        cases = [(text, ke) for text in self.COUNT_LADDER for ke in ("generic", "29/73")]
        cases += [
            (entry.reaction_text, ke)
            for entry in load_catalog()
            if classify_shape(parse_reaction(entry.reaction_text)) is ReactionShape.TWO_ONE
            for ke in ("generic", entry.ke_spec)
        ]
        want = [faithful_report(model_of(text, ke)) for text, ke in cases]

        def refuse(*args):
            raise AssertionError("the faithful route reached a Sylvester determinant")

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "mldeg":
                if hasattr(module, "resultant"):
                    monkeypatch.setattr(module, "resultant", refuse)
        got = [faithful_report(model_of(text, ke)) for text, ke in cases]
        assert got == want
        assert [r.eliminant for r in got] == [r.eliminant for r in want]


class TestSpecialisation:
    """At numeric K_e, faithful_report reads the eliminant off the generic
    one (K_e -> value, s -> an exact root) instead of eliminating again; it
    must be the polynomial that eliminating the numeric system gives."""

    RUNGS = tuple(
        f"{n}A + {m}B <-> {p}C"
        for n in range(1, 4) for m in range(1, 4) for p in range(1, 5)
    ) + ("A <-> B", "2A <-> 3B", "3A <-> 2B", "A + B + C <-> D + E + F")
    # exact square, cube and fourth roots of both signs, radicals, and K_e = 1
    KES = ("4", "8", "27", "-1", "-27/4", "-8", "16/81", "1/4",
           "1", "2", "81", "23/71", "7/3", "-1/8")

    @staticmethod
    def counts_for(text, numeric):
        size = len(parse_reaction(text).species)
        if numeric:
            return ObservationCounts.numeric((13, 29, 41, 5, 7, 11)[:size])
        return ObservationCounts.symbolic(size)

    @pytest.mark.parametrize("numeric", [False, True], ids=["symbolic", "numeric"])
    @pytest.mark.parametrize("text", RUNGS)
    def test_equals_elimination_of_the_numeric_system(self, text, numeric):
        counts = self.counts_for(text, numeric)
        generic_system = system_for(text, "generic", counts)
        generic = eliminate(generic_system)
        for ke in self.KES:
            system = system_for(text, ke, counts)
            got = critical._specialise(generic_system, Fraction(ke), generic)
            assert got.ctx == system.ctx, ke
            assert got == eliminate(system), ke

    def test_zero_specialisation_reported_like_eliminate(self, monkeypatch):
        # a generic eliminant with the factor K_e - 4 specialises to zero at
        # K_e = 4; the report names the numeric system's shared factor
        real, real_gcd, gcd_calls = critical._weight_eliminant, critical.gcd_degree_in, []

        def with_factor(system):
            eliminant = real(system)
            return (MPoly.var(eliminant.ctx, "K_e") - 4) * eliminant

        monkeypatch.setattr(critical, "_weight_eliminant", with_factor)
        monkeypatch.setattr(
            critical, "gcd_degree_in",
            lambda *args: gcd_calls.append(args) or real_gcd(*args),
        )
        report = faithful_report(model_of("A + B <-> 2C", "4"))
        monkeypatch.undo()
        system = system_for("A + B <-> 2C", "4")
        first, last = system.equations[0], system.equations[-1]
        assert gcd_calls == [(first, last, "t0")]
        assert report.degeneracy
        assert report.parameter_space_count is None
        assert report.eliminant is None
        assert report.generic_parameter_space_count == 4
        assert report.degeneracy_description == str(
            DegenerateEliminationError("t0", gcd_degree_in(first, last, "t0"))
        )

    @pytest.mark.parametrize("text, ke", [
        ("A + B <-> 2C", "4"), ("2A + B <-> 3C", "-27/4"), ("2A <-> 3B", "23/71"),
    ])
    def test_numeric_report_builds_one_map_and_one_system(self, monkeypatch, text, ke):
        maps, systems = [], []
        real_map, real_system = critical.build_parameterization, critical.build_critical_system
        monkeypatch.setattr(
            critical, "build_parameterization",
            lambda model: maps.append(model) or real_map(model),
        )
        monkeypatch.setattr(
            critical, "build_critical_system",
            lambda monomial_map, counts: systems.append(monomial_map)
            or real_system(monomial_map, counts),
        )
        faithful_report(model_of(text, ke))
        assert len(maps) == 1 and maps[0].ke.is_generic
        assert len(systems) == 1 and "K_e" in systems[0].ctx

    @pytest.mark.parametrize("text, ke, numeric", [
        ("5A + 7B <-> 9C", "23/71", False),
        ("2A + B <-> 3C", "-27/4", False),
        ("A + B <-> 2C", "4", False),
        ("3A + 2B <-> 4C", "8", True),
        ("2A <-> 3B", "-8", False),
    ])
    def test_numeric_report_eliminates_once(self, monkeypatch, text, ke, numeric):
        counts = self.counts_for(text, numeric)
        calls = []
        real = critical._weight_eliminant
        monkeypatch.setattr(
            critical, "_weight_eliminant",
            lambda system: calls.append(system) or real(system),
        )
        report = faithful_report(model_of(text, ke), counts)
        assert len(calls) == 1
        assert calls[0].ctx == system_for(text, "generic", counts).ctx
        monkeypatch.undo()
        assert report.eliminant == eliminate(system_for(text, ke, counts))
        assert report.generic_parameter_space_count == count_of(
            system_for(text, "generic", counts)
        )


class TestWeightCoordinateReading:
    """faithful_report counts, profiles and specialises the eliminant in the
    weight coordinates w0, w1 and expands it over the counts only when
    .eliminant is read.  w0, w1 are independent linear forms in u0, u1, u2,
    so every number read in weights must be the one read off eliminate on
    the system at that K_e."""

    LADDER = (
        "A + B <-> 2C", "2A + B <-> 3C", "2A + 3B <-> 4C", "3A + 4B <-> 5C",
        "4A + 5B <-> 7C", "2A <-> 3B", "A + B <-> 3C", "A + 2B <-> C",
        "3A + 2B <-> 4C", "3A + 5B <-> 7C", "5A + 7B <-> 9C", "3A <-> 5B",
    )
    TWO_ONE = tuple(
        f"{n}A + {m}B <-> {p}C"
        for n in range(1, 5) for m in range(1, 5) for p in range(1, 5)
    )
    CATALOG = tuple(dict.fromkeys(entry.reaction_text for entry in load_catalog()))
    REACTIONS = tuple(dict.fromkeys(
        format_reaction(parse_reaction(text)) for text in TWO_ONE + LADDER + CATALOG
    ))
    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)

    @staticmethod
    def exceptional_ke(text):
        """K_e* = S^S * prod c_i^(-c_i), with 0^0 = 1."""
        c = parse_reaction(text).stoichiometry
        value = Fraction(sum(c)) ** sum(c)
        for ci in c:
            value *= Fraction(ci) ** -ci
        return value

    @classmethod
    def kes(cls, text):
        rng = random.Random(text)
        kes = ["generic"] + [
            str(rng.choice((1, -1)) * Fraction(*rng.sample(cls.PRIMES, 2)))
            for _ in range(2)
        ]
        if cls.exceptional_ke(text):
            kes.append(str(cls.exceptional_ke(text)))
        kes.extend(e.ke_spec for e in load_catalog() if e.reaction_text == text)
        return tuple(dict.fromkeys(kes))

    @staticmethod
    def read_off(text, ke):
        """(eliminant, count, degree, valuation) of eliminate at K_e; all
        None for a degenerate system."""
        system = system_for(text, ke)
        try:
            eliminant = eliminate(system)
        except DegenerateEliminationError:
            return None, None, None, None
        degree, valuation = critical._profile(eliminant, system.survivor)
        return eliminant, degree - valuation, degree, valuation

    @pytest.mark.parametrize("text", REACTIONS)
    def test_report_equals_reading_off_eliminate(self, text):
        if classify_shape(parse_reaction(text)) is ReactionShape.SEGRE:
            assert faithful_report(model_of(text)).eliminant is None
            return
        generic_count = self.read_off(text, "generic")[1]
        for ke in self.kes(text):
            report = faithful_report(model_of(text, ke))
            if ke == "0":
                assert report.eliminant is None
                continue
            eliminant, count, degree, valuation = self.read_off(text, ke)
            assert report.parameter_space_count == count, ke
            assert report.eliminant_degree == degree, ke
            assert report.eliminant_valuation == valuation, ke
            assert report.generic_parameter_space_count == generic_count, ke
            assert report.degeneracy == (count is None or count < generic_count), ke
            assert report.eliminant == eliminant, ke

    def test_exceptional_ke_examples(self):
        assert self.exceptional_ke("A + B <-> 2C") == 4
        assert self.exceptional_ke("A + B <-> 3C") == 27

    @pytest.mark.parametrize("ke", ["generic", "23/71"])
    def test_report_expands_only_when_read(self, monkeypatch, ke):
        calls = []
        real = critical._to_counts
        monkeypatch.setattr(
            critical, "_to_counts", lambda *args: calls.append(args) or real(*args)
        )
        report = faithful_report(model_of("2A + 3B <-> 4C", ke))
        assert calls == [] and "eliminant" not in vars(report)
        first = report.eliminant
        assert report.eliminant is first and len(calls) == 1
        assert first == eliminate(system_for("2A + 3B <-> 4C", ke))


class TestFaithfulCounts:
    # (reaction, ke, parameter count, fiber degree, variety quotient)
    TABLE = [
        ("A <-> B", "generic", 1, 1, 1),
        ("A <-> B", "-1", 0, 1, 0),
        ("A + B <-> 2C", "generic", 4, 2, 2),
        ("A + B <-> 2C", "4", 2, 2, 1),
        ("2A <-> 2B", "generic", 1, 1, 1),
        ("3A <-> 3B", "generic", 1, 1, 1),
        ("2A <-> 3B", "generic", 3, 1, 3),
        ("A + B <-> 3C", "generic", 9, 3, 3),
        ("2A + 2B <-> 2C", "generic", 8, 4, 2),
        ("2A + 2B <-> C", "generic", 4, 1, 4),
        ("A + 2B <-> C", "generic", 3, 1, 3),
        ("3A + 3B <-> 3C", "generic", 18, 9, 2),
        ("N2 + 3H2 <-> 2NH3", "generic", 8, 2, 4),
        ("A + B + C <-> D + E + F", "generic", 1, 1, 1),
    ]

    @pytest.mark.parametrize("text, ke, count, fiber, quotient", TABLE)
    def test_parameter_space_counts(self, text, ke, count, fiber, quotient):
        report = faithful_report(model_of(text, ke))
        assert report.parameter_space_count == count
        assert report.fiber_degree == fiber
        assert report.variety_count_quotient == quotient

    def test_segre_closed_form_entry(self):
        report = faithful_report(model_of("A + B <-> C + D"))
        assert report.parameter_space_count == 1
        assert report.fiber_degree is None
        assert report.eliminant is None
        assert any("closed-form" in c for c in report.caveats)

    def test_ke_zero_collapses(self):
        report = faithful_report(model_of("A + B <-> 2C", "0"))
        assert report.parameter_space_count == 0
        assert report.degeneracy
        assert "drops" in report.degeneracy_description

    def test_degenerate_square_ke_detected(self):
        report = faithful_report(model_of("A + B <-> 2C", "4"))
        assert report.degeneracy
        assert "from 4 to 2" in report.degeneracy_description
        assert report.generic_parameter_space_count == 4

    def test_ordinary_ke_not_degenerate(self):
        report = faithful_report(model_of("A + B <-> 2C", "5"))
        assert not report.degeneracy
        assert report.parameter_space_count == 4

    def test_negative_pair_ke_degenerate(self):
        # K_e = -1 makes the pullback constraint constant: count drops to 0
        report = faithful_report(model_of("A <-> B", "-1"))
        assert report.degeneracy
        assert report.parameter_space_count == 0
        assert report.generic_parameter_space_count == 1

    def test_negative_cubic_ke_degenerate(self):
        # K_e = -27/4 on 2A + B <-> 3C: radical s^3 = -27/4, count 9 -> 6
        report = faithful_report(model_of("2A + B <-> 3C", "-27/4"))
        assert report.parameter_space_count == 6
        assert report.generic_parameter_space_count == 9
        assert report.degeneracy
        assert report.degeneracy_description == (
            "parameter-space count drops from 9 to 6 at K_e = -27/4"
        )

    def test_chain_does_not_cover(self):
        report = faithful_report(model_of("A + B + C <-> D + E + F"))
        assert not report.covers_model
        assert report.parameter_space_count == 1

    def test_report_dict_round_trip(self):
        d = faithful_report(model_of("A + B <-> 3C")).to_dict()
        assert d["parameter_space_count"] == 9
        assert d["fiber_degree"] == 3
        assert d["variety_count_quotient"] == 3
        assert d["degeneracy"] == "none"
        assert d["method"] == "faithful"

    def test_numeric_counts_give_same_degree_profile(self):
        counts = ObservationCounts.numeric((2, 3, 5))
        report = faithful_report(model_of("A + B <-> 2C"), counts)
        assert report.parameter_space_count == 4

    def test_u_scaling_leaves_counts_unchanged(self):
        for text in ("A + B <-> 2C", "2A <-> 3B", "A + B <-> 3C"):
            base = None
            for scale in (1, 2, 7):
                counts = ObservationCounts.numeric((2 * scale, 3 * scale, 5 * scale))
                counts = ObservationCounts.numeric(counts.values[: len(model_of(text).species)])
                report = faithful_report(model_of(text), counts)
                if base is None:
                    base = report.parameter_space_count
                assert report.parameter_space_count == base

