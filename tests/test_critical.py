"""Critical systems, resultant elimination, and parameter-space counts.

Pinned eliminants for the (1,2,1), (2,2,2), and (3,3,3) two-one systems are
spelled out term by term from the Lagrange derivation, so the elimination
pipeline is checked against hand-expanded forms, not against itself.
"""

import ast
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from mldeg import critical
from mldeg import model as model_module
from mldeg.catalog import load_catalog
from mldeg.critical import ObservationCounts, faithful_report
from mldeg.model import (
    EquilibriumConstant,
    ReactionShape,
    build_model,
    classify_shape,
    map_shape,
)
from mldeg.poly import MPoly, VarContext, _term_products
from mldeg.reaction import format_reaction, parse_reaction

from reference import (
    bareiss_eliminant,
    critical_system,
    determinant_fraction_free,
    engine_eliminant,
    equation_layout,
    folded_layout,
    fold as reference_fold,
    over_counts,
    packed_poly,
    reduce_radical,
    sylvester_matrix,
    two_one_resultant,
    univariate_gcd,
    unpacked,
)


# Without a bytecode cache (PYTHONDONTWRITEBYTECODE) every cold interpreter
# compiles critical.py and model.py from source: the count-ladder benchmark
# in its set-up, certify inside its first timed job.  Keep their combined
# syntax tree no larger than it is.
FAITHFUL_AST_NODE_BUDGET = 4282


def test_faithful_route_modules_stay_within_their_ast_node_budget():
    nodes = sum(
        sum(1 for _ in ast.walk(ast.parse(Path(module.__file__).read_text(encoding="utf-8"))))
        for module in (critical, model_module)
    )
    assert nodes <= FAITHFUL_AST_NODE_BUDGET


def system_for(text, ke="generic", counts=None):
    """The reference MPoly critical system of a reaction at K_e."""
    model = build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))
    if counts is None:
        counts = ObservationCounts.symbolic(len(model.species))
    return critical_system(model, counts)


def profile(eliminant, survivor):
    """Degree and valuation of a nonzero eliminant in the survivor."""
    return eliminant.degree_in(survivor), eliminant.valuation_in(survivor)


def count_of(system):
    """Parameter-space count: degree minus valuation of the engine's
    eliminant."""
    degree, valuation = profile(engine_eliminant(system), system.survivor)
    return degree - valuation


def model_of(text, ke="generic"):
    return build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))


def multiplier(system):
    """The map's multiplier mu (s, K_e or a number) as an MPoly over the
    images' context: the image of the last species, a product, without its
    t part."""
    image = list(system.images.values())[-1]
    [(exp, coeff)] = image.items()
    k = len(system.shape.param_vars)
    return MPoly(image.ctx, {(0,) * k + exp[k:]: coeff})


def witness(degree, variable):
    return (f"identically zero eliminant: the equations share a factor of "
            f"degree {degree} in {variable}")


def reference_gcd_degree(system, rng, points=3):
    """Degree in the first parameter of the gcd of the system's first and
    last equations over the other symbols: the least degree of the
    rational Euclid's gcd with every other symbol set to seeded integers."""
    first = system.shape.param_vars[0]
    degrees = []
    for _ in range(points):
        point = {n: rng.randint(1, 10 ** 6) for n in system.ctx.names if n != first}
        f, g = (e.substitute(point) for e in (system.equations[0], system.equations[-1]))
        degrees.append(univariate_gcd(f, g, first).degree_in(first))
    return min(degrees)


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
    """The reference equations, pinned by hand, and the engine's integer
    equations (critical._equations), which must be the same polynomials
    once mu is folded in and the weights expanded."""

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
        with pytest.raises(ValueError, match="got 2 counts for 3 species"):
            faithful_report(model_of("A + B <-> 2C"), ObservationCounts.symbolic(2))

    def test_lagrange_structure(self):
        # the engine's f_i = lam * t_i * dg/dt_i - w_i, checked against a
        # manual rebuild
        system = system_for("A + B <-> 3C", "1")
        ctx = system.ctx
        lam = MPoly.var(ctx, "lam")
        g = system.constraint_pullback
        equations, bits = critical._equations(system.shape, system.counts)
        for t_name, f, w in zip(("t0", "t1"), equations, system.weights):
            t = MPoly.var(ctx, t_name)
            expanded = over_counts(system, critical._fold(f, system.shape, bits), bits)
            assert expanded == lam * t * g.partial_derivative(t_name) - w

    @pytest.mark.parametrize("text", [
        "A + B <-> 2C", "2A + 3B <-> 4C", "3A + 2B <-> 2C", "A + 2B <-> C",
        "2A <-> 3B", "2A <-> 2B", "A <-> B", "A + B + C <-> D + E + F",
    ])
    def test_integer_equations_are_the_reference_equations(self, text):
        # mu appears only to the power 0 or 1, so folding it in is the
        # substitution of the multiplier that the images make
        size = len(parse_reaction(text).species)
        for ke in ("generic", "23/71", "4", "8", "-8", "-1"):
            for counts in (ObservationCounts.symbolic(size),
                           ObservationCounts.numeric((3, 5, 7, 2, 4, 6)[:size]),
                           ObservationCounts.numeric((0, 5, 0, 0, 0, 0)[:size])):
                system = system_for(text, ke, counts)
                equations, bits = critical._equations(system.shape, counts)
                assert tuple(over_counts(system, critical._fold(f, system.shape, bits), bits)
                             for f in equations) == system.equations, (ke, counts)


class TestPinnedEliminants:
    def test_unit_pair_eliminant_is_the_single_equation(self):
        system = system_for("A <-> B")
        assert engine_eliminant(system) == system.equations[0]
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
        eliminant = engine_eliminant(system)
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
        assert equal_up_to_scalar(engine_eliminant(system), printed)
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
        eliminant = engine_eliminant(system)
        assert equal_up_to_scalar(eliminant, inner ** 3)
        assert eliminant.degree_in("t1") == 18
        assert eliminant.valuation_in("t1") == 0

    def test_degenerate_elimination_reported(self, monkeypatch):
        # a zero eliminant is reported with the degree of the gcd of the
        # first and last equations, hand-built here as t0*t1 and
        # t0*(t1 + 1), for numeric and for symbolic counts; packed, t0 is
        # the lowest field and t1 the next
        monkeypatch.setattr(critical, "_two_one_resultant", lambda f0, f1, bits: {})
        bits = 3  # any width that holds the exponents
        t0, t1 = 1, 1 << bits
        for counts in (ObservationCounts.numeric((3, 5, 7)), ObservationCounts.symbolic(3)):
            broken = [{t0 + t1: 1}, {t0 + t1: 1, t0: 1}]
            monkeypatch.setattr(critical, "_equations", lambda shape, counts: (broken, bits))
            report = faithful_report(model_of("A + B <-> 2C", "5"), counts)
            assert report.degeneracy and report.parameter_space_count is None
            assert report.degeneracy_description == witness(1, "t0")


class TestWeightSymbolElimination:
    """The engine takes the two-one resultant over the weight symbols w0,
    w1; with the weights substituted back, the eliminant must be the
    polynomial that Bareiss gives over the count symbols u0, u1, u2."""

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
            system.shape.radical,
        )
        eliminant = engine_eliminant(system)
        assert eliminant.ctx == system.ctx
        assert eliminant == reference

    @pytest.mark.parametrize("text, ke", CASES)
    def test_weight_equations_built_without_a_change_of_variables(
        self, monkeypatch, text, ke
    ):
        # the equations over w0, w1 are integer term maps built from the
        # map's shape: no ring map and no rational polynomial arithmetic
        system = system_for(text, ke)

        def refuse(*args, **kwargs):
            raise AssertionError("the weight eliminant used MPoly arithmetic")

        for name in ("substitute", "compose", "_mapped", "__mul__", "__add__", "__init__"):
            monkeypatch.setattr(MPoly, name, refuse)
        shape = system.shape
        terms, bits = critical._eliminant_terms(shape, system.counts)
        terms, den = critical._fold(terms, shape, bits)
        # packed ints over (t0, t1, lam, w0, w1, s, K_e), s and K_e only
        # where the map has them
        layout = folded_layout(shape)
        present = set(system.ctx.names) | {"w0", "w1"}
        assert terms and all(type(e) is int for e in terms)
        assert max(terms) >> len(layout) * bits == 0
        assert all(x == 0 or name in present
                   for e in unpacked(terms, bits, len(layout)) for name, x in zip(layout, e))

    @pytest.mark.parametrize("ke", ["generic", "23/71"])
    def test_resultant_never_sees_u0_or_u1(self, monkeypatch, ke):
        # the equations reach the resultant packed (t0, t1, lam, w0, w1, mu):
        # no count, and each weight a symbol of its own
        calls = []
        real = critical._two_one_resultant

        def spy(f, g, bits):
            calls.append((f, g, bits))
            return real(f, g, bits)

        monkeypatch.setattr(critical, "_two_one_resultant", spy)
        faithful_report(model_of("2A + 3B <-> 4C", ke))
        [(f0, f1, bits)] = calls
        assert max(f0) >> 6 * bits == max(f1) >> 6 * bits == 0
        assert {e[3:5] for e in unpacked(f0, bits, 6)} == {(0, 0), (1, 0)}
        assert {e[3:5] for e in unpacked(f1, bits, 6)} == {(0, 0), (0, 1)}


class TestTwoOneClosedForm:
    """_two_one_resultant gives Res(f0, f1, t0) in closed form on integer
    term maps; it must be the Sylvester determinant that Bareiss gives,
    sign included, its inputs the reference MPoly equations, its fold the
    radical reduction, and the faithful route must build no Sylvester
    matrix and do no rational polynomial arithmetic at all."""

    # every nA + mB <-> pC with n, m, p <= 5: n = p, n > p, n | p and
    # gcd(n, p) > 1 all occur
    RUNGS = tuple(
        f"{n}A + {m}B <-> {p}C"
        for n in range(1, 6) for m in range(1, 6) for p in range(1, 6)
    )
    PAIRS = tuple(f"{a}A <-> {b}B" for a in range(1, 7) for b in range(1, 7))
    # generic, a radical s (23/71), exact roots of both signs, and the
    # degenerate constants 1, 64 = 2**6 and -8 = (-2)**3
    KES = ("generic", "23/71", "8", "4", "27", "-27/4", "1", "64", "-8")

    @staticmethod
    def all_counts(text):
        rng = random.Random(text)
        size = len(parse_reaction(text).species)
        return (
            ObservationCounts.symbolic(size),
            ObservationCounts.numeric(rng.randint(1, 60) for _ in range(size)),
            ObservationCounts.numeric((0, rng.randint(1, 60), 0)[:size]),  # w0 = 0 on a rung
        )

    @pytest.mark.parametrize("text", RUNGS)
    def test_equals_bareiss_on_the_sylvester_matrix(self, monkeypatch, text):
        calls = []
        real = critical._two_one_resultant
        monkeypatch.setattr(
            critical, "_two_one_resultant",
            lambda f, g, bits: calls.append((f, g, bits)) or real(f, g, bits),
        )
        for ke in self.KES:
            for counts in self.all_counts(text):
                system = system_for(text, ke, counts)
                shape = system.shape
                calls.clear()
                terms, bits = critical._eliminant_terms(shape, counts)
                terms, den = critical._fold(terms, shape, bits)
                [(raw0, raw1, used_bits)] = calls
                assert used_bits == bits
                # packed (t0, t1, lam, w0, w1, mu); the weights only when symbolic
                layout = equation_layout(shape)
                names = ("t0", "t1", "lam", "mu") + ("w0", "w1") * counts.is_symbolic
                ctx = VarContext(names)
                f0, f1 = (packed_poly(f, bits, layout, ctx) for f in (raw0, raw1))
                # the term maps are the system's equations, mu and w named
                mu = multiplier(system).cast(system.ctx)
                back = {n: MPoly.var(system.ctx, n) for n in names[:3]}
                back.update(mu=mu, **dict(zip(names[4:], system.weights)))
                assert (f0.compose(back, system.ctx), f1.compose(back, system.ctx)) \
                    == system.equations, (ke, counts)
                reference = determinant_fraction_free(sylvester_matrix(f0, f1, "t0"))
                assert packed_poly(real(raw0, raw1, bits), bits, layout, ctx) == reference, \
                    (ke, counts)
                # folded into the weight coordinates: mu -> the multiplier
                weights = VarContext(system.ctx.drop(("u0", "u1", "u2")).names + names[4:])
                into = {n: MPoly.var(weights, n) for n in names if n != "mu"}
                into["mu"] = mu.cast(weights)
                folded = reduce_radical(reference.compose(into, weights), shape.radical)
                eliminant = packed_poly(terms, bits, folded_layout(shape), weights, den)
                assert eliminant == folded, (ke, counts)

    @pytest.mark.parametrize("text", PAIRS)
    def test_pairs_eliminate_to_their_equation(self, text):
        for ke in self.KES:
            for counts in self.all_counts(text):
                system = system_for(text, ke, counts)
                assert engine_eliminant(system) == bareiss_eliminant(system), (ke, counts)

    def test_other_shapes_are_refused(self, monkeypatch):
        real, calls = critical._two_one_resultant, []
        monkeypatch.setattr(critical, "_two_one_resultant",
                            lambda f, g, bits: calls.append((f, g, bits)) or real(f, g, bits))
        faithful_report(model_of("2A + 3B <-> 4C"))
        [(f0, f1, bits)] = calls
        assert 7 < 1 << bits

        def plus(f, k):  # f + t0**k: t0 is the lowest field
            return {**f, k: 1}

        for g0, g1 in ((f0, plus(f1, 1)), (plus(f0, 7), f1), (plus(f0, 1), f1),
                       (f0, {}), (f1, f0)):
            with pytest.raises(AssertionError, match="expected f0"):
                critical._two_one_resultant(g0, g1, bits)

    # the benchmark's count-ladder rungs
    COUNT_LADDER = (
        "A + B <-> 2C", "2A + B <-> 3C", "2A + 3B <-> 4C", "3A + 4B <-> 5C",
        "4A + 5B <-> 7C", "2A <-> 3B", "A + B <-> 3C", "A + 2B <-> C",
        "3A + 2B <-> 4C", "3A + 5B <-> 7C", "5A + 7B <-> 9C", "3A <-> 5B",
    )

    def test_faithful_route_runs_no_bareiss(self, monkeypatch):
        # the count runs on integers: with the Sylvester resultant and
        # rational polynomial arithmetic made to raise, every report is the
        # one recorded before
        cases = [
            (text, ke, counts)
            for text in self.COUNT_LADDER + self.PAIRS
            for ke in ("generic", "29/73", "64", "-8")
            for counts in self.all_counts(text)[:2]
        ]
        cases += [
            (entry.reaction_text, ke, None)
            for entry in load_catalog()
            if classify_shape(parse_reaction(entry.reaction_text)) is ReactionShape.TWO_ONE
            for ke in ("generic", entry.ke_spec)
        ]
        want = [faithful_report(model_of(text, ke), counts) for text, ke, counts in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("the faithful route reached MPoly arithmetic or Bareiss")

        with monkeypatch.context() as patch:
            for name, module in list(sys.modules.items()):
                if name.partition(".")[0] == "mldeg":
                    if hasattr(module, "resultant"):
                        patch.setattr(module, "resultant", refuse)
            for name in ("__init__", "_raw", "__mul__", "__rmul__", "__add__", "__radd__",
                         "compose", "substitute", "_mapped"):
                patch.setattr(MPoly, name, refuse)
            got = [faithful_report(model_of(text, ke), counts) for text, ke, counts in cases]
        assert got == want

    @pytest.mark.parametrize("text", RUNGS + PAIRS)
    def test_generic_fold_is_injective(self, text):
        # at generic K_e the fold mu**e -> s**(e % k) * K_e**(e // k) merges
        # no two monomials and keeps the t fields, so faithful_report reads
        # the generic profile off the unfolded eliminant
        shape = map_shape(parse_reaction(text), EquilibriumConstant.generic())
        for counts in self.all_counts(text):
            terms, bits = critical._eliminant_terms(shape, counts)
            folded, den = critical._fold(terms, shape, bits)
            assert den == 1 and sorted(folded.values()) == sorted(terms.values()), counts
            assert critical._profile(terms, shape, bits) == critical._profile(folded, shape, bits)

    def test_fold_runs_only_at_a_numeric_ke(self, monkeypatch):
        calls = []
        real = critical._fold
        monkeypatch.setattr(critical, "_fold", lambda terms, shape, bits:
                            calls.append(shape.ke) or real(terms, shape, bits))
        for text in self.COUNT_LADDER + self.PAIRS:
            for ke, folds in (("generic", 0), ("29/73", 1)):
                calls.clear()
                report = faithful_report(model_of(text, ke))
                assert report.parameter_space_count is not None, (text, ke)
                assert len(calls) == folds, (text, ke)


class TestPackedClosedForm:
    """The packed closed form against the tuple kernel it replaced
    (reference.two_one_resultant and reference.fold) on rungs past the
    Bareiss ones: nA + mB <-> pC with n, m, p <= 13, seeded, and rungs
    with p = n, where A merges; at m = n = p the largest exponent is the
    field width's bound itself.  A carry from one field into the next
    would change the unpacked exponents."""

    EDGE = ("13A + 11B <-> 13C", "13A + 13B <-> 13C", "12A + 13B <-> 12C",
            "13A + B <-> 13C", "11A + 12B <-> 11C")
    RUNGS = EDGE + tuple(
        f"{n}A + {m}B <-> {p}C"
        for n, m, p in (random.Random(25).choices(range(1, 14), k=3) for _ in range(40))
    )

    @staticmethod
    def all_counts(text):
        rng = random.Random(text)
        return (ObservationCounts.symbolic(3),
                ObservationCounts.numeric(rng.randint(1, 10 ** 12) for _ in range(3)))

    @pytest.mark.parametrize("text", RUNGS)
    def test_equals_the_tuple_kernel(self, text):
        reaction = parse_reaction(text)
        shape = map_shape(reaction, EquilibriumConstant.generic())
        power = shape.power
        # a radical s, unless p = 1, and an exact root
        kes = ("generic", "23/71", f"{3 ** power}/{2 ** power}")
        for counts in self.all_counts(text):
            equations, bits = critical._equations(shape, counts)
            want = two_one_resultant(*(unpacked(f, bits, 6) for f in equations))
            terms, bits = critical._eliminant_terms(shape, counts)
            assert max(terms) >> 6 * bits == 0, counts
            assert unpacked(terms, bits, 6) == want, counts
            for ke in kes:
                folded, den = critical._fold(
                    terms, map_shape(reaction, EquilibriumConstant.parse(ke)), bits)
                assert max(folded) >> 7 * bits == 0, (ke, counts)
                assert (unpacked(folded, bits, 7), den) == reference_fold(
                    want, map_shape(reaction, EquilibriumConstant.parse(ke))), (ke, counts)

    @pytest.mark.parametrize("n", [2, 5, 12, 13])
    def test_the_width_bound_is_attained(self, n):
        # at nA + nB <-> nC the eliminant is +-(E*C - A*D)**n, whose term
        # (A*D)**n holds t1**(2*n*n): the largest exponent is the bound
        # (a + n) * M itself, and it needs every bit of its field
        shape = map_shape(parse_reaction(f"{n}A + {n}B <-> {n}C"), EquilibriumConstant.generic())
        terms, bits = critical._eliminant_terms(shape, ObservationCounts.symbolic(3))
        assert max(max(e) for e in unpacked(terms, bits, 6)) == 2 * n * n
        assert bits == (2 * n * n).bit_length()


class TestSpecialisation:
    """At numeric K_e, faithful_report folds the one eliminant it took with
    mu unfolded (mu -> an exact root, or s with s**p = K_e) instead of
    eliminating again; its numbers, and the folded eliminant, must be
    those of Bareiss on the numeric system."""

    RUNGS = tuple(
        f"{n}A + {m}B <-> {p}C"
        for n in range(1, 4) for m in range(1, 4) for p in range(1, 5)
    ) + tuple(
        f"{a}A <-> {b}B" for a in range(1, 7) for b in range(1, 7)
    ) + ("A + B + C <-> D + E + F",)
    # exact square, cube and fourth roots of both signs, radicals, K_e = 1
    # and 64 = 2**6
    KES = ("4", "8", "27", "-1", "-27/4", "-8", "16/81", "1/4",
           "1", "2", "81", "23/71", "7/3", "-1/8", "64")

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
        for ke in self.KES:
            report = faithful_report(model_of(text, ke), counts)
            system = system_for(text, ke, counts)
            reference = bareiss_eliminant(system)
            eliminant = engine_eliminant(system)
            assert eliminant.ctx == system.ctx, ke
            assert eliminant == reference, ke
            degree, valuation = profile(reference, system.survivor)
            assert (report.eliminant_degree, report.eliminant_valuation) == (degree, valuation), ke
            assert report.parameter_space_count == degree - valuation, ke

    def test_zero_specialisation_reported(self, monkeypatch):
        # an eliminant with the factor mu**2 - 4, K_e - 4 at generic K_e,
        # folds to zero at K_e = 4; the report names the numeric system's
        # shared factor, taken once on integers
        real, real_gcd, gcd_calls = critical._eliminant_terms, critical._gcd_degree, []

        def with_factor(shape, counts):
            # mu is the top field, 2 * len(t) + 1: mu**2 carries into none
            terms, bits = real(shape, counts)
            assert (max(terms) >> (2 * len(shape.param_vars) + 1) * bits) + 2 < 1 << bits
            factor = {2 << (2 * len(shape.param_vars) + 1) * bits: 1, 0: -4}
            return _term_products([(terms, factor)]), bits

        monkeypatch.setattr(critical, "_eliminant_terms", with_factor)
        monkeypatch.setattr(
            critical, "_gcd_degree",
            lambda *args: gcd_calls.append(args) or real_gcd(*args),
        )
        report = faithful_report(model_of("A + B <-> 2C", "4"))
        monkeypatch.undo()
        system = system_for("A + B <-> 2C", "4")
        assert len(gcd_calls) == 1
        assert report.degeneracy
        assert report.parameter_space_count is None
        assert report.generic_parameter_space_count == 4
        assert report.degeneracy_description == witness(
            reference_gcd_degree(system, random.Random(4)), "t0")

    @pytest.mark.parametrize("text, ke, numeric", [
        ("5A + 7B <-> 9C", "23/71", False),
        ("2A + B <-> 3C", "-27/4", False),
        ("A + B <-> 2C", "4", False),
        ("3A + 2B <-> 4C", "8", True),
        ("2A <-> 3B", "-8", False),
    ])
    def test_numeric_report_eliminates_once(self, monkeypatch, text, ke, numeric):
        # the count eliminates once, at the generic shape, and reads off at
        # the numeric K_e the numbers of Bareiss on the numeric system
        counts = self.counts_for(text, numeric)
        calls = []
        real = critical._eliminant_terms
        monkeypatch.setattr(
            critical, "_eliminant_terms",
            lambda shape, counts: calls.append((shape, counts)) or real(shape, counts),
        )
        report = faithful_report(model_of(text, ke), counts)
        reaction = parse_reaction(text)
        assert calls == [(map_shape(reaction, EquilibriumConstant.generic()), counts)]
        monkeypatch.undo()
        system = system_for(text, ke, counts)
        reference = bareiss_eliminant(system)
        assert engine_eliminant(system) == reference
        degree, valuation = profile(reference, system.survivor)
        assert (report.eliminant_degree, report.eliminant_valuation) == (degree, valuation)
        assert report.generic_parameter_space_count == count_of(
            system_for(text, "generic", counts)
        )


class TestDegeneracyWitness:
    """With the eliminant forced to zero, a report names the degree in the
    first parameter of the gcd of the first and last critical equations at
    its K_e, taken on integers; it must be the degree that the rational
    Euclid gives on the reference equations with every other symbol set to
    seeded integers."""

    REACTIONS = (
        "A + B <-> 2C", "2A + 3B <-> 4C", "3A + 2B <-> 4C", "A + 2B <-> C",
        "2A + 2B <-> 2C", "A <-> B", "2A <-> 3B", "2A <-> 2B", "3A <-> 5B",
        "A + B + C <-> D + E + F",
    )

    @staticmethod
    def kes(text):
        """generic, a radical (s kept), an exact root and negative K_e: an
        exact negative root for an odd product-side degree p, a radical
        for an even one, and -1."""
        p = map_shape(parse_reaction(text), EquilibriumConstant.generic()).power
        return ("generic", "23/71", str(2 ** p), str(-(3 ** p)), "-1")

    @staticmethod
    def all_counts(text, rng):
        size = len(parse_reaction(text).species)
        return (
            ObservationCounts.symbolic(size),
            ObservationCounts.numeric(rng.randint(1, 60) for _ in range(size)),
            ObservationCounts.numeric((0, rng.randint(1, 60), 0, 0, 0, 0)[:size]),
        )

    @pytest.mark.parametrize("text", REACTIONS)
    def test_printed_degree_is_the_reference_gcd_degree(self, monkeypatch, text):
        monkeypatch.setattr(critical, "_eliminant_terms", lambda shape, counts: ({}, 1))
        rng = random.Random(text)
        for ke in self.kes(text):
            for counts in self.all_counts(text, rng):
                report = faithful_report(model_of(text, ke), counts)
                system = system_for(text, ke, counts)
                assert report.parameter_space_count is None, (ke, counts)
                assert report.degeneracy_description == witness(
                    reference_gcd_degree(system, rng), system.shape.param_vars[0]
                ), (ke, counts)


class TestWeightCoordinateReading:
    """faithful_report counts, profiles and specialises the eliminant in the
    weight coordinates w0, w1.  w0, w1 are independent linear forms in u0,
    u1, u2, so every number read in weights must be the one read off the
    eliminant expanded over the counts at that K_e."""

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
        """(count, degree, valuation) of the eliminant over the counts at
        K_e; all None for a degenerate system."""
        system = system_for(text, ke)
        eliminant = engine_eliminant(system)
        if eliminant is None:
            return None, None, None
        degree, valuation = profile(eliminant, system.survivor)
        return degree - valuation, degree, valuation

    @pytest.mark.parametrize("text", REACTIONS)
    def test_report_equals_reading_off_eliminate(self, text):
        if classify_shape(parse_reaction(text)) is ReactionShape.SEGRE:
            assert faithful_report(model_of(text)).eliminant_degree is None
            return
        generic_count = self.read_off(text, "generic")[0]
        for ke in self.kes(text):
            report = faithful_report(model_of(text, ke))
            if ke == "0":
                assert report.eliminant_degree is None
                continue
            count, degree, valuation = self.read_off(text, ke)
            assert report.parameter_space_count == count, ke
            assert report.eliminant_degree == degree, ke
            assert report.eliminant_valuation == valuation, ke
            assert report.generic_parameter_space_count == generic_count, ke
            assert report.degeneracy == (count is None or count < generic_count), ke

    def test_exceptional_ke_examples(self):
        assert self.exceptional_ke("A + B <-> 2C") == 4
        assert self.exceptional_ke("A + B <-> 3C") == 27


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
        assert report.eliminant_degree is None
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

