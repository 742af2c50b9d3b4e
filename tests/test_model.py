"""Model construction, shape classification, and monomial parameterizations.

The load-bearing check is composition: every parameterization must pull the
defining relation back to zero exactly, for generic and for rational K_e.
"""

import random
from fractions import Fraction
from math import comb, gcd

import pytest

from mldeg import model as model_module
from mldeg.cli import _poly_text
from mldeg.catalog import load_catalog
from mldeg.critical import faithful_report
from mldeg.curve import curve_from_model
from mldeg.intpoly import VarContext
from mldeg.model import (
    EquilibriumConstant,
    ReactionShape,
    UnsupportedReactionError,
    build_model,
    build_parameterization,
    classify_shape,
    exact_root,
    fiber_degree,
    map_shape,
    species_var_names,
)
from mldeg.poly import MPoly
from mldeg.reaction import parse_reaction

from reference import (
    arithmetic_constraint,
    arithmetic_f_affine,
    arithmetic_f_hom,
    arithmetic_images,
    assert_canonical,
    fraction_str,
    model_poly,
    mpoly_parameterization,
    pullback_is_zero,
    reduce_radical,
    substitute,
)


def model_of(text, ke="generic"):
    return build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))


def printed(m, poly):
    """A polynomial of model m as the model command prints it."""
    return _poly_text(m.ctx.names, poly)


def image_text(shape, image):
    """An image of build_parameterization as the model command prints it."""
    return _poly_text(shape.param_vars + shape.constants, image)


def eager_monomial(m, terms):
    out = MPoly.const(m.ctx, 1)
    for t in terms:
        out = out * MPoly.var(m.ctx, m.var_of(t.species)) ** t.coefficient
    return out


def eager_ke(m):
    return MPoly.var(m.ctx, "K_e") if m.ke.is_generic else MPoly.const(m.ctx, m.ke.value)


def eager_total(m):
    return sum((MPoly.var(m.ctx, v) for v in m.species_vars), MPoly.zero(m.ctx))


def eager_f_hom(m):
    """The homogenization as build_model once formed it, side by side."""
    total = eager_total(m)
    reactants, products = m.reaction.reactants, m.reaction.products
    return (eager_ke(m) * eager_monomial(m, reactants)
            * total ** (m.degree - sum(t.coefficient for t in reactants))
            - eager_monomial(m, products)
            * total ** (m.degree - sum(t.coefficient for t in products)))


# the reactions of the benchmark's certify workload that mldeg model runs on,
# with F_affine as that workload records it at generic K_e
CERTIFY_MODEL = {
    "A + 3B <-> 2C": "x*y^3*K_e - z^2",
    "2A + B <-> C": "x^2*y*K_e - z",
    "A + B <-> 4C": "-z^4 + x*y*K_e",
    "2A + 5B <-> 3C": "x^2*y^5*K_e - z^3",
    "3A + 5B <-> 2C": "x^3*y^5*K_e - z^2",
    "2SO2 + O2 <-> 2SO3": "x^2*y*K_e - z^2",
    "2H2 + O2 <-> 2H2O": "x^2*y*K_e - z^2",
    "A + B <-> C + D + E": "x0*x1*K_e - x2*x3*x4",
}


class TestEquilibriumConstant:
    def test_parse(self):
        assert EquilibriumConstant.parse("generic").is_generic
        assert EquilibriumConstant.parse(" GENERIC ").is_generic
        assert EquilibriumConstant.parse("4").value == 4
        assert EquilibriumConstant.parse("1/2").value == Fraction(1, 2)
        assert EquilibriumConstant.parse("-3").value == -3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            EquilibriumConstant.parse("big")
        with pytest.raises(ValueError):
            EquilibriumConstant.parse("1/0")

    def test_reads_what_fraction_reads(self):
        # seeded short texts with no space or _ separator, which every
        # supported Python's Fraction reads alike
        rng, read = random.Random(7), 0
        for _ in range(20000):
            text = "".join(rng.choice("0123456789+-./eEx") for _ in range(rng.randint(0, 7)))
            try:
                got = EquilibriumConstant.parse(text).value
            except ValueError as exc:
                if "longer than 4300 digits" in str(exc):
                    continue
                got = None
            try:
                want = Fraction(text)
            except (ValueError, ZeroDivisionError):
                want = None
            assert got == want, text
            read += want is not None
        assert read > 2000

    @pytest.mark.parametrize("text", [
        "1e10000000", "0e10000000", "-1e-10000000", "1e4300", "1e-4300", "1" * 4301,
        "-" + "1" * 4400, "1/" + "7" * 4301, "0." + "5" * 4300, "1" * 4000 + "." + "1" * 301,
        "1e" + "9" * 5000, "1e-" + "0" * 4300 + "5"],
        ids=lambda text: text if len(text) < 12 else f"{text[:4]}..{len(text)}")
    def test_past_digit_limit_refused_before_the_value_is_built(self, monkeypatch, text):
        # the numerator or denominator as written or as the exponent makes
        # it, or the exponent as written; Fraction(text) would take seconds
        # on 1e10000000
        def unexpected(*args):
            raise AssertionError("the value was built")

        monkeypatch.setattr(model_module, "Fraction", unexpected)
        with pytest.raises(ValueError, match="^equilibrium constant has a numerator, denominator "
                                             "or exponent longer than 4300 digits$"):
            EquilibriumConstant.parse(text)

    @pytest.mark.parametrize("text, value", [
        ("9" * 4300, 10 ** 4300 - 1), ("1e4299", 10 ** 4299),
        ("-1e-4299", Fraction(-1, 10 ** 4299)),
        ("1/" + "7" * 4300, Fraction(9, 7 * (10 ** 4300 - 1))),
        ("0." + "5" * 4299, Fraction(5 * (10 ** 4299 - 1) // 9, 10 ** 4299)),
        ("1e-" + "0" * 4299 + "5", Fraction(1, 10 ** 5))], ids=range(6))
    def test_at_digit_limit_read(self, text, value):
        ke = EquilibriumConstant.parse(text)
        assert ke.value == value
        assert str(ke)

    def test_positivity_flag(self):
        assert EquilibriumConstant.generic().positivity_flag
        assert EquilibriumConstant.of(3).positivity_flag
        assert not EquilibriumConstant.of(0).positivity_flag
        assert not EquilibriumConstant.of(-1).positivity_flag

    def test_str(self):
        assert str(EquilibriumConstant.generic()) == "generic"
        assert str(EquilibriumConstant.of(Fraction(1, 2))) == "1/2"


class TestBuildModel:
    def test_pair_generic(self):
        m = model_of("A <-> B")
        assert m.species_vars == ("x", "y")
        assert printed(m, m.F_affine) == "x*K_e - y"
        assert printed(m, m.F_hom) == "x*K_e - y"
        assert printed(m, m.constraint) == "x + y - 1"
        assert m.degree == 1

    def test_two_one_generic(self):
        m = model_of("A + B <-> 2C")
        assert printed(m, m.F_affine) == "x*y*K_e - z^2"
        assert printed(m, m.F_hom) == "x*y*K_e - z^2"
        assert m.degree == 2

    def test_two_one_numeric_ke(self):
        m = model_of("A + B <-> 2C", 4)
        assert printed(m, m.F_affine) == "4*x*y - z^2"
        assert "K_e" not in m.ctx

    def test_homogenization_pads_lower_side(self):
        # 2A <-> 3B: reactant side has degree 2, padded by L = x + y
        m = model_of("2A <-> 3B")
        assert m.degree == 3
        assert printed(m, m.F_hom) == "x^3*K_e + x^2*y*K_e - y^3"
        # dehomogenizing on the constraint recovers the affine relation
        f_hom, f_affine = (model_poly(m.ctx, p) for p in (m.F_hom, m.F_affine))
        assert substitute(f_hom, {"y": 1 - MPoly.var(m.ctx, "x")}) != f_affine

    def test_f_hom_is_homogeneous(self):
        for text in ("A <-> B", "A + B <-> 2C", "2A <-> 3B", "N2 + 3H2 <-> 2NH3"):
            m = model_of(text)
            degrees = {
                sum(e[m.ctx.index(v)] for v in m.species_vars)
                for e in m.F_hom[0]
            }
            assert degrees == {m.degree}

    def test_f_hom_built_on_first_read(self):
        # F_hom is not built with the model; once read, it is the eager
        # K_e * reactants * L^(d - deg) - products * L^(d - deg), kept
        for entry in load_catalog():
            m = model_of(entry.reaction_text, entry.ke_spec)
            assert "F_hom" not in vars(m)
            # a 3-species curve is (F_hom's form, its scale, degree)
            got = m.F_hom if len(m.species) != 3 else curve_from_model(m)[:2]
            assert model_poly(m.ctx, got) == eager_f_hom(m)
            assert m.F_hom is m.F_hom

    def test_f_affine_and_constraint_built_on_first_read(self):
        # build_model forms no polynomial; the curve route reads F_affine
        # through F_hom, which expands L^k itself, so the constraint stays
        # unbuilt; every read gets the eager K_e * reactants - products and
        # L - 1, built once
        for entry in load_catalog():
            m = model_of(entry.reaction_text, entry.ke_spec)
            assert "F_affine" not in vars(m) and "constraint" not in vars(m)
            if len(m.species) == 3:
                curve_from_model(m)
                assert "F_affine" in vars(m) and "constraint" not in vars(m)
            assert model_poly(m.ctx, m.F_affine) == arithmetic_f_affine(m)
            assert model_poly(m.ctx, m.constraint) == arithmetic_constraint(m)
            assert m.F_affine is m.F_affine and m.constraint is m.constraint
        for text, f_affine in CERTIFY_MODEL.items():
            m = model_of(text)
            assert "F_affine" not in vars(m)
            assert model_poly(m.ctx, m.F_affine) == arithmetic_f_affine(m)
            assert printed(m, m.F_affine) == f_affine
            assert model_poly(m.ctx, m.constraint) == arithmetic_constraint(m)

    def test_species_variable_mapping(self):
        m = model_of("N2 + 3H2 <-> 2NH3")
        assert m.var_of("N2") == "x"
        assert m.var_of("H2") == "y"
        assert m.var_of("NH3") == "z"

    def test_five_species_names(self):
        assert species_var_names(5) == ("x0", "x1", "x2", "x3", "x4")
        m = model_of("A + B + C <-> D + E + F")
        assert m.species_vars == ("x0", "x1", "x2", "x3", "x4", "x5")

    def test_reserved_species_names_rejected(self):
        for bad in ("lam", "s", "u0", "u12"):
            with pytest.raises(ValueError):
                model_of(f"{bad} <-> B")

    def test_directed_arrow_rejected(self):
        with pytest.raises(ValueError):
            model_of("A -> B")


def random_reactions(rng, per_shape):
    """Up to per_shape distinct equilibrium reactions of each ReactionShape,
    2 to 6 species, coefficients 1 to 6; SEGRE and CHAIN (3 + 3 species
    at most) have one each.  A reaction whose F_hom would have more than
    300 terms is drawn again, to keep the MPoly reference quick."""
    found = {shape: set() for shape in ReactionShape}
    for _ in range(4000):
        reactants = rng.randint(1, 5)
        products = rng.randint(1, 6 - reactants)
        unit = rng.random() < 0.3
        coeffs = [1 if unit else rng.randint(1, 6) for _ in range(reactants + products)]
        sides = [f"{c if c > 1 else ''}{name}" for c, name in zip(coeffs, "ABCDEF")]
        text = " + ".join(sides[:reactants]) + " <-> " + " + ".join(sides[reactants:])
        shift = abs(sum(coeffs[:reactants]) - sum(coeffs[reactants:]))
        if comb(shift + len(coeffs) - 1, shift) > 300:
            continue
        shape = classify_shape(parse_reaction(text))
        if len(found[shape]) < per_shape:
            found[shape].add(text)
    return [text for shape in ReactionShape for text in sorted(found[shape])]


class TestTermByTermConstruction:
    """F_affine, the constraint, F_hom and the map's images, each made as
    its integer terms over a positive denominator, equal the MPoly products
    and sums of tests/reference.py, term for term, are canonical (no zero
    coefficient, no factor common to every coefficient and the
    denominator), and print as the Fraction printer does."""

    KES = ("generic", "4", "1/2", "-27/4", "0")

    def test_seeded_reactions_match_mpoly_arithmetic(self):
        reactions = random_reactions(random.Random(17), 100)
        shapes = [classify_shape(parse_reaction(text)) for text in reactions]
        assert len(reactions) >= 200 and set(shapes) == set(ReactionShape)
        assert {len(parse_reaction(text).species) for text in reactions} == {2, 3, 4, 5, 6}
        for text, shape in zip(reactions, shapes):
            for ke in self.KES:
                m = model_of(text, ke)
                names = m.ctx.names
                pairs = [(names, m.F_affine, arithmetic_f_affine(m)),
                         (names, m.constraint, arithmetic_constraint(m)),
                         (names, m.F_hom, arithmetic_f_hom(m))]
                try:
                    parameterization = build_parameterization(m)
                except UnsupportedReactionError:
                    # no map: an unsupported shape, or K_e = 0 on a shape with one
                    assert shape is ReactionShape.UNSUPPORTED or ke == "0", (text, ke)
                    parameterization = None
                if parameterization is not None:
                    map_shape_, images = parameterization
                    want = arithmetic_images(m, map_shape_)
                    assert list(images) == list(want) == list(m.species_vars)
                    names = map_shape_.param_vars + map_shape_.constants
                    pairs += [(names, images[v], want[v]) for v in want]
                for names, (terms, den), want in pairs:
                    assert want.ctx.names == names, (text, ke)
                    got = model_poly(want.ctx, (terms, den))
                    assert got.term_map() == want.term_map(), (text, ke)
                    assert_canonical(got)
                    assert all(type(c) is int and c for c in terms.values())
                    assert type(den) is int and den > 0
                    assert gcd(den, *terms.values()) == 1, (text, ke)
                    assert _poly_text(names, (terms, den)) == fraction_str(want), (text, ke)


class TestShapeClassification:
    @pytest.mark.parametrize(
        "text, shape",
        [
            ("A <-> B", ReactionShape.PAIR),
            ("3A <-> 2B", ReactionShape.PAIR),
            ("A + B <-> C", ReactionShape.TWO_ONE),
            ("2A + 2B <-> 2C", ReactionShape.TWO_ONE),
            ("A + B <-> C + D", ReactionShape.SEGRE),
            ("A + B + C <-> D + E + F", ReactionShape.CHAIN),
            ("A + B + C + D <-> E + F + G + H", ReactionShape.CHAIN),
            ("A + B <-> 2C + D", ReactionShape.UNSUPPORTED),
            ("2A + B <-> C + D", ReactionShape.UNSUPPORTED),
            ("A + B + C <-> D + E", ReactionShape.UNSUPPORTED),
            ("A <-> B + C", ReactionShape.UNSUPPORTED),
        ],
    )
    def test_classification(self, text, shape):
        assert classify_shape(parse_reaction(text)) is shape

    def test_two_two_with_units_is_segre_not_chain(self):
        assert classify_shape(parse_reaction("A + B <-> C + D")) is ReactionShape.SEGRE


class TestExactRoot:
    def test_values(self):
        assert exact_root(Fraction(8), 3) == 2
        assert exact_root(Fraction(1, 4), 2) == Fraction(1, 2)
        assert exact_root(Fraction(-8), 3) == -2
        assert exact_root(Fraction(2), 2) is None
        assert exact_root(Fraction(-4), 2) is None
        assert exact_root(Fraction(0), 5) == 0

    def test_random_perfect_powers(self):
        rng = random.Random(31)
        for _ in range(100):
            base = Fraction(rng.randrange(1, 20), rng.randrange(1, 20))
            power = rng.randrange(1, 5)
            assert exact_root(base ** power, power) == base


class TestParameterization:
    # every catalog row with a map, the rungs nA + mB <-> pC with n, m, p
    # <= 5, the pairs aA <-> bB with a, b <= 6 and the chain rows
    SHAPES = tuple(dict.fromkeys(
        [entry.reaction_text for entry in load_catalog()
         if classify_shape(parse_reaction(entry.reaction_text)) is not ReactionShape.SEGRE]
        + [f"{n}A + {m}B <-> {p}C"
           for n in range(1, 6) for m in range(1, 6) for p in range(1, 6)]
        + [f"{a}A <-> {b}B" for a in range(1, 7) for b in range(1, 7)]
        + ["A + B + C <-> D + E + F", "A + B + C + D <-> E + F + G + H"]
    ))
    # generic, radicals, exact roots of both signs and K_e = 1
    KES = ("generic", "23/71", "8", "4", "27", "-27/4", "1", "2", "3", "5", "1/2")

    def test_composition_check_all_shapes_and_constants(self, monkeypatch):
        # the exact integer check runs once on every build_parameterization
        # and passes exactly where composing F_affine with the images does
        checked = []
        real = model_module._check_composition
        monkeypatch.setattr(model_module, "_check_composition",
                            lambda c, shape: checked.append(shape) or real(c, shape))
        for text in self.SHAPES:
            for ke in self.KES:
                m = model_of(text, ke)
                checked.clear()
                parameterization = mpoly_parameterization(m)
                assert checked == [parameterization[0]], (text, ke)
                assert pullback_is_zero(m, parameterization), (text, ke)

    @staticmethod
    def mutated(shape, mutation):
        if mutation == "column":
            rows = [list(row) for row in shape.exponent_matrix]
            rows[0][-1] += 1
            return shape._replace(exponent_matrix=tuple(map(tuple, rows)))
        power = shape.power + (1 if mutation == "power+1" else -1)
        root = None if shape.ke.is_generic else exact_root(shape.ke.value, power)
        return shape._replace(power=power, root=root)

    @pytest.mark.parametrize("mutation", ["column", "power+1", "power-1"])
    def test_composition_check_refuses_a_wrong_map(self, monkeypatch, mutation):
        # a wrong exponent column, or a wrong radical power, makes the exact
        # check raise; the map built from it fails the rational composition
        for text in self.SHAPES:
            for ke in ("generic", "23/71", "8", "4", "27", "-27/4"):
                m = model_of(text, ke)
                shape = map_shape(m.reaction, m.ke)
                if mutation == "power-1" and shape.power == 1:
                    continue
                bad = self.mutated(shape, mutation)
                with pytest.raises(AssertionError,
                                   match="^parameterization fails the composition check$"):
                    model_module._check_composition(m.reaction.stoichiometry, bad)
                with monkeypatch.context() as patch:
                    patch.setattr(model_module, "map_shape", lambda reaction, ke: bad)
                    assert not pullback_is_zero(m, mpoly_parameterization(m)), (text, ke)

    def test_pair_images(self):
        shape, images = build_parameterization(model_of("2A <-> 3B"))
        assert shape.param_vars == ("p0",)
        assert image_text(shape, images["x"]) == "p0^3"
        assert image_text(shape, images["y"]) == "p0^2*s"
        assert shape.radical is not None
        assert (shape.radical.symbol, shape.radical.power) == ("s", 3)
        assert shape.covers_model

    def test_unit_pair_absorbs_ke_directly(self):
        shape, images = build_parameterization(model_of("A <-> B"))
        assert shape.radical is None
        assert image_text(shape, images["y"]) == "p0*K_e"

    def test_two_one_images(self):
        shape, images = build_parameterization(model_of("A + B <-> 2C"))
        assert shape.param_vars == ("t0", "t1")
        assert image_text(shape, images["x"]) == "t0^2"
        assert image_text(shape, images["y"]) == "t1^2"
        assert image_text(shape, images["z"]) == "t0*t1*s"
        assert shape.exponent_matrix == ((2, 0, 1), (0, 2, 1))

    def test_exact_radical_absorbed(self):
        # K_e = 4 with square radical: s = 2 exactly, no symbol left
        shape, images = build_parameterization(model_of("A + B <-> 2C", 4))
        assert shape.radical is None
        assert image_text(shape, images["z"]) == "2*t0*t1"

    def test_inexact_radical_kept_symbolic(self):
        shape, _ = build_parameterization(model_of("A + B <-> 2C", 5))
        assert shape.radical is not None
        assert str(shape.radical) == "s^2 = 5"

    def test_chain_does_not_cover(self):
        shape, _ = build_parameterization(model_of("A + B + C <-> D + E + F"))
        assert not shape.covers_model
        assert any("does not cover" in c for c in shape.caveats)
        assert shape.param_vars == ("p0",)

    def test_non_coprime_shapes_flag_branch(self):
        shape, _ = build_parameterization(model_of("2A <-> 2B"))
        assert not shape.covers_model
        assert any("irreducible branch" in c for c in shape.caveats)

    def test_segre_has_closed_form(self):
        assert build_parameterization(model_of("A + B <-> C + D")) is None

    def test_unsupported_raises_with_shape_list(self):
        with pytest.raises(UnsupportedReactionError) as info:
            build_parameterization(model_of("A + B <-> 2C + D"))
        assert "supported shapes" in str(info.value)
        assert "(IV)" in str(info.value)

    def test_ke_zero_has_no_parameterization(self):
        with pytest.raises(ValueError):
            build_parameterization(model_of("A + B <-> 2C", 0))


class TestFiberDegree:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("A <-> B", 1),
            ("2A <-> 3B", 1),
            ("2A <-> 2B", 1),
            ("A + B <-> 2C", 2),
            ("A + B <-> 3C", 3),
            ("2A + 2B <-> 2C", 4),
            ("2A + 2B <-> C", 1),
            ("A + 2B <-> C", 1),
            ("N2 + 3H2 <-> 2NH3", 2),
            ("A + B + C <-> D + E + F", 1),
        ],
    )
    def test_values(self, text, expected):
        m = model_of(text)
        assert fiber_degree(map_shape(m.reaction, m.ke)) == expected


class TestReduceRadical:
    def test_folding(self):
        shape, _ = build_parameterization(model_of("A + B <-> 2C", 5))
        ctx = VarContext(shape.param_vars + shape.constants)
        s = MPoly.var(ctx, "s")
        assert reduce_radical(s ** 2, shape.radical) == MPoly.const(ctx, 5)
        assert reduce_radical(s ** 3, shape.radical) == 5 * s
        assert reduce_radical(s ** 7, shape.radical) == 125 * s

    def test_generic_folds_into_ke(self):
        shape, _ = build_parameterization(model_of("A + B <-> 2C"))
        ctx = VarContext(shape.param_vars + shape.constants)
        s = MPoly.var(ctx, "s")
        k = MPoly.var(ctx, "K_e")
        assert reduce_radical(s ** 2, shape.radical) == k
        assert reduce_radical(s ** 5, shape.radical) == k ** 2 * s

    def test_no_relation_is_identity(self):
        ctx = VarContext(("x",))
        f = MPoly.var(ctx, "x") + 1
        assert reduce_radical(f, None) == f


class TestClassifyKe:
    """K_e is degenerate where the faithful count drops below the generic
    one; a rational K_e <= 0 is also nonphysical."""

    def test_generic(self):
        model = model_of("A + B <-> 2C")
        assert not faithful_report(model).degeneracy
        assert model.ke.positivity_flag

    def test_degenerate_square(self):
        report = faithful_report(model_of("A + B <-> 2C", 4))
        assert report.degeneracy
        assert "drops" in report.degeneracy_description

    def test_zero(self):
        model = model_of("A <-> B", 0)
        assert faithful_report(model).degeneracy
        assert not model.ke.positivity_flag

    def test_negative_pair(self):
        model = model_of("A <-> B", -1)
        assert faithful_report(model).degeneracy
        assert not model.ke.positivity_flag

    def test_ordinary_value_is_generic(self):
        assert not faithful_report(model_of("A + B <-> 2C", 5)).degeneracy
