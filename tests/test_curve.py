"""Plane-curve route: restrictions, arrangement counts, smoothness, numerics.

The numeric critical-point counter is checked against a closed-form oracle:
on K*x*y = z^2 with x+y+z = 1, eliminating the multipliers by hand leaves
(K-4) z^2 - 2K z + K (1 - D^2) = 0 with D = (u0-u1)/sum(u), so the two
critical points are known exactly and independently of the implementation.
"""

import ast
import cmath
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mldeg import curve as curve_module
from mldeg.catalog import load_catalog
from mldeg import variety as variety_module
from mldeg.curve import (
    CurveContainsLineError,
    arrangement_count,
    curve_from_model,
    curve_ml_report,
    plane_curve,
    route_report,
    smoothness_check,
)
from mldeg.intpoly import VarContext
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly
from mldeg.reaction import parse_reaction
from mldeg.variety import count_critical_points_variety

from reference import (
    cast,
    curve_poly,
    eval_complex,
    float_smoothness_check,
    integer_form,
    partial_derivative,
    plane_curve_of,
    restrict_to_line,
    substitute,
    variety_critical_system,
)

CTX = VarContext(("x", "y", "z"))

# Every curve command (ml-degree --method curve or both, and catalog)
# compiles curve.py from source when no bytecode cache is written; it is
# the largest module they compile.  The pin bounds its syntax tree, not that
# compile's peak memory, which grows with the parser's token count (printed
# by CI's size step) and not with the node count; keep the tree no larger
# than it is.
CURVE_AST_NODE_BUDGET = 2700


def test_curve_module_stays_within_its_ast_node_budget():
    src = Path(curve_module.__file__).read_text(encoding="utf-8")
    assert sum(1 for _ in ast.walk(ast.parse(src))) <= CURVE_AST_NODE_BUDGET

CURVE_PINS = json.loads((Path(__file__).parent / "curve_reports.json").read_text(encoding="utf-8"))
X, Y, Z = (MPoly.var(CTX, n) for n in ("x", "y", "z"))


def curve_of(text, ke="generic"):
    model = build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))
    return curve_from_model(model)


def conic_oracle_points(ke, u):
    """The two critical points of K*x*y = z^2, x+y+z = 1, in closed form."""
    n = sum(u)
    d = (u[0] - u[1]) / n
    a, b, c = ke - 4.0, -2.0 * ke, ke * (1.0 - d * d)
    if a == 0:
        zs = [-c / b]
    else:
        disc = cmath.sqrt(b * b - 4 * a * c)
        zs = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
    points = []
    for z in zs:
        points.append(((1 - z + d) / 2, (1 - z - d) / 2, z))
    return points


def proj_gap(p, q):
    """Projective distance: max cross-product entry of two representatives."""
    terms = []
    for i in range(3):
        for j in range(i + 1, 3):
            terms.append(abs(p[i] * q[j] - p[j] * q[i]))
    return max(terms)


def same_poly(f, g):
    """Equality across contexts (restriction drops unused variables)."""
    return f == cast(g, f.ctx)


class TestConstruction:
    def test_rejects_zero_and_inhomogeneous(self):
        with pytest.raises(ValueError):
            plane_curve_of(MPoly.zero(CTX))
        with pytest.raises(ValueError):
            plane_curve_of(X * Y - Z)
        with pytest.raises(ValueError):
            plane_curve_of(MPoly.const(CTX, 3))

    def test_rejects_keys_without_coordinates(self):
        # a key shorter than (x, y, z), or keys of mixed lengths, have no
        # coordinate layout to read a degree from, and a key with two
        # constants after them has no one exponent to key a coefficient by
        for form in ({(1, 1): 1}, {(1,): 2, (0,): -1}, {(2, 0, 0): 1, (0, 1, 1, 1): -1},
                     {(1, 1, 0, 0, 1): 1, (0, 0, 2, 1, 0): -1}):
            with pytest.raises(ValueError, match="^plane curve needs coordinates x, y, z"):
                plane_curve(form, 1)
        assert plane_curve({(1, 1, 0, 0): 1, (0, 0, 2, 1): -1}, 3).degree == 2

    def test_degree_recorded(self):
        assert plane_curve_of(X * Y - Z * Z).degree == 2
        assert curve_of("A + B <-> 3C").degree == 3
        assert curve_of("2A + 2B <-> C").degree == 4

    def test_generic_constant_allowed_in_context(self):
        curve = curve_of("A + B <-> 2C")
        assert "K_e" in curve_poly(curve).ctx
        assert {len(e) for e in curve.form} == {4}
        assert curve.degree == 2

    def test_two_species_model_rejected(self):
        model = build_model(parse_reaction("A <-> B"), EquilibriumConstant.generic())
        with pytest.raises(ValueError):
            curve_from_model(model)


class TestRestrictions:
    def test_conic_on_coordinate_line(self):
        curve = curve_of("A + B <-> 2C", 5)
        assert same_poly(restrict_to_line(curve, "x"), -(Z * Z))
        assert same_poly(restrict_to_line(curve, "z"), 5 * X * Y)

    def test_hardy_weinberg_on_sum_line(self):
        # 4xy - z^2 restricted to z = -(x+y) collapses to -(x-y)^2
        curve = curve_of("A + B <-> 2C", 4)
        assert same_poly(restrict_to_line(curve, "L"), -((X - Y) ** 2))

    def test_contained_line_flagged(self):
        curve = plane_curve_of(X * (X + Y))
        with pytest.raises(CurveContainsLineError) as info:
            restrict_to_line(curve, "x")
        assert info.value.line == "x"

    def test_unknown_line_rejected(self):
        with pytest.raises(ValueError):
            restrict_to_line(curve_of("A + B <-> 2C"), "w")


class TestArrangement:
    def test_generic_conic(self):
        for ke in ("generic", "5", "2"):
            count = arrangement_count(curve_of("A + B <-> 2C", ke))
            assert count.per_line_distinct == (1, 1, 2, 2)
            assert count.shared_point_correction == 2
            assert count.a == 4

    def test_hardy_weinberg_conic(self):
        # the sum line is tangent at (1 : 1 : -2): one distinct point
        count = arrangement_count(curve_of("A + B <-> 2C", 4))
        assert count.per_line_distinct == (1, 1, 2, 1)
        assert count.shared_point_correction == 2
        assert count.a == 3

    def test_degenerate_pure_power(self):
        count = arrangement_count(curve_of("A + B <-> 2C", 0))
        assert count.per_line_distinct == (1, 1, 0, 0)
        assert count.shared_point_correction == 0
        assert count.a == 2
        assert len(count.caveats) == 2

    def test_cubic(self):
        count = arrangement_count(curve_of("A + B <-> 3C"))
        assert count.per_line_distinct == (1, 1, 3, 1)
        assert count.shared_point_correction == 3
        assert count.a == 3

    def test_contained_line_skipped_with_caveat(self):
        count = arrangement_count(plane_curve_of(X * (X + Y + 3 * Z)))
        assert count.per_line_distinct[0] == 0
        assert any("skipped in the count" in c for c in count.caveats)


class TestSmoothness:
    def test_conics_certified_smooth(self):
        for ke in ("generic", "5", "4"):
            report = smoothness_check(curve_of("A + B <-> 2C", ke))
            assert report.status == "smooth"

    def test_cubic_certified_smooth_symbolically(self):
        assert smoothness_check(curve_of("A + B <-> 3C")).status == "smooth"
        assert smoothness_check(curve_of("A + B <-> 3C", 5)).status == "smooth"

    def test_degree_one_smooth(self):
        assert smoothness_check(plane_curve_of(X + 2 * Y - Z)).status == "smooth"

    def test_pure_power_singular(self):
        report = smoothness_check(curve_of("A + B <-> 2C", 0))
        assert report.status == "singular"
        assert "non-reduced" in report.detail

    def test_quartic_singular_point_exact(self):
        # K x^2 y^2 - z L^3 vanishes doubly at (0 : 1 : -1) for every K
        curve = curve_of("2A + 2B <-> C")
        point = {"x": Fraction(0), "y": Fraction(1), "z": Fraction(-1)}
        F = curve_poly(curve)
        assert substitute(F, point).is_zero()
        for name in ("x", "y", "z"):
            assert substitute(partial_derivative(F, name), point).is_zero()

    def test_quartic_singularity_found_numerically(self):
        report = smoothness_check(curve_of("2A + 2B <-> C", 5))
        assert report.status == "singular"
        # the witness must be one of the two mirror-image singular points
        gaps = []
        for exact in ((0, 1, -1), (1, 0, -1)):
            cross = max(
                abs(a * d - b * c)
                for (a, b), (c, d) in (
                    ((report.witness[0], report.witness[1]), (exact[0], exact[1])),
                    ((report.witness[1], report.witness[2]), (exact[1], exact[2])),
                    ((report.witness[0], report.witness[2]), (exact[0], exact[2])),
                )
            )
            gaps.append(cross)
        assert min(gaps) < 1e-5

    @pytest.mark.parametrize(
        "text", ["2A + 2B <-> C", "3A + B <-> C", "A + 3B <-> 2C", "3A + 3B <-> 3C"]
    )
    def test_shared_factor_witness_is_real(self, text):
        # at K_e = 0 the partials share a factor and a rational probe line
        # meets it in a repeated root: the witness must be real, not an
        # Aberth cluster point with a spurious imaginary part
        report = smoothness_check(curve_of(text, 0))
        assert report.status == "singular"
        assert all(abs(c.imag) < 1e-12 for c in report.witness), report.witness

    @pytest.mark.parametrize(
        "text", ["2A + 2B <-> C", "3A + B <-> C", "2A + 3B <-> C", "A + 4B <-> C"]
    )
    def test_rational_root_witness_is_exact(self, text):
        # at K_e = 5 the node sits at a rational root of the patch eliminant
        # gcd and is a repeated root of the line through it: substituting the
        # root exactly gives the node itself, not an Aberth cluster point
        report = smoothness_check(curve_of(text, 5))
        assert report.status == "singular"
        assert all(abs(c.imag) < 1e-12 for c in report.witness), report.witness
        assert min(proj_gap(report.witness, node) for node in ((1, 0, -1), (0, 1, -1))) < 1e-12

    def test_symbolic_quartics_undetermined(self):
        for text in ("2A + 2B <-> 2C", "2A + 2B <-> C", "N2 + 3H2 <-> 2NH3",
                     "3A + 4B <-> 5C"):
            assert smoothness_check(curve_of(text)).status == "undetermined"

    def test_generic_ke_decided_over_the_rationals(self, monkeypatch):
        # a generic K_e is decided at one rational sample: no gcd over Q(K_e)
        # and no Bareiss over polynomial entries is needed; the curve route
        # takes a gcd over Q(K_e) only in the arrangement count's
        # _distinct_projective_roots
        def refuse(*args, **kwargs):
            raise AssertionError("symbolic elimination called")

        monkeypatch.setattr(curve_module, "_distinct_projective_roots", refuse)
        for text in ("A + B <-> 3C", "A + B <-> C"):
            assert smoothness_check(curve_of(text)).status == "smooth"
        for text in ("2A + 2B <-> C", "3A + 4B <-> 5C"):
            report = smoothness_check(curve_of(text))
            assert (report.status, report.witness, report.detail) == (
                "undetermined", None,
                "exact candidates in patch z = 1 lack numeric confirmation",
            )


def _shaped(k, species):
    return species if k == 1 else f"{k}{species}"


class TestFloatBoundary:
    """The float evaluator over integer maps, which only the variety route
    uses, and the curves whose singular points no exact candidate finds."""

    def test_float_value_is_the_rational_evaluation(self):
        # bit for bit the term-by-term evaluation of G / scale, signed
        # zeros included
        rng = random.Random(47)
        for _ in range(300):
            G = {}
            for _ in range(rng.randrange(1, 9)):
                exp = tuple(rng.randrange(4) for _ in range(3))
                G[exp] = rng.choice((-1, 1)) * rng.randrange(1, 10 ** 6)
            scale = rng.randrange(1, 10 ** 4)
            point = tuple(complex(rng.uniform(-2, 2), rng.choice((0.0, -0.0, rng.uniform(-2, 2))))
                          for _ in range(3))
            want = eval_complex(MPoly(CTX, {e: Fraction(c, scale) for e, c in G.items()}),
                                dict(zip(("x", "y", "z"), point)))
            assert repr(variety_module._float_evaluator(G, scale)(point)) == repr(want)

    def test_witnesses_pinned(self):
        # partials sharing a factor, found on sampled rational lines, and
        # nodes at rational points off the integer grid, snapped to them,
        # by the float search; the engine tests only the arrangement points
        # of a hand-built curve, so it leaves the first, third and fourth
        # undetermined and finds the second singular along the sum line, at
        # the arrangement point (1 : 0 : -1)
        a, b = 3 * X - Z, 2 * Y - Z
        curves = [plane_curve_of(F) for F in (
            (X - 2 * Y - Z) ** 2 * (Y + 5 * Z),
            (X - 2 * Y - 3 * Z) ** 2 * (X + Y + Z) ** 2,
            b * b * Z - a * a * (a + Z),
            (5 * X - 2 * Z) ** 2 * Z - (3 * Y - Z) ** 3,
        )]
        undetermined = curve_module.SmoothnessReport(
            "undetermined", None, "exact candidates in patch z = 1 lack numeric confirmation")
        assert [smoothness_check(curve) for curve in curves] == [
            undetermined,
            curve_module.SmoothnessReport("singular", (1 + 0j, 0j, -1 + 0j),
                                          "confirmed in patch x = 1"),
            undetermined,
            undetermined,
        ]
        reports = [float_smoothness_check(curve) for curve in curves]
        assert {(r.status, r.detail) for r in reports} == {("singular", "confirmed in patch x = 1")}
        assert [repr(r.witness) for r in reports] == [
            "((1+0j), (0.5-0j), 0j)",
            "((1+0j), (-1+3.2311742677852644e-27j), 0j)",
            "((0.33333333333333326+0j), (0.49999999999999994+0j), (1-2.2058149668080733e-24j))",
            "((0.4+0j), (0.33333333333333337+0j), (1-0j))",
        ]


# nA + mB <-> pC and nA <-> mB + pC for n, m, p <= 3
SMALL_CURVES = tuple(
    text
    for n in range(1, 4)
    for m in range(1, 4)
    for p in range(1, 4)
    for text in (
        f"{_shaped(n, 'A')} + {_shaped(m, 'B')} <-> {_shaped(p, 'C')}",
        f"{_shaped(n, 'A')} <-> {_shaped(m, 'B')} + {_shaped(p, 'C')}",
    )
)
# the ml-degree --method both reactions of the benchmark's certify workload;
# the last two reactions run at a seeded numeric K_e there
CERTIFY_RUNGS = (
    ("2A + 3B <-> 4C", "generic"),
    ("3A + 2B <-> 4C", "generic"),
    ("3A + 4B <-> 5C", "generic"),
    ("2A + B <-> 3C", "generic"),
    ("2A + B <-> 3C", "29/73"),
    ("3A + B <-> 4C", "generic"),
    ("3A + B <-> 4C", "29/73"),
)


def _catalog_curves():
    pairs = []
    for entry in load_catalog():
        model = build_model(parse_reaction(entry.reaction_text), entry.ke)
        if len(model.species_vars) == 3:
            pairs += [(entry.reaction_text, entry.ke_spec), (entry.reaction_text, "generic")]
    return tuple(dict.fromkeys(pairs))


class TestArrangementWitness:
    """A patch with a common zero of its partials at an exact candidate (an
    arrangement point, or a model curve's node) is decided before
    elimination: pending at a generic K_e, the verdict elimination
    reaches, and singular at a numeric one, with the candidate as
    witness."""

    @pytest.mark.parametrize(
        "pairs",
        [
            tuple((text, "generic") for text in SMALL_CURVES),
            _catalog_curves(),
            CERTIFY_RUNGS,
        ],
        ids=["small-curves", "catalog", "certify-rungs"],
    )
    def test_reports_equal_without_the_witness(self, pairs, monkeypatch):
        # at a generic K_e; a numeric K_e is decided by the candidates
        pairs = [(text, ke) for text, ke in pairs if ke == "generic"]
        with_witness = [curve_ml_report(curve_of(text, ke)) for text, ke in pairs]
        monkeypatch.setattr(curve_module, "_candidate_zero", lambda *args: None)
        without = [curve_ml_report(curve_of(text, ke)) for text, ke in pairs]
        assert with_witness == without

    def test_witness_decides_undetermined_curves(self, monkeypatch):
        # every patch these curves leave open is witnessed on the arrangement
        def refuse(*args, **kwargs):
            raise AssertionError("elimination called on a witnessed patch")

        monkeypatch.setattr(curve_module, "_integer_resultant", refuse)
        monkeypatch.setattr(curve_module, "_integer_gcd", refuse)
        for text in ("3A + 3B <-> 3C", "3A + 4B <-> 5C"):
            report = smoothness_check(curve_of(text))
            assert (report.status, report.witness, report.detail) == (
                "undetermined", None,
                "exact candidates in patch z = 1 lack numeric confirmation",
            )

    def test_numeric_ke_witness_unchanged(self):
        # a numeric K_e is decided by its exact candidate (0 : 1 : 0)
        report = curve_ml_report(curve_of("2A + B <-> 3C", "29/73"))
        assert report.smoothness == curve_module.SmoothnessReport(
            "singular", (0j, 1 + 0j, 0j), "confirmed in patch y = 1"
        )
        assert report.caveats == (
            "smooth-curve count formula inapplicable: singular point near (0 : 1 : 0)",
        )

    def test_witness_needs_every_partial(self):
        # x^2 + y^2 + z^2 + yz: at (1 : 0 : 0), in the patch x = 1, the
        # partials 2y + z and 2z + y vanish but 2x does not
        F = X**2 + Y**2 + Z**2 + Y * Z
        reduced = [integer_form(partial_derivative(F, n))[0] for n in "yzx"]
        points = [point for point, _ in curve_module.ARRANGEMENT_POINTS]
        assert curve_module._candidate_zero(0, reduced, points) is None
        assert curve_module._candidate_zero(0, reduced[:2], points) == (1, 0, 0)

    @pytest.mark.parametrize("text, ke, witness, without_node", [
        ("A + B <-> 3C", "27", (1 / 3 + 0j, 1 / 3 + 0j, -1 + 0j),
         ("undetermined", None, "exact candidates in patch z = 1 lack numeric confirmation")),
        ("2A + B <-> C", "-1", (1 + 0j, 0.5 + 0j, -0.5 + 0j),
         ("singular", (0j, 1 + 0j, -1 + 0j), "confirmed in patch y = 1")),
    ])
    def test_node_decides_off_the_arrangement(self, text, ke, witness, without_node,
                                              monkeypatch):
        # at K_e*, the node at the stoichiometry c is the only singular
        # point in the patch x = 1, and decides with no elimination; a
        # hand-built copy of the curve, without the node, is undetermined,
        # or finds the arrangement point (0 : 1 : -1) that 2A + B <-> C has
        # for every K_e
        def refuse(*args, **kwargs):
            raise AssertionError("elimination called on a witnessed patch")

        curve = curve_of(text, ke)
        assert curve.node == parse_reaction(text).stoichiometry
        assert smoothness_check(plane_curve(curve.form, curve.scale)) == without_node
        monkeypatch.setattr(curve_module, "_integer_resultant", refuse)
        monkeypatch.setattr(curve_module, "_integer_gcd", refuse)
        assert smoothness_check(curve) == curve_module.SmoothnessReport(
            "singular", witness, "confirmed in patch x = 1")


class TestPatchExits:
    """A generic K_e stops at its first pending patch, walking back from z,
    and a patch stops eliminating once its running eliminant gcd is
    constant; neither exit changes a verdict."""

    @pytest.mark.parametrize("text, calls", [("N2 + 3H2 <-> 2NH3", 0), ("A + B <-> 3C", 7)])
    def test_resultant_calls_at_generic_ke(self, text, calls, monkeypatch):
        # N2 + 3H2 <-> 2NH3 is pending in patch z by its arrangement witness,
        # so patches y and x make no resultant (3 with the walk from x);
        # A + B <-> 3C is smooth, and patches z and y are clean after two of
        # their three resultants (9 without the exits)
        made = []
        kernel = curve_module._integer_resultant
        monkeypatch.setattr(curve_module, "_integer_resultant",
                            lambda *rows: made.append(rows) or kernel(*rows))
        smoothness_check(curve_of(text))
        assert len(made) == calls

    @pytest.mark.parametrize("text", SMALL_CURVES)
    def test_first_pending_from_z_is_the_last_from_x(self, text):
        # every patch searched in full, from x: the last pending one is the
        # patch the report names, and a curve with none pending is smooth
        curve = curve_of(text)
        report = smoothness_check(curve)
        G, _ = curve_module._bound_form(curve.form, curve.scale)
        reduced = [q for q in curve_module._partials(G) if q]
        pending = [
            curve_module.COORDS[patch] for patch in range(3)
            if all(any(e[i] for e in q for i in range(3) if i != patch) for q in reduced)
            and curve_module._patch_singular_search(reduced, patch, []) != "clean"
        ]
        if pending:
            assert report.detail == (
                f"exact candidates in patch {pending[-1]} = 1 lack numeric confirmation")
        else:
            assert report.status == "smooth"


class TestCurveCount:
    def test_conic_counts(self):
        assert curve_ml_report(curve_of("A + B <-> 2C", 5)).ml_degree == 2
        assert curve_ml_report(curve_of("A + B <-> 2C")).ml_degree == 2
        assert curve_ml_report(curve_of("A + B <-> 2C", 4)).ml_degree == 1
        assert curve_ml_report(curve_of("A + B <-> 2C", 0)).ml_degree == 0

    def test_cubic_count(self):
        assert curve_ml_report(curve_of("A + B <-> 3C")).ml_degree == 3

    def test_singular_curve_refused(self):
        report = curve_ml_report(curve_of("2A + 2B <-> C", 5))
        assert report.ml_degree is None
        assert report.smoothness.status == "singular"
        assert report.smoothness.witness is not None
        assert any("inapplicable" in c for c in report.caveats)

    def test_undetermined_smoothness_refused(self):
        report = curve_ml_report(curve_of("2A + 2B <-> 2C"))
        assert report.ml_degree is None
        assert report.smoothness.status == "undetermined"

    def test_random_smooth_dense_conics_hit_bezout_bound(self):
        # generic conics meet the arrangement in a = 4d = 8 points, so the
        # count formula gives d(d+1) = 6
        rng = random.Random(41)
        found = 0
        for _ in range(40):
            terms = {}
            for exp in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
                c = 0
                while c == 0:
                    c = rng.randrange(-9, 10)
                terms[exp] = Fraction(c)
            curve = plane_curve_of(MPoly(CTX, terms))
            if smoothness_check(curve).status != "smooth":
                continue
            if arrangement_count(curve).a != 8:
                continue
            assert curve_ml_report(curve).ml_degree == 6
            found += 1
            if found == 3:
                break
        assert found == 3


class TestReportForm:
    def test_smooth_report_dict(self):
        d = curve_ml_report(curve_of("A + B <-> 2C", 5)).to_dict()
        assert d["method"] == "curve"
        assert d["degree"] == 2
        assert d["smoothness"] == "smooth"
        assert d["arrangement_a"] == 4
        assert d["per_line_distinct"] == [1, 1, 2, 2]
        assert d["ml_degree_curve"] == 2

    def test_pure_power_report(self):
        report = curve_ml_report(curve_of("A + B <-> 2C", 0))
        assert report.ml_degree == 0
        assert any("degenerate-case convention" in c for c in report.caveats)

    def test_singular_report(self):
        report = curve_ml_report(curve_of("2A + 2B <-> C", 5))
        assert report.ml_degree is None
        assert any("inapplicable" in c for c in report.caveats)

    def test_undetermined_report(self):
        report = curve_ml_report(curve_of("2A + 2B <-> 2C"))
        assert report.ml_degree is None
        assert any("undetermined" in c for c in report.caveats)

    @pytest.mark.parametrize("text", ["A <-> 2B", "A + B <-> C + D", "CO + 3H2 <-> CH4 + H2O"])
    def test_route_declines_without_three_species(self, text):
        for ke in ("generic", "0", "7/3"):
            model = build_model(parse_reaction(text), EquilibriumConstant.parse(ke))
            assert route_report(model).to_dict() == {
                "method": "curve", "degree": None, "smoothness": None,
                "arrangement_a": None, "per_line_distinct": None,
                "ml_degree_curve": None,
                "caveats": ["curve route needs exactly 3 species"],
            }


class TestVarietySystem:
    def test_second_equation_degree(self):
        curve = curve_of("A + B <-> 2C", 5)
        eq1, eq2 = variety_critical_system(curve, (2, 3, 5))
        assert eq1 == curve_poly(curve)
        degrees = {sum(e) for e, _ in eq2.items()}
        assert degrees == {curve.degree + 1}

    def test_counts_validated(self):
        # the reference system and the engine's count refuse alike
        curve = curve_of("A + B <-> 2C", 5)
        for build in (variety_critical_system, count_critical_points_variety):
            with pytest.raises(ValueError, match="^variety critical system needs 3 observation"):
                build(curve, (1, 2))
            with pytest.raises(ValueError, match="^observation counts must be positive$"):
                build(curve, (1, 0, 2))


class TestNumericCount:
    def test_conic_matches_closed_form_oracle(self):
        u = (2, 3, 5)
        for ke in (2, 5, 7):
            count, points = count_critical_points_variety(curve_of("A + B <-> 2C", ke), u)
            expected = conic_oracle_points(float(ke), u)
            assert count == len(expected) == 2
            for target in expected:
                assert min(proj_gap(p["coords"], target) for p in points) < 1e-8
            for p in points:
                assert p["residual_max"] < 1e-9

    def test_hardy_weinberg_single_point(self):
        count, points = count_critical_points_variety(curve_of("A + B <-> 2C", 4), (30, 30, 40))
        assert count == 1
        # (1/4, 1/4, 1/2) normalized by the max coordinate
        assert max(abs(a - b) for a, b in zip(points[0]["coords"], (0.5, 0.5, 1.0))) < 1e-9

    def test_cubic_count(self):
        for ke in (2, 5):
            count, points = count_critical_points_variety(curve_of("A + B <-> 3C", ke), (3, 4, 5))
            assert count == 3
            assert all(p["residual_max"] < 1e-9 for p in points)

    def test_bezout_ceiling(self):
        for text, ke in (("A + B <-> 2C", 5), ("A + B <-> 3C", 2)):
            curve = curve_of(text, ke)
            d = curve.degree
            count, _ = count_critical_points_variety(curve, (3, 4, 5))
            assert count <= d * (d + 1)

    def test_u_scaling_projective_invariance(self):
        curve = curve_of("A + B <-> 2C", 5)
        base_count, base = count_critical_points_variety(curve, (2, 3, 5))
        scaled_count, scaled = count_critical_points_variety(curve, (6, 9, 15))
        assert base_count == scaled_count
        for p in base:
            assert min(proj_gap(p["coords"], q["coords"]) for q in scaled) < 1e-8

    def test_integer_determinant_equation_matches_reference(self):
        # on every pinned curve at a numeric K_e, the integer determinant
        # equation is the rational one times the curve's scale and the lcm
        # of the count denominators, at seeded integer and rational counts
        rng = random.Random(43)
        pins = [case for case in CURVE_PINS if not case.endswith("@ generic")]
        assert len(pins) == 383
        for case in pins:
            text, ke = case.split(" @ ")
            curve = curve_of(text, ke)
            G, scale = curve.form, curve.scale
            integer = tuple(rng.randint(1, 10 ** 6) for _ in range(3))
            rational = tuple(Fraction(rng.randint(1, 99), rng.randint(1, 12)) for _ in range(3))
            for u in (integer, rational):
                D, den = variety_module._determinant_form(G, u)
                assert den == math.lcm(*(Fraction(c).denominator for c in u))
                want = variety_critical_system(curve, u)[1] * (scale * den)
                assert MPoly(CTX, D) == want, (case, u)

    def test_degenerate_systems_refused(self):
        # a line's determinant equation vanishes identically; x*z with equal
        # outer counts leaves both patch equations free of y
        with pytest.raises(ValueError, match="^resultant of a zero polynomial$"):
            count_critical_points_variety(plane_curve_of(X + Y + Z), (1, 2, 3))
        with pytest.raises(ValueError, match="^both polynomials have degree 0 in the elim"):
            count_critical_points_variety(plane_curve_of(X * Z), (1, 1, 1))
        assert count_critical_points_variety(plane_curve_of(X * Z), (1, 2, 3)) == (0, [])

    def test_symbolic_constant_rejected(self):
        with pytest.raises(ValueError):
            count_critical_points_variety(curve_of("A + B <-> 2C"), (1, 1, 1))

    def test_non_reduced_rejected(self):
        with pytest.raises(ValueError):
            count_critical_points_variety(curve_of("A + B <-> 2C", 0), (1, 1, 1))
