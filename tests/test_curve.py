"""Plane-curve route: restrictions, arrangement counts, smoothness, numerics.

The numeric critical-point counter is checked against a closed-form oracle:
on K*x*y = z^2 with x+y+z = 1, eliminating the multipliers by hand leaves
(K-4) z^2 - 2K z + K (1 - D^2) = 0 with D = (u0-u1)/sum(u), so the two
critical points are known exactly and independently of the implementation.
"""

import cmath
import random
from fractions import Fraction

import pytest

from mldeg import curve as curve_module
from mldeg import poly as poly_module
from mldeg.catalog import load_catalog
from mldeg.curve import (
    CurveContainsLineError,
    arrangement_count,
    count_critical_points_variety,
    curve_from_model,
    curve_ml_report,
    plane_curve,
    restrict_to_line,
    smoothness_check,
    variety_critical_system,
)
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly, VarContext
from mldeg.reaction import parse_reaction

CTX = VarContext(("x", "y", "z"))
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
    return f == g.cast(f.ctx)


class TestConstruction:
    def test_rejects_zero_and_inhomogeneous(self):
        with pytest.raises(ValueError):
            plane_curve(MPoly.zero(CTX))
        with pytest.raises(ValueError):
            plane_curve(X * Y - Z)
        with pytest.raises(ValueError):
            plane_curve(MPoly.const(CTX, 3))

    def test_degree_recorded(self):
        assert plane_curve(X * Y - Z * Z).degree == 2
        assert curve_of("A + B <-> 3C").degree == 3
        assert curve_of("2A + 2B <-> C").degree == 4

    def test_generic_constant_allowed_in_context(self):
        curve = curve_of("A + B <-> 2C")
        assert "K_e" in curve.F_hom.ctx
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
        curve = plane_curve(X * (X + Y))
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
        count = arrangement_count(plane_curve(X * (X + Y + 3 * Z)))
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
        assert smoothness_check(plane_curve(X + 2 * Y - Z)).status == "smooth"

    def test_pure_power_singular(self):
        report = smoothness_check(curve_of("A + B <-> 2C", 0))
        assert report.status == "singular"
        assert "non-reduced" in report.detail

    def test_quartic_singular_point_exact(self):
        # K x^2 y^2 - z L^3 vanishes doubly at (0 : 1 : -1) for every K
        curve = curve_of("2A + 2B <-> C")
        point = {"x": Fraction(0), "y": Fraction(1), "z": Fraction(-1)}
        assert curve.F_hom.substitute(point).is_zero()
        for name in ("x", "y", "z"):
            assert curve.F_hom.partial_derivative(name).substitute(point).is_zero()

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
        # and no Bareiss over polynomial entries is needed
        def refuse(*args, **kwargs):
            raise AssertionError("symbolic elimination called")

        for module in (curve_module, poly_module):
            monkeypatch.setattr(module, "_gcd_degree", refuse)
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
    """A generic-K_e patch with a common zero of its partials on the
    arrangement is decided before elimination, with the verdict elimination
    reaches."""

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
        with_witness = [curve_ml_report(curve_of(text, ke)) for text, ke in pairs]
        monkeypatch.setattr(curve_module, "_arrangement_witness", lambda *args: False)
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
        # a numeric K_e still searches and confirms its singular point
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
        F = plane_curve(X**2 + Y**2 + Z**2 + Y * Z).F_hom
        reduced = [curve_module._integer_form(F.partial_derivative(n), bind=True)[0]
                   for n in "yzx"]
        assert not curve_module._arrangement_witness(0, reduced)
        assert curve_module._arrangement_witness(0, reduced[:2])


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
            curve = plane_curve(MPoly(CTX, terms))
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


class TestVarietySystem:
    def test_second_equation_degree(self):
        curve = curve_of("A + B <-> 2C", 5)
        eq1, eq2 = variety_critical_system(curve, (2, 3, 5))
        assert eq1 == curve.F_hom
        degrees = {sum(e) for e, _ in eq2.items()}
        assert degrees == {curve.degree + 1}

    def test_counts_validated(self):
        curve = curve_of("A + B <-> 2C", 5)
        with pytest.raises(ValueError):
            variety_critical_system(curve, (1, 2))
        with pytest.raises(ValueError):
            variety_critical_system(curve, (1, 0, 2))


class TestNumericCount:
    def test_conic_matches_closed_form_oracle(self):
        u = (2, 3, 5)
        for ke in (2, 5, 7):
            count, points, _ = count_critical_points_variety(curve_of("A + B <-> 2C", ke), u)
            expected = conic_oracle_points(float(ke), u)
            assert count == len(expected) == 2
            for target in expected:
                assert min(proj_gap(p["coords"], target) for p in points) < 1e-8
            for p in points:
                assert p["residual_max"] < 1e-9

    def test_hardy_weinberg_single_point(self):
        count, points, _ = count_critical_points_variety(curve_of("A + B <-> 2C", 4), (30, 30, 40))
        assert count == 1
        # (1/4, 1/4, 1/2) normalized by the max coordinate
        assert max(abs(a - b) for a, b in zip(points[0]["coords"], (0.5, 0.5, 1.0))) < 1e-9

    def test_cubic_count(self):
        for ke in (2, 5):
            count, points, _ = count_critical_points_variety(curve_of("A + B <-> 3C", ke), (3, 4, 5))
            assert count == 3
            assert all(p["residual_max"] < 1e-9 for p in points)

    def test_bezout_ceiling(self):
        for text, ke in (("A + B <-> 2C", 5), ("A + B <-> 3C", 2)):
            curve = curve_of(text, ke)
            d = curve.degree
            count, _, _ = count_critical_points_variety(curve, (3, 4, 5))
            assert count <= d * (d + 1)

    def test_u_scaling_projective_invariance(self):
        curve = curve_of("A + B <-> 2C", 5)
        base_count, base, _ = count_critical_points_variety(curve, (2, 3, 5))
        scaled_count, scaled, _ = count_critical_points_variety(curve, (6, 9, 15))
        assert base_count == scaled_count
        for p in base:
            assert min(proj_gap(p["coords"], q["coords"]) for q in scaled) < 1e-8

    def test_returns_the_determinant_equation_it_solved(self):
        for text, ke, u in (("A + B <-> 2C", 5, (2, 3, 5)), ("A + B <-> 3C", 2, (3, 4, 5))):
            curve = curve_of(text, ke)
            _, _, determinant_eq = count_critical_points_variety(curve, u)
            assert determinant_eq == variety_critical_system(curve, u)[1]

    def test_symbolic_constant_rejected(self):
        with pytest.raises(ValueError):
            count_critical_points_variety(curve_of("A + B <-> 2C"), (1, 1, 1))

    def test_non_reduced_rejected(self):
        with pytest.raises(ValueError):
            count_critical_points_variety(curve_of("A + B <-> 2C", 0), (1, 1, 1))
