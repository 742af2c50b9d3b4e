"""The plane-curve route's reports, pinned field by field.

The goldens print a curve report's verdict and count; these pins also hold
the smoothness witness (its repr, so every float bit), the detail line, the
per-line arrangement tallies, the shared-point correction and the caveats,
so that a change of the kernel under the route shows in any of them.  The
route counts the arrangement only on a smooth curve, so the count is pinned
on its own as well, for every case.  Cases: every nA + mB <-> pC with
n, m, p <= 4 at generic K_e, K_e = 7/3 and K_e = -27/4, every 3-species
catalog row at its own K_e, and the ml-degree reactions of the benchmark's
certify workload (its seeded K_e fixed at 29/73).
"""

import json
from pathlib import Path

import pytest

from mldeg import poly
from mldeg.catalog import load_catalog
from mldeg.curve import arrangement_count, curve_from_model, curve_ml_report
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly
from mldeg.reaction import parse_reaction

PINNED = json.loads((Path(__file__).parent / "curve_reports.json").read_text(encoding="utf-8"))


def _shaped(k, species):
    return species if k == 1 else f"{k}{species}"


RUNGS = tuple(
    f"{_shaped(n, 'A')} + {_shaped(m, 'B')} <-> {_shaped(p, 'C')}"
    for n in range(1, 5) for m in range(1, 5) for p in range(1, 5)
)


CERTIFY_GENERIC = ("2A + 3B <-> 4C @ generic", "3A + 2B <-> 4C @ generic",
                   "3A + 4B <-> 5C @ generic")
CERTIFY_CASES = CERTIFY_GENERIC + ("2A + B <-> 3C @ 29/73", "3A + B <-> 4C @ 29/73")


def catalog_cases():
    cases = []
    for entry in load_catalog():
        model = build_model(parse_reaction(entry.reaction_text), entry.ke)
        if len(model.species_vars) == 3:
            cases.append(f"{entry.reaction_text} @ {entry.ke_spec}")
    return cases


def cases():
    rungs = [f"{text} @ {ke}" for text in RUNGS for ke in ("generic", "7/3", "-27/4")]
    return list(dict.fromkeys(rungs + catalog_cases() + list(CERTIFY_CASES)))


def model_of(case):
    text, ke = case.split(" @ ")
    return build_model(parse_reaction(text), EquilibriumConstant.parse(ke))


def record(curve) -> dict:
    """Every field of the curve's report, and its arrangement count, in
    JSON types."""
    report = curve_ml_report(curve)
    arrangement = report.arrangement
    count = arrangement_count(curve)
    return {
        "smoothness": report.smoothness.status,
        "witness": repr(report.smoothness.witness),
        "detail": report.smoothness.detail,
        "per_line_distinct": None if arrangement is None else list(arrangement.per_line_distinct),
        "shared_point_correction": None if arrangement is None
        else arrangement.shared_point_correction,
        "a": None if arrangement is None else arrangement.a,
        "caveats": list(report.caveats),
        "ml_degree": report.ml_degree,
        "arrangement_count": [list(count.per_line_distinct), count.shared_point_correction,
                              count.a, list(count.caveats)],
    }


def test_cases_cover_the_pins():
    assert list(PINNED) == cases()


@pytest.mark.parametrize("case", list(PINNED))
def test_curve_report_pinned(case):
    assert record(curve_from_model(model_of(case))) == PINNED[case]


def test_route_runs_on_integers(monkeypatch):
    # with rational polynomial arithmetic made to raise, the catalog rows and
    # the generic certify rungs still give their pinned reports: nothing
    # after F_hom runs on Fractions
    curves = {case: curve_from_model(model_of(case))
              for case in catalog_cases() + list(CERTIFY_GENERIC)}

    def refuse(*args, **kwargs):
        raise AssertionError("rational polynomial arithmetic called")

    for name in ("substitute", "__mul__", "__rmul__"):
        monkeypatch.setattr(MPoly, name, refuse)
    monkeypatch.setattr(poly, "gcd_degree_in", refuse)
    for case, curve in curves.items():
        assert record(curve) == PINNED[case], case
