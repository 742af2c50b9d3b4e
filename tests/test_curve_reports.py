"""The plane-curve route's reports, pinned field by field.

The goldens print a curve report's verdict and count; these pins also hold
the smoothness witness (its repr, so every float bit), the detail line, the
per-line arrangement tallies, the shared-point correction and the caveats,
so that a change of the kernel under the route shows in any of them.  The
route counts the arrangement only on a smooth curve, so the count is pinned
on its own as well, for every case.  Cases: every nA + mB <-> pC and
every nA <-> mB + pC with n, m, p <= 4 at generic K_e, K_e = 7/3 and
K_e = -27/4 (the reversed shapes are where the numeric singular search
takes its most varied paths), every 3-species catalog row at its own K_e,
and the ml-degree reactions of the benchmark's certify workload (its
seeded K_e fixed at 29/73).
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from mldeg import cli
from mldeg.catalog import load_catalog
from mldeg.curve import arrangement_count, curve_from_model, curve_ml_report
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly
from mldeg.reaction import parse_reaction
from mldeg.variety import count_critical_points_variety

from reference import arithmetic_f_hom

PINNED = json.loads((Path(__file__).parent / "curve_reports.json").read_text(encoding="utf-8"))


def _shaped(k, species):
    return species if k == 1 else f"{k}{species}"


RUNGS = tuple(
    f"{_shaped(n, 'A')} + {_shaped(m, 'B')} <-> {_shaped(p, 'C')}"
    for n in range(1, 5) for m in range(1, 5) for p in range(1, 5)
)
REVERSED_RUNGS = tuple(
    f"{_shaped(n, 'A')} <-> {_shaped(m, 'B')} + {_shaped(p, 'C')}"
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
    rungs = [f"{text} @ {ke}" for text in RUNGS + REVERSED_RUNGS
             for ke in ("generic", "7/3", "-27/4")]
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


def model_printout(case) -> str:
    """What the model command prints for a case, in text."""
    text, ke = case.split(" @ ")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["model", text, "--ke", ke]) == 0
    return out.getvalue()


def test_route_runs_on_integers(monkeypatch):
    # with every MPoly constructor and arithmetic operator made to raise, the
    # catalog rows, the generic certify rungs and every numeric-K_e pin (whose
    # singular searches cross into floats) still give their pinned reports,
    # the variety route its count and the model command its printout, F_hom
    # as MPoly prints it: the model, the curve route and the model command
    # build no MPoly
    numeric = [case for case in PINNED if not case.endswith("@ generic")]
    cases = list(dict.fromkeys(catalog_cases() + list(CERTIFY_GENERIC) + numeric))
    printouts = {case: model_printout(case) for case in cases}
    for case, printout in printouts.items():
        assert f"\nF_hom: {arithmetic_f_hom(model_of(case))}\n" in printout, case
    variety_curve = curve_from_model(model_of("A + B <-> 3C @ 7/3"))
    variety = count_critical_points_variety(variety_curve, (3, 4, 5))
    assert variety[0] == 3

    def refuse(*args, **kwargs):
        raise AssertionError("MPoly built or rational polynomial arithmetic called")

    for name in ("__init__", "_raw", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
                 "__mul__", "__rmul__", "__pow__"):
        monkeypatch.setattr(MPoly, name, refuse)
    for case in cases:
        assert record(curve_from_model(model_of(case))) == PINNED[case], case
        assert model_printout(case) == printouts[case], case
    assert count_critical_points_variety(variety_curve, (3, 4, 5)) == variety
