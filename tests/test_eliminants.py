"""The exact eliminants of the faithful route, pinned as strings.

The goldens print only the degree and valuation of an eliminant; these pins
show that the polynomials themselves do not change when the kernel under
them does (the strings were recorded with the tuple-keyed Bareiss and
substitution that the packed-exponent kernel replaced).  Cases: every rung
of the benchmark's count-ladder at generic K_e and at K_e = 29/73, and
every catalog row.  `eliminate` runs on the model's own parameterization
(null where there is none: the closed-form Segre row and K_e = 0);
`faithful_report` eliminates at generic K_e and specialises.
"""

import json
from pathlib import Path

import pytest

from mldeg.critical import (
    ObservationCounts,
    build_critical_system,
    eliminate,
    faithful_report,
)
from mldeg.model import EquilibriumConstant, build_model, build_parameterization
from mldeg.reaction import parse_reaction

PINNED = json.loads((Path(__file__).parent / "eliminants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(PINNED))
def test_eliminant_strings_pinned(case):
    text, ke = case.split(" @ ")
    model = build_model(parse_reaction(text), EquilibriumConstant.parse(ke))
    want = PINNED[case]
    if want["eliminate"] is not None:
        system = build_critical_system(
            build_parameterization(model), ObservationCounts.symbolic(len(model.species)))
        assert str(eliminate(system)) == want["eliminate"]
    eliminant = faithful_report(model).eliminant
    assert (None if eliminant is None else str(eliminant)) == want["report"]
