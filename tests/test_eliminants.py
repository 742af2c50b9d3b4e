"""The exact eliminants of the faithful route, pinned as strings.

The goldens print only the degree and valuation of an eliminant; these pins
show that the polynomials themselves do not change when the kernel under
them does (the strings were recorded with the tuple-keyed Bareiss and
substitution that the packed-exponent kernel replaced).  Cases: every rung
of the benchmark's count-ladder at generic K_e and at K_e = 29/73, and
every catalog row.  Each case pins the eliminant at its own K_e twice,
once as the elimination of the model's own parameterization and once as
the count reads it; the two strings are equal (null where there is no
eliminant: the closed-form Segre row and K_e = 0).  Both are compared
with Bareiss on the reference equations (the equation itself for one
parameter), radical reduced, and with the engine's integer eliminant,
folded and expanded over the counts.
"""

import json
from pathlib import Path

import pytest

from mldeg.model import EquilibriumConstant, ReactionShape, build_model, classify_shape
from mldeg.reaction import parse_reaction

from reference import bareiss_eliminant, critical_system, engine_eliminant

PINNED = json.loads((Path(__file__).parent / "eliminants.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", list(PINNED))
def test_eliminant_strings_pinned(case):
    text, ke = case.split(" @ ")
    model = build_model(parse_reaction(text), EquilibriumConstant.parse(ke))
    want = PINNED[case]
    assert want["eliminate"] == want["report"]
    if want["report"] is None:
        assert ke == "0" or classify_shape(model.reaction) is ReactionShape.SEGRE
        return
    system = critical_system(model, None)
    assert str(bareiss_eliminant(system)) == want["report"]
    assert str(engine_eliminant(system)) == want["report"]
