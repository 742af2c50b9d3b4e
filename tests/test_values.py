"""Value semantics of the engine's record classes.

Each is a collections.namedtuple subclass: equal by value, hashable when
its fields are, read-only, and printed as Name(field=value, ...), the repr
the frozen dataclasses they replaced printed.  No class needs generated
code when it is created.
"""

import sys
from fractions import Fraction

import pytest

from mldeg.catalog import evaluate_entry, load_catalog
from mldeg.critical import (
    MLDegreeReport,
    ObservationCounts,
    build_critical_system,
    faithful_report,
)
from mldeg.curve import arrangement_count, curve_from_model, curve_ml_report, smoothness_check
from mldeg.mle import maximize_likelihood
from mldeg.model import (
    EquilibriumConstant,
    RadicalRelation,
    build_model,
    build_parameterization,
)
from mldeg.poly import VarContext
from mldeg.reaction import Arrow, Reaction, SpeciesTerm, parse_reaction


def _samples():
    reaction = parse_reaction("2A + B <-> 3C")
    ke = EquilibriumConstant.of(Fraction(23, 71))
    model = build_model(reaction, ke)
    monomial_map = build_parameterization(model)
    counts = ObservationCounts.numeric((3, 5, 7))
    curve = curve_from_model(model)
    mle = maximize_likelihood(model, (3, 5, 7))
    entry = load_catalog()[0]
    return {
        "VarContext": VarContext(("x", "y")),
        "SpeciesTerm": SpeciesTerm("A", 2),
        "Reaction": reaction,
        "EquilibriumConstant": ke,
        "EquilibriumModel": model,
        "RadicalRelation": RadicalRelation("s", 3, ke),
        "MonomialMap": monomial_map,
        "ObservationCounts": counts,
        "CriticalSystem": build_critical_system(monomial_map, counts),
        "MLDegreeReport": faithful_report(model),
        "PlaneCurve": curve,
        "ArrangementCount": arrangement_count(curve),
        "SmoothnessReport": smoothness_check(curve),
        "CurveMLReport": curve_ml_report(curve),
        "CriticalPoint": mle.optimum,
        "MLEResult": mle,
        "CatalogEntry": entry,
        "CatalogRowResult": evaluate_entry(entry),
    }


SAMPLES = _samples()
# the classes hashable at every value; the others hold a dict field
HASHABLE = ("VarContext", "SpeciesTerm", "Reaction", "EquilibriumConstant")
UNHASHABLE = ("MonomialMap", "CriticalSystem", "CatalogRowResult")


def test_every_engine_class_is_sampled_and_none_is_a_dataclass():
    classes = {
        name: cls
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("mldeg.")
        for name, cls in vars(module).items()
        if isinstance(cls, type) and cls.__module__ == module_name
    }
    assert not [name for name, cls in classes.items() if hasattr(cls, "__dataclass_fields__")]
    records = sorted(name for name, cls in classes.items() if issubclass(cls, tuple))
    assert records == sorted(SAMPLES)
    for name, value in SAMPLES.items():
        assert type(value) is classes[name]


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_equal_by_value(name):
    value = SAMPLES[name]
    cls = type(value)
    same = cls(*value)
    assert same == value and not same != value and same is not value
    changed = tuple.__new__(cls, (object(),) + tuple(value)[1:])
    assert changed != value


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_by_value(name):
    value = SAMPLES[name]
    assert len({value, type(value)(*value)}) == 1


@pytest.mark.parametrize("name", UNHASHABLE)
def test_dict_fields_stay_unhashable(name):
    with pytest.raises(TypeError):
        hash(SAMPLES[name])


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_fields_are_read_only(name):
    value = SAMPLES[name]
    for field in value._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert tuple(value) == tuple(getattr(value, field) for field in value._fields)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_repr_names_every_field(name):
    value = SAMPLES[name]
    fields = ", ".join(f"{field}={getattr(value, field)!r}" for field in value._fields)
    assert repr(value) == f"{name}({fields})"


def test_repr_pinned():
    assert repr(SAMPLES["Reaction"]) == (
        "Reaction(reactants=(SpeciesTerm(species='A', coefficient=2), "
        "SpeciesTerm(species='B', coefficient=1)), "
        "products=(SpeciesTerm(species='C', coefficient=3),), "
        "arrow=<Arrow.EQUILIBRIUM: '<->'>)"
    )
    assert repr(SAMPLES["RadicalRelation"]) == (
        "RadicalRelation(symbol='s', power=3, ke=EquilibriumConstant(value=Fraction(23, 71)))"
    )
    assert repr(SAMPLES["VarContext"]) == "VarContext(names=('x', 'y'))"
    assert repr(SAMPLES["ObservationCounts"]) == "ObservationCounts(size=3, values=(3, 5, 7))"
    assert repr(SAMPLES["ArrangementCount"]) == (
        "ArrangementCount(per_line_distinct=(1, 1, 2, 3), shared_point_correction=2, "
        "a=5, caveats=())"
    )


def test_defaults():
    assert SpeciesTerm("A") == SpeciesTerm("A", 1)
    assert EquilibriumConstant() == EquilibriumConstant.generic()
    assert ObservationCounts(2).values is None
    assert SAMPLES["EquilibriumModel"].normalization_note.startswith("homogenized")
    assert SAMPLES["MLDegreeReport"].method == "faithful"
    assert SAMPLES["CurveMLReport"].method == "curve"


def test_validation_errors_unchanged():
    with pytest.raises(ValueError, match="^variable names must be distinct$"):
        VarContext(("x", "x"))
    with pytest.raises(ValueError, match="^coefficient must be a positive integer, got 0$"):
        SpeciesTerm("A", 0)
    with pytest.raises(ValueError, match="^coefficient must be a positive integer, got 1.0$"):
        SpeciesTerm("A", 1.0)
    with pytest.raises(ValueError, match="^invalid species name '2bad'$"):
        SpeciesTerm(species="2bad")
    a, b = SpeciesTerm("A"), SpeciesTerm("B")
    with pytest.raises(ValueError, match="^both sides of a reaction must be nonempty$"):
        Reaction((a,), (), Arrow.EQUILIBRIUM)
    with pytest.raises(ValueError, match="^duplicate species within one side$"):
        Reaction((a,), (b, b), Arrow.EQUILIBRIUM)
    with pytest.raises(ValueError, match=r"^species on both sides: \['A'\]$"):
        Reaction(reactants=(a,), products=(a, b), arrow=Arrow.EQUILIBRIUM)


def test_report_payload_outside_the_fields():
    report = SAMPLES["MLDegreeReport"]
    bare = MLDegreeReport(*report)
    assert report._counted is not None and bare._counted is None
    assert bare == report and hash(bare) == hash(report)
    assert repr(bare) == repr(report) and "_counted" not in repr(report)
    assert "_counted" not in report._fields
    assert bare.eliminant is None and report.eliminant is not None
