"""Reference catalog: every cataloged reaction with its reference count.

One TSV fixture is the single source of truth for tests and the `catalog`
CLI command.  Each row records the reference value, a status, and a note;
rows with status discrepancy_documented carry counts the engine computes
differently on purpose, and are reported side by side instead of failing.
"""

from __future__ import annotations

import os
import re
from collections import namedtuple

from .critical import faithful_report
from .curve import route_report
from .model import EquilibriumConstant, UnsupportedReactionError, build_model
from .reaction import format_reaction, parse_reaction

STATUSES = ("confirmed", "discrepancy_documented")

_NOTE_TOKEN = re.compile(r"\b(param|variety)=(-?\d+)\b")


class CatalogEntry(namedtuple(
        "CatalogEntry",
        "reaction_text ke_spec paper_value status note"
        " expected_parameter_count expected_variety_count")):
    """One fixture row: text fields and the int paper_value.

    expected_parameter_count / expected_variety_count are parsed from the
    note's param=/variety= tokens and may be absent (None).
    """

    __slots__ = ()

    @property
    def ke(self) -> EquilibriumConstant:
        return EquilibriumConstant.parse(self.ke_spec)


class CatalogRowResult(namedtuple("CatalogRowResult", "entry computed matched ok detail")):
    """Computed values (a dict) for one CatalogEntry, compared against the
    reference value: two flags and a detail text."""

    __slots__ = ()


def _parse_row(line: str, lineno: int) -> CatalogEntry:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 5:
        raise ValueError(f"catalog.tsv line {lineno}: expected 5 tab-separated fields")
    reaction_text, ke_spec, paper_value, status, note = parts
    if status not in STATUSES:
        raise ValueError(f"catalog.tsv line {lineno}: unknown status {status!r}")
    if status == "discrepancy_documented" and not note:
        raise ValueError(f"catalog.tsv line {lineno}: discrepancy rows need a note")
    tokens = dict((k, int(v)) for k, v in _NOTE_TOKEN.findall(note))
    return CatalogEntry(
        reaction_text=reaction_text,
        ke_spec=ke_spec,
        paper_value=int(paper_value),
        status=status,
        note=note,
        expected_parameter_count=tokens.get("param"),
        expected_variety_count=tokens.get("variety"),
    )


def load_catalog() -> list[CatalogEntry]:
    """All fixture rows, in file order; the header line is skipped.

    The fixture is read beside this file, not through importlib.resources,
    which imports pathlib, tempfile and typing (and inspect from 3.12 on)."""
    with open(os.path.join(os.path.dirname(__file__), "catalog.tsv"), encoding="utf-8") as f:
        text = f.read()
    entries = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if lineno == 1 and line.startswith("reaction\t"):
            continue
        entries.append(_parse_row(line, lineno))
    return entries


def lookup(reaction_text: str, ke: str | None = None) -> CatalogEntry:
    """The row for a reaction, disambiguated by K_e when several exist."""
    wanted = format_reaction(parse_reaction(reaction_text))
    rows = [e for e in load_catalog()
            if format_reaction(parse_reaction(e.reaction_text)) == wanted]
    if not rows:
        raise KeyError(f"no catalog entry for {wanted!r}")
    if ke is not None:
        target = EquilibriumConstant.parse(str(ke))
        for entry in rows:
            if entry.ke == target:
                return entry
        raise KeyError(f"no catalog entry for {wanted!r} with K_e = {ke}")
    if len(rows) == 1:
        return rows[0]
    for entry in rows:
        if entry.ke.is_generic:
            return entry
    return rows[0]


def evaluate_entry(entry: CatalogEntry) -> CatalogRowResult:
    """Run the engine on one row and compare with the reference value.

    The reference value counts as matched when it equals any of the
    computed candidates: the parameter-space count, the variety-side
    quotient, or the curve-formula count when the curve route certifies.
    Confirmed rows must match; discrepancy rows only report both sides.
    """
    reaction = parse_reaction(entry.reaction_text)
    model = build_model(reaction, entry.ke)
    computed: dict = {}
    try:
        faithful = faithful_report(model).to_dict()
        computed["parameter_space_count"] = faithful["parameter_space_count"]
        # the record gives an integral quotient as an int, any other as text
        if isinstance(faithful["variety_count_quotient"], int):
            computed["variety_quotient"] = faithful["variety_count_quotient"]
    except UnsupportedReactionError:
        pass
    curve_count = route_report(model).ml_degree
    if curve_count is not None:
        computed["curve_formula"] = curve_count
    candidates = set(computed.values())
    matched = entry.paper_value in candidates
    ok = matched or entry.status == "discrepancy_documented"
    shown = ", ".join(f"{k}={v}" for k, v in computed.items()) or "no computed value"
    if matched:
        detail = f"reference {entry.paper_value} matches ({shown})"
    elif entry.status == "discrepancy_documented":
        detail = (
            f"reference {entry.paper_value} vs computed ({shown}); "
            "documented discrepancy, not a failure"
        )
    else:
        detail = f"reference {entry.paper_value} NOT among computed ({shown})"
    return CatalogRowResult(entry, computed, matched, ok, detail)


def evaluate_catalog(entries=None) -> list[CatalogRowResult]:
    """Evaluate all rows in catalog order."""
    if entries is None:
        entries = load_catalog()
    return [evaluate_entry(entry) for entry in entries]
