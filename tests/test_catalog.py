"""Catalog fixture integrity and engine-vs-reference evaluation."""

import functools

import pytest

from mldeg.catalog import (
    STATUSES,
    CatalogEntry,
    _parse_row,
    evaluate_catalog,
    evaluate_entry,
    load_catalog,
    lookup,
)


@functools.lru_cache(maxsize=1)
def results():
    return tuple(evaluate_catalog())


class TestFixture:
    def test_row_count(self):
        assert len(load_catalog()) == 15

    def test_rows_unique_by_reaction_and_ke(self):
        keys = [(e.reaction_text, e.ke_spec) for e in load_catalog()]
        assert len(keys) == len(set(keys))

    def test_statuses_valid(self):
        assert all(e.status in STATUSES for e in load_catalog())

    def test_note_tokens_parsed(self):
        conic = lookup("A + B <-> 2C")
        assert conic.expected_parameter_count == 4
        assert conic.expected_variety_count == 2
        pair = lookup("A <-> B")
        assert pair.expected_parameter_count == 1
        assert pair.expected_variety_count is None

    def test_parse_row_rejects_bad_lines(self):
        with pytest.raises(ValueError, match="5 tab-separated"):
            _parse_row("A <-> B\tgeneric\t1\tconfirmed", 7)
        with pytest.raises(ValueError, match="unknown status"):
            _parse_row("A <-> B\tgeneric\t1\tmaybe\tnote", 7)
        with pytest.raises(ValueError, match="need a note"):
            _parse_row("A <-> B\tgeneric\t1\tdiscrepancy_documented\t", 7)


class TestLookup:
    def test_generic_row_is_default(self):
        assert lookup("A + B <-> 2C").paper_value == 2

    def test_ke_disambiguates(self):
        assert lookup("A + B <-> 2C", ke="4").paper_value == 1
        assert lookup("A + B <-> 2C", ke="0").paper_value == 0

    def test_whitespace_insensitive(self):
        assert lookup("A+B<->2C").paper_value == 2

    def test_discrepancy_rows(self):
        assert lookup("3A + 3B <-> 3C").status == "discrepancy_documented"
        assert lookup("A + 2B <-> C").status == "discrepancy_documented"

    def test_unknown_reaction(self):
        with pytest.raises(KeyError):
            lookup("A <-> 5B")
        with pytest.raises(KeyError):
            lookup("A + B <-> 2C", ke="9")


class TestEvaluation:
    def test_every_row_ok(self):
        assert all(r.ok for r in results())

    def test_confirmed_rows_match(self):
        for r in results():
            if r.entry.status == "confirmed":
                assert r.matched, r.detail

    def test_discrepancy_rows_report_both_sides(self):
        by_reaction = {r.entry.reaction_text: r for r in results()}
        row = by_reaction["A + 2B <-> C"]
        assert not row.matched
        assert row.ok
        assert "reference 2" in row.detail
        assert "parameter_space_count=3" in row.detail
        assert "documented discrepancy" in row.detail
        row = by_reaction["3A + 3B <-> 3C"]
        assert "reference 9" in row.detail
        assert "parameter_space_count=18" in row.detail

    def test_computed_counts_agree_with_note_tokens(self):
        # the note's param=/variety= tokens double as frozen regression values
        for r in results():
            want_param = r.entry.expected_parameter_count
            want_variety = r.entry.expected_variety_count
            if want_param is not None:
                assert r.computed.get("parameter_space_count") == want_param, r.detail
            if want_variety is not None:
                assert r.computed.get("variety_quotient") == want_variety, r.detail

    def test_curve_formula_reported_for_conics(self):
        by_key = {(r.entry.reaction_text, r.entry.ke_spec): r for r in results()}
        assert by_key[("A + B <-> 2C", "generic")].computed["curve_formula"] == 2
        assert by_key[("A + B <-> 2C", "4")].computed["curve_formula"] == 1
        assert by_key[("A + B <-> 3C", "generic")].computed["curve_formula"] == 3

    # confirmed rows that match nothing: the faithful route declines the
    # first shape, so only the curve route counts it; both routes decline
    # the second, which has 4 species
    @pytest.mark.parametrize("text, computed, shown", [
        ("A <-> B + C", {"curve_formula": 2}, "curve_formula=2"),
        ("CO + 3H2 <-> CH4 + H2O", {}, "no computed value"),
    ])
    def test_confirmed_row_without_match(self, text, computed, shown):
        row = evaluate_entry(CatalogEntry(text, "generic", 5, "confirmed", "", None, None))
        assert row.computed == computed
        assert not row.matched and not row.ok
        assert row.detail == f"reference 5 NOT among computed ({shown})"
