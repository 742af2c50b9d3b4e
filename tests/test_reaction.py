"""Reaction grammar: parse/format round trips and fault offsets."""

import ast
import copy
import pickle
import random
from pathlib import Path

import pytest

from mldeg import reaction as reaction_module
from mldeg.reaction import (
    Arrow,
    Reaction,
    ReactionParseError,
    SpeciesTerm,
    format_reaction,
    parse_reaction,
    reaction_order,
)

from reference import reference_parse_reaction

# Every command and every benchmark workload parses a reaction, and a cold
# interpreter without a bytecode cache compiles reaction.py from source; keep
# the module's syntax tree no larger than it is.
REACTION_AST_NODE_BUDGET = 1143


def test_reaction_module_stays_within_its_ast_node_budget():
    src = Path(reaction_module.__file__).read_text(encoding="utf-8")
    assert sum(1 for _ in ast.walk(ast.parse(src))) <= REACTION_AST_NODE_BUDGET


def assert_built_as_checked(r):
    # the parser skips the constructors' checks and computes the vectors when
    # it builds a Reaction: the value is the one the constructors build, and
    # its vectors are those of its terms
    assert type(r) is Reaction and Reaction(*r) == r
    for t in r.reactants + r.products:
        assert type(t) is SpeciesTerm and t == SpeciesTerm(*t)
    assert r.species == tuple(t.species for t in r.reactants + r.products)
    assert r.stoichiometry == (tuple(t.coefficient for t in r.reactants)
                               + tuple(-t.coefficient for t in r.products))


def random_reaction(rng):
    names = rng.sample(
        ["A", "B", "C", "D", "E2", "NH3", "H2O", "Xy", "n2o", "q0"],
        rng.randrange(2, 6),
    )
    cut = rng.randrange(1, len(names))
    arrow = rng.choice(list(Arrow))
    left = tuple(SpeciesTerm(n, rng.randrange(1, 7)) for n in names[:cut])
    right = tuple(SpeciesTerm(n, rng.randrange(1, 7)) for n in names[cut:])
    return Reaction(left, right, arrow)


class TestRoundTrip:
    def test_random_round_trips(self):
        rng = random.Random(21)
        for _ in range(200):
            r = random_reaction(rng)
            parsed = parse_reaction(format_reaction(r))
            assert parsed == r
            assert_built_as_checked(r)
            assert_built_as_checked(parsed)

    def test_whitespace_and_coefficients(self):
        r = parse_reaction("  2A+3 B2 <->   C ")
        assert r == Reaction(
            (SpeciesTerm("A", 2), SpeciesTerm("B2", 3)),
            (SpeciesTerm("C", 1),),
            Arrow.EQUILIBRIUM,
        )
        assert format_reaction(r) == "2A + 3B2 <-> C"

    def test_unit_coefficients_not_printed(self):
        r = parse_reaction("1A <-> 2B")
        assert format_reaction(r) == "A <-> 2B"

    def test_all_arrows(self):
        assert parse_reaction("A -> B").arrow is Arrow.FORWARD
        assert parse_reaction("A <- B").arrow is Arrow.BACKWARD
        assert parse_reaction("A <-> B").arrow is Arrow.EQUILIBRIUM


class TestFaults:
    @pytest.mark.parametrize(
        "text, offset",
        [
            ("A + <-> B", 4),       # empty term where the arrow sits
            ("A + B", 5),           # missing arrow, fault at end of text
            ("<-> B", 0),           # empty left side
            ("A <->", 5),           # empty right side
            ("A ? B", 2),           # unrecognized token
            ("٣A <-> B", 0),          # a non-ASCII digit is no coefficient
            ("A <-> 2３B", 7),      # nor is a fullwidth one after an ASCII digit
            ("0A <-> B", 0),        # zero coefficient
            ("A <-> B C", 8),       # trailing input
        ],
    )
    def test_offsets(self, text, offset):
        with pytest.raises(ReactionParseError) as info:
            parse_reaction(text)
        assert info.value.offset == offset
        assert f"at offset {offset}" in str(info.value)

    @pytest.mark.parametrize(
        "text, offset",
        [("A + A <-> B", 4), ("B + A + A <-> C", 8), ("C <-> B + A + A", 14)],
    )
    def test_duplicate_on_one_side(self, text, offset):
        # reported at the second occurrence of the repeated species
        with pytest.raises(ReactionParseError) as info:
            parse_reaction(text)
        assert "duplicate" in info.value.reason
        assert info.value.offset == offset

    def test_species_on_both_sides(self):
        with pytest.raises(ReactionParseError) as info:
            parse_reaction("A + B <-> A")
        assert "both sides" in info.value.reason
        assert info.value.offset == 10

    def test_over_long_coefficient(self):
        # Python's default int(str) limit is checked by the parser itself,
        # so the fault has its offset on every Python version
        longest = "7" * 4300
        r = parse_reaction(f"B + {longest}A <-> C")
        assert r.reactants[1] == SpeciesTerm("A", int(longest))
        with pytest.raises(ReactionParseError) as info:
            parse_reaction(f"B + {longest}7A <-> C")
        assert str(info.value) == "coefficient longer than 4300 digits at offset 4"
        assert reference_parse_reaction(f"B + {longest}A <-> C") == r
        with pytest.raises(ReactionParseError) as info:
            reference_parse_reaction(f"B + {longest}7A <-> C")
        assert (info.value.reason, info.value.offset) == (
            "coefficient longer than 4300 digits", 4)

    def test_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse_reaction("")


class TestDataModel:
    def test_species_order(self):
        r = parse_reaction("2H2 + O2 <-> 2H2O")
        assert r.species == ("H2", "O2", "H2O")

    def test_reaction_order(self):
        assert reaction_order(parse_reaction("2A + 3B <-> C")) == 5
        assert reaction_order(parse_reaction("A <-> 4B")) == 1

    def test_term_validation(self):
        with pytest.raises(ValueError):
            SpeciesTerm("A", 0)
        with pytest.raises(ValueError):
            SpeciesTerm("2bad", 1)

    @pytest.mark.parametrize("make", [
        lambda r: r._replace(arrow=Arrow.FORWARD),
        lambda r: Reaction._make(r),
        copy.copy,
        copy.deepcopy,
        *(lambda r, protocol=protocol: pickle.loads(pickle.dumps(r, protocol))
          for protocol in range(pickle.HIGHEST_PROTOCOL + 1)),
    ])
    def test_copies_keep_the_vectors(self, make):
        r = parse_reaction("2A + B <-> 3C + D")
        made = make(r)
        assert made[:2] == r[:2]
        assert made.species == ("A", "B", "C", "D")
        assert made.stoichiometry == (2, 1, -3, -1)
        assert_built_as_checked(made)

    def test_vectors_are_read_only(self):
        r = parse_reaction("A <-> 2B")
        for name in ("species", "stoichiometry", "extra"):
            with pytest.raises(AttributeError):
                setattr(r, name, ())
        with pytest.raises(AttributeError):
            del r.species
        assert (r.species, r.stoichiometry) == (("A", "B"), (1, -2))

    def test_reaction_validation(self):
        a, b = SpeciesTerm("A"), SpeciesTerm("B")
        with pytest.raises(ValueError):
            Reaction((), (b,), Arrow.EQUILIBRIUM)
        with pytest.raises(ValueError):
            Reaction((a, a), (b,), Arrow.EQUILIBRIUM)
        with pytest.raises(ValueError):
            Reaction((a,), (a,), Arrow.EQUILIBRIUM)


# every token kind, zero and multi-digit coefficients, stray arrow pieces
# and '?', and whitespace and a digit outside ASCII, which str.isspace and
# \d accept; names and separators weighted up so that more texts parse
PIECES = ["A", "B", "C2", "xy", "2", "0", "10", "+", " + ", "<->", "->", "<-",
          "<", ">", "-", "?", " ", "\t", "\n", "\x1c", "٣"]
WEIGHTS = [4, 4, 3, 3, 2, 1, 1, 2, 3, 2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1]


def outcome(parse, text):
    try:
        return parse(text)
    except ReactionParseError as exc:
        return type(exc), exc.reason, exc.offset, str(exc)


def test_matches_reference_parser():
    # the single-pass parser against the token cursor it replaced: the same
    # Reaction, or the same error, reason, offset and message, on every text
    rng = random.Random(27)
    wants, differ = [], []
    for _ in range(100_000):
        text = "".join(rng.choices(PIECES, WEIGHTS, k=rng.randrange(9)))
        want = outcome(reference_parse_reaction, text)
        got = outcome(parse_reaction, text)
        if got != want:
            differ.append(text)
        elif isinstance(got, Reaction):
            assert_built_as_checked(got)
        wants.append(want)
    assert differ == []
    # about 1400 texts parse, and every one of the 8 faults occurs
    reasons = {w[1].split("'")[0] for w in wants if not isinstance(w, Reaction)}
    assert sum(isinstance(w, Reaction) for w in wants) >= 1000 and len(reasons) == 8
