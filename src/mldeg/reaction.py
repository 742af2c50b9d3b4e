"""Parsing and formatting of chemical reaction equations.

Grammar:  reaction := side arrow side
          side     := term ('+' term)*
          term     := [uint] identifier
          arrow    := '<->' | '->' | '<-'
Whitespace is ignored everywhere; an omitted coefficient means 1.  A
uint is ASCII digits 0-9, at most MAX_COEFFICIENT_DIGITS of them.

parse_reaction lists the tokens in one regex pass, each match taking up
the whitespace before its token, and ends the list with an end token at
len(text); then it reads the list one side at a time.  A fault raises
ReactionParseError with its reason and offset.  An unrecognized character
wins over every other fault; each side is checked for being empty,
over-long and zero coefficients and empty terms as it is read, and for
duplicate species once it is read; then come a missing arrow, trailing
input and species on both sides.

Those checks are every check the SpeciesTerm and Reaction constructors
make, so the parser builds its values without running them again.  The
constructors keep their checks for callers who build values directly.  A
Reaction computes its species and stoichiometry once, when it is built.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")

# Python's default limit on int(str), checked here so that every version
# gives the same parse error, with its offset
MAX_COEFFICIENT_DIGITS = 4300

# Whitespace, then one alternative per token kind, tried in order: the
# arrows longest first so '<->' never reads as '<-' + '>', any other
# character, which no token starts with, and last the end of the text, the
# one match with no group.
_TOKEN = re.compile(
    r"\s*(?:(?P<arrow><->|->|<-)|(?P<plus>\+)|(?P<uint>[0-9]+)"
    rf"|(?P<ident>{_IDENT.pattern})|(?P<other>.)|$)"
)


class ReactionParseError(ValueError):
    """Malformed reaction text; carries the character offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.reason = message
        self.offset = offset


class Arrow(Enum):
    FORWARD = "->"
    BACKWARD = "<-"
    EQUILIBRIUM = "<->"


_ARROWS = {arrow.value: arrow for arrow in Arrow}


class SpeciesTerm(namedtuple("SpeciesTerm", "species coefficient")):
    """A species name (str) with its stoichiometric coefficient (int >= 1).
    _make, and so _replace, go through the constructor and its checks."""

    __slots__ = ()
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, species: str, coefficient: int = 1):
        if not isinstance(coefficient, int) or coefficient < 1:
            raise ValueError(f"coefficient must be a positive integer, got {coefficient!r}")
        if not _IDENT.fullmatch(species):
            raise ValueError(f"invalid species name {species!r}")
        return super().__new__(cls, species, coefficient)


class Reaction(namedtuple("Reaction", "reactants products arrow")):
    """Two tuples of SpeciesTerm and the Arrow between them.  _make, and so
    _replace, go through the constructor and its checks.

    species lists all species, reactants first, in order of first
    appearance; stoichiometry is the vector c in species order, reactant
    coefficients positive and product coefficients negative.  Both are
    computed when the Reaction is built, and copy and pickle keep them."""

    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, reactants: tuple, products: tuple, arrow: Arrow):
        if not reactants or not products:
            raise ValueError("both sides of a reaction must be nonempty")
        for side in (reactants, products):
            names = [t.species for t in side]
            if len(names) != len(set(names)):
                raise ValueError("duplicate species within one side")
        shared = {t.species for t in reactants} & {t.species for t in products}
        if shared:
            raise ValueError(f"species on both sides: {sorted(shared)}")
        return cls._build(reactants, products, arrow)

    @classmethod
    def _build(cls, reactants: tuple, products: tuple, arrow: Arrow) -> Reaction:
        """The Reaction of terms that pass the constructor's checks, which
        it does not make, with its species and stoichiometry."""
        self = tuple.__new__(cls, (reactants, products, arrow))
        vars(self).update(
            species=tuple([t.species for t in reactants + products]),
            stoichiometry=tuple([t.coefficient for t in reactants]
                                + [-t.coefficient for t in products]),
        )
        return self

    # read-only, as a tuple is, though the vectors live in the instance dict
    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot set or delete {name!r} of a Reaction")

    __delattr__ = __setattr__


def _side(tokens: list, i: int, start: int) -> tuple[list, int]:
    """The side at tokens[i], whose text starts at offset start: its terms,
    each with the offset of its species name, and the index after it."""
    kind, _, offset = tokens[i]
    if kind in ("arrow", "end"):
        raise ReactionParseError("empty side", start if kind == "arrow" else offset)
    terms = []
    while True:
        kind, value, offset = tokens[i]
        coefficient = 1
        if kind == "uint":
            if len(value) > MAX_COEFFICIENT_DIGITS:
                raise ReactionParseError(
                    f"coefficient longer than {MAX_COEFFICIENT_DIGITS} digits", offset)
            coefficient = int(value)
            if coefficient == 0:
                raise ReactionParseError("zero coefficient", offset)
            i += 1
            kind, value, offset = tokens[i]
        if kind != "ident":
            raise ReactionParseError("empty term", offset)
        terms.append((tuple.__new__(SpeciesTerm, (value, coefficient)), offset))
        if tokens[i + 1][0] != "plus":
            break
        i += 2
    seen: set[str] = set()
    for t, offset in terms:
        if t.species in seen:
            raise ReactionParseError(f"duplicate species {t.species!r} on one side", offset)
        seen.add(t.species)
    return terms, i + 1


def parse_reaction(text: str) -> Reaction:
    """Parse reaction text into a Reaction; raises ReactionParseError with offset."""
    tokens = []  # (kind, value, offset)
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # the end of the text, after any whitespace
            tokens.append(("end", "", len(text)))
            break
        if kind == "other":
            raise ReactionParseError(f"unrecognized token {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    left, i = _side(tokens, 0, 0)
    kind, arrow, offset = tokens[i]
    if kind != "arrow":
        raise ReactionParseError("missing arrow", offset)
    right, i = _side(tokens, i + 1, offset + len(arrow))
    kind, value, offset = tokens[i]
    if kind != "end":
        raise ReactionParseError(f"unexpected trailing input {value!r}", offset)
    left_names = {t.species for t, _ in left}
    for t, offset in right:
        if t.species in left_names:
            raise ReactionParseError(f"species {t.species!r} appears on both sides", offset)
    return Reaction._build(tuple(t for t, _ in left), tuple(t for t, _ in right), _ARROWS[arrow])


def format_reaction(r: Reaction) -> str:
    """Canonical text form; coefficients printed only when > 1."""

    def side(terms):
        return " + ".join(
            (f"{t.coefficient}{t.species}" if t.coefficient > 1 else t.species) for t in terms
        )

    return f"{side(r.reactants)} {r.arrow.value} {side(r.products)}"


def reaction_order(r: Reaction) -> int:
    """Kinetic order of the forward direction: sum of reactant coefficients."""
    return sum(t.coefficient for t in r.reactants)
