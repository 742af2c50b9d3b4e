"""Parsing and formatting of chemical reaction equations.

Grammar:  reaction := side arrow side
          side     := term ('+' term)*
          term     := [uint] identifier
          arrow    := '<->' | '->' | '<-'
Whitespace is ignored everywhere; an omitted coefficient means 1.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum

_IDENT = re.compile(r"[A-Za-z][A-Za-z0-9]*")

# Longest arrow first so '<->' never tokenizes as '<-' + '>'.
_TOKEN = re.compile(r"(<->)|(->)|(<-)|(\+)|(\d+)|([A-Za-z][A-Za-z0-9]*)")


class ReactionParseError(ValueError):
    """Malformed reaction text; carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.reason = message
        self.offset = offset


class Arrow(Enum):
    FORWARD = "->"
    BACKWARD = "<-"
    EQUILIBRIUM = "<->"


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
    _replace, go through the constructor and its checks."""

    __slots__ = ()
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
        return super().__new__(cls, reactants, products, arrow)

    @property
    def species(self) -> tuple[str, ...]:
        """All species, reactants first, in order of first appearance."""
        return tuple(t.species for t in self.reactants) + tuple(t.species for t in self.products)

    @property
    def stoichiometry(self) -> tuple[int, ...]:
        """The vector c in species order: reactant coefficients positive,
        product coefficients negative."""
        return tuple(t.coefficient for t in self.reactants) + tuple(
            -t.coefficient for t in self.products
        )


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items: list[tuple[str, str, int]] = []  # (kind, value, offset)
        pos = 0
        n = len(text)
        while pos < n:
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ReactionParseError(f"unrecognized token {text[pos]!r}", pos)
            kinds = ("arrow", "arrow", "arrow", "plus", "uint", "ident")
            kind = kinds[m.lastindex - 1]
            self.items.append((kind, m.group(0), pos))
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("end", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def _parse_term(toks: _Tokens) -> tuple[SpeciesTerm, int]:
    """One term and the offset of its species name."""
    kind, value, offset = toks.peek()
    coefficient = 1
    if kind == "uint":
        toks.next()
        coefficient = int(value)
        if coefficient == 0:
            raise ReactionParseError("zero coefficient", offset)
        kind, value, offset = toks.peek()
    if kind != "ident":
        raise ReactionParseError("empty term", offset)
    toks.next()
    return SpeciesTerm(value, coefficient), offset


def _parse_side(toks: _Tokens, side_start: int) -> list[tuple[SpeciesTerm, int]]:
    kind, _, offset = toks.peek()
    if kind in ("arrow", "end"):
        raise ReactionParseError("empty side", side_start if kind == "arrow" else offset)
    terms = [_parse_term(toks)]
    while toks.peek()[0] == "plus":
        toks.next()
        terms.append(_parse_term(toks))
    seen: set[str] = set()
    for t, offset in terms:
        if t.species in seen:
            raise ReactionParseError(f"duplicate species {t.species!r} on one side", offset)
        seen.add(t.species)
    return terms


def parse_reaction(text: str) -> Reaction:
    """Parse reaction text into a Reaction; raises ReactionParseError with offset."""
    toks = _Tokens(text)
    left = _parse_side(toks, 0)
    kind, value, offset = toks.peek()
    if kind != "arrow":
        raise ReactionParseError("missing arrow", offset)
    toks.next()
    arrow = Arrow(value)
    right = _parse_side(toks, offset + len(value))
    kind, value, offset = toks.peek()
    if kind != "end":
        raise ReactionParseError(f"unexpected trailing input {value!r}", offset)
    left_names = {t.species for t, _ in left}
    for t, offset in right:
        if t.species in left_names:
            raise ReactionParseError(f"species {t.species!r} appears on both sides", offset)
    return Reaction(tuple(t for t, _ in left), tuple(t for t, _ in right), arrow)


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
