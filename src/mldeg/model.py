"""Algebraic statistical model of a single chemical equilibrium.

A reaction plus an equilibrium constant K_e determines one polynomial
relation among the normalized species frequencies:

    F_affine = K_e * prod(reactant vars ** coeff) - prod(product vars ** coeff)

(the Results-section convention: K_e multiplies the reactant monomial).
Species frequencies live on the probability simplex, so the projective
picture uses the homogenization F_hom of F_affine by the total-concentration
form L = sum of species variables.  All three polynomials, F_affine, the
simplex constraint L - 1 and F_hom, are built on their first read:
build_model only checks the reaction, names the variables and fixes the
degree.  The faithful counts read F_affine, the curve route reads F_affine
and F_hom, the model command reads all three, and the MLE reads none.

Model unknowns are canonical symbols x, y, z, t in species order (x0, x1,
... when there are more than four species).  For the reaction shapes the
counting procedure knows, a monomial parameterization of the relation is
available, with any needed radical (s with s**k = K_e) kept symbolic.  Its
integer table (map_shape: parameters, exponent columns, the product side
that carries the multiplier, the radical power, whether it covers the
model) is what the faithful count reads; build_parameterization adds the
MPoly images, which only the model command prints.  Every table is
checked exactly on integers when it is made: the exponent columns must
cancel against the stoichiometry and the multiplier's power must fold to
K_e, which is F_affine pulling back to zero, in O(species) without
composing a polynomial.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property
from enum import Enum
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, gcd, prod
from operator import mul

from .poly import MPoly, VarContext
from .reaction import Arrow, Reaction

NORMALIZATION_NOTE = (
    "homogenized with L = sum of species variables; total concentration divided out"
)

# symbols owned by the pipeline: lagrange multiplier, radical, counts, constant
_RESERVED = re.compile(r"^(lam|s|K_e|u[0-9]+)$")


class UnsupportedReactionError(ValueError):
    """Reaction shape outside the supported parameterization table."""


class EquilibriumConstant(namedtuple("EquilibriumConstant", "value", defaults=(None,))):
    """Exact rational equilibrium constant, or None for a generic symbol."""

    __slots__ = ()

    @classmethod
    def generic(cls) -> "EquilibriumConstant":
        return cls(None)

    @classmethod
    def of(cls, value) -> "EquilibriumConstant":
        return cls(Fraction(value))

    @classmethod
    def parse(cls, text: str) -> "EquilibriumConstant":
        stripped = text.strip()
        if stripped.lower() == "generic":
            return cls.generic()
        try:
            return cls(Fraction(stripped))
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(
                f"cannot read equilibrium constant {text!r}: "
                "expected a rational number or 'generic'"
            ) from exc

    @property
    def is_generic(self) -> bool:
        return self.value is None

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def positivity_flag(self) -> bool:
        """False exactly when a rational value is nonphysical (<= 0)."""
        return self.value is None or self.value > 0

    def __str__(self) -> str:
        return "generic" if self.value is None else str(self.value)


def species_var_names(count: int) -> tuple[str, ...]:
    if count <= 4:
        return ("x", "y", "z", "t")[:count]
    return tuple(f"x{i}" for i in range(count))


class EquilibriumModel(namedtuple(
        "EquilibriumModel", "reaction ke species_vars ctx degree normalization_note",
        defaults=(NORMALIZATION_NOTE,))):
    """A Reaction at an EquilibriumConstant, with the names of its species
    variables (tuple of str), its VarContext and its degree (int).

    The polynomials are cached_property values, built on first read; they
    live in the instance __dict__, which is why the class has no __slots__.
    """

    @cached_property
    def F_affine(self) -> MPoly:
        """K_e times the reactant monomial minus the product monomial."""
        ctx = self.ctx

        def side_monomial(terms) -> MPoly:
            exps = [0] * len(ctx)
            for term in terms:
                exps[ctx.index(self.var_of(term.species))] = term.coefficient
            return MPoly(ctx, {tuple(exps): Fraction(1)})

        ke = self.ke
        ke_factor = MPoly.var(ctx, "K_e") if ke.is_generic else MPoly.const(ctx, ke.value)
        return (ke_factor * side_monomial(self.reaction.reactants)
                - side_monomial(self.reaction.products))

    @cached_property
    def constraint(self) -> MPoly:
        """L - 1, with L the sum of the species variables."""
        total = MPoly.zero(self.ctx)
        for n in self.species_vars:
            total = total + MPoly.var(self.ctx, n)
        return total - 1

    @cached_property
    def F_hom(self) -> MPoly:
        """Each term of F_affine times L^(degree - its degree in the species).

        L^k is expanded once per distinct k, on integers, by the multinomial
        theorem: its term with species exponents a has coefficient
        k! / prod(a_i!).
        """
        species = [self.ctx.index(n) for n in self.species_vars]
        powers = {}  # k -> the terms of L^k: (variable indices, coefficient)
        hom = {}
        for exp, coeff in self.F_affine.items():
            shift = self.degree - sum(exp[k] for k in species)
            if shift not in powers:
                powers[shift] = [
                    (combo, factorial(shift) // prod(factorial(combo.count(k)) for k in species))
                    for combo in combinations_with_replacement(species, shift)]
            for combo, c in powers[shift]:
                e = list(exp)
                for k in combo:
                    e[k] += 1
                e = tuple(e)
                hom[e] = hom.get(e, 0) + coeff * c
        return MPoly(self.ctx, hom)

    @property
    def species(self) -> tuple[str, ...]:
        return self.reaction.species

    def var_of(self, species: str) -> str:
        return self.species_vars[self.reaction.species.index(species)]


def build_model(reaction: Reaction, ke: EquilibriumConstant) -> EquilibriumModel:
    if reaction.arrow is not Arrow.EQUILIBRIUM:
        raise ValueError("model requires an equilibrium reaction (arrow <->)")
    for name in reaction.species:
        if _RESERVED.match(name):
            raise ValueError(f"species name {name!r} is reserved for internal symbols")
    names = species_var_names(len(reaction.species))
    ctx = VarContext(names + ("K_e",) if ke.is_generic else names)
    c = reaction.stoichiometry
    degree = max(sum(k for k in c if k > 0), -sum(k for k in c if k < 0))
    return EquilibriumModel(reaction, ke, names, ctx, degree)


class ReactionShape(Enum):
    PAIR = "pair"              # alpha*A <-> beta*B
    TWO_ONE = "two-one"        # n*A + m*B <-> p*C
    CHAIN = "chain"            # A1+...+An <-> B1+...+Bn, unit coefficients, n >= 3
    SEGRE = "segre"            # A + B <-> C + D, unit coefficients
    UNSUPPORTED = "unsupported"


SUPPORTED_SHAPES = (
    "(I) alpha*A <-> beta*B",
    "(II) n*A + m*B <-> p*C",
    "(III) A1+...+An <-> B1+...+Bn with unit coefficients, n >= 3",
    "(IV) A + B <-> C + D",
)


def classify_shape(reaction: Reaction) -> ReactionShape:
    reactants, products = reaction.reactants, reaction.products
    if len(reactants) == 1 and len(products) == 1:
        return ReactionShape.PAIR
    if len(reactants) == 2 and len(products) == 1:
        return ReactionShape.TWO_ONE
    unit = all(t.coefficient == 1 for t in reactants + products)
    if unit and len(reactants) == 2 and len(products) == 2:
        return ReactionShape.SEGRE
    if unit and len(reactants) == len(products) >= 3:
        return ReactionShape.CHAIN
    return ReactionShape.UNSUPPORTED


class RadicalRelation(namedtuple("RadicalRelation", "symbol power ke")):
    """Constant symbol kept symbolic, defined by symbol**power == ke."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.symbol}^{self.power} = {'K_e' if self.ke.is_generic else self.ke}"


class MapShape(namedtuple(
        "MapShape", "param_vars exponent_matrix scaled power ke root covers_model caveats")):
    """The integer table of a monomial parameterization at one K_e.

    Species j maps to mu**scaled[j] * prod(t_i**exponent_matrix[i][j]):
    param_vars names the parameters t_i; exponent_matrix (a tuple of int
    tuples) has one row per parameter and one column per species; scaled
    (0 or 1 per species) marks the product side, which carries the
    multiplier mu, mu**power = K_e.  root is mu as an exact rational at a
    numeric K_e, or None when mu is a symbol: K_e itself when power is 1,
    else the radical s.  caveats is a tuple of str.
    """

    __slots__ = ()

    @property
    def radical(self) -> RadicalRelation | None:
        if self.root is None and self.power > 1:
            return RadicalRelation("s", self.power, self.ke)
        return None

    @property
    def constants(self) -> tuple[str, ...]:
        """The symbols besides the parameters: s for a radical, K_e when generic."""
        return ("s",) * (self.radical is not None) + ("K_e",) * self.ke.is_generic

    @property
    def fold(self) -> tuple[int, Fraction | None]:
        """(k, v) with mu**k = v, v None for the symbol K_e: mu**e folds to
        mu**(e % k) * v**(e // k), and a symbol mu is left only when k > 1."""
        return (1, self.root) if self.root is not None else (self.power, self.ke.value)


def exact_root(value: Fraction, power: int) -> Fraction | None:
    """Rational r with r**power == value (real branch), or None."""
    if power <= 0:
        raise ValueError("root power must be positive")
    num, den = (_int_root(abs(x), power) for x in value.as_integer_ratio())
    if num is None or den is None or value < 0 and power % 2 == 0:
        return None
    return Fraction(-num if value < 0 else num, den)


def _int_root(n: int, power: int) -> int | None:
    """The integer r with r**power == n >= 0, or None, by bisection below
    2**(bit length of n // power + 1), which exceeds every such r."""
    if power == 1:
        return n
    lo, hi = 0, 1 << n.bit_length() // power + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** power < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo ** power == n else None


_BRANCH_CAVEAT = (
    "the defining relation is reducible; the parameterization covers a single "
    "irreducible branch"
)
_CHAIN_CAVEAT = "parameterization does not cover the model (one-dimensional subfamily)"


def map_shape(reaction: Reaction, ke: EquilibriumConstant) -> MapShape | None:
    """The parameterization table for the reaction's shape at ke, checked
    exactly (_check_composition); None for the Segre closed form."""
    shape = classify_shape(reaction)
    if shape is ReactionShape.UNSUPPORTED:
        raise UnsupportedReactionError(
            "unsupported reaction shape; supported shapes: " + "; ".join(SUPPORTED_SHAPES)
        )
    if shape is ReactionShape.SEGRE:
        return None
    if ke.is_zero:
        raise ValueError(
            "no monomial parameterization at K_e = 0: a coordinate vanishes identically"
        )
    c = reaction.stoichiometry
    reactants = len(reaction.reactants)
    power = -sum(c[reactants:])  # the product side's degree
    if shape is ReactionShape.PAIR:  # alpha*A <-> beta*B, over their gcd
        params, matrix = ("p0",), ((power // gcd(*c), c[0] // gcd(*c)),)
    elif shape is ReactionShape.TWO_ONE:  # n*A + m*B <-> p*C, p = power
        params, matrix = ("t0", "t1"), ((power, 0, c[0]), (0, power, c[1]))
    else:
        params, matrix = ("p0",), ((1,) * len(c),)
    caveats = ((_CHAIN_CAVEAT,) if shape is ReactionShape.CHAIN
               else () if gcd(*c) == 1 else (_BRANCH_CAVEAT,))
    root = None if ke.is_generic else exact_root(ke.value, power)
    # each caveat names a part of the model the map misses
    table = MapShape(params, matrix, (0,) * reactants + (1,) * (len(c) - reactants),
                     power, ke, root, not caveats, caveats)
    _check_composition(reaction, table)
    return table


def _check_composition(reaction: Reaction, shape: MapShape) -> None:
    """Raise unless F_affine pulls back to 0 through the map, exactly.

    With c the stoichiometry, the two monomials of F_affine pull back to
    K_e * mu**a * t**(sum of c_j * column_j over the reactants) and
    mu**b * t**(sum of -c_j * column_j over the products), mu and K_e
    nonzero.  They cancel exactly when every parameter row has
    sum(c_j * row_j) = 0 and mu**(b - a) = K_e under mu's fold
    (MapShape.fold), b - a = -sum(c_j * scaled_j): O(species) integer work.
    """
    c = reaction.stoichiometry
    k, v = shape.fold
    q, r = divmod(-sum(map(mul, c, shape.scaled)), k)
    if any(sum(map(mul, c, row)) for row in shape.exponent_matrix) or r or (
            q != 1 if v is None else v ** q != shape.ke.value):
        raise AssertionError("parameterization fails the composition check")


def build_parameterization(model: EquilibriumModel) -> tuple[MapShape, dict] | None:
    """(shape, images): the model's MapShape and its monomials as MPoly,
    radical or K_e scalars included, keyed by the species variable names;
    None for the Segre closed form."""
    shape = map_shape(model.reaction, model.ke)
    if shape is None:
        return None
    ctx = VarContext(shape.param_vars + shape.constants)
    one = MPoly.const(ctx, 1)
    if shape.root is not None:
        multiplier = MPoly.const(ctx, shape.root)
    else:
        multiplier = MPoly.var(ctx, shape.constants[0])  # s, or K_e at power 1
    images: dict[str, MPoly] = {}
    for var, column, scaled in zip(
            model.species_vars, zip(*shape.exponent_matrix), shape.scaled):
        image = multiplier if scaled else one
        for t, k in zip(shape.param_vars, column):
            if k:
                image = image * MPoly.var(ctx, t) ** k
        images[var] = image
    return shape, images


def fiber_degree(shape: MapShape) -> int:
    """Generic fiber cardinality on the torus: gcd of all maximal minors
    of the exponent matrix (radical scalars do not affect it)."""
    rows = shape.exponent_matrix
    # a maximal minor: one entry for one row, a 2x2 determinant for two
    result = gcd(*(c[0][0] if len(rows) == 1 else c[0][0] * c[1][1] - c[1][0] * c[0][1]
                   for c in combinations(zip(*rows), len(rows))))
    if result == 0:
        raise ValueError("rank-deficient exponent matrix (dimension-deficient parameterization)")
    return result
