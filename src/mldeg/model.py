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
available, with any needed radical (s with s**k = K_e) kept symbolic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial, gcd, prod

from .poly import MPoly, VarContext
from .reaction import Arrow, Reaction

NORMALIZATION_NOTE = (
    "homogenized with L = sum of species variables; total concentration divided out"
)

# symbols owned by the pipeline: lagrange multiplier, radical, counts, constant
_RESERVED = re.compile(r"^(lam|s|K_e|u[0-9]+)$")


class UnsupportedReactionError(ValueError):
    """Reaction shape outside the supported parameterization table."""


@dataclass(frozen=True)
class EquilibriumConstant:
    """Exact rational equilibrium constant, or None for a generic symbol."""

    value: Fraction | None = None

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


@dataclass(frozen=True)
class EquilibriumModel:
    reaction: Reaction
    ke: EquilibriumConstant
    species_vars: tuple[str, ...]
    ctx: VarContext
    degree: int
    normalization_note: str = NORMALIZATION_NOTE

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


@dataclass(frozen=True)
class RadicalRelation:
    """Constant symbol kept symbolic, defined by symbol**power == ke."""

    symbol: str
    power: int
    ke: EquilibriumConstant

    def __str__(self) -> str:
        return f"{self.symbol}^{self.power} = {'K_e' if self.ke.is_generic else self.ke}"


@dataclass(frozen=True)
class MonomialMap:
    """Monomial parameterization of the model relation.

    exponent_matrix has one row per parameter and one column per species;
    images are the actual monomials (radical or K_e scalars included),
    keyed by the model's species variable names.
    """

    param_vars: tuple[str, ...]
    ctx: VarContext
    images: dict[str, MPoly]
    exponent_matrix: tuple[tuple[int, ...], ...]
    radical: RadicalRelation | None
    covers_model: bool
    caveats: tuple[str, ...]


def exact_root(value: Fraction, power: int) -> Fraction | None:
    """Rational r with r**power == value (real branch), or None."""
    if power <= 0:
        raise ValueError("root power must be positive")
    if value < 0:
        if power % 2 == 0:
            return None
        flipped = exact_root(-value, power)
        return None if flipped is None else -flipped
    num = _int_root(value.numerator, power)
    den = _int_root(value.denominator, power)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _int_root(n: int, power: int) -> int | None:
    if power == 1 or n in (0, 1):
        return n
    lo, hi = 1, 1
    while hi ** power < n:
        lo, hi = hi, hi * 2
    while lo <= hi:
        mid = (lo + hi) // 2
        mk = mid ** power
        if mk == n:
            return mid
        if mk < n:
            lo = mid + 1
        else:
            hi = mid - 1
    return None


def reduce_radical(p: MPoly, relation: RadicalRelation | None) -> MPoly:
    """Fold powers of the radical: s**e -> K_e**(e//k) * s**(e%k)."""
    if relation is None or relation.symbol not in p.ctx:
        return p
    s_index = p.ctx.index(relation.symbol)
    ke_index = p.ctx.index("K_e") if relation.ke.is_generic else None
    out: dict = {}
    for exp, coeff in p.term_map().items():
        q, r = divmod(exp[s_index], relation.power)
        e = list(exp)
        e[s_index] = r
        if q:
            if ke_index is None:
                coeff = coeff * relation.ke.value ** q
            else:
                e[ke_index] += q
        key = tuple(e)
        out[key] = out.get(key, Fraction(0)) + coeff
    return MPoly(p.ctx, out)


_BRANCH_CAVEAT = (
    "the defining relation is reducible; the parameterization covers a single "
    "irreducible branch"
)
_CHAIN_CAVEAT = "parameterization does not cover the model (one-dimensional subfamily)"


def build_parameterization(model: EquilibriumModel) -> MonomialMap | None:
    """Monomial map for the model's shape; None for the Segre closed form."""
    shape = classify_shape(model.reaction)
    if shape is ReactionShape.UNSUPPORTED:
        raise UnsupportedReactionError(
            "unsupported reaction shape; supported shapes: " + "; ".join(SUPPORTED_SHAPES)
        )
    if shape is ReactionShape.SEGRE:
        return None
    ke = model.ke
    if not ke.is_generic and ke.is_zero:
        raise ValueError(
            "no monomial parameterization at K_e = 0: a coordinate vanishes identically"
        )
    reactants, products = model.reaction.reactants, model.reaction.products
    caveats: list[str] = []
    if shape is ReactionShape.PAIR:
        alpha, beta = reactants[0].coefficient, products[0].coefficient
        shared = gcd(alpha, beta)
        params = ("p0",)
        columns = {reactants[0].species: (beta // shared,),
                   products[0].species: (alpha // shared,)}
        scaled = {products[0].species}
        power = beta
        covers = shared == 1
    elif shape is ReactionShape.TWO_ONE:
        n, m = reactants[0].coefficient, reactants[1].coefficient
        p = products[0].coefficient
        params = ("t0", "t1")
        columns = {reactants[0].species: (p, 0),
                   reactants[1].species: (0, p),
                   products[0].species: (n, m)}
        scaled = {products[0].species}
        power = p
        covers = gcd(gcd(n, m), p) == 1
    else:
        params = ("p0",)
        columns = {term.species: (1,) for term in reactants + products}
        scaled = {term.species for term in products}
        power = len(products)
        covers = False
        caveats.append(_CHAIN_CAVEAT)
    if not covers and shape is not ReactionShape.CHAIN:
        caveats.append(_BRANCH_CAVEAT)

    uses_radical = False
    exact_scalar: Fraction | None = None
    if power == 1:
        exact_scalar = ke.value  # None when generic: multiplier is K_e itself
    elif ke.is_generic:
        uses_radical = True
    else:
        exact_scalar = exact_root(ke.value, power)
        uses_radical = exact_scalar is None

    names = params
    radical = None
    if uses_radical:
        names += ("s",)
        radical = RadicalRelation("s", power, ke)
    if ke.is_generic:
        names += ("K_e",)
    ctx = VarContext(names)
    if uses_radical:
        multiplier = MPoly.var(ctx, "s")
    elif exact_scalar is None:
        multiplier = MPoly.var(ctx, "K_e")
    else:
        multiplier = MPoly.const(ctx, exact_scalar)

    images: dict[str, MPoly] = {}
    matrix_columns: list[tuple[int, ...]] = []
    for species, var in zip(model.species, model.species_vars):
        exps = columns[species]
        image = MPoly.const(ctx, 1)
        for t, k in zip(params, exps):
            if k:
                image = image * MPoly.var(ctx, t) ** k
        if species in scaled:
            image = multiplier * image
        images[var] = image
        matrix_columns.append(tuple(exps))
    exponent_matrix = tuple(
        tuple(col[i] for col in matrix_columns) for i in range(len(params))
    )

    pullback_images = dict(images)
    if ke.is_generic:
        pullback_images["K_e"] = MPoly.var(ctx, "K_e")
    pullback = reduce_radical(model.F_affine.compose(pullback_images, ctx), radical)
    if not pullback.is_zero():
        raise AssertionError("parameterization fails the composition check")
    return MonomialMap(params, ctx, images, exponent_matrix, radical, covers, tuple(caveats))


def fiber_degree(monomial_map: MonomialMap) -> int:
    """Generic fiber cardinality on the torus: gcd of all maximal minors
    of the exponent matrix (radical scalars do not affect it)."""
    rows = monomial_map.exponent_matrix
    k = len(rows)
    result = 0
    for cols in combinations(range(len(rows[0])), k):
        sub = [[row[c] for c in cols] for row in rows]
        if k == 1:
            minor = sub[0][0]
        else:
            minor = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
        result = gcd(result, minor)
    if result == 0:
        raise ValueError("rank-deficient exponent matrix (dimension-deficient parameterization)")
    return result
