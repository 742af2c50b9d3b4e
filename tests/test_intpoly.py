"""Integer kernels: VarContext, term-map products and powers, and the
subresultant sequence over Z[t] with what it gives: primitive integer
gcds and, on packed monomials read as one exponent, the gcd degree over
Z[params].

The gcds are checked against the rational Euclid of tests/reference.py,
the gcd degree against its pseudo-remainder sequence over Z[params] on
tuple exponents (reference.gcd_degree), and products and powers against
MPoly arithmetic.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mldeg import intpoly
from mldeg.intpoly import (
    VarContext,
    _derivative,
    _exp_add,
    _exact_quotient,
    _integer_gcd,
    _power,
    _primitive,
    _remainders,
    _term_products,
    _trim,
)
from mldeg.poly import MPoly

from reference import from_dense, gcd_degree, integer_coeffs, univariate_gcd

CTX_X = VarContext(("x",))
CTX_XY = VarContext(("x", "y"))
CTX_XYZ = VarContext(("x", "y", "z"))


# The faithful count and the estimate load intpoly.py, and a cold
# interpreter without a bytecode cache compiles it from source.  The pin
# bounds the module's syntax tree, not that compile's peak memory, which
# grows with the parser's token count (printed by CI's size step) and not
# with the node count; keep the tree no larger than it is.
INTPOLY_AST_NODE_BUDGET = 1074


def test_intpoly_module_stays_within_its_ast_node_budget():
    src = Path(intpoly.__file__).read_text(encoding="utf-8")
    assert sum(1 for _ in ast.walk(ast.parse(src))) <= INTPOLY_AST_NODE_BUDGET


def test_context_names_distinct():
    with pytest.raises(ValueError, match="distinct"):
        VarContext(("x", "y", "x"))
    assert CTX_XYZ.drop(("y",)) == VarContext(("x", "z"))


def random_integer_poly(rng, degree):
    """Integer coefficients, highest power first, with a nonzero lead."""
    return [rng.choice((-1, 1)) * rng.randrange(1, 6)] + [
        rng.randrange(-5, 6) for _ in range(degree)]


def dense_product(*factors):
    out = [1]
    for f in factors:
        out = [sum(out[i] * f[k - i] for i in range(len(out)) if 0 <= k - i < len(f))
               for k in range(len(out) + len(f) - 1)]
    return out


def as_mpoly(f):
    """An integer polynomial, highest power first, as an MPoly in x."""
    return from_dense(CTX_X, "x", [Fraction(c) for c in reversed(f)])


class TestTermMaps:
    def test_products_and_powers_match_mpoly(self):
        rng = random.Random(11)
        for _ in range(40):
            # term maps hold no zero coefficient
            a, b = ({(rng.randrange(3), rng.randrange(3)): rng.choice((-3, -1, 2, 4))
                     for _ in range(3)} for _ in range(2))
            k = rng.randrange(5)
            pa, pb = MPoly(CTX_XY, a), MPoly(CTX_XY, b)
            assert _term_products([(a, b)], _exp_add) == (pa * pb).term_map()
            one = {(0, 0): 1}
            assert _power(a, k, one, _exp_add) == (pa ** k).term_map()
            # one is any term map: b * a**k
            assert _power(a, k, b, _exp_add) == (pb * pa ** k).term_map()

    def test_packed_products_add_exponents(self):
        # 4-bit fields: x in bits 0..3, y in bits 4..7
        x_plus_y = {1: 1, 16: 1}
        square = _term_products([(x_plus_y, x_plus_y)])
        assert square == {2: 1, 17: 2, 32: 1}
        assert _power(x_plus_y, 3, {0: 1}) == {3: 1, 18: 3, 33: 3, 48: 1}
        # cancelled products leave no zero coefficient
        assert _term_products([(x_plus_y, {1: 1}), (x_plus_y, {1: -1})]) == {}


class TestIntegerPolynomials:
    def test_trim_primitive_derivative_pinned(self):
        assert _trim([0, 0, 3, 0]) == [3, 0]
        assert _trim([0, 0]) == []
        assert _primitive([-4, 6, -2]) == [2, -3, 1]
        assert _primitive([5]) == [1]
        assert _derivative([2, -3, 0, 7]) == [6, -6, 0]
        assert _derivative([7]) == []

    def test_integer_gcd_matches_rational_euclid(self):
        rng = random.Random(13)
        for _ in range(60):
            common = random_integer_poly(rng, rng.randrange(3))
            f = dense_product(common, random_integer_poly(rng, rng.randrange(4)))
            g = dense_product(common, random_integer_poly(rng, rng.randrange(4)))
            got = _integer_gcd(f, g)
            assert got[0] > 0 and _primitive(got) == got
            monic = univariate_gcd(as_mpoly(f), as_mpoly(g), "x")
            assert as_mpoly(got) * Fraction(1, got[0]) == monic

    def test_integer_gcd_pinned(self):
        # (x - 1)(x + 1) and 2 (x + 1)^2
        assert _integer_gcd([1, 0, -1], [2, 4, 2]) == [1, 1]
        assert _integer_gcd([3, 6], [5]) == [1]
        assert _integer_gcd([6, 0, -6], [-4, 4]) == [1, -1]


def packed(coeffs: list, bits: int) -> list:
    """Coefficients over tuple exponents with each exponent packed into one
    int, fields of bits bits, the first lowest."""
    return [{sum(x << i * bits for i, x in enumerate(e)): c for e, c in m.items()}
            for m in coeffs]


def kernel_gcd_degree(f: list, g: list) -> int:
    """The degree of the last subresultant remainder of f and g over tuple
    exponents, each packed as one exponent in fields wide enough for every
    Sylvester minor: (deg f + deg g) times the largest exponent."""
    top = max(x for h in (f, g) for m in h for e in m for x in e)
    bits = max((len(f) + len(g) - 2) * top, 1).bit_length()
    return len(_remainders(packed(f, bits), packed(g, bits))[1]) - 1


class TestGcdDegree:
    @staticmethod
    def gcd_degree(f, g, name):
        """The gcd degree of the cleared integer coefficients of f and g in
        name: the kernel's on packed exponents, which must be the
        reference's on tuple exponents."""
        fc, gc = integer_coeffs(f, name)[0], integer_coeffs(g, name)[0]
        degree = gcd_degree(fc, gc)
        assert kernel_gcd_degree(fc, gc) == degree
        return degree

    def test_gcd_degree_with_parameters(self):
        # gcd degree over the coefficient field, K_e left symbolic
        ctx = VarContext(("x", "K_e"))
        x = MPoly.var(ctx, "x")
        k = MPoly.var(ctx, "K_e")
        f = (x - k) * (x + 1)
        g = (x - k) * (x + 2)
        assert self.gcd_degree(f, g, "x") == 1
        assert self.gcd_degree(x + 1, x + 2, "x") == 0

    def test_gcd_degree_in_multivariate(self):
        x = MPoly.var(CTX_XY, "x")
        y = MPoly.var(CTX_XY, "y")
        assert self.gcd_degree((x + y) * (x - y), (x + y) * x, "x") == 1
        assert self.gcd_degree(x + y, x - y, "x") == 0

    def test_gcd_degree_matches_integer_gcd_without_parameters(self):
        rng = random.Random(14)
        for _ in range(40):
            common = random_integer_poly(rng, rng.randrange(3))
            f = dense_product(common, random_integer_poly(rng, rng.randrange(4)))
            g = dense_product(common, random_integer_poly(rng, rng.randrange(4)))
            as_maps = [[{(): c} if c else {} for c in h] for h in (f, g)]
            assert gcd_degree(*as_maps) == len(_integer_gcd(f, g)) - 1
            assert len(_remainders(*([{0: c} if c else {} for c in h] for h in (f, g)))[1]) \
                == len(_integer_gcd(f, g))

    def test_packed_degree_is_the_multivariate_one(self):
        # seeded operands in x over Z[y, z, w] with a shared factor of
        # degree 0 to 2 in x: the kernel on packed exponents, at the width
        # that bounds every Sylvester minor, gives the reference's degree
        ctx = VarContext(("x", "y", "z", "w"))
        rng = random.Random(15)
        found = set()
        for _ in range(60):
            def operand(x_deg):
                terms = {(k, rng.randrange(3), rng.randrange(3), rng.randrange(2)):
                         rng.randint(-4, 4) for k in range(x_deg + 1) for _ in range(2)}
                terms[(x_deg, rng.randrange(3), 0, 0)] = rng.choice((-1, 1))
                return MPoly(ctx, terms)

            common = operand(rng.randrange(3))
            f, g = (common * operand(rng.randrange(2)) for _ in range(2))
            degree = self.gcd_degree(f, g, "x")
            assert degree >= common.degree_in("x")
            found.add(degree)
        assert found >= {0, 1, 2}


class TestExactQuotient:
    def test_walks_only_the_keys_it_holds(self):
        # packed keys are sparse: (2^60 t + 1)(t + 3) divided by t + 3 takes
        # two steps, not one per integer below the top key
        big = 1 << 60
        product = _term_products([({big: 1, 0: 1}, {1: 1, 0: 3})])
        assert _exact_quotient(product, {1: 1, 0: 3}) == {big: 1, 0: 1}
        assert _exact_quotient({3: 6, 0: -6}, {1: 2, 0: -2}) == {2: 3, 1: 3, 0: 3}
