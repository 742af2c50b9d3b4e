"""Exact polynomial core: ring laws, Bareiss determinants, resultants, gcds.

The determinant and resultant checks run against independent oracles written
inline (cofactor expansion, gcd-degree dichotomy) so a shared bug in the
implementation cannot hide itself.
"""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

from mldeg import curve as curve_module
from mldeg import model as model_module
from mldeg import poly, variety
from mldeg.curve import curve_from_model
from mldeg.intpoly import VarContext, _term_products
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import ContextMismatchError, MPoly
from mldeg.reaction import parse_reaction

import reference
from reference import (
    NonExactDivisionError,
    PolyMatrix,
    assert_canonical,
    cast,
    compose,
    constant_value,
    dense_coeffs,
    determinant_fraction_free,
    eval_complex,
    eval_exact,
    exact_divide,
    fraction_str,
    from_dense,
    integer_coeffs,
    partial_derivative,
    resultant,
    squarefree_decomposition,
    substitute,
    sylvester_matrix,
    univariate_gcd,
    valuation_in,
    variety_critical_system,
)

CTX_X = VarContext(("x",))
CTX_XY = VarContext(("x", "y"))
CTX_XYZ = VarContext(("x", "y", "z"))


# poly.py holds MPoly alone, which no engine module imports: only the tests
# and the benchmark's tracer load it, and they compile it from source when
# no bytecode cache is written.  The pin bounds the module's syntax tree;
# keep the tree no larger than it is.
POLY_AST_NODE_BUDGET = 1123


def test_poly_module_stays_within_its_ast_node_budget():
    src = Path(poly.__file__).read_text(encoding="utf-8")
    assert sum(1 for _ in ast.walk(ast.parse(src))) <= POLY_AST_NODE_BUDGET


def rand_poly(rng, ctx, max_deg=3, max_terms=4, allow_zero=False):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exp = tuple(rng.randrange(0, max_deg + 1) for _ in range(len(ctx)))
        terms[exp] = Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
    p = MPoly(ctx, terms)
    if p.is_zero() and not allow_zero:
        return MPoly.const(ctx, 1)
    return p


def x_poly(*coeffs):
    """Univariate helper: x_poly(c0, c1, ...) = c0 + c1*x + ..."""
    return from_dense(CTX_X, "x", [Fraction(c) for c in coeffs])


class TestRingLaws:
    def test_random_ring_identities(self):
        rng = random.Random(1)
        for _ in range(100):
            a = rand_poly(rng, CTX_XY, allow_zero=True)
            b = rand_poly(rng, CTX_XY, allow_zero=True)
            c = rand_poly(rng, CTX_XY, allow_zero=True)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a - a == MPoly.zero(CTX_XY)
            assert a * MPoly.const(CTX_XY, 1) == a
            for p in (a * b, a + b, a - b, cast(a * c, CTX_XYZ)):
                assert_canonical(p)

    def test_pow_matches_repeated_multiplication(self):
        rng = random.Random(2)
        for _ in range(20):
            a = rand_poly(rng, CTX_XY, max_deg=2, max_terms=3)
            by_mul = MPoly.const(CTX_XY, 1)
            for n in range(5):
                assert a ** n == by_mul
                assert all(type(c) is Fraction for c in (a ** n).term_map().values())
                by_mul = by_mul * a

    def test_scalar_coercion(self):
        x = MPoly.var(CTX_X, "x")
        assert x + 1 == MPoly(CTX_X, {(1,): 1, (0,): 1})
        assert 2 * x == MPoly(CTX_X, {(1,): 2})
        assert (1 - x) + (x - 1) == MPoly.zero(CTX_X)
        assert x * Fraction(1, 2) == MPoly(CTX_X, {(1,): Fraction(1, 2)})

    def test_context_mismatch_rejected(self):
        with pytest.raises(ContextMismatchError):
            MPoly.var(CTX_X, "x") + MPoly.var(CTX_XY, "x")

    def test_bad_exponent_vectors_rejected(self):
        with pytest.raises(ValueError):
            MPoly(CTX_X, {(1, 0): 1})
        with pytest.raises(ValueError):
            MPoly(CTX_X, {(-1,): 1})

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            MPoly.const(CTX_X, 0.5)


class TestInspection:
    def test_degrees_and_valuations(self):
        f = x_poly(0, 0, 1, 1)  # x^2 + x^3
        assert (f.degree_in("x"), valuation_in(f, "x")) == (3, 2)
        g = MPoly(CTX_XY, {(2, 1): 1, (0, 3): 1})
        assert g.degree_in("y") == 3
        assert g.degree_in("x") == 2
        assert valuation_in(g, "x") == 0

    def test_uses_and_constants(self):
        f = MPoly(CTX_XY, {(0, 2): 3})
        assert f.uses("y") and not f.uses("x")
        c = MPoly.const(CTX_XY, Fraction(7, 2))
        assert c.is_constant()
        assert constant_value(c) == Fraction(7, 2)

    def test_string_is_descending_graded_lex(self):
        f = MPoly(CTX_XY, {(1, 1): 1, (0, 2): 1, (1, 0): 1, (0, 0): 1})
        assert str(f) == "x*y + y^2 + x + 1"
        assert str(x_poly(2, 0, -1)) == "-x^2 + 2"
        assert str(MPoly(CTX_X, {(1,): Fraction(3, 2)})) == "3/2*x"
        assert str(MPoly.zero(CTX_X)) == "0"

    def test_string_matches_fraction_printer(self):
        # numerator and denominator give the text that abs(), < 0 and str()
        # of each Fraction give: negative, fractional, unit and constant
        # terms, large coefficients, and the zero polynomial
        rng = random.Random(19)
        coefficients = [Fraction(1), Fraction(-1), Fraction(7), Fraction(-12),
                        Fraction(1, 3), Fraction(-27, 4), Fraction(10 ** 20 + 1, 3)]
        seen = set()
        for _ in range(500):
            ctx = rng.choice((CTX_X, CTX_XY, CTX_XYZ, VarContext(("t0", "t1", "s", "K_e"))))
            terms = {}
            for _ in range(rng.randrange(0, 6)):
                exp = tuple(rng.choice((0, 0, 1, 2, 11)) for _ in range(len(ctx)))
                terms[exp] = rng.choice(coefficients + [
                    Fraction(rng.randrange(-99, 100), rng.randrange(1, 9))])
            p = MPoly(ctx, terms)
            assert str(p) == fraction_str(p)
            seen.update((c.denominator > 1, c < 0, abs(c) == 1, not any(e))
                        for e, c in p.items())
            seen.add(p.is_zero())
        # fractional or integral, negative or positive, unit or not, constant
        # or not: every possible mix met, and the zero polynomial too
        assert len(seen) == 3 * 2 * 2 + 2


def naive_map(f, images, ctx):
    """Term map of f with each variable named in images sent there (an MPoly
    over ctx or a rational) and every other variable to its namesake in
    ctx: each term multiplied out on its own, on plain dicts."""
    def product(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(p + q for p, q in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return out

    total = {}
    for exp, c in f.term_map().items():
        term = {(0,) * len(ctx): c}
        for name, k in zip(f.ctx.names, exp):
            value = images.get(name, MPoly.var(ctx, name) if name in ctx else None)
            value = value.term_map() if isinstance(value, MPoly) else {(0,) * len(ctx): value}
            for _ in range(k):
                term = product(term, value)
        for e, v in term.items():
            total[e] = total.get(e, 0) + v
    return {e: v for e, v in total.items() if v}


def check_against_naive(got, f, images, ctx, drop):
    """got equals the naive map over ctx, with the bound variables it no
    longer uses dropped when drop is set (as substitute does), and is
    canonical."""
    want = MPoly(ctx, naive_map(f, images, ctx))
    unused = [n for n in images if not want.uses(n)] if drop else []
    if unused:
        want = cast(want, ctx.drop(unused))
    assert got.ctx == want.ctx and got == want
    assert_canonical(got)


class TestSubstitutionAndEvaluation:
    def test_exact_eval_matches_substitution(self):
        rng = random.Random(3)
        for _ in range(50):
            f = rand_poly(rng, CTX_XYZ)
            point = {
                n: Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
                for n in ("x", "y", "z")
            }
            substituted = substitute(f, point)
            assert substituted.is_constant()
            assert constant_value(substituted) == eval_exact(f, point)

    def test_complex_eval_matches_exact(self):
        rng = random.Random(4)
        for _ in range(50):
            f = rand_poly(rng, CTX_XY)
            point = {n: rng.randrange(-3, 4) for n in ("x", "y")}
            exact = eval_exact(f, point)
            approx = eval_complex(f, {n: complex(v) for n, v in point.items()})
            assert abs(approx - complex(exact)) <= 1e-9 * (1 + abs(complex(exact)))

    def test_substitute_polynomial_image(self):
        x = MPoly.var(CTX_XY, "x")
        y = MPoly.var(CTX_XY, "y")
        f = x * x - y
        # x -> y + 1 turns x^2 - y into y^2 + y + 1
        g = substitute(f, {"x": y + 1})
        assert g == cast(MPoly(CTX_XY, {(0, 2): 1, (0, 1): 1, (0, 0): 1}), g.ctx)

    def test_substitute_and_compose_match_term_by_term_powers(self):
        # reference: each term's images raised with ** and the terms summed
        rng = random.Random(6)
        z = MPoly.var(CTX_XYZ, "z")
        for _ in range(10):
            f = rand_poly(rng, CTX_XYZ)
            g, h = rand_poly(rng, CTX_XYZ), rand_poly(rng, CTX_XYZ)
            expected = MPoly.zero(CTX_XYZ)
            composed = MPoly.zero(CTX_XYZ)
            for (a, b, c), coeff in f.items():
                expected = expected + coeff * g ** a * h ** b * z ** c
                composed = composed + coeff * g ** a * h ** b * (g + h) ** c
            substituted = substitute(f, {"x": g, "y": h})
            assert substituted == cast(expected, substituted.ctx)
            assert compose(f, {"x": g, "y": h, "z": g + h}, CTX_XYZ) == composed

    def test_substitute_and_compose_match_naive_reference(self):
        rng = random.Random(10)
        ctx = VarContext(("x", "y", "z", "K_e"))
        target = VarContext(("t0", "s", "K_e"))
        x, y, z = (MPoly.var(ctx, n) for n in ("x", "y", "z"))

        def image(over):
            kind = rng.choice(("rational", "polynomial", "zero"))
            if kind == "rational":
                return Fraction(rng.randrange(-9, 10), rng.randrange(1, 5))
            if kind == "zero":
                return rng.choice((Fraction(0), MPoly.zero(over)))
            return rand_poly(rng, over, max_deg=2, max_terms=3)

        for _ in range(60):
            f = rand_poly(rng, ctx, max_deg=3, max_terms=6)
            names = rng.sample(ctx.names, rng.randrange(1, 4))
            bindings = {n: image(ctx) for n in names}
            check_against_naive(substitute(f, bindings), f, bindings, ctx, drop=True)
            images = {n: image(target) for n in ctx.names}
            images["K_e"] = MPoly.var(target, "K_e")
            composed = compose(f, images, target)
            assert composed.ctx == target
            check_against_naive(composed, f, images, target, drop=False)
        # images that cancel: x and y bound, the result free of both, and
        # both dropped from the context, although x's image uses x
        f = x * z + y
        got = substitute(f, {"x": x, "y": -x * z})
        assert got.ctx == ctx.drop(["x", "y"]) and got.is_zero()
        check_against_naive(got, f, {"x": x, "y": -x * z}, ctx, drop=True)
        got = substitute(x * x - y, {"x": y + z, "y": y * y + 2 * y * z})
        assert got == MPoly(ctx.drop(["x", "y"]), {(2, 0): 1})
        # a bound variable whose image uses it stays in the context
        got = substitute(x * y, {"x": x + 1})
        assert got.ctx == ctx and got == x * y + y

    def test_eval_complex_ignores_vanished_variables(self):
        # only variables that actually appear need bindings
        f = MPoly(CTX_XY, {(2, 0): 1})
        assert eval_complex(f, {"x": 3.0}) == 9.0

    def test_eval_complex_requires_used_variables(self):
        f = MPoly(CTX_XY, {(1, 1): 1})
        with pytest.raises(ValueError):
            eval_complex(f, {"x": 1.0})

    def test_partial_derivative_product_rule(self):
        rng = random.Random(5)
        for _ in range(50):
            f = rand_poly(rng, CTX_XY)
            g = rand_poly(rng, CTX_XY)
            lhs = partial_derivative(f * g, "x")
            rhs = partial_derivative(f, "x") * g + f * partial_derivative(g, "x")
            assert lhs == rhs

    def test_partial_derivative_pinned(self):
        f = MPoly(CTX_XY, {(3, 1): 1})
        assert partial_derivative(f, "x") == MPoly(CTX_XY, {(2, 1): 3})
        assert partial_derivative(f, "y") == MPoly(CTX_XY, {(3, 0): 1})


class TestExactDivision:
    def test_product_roundtrip(self):
        rng = random.Random(6)
        for _ in range(100):
            f = rand_poly(rng, CTX_XY, max_deg=2)
            g = rand_poly(rng, CTX_XY, max_deg=2)
            assert exact_divide(f * g, g) == f

    def test_non_exact_division_raises(self):
        f = x_poly(1, 0, 1)  # x^2 + 1
        g = x_poly(1, 1)     # x + 1
        with pytest.raises(NonExactDivisionError):
            exact_divide(f, g)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            exact_divide(x_poly(1), MPoly.zero(CTX_X))


def cofactor_determinant(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    ctx = rows[0][0].ctx
    total = MPoly.zero(ctx)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


class TestDeterminant:
    def test_bareiss_matches_cofactor_oracle(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(1, 5)
            rows = [
                tuple(rand_poly(rng, CTX_XY, max_deg=1, max_terms=2, allow_zero=True)
                      for _ in range(n))
                for _ in range(n)
            ]
            expected = cofactor_determinant(rows)
            got = determinant_fraction_free(PolyMatrix(tuple(rows)))
            assert got == expected

    def test_integer_kernel_with_row_denominators(self):
        # Bareiss clears each row's denominators and runs over the integers;
        # give every row its own denominator so the final rescale is exercised
        rng = random.Random(8)
        primes = (2, 3, 5, 7, 11)
        for _ in range(40):
            n = rng.randrange(2, 6)
            rows = []
            for i in range(n):
                row = []
                for _ in range(n):
                    entry = rand_poly(rng, CTX_XYZ, max_deg=1, max_terms=2, allow_zero=True)
                    row.append(entry * Fraction(1, primes[i] ** rng.randrange(1, 3)))
                rows.append(tuple(row))
            got = determinant_fraction_free(PolyMatrix(tuple(rows)))
            assert got == cofactor_determinant(rows)

    def test_integer_exact_division(self):
        # packed as determinant_fraction_free packs: 4-bit fields for
        # x, y, z (x leftmost), the top bit of each the guard bit
        def packed(terms):
            return {i * 256 + j * 16 + k: c for (i, j, k), c in terms.items()}

        guard = 0b100010001000
        b = packed({(1, 1, 0): 5, (0, 0, 1): 7})
        f = _term_products([(packed({(1, 0, 0): 3, (0, 1, 0): -2}), b)])
        assert f == packed({(2, 1, 0): 15, (1, 2, 0): -10, (1, 0, 1): 21, (0, 1, 1): -14})
        assert reference._int_exact_divide(f, b, guard) == packed({(1, 0, 0): 3, (0, 1, 0): -2})
        x, y, z = packed({(1, 0, 0): 1}), packed({(0, 1, 0): 1}), packed({(0, 0, 1): 1})
        with pytest.raises(NonExactDivisionError):  # negative exponent: y / x
            reference._int_exact_divide(y, x, guard)
        # negative exponent in the middle field: x*z / y; without the guard
        # bit, y's field would borrow from x's and the quotient x*z/y would
        # pass as x^0 y^15 z
        with pytest.raises(NonExactDivisionError):
            reference._int_exact_divide(_term_products([(x, z)]), y, guard)
        with pytest.raises(NonExactDivisionError):  # remainder: (x + 1) / (2x)
            reference._int_exact_divide(packed({(1, 0, 0): 1, (0, 0, 0): 1}), {256: 2}, guard)

    def test_bareiss_at_the_row_sum_degree_bound(self):
        # each row r has degrees d[r][v] <= 2 and one term reaching all of
        # them in every entry, with a diagonally dominant matrix of top
        # coefficients, so the determinant reaches the row-sum bound in every
        # variable and the packed fields are filled to their width; the last
        # variable is used by one row only
        rng = random.Random(9)
        for case in range(40):
            width = 3 + case % 2
            ctx = VarContext(tuple(f"v{i}" for i in range(width)))
            n = 1 + case % 5
            owner = rng.randrange(n)
            d = [[rng.randrange(0, 3) for _ in range(width - 1)]
                 + [rng.randrange(1, 3) if r == owner else 0] for r in range(n)]
            rows = []
            for r in range(n):
                row = []
                for j in range(n):
                    terms = {tuple(rng.randrange(0, k + 1) for k in d[r]):
                             Fraction(rng.randrange(-9, 10), rng.randrange(1, 4))
                             for _ in range(rng.randrange(0, 3))}
                    terms[tuple(d[r])] = Fraction(100 if j == r else rng.randrange(1, 10))
                    row.append(MPoly(ctx, terms))
                rows.append(tuple(row))
            got = determinant_fraction_free(PolyMatrix(tuple(rows)))
            assert got == cofactor_determinant(rows)
            for v, name in enumerate(ctx.names):
                assert got.degree_in(name) == sum(d[r][v] for r in range(n))

    def test_repeated_rows_give_zero(self):
        row = (x_poly(1, 2), x_poly(0, 0, 3))
        m = PolyMatrix((row, row))
        assert determinant_fraction_free(m).is_zero()

    def test_zero_pivot_row_swap(self):
        zero = MPoly.zero(CTX_X)
        one = MPoly.const(CTX_X, 1)
        m = PolyMatrix(((zero, one), (one, zero)))
        assert determinant_fraction_free(m) == MPoly.const(CTX_X, -1)

    def test_non_square_rejected(self):
        one = MPoly.const(CTX_X, 1)
        with pytest.raises(ValueError):
            determinant_fraction_free(PolyMatrix(((one, one),)))


class TestResultant:
    def test_linear_pair_pinned(self):
        # Res(x - a, x - b) = a - b
        assert resultant(x_poly(-2, 1), x_poly(-5, 1), "x") == MPoly.const(CTX_X, -3)
        assert resultant(x_poly(1, 0, 1), x_poly(-1, 0, 1), "x") == MPoly.const(CTX_X, 4)

    def test_sylvester_shape(self):
        f = x_poly(1, 0, 1)
        g = x_poly(-1, 1)
        m = sylvester_matrix(f, g, "x")
        assert (m.nrows, m.ncols) == (3, 3)

    def test_vanishing_iff_common_root(self):
        # the dichotomy used throughout elimination: Res(f, g) = 0 exactly
        # when f and g share a factor
        rng = random.Random(8)
        seen_zero = seen_nonzero = 0
        for _ in range(200):
            pool = [Fraction(rng.randrange(-4, 5)) for _ in range(4)]
            f_roots = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            g_roots = [rng.choice(pool) for _ in range(rng.randrange(1, 4))]
            f = MPoly.const(CTX_X, rng.randrange(1, 4))
            for r in f_roots:
                f = f * x_poly(-r, 1)
            g = MPoly.const(CTX_X, rng.randrange(1, 4))
            for r in g_roots:
                g = g * x_poly(-r, 1)
            res = resultant(f, g, "x")
            shared = set(f_roots) & set(g_roots)
            assert res.is_zero() == bool(shared)
            gcd = univariate_gcd(f, g, "x")
            gcd_deg = 0 if gcd.is_constant() else gcd.degree_in("x")
            assert (gcd_deg == 0) == (not res.is_zero())
            seen_zero += bool(shared)
            seen_nonzero += not shared
        assert seen_zero > 20 and seen_nonzero > 20

    def test_multivariate_elimination(self):
        # eliminating y from {x - y^2, x + y^2 - 2} forces x = 1
        x = MPoly.var(CTX_XY, "x")
        y = MPoly.var(CTX_XY, "y")
        res = resultant(x - y * y, x + y * y - 2, "y")
        assert not res.uses("y")
        roots = {exp for exp, _ in res.items()}
        # (x - 1)^2 up to scalar
        assert exact_divide(res, MPoly.const(res.ctx, res.term_map()[max(roots)]))\
            == (MPoly.var(res.ctx, "x") - 1) ** 2


def bareiss_resultant(f, g, name):
    return determinant_fraction_free(sylvester_matrix(f, g, name))


X2, Y2 = MPoly.var(CTX_XY, "x"), MPoly.var(CTX_XY, "y")


class TestResultantBySubresultants:
    """resultant takes operands using at most one variable besides the
    eliminated one, by the subresultant remainder sequence over the
    integer polynomials in that variable; its result must be exactly the
    Bareiss determinant of the Sylvester matrix."""

    def test_engine_carries_no_bareiss(self):
        # the Bareiss reference, the rational Euclid and Yun, exact division
        # and the rational resultant and maps live in the tests, so no engine
        # result can go through them
        for name in ("PolyMatrix", "determinant_fraction_free", "sylvester_matrix",
                     "univariate_gcd", "squarefree_decomposition", "dense_coeffs",
                     "_require_univariate", "_dense_trim", "_dense_divmod", "_dense_sub",
                     "_dense_gcd", "_dense_derivative", "exact_divide",
                     "NonExactDivisionError", "resultant", "from_dense", "_integer_coeffs"):
            assert not hasattr(poly, name)
        for name in ("eval_exact", "substitute", "cast", "_mapped", "partial_derivative",
                     "eval_complex", "as_univariate"):
            assert not hasattr(MPoly, name)

    def test_poly_holds_only_mpoly(self):
        # the integer resultant's kernels live in curve, their one engine
        # caller, and the numeric variety route in variety, which no
        # command loads; the Sylvester layout is the Bareiss reference's
        # alone, and the graded-lex order is model's
        for name in ("_integer_resultant", "_exact_quotient", "_dense_in", "_horner"):
            assert not hasattr(poly, name) and hasattr(curve_module, name)
        for name in ("_integer_determinant", "_degree_window", "_sylvester_rows"):
            assert not hasattr(poly, name) and not hasattr(curve_module, name)
        assert hasattr(reference, "_sylvester_rows")
        assert poly._gl_key is curve_module._gl_key is model_module._gl_key
        for name in ("count_critical_points_variety", "_determinant_form", "_projective_distance",
                     "TOL_RESIDUAL", "TOL_POSITION", "TOL_WITNESS", "TOL_CLUSTER"):
            assert not hasattr(curve_module, name) and hasattr(variety, name)

    def test_random_rational_pairs(self):
        rng = random.Random(11)
        checked = 0
        for _ in range(100):
            f = rand_poly(rng, CTX_XY, max_deg=3, max_terms=5)
            g = rand_poly(rng, CTX_XY, max_deg=3, max_terms=5)
            for name in ("x", "y"):
                if f.degree_in(name) + g.degree_in(name) == 0:
                    continue
                assert resultant(f, g, name) == bareiss_resultant(f, g, name)
                checked += 1
        assert checked > 150

    def test_seeded_integer_pairs(self):
        # the engine's kernel on integer operands of degree up to 8 in the
        # eliminated x and 6 in y, coefficients up to 10^30, as coefficient
        # lists: exactly Bareiss's determinant, highest power first, with no
        # leading zeros
        rng = random.Random(32)
        big = 10 ** 30

        def operand(x_deg):
            terms = {(k, j): rng.randint(-big, big)
                     for k in range(x_deg + 1) for j in range(7) if rng.random() < 0.4}
            terms[(x_deg, rng.randrange(7))] = rng.choice((-1, 1)) * rng.randint(1, big)
            return MPoly(CTX_XY, terms)

        # Bareiss's cost grows fast with the Sylvester dimension: 10 at most
        degrees = [(8, 1), (2, 8), (1, 7)]
        degrees += [(k, rng.randint(1, 8 - k)) for k in (rng.randint(0, 7) for _ in range(12))]
        cases = [(operand(df), operand(dg)) for df, dg in degrees]
        # a degree-0 operand on either side
        cases += [(operand(0), operand(5)), (operand(6), operand(0))]
        # a shared factor of degree 1 in x: a zero resultant
        shared = operand(1)
        cases.append((shared * operand(1), shared * operand(2)))
        for f, g in cases:
            fc, gc = (curve_module._dense_in(integer_coeffs(h, "x")[0], 1) for h in (f, g))
            want = bareiss_resultant(f, g, "x").term_map()
            top = max((e[1] for e in want), default=-1)
            assert curve_module._integer_resultant(fc, gc) == [
                int(want.get((0, k), 0)) for k in range(top, -1, -1)]
        assert not bareiss_resultant(*cases[-1], "x").term_map()

    @pytest.mark.parametrize("f, g", [
        # leading coefficient y - 1 vanishes at y = 1
        ((Y2 - 1) * X2 ** 2 + X2 + Y2, (Y2 - 1) * X2 + 2),
        # Res = y^14 + y^7: valuation 7
        (Y2 ** 4 * X2 ** 2 + Y2 ** 3, Y2 ** 2 * X2 + Y2 ** 5),
        # shared factor x - y: zero resultant
        ((X2 - Y2) * (X2 + 1), (X2 - Y2) * (X2 ** 2 + Y2)),
        # degree 0 in x, either side
        (Y2 ** 2 + 3, X2 ** 3 - Y2),
        (X2 ** 2 * Y2 - 1, Y2 - Fraction(2, 5)),
        # rational coefficients
        (Fraction(2, 3) * X2 ** 2 * Y2 - Fraction(5, 7) * Y2 + Fraction(1, 2),
         Fraction(3, 4) * X2 * Y2 ** 2 + Fraction(1, 5) * X2 - 7),
    ])
    def test_edge_cases(self, f, g):
        assert resultant(f, g, "x") == bareiss_resultant(f, g, "x")

    def test_edge_case_shapes(self):
        assert resultant(Y2 ** 4 * X2 ** 2 + Y2 ** 3, Y2 ** 2 * X2 + Y2 ** 5, "x") \
            == Y2 ** 14 + Y2 ** 7
        assert resultant((X2 - Y2) * (X2 + 1), (X2 - Y2) * (X2 ** 2 + Y2), "x").is_zero()
        assert resultant(Y2 ** 2 + 3, X2 ** 3 - Y2, "x") == (Y2 ** 2 + 3) ** 3
        # no variable besides x: one evaluation point, a constant result
        res = resultant(X2 ** 2 + Fraction(1, 3), 2 * X2 - 5, "x")
        assert res == MPoly.const(CTX_XY, Fraction(79, 3))

    def test_mid_rung_variety_eliminant(self):
        model = build_model(parse_reaction("3A + 5B <-> 7C"), EquilibriumConstant.parse("23/71"))
        eq1, eq2 = variety_critical_system(curve_from_model(model), (5, 8, 13))
        e1 = substitute(eq1, {"z": Fraction(1)})
        e2 = substitute(eq2, {"z": Fraction(1)})
        res = resultant(e1, e2, "y")
        assert res == bareiss_resultant(e1, e2, "y")
        assert (res.degree_in("x"), valuation_in(res, "x")) == (28, 15)

    def test_more_variables_refused(self):
        x, y, z = (MPoly.var(CTX_XYZ, n) for n in ("x", "y", "z"))
        with pytest.raises(ValueError, match=r"resultant in 'x' of polynomials in \['y', 'z'\]"):
            resultant(x * y + z, x * x - y * z, "x")
        # a third variable of the context that neither operand uses is no refusal
        assert resultant(x * y + 1, x - y, "x") == bareiss_resultant(x * y + 1, x - y, "x")

    def test_error_cases_still_raise(self):
        with pytest.raises(ValueError):
            resultant(MPoly.zero(CTX_XY), X2 + Y2, "x")
        with pytest.raises(ValueError):
            resultant(Y2 + 1, Y2 * Y2, "x")
        with pytest.raises(ContextMismatchError):
            resultant(x_poly(1, 1), X2 + 1, "x")


class TestUnivariateToolkit:
    def test_dense_roundtrip(self):
        coeffs = [Fraction(1), Fraction(0), Fraction(-3), Fraction(2)]
        f = from_dense(CTX_X, "x", coeffs)
        assert dense_coeffs(f, "x") == coeffs

    def test_gcd_pinned(self):
        f = x_poly(-1, 0, 1)       # (x-1)(x+1)
        g = x_poly(1, 2, 1)        # (x+1)^2
        gcd = univariate_gcd(f, g, "x")
        assert gcd.degree_in("x") == 1
        assert exact_divide(f, gcd) is not None
        assert exact_divide(g, gcd * gcd) is not None

    def test_squarefree_decomposition_multiplicities(self):
        x = MPoly.var(CTX_X, "x")
        assert [(str(f), m) for f, m in squarefree_decomposition(x * x, "x")] == [("x", 2)]
        assert [m for _, m in squarefree_decomposition(x ** 3, "x")] == [3]
        f = x ** 2 * (x + 1) ** 3
        parts = squarefree_decomposition(f, "x")
        assert sorted(m for _, m in parts) == [2, 3]
        rebuilt = MPoly.const(CTX_X, 1)
        for factor, mult in parts:
            assert factor.degree_in("x") == 1
            rebuilt = rebuilt * factor ** mult
        # product of factors reproduces f up to a rational scalar
        ratio = exact_divide(f, rebuilt)
        assert ratio.is_constant()

    def test_squarefree_part_degree(self):
        x = MPoly.var(CTX_X, "x")
        # the squarefree part is the product of the distinct factors
        parts = squarefree_decomposition(x ** 2 * (x + 1) ** 3, "x")
        assert sum(factor.degree_in("x") for factor, _ in parts) == 2
