"""Deterministic Aberth-Ehrlich root finding against Vieta and bisection,
and the integer squarefree split against Yun's algorithm over the rationals."""

import math
import random
from fractions import Fraction

import pytest

from mldeg.intpoly import VarContext
from mldeg.poly import MPoly
from mldeg.roots import (
    RootFindingError,
    _squarefree_split,
    aberth_roots,
    cluster_roots,
    complex_roots,
)

from reference import dense_coeffs, from_dense, squarefree_decomposition

CTX_X = VarContext(("x",))


def horner(coeffs, z):
    value = 0j
    for c in reversed(coeffs):
        value = value * z + c
    return value


def bisect_root(f, lo, hi, steps=80):
    """Oracle: plain bisection for a sign change of a real callable."""
    flo = f(lo)
    assert flo * f(hi) < 0
    for _ in range(steps):
        mid = (lo + hi) / 2
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return (lo + hi) / 2


class TestAberth:
    def test_quadratic_pinned(self):
        roots = sorted(aberth_roots([-1, 0, 1]), key=lambda z: z.real)
        assert abs(roots[0] - (-1)) < 1e-12
        assert abs(roots[1] - 1) < 1e-12

    def test_cubic_real_root_matches_bisection(self):
        coeffs = [-1, 0, 1, 1]  # x^3 + x^2 - 1
        expected = bisect_root(lambda t: t ** 3 + t ** 2 - 1, 0.0, 1.0)
        real = [z for z in aberth_roots(coeffs) if abs(z.imag) < 1e-9]
        assert len(real) == 1
        assert abs(real[0].real - expected) < 1e-10

    def test_vieta_sums_and_products(self):
        rng = random.Random(11)
        for _ in range(100):
            degree = rng.randrange(2, 9)
            coeffs = [rng.randrange(-9, 10) for _ in range(degree)]
            coeffs.append(rng.randrange(1, 10))  # nonzero leading coefficient
            roots = aberth_roots(coeffs)
            assert len(roots) == degree
            total = sum(roots)
            prod = 1
            for z in roots:
                prod *= z
            assert abs(total - (-coeffs[-2] / coeffs[-1])) < 1e-8 * (1 + abs(total))
            sign = -1 if degree % 2 else 1
            assert abs(prod - sign * coeffs[0] / coeffs[-1]) < 1e-8 * (1 + abs(prod))

    def test_residuals_small_at_roots(self):
        rng = random.Random(12)
        for _ in range(30):
            coeffs = [rng.randrange(-5, 6) for _ in range(5)] + [1]
            for z in aberth_roots(coeffs):
                scale = sum(abs(c) * abs(z) ** i for i, c in enumerate(coeffs)) or 1.0
                assert abs(horner(coeffs, z)) / scale < 1e-12

    def test_zero_roots_split_off_exactly(self):
        # x^3 - x^2 = x^2 (x - 1): two exact zeros
        roots = aberth_roots([0, 0, -1, 1])
        zeros = [z for z in roots if z == 0]
        assert len(zeros) == 2
        others = [z for z in roots if z != 0]
        assert len(others) == 1 and abs(others[0] - 1) < 1e-12

    def test_degenerate_inputs(self):
        assert aberth_roots([]) == []
        assert aberth_roots([5]) == []
        assert aberth_roots([0, 0]) == []  # trailing zeros trimmed to a constant
        assert aberth_roots([3, 2]) == [-1.5]

    def test_identical_inputs_identical_outputs(self):
        coeffs = [1, -3, 0, 2, 7]
        assert aberth_roots(coeffs) == aberth_roots(coeffs)

    def test_error_carries_residuals(self, monkeypatch):
        monkeypatch.setattr("mldeg.roots.MAX_ITERATIONS", 0)
        with pytest.raises(RootFindingError) as info:
            aberth_roots([1, 1, 1])
        assert isinstance(info.value.residuals, list)
        assert len(info.value.residuals) == 2


class TestClusterRoots:
    def test_merges_close_roots(self):
        merged = cluster_roots([(1.0 + 0j, 1), (1.0 + 1e-9j, 2), (2.0 + 0j, 1)])
        assert [m for _, m in merged] == [3, 1]
        assert abs(merged[0][0] - 1.0) < 1e-8

    def test_output_sorted_by_real_then_imag(self):
        merged = cluster_roots([(2.0 + 0j, 1), (-1.0 + 0j, 1), (-1.0 - 3j, 1)])
        assert [z for z, _ in merged] == [(-1.0 - 3j), (-1.0 + 0j), (2.0 + 0j)]


def integer_coeffs(f):
    """The coefficients of f times the lcm of their denominators, highest
    power first."""
    coeffs = dense_coeffs(f, "x")[::-1]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return [int(c * scale) for c in coeffs]


class TestComplexRoots:
    def test_exact_multiplicities(self):
        x = MPoly.var(CTX_X, "x")
        assert complex_roots([1, -2, 1]) == [(1 + 0j, 2)]
        f = (x - 1) ** 2 * (x + 2) * (x * x + 1)
        found = complex_roots(integer_coeffs(f))
        assert sum(m for _, m in found) == 5
        by_mult = {m for _, m in found}
        assert by_mult == {1, 2}

    def test_multiplicity_sum_equals_degree(self):
        rng = random.Random(13)
        x = MPoly.var(CTX_X, "x")
        for _ in range(20):
            f = MPoly.const(CTX_X, 1)
            for _ in range(rng.randrange(1, 4)):
                root = Fraction(rng.randrange(-3, 4))
                f = f * (x - root) ** rng.randrange(1, 3)
            assert sum(m for _, m in complex_roots(integer_coeffs(f))) == f.degree_in("x")

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            complex_roots([])

    def test_constant_has_no_roots(self):
        assert complex_roots([3]) == []

    def test_fractional_coefficients(self):
        # 2x^2 - x - 1 = (2x + 1)(x - 1), scaled by 1/3: any integer
        # multiple of it gives the same roots, bit for bit
        f = from_dense(CTX_X, "x", [Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3)])
        assert integer_coeffs(f) == [2, -1, -1]
        roots = sorted((z for z, _ in complex_roots([2, -1, -1])), key=lambda z: z.real)
        assert abs(roots[0] - (-0.5)) < 1e-10
        assert abs(roots[1] - 1) < 1e-10
        assert complex_roots([-6, 3, 3]) == complex_roots([2, -1, -1])


def factored_polynomials(count, seed, max_degree=12):
    """Seeded products of repeated factors: x itself, integer and rational
    linear and quadratic factors and small dense ones, times a rational
    scalar of either sign (content, a negative leading coefficient and
    denominators), of degree 1 to max_degree."""
    rng = random.Random(seed)
    x = MPoly.var(CTX_X, "x")

    def small():
        return Fraction(rng.randrange(-9, 10), rng.choice((1, 1, 2, 3, 7)))

    out = []
    for _ in range(count):
        f = MPoly.const(CTX_X, Fraction(rng.choice((-1, 1)) * rng.randrange(1, 50),
                                        rng.randrange(1, 13)))
        degree, target = 0, rng.randrange(1, max_degree + 1)
        while degree < target:
            kind = rng.randrange(4)
            if kind == 0:
                factor = x
            elif kind == 1:
                factor = rng.randrange(1, 6) * x + small()
            elif kind == 2:
                factor = x * x + small() * x + small()
            else:
                factor = from_dense(CTX_X, "x", [small() for _ in range(rng.randrange(2, 5))]
                                    + [rng.randrange(1, 4)])
            d = factor.degree_in("x")
            mult = rng.randrange(1, 4)
            if degree + d * mult > max_degree:
                mult = 1
            if degree + d > max_degree:
                break
            f, degree = f * factor ** mult, degree + d * mult
        if degree:
            out.append(f)
    return out


CORPUS = factored_polynomials(300, 7)


def parent_complex_roots(f, variable):
    """complex_roots as composed on the rational Yun."""
    found = []
    for factor, mult in squarefree_decomposition(f, variable):
        for root in aberth_roots(dense_coeffs(factor, variable)):
            found.append((root, mult))
    return cluster_roots(found)


class TestSquarefreeSplit:
    def test_corpus_covers_every_case(self):
        degrees = [f.degree_in("x") for f in CORPUS]
        assert min(degrees) == 1 and max(degrees) == 12
        leads = [dense_coeffs(f, "x")[-1] for f in CORPUS]
        assert any(c < 0 for c in leads) and any(c.denominator > 1 for c in leads)
        assert any(math.gcd(*integer_coeffs(f)) > 1 for f in CORPUS)
        assert any(dense_coeffs(f, "x")[:2] == [0, 0] for f in CORPUS)
        assert any(max(m for _, m in squarefree_decomposition(f, "x")) >= 3 for f in CORPUS)

    def test_monic_factors_match_rational_yun(self):
        for f in CORPUS:
            split = _squarefree_split(integer_coeffs(f))
            assert all(p[0] > 0 and math.gcd(*p) == 1 for p, _ in split)
            got = [([Fraction(c, p[0]) for c in reversed(p)], m) for p, m in split]
            assert got == [(dense_coeffs(g, "x"), m) for g, m in squarefree_decomposition(f, "x")]

    def test_pinned(self):
        # -6 x^3 (2x + 1)^2 (x - 1) (x^2 + 3)
        assert _squarefree_split([-24, 0, -54, 6, 54, 18, 0, 0, 0]) == [
            ([1, -1, 3, -3], 1), ([2, 1], 2), ([1, 0], 3)]
        assert _squarefree_split([5, 0, 0, 0]) == [([1, 0], 3)]

    def test_complex_roots_bit_identical_to_rational_yun(self):
        for f in CORPUS:
            assert complex_roots(integer_coeffs(f)) == parent_complex_roots(f, "x")

    def test_refusals_in_order(self):
        # leading zeros are ignored: all zeros is the zero polynomial, one
        # nonzero entry a constant
        with pytest.raises(ValueError, match="zero polynomial"):
            complex_roots([0, 0, 0])
        assert complex_roots([0, 0, 5]) == []
        assert complex_roots([0, 1, -4, 4]) == [(2 + 0j, 2)]
