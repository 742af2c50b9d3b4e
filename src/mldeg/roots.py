"""Deterministic complex root finding for dense univariate polynomials.

All roots are found simultaneously (Aberth-Ehrlich iteration) from a fixed
circular initialization scaled by the Cauchy bound, so identical inputs
give identical outputs with no randomness.  Exact polynomials come as
integer coefficient lists, highest power first, as intpoly keeps them; they
are split into squarefree factors first, which makes reported
multiplicities exact instead of numerical guesses: Yun's algorithm runs
over the primitive integer gcd (intpoly._integer_gcd), and each factor is
made monic in Fractions only just before its coefficients become floats.
The module holds no MPoly.
"""

from __future__ import annotations

import cmath
from fractions import Fraction

from .intpoly import _derivative, _integer_gcd, _primitive, _trim

# |f(r)| below this times the coefficient-magnitude scale at r ends Aberth
RESIDUAL_TOL = 1e-13
# distinct squarefree factors' roots closer than this are merged
CLUSTER_TOL = 1e-7
# Aberth sweeps before RootFindingError, read at each call
MAX_ITERATIONS = 200


class RootFindingError(ArithmeticError):
    """Iteration failed to converge; carries the best residuals seen."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals


def aberth_roots(coeffs) -> list[complex]:
    """All complex roots of sum(coeffs[i] * x**i), coefficients ascending.

    Convergence: every |f(r)| below RESIDUAL_TOL times the
    coefficient-magnitude scale at r.  Exact zero roots (vanishing
    low-order coefficients) are split off first.
    """
    cs = [complex(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 1:
        return []
    zeros: list[complex] = []
    while cs[0] == 0:
        zeros.append(0j)
        cs.pop(0)
        if len(cs) == 1:
            return zeros
    degree = len(cs) - 1
    if degree == 1:
        return zeros + [-cs[0] / cs[1]]

    lead = cs[-1]
    radius = 1.0 + max(abs(c / lead) for c in cs[:-1])

    def evaluate(z: complex) -> tuple[complex, complex]:
        p = 0j
        dp = 0j
        for c in reversed(cs):
            dp = dp * z + p
            p = p * z + c
        return p, dp

    def scale_at(z: complex) -> float:
        az = abs(z)
        total = 0.0
        power = 1.0
        for c in cs:
            total += abs(c) * power
            power *= az
        return total or 1.0

    roots = [
        0.9 * radius * cmath.exp(1j * (2 * cmath.pi * k / degree + 0.4))
        for k in range(degree)
    ]
    residuals = [float("inf")] * degree
    for _ in range(MAX_ITERATIONS):
        values = []
        converged = True
        for k, z in enumerate(roots):
            p, dp = evaluate(z)
            values.append((p, dp))
            residuals[k] = abs(p) / scale_at(z)
            if residuals[k] > RESIDUAL_TOL:
                converged = False
        if converged:
            return zeros + roots
        updated = []
        for k, z in enumerate(roots):
            p, dp = values[k]
            if p == 0:
                updated.append(z)
                continue
            if dp == 0:
                updated.append(z + (1e-8 + 1e-8j) * max(1.0, abs(z)))
                continue
            newton = p / dp
            repulsion = 0j
            for j, other in enumerate(roots):
                if j == k:
                    continue
                gap = z - other
                if gap == 0:
                    gap = 1e-20 + 1e-20j
                repulsion += 1 / gap
            denom = 1 - newton * repulsion
            step = newton if denom == 0 else newton / denom
            updated.append(z - step)
        roots = updated
    raise RootFindingError(
        f"no convergence after {MAX_ITERATIONS} iterations", residuals
    )


def cluster_roots(pairs: list[tuple[complex, int]]) -> list[tuple[complex, int]]:
    """Merge roots closer than CLUSTER_TOL, summing multiplicities;
    deterministic output order by (real, imaginary)."""
    out: list[tuple[complex, int]] = []
    for root, mult in sorted(pairs, key=lambda rm: (rm[0].real, rm[0].imag)):
        for i, (seen, m) in enumerate(out):
            if abs(root - seen) < CLUSTER_TOL:
                out[i] = ((seen * m + root * mult) / (m + mult), m + mult)
                break
        else:
            out.append((root, mult))
    return out


def _sub(a: list, b: list) -> list:
    """a - b for integer polynomials, highest power first."""
    pad = len(a) - len(b)
    a, b = [0] * -pad + a, [0] * pad + b
    return _trim([x - y for x, y in zip(a, b)])


def _exact_quotient(a: list, b: list) -> list:
    """a / b for integer polynomials, highest power first, when b divides a
    in Z[x]; every leading coefficient divides exactly."""
    a = list(a)
    quotient = []
    for k in range(len(a) - len(b) + 1):
        q = a[k] // b[0]
        quotient.append(q)
        for i, y in enumerate(b[1:], k + 1):
            a[i] -= q * y
    return quotient


def _squarefree_split(f: list) -> list[tuple[list, int]]:
    """Yun's algorithm on an integer polynomial f of degree at least 1,
    highest power first: f = c * prod(p_i ** i) with the p_i squarefree and
    primitive, with positive leading coefficients; (p_i, i) for each p_i of
    degree at least 1, in increasing i.

    Each gcd is primitive (_integer_gcd), so by Gauss's lemma every quotient
    by it is integral."""
    b = _primitive(f)
    derivative = _derivative(b)
    g = _integer_gcd(b, derivative)
    b, c = _exact_quotient(b, g), _exact_quotient(derivative, g)
    d = _sub(c, _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        # gcd(b, 0) is b, which is exactly the last factor case
        p = _integer_gcd(b, d) if d else _primitive(b)
        if len(p) > 1:
            out.append((p, i))
        b, c = _exact_quotient(b, p), _exact_quotient(d, p)
        d = _sub(c, _derivative(b))
        i += 1
    return out


def complex_roots(f: list) -> list[tuple[complex, int]]:
    """All roots, with multiplicities, of an integer polynomial given highest
    power first (intpoly's convention); leading zeros are ignored.

    Multiplicities come from exact squarefree factorization over the
    integers (_squarefree_split), so e.g. (x-1)**2 reports exactly {1: 2};
    each factor is made monic in Fractions before Aberth sees it (the monic
    factors are unique, so their floats do not depend on how they were
    found, nor on a nonzero scalar multiple of f), and clustering only
    reconciles distinct factors whose numeric roots collide.
    """
    f = _trim(f)
    if not f:
        raise ValueError("root finding on the zero polynomial")
    if len(f) < 2:
        return []
    found: list[tuple[complex, int]] = []
    for factor, mult in _squarefree_split(f):
        monic = [Fraction(c, factor[0]) for c in reversed(factor)]
        for root in aberth_roots(monic):
            found.append((root, mult))
    return cluster_roots(found)
