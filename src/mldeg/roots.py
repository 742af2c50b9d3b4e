"""Deterministic complex root finding for dense univariate polynomials.

All roots are found simultaneously (Aberth-Ehrlich iteration) from a fixed
circular initialization scaled by the Cauchy bound, so identical inputs
give identical outputs with no randomness.  Exact polynomials go through a
squarefree factorization first, which makes reported multiplicities exact
instead of numerical guesses.
"""

from __future__ import annotations

import cmath

from .poly import MPoly, dense_coeffs, squarefree_decomposition


class RootFindingError(ArithmeticError):
    """Iteration failed to converge; carries the best residuals seen."""

    def __init__(self, message: str, residuals: list[float]):
        super().__init__(message)
        self.residuals = residuals


def aberth_roots(
    coeffs, tol: float = 1e-13, max_iter: int = 200
) -> list[complex]:
    """All complex roots of sum(coeffs[i] * x**i), coefficients ascending.

    Convergence: every |f(r)| below tol times the coefficient-magnitude
    scale at r.  Exact zero roots (vanishing low-order coefficients) are
    split off first.
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
    for _ in range(max_iter):
        values = []
        converged = True
        for k, z in enumerate(roots):
            p, dp = evaluate(z)
            values.append((p, dp))
            residuals[k] = abs(p) / scale_at(z)
            if residuals[k] > tol:
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
        f"no convergence after {max_iter} iterations", residuals
    )


def _complex_coeffs(poly: MPoly, variable: str, bindings: dict) -> list[complex]:
    """Ascending complex coefficients of poly in variable, with every other
    used variable bound numerically; trailing zeros above the constant are
    dropped."""
    buckets = poly.as_univariate(variable)
    top = max(buckets) if buckets else 0
    point = dict(bindings)
    point[variable] = 0.0
    out = [0j] * (top + 1)
    for k, coeff in buckets.items():
        out[k] = coeff.eval_complex(point)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def cluster_roots(
    pairs: list[tuple[complex, int]], eps: float = 1e-7
) -> list[tuple[complex, int]]:
    """Merge roots closer than eps, summing multiplicities; deterministic
    output order by (real, imaginary)."""
    out: list[tuple[complex, int]] = []
    for root, mult in sorted(pairs, key=lambda rm: (rm[0].real, rm[0].imag)):
        for i, (seen, m) in enumerate(out):
            if abs(root - seen) < eps:
                out[i] = ((seen * m + root * mult) / (m + mult), m + mult)
                break
        else:
            out.append((root, mult))
    return out


def complex_roots(
    f: MPoly, variable: str, cluster_tol: float = 1e-7
) -> list[tuple[complex, int]]:
    """All roots of an exact univariate polynomial with multiplicities.

    Multiplicities come from exact squarefree factorization, so e.g.
    (x-1)**2 reports exactly {1: 2}; clustering only reconciles distinct
    factors whose numeric roots collide.
    """
    if f.is_zero():
        raise ValueError("root finding on the zero polynomial")
    if f.degree_in(variable) < 1:
        return []
    found: list[tuple[complex, int]] = []
    for factor, mult in squarefree_decomposition(f, variable):
        for root in aberth_roots(dense_coeffs(factor, variable)):
            found.append((root, mult))
    return cluster_roots(found, cluster_tol)
