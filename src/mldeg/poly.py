"""Exact multivariate polynomials over the rationals, for the tests.

An MPoly is a map from exponent vectors to fractions.Fraction coefficients
over a VarContext (intpoly), kept canonical (no zero coefficients stored),
with graded-lexicographic order fixed for printing and for every
deterministic iteration.  No floats enter the module.  No engine module
imports it: the model's polynomials are integer term maps over a positive
denominator, printed by the CLI, and the curve route reads them as they
are.  The tests build curves and reference polynomials with MPoly's
arithmetic, and its printer is the byte-for-byte reference of the CLI's.
Results of the arithmetic are canonical by construction and skip the
constructor's per-term validation (MPoly._raw); products and powers are
intpoly's term-map kernels.  The printer formats each coefficient from
its numerator and denominator.
"""

from __future__ import annotations

from fractions import Fraction

from .intpoly import VarContext, _exp_add, _power, _term_products
from .model import _gl_key


class ContextMismatchError(ValueError):
    """Operands live in different variable contexts."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected rational scalar, got {type(value).__name__}")


class MPoly:
    """Multivariate polynomial with Fraction coefficients over a VarContext."""

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx: VarContext, terms: dict):
        self.ctx = ctx
        clean = {}
        width = len(ctx)
        for exp, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(exp) != width or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp} for context of width {width}")
            clean[tuple(exp)] = coeff
        self._terms = clean

    @classmethod
    def _raw(cls, ctx: VarContext, terms: dict) -> "MPoly":
        """Trusted constructor for results of the arithmetic, whose terms are
        canonical by construction: tuple exponents of the context's width,
        nonzero Fraction coefficients."""
        p = object.__new__(cls)
        p.ctx = ctx
        p._terms = terms
        return p

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx: VarContext) -> "MPoly":
        return cls(ctx, {})

    @classmethod
    def const(cls, ctx: VarContext, value) -> "MPoly":
        return cls(ctx, {(0,) * len(ctx): _as_fraction(value)})

    @classmethod
    def var(cls, ctx: VarContext, name: str) -> "MPoly":
        exp = [0] * len(ctx)
        exp[ctx.index(name)] = 1
        return cls(ctx, {tuple(exp): Fraction(1)})

    # -- inspection --------------------------------------------------------

    def items(self):
        """Terms in descending graded-lex order: total degree first, then
        lexicographic on the exponent vector."""
        return [(e, self._terms[e]) for e in sorted(self._terms, key=_gl_key, reverse=True)]

    def term_map(self) -> dict:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return not any(any(exp) for exp in self._terms)

    def degree_in(self, name: str) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no degree")
        i = self.ctx.index(name)
        return max(e[i] for e in self._terms)

    def uses(self, name: str) -> bool:
        i = self.ctx.index(name)
        return any(e[i] > 0 for e in self._terms)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MPoly):
            if other.ctx != self.ctx:
                raise ContextMismatchError(
                    f"context mismatch: {self.ctx.names} vs {other.ctx.names}"
                )
            return other
        return MPoly.const(self.ctx, other)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self._terms)
        for exp, c in other._terms.items():
            c += out.get(exp, 0)
            if c:
                out[exp] = c
            else:
                del out[exp]
        return MPoly._raw(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._raw(self.ctx, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return MPoly._raw(self.ctx, _term_products([(self._terms, other._terms)], _exp_add))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return MPoly._raw(self.ctx, _power(
            self._terms, n, {(0,) * len(self.ctx): Fraction(1)}, _exp_add))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(self.ctx, other)
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.ctx == other.ctx and self._terms == other._terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self._terms.items())))

    # -- printing -----------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for exp, c in self.items():
            num, den = c.numerator, c.denominator
            factors = [name if k == 1 else f"{name}^{k}"
                       for name, k in zip(self.ctx.names, exp) if k]
            # the magnitude as str(abs(c)) writes it, left out when it is 1
            if den != 1:
                factors.insert(0, f"{abs(num)}/{den}")
            elif num not in (1, -1) or not factors:
                factors.insert(0, str(abs(num)))
            parts.append(("- " if num < 0 else "+ ") + "*".join(factors))
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]

    def __repr__(self):
        return f"MPoly({self})"
