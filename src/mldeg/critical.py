"""Critical equations of the log-likelihood in parameter space.

Pulling the likelihood back through a monomial parameterization turns
log L into sum(w_i * log t_i) with integer-combination weights w_i, to be
maximized on the slice g = sum(images) - 1 = 0.  Clearing denominators in
the Lagrange conditions gives one polynomial

    f_i = lam * t_i * dg/dt_i - w_i

per parameter.  The solution count is read off a single eliminant: f_0
itself for one parameter, Res(f_0, f_1, t0) for two, as degree minus
valuation in the surviving parameter with lam symbolic.  No Sylvester
matrix is built for the two-one system nA + mB <-> pC: there
f_1 = C*t0**n + D is a binomial in t0 and f_0 = A*t0**p + B*t0**n + E, so
Poisson's formula, Res = lc(f_1)**deg f_0 * prod f_0(b) over the roots b
of f_1, gives the Sylvester determinant exactly, sign included, as
G**d with d = gcd(n, p) and G a short integer expression in A..E, each
of its two products a monomial times one power of a binomial or a
trinomial (_eliminant_terms).  G is expanded term by term by the
multinomial theorem (_expand), and G**d is never built: the count reads
d times G's degree and valuation (below).

The count runs on integers.  The eliminant is an integer term map built
from the map's shape (model.MapShape: exponent columns, product side,
radical power), not from the map's images (_eliminant_terms).  The product
side's multiplier mu (K_e itself, the radical s with s**p = K_e, or an
exact rational root) stays a symbol of its own, symbolic counts (None)
enter as two weight symbols w0, w1 (f_i + w_i = lam * t_i * dg/dt_i
holds no count) and a sequence of counts, checked by model.checked_counts
(the CLI runs it too, before either route, and so does the MLE), as the
integers sum(e * u).  The eliminant is taken once and serves every K_e:
setting mu is a ring map, and the t0-leading coefficients of f0, f1 do
not vanish at mu != 0, so the Sylvester matrix keeps its shape.  Folding
mu afterwards (_fold) gives the eliminant at a K_e exactly:
mu**e -> s**(e % p) * K_e**(e // p) at generic K_e,
s**(e % p) * v**(e // p) at K_e = v without an exact root, r**e with an
exact root r; the powers of v or r are cleared by one integer
denominator.  Its degree and valuation in the survivor give the
count, and at K_e = 0 the count is 0.  The fold is a ring map into a
reduced ring (below), so the survivor's leading and trailing
coefficients of G, nonzero there, have nonzero d-th powers: the folded
G**d has d times the degree and the valuation of the folded G, and only
G is folded (_profile scales by d).

Each monomial is one int, packed once in _eliminant_terms: the exponents
of (t..., lam, w..., mu) in bit fields of one width, t0 in the lowest
bits and mu in the top field, number 2*len(t) + 1 (the weight fields
stay empty for numeric counts).  A product of monomials is then one
integer addition and a power of one a multiplication (_expand); _fold
reads mu with one shift and _profile the survivor with a shift and a
mask.  The field width is the bit length of (a + n) * M, with M the
largest exponent of f0 and f1: Res = +-G**d is homogeneous of degree n
in f0's coefficients and a in f1's, so no exponent of G**d, nor of G,
exceeds (a + n) * M and no field carries into the next; at
nA + nB <-> nC, G**d attains the bound.  One parameter needs only M.
The fold keeps s**r in mu's field and puts K_e**q in the field above it.

At generic K_e the fold is not run at all.  e -> (e % p, e // p) is
injective and the fold changes no other field, so it merges no two
monomials, keeps every coefficient and keeps the survivor's exponents:
the unfolded eliminant has the generic count, degree and valuation, and
the generic count for the degeneracy verdict comes from the same map.
Only a numeric K_e is folded, once.

w0 = p*u0 + n*u2 and w1 = p*u1 + m*u2 (for one parameter w0 = sum(e*u))
are linearly independent linear forms in the counts, hence algebraically
independent: substituting them back is an injective ring map that fixes
the survivor, so a coefficient of one of its powers is zero in w exactly
when it is zero in u.  Degree, valuation and "is zero" are therefore the
same before and after the expansion.

Nothing here builds an MPoly, and no eliminant is zero at K_e != 0, so
every report has a count.  mu is one of three things: a free symbol at
generic K_e, which is never folded; a nonzero rational when K_e has an
exact root; the radical s in Q[s]/(s**p - v), v = K_e != 0, a reduced
ring (s**p - v is squarefree) in which s is a unit.  In each ring no
nonzero integer times a power of mu is zero, and no nonzero polynomial
over it has a zero power.  Setting mu is a ring map and the closed form
is a polynomial in A..E, so the folded G is G over that ring, and it is
nonzero:

- One parameter (pair, chain): f0 is the eliminant G, and its lam-free
  term is -w0 with w0 = sum(e_j * u_j) and every e_j >= 1 (the row is
  (beta/g, alpha/g) or all ones): a symbol, or a positive integer, as
  the counts are >= 0 with a positive sum.  It holds no mu, and every
  other term holds lam, so the fold keeps it.
- Two-one, p != n: with A = p*lam, B = n*lam*mu*t1**m, E = -w0,
  C = m*lam*mu*t1**m and D = p*lam*t1**p - w1, G = +-(T1 - T2), where

      T1 = (E*C - B*D)**(n/d) * C**((a-n)/d),
      E*C - B*D = lam*mu*t1**m * (n*w1 - m*w0 - n*p*lam*t1**p),
      T2 = (-A)**(n/d) * (-D)**(p/d) * C**((a-p)/d).

  If w1 != 0, T2's lowest power of t1 is m*(a-p)/d, with coefficient
  (-p*lam)**(n/d) * w1**(p/d) * (m*lam*mu)**((a-p)/d), below every
  power of t1 in T1, all >= m*a/d.  If w1 = 0, then u1 = u2 = 0 and
  w0 = p*u0 > 0, so T2 is one monomial, and T1 has at least two terms:
  its lowest and its highest power of lam.
- Two-one, p = n: d = n and G = +-(E*C - B*D - A*D), whose lam**2 part
  -p*lam**2*t1**p * (p + n*mu*t1**m) is nonzero.

G != 0 then gives G**d != 0, as the ring is reduced.  K_e = 0 returns
before any fold.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import comb, gcd
from operator import mul

from .model import (
    NORMALIZATION_NOTE,
    EquilibriumConstant,
    EquilibriumModel,
    MapShape,
    checked_counts,
    classify_shape,
    fiber_degree,
    map_shape,
)
from .reaction import format_reaction

SEGRE_CLOSED_FORM_COUNT = 1


def _expand(*powers) -> dict:
    """The sum of c * X**key * (sum of terms)**k over the (terms, k, key, c)
    in powers, X**key the packed monomial key and terms a term map, packed
    as _eliminant_terms; no zero coefficients are kept.  Each
    power is expanded by the multinomial theorem, as model.F_hom: every
    term of terms but the first takes j of the power left, with
    comb(left, j), and the first takes what is left.  The nonzero terms'
    keys must be independent, so that no two products of k of them share
    a monomial and each power's coefficients are made once."""
    out = {}
    for terms, k, key, c in powers:
        (first, x), *rest = ((e, y) for e, y in terms.items() if y)
        parts = [(key, k, c)]
        for e, y in rest:
            parts = [(f + j * e, left - j, z * comb(left, j) * y ** j)
                     for f, left, z in parts for j in range(left + 1)]
        for f, left, z in parts:
            out[f + left * first] = out.get(f + left * first, 0) + z * x ** left
    return {e: c for e, c in out.items() if c}


def _eliminant_terms(shape: MapShape, counts: tuple | None) -> tuple[dict, int, int]:
    """(G, d, bits): the eliminant G**d with mu unfolded, an integer term
    map over monomials packed in fields of bits bits (module docstring).
    w_i is a symbol of its own for symbolic counts and the integer
    sum(e * u) of its row for numeric ones.  mu stands for K_e, s or a
    number alike, so one map serves every K_e of the shape.

    For one parameter G = f0, the critical equation, and d = 1.  For
    two-one, Res(f0, f1, t0) = G**d, d = gcd(n, p), by Poisson's formula:
    f0 = A*t0**p + B*t0**n + E (B apart from A also when p = n) and
    f1 = C*t0**n + D, a = max(p, n), give

        Res(f0, f1) = (-1)**(a*n) * C**a * prod f0(b)  over b**n = -D/C
                    = (-1)**(a*n) * G**d,
        G = (E*C - B*D)**(n/d) * C**((a-n)/d)
            - (-A)**(n/d) * (-D)**(p/d) * C**((a-p)/d):

    at each root B*b**n + E = (E*C - B*D)/C, and b -> b**p maps the n
    roots d to one onto the n/d roots of g**(n/d) = (-D/C)**(p/d).  Both
    sides are polynomials in A..E that agree wherever C != 0, so they are
    equal for every coefficient value of these degrees, sign included.
    a*n is odd only when d is, so the sign (-1)**(a*n) is taken into G,
    and Res = G**d.
    Each product is a monomial times one power (_expand): C is the
    monomial m*lam*mu*t1**m, A = p*lam, -D = w1 - p*lam*t1**p and
    E*C - B*D = lam*mu*t1**m * (n*w1 - m*w0 - n*p*lam*t1**p).

    a and n are the first row's largest entry and its product column, and
    bits holds G**d too, so that G**d taken in this packing
    (intpoly._power) is Res itself."""
    rows = shape.exponent_matrix
    bits = ((max(rows[0]) + rows[0][-1]) * max(map(max, rows))).bit_length()
    lam = 1 << len(rows) * bits
    mu = lam << (len(rows) + 1) * bits
    # (key, value) of each weight: the symbol w_i, or an integer at key 0
    weights = [(lam << (i + 1) * bits, 1) if counts is None else (0, sum(map(mul, row, counts)))
               for i, row in enumerate(rows)]
    k0, w0 = weights[0]
    if len(rows) == 1:
        f = {k0: -w0}
        for e, scaled in zip(rows[0], shape.scaled):
            f[e + lam + mu * scaled] = f.get(e + lam + mu * scaled, 0) + e
        return f, 1, bits
    k1, w1 = weights[1]
    (p, _, n), (_, _, m) = rows
    a, d = max(p, n), gcd(n, p)
    x, y, sign = lam + (p << bits), lam + mu + (m << bits), (-1) ** (a * n)
    # n*w1 - m*w0 - n*p*lam*t1**p; numeric weights share the key 0
    q = {x: -n * p, k1: n * w1}
    q[k0] = q.get(k0, 0) - m * w0
    return _expand(
        (q, n // d, a // d * y, sign * m ** ((a - n) // d)),
        ({x: -p, k1: w1}, p // d, n // d * lam + (a - p) // d * y,
         -sign * (-p) ** (n // d) * m ** ((a - p) // d)),
    ), d, bits


def _fold(terms: dict, shape: MapShape, bits: int) -> tuple[dict, int]:
    """(folded, den): terms, packed as _eliminant_terms, with each mu**e
    rewritten by the shape's fold to s**r * K_e**q or s**r * v**q
    (e = q*k + r; s only for a radical, K_e only when generic): s**r
    stays in mu's field and K_e**q goes to the field above it.  folded
    has integer coefficients, the rational v**q cleared by den =
    denominator(v)**max(q), and no zero ones; folded/den is terms at the
    shape's K_e.
    mu is the top field, so the largest key holds the largest q."""
    at = (2 * len(shape.param_vars) + 1) * bits
    k, v = shape.fold
    num, den = (v or 1).as_integer_ratio()
    top = (max(terms, default=0) >> at) // k
    out = {}
    for e, c in terms.items():
        q = (e >> at) // k
        key = e - (q * k << at) + (q * (v is None) << at + bits)
        out[key] = out.get(key, 0) + c * num ** q * den ** (top - q)
    return {e: c for e, c in out.items() if c}, den ** top


def _profile(terms: dict, shape: MapShape, bits: int, d: int) -> tuple:
    """(count, degree, valuation) of terms**d, for a nonzero packed term
    map whose leading and trailing coefficients in the survivor, the last
    parameter, have nonzero d-th powers: d times those of terms."""
    survivor = [d * (e >> (len(shape.param_vars) - 1) * bits & (1 << bits) - 1) for e in terms]
    return max(survivor) - min(survivor), max(survivor), min(survivor)


class MLDegreeReport(namedtuple(
        "MLDegreeReport",
        "reaction ke shape parameter_space_count fiber_degree variety_count_quotient"
        " generic_parameter_space_count degeneracy degeneracy_description"
        " eliminant_degree eliminant_valuation covers_model caveats")):
    """The faithful route's count and its trail, for display."""

    __slots__ = ()

    def to_dict(self) -> dict:
        quotient = self.variety_count_quotient
        return {
            "reaction": self.reaction,
            "ke": self.ke,
            "method": "faithful",
            "shape": self.shape,
            "parameter_space_count": self.parameter_space_count,
            "fiber_degree": self.fiber_degree,
            "variety_count_quotient":
                int(quotient) if quotient.denominator == 1 else str(quotient),
            "generic_parameter_space_count": self.generic_parameter_space_count,
            "degeneracy": self.degeneracy_description if self.degeneracy else "none",
            "eliminant_degree": self.eliminant_degree,
            "eliminant_valuation": self.eliminant_valuation,
            "covers_model": self.covers_model,
            "caveats": list(self.caveats),
        }


def faithful_report(model: EquilibriumModel, counts=None) -> MLDegreeReport:
    """Full paper-faithful run at symbolic counts (None) or at a sequence
    of counts, one per species (checked_counts): eliminate once, with mu
    unfolded, read the generic count off that eliminant, fold it at the
    model's K_e when that is numeric, count, and compare against the
    generic count to flag degenerate constants."""
    if counts is not None:
        counts = checked_counts(counts, len(model.species))
    ke = model.ke
    # the equations read no K_e, so the table at the report's own K_e
    # serves the generic count too; K_e = 0 has no table of its own
    shape = map_shape(model.reaction, EquilibriumConstant.generic() if ke.is_zero else ke)
    head = (format_reaction(model.reaction), str(ke), classify_shape(model.reaction).value)
    caveats = [NORMALIZATION_NOTE]

    generic_count = SEGRE_CLOSED_FORM_COUNT
    if shape is not None:
        terms, d, bits = _eliminant_terms(shape, counts)
        # the generic fold is injective on monomials and keeps the t
        # fields, so the unfolded eliminant has the generic profile
        generic = _profile(terms, shape, bits, d)
        generic_count = generic[0]

    if ke.is_zero:
        caveats.append(
            "K_e = 0: the relation degenerates to the product-side monomial "
            "inside the excluded arrangement"
        )
        return MLDegreeReport(
            *head, 0, None, Fraction(0), generic_count, True,
            f"count drops from {generic_count} to 0 at K_e = 0",
            None, None, False, tuple(caveats),
        )
    if shape is None:
        caveats += (
            "closed-form entry: count fixed at 1 (Euler characteristic of the "
            "complement); no elimination performed",
            "a direct Lagrange solve of the 2:2 relation has 2 critical points "
            "for generic K_e != 1; the closed form follows the independence "
            "presentation",
        )
        return MLDegreeReport(
            *head, SEGRE_CLOSED_FORM_COUNT, None, Fraction(SEGRE_CLOSED_FORM_COUNT),
            SEGRE_CLOSED_FORM_COUNT, False, None, None, None, False, tuple(caveats),
        )

    caveats.extend(shape.caveats)
    fiber = fiber_degree(shape)
    count, degree, valuation = generic
    if not ke.is_generic:
        count, degree, valuation = _profile(_fold(terms, shape, bits)[0], shape, bits, d)
    degenerate = count < generic_count
    description = (
        f"parameter-space count drops from {generic_count} to {count} "
        f"at K_e = {ke}"
        if degenerate
        else None
    )
    return MLDegreeReport(
        *head, count, fiber, Fraction(count, fiber), generic_count, degenerate,
        description, degree, valuation, shape.covers_model, tuple(caveats),
    )
