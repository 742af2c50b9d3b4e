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
(-1)**(a*n) * G**d with a = max(p, n), d = gcd(n, p) and G a short
integer expression in A..E (_two_one_resultant).

The count runs on integers.  The equations are integer term maps built
from the map's shape (model.MapShape: exponent columns, product side,
radical power), not from MPoly images (_equations).  The product
side's multiplier mu (K_e itself, the radical s with s**p = K_e, or an
exact rational root) stays a symbol of its own, symbolic counts enter as
two weight symbols w0, w1 (f_i + w_i = lam * t_i * dg/dt_i holds no
count) and numeric ones as the integers sum(e * u).  The eliminant is
taken once and serves every K_e: setting mu is a ring map, and the
t0-leading coefficients of f0, f1 do not vanish at mu != 0, so the
Sylvester matrix keeps its shape.  Folding mu afterwards (_fold) gives
the eliminant at a K_e exactly: mu**e -> s**(e % p) * K_e**(e // p) at
generic K_e, s**(e % p) * v**(e // p) at K_e = v without an exact root,
r**e with an exact root r; the powers of v or r are cleared by one
integer denominator.  Its degree and valuation in the survivor give the
count, and at K_e = 0 the count is 0.

Each monomial is one int, packed once in _equations: the exponents of
(t..., lam, w..., mu) in bit fields of one width, t0 in the lowest bits
and mu in the top field, number 2*len(t) + 1 (the weight fields stay
empty for numeric counts).  A product of monomials is then
one integer addition (poly._term_products, poly._power); _two_one_resultant
splits off t0 with one mask, _fold reads mu with one shift and _profile
the survivor with a shift and a mask.  The field width is the bit length
of (a + n) * M, with M the largest exponent of f0 and f1: the closed form
and every product formed on the way multiply at most a + n coefficients
of f0 and f1 (Res is homogeneous of degree n in f0's and a in f1's), so
no exponent exceeds (a + n) * M and no field carries into the next; at
nA + nB <-> nC the bound is attained.  One parameter needs only M.
The fold keeps s**r in mu's field and puts K_e**q in the field above it.
Only _degeneracy unpacks, to tuples, for poly._gcd_degree.

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

Nothing here builds an MPoly.  A zero eliminant at some K_e is explained
on integers as well (_degeneracy): the first and last equations, folded
at that K_e, are split into coefficients in the first parameter, and the
degree of their gcd over the other symbols is the reported shared factor
(poly._gcd_degree).  For symbolic counts this reads w0, w1 where the
counts would stand; a linear change of coordinates in the counts leaves
that degree as it is.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import mul

from .model import (
    EquilibriumConstant,
    EquilibriumModel,
    MapShape,
    classify_shape,
    fiber_degree,
    map_shape,
)
from .poly import _gcd_degree, _power, _term_products
from .reaction import format_reaction

SEGRE_CLOSED_FORM_COUNT = 1


class ObservationCounts(namedtuple("ObservationCounts", "size values", defaults=(None,))):
    """Observation counts, one per species: symbolic u0.. (values None) or
    a tuple of integers."""

    __slots__ = ()

    @classmethod
    def symbolic(cls, size: int) -> "ObservationCounts":
        if size < 1:
            raise ValueError("need at least one species")
        return cls(size, None)

    @classmethod
    def numeric(cls, values) -> "ObservationCounts":
        vals = tuple(values)
        if any(int(v) != v for v in vals):
            raise ValueError("counts must be integers")
        vals = tuple(int(v) for v in vals)
        if any(v < 0 for v in vals):
            raise ValueError("counts must be nonnegative")
        if sum(vals) == 0:
            raise ValueError("sample size must be positive")
        return cls(len(vals), vals)

    @property
    def is_symbolic(self) -> bool:
        return self.values is None


def _two_one_resultant(f0: dict, f1: dict, bits: int) -> dict:
    """Res(f0, f1, t0), the Sylvester determinant, in closed form, for
    packed term maps (_equations) whose t0 field is the lowest bits bits;
    the result has t0 exponent 0.

    The two-one equations are f0 = A*t0**p + B*t0**n + E (the t0**n term
    from the product monomial, merged into A when p = n) and the binomial
    f1 = C*t0**n + D.  With a = max(p, n) = deg f0 and d = gcd(n, p),
    Poisson's formula gives

        Res(f0, f1) = (-1)**(a*n) * C**a * prod f0(b)  over b**n = -D/C
                    = (-1)**(a*n) * G**d,
        G = (E*C - B*D)**(n/d) * C**((a-n)/d)
            - (-A)**(n/d) * (-D)**(p/d) * C**((a-p)/d):

    at each root B*b**n + E = (E*C - B*D)/C, and b -> b**p maps the n
    roots d to one onto the n/d roots of g**(n/d) = (-D/C)**(p/d).  Both
    sides are polynomials in A..E that agree wherever C != 0, so they are
    equal for every coefficient value of these degrees, sign included.
    a*n is odd only when d is, so the sign (-1)**(a*n) is taken into G,
    on the powers of the monomial C.  Any other shape raises
    AssertionError."""
    first = (1 << bits) - 1
    c0, c1 = {}, {}
    for f, c in ((f0, c0), (f1, c1)):
        for e, v in f.items():
            c.setdefault(e & first, {})[e & ~first] = v
    a, n = max(c0, default=0), max(c1, default=0)
    others = c0.keys() - {n, 0}
    p = max(others, default=n)
    if n < 1 or c1.keys() != {n, 0} or len(others) > 1 or a != max(p, n):
        raise AssertionError(
            f"expected f0 = A*t0^p + B*t0^n + E and f1 = C*t0^n + D, got {f0} and {f1}"
        )
    # A is popped first, so no B is left when p = n
    A, B, E = c0.pop(p), c0.get(n, {}), c0.get(0, {})
    C, D = c1[n], c1[0]
    d = gcd(n, p)
    sign, one = (-1) ** (a * n), {0: 1}
    left = _term_products([(E, C), (B, {e: -c for e, c in D.items()})])
    g = _term_products([
        (_power(left, n // d, one), _power(C, (a - n) // d, {0: sign})),
        (_power(A, n // d, one), _term_products([(
            _power(D, p // d, one),
            _power(C, (a - p) // d, {0: -sign * (-1) ** ((n + p) // d)}))])),
    ])
    return _power(g, d - 1, g)


def _equations(shape: MapShape, counts: ObservationCounts) -> tuple[list, int]:
    """(equations, bits): the critical equations as integer term maps over
    packed monomials, f_i = lam * t_i * dg/dt_i - w_i, g = sum(images) - 1
    with the multiplier mu kept as a symbol, and w_i a symbol of its own
    for symbolic counts or the integer sum(e * u) for numeric ones.  A
    monomial is one int holding the exponents of (t..., lam, w..., mu) in
    fields of bits bits, t0 lowest; mu's field is number 2*len(t) + 1 for
    numeric counts too, above the unused weight fields.  bits is the bit
    length of (a + n) * M: a = deg f0 and n = deg f1 in t0 (the first
    row's largest entry and its product column), M the largest exponent.
    mu stands for K_e, s or a number alike, so one map serves every K_e
    of the shape; it appears only to the power 0 or 1."""
    rows = shape.exponent_matrix
    bits = ((max(rows[0]) + rows[0][-1]) * max(map(max, rows))).bit_length()
    lam = 1 << len(rows) * bits
    mu = lam << (len(rows) + 1) * bits
    equations = []
    for i, row in enumerate(rows):
        f = {}
        for column, scaled in zip(zip(*rows), shape.scaled):
            if column[i]:
                key = sum(x << j * bits for j, x in enumerate(column)) + lam + mu * scaled
                f[key] = f.get(key, 0) + column[i]
        weight = 1 if counts.is_symbolic else sum(map(mul, row, counts.values))
        if weight:
            f[lam << (i + 1) * bits if counts.is_symbolic else 0] = -weight
        equations.append(f)
    return equations, bits


def _eliminant_terms(shape: MapShape, counts: ObservationCounts) -> tuple[dict, int]:
    """(eliminant, bits) with mu unfolded, packed as _equations: f0 itself
    for one parameter, Res(f0, f1, t0) for two (_two_one_resultant)."""
    equations, bits = _equations(shape, counts)
    return equations[0] if len(equations) == 1 else _two_one_resultant(*equations, bits), bits


def _fold(terms: dict, shape: MapShape, bits: int) -> tuple[dict, int]:
    """(folded, den): terms, packed as _equations, with each mu**e
    rewritten by the shape's fold to s**r * K_e**q or s**r * v**q
    (e = q*k + r; s only for a radical, K_e only when generic): s**r
    stays in mu's field and K_e**q goes to the field above it.  folded
    has integer coefficients, the rational v**q cleared by den =
    denominator(v)**max(q), and no zero ones; folded/den is the eliminant.
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


def _degeneracy(shape: MapShape, counts: ObservationCounts) -> str:
    """Why the eliminant at the shape's K_e is zero: the degree in the
    first parameter of the gcd of the first and last critical equations
    (_gcd_degree), each folded at that K_e and split into coefficients in
    the first parameter, highest power first, keyed by the tuple of the
    other fields.  mu appears in the equations only to the power 0 or 1,
    so the fold puts the multiplier in its place."""
    equations, bits = _equations(shape, counts)
    field = (1 << bits) - 1
    # split by the t0 field, highest power first, with the other fields as
    # a tuple; fields 1 to 6 hold at most t1, lam, w0, w1, s and K_e
    first, last = ([{tuple(e >> i * bits & field for i in range(1, 7)): c
                     for e, c in f.items() if e & field == j}
                    for j in range(max(e & field for e in f), -1, -1)]
                   for f in (_fold(g, shape, bits)[0] for g in (equations[0], equations[-1])))
    return (f"identically zero eliminant: the equations share a factor of "
            f"degree {_gcd_degree(first, last)} in {shape.param_vars[0]}")


def _profile(terms: dict, shape: MapShape, bits: int) -> tuple:
    """(count, degree, valuation) of a packed term map in the exponent of
    the survivor, the last parameter, count = degree - valuation; all None
    for the zero map."""
    if not terms:
        return None, None, None
    survivor = [e >> (len(shape.param_vars) - 1) * bits & (1 << bits) - 1 for e in terms]
    return max(survivor) - min(survivor), max(survivor), min(survivor)


class MLDegreeReport(namedtuple(
        "MLDegreeReport",
        "reaction ke shape parameter_space_count fiber_degree variety_count_quotient"
        " generic_parameter_space_count degeneracy degeneracy_description survivor"
        " eliminant_degree eliminant_valuation covers_model caveats method",
        defaults=("faithful",))):
    """The faithful route's count and its trail, for display."""

    __slots__ = ()

    def to_dict(self) -> dict:
        quotient = self.variety_count_quotient
        if quotient is not None:
            quotient = int(quotient) if quotient.denominator == 1 else str(quotient)
        return {
            "reaction": self.reaction,
            "ke": self.ke,
            "method": self.method,
            "shape": self.shape,
            "parameter_space_count": self.parameter_space_count,
            "fiber_degree": self.fiber_degree,
            "variety_count_quotient": quotient,
            "generic_parameter_space_count": self.generic_parameter_space_count,
            "degeneracy": self.degeneracy_description if self.degeneracy else "none",
            "eliminant_degree": self.eliminant_degree,
            "eliminant_valuation": self.eliminant_valuation,
            "covers_model": self.covers_model,
            "caveats": list(self.caveats),
        }


def faithful_report(
    model: EquilibriumModel, counts: ObservationCounts | None = None
) -> MLDegreeReport:
    """Full paper-faithful run: eliminate once, with mu unfolded, read the
    generic count off that eliminant, fold it at the model's K_e when that
    is numeric, count, and compare against the generic count to flag
    degenerate constants."""
    size = len(model.species)
    if counts is None:
        counts = ObservationCounts.symbolic(size)
    if counts.size != size:
        raise ValueError(f"got {counts.size} counts for {size} species")
    ke = model.ke
    shape = map_shape(model.reaction, EquilibriumConstant.generic())
    head = (format_reaction(model.reaction), str(ke), classify_shape(model.reaction).value)
    caveats = [model.normalization_note]

    generic_count = SEGRE_CLOSED_FORM_COUNT
    if shape is not None:
        terms, bits = _eliminant_terms(shape, counts)
        # the generic fold is injective on monomials and keeps the t
        # fields, so the unfolded eliminant has the generic profile
        generic = _profile(terms, shape, bits)
        generic_count = generic[0]

    if ke.is_zero:
        caveats.append(
            "K_e = 0: the relation degenerates to the product-side monomial "
            "inside the excluded arrangement"
        )
        return MLDegreeReport(
            *head, 0, None, Fraction(0), generic_count, True,
            f"count drops from {generic_count} to 0 at K_e = 0",
            None, None, None, False, tuple(caveats),
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
            SEGRE_CLOSED_FORM_COUNT, False, None, None, None, None, False,
            tuple(caveats),
        )

    caveats.extend(shape.caveats)
    fiber = fiber_degree(shape)
    count, degree, valuation = generic
    if not ke.is_generic:
        shape = map_shape(model.reaction, ke)
        count, degree, valuation = _profile(_fold(terms, shape, bits)[0], shape, bits)
    if count is None:
        return MLDegreeReport(
            *head, None, fiber, None, generic_count, True, _degeneracy(shape, counts),
            shape.param_vars[-1], None, None, shape.covers_model, tuple(caveats),
        )

    degenerate = count < generic_count
    description = (
        f"parameter-space count drops from {generic_count} to {count} "
        f"at K_e = {ke}"
        if degenerate
        else None
    )
    return MLDegreeReport(
        *head, count, fiber, Fraction(count, fiber), generic_count, degenerate,
        description, shape.param_vars[-1], degree, valuation,
        shape.covers_model, tuple(caveats),
    )
