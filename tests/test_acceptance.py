"""Acceptance suite: the eight release criteria, one test per criterion.

Each test collects every sub-check failure before asserting, records a
single PASS/FAIL verdict line (printed again in the terminal summary), and
fails with the full failure list.  A reference value shown wrong is asserted
at the certified value, with the certificate checked in the same test; the
catalog keeps the reference value, marked discrepancy_documented, and the
catalog notes and README document each such divergence.
"""

import random
from fractions import Fraction

import conftest
from reference import (
    PolyMatrix,
    critical_system,
    determinant_fraction_free,
    engine_eliminant,
    from_dense,
    plane_curve_of,
    resultant,
    univariate_gcd,
)

from mldeg.catalog import evaluate_entry, lookup
from mldeg.critical import faithful_report
from mldeg.curve import (
    arrangement_count,
    curve_from_model,
    curve_ml_report,
    smoothness_check,
)
from mldeg.intpoly import VarContext
from mldeg.mle import maximize_likelihood
from mldeg.model import EquilibriumConstant, build_model
from mldeg.poly import MPoly
from mldeg.reaction import (
    Arrow,
    Reaction,
    SpeciesTerm,
    format_reaction,
    parse_reaction,
)
from mldeg.roots import aberth_roots
from mldeg.variety import count_critical_points_variety

CTX_X = VarContext(("x",))
CTX_XY = VarContext(("x", "y"))
CTX_XYZ = VarContext(("x", "y", "z"))


def record(number, description, failures):
    verdict = "PASS" if not failures else "FAIL"
    line = f"criterion {number}: {verdict} - {description}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert not failures, line + "\n  " + "\n  ".join(failures)


def model_of(text, ke="generic"):
    return build_model(parse_reaction(text), EquilibriumConstant.parse(str(ke)))


def system_for(text, ke="generic"):
    model = model_of(text, ke)
    return critical_system(model, None)


def equal_up_to_scalar(f, g):
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    (ef, cf) = f.items()[0]
    (eg, cg) = g.items()[0]
    return ef == eg and f * cg == g * cf


def x_poly(*coeffs):
    return from_dense(CTX_X, "x", [Fraction(c) for c in coeffs])


def test_criterion_1_catalog_regression():
    cases = (
        ("A <-> B", "generic", 1),
        ("A <-> B", "-1", 0),
        ("2A <-> 2B", "generic", 1),
        ("3A <-> 3B", "generic", 1),
        ("2A <-> 3B", "generic", 3),
        ("A + B <-> 3C", "generic", 9),
        ("2A + 2B <-> 2C", "generic", 8),
        ("2A + 2B <-> C", "generic", 4),
        # The reference value 2 is wrong for generic K_e and u.  The model
        # K x y^2 = z L^2 (L = x + y + z) is a rational cubic whose only
        # singular point is a node at (1 : 0 : -1), on both y = 0 and L = 0,
        # so X (the curve off the arrangement) is smooth.  Its normalization
        # P^1 loses 5 points over the arrangement: (1:0:0), (0:1:0),
        # (0:1:-1) and both branches of the node.  chi(X) = 2 - 5 = -3, and
        # for smooth X the ML degree is the signed Euler characteristic
        # (Huh 2013), so the count is 3.  The catalog keeps the reference
        # value 2 as discrepancy_documented; the other routes are checked
        # below.
        ("A + 2B <-> C", "generic", 3),
        ("A + B <-> C + D", "generic", 1),
        ("A + B + C <-> D + E + F", "generic", 1),
        ("N2 + 3H2 <-> 2NH3", "generic", 8),
    )
    failures = []
    for text, ke, expected in cases:
        got = faithful_report(model_of(text, ke)).parameter_space_count
        if got != expected:
            failures.append(
                f"{text} (K_e = {ke}): reference {expected}, engine computed {got}"
            )

    # A + 2B <-> C: the count 3 on the numeric variety route, at seeded u off
    # the non-generic line u0 = u1 + u2 (where the count really drops to 2).
    rng = random.Random(102)
    for ke in ("1", "7/3", "1/5"):
        curve = curve_from_model(model_of("A + 2B <-> C", ke))
        for _ in range(3):
            u = (0, 0, 0)
            while u[0] == u[1] + u[2]:
                u = tuple(rng.randrange(1, 30) for _ in range(3))
            count, _ = count_critical_points_variety(curve, u)
            if count != 3:
                failures.append(
                    f"A + 2B <-> C (K_e = {ke}), u = {u}: variety route counted "
                    f"{count}, expected 3"
                )

        # the curve route finds the node at (1 : 0 : -1) that makes X smooth
        smoothness = curve_ml_report(curve).smoothness
        if smoothness.status != "singular":
            failures.append(
                f"A + 2B <-> C (K_e = {ke}): curve route reports "
                f"{smoothness.status}, expected singular"
            )
        else:
            witness = smoothness.witness
            scale = max(abs(c) for c in witness)
            # cross product with (1, 0, -1) vanishes at the node
            gap = max(abs(witness[1]), abs(witness[0] + witness[2])) / scale
            if gap >= 1e-9:
                failures.append(
                    f"A + 2B <-> C (K_e = {ke}): singular witness {witness} "
                    "is not the node (1 : 0 : -1)"
                )

    entry = lookup("A + 2B <-> C")
    if (entry.paper_value, entry.status, entry.expected_parameter_count) != (
        2, "discrepancy_documented", 3
    ):
        failures.append(
            "A + 2B <-> C catalog row no longer shows the reference value 2 as "
            f"discrepancy_documented with param=3: {entry}"
        )

    record(1, "catalog regression: faithful counts equal the reference table",
           failures)


def test_criterion_2_degenerate_ke_detection():
    failures = []
    for ke, expected in (("2", 2), ("3", 2), ("5", 2), ("7", 2), ("4", 1), ("0", 0)):
        got = curve_ml_report(curve_from_model(model_of("A + B <-> 2C", ke))).ml_degree
        if got != expected:
            failures.append(f"curve count at K_e = {ke}: expected {expected}, got {got}")
    for ke, expected in (("generic", 2), ("4", 1)):
        quotient = faithful_report(model_of("A + B <-> 2C", ke)).variety_count_quotient
        if quotient != expected:
            failures.append(
                f"variety quotient at K_e = {ke}: expected {expected}, got {quotient}"
            )
    record(2, "A + B <-> 2C: curve formula gives 2/1/0 across K_e, quotient agrees",
           failures)


def test_criterion_3_printed_resultant_identities():
    failures = []

    system = system_for("3A + 3B <-> 3C", "1")
    lam = MPoly.var(system.ctx, "lam")
    t1 = MPoly.var(system.ctx, "t1")
    a = -system.weights[0]
    b = -system.weights[1]
    inner = (
        9 * lam ** 2 * t1 ** 3 + 3 * lam * b + 9 * lam ** 2 * t1 ** 6
        + 3 * lam * t1 ** 3 * b - 3 * a * lam * t1 ** 3
    )
    if not equal_up_to_scalar(engine_eliminant(system), inner ** 3):
        failures.append("(3,3,3) eliminant is not the printed cube up to a scalar")

    system = system_for("A + 2B <-> C", "1")
    lam = MPoly.var(system.ctx, "lam")
    t1 = MPoly.var(system.ctx, "t1")
    a = -system.weights[0]
    b = -system.weights[1]
    printed = (
        lam ** 2 * t1 + lam * b + lam ** 2 * t1 ** 3
        + lam * t1 ** 2 * b - 2 * a * lam * t1 ** 2
    )
    if not equal_up_to_scalar(engine_eliminant(system), printed):
        failures.append("(1,2,1) eliminant does not match its printed form")

    row = evaluate_entry(lookup("3A + 3B <-> 3C"))
    if row.entry.status != "discrepancy_documented":
        failures.append("3A + 3B <-> 3C row is not marked discrepancy_documented")
    if "reference 9" not in row.detail or "documented discrepancy" not in row.detail:
        failures.append(f"3A + 3B <-> 3C detail does not print both sides: {row.detail}")

    record(3, "printed resultant identities at K_e = 1; (3,3,3) divergence printed",
           failures)


def test_criterion_4_variety_solver_agreement():
    failures = []
    rng = random.Random(408)
    for ke in (2, 5, 7):
        curve = curve_from_model(model_of("A + B <-> 2C", ke))
        for _ in range(5):
            u = tuple(rng.randrange(1, 60) for _ in range(3))
            count, points = count_critical_points_variety(curve, u)
            if count != 2:
                failures.append(f"K_e = {ke}, u = {u}: count {count} != 2")
            if count > 6:
                failures.append(f"K_e = {ke}, u = {u}: count {count} above ceiling 6")
            bad = [p["residual_max"] for p in points if p["residual_max"] >= 1e-9]
            if bad:
                failures.append(f"K_e = {ke}, u = {u}: residuals {bad} above 1e-9")
    record(4, "numeric variety solving: exactly 2 points, residuals < 1e-9, ceiling 6",
           failures)


def test_criterion_5_generic_conic_bound():
    failures = []
    rng = random.Random(405)
    found = 0
    for _ in range(60):
        terms = {}
        for exp in ((2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)):
            c = 0
            while c == 0:
                c = rng.randrange(-9, 10)
            terms[exp] = Fraction(c)
        curve = plane_curve_of(MPoly(CTX_XYZ, terms))
        if smoothness_check(curve).status != "smooth":
            continue
        if arrangement_count(curve).a != 8:
            continue
        got = curve_ml_report(curve).ml_degree
        if got != 6:
            failures.append(f"dense smooth conic with a = 8 gave {got}, expected 6")
        found += 1
        if found == 3:
            break
    if found != 3:
        failures.append(f"only {found} of 3 dense smooth conics with a = 8 found")
    record(5, "three random dense smooth conics with a = 4d = 8 give count 6", failures)


def test_criterion_6_mle_closed_forms():
    failures = []

    for u in ((30, 30, 40), (1, 1, 2), (5, 2, 9)):
        theta = (2 * u[0] + u[2]) / (2 * sum(u))
        expected = (theta ** 2, (1 - theta) ** 2, 2 * theta * (1 - theta))
        got = maximize_likelihood(model_of("A + B <-> 2C", 4), u).optimum.coordinates
        gap = max(abs(p - q) for p, q in zip(got, expected))
        if gap >= 1e-10:
            failures.append(f"Hardy-Weinberg u = {u}: optimum off by {gap:.3g}")

    for ke in (1, 2, Fraction(1, 2)):
        k = float(Fraction(ke))
        expected = (1 / (1 + k), k / (1 + k))
        got = maximize_likelihood(model_of("A <-> B", ke), (3, 5)).optimum.coordinates
        gap = max(abs(p - q) for p, q in zip(got, expected))
        if gap >= 1e-12:
            failures.append(f"A <-> B at K_e = {ke}: optimum off by {gap:.3g}")

    lo, hi = 0.0, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if mid ** 3 + mid ** 2 - 1 <= 0:
            lo = mid
        else:
            hi = mid
    r = (lo + hi) / 2
    got = maximize_likelihood(model_of("2A <-> 3B", 1), (3, 5)).optimum.coordinates
    gap = max(abs(got[0] - r ** 3), abs(got[1] - r ** 2))
    if gap >= 1e-9:
        failures.append(f"2A <-> 3B: optimum off the (r^3, r^2) form by {gap:.3g}")

    record(6, "MLE closed forms: Hardy-Weinberg, two-species pair, 2A <-> 3B",
           failures)


def test_criterion_7_kernel_properties():
    failures = []

    rng = random.Random(701)
    seen_zero = seen_nonzero = 0
    for i in range(200):
        pool = [Fraction(rng.randrange(-4, 5)) for _ in range(4)]
        f_roots = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        g_roots = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        f = MPoly.const(CTX_X, rng.randrange(1, 4))
        for root in f_roots:
            f = f * x_poly(-root, 1)
        g = MPoly.const(CTX_X, rng.randrange(1, 4))
        for root in g_roots:
            g = g * x_poly(-root, 1)
        res = resultant(f, g, "x")
        shared = set(f_roots) & set(g_roots)
        gcd = univariate_gcd(f, g, "x")
        gcd_deg = 0 if gcd.is_constant() else gcd.degree_in("x")
        if res.is_zero() != bool(shared) or (gcd_deg == 0) != (not shared):
            failures.append(f"resultant/gcd dichotomy broken at pair {i}")
        seen_zero += bool(shared)
        seen_nonzero += not shared
    if seen_zero < 20 or seen_nonzero < 20:
        failures.append("resultant loop did not exercise both dichotomy branches")

    def cofactor(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = MPoly.zero(rows[0][0].ctx)
        for j in range(len(rows)):
            minor = [row[:j] + row[j + 1:] for row in rows[1:]]
            term = rows[0][j] * cofactor(minor)
            total = total + term if j % 2 == 0 else total - term
        return total

    rng = random.Random(702)
    for i in range(100):
        n = rng.randrange(1, 5)
        rows = []
        for _ in range(n):
            row = []
            for _ in range(n):
                terms = {}
                for _ in range(rng.randrange(1, 3)):
                    exp = (rng.randrange(0, 2), rng.randrange(0, 2))
                    terms[exp] = terms.get(exp, 0) + Fraction(rng.randrange(-3, 4))
                row.append(MPoly(CTX_XY, {e: c for e, c in terms.items() if c}))
            rows.append(tuple(row))
        if determinant_fraction_free(PolyMatrix(tuple(rows))) != cofactor(rows):
            failures.append(f"Bareiss determinant disagrees with cofactors at {i}")

    rng = random.Random(703)
    for i in range(100):
        degree = rng.randrange(1, 9)
        coeffs = [rng.randrange(-9, 10) for _ in range(degree)]
        coeffs.append(rng.randrange(1, 10))
        roots = aberth_roots(coeffs)
        total = sum(roots)
        prod = 1
        for z in roots:
            prod *= z
        sign = -1 if degree % 2 else 1
        ok_sum = abs(total - (-coeffs[-2] / coeffs[-1])) < 1e-8 * (1 + abs(total))
        ok_prod = abs(prod - sign * coeffs[0] / coeffs[-1]) < 1e-8 * (1 + abs(prod))
        if len(roots) != degree or not ok_sum or not ok_prod:
            failures.append(f"Vieta check failed for coefficients {coeffs}")

    rng = random.Random(704)
    for i in range(200):
        names = rng.sample(
            ["A", "B", "C", "D", "E2", "NH3", "H2O", "Xy", "n2o", "q0"],
            rng.randrange(2, 6),
        )
        cut = rng.randrange(1, len(names))
        reaction = Reaction(
            tuple(SpeciesTerm(n, rng.randrange(1, 7)) for n in names[:cut]),
            tuple(SpeciesTerm(n, rng.randrange(1, 7)) for n in names[cut:]),
            rng.choice(list(Arrow)),
        )
        if parse_reaction(format_reaction(reaction)) != reaction:
            failures.append(f"parser round trip failed for {format_reaction(reaction)}")

    record(7, "kernel properties: resultant/gcd, Bareiss, Vieta, parser round trips",
           failures)


def test_criterion_8_u_scaling_invariance():
    failures = []

    count_cases = (
        ("A + B <-> 2C", "5", (2, 3, 5)),
        ("2A <-> 3B", "generic", (3, 5)),
        ("2A + 2B <-> C", "generic", (3, 5, 7)),
    )
    for text, ke, base in count_cases:
        reference = None
        for scale in (1, 2, 7):
            counts = tuple(scale * c for c in base)
            got = faithful_report(model_of(text, ke), counts).parameter_space_count
            if reference is None:
                reference = got
            elif got != reference:
                failures.append(
                    f"{text}: count changed from {reference} to {got} at scale {scale}"
                )

    mle_cases = (
        ("A <-> B", 2, (3, 5)),
        ("A + B <-> 2C", 5, (2, 3, 5)),
        ("A + B <-> C + D", 2, (4, 3, 2, 1)),
    )
    for text, ke, base in mle_cases:
        reference = maximize_likelihood(model_of(text, ke), base).optimum.coordinates
        for scale in (2, 3, 7):
            scaled = tuple(scale * c for c in base)
            got = maximize_likelihood(model_of(text, ke), scaled).optimum.coordinates
            gap = max(abs(p - q) for p, q in zip(got, reference))
            if gap >= 1e-10:
                failures.append(f"{text}: optimum moved by {gap:.3g} at scale {scale}")

    record(8, "u-scaling leaves counts unchanged and MLE optima fixed to 1e-10",
           failures)
