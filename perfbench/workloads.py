"""Seeded job lists for the three benchmark workloads, and their output checks.

A workload pass is one fresh interpreter that runs its job list in sequence.
Pass k of seed s draws its inputs from ``random.Random(f"{workload}:{s}:{k}")``,
so the same seed and pass index always give the same inputs.  The engine sees
only the generated text and numbers: every job parses its reaction and builds
its model itself, as a library or CLI user would.

No reaction appears in two jobs of one pass, so caching across calls cannot
show a gain that a one-command-per-process user would not get.  README.md in
this directory says why each workload exists.

Every job has a check.  ``Job.check`` returns None when the output is right and
a one-line reason otherwise.  References are exact values: the catalog's
``param=``/``variety=`` tokens where a catalog row exists, and otherwise values
recorded from the engine when this benchmark was written.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

WORKLOADS = ("count-ladder", "mle-ladder", "certify")

# K_e = p/q with distinct primes p, q is positive, never a perfect power, and
# never one of the degenerate constants (4, 27/4, ...), which are ratios of
# small prime powers.  Two-digit primes keep the bit length, and so the
# elimination cost, nearly constant from seed to seed.
KE_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# count-ladder: (reaction, parameter-space count, variety quotient).  The
# generic half runs at symbolic K_e, the numeric half at the seeded K_e.
COUNT_GENERIC = (
    ("A + B <-> 2C", 4, 2),  # catalog row: param=4; variety=2
    ("2A + B <-> 3C", 9, 3),
    ("2A + 3B <-> 4C", 20, 5),
    ("3A + 4B <-> 5C", 35, 7),
    ("4A + 5B <-> 7C", 63, 9),
    ("2A <-> 3B", 3, 3),  # catalog row: param=3
)
COUNT_NUMERIC = (
    ("A + B <-> 3C", 9, 3),  # catalog row (generic K_e): param=9; variety=3
    ("A + 2B <-> C", 3, 3),  # the engine's documented 3 (reference value 2)
    ("3A + 2B <-> 4C", 20, 5),
    ("3A + 5B <-> 7C", 56, 8),
    ("5A + 7B <-> 9C", 108, 12),
    ("3A <-> 5B", 5, 5),
)

# mle-ladder.  Small counts are drawn from 10..100, large ones from 1e5..1e7.
MLE_SMALL = (
    "A + B <-> 2C", "2A + 3B <-> 4C", "3A + 4B <-> 5C", "4A + 5B <-> 7C",
    "5A + 7B <-> 9C", "7A + 9B <-> 11C", "2A <-> 3B", "A + B <-> C + D",
)
MLE_LARGE = ("A + 2B <-> C", "2A + B <-> 3C", "N2 + 3H2 <-> 2NH3", "3A + 5B <-> 7C")
# The fixed large-count reproducer from ROADMAP.md, with the log-likelihood
# of its optimum: the engine's point at --tol-residual 1e-6, which a golden-
# section search along the curve matches to the last digit.
REPRODUCER = ("A + B <-> 3C", "7/3", (1, 1, 1000000), -662702.3801033405)
MLE_MODEL_RTOL = 1e-8  # |K*prod(reactants) - prod(products)| / max of the two
MLE_SUM_TOL = 1e-9
MLE_IMAG_TOL = 1e-9
MLE_LL_RTOL = 1e-9

# certify: the catalog's param=/variety= tokens, by (reaction, K_e).
CATALOG_TOKENS = {
    ("A <-> B", "generic"): {"parameter_space_count": 1},
    ("A <-> B", "-1"): {"parameter_space_count": 0},
    ("A + B <-> 2C", "generic"): {"parameter_space_count": 4, "variety_quotient": 2},
    ("A + B <-> 2C", "4"): {"parameter_space_count": 2, "variety_quotient": 1},
    ("A + B <-> 2C", "0"): {"parameter_space_count": 0, "variety_quotient": 0},
    ("2A <-> 2B", "generic"): {"parameter_space_count": 1},
    ("3A <-> 3B", "generic"): {"parameter_space_count": 1},
    ("A + B <-> C + D", "generic"): {"variety_quotient": 1},
    ("A + B <-> 3C", "generic"): {"parameter_space_count": 9, "variety_quotient": 3},
    ("2A <-> 3B", "generic"): {"parameter_space_count": 3},
    ("2A + 2B <-> 2C", "generic"): {"parameter_space_count": 8, "variety_quotient": 2},
    ("2A + 2B <-> C", "generic"): {"parameter_space_count": 4},
    ("A + 2B <-> C", "generic"): {"parameter_space_count": 3},
    ("3A + 3B <-> 3C", "generic"): {"parameter_space_count": 18, "variety_quotient": 2},
    ("N2 + 3H2 <-> 2NH3", "generic"): {"parameter_space_count": 8, "variety_quotient": 4},
}
# ml-degree --method both: (reaction, K_e or None for the seeded K_e,
# parameter-space count, variety quotient, smoothness, curve count).
CERTIFY_ML_DEGREE = (
    ("2A + 3B <-> 4C", "generic", 20, 5, "undetermined", None),
    ("3A + 2B <-> 4C", "generic", 20, 5, "undetermined", None),
    ("3A + 4B <-> 5C", "generic", 35, 7, "undetermined", None),
    ("2A + B <-> 3C", None, 9, 3, "singular", None),
    ("3A + B <-> 4C", None, 16, 4, "singular", None),
)
# parse and model run on reactions no other certify job uses.  They are the
# many small calls where per-call overhead shows, so job_p50_s falls among
# them; a fixed set keeps that median from depending on the seed.
CERTIFY_PARSE = (
    "A <-> 2B", "3A <-> 2B", "4A <-> 3B", "A + B <-> C", "H2 + Cl2 <-> 2HCl",
    "N2O4 <-> 2NO2", "CO + 3H2 <-> CH4 + H2O", "A + B + C <-> D + E + F",
)
# reaction -> F_affine as the model command prints it at generic K_e
CERTIFY_MODEL = {
    "A + 3B <-> 2C": "x*y^3*K_e - z^2",
    "2A + B <-> C": "x^2*y*K_e - z",
    "A + B <-> 4C": "-z^4 + x*y*K_e",
    "2A + 5B <-> 3C": "x^2*y^5*K_e - z^3",
    "3A + 5B <-> 2C": "x^3*y^5*K_e - z^2",
    "2SO2 + O2 <-> 2SO3": "x^2*y*K_e - z^2",
    "2H2 + O2 <-> 2H2O": "x^2*y*K_e - z^2",
    "A + B <-> C + D + E": "x0*x1*K_e - x2*x3*x4",
}
FORMATS = ("text", "json", "tsv")


@dataclass
class Job:
    """One engine call: ``run`` returns its output, ``check`` judges it.

    ``may_fail`` marks the jobs that a known engine defect lets raise; any
    other job that raises makes the run incorrect.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    may_fail: bool = False


def seeded_ke(rng: random.Random) -> str:
    p, q = rng.sample(KE_PRIMES, 2)
    return f"{p}/{q}"


def build_jobs(workload: str, seed: int, pass_index: int) -> list[Job]:
    """The job list of one pass; mldeg must be importable."""
    rng = random.Random(f"{workload}:{seed}:{pass_index}")
    builders = {
        "count-ladder": _count_ladder,
        "mle-ladder": _mle_ladder,
        "certify": _certify,
    }
    return builders[workload](rng)


# -- count-ladder -----------------------------------------------------------


def _count_ladder(rng: random.Random) -> list[Job]:
    from mldeg.critical import faithful_report
    from mldeg.model import EquilibriumConstant, build_model
    from mldeg.reaction import parse_reaction

    def job(text, ke, param, variety):
        def run():
            return faithful_report(build_model(parse_reaction(text), EquilibriumConstant.parse(ke)))

        def check(report):
            got = (report.parameter_space_count, report.variety_count_quotient,
                   report.generic_parameter_space_count, report.degeneracy)
            want = (param, variety, param, False)
            return None if got == want else f"got {got}, want {want}"

        return Job(f"faithful {text} @ {ke}", run, check)

    ke = seeded_ke(rng)
    return ([job(text, "generic", p, v) for text, p, v in COUNT_GENERIC]
            + [job(text, ke, p, v) for text, p, v in COUNT_NUMERIC])


# -- mle-ladder -------------------------------------------------------------


def _coefficients(side: str) -> list[int]:
    """Stoichiometric coefficients of one side of a reaction, e.g. "N2 + 3H2"."""
    return [int(re.fullmatch(r"\s*(\d*)\s*[A-Za-z]\w*\s*", term).group(1) or 1)
            for term in side.split("+")]


def _log_likelihood(counts: tuple, p: list[float]) -> float:
    return sum(u * math.log(x) for u, x in zip(counts, p)) - sum(counts) * math.log(sum(p))


def _positive_real(coords) -> list[float] | None:
    point = [complex(c) for c in coords]
    if any(abs(c.imag) > MLE_IMAG_TOL or c.real <= 0 for c in point):
        return None
    return [c.real for c in point]


def check_mle(text: str, ke: str, counts: tuple, result, reference_ll: float | None) -> str | None:
    """Optimum in the open simplex, on the model, the best of the positive
    critical points returned, and no worse than the reference optimum where
    one is stored.  Independent of the engine's own parser and residuals:
    the model is rebuilt from the reaction text."""
    left, right = (_coefficients(side) for side in text.split("<->"))
    p = _positive_real(result.optimum.coordinates)
    if p is None or len(p) != len(left) + len(right) or abs(sum(p) - 1.0) > MLE_SUM_TOL:
        return f"optimum {result.optimum.coordinates} is not in the open simplex"
    lhs = float(Fraction(ke)) * math.prod(x ** a for x, a in zip(p, left))
    rhs = math.prod(x ** b for x, b in zip(p[len(left):], right))
    residual = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    if residual > MLE_MODEL_RTOL:
        return f"optimum is off the model: relative residual {residual:.3g}"
    ll = _log_likelihood(counts, p)
    if abs(ll - result.log_likelihood) > MLE_LL_RTOL * abs(ll):
        return f"reported log-likelihood {result.log_likelihood} != {ll}"
    slack = MLE_LL_RTOL * abs(ll)
    for point in result.all_critical_points:
        other = _positive_real(point.coordinates)
        if other is not None and _log_likelihood(counts, other) > ll + slack:
            return f"critical point {other} has a higher log-likelihood than the optimum"
    if reference_ll is not None and ll < reference_ll - slack:
        return f"log-likelihood {ll} below the reference optimum {reference_ll}"
    return None


def _mle_ladder(rng: random.Random) -> list[Job]:
    from mldeg.mle import maximize_likelihood
    from mldeg.model import EquilibriumConstant, build_model
    from mldeg.reaction import parse_reaction

    def job(text, ke, counts, reference_ll=None, may_fail=False):
        def run():
            return maximize_likelihood(
                build_model(parse_reaction(text), EquilibriumConstant.parse(ke)), counts
            )

        return Job(
            f"mle {text} @ {ke} u={','.join(map(str, counts))}", run,
            lambda result: check_mle(text, ke, counts, result, reference_ll),
            may_fail,
        )

    def species(text):
        return sum(len(_coefficients(side)) for side in text.split("<->"))

    ke = seeded_ke(rng)
    jobs = [job(text, ke, tuple(rng.randint(10, 100) for _ in range(species(text))))
            for text in MLE_SMALL]
    # The large tier and the reproducer may raise NoPositiveCriticalPointError:
    # the absolute 1e-9 residual filter of count_critical_points_variety.
    jobs += [job(text, ke, tuple(rng.randint(10**5, 10**7) for _ in range(species(text))),
                 may_fail=True)
             for text in MLE_LARGE]
    return jobs + [job(*REPRODUCER, may_fail=True)]


# -- certify ----------------------------------------------------------------


def _flatten(record: dict) -> dict:
    out = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(value)
        out.setdefault(key, value)
    return out


def output_fields(fmt: str, text: str) -> dict:
    """Key -> value string from any of the CLI's text, json and tsv outputs.
    Nested json objects (the faithful and curve blocks) are flattened."""
    if fmt == "text":
        record = {}
        for line in text.splitlines():
            key, sep, value = line.partition(": ")
            if sep:
                record.setdefault(key.replace(" ", "_"), value)
        record["ml_degree_curve"] = record.get("curve_count")
        return record
    if fmt == "json":
        record = json.loads(text)
    else:
        record = {}
        for line in text.splitlines():
            key, _, value = line.partition("\t")
            record[key] = json.loads(value) if value.startswith("{") else value
    return {key: str(value) for key, value in _flatten(record).items()}


def catalog_rows(fmt: str, text: str) -> dict:
    """(reaction, K_e) -> computed counts, from any catalog output format."""
    rows = {}
    if fmt == "json":
        for row in json.loads(text)["rows"]:
            rows[(row["reaction"], row["ke"])] = row["computed"]
        return rows
    for line in text.splitlines():
        if fmt == "tsv":
            parts = line.split("\t")
            if len(parts) != 6 or parts[0] == "reaction":
                continue
            key, computed = (parts[0], parts[1]), parts[4]
        else:
            match = re.match(r"(.+?)\s+ke=(\S+)\s.*\(([^()]*)\)", line)
            if match is None:
                continue
            key, computed = (match.group(1), match.group(2)), match.group(3)
        rows[key] = {k: int(v) for k, v in re.findall(r"(\w+)=(-?\d+)", computed)}
    return rows


def run_cli(argv: list[str]) -> tuple[int, str]:
    from mldeg.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def _cli_job(argv: list[str], fmt: str, check_fields: Callable[[str], str | None]) -> Job:
    argv = argv + ["--output", fmt]

    def check(output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        return check_fields(text)

    return Job("mldeg " + " ".join(argv), lambda: run_cli(argv), check)


def _expect_fields(fmt: str, want: dict) -> Callable[[str], str | None]:
    def check(text):
        fields = output_fields(fmt, text)
        got = {key: fields.get(key) for key in want}
        return None if got == want else f"got {got}, want {want}"

    return check


def _check_catalog(fmt: str) -> Callable[[str], str | None]:
    def check(text):
        rows = catalog_rows(fmt, text)
        if set(rows) != set(CATALOG_TOKENS):
            return f"catalog printed rows {sorted(rows)}"
        for key, tokens in CATALOG_TOKENS.items():
            got = {name: rows[key].get(name) for name in tokens}
            if got != tokens:
                return f"{key}: got {got}, want {tokens}"
        return None

    return check


def _certify(rng: random.Random) -> list[Job]:
    ke = seeded_ke(rng)
    offset = rng.randrange(len(FORMATS))
    specs = [(["catalog"], None)]  # (argv, expected fields; None: the catalog check)
    for text, fixed_ke, param, variety, smoothness, curve in CERTIFY_ML_DEGREE:
        want = {"parameter_space_count": str(param), "variety_count_quotient": str(variety),
                "smoothness": smoothness, "ml_degree_curve": str(curve)}
        specs.append((["ml-degree", text, "--ke", fixed_ke or ke, "--method", "both"], want))
    for text in CERTIFY_PARSE:
        # the parser must normalize the compact spelling back to the canonical one
        order = sum(_coefficients(text.split("<->")[0]))
        want = {"reaction": text, "forward_order": str(order)}
        specs.append((["parse", text.replace(" ", "")], want))
    for text, f_affine in CERTIFY_MODEL.items():
        degree = max(sum(_coefficients(side)) for side in text.split("<->"))
        want = {"F_affine": f_affine, "degree": str(degree)}
        specs.append((["model", text], want))
    jobs = []
    for index, (argv, want) in enumerate(specs):
        fmt = FORMATS[(offset + index) % len(FORMATS)]
        check = _check_catalog(fmt) if want is None else _expect_fields(fmt, want)
        jobs.append(_cli_job(argv, fmt, check))
    return jobs
