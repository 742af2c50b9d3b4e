"""Command-line surface: parse, model, ml-degree, mle, catalog.

Exit codes: 0 success, 2 malformed input (reaction text, flags, a
negative count), 3 unsupported reaction shape for the chosen method, 5
mle input with no estimate (a zero count, generic or nonpositive K_e) or
with an estimate or a count outside the float range, 6 a confirmed
catalog row disagrees with the engine.
mle estimates every reaction shape.  All output is deterministic for fixed
inputs; --seed is recorded for provenance but no stage draws random numbers.

The command line is read by _parse_argv from one table of commands
(_COMMANDS: each one's help line, positional, flags and the function that
runs it), as argparse read it and with argparse's error wording, but with
no parser tree built and no argparse, gettext or locale loaded; main runs
the function of the row.  The usage block and the help text come from the
same table in _usage, which only --help and a command-line error load.
model, ml-degree and mle set up their model in one place (_built_model):
the reaction is parsed, then K_e, then the model built, and the K_e
warning made.  Importing cli loads reaction and no other engine module:
each command imports what it runs, so a cold command compiles only that.
The json module is imported only for json and tsv output.
"""

from __future__ import annotations

import re
import sys
from math import gcd
from types import SimpleNamespace

from ._version import __version__
from .reaction import (
    MAX_COEFFICIENT_DIGITS,
    ReactionParseError,
    format_reaction,
    parse_reaction,
    reaction_order,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_NO_ESTIMATE = 5
EXIT_CATALOG_MISMATCH = 6


def _counts_argument(text: str):
    """The counts --counts names, or the message that says why text names
    none.  int() alone would also read non-ASCII digits and _ separators,
    which the reaction grammar refuses, and would refuse a count past its
    digit limit with a message that echoes every digit."""
    parts = text.split(",")
    for position, part in enumerate(parts, 1):
        if not re.fullmatch(r"\s*[+-]?[0-9]+\s*", part):
            return f"--counts expects comma-separated integers, got {text!r}"
        if len(part.strip().lstrip("+-")) > MAX_COEFFICIENT_DIGITS:
            return f"count {position} is longer than {MAX_COEFFICIENT_DIGITS} digits"
    return tuple(map(int, parts))


# One row per flag: name, metavar, default, choices, converter, required,
# help.  A flag with choices shows them in place of a metavar; a converter
# returns the value, or a message, or raises ValueError.
_KE = ("--ke", "KE", "generic", None, None, False,
       "equilibrium constant: a rational like 4 or 1/2, or 'generic'")
_COUNTS_HELP = "observation counts, comma-separated integers"
_SEED = ("--seed", "SEED", 0, None, int, False,
         "recorded in reports; every stage is deterministic")
_OUTPUT = ("--output", None, "text", ("text", "json", "tsv"), None, False, None)

def _parse_argv(argv: list):
    """The arguments of one command line, as argparse read them, or the
    exit code after printing the help or version (0) or an error (2: the
    usage block and `mldeg <cmd>: error: ...` on stderr).  A flag is named
    in full or by a unique prefix; its value follows = or is the next
    token, whatever that starts with.  The positional may stand anywhere
    among the flags, the last of a repeated flag wins, and -- ends the
    flags.  Any other token that starts with - is an unrecognized flag
    unless it is a negative number or holds a space."""
    command = positional = None
    names, flags, values, extras, ended = ("--help", "--version"), {}, {}, [], False

    def fail(message, usage_of):
        from ._usage import error_text

        sys.stderr.write(error_text(message, usage_of))
        return EXIT_INPUT

    tokens = iter(argv)
    for token in tokens:
        hit = value = None
        if ended or token[:1] != "-" or token == "-":
            pass
        elif token == "--":
            ended = True
            continue
        elif token == "-h":
            hit = "--help"
        else:
            name, eq, value = token.partition("=")
            found = [n for n in names if n.startswith(name)] if name[:2] == "--" else []
            # only a flag that takes a value takes one after =
            if len(found) == 1 and not (eq and found[0] in ("--help", "--version")):
                hit, value = found[0], value if eq else None
            # as for argparse, a negative number is no flag
            elif not (re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token):
                extras.append(token)
                continue
        if hit is None:
            if command is None:
                if token not in _COMMANDS:
                    return fail(f"argument command: invalid choice: {token!r} (choose from "
                                f"{', '.join(map(repr, _COMMANDS))})", None)
                command = token
                positional, rows = _COMMANDS[command][1:3]
                flags = {row[0]: row for row in rows}
                names = ("--help", *flags)
                values = {"command": command, **{name[2:]: row[2] for name, row in flags.items()}}
            elif positional and positional not in values:
                values[positional] = token
            else:
                extras.append(token)
        elif hit == "--help":
            from ._usage import help_text

            print(help_text(command), end="")
            return EXIT_OK
        elif hit == "--version":
            print(f"mldeg {__version__}")
            return EXIT_OK
        else:
            choices, convert = flags[hit][3:5]
            if value is None:
                value = next(tokens, None)
                if value is None:
                    return fail(f"argument {hit}: expected one argument", command)
            if convert is not None:
                try:
                    value = convert(value)
                except ValueError:
                    return fail(f"argument {hit}: invalid {convert.__name__} value: {value!r}",
                                command)
                if isinstance(value, str):
                    return fail(f"argument {hit}: {value}", command)
            if choices and value not in choices:
                return fail(f"argument {hit}: invalid choice: {value!r} (choose from "
                            f"{', '.join(map(repr, choices))})", command)
            values[hit[2:]] = value
    if command is None:
        return fail("the following arguments are required: command", None)
    missing = [positional] if positional and positional not in values else []
    missing += [name for name, row in flags.items() if row[5] and values[name[2:]] is None]
    if missing:
        return fail("the following arguments are required: " + ", ".join(missing), command)
    if extras:
        return fail("unrecognized arguments: " + " ".join(extras), None)
    return SimpleNamespace(**values)


def _emit(args, payload: dict, lines: list, warnings: list) -> None:
    if args.output != "text":
        import json
    if args.output == "json":
        record = {
            "tool_version": __version__,
            "command": args.command,
            "seed": args.seed,
            "warnings": list(warnings),
        }
        record.update(payload)
        print(json.dumps(record, indent=2))
        return
    if args.output == "tsv":
        for warning in warnings:
            print(f"warning\t{warning}")
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value)
            print(f"{key}\t{value}")
        return
    for warning in warnings:
        print(f"warning: {warning}")
    for line in lines:
        print(line)


def _built_model(args) -> tuple:
    """(model, warnings) of the command line's reaction at its --ke.  The
    reaction is parsed, then K_e, then the model built, so a command line
    with several faults reports the first of them in that order."""
    from .model import EquilibriumConstant, build_model

    reaction = parse_reaction(args.reaction)
    ke = EquilibriumConstant.parse(args.ke)
    model = build_model(reaction, ke)
    if ke.positivity_flag:
        return model, []
    return model, [f"nonphysical equilibrium constant K_e = {ke} (K_e <= 0); computed anyway"]


def cmd_parse(args) -> int:
    reaction = parse_reaction(args.reaction)
    payload = {
        "reaction": format_reaction(reaction),
        "species": list(reaction.species),
        "reactants": [
            {"species": t.species, "coefficient": t.coefficient}
            for t in reaction.reactants
        ],
        "products": [
            {"species": t.species, "coefficient": t.coefficient}
            for t in reaction.products
        ],
        "forward_order": reaction_order(reaction),
    }
    lines = [
        f"reaction: {payload['reaction']}",
        "species: " + ", ".join(payload["species"]),
        "reactants: " + ", ".join(
            f"{t.coefficient} {t.species}" for t in reaction.reactants
        ),
        "products: " + ", ".join(
            f"{t.coefficient} {t.species}" for t in reaction.products
        ),
        f"forward order: {payload['forward_order']}",
    ]
    _emit(args, payload, lines, [])
    return EXIT_OK


def _poly_text(names: tuple, poly: tuple) -> str:
    """An integer term map over a positive denominator, (G, m) as model
    makes them, printed as poly.MPoly prints G / m: terms in descending
    graded-lex order, each a sign and the magnitude of its reduced
    coefficient (left out when it is 1 and the term is not constant)
    times name^k factors."""
    from decimal import Decimal

    from .model import _gl_key

    terms, den = poly
    parts = []
    for exp in sorted(terms, key=_gl_key, reverse=True):
        g = gcd(terms[exp], den)
        num, d = terms[exp] // g, den // g
        factors = [name if k == 1 else f"{name}^{k}" for name, k in zip(names, exp) if k]
        if d != 1 or num not in (1, -1) or not factors:
            # Decimal prints an int of any size; str() stops at
            # sys.get_int_max_str_digits()
            factors.insert(0, f"{Decimal(abs(num))}/{Decimal(d)}".removesuffix("/1"))
        parts.append(("- " if num < 0 else "+ ") + "*".join(factors))
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def cmd_model(args) -> int:
    from .model import NORMALIZATION_NOTE, UnsupportedReactionError, build_parameterization

    model, warnings = _built_model(args)
    ke = model.ke
    payload = {
        "reaction": format_reaction(model.reaction),
        "ke": str(ke),
        "species_variables": dict(zip(model.species, model.species_vars)),
        "F_affine": _poly_text(model.ctx.names, model.F_affine),
        "constraint": _poly_text(model.ctx.names, model.constraint),
        "F_hom": _poly_text(model.ctx.names, model.F_hom),
        "degree": model.degree,
        "normalization": NORMALIZATION_NOTE,
    }
    lines = [
        f"reaction: {payload['reaction']}",
        f"K_e: {ke}",
        "species variables: "
        + ", ".join(f"{s} -> {v}" for s, v in payload["species_variables"].items()),
        f"F_affine: {payload['F_affine']}",
        f"constraint: {payload['constraint']} = 0",
        f"F_hom: {payload['F_hom']}",
        f"degree: {model.degree}",
        f"normalization: {NORMALIZATION_NOTE}",
    ]
    try:
        parameterization = build_parameterization(model)
    except UnsupportedReactionError as exc:
        parameterization, note, line = None, str(exc), f"unavailable ({exc})"
    else:
        note = "closed-form catalog entry; no monomial parameterization"
        line = "closed-form entry (no monomial map)"
    if parameterization is None:
        payload["parameterization"] = None
        payload["parameterization_note"] = note
        lines.append(f"parameterization: {line}")
        _emit(args, payload, lines, warnings)
        return EXIT_OK
    shape, images = parameterization
    names = shape.param_vars + shape.constants
    images = {var: _poly_text(names, image) for var, image in images.items()}
    payload["parameterization"] = {
        "parameters": list(shape.param_vars),
        "images": images,
        "radical": None if shape.radical is None else str(shape.radical),
        "covers_model": shape.covers_model,
        "caveats": list(shape.caveats),
    }
    lines.append("parameters: " + ", ".join(shape.param_vars))
    for var, image in images.items():
        lines.append(f"map: {var} = {image}")
    if shape.radical is not None:
        lines.append(f"radical relation: {payload['parameterization']['radical']}")
    if not shape.covers_model:
        lines.append("note: parameterization does not cover the whole model")
    for caveat in shape.caveats:
        lines.append(f"caveat: {caveat}")
    _emit(args, payload, lines, warnings)
    return EXIT_OK


def _faithful_lines(report_dict: dict) -> list:
    lines = []
    for key in ("reaction", "ke", "parameter_space_count", "fiber_degree",
                "variety_count_quotient", "degeneracy", "eliminant_degree",
                "eliminant_valuation"):
        lines.append(f"{key.replace('_', ' ')}: {report_dict[key]}")
    for caveat in report_dict["caveats"]:
        lines.append(f"caveat: {caveat}")
    return lines


def _curve_lines(curve_dict: dict) -> list:
    lines = [
        f"curve degree: {curve_dict['degree']}",
        f"smoothness: {curve_dict['smoothness']}",
        f"arrangement points a: {curve_dict['arrangement_a']}",
        f"per line distinct: {curve_dict['per_line_distinct']}",
        f"curve count: {curve_dict['ml_degree_curve']}",
    ]
    for caveat in curve_dict["caveats"]:
        lines.append(f"caveat: {caveat}")
    return lines


def _comparison_line(faithful: dict, curve: dict) -> str:
    """The comparison of the two routes' records, as their to_dict() gives
    them."""
    curve_count = curve["ml_degree_curve"]
    if curve_count is None:
        return "comparison: curve count unavailable; " + curve["caveats"][-1]
    quotient = faithful["variety_count_quotient"]
    if quotient == curve_count:
        line = (
            f"comparison: agreement; variety-side quotient {quotient} "
            f"matches curve count {curve_count}"
        )
    else:
        line = (
            f"comparison: divergence; variety-side quotient {quotient} "
            f"vs curve count {curve_count}"
        )
    if faithful["parameter_space_count"] != curve_count:
        line += (
            f" (divergence note: parameter-space count {faithful['parameter_space_count']} "
            f"sits over the curve count with fiber degree {faithful['fiber_degree']})"
        )
    return line


def cmd_ml_degree(args) -> int:
    from .model import UnsupportedReactionError

    model, warnings = _built_model(args)
    counts = args.counts
    if counts is not None:
        from .critical import checked_counts

        # checked before either route runs: the curve route reads no counts
        counts = checked_counts(counts, len(model.species))

    if args.method != "faithful":
        from .curve import route_report

        curve = route_report(model).to_dict()
        if args.method == "curve":
            # a record with no curve degree is the route declining the model
            if curve["degree"] is None:
                raise UnsupportedReactionError(
                    "curve method needs exactly 3 species; "
                    "use --method faithful for this reaction"
                )
            payload = dict(curve, reaction=format_reaction(model.reaction), ke=str(model.ke))
            lines = [f"reaction: {payload['reaction']}", f"ke: {model.ke}", *_curve_lines(curve)]
            _emit(args, payload, lines, warnings)
            return EXIT_OK

    from .critical import faithful_report

    faithful = faithful_report(model, counts).to_dict()
    lines = _faithful_lines(faithful)
    if args.method == "faithful":
        _emit(args, faithful, lines, warnings)
        return EXIT_OK
    comparison = _comparison_line(faithful, curve)
    lines += ["--", *_curve_lines(curve), comparison]
    _emit(args, {"faithful": faithful, "curve": curve, "comparison": comparison},
          lines, warnings)
    return EXIT_OK


def cmd_mle(args) -> int:
    from .mle import NoEstimateError, maximize_likelihood, mle_record

    model, warnings = _built_model(args)
    try:
        result = maximize_likelihood(model, args.counts)
    except NoEstimateError as exc:
        print(f"invalid input for mle: {exc}", file=sys.stderr)
        return EXIT_NO_ESTIMATE
    record = mle_record(model, args.counts, result)
    lines = [
        f"reaction: {record['reaction']}",
        f"K_e: {record['ke']}",
        "u: " + ", ".join(str(c) for c in record["u"]),
        "optimum: " + ", ".join(record["optimum"]),
        f"log likelihood: {record['log_likelihood']}",
        f"observed ml count: {record['observed_ml_count']}",
        f"residual max: {record['residual_max']}",
    ]
    _emit(args, record, lines, warnings)
    return EXIT_OK


def cmd_catalog(args) -> int:
    from .catalog import evaluate_catalog

    results = evaluate_catalog()
    rows = []
    for r in results:
        rows.append({
            "reaction": r.entry.reaction_text,
            "ke": r.entry.ke_spec,
            "paper_value": r.entry.paper_value,
            "status": r.entry.status,
            "computed": r.computed,
            "matched": r.matched,
            "ok": r.ok,
            "detail": r.detail,
        })
    all_ok = all(r.ok for r in results)
    if args.output == "tsv":
        print("reaction\tke\tpaper_value\tstatus\tcomputed\tok")
        for row in rows:
            computed = "; ".join(f"{k}={v}" for k, v in row["computed"].items())
            print(
                f"{row['reaction']}\t{row['ke']}\t{row['paper_value']}\t"
                f"{row['status']}\t{computed}\t{'ok' if row['ok'] else 'MISMATCH'}"
            )
    elif args.output == "json":
        _emit(args, {"rows": rows, "all_ok": all_ok}, [], [])
    else:
        width = max(len(row["reaction"]) for row in rows)
        for row in rows:
            mark = "ok" if row["ok"] else "MISMATCH"
            print(
                f"{row['reaction']:<{width}}  ke={row['ke']:<8} "
                f"reference={row['paper_value']:<3} [{row['status']}] {mark}: "
                f"{row['detail']}"
            )
        print(f"{len(rows)} rows; " + ("all confirmed rows match"
                                       if all_ok else "CONFIRMED ROW MISMATCH"))
    return EXIT_OK if all_ok else EXIT_CATALOG_MISMATCH


# Each command: its help line, its positional argument, its flags in the
# order its help lists them, and the function that runs it.  Every level
# also takes -h/--help, and the top level --version.
_COMMANDS = {
    "parse": ("parse and normalize a reaction", "reaction", (_SEED, _OUTPUT), cmd_parse),
    "model": ("show the algebraic model and parameterization", "reaction",
              (_KE, _SEED, _OUTPUT), cmd_model),
    "ml-degree": ("count complex critical points", "reaction", (
        _KE, ("--method", None, "faithful", ("faithful", "curve", "both"), None, False, None),
        ("--counts", "COUNTS", None, None, _counts_argument, False, _COUNTS_HELP),
        _SEED, _OUTPUT), cmd_ml_degree),
    "mle": ("maximum-likelihood estimate for observed counts", "reaction",
            (_KE, ("--counts", "COUNTS", None, None, _counts_argument, True, _COUNTS_HELP),
             _SEED, _OUTPUT), cmd_mle),
    "catalog": ("run every catalog row against the engine", None, (_SEED, _OUTPUT),
                cmd_catalog),
}


def main(argv=None) -> int:
    args = _parse_argv(sys.argv[1:] if argv is None else list(argv))
    if isinstance(args, int):
        return args
    try:
        return _COMMANDS[args.command][3](args)
    except ReactionParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        # loaded already by every command that can raise it
        from .model import UnsupportedReactionError

        if isinstance(exc, UnsupportedReactionError):
            print(f"unsupported reaction shape: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED
        print(f"invalid input for {args.command}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NO_ESTIMATE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
