"""Command-line surface: parse, model, ml-degree, mle, catalog.

Exit codes: 0 success, 2 malformed input (reaction text, flags), 3
unsupported reaction shape for the chosen method, 4 degenerate elimination
without a count, 5 mle input with no estimate (a zero count, generic or
nonpositive K_e) or with an estimate outside the float range, 6 a
confirmed catalog row disagrees with the engine.
mle estimates every reaction shape.  All output is deterministic for fixed
inputs; --seed is recorded for provenance but no stage draws random numbers.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from ._version import __version__
from .catalog import evaluate_catalog
from .critical import DegenerateEliminationError, ObservationCounts, faithful_report
from .curve import curve_from_model, curve_ml_report
from .mle import NoEstimateError, maximize_likelihood, mle_record
from .model import (
    EquilibriumConstant,
    UnsupportedReactionError,
    build_model,
    build_parameterization,
)
from .reaction import ReactionParseError, format_reaction, parse_reaction, reaction_order

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_DEGENERATE = 4
EXIT_NO_ESTIMATE = 5
EXIT_CATALOG_MISMATCH = 6


def _counts_argument(text: str) -> tuple:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--counts expects comma-separated integers, got {text!r}"
        )
    if not values:
        raise argparse.ArgumentTypeError("--counts must not be empty")
    return values


def _add_ke_flag(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--ke", default="generic",
                     help="equilibrium constant: a rational like 4 or 1/2, or 'generic'")


def _add_counts_flag(sub: argparse.ArgumentParser, required: bool) -> None:
    sub.add_argument("--counts", type=_counts_argument, default=None,
                     required=required,
                     help="observation counts, comma-separated integers")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0,
                     help="recorded in reports; every stage is deterministic")
    sub.add_argument("--output", choices=("text", "json", "tsv"), default="text")


def _join_negative_ke(argv: list) -> list:
    """Rewrite "--ke -27/4" as "--ke=-27/4", also for the prefix "--k" that
    argparse accepts.  argparse reads a token such as -27/4 as an option
    (only integers and decimals pass as negative numbers), so a negative
    fraction must be attached to its flag."""
    out = []
    for token in argv:
        if out and out[-1] in ("--k", "--ke") and re.match(r"-[\d.]", token):
            out[-1] = f"--ke={token}"
        else:
            out.append(token)
    return out


# built once per process: parse_args leaves the parser unchanged
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mldeg",
        description="critical-point counts and maximum-likelihood estimates "
        "for single equilibrium reactions",
    )
    parser.add_argument("--version", action="version", version=f"mldeg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and normalize a reaction")
    p.add_argument("reaction")
    _add_output_flags(p)

    p = sub.add_parser("model", help="show the algebraic model and parameterization")
    p.add_argument("reaction")
    _add_ke_flag(p)
    _add_output_flags(p)

    p = sub.add_parser("ml-degree", help="count complex critical points")
    p.add_argument("reaction")
    _add_ke_flag(p)
    p.add_argument("--method", choices=("faithful", "curve", "both"), default="faithful")
    _add_counts_flag(p, required=False)
    _add_output_flags(p)

    p = sub.add_parser("mle", help="maximum-likelihood estimate for observed counts")
    p.add_argument("reaction")
    _add_ke_flag(p)
    _add_counts_flag(p, required=True)
    _add_output_flags(p)

    p = sub.add_parser("catalog", help="run every catalog row against the engine")
    _add_output_flags(p)
    return parser


def _emit(args, payload: dict, lines: list, warnings: list) -> None:
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


def _ke_warnings(ke: EquilibriumConstant) -> list:
    if not ke.positivity_flag:
        return [
            f"nonphysical equilibrium constant K_e = {ke} (K_e <= 0); computed anyway"
        ]
    return []


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


def cmd_model(args) -> int:
    reaction = parse_reaction(args.reaction)
    ke = EquilibriumConstant.parse(args.ke)
    model = build_model(reaction, ke)
    warnings = _ke_warnings(ke)
    payload = {
        "reaction": format_reaction(reaction),
        "ke": str(ke),
        "species_variables": dict(zip(model.species, model.species_vars)),
        "F_affine": str(model.F_affine),
        "constraint": str(model.constraint),
        "F_hom": str(model.F_hom),
        "degree": model.degree,
        "normalization": model.normalization_note,
    }
    lines = [
        f"reaction: {payload['reaction']}",
        f"K_e: {ke}",
        "species variables: "
        + ", ".join(f"{s} -> {v}" for s, v in payload["species_variables"].items()),
        f"F_affine: {model.F_affine}",
        f"constraint: {model.constraint} = 0",
        f"F_hom: {model.F_hom}",
        f"degree: {model.degree}",
        f"normalization: {model.normalization_note}",
    ]
    try:
        monomial_map = build_parameterization(model)
    except UnsupportedReactionError as exc:
        payload["parameterization"] = None
        payload["parameterization_note"] = str(exc)
        lines.append(f"parameterization: unavailable ({exc})")
        _emit(args, payload, lines, warnings)
        return EXIT_OK
    if monomial_map is None:
        payload["parameterization"] = None
        payload["parameterization_note"] = (
            "closed-form catalog entry; no monomial parameterization"
        )
        lines.append("parameterization: closed-form entry (no monomial map)")
        _emit(args, payload, lines, warnings)
        return EXIT_OK
    images = {var: str(poly) for var, poly in monomial_map.images.items()}
    payload["parameterization"] = {
        "parameters": list(monomial_map.param_vars),
        "images": images,
        "radical": None if monomial_map.radical is None else str(monomial_map.radical),
        "covers_model": monomial_map.covers_model,
        "caveats": list(monomial_map.caveats),
    }
    lines.append("parameters: " + ", ".join(monomial_map.param_vars))
    for var, image in images.items():
        lines.append(f"map: {var} = {image}")
    if monomial_map.radical is not None:
        lines.append(f"radical relation: {monomial_map.radical}")
    if not monomial_map.covers_model:
        lines.append("note: parameterization does not cover the whole model")
    for caveat in monomial_map.caveats:
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


def _comparison_line(report, curve_dict) -> str:
    curve_count = curve_dict["ml_degree_curve"]
    if curve_count is None:
        return "comparison: curve count unavailable; " + (
            curve_dict["caveats"][-1] if curve_dict["caveats"] else "no certificate"
        )
    quotient = report.variety_count_quotient
    quotient_text = (
        "n/a" if quotient is None
        else str(int(quotient)) if quotient.denominator == 1
        else str(quotient)
    )
    if quotient is not None and quotient == curve_count:
        line = (
            f"comparison: agreement; variety-side quotient {quotient_text} "
            f"matches curve count {curve_count}"
        )
    else:
        line = (
            f"comparison: divergence; variety-side quotient {quotient_text} "
            f"vs curve count {curve_count}"
        )
    if report.parameter_space_count != curve_count:
        line += (
            f" (divergence note: parameter-space count {report.parameter_space_count} "
            f"sits over the curve count with fiber degree {report.fiber_degree})"
        )
    return line


def cmd_ml_degree(args) -> int:
    reaction = parse_reaction(args.reaction)
    ke = EquilibriumConstant.parse(args.ke)
    model = build_model(reaction, ke)
    warnings = _ke_warnings(ke)
    counts = None
    if args.counts is not None:
        counts = ObservationCounts.numeric(args.counts)
        # checked before routing: the curve method reads no counts
        if counts.size != len(model.species_vars):
            raise ValueError(f"got {counts.size} counts for {len(model.species_vars)} species")

    curve_dict = None
    if args.method in ("curve", "both"):
        if len(model.species_vars) != 3:
            if args.method == "curve":
                raise UnsupportedReactionError(
                    "curve method needs exactly 3 species; "
                    "use --method faithful for this reaction"
                )
            curve_dict = {
                "method": "curve", "degree": None, "smoothness": None,
                "arrangement_a": None, "per_line_distinct": None,
                "ml_degree_curve": None,
                "caveats": ["curve route needs exactly 3 species"],
            }
        else:
            curve_dict = curve_ml_report(curve_from_model(model)).to_dict()

    if args.method == "curve":
        payload = dict(curve_dict)
        payload["reaction"] = format_reaction(reaction)
        payload["ke"] = str(ke)
        lines = [f"reaction: {payload['reaction']}", f"ke: {ke}"]
        lines += _curve_lines(curve_dict)
        _emit(args, payload, lines, warnings)
        return EXIT_OK

    report = faithful_report(model, counts)
    report_dict = report.to_dict()
    if args.method == "faithful":
        _emit(args, report_dict, _faithful_lines(report_dict), warnings)
        return EXIT_OK

    payload = {
        "faithful": report_dict,
        "curve": curve_dict,
        "comparison": _comparison_line(report, curve_dict),
    }
    lines = _faithful_lines(report_dict)
    lines.append("--")
    lines += _curve_lines(curve_dict)
    lines.append(payload["comparison"])
    _emit(args, payload, lines, warnings)
    return EXIT_OK


def cmd_mle(args) -> int:
    reaction = parse_reaction(args.reaction)
    ke = EquilibriumConstant.parse(args.ke)
    model = build_model(reaction, ke)
    warnings = _ke_warnings(ke)
    result = maximize_likelihood(model, args.counts)
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


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _join_negative_ke(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INPUT
    handlers = {
        "parse": cmd_parse,
        "model": cmd_model,
        "ml-degree": cmd_ml_degree,
        "mle": cmd_mle,
        "catalog": cmd_catalog,
    }
    try:
        return handlers[args.command](args)
    except ReactionParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UnsupportedReactionError as exc:
        print(f"unsupported reaction shape: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except DegenerateEliminationError as exc:
        print(f"degenerate elimination: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except ValueError as exc:
        # malformed input, or well-formed mle input with no estimate
        print(f"invalid input for {args.command}: {exc}", file=sys.stderr)
        return EXIT_NO_ESTIMATE if isinstance(exc, NoEstimateError) else EXIT_INPUT
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NO_ESTIMATE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
