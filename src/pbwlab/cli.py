"""Command-line front end: one binary, one subcommand per workbench operation.

Reports echo the canonicalized presentation and the run configuration, so a
published report is self-contained.  With --format json the output is
byte-identical across runs of the same configuration.  Exit codes: 0 for the
affirmative outcome (pass / match / yes / witness), 1 for the negative one
(fail / defect / no / refuted), 2 for unknown or out-of-range, 3 for input
errors, 4 for internal errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import __version__
from .certificates import D2_CHOICES, certify, obstruction
from .cyclic import cyclic_derivative, potential_to_presentation
from .errors import InputError, NoObstruction, OutOfRange, PbwError
from .jsonio import (certificate_report_to_json, custom_d2_from_json,
                     hilbert_report_to_json, ncpoly_from_json, ncpoly_to_json,
                     obstruction_report_to_json, parse_hpoly_string,
                     potential_from_json, potential_to_json,
                     presentation_from_json, presentation_to_json,
                     torsion_outcome_to_json, validation_report_to_json)
from .presentations import validate
from .rewriting import build_rules, hilbert, member, torsion_check


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {text!r}") from exc


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first `main` call: building
    costs about 30 parses, and parsing leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="pbwlab",
        description="PBW workbench: certificates, obstructions, cyclic calculus, "
                    "and a degree-truncated rewriting oracle.")
    parser.add_argument("--version", action="version", version=f"pbwlab {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--input", required=True, help="input JSON document")
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--seed", type=int, default=0,
                        help="recorded in the report for reproducibility")

    sp = sub.add_parser("validate", help="check a presentation and name certificate paths")
    common(sp)

    for name in ("certify", "obstruction"):
        sp = sub.add_parser(name, help=f"{name} with a chosen degree-(-2) differential")
        common(sp)
        sp.add_argument("--d2", choices=D2_CHOICES, default="default")
        sp.add_argument("--d2-file", help="custom differential JSON (with --d2 custom)")

    sp = sub.add_parser("derive", help="cyclic derivative of a potential")
    common(sp)
    sp.add_argument("--var", type=int, required=True, help="generator index 1..n")

    sp = sub.add_parser("from-potential", help="presentation induced by a potential")
    common(sp)

    for name in ("hilbert", "pbw"):
        sp = sub.add_parser(name, help="filtration dimensions against the symmetric algebra")
        common(sp)
        sp.add_argument("--degree", type=int, required=True)
        group = sp.add_mutually_exclusive_group(required=True)
        group.add_argument("--at", help="specialization value for h, as an exact rational")
        group.add_argument("--generic", action="store_true",
                           help="rational-function coefficients")

    sp = sub.add_parser("member", help="ideal membership up to the certified degree")
    common(sp)
    sp.add_argument("--poly", required=True, help="NCPoly JSON file")
    sp.add_argument("--degree", type=int, required=True)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--at")
    group.add_argument("--generic", action="store_true", default=None)

    sp = sub.add_parser("torsion", help="probe an h-torsion witness")
    common(sp)
    sp.add_argument("--element", required=True, help="NCPoly JSON file")
    sp.add_argument("--factor", required=True, help='scalar string, e.g. "1-h"')
    sp.add_argument("--degree", type=int, required=True)
    return parser


def _emit(args, config: dict, body: dict, text_lines) -> None:
    if args.format == "json":
        report = {"tool": "pbwlab", "version": __version__,
                  "subcommand": args.subcommand, "config": config}
        report.update(body)
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        for line in text_lines:
            print(line)


def _presentation_lines(p) -> list:
    lines = [f"presentation: n={p.n}"]
    for (i, j) in sorted(p.phi):
        lines.append(f"  phi_{i}{j} = {p.phi[(i, j)]}")
    if not p.phi:
        lines.append("  all phi = 0")
    return lines


def _hilbert_table(report) -> list:
    head = f"{'k':>3} {'dim':>8} {'expected':>9} verdict"
    lines = [head, "-" * len(head)]
    for k in range(report.max_degree + 1):
        mark = report.verdicts[k]
        if mark == "defect":
            mark += f" ({report.defects[k]:+d})"
        lines.append(f"{k:>3} {report.dims[k]:>8} {report.expected[k]:>9} {mark}")
    return lines


def run(args) -> int:
    sub, code = args.subcommand, 0
    config = {"seed": args.seed, "format": args.format, "input": args.input}
    doc = _load_json(args.input)
    if sub in ("derive", "from-potential"):
        pot = potential_from_json(doc.get("potential", doc) if isinstance(doc, dict) else doc)
    else:
        p = presentation_from_json(doc)
        lines = _presentation_lines(p)

    if sub == "derive":
        config["var"] = args.var
        derivative = cyclic_derivative(pot, args.var)
        result = {"var": args.var, "derivative": ncpoly_to_json(derivative)}
        lines = [str(derivative)]

    elif sub == "from-potential":
        p = potential_to_presentation(pot)
        result, lines = presentation_to_json(p), _presentation_lines(p)

    elif sub == "validate":
        report = validate(p)
        result, code = validation_report_to_json(report), 0 if report.valid else 1
        lines.append(f"valid: {'yes' if report.valid else 'no'}")
        lines.append(f"filtration_ok: {'yes' if report.filtration_ok else 'no'}")
        lines.append(f"paths: {', '.join(report.paths)}")
        lines.extend(f"problem: {msg}" for msg in report.problems)

    elif sub in ("certify", "obstruction"):
        custom = None
        if args.d2 == "custom":
            if not args.d2_file:
                raise InputError("--d2 custom needs --d2-file")
            custom = custom_d2_from_json(_load_json(args.d2_file), p.n)
        config["d2"] = args.d2
        if sub == "certify":
            report = certify(p, args.d2, custom)
            result, code = certificate_report_to_json(report), 0 if report.passed else 1
            lines.append(f"certificate: {report.verdict} (d2 = {report.path})")
            lines.extend(f"  {claim}" for claim in report.claims)
            if not report.passed:
                lines.extend(f"  residue {tri}: {res}"
                             for tri, res in sorted(report.residues.items()) if res)
        else:
            try:
                report = obstruction(p, args.d2, custom)
            except NoObstruction:
                result, code = {"verdict": "no-obstruction"}, 1
                lines = ["certificate passed: no obstruction to extract"]
            else:
                result = obstruction_report_to_json(report)
                lines.append(f"first obstruction at h-order {report.hbar_order}:")
                lines.extend(f"  {tri}: {gen}" for tri, gen in report.generators)

    elif sub in ("hilbert", "pbw"):
        a = None if args.generic else _parse_rational(args.at)
        config.update({"degree": args.degree,
                       "mode": "generic" if args.generic else f"at {args.at}"})
        report = hilbert(p, args.degree, a=a, generic=args.generic)
        result = hilbert_report_to_json(report)
        code = 1 if "defect" in report.verdicts else 2 if "unknown" in report.verdicts else 0
        lines += _hilbert_table(report)
        if report.excluded:
            lines.append("excluded specializations observed: " + ", ".join(report.excluded))

    elif sub == "member":
        poly = ncpoly_from_json(_load_json(args.poly), p.n)
        generic = args.at is None
        a = None if generic else _parse_rational(args.at)
        config.update({"poly": args.poly, "degree": args.degree,
                       "mode": "generic" if generic else f"at {args.at}"})
        system = build_rules(p, "generic" if generic else "at", a)
        system.complete(args.degree)
        answer = member(system, poly)
        result = {"member": answer, "certified_through": system.complete_through}
        code = 0 if answer else 1
        lines.append(f"member: {'yes' if answer else 'no'} "
                     f"(certified through degree {system.complete_through})")

    elif sub == "torsion":
        element = ncpoly_from_json(_load_json(args.element), p.n)
        factor = parse_hpoly_string(args.factor)
        config.update({"element": args.element, "factor": args.factor, "degree": args.degree})
        outcome = torsion_check(p, element, factor, args.degree)
        result = torsion_outcome_to_json(outcome)
        code = {"witness": 0, "refuted": 1, "unknown": 2}[outcome.status]
        lines.extend([f"torsion: {outcome.status}", f"  {outcome.detail}"])

    else:
        raise InputError(f"unknown subcommand {sub!r}")
    echo = ({"potential": potential_to_json(pot)} if sub in ("derive", "from-potential")
            else {"presentation": presentation_to_json(p)})
    _emit(args, config, dict(echo, result=result), lines)
    return code


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors; map to the input-error code
        code = exc.code if isinstance(exc.code, int) else 0
        return 3 if code else 0
    try:
        return run(args)
    except OutOfRange as exc:
        print(f"out of range: {exc}", file=sys.stderr)
        return 2
    except PbwError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - contract violation guard
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 4


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
