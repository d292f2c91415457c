"""Command-line driver.

Verbs: validate, universes, utilities, evaluate, rank.  Every verb takes
``--format``; ``utilities``, ``evaluate`` and ``rank`` take ``--measure``
and ``--precision``.  The social profile is always the exact mean.  A
verb is given no option it does not read.  Exit status is 0 on success, 1
when the input fails validation (or a measure rejects the scenario), 2 on
usage errors, which argparse words.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache
from pathlib import Path

from .errors import MeasureError, ScenarioError
from .measures import UtilityMeasure
from .scenario_io import (
    DEFAULT_PRECISION,
    ERROR,
    FORMATS,
    Finding,
    ValidationReport,
    compute_pipeline,
    parse_scenario,
    render_ranking,
    render_report,
    render_universes,
    render_utilities,
    render_validation,
    validate_scenario,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, so every ``main`` call shares it.  Each option is declared
    once, on the verbs that read it."""
    formatted = argparse.ArgumentParser(add_help=False)
    formatted.add_argument("file", help="scenario file (JSON)")
    formatted.add_argument("--format", choices=FORMATS, default="table",
                           help="output format (default: table)")

    measured = argparse.ArgumentParser(add_help=False)
    measured.add_argument("--measure", required=True,
                          choices=[m.value for m in UtilityMeasure],
                          help="utility measure")
    measured.add_argument("--precision", type=int, choices=range(19),
                          metavar="N", default=DEFAULT_PRECISION,
                          help="decimal digits for utilities, 0-18 (default: 6)")

    parser = argparse.ArgumentParser(
        prog="setchoice",
        description="Evaluate and rank alternatives offered to a society of "
                    "individuals, all described as sets of shared objectives.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("validate", parents=[formatted],
                   help="check a scenario file and report findings")
    sub.add_parser("universes", parents=[formatted],
                   help="show declared/offered/requested objectives and their partition")
    sub.add_parser("utilities", parents=[formatted, measured],
                   help="per-individual utilities for every alternative")
    sub.add_parser("evaluate", parents=[formatted, measured],
                   help="full report: universes, profiles, social profile, ranking")
    sub.add_parser("rank", parents=[formatted, measured],
                   help="alternatives by decreasing social utility")
    return parser


def _read(path_text: str, output_format: str) -> str | None:
    """The file's text, or None after saying why it cannot be read."""
    path = Path(path_text)
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        sys.stdout.write(render_validation(ValidationReport((Finding(
            ERROR, "$", f"file is not UTF-8: {exc.reason} at byte {exc.start}"),)),
            output_format))
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    text = _read(args.file, args.format)
    if text is None:
        return EXIT_INVALID

    if args.command == "validate":
        report = validate_scenario(text)
        sys.stdout.write(render_validation(report, args.format))
        return EXIT_OK if report.ok else EXIT_INVALID

    scenario = parse_scenario(text)
    del text  # a large file's text is not held while the pipeline runs
    if isinstance(scenario, ValidationReport):
        sys.stdout.write(render_validation(scenario, args.format))
        return EXIT_INVALID

    try:
        if args.command == "universes":
            sys.stdout.write(render_universes(scenario, args.format))
        elif args.command == "utilities":
            sys.stdout.write(render_utilities(scenario, args.measure,
                                              args.format, args.precision))
        elif args.command == "evaluate":
            result = compute_pipeline(scenario, args.measure)
            sys.stdout.write(render_report(result, args.format, args.precision))
        elif args.command == "rank":
            result = compute_pipeline(scenario, args.measure)
            sys.stdout.write(render_ranking(result, args.format, args.precision))
    except (MeasureError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
