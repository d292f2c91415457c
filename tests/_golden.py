"""Golden-output case table for the CLI, the invalid corpus's expected
locations, and the golden regeneration entry point.

Regenerate after an intentional output change with:

    python tests/_golden.py --write

and review the diff before committing.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
INVALID_DIR = Path(__file__).resolve().parent / "data" / "invalid"

# (golden file name, scenario file relative to the repository root, CLI
# arguments)
CASES = []
for fmt in ("table", "json", "csv"):
    CASES += [
        (f"crisp_pair.utilities.cardinal.{fmt}.txt", "scenarios/crisp_pair.json",
         ["utilities", "--measure", "cardinal", "--format", fmt]),
        (f"crisp_pair.evaluate.normalized.{fmt}.txt", "scenarios/crisp_pair.json",
         ["evaluate", "--measure", "normalized", "--format", fmt]),
        # counts above 1: the out-of-domain note and a social mean of 2
        (f"crisp_pair.evaluate.cardinal.{fmt}.txt", "scenarios/crisp_pair.json",
         ["evaluate", "--measure", "cardinal", "--format", fmt]),
        (f"weighted_split.evaluate.fuzzy.{fmt}.txt", "scenarios/weighted_split.json",
         ["evaluate", "--measure", "fuzzy", "--format", fmt]),
        (f"weighted_split.rank.fuzzy.{fmt}.txt", "scenarios/weighted_split.json",
         ["rank", "--measure", "fuzzy", "--format", fmt]),
        (f"partial_overlap.universes.{fmt}.txt", "scenarios/partial_overlap.json",
         ["universes", "--format", fmt]),
        # ids and findings that json escapes and csv quotes: a comma, a
        # quote, a backslash, non-ASCII and a character beyond the BMP
        (f"escaped_ids.evaluate.fuzzy.{fmt}.txt", "tests/data/escaped_ids.json",
         ["evaluate", "--measure", "fuzzy", "--format", fmt]),
        (f"escaped_messages.validate.{fmt}.txt",
         "tests/data/invalid/escaped_messages.json",
         ["validate", "--format", fmt]),
    ]


# the location of one error that each file of the invalid corpus must
# report, through the parser and through the CLI; every file in INVALID_DIR
# has an entry
EXPECTED_LOCATIONS = {
    "syntax_error.json": "$",
    "empty_universe.json": "universe",
    "duplicate_objective.json": "universe[2]",
    "unknown_objective_offer.json": "alternatives[0].offers[1]",
    "escaped_messages.json": "alternatives[0].offers[1]",
    "unknown_objective_membership.json": "individuals[0].membership.zz",
    "membership_out_of_range.json": "individuals[0].membership.a",
    "empty_offers.json": "alternatives[0].offers",
    "empty_support.json": "individuals[0].membership",
    "duplicate_alternative_id.json": "alternatives[1].id",
    "duplicate_individual_id.json": "individuals[1].id",
    "membership_and_requires.json": "individuals[0]",
    "token_whitespace.json": "universe[1]",
    "token_control_character.json": "alternatives[1].id",
    "control_characters_in_keys.json": "individuals[0].membership.\\x1b[2J",
    "deeply_nested.json": "$",
    "huge_exponent.json": "$",
    "huge_integer.json": "$",
    "huge_value_echo.json": "individuals[0].membership.a",
    "tiny_exponent.json": "$",
    "weight_just_above_one.json": "individuals[0].membership.a",
    "weight_just_below_zero.json": "individuals[0].membership.a",
    "weight_tiny_negative.json": "individuals[0].membership.a",
    "weight_long_tiny_negative.json": "individuals[0].membership.a",
}


def run_cli(scenario: str, args: list[str]) -> bytes:
    """Standard output of the CLI on ``ROOT / scenario``.  The run must exit
    0, or 1 for ``validate`` of an invalid scenario, and write no stderr."""
    command = [sys.executable, "-m", "setchoice", args[0],
               str(ROOT / scenario), *args[1:]]
    proc = subprocess.run(command, capture_output=True, check=False)
    allowed = (0, 1) if args[0] == "validate" else (0,)
    if proc.returncode not in allowed or proc.stderr:
        raise RuntimeError(f"{command} failed: {proc.stderr.decode()}")
    return proc.stdout


def write_all() -> None:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for golden_name, scenario, args in CASES:
        out = run_cli(scenario, args)
        (GOLDEN_DIR / golden_name).write_bytes(out)
        print(f"wrote {golden_name} ({len(out)} bytes)")


if __name__ == "__main__":
    if "--write" not in sys.argv:
        print(__doc__)
        sys.exit(2)
    write_all()
