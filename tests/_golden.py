"""Golden-output case table for the CLI, plus the regeneration entry point.

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

# (golden file name, scenario file, CLI arguments)
CASES = []
for fmt in ("table", "json", "csv"):
    CASES += [
        (f"crisp_pair.utilities.cardinal.{fmt}.txt", "crisp_pair.json",
         ["utilities", "--measure", "cardinal", "--format", fmt]),
        (f"crisp_pair.evaluate.normalized.{fmt}.txt", "crisp_pair.json",
         ["evaluate", "--measure", "normalized", "--format", fmt]),
        # counts above 1: the out-of-domain note and a social mean of 2
        (f"crisp_pair.evaluate.cardinal.{fmt}.txt", "crisp_pair.json",
         ["evaluate", "--measure", "cardinal", "--format", fmt]),
        (f"weighted_split.evaluate.fuzzy.{fmt}.txt", "weighted_split.json",
         ["evaluate", "--measure", "fuzzy", "--format", fmt]),
        (f"weighted_split.rank.fuzzy.{fmt}.txt", "weighted_split.json",
         ["rank", "--measure", "fuzzy", "--format", fmt]),
        (f"partial_overlap.universes.{fmt}.txt", "partial_overlap.json",
         ["universes", "--format", fmt]),
    ]


def run_cli(scenario: str, args: list[str]) -> bytes:
    command = [sys.executable, "-m", "setchoice", args[0],
               str(ROOT / "scenarios" / scenario), *args[1:]]
    proc = subprocess.run(command, capture_output=True, check=False)
    if proc.returncode != 0:
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
