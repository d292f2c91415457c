#!/usr/bin/env python3
"""Check the program's output on the pipeline benchmark's documents.

    python3 tools/check_outputs.py [--workload W] --seeds 0-63

For each workload (all three unless ``--workload`` names one) and each seed,
every document the benchmark generates runs once through
``setchoice.cli.main``, by ``perfbench/run.py``'s own ``prepare`` and
``check_case``: its exit status and output are checked against the
independent oracle and, for a seed recorded in ``perfbench/baseline.json``,
against the output digest recorded there.  Nothing is timed.  Every problem
is printed; the exit status is 1 if there was one, and 2 when the program
cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import run  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    """``"N"`` or ``"A-B"`` (both ends included) as a list of seeds."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds must be N or A-B, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def check(cli, workload: str, seeds: list[int]) -> tuple[list[str], int, int]:
    """The problems found over ``seeds``, the number of documents run, and
    the number of seeds whose digests are recorded."""
    digests = run.load_baseline()["digests"].get(workload, {})
    problems, documents, recorded_seeds = [], 0, 0
    for seed in seeds:
        recorded = digests.get(str(seed))
        recorded_seeds += recorded is not None
        with tempfile.TemporaryDirectory() as workdir:
            cases = run.prepare(workload, seed, Path(workdir))
            for i, case in enumerate(cases):
                problems += [f"{workload} seed {seed}: {problem}" for problem in
                             run.check_case(cli, case,
                                            recorded[i] if recorded else None)]
            documents += len(cases)
    return problems, documents, recorded_seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="one seed N or a range A-B")
    args = parser.parse_args(argv)
    try:
        cli = run.load_cli()
    except run.ProgramMissing as exc:
        print(f"check_outputs: {exc}", file=sys.stderr)
        return 2

    failed = False
    for workload in [args.workload] if args.workload else sorted(workloads.WORKLOADS):
        problems, documents, recorded_seeds = check(cli, workload, args.seeds)
        for problem in problems:
            print(f"FAILED {problem}")
        print(f"{workload}: {documents} documents over {len(args.seeds)} seed(s) "
              f"({recorded_seeds} with recorded digests), "
              f"{len(problems)} problems")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
