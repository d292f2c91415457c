#!/usr/bin/env python3
"""Append one parent/change benchmark record to BENCH_pipeline.json.

    python3 tools/bench_record.py --commit SHA parent.txt change.txt

Each file holds the standard output of ``perfbench/run.py --trace 0`` runs
of one workload, appended (the files ``perfbench/compare.py`` reads): the
parent's runs in one file, the change's in the other.  The record holds the
commit of the change, the workload and seeds, each side's median and
interquartile range of every end-to-end metric that BENCHMARK.json
declares, and the backend the runs reported.  Nothing is written, and the
exit status is 2, unless both files ran the same workload on the same seeds
with one and the same backend.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RECORD = ROOT / "BENCH_pipeline.json"
sys.path.insert(0, str(ROOT / "perfbench"))
from compare import read  # noqa: E402

HEADER = re.compile(r"workload (\S+), seed (\d+), trace 0:")


def runs(path: str) -> tuple[set[str], list[int]]:
    """The workloads and seeds named by the run headers of one file."""
    with open(path, encoding="utf-8") as lines:
        found = [m for m in map(HEADER.match, lines) if m]
    return {m[1] for m in found}, sorted(int(m[2]) for m in found)


def spread(values: list[float]) -> dict:
    """Median and interquartile range, quartiles as ``compare.py`` takes them."""
    if len(values) < 2:
        return {"median": values[0], "iqr": None}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "iqr": [q1, q3]}


def record(commit: str, parent_path: str, change_path: str) -> dict:
    (parent_workloads, seeds), (change_workloads, change_seeds) = (
        runs(parent_path), runs(change_path))
    (parent_backends, parent), (change_backends, change) = (
        read(parent_path), read(change_path))
    if len(parent_workloads) != 1 or parent_workloads != change_workloads:
        raise ValueError(f"workloads differ or are mixed: "
                         f"{sorted(parent_workloads)} vs {sorted(change_workloads)}")
    if seeds != change_seeds:
        raise ValueError(f"seeds differ: {seeds} vs {change_seeds}")
    if len(parent_backends) != 1 or parent_backends != change_backends:
        raise ValueError(f"backends differ or are mixed: "
                         f"{sorted(parent_backends)} vs {sorted(change_backends)}")
    (have_fast, kernels), = parent_backends
    names = [metric["name"] for metric in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    missing = [name for name in names if name not in parent or name not in change]
    if missing:
        raise ValueError(f"metrics missing from a side: {missing}")
    return {
        "commit": commit,
        "workload": parent_workloads.pop(),
        "seeds": seeds,
        "metrics": {name: {"parent": spread(parent[name]),
                           "change": spread(change[name])} for name in names},
        "backend": {"have_fast": have_fast, "kernels": list(kernels)},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commit", required=True,
                        help="commit whose code the change runs measured")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    try:
        entry = record(args.commit, args.parent, args.change)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 2
    records = json.loads(RECORD.read_text()) if RECORD.exists() else []
    records.append(entry)
    RECORD.write_text(json.dumps(records, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
