#!/usr/bin/env python3
"""Compare two sets of benchmark runs; refuse when their backends differ.

    python3 perfbench/compare.py before.txt after.txt

Each file holds the standard output of one or more runs of ``run.py``,
appended.  For every metric the script prints each side's median and
quartiles and the change of the median.  Numbers measured with different
kernels are not comparable, so it exits 2 without comparing when the two
sides report a different ``HAVE_FAST`` or a different set of kernels that
ran.
"""

from __future__ import annotations

import json
import statistics
import sys


def read(path: str) -> tuple[set, dict[str, list[float]]]:
    backends, values = set(), {}
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            if line.startswith("backend: "):
                backend = json.loads(line[len("backend: "):])
                backends.add((backend["have_fast"], tuple(backend["kernels"])))
            elif line.startswith('{"correct"'):
                for name, metric in json.loads(line)["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
    return backends, values


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (1 run)"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] ({len(values)} runs)"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (before_backends, before), (after_backends, after) = map(read, argv)
    if before_backends != after_backends:
        print(f"refusing to compare: backends differ "
              f"({sorted(before_backends)} vs {sorted(after_backends)})",
              file=sys.stderr)
        return 2
    for name in before:
        if name in after:
            base = statistics.median(before[name])
            change = (f"median {statistics.median(after[name]) / base - 1:+.1%}"
                      if base else "median was 0")
            print(f"{name}: {summary(before[name])} -> {summary(after[name])}, {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
