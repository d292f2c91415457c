#!/usr/bin/env python3
"""Record the output digests the benchmark checks against.

Runs every document of every workload once per seed, checks it against the
oracle, and stores the SHA-256 of each output in ``baseline.json`` together
with the backend that ran.  Run it only on a commit whose outputs are known
good; a later commit must reproduce these bytes.

    python3 perfbench/record.py --seeds 0-31
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-31", help="first-last, inclusive")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    cli = run.load_cli()
    baseline = run.load_baseline() if run.BASELINE.exists() else {}
    _, setup_digests = run.measure_setup(1)
    baseline["setup_digest"] = setup_digests.pop()
    digests = baseline.setdefault("digests", {})
    backends = baseline.setdefault("backend", {})
    workdir = run.ROOT / ".perfbench-work" / "record"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for seed in range(first, last + 1):
                cases = run.prepare(workload, seed, workdir)
                checked, backend = run.warm_up(cli, cases, None)
                if checked.problems:
                    print("\n".join(checked.problems), file=sys.stderr)
                    return 1
                digests.setdefault(workload, {})[str(seed)] = [
                    None if case.doc.probe else case.digest for case in cases]
                backends[workload] = {"have_fast": backend["have_fast"],
                                      "kernels": backend["kernels"]}
            print(f"{workload}: seeds {first}-{last} recorded", flush=True)
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
    run.BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
