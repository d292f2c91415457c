#!/usr/bin/env python3
"""Pipeline benchmark for setchoice: the CLI as users run it, end to end.

    python3 perfbench/run.py --workload crisp-rank --seed 1 --seconds 30 --trace 0

One operation is one ``setchoice.cli.main(argv)`` call on one generated
scenario file, made in this process with stdout captured.  Load is a closed
loop from one thread: the next operation starts when the previous one has
returned.  The documents of a workload form a fixed cycle (see
``workloads.py``); the loop runs whole cycles until ``--seconds`` have
passed and eleven latencies are in, so the tail percentile exists.

Before timing, every document runs once and its output is checked against
the independent oracle (``oracle.py``) and, for seeds recorded in
``baseline.json``, against the SHA-256 digests recorded on the seed commit.
Every timed operation must then reproduce that output byte for byte.

Times are reported in reference-scaled seconds.  On a shared host the speed
of one core drifts by half or more over tens of seconds, which no run
length averages out.  So a fixed pure-Python task (``reference``) is timed
right before and after every operation, and the operation's times are
multiplied by REFERENCE_S over the mean of those two timings: the result
is what the operation would take while the reference task takes
REFERENCE_S.  The median slowdown is printed with every run.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced cycles and reports per-layer self time and counters,
each per operation, plus the tracer's overhead.  The last line of stdout is
one JSON object; the exit status is 1 when any check failed and 2 when the
program cannot be imported from ``src/`` beside this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
SETUP_SCENARIO = ROOT / "scenarios" / "crisp_pair.json"
SETUP_REPEATS = 11
TAIL_BEYOND = 10
#: Close to the median of ``reference()`` on the machine the baseline was
#: recorded on (x86-64 at 2.1 GHz, Python 3.11); it only sets the scale.
REFERENCE_S = 0.0055

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, LAYERS, Tracer  # noqa: E402

#: Timed in a fresh interpreter: ``import setchoice`` through the first
#: ``evaluate`` of the smallest bundled scenario, then scaled like every
#: other time by reference timings taken right after it.
SETUP_CODE = """
import contextlib, hashlib, io, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import setchoice.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = setchoice.cli.main(["evaluate", sys.argv[2], "--measure", "normalized"])
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[3])
import run
slowdown = sorted(run.reference() for _ in range(3))[1] / run.REFERENCE_S
print(rc, hashlib.sha256(out.getvalue().encode()).hexdigest(), repr(elapsed / slowdown))
"""


class ProgramMissing(Exception):
    """The checkout has no importable setchoice under src/."""


def load_cli():
    """Import ``setchoice.cli`` from this checkout's src/ and nowhere else."""
    if not (SRC / "setchoice" / "__init__.py").is_file():
        raise ProgramMissing(f"no setchoice package under {SRC}")
    sys.path.insert(0, str(SRC))
    import setchoice.cli

    if SRC not in Path(setchoice.__file__).resolve().parents:
        raise ProgramMissing(f"setchoice imported from {setchoice.__file__}")
    return setchoice.cli


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[list[float], set[str]]:
    """Scaled set-up seconds of `repeats` fresh interpreters, and the
    digests of what they printed."""
    times, digests = [], set()
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(SETUP_SCENARIO),
             str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        rc, digest, elapsed = done.stdout.split()
        digests.add(digest if rc == "0" else f"exit {rc}")
        times.append(float(elapsed))
    return times, digests


# --- one operation ----------------------------------------------------------

@dataclass
class Case:
    doc: workloads.Document
    path: str
    digest: str | None = None  # output of the checked run


def invoke(cli, argv: list[str]) -> tuple[object, str, float]:
    """(exit status or exception, stdout, seconds) of one ``cli.main`` call.
    ``cli.main`` is looked up per call so the tracer's wrapper is used."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            status = cli.main(argv)
        except (Exception, SystemExit) as exc:
            status = exc
        elapsed = time.perf_counter() - start
    return status, out.getvalue(), elapsed


def digest_of(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def probe_outcome(status, text: str) -> str | None:
    """'defect' for the known RecursionError, 'fixed' for a located finding
    with exit 1, None for anything else."""
    if isinstance(status, RecursionError):
        return "defect"
    if status == 1 and text.startswith("INVALID:") and "\nerror " in text:
        return "fixed"
    return None


def check_case(cli, case: Case, recorded: str | None) -> list[str]:
    """Run a case once and check it fully; sets ``case.digest``."""
    doc = case.doc
    status, text, _ = invoke(cli, doc.argv(case.path))
    case.digest = digest_of(text)
    if doc.probe:
        if probe_outcome(status, text) is None:
            return [f"{doc.name}: nested probe ended in {status!r}"]
        return []
    if status != doc.expected_rc:
        return [f"{doc.name}: exit {status!r}, expected {doc.expected_rc}"]
    problems = oracle.check(doc, oracle.expect(doc), text)
    if recorded is not None and case.digest != recorded:
        problems.append(f"{doc.name}: output digest differs from the seed commit")
    return problems


# --- the closed loop --------------------------------------------------------

def _reference_task() -> None:
    acc = Fraction(0)
    table = {}
    for i in range(1000):
        acc += Fraction(i % 17, 3 + i % 11)
        table[f"k{i:04d}"] = acc
    sorted(json.loads(json.dumps([str(v) for v in table.values()])))


def reference() -> float:
    """Seconds a fixed pure-Python task (exact fractions, dicts, strings,
    json) takes right now.  GC is paused so that garbage the program left
    is not collected on this clock."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_task()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


@dataclass
class Tally:
    """Outcome of timed operations.  Times are reference-scaled seconds."""

    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    cells: int = 0
    wall: float = 0.0
    defects: int = 0
    fixed: int = 0
    problems: list[str] = field(default_factory=list)
    speeds: list[float] = field(default_factory=list)
    self_s: dict[str, float] = field(default_factory=lambda: defaultdict(float))

    def add(self, other: "Tally") -> None:
        for name in ("attempted", "failed", "cells", "wall", "defects", "fixed"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("latencies", "problems", "speeds"):
            getattr(self, name).extend(getattr(other, name))
        for layer, seconds in other.self_s.items():
            self.self_s[layer] += seconds


def run_cycle(cli, cases: list[Case], tracer: Tracer | None = None) -> Tally:
    """One closed-loop pass over the cases.  Each operation's times are
    scaled by REFERENCE_S over the mean of the reference timings taken
    just before and just after it."""
    tally = Tally()
    before = reference()
    for case in cases:
        doc = case.doc
        layers = dict(tracer.self_s) if tracer else {}
        start = time.perf_counter()
        status, text, elapsed = invoke(cli, doc.argv(case.path))
        same = digest_of(text) == case.digest
        slot = time.perf_counter() - start
        after = reference()
        scale = 2 * REFERENCE_S / (before + after)
        before = after
        tally.speeds.append(1 / scale)
        tally.wall += slot * scale
        if tracer:
            for layer, seconds in tracer.self_s.items():
                tally.self_s[layer] += (seconds - layers.get(layer, 0.0)) * scale
        if doc.probe:
            outcome = probe_outcome(status, text)
            if outcome == "defect":
                tally.defects += 1
            elif outcome == "fixed" and same:
                tally.fixed += 1
            else:
                tally.problems.append(f"{doc.name}: probe ended in {status!r}")
            continue
        tally.attempted += 1
        if status != doc.expected_rc or not same:
            tally.failed += 1
            tally.problems.append(f"{doc.name}: exit {status!r}, "
                                  f"{'same' if same else 'different'} output")
            continue
        tally.latencies.append(elapsed * scale)
        tally.cells += doc.cells
    return tally


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


# --- a whole run ------------------------------------------------------------

def prepare(workload: str, seed: int, workdir: Path) -> list[Case]:
    cases = []
    for doc in workloads.generate(workload, seed):
        path = workdir / doc.name
        path.write_text(doc.text, encoding="utf-8")
        cases.append(Case(doc, str(path)))
    return cases


def load_baseline() -> dict:
    return json.loads(BASELINE.read_text(encoding="utf-8"))


def backend_of(tracer: Tracer) -> dict:
    """HAVE_FAST, and the encodings and kernel calls the tracer saw."""
    from setchoice import _core

    counts = tracer.counts
    kernels = [name for name, key in (("pure", "core.utility_matrix.calls_pure"),
                                      ("compiled", "core.utility_matrix.calls_compiled"))
               if counts[key]]
    return {"have_fast": bool(getattr(_core, "HAVE_FAST", False)),
            "kernels": kernels,
            "int64_safe": counts["core.encode.int64_safe"],
            "int64_unsafe": counts["core.encode.int64_unsafe"],
            "calls_pure": counts["core.utility_matrix.calls_pure"],
            "calls_compiled": counts["core.utility_matrix.calls_compiled"]}


def warm_up(cli, cases: list[Case], recorded: list | None) -> tuple[Tally, dict]:
    """Check every case once under a tracer that records the backend."""
    tracer = Tracer()
    missing = tracer.install_pipeline()
    checked = Tally(attempted=len(cases))
    try:
        for i, case in enumerate(cases):
            problems = check_case(cli, case, recorded[i] if recorded else None)
            checked.failed += bool(problems)
            checked.problems += problems
    finally:
        tracer.uninstall()
    backend = backend_of(tracer)
    backend["unwrapped"] = missing
    return checked, backend


def per_layer(tracer: Tracer, traced: Tally, untraced_wall: float) -> dict:
    """Per-operation self time of each layer and per-operation counters."""
    ops = traced.attempted
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (traced.self_s.get(layer, 0.0) / ops, "s")
    parse_s = traced.self_s.get("scenario_io.parse", 0.0)
    metrics["scenario_io.parse.bytes_per_s"] = (
        tracer.counts["scenario_io.parse.bytes"] / parse_s if parse_s else 0.0, "B/s")
    for name in COUNTS:
        if name != "scenario_io.parse.bytes":
            metrics[name] = (tracer.counts[name] / ops,
                             "B/op" if name.endswith(".bytes") else "count/op")
    metrics["trace.overhead_ratio"] = (traced.wall / untraced_wall, "ratio")
    return metrics


def run(cli, workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> tuple[Tally, dict, dict]:
    """Returns the tally of all timed operations, the metrics as
    name -> (value, unit), and the backend that ran."""
    cases = prepare(workload, seed, workdir)
    recorded = load_baseline()["digests"].get(workload, {}).get(str(seed))
    checked, backend = warm_up(cli, cases, recorded)
    backend["digests"] = "recorded" if recorded else "not recorded for this seed"
    if checked.problems:
        return checked, {}, backend
    total = Tally()

    if not trace:
        start = time.perf_counter()
        while (time.perf_counter() - start < seconds
               or len(total.latencies) < TAIL_BEYOND + 1):
            total.add(run_cycle(cli, cases))
        return total, {
            "latency_p50_s": (statistics.median(total.latencies), "s"),
            "latency_tail_s": (tail(total.latencies)[0], "s"),
            "docs_per_s": ((total.attempted - total.failed) / total.wall, "1/s"),
            "cells_per_s": (total.cells / total.wall, "1/s"),
        }, backend

    tracer = Tracer()
    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    while not traced.attempted or time.perf_counter() - start < seconds:
        plain.add(run_cycle(cli, cases))
        tracer.install_pipeline()
        try:
            traced.add(run_cycle(cli, cases, tracer))
        finally:
            tracer.uninstall()
    total.add(plain)
    total.add(traced)
    return total, per_layer(tracer, traced, plain.wall), backend


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        cli = load_cli()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        tally, metrics, backend = run(cli, args.workload, args.seed, args.seconds,
                                      bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if not args.trace and metrics:
        setup_times, setup_digests = measure_setup()
        expected = load_baseline()["setup_digest"]
        if setup_digests != {expected}:
            tally.problems.append(f"set-up evaluate printed {setup_digests}, "
                                  f"expected {expected}")
            tally.failed += 1
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["setup_s"] = (statistics.median(setup_times), "s")

    correct = not tally.problems
    print(f"workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}: {tally.attempted} operations")
    print("backend: " + json.dumps(backend, sort_keys=True))
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}")
    print(f"error_rate {tally.failed / tally.attempted:.4f} ratio "
          f"({tally.failed} of {tally.attempted})")
    if tally.defects or tally.fixed:
        print(f"known defect: {tally.defects} of {tally.defects + tally.fixed} "
              f"nested-array probes ({workloads.NESTING_DEPTH} deep) raised "
              "RecursionError from validate instead of a located finding")
    if tally.speeds:
        print(f"slowdown {statistics.median(tally.speeds):.3f}: median reference "
              f"time over {REFERENCE_S} s; timed values below are divided by it")
    for name, (value, unit) in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = (f" (p{tail(tally.latencies)[1]:.1f} of {len(tally.latencies)} "
                    f"latencies, {TAIL_BEYOND} beyond it)")
        print(f"{name} {value:.6g} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
