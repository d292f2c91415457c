"""Tests of the pipeline benchmark itself: generator, oracle and tracer.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import COUNTS, LAYERS, Tracer  # noqa: E402


def _shape(doc):
    return (doc.verb, doc.options, doc.expected_rc, doc.probe, len(doc.universe),
            len(doc.alternatives), len(doc.individuals), len(doc.findings))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_fixes_the_documents(workload):
    first = workloads.generate(workload, 5)
    again = workloads.generate(workload, 5)
    other = workloads.generate(workload, 6)
    assert [d.text for d in first] == [d.text for d in again]
    assert [_shape(d) for d in first] == [_shape(d) for d in other]
    assert all(a.text != b.text for a, b in zip(first, other) if not a.probe)


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


def _small_document(verb, measure, fmt):
    rng = random.Random(7)
    universe = workloads._universe(9)
    individuals = (workloads._weighted(rng, universe, 6) if measure == "fuzzy"
                   else workloads._crisp(rng, universe, 6))
    return workloads._valid("small.json", universe,
                            workloads._alternatives(rng, universe, 5), individuals,
                            verb, ["--measure", measure, "--format", fmt])


@pytest.mark.parametrize("fmt", workloads.FORMATS)
@pytest.mark.parametrize("verb, measure", [("evaluate", "fuzzy"),
                                           ("rank", "normalized"),
                                           ("rank", "cardinal")])
def test_oracle_catches_a_one_digit_corruption(cli, tmp_path, verb, measure, fmt):
    doc = _small_document(verb, measure, fmt)
    path = tmp_path / doc.name
    path.write_text(doc.text)
    status, text, _ = run.invoke(cli, doc.argv(str(path)))
    assert status == 0
    expected = oracle.expect(doc)
    assert oracle.check(doc, expected, text) == []
    values = list(re.finditer(r"\d\.\d{6}", text))
    assert values
    for match in (values[0], values[len(values) // 2], values[-1]):
        at = match.end() - 1
        flipped = str((int(text[at]) + 1) % 10)
        corrupted = text[:at] + flipped + text[at + 1:]
        assert oracle.check(doc, expected, corrupted), match.group()


def test_oracle_checks_validation_findings(cli, tmp_path):
    doc = next(d for d in workloads.generate("intake", 3) if d.verb == "validate"
               and not d.probe)
    path = tmp_path / doc.name
    path.write_text(doc.text)
    status, text, _ = run.invoke(cli, doc.argv(str(path)))
    assert status == 1
    expected = oracle.expect(doc)
    assert oracle.check(doc, expected, text) == []
    assert oracle.check(doc, expected, text.replace("individuals[", "individuals[1", 1))


def test_self_time_is_exact_on_nested_calls():
    ticks = iter([0.0, 1.0, 4.0, 5.0, 7.5, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.span("inner", lambda: None)
    failing = tracer.span("failing", lambda: 1 / 0)

    def body():
        inner()  # 1.0 -> 4.0
        with pytest.raises(ZeroDivisionError):
            failing()  # 5.0 -> 7.5

    tracer.span("outer", body)()  # 0.0 -> 10.0
    assert dict(tracer.self_s) == {"inner": 3.0, "failing": 2.5, "outer": 4.5}
    assert tracer._stack == []


def test_tail_has_ten_latencies_beyond_it():
    latency, percentile = run.tail([float(i) for i in range(40, 0, -1)])
    assert latency == 30.0 and percentile == 75.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_reports_every_layer(cli, tmp_path, workload):
    tally, metrics, backend = run.run(cli, workload, 0, 0.0, True, tmp_path)
    assert tally.problems == [] and tally.failed == 0
    for layer in LAYERS:
        assert metrics[f"{layer}.self_s"][0] > 0, layer
    for name in COUNTS:
        if name != "scenario_io.parse.bytes":
            assert name in metrics
    assert metrics["scenario_io.parse.bytes_per_s"][0] > 0
    assert metrics["trace.overhead_ratio"][0] > 0
    assert backend["unwrapped"] == [] and backend["kernels"]
    assert backend["digests"] == "recorded"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "intake", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
