"""tools/bench_record.py: one record from a parent and a change run file."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)

NAMES = ("latency_p50_s", "latency_tail_s", "docs_per_s", "cells_per_s",
         "peak_rss_mb", "setup_s")
BACKEND = {"have_fast": False, "kernels": ["pure"], "unwrapped": []}


def run_file(path, seeds, p50s, workload="intake", backend=BACKEND):
    lines = []
    for seed, p50 in zip(seeds, p50s):
        metrics = {name: {"value": p50 if name == "latency_p50_s" else 1.0,
                          "unit": "s"} for name in NAMES}
        lines += [f"workload {workload}, seed {seed}, trace 0: 40 operations",
                  "backend: " + json.dumps(backend, sort_keys=True),
                  json.dumps({"correct": True, "attempted": 40, "failed": 0,
                              "metrics": metrics})]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def test_record_holds_both_sides(tmp_path):
    parent = run_file(tmp_path / "p.txt", [2, 1, 3, 4], [0.4, 0.1, 0.2, 0.3])
    change = run_file(tmp_path / "c.txt", [1, 2, 3, 4], [0.1, 0.1, 0.1, 0.1])
    entry = bench_record.record("abc", parent, change)
    assert (entry["commit"], entry["workload"], entry["seeds"]) == (
        "abc", "intake", [1, 2, 3, 4])
    assert set(entry["metrics"]) == set(NAMES)
    p50 = entry["metrics"]["latency_p50_s"]
    assert p50["parent"]["median"] == pytest.approx(0.25)
    assert p50["parent"]["iqr"] == pytest.approx([0.125, 0.375])
    assert p50["change"] == {"median": 0.1, "iqr": [0.1, 0.1]}
    assert entry["backend"] == {"have_fast": False, "kernels": ["pure"]}


@pytest.mark.parametrize("change_args", [
    {"seeds": [1, 2, 5]},
    {"workload": "crisp-rank"},
    {"backend": {**BACKEND, "kernels": ["compiled"]}},
])
def test_refuses_runs_that_do_not_pair(tmp_path, change_args):
    parent = run_file(tmp_path / "p.txt", [1, 2, 3], [0.1, 0.2, 0.3])
    change = run_file(tmp_path / "c.txt", **{"seeds": [1, 2, 3],
                                            "p50s": [0.1, 0.2, 0.3],
                                            **change_args})
    with pytest.raises(ValueError):
        bench_record.record("abc", parent, change)
