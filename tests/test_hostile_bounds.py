"""Hostile-input bounds, each pinned by a counted proxy at size n and 2n.

Wall time on a shared host is too noisy to bound, so each test counts
something that is the same for the same input: the line events a traced
run spends in the package's own frames, or the tracemalloc peak.  A
change back to a quadratic search or to an unbounded quote doubles the
count's growth, and the test fails.
"""

from __future__ import annotations

import os
import sys
import tracemalloc
from pathlib import Path

import setchoice
from setchoice import build_process, evaluate
from setchoice.scenario_io import parse_scenario, validate_scenario
from setchoice.universe import positions

from _gen import one_objective_document, tiny_negative_weights_document

PACKAGE = str(Path(setchoice.__file__).parent) + os.sep


def _package_lines(call):
    """``(line events in the package's frames, result)`` of ``call()``.
    The caller's tracer, if any (a coverage run), is put back afterwards."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return count, result


def _peak(call):
    """``(tracemalloc peak in bytes, result)`` of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_cardinal_out_of_domain_flag_is_linear():
    """No individual of ``one_objective_document`` shares two objectives
    with an alternative, so the cardinal flag's search finds nothing and
    looks at every mask.  Visiting each mask once grows 2x from n to 2n
    (1.99x); scanning every support x offer pair grows 4x (3.98x)."""
    def lines(count: int) -> int:
        scenario = parse_scenario(one_objective_document(count))
        process = build_process("cardinal", scenario.environment,
                                scenario.society)
        counted, social = _package_lines(lambda: evaluate(process))
        assert social.out_of_domain is False
        return counted

    assert lines(2000) / lines(1000) < 2.5


def test_out_of_range_quote_is_bounded():
    """Each finding quotes the 999-character weight in a few dozen
    characters, so the report grows with the number of findings, not with
    the literal: the peak grows about 2x from k to 2k individuals (2.08x),
    and no message passes 120 characters (102 now)."""
    peaks = []
    for count in (200, 400):
        text = tiny_negative_weights_document(count)
        peak, report = _peak(lambda: validate_scenario(text))
        peaks.append(peak)
        findings = report.findings
        assert len(findings) == count
        assert max(len(finding.message) for finding in findings) <= 120
    assert peaks[1] / peaks[0] < 2.5


def test_positions_of_a_sparse_mask_walk_its_set_bits():
    """Two set bits a million positions apart: walking the set bits holds
    a few copies of the 125 KB mask (0.53 MB), where the ``bin`` string,
    its bytes and their translation hold a million bytes each (2.0 MB)."""
    peak, found = _peak(lambda: positions(1 | 1 << 10**6))
    assert found == [0, 10**6]
    assert peak < 1_000_000
