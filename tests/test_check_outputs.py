"""tools/check_outputs.py: the benchmark's documents, checked untimed."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_outputs.py"
spec = importlib.util.spec_from_file_location("check_outputs", TOOL)
check_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_outputs)


def test_seed_zero_of_every_workload_matches_oracle_and_digests():
    proc = subprocess.run([sys.executable, str(TOOL), "--seeds", "0"],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "crisp-rank", "fuzzy-report", "intake"]
    assert all(line.endswith("over 1 seed(s) (1 with recorded digests), "
                             "0 problems") for line in lines), lines


def test_wrong_output_is_a_problem():
    class Silent:
        """A program that exits 0 and prints nothing."""

        @staticmethod
        def main(argv):
            return 0

    problems, documents, recorded = check_outputs.check(Silent, "intake", [0])
    assert (documents, recorded) == (9, 1)
    # each of the 9 documents, the nested probe too, fails its check
    assert len({p.split(".json")[0] for p in problems}) == 9, problems
    assert all(p.startswith("intake seed 0: intake-") for p in problems)
