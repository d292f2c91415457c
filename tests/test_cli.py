import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import setchoice
from setchoice.cli import build_parser, main

from _golden import (CASES, EXPECTED_LOCATIONS, GOLDEN_DIR, INVALID_DIR, ROOT,
                     run_cli)

SCENARIOS = ROOT / "scenarios"


def cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "setchoice", *args],
                          capture_output=True, text=True, check=False)


class TestGolden:
    @pytest.mark.parametrize("golden_name,scenario,args",
                             CASES, ids=[c[0] for c in CASES])
    def test_output_is_byte_identical(self, golden_name, scenario, args):
        expected = (GOLDEN_DIR / golden_name).read_bytes()
        assert run_cli(scenario, args) == expected

    def test_repeated_runs_are_byte_identical(self):
        args = ["evaluate", "--measure", "fuzzy", "--format", "json"]
        assert run_cli("scenarios/weighted_split.json", args) == run_cli(
            "scenarios/weighted_split.json", args)


#: runs every golden case in one interpreter through ``main``; prints, per
#: case, its exit code, standard error and standard output as bytes
ALL_CASES_IN_PROCESS = """
import contextlib, io, json, sys
from setchoice.cli import main
from _golden import CASES, ROOT
results = []
for _, scenario, args in CASES:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([args[0], str(ROOT / scenario), *args[1:]])
    results.append([code, err.getvalue(), out.getvalue().encode(
        sys.stdout.encoding, sys.stdout.errors).hex()])
json.dump(results, sys.stdout)
"""


def test_outputs_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join([str(Path(setchoice.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    runs = [subprocess.run(
        [sys.executable, "-c", ALL_CASES_IN_PROCESS], capture_output=True,
        check=True, timeout=120,
        env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}).stdout
        for seed in ("0", "1")]
    assert runs[0] == runs[1]
    results = json.loads(runs[0])
    for (name, _, args), (code, err, out) in zip(CASES, results, strict=True):
        assert code in ((0, 1) if args[0] == "validate" else (0,)), name
        assert err == "", name
        assert bytes.fromhex(out) == (GOLDEN_DIR / name).read_bytes(), name


class TestValidateVerb:
    def test_valid_scenario_exits_zero(self):
        proc = cli("validate", str(SCENARIOS / "crisp_pair.json"))
        assert proc.returncode == 0
        assert proc.stdout == "OK: scenario is valid\n"

    @pytest.mark.parametrize("output_format,note,expected", [
        ("table", False, "OK: scenario is valid\n"),
        ("table", True, "OK: scenario is valid (1 warning(s))\n"
                        "warning  note  unknown key 'note'\n"),
        ("json", False, '{\n  "ok": true,\n  "errors": 0,\n  "warnings": 0,\n'
                        '  "findings": []\n}\n'),
        ("csv", False, "severity,location,message\n"),
    ], ids=["table", "table-warning", "json", "csv"])
    def test_valid_scenario_report_is_exact(self, tmp_path, capsys,
                                            output_format, note, expected):
        doc = json.loads((SCENARIOS / "crisp_pair.json").read_text(encoding="utf-8"))
        if note:
            doc["note"] = "hi"
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["validate", str(path), "--format", output_format]) == 0
        assert capsys.readouterr() == (expected, "")

    @pytest.mark.parametrize("name", sorted(EXPECTED_LOCATIONS))
    def test_invalid_corpus_exits_one_and_names_location(self, name):
        proc = cli("validate", str(INVALID_DIR / name))
        assert proc.returncode == 1, proc.stdout
        assert EXPECTED_LOCATIONS[name] in proc.stdout
        assert proc.stderr == "", proc.stderr

    @pytest.mark.parametrize("name,shown", [
        ("weight_just_above_one.json", "1.0000000001"),
        ("weight_just_below_zero.json", "-0.0000001"),
        ("weight_tiny_negative.json",
         f"-0.{'0' * 37}... (1003 characters)"),
        # -1e-1991: more places than Python writes an int in
        ("weight_long_tiny_negative.json",
         f"-0.{'0' * 37}... (1994 characters)"),
    ])
    def test_out_of_range_weight_is_quoted_outside_the_interval(self, name,
                                                                shown):
        # rounded to a few digits, each of these would read as 1 or 0
        proc = cli("validate", str(INVALID_DIR / name), "--format", "csv")
        assert proc.stdout.splitlines()[1:] == [
            "error,individuals[0].membership.a,"
            f'"membership out of range: {shown} is not in [0, 1]"']

    def test_long_tokens_are_quoted_briefly(self, tmp_path):
        # a whitespace token and two unknown objectives of 5000 characters
        # each: the report quotes the first 40 and the length of each
        spaced, unknown = "x " * 2500, "y" * 5000
        path = tmp_path / "long_tokens.json"
        path.write_text(json.dumps({
            "universe": ["a", spaced],
            "alternatives": [{"id": "x", "offers": ["a", unknown]}],
            "individuals": [{"id": "p", "membership": {unknown: 1}}],
        }), encoding="utf-8")
        assert path.stat().st_size > 15000
        proc = cli("validate", str(path))
        assert proc.returncode == 1
        assert len(proc.stdout.encode()) < 1024, proc.stdout
        assert f"'{spaced[:40]}'... (5000 characters) contains whitespace" in (
            proc.stdout)
        assert f"unknown objective '{unknown[:40]}'... (5000 characters)" in (
            proc.stdout)

    @pytest.mark.parametrize("verb", ["validate", "evaluate"])
    def test_decimal_id_is_a_finding(self, tmp_path, verb):
        # a decimal literal where an id belongs is read as a number like a
        # weight is, and must end as a finding, not as a traceback
        path = tmp_path / "decimal_id.json"
        path.write_text('{"universe": ["a"], '
                        '"alternatives": [{"id": 1.5, "offers": ["a"]}], '
                        '"individuals": [{"id": "p", "requires": ["a"]}]}',
                        encoding="utf-8")
        options = ["--measure", "fuzzy"] if verb == "evaluate" else []
        proc = cli(verb, str(path), "--format", "csv", *options)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[1:] == [
            'error,alternatives[0].id,"alternative id must be a string, got number"']


class TestUnreadableFile:
    @pytest.mark.parametrize(
        "verb", ["validate", "universes", "utilities", "evaluate", "rank"])
    def test_missing_file_exits_one(self, verb):
        path = INVALID_DIR / "no_such_file.json"
        measured = verb in ("utilities", "evaluate", "rank")
        proc = cli(verb, str(path), *(["--measure", "fuzzy"] if measured else []))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"cannot read {path}: ")

    # written to tmp_path, not to the invalid corpus, which is read as text
    @pytest.mark.parametrize("output_format", ["table", "json", "csv"])
    @pytest.mark.parametrize(
        "verb", ["validate", "universes", "utilities", "evaluate", "rank"])
    def test_non_utf8_file_is_one_finding(self, tmp_path, capsys, verb,
                                          output_format):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"universe": ["\xff"]}')
        assert_one_finding_at_root(
            capsys, verb, path, output_format,
            "file is not UTF-8: invalid start byte at byte 15")

    @pytest.mark.parametrize("output_format", ["table", "json", "csv"])
    @pytest.mark.parametrize(
        "verb", ["validate", "universes", "utilities", "evaluate", "rank"])
    def test_byte_order_mark_is_one_finding(self, tmp_path, capsys, verb,
                                            output_format):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf"
                         + (SCENARIOS / "crisp_pair.json").read_bytes())
        assert_one_finding_at_root(
            capsys, verb, path, output_format,
            "invalid JSON: file starts with a byte-order mark (U+FEFF)")


def assert_one_finding_at_root(capsys, verb, path, output_format, message):
    """``verb`` on ``path`` exits 1 and prints one error at ``$``."""
    measured = verb in ("utilities", "evaluate", "rank")
    assert main([verb, str(path), "--format", output_format,
                 *(["--measure", "fuzzy"] if measured else [])]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    assert out == {
        "table": f"INVALID: 1 error(s), 0 warning(s)\nerror  $  {message}\n",
        "json": json.dumps({"ok": False, "errors": 1, "warnings": 0,
                            "findings": [{"severity": "error",
                                          "location": "$",
                                          "message": message}]},
                           indent=2) + "\n",
        "csv": f"severity,location,message\nerror,$,{message}\n",
    }[output_format]


class TestPipelineVerbs:
    def test_evaluate_on_invalid_file_shows_report_only(self):
        proc = cli("evaluate", str(INVALID_DIR / "empty_offers.json"),
                   "--measure", "fuzzy")
        assert proc.returncode == 1
        assert "INVALID" in proc.stdout
        assert "social profile" not in proc.stdout

    def test_cardinal_on_weighted_scenario_fails_cleanly(self):
        proc = cli("evaluate", str(SCENARIOS / "weighted_split.json"),
                   "--measure", "cardinal")
        assert proc.returncode == 1
        assert "crisp" in proc.stderr
        assert "v1" in proc.stderr

    def test_long_id_in_measure_error_is_quoted_briefly(self, tmp_path):
        name = "v" * 5000
        path = tmp_path / "long_id.json"
        path.write_text(json.dumps({
            "universe": ["a"],
            "alternatives": [{"id": "x", "offers": ["a"]}],
            "individuals": [{"id": name, "membership": {"a": 0.5}}],
        }), encoding="utf-8")
        proc = cli("rank", str(path), "--measure", "cardinal")
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: cardinal utility is defined only for crisp individuals "
            f"(all weights 0 or 1) | individual '{'v' * 40}'... "
            "(5000 characters) | alternative 'x'\n")

    def test_precision_flag(self):
        proc = cli("rank", str(SCENARIOS / "weighted_split.json"),
                   "--measure", "fuzzy", "--format", "csv", "--precision", "3")
        assert proc.returncode == 0
        assert "0.600" in proc.stdout and "0.600000" not in proc.stdout

    def test_pure_pipeline_never_imports_numpy(self):
        """Importing numpy would cost more start-up time and memory than a
        whole small run, so the pure pipeline must not touch it."""
        code = ("import sys\n"
                "sys.modules['setchoice._core._fast'] = None  # not built\n"
                "from setchoice import _core, cli\n"
                "assert not _core.HAVE_FAST\n"
                "rc = cli.main(sys.argv[1:])\n"
                "print(rc, 'numpy' in sys.modules)\n")
        proc = subprocess.run(
            [sys.executable, "-c", code, "rank", str(SCENARIOS / "crisp_pair.json"),
             "--measure", "normalized"],
            capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 False"

    def test_json_report_structure(self):
        proc = cli("evaluate", str(SCENARIOS / "crisp_pair.json"),
                   "--measure", "normalized", "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["social_profile"]["values"] == {"m": "1.000000"}
        assert payload["ranking"][0]["alternatives"] == ["m"]
        assert payload["partition"]["matched"] == ["alpha", "beta", "gamma"]


class TestUsageErrors:
    def test_unknown_measure_exits_two(self):
        proc = cli("utilities", str(SCENARIOS / "crisp_pair.json"),
                   "--measure", "jaccard")
        assert proc.returncode == 2

    def test_missing_measure_exits_two(self):
        proc = cli("evaluate", str(SCENARIOS / "crisp_pair.json"))
        assert proc.returncode == 2

    def test_bad_precision_exits_two(self):
        proc = cli("rank", str(SCENARIOS / "crisp_pair.json"),
                   "--measure", "fuzzy", "--precision", "99")
        assert proc.returncode == 2

    def test_unknown_format_exits_two(self):
        proc = cli("universes", str(SCENARIOS / "crisp_pair.json"),
                   "--format", "xml")
        assert proc.returncode == 2

    def test_every_choice_option_has_two_choices_or_more(self):
        """An option with a single choice is a constant, not a setting."""
        for name, verb in _verbs().items():
            for action in verb._actions:
                if action.choices is not None:
                    assert len(action.choices) >= 2, (name, action.dest)

    @pytest.mark.parametrize("argv", [
        ["validate", str(SCENARIOS / "crisp_pair.json"), "--precision", "3"],
        ["universes", str(SCENARIOS / "crisp_pair.json"), "--precision", "3"],
        ["utilities", str(SCENARIOS / "crisp_pair.json"), "--measure", "fuzzy",
         "--aggregator", "mean"],
        ["evaluate", str(SCENARIOS / "crisp_pair.json"), "--measure", "fuzzy",
         "--aggregator", "mean"],
        ["rank", str(SCENARIOS / "crisp_pair.json"), "--measure", "fuzzy",
         "--aggregator", "mean"],
    ], ids=["validate-precision", "universes-precision", "utilities-aggregator",
            "evaluate-aggregator", "rank-aggregator"])
    def test_an_option_the_verb_does_not_read_exits_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_readme_synopsis_lists_each_verbs_options(self):
        """The README's CLI synopsis names, per verb, exactly the options
        that verb's parser takes, so ``--help`` and the README agree."""
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## CLI\n", 1)[1]
        synopsis = section.split("```\n", 2)[1]
        documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line))
                      for line in synopsis.splitlines()
                      if line.startswith("setchoice ")}
        parsed = {name: {option for action in verb._actions
                         for option in action.option_strings} - {"-h", "--help"}
                  for name, verb in _verbs().items()}
        assert documented == parsed


def _verbs() -> dict:
    """Each verb's subparser, by name."""
    return next(action.choices for action in build_parser()._actions
                if action.dest == "command")


def test_readme_library_use_runs():
    """The README's "Library use" block runs against this checkout."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```\n", 1)[0]
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr


class TestInProcessEntryPoint:
    def test_main_returns_exit_codes(self, capsys):
        assert main(["universes", str(SCENARIOS / "partial_overlap.json")]) == 0
        out = capsys.readouterr().out
        assert "offered only (1): a" in out
        assert main(["validate", str(INVALID_DIR / "empty_universe.json")]) == 1

    def test_consecutive_calls_match_first_calls(self, capsys):
        """The parser is built once per process; each call of a sequence
        prints and returns what that call prints and returns on its own."""
        weighted = str(SCENARIOS / "weighted_split.json")
        crisp = str(SCENARIOS / "crisp_pair.json")
        invalid = str(INVALID_DIR / "duplicate_individual_id.json")
        argvs = [
            ["evaluate", weighted, "--measure", "fuzzy", "--precision", "2"],
            ["rank", crisp, "--measure", "cardinal", "--format", "csv"],
            ["validate", invalid, "--format", "json"],
            ["utilities", weighted, "--measure", "fuzzy", "--precision", "0",
             "--format", "json"],
            ["rank", crisp, "--measure", "normalized", "--precision", "19"],
            ["universes", crisp, "--format", "csv"],
            ["evaluate", crisp, "--measure", "normalized", "--precision", "18"],
            ["evaluate", crisp],
            ["rank", weighted, "--measure", "fuzzy"],
        ]

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        first = []
        for argv in argvs:
            build_parser.cache_clear()
            first.append(call(argv))
        build_parser.cache_clear()
        assert [call(argv) for argv in argvs] == first
        assert [code for code, _, _ in first] == [0, 0, 1, 0, 2, 0, 0, 2, 0]
