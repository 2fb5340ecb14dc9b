"""The repro-lint CLI: output formats, exit codes, rule listing."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).parents[2]


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        assert main([str(FIXTURES / "core" / "clean.py")]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, capsys):
        assert main([str(FIXTURES / "rl003_bad.py")]) == 1
        out = capsys.readouterr().out
        assert "RL003" in out
        assert "1 finding" in out

    def test_bad_path_exits_two(self, capsys):
        assert main([str(FIXTURES / "does_not_exist.quux")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_select_code_exits_two(self, capsys):
        assert main(["--select", "RL999", str(FIXTURES)]) == 2
        assert "RL999" in capsys.readouterr().err


class TestOutput:
    def test_human_format_has_location_prefix(self, capsys):
        main([str(FIXTURES / "rl004_bad.py")])
        line = capsys.readouterr().out.splitlines()[0]
        path, lineno, col, rest = line.split(":", 3)
        assert path.endswith("rl004_bad.py")
        assert int(lineno) > 0 and int(col) >= 0
        assert rest.strip().startswith("RL004")

    def test_json_format_round_trips(self, capsys):
        main(["--format", "json", str(FIXTURES / "rl006_bad.py")])
        payload = json.loads(capsys.readouterr().out)
        assert [f["code"] for f in payload] == ["RL006"]
        assert set(payload[0]) == {"path", "line", "col", "code", "message"}

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL004", "RL007", "RL101", "RL103"):
            assert code in out

    def test_select_flag(self, capsys):
        assert main(["--select", "RL006", str(FIXTURES)]) == 1
        codes = {line.split()[1] for line in
                 capsys.readouterr().out.splitlines() if ": RL" in line}
        assert codes == {"RL006"}


class TestSarif:
    def test_sarif_log_shape(self, capsys):
        assert main(["--format", "sarif", str(FIXTURES / "rl006_bad.py")]) == 1
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (result,) = run["results"]
        assert result["ruleId"] == "RL006"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1

    def test_sarif_catalogue_covers_all_rules(self, capsys):
        assert main(["--format", "sarif",
                     str(FIXTURES / "core" / "clean.py")]) == 0
        log = json.loads(capsys.readouterr().out)
        ids = [r["id"] for r in log["runs"][0]["tool"]["driver"]["rules"]]
        assert ids == sorted(ids)
        for code in ("RL001", "RL007", "RL101", "RL103"):
            assert code in ids

    def test_sarif_result_links_rule_index(self, capsys):
        main(["--format", "sarif", str(FIXTURES / "rl003_bad.py")])
        log = json.loads(capsys.readouterr().out)
        run = log["runs"][0]
        (result,) = run["results"]
        rules = run["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == result["ruleId"]

    def test_project_rule_finding_serializes(self, capsys):
        assert main(["--format", "sarif",
                     str(FIXTURES / "rl103_bad.py")]) == 1
        log = json.loads(capsys.readouterr().out)
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "RL103"


class TestOutputFileAndStats:
    def test_output_writes_file_and_keeps_exit_code(self, tmp_path, capsys):
        report = tmp_path / "report.sarif"
        code = main(["--format", "sarif", "--output", str(report),
                     str(FIXTURES / "rl004_bad.py")])
        assert code == 1
        assert capsys.readouterr().out == ""
        log = json.loads(report.read_text())
        assert log["runs"][0]["results"][0]["ruleId"] == "RL004"

    def test_output_on_clean_run_writes_empty_report(self, tmp_path):
        report = tmp_path / "report.json"
        assert main(["--format", "json", "--output", str(report),
                     str(FIXTURES / "core" / "clean.py")]) == 0
        assert json.loads(report.read_text()) == []

    def test_stats_histogram_on_stderr(self, capsys):
        assert main(["--stats", str(FIXTURES / "rl003_bad.py")]) == 1
        err = capsys.readouterr().err
        assert "stats: total=1" in err
        assert "stats: RL003=1" in err
        assert "stats: RL101=0" in err


def test_module_entry_point_runs():
    """``python -m repro.analysis`` is the documented invocation."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis",
         str(FIXTURES / "core" / "clean.py")],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr


def test_findings_do_not_depend_on_the_hash_seed():
    """One call carries a volatile value into both ``spec_key`` and
    ``canonicalize_spec``: which sink the RL101 finding names must not
    follow set iteration order, which ``PYTHONHASHSEED`` moves (seeds 0
    and 1 named different sinks while the taint engine iterated a
    summary's sinks in hash order)."""
    outputs = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--select", "RL101",
             str(FIXTURES / "rl101_two_sinks")],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin",
                 "PYTHONHASHSEED": seed})
        assert proc.returncode == 1, proc.stderr
        assert "RL101" in proc.stdout
        outputs.add(proc.stdout)
    assert len(outputs) == 1
