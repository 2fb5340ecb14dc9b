"""Each rule RL001-RL007, RL101 and RL103: one positive fixture (exactly
one finding, the right code) and the shared clean fixture as the
negative case."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, PROJECT_RULES, lint_paths

FIXTURES = Path(__file__).parent / "fixtures"

# fixture file (or directory, for project rules) -> the single expected
# finding code
POSITIVE_FIXTURES = {
    "rl001_bad.py": "RL001",
    "rl001_derived_seed.py": "RL001",
    "rl001_legacy.py": "RL001",
    "rl001_seed_key.py": "RL001",
    "core/rl002_bad.py": "RL002",
    "rl003_bad.py": "RL003",
    "rl004_bad.py": "RL004",
    "rl005_bad.py": "RL005",
    "rl006_bad.py": "RL006",
    "memsim/rl007_bad.py": "RL007",
    "rl101_bad.py": "RL101",
    "rl103_bad.py": "RL103",
}


@pytest.mark.parametrize("relpath,code", sorted(POSITIVE_FIXTURES.items()))
def test_positive_fixture_triggers_exactly_once(relpath, code):
    findings = lint_paths([FIXTURES / relpath])
    assert [f.code for f in findings] == [code], (
        f"{relpath} should trigger {code} exactly once, got "
        f"{[(f.code, f.line, f.message) for f in findings]}")


def test_every_rule_has_a_positive_fixture():
    covered = set(POSITIVE_FIXTURES.values())
    assert covered == {rule.code for rule in ALL_RULES + PROJECT_RULES}


def test_clean_fixture_has_no_findings():
    findings = lint_paths([FIXTURES / "core" / "clean.py"])
    assert findings == []


def test_findings_carry_location_and_message():
    (finding,) = lint_paths([FIXTURES / "rl003_bad.py"])
    assert finding.line > 1
    assert finding.col >= 0
    assert "float equality" in finding.message
    assert str(FIXTURES / "rl003_bad.py") == finding.path


class TestDerivedSeeds:
    """RL001 follows an arithmetic-derived seed to where it seeds a
    stream: ``default_rng``, a ``seed``-named keyword, a ``seed`` key."""

    def _codes(self, tmp_path, body: str) -> list[str]:
        target = tmp_path / "mod.py"
        target.write_text(body)
        return [f.code for f in lint_paths([target])]

    def test_seed_keyword_fires(self, tmp_path):
        assert self._codes(tmp_path, (
            "def _spec(make, seed: int, tenant: int):\n"
            "    return make(n=10, seed=seed + tenant)\n")) == ["RL001"]

    def test_spawned_and_plain_seeds_pass(self, tmp_path):
        assert self._codes(tmp_path, (
            "from repro.seeding import spawn_seeds\n"
            "\n"
            "\n"
            "def _jobs(make, seed: int, n: int, width: int):\n"
            "    seeds = spawn_seeds(seed, n)\n"
            "    return [make(seed=seeds[t], width=width + 1,\n"
            "                 spec={'seed': seed, 'n': n + t})\n"
            "            for t in range(n)]\n")) == []


class TestZoneGates:
    def test_rl002_silent_outside_sim_zones(self, tmp_path):
        source = FIXTURES / "core" / "rl002_bad.py"
        outside = tmp_path / "harness" / "rl002_bad.py"
        outside.parent.mkdir()
        outside.write_text(source.read_text())
        assert lint_paths([outside]) == []

    def test_rl007_silent_outside_sim_zones(self, tmp_path):
        source = FIXTURES / "memsim" / "rl007_bad.py"
        outside = tmp_path / "harness" / "rl007_bad.py"
        outside.parent.mkdir()
        outside.write_text(source.read_text())
        assert lint_paths([outside]) == []

    def test_rl003_silent_in_test_files(self, tmp_path):
        target = tmp_path / "test_something.py"
        target.write_text("def _f(x: float) -> bool:\n    return x == 0.1\n")
        assert lint_paths([target]) == []


class TestSuppression:
    def test_disable_comment_silences_one_code(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def _f(x: float) -> bool:\n"
            "    return x == 0.1  # repro-lint: disable=RL003\n")
        assert lint_paths([target]) == []

    def test_disable_all(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def _f(x: float) -> bool:\n"
            "    return x == 0.1  # repro-lint: disable=all\n")
        assert lint_paths([target]) == []

    def test_wrong_code_does_not_suppress(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "def _f(x: float) -> bool:\n"
            "    return x == 0.1  # repro-lint: disable=RL001\n")
        assert [f.code for f in lint_paths([target])] == ["RL003"]

    def test_suppression_is_line_scoped(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "# repro-lint: disable=RL003\n"
            "def _f(x: float) -> bool:\n"
            "    return x == 0.1\n")
        assert [f.code for f in lint_paths([target])] == ["RL003"]


class TestZoneDirective:
    def test_zone_on_declaration_line_silences_rl103(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "_registry: dict[str, int] = {}  # repro-lint: zone=init\n")
        assert lint_paths([target]) == []

    def test_zone_on_def_line_covers_whole_function(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "_state = 'a'\n"
            "\n"
            "\n"
            "def _configure(value: str) -> None:  # repro-lint: zone=init\n"
            "    global _state\n"
            "    _state = value\n")
        assert lint_paths([target]) == []

    def test_unzoned_global_rebind_fires(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "_state = 'a'\n"
            "\n"
            "\n"
            "def _configure(value: str) -> None:\n"
            "    global _state\n"
            "    _state = value\n")
        assert [f.code for f in lint_paths([target])] == ["RL103"]

    def test_disable_comment_silences_project_findings_too(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text(
            "_registry: dict[str, int] = {}  # repro-lint: disable=RL103\n")
        assert lint_paths([target]) == []

    def test_constant_styled_mutable_global_is_exempt(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("_FACTORIES: dict[str, int] = {}\n")
        assert lint_paths([target]) == []


class TestSelectIgnore:
    def test_select_runs_only_named_rules(self):
        findings = lint_paths([FIXTURES], select=frozenset({"RL004"}))
        assert {f.code for f in findings} == {"RL004"}

    def test_ignore_drops_named_rules(self):
        findings = lint_paths([FIXTURES], ignore=frozenset({"RL001"}))
        assert "RL001" not in {f.code for f in findings}

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="RL999"):
            lint_paths([FIXTURES], select=frozenset({"RL999"}))


def test_syntax_error_becomes_rl000(tmp_path):
    target = tmp_path / "broken.py"
    target.write_text("def f(:\n")
    (finding,) = lint_paths([target])
    assert finding.code == "RL000"
    assert "could not parse" in finding.message


def test_findings_sorted_deterministically():
    first = lint_paths([FIXTURES])
    second = lint_paths([FIXTURES])
    assert first == second
    assert first == sorted(first)
