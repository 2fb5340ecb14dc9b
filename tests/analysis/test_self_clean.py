"""The repo must pass its own determinism linter.

This is the acceptance gate: ``repro-lint src/repro`` exits 0 with the
full rule set — the per-file RL001-RL007 rules *and* the whole-program
dataflow rules RL101 and RL103 (cache-key purity, concurrency hazards).
Any new code that reintroduces unseeded RNGs, wall-clock reads in
simulator hot paths, volatile data flowing into ``spec_key``, or
unguarded ambient state fails tier-1 here — not just in the CI lint
job.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import lint_paths

REPO = Path(__file__).parents[2]
SRC = REPO / "src" / "repro"
TESTS = REPO / "tests"
BENCHMARKS = REPO / "benchmarks"
EXAMPLES = REPO / "examples"

#: Deliberately-bad lint inputs; every finding under here is the point.
LINT_FIXTURES = TESTS / "analysis" / "fixtures"

#: Whole-program rule codes (need the full tree in one lint call).
PROJECT_CODES = frozenset({"RL101", "RL103"})


def _excluding_fixtures(findings):
    return [f for f in findings
            if LINT_FIXTURES not in Path(f.path).resolve().parents]


def test_source_tree_exists():
    assert (SRC / "__init__.py").is_file()


def test_repro_lint_clean_on_repo():
    findings = lint_paths([SRC])
    assert findings == [], "repro-lint findings on src/repro:\n" + "\n".join(
        f.format() for f in findings)


@pytest.mark.parametrize("tree", [BENCHMARKS, EXAMPLES],
                         ids=["benchmarks", "examples"])
def test_support_trees_are_clean(tree):
    """benchmarks/ and examples/ are user-facing code; they follow the
    same determinism discipline as src/repro (full rule set)."""
    findings = lint_paths([tree])
    assert findings == [], f"repro-lint findings on {tree.name}/:\n" + \
        "\n".join(f.format() for f in findings)


def test_tests_tree_has_no_rl001_findings():
    """The tests must practice the seeding discipline they enforce: no
    unseeded, legacy, or arithmetic-derived RNG streams anywhere in the
    tests tree (outside the linter's own bad-input fixtures)."""
    findings = _excluding_fixtures(
        lint_paths([TESTS], select=frozenset({"RL001"})))
    assert findings == [], "RL001 findings on tests/:\n" + "\n".join(
        f.format() for f in findings)


def test_project_rules_clean_across_all_roots():
    """RL101 and RL103 see the whole program at once: src, tests,
    benchmarks, and examples linted in a single invocation so
    cross-tree flows (e.g. a test mutating ``repro.nn.backends`` state)
    are visible.  Everything outside the bad-input fixtures must be
    clean — ambient state is either fixed or carries an explicit
    ``zone=`` annotation."""
    findings = _excluding_fixtures(
        lint_paths([SRC, TESTS, BENCHMARKS, EXAMPLES],
                   select=PROJECT_CODES))
    assert findings == [], "RL101/RL103 findings:\n" + "\n".join(
        f.format() for f in findings)
