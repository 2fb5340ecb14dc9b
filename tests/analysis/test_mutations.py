"""Seeded-mutation proofs: each RL100-series rule catches the regression
it was built for, on the *real* source tree.

A pristine copy of ``src/repro`` goes to a temp directory, one targeted
regression is injected by text substitution (the anchor must exist —
a failed substitution fails the test rather than silently proving
nothing), and the linter must flag exactly the mutated construct.  The
pristine copy doubles as the negative control.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis import lint_paths

SRC = Path(__file__).parents[2] / "src" / "repro"

PROJECT_CODES = frozenset({"RL101", "RL103"})


@pytest.fixture()
def tree(tmp_path):
    target = tmp_path / "repro"
    shutil.copytree(SRC, target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return target


def mutate(tree: Path, relpath: str, anchor: str, replacement: str) -> None:
    path = tree / relpath
    source = path.read_text()
    assert anchor in source, f"mutation anchor missing in {relpath}: {anchor}"
    path.write_text(source.replace(anchor, replacement, 1))


def project_findings(tree: Path, code: str):
    return [f for f in lint_paths([tree], select=frozenset({code}))]


def test_pristine_tree_is_clean(tree):
    findings = lint_paths([tree], select=PROJECT_CODES)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_env_read_in_spec_key_triggers_rl101(tree):
    """The canonical cache-poisoning bug: salting the key hash with an
    environment variable makes cache identity machine-dependent."""
    mutate(tree, "harness/runner.py",
           'canonical = json.dumps(\n'
           '        {"cache_version": CACHE_VERSION, '
           '"spec": canonicalize_spec(spec)},',
           'canonical = json.dumps(\n'
           '        {"cache_version": os.environ.get("CACHE_VERSION", '
           'str(CACHE_VERSION)), "spec": canonicalize_spec(spec)},')
    findings = project_findings(tree, "RL101")
    assert findings, "RL101 did not fire on the env-salted key"
    # The hermetic-body check flags the read inside spec_key itself;
    # downstream flow hits (the poisoned key circulating back through
    # run_grid) may legitimately accompany it: inside runner.py, and where
    # Fig. 6 keys its decentralized arms by delays derived from the
    # baseline grid's rows.
    assert any("inside cache-key function spec_key" in f.message
               and "os.environ" in f.message for f in findings), \
        "\n".join(f.format() for f in findings)
    assert all(f.path.endswith("harness/runner.py")
               or (f.path.endswith("harness/fig6.py")
                   and "inside run_node_jobs()" in f.message)
               for f in findings), "\n".join(f.format() for f in findings)


def test_volatile_flow_into_key_call_triggers_rl101(tree):
    """Flow variant: the spec itself is decorated with volatile data
    upstream of the ``spec_key`` call site in ``run_grid``."""
    mutate(tree, "harness/runner.py",
           "    specs = list(specs)\n",
           "    specs = [dict(s, host=os.environ.get('HOST', '')) "
           "for s in specs]\n")
    findings = project_findings(tree, "RL101")
    assert findings, "RL101 did not fire on the tainted-spec flow"
    assert any("os.environ" in f.message for f in findings)


def test_unguarded_module_dict_triggers_rl103(tree):
    """A lowercase module-level mutable container is shared per-process
    state and must be zone-annotated or constant-styled."""
    mutate(tree, "harness/runner.py",
           "CACHE_VERSION = 1",
           "CACHE_VERSION = 1\n_seen_keys: dict[str, str] = {}")
    findings = project_findings(tree, "RL103")
    assert len(findings) == 1, "\n".join(f.format() for f in findings)
    assert "_seen_keys" in findings[0].message


def test_zone_removal_resurfaces_rl103(tree):
    """The ``zone=init`` markers are load-bearing: stripping the one on
    ``set_default_backend`` re-exposes the ambient rebind."""
    mutate(tree, "nn/backends/__init__.py",
           "def set_default_backend(name: str) -> None:"
           "  # repro-lint: zone=init",
           "def set_default_backend(name: str) -> None:")
    findings = project_findings(tree, "RL103")
    assert len(findings) == 1, "\n".join(f.format() for f in findings)
    assert "_default_backend" in findings[0].message
