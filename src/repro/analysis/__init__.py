"""repro-lint: determinism & contract static analysis for this repo.

The paper's claims only reproduce if every run is bit-deterministic given
a spec, and the ``sha256(spec)`` disk cache in :mod:`repro.harness.runner`
silently serves stale results if any hidden input sneaks into a cell.
This package enforces those invariants mechanically.

Per-file AST rules:

========  ============================================================
RL001     unseeded/legacy/arithmetic-derived NumPy RNG seeding
RL002     wall-clock & environment nondeterminism in simulator zones
RL003     float ``==`` / ``!=`` comparisons outside tests
RL004     mutable default arguments
RL005     non-JSON-serializable ``*Spec``/``*Config`` dataclass fields
RL006     public functions missing type annotations
RL007     bare/swallowed exceptions in simulator hot paths
========  ============================================================

Whole-program dataflow rules (the RL100 series, built on
:mod:`repro.analysis.dataflow` — project symbol table, call graph,
def-use chains, inter-procedural taint):

========  ============================================================
RL101     volatile data (env, clock, ids, ambient backend/telemetry
          state) flowing into ``spec_key``/cache-key computation
RL103     shared mutable module globals, ambient state writes outside
          ``zone=init`` functions, cross-class attribute writes
========  ============================================================

Run via ``repro-lint [paths]`` or ``python -m repro.analysis [paths]``.
Suppress a single line with ``# repro-lint: disable=RLxxx``; sanction a
deliberate ambient-state zone with ``# repro-lint: zone=<name>`` (on a
``def`` line, the zone covers the whole function).  ``--format sarif``
emits SARIF 2.1.0 for CI code scanning.
"""

from __future__ import annotations

from .engine import iter_python_files, lint_file, lint_paths
from .finding import Finding
from .rules import (ALL_RULES, PROJECT_RULES, RULES_BY_CODE, ProjectRule,
                    Rule, get_rules)

__all__ = [
    "ALL_RULES",
    "Finding",
    "PROJECT_RULES",
    "ProjectRule",
    "RULES_BY_CODE",
    "Rule",
    "get_rules",
    "iter_python_files",
    "lint_file",
    "lint_paths",
]
