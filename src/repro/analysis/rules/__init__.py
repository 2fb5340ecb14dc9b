"""Rule registry for repro-lint.

``ALL_RULES`` is the canonical ordered tuple of per-file rules and
``PROJECT_RULES`` the whole-program (RL100-series) ones; ``get_rules``
applies ``--select`` / ``--ignore`` filtering across both and rejects
unknown codes loudly (a typo'd ``--select RL0O1`` silently linting
nothing would be its own reproducibility bug).
"""

from __future__ import annotations

from .base import ProjectRule, Rule
from .rl001_rng import SeededRngRule
from .rl002_wallclock import WallClockRule
from .rl003_floatcmp import FloatEqualityRule
from .rl004_mutable_defaults import MutableDefaultRule
from .rl005_spec_fields import SpecFieldRule
from .rl006_annotations import AnnotationRule
from .rl007_exceptions import SwallowedExceptionRule
from .rl101_cachekey_purity import CacheKeyPurityRule
from .rl103_concurrency import ConcurrencyHazardRule

ALL_RULES: tuple[type[Rule], ...] = (
    SeededRngRule,
    WallClockRule,
    FloatEqualityRule,
    MutableDefaultRule,
    SpecFieldRule,
    AnnotationRule,
    SwallowedExceptionRule,
)

PROJECT_RULES: tuple[type[ProjectRule], ...] = (
    CacheKeyPurityRule,
    ConcurrencyHazardRule,
)

RULES_BY_CODE: dict[str, type[Rule] | type[ProjectRule]] = {
    rule.code: rule for rule in ALL_RULES + PROJECT_RULES
}


def get_rules(
    select: frozenset[str] | None = None,
    ignore: frozenset[str] | None = None,
) -> tuple[tuple[type[Rule], ...], tuple[type[ProjectRule], ...]]:
    """Resolve the active (file rules, project rules) pair.

    Raises ``ValueError`` on unknown codes.
    """
    for codes, flag in ((select, "--select"), (ignore, "--ignore")):
        if codes:
            unknown = sorted(codes - RULES_BY_CODE.keys())
            if unknown:
                raise ValueError(f"unknown rule code(s) for {flag}: "
                                 f"{', '.join(unknown)}")

    def active(code: str) -> bool:
        if select and code not in select:
            return False
        if ignore and code in ignore:
            return False
        return True

    return (tuple(rule for rule in ALL_RULES if active(rule.code)),
            tuple(rule for rule in PROJECT_RULES if active(rule.code)))


__all__ = ["ALL_RULES", "PROJECT_RULES", "RULES_BY_CODE", "ProjectRule",
           "Rule", "get_rules"]
