"""Command-line front end: ``repro-lint`` / ``python -m repro.analysis``.

Exit codes follow the usual linter contract:

- ``0`` — no findings
- ``1`` — findings reported
- ``2`` — usage error (bad path, unknown rule code)

``--format sarif`` emits a SARIF 2.1.0 log for CI code scanning;
``--output FILE`` writes the report there instead of stdout (exit codes
are unchanged — CI can upload the artifact *and* gate on the status).
``--stats`` appends a per-rule findings histogram to stderr, for trend
tracking without parsing the report itself.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

from .engine import lint_paths
from .finding import Finding
from .rules import ALL_RULES, PROJECT_RULES
from .sarif import to_sarif


def _parse_codes(raw: list[str] | None) -> frozenset[str] | None:
    if not raw:
        return None
    codes: set[str] = set()
    for chunk in raw:
        codes.update(code.strip().upper() for code in chunk.split(",") if code.strip())
    return frozenset(codes)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism & contract static analysis for the repro "
                    "codebase (per-file rules RL001-RL007, whole-program "
                    "dataflow rules RL101, RL103).")
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--format", choices=("human", "json", "sarif"),
                        default="human",
                        help="output format (default: human)")
    parser.add_argument("--output", metavar="FILE",
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--select", action="append", metavar="CODES",
                        help="comma-separated rule codes to run exclusively")
    parser.add_argument("--ignore", action="append", metavar="CODES",
                        help="comma-separated rule codes to skip")
    parser.add_argument("--stats", action="store_true",
                        help="print a per-rule findings histogram to stderr")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    return parser


def _render(findings: list[Finding], fmt: str) -> str:
    if fmt == "json":
        return json.dumps([f.to_json() for f in findings], indent=2)
    if fmt == "sarif":
        return json.dumps(to_sarif(findings), indent=2)
    lines = [finding.format() for finding in findings]
    if findings:
        plural = "s" if len(findings) != 1 else ""
        lines.append("")
        lines.append(f"repro-lint: {len(findings)} finding{plural}")
    return "\n".join(lines)


def _print_stats(findings: list[Finding]) -> None:
    counts = Counter(f.code for f in findings)
    print(f"repro-lint: stats: total={len(findings)}", file=sys.stderr)
    for rule in sorted(ALL_RULES + PROJECT_RULES, key=lambda r: r.code):
        print(f"repro-lint: stats: {rule.code}={counts.get(rule.code, 0)}",
              file=sys.stderr)
    leftover = set(counts) - {r.code for r in ALL_RULES + PROJECT_RULES}
    for code in sorted(leftover):                    # RL000 parse errors
        print(f"repro-lint: stats: {code}={counts[code]}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in sorted(ALL_RULES + PROJECT_RULES, key=lambda r: r.code):
            print(f"{rule.code}  {rule.summary}")
        return 0

    try:
        findings = lint_paths(args.paths,
                              select=_parse_codes(args.select),
                              ignore=_parse_codes(args.ignore))
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2

    report = _render(findings, args.format)
    if args.output:
        Path(args.output).write_text(report + "\n", encoding="utf-8")
    elif report:
        print(report)

    if args.stats:
        _print_stats(findings)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
