"""Command-line entry point for the static analyzer.

``python -m repro.analysis`` is the one way in.  Exit codes:

* ``0`` — every selected rule passed on every scanned file;
* ``1`` — at least one finding;
* ``2`` — usage error (missing path, unknown rule code).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from collections.abc import Sequence

from repro.analysis.engine import (
    Finding,
    all_rules,
    analyze_files,
    iter_python_files,
    rules_by_code,
)

__all__ = ["main", "build_parser", "run", "render_rule_list", "render_text"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-analysis",
        description=(
            "project-specific static analysis: the RPRxxx analyses over "
            "one whole-project sweep"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule registry and exit",
    )
    return parser


def render_rule_list() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code}  {rule.name}")
        lines.append(f"    {rule.description}")
    return "\n".join(lines) + "\n"


def render_text(findings: Sequence[Finding], files_scanned: int) -> str:
    """One ``path:line:col CODE message`` line per finding + summary."""
    lines = [
        f"{finding.location()} {finding.code} {finding.message}"
        for finding in findings
    ]
    scanned = f" ({files_scanned} files scanned)"
    if not findings:
        lines.append(f"repro.analysis: clean{scanned}")
    else:
        by_code = Counter(finding.code for finding in findings)
        breakdown = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_code.items())
        )
        lines.append(
            f"repro.analysis: {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} [{breakdown}]{scanned}"
        )
    return "\n".join(lines) + "\n"


def run(paths: Sequence[str], select: Sequence[str] | None = None) -> int:
    """Analyze ``paths`` and print the report; returns the exit code."""
    try:
        rules = rules_by_code(select)
    except KeyError as error:
        known = ", ".join(rule.code for rule in all_rules())
        print(
            f"error: unknown rule code {error.args[0]}; known codes: {known}",
            file=sys.stderr,
        )
        return 2
    try:
        files = list(iter_python_files(paths))
    except FileNotFoundError as error:
        print(f"error: no such path: {error}", file=sys.stderr)
        return 2
    # One whole-project pass: the interprocedural analyses see
    # cross-file flows that per-file analysis cannot.
    findings = analyze_files(files, rules=rules)
    sys.stdout.write(render_text(findings, files_scanned=len(files)))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        sys.stdout.write(render_rule_list())
        return 0
    select = args.select.split(",") if args.select else None
    return run(args.paths, select=select)
