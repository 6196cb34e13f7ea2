"""Command-line entry point for the static analyzer.

``python -m repro.analysis`` is the one way in.  Exit codes:

* ``0`` — every selected rule passed on every scanned file;
* ``1`` — at least one finding;
* ``2`` — usage error (missing path, unknown rule code).
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from typing import IO

from repro.analysis.engine import (
    all_rules,
    analyze_files,
    iter_python_files,
    rules_by_code,
)
from repro.analysis.reporters import render_json, render_sarif, render_text

__all__ = ["main", "build_parser", "run", "render_rule_list"]


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
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--no-unused-noqa",
        action="store_true",
        help="do not report stale # repro: noqa suppressions (RPR100)",
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
        scopes = ",".join(sorted(rule.scopes))
        lines.append(f"{rule.code}  [{scopes}]  {rule.name}")
        lines.append(f"    {rule.description}")
    return "\n".join(lines) + "\n"


def run(
    paths: Sequence[str],
    output_format: str = "text",
    select: Sequence[str] | None = None,
    report_unused_suppressions: bool = True,
    stream: IO[str] | None = None,
) -> int:
    """Analyze ``paths`` and write a report; returns the exit code."""
    stream = stream if stream is not None else sys.stdout
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
    findings = analyze_files(
        files,
        rules=rules,
        report_unused_suppressions=report_unused_suppressions,
    )
    renderers = {
        "json": render_json,
        "sarif": render_sarif,
        "text": render_text,
    }
    stream.write(renderers[output_format](findings, files_scanned=len(files)))
    return 1 if findings else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        sys.stdout.write(render_rule_list())
        return 0
    select = args.select.split(",") if args.select else None
    return run(
        args.paths,
        output_format=args.format,
        select=select,
        report_unused_suppressions=not args.no_unused_noqa,
    )
