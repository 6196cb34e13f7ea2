"""Command-line entry point for the static analyzer.

Used by both ``python -m repro.analysis`` and the ``repro-events
analyze`` subcommand.  Exit codes:

* ``0`` — every selected rule passed on every scanned file;
* ``1`` — at least one finding;
* ``2`` — usage error (missing path, unknown rule code).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from collections.abc import Sequence
from pathlib import Path
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
            "project-specific static analysis: per-file AST rules RPR1xx "
            "and the whole-project RPR2xx-RPR5xx analyses"
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
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "only analyze files changed vs --ref (plus untracked "
            "files); fast pre-commit mode — interprocedural rules see "
            "only the changed files, so cross-file findings may be "
            "missed compared to a full run"
        ),
    )
    parser.add_argument(
        "--ref",
        default="origin/main",
        metavar="GITREF",
        help="git ref --changed diffs against (default: origin/main)",
    )
    return parser


def changed_files(ref: str) -> set[Path] | None:
    """Resolved paths changed vs ``ref`` plus untracked files.

    Returns None (usage error) when git is unavailable or ``ref`` does
    not resolve — a silent empty set would read as "all clean".
    """
    commands = (
        ["git", "diff", "--name-only", "--diff-filter=d", ref],
        ["git", "ls-files", "--others", "--exclude-standard"],
    )
    changed: set[Path] = set()
    for command in commands:
        try:
            result = subprocess.run(
                command, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError) as error:
            detail = getattr(error, "stderr", "") or str(error)
            print(
                f"error: {' '.join(command)} failed: {detail.strip()}",
                file=sys.stderr,
            )
            return None
        for line in result.stdout.splitlines():
            if line.strip():
                changed.add(Path(line.strip()).resolve())
    return changed


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
    changed_vs: str | None = None,
) -> int:
    """Analyze ``paths`` and write a report; returns the exit code.

    ``changed_vs`` restricts the scan to files changed vs that git ref
    (plus untracked files) — the ``--changed`` pre-commit mode.
    """
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
    if changed_vs is not None:
        changed = changed_files(changed_vs)
        if changed is None:
            return 2
        files = [file for file in files if file.resolve() in changed]
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
        changed_vs=args.ref if args.changed else None,
    )
