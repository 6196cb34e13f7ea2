"""Rule engine: findings, suppressions, path scoping, file walking.

The engine is deliberately small, and there is one kind of rule.  An
*analysis* is a function over the whole project (symbol tables + call
graph from :mod:`repro.analysis.callgraph`) yielding :class:`Finding`
records; :func:`register_analysis` files it under every ``RPRxxx``
code it emits, one :class:`Rule` row of metadata per code.  A check
that needs nothing beyond one file at a time is simply an analysis
that iterates ``project.contexts``.

The engine parses each file once, classifies its scope, builds the
project once, runs each selected analysis at most once however many
of its codes are selected, and routes every finding by its ``code``:
one is kept when its code was selected and it lands in a ``src``-scope
file, and each survives once however many times the analysis yielded
it.  Survivors are filtered through the ``# repro: noqa[RPRxxx]``
suppressions found on the flagged lines.

Scopes
------
``src``
    Production code.  Every rule applies here and only here: they
    forbid patterns tests legitimately use (exact float comparison
    oracles, toy metric names, reference cosine reimplementations).
``test``
    Anything under a ``tests``/``benchmarks``/``examples``/``bench``
    directory, any ``conftest.py``, and ``test_*.py`` files *outside* a
    ``src`` tree — a production module named ``test_harness.py`` under
    ``src/`` must not silently opt out of src-only rules.

Suppressions
------------
A finding on line *N* is suppressed when line *N* carries a comment of
the form ``# repro: noqa[RPR105]`` (several codes may be listed,
comma-separated; case-insensitive — codes normalize to uppercase).
Text after the closing bracket is the justification; the project
convention is that every suppression carries one::

    return float(a @ b / denom)  # repro: noqa[RPR101] sparse-space oracle

Suppressions that never fire are themselves reported (code RPR100) so
stale exemptions cannot accumulate silently; a code that does not even
look like ``RPRnnn`` is reported as RPR100 *malformed* rather than
silently dropped.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # circular at runtime: callgraph imports FileContext
    from repro.analysis.callgraph import CallGraph, Project

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "register_analysis",
    "all_rules",
    "rules_by_code",
    "scope_for_path",
    "scan_suppressions",
    "analyze_source",
    "analyze_files",
    "iter_python_files",
    "UNUSED_SUPPRESSION_CODE",
]

UNUSED_SUPPRESSION_CODE = "RPR100"

_TEST_DIRS = frozenset({"tests", "benchmarks", "examples", "bench"})
_NOQA_PATTERN = re.compile(
    r"#\s*repro:\s*noqa\[(?P<codes>[^\]]*)\]", re.IGNORECASE
)
_CODE_PATTERN = re.compile(r"^RPR\d{3}$")


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    @classmethod
    def at(cls, path: str, node: ast.AST, code: str, message: str) -> Finding:
        """The one constructor rules use: a finding located at ``node``."""
        return cls(
            path=path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        )

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col + 1}"


@dataclass
class FileContext:
    """Everything a rule needs about one parsed file."""

    path: str
    source: str
    tree: ast.AST
    scope: str
    lines: Sequence[str] = field(default_factory=list)

    @property
    def posix_path(self) -> str:
        return Path(self.path).as_posix()

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the file (``ast.walk`` order), walked once."""
        return list(ast.walk(self.tree))


Analysis = Callable[["Project", "CallGraph"], Iterator[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered code: its metadata and the analysis that emits it."""

    code: str
    name: str
    description: str
    analysis: Analysis


_REGISTRY: dict[str, Rule] = {}


def register_analysis(
    *rows: tuple[str, str, str],
) -> Callable[[Analysis], Analysis]:
    """Register an analysis for the codes it emits.

    ``rows`` is the metadata table — one ``(code, name, description)``
    per code.  The analysis is one function yielding findings for all
    of them; selecting any subset of the codes runs it once.
    Registration is explicit and import-order independent.
    """

    def decorate(analysis: Analysis) -> Analysis:
        for code, name, description in rows:
            if not _CODE_PATTERN.match(code):
                raise ValueError(f"invalid rule code {code!r}")
            if code in _REGISTRY:
                raise ValueError(f"duplicate rule code {code}")
            _REGISTRY[code] = Rule(code, name, description, analysis)
        return analysis

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, ordered by code."""
    _ensure_rules_loaded()
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def rules_by_code(select: Iterable[str] | None = None) -> list[Rule]:
    """Rules filtered to ``select`` codes (all rules when ``None``).

    Raises ``KeyError`` naming the first unknown code — the CLI maps
    this to a usage error (exit 2).
    """
    rules = all_rules()
    if select is None:
        return rules
    wanted = [code.strip().upper() for code in select if code.strip()]
    known = {rule.code for rule in rules}
    for code in wanted:
        if code not in known:
            raise KeyError(code)
    chosen = set(wanted)
    return [rule for rule in rules if rule.code in chosen]


def _ensure_rules_loaded() -> None:
    # Importing the rule modules populates the registry; local import
    # breaks the engine <-> rules cycle.
    from repro.analysis import (  # noqa: F401
        asyncrules,
        determinism,
        locks,
        routestatus,
        rules,
    )


def scope_for_path(path: str | Path) -> str:
    """Classify a file as production (``src``) or test-ish (``test``).

    Directory membership (``tests``/``benchmarks``/``examples``/
    ``bench``) always classifies as test; the ``test_*.py`` filename
    heuristic applies only *outside* a ``src`` tree, so a production
    module named ``test_harness.py`` cannot opt out of src-only rules
    by name.
    ``conftest.py`` is pytest plumbing wherever it lives.
    """
    parts = Path(path).parts
    name = Path(path).name
    if any(part in _TEST_DIRS for part in parts):
        return "test"
    if name == "conftest.py":
        return "test"
    if "src" not in parts and name.startswith("test_"):
        return "test"
    return "src"


def scan_suppressions(
    source: str,
) -> tuple[dict[int, set[str]], list[tuple[int, int, str]]]:
    """Parse ``# repro: noqa[...]`` comments in ``source``.

    Returns ``(suppressions, malformed)``: a map of target line number
    → set of (uppercased) valid codes, and a list of ``(line, col,
    text)`` records for listed codes that do not match ``RPRnnn`` —
    those are reported as RPR100 instead of being silently dropped.

    Only real ``#`` comments count — a noqa spelled inside a string or
    docstring (e.g. documentation examples) suppresses nothing.  An
    *inline* noqa suppresses findings on its own line; a noqa on a
    comment-only line suppresses findings on the next line (for
    expressions too long to carry the justification inline).
    """
    suppressions: dict[int, set[str]] = {}
    malformed: list[tuple[int, int, str]] = []
    source_lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.start[1], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, SyntaxError):
        # Unparseable tail; fall back to no suppressions (the analyzer
        # reports the syntax error separately).
        return suppressions, malformed
    for line_number, column, comment in comments:
        match = _NOQA_PATTERN.search(comment)
        if match is None:
            continue
        codes: set[str] = set()
        for raw_code in match.group("codes").split(","):
            code = raw_code.strip().upper()
            if not code:
                continue
            if _CODE_PATTERN.match(code):
                codes.add(code)
            else:
                malformed.append((line_number, column, raw_code.strip()))
        if not codes:
            continue
        line = source_lines[line_number - 1]
        standalone = not line[:column].strip()
        target = line_number + 1 if standalone else line_number
        suppressions.setdefault(target, set()).update(codes)
    return suppressions, malformed


def _parse(
    source: str, path: str, scope: str | None = None
) -> FileContext | Finding:
    """Parse one file; a syntax error becomes a single ``RPR999``
    finding rather than an exception, so one unparseable file cannot
    abort a repository sweep."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return Finding(
            path=path,
            line=error.lineno or 1,
            col=(error.offset or 1) - 1,
            code="RPR999",
            message=f"syntax error: {error.msg}",
        )
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        scope=scope if scope is not None else scope_for_path(path),
        lines=source.splitlines(),
    )


def _apply_suppressions(
    context: FileContext,
    raw: Iterable[Finding],
    checked_codes: set[str],
) -> list[Finding]:
    """Filter ``raw`` through the file's noqa comments.

    Emits RPR100 for stale suppressions of ``checked_codes`` and for
    malformed suppression codes.
    """
    suppressions, malformed = scan_suppressions(context.source)
    used: dict[int, set[str]] = {}
    survivors: list[Finding] = []
    for finding in raw:
        allowed = suppressions.get(finding.line, set())
        if finding.code in allowed:
            used.setdefault(finding.line, set()).add(finding.code)
        else:
            survivors.append(finding)

    def rpr100(line: int, col: int, message: str) -> None:
        survivors.append(
            Finding(context.path, line, col, UNUSED_SUPPRESSION_CODE, message)
        )

    for line_number, codes in sorted(suppressions.items()):
        for code in sorted(codes):
            if code in used.get(line_number, set()):
                continue
            if code not in checked_codes:
                # The rule didn't run (deselected or out of scope);
                # the suppression may be live under a full run.
                continue
            rpr100(
                line_number,
                0,
                f"unused suppression: no {code} finding on this "
                "line (remove the stale noqa)",
            )
    for line_number, column, text in malformed:
        rpr100(
            line_number,
            column,
            f"malformed suppression code {text!r}: codes must "
            "match RPRnnn (e.g. RPR101)",
        )
    return survivors


def _analyze(contexts: Sequence[FileContext], rules: Sequence[Rule]) -> list[Finding]:
    """The one driver: each selected analysis once over the project,
    findings routed by code and scope and kept once each, then each
    file's suppressions."""
    from repro.analysis.callgraph import build_project

    project, graph = build_project(contexts)
    scope_by_path = {context.path: context.scope for context in contexts}
    selected = {rule.code for rule in rules}
    raw_by_path: dict[str, set[Finding]] = {path: set() for path in scope_by_path}
    for analysis in dict.fromkeys(rule.analysis for rule in rules):
        for finding in analysis(project, graph):
            if finding.code in selected and scope_by_path[finding.path] == "src":
                raw_by_path[finding.path].add(finding)
    findings: list[Finding] = []
    for context in contexts:
        checked = selected if context.scope == "src" else set()
        findings.extend(
            _apply_suppressions(context, raw_by_path[context.path], checked)
        )
    return findings


def analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule] | None = None,
    scope: str | None = None,
) -> list[Finding]:
    """Run ``rules`` over one source string.

    Returns surviving findings sorted by location (a syntax error is a
    single ``RPR999`` finding).

    The project is this one file — cross-function flows *within* it
    are visible, cross-file flows are not (use :func:`analyze_files`
    for whole-project analysis).
    """
    parsed = _parse(source, path, scope)
    if isinstance(parsed, Finding):
        return [parsed]
    if rules is None:
        rules = all_rules()
    return sorted(_analyze([parsed], rules))


def iter_python_files(paths: Sequence[str | Path]) -> Iterator[Path]:
    """Yield ``*.py`` files under ``paths`` (files or directories).

    Hidden directories and ``__pycache__`` are skipped.  Overlapping
    arguments (``analyze src src/repro``) are deduplicated by resolved
    path — each file is yielded at most once, under the first argument
    that covers it.  A path that does not exist raises
    ``FileNotFoundError`` — the CLI maps it to a usage error.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise FileNotFoundError(str(path))
        if path.is_file():
            if path.suffix == ".py" and path.resolve() not in seen:
                seen.add(path.resolve())
                yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            parts = candidate.parts
            if any(part == "__pycache__" or part.startswith(".") for part in parts):
                continue
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def analyze_files(
    files: Sequence[Path], rules: Sequence[Rule] | None = None
) -> list[Finding]:
    """Analyze pre-collected files as one project; sorted findings.

    Every analysis runs once over every file that parsed (so taint,
    lock requirements and route statuses propagate across modules).
    """
    if rules is None:
        rules = all_rules()
    parsed = [
        _parse(file_path.read_text(encoding="utf-8"), str(file_path))
        for file_path in files
    ]
    findings = [item for item in parsed if isinstance(item, Finding)]
    contexts = [item for item in parsed if isinstance(item, FileContext)]
    findings.extend(_analyze(contexts, rules))
    return sorted(findings)
