"""Rule engine: findings, suppressions, path scoping, file walking.

The engine is deliberately small: a rule is a class with a ``code``
(``RPRxxx``), a ``scopes`` set saying where it applies, and a
``check(context)`` generator yielding :class:`Finding` records.  The
engine parses each file once, classifies its scope, runs every
selected rule whose scope matches, and filters findings through the
``# repro: noqa[RPRxxx]`` suppressions found on the flagged lines.

Two rule families share the registry:

* :class:`Rule` — per-file: sees one :class:`FileContext` at a time.
* :class:`ProjectRule` — interprocedural: one row of the metadata
  table a whole-project *analysis* registers for the codes it emits
  (:func:`register_analysis`).  The engine is the one analysis
  driver: it builds the project (symbol tables + call graph from
  :mod:`repro.analysis.callgraph`) once, runs each analysis at most
  once however many of its codes are selected, and routes every
  finding by its ``code``.  Suppressions and scope filtering apply
  exactly as for per-file rules, keyed by the file each finding
  lands in.

Scopes
------
``src``
    Production code.  Rules that forbid patterns tests legitimately
    use (exact float comparison oracles, toy metric names, reference
    cosine reimplementations) run here only.
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
    "ProjectRule",
    "register_rule",
    "register_analysis",
    "all_rules",
    "rules_by_code",
    "scope_for_path",
    "parse_suppressions",
    "scan_suppressions",
    "analyze_source",
    "analyze_paths",
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

    def as_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


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


class Rule:
    """Base class for per-file analysis rules.

    Subclasses set ``code``/``name``/``description``/``scopes`` and
    implement :meth:`check`.  Registration happens via
    :func:`register_rule` so the registry is explicit and import-order
    independent.
    """

    code: str = ""
    name: str = ""
    description: str = ""
    scopes: frozenset[str] = frozenset({"src", "test"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, context: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding.at(context.path, node, self.code, message)


Analysis = Callable[["Project", "CallGraph"], Iterator[Finding]]


class ProjectRule(Rule):
    """One code emitted by a whole-project (interprocedural) analysis.

    ``analysis`` sees the full symbol table and call graph and yields
    findings — for every code of its group — attributed to individual
    files; the engine then drops findings whose code was not selected
    or that land in files whose scope the rule does not cover, and
    routes the survivors through that file's suppressions.
    """

    def __init__(
        self,
        code: str,
        name: str,
        description: str,
        scopes: frozenset[str],
        analysis: Analysis,
    ) -> None:
        self.code = code
        self.name = name
        self.description = description
        self.scopes = scopes
        self.analysis = analysis


_REGISTRY: dict[str, Rule] = {}


def _register(rule: Rule) -> None:
    if not _CODE_PATTERN.match(rule.code):
        raise ValueError(f"invalid rule code {rule.code!r}")
    if rule.code in _REGISTRY:
        raise ValueError(f"duplicate rule code {rule.code}")
    _REGISTRY[rule.code] = rule


def register_rule(rule_class: type[Rule]) -> type[Rule]:
    """Class decorator adding a per-file rule (by code) to the registry."""
    _register(rule_class())
    return rule_class


def register_analysis(
    *rows: tuple[str, str, str],
    scopes: frozenset[str] = Rule.scopes,
) -> Callable[[Analysis], Analysis]:
    """Register a project analysis for the codes it emits.

    ``rows`` is the metadata table — one ``(code, name, description)``
    per code.  The analysis is one function yielding findings for all
    of them; selecting any subset of the codes runs it once.
    """

    def decorate(analysis: Analysis) -> Analysis:
        for code, name, description in rows:
            _register(ProjectRule(code, name, description, scopes, analysis))
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
        dataflow,
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


def parse_suppressions(source: str) -> dict[int, set[str]]:
    """Map line number → set of suppressed codes for ``source``."""
    return scan_suppressions(source)[0]


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


def _run_project_rules(
    contexts: Sequence[FileContext], rules: Sequence[ProjectRule]
) -> list[Finding]:
    """The analysis driver: each selected analysis once per project.

    Findings are routed by ``Finding.code``: one is kept only when its
    code was selected and that rule's scope covers the file the finding
    lands in (looked up from the parsed contexts).
    """
    if not rules or not contexts:
        return []
    from repro.analysis.callgraph import build_project

    project, graph = build_project(contexts)
    scope_by_path = {context.path: context.scope for context in contexts}
    selected = {rule.code: rule for rule in rules}
    findings: list[Finding] = []
    for analysis in dict.fromkeys(rule.analysis for rule in rules):
        for finding in analysis(project, graph):
            rule = selected.get(finding.code)
            if rule is not None and scope_by_path.get(finding.path) in rule.scopes:
                findings.append(finding)
    return findings


def _apply_suppressions(
    context: FileContext,
    raw: Sequence[Finding],
    checked_codes: set[str],
    report_unused_suppressions: bool,
) -> list[Finding]:
    """Filter ``raw`` through the file's noqa comments.

    Emits RPR100 for stale suppressions (when
    ``report_unused_suppressions``) and, unconditionally, for
    malformed suppression codes — a typo'd code is an error now, not
    a preference.
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

    if report_unused_suppressions:
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


def _analyze(
    contexts: Sequence[FileContext],
    rules: Sequence[Rule],
    report_unused_suppressions: bool,
) -> list[Finding]:
    """Per-file rules on each context, project analyses once over all
    of them, then each file's suppressions."""
    file_rules = [r for r in rules if not isinstance(r, ProjectRule)]
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    raw_by_path: dict[str, list[Finding]] = {
        context.path: [
            finding
            for rule in file_rules
            if context.scope in rule.scopes
            for finding in rule.check(context)
        ]
        for context in contexts
    }
    for finding in _run_project_rules(contexts, project_rules):
        raw_by_path[finding.path].append(finding)
    findings: list[Finding] = []
    for context in contexts:
        checked = {rule.code for rule in rules if context.scope in rule.scopes}
        findings.extend(
            _apply_suppressions(
                context,
                raw_by_path[context.path],
                checked,
                report_unused_suppressions,
            )
        )
    return findings


def analyze_source(
    source: str,
    path: str,
    rules: Sequence[Rule] | None = None,
    scope: str | None = None,
    report_unused_suppressions: bool = True,
) -> list[Finding]:
    """Run ``rules`` over one source string.

    Returns surviving findings sorted by location (a syntax error is a
    single ``RPR999`` finding).

    Interprocedural rules run too, over a single-file project — cross-
    function flows *within* the file are visible, cross-file flows are
    not (use :func:`analyze_paths` for whole-project analysis).
    """
    parsed = _parse(source, path, scope)
    if isinstance(parsed, Finding):
        return [parsed]
    if rules is None:
        rules = all_rules()
    return sorted(_analyze([parsed], rules, report_unused_suppressions))


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
    files: Sequence[Path],
    rules: Sequence[Rule] | None = None,
    report_unused_suppressions: bool = True,
) -> list[Finding]:
    """Analyze pre-collected files as one project; sorted findings.

    Per-file rules run on each file; interprocedural rules run once
    over every file that parsed (so contracts, taint, and lock
    requirements propagate across modules).
    """
    if rules is None:
        rules = all_rules()
    parsed = [
        _parse(file_path.read_text(encoding="utf-8"), str(file_path))
        for file_path in files
    ]
    findings = [item for item in parsed if isinstance(item, Finding)]
    contexts = [item for item in parsed if isinstance(item, FileContext)]
    findings.extend(_analyze(contexts, rules, report_unused_suppressions))
    return sorted(findings)


def analyze_paths(
    paths: Sequence[str | Path],
    select: Iterable[str] | None = None,
    report_unused_suppressions: bool = True,
) -> list[Finding]:
    """Analyze every Python file under ``paths``; sorted findings."""
    rules = rules_by_code(select)
    return analyze_files(
        list(iter_python_files(paths)),
        rules=rules,
        report_unused_suppressions=report_unused_suppressions,
    )
