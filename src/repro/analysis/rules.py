"""The single-file RPR1xx analyses: bug classes this repository has hit
or courts.

Each is an ordinary analysis (:func:`repro.analysis.engine.register_analysis`)
that happens to need nothing beyond one file at a time, so it iterates
the project's contexts.  Each documents its motivating incident or
structural risk; the longer narrative lives in README "Static
analysis".  Codes are stable — tooling and suppression comments
reference them — and are not reused: RPR102/104/106/107 were retired
in favour of the ruff rules that flag the same code
(``NPY002``/``S101``/``B006``/``F822``), RPR201/202/403/502 on
seeded-defect evidence (the rule ledger in DESIGN.md §9.3 has both).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from typing import NamedTuple

from repro.analysis.callgraph import CallGraph, Project
from repro.analysis.engine import FileContext, Finding, register_analysis

__all__: list[str] = []  # registers its analyses on import; nothing is imported by name


def _contexts(project: Project) -> Iterator[FileContext]:
    """The files these analyses read: a finding in any other scope would
    be dropped by the engine, so it is not computed."""
    return (c for c in project.contexts if c.scope == "src")

_NUMPY_ALIASES = frozenset({"np", "numpy"})


def _dump(node: ast.AST) -> str:
    return ast.dump(node)


def _is_numpy_attr(node: ast.AST, *path: str) -> bool:
    """True when ``node`` is ``np.<path>`` / ``numpy.<path>``."""
    for part in reversed(path):
        if not isinstance(node, ast.Attribute) or node.attr != part:
            return False
        node = node.value
    return isinstance(node, ast.Name) and node.id in _NUMPY_ALIASES


def _call_name(node: ast.Call) -> str | None:
    """Trailing name of the called function (``np.sqrt`` → ``sqrt``)."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


# ----------------------------------------------------------------------
# RPR101 — cosine reimplementation
# ----------------------------------------------------------------------


def _contains_self_product(node: ast.AST) -> bool:
    """Does the subtree contain ``x * x``, ``x ** 2``, or ``x @ x``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.BinOp):
            if isinstance(sub.op, (ast.Mult, ast.MatMult)):
                if _dump(sub.left) == _dump(sub.right):
                    return True
            if (
                isinstance(sub.op, ast.Pow)
                and isinstance(sub.right, ast.Constant)
                and sub.right.value == 2
            ):
                return True
        if isinstance(sub, ast.Call) and _call_name(sub) == "square":
            return True
    return False


def _is_norm_call(node: ast.AST, norm_names: set[str]) -> bool:
    """``np.linalg.norm(...)`` or a sqrt of a self-product/norm name."""
    if not isinstance(node, ast.Call):
        return False
    if _is_numpy_attr(node.func, "linalg", "norm"):
        return True
    if _call_name(node) != "sqrt" or not node.args:
        return False
    argument = node.args[0]
    if _contains_self_product(argument):
        return True
    return any(
        isinstance(sub, ast.Name) and sub.id in norm_names
        for sub in ast.walk(argument)
    )


def _is_dot_product(node: ast.AST) -> bool:
    """A dot product of two *different* operands.

    Catches ``a @ b``, ``np.dot(a, b)``, ``(a * b).sum(...)`` and
    ``np.sum(a * b)``; self-products (``a @ a``) are norm machinery,
    not similarity, and are excluded.
    """
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
        return _dump(node.left) != _dump(node.right)
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name == "dot" and len(node.args) == 2:
            return _dump(node.args[0]) != _dump(node.args[1])
        if name == "sum":
            # (a * b).sum(...) — method form
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.BinOp
            ):
                product = func.value
                if isinstance(product.op, ast.Mult):
                    return _dump(product.left) != _dump(product.right)
            # np.sum(a * b) — function form
            if (
                _is_numpy_attr(node.func, "sum")
                and node.args
                and isinstance(node.args[0], ast.BinOp)
                and isinstance(node.args[0].op, ast.Mult)
            ):
                product = node.args[0]
                return _dump(product.left) != _dump(product.right)
    return False


_COSINE_HOME = "repro/nn/cosine.py"


@register_analysis(
    (
        "RPR101",
        "cosine-reimplementation",
        "dot-product + divide-by-norm outside repro.nn.cosine; use "
        "pair_cosine/cosine_similarity/exact_cosine/unit_rows",
    ),
)
def analyze_cosine_reimplementation(
    project: Project, graph: CallGraph
) -> Iterator[Finding]:
    """RPR101: cosine/dot-over-norm reimplemented outside the kernel.

    PR 3 fixed a served-score divergence caused by a second cosine with
    a different epsilon convention (``u·e/(‖u‖‖e‖+ε)`` vs the training
    head's ``u·e/((‖u‖+ε)(‖e‖+ε))``).  Any function that computes a
    dot product *and* divides by a vector norm is re-deriving the
    similarity head and must route through :mod:`repro.nn.cosine`
    (``pair_cosine`` / ``cosine_similarity`` / ``exact_cosine`` /
    ``unit_rows``) instead.
    """
    for context in _contexts(project):
        if context.posix_path.endswith(_COSINE_HOME):
            continue
        for node in context.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for division in _norm_divisions(node):
                    yield Finding.at(
                        context.path,
                        division,
                        "RPR101",
                        "cosine reimplementation (dot product divided by a "
                        "norm); route through repro.nn.cosine to keep one "
                        "epsilon convention",
                    )


def _norm_divisions(function: ast.AST) -> Iterator[ast.BinOp]:
    """Divisions by a norm inside a function that also takes a dot product."""
    nodes = list(ast.walk(function))
    if not any(_is_dot_product(node) for node in nodes):
        return
    # Fixpoint pass: names assigned from norm expressions (a later
    # sqrt of a norm name is itself a norm, whatever walk order).
    norm_names: set[str] = set()
    assignments = [node for node in nodes if isinstance(node, ast.Assign)]
    changed = True
    while changed:
        changed = False
        for node in assignments:
            if any(
                _is_norm_call(sub, norm_names) for sub in ast.walk(node.value)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if target.id not in norm_names:
                            norm_names.add(target.id)
                            changed = True
    for node in nodes:
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
            continue
        if any(
            _is_norm_call(sub, norm_names)
            or (isinstance(sub, ast.Name) and sub.id in norm_names)
            for sub in ast.walk(node.right)
        ):
            yield node


# ----------------------------------------------------------------------
# RPR105 — float equality comparison
# ----------------------------------------------------------------------


def _is_nonzero_float(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and node.value != 0.0
    )


@register_analysis(
    (
        "RPR105",
        "float-equality",
        "== / != against a non-zero float literal; compare with a "
        "tolerance (0.0 guards are exempt)",
    ),
)
def analyze_float_equality(
    project: Project, graph: CallGraph
) -> Iterator[Finding]:
    """RPR105: ``==``/``!=`` against a non-zero float literal.

    Accumulated rounding makes such comparisons flaky.  Comparison to
    ``0.0`` is exempt — the exact-zero guard (``if denom == 0.0``) is
    a well-defined idiom for values produced by exact arithmetic.
    Tests asserting bit-exact parity are the other legitimate user, so
    the rule is scoped to ``src``.
    """
    for context in _contexts(project):
        for node in context.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_nonzero_float(left) or _is_nonzero_float(right):
                    yield Finding.at(
                        context.path,
                        node,
                        "RPR105",
                        "equality comparison against a non-zero float "
                        "literal; use a tolerance (math.isclose / "
                        "np.isclose) or an exact integer/flag",
                    )
                    break


# ----------------------------------------------------------------------
# RPR103 / RPR108 / RPR109 — the telemetry name grammar
# ----------------------------------------------------------------------

_NAME = re.compile(r"^repro(_[a-z0-9]+){2,}$")


class _Grammar(NamedTuple):
    """What one kind of telemetry callee asks of its literal name."""

    code: str
    shape: str  # the grammar as messages name it
    must_end: str | None
    must_not_end: tuple[str, ...]
    why_not: str  # message tail for a ``must_not_end`` breach


_METRIC_SHAPE = "the naming convention repro_<subsystem>_<name>_<unit>"
_COUNTER = _Grammar("RPR103", _METRIC_SHAPE, "_total", (), "")
_LEVEL = _Grammar(
    "RPR103",
    _METRIC_SHAPE,
    None,
    ("_total",),
    "must not end in _total (reserved for counters)",
)
_SPAN = _Grammar(
    "RPR108",
    "the span grammar repro_<subsystem>_<name>",
    None,
    ("_seconds", "_total", "_bytes", "_ratio", "_count"),
    "must omit the unit suffix {suffix!r}; the span histogram appends "
    "_seconds itself",
)
_CALLEE_KINDS = {
    "counter": _COUNTER,
    "gauge": _LEVEL,
    "histogram": _LEVEL,
    "span": _SPAN,
    "record_stage": _SPAN,
}
# Verdict families: gauges and ``_total`` counters only, no units.
_RESERVED_FAMILIES = ("repro_health", "repro_drift")
_VERDICT_UNIT_SUFFIXES = ("_seconds", "_bytes")


def _ending(name: str, suffixes: tuple[str, ...]) -> str | None:
    """The first of ``suffixes`` that ``name`` ends in, if any."""
    return next((s for s in suffixes if name.endswith(s)), None)


def _name_breaches(
    callee: str, grammar: _Grammar, name: str
) -> Iterator[tuple[str, str]]:
    """``(code, message)`` per grammar breach of ``callee(name, ...)``."""
    suffix = _ending(name, grammar.must_not_end)
    if not _NAME.match(name):
        yield grammar.code, (
            f"{callee} name {name!r} violates {grammar.shape} (lowercase, "
            ">= 3 segments)"
        )
    elif grammar.must_end is not None and not name.endswith(grammar.must_end):
        yield grammar.code, (
            f"{callee} name {name!r} must end in {grammar.must_end}"
        )
    elif suffix is not None:
        yield grammar.code, (
            f"{callee} name {name!r} " + grammar.why_not.format(suffix=suffix)
        )

    family = next(
        (
            reserved
            for reserved in _RESERVED_FAMILIES
            if name == reserved or name.startswith(reserved + "_")
        ),
        None,
    )
    if family is None:
        return
    unit = _ending(name, _VERDICT_UNIT_SUFFIXES)
    if grammar is _SPAN:
        yield "RPR109", (
            f"{callee} name {name!r} uses the reserved verdict family "
            f"{family}_*; the span layer would append _seconds and inject "
            "a latency histogram into it — time the work under its own "
            "subsystem name"
        )
    elif callee == "histogram":
        yield "RPR109", (
            f"histogram {name!r} in the reserved verdict family "
            f"{family}_*; verdicts are point-in-time gauges — record the "
            "underlying signal in its own family instead"
        )
    elif unit is not None:
        yield "RPR109", (
            f"{callee} name {name!r} carries the unit suffix {unit!r} "
            f"inside the unitless verdict family {family}_*; raw "
            "measurements belong in the base signal's family"
        )


@register_analysis(
    (
        "RPR103",
        "metric-name-convention",
        "metric name literal must match repro_<subsystem>_<name>"
        "_<unit> (counters end _total)",
    ),
    (
        "RPR108",
        "span-name-grammar",
        "span/stage name literal must match repro_<subsystem>_<name> "
        "(lowercase, >= 3 segments, no unit suffix)",
    ),
    (
        "RPR109",
        "health-family-grammar",
        "repro_health_*/repro_drift_* are reserved verdict families: "
        "gauges/counters only, no unit suffixes, no span names",
    ),
)
def analyze_name_grammar(project: Project, graph: CallGraph) -> Iterator[Finding]:
    """One walk over the literal names handed to the telemetry layer.

    **RPR103** — metric names follow ``repro_<subsystem>_<name>_<unit>``
    (README "Observability"): lowercase, ``repro_`` prefix, at least
    three segments; counters end in ``_total``, gauges and histograms
    must not (that suffix is reserved).

    **RPR108** — ``span()``/``record_stage()`` names follow
    ``repro_<subsystem>_<name>`` with **no** unit suffix: the span layer
    derives the histogram family by appending ``_seconds`` itself, so a
    name that already carries a unit produces doubled metric names
    (``repro_x_seconds_seconds``) and breaks latency attribution joins
    between traces and histograms.

    **RPR109** — ``repro_health_*``/``repro_drift_*`` carry *verdicts*:
    point-in-time gauges (plus ``_total`` evaluation counters) written
    by :mod:`repro.obs.health` and :mod:`repro.obs.drift` and consumed
    by dashboards, SLO specs, and CI's health assertions.  Three things
    corrupt them: a histogram (verdicts are re-computed, not
    accumulated — a histogram would average stale verdicts into current
    ones); a unit suffix like ``_seconds`` (verdict values are unitless
    scores, ratios, and flags — a unit implies raw telemetry, which
    belongs in the base signal's own family); and a span/stage name
    under the reserved prefix (the span layer would inject a latency
    histogram into the family).

    Only literal first arguments are checked; a computed name is
    invisible.
    """
    for context in _contexts(project):
        for node in context.nodes:
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            callee = _call_name(node) or ""
            grammar = _CALLEE_KINDS.get(callee)
            if (
                grammar is not None
                and isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                for code, message in _name_breaches(callee, grammar, first.value):
                    yield Finding.at(context.path, first, code, message)
