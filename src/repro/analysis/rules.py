"""The per-file RPR rules: bug classes this repository has hit or courts.

Each rule documents its motivating incident or structural risk; the
longer narrative lives in README "Static analysis".  Codes are stable
— tooling and suppression comments reference them — and are not
reused: RPR102/104/106/107 were retired in favour of the ruff rules
that flag the same code (``NPY002``/``S101``/``B006``/``F822``; see the
rule ledger in DESIGN.md §9.3).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.analysis.engine import FileContext, Finding, Rule, register_rule

__all__ = [
    "CosineReimplementation",
    "MetricNameConvention",
    "FloatEqualityComparison",
    "SpanNameGrammar",
    "HealthFamilyGrammar",
]

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


@register_rule
class CosineReimplementation(Rule):
    """RPR101: cosine/dot-over-norm reimplemented outside the kernel.

    PR 3 fixed a served-score divergence caused by a second cosine with
    a different epsilon convention (``u·e/(‖u‖‖e‖+ε)`` vs the training
    head's ``u·e/((‖u‖+ε)(‖e‖+ε))``).  Any function that computes a
    dot product *and* divides by a vector norm is re-deriving the
    similarity head and must route through :mod:`repro.nn.cosine`
    (``pair_cosine`` / ``cosine_similarity`` / ``exact_cosine`` /
    ``unit_rows``) instead.
    """

    code = "RPR101"
    name = "cosine-reimplementation"
    description = (
        "dot-product + divide-by-norm outside repro.nn.cosine; use "
        "pair_cosine/cosine_similarity/exact_cosine/unit_rows"
    )
    scopes = frozenset({"src"})

    _HOME = "repro/nn/cosine.py"

    def check(self, context: FileContext) -> Iterator[Finding]:
        if context.posix_path.endswith(self._HOME):
            return
        for node in context.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(context, node)

    def _check_function(
        self, context: FileContext, function: ast.AST
    ) -> Iterator[Finding]:
        # Fixpoint pass: names assigned from norm expressions (a later
        # sqrt of a norm name is itself a norm, whatever walk order).
        norm_names: set[str] = set()
        nodes = list(ast.walk(function))
        assignments = [node for node in nodes if isinstance(node, ast.Assign)]
        changed = True
        while changed:
            changed = False
            for node in assignments:
                if any(
                    _is_norm_call(sub, norm_names)
                    for sub in ast.walk(node.value)
                ):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            if target.id not in norm_names:
                                norm_names.add(target.id)
                                changed = True

        has_dot = False
        divisions: list[ast.BinOp] = []
        for node in nodes:
            if _is_dot_product(node):
                has_dot = True
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                divisions.append(node)

        if not has_dot:
            return
        for division in divisions:
            denominator = division.right
            denominator_is_norm = any(
                _is_norm_call(sub, norm_names)
                or (isinstance(sub, ast.Name) and sub.id in norm_names)
                for sub in ast.walk(denominator)
            )
            if denominator_is_norm:
                yield self.finding(
                    context,
                    division,
                    "cosine reimplementation (dot product divided by a "
                    "norm); route through repro.nn.cosine to keep one "
                    "epsilon convention",
                )


# ----------------------------------------------------------------------
# RPR103 — telemetry metric-name convention
# ----------------------------------------------------------------------

_METRIC_NAME = re.compile(r"^repro(_[a-z0-9]+){2,}$")
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})


@register_rule
class MetricNameConvention(Rule):
    """RPR103: metric names must follow the documented convention.

    ``repro_<subsystem>_<name>_<unit>`` (README "Observability"):
    lowercase, ``repro_`` prefix, at least three segments.  Counters
    end in ``_total``; gauges and histograms must not (that suffix is
    reserved).  Span and stage names have their own grammar — see
    RPR108 (:class:`SpanNameGrammar`).
    """

    code = "RPR103"
    name = "metric-name-convention"
    description = (
        "metric name literal must match repro_<subsystem>_<name>"
        "_<unit> (counters end _total)"
    )
    scopes = frozenset({"src"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(
                first.value, str
            ):
                continue
            name = first.value
            kind = self._call_kind(node)
            if kind is None:
                continue
            yield from self._check_name(context, first, kind, name)

    @staticmethod
    def _call_kind(node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS:
            return func.attr
        return None

    def _check_name(
        self, context: FileContext, node: ast.AST, kind: str, name: str
    ) -> Iterator[Finding]:
        if not _METRIC_NAME.match(name):
            yield self.finding(
                context,
                node,
                f"{kind} name {name!r} violates the naming convention "
                "repro_<subsystem>_<name>_<unit> (lowercase, >= 3 "
                "segments)",
            )
            return
        if kind == "counter" and not name.endswith("_total"):
            yield self.finding(
                context, node, f"counter name {name!r} must end in _total"
            )
        elif kind in ("gauge", "histogram") and name.endswith("_total"):
            yield self.finding(
                context,
                node,
                f"{kind} name {name!r} must not end in _total (reserved "
                "for counters)",
            )


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


@register_rule
class FloatEqualityComparison(Rule):
    """RPR105: ``==``/``!=`` against a non-zero float literal.

    Accumulated rounding makes such comparisons flaky.  Comparison to
    ``0.0`` is exempt — the exact-zero guard (``if denom == 0.0``) is
    a well-defined idiom for values produced by exact arithmetic.
    Tests asserting bit-exact parity are the other legitimate user, so
    the rule is scoped to ``src``.
    """

    code = "RPR105"
    name = "float-equality"
    description = (
        "== / != against a non-zero float literal; compare with a "
        "tolerance (0.0 guards are exempt)"
    )
    scopes = frozenset({"src"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_nonzero_float(left) or _is_nonzero_float(right):
                    yield self.finding(
                        context,
                        node,
                        "equality comparison against a non-zero float "
                        "literal; use a tolerance (math.isclose / "
                        "np.isclose) or an exact integer/flag",
                    )
                    break


# ----------------------------------------------------------------------
# RPR108 — span name grammar
# ----------------------------------------------------------------------

_SPAN_NAME = re.compile(r"^repro(_[a-z0-9]+){2,}$")
_SPAN_CALLS = frozenset({"span", "record_stage"})
_RESERVED_UNIT_SUFFIXES = (
    "_seconds",
    "_total",
    "_bytes",
    "_ratio",
    "_count",
)


@register_rule
class SpanNameGrammar(Rule):
    """RPR108: span/stage names must follow the span grammar.

    ``repro_<subsystem>_<name>`` (README "Observability"): lowercase,
    ``repro_`` prefix, at least three segments, and **no** unit
    suffix — ``span()``/``record_stage()`` derive the
    histogram family by appending ``_seconds`` themselves, so a name
    that already carries a unit produces doubled metric names
    (``repro_x_seconds_seconds``) and breaks latency attribution
    joins between traces and histograms.
    """

    code = "RPR108"
    name = "span-name-grammar"
    description = (
        "span/stage name literal must match repro_<subsystem>_<name> "
        "(lowercase, >= 3 segments, no unit suffix)"
    )
    scopes = frozenset({"src"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Call) or not node.args:
                continue
            callee = _call_name(node)
            if callee not in _SPAN_CALLS:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(
                first.value, str
            ):
                continue
            name = first.value
            if not _SPAN_NAME.match(name):
                yield self.finding(
                    context,
                    first,
                    f"{callee} name {name!r} violates the span grammar "
                    "repro_<subsystem>_<name> (lowercase, >= 3 segments)",
                )
                continue
            for suffix in _RESERVED_UNIT_SUFFIXES:
                if name.endswith(suffix):
                    yield self.finding(
                        context,
                        first,
                        f"{callee} name {name!r} must omit the unit suffix "
                        f"{suffix!r}; the span histogram appends _seconds "
                        "itself",
                    )
                    break


# ----------------------------------------------------------------------
# RPR109 — health/drift reserved metric families
# ----------------------------------------------------------------------

_RESERVED_FAMILIES = ("repro_health", "repro_drift")
_VERDICT_UNIT_SUFFIXES = ("_seconds", "_bytes")


def _reserved_family(name: str) -> str | None:
    """The reserved family a metric name belongs to, if any."""
    for family in _RESERVED_FAMILIES:
        if name == family or name.startswith(family + "_"):
            return family
    return None


@register_rule
class HealthFamilyGrammar(Rule):
    """RPR109: ``repro_health_*``/``repro_drift_*`` family contract.

    These families carry *verdicts* — point-in-time gauges (plus
    ``_total`` evaluation counters) written by
    :mod:`repro.obs.health` and :mod:`repro.obs.drift` and consumed
    by dashboards, SLO specs, and CI's health assertions.  Three
    things corrupt them: a histogram (verdicts are re-computed, not
    accumulated — a histogram would average stale verdicts into
    current ones); a unit suffix like ``_seconds`` (verdict values
    are unitless scores, ratios, and flags — a unit implies raw
    telemetry, which belongs in the base signal's own family); and a
    span/stage name under the reserved prefix (the span layer appends
    ``_seconds`` and would inject a latency histogram into the
    family).  Base naming (lowercase, >= 3 segments, counters end
    ``_total``) is RPR103's job; this rule adds only the
    family-specific constraints.
    """

    code = "RPR109"
    name = "health-family-grammar"
    description = (
        "repro_health_*/repro_drift_* are reserved verdict families: "
        "gauges/counters only, no unit suffixes, no span names"
    )
    scopes = frozenset({"src"})

    def check(self, context: FileContext) -> Iterator[Finding]:
        for node in context.nodes:
            if not isinstance(node, ast.Call) or not node.args:
                continue
            first = node.args[0]
            if not isinstance(first, ast.Constant) or not isinstance(
                first.value, str
            ):
                continue
            name = first.value
            family = _reserved_family(name)
            if family is None:
                continue
            callee = _call_name(node)
            if callee in _SPAN_CALLS:
                yield self.finding(
                    context,
                    first,
                    f"{callee} name {name!r} uses the reserved verdict "
                    f"family {family}_*; the span layer would append "
                    "_seconds and inject a latency histogram into it — "
                    "time the work under its own subsystem name",
                )
                continue
            if callee not in _METRIC_METHODS:
                continue
            if callee == "histogram":
                yield self.finding(
                    context,
                    first,
                    f"histogram {name!r} in the reserved verdict family "
                    f"{family}_*; verdicts are point-in-time gauges — "
                    "record the underlying signal in its own family "
                    "instead",
                )
                continue
            for suffix in _VERDICT_UNIT_SUFFIXES:
                if name.endswith(suffix):
                    yield self.finding(
                        context,
                        first,
                        f"{callee} name {name!r} carries the unit suffix "
                        f"{suffix!r} inside the unitless verdict family "
                        f"{family}_*; raw measurements belong in the "
                        "base signal's family",
                    )
                    break
