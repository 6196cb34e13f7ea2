"""Determinism taint analysis (rules RPR301–RPR303).

The reproduction's core promise is that scores are bit-identical
across the train/serve boundary and across runs.  That promise dies
quietly when a nondeterministic value — an unseeded RNG draw, a wall
clock read, the iteration order of a hash-randomized ``set`` — flows
into something that outlives the process: a persisted model artifact,
an evaluation metric, or a served score.

This pass is a classic source→sink taint analysis, interprocedural
over the project call graph:

* **Sources** — unseeded ``np.random.default_rng()`` / legacy
  ``np.random.*`` / stdlib ``random`` draws (RPR301); ``time.time`` /
  ``time.time_ns`` / ``datetime.now`` and friends (RPR302 — note
  ``perf_counter``/``monotonic`` are *durations* and exempt); ``set``
  construction and ``dict.keys()`` views, whose iteration order is
  hash-dependent (RPR303).
* **Sinks** — arguments to ``repro.core.persistence`` and
  ``repro.eval.metrics`` functions, and values returned from the
  serving layer (``repro.core.service``).
* **Carriers** — assignment, ``for``/comprehension targets, and the
  list mutators ``xs.append/extend/insert(tainted)``, which taint
  ``xs``.
* **Laundering** — ``sorted(...)`` clears order taint; order-
  insensitive reductions (``len``/``min``/``max``/``sum``/``any``/
  ``all``) and membership tests do too.  RNG taint is avoided at the
  source by seeding (``default_rng(seed)`` is not a source).

Function summaries record which taint kinds a function returns and
which parameters flow to a sink or to the return value, so a
``wrapper() -> time.time()`` result reaching ``save_model_bundle``
two calls later is still flagged, at the call site where the tainted
value finally meets the sink.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator, Mapping
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    Project,
    iter_call_args,
    resolve_imported_target,
)
from repro.analysis.cfgutils import fixpoint
from repro.analysis.engine import Finding, register_analysis

__all__: list[str] = []  # registers its analyses on import; nothing is imported by name

_KIND_CODES = {"rng": "RPR301", "time": "RPR302", "unordered": "RPR303"}
_KIND_LABELS = {
    "rng": "unseeded RNG value",
    "time": "wall-clock value",
    "unordered": "hash-order-dependent value (set/dict.keys iteration)",
}

# Modules whose *arguments* are sinks (persisted artifacts, metrics).
_SINK_MODULES = ("repro.core.persistence", "repro.eval.metrics")
# Modules whose *return values* are sinks (served scores).
_RETURN_SINK_MODULES = ("repro.core.service",)

_TIME_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
_PY_RANDOM_PREFIX = "random."
# Legacy numpy global-state API: draws from it are unseeded.
_LEGACY_RNG = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "random_sample",
        "ranf", "sample", "choice", "shuffle", "permutation", "uniform",
        "normal", "lognormal", "standard_normal", "beta", "binomial",
        "poisson", "exponential", "gamma", "geometric", "multinomial",
        "RandomState", "get_state", "set_state", "random_integers",
    }
)
# Order-insensitive reductions: consuming a set through these cannot
# leak iteration order.
_ORDER_INSENSITIVE = frozenset(
    {"len", "sorted", "min", "max", "sum", "any", "all"}
)
# List mutators: the receiver now holds what the argument held.  The
# set/dict ones (``add``/``update``/``setdefault``) are left out on
# purpose — a dict read by key never iterates, and tainting it by what
# was put in raised only false alarms (3 in ``cli.py`` when tried).
_LIST_MUTATORS = frozenset({"append", "extend", "insert"})


@dataclass
class TaintSummary:
    """What one function does with taint, as seen by its callers."""

    returns: set[str] = field(default_factory=set)
    param_returns: set[str] = field(default_factory=set)
    param_sinks: dict[str, str] = field(default_factory=dict)

    def signature(self) -> tuple:
        return (
            tuple(sorted(self.returns)),
            tuple(sorted(self.param_returns)),
            tuple(sorted(self.param_sinks.items())),
        )


def _source_kind(project: Project, module: str, call: ast.Call) -> str | None:
    """Taint kind introduced by ``call`` itself, if any."""
    target = resolve_imported_target(project, module, call)
    func = call.func
    # Unseeded numpy Generator: default_rng() with no seed argument.
    is_default_rng = (target is not None and target.endswith(".default_rng")) or (
        isinstance(func, ast.Attribute) and func.attr == "default_rng"
    )
    if is_default_rng:
        seeded = bool(call.args) or any(
            kw.arg in (None, "seed") for kw in call.keywords
        )
        return None if seeded else "rng"
    # Legacy numpy global-state draws.
    if isinstance(func, ast.Attribute) and func.attr in _LEGACY_RNG:
        if target is not None and ".random." in f".{target}":
            return "rng"
    if target is not None:
        if target.startswith("numpy.random.") and target.rsplit(".", 1)[-1] in _LEGACY_RNG:
            return "rng"
        # Stdlib random module (unseeded module-level state).
        if target.startswith(_PY_RANDOM_PREFIX) and not target.startswith(
            "random.Random"
        ):
            tail = target[len(_PY_RANDOM_PREFIX) :]
            if "." not in tail and tail[:1].islower():
                return "rng"
        if target in _TIME_SOURCES:
            return "time"
    # Hash-order sources: set construction and dict key views.
    if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
        return "unordered"
    if isinstance(func, ast.Attribute) and func.attr == "keys" and not call.args:
        return "unordered"
    return None


def _sink_name(target: str | None) -> str | None:
    """Sink label when ``target`` is a persistence/metrics function."""
    if target is None:
        return None
    for module in _SINK_MODULES:
        if target.startswith(module + "."):
            return target
    return None


class _FunctionTaint:
    """Intra-function taint propagation for one function body."""

    def __init__(
        self,
        project: Project,
        graph: CallGraph,
        summaries: Mapping[str, TaintSummary],
        info: FunctionInfo,
    ) -> None:
        self.project = project
        self.graph = graph
        self.summaries = summaries
        self.info = info
        self.module = info.module
        # Parameters carry symbolic markers so flows-to-return and
        # flows-to-sink can be attributed back to the caller's argument.
        self.taint: dict[str, set[str]] = {
            param: {f"param:{param}"} for param in info.params
        }
        # Param→sink flows recorded by the finding scan (interprocedural
        # summaries read this after iterating findings()).
        self.param_sinks_found: dict[str, str] = {}

    # -- expression taint ---------------------------------------------

    def expr_taint(self, node: ast.AST) -> set[str]:
        if isinstance(node, ast.Name):
            return set(self.taint.get(node.id, ()))
        if isinstance(node, (ast.Set, ast.SetComp)):
            return self._children_taint(node) | {"unordered"}
        if isinstance(node, ast.Compare):
            # Membership/comparison results are order-insensitive.
            return self._children_taint(node) - {"unordered"}
        if isinstance(node, ast.Call):
            return self._call_taint(node)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return set()
        return self._children_taint(node)

    def _children_taint(self, node: ast.AST) -> set[str]:
        kinds: set[str] = set()
        for child in ast.iter_child_nodes(node):
            kinds |= self.expr_taint(child)
        return kinds

    def _call_taint(self, call: ast.Call) -> set[str]:
        func = call.func
        arg_taint: set[str] = set()
        for _, argument in iter_call_args(call):
            arg_taint |= self.expr_taint(argument)
        arg_taint |= self.expr_taint(func)
        if isinstance(func, ast.Name) and func.id in _ORDER_INSENSITIVE:
            arg_taint -= {"unordered"}
            if func.id == "sorted":
                return arg_taint
        source = _source_kind(self.project, self.module, call)
        if source is not None:
            arg_taint = arg_taint | {source}
        callee = self.graph.callee_at(self.info, call)
        summary = self.summaries.get(callee) if callee is not None else None
        if summary is not None and callee is not None:
            kinds = set(summary.returns)
            params = self.project.functions[callee].positional_params(call)
            for param, argument in iter_call_args(call, params):
                if param in summary.param_returns:
                    kinds |= self.expr_taint(argument)
            return kinds
        return arg_taint

    # -- statement-level propagation ----------------------------------

    def propagate(self) -> None:
        def sweep() -> bool:
            changed = False
            for node in self.info.nodes:
                changed |= self._propagate_statement(node)
            return changed

        fixpoint(sweep)

    def _propagate_statement(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Assign):
            kinds = self.expr_taint(node.value)
            return self._taint_targets(node.targets, kinds)
        if isinstance(node, ast.AnnAssign) and node.value is not None:
            kinds = self.expr_taint(node.value)
            return self._taint_targets([node.target], kinds)
        if isinstance(node, ast.AugAssign):
            kinds = self.expr_taint(node.value) | self.expr_taint(node.target)
            return self._taint_targets([node.target], kinds)
        if isinstance(node, (ast.For, ast.AsyncFor)):
            kinds = self.expr_taint(node.iter)
            return self._taint_targets([node.target], kinds)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)):
            changed = False
            for generator in node.generators:
                kinds = self.expr_taint(generator.iter)
                changed |= self._taint_targets([generator.target], kinds)
            return changed
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _LIST_MUTATORS
            and isinstance(node.func.value, ast.Name)
        ):
            kinds = set()
            for _, argument in iter_call_args(node):
                kinds |= self.expr_taint(argument)
            return self._taint_targets([node.func.value], kinds)
        return False

    def _taint_targets(
        self, targets: list[ast.AST] | list[ast.expr], kinds: set[str]
    ) -> bool:
        if not kinds:
            return False
        changed = False
        for target in targets:
            for name_node in ast.walk(target):
                if isinstance(name_node, ast.Name):
                    existing = self.taint.setdefault(name_node.id, set())
                    if not kinds <= existing:
                        existing |= kinds
                        changed = True
        return changed

    # -- summary + findings -------------------------------------------

    def summarize(self) -> TaintSummary:
        summary = TaintSummary()
        for node in self.info.nodes:
            if isinstance(node, ast.Return) and node.value is not None:
                kinds = self.expr_taint(node.value)
                for kind in kinds:
                    if kind.startswith("param:"):
                        summary.param_returns.add(kind[len("param:") :])
                    else:
                        summary.returns.add(kind)
        return summary

    def findings(self) -> Iterator[tuple[str, ast.AST, str, str]]:
        """(kind, node, sink label, flow) for concrete violations.

        Also records param→sink flows into :attr:`param_sinks_found`
        for the interprocedural fixpoint.
        """
        self.param_sinks_found = {}
        for node in self.info.nodes:
            if isinstance(node, ast.Call):
                yield from self._check_sink_call(node)
            elif isinstance(node, ast.Return) and node.value is not None:
                if self.info.module.startswith(_RETURN_SINK_MODULES):
                    kinds = self.expr_taint(node.value)
                    for kind in sorted(kinds):
                        if kind.startswith("param:"):
                            self.param_sinks_found.setdefault(
                                kind[len("param:") :],
                                f"served value returned by {self.info.qualname}",
                            )
                        else:
                            yield (
                                kind,
                                node,
                                f"served return of {self.info.name}()",
                                "returned from the serving layer",
                            )

    def _check_sink_call(
        self, call: ast.Call
    ) -> Iterator[tuple[str, ast.AST, str, str]]:
        target = resolve_imported_target(self.project, self.module, call)
        sink = _sink_name(target)
        callee = self.graph.callee_at(self.info, call)
        summary = self.summaries.get(callee) if callee is not None else None
        # Every argument of a declared sink sinks; otherwise only the
        # parameters the callee's summary forwards to one.
        param_sinks: dict[str, str] = {}
        params: list[str] = []
        if sink is None and summary is not None and callee is not None:
            param_sinks = summary.param_sinks
            params = self.project.functions[callee].positional_params(call)
        if sink is None and not param_sinks:
            return
        for param, argument in iter_call_args(call, params):
            label = sink
            if label is None and isinstance(param, str):
                label = param_sinks.get(param)
            if label is None:
                continue
            kinds = self.expr_taint(argument)
            for kind in sorted(kinds):
                if kind.startswith("param:"):
                    self.param_sinks_found.setdefault(
                        kind[len("param:") :], label
                    )
                else:
                    yield (
                        kind,
                        call,
                        label,
                        "passed into a persistence/metrics sink",
                    )


@register_analysis(
    (
        "RPR301",
        "unseeded-rng-to-sink",
        "unseeded RNG draw flows into a persisted artifact, eval "
        "metric, or served score (interprocedural taint)",
    ),
    (
        "RPR302",
        "wall-clock-to-sink",
        "time.time/datetime.now value flows into a persisted artifact, "
        "eval metric, or served score (perf_counter durations exempt)",
    ),
    (
        "RPR303",
        "unordered-iteration-to-sink",
        "set/dict.keys iteration order flows into a persisted artifact, "
        "eval metric, or served score; sorted() launders",
    ),
)
def analyze_determinism(
    project: Project, graph: CallGraph
) -> Iterator[Finding]:
    """Every determinism violation of a project."""
    summaries: dict[str, TaintSummary] = {}
    analyses: dict[str, _FunctionTaint] = {}

    def summarize_all() -> bool:
        changed = False
        for qualname, info in project.functions.items():
            analysis = _FunctionTaint(project, graph, summaries, info)
            analysis.propagate()
            summary = analysis.summarize()
            # Fold in param→sink flows discovered by the finding scan.
            list(analysis.findings())
            summary.param_sinks = dict(analysis.param_sinks_found)
            analyses[qualname] = analysis
            previous = summaries.get(qualname)
            if previous is None or previous.signature() != summary.signature():
                summaries[qualname] = summary
                changed = True
        return changed

    fixpoint(summarize_all)
    for analysis in analyses.values():
        for kind, node, sink, flow in analysis.findings():
            if kind not in _KIND_CODES:
                continue
            yield Finding.at(
                analysis.info.context.path,
                node,
                _KIND_CODES[kind],
                f"{_KIND_LABELS[kind]} {flow} ({sink}); launder through an "
                "explicit seed or sorted() before it escapes",
            )
