"""Static array-contract checking (rules RPR201 and RPR202).

Where a call can be traced to literal shapes — a direct
``np.zeros((2, 5, 3))`` argument, or a local name assigned from such a
constructor in the same function — the contract governing the call is
checked without running anything: ranks must match, and symbolic
dimensions must unify across arguments (``window_values (2, 5, 3)``
with ``valid (2, 4)`` is a ``W`` conflict).

One pass serves both codes; they differ only in how far the contract
travelled to reach the call site:

* **RPR201 — zero hops.**  The call targets a contracted ``repro.nn``
  kernel directly, and the declared
  :class:`~repro.analysis.contracts.KernelContract` applies as is.
* **RPR202 — one or more hops.**  A function that forwards a parameter
  into a contracted kernel (or into another already-summarized
  function — transitively, through wrappers) inherits the kernel's
  :class:`~repro.analysis.contracts.ArraySpec` for that parameter,
  together with any symbol bindings fixed by literal arrays inside its
  body.  A caller that passes a literal-shaped array violating the
  derived contract is flagged even though no contracted kernel appears
  at the call site::

      def fused_scores(queries):            # inherits queries: (B, D)
          ref = np.zeros((10, 128))         # binds B=10, D=128
          return cosine_similarity(queries, ref)

      fused_scores(np.zeros((10, 64)))      # RPR202: D is 64, bound to 128

Summaries are computed to a fixpoint over the project call graph, so
``rep_features → wrapper → nn.cosine`` chains propagate.  Dynamic
shapes are simply not checked here; the runtime half of the contract
layer (:func:`repro.analysis.contracts.check_call`) covers them in the
nn test suite.  dtype kinds are also left to runtime — constructor
dtype inference would guess.  Anything dynamic contributes no summary —
silence, not false alarms.
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
from repro.analysis.contracts import (
    CONTRACTS,
    ArraySpec,
    ContractError,
    bind_shape,
)
from repro.analysis.engine import Finding, register_analysis

__all__ = ["FunctionContract", "build_summaries"]

_SHAPE_CTORS = frozenset({"zeros", "ones", "empty", "full"})
_NUMPY_ALIASES = frozenset({"np", "numpy"})


@dataclass
class FunctionContract:
    """Derived array contract of a project function.

    ``inputs`` maps parameter names to the specs they inherit from the
    contracted calls they flow into; ``env`` carries symbol bindings
    fixed by literal arrays inside the function body; ``origin`` names
    the underlying kernel contract, for diagnostics.
    """

    inputs: dict[str, ArraySpec] = field(default_factory=dict)
    env: dict[str, int] = field(default_factory=dict)
    origin: str = ""

    def signature(self) -> tuple:
        return (
            tuple(sorted((k, v.shape, v.dtype) for k, v in self.inputs.items())),
            tuple(sorted(self.env.items())),
            self.origin,
        )


@dataclass
class _CallContract:
    """The contract governing one call site.

    ``params`` are the names positional arguments bind to; ``name``
    labels the callee in diagnostics; ``derived`` is False for a
    declared kernel contract (zero hops), True for a summary.
    """

    specs: Mapping[str, ArraySpec]
    env: dict[str, int]
    origin: str
    params: list[str]
    name: str
    derived: bool


def _literal_shape(node: ast.AST) -> tuple[int, ...] | None:
    """Shape of a literal ``np.zeros((2, 3))``-style constructor call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    is_ctor = (
        isinstance(func, ast.Attribute)
        and func.attr in _SHAPE_CTORS
        and isinstance(func.value, ast.Name)
        and func.value.id in _NUMPY_ALIASES
    )
    if not is_ctor or not node.args:
        return None
    shape_node = node.args[0]
    if isinstance(shape_node, ast.Constant) and isinstance(
        shape_node.value, int
    ):
        return (shape_node.value,)
    if isinstance(shape_node, (ast.Tuple, ast.List)):
        dims: list[int] = []
        for element in shape_node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, int)
            ):
                return None
            dims.append(element.value)
        return tuple(dims)
    return None


def _literal_locals(info: FunctionInfo) -> dict[str, tuple[int, ...]]:
    """Local name → literal array shape, from constructor assignments."""
    shapes: dict[str, tuple[int, ...]] = {}
    for node in info.nodes:
        if isinstance(node, ast.Assign):
            shape = _literal_shape(node.value)
            if shape is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        shapes[target.id] = shape
    return shapes


def _resolve_shape(
    node: ast.AST, known: Mapping[str, tuple[int, ...]]
) -> tuple[int, ...] | None:
    direct = _literal_shape(node)
    if direct is not None:
        return direct
    if isinstance(node, ast.Name):
        return known.get(node.id)
    return None


def _call_contract(
    project: Project,
    graph: CallGraph,
    summaries: Mapping[str, FunctionContract],
    info: FunctionInfo,
    call: ast.Call,
) -> _CallContract | None:
    """The contract governing ``call`` inside ``info``, if any.

    Kernel contracts win over project summaries (they are the declared
    ground truth; summaries are derived).  Kernel resolution goes
    through the module's import map rather than the call graph, because
    the kernels need not be part of the analyzed project (a single-file
    analysis still knows ``from repro.nn.pooling import
    log_sum_exp_pool``).
    """
    target = resolve_imported_target(project, info.module, call)
    if target in CONTRACTS:
        contract = CONTRACTS[target]
        return _CallContract(
            contract.inputs, {}, target, list(contract.inputs), contract.name, False
        )
    callee = graph.callee_at(info, call)
    summary = summaries.get(callee) if callee is not None else None
    if summary is None or callee is None:
        return None
    callee_info = project.functions[callee]
    return _CallContract(
        summary.inputs,
        dict(summary.env),
        summary.origin,
        callee_info.positional_params(call),
        callee_info.name,
        True,
    )


def _iter_spec_args(
    call: ast.Call, contract: _CallContract
) -> Iterator[tuple[str, ArraySpec, ast.AST]]:
    """(param name, spec, argument) for statically checkable arguments."""
    for param, argument in iter_call_args(call, contract.params):
        spec = contract.specs.get(param) if isinstance(param, str) else None
        if spec is not None and spec.is_symbolic_only():
            yield param, spec, argument


def build_summaries(
    project: Project, graph: CallGraph
) -> dict[str, FunctionContract]:
    """Fixpoint derivation of :class:`FunctionContract` summaries."""
    summaries: dict[str, FunctionContract] = {}

    def summarize_all() -> bool:
        changed = False
        for qualname, info in project.functions.items():
            if qualname in CONTRACTS:
                continue  # the kernel itself is the ground truth
            derived = _summarize_function(project, graph, summaries, info)
            previous = summaries.get(qualname)
            if derived is None:
                continue
            if previous is None or previous.signature() != derived.signature():
                summaries[qualname] = derived
                changed = True
        return changed

    fixpoint(summarize_all)
    return summaries


def _summarize_function(
    project: Project,
    graph: CallGraph,
    summaries: Mapping[str, FunctionContract],
    info: FunctionInfo,
) -> FunctionContract | None:
    params = set(info.params)
    known = _literal_locals(info)
    result = FunctionContract()
    for node in info.nodes:
        if not isinstance(node, ast.Call):
            continue
        contract = _call_contract(project, graph, summaries, info, node)
        if contract is None:
            continue
        # Bind literal-shaped arguments first: they fix symbols (D=128)
        # that the forwarded parameters then inherit.
        call_env = dict(contract.env)
        forwarded: list[tuple[str, ArraySpec]] = []
        for spec_name, spec, argument in _iter_spec_args(node, contract):
            shape = _resolve_shape(argument, known)
            if shape is not None:
                try:
                    bind_shape(spec, shape, call_env, spec_name)
                except ContractError:
                    continue  # the checking pass reports this site
            elif isinstance(argument, ast.Name) and argument.id in params:
                forwarded.append((argument.id, spec))
        if not forwarded:
            continue
        if not result.origin:
            result.origin = contract.origin
        for param, spec in forwarded:
            result.inputs.setdefault(param, spec)
        for symbol, value in call_env.items():
            if result.env.get(symbol, value) == value:
                result.env[symbol] = value
            else:
                del result.env[symbol]  # conflicting evidence: unknown
    return result if result.inputs else None


@register_analysis(
    (
        "RPR201",
        "static-array-contract",
        "call to a contracted repro.nn kernel with literal shapes that "
        "violate its declared array contract",
    ),
    (
        "RPR202",
        "cross-function-array-contract",
        "call passing literal shapes that violate a contract derived "
        "interprocedurally (parameter flows into a contracted kernel)",
    ),
)
def analyze_contracts(project: Project, graph: CallGraph) -> Iterator[Finding]:
    """Literal shapes violating the contract at each call site.

    RPR202 is the interprocedural counterpart of RPR201: the contract
    at the flagged call site was not declared there but inherited —
    possibly through several wrapper layers — from a contracted
    ``repro.nn`` kernel the argument ultimately flows into.
    """
    summaries = build_summaries(project, graph)
    for info in project.functions.values():
        known = _literal_locals(info)
        for node in info.nodes:
            if not isinstance(node, ast.Call):
                continue
            contract = _call_contract(project, graph, summaries, info, node)
            if contract is None:
                continue
            env = dict(contract.env)
            for spec_name, spec, argument in _iter_spec_args(node, contract):
                shape = _resolve_shape(argument, known)
                if shape is None:
                    continue
                try:
                    bind_shape(spec, shape, env, f"{contract.name}({spec_name})")
                except ContractError as error:
                    if contract.derived:
                        yield Finding.at(
                            info.context.path,
                            node,
                            "RPR202",
                            "cross-function contract violation (derived "
                            f"from {contract.origin}): {error}",
                        )
                    else:
                        yield Finding.at(
                            info.context.path, node, "RPR201", str(error)
                        )
                    break
