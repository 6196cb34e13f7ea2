"""Whole-project symbol table and call graph for interprocedural rules.

The single-file analyses (RPR1xx) stop at function boundaries; the
interprocedural passes (RPR30x determinism taint, RPR40x lock
discipline, RPR5xx async safety, RPR110 route statuses) need to know
*who calls whom* across modules.  This module
builds that view once per analyzer run, and with it the shared core
every pass reads instead of re-deriving: the per-function node lists
(:attr:`FunctionInfo.nodes` lexical, :attr:`FunctionInfo.frame_nodes`
own-frame), walked once and cached, and the one call-site lookup
:meth:`CallGraph.callee_at`.  The view:

* :class:`Project` — every parsed file, a module table keyed by dotted
  module name (``src/repro/store/index.py`` → ``repro.store.index``),
  and per-module import/alias maps (``import numpy as np``, ``from
  repro.nn.cosine import pair_cosine as pc``, relative imports).
* :class:`FunctionInfo` / :class:`ClassInfo` — one record per
  module-level function, class, and method, keyed by qualified name
  (``repro.store.index.EventIndex.upsert``).
* :class:`CallGraph` — resolved call sites.  Resolution covers direct
  names (local or imported), dotted module attributes
  (``module.func(...)`` through an import alias), ``self.method(...)``
  inside a class, and method calls on locals whose class is known from
  a parameter annotation or a constructor assignment in the same
  function (``index = EventIndex(); index.upsert(...)``).

Beyond ordinary calls the graph records one *reference* edge kind the
async-safety pass (RPR501) consumes: ``kind="callback"`` — a project
function registered via ``loop.call_soon/call_later/call_at/
call_soon_threadsafe`` or ``add_done_callback``: it runs *on the event
loop*, so blocking there stalls every request in flight.

Resolution is deliberately best-effort: anything dynamic (globals(),
getattr, decorators returning new callables, inheritance dispatch)
stays unresolved and the dependent passes simply know less.  That is
the right failure mode for a linter — silence, not false alarms.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from repro.analysis.cfgutils import dotted_name, walk_frame
from repro.analysis.engine import FileContext

__all__ = [
    "module_name_for_path",
    "FunctionInfo",
    "ClassInfo",
    "CallSite",
    "Project",
    "CallGraph",
    "build_project",
    "local_class_types",
    "resolve_imported_target",
    "iter_call_args",
]

# Scheduling APIs taking a function *reference* that then runs on the
# event loop itself: name → index of the callable argument.
_CALLBACK_METHODS = {
    "call_soon": 0,
    "call_soon_threadsafe": 0,
    "call_later": 1,
    "call_at": 1,
    "add_done_callback": 0,
}


def module_name_for_path(path: str | Path) -> str:
    """Dotted module name for a source path.

    Files under a ``src`` directory are named from the package root
    (``src/repro/store/index.py`` → ``repro.store.index``); anything
    else (tests, benchmarks, examples, bare scripts) is named from its
    path so distinct files never collide (``tests/store/test_index.py``
    → ``tests.store.test_index``).
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src") :]
    parts = [part for part in parts if part not in ("", ".", "..")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "<anonymous>"


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qualname: str
    module: str
    name: str
    class_name: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    context: FileContext

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def is_async(self) -> bool:
        return isinstance(self.node, ast.AsyncFunctionDef)

    @property
    def params(self) -> list[str]:
        args = self.node.args
        return [
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        ]

    def positional_params(self, call: ast.Call) -> list[str]:
        """Parameter names that positional arguments of ``call`` bind to."""
        if self.is_method and isinstance(call.func, ast.Attribute):
            # obj.method(...) / self.method(...): ``self`` is the receiver.
            return self.params[1:]
        return self.params

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node lexically inside the function (``ast.walk`` order),
        nested defs, decorators and defaults included."""
        return list(ast.walk(self.node))

    @cached_property
    def frame_nodes(self) -> list[ast.AST]:
        """Nodes executing in the function's own frame on the calling
        thread (see :func:`repro.analysis.cfgutils.walk_frame`)."""
        return list(walk_frame(self.node))


@dataclass
class ClassInfo:
    """One module-level class and its directly defined methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    context: FileContext
    methods: dict[str, FunctionInfo] = field(default_factory=dict)

    @cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node lexically inside the class (``ast.walk`` order)."""
        return list(ast.walk(self.node))


@dataclass(frozen=True)
class CallSite:
    """One resolved call: ``caller`` invokes ``callee`` at ``node``.

    ``caller`` is the qualified name of the enclosing function/method,
    or ``<module>.<body>`` for module-level statements.  ``kind`` is
    ``"function"`` for calls resolved to a project function/method,
    ``"class"`` for constructor calls resolved to a project class, and
    ``"callback"`` for a function reference scheduled to run on the
    event loop (``call_soon``/``call_later``/``add_done_callback`` and
    friends).
    """

    caller: str
    callee: str
    kind: str
    path: str
    node: ast.Call


def _module_body_qualname(module: str) -> str:
    return f"{module}.<body>"


class Project:
    """Parsed files + symbol tables, shared by the project rules."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.contexts: list[FileContext] = list(contexts)
        self.modules: dict[str, FileContext] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.imports: dict[str, dict[str, str]] = {}
        self._classes_by_name: dict[str, list[ClassInfo]] = defaultdict(list)
        for context in self.contexts:
            module = module_name_for_path(context.path)
            # First file wins on (pathological) module-name collision.
            if module in self.modules:
                continue
            self.modules[module] = context
            self.imports[module] = _collect_imports(context.nodes, module)
            self._collect_definitions(module, context)

    # -- construction --------------------------------------------------

    def _collect_definitions(self, module: str, context: FileContext) -> None:
        tree = context.tree
        if not isinstance(tree, ast.Module):
            return
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = FunctionInfo(
                    qualname=f"{module}.{node.name}",
                    module=module,
                    name=node.name,
                    class_name=None,
                    node=node,
                    context=context,
                )
                self.functions[info.qualname] = info
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{module}.{node.name}",
                    module=module,
                    name=node.name,
                    node=node,
                    context=context,
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        method = FunctionInfo(
                            qualname=f"{cls.qualname}.{item.name}",
                            module=module,
                            name=item.name,
                            class_name=node.name,
                            node=item,
                            context=context,
                        )
                        cls.methods[item.name] = method
                        self.functions[method.qualname] = method
                self.classes[cls.qualname] = cls
                self._classes_by_name[cls.name].append(cls)

    # -- lookup --------------------------------------------------------

    def class_named(self, name: str) -> ClassInfo | None:
        """The unique project class with this simple name, else None."""
        candidates = self._classes_by_name.get(name, [])
        return candidates[0] if len(candidates) == 1 else None

    def resolve_name(self, module: str, name: str) -> str | None:
        """Resolve a bare name used in ``module`` to a qualified name."""
        direct = f"{module}.{name}"
        if direct in self.functions or direct in self.classes:
            return direct
        target = self.imports.get(module, {}).get(name)
        if target is not None and (
            target in self.functions or target in self.classes
        ):
            return target
        return None

    def resolve_dotted(self, module: str, dotted: str) -> str | None:
        """Resolve ``alias.attr[.attr...]`` through the import map."""
        head, _, rest = dotted.partition(".")
        if not rest:
            return self.resolve_name(module, dotted)
        target = self.imports.get(module, {}).get(head)
        if target is None:
            return None
        qualified = f"{target}.{rest}"
        if qualified in self.functions or qualified in self.classes:
            return qualified
        return None


def _collect_imports(nodes: Sequence[ast.AST], module: str) -> dict[str, str]:
    """Local name → fully qualified import target for one module."""
    mapping: dict[str, str] = {}
    package_parts = module.split(".")[:-1]
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    mapping[alias.asname] = alias.name
                else:
                    # ``import a.b.c`` binds ``a``; dotted uses are
                    # resolved via resolve_dotted joining the rest.
                    mapping[alias.name.split(".")[0]] = alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = package_parts[: len(package_parts) - node.level + 1]
                base = ".".join(
                    base_parts + ([node.module] if node.module else [])
                )
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                mapping[alias.asname or alias.name] = f"{base}.{alias.name}"
    return mapping


def _annotation_class_name(annotation: ast.AST | None) -> str | None:
    """Trailing class name of a parameter annotation, if plausible."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        # String annotation: take the trailing dotted segment.
        text = annotation.value.strip()
        if text.replace(".", "").replace("_", "").isalnum():
            return text.split(".")[-1]
        return None
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        # ``EventIndex | None`` — use the non-None side when unique.
        sides = [
            _annotation_class_name(side)
            for side in (annotation.left, annotation.right)
        ]
        names = [name for name in sides if name is not None and name != "None"]
        return names[0] if len(names) == 1 else None
    return None


def local_class_types(
    info: FunctionInfo, project: Project
) -> dict[str, ClassInfo]:
    """Names in ``info`` whose project class is statically known.

    Two evidence sources: parameter annotations naming a project class,
    and assignments from a constructor call (``x = EventIndex(...)``).
    A name rebound to anything unrecognized is dropped — better to
    know nothing than the wrong class.
    """
    types: dict[str, ClassInfo] = {}
    module = info.module
    args = info.node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        name = _annotation_class_name(arg.annotation)
        if name is None:
            continue
        cls = project.class_named(name)
        if cls is not None:
            types[arg.arg] = cls
    for node in info.nodes:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = node.value
        assigned: ClassInfo | None = None
        if isinstance(value, ast.Call):
            callee: str | None = None
            if isinstance(value.func, ast.Name):
                callee = project.resolve_name(module, value.func.id)
            elif isinstance(value.func, ast.Attribute):
                dotted = dotted_name(value.func)
                if dotted is not None:
                    callee = project.resolve_dotted(module, dotted)
            if callee is not None:
                assigned = project.classes.get(callee)
        if assigned is not None:
            types[target.id] = assigned
        elif target.id in types:
            del types[target.id]
    return types


def resolve_imported_target(
    project: Project, module: str, call: ast.Call
) -> str | None:
    """Dotted target of a call through the module's import map.

    Unlike call-graph resolution this does not require the target to
    be part of the analyzed project — stdlib and numpy targets resolve
    too (``import time`` + ``time.sleep(...)`` → ``"time.sleep"``).
    Used by the taint and async-safety passes to match declared
    source/sink registries.
    """
    imports = project.imports.get(module, {})
    func = call.func
    if isinstance(func, ast.Name):
        return imports.get(func.id, f"{module}.{func.id}")
    dotted = dotted_name(func) if isinstance(func, ast.Attribute) else None
    if dotted is not None:
        head, _, rest = dotted.partition(".")
        if head in imports:
            return f"{imports[head]}.{rest}"
    return None


def iter_call_args(
    call: ast.Call, params: Sequence[str] = ()
) -> Iterator[tuple[int | str, ast.AST]]:
    """``(parameter, argument)`` for each explicit argument of ``call``.

    Positional arguments bind to ``params`` in order (a position past
    the end keeps its index); keyword arguments bind by name; ``**``
    unpacking is skipped.
    """
    for position, argument in enumerate(call.args):
        yield (params[position] if position < len(params) else position), argument
    for keyword in call.keywords:
        if keyword.arg is not None:
            yield keyword.arg, keyword.value


class CallGraph:
    """Resolved call sites over a :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.calls: list[CallSite] = []
        self._site_index: dict[tuple[str, int, int], str] = {}
        for module, context in project.modules.items():
            self._resolve_module(module, context)

    def callee_at(self, info: FunctionInfo, call: ast.Call) -> str | None:
        """Project function ``call`` (inside ``info``) resolved to."""
        return self._site_index.get(
            (info.qualname, call.lineno, call.col_offset)
        )

    def _resolve_module(self, module: str, context: FileContext) -> None:
        # Each call site attributes to the module-level function or
        # method lexically enclosing it; what no function claims is a
        # module-level call (class bodies, top-level statements).
        claimed: set[int] = set()
        for info in self.project.functions.values():
            if info.module != module:
                continue
            types = local_class_types(info, self.project)
            for node in info.nodes:
                claimed.add(id(node))
                if isinstance(node, ast.Call):
                    self._resolve_call(module, context, info, types, node)
        for node in context.nodes:
            if isinstance(node, ast.Call) and id(node) not in claimed:
                self._resolve_call(module, context, None, {}, node)

    def _resolve_call(
        self,
        module: str,
        context: FileContext,
        enclosing: FunctionInfo | None,
        local_types: dict[str, ClassInfo],
        node: ast.Call,
    ) -> None:
        caller = (
            enclosing.qualname
            if enclosing is not None
            else _module_body_qualname(module)
        )
        callee = self._resolve(module, enclosing, local_types, node.func)
        if callee is not None:
            kind = "class" if callee in self.project.classes else "function"
            self._record(caller, callee, kind, context, node)
        target = self._callback_target(module, enclosing, local_types, node)
        if target is not None:
            self._record(caller, target, "callback", context, node)

    def _record(
        self,
        caller: str,
        callee: str,
        kind: str,
        context: FileContext,
        node: ast.Call,
    ) -> None:
        site = CallSite(
            caller=caller, callee=callee, kind=kind, path=context.path, node=node
        )
        self.calls.append(site)
        if kind == "function":
            self._site_index[caller, node.lineno, node.col_offset] = callee

    def _callback_target(
        self,
        module: str,
        enclosing: FunctionInfo | None,
        local_types: dict[str, ClassInfo],
        node: ast.Call,
    ) -> str | None:
        """The project function ``node`` schedules on the event loop.

        ``loop.call_soon(fn, ...)`` does not *call* ``fn`` at the site,
        but the reference determines where ``fn`` later runs — exactly
        what the async-safety pass needs to know.
        """
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return None
        index = _CALLBACK_METHODS.get(name)
        if index is None or index >= len(node.args):
            return None
        target = self._resolve(module, enclosing, local_types, node.args[index])
        return target if target in self.project.functions else None

    def _resolve(
        self,
        module: str,
        enclosing: FunctionInfo | None,
        local_types: dict[str, ClassInfo],
        node: ast.AST,
    ) -> str | None:
        """The project function or class a name or attribute denotes."""
        if isinstance(node, ast.Name):
            return self.project.resolve_name(module, node.id)
        if not isinstance(node, ast.Attribute):
            return None
        # self.method inside a class body.
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and enclosing is not None
            and enclosing.class_name is not None
        ):
            cls = self.project.classes.get(f"{module}.{enclosing.class_name}")
            if cls is not None and node.attr in cls.methods:
                return cls.methods[node.attr].qualname
            return None
        # obj.method on a local of known project class.
        if isinstance(node.value, ast.Name):
            cls = local_types.get(node.value.id)
            if cls is not None and node.attr in cls.methods:
                return cls.methods[node.attr].qualname
        # module.func through an import alias chain.
        dotted = dotted_name(node)
        if dotted is not None:
            return self.project.resolve_dotted(module, dotted)
        return None


def build_project(contexts: Sequence[FileContext]) -> tuple[Project, CallGraph]:
    """Convenience: symbol tables + call graph in one call."""
    project = Project(contexts)
    return project, CallGraph(project)
