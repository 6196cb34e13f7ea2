"""Async-safety analysis (rules RPR501, RPR503, RPR504).

The serving layer (PR 8) put the ranker behind an asyncio loop; these
rules guard three ways that layer dies quietly under load.  A fourth,
the awaitable nobody awaits, is the interpreter's to detect: the test
suite runs with ``RuntimeWarning`` as an error (DESIGN.md §9.2).

* **RPR501 — event-loop blocking taint.**  A declared registry of
  blocking sinks (``time.sleep``, socket/file/subprocess I/O,
  ``threading.Lock.acquire``, and the heavy project entry points —
  ``RepresentationService.rank_events*``, the tower-encode paths,
  ``render_prometheus``) is propagated interprocedurally over the
  call graph: a *sync* function that reaches a sink becomes blocking;
  an ``async def`` frame that calls a sink or a blocking sync
  function is flagged, as is any function registered as an event-loop
  callback (``loop.call_soon``/``call_later``…) that blocks.  Work
  handed to ``run_in_executor``/``asyncio.to_thread`` is the
  sanctioned escape hatch and is modeled explicitly: nothing inside
  an executor-submission argument is flagged.
* **RPR503 — threading lock held across a suspension point.**  A
  CFG-level scan of every ``async def``: no ``with lock:`` region or
  manual ``acquire()``…``release()`` span may contain an ``await``,
  ``async for``, or ``async with`` — the coroutine parks holding a
  *thread* lock, and any other task (or executor thread) contending
  for it deadlocks the loop.  Locks are recognized by construction
  (``threading.Lock/RLock/Condition/Semaphore`` assigned to the
  attribute or local), never by name; ``asyncio`` locks are exempt.
* **RPR504 — future lifecycle completeness.**  A function creating
  ``loop.create_future()``/``asyncio.Future()`` objects (the
  ``MicroBatcher`` pattern) must resolve, cancel, or hand off every
  future: a future that is neither is a waiter that hangs forever,
  and a ``set_result`` inside a ``try`` with no ``set_exception`` /
  ``cancel`` in an except/finally leaves exception paths unresolved.

All three are best-effort in the linter direction: dynamic dispatch,
unresolvable receivers, and nested-function bodies stay invisible —
silence, not false alarms.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    CallGraph,
    FunctionInfo,
    Project,
    local_class_types,
    resolve_imported_target,
)
from repro.analysis.cfgutils import (
    dotted_name,
    fixpoint,
    suspension_label,
    walk_held,
)
from repro.analysis.engine import Finding, register_analysis
from repro.analysis.locks import (
    THREADING_LOCK_CTORS,
    ClassLocks,
    collect_class_locks,
)

__all__: list[str] = []  # registers its analyses on import; nothing is imported by name

# --- sink registry ----------------------------------------------------
# Fully qualified callables that block the calling thread.  Resolution
# goes through each module's import map, so aliases work; project
# entry points are declared by qualified name.
BLOCKING_CALLABLE_SINKS: dict[str, str] = {
    "time.sleep": "sleeps the calling thread",
    "socket.create_connection": "blocking socket connect",
    "socket.getaddrinfo": "blocking DNS resolution",
    "subprocess.run": "waits on a child process",
    "subprocess.call": "waits on a child process",
    "subprocess.check_call": "waits on a child process",
    "subprocess.check_output": "waits on a child process",
    "subprocess.Popen": "spawns a child process with blocking pipes",
    "os.system": "waits on a shell",
    "os.waitpid": "waits on a child process",
    "urllib.request.urlopen": "blocking HTTP round-trip",
    # Heavy project entry points: each is a full registry render or a
    # GEMV/GEMM over the event pool — milliseconds, not microseconds.
    "repro.obs.export.render_prometheus": "renders the full metrics registry",
}
# Builtins that block; matched only when the name is not locally
# rebound or imported to mean something else.
BLOCKING_BUILTIN_SINKS: dict[str, str] = {
    "open": "blocking file I/O",
    "input": "waits on stdin",
}
# Method names whose receiver cannot be resolved statically but that
# uniquely identify heavy serving entry points in this project.
# ``acquire`` is special-cased: it only matches on receivers proven to
# be threading locks (an awaited ``acquire()`` is asyncio's, exempt).
BLOCKING_METHOD_SINKS: dict[str, str] = {
    "rank_events": "heavy GEMV ranking entry point",
    "rank_events_batch": "heavy GEMM ranking entry point",
    "user_vector": "tower encode entry point",
    "event_vector": "tower encode entry point",
    "warm": "bulk tower encoding",
    "acquire": "threading-lock acquire can park the thread",
}

_FUTURE_CTORS = frozenset({"asyncio.Future", "concurrent.futures.Future"})
_RESOLVING_ATTRS = frozenset({"set_result", "set_exception", "cancel"})
_MAX_CHAIN = 5


@dataclass
class _SinkHit:
    """One direct blocking-sink call in a frame."""

    display: str
    why: str
    node: ast.Call


@dataclass
class _BlockInfo:
    """Why a sync function is considered blocking."""

    why: str
    chain: tuple[str, ...]  # call path from the function's body to the sink


@dataclass
class _FrameScan:
    """Everything the async rules need about one function's frame."""

    info: FunctionInfo
    awaited_calls: set[int] = field(default_factory=set)
    sink_hits: list[_SinkHit] = field(default_factory=list)
    # Resolved project calls that are not themselves sinks.
    project_calls: dict[ast.Call, str] = field(default_factory=dict)
    lock_exprs: set[str] = field(default_factory=set)


def _scan_frame(
    project: Project,
    graph: CallGraph,
    class_locks: dict[str, ClassLocks],
    info: FunctionInfo,
) -> _FrameScan:
    scan = _FrameScan(info=info)
    imports = project.imports.get(info.module, {})

    # Lock expressions visible in this frame: own lock attributes,
    # locks on annotated-parameter classes, and local constructions.
    bases = {
        name: cls.qualname
        for name, cls in local_class_types(info, project).items()
    }
    if info.class_name is not None:
        bases["self"] = f"{info.module}.{info.class_name}"
    for name, qualname in bases.items():
        if qualname in class_locks:
            for attr in class_locks[qualname].threading_locks:
                scan.lock_exprs.add(f"{name}.{attr}")
    for node in info.frame_nodes:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and resolve_imported_target(project, info.module, node.value)
            in THREADING_LOCK_CTORS
        ):
            scan.lock_exprs.add(node.targets[0].id)
        elif isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            scan.awaited_calls.add(id(node.value))

    for node in info.frame_nodes:
        if not isinstance(node, ast.Call):
            continue
        hit = _classify_sink(project, info.module, imports, scan, node)
        if hit is not None:
            scan.sink_hits.append(hit)
            continue
        callee = graph.callee_at(info, node)
        if callee is not None:
            scan.project_calls[node] = callee
    return scan


def _classify_sink(
    project: Project,
    module: str,
    imports: dict[str, str],
    scan: _FrameScan,
    call: ast.Call,
) -> _SinkHit | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        if attr == "acquire":
            receiver = dotted_name(func.value)
            if receiver in scan.lock_exprs and id(call) not in scan.awaited_calls:
                return _SinkHit(
                    display=f"{receiver}.acquire",
                    why=BLOCKING_METHOD_SINKS["acquire"],
                    node=call,
                )
            # ``await x.acquire()`` (asyncio) or unknown receiver.
        elif attr in BLOCKING_METHOD_SINKS and id(call) not in scan.awaited_calls:
            return _SinkHit(
                display=f".{attr}",
                why=BLOCKING_METHOD_SINKS[attr],
                node=call,
            )
    target = resolve_imported_target(project, module, call)
    if target in BLOCKING_CALLABLE_SINKS:
        return _SinkHit(
            display=target,
            why=BLOCKING_CALLABLE_SINKS[target],
            node=call,
        )
    if (
        isinstance(func, ast.Name)
        and func.id in BLOCKING_BUILTIN_SINKS
        and func.id not in imports
        and project.resolve_name(module, func.id) is None
    ):
        return _SinkHit(
            display=func.id,
            why=BLOCKING_BUILTIN_SINKS[func.id],
            node=call,
        )
    return None


def _blocking_fixpoint(
    project: Project, scans: dict[str, _FrameScan]
) -> dict[str, _BlockInfo]:
    """Sync project functions that (transitively) reach a sink."""
    blocking: dict[str, _BlockInfo] = {}
    for qualname in sorted(scans):
        scan = scans[qualname]
        if scan.info.is_async or not scan.sink_hits:
            continue
        first = min(
            scan.sink_hits,
            key=lambda hit: (hit.node.lineno, hit.node.col_offset),
        )
        blocking[qualname] = _BlockInfo(
            why=first.why, chain=(first.display,)
        )

    def propagate() -> bool:
        changed = False
        for qualname in sorted(scans):
            scan = scans[qualname]
            if scan.info.is_async or qualname in blocking:
                continue
            for callee in scan.project_calls.values():
                info = blocking.get(callee)
                if info is None or project.functions[callee].is_async:
                    continue
                simple = callee.rsplit(".", 1)[-1]
                chain = (f"{simple}()", *info.chain)[:_MAX_CHAIN]
                blocking[qualname] = _BlockInfo(why=info.why, chain=chain)
                changed = True
                break
        return changed

    fixpoint(propagate)
    return blocking


# --- RPR501 -----------------------------------------------------------


def _blocking_findings(
    project: Project,
    graph: CallGraph,
    scans: dict[str, _FrameScan],
    blocking: dict[str, _BlockInfo],
) -> Iterator[Finding]:
    for qualname in sorted(scans):
        scan = scans[qualname]
        if not scan.info.is_async:
            continue
        path = scan.info.context.path
        for hit in scan.sink_hits:
            yield Finding.at(
                path,
                hit.node,
                "RPR501",
                f"blocking call {hit.display}() on the event loop "
                f"({hit.why}); wrap it in run_in_executor/to_thread "
                "or use an async equivalent",
            )
        for node, callee in scan.project_calls.items():
            info = blocking.get(callee)
            if info is None or project.functions[callee].is_async:
                continue
            simple = callee.rsplit(".", 1)[-1]
            chain = " -> ".join((f"{simple}()", *info.chain))
            yield Finding.at(
                path,
                node,
                "RPR501",
                f"call to {simple}() blocks the event loop: {chain} "
                f"({info.why}); hand the blocking work to "
                "run_in_executor/to_thread",
            )
    # Event-loop callbacks run on the loop no matter who registers
    # them; a blocking callback stalls every request in flight.
    for site in graph.calls:
        if site.kind != "callback":
            continue
        info = blocking.get(site.callee)
        callee_info = project.functions.get(site.callee)
        if info is None or callee_info is None or callee_info.is_async:
            continue
        simple = site.callee.rsplit(".", 1)[-1]
        chain = " -> ".join((f"{simple}()", *info.chain))
        yield Finding.at(
            site.path,
            site.node,
            "RPR501",
            f"callback {simple}() scheduled on the event loop "
            f"blocks: {chain} ({info.why}); schedule non-blocking "
            "work or hand it to run_in_executor",
        )


# --- RPR503 -----------------------------------------------------------


def _lock_span_findings(scans: dict[str, _FrameScan]) -> Iterator[Finding]:
    """Threading-lock regions (``with`` or manual ``acquire()`` …
    ``release()`` spans) that contain a suspension point."""
    for qualname in sorted(scans):
        scan = scans[qualname]
        if not scan.info.is_async or not scan.lock_exprs:
            continue
        body = scan.info.node.body
        for node, held in walk_held(body, scan.lock_exprs.__contains__):
            label = suspension_label(node)
            if label is None:
                continue
            for lock, acquired_at in held.items():
                yield Finding.at(
                    scan.info.context.path,
                    node,
                    "RPR503",
                    f"threading lock '{lock}' (acquired at line "
                    f"{getattr(acquired_at, 'lineno', '?')}) held across "
                    f"'{label}' — the coroutine suspends holding a thread "
                    "lock; use asyncio.Lock or release before suspending",
                )


# --- RPR504 -----------------------------------------------------------


def _is_future_creation(
    project: Project, module: str, call: ast.Call
) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "create_future":
        return True
    return resolve_imported_target(project, module, call) in _FUTURE_CTORS


def _contains_name(node: ast.AST, name: str) -> bool:
    return any(
        isinstance(child, ast.Name) and child.id == name
        for child in ast.walk(node)
    )


def _resolves(node: ast.AST, name: str) -> bool:
    """``<name>.set_result/set_exception/cancel(...)``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _RESOLVING_ATTRS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == name
    )


def _future_findings(
    project: Project, scans: dict[str, _FrameScan]
) -> Iterator[Finding]:
    for qualname in sorted(scans):
        info = scans[qualname].info
        creations: dict[str, ast.Assign] = {}
        for node in info.frame_nodes:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and _is_future_creation(project, info.module, node.value)
            ):
                creations.setdefault(node.targets[0].id, node)
        for name, creation in sorted(creations.items()):
            yield from _check_future_lifecycle(info, name, creation)


def _check_future_lifecycle(
    info: FunctionInfo, name: str, creation: ast.Assign
) -> Iterator[Finding]:
    path = info.context.path
    resolutions: list[ast.AST] = []
    handed_off = False
    for node in info.frame_nodes:
        if _resolves(node, name):
            resolutions.append(node)
        elif isinstance(node, ast.Call):
            for argument in (*node.args, *(kw.value for kw in node.keywords)):
                if _contains_name(argument, name):
                    handed_off = True
        elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
            if node.value is not None and _contains_name(node.value, name):
                handed_off = True
        elif isinstance(node, ast.Assign) and node is not creation:
            if _contains_name(node.value, name):
                handed_off = True
    if handed_off:
        return
    if not resolutions:
        yield Finding.at(
            path,
            creation,
            "RPR504",
            f"future '{name}' is never resolved, cancelled, or handed "
            "off — any awaiter hangs forever; set a result/exception "
            "on every path or pass the future to its resolver",
        )
        return
    # Exception-path completeness: a resolution inside a try body needs
    # a resolving except/finally, or the raising path leaks the future.
    trys = [node for node in info.frame_nodes if isinstance(node, ast.Try)]
    for resolution in resolutions:
        enclosing = [
            t
            for t in trys
            if any(resolution in ast.walk(stmt) for stmt in t.body)
        ]
        if not enclosing:
            continue
        rescued = any(
            _resolves(node, name)
            for t in enclosing
            for stmt in (
                *(stmt for handler in t.handlers for stmt in handler.body),
                *t.finalbody,
            )
            for node in ast.walk(stmt)
        )
        if not rescued:
            yield Finding.at(
                path,
                resolution,
                "RPR504",
                f"future '{name}' resolved inside 'try' with no "
                "set_exception/cancel in except/finally — an exception "
                "before resolution leaves the awaiter hanging",
            )


# --- the registered analysis -----------------------------------------


@register_analysis(
    (
        "RPR501",
        "event-loop-blocking-call",
        "blocking sink (sleep/socket/file/subprocess/lock-acquire or a "
        "declared heavy entry point) called from an async frame or an "
        "event-loop callback; run_in_executor/to_thread is the "
        "sanctioned escape hatch",
    ),
    (
        "RPR503",
        "lock-across-await",
        "with-lock region or manual acquire()/release() span contains "
        "an await/async-for/async-with; a suspended coroutine holding "
        "a thread lock deadlocks the loop under contention",
    ),
    (
        "RPR504",
        "future-lifecycle",
        "loop.create_future()/Future() object neither resolved, "
        "cancelled, nor handed off — or set_result unpaired with "
        "set_exception/cancel on exception paths",
    ),
)
def analyze_async_safety(
    project: Project, graph: CallGraph
) -> Iterator[Finding]:
    class_locks = collect_class_locks(project)
    scans = {
        qualname: _scan_frame(project, graph, class_locks, info)
        for qualname, info in project.functions.items()
    }
    blocking = _blocking_fixpoint(project, scans)
    yield from _blocking_findings(project, graph, scans, blocking)
    yield from _lock_span_findings(scans)
    yield from _future_findings(project, scans)
