"""Lock-discipline checking (rules RPR401 and RPR402).

The serving layer mutates shared state (`EventIndex` swap-with-last
compaction, `VectorCache` LRU reordering, the metrics registry) under
``threading.RLock``.  The discipline is declared in the source with a
comment on the attribute's initializing assignment::

    self._rows: dict[str, int] = {}  # guarded-by: _lock

and this pass enforces it, RacerD-style, over the project call graph:

* **RPR401** — a guarded attribute is read or written outside a
  ``with self._lock:`` block, either in a public method of the owning
  class or externally through a reference whose class is statically
  known (``def poke(index: EventIndex): index._rows[...] = ...``).
* **RPR402** — a *private* method may access guarded attributes
  lock-free (it documents itself as lock-required, and the requirement
  propagates transitively through private callees); what is flagged is
  any call site that invokes such a method without holding the lock.

A ``# guarded-by:`` naming a lock the class does not have needs no
rule of its own: no ``with`` can hold it, so every access to the
attribute is an RPR401/RPR402 finding.

Which locks are held where comes from the shared scanner
(:func:`repro.analysis.cfgutils.walk_held`), and what each class
declares — guarded attributes, and attributes proven to be
``threading`` locks by construction — from the one class-lock table
(:func:`collect_class_locks`) the async-safety pass (RPR501/RPR503)
reads too.

``__init__``/``__post_init__`` are exempt: construction happens-before
publication.  ``# repro: noqa[RPR401]`` suppressions work as for every
other rule.  Anything dynamically typed stays invisible — silence, not
false alarms.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.analysis.callgraph import (
    CallGraph,
    ClassInfo,
    FunctionInfo,
    Project,
    local_class_types,
    resolve_imported_target,
)
from repro.analysis.cfgutils import Held, fixpoint, walk_held
from repro.analysis.engine import Finding, register_analysis

__all__ = ["THREADING_LOCK_CTORS", "ClassLocks", "collect_class_locks"]

THREADING_LOCK_CTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)
_GUARDED_PATTERN = re.compile(r"#\s*guarded-by:\s*(?P<lock>[A-Za-z_]\w*)")
_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})


@dataclass
class ClassLocks:
    """Lock declarations of one class.

    ``guarded`` maps attr → lock attribute name (``# guarded-by:``);
    ``threading_locks`` are the attributes assigned a ``threading``
    lock constructor — locks by construction, never by name.
    """

    info: ClassInfo
    guarded: dict[str, str] = field(default_factory=dict)
    threading_locks: set[str] = field(default_factory=set)


def _self_attr_target(node: ast.AST) -> str | None:
    """Attribute name when ``node`` is ``self.<attr>`` (any context)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def collect_class_locks(project: Project) -> dict[str, ClassLocks]:
    """The class-lock table: every class declaring a guard or a lock."""
    table: dict[str, ClassLocks] = {}
    for qualname, cls in project.classes.items():
        record = ClassLocks(info=cls)
        lines = cls.context.lines
        for node in cls.nodes:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            is_lock = (
                isinstance(node.value, ast.Call)
                and resolve_imported_target(project, cls.module, node.value)
                in THREADING_LOCK_CTORS
            )
            line_number = node.lineno
            match = (
                _GUARDED_PATTERN.search(lines[line_number - 1])
                if 1 <= line_number <= len(lines)
                else None
            )
            for target in targets:
                attr = _self_attr_target(target)
                if attr is None:
                    continue
                if is_lock:
                    record.threading_locks.add(attr)
                if match is not None:
                    record.guarded[attr] = match.group("lock")
        if record.guarded or record.threading_locks:
            table[qualname] = record
    return table


def _is_private_method(info: FunctionInfo) -> bool:
    """Lock-requiring candidates: ``_helper`` but not ``__dunder__``."""
    return (
        info.is_method
        and info.name.startswith("_")
        and not info.name.startswith("__")
    )


@dataclass
class _Access:
    """One guarded-attribute touch outside its lock."""

    node: ast.AST
    base: str
    attr: str
    lock: str


@dataclass
class _CallRecord:
    """One resolved call site with the locks held around it."""

    node: ast.Call
    callee: str
    base: str | None
    held: Held


@dataclass
class _FunctionScan:
    info: FunctionInfo
    accesses: list[_Access] = field(default_factory=list)
    calls: list[_CallRecord] = field(default_factory=list)


def _is_declared_lock(name: str) -> bool:
    """The discipline is declared by annotation, so any ``<base>.<attr>``
    a ``with`` names counts as that lock."""
    return name.count(".") == 1


def _scan_function(
    project: Project,
    graph: CallGraph,
    table: dict[str, ClassLocks],
    info: FunctionInfo,
) -> _FunctionScan:
    """Unlocked guarded accesses and resolved calls of one function."""
    scan = _FunctionScan(info=info)
    # base name → lock declarations of the class it is known to hold.
    bases: dict[str, ClassLocks] = {}
    if info.class_name is not None:
        own = table.get(f"{info.module}.{info.class_name}")
        if own is not None:
            bases["self"] = own
    for name, cls in local_class_types(info, project).items():
        record = table.get(cls.qualname)
        if record is not None:
            bases[name] = record
    for node, held in walk_held(info.node.body, _is_declared_lock):
        if isinstance(node, ast.Call):
            callee = graph.callee_at(info, node)
            if callee is None:
                continue
            func = node.func
            base = (
                func.value.id
                if isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                else None
            )
            scan.calls.append(_CallRecord(node, callee, base, held))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            base = node.value.id
            lock = bases[base].guarded.get(node.attr) if base in bases else None
            if lock is not None and f"{base}.{lock}" not in held:
                scan.accesses.append(_Access(node, base, node.attr, lock))
    return scan


@register_analysis(
    (
        "RPR401",
        "unlocked-guarded-access",
        "read/write of a '# guarded-by:' attribute outside a 'with "
        "<base>.<lock>:' block (public methods and external references)",
    ),
    (
        "RPR402",
        "unlocked-lock-required-call",
        "call to a private method that accesses guarded attributes "
        "lock-free, from a context not holding the lock (propagated "
        "transitively over the call graph)",
    ),
)
def analyze_locks(project: Project, graph: CallGraph) -> Iterator[Finding]:
    """Every lock-discipline violation of a project."""
    table = collect_class_locks(project)

    if not any(record.guarded for record in table.values()):
        return

    scans: dict[str, _FunctionScan] = {}
    for qualname, info in project.functions.items():
        if info.name in _CONSTRUCTORS:
            continue  # construction happens-before publication
        scan = _scan_function(project, graph, table, info)
        if scan.accesses or scan.calls:
            scans[qualname] = scan

    # Private methods accessing guarded state lock-free *require* the
    # lock instead of violating it; the requirement propagates through
    # private self-call chains to a fixpoint.
    private = {
        qualname: scan
        for qualname, scan in scans.items()
        if _is_private_method(scan.info)
    }
    requires: dict[str, set[str]] = {}
    for qualname, scan in private.items():
        needed = {
            access.lock for access in scan.accesses if access.base == "self"
        }
        if needed:
            requires[qualname] = needed

    def propagate() -> bool:
        changed = False
        for qualname, scan in private.items():
            for call in scan.calls:
                if call.base != "self" or call.callee not in requires:
                    continue
                missing = {
                    lock
                    for lock in requires[call.callee]
                    if f"self.{lock}" not in call.held
                }
                current = requires.setdefault(qualname, set())
                if not missing <= current:
                    current |= missing
                    changed = True
        return changed

    fixpoint(propagate)

    for qualname, scan in scans.items():
        path = scan.info.context.path
        # RPR401: unlocked guarded access anywhere it is a violation —
        # public methods of the owner, and all external references.
        for access in scan.accesses:
            if qualname in private and access.base == "self":
                continue  # folded into the method's lock requirement
            yield Finding.at(
                path,
                access.node,
                "RPR401",
                f"guarded attribute '{access.attr}' (guarded-by: "
                f"{access.lock}) accessed outside 'with "
                f"{access.base}.{access.lock}:'",
            )
        # RPR402: calling a lock-requiring helper without the lock.
        for call in scan.calls:
            needed = requires.get(call.callee)
            if not needed or call.base is None:
                continue
            if qualname in private and call.base == "self":
                continue  # propagated into this method's requirement
            for lock in sorted(needed):
                if f"{call.base}.{lock}" in call.held:
                    continue
                callee_name = call.callee.rsplit(".", 1)[-1]
                yield Finding.at(
                    path,
                    call.node,
                    "RPR402",
                    f"call to lock-requiring helper {callee_name}() "
                    f"without holding '{lock}'; wrap in 'with "
                    f"{call.base}.{lock}:'",
                )
