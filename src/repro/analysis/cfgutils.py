"""The shared walking core of the interprocedural passes.

``ast.walk`` sees *lexical* structure; most project rules need
*execution* structure: which nodes run as part of the current frame,
on the current thread, and under which locks.  Three things differ:

* **Nested defs and lambdas** execute later, in a frame of their own —
  a ``time.sleep`` inside a closure handed to ``run_in_executor`` does
  not block the event loop when the enclosing ``async def`` runs.
* **Executor-submission arguments** (``loop.run_in_executor(None, fn,
  *args)`` / ``asyncio.to_thread(fn, *args)``) execute on a worker
  thread: the sanctioned escape hatch for blocking work.  Anything
  inside those argument subtrees is exempt from blocking checks.
* **Suspension points** (``await`` / ``async for`` / ``async with``)
  are where the coroutine yields the loop — the exact places a held
  ``threading.Lock`` turns into a deadlock ingredient.

Everything here is walked once per function per run:
:class:`~repro.analysis.callgraph.FunctionInfo` caches the lexical and
own-frame node lists, and the passes iterate those lists instead of
re-walking the tree.  :func:`walk_held` is the one held-lock scanner
(RPR40x and RPR503 both read it) and :func:`fixpoint` the one bounded
iteration every summary propagation runs under.

These helpers are deliberately approximate in the usual linter
direction: when execution context cannot be determined statically the
node is treated as non-blocking/non-suspending — silence, not false
alarms.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator, Mapping, Sequence

__all__ = [
    "FRAME_BOUNDARY_NODES",
    "Held",
    "dotted_name",
    "is_executor_submission",
    "walk_frame",
    "walk_held",
    "suspension_label",
    "fixpoint",
]

#: Nodes whose bodies execute in a different frame (later, elsewhere).
FRAME_BOUNDARY_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

_EXECUTOR_NAMES = frozenset({"run_in_executor", "to_thread"})

# Every summary propagation converges in two or three passes on this
# codebase; the cap only bounds pathological mutual recursion.
_MAX_FIXPOINT_PASSES = 10

#: Locks held at a node: lock key → the statement that acquired it.
Held = Mapping[str, ast.AST]


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` attribute chain as a dotted string, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def fixpoint(step: Callable[[], bool]) -> None:
    """Call ``step`` until it reports no change (bounded)."""
    for _ in range(_MAX_FIXPOINT_PASSES):
        if not step():
            break


def is_executor_submission(call: ast.Call) -> bool:
    """True when ``call`` submits work to an executor thread.

    Matches ``<anything>.run_in_executor(...)``,
    ``<anything>.to_thread(...)`` and a bare ``to_thread(...)`` (from
    ``from asyncio import to_thread``).  Receiver types are not
    checked: no other API in this codebase uses those names, and a
    false "sanctioned" only mutes a finding.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr in _EXECUTOR_NAMES
    if isinstance(func, ast.Name):
        return func.id in _EXECUTOR_NAMES
    return False


def walk_frame(
    root: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Yield every node executing in ``root``'s own frame.

    Descends the function body but not into nested def/lambda bodies
    (yielding the boundary node itself so callers can see it exists),
    and not into the argument subtrees of executor submissions.
    Decorators and parameter defaults are excluded too: they run at
    definition time in the *enclosing* frame.
    """
    stack: list[ast.AST] = list(reversed(root.body))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, FRAME_BOUNDARY_NODES):
            continue
        if isinstance(node, ast.Call) and is_executor_submission(node):
            # The callable and its arguments run on a worker thread;
            # only the receiver expression evaluates here.
            stack.append(node.func)
            continue
        stack.extend(reversed(list(ast.iter_child_nodes(node))))


def _lock_key(expr: ast.AST, is_lock: Callable[[str], bool]) -> str | None:
    name = dotted_name(expr)
    return name if name is not None and is_lock(name) else None


def walk_held(
    stmts: Sequence[ast.stmt],
    is_lock: Callable[[str], bool],
    held: Held | None = None,
) -> Iterator[tuple[ast.AST, Held]]:
    """Yield ``(node, held)`` for every node of a frame.

    ``is_lock`` says whether a dotted expression (``self._lock``)
    denotes a lock the caller tracks; that string is the key in
    ``held``.  ``with <lock>:`` holds the lock over its body; a bare
    ``<lock>.acquire()`` statement holds it until the matching
    ``release()`` or the end of the block — statement lists are
    processed in order and held state is block-local (an acquire
    inside an ``if`` arm does not leak out — best-effort, biased to
    silence).  Nested defs execute later, under unknown locks, and are
    skipped.  Yielded mappings are never mutated afterwards, so
    callers may keep them.
    """
    held = held or {}
    for stmt in stmts:
        yield from _walk_held_node(stmt, is_lock, held)
        call = stmt.value if isinstance(stmt, ast.Expr) else None
        func = call.func if isinstance(call, ast.Call) else None
        if not isinstance(func, ast.Attribute) or func.attr not in (
            "acquire",
            "release",
        ):
            continue
        key = _lock_key(func.value, is_lock)
        if key is None:
            continue
        if func.attr == "acquire":
            held = {**held, key: stmt}
        else:
            held = {k: v for k, v in held.items() if k != key}


def _walk_held_node(
    node: ast.AST, is_lock: Callable[[str], bool], held: Held
) -> Iterator[tuple[ast.AST, Held]]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    yield node, held
    if isinstance(node, (ast.With, ast.AsyncWith)):
        inner = dict(held)
        for item in node.items:
            yield from _walk_held_node(item.context_expr, is_lock, held)
            key = _lock_key(item.context_expr, is_lock)
            if key is not None:
                inner[key] = node
        yield from walk_held(node.body, is_lock, inner)
        return
    for _name, value in ast.iter_fields(node):
        if isinstance(value, list):
            if value and isinstance(value[0], ast.stmt):
                yield from walk_held(value, is_lock, held)
            else:
                for child in value:
                    if isinstance(child, ast.AST):
                        yield from _walk_held_node(child, is_lock, held)
        elif isinstance(value, ast.AST):
            yield from _walk_held_node(value, is_lock, held)


def suspension_label(node: ast.AST) -> str | None:
    """Human label when ``node`` is a suspension point, else None."""
    if isinstance(node, ast.Await):
        return "await"
    if isinstance(node, ast.AsyncFor):
        return "async for"
    if isinstance(node, ast.AsyncWith):
        return "async with"
    return None
