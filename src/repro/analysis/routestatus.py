"""Route-status contract checking (rule RPR110).

The serving layer's HTTP status codes are a *contract*: clients, the
tests and the ``repro_serving_http_requests_total{route,status}``
series all enumerate them.  A new error path that leaks an undeclared
status (usually a 500 from a bare exception) silently changes that
contract.  This rule makes the contract explicit and machine-checked:

* A class declaring a ``ROUTES`` table (``path → (method, handler
  name)`` — the :class:`~repro.serving.server.ServingServer` dispatch
  shape) must also declare ``ROUTE_STATUSES``: ``path → set of status
  codes`` that route is allowed to produce.
* Every status a handler can produce — literal ``return <int>, ...``
  tuples in its own frame, plus every ``ApiError(<int literal>, ...)``
  constructed in any project function reachable from it through the
  call graph — must appear in the route's declared set.
* Routes missing from ``ROUTE_STATUSES`` and stale entries for routes
  that no longer exist are both flagged.

Best-effort caveats, biased to silence: non-literal statuses
(``ApiError(error.status, ...)``) and dynamically dispatched calls are
invisible; an ``ApiError`` caught and swallowed between construction
and the dispatch boundary still counts as producible (no such pattern
exists in the serving layer today).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.callgraph import CallGraph, FunctionInfo, Project
from repro.analysis.cfgutils import fixpoint
from repro.analysis.engine import Finding, register_analysis

__all__: list[str] = []  # registers its analyses on import; nothing is imported by name


def _literal_str(node: ast.AST) -> str | None:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _literal_int(node: ast.AST) -> int | None:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


def _class_attr_value(cls_node: ast.ClassDef, name: str) -> ast.expr | None:
    """The value expression of a class-level ``name = ...`` assignment."""
    for stmt in cls_node.body:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name) and target.id == name:
                    return stmt.value
        elif (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name
            and stmt.value is not None
        ):
            return stmt.value
    return None


def _parse_routes(value: ast.expr) -> dict[str, str] | None:
    """``ROUTES`` literal → path → handler method name, else None."""
    if not isinstance(value, ast.Dict):
        return None
    routes: dict[str, str] = {}
    for key, item in zip(value.keys, value.values):
        path = _literal_str(key) if key is not None else None
        if (
            path is None
            or not isinstance(item, ast.Tuple)
            or len(item.elts) != 2
        ):
            return None
        handler = _literal_str(item.elts[1])
        if handler is None:
            return None
        routes[path] = handler
    return routes or None


def _parse_status_set(value: ast.expr) -> set[int] | None:
    """A ``{200, 404}`` / ``frozenset({...})`` / ``set([...])`` literal."""
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else None
        if name in ("frozenset", "set") and len(value.args) == 1:
            return _parse_status_set(value.args[0])
        return None
    if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
        statuses: set[int] = set()
        for element in value.elts:
            status = _literal_int(element)
            if status is None:
                return None
            statuses.add(status)
        return statuses
    return None


def _parse_status_table(value: ast.expr) -> dict[str, set[int]] | None:
    if not isinstance(value, ast.Dict):
        return None
    table: dict[str, set[int]] = {}
    for key, item in zip(value.keys, value.values):
        path = _literal_str(key) if key is not None else None
        statuses = _parse_status_set(item)
        if path is None or statuses is None:
            return None
        table[path] = statuses
    return table


def _api_error_statuses(info: FunctionInfo) -> set[int]:
    """Literal statuses of ``ApiError(<int>, ...)`` built in ``info``."""
    statuses: set[int] = set()
    for node in info.nodes:
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        else:
            continue
        if name != "ApiError" or not node.args:
            continue
        status = _literal_int(node.args[0])
        if status is not None:
            statuses.add(status)
    return statuses


def _returned_statuses(info: FunctionInfo) -> set[int]:
    """Literal first elements of ``return <int>, ...`` tuples."""
    statuses: set[int] = set()
    for node in info.nodes:
        if (
            isinstance(node, ast.Return)
            and isinstance(node.value, ast.Tuple)
            and node.value.elts
        ):
            status = _literal_int(node.value.elts[0])
            if status is not None:
                statuses.add(status)
    return statuses


def _status_closure(project: Project, graph: CallGraph) -> dict[str, set[int]]:
    """Per-function ApiError statuses, closed over project calls."""
    closure = {
        qualname: _api_error_statuses(info)
        for qualname, info in project.functions.items()
    }

    def propagate() -> bool:
        changed = False
        for site in graph.calls:
            if site.kind != "function":
                continue
            callee = closure.get(site.callee)
            caller = closure.get(site.caller)
            if callee is None or caller is None or callee <= caller:
                continue
            caller |= callee
            changed = True
        return changed

    fixpoint(propagate)
    return closure


@register_analysis(
    (
        "RPR110",
        "route-status-contract",
        "every HTTP route handler (ROUTES table) may only produce "
        "status codes declared in the class's ROUTE_STATUSES table; "
        "missing and stale table entries are flagged too",
    ),
)
def analyze_route_statuses(
    project: Project, graph: CallGraph
) -> Iterator[Finding]:
    """RPR110: handlers produce only the statuses their route declares."""
    closure: dict[str, set[int]] | None = None
    for cls in project.classes.values():
        routes_value = _class_attr_value(cls.node, "ROUTES")
        routes = (
            _parse_routes(routes_value) if routes_value is not None else None
        )
        if routes_value is None or routes is None:
            continue
        path = cls.context.path
        table_value = _class_attr_value(cls.node, "ROUTE_STATUSES")
        if table_value is None:
            yield Finding.at(
                path,
                routes_value,
                "RPR110",
                f"class {cls.name} declares ROUTES but no "
                "ROUTE_STATUSES contract table; declare the status "
                "codes each route may produce",
            )
            continue
        table = _parse_status_table(table_value)
        if table is None:
            yield Finding.at(
                path,
                table_value,
                "RPR110",
                f"class {cls.name}: ROUTE_STATUSES must be a literal "
                "dict of path -> set of int status codes",
            )
            continue
        for route in routes:
            if route not in table:
                yield Finding.at(
                    path,
                    table_value,
                    "RPR110",
                    f"route '{route}' is in ROUTES but missing from "
                    "ROUTE_STATUSES; declare its status contract",
                )
        for route in table:
            if route not in routes:
                yield Finding.at(
                    path,
                    table_value,
                    "RPR110",
                    f"ROUTE_STATUSES entry '{route}' is stale: no such "
                    "route in ROUTES",
                )
        if closure is None:
            closure = _status_closure(project, graph)
        for route, handler_name in routes.items():
            handler = cls.methods.get(handler_name)
            declared = table.get(route)
            if handler is None or declared is None:
                continue
            produced = _returned_statuses(handler) | closure.get(
                handler.qualname, set()
            )
            undeclared = sorted(produced - declared)
            if undeclared:
                listing = ", ".join(str(s) for s in undeclared)
                yield Finding.at(
                    path,
                    handler.node,
                    "RPR110",
                    f"handler {handler_name}() for route '{route}' can "
                    f"produce undeclared status(es) {listing}; add "
                    "them to ROUTE_STATUSES or remove the error path",
                )
