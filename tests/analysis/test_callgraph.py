"""Unit tests for the whole-project symbol table and call graph."""

import ast

from repro.analysis.callgraph import (
    build_project,
    local_class_types,
    module_name_for_path,
)
from repro.analysis.engine import FileContext, scope_for_path


def make_context(path: str, source: str) -> FileContext:
    return FileContext(
        path=path,
        source=source,
        tree=ast.parse(source),
        scope=scope_for_path(path),
        lines=source.splitlines(),
    )


def callees_in(graph, caller: str) -> list[str]:
    return [site.callee for site in graph.calls if site.caller == caller]


class TestModuleNameForPath:
    def test_src_rooted(self):
        assert (
            module_name_for_path("src/repro/store/index.py")
            == "repro.store.index"
        )

    def test_init_collapses_to_package(self):
        assert (
            module_name_for_path("src/repro/store/__init__.py")
            == "repro.store"
        )

    def test_non_src_uses_full_path(self):
        assert (
            module_name_for_path("tests/store/test_index.py")
            == "tests.store.test_index"
        )


class TestCallGraph:
    def test_direct_and_imported_calls_resolve(self):
        lib = make_context(
            "src/repro/libmod.py",
            "def helper():\n    return 1\n",
        )
        app = make_context(
            "src/repro/appmod.py",
            "from repro.libmod import helper\n"
            "\n"
            "def run():\n"
            "    return helper()\n",
        )
        project, graph = build_project([lib, app])
        assert callees_in(graph, "repro.appmod.run") == ["repro.libmod.helper"]

    def test_module_alias_attribute_call_resolves(self):
        lib = make_context(
            "src/repro/libmod.py", "def helper():\n    return 1\n"
        )
        app = make_context(
            "src/repro/appmod.py",
            "import repro.libmod as lib\n"
            "\n"
            "def run():\n"
            "    return lib.helper()\n",
        )
        _, graph = build_project([lib, app])
        callees = callees_in(graph, "repro.appmod.run")
        assert callees == ["repro.libmod.helper"]

    def test_self_method_call_resolves(self):
        ctx = make_context(
            "src/repro/box.py",
            "class Box:\n"
            "    def _inner(self):\n"
            "        return 1\n"
            "\n"
            "    def outer(self):\n"
            "        return self._inner()\n",
        )
        _, graph = build_project([ctx])
        callees = callees_in(graph, "repro.box.Box.outer")
        assert callees == ["repro.box.Box._inner"]

    def test_annotated_parameter_method_call_resolves(self):
        ctx = make_context(
            "src/repro/box.py",
            "class Box:\n"
            "    def poke(self):\n"
            "        return 1\n"
            "\n"
            "\n"
            "def drive(box: Box):\n"
            "    return box.poke()\n",
        )
        _, graph = build_project([ctx])
        callees = callees_in(graph, "repro.box.drive")
        assert callees == ["repro.box.Box.poke"]

    def test_constructor_assignment_infers_local_type(self):
        ctx = make_context(
            "src/repro/box.py",
            "class Box:\n"
            "    def poke(self):\n"
            "        return 1\n"
            "\n"
            "\n"
            "def drive():\n"
            "    box = Box()\n"
            "    return box.poke()\n",
        )
        project, graph = build_project([ctx])
        callees = callees_in(graph, "repro.box.drive")
        assert "repro.box.Box.poke" in callees
        drive = project.functions["repro.box.drive"]
        types = local_class_types(drive, project)
        assert types["box"].qualname == "repro.box.Box"

    def test_rebinding_to_unknown_drops_the_type(self):
        ctx = make_context(
            "src/repro/box.py",
            "class Box:\n"
            "    def poke(self):\n"
            "        return 1\n"
            "\n"
            "\n"
            "def drive(factory):\n"
            "    box = Box()\n"
            "    box = factory()\n"
            "    return box.poke()\n",
        )
        project, graph = build_project([ctx])
        assert "repro.box.Box.poke" not in callees_in(graph, "repro.box.drive")

    def test_module_level_calls_attribute_to_body(self):
        ctx = make_context(
            "src/repro/setup.py",
            "def build():\n    return 1\n\n\nSTATE = build()\n",
        )
        _, graph = build_project([ctx])
        callees = callees_in(graph, "repro.setup.<body>")
        assert callees == ["repro.setup.build"]
