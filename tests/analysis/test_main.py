"""Exit codes and report plumbing of ``python -m repro.analysis``."""

import pytest

from repro.analysis import all_rules
from repro.analysis import main as analysis_main
from repro.analysis.main import render_rule_list, run

CLEAN = "def f(x):\n    if x < 0:\n        raise ValueError(x)\n    return x\n"
DIRTY = "def f(x):\n    return x == 1.5\n"


@pytest.fixture
def src_tree(tmp_path):
    """A fake src/ layout the analyzer scans with production scope."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)

    def write(name, source):
        (package / name).write_text(source)
        return tmp_path / "src"

    return write


class TestExitCodes:
    def test_clean_exits_0(self, src_tree, capsys):
        root = src_tree("clean.py", CLEAN)
        assert run([str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_1(self, src_tree, capsys):
        root = src_tree("dirty.py", DIRTY)
        assert run([str(root)]) == 1
        assert "RPR105" in capsys.readouterr().out

    def test_unknown_select_code_exits_2(self, src_tree, capsys):
        root = src_tree("clean.py", CLEAN)
        assert run([str(root)], select=["RPR404"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_missing_path_exits_2(self, tmp_path, capsys):
        assert run([str(tmp_path / "missing")]) == 2
        assert "no such path" in capsys.readouterr().err


class TestReportPlumbing:
    def test_select_narrows_rules(self, src_tree, capsys):
        root = src_tree("dirty.py", DIRTY)
        assert run([str(root)], select=["RPR103"]) == 0
        assert "clean (1 files scanned)" in capsys.readouterr().out

    def test_render_rule_list_mentions_every_code(self):
        listing = render_rule_list()
        for rule in all_rules():
            assert rule.code in listing


class TestArgparseEntry:
    def test_module_main_clean(self, src_tree, capsys):
        root = src_tree("clean.py", CLEAN)
        assert analysis_main([str(root)]) == 0
        capsys.readouterr()

    def test_module_main_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        assert "RPR105" in capsys.readouterr().out
