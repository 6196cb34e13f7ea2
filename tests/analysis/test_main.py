"""Exit codes and report plumbing of the analyzer CLI entry points."""

import io
import json

import pytest

from repro.analysis import main as analysis_main
from repro.analysis.main import render_rule_list, run
from repro.cli import main as cli_main

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
    def test_json_format(self, src_tree):
        root = src_tree("dirty.py", DIRTY)
        stream = io.StringIO()
        assert run([str(root)], output_format="json", stream=stream) == 1
        document = json.loads(stream.getvalue())
        assert document["summary"]["by_code"] == {"RPR105": 1}

    def test_sarif_format(self, src_tree):
        root = src_tree("dirty.py", DIRTY)
        stream = io.StringIO()
        assert run([str(root)], output_format="sarif", stream=stream) == 1
        document = json.loads(stream.getvalue())
        assert document["version"] == "2.1.0"
        (sarif_run,) = document["runs"]
        assert sarif_run["tool"]["driver"]["name"] == "repro.analysis"
        (rule,) = sarif_run["tool"]["driver"]["rules"]
        assert rule["id"] == "RPR105"
        assert rule["shortDescription"]["text"]
        (result,) = sarif_run["results"]
        assert result["ruleId"] == "RPR105"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 2

    def test_sarif_clean_run_has_no_results(self, src_tree):
        root = src_tree("clean.py", CLEAN)
        stream = io.StringIO()
        assert run([str(root)], output_format="sarif", stream=stream) == 0
        document = json.loads(stream.getvalue())
        assert document["runs"][0]["results"] == []

    def test_select_narrows_rules(self, src_tree):
        root = src_tree("dirty.py", DIRTY)
        stream = io.StringIO()
        assert run([str(root)], select=["RPR103"], stream=stream) == 0

    def test_render_rule_list_mentions_every_code(self):
        listing = render_rule_list()
        for code in ("RPR101", "RPR110", "RPR201", "RPR504"):
            assert code in listing


class TestArgparseEntry:
    def test_module_main_clean(self, src_tree, capsys):
        root = src_tree("clean.py", CLEAN)
        assert analysis_main([str(root)]) == 0
        capsys.readouterr()

    def test_module_main_list_rules(self, capsys):
        assert analysis_main(["--list-rules"]) == 0
        assert "RPR105" in capsys.readouterr().out

    def test_module_main_json(self, src_tree, capsys):
        root = src_tree("dirty.py", DIRTY)
        assert analysis_main([str(root), "--format", "json"]) == 1
        json.loads(capsys.readouterr().out)

    def test_module_main_sarif(self, src_tree, capsys):
        root = src_tree("dirty.py", DIRTY)
        assert analysis_main([str(root), "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"


@pytest.fixture
def git_repo(tmp_path, monkeypatch):
    """A real git repo with one committed clean file, cwd'd into."""
    import subprocess

    def git(*argv):
        subprocess.run(
            ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
             *argv],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        )

    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "committed.py").write_text(CLEAN)
    git("init", "-q", "-b", "main")
    git("add", "-A")
    git("commit", "-q", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    return package


class TestChangedMode:
    def test_changed_skips_unchanged_dirty_files(self, git_repo, capsys):
        # Untracked: seen (exit 1).  Committed with no further edits:
        # invisible to --changed vs HEAD (0 files scanned, exit 0).
        (git_repo / "dirty.py").write_text(DIRTY)
        assert analysis_main(["src", "--changed", "--ref", "HEAD"]) == 1
        capsys.readouterr()
        import subprocess

        subprocess.run(
            ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
             "add", "-A"],
            check=True, capture_output=True,
        )
        subprocess.run(
            ["git", "-c", "user.email=t@example.com", "-c", "user.name=t",
             "commit", "-q", "-m", "add dirty"],
            check=True, capture_output=True,
        )
        assert analysis_main(["src", "--changed", "--ref", "HEAD"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_changed_sees_modified_and_untracked_files(self, git_repo, capsys):
        (git_repo / "committed.py").write_text(DIRTY)  # modified
        (git_repo / "fresh.py").write_text(DIRTY)  # untracked
        assert analysis_main(["src", "--changed", "--ref", "HEAD"]) == 1
        out = capsys.readouterr().out
        assert out.count("RPR105") >= 2

    def test_bad_ref_is_a_usage_error(self, git_repo, capsys):
        assert analysis_main(["src", "--changed", "--ref", "no-such-ref"]) == 2
        assert "failed" in capsys.readouterr().err

    def test_outside_git_repo_is_a_usage_error(self, tmp_path, monkeypatch,
                                               capsys):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "clean.py").write_text(CLEAN)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
        assert analysis_main(["src", "--changed"]) == 2
        capsys.readouterr()

    def test_cli_subcommand_passthrough(self, git_repo, capsys):
        (git_repo / "fresh.py").write_text(DIRTY)
        assert cli_main(
            ["analyze", "src", "--changed", "--ref", "HEAD"]
        ) == 1
        assert "RPR105" in capsys.readouterr().out


class TestCliSubcommand:
    def test_analyze_clean(self, src_tree, capsys):
        root = src_tree("clean.py", CLEAN)
        assert cli_main(["analyze", str(root)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_analyze_findings(self, src_tree, capsys):
        root = src_tree("dirty.py", DIRTY)
        assert cli_main(["analyze", str(root)]) == 1
        assert "RPR105" in capsys.readouterr().out

    def test_analyze_usage_error(self, src_tree, capsys):
        root = src_tree("clean.py", CLEAN)
        assert cli_main(["analyze", str(root), "--select", "NOPE"]) == 2
        capsys.readouterr()

    def test_analyze_list_rules(self, capsys):
        assert cli_main(["analyze", "--list-rules"]) == 0
        assert "RPR101" in capsys.readouterr().out

    def test_analyze_sarif(self, src_tree, capsys):
        root = src_tree("dirty.py", DIRTY)
        assert cli_main(["analyze", str(root), "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
