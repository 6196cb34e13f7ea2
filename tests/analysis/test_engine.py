"""Engine mechanics: scoping, suppressions, syntax errors, registry."""

import re
from pathlib import Path

import pytest

from repro.analysis import (
    all_rules,
    analyze_files,
    analyze_source,
    iter_python_files,
    rules_by_code,
    scope_for_path,
)

SRC = "src/repro/example.py"


class TestScopeForPath:
    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/core/model.py",
            "src/repro/cli.py",
            "examples_dir/helper.py",
        ],
    )
    def test_src(self, path):
        assert scope_for_path(path) == "src"

    @pytest.mark.parametrize(
        "path",
        [
            "tests/nn/test_losses.py",
            "benchmarks/bench_serving.py",
            "examples/quickstart.py",
            "bench/run.py",
            "src/repro/conftest.py",
            "test_anything.py",
        ],
    )
    def test_test(self, path):
        assert scope_for_path(path) == "test"

    @pytest.mark.parametrize(
        "path",
        [
            "src/repro/test_harness.py",
            "src/repro/eval/test_split.py",
        ],
    )
    def test_src_tree_test_prefix_stays_src(self, path):
        # A production module cannot opt out of src-only rules by
        # being named test_*.py — the filename heuristic only applies
        # outside a src tree.
        assert scope_for_path(path) == "src"


class TestSuppressions:
    def test_inline_noqa_suppresses(self):
        source = "def f(x):\n    return x == 1.5  # repro: noqa[RPR105] exact sentinel\n"
        assert analyze_source(source, SRC) == []

    def test_wrong_code_does_not_suppress(self):
        source = "def f(x):\n    return x == 1.5  # repro: noqa[RPR103]\n"
        codes = {f.code for f in analyze_source(source, SRC)}
        # the comparison still fires AND the noqa is reported stale
        assert codes == {"RPR105", "RPR100"}

    def test_multiple_codes_comma_separated(self):
        source = (
            "def f(r):\n"
            "    return r.counter('Bad').value == 1.5  # repro: noqa[RPR103, RPR105] oracle\n"
        )
        assert analyze_source(source, SRC) == []

    def test_standalone_comment_suppresses_next_line(self):
        source = (
            "def f(x):\n"
            "    # repro: noqa[RPR105] justification too long for inline\n"
            "    return x == 1.5\n"
        )
        assert analyze_source(source, SRC) == []

    def test_docstring_noqa_is_not_a_suppression(self):
        source = (
            'def f(x):\n'
            '    """Example: use  # repro: noqa[RPR105]  to suppress."""\n'
            '    return x == 1.5\n'
        )
        codes = [f.code for f in analyze_source(source, SRC)]
        # the docstring neither suppresses line 3 nor counts as stale
        assert codes == ["RPR105"]

    def test_unused_noqa_reported_as_rpr100(self):
        source = "def f(x):\n    return x  # repro: noqa[RPR105]\n"
        findings = analyze_source(source, SRC)
        assert [f.code for f in findings] == ["RPR100"]
        assert "RPR105" in findings[0].message

    def test_unused_noqa_not_reported_for_deselected_rule(self):
        # Only RPR103 runs; an RPR105 noqa may be live under a full
        # run, so it must not be called stale here.
        source = "def f(x):\n    return x  # repro: noqa[RPR105]\n"
        rules = rules_by_code(["RPR103"])
        assert analyze_source(source, SRC, rules=rules) == []

    def test_out_of_scope_rule_noqa_not_reported(self):
        # RPR105 does not run in test scope, so a test-file noqa for it
        # is not checkable — no RPR100.
        source = "def f(x):\n    return x == 1.5  # repro: noqa[RPR105]\n"
        assert analyze_source(source, "tests/test_example.py") == []

    def test_lowercase_code_suppresses(self):
        # Codes normalize to uppercase; lowercase noqa used to be
        # silently dropped by the case-sensitive code check.
        source = "def f(x):\n    return x == 1.5  # repro: noqa[rpr105] checked\n"
        assert analyze_source(source, SRC) == []

    def test_malformed_code_reported_as_rpr100(self):
        source = "def f(x):\n    return x == 1.5  # repro: noqa[RPR10]\n"
        codes = {f.code for f in analyze_source(source, SRC)}
        # the comparison still fires AND the typo'd code is surfaced
        assert codes == {"RPR105", "RPR100"}
        malformed = [
            f
            for f in analyze_source(source, SRC)
            if f.code == "RPR100" and "malformed" in f.message
        ]
        assert malformed and "RPR10" in malformed[0].message



class TestAsyncAndDecoratorNoqa:
    """Suppression semantics on ``async def`` and decorator lines.

    RPR110 reports at the handler's ``def`` line, which makes it the
    natural probe: the contract table stays fixed and only the noqa
    placement varies.
    """

    TABLE = (
        "class S:\n"
        "    ROUTES = {'/a': ('GET', 'a')}\n"
        "    ROUTE_STATUSES = {'/a': frozenset({200})}\n"
    )

    def test_inline_noqa_on_async_def_line_suppresses(self):
        source = self.TABLE + (
            "    async def a(self, payload):  # repro: noqa[RPR110] wip\n"
            "        return 418, {}\n"
        )
        assert analyze_source(source, SRC) == []

    def test_standalone_noqa_above_async_def_suppresses(self):
        source = self.TABLE + (
            "    # repro: noqa[RPR110] contract intentionally stale\n"
            "    async def a(self, payload):\n"
            "        return 418, {}\n"
        )
        assert analyze_source(source, SRC) == []

    def test_standalone_noqa_above_decorator_targets_decorator_line(self):
        # The comment binds to the next line — the decorator — not the
        # ``async def`` two lines down where the finding lands: the
        # finding survives and the noqa is reported stale.
        source = (
            "def passthrough(f):\n"
            "    return f\n"
            + self.TABLE
            + "    # repro: noqa[RPR110] binds to the decorator line\n"
            "    @passthrough\n"
            "    async def a(self, payload):\n"
            "        return 418, {}\n"
        )
        codes = {f.code for f in analyze_source(source, SRC)}
        assert codes == {"RPR110", "RPR100"}

    def test_inline_noqa_on_decorated_async_def_line_suppresses(self):
        source = (
            "def passthrough(f):\n"
            "    return f\n"
            + self.TABLE
            + "    @passthrough\n"
            "    async def a(self, payload):  # repro: noqa[RPR110] ok\n"
            "        return 418, {}\n"
        )
        assert analyze_source(source, SRC) == []


class TestSyntaxError:
    def test_rpr999_instead_of_exception(self):
        findings = analyze_source("def f(:\n", SRC)
        assert len(findings) == 1
        assert findings[0].code == "RPR999"
        assert "syntax error" in findings[0].message


ROOT = Path(__file__).parents[2]


def ledger() -> dict[str, bool]:
    """DESIGN §9.3's rule ledger: code → kept (True) or deleted (False)."""
    design = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    table = design.split("| Code | True positives", 1)[1].split("\n\n", 1)[0]
    verdicts = dict(
        re.findall(r"^\| (RPR\d{3}) \|.*\| (keep|\*\*deleted\*\*)[^|]* \|$", table, re.M)
    )
    assert len(verdicts) == table.count("\n| RPR"), "a row has no verdict"
    return {code: verdict == "keep" for code, verdict in verdicts.items()}


class TestRegistry:
    def test_all_rules_sorted_and_complete(self):
        codes = [rule.code for rule in all_rules()]
        assert codes == sorted(codes)
        assert codes == sorted(code for code, kept in ledger().items() if kept)

    def test_readme_rule_table_matches_registry(self):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        documented = re.findall(r"^\| (RPR\d{3}) \|", readme, re.M)
        assert sorted(documented) == [rule.code for rule in all_rules()]
        # ... and every code the ledger records as deleted is one the
        # registry rejects: the two documents and the code agree.
        for code, kept in ledger().items():
            if not kept:
                with pytest.raises(KeyError):
                    rules_by_code([code])

    def test_select_filters(self):
        rules = rules_by_code(["RPR103", "rpr105"])  # case-insensitive
        assert [rule.code for rule in rules] == ["RPR103", "RPR105"]

    def test_unknown_code_raises_keyerror(self):
        with pytest.raises(KeyError):
            rules_by_code(["RPR105", "RPR404"])

    @pytest.mark.parametrize(
        "code",
        ["RPR102", "RPR104", "RPR106", "RPR107",
         "RPR201", "RPR202", "RPR403", "RPR502"],
    )
    def test_retired_codes_are_unknown(self, code):
        # Retired in favour of ruff NPY002/S101/B006/F822, or on
        # seeded-defect evidence (DESIGN §9.3); selecting one is a
        # usage error, not a silent no-op.
        with pytest.raises(KeyError):
            rules_by_code([code])


class TestFileWalking:
    def test_skips_pycache_and_non_python(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "ok.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__").mkdir()
        (tmp_path / "pkg" / "__pycache__" / "ok.cpython-311.py").write_text("")
        (tmp_path / "pkg" / "notes.pytxt").write_text("assert False\n")
        files = list(iter_python_files([tmp_path]))
        assert [f.name for f in files] == ["ok.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            list(iter_python_files([tmp_path / "nope"]))

    def test_analyze_paths_sorts_findings(self, tmp_path):
        (tmp_path / "b.py").write_text("def f(x):\n    return x == 1.5\n")
        (tmp_path / "a.py").write_text("def f(x):\n    return x == 1.5\n")
        findings = analyze_files(list(iter_python_files([tmp_path])))
        assert [f.path for f in findings] == sorted(f.path for f in findings)
        assert {f.code for f in findings} == {"RPR105"}

    def test_overlapping_path_arguments_deduplicate(self, tmp_path):
        # `analyze src src/repro` must not parse and report files
        # twice, inflating finding counts.
        nested = tmp_path / "pkg"
        nested.mkdir()
        (nested / "mod.py").write_text(
            "def f(x):\n    return x == 1.5\n"
        )
        once = analyze_files(list(iter_python_files([tmp_path])))
        twice = analyze_files(list(iter_python_files([tmp_path, nested])))
        assert len(once) == len(twice) == 1

    def test_same_file_listed_twice_yields_once(self, tmp_path):
        target = tmp_path / "mod.py"
        target.write_text("x = 1\n")
        files = list(iter_python_files([target, target, tmp_path]))
        assert files == [target]
