"""Fixture-driven tests for the interprocedural passes.

Each RPR3xx/RPR4xx code has a bad/good fixture pair: the bad
program is flagged with exactly that code, the good program comes back
clean.  The seeded-violation test at the bottom analyzes the *real*
``src/repro/store/index.py`` together with a wrapper that writes
``EventIndex._rows`` unguarded — the cross-file flow the tentpole
exists to catch.
"""

from pathlib import Path

import pytest

from repro.analysis import analyze_files, analyze_source

from .conftest import FIXTURES, load_fixture

INDEX_PY = Path("src/repro/store/index.py")

PAIRS = [
    ("RPR301", "rpr301_bad.pytxt", "rpr301_good.pytxt"),
    ("RPR302", "rpr302_bad.pytxt", "rpr302_good.pytxt"),
    ("RPR303", "rpr303_bad.pytxt", "rpr303_good.pytxt"),
    ("RPR401", "rpr401_bad.pytxt", "rpr401_good.pytxt"),
    ("RPR402", "rpr402_bad.pytxt", "rpr402_good.pytxt"),
]


class TestFixturePairs:
    @pytest.mark.parametrize(
        "code,bad,good", PAIRS, ids=[pair[0] for pair in PAIRS]
    )
    def test_bad_fixture_is_flagged(self, analyze_fixture, code, bad, good):
        findings = analyze_fixture(bad)
        assert findings, f"{bad} should produce findings"
        assert {finding.code for finding in findings} == {code}

    @pytest.mark.parametrize(
        "code,bad,good", PAIRS, ids=[pair[0] for pair in PAIRS]
    )
    def test_good_fixture_is_clean(self, analyze_fixture, code, bad, good):
        assert analyze_fixture(good) == []


class TestDeterminismTaint:
    def test_rng_violation_names_the_sink(self, analyze_fixture):
        (finding,) = analyze_fixture("rpr301_bad.pytxt")
        assert "save_model_bundle" in finding.message

    def test_noqa_suppresses_taint_findings(self):
        source = load_fixture("rpr302_bad.pytxt")
        lines = source.splitlines()
        flagged = next(
            i for i, line in enumerate(lines) if "save_model_bundle((" in line
        )
        lines[flagged] += "  # repro: noqa[RPR302] run stamp is intentional"
        findings = analyze_source(
            "\n".join(lines) + "\n", path="src/repro/stamp.py", scope="src"
        )
        assert findings == []

    def test_sink_call_with_two_tainted_arguments_is_one_finding(self):
        source = (
            "import numpy as np\n"
            "from repro.eval.metrics import roc_auc\n"
            "def evaluate(n):\n"
            "    rng = np.random.default_rng()\n"
            "    return roc_auc(rng.permutation(n), rng.normal(size=n))\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert [(f.code, f.line) for f in findings] == [("RPR301", 5)]

    def test_taint_rules_do_not_apply_in_test_scope(self, analyze_fixture):
        # Tests use wall clocks and RNG freely; the rules are src-only.
        assert analyze_fixture("rpr302_bad.pytxt", scope="test") == []


class TestLockDiscipline:
    def test_rpr401_covers_method_and_external_access(self, analyze_fixture):
        findings = analyze_fixture("rpr401_bad.pytxt")
        assert len(findings) == 2
        messages = " ".join(finding.message for finding in findings)
        assert "self._lock" in messages and "store._lock" in messages

    def test_rpr402_propagates_through_private_chain(self, analyze_fixture):
        findings = analyze_fixture("rpr402_bad.pytxt")
        # reset() calling _churn() and drain() calling _compact(): the
        # requirement reached _churn transitively from _compact.
        assert len(findings) == 2
        assert {finding.code for finding in findings} == {"RPR402"}
        messages = [finding.message for finding in findings]
        assert any("_churn" in message for message in messages)
        assert any("_compact" in message for message in messages)


class TestSeededEventIndexViolation:
    """Acceptance: unguarded ``EventIndex._rows`` write via a wrapper."""

    def _materialize(self, tmp_path: Path) -> Path:
        wrapper = tmp_path / "wrapper.py"
        wrapper.write_text(
            load_fixture("eventindex_unguarded_wrapper.pytxt"),
            encoding="utf-8",
        )
        return wrapper

    def test_unguarded_wrapper_write_is_flagged(self, tmp_path):
        wrapper = self._materialize(tmp_path)
        findings = analyze_files([INDEX_PY, wrapper])
        lock_findings = [
            finding for finding in findings if finding.code == "RPR401"
        ]
        assert lock_findings, "the wrapper's _rows write must be flagged"
        assert all(
            finding.path == str(wrapper) for finding in lock_findings
        )
        assert any(
            "_rows" in finding.message for finding in lock_findings
        )

    def test_locked_implementation_passes_clean(self):
        assert analyze_files([INDEX_PY]) == []
