"""The analyzer's text report over Finding records."""

from repro.analysis.engine import Finding
from repro.analysis.main import render_text

FINDINGS = [
    Finding("src/a.py", 3, 4, "RPR103", "bad metric name"),
    Finding("src/a.py", 9, 0, "RPR103", "bad metric name"),
    Finding("src/b.py", 1, 2, "RPR105", "float equality"),
]


class TestText:
    def test_clean(self):
        out = render_text([], files_scanned=7)
        assert out == "repro.analysis: clean (7 files scanned)\n"

    def test_findings_lines_and_summary(self):
        out = render_text(FINDINGS, files_scanned=2)
        lines = out.splitlines()
        assert lines[0] == "src/a.py:3:5 RPR103 bad metric name"
        assert lines[-1] == (
            "repro.analysis: 3 findings [RPR103: 2, RPR105: 1] "
            "(2 files scanned)"
        )

    def test_singular_finding(self):
        out = render_text(FINDINGS[:1], files_scanned=1)
        assert "1 finding [RPR103: 1]" in out
