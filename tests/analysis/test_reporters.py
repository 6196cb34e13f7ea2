"""Text and JSON reporters over Finding records."""

import json

from repro.analysis import Finding, render_json, render_text
from repro.analysis.reporters import JSON_SCHEMA_VERSION

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
        out = render_text(FINDINGS[:1])
        assert "1 finding [RPR103: 1]" in out


class TestJson:
    def test_schema(self):
        document = json.loads(render_json(FINDINGS, files_scanned=2))
        assert document["schema"] == JSON_SCHEMA_VERSION
        assert document["summary"] == {
            "files": 2,
            "findings": 3,
            "by_code": {"RPR103": 2, "RPR105": 1},
        }
        assert document["findings"][0] == {
            "path": "src/a.py",
            "line": 3,
            "col": 4,
            "code": "RPR103",
            "message": "bad metric name",
        }

    def test_clean_document(self):
        document = json.loads(render_json([]))
        assert document["summary"]["findings"] == 0
        assert document["findings"] == []
