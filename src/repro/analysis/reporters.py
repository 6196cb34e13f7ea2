"""Finding reporters: human text, machine JSON, and SARIF.

All render the same :class:`~repro.analysis.engine.Finding` records.
SARIF 2.1.0 output is what CI uploads so findings annotate PR diffs.
The JSON document has a versioned schema so CI consumers can parse it
without guessing::

    {
      "schema": "repro.analysis/v1",
      "summary": {"files": null, "findings": 2, "by_code": {"RPR105": 2}},
      "findings": [
        {"path": "...", "line": 12, "col": 4,
         "code": "RPR105", "message": "..."}
      ]
    }
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence

from repro.analysis.engine import Finding

__all__ = [
    "render_text",
    "render_json",
    "render_sarif",
    "JSON_SCHEMA_VERSION",
    "SARIF_VERSION",
]

JSON_SCHEMA_VERSION = "repro.analysis/v1"
SARIF_VERSION = "2.1.0"
_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(
    findings: Sequence[Finding], files_scanned: int | None = None
) -> str:
    """One ``path:line:col CODE message`` line per finding + summary."""
    lines = [
        f"{finding.location()} {finding.code} {finding.message}"
        for finding in findings
    ]
    scanned = f" ({files_scanned} files scanned)" if files_scanned else ""
    if not findings:
        lines.append(f"repro.analysis: clean{scanned}")
    else:
        by_code = Counter(finding.code for finding in findings)
        breakdown = ", ".join(
            f"{code}: {count}" for code, count in sorted(by_code.items())
        )
        lines.append(
            f"repro.analysis: {len(findings)} finding"
            f"{'s' if len(findings) != 1 else ''} [{breakdown}]{scanned}"
        )
    return "\n".join(lines) + "\n"


def render_json(
    findings: Sequence[Finding], files_scanned: int | None = None
) -> str:
    """Versioned JSON document over the same records."""
    by_code = Counter(finding.code for finding in findings)
    document = {
        "schema": JSON_SCHEMA_VERSION,
        "summary": {
            "files": files_scanned,
            "findings": len(findings),
            "by_code": dict(sorted(by_code.items())),
        },
        "findings": [finding.as_dict() for finding in findings],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def render_sarif(
    findings: Sequence[Finding], files_scanned: int | None = None
) -> str:
    """SARIF 2.1.0 log, one run, one result per finding.

    Rule metadata comes from the live registry so descriptions stay in
    one place; ``files_scanned`` only affects the (optional) invocation
    property bag.
    """
    from repro.analysis.engine import all_rules

    descriptions = {
        rule.code: (rule.name, rule.description) for rule in all_rules()
    }
    seen_codes = sorted({finding.code for finding in findings})
    rules = []
    for code in seen_codes:
        name, description = descriptions.get(code, (code.lower(), ""))
        rules.append(
            {
                "id": code,
                "name": name,
                "shortDescription": {"text": description or name},
            }
        )
    results = [
        {
            "ruleId": finding.code,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": finding.path.replace("\\", "/"),
                        },
                        "region": {
                            "startLine": finding.line,
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "rules": rules,
                    }
                },
                "properties": {"filesScanned": files_scanned},
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
