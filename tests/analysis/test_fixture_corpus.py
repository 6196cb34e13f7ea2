"""The whole fixture corpus, run standalone.

Every ``rprNNN_bad.pytxt`` must produce at least one finding of its
own code and every ``rprNNN_good.pytxt`` none — parametrized over the
directory so adding a fixture automatically adds its check.

``expected_findings.tsv`` pins the *exact* finding set: one
``fixture<TAB>code<TAB>line<TAB>col`` row per finding over every
``*.pytxt`` here (the regression fixtures included).  An analyzer
refactor must leave it byte-identical; a rule change edits the rows it
means to change, and only those.
"""

import re

import pytest

from tests.analysis.conftest import FIXTURES

_PATTERN = re.compile(r"rpr(\d{3})_(good|bad)\.pytxt$")


def corpus(kind: str) -> list[tuple[str, str]]:
    entries = []
    for path in sorted(FIXTURES.iterdir()):
        match = _PATTERN.fullmatch(path.name)
        if match and match.group(2) == kind:
            entries.append((path.name, f"RPR{match.group(1)}"))
    return entries


def test_corpus_is_nonempty_and_paired():
    bad = {name.replace("_bad", "") for name, _ in corpus("bad")}
    good = {name.replace("_good", "") for name, _ in corpus("good")}
    assert bad and bad == good, "every rule needs a bad AND a good fixture"


@pytest.mark.parametrize(("name", "code"), corpus("bad"))
def test_bad_fixture_fails(analyze_fixture, name, code):
    findings = analyze_fixture(name)
    assert code in {f.code for f in findings}, (
        f"{name} produced no {code} finding"
    )


@pytest.mark.parametrize(("name", "code"), corpus("good"))
def test_good_fixture_passes(analyze_fixture, name, code):
    findings = [f for f in analyze_fixture(name) if f.code == code]
    assert findings == [], f"{name} unexpectedly produced {code}"


def test_exact_finding_set_matches_committed_table(analyze_fixture):
    actual = [
        f"{path.name}\t{finding.code}\t{finding.line}\t{finding.col}"
        for path in sorted(FIXTURES.glob("*.pytxt"))
        for finding in analyze_fixture(path.name)
    ]
    expected = (FIXTURES / "expected_findings.tsv").read_text(encoding="utf-8")
    assert actual == expected.splitlines()
