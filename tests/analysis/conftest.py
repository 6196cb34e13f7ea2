"""Shared helpers for the static-analysis test suite.

Fixture programs live in ``fixtures/*.pytxt`` — deliberately *not*
``.py`` so the analyzer's repository sweep (and pytest collection)
never trips over intentionally bad code.
"""

from pathlib import Path

import pytest

from repro.analysis.engine import analyze_source

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture
def analyze_fixture():
    """Analyze a fixture file as if it were production source."""

    def run(name: str, scope: str = "src", **kwargs):
        return analyze_source(
            load_fixture(name),
            path=f"src/repro/{name.removesuffix('txt')}",
            scope=scope,
            **kwargs,
        )

    return run
