"""RPR110: the per-route status-code contract."""

from repro.analysis.engine import analyze_source


def rpr110(findings):
    return [f for f in findings if f.code == "RPR110"]


class TestRouteStatusContract:
    def test_bad_fixture_flags_all_contract_breaks(self, analyze_fixture):
        findings = rpr110(analyze_fixture("rpr110_bad.pytxt"))
        messages = "\n".join(f.message for f in findings)
        assert "undeclared status(es) 418" in messages
        assert "'/status' is in ROUTES but missing" in messages
        assert "'/gone' is stale" in messages
        assert "declares ROUTES but no ROUTE_STATUSES" in messages
        assert len(findings) == 4

    def test_good_fixture_is_clean(self, analyze_fixture):
        assert rpr110(analyze_fixture("rpr110_good.pytxt")) == []

    def test_undeclared_status_through_call_chain(self):
        # The 418 is three frames away from the handler.
        source = (
            "class ApiError(Exception):\n"
            "    def __init__(self, status, code):\n"
            "        self.status = status\n"
            "def inner():\n"
            "    raise ApiError(418, 'teapot')\n"
            "def outer():\n"
            "    inner()\n"
            "class S:\n"
            "    ROUTES = {'/a': ('GET', 'a')}\n"
            "    ROUTE_STATUSES = {'/a': frozenset({200})}\n"
            "    async def a(self, payload):\n"
            "        outer()\n"
            "        return 200, {}\n"
        )
        findings = rpr110(
            analyze_source(source, path="src/repro/x.py", scope="src")
        )
        assert len(findings) == 1
        assert "418" in findings[0].message

    def test_declared_statuses_cover_produced(self):
        source = (
            "class ApiError(Exception):\n"
            "    def __init__(self, status, code):\n"
            "        self.status = status\n"
            "class S:\n"
            "    ROUTES = {'/a': ('GET', 'a')}\n"
            "    ROUTE_STATUSES = {'/a': frozenset({200, 503})}\n"
            "    async def a(self, payload):\n"
            "        if payload is None:\n"
            "            raise ApiError(503, 'unavailable')\n"
            "        return 200, {}\n"
        )
        findings = rpr110(
            analyze_source(source, path="src/repro/x.py", scope="src")
        )
        assert findings == []

    def test_classes_without_routes_are_ignored(self):
        source = (
            "class Plain:\n"
            "    TABLE = {'a': 1}\n"
            "    def f(self):\n"
            "        return 500, {}\n"
        )
        findings = rpr110(
            analyze_source(source, path="src/repro/x.py", scope="src")
        )
        assert findings == []

    def test_unparseable_table_is_flagged_not_guessed(self):
        source = (
            "STATUSES = {200}\n"
            "class S:\n"
            "    ROUTES = {'/a': ('GET', 'a')}\n"
            "    ROUTE_STATUSES = {'/a': STATUSES}\n"
            "    async def a(self, payload):\n"
            "        return 200, {}\n"
        )
        findings = rpr110(
            analyze_source(source, path="src/repro/x.py", scope="src")
        )
        assert len(findings) == 1
        assert "literal dict" in findings[0].message

    def test_noqa_suppresses_rpr110(self):
        source = (
            "class S:\n"
            "    ROUTES = {'/a': ('GET', 'a')}  # repro: noqa[RPR110] wip\n"
            "    async def a(self, payload):\n"
            "        return 200, {}\n"
        )
        findings = rpr110(
            analyze_source(source, path="src/repro/x.py", scope="src")
        )
        assert findings == []
