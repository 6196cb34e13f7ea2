"""RPR501/503/504: the async-safety pass over the serving layer's idioms.

Fixture programs pin each rule's bad/good behavior; the regression
tests at the bottom run the analyzer over the *real* serving sources —
once unmodified (must be clean) and once per deliberately introduced
bug (must be caught) — so the pass can never silently stop
seeing the exact failure modes it was built for.
"""

from pathlib import Path

import pytest

import repro.serving
import repro.serving.server
from repro.analysis import analyze_source
from repro.analysis.engine import analyze_files, iter_python_files


def lines_for(findings, code):
    return sorted(f.line for f in findings if f.code == code)


class TestBlockingTaint:
    def test_bad_fixture_flags_every_route_to_a_sink(self, analyze_fixture):
        findings = analyze_fixture("rpr501_bad.pytxt")
        # direct sink, interprocedural chain, sync lock acquire, and a
        # blocking callee registered as an event-loop callback.
        assert lines_for(findings, "RPR501") == [15, 19, 27, 32]

    def test_chain_message_names_the_path_to_the_sink(self, analyze_fixture):
        findings = analyze_fixture("rpr501_bad.pytxt")
        [chained] = [f for f in findings if f.code == "RPR501" and f.line == 19]
        assert "chained() -> slow_helper() -> time.sleep" in chained.message

    def test_good_fixture_is_clean(self, analyze_fixture):
        findings = analyze_fixture("rpr501_good.pytxt")
        assert lines_for(findings, "RPR501") == []

    def test_executor_argument_subtree_is_sanctioned(self):
        source = (
            "import asyncio\n"
            "import time\n"
            "async def handler():\n"
            "    loop = asyncio.get_running_loop()\n"
            "    await loop.run_in_executor(None, time.sleep, 1.0)\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR501") == []

    def test_awaited_acquire_is_asyncio_not_threading(self):
        source = (
            "import asyncio\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = asyncio.Lock()\n"
            "    async def f(self):\n"
            "        await self._lock.acquire()\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR501") == []

    def test_blocking_inside_nested_def_not_charged_to_async_frame(self):
        # The closure runs wherever it is later invoked (here: an
        # executor thread); the defining async frame must not flag.
        source = (
            "import asyncio\n"
            "import time\n"
            "async def handler():\n"
            "    def work():\n"
            "        time.sleep(1.0)\n"
            "    loop = asyncio.get_running_loop()\n"
            "    return await loop.run_in_executor(None, work)\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR501") == []

    def test_heavy_service_entry_point_is_a_declared_sink(self):
        # ``warm`` encodes a whole pool; one rank flush is bounded and
        # runs on the loop by design (DESIGN §10), so it is no sink.
        source = (
            "async def handler(service, users, pool):\n"
            "    service.warm(users, pool)\n"
            "    return service.rank_events(users[0], pool)\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR501") == [2]

    def test_noqa_suppresses_rpr501(self):
        source = (
            "import time\n"
            "async def handler():\n"
            "    time.sleep(0.1)  # repro: noqa[RPR501] measured, fine\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR501") == []


class TestLockAcrossAwait:
    def test_bad_fixture_flags_every_spanning_region(self, analyze_fixture):
        findings = analyze_fixture("rpr503_bad.pytxt")
        assert lines_for(findings, "RPR503") == [13, 17, 24]

    def test_message_names_lock_and_acquisition_line(self, analyze_fixture):
        findings = analyze_fixture("rpr503_bad.pytxt")
        [first] = [f for f in findings if f.code == "RPR503" and f.line == 13]
        assert "self._lock" in first.message
        assert "line 11" in first.message

    def test_good_fixture_is_clean(self, analyze_fixture):
        findings = analyze_fixture("rpr503_good.pytxt")
        assert lines_for(findings, "RPR503") == []

    def test_release_before_await_ends_the_manual_region(self):
        source = (
            "import asyncio\n"
            "import threading\n"
            "_lock = threading.Lock()\n"
            "async def f():\n"
            "    lock = threading.Lock()\n"
            "    lock.acquire()\n"
            "    lock.release()\n"
            "    await asyncio.sleep(0)\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR503") == []


class TestFutureLifecycle:
    def test_bad_fixture_flags_leaks_and_unpaired_resolution(
        self, analyze_fixture
    ):
        findings = analyze_fixture("rpr504_bad.pytxt")
        assert lines_for(findings, "RPR504") == [5, 12, 19]

    def test_good_fixture_is_clean(self, analyze_fixture):
        findings = analyze_fixture("rpr504_good.pytxt")
        assert lines_for(findings, "RPR504") == []

    def test_microbatcher_handoff_shape_is_clean(self):
        source = (
            "import asyncio\n"
            "class B:\n"
            "    def __init__(self):\n"
            "        self._pending = []\n"
            "    async def submit(self, item):\n"
            "        loop = asyncio.get_running_loop()\n"
            "        future = loop.create_future()\n"
            "        self._pending.append((item, future))\n"
            "        return await future\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR504") == []


SERVING_DIR = Path(repro.serving.__file__).parent
SERVER_PATH = Path(repro.serving.server.__file__)
ASYNC_CODES = ("RPR501", "RPR503", "RPR504")


class TestServingRegression:
    """The real serving sources, clean and deliberately broken."""

    def test_serving_package_has_no_unsuppressed_async_findings(self):
        findings = analyze_files(list(iter_python_files([SERVING_DIR])))
        flagged = [f for f in findings if f.code in ASYNC_CODES + ("RPR110",)]
        assert flagged == []

    def test_injected_sleep_in_async_handler_is_caught(self):
        source = SERVER_PATH.read_text(encoding="utf-8")
        # Insert after the existing asyncio import: `from __future__`
        # must stay the first statement.
        assert "import asyncio\n" in source
        source = source.replace(
            "import asyncio\n", "import asyncio\nimport time\n", 1
        )
        anchor = "        if self.draining:\n"
        assert anchor in source
        source = source.replace(
            anchor, "        time.sleep(0.005)\n" + anchor, 1
        )
        findings = analyze_source(
            source, path="src/repro/serving/server.py", scope="src"
        )
        sleeps = [
            f
            for f in findings
            if f.code == "RPR501" and "time.sleep" in f.message
        ]
        assert sleeps, "deliberate time.sleep in healthz was not flagged"

    def test_metrics_rendered_on_the_loop_is_caught(self):
        # DESIGN §9.3's RPR501 seed: the one defect the rule has found.
        source = SERVER_PATH.read_text(encoding="utf-8")
        anchor = (
            "        text = await loop.run_in_executor(\n"
            "            None, lambda: render_prometheus(self.registry.snapshot())\n"
            "        )\n"
        )
        assert anchor in source
        source = source.replace(
            anchor, "        text = render_prometheus(self.registry.snapshot())\n", 1
        )
        findings = analyze_source(
            source, path="src/repro/serving/server.py", scope="src"
        )
        renders = [
            f
            for f in findings
            if f.code == "RPR501" and "render_prometheus" in f.message
        ]
        assert renders, "render_prometheus on the loop was not flagged"

    def test_injected_lock_span_over_await_is_caught(self):
        source = SERVER_PATH.read_text(encoding="utf-8")
        anchor = "            ranking = await self.batcher.submit(work)\n"
        assert anchor in source
        source = source.replace(
            anchor,
            "            with self._similar_lock:\n"
            "                ranking = await self.batcher.submit(work)\n",
            1,
        )
        findings = analyze_source(
            source, path="src/repro/serving/server.py", scope="src"
        )
        spans = [
            f
            for f in findings
            if f.code == "RPR503" and "self._similar_lock" in f.message
        ]
        assert spans, "deliberate lock-across-await was not flagged"

    def test_batcher_without_try_guard_flags_future_risk(self):
        # A submit() that drops the handoff must flag: this is the
        # leak mode the batcher hardening fix closes dynamically.
        source = (
            "import asyncio\n"
            "async def submit(loop):\n"
            "    future = loop.create_future()\n"
            "    return 1\n"
        )
        findings = analyze_source(source, path="src/repro/x.py", scope="src")
        assert lines_for(findings, "RPR504") == [3]
