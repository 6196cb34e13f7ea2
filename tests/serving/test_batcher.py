"""Micro-batcher semantics: flush triggers, isolation, lifecycle.

Everything runs inside ``asyncio.run`` (the suite has no asyncio
plugin).  The batcher has no clock, so neither do the tests.  The
runner is called on the loop and a flush is a task, which runs after
the tick that submitted it: whatever a test submits in the same tick
as the head request is, by construction, the backlog of the next
flush, and the flush stays unrun until the test yields.  Every
scenario is wrapped in ``asyncio.wait_for`` so a stranded future fails
the test instead of hanging the suite.
"""

import asyncio
import contextvars
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, current_span, span, use_tracer
from repro.serving import batcher as batcher_module
from repro.serving.batcher import BatcherClosed, MicroBatcher

TIMEOUT = 10.0


def max_batch(bound):
    """Lower the batcher's flush bound for the block."""
    return mock.patch.object(batcher_module, "MAX_BATCH", bound)


class Recorder:
    """A runner that logs what it was given and answers each item:
    ``ran:<item>``, a ``ValueError`` for ``"poison"``, and a crash of
    the whole call for a batch holding an item in ``crash_on``."""

    def __init__(self, crash_on=()):
        self.batches = []  # what ``runner`` saw, one list per call
        self.crash_on = set(crash_on)

    def runner(self, items):
        self.batches.append(list(items))
        if self.crash_on.intersection(items):
            raise RuntimeError("the GEMM caught fire")
        return [
            ValueError(f"bad item {item}") if item == "poison" else f"ran:{item}"
            for item in items
        ]


def run(scenario):
    """Run ``scenario()`` to completion, or fail rather than hang."""

    async def bounded():
        return await asyncio.wait_for(scenario(), timeout=TIMEOUT)

    return asyncio.run(bounded())


async def behind_a_flush(batcher, items):
    """``head`` and then ``items`` submitted in one tick.

    Returns with every submit enqueued and the head's flush of one not
    yet run, so ``items`` are its backlog; the test's next yield runs
    it.
    """
    head = asyncio.create_task(batcher.submit("head"))
    tasks = [asyncio.create_task(batcher.submit(item)) for item in items]
    await asyncio.sleep(0)
    return head, tasks


def flush_reasons(registry):
    return {
        record["tags"]["reason"]: record["value"]
        for record in registry.snapshot()
        if record["name"] == "repro_serving_batch_flush_total"
    }


def histogram(registry, name):
    [record] = [r for r in registry.snapshot() if r["name"] == name]
    return record


class TestFlushTriggers:
    def test_busy_runner_backlog_leaves_as_one_flush(self):
        recorder, registry = Recorder(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            head, tasks = await behind_a_flush(batcher, range(5))
            assert recorder.batches == []  # the head's flush has not run; the rest queued
            return await asyncio.gather(head, *tasks)

        results = run(scenario)
        assert results == ["ran:head"] + [f"ran:{i}" for i in range(5)]
        assert recorder.batches == [["head"], [0, 1, 2, 3, 4]]  # one flush, submission order
        assert flush_reasons(registry) == {"idle": 1.0, "backlog": 1.0}

    def test_backlog_beyond_max_batch_takes_successive_flushes(self):
        recorder, registry = Recorder(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            head, tasks = await behind_a_flush(batcher, range(7))
            return await asyncio.gather(head, *tasks)

        with max_batch(3):
            results = run(scenario)
        assert results == ["ran:head"] + [f"ran:{i}" for i in range(7)]
        assert recorder.batches == [["head"], [0, 1, 2], [3, 4, 5], [6]]
        assert flush_reasons(registry) == {"idle": 1.0, "backlog": 3.0}

    def test_a_quiet_runner_after_a_backlog_is_idle_again(self):
        recorder, registry = Recorder(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            head, tasks = await behind_a_flush(batcher, "ab")
            await asyncio.gather(head, *tasks)
            return await batcher.submit("later")

        assert run(scenario) == "ran:later"
        assert recorder.batches == [["head"], ["a", "b"], ["later"]]
        assert flush_reasons(registry) == {"idle": 2.0, "backlog": 1.0}

    def test_batch_size_histogram_records_flushes(self):
        recorder, registry = Recorder(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            head, tasks = await behind_a_flush(batcher, range(3))
            await asyncio.gather(head, *tasks)
            return batcher

        batcher = run(scenario)
        users = histogram(registry, "repro_serving_batch_users")
        assert (users["count"], users["sum"]) == (2, 4.0)  # one of 1, one of 3
        depth = histogram(registry, "repro_serving_batch_queue_depth")
        # head saw depth 1; behind its flush the queue grew 1, 2, 3.
        assert (depth["count"], depth["sum"]) == (4, 7.0)
        assert (batcher.batches_flushed, batcher.requests_batched) == (2, 4)


class TestIsolation:
    def test_poisoned_request_fails_alone(self):
        recorder = Recorder()

        async def scenario():
            batcher = MicroBatcher(recorder.runner)
            head, tasks = await behind_a_flush(batcher, ["a", "poison", "b"])
            return await asyncio.gather(head, *tasks, return_exceptions=True)

        _head, good_a, poisoned, good_b = run(scenario)
        assert (good_a, good_b) == ("ran:a", "ran:b")
        assert isinstance(poisoned, ValueError)
        assert "bad item poison" in str(poisoned)

    def test_runner_crash_fails_the_whole_batch(self):
        recorder = Recorder(crash_on={1})

        async def scenario():
            batcher = MicroBatcher(recorder.runner)
            head, tasks = await behind_a_flush(batcher, range(4))
            return await asyncio.gather(head, *tasks, return_exceptions=True)

        with max_batch(2):
            head, zero, one, two, three = run(scenario)
        assert head == "ran:head"
        assert isinstance(zero, RuntimeError) and isinstance(one, RuntimeError)
        assert (two, three) == ("ran:2", "ran:3")  # flush k+1 is not stranded

    def test_telemetry_failure_fails_futures_instead_of_stranding(self):
        # Regression (RPR504 hardening): the flush-path metrics calls
        # run inside the try that resolves futures, so a raising
        # registry fails the flush instead of stranding its submitters
        # — and must not strand the backlog behind it either.
        class FlakyRegistry(MetricsRegistry):
            down = True

            def counter(self, name, tags=None):
                if self.down and name == "repro_serving_batch_flush_total":
                    raise RuntimeError("telemetry down")
                return super().counter(name, tags=tags)

        recorder, registry = Recorder(), FlakyRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            [first] = await asyncio.gather(batcher.submit("x"), return_exceptions=True)
            registry.down = False
            return first, await batcher.submit("y")

        first, second = run(scenario)
        assert isinstance(first, RuntimeError)
        assert "telemetry down" in str(first)
        assert second == "ran:y"

    def test_result_length_mismatch_is_an_error(self):
        async def scenario():
            batcher = MicroBatcher(lambda items: [])
            return await asyncio.gather(batcher.submit("x"), return_exceptions=True)

        [result] = run(scenario)
        assert isinstance(result, RuntimeError)
        assert "0 results" in str(result)


class TestCancellation:
    def test_cancelled_request_skipped_at_flush(self):
        recorder = Recorder()

        async def scenario():
            batcher = MicroBatcher(recorder.runner)
            head, tasks = await behind_a_flush(batcher, range(3))
            tasks[1].cancel()
            return await asyncio.gather(head, *tasks, return_exceptions=True)

        _head, first, cancelled, third = run(scenario)
        assert (first, third) == ("ran:0", "ran:2")
        assert isinstance(cancelled, asyncio.CancelledError)
        # The cancelled item never reached the runner.
        assert recorder.batches == [["head"], [0, 2]]

    def test_cancelling_all_but_one_leaves_fast_path(self):
        """The survivor is a flush of one — the size the server's runner
        sends down the single-user ``rank_events`` path."""
        recorder = Recorder()

        async def scenario():
            batcher = MicroBatcher(recorder.runner)
            head, tasks = await behind_a_flush(batcher, range(2))
            tasks[0].cancel()
            return await asyncio.gather(head, *tasks, return_exceptions=True)

        _head, cancelled, survivor = run(scenario)
        assert isinstance(cancelled, asyncio.CancelledError)
        assert survivor == "ran:1"
        assert recorder.batches == [["head"], [1]]

    def test_all_cancelled_flush_does_not_strand_the_next(self):
        recorder, registry = Recorder(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            head, tasks = await behind_a_flush(batcher, range(4))
            tasks[0].cancel()
            tasks[1].cancel()
            results = await asyncio.gather(head, *tasks, return_exceptions=True)
            return batcher, results

        with max_batch(2):
            batcher, (_head, *rest) = run(scenario)
        assert rest[2:] == ["ran:2", "ran:3"]
        assert recorder.batches == [["head"], [2, 3]]
        assert batcher.batches_flushed == 2
        assert flush_reasons(registry) == {"idle": 1.0, "backlog": 1.0}

    def test_all_cancelled_chunk_is_no_flush(self):
        """A chunk whose every waiter was cancelled runs nothing and is
        counted nowhere: the flush counter, the batch-size histogram and
        ``batches_flushed`` (what ``/healthz`` reports) stay equal.  When
        the whole backlog was cancelled the runner is simply free."""
        recorder, registry = Recorder(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            head, tasks = await behind_a_flush(batcher, range(3))
            for task in tasks:
                task.cancel()
            await asyncio.gather(head, *tasks, return_exceptions=True)
            return batcher, await batcher.submit("later")

        with max_batch(2):
            batcher, later = run(scenario)
        assert later == "ran:later"
        assert recorder.batches == [["head"], ["later"]]
        users = histogram(registry, "repro_serving_batch_users")
        assert (users["count"], users["sum"]) == (batcher.batches_flushed, 2.0)
        assert sum(flush_reasons(registry).values()) == batcher.batches_flushed == 2
        assert flush_reasons(registry) == {"idle": 2.0}

    def test_cancel_mid_flush_spares_batchmates(self):
        """A waiter cancelled once its flush is detached: the runner
        still computes for it, and its batchmate gets its answer.  On
        the loop only code that runs inside the flush can land such a
        cancel — here the runner itself."""
        recorder = Recorder()
        tasks = []

        def runner(items):
            if items == [0, 1]:
                tasks[0].cancel()
            return recorder.runner(items)

        async def scenario():
            batcher = MicroBatcher(runner)
            head, queued = await behind_a_flush(batcher, range(2))
            tasks.extend(queued)
            await head
            return await asyncio.gather(*tasks, return_exceptions=True)

        cancelled, survivor = run(scenario)
        assert isinstance(cancelled, asyncio.CancelledError)
        assert survivor == "ran:1"
        assert recorder.batches == [["head"], [0, 1]]


class TestTraceOwnership:
    def test_flush_belongs_to_its_first_live_request(self):
        """Two back-to-back flushes, the second queued behind the
        first: two whole traces.  A backlog flush started from the
        first flush's task must not inherit the first request's span."""
        recorder, registry = Recorder(), MetricsRegistry()

        def ranked(items):
            # The server's runner: one rank span per service call.
            name = "repro_serving_rank" if len(items) == 1 else "repro_serving_rank_batch"
            with span(name, registry=registry):
                return recorder.runner(items)

        async def request(batcher, label, item):
            with span("repro_serving_http_request", {"who": label}, registry):
                return await batcher.submit(item)

        async def scenario():
            batcher = MicroBatcher(ranked, registry=registry)
            first = asyncio.create_task(request(batcher, "first", "a"))
            cancelled = asyncio.create_task(request(batcher, "cancelled", "b"))
            second = asyncio.create_task(request(batcher, "second", "c"))
            third = asyncio.create_task(request(batcher, "third", "d"))
            await asyncio.sleep(0)
            cancelled.cancel()
            return await asyncio.gather(first, second, third)

        with use_tracer(Tracer()) as tracer:
            assert run(scenario) == ["ran:a", "ran:c", "ran:d"]
            traces = tracer.traces()
        assert {trace.root_name for trace in traces} == {"repro_serving_http_request"}
        by_who = {trace.spans[-1].tags["who"]: trace for trace in traces}
        assert sorted(by_who) == ["cancelled", "first", "second", "third"]

        def names(who):
            return sorted(record.name for record in by_who[who].spans)

        assert names("first") == [
            "repro_serving_batch_execute",
            "repro_serving_http_request",
            "repro_serving_rank",
        ]
        # The backlog flush hangs off its first *live* request ...
        assert names("second") == [
            "repro_serving_batch_execute",
            "repro_serving_http_request",
            "repro_serving_rank_batch",
        ]
        execute = by_who["second"].span_named("repro_serving_batch_execute")
        assert execute.tags == {"reason": "backlog"}
        assert execute.parent_id == by_who["second"].spans[-1].span_id
        # ... and a batchmate's (or a cancelled waiter's) trace ends at its root.
        assert names("third") == names("cancelled") == ["repro_serving_http_request"]

    def test_runner_inherits_no_request_context_but_the_trace_parent(self):
        """A flush serves many requests, so the runner must not see the
        context variables of whichever request came first — only the
        flush's span, carried in as the parent of what it opens."""
        marker = contextvars.ContextVar("marker", default="unset")
        registry, seen = MetricsRegistry(), []

        def runner(items):
            seen.append((marker.get(), current_span().name))
            return [f"ran:{item}" for item in items]

        async def request(batcher, item):
            marker.set(f"set by {item}")
            with span("repro_serving_http_request", {"who": item}, registry):
                return await batcher.submit(item)

        async def scenario():
            batcher = MicroBatcher(runner, registry=registry)
            return await asyncio.gather(request(batcher, "a"), request(batcher, "b"))

        with use_tracer(Tracer()):
            assert run(scenario) == ["ran:a", "ran:b"]
        assert seen == [("unset", "repro_serving_batch_execute")] * 2


class TestLifecycle:
    def test_submit_after_close_raises(self):
        async def scenario():
            batcher = MicroBatcher(Recorder().runner)
            await batcher.close()
            with pytest.raises(BatcherClosed):
                await batcher.submit("late")

        run(scenario)

    def test_close_drains_pending_requests(self):
        recorder, registry = Recorder(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(recorder.runner, registry=registry)
            # close() in the tick of the submits: it finds the head's
            # flush unrun and the rest queued behind it.
            head = asyncio.create_task(batcher.submit("head"))
            tasks = [asyncio.create_task(batcher.submit(item)) for item in range(3)]
            closing = asyncio.create_task(batcher.close())
            await asyncio.sleep(0)
            assert not closing.done()  # waiting on the head's flush
            with pytest.raises(BatcherClosed):
                await batcher.submit("late")
            await closing
            # close() returned: every queued request has its answer.
            assert all(task.done() for task in (head, *tasks))
            return await asyncio.gather(head, *tasks)

        with max_batch(2):
            assert run(scenario) == ["ran:head", "ran:0", "ran:1", "ran:2"]
        assert recorder.batches == [["head"], [0, 1], [2]]
        assert flush_reasons(registry) == {"idle": 1.0, "close": 2.0}

    def test_close_is_idempotent(self):
        async def scenario():
            batcher = MicroBatcher(Recorder().runner)
            await batcher.close()
            await batcher.close()

        run(scenario)


class TestConstruction:
    def test_takes_no_time_parameter(self):
        with pytest.raises(TypeError):
            MicroBatcher(Recorder().runner, window_seconds=0.003)


OPS = st.lists(
    st.one_of(
        st.just(("submit", 0)),
        st.just(("tick", 0)),
        st.just(("close", 0)),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
    ),
    max_size=24,
)


class TestAnyInterleaving:
    @settings(deadline=None, max_examples=60)
    @given(ops=OPS, bound=st.integers(1, 4))
    def test_every_live_future_resolves_once(self, ops, bound):
        recorder = Recorder()

        async def scenario():
            batcher = MicroBatcher(recorder.runner)
            tasks, cancelled, closing = [], set(), None
            # Ops between two ticks happen in one: submits made there
            # queue behind each other, and a flush runs only at a tick.
            for op, arg in ops:
                if op == "submit":
                    tasks.append(asyncio.create_task(batcher.submit(len(tasks))))
                elif op == "cancel" and tasks:
                    cancelled.add(arg % len(tasks))
                    tasks[arg % len(tasks)].cancel()
                elif op == "tick":
                    await asyncio.sleep(0)
                elif op == "close" and closing is None:
                    closing = asyncio.create_task(batcher.close())
            accepted = len(tasks)
            if closing is None:
                closing = asyncio.create_task(batcher.close())
            await asyncio.sleep(0)
            tasks.append(asyncio.create_task(batcher.submit("late")))
            await closing
            return accepted, cancelled, await asyncio.gather(
                *tasks, return_exceptions=True
            )

        with max_batch(bound):
            accepted, cancelled, (*outcomes, late) = run(scenario)
        assert isinstance(late, BatcherClosed)
        for item, outcome in enumerate(outcomes):
            if isinstance(outcome, (asyncio.CancelledError, BatcherClosed)):
                # Only a cancelled waiter, or one that met the closed
                # door, may go without an answer.
                assert item in cancelled or isinstance(outcome, BatcherClosed)
            else:
                assert outcome == f"ran:{item}"
        assert len(outcomes) == accepted
        assert all(0 < len(batch) <= bound for batch in recorder.batches)
        computed = [item for batch in recorder.batches for item in batch]
        assert len(computed) == len(set(computed))  # nothing computed twice
        for batch in recorder.batches:
            assert batch == sorted(batch)  # FIFO within a flush
