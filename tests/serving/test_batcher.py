"""Micro-batcher semantics: flush triggers, isolation, lifecycle.

Everything runs inside ``asyncio.run`` (the suite has no asyncio
plugin).  The batcher has no clock, so neither do the tests: the
runner is *gated* — it parks in its executor thread until the test
lets it through — and whatever is submitted while it is parked is, by
construction, the backlog of the next flush.  Every scenario is
wrapped in ``asyncio.wait_for`` so a stranded future fails the test
instead of hanging the suite.
"""

import asyncio
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, span, use_tracer
from repro.serving.batcher import BatcherClosed, MicroBatcher

TIMEOUT = 10.0


class Gate:
    """Runners that log what they were given, then wait to be let through.

    ``release()`` lets one call through, ``open()`` every call from now
    on; ``entered()`` suspends the test until a call is parked (or, once
    open, has at least started).
    """

    def __init__(self, crash_on=()):
        self.batches = []  # what ``runner`` saw, one list per call
        self.singles = []  # what ``fast`` saw
        self.crash_on = set(crash_on)
        self._entered = threading.Semaphore(0)
        self._permits = threading.Semaphore(0)
        self._open = False

    def _park(self):
        self._entered.release()
        if not self._open:
            assert self._permits.acquire(timeout=TIMEOUT), "gate never released"

    def runner(self, items):
        self.batches.append(list(items))
        self._park()
        if self.crash_on.intersection(items):
            raise RuntimeError("the GEMM caught fire")
        return [
            ValueError(f"bad item {item}") if item == "poison" else f"ran:{item}"
            for item in items
        ]

    def fast(self, item):
        self.singles.append(item)
        self._park()
        if item in self.crash_on:
            raise RuntimeError("the GEMV caught fire")
        return f"fast:{item}"

    def release(self):
        self._permits.release()

    def open(self):
        self._open = True
        self._permits.release()  # one flush in flight: at most one call is parked

    async def entered(self):
        assert await asyncio.to_thread(self._entered.acquire, timeout=TIMEOUT)


def run(scenario):
    """Run ``scenario()`` to completion, or fail rather than hang."""

    async def bounded():
        return await asyncio.wait_for(scenario(), timeout=TIMEOUT)

    return asyncio.run(bounded())


async def submit_all(batcher, items):
    """One task per item, each past its enqueue, in submission order."""
    tasks = [asyncio.create_task(batcher.submit(item)) for item in items]
    await asyncio.sleep(0)
    return tasks


async def behind_a_held_flush(gate, batcher, items):
    """``head`` parked in the runner, ``items`` queued behind it."""
    head = asyncio.create_task(batcher.submit("head"))
    await gate.entered()
    return head, await submit_all(batcher, items)


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
        gate, registry = Gate(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(gate.runner, fast_runner=gate.fast, registry=registry)
            head, tasks = await behind_a_held_flush(gate, batcher, range(5))
            assert gate.batches == []  # nothing moves while the runner is busy
            gate.open()
            return await asyncio.gather(head, *tasks)

        results = run(scenario)
        assert results == ["fast:head"] + [f"ran:{i}" for i in range(5)]
        assert gate.singles == ["head"]
        assert gate.batches == [[0, 1, 2, 3, 4]]  # one flush, submission order
        assert flush_reasons(registry) == {"idle": 1.0, "backlog": 1.0}

    def test_backlog_beyond_max_batch_takes_successive_flushes(self):
        gate, registry = Gate(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(gate.runner, max_batch=3, registry=registry)
            head, tasks = await behind_a_held_flush(gate, batcher, range(7))
            gate.open()
            return await asyncio.gather(head, *tasks)

        results = run(scenario)
        assert results == ["ran:head"] + [f"ran:{i}" for i in range(7)]
        assert gate.batches == [["head"], [0, 1, 2], [3, 4, 5], [6]]
        assert flush_reasons(registry) == {"idle": 1.0, "backlog": 3.0}

    def test_a_quiet_runner_after_a_backlog_is_idle_again(self):
        gate, registry = Gate(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(gate.runner, registry=registry)
            head, tasks = await behind_a_held_flush(gate, batcher, "ab")
            gate.open()
            await asyncio.gather(head, *tasks)
            return await batcher.submit("later")

        assert run(scenario) == "ran:later"
        assert gate.batches == [["head"], ["a", "b"], ["later"]]
        assert flush_reasons(registry) == {"idle": 2.0, "backlog": 1.0}

    def test_batch_size_histogram_records_flushes(self):
        gate, registry = Gate(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(gate.runner, registry=registry)
            head, tasks = await behind_a_held_flush(gate, batcher, range(3))
            gate.open()
            await asyncio.gather(head, *tasks)
            return batcher

        batcher = run(scenario)
        users = histogram(registry, "repro_serving_batch_users")
        assert (users["count"], users["sum"]) == (2, 4.0)  # one of 1, one of 3
        depth = histogram(registry, "repro_serving_batch_queue_depth")
        # head saw depth 1; behind the held flush the queue grew 1, 2, 3.
        assert (depth["count"], depth["sum"]) == (4, 7.0)
        assert (batcher.batches_flushed, batcher.requests_batched) == (2, 4)


class TestFastPath:
    def test_single_request_uses_fast_runner(self):
        gate, registry = Gate(), MetricsRegistry()
        gate.open()

        async def scenario():
            batcher = MicroBatcher(gate.runner, fast_runner=gate.fast, registry=registry)
            return await batcher.submit("only")

        assert run(scenario) == "fast:only"
        assert gate.singles == ["only"]
        assert gate.batches == []
        assert flush_reasons(registry) == {"idle": 1.0}

    def test_single_request_without_fast_runner_is_a_batch_of_one(self):
        gate = Gate()
        gate.open()

        async def scenario():
            return await MicroBatcher(gate.runner).submit("only")

        assert run(scenario) == "ran:only"
        assert gate.batches == [["only"]]

    def test_multi_request_skips_fast_runner(self):
        gate = Gate()

        async def scenario():
            batcher = MicroBatcher(gate.runner, fast_runner=gate.fast)
            _head, tasks = await behind_a_held_flush(gate, batcher, [1, 2])
            gate.open()
            return await asyncio.gather(*tasks)

        assert run(scenario) == ["ran:1", "ran:2"]
        assert gate.batches == [[1, 2]]
        assert gate.singles == ["head"]


class TestIsolation:
    def test_poisoned_request_fails_alone(self):
        gate = Gate()

        async def scenario():
            batcher = MicroBatcher(gate.runner)
            head, tasks = await behind_a_held_flush(gate, batcher, ["a", "poison", "b"])
            gate.open()
            return await asyncio.gather(head, *tasks, return_exceptions=True)

        _head, good_a, poisoned, good_b = run(scenario)
        assert (good_a, good_b) == ("ran:a", "ran:b")
        assert isinstance(poisoned, ValueError)
        assert "bad item poison" in str(poisoned)

    def test_runner_crash_fails_the_whole_batch(self):
        gate = Gate(crash_on={1})

        async def scenario():
            batcher = MicroBatcher(gate.runner, max_batch=2)
            head, tasks = await behind_a_held_flush(gate, batcher, range(4))
            gate.open()
            return await asyncio.gather(head, *tasks, return_exceptions=True)

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

        gate, registry = Gate(), FlakyRegistry()
        gate.open()

        async def scenario():
            batcher = MicroBatcher(gate.runner, registry=registry)
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
        gate = Gate()

        async def scenario():
            batcher = MicroBatcher(gate.runner, fast_runner=gate.fast)
            head, tasks = await behind_a_held_flush(gate, batcher, range(3))
            tasks[1].cancel()
            gate.open()
            return await asyncio.gather(head, *tasks, return_exceptions=True)

        _head, first, cancelled, third = run(scenario)
        assert (first, third) == ("ran:0", "ran:2")
        assert isinstance(cancelled, asyncio.CancelledError)
        assert gate.batches == [[0, 2]]  # the cancelled item never reached the runner

    def test_cancelling_all_but_one_leaves_fast_path(self):
        gate = Gate()

        async def scenario():
            batcher = MicroBatcher(gate.runner, fast_runner=gate.fast)
            head, tasks = await behind_a_held_flush(gate, batcher, range(2))
            tasks[0].cancel()
            gate.open()
            return await asyncio.gather(head, *tasks, return_exceptions=True)

        _head, cancelled, survivor = run(scenario)
        assert isinstance(cancelled, asyncio.CancelledError)
        assert survivor == "fast:1"
        assert gate.batches == []
        assert gate.singles == ["head", 1]

    def test_all_cancelled_flush_does_not_strand_the_next(self):
        gate, registry = Gate(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(gate.runner, max_batch=2, registry=registry)
            head, tasks = await behind_a_held_flush(gate, batcher, range(4))
            tasks[0].cancel()
            tasks[1].cancel()
            gate.open()
            results = await asyncio.gather(head, *tasks, return_exceptions=True)
            return batcher, results

        batcher, (_head, *rest) = run(scenario)
        assert rest[2:] == ["ran:2", "ran:3"]
        assert gate.batches == [["head"], [2, 3]]
        assert batcher.batches_flushed == 2  # the empty flush is not counted
        assert flush_reasons(registry) == {"idle": 1.0, "backlog": 2.0}

    def test_cancel_mid_flush_spares_batchmates(self):
        gate = Gate()

        async def scenario():
            batcher = MicroBatcher(gate.runner)
            head, tasks = await behind_a_held_flush(gate, batcher, range(2))
            gate.release()  # head returns; [0, 1] goes out and parks
            await head
            await gate.entered()
            tasks[0].cancel()
            gate.open()
            return await asyncio.gather(*tasks, return_exceptions=True)

        cancelled, survivor = run(scenario)
        assert isinstance(cancelled, asyncio.CancelledError)
        assert survivor == "ran:1"
        assert gate.batches == [["head"], [0, 1]]


class TestTraceOwnership:
    def test_flush_belongs_to_its_first_live_request(self):
        """Two back-to-back flushes, the second queued behind a gated
        first: two whole traces.  A backlog flush started from the
        first flush's task must not inherit the first request's span."""
        gate, registry = Gate(), MetricsRegistry()

        def ranked(name):
            def call(arg):
                with span(name, registry=registry):
                    return (gate.fast if name.endswith("rank") else gate.runner)(arg)

            return call

        async def request(batcher, label, item):
            with span("repro_serving_http_request", {"who": label}, registry):
                return await batcher.submit(item)

        async def scenario():
            batcher = MicroBatcher(
                ranked("repro_serving_rank_batch"),
                fast_runner=ranked("repro_serving_rank"),
                registry=registry,
            )
            first = asyncio.create_task(request(batcher, "first", "a"))
            await gate.entered()
            cancelled = asyncio.create_task(request(batcher, "cancelled", "b"))
            second = asyncio.create_task(request(batcher, "second", "c"))
            third = asyncio.create_task(request(batcher, "third", "d"))
            await asyncio.sleep(0)
            cancelled.cancel()
            gate.open()
            return await asyncio.gather(first, second, third)

        with use_tracer(Tracer()) as tracer:
            assert run(scenario) == ["fast:a", "ran:c", "ran:d"]
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


class TestLifecycle:
    def test_submit_after_close_raises(self):
        async def scenario():
            batcher = MicroBatcher(Gate().runner)
            await batcher.close()
            with pytest.raises(BatcherClosed):
                await batcher.submit("late")

        run(scenario)

    def test_close_drains_pending_requests(self):
        gate, registry = Gate(), MetricsRegistry()

        async def scenario():
            batcher = MicroBatcher(gate.runner, max_batch=2, registry=registry)
            head, tasks = await behind_a_held_flush(gate, batcher, range(3))
            closing = asyncio.create_task(batcher.close())
            await asyncio.sleep(0)
            assert not closing.done()  # waiting on the held flush
            with pytest.raises(BatcherClosed):
                await batcher.submit("late")
            gate.open()
            await closing
            # close() returned: every queued request has its answer.
            assert all(task.done() for task in (head, *tasks))
            return await asyncio.gather(head, *tasks)

        assert run(scenario) == ["ran:head", "ran:0", "ran:1", "ran:2"]
        assert gate.batches == [["head"], [0, 1], [2]]
        assert flush_reasons(registry) == {"idle": 1.0, "close": 2.0}

    def test_close_is_idempotent(self):
        async def scenario():
            batcher = MicroBatcher(Gate().runner)
            await batcher.close()
            await batcher.close()

        run(scenario)


class TestConstruction:
    def test_zero_max_batch_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(Gate().runner, max_batch=0)

    def test_takes_no_time_parameter(self):
        with pytest.raises(TypeError):
            MicroBatcher(Gate().runner, window_seconds=0.003)


OPS = st.lists(
    st.one_of(
        st.just(("submit", 0)),
        st.just(("release", 0)),
        st.just(("close", 0)),
        st.tuples(st.just("cancel"), st.integers(0, 40)),
    ),
    max_size=24,
)


class TestAnyInterleaving:
    @settings(deadline=None, max_examples=60)
    @given(ops=OPS, max_batch=st.integers(1, 4), with_fast=st.booleans())
    def test_every_live_future_resolves_once(
        self, ops, max_batch, with_fast
    ):
        gate = Gate()

        async def scenario():
            batcher = MicroBatcher(
                gate.runner,
                max_batch=max_batch,
                fast_runner=gate.fast if with_fast else None,
            )
            tasks, cancelled, closing = [], set(), None
            for op, arg in ops:
                if op == "submit":
                    tasks.append(asyncio.create_task(batcher.submit(len(tasks))))
                elif op == "cancel" and tasks:
                    cancelled.add(arg % len(tasks))
                    tasks[arg % len(tasks)].cancel()
                elif op == "release":
                    gate.release()
                    await asyncio.sleep(0.001)  # let a parked flush come back
                elif op == "close" and closing is None:
                    closing = asyncio.create_task(batcher.close())
                await asyncio.sleep(0)
            accepted = len(tasks)
            if closing is None:
                closing = asyncio.create_task(batcher.close())
            await asyncio.sleep(0)
            tasks.append(asyncio.create_task(batcher.submit("late")))
            gate.open()
            await closing
            return accepted, cancelled, await asyncio.gather(
                *tasks, return_exceptions=True
            )

        accepted, cancelled, (*outcomes, late) = run(scenario)
        assert isinstance(late, BatcherClosed)
        for item, outcome in enumerate(outcomes):
            if isinstance(outcome, (asyncio.CancelledError, BatcherClosed)):
                # Only a cancelled waiter, or one that met the closed
                # door, may go without an answer.
                assert item in cancelled or isinstance(outcome, BatcherClosed)
            else:
                assert outcome in (f"ran:{item}", f"fast:{item}")
        assert len(outcomes) == accepted
        assert all(len(batch) <= max_batch for batch in gate.batches)
        computed = gate.singles + [item for batch in gate.batches for item in batch]
        assert len(computed) == len(set(computed))  # nothing computed twice
        for batch in gate.batches:
            assert batch == sorted(batch)  # FIFO within a flush
