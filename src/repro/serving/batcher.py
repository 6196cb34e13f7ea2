"""Work-conserving request micro-batcher for the serving loop.

The indexed ranking path (PR 3) made a single top-K a GEMV; the batch
path made a cohort a GEMM.  This module is the piece that turns
*concurrent traffic* into cohorts without ever making a request wait
for company: at most one flush is in flight, a request that finds the
runner free goes out at once, and requests that arrive while it is
busy queue and leave together — one call of the batch ``runner`` —
the moment it comes back.  Batch size follows load by itself; there is
no timer.  The batcher is a pure coalescer: what a flush costs, and
how its items are split into service calls, is the runner's business.

Mechanics — all state is owned by the event loop (asyncio is
single-threaded, so mutations between ``await`` points are atomic; no
lock is needed):

* A ``submit`` that finds no flush in flight starts one at once
  (reason ``"idle"``; the queue is empty whenever the runner is free,
  so this is always a flush of one).  The flush is a task, so its
  runner is called after the submitting tick.
* A ``submit`` that finds one in flight — including a submit later in
  that same tick — queues.  When that flush's runner returns, the
  backlog — up to :data:`MAX_BATCH`, FIFO, the rest in the following
  flush — goes out as the next one (reason ``"backlog"``).
* ``close()`` waits for the flush in flight, then drains the queue the
  same way (reason ``"close"``).
* The batch ``runner`` is a plain synchronous callable called **on the
  loop**, returning **one result or exception per item** — a poisoned
  request (unknown user id) fails alone; a runner-level crash fails
  that flush's requests and no others.  One flush is bounded work (at
  most :data:`MAX_BATCH` users against the served pool, well under a
  millisecond), and the serving process holds the GIL for nearly all
  of it, so an executor thread would add two thread switches and a
  wake-up to every request and no parallelism.
* A request cancelled while queued is skipped at flush time;
  its batchmates are unaffected.  A chunk of the queue whose every
  waiter was cancelled is no flush at all: nothing runs, nothing is
  counted, and the next chunk (if any) goes out in its place.

Telemetry: ``repro_serving_batch_users`` (flushed batch size) and
``repro_serving_batch_queue_depth`` (depth seen at each enqueue)
histograms, a ``repro_serving_batch_flush_total`` counter labeled by
reason, and a ``repro_serving_batch_execute`` span around runner
execution.  Each flush task runs in a copy of the context its first
live request submitted from, so when tracing, that span belongs to
that request's trace — never to whichever earlier request's flush
released the backlog; its batchmates' traces end at their own
``repro_serving_http_request``.  The runner itself is called in a
fresh, empty ``contextvars`` context: a flush serves many requests and
inherits no request's context variables, except the trace parent that
:func:`~repro.obs.trace.carry_span` hands it.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Sequence
from contextvars import Context, copy_context
from typing import Any, TypeVar

from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import carry_span, span

__all__ = ["BatcherClosed", "MicroBatcher"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

# Most requests one flush carries; the rest of a backlog waits for the
# next.  Read at flush time, so tests reach the bound by patching it.
MAX_BATCH = 32


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after :meth:`close`."""


class MicroBatcher:
    """Coalesce submissions that arrive while a batch call is running.

    ``runner(items)`` must return a sequence aligned with ``items``
    where each element is either the item's result or an
    :class:`Exception` instance to fail that item alone.
    """

    def __init__(
        self,
        runner: Callable[[list[ItemT]], Sequence[Any]],
        *,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.runner = runner
        self.registry = registry if registry is not None else get_registry()
        self._pending: list[tuple[ItemT, asyncio.Future[Any], Context]] = []
        self._in_flight: asyncio.Task[None] | None = None
        self._closed = False
        # Diagnostics mirrored into metrics; handy in tests.
        self.batches_flushed = 0
        self.requests_batched = 0

    # -- submission ----------------------------------------------------

    async def submit(self, item: ItemT) -> Any:
        """Queue ``item`` and wait for its result from the next flush."""
        if self._closed:
            raise BatcherClosed("batcher is closed; not accepting requests")
        future: asyncio.Future[Any] = asyncio.get_running_loop().create_future()
        self._pending.append((item, future, copy_context()))
        self.registry.histogram("repro_serving_batch_queue_depth").observe(len(self._pending))
        if self._in_flight is None:
            self._flush("idle")
        return await future

    # -- flushing ------------------------------------------------------

    def _flush(self, reason: str) -> None:
        """Detach the head of the queue and hand it to a runner task.

        Runs synchronously on the event loop, so the detach is atomic.
        Waiters cancelled while queued are dropped here: the runner
        never computes for them, and a chunk with no live waiter left
        is skipped whole.  The task runs in the first live request's
        context, which makes that request's span the parent of the
        flush's span, and so of everything the runner opens.
        """
        while self._pending:
            batch = self._pending[:MAX_BATCH]
            del self._pending[:MAX_BATCH]
            live = [entry for entry in batch if not entry[1].cancelled()]
            if live:
                self._in_flight = live[0][2].run(
                    asyncio.get_running_loop().create_task,
                    self._run_batch(live, reason),
                )
                return

    def _release(self) -> None:
        """The runner is free again: send the backlog, if any."""
        self._in_flight = None
        self._flush("close" if self._closed else "backlog")

    async def _run_batch(
        self, live: list[tuple[ItemT, asyncio.Future[Any], Context]], reason: str
    ) -> None:
        items = [item for item, _, _ in live]
        try:
            self.registry.counter(
                "repro_serving_batch_flush_total", tags={"reason": reason}
            ).inc()
            self.registry.histogram("repro_serving_batch_users").observe(len(items))
            self.batches_flushed += 1
            self.requests_batched += len(items)
            with span(
                "repro_serving_batch_execute",
                tags={"reason": reason},
                registry=self.registry,
            ):
                # This task's context is its first request's; the
                # runner, which serves them all, gets an empty one, and
                # carry_span keeps its spans in this flush's trace.
                results: Sequence[Any] = Context().run(
                    carry_span(self.runner), items
                )
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch runner returned {len(results)} results "
                    f"for {len(items)} items"
                )
        except Exception as error:
            # Runner-level failure (including telemetry raising before
            # the runner even started): this flush shares the error —
            # every live future MUST resolve or its submitter hangs
            # forever — and the backlog behind it is untouched.
            results = [error] * len(items)
        finally:
            # Whatever happened above, the runner is free and the
            # backlog must not wait on it.
            self._release()
        for (_, future, _), result in zip(live, results):
            if future.done():
                continue  # cancelled after this flush was detached
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)

    # -- lifecycle -----------------------------------------------------

    async def close(self) -> None:
        """Stop accepting work, await the flush in flight, drain the queue."""
        self._closed = True
        while self._in_flight is not None:
            await asyncio.gather(self._in_flight, return_exceptions=True)
