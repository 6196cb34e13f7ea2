"""Work-conserving request micro-batcher for the serving loop.

The indexed ranking path (PR 3) made a single top-K a GEMV; the batch
path made a cohort a GEMM.  This module is the piece that turns
*concurrent traffic* into cohorts without ever making a request wait
for company: at most one flush is in flight, a request that finds the
runner free goes out at once, and requests that arrive while it is
busy queue and leave together — one
:meth:`RepresentationService.rank_events_batch` GEMM — the moment it
comes back.  Batch size follows load by itself; there is no timer.

Mechanics — all state is owned by the event loop (asyncio is
single-threaded, so mutations between ``await`` points are atomic; no
lock is needed):

* A ``submit`` that finds no flush in flight flushes immediately
  (reason ``"idle"``; the queue is empty whenever the runner is free,
  so this is always a flush of one).
* A ``submit`` that finds one in flight queues.  When that flush's
  runner returns, the backlog — up to ``max_batch``, FIFO, the rest in
  the following flush — goes out as the next one (reason
  ``"backlog"``).
* ``close()`` waits for the flush in flight, then drains the queue the
  same way (reason ``"close"``).
* The batch ``runner`` is a plain synchronous callable executed in
  the loop's default executor, returning **one result or exception
  per item** — a poisoned request (unknown user id) fails alone; a
  runner-level crash fails that flush's requests and no others.
* A request cancelled while queued is skipped at flush time;
  its batchmates are unaffected.
* A flush containing exactly one live request takes the
  ``fast_runner`` path when one is provided — the server wires this
  to the single-user ``rank_events`` GEMV, so an idle server adds
  only the executor hop.

Telemetry: ``repro_serving_batch_users`` (flushed batch size) and
``repro_serving_batch_queue_depth`` (depth seen at each enqueue)
histograms, a ``repro_serving_batch_flush_total`` counter labeled by
reason, and a ``repro_serving_batch_execute`` span around runner
execution.  Each flush runs in a copy of the context its first live
request submitted from, so when tracing, that span and everything the
runner opens in the executor thread belong to that request's trace —
never to whichever earlier request's flush released the backlog; its
batchmates' traces end at their own ``repro_serving_http_request``.
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

# Size-scale buckets (requests per batch / queue depth), not latency.
_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

DEFAULT_MAX_BATCH = 32


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after :meth:`close`."""


class MicroBatcher:
    """Coalesce submissions that arrive while a batch call is running.

    ``runner(items)`` must return a sequence aligned with ``items``
    where each element is either the item's result or an
    :class:`Exception` instance to fail that item alone.
    ``fast_runner(item)``, when given, handles size-1 flushes without
    paying batch-path overhead.
    """

    def __init__(
        self,
        runner: Callable[[list[ItemT]], Sequence[Any]],
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        fast_runner: Callable[[ItemT], Any] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.runner = runner
        self.fast_runner = fast_runner
        self.max_batch = max_batch
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
        self.registry.histogram(
            "repro_serving_batch_queue_depth", buckets=_SIZE_BUCKETS
        ).observe(len(self._pending))
        if self._in_flight is None:
            self._flush("idle")
        return await future

    # -- flushing ------------------------------------------------------

    def _flush(self, reason: str) -> None:
        """Detach the head of the queue and hand it to a runner task.

        Runs synchronously on the event loop, so the detach is atomic.
        Waiters cancelled while queued are dropped here: the runner
        never computes for them.  The task runs in the first live
        request's context, which makes that request's span the parent
        of everything the flush opens.
        """
        batch = self._pending[: self.max_batch]
        del self._pending[: self.max_batch]
        live = [entry for entry in batch if not entry[1].cancelled()]
        context = (live or batch)[0][2]
        self._in_flight = context.run(
            asyncio.get_running_loop().create_task, self._run_batch(live, reason)
        )

    def _release(self) -> None:
        """The runner is free again: send the backlog, if any."""
        self._in_flight = None
        if self._pending:
            self._flush("close" if self._closed else "backlog")

    async def _run_batch(
        self, live: list[tuple[ItemT, asyncio.Future[Any], Context]], reason: str
    ) -> None:
        items = [item for item, _, _ in live]
        try:
            self.registry.counter(
                "repro_serving_batch_flush_total", tags={"reason": reason}
            ).inc()
            self.registry.histogram(
                "repro_serving_batch_users", buckets=_SIZE_BUCKETS
            ).observe(len(items))
            results: Sequence[Any] = []
            if items:
                self.batches_flushed += 1
                self.requests_batched += len(items)
                loop = asyncio.get_running_loop()
                with span(
                    "repro_serving_batch_execute",
                    tags={"reason": reason},
                    registry=self.registry,
                ):
                    # The executor thread starts without this task's
                    # current span; carry_span keeps the runner's spans
                    # in this flush's trace.
                    if len(items) == 1 and self.fast_runner is not None:
                        results = [
                            await loop.run_in_executor(
                                None, carry_span(self.fast_runner), items[0]
                            )
                        ]
                    else:
                        results = await loop.run_in_executor(
                            None, carry_span(self.runner), items
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
            # Whatever happened above — a crash, a cancellation — the
            # runner is free and the backlog must not wait on it.
            self._release()
        for (_, future, _), result in zip(live, results):
            if future.done():
                continue  # cancelled while the runner ran
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
