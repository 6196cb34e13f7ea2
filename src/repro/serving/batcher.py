"""Deadline-based request micro-batcher for the serving loop.

The indexed ranking path (PR 3) made a single top-K a GEMV; the batch
path made a cohort a GEMM.  This module is the piece that turns
*concurrent traffic* into cohorts: ``/recommend`` requests arriving
within a small window (default 3 ms) of the first request coalesce
into one :meth:`RepresentationService.rank_events_batch` call, so N
concurrent users cost one GEMM instead of N GEMVs.

Mechanics — all state is owned by the event loop (asyncio is
single-threaded, so mutations between ``await`` points are atomic; no
lock is needed):

* The first request to an empty queue arms a **deadline timer** for
  ``window_seconds``; requests landing before it fires join the batch.
* Reaching ``max_batch`` flushes immediately (reason ``"full"``);
  otherwise the timer flushes (reason ``"deadline"``); ``close()``
  drains whatever is queued (reason ``"close"``).
* The batch ``runner`` is a plain synchronous callable executed in
  the loop's default executor, returning **one result or exception
  per item** — a poisoned request (unknown user id) fails alone; only
  a runner-level crash fails the whole batch.
* A request cancelled while queued is skipped at flush time and never
  reaches the runner for a size-1 batch; its batchmates are
  unaffected.
* A flush containing exactly one live request takes the
  ``fast_runner`` path when one is provided — the server wires this
  to the single-user ``rank_events`` GEMV, which is bit-identical to
  a 1-row GEMM, so an idle server adds no numeric or latency overhead
  beyond the window wait.

Telemetry: ``repro_serving_batch_users`` (flushed batch size) and
``repro_serving_batch_queue_depth`` (depth seen at each enqueue)
histograms, a ``repro_serving_batch_flush_total`` counter labeled by
reason, and a ``repro_serving_batch_execute`` span around runner
execution.  When tracing, that span and everything the runner opens in
the executor thread belong to the trace of the request whose context
armed the flush (the first of a window, or the one that filled it);
its batchmates' traces end at their own ``repro_serving_http_request``.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable, Sequence
from typing import Any, TypeVar

from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import carry_span, span

__all__ = ["BatcherClosed", "MicroBatcher"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

# Size-scale buckets (requests per batch / queue depth), not latency.
_SIZE_BUCKETS: tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

DEFAULT_WINDOW_SECONDS = 0.003
DEFAULT_MAX_BATCH = 32


class BatcherClosed(RuntimeError):
    """Raised by :meth:`MicroBatcher.submit` after :meth:`close`."""


class MicroBatcher:
    """Coalesce concurrent submissions into windowed batch calls.

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
        window_seconds: float = DEFAULT_WINDOW_SECONDS,
        max_batch: int = DEFAULT_MAX_BATCH,
        fast_runner: Callable[[ItemT], Any] | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        if window_seconds < 0:
            raise ValueError(f"window_seconds must be >= 0, got {window_seconds}")
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.runner = runner
        self.fast_runner = fast_runner
        self.window_seconds = window_seconds
        self.max_batch = max_batch
        self.registry = registry if registry is not None else get_registry()
        self._pending: list[tuple[ItemT, asyncio.Future[Any]]] = []
        self._timer: asyncio.TimerHandle | None = None
        self._tasks: set[asyncio.Task[None]] = set()
        self._closed = False
        # Diagnostics mirrored into metrics; handy in tests.
        self.batches_flushed = 0
        self.requests_batched = 0

    # -- submission ----------------------------------------------------

    async def submit(self, item: ItemT) -> Any:
        """Queue ``item`` and wait for its result from the next flush."""
        if self._closed:
            raise BatcherClosed("batcher is closed; not accepting requests")
        loop = asyncio.get_running_loop()
        future: asyncio.Future[Any] = loop.create_future()
        self._pending.append((item, future))
        depth = len(self._pending)
        self.registry.histogram(
            "repro_serving_batch_queue_depth", buckets=_SIZE_BUCKETS
        ).observe(depth)
        if depth >= self.max_batch:
            self._flush("full")
        elif depth == 1:
            self._timer = loop.call_later(
                self.window_seconds, self._flush, "deadline"
            )
        return await future

    # -- flushing ------------------------------------------------------

    def _flush(self, reason: str) -> None:
        """Detach the queued batch and hand it to a runner task.

        Runs synchronously on the event loop (timer callback or inline
        from ``submit``), so the snapshot-and-clear is atomic: any
        submission after this point starts a fresh window.
        """
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch = self._pending
        if not batch:
            return
        self._pending = []
        task = asyncio.get_running_loop().create_task(
            self._run_batch(batch, reason)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(
        self, batch: list[tuple[ItemT, asyncio.Future[Any]]], reason: str
    ) -> None:
        # A waiter cancelled while queued cancels its future; drop it
        # here so the runner never computes for it.
        live = [(item, future) for item, future in batch if not future.cancelled()]
        try:
            self.registry.counter(
                "repro_serving_batch_flush_total", tags={"reason": reason}
            ).inc()
            self.registry.histogram(
                "repro_serving_batch_users", buckets=_SIZE_BUCKETS
            ).observe(len(live))
            if not live:
                return
            self.batches_flushed += 1
            self.requests_batched += len(live)
            items = [item for item, _ in live]
            loop = asyncio.get_running_loop()
            with span(
                "repro_serving_batch_execute",
                tags={"reason": reason},
                registry=self.registry,
            ):
                # The executor thread starts without this task's
                # current span; carry_span keeps the runner's spans in
                # the trace of the request whose context armed the flush.
                if len(items) == 1 and self.fast_runner is not None:
                    results: Sequence[Any] = [
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
            # the runner even started): the whole batch shares the
            # error — every live future MUST resolve or its submitter
            # hangs forever.  ``done()`` guards a racing cancellation.
            for _, future in live:
                if not future.done():
                    future.set_exception(error)
            return
        for (_, future), result in zip(live, results):
            if future.cancelled():
                continue
            if isinstance(result, Exception):
                future.set_exception(result)
            else:
                future.set_result(result)

    # -- lifecycle -----------------------------------------------------

    async def close(self) -> None:
        """Stop accepting work, drain the queue, await in-flight runs."""
        if self._closed:
            return
        self._closed = True
        self._flush("close")
        while self._tasks:
            await asyncio.gather(*tuple(self._tasks), return_exceptions=True)
