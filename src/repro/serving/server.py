"""The serving process: HTTP routes over ``RepresentationService``.

:class:`ServingServer` owns the entity tables (id → User/Event), the
:class:`~repro.serving.batcher.MicroBatcher` that sends a
``/recommend`` straight to the ranker when it is free and coalesces
what queues behind a busy one into ``rank_events_batch`` GEMMs, and
the route handlers.  :class:`ThreadedServer` wraps it for synchronous
callers (the CLI, tests, the loadgen HTTP mode): the asyncio loop
runs in a daemon thread and ``start()`` blocks until the socket is
bound.

Batched-recommend correctness model: per-pair scores do not depend on
the candidate pool, and the ranking key ``(-score, event_id)`` is a
total order.  A batch therefore scores the **union** of its requests'
pools once, and ``rank_events_batch`` masks each request's row of that
score matrix down to its own pool and ``at_time`` activity window (read
from the index, like the single-user path) before taking its ``top_k``
— exactly the list ``rank_events`` would have produced for that request
alone: identical ids and order, scores within 1e-9 (a multi-row GEMM
sums in another order than the GEMV).  A flush of size 1 — every
request an idle server sees — takes the ``rank_events`` path directly.
"""

from __future__ import annotations

import asyncio
import threading
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.service import RepresentationService, ScoredEvent
from repro.core.similar_events import SimilarEventIndex
from repro.entities import Event, User
from repro.obs.export import render_prometheus
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import carry_span, span
from repro.serving.batcher import DEFAULT_MAX_BATCH, BatcherClosed, MicroBatcher
from repro.serving.http import (
    HttpError,
    HttpRequest,
    read_http_request,
    render_response,
)
from repro.serving.schemas import (
    ApiError,
    RecommendRequest,
    ScoreRequest,
    SimilarEventsRequest,
    error_envelope,
)

__all__ = ["ServingServer", "ThreadedServer"]


@dataclass(frozen=True)
class _RecommendWork:
    """One resolved ``/recommend`` request queued for batching."""

    user: User
    pool_ids: frozenset[int] | None  # None = the full served pool
    at_time: float | None
    top_k: int | None


def _scored_payload(item: ScoredEvent) -> dict[str, Any]:
    return {
        "event_id": item.event.event_id,
        "score": item.score,
        "title": item.event.title,
    }


class ServingServer:
    """Route handlers + batching over one warmed service."""

    def __init__(
        self,
        service: RepresentationService,
        users: list[User] | tuple[User, ...],
        events: list[Event] | tuple[Event, ...],
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.service = service
        self.users = {user.user_id: user for user in users}
        self.events = {event.event_id: event for event in events}
        self.pool: list[Event] = list(events)
        self.registry = registry if registry is not None else get_registry()
        self.batcher: MicroBatcher = MicroBatcher(
            self._recommend_batch,
            max_batch=max_batch,
            fast_runner=self._recommend_single,
            registry=self.registry,
        )
        self.draining = False
        self._similar: SimilarEventIndex | None = None
        self._similar_lock = threading.Lock()

    # -- entity resolution ---------------------------------------------

    def _resolve_user(self, user_id: int) -> User:
        user = self.users.get(user_id)
        if user is None:
            raise ApiError(404, "not_found", f"unknown user_id {user_id}")
        return user

    def _resolve_event(self, event_id: int) -> Event:
        event = self.events.get(event_id)
        if event is None:
            raise ApiError(404, "not_found", f"unknown event_id {event_id}")
        return event

    def _resolve_pool(self, event_ids: list[int] | None) -> frozenset[int] | None:
        if event_ids is None:
            return None
        unknown = sorted(i for i in event_ids if i not in self.events)
        if unknown:
            raise ApiError(
                422,
                "validation",
                "request failed validation",
                [f"unknown event ids in pool: {unknown}"],
            )
        return frozenset(event_ids)

    # -- batched recommend runners -------------------------------------

    def _pool_events(self, pool_ids: frozenset[int] | None) -> list[Event]:
        if pool_ids is None:
            return self.pool
        return [self.events[i] for i in sorted(pool_ids)]

    def _recommend_single(self, work: _RecommendWork) -> list[ScoredEvent]:
        """Size-1 flush: the sequential path, no batch overhead."""
        return self.service.rank_events(
            work.user,
            self._pool_events(work.pool_ids),
            at_time=work.at_time,
            top_k=work.top_k,
        )

    def _recommend_batch(
        self, items: list[_RecommendWork]
    ) -> list[list[ScoredEvent]]:
        """One GEMM over the union pool, one answer per request.

        The service applies each request's own pool, ``at_time`` and
        ``top_k`` to its row of the shared score matrix, so each answer
        matches a direct ``rank_events`` call — the cross-path parity
        test pins this.
        """
        pools = [work.pool_ids for work in items]
        if any(pool_ids is None for pool_ids in pools):
            union_events = self.pool
        else:
            union_events = self._pool_events(frozenset().union(*pools))
        return self.service.rank_events_batch(
            [work.user for work in items],
            union_events,
            at_time=[work.at_time for work in items],
            top_k=[work.top_k for work in items],
            subsets=pools,
        )

    # -- route handlers ------------------------------------------------

    async def recommend(self, payload: Any) -> tuple[int, Any]:
        request = RecommendRequest.from_payload(payload)
        user = self._resolve_user(request.user_id)
        pool_ids = self._resolve_pool(request.event_ids)
        work = _RecommendWork(
            user=user,
            pool_ids=pool_ids,
            at_time=request.at_time,
            top_k=request.top_k,
        )
        try:
            ranking = await self.batcher.submit(work)
        except BatcherClosed:
            raise ApiError(
                503, "unavailable", "server is draining; retry elsewhere"
            ) from None
        return 200, {
            "user_id": request.user_id,
            "results": [_scored_payload(item) for item in ranking],
        }

    async def score(self, payload: Any) -> tuple[int, Any]:
        request = ScoreRequest.from_payload(payload)
        user = self._resolve_user(request.user_id)
        event = self._resolve_event(request.event_id)
        loop = asyncio.get_running_loop()
        value = await loop.run_in_executor(
            None, carry_span(self.service.score), user, event
        )
        return 200, {
            "user_id": request.user_id,
            "event_id": request.event_id,
            "score": value,
        }

    def _similar_index(self) -> SimilarEventIndex:
        # Built lazily (in an executor thread) on the first
        # /similar-events request: boot stays fast and servers that
        # never see the endpoint never pay for the index.
        with self._similar_lock:
            if self._similar is None:
                vectors = np.vstack(
                    [self.service.event_vector(event) for event in self.pool]
                )
                self._similar = SimilarEventIndex(self.pool, vectors)
            return self._similar

    async def similar_events(self, payload: Any) -> tuple[int, Any]:
        request = SimilarEventsRequest.from_payload(payload)
        self._resolve_event(request.event_id)
        loop = asyncio.get_running_loop()

        def query() -> list[Any]:
            return self._similar_index().query(
                request.event_id,
                top_k=request.top_k,
                min_similarity=request.min_similarity,
            )

        neighbours = await loop.run_in_executor(None, carry_span(query))
        return 200, {
            "event_id": request.event_id,
            "results": [
                {
                    "event_id": item.event.event_id,
                    "similarity": item.similarity,
                    "word_overlap": item.word_overlap,
                    "title": item.event.title,
                }
                for item in neighbours
            ],
        }

    async def healthz(self, payload: Any) -> tuple[int, Any]:
        if self.draining:
            raise ApiError(503, "unavailable", "server is draining")
        batcher = self.batcher
        flushed = batcher.batches_flushed
        return 200, {
            "status": "ok",
            "users": len(self.users),
            "events": len(self.events),
            "batches_flushed": flushed,
            "requests_batched": batcher.requests_batched,
            "mean_batch_size": (
                batcher.requests_batched / flushed if flushed else 0.0
            ),
        }

    async def metrics(self, payload: Any) -> tuple[int, Any]:
        # Rendering walks the whole registry; at high series counts
        # that is milliseconds of string work, so it runs off-loop
        # (RPR501 flags it inline).
        loop = asyncio.get_running_loop()
        text = await loop.run_in_executor(
            None, lambda: render_prometheus(self.registry.snapshot())
        )
        return 200, text

    # -- dispatch ------------------------------------------------------

    ROUTES: dict[str, tuple[str, str]] = {
        "/recommend": ("POST", "recommend"),
        "/score": ("POST", "score"),
        "/similar-events": ("POST", "similar_events"),
        "/healthz": ("GET", "healthz"),
        "/metrics": ("GET", "metrics"),
    }

    # Status contract per route, enforced statically (RPR110): a
    # handler may only produce codes declared here.  404/405/500 from
    # the dispatch layer itself are route-independent and not listed.
    ROUTE_STATUSES: dict[str, frozenset[int]] = {
        "/recommend": frozenset({200, 400, 404, 422, 503}),
        "/score": frozenset({200, 400, 404, 422}),
        "/similar-events": frozenset({200, 400, 404, 422}),
        "/healthz": frozenset({200, 503}),
        "/metrics": frozenset({200}),
    }

    async def dispatch(self, request: HttpRequest) -> tuple[int, Any, str]:
        """Route one request; returns (status, payload, content_type)."""
        route = self.ROUTES.get(request.path)
        label = request.path if route is not None else "unknown"
        try:
            if route is None:
                raise ApiError(404, "not_found", f"no route {request.path}")
            method, handler_name = route
            if request.method != method:
                raise ApiError(
                    405,
                    "method_not_allowed",
                    f"{request.path} accepts {method}, not {request.method}",
                )
            try:
                payload = request.json()
            except HttpError as error:
                raise ApiError(error.status, "bad_request", error.message) from None
            handler = getattr(self, handler_name)
            with span(
                "repro_serving_http_request",
                tags={"route": label},
                registry=self.registry,
            ):
                status, body = await handler(payload)
            content_type = (
                "text/plain; version=0.0.4"
                if request.path == "/metrics"
                else "application/json"
            )
        except ApiError as error:
            status, body, content_type = (
                error.status,
                error.envelope(),
                "application/json",
            )
        except Exception as error:  # the 500 envelope of last resort
            status, body, content_type = (
                500,
                error_envelope("internal", f"{type(error).__name__}: {error}"),
                "application/json",
            )
        self.registry.counter(
            "repro_serving_http_requests_total",
            tags={"route": label, "status": str(status)},
        ).inc()
        return status, body, content_type

    # -- connection loop -----------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await read_http_request(reader, writer)
                except HttpError as error:
                    writer.write(
                        render_response(
                            error.status,
                            error_envelope("bad_request", error.message),
                            keep_alive=False,
                        )
                    )
                    await writer.drain()
                    return
                if request is None:
                    return
                status, body, content_type = await self.dispatch(request)
                keep_alive = request.keep_alive
                writer.write(
                    render_response(
                        status,
                        body,
                        content_type=content_type,
                        keep_alive=keep_alive,
                    )
                )
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-exchange; nothing to answer
        except asyncio.CancelledError:
            pass  # loop shutting down; just drop the connection
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def shutdown(self) -> None:
        """Stop accepting recommends, drain in-flight batches."""
        self.draining = True
        await self.batcher.close()


class ThreadedServer:
    """Run a :class:`ServingServer` loop in a daemon thread.

    For synchronous callers: ``start()`` blocks until the listening
    socket is bound and returns ``(host, port)`` (pass ``port=0`` for
    an ephemeral port); ``stop()`` drains the batcher, closes the
    socket, and joins the thread.  Also usable as a context manager.
    """

    def __init__(
        self,
        server: ServingServer,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.server = server
        self.host = host
        self.port = port
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._error: BaseException | None = None

    def start(self) -> tuple[str, int]:
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._run, name="repro-serving", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        if not self._ready.is_set():
            raise RuntimeError("server did not bind within 30 s")
        return self.host, self.port

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface bind failures to start()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        listener = await asyncio.start_server(
            self.server.handle_connection, host=self.host, port=self.port
        )
        sockets = listener.sockets or ()
        if sockets:
            self.host, self.port = sockets[0].getsockname()[:2]
        self._ready.set()
        async with listener:
            await self._stop.wait()
            await self.server.shutdown()

    def join(self, timeout: float | None = None) -> bool:
        """Wait for the server thread; True while it is still alive."""
        thread = self._thread
        if thread is None:
            return False
        thread.join(timeout=timeout)
        return thread.is_alive()

    def stop(self) -> None:
        loop, stop, thread = self._loop, self._stop, self._thread
        if loop is None or stop is None or thread is None:
            return
        loop.call_soon_threadsafe(stop.set)
        thread.join(timeout=30.0)

    def __enter__(self) -> "ThreadedServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
