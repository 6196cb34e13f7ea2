"""The traced run: spans around the public callables of each layer.

Nothing inside ``src/`` is edited.  Each target is patched *where it
is looked up* (a class attribute, or a name imported into the calling
module), the wrapper records ``(name, start, end, span_id, parent_id,
request)`` into an in-memory list, and :meth:`SpanTracer.uninstall`
puts the originals back.  Parents are carried by a context variable,
so a span's parent is the innermost open span of the same thread or
asyncio task; work handed to an executor thread starts a new tree.
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux and so comparable
between the load generator and the server process.

:class:`Bill` turns the span list into the per-layer numbers: medians
per call, and *self* time (a span minus the part its direct children
cover).
"""

from __future__ import annotations

import inspect
import itertools
import json
import statistics
import time
from collections import defaultdict
from collections.abc import Callable, Iterable
from contextvars import ContextVar
from pathlib import Path
from typing import Any, NamedTuple

SENT_HEADER = "x-bench-sent"
REQUEST_HEADER = "x-bench-request"


class Span(NamedTuple):
    name: str
    start: float
    end: float
    span_id: int
    parent_id: int | None
    request: int | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


NameOf = str | Callable[[tuple[Any, ...]], str]


class SpanTracer:
    """Installs and removes the wrappers; owns the recorded spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.request: ContextVar[int | None] = ContextVar("bench_request", default=None)
        self._open: ContextVar[int | None] = ContextVar("bench_span", default=None)
        self._ids = itertools.count(1)
        self._originals: list[tuple[Any, str, Any]] = []

    # -- wrappers ------------------------------------------------------

    def _sync(self, function: Callable[..., Any], name: NameOf) -> Callable[..., Any]:
        spans, open_span, request, ids = self.spans, self._open, self.request, self._ids
        clock = time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = open_span.get()
            token = open_span.set(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                open_span.reset(token)
                label = name if isinstance(name, str) else name(args)
                spans.append(Span(label, start, end, span_id, parent, request.get()))

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def _async(self, function: Callable[..., Any], name: NameOf) -> Callable[..., Any]:
        spans, open_span, request, ids = self.spans, self._open, self.request, self._ids
        clock = time.perf_counter

        async def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = next(ids)
            parent = open_span.get()
            token = open_span.set(span_id)
            start = clock()
            try:
                return await function(*args, **kwargs)
            finally:
                end = clock()
                open_span.reset(token)
                label = name if isinstance(name, str) else name(args)
                spans.append(Span(label, start, end, span_id, parent, request.get()))

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def _read_request(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """``read_http_request``: the span starts when the client sent.

        The coroutine also waits for the *next* request to arrive on a
        keep-alive connection; that idle time belongs to no layer, so
        the span is clipped to the send time the generator put in a
        header.  The request id from the same headers is left in the
        context for every later span of this connection's request.
        """
        spans, request, ids = self.spans, self.request, self._ids
        clock = time.perf_counter

        async def traced(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            parsed = await function(*args, **kwargs)
            end = clock()
            if parsed is not None:
                headers = parsed.headers
                if SENT_HEADER in headers:
                    start = min(max(start, float(headers[SENT_HEADER])), end)
                request.set(
                    int(headers[REQUEST_HEADER]) if REQUEST_HEADER in headers else None
                )
                spans.append(
                    Span("serving.http.read_request", start, end, next(ids), None, request.get())
                )
            return parsed

        return traced

    def _pad_batch(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """``pad_batch``: count real tokens against padded cells."""
        counts = self.counts

        def traced(*args: Any, **kwargs: Any) -> Any:
            batch = function(*args, **kwargs)
            counts["pad_real"] += float(batch.lengths.sum())
            counts["pad_cells"] += float(batch.mask.size)
            return batch

        return traced

    def _encode_events(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """``encode_events``: a span, plus how many events it encoded."""
        counts = self.counts
        spanned = self._sync(function, "core.model.encode_events")

        def traced(model: Any, events: Any, *args: Any, **kwargs: Any) -> Any:
            counts["encoded_events"] += len(events)
            return spanned(model, events, *args, **kwargs)

        return traced

    # -- patching ------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, wrap: Callable[[Any], Any]) -> None:
        raw = owner.__dict__[attribute] if inspect.isclass(owner) else getattr(owner, attribute)
        self._originals.append((owner, attribute, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(wrap(raw.__func__)))
        else:
            setattr(owner, attribute, wrap(raw))

    def _wrap(self, function: Callable[..., Any], name: NameOf) -> Callable[..., Any]:
        make = self._async if inspect.iscoroutinefunction(function) else self._sync
        return make(function, name)

    def install(self) -> None:
        """Wrap every layer's public callables (idempotent)."""
        if self._originals:
            return
        for owner, attribute, name in layer_targets():
            self._patch(owner, attribute, lambda fn, name=name: self._wrap(fn, name))
        import repro.core.model as model_module
        import repro.serving.server as server_module

        self._patch(server_module, "read_http_request", self._read_request)
        self._patch(model_module, "pad_batch", self._pad_batch)
        self._patch(model_module.JointUserEventModel, "encode_events", self._encode_events)

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, raw = self._originals.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "SpanTracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


def dump_spans(spans: Iterable[Span], path: Path) -> None:
    """One JSON object per span: name, start, end, id, parent, request."""
    with path.open("w") as handle:
        for span in spans:
            handle.write(json.dumps(span._asdict()) + "\n")


def layer_targets() -> list[tuple[Any, str, NameOf]]:
    """``(owner, attribute, span name)`` for every traced callable."""
    import repro.core.model as model_module
    import repro.core.service as service_module
    import repro.core.trainer as trainer_module
    import repro.serving.server as server_module
    from repro.core.model import JointUserEventModel
    from repro.core.service import RepresentationService
    from repro.core.tower import Tower
    from repro.core.trainer import RepresentationTrainer
    from repro.nn.optim import SGD, Adagrad, Optimizer
    from repro.serving.batcher import MicroBatcher
    from repro.serving.http import HttpRequest
    from repro.serving.schemas import RecommendRequest, ScoreRequest
    from repro.serving.server import ServingServer
    from repro.store.cache import VectorCache
    from repro.store.index import EventIndex
    from repro.text.documents import DocumentEncoder

    def tower(direction: str) -> Callable[[tuple[Any, ...]], str]:
        return lambda args: f"core.tower.{args[0].name}_{direction}"

    return [
        (server_module, "render_response", "serving.http.render_response"),
        (HttpRequest, "json", "serving.http.json_decode"),
        (RecommendRequest, "from_payload", "serving.schemas.from_payload"),
        (ScoreRequest, "from_payload", "serving.schemas.from_payload"),
        (ServingServer, "dispatch", lambda args: f"serving.server.dispatch{args[1].path}"),
        (MicroBatcher, "submit", "serving.batcher.submit"),
        (RepresentationService, "rank_events", "core.service.rank_events"),
        (RepresentationService, "rank_events_batch", "core.service.rank_events_batch"),
        (RepresentationService, "score", "core.service.score"),
        (RepresentationService, "user_vector", "core.service.user_vector"),
        (RepresentationService, "refresh_events", "core.service.refresh_events"),
        (RepresentationService, "remove_event", "core.service.remove_event"),
        (EventIndex, "score_ids", "store.index.score_ids"),
        (EventIndex, "score_ids_batch", "store.index.score_ids_batch"),
        (EventIndex, "scores", "store.index.scores"),
        (EventIndex, "scores_batch", "store.index.scores"),
        (EventIndex, "upsert", "store.index.upsert"),
        (EventIndex, "remove", "store.index.remove"),
        (service_module, "top_k_order", "store.index.top_k_order"),
        (VectorCache, "get", "store.cache.get"),
        (DocumentEncoder, "encode_event", "text.documents.encode_event"),
        (DocumentEncoder, "encode_user", "text.documents.encode_user"),
        (JointUserEventModel, "user_batches", "core.model.user_batches"),
        (JointUserEventModel, "event_batches", "core.model.event_batches"),
        (JointUserEventModel, "train_step", "core.model.train_step"),
        (Tower, "forward", tower("forward")),
        (Tower, "backward", tower("backward")),
        (model_module, "cosine_similarity", "nn.cosine.forward"),
        (model_module, "cosine_similarity_backward", "nn.cosine.backward"),
        (model_module, "contrastive_loss", "nn.losses.contrastive"),
        (trainer_module, "contrastive_loss", "nn.losses.contrastive"),
        (SGD, "step", "nn.optim.step"),
        (Adagrad, "step", "nn.optim.step"),
        (Optimizer, "zero_grad", "nn.optim.zero_grad"),
        (RepresentationTrainer, "fit", "core.trainer.fit"),
        (RepresentationTrainer, "evaluate_loss", "core.trainer.evaluate_loss"),
    ]


class Bill:
    """Per-name durations and self times over a list of spans."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.by_name: defaultdict[str, list[Span]] = defaultdict(list)
        covered: defaultdict[int, float] = defaultdict(float)
        for span in self.spans:
            self.by_name[span.name].append(span)
            if span.parent_id is not None:
                covered[span.parent_id] += span.seconds
        self._covered = covered

    def named(self, name: str) -> list[Span]:
        """Spans called ``name``; a trailing ``*`` matches any suffix."""
        if not name.endswith("*"):
            return self.by_name.get(name, [])
        return [
            span
            for known, spans in self.by_name.items()
            if known.startswith(name[:-1])
            for span in spans
        ]

    def count(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(span.seconds for span in self.named(name))

    def median(self, name: str, scale: float = 1.0) -> float:
        """Median seconds per call times ``scale``; 0.0 with no calls."""
        spans = self.named(name)
        if not spans:
            return 0.0
        return scale * statistics.median(span.seconds for span in spans)

    def self_seconds(self, span: Span) -> float:
        return span.seconds - self._covered.get(span.span_id, 0.0)

    def median_self(self, name: str, scale: float = 1.0) -> float:
        spans = self.named(name)
        if not spans:
            return 0.0
        return scale * statistics.median(self.self_seconds(span) for span in spans)
