"""Spans and request tracing: timers, trace ids, tail sampling, export.

A *span* times a named region of code::

    with span("repro_serving_rank", tags={"kind": "user"}):
        ...

and, on exit, records the duration into the histogram
``<name>_seconds`` of the active registry.  Spans nest: the innermost
open span lives in a ``contextvars`` context variable, so a span knows
its *path* ("repro_serving_rank/repro_serving_encode") and depth.

While a :class:`Tracer` is installed every span additionally carries a
``trace_id`` shared by the whole request and a unique
``span_id``/``parent_id`` pair, measures thread CPU time alongside wall
time, and reports a :class:`SpanRecord` to the tracer on exit — so one
slow ``rank_events`` call can be followed through encode → cache →
index GEMV → top-K after the fact.

Pieces:

* **Context propagation** — the current span lives in a
  :class:`contextvars.ContextVar`, which is per-thread *and* per-task:
  a freshly started worker thread has no current span, so spans opened
  concurrently in different threads can never parent each other.  Work
  handed to an executor on behalf of a request keeps its parent through
  :func:`carry_span`.
* **One finish path** — ``Span.__exit__`` and :func:`record_stage`
  (for stages measured without a ``with`` block) both end in
  :func:`_finish`: observe the histogram, with the trace id as the
  observation's exemplar, then hand one :class:`SpanRecord` to the
  tracer.  The histogram and the tracer are the only two sinks.
* **Tracer** — buffers finished spans per trace; when the root span
  of a trace finishes, the assembled :class:`Trace` is folded into
  running per-stage totals (wall, CPU and *self* time — duration
  minus child durations; the one attribution fold, rendered by
  :meth:`Tracer.attribution`) and offered to the sampler.
* **TailSampler** — bounded-memory tail-based retention: the N
  slowest traces are always kept (a min-heap), plus a seeded uniform
  fraction for an unbiased background sample.  Everything else is
  counted and dropped.
* **Exports** — a JSONL trace log (one ``{"record": "trace"}`` object
  per trace) and Chrome ``trace_event`` JSON loadable in
  ``chrome://tracing`` / Perfetto.
* **Exemplar source** — a p99 histogram bucket links back to a
  concrete retained trace via :meth:`Tracer.find`.

Tracing is **off by default**; :func:`active` is a single module-global
check, which is what the hot-path call sites branch on.  When the
active registry is disabled *and* no tracer is installed, :func:`span`
returns a shared no-op context manager — one branch, no clock read, no
allocation.  Timestamps are *relative* (``perf_counter`` offsets from
the tracer's epoch) — no wall-clock reads, so enabling tracing cannot
leak nondeterminism into seeded runs.
"""

from __future__ import annotations

import heapq
import itertools
import json
import random
import threading
import time
from collections.abc import Callable, Iterable, Mapping
from contextvars import ContextVar, Token
from dataclasses import dataclass
from pathlib import Path
from typing import Any, NamedTuple, TypeVar

from repro.obs.export import json_line
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    MetricsRegistry,
    get_registry,
)

__all__ = [
    "Span",
    "span",
    "record_stage",
    "carry_span",
    "current_span",
    "current_ids",
    "SpanRecord",
    "Trace",
    "TailSampler",
    "Tracer",
    "active",
    "get_tracer",
    "use_tracer",
    "new_trace_id",
    "new_span_id",
    "format_attribution",
    "trace_to_record",
    "write_trace_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
]

R = TypeVar("R")

# Memory bounds: the uniform background sample, the spans buffered for
# one open trace, and the traces open (or leaked) at once.
_MAX_SAMPLED = 64
_MAX_SPANS_PER_TRACE = 512
_MAX_ACTIVE_TRACES = 4096

# ----------------------------------------------------------------------
# ids and context propagation
# ----------------------------------------------------------------------

# ``next()`` on an itertools.count is a single C call — atomic under
# the GIL, so ids stay unique across threads without a lock.
_next_id = itertools.count(1).__next__


def new_trace_id() -> str:
    """A process-unique 16-hex trace id (monotone, deterministic)."""
    return f"{_next_id():016x}"


def new_span_id() -> str:
    """A process-unique 8-hex span id."""
    return f"{_next_id():08x}"


# The innermost open span of the *current context*.  contextvars give
# each thread (and each asyncio task) an independent value, and a
# freshly started thread sees the default — so spans opened in one
# thread can never parent spans opened in another.
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar(
    "repro_current_span", default=None
)


def current_span() -> "Span | None":
    """The innermost open span in this context, if any."""
    return _CURRENT_SPAN.get()


def current_ids() -> tuple[str, str] | None:
    """``(trace_id, span_id)`` of the current span when tracing.

    ``None`` when no span is open or the open span carries no trace id
    (spans opened while no tracer was installed).  This is what
    :mod:`repro.obs.log` injects into structured log records.
    """
    current = _CURRENT_SPAN.get()
    if current is None:
        return None
    trace_id = current.trace_id
    span_id = current.span_id
    if trace_id is None or span_id is None:
        return None
    return trace_id, span_id


# ----------------------------------------------------------------------
# trace records
# ----------------------------------------------------------------------


class SpanRecord(NamedTuple):
    """One finished span, as stored in a trace.

    ``ts`` is seconds since the tracer's epoch (relative, monotonic);
    ``seconds`` is wall duration; ``cpu_seconds`` is thread CPU time
    over the same window (`time.thread_time`), so a span that waited
    on a lock shows wall ≫ CPU.  A named tuple, not a dataclass: one
    is built per span on the traced hot path, and tuple construction
    is several times cheaper.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    path: str
    depth: int
    ts: float
    seconds: float
    cpu_seconds: float
    tags: Mapping[str, str]
    thread: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "path": self.path,
            "depth": self.depth,
            "ts": self.ts,
            "seconds": self.seconds,
            "cpu_seconds": self.cpu_seconds,
            "tags": dict(self.tags),
            "thread": self.thread,
        }


@dataclass(frozen=True)
class Trace:
    """One finished request: the root span plus every descendant."""

    trace_id: str
    root_name: str
    seconds: float
    spans: tuple[SpanRecord, ...]
    dropped_spans: int = 0

    def span_named(self, name: str) -> SpanRecord | None:
        """First span with ``name``, or ``None``."""
        for record in self.spans:
            if record.name == name:
                return record
        return None


def trace_to_record(trace: Trace) -> dict[str, Any]:
    """One JSONL-able ``{"record": "trace"}`` object."""
    return {
        "record": "trace",
        "trace_id": trace.trace_id,
        "root": trace.root_name,
        "seconds": trace.seconds,
        "dropped_spans": trace.dropped_spans,
        "spans": [record.as_dict() for record in trace.spans],
    }


# ----------------------------------------------------------------------
# tail-based sampling
# ----------------------------------------------------------------------


class TailSampler:
    """Bounded-memory trace retention: N slowest + a uniform fraction.

    ``keep_slowest`` traces with the largest root duration are always
    retained (tail-based sampling — the traces worth debugging).  On
    top, each offered trace is kept with probability
    ``sample_fraction`` (seeded, deterministic given the offer order)
    up to ``_MAX_SAMPLED``, giving an unbiased background sample to
    compare the tail against.  Memory is bounded by
    ``keep_slowest + _MAX_SAMPLED`` traces regardless of traffic.
    """

    def __init__(
        self,
        keep_slowest: int = 16,
        sample_fraction: float = 0.0,
        seed: int = 0,
    ) -> None:
        if keep_slowest < 0:
            raise ValueError(f"keep_slowest must be >= 0, got {keep_slowest}")
        if not 0.0 <= sample_fraction <= 1.0:
            raise ValueError(
                f"sample_fraction must be in [0, 1], got {sample_fraction}"
            )
        self.keep_slowest = keep_slowest
        self.sample_fraction = sample_fraction
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._seq = 0  # guarded-by: _lock
        # Min-heap of (seconds, seq, trace): the root is the fastest
        # retained trace, evicted when a slower one arrives.
        self._slowest: list[tuple[float, int, Trace]] = []  # guarded-by: _lock
        self._sampled: list[Trace] = []  # guarded-by: _lock
        self.offered = 0  # guarded-by: _lock
        self.sample_overflow = 0  # guarded-by: _lock

    def offer(self, trace: Trace) -> bool:
        """Consider a finished trace; returns whether it was retained."""
        with self._lock:
            self.offered += 1
            self._seq += 1
            kept = False
            if self.keep_slowest:
                entry = (trace.seconds, self._seq, trace)
                if len(self._slowest) < self.keep_slowest:
                    heapq.heappush(self._slowest, entry)
                    kept = True
                elif entry[:2] > self._slowest[0][:2]:
                    heapq.heappushpop(self._slowest, entry)
                    kept = True
            if (
                self.sample_fraction > 0.0
                and self._rng.random() < self.sample_fraction
            ):
                if len(self._sampled) < _MAX_SAMPLED:
                    self._sampled.append(trace)
                    kept = True
                else:
                    self.sample_overflow += 1
            return kept

    @property
    def slowest(self) -> list[Trace]:
        """Retained slowest traces, slowest first."""
        with self._lock:
            return [
                entry[2]
                for entry in sorted(
                    self._slowest, key=lambda e: (-e[0], e[1])
                )
            ]

    @property
    def sampled(self) -> list[Trace]:
        """The uniform background sample, in offer order."""
        with self._lock:
            return list(self._sampled)

    def traces(self) -> list[Trace]:
        """Every retained trace (slowest first, deduplicated)."""
        seen: set[str] = set()
        out: list[Trace] = []
        for trace in self.slowest + self.sampled:
            if trace.trace_id not in seen:
                seen.add(trace.trace_id)
                out.append(trace)
        return out

    def find(self, trace_id: str) -> Trace | None:
        """Retained trace by id — how an exemplar resolves to a trace."""
        for trace in self.traces():
            if trace.trace_id == trace_id:
                return trace
        return None


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------


class Tracer:
    """Collects finished spans into traces and running stage totals.

    Spans report here from ``Span.__exit__`` (and
    :func:`record_stage`); the tracer groups them by ``trace_id``.
    When a trace's *root* span finishes, the trace is assembled,
    folded into the running stage totals behind :meth:`attribution`
    (always, so attribution is unbiased over every request) and
    offered to the sampler (which decides what to *retain* in full).
    """

    def __init__(self, sampler: TailSampler | None = None) -> None:
        self.sampler = sampler if sampler is not None else TailSampler()
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._active: dict[str, list[SpanRecord]] = {}  # guarded-by: _lock
        self._dropped: dict[str, int] = {}  # guarded-by: _lock
        self._stage_totals: dict[str, dict[str, float]] = {}  # guarded-by: _lock
        self.finished = 0  # guarded-by: _lock
        self.dropped_spans_total = 0  # guarded-by: _lock
        self.dropped_traces = 0  # guarded-by: _lock
        self.root_seconds_total = 0.0  # guarded-by: _lock

    def now(self) -> float:
        """Seconds since this tracer's epoch (monotonic, relative)."""
        return time.perf_counter() - self._epoch

    def on_span_finish(self, record: SpanRecord, root: bool) -> None:
        """Called by the span layer for every finished traced span."""
        with self._lock:
            buffer = self._active.get(record.trace_id)
            if buffer is None:
                if len(self._active) >= _MAX_ACTIVE_TRACES:
                    # A leaked (never-finalized) trace backlog: drop the
                    # oldest buffer rather than grow without bound.
                    stale_id = next(iter(self._active))
                    del self._active[stale_id]
                    self._dropped.pop(stale_id, None)
                    self.dropped_traces += 1
                buffer = []
                self._active[record.trace_id] = buffer
            if len(buffer) >= _MAX_SPANS_PER_TRACE and not root:
                self._dropped[record.trace_id] = (
                    self._dropped.get(record.trace_id, 0) + 1
                )
                self.dropped_spans_total += 1
                return
            buffer.append(record)
            if not root:
                return
            spans = tuple(self._active.pop(record.trace_id))
            dropped = self._dropped.pop(record.trace_id, 0)
            trace = Trace(
                trace_id=record.trace_id,
                root_name=record.name,
                seconds=record.seconds,
                spans=spans,
                dropped_spans=dropped,
            )
            self.finished += 1
            self.root_seconds_total += record.seconds
            self._fold_locked(trace)
        # Sampler has its own lock; offer outside ours.
        self.sampler.offer(trace)

    def _fold_locked(self, trace: Trace) -> None:
        # Lock-required: accumulates the shared stage-total dicts.
        child_total: dict[str, float] = {}
        for record in trace.spans:
            if record.parent_id is not None:
                child_total[record.parent_id] = (
                    child_total.get(record.parent_id, 0.0) + record.seconds
                )
        for record in trace.spans:
            totals = self._stage_totals.get(record.name)
            if totals is None:
                totals = {
                    "count": 0.0,
                    "seconds": 0.0,
                    "self_seconds": 0.0,
                    "cpu_seconds": 0.0,
                }
                self._stage_totals[record.name] = totals
            totals["count"] += 1.0
            totals["seconds"] += record.seconds
            totals["self_seconds"] += max(
                record.seconds - child_total.get(record.span_id, 0.0), 0.0
            )
            totals["cpu_seconds"] += record.cpu_seconds

    def traces(self) -> list[Trace]:
        """The retained traces (see :class:`TailSampler`)."""
        return self.sampler.traces()

    def find(self, trace_id: str) -> Trace | None:
        """Resolve a histogram exemplar's trace id to a full trace."""
        return self.sampler.find(trace_id)

    def attribution(self) -> list[dict[str, float | str]]:
        """Stage attribution rows over every finished trace.

        ``share`` is each stage's *self* time as a fraction of total
        root wall time — the "where did the latency go" column.  Rows
        sort by descending self time.
        """
        with self._lock:
            root_total = self.root_seconds_total
            rows: list[dict[str, float | str]] = [
                {
                    "stage": name,
                    **values,
                    "share": (
                        values["self_seconds"] / root_total
                        if root_total > 0.0
                        else 0.0
                    ),
                }
                for name, values in self._stage_totals.items()
            ]
        rows.sort(key=lambda row: (-float(row["self_seconds"]), row["stage"]))
        return rows


# ----------------------------------------------------------------------
# global tracer installation
# ----------------------------------------------------------------------

_TRACER: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed process-global tracer, or ``None``."""
    return _TRACER


def active() -> bool:
    """One-branch check the hot paths use before any tracing work."""
    return _TRACER is not None


class use_tracer:
    """Context manager installing a tracer for a scoped block::

        with use_tracer(Tracer(TailSampler(keep_slowest=8))) as tracer:
            ...
        # previous (usually no) tracer restored
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | None = None

    def __enter__(self) -> Tracer:
        global _TRACER
        self._previous = _TRACER
        _TRACER = self.tracer
        return self.tracer

    def __exit__(self, *exc_info: object) -> None:
        global _TRACER
        _TRACER = self._previous


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def _finish(
    registry: MetricsRegistry,
    name: str,
    tags: Mapping[str, str] | None,
    buckets: Iterable[float],
    seconds: float,
    cpu_seconds: float = 0.0,
    trace_id: str | None = None,
    span_id: str | None = None,
    parent_id: str | None = None,
    path: str = "",
    depth: int = 0,
    ts: float = 0.0,
) -> None:
    """The one exit of every span, timed in place or recorded post hoc.

    Observes ``<name>_seconds`` (the trace id rides along as the
    bucket's exemplar) and, for a traced span, hands its record to the
    tracer — a span without a parent id is the root that closes its
    trace.  Positional on purpose: this runs once per span on the
    traced hot path.
    """
    if registry.enabled:
        registry.histogram(f"{name}_seconds", tags=tags, buckets=buckets).observe(
            seconds, exemplar=trace_id
        )
    tracer = _TRACER
    if tracer is None or trace_id is None or span_id is None:
        return
    tracer.on_span_finish(
        SpanRecord(
            name, trace_id, span_id, parent_id, path, depth, ts,
            seconds, cpu_seconds, tags or {}, threading.get_ident(),
        ),
        root=parent_id is None,
    )


class Span:
    """One timed region; use via the :func:`span` factory."""

    __slots__ = (
        "name",
        "tags",
        "registry",
        "buckets",
        "path",
        "depth",
        "trace_id",
        "span_id",
        "parent_id",
        "seconds",
        "cpu_seconds",
        "_token",
        "_start",
        "_cpu_start",
        "_ts",
    )

    def __init__(
        self,
        name: str,
        tags: Mapping[str, str] | None,
        registry: MetricsRegistry,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> None:
        self.name = name
        self.tags = dict(tags) if tags else {}
        self.registry = registry
        self.buckets = buckets
        self.path = name
        self.depth = 0
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.seconds: float | None = None
        self.cpu_seconds: float | None = None
        self._token: Token[Span | None] | None = None
        self._start = 0.0
        self._cpu_start = 0.0
        self._ts = 0.0

    def __enter__(self) -> "Span":
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            self.path = f"{parent.path}/{self.name}"
            self.depth = parent.depth + 1
        tracer = _TRACER
        if tracer is not None:
            self.span_id = new_span_id()
            if parent is not None and parent.trace_id is not None:
                self.trace_id = parent.trace_id
                self.parent_id = parent.span_id
            else:
                # No traced ancestor: this span roots a new trace.
                self.trace_id = new_trace_id()
            self._ts = tracer.now()
            self._cpu_start = time.thread_time()
        self._token = _CURRENT_SPAN.set(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.trace_id is not None:
            self.cpu_seconds = time.thread_time() - self._cpu_start
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        _finish(
            self.registry, self.name, self.tags, self.buckets,
            self.seconds, self.cpu_seconds or 0.0,
            self.trace_id, self.span_id, self.parent_id,
            self.path, self.depth, self._ts,
        )


class _NullSpan:
    """Shared do-nothing span for the disabled-telemetry fast path."""

    __slots__ = ()
    seconds: float | None = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


def span(
    name: str,
    tags: Mapping[str, str] | None = None,
    registry: MetricsRegistry | None = None,
    buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
) -> Span | _NullSpan:
    """Open a timed span recording into ``<name>_seconds``.

    ``name`` should follow the span naming convention *without* the
    unit suffix (``repro_serving_rank``, see RPR108); the histogram
    appends ``_seconds``.  ``buckets`` customizes that histogram's
    bucket bounds — note the *first* observation of a metric family
    fixes its buckets, so every observer of one name must agree.
    """
    registry = registry if registry is not None else get_registry()
    if not registry.enabled and _TRACER is None:
        return _NULL_SPAN
    return Span(name, tags, registry, buckets=buckets)


def record_stage(
    name: str,
    seconds: float,
    tags: Mapping[str, str] | None = None,
    buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
) -> None:
    """Record an already-measured stage under the current span.

    For stages that cannot wrap a ``with`` block around their work —
    lock-acquisition wait is the canonical case (the wait *is* the
    entry into the ``with lock:`` region).  The stage lands both in
    the ``<name>_seconds`` histogram (with a trace exemplar) and, when
    a tracer is installed and a span is open, as a synthetic child
    span of the current span.  No-op beyond the histogram otherwise.
    """
    parent = _CURRENT_SPAN.get()
    tracer = _TRACER
    if tracer is None or parent is None or parent.trace_id is None:
        _finish(get_registry(), name, tags, buckets, seconds)
        return
    _finish(
        get_registry(), name, dict(tags) if tags else {}, buckets,
        seconds, 0.0,
        parent.trace_id, new_span_id(), parent.span_id,
        f"{parent.path}/{name}", parent.depth + 1,
        max(tracer.now() - seconds, 0.0),
    )


def carry_span(fn: Callable[..., R]) -> Callable[..., R]:
    """``fn``, bound to this context's current span for an executor hop.

    ``loop.run_in_executor`` starts its callable in a thread whose
    context has no current span, which would cut a request's trace in
    two at the hop.  The returned callable re-installs the submitting
    context's span around ``fn`` — that one variable, not the whole
    ``contextvars`` context, so other context state keeps its
    per-thread meaning in the worker.  With no tracer installed or no
    span open, ``fn`` comes back untouched: untraced serving pays one
    module-global check per hop.
    """
    parent = _CURRENT_SPAN.get() if _TRACER is not None else None
    if parent is None:
        return fn

    def carried(*args: Any, **kwargs: Any) -> R:
        token = _CURRENT_SPAN.set(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            _CURRENT_SPAN.reset(token)

    return carried


# ----------------------------------------------------------------------
# exports
# ----------------------------------------------------------------------


def format_attribution(rows: Iterable[dict[str, float | str]]) -> str:
    """Render attribution rows as an aligned text table."""
    header = f"{'stage':<34} {'count':>8} {'total ms':>10} {'self ms':>10} {'share':>7}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{str(row['stage']):<34} {float(row['count']):>8.0f} "
            f"{float(row['seconds']) * 1e3:>10.2f} "
            f"{float(row['self_seconds']) * 1e3:>10.2f} "
            f"{float(row['share']) * 100:>6.1f}%"
        )
    return "\n".join(lines)


def write_trace_jsonl(traces: Iterable[Trace], path: str | Path) -> int:
    """Write one ``{"record": "trace"}`` JSON object per line.

    Returns the number of traces written.
    """
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with target.open("w", encoding="utf-8") as handle:
        for trace in traces:
            handle.write(json_line(trace_to_record(trace)) + "\n")
            count += 1
    return count


def chrome_trace_events(traces: Iterable[Trace]) -> list[dict[str, Any]]:
    """Chrome ``trace_event`` complete ("X") events for ``traces``.

    Timestamps/durations are microseconds (the format's unit); ``tid``
    is the OS thread id the span ran on, so the load harness's worker
    threads render as parallel rows in Perfetto.
    """
    events: list[dict[str, Any]] = []
    for trace in traces:
        for record in trace.spans:
            args: dict[str, Any] = {
                "trace_id": record.trace_id,
                "span_id": record.span_id,
                "path": record.path,
                "cpu_ms": record.cpu_seconds * 1e3,
            }
            if record.parent_id is not None:
                args["parent_id"] = record.parent_id
            args.update(record.tags)
            events.append(
                {
                    "name": record.name,
                    "cat": "repro",
                    "ph": "X",
                    "pid": 0,
                    "tid": record.thread,
                    "ts": record.ts * 1e6,
                    "dur": record.seconds * 1e6,
                    "args": args,
                }
            )
    return events


def write_chrome_trace(traces: Iterable[Trace], path: str | Path) -> int:
    """Write a ``chrome://tracing`` / Perfetto-loadable JSON file.

    Returns the number of trace events written.
    """
    events = chrome_trace_events(traces)
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.trace"},
    }
    with target.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return len(events)
