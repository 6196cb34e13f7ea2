"""Process-local metrics registry: counters, gauges, histograms.

The serving design of paper Section 4 (pre-computed vectors cached in
a distributed store) is only tunable in production when cache hit
rates, encode latencies and ranking throughput are observable.  This
module provides the substrate: a registry of named metric families,
each fanning out into labeled *series* keyed by a tag dict.

Three instrument types:

* :class:`Counter` — monotonically increasing count;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — fixed cumulative buckets (Prometheus-style)
  plus streaming p50/p95/p99 estimation via the P² algorithm, so
  latency quantiles are available without storing samples.

Instrumented code obtains instruments through a registry::

    registry.counter("repro_cache_hits_total", tags={"kind": "user"}).inc()
    registry.histogram("repro_serving_encode_seconds").observe(0.0123)

The default global registry is a :class:`NullRegistry` whose
instruments are shared no-op singletons, so instrumentation left in
hot paths costs one attribute check when telemetry is disabled.
Deterministic by construction: recording a metric never draws
randomness nor perturbs model state, so enabling telemetry cannot
change training results.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from collections.abc import Callable, Iterable, Mapping
from typing import Any, Generic, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
]

TagMap = Mapping[str, str]
TagKey = tuple[tuple[str, str], ...]

I = TypeVar("I")  # instrument type held by a metric family

# Seconds-scale latency buckets: 100 µs .. 10 s, roughly 1-2-5.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


def _tag_key(tags: TagMap | None) -> TagKey:
    if not tags:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in tags.items()))


class Counter:
    """Monotonic count of events (lookups, evictions, early stops)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite with an externally tracked running total.

        For collector-style export of counts that another object
        already maintains (e.g. :class:`~repro.store.cache.CacheStats`)
        — the source stays authoritative, the metric mirrors it.
        """
        self.value = float(value)


class Gauge:
    """A point-in-time value (loss, learning rate, cache size)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class _P2Quantile:
    """Streaming quantile estimation: Jain & Chlamtac's P² algorithm.

    Tracks one quantile with five markers updated in O(1) per
    observation — no sample retention, deterministic given the input
    sequence.  Exact for the first five observations, then a
    piecewise-parabolic approximation.
    """

    __slots__ = ("q", "_initial", "heights", "positions", "_markers", "_extra")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._initial: list[float] | None = []
        self.heights: list[float] = []
        self.positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        # Interior markers as (index, desired-at-init, increment): the
        # desired position after m post-init observations is
        # ``d0 + m * inc`` — computed on the fly instead of mutating a
        # 5-element list per observation (observe is hot-path code).
        self._markers = (
            (1, 1.0 + 2.0 * q, q / 2.0),
            (2, 1.0 + 4.0 * q, q),
            (3, 3.0 + 2.0 * q, (1.0 + q) / 2.0),
        )
        self._extra = 0  # observations beyond the initial five

    def observe(self, value: float) -> None:
        initial = self._initial
        if initial is not None:
            initial.append(value)
            if len(initial) == 5:
                self.heights = sorted(initial)
                self._initial = None
            return
        heights, positions = self.heights, self.positions
        if value < heights[0]:
            heights[0] = value
            cell = 0
        elif value >= heights[4]:
            heights[4] = value
            cell = 3
        else:
            cell = 0
            while value >= heights[cell + 1]:
                cell += 1
        if cell < 3:
            positions[3] += 1.0
            if cell < 2:
                positions[2] += 1.0
                if cell < 1:
                    positions[1] += 1.0
        positions[4] += 1.0
        m = self._extra = self._extra + 1
        # Adjust interior markers toward their desired positions.
        for i, d0, inc in self._markers:
            delta = d0 + m * inc - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, step)
                positions[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, p = self.heights, self.positions
        return h[i] + step / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + step) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - step) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, p = self.heights, self.positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def estimate(self) -> float:
        if self.heights:
            return self.heights[2]
        if not self._initial:
            return math.nan
        ordered = sorted(self._initial)
        rank = self.q * (len(ordered) - 1)
        low = int(rank)
        high = min(low + 1, len(ordered) - 1)
        return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


class Histogram:
    """Fixed-bucket histogram with streaming quantile markers.

    Observations may carry an *exemplar* — an opaque id (in practice a
    trace id from :mod:`repro.obs.trace`) naming one concrete sample.
    Each bucket keeps at most one exemplar under a max-wins policy:
    the retained exemplar is the slowest sample that landed in that
    bucket, so the top bucket's exemplar is the series' overall worst
    case and is guaranteed to also be held by a keep-slowest tail
    sampler.
    """

    __slots__ = (
        "buckets",
        "bucket_counts",
        "count",
        "sum",
        "min",
        "max",
        "exemplars",
        "_quantiles",
        "_estimators",
    )

    def __init__(self, buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self.bucket_counts = [0] * (len(self.buckets) + 1)  # trailing +Inf
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        # bucket index -> (exemplar id, value); max-wins per bucket.
        self.exemplars: dict[int, tuple[str, float]] = {}
        self._quantiles = {q: _P2Quantile(q) for q in DEFAULT_QUANTILES}
        self._estimators = tuple(self._quantiles.values())

    def observe(self, value: float, exemplar: str | None = None) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        # First bound >= value, i.e. Prometheus `value <= le` semantics
        # (C-speed binary search: observe is on the traced hot path).
        index = bisect_left(self.buckets, value)
        self.bucket_counts[index] += 1
        if exemplar is not None:
            held = self.exemplars.get(index)
            if held is None or value > held[1]:
                self.exemplars[index] = (exemplar, value)
        for estimator in self._estimators:
            estimator.observe(value)

    def bucket_exemplars(self) -> dict[str, dict[str, float | str]]:
        """Exemplars keyed by bucket bound (``"0.005"`` … ``"+Inf"``)."""
        out: dict[str, dict[str, float | str]] = {}
        for index, (exemplar, value) in sorted(self.exemplars.items()):
            if index < len(self.buckets):
                le = repr(self.buckets[index])
            else:
                le = "+Inf"
            out[le] = {"exemplar": exemplar, "value": value}
        return out

    def quantile(self, q: float) -> float:
        """Streaming estimate of quantile ``q`` (must be tracked)."""
        return self._quantiles[q].estimate

    def percentiles(self) -> dict[str, float]:
        """Tracked quantiles as ``{"p50": ..., "p95": ...}``."""
        return {
            f"p{q * 100:g}": est.estimate
            for q, est in sorted(self._quantiles.items())
        }

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """Prometheus-style ``(le, cumulative_count)`` pairs, +Inf last."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.buckets, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((math.inf, self.count))
        return out


class _Family(Generic[I]):
    """All series of one metric name, keyed by tag tuple."""

    __slots__ = ("name", "kind", "series", "factory")

    def __init__(self, name: str, kind: str, factory: Callable[[], I]) -> None:
        self.name = name
        self.kind = kind
        self.series: dict[TagKey, I] = {}
        self.factory = factory

    def child(self, tags: TagMap | None) -> I:
        key = _tag_key(tags)
        instrument = self.series.get(key)
        if instrument is None:
            instrument = self.factory()
            self.series[key] = instrument
        return instrument


class MetricsRegistry:
    """Mutable registry of metric families, safe across threads.

    ``collectors`` are pull-style callbacks run at :meth:`snapshot`
    time — the idiom for exporting state another object already tracks
    (cache stats, pool sizes) without touching the hot path.

    Registry structure (family and series dicts) is ``RLock``-guarded
    (``# guarded-by: _lock``, enforced by RPR401/RPR402); individual
    instrument updates (``Counter.inc`` et al.) are single bytecode-
    level float operations and stay lock-free by design.
    """

    enabled = True

    def __init__(self) -> None:
        # Reentrant: snapshot() holds the lock while collectors call
        # back into counter()/gauge() accessors.
        self._lock = threading.RLock()
        self._families: dict[str, _Family[Any]] = {}  # guarded-by: _lock
        self._collectors: dict[  # guarded-by: _lock
            str, Callable[[MetricsRegistry], None]
        ] = {}

    # -- instrument accessors ------------------------------------------

    def _family(self, name: str, kind: str, factory: Callable[[], I]) -> _Family[I]:
        # Lock-required (enforced by RPR402): callers hold self._lock,
        # covering both the family map and the family's series dict.
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, factory)
            self._families[name] = family
        if family.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {family.kind}, requested as {kind}"
            )
        return family

    def _fast_child(self, name: str, kind: str, tags: TagMap | None) -> Any:
        # Double-checked fast path for repeat lookups on the serving
        # hot path: a GIL-atomic dict read either sees the fully
        # constructed instrument or misses and falls through to the
        # locked slow path.  Instruments are published only after
        # construction, so a hit can never observe partial state.
        family = self._families.get(name)
        if family is not None and family.kind == kind:
            return family.series.get(_tag_key(tags))
        return None

    def counter(self, name: str, tags: TagMap | None = None) -> Counter:
        instrument = self._fast_child(name, "counter", tags)  # repro: noqa[RPR402] benign double-checked read, locked fallback
        if instrument is not None:
            return instrument
        with self._lock:
            return self._family(name, "counter", Counter).child(tags)

    def gauge(self, name: str, tags: TagMap | None = None) -> Gauge:
        instrument = self._fast_child(name, "gauge", tags)  # repro: noqa[RPR402] benign double-checked read, locked fallback
        if instrument is not None:
            return instrument
        with self._lock:
            return self._family(name, "gauge", Gauge).child(tags)

    def histogram(
        self,
        name: str,
        tags: TagMap | None = None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        instrument = self._fast_child(name, "histogram", tags)  # repro: noqa[RPR402] benign double-checked read, locked fallback
        if instrument is not None:
            return instrument
        factory = lambda: Histogram(buckets=buckets)  # noqa: E731
        with self._lock:
            return self._family(name, "histogram", factory).child(tags)

    # -- collectors ----------------------------------------------------

    def register_collector(
        self, key: str, collect: Callable[[MetricsRegistry], None]
    ) -> None:
        """(Re-)register a pull callback run before every snapshot."""
        # Serving code re-registers its collectors per request; skip
        # the lock when the exact callback is already installed (a
        # benign stale read only costs one locked re-registration).
        if self._collectors.get(key) is collect:  # repro: noqa[RPR401] benign double-checked read, locked fallback
            return
        with self._lock:
            self._collectors[key] = collect

    # -- export --------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Flatten every series into export records.

        Record schema (shared by the JSONL and Prometheus exporters)::

            {"name", "type", "tags": {..}, ...}         # counter/gauge: value
            {... "count", "sum", "min", "max",          # histogram
                 "buckets": [[le, cumulative], ...],
                 "quantiles": {"p50": ..., ...}}
        """
        with self._lock:
            return self._snapshot_locked()

    def _snapshot_locked(self) -> list[dict]:
        # Lock-required (enforced by RPR402); collectors re-enter the
        # instrument accessors, which is why the lock is reentrant.
        for key, collect in list(self._collectors.items()):
            # A collector is foreign code run on every scrape: one that
            # raises costs its own series, never the snapshot.
            try:
                collect(self)
            except Exception as error:
                errors = self.counter(
                    "repro_obs_collector_errors_total", tags={"collector": key}
                )
                first = not errors.value
                errors.inc()
                if first:  # warn once per collector, count every failure
                    from repro.obs.log import get_logger  # log imports this module

                    get_logger(__name__).warning(
                        "collector_failed",
                        collector=key,
                        error=f"{type(error).__name__}: {error}",
                    )
        records: list[dict] = []
        for name in sorted(self._families):
            family = self._families[name]
            for key in sorted(family.series):
                instrument = family.series[key]
                record: dict = {
                    "name": name,
                    "type": family.kind,
                    "tags": dict(key),
                }
                if isinstance(instrument, Histogram):
                    record["count"] = instrument.count
                    record["sum"] = instrument.sum
                    record["min"] = instrument.min if instrument.count else None
                    record["max"] = instrument.max if instrument.count else None
                    # "+Inf" keeps the JSONL strict-JSON parseable
                    # (json.dumps would otherwise emit bare Infinity).
                    record["buckets"] = [
                        [le if le != math.inf else "+Inf", n]
                        for le, n in instrument.cumulative_buckets()
                    ]
                    record["quantiles"] = {
                        label: (None if math.isnan(value) else value)
                        for label, value in instrument.percentiles().items()
                    }
                    if instrument.exemplars:
                        record["exemplars"] = instrument.bucket_exemplars()
                else:
                    record["value"] = instrument.value
                records.append(record)
        return records


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set_total(self, value: float) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float, exemplar: str | None = None) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullRegistry(MetricsRegistry):
    """Disabled registry: shared no-op instruments, empty snapshots.

    The default global registry.  Hot paths should branch on
    ``registry.enabled`` before doing any timing work; code that does
    not bother still pays only a no-op method call.
    """

    enabled = False

    def counter(self, name: str, tags: TagMap | None = None) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, tags: TagMap | None = None) -> Gauge:
        return _NULL_GAUGE

    def histogram(
        self,
        name: str,
        tags: TagMap | None = None,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS,
    ) -> Histogram:
        return _NULL_HISTOGRAM

    def register_collector(
        self, key: str, collect: Callable[[MetricsRegistry], None]
    ) -> None:
        pass

    def snapshot(self) -> list[dict]:
        return []


_NULL_REGISTRY = NullRegistry()
_GLOBAL_REGISTRY: MetricsRegistry = _NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-global registry (a no-op one until one is installed)."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-global registry."""
    global _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return registry


class use_registry:
    """Context manager installing a registry for a scoped block::

        with use_registry(MetricsRegistry()) as registry:
            ...
        # previous (usually no-op) registry restored
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._previous: MetricsRegistry | None = None

    def __enter__(self) -> MetricsRegistry:
        self._previous = get_registry()
        set_registry(self.registry)
        return self.registry

    def __exit__(self, *exc_info: object) -> None:
        if self._previous is not None:
            set_registry(self._previous)
