"""Process-local metrics registry: counters, gauges, histograms.

The serving design of paper Section 4 (pre-computed vectors cached in
a distributed store) is only tunable in production when cache hit
rates, encode latencies and ranking throughput are observable.  This
module provides the substrate: a registry of named metric families,
each fanning out into labeled *series* keyed by a tag dict.

Three instrument types:

* :class:`Counter` — monotonically increasing count;
* :class:`Gauge` — a value that can go up and down;
* :class:`Histogram` — count, sum, min, max and a relative-error
  quantile sketch, so p50/p95/p99 are available without storing
  samples, each within 1 % of the exact value.

Instrumented code obtains instruments through a registry::

    registry.counter("repro_cache_hits_total", tags={"kind": "user"}).inc()
    registry.histogram("repro_serving_encode_seconds").observe(0.0123)

A repeat lookup of one ``(name, tags)`` is one dict hit, and observing
is O(1): the per-request cost of telemetry is a handful of increments.
The default global registry is a :class:`NullRegistry` whose
instruments are shared no-op singletons, so instrumentation left in
hot paths costs one attribute check when telemetry is disabled.
Deterministic by construction: recording a metric never draws
randomness nor perturbs model state, so enabling telemetry cannot
change training results.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import bisect_right
from collections.abc import Callable, Iterable, Mapping
from itertools import accumulate
from typing import Any, Generic, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

TagMap = Mapping[str, str]
TagKey = tuple[tuple[str, str], ...]

I = TypeVar("I")  # instrument type held by a metric family

DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

# The quantile sketch's relative accuracy α and its key width γ: key k
# counts the values in (γ^(k-1), γ^k], and reading that key as
# 2γ^k/(γ+1) is within α of every value it holds.
SKETCH_ALPHA = 0.01
_GAMMA = (1.0 + SKETCH_ALPHA) / (1.0 - SKETCH_ALPHA)
_LOG_GAMMA = math.log(_GAMMA)
_LOG_MIDPOINT = math.log(2.0 / (_GAMMA + 1.0))
_INF = math.inf


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


class Histogram:
    """Count, sum, min, max and a relative-error quantile sketch.

    Quantiles come from a log-bucket sketch (DDSketch-style): a
    positive value ``v`` adds one to the count of key
    ``ceil(log_γ v)``, ``γ = (1 + α) / (1 − α)`` with
    ``α = SKETCH_ALPHA = 0.01`` — about 115 keys a decade, one int each,
    and an observe is one increment.  Quantiles are computed when read:
    each order statistic is read as the midpoint of its key, adjacent
    ones are interpolated as ``numpy.percentile`` does, and the result is
    clamped to ``[min, max]``.  For values ``>= 0`` every p50/p95/p99 is
    therefore within α (relative) of the exact percentile of what was
    observed, and a constant stream reads exactly.  Durations and sizes
    are never negative: ``0`` and a negative value share one key, read
    as ``0`` (clamped into ``[min, max]``).  NaN and ±inf are not
    measurements: dropped, counted nowhere.  No quantile ever raises;
    an empty histogram reads NaN.
    """

    __slots__ = ("count", "sum", "min", "max", "_log_counts", "_nonpositive")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._log_counts: dict[int, int] = {}  # sketch key -> count
        self._nonpositive = 0

    def observe(self, value: float) -> None:
        value = float(value)
        if not -_INF < value < _INF:
            return  # NaN or ±inf: not a measurement
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if value > 0.0:
            key = math.ceil(math.log(value) / _LOG_GAMMA)
            counts = self._log_counts
            counts[key] = counts.get(key, 0) + 1
        else:
            self._nonpositive += 1

    def quantile(self, q: float) -> float:
        """Quantile ``q`` in (0, 1) of the values observed, within α."""
        (value,) = self._quantiles((q,))
        return value

    def percentiles(self) -> dict[str, float]:
        """The reported quantiles as ``{"p50": ..., "p95": ..., "p99": ...}``."""
        values = self._quantiles(DEFAULT_QUANTILES)
        return {f"p{q * 100:g}": value for q, value in zip(DEFAULT_QUANTILES, values)}

    def _quantiles(self, qs: Iterable[float]) -> list[float]:
        # sorted() copies the keys in one C call, so a read beside a
        # concurrent observe sees a consistent key set, and ``ends`` (the
        # running counts, non-positive key first) totals exactly that set.
        counts = self._log_counts
        keys = sorted(counts)
        ends = list(accumulate([counts[key] for key in keys], initial=self._nonpositive))
        total = ends[-1]
        out = []
        for q in qs:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantile must be in (0, 1), got {q}")
            if not total:
                out.append(math.nan)
                continue
            rank = q * (total - 1)
            low = int(rank)
            below = self._order_statistic(keys, ends, low)
            above = self._order_statistic(keys, ends, min(low + 1, total - 1))
            out.append(below + (rank - low) * (above - below))
        return out

    def _order_statistic(self, keys: list[int], ends: list[int], rank: int) -> float:
        """The ``rank``-th smallest value observed (from 0), within α,
        clamped to ``[min, max]`` — in log space first, so the top key
        of a value near the float limit cannot overflow ``exp``."""
        position = bisect_right(ends, rank)
        if not position:
            return min(max(0.0, self.min), self.max)
        exponent = min(keys[position - 1] * _LOG_GAMMA + _LOG_MIDPOINT, math.log(self.max))
        return min(max(math.exp(exponent), self.min), self.max)


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
    (``# guarded-by: _lock``, enforced by RPR401/RPR402); a repeat
    lookup reads a memo of resolved series without the lock, and
    individual instrument updates (``Counter.inc`` et al.) are single
    bytecode-level operations and stay lock-free by design.
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
        # (kind, name, tag items as given) -> instrument: the lock-free
        # path of every repeat lookup.  An entry is published only once
        # its instrument is built and never changes, so a GIL-atomic
        # dict read sees a whole instrument or misses into _resolve.
        # Tags are keyed in the caller's order, unsorted: two orders of
        # one tag set are two entries for the same series.
        self._resolved: dict[tuple[str, str, tuple], Any] = {}

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

    def _resolve(
        self, key: tuple[str, str, tuple], tags: TagMap | None, factory: Callable[[], I]
    ) -> I:
        """Slow path of a first lookup: find or create the series under
        the lock, then publish it under ``key`` for every later one."""
        kind, name, _ = key
        with self._lock:
            instrument = self._family(name, kind, factory).child(tags)
            self._resolved[key] = instrument
        return instrument

    def counter(self, name: str, tags: TagMap | None = None) -> Counter:
        key = ("counter", name, tuple(tags.items()) if tags else ())
        instrument = self._resolved.get(key)
        return instrument if instrument is not None else self._resolve(key, tags, Counter)

    def gauge(self, name: str, tags: TagMap | None = None) -> Gauge:
        key = ("gauge", name, tuple(tags.items()) if tags else ())
        instrument = self._resolved.get(key)
        return instrument if instrument is not None else self._resolve(key, tags, Gauge)

    def histogram(self, name: str, tags: TagMap | None = None) -> Histogram:
        key = ("histogram", name, tuple(tags.items()) if tags else ())
        instrument = self._resolved.get(key)
        return instrument if instrument is not None else self._resolve(key, tags, Histogram)

    def span_histogram(self, name: str, tags: TagMap | None) -> Histogram:
        """The ``<name>_seconds`` histogram a span called ``name`` with
        ``tags`` records into, resolved once per ``(name, tags)``: a
        span's exit is one observe, with no name to format or look up."""
        key = ("span", name, tuple(tags.items()) if tags else ())
        histogram = self._resolved.get(key)
        if histogram is None:
            histogram = self.histogram(f"{name}_seconds", tags)
            self._resolved[key] = histogram
        return histogram

    # -- collectors ----------------------------------------------------

    def register_collector(
        self, key: str, collect: Callable[[MetricsRegistry], None]
    ) -> None:
        """(Re-)register a pull callback run before every snapshot."""
        with self._lock:
            self._collectors[key] = collect

    # -- export --------------------------------------------------------

    def snapshot(self) -> list[dict]:
        """Flatten every series into export records.

        Record schema (shared by the JSONL and Prometheus exporters)::

            {"name", "type", "tags": {..}, ...}         # counter/gauge: value
            {... "count", "sum", "min", "max",          # histogram
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
                if first:  # report once per collector, count every failure
                    from repro.obs.export import json_line  # export imports this module

                    record = {
                        "event": "collector_failed",
                        "collector": key,
                        "error": f"{type(error).__name__}: {error}",
                    }
                    sys.stderr.write(json_line(record) + "\n")
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
                    record["quantiles"] = {
                        label: (None if math.isnan(value) else value)
                        for label, value in instrument.percentiles().items()
                    }
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

    def observe(self, value: float) -> None:
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

    def histogram(self, name: str, tags: TagMap | None = None) -> Histogram:
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
