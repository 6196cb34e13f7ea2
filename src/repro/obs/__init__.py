"""repro.obs — telemetry: metrics, spans, traces, logs, exporters.

The observability layer for the production-serving story of paper
Section 4.  Six pieces:

* :mod:`repro.obs.registry` — counters, gauges, histograms (fixed
  buckets + streaming p50/p95/p99 + per-bucket exemplars), labeled by
  name and tag dict;
* :mod:`repro.obs.trace` — ``with span("repro_serving_rank"):`` wall
  timers that nest via ``contextvars`` and, under a :class:`Tracer`,
  become per-request traces: trace/span ids, wall + CPU time,
  tail-based slow-trace sampling, per-stage latency attribution,
  JSONL and Chrome ``trace_event`` export;
* :mod:`repro.obs.log` — JSON-lines structured logging with a fixed
  ``{ts, level, event, logger, tags}`` schema (plus
  ``trace_id``/``span_id`` when emitted inside a traced span);
* :mod:`repro.obs.export` — JSONL telemetry files and the Prometheus
  text format (optionally with OpenMetrics exemplar suffixes);
* :mod:`repro.obs.drift` — reference-vs-live window drift detection
  (PSI, two-sample KS, mean/variance shift) over streaming monitors;
* :mod:`repro.obs.health` — declarative SLO specs judged against one
  registry snapshot and folded into a :class:`HealthSnapshot`
  exported as ``repro_health_*`` gauges.

Metric naming convention: ``repro_<subsystem>_<name>_<unit>`` —
``repro_serving_encode_seconds``, ``repro_cache_hits_total``,
``repro_train_epoch_loss``.  Span names follow the same grammar minus
the unit (``repro_serving_rank``; RPR108).  Tag dicts carry the
dimension that would otherwise explode the name (``{"kind": "user"}``).

Telemetry is **off by default**: the global registry is a
:class:`NullRegistry` of shared no-op instruments and no tracer is
installed, so instrumented hot paths cost one ``enabled``/``active``
check.  Turn metrics on per scope with :func:`use_registry` and tracing
with :func:`use_tracer`.
"""

from repro.obs.drift import (
    DriftMonitor,
    DriftResult,
    DriftThresholds,
    ks_statistic,
    mean_shift_zscore,
    psi,
)
from repro.obs.export import (
    TelemetryWriter,
    last_snapshot,
    read_telemetry,
    render_prometheus,
    snapshot_record,
)
from repro.obs.health import (
    HealthSnapshot,
    SLOSpec,
    SLOStatus,
    default_serving_slos,
    format_health,
    parse_slo,
)
from repro.obs.log import StructuredLogger, configure, get_logger, log_context
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.trace import (
    Span,
    SpanRecord,
    TailSampler,
    Trace,
    Tracer,
    carry_span,
    chrome_trace_events,
    current_ids,
    current_span,
    format_attribution,
    get_tracer,
    record_stage,
    span,
    trace_to_record,
    use_tracer,
    write_chrome_trace,
    write_trace_jsonl,
)

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
    "Span",
    "span",
    "carry_span",
    "current_span",
    "SpanRecord",
    "Trace",
    "Tracer",
    "TailSampler",
    "get_tracer",
    "use_tracer",
    "current_ids",
    "record_stage",
    "format_attribution",
    "trace_to_record",
    "write_trace_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "StructuredLogger",
    "configure",
    "get_logger",
    "log_context",
    "TelemetryWriter",
    "render_prometheus",
    "snapshot_record",
    "read_telemetry",
    "last_snapshot",
    "DriftMonitor",
    "DriftResult",
    "DriftThresholds",
    "psi",
    "ks_statistic",
    "mean_shift_zscore",
    "HealthSnapshot",
    "SLOSpec",
    "SLOStatus",
    "default_serving_slos",
    "parse_slo",
    "format_health",
]
