"""repro.obs — telemetry: metrics, spans, traces, exporters.

The observability layer for the production-serving story of paper
Section 4.  Five pieces:

* :mod:`repro.obs.registry` — counters, gauges, histograms (count,
  sum, min, max and p50/p95/p99 from a 1 %-accurate log-bucket
  sketch), labeled by name and tag dict;
* :mod:`repro.obs.trace` — ``with span("repro_serving_rank"):`` wall
  timers that, under a :class:`Tracer`, nest via ``contextvars`` and
  become per-request traces: trace/span ids, wall + CPU time,
  keep-slowest tail sampling and JSONL export;
* :mod:`repro.obs.export` — strict-JSON lines (telemetry files, trace
  files, the registry's one ``collector_failed`` report on stderr) and
  the Prometheus text format (a histogram is a ``summary`` family);
* :mod:`repro.obs.drift` — reference-vs-live drift detection: one
  mean-shift z-score per streaming monitor, over one number per
  request;
* :mod:`repro.obs.health` — declarative SLO specs judged against one
  registry snapshot and folded into a :class:`HealthSnapshot`.

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
