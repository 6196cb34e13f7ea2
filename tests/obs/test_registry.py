"""Metrics registry: counters, gauges, histograms, quantiles."""

import io
import json
import math

import numpy as np
import pytest

from repro.obs.log import log_context
from repro.obs.registry import (
    Counter,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    use_registry,
)


class TestCounter:
    def test_inc_and_tags_are_separate_series(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", tags={"kind": "user"}).inc()
        registry.counter("repro_x_total", tags={"kind": "user"}).inc(2)
        registry.counter("repro_x_total", tags={"kind": "event"}).inc()
        assert registry.counter("repro_x_total", tags={"kind": "user"}).value == 3
        assert registry.counter("repro_x_total", tags={"kind": "event"}).value == 1

    def test_tag_order_does_not_matter(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", tags={"a": "1", "b": "2"}).inc()
        same = registry.counter("repro_x_total", tags={"b": "2", "a": "1"})
        assert same.value == 1

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError, match="only go up"):
            Counter().inc(-1)

    def test_set_total_mirrors_external_count(self):
        counter = Counter()
        counter.set_total(17)
        assert counter.value == 17.0


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_x_gauge")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.inc(-1.0)
        assert gauge.value == 6.0


class TestTypeSafety:
    def test_name_cannot_change_type(self):
        registry = MetricsRegistry()
        registry.counter("repro_x")
        with pytest.raises(ValueError, match="is a counter"):
            registry.gauge("repro_x")


class TestHistogramBuckets:
    def test_cumulative_buckets(self):
        histogram = Histogram(buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.7, 4.0, 100.0):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (1.0, 1),
            (2.0, 3),
            (5.0, 4),
            (math.inf, 5),
        ]
        assert histogram.count == 5
        assert histogram.min == 0.5
        assert histogram.max == 100.0

    def test_sum(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(0.25)
        histogram.observe(0.5)
        assert histogram.sum == pytest.approx(0.75)


class TestHistogramQuantiles:
    """Streaming P² estimates against known distributions."""

    def test_uniform(self):
        histogram = Histogram(buckets=(0.5, 1.0))
        rng = np.random.default_rng(7)
        for value in rng.uniform(0.0, 1.0, 20000):
            histogram.observe(value)
        assert histogram.quantile(0.5) == pytest.approx(0.5, abs=0.02)
        assert histogram.quantile(0.95) == pytest.approx(0.95, abs=0.02)
        assert histogram.quantile(0.99) == pytest.approx(0.99, abs=0.01)

    def test_exponential(self):
        """Heavy-tailed — the realistic latency shape."""
        histogram = Histogram(buckets=(1.0,))
        rng = np.random.default_rng(3)
        for value in rng.exponential(1.0, 20000):
            histogram.observe(value)
        # True quantiles of Exp(1): -ln(1 - q)
        assert histogram.quantile(0.5) == pytest.approx(math.log(2), rel=0.08)
        assert histogram.quantile(0.95) == pytest.approx(-math.log(0.05), rel=0.08)
        assert histogram.quantile(0.99) == pytest.approx(-math.log(0.01), rel=0.10)

    def test_exact_for_small_samples(self):
        histogram = Histogram(buckets=(10.0,))
        for value in (1.0, 2.0, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == pytest.approx(2.0)

    def test_empty_is_nan(self):
        assert math.isnan(Histogram(buckets=(1.0,)).quantile(0.5))

    def test_percentile_labels(self):
        histogram = Histogram(buckets=(1.0,))
        histogram.observe(1.0)
        assert set(histogram.percentiles()) == {"p50", "p95", "p99"}


class TestSnapshot:
    def test_snapshot_schema(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", tags={"kind": "x"}).inc()
        registry.gauge("repro_b").set(2.0)
        registry.histogram("repro_c_seconds", buckets=(1.0,)).observe(0.5)
        records = {r["name"]: r for r in registry.snapshot()}
        assert records["repro_a_total"]["type"] == "counter"
        assert records["repro_a_total"]["tags"] == {"kind": "x"}
        assert records["repro_b"]["value"] == 2.0
        histogram = records["repro_c_seconds"]
        assert histogram["count"] == 1
        assert histogram["buckets"][-1][1] == 1
        assert histogram["quantiles"]["p50"] == pytest.approx(0.5)

    def test_collector_runs_at_snapshot(self):
        registry = MetricsRegistry()
        registry.register_collector(
            "pull", lambda r: r.gauge("repro_pulled").set(42.0)
        )
        records = {r["name"]: r for r in registry.snapshot()}
        assert records["repro_pulled"]["value"] == 42.0

    def test_collector_reregistration_replaces(self):
        registry = MetricsRegistry()
        registry.register_collector("k", lambda r: r.gauge("repro_g").set(1.0))
        registry.register_collector("k", lambda r: r.gauge("repro_g").set(2.0))
        records = {r["name"]: r for r in registry.snapshot()}
        assert records["repro_g"]["value"] == 2.0


    def test_raising_collector_costs_only_its_own_series(self):
        def broken(registry):
            raise RuntimeError("collector bug")

        registry = MetricsRegistry()
        registry.register_collector("bad", broken)
        registry.register_collector(
            "good", lambda r: r.gauge("repro_pulled").set(42.0)
        )
        stream = io.StringIO()
        with log_context(stream=stream):
            registry.snapshot()
            records = {r["name"]: r for r in registry.snapshot()}
        assert records["repro_pulled"]["value"] == 42.0
        errors = records["repro_obs_collector_errors_total"]
        assert errors["tags"] == {"collector": "bad"}
        assert errors["value"] == 2.0
        (warning,) = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert warning["event"] == "collector_failed"
        assert warning["level"] == "warning"
        assert warning["tags"] == {
            "collector": "bad",
            "error": "RuntimeError: collector bug",
        }


class TestGlobalRegistry:
    def test_default_is_noop(self):
        registry = get_registry()
        assert not registry.enabled
        registry.counter("repro_anything").inc()
        assert registry.snapshot() == []

    def test_null_instruments_are_shared_singletons(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
        assert registry.histogram("a") is registry.histogram("b")

    def test_use_registry_restores_previous(self):
        before = get_registry()
        with use_registry() as registry:
            assert get_registry() is registry
            assert registry.enabled
        assert get_registry() is before
