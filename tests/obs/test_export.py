"""Exporters: Prometheus text golden output, JSONL roundtrip."""

import pytest

from repro.obs.export import (
    TelemetryWriter,
    last_snapshot,
    read_telemetry,
    render_prometheus,
    snapshot_record,
)
from repro.obs.registry import MetricsRegistry


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_cache_hits_total").inc(7)
    registry.gauge("repro_cache_hit_rate", tags={"kind": "user"}).set(0.875)
    histogram = registry.histogram("repro_serving_encode_seconds", buckets=(0.5, 1.0))
    for value in (0.25, 0.25, 0.25, 2.0, 0.25):
        histogram.observe(value)
    return registry


class TestPrometheus:
    def test_golden_output(self):
        text = render_prometheus(make_registry().snapshot())
        assert text == (
            "# TYPE repro_cache_hit_rate gauge\n"
            'repro_cache_hit_rate{kind="user"} 0.875\n'
            "# TYPE repro_cache_hits_total counter\n"
            "repro_cache_hits_total 7\n"
            "# TYPE repro_serving_encode_seconds histogram\n"
            'repro_serving_encode_seconds_bucket{le="0.5"} 4\n'
            'repro_serving_encode_seconds_bucket{le="1"} 4\n'
            'repro_serving_encode_seconds_bucket{le="+Inf"} 5\n'
            "repro_serving_encode_seconds_sum 3\n"
            "repro_serving_encode_seconds_count 5\n"
            "# TYPE repro_serving_encode_seconds_p50 gauge\n"
            "repro_serving_encode_seconds_p50 0.25\n"
            "# TYPE repro_serving_encode_seconds_p95 gauge\n"
            "repro_serving_encode_seconds_p95 0.25\n"
            "# TYPE repro_serving_encode_seconds_p99 gauge\n"
            "repro_serving_encode_seconds_p99 0.25\n"
        )

    def test_label_escaping(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total", tags={"q": 'say "hi"\n'}).inc()
        text = render_prometheus(registry.snapshot())
        assert 'q="say \\"hi\\"\\n"' in text

    def test_label_backslash_escaped_first(self):
        # A literal backslash must render as \\ — and must not double-
        # escape the quote/newline escapes added after it.
        registry = MetricsRegistry()
        registry.counter("repro_x_total", tags={"path": 'a\\b"c'}).inc()
        text = render_prometheus(registry.snapshot())
        assert 'path="a\\\\b\\"c"' in text

    def test_label_keys_render_sorted(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_x_total", tags={"zeta": "1", "alpha": "2", "mid": "3"}
        ).inc()
        text = render_prometheus(registry.snapshot())
        assert '{alpha="2",mid="3",zeta="1"}' in text

    def test_exemplars_off_by_default(self):
        registry = MetricsRegistry()
        registry.histogram("repro_x_seconds", buckets=(1.0,)).observe(
            0.5, exemplar="00000000000000aa"
        )
        text = render_prometheus(registry.snapshot())
        assert "00000000000000aa" not in text

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus([]) == ""


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        registry = make_registry()
        with TelemetryWriter(path) as writer:
            writer.write({"record": "epoch", "epoch": 1, "train_loss": 0.5})
            writer.write_snapshot(registry, command="test")
        records = read_telemetry(path)
        assert records[0] == {"record": "epoch", "epoch": 1, "train_loss": 0.5}
        assert records[1]["record"] == "snapshot"
        assert records[1]["meta"] == {"command": "test"}
        names = {metric["name"] for metric in records[1]["metrics"]}
        assert "repro_cache_hits_total" in names

    def test_non_finite_values_are_written_as_null(self, tmp_path, strict_loads):
        # What a diverged training run leaves in the registry.
        registry = MetricsRegistry()
        registry.gauge("repro_train_epoch_loss").set(float("nan"))
        registry.gauge("repro_train_grad_norm").set(float("inf"))
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            writer.write({"record": "epoch", "loss": float("-inf")})
            writer.write_snapshot(registry)
        epoch, snapshot = map(strict_loads, path.read_text().splitlines())
        assert epoch["loss"] is None
        assert [m["value"] for m in snapshot["metrics"]] == [None, None]
        # ...and the file still renders: null reads back as NaN.
        assert "repro_train_epoch_loss NaN" in render_prometheus(
            last_snapshot(path)
        )
        # The live text format keeps its own spellings.
        live = render_prometheus(registry.snapshot())
        assert "repro_train_epoch_loss NaN" in live
        assert "repro_train_grad_norm +Inf" in live

    def test_last_snapshot_takes_final(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        registry = make_registry()
        with TelemetryWriter(path) as writer:
            writer.write_snapshot(registry)
            registry.counter("repro_cache_hits_total").inc()
            writer.write_snapshot(registry)
        metrics = {m["name"]: m for m in last_snapshot(path)}
        assert metrics["repro_cache_hits_total"]["value"] == 8

    def test_last_snapshot_requires_one(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            writer.write({"record": "epoch", "epoch": 1})
        with pytest.raises(ValueError, match="no snapshot"):
            last_snapshot(path)

    def test_closed_writer_rejects(self, tmp_path):
        writer = TelemetryWriter(tmp_path / "t.jsonl")
        writer.close()
        with pytest.raises(RuntimeError, match="closed"):
            writer.write({"record": "x"})

    def test_snapshot_record_shape(self):
        record = snapshot_record(make_registry(), run="r1")
        assert record["record"] == "snapshot"
        assert record["meta"] == {"run": "r1"}
        assert isinstance(record["metrics"], list)
