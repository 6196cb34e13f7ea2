"""Exporters: Prometheus text golden output, JSONL roundtrip."""

import json

import pytest

from repro.obs.drift import DriftMonitor
from repro.obs.export import (
    TelemetryWriter,
    last_snapshot,
    render_prometheus,
    snapshot_record,
)
from repro.obs.health import evaluate, parse_slo
from repro.obs.registry import MetricsRegistry


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("repro_cache_hits_total").inc(7)
    registry.gauge("repro_cache_hit_rate", tags={"kind": "user"}).set(0.875)
    histogram = registry.histogram("repro_serving_encode_seconds")
    for value in (0.25, 0.25, 0.25, 2.0, 0.25):
        histogram.observe(value)
    return registry


class TestPrometheus:
    def test_golden_output(self):
        # p95 / p99 are the sketch's, within 1 % of numpy's 1.65 / 1.93.
        text = render_prometheus(make_registry().snapshot())
        assert text == (
            "# TYPE repro_cache_hit_rate gauge\n"
            'repro_cache_hit_rate{kind="user"} 0.875\n'
            "# TYPE repro_cache_hits_total counter\n"
            "repro_cache_hits_total 7\n"
            "# TYPE repro_serving_encode_seconds summary\n"
            'repro_serving_encode_seconds{quantile="0.5"} 0.25\n'
            'repro_serving_encode_seconds{quantile="0.95"} 1.6449293611338756\n'
            'repro_serving_encode_seconds{quantile="0.99"} 1.9239152333606508\n'
            "repro_serving_encode_seconds_sum 3\n"
            "repro_serving_encode_seconds_count 5\n"
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

    def test_empty_snapshot_renders_empty(self):
        assert render_prometheus([]) == ""


class TestJsonl:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        registry = make_registry()
        with TelemetryWriter(path) as writer:
            writer.write({"record": "epoch", "epoch": 1, "train_loss": 0.5})
            writer.write_snapshot(registry, command="test")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0] == {"record": "epoch", "epoch": 1, "train_loss": 0.5}
        assert records[1]["record"] == "snapshot"
        assert records[1]["meta"] == {"command": "test"}
        names = {metric["name"] for metric in records[1]["metrics"]}
        assert "repro_cache_hits_total" in names

    def test_non_finite_values_stay_strict_json(self, tmp_path, strict_loads):
        # What a diverged training run leaves in the registry.
        registry = MetricsRegistry()
        registry.gauge("repro_train_epoch_loss").set(float("nan"))
        registry.gauge("repro_train_grad_norm").set(float("inf"))
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            writer.write({"record": "epoch", "loss": float("-inf")})
            writer.write_snapshot(registry)
        epoch, snapshot = map(strict_loads, path.read_text().splitlines())
        # NaN is null; ±inf is Prometheus's spelling, as a string.
        assert epoch["loss"] == "-Inf"
        assert [m["value"] for m in snapshot["metrics"]] == [None, "+Inf"]
        # ...and the file renders as the live registry does.
        assert render_prometheus(last_snapshot(path)) == render_prometheus(
            registry.snapshot()
        )
        live = render_prometheus(registry.snapshot())
        assert "repro_train_epoch_loss NaN" in live
        assert "repro_train_grad_norm +Inf" in live

    @pytest.mark.parametrize("live", [40.0, 120.0])
    def test_infinite_gauge_round_trips(self, tmp_path, live):
        """A breached monitor's infinite z-score reads back as the live
        registry holds it, so ``metrics`` and ``health`` see the same
        number from the file as from the process."""
        registry = MetricsRegistry()
        monitor = DriftMonitor("serving_user_norms", window=64)
        for value in [80.0] * 64 + [live] * 64:
            monitor.observe(value)
        monitor.export(registry)
        # A tag value spelled like an infinity is never rewritten.
        registry.gauge("repro_x", tags={"bound": "-Inf"}).set(1.0)
        path = tmp_path / "telemetry.jsonl"
        with TelemetryWriter(path) as writer:
            writer.write_snapshot(registry)
        assert last_snapshot(path) == registry.snapshot()
        slo = parse_slo("z=repro_drift_mean_zscore{monitor=serving_user_norms}>=-4")
        from_file = evaluate([slo], last_snapshot(path)).slos[0]
        from_live = evaluate([slo], registry.snapshot()).slos[0]
        assert from_file == from_live
        assert from_file.status == ("breach" if live < 80.0 else "ok")

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


class TestMalformedTelemetry:
    """A corrupt file is a ``ValueError`` naming the file and line."""

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[1, 2]", ":2: not a JSON object"),
            ('{"record": "snapshot", "metrics": 5}', ":2: snapshot metrics must be a list"),
            ('{"record": "snapshot", "metrics": [{"type": "gauge", "value": 1}]}',
             ":2: a metric must be an object with a string name"),
            ('{"record": "snapshot", "metrics": [{"name": "m", "type": "meter"}]}',
             ":2: a metric must be an object"),
            ('{"record": "snapshot", "metrics": [7]}', ":2: a metric must be an object"),
            ('{"record": "snapshot", "metrics": [{"name": "m", "type": "gauge"}]}',
             ":2: gauge 'm' has no value"),
            ('{"record": "snapshot", "metrics": [{"name": "h", "type": "histogram", '
             '"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0}]}',
             ":2: histogram 'h' has no quantiles"),
            ('{"record": "snapshot", "metrics": [{"name": "h", "type": "histogram", '
             '"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0, "quantiles": [0.5]}]}',
             ":2: histogram 'h' quantiles must be an object"),
        ],
    )
    def test_last_snapshot_names_file_and_line(self, tmp_path, line, message):
        path = tmp_path / "telemetry.jsonl"
        path.write_text('{"record": "run"}\n' + line + "\n")
        with pytest.raises(ValueError) as error:
            last_snapshot(path)
        assert str(error.value).startswith(str(path) + message)
