"""SLO health: spec parsing, burn rates, verdicts, export."""

import json

import pytest

from repro.obs import MetricsRegistry, render_prometheus
from repro.obs.drift import DriftMonitor
from repro.obs.health import (
    HealthMonitor,
    SLOSpec,
    SLOTracker,
    default_serving_slos,
    format_health,
    parse_slo,
)


def gauge_record(name, value, tags=None):
    return {"name": name, "type": "gauge", "tags": tags or {}, "value": value}


def histogram_record(name, quantiles, count=100, total=1.0, tags=None):
    return {
        "name": name,
        "type": "histogram",
        "tags": tags or {},
        "count": count,
        "sum": total,
        "quantiles": quantiles,
    }


class TestSLOSpec:
    def test_met_by_directions(self):
        upper = SLOSpec(name="lat", metric="m", op="<=", target=0.01)
        assert upper.met_by(0.009) and not upper.met_by(0.011)
        lower = SLOSpec(name="hit", metric="m", op=">=", target=0.9)
        assert lower.met_by(0.95) and not lower.met_by(0.85)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"op": "<"},
            {"stat": "p42"},
            {"budget": 0.0},
            {"budget": 1.0},
            {"burn_threshold": 0.0},
            {"short_window": 0},
            {"short_window": 100, "long_window": 10},
        ],
    )
    def test_bad_specs_raise(self, kwargs):
        base = {"name": "x", "metric": "m", "op": "<=", "target": 1.0}
        with pytest.raises(ValueError):
            SLOSpec(**{**base, **kwargs})


class TestParseSlo:
    def test_full_syntax_round_trip(self):
        spec = parse_slo(
            "score_psi=repro_drift_psi{monitor=serving_scores}<=0.2"
        )
        assert spec.name == "score_psi"
        assert spec.metric == "repro_drift_psi"
        assert spec.tags == {"monitor": "serving_scores"}
        assert spec.op == "<=" and spec.target == 0.2
        assert spec.stat == "value"

    def test_stat_suffix_and_default_name(self):
        spec = parse_slo("repro_serving_rank_seconds.p99<=0.01")
        assert spec.name == "repro_serving_rank_seconds"
        assert spec.stat == "p99"

    def test_lower_bound(self):
        spec = parse_slo("repro_cache_hit_rate>=0.9")
        assert spec.op == ">=" and spec.target == 0.9

    @pytest.mark.parametrize(
        "text",
        ["", "just words", "m<0.5", "m{key}<=1", "m<=not_a_number"],
    )
    def test_unparseable_raises(self, text):
        with pytest.raises(ValueError):
            parse_slo(text)


class TestSLOTracker:
    def test_single_breach_fills_both_windows(self):
        # One failing sample = 100% breach fraction in both windows;
        # burn = 1/0.05 = 20 >= threshold — one-shot verdicts work.
        tracker = SLOTracker(SLOSpec(name="x", metric="m", op="<=", target=1.0))
        tracker.record(2.0)
        assert tracker.burn_rates() == (20.0, 20.0)
        assert tracker.status().status == "breach"

    def test_single_pass_is_ok(self):
        tracker = SLOTracker(SLOSpec(name="x", metric="m", op="<=", target=1.0))
        tracker.record(0.5)
        assert tracker.status().status == "ok"

    def test_multi_window_smoothing_forgives_transient(self):
        # budget 0.5, short window 2, long window 8: one spike in a
        # long healthy run breaches the short window but not the long.
        spec = SLOSpec(
            name="x", metric="m", op="<=", target=1.0,
            budget=0.5, short_window=2, long_window=8,
        )
        tracker = SLOTracker(spec)
        for _ in range(7):
            tracker.record(0.5)
        tracker.record(2.0)  # short burn = (1/2)/0.5 = 1.0 >= 1
        short_burn, long_burn = tracker.burn_rates()
        assert short_burn >= spec.burn_threshold
        assert long_burn < spec.burn_threshold
        assert tracker.status().status == "ok"

    def test_sustained_breach_trips_both_windows(self):
        spec = SLOSpec(
            name="x", metric="m", op="<=", target=1.0,
            budget=0.5, short_window=2, long_window=8,
        )
        tracker = SLOTracker(spec)
        for _ in range(4):
            tracker.record(0.5)
        for _ in range(4):
            tracker.record(2.0)
        assert tracker.status().status == "breach"

    def test_missing_then_stale(self):
        tracker = SLOTracker(SLOSpec(name="x", metric="m", op="<=", target=1.0))
        tracker.record(None)
        assert tracker.status().status == "missing"
        tracker.record(0.5)
        tracker.record(None)
        assert tracker.status().status == "stale"


class TestHealthMonitor:
    SPECS = (
        SLOSpec(name="lat_p99", metric="repro_loadgen_latency_seconds",
                tags={"stat": "p99"}, op="<=", target=0.01),
        SLOSpec(name="hit_rate", metric="repro_cache_hit_rate",
                op=">=", target=0.9),
    )

    def snapshot(self, p99=0.005, hit=0.95):
        return [
            gauge_record(
                "repro_loadgen_latency_seconds", p99, tags={"stat": "p99"}
            ),
            gauge_record("repro_cache_hit_rate", hit),
        ]

    def test_healthy_snapshot(self):
        verdict = HealthMonitor(self.SPECS).evaluate(self.snapshot())
        assert verdict.healthy
        assert verdict.breached() == []

    def test_breaching_value_flips_verdict(self):
        verdict = HealthMonitor(self.SPECS).evaluate(self.snapshot(p99=0.05))
        assert not verdict.healthy
        assert verdict.breached() == ["lat_p99"]

    def test_missing_metric_is_unhealthy(self):
        verdict = HealthMonitor(self.SPECS).evaluate(
            [gauge_record("repro_cache_hit_rate", 0.95)]
        )
        assert not verdict.healthy
        statuses = {slo.name: slo.status for slo in verdict.slos}
        assert statuses["lat_p99"] == "missing"

    def test_tag_filter_selects_series(self):
        snapshot = [
            gauge_record(
                "repro_loadgen_latency_seconds", 9.0, tags={"stat": "max"}
            ),
            gauge_record(
                "repro_loadgen_latency_seconds", 0.004, tags={"stat": "p99"}
            ),
            gauge_record("repro_cache_hit_rate", 0.95),
        ]
        verdict = HealthMonitor(self.SPECS).evaluate(snapshot)
        assert verdict.healthy

    def test_histogram_stat_extraction(self):
        spec = SLOSpec(name="rank", metric="repro_serving_rank_seconds",
                       stat="p99", op="<=", target=0.01)
        snapshot = [
            histogram_record(
                "repro_serving_rank_seconds", {"p50": 0.001, "p99": 0.003}
            )
        ]
        verdict = HealthMonitor([spec]).evaluate(snapshot)
        assert verdict.healthy
        assert verdict.slos[0].value == 0.003

    def test_histogram_mean_stat(self):
        spec = SLOSpec(name="rank", metric="repro_serving_rank_seconds",
                       stat="mean", op="<=", target=0.02)
        snapshot = [
            histogram_record(
                "repro_serving_rank_seconds", {}, count=100, total=1.0
            )
        ]
        verdict = HealthMonitor([spec]).evaluate(snapshot)
        assert verdict.slos[0].value == pytest.approx(0.01)

    def test_drifted_monitor_breaches_snapshot(self):
        monitor = DriftMonitor("scores", warmup=5, window=5, min_live=5)
        monitor.observe_many([1.0, 1.1, 0.9, 1.05, 0.95])
        monitor.observe_many([50.0, 51.0, 49.0, 50.5, 49.5])
        health = HealthMonitor(self.SPECS, drift_monitors=[monitor])
        verdict = health.evaluate(self.snapshot())
        assert not verdict.healthy
        assert "drift:scores" in verdict.breached()

    def test_no_specs_and_no_monitors_raises(self):
        with pytest.raises(ValueError):
            HealthMonitor([])

    def test_as_dict_json_round_trip(self):
        verdict = HealthMonitor(self.SPECS).evaluate(self.snapshot())
        payload = json.loads(json.dumps(verdict.as_dict()))
        assert payload["healthy"] is True
        assert {slo["name"] for slo in payload["slos"]} == {
            "lat_p99", "hit_rate"
        }

    def test_evaluate_reads_live_gauges_from_registry_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge(
            "repro_loadgen_latency_seconds", tags={"stat": "p99"}
        ).set(0.002)
        registry.gauge("repro_cache_hit_rate").set(0.99)
        verdict = HealthMonitor(self.SPECS).evaluate(registry.snapshot())
        assert verdict.healthy

    def test_export_writes_health_gauges(self):
        registry = MetricsRegistry()
        monitor = HealthMonitor(self.SPECS)
        verdict = monitor.evaluate(self.snapshot(p99=0.05))
        monitor.export(verdict, registry)
        text = render_prometheus(registry.snapshot())
        assert "repro_health_ok 0" in text
        assert 'repro_health_slo_ok{slo="lat_p99"} 0' in text
        assert 'repro_health_slo_ok{slo="hit_rate"} 1' in text
        assert 'repro_health_burn_rate{slo="lat_p99",window="short"}' in text
        assert "repro_health_evaluations_total 1" in text


class TestDefaultServingSlos:
    def test_cover_latency_cache_and_drift(self):
        metrics = {spec.metric for spec in default_serving_slos()}
        assert metrics == {
            "repro_loadgen_latency_seconds",
            "repro_cache_hit_rate",
            "repro_drift_ok",
        }


class TestFormatHealth:
    def test_mentions_verdict_slos_and_drift(self):
        monitor = DriftMonitor("scores", warmup=5, window=5, min_live=5)
        monitor.observe_many([1.0] * 5 + [1.0] * 5)
        health = HealthMonitor(
            TestHealthMonitor.SPECS, drift_monitors=[monitor]
        )
        verdict = health.evaluate(TestHealthMonitor().snapshot())
        text = format_health(verdict)
        assert "health: OK" in text
        assert "lat_p99" in text and "hit_rate" in text
        assert "scores" in text

    def test_breached_run_lists_names(self):
        health = HealthMonitor(TestHealthMonitor.SPECS)
        verdict = health.evaluate(TestHealthMonitor().snapshot(hit=0.1))
        text = format_health(verdict)
        assert "health: BREACHED" in text
        assert "breached: hit_rate" in text
