"""SLO health: spec parsing, one-snapshot verdicts, rendering."""

import json

import pytest

from repro.obs.drift import DriftMonitor
from repro.obs.health import SLOSpec, default_serving_slos, evaluate, format_health, parse_slo
from repro.obs.registry import MetricsRegistry


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
        ],
    )
    def test_bad_specs_raise(self, kwargs):
        base = {"name": "x", "metric": "m", "op": "<=", "target": 1.0}
        with pytest.raises(ValueError):
            SLOSpec(**{**base, **kwargs})


class TestParseSlo:
    def test_full_syntax_round_trip(self):
        spec = parse_slo(
            "score_z=repro_drift_mean_zscore{monitor=serving_scores}<=4.5"
        )
        assert spec.name == "score_z"
        assert spec.metric == "repro_drift_mean_zscore"
        assert spec.tags == {"monitor": "serving_scores"}
        assert spec.op == "<=" and spec.target == 4.5
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
        verdict = evaluate(self.SPECS, self.snapshot())
        assert verdict.healthy
        assert verdict.breached() == []

    def test_breaching_value_flips_verdict(self):
        verdict = evaluate(self.SPECS, self.snapshot(p99=0.05))
        assert not verdict.healthy
        assert verdict.breached() == ["lat_p99"]

    def test_missing_metric_is_unhealthy(self):
        verdict = evaluate(self.SPECS, 
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
        verdict = evaluate(self.SPECS, snapshot)
        assert verdict.healthy

    def test_histogram_stat_extraction(self):
        spec = SLOSpec(name="rank", metric="repro_serving_rank_seconds",
                       stat="p99", op="<=", target=0.01)
        snapshot = [
            histogram_record(
                "repro_serving_rank_seconds", {"p50": 0.001, "p99": 0.003}
            )
        ]
        verdict = evaluate([spec], snapshot)
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
        verdict = evaluate([spec], snapshot)
        assert verdict.slos[0].value == pytest.approx(0.01)

    def test_drifted_monitor_breaches_snapshot(self):
        """A drift monitor reaches the verdict the one way anything
        does: as a spec over the gauge it exports."""
        monitor = DriftMonitor("scores", window=5)
        for value in [1.0, 1.1, 0.9, 1.05, 0.95]:
            monitor.observe(value)
        specs = self.SPECS + (parse_slo(
            "scores_ok=repro_drift_ok{monitor=scores}>=1"
        ),)
        registry = MetricsRegistry()
        registry.gauge(
            "repro_loadgen_latency_seconds", tags={"stat": "p99"}
        ).set(0.005)
        registry.gauge("repro_cache_hit_rate").set(0.95)
        monitor.export(registry)
        assert evaluate(specs, registry.snapshot()).healthy  # warming
        for value in [50.0, 51.0, 49.0, 50.5, 49.5]:
            monitor.observe(value)
        monitor.export(registry)
        verdict = evaluate(specs, registry.snapshot())
        assert not verdict.healthy
        assert verdict.breached() == ["scores_ok"]

    def test_no_specs_and_no_monitors_raises(self):
        with pytest.raises(ValueError):
            evaluate([], self.snapshot())

    def test_same_snapshot_same_verdict(self):
        """Nothing survives an evaluation: judging a breach does not
        colour the next judgment, and judging twice changes nothing."""
        bad, good = self.snapshot(p99=0.05), self.snapshot()
        first = evaluate(self.SPECS, bad)
        assert evaluate(self.SPECS, good).healthy
        assert evaluate(self.SPECS, bad) == first

    def test_nan_value_is_missing(self):
        verdict = evaluate(self.SPECS, self.snapshot(hit=float("nan")))
        assert not verdict.healthy
        assert {slo.name: slo.status for slo in verdict.slos} == {
            "lat_p99": "ok", "hit_rate": "missing"
        }

    def test_as_dict_json_round_trip(self):
        verdict = evaluate(self.SPECS, self.snapshot())
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
        verdict = evaluate(self.SPECS, registry.snapshot())
        assert verdict.healthy


class TestDefaultServingSlos:
    def test_cover_latency_cache_and_drift(self):
        specs = default_serving_slos()
        assert [spec.name for spec in specs] == [
            "recommend_p99", "cache_hit_rate", "score_drift_ok", "user_norm_drift_ok",
        ]
        assert {spec.metric for spec in specs} == {
            "repro_serving_http_request_seconds",
            "repro_cache_hit_rate",
            "repro_drift_ok",
        }
        # Latency is what the server measures: its own /recommend p99.
        (latency,) = [
            spec for spec in specs
            if spec.metric == "repro_serving_http_request_seconds"
        ]
        assert (latency.tags, latency.stat, latency.op) == (
            {"route": "/recommend"}, "p99", "<="
        )
        # Every monitor the service carries, by the name it exports.
        from repro.core.service import ServingMonitors

        assert {
            spec.tags["monitor"]
            for spec in specs
            if spec.metric == "repro_drift_ok"
        } == {monitor.name for monitor in ServingMonitors().all}


class TestFormatHealth:
    def test_mentions_verdict_slos_and_drift(self):
        monitor = DriftMonitor("scores", window=5)
        for value in [1.0] * 5 + [1.0] * 5:
            monitor.observe(value)
        registry = MetricsRegistry()
        registry.gauge("repro_cache_hit_rate").set(0.95)
        monitor.export(registry)
        specs = (
            TestHealthMonitor.SPECS[1],
            parse_slo("scores_ok=repro_drift_ok{monitor=scores}>=1"),
        )
        text = format_health(evaluate(specs, registry.snapshot()))
        assert "health: OK" in text
        assert "hit_rate" in text and "scores_ok" in text
        assert "burn" not in text

    def test_breached_run_lists_names(self):
        verdict = evaluate(
            TestHealthMonitor.SPECS, TestHealthMonitor().snapshot(hit=0.1)
        )
        text = format_health(verdict)
        assert "health: BREACHED" in text
        assert "breached: hit_rate" in text
