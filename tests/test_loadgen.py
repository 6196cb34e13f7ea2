"""Open-loop load harness: schedule, percentiles, report, saturation."""

import json
import time

import numpy as np
import pytest

from repro.loadgen import (
    GateTolerances,
    LoadgenConfig,
    append_bench_point,
    bench_point,
    check_bench_regression,
    format_gate,
    format_report,
    percentile,
    run_load,
)
from repro.obs import MetricsRegistry, TailSampler, Tracer, use_registry, use_tracer


class StubService:
    """Constant-latency double for RepresentationService."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls: list[str] = []

    def _work(self) -> None:
        if self.delay:
            time.sleep(self.delay)

    def score(self, user, event):
        self.calls.append("score")
        self._work()
        return 0.5

    def rank_events(self, user, events, top_k=None):
        self.calls.append("rank")
        self._work()
        return []

    def rank_events_batch(self, users, events, top_k=None):
        self.calls.append("rank_batch")
        self._work()
        return [[] for _ in users]


USERS = ["u0", "u1", "u2"]
EVENTS = ["e0", "e1", "e2", "e3"]


class TestPercentile:
    def test_matches_numpy_linear_interpolation(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        for q in (0.0, 25.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile(values, q) == pytest.approx(
                float(np.percentile(values, q))
            )

    def test_single_value(self):
        assert percentile([7.0], 99.0) == 7.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_raises(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": 0.0},
            {"duration": -1.0},
            {"workers": 0},
            {"score_fraction": 1.5},
            {"batch_users": 0},
            {"warmup": -1},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            LoadgenConfig(**kwargs)


class TestRunLoad:
    CONFIG = LoadgenConfig(
        rate=400.0, duration=0.15, workers=2, score_fraction=0.25, seed=5
    )

    def test_report_counts_and_rates(self):
        service = StubService()
        report = run_load(service, USERS, EVENTS, self.CONFIG)
        assert report.requests == len(service.calls) > 0
        assert report.ops.get("rank", 0) + report.ops.get("score", 0) == (
            report.requests
        )
        assert report.offered_rps == pytest.approx(
            report.requests / self.CONFIG.duration
        )
        assert report.achieved_rps > 0.0
        assert set(report.latency) == {"p50", "p95", "p99", "max", "mean"}

    def test_same_seed_same_traffic(self):
        first = run_load(StubService(), USERS, EVENTS, self.CONFIG)
        second = run_load(StubService(), USERS, EVENTS, self.CONFIG)
        assert first.requests == second.requests
        assert first.ops == second.ops

    def test_latency_includes_queue_wait(self):
        # One worker + 5 ms of service per request at an offered rate
        # far beyond 200/s: queue wait must show up in the scheduled
        # arrival -> completion latency.
        config = LoadgenConfig(
            rate=2000.0, duration=0.05, workers=1, score_fraction=0.0, seed=1
        )
        report = run_load(StubService(delay=0.005), USERS, EVENTS, config)
        assert report.requests > 5
        assert report.latency["max"] > report.service["max"]
        assert report.queue_wait["max"] > 0.0
        assert report.saturated

    def test_batch_users_routes_to_batch(self):
        config = LoadgenConfig(
            rate=300.0, duration=0.1, workers=2, score_fraction=0.0,
            batch_users=3, seed=2,
        )
        service = StubService()
        run_load(service, USERS, EVENTS, config)
        assert set(service.calls) == {"rank_batch"}

    def test_traced_run_attributes_and_records_trace_ids(self):
        config = LoadgenConfig(
            rate=300.0, duration=0.1, workers=2, score_fraction=0.0, seed=3
        )
        with use_registry(MetricsRegistry()):
            with use_tracer(Tracer(TailSampler(keep_slowest=4))) as tracer:
                report = run_load(StubService(), USERS, EVENTS, config)
        assert report.attribution, "tracer installed => attribution rows"
        stages = {row["stage"] for row in report.attribution}
        assert "repro_loadgen_request" in stages
        assert all(record.trace_id for record in report.records)
        assert tracer.traces(), "slow traces retained"

    def test_untraced_run_has_no_trace_ids(self):
        report = run_load(StubService(), USERS, EVENTS, self.CONFIG)
        assert report.attribution == []
        assert all(record.trace_id is None for record in report.records)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            run_load(StubService(), [], EVENTS, self.CONFIG)
        with pytest.raises(ValueError):
            run_load(StubService(), USERS, [], self.CONFIG)

    def test_report_round_trips_to_json(self):
        report = run_load(StubService(), USERS, EVENTS, self.CONFIG)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["requests"] == report.requests
        assert payload["config"]["seed"] == self.CONFIG.seed

    def test_format_report_mentions_percentiles(self):
        report = run_load(StubService(), USERS, EVENTS, self.CONFIG)
        text = format_report(report)
        assert "p99" in text and "offered rate" in text


class TestWarmup:
    def test_warmup_requests_issued_but_excluded(self):
        config = LoadgenConfig(
            rate=400.0, duration=0.15, workers=2, warmup=25, seed=5
        )
        service = StubService()
        report = run_load(service, USERS, EVENTS, config)
        assert report.warmup_excluded == 25
        assert len(service.calls) == report.requests + 25
        assert len(report.records) == report.requests

    def test_warmup_does_not_perturb_measured_traffic(self):
        base = LoadgenConfig(rate=400.0, duration=0.15, workers=2, seed=5)
        warmed = LoadgenConfig(
            rate=400.0, duration=0.15, workers=2, warmup=40, seed=5
        )
        cold = run_load(StubService(), USERS, EVENTS, base)
        warm = run_load(StubService(), USERS, EVENTS, warmed)
        assert warm.requests == cold.requests
        assert warm.ops == cold.ops
        assert [r.op for r in warm.records] == [r.op for r in cold.records]

    def test_format_report_mentions_warmup(self):
        config = LoadgenConfig(
            rate=400.0, duration=0.15, workers=2, warmup=7, seed=5
        )
        report = run_load(StubService(), USERS, EVENTS, config)
        assert "warmup:        7 requests" in format_report(report)


class TestReportHealth:
    CONFIG = LoadgenConfig(rate=400.0, duration=0.15, workers=2, seed=5)

    def test_disabled_registry_yields_no_health(self):
        report = run_load(StubService(), USERS, EVENTS, self.CONFIG)
        assert report.health is None
        assert report.as_dict()["health"] is None

    def test_enabled_registry_yields_verdict_and_gauges(self):
        with use_registry(MetricsRegistry()) as registry:
            report = run_load(
                StubService(), USERS, EVENTS, self.CONFIG, registry=registry
            )
            snapshot = {
                (r["name"], r["tags"].get("stat")): r
                for r in registry.snapshot()
            }
        assert report.health is not None
        assert {slo.name for slo in report.health.slos} == {
            "rank_p99", "cache_hit_rate", "score_drift_ok"
        }
        p99 = snapshot[("repro_loadgen_latency_seconds", "p99")]
        assert p99["value"] == pytest.approx(report.latency["p99"])
        assert ("repro_loadgen_achieved_rps", None) in snapshot
        assert ("repro_health_ok", None) in snapshot
        # The stub service exports no cache/drift metrics: those SLOs
        # read "missing", which must flip the verdict unhealthy.
        assert not report.health.healthy
        assert "cache_hit_rate" in report.health.breached()

    def test_custom_slos_override_defaults(self):
        from repro.obs.health import SLOSpec

        slos = [
            SLOSpec(
                name="loose_p99",
                metric="repro_loadgen_latency_seconds",
                tags={"stat": "p99"},
                op="<=",
                target=60.0,
            )
        ]
        with use_registry(MetricsRegistry()) as registry:
            report = run_load(
                StubService(), USERS, EVENTS, self.CONFIG,
                registry=registry, slos=slos,
            )
        assert report.health is not None
        assert report.health.healthy
        assert [slo.name for slo in report.health.slos] == ["loose_p99"]


class TestBenchPoint:
    def test_stamps_provenance_fields(self):
        config = LoadgenConfig(
            rate=400.0, duration=0.15, workers=2, warmup=5, seed=5
        )
        report = run_load(StubService(), USERS, EVENTS, config)
        point = bench_point(report.as_dict(), date="2026-08-08")
        assert point["date"] == "2026-08-08"
        assert point["commit"] and isinstance(point["commit"], str)
        assert point["python"].count(".") == 2
        assert point["workers"] == 2
        assert point["warmup"] == 5
        assert point["pool_size"] == len(EVENTS)
        # bench_point rounds to 3 decimals of a millisecond.
        assert point["latency_p99_ms"] == pytest.approx(
            report.latency["p99"] * 1e3, abs=5e-4
        )
        assert "health" not in point  # registry disabled => no verdict

    def test_carries_health_summary_when_present(self):
        report = {
            "config": {"workers": 4, "rate": 100.0, "duration": 1.0},
            "pool_size": 10,
            "requests": 50,
            "achieved_rps": 99.0,
            "saturated": False,
            "latency": {"p50": 0.001, "p95": 0.002, "p99": 0.003},
            "health": {"healthy": False, "breached": ["rank_p99"]},
        }
        point = bench_point(report, date="2026-08-08")
        assert point["health"] == {
            "healthy": False, "breached": ["rank_p99"]
        }


def make_point(**overrides):
    point = {
        "workers": 4,
        "pool_size": 500,
        "saturated": False,
        "achieved_rps": 200.0,
        "latency_p50_ms": 1.0,
        "latency_p95_ms": 2.0,
        "latency_p99_ms": 5.0,
    }
    point.update(overrides)
    return point


class TestBenchGate:
    def test_within_tolerance_passes(self):
        document = {"points": [make_point(), make_point(latency_p99_ms=6.0)]}
        result = check_bench_regression(document, make_point())
        assert result.ok
        assert result.compared == 2
        assert {check.metric for check in result.checks} == {
            "latency_p50_ms", "latency_p95_ms", "latency_p99_ms",
            "achieved_rps",
        }

    def test_latency_regression_fails(self):
        document = {"points": [make_point()]}
        candidate = make_point(latency_p99_ms=5.0 * 5.0 + 1.0)
        result = check_bench_regression(document, candidate)
        assert not result.ok
        failing = [c.metric for c in result.checks if not c.ok]
        assert failing == ["latency_p99_ms"]

    def test_throughput_collapse_fails(self):
        document = {"points": [make_point()]}
        result = check_bench_regression(
            document, make_point(achieved_rps=50.0)
        )
        assert not result.ok

    def test_median_baseline_ignores_one_outlier(self):
        document = {
            "points": [
                make_point(),
                make_point(),
                make_point(latency_p99_ms=500.0),  # historical outlier
            ]
        }
        result = check_bench_regression(document, make_point())
        p99 = next(
            c for c in result.checks if c.metric == "latency_p99_ms"
        )
        assert p99.baseline == 5.0
        assert result.ok

    def test_no_comparable_points_passes_vacuously(self):
        document = {"points": [make_point(workers=8)]}
        result = check_bench_regression(document, make_point())
        assert result.ok and result.compared == 0
        assert "no comparable" in result.reason

    def test_saturated_history_is_excluded_from_baseline(self):
        document = {
            "points": [make_point(saturated=True, latency_p99_ms=900.0)]
        }
        result = check_bench_regression(document, make_point())
        assert result.compared == 0

    def test_saturated_candidate_fails(self):
        document = {"points": [make_point()]}
        result = check_bench_regression(
            document, make_point(saturated=True)
        )
        assert not result.ok
        assert "saturated" in result.reason

    def test_custom_tolerances(self):
        document = {"points": [make_point()]}
        candidate = make_point(latency_p99_ms=9.0)
        strict = GateTolerances(latency_p99_ms=1.5)
        assert not check_bench_regression(document, candidate, strict).ok
        loose = GateTolerances(latency_p99_ms=2.0)
        assert check_bench_regression(document, candidate, loose).ok

    def test_bad_tolerances_raise(self):
        with pytest.raises(ValueError):
            GateTolerances(latency_p99_ms=0.0)

    def test_format_gate_mentions_verdict(self):
        document = {"points": [make_point()]}
        passing = format_gate(check_bench_regression(document, make_point()))
        assert "PASS" in passing and "latency_p99_ms" in passing
        failing = format_gate(
            check_bench_regression(
                document, make_point(latency_p99_ms=100.0)
            )
        )
        assert "FAIL" in failing and "REGRESSION" in failing

    def test_result_as_dict_round_trips(self):
        document = {"points": [make_point()]}
        result = check_bench_regression(document, make_point())
        payload = json.loads(json.dumps(result.as_dict()))
        assert payload["ok"] is True
        assert len(payload["checks"]) == 4


class TestBenchTrajectory:
    def test_append_creates_then_extends(self, tmp_path):
        target = tmp_path / "BENCH_serving.json"
        first = append_bench_point(target, {"latency_p99_ms": 5.0})
        assert len(first["points"]) == 1
        second = append_bench_point(target, {"latency_p99_ms": 4.0})
        assert len(second["points"]) == 2
        on_disk = json.loads(target.read_text())
        assert on_disk["bench"] == "serving_loadgen"
        assert [p["latency_p99_ms"] for p in on_disk["points"]] == [5.0, 4.0]

    def test_bench_name_mismatch_raises(self, tmp_path):
        target = tmp_path / "BENCH_other.json"
        append_bench_point(target, {}, bench="other")
        with pytest.raises(ValueError):
            append_bench_point(target, {}, bench="serving_loadgen")


class TestServingMode:
    """The HTTP serving mode: report tagging, gate comparability, and
    a real end-to-end run against the threaded batched server."""

    def test_report_mode_defaults_to_inprocess(self):
        report = run_load(StubService(), USERS, EVENTS, TestRunLoad.CONFIG)
        assert report.mode == "inprocess"
        assert report.as_dict()["mode"] == "inprocess"

    def test_bench_point_carries_mode(self):
        report = run_load(
            StubService(), USERS, EVENTS, TestRunLoad.CONFIG, mode="http"
        )
        point = bench_point(report.as_dict(), date="2026-08-08")
        assert point["mode"] == "http"

    def test_bench_point_defaults_legacy_reports_to_inprocess(self):
        report = run_load(StubService(), USERS, EVENTS, TestRunLoad.CONFIG)
        payload = report.as_dict()
        del payload["mode"]  # a report written before modes existed
        assert bench_point(payload, date="2026-08-08")["mode"] == "inprocess"

    def test_gate_ignores_points_from_other_modes(self):
        # A slow HTTP history must not gate an in-process candidate
        # (and vice versa): mode is a comparability key.
        document = {
            "points": [make_point(mode="http", latency_p99_ms=500.0)]
        }
        result = check_bench_regression(document, make_point())
        assert result.ok and result.compared == 0

    def test_run_load_through_http_server(self):
        from repro.loadgen import build_synthetic_service
        from repro.serving import HttpServiceClient, ServingServer, ThreadedServer

        service, users, events = build_synthetic_service(seed=1, pool_size=20)
        server = ServingServer(service, users, events)
        config = LoadgenConfig(
            rate=150.0, duration=0.2, workers=2, score_fraction=0.25,
            top_k=3, seed=4,
        )
        with ThreadedServer(server) as hosted:
            client = HttpServiceClient(
                hosted.host, hosted.port, full_pool_size=len(events)
            )
            try:
                report = run_load(client, users, events, config, mode="http")
            finally:
                client.close()
        assert report.mode == "http"
        assert report.requests > 0
        assert report.ops.get("rank", 0) > 0
