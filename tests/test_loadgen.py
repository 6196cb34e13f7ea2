"""Open-loop load harness: schedule, percentiles, report, saturation."""

import json
import time

import numpy as np
import pytest

from repro.loadgen import (
    LoadgenConfig,
    format_report,
    percentile,
    run_load,
)
from repro.obs import MetricsRegistry, TailSampler, Tracer, use_registry, use_tracer
from repro.obs.health import default_serving_slos


class StubClient:
    """Constant-latency double for HttpServiceClient: records each
    call as ``(op, user_id, event_id or top_k)``."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.calls: list[tuple] = []

    def _work(self) -> None:
        if self.delay:
            time.sleep(self.delay)

    def score(self, user_id, event_id):
        self.calls.append(("score", user_id, event_id))
        self._work()
        return 0.5

    def recommend(self, user_id, top_k=None):
        self.calls.append(("rank", user_id, top_k))
        self._work()
        return []


USERS = [10, 11, 12]
EVENTS = [70, 71, 72, 73]


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
            {"warmup": -1},
        ],
    )
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            LoadgenConfig(**kwargs)

    def test_empty_schedule_is_refused_before_any_traffic(self):
        """0.1 expected arrivals: the seeded schedule is empty, which
        used to crash run_load's summary after the warm-up was sent."""
        client = StubClient()
        with pytest.raises(ValueError, match=r"rate 0\.2/s x duration 0\.5 s"):
            run_load(
                client, USERS, EVENTS,
                LoadgenConfig(rate=0.2, duration=0.5, warmup=3),
            )
        assert client.calls == []

    def test_every_accepted_config_draws_an_arrival(self):
        """The refusal reads the first gap run_load draws; at one
        expected arrival some seeds pass and some do not, and every
        one that passes must reach the summary with a request."""
        accepted = 0
        for seed in range(12):
            try:
                config = LoadgenConfig(rate=100.0, duration=0.01, seed=seed)
            except ValueError:
                continue
            accepted += 1
            assert run_load(StubClient(), USERS, EVENTS, config).requests >= 1
        assert 0 < accepted < 12


class TestRunLoad:
    CONFIG = LoadgenConfig(
        rate=400.0, duration=0.15, workers=2, score_fraction=0.25, seed=5
    )

    def test_report_counts_and_rates(self):
        client = StubClient()
        report = run_load(client, USERS, EVENTS, self.CONFIG)
        assert report.requests == len(client.calls) > 0
        assert report.ops.get("rank", 0) + report.ops.get("score", 0) == (
            report.requests
        )
        assert report.offered_rps == pytest.approx(
            report.requests / self.CONFIG.duration
        )
        assert report.achieved_rps > 0.0
        assert set(report.latency) == {"p50", "p95", "p99", "max", "mean"}

    def test_same_seed_same_traffic(self):
        first = run_load(StubClient(), USERS, EVENTS, self.CONFIG)
        second = run_load(StubClient(), USERS, EVENTS, self.CONFIG)
        assert first.requests == second.requests
        assert first.ops == second.ops

    def test_plan_is_the_seeded_draw_posted_by_id(self):
        """One worker keeps call order = schedule order, so the calls
        can be checked against the draw itself: the arrival count, then
        per request an op and a user position from the same rng; a
        score pairs the user with the event at its position, a rank
        posts the user and top_k and leaves the pool to the server."""
        import random

        config = LoadgenConfig(
            rate=500.0, duration=0.1, workers=1, score_fraction=0.4,
            top_k=7, seed=9,
        )
        rng = random.Random(config.seed)
        arrivals = 0
        t = rng.expovariate(config.rate)
        while t < config.duration:
            arrivals += 1
            t += rng.expovariate(config.rate)
        expected = []
        for _ in range(arrivals):
            op = "score" if rng.random() < config.score_fraction else "rank"
            pos = rng.randrange(len(USERS))
            expected.append(
                ("score", USERS[pos], EVENTS[pos % len(EVENTS)])
                if op == "score"
                else ("rank", USERS[pos], 7)
            )
        client = StubClient()
        run_load(client, USERS, EVENTS, config)
        assert client.calls == expected
        assert {call[0] for call in expected} == {"score", "rank"}

    def test_latency_includes_queue_wait(self):
        # One worker + 5 ms of service per request at an offered rate
        # far beyond 200/s: queue wait must show up in the scheduled
        # arrival -> completion latency.
        config = LoadgenConfig(
            rate=2000.0, duration=0.05, workers=1, score_fraction=0.0, seed=1
        )
        report = run_load(StubClient(delay=0.005), USERS, EVENTS, config)
        assert report.requests > 5
        assert report.latency["max"] > report.service["max"]
        assert report.queue_wait["max"] > 0.0
        assert report.saturated

    def test_traced_run_attributes_and_records_trace_ids(self):
        config = LoadgenConfig(
            rate=300.0, duration=0.1, workers=2, score_fraction=0.0, seed=3
        )
        with use_registry(MetricsRegistry()):
            with use_tracer(Tracer(TailSampler(keep_slowest=4))) as tracer:
                report = run_load(StubClient(), USERS, EVENTS, config)
        assert report.attribution, "tracer installed => attribution rows"
        stages = {row["stage"] for row in report.attribution}
        assert "repro_loadgen_request" in stages
        assert all(record.trace_id for record in report.records)
        assert tracer.traces(), "slow traces retained"

    def test_untraced_run_has_no_trace_ids(self):
        report = run_load(StubClient(), USERS, EVENTS, self.CONFIG)
        assert report.attribution == []
        assert all(record.trace_id is None for record in report.records)

    def test_empty_inputs_raise(self):
        with pytest.raises(ValueError):
            run_load(StubClient(), [], EVENTS, self.CONFIG)
        with pytest.raises(ValueError):
            run_load(StubClient(), USERS, [], self.CONFIG)

    def test_report_round_trips_to_json(self):
        report = run_load(StubClient(), USERS, EVENTS, self.CONFIG)
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["requests"] == report.requests
        assert payload["config"]["seed"] == self.CONFIG.seed

    def test_format_report_mentions_percentiles(self):
        report = run_load(StubClient(), USERS, EVENTS, self.CONFIG)
        text = format_report(report)
        assert "p99" in text and "offered rate" in text


class TestWarmup:
    def test_warmup_requests_issued_but_excluded(self):
        config = LoadgenConfig(
            rate=400.0, duration=0.15, workers=2, warmup=25, seed=5
        )
        client = StubClient()
        report = run_load(client, USERS, EVENTS, config)
        assert report.warmup_excluded == 25
        assert len(client.calls) == report.requests + 25
        assert len(report.records) == report.requests

    def test_warmup_does_not_perturb_measured_traffic(self):
        base = LoadgenConfig(rate=400.0, duration=0.15, workers=2, seed=5)
        warmed = LoadgenConfig(
            rate=400.0, duration=0.15, workers=2, warmup=40, seed=5
        )
        cold = run_load(StubClient(), USERS, EVENTS, base)
        warm = run_load(StubClient(), USERS, EVENTS, warmed)
        assert warm.requests == cold.requests
        assert warm.ops == cold.ops
        assert [r.op for r in warm.records] == [r.op for r in cold.records]

    def test_format_report_mentions_warmup(self):
        config = LoadgenConfig(
            rate=400.0, duration=0.15, workers=2, warmup=7, seed=5
        )
        report = run_load(StubClient(), USERS, EVENTS, config)
        assert "warmup:        7 requests" in format_report(report)


class TestReportHealth:
    CONFIG = LoadgenConfig(rate=400.0, duration=0.15, workers=2, seed=5)

    def test_disabled_registry_yields_no_health(self):
        report = run_load(StubClient(), USERS, EVENTS, self.CONFIG)
        assert report.health is None
        assert report.as_dict()["health"] is None

    def test_enabled_registry_yields_verdict_and_gauges(self):
        with use_registry(MetricsRegistry()) as registry:
            report = run_load(
                StubClient(), USERS, EVENTS, self.CONFIG, registry=registry
            )
            snapshot = {
                (r["name"], r["tags"].get("stat")): r
                for r in registry.snapshot()
            }
        assert report.health is not None
        assert [slo.name for slo in report.health.slos] == [
            spec.name for spec in default_serving_slos()
        ]
        p99 = snapshot[("repro_loadgen_latency_seconds", "p99")]
        assert p99["value"] == pytest.approx(report.latency["p99"])
        assert ("repro_loadgen_achieved_rps", None) in snapshot
        assert ("repro_health_ok", None) in snapshot
        # No server shares the stub's registry, so no cache/drift
        # metrics: those SLOs read "missing", which must flip the
        # verdict unhealthy.
        assert not report.health.healthy
        assert "cache_hit_rate" in report.health.breached()


class TestServingMode:
    """A real end-to-end run against the threaded batched server."""

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
            client = HttpServiceClient(hosted.host, hosted.port)
            try:
                report = run_load(
                    client,
                    [user.user_id for user in users],
                    [event.event_id for event in events],
                    config,
                )
            finally:
                client.close()
        assert report.requests > 0
        assert report.ops.get("rank", 0) > 0
        assert report.pool_size == 20
