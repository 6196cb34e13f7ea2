"""HTTP server behaviour: routing, parity, coalescing, drain.

The heavyweight fixtures are module-scoped: one synthetic warmed
service and one running ``ThreadedServer`` shared by every read-only
test.  Tests that need privileged server state (draining, a cold
cache) build their own small stacks.
"""

import asyncio
import dataclasses
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.loadgen import build_synthetic_service
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer, use_tracer
from repro.serving import (
    HttpServiceClient,
    ServerError,
    ServingServer,
    ThreadedServer,
)
from repro.serving.http import HttpError, HttpRequest
from repro.text.documents import DocumentEncoder

POOL_SIZE = 40


@pytest.fixture(scope="module")
def stack():
    service, users, events = build_synthetic_service(seed=3, pool_size=POOL_SIZE)
    registry = MetricsRegistry()
    server = ServingServer(
        service, users, events, window_seconds=0.02, registry=registry
    )
    with ThreadedServer(server) as hosted:
        client = HttpServiceClient(
            hosted.host, hosted.port, full_pool_size=POOL_SIZE
        )
        yield {
            "service": service,
            "users": users,
            "events": events,
            "server": server,
            "hosted": hosted,
            "client": client,
            "registry": registry,
        }
        client.close()


def post(stack, path, payload):
    return stack["client"].request("POST", path, payload)


def raw_post(stack, path, body: str):
    """POST a raw (possibly malformed) body; ``(status, decoded JSON)``."""
    import http.client

    connection = http.client.HTTPConnection(
        stack["hosted"].host, stack["hosted"].port, timeout=10.0
    )
    try:
        connection.request(
            "POST", path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestHttpRequestJson:
    @pytest.mark.parametrize(
        "body",
        [
            b"{not json",
            b"\xff\xfe",  # not UTF-8
            b"[" * 100_000,  # RecursionError inside json.loads
            b'{"user_id": ' + b"9" * 5_000 + b"}",  # int-digit-limit ValueError
        ],
        ids=["syntax", "encoding", "deep-nesting", "huge-integer"],
    )
    def test_undecodable_body_is_http_400(self, body):
        with pytest.raises(HttpError) as caught:
            HttpRequest(method="POST", path="/recommend", body=body).json()
        assert caught.value.status == 400


class TestEndpoints:
    def test_healthz_reports_counts(self, stack):
        body = stack["client"].healthz()
        assert body["status"] == "ok"
        assert body["users"] == len(stack["users"])
        assert body["events"] == POOL_SIZE

    def test_score_matches_service_exactly(self, stack):
        user = stack["users"][0]
        event = stack["events"][0]
        body = post(
            stack, "/score", {"user_id": user.user_id, "event_id": event.event_id}
        )
        assert body["score"] == stack["service"].score(user, event)

    def test_recommend_matches_rank_events_exactly(self, stack):
        user = stack["users"][1]
        body = post(stack, "/recommend", {"user_id": user.user_id, "top_k": 5})
        direct = stack["service"].rank_events(
            user, stack["events"], top_k=5
        )
        assert [(r["event_id"], r["score"]) for r in body["results"]] == [
            (item.event.event_id, item.score) for item in direct
        ]

    def test_recommend_with_pool_subset(self, stack):
        user = stack["users"][2]
        pool = [event.event_id for event in stack["events"][:7]]
        body = post(
            stack,
            "/recommend",
            {"user_id": user.user_id, "event_ids": pool, "top_k": 3},
        )
        direct = stack["service"].rank_events(
            user, stack["events"][:7], top_k=3
        )
        assert [(r["event_id"], r["score"]) for r in body["results"]] == [
            (item.event.event_id, item.score) for item in direct
        ]

    def test_recommend_respects_at_time(self, stack):
        user = stack["users"][0]
        at_time = stack["events"][0].starts_at + 1.0  # some events inactive
        body = post(
            stack, "/recommend", {"user_id": user.user_id, "at_time": at_time}
        )
        direct = stack["service"].rank_events(
            user, stack["events"], at_time=at_time
        )
        assert [r["event_id"] for r in body["results"]] == [
            item.event.event_id for item in direct
        ]
        assert len(body["results"]) < POOL_SIZE

    def test_similar_events(self, stack):
        seed_event = stack["events"][0]
        body = post(
            stack, "/similar-events", {"event_id": seed_event.event_id, "top_k": 2}
        )
        assert len(body["results"]) == 2
        sims = [r["similarity"] for r in body["results"]]
        assert sims == sorted(sims, reverse=True)
        assert all(r["event_id"] != seed_event.event_id for r in body["results"])

    def test_metrics_renders_prometheus_text(self, stack):
        stack["client"].healthz()  # ensure at least one request counted
        text = stack["client"].metrics()
        assert "repro_serving_http_requests_total" in text


class TestErrorContract:
    def test_unknown_user_is_404(self, stack):
        with pytest.raises(ServerError) as caught:
            post(stack, "/recommend", {"user_id": 10_000_000})
        assert caught.value.status == 404
        assert caught.value.envelope["error"]["code"] == "not_found"

    def test_unknown_event_in_pool_is_422(self, stack):
        user = stack["users"][0]
        with pytest.raises(ServerError) as caught:
            post(
                stack,
                "/recommend",
                {"user_id": user.user_id, "event_ids": [10_000_000]},
            )
        assert caught.value.status == 422
        assert "unknown event ids" in str(
            caught.value.envelope["error"]["details"]
        )

    @pytest.mark.parametrize("bad_top_k", [0, -3, "five", 2.5, True])
    def test_bad_top_k_is_422_not_500(self, stack, bad_top_k):
        with pytest.raises(ServerError) as caught:
            post(
                stack,
                "/recommend",
                {"user_id": stack["users"][0].user_id, "top_k": bad_top_k},
            )
        assert caught.value.status == 422
        assert caught.value.envelope["error"]["code"] == "validation"

    def test_duplicate_pool_ids_are_422(self, stack):
        first = stack["events"][0].event_id
        with pytest.raises(ServerError) as caught:
            post(
                stack,
                "/recommend",
                {"user_id": stack["users"][0].user_id, "event_ids": [first, first]},
            )
        assert caught.value.status == 422

    def test_unknown_route_is_404(self, stack):
        with pytest.raises(ServerError) as caught:
            stack["client"].request("GET", "/nope")
        assert caught.value.status == 404

    def test_wrong_method_is_405(self, stack):
        with pytest.raises(ServerError) as caught:
            stack["client"].request("GET", "/recommend")
        assert caught.value.status == 405

    def test_bad_json_body_is_400(self, stack):
        status, body = raw_post(stack, "/recommend", "{not json")
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize(
        "hostile",
        [
            "[" * 100_000,  # RecursionError inside json.loads
            '{"user_id": ' + "9" * 5_000 + "}",  # int-digit-limit ValueError
        ],
        ids=["deep-nesting", "huge-integer"],
    )
    def test_hostile_json_body_is_400_not_500(self, stack, hostile):
        status, body = raw_post(stack, "/recommend", hostile)
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "1" + "0" * 400],
        ids=["NaN", "Infinity", "overflowing-int"],
    )
    def test_non_finite_at_time_is_422_over_the_wire(self, stack, literal):
        status, body = raw_post(
            stack, "/recommend", '{"user_id": 0, "at_time": %s}' % literal
        )
        assert status == 422
        assert body["error"]["code"] == "validation"
        assert "at_time must be a finite number" in body["error"]["details"]


class TestBatchedParity:
    @pytest.mark.threads
    def test_heterogeneous_concurrent_requests_match_sequential(self, stack):
        """The acceptance bar: concurrent /recommend requests with
        different top-K and pools coalesce into shared GEMM batches,
        and every served ranking equals the sequential ``rank_events``
        answer — same ids in the same (tie-broken) order, scores
        within 1e-9."""
        service, users, events = (
            stack["service"],
            stack["users"],
            stack["events"],
        )
        shapes = []
        for i in range(16):
            user = users[i % len(users)]
            if i % 3 == 0:
                pool = events
                pool_ids = None
            else:
                pool = events[(i % 5) :: 2]
                pool_ids = [event.event_id for event in pool]
            top_k = [None, 1, 3, 7][i % 4]
            shapes.append((user, pool, pool_ids, top_k))

        def issue(shape):
            user, _pool, pool_ids, top_k = shape
            payload = {"user_id": user.user_id, "top_k": top_k}
            if pool_ids is not None:
                payload["event_ids"] = pool_ids
            client = HttpServiceClient(
                stack["hosted"].host,
                stack["hosted"].port,
                full_pool_size=POOL_SIZE,
            )
            try:
                return client.request("POST", "/recommend", payload)["results"]
            finally:
                client.close()

        flushed_before = stack["server"].batcher.batches_flushed
        with ThreadPoolExecutor(max_workers=8) as pool:
            served = list(pool.map(issue, shapes))

        for shape, results in zip(shapes, served):
            user, pool_events, _pool_ids, top_k = shape
            direct = service.rank_events(user, pool_events, top_k=top_k)
            assert [r["event_id"] for r in results] == [
                item.event.event_id for item in direct
            ]
            for got, want in zip(results, direct):
                assert abs(got["score"] - want.score) <= 1e-9
        # The traffic actually exercised the batch path (coalesced).
        batcher = stack["server"].batcher
        flushes = batcher.batches_flushed - flushed_before
        assert flushes >= 1
        assert flushes < len(shapes)  # at least one multi-request batch

    @pytest.mark.threads
    def test_concurrent_traffic_coalesces_and_reports_metrics(self, stack):
        def hammer(i):
            client = HttpServiceClient(
                stack["hosted"].host,
                stack["hosted"].port,
                full_pool_size=POOL_SIZE,
            )
            try:
                for _ in range(3):
                    client.rank_events(
                        stack["users"][i % len(stack["users"])],
                        stack["events"],
                        top_k=3,
                    )
            finally:
                client.close()

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(hammer, range(6)))
        [histogram] = [
            record
            for record in stack["registry"].snapshot()
            if record["name"] == "repro_serving_batch_users"
        ]
        assert histogram["count"] >= 1
        assert histogram["sum"] / histogram["count"] > 1.0  # mean batch > 1


class TestColdUserCoalescing:
    @pytest.mark.threads
    def test_coalesced_cold_user_encoded_once(self, tiny_users, tiny_events):
        """Two (here: six) concurrent requests for the same cold user
        must cost one tower inference and one counted cache miss."""
        encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        service = RepresentationService(model)
        service.warm([], tiny_events)  # events warm; the user stays cold
        encode_calls = []
        original = model.encode_users

        def counting_encode_users(encoded):
            encode_calls.append(len(encoded))
            return original(encoded)

        model.encode_users = counting_encode_users
        registry = MetricsRegistry()
        server = ServingServer(
            service,
            tiny_users,
            tiny_events,
            window_seconds=0.1,  # wide: all requests join one batch
            registry=registry,
        )
        cold = tiny_users[0]
        barrier = threading.Barrier(6)

        def issue(host, port):
            client = HttpServiceClient(host, port, full_pool_size=len(tiny_events))
            try:
                barrier.wait(timeout=10.0)
                return client.rank_events(cold, tiny_events, top_k=2)
            finally:
                client.close()

        misses_before = service.cache.stats.misses
        with ThreadedServer(server) as hosted:
            with ThreadPoolExecutor(max_workers=6) as pool:
                served = [
                    future.result()
                    for future in [
                        pool.submit(issue, hosted.host, hosted.port)
                        for _ in range(6)
                    ]
                ]
        # All six answers identical, one user encode, one counted miss.
        assert all(answer == served[0] for answer in served)
        assert sum(encode_calls) == 1
        assert service.cache.stats.misses - misses_before == 1
        assert server.batcher.batches_flushed == 1


class TestActivityWindowSource:
    @pytest.mark.threads
    def test_solo_and_coalesced_flushes_read_the_refreshed_window(
        self, tiny_users, tiny_events
    ):
        """``refresh_events`` moves an event's window in the index; the
        server's own copy of the event keeps the old one.  A size-1
        flush and a coalesced flush must both answer from the index —
        the coalesced one used to ask the server's stale copy."""
        encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        service = RepresentationService(model)
        service.warm(tiny_users, tiny_events)
        server = ServingServer(
            service,
            tiny_users,
            tiny_events,
            window_seconds=0.1,  # wide: concurrent requests share a flush
            registry=MetricsRegistry(),
        )
        # Event 3 starts at t=44: not active at t=45 until it is postponed.
        postponed = dataclasses.replace(tiny_events[2], starts_at=100.0)
        assert service.refresh_events([postponed]) == 0
        payload = {"user_id": tiny_users[0].user_id, "at_time": 45.0}
        barrier = threading.Barrier(4)

        def issue(host, port, wait):
            client = HttpServiceClient(host, port, full_pool_size=len(tiny_events))
            try:
                if wait:
                    barrier.wait(timeout=10.0)
                return client.request("POST", "/recommend", payload)["results"]
            finally:
                client.close()

        with ThreadedServer(server) as hosted:
            solo = issue(hosted.host, hosted.port, wait=False)
            assert server.batcher.batches_flushed == 1
            with ThreadPoolExecutor(max_workers=4) as pool:
                coalesced = [
                    future.result()
                    for future in [
                        pool.submit(issue, hosted.host, hosted.port, True)
                        for _ in range(4)
                    ]
                ]
        assert server.batcher.batches_flushed == 2  # the four shared one flush
        assert sorted(item["event_id"] for item in solo) == [1, 2, 3]
        for answer in coalesced:
            assert [item["event_id"] for item in answer] == [
                item["event_id"] for item in solo
            ]
            for got, want in zip(answer, solo):
                assert abs(got["score"] - want["score"]) <= 1e-9


@pytest.fixture()
def tiny_stack(tiny_users, tiny_events):
    """A private live server: tests that install tracers or break
    collectors must not share the module-wide registry."""
    encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
    model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
    registry = MetricsRegistry()
    service = RepresentationService(model, registry=registry)
    service.warm(tiny_users, tiny_events)
    server = ServingServer(service, tiny_users, tiny_events, registry=registry)
    with ThreadedServer(server) as hosted:
        client = HttpServiceClient(
            hosted.host, hosted.port, full_pool_size=len(tiny_events)
        )
        yield {"client": client, "registry": registry}
        client.close()


class TestObservability:
    def test_metrics_survives_a_raising_collector(self, tiny_stack):
        def broken(registry):
            raise RuntimeError("collector bug")

        tiny_stack["registry"].register_collector("broken", broken)
        for _ in range(2):  # the second scrape is the one that used to 500
            text = tiny_stack["client"].metrics()  # ServerError unless 200
        assert 'repro_obs_collector_errors_total{collector="broken"} 2' in text
        assert "repro_serving_http_requests_total" in text

    def test_one_request_is_one_trace_across_the_executor_hop(
        self, tiny_stack, tiny_users, tiny_events
    ):
        client = tiny_stack["client"]
        with use_tracer(Tracer()) as tracer:
            client.rank_events(tiny_users[0], tiny_events, top_k=2)
            (recommend,) = tracer.traces()
            client.score(tiny_users[0], tiny_events[0])
            (score,) = [t for t in tracer.traces() if t is not recommend]
        for trace, inner in (
            (recommend, "repro_index_gemv"),
            (score, "repro_serving_score"),
        ):
            assert trace.root_name == "repro_serving_http_request"
            worker = trace.span_named(inner)
            assert worker is not None, [r.name for r in trace.spans]
            assert worker.path.startswith("repro_serving_http_request/")
            assert worker.thread != trace.spans[-1].thread  # it did hop


class TestLifecycle:
    def test_draining_healthz_is_503_and_recommend_rejected(
        self, tiny_users, tiny_events
    ):
        encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        service = RepresentationService(model)
        service.warm(tiny_users, tiny_events)
        server = ServingServer(service, tiny_users, tiny_events)

        async def scenario():
            await server.shutdown()
            health = await server.dispatch(
                HttpRequest(method="GET", path="/healthz")
            )
            recommend = await server.dispatch(
                HttpRequest(
                    method="POST",
                    path="/recommend",
                    body=json.dumps(
                        {"user_id": tiny_users[0].user_id}
                    ).encode(),
                )
            )
            return health, recommend

        (h_status, h_body, _), (r_status, r_body, _) = asyncio.run(scenario())
        assert h_status == 503
        assert h_body["error"]["code"] == "unavailable"
        assert r_status == 503
        assert r_body["error"]["code"] == "unavailable"

    def test_internal_error_is_500_envelope(self, tiny_users, tiny_events):
        encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        service = RepresentationService(model)
        server = ServingServer(service, tiny_users, tiny_events)
        server.score = None  # break the handler wiring

        async def scenario():
            return await server.dispatch(
                HttpRequest(
                    method="POST",
                    path="/score",
                    body=json.dumps(
                        {
                            "user_id": tiny_users[0].user_id,
                            "event_id": tiny_events[0].event_id,
                        }
                    ).encode(),
                )
            )

        status, body, _ = asyncio.run(scenario())
        assert status == 500
        assert body["error"]["code"] == "internal"
