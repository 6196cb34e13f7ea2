"""HTTP server behaviour: routing, parity, coalescing, drain.

The heavyweight fixtures are module-scoped: one synthetic warmed
service and one running ``ThreadedServer`` shared by every read-only
test.  Tests that need privileged server state (draining, a cold
cache) build their own small stacks.

The batcher has no window to widen, so tests that need requests to
share a flush put a gate on the service call (:func:`one_flush_of`):
whatever arrives while the runner is parked is the next flush.
"""

import asyncio
import contextlib
import dataclasses
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.loadgen import build_synthetic_service
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.serving import (
    HttpServiceClient,
    ServerError,
    ServingServer,
    ThreadedServer,
)
from repro.serving.http import HttpError, HttpRequest
from repro.text.documents import DocumentEncoder
from tests.reference import rank_events_loop

POOL_SIZE = 40
TIMEOUT = 10.0


@pytest.fixture(scope="module")
def stack():
    service, users, events = build_synthetic_service(seed=3, pool_size=POOL_SIZE)
    registry = MetricsRegistry()
    server = ServingServer(service, users, events, registry=registry)
    with ThreadedServer(server) as hosted:
        client = HttpServiceClient(hosted.host, hosted.port)
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


def recommend(hosted, payload):
    """One /recommend on a connection of its own; its ``results`` list."""
    client = HttpServiceClient(hosted.host, hosted.port)
    try:
        return client.request("POST", "/recommend", payload)["results"]
    finally:
        client.close()


def flush_stats(server):
    """``(requests enqueued, flushes, requests flushed)`` so far, read
    from the batcher's own histograms."""
    found = {record["name"]: record for record in server.registry.snapshot()}
    depth = found.get("repro_serving_batch_queue_depth", {"count": 0})
    users = found.get("repro_serving_batch_users", {"count": 0, "sum": 0.0})
    return depth["count"], users["count"], users["sum"]


@contextlib.contextmanager
def one_flush_of(server, hosted, count, primer):
    """Make the ``count`` /recommend requests the block starts share a flush.

    A primer request for the (warm) user ``primer`` is parked inside
    ``service.rank_events``; the block's requests therefore queue
    behind a busy runner, and on exit — once all ``count`` are queued —
    the primer is let through and the backlog leaves as one flush.
    """
    service = server.service
    parked, opened = threading.Event(), threading.Event()

    def gated(*args, **kwargs):
        del service.rank_events  # only the primer parks
        parked.set()
        assert opened.wait(TIMEOUT), "gate never opened"
        return service.rank_events(*args, **kwargs)

    service.rank_events = gated
    priming = threading.Thread(
        target=recommend, args=(hosted, {"user_id": primer.user_id, "top_k": 1})
    )
    priming.start()
    try:
        assert parked.wait(TIMEOUT), "primer never reached the service"
        enqueued = flush_stats(server)[0]
        yield
        deadline = time.monotonic() + TIMEOUT
        while flush_stats(server)[0] - enqueued < count:
            assert time.monotonic() < deadline, "requests never queued"
            time.sleep(0.001)
    finally:
        opened.set()
        priming.join()


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


class TestExpectContinue:
    """``Expect: 100-continue`` (curl sends it with larger bodies): the
    client holds its body back until the interim response, or about a
    second."""

    @staticmethod
    def opened(stack, length):
        sock = socket.create_connection(
            (stack["hosted"].host, stack["hosted"].port), timeout=3.0
        )
        sock.sendall(
            b"POST /recommend HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Expect: 100-continue\r\nContent-Length: %d\r\n\r\n" % length
        )
        return sock, sock.makefile("rb")

    def test_interim_response_arrives_before_the_body_is_sent(self, stack):
        body = json.dumps({"user_id": stack["users"][0].user_id, "top_k": 2}).encode()
        sock, reader = self.opened(stack, len(body))
        with sock, reader:
            # Nothing of the body is on the wire yet: at the parent this
            # read timed out.
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(body)
            assert reader.readline() == b"HTTP/1.1 200 OK\r\n"
            headers = {}
            for line in iter(reader.readline, b"\r\n"):
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.lower()] = value.strip()
            reply = json.loads(reader.read(int(headers["content-length"])))
        assert len(reply["results"]) == 2

    def test_refused_length_gets_413_not_100(self, stack):
        sock, reader = self.opened(stack, 5 * 1024 * 1024)
        with sock, reader:
            assert reader.readline().startswith(b"HTTP/1.1 413 ")


class TestTransferEncoding:
    """The framing reads ``Content-Length`` bodies only; a chunked
    request must be refused whole, not read as a bodiless request
    followed by a second one made of its chunk bytes."""

    def test_chunked_request_gets_one_400_and_a_closed_connection(self, stack):
        chunk = json.dumps({"user_id": stack["users"][0].user_id}).encode()
        with socket.create_connection(
            (stack["hosted"].host, stack["hosted"].port), timeout=3.0
        ) as sock:
            sock.sendall(
                b"POST /recommend HTTP/1.1\r\nContent-Type: application/json\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk)
            )
            with sock.makefile("rb") as reader:
                answered = reader.read()  # to EOF: the server must close
        head, _, body = answered.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        # At the parent a second "HTTP/1.1 400" followed this body.
        assert answered.count(b"HTTP/1.1 ") == 1
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"
        assert "Transfer-Encoding" in error["message"]


class TestClientConnections:
    def test_close_closes_every_threads_connection(self, stack):
        """Worker threads cannot close their own keep-alive sockets
        once a run is over; ``close()`` on any thread must."""
        client = HttpServiceClient(stack["hosted"].host, stack["hosted"].port)
        everyone_connected = threading.Barrier(4, timeout=TIMEOUT)
        handles = []

        def worker():
            client.healthz()
            handles.append(client._connection())
            everyone_connected.wait()  # four live threads, four handles

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(TIMEOUT)
        assert len({id(handle) for handle in handles}) == 4
        assert all(handle.sock is not None for handle in handles)
        client.close()
        assert [handle.sock for handle in handles] == [None] * 4


def recommend_shapes(users, events, count):
    """``count`` /recommend payloads mixing pools, ``at_time`` and ``top_k``,
    each with the arguments of the direct call it must equal."""
    cut = sorted(event.starts_at for event in events)[len(events) // 2]
    shapes = []
    for i in range(count):
        user = users[i % len(users)]
        pool = events if i % 3 == 0 else events[(i % 5) :: 2]
        top_k = [None, 1, 3, 7][i % 4]
        at_time = cut if i % 2 else None
        payload = {"user_id": user.user_id, "top_k": top_k}
        if pool is not events:
            payload["event_ids"] = [event.event_id for event in pool]
        if at_time is not None:
            payload["at_time"] = at_time
        shapes.append((payload, (user, pool, at_time, top_k)))
    return shapes


def assert_same_ranking(results, direct):
    """DESIGN §10's contract: identical ids and order, scores within
    1e-9 (a multi-row GEMM differs from the GEMV by an ulp)."""
    assert [r["event_id"] for r in results] == [item.event.event_id for item in direct]
    for got, want in zip(results, direct):
        assert abs(got["score"] - want.score) <= 1e-9


class TestBatchedParity:
    @pytest.mark.threads
    def test_heterogeneous_concurrent_requests_match_sequential(self, stack):
        """The acceptance bar: /recommend requests with different
        pools, ``at_time`` and top-K that share one GEMM flush each get
        the sequential ``rank_events`` answer."""
        server, hosted = stack["server"], stack["hosted"]
        shapes = recommend_shapes(stack["users"], stack["events"], 16)
        _, flushes_before, flushed_before = flush_stats(server)
        with ThreadPoolExecutor(max_workers=len(shapes)) as pool:
            with one_flush_of(server, hosted, len(shapes), stack["users"][0]):
                futures = [pool.submit(recommend, hosted, payload) for payload, _ in shapes]
            served = [future.result(timeout=TIMEOUT) for future in futures]
        for (_, (user, events, at_time, top_k)), results in zip(shapes, served):
            assert_same_ranking(
                results,
                stack["service"].rank_events(user, events, at_time=at_time, top_k=top_k),
            )
        # The primer's flush of one, then all sixteen in one GEMM.
        _, flushes, flushed = flush_stats(server)
        assert (flushes - flushes_before, flushed - flushed_before) == (2, 17.0)

    @pytest.mark.threads
    def test_concurrent_traffic_coalesces_and_reports_metrics(self, stack):
        """Eight free-running clients, nothing gated: the service call
        is only slowed, so a busy runner is what real traffic finds and
        batches form by themselves.  Every answer equals the
        brute-force reference."""
        server, hosted, service = stack["server"], stack["hosted"], stack["service"]
        shapes = recommend_shapes(stack["users"], stack["events"], 48)
        barrier = threading.Barrier(8)

        def slowed(method):
            def call(*args, **kwargs):
                time.sleep(0.002)
                return method(*args, **kwargs)

            return call

        def worker(index):
            barrier.wait(timeout=TIMEOUT)
            return [recommend(hosted, payload) for payload, _ in shapes[index::8]]

        _, flushes_before, flushed_before = flush_stats(server)
        service.rank_events = slowed(service.rank_events)
        service.rank_events_batch = slowed(service.rank_events_batch)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                served = list(pool.map(worker, range(8)))
        finally:
            del service.rank_events, service.rank_events_batch
        for index, answers in enumerate(served):
            for (_, (user, events, at_time, top_k)), results in zip(shapes[index::8], answers):
                assert_same_ranking(
                    results,
                    rank_events_loop(service, user, events, at_time=at_time, top_k=top_k),
                )
        _, flushes, flushed = flush_stats(server)
        assert flushed - flushed_before == len(shapes)
        assert flushes - flushes_before < len(shapes)  # some flush carried > 1
        backlog = [
            record["value"]
            for record in stack["registry"].snapshot()
            if record["name"] == "repro_serving_batch_flush_total"
            and record["tags"] == {"reason": "backlog"}
        ]
        assert backlog and backlog[0] > 0


def tiny_service(tiny_users, tiny_events, warm_users):
    encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
    model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
    service = RepresentationService(model)
    service.warm(warm_users, tiny_events)
    return service


class TestColdUserCoalescing:
    @pytest.mark.threads
    def test_coalesced_cold_user_encoded_once(self, tiny_users, tiny_events):
        """Two (here: six) coalesced requests for the same cold user
        must cost one tower inference and one counted cache miss."""
        cold, primer = tiny_users[0], tiny_users[1]
        service = tiny_service(tiny_users, tiny_events, [primer])  # ``cold`` stays cold
        encode_calls = []
        original = service.model.encode_users

        def counting_encode_users(encoded):
            encode_calls.append(len(encoded))
            return original(encoded)

        service.model.encode_users = counting_encode_users
        server = ServingServer(
            service, tiny_users, tiny_events, registry=MetricsRegistry()
        )
        misses_before = service.cache.stats.misses
        payload = {"user_id": cold.user_id, "top_k": 2}
        with ThreadedServer(server) as hosted:
            with ThreadPoolExecutor(max_workers=6) as pool:
                with one_flush_of(server, hosted, 6, primer):
                    futures = [pool.submit(recommend, hosted, payload) for _ in range(6)]
                served = [future.result(timeout=TIMEOUT) for future in futures]
        # All six shared one flush: identical answers, one user encode,
        # one counted miss.
        assert all(answer == served[0] for answer in served)
        assert sum(encode_calls) == 1
        assert service.cache.stats.misses - misses_before == 1
        assert server.batcher.batches_flushed == 2  # the primer, then the six


class TestActivityWindowSource:
    @pytest.mark.threads
    def test_solo_and_coalesced_flushes_read_the_refreshed_window(
        self, tiny_users, tiny_events
    ):
        """``refresh_events`` moves an event's window in the index; the
        server's own copy of the event keeps the old one.  A size-1
        flush and a coalesced flush must both answer from the index —
        the coalesced one used to ask the server's stale copy."""
        service = tiny_service(tiny_users, tiny_events, tiny_users)
        server = ServingServer(
            service, tiny_users, tiny_events, registry=MetricsRegistry()
        )
        # Event 3 starts at t=44: not active at t=45 until it is postponed.
        postponed = dataclasses.replace(tiny_events[2], starts_at=100.0)
        assert service.refresh_events([postponed]) == 0
        payload = {"user_id": tiny_users[0].user_id, "at_time": 45.0}
        with ThreadedServer(server) as hosted:
            solo = recommend(hosted, payload)
            assert server.batcher.batches_flushed == 1
            with ThreadPoolExecutor(max_workers=4) as pool:
                with one_flush_of(server, hosted, 4, tiny_users[1]):
                    futures = [pool.submit(recommend, hosted, payload) for _ in range(4)]
                coalesced = [future.result(timeout=TIMEOUT) for future in futures]
        assert server.batcher.batches_flushed == 3  # solo, primer, the four together
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
    service = RepresentationService(model)
    with use_registry(MetricsRegistry()) as registry:
        service.warm(tiny_users, tiny_events)
        server = ServingServer(service, tiny_users, tiny_events, registry=registry)
        with ThreadedServer(server) as hosted:
            client = HttpServiceClient(hosted.host, hosted.port)
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
            client.recommend(tiny_users[0].user_id, top_k=2)
            (recommend,) = tracer.traces()
            client.score(tiny_users[0].user_id, tiny_events[0].event_id)
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
