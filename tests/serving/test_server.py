"""HTTP server behaviour: routing, parity, coalescing, drain.

The heavyweight fixtures are module-scoped: one untrained warmed
service and one running ``ThreadedServer`` shared by every read-only
test.  Tests that need privileged server state (draining, a cold
cache) build their own small stacks.

The batcher has no window to widen, so tests that need requests to
share a flush dispatch them in one tick of the server's loop
(:func:`one_flush_of`): a flush is a task that runs after the tick
that started it, so whatever is submitted in that tick is the next
flush.
"""

import asyncio
import dataclasses
import http.client
import json
import re
import socket
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.datagen.config import DataConfig
from repro.datagen.dataset import build_dataset
from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer
from repro.serving.http import HttpError, HttpRequest
from repro.serving.server import ServingServer, ThreadedServer, _RecommendWork
from repro.text.documents import DocumentEncoder
from tests.reference import rank_events_loop

POOL_SIZE = 40
# One ``key="value"`` pair of a Prometheus label set (escapes included).
_LABEL = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')
TIMEOUT = 10.0


@pytest.fixture(scope="module")
def stack():
    """An untrained small service (serving cares about compute shape,
    not model quality) over ``small(3)``'s users and its first
    ``POOL_SIZE`` events, fully warmed."""
    dataset = build_dataset(DataConfig.small(seed=3))
    users = sorted(dataset.users, key=lambda user: user.user_id)
    events = sorted(dataset.events, key=lambda event: event.event_id)[:POOL_SIZE]
    encoder = DocumentEncoder.fit(users, events, min_df=1)
    service = RepresentationService(
        JointUserEventModel(JointModelConfig.small(seed=3), encoder)
    )
    service.warm(users, events)
    registry = MetricsRegistry()
    server = ServingServer(service, users, events, registry=registry)
    with ThreadedServer(server) as hosted:
        yield {
            "service": service,
            "users": users,
            "events": events,
            "server": server,
            "hosted": hosted,
            "registry": registry,
        }


def call(hosted, method, path, body=None):
    """One request on a connection of its own; ``(status, decoded body)``:
    JSON, or text for ``/metrics``.  ``body`` goes out as given, so a
    malformed one reaches the server as it is."""
    connection = http.client.HTTPConnection(hosted.host, hosted.port, timeout=TIMEOUT)
    try:
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    if response.getheader("Content-Type", "").startswith("application/json"):
        return response.status, json.loads(raw)
    return response.status, raw.decode("utf-8")


def post(hosted, path, payload):
    """POST ``payload`` as JSON; the body of the 200 it must get."""
    status, body = call(hosted, "POST", path, json.dumps(payload))
    assert status == 200, body
    return body


def recommend(hosted, payload):
    """One /recommend on a connection of its own; its ``results`` list."""
    return post(hosted, "/recommend", payload)["results"]


def flush_stats(server):
    """``(flushes, requests flushed)`` so far, read from the batcher's
    own histogram."""
    found = {record["name"]: record for record in server.registry.snapshot()}
    users = found.get("repro_serving_batch_users", {"count": 0, "sum": 0.0})
    return users["count"], users["sum"]


def one_flush_of(hosted, primer, payloads):
    """Answer the /recommend ``payloads`` as one flush; their ``results``.

    A request for the (warm) user ``primer`` and then ``payloads`` are
    dispatched in one tick of the server's loop: the primer's flush of
    one has not run when the others submit, so they queue behind it
    and leave together as the next flush.
    """
    server = hosted.server

    async def flush():
        requests = [{"user_id": primer.user_id, "top_k": 1}, *payloads]
        dispatched = [
            asyncio.create_task(
                server.dispatch(
                    HttpRequest("POST", "/recommend", body=json.dumps(body).encode())
                )
            )
            for body in requests
        ]
        return await asyncio.gather(*dispatched)

    answers = asyncio.run_coroutine_threadsafe(flush(), hosted._loop).result(TIMEOUT)
    assert [status for status, _, _ in answers] == [200] * len(answers)
    return [body["results"] for _, body, _ in answers[1:]]


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
        status, body = call(stack["hosted"], "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["users"] == len(stack["users"])
        assert body["events"] == POOL_SIZE

    def test_score_matches_service_exactly(self, stack):
        user = stack["users"][0]
        event = stack["events"][0]
        body = post(
            stack["hosted"], "/score", {"user_id": user.user_id, "event_id": event.event_id}
        )
        assert body["score"] == stack["service"].score(user, event)

    def test_recommend_matches_rank_events_exactly(self, stack):
        user = stack["users"][1]
        body = post(stack["hosted"], "/recommend", {"user_id": user.user_id, "top_k": 5})
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
            stack["hosted"],
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
            stack["hosted"], "/recommend", {"user_id": user.user_id, "at_time": at_time}
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
            stack["hosted"], "/similar-events", {"event_id": seed_event.event_id, "top_k": 2}
        )
        assert len(body["results"]) == 2
        sims = [r["similarity"] for r in body["results"]]
        assert sims == sorted(sims, reverse=True)
        assert all(r["event_id"] != seed_event.event_id for r in body["results"])

    def test_metrics_renders_prometheus_text(self, stack):
        call(stack["hosted"], "GET", "/healthz")  # at least one request counted
        status, text = call(stack["hosted"], "GET", "/metrics")
        assert status == 200
        assert "repro_serving_http_requests_total" in text

    def test_metrics_exposition_is_well_formed_across_every_family(self, stack):
        user, event = stack["users"][0], stack["events"][0]
        recommend(stack["hosted"], {"user_id": user.user_id, "top_k": 2})
        post(stack["hosted"], "/score", {"user_id": user.user_id, "event_id": event.event_id})
        call(stack["hosted"], "GET", "/metrics")
        status, text = call(stack["hosted"], "GET", "/metrics")
        assert status == 200
        kinds: dict[str, str] = {}
        seen = set()
        for line in text.splitlines():
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert name not in kinds, f"second TYPE line for {name}"
                kinds[name] = kind
                continue
            match = re.fullmatch(r"([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)", line)
            assert match, f"not a sample line: {line!r}"
            name, labels = match[1], dict(_LABEL.findall(match[2] or ""))
            family = name if name in kinds else name.rpartition("_")[0]
            assert family in kinds, f"{name} sampled before, or without, its TYPE"
            if kinds[family] == "summary":
                suffix = name[len(family) :]
                assert (suffix == "") == ("quantile" in labels), line
                assert suffix in ("", "_sum", "_count"), line
            else:
                assert name == family and "quantile" not in labels, line
            key = (name, frozenset(labels.items()))
            assert key not in seen, f"sample repeated: {line!r}"
            seen.add(key)
        routes = {
            dict(labels)["route"]
            for name, labels in seen
            if name == "repro_serving_http_request_seconds"
        }
        assert kinds["repro_serving_http_request_seconds"] == "summary"
        assert {"/recommend", "/score", "/metrics"} <= routes


def post_error(stack, payload, path="/recommend"):
    """POST ``payload``; ``(status, error object)`` of the refusal."""
    status, body = call(stack["hosted"], "POST", path, json.dumps(payload))
    return status, body["error"]


class TestErrorContract:
    def test_unknown_user_is_404(self, stack):
        status, error = post_error(stack, {"user_id": 10_000_000})
        assert status == 404
        assert error["code"] == "not_found"

    def test_unknown_event_in_pool_is_422(self, stack):
        user = stack["users"][0]
        status, error = post_error(
            stack, {"user_id": user.user_id, "event_ids": [10_000_000]}
        )
        assert status == 422
        assert "unknown event ids" in str(error["details"])

    @pytest.mark.parametrize("bad_top_k", [0, -3, "five", 2.5, True])
    def test_bad_top_k_is_422_not_500(self, stack, bad_top_k):
        status, error = post_error(
            stack, {"user_id": stack["users"][0].user_id, "top_k": bad_top_k}
        )
        assert status == 422
        assert error["code"] == "validation"

    def test_duplicate_pool_ids_are_422(self, stack):
        first = stack["events"][0].event_id
        status, _ = post_error(
            stack, {"user_id": stack["users"][0].user_id, "event_ids": [first, first]}
        )
        assert status == 422

    @pytest.mark.parametrize(
        "hostile, named",
        [
            ({"user_id": "u" * 1_000_000}, "user_id must be an integer, got 'uuu"),
            ({"event_ids": list(range(10**7, 10**7 + 100_000))}, "(100000 ids)"),
            ({"event_ids": list(range(50_000)) * 2}, "(50000 ids)"),
        ],
        ids=["1MB-user-id", "100k-unknown-ids", "50k-duplicate-ids"],
    )
    def test_a_422_names_hostile_input_in_under_4kb(self, stack, hostile, named):
        payload = {"user_id": stack["users"][0].user_id, **hostile}
        status, body = call(stack["hosted"], "POST", "/recommend", json.dumps(payload))
        assert status == 422
        assert len(json.dumps(body).encode()) < 4096
        assert named in " ".join(body["error"]["details"])

    def test_unknown_route_is_404(self, stack):
        status, _ = call(stack["hosted"], "GET", "/nope")
        assert status == 404

    def test_wrong_method_is_405(self, stack):
        status, _ = call(stack["hosted"], "GET", "/recommend")
        assert status == 405

    def test_bad_json_body_is_400(self, stack):
        status, body = call(stack["hosted"], "POST", "/recommend", "{not json")
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
        status, body = call(stack["hosted"], "POST", "/recommend", hostile)
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "1" + "0" * 400],
        ids=["NaN", "Infinity", "overflowing-int"],
    )
    def test_non_finite_at_time_is_422_over_the_wire(self, stack, literal):
        status, body = call(
            stack["hosted"], "POST", "/recommend", '{"user_id": 0, "at_time": %s}' % literal
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


def to_eof(stack, request):
    """Send raw ``request`` bytes; everything the server answers before
    it closes the connection (a socket timeout if it never does)."""
    with socket.create_connection(
        (stack["hosted"].host, stack["hosted"].port), timeout=3.0
    ) as sock:
        sock.sendall(request)
        with sock.makefile("rb") as reader:
            return reader.read()


class TestTransferEncoding:
    """The framing reads ``Content-Length`` bodies only; a chunked
    request must be refused whole, not read as a bodiless request
    followed by a second one made of its chunk bytes."""

    def test_chunked_request_gets_one_400_and_a_closed_connection(self, stack):
        chunk = json.dumps({"user_id": stack["users"][0].user_id}).encode()
        answered = to_eof(
            stack,
            b"POST /recommend HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Transfer-Encoding: chunked\r\n\r\n"
            b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk),
        )
        head, _, body = answered.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        # At the parent a second "HTTP/1.1 400" followed this body.
        assert answered.count(b"HTTP/1.1 ") == 1
        error = json.loads(body)["error"]
        assert error["code"] == "bad_request"
        assert "Transfer-Encoding" in error["message"]


class TestConnectionFraming:
    def test_conflicting_content_lengths_get_one_400_and_a_closed_connection(
        self, stack
    ):
        body = json.dumps({"user_id": stack["users"][0].user_id}).encode()
        answered = to_eof(
            stack,
            b"POST /recommend HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\nContent-Length: 2\r\n\r\n%s" % (len(body), body),
        )
        # Had the last length won, two bytes would be the body and the
        # rest would wait, as the next request, for the read to time out.
        head, _, reply = answered.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert answered.count(b"HTTP/1.1 ") == 1
        assert "Content-Length" in json.loads(reply)["error"]["message"]

    @pytest.mark.parametrize("length", [b"+7", b"0_7", b"-0"])
    def test_content_length_beyond_digits_gets_one_400_and_a_closed_connection(
        self, stack, length
    ):
        # int() reads these as 7, 7 and 0; RFC 9110 §8.6 allows digits only.
        body = json.dumps({"user_id": stack["users"][0].user_id}).encode()
        answered = to_eof(
            stack,
            b"POST /recommend HTTP/1.1\r\nContent-Type: application/json\r\n"
            b"Content-Length: %s\r\n\r\n%s" % (length, body),
        )
        head, _, reply = answered.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert answered.count(b"HTTP/1.1 ") == 1
        assert "Content-Length" in json.loads(reply)["error"]["message"]

    @pytest.mark.parametrize(
        "request_bytes",
        [
            # RFC 9112 §5.1: no whitespace between field name and colon.
            b"GET /healthz HTTP/1.1\r\nContent-Length : 2\r\n"
            b"Connection: close\r\n\r\n{}",
            # RFC 9112 §5.2: an obs-fold line is not a new field.
            b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
            b" Content-Length: 2\r\n\r\n{}",
            # RFC 9110 §5.1: a field name is a non-empty token.
            b"GET /healthz HTTP/1.1\r\n: x\r\nConnection: close\r\n\r\n",
            b"GET /healthz HTTP/1.1\r\nCon tent-Length: 2\r\n"
            b"Connection: close\r\n\r\n{}",
            # RFC 9112 §2.2: a bare LF another parser may end a line at.
            b"GET /healthz HTTP/1.1\r\nX-Note: a\nContent-Length: 2\r\n"
            b"Connection: close\r\n\r\n{}",
            # RFC 9112 §3: HTTP/DIGIT.DIGIT, a token method, a target.
            b"GET /healthz HTTP/1.banana\r\nConnection: close\r\n\r\n",
            b" /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
            b"GET  HTTP/1.1\r\nConnection: close\r\n\r\n",
        ],
        ids=[
            "space-before-colon",
            "obs-fold",
            "empty-name",
            "space-in-name",
            "bare-lf",
            "version",
            "empty-method",
            "empty-target",
        ],
    )
    def test_malformed_head_gets_one_400_and_a_closed_connection(
        self, stack, request_bytes
    ):
        # Each parsed as a request before: answered 200 (or 404), with
        # the body framed by a length another parser would not see.
        answered = to_eof(stack, request_bytes)
        head, _, _ = answered.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        assert b"Connection: close" in head
        assert answered.count(b"HTTP/1.1 ") == 1

    def test_content_length_past_int_digit_limit_gets_one_413(self, stack):
        # int() refuses more than 4 300 digits with a ValueError, which
        # dropped the connection unanswered.
        answered = to_eof(
            stack,
            b"POST /recommend HTTP/1.1\r\nContent-Length: %s\r\n\r\n"
            % (b"9" * 5000),
        )
        head, _, _ = answered.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 413 ")
        assert b"Connection: close" in head
        assert answered.count(b"HTTP/1.1 ") == 1

    def test_http10_request_without_keep_alive_is_answered_and_closed(self, stack):
        # An HTTP/1.1 default here would answer keep-alive and hold the
        # connection open until the read timed out.
        answered = to_eof(stack, b"GET /healthz HTTP/1.0\r\n\r\n")
        head, _, body = answered.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 ")
        assert b"Connection: close" in head
        assert json.loads(body)["status"] == "ok"

    @pytest.mark.parametrize(
        "version, connection, kept",
        [
            ("HTTP/1.1", None, True),
            ("HTTP/1.1", "close", False),
            ("HTTP/1.0", None, False),
            ("HTTP/1.0", "Keep-Alive", True),
        ],
    )
    def test_keep_alive_follows_the_version_default(self, version, connection, kept):
        headers = {} if connection is None else {"connection": connection}
        request = HttpRequest("GET", "/healthz", headers=headers, version=version)
        assert request.keep_alive is kept


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
        flushes_before, flushed_before = flush_stats(server)
        served = one_flush_of(
            hosted, stack["users"][0], [payload for payload, _ in shapes]
        )
        for (_, (user, events, at_time, top_k)), results in zip(shapes, served):
            assert_same_ranking(
                results,
                stack["service"].rank_events(user, events, at_time=at_time, top_k=top_k),
            )
        # The primer's flush of one, then all sixteen in one GEMM.
        flushes, flushed = flush_stats(server)
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

        flushes_before, flushed_before = flush_stats(server)
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
        flushes, flushed = flush_stats(server)
        assert flushed - flushed_before == len(shapes)
        assert flushes - flushes_before < len(shapes)  # some flush carried > 1
        backlog = [
            record["value"]
            for record in stack["registry"].snapshot()
            if record["name"] == "repro_serving_batch_flush_total"
            and record["tags"] == {"reason": "backlog"}
        ]
        assert backlog and backlog[0] > 0


NAN = float("nan")  # one object, so requests naming it share a group

FLUSHES = st.lists(
    st.tuples(
        st.integers(0, 2),  # few users: repeats are common
        st.one_of(
            st.sampled_from(["all", "evens", "head", "none"]),
            st.frozensets(st.integers(0, POOL_SIZE - 1), max_size=8),
        ),
        st.one_of(st.sampled_from([None, NAN, "cut"]), st.floats(0.0, 2000.0)),
        st.sampled_from([None, 1, 3]),
    ),
    min_size=1,
    max_size=8,
)


class TestGroupedFlush:
    @settings(max_examples=60, deadline=None)
    @given(requests=FLUSHES)
    def test_every_answer_is_a_lone_rank_events(self, stack, requests):
        """Any flush — pools (the served pool included), times (``None``
        and NaN included), ``top_k`` (``None`` included), repeated users
        — answers each request with what a lone ``rank_events`` on its
        own pool returns: ids in order and scores within 1e-9, bit for
        bit when its ``(pool, at_time, top_k)`` is the flush's only one."""
        service, users, events = stack["service"], stack["users"], stack["events"]
        server = ServingServer(service, users, events, registry=MetricsRegistry())
        cut = sorted(event.starts_at for event in events)[len(events) // 2]

        def pool_ids(pool):
            if pool == "all":
                return None
            named = {"evens": range(0, POOL_SIZE, 2), "head": range(5), "none": ()}
            return tuple(sorted(events[i].event_id for i in named.get(pool, pool)))

        work = [
            _RecommendWork(
                users[user], pool_ids(pool), cut if at_time == "cut" else at_time, top_k
            )
            for user, pool, at_time, top_k in requests
        ]
        shapes = Counter((w.pool_ids, w.at_time, w.top_k) for w in work)
        for w, got in zip(work, server._recommend_batch(work)):
            lone = service.rank_events(
                w.user, server._pool_events(w.pool_ids), at_time=w.at_time, top_k=w.top_k
            )
            if shapes[w.pool_ids, w.at_time, w.top_k] == 1:
                assert [(s.event.event_id, s.score) for s in got] == [
                    (s.event.event_id, s.score) for s in lone
                ]
            assert [s.event.event_id for s in got] == [s.event.event_id for s in lone]
            for have, want in zip(got, lone):
                assert abs(have.score - want.score) <= 1e-9

    def test_each_shape_is_one_service_call(self, stack, monkeypatch):
        service, users, events = stack["service"], stack["users"], stack["events"]
        server = ServingServer(service, users, events, registry=MetricsRegistry())
        calls = []

        def spy(name):
            method = getattr(service, name)

            def call(ranked, *args, **kwargs):
                calls.append((name, ranked if name == "rank_events_batch" else [ranked]))
                return method(ranked, *args, **kwargs)

            return call

        for name in ("rank_events", "rank_events_batch"):
            monkeypatch.setattr(service, name, spy(name))
        full, sub = (None, None, 3), (tuple(sorted(e.event_id for e in events[:6])), None, 3)
        timed = (None, 40.0, 3)
        shapes = [full, sub, full, timed, full]
        server._recommend_batch(
            [_RecommendWork(users[i], *shape) for i, shape in enumerate(shapes)]
        )
        assert calls == [
            ("rank_events_batch", [users[0], users[2], users[4]]),
            ("rank_events", [users[1]]),
            ("rank_events", [users[3]]),
        ]


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
            served = one_flush_of(hosted, primer, [payload] * 6)
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
            coalesced = one_flush_of(hosted, tiny_users[1], [payload] * 4)
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
            yield {"hosted": hosted, "registry": registry}


class TestObservability:
    def test_metrics_survives_a_raising_collector(self, tiny_stack):
        def broken(registry):
            raise RuntimeError("collector bug")

        tiny_stack["registry"].register_collector("broken", broken)
        for _ in range(2):  # the second scrape is the one that used to 500
            status, text = call(tiny_stack["hosted"], "GET", "/metrics")
            assert status == 200
        assert 'repro_obs_collector_errors_total{collector="broken"} 2' in text
        assert "repro_serving_http_requests_total" in text

    def test_one_request_is_one_trace_on_the_loops_thread(
        self, tiny_stack, tiny_users, tiny_events
    ):
        """A /recommend flush and a /score run on the loop: one trace
        each, and no hop to another thread anywhere in it."""
        hosted = tiny_stack["hosted"]
        with use_tracer(Tracer()) as tracer:
            post(hosted, "/recommend", {"user_id": tiny_users[0].user_id, "top_k": 2})
            (recommend,) = tracer.traces()
            post(
                hosted,
                "/score",
                {"user_id": tiny_users[0].user_id, "event_id": tiny_events[0].event_id},
            )
            (score,) = [t for t in tracer.traces() if t is not recommend]
        for trace, inner in (
            (recommend, "repro_index_gemv"),
            (score, "repro_serving_score"),
        ):
            assert trace.root_name == "repro_serving_http_request"
            worker = trace.span_named(inner)
            assert worker is not None, [r.name for r in trace.spans]
            assert worker.path.startswith("repro_serving_http_request/")
            assert {record.thread for record in trace.spans} == {trace.spans[-1].thread}


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
