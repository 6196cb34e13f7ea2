"""``http_recommend``: the serving process over real sockets.

The server runs in its own process (``bench/http_server.py``: the
common stack behind ``ServingServer`` + ``ThreadedServer``, default 3 ms
batching window, ``max_batch`` 32) over a warmed 2 000-event pool.  The
generator is this process: ``min(4, nproc)`` threads, each with one
keep-alive ``http.client`` connection.  Mix: 70 % ``/recommend`` over
the full pool, 20 % ``/recommend`` with 200 explicit ``event_ids`` and
an ``at_time``, 10 % ``/score``; ``top_k`` is 10.

* Phase A, open loop: Poisson arrivals at 60 requests/s, latency from
  the *scheduled* send time.  Flushes are mostly solo: the batching
  window and the size-1 fast path.
* Phase B, closed loop: every connection sends its next request when
  the previous one is answered, no think time.  Flushes coalesce: the
  union-pool batch path.

Why it exists: the only workload where ``serving.http``, ``schemas``,
``batcher``, ``server`` and JSON do most of the work; the index does
little (a 2 000-row GEMV takes microseconds).
"""

from __future__ import annotations

import http.client
import json
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Any, NamedTuple

from bench.checks import Answer, Oracle, check_shape
from bench.env import BENCH_DIR, connections, pin
from bench.keep_awake import cpus_kept_awake
from bench.layers import batcher_waits, in_window, span_metrics, store_metrics
from bench.plans import SUBPOOL_SIZE, TOP_K, http_closed_plan, http_open_plan
from bench.stack import POOL_SIZES, Stack, build_stack
from bench.hostspeed import RANKING, SAMPLE_EVERY_S, HostSpeed
from bench.stats import (
    WINDOWS,
    at_nominal_speed,
    overhead_pct,
    percentile,
    rate_at_nominal_speed,
    windows,
)
from bench.tracing import REQUEST_HEADER, SENT_HEADER, Bill, Span
from bench.workloads.base import Outcome, RunContext, Tally, oracle_sample

OPEN_SHARE = 0.4
WARMUP_SECONDS = {"full": 1.0, "quick": 0.2}
REQUEST_TIMEOUT_S = 10.0


class Sample(NamedTuple):
    """One answered request, as the generator saw it."""

    request: int
    kind: str
    due: float
    sent: float
    done: float
    bytes_out: int
    bytes_in: int


class ServerProcess:
    """The serving process and the line protocol on its pipes."""

    def __init__(self, scale: str, pool: int) -> None:
        self.process = subprocess.Popen(
            [
                sys.executable,
                str(BENCH_DIR / "http_server.py"),
                "--scale", scale,
                "--pool", str(pool),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.process.stdin is None or self.process.stdout is None:
            raise RuntimeError("serving process started without pipes")
        self.stdin, self.stdout = self.process.stdin, self.process.stdout
        self.ready: dict[str, Any] = {}

    def _read(self, event: str) -> dict[str, Any]:
        line = self.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serving process ended (code {self.process.poll()}) before {event!r}"
            )
        message = json.loads(line)
        if message.get("event") != event:
            raise RuntimeError(f"serving process said {message!r}, expected {event!r}")
        return message

    def _write(self, command: str) -> None:
        self.stdin.write(command + "\n")
        self.stdin.flush()

    def wait_ready(self) -> dict[str, Any]:
        self.ready = self._read("ready")
        return self.ready

    def trace_on(self) -> None:
        self._write("trace_on")
        self._read("tracing")

    def stop(self) -> dict[str, Any]:
        """Ask for a drain; returns the exit report."""
        self._write("stop")
        report = self._read("exit")
        self.process.wait(timeout=60.0)
        return report

    def kill(self) -> None:
        """Last resort on an error path: never leave the process behind."""
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=60.0)
        self.stdin.close()
        self.stdout.close()


class Generator:
    """Turns plan entries into requests, sends them, checks answers."""

    def __init__(
        self, stack: Stack, seed: int, address: tuple[str, int], host: HostSpeed
    ) -> None:
        self.stack = stack
        self.seed = seed
        self.address = address
        self.host = host
        self.oracle = Oracle(stack.user_vectors, stack.event_vectors)
        self.pool_ids = [event.event_id for event in stack.pool]
        self.sample = oracle_sample(seed, 2)
        self.next_request = 0
        self.lock = threading.Lock()
        self.tally = Tally()
        self.sampled: list[tuple[int, list[int], Answer]] = []
        world = stack.world
        self.total_hours = world.dataset.config.total_hours
        self.lanes = [
            [
                self.prepare(spec)
                for spec in http_closed_plan(
                    seed, len(world.users), len(stack.pool), self.total_hours, lane
                )
            ]
            for lane in range(connections())
        ]

    def prepare(self, spec: dict[str, Any]) -> dict[str, Any]:
        """Resolve positions to ids and work out what a right answer
        looks like, ahead of the timed loop."""
        users, pool = self.stack.world.users, self.stack.pool
        user_id = users[spec["user"]].user_id
        if spec["kind"] == "score":
            event_id = pool[spec["event"]].event_id
            return {
                "kind": "score",
                "path": "/score",
                "payload": {"user_id": user_id, "event_id": event_id},
                "due": spec.get("due", 0.0),
            }
        payload: dict[str, Any] = {"user_id": user_id, "top_k": TOP_K}
        candidates = self.pool_ids
        if spec["kind"] == "subpool":
            chosen = [pool[position] for position in spec["events"]]
            payload["event_ids"] = [event.event_id for event in chosen]
            payload["at_time"] = spec["at_time"]
            candidates = [e.event_id for e in chosen if e.is_active(spec["at_time"])]
        return {
            "kind": spec["kind"],
            "path": "/recommend",
            "payload": payload,
            "candidates": candidates,
            "due": spec.get("due", 0.0),
        }

    def exchange(
        self, connection: http.client.HTTPConnection, request: dict[str, Any], due: float
    ) -> tuple[Sample | None, str | None, Any]:
        """One request on one connection: ``(sample, problem, body)``."""
        with self.lock:
            number = self.next_request
            self.next_request += 1
        sent = time.perf_counter()
        body = json.dumps(request["payload"]).encode()
        try:
            connection.request(
                "POST",
                request["path"],
                body=body,
                headers={
                    "Content-Type": "application/json",
                    SENT_HEADER: repr(sent),
                    REQUEST_HEADER: str(number),
                },
            )
            response = connection.getresponse()
            raw = response.read()
            decoded = json.loads(raw)
        except (OSError, http.client.HTTPException, ValueError) as error:
            connection.close()
            problem = f"request {number} {request['path']}: {type(error).__name__}: {error}"
            return None, problem, None
        done = time.perf_counter()
        if response.status != 200:
            return None, f"request {number} {request['path']}: status {response.status}", None
        sample = Sample(number, request["kind"], due, sent, done, len(body), len(raw))
        return sample, None, decoded

    def verify(self, request: dict[str, Any], number: int, decoded: Any, tally: Tally) -> None:
        payload = request["payload"]
        if request["kind"] == "score":
            tally.record(
                self.oracle.check_score(payload["user_id"], payload["event_id"], decoded["score"])
            )
            return
        answer = [(item["event_id"], item["score"]) for item in decoded["results"]]
        tally.record(check_shape(answer, min(TOP_K, len(request["candidates"]))))
        if number in self.sample:
            with self.lock:
                self.sampled.append((payload["user_id"], request["candidates"], answer))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(*self.address, timeout=REQUEST_TIMEOUT_S)

    # -- phases --------------------------------------------------------

    def open_loop(self, seconds: float) -> tuple[list[Sample], tuple[float, float]]:
        """Poisson arrivals; workers take the next due request in turn."""
        plan = [
            self.prepare(spec)
            for spec in http_open_plan(
                self.seed,
                len(self.stack.world.users),
                len(self.stack.pool),
                self.total_hours,
                seconds,
            )
        ]
        cursor = iter(plan)
        cursor_lock = threading.Lock()
        began = time.perf_counter() + 0.05

        def take() -> dict[str, Any] | None:
            with cursor_lock:
                return next(cursor, None)

        def worker(samples: list[Sample], tally: Tally) -> None:
            connection = self.connect()
            try:
                while (request := take()) is not None:
                    due = began + request["due"]
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sample, problem, decoded = self.exchange(connection, request, due)
                    tally.record(problem)
                    if sample is not None:
                        samples.append(sample)
                        self.verify(request, sample.request, decoded, tally)
            finally:
                connection.close()

        samples = self._run_workers(worker)
        return samples, (began, time.perf_counter())

    def closed_loop(self, seconds: float) -> tuple[list[Sample], tuple[float, float]]:
        """Each connection cycles its own plan with no think time."""
        lanes = list(self.lanes)
        lane_lock = threading.Lock()
        began = time.perf_counter()
        deadline = began + seconds

        def worker(samples: list[Sample], tally: Tally) -> None:
            with lane_lock:
                plan = lanes.pop()
            connection = self.connect()
            try:
                position = 0
                while (now := time.perf_counter()) < deadline:
                    request = plan[position % len(plan)]
                    position += 1
                    sample, problem, decoded = self.exchange(connection, request, now)
                    tally.record(problem)
                    if sample is not None:
                        samples.append(sample)
                        self.verify(request, sample.request, decoded, tally)
            finally:
                connection.close()

        samples = self._run_workers(worker)
        return samples, (began, time.perf_counter())

    def _run_workers(self, target: Any) -> list[Sample]:
        results = [([], Tally()) for _ in range(connections())]
        errors: list[BaseException] = []

        def guarded(samples: list[Sample], tally: Tally) -> None:
            try:
                target(samples, tally)
            except BaseException as error:  # re-raised in the caller below
                errors.append(error)

        threads = [
            threading.Thread(target=guarded, args=result, name=f"bench-conn-{i}")
            for i, result in enumerate(results)
        ]
        for thread in threads:
            thread.start()
        # While the connections work, this thread samples the host's
        # speed: a few ms of every quarter second on the generator's CPU.
        give_up = time.perf_counter() + 120.0
        for thread in threads:
            while thread.is_alive():
                if time.perf_counter() > give_up:
                    raise RuntimeError(f"{thread.name} did not finish")
                self.host.sample()
                thread.join(timeout=SAMPLE_EVERY_S)
        if errors:
            raise errors[0]
        merged: list[Sample] = []
        for samples, tally in results:
            merged.extend(samples)
            self.tally.merge(tally)
        return merged

    def healthz(self) -> dict[str, Any]:
        connection = self.connect()
        try:
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        self.tally.record(None if response.status == 200 else f"/healthz {response.status}")
        return body

    def check_sampled(self) -> None:
        for user_id, candidates, answer in self.sampled:
            self.tally.record(self.oracle.check_ranking(user_id, candidates, answer))
        self.sampled.clear()


def run(context: RunContext) -> Outcome:
    pool_size = POOL_SIZES[context.scale]["http_recommend"]
    # Spawned before this process pins itself, so it is free to pin to
    # the first CPU.
    server = ServerProcess(context.scale, pool_size)
    generator_cpu = pin(last=True)
    try:
        # The generator's own copy of the stack feeds the oracle; it
        # builds while the serving process builds its own.
        stack = build_stack(context.scale, pool_size, context.host)
        ready = server.wait_ready()
        with cpus_kept_awake({ready["cpu"], generator_cpu}):
            generator = Generator(
                stack, context.seed, (ready["host"], ready["port"]), context.host
            )
            _first_answer(generator)
            # Lazy set-up ends before timing: both flush paths have run.
            generator.closed_loop(WARMUP_SECONDS[context.scale])
            setup_s = context.setup_s()
            notes: dict[str, Any] = {
                "setup_seconds": ready["setup_seconds"],
                "pool": pool_size,
                "connections": connections(),
                "cpus": {"server": ready["cpu"], "generator": generator_cpu},
            }
            if context.traced:
                metrics = _traced(context, generator, server, notes)
            else:
                metrics = _untraced(context, generator, server, setup_s, notes)
        return Outcome(metrics, generator.tally, notes)
    finally:
        server.kill()


def _first_answer(generator: Generator) -> None:
    """Process start to first correct answer ends here."""
    request = generator.prepare({"kind": "full", "user": 0})
    connection = generator.connect()
    try:
        sample, problem, decoded = generator.exchange(connection, request, time.perf_counter())
    finally:
        connection.close()
    generator.tally.record(problem)
    if sample is not None:
        answer = [(item["event_id"], item["score"]) for item in decoded["results"]]
        generator.tally.record(
            generator.oracle.check_ranking(
                request["payload"]["user_id"], request["candidates"], answer
            )
        )


def _latencies_ms(samples: list[Sample], kind: str | None = None) -> list[float]:
    return [
        1000.0 * (sample.done - sample.sent)
        for sample in samples
        if kind is None or sample.kind == kind
    ]


def _pairs_by_kind(generator: Generator) -> dict[str, int]:
    """(user, event) pairs a request of each kind offers for scoring."""
    full = len(generator.pool_ids)
    return {"full": full, "subpool": min(SUBPOOL_SIZE, full), "score": 1}


def _closed_latency_ms(
    samples: list[Sample], span: tuple[float, float]
) -> list[list[float]]:
    return windows([(s.done, 1000.0 * (s.done - s.sent)) for s in samples], span)


def _closed_numbers(
    generator: Generator, samples: list[Sample], span: tuple[float, float]
) -> dict[str, float]:
    """Closed-loop latency and rates, over windows, at the nominal
    speed of the host."""
    pairs = _pairs_by_kind(generator)
    slowdown = generator.host.per_window(RANKING, span, WINDOWS)
    latency = _closed_latency_ms(samples, span)
    width = (span[1] - span[0]) / len(latency)
    rate = rate_at_nominal_speed(
        [float(len(w)) for w in latency], [width] * len(latency), slowdown
    )
    return {
        "latency_p50_ms": at_nominal_speed(latency, slowdown, 50),
        "latency_p95_ms": at_nominal_speed(latency, slowdown, 95),
        "throughput_rps": rate,
        # The request rate times the mix's mean pool size: a window's
        # own pair count would follow the luck of its mix.
        "examples_per_s": rate * statistics.fmean(pairs[s.kind] for s in samples),
    }


OPEN_WINDOWS = 8  # sixty arrivals a second: fewer, longer windows than the closed loop


def _open_p50_ms(generator: Generator, samples: list[Sample], span: tuple[float, float]) -> float:
    """Open-loop latency from the scheduled send time, over windows, at
    the nominal speed of the host."""
    latency = windows(
        [(s.due, 1000.0 * (s.done - s.due)) for s in samples], span, count=OPEN_WINDOWS
    )
    return at_nominal_speed(latency, generator.host.per_window(RANKING, span, OPEN_WINDOWS), 50)


def _untraced(
    context: RunContext,
    generator: Generator,
    server: ServerProcess,
    setup_s: float,
    notes: dict[str, Any],
) -> dict[str, float]:
    open_samples, open_span = generator.open_loop(context.seconds * OPEN_SHARE)
    closed_samples, closed_span = generator.closed_loop(context.seconds * (1 - OPEN_SHARE))
    health = generator.healthz()
    generator.check_sampled()
    report = server.stop()
    notes["samples"] = {"open": len(open_samples), "closed": len(closed_samples)}
    notes["healthz"] = {
        "flushes": health["batches_flushed"],
        "mean_batch_size": health["mean_batch_size"],
    }
    notes["host"] = generator.host.summary()
    notes["windows"] = {
        "latency_p50_ms": [
            percentile(values, 50) if values else 0.0
            for values in _closed_latency_ms(closed_samples, closed_span)
        ],
        "slowdown": generator.host.window_record(closed_span, WINDOWS),
    }
    notes["whole_run"] = {
        "latency_p50_ms": percentile(_latencies_ms(closed_samples), 50),
        "open_latency_p50_ms": 1000.0
        * percentile([sample.done - sample.due for sample in open_samples], 50),
        "open_send_lag_p99_ms": 1000.0
        * percentile([sample.sent - sample.due for sample in open_samples], 99),
    }
    return {
        "setup_s": setup_s,
        **_closed_numbers(generator, closed_samples, closed_span),
        "open_latency_p50_ms": _open_p50_ms(generator, open_samples, open_span),
        "cold_event_ms": report["cold_event_ms"],
        "peak_rss_mb": report["peak_rss_mb"],
    }


def _traced(
    context: RunContext,
    generator: Generator,
    server: ServerProcess,
    notes: dict[str, Any],
) -> dict[str, float]:
    plain_samples, plain_window = generator.closed_loop(context.seconds * 0.2)
    server.trace_on()
    open_samples, open_window = generator.open_loop(context.seconds * 0.3)
    closed_samples, closed_window = generator.closed_loop(context.seconds * 0.5)
    generator.check_sampled()
    report = server.stop()
    spans = [Span(*fields) for fields in report["spans"]]
    context.dump_spans("http_recommend", spans)

    closed_bill = Bill(in_window(spans, closed_window))
    open_bill = Bill(in_window(spans, open_window))
    closed = _latencies_ms(closed_samples)
    open_ms = [1000.0 * (sample.done - sample.due) for sample in open_samples]
    flushes = sum(
        1
        for name in ("core.service.rank_events", "core.service.rank_events_batch")
        for span in closed_bill.named(name)
        if span.parent_id is None
    )
    notes["samples"] = {
        "untraced": len(plain_samples),
        "open": len(open_samples),
        "closed": len(closed_samples),
        "spans": len(spans),
    }
    metrics = span_metrics(closed_bill, {})
    metrics.update(
        store_metrics(
            server.ready["index"], report["index"], server.ready["cache"], report["cache"]
        )
    )
    metrics.update(
        {
            "client.open_latency_p95_ms": percentile(open_ms, 95),
            "client.open_latency_p99_ms": percentile(open_ms, 99),
            "client.send_lag_p99_ms": 1000.0
            * percentile([sample.sent - sample.due for sample in open_samples], 99),
            "client.latency_p99_ms": percentile(closed, 99),
            "client.latency_max_ms": max(closed),
            "client.recommend_full_p50_ms": percentile(_latencies_ms(closed_samples, "full"), 50),
            "client.recommend_subpool_p50_ms": percentile(
                _latencies_ms(closed_samples, "subpool"), 50
            ),
            "client.score_p50_ms": percentile(_latencies_ms(closed_samples, "score"), 50),
            "client.request_bytes_mean": statistics.fmean(s.bytes_out for s in closed_samples),
            "client.response_bytes_mean": statistics.fmean(s.bytes_in for s in closed_samples),
            "serving.server.wire_gap_ms": _wire_gap_ms(closed_bill, closed_samples),
            "serving.batcher.wait_ms": 1000.0 * _median(batcher_waits(closed_bill)),
            "serving.batcher.open_wait_ms": 1000.0 * _median(batcher_waits(open_bill)),
            "serving.batcher.flushes": float(flushes),
            "serving.batcher.mean_batch_size": (
                closed_bill.count("serving.batcher.submit") / flushes if flushes else 0.0
            ),
            "bench.trace_overhead_pct": overhead_pct(
                _closed_numbers(generator, closed_samples, closed_window)["latency_p50_ms"],
                _closed_numbers(generator, plain_samples, plain_window)["latency_p50_ms"],
            ),
        }
    )
    return metrics


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _wire_gap_ms(bill: Bill, samples: list[Sample]) -> float:
    """Generator latency minus the server's read, dispatch and render
    spans of the same request: sockets, loop scheduling, generator JSON."""
    inside: defaultdict[int, float] = defaultdict(float)
    seen: defaultdict[int, int] = defaultdict(int)
    for name in ("serving.http.read_request", "serving.server.dispatch*",
                 "serving.http.render_response"):
        for span in bill.named(name):
            if span.request is not None:
                inside[span.request] += span.seconds
                seen[span.request] += 1
    gaps = [
        1000.0 * (sample.done - sample.sent - inside[sample.request])
        for sample in samples
        if seen.get(sample.request) == 3
    ]
    return _median(gaps)
