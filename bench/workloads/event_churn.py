"""``event_churn``: writes beside reads on one service.

A reader thread ranks the live pool in a closed loop
(``rank_events(user, live_pool, top_k=10)``) while a writer, paced
every 150 ms, publishes a burst: 16 never-seen events (new ids, seeded
text variants) and 4 content edits go through ``refresh_events``, which
encodes them with the towers, forward only, and upserts them.  A burst
is listed in the live pool for two cycles, unlisted on the next, and
removed (``remove_event``) one cycle after that, so the reader never
passes an id that is already gone and no removed event is re-encoded.

Why it exists: the paper's transient-event lifecycle and cold-start
path.  A read-path gain bought with write cost (snapshot publishing,
rescoring tables), or a training gain that slows small-batch
inference, shows here and nowhere else.
"""

from __future__ import annotations

import dataclasses
import statistics
import threading
import time
from typing import Any, NamedTuple

from repro.entities import Event

from bench.checks import Answer, Oracle, as_answer, check_shape
from bench.env import peak_rss_mb, pin
from bench.layers import describe_index, span_metrics, store_metrics
from bench.plans import CHURN_PERIOD_S, TOP_K, churn_plan, variant_text
from bench.stack import POOL_SIZES, Stack, build_stack
from bench.hostspeed import PUBLISHING, RANKING, HostSpeed
from bench.stats import (
    WINDOWS,
    at_nominal_speed,
    overhead_pct,
    percentile,
    rate_at_nominal_speed,
    windows,
)
from bench.tracing import Bill, SpanTracer
from bench.workloads.base import Outcome, RunContext, Tally, oracle_sample

LISTED_CYCLES = 2


class Measured(NamedTuple):
    """Time-stamped samples of one stretch of reading beside writing."""

    calls: list[tuple[float, float]]
    per_event_ms: list[tuple[float, float]]
    from_due_ms: list[tuple[float, float]]
    span: tuple[float, float]

    @property
    def latencies(self) -> list[float]:
        return [seconds for _, seconds in self.calls]

    def nominal_p50(self, host: HostSpeed) -> float:
        """Median reader call, in seconds, at the nominal speed of the host."""
        return at_nominal_speed(
            windows(self.calls, self.span), host.per_window(RANKING, self.span, WINDOWS), 50
        )


class Churn:
    """The shared state of one run: live pool, bursts, samples."""

    def __init__(
        self, stack: Stack, seed: int, period: float, cycles: int, host: HostSpeed
    ) -> None:
        self.stack = stack
        self.service = stack.service
        self.host = host
        self.period = period
        # One tally per thread; ``final_checks`` merges them.
        self.tally = Tally()
        self.reader_tally = Tally()
        users, pool = stack.world.users, stack.pool
        plan = churn_plan(seed, len(users), len(stack.world.events), len(pool), cycles)
        self.reader_users = [users[position] for position in plan["reader_users"]]
        next_id = max(event.event_id for event in pool) + 1
        self.bursts: list[list[Event]] = []
        self.edits: list[list[tuple[int, Event]]] = []
        for cycle in plan["cycles"]:
            burst = []
            for new in cycle["new"]:
                source = stack.world.events[new["source"]]
                burst.append(
                    dataclasses.replace(
                        source,
                        event_id=next_id,
                        title=f"{source.title} #{next_id}",
                        description=variant_text(source.description, new["salt"]),
                    )
                )
                next_id += 1
            self.bursts.append(burst)
            self.edits.append(
                [
                    (
                        edit["position"],
                        dataclasses.replace(
                            pool[edit["position"]],
                            description=variant_text(
                                pool[edit["position"]].description, edit["salt"]
                            ),
                        ),
                    )
                    for edit in cycle["edits"]
                ]
            )
        # Published lists are never mutated: the reader keeps whichever
        # one it picked up for the whole call.
        self.standing: list[Event] = list(pool)
        self.live: list[Event] = self.standing
        self.cycle = 0
        self.removed: list[int] = []
        self.reader_sample = oracle_sample(seed, 1)
        self.sampled: list[tuple[int, list[Event], Answer]] = []
        self.reader_calls = 0
        self.tracer: SpanTracer | None = None

    # -- writer --------------------------------------------------------

    def write_cycle(self) -> tuple[float, float]:
        """Publish burst ``self.cycle``; returns the seconds inside
        ``refresh_events`` and the time the burst became rankable."""
        number = self.cycle
        burst, edits = self.bursts[number], self.edits[number]
        changed = burst + [event for _, event in edits]
        began = time.perf_counter()
        encoded = self.service.refresh_events(changed)
        seconds = time.perf_counter() - began
        self.tally.record(
            None
            if encoded == len(changed)
            else f"cycle {number}: refresh_events encoded {encoded} of {len(changed)}"
        )
        standing = list(self.standing)
        for position, event in edits:
            standing[position] = event
        self.standing = standing
        listed = self.bursts[max(0, number - LISTED_CYCLES + 1) : number + 1]
        self.live = standing + [event for group in listed for event in group]
        rankable_at = time.perf_counter()
        retired = number - LISTED_CYCLES - 1
        if retired >= 0:
            for event in self.bursts[retired]:
                self.tally.record(
                    None
                    if self.service.remove_event(event.event_id)
                    else f"cycle {number}: event {event.event_id} was already gone"
                )
                self.removed.append(event.event_id)
        self.cycle += 1
        return seconds, rankable_at

    def write_for(
        self, seconds: float
    ) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
        """Paced cycles for ``seconds``: per-event publish ms, and ms
        from each cycle's due time to its burst being rankable, each
        stamped with the cycle's due time."""
        per_event: list[tuple[float, float]] = []
        from_due: list[tuple[float, float]] = []
        began = time.perf_counter()
        for tick in range(int(seconds / self.period)):
            due = began + tick * self.period
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            changed = len(self.bursts[self.cycle]) + len(self.edits[self.cycle])
            inside, rankable_at = self.write_cycle()
            from_due.append((due, 1000.0 * (rankable_at - due)))
            per_event.append((due, 1000.0 * inside / changed))
        remaining = began + seconds - time.perf_counter()
        if remaining > 0:
            time.sleep(remaining)
        return per_event, from_due

    # -- reader --------------------------------------------------------

    def read_until(self, stop: threading.Event, calls: list[tuple[float, float]]) -> None:
        """Closed loop; ``calls`` collects ``(ended, seconds)``.  The
        reader is the thread that never sleeps, so it is the one that
        samples the host's speed between its calls."""
        service, users = self.service, self.reader_users
        while not stop.is_set():
            self.host.sample_if_due()
            index = self.reader_calls
            self.reader_calls += 1
            user = users[index % len(users)]
            pool = self.live
            if self.tracer is not None:
                self.tracer.request.set(index)
            began = time.perf_counter()
            ranking = service.rank_events(user, pool, top_k=TOP_K)
            ended = time.perf_counter()
            calls.append((ended, ended - began))
            answer = as_answer(ranking)
            self.reader_tally.record(check_shape(answer, TOP_K))
            if index in self.reader_sample:
                self.sampled.append((user.user_id, pool, answer))

    def measure(self, seconds: float) -> "Measured":
        """Reader and writer side by side for ``seconds``."""
        stop = threading.Event()
        calls: list[tuple[float, float]] = []
        errors: list[BaseException] = []

        def read() -> None:
            try:
                self.read_until(stop, calls)
            except BaseException as error:  # re-raised on the writer's thread below
                errors.append(error)

        reader = threading.Thread(target=read, name="bench-reader")
        began = time.perf_counter()
        reader.start()
        try:
            per_event, from_due = self.write_for(seconds)
        finally:
            stop.set()
            reader.join(timeout=60.0)
        if reader.is_alive():
            raise RuntimeError("reader thread did not stop")
        if errors:
            raise errors[0]
        return Measured(calls, per_event, from_due, (began, time.perf_counter()))

    # -- after the run -------------------------------------------------

    def oracle_for(self, events: list[Event]) -> Oracle:
        """An oracle that encodes, itself, every event the set-up did
        not know (new ids and edited contents)."""
        model, encoder = self.stack.world.model, self.stack.world.encoder
        vectors = dict(self.stack.event_vectors)
        original = {event.event_id: event for event in self.stack.pool}
        unknown = [event for event in events if original.get(event.event_id) is not event]
        if unknown:
            encoded = model.encode_events([encoder.encode_event(event) for event in unknown])
            for event, vector in zip(unknown, encoded):
                vectors[event.event_id] = vector.astype("float64")
        return Oracle(self.stack.user_vectors, vectors)

    def final_checks(self) -> None:
        """Invariants, removed ids gone, the last burst rankable, and
        the sampled reader answers against the oracle."""
        self.tally.merge(self.reader_tally)
        index = self.service.index
        try:
            index.check_invariants()
            self.tally.record(None)
        except RuntimeError as error:
            self.tally.record(f"index invariants broken: {error}")
        for event_id in self.removed:
            self.tally.record(
                f"removed event {event_id} is still indexed" if event_id in index else None
            )
        last = self.bursts[self.cycle - 1]
        user = self.reader_users[0]
        answer = as_answer(self.service.rank_events(user, last, top_k=len(last)))
        self.tally.record(check_shape(answer, len(last)))
        self.tally.record(
            self.oracle_for(last).check_ranking(
                user.user_id, [event.event_id for event in last], answer
            )
        )
        for user_id, pool, answer in self.sampled:
            self.tally.record(
                self.oracle_for(pool).check_ranking(
                    user_id, [event.event_id for event in pool], answer
                )
            )


def run(context: RunContext) -> Outcome:
    # Reader and writer share one CPU on purpose; see ``pin``.
    pin()
    pool_size = POOL_SIZES[context.scale]["event_churn"]
    stack = build_stack(context.scale, pool_size, context.host)
    period = CHURN_PERIOD_S[context.scale]
    churn = Churn(
        stack, context.seed, period, int(context.seconds / period) + 2, context.host
    )
    # First correct answer: a ranking of the standing pool, oracle-checked.
    user = churn.reader_users[0]
    churn.tally.record(
        Oracle(stack.user_vectors, stack.event_vectors).check_ranking(
            user.user_id,
            [event.event_id for event in churn.live],
            as_answer(stack.service.rank_events(user, churn.live, top_k=TOP_K)),
        )
    )
    setup_s = context.setup_s()
    notes: dict[str, Any] = {"setup_seconds": stack.world.seconds, "pool": pool_size}
    if context.traced:
        metrics = _traced(context, churn, notes)
    else:
        metrics = _untraced(context, churn, setup_s, notes)
    churn.final_checks()
    return Outcome(metrics, churn.tally, notes)


def _untraced(
    context: RunContext, churn: Churn, setup_s: float, notes: dict[str, Any]
) -> dict[str, float]:
    measured = churn.measure(context.seconds)
    notes["samples"] = {
        "reader_calls": len(measured.calls),
        "writer_cycles": len(measured.per_event_ms),
    }
    notes["whole_run"] = {
        "latency_p50_ms": 1000.0 * percentile(measured.latencies, 50),
        "cold_event_ms": statistics.median(ms for _, ms in measured.per_event_ms),
    }
    notes["host"] = context.host.summary()
    span = measured.span
    slowdown = context.host.per_window(RANKING, span, WINDOWS)
    writer_slowdown = context.host.per_window(PUBLISHING, span, WINDOWS)
    latency = windows([(at, 1000.0 * seconds) for at, seconds in measured.calls], span)
    width = (span[1] - span[0]) / len(latency)
    rate = rate_at_nominal_speed(
        [float(len(values)) for values in latency], [width] * len(latency), slowdown
    )
    per_event = windows(measured.per_event_ms, span)
    notes["windows"] = {
        "latency_p50_ms": [percentile(values, 50) if values else 0.0 for values in latency],
        "latency_p95_ms": [percentile(values, 95) if values else 0.0 for values in latency],
        "cold_event_ms": [percentile(values, 50) if values else 0.0 for values in per_event],
        "slowdown": context.host.window_record(span, WINDOWS),
    }
    return {
        "setup_s": setup_s,
        "latency_p50_ms": at_nominal_speed(latency, slowdown, 50),
        "latency_p95_ms": at_nominal_speed(latency, slowdown, 95),
        "throughput_rps": rate,
        # The writer is the paced side: due time of a cycle to its
        # burst being rankable.
        "open_latency_p50_ms": at_nominal_speed(
            windows(measured.from_due_ms, span), writer_slowdown, 50
        ),
        "examples_per_s": rate * len(churn.standing),
        "cold_event_ms": at_nominal_speed(per_event, writer_slowdown, 50),
        "peak_rss_mb": peak_rss_mb(),
    }


def _traced(context: RunContext, churn: Churn, notes: dict[str, Any]) -> dict[str, float]:
    service = churn.service
    plain = churn.measure(context.seconds * 0.3)
    cache_before = service.cache.stats.as_dict()
    index_before = describe_index(service.index)
    with SpanTracer() as tracer:
        churn.tracer = tracer
        traced = churn.measure(context.seconds * 0.7)
        churn.tracer = None
    cache_after = service.cache.stats.as_dict()
    context.dump_spans("event_churn", tracer.spans)
    notes["samples"] = {
        "untraced_calls": len(plain.calls),
        "traced_calls": len(traced.calls),
        "spans": len(tracer.spans),
    }
    metrics = span_metrics(Bill(tracer.spans), tracer.counts)
    index_after = describe_index(service.index)
    metrics.update(store_metrics(index_before, index_after, cache_before, cache_after))
    metrics.update(
        {
            "client.latency_p99_ms": 1000.0 * percentile(traced.latencies, 99),
            "client.latency_max_ms": 1000.0 * max(traced.latencies),
            "bench.trace_overhead_pct": overhead_pct(
                traced.nominal_p50(context.host), plain.nominal_p50(context.host)
            ),
        }
    )
    return metrics
