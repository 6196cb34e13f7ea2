"""``rank_large_pool``: in-process ranking over a 20 000-row index.

One thread, one closed loop, a fixed seeded rotation of
``rank_events(top_k=10)``, ``rank_events(top_k=10, at_time=t)`` and,
every eighth call, ``rank_events_batch`` for eight users.

Why it exists: ``core.service`` and ``store.index`` do all the work and
``serving.*`` none.  Most of a call is id resolution and result
building around a GEMV that is a few per cent of it, so this is where
an id-resolution, float32-index or snapshot-read change shows, and
where an HTTP-only change must show nothing.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from typing import Any, NamedTuple

from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import Tracer, use_tracer

from bench.checks import Answer, Oracle, as_answer, check_shape
from bench.env import peak_rss_mb
from bench.layers import describe_index, span_metrics, store_metrics
from bench.plans import TOP_K, rank_plan
from bench.stack import POOL_SIZES, Stack, build_stack, cold_start_probe
from bench.hostspeed import RANKING, HostSpeed
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

RAW_GEMV_PROBES = 50


class Call(NamedTuple):
    ended: float
    seconds: float
    users_ranked: int
    pairs_scored: int


class Phase(NamedTuple):
    """One closed-loop stretch of calls."""

    calls: list[Call]
    span: tuple[float, float]

    @property
    def latencies(self) -> list[float]:
        return [call.seconds for call in self.calls]

    @property
    def p50(self) -> float:
        return percentile(self.latencies, 50)

    def nominal_p50(self, host: HostSpeed) -> float:
        """Median call, in seconds, at the nominal speed of the host."""
        return at_nominal_speed(
            self.per_window(lambda call: call.seconds),
            host.per_window(RANKING, self.span, WINDOWS),
            50,
        )

    def per_window(self, value: Callable[[Call], float]) -> list[list[float]]:
        return windows([(call.ended, value(call)) for call in self.calls], self.span)


class Ranker:
    """The call loop over one stack, shared by every phase of a run."""

    def __init__(self, stack: Stack, seed: int, host: HostSpeed) -> None:
        self.stack = stack
        self.host = host
        self.oracle = Oracle(stack.user_vectors, stack.event_vectors)
        total_hours = stack.world.dataset.config.total_hours
        self.plan = rank_plan(seed, len(stack.world.users), total_hours)
        self.pool_ids = [event.event_id for event in stack.pool]
        self.active_ids: dict[float, list[int]] = {}
        for call in self.plan:
            at_time = call.get("at_time")
            if at_time is not None and at_time not in self.active_ids:
                self.active_ids[at_time] = [
                    event.event_id for event in stack.pool if event.is_active(at_time)
                ]
        self.sample = oracle_sample(seed, 0)
        self.tally = Tally()
        self.position = 0

    def call(self, call: dict[str, Any]) -> tuple[float, list[int], list[int], list[Answer]]:
        """One planned call: seconds, user ids, candidate ids, answers."""
        service, users, pool = self.stack.service, self.stack.world.users, self.stack.pool
        if call["kind"] == "batch":
            cohort = [users[position] for position in call["users"]]
            candidates = self.pool_ids
            start = time.perf_counter()
            rankings = service.rank_events_batch(cohort, pool, top_k=TOP_K)
            seconds = time.perf_counter() - start
        else:
            cohort = [users[call["user"]]]
            at_time = call.get("at_time")
            candidates = self.pool_ids if at_time is None else self.active_ids[at_time]
            start = time.perf_counter()
            rankings = [service.rank_events(cohort[0], pool, at_time=at_time, top_k=TOP_K)]
            seconds = time.perf_counter() - start
        answers = [as_answer(ranking) for ranking in rankings]
        return seconds, [user.user_id for user in cohort], candidates, answers

    def run(self, seconds: float, each_call: Callable[[int], Any] | None = None) -> Phase:
        """Closed loop for ``seconds``; every answer is shape-checked and
        the sampled ones go to the oracle (outside the timed call).  The
        host's speed is sampled between calls."""
        calls: list[Call] = []
        began = time.perf_counter()
        while True:
            self.host.sample_if_due()
            if (now := time.perf_counter()) - began >= seconds:
                break
            index = self.position
            self.position += 1
            if each_call is not None:
                each_call(index)
            elapsed, user_ids, candidates, answers = self.call(self.plan[index % len(self.plan)])
            calls.append(Call(now + elapsed, elapsed, len(answers), len(answers) * len(candidates)))
            for user_id, answer in zip(user_ids, answers):
                self.tally.record(check_shape(answer, min(TOP_K, len(candidates))))
                if index in self.sample:
                    self.tally.record(self.oracle.check_ranking(user_id, candidates, answer))
        return Phase(calls, (began, time.perf_counter()))


def run(context: RunContext) -> Outcome:
    pool_size = POOL_SIZES[context.scale]["rank_large_pool"]
    stack = build_stack(context.scale, pool_size, context.host)
    ranker = Ranker(stack, context.seed, context.host)
    # First correct answers: one rotation of the plan, oracle-checked.
    for call in ranker.plan[:8]:
        _, user_ids, candidates, answers = ranker.call(call)
        for user_id, answer in zip(user_ids, answers):
            ranker.tally.record(ranker.oracle.check_ranking(user_id, candidates, answer))
    setup_s = context.setup_s()
    notes: dict[str, Any] = {"setup_seconds": stack.world.seconds, "pool": pool_size}
    if context.traced:
        metrics = _traced(context, ranker, notes)
    else:
        metrics = _untraced(context, ranker, setup_s, notes)
    return Outcome(metrics, ranker.tally, notes)


def _untraced(
    context: RunContext, ranker: Ranker, setup_s: float, notes: dict[str, Any]
) -> dict[str, float]:
    phase = ranker.run(context.seconds)
    notes["samples"] = {"calls": len(phase.calls)}
    notes["whole_run"] = {"latency_p50_ms": 1000.0 * phase.p50}
    slowdown = context.host.per_window(RANKING, phase.span, WINDOWS)
    latency = phase.per_window(lambda call: 1000.0 * call.seconds)
    # A window's rate is work over the time spent inside calls, which
    # leaves out the generator's own checking between them.
    busy = [sum(values) / 1000.0 for values in latency]
    users = [sum(values) for values in phase.per_window(lambda call: call.users_ranked)]
    pairs = [sum(values) for values in phase.per_window(lambda call: call.pairs_scored)]
    p50 = at_nominal_speed(latency, slowdown, 50)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": p50,
        "latency_p95_ms": at_nominal_speed(latency, slowdown, 95),
        "throughput_rps": rate_at_nominal_speed(users, busy, slowdown),
        # No paced phase here: the open-loop cell repeats the call latency.
        "open_latency_p50_ms": p50,
        "examples_per_s": rate_at_nominal_speed(pairs, busy, slowdown),
        "cold_event_ms": cold_start_probe(ranker.stack, context.scale, context.host),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes["host"] = context.host.summary()
    notes["windows"] = {
        "latency_p50_ms": [percentile(values, 50) if values else 0.0 for values in latency],
        "slowdown": context.host.window_record(phase.span, WINDOWS),
    }
    return metrics


def _traced(context: RunContext, ranker: Ranker, notes: dict[str, Any]) -> dict[str, float]:
    share = context.seconds / 4.0
    service = ranker.stack.service
    plain = ranker.run(share)

    cache_before = service.cache.stats.as_dict()
    index_before = describe_index(service.index)
    with SpanTracer() as tracer:
        traced = ranker.run(share, each_call=tracer.request.set)
    cache_after = service.cache.stats.as_dict()
    context.dump_spans("rank_large_pool", tracer.spans)

    with use_registry(MetricsRegistry()):
        with_registry = ranker.run(share)
    with use_tracer(Tracer()):
        with_tracer = ranker.run(share)

    query = ranker.stack.user_vectors[ranker.stack.world.users[0].user_id]
    raw: list[float] = []
    for _ in range(RAW_GEMV_PROBES):
        start = time.perf_counter()
        service.index.scores(query)
        raw.append(time.perf_counter() - start)

    notes["samples"] = {
        "untraced_calls": len(plain.latencies),
        "traced_calls": len(traced.latencies),
        "spans": len(tracer.spans),
    }
    metrics = span_metrics(Bill(tracer.spans), tracer.counts)
    host, base = context.host, plain.nominal_p50(context.host)
    index_after = describe_index(service.index)
    metrics.update(store_metrics(index_before, index_after, cache_before, cache_after))
    metrics.update(
        {
            "client.latency_p99_ms": 1000.0 * percentile(traced.latencies, 99),
            "client.latency_max_ms": 1000.0 * max(traced.latencies),
            "store.index.scores_ms": 1000.0 * percentile(raw, 50),
            "obs.registry_overhead_pct": overhead_pct(with_registry.nominal_p50(host), base),
            "obs.trace_overhead_pct": overhead_pct(with_tracer.nominal_p50(host), base),
            "bench.trace_overhead_pct": overhead_pct(traced.nominal_p50(host), base),
        }
    )
    return metrics
