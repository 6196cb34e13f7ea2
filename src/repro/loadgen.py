"""Open-loop load harness for the serving path.

Replays Poisson-arrival ``/recommend`` and ``/score`` traffic through
an :class:`~repro.serving.client.HttpServiceClient` from a pool of
worker threads — the harness reaches the service the one way a caller
does, over the HTTP server — and reports end-to-end latency
percentiles, achieved vs offered throughput, and — when a
:class:`~repro.obs.trace.Tracer` is installed — per-stage latency
attribution (encode / cache hit-miss / index lock wait / GEMV /
top-K) computed from real request traces.

**Open-loop** means arrivals follow a fixed schedule drawn up front
(exponential inter-arrival gaps at the offered rate) and are *not*
gated on completions; latency is measured from the *scheduled*
arrival, so queueing delay under saturation is charged to the
request instead of silently vanishing (the coordinated-omission
trap of closed-loop harnesses).

The request schedule, user choice, and operation mix are all drawn
from one seeded :class:`random.Random`, so a given config replays
the same traffic every run.
"""

from __future__ import annotations

import dataclasses
import random
import time
from collections.abc import Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.datagen.config import DataConfig
from repro.datagen.dataset import build_dataset
from repro.entities import Event, User
from repro.obs.health import (
    HealthSnapshot,
    default_serving_slos,
    evaluate,
    format_health,
)
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import get_tracer, span
from repro.serving.client import HttpServiceClient
from repro.text.documents import DocumentEncoder

__all__ = [
    "LoadgenConfig",
    "RequestRecord",
    "LoadReport",
    "percentile",
    "run_load",
    "build_synthetic_service",
    "format_report",
]


@dataclass(frozen=True)
class LoadgenConfig:
    """One load-generation run.

    ``rate`` is the *offered* mean arrival rate (requests/second);
    ``duration`` bounds the arrival schedule, not the run (in-flight
    requests drain after the last arrival).  ``score_fraction`` of
    requests are single-pair ``/score`` posts, the rest are
    ``/recommend`` over the server's full candidate pool.
    ``warmup`` requests are issued *before* the open-loop
    schedule starts and are excluded from every summary statistic —
    they exist to fill caches and JIT-warm the allocator so the
    measured window reflects steady state, not cold start.
    Everything is driven by ``seed``; the warm-up phase draws from an
    offset rng so enabling it never perturbs the measured traffic.
    A config whose seeded schedule would hold no arrival at all (a
    ``rate`` x ``duration`` well under one request) is refused here,
    before anything is built or sent on its behalf.
    """

    rate: float = 200.0
    duration: float = 2.0
    workers: int = 4
    top_k: int = 10
    score_fraction: float = 0.2
    warmup: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rate <= 0.0:
            raise ValueError(f"rate must be > 0, got {self.rate}")
        if self.duration <= 0.0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not 0.0 <= self.score_fraction <= 1.0:
            raise ValueError(
                f"score_fraction must be in [0, 1], got {self.score_fraction}"
            )
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        # The first gap run_load draws: past the window, the schedule
        # is empty and there is no request to summarize.
        if random.Random(self.seed).expovariate(self.rate) >= self.duration:
            raise ValueError(
                f"rate {self.rate:g}/s x duration {self.duration:g} s = "
                f"{self.rate * self.duration:.2f} expected arrivals, and "
                f"seed {self.seed} draws none; raise rate or duration"
            )


@dataclass(frozen=True)
class RequestRecord:
    """One completed request; times are seconds from harness start.

    ``latency`` runs from the **scheduled** arrival to completion and
    therefore includes dispatcher lag and executor queue wait;
    ``service`` covers only the client call itself.
    """

    index: int
    op: str
    scheduled: float
    started: float
    finished: float
    trace_id: str | None

    @property
    def latency(self) -> float:
        return self.finished - self.scheduled

    @property
    def service(self) -> float:
        return self.finished - self.started

    @property
    def queue_wait(self) -> float:
        return self.started - self.scheduled


def percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile (linear interpolation), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


@dataclass(frozen=True)
class LoadReport:
    """The harness's verdict: latency, throughput, attribution."""

    config: LoadgenConfig
    requests: int
    wall_seconds: float
    offered_rps: float
    achieved_rps: float
    latency: dict[str, float]
    service: dict[str, float]
    queue_wait: dict[str, float]
    ops: dict[str, int]
    saturated: bool
    attribution: list[dict[str, float | str]] = field(default_factory=list)
    records: tuple[RequestRecord, ...] = ()
    pool_size: int = 0
    warmup_excluded: int = 0
    health: HealthSnapshot | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-able view (drops the raw per-request records)."""
        return {
            "config": dataclasses.asdict(self.config),
            "requests": self.requests,
            "wall_seconds": self.wall_seconds,
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
            "latency": dict(self.latency),
            "service": dict(self.service),
            "queue_wait": dict(self.queue_wait),
            "ops": dict(self.ops),
            "saturated": self.saturated,
            "attribution": [dict(row) for row in self.attribution],
            "pool_size": self.pool_size,
            "warmup_excluded": self.warmup_excluded,
            "health": self.health.as_dict() if self.health is not None else None,
        }


def _summary(values: Sequence[float]) -> dict[str, float]:
    return {
        "p50": percentile(values, 50.0),
        "p95": percentile(values, 95.0),
        "p99": percentile(values, 99.0),
        "max": max(values),
        "mean": sum(values) / len(values),
    }


def _export_report_gauges(
    registry: MetricsRegistry,
    latency: Mapping[str, float],
    queue_wait: Mapping[str, float],
    achieved_rps: float,
    saturated: bool,
) -> None:
    """Publish the report's headline numbers as ``repro_loadgen_*``
    gauges so SLO specs (and any scraper) can read them."""
    for stat in ("p50", "p95", "p99", "max", "mean"):
        registry.gauge(
            "repro_loadgen_latency_seconds", tags={"stat": stat}
        ).set(latency[stat])
        registry.gauge(
            "repro_loadgen_queue_wait_seconds", tags={"stat": stat}
        ).set(queue_wait[stat])
    registry.gauge("repro_loadgen_achieved_rps").set(achieved_rps)
    registry.gauge("repro_loadgen_saturated").set(1.0 if saturated else 0.0)


def run_load(
    client: HttpServiceClient,
    user_ids: Sequence[int],
    event_ids: Sequence[int],
    config: LoadgenConfig,
    registry: MetricsRegistry | None = None,
) -> LoadReport:
    """Drive one open-loop run against ``client``'s server and
    summarize it.

    ``user_ids`` and ``event_ids`` are the ids the server serves, in
    the order the seeded plan indexes them.

    The caller decides the observability setup: install a tracer
    (``with use_tracer(...)``) to get per-stage attribution and
    retained slow traces, and/or a live registry for histograms.
    Each request runs under a ``repro_loadgen_request`` root span in
    its worker thread, so with a tracer every request becomes its own
    trace.

    With a live registry the report also carries a health verdict:
    the run's headline numbers are exported as ``repro_loadgen_*``
    gauges and the registry's snapshot — which holds the server's own
    metrics too when it is hosted in this process — is judged against
    :func:`~repro.obs.health.default_serving_slos`, exactly as
    ``repro-events health --telemetry`` judges it afterwards.
    """
    if not user_ids:
        raise ValueError("need at least one user")
    if not event_ids:
        raise ValueError("need at least one event")
    registry = registry if registry is not None else get_registry()
    rng = random.Random(config.seed)

    def dispatch(op: str, user_pos: int) -> None:
        if op == "score":
            client.score(user_ids[user_pos], event_ids[user_pos % len(event_ids)])
        else:
            client.recommend(user_ids[user_pos], top_k=config.top_k)

    # Warm-up: sequential, unmeasured, drawn from an *offset* rng so
    # the measured schedule below is byte-identical with warmup=0.
    # No loadgen span either — the repro_loadgen_* histograms must
    # only ever contain measured traffic.
    warmup_rng = random.Random(config.seed + 1_000_003)
    for _ in range(config.warmup):
        op = "score" if warmup_rng.random() < config.score_fraction else "rank"
        dispatch(op, warmup_rng.randrange(len(user_ids)))

    # Draw the full open-loop schedule up front: arrival offsets plus
    # per-request operation and user choice, all from one seeded rng.
    arrivals: list[float] = []
    t = rng.expovariate(config.rate)
    while t < config.duration:
        arrivals.append(t)
        t += rng.expovariate(config.rate)
    plan: list[tuple[str, int]] = []
    for _ in arrivals:
        op = "score" if rng.random() < config.score_fraction else "rank"
        plan.append((op, rng.randrange(len(user_ids))))

    tracer = get_tracer()
    t0 = time.perf_counter()

    def now() -> float:
        return time.perf_counter() - t0

    def execute(index: int, scheduled: float, op: str, user_pos: int) -> RequestRecord:
        started = now()
        with span(
            "repro_loadgen_request", tags={"op": op}, registry=registry
        ) as root:
            dispatch(op, user_pos)
        return RequestRecord(
            index=index,
            op=op,
            scheduled=scheduled,
            started=started,
            finished=now(),
            trace_id=getattr(root, "trace_id", None),
        )

    with ThreadPoolExecutor(
        max_workers=config.workers, thread_name_prefix="repro-loadgen"
    ) as pool:
        futures = []
        for index, scheduled in enumerate(arrivals):
            delay = scheduled - now()
            if delay > 0.0:
                time.sleep(delay)
            op, user_pos = plan[index]
            futures.append(pool.submit(execute, index, scheduled, op, user_pos))
        records = tuple(future.result() for future in futures)
    wall = max(record.finished for record in records)

    latencies = [record.latency for record in records]
    services = [record.service for record in records]
    waits = [record.queue_wait for record in records]
    ops: dict[str, int] = {}
    for record in records:
        ops[record.op] = ops.get(record.op, 0) + 1
    offered = len(records) / config.duration
    achieved = len(records) / wall if wall > 0.0 else 0.0
    # Saturated when the system cannot keep up with the offered rate:
    # completions stretch past the arrival window by a margin clearly
    # beyond one in-flight request draining.
    saturated = achieved < 0.9 * offered
    attribution = tracer.attribution() if tracer is not None else []

    latency_summary = _summary(latencies)
    queue_summary = _summary(waits)
    health: HealthSnapshot | None = None
    if registry.enabled:
        _export_report_gauges(
            registry, latency_summary, queue_summary, achieved, saturated
        )
        health = evaluate(default_serving_slos(), registry.snapshot())
        health.export(registry)

    return LoadReport(
        config=config,
        requests=len(records),
        wall_seconds=wall,
        offered_rps=offered,
        achieved_rps=achieved,
        latency=latency_summary,
        service=_summary(services),
        queue_wait=queue_summary,
        ops=ops,
        saturated=saturated,
        attribution=attribution,
        records=records,
        pool_size=len(event_ids),
        warmup_excluded=config.warmup,
        health=health,
    )


def build_synthetic_service(
    seed: int = 0, pool_size: int = 500
) -> tuple[RepresentationService, list[User], list[Event]]:
    """A warmed service plus traffic entities for self-contained runs.

    Builds the small synthetic world, fits the vocabulary, and stands
    up an (untrained — load generation cares about compute shape, not
    model quality) service.  The candidate pool is enlarged to
    ``pool_size`` by replicating events under fresh ids, then fully
    warmed so steady-state traffic exercises the indexed path.
    """
    if pool_size < 1:
        raise ValueError(f"pool_size must be >= 1, got {pool_size}")
    dataset = build_dataset(DataConfig.small(seed=seed))
    # Explicit id order: traffic must not depend on container order.
    users = sorted(dataset.users, key=lambda user: user.user_id)
    events = sorted(dataset.events, key=lambda event: event.event_id)
    next_id = max(event.event_id for event in events) + 1
    base = len(events)
    while len(events) < pool_size:
        source = events[len(events) % base]
        events.append(
            dataclasses.replace(
                source,
                event_id=next_id,
                title=f"{source.title} #{next_id}",
            )
        )
        next_id += 1
    events = events[:pool_size]
    encoder = DocumentEncoder.fit(users, events, min_df=1)
    model = JointUserEventModel(JointModelConfig.small(seed=seed), encoder)
    service = RepresentationService(model)
    service.warm(users, events)
    return service, users, events


def format_report(report: LoadReport) -> str:
    """Human-readable summary: rates, percentiles, attribution table."""
    lines = [
        f"requests:      {report.requests} over {report.wall_seconds:.2f} s "
        f"({', '.join(f'{op}={n}' for op, n in sorted(report.ops.items()))})",
        f"offered rate:  {report.offered_rps:.1f} req/s",
        f"achieved rate: {report.achieved_rps:.1f} req/s"
        + ("  [SATURATED]" if report.saturated else ""),
    ]
    if report.warmup_excluded:
        lines.append(
            f"warmup:        {report.warmup_excluded} requests issued, "
            "excluded from all statistics"
        )
    lines += [
        "",
        f"{'':<12} {'p50 ms':>9} {'p95 ms':>9} {'p99 ms':>9} {'max ms':>9}",
    ]
    for label, stats in (
        ("latency", report.latency),
        ("service", report.service),
        ("queue wait", report.queue_wait),
    ):
        lines.append(
            f"{label:<12} {stats['p50'] * 1e3:>9.2f} {stats['p95'] * 1e3:>9.2f} "
            f"{stats['p99'] * 1e3:>9.2f} {stats['max'] * 1e3:>9.2f}"
        )
    if report.attribution:
        from repro.obs.trace import format_attribution

        lines += ["", "per-stage attribution (from traces):"]
        lines.append(format_attribution(report.attribution))
    if report.health is not None:
        lines += ["", format_health(report.health)]
    return "\n".join(lines)

