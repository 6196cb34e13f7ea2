"""``train_epochs``: ``RepresentationTrainer.fit`` on impression shards.

Each timed operation is one ``fit`` of a fresh float32 model on a
shard of 512 consecutive impressions (pairs pre-encoded in set-up):
two epochs, batch 64, a tenth held out for validation.  Shards repeat
until ``--seconds`` are used.  Every fit ends the way training does in
the paper's system: the trained towers encode events, forward only,
for the serving cache.  The host's speed is sampled before a fit, at
the end of each epoch (from the trainer's own callback) and around each
encoding pass, so every epoch, two thirds of a second long, lies
between two samples.

Why it exists: the only workload where ``nn``, ``core.tower``, the
``core.model`` batching and ``core.trainer`` do the work; serving code
is bypassed entirely.
"""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, NamedTuple

import numpy as np

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.trainer import RepresentationTrainer
from repro.text.documents import EncodedEvent, EncodedUser

from bench.env import peak_rss_mb
from bench.hostspeed import NOMINAL_S, TRAINING, HostSpeed
from bench.layers import span_metrics
from bench.plans import TRAIN_SHARD, train_plan
from bench.stack import WORLD_SEED, World, build_world
from bench.stats import overhead_pct
from bench.tracing import Bill, SpanTracer
from bench.workloads.base import Outcome, RunContext, Tally

EPOCHS = 2
BATCH_SIZE = 64
WARMUP_STEPS = 8
ENCODED_EVENTS = 200
ENCODING_PASSES = 3


class Fit(NamedTuple):
    """One timed fit.  ``seconds`` leaves out the reference samples taken
    inside it; ``sampled`` are the times of those samples: one before
    the fit and one at the end of each epoch."""

    seconds: float
    step_seconds: list[float]
    sampled: list[float]

    def slowdown(self, host: HostSpeed) -> float:
        return host.slowdown(TRAINING, (self.sampled[0], self.sampled[-1]))

    def step_ms_at_nominal_speed(self, host: HostSpeed) -> list[float]:
        """Each epoch's step time by the two samples it lies between."""
        return [
            1000.0 * seconds / host.slowdown(TRAINING, (before, after))
            for seconds, before, after in zip(
                self.step_seconds, self.sampled, self.sampled[1:]
            )
        ]


class Shards:
    """Pre-encoded (user, event, label) pairs, cut into shards."""

    def __init__(self, world: World, seed: int, shard_size: int, host: HostSpeed) -> None:
        self.world = world
        self.seed = seed
        self.host = host
        users = {u.user_id: world.encoder.encode_user(u) for u in world.users}
        self.encoded_events = [world.encoder.encode_event(e) for e in world.events]
        events = {e.event_id: enc for e, enc in zip(world.events, self.encoded_events)}
        impressions = world.dataset.impressions
        self.users: list[EncodedUser] = [users[i.user_id] for i in impressions]
        self.events: list[EncodedEvent] = [events[i.event_id] for i in impressions]
        self.labels = np.array([i.participated for i in impressions], dtype=np.float64)
        self.plan = train_plan(seed, len(impressions), shard_size)
        self.size = self.plan["shard_size"]
        self.tally = Tally()
        self.losses: list[dict[str, list[float]]] = []
        self.encode_ms: list[float] = []
        self.tracer: SpanTracer | None = None

    def fresh_model(self) -> JointUserEventModel:
        return JointUserEventModel(JointModelConfig.bench(WORLD_SEED), self.world.encoder)

    def warm_up(self) -> None:
        """A few untimed steps on a throw-away model."""
        count = WARMUP_STEPS * BATCH_SIZE
        config = TrainingConfig(
            epochs=1, batch_size=BATCH_SIZE, validation_fraction=0.0, seed=self.seed
        )
        RepresentationTrainer(self.fresh_model(), config).fit(
            self.users[:count], self.events[:count], self.labels[:count]
        )

    def fit(self, shard: int) -> Fit:
        """Train one shard and record the loss checks."""
        starts = self.plan["shard_starts"]
        start = starts[shard % len(starts)]
        window = slice(start, start + self.size)
        config = TrainingConfig(
            epochs=EPOCHS,
            batch_size=BATCH_SIZE,
            validation_fraction=0.1,
            patience=99,
            seed=self.plan["training_seed"],
        )
        model = self.fresh_model()
        trainer = RepresentationTrainer(model, config)
        if self.tracer is not None:
            self.tracer.request.set(shard)  # a fit is this workload's request
        train_pairs = self.size - int(self.size * config.validation_fraction)
        steps = math.ceil(train_pairs / BATCH_SIZE)
        epoch_seconds: list[float] = []
        sampled = [self.sample_host()]
        sampling = 0.0

        def epoch_ended(_: int, stats: dict[str, float]) -> None:
            nonlocal sampling
            epoch_seconds.append(stats["seconds"])
            start = time.perf_counter()
            sampled.append(self.sample_host())
            sampling += time.perf_counter() - start

        began = time.perf_counter()
        history = trainer.fit(
            self.users[window],
            self.events[window],
            self.labels[window],
            on_epoch_end=epoch_ended,
        )
        seconds = time.perf_counter() - began - sampling
        losses = history.train_losses + history.validation_losses
        self.losses.append(
            {"train": history.train_losses, "validation": history.validation_losses}
        )
        self.tally.record(
            None
            if len(history.train_losses) == EPOCHS and all(math.isfinite(x) for x in losses)
            else f"shard {shard}: losses not finite or epochs missing: {losses}"
        )
        self.tally.record(
            None
            if history.train_losses[-1] < history.train_losses[0]
            else f"shard {shard}: train loss did not fall: {history.train_losses}"
        )
        self.encode_events(model)
        return Fit(seconds, [value / steps for value in epoch_seconds], sampled)

    def sample_host(self) -> float:
        """Take a reference sample; returns the time it is stamped with."""
        self.host.sample()
        return self.host.samples[-1][0]

    def fit_for(self, seconds: float, first_shard: int) -> list[Fit]:
        """Fit shard after shard until ``seconds`` are used (a shard is
        started only while at least half of it is expected to fit)."""
        fits: list[Fit] = []
        began = time.perf_counter()
        while not fits or (
            time.perf_counter() - began + 0.5 * statistics.median(fit.seconds for fit in fits)
            < seconds
        ):
            fits.append(self.fit(first_shard + len(fits)))
        return fits

    def encode_events(self, model: JointUserEventModel) -> None:
        """The trained towers, forward only, over the first
        ``ENCODED_EVENTS`` events of the world: what publishing a
        trained model costs per event.  Done after every fit, so the
        passes are spread over the whole run; three passes, and the
        middle one counts, because one of them usually pays for a full
        garbage collection of everything training left behind."""
        events = self.encoded_events[:ENCODED_EVENTS]
        passes: list[float] = []
        sampled = self.sample_host()
        for _ in range(ENCODING_PASSES):
            began = time.perf_counter()
            vectors = model.encode_events(events)
            seconds = time.perf_counter() - began
            before, sampled = sampled, self.sample_host()
            slowdown = self.host.slowdown(TRAINING, (before, sampled))
            passes.append(1000.0 * seconds / slowdown / len(events))
            self.tally.record(
                None if np.isfinite(vectors).all() else "encoded event vectors are not finite"
            )
        self.encode_ms.append(statistics.median(passes))


def run(context: RunContext) -> Outcome:
    world = build_world(context.scale, context.host)
    shards = Shards(world, context.seed, TRAIN_SHARD[context.scale], context.host)
    context.host.sample()
    shards.warm_up()
    setup_s = context.setup_s()
    notes: dict[str, Any] = {"setup_seconds": world.seconds, "shard_size": shards.size}
    if context.traced:
        metrics = _traced(context, shards, notes)
    else:
        metrics = _untraced(context, shards, setup_s, notes)
    notes["losses"] = shards.losses
    return Outcome(metrics, shards.tally, notes)


def _untraced(
    context: RunContext, shards: Shards, setup_s: float, notes: dict[str, Any]
) -> dict[str, float]:
    fits = shards.fit_for(context.seconds, first_shard=0)
    pairs = EPOCHS * shards.size
    notes["samples"] = {
        "fits": len(fits),
        "epochs": sum(len(fit.step_seconds) for fit in fits),
        "encoding_passes": ENCODING_PASSES * len(shards.encode_ms),
    }
    notes["whole_run"] = {
        "examples_per_s": statistics.median(pairs / fit.seconds for fit in fits)
    }
    notes["host"] = context.host.summary()
    notes["epochs"] = {
        "step_ms": [1000.0 * seconds for fit in fits for seconds in fit.step_seconds],
        "slowdown": {
            kernel: [
                context.host.slowdown((kernel,), (before, after))
                for fit in fits
                for before, after in zip(fit.sampled, fit.sampled[1:])
            ]
            for kernel in NOMINAL_S
        },
    }
    # The unit of work behind the latency cells is an optimisation step
    # (mean of an epoch, with its share of the validation pass): the
    # median over all epochs, and over the slower epoch of each fit.
    step_ms = [fit.step_ms_at_nominal_speed(context.host) for fit in fits]
    step_p50 = statistics.median(value for fit in step_ms for value in fit)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": step_p50,
        "latency_p95_ms": statistics.median(max(fit) for fit in step_ms),
        "throughput_rps": 1000.0 / step_p50,
        "open_latency_p50_ms": step_p50,
        "examples_per_s": statistics.median(
            pairs / fit.seconds * fit.slowdown(context.host) for fit in fits
        ),
        "cold_event_ms": statistics.median(shards.encode_ms),
        "peak_rss_mb": peak_rss_mb(),
    }


def _traced(context: RunContext, shards: Shards, notes: dict[str, Any]) -> dict[str, float]:
    # The same shard untraced (twice: the first fit of a process runs
    # slow), then traced: equal work on both sides.
    shards.fit(0)
    plain = shards.fit(0)
    with SpanTracer() as tracer:
        shards.tracer = tracer
        traced = shards.fit(0)
        remaining = context.seconds - 2 * plain.seconds - traced.seconds
        if remaining > 0:
            shards.fit_for(remaining, first_shard=1)
        shards.tracer = None
    context.dump_spans("train_epochs", tracer.spans)
    notes["samples"] = {"spans": len(tracer.spans)}
    metrics = span_metrics(Bill(tracer.spans), tracer.counts)
    metrics["bench.trace_overhead_pct"] = overhead_pct(
        traced.seconds / traced.slowdown(context.host),
        plain.seconds / plain.slowdown(context.host),
    )
    return metrics
