"""Common set-up: the world, the towers and a warmed service.

Everything a workload measures is built here through the program's
public surface (``build_dataset``, ``DocumentEncoder``,
``JointUserEventModel``, ``RepresentationService``, ``VectorCache``).
The set-up also hands the correctness oracle its own copy of every
vector it will need, so checking an answer never reads the index or
the ranking path under test.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.datagen.config import DataConfig
from repro.datagen.dataset import EventRecDataset, build_dataset
from repro.entities import Event, User
from repro.text.documents import DocumentEncoder

from bench.hostspeed import PUBLISHING, HostSpeed

# Pool sizes per workload at each scale.  "quick" is the self-test
# scale: a world that builds in a fraction of a second.
POOL_SIZES = {
    "full": {"http_recommend": 2000, "rank_large_pool": 20000, "event_churn": 5000},
    "quick": {"http_recommend": 300, "rank_large_pool": 2000, "event_churn": 500},
}
REPLICA_NOISE = 0.05
COLD_BURSTS = {"full": 60, "quick": 4}
COLD_BURST_EVENTS = 20
# The world is the same on every run and ``--seed`` drives the plans
# (who asks, for what, when; which events are born and edited; which
# impressions are trained on).  A world drawn from the seed moved peak
# memory by +-4 % and the cold-start cost by +-7 % from seed to seed,
# as vocabulary and document lengths changed: wider than a third of
# those metrics' bounds, so a regression of that size could not be told
# from a change of seed.
WORLD_SEED = 0


def data_config(scale: str) -> DataConfig:
    return DataConfig.bench(WORLD_SEED) if scale == "full" else DataConfig.small(WORLD_SEED)


@dataclass
class World:
    """The entities and the untrained float32 towers over them."""

    dataset: EventRecDataset
    users: list[User]
    events: list[Event]
    encoder: DocumentEncoder
    model: JointUserEventModel
    seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class Stack:
    """A world plus a service warmed over a (replicated) event pool."""

    world: World
    service: RepresentationService
    pool: list[Event]
    user_vectors: dict[int, np.ndarray]
    event_vectors: dict[int, np.ndarray]


def build_world(scale: str, host: HostSpeed) -> World:
    """World, vocabularies and model; ``seconds`` itemises the cost.
    ``host`` is sampled between stages, here and in :func:`build_stack`,
    so set-up time can be read at the nominal speed of the host."""
    seconds: dict[str, float] = {}
    host.sample()
    start = time.perf_counter()
    dataset = build_dataset(data_config(scale))
    seconds["build_dataset"] = time.perf_counter() - start
    host.sample()
    # Explicit id order: plans address entities by position.
    users = sorted(dataset.users, key=lambda user: user.user_id)
    events = sorted(dataset.events, key=lambda event: event.event_id)
    start = time.perf_counter()
    encoder = DocumentEncoder.fit(users, events, min_df=1)
    seconds["encoder_fit"] = time.perf_counter() - start
    host.sample()
    model = JointUserEventModel(JointModelConfig.bench(WORLD_SEED), encoder)
    return World(dataset, users, events, encoder, model, seconds)


def replicate_events(
    base: list[Event], pool_size: int
) -> tuple[list[Event], list[Event]]:
    """Copy base events under fresh ids until the pool has ``pool_size``.

    Returns ``(replicas, sources)``, aligned.
    """
    if pool_size < len(base):
        raise ValueError(f"pool of {pool_size} is smaller than the {len(base)} base events")
    next_id = max(event.event_id for event in base) + 1
    replicas: list[Event] = []
    sources: list[Event] = []
    for offset in range(pool_size - len(base)):
        source = base[offset % len(base)]
        event_id = next_id + offset
        replicas.append(
            dataclasses.replace(
                source, event_id=event_id, title=f"{source.title} #{event_id}"
            )
        )
        sources.append(source)
    return replicas, sources


def cold_start_probe(stack: Stack, scale: str, host: HostSpeed) -> float:
    """Ms per event for a burst of never-seen events to become rankable
    through ``refresh_events``, with nothing else running: the median
    over bursts, at the nominal speed of the host.

    Every base event is republished twice under a fresh id, twenty to a
    burst.  The bursts are removed again, so the index is left as it
    was.  Workloads without a writer of their own report this as
    ``cold_event_ms``.
    """
    service, base = stack.service, stack.world.events
    first_id = max(event.event_id for event in stack.pool) + 1_000_000
    samples: list[float] = []
    began = time.perf_counter()
    for burst_number in range(COLD_BURSTS[scale]):
        host.sample_if_due()
        burst = [
            dataclasses.replace(
                base[(burst_number * COLD_BURST_EVENTS + offset) % len(base)],
                event_id=first_id + offset,
                title=f"cold start {burst_number}.{offset}",
            )
            for offset in range(COLD_BURST_EVENTS)
        ]
        start = time.perf_counter()
        encoded = service.refresh_events(burst)
        samples.append(time.perf_counter() - start)
        if encoded != len(burst):
            raise RuntimeError(f"cold-start probe encoded {encoded} of {len(burst)} events")
        for event in burst:
            service.remove_event(event.event_id)
    host.sample()
    slowdown = host.slowdown(PUBLISHING, (began, time.perf_counter()))
    return 1000.0 * statistics.median(samples) / slowdown / COLD_BURST_EVENTS


def build_stack(scale: str, pool_size: int, host: HostSpeed) -> Stack:
    """Warm a service over ``pool_size`` events.

    Base events go through the towers.  Replicas are seeded straight
    into the vector cache as ``base vector + N(0, 0.05)`` before ``warm``
    indexes them: a 20 000-row index then builds in about two seconds
    instead of half a minute of tower inference, and scores are not
    tied in blocks.
    """
    world = build_world(scale, host)
    service = RepresentationService(world.model)
    start = time.perf_counter()
    service.warm(world.users, [])
    world.seconds["warm_users"] = time.perf_counter() - start
    host.sample()
    start = time.perf_counter()
    service.warm([], world.events)
    world.seconds["warm_events"] = time.perf_counter() - start
    host.sample()

    start = time.perf_counter()
    user_vectors = {
        user.user_id: service.user_vector(user) for user in world.users
    }
    event_vectors = {
        event.event_id: service.event_vector(event) for event in world.events
    }
    replicas, sources = replicate_events(world.events, pool_size)
    rng = np.random.default_rng([WORLD_SEED, 0xE7])
    dim = world.model.config.representation_dim
    for replica, source in zip(replicas, sources):
        vector = event_vectors[source.event_id] + rng.normal(
            0.0, REPLICA_NOISE, size=dim
        )
        service.cache.put(
            service.EVENT_KIND,
            replica.event_id,
            service.event_version(replica),
            vector,
        )
        event_vectors[replica.event_id] = vector
    service.warm([], replicas)
    world.seconds["replicate_and_index"] = time.perf_counter() - start
    host.sample()
    if len(service.index) != pool_size:
        raise RuntimeError(
            f"set-up indexed {len(service.index)} rows, expected {pool_size}"
        )
    return Stack(world, service, world.events + replicas, user_vectors, event_vectors)
