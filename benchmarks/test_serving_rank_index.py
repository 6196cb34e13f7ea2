"""Batched top-K retrieval benchmark: EventIndex vs the reference loop.

The serving-path argument for the index (paper Section 4): once event
vectors are precomputed, ranking a candidate pool should cost one
matrix–vector product plus an ``argpartition`` — not a Python loop of
per-pair cosines.  This bench measures
:meth:`RepresentationService.rank_events` against the brute-force
reference (``tests/reference.py``) over growing candidate pools,
checks they return the same rankings, and records the speedup.  The
acceptance bar is ≥ 10× at the 10 000-event pool.

Vectors are pre-seeded straight into the cache under their correct
versions so the measurement isolates ranking cost from tower
inference (the quantity ``test_serving_throughput`` already covers).
"""

import time

import numpy as np

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.entities import Event, User
from repro.store.cache import VectorCache
from repro.text.documents import DocumentEncoder
from tests.reference import rank_events_loop

from .conftest import write_result

TOP_K = 10
_WORDS = (
    "wine tasting gallery opening marathon training book club jazz "
    "night street food festival hackathon charity run museum tour"
).split()


def _make_events(count: int, rng: np.random.Generator) -> list[Event]:
    return [
        Event(
            event_id=i,
            title=" ".join(rng.choice(_WORDS, size=3)),
            description=" ".join(rng.choice(_WORDS, size=6)),
            category=f"cat_{i % 7}",
            created_at=0.0,
            starts_at=1.0e9,
        )
        for i in range(count)
    ]


def _make_service(seed: int = 0) -> tuple[RepresentationService, User]:
    user = User(
        user_id=0,
        keywords=["wine", "jazz", "marathon"],
        page_titles=["food festival weekly", "city running club"],
    )
    seed_events = _make_events(4, np.random.default_rng(seed))
    encoder = DocumentEncoder.fit([user], seed_events, min_df=1)
    model = JointUserEventModel(JointModelConfig.bench(seed=seed), encoder)
    return RepresentationService(model, VectorCache()), user


def _prime(
    service: RepresentationService,
    user: User,
    events: list[Event],
    rng: np.random.Generator,
) -> None:
    """Seed cached vectors under their true versions — no tower calls."""
    dim = service.model.config.representation_dim
    service.cache.put("user", user.user_id, service.user_version(user),
                      rng.normal(size=dim))
    for event in events:
        service.cache.put("event", event.event_id,
                          service.event_version(event), rng.normal(size=dim))


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_indexed_vs_loop_ranking(bench_scale):
    pools = (1_000, 10_000) if bench_scale == "ci" else (1_000, 10_000, 50_000)
    rng = np.random.default_rng(7)
    lines = [
        f"SERVING — indexed vs per-event-loop ranking (top_k={TOP_K}, "
        f"dim={JointModelConfig.bench().representation_dim})"
    ]
    speedups: dict[int, float] = {}
    for pool in pools:
        service, user = _make_service()
        events = _make_events(pool, rng)
        _prime(service, user, events, rng)

        indexed = service.rank_events(user, events, top_k=TOP_K)
        loop = rank_events_loop(service, user, events, top_k=TOP_K)
        assert ([r.event.event_id for r in indexed]
                == [r.event.event_id for r in loop])
        assert np.allclose([r.score for r in indexed],
                           [r.score for r in loop], atol=1e-9)

        loop_repeats = 3 if pool >= 50_000 else 5
        t_loop = _best_of(
            lambda: rank_events_loop(service, user, events, top_k=TOP_K),
            loop_repeats,
        )
        t_indexed = _best_of(
            lambda: service.rank_events(user, events, top_k=TOP_K),
            10,
        )
        speedups[pool] = t_loop / t_indexed
        lines.append(
            f"  pool={pool:>6}  loop={t_loop * 1e3:9.3f}ms  "
            f"indexed={t_indexed * 1e3:8.3f}ms  "
            f"speedup={speedups[pool]:7.1f}x"
        )

    # Batch serving: many users against one pool in a single GEMM.
    batch_pool = 10_000
    batch_users = [
        User(user_id=i, keywords=["wine", "jazz"]) for i in range(1, 33)
    ]
    service, user = _make_service()
    events = _make_events(batch_pool, rng)
    _prime(service, user, events, rng)
    dim = service.model.config.representation_dim
    for other in batch_users:
        service.cache.put("user", other.user_id,
                          service.user_version(other), rng.normal(size=dim))
    service.rank_events_batch(batch_users, events, top_k=TOP_K)  # warm index
    t_batch = _best_of(
        lambda: service.rank_events_batch(batch_users, events, top_k=TOP_K),
        5,
    )
    per_user = t_batch / len(batch_users)
    lines.append(
        f"  batch: users={len(batch_users)} pool={batch_pool}  "
        f"total={t_batch * 1e3:.3f}ms  per-user={per_user * 1e3:.3f}ms"
    )

    write_result("serving_rank_index", "\n".join(lines))
    assert speedups[10_000] >= 10.0
