"""Serving-path facade: cached encoding + indexed scoring + ranking.

Section 4 of the paper describes the production serving design:
representation vectors are pre-computed once per entity, cached, and
only recomputed "upon creation and important information change".
:class:`RepresentationService` implements that path on top of a
trained :class:`~repro.core.model.JointUserEventModel`, a
:class:`~repro.store.cache.VectorCache`, and an
:class:`~repro.store.index.EventIndex`, and exposes the recommendation
primitive — rank the *currently active* events for a user.

There is one serving path, and it works on id arrays — which it builds
once per pool and row layout, not once per request.  A pool's ids are
read into an ``int64`` array and resolved to index rows the first time
the pool is ranked; that :class:`~repro.store.index.ResolvedPool` is
kept (a small LRU keyed by the pool list's identity) and handed back to
the index on every later call, which re-resolves it only if a row was
inserted or removed since (the index's *epoch*).  A repeat request over
an unchanged pool therefore goes straight to activity mask → one
matrix-vector product → top-K: ``np.argpartition``, ordered by
``(-score, event_id)``, with ``ScoredEvent`` objects built for the
selected rows only, never for the pool.  For one user the product
copies no rows when the pool holds a quarter of the index or more: the
index scores its live matrix in place and picks the pool's scores.  The
same pass reports the candidates the index holds no row for — those are
batch-encoded, upserted and the pool scored again (first sight only).
A memoised pool is **validated on every hit** against a private shallow
copy of the list (list equality: one identity test per element), so an
edited, appended, shortened, re-sorted or id-recycled list just takes
the first-time path, and the first-time path is the repeat path with
the ids read first — there is one rank body.

Two contracts make that sound, and they belong together.  *Content
changes are announced*: following the paper's mutation-driven
invalidation model, ranking trusts rows keyed by ``event_id``, so a
changed title or description must go through
:meth:`RepresentationService.refresh_events` before ranking.
*``event_id`` is an event's identity*: the index's row table, its
``check_invariants``, the cache keys and the server's event table all
assume an ``Event`` keeps the id it was first seen with.  An id
reassigned in place on a memoised pool is the one edit list equality
cannot see; the events about to be served are therefore cross-checked
against the ids they were scored under, and a mismatch drops the memo
entry and ranks again from a fresh read — never an event served under
another event's score.

Users are trusted by id the same way.  A user is fingerprinted
(:meth:`RepresentationService.user_version`, a SHA-1 over its
canonical JSON) when it is first seen, to key its cache entry, and when
:meth:`RepresentationService.warm` announces it; every other rank or
score call serves the vector cached under its ``user_id`` without
hashing.  An in-place edit of a ``User`` that is not announced keeps
its old vector, as an unannounced event edit does.  The memo is the
cache entry itself (it holds the version), so it is bounded by
``VectorCache.capacity``; an evicted user is simply seen again.

:meth:`RepresentationService.rank_events_batch` ranks many users in one
GEMM against the same index — the multi-user serving primitive
large-scale two-tower systems are built around — through the same
private rank body and under the same contract: one pool, one
``at_time`` and one ``top_k`` for the whole cohort.

Scores reproduce the training-time cosine
(:func:`repro.nn.cosine.pair_cosine`) to float precision.  The
brute-force reference the parity suites compare against — a per-event
loop over :meth:`RepresentationService.score` — lives in
``tests/reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.model import JointUserEventModel
from repro.entities import Event, User
from repro.nn.cosine import pair_cosine
from repro.obs.drift import DriftMonitor
from repro.obs.registry import MetricsRegistry, get_registry
from repro.obs.trace import span
from repro.store.cache import VectorCache
from repro.store.index import EventIndex, ResolvedPool, top_k_order

__all__ = [
    "ScoredEvent",
    "ServingMonitors",
    "RepresentationService",
    "validate_top_k",
]

# Resolved pools a service keeps, least recently ranked dropped first:
# the standing pool(s) of a server plus room for one-off sub-pools to
# pass through without evicting them.
_POOL_MEMO_SIZE = 8


@dataclass(frozen=True)
class ScoredEvent:
    """One ranked recommendation candidate."""

    event: Event
    score: float


def _fingerprint(payload: dict) -> str:
    """Stable content hash used as the cache/index version tag."""
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()


def validate_top_k(top_k: int | None) -> int | None:
    """``top_k`` must be a positive integer (or None = full ranking).

    A negative value would silently slice from the wrong end
    (``scored[:-2]`` semantics); zero silently returns nothing.  Both
    are caller bugs — fail loudly.  Public so API boundaries (the
    serving HTTP layer, the CLI) apply exactly the ranking paths'
    validation instead of re-deriving it.
    """
    if top_k is None:
        return None
    try:
        top_k = int(top_k.__index__())
    except AttributeError:
        raise ValueError(
            f"top_k must be an integer >= 1 or None, got {top_k!r}"
        ) from None
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1 or None, got {top_k}")
    return top_k


class ServingMonitors:
    """Drift monitors over the serving-path model-output distributions.

    Two signals the latency telemetry cannot see, both functions of the
    model rather than of the pool.  The pool's size moves whenever an
    event is published or expires, which is the normal state of a live
    server, so it is read from the ``repro_serving_candidates``
    histogram and judged by no monitor:

    * ``serving_scores`` — the top-1 score of every served ranking, one
      number per ranking: the K scores of one ranking sit at that
      user's own level, so a window of them holds a few users and is
      not a sample of the traffic (DESIGN §8.3).  ``score`` calls feed
      nothing — a pair score is not a top-1, and would make a window
      depend on the route mix — nor does an empty ranking.  A shift
      here means the model's notion of a good match moved — the first
      symptom of index staleness or a bad model swap.
    * ``serving_user_norms`` — the L2 norm of each ranked user's
      vector, one per served ranking from either rank entrance
      (``score`` and ``user_vector`` feed nothing); a shifted norm
      distribution is the classic symptom of an embedding-space drift
      after incremental retraining.

    Observation is an O(1) append, gated on ``registry.enabled`` by
    the service; verdicts are computed (and exported as
    ``repro_drift_*`` gauges) only at snapshot time via the service's
    pull collector.
    """

    def __init__(self) -> None:
        self.scores = DriftMonitor("serving_scores", window=256)
        self.user_norms = DriftMonitor("serving_user_norms", window=128)

    @property
    def all(self) -> tuple[DriftMonitor, ...]:
        return (self.scores, self.user_norms)

    def collect(self, registry: MetricsRegistry) -> None:
        """Pull-style export of every monitor's current verdict."""
        for monitor in self.all:
            monitor.export(registry)


class RepresentationService:
    """Cached user/event encoding and indexed cosine ranking."""

    USER_KIND = "user"
    EVENT_KIND = "event"

    def __init__(self, model: JointUserEventModel, cache: VectorCache | None = None):
        self.model = model
        self.cache = cache if cache is not None else VectorCache()
        self.index = EventIndex()
        self.monitors = ServingMonitors()
        self._index_rebuilds = 0
        # id(pool list) → (private shallow copy, its resolved rows).
        self._pools_lock = threading.Lock()
        self._pools: OrderedDict[  # guarded-by: _pools_lock
            int, tuple[list[Event], ResolvedPool]
        ] = OrderedDict()
        self._collected_by: MetricsRegistry | None = None

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------

    def _obs(self) -> MetricsRegistry:
        """This call's registry, resolved at call time so telemetry
        enabled after construction is picked up.  Every public entry
        point starts here, and the first call under a registry installs
        the cache, index and drift collectors in it — so even a process
        serving only cache-hit ``score`` calls exports them, and no
        later call pays for the registration."""
        registry = get_registry()
        if registry is not self._collected_by and registry.enabled:
            registry.register_collector(
                f"repro_cache:{id(self.cache)}", self._collect_cache_metrics
            )
            registry.register_collector(
                f"repro_index:{id(self.index)}", self._collect_index_metrics
            )
            registry.register_collector(
                f"repro_drift:{id(self.monitors)}", self.monitors.collect
            )
            self._collected_by = registry
        return registry

    def _collect_cache_metrics(self, registry: MetricsRegistry) -> None:
        """Pull-style export of the cache's own stats at snapshot time."""
        stats = self.cache.stats
        registry.counter("repro_cache_hits_total").set_total(stats.hits)
        registry.counter("repro_cache_misses_total").set_total(stats.misses)
        registry.counter("repro_cache_stale_hits_total").set_total(stats.stale_hits)
        registry.counter("repro_cache_invalidations_total").set_total(
            stats.invalidations
        )
        registry.counter("repro_cache_evictions_total").set_total(stats.evictions)
        registry.gauge("repro_cache_hit_rate").set(stats.hit_rate)
        registry.gauge("repro_cache_size").set(len(self.cache))

    def _collect_index_metrics(self, registry: MetricsRegistry) -> None:
        """Pull-style export of the event index's maintenance stats."""
        stats = self.index.stats
        registry.gauge("repro_serving_index_size").set(len(self.index))
        registry.gauge("repro_serving_index_capacity").set(self.index.capacity)
        registry.counter("repro_serving_index_inserts_total").set_total(stats.inserts)
        registry.counter("repro_serving_index_refreshes_total").set_total(
            stats.refreshes
        )
        registry.counter("repro_serving_index_fresh_skips_total").set_total(
            stats.fresh_skips
        )
        registry.counter("repro_serving_index_removes_total").set_total(stats.removes)
        registry.counter("repro_serving_index_compactions_total").set_total(
            stats.compactions
        )
        registry.counter("repro_serving_index_grows_total").set_total(stats.grows)
        registry.counter("repro_serving_index_rebuilds_total").set_total(
            self._index_rebuilds
        )

    # ------------------------------------------------------------------
    # vectors
    # ------------------------------------------------------------------

    def user_version(self, user: User) -> str:
        """Version tag covering every model-visible user attribute.

        Taken when a user is first seen and when :meth:`warm` announces
        it — the cache keys the user's vector by it — and on no other
        call: users are trusted by id, like indexed events.
        """
        return _fingerprint(user.to_dict())

    def event_version(self, event: Event) -> str:
        """Version tag covering the event's model-visible text."""
        return _fingerprint(
            {
                "title": event.title,
                "description": event.description,
                "category": event.category,
            }
        )

    def _vectors(
        self,
        kind: str,
        entities: Sequence[User] | Sequence[Event],
        keys: Sequence[tuple[int, str | None]],
        lookup: Callable[[str, int, str | None], np.ndarray | None],
        registry: MetricsRegistry,
    ) -> list[np.ndarray]:
        """One vector per entity, aligned with ``entities``.

        ``keys`` holds each entity's ``(id, version)``.  Every distinct
        key is looked up once through ``lookup`` (``cache.get``, or the
        recency-neutral ``cache.peek`` when warming) and, on a miss,
        encoded once: a cohort assembled from concurrent requests can
        name the same cold entity several times, and that costs one
        counted miss and one row of one batched tower call, not several.
        A version of ``None`` (a user trusted by id) takes whatever is
        cached under the id, and is fingerprinted only on a miss, to
        key the new entry.
        """
        resolved: dict[tuple[int, str | None], np.ndarray | None] = {}
        pending: list[tuple[tuple[int, str | None], User | Event]] = []
        for key, entity in zip(keys, entities):
            if key not in resolved:
                resolved[key] = lookup(kind, *key)
                if resolved[key] is None:
                    pending.append((key, entity))
        if pending:
            model, encoder = self.model, self.model.encoder
            if kind == self.USER_KIND:
                encode_one, encode_batch = encoder.encode_user, model.encode_users
            else:
                encode_one, encode_batch = encoder.encode_event, model.encode_events
            with span("repro_serving_encode", tags={"kind": kind}, registry=registry):
                batch = encode_batch([encode_one(entity) for _, entity in pending])
            for (key, entity), vector in zip(pending, batch):
                entity_id, version = key
                if version is None:
                    version = self.user_version(entity)
                self.cache.put(kind, entity_id, version, vector)
                resolved[key] = vector
        return [resolved[key] for key in keys]

    def _user_vectors(
        self, users: Sequence[User], registry: MetricsRegistry, announce: bool = False
    ) -> list[np.ndarray]:
        """One vector per user, trusted by id unless ``announce``
        (:meth:`warm`) re-fingerprints each user against its entry."""
        if announce:
            keys = [(user.user_id, self.user_version(user)) for user in users]
            return self._vectors(self.USER_KIND, users, keys, self.cache.peek, registry)
        keys = [(user.user_id, None) for user in users]
        return self._vectors(self.USER_KIND, users, keys, self.cache.get, registry)

    def user_vector(self, user: User) -> np.ndarray:
        """v_u: the vector cached under the user's id, encoded at first
        sight; an edited profile is served once :meth:`warm` announces it."""
        (vector,) = self._user_vectors([user], self._obs())
        return vector

    def event_vector(self, event: Event) -> np.ndarray:
        """v_e, from cache when current, recomputed otherwise."""
        key = (event.event_id, self.event_version(event))
        (vector,) = self._vectors(
            self.EVENT_KIND, [event], [key], self.cache.get, self._obs()
        )
        return vector

    def warm(self, users: Sequence[User], events: Sequence[Event]) -> None:
        """Batch-precompute vectors for a cohort (the production
        "computed upon creation" path).  Warmed events are also
        upserted into the retrieval index.

        This is also how a changed user is *announced*: every user
        given is fingerprinted again, and one whose profile changed is
        re-encoded, so the next ``rank_events``, ``rank_events_batch``
        or ``score`` serves the new vector (events are announced
        through :meth:`refresh_events`).  Entries already cached under
        their current version are counted as hits and skipped through
        the recency-neutral ``cache.peek``: re-encoding them would only
        burn tower inference, and touching them would churn the LRU
        order of the live working set.
        """
        registry = self._obs()
        with span("repro_serving_warm", registry=registry):
            self._user_vectors(users, registry, announce=True)
            versions = [self.event_version(event) for event in events]
            self._index_events(events, versions, self.cache.peek, registry)
        if registry.enabled:
            registry.counter("repro_serving_warmed_total", tags={"kind": "user"}).inc(
                len(users)
            )
            registry.counter("repro_serving_warmed_total", tags={"kind": "event"}).inc(
                len(events)
            )

    # ------------------------------------------------------------------
    # index maintenance
    # ------------------------------------------------------------------

    def _index_events(
        self,
        events: Sequence[Event],
        versions: Sequence[str],
        lookup: Callable[[str, int, str], np.ndarray | None],
        registry: MetricsRegistry,
    ) -> None:
        """Upsert each event under its version, resolving its vector."""
        keys = [(event.event_id, version) for event, version in zip(events, versions)]
        vectors = self._vectors(self.EVENT_KIND, events, keys, lookup, registry)
        for event, version, vector in zip(events, versions, vectors):
            self.index.upsert(event, version, vector)

    def refresh_events(self, events: Sequence[Event]) -> int:
        """Ensure the index holds a current vector for each event.

        This is the "important information change" hook: versions are
        fingerprinted, stale or missing rows are re-encoded (cache
        first, batched tower inference for the rest) and upserted.
        An event named more than once counts once, as its last mention.
        Returns the number of rows that needed new vectors.
        """
        registry = self._obs()
        stale: list[Event] = []
        versions: list[str] = []
        for event in {event.event_id: event for event in events}.values():
            version = self.event_version(event)
            if self.index.version(event.event_id) == version:
                try:
                    self.index.upsert(event, version)  # refresh activity window
                    continue
                except ValueError:
                    pass  # removed since the version check: index it again
            stale.append(event)
            versions.append(version)
        self._index_events(stale, versions, self.cache.get, registry)
        return len(stale)

    def remove_event(self, event_id: int) -> bool:
        """Drop an event from the index and cache (e.g. on deletion)."""
        removed = self.index.remove(event_id)
        self.cache.invalidate(self.EVENT_KIND, event_id)
        return removed

    def rebuild_index(self) -> None:
        """Clear the index and re-insert its current rows.

        For model swaps or suspected corruption.  Note the vectors come
        back through the cache: a caller swapping the *model* should
        ``cache.clear()`` first so every row is re-encoded.
        """
        events = self.index.events
        self.index.clear()
        self._index_rebuilds += 1
        self.refresh_events(events)

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------

    def score(self, user: User, event: Event) -> float:
        """s_θ(u, e): cosine of the cached representation vectors.

        Routed through :func:`repro.nn.cosine.pair_cosine` so the
        served score is bit-identical to
        :meth:`JointUserEventModel.similarity` on the same pair.
        """
        with span("repro_serving_score", registry=self._obs()):
            return pair_cosine(self.user_vector(user), self.event_vector(event))

    def rank_events(
        self,
        user: User,
        events: Sequence[Event],
        at_time: float | None = None,
        top_k: int | None = None,
    ) -> list[ScoredEvent]:
        """Rank candidate events for a user by representation score.

        Args:
            user: the user to recommend for.
            events: candidate pool.  Rows already indexed are trusted
                by ``event_id``; announce content changes with
                :meth:`refresh_events` first.
            at_time: if given, events not active at this time are
                excluded (expired events "are no longer eligible for
                any further consideration", Section 1).
            top_k: truncate the ranking; must be >= 1 (or None).
        """
        top_k = validate_top_k(top_k)
        registry = self._obs()
        with span("repro_serving_rank", registry=registry):
            (ranking,), num_candidates = self._rank(
                user, events, at_time, top_k, registry
            )
        if registry.enabled:
            registry.counter("repro_serving_rank_total").inc()
            self._observe_rankings(registry, num_candidates, [ranking])
        return ranking

    def rank_events_batch(
        self,
        users: Sequence[User],
        events: Sequence[Event],
        at_time: float | None = None,
        top_k: int | None = None,
    ) -> list[list[ScoredEvent]]:
        """Rank one candidate pool for many users in one GEMM.

        The user vectors (cache-aware, misses batch-encoded) form a
        ``(num_users, dim)`` matrix scored against the index in a
        single matrix-matrix product; each row then goes through the
        same ``argpartition`` + ``(-score, event_id)`` selection as
        :meth:`rank_events`.  Returns one ranking per user, in input
        order: each is the list :meth:`rank_events` returns for that
        user with the same arguments (same ids and order, scores within
        1e-9 — a multi-row GEMM sums in another order than the GEMV).
        """
        top_k = validate_top_k(top_k)
        registry = self._obs()
        with span("repro_serving_rank_batch", registry=registry):
            rankings, num_candidates = self._rank(
                users, events, at_time, top_k, registry
            )
        if registry.enabled:
            registry.counter("repro_serving_rank_batch_total").inc()
            registry.counter("repro_serving_rank_total").inc(len(users))
            registry.histogram("repro_serving_rank_batch_users").observe(len(users))
            self._observe_rankings(registry, num_candidates, rankings)
        return rankings

    def _rank(
        self,
        users: User | Sequence[User],
        events: Sequence[Event],
        at_time: float | None,
        top_k: int | None,
        registry: MetricsRegistry,
    ) -> tuple[list[list[ScoredEvent]], int]:
        """The rank body: one ranking per user, and the candidate count.

        A single ``User`` is scored with one matrix-vector product
        (:meth:`EventIndex.score_ids`), a cohort with one matrix-matrix
        product (:meth:`EventIndex.score_ids_batch`); everything around
        the product is shared.  The pool goes in as the
        :class:`ResolvedPool` remembered for this list, or, first time,
        as ids just read; either way the epoch check (and any resolve),
        activity filtering and the product run atomically inside the
        index — under concurrent index mutation, rows resolved
        separately could move (swap-with-last compaction) before the
        product ran — and the pool comes back as scored, to be
        remembered.  Its ``absent`` candidates are encoded, upserted and
        the pool scored again.  ``ScoredEvent``s are built for the
        selected rows only.  The count is the number of candidates
        scored: present, and active at ``at_time``.  Every ranked user's
        vector norm goes to the drift monitor, once per ranking served.
        """
        single = isinstance(users, User)
        num_users = 1 if single else len(users)
        if num_users == 0 or not events:
            return [[] for _ in range(num_users)], 0
        if single:
            score, query = self.index.score_ids, self.user_vector(users)
        else:
            score = self.index.score_ids_batch
            query = np.vstack(self._user_vectors(users, registry))
        remembered = self._recall(events)
        snapshot, pool = remembered or self._read(events)
        positions, score_rows, resolved = score(query, pool, at_time)
        if resolved.absent.size:
            self.refresh_events([snapshot[i] for i in resolved.absent.tolist()])
            positions, score_rows, resolved = score(query, resolved, at_time)
        if resolved is not pool:
            self._remember(events, snapshot, resolved)
        selected_ids = resolved.ids[positions]
        rankings = []
        with span("repro_serving_topk", registry=registry):
            for scores in np.atleast_2d(score_rows):
                order = top_k_order(scores, selected_ids, top_k)
                served = [events[position] for position in positions[order].tolist()]
                if remembered is not None and selected_ids[order].tolist() != [
                    event.event_id for event in served
                ]:
                    # An event_id reassigned in place on a remembered
                    # pool: forget it and rank from a fresh read.
                    with self._pools_lock:
                        self._pools.pop(id(events), None)
                    return self._rank(users, events, at_time, top_k, registry)
                rankings.append(
                    [
                        ScoredEvent(event=event, score=value)
                        for event, value in zip(served, scores[order].tolist())
                    ]
                )
        if registry.enabled:
            for vector in np.atleast_2d(query):
                self.monitors.user_norms.observe(math.sqrt(vector @ vector))
        return rankings, int(positions.size)

    @staticmethod
    def _read(events: Sequence[Event]) -> tuple[list[Event], np.ndarray]:
        """A pool at first sight: a private shallow copy, and its ids."""
        snapshot = list(events)
        ids = np.fromiter(
            (event.event_id for event in snapshot), dtype=np.int64, count=len(snapshot)
        )
        return snapshot, ids

    def _recall(
        self, events: Sequence[Event]
    ) -> tuple[list[Event], ResolvedPool] | None:
        """What was remembered for this pool list, if it still says so.

        Keyed by the list's identity and validated on every hit against
        the private copy: list equality tests each element's identity
        first (≈ 15–20 µs at 20 000 events), so an edited, appended,
        shortened, re-sorted or id-recycled list is simply not recalled
        — nor is a pool that is not a list.
        """
        with self._pools_lock:
            entry = self._pools.get(id(events))
            if entry is not None:
                self._pools.move_to_end(id(events))
        if entry is not None and isinstance(events, list) and entry[0] == events:
            return entry
        return None

    def _remember(
        self, events: Sequence[Event], snapshot: list[Event], resolved: ResolvedPool
    ) -> None:
        with self._pools_lock:
            self._pools[id(events)] = (snapshot, resolved)
            self._pools.move_to_end(id(events))
            if len(self._pools) > _POOL_MEMO_SIZE:
                self._pools.popitem(last=False)

    def _observe_rankings(
        self,
        registry: MetricsRegistry,
        num_candidates: int,
        rankings: Sequence[Sequence[ScoredEvent]],
    ) -> None:
        """Feed one rank call's pool size and each ranking's top-1 score
        to telemetry."""
        registry.histogram("repro_serving_candidates").observe(num_candidates)
        observe = self.monitors.scores.observe
        for ranking in rankings:
            if ranking:
                observe(ranking[0].score)
