"""Serving facade: cached vectors, scoring, ranking."""

import dataclasses
import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import service as service_module
from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService, ServingMonitors
from repro.entities import Event, User
from repro.obs import MetricsRegistry, use_registry
from repro.serving.server import ServingServer, _RecommendWork
from repro.store.cache import VectorCache
from repro.store.index import EventIndex
from repro.text.documents import DocumentEncoder
from tests.reference import rank_events_loop

# The service's rank path and the reference it is held to, under one
# call shape: ranker(service, user, events, at_time=, top_k=).
RANKERS = {
    "indexed": RepresentationService.rank_events,
    "loop": rank_events_loop,
}


@pytest.fixture()
def service(tiny_users, tiny_events):
    encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
    model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
    return RepresentationService(model, VectorCache())


@pytest.fixture()
def observed(service):
    """``(registry, service)`` with telemetry on for the whole test."""
    with use_registry(MetricsRegistry()) as registry:
        yield registry, service


class TestCachedVectors:
    def test_second_lookup_hits_cache(self, service, tiny_users):
        service.user_vector(tiny_users[0])
        service.user_vector(tiny_users[0])
        assert service.cache.stats.hits == 1
        assert service.cache.stats.misses == 1

    def test_profile_change_invalidates(self, service, tiny_users):
        """"Vectors are only computed upon creation and important
        information change" — changing the profile must recompute."""
        user = tiny_users[0]
        before = service.user_vector(user).copy()
        changed = dataclasses.replace(
            user, keywords=[*user.keywords, "gourmet", "tasting", "chef"]
        )
        after = service.user_vector(changed)
        assert service.cache.stats.misses == 2
        assert not np.allclose(before, after)

    def test_event_text_change_invalidates(self, service, tiny_events):
        event = tiny_events[0]
        service.event_vector(event)
        changed = dataclasses.replace(event, description="totally new text")
        service.event_vector(changed)
        assert service.cache.stats.misses == 2

    def test_event_time_change_does_not_invalidate(self, service, tiny_events):
        """Only model-visible fields participate in the event version."""
        event = tiny_events[0]
        service.event_vector(event)
        moved = dataclasses.replace(event, starts_at=event.starts_at + 24)
        service.event_vector(moved)
        assert service.cache.stats.hits == 1

    def test_warm_precomputes(self, service, tiny_users, tiny_events):
        service.warm(tiny_users, tiny_events)
        for user in tiny_users:
            service.user_vector(user)
        assert service.cache.stats.misses == 0
        assert service.cache.stats.hits == len(tiny_users)
        for user, event in zip(tiny_users, tiny_events):
            service.score(user, event)
        assert service.cache.stats.hit_rate == 1.0


class TestScoring:
    def test_score_bit_identical_to_model_similarity(
        self, service, tiny_users, tiny_events
    ):
        """Serving routes through the training-time cosine — not a
        reimplementation with a different epsilon convention — so the
        served score is *exactly* the model's similarity."""
        model = service.model
        encoded_user = model.encoder.encode_user(tiny_users[0])
        encoded_event = model.encoder.encode_event(tiny_events[0])
        direct = float(model.similarity([encoded_user], [encoded_event])[0])
        assert service.score(tiny_users[0], tiny_events[0]) == direct

    def test_rank_excludes_expired_events(self, service, tiny_users, tiny_events):
        # Event 3 starts at t=44; at t=50 only events 1 (starts 48? no,
        # event 1 starts at 48) — at t=45 events 1 and 2 are active.
        for rank in RANKERS.values():
            ranked = rank(service, tiny_users[0], tiny_events, at_time=45.0)
            ids = {scored.event.event_id for scored in ranked}
            assert ids == {1, 2}

    def test_rank_sorted_descending(self, service, tiny_users, tiny_events):
        ranked = service.rank_events(tiny_users[0], tiny_events)
        scores = [scored.score for scored in ranked]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_truncates(self, service, tiny_users, tiny_events):
        ranked = service.rank_events(tiny_users[0], tiny_events, top_k=1)
        assert len(ranked) == 1


class TestTopKValidation:
    @pytest.mark.parametrize("bad", [-1, 0, -7, 2.5, "3"])
    @pytest.mark.parametrize("ranker", ["indexed", "loop"])
    def test_rank_rejects_bad_top_k(
        self, service, tiny_users, tiny_events, bad, ranker
    ):
        with pytest.raises(ValueError, match="top_k"):
            RANKERS[ranker](service, tiny_users[0], tiny_events, top_k=bad)

    @pytest.mark.parametrize("bad", [-1, 0])
    def test_batch_rejects_bad_top_k(self, service, tiny_users, tiny_events, bad):
        with pytest.raises(ValueError, match="top_k"):
            service.rank_events_batch(tiny_users, tiny_events, top_k=bad)

    def test_numpy_integer_top_k_accepted(self, service, tiny_users, tiny_events):
        ranked = service.rank_events(
            tiny_users[0], tiny_events, top_k=np.int64(2)
        )
        assert len(ranked) == 2

    def test_top_k_larger_than_pool_is_fine(self, service, tiny_users, tiny_events):
        for rank in RANKERS.values():
            ranked = rank(service, tiny_users[0], tiny_events, top_k=99)
            assert len(ranked) == len(tiny_events)


class TestIndexedParity:
    """The tentpole guarantee: indexed == brute force == model."""

    def _random_pool(self, size, seed):
        rng = np.random.default_rng(seed)
        words = [
            "jazz", "sax", "food", "chef", "run", "race", "art", "film",
            "code", "club", "night", "fair", "park", "music", "band",
        ]
        events = []
        for event_id in range(size):
            text = " ".join(rng.choice(words, size=6))
            created = float(rng.uniform(0, 50))
            events.append(
                Event(
                    event_id=event_id,
                    title=f"event {event_id}",
                    description=text,
                    category=str(rng.choice(["music_live", "food_tasting"])),
                    created_at=created,
                    starts_at=created + float(rng.uniform(1, 100)),
                )
            )
        return events

    # (size, seed).  The last pool is the only one past the index's
    # first growth and far past top_k, where the argpartition cut does
    # the selecting; its vectors go straight into the cache under their
    # true versions, so it costs no tower time.
    @pytest.mark.parametrize(
        "pool",
        [(60, 0), (60, 1), (60, 2), (2500, 3)],
        ids=["0", "1", "2", "primed2500"],
    )
    @pytest.mark.parametrize("at_time", [None, 40.0])
    @pytest.mark.parametrize("top_k", [None, 1, 7])
    def test_indexed_matches_loop_on_random_pools(
        self, service, tiny_users, pool, at_time, top_k
    ):
        size, seed = pool
        events = self._random_pool(size, seed)
        user = tiny_users[0]
        if size > 60:
            rng = np.random.default_rng(seed)
            dim = service.model.config.representation_dim
            service.cache.put(
                service.USER_KIND, user.user_id,
                service.user_version(user), rng.normal(size=dim),
            )
            for event in events:
                service.cache.put(
                    service.EVENT_KIND, event.event_id,
                    service.event_version(event), rng.normal(size=dim),
                )
        loop = rank_events_loop(
            service, user, events, at_time=at_time, top_k=top_k
        )
        indexed = service.rank_events(
            user, events, at_time=at_time, top_k=top_k
        )
        assert [s.event.event_id for s in indexed] == [
            s.event.event_id for s in loop
        ]
        assert np.allclose(
            [s.score for s in indexed], [s.score for s in loop], atol=1e-9
        )

    def test_three_way_parity(self, service, tiny_users):
        """indexed == loop == model.similarity, per pair."""
        events = self._random_pool(20, seed=5)
        user = tiny_users[0]
        indexed = service.rank_events(user, events)
        encoder = service.model.encoder
        encoded_user = encoder.encode_user(user)
        for scored in indexed:
            direct = float(
                service.model.similarity(
                    [encoded_user], [encoder.encode_event(scored.event)]
                )[0]
            )
            assert scored.score == pytest.approx(direct, abs=1e-9)

    def test_batch_matches_single_user_rank(self, service, tiny_users):
        events = self._random_pool(40, seed=3)
        batch = service.rank_events_batch(
            tiny_users, events, at_time=30.0, top_k=5
        )
        assert len(batch) == len(tiny_users)
        for user, rankings in zip(tiny_users, batch):
            single = rank_events_loop(
                service, user, events, at_time=30.0, top_k=5
            )
            assert [s.event.event_id for s in rankings] == [
                s.event.event_id for s in single
            ]
            assert np.allclose(
                [s.score for s in rankings],
                [s.score for s in single],
                atol=1e-9,
            )

    def test_duplicate_candidates_keep_parity(self, service, tiny_users):
        events = self._random_pool(10, seed=7)
        pool = events + events[:4]  # duplicates
        loop = rank_events_loop(service, tiny_users[0], pool)
        indexed = service.rank_events(tiny_users[0], pool)
        assert [s.event.event_id for s in indexed] == [
            s.event.event_id for s in loop
        ]

    def test_empty_pool(self, service, tiny_users):
        assert service.rank_events(tiny_users[0], []) == []
        assert service.rank_events_batch(tiny_users, []) == [[], [], []]
        assert service.rank_events_batch([], []) == []


class TestBatchEdgeCases:
    """rank_events_batch corners: they must all agree with rank_events."""

    def _assert_parity(self, service, users, events, **kwargs):
        batch = service.rank_events_batch(users, events, **kwargs)
        assert len(batch) == len(users)
        for user, rankings in zip(users, batch):
            single = service.rank_events(user, events, **kwargs)
            assert [s.event.event_id for s in rankings] == [
                s.event.event_id for s in single
            ]
            assert np.allclose(
                [s.score for s in rankings],
                [s.score for s in single],
                atol=1e-9,
            )

    def test_empty_user_list_with_events(self, service, tiny_events):
        assert service.rank_events_batch([], tiny_events) == []
        assert service.rank_events_batch([], tiny_events, top_k=2) == []

    def test_top_k_exceeds_pool(self, service, tiny_users, tiny_events):
        batch = service.rank_events_batch(tiny_users, tiny_events, top_k=99)
        assert all(
            len(rankings) == len(tiny_events) for rankings in batch
        )
        self._assert_parity(service, tiny_users, tiny_events, top_k=99)

    def test_all_zero_user_vector(self, service, tiny_users, tiny_events):
        """A degenerate user (zero vector) scores ~0 everywhere; the
        batch path must still produce the same deterministic id-break
        ordering as the per-user path."""
        user = tiny_users[0]
        dim = service.user_vector(user).shape[0]
        service.cache.put(
            service.USER_KIND,
            user.user_id,
            service.user_version(user),
            np.zeros(dim),
        )
        assert np.allclose(service.user_vector(user), 0.0)
        self._assert_parity(service, [user], tiny_events)
        (rankings,) = service.rank_events_batch([user], tiny_events)
        assert all(abs(s.score) < 1e-9 for s in rankings)
        # zero scores everywhere: ties break by ascending event id
        assert [s.event.event_id for s in rankings] == sorted(
            e.event_id for e in tiny_events
        )

    def test_single_user_batch_matches_rank_events(
        self, service, tiny_users, tiny_events
    ):
        self._assert_parity(
            service, tiny_users[:1], tiny_events, at_time=45.0, top_k=1
        )


def flush(service, users, events, shapes):
    """One flush through the server's runner over the pool ``events``:
    per user, ``(pool ids or None, at_time, top_k)`` as ``/recommend``
    resolves them."""
    server = ServingServer(service, users, events)
    return server._recommend_batch(
        [
            _RecommendWork(user, None if ids is None else frozenset(ids), at_time, k)
            for user, (ids, at_time, k) in zip(users, shapes)
        ]
    )


class TestEveryEntranceMatchesReference:
    """``rank_events``, a batch of one, a row of a many-user batch and
    a row of a server flush whose other requests ask for something else
    all go through the one rank body; each is held to the reference."""

    def _pool(self, case):
        pool = TestIndexedParity()._random_pool(30, seed=11)
        if case == "at_time":
            return pool, {"at_time": 40.0, "top_k": 5}
        if case == "boundary_tie":
            # Three copies of each text under scattered ids: every score
            # is a three-way tie, so top_k=4 cuts inside a tie group and
            # the cut must fall by ascending event id.
            copies = [
                dataclasses.replace(event, event_id=event.event_id + shift)
                for event in pool[:4]
                for shift in (200, 0, 100)
            ]
            return copies, {"top_k": 4}
        if case == "empty_pool":
            return [], {"top_k": 3}
        if case == "nan_time":
            # NaN is a time inside no window, not "no filter": that is
            # ``None``, on every entrance.
            return pool, {"at_time": float("nan"), "top_k": 3}
        assert case == "all_expired"
        return pool, {"at_time": 1.0e6, "top_k": 3}

    @pytest.mark.parametrize(
        "entrance",
        ["rank_events", "batch_of_one", "row_of_batch", "row_of_mixed_batch"],
    )
    @pytest.mark.parametrize(
        "case", ["at_time", "boundary_tie", "empty_pool", "all_expired", "nan_time"]
    )
    def test_parity(self, service, tiny_users, entrance, case):
        events, kwargs = self._pool(case)
        user = tiny_users[1]
        if entrance == "rank_events":
            got = service.rank_events(user, events, **kwargs)
        elif entrance == "batch_of_one":
            (got,) = service.rank_events_batch([user], events, **kwargs)
        elif entrance == "row_of_batch":
            got = service.rank_events_batch(tiny_users, events, **kwargs)[1]
        else:
            # The last request shares the row's shape: a group of two.
            shape = (None, kwargs.get("at_time"), kwargs["top_k"])
            got = flush(
                service,
                [*tiny_users, tiny_users[0]],
                events,
                [((), None, 1), shape, (None, 3.0, None), shape],
            )[1]
        want = rank_events_loop(service, user, events, **kwargs)
        if case in ("empty_pool", "all_expired", "nan_time"):
            assert want == []
        assert [s.event.event_id for s in got] == [
            s.event.event_id for s in want
        ]
        assert np.allclose(
            [s.score for s in got], [s.score for s in want], atol=1e-9
        )


class TestPerUserBatchMatchesReference:
    """A server flush whose requests each bring their own pool,
    ``at_time`` and ``top_k``: every answer is held to the reference
    run on that request's own pool."""

    def _assert_rows_match(self, service, users, events, at_time, top_k, subsets):
        got = flush(service, users, events, list(zip(subsets, at_time, top_k)))
        assert len(got) == len(users)
        for row, user, time, k, subset in zip(got, users, at_time, top_k, subsets):
            # A sub-pool is a set of ids: each named event ranks once.
            own = events if subset is None else list(
                {event.event_id: event for event in events if event.event_id in subset}.values()
            )
            want = rank_events_loop(service, user, own, at_time=time, top_k=k)
            assert [s.event.event_id for s in row] == [
                s.event.event_id for s in want
            ]
            assert np.allclose(
                [s.score for s in row], [s.score for s in want], atol=1e-9
            )
        return got

    @pytest.mark.parametrize("seed", [0, 1])
    def test_subsets_times_and_top_k(self, service, tiny_users, seed):
        events = TestIndexedParity()._random_pool(40, seed)
        rng = np.random.default_rng(seed)
        ids = [event.event_id for event in events]
        subsets = [
            None,
            frozenset(rng.choice(ids, size=12, replace=False).tolist()),
            set(),  # a user with no candidates of its own
        ]
        got = self._assert_rows_match(
            service, tiny_users, events, [30.0, None, 30.0], [5, None, 3], subsets
        )
        assert got[2] == []
        # ... and the same three users the other way round.
        self._assert_rows_match(
            service, tiny_users, events, [None, 45.0, None], [None, 2, 1],
            [subsets[1], None, frozenset(ids[::3])],
        )

    def test_tie_at_the_kth_boundary_inside_a_subset(self, service, tiny_users):
        """Three copies of each text under scattered ids: every score
        is a three-way tie, and each user's cut falls inside a tie group
        of its own subset, by ascending event id."""
        pool = TestIndexedParity()._random_pool(6, seed=11)
        copies = [
            dataclasses.replace(event, event_id=event.event_id + shift)
            for event in pool
            for shift in (200, 0, 100)
        ]
        ids = sorted(event.event_id for event in copies)
        self._assert_rows_match(
            service,
            tiny_users,
            copies,
            [None, None, None],
            [4, 2, 5],
            [None, frozenset(ids[1::2]), frozenset(ids[:7])],
        )

    def test_cold_events_named_twice_are_encoded_once(
        self, service, tiny_users, monkeypatch
    ):
        """Cold candidates anywhere in the pool, each named twice, cost
        one counted miss and one row of one tower call apiece — found by
        the scoring pass itself, not by asking the index per event."""
        events = TestIndexedParity()._random_pool(20, seed=4)
        cold = [events[3], events[17]]
        warm = [event for event in events if event not in cold]
        service.warm(tiny_users, warm)
        pool = [cold[1], *warm[:9], cold[0], *warm[9:], cold[0], cold[1]]
        encoded = []
        original = service.model.encode_events

        def counting_encode_events(batch):
            encoded.append(len(batch))
            return original(batch)

        def per_event_question(index, event_id):
            raise AssertionError("rank asked the index about one event")

        misses_before = service.cache.stats.misses
        subsets = [None, frozenset({cold[0].event_id, warm[0].event_id}), None]
        with monkeypatch.context() as patched:
            patched.setattr(service.model, "encode_events", counting_encode_events)
            patched.setattr(type(service.index), "__contains__", per_event_question)
            got = flush(
                service, tiny_users, pool, list(zip(subsets, [None, None, 20.0], [None, None, 6]))
            )
        assert encoded == [2]
        assert service.cache.stats.misses - misses_before == 2
        assert all(event.event_id in service.index for event in cold)
        want = self._assert_rows_match(
            service, tiny_users, pool, [None, None, 20.0], [None, None, 6], subsets
        )
        assert [[(s.event.event_id, s.score) for s in row] for row in got] == [
            [(s.event.event_id, s.score) for s in row] for row in want
        ]
        assert len(got[0]) == len(pool)  # a twice-named event ranks twice


def served(ranking):
    return [(scored.event.event_id, scored.score) for scored in ranking]


def assert_matches_reference(got, want):
    """Ids in the reference's ``(-score, event_id)`` order, scores to 1e-9."""
    assert [s.event.event_id for s in got] == [s.event.event_id for s in want]
    assert np.allclose([s.score for s in got], [s.score for s in want], atol=1e-9)


@pytest.fixture()
def resolves(monkeypatch):
    """Spy on ``EventIndex.resolve``: the length of every pool resolved."""
    seen = []
    resolve = EventIndex.resolve

    def counting_resolve(index, event_ids):
        seen.append(len(event_ids))
        return resolve(index, event_ids)

    monkeypatch.setattr(EventIndex, "resolve", counting_resolve)
    return seen


class TestResolvedPoolMemo:
    """A pool list is resolved once per index epoch, not once per call."""

    def test_repeat_calls_resolve_once_and_in_place_upserts_resolve_nothing(
        self, service, tiny_users, resolves
    ):
        pool = TestIndexedParity()._random_pool(30, seed=21)
        service.warm(tiny_users, pool)
        user = tiny_users[0]
        first = service.rank_events(user, pool, top_k=5)
        for _ in range(4):
            assert served(service.rank_events(user, pool, top_k=5)) == served(first)
        service.rank_events(user, pool, at_time=40.0)
        service.rank_events_batch(tiny_users, pool, at_time=30.0)
        assert resolves == [30]
        # "fresh": a moved window, same text; "refreshed": new text.
        # Neither moves a row, so neither costs a resolve — and both show.
        moved = dataclasses.replace(pool[3], created_at=90.0, starts_at=95.0)
        edited = dataclasses.replace(pool[4], description="jazz sax band night")
        assert service.refresh_events([moved, edited]) == 1
        pool[3], pool[4] = moved, edited
        for at_time in (None, 40.0, 92.0):
            assert_matches_reference(
                service.rank_events(user, pool, at_time=at_time),
                rank_events_loop(service, user, pool, at_time=at_time),
            )
        # The two in-place edits of the list itself did: one resolve.
        assert resolves == [30, 30]
        # An insert or a remove moves rows: one resolve each, then none.
        service.refresh_events([dataclasses.replace(pool[0], event_id=500)])
        service.rank_events(user, pool)
        service.rank_events(user, pool)
        service.remove_event(500)
        service.rank_events(user, pool)
        service.rank_events(user, pool)
        assert resolves == [30, 30, 30, 30]

    def test_memo_is_bounded_and_keeps_the_pool_in_use(
        self, service, tiny_users, resolves
    ):
        class Pool(list):
            """A list a weak reference can watch."""

        events = TestIndexedParity()._random_pool(12, seed=22)
        service.warm(tiny_users, events)
        user = tiny_users[0]
        standing = Pool(events)
        marker = events[0]
        watched = []
        for number in range(100):
            one_off = Pool([marker, *events[2 + number % 9 :]])
            watched.append(weakref.ref(one_off))
            service.rank_events(user, one_off, top_k=3)
            service.rank_events(user, standing, top_k=3)
            del one_off
        gc.collect()
        # The memo pins no caller's list, and holds a constant number of
        # copies of its own ...
        assert not any(ref() is not None for ref in watched)
        copies = [
            found
            for found in gc.get_objects()
            if type(found) is list and len(found) > 1 and found[0] is marker
        ]
        assert len(copies) <= service_module._POOL_MEMO_SIZE
        assert len(service._pools) <= service_module._POOL_MEMO_SIZE
        # ... and the standing pool, touched in between, was never evicted.
        assert resolves.count(len(standing)) == 1 and len(resolves) == 101

    def test_event_id_reassigned_in_place_is_never_served_a_stale_score(
        self, service, tiny_users, resolves
    ):
        """``event_id`` is an event's identity; reassigning it in place
        is the one edit of a remembered pool list equality cannot see.
        The defined outcome is a fresh read: every served event carries
        the score of the row its id names *now*."""
        events = TestIndexedParity()._random_pool(20, seed=23)
        service.warm(tiny_users, events)
        user = tiny_users[0]
        pool, other = events[:-1], events[-1]
        victim = service.rank_events(user, pool, top_k=1)[0].event
        assert served(service.rank_events(user, pool)) == served(
            service.rank_events(user, list(pool))
        )
        (others_score,) = (s.score for s in service.rank_events(user, [other]))
        victim.event_id = other.event_id
        got = service.rank_events(user, pool)
        assert served(got) == served(service.rank_events(user, list(pool)))
        assert dict(served(got))[other.event_id] == pytest.approx(others_score, abs=1e-12)
        assert [s.event for s in got].count(victim) == 1
        # The entry was dropped and rebuilt, and is a hit again.
        before = len(resolves)
        assert served(service.rank_events(user, pool)) == served(got)
        assert len(resolves) == before

    def test_an_unindexed_pool_is_remembered_after_its_first_sight(
        self, service, tiny_users, resolves
    ):
        pool = TestIndexedParity()._random_pool(15, seed=24)
        user = tiny_users[0]
        want = rank_events_loop(service, user, pool, top_k=4)
        for _ in range(3):
            assert_matches_reference(service.rank_events(user, pool, top_k=4), want)
        # Ids, then ids again once the absent rows were inserted.
        assert resolves == [15, 15]

    def test_tuple_pools_rank_without_being_remembered(self, service, tiny_users):
        pool = tuple(TestIndexedParity()._random_pool(10, seed=25))
        user = tiny_users[0]
        assert served(service.rank_events(user, pool)) == served(
            service.rank_events(user, list(pool))
        )
        assert service._recall(pool) is None


class TestIndexMaintenance:
    def test_rank_populates_index(self, service, tiny_users, tiny_events):
        service.rank_events(tiny_users[0], tiny_events)
        assert len(service.index) == len(tiny_events)

    def test_trusted_mode_serves_indexed_vector_until_refresh(
        self, service, tiny_users, tiny_events
    ):
        """The paper's contract is mutation-driven invalidation: the
        indexed fast path trusts rows by event_id; content changes
        must be announced (refresh_events) before ranking."""
        user = tiny_users[0]
        before = service.rank_events(user, tiny_events)
        changed = dataclasses.replace(
            tiny_events[0], description="totally different content now"
        )
        pool = [changed, *tiny_events[1:]]
        trusted = service.rank_events(user, pool)
        assert {s.event.event_id: s.score for s in trusted} == {
            s.event.event_id: s.score for s in before
        }
        service.refresh_events(pool)
        refreshed = service.rank_events(user, pool)
        oracle = rank_events_loop(service, user, pool)
        assert np.allclose(
            sorted(s.score for s in refreshed),
            sorted(s.score for s in oracle),
            atol=1e-9,
        )

    def test_refresh_then_rank_matches_reference(
        self, service, tiny_users, tiny_events
    ):
        """Announcing a pool fingerprints every candidate, re-encodes
        only the changed one, and the next ranking matches the
        reference in order."""
        user = tiny_users[0]
        service.rank_events(user, tiny_events)
        changed = dataclasses.replace(
            tiny_events[0], description="totally different content now"
        )
        pool = [changed, *tiny_events[1:]]
        assert service.refresh_events(pool) == 1
        verified = service.rank_events(user, pool)
        oracle = rank_events_loop(service, user, pool)
        assert [s.event.event_id for s in verified] == [
            s.event.event_id for s in oracle
        ]
        assert np.allclose(
            [s.score for s in verified],
            [s.score for s in oracle],
            atol=1e-9,
        )

    def test_refresh_events_returns_stale_count(
        self, service, tiny_events
    ):
        assert service.refresh_events(tiny_events) == len(tiny_events)
        assert service.refresh_events(tiny_events) == 0
        changed = dataclasses.replace(tiny_events[0], title="renamed!")
        assert service.refresh_events([changed, tiny_events[1]]) == 1

    def test_refresh_counts_an_event_named_twice_once(self, service, tiny_events):
        """One row needed one vector: the count is rows, and of two
        mentions of an id the last one is the event indexed."""
        new = dataclasses.replace(tiny_events[0], event_id=77)
        assert service.refresh_events([new, new]) == 1
        stats = service.index.stats
        assert (stats.inserts, stats.refreshes, stats.fresh_skips) == (1, 0, 0)
        early = dataclasses.replace(new, description="first draft", starts_at=30.0)
        late = dataclasses.replace(new, description="final text", starts_at=90.0)
        assert service.refresh_events([early, tiny_events[1], late]) == 2
        assert service.index.version(77) == service.event_version(late)
        assert service.index.events[service.index.row_of(77)] is late
        assert (stats.inserts, stats.refreshes, stats.fresh_skips) == (2, 1, 0)

    def test_refresh_survives_a_remove_between_check_and_upsert(
        self, service, tiny_events, monkeypatch
    ):
        """A remover winning between the version check and the
        vector-less upsert used to surface as ``ValueError`` out of
        ``refresh_events`` — and so out of a concurrent ``rank_events``."""
        service.refresh_events(tiny_events)
        event = tiny_events[0]
        current_version = service.index.version

        def version_then_lose_the_race(event_id):
            found = current_version(event_id)
            service.index.remove(event_id)
            return found

        monkeypatch.setattr(service.index, "version", version_then_lose_the_race)
        assert service.refresh_events([event]) == 1
        assert event.event_id in service.index
        service.index.check_invariants()

    def test_remove_event(self, service, tiny_users, tiny_events):
        service.rank_events(tiny_users[0], tiny_events)
        assert service.remove_event(tiny_events[0].event_id) is True
        assert service.remove_event(tiny_events[0].event_id) is False
        assert len(service.index) == len(tiny_events) - 1
        ranked = service.rank_events(tiny_users[0], tiny_events)
        assert len(ranked) == len(tiny_events)  # re-inserted on demand

    def test_rebuild_index(self, service, tiny_users, tiny_events):
        service.rank_events(tiny_users[0], tiny_events)
        before = {
            s.event.event_id: s.score
            for s in service.rank_events(tiny_users[0], tiny_events)
        }
        service.rebuild_index()
        assert len(service.index) == len(tiny_events)
        after = {
            s.event.event_id: s.score
            for s in service.rank_events(tiny_users[0], tiny_events)
        }
        for event_id, score in before.items():
            assert after[event_id] == pytest.approx(score, abs=1e-9)

    def test_non_finite_vector_cannot_empty_a_truncated_ranking(
        self, service, tiny_users, tiny_events
    ):
        """A NaN event vector is refused at the index boundary instead
        of turning every ``top_k`` ranking over its pool into ``[]``."""
        service.warm(tiny_users, tiny_events)
        poisoned = dataclasses.replace(tiny_events[0], event_id=99)
        dim = service.index.dim
        service.cache.put(
            service.EVENT_KIND,
            poisoned.event_id,
            service.event_version(poisoned),
            np.full(dim, np.nan),
        )
        with pytest.raises(ValueError, match="finite"):
            service.rank_events(tiny_users[0], [*tiny_events, poisoned], top_k=2)
        assert poisoned.event_id not in service.index
        assert len(service.rank_events(tiny_users[0], tiny_events, top_k=2)) == 2


class TestWarmSkipsFresh:
    def test_second_warm_does_not_re_encode(
        self, service, tiny_users, tiny_events, monkeypatch
    ):
        service.warm(tiny_users, tiny_events)
        hits_before = service.cache.stats.hits

        def boom(*args, **kwargs):
            raise AssertionError("warm re-encoded a fresh entity")

        monkeypatch.setattr(service.model, "encode_users", boom)
        monkeypatch.setattr(service.model, "encode_events", boom)
        service.warm(tiny_users, tiny_events)
        # Every skipped entity is accounted for as a cache hit.
        assert service.cache.stats.hits == hits_before + len(tiny_users) + len(
            tiny_events
        )

    def test_warm_does_not_churn_lru_order(self, service, tiny_users):
        service.warm(tiny_users, [])
        # Touch the first user so it becomes MRU.
        service.user_vector(tiny_users[0])
        before = list(service.cache._entries)
        service.warm(tiny_users, [])  # all fresh — order must not move
        assert list(service.cache._entries) == before

    def test_warm_re_encodes_changed_entities(
        self, service, tiny_users, tiny_events
    ):
        service.warm(tiny_users, tiny_events)
        changed = dataclasses.replace(
            tiny_events[0], description="brand new description"
        )
        service.warm([], [changed, *tiny_events[1:]])
        assert service.index.version(
            changed.event_id
        ) == service.event_version(changed)

    def test_warm_feeds_the_index(self, service, tiny_users, tiny_events):
        service.warm(tiny_users, tiny_events)
        assert len(service.index) == len(tiny_events)
        service.cache.clear()
        service.warm(tiny_users, tiny_events)  # cold cache → re-encode, re-upsert
        assert len(service.index) == len(tiny_events)


class TestServingMonitors:
    def test_serving_calls_feed_monitors(self, observed, tiny_users, tiny_events):
        _, service = observed
        service.rank_events(tiny_users[0], tiny_events)
        service.score(tiny_users[0], tiny_events[0])
        # Every top-K score plus the pair score lands in the monitor.
        assert service.monitors.scores.observed == len(tiny_events) + 1
        assert service.monitors.candidates.observed == 1
        assert service.monitors.user_norms.observed > 0

    def test_snapshot_exports_drift_verdicts(self, observed, tiny_users, tiny_events):
        registry, service = observed
        service.rank_events(tiny_users[0], tiny_events)
        exported = {
            (record["name"], record["tags"].get("monitor"))
            for record in registry.snapshot()
        }
        for monitor in ("serving_scores", "serving_candidates", "serving_user_norms"):
            assert ("repro_drift_ok", monitor) in exported
            assert ("repro_drift_live_samples", monitor) in exported

    @pytest.mark.parametrize("entrance", ["rank_events", "rank_events_batch"])
    def test_candidates_are_counted_after_the_activity_filter(
        self, observed, tiny_users, tiny_events, entrance
    ):
        """t=46 expires event 3 (starts 44) and keeps events 1 and 2:
        telemetry and the drift monitor see 2 candidates, not 3."""
        registry, service = observed
        if entrance == "rank_events":
            service.rank_events(tiny_users[0], tiny_events, at_time=46.0)
        else:
            service.rank_events_batch(tiny_users, tiny_events, at_time=46.0)
        (candidates,) = (
            record
            for record in registry.snapshot()
            if record["name"] == "repro_serving_candidates"
        )
        assert (candidates["count"], candidates["sum"]) == (1, 2)
        assert service.monitors.candidates.observed == 1

    def test_every_ranked_user_norm_is_observed(
        self, observed, tiny_users, tiny_events, monkeypatch
    ):
        """Both rank entrances feed ``serving_user_norms`` one norm per
        ranked user — a repeated user counts each time it is served —
        and ``warm``'s lookups feed it nothing."""
        _, service = observed
        norms = []
        monkeypatch.setattr(service.monitors.user_norms, "observe", norms.append)
        service.warm(tiny_users, tiny_events)
        assert norms == []
        cohort = [*tiny_users, tiny_users[0]]
        service.rank_events_batch(cohort, tiny_events, top_k=2)
        service.rank_events(tiny_users[1], tiny_events)
        got = list(norms)
        want = [np.linalg.norm(service.user_vector(u)) for u in [*cohort, tiny_users[1]]]
        assert got == pytest.approx(want, abs=1e-12)

    def test_score_only_process_exports_cache_and_index_gauges(
        self, service, tiny_users, tiny_events
    ):
        """Telemetry enabled after warm, then nothing but cache-hit
        ``score`` calls: the pull collectors must still be installed."""
        service.warm(tiny_users, tiny_events)
        with use_registry(MetricsRegistry()) as registry:
            service.score(tiny_users[0], tiny_events[0])
            exported = {record["name"] for record in registry.snapshot()}
        assert "repro_cache_hits_total" in exported
        assert "repro_serving_index_size" in exported
        assert "repro_drift_ok" in exported

    def test_disabled_registry_observes_nothing(
        self, service, tiny_users, tiny_events
    ):
        service.rank_events(tiny_users[0], tiny_events)
        service.score(tiny_users[0], tiny_events[0])
        assert all(monitor.observed == 0 for monitor in service.monitors.all)

    def test_rebaseline_restarts_every_monitor(self):
        monitors = ServingMonitors()
        monitors.scores.observe_many([1.0] * 600)
        assert not monitors.scores.warming
        monitors.rebaseline()
        assert all(monitor.warming for monitor in monitors.all)


class TestBatchUserDedupe:
    def test_duplicate_cold_users_encode_once(self, observed, tiny_users, tiny_events):
        """A cohort repeating one cold user costs one cache miss and
        one tower inference, and every copy gets the owner's rows."""
        _, service = observed
        service.warm([], tiny_events)
        model = service.model
        encode_calls = []
        original = model.encode_users

        def counting_encode_users(encoded):
            encode_calls.append(len(encoded))
            return original(encoded)

        model.encode_users = counting_encode_users
        cold = tiny_users[0]
        misses_before = service.cache.stats.misses
        rankings = service.rank_events_batch([cold, cold, cold], tiny_events)
        assert service.cache.stats.misses - misses_before == 1
        assert encode_calls == [1]
        first = [(item.event.event_id, item.score) for item in rankings[0]]
        for ranking in rankings[1:]:
            assert [
                (item.event.event_id, item.score) for item in ranking
            ] == first

    def test_drift_monitor_sees_exactly_the_served_scores(
        self, observed, tiny_users, tiny_events, monkeypatch
    ):
        """A server flush with its own pools, times and ``top_k``: the
        score monitor is fed the scores the runner returns, each once,
        and no score of a wider ranking cut down after the call."""
        _, service = observed
        service.warm(tiny_users, tiny_events)
        observed = []
        monkeypatch.setattr(service.monitors.scores, "observe", observed.append)
        rankings = flush(
            service,
            [*tiny_users, tiny_users[1]],
            tiny_events,
            [(None, None, 1), (None, 45.0, None), ({2, 3}, None, None), (None, None, 1)],
        )
        assert [len(ranking) for ranking in rankings] == [1, 2, 2, 1]
        assert sorted(observed) == sorted(
            item.score for ranking in rankings for item in ranking
        )


_MACHINE_WORDS = [
    "jazz", "sax", "food", "chef", "run", "race", "art", "film",
    "code", "club", "night", "fair", "park", "music", "band",
]


@functools.cache
def _machine_world():
    """Three users, a 14-event universe (``event_id`` = position) and
    one model over them, built once for every example."""
    users = [
        User(
            user_id=user_id,
            categorical={"age_bucket": "25-34", "gender": "other", "city": "c1"},
            keywords=keywords,
            page_titles=[" ".join(keywords)],
            page_ids=[user_id],
        )
        for user_id, keywords in enumerate(
            (["jazz", "sax", "band"], ["food", "chef", "fair"], ["run", "race", "park"])
        )
    ]
    universe = TestIndexedParity()._random_pool(14, seed=31)
    encoder = DocumentEncoder.fit(users, universe, min_df=1)
    model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
    return users, universe, model


class ReusedPoolMachine(RuleBasedStateMachine):
    """Index writes and in-place edits of one *reused* pool list,
    interleaved with every rank entrance over that same list.

    Whatever was remembered for the list, each answer is the
    reference's — ids in ``(-score, event_id)`` order, scores to 1e-9 —
    and bit-for-bit the answer a never-seen copy of the list gets.
    Content edits follow the announce contract: the new ``Event``
    replaces the old one in the pool and goes through ``refresh_events``.
    """

    picks = st.integers(0, 13)
    times = st.one_of(st.none(), st.floats(0.0, 120.0))
    cuts = st.one_of(st.none(), st.integers(1, 6))

    def __init__(self):
        super().__init__()
        self.users, universe, model = _machine_world()
        self.universe = list(universe)
        self.service = RepresentationService(model, VectorCache())
        self.pool = self.universe[:8]

    # -- index writes ---------------------------------------------------

    @rule(picked=st.lists(picks, max_size=4))
    def announce(self, picked):
        self.service.refresh_events([self.universe[pick] for pick in picked])

    @rule(pick=picks, salt=st.integers(0, 14), starts_at=st.floats(20.0, 150.0))
    def edit_and_announce(self, pick, salt, starts_at):
        words = [_MACHINE_WORDS[(salt + 2 * step) % 15] for step in range(5)]
        edited = dataclasses.replace(
            self.universe[pick], description=" ".join(words), starts_at=starts_at
        )
        self.universe[pick] = edited
        for position, event in enumerate(self.pool):
            if event.event_id == pick:
                self.pool[position] = edited
        self.service.refresh_events([edited])

    @rule(pick=picks)
    def remove(self, pick):
        self.service.remove_event(pick)

    @rule()
    def rebuild(self):
        self.service.rebuild_index()

    @rule()
    def clear(self):
        self.service.index.clear()

    # -- edits of the reused list, in place -----------------------------

    @precondition(lambda self: self.pool)
    @rule(position=st.integers(0, 40), pick=picks)
    def set_item(self, position, pick):
        self.pool[position % len(self.pool)] = self.universe[pick]

    @rule(pick=picks)
    def append(self, pick):
        self.pool.append(self.universe[pick])

    @precondition(lambda self: self.pool)
    @rule()
    def pop(self):
        self.pool.pop()

    @rule(reverse=st.booleans())
    def sort(self, reverse):
        self.pool.sort(key=lambda event: event.event_id, reverse=reverse)

    # -- every entrance, over the same list -----------------------------

    @rule(user=st.integers(0, 2), at_time=times, top_k=cuts)
    def rank(self, user, at_time, top_k):
        user = self.users[user]
        got = self.service.rank_events(user, self.pool, at_time=at_time, top_k=top_k)
        assert_matches_reference(
            got, rank_events_loop(self.service, user, self.pool, at_time=at_time, top_k=top_k)
        )
        # Ranking a pool leaves every candidate of it indexed.
        assert all(event.event_id in self.service.index for event in self.pool)
        unseen = list(self.pool)
        assert served(got) == served(
            self.service.rank_events(user, unseen, at_time=at_time, top_k=top_k)
        )

    @rule(at_time=times, top_k=cuts)
    def rank_batch(self, at_time, top_k):
        got = self.service.rank_events_batch(
            self.users, self.pool, at_time=at_time, top_k=top_k
        )
        for user, row in zip(self.users, got):
            assert_matches_reference(
                row,
                rank_events_loop(self.service, user, self.pool, at_time=at_time, top_k=top_k),
            )
        unseen = list(self.pool)
        assert [served(row) for row in got] == [
            served(row)
            for row in self.service.rank_events_batch(
                self.users, unseen, at_time=at_time, top_k=top_k
            )
        ]

    @invariant()
    def index_and_memo_are_sound(self):
        self.service.index.check_invariants()
        assert len(self.service._pools) <= service_module._POOL_MEMO_SIZE


TestReusedPoolMachine = ReusedPoolMachine.TestCase
TestReusedPoolMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
