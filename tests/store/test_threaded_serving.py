"""Thread-safety of the serving path: atomic scoring and stress parity.

The stress test races mutator threads (upserting and removing a churn
pool) against reader threads ranking a disjoint stable pool through
``score_ids`` + ``top_k_order``.  Mutations move rows (swap-with-last
removal, capacity growth reallocations) but never change stable
vectors, so every concurrent ranking must match the single-threaded
oracle — which is exactly the property the index lock protects.  The
last test races the server's batch runner — a flush of requests with
their own pools, times and ``top_k`` — against swap-with-last removes
of its own candidates, and the two after it race readers that *keep* a
resolved pool — the ``ResolvedPool`` value itself, and the one the
service remembers for a reused list — against removes and re-inserts
that move the very rows it names.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.entities import Event
from repro.serving.server import ServingServer, _RecommendWork
from repro.store.index import EventIndex, top_k_order
from repro.text.documents import DocumentEncoder


def make_event(
    event_id: int, created: float = 0.0, starts: float = 100.0
) -> Event:
    return Event(
        event_id=event_id,
        title=f"event {event_id}",
        description="",
        category="cat",
        created_at=created,
        starts_at=starts,
    )


class TestScoreIds:
    def test_missing_ids_are_skipped(self, rng):
        index = EventIndex()
        vectors = {i: rng.normal(size=6) for i in (1, 2, 3)}
        for event_id, vector in vectors.items():
            index.upsert(make_event(event_id), "v1", vector)
        query = rng.normal(size=6)
        positions, scores, _ = index.score_ids(query, [9, 1, 7, 3])
        assert positions.tolist() == [1, 3]
        expected = index.scores(query, np.array([index.row_of(1), index.row_of(3)]))
        np.testing.assert_array_equal(scores, expected)

    def test_at_time_filters_inactive(self, rng):
        index = EventIndex()
        index.upsert(make_event(1, created=0.0, starts=10.0), "v1", rng.normal(size=4))
        index.upsert(make_event(2, created=0.0, starts=90.0), "v1", rng.normal(size=4))
        positions, scores, _ = index.score_ids(rng.normal(size=4), [1, 2], at_time=50.0)
        # event 1 already started by t=50, only event 2 is active
        assert positions.tolist() == [1]
        assert scores.shape == (1,)
        # One time for a cohort drops the same rows for every query.
        positions, matrix, _ = index.score_ids_batch(
            rng.normal(size=(2, 4)), [1, 2], at_time=50.0
        )
        assert positions.tolist() == [1] and matrix.shape == (2, 1)

    def test_all_missing_returns_empty(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        positions, scores, _ = index.score_ids(rng.normal(size=4), [7, 8])
        assert positions.size == 0 and scores.size == 0

    def test_batch_matches_per_user(self, rng):
        index = EventIndex()
        for event_id in range(1, 6):
            index.upsert(make_event(event_id), "v1", rng.normal(size=8))
        queries = rng.normal(size=(3, 8))
        ids = [5, 9, 2, 1]
        positions, matrix, _ = index.score_ids_batch(queries, ids)
        assert matrix.shape == (3, positions.size)
        for i, query in enumerate(queries):
            solo_positions, solo_scores, _ = index.score_ids(query, ids)
            np.testing.assert_array_equal(positions, solo_positions)
            np.testing.assert_allclose(matrix[i], solo_scores, atol=1e-12)

    def test_batch_requires_2d_queries(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        with pytest.raises(ValueError, match="2-D"):
            index.score_ids_batch(rng.normal(size=4), [1])

    def test_batch_empty_resolution_shape(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        positions, matrix, _ = index.score_ids_batch(rng.normal(size=(2, 4)), [9])
        assert positions.size == 0
        assert matrix.shape == (2, 0)


def race(mutators, readers, reader_timeout=120.0):
    """Run ``mutators`` (each ``fn(stop)``, looping until ``stop`` is
    set) beside ``readers`` (each ``fn()``, run to completion) at a
    10 µs switch interval; re-raises the first failure of any thread."""
    stop = threading.Event()
    start = threading.Barrier(len(mutators) + len(readers))
    errors: list[BaseException] = []

    def guarded(fn, *args):
        try:
            start.wait()
            fn(*args)
        except BaseException as exc:  # pragma: no cover - failure path
            errors.append(exc)

    writing = [
        threading.Thread(target=guarded, args=(fn, stop), name="mutator")
        for fn in mutators
    ]
    reading = [threading.Thread(target=guarded, args=(fn,)) for fn in readers]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in writing + reading:
            thread.start()
        for thread in reading:
            thread.join(timeout=reader_timeout)
    finally:
        stop.set()
        for thread in writing:
            thread.join(timeout=30.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writing + reading)
    if errors:
        raise errors[0]


class NappingLock:
    """The index's own lock, except that a mutator thread yields the
    GIL the moment it has released it.  Whatever a writer does *after*
    its ``with self._lock:`` block — bumping the epoch there, say — then
    happens after a reader has had its turn, every time rather than once
    in ten thousand."""

    def __init__(self, lock):
        self._lock = lock

    def __enter__(self):
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        self._lock.__exit__(*exc_info)
        if threading.current_thread().name == "mutator":
            time.sleep(0)


@pytest.mark.threads
class TestConcurrentServingParity:
    STABLE = 32
    CHURN = 64
    DIM = 16
    MUTATORS = 4
    READERS = 4
    READS_PER_THREAD = 150
    TOP_K = 10

    def test_ranked_parity_under_churn(self):
        rng = np.random.default_rng(7)
        index = EventIndex(initial_capacity=4)

        stable_ids = list(range(self.STABLE))
        stable_vectors = rng.normal(size=(self.STABLE, self.DIM))
        for event_id in stable_ids:
            index.upsert(
                make_event(event_id), "v1", stable_vectors[event_id]
            )
        churn_ids = list(
            range(self.STABLE, self.STABLE + self.CHURN)
        )
        churn_vectors = rng.normal(size=(self.CHURN, self.DIM))

        queries = rng.normal(size=(self.READERS, self.DIM))
        ids_array = np.asarray(stable_ids, dtype=np.int64)

        # Single-threaded oracle: ranked stable ids per reader query.
        oracles = []
        for query in queries:
            positions, scores, _ = index.score_ids(query, stable_ids)
            order = top_k_order(scores, ids_array[positions], self.TOP_K)
            oracles.append(
                (ids_array[positions][order], scores[order])
            )

        stop = threading.Event()
        start = threading.Barrier(self.MUTATORS + self.READERS)
        errors: list[BaseException] = []

        def mutate(worker: int) -> None:
            local = np.random.default_rng(100 + worker)
            mine = churn_ids[worker :: self.MUTATORS]
            try:
                start.wait()
                while not stop.is_set():
                    event_id = int(local.choice(mine))
                    if event_id in index:
                        index.remove(event_id)
                    else:
                        index.upsert(
                            make_event(event_id),
                            f"v{int(local.integers(10))}",
                            churn_vectors[event_id - self.STABLE],
                        )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read(worker: int) -> None:
            query = queries[worker]
            oracle_ids, oracle_scores = oracles[worker]
            try:
                start.wait()
                for _ in range(self.READS_PER_THREAD):
                    positions, scores, _ = index.score_ids(query, stable_ids)
                    # stable events are never removed: all must resolve
                    assert positions.size == self.STABLE
                    order = top_k_order(
                        scores, ids_array[positions], self.TOP_K
                    )
                    ranked_ids = ids_array[positions][order]
                    np.testing.assert_array_equal(ranked_ids, oracle_ids)
                    np.testing.assert_allclose(
                        scores[order], oracle_scores, atol=1e-9
                    )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=mutate, args=(i,))
            for i in range(self.MUTATORS)
        ] + [
            threading.Thread(target=read, args=(i,))
            for i in range(self.READERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads[self.MUTATORS :]:
            thread.join()
        stop.set()
        for thread in threads[: self.MUTATORS]:
            thread.join()

        assert not errors, errors[0]
        index.check_invariants()
        for event_id in stable_ids:
            assert event_id in index

    def test_batch_reads_race_mutators(self):
        rng = np.random.default_rng(11)
        index = EventIndex(initial_capacity=4)
        stable_ids = list(range(16))
        for event_id in stable_ids:
            index.upsert(
                make_event(event_id), "v1", rng.normal(size=self.DIM)
            )
        churn_ids = list(range(16, 48))
        churn_vectors = rng.normal(size=(len(churn_ids), self.DIM))
        queries = rng.normal(size=(4, self.DIM))

        oracle_positions, oracle_matrix, _ = index.score_ids_batch(
            queries, stable_ids
        )

        stop = threading.Event()
        start = threading.Barrier(self.MUTATORS + 1)
        errors: list[BaseException] = []

        def mutate(worker: int) -> None:
            local = np.random.default_rng(200 + worker)
            mine = churn_ids[worker :: self.MUTATORS]
            try:
                start.wait()
                while not stop.is_set():
                    event_id = int(local.choice(mine))
                    if event_id in index:
                        index.remove(event_id)
                    else:
                        index.upsert(
                            make_event(event_id),
                            "v1",
                            churn_vectors[event_id - 16],
                        )
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=mutate, args=(i,))
            for i in range(self.MUTATORS)
        ]
        for thread in threads:
            thread.start()
        start.wait()
        try:
            for _ in range(100):
                positions, matrix, _ = index.score_ids_batch(
                    queries, stable_ids
                )
                np.testing.assert_array_equal(positions, oracle_positions)
                np.testing.assert_allclose(
                    matrix, oracle_matrix, atol=1e-9
                )
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors[0]
        index.check_invariants()

    def test_per_request_subset_batch_races_swap_with_last_removes(
        self, tiny_users, tiny_events
    ):
        """The server's runner over a flush whose requests bring their
        own pool, time and ``top_k`` — two of them sharing a shape, so
        both ``rank_events`` and ``rank_events_batch`` run — while
        mutators ``remove_event`` (swap-with-last) and republish half of
        the candidates: every returned ``(event_id, score)`` is that
        id's own cosine — never the score of the row that moved into its
        slot — and a candidate removed mid-call is either missing from
        the answer or correctly scored."""
        encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        service = RepresentationService(model)
        rng = np.random.default_rng(13)
        words = ["jazz", "sax", "food", "chef", "run", "race", "art", "film"]
        events = [
            Event(
                event_id=event_id,
                title=f"event {event_id}",
                description=" ".join(rng.choice(words, size=5)),
                category="cat",
                created_at=float(event_id % 4),  # ids 0, 4, 8... open at t=0
                starts_at=100.0,
            )
            for event_id in range(48)
        ]
        service.warm(tiny_users, events)
        oracle = {
            (user.user_id, event.event_id): service.score(user, event)
            for user in tiny_users
            for event in events
        }
        stable = {event.event_id for event in events[:24]}
        churn = events[24:]
        ids = [event.event_id for event in events]
        subsets = [None, frozenset(ids[1::2]), frozenset(ids[10:40])]
        at_time = [None, None, 0.5]
        top_k = [None, 7, None]
        eligible = [
            set(ids),
            set(subsets[1]),
            {i for i in subsets[2] if i % 4 == 0},
        ]
        server = ServingServer(service, tiny_users, events)
        users = [*tiny_users, *tiny_users[:2]]
        shapes = [0, 1, 2, 0, 1]  # the last two join the first two's groups
        work = [
            _RecommendWork(user, subsets[shape], at_time[shape], top_k[shape])
            for user, shape in zip(users, shapes)
        ]

        stop = threading.Event()
        start = threading.Barrier(self.MUTATORS + self.READERS)
        errors: list[BaseException] = []

        def mutate(worker: int) -> None:
            local = np.random.default_rng(300 + worker)
            mine = churn[worker :: self.MUTATORS]
            try:
                start.wait()
                while not stop.is_set():
                    event = mine[int(local.integers(len(mine)))]
                    if not service.remove_event(event.event_id):
                        service.refresh_events([event])
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def read(worker: int) -> None:
            try:
                start.wait()
                for _ in range(60):
                    rankings = server._recommend_batch(work)
                    for user, ranking, shape in zip(users, rankings, shapes):
                        allowed, k = eligible[shape], top_k[shape]
                        answer = [(s.event.event_id, s.score) for s in ranking]
                        returned = [event_id for event_id, _ in answer]
                        assert len(set(returned)) == len(returned)
                        assert set(returned) <= allowed
                        for event_id, score in answer:
                            assert score == pytest.approx(
                                oracle[user.user_id, event_id], abs=1e-9
                            )
                        assert answer == sorted(
                            answer, key=lambda pair: (-pair[1], pair[0])
                        )
                        if k is None:  # stable candidates are never removed
                            assert allowed & stable <= set(returned)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=mutate, args=(i,)) for i in range(self.MUTATORS)
        ] + [threading.Thread(target=read, args=(i,)) for i in range(self.READERS)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads[self.MUTATORS :]:
                thread.join(timeout=120.0)
            stop.set()
            for thread in threads[: self.MUTATORS]:
                thread.join(timeout=30.0)
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        service.index.check_invariants()
        assert service.index.stats.compactions > 0
        assert stable <= set(service.index.event_ids.tolist())

    def test_held_resolved_pool_races_removes_and_reinserts(self):
        """Each reader hands the ``ResolvedPool`` of its last call back
        to ``score_ids``/``score_ids_batch``, while mutators remove
        (swap-with-last) and re-insert churn rows that sit *below* the
        stable ones, so stable rows move too.  Every ``(id, score)`` is
        that id's own cosine and no stable id is ever missing: a pool
        resolved before a row moved is resolved again, under the lock
        that moved it."""
        rng = np.random.default_rng(17)
        index = EventIndex(initial_capacity=4)
        churn_ids = list(range(self.CHURN))
        stable_ids = list(range(self.CHURN, self.CHURN + self.STABLE))
        vectors = rng.normal(size=(self.CHURN + self.STABLE, self.DIM))
        for event_id in churn_ids + stable_ids:  # churn first: stable rows are last
            index.upsert(make_event(event_id), "v1", vectors[event_id])
        index._lock = NappingLock(index._lock)
        queries = rng.normal(size=(self.READERS, self.DIM))
        all_ids = stable_ids[::2] + churn_ids + stable_ids[1::2]
        oracle = index.score_ids_batch(queries, list(range(len(vectors))))[1]

        def mutator(worker):
            def mutate(stop):
                local = np.random.default_rng(400 + worker)
                mine = churn_ids[worker :: self.MUTATORS]
                while not stop.is_set():
                    event_id = int(local.choice(mine))
                    if not index.remove(event_id):
                        index.upsert(make_event(event_id), "v1", vectors[event_id])

            return mutate

        def reader(worker):
            def read():
                pool = all_ids
                epochs = set()
                for turn in range(self.READS_PER_THREAD * 2):
                    if turn % 4 == 3:
                        positions, matrix, pool = index.score_ids_batch(queries, pool)
                        scores = matrix[worker]
                    else:
                        positions, scores, pool = index.score_ids(queries[worker], pool)
                    epochs.add(pool.epoch)
                    ids = pool.ids[positions]
                    np.testing.assert_allclose(scores, oracle[worker, ids], atol=1e-9)
                    assert set(stable_ids) <= set(ids.tolist())
                assert len(epochs) > 1  # the held pool did go stale

            return read

        race(
            [mutator(worker) for worker in range(self.MUTATORS)],
            [reader(worker) for worker in range(self.READERS)],
        )
        index.check_invariants()
        assert index.stats.compactions > 0

    def test_remembered_pool_list_races_removes_and_reinserts(
        self, tiny_users, tiny_events
    ):
        """``rank_events`` and ``rank_events_batch`` over one reused
        list — so the service hands the index the pool it remembered —
        while mutators remove and republish the churn half, whose rows
        sit below the stable half's.  Same promises as above, through
        the service: own scores, sorted, stable candidates present."""
        encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        service = RepresentationService(model)
        rng = np.random.default_rng(19)
        words = ["jazz", "sax", "food", "chef", "run", "race", "art", "film"]
        events = [
            Event(
                event_id=event_id,
                title=f"event {event_id}",
                description=" ".join(rng.choice(words, size=5)),
                category="cat",
                created_at=float(event_id % 4),
                starts_at=100.0,
            )
            for event_id in range(48)
        ]
        churn, stable = events[:24], {event.event_id for event in events[24:]}
        service.warm(tiny_users, events)  # churn rows first
        service.index._lock = NappingLock(service.index._lock)
        oracle = {
            (user.user_id, event.event_id): service.score(user, event)
            for user in tiny_users
            for event in events
        }
        pool = events[::-1]

        def mutator(worker):
            def mutate(stop):
                local = np.random.default_rng(500 + worker)
                mine = churn[worker :: self.MUTATORS]
                while not stop.is_set():
                    event = mine[int(local.integers(len(mine)))]
                    if not service.index.remove(event.event_id):
                        service.refresh_events([event])

            return mutate

        def check(user, ranking, at_time):
            answer = [(s.event.event_id, s.score) for s in ranking]
            returned = {event_id for event_id, _ in answer}
            assert len(returned) == len(answer)
            for event_id, score in answer:
                assert score == pytest.approx(oracle[user.user_id, event_id], abs=1e-9)
            assert answer == sorted(answer, key=lambda pair: (-pair[1], pair[0]))
            open_at = {i for i in stable if at_time is None or i % 4 <= at_time}
            assert returned >= open_at and (at_time is None or returned <= {
                event.event_id for event in events if event.created_at <= at_time
            })

        def reader(worker):
            def read():
                user = tiny_users[worker % len(tiny_users)]
                for turn in range(90):
                    at_time = None if turn % 3 else 0.5
                    if turn % 5 == 4:
                        rankings = service.rank_events_batch(
                            tiny_users, pool, at_time=at_time
                        )
                        for each, ranking in zip(tiny_users, rankings):
                            check(each, ranking, at_time)
                    else:
                        check(user, service.rank_events(user, pool, at_time=at_time), at_time)

            return read

        race(
            [mutator(worker) for worker in range(self.MUTATORS)],
            [reader(worker) for worker in range(self.READERS)],
        )
        service.index.check_invariants()
        assert service.index.stats.compactions > 0
        assert stable <= set(service.index.event_ids.tolist())
