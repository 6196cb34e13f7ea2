"""Batched top-K event retrieval index: invariants and parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entities import Event
from repro.nn.cosine import COSINE_EPS
from repro.store.index import EventIndex, top_k_order
from tests.reference import brute_force_order


def make_event(
    event_id: int, created: float = 0.0, starts: float = 100.0, text: str = ""
) -> Event:
    return Event(
        event_id=event_id,
        title=f"event {event_id} {text}",
        description=text,
        category="cat",
        created_at=created,
        starts_at=starts,
    )


def ref_cosine(left: np.ndarray, right: np.ndarray) -> float:
    """The training-time cosine, computed the slow scalar way."""
    ln = np.sqrt(left @ left) + COSINE_EPS
    rn = np.sqrt(right @ right) + COSINE_EPS
    return float(left @ right / (ln * rn))


class TestUpsert:
    def test_insert_then_score(self, rng):
        index = EventIndex()
        vec = rng.normal(size=8)
        assert index.upsert(make_event(1), "v1", vec) == "inserted"
        assert len(index) == 1
        assert 1 in index
        query = rng.normal(size=8)
        assert index.scores(query)[0] == pytest.approx(
            ref_cosine(query, vec), abs=1e-12
        )

    def test_fresh_version_skips_vector(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        before = index.vectors.copy()
        # No vector needed when the version is already current.
        assert index.upsert(make_event(1), "v1") == "fresh"
        assert np.array_equal(index.vectors, before)
        assert index.stats.fresh_skips == 1

    def test_fresh_upsert_refreshes_activity_window(self, rng):
        index = EventIndex()
        index.upsert(make_event(1, starts=10.0), "v1", rng.normal(size=4))
        assert index.activity_mask(50.0).tolist() == [False]
        # Times are not version-covered; a fresh upsert updates them.
        index.upsert(make_event(1, starts=99.0), "v1")
        assert index.activity_mask(50.0).tolist() == [True]

    def test_stale_version_overwrites_in_place(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        new_vec = rng.normal(size=4)
        assert index.upsert(make_event(1), "v2", new_vec) == "refreshed"
        assert len(index) == 1
        assert index.version(1) == "v2"
        assert index.stats.refreshes == 1
        query = rng.normal(size=4)
        assert index.scores(query)[0] == pytest.approx(
            ref_cosine(query, new_vec), abs=1e-12
        )

    def test_new_or_stale_upsert_requires_vector(self, rng):
        index = EventIndex()
        with pytest.raises(ValueError, match="requires its vector"):
            index.upsert(make_event(1), "v1")
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        with pytest.raises(ValueError, match="requires its vector"):
            index.upsert(make_event(1), "v2")

    def test_dim_mismatch_rejected(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        with pytest.raises(ValueError, match="dim"):
            index.upsert(make_event(2), "v1", rng.normal(size=5))

    def test_non_1d_vector_rejected(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            EventIndex().upsert(make_event(1), "v1", rng.normal(size=(2, 2)))

    def test_zero_vector_scores_zero(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", np.zeros(4))
        assert index.scores(rng.normal(size=4))[0] == 0.0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_non_finite_vector_rejected(self, rng, bad):
        """One non-finite row scale used to empty every truncated
        ranking over a pool holding the row (1e200 overflows the norm)."""
        index = EventIndex()
        for i in range(10):
            index.upsert(make_event(i), "v", rng.normal(size=4))
        vector = rng.normal(size=4)
        vector[2] = bad
        with pytest.raises(ValueError, match="finite"):
            index.upsert(make_event(10), "v", vector)
        with pytest.raises(ValueError, match="finite"):
            index.upsert(make_event(3), "v2", vector)
        assert 10 not in index and index.version(3) == "v"
        index.check_invariants()
        ids = np.arange(11)
        positions, scores, _ = index.score_ids(rng.normal(size=4), ids)
        assert len(top_k_order(scores, ids[positions], 3)) == 3

    def test_invariants_flag_non_finite_scale(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v", rng.normal(size=4))
        index._scales[0] = np.nan
        with pytest.raises(RuntimeError, match="non-finite scale"):
            index.check_invariants()


class TestCapacity:
    def test_amortized_doubling(self, rng):
        index = EventIndex(initial_capacity=2)
        for i in range(9):
            index.upsert(make_event(i), "v", rng.normal(size=3))
        assert len(index) == 9
        assert index.capacity == 16
        assert index.stats.grows == 3  # 2 → 4 → 8 → 16
        index.check_invariants()

    def test_bad_initial_capacity_rejected(self):
        with pytest.raises(ValueError, match="initial_capacity"):
            EventIndex(initial_capacity=0)

    def test_matrix_stays_contiguous_after_growth(self, rng):
        index = EventIndex(initial_capacity=1)
        for i in range(5):
            index.upsert(make_event(i), "v", rng.normal(size=3))
        assert index.vectors.base.flags["C_CONTIGUOUS"]


class TestRemove:
    def test_remove_missing_is_false(self):
        assert EventIndex().remove(42) is False

    def test_swap_with_last_compaction(self, rng):
        index = EventIndex()
        vectors = {i: rng.normal(size=4) for i in range(4)}
        for i, vec in vectors.items():
            index.upsert(make_event(i), "v", vec)
        assert index.remove(1) is True  # interior row → swap with row 3
        assert len(index) == 3
        assert 1 not in index
        assert index.stats.compactions == 1
        index.check_invariants()
        query = rng.normal(size=4)
        scores = index.scores(query)
        for row, event_id in enumerate(index.event_ids):
            assert scores[row] == pytest.approx(
                ref_cosine(query, vectors[int(event_id)]), abs=1e-12
            )

    def test_remove_last_row_needs_no_compaction(self, rng):
        index = EventIndex()
        for i in range(3):
            index.upsert(make_event(i), "v", rng.normal(size=4))
        index.remove(2)
        assert index.stats.compactions == 0
        index.check_invariants()

    def test_reinsert_after_remove(self, rng):
        index = EventIndex()
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        index.remove(1)
        assert index.version(1) is None
        index.upsert(make_event(1), "v1", rng.normal(size=4))
        assert len(index) == 1
        index.check_invariants()


class TestScoring:
    def test_scores_subset_rows(self, rng):
        index = EventIndex()
        for i in range(6):
            index.upsert(make_event(i), "v", rng.normal(size=5))
        query = rng.normal(size=5)
        rows = index.resolve([4, 0, 2]).rows
        assert rows.tolist() == [index.row_of(4), index.row_of(0), index.row_of(2)]
        subset = index.scores(query, rows)
        full = index.scores(query)
        assert np.array_equal(subset, full[rows])

    def test_live_rows_in_order_score_like_any_other_pool(self, rng):
        """Naming exactly the live rows in row order skips the gather;
        the scores must not depend on which way the rows were read."""
        index = EventIndex()
        for i in range(6):
            index.upsert(make_event(i), "v", rng.normal(size=5))
        index.remove(1)  # row order is now 0, 5, 2, 3, 4
        query = rng.normal(size=5)
        in_order = index.event_ids.tolist()
        positions, scores, pool = index.score_ids(query, in_order)
        assert positions.tolist() == list(range(5)) and pool.absent.size == 0
        assert pool.whole
        assert np.array_equal(scores, index.scores(query))
        reversed_positions, reversed_scores, pool = index.score_ids(query, in_order[::-1])
        assert reversed_positions.tolist() == list(range(5)) and not pool.whole
        np.testing.assert_allclose(reversed_scores, scores[::-1], atol=1e-12)

    def test_resolved_pool_is_good_for_one_epoch_of_one_index(self, rng):
        """A pool handed back is scored as it stands until a row is
        inserted or removed; in-place upserts leave it current, and
        another index never mistakes it for its own."""
        index, other = EventIndex(), EventIndex()
        vectors = rng.normal(size=(6, 5))
        for i in range(6):
            index.upsert(make_event(i), "v", vectors[i])
            other.upsert(make_event(5 - i), "v", vectors[5 - i])
        query = rng.normal(size=5)
        ids = [4, 9, 0, 2]
        positions, scores, pool = index.score_ids(query, ids)
        assert pool.ids.tolist() == ids and pool.absent.tolist() == [1]
        index.upsert(make_event(2, starts=50.0), "v")  # fresh
        index.upsert(make_event(0), "v2", vectors[0] * 2.0)  # refreshed
        assert index.score_ids(query, pool)[2] is pool
        index.upsert(make_event(9), "v", rng.normal(size=5))  # inserted
        grown = index.score_ids(query, pool)[2]
        assert grown.epoch != pool.epoch and grown.absent.size == 0
        index.remove(4)  # swap-with-last: id 9 now sits in row 4
        positions, after, shrunk = index.score_ids(query, grown)
        assert shrunk.epoch != grown.epoch and shrunk.absent.tolist() == [0]
        assert np.array_equal(after, index.scores(query, shrunk.rows))
        index.clear()
        assert index.score_ids(query, shrunk)[2].absent.tolist() == [0, 1, 2, 3]
        # Same ids, another index, other rows: resolved again, not trusted.
        theirs_positions, theirs, seen = other.score_ids(query, pool)
        assert seen is not pool
        assert np.array_equal(theirs, other.score_ids(query, ids)[1])

    def test_per_query_times_mask_cells_and_drop_dead_rows(self, rng):
        index = EventIndex()
        index.upsert(make_event(1, created=0.0, starts=10.0), "v", rng.normal(size=3))
        index.upsert(make_event(2, created=5.0, starts=20.0), "v", rng.normal(size=3))
        index.upsert(make_event(3, created=30.0, starts=40.0), "v", rng.normal(size=3))
        queries = rng.normal(size=(3, 3))
        ids = [3, 9, 2, 1]
        positions, matrix, pool = index.score_ids_batch(
            queries, ids, at_time=[3.0, 12.0, None]
        )
        assert pool.absent.tolist() == [1]
        assert positions.tolist() == [0, 2, 3]  # event 3: the unfiltered query only
        unfiltered, _, _ = index.score_ids_batch(queries, ids)
        assert unfiltered.tolist() == [0, 2, 3]
        inside = np.array(
            [[False, False, True], [False, True, False], [True, True, True]]
        )
        assert np.array_equal(matrix == -np.inf, ~inside)
        full = index.score_ids_batch(queries, ids)[1]
        assert np.array_equal(matrix[inside], full[inside])
        # One time for the cohort drops the rows instead: no -inf cells.
        positions, matrix, _ = index.score_ids_batch(queries, ids, at_time=12.0)
        assert positions.tolist() == [2] and np.isfinite(matrix).all()

    def test_scores_batch_matches_single(self, rng):
        index = EventIndex()
        for i in range(7):
            index.upsert(make_event(i), "v", rng.normal(size=5))
        queries = rng.normal(size=(3, 5))
        batch = index.scores_batch(queries)
        assert batch.shape == (3, 7)
        for row, query in enumerate(queries):
            assert np.allclose(batch[row], index.scores(query), atol=1e-12)

    def test_empty_index_scores(self, rng):
        index = EventIndex()
        assert index.scores(rng.normal(size=3)).size == 0
        assert index.scores_batch(rng.normal(size=(2, 3))).shape == (2, 0)

    def test_activity_mask(self, rng):
        index = EventIndex()
        index.upsert(make_event(1, created=0.0, starts=10.0), "v", rng.normal(size=2))
        index.upsert(make_event(2, created=5.0, starts=20.0), "v", rng.normal(size=2))
        assert index.activity_mask(3.0).tolist() == [True, False]
        assert index.activity_mask(10.0).tolist() == [False, True]
        assert index.activity_mask(25.0).tolist() == [False, False]


class TestTopKOrder:
    def test_matches_reference_with_ties(self):
        scores = np.array([0.5, 0.9, 0.5, 0.1, 0.9])
        ids = np.array([7, 4, 2, 9, 1])
        for k in (None, 1, 2, 3, 4, 5):
            got = top_k_order(scores, ids, k).tolist()
            assert got == brute_force_order(scores, ids, k)

    @given(
        st.lists(st.integers(0, 5), min_size=1, max_size=40),
        st.integers(1, 45),
    )
    def test_property_matches_reference(self, quantized, k):
        # Coarsely quantized scores force plenty of exact ties.
        scores = np.array(quantized, dtype=np.float64) / 5.0
        ids = np.arange(len(quantized), 0, -1)
        got = top_k_order(scores, ids, k).tolist()
        assert got == brute_force_order(scores, ids, k)


@st.composite
def mutation_sequences(draw):
    """(op, event_id, version) ops over a small id space."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["upsert", "remove"]),
                st.integers(0, 7),
                st.integers(0, 2),
            ),
            max_size=60,
        )
    )
    return ops


def apply_mutations(ops, rng):
    """Run ``ops`` on a fresh index and on a plain dict beside it."""
    index = EventIndex(initial_capacity=1)
    reference: dict[int, tuple[str, np.ndarray]] = {}
    for op, event_id, version_num in ops:
        version = f"v{version_num}"
        if op == "upsert":
            vector = rng.normal(size=6)
            outcome = index.upsert(make_event(event_id), version, vector)
            if event_id in reference and reference[event_id][0] == version:
                assert outcome == "fresh"
            else:
                reference[event_id] = (version, vector)
        else:
            removed = index.remove(event_id)
            assert removed == (event_id in reference)
            reference.pop(event_id, None)
        index.check_invariants()
    return index, reference


class TestRandomMutationParity:
    @settings(deadline=None, max_examples=60)
    @given(mutation_sequences())
    def test_invariants_and_score_parity(self, ops):
        """After any mutation sequence the index matches brute force."""
        rng = np.random.default_rng(0)
        index, reference = apply_mutations(ops, rng)
        assert len(index) == len(reference)
        assert set(int(i) for i in index.event_ids) == set(reference)
        query = rng.normal(size=6)
        scores = index.scores(query)
        for row, event_id in enumerate(index.event_ids):
            version, vector = reference[int(event_id)]
            assert index.version(int(event_id)) == version
            assert scores[row] == pytest.approx(
                ref_cosine(query, vector), abs=1e-9
            )

    @settings(deadline=None, max_examples=80)
    @given(
        mutation_sequences(),
        st.lists(st.integers(-3, 11), max_size=40),
        st.booleans(),
    )
    def test_bulk_resolve_matches_plain_dict(self, ops, queried, as_array):
        """Any id array — absent, duplicate, negative, ids whose rows a
        compaction moved — resolves like one ``dict`` lookup per id, and
        the scoring entrance reports the same positions."""
        rng = np.random.default_rng(1)
        index, reference = apply_mutations(ops, rng)
        ids = np.asarray(queried, dtype=np.int64) if as_array else queried
        pool = index.resolve(ids)
        present = [event_id in reference for event_id in queried]
        assert pool.ids.tolist() == list(queried)
        assert pool.rows.dtype == np.intp and pool.rows.shape == pool.positions.shape
        assert pool.positions.tolist() == [p for p, has in enumerate(present) if has]
        assert pool.absent.tolist() == [p for p, has in enumerate(present) if not has]
        live_ids = index.event_ids
        assert live_ids[pool.rows].tolist() == [
            event_id for event_id, has in zip(queried, present) if has
        ]
        assert pool.whole == (pool.rows.tolist() == list(range(len(index))))
        query = rng.normal(size=6)
        positions, scores, scored = index.score_ids(query, ids)
        assert positions.tolist() == pool.positions.tolist()
        assert scored.absent.tolist() == pool.absent.tolist()
        # The resolved pool goes back in place of ids: same answer, same value.
        again_positions, again_scores, again = index.score_ids(query, scored)
        assert again is scored
        assert np.array_equal(again_positions, positions)
        assert np.array_equal(again_scores, scores)
        for position, score in zip(positions.tolist(), scores.tolist()):
            _, vector = reference[queried[position]]
            assert score == pytest.approx(ref_cosine(query, vector), abs=1e-9)
        index.check_invariants()
