"""Similar-event discovery (Table 3 machinery)."""

import numpy as np
import pytest

from repro.core.similar_events import SimilarEventIndex, lexical_overlap
from repro.entities import Event


def _events():
    return [
        Event(1, "Jazz Night", "jazz blues live", "music", 0, 48),
        Event(2, "Blues Evening", "blues trumpet stage", "music", 0, 48),
        Event(3, "Tasting Fair", "gourmet chef dishes", "food", 0, 48),
    ]


def _index(vectors):
    return SimilarEventIndex(_events(), np.asarray(vectors, dtype=float))


class TestLexicalOverlap:
    def test_identical(self):
        assert lexical_overlap("jazz night", "Jazz night!") == 1.0

    def test_disjoint(self):
        assert lexical_overlap("jazz", "food") == 0.0

    def test_partial_jaccard(self):
        assert lexical_overlap("a b", "b c") == pytest.approx(1 / 3)

    def test_both_empty(self):
        assert lexical_overlap("", "") == 1.0


class TestSimilarEventIndex:
    def test_query_orders_by_cosine_and_excludes_seed(self):
        index = _index([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        results = index.query(1, top_k=2)
        assert [r.event.event_id for r in results] == [2, 3]
        assert results[0].similarity > results[1].similarity

    def test_tied_neighbours_do_not_depend_on_row_order(self):
        """60 events over 3 distinct vectors: whichever order they are
        indexed in, the ten served are the ten lowest ids of the tie."""
        rng = np.random.default_rng(0)
        distinct = rng.normal(size=(3, 4))
        events = [Event(i, f"e{i}", "text", "music", 0, 48) for i in range(60)]
        vectors = distinct[np.arange(60) % 3]
        answers = []
        for seed in range(3):
            order = np.random.default_rng(seed).permutation(60)
            index = SimilarEventIndex([events[i] for i in order], vectors[order])
            answers.append([r.event.event_id for r in index.query(0, top_k=10)])
        assert answers[0] == answers[1] == answers[2] == list(range(3, 33, 3))

    def test_threshold_filters(self):
        index = _index([[1.0, 0.0], [0.9, 0.1], [0.0, 1.0]])
        results = index.query(1, top_k=3, min_similarity=0.95)
        assert [r.event.event_id for r in results] == [2]

    def test_word_overlap_reported(self):
        index = _index([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        result = index.query(1, top_k=1)[0]
        assert 0.0 <= result.word_overlap < 1.0

    def test_scale_invariance(self):
        base = _index([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0]])
        sims = base.similarities_to(1)
        assert sims[1] == pytest.approx(1.0)

    def test_pairs_above(self):
        index = _index([[1.0, 0.0], [1.0, 0.01], [0.0, 1.0]])
        pairs = index.pairs_above(0.95)
        assert len(pairs) == 1
        assert {pairs[0][0], pairs[0][1]} == {1, 2}

    def test_unknown_seed_rejected(self):
        index = _index(np.eye(3))
        with pytest.raises(KeyError, match="not in index"):
            index.similarities_to(99)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="events but"):
            SimilarEventIndex(_events(), np.eye(2))

    def test_len(self):
        assert len(_index(np.eye(3))) == 3
