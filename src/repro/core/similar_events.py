"""Similar-event discovery (paper Section 5.3, Table 3).

"Using the event representation model alone, we derive a
representation vector for each event and compute event-to-event
similarity just as we compute user-to-event similarity.  Setting a
high threshold in similarity score (0.95), we identify many event
pairs that are similar in semantic topics but do not necessarily
overlap much in the word space."

:class:`SimilarEventIndex` is a small exact-cosine kNN index over
event representation vectors, with a lexical-overlap measure so the
"semantically similar but lexically distinct" property can be
quantified.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.entities import Event
from repro.nn.cosine import unit_rows
from repro.store.index import top_k_order
from repro.text.normalize import split_words

__all__ = ["SimilarEvent", "SimilarEventIndex", "lexical_overlap"]


def lexical_overlap(text_a: str, text_b: str) -> float:
    """Jaccard overlap of the word sets of two texts."""
    words_a = set(split_words(text_a))
    words_b = set(split_words(text_b))
    if not words_a and not words_b:
        return 1.0
    union = words_a | words_b
    if not union:
        return 1.0
    return len(words_a & words_b) / len(union)


@dataclass(frozen=True)
class SimilarEvent:
    """One retrieved neighbour of a seed event."""

    event: Event
    similarity: float
    word_overlap: float


class SimilarEventIndex:
    """Exact cosine nearest-neighbour index over event vectors."""

    def __init__(self, events: Sequence[Event], vectors: np.ndarray):
        if len(events) != vectors.shape[0]:
            raise ValueError(
                f"{len(events)} events but {vectors.shape[0]} vectors"
            )
        self.events = list(events)
        self._unit = unit_rows(vectors)
        self._ids = np.array([event.event_id for event in self.events], dtype=np.int64)
        self._id_to_row = {
            event.event_id: row for row, event in enumerate(self.events)
        }

    def __len__(self) -> int:
        return len(self.events)

    def similarities_to(self, seed_event_id: int) -> np.ndarray:
        """Cosine similarity of every indexed event to the seed."""
        row = self._id_to_row.get(seed_event_id)
        if row is None:
            raise KeyError(f"event {seed_event_id} not in index")
        return self._unit @ self._unit[row]

    def query(
        self,
        seed_event_id: int,
        top_k: int = 3,
        min_similarity: float = 0.0,
    ) -> list[SimilarEvent]:
        """Top-k most similar events to the seed (seed excluded),
        ordered by ``(-similarity, event_id)`` — the ranking contract of
        every other served list, so ties do not depend on row order.

        Args:
            seed_event_id: id of the seed event (must be indexed).
            top_k: number of neighbours to return.
            min_similarity: drop neighbours below this cosine (the
                paper's Table 3 uses 0.95).
        """
        row = self._id_to_row[seed_event_id]
        sims = self.similarities_to(seed_event_id)
        order = top_k_order(sims, self._ids, top_k + 1)  # the seed may be among them
        seed = self.events[row]
        results: list[SimilarEvent] = []
        for candidate_row in order:
            if candidate_row == row:
                continue
            similarity = float(sims[candidate_row])
            if similarity < min_similarity:
                break
            neighbour = self.events[candidate_row]
            results.append(
                SimilarEvent(
                    event=neighbour,
                    similarity=similarity,
                    word_overlap=lexical_overlap(
                        seed.text_document(), neighbour.text_document()
                    ),
                )
            )
            if len(results) >= top_k:
                break
        return results

    def pairs_above(self, threshold: float) -> list[tuple[int, int, float]]:
        """All (event_id, event_id, similarity) pairs at/above *threshold*.

        Mirrors the paper's protocol of harvesting high-similarity
        pairs across the corpus.
        """
        gram = self._unit @ self._unit.T
        rows, cols = np.where(np.triu(gram, k=1) >= threshold)
        return [
            (
                self.events[r].event_id,
                self.events[c].event_id,
                float(gram[r, c]),
            )
            for r, c in zip(rows, cols)
        ]
