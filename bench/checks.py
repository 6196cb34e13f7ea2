"""Correctness of answers, against a bench-owned cosine oracle.

The oracle holds its own vector per entity and scores with the
training-time cosine in :mod:`repro.nn.cosine`; it never touches the
index, the top-K code or ``serving="loop"``.  Every check returns
``None`` when the answer is right and a one-line reason otherwise, and
every reason counts as one failed operation.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.nn.cosine import cosine_similarity, pair_cosine

# Towers are float32 and the oracle may encode a new event in a batch
# of another shape than the service did, which moves the last bits.
SCORE_TOLERANCE = 1.0e-5

Answer = Sequence[tuple[int, float]]
"""A ranking as ``(event_id, score)`` pairs, best first."""


def as_answer(ranking: Sequence[Any]) -> list[tuple[int, float]]:
    """A ``ScoredEvent`` ranking as ``(event_id, score)`` pairs."""
    return [(item.event.event_id, item.score) for item in ranking]


def check_shape(answer: Answer, expected_length: int) -> str | None:
    """Requested length, and ordered by ``(-score, event_id)``."""
    if len(answer) != expected_length:
        return f"answer has {len(answer)} items, expected {expected_length}"
    for (left_id, left), (right_id, right) in zip(answer, answer[1:]):
        if left < right or (left == right and left_id >= right_id):
            return f"items {left_id},{right_id} are not in (-score, event_id) order"
    return None


class Oracle:
    """Scores and rankings recomputed from the oracle's own vectors."""

    def __init__(
        self,
        user_vectors: dict[int, np.ndarray],
        event_vectors: dict[int, np.ndarray],
    ) -> None:
        self.user_vectors = user_vectors
        self.event_vectors = event_vectors

    def check_score(self, user_id: int, event_id: int, score: float) -> str | None:
        expected = pair_cosine(
            self.user_vectors[user_id], self.event_vectors[event_id]
        )
        if abs(expected - score) > SCORE_TOLERANCE:
            return f"score({user_id},{event_id})={score!r}, oracle {expected!r}"
        return None

    def check_ranking(
        self, user_id: int, candidate_ids: Sequence[int], answer: Answer
    ) -> str | None:
        """``answer`` is a top-``len(answer)`` of ``candidate_ids``.

        Every returned score must match the oracle's, every returned
        id must be a distinct candidate, and no candidate left out may
        beat the last one returned.
        """
        returned = {event_id for event_id, _ in answer}
        if len(returned) != len(answer) or not returned.issubset(candidate_ids):
            return f"answer for user {user_id} names ids outside its pool or twice"
        for event_id, score in answer:
            problem = self.check_score(user_id, event_id, score)
            if problem is not None:
                return problem
        left_out = [i for i in candidate_ids if i not in returned]
        if not left_out or not answer:
            return None
        matrix = np.vstack([self.event_vectors[i] for i in left_out])
        user = np.broadcast_to(self.user_vectors[user_id], matrix.shape)
        best_left_out = float(cosine_similarity(user, matrix)[0].max())
        worst_returned = min(score for _, score in answer)
        if best_left_out > worst_returned + SCORE_TOLERANCE:
            return (
                f"user {user_id}: a candidate scoring {best_left_out!r} was left "
                f"out below {worst_returned!r}"
            )
        return None
