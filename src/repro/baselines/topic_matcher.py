"""User-as-aggregate-of-items topic matching (the criticized baseline).

Sections 1-2: with bag-of-words topic models, "in order to project
user and item into the same topic distribution space, a user has to be
represented by (an aggregate of) the same type of items", e.g.
aggregated attended events.  This module implements exactly that
scheme over an LDA or PLSA backend, so the benches can demonstrate the
information bottleneck the paper's joint model removes: users with no
(or few) attended events get an uninformative uniform mixture.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Protocol

import numpy as np

from repro.entities import Event, Impression
from repro.nn.cosine import exact_cosine

__all__ = ["TopicBackend", "AggregatedTopicMatcher"]


class TopicBackend(Protocol):
    """Anything with LDA/PLSA-style fit/infer over raw texts."""

    num_topics: int

    def fit(self, documents: Sequence[str]) -> "TopicBackend": ...

    def infer(self, document: str) -> np.ndarray: ...


class AggregatedTopicMatcher:
    """Score (user, event) by cosine of topic mixtures, where the user
    mixture is the mean of mixtures of events they attended."""

    def __init__(self, backend: TopicBackend):
        self.backend = backend
        self._event_mixtures: dict[int, np.ndarray] = {}
        self._user_mixtures: dict[int, np.ndarray] = {}
        self._uniform: np.ndarray | None = None

    @property
    def is_fitted(self) -> bool:
        return self._uniform is not None

    def fit(
        self,
        events: Sequence[Event],
        history: Sequence[Impression],
    ) -> "AggregatedTopicMatcher":
        """Fit the topic backend on event texts, then aggregate user
        mixtures from historical participations."""
        if not events:
            raise ValueError("need events to fit the topic backend")
        self.backend.fit([event.text_document() for event in events])
        self._uniform = np.full(
            self.backend.num_topics, 1.0 / self.backend.num_topics
        )
        self._event_mixtures = {
            event.event_id: self.backend.infer(event.text_document())
            for event in events
        }
        attended: dict[int, list[np.ndarray]] = {}
        for impression in history:
            if not impression.participated:
                continue
            mixture = self._event_mixtures.get(impression.event_id)
            if mixture is not None:
                attended.setdefault(impression.user_id, []).append(mixture)
        self._user_mixtures = {
            user_id: np.mean(mixtures, axis=0)
            for user_id, mixtures in attended.items()
        }
        return self

    def user_mixture(self, user_id: int) -> np.ndarray:
        """Aggregated user mixture; uniform when history is empty —
        the cold-start failure mode the paper highlights."""
        if self._uniform is None:
            raise RuntimeError("matcher is not fitted")
        return self._user_mixtures.get(user_id, self._uniform)

    def event_mixture(self, event: Event) -> np.ndarray:
        cached = self._event_mixtures.get(event.event_id)
        if cached is not None:
            return cached
        return self.backend.infer(event.text_document())

    def score(self, user_id: int, event: Event) -> float:
        """Cosine topic similarity, the matcher's ranking score."""
        return exact_cosine(self.user_mixture(user_id), self.event_mixture(event))

    def score_pairs(
        self, pairs: Sequence[tuple[int, Event]]
    ) -> np.ndarray:
        return np.asarray(
            [self.score(user_id, event) for user_id, event in pairs]
        )
