"""Dataset assembly, time-based splitting, and (de)serialization.

:func:`build_dataset` runs the full generative pipeline (topics →
pages → users → social graph → events → impressions) and returns an
:class:`EventRecDataset`.  Its :meth:`~EventRecDataset.split` mirrors
the paper's protocol (Section 5.1): "we split the data into three
parts disjoint in time (4 weeks + 1 week + 1 week)" — representation
training, combiner training, and evaluation.
"""

from __future__ import annotations

import gzip
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.datagen.config import HOURS_PER_WEEK, DataConfig
from repro.datagen.events import generate_events
from repro.datagen.impressions import simulate_impressions
from repro.datagen.social import build_friendship_graph, graph_summary
from repro.datagen.topics import TopicModel
from repro.datagen.users import generate_pages, generate_users
from repro.entities import Event, Impression, User

__all__ = ["DatasetSplits", "EventRecDataset", "build_dataset"]


@dataclass
class DatasetSplits:
    """The three date-disjoint impression sets of Section 5.1, and the
    hour at which the representation-training period ends."""

    representation_train: list[Impression]
    combiner_train: list[Impression]
    evaluation: list[Impression]
    representation_end: float

    def sizes(self) -> tuple[int, int, int]:
        return (
            len(self.representation_train),
            len(self.combiner_train),
            len(self.evaluation),
        )


@dataclass
class EventRecDataset:
    """A complete synthetic world with impression logs.

    ``user_mixtures`` / ``event_mixtures`` are the latent ground truth
    kept for diagnostics and oracle baselines; no model component may
    read them as features.
    """

    config: DataConfig
    users: list[User]
    events: list[Event]
    impressions: list[Impression]
    user_mixtures: np.ndarray
    event_mixtures: np.ndarray
    graph_stats: dict[str, float] = field(default_factory=dict)
    raw_positive_rate: float = 0.0

    def __post_init__(self):
        self.users_by_id = {user.user_id: user for user in self.users}
        self.events_by_id = {event.event_id: event for event in self.events}

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------

    def split(self) -> DatasetSplits:
        """Date-disjoint split into (weeks-2, 1, 1) weeks.

        With the paper's 6-week window this is exactly 4+1+1.
        """
        first_boundary = (self.config.weeks - 2) * HOURS_PER_WEEK
        second_boundary = first_boundary + HOURS_PER_WEEK
        rep, comb, evaluation = [], [], []
        for impression in self.impressions:
            if impression.shown_at < first_boundary:
                rep.append(impression)
            elif impression.shown_at < second_boundary:
                comb.append(impression)
            else:
                evaluation.append(impression)
        return DatasetSplits(rep, comb, evaluation, first_boundary)

    def positive_rate(self) -> float:
        if not self.impressions:
            return 0.0
        positives = sum(1 for imp in self.impressions if imp.participated)
        return positives / len(self.impressions)

    def summary(self) -> dict[str, float]:
        """Headline statistics for documentation and sanity checks."""
        per_user: dict[int, int] = {}
        for impression in self.impressions:
            if impression.participated:
                per_user[impression.user_id] = (
                    per_user.get(impression.user_id, 0) + 1
                )
        lifespans = [event.lifespan_hours for event in self.events]
        return {
            "num_users": float(len(self.users)),
            "num_events": float(len(self.events)),
            "num_impressions": float(len(self.impressions)),
            "positive_rate": self.positive_rate(),
            "raw_positive_rate": self.raw_positive_rate,
            "median_event_lifespan_hours": float(np.median(lifespans)),
            "mean_participations_per_user": float(
                sum(per_user.values()) / max(len(self.users), 1)
            ),
            "users_with_no_participation": float(
                len(self.users) - len(per_user)
            ),
            **{f"graph_{key}": value for key, value in self.graph_stats.items()},
        }

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the dataset as gzipped JSON."""
        payload = {
            "config": self.config.__dict__,
            "users": [user.to_dict() for user in self.users],
            "events": [event.to_dict() for event in self.events],
            "impressions": [imp.to_dict() for imp in self.impressions],
            "user_mixtures": self.user_mixtures.tolist(),
            "event_mixtures": self.event_mixtures.tolist(),
            "graph_stats": self.graph_stats,
            "raw_positive_rate": self.raw_positive_rate,
        }
        # One encode and one compress: streaming json.dump through a
        # gzip text handle pays a compressor call per small write.
        Path(path).write_bytes(
            gzip.compress(json.dumps(payload).encode("utf-8"), compresslevel=9)
        )

    @classmethod
    def load(cls, path: str | Path) -> "EventRecDataset":
        """Read a dataset written by :meth:`save`.

        A missing file raises :class:`FileNotFoundError`; anything else
        that is not such a dataset — not gzip, truncated, not JSON, a
        field missing or mistyped — raises one :class:`ValueError`
        naming the file.
        """
        raw = Path(path).read_bytes()
        try:
            payload = json.loads(gzip.decompress(raw))
            return cls(
                config=DataConfig(**payload["config"]),
                users=[User.from_dict(item) for item in payload["users"]],
                events=[Event.from_dict(item) for item in payload["events"]],
                impressions=[
                    Impression.from_dict(item) for item in payload["impressions"]
                ],
                user_mixtures=np.asarray(payload["user_mixtures"]),
                event_mixtures=np.asarray(payload["event_mixtures"]),
                graph_stats=payload["graph_stats"],
                raw_positive_rate=payload["raw_positive_rate"],
            )
        except (
            OSError, EOFError, zlib.error, ValueError, KeyError, TypeError,
            AttributeError,
        ) as error:
            raise ValueError(
                f"corrupt dataset {path}: {type(error).__name__}: {error}"
            ) from error


def build_dataset(config: DataConfig) -> EventRecDataset:
    """Run the full generative pipeline for *config*."""
    rng = np.random.default_rng(config.seed)
    topic_model = TopicModel()

    pages = generate_pages(topic_model, config, rng)
    user_world = generate_users(topic_model, pages, config, rng)

    adjacency = build_friendship_graph(
        topic_mixtures=user_world.mixtures,
        city_index=user_world.city_index,
        mean_friends=config.mean_friends,
        topic_weight=config.friend_topic_weight,
        city_bonus=config.friend_city_bonus,
        rng=rng,
    )
    indptr, indices = adjacency
    bounds = indptr.tolist()
    for user in user_world.users:
        user.friend_ids = indices[bounds[user.user_id]:bounds[user.user_id + 1]].tolist()

    event_world = generate_events(
        topic_model,
        config,
        city_centers=user_world.city_centers,
        num_users=config.num_users,
        rng=rng,
    )
    simulation = simulate_impressions(user_world, event_world, config, rng)

    return EventRecDataset(
        config=config,
        users=user_world.users,
        events=event_world.events,
        impressions=simulation.impressions,
        user_mixtures=user_world.mixtures,
        event_mixtures=event_world.mixtures,
        graph_stats=graph_summary(adjacency),
        raw_positive_rate=simulation.raw_positive_rate,
    )
