"""Impression simulation with ground-truth participation behaviour.

Each event is shown to an audience (the stand-in for the production
delivery system: biased toward friends of the host, local users and
topically matched users).  Impressions are then labeled *in time
order* so that social influence only ever flows from past
participations — exactly the causality the collaborative-filtering
features and the date-disjoint evaluation protocol depend on.

The ground-truth utility is

    u = bias + w_topic·affinity + w_social·friend_signal
        + w_distance·proximity + w_popularity·popularity + ε

with participation sampled from ``sigmoid(u)``, after which negatives
are down-sampled to the paper's ~1:4 positive:negative ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.datagen.config import DataConfig
from repro.datagen.events import EventWorld
from repro.datagen.users import UserWorld
from repro.entities import Impression
from repro.nn.cosine import unit_rows

__all__ = ["SimulationResult", "simulate_impressions"]


@dataclass
class SimulationResult:
    """Labeled impressions plus bookkeeping statistics."""

    impressions: list[Impression]
    raw_positive_rate: float
    kept_negatives: int
    dropped_negatives: int
    attendance: dict[int, list[int]] = field(default_factory=dict)

    @property
    def positive_rate(self) -> float:
        if not self.impressions:
            return 0.0
        positives = sum(1 for imp in self.impressions if imp.participated)
        return positives / len(self.impressions)


def _select_audience(
    event_index: int,
    user_world: UserWorld,
    event_world: EventWorld,
    distances: np.ndarray,
    config: DataConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick the users who see this event.

    Mixture of host friends, nearby users, and topic-biased random
    users — a crude but structurally faithful model of how an existing
    recommender plus social distribution exposes events.
    """
    num_users = len(user_world.users)
    audience_size = min(config.audience_size, num_users)
    chosen: set[int] = set()

    host_id = event_world.events[event_index].host_id
    friends = user_world.users[host_id].friend_ids
    num_friend_slots = int(audience_size * config.audience_friend_fraction)
    if friends and num_friend_slots:
        picked = rng.choice(
            len(friends),
            size=min(num_friend_slots, len(friends)),
            replace=False,
        )
        chosen.update(friends[i] for i in picked)

    num_local_slots = int(audience_size * config.audience_local_fraction)
    if num_local_slots:
        nearest = np.argsort(distances)[: num_local_slots * 3]
        picked = rng.choice(
            len(nearest),
            size=min(num_local_slots, len(nearest)),
            replace=False,
        )
        chosen.update(int(nearest[i]) for i in picked)

    remaining = audience_size - len(chosen)
    if remaining > 0:
        affinity = user_world.mixtures @ event_world.mixtures[event_index]
        logits = config.audience_topic_bias * affinity
        logits -= logits.max()
        probabilities = np.exp(logits)
        probabilities /= probabilities.sum()
        extra = rng.choice(
            num_users, size=min(remaining * 2, num_users), replace=False,
            p=probabilities,
        )
        for user in extra:
            if len(chosen) >= audience_size:
                break
            chosen.add(int(user))
    return np.fromiter(chosen, dtype=np.int64, count=len(chosen))


def _logistic(utility: float) -> float:
    """The branch form of :func:`repro.nn.losses.sigmoid` on one float."""
    if utility >= 0:
        return 1.0 / (1.0 + math.exp(-utility))
    exp_utility = math.exp(utility)
    return exp_utility / (1.0 + exp_utility)


def simulate_impressions(
    user_world: UserWorld,
    event_world: EventWorld,
    config: DataConfig,
    rng: np.random.Generator,
) -> SimulationResult:
    """Run the full exposure + participation simulation."""
    user_locations = np.array(
        [user.home_location for user in user_world.users]
    )
    user_units = unit_rows(user_world.mixtures, eps=0.0)
    event_units = unit_rows(event_world.mixtures, eps=0.0)

    # Phase 1: exposures (who sees what, when), with the utility terms
    # that do not depend on who has already joined, as arrays per event
    # (each list starts with an empty array so that no exposures at all
    # still concatenates).
    shown_at = [np.empty(0)]
    viewers = [np.empty(0, dtype=np.int64)]
    shown_events = [np.empty(0, dtype=np.int64)]
    topic_terms = [np.empty(0)]
    distance_terms = [np.empty(0)]
    for event_index, event in enumerate(event_world.events):
        deltas = user_locations - np.asarray(event.location)
        distances = np.sqrt((deltas * deltas).sum(axis=1))
        audience = _select_audience(
            event_index, user_world, event_world, distances, config, rng
        )
        window_end = min(event.starts_at, config.total_hours)
        if window_end <= event.created_at:
            continue
        shown_at.append(
            rng.uniform(event.created_at, window_end, size=audience.size)
        )
        viewers.append(audience)
        shown_events.append(np.full(audience.size, event_index))
        affinity = user_units[audience] @ event_units[event_index]
        topic_terms.append(config.utility_bias + config.w_topic * affinity)
        proximity = np.exp(-distances[audience] / config.distance_scale)
        distance_terms.append(config.w_distance * proximity)
    times = np.concatenate(shown_at)
    users = np.concatenate(viewers)
    events = np.concatenate(shown_events)
    # Exposure order: by time, then user, then event.
    order = np.lexsort((events, users, times))
    times, users, events = times[order], users[order], events[order]

    # Phase 2: sequential labeling with social feedback, on Python
    # floats.  The friend and popularity terms are tables indexed by a
    # count; the draws are normal, participation, then (only for a
    # non-participant) click, in exposure order.
    friend_sets = [set(user.friend_ids) for user in user_world.users]
    event_ids = [event.event_id for event in event_world.events]
    attendance: dict[int, set[int]] = {
        event_id: set() for event_id in event_ids
    }
    attendees_of = [attendance[event_id] for event_id in event_ids]
    social_terms = [config.w_social * (going / 4.0) for going in range(5)]
    most_shown = int(np.bincount(events, minlength=1).max())
    popularity_terms = (
        config.w_popularity
        * (np.log1p(np.arange(most_shown + 1)) / np.log1p(50))
    ).tolist()
    normal, uniform = rng.normal, rng.random
    participated: list[bool] = []
    clicked: list[bool] = []
    for user_index, event_index, topic_term, distance_term in zip(
        users.tolist(),
        events.tolist(),
        np.concatenate(topic_terms)[order].tolist(),
        np.concatenate(distance_terms)[order].tolist(),
    ):
        attendees = attendees_of[event_index]
        friends_going = len(friend_sets[user_index] & attendees)
        utility = (
            topic_term
            + social_terms[min(friends_going, 4)]
            + distance_term
            + popularity_terms[len(attendees)]
            + config.utility_noise * normal()
        )
        joined = uniform() < _logistic(utility)
        participated.append(joined)
        # Clicks: a weaker, more frequent feedback signal driven by the
        # same utility (participation implies a click).
        clicked.append(joined or uniform() < _logistic(utility + 1.2))
        if joined:
            attendees.add(user_index)

    positives = np.array(participated, dtype=bool)
    num_positive = int(positives.sum())
    raw_positive_rate = num_positive / len(positives) if len(positives) else 0.0

    # Phase 3: negative down-sampling to ~1:negative_ratio.
    max_negatives = int(num_positive * config.negative_ratio)
    negative_indices = np.flatnonzero(~positives)
    kept = positives.copy()
    if len(negative_indices) > max_negatives > 0:
        keep = rng.choice(
            len(negative_indices), size=max_negatives, replace=False
        )
        kept[negative_indices[keep]] = True
        dropped = len(negative_indices) - max_negatives
    else:
        kept[:] = True
        dropped = 0
    impressions = [
        Impression(
            user_id=user_index,
            event_id=event_ids[event_index],
            shown_at=time,
            participated=participated[index],
            clicked=clicked[index],
        )
        for index, time, user_index, event_index in zip(
            np.flatnonzero(kept).tolist(),
            times[kept].tolist(),
            users[kept].tolist(),
            events[kept].tolist(),
        )
    ]

    return SimulationResult(
        impressions=impressions,
        raw_positive_rate=raw_positive_rate,
        kept_negatives=len(impressions) - num_positive,
        dropped_negatives=dropped,
        attendance={
            event_id: sorted(members) for event_id, members in attendance.items()
        },
    )
