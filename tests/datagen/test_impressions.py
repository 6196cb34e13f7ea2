"""Direct tests of the impression simulator."""

import numpy as np
import pytest

from repro.datagen.config import DataConfig
from repro.datagen.events import generate_events
from repro.datagen.impressions import simulate_impressions
from repro.datagen.social import build_friendship_graph
from repro.datagen.topics import TopicModel
from repro.datagen.users import generate_pages, generate_users


@pytest.fixture(scope="module")
def simulated():
    config = DataConfig.small(seed=17)
    rng = np.random.default_rng(config.seed)
    topic_model = TopicModel()
    pages = generate_pages(topic_model, config, rng)
    user_world = generate_users(topic_model, pages, config, rng)
    indptr, indices = build_friendship_graph(
        user_world.mixtures,
        user_world.city_index,
        config.mean_friends,
        config.friend_topic_weight,
        config.friend_city_bonus,
        rng,
    )
    for user in user_world.users:
        user.friend_ids = indices[indptr[user.user_id]:indptr[user.user_id + 1]].tolist()
    event_world = generate_events(
        topic_model, config, user_world.city_centers, config.num_users, rng
    )
    result = simulate_impressions(user_world, event_world, config, rng)
    return config, user_world, event_world, result


class TestSimulation:
    def test_downsampling_hits_ratio(self, simulated):
        config, _, _, result = simulated
        positives = sum(1 for i in result.impressions if i.participated)
        negatives = len(result.impressions) - positives
        assert negatives <= positives * config.negative_ratio + 1

    def test_all_positives_kept(self, simulated):
        """Down-sampling removes negatives only (Section 5.1)."""
        _, _, _, result = simulated
        positives = sum(1 for i in result.impressions if i.participated)
        attendance_total = sum(len(v) for v in result.attendance.values())
        assert positives == attendance_total

    def test_attendance_matches_impressions(self, simulated):
        _, _, _, result = simulated
        joined = {}
        for impression in result.impressions:
            if impression.participated:
                joined.setdefault(impression.event_id, set()).add(
                    impression.user_id
                )
        for event_id, users in joined.items():
            assert users.issubset(set(result.attendance[event_id]))

    def test_topical_users_participate_more(self, simulated):
        """The ground-truth utility must reward topic affinity — the
        signal the representation model is supposed to learn."""
        _, user_world, event_world, result = simulated
        affinities = {True: [], False: []}
        for impression in result.impressions:
            user_mix = user_world.mixtures[impression.user_id]
            event_mix = event_world.mixtures[impression.event_id]
            denom = np.linalg.norm(user_mix) * np.linalg.norm(event_mix)
            affinity = float(user_mix @ event_mix) / denom if denom else 0.0
            affinities[impression.participated].append(affinity)
        assert np.mean(affinities[True]) > np.mean(affinities[False]) + 0.05

    def test_dropped_negatives_accounted(self, simulated):
        _, _, _, result = simulated
        assert result.dropped_negatives >= 0
        assert result.kept_negatives == sum(
            1 for i in result.impressions if not i.participated
        )

    def test_raw_rate_below_downsampled_rate(self, simulated):
        config, _, _, result = simulated
        target = 1.0 / (1.0 + config.negative_ratio)
        assert result.raw_positive_rate <= target + 0.02
