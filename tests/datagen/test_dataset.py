"""Dataset assembly, impression statistics, splits, serialization."""

import numpy as np
import pytest

from repro.datagen import DataConfig, EventRecDataset, build_dataset
from repro.datagen.config import HOURS_PER_WEEK


class TestImpressionStatistics:
    def test_positive_ratio_near_target(self, small_dataset):
        rate = small_dataset.positive_rate()
        target = 1.0 / (1.0 + small_dataset.config.negative_ratio)
        assert abs(rate - target) < 0.05

    def test_participation_implies_click(self, small_dataset):
        for impression in small_dataset.impressions:
            if impression.participated:
                assert impression.clicked

    def test_clicks_more_common_than_joins(self, small_dataset):
        joins = sum(1 for i in small_dataset.impressions if i.participated)
        clicks = sum(1 for i in small_dataset.impressions if i.clicked)
        assert clicks > joins

    def test_impressions_within_event_window(self, small_dataset):
        for impression in small_dataset.impressions[:200]:
            event = small_dataset.events_by_id[impression.event_id]
            assert event.created_at <= impression.shown_at < event.starts_at

    def test_per_user_history_is_sparse(self, small_dataset):
        """The cold-start premise: few participations per user."""
        summary = small_dataset.summary()
        assert summary["mean_participations_per_user"] < 15

    def test_raw_rate_recorded(self, small_dataset):
        assert 0.0 < small_dataset.raw_positive_rate < 0.5


class TestSplits:
    def test_default_is_paper_4_1_1(self, small_dataset):
        splits = small_dataset.split()
        first = small_dataset.config.weeks - 2
        boundary1 = first * HOURS_PER_WEEK
        boundary2 = (first + 1) * HOURS_PER_WEEK
        assert splits.representation_end == boundary1
        assert all(i.shown_at < boundary1 for i in splits.representation_train)
        assert all(
            boundary1 <= i.shown_at < boundary2 for i in splits.combiner_train
        )
        assert all(i.shown_at >= boundary2 for i in splits.evaluation)

    def test_splits_partition_everything(self, small_dataset):
        splits = small_dataset.split()
        assert sum(splits.sizes()) == len(small_dataset.impressions)


class TestDeterminismAndSerialization:
    def test_same_seed_same_world(self):
        first = build_dataset(DataConfig.small(seed=3))
        second = build_dataset(DataConfig.small(seed=3))
        assert first.impressions == second.impressions
        assert first.events[0].description == second.events[0].description

    def test_different_seed_different_world(self):
        first = build_dataset(DataConfig.small(seed=3))
        second = build_dataset(DataConfig.small(seed=4))
        assert first.impressions != second.impressions

    def test_save_load_round_trip(self, small_dataset, tmp_path):
        path = tmp_path / "dataset.json.gz"
        small_dataset.save(path)
        restored = EventRecDataset.load(path)
        assert restored.impressions == small_dataset.impressions
        assert restored.users == small_dataset.users
        assert restored.events == small_dataset.events
        assert np.allclose(restored.user_mixtures, small_dataset.user_mixtures)
        assert restored.config == small_dataset.config

    def test_summary_keys(self, small_dataset):
        summary = small_dataset.summary()
        for key in (
            "num_users",
            "num_events",
            "num_impressions",
            "positive_rate",
            "median_event_lifespan_hours",
            "graph_mean_degree",
        ):
            assert key in summary


class TestConfigValidation:
    def test_rejects_tiny_worlds(self):
        with pytest.raises(ValueError, match="at least 2"):
            DataConfig(num_users=1)

    def test_rejects_short_timelines(self):
        with pytest.raises(ValueError, match="3 weeks"):
            DataConfig(weeks=2)

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError, match="negative_ratio"):
            DataConfig(negative_ratio=0.0)
