"""End-to-end telemetry through the serving and training paths."""

import math

import numpy as np
import pytest

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.core.trainer import RepresentationTrainer
from repro.gbdt.boosting import GBDTClassifier, GBDTConfig
from repro.obs.registry import MetricsRegistry, use_registry
from repro.store.cache import VectorCache
from repro.text.documents import DocumentEncoder
from tests.reference import rank_events_loop


@pytest.fixture()
def service(tiny_users, tiny_events):
    encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
    model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
    return RepresentationService(model, VectorCache())


class TestServingTelemetry:
    def test_rank_records_latency_hit_rate_and_candidates(
        self, service, tiny_users, tiny_events
    ):
        with use_registry(MetricsRegistry()) as registry:
            service.warm(tiny_users, tiny_events)
            service.rank_events(tiny_users[0], tiny_events, top_k=2)
            service.rank_events(tiny_users[1], tiny_events)
            metrics = {
                (m["name"], tuple(sorted(m["tags"].items()))): m
                for m in registry.snapshot()
            }

        rank = metrics[("repro_serving_rank_seconds", ())]
        assert rank["count"] == 2
        assert rank["quantiles"]["p50"] is not None
        assert rank["quantiles"]["p95"] is not None
        assert rank["quantiles"]["p99"] is not None

        candidates = metrics[("repro_serving_candidates", ())]
        assert candidates["count"] == 2
        assert candidates["sum"] == 2 * len(tiny_events)

        assert metrics[("repro_serving_rank_total", ())]["value"] == 2

        # warm() pushed every event into the retrieval index.
        assert metrics[("repro_serving_index_size", ())]["value"] == len(
            tiny_events
        )
        assert metrics[("repro_serving_index_inserts_total", ())]["value"] == len(
            tiny_events
        )

        # Everything was warmed, so ranking hits the cache every time.
        assert metrics[("repro_cache_hits_total", ())]["value"] == (
            service.cache.stats.hits
        )
        assert metrics[("repro_cache_hit_rate", ())]["value"] == 1.0
        assert metrics[("repro_cache_size", ())]["value"] == len(service.cache)

    def test_loop_mode_records_per_pair_scores(
        self, service, tiny_users, tiny_events
    ):
        """The brute-force reference scores pair-by-pair."""
        with use_registry(MetricsRegistry()) as registry:
            service.warm(tiny_users, tiny_events)
            rank_events_loop(service, tiny_users[0], tiny_events)
            metrics = {
                (m["name"], tuple(sorted(m["tags"].items()))): m
                for m in registry.snapshot()
            }
        score = metrics[("repro_serving_score_seconds", ())]
        assert score["count"] == len(tiny_events)

    def test_batch_rank_records_batch_metrics(
        self, service, tiny_users, tiny_events
    ):
        with use_registry(MetricsRegistry()) as registry:
            service.rank_events_batch(tiny_users, tiny_events, top_k=2)
            metrics = {
                (m["name"], tuple(sorted(m["tags"].items()))): m
                for m in registry.snapshot()
            }
        batch = metrics[("repro_serving_rank_batch_seconds", ())]
        assert batch["count"] == 1
        users_hist = metrics[("repro_serving_rank_batch_users", ())]
        assert users_hist["count"] == 1
        assert users_hist["sum"] == len(tiny_users)
        assert metrics[("repro_serving_rank_total", ())]["value"] == len(
            tiny_users
        )

    def test_encode_latency_split_by_kind(self, service, tiny_users, tiny_events):
        with use_registry(MetricsRegistry()) as registry:
            service.user_vector(tiny_users[0])
            service.event_vector(tiny_events[0])
            service.event_vector(tiny_events[1])
            metrics = {
                (m["name"], tuple(sorted(m["tags"].items()))): m
                for m in registry.snapshot()
            }
        user_encode = metrics[("repro_serving_encode_seconds", (("kind", "user"),))]
        event_encode = metrics[("repro_serving_encode_seconds", (("kind", "event"),))]
        assert user_encode["count"] == 1
        assert event_encode["count"] == 2
        assert event_encode["sum"] > 0.0

    def test_cache_hits_do_not_record_encode_latency(
        self, service, tiny_users
    ):
        with use_registry(MetricsRegistry()) as registry:
            service.user_vector(tiny_users[0])
            service.user_vector(tiny_users[0])  # warm hit
            metrics = {m["name"]: m for m in registry.snapshot()}
        assert metrics["repro_serving_encode_seconds"]["count"] == 1

    def test_disabled_registry_records_nothing(
        self, service, tiny_users, tiny_events
    ):
        service.warm(tiny_users, tiny_events)
        service.rank_events(tiny_users[0], tiny_events)
        from repro.obs.registry import get_registry

        assert get_registry().snapshot() == []

    def test_telemetry_does_not_change_ranking(
        self, service, tiny_users, tiny_events
    ):
        baseline = service.rank_events(tiny_users[0], tiny_events)
        service.cache.clear()
        with use_registry(MetricsRegistry()):
            instrumented = service.rank_events(tiny_users[0], tiny_events)
        assert [s.event.event_id for s in baseline] == [
            s.event.event_id for s in instrumented
        ]
        assert np.allclose(
            [s.score for s in baseline], [s.score for s in instrumented]
        )


@pytest.fixture()
def training_pairs(tiny_users, tiny_events):
    encoder = DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)
    users = [encoder.encode_user(user) for user in tiny_users for _ in range(4)]
    events = [encoder.encode_event(event) for event in tiny_events for _ in range(4)]
    labels = np.tile([1.0, 0.0, 1.0, 0.0], 3)
    return encoder, users, events, labels


class TestTrainingTelemetry:
    def test_per_epoch_metrics_and_callback(self, training_pairs):
        encoder, users, events, labels = training_pairs
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        trainer = RepresentationTrainer(
            model, TrainingConfig(epochs=3, batch_size=4, patience=5, seed=0)
        )
        seen = []
        with use_registry(MetricsRegistry()) as registry:
            history = trainer.fit(
                users, events, labels,
                on_epoch_end=lambda epoch, stats: seen.append((epoch, dict(stats))),
            )
            metrics = {m["name"]: m for m in registry.snapshot()}

        assert metrics["repro_train_epochs_total"]["value"] == history.epochs_run
        assert metrics["repro_train_epoch_loss"]["value"] == pytest.approx(
            history.train_losses[-1]
        )
        assert metrics["repro_train_val_loss"]["value"] == pytest.approx(
            history.validation_losses[-1]
        )
        assert metrics["repro_train_learning_rate"]["value"] == pytest.approx(
            history.learning_rates[-1]
        )
        assert metrics["repro_train_grad_norm"]["value"] > 0.0
        assert metrics["repro_train_epoch_seconds"]["count"] == history.epochs_run

        assert [epoch for epoch, _ in seen] == list(range(history.epochs_run))
        first = seen[0][1]
        assert first["epoch"] == 1
        assert first["train_loss"] == pytest.approx(history.train_losses[0])
        assert first["seconds"] > 0.0

    def test_callback_fires_without_telemetry(self, training_pairs):
        encoder, users, events, labels = training_pairs
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        trainer = RepresentationTrainer(
            model, TrainingConfig(epochs=2, batch_size=4, patience=5, seed=0)
        )
        seen = []
        trainer.fit(
            users, events, labels,
            on_epoch_end=lambda epoch, stats: seen.append(stats),
        )
        assert len(seen) == 2
        assert math.isnan(seen[0]["grad_norm"])  # not computed when disabled

    def test_telemetry_does_not_change_training(self, training_pairs):
        encoder, users, events, labels = training_pairs

        def run():
            model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
            trainer = RepresentationTrainer(
                model, TrainingConfig(epochs=3, batch_size=4, patience=5, seed=0)
            )
            return trainer.fit(users, events, labels)

        baseline = run()
        with use_registry(MetricsRegistry()):
            instrumented = run()
        assert baseline.train_losses == instrumented.train_losses
        assert baseline.validation_losses == instrumented.validation_losses


class TestGBDTTelemetry:
    def test_per_round_metrics(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(120, 4))
        labels = (features[:, 0] + features[:, 1] > 0).astype(float)
        with use_registry(MetricsRegistry()) as registry:
            GBDTClassifier(
                GBDTConfig(num_trees=5, max_leaves=4, min_samples_leaf=2)
            ).fit(features, labels)
            metrics = {m["name"]: m for m in registry.snapshot()}
        assert metrics["repro_gbdt_rounds_total"]["value"] == 5
        assert metrics["repro_gbdt_round_seconds"]["count"] == 5
        assert metrics["repro_gbdt_tree_leaves"]["count"] == 5
        assert metrics["repro_gbdt_tree_leaves"]["max"] <= 4
        assert metrics["repro_gbdt_tree_depth"]["max"] >= 1
        assert metrics["repro_gbdt_round_train_loss"]["value"] > 0.0
