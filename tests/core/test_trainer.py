"""Representation trainer: learning, early stopping, best-state restore."""

import numpy as np
import pytest

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.trainer import RepresentationTrainer
from repro.datagen.topics import TopicModel
from repro.entities import Event, User
from repro.obs.registry import MetricsRegistry, use_registry
from repro.text.documents import DocumentEncoder


@pytest.fixture(scope="module")
def separable_task():
    """Single-topic users paired with same/different-topic events."""
    rng = np.random.default_rng(0)
    topic_model = TopicModel()
    users, user_topics = [], []
    for i in range(60):
        topic = int(rng.integers(topic_model.num_topics))
        users.append(
            User(i, {"t": str(topic)}, topic_model.sample_words(rng, topic, 6), [], [])
        )
        user_topics.append(topic)
    events, event_topics = [], []
    for j in range(60):
        topic = int(rng.integers(topic_model.num_topics))
        cluster = topic_model.sample_cluster(rng, topic)
        events.append(
            Event(
                j,
                topic_model.title_for(rng, topic, cluster),
                " ".join(topic_model.sample_words(rng, topic, 12, cluster)),
                topic_model.category_for(rng, topic),
                0,
                48,
            )
        )
        event_topics.append(topic)
    encoder = DocumentEncoder.fit(users, events, min_df=1)
    encoded_users = [encoder.encode_user(user) for user in users]
    encoded_events = [encoder.encode_event(event) for event in events]
    pair_users, pair_events, labels = [], [], []
    same_topic_events = {}
    for j, topic in enumerate(event_topics):
        same_topic_events.setdefault(topic, []).append(j)
    for i, topic in enumerate(user_topics):
        if topic in same_topic_events:
            j = same_topic_events[topic][0]
            pair_users.append(encoded_users[i])
            pair_events.append(encoded_events[j])
            labels.append(1.0)
        for _ in range(3):
            j = int(rng.integers(len(events)))
            pair_users.append(encoded_users[i])
            pair_events.append(encoded_events[j])
            labels.append(1.0 if event_topics[j] == topic else 0.0)
    return encoder, pair_users, pair_events, np.asarray(labels)


class TestFit:
    def test_loss_decreases_on_separable_task(self, separable_task):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        trainer = RepresentationTrainer(
            model,
            TrainingConfig(
                epochs=6, batch_size=32, learning_rate=0.02, patience=6, seed=0
            ),
        )
        history = trainer.fit(users, events, labels)
        assert history.train_losses[-1] < history.train_losses[0]

    def test_history_shapes(self, separable_task):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=1), encoder)
        trainer = RepresentationTrainer(
            model, TrainingConfig(epochs=3, patience=5, seed=0)
        )
        history = trainer.fit(users, events, labels)
        assert history.epochs_run == 3
        assert len(history.validation_losses) == 3
        assert len(history.learning_rates) == 3
        assert history.best_epoch >= 0

    def test_learning_rate_decays(self, separable_task):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=1), encoder)
        trainer = RepresentationTrainer(
            model,
            TrainingConfig(epochs=3, learning_rate=0.1, patience=5),
        )
        history = trainer.fit(users, events, labels)
        assert np.allclose(history.learning_rates, [0.1, 0.09, 0.081])

    def test_early_stopping_restores_best_state(self, separable_task):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        # Huge learning rate → training diverges after warm-up; the
        # restored model must match the best epoch, not the last.
        trainer = RepresentationTrainer(
            model,
            TrainingConfig(
                epochs=8, learning_rate=0.02, patience=2, seed=0
            ),
        )
        history = trainer.fit(users, events, labels)
        restored_loss = trainer.evaluate_loss(
            users[-20:], events[-20:], labels[-20:]
        )
        best_val = min(history.validation_losses)
        # The restored model reproduces (approximately) the best val loss.
        assert restored_loss <= history.validation_losses[-1] + 1e-6 or np.isclose(
            restored_loss, best_val, atol=0.05
        )

    def test_misaligned_inputs_rejected(self, separable_task):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        trainer = RepresentationTrainer(model, TrainingConfig(epochs=1))
        with pytest.raises(ValueError, match="aligned"):
            trainer.fit(users[:2], events[:3], labels[:2])

    def test_empty_pairs_rejected(self, separable_task):
        encoder, *_ = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        trainer = RepresentationTrainer(model, TrainingConfig(epochs=1))
        with pytest.raises(ValueError, match="empty"):
            trainer.fit([], [], np.array([]))

    def test_seeded_run_is_deterministic(self, separable_task):
        encoder, users, events, labels = separable_task
        losses = []
        for _ in range(2):
            model = JointUserEventModel(JointModelConfig.small(seed=3), encoder)
            trainer = RepresentationTrainer(
                model,
                TrainingConfig(epochs=2, patience=5, seed=0),
            )
            history = trainer.fit(users, events, labels)
            losses.append(history.train_losses)
        assert losses[0] == losses[1]

    def test_evaluate_loss_empty_is_zero(self, separable_task):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        trainer = RepresentationTrainer(model, TrainingConfig(epochs=1))
        assert trainer.evaluate_loss([], [], np.array([])) == 0.0


class TestTrainingShiftDetection:
    def test_diverging_loss_increments_drift_counter(
        self, separable_task, monkeypatch
    ):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=4), encoder)
        # Script a 10x loss blow-up after the 3-epoch reference window:
        # the upward mean-shift detector must flag it and bump the
        # drift counter.  (The real loss is bounded, so a bad learning
        # rate plateaus instead of climbing — scripting keeps the
        # divergence shape deterministic.)
        epoch_losses = iter([0.5, 0.5, 0.5, 5.0, 5.0, 5.0])
        monkeypatch.setattr(
            model, "train_step", lambda *args, **kwargs: next(epoch_losses)
        )
        trainer = RepresentationTrainer(
            model,
            TrainingConfig(
                epochs=6,
                batch_size=512,  # one batch per epoch
                patience=20,
                validation_fraction=0.0,
                seed=0,
            ),
        )
        with use_registry(MetricsRegistry()) as registry:
            trainer.fit(users, events, labels)
            records = {
                (record["name"], record["tags"].get("signal")): record
                for record in registry.snapshot()
            }
        key = ("repro_train_drift_total", "train_loss")
        assert key in records and records[key]["value"] >= 1

    def test_converging_run_stays_quiet(self, separable_task):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=0), encoder)
        trainer = RepresentationTrainer(
            model,
            TrainingConfig(
                epochs=8, batch_size=32, learning_rate=0.02, patience=20, seed=0
            ),
        )
        with use_registry(MetricsRegistry()) as registry:
            trainer.fit(users, events, labels)
            names = {record["name"] for record in registry.snapshot()}
        assert "repro_train_drift_total" not in names
        assert "repro_train_epoch_loss" in names
