"""Representation trainer: learning, early stopping, best-state restore."""

import numpy as np
import pytest

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.trainer import RepresentationTrainer
from repro.datagen.topics import TopicModel
from repro.entities import Event, User
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

    def test_early_stopping_restores_best_state(self, separable_task, monkeypatch):
        encoder, users, events, labels = separable_task
        model = JointUserEventModel(JointModelConfig.small(seed=2), encoder)
        trainer = RepresentationTrainer(
            model, TrainingConfig(epochs=8, patience=2, seed=0)
        )
        # Scripted validation losses: epoch 2 (index 1) is the best,
        # and two epochs without a drop below it stop the run.
        val_losses = iter([0.5, 0.4, 0.45, 0.46, 0.3, 0.2, 0.1, 0.0])
        held_out = []

        def scripted_loss(val_users, val_events, val_labels):
            held_out.append((val_users, val_events, val_labels))
            return next(val_losses)

        monkeypatch.setattr(trainer, "evaluate_loss", scripted_loss)
        states = []
        history = trainer.fit(
            users, events, labels,
            on_epoch_end=lambda index, stats: states.append(model.store.state_dict()),
        )
        assert history.stopped_early
        assert history.epochs_run == 4
        assert history.best_epoch == 1
        assert history.validation_losses == [0.5, 0.4, 0.45, 0.46]
        # Every evaluation saw the trailing validation_fraction, as held out.
        num_validation = int(len(users) * trainer.config.validation_fraction)
        for val_users, val_events, val_labels in held_out:
            assert val_users == list(users[-num_validation:])
            assert val_events == list(events[-num_validation:])
            assert np.array_equal(val_labels, labels[-num_validation:])
        # The model holds epoch 2's parameters bit for bit, not the last.
        restored = model.store.state_dict()
        assert restored.keys() == states[1].keys()
        for name, value in states[1].items():
            assert np.array_equal(restored[name], value), name
        assert any(
            not np.array_equal(restored[name], value)
            for name, value in states[-1].items()
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
