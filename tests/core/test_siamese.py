"""Siamese event-tower initialization."""

import numpy as np
import pytest

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.siamese import SiameseEventInitializer
from repro.datagen.topics import TopicModel
from repro.entities import Event
from repro.text.documents import DocumentEncoder


@pytest.fixture(scope="module")
def event_corpus():
    rng = np.random.default_rng(0)
    topic_model = TopicModel()
    events = []
    for j in range(40):
        topic = int(rng.integers(topic_model.num_topics))
        cluster = topic_model.sample_cluster(rng, topic)
        events.append(
            Event(
                j,
                topic_model.title_for(rng, topic, cluster),
                " ".join(topic_model.sample_words(rng, topic, 14, cluster)),
                topic_model.category_for(rng, topic),
                0,
                48,
            )
        )
    return events


@pytest.fixture(scope="module")
def encoder(event_corpus):
    return DocumentEncoder.fit([], event_corpus, min_df=1)


class TestBuildPairs:
    def test_balanced_labels(self, encoder, event_corpus, rng):
        initializer = SiameseEventInitializer(
            JointModelConfig.small(seed=0), encoder
        )
        left, right, labels = initializer.build_pairs(event_corpus, rng)
        assert len(left) == len(right) == len(labels) == 2 * len(event_corpus)
        assert labels.sum() == len(event_corpus)

    def test_needs_two_events(self, encoder, event_corpus):
        initializer = SiameseEventInitializer(
            JointModelConfig.small(seed=0), encoder
        )
        with pytest.raises(ValueError, match="two events"):
            initializer.fit(event_corpus[:1])


class TestFit:
    def test_loss_decreases(self, encoder, event_corpus):
        initializer = SiameseEventInitializer(
            JointModelConfig.small(seed=0), encoder
        )
        history = initializer.fit(
            event_corpus,
            TrainingConfig(epochs=4, learning_rate=0.02, patience=5, seed=0),
        )
        assert history.epochs_run == 4
        assert history.losses[-1] < history.losses[0]

    def test_title_matches_own_body_better_after_training(
        self, encoder, event_corpus
    ):
        initializer = SiameseEventInitializer(
            JointModelConfig.small(seed=0), encoder
        )
        initializer.fit(
            event_corpus,
            TrainingConfig(epochs=5, learning_rate=0.02, patience=5, seed=0),
        )
        titles = initializer.encode_texts([e.title for e in event_corpus[:10]])
        bodies = initializer.encode_texts(
            [e.description for e in event_corpus[:10]]
        )
        unit_titles = titles / np.linalg.norm(titles, axis=1, keepdims=True)
        unit_bodies = bodies / np.linalg.norm(bodies, axis=1, keepdims=True)
        gram = unit_titles @ unit_bodies.T
        own = np.diag(gram).mean()
        cross = (gram.sum() - np.trace(gram)) / (gram.size - len(gram))
        assert own > cross


class TestEncodeTexts:
    def test_no_texts_encode_to_zero_rows(self, encoder):
        config = JointModelConfig.small(seed=0)
        vectors = SiameseEventInitializer(config, encoder).encode_texts([])
        assert vectors.shape == (0, config.representation_dim)
        assert vectors.dtype == np.float64


class TestTransfer:
    def test_copies_embedding_and_conv(self, encoder, event_corpus):
        config = JointModelConfig.small(seed=0)
        initializer = SiameseEventInitializer(config, encoder)
        initializer.fit(
            event_corpus, TrainingConfig(epochs=1, patience=5, seed=0)
        )
        model = JointUserEventModel(config, encoder)
        transferred = initializer.transfer_to(model)
        assert "event.text_embedding.table" in transferred
        assert np.array_equal(
            model.event_tower.text_embedding.table.value,
            initializer.tower.text_embedding.table.value,
        )
        (source,) = initializer.tower.text_modules
        (target,) = model.event_tower.text_modules
        for learned, into in zip(source.conv.weights, target.conv.weights):
            assert np.array_equal(learned.value, into.value)
            assert into.name in transferred

    def test_vocab_mismatch_rejected(self, encoder, event_corpus, tiny_events):
        config = JointModelConfig.small(seed=0)
        initializer = SiameseEventInitializer(config, encoder)
        other_encoder = DocumentEncoder.fit([], tiny_events, min_df=1)
        model = JointUserEventModel(config, other_encoder)
        with pytest.raises(ValueError, match="vocabularies differ"):
            initializer.transfer_to(model)
