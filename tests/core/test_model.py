"""Joint model: towers, batching, similarity, persistence."""

import copy

import numpy as np
import pytest

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.tower import Tower
from repro.text.documents import DocumentEncoder


@pytest.fixture()
def encoder(tiny_users, tiny_events):
    return DocumentEncoder.fit(tiny_users, tiny_events, min_df=1)


@pytest.fixture()
def model(encoder):
    return JointUserEventModel(JointModelConfig.small(seed=1), encoder)


@pytest.fixture()
def encoded(encoder, tiny_users, tiny_events):
    return (
        [encoder.encode_user(user) for user in tiny_users],
        [encoder.encode_event(event) for event in tiny_events],
    )


class TestForward:
    def test_similarity_in_cosine_range(self, model, encoded):
        users, events = encoded
        sims = model.similarity(users, events)
        assert sims.shape == (3,)
        assert np.all(sims >= -1.0) and np.all(sims <= 1.0)

    def test_pair_mismatch_rejected(self, model, encoded):
        users, events = encoded
        with pytest.raises(ValueError, match="pair mismatch"):
            model.similarity(users, events[:2])

    def test_representation_shapes(self, model, encoded):
        users, events = encoded
        config = model.config
        assert model.encode_users(users).shape == (3, config.representation_dim)
        assert model.encode_events(events).shape == (3, config.representation_dim)

    def test_batching_invariance(self, model, encoded):
        """Encoding alone or with other entities in the batch gives the
        same vectors (padding must not leak across rows)."""
        users, _ = encoded
        full = model.encode_users(users)
        solo = model.encode_users([users[0]])
        assert np.allclose(full[0], solo[0], atol=1e-6)

    def test_mini_batched_encode_matches_single_batch(self, model, encoded):
        users, _ = encoded
        assert np.allclose(
            model.encode_users(users, batch_size=1),
            model.encode_users(users, batch_size=64),
            atol=1e-6,
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_empty_input_encodes_to_zero_rows(self, encoder, dtype):
        config = JointModelConfig(
            embedding_dim=4, module_dim=4, hidden_dim=6, representation_dim=5,
            dtype=dtype,
        )
        model = JointUserEventModel(config, encoder)
        for vectors in (model.encode_users([]), model.encode_events([])):
            assert vectors.shape == (0, 5)
            assert vectors.dtype == np.dtype(dtype)

    def test_seed_determines_weights(self, encoder, encoded):
        users, events = encoded
        sims = []
        for _ in range(2):
            model = JointUserEventModel(JointModelConfig.small(seed=7), encoder)
            sims.append(model.similarity(users, events))
        assert np.allclose(sims[0], sims[1])
        other = JointUserEventModel(JointModelConfig.small(seed=8), encoder)
        assert not np.allclose(other.similarity(users, events), sims[0])


class TestTraining:
    def test_train_step_accumulates_gradients(self, model, encoded):
        users, events = encoded
        model.store.zero_grad()
        loss = model.train_step(users, events, np.array([1.0, 0.0, 1.0]))
        assert loss >= 0.0
        total = sum(float(np.abs(p.grad).sum()) for p in model.store)
        assert total > 0.0


class TestRepeatedEntities:
    """Pairs that name one user or event share a tower row; the result
    is the one every pair would get from its own copy."""

    # 2 distinct users and 2 distinct events over 5 pairs.
    USERS = [0, 1, 0, 0, 1]
    EVENTS = [2, 2, 0, 2, 0]
    LABELS = np.array([1.0, 0.0, 0.0, 1.0, 1.0])
    WEIGHTS = np.array([2.0, 1.0, 0.5, 3.0, 1.0])

    def step(self, model, users, events):
        model.store.zero_grad()
        loss = model.train_step(
            users, events, self.LABELS, sample_weight=self.WEIGHTS
        )
        return loss, {p.name: p.grad.copy() for p in model.store}

    def test_same_loss_and_gradients_as_deep_copies(self, model, encoded):
        users, events = encoded
        pair_users = [users[i] for i in self.USERS]
        pair_events = [events[i] for i in self.EVENTS]
        shared_loss, shared = self.step(model, pair_users, pair_events)
        copied_loss, copied = self.step(
            model,
            [copy.deepcopy(user) for user in pair_users],
            [copy.deepcopy(event) for event in pair_events],
        )
        assert shared_loss == pytest.approx(copied_loss, rel=1e-12)
        for name, grad in shared.items():
            assert np.allclose(grad, copied[name], rtol=0, atol=1e-12), name
        assert np.allclose(
            model.similarity(pair_users, pair_events),
            model.similarity(
                [copy.deepcopy(user) for user in pair_users], pair_events
            ),
            rtol=0,
            atol=1e-12,
        )

    def test_towers_see_exactly_the_distinct_rows(
        self, model, encoded, monkeypatch
    ):
        users, events = encoded
        seen = {}
        forward = Tower.forward

        def counting(tower, batches):
            (batch, *_) = batches.values()
            seen[tower.name] = batch.batch_size
            return forward(tower, batches)

        monkeypatch.setattr(Tower, "forward", counting)
        model.train_step(
            [users[i] for i in self.USERS],
            [events[i] for i in self.EVENTS],
            self.LABELS,
        )
        assert seen == {"user": 2, "event": 2}


class TestPersistence:
    def test_state_round_trip_preserves_outputs(self, model, encoded, tmp_path):
        users, events = encoded
        before = model.similarity(users, events)
        path = str(tmp_path / "model.npz")
        model.store.save(path)
        for param in model.store:
            param.value[...] = 0.0
        model.store.load(path)
        assert np.allclose(model.similarity(users, events), before)

    def test_num_parameters_positive_and_consistent(self, model):
        assert model.num_parameters() == sum(
            p.value.size for p in model.store
        )
