"""Gradient-boosted ensemble behaviour."""

import numpy as np
import pytest

from repro.eval.metrics import roc_auc
from repro.gbdt.boosting import GBDTClassifier, GBDTConfig


def _xor_data(rng, n=2000):
    features = rng.normal(size=(n, 4))
    logits = 2.5 * np.sign(features[:, 0]) * np.sign(features[:, 1])
    labels = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    return features, labels


class TestFit:
    def test_learns_xor_interaction(self, rng):
        features, labels = _xor_data(rng)
        model = GBDTClassifier(GBDTConfig(num_trees=60, max_leaves=8))
        model.fit(features[:1500], labels[:1500])
        auc = roc_auc(labels[1500:], model.predict_proba(features[1500:]))
        assert auc > 0.75

    def test_train_loss_decreases(self, rng):
        features, labels = _xor_data(rng, n=800)
        model = GBDTClassifier(GBDTConfig(num_trees=40, max_leaves=8))
        model.fit(features, labels)
        assert model.train_losses[-1] < model.train_losses[0]
        assert len(model.train_losses) == 40

    def test_base_score_matches_prior(self, rng):
        features = rng.normal(size=(100, 2))
        labels = (rng.random(100) < 0.25).astype(float)
        model = GBDTClassifier(GBDTConfig(num_trees=1))
        model.fit(features, labels)
        prior = labels.mean()
        assert np.isclose(model.base_score, np.log(prior / (1 - prior)))

    def test_misaligned_inputs_rejected(self, rng):
        model = GBDTClassifier()
        with pytest.raises(ValueError, match="align"):
            model.fit(rng.normal(size=(10, 2)), np.zeros(9))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="num_trees"):
            GBDTConfig(num_trees=0)
        with pytest.raises(ValueError, match="learning_rate"):
            GBDTConfig(learning_rate=0.0)


class TestPredict:
    def test_probabilities_in_unit_interval(self, rng):
        features, labels = _xor_data(rng, n=500)
        model = GBDTClassifier(GBDTConfig(num_trees=20, max_leaves=6))
        model.fit(features, labels)
        probabilities = model.predict_proba(features)
        assert np.all(probabilities > 0.0) and np.all(probabilities < 1.0)

    def test_predict_thresholds(self, rng):
        features, labels = _xor_data(rng, n=500)
        model = GBDTClassifier(GBDTConfig(num_trees=20, max_leaves=6))
        model.fit(features, labels)
        hard = model.predict(features)
        assert set(np.unique(hard)).issubset({0, 1})

    def test_unfitted_rejected(self, rng):
        with pytest.raises(RuntimeError, match="not fitted"):
            GBDTClassifier().predict_proba(rng.normal(size=(1, 2)))


class TestImportances:
    def test_sum_to_one_and_favor_signal(self, rng):
        features, labels = _xor_data(rng)
        model = GBDTClassifier(GBDTConfig(num_trees=40, max_leaves=8))
        model.fit(features, labels)
        importances = model.feature_importances()
        assert np.isclose(importances.sum(), 1.0)
        # Features 0 and 1 carry all the signal.
        assert importances[0] + importances[1] > 0.8

    def test_deterministic(self, rng):
        features, labels = _xor_data(rng, n=400)
        runs = []
        for _ in range(2):
            model = GBDTClassifier(GBDTConfig(num_trees=10, max_leaves=6))
            model.fit(features, labels)
            runs.append(model.predict_proba(features[:20]))
        assert np.allclose(runs[0], runs[1])
