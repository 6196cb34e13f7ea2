"""Weighted contrastive loss (click-feedback extension)."""

import numpy as np
import pytest

from repro.nn.losses import contrastive_loss


class TestSampleWeights:
    def test_unit_weights_match_unweighted(self):
        sims = np.array([0.8, -0.2, 0.3])
        labels = np.array([1.0, 0.0, 0.0])
        plain_loss, plain_grad = contrastive_loss(sims, labels)
        weighted_loss, weighted_grad = contrastive_loss(
            sims, labels, sample_weight=np.ones(3)
        )
        assert plain_loss == weighted_loss
        assert np.allclose(plain_grad, weighted_grad)

    def test_weights_scale_loss_and_gradient(self):
        sims = np.array([0.5])
        labels = np.array([1.0])
        full_loss, full_grad = contrastive_loss(sims, labels)
        half_loss, half_grad = contrastive_loss(
            sims, labels, sample_weight=np.array([0.5])
        )
        assert np.isclose(half_loss, 0.5 * full_loss)
        assert np.allclose(half_grad, 0.5 * full_grad)

    def test_zero_weight_silences_example(self):
        sims = np.array([0.9, 0.9])
        labels = np.array([0.0, 0.0])
        loss, grad = contrastive_loss(
            sims, labels, sample_weight=np.array([1.0, 0.0])
        )
        assert grad[1] == 0.0
        assert grad[0] > 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample_weight shape"):
            contrastive_loss(
                np.array([0.5]), np.array([1.0]), sample_weight=np.ones(2)
            )

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            contrastive_loss(
                np.array([0.5]), np.array([1.0]), sample_weight=np.array([-1.0])
            )


class TestClickWeightedProtocol:
    def test_experiment_accepts_click_weighting(self):
        from repro.core.config import JointModelConfig, TrainingConfig
        from repro.datagen.config import DataConfig
        from repro.datagen.dataset import build_dataset
        from repro.eval.protocol import TwoStageExperiment
        from repro.gbdt.boosting import GBDTConfig

        dataset = build_dataset(DataConfig.small(seed=6))
        experiment = TwoStageExperiment(
            dataset,
            model_config=JointModelConfig.small(seed=0),
            training_config=TrainingConfig(epochs=1, patience=2, seed=0),
            gbdt_config=GBDTConfig(num_trees=5, max_leaves=4, min_samples_leaf=5),
            min_df=1,
            click_positive_weight=0.3,
        )
        experiment.prepare()
        assert experiment.training_history.epochs_run == 1

    def test_invalid_click_weight_rejected(self):
        from repro.datagen.config import DataConfig
        from repro.datagen.dataset import build_dataset
        from repro.eval.protocol import TwoStageExperiment

        dataset = build_dataset(DataConfig.small(seed=6))
        with pytest.raises(ValueError, match="click_positive_weight"):
            TwoStageExperiment(dataset, click_positive_weight=1.5)
