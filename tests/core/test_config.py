"""Model and training configuration validation."""

import pytest

from repro.core.config import JointModelConfig, TrainingConfig


class TestJointModelConfig:
    def test_paper_dims(self):
        config = JointModelConfig.paper()
        assert config.embedding_dim == 64
        assert config.hidden_dim == 256
        assert config.representation_dim == 128
        assert config.text_windows == (1, 3, 5)

    def test_feature_dims(self):
        config = JointModelConfig.paper()
        assert config.user_feature_dim == 64 * 4   # 3 text + 1 categorical
        assert config.event_feature_dim == 64 * 3

    def test_with_windows_ablation_helper(self):
        config = JointModelConfig.small().with_windows((1,))
        assert config.text_windows == (1,)
        assert config.event_feature_dim == config.module_dim

    def test_validation(self):
        with pytest.raises(ValueError, match="window"):
            JointModelConfig(text_windows=())
        with pytest.raises(ValueError, match="windows must be"):
            JointModelConfig(text_windows=(0,))
        with pytest.raises(ValueError, match="margin"):
            JointModelConfig(margin=2.0)
        with pytest.raises(ValueError, match="dtype"):
            JointModelConfig(dtype="float16")
        with pytest.raises(ValueError, match="positive"):
            JointModelConfig(embedding_dim=0)

    def test_bench_uses_float32(self):
        assert JointModelConfig.bench().dtype == "float32"


class TestTrainingConfig:
    def test_defaults_match_paper_recipe(self):
        config = TrainingConfig()
        assert config.epochs == 20

    def test_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainingConfig(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainingConfig(batch_size=0)
        with pytest.raises(ValueError, match="optimizer"):
            TrainingConfig(optimizer="adam")
        with pytest.raises(ValueError, match="validation_fraction"):
            TrainingConfig(validation_fraction=1.0)
