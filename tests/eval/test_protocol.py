"""End-to-end two-stage experiment protocol (small, fast config)."""

import dataclasses

import numpy as np
import pytest

from repro.datagen.config import DataConfig
from repro.datagen.dataset import build_dataset
from repro.eval.protocol import SCALES, TwoStageExperiment
from repro.features.pipeline import FeatureSetConfig


@pytest.fixture(scope="module")
def experiment():
    dataset = build_dataset(DataConfig.small(seed=2))
    return SCALES["ci"].experiment(dataset).prepare()


class TestScales:
    def test_seed_moves_model_and_trainer_not_world(self):
        scale = SCALES["ci"]
        experiment = scale.experiment(seed=4)
        assert experiment.dataset.config == scale.world
        assert experiment.model_config == dataclasses.replace(scale.model, seed=4)
        assert experiment.training_config == dataclasses.replace(scale.training, seed=4)
        assert experiment.gbdt_config == scale.gbdt
        assert experiment.use_siamese_init
        assert experiment.min_df == scale.min_df

    def test_full_keeps_the_paper_architecture_defaults(self):
        # The defaults the shared ablation fit stands for (θ_r = 0,
        # windows 1/3/5, init 0.1) are the full model's own values.
        model = SCALES["full"].model
        assert (model.margin, model.text_windows, model.embedding_init_scale) == (
            0.0,
            (1, 3, 5),
            0.1,
        )


class TestPrepare:
    def test_artifacts_populated(self, experiment):
        assert experiment.is_prepared
        assert experiment.splits is not None
        assert experiment.encoder is not None
        assert experiment.training_history.epochs_run >= 1

    def test_provider_covers_all_entities(self, experiment):
        provider = experiment.provider
        assert len(provider.user_vectors) == len(experiment.dataset.users)
        assert len(provider.event_vectors) == len(experiment.dataset.events)

    def test_encoder_fitted_on_training_period_events_only(self, experiment):
        """Events created after the representation-train boundary must
        not contribute vocabulary (date-disjoint discipline)."""
        from repro.datagen.config import HOURS_PER_WEEK

        boundary = (experiment.dataset.config.weeks - 2) * HOURS_PER_WEEK
        late_events = [
            event
            for event in experiment.dataset.events
            if event.created_at >= boundary
        ]
        assert late_events, "fixture should have late events"
        # Vectors still exist for late events (UNK-encoded at worst).
        for event in late_events[:5]:
            assert event.event_id in experiment.provider.event_vectors


class TestRun:
    def test_single_setting_result_structure(self, experiment):
        result = experiment.run(FeatureSetConfig.baseline())
        assert result.name == "Baseline"
        assert 0.0 <= result.report.auc <= 1.0
        assert result.scores.shape == result.labels.shape
        assert len(result.feature_names) == len(result.feature_importances)
        assert result.curve.recall[-1] == pytest.approx(1.0)

    def test_baseline_beats_random(self, experiment):
        result = experiment.run(FeatureSetConfig.baseline())
        assert result.report.auc > 0.55

    def test_table1_has_four_settings(self, experiment):
        results = experiment.run_table1()
        assert list(results) == [
            "Rep. Vectors",
            "Baseline",
            "Add Rep. Vectors",
            "Add Score and Rep.",
        ]

    def test_table2_has_four_settings(self, experiment):
        results = experiment.run_table2()
        assert list(results) == [
            "Base Features (No-CF)",
            "Baseline",
            "Base and Rep. Features",
            "All Features",
        ]

    def test_run_before_prepare_rejected(self):
        dataset = build_dataset(DataConfig.small(seed=2))
        fresh = TwoStageExperiment(dataset)
        with pytest.raises(RuntimeError, match="prepare"):
            fresh.run(FeatureSetConfig.baseline())

    def test_deterministic_given_seeds(self, experiment):
        first = experiment.run(FeatureSetConfig.base_no_cf())
        second = experiment.run(FeatureSetConfig.base_no_cf())
        assert np.allclose(first.scores, second.scores)
