"""The paper's end-to-end experiment protocol (Section 5.1).

Pipeline, exactly as deployed:

1. split the impression log into date-disjoint representation-train /
   combiner-train / evaluation periods (4w + 1w + 1w);
2. fit the document encoder (DF-filtered lookup tables) and train the
   joint representation model on the first period — optionally with
   Siamese event-tower initialization;
3. pre-compute representation vectors for every user and event;
4. for each feature-set configuration, fit the combiner feature
   pipeline on the first period, train the GBDT combiner on the second
   period, and score the third;
5. report PR60 / PR80 / AUC and the full P/R curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import JointModelConfig, TrainingConfig
from repro.core.model import JointUserEventModel
from repro.core.siamese import SiameseEventInitializer
from repro.core.trainer import RepresentationTrainer, TrainingHistory
from repro.datagen.dataset import DatasetSplits, EventRecDataset
from repro.eval.metrics import ClassifierReport, PRCurve, evaluate_scores, pr_curve
from repro.features.context import FeatureContext
from repro.features.pipeline import CombinerFeaturePipeline, FeatureSetConfig
from repro.features.rep_features import RepresentationFeatureProvider
from repro.gbdt.boosting import GBDTClassifier, GBDTConfig
from repro.text.documents import DocumentEncoder

__all__ = ["ExperimentResult", "TwoStageExperiment"]


@dataclass
class ExperimentResult:
    """Outcome of one feature-set configuration."""

    name: str
    report: ClassifierReport
    curve: PRCurve
    scores: np.ndarray
    labels: np.ndarray
    feature_names: list[str] = field(default_factory=list)
    feature_importances: np.ndarray | None = None


class TwoStageExperiment:
    """Owns one dataset and one trained representation model, and runs
    any number of combiner feature-set configurations against them."""

    def __init__(
        self,
        dataset: EventRecDataset,
        model_config: JointModelConfig | None = None,
        training_config: TrainingConfig | None = None,
        gbdt_config: GBDTConfig | None = None,
        use_siamese_init: bool = False,
        min_df: int = 2,
        click_positive_weight: float | None = None,
    ):
        if click_positive_weight is not None and not 0.0 < click_positive_weight <= 1.0:
            raise ValueError(
                f"click_positive_weight must be in (0, 1], got {click_positive_weight}"
            )
        self.dataset = dataset
        self.model_config = model_config or JointModelConfig.bench()
        self.training_config = training_config or TrainingConfig()
        self.gbdt_config = gbdt_config or GBDTConfig()
        self.use_siamese_init = use_siamese_init
        self.min_df = min_df
        # Paper's future-work extension: clicked-but-not-joined
        # impressions become weak positives with this weight.
        self.click_positive_weight = click_positive_weight

        self.splits: DatasetSplits | None = None
        self.encoder: DocumentEncoder | None = None
        self.model: JointUserEventModel | None = None
        self.training_history: TrainingHistory | None = None
        self.context: FeatureContext | None = None
        self._provider: RepresentationFeatureProvider | None = None

    @property
    def is_prepared(self) -> bool:
        return self.model is not None

    # ------------------------------------------------------------------
    # stage 1
    # ------------------------------------------------------------------

    def prepare(self) -> "TwoStageExperiment":
        """Split, fit the encoder, train the representation model, and
        pre-compute all representation vectors."""
        self.splits = self.dataset.split()
        train_events = [
            event
            for event in self.dataset.events
            if event.created_at < self.splits.representation_end
        ]
        if not train_events:
            raise RuntimeError("no events created in the training period")
        self.encoder = DocumentEncoder.fit(
            self.dataset.users, train_events, min_df=self.min_df
        )
        self.model = JointUserEventModel(self.model_config, self.encoder)

        if self.use_siamese_init:
            initializer = SiameseEventInitializer(self.model_config, self.encoder)
            initializer.fit(
                train_events,
                TrainingConfig(
                    epochs=3,
                    patience=3,
                    batch_size=self.training_config.batch_size,
                    learning_rate=self.training_config.learning_rate,
                    seed=self.training_config.seed,
                ),
            )
            initializer.transfer_to(self.model)

        pair_users, pair_events, labels = self.encoder.encode_pairs(
            self.splits.representation_train,
            self.dataset.users_by_id,
            self.dataset.events_by_id,
        )
        sample_weight = None
        if self.click_positive_weight is not None:
            sample_weight = np.ones(len(labels))
            for index, impression in enumerate(self.splits.representation_train):
                if impression.clicked and not impression.participated:
                    labels[index] = 1.0
                    sample_weight[index] = self.click_positive_weight
        trainer = RepresentationTrainer(self.model, self.training_config)
        self.training_history = trainer.fit(
            pair_users, pair_events, labels, sample_weight=sample_weight
        )

        self.context = FeatureContext(self.dataset.users, self.dataset.events)
        self._provider = RepresentationFeatureProvider.from_model(
            self.model,
            self.dataset.users,
            self.dataset.events,
            include_vectors=True,
            include_score=True,
        )
        return self

    @property
    def provider(self) -> RepresentationFeatureProvider:
        if self._provider is None:
            raise RuntimeError("call prepare() first")
        return self._provider

    # ------------------------------------------------------------------
    # stage 2
    # ------------------------------------------------------------------

    def run(self, setting: FeatureSetConfig) -> ExperimentResult:
        """Train the combiner under *setting* and score the eval split."""
        if self.splits is None or self.context is None:
            raise RuntimeError("call prepare() first")
        pipeline = CombinerFeaturePipeline(
            self.context, setting, representation=self._provider
        )
        pipeline.fit(self.splits.representation_train)
        log = self.dataset.impressions
        train_x, train_y, names = pipeline.build(
            self.splits.combiner_train, log
        )
        eval_x, eval_y, _ = pipeline.build(self.splits.evaluation, log)
        combiner = GBDTClassifier(self.gbdt_config)
        combiner.fit(train_x, train_y)
        scores = combiner.predict_proba(eval_x)
        return ExperimentResult(
            name=setting.name,
            report=evaluate_scores(eval_y, scores),
            curve=pr_curve(eval_y, scores),
            scores=scores,
            labels=eval_y,
            feature_names=names,
            feature_importances=combiner.feature_importances(),
        )

    def run_settings(
        self, settings: list[FeatureSetConfig]
    ) -> dict[str, ExperimentResult]:
        return {setting.name: self.run(setting) for setting in settings}

    def run_table1(self) -> dict[str, ExperimentResult]:
        """The four integration settings of Table 1 / Figure 5."""
        return self.run_settings(
            [
                FeatureSetConfig.representation_only(),
                FeatureSetConfig.baseline(),
                FeatureSetConfig.baseline_plus_vectors(),
                FeatureSetConfig.baseline_plus_vectors_and_score(),
            ]
        )

    def run_table2(self) -> dict[str, ExperimentResult]:
        """The four feature combinations of Table 2 / Figure 6."""
        return self.run_settings(
            [
                FeatureSetConfig.base_no_cf(),
                FeatureSetConfig.baseline(),
                FeatureSetConfig.base_plus_rep(),
                FeatureSetConfig.all_features(),
            ]
        )
