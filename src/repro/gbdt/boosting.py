"""Gradient-boosted decision trees with logistic loss.

The combiner prediction model of Section 4: "trained with gradient
boosting decision trees (GBDT), which is very effective in finding
high-order feature interactions.  In training the GBDT model, we
minimize the cross-entropy loss over observed user and event pairs."

Newton boosting (first/second-order gradients of the logistic loss)
on every row for a fixed number of rounds.  All experiment models use
the paper's 200 trees × 12 leaves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.gbdt.binning import FeatureBinner
from repro.gbdt.tree import RegressionTree
from repro.nn.losses import binary_cross_entropy, sigmoid
from repro.obs.registry import get_registry

__all__ = ["GBDTConfig", "GBDTClassifier"]

# Boosting rounds on binned features run in the ms..s range.
_ROUND_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                  0.5, 1.0, 2.5, 5.0, 10.0)
_LEAF_BUCKETS = (2, 4, 6, 8, 12, 16, 24, 32, 64)


def _tree_depth(tree: RegressionTree) -> int:
    """Longest root-to-leaf edge count of a fitted tree."""

    def walk(index: int) -> int:
        node = tree.nodes[index]
        if node.is_leaf:
            return 0
        return 1 + max(walk(node.left), walk(node.right))

    return walk(0) if tree.nodes else 0


@dataclass(frozen=True)
class GBDTConfig:
    """Boosting hyper-parameters (defaults follow Section 5.1)."""

    num_trees: int = 200
    max_leaves: int = 12
    learning_rate: float = 0.1
    min_samples_leaf: int = 20

    def __post_init__(self):
        if self.num_trees < 1:
            raise ValueError("num_trees must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")


class GBDTClassifier:
    """Binary classifier: ensemble of Newton-fitted regression trees."""

    def __init__(self, config: GBDTConfig | None = None):
        self.config = config or GBDTConfig()
        self.binner = FeatureBinner()
        self.trees: list[RegressionTree] = []
        self.base_score: float = 0.0
        self.train_losses: list[float] = []
        self._num_features: int | None = None

    @property
    def is_fitted(self) -> bool:
        return bool(self.trees)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "GBDTClassifier":
        """Fit the ensemble on a ``(rows, features)`` raw (unbinned)
        matrix and binary labels."""
        features = np.asarray(features, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.float64)
        if features.shape[0] != labels.shape[0]:
            raise ValueError("features and labels must align")
        if features.shape[0] < 2:
            raise ValueError("need at least two rows to fit")
        self._num_features = features.shape[1]
        binned = self.binner.fit_transform(features)

        positive_rate = float(np.clip(labels.mean(), 1e-6, 1 - 1e-6))
        self.base_score = float(np.log(positive_rate / (1 - positive_rate)))
        scores = np.full(labels.shape[0], self.base_score)

        self.trees = []
        self.train_losses = []

        registry = get_registry()
        for _ in range(self.config.num_trees):
            round_start = time.perf_counter() if registry.enabled else 0.0
            probabilities = sigmoid(scores)
            gradients = probabilities - labels
            hessians = probabilities * (1.0 - probabilities)

            tree = RegressionTree(
                max_leaves=self.config.max_leaves,
                min_samples_leaf=self.config.min_samples_leaf,
            )
            tree.fit(binned, gradients, hessians)
            self.trees.append(tree)
            scores += self.config.learning_rate * tree.predict(binned)
            self.train_losses.append(
                binary_cross_entropy(sigmoid(scores), labels)
            )
            if registry.enabled:
                registry.counter("repro_gbdt_rounds_total").inc()
                registry.gauge("repro_gbdt_round_train_loss").set(
                    self.train_losses[-1]
                )
                registry.histogram(
                    "repro_gbdt_round_seconds", buckets=_ROUND_BUCKETS
                ).observe(time.perf_counter() - round_start)
                registry.histogram(
                    "repro_gbdt_tree_leaves", buckets=_LEAF_BUCKETS
                ).observe(tree.num_leaves)
                registry.histogram(
                    "repro_gbdt_tree_depth", buckets=_LEAF_BUCKETS
                ).observe(_tree_depth(tree))
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Raw additive scores (log-odds)."""
        if not self.is_fitted:
            raise RuntimeError("model is not fitted")
        features = np.asarray(features, dtype=np.float64)
        binned = self.binner.transform(features)
        scores = np.full(features.shape[0], self.base_score)
        for tree in self.trees:
            scores += self.config.learning_rate * tree.predict(binned)
        return scores

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Participation probabilities."""
        return sigmoid(self.decision_function(features))

    def predict(self, features: np.ndarray) -> np.ndarray:
        return (self.predict_proba(features) >= 0.5).astype(np.int64)

    def feature_importances(self) -> np.ndarray:
        """Gain-based importances, normalized to sum to 1."""
        if not self.is_fitted or self._num_features is None:
            raise RuntimeError("model is not fitted")
        gains = np.zeros(self._num_features)
        for tree in self.trees:
            gains += tree.feature_gains(self._num_features)
        total = gains.sum()
        return gains / total if total > 0 else gains
